//! DCFA-MPI library configuration: protocol thresholds and feature toggles
//! (the knobs the paper's evaluation and our ablation benches turn).

use simcore::SimDuration;

/// Where MPI ranks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Ranks on Xeon Phi co-processors — DCFA-MPI proper.
    Phi,
    /// Ranks on the host Xeons — the YAMPII host MPI baseline the paper
    /// compares RTT/bandwidth against ("host" curves in Figs. 7/8).
    Host,
}

/// Library configuration.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Where the ranks run.
    pub placement: Placement,
    /// Eager/rendezvous switch point: messages strictly larger than this go
    /// through a rendezvous protocol.
    pub eager_threshold: u64,
    /// Offloading-send-buffer activation size (paper §IV-B4: "an
    /// offloading send buffer starting from 8Kbytes shows the best
    /// performance" in their environment). `None` disables the mode
    /// (also forced off for Host placement).
    pub offload_threshold: Option<u64>,
    /// Memory-region cache pool for send/receive buffers ("a buffer cache
    /// pool was designed for caching the most recently used memory
    /// regions"). Capacity in regions; 0 disables caching.
    pub mr_cache_capacity: usize,
    /// Slots per eager ring (per ordered peer pair).
    pub ring_slots: u32,
    /// Payload capacity of one eager ring slot. Must be at least
    /// `eager_threshold`.
    pub ring_slot_payload: u64,
    /// How many times a transiently failed transport operation (RNR /
    /// retry-exceeded completion) is re-posted before the owning request
    /// fails. 0 means a single attempt with no retries. Ownerless control
    /// packets (completions, credits) retry without bound: dropping them
    /// would wedge the peer's ring.
    pub retry_limit: u32,
    /// Rendezvous handshake watchdog: if a send/receive is still waiting
    /// for its completion packet this long after issuing RTS/RTR, the
    /// handshake packet is re-issued (duplicates are deduplicated by pair
    /// sequence id). `None` disables the watchdog.
    pub rndv_timeout: Option<SimDuration>,
    /// Lease-renewal heartbeat period for the DCFA session. `None`
    /// disables the sidecar; the daemon then sees the rank as alive only
    /// while it issues commands (fine unless a lease TTL is configured).
    pub heartbeat_interval: Option<SimDuration>,
    /// Bound on live entries in each engine slot table (outstanding
    /// requests, inflight work requests). Hitting the bound surfaces as
    /// [`crate::MpiError::ResourceExhausted`] backpressure on `isend`
    /// / `irecv` instead of aborting the rank.
    pub max_requests: u32,
    /// Shared-receive-queue depth. `Some(d)` switches eager/control
    /// traffic from per-pair RDMA rings to two-sided sends into one
    /// `d`-slot pool shared by all peers of a rank — O(ranks) instead of
    /// O(ranks²) buffer memory per world. `None` keeps the per-pair ring
    /// path.
    pub srq_depth: Option<u32>,
    /// Peer-failure detection TTL. `Some(ttl)` starts a heartbeat
    /// sidecar per rank (period `ttl / 4`) and classifies peers on the
    /// health board: heartbeat staleness past `ttl` marks a peer
    /// `Suspect`, past `3 * ttl` promotes it to `Dead`, after which any
    /// operation targeting it fails with
    /// [`crate::MpiError::PeerFailed`] instead of hanging. `None`
    /// disables the sidecar; failures are then detected only by QP-error
    /// snooping (a flush completion on a WR toward the dead peer).
    pub peer_ttl: Option<SimDuration>,
    /// Capacity (in events) of the shared structured-trace ring a
    /// launch attaches when tracing is requested. The ring drops its
    /// oldest events once full ([`crate::trace::TraceBuf::dropped`]
    /// counts them), which degrades the post-run audit and message
    /// stitcher from whole-run proofs to suffix checks — size it to the
    /// workload. Harnesses that derive larger per-rank capacities treat
    /// this as a floor.
    pub trace_capacity: usize,
}

impl MpiConfig {
    /// DCFA-MPI as evaluated in the paper: ranks on Phi, offloading send
    /// buffer from 8 KiB, MR cache enabled.
    pub fn dcfa() -> Self {
        MpiConfig {
            placement: Placement::Phi,
            // Rendezvous (and with it the offloading send buffer) takes
            // over above 8 KiB — the activation point the paper found
            // best in its environment (§IV-B4).
            eager_threshold: 8 << 10,
            offload_threshold: Some(8 << 10),
            mr_cache_capacity: 64,
            ring_slots: 64,
            ring_slot_payload: 8 << 10,
            retry_limit: 4,
            // Far above any healthy handshake latency (µs scale), so the
            // watchdog never fires spuriously in fault-free runs.
            rndv_timeout: Some(SimDuration::from_millis(10)),
            heartbeat_interval: None,
            max_requests: 1 << 20,
            srq_depth: None,
            peer_ttl: None,
            trace_capacity: 1 << 16,
        }
    }

    /// DCFA-MPI without the offloading send buffer (the "w/o offload"
    /// curves of Figs. 7/8).
    pub fn dcfa_no_offload() -> Self {
        MpiConfig {
            offload_threshold: None,
            ..Self::dcfa()
        }
    }

    /// Host MPI (YAMPII) — ranks on the Xeons.
    pub fn host() -> Self {
        MpiConfig {
            placement: Placement::Host,
            offload_threshold: None,
            ..Self::dcfa()
        }
    }

    /// Sanity-check invariants; called by the launcher.
    pub fn validate(&self) {
        assert!(self.ring_slots >= 4, "need at least 4 ring slots");
        assert!(
            self.ring_slot_payload >= self.eager_threshold,
            "ring slot payload must hold an eager message"
        );
        if self.placement == Placement::Host {
            assert!(
                self.offload_threshold.is_none(),
                "offload send buffer is a Phi-only mode"
            );
        }
        if let Some(t) = self.rndv_timeout {
            assert!(t > SimDuration::ZERO, "rendezvous timeout must be positive");
        }
        if let Some(h) = self.heartbeat_interval {
            assert!(h > SimDuration::ZERO, "heartbeat interval must be positive");
        }
        assert!(self.max_requests >= 4, "need at least 4 request slots");
        if let Some(t) = self.peer_ttl {
            assert!(t > SimDuration::ZERO, "peer TTL must be positive");
        }
        if let Some(d) = self.srq_depth {
            assert!(
                d >= 2 * self.ring_slots,
                "SRQ pool must hold at least two peers' windows"
            );
        }
        assert!(
            self.trace_capacity > 0,
            "trace ring capacity must be positive"
        );
    }
}

impl Default for MpiConfig {
    fn default() -> Self {
        Self::dcfa()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        MpiConfig::dcfa().validate();
        MpiConfig::dcfa_no_offload().validate();
        MpiConfig::host().validate();
    }

    #[test]
    #[should_panic(expected = "Phi-only")]
    fn host_with_offload_rejected() {
        let cfg = MpiConfig {
            placement: Placement::Host,
            offload_threshold: Some(8 << 10),
            ..MpiConfig::dcfa()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "trace ring capacity")]
    fn zero_trace_capacity_rejected() {
        let cfg = MpiConfig {
            trace_capacity: 0,
            ..MpiConfig::dcfa()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "slot payload")]
    fn slot_smaller_than_eager_rejected() {
        let cfg = MpiConfig {
            ring_slot_payload: 1024,
            ..MpiConfig::dcfa()
        };
        cfg.validate();
    }
}
