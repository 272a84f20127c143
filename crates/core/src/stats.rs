//! Consolidated counter snapshots: one [`StatsReport`] per rank, built
//! by `Engine::dump` / `Comm::dump`, printable as the `repro --stats`
//! table.

use std::fmt;

use crate::engine::CommStats;
use crate::mrcache::CacheStats;
use crate::types::Rank;

/// Snapshot of every counter a rank's engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReport {
    pub rank: Rank,
    /// Protocol/traffic counters.
    pub comm: CommStats,
    /// MR cache pool counters.
    pub mr_cache: CacheStats,
    /// Offloading-twin cache counters.
    pub offload: CacheStats,
    /// Regions currently resident in the MR cache.
    pub mr_cached: usize,
    /// Regions currently pinned by outstanding leases.
    pub mr_pinned: usize,
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.comm;
        writeln!(f, "rank {}:", self.rank)?;
        writeln!(
            f,
            "  sends      eager {:>8}  rndv {:>8}  (recv-first {}, send-first {})",
            c.eager_sends,
            c.rndv_sends,
            c.rndv_recv_first,
            c.rndv_sends - c.rndv_recv_first,
        )?;
        writeln!(
            f,
            "  traffic    sent {:>10} B  received {:>10} B  packets {:>8}",
            c.bytes_sent, c.bytes_received, c.packets_processed
        )?;
        writeln!(
            f,
            "  flow ctl   credit grants {:>6}  stale RTRs dropped {:>4}  credit parks {:>5}",
            c.credit_grants, c.stale_rtrs_dropped, c.credit_parks
        )?;
        writeln!(
            f,
            "  recovery   wc faults {:>5}  retries {:>4}  failed {:>4}  reissues {:>4}",
            c.wr_faults, c.wr_retries, c.transport_failures, c.handshake_reissues
        )?;
        writeln!(
            f,
            "  hot path   doorbells coalesced {:>5}  replay entries pruned {:>5}",
            c.doorbells_coalesced, c.replay_pruned
        )?;
        writeln!(
            f,
            "  scale      pairs established {:>5}  comm buffers {:>10} B  srq hw {:>4}",
            c.pairs_established, c.comm_buffer_bytes, c.srq_highwater
        )?;
        writeln!(
            f,
            "  mr cache   hits {:>6}  misses {:>4}  evictions {:>4}  reg {:>4}  dereg {:>4}  \
             invalidated {:>4}  (resident {}, pinned {})",
            self.mr_cache.hits,
            self.mr_cache.misses,
            self.mr_cache.evictions,
            self.mr_cache.registered,
            self.mr_cache.deregistered,
            self.mr_cache.invalidated,
            self.mr_cached,
            self.mr_pinned,
        )?;
        writeln!(
            f,
            "  offload    syncs {:>5}  twin hits {:>4}  misses {:>4}  evictions {:>4}  \
             invalidated {:>4}  fallbacks {:>4}",
            c.offload_syncs,
            self.offload.hits,
            self.offload.misses,
            self.offload.evictions,
            self.offload.invalidated,
            c.offload_fallbacks,
        )?;
        write!(
            f,
            "  failures   deaths seen {:>3}  suspected {:>3}  revokes {:>3}  reclaimed {:>5}  \
             revoked reqs {:>4}  conn retries {:>3}  agreement restarts {:>3}",
            c.peer_deaths_detected,
            c.peers_suspected,
            c.revokes_observed,
            c.dead_reclaimed,
            c.reqs_revoked,
            c.conn_retries,
            c.agreement_restarts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let r = StatsReport {
            rank: 3,
            comm: CommStats {
                eager_sends: 10,
                rndv_sends: 4,
                rndv_recv_first: 1,
                ..Default::default()
            },
            mr_cache: CacheStats {
                hits: 6,
                misses: 2,
                ..Default::default()
            },
            offload: CacheStats::default(),
            mr_cached: 2,
            mr_pinned: 0,
        };
        let s = r.to_string();
        assert!(s.contains("rank 3:"), "{s}");
        assert!(s.contains("send-first 3"), "{s}");
        assert!(s.contains("hits      6"), "{s}");
    }
}
