//! Structured protocol tracing and the protocol auditor.
//!
//! Every rank's engine can record [`TraceEvent`]s into a shared,
//! bounded [`TraceBuf`] ring: packet transmit/receive with kind,
//! sequence id and peer (which covers the RTS/RTR/DONE rendezvous
//! transitions), MR-cache register/pin/unpin/deregister/evict, credit
//! grants and applications, offload-sync start/end, stale-RTR drops,
//! and timestamped message-lifecycle edges ([`TraceEvent::MsgLife`])
//! that let a post-run stitcher rebuild each message's cross-rank
//! causal DAG. The simulation runs exactly one process thread at a
//! time, so the ring's order *is* the simulation's causal order and a
//! recorded run replays deterministically.
//!
//! [`Trace::record`] takes the event as a closure, so an engine without
//! an attached buffer pays one `Option` check per site and never builds
//! the event.
//!
//! [`audit`] replays a recorded event stream and checks the protocol
//! invariants the paper's design relies on (§IV-B3/§IV-B4):
//!
//! 1. per ordered pair, data sequence ids (EAGER/RTS) are assigned
//!    `0, 1, 2, …` with no gap or repeat;
//! 2. an MR is never deregistered or evicted while pinned by an
//!    outstanding RDMA, and pin/unpin counts never go negative;
//! 3. credit grants are cumulative, never retreat, and never exceed
//!    the packets actually sent to the granter (the sender's window
//!    `sent - consumed` can never go negative);
//! 4. every RTS is answered by exactly one DONE, and every RTR by at
//!    most one DONE-WRITE (stale RTRs are dropped by sequence id);
//! 5. control-plane fault recovery is complete: every daemon crash is
//!    paired with a respawn of the same incarnation, and every client
//!    re-attach replays its *entire* resource journal (`replayed ==
//!    journaled` — no resource silently lost across a respawn);
//! 6. every opened metrics span is closed exactly once before rank
//!    finalize: a dangling or double-closed span is a leak in the
//!    engine's phase accounting and fails the audit with the span's
//!    phase and message id.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::Phase;
use crate::packet::PacketKind;
use crate::types::Rank;

/// A stage in one message's lifecycle. Each [`TraceEvent::MsgLife`]
/// event names the stage that *ends* at its timestamp, so two
/// consecutive events of the same message form one causal edge whose
/// duration is the timestamp delta (the stitcher in `bench::stitch`
/// telescopes them into a per-message DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgStage {
    /// The sender's `isend` assigned the pair sequence id.
    Post,
    /// The send sat parked waiting for ring credit (flow control).
    CreditStall,
    /// The eager one-copy into the staging slot (or the receive-side
    /// copy out of the ring slot into the user buffer) finished.
    Copy,
    /// The offloading-send-buffer DMA sync to the host twin finished.
    OffloadSync,
    /// The rendezvous source lease was acquired (MR-cache hit, or a
    /// registration command round-trip through the DCFA daemon).
    MrAcquire,
    /// The packet's work request was posted (doorbell rung).
    Doorbell,
    /// The packet was consumed from the wire at the receiver.
    Wire,
    /// SRQ mode: the packet overtook its predecessors and was parked in
    /// the per-peer reorder stash.
    SrqStash,
    /// The packet arrived before its receive was posted and was parked
    /// in the unexpected-message queue.
    UnexpStash,
    /// The message matched a posted receive.
    Match,
    /// The rendezvous RDMA READ/WRITE was posted.
    RdmaStart,
    /// The rendezvous RDMA READ/WRITE completed.
    RdmaDone,
    /// A transiently failed work request entered retry backoff.
    Backoff,
    /// A backed-off work request was re-posted.
    Retry,
    /// A NACK for this message was transmitted (transport abort).
    Nack,
    /// The message resolved at this rank (request done).
    Complete,
}

impl MsgStage {
    /// Stable lower-case name (report keys, Perfetto slice names).
    pub fn name(self) -> &'static str {
        match self {
            MsgStage::Post => "post",
            MsgStage::CreditStall => "credit_stall",
            MsgStage::Copy => "copy",
            MsgStage::OffloadSync => "offload_sync",
            MsgStage::MrAcquire => "mr_acquire",
            MsgStage::Doorbell => "doorbell",
            MsgStage::Wire => "wire",
            MsgStage::SrqStash => "srq_stash",
            MsgStage::UnexpStash => "unexp_stash",
            MsgStage::Match => "match",
            MsgStage::RdmaStart => "rdma_start",
            MsgStage::RdmaDone => "rdma_done",
            MsgStage::Backoff => "backoff",
            MsgStage::Retry => "retry",
            MsgStage::Nack => "nack",
            MsgStage::Complete => "complete",
        }
    }
}

/// One recorded protocol event. `from`/`to`/`at` identify ranks;
/// MR events identify regions by their registration key, which is
/// unique per registration within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet was placed into `to`'s inbound ring.
    PacketTx {
        from: Rank,
        to: Rank,
        kind: PacketKind,
        seq: u64,
        len: u64,
    },
    /// A packet was consumed from `at`'s inbound ring.
    PacketRx {
        at: Rank,
        from: Rank,
        kind: PacketKind,
        seq: u64,
        len: u64,
    },
    /// A memory region entered the MR cache layer (fresh registration).
    MrRegister {
        rank: Rank,
        key: u32,
        addr: u64,
        len: u64,
        cached: bool,
    },
    /// A region left the cache layer and was deregistered.
    MrDeregister { rank: Rank, key: u32 },
    /// A cached region was evicted (LRU) and deregistered.
    MrEvict { rank: Rank, key: u32 },
    /// A lease pinned the region (an RDMA may now target it).
    MrPin { rank: Rank, key: u32 },
    /// The lease was released.
    MrUnpin { rank: Rank, key: u32 },
    /// `from` reported `consumed` cumulative ring slots to `to`.
    CreditGrant { from: Rank, to: Rank, consumed: u64 },
    /// `at` applied a credit report from `from`.
    CreditApply { at: Rank, from: Rank, consumed: u64 },
    /// Offloading-send-buffer DMA sync began (Phi -> host twin).
    OffloadSyncStart { rank: Rank, len: u64 },
    /// The DMA sync completed.
    OffloadSyncEnd { rank: Rank, len: u64 },
    /// A stale RTR was dropped thanks to sequence ids (mis-prediction
    /// recovery).
    StaleRtrDrop { rank: Rank, from: Rank, seq: u64 },
    /// A posted work request targeting `peer` completed with an error
    /// status (`transient` per the WC classification).
    WrFault {
        rank: Rank,
        peer: Rank,
        wr_id: u64,
        transient: bool,
    },
    /// A transiently failed work request was re-posted (attempt number,
    /// counting the original post as attempt 1).
    WrRetry {
        rank: Rank,
        peer: Rank,
        wr_id: u64,
        attempt: u32,
    },
    /// A request failed permanently with `MpiError::Transport`; `seq` is
    /// the pair sequence id of the dead transfer (if any).
    TransportFail { rank: Rank, peer: Rank, seq: u64 },
    /// `from` is about to deliberately re-transmit a packet it already
    /// sent (handshake watchdog re-issue, duplicate-answer replay, or a
    /// NACK rewrite of a dead ring slot). Grants the auditor an allowance
    /// for one duplicate `PacketTx` with these coordinates, which is
    /// exempt from sequence/pairing accounting.
    Retrans {
        from: Rank,
        to: Rank,
        kind: PacketKind,
        seq: u64,
    },
    /// A cached region was dropped because the daemon had already
    /// reclaimed the underlying registration (lease expiry or crash
    /// drain). Lifecycle-wise this is a deregister: the key must never
    /// be handed out again afterwards.
    MrInvalidated { rank: Rank, key: u32 },
    /// A DCFA command timed out waiting for the daemon's reply.
    /// `client` is the daemon-assigned session id.
    CtrlTimeout { client: u32, seq: u32 },
    /// A timed-out DCFA command was retransmitted (`attempt` starts at 1).
    CtrlRetry { client: u32, seq: u32, attempt: u32 },
    /// A client re-attached to its node daemon and replayed its resource
    /// journal under control `epoch`. The auditor requires
    /// `replayed == journaled`: every journaled resource must be
    /// re-established (adopted or re-registered) after a respawn.
    CtrlReattach {
        client: u32,
        epoch: u32,
        journaled: u64,
        replayed: u64,
    },
    /// The node's delegation daemon crashed; `epoch` is the incarnation
    /// that will replace it.
    DaemonCrash { node: usize, epoch: u32 },
    /// The supervisor respawned the node daemon as incarnation `epoch`.
    DaemonRespawn { node: usize, epoch: u32 },
    /// The lease reaper reclaimed an expired client session holding
    /// `objects` IB objects.
    LeaseReclaim {
        node: usize,
        client: u32,
        objects: u64,
    },
    /// A retransmitted command was answered from the daemon's reply-dedup
    /// cache instead of being re-executed.
    CtrlReplay { node: usize, client: u32, seq: u32 },
    /// The rank gave up on offload twins (repeated registration failure)
    /// and degraded to direct-from-Phi rendezvous sends.
    OffloadDegraded { rank: Rank },
    /// A metrics span opened: an asynchronous protocol stage of message
    /// `id` began in `phase`. Must be closed exactly once.
    SpanOpen { rank: Rank, id: u64, phase: Phase },
    /// The matching span close.
    SpanClose { rank: Rank, id: u64, phase: Phase },
    /// `rank` was fail-stop killed (injection or chaos schedule). From
    /// this point the auditor forgives end-of-stream obligations that
    /// involve the dead rank: its unreleased pins, open spans and syncs,
    /// and handshakes with it as an endpoint can never complete.
    RankKilled { rank: Rank },
    /// `rank` observed `peer`'s death (health-board epoch advance) and
    /// reclaimed every resource tied to the pair.
    PeerReaped { rank: Rank, peer: Rank },
    /// `rank` observed a communicator revocation and drained its pending
    /// operations with `Revoked`.
    RevokeObserved { rank: Rank },
    /// The lazy-connect watchdog re-issued a REQ toward `peer`
    /// (`attempt` counts re-issues, starting at 1).
    ConnRetry {
        rank: Rank,
        peer: Rank,
        attempt: u32,
    },
    /// The shrink agreement committed `epoch`, producing a
    /// `survivors`-rank world.
    ShrinkCommit { epoch: u64, survivors: u64 },
    /// A message-lifecycle edge event observed at rank `at`, in virtual
    /// time `t` (nanoseconds). The message is identified by its stable
    /// `MsgId` `(src, dst, seq)` — the sender, the receiver, and the
    /// sender-stream pair sequence id already carried in every packet
    /// header — which is what lets the
    /// post-run stitcher join per-rank streams into one cross-rank
    /// causal DAG. `stage` names the edge ending at this event; `len`
    /// is the message payload length (0 where unknown, e.g. NACKs).
    MsgLife {
        at: Rank,
        src: Rank,
        dst: Rank,
        seq: u64,
        stage: MsgStage,
        t: u64,
        len: u64,
    },
}

struct TraceInner {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

/// Shared bounded ring of [`TraceEvent`]s. Clone-able; all ranks of a
/// launch append to the same ring, in simulation order.
#[derive(Clone)]
pub struct TraceBuf {
    inner: Arc<Mutex<TraceInner>>,
}

impl TraceBuf {
    /// A ring holding at most `cap` events; older events are dropped
    /// (and counted) once full.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "trace ring capacity must be positive");
        TraceBuf {
            inner: Arc::new(Mutex::new(TraceInner {
                events: VecDeque::new(),
                cap,
                dropped: 0,
            })),
        }
    }

    pub fn record(&self, ev: TraceEvent) {
        let mut g = self.inner.lock();
        if g.events.len() == g.cap {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev);
    }

    /// Copy of the ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().copied().collect()
    }

    /// Events discarded because the ring was full. Audits of a full run
    /// are only meaningful when this is zero.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("TraceBuf")
            .field("len", &g.events.len())
            .field("cap", &g.cap)
            .field("dropped", &g.dropped)
            .finish()
    }
}

/// Per-engine recording handle: an optional attachment to a shared
/// [`TraceBuf`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    buf: Option<TraceBuf>,
}

impl Trace {
    /// Attach to a shared ring.
    pub fn attach(&mut self, buf: TraceBuf) {
        self.buf = Some(buf);
    }

    /// Record an event. The closure only runs when a buffer is attached.
    #[inline]
    pub fn record(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.record(ev());
        }
    }
}

/// Summary counts from a successful [`audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Data packets (EAGER/RTS) transmitted.
    pub data_packets: u64,
    /// RTS handshakes observed, each matched by exactly one DONE.
    pub rts_matched: u64,
    /// RTR advertisements observed.
    pub rtrs: u64,
    /// Cache-layer MR registrations observed.
    pub mr_registered: u64,
    /// Regions registered but never deregistered within the stream.
    /// Zero when the stream covers the full run through finalize.
    pub mr_leaked: u64,
    /// Credit grant packets observed.
    pub credit_grants: u64,
    /// Offloading-send-buffer syncs observed (start/end paired).
    pub offload_syncs: u64,
    /// Stale RTRs dropped by sequence id.
    pub stale_rtrs: u64,
    /// Error work completions observed.
    pub wr_faults: u64,
    /// Work-request retries observed.
    pub wr_retries: u64,
    /// Requests that failed permanently with a transport error.
    pub transport_failures: u64,
    /// Deliberate re-transmissions (watchdog re-issues, replayed answers,
    /// NACK slot rewrites).
    pub retransmissions: u64,
    /// NACK packets (NackSend/Nack/NackWrite) transmitted.
    pub nacks: u64,
    /// Cached regions invalidated after daemon-side reclamation.
    pub mr_invalidated: u64,
    /// DCFA command timeouts observed.
    pub ctrl_timeouts: u64,
    /// DCFA command retransmissions observed.
    pub ctrl_retries: u64,
    /// Client re-attaches, each with its full journal replayed.
    pub reattaches: u64,
    /// Daemon crashes observed, each paired with a respawn.
    pub daemon_crashes: u64,
    /// Expired client sessions reclaimed by the lease reaper.
    pub lease_reclaims: u64,
    /// Retransmitted commands answered from the reply-dedup cache.
    pub ctrl_replays: u64,
    /// Ranks that degraded to direct-from-Phi rendezvous sends.
    pub offload_degraded: u64,
    /// Metrics spans opened and closed (paired exactly).
    pub spans_closed: u64,
    /// Ranks fail-stop killed within the stream.
    pub ranks_killed: u64,
    /// Peer-death observations (rank, peer) — each survivor that reaped
    /// a dead peer contributes one.
    pub peers_reaped: u64,
    /// Revocation observations across ranks.
    pub revokes_observed: u64,
    /// Lazy-connect REQ re-issues.
    pub conn_retries: u64,
    /// Shrink agreements committed.
    pub shrink_commits: u64,
    /// Message-lifecycle edge events observed (see [`MsgStage`]).
    pub lifecycle_events: u64,
    /// Events the trace ring discarded before this stream was captured.
    /// Not derivable from the stream itself — callers that hold the
    /// [`TraceBuf`] stamp it in from [`TraceBuf::dropped`] after a
    /// successful audit. Non-zero means the audit covered a suffix of
    /// the run, not all of it, and any stitched DAG is partial.
    pub events_dropped: u64,
}

/// Check the protocol invariants over a recorded event stream.
/// Returns the summary on success, or every violation found.
pub fn audit(events: &[TraceEvent]) -> Result<AuditReport, Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let mut report = AuditReport::default();

    // Invariant 1: per-pair data seq ids count 0, 1, 2, …
    let mut next_data_seq: HashMap<(Rank, Rank), u64> = HashMap::new();
    // Invariant 2: per-(rank, key) MR lifecycle.
    #[derive(Default)]
    struct MrState {
        pins: i64,
        live: bool,
        ever: bool,
    }
    let mut mrs: HashMap<(Rank, u32), MrState> = HashMap::new();
    // Invariant 3: per ordered pair, packets sent and credits granted.
    let mut sent: HashMap<(Rank, Rank), u64> = HashMap::new();
    let mut granted: HashMap<(Rank, Rank), u64> = HashMap::new();
    // Invariant 4: RTS -> DONE and RTR -> DONE-WRITE pairing.
    let mut rts_done: HashMap<(Rank, Rank, u64), (u64, u64)> = HashMap::new();
    let mut rtr_dw: HashMap<(Rank, Rank, u64), (u64, u64)> = HashMap::new();
    let mut syncs_open: HashMap<Rank, u64> = HashMap::new();
    // Outstanding duplicate allowances from `Retrans` events.
    let mut allowed_dups: HashMap<(Rank, Rank, PacketKind, u64), u64> = HashMap::new();
    // Invariant 5: per-(node, epoch) daemon crash/respawn pairing.
    let mut crash_respawn: HashMap<(usize, u32), (u64, u64)> = HashMap::new();
    // Invariant 6: per-(rank, id) open metrics spans.
    let mut open_spans: HashMap<(Rank, u64), Phase> = HashMap::new();
    // Fail-stop killed ranks: end-of-stream obligations touching a dead
    // rank are forgiven (the rank can never answer or release anything).
    let mut killed: HashSet<Rank> = HashSet::new();

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::PacketTx {
                from,
                to,
                kind,
                seq,
                ..
            } => {
                *sent.entry((from, to)).or_default() += 1;
                // A deliberate re-transmission consumes its allowance and
                // is exempt from sequence/pairing accounting (it still
                // counts as a sent packet — the safe direction for the
                // credit-window invariant).
                if let Some(a) = allowed_dups.get_mut(&(from, to, kind, seq)) {
                    if *a > 0 {
                        *a -= 1;
                        continue;
                    }
                }
                match kind {
                    PacketKind::Eager | PacketKind::Rts => {
                        report.data_packets += 1;
                        let next = next_data_seq.entry((from, to)).or_default();
                        if seq != *next {
                            errs.push(format!(
                                "[{i}] pair {from}->{to}: data seq {seq}, expected {next} (gap or repeat)"
                            ));
                        }
                        *next = (*next).max(seq) + 1;
                        if kind == PacketKind::Rts {
                            rts_done.entry((from, to, seq)).or_default().0 += 1;
                        }
                    }
                    PacketKind::Rtr => {
                        report.rtrs += 1;
                        // RTR from receiver `from` advertises seq of
                        // sender `to`'s stream; DONE-WRITE comes back
                        // to -> from with the same seq.
                        rtr_dw.entry((from, to, seq)).or_default().0 += 1;
                    }
                    PacketKind::Done => {
                        // DONE from receiver `from` answers `to`'s RTS.
                        rts_done.entry((to, from, seq)).or_default().1 += 1;
                    }
                    PacketKind::DoneWrite => {
                        // DONE-WRITE from sender `from` answers `to`'s RTR.
                        rtr_dw.entry((to, from, seq)).or_default().1 += 1;
                        // A receiver-first transfer consumes a sender-stream
                        // seq without an EAGER/RTS packet; keep the pair's
                        // data sequence accounting in step.
                        let next = next_data_seq.entry((from, to)).or_default();
                        *next = (*next).max(seq + 1);
                    }
                    PacketKind::NackSend => {
                        // Rewrite of a dead EAGER/RTS slot. The original
                        // data packet already consumed its seq; if it was
                        // an RTS, the NACK stands in for its DONE.
                        report.nacks += 1;
                        if let Some(e) = rts_done.get_mut(&(from, to, seq)) {
                            e.1 += 1;
                        }
                    }
                    PacketKind::Nack => {
                        // Negative DONE from receiver `from` for `to`'s RTS.
                        report.nacks += 1;
                        rts_done.entry((to, from, seq)).or_default().1 += 1;
                    }
                    PacketKind::NackWrite => {
                        // Negative DONE-WRITE from sender `from`. Like its
                        // healthy twin, it stands in for the sender-stream
                        // seq the dead receiver-first transfer consumed.
                        report.nacks += 1;
                        rtr_dw.entry((to, from, seq)).or_default().1 += 1;
                        let next = next_data_seq.entry((from, to)).or_default();
                        *next = (*next).max(seq + 1);
                    }
                    PacketKind::Credit => {}
                }
            }
            TraceEvent::PacketRx { .. } => {}
            TraceEvent::MrRegister { rank, key, .. } => {
                report.mr_registered += 1;
                let st = mrs.entry((rank, key)).or_default();
                if st.live {
                    errs.push(format!("[{i}] rank{rank} mr {key}: registered twice"));
                }
                st.live = true;
                st.ever = true;
            }
            TraceEvent::MrDeregister { rank, key }
            | TraceEvent::MrEvict { rank, key }
            | TraceEvent::MrInvalidated { rank, key } => {
                if matches!(ev, TraceEvent::MrInvalidated { .. }) {
                    report.mr_invalidated += 1;
                }
                let st = mrs.entry((rank, key)).or_default();
                if !st.live {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: deregistered while not registered"
                    ));
                }
                if st.pins > 0 {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: deregistered with {} outstanding pin(s) (use-after-free)",
                        st.pins
                    ));
                }
                st.live = false;
            }
            TraceEvent::MrPin { rank, key } => {
                let st = mrs.entry((rank, key)).or_default();
                if !st.live {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: pinned while not registered"
                    ));
                }
                st.pins += 1;
            }
            TraceEvent::MrUnpin { rank, key } => {
                let st = mrs.entry((rank, key)).or_default();
                st.pins -= 1;
                if st.pins < 0 {
                    errs.push(format!(
                        "[{i}] rank{rank} mr {key}: pin count went negative"
                    ));
                }
            }
            TraceEvent::CreditGrant { from, to, consumed } => {
                report.credit_grants += 1;
                let prev = granted.entry((from, to)).or_default();
                if consumed < *prev {
                    errs.push(format!(
                        "[{i}] credit {from}->{to}: grant retreated from {prev} to {consumed}"
                    ));
                }
                *prev = (*prev).max(consumed);
                let sent_to_granter = sent.get(&(to, from)).copied().unwrap_or(0);
                if consumed > sent_to_granter {
                    errs.push(format!(
                        "[{i}] credit {from}->{to}: granted {consumed} > {sent_to_granter} packets sent \
                         (window would go negative)"
                    ));
                }
            }
            TraceEvent::CreditApply { .. } => {}
            TraceEvent::OffloadSyncStart { rank, .. } => {
                *syncs_open.entry(rank).or_default() += 1;
            }
            TraceEvent::OffloadSyncEnd { rank, .. } => {
                report.offload_syncs += 1;
                let open = syncs_open.entry(rank).or_default();
                if *open == 0 {
                    errs.push(format!("[{i}] rank{rank}: offload sync end without start"));
                } else {
                    *open -= 1;
                }
            }
            TraceEvent::StaleRtrDrop { .. } => {
                report.stale_rtrs += 1;
            }
            TraceEvent::WrFault { .. } => {
                report.wr_faults += 1;
            }
            TraceEvent::WrRetry { .. } => {
                report.wr_retries += 1;
            }
            TraceEvent::TransportFail { .. } => {
                report.transport_failures += 1;
            }
            TraceEvent::Retrans {
                from,
                to,
                kind,
                seq,
            } => {
                report.retransmissions += 1;
                *allowed_dups.entry((from, to, kind, seq)).or_default() += 1;
            }
            TraceEvent::CtrlTimeout { .. } => {
                report.ctrl_timeouts += 1;
            }
            TraceEvent::CtrlRetry { .. } => {
                report.ctrl_retries += 1;
            }
            TraceEvent::CtrlReattach {
                client,
                epoch,
                journaled,
                replayed,
            } => {
                report.reattaches += 1;
                if replayed != journaled {
                    errs.push(format!(
                        "[{i}] client {client} reattach (epoch {epoch}): replayed {replayed} of \
                         {journaled} journaled resources (resource lost across respawn)"
                    ));
                }
            }
            TraceEvent::DaemonCrash { node, epoch } => {
                report.daemon_crashes += 1;
                crash_respawn.entry((node, epoch)).or_default().0 += 1;
            }
            TraceEvent::DaemonRespawn { node, epoch } => {
                crash_respawn.entry((node, epoch)).or_default().1 += 1;
            }
            TraceEvent::LeaseReclaim { .. } => {
                report.lease_reclaims += 1;
            }
            TraceEvent::CtrlReplay { .. } => {
                report.ctrl_replays += 1;
            }
            TraceEvent::OffloadDegraded { .. } => {
                report.offload_degraded += 1;
            }
            TraceEvent::SpanOpen { rank, id, phase } => {
                if let Some(prev) = open_spans.insert((rank, id), phase) {
                    errs.push(format!(
                        "[{i}] rank{rank} span {phase} msg {id}: opened while {prev} span \
                         still open (span leak)"
                    ));
                }
            }
            TraceEvent::RankKilled { rank } => {
                report.ranks_killed += 1;
                killed.insert(rank);
            }
            TraceEvent::PeerReaped { .. } => {
                report.peers_reaped += 1;
            }
            TraceEvent::RevokeObserved { .. } => {
                report.revokes_observed += 1;
            }
            TraceEvent::ConnRetry { .. } => {
                report.conn_retries += 1;
            }
            TraceEvent::ShrinkCommit { .. } => {
                report.shrink_commits += 1;
            }
            // Lifecycle events are pure annotations for the post-run
            // stitcher: they duplicate facts the protocol events above
            // already assert (sequence order, pairing), so the auditor
            // only counts them.
            TraceEvent::MsgLife { .. } => {
                report.lifecycle_events += 1;
            }
            TraceEvent::SpanClose { rank, id, phase } => match open_spans.remove(&(rank, id)) {
                Some(open_phase) => {
                    if open_phase != phase {
                        errs.push(format!(
                            "[{i}] rank{rank} msg {id}: {open_phase} span closed as {phase}"
                        ));
                    }
                    report.spans_closed += 1;
                }
                None => errs.push(format!(
                    "[{i}] rank{rank} span {phase} msg {id}: closed without an open span \
                         (dangling or double close)"
                )),
            },
        }
    }

    for ((a, b, seq), (rts, done)) in &rts_done {
        if *rts != *done {
            if killed.contains(a) || killed.contains(b) {
                continue; // a dead endpoint can never answer
            }
            errs.push(format!(
                "RTS {a}->{b} seq {seq}: {rts} RTS vs {done} DONE (must pair exactly)"
            ));
        } else {
            report.rts_matched += *rts;
        }
    }
    for ((a, b, seq), (rtr, dw)) in &rtr_dw {
        if *dw > *rtr && !killed.contains(a) && !killed.contains(b) {
            errs.push(format!(
                "RTR {a}->{b} seq {seq}: {dw} DONE-WRITE for {rtr} RTR"
            ));
        }
    }
    for ((rank, key), st) in &mrs {
        if st.live {
            report.mr_leaked += 1;
        }
        if st.pins != 0 && !killed.contains(rank) {
            errs.push(format!(
                "rank{rank} mr {key}: {} pin(s) never released",
                st.pins
            ));
        }
    }
    for (rank, open) in &syncs_open {
        if *open != 0 && !killed.contains(rank) {
            errs.push(format!(
                "rank{rank}: {open} offload sync(s) never completed"
            ));
        }
    }
    for ((node, epoch), (crashes, respawns)) in &crash_respawn {
        if crashes != respawns {
            errs.push(format!(
                "node{node} epoch {epoch}: {crashes} crash(es) vs {respawns} respawn(s) \
                 (daemon incarnation not recovered)"
            ));
        }
    }
    for ((rank, id), phase) in &open_spans {
        if killed.contains(rank) {
            continue; // the dead rank's engine was torn down mid-span
        }
        errs.push(format!(
            "rank{rank} span {phase} msg {id}: never closed before finalize"
        ));
    }

    if errs.is_empty() {
        Ok(report)
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    #[test]
    fn ring_drops_oldest() {
        let buf = TraceBuf::new(2);
        for seq in 0..3 {
            buf.record(TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Eager,
                seq,
                len: 8,
            });
        }
        let evs = buf.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert!(matches!(evs[0], TraceEvent::PacketTx { seq: 1, .. }));
    }

    #[test]
    fn audit_accepts_clean_handshake() {
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 7,
                addr: 0x1000,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 0, key: 7 },
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Rts,
                seq: 0,
                len: 65536,
            },
            TraceEvent::PacketTx {
                from: 1,
                to: 0,
                kind: PacketKind::Done,
                seq: 0,
                len: 65536,
            },
            TraceEvent::MrUnpin { rank: 0, key: 7 },
            TraceEvent::MrDeregister { rank: 0, key: 7 },
        ];
        let r = audit(&evs).expect("clean stream");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.mr_registered, 1);
        assert_eq!(r.mr_leaked, 0);
    }

    #[test]
    fn audit_flags_seq_gap() {
        let evs = vec![
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Eager,
                seq: 0,
                len: 8,
            },
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Eager,
                seq: 2,
                len: 8,
            },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("expected 1")), "{errs:?}");
    }

    #[test]
    fn audit_flags_pinned_dereg_and_leak() {
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 2,
                key: 9,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 2, key: 9 },
            TraceEvent::MrEvict { rank: 2, key: 9 },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("outstanding pin")),
            "{errs:?}"
        );

        let leak = vec![TraceEvent::MrRegister {
            rank: 0,
            key: 1,
            addr: 0,
            len: 4096,
            cached: false,
        }];
        let r = audit(&leak).expect("a leak is legal mid-run");
        assert_eq!(r.mr_leaked, 1);
    }

    #[test]
    fn audit_flags_negative_credit_window() {
        let evs = vec![
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Eager,
                seq: 0,
                len: 8,
            },
            TraceEvent::CreditGrant {
                from: 1,
                to: 0,
                consumed: 2,
            },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("window would go negative")),
            "{errs:?}"
        );
    }

    #[test]
    fn audit_flags_unmatched_rts() {
        let evs = vec![TraceEvent::PacketTx {
            from: 0,
            to: 1,
            kind: PacketKind::Rts,
            seq: 0,
            len: 1 << 20,
        }];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("must pair exactly")),
            "{errs:?}"
        );
    }

    #[test]
    fn retrans_allowance_exempts_duplicate() {
        let rts = TraceEvent::PacketTx {
            from: 0,
            to: 1,
            kind: PacketKind::Rts,
            seq: 0,
            len: 1 << 16,
        };
        let done = TraceEvent::PacketTx {
            from: 1,
            to: 0,
            kind: PacketKind::Done,
            seq: 0,
            len: 1 << 16,
        };
        // Duplicate RTS without an allowance: seq repeat.
        let errs = audit(&[rts, rts, done]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("gap or repeat")), "{errs:?}");

        // With the allowance the duplicate is exempt.
        let allow = TraceEvent::Retrans {
            from: 0,
            to: 1,
            kind: PacketKind::Rts,
            seq: 0,
        };
        let r = audit(&[rts, allow, rts, done]).expect("allowance covers the dup");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.retransmissions, 1);
    }

    #[test]
    fn nacks_pair_dead_handshakes() {
        // A dead RTS answered by the receiver's Nack pairs exactly.
        let evs = vec![
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Rts,
                seq: 0,
                len: 1 << 16,
            },
            TraceEvent::PacketTx {
                from: 1,
                to: 0,
                kind: PacketKind::Nack,
                seq: 0,
                len: 0,
            },
        ];
        let r = audit(&evs).expect("nack answers the rts");
        assert_eq!(r.nacks, 1);

        // A dead RTS whose slot was rewritten as NackSend also pairs.
        let evs = vec![
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Rts,
                seq: 0,
                len: 1 << 16,
            },
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::NackSend,
                seq: 0,
                len: 0,
            },
        ];
        audit(&evs).expect("slot rewrite stands in for the DONE");

        // A dead EAGER slot rewrite creates no bogus handshake entry.
        let evs = vec![
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Eager,
                seq: 0,
                len: 64,
            },
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::NackSend,
                seq: 0,
                len: 0,
            },
        ];
        audit(&evs).expect("eager nack is pairing-neutral");

        // An RTR answered negatively by NackWrite stays within its budget.
        let evs = vec![
            TraceEvent::PacketTx {
                from: 1,
                to: 0,
                kind: PacketKind::Rtr,
                seq: 0,
                len: 1 << 16,
            },
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::NackWrite,
                seq: 0,
                len: 0,
            },
        ];
        audit(&evs).expect("nack-write answers the rtr");
    }

    #[test]
    fn receiver_first_transfer_consumes_a_sender_seq() {
        // A receiver-first rendezvous (RTR answered by DONE-WRITE, no
        // EAGER/RTS on the wire) still consumes the sender's stream seq;
        // a follow-up send on the pair must not look like a gap. The
        // same holds when the transfer dies and NACK-WRITE stands in.
        for answer in [PacketKind::DoneWrite, PacketKind::NackWrite] {
            let evs = vec![
                TraceEvent::PacketTx {
                    from: 1,
                    to: 0,
                    kind: PacketKind::Rtr,
                    seq: 0,
                    len: 1 << 16,
                },
                TraceEvent::PacketTx {
                    from: 0,
                    to: 1,
                    kind: answer,
                    seq: 0,
                    len: 0,
                },
                TraceEvent::PacketTx {
                    from: 0,
                    to: 1,
                    kind: PacketKind::Eager,
                    seq: 1,
                    len: 64,
                },
            ];
            audit(&evs)
                .unwrap_or_else(|e| panic!("follow-up after {answer:?} flagged as seq gap: {e:?}"));
        }
    }

    #[test]
    fn invalidation_is_a_deregister() {
        // An invalidated region leaves the lifecycle cleanly…
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 3,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrInvalidated { rank: 0, key: 3 },
        ];
        let r = audit(&evs).expect("invalidation closes the lifecycle");
        assert_eq!(r.mr_invalidated, 1);
        assert_eq!(r.mr_leaked, 0);

        // …but invalidating a pinned region is use-after-free.
        let evs = vec![
            TraceEvent::MrRegister {
                rank: 0,
                key: 3,
                addr: 0,
                len: 4096,
                cached: true,
            },
            TraceEvent::MrPin { rank: 0, key: 3 },
            TraceEvent::MrInvalidated { rank: 0, key: 3 },
        ];
        let errs = audit(&evs).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("outstanding pin")),
            "{errs:?}"
        );
    }

    #[test]
    fn reattach_must_replay_full_journal() {
        let ok = TraceEvent::CtrlReattach {
            client: 1,
            epoch: 1,
            journaled: 3,
            replayed: 3,
        };
        let r = audit(&[ok]).expect("full replay is clean");
        assert_eq!(r.reattaches, 1);

        let short = TraceEvent::CtrlReattach {
            client: 1,
            epoch: 1,
            journaled: 3,
            replayed: 2,
        };
        let errs = audit(&[short]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("resource lost")), "{errs:?}");
    }

    #[test]
    fn crash_must_pair_with_respawn() {
        let crash = TraceEvent::DaemonCrash { node: 0, epoch: 1 };
        let respawn = TraceEvent::DaemonRespawn { node: 0, epoch: 1 };
        let r = audit(&[crash, respawn]).expect("paired incarnation");
        assert_eq!(r.daemon_crashes, 1);

        let errs = audit(&[crash]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not recovered")), "{errs:?}");

        // Same epoch number on a *different* node is a separate pairing.
        let other = TraceEvent::DaemonCrash { node: 1, epoch: 1 };
        let errs = audit(&[crash, respawn, other]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("node1")), "{errs:?}");
    }

    #[test]
    fn ctrl_events_counted() {
        let evs = vec![
            TraceEvent::CtrlTimeout { client: 1, seq: 4 },
            TraceEvent::CtrlRetry {
                client: 1,
                seq: 4,
                attempt: 1,
            },
            TraceEvent::CtrlReplay {
                node: 0,
                client: 1,
                seq: 4,
            },
            TraceEvent::LeaseReclaim {
                node: 0,
                client: 2,
                objects: 3,
            },
            TraceEvent::OffloadDegraded { rank: 1 },
        ];
        let r = audit(&evs).expect("ctrl events alone are clean");
        assert_eq!(r.ctrl_timeouts, 1);
        assert_eq!(r.ctrl_retries, 1);
        assert_eq!(r.ctrl_replays, 1);
        assert_eq!(r.lease_reclaims, 1);
        assert_eq!(r.offload_degraded, 1);
    }

    #[test]
    fn spans_must_pair_exactly() {
        use crate::metrics::Phase;
        let open = TraceEvent::SpanOpen {
            rank: 0,
            id: 42,
            phase: Phase::RtsWait,
        };
        let close = TraceEvent::SpanClose {
            rank: 0,
            id: 42,
            phase: Phase::RtsWait,
        };
        let r = audit(&[open, close]).expect("paired span is clean");
        assert_eq!(r.spans_closed, 1);

        // Dangling: opened but never closed before finalize.
        let errs = audit(&[open]).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("never closed") && e.contains("RtsWait") && e.contains("42")),
            "{errs:?}"
        );

        // Double close.
        let errs = audit(&[open, close, close]).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("dangling or double close") && e.contains("42")),
            "{errs:?}"
        );

        // Close without any open.
        let errs = audit(&[close]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("dangling or double close")),
            "{errs:?}"
        );

        // Re-open while still open (same message id).
        let reopen = TraceEvent::SpanOpen {
            rank: 0,
            id: 42,
            phase: Phase::RndvRead,
        };
        let errs = audit(&[open, reopen]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("span leak")), "{errs:?}");

        // Phase mismatch between open and close.
        let wrong_close = TraceEvent::SpanClose {
            rank: 0,
            id: 42,
            phase: Phase::RndvWrite,
        };
        let errs = audit(&[open, wrong_close]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("closed as RndvWrite")),
            "{errs:?}"
        );

        // Same id on a different rank is a separate span.
        let other_rank = TraceEvent::SpanOpen {
            rank: 1,
            id: 42,
            phase: Phase::Eager,
        };
        let other_close = TraceEvent::SpanClose {
            rank: 1,
            id: 42,
            phase: Phase::Eager,
        };
        let r = audit(&[open, other_rank, close, other_close]).expect("per-rank spans");
        assert_eq!(r.spans_closed, 2);
    }

    #[test]
    fn lifecycle_events_are_counted_and_invariant_neutral() {
        // MsgLife annotations must never trip protocol invariants: a
        // stream of nothing but lifecycle events is clean, and mixing
        // them into a handshake changes nothing but the count.
        let life = |stage, t| TraceEvent::MsgLife {
            at: 0,
            src: 0,
            dst: 1,
            seq: 0,
            stage,
            t,
            len: 64,
        };
        let r = audit(&[
            life(MsgStage::Post, 100),
            life(MsgStage::Doorbell, 250),
            life(MsgStage::Wire, 900),
            life(MsgStage::Complete, 1000),
        ])
        .expect("lifecycle-only stream is clean");
        assert_eq!(r.lifecycle_events, 4);
        assert_eq!(r.events_dropped, 0, "audit never invents drops");

        let evs = vec![
            life(MsgStage::Post, 10),
            TraceEvent::PacketTx {
                from: 0,
                to: 1,
                kind: PacketKind::Rts,
                seq: 0,
                len: 1 << 16,
            },
            TraceEvent::PacketTx {
                from: 1,
                to: 0,
                kind: PacketKind::Done,
                seq: 0,
                len: 1 << 16,
            },
            life(MsgStage::Complete, 5000),
        ];
        let r = audit(&evs).expect("annotated handshake is clean");
        assert_eq!(r.rts_matched, 1);
        assert_eq!(r.lifecycle_events, 2);
    }

    #[test]
    fn fault_events_counted() {
        let evs = vec![
            TraceEvent::WrFault {
                rank: 0,
                peer: 1,
                wr_id: 42,
                transient: true,
            },
            TraceEvent::WrRetry {
                rank: 0,
                peer: 1,
                wr_id: 42,
                attempt: 2,
            },
            TraceEvent::TransportFail {
                rank: 0,
                peer: 1,
                seq: 3,
            },
        ];
        let r = audit(&evs).expect("fault events alone are clean");
        assert_eq!(r.wr_faults, 1);
        assert_eq!(r.wr_retries, 1);
        assert_eq!(r.transport_failures, 1);
    }
}
