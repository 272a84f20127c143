//! The DCFA-MPI point-to-point protocol engine.
//!
//! One engine instance runs inside each rank's simulated process and owns
//! that rank's QPs, eager rings, staging buffers, MR caches and request
//! table. The protocol follows §IV-B3/§IV-B4 of the paper:
//!
//! * **Eager** for small messages: one copy into a pre-registered staging
//!   slot, then an RDMA WRITE of `header ‖ payload ‖ tail` into the peer's
//!   ring slot; the receiver polls the tail.
//! * **Sender-first rendezvous**: RTS (buffer address + rkey) → receiver
//!   RDMA READ → DONE.
//! * **Receiver-first rendezvous**: receiver posts a large receive early
//!   and sends RTR; the sender RDMA WRITEs straight into the user buffer
//!   and sends DONE.
//! * **Simultaneous**: the sender disregards the RTR and waits for the
//!   receiver's RDMA READ; the receiver follows the sender-first protocol.
//! * **Sequence ids** pair each send with its receive per process pair;
//!   `MPI_ANY_SOURCE` receives lock sequence assignment for later receives
//!   until matched. Mis-predictions (eager vs. rendezvous) resolve via the
//!   sequence ids: a stale RTR is dropped; a too-large rendezvous message
//!   into a small receive raises an MPI error.
//! * **Offloading send buffer** (§IV-B4): large sends sync the payload to
//!   a host twin over the PCIe DMA engine and source the InfiniBand
//!   transfer from host memory, dodging the slow HCA-read-from-Phi path.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use fabric::{Buffer, CostModel, HealthBoard, MemRef, PeerState};
use simcore::{Ctx, SimDuration, SimEvent};
use verbs::{
    CompletionQueue, MemoryRegion, MrKey, QueuePair, RecvWr, SendWr, SharedReceiveQueue, Wc,
    WcStatus,
};

use crate::config::{MpiConfig, Placement};
use crate::connect::{ConnDirectory, ConnMsg};
use crate::metrics::{Metrics, MetricsHub, Phase, Span};
use crate::mrcache::{MrCache, MrLease, OffloadCache, OffloadLease};
use crate::packet::{
    tail_seq, tail_word, PacketHeader, PacketKind, HEADER_BYTES, HEADER_LEN, SLOT_OVERHEAD,
    TAIL_LEN,
};
use crate::resources::Resources;
use crate::slots::{SlotTable, TimerHeap};
use crate::stats::{StatsCell, StatsReport};
use crate::trace::{MsgStage, Trace, TraceBuf, TraceEvent};
use crate::types::{MpiError, Rank, Request, Src, Status, Tag, TagSel, TransportOp};

/// Completions drained from the CQ per lock acquisition in a progress
/// sweep (the `ibv_poll_cq` batch size).
const CQ_BATCH: usize = 64;

/// Recycled payload buffers kept for unexpected-message copy-out.
const PAYLOAD_POOL_CAP: usize = 32;

/// Tag band reserved for the shrink-agreement protocol (see
/// [`crate::comm`]). Operations in this band stay permitted on a revoked
/// communicator — they ARE the recovery traffic. The low 16 bits carry
/// the death epoch the agreement attempt runs at, so a restarted
/// agreement never matches a stale attempt's messages.
pub(crate) const SHRINK_TAG_BASE: Tag = 0xE000_0000;
pub(crate) const SHRINK_TAG_END: Tag = 0xF000_0000;

/// Whether `tag` belongs to the shrink-agreement band.
pub(crate) fn is_shrink_tag(tag: Tag) -> bool {
    (SHRINK_TAG_BASE..SHRINK_TAG_END).contains(&tag)
}

/// Panic payload a fail-stopped rank unwinds with. The launcher catches
/// it (the rank "process" exits as killed, not as a test failure);
/// anything else propagates as a real panic.
pub(crate) struct KillMarker;

/// Return an unexpected-message copy-out buffer to the pool: cleared, so
/// stale bytes from this message can never leak into a shorter later
/// one, and dropped outright when its capacity outgrew `max_capacity`
/// (one jumbo packet must not pin its high-water allocation in the pool
/// forever).
fn recycle_payload(pool: &mut Vec<Vec<u8>>, mut data: Vec<u8>, max_capacity: usize) {
    data.clear();
    if pool.len() < PAYLOAD_POOL_CAP && data.capacity() <= max_capacity {
        pool.push(data);
    }
}

/// Per-peer connection state.
pub(crate) struct Peer {
    qp: QueuePair,
    /// Whether the outbound half is wired (the lazy-connect Req/Ack
    /// handshake resolved). Data and control packets queue until then.
    connected: bool,
    /// Remote (peer-side) inbound ring we write into.
    out_ring_addr: u64,
    out_ring_rkey: MrKey,
    /// Next outbound ring-slot sequence number.
    out_slot_seq: u64,
    /// Cumulative slots the peer reported consumed (credits).
    out_consumed: u64,
    /// Local staging region mirroring the remote ring layout.
    stage: Buffer,
    stage_mr: MemoryRegion,
    /// Local inbound ring this peer writes into. `None` in SRQ mode,
    /// where all peers share one receive pool — the O(ranks²) → O(ranks)
    /// buffer-memory win.
    in_ring: Option<Buffer>,
    #[allow(dead_code)]
    in_ring_mr: Option<MemoryRegion>,
    /// Next inbound slot sequence to consume.
    in_next_seq: u64,
    /// Consumed slots not yet reported as credit.
    in_unreported: u64,
    /// Whether any *non-credit* packet was consumed since the last credit
    /// report. CREDIT packets occupy (and free) slots like everything
    /// else, but must never *trigger* a report themselves — otherwise two
    /// idle ranks with small rings acknowledge each other's credits
    /// forever (credit ping-pong livelock).
    in_noncredit_pending: bool,
    /// Pair sequence ids (paper §IV-B3).
    tx_seq: u64,
    rx_seq: u64,
    /// RTRs that arrived before their matching send was posted.
    stashed_rtrs: Vec<PacketHeader>,
    /// Control packets waiting for ring credit. Control sends never block
    /// (they are issued from inside the progress engine); they queue here
    /// and drain as credits arrive, ahead of any later data packet.
    pending_ctrl: std::collections::VecDeque<PacketHeader>,
    /// Highest data-stream sequence id (EAGER/RTS/NACK-SEND) seen from
    /// this peer. Data packets arrive in sequence order, so anything at or
    /// below this is a duplicate (a re-issued handshake) and is answered
    /// from `served_done`/`served_dw` or dropped.
    rx_data_high: Option<u64>,
    /// DONE/NACK answers we already sent for sender-first rendezvous,
    /// keyed by pair sequence id — replayed when a re-issued RTS arrives.
    served_done: HashMap<u64, PacketHeader>,
    /// DONE-WRITE/NACK-WRITE answers we already sent for receiver-first
    /// rendezvous — replayed when a re-issued RTR arrives.
    served_dw: HashMap<u64, PacketHeader>,
    /// SRQ mode: packets that arrived ahead of `in_next_seq` (a retried
    /// send's replacement can be overtaken by its successors — two-sided
    /// Sends have no fixed ring slot to stall on). Copied off the shared
    /// pool so the slot recycles; drained as the sequence catches up.
    srq_stash: Vec<(u64, PacketHeader, Vec<u8>)>,
}

/// Shared-receive-queue state (when [`MpiConfig::srq_depth`] is set): one
/// pool of receive slots serving every peer of this rank, replacing the
/// per-pair inbound rings.
struct SrqPool {
    srq: SharedReceiveQueue,
    /// Inbound Send completions land here, separate from the send-side CQ:
    /// their wr_ids are pool slot indices, which must never collide with
    /// the inflight-table handles that identify send-side completions.
    recv_cq: CompletionQueue,
    /// The pool: `depth` slots of ring-slot layout (hdr ‖ payload ‖ tail).
    pool: Buffer,
    pool_mr: MemoryRegion,
    /// Slots consumed by the HCA and not yet re-posted.
    outstanding: u32,
    /// Sender (node, qpn) → peer rank, filled as pairs wire up.
    src_ranks: HashMap<(fabric::NodeId, verbs::QpNum), usize>,
    /// Completions whose source QP wasn't mapped yet (the first data
    /// packet can race the connect Ack); retried after `pump_conn`.
    pending: Vec<Wc>,
}

/// What a tracked send-side work request was doing, so its completion —
/// or its failure — can be routed to the owning protocol state.
#[derive(Clone, Copy)]
enum WrKind {
    /// An eager-ring slot write (data or control packet).
    Ring {
        hdr: PacketHeader,
        slot_seq: u64,
        /// Owning request for EAGER data packets; control packets find
        /// their owner (if any) through `hdr` at failure time.
        req: Option<u64>,
    },
    /// Sender-first rendezvous: our RDMA READ of the peer's buffer.
    RndvRead { req: u64 },
    /// Receiver-first rendezvous: our RDMA WRITE into the peer's buffer.
    RndvWrite { req: u64 },
}

/// A posted send-side work request awaiting its completion.
struct InflightWr {
    wr: SendWr,
    dst: Rank,
    /// Posts issued so far (1 = the original post).
    attempts: u32,
    kind: WrKind,
}

/// A pending rendezvous-handshake watchdog.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimeoutKind {
    /// Sender-first: re-issue the RTS if the DONE hasn't arrived.
    Rts { req: u64 },
    /// Receiver-first: re-issue the RTR if the DONE-WRITE hasn't arrived.
    Rtr { req: u64 },
    /// Lazy-connect handshake: re-issue the connect Req if the pair is
    /// still unwired (the Req or its Ack was lost on the out-of-band
    /// channel). `attempt` counts re-issues; past `cmd_retry_limit` the
    /// peer is declared dead instead of retried forever.
    Conn { peer: Rank, attempt: u32 },
}

/// Info a rank publishes during bootstrap, consumed by its peers.
#[derive(Clone)]
pub struct PeerEndpoint {
    pub qpn: verbs::QpNum,
    pub node: fabric::NodeId,
    pub ring_addr: u64,
    pub ring_rkey: MrKey,
}

/// The pinned source region of an outgoing rendezvous transfer: either
/// the user buffer via the MR cache, or the offloading send buffer's
/// host twin. Held until the remote side confirms the data has moved.
enum SendLease {
    Mr(MrLease),
    Offload(OffloadLease),
}

enum ReqState {
    /// Eager RDMA write in flight; completes on local WC.
    EagerSend {
        status: Status,
    },
    /// RTS sent; waiting for the receiver's DONE. The lease pins the
    /// advertised source until then (the peer RDMA-READs from it). `hdr`
    /// keeps the full RTS so the handshake watchdog can re-issue it.
    RndvSendAwaitDone {
        dst: Rank,
        seq: u64,
        status: Status,
        lease: SendLease,
        hdr: PacketHeader,
    },
    /// Receiver-first: our RDMA write is in flight.
    RndvSendWriting {
        dst: Rank,
        seq: u64,
        full_len: u64,
        status: Status,
        lease: SendLease,
    },
    /// Posted receive sitting in the match queue.
    RecvQueued,
    /// Sender-first: our RDMA read is in flight; the lease pins the
    /// destination buffer's registration.
    RndvRecvReading {
        src: Rank,
        seq: u64,
        status: Status,
        truncated: Option<MpiError>,
        lease: MrLease,
    },
    /// Receiver-first: RTR sent, waiting for the sender's DONE.
    RecvAwaitDone,
    Done(Status),
    Failed(MpiError),
}

struct PostedRecv {
    req: u64,
    buf: Buffer,
    src: Src,
    tag: TagSel,
    /// Pair sequence id; `None` while locked behind an any-source receive.
    seq: Option<u64>,
    rtr_sent: bool,
    /// Pin on the buffer registration advertised by our RTR; released
    /// when the receive resolves (DONE-WRITE, or the eager/simultaneous
    /// mis-prediction paths).
    rtr_lease: Option<MrLease>,
    /// The RTR we advertised, kept for watchdog re-issue.
    rtr_hdr: Option<PacketHeader>,
}

enum Unexpected {
    Eager {
        src: Rank,
        tag: Tag,
        seq: u64,
        data: Vec<u8>,
    },
    Rts {
        hdr: PacketHeader,
    },
    /// A sender-side transport abort that arrived before its matching
    /// receive was posted; the receive fails with `RemoteTransport`.
    Nack {
        src: Rank,
        tag: Tag,
        seq: u64,
    },
}

/// Protocol/traffic counters for one rank (exposed via
/// `Comm::stats`; used by tests and the ablation benches to verify
/// protocol selection without timing heuristics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent with the eager protocol.
    pub eager_sends: u64,
    /// Messages sent with a rendezvous protocol (either flavour).
    pub rndv_sends: u64,
    /// Rendezvous sends that took the receiver-first (RTR) path.
    pub rndv_recv_first: u64,
    /// Sends that synced through the offloading send buffer.
    pub offload_syncs: u64,
    /// Application payload bytes sent.
    pub bytes_sent: u64,
    /// Application payload bytes received.
    pub bytes_received: u64,
    /// Ring packets processed (all kinds).
    pub packets_processed: u64,
    /// Stale RTRs dropped thanks to sequence ids (mis-predictions).
    pub stale_rtrs_dropped: u64,
    /// CREDIT packets transmitted (flow-control slot recycling).
    pub credit_grants: u64,
    /// Error work completions observed (before retry classification).
    pub wr_faults: u64,
    /// Transiently failed work requests re-posted after backoff.
    pub wr_retries: u64,
    /// Transfers abandoned permanently (the owning request failed).
    pub transport_failures: u64,
    /// Rendezvous handshakes re-issued by the watchdog.
    pub handshake_reissues: u64,
    /// Control packets dropped because the QP refused the post outright.
    pub ctrl_abandoned: u64,
    /// Rendezvous sends that wanted the offloading send buffer but fell
    /// back to sourcing the Phi buffer directly (twin unavailable, or the
    /// rank degraded after repeated failures).
    pub offload_fallbacks: u64,
    /// Handshake-replay entries (`served_done`/`served_dw`) pruned on
    /// peer-acknowledged sequence advance (CREDIT watermarks).
    pub replay_pruned: u64,
    /// Queued control packets posted without ringing a fresh doorbell
    /// (coalesced behind the first post of the same ctrl drain).
    pub doorbells_coalesced: u64,
    /// Peer pairs actually established (lazily, on first touch). The
    /// scale gate checks this stays far below `ranks²` for sparse
    /// communication patterns.
    pub pairs_established: u64,
    /// Bytes of communication buffer memory (rings + staging + SRQ
    /// pool) this rank allocated — the memory-per-rank curve.
    pub comm_buffer_bytes: u64,
    /// High-water mark of concurrently unconsumed SRQ pool slots (0 on
    /// the per-pair ring path).
    pub srq_highwater: u64,
    /// Peers this rank observed transition to `Dead` on the health board
    /// (heartbeat staleness or QP-flush snooping) and reaped.
    pub peer_deaths_detected: u64,
    /// Distinct peers this rank ever observed in the `Suspect` state
    /// (stale heartbeat, not yet past the dead line).
    pub peers_suspected: u64,
    /// Communicator revocations this rank observed and drained.
    pub revokes_observed: u64,
    /// Protocol objects reclaimed from dead peers: failed requests,
    /// cancelled receives, dropped control packets, stash entries,
    /// purged unexpected messages and replay-map entries.
    pub dead_reclaimed: u64,
    /// Requests drained with [`MpiError::Revoked`] by a revocation.
    pub reqs_revoked: u64,
    /// Lazy-connect Req frames re-issued by the handshake watchdog.
    pub conn_retries: u64,
    /// Shrink-agreement attempts abandoned because a participant died
    /// mid-agreement (the death epoch advanced under the attempt).
    pub agreement_restarts: u64,
    /// Eager data sends that parked waiting for ring credit (the
    /// flow-control window was closed when the send was issued).
    pub credit_parks: u64,
}

/// The per-rank protocol engine.
pub struct Engine {
    pub(crate) rank: Rank,
    pub(crate) size: usize,
    cfg: MpiConfig,
    res: Resources,
    cost: CostModel,
    cq: CompletionQueue,
    progress_event: SimEvent,
    peers: Vec<Option<Peer>>,
    pub(crate) mr_cache: MrCache,
    pub(crate) offload_cache: OffloadCache,
    /// Request table. Slot-indexed with generation-tagged handles: a
    /// consumed/unknown `Request` misses on its generation and reports
    /// `BadRequest`, exactly like the old hash-map lookup did.
    reqs: SlotTable<ReqState>,
    recv_q: Vec<PostedRecv>,
    unexpected: Vec<Unexpected>,
    mpi_call: SimDuration,
    pub(crate) stats: CommStats,
    /// Seqlock publication point for [`StatsReport`]s: observers on other
    /// threads read the last published snapshot without tearing.
    stats_cell: Arc<StatsCell>,
    trace: Trace,
    metrics: Metrics,
    /// Open latency spans, slot-indexed in step with `reqs` (the stored
    /// full id disambiguates slot reuse): one asynchronous protocol stage
    /// per request, closed when the request resolves.
    open_spans: Vec<Option<(u64, Span)>>,
    /// Re-entrancy guard: progress() invoked from within progress() (via
    /// a packet handler) is a no-op; the outer sweep picks up the work.
    in_progress: bool,
    /// Every posted send-side work request until its completion is
    /// classified (success / retry / permanent failure). The table handle
    /// IS the wr_id: every send-side WR's id is drawn from here, so a
    /// completion — success or error — always finds its owner, and a
    /// handle that went stale (request failed under the retry) simply
    /// misses on its generation.
    inflight: SlotTable<InflightWr>,
    /// Transiently failed WRs waiting out their backoff, by due time.
    retry_due: TimerHeap<u64>,
    /// Armed rendezvous-handshake watchdogs, by due time.
    rndv_timeouts: TimerHeap<TimeoutKind>,
    /// Reusable scratch: elapsed retry wr_ids popped per sweep.
    retry_scratch: Vec<u64>,
    /// Reusable scratch: fired watchdogs popped per sweep.
    timeout_scratch: Vec<TimeoutKind>,
    /// Reusable scratch: completions drained per CQ batch.
    cq_scratch: Vec<Wc>,
    /// Recycled payload buffers for the unexpected-message queue: eager
    /// copy-out pops one here instead of allocating, and consuming the
    /// unexpected message pushes it back.
    payload_pool: Vec<Vec<u8>>,
    /// Set by `flush_ctrl` for the second and later posts of one drain:
    /// their doorbells coalesce behind the first post's.
    coalesce_next_post: bool,
    /// Receives that failed permanently, keyed by (peer, pair seq): the
    /// peer's late data packet for that seq is answered with a NACK (RTS)
    /// or dropped (EAGER) instead of matching a later receive.
    dead_rx: HashSet<(Rank, u64)>,
    /// DCFA control epoch the caches were last validated against. A bump
    /// (daemon respawn / lease loss) flushes dead entries from both cache
    /// pools before their stale keys can reach the wire.
    seen_ctrl_epoch: u64,
    /// Offloading send buffer degraded off: repeated twin-registration
    /// failure switches this rank to direct-from-Phi rendezvous sends.
    offload_down: bool,
    /// Consecutive twin-registration failures (reset on success).
    offload_fail_streak: u32,
    /// The world's lazy-connect directory (see [`crate::connect`]).
    conn: Arc<ConnDirectory>,
    /// Reusable scratch: connect messages drained per sweep.
    conn_scratch: Vec<ConnMsg>,
    /// Established peer indices, in establishment order — the progress
    /// sweep iterates these instead of all `size` slots, so a rank that
    /// talks to 4 of 512 peers pays for 4.
    active_peers: Vec<usize>,
    /// Shared receive pool (SRQ mode); `None` on the per-pair ring path.
    srq: Option<SrqPool>,
    /// The world's failure-detection board (`None` outside `launch`, e.g.
    /// in unit harnesses). All hot-path health checks are plain atomic
    /// loads; the expensive reap runs only on a death-epoch transition.
    health: Option<Arc<HealthBoard>>,
    /// Death epoch the engine last reaped at (board transitions trigger
    /// [`Self::reap_dead_peers`]).
    seen_death_epoch: u64,
    /// Revocation epoch the engine last drained at.
    seen_revoke_epoch: u64,
    /// Whether the communicator is currently revoked: pending work has
    /// been drained with [`MpiError::Revoked`] and new operations outside
    /// the shrink-agreement tag band are refused.
    revoked: bool,
    /// Peers already reaped (a death epoch can cover several deaths; each
    /// peer is reaped exactly once).
    reaped_peers: Vec<bool>,
    /// Peers ever counted into `peers_suspected` (count distinct peers,
    /// not observations).
    suspect_noted: Vec<bool>,
    /// Shrink epoch the communicator last completed: unexpected messages
    /// from shrink attempts at or below this epoch are stale and purged.
    shrink_purge_floor: u64,
    /// MPI entry operations (`isend`/`irecv`) issued so far — the kill
    /// schedule's op counter.
    ops_posted: u64,
    /// Fail-stop trigger: when set, the rank kills itself (teardown +
    /// [`KillMarker`] unwind) upon issuing its `kill_after`-th entry op.
    kill_after: Option<u64>,
    /// Hand-off for a stashed SRQ payload: set just before `handle_packet`
    /// when draining the reorder stash (the bytes are no longer in any
    /// pool slot), consumed by the eager delivery paths, recycled by the
    /// drain loop if the handler bailed early.
    srq_inline: Option<Vec<u8>>,
}

impl Engine {
    /// Size in bytes of one ring slot for `cfg`.
    pub fn slot_size(cfg: &MpiConfig) -> u64 {
        cfg.ring_slot_payload + SLOT_OVERHEAD
    }

    /// Ring bytes per ordered peer pair for `cfg`.
    pub fn ring_bytes(cfg: &MpiConfig) -> u64 {
        Self::slot_size(cfg) * cfg.ring_slots as u64
    }

    /// Create a rank's engine. No per-peer resources are allocated here:
    /// QPs and rings materialize lazily on first touch (see
    /// [`crate::connect`]), so a 512-rank world that only exchanges with
    /// neighbours never pays for the all-pairs matrix.
    pub fn create(
        ctx: &mut Ctx,
        rank: Rank,
        size: usize,
        cfg: MpiConfig,
        res: Resources,
        conn: Arc<ConnDirectory>,
    ) -> Engine {
        cfg.validate();
        let cost = res.cluster().config().cost.clone();
        let progress_event = SimEvent::new();
        conn.register(rank, progress_event.clone());
        let cq = res.create_cq(ctx, progress_event.clone());
        let peers: Vec<Option<Peer>> = (0..size).map(|_| None).collect();
        let mpi_call = match cfg.placement {
            Placement::Phi => cost.mpi_call_phi,
            Placement::Host => cost.mpi_call_host,
        };
        let max_requests = cfg.max_requests;
        let mr_cache = MrCache::new(cfg.mr_cache_capacity);
        let offload_cache = OffloadCache::new(16);
        let mut stats = CommStats::default();
        // SRQ mode: one shared receive pool per rank, posted up front.
        // Inbound Send completions wake the same progress event as the
        // send CQ, so a blocked rank resumes on arrival.
        let srq = cfg.srq_depth.map(|depth| {
            let slot_size = Self::slot_size(&cfg);
            let pool_bytes = depth as u64 * slot_size;
            let srq = res.create_srq(ctx);
            let recv_cq = res.create_cq(ctx, progress_event.clone());
            let pool = res
                .cluster()
                .alloc_pages(res.mem(), pool_bytes)
                .expect("SRQ pool allocation failed");
            let pool_mr = res.reg_mr(ctx, pool.clone());
            for i in 0..depth {
                let sge = pool_mr.sge(i as u64 * slot_size, slot_size);
                srq.post_recv(ctx, RecvWr::new(i as u64, vec![sge]))
                    .expect("SRQ initial post failed");
            }
            stats.comm_buffer_bytes += pool_bytes;
            SrqPool {
                srq,
                recv_cq,
                pool,
                pool_mr,
                outstanding: 0,
                src_ranks: HashMap::new(),
                pending: Vec::new(),
            }
        });
        Engine {
            rank,
            size,
            cfg,
            res,
            cost,
            cq,
            progress_event,
            peers,
            mr_cache,
            offload_cache,
            reqs: SlotTable::with_limit(max_requests),
            recv_q: Vec::new(),
            unexpected: Vec::new(),
            mpi_call,
            stats,
            stats_cell: Arc::new(StatsCell::new()),
            trace: Trace::default(),
            metrics: Metrics::default(),
            open_spans: Vec::new(),
            in_progress: false,
            inflight: SlotTable::with_capacity(64),
            retry_due: TimerHeap::new(),
            rndv_timeouts: TimerHeap::new(),
            retry_scratch: Vec::new(),
            timeout_scratch: Vec::new(),
            cq_scratch: Vec::with_capacity(CQ_BATCH),
            payload_pool: Vec::new(),
            coalesce_next_post: false,
            dead_rx: HashSet::new(),
            seen_ctrl_epoch: 0,
            offload_down: false,
            offload_fail_streak: 0,
            conn,
            conn_scratch: Vec::new(),
            active_peers: Vec::new(),
            srq,
            srq_inline: None,
            health: None,
            seen_death_epoch: 0,
            seen_revoke_epoch: 0,
            revoked: false,
            reaped_peers: vec![false; size],
            suspect_noted: vec![false; size],
            shrink_purge_floor: 0,
            ops_posted: 0,
            kill_after: None,
        }
    }

    /// Allocate this rank's half of the pair with `p`: QP, inbound ring
    /// (registered with the progress event so an inbound packet wakes
    /// us) and the staging region mirroring the peer's ring. Returns the
    /// endpoint to advertise. The outbound half stays unwired until the
    /// peer's endpoint arrives (`Req` or `Ack`).
    fn alloc_peer(&mut self, ctx: &mut Ctx, p: usize) -> PeerEndpoint {
        debug_assert!(self.peers[p].is_none(), "peer {p} already established");
        // Resource setup is a device/control excursion, not steady-state
        // message traffic.
        let _dev = crate::hotpath::pause();
        let ring_bytes = Self::ring_bytes(&self.cfg);
        let mem = self.res.mem();
        // SRQ mode: the QP draws receives from the shared pool and needs
        // no per-pair inbound ring — only the outbound stage scales with
        // the number of touched peers.
        let (qp, in_ring, in_ring_mr) = match &self.srq {
            Some(pool) => {
                let qp = self
                    .res
                    .create_qp_with_srq(ctx, &self.cq, &pool.recv_cq, &pool.srq);
                (qp, None, None)
            }
            None => {
                let qp = self.res.create_qp(ctx, &self.cq, &self.cq);
                let in_ring = self
                    .res
                    .cluster()
                    .alloc_pages(mem, ring_bytes)
                    .expect("ring allocation failed");
                let in_ring_mr = {
                    // Registration cost through the placement-appropriate
                    // path, then attach the shared progress event.
                    let mr = self.res.reg_mr(ctx, in_ring.clone());
                    self.res
                        .ib()
                        .set_write_event(mr.key(), self.progress_event.clone())
                        .expect("ring MR vanished")
                };
                (qp, Some(in_ring), Some(in_ring_mr))
            }
        };
        let stage = self
            .res
            .cluster()
            .alloc_pages(mem, ring_bytes)
            .expect("stage allocation failed");
        let stage_mr = self.res.reg_mr(ctx, stage.clone());
        let ep = PeerEndpoint {
            qpn: qp.qpn(),
            node: qp.node(),
            ring_addr: in_ring.as_ref().map_or(0, |r| r.addr),
            ring_rkey: in_ring_mr.as_ref().map_or(MrKey(0), |mr| mr.key()),
        };
        self.peers[p] = Some(Peer {
            qp,
            connected: false,
            out_ring_addr: 0,
            out_ring_rkey: MrKey(0),
            out_slot_seq: 0,
            out_consumed: 0,
            stage,
            stage_mr,
            in_ring,
            in_ring_mr,
            in_next_seq: 0,
            in_unreported: 0,
            in_noncredit_pending: false,
            tx_seq: 0,
            rx_seq: 0,
            stashed_rtrs: Vec::new(),
            pending_ctrl: std::collections::VecDeque::new(),
            rx_data_high: None,
            served_done: HashMap::new(),
            served_dw: HashMap::new(),
            srq_stash: Vec::new(),
        });
        let pos = self.active_peers.partition_point(|&q| q < p);
        self.active_peers.insert(pos, p);
        self.stats.pairs_established += 1;
        self.stats.comm_buffer_bytes += if self.srq.is_some() {
            ring_bytes // stage only; receives share the pool
        } else {
            2 * ring_bytes
        };
        ep
    }

    /// First-touch connection establishment: allocate our half and post
    /// the connect request. The caller's packet queues in `pending_ctrl`
    /// (or waits in `send_packet`) until the peer's answer wires the
    /// outbound ring.
    fn ensure_peer(&mut self, ctx: &mut Ctx, p: usize) {
        if self.peers[p].is_some() {
            return;
        }
        let ep = self.alloc_peer(ctx, p);
        {
            let _dev = crate::hotpath::pause();
            let sched = self.res.cluster().scheduler();
            self.conn.post(
                sched,
                p,
                ConnMsg::Req {
                    from: self.rank,
                    ep,
                },
            );
        }
        // The out-of-band channel can lose the Req (or its Ack): watch
        // the handshake and re-issue with bounded retries.
        self.arm_conn_timeout(ctx, p, 1);
    }

    /// Rebuild the endpoint advertisement for our already-allocated half
    /// of the pair with `p` (connect-handshake re-issue).
    fn local_endpoint(&self, p: usize) -> PeerEndpoint {
        let peer = self.peers[p].as_ref().expect("no peer");
        PeerEndpoint {
            qpn: peer.qp.qpn(),
            node: peer.qp.node(),
            ring_addr: peer.in_ring.as_ref().map_or(0, |r| r.addr),
            ring_rkey: peer.in_ring_mr.as_ref().map_or(MrKey(0), |mr| mr.key()),
        }
    }

    /// Arm (or re-arm) the lazy-connect handshake watchdog for `peer`.
    fn arm_conn_timeout(&mut self, ctx: &mut Ctx, peer: Rank, attempt: u32) {
        let due = ctx.now() + self.cfg.cmd_timeout;
        self.rndv_timeouts
            .push(due, TimeoutKind::Conn { peer, attempt });
        self.progress_event
            .notify_at(self.res.cluster().scheduler(), due);
    }

    /// The connect handshake toward `peer` timed out: re-issue the Req
    /// (the directory deduplicates via the idempotent wire/ack paths), or
    /// — past the retry budget — declare the peer dead rather than
    /// retrying forever against a corpse.
    fn handle_conn_timeout(&mut self, ctx: &mut Ctx, peer: Rank, attempt: u32) {
        let unwired = self.peers[peer].as_ref().is_some_and(|p| !p.connected);
        if !unwired {
            return; // handshake resolved (or the pair was never allocated)
        }
        if self
            .health
            .as_ref()
            .is_some_and(|b| b.state(peer) == PeerState::Dead)
        {
            return; // the reap already failed everything toward it
        }
        if attempt > self.cfg.cmd_retry_limit {
            if let Some(board) = self.health.clone() {
                {
                    let cluster = self.res.cluster();
                    let sched = cluster.scheduler();
                    board.promote_dead(sched, peer, sched.now());
                }
                self.observe_health(ctx);
            }
            // Without a board there is nothing better than keeping the
            // queued packets parked; the caller's own timeout machinery
            // (or test harness) owns the verdict.
            return;
        }
        let ep = self.local_endpoint(peer);
        {
            let _dev = crate::hotpath::pause();
            let sched = self.res.cluster().scheduler();
            self.conn.post(
                sched,
                peer,
                ConnMsg::Req {
                    from: self.rank,
                    ep,
                },
            );
        }
        self.stats.conn_retries += 1;
        let rank = self.rank;
        self.trace.record(|| TraceEvent::ConnRetry {
            rank,
            peer,
            attempt,
        });
        self.arm_conn_timeout(ctx, peer, attempt + 1);
    }

    /// Wire the outbound half of the pair from the peer's endpoint.
    fn wire_peer(&mut self, p: usize, ep: &PeerEndpoint) {
        let peer = self.peers[p].as_mut().expect("no peer");
        peer.qp.connect(ep.node, ep.qpn);
        peer.out_ring_addr = ep.ring_addr;
        peer.out_ring_rkey = ep.ring_rkey;
        peer.connected = true;
        if let Some(pool) = self.srq.as_mut() {
            // Inbound Send completions carry the sender's (node, qpn);
            // map it to the rank so `pump_srq` can route packets.
            pool.src_ranks.insert((ep.node, ep.qpn), p);
        }
    }

    /// Serve the lazy-connect mailbox: establish passively on `Req`,
    /// wire on `Req`/`Ack`. Queued packets for freshly wired peers drain
    /// in the same progress sweep (it flushes every active peer).
    fn pump_conn(&mut self, ctx: &mut Ctx) {
        let mut msgs = std::mem::take(&mut self.conn_scratch);
        msgs.clear();
        self.conn.drain(self.rank, &mut msgs);
        for msg in msgs.drain(..) {
            match msg {
                ConnMsg::Req { from, ep } => {
                    if self.peers[from].is_none() {
                        // Passive establishment: allocate our half, wire
                        // toward the initiator, answer with our endpoint.
                        let ours = self.alloc_peer(ctx, from);
                        self.wire_peer(from, &ep);
                        let _dev = crate::hotpath::pause();
                        let sched = self.res.cluster().scheduler();
                        self.conn.post(
                            sched,
                            from,
                            ConnMsg::Ack {
                                from: self.rank,
                                ep: ours,
                            },
                        );
                    } else if !self.peers[from].as_ref().expect("no peer").connected {
                        // Cross-connect: both sides initiated at once.
                        // Each wires from the other's Req; an Ack would
                        // be redundant.
                        self.wire_peer(from, &ep);
                    } else {
                        // A re-issued Req at an already-wired pair: our
                        // Ack was lost. Re-answer idempotently with the
                        // endpoint we allocated the first time.
                        let ours = self.local_endpoint(from);
                        let _dev = crate::hotpath::pause();
                        let sched = self.res.cluster().scheduler();
                        self.conn.post(
                            sched,
                            from,
                            ConnMsg::Ack {
                                from: self.rank,
                                ep: ours,
                            },
                        );
                    }
                }
                ConnMsg::Ack { from, ep } => {
                    if self.peers[from].as_ref().is_some_and(|p| !p.connected) {
                        self.wire_peer(from, &ep);
                    }
                }
            }
        }
        self.conn_scratch = msgs;
    }

    pub fn mem(&self) -> MemRef {
        self.res.mem()
    }

    pub fn resources(&self) -> &Resources {
        &self.res
    }

    pub fn cluster(&self) -> &std::sync::Arc<fabric::Cluster> {
        self.res.cluster()
    }

    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }

    fn new_req(&mut self, state: ReqState) -> u64 {
        self.reqs.insert(state)
    }

    // ---- public operations -------------------------------------------------

    /// Non-blocking send.
    pub fn isend(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        dst: Rank,
        tag: Tag,
    ) -> Result<Request, MpiError> {
        if dst >= self.size || dst == self.rank {
            return Err(MpiError::BadRank(dst));
        }
        self.note_op();
        self.observe_health(ctx);
        if self.revoked && !is_shrink_tag(tag) {
            return Err(MpiError::Revoked);
        }
        if self.peer_dead(dst) {
            return Err(MpiError::PeerFailed(dst));
        }
        // Backpressure before the pair-sequence increment: a send that
        // cannot get a request slot must not burn a sequence id, or the
        // stream would carry a permanent hole and wedge matching.
        if self.reqs.is_full() {
            return Err(MpiError::ResourceExhausted);
        }
        self.ensure_peer(ctx, dst);
        let _hot = crate::hotpath::enter();
        ctx.sleep(self.mpi_call);
        // Late failure gate: the guards above ran before `ensure_peer`
        // (which may block through a lazy-connect handshake) and the
        // entry sleep. A death or revocation that landed meanwhile has
        // already run its one-shot reap/drain, which could not see this
        // send — fail here instead of burning a sequence id toward a
        // corpse or enqueueing into a revoked stream.
        if self.revoked && !is_shrink_tag(tag) {
            return Err(MpiError::Revoked);
        }
        if self.peer_dead(dst) {
            return Err(MpiError::PeerFailed(dst));
        }
        let len = buf.len;
        let seq = {
            let peer = self.peers[dst].as_mut().expect("no peer");
            let s = peer.tx_seq;
            peer.tx_seq += 1;
            s
        };
        // The message is born: its (src, dst, seq) id is now pinned.
        self.msg_life(ctx, self.rank, dst, seq, MsgStage::Post, len);
        let status = Status {
            source: dst,
            tag,
            len,
        };

        self.stats.bytes_sent += len;
        if len <= self.cfg.eager_threshold {
            self.stats.eager_sends += 1;
            let req = self.new_req(ReqState::EagerSend { status });
            self.open_span(ctx, Phase::Eager, req, len, dst);
            let hdr = PacketHeader {
                kind: PacketKind::Eager,
                src_rank: self.rank,
                tag,
                seq,
                len,
                addr: 0,
                rkey: 0,
            };
            self.send_packet(ctx, dst, hdr, Some(buf), Some(req));
            return Ok(Request(req));
        }

        // Rendezvous. Pick the data source: offloaded host twin or the user
        // buffer registered directly.
        self.stats.rndv_sends += 1;
        let (src_addr, src_rkey, lease) = self.rndv_source(ctx, buf);
        // Source-staging edge: the PCIe sync into the host twin, or the
        // MR pin/registration round-trip for a direct-from-Phi source.
        let src_stage = match &lease {
            SendLease::Offload(_) => MsgStage::OffloadSync,
            SendLease::Mr(_) => MsgStage::MrAcquire,
        };
        self.msg_life(ctx, self.rank, dst, seq, src_stage, len);

        // Receiver-first? A stashed RTR with our sequence id means the
        // receiver already advertised its buffer.
        let stashed = {
            let peer = self.peers[dst].as_mut().expect("no peer");
            peer.stashed_rtrs
                .iter()
                .position(|r| r.seq == seq)
                .map(|i| peer.stashed_rtrs.swap_remove(i))
        };
        if let Some(rtr) = stashed {
            self.stats.rndv_recv_first += 1;
            let req = self.new_req(ReqState::RndvSendWriting {
                dst,
                seq,
                full_len: len,
                status,
                lease,
            });
            self.open_span(ctx, Phase::RndvWrite, req, len, dst);
            self.rndv_write(ctx, dst, req, src_addr, src_rkey, len, &rtr);
            return Ok(Request(req));
        }

        // Sender-first: RTS with our buffer info, then await DONE.
        let hdr = PacketHeader {
            kind: PacketKind::Rts,
            src_rank: self.rank,
            tag,
            seq,
            len,
            addr: src_addr,
            rkey: src_rkey.0,
        };
        let req = self.new_req(ReqState::RndvSendAwaitDone {
            dst,
            seq,
            status,
            lease,
            hdr,
        });
        self.open_span(ctx, Phase::RtsWait, req, len, dst);
        self.send_ctrl(ctx, dst, hdr);
        self.arm_rndv_timeout(ctx, TimeoutKind::Rts { req });
        Ok(Request(req))
    }

    /// Non-blocking receive.
    pub fn irecv(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        src: Src,
        tag: TagSel,
    ) -> Result<Request, MpiError> {
        if let Src::Rank(r) = src {
            if r >= self.size || r == self.rank {
                return Err(MpiError::BadRank(r));
            }
        }
        self.note_op();
        self.observe_health(ctx);
        if self.revoked && !matches!(tag, TagSel::Tag(t) if is_shrink_tag(t)) {
            return Err(MpiError::Revoked);
        }
        if let Src::Rank(r) = src {
            if self.peer_dead(r) {
                return Err(MpiError::PeerFailed(r));
            }
        }
        if self.reqs.is_full() {
            return Err(MpiError::ResourceExhausted);
        }
        if let Src::Rank(r) = src {
            // A known-source receive touches the pair (sequence ids, and
            // possibly an RTR advertisement) — establish it.
            self.ensure_peer(ctx, r);
        }
        let _hot = crate::hotpath::enter();
        ctx.sleep(self.mpi_call);
        // Drain anything already sitting in the rings so protocol
        // selection sees the latest state (an RTS that already arrived
        // must match here instead of triggering a needless RTR).
        self.progress(ctx);
        let req = self.new_req(ReqState::RecvQueued);

        // Try the unexpected queue first.
        if let Some(idx) = self.match_unexpected(src, tag) {
            let u = self.unexpected.remove(idx);
            self.consume_unexpected(ctx, req, buf, u);
            return Ok(Request(req));
        }

        // Sequence assignment: locked while an unmatched any-source receive
        // sits ahead of us (paper §IV-B3).
        let locked = self.recv_q.iter().any(|r| r.seq.is_none());
        let seq = match (src, locked) {
            (Src::Rank(s), false) => {
                let peer = self.peers[s].as_mut().expect("no peer");
                let q = peer.rx_seq;
                peer.rx_seq += 1;
                Some(q)
            }
            _ => None, // any-source gets its id when it meets its packet
        };
        let mut posted = PostedRecv {
            req,
            buf: buf.clone(),
            src,
            tag,
            seq,
            rtr_sent: false,
            rtr_lease: None,
            rtr_hdr: None,
        };

        // Receiver-first rendezvous initiation: a large receive with a known
        // source advertises its buffer immediately.
        if let (Src::Rank(s), Some(q)) = (src, seq) {
            if buf.len > self.cfg.eager_threshold {
                self.send_rtr(ctx, s, q, &mut posted);
            }
        }
        // Late failure gate. The entry guards above ran before this call
        // slept, drove progress and possibly blocked for ring credit —
        // any death or revocation observed meanwhile has already had its
        // one-shot reap/drain pass, which could not see this receive.
        // Enqueueing it now would strand it forever (nothing will ever
        // match it and no later sweep revisits the corpse), so gate
        // again immediately before it becomes reachable only by those
        // sweeps.
        let late = if self.revoked && !matches!(tag, TagSel::Tag(t) if is_shrink_tag(t)) {
            Some(MpiError::Revoked)
        } else {
            match src {
                Src::Rank(r) if self.peer_dead(r) => Some(MpiError::PeerFailed(r)),
                _ => None,
            }
        };
        if let Some(e) = late {
            if let Some(l) = posted.rtr_lease.take() {
                self.mr_cache.release(ctx, &self.res, l);
            }
            self.reqs.remove(req);
            return Err(e);
        }
        self.recv_q.push(posted);
        Ok(Request(req))
    }

    /// Non-blocking completion test. `Some` removes the request.
    pub fn test(&mut self, ctx: &mut Ctx, req: Request) -> Option<Result<Status, MpiError>> {
        let _hot = crate::hotpath::enter();
        self.progress(ctx);
        match self.reqs.get(req.0) {
            Some(ReqState::Done(_)) => match self.reqs.remove(req.0) {
                Some(ReqState::Done(s)) => Some(Ok(s)),
                _ => unreachable!(),
            },
            Some(ReqState::Failed(_)) => match self.reqs.remove(req.0) {
                Some(ReqState::Failed(e)) => Some(Err(e)),
                _ => unreachable!(),
            },
            Some(_) => None,
            None => Some(Err(MpiError::BadRequest)),
        }
    }

    /// Block until the request completes.
    pub fn wait(&mut self, ctx: &mut Ctx, req: Request) -> Result<Status, MpiError> {
        let _hot = crate::hotpath::enter();
        loop {
            let seen = self.progress_event.epoch();
            if let Some(r) = self.test(ctx, req) {
                return r;
            }
            // Parking the simulated process is simulator plumbing, not
            // library work.
            let _dev = crate::hotpath::pause();
            ctx.wait_event(&self.progress_event, seen, "mpi wait");
        }
    }

    /// Wait for all requests, returning the first error (like
    /// `MPI_Waitall`). Every request is driven to completion even when an
    /// earlier one fails — abandoning the rest would leak their protocol
    /// state and strand the peers mid-handshake.
    pub fn waitall(&mut self, ctx: &mut Ctx, reqs: &[Request]) -> Result<Vec<Status>, MpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for &r in reqs {
            match self.wait(ctx, r) {
                Ok(s) => out.push(s),
                Err(e) => {
                    out.push(Status {
                        source: 0,
                        tag: 0,
                        len: 0,
                    });
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Non-blocking probe: is a matching message available to receive
    /// right now? Returns its envelope without consuming it (an arrived
    /// eager payload or rendezvous RTS in the unexpected queue).
    pub fn iprobe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Option<Status> {
        self.progress(ctx);
        self.match_unexpected(src, tag)
            .map(|i| match &self.unexpected[i] {
                Unexpected::Eager { src, tag, data, .. } => Status {
                    source: *src,
                    tag: *tag,
                    len: data.len() as u64,
                },
                Unexpected::Rts { hdr } => Status {
                    source: hdr.src_rank,
                    tag: hdr.tag,
                    len: hdr.len,
                },
                Unexpected::Nack { src, tag, .. } => Status {
                    source: *src,
                    tag: *tag,
                    len: 0,
                },
            })
    }

    /// Blocking probe.
    pub fn probe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Status {
        loop {
            let seen = self.progress_event.epoch();
            if let Some(st) = self.iprobe(ctx, src, tag) {
                return st;
            }
            let _dev = crate::hotpath::pause();
            ctx.wait_event(&self.progress_event, seen, "mpi probe");
        }
    }

    /// Wait until any of `reqs` completes; returns `(index, result)` and
    /// consumes only that request.
    pub fn waitany(
        &mut self,
        ctx: &mut Ctx,
        reqs: &[Request],
    ) -> (usize, Result<Status, MpiError>) {
        assert!(!reqs.is_empty(), "waitany on empty set");
        let _hot = crate::hotpath::enter();
        loop {
            let seen = self.progress_event.epoch();
            self.progress(ctx);
            // Unknown handles (already consumed or never issued) are
            // *inactive*: they must not mask a still-pending request's
            // real completion, so they are skipped unless the whole set
            // is inactive.
            let mut all_inactive = true;
            for (i, &r) in reqs.iter().enumerate() {
                match self.reqs.get(r.0) {
                    Some(ReqState::Done(_)) | Some(ReqState::Failed(_)) => {
                        return (i, self.test(ctx, r).expect("just checked"));
                    }
                    Some(_) => all_inactive = false,
                    None => {}
                }
            }
            if all_inactive {
                return (0, Err(MpiError::BadRequest));
            }
            let _dev = crate::hotpath::pause();
            ctx.wait_event(&self.progress_event, seen, "mpi waitany");
        }
    }

    /// Protocol/traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Consolidated counter snapshot: protocol counters plus both cache
    /// pools' hit/miss/lifetime statistics. Also publishes the snapshot
    /// into the rank's [`StatsCell`] for concurrent observers.
    pub fn dump(&self) -> StatsReport {
        let report = StatsReport {
            rank: self.rank,
            comm: self.stats,
            mr_cache: self.mr_cache.stats(),
            offload: self.offload_cache.stats(),
            mr_cached: self.mr_cache.cached_regions(),
            mr_pinned: self.mr_cache.pinned_regions(),
        };
        self.stats_cell.publish(report);
        report
    }

    /// The rank's seqlock stats cell: share the handle with any thread to
    /// read the last published [`StatsReport`] without tearing. See the
    /// staleness contract on [`StatsCell`].
    pub fn stats_cell(&self) -> Arc<StatsCell> {
        self.stats_cell.clone()
    }

    /// Live handshake-replay entries (`served_done` + `served_dw`) across
    /// all peers. Bounded by the unresolved-handshake window thanks to
    /// CREDIT watermark pruning — the soak regression test pins this.
    pub fn replay_entries(&self) -> usize {
        self.peers
            .iter()
            .flatten()
            .map(|p| p.served_done.len() + p.served_dw.len())
            .sum()
    }

    /// Request-table slots currently occupied (issued, not yet consumed).
    pub fn requests_live(&self) -> usize {
        self.reqs.len()
    }

    /// Attach this engine (and its caches) to a shared structured trace
    /// ring. Recording is a no-op until this is called.
    pub fn set_tracer(&mut self, buf: TraceBuf) {
        self.trace.attach(buf);
        self.mr_cache.set_trace(self.trace.clone(), self.rank);
        self.offload_cache.set_trace(self.trace.clone(), self.rank);
    }

    /// Attach this engine (and its caches) to a shared metrics hub.
    /// Latency recording — histograms and phase spans — is a no-op until
    /// this is called.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.metrics.attach(hub);
        self.mr_cache.set_metrics(self.metrics.clone());
        self.offload_cache.set_metrics(self.metrics.clone());
    }

    /// Attach this engine to the world's failure-detection board. Health
    /// checks (dead-peer refusal, revoke draining, kill unwinding) are
    /// no-ops until this is called.
    pub fn set_health(&mut self, board: Arc<HealthBoard>) {
        self.health = Some(board);
    }

    /// The attached health board, if any.
    pub(crate) fn health(&self) -> Option<&Arc<HealthBoard>> {
        self.health.as_ref()
    }

    /// Arm the fail-stop trigger: this rank tears down and unwinds with
    /// [`KillMarker`] upon issuing its `n`-th MPI entry operation.
    pub fn set_kill_after(&mut self, n: u64) {
        self.kill_after = Some(n);
    }

    /// Whether the communicator is currently revoked.
    pub(crate) fn is_revoked(&self) -> bool {
        self.revoked
    }

    /// The progress event's current epoch (for epoch/wait loops outside
    /// the engine, e.g. the shrink agreement).
    pub(crate) fn progress_epoch(&self) -> u64 {
        self.progress_event.epoch()
    }

    /// Park the simulated process until the progress event advances past
    /// `seen`.
    pub(crate) fn wait_progress(&mut self, ctx: &mut Ctx, seen: u64, reason: &'static str) {
        let _dev = crate::hotpath::pause();
        ctx.wait_event(&self.progress_event, seen, reason);
    }

    /// A clone of the progress event, for registering as a health-board
    /// watcher (death/revoke/commit transitions must wake blocked ranks).
    pub fn progress_event_handle(&self) -> SimEvent {
        self.progress_event.clone()
    }

    // ---- failure handling --------------------------------------------------

    /// Count one MPI entry operation and fire the fail-stop trigger when
    /// the kill schedule says so: tear the rank's fabric presence down
    /// through the board (QPs error, daemon sessions die) and unwind.
    fn note_op(&mut self) {
        self.ops_posted += 1;
        if let Some(k) = self.kill_after {
            if self.ops_posted >= k {
                let rank = self.rank;
                self.trace.record(|| TraceEvent::RankKilled { rank });
                self.res.abandon();
                self.res.cluster().kill_rank(self.rank);
                std::panic::panic_any(KillMarker);
            }
        }
    }

    /// Observe the health board: unwind if this rank was fail-stopped
    /// externally, reap on a death-epoch transition, drain on a
    /// revocation-epoch transition. Steady state is three atomic loads.
    fn observe_health(&mut self, ctx: &mut Ctx) {
        let Some(board) = self.health.clone() else {
            return;
        };
        if board.is_killed(self.rank) {
            let rank = self.rank;
            self.trace.record(|| TraceEvent::RankKilled { rank });
            self.res.abandon();
            std::panic::panic_any(KillMarker);
        }
        let de = board.death_epoch();
        if de != self.seen_death_epoch {
            self.seen_death_epoch = de;
            self.reap_dead_peers(ctx, &board);
        }
        let re = board.revoke_epoch();
        if re != self.seen_revoke_epoch {
            self.seen_revoke_epoch = re;
            self.pump_revoke(ctx);
        }
    }

    /// Whether the board has promoted `r` to `Dead`. Counts first-time
    /// `Suspect` observations along the way.
    fn peer_dead(&mut self, r: Rank) -> bool {
        let Some(board) = &self.health else {
            return false;
        };
        match board.state(r) {
            PeerState::Dead => true,
            PeerState::Suspect => {
                if !self.suspect_noted[r] {
                    self.suspect_noted[r] = true;
                    self.stats.peers_suspected += 1;
                }
                false
            }
            PeerState::Alive => false,
        }
    }

    /// Reap every newly dead peer: fail requests that can never complete
    /// with [`MpiError::PeerFailed`], release their buffer pins, drop
    /// in-flight and queued traffic toward the corpse, and reclaim its
    /// stash/replay state. Runs only on a death-epoch transition.
    fn reap_dead_peers(&mut self, ctx: &mut Ctx, board: &Arc<HealthBoard>) {
        let _dev = crate::hotpath::pause();
        for d in 0..self.size {
            if d == self.rank || self.reaped_peers[d] || !board.is_dead(d) {
                continue;
            }
            self.reaped_peers[d] = true;
            self.stats.peer_deaths_detected += 1;
            let rank = self.rank;
            self.trace
                .record(|| TraceEvent::PeerReaped { rank, peer: d });
            self.reap_one(ctx, d);
        }
    }

    /// Reap a single dead peer `d` (see [`Self::reap_dead_peers`]).
    fn reap_one(&mut self, ctx: &mut Ctx, d: Rank) {
        let mut reclaimed = 0u64;
        // In-flight WRs toward the corpse first: removing them here means
        // their eventual flush completions miss in `handle_wc` (stale
        // wr_id) instead of triggering NACK recovery toward a dead QP.
        let dead_wrs: Vec<u64> = self
            .inflight
            .iter()
            .filter_map(|(id, e)| (e.dst == d).then_some(id))
            .collect();
        for id in dead_wrs {
            self.inflight.remove(id);
            reclaimed += 1;
        }
        // Requests whose progress depends on the corpse. The owning
        // request fails; everything else on this rank stays alive.
        let dead_reqs: Vec<u64> = self
            .reqs
            .iter()
            .filter_map(|(id, st)| {
                let hit = match st {
                    ReqState::EagerSend { status } => status.source == d,
                    ReqState::RndvSendAwaitDone { dst, .. }
                    | ReqState::RndvSendWriting { dst, .. } => *dst == d,
                    ReqState::RndvRecvReading { src, .. } => *src == d,
                    _ => false,
                };
                hit.then_some(id)
            })
            .collect();
        for id in dead_reqs {
            self.close_span(ctx, id);
            match self
                .reqs
                .replace(id, ReqState::Failed(MpiError::PeerFailed(d)))
            {
                Some(ReqState::RndvSendAwaitDone { lease, .. })
                | Some(ReqState::RndvSendWriting { lease, .. }) => {
                    self.release_send_lease(ctx, lease);
                }
                Some(ReqState::RndvRecvReading { lease, .. }) => {
                    self.mr_cache.release(ctx, &self.res, lease);
                }
                _ => {}
            }
            reclaimed += 1;
        }
        // Posted receives sourced from the corpse (any-source receives may
        // still match a live sender and stay).
        let mut i = 0;
        while i < self.recv_q.len() {
            if matches!(self.recv_q[i].src, Src::Rank(s) if s == d) {
                let mut posted = self.recv_q.remove(i);
                if let Some(l) = posted.rtr_lease.take() {
                    self.mr_cache.release(ctx, &self.res, l);
                }
                self.reqs
                    .replace(posted.req, ReqState::Failed(MpiError::PeerFailed(d)));
                reclaimed += 1;
            } else {
                i += 1;
            }
        }
        // Unexpected messages from the corpse have no receiver left to
        // claim them.
        let mut j = 0;
        while j < self.unexpected.len() {
            let from_dead = match &self.unexpected[j] {
                Unexpected::Eager { src, .. } | Unexpected::Nack { src, .. } => *src == d,
                Unexpected::Rts { hdr } => hdr.src_rank == d,
            };
            if from_dead {
                if let Unexpected::Eager { data, .. } = self.unexpected.remove(j) {
                    recycle_payload(
                        &mut self.payload_pool,
                        data,
                        self.cfg.eager_threshold as usize,
                    );
                }
                reclaimed += 1;
            } else {
                j += 1;
            }
        }
        // Pair-local state: queued control packets, reorder stash,
        // handshake replay maps, stashed RTRs, dead-receive tombstones.
        if let Some(peer) = self.peers[d].as_mut() {
            reclaimed += peer.pending_ctrl.len() as u64;
            peer.pending_ctrl.clear();
            reclaimed += peer.stashed_rtrs.len() as u64;
            peer.stashed_rtrs.clear();
            reclaimed += (peer.served_done.len() + peer.served_dw.len()) as u64;
            peer.served_done.clear();
            peer.served_dw.clear();
            let stash = std::mem::take(&mut peer.srq_stash);
            reclaimed += stash.len() as u64;
            for (_, _, data) in stash {
                recycle_payload(
                    &mut self.payload_pool,
                    data,
                    self.cfg.ring_slot_payload as usize,
                );
            }
        }
        let before = self.dead_rx.len();
        self.dead_rx.retain(|&(r, _)| r != d);
        reclaimed += (before - self.dead_rx.len()) as u64;
        self.stats.dead_reclaimed += reclaimed;
    }

    /// Drain this rank's side of a revocation: every pending request and
    /// posted receive resolves with [`MpiError::Revoked`]; unexpected
    /// messages are discarded (their pair-sequence ids are consumed so
    /// the stream stays in step for post-shrink traffic).
    fn pump_revoke(&mut self, ctx: &mut Ctx) {
        let _dev = crate::hotpath::pause();
        self.revoked = true;
        self.stats.revokes_observed += 1;
        let rank = self.rank;
        self.trace.record(|| TraceEvent::RevokeObserved { rank });
        // The shrink-agreement band is exempt from the drain throughout:
        // `shrink` runs *on* the revoked communicator (ULFM semantics),
        // so a second revocation arriving mid-agreement must not eat the
        // agreement's own messages — that would wedge the recovery at an
        // unchanged death epoch.
        // Posted receives first — they hold RTR leases.
        let mut spared: Vec<u64> = Vec::new();
        let mut i = 0;
        while i < self.recv_q.len() {
            if matches!(self.recv_q[i].tag, TagSel::Tag(t) if is_shrink_tag(t)) {
                spared.push(self.recv_q[i].req);
                i += 1;
                continue;
            }
            let mut posted = self.recv_q.remove(i);
            if let Some(l) = posted.rtr_lease.take() {
                self.mr_cache.release(ctx, &self.res, l);
            }
            self.reqs
                .replace(posted.req, ReqState::Failed(MpiError::Revoked));
            self.stats.reqs_revoked += 1;
        }
        // Every other live request.
        let live: Vec<u64> = self
            .reqs
            .iter()
            .filter_map(|(id, st)| {
                let live = match st {
                    ReqState::Done(_) | ReqState::Failed(_) => false,
                    ReqState::EagerSend { status } => !is_shrink_tag(status.tag),
                    _ => !spared.contains(&id),
                };
                live.then_some(id)
            })
            .collect();
        for id in live {
            self.close_span(ctx, id);
            match self.reqs.replace(id, ReqState::Failed(MpiError::Revoked)) {
                Some(ReqState::RndvSendAwaitDone { lease, .. })
                | Some(ReqState::RndvSendWriting { lease, .. }) => {
                    self.release_send_lease(ctx, lease);
                }
                Some(ReqState::RndvRecvReading { lease, .. }) => {
                    self.mr_cache.release(ctx, &self.res, lease);
                }
                _ => {}
            }
            self.stats.reqs_revoked += 1;
        }
        // Unexpected messages are dropped, consuming their sequence ids:
        // the sender already burnt them, so skipping the receive-side
        // note would desync the pair counters for post-shrink traffic.
        // Shrink-band arrivals stay (an agreement report that landed
        // before its gather recv was posted).
        let mut j = 0;
        while j < self.unexpected.len() {
            let shrink_band = match &self.unexpected[j] {
                Unexpected::Eager { tag, .. } | Unexpected::Nack { tag, .. } => is_shrink_tag(*tag),
                Unexpected::Rts { hdr } => is_shrink_tag(hdr.tag),
            };
            if shrink_band {
                j += 1;
                continue;
            }
            match self.unexpected.remove(j) {
                Unexpected::Eager { src, seq, data, .. } => {
                    if self.peers[src].is_some() {
                        self.note_rx_seq(src, seq);
                    }
                    recycle_payload(
                        &mut self.payload_pool,
                        data,
                        self.cfg.eager_threshold as usize,
                    );
                }
                Unexpected::Rts { hdr } => {
                    if self.peers[hdr.src_rank].is_some() {
                        self.note_rx_seq(hdr.src_rank, hdr.seq);
                    }
                }
                Unexpected::Nack { src, seq, .. } => {
                    if self.peers[src].is_some() {
                        self.note_rx_seq(src, seq);
                    }
                }
            }
            self.stats.dead_reclaimed += 1;
        }
    }

    /// Complete a shrink at `epoch`: the communicator is un-revoked and
    /// unexpected messages from stale shrink attempts (epoch at or below
    /// the new floor) are purged.
    pub(crate) fn complete_shrink(&mut self, epoch: u64, survivors: u64) {
        self.revoked = false;
        self.shrink_purge_floor = epoch;
        self.trace
            .record(|| TraceEvent::ShrinkCommit { epoch, survivors });
        let floor_tag = SHRINK_TAG_BASE + (epoch & 0xFFFF) as Tag;
        let mut k = 0;
        while k < self.unexpected.len() {
            let stale = match &self.unexpected[k] {
                Unexpected::Eager { tag, .. } | Unexpected::Nack { tag, .. } => {
                    is_shrink_tag(*tag) && *tag <= floor_tag
                }
                Unexpected::Rts { hdr } => is_shrink_tag(hdr.tag) && hdr.tag <= floor_tag,
            };
            if stale {
                match self.unexpected.remove(k) {
                    Unexpected::Eager { src, seq, data, .. } => {
                        if self.peers[src].is_some() {
                            self.note_rx_seq(src, seq);
                        }
                        recycle_payload(
                            &mut self.payload_pool,
                            data,
                            self.cfg.eager_threshold as usize,
                        );
                    }
                    Unexpected::Rts { hdr } => {
                        if self.peers[hdr.src_rank].is_some() {
                            self.note_rx_seq(hdr.src_rank, hdr.seq);
                        }
                    }
                    Unexpected::Nack { src, seq, .. } => {
                        if self.peers[src].is_some() {
                            self.note_rx_seq(src, seq);
                        }
                    }
                }
                self.stats.dead_reclaimed += 1;
            } else {
                k += 1;
            }
        }
    }

    /// Note a shrink-agreement restart (a participant died mid-attempt).
    pub(crate) fn note_agreement_restart(&mut self) {
        self.stats.agreement_restarts += 1;
    }

    /// Cancel a posted receive that will never be waited on (shrink
    /// agreement restart): the request handle is consumed and any RTR
    /// pin released. The message may still arrive — it lands in the
    /// unexpected queue and is purged by the shrink floor.
    pub(crate) fn cancel_recv(&mut self, ctx: &mut Ctx, req: Request) {
        if let Some(i) = self.recv_q.iter().position(|r| r.req == req.0) {
            let mut posted = self.recv_q.remove(i);
            if let Some(l) = posted.rtr_lease.take() {
                self.mr_cache.release(ctx, &self.res, l);
            }
        }
        self.close_span(ctx, req.0);
        self.reqs.remove(req.0);
    }

    /// Open a latency span for request `id` and mirror it into the trace
    /// stream (auditor invariant 6 pairs opens and closes).
    fn open_span(&mut self, ctx: &Ctx, phase: Phase, id: u64, bytes: u64, peer: Rank) {
        if let Some(span) = self
            .metrics
            .span_begin(phase, id, bytes, Some(peer), || ctx.now())
        {
            let slot = id as u32 as usize;
            if self.open_spans.len() <= slot {
                self.open_spans.resize(slot + 1, None);
            }
            self.open_spans[slot] = Some((id, span));
            let rank = self.rank;
            self.trace
                .record(|| TraceEvent::SpanOpen { rank, id, phase });
        }
    }

    /// Close request `id`'s span, attributing its lifetime to the phase
    /// it opened under. No-op when no span is open (metrics detached).
    fn close_span(&mut self, ctx: &Ctx, id: u64) {
        let slot = id as u32 as usize;
        match self.open_spans.get(slot) {
            Some(Some((owner, _))) if *owner == id => {}
            _ => return,
        }
        if let Some(Some((_, span))) = self.open_spans.get_mut(slot).map(|s| s.take()) {
            let phase = span.phase;
            self.metrics.span_end(span, || ctx.now());
            let rank = self.rank;
            self.trace
                .record(|| TraceEvent::SpanClose { rank, id, phase });
        }
    }

    /// Host twin of a Phi buffer (creating/caching it on first use), for
    /// host-staged operations. `None` on host placement or when the
    /// offloading send buffer is disabled.
    pub fn host_twin(&mut self, ctx: &mut Ctx, buf: &Buffer) -> Option<Buffer> {
        if self.cfg.placement != Placement::Phi
            || self.cfg.offload_threshold.is_none()
            || buf.mem.domain != fabric::Domain::Phi
            || self.offload_down
        {
            return None;
        }
        self.refresh_ctrl();
        let omr = self.offload_cache.get_or_create(ctx, &self.res, buf)?;
        let off = buf.addr - omr.phi.addr;
        Some(omr.host_mr.buffer().slice(off, buf.len))
    }

    /// DMA the latest bytes of `buf` up into its host twin (blocking).
    pub fn sync_to_twin(&mut self, ctx: &mut Ctx, buf: &Buffer, twin: &Buffer) {
        let t = self.res.cluster().pci_dma(buf, twin, ctx.now());
        ctx.wait_reason(&t.completion, "sync to twin");
    }

    /// DMA the host twin's bytes back down into `buf` (blocking).
    pub fn sync_from_twin(&mut self, ctx: &mut Ctx, twin: &Buffer, buf: &Buffer) {
        let t = self.res.cluster().pci_dma(twin, buf, ctx.now());
        ctx.wait_reason(&t.completion, "sync from twin");
    }

    /// Drain queued control packets (DONEs, credits) before teardown so a
    /// peer still waiting on one of them can complete. Called by the
    /// launcher before the finalize barrier.
    pub fn quiesce(&mut self, ctx: &mut Ctx) {
        loop {
            let seen = self.progress_event.epoch();
            self.progress(ctx);
            let pending = self
                .peers
                .iter()
                .flatten()
                .any(|p| !p.pending_ctrl.is_empty())
                || !self.inflight.is_empty()
                || !self.retry_due.is_empty();
            if !pending {
                self.dump(); // publish final pre-teardown counters
                return;
            }
            ctx.wait_event(&self.progress_event, seen, "finalize quiesce");
        }
    }

    /// Tear down: drain caches and tell the DCFA daemon we're done.
    pub fn finalize(&mut self, ctx: &mut Ctx) {
        self.mr_cache.clear(ctx, &self.res);
        self.offload_cache.clear(ctx, &self.res);
        self.res.close(ctx);
        self.dump();
    }

    // ---- protocol internals ------------------------------------------------

    /// Consecutive twin-registration failures after which the rank stops
    /// trying the offloading send buffer altogether.
    const OFFLOAD_FAIL_LIMIT: u32 = 3;

    /// Re-validate the cache pools against the DCFA control epoch. A bump
    /// means the rank re-attached (daemon respawn or lease loss): flush
    /// every cached entry whose registration died with the old daemon
    /// incarnation before its stale key can reach the wire.
    fn refresh_ctrl(&mut self) {
        let epoch = self.res.ctrl_epoch();
        if epoch != self.seen_ctrl_epoch {
            self.seen_ctrl_epoch = epoch;
            self.mr_cache.invalidate_dead(&self.res);
            self.offload_cache.invalidate_dead(&self.res);
        }
    }

    /// Choose the rendezvous data source: the offloaded host twin (synced
    /// first) above the offload threshold, otherwise the user buffer via
    /// the MR cache. If the daemon cannot provide a twin the send falls
    /// back to sourcing the Phi buffer directly; [`Self::OFFLOAD_FAIL_LIMIT`]
    /// consecutive failures degrade the rank off the offload path for
    /// good. The returned lease pins the source until the remote side
    /// confirms the transfer; release with [`Self::release_send_lease`].
    fn rndv_source(&mut self, ctx: &mut Ctx, buf: &Buffer) -> (u64, MrKey, SendLease) {
        self.refresh_ctrl();
        if let Some(thr) = self.cfg.offload_threshold {
            // Only Phi-resident buffers need the host twin; a buffer that
            // already lives in host memory (e.g. a host-staged collective)
            // is sourced directly at full speed.
            if buf.len >= thr
                && self.cfg.placement == Placement::Phi
                && buf.mem.domain == fabric::Domain::Phi
                && !self.offload_down
            {
                match self.offload_cache.try_acquire(ctx, &self.res, buf) {
                    Some(lease) => {
                        self.offload_fail_streak = 0;
                        let off = buf.addr - lease.phi.addr;
                        let (host_addr, host_key) =
                            (lease.host_mr.addr() + off, lease.host_mr.key());
                        // Sync the latest bytes into the twin (blocking DMA).
                        let src = lease.phi.slice(off, buf.len);
                        let dst = lease.host_mr.buffer().slice(off, buf.len);
                        let rank = self.rank;
                        let len = buf.len;
                        self.trace
                            .record(|| TraceEvent::OffloadSyncStart { rank, len });
                        let t0 = self.metrics.start(|| ctx.now());
                        let t = self.res.cluster().pci_dma(&src, &dst, ctx.now());
                        ctx.wait_reason(&t.completion, "offload sync");
                        self.metrics
                            .record_since(t0, || ctx.now(), Phase::OffloadSync, len, None);
                        self.stats.offload_syncs += 1;
                        self.trace
                            .record(|| TraceEvent::OffloadSyncEnd { rank, len });
                        return (host_addr, host_key, SendLease::Offload(lease));
                    }
                    None => {
                        self.stats.offload_fallbacks += 1;
                        self.offload_fail_streak += 1;
                        if self.offload_fail_streak >= Self::OFFLOAD_FAIL_LIMIT {
                            self.offload_down = true;
                            let rank = self.rank;
                            self.trace.record(|| TraceEvent::OffloadDegraded { rank });
                        }
                        // Fall through: source the Phi buffer directly.
                    }
                }
            }
        }
        let lease = self.mr_cache.acquire(ctx, &self.res, buf);
        let key = lease.mr().key();
        (buf.addr, key, SendLease::Mr(lease))
    }

    /// Give back a rendezvous source lease once the peer has the data.
    fn release_send_lease(&mut self, ctx: &mut Ctx, lease: SendLease) {
        match lease {
            SendLease::Mr(l) => self.mr_cache.release(ctx, &self.res, l),
            SendLease::Offload(l) => self.offload_cache.release(ctx, &self.res, l),
        }
    }

    /// The message id a wire packet's lifecycle events record under. A
    /// message is identified by (sender rank, receiver rank, pair
    /// sequence id); packets that flow sender→receiver (EAGER, RTS,
    /// NACK-SEND, DONE-WRITE, NACK-WRITE) and packets that flow
    /// receiver→sender (RTR, DONE, NACK) map onto it from opposite
    /// ends. CREDITs belong to no message.
    fn msg_id(&self, kind: PacketKind, peer: Rank, outbound: bool) -> Option<(Rank, Rank)> {
        let forward = match kind {
            PacketKind::Eager
            | PacketKind::Rts
            | PacketKind::NackSend
            | PacketKind::DoneWrite
            | PacketKind::NackWrite => true,
            PacketKind::Rtr | PacketKind::Done | PacketKind::Nack => false,
            PacketKind::Credit => return None,
        };
        // On a forward packet the transmitting rank is the message's
        // sender; on a backward packet it is the receiver.
        Some(if forward == outbound {
            (self.rank, peer)
        } else {
            (peer, self.rank)
        })
    }

    /// Record one message-lifecycle edge event (the post-run stitcher's
    /// input). The timestamp is taken inside the record closure, so a
    /// detached trace — or the `trace` feature compiled out — pays
    /// nothing and the allocation-free hot path is unchanged.
    #[inline]
    fn msg_life(&self, ctx: &Ctx, src: Rank, dst: Rank, seq: u64, stage: MsgStage, len: u64) {
        let at = self.rank;
        self.trace.record(move || TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t: ctx.now().as_nanos(),
            len,
        });
    }

    /// Lifecycle edge for an outbound packet hitting the wire: NACKs
    /// record a `Nack` edge, everything else a `Doorbell`.
    fn msg_life_tx(&self, ctx: &Ctx, dst: Rank, hdr: &PacketHeader) {
        if let Some((src, mdst)) = self.msg_id(hdr.kind, dst, true) {
            let stage = match hdr.kind {
                PacketKind::NackSend | PacketKind::Nack | PacketKind::NackWrite => MsgStage::Nack,
                _ => MsgStage::Doorbell,
            };
            self.msg_life(ctx, src, mdst, hdr.seq, stage, hdr.len);
        }
    }

    /// Receiver-first: advertise the receive buffer. The registration is
    /// pinned via `posted.rtr_lease` until the receive resolves.
    fn send_rtr(&mut self, ctx: &mut Ctx, src: Rank, seq: u64, posted: &mut PostedRecv) {
        let lease = self.mr_cache.acquire(ctx, &self.res, &posted.buf);
        let tag = match posted.tag {
            TagSel::Tag(t) => t,
            TagSel::Any => 0,
        };
        let hdr = PacketHeader {
            kind: PacketKind::Rtr,
            src_rank: self.rank,
            tag,
            seq,
            len: posted.buf.len,
            addr: posted.buf.addr,
            rkey: lease.mr().key().0,
        };
        posted.rtr_lease = Some(lease);
        posted.rtr_hdr = Some(hdr);
        self.send_ctrl(ctx, src, hdr);
        posted.rtr_sent = true;
        self.reqs.replace(posted.req, ReqState::RecvAwaitDone);
        self.arm_rndv_timeout(ctx, TimeoutKind::Rtr { req: posted.req });
    }

    /// Receiver-first data movement on the sender: RDMA WRITE into the
    /// advertised buffer, then DONE on completion (driven by `handle_wc`).
    #[allow(clippy::too_many_arguments)]
    fn rndv_write(
        &mut self,
        ctx: &mut Ctx,
        dst: Rank,
        req: u64,
        src_addr: u64,
        src_rkey: MrKey,
        len: u64,
        rtr: &PacketHeader,
    ) {
        let write_len = len.min(rtr.len);
        let sge = verbs::Sge {
            addr: src_addr,
            len: write_len,
            lkey: src_rkey,
        };
        let wr = SendWr::rdma_write(0, sge, rtr.addr, MrKey(rtr.rkey));
        self.post_tracked(ctx, dst, wr, WrKind::RndvWrite { req });
        self.msg_life(ctx, self.rank, dst, rtr.seq, MsgStage::RdmaStart, write_len);
    }

    /// Ring window for a packet kind: CREDITs may use the 2 reserve slots
    /// so flow control can always make progress.
    fn window_for(&self, kind: PacketKind) -> u64 {
        let slots = self.cfg.ring_slots as u64;
        if kind == PacketKind::Credit {
            slots
        } else {
            slots - 2
        }
    }

    /// Queue a control packet (RTS/RTR/DONE/CREDIT) for `dst` and drain as
    /// much of the queue as current credit allows. Never blocks — safe to
    /// call from inside the progress engine.
    fn send_ctrl(&mut self, ctx: &mut Ctx, dst: Rank, hdr: PacketHeader) {
        {
            let peer = self.peers[dst].as_mut().expect("no peer");
            peer.pending_ctrl.push_back(hdr);
        }
        self.flush_ctrl(ctx, dst);
    }

    /// Transmit queued control packets while the window allows. Posts
    /// after the first of one drain ride the first post's doorbell (the
    /// HCA fetches batched WQEs on one ring).
    fn flush_ctrl(&mut self, ctx: &mut Ctx, dst: Rank) {
        let mut posted_any = false;
        loop {
            let hdr = {
                let Some(peer) = self.peers[dst].as_ref() else {
                    break;
                };
                if !peer.connected {
                    break; // queue until the lazy-connect handshake wires us
                }
                let Some(front) = peer.pending_ctrl.front() else {
                    break;
                };
                if peer.out_slot_seq - peer.out_consumed >= self.window_for(front.kind) {
                    break; // still no room
                }
                *front
            };
            self.peers[dst]
                .as_mut()
                .expect("no peer")
                .pending_ctrl
                .pop_front();
            self.coalesce_next_post = posted_any;
            self.transmit_packet(ctx, dst, hdr, None, None);
            posted_any = true;
        }
        // The ring reserves two slots beyond the non-credit window so
        // CREDIT packets can always flow — but that reserve is useless
        // if a queued credit sits behind a window-blocked RTS/DONE at
        // the queue front. Let credits bypass the stalled front: two
        // rings that fill simultaneously would otherwise each wait for
        // the other's ack and wedge. Bypassing is safe — a credit's
        // `out_consumed` watermark is applied with `max` and its replay
        // prune watermarks only ever claim already-resolved handshakes,
        // so neither interacts with the non-credit packets it overtakes.
        loop {
            let idx = {
                let Some(peer) = self.peers[dst].as_ref() else {
                    break;
                };
                if !peer.connected {
                    break;
                }
                if peer.out_slot_seq - peer.out_consumed >= self.window_for(PacketKind::Credit) {
                    break;
                }
                match peer
                    .pending_ctrl
                    .iter()
                    .position(|h| h.kind == PacketKind::Credit)
                {
                    Some(i) => i,
                    None => break,
                }
            };
            let hdr = self.peers[dst]
                .as_mut()
                .expect("no peer")
                .pending_ctrl
                .remove(idx)
                .expect("indexed");
            self.coalesce_next_post = posted_any;
            self.transmit_packet(ctx, dst, hdr, None, None);
            posted_any = true;
        }
        self.coalesce_next_post = false;
    }

    /// Send a data-bearing (eager) packet: waits for ring credit at top
    /// level, draining queued control packets first so packet order on
    /// the ring matches issue order.
    fn send_packet(
        &mut self,
        ctx: &mut Ctx,
        dst: Rank,
        hdr: PacketHeader,
        payload: Option<&Buffer>,
        owner: Option<u64>,
    ) {
        let mut stalled = false;
        loop {
            self.flush_ctrl(ctx, dst);
            let ready = {
                let peer = self.peers[dst].as_ref().expect("no peer");
                peer.connected
                    && peer.pending_ctrl.is_empty()
                    && peer.out_slot_seq - peer.out_consumed < self.window_for(hdr.kind)
            };
            if ready {
                break;
            }
            let seen = self.progress_event.epoch();
            self.progress(ctx);
            let ready = {
                let peer = self.peers[dst].as_ref().expect("no peer");
                peer.connected
                    && peer.pending_ctrl.is_empty()
                    && peer.out_slot_seq - peer.out_consumed < self.window_for(hdr.kind)
            };
            if ready {
                break;
            }
            // A dead peer grants no more credits (and never answers the
            // connect handshake): fail the owner instead of blocking the
            // rank forever.
            if self
                .health
                .as_ref()
                .is_some_and(|b| b.state(dst) == PeerState::Dead)
            {
                if let Some(id) = owner {
                    self.close_span(ctx, id);
                    self.reqs
                        .replace(id, ReqState::Failed(MpiError::PeerFailed(dst)));
                }
                return;
            }
            stalled = true;
            ctx.wait_event(&self.progress_event, seen, "eager ring credit");
        }
        if stalled {
            // The send parked for ring credit; the edge ending here is
            // the credit-stall interval.
            self.stats.credit_parks += 1;
            self.msg_life(ctx, self.rank, dst, hdr.seq, MsgStage::CreditStall, hdr.len);
        }
        self.transmit_packet(ctx, dst, hdr, payload, owner);
    }

    /// Unconditionally place one packet into the peer's ring (caller has
    /// verified the window).
    fn transmit_packet(
        &mut self,
        ctx: &mut Ctx,
        dst: Rank,
        hdr: PacketHeader,
        payload: Option<&Buffer>,
        owner: Option<u64>,
    ) {
        let slots = self.cfg.ring_slots as u64;

        let slot_size = Self::slot_size(&self.cfg);
        let payload_len = payload.map_or(0, |b| b.len);
        assert!(
            payload_len <= self.cfg.ring_slot_payload,
            "payload exceeds slot"
        );
        let (slot_seq, base) = {
            let peer = self.peers[dst].as_mut().expect("no peer");
            let s = peer.out_slot_seq;
            peer.out_slot_seq += 1;
            (s, (s % slots) * slot_size)
        };
        let total = HEADER_LEN + payload_len + TAIL_LEN;

        // Assemble header ‖ payload ‖ tail in the staging slot. The payload
        // copy is the eager protocol's "one copy" (charged at the local
        // domain's memcpy bandwidth).
        let cluster = self.res.cluster().clone();
        let mem_domain = self.res.mem().domain;
        let (stage, stage_mr, out_ring_addr, out_ring_rkey) = {
            let peer = self.peers[dst].as_ref().expect("no peer");
            (
                peer.stage.clone(),
                peer.stage_mr.clone(),
                peer.out_ring_addr,
                peer.out_ring_rkey,
            )
        };
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        hdr.encode_into(&mut hdr_bytes);
        cluster.write(&stage, base, &hdr_bytes);
        if let Some(p) = payload {
            cluster.copy(p, 0, &stage, base + HEADER_LEN, p.len);
            let t0 = self.metrics.start(|| ctx.now());
            ctx.sleep(cluster.copy_duration(mem_domain, payload_len));
            self.metrics
                .record_since(t0, || ctx.now(), Phase::EagerCopy, payload_len, Some(dst));
            if hdr.kind == PacketKind::Eager {
                // The eager protocol's one copy, now in the staging slot.
                self.msg_life(ctx, self.rank, dst, hdr.seq, MsgStage::Copy, payload_len);
            }
        }
        cluster.write(
            &stage,
            base + HEADER_LEN + payload_len,
            &tail_word(slot_seq).to_le_bytes(),
        );

        if ctx.has_trace() {
            ctx.trace(&format!(
                "rank{} -> rank{dst}: {:?} seq={} len={} (slot {})",
                self.rank,
                hdr.kind,
                hdr.seq,
                hdr.len,
                slot_seq % slots
            ));
        }
        let rank = self.rank;
        self.trace.record(|| TraceEvent::PacketTx {
            from: rank,
            to: dst,
            kind: hdr.kind,
            seq: hdr.seq,
            len: hdr.len,
        });
        if hdr.kind == PacketKind::Credit {
            self.stats.credit_grants += 1;
            self.trace.record(|| TraceEvent::CreditGrant {
                from: rank,
                to: dst,
                consumed: hdr.len,
            });
        }
        self.msg_life_tx(ctx, dst, &hdr);
        let off_in_stage = stage.addr + base;
        let sge = verbs::Sge {
            addr: off_in_stage,
            len: total,
            lkey: stage_mr.key(),
        };
        // Every ring write is signaled and tracked: a failed control
        // packet must be retried (dropping it would wedge the peer's
        // ring), and that needs the WR and its slot to still be known
        // when the error completion arrives. The wr_id is assigned by
        // `post_tracked` from the inflight table. SRQ mode ships the same
        // bytes as a two-sided Send into the peer's shared pool; the
        // slot sequence travels in the tail either way.
        let wr = if self.srq.is_some() {
            SendWr::send(0, sge)
        } else {
            SendWr::rdma_write(0, sge, out_ring_addr + base, out_ring_rkey)
        };
        self.post_tracked(
            ctx,
            dst,
            wr,
            WrKind::Ring {
                hdr,
                slot_seq,
                req: owner,
            },
        );
    }

    /// Rewrite an already-claimed outbound ring slot with a replacement
    /// packet (transport-abort path). The slot's original write failed
    /// and delivered nothing, so the receiver is still polling this very
    /// slot sequence; the stream stays consumable only if *something*
    /// valid lands there. The slot index cannot have been reused: the
    /// flow-control window never advances past an unconsumed slot.
    fn transmit_into_slot(&mut self, ctx: &mut Ctx, dst: Rank, hdr: PacketHeader, slot_seq: u64) {
        let slots = self.cfg.ring_slots as u64;
        let slot_size = Self::slot_size(&self.cfg);
        let base = (slot_seq % slots) * slot_size;
        let cluster = self.res.cluster().clone();
        let (stage, stage_mr, out_ring_addr, out_ring_rkey) = {
            let peer = self.peers[dst].as_ref().expect("no peer");
            (
                peer.stage.clone(),
                peer.stage_mr.clone(),
                peer.out_ring_addr,
                peer.out_ring_rkey,
            )
        };
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        hdr.encode_into(&mut hdr_bytes);
        cluster.write(&stage, base, &hdr_bytes);
        cluster.write(
            &stage,
            base + HEADER_LEN,
            &tail_word(slot_seq).to_le_bytes(),
        );
        let rank = self.rank;
        self.trace.record(|| TraceEvent::PacketTx {
            from: rank,
            to: dst,
            kind: hdr.kind,
            seq: hdr.seq,
            len: hdr.len,
        });
        if hdr.kind == PacketKind::Credit {
            self.stats.credit_grants += 1;
            self.trace.record(|| TraceEvent::CreditGrant {
                from: rank,
                to: dst,
                consumed: hdr.len,
            });
        }
        self.msg_life_tx(ctx, dst, &hdr);
        let sge = verbs::Sge {
            addr: stage.addr + base,
            len: HEADER_LEN + TAIL_LEN,
            lkey: stage_mr.key(),
        };
        let wr = if self.srq.is_some() {
            SendWr::send(0, sge)
        } else {
            SendWr::rdma_write(0, sge, out_ring_addr + base, out_ring_rkey)
        };
        self.post_tracked(
            ctx,
            dst,
            wr,
            WrKind::Ring {
                hdr,
                slot_seq,
                req: None,
            },
        );
    }

    /// Post a send-side work request with its completion routing recorded
    /// in the inflight table. A synchronous post failure (the QP refused
    /// the WR — no completion will ever arrive) is treated as a fatal
    /// completion, but without the recovery traffic: the QP itself is the
    /// thing that is broken.
    fn post_tracked(&mut self, ctx: &mut Ctx, dst: Rank, mut wr: SendWr, kind: WrKind) {
        let coalesce = std::mem::replace(&mut self.coalesce_next_post, false);
        // The inflight-table handle IS the wr_id: insert first to obtain
        // it, then stamp the WR (both the posted one and the stored copy
        // used for retries).
        let wr_id = self.inflight.insert(InflightWr {
            wr,
            dst,
            attempts: 1,
            kind,
        });
        wr.wr_id = wr_id;
        self.inflight
            .get_mut(wr_id)
            .expect("just inserted")
            .wr
            .wr_id = wr_id;
        let qp = &self.peers[dst].as_mut().expect("no peer").qp;
        // Posting is a device-model excursion: the simulated HCA may
        // allocate (scheduling its completion event) without that
        // counting against the library's zero-alloc budget.
        let _dev = crate::hotpath::pause();
        let res = if coalesce {
            self.stats.doorbells_coalesced += 1;
            qp.post_send_coalesced(ctx, wr)
        } else {
            qp.post_send(ctx, wr)
        };
        if res.is_err() {
            if let Some(entry) = self.inflight.remove(wr_id) {
                self.fail_wr(ctx, entry, WcStatus::RemoteAccessError, false);
            }
        }
    }

    /// One progress sweep: drain CQ completions, then inbound rings.
    pub fn progress(&mut self, ctx: &mut Ctx) {
        if self.in_progress {
            return; // re-entered from a handler; the outer sweep continues
        }
        let _hot = crate::hotpath::enter();
        self.in_progress = true;
        self.progress_inner(ctx);
        self.in_progress = false;
    }

    fn progress_inner(&mut self, ctx: &mut Ctx) {
        self.observe_health(ctx);
        self.pump_conn(ctx);
        self.pump_retries(ctx);
        self.pump_rndv_timeouts(ctx);
        // Drain completions in batches: one CQ lock per CQ_BATCH entries
        // instead of one per completion.
        let mut batch = std::mem::take(&mut self.cq_scratch);
        loop {
            batch.clear();
            if self.cq.poll_batch(&mut batch, CQ_BATCH) == 0 {
                break;
            }
            for wc in batch.drain(..) {
                self.handle_wc(ctx, wc);
            }
        }
        self.cq_scratch = batch;
        self.pump_srq(ctx);
        // Only established pairs have rings to sweep; by-index iteration
        // tolerates pairs established mid-sweep (picked up next sweep).
        for i in 0..self.active_peers.len() {
            let p = self.active_peers[i];
            while let Some((hdr, slot_base)) = self.peek_ring(p) {
                // Consume the slot before handling so handlers can send.
                {
                    let peer = self.peers[p].as_mut().expect("no peer");
                    peer.in_next_seq += 1;
                    peer.in_unreported += 1;
                }
                ctx.sleep(self.cost.cpu_op(self.res.mem().domain));
                self.stats.packets_processed += 1;
                if hdr.kind != PacketKind::Credit {
                    if let Some(peer) = self.peers[p].as_mut() {
                        peer.in_noncredit_pending = true;
                    }
                }
                self.handle_packet(ctx, p, hdr, slot_base);
            }
            self.maybe_credit(ctx, p);
            self.flush_ctrl(ctx, p);
        }
    }

    /// Check the next inbound slot of peer `p` (ring path only — SRQ-mode
    /// arrivals surface as completions, drained by `pump_srq`).
    fn peek_ring(&self, p: usize) -> Option<(PacketHeader, u64)> {
        let peer = self.peers[p].as_ref()?;
        let in_ring = peer.in_ring.as_ref()?;
        let slots = self.cfg.ring_slots as u64;
        let slot_size = Self::slot_size(&self.cfg);
        let base = (peer.in_next_seq % slots) * slot_size;
        let cluster = self.res.cluster();
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        cluster.read(in_ring, base, &mut hdr_bytes);
        let hdr = PacketHeader::decode(&hdr_bytes)?;
        let payload_len = match hdr.kind {
            PacketKind::Eager => hdr.len,
            _ => 0,
        };
        if HEADER_LEN + payload_len + TAIL_LEN > slot_size {
            return None; // corrupt / stale
        }
        let mut tail = [0u8; 8];
        cluster.read(in_ring, base + HEADER_LEN + payload_len, &mut tail);
        (tail_seq(u64::from_le_bytes(tail)) == Some(peer.in_next_seq)).then_some((hdr, base))
    }

    /// The buffer holding peer `p`'s current inbound slot: the shared SRQ
    /// pool, or the per-pair ring.
    fn in_slot_buf(&self, p: usize) -> Buffer {
        match &self.srq {
            Some(pool) => pool.pool.clone(),
            None => self.peers[p]
                .as_ref()
                .expect("no peer")
                .in_ring
                .clone()
                .expect("ring path"),
        }
    }

    /// SRQ mode: drain inbound Send completions from the shared pool's
    /// recv CQ and feed them — in per-peer slot-sequence order — into the
    /// same packet handler the ring path uses.
    fn pump_srq(&mut self, ctx: &mut Ctx) {
        if self.srq.is_none() {
            return;
        }
        // Completions parked because their source QP wasn't mapped yet:
        // `pump_conn` ran just before us, so the Ack that maps them may
        // have landed. Their slots were counted outstanding on first
        // sight — no re-count.
        let pending = std::mem::take(&mut self.srq.as_mut().expect("srq").pending);
        for wc in pending {
            self.handle_srq_wc(ctx, wc);
        }
        let mut batch = std::mem::take(&mut self.cq_scratch);
        loop {
            batch.clear();
            let recv_cq = self.srq.as_ref().expect("srq").recv_cq.clone();
            if recv_cq.poll_batch(&mut batch, CQ_BATCH) == 0 {
                break;
            }
            for wc in batch.drain(..) {
                // Each fresh completion is one consumed pool slot; it
                // stays counted until `repost_srq_slot` returns it.
                let pool = self.srq.as_mut().expect("srq");
                pool.outstanding += 1;
                self.stats.srq_highwater = self.stats.srq_highwater.max(pool.outstanding as u64);
                self.handle_srq_wc(ctx, wc);
            }
        }
        self.cq_scratch = batch;
    }

    /// Route one inbound-Send completion: map the source QP to a rank,
    /// parse the packet out of the pool slot, deliver in-order packets
    /// directly and stash overtakers, then recycle the slot.
    fn handle_srq_wc(&mut self, ctx: &mut Ctx, wc: Wc) {
        let slot = wc.wr_id as usize;
        let Some(src) = wc.src else {
            self.repost_srq_slot(ctx, slot);
            return;
        };
        let p = match self.srq.as_ref().expect("srq").src_ranks.get(&src) {
            Some(&p) => p,
            None => {
                // Data raced the connect Ack that maps this QP — park the
                // completion; the slot stays consumed until then.
                self.srq.as_mut().expect("srq").pending.push(wc);
                return;
            }
        };
        if wc.status != WcStatus::Success {
            // Scatter failure (defensive): recycle; the sender's retry
            // machinery owns recovery.
            self.repost_srq_slot(ctx, slot);
            return;
        }
        let slot_size = Self::slot_size(&self.cfg);
        let base = slot as u64 * slot_size;
        let cluster = self.res.cluster().clone();
        let pool_buf = self.srq.as_ref().expect("srq").pool.clone();
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        cluster.read(&pool_buf, base, &mut hdr_bytes);
        let Some(hdr) = PacketHeader::decode(&hdr_bytes) else {
            self.repost_srq_slot(ctx, slot);
            return;
        };
        let payload_len = match hdr.kind {
            PacketKind::Eager => hdr.len,
            _ => 0,
        };
        let mut tail = [0u8; 8];
        cluster.read(&pool_buf, base + HEADER_LEN + payload_len, &mut tail);
        let Some(slot_seq) = tail_seq(u64::from_le_bytes(tail)) else {
            self.repost_srq_slot(ctx, slot);
            return;
        };
        let next = self.peers[p].as_ref().expect("no peer").in_next_seq;
        if slot_seq < next {
            // Below the consumed watermark — already superseded. Cannot
            // happen in the current protocol (a failed Send moves no
            // data, so its slot sequence is only ever delivered once),
            // but recycling is always safe.
            self.repost_srq_slot(ctx, slot);
            return;
        }
        if slot_seq > next {
            // An overtaker: a retried packet's successors arrived first.
            // Copy it off the pool so the slot recycles; drain later.
            let _dev = crate::hotpath::pause();
            let mut data = self.payload_pool.pop().unwrap_or_default();
            debug_assert!(data.is_empty(), "pooled buffer returned dirty");
            data.resize(payload_len as usize, 0);
            if payload_len > 0 {
                cluster.read(&pool_buf, base + HEADER_LEN, &mut data);
            }
            let peer = self.peers[p].as_mut().expect("no peer");
            peer.srq_stash.push((slot_seq, hdr, data));
            if let Some((src, dst)) = self.msg_id(hdr.kind, p, false) {
                self.msg_life(ctx, src, dst, hdr.seq, MsgStage::SrqStash, hdr.len);
            }
            self.repost_srq_slot(ctx, slot);
            return;
        }
        // In order: consume straight from the pool slot, then recycle it
        // and drain any stashed successors.
        self.consume_srq_packet(ctx, p, hdr, base, None);
        self.repost_srq_slot(ctx, slot);
        loop {
            let next = self.peers[p].as_ref().expect("no peer").in_next_seq;
            let peer = self.peers[p].as_mut().expect("no peer");
            let Some(i) = peer.srq_stash.iter().position(|&(s, _, _)| s == next) else {
                break;
            };
            let (_, hdr, data) = peer.srq_stash.swap_remove(i);
            self.consume_srq_packet(ctx, p, hdr, 0, Some(data));
        }
    }

    /// Advance peer `p`'s inbound sequence and run the shared packet
    /// handler. `inline` carries a stashed payload (no longer in any pool
    /// slot); otherwise the payload is read from the pool at `slot_base`.
    fn consume_srq_packet(
        &mut self,
        ctx: &mut Ctx,
        p: usize,
        hdr: PacketHeader,
        slot_base: u64,
        inline: Option<Vec<u8>>,
    ) {
        {
            let peer = self.peers[p].as_mut().expect("no peer");
            peer.in_next_seq += 1;
            peer.in_unreported += 1;
        }
        ctx.sleep(self.cost.cpu_op(self.res.mem().domain));
        self.stats.packets_processed += 1;
        if hdr.kind != PacketKind::Credit {
            if let Some(peer) = self.peers[p].as_mut() {
                peer.in_noncredit_pending = true;
            }
        }
        self.srq_inline = inline;
        self.handle_packet(ctx, p, hdr, slot_base);
        // The handler bailed before consuming a stashed payload (dup,
        // dead receive, truncation): recycle it here so it can never
        // masquerade as the next packet's payload.
        if let Some(data) = self.srq_inline.take() {
            recycle_payload(
                &mut self.payload_pool,
                data,
                self.cfg.ring_slot_payload as usize,
            );
        }
    }

    /// Return a consumed pool slot to the SRQ. May immediately complete a
    /// backlogged Send (pool ran dry) — the new completion is picked up
    /// by the `pump_srq` drain loop in the same sweep.
    fn repost_srq_slot(&mut self, ctx: &mut Ctx, slot: usize) {
        let _dev = crate::hotpath::pause();
        let slot_size = Self::slot_size(&self.cfg);
        let pool = self.srq.as_ref().expect("srq");
        let sge = pool.pool_mr.sge(slot as u64 * slot_size, slot_size);
        pool.srq
            .post_recv(ctx, RecvWr::new(slot as u64, vec![sge]))
            .expect("SRQ repost failed");
        self.srq.as_mut().expect("srq").outstanding -= 1;
    }

    /// Smallest pair sequence toward `p` whose sender-first handshake is
    /// still unresolved on our side — the watchdog could re-issue its RTS,
    /// so the peer must keep its `served_done` reply for it. Everything
    /// below is acknowledged: the peer may forget those replies.
    fn ack_tx_watermark(&self, p: usize) -> u64 {
        let mut w = self.peers[p].as_ref().map_or(0, |peer| peer.tx_seq);
        for (_, state) in self.reqs.iter() {
            if let ReqState::RndvSendAwaitDone { dst, seq, .. } = state {
                if *dst == p {
                    w = w.min(*seq);
                }
            }
        }
        w
    }

    /// Smallest pair sequence from `p` whose receiver-first handshake is
    /// still unresolved on our side — the watchdog could re-issue its RTR,
    /// so the peer must keep its `served_dw` reply for it. New receives
    /// always advertise sequences at or above `rx_seq`, so the watermark
    /// never moves backwards.
    fn ack_rx_watermark(&self, p: usize) -> u64 {
        let mut w = self.peers[p].as_ref().map_or(0, |peer| peer.rx_seq);
        for r in &self.recv_q {
            if r.rtr_sent && r.src == Src::Rank(p) {
                if let Some(seq) = r.seq {
                    w = w.min(seq);
                }
            }
        }
        w
    }

    /// Build a CREDIT packet for peer `p`: `len` reports consumed ring
    /// slots, and the otherwise-unused `seq`/`addr` fields piggyback the
    /// handshake-resolution watermarks that let the peer prune its
    /// `served_done`/`served_dw` replay maps (see `handle_packet`). Old
    /// peers that sent zeros here simply prune nothing.
    fn credit_header(&self, p: usize) -> PacketHeader {
        let consumed = self.peers[p].as_ref().expect("no peer").in_next_seq;
        let mut hdr = PacketHeader::control(
            PacketKind::Credit,
            self.rank,
            0,
            self.ack_tx_watermark(p),
            consumed,
        );
        hdr.addr = self.ack_rx_watermark(p);
        hdr
    }

    fn maybe_credit(&mut self, ctx: &mut Ctx, p: usize) {
        let Some(peer) = self.peers[p].as_ref() else {
            return;
        };
        // Two thresholds: consumption involving real packets reports at
        // slots/4; *pure credit* consumption reports only at slots/2.
        // The 2:1 ratio makes credit-only exchanges decay geometrically
        // (no ping-pong livelock) while still recycling the slots that
        // CREDIT packets themselves occupy (no ack-stream starvation).
        let data_threshold = (self.cfg.ring_slots / 4).max(1) as u64;
        let pure_threshold = (self.cfg.ring_slots / 2).max(2) as u64;
        let due = if peer.in_noncredit_pending {
            peer.in_unreported >= data_threshold
        } else {
            peer.in_unreported >= pure_threshold
        };
        if !due {
            return;
        }
        let hdr = self.credit_header(p);
        self.send_ctrl(ctx, p, hdr);
        if let Some(peer) = self.peers[p].as_mut() {
            peer.in_unreported = 0;
            peer.in_noncredit_pending = false;
        }
    }

    /// Route one work completion: success completes the tracked WR;
    /// errors are classified into bounded retry (transient statuses),
    /// unbounded retry (ownerless control packets, which must eventually
    /// land or the peer's ring wedges), or permanent failure of the
    /// owning request — never a panic, never a dead rank.
    fn handle_wc(&mut self, ctx: &mut Ctx, wc: Wc) {
        let Some(entry) = self.inflight.remove(wc.wr_id) else {
            return;
        };
        if wc.status == WcStatus::Success {
            self.complete_wr(ctx, entry);
            return;
        }
        self.stats.wr_faults += 1;
        let rank = self.rank;
        let (peer, wr_id, transient) = (entry.dst, wc.wr_id, wc.status.is_transient());
        self.trace.record(|| TraceEvent::WrFault {
            rank,
            peer,
            wr_id,
            transient,
        });
        if wc.status == WcStatus::WrFlushErr {
            // The QP toward this peer flushed: the peer is dead. Snoop it
            // onto the health board (faster than heartbeat staleness) and
            // let the reap fail the owner with `PeerFailed` — recovery
            // traffic toward a corpse would only flush again.
            match self.health.clone() {
                Some(board) => {
                    {
                        let cluster = self.res.cluster();
                        let sched = cluster.scheduler();
                        board.promote_dead(sched, entry.dst, sched.now());
                    }
                    let _ = entry; // the sweep below resolves its owner
                    self.observe_health(ctx);
                    // The epoch-transition reap in `observe_health` is
                    // one-shot per peer: a WR posted after the corpse was
                    // already reaped (its entry guards raced the
                    // promotion) would otherwise leave its owner pending
                    // forever. `reap_one` is an idempotent sweep of
                    // everything currently toward the corpse, so re-run
                    // it for every flush.
                    self.reap_one(ctx, peer);
                }
                None => self.fail_wr(ctx, entry, wc.status, false),
            }
            return;
        }
        let ownerless_ctrl = matches!(
            &entry.kind,
            WrKind::Ring { hdr, req: None, .. } if matches!(
                hdr.kind,
                PacketKind::Done
                    | PacketKind::DoneWrite
                    | PacketKind::Credit
                    | PacketKind::NackSend
                    | PacketKind::Nack
                    | PacketKind::NackWrite
            )
        );
        if ownerless_ctrl || (transient && entry.attempts <= self.cfg.retry_limit) {
            self.schedule_retry(ctx, entry);
        } else {
            self.fail_wr(ctx, entry, wc.status, true);
        }
    }

    /// A tracked work request completed successfully.
    fn complete_wr(&mut self, ctx: &mut Ctx, entry: InflightWr) {
        match entry.kind {
            WrKind::Ring { hdr, req, .. } => {
                let Some(id) = req else { return };
                match self.reqs.get(id) {
                    Some(ReqState::EagerSend { status }) => {
                        let status = *status;
                        self.close_span(ctx, id);
                        self.reqs.replace(id, ReqState::Done(status));
                        let (dst, seq, len) = (entry.dst, hdr.seq, hdr.len);
                        self.msg_life(ctx, self.rank, dst, seq, MsgStage::Complete, len);
                    }
                    // Already failed out-of-band (peer death reap or a
                    // revocation drained it): the late success changes
                    // nothing.
                    Some(ReqState::Failed(_)) => {}
                    Some(_) => {
                        panic!("unexpected ring WC for request {id} ({:?})", hdr.kind);
                    }
                    None => {}
                }
            }
            // State transitions below swap the state out (the handle stays
            // valid, so the request keeps its id), work on the old fields,
            // then swap the final state in.
            WrKind::RndvRead { req } => match self.reqs.replace(req, ReqState::RecvAwaitDone) {
                Some(ReqState::RndvRecvReading {
                    src,
                    seq,
                    status,
                    truncated,
                    lease,
                }) => {
                    self.close_span(ctx, req);
                    self.msg_life(ctx, src, self.rank, seq, MsgStage::RdmaDone, status.len);
                    self.mr_cache.release(ctx, &self.res, lease);
                    self.stats.bytes_received += status.len;
                    let hdr = PacketHeader::control(
                        PacketKind::Done,
                        self.rank,
                        status.tag,
                        seq,
                        status.len,
                    );
                    if let Some(peer) = self.peers[src].as_mut() {
                        peer.served_done.insert(seq, hdr);
                    }
                    self.send_ctrl(ctx, src, hdr);
                    let completed = truncated.is_none();
                    let final_state = match truncated {
                        Some(e) => ReqState::Failed(e),
                        None => ReqState::Done(status),
                    };
                    self.reqs.replace(req, final_state);
                    if completed {
                        self.msg_life(ctx, src, self.rank, seq, MsgStage::Complete, status.len);
                    }
                }
                Some(failed @ ReqState::Failed(_)) => {
                    // Failed out-of-band (revocation) while the read was
                    // in flight; keep the failure.
                    self.reqs.replace(req, failed);
                }
                Some(other) => {
                    self.reqs.replace(req, other);
                    panic!("unexpected RDMA-read WC for request {req}");
                }
                None => {}
            },
            WrKind::RndvWrite { req } => {
                match self.reqs.replace(req, ReqState::RecvAwaitDone) {
                    Some(ReqState::RndvSendWriting {
                        dst,
                        seq,
                        full_len,
                        status,
                        lease,
                    }) => {
                        // Data placed; the source is free again. Tell the
                        // receiver.
                        self.close_span(ctx, req);
                        self.msg_life(ctx, self.rank, dst, seq, MsgStage::RdmaDone, full_len);
                        self.release_send_lease(ctx, lease);
                        let hdr = PacketHeader::control(
                            PacketKind::DoneWrite,
                            self.rank,
                            status.tag,
                            seq,
                            full_len,
                        );
                        if let Some(peer) = self.peers[dst].as_mut() {
                            peer.served_dw.insert(seq, hdr);
                        }
                        self.send_ctrl(ctx, dst, hdr);
                        self.reqs.replace(req, ReqState::Done(status));
                        self.msg_life(ctx, self.rank, dst, seq, MsgStage::Complete, full_len);
                    }
                    Some(failed @ ReqState::Failed(_)) => {
                        self.reqs.replace(req, failed);
                    }
                    Some(other) => {
                        self.reqs.replace(req, other);
                        panic!("unexpected RDMA-write WC for request {req}");
                    }
                    None => {}
                }
            }
        }
    }

    /// Backoff before the first retry of a transiently failed WR; doubles
    /// per attempt.
    const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(10);

    /// Put a transiently failed WR back on the wire after an exponential
    /// backoff (scheduled through the simulation clock; the progress
    /// event is poked at the due time so a waiting rank wakes up).
    fn schedule_retry(&mut self, ctx: &mut Ctx, mut entry: InflightWr) {
        let shift = (entry.attempts - 1).min(20);
        let backoff = Self::RETRY_BACKOFF * (1u64 << shift);
        self.metrics
            .record_ns(Phase::Backoff, 0, Some(entry.dst), backoff.as_nanos());
        if let WrKind::Ring { hdr, .. } = entry.kind {
            if let Some((src, dst)) = self.msg_id(hdr.kind, entry.dst, true) {
                self.msg_life(ctx, src, dst, hdr.seq, MsgStage::Backoff, hdr.len);
            }
        }
        entry.attempts += 1;
        // Re-insert under a fresh handle (the caller removed the entry to
        // classify its completion). The WR is re-stamped with the current
        // handle at each re-post, so the eventual completion still routes.
        let new_id = self.inflight.insert(entry);
        let due = ctx.now() + backoff;
        self.retry_due.push(due, new_id);
        self.progress_event
            .notify_at(self.res.cluster().scheduler(), due);
    }

    /// Re-post WRs whose backoff has elapsed.
    fn pump_retries(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        if self.retry_due.peek_due().is_none_or(|d| d > now) {
            return;
        }
        let mut due = std::mem::take(&mut self.retry_scratch);
        due.clear();
        self.retry_due.drain_due(now, &mut due);
        for wr_id in due.drain(..) {
            let Some(entry) = self.inflight.get(wr_id) else {
                continue;
            };
            let (dst, mut wr, attempt, kind) = (entry.dst, entry.wr, entry.attempts, entry.kind);
            wr.wr_id = wr_id;
            let rank = self.rank;
            self.trace.record(|| TraceEvent::WrRetry {
                rank,
                peer: dst,
                wr_id,
                attempt,
            });
            self.stats.wr_retries += 1;
            if let WrKind::Ring { hdr, .. } = kind {
                if let Some((src, mdst)) = self.msg_id(hdr.kind, dst, true) {
                    self.msg_life(ctx, src, mdst, hdr.seq, MsgStage::Retry, hdr.len);
                }
            }
            let res = self.peers[dst]
                .as_mut()
                .expect("no peer")
                .qp
                .post_send(ctx, wr);
            if res.is_err() {
                if let Some(entry) = self.inflight.remove(wr_id) {
                    self.fail_wr(ctx, entry, WcStatus::RemoteAccessError, false);
                }
            }
        }
        self.retry_scratch = due;
    }

    /// A send-side work request failed permanently: fail the owning
    /// request (only that request — the rank and all other traffic stay
    /// alive), notify the peer so its side resolves too, and keep the
    /// ring consumable. `recover` is false only for synchronous post
    /// failures, where the QP itself refused the WR and recovery traffic
    /// through it would be futile.
    fn fail_wr(&mut self, ctx: &mut Ctx, entry: InflightWr, status: WcStatus, recover: bool) {
        self.stats.transport_failures += 1;
        let rank = self.rank;
        let dst = entry.dst;
        let attempts = entry.attempts;
        match entry.kind {
            WrKind::Ring { hdr, slot_seq, req } => match hdr.kind {
                PacketKind::Eager => {
                    let seq = hdr.seq;
                    self.trace.record(|| TraceEvent::TransportFail {
                        rank,
                        peer: dst,
                        seq,
                    });
                    if let Some(id) = req {
                        self.close_span(ctx, id);
                        self.reqs.replace(
                            id,
                            ReqState::Failed(MpiError::Transport {
                                status,
                                op: TransportOp::EagerWrite,
                                attempts,
                            }),
                        );
                    }
                    if recover {
                        let nack = PacketHeader::control(
                            PacketKind::NackSend,
                            self.rank,
                            hdr.tag,
                            hdr.seq,
                            0,
                        );
                        self.transmit_into_slot(ctx, dst, nack, slot_seq);
                    }
                }
                PacketKind::Rts => {
                    let seq = hdr.seq;
                    self.trace.record(|| TraceEvent::TransportFail {
                        rank,
                        peer: dst,
                        seq,
                    });
                    // The owning send is discovered through (dst, seq):
                    // control packets carry no request id.
                    let owner = self.reqs.iter().find_map(|(id, st)| match st {
                        ReqState::RndvSendAwaitDone { dst: d, seq: s, .. }
                            if *d == dst && *s == hdr.seq =>
                        {
                            Some(id)
                        }
                        _ => None,
                    });
                    if let Some(id) = owner {
                        self.close_span(ctx, id);
                        if let Some(ReqState::RndvSendAwaitDone { lease, .. }) = self.reqs.replace(
                            id,
                            ReqState::Failed(MpiError::Transport {
                                status,
                                op: TransportOp::CtrlWrite,
                                attempts,
                            }),
                        ) {
                            self.release_send_lease(ctx, lease);
                        }
                    }
                    if recover {
                        let nack = PacketHeader::control(
                            PacketKind::NackSend,
                            self.rank,
                            hdr.tag,
                            hdr.seq,
                            0,
                        );
                        self.transmit_into_slot(ctx, dst, nack, slot_seq);
                    }
                }
                PacketKind::Rtr => {
                    let seq = hdr.seq;
                    self.trace.record(|| TraceEvent::TransportFail {
                        rank,
                        peer: dst,
                        seq,
                    });
                    let idx = self.recv_q.iter().position(|r| {
                        r.rtr_sent
                            && r.seq == Some(hdr.seq)
                            && matches!(r.src, Src::Rank(s) if s == dst)
                    });
                    if let Some(i) = idx {
                        let mut posted = self.recv_q.remove(i);
                        if let Some(l) = posted.rtr_lease.take() {
                            self.mr_cache.release(ctx, &self.res, l);
                        }
                        self.reqs.replace(
                            posted.req,
                            ReqState::Failed(MpiError::Transport {
                                status,
                                op: TransportOp::CtrlWrite,
                                attempts,
                            }),
                        );
                        // The sender never saw our RTR; its RTS (or eager
                        // packet) for this seq will arrive later and must
                        // not match another receive.
                        self.dead_rx.insert((dst, hdr.seq));
                    }
                    if recover {
                        let filler = self.credit_header(dst);
                        self.transmit_into_slot(ctx, dst, filler, slot_seq);
                    }
                }
                // Ownerless control packets retry without bound, so they
                // only land here on a synchronous post failure.
                _ => self.stats.ctrl_abandoned += 1,
            },
            WrKind::RndvRead { req } => {
                if let Some(ReqState::RndvRecvReading {
                    src,
                    seq,
                    status: st,
                    lease,
                    ..
                }) = self.reqs.replace(
                    req,
                    ReqState::Failed(MpiError::Transport {
                        status,
                        op: TransportOp::RndvRead,
                        attempts,
                    }),
                ) {
                    self.close_span(ctx, req);
                    self.mr_cache.release(ctx, &self.res, lease);
                    self.trace.record(|| TraceEvent::TransportFail {
                        rank,
                        peer: src,
                        seq,
                    });
                    if recover {
                        let nack =
                            PacketHeader::control(PacketKind::Nack, self.rank, st.tag, seq, 0);
                        if let Some(peer) = self.peers[src].as_mut() {
                            peer.served_done.insert(seq, nack);
                        }
                        self.send_ctrl(ctx, src, nack);
                    }
                }
            }
            WrKind::RndvWrite { req } => {
                if let Some(ReqState::RndvSendWriting {
                    dst: d,
                    seq,
                    status: st,
                    lease,
                    ..
                }) = self.reqs.replace(
                    req,
                    ReqState::Failed(MpiError::Transport {
                        status,
                        op: TransportOp::RndvWrite,
                        attempts,
                    }),
                ) {
                    self.close_span(ctx, req);
                    self.release_send_lease(ctx, lease);
                    self.trace
                        .record(|| TraceEvent::TransportFail { rank, peer: d, seq });
                    if recover {
                        let nack =
                            PacketHeader::control(PacketKind::NackWrite, self.rank, st.tag, seq, 0);
                        if let Some(peer) = self.peers[d].as_mut() {
                            peer.served_dw.insert(seq, nack);
                        }
                        self.send_ctrl(ctx, d, nack);
                    }
                }
            }
        }
    }

    /// Arm the rendezvous-handshake watchdog for `kind` (no-op when the
    /// watchdog is disabled).
    fn arm_rndv_timeout(&mut self, ctx: &mut Ctx, kind: TimeoutKind) {
        let Some(t) = self.cfg.rndv_timeout else {
            return;
        };
        let due = ctx.now() + t;
        self.rndv_timeouts.push(due, kind);
        self.progress_event
            .notify_at(self.res.cluster().scheduler(), due);
    }

    /// Fire elapsed handshake watchdogs. A watchdog whose request has
    /// resolved (completed or failed) is simply dropped.
    fn pump_rndv_timeouts(&mut self, ctx: &mut Ctx) {
        // Evict resolved handshakes' watchdogs once they dominate the
        // heap — thousands of ranks re-arming rendezvous watchdogs would
        // otherwise grow it without bound between (rare) fires.
        let Engine {
            rndv_timeouts,
            reqs,
            peers,
            ..
        } = self;
        rndv_timeouts.maybe_compact(|k| match *k {
            TimeoutKind::Rts { req } => {
                matches!(reqs.get(req), Some(ReqState::RndvSendAwaitDone { .. }))
            }
            TimeoutKind::Rtr { req } => matches!(reqs.get(req), Some(ReqState::RecvAwaitDone)),
            TimeoutKind::Conn { peer, .. } => peers[peer].as_ref().is_some_and(|p| !p.connected),
        });
        let now = ctx.now();
        if self.rndv_timeouts.peek_due().is_none_or(|d| d > now) {
            return;
        }
        let mut fired = std::mem::take(&mut self.timeout_scratch);
        fired.clear();
        self.rndv_timeouts.drain_due(now, &mut fired);
        for kind in fired.drain(..) {
            self.handle_rndv_timeout(ctx, kind);
        }
        self.timeout_scratch = fired;
    }

    /// Whether the handshake packet `hdr` is still on its way out of this
    /// rank (queued for credit, in flight, or awaiting a retry) — in
    /// which case re-issuing it would be premature.
    fn ctrl_outstanding(&self, dst: Rank, hdr: &PacketHeader) -> bool {
        let queued = self.peers[dst].as_ref().is_some_and(|p| {
            p.pending_ctrl
                .iter()
                .any(|h| h.kind == hdr.kind && h.seq == hdr.seq)
        });
        queued
            || self.inflight.iter().any(|(_, e)| {
                e.dst == dst
                    && matches!(&e.kind, WrKind::Ring { hdr: h, .. }
                        if h.kind == hdr.kind && h.seq == hdr.seq)
            })
    }

    fn handle_rndv_timeout(&mut self, ctx: &mut Ctx, kind: TimeoutKind) {
        let (dst, hdr) = match kind {
            TimeoutKind::Conn { peer, attempt } => {
                self.handle_conn_timeout(ctx, peer, attempt);
                return;
            }
            TimeoutKind::Rts { req } => {
                let Some(ReqState::RndvSendAwaitDone { dst, hdr, .. }) = self.reqs.get(req) else {
                    return;
                };
                (*dst, *hdr)
            }
            TimeoutKind::Rtr { req } => {
                if !matches!(self.reqs.get(req), Some(ReqState::RecvAwaitDone)) {
                    return;
                }
                let Some(posted) = self.recv_q.iter().find(|r| r.req == req) else {
                    return;
                };
                let (Some(hdr), Src::Rank(dst)) = (posted.rtr_hdr, posted.src) else {
                    return;
                };
                (dst, hdr)
            }
        };
        if self.ctrl_outstanding(dst, &hdr) {
            // Still in our own pipeline (e.g. waiting out a retry
            // backoff); give it another period.
            self.arm_rndv_timeout(ctx, kind);
            return;
        }
        let rank = self.rank;
        let (pkind, seq) = (hdr.kind, hdr.seq);
        self.trace.record(|| TraceEvent::Retrans {
            from: rank,
            to: dst,
            kind: pkind,
            seq,
        });
        self.stats.handshake_reissues += 1;
        self.send_ctrl(ctx, dst, hdr);
        self.arm_rndv_timeout(ctx, kind);
    }

    /// Whether data-stream sequence `seq` from peer `p` has been seen
    /// before (data packets arrive in sequence order, so a dup means a
    /// re-issued handshake).
    fn is_dup_data(&self, p: usize, seq: u64) -> bool {
        self.peers[p]
            .as_ref()
            .expect("no peer")
            .rx_data_high
            .is_some_and(|h| seq <= h)
    }

    /// Record the arrival of data-stream sequence `seq` from peer `p`.
    fn note_data_seq(&mut self, p: usize, seq: u64) {
        let peer = self.peers[p].as_mut().expect("no peer");
        peer.rx_data_high = Some(peer.rx_data_high.map_or(seq, |h| h.max(seq)));
    }

    fn handle_packet(&mut self, ctx: &mut Ctx, p: usize, hdr: PacketHeader, slot_base: u64) {
        if ctx.has_trace() {
            ctx.trace(&format!(
                "rank{} <- rank{p}: {:?} seq={} len={}",
                self.rank, hdr.kind, hdr.seq, hdr.len
            ));
        }
        let rank = self.rank;
        self.trace.record(|| TraceEvent::PacketRx {
            at: rank,
            from: p,
            kind: hdr.kind,
            seq: hdr.seq,
            len: hdr.len,
        });
        if let Some((src, dst)) = self.msg_id(hdr.kind, p, false) {
            self.msg_life(ctx, src, dst, hdr.seq, MsgStage::Wire, hdr.len);
        }
        match hdr.kind {
            PacketKind::Credit => {
                self.trace.record(|| TraceEvent::CreditApply {
                    at: rank,
                    from: p,
                    consumed: hdr.len,
                });
                let peer = self.peers[p].as_mut().expect("no peer");
                peer.out_consumed = peer.out_consumed.max(hdr.len);
                // Prune replayed-handshake answers the peer has resolved.
                // `seq`/`addr` carry the peer's resolution watermarks (see
                // `credit_header`); ring FIFO guarantees any still-replayable
                // duplicate RTS/RTR was processed before this credit, so
                // dropping entries below the watermarks is safe. Zeros (old
                // peers, bootstrap) prune nothing.
                let before = peer.served_done.len() + peer.served_dw.len();
                peer.served_done.retain(|&seq, _| seq >= hdr.seq);
                peer.served_dw.retain(|&seq, _| seq >= hdr.addr);
                let after = peer.served_done.len() + peer.served_dw.len();
                self.stats.replay_pruned += (before - after) as u64;
            }
            PacketKind::Eager => {
                if self.is_dup_data(p, hdr.seq) {
                    return;
                }
                self.note_data_seq(p, hdr.seq);
                if self.dead_rx.remove(&(p, hdr.seq)) {
                    // The matching receive already failed (its RTR write
                    // died); the payload has nowhere to go.
                    return;
                }
                match self.match_posted(hdr.src_rank, hdr.tag, hdr.seq) {
                    Some(idx) => {
                        let mut posted = self.recv_q.remove(idx);
                        // Eager mis-prediction into an RTR-coupled receive:
                        // the advertised buffer is no longer an RDMA target.
                        if let Some(l) = posted.rtr_lease.take() {
                            self.mr_cache.release(ctx, &self.res, l);
                        }
                        self.msg_life(ctx, p, rank, hdr.seq, MsgStage::Match, hdr.len);
                        self.deliver_eager_to(ctx, &posted, &hdr, p, slot_base);
                        self.after_match(ctx, posted.seq.is_none(), hdr.src_rank, hdr.seq);
                    }
                    None => {
                        // Copy out so the slot can be reused (unexpected
                        // message queue). Recycled buffers come back via
                        // `payload_pool` when the message is consumed. A
                        // stashed SRQ payload is already off-slot: adopt
                        // its buffer directly.
                        let cluster = self.res.cluster().clone();
                        let data = match self.srq_inline.take() {
                            Some(data) => data,
                            None => {
                                let src_buf = self.in_slot_buf(p);
                                let mut data = self.payload_pool.pop().unwrap_or_default();
                                debug_assert!(data.is_empty(), "pooled buffer returned dirty");
                                data.resize(hdr.len as usize, 0);
                                cluster.read(&src_buf, slot_base + HEADER_LEN, &mut data);
                                data
                            }
                        };
                        ctx.sleep(cluster.copy_duration(self.res.mem().domain, hdr.len));
                        self.unexpected.push(Unexpected::Eager {
                            src: hdr.src_rank,
                            tag: hdr.tag,
                            seq: hdr.seq,
                            data,
                        });
                        self.msg_life(ctx, p, rank, hdr.seq, MsgStage::UnexpStash, hdr.len);
                    }
                }
            }
            PacketKind::Rts => {
                if self.is_dup_data(p, hdr.seq) {
                    // Re-issued handshake. If we already answered it
                    // (DONE or NACK), replay the answer — the original
                    // may have been what got lost; otherwise the first
                    // copy is still being served and the dup is dropped.
                    let answer = self.peers[p]
                        .as_ref()
                        .expect("no peer")
                        .served_done
                        .get(&hdr.seq)
                        .cloned();
                    if let Some(ans) = answer {
                        let (akind, aseq) = (ans.kind, ans.seq);
                        self.trace.record(|| TraceEvent::Retrans {
                            from: rank,
                            to: p,
                            kind: akind,
                            seq: aseq,
                        });
                        self.send_ctrl(ctx, p, ans);
                    }
                    return;
                }
                self.note_data_seq(p, hdr.seq);
                if self.dead_rx.remove(&(p, hdr.seq)) {
                    // The matching receive failed (its RTR write died):
                    // answer negatively so the sender resolves too.
                    let nack =
                        PacketHeader::control(PacketKind::Nack, self.rank, hdr.tag, hdr.seq, 0);
                    if let Some(peer) = self.peers[p].as_mut() {
                        peer.served_done.insert(hdr.seq, nack);
                    }
                    self.send_ctrl(ctx, p, nack);
                    return;
                }
                match self.match_posted(hdr.src_rank, hdr.tag, hdr.seq) {
                    Some(idx) => {
                        let posted = self.recv_q.remove(idx);
                        let was_any = posted.seq.is_none();
                        self.msg_life(ctx, p, rank, hdr.seq, MsgStage::Match, hdr.len);
                        self.start_rndv_read(ctx, posted, &hdr);
                        self.after_match(ctx, was_any, hdr.src_rank, hdr.seq);
                    }
                    None => {
                        self.unexpected.push(Unexpected::Rts { hdr });
                        self.msg_life(ctx, p, rank, hdr.seq, MsgStage::UnexpStash, hdr.len);
                    }
                }
            }
            PacketKind::Rtr => {
                // Find the send awaiting this sequence id.
                let awaiting = self.reqs.iter().find_map(|(id, st)| match st {
                    ReqState::RndvSendAwaitDone { dst, seq, .. }
                        if *dst == hdr.src_rank && *seq == hdr.seq =>
                    {
                        Some(id)
                    }
                    _ => None,
                });
                if awaiting.is_some() {
                    // Simultaneous send/receive: "The sender will disregard
                    // the RTR and still wait for the receiver's RDMA read."
                    return;
                }
                // A re-issued RTR for a write we already answered
                // (DONE-WRITE or NACK-WRITE): replay the answer.
                let answer = self.peers[p]
                    .as_ref()
                    .expect("no peer")
                    .served_dw
                    .get(&hdr.seq)
                    .cloned();
                if let Some(ans) = answer {
                    let (akind, aseq) = (ans.kind, ans.seq);
                    self.trace.record(|| TraceEvent::Retrans {
                        from: rank,
                        to: p,
                        kind: akind,
                        seq: aseq,
                    });
                    self.send_ctrl(ctx, p, ans);
                    return;
                }
                // A re-issued RTR whose first copy already started our
                // RDMA write: the answer is coming, drop the dup.
                let writing = self.reqs.iter().any(|(_, st)| {
                    matches!(st, ReqState::RndvSendWriting { dst, seq, .. }
                        if *dst == p && *seq == hdr.seq)
                });
                if writing {
                    return;
                }
                // Completed or eager-satisfied sends: drop ("the sender
                // drops the RTR packet ... thanks to the sequence id").
                let peer = self.peers[p].as_mut().expect("no peer");
                if hdr.seq >= peer.tx_seq {
                    // Send not posted yet: receiver-first, stash for later
                    // (a re-issued RTR must not stash twice).
                    if !peer.stashed_rtrs.iter().any(|r| r.seq == hdr.seq) {
                        peer.stashed_rtrs.push(hdr);
                    }
                } else {
                    self.stats.stale_rtrs_dropped += 1;
                    self.trace.record(|| TraceEvent::StaleRtrDrop {
                        rank,
                        from: p,
                        seq: hdr.seq,
                    });
                }
            }
            PacketKind::Done => {
                // Sender-first: the receiver finished its RDMA READ;
                // completes our RndvSendAwaitDone with this id.
                let sender_req = self.reqs.iter().find_map(|(id, st)| match st {
                    ReqState::RndvSendAwaitDone { dst, seq, .. }
                        if *dst == hdr.src_rank && *seq == hdr.seq =>
                    {
                        Some(id)
                    }
                    _ => None,
                });
                if let Some(id) = sender_req {
                    if let Some(ReqState::RndvSendAwaitDone { status, lease, .. }) =
                        self.reqs.replace(id, ReqState::RecvAwaitDone)
                    {
                        self.close_span(ctx, id);
                        self.release_send_lease(ctx, lease);
                        self.reqs.replace(id, ReqState::Done(status));
                        self.msg_life(ctx, rank, p, hdr.seq, MsgStage::Complete, hdr.len);
                        self.note_watchdog_resolved();
                    }
                }
            }
            PacketKind::DoneWrite => {
                // Receiver-first: the sender finished its RDMA WRITE into
                // our advertised buffer; completes our RecvAwaitDone.
                let recv_idx = self.recv_q.iter().position(|r| {
                    r.rtr_sent
                        && r.seq == Some(hdr.seq)
                        && matches!(r.src, Src::Rank(s) if s == hdr.src_rank)
                });
                if let Some(idx) = recv_idx {
                    let mut posted = self.recv_q.remove(idx);
                    if let Some(l) = posted.rtr_lease.take() {
                        self.mr_cache.release(ctx, &self.res, l);
                    }
                    let completed = hdr.len <= posted.buf.len;
                    let state = if hdr.len > posted.buf.len {
                        // Sender had more data than our buffer: MPI error.
                        ReqState::Failed(MpiError::Truncated {
                            got: hdr.len,
                            capacity: posted.buf.len,
                        })
                    } else {
                        self.stats.bytes_received += hdr.len;
                        ReqState::Done(Status {
                            source: hdr.src_rank,
                            tag: hdr.tag,
                            len: hdr.len,
                        })
                    };
                    self.reqs.replace(posted.req, state);
                    if completed {
                        self.msg_life(ctx, p, rank, hdr.seq, MsgStage::Complete, hdr.len);
                    }
                    self.note_watchdog_resolved();
                }
            }
            PacketKind::NackSend => {
                // The sender's EAGER or RTS for this seq died; whatever
                // receive was (or will be) paired with it must fail
                // instead of waiting forever. Occupies the dead packet's
                // slot in the data stream, keeping later seqs matchable.
                if self.is_dup_data(p, hdr.seq) {
                    return;
                }
                self.note_data_seq(p, hdr.seq);
                if self.dead_rx.remove(&(p, hdr.seq)) {
                    return; // both ends already failed this transfer
                }
                match self.match_posted(hdr.src_rank, hdr.tag, hdr.seq) {
                    Some(idx) => {
                        let mut posted = self.recv_q.remove(idx);
                        if let Some(l) = posted.rtr_lease.take() {
                            self.mr_cache.release(ctx, &self.res, l);
                        }
                        let was_any = posted.seq.is_none();
                        self.reqs.replace(
                            posted.req,
                            ReqState::Failed(MpiError::RemoteTransport {
                                peer: hdr.src_rank,
                                seq: hdr.seq,
                            }),
                        );
                        self.after_match(ctx, was_any, hdr.src_rank, hdr.seq);
                    }
                    None => self.unexpected.push(Unexpected::Nack {
                        src: hdr.src_rank,
                        tag: hdr.tag,
                        seq: hdr.seq,
                    }),
                }
            }
            PacketKind::Nack => {
                // Negative DONE: the receiver could not complete its RDMA
                // READ (or its receive was already dead). Fails our send.
                let sender_req = self.reqs.iter().find_map(|(id, st)| match st {
                    ReqState::RndvSendAwaitDone { dst, seq, .. }
                        if *dst == hdr.src_rank && *seq == hdr.seq =>
                    {
                        Some(id)
                    }
                    _ => None,
                });
                if let Some(id) = sender_req {
                    self.close_span(ctx, id);
                    if let Some(ReqState::RndvSendAwaitDone { lease, .. }) = self.reqs.replace(
                        id,
                        ReqState::Failed(MpiError::RemoteTransport {
                            peer: hdr.src_rank,
                            seq: hdr.seq,
                        }),
                    ) {
                        self.release_send_lease(ctx, lease);
                    }
                    self.note_watchdog_resolved();
                }
            }
            PacketKind::NackWrite => {
                // Negative DONE-WRITE: the sender's RDMA WRITE into our
                // advertised buffer failed. Fails our receive.
                let recv_idx = self.recv_q.iter().position(|r| {
                    r.rtr_sent
                        && r.seq == Some(hdr.seq)
                        && matches!(r.src, Src::Rank(s) if s == hdr.src_rank)
                });
                if let Some(idx) = recv_idx {
                    let mut posted = self.recv_q.remove(idx);
                    if let Some(l) = posted.rtr_lease.take() {
                        self.mr_cache.release(ctx, &self.res, l);
                    }
                    self.reqs.replace(
                        posted.req,
                        ReqState::Failed(MpiError::RemoteTransport {
                            peer: hdr.src_rank,
                            seq: hdr.seq,
                        }),
                    );
                    self.note_watchdog_resolved();
                }
            }
        }
    }

    /// A rendezvous handshake with an armed watchdog just resolved: its
    /// heap entry is now dead weight. Report it so `pump_rndv_timeouts`
    /// can compact once dead entries dominate.
    fn note_watchdog_resolved(&mut self) {
        if self.cfg.rndv_timeout.is_some() {
            self.rndv_timeouts.note_cancel();
        }
    }

    /// Account a *pairing*: sequence id `seq` of peer `p`'s stream has
    /// been consumed by a receive. Only pairings may advance the receive
    /// counter — bumping on mere packet arrival would make later-posted
    /// receives skip ids and fall out of step with the sender's counter.
    fn note_rx_seq(&mut self, p: usize, seq: u64) {
        let peer = self.peers[p].as_mut().expect("no peer");
        peer.rx_seq = peer.rx_seq.max(seq + 1);
    }

    /// Match an inbound data packet against the posted-receive queue,
    /// honouring the any-source sequence lock: scanning stops at the first
    /// unassigned entry unless that entry itself matches.
    fn match_posted(&self, src: Rank, tag: Tag, seq: u64) -> Option<usize> {
        for (i, r) in self.recv_q.iter().enumerate() {
            // Receives that already sent an RTR are *coupled to one
            // sequence id*: they only match the packet carrying that id.
            // An arriving RTS with the id is the simultaneous case (the
            // receiver switches to the sender-first RDMA read); an
            // arriving EAGER with the id is the sender-eager
            // mis-prediction (the receiver copies the data and completes;
            // the sender drops the stale RTR by sequence id). Packets for
            // *later* sends with the same (src, tag) must skip the
            // coupled receive — that's exactly what the paper's sequence
            // ids are for.
            if r.rtr_sent && r.seq != Some(seq) {
                continue;
            }
            let src_ok = match r.src {
                Src::Rank(s) => s == src,
                Src::Any => true,
            };
            let matches = src_ok && r.tag.matches(tag);
            if r.seq.is_none() {
                // The lock: this (and everything behind it) has no sequence
                // id yet. Only this entry itself may match.
                return matches.then_some(i);
            }
            if matches {
                return Some(i);
            }
        }
        None
    }

    /// Match the unexpected queue at post time.
    fn match_unexpected(&self, src: Src, tag: TagSel) -> Option<usize> {
        self.unexpected.iter().position(|u| {
            let (usrc, utag) = match u {
                Unexpected::Eager { src, tag, .. } => (*src, *tag),
                Unexpected::Rts { hdr } => (hdr.src_rank, hdr.tag),
                Unexpected::Nack { src, tag, .. } => (*src, *tag),
            };
            let src_ok = match src {
                Src::Rank(s) => s == usrc,
                Src::Any => true,
            };
            src_ok && tag.matches(utag)
        })
    }

    fn consume_unexpected(&mut self, ctx: &mut Ctx, req: u64, buf: &Buffer, u: Unexpected) {
        match u {
            Unexpected::Eager {
                src,
                tag,
                seq,
                data,
            } => {
                self.msg_life(ctx, src, self.rank, seq, MsgStage::Match, data.len() as u64);
                if data.len() as u64 > buf.len {
                    self.reqs.replace(
                        req,
                        ReqState::Failed(MpiError::Truncated {
                            got: data.len() as u64,
                            capacity: buf.len,
                        }),
                    );
                    return;
                }
                let cluster = self.res.cluster().clone();
                cluster.write(buf, 0, &data);
                ctx.sleep(cluster.copy_duration(self.res.mem().domain, data.len() as u64));
                self.msg_life(ctx, src, self.rank, seq, MsgStage::Copy, data.len() as u64);
                self.note_rx_seq(src, seq);
                self.stats.bytes_received += data.len() as u64;
                self.reqs.replace(
                    req,
                    ReqState::Done(Status {
                        source: src,
                        tag,
                        len: data.len() as u64,
                    }),
                );
                self.msg_life(
                    ctx,
                    src,
                    self.rank,
                    seq,
                    MsgStage::Complete,
                    data.len() as u64,
                );
                // Recycle the copy-out buffer for the next unexpected
                // message.
                recycle_payload(
                    &mut self.payload_pool,
                    data,
                    self.cfg.eager_threshold as usize,
                );
            }
            Unexpected::Rts { hdr } => {
                self.msg_life(
                    ctx,
                    hdr.src_rank,
                    self.rank,
                    hdr.seq,
                    MsgStage::Match,
                    hdr.len,
                );
                self.note_rx_seq(hdr.src_rank, hdr.seq);
                let posted = PostedRecv {
                    req,
                    buf: buf.clone(),
                    src: Src::Rank(hdr.src_rank),
                    tag: TagSel::Tag(hdr.tag),
                    seq: Some(hdr.seq),
                    rtr_sent: false,
                    rtr_lease: None,
                    rtr_hdr: None,
                };
                self.start_rndv_read(ctx, posted, &hdr);
            }
            Unexpected::Nack { src, seq, .. } => {
                self.note_rx_seq(src, seq);
                self.reqs.replace(
                    req,
                    ReqState::Failed(MpiError::RemoteTransport { peer: src, seq }),
                );
            }
        }
    }

    /// Copy an in-ring eager payload straight into the matched user buffer.
    fn deliver_eager_to(
        &mut self,
        ctx: &mut Ctx,
        posted: &PostedRecv,
        hdr: &PacketHeader,
        p: usize,
        slot_base: u64,
    ) {
        if hdr.len > posted.buf.len {
            self.reqs.replace(
                posted.req,
                ReqState::Failed(MpiError::Truncated {
                    got: hdr.len,
                    capacity: posted.buf.len,
                }),
            );
            return;
        }
        let cluster = self.res.cluster().clone();
        match self.srq_inline.take() {
            Some(data) => {
                // Stashed SRQ payload: already off-slot, write directly.
                cluster.write(&posted.buf, 0, &data);
                recycle_payload(
                    &mut self.payload_pool,
                    data,
                    self.cfg.ring_slot_payload as usize,
                );
            }
            None => {
                let src_buf = self.in_slot_buf(p);
                cluster.copy(&src_buf, slot_base + HEADER_LEN, &posted.buf, 0, hdr.len);
            }
        }
        ctx.sleep(cluster.copy_duration(self.res.mem().domain, hdr.len));
        self.msg_life(
            ctx,
            hdr.src_rank,
            self.rank,
            hdr.seq,
            MsgStage::Copy,
            hdr.len,
        );
        self.stats.bytes_received += hdr.len;
        self.reqs.replace(
            posted.req,
            ReqState::Done(Status {
                source: hdr.src_rank,
                tag: hdr.tag,
                len: hdr.len,
            }),
        );
        self.msg_life(
            ctx,
            hdr.src_rank,
            self.rank,
            hdr.seq,
            MsgStage::Complete,
            hdr.len,
        );
    }

    /// Sender-first rendezvous on the receiver: RDMA READ from the RTS
    /// buffer into the user buffer.
    fn start_rndv_read(&mut self, ctx: &mut Ctx, mut posted: PostedRecv, hdr: &PacketHeader) {
        let read_len = hdr.len.min(posted.buf.len);
        let truncated = (hdr.len > posted.buf.len).then_some(MpiError::Truncated {
            got: hdr.len,
            capacity: posted.buf.len,
        });
        // Simultaneous rendezvous reuses the pin taken for our RTR (same
        // buffer); a plain sender-first receive pins it now.
        let lease = match posted.rtr_lease.take() {
            Some(l) => l,
            None => self.mr_cache.acquire(ctx, &self.res, &posted.buf),
        };
        self.msg_life(
            ctx,
            hdr.src_rank,
            self.rank,
            hdr.seq,
            MsgStage::MrAcquire,
            read_len,
        );
        let sge = verbs::Sge {
            addr: posted.buf.addr,
            len: read_len,
            lkey: lease.mr().key(),
        };
        let status = Status {
            source: hdr.src_rank,
            tag: hdr.tag,
            len: read_len,
        };
        self.reqs.replace(
            posted.req,
            ReqState::RndvRecvReading {
                src: hdr.src_rank,
                seq: hdr.seq,
                status,
                truncated,
                lease,
            },
        );
        let req = posted.req;
        self.open_span(ctx, Phase::RndvRead, req, read_len, hdr.src_rank);
        let wr = SendWr::rdma_read(0, sge, hdr.addr, MrKey(hdr.rkey));
        self.post_tracked(ctx, hdr.src_rank, wr, WrKind::RndvRead { req });
        self.msg_life(
            ctx,
            hdr.src_rank,
            self.rank,
            hdr.seq,
            MsgStage::RdmaStart,
            read_len,
        );
    }

    /// After matching an any-source receive, assign sequence ids to the
    /// receives it was locking, fire deferred RTRs and recheck the
    /// unexpected queue ("all the sequences locked will be unlocked and
    /// later receive requests can also get their ids").
    fn after_match(&mut self, ctx: &mut Ctx, was_any_lock: bool, src: Rank, seq: u64) {
        if !was_any_lock {
            return;
        }
        // The any-source receive consumed `seq` of `src`'s stream ("the
        // MPI ANY SOURCE request will get its sequence id when it first
        // meets the matching packet").
        self.note_rx_seq(src, seq);
        let mut i = 0;
        while i < self.recv_q.len() {
            if self.recv_q[i].seq.is_some() {
                i += 1;
                continue;
            }
            match self.recv_q[i].src {
                Src::Any => break, // the next any-source lock takes over
                Src::Rank(s) => {
                    let q = {
                        let peer = self.peers[s].as_mut().expect("no peer");
                        let q = peer.rx_seq;
                        peer.rx_seq += 1;
                        q
                    };
                    self.recv_q[i].seq = Some(q);
                    // Re-check the unexpected queue for this receive.
                    let (rsrc, rtag) = (self.recv_q[i].src, self.recv_q[i].tag);
                    if let Some(uidx) = self.match_unexpected(rsrc, rtag) {
                        let posted = self.recv_q.remove(i);
                        let u = self.unexpected.remove(uidx);
                        let req = posted.req;
                        let buf = posted.buf.clone();
                        self.consume_unexpected(ctx, req, &buf, u);
                        continue; // don't advance: entry removed
                    }
                    // Deferred receiver-first initiation.
                    if self.recv_q[i].buf.len > self.cfg.eager_threshold {
                        let mut posted = self.recv_q.remove(i);
                        self.send_rtr(ctx, s, q, &mut posted);
                        self.recv_q.insert(i, posted);
                    }
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_payload_buffers_come_back_empty() {
        let mut pool = Vec::new();
        let mut data = vec![0xAAu8; 128];
        data.reserve(64);
        recycle_payload(&mut pool, data, 8 << 10);
        assert_eq!(pool.len(), 1);
        assert!(pool[0].is_empty(), "stale bytes must not survive pooling");
        assert!(pool[0].capacity() >= 128, "capacity is what gets reused");
    }

    #[test]
    fn oversized_payload_buffers_are_dropped_not_pooled() {
        let mut pool = Vec::new();
        // A jumbo one-off: its high-water capacity must not be pinned.
        recycle_payload(&mut pool, vec![1u8; 1 << 20], 8 << 10);
        assert!(pool.is_empty(), "over-threshold capacity must be dropped");
        // At-threshold buffers are kept.
        recycle_payload(&mut pool, Vec::with_capacity(8 << 10), 8 << 10);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn payload_pool_is_capped() {
        let mut pool = Vec::new();
        for _ in 0..2 * PAYLOAD_POOL_CAP {
            recycle_payload(&mut pool, vec![7u8; 16], 8 << 10);
        }
        assert_eq!(pool.len(), PAYLOAD_POOL_CAP);
    }
}
