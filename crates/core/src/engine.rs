//! The DCFA-MPI point-to-point protocol engine.
//!
//! One engine instance runs inside each rank's simulated process and owns
//! that rank's channel, registration cache and request table. It is five
//! files (DESIGN.md "Engine layering"): this one holds the MPI entry points
//! and the offloading send buffer (§IV-B4: a large send syncs its payload
//! to a host twin over the PCIe DMA engine and sources the InfiniBand
//! transfer from host memory, dodging the slow HCA read from the Phi);
//! [`crate::protocol`] is the table of request transitions,
//! [`crate::channel`] the transport underneath, [`crate::matching`]
//! decides which receive a message belongs to, and [`crate::recovery`] is
//! everything that runs when a transfer, a handshake or a peer fails.
//! However a request ends, it ends in [`Engine::resolve`].

use std::sync::Arc;

use fabric::{Buffer, HealthBoard, MemRef};
use simcore::{Ctx, SimDuration, SimEvent, SimTime, TimerHandle};
use verbs::{MrKey, SendWr, Wc};

pub use crate::channel::PeerEndpoint;
use crate::channel::{Channel, Inbound, CQ_BATCH};
use crate::config::{MpiConfig, Placement};
use crate::connect::ConnDirectory;
use crate::matching::{MatchQueues, PostedRecv};
use crate::metrics::Phase;
use crate::mrcache::{Kind, Lease, RegCache};
use crate::packet::{PacketHeader, PacketKind};
use crate::peers::Peer;
use crate::protocol::{Event, Hit, NO_PACKET};
use crate::recovery::{Health, TimeoutKind, TrackedWrs, WrKind};
use crate::resources::Resources;
use crate::slots::SlotTable;
use crate::stats::StatsReport;
use crate::trace::{MsgStage, Recorder, TraceEvent};
use crate::types::{MpiError, Rank, Request, Src, Status, Tag, TagSel};

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

pub(crate) enum ReqState {
    /// Eager slot write in flight; completes on local WC.
    EagerSend { status: Status },
    /// RTS sent; waiting for the receiver's DONE. The lease pins the
    /// advertised source — the user buffer, or the offloading send
    /// buffer's host twin — until then (the peer RDMA-READs from it). `hdr`
    /// keeps the full RTS so the handshake watchdog can re-issue it.
    RndvSendAwaitDone {
        dst: Rank,
        status: Status,
        lease: Lease,
        hdr: PacketHeader,
    },
    /// Posted receive sitting in the match queue.
    RecvQueued,
    /// A rendezvous transfer in flight: our RDMA READ of `peer`'s buffer
    /// (sender-first, `read`), or our RDMA WRITE into it (receiver-first).
    /// The lease pins our end; `truncated` is a read's MPI error.
    Rdma {
        read: bool,
        peer: Rank,
        seq: u64,
        status: Status,
        truncated: Option<MpiError>,
        lease: Lease,
    },
    /// Receiver-first: RTR `hdr` sent to `src`, waiting for the sender's
    /// DONE-WRITE. `hdr` is kept so the handshake watchdog can re-issue it.
    RecvAwaitDone { src: Rank, hdr: PacketHeader },
    /// The request is over; `test`/`wait` hand the outcome to the caller.
    /// Only [`Engine::resolve`] puts a request here.
    Ended(Result<Status, MpiError>),
}

/// One request-table slot: the request's protocol state, the protocol
/// stage being timed and the watchdog of the handshake it waits out.
pub(crate) struct Req {
    pub(crate) state: ReqState,
    pub(crate) timing: Option<Timing>,
    pub(crate) watchdog: Option<TimerHandle>,
}

impl From<ReqState> for Req {
    fn from(state: ReqState) -> Req {
        let (timing, watchdog) = (None, None);
        Req {
            state,
            timing,
            watchdog,
        }
    }
}

/// A protocol stage being timed for the latency histograms: its phase,
/// the bytes it moves, its peer and when it began.
#[derive(Clone, Copy)]
pub(crate) struct Timing {
    phase: Phase,
    bytes: u64,
    peer: Rank,
    start: SimTime,
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
    pub(crate) cfg: MpiConfig,
    pub(crate) res: Resources,
    pub(crate) progress_event: SimEvent,
    /// The transport (see [`crate::channel`]).
    pub(crate) ch: Channel,
    /// Registrations of user buffers and host twins.
    pub(crate) cache: RegCache,
    /// Request table. Slot-indexed with generation-tagged handles: a
    /// consumed/unknown `Request` misses on its generation and reports
    /// `BadRequest`.
    pub(crate) reqs: SlotTable<Req>,
    /// Match queues and pair sequence state (see [`crate::matching`]).
    pub(crate) mq: MatchQueues,
    /// Send-side work requests in flight and the timers watching them
    /// (see [`crate::recovery`]).
    pub(crate) wr: TrackedWrs,
    /// What this rank knows about failures in its world.
    pub(crate) health: Health,
    mpi_call: SimDuration,
    pub(crate) stats: CommStats,
    /// Trace ring and latency hub, shared with the channel and the cache.
    pub(crate) rec: Recorder,
    /// Whether a sweep runs, and where the last began (see [`crate::news`]).
    pub(crate) gate: crate::news::SweepGate,
    /// Reusable scratch: completions drained per CQ batch.
    cq_scratch: Vec<Wc>,
    /// DCFA control epoch the cache was last validated against. A bump
    /// (daemon respawn / lease loss) flushes its dead entries before their
    /// stale keys can reach the wire.
    seen_ctrl_epoch: u64,
    /// Offloading send buffer degraded off: repeated twin-registration
    /// failure switches this rank to direct-from-Phi rendezvous sends.
    offload_down: bool,
    /// Consecutive twin-registration failures (reset on success).
    offload_fail_streak: u32,
}

impl Engine {
    /// Create a rank's engine, recording through `rec`. Per-peer resources
    /// materialize lazily on first touch (see `channel.rs`).
    pub fn create(
        ctx: &mut Ctx,
        rank: Rank,
        size: usize,
        cfg: MpiConfig,
        res: Resources,
        conn: Arc<ConnDirectory>,
        rec: Recorder,
    ) -> Engine {
        cfg.validate();
        let wake = SimEvent::new();
        conn.register(rank, wake.clone());
        let cost = &res.cluster().config().cost;
        let mpi_call = match cfg.placement {
            Placement::Phi => cost.mpi_call_phi,
            Placement::Host => cost.mpi_call_host,
        };
        let mut stats = CommStats::default();
        let ch = Channel::new(ctx, rank, &cfg, &res, conn, &wake, &mut stats, &rec);
        Engine {
            rank,
            size,
            cache: RegCache::new(cfg.mr_cache_capacity, rank, rec.clone()),
            reqs: SlotTable::with_limit(cfg.max_requests),
            cfg,
            res,
            progress_event: wake,
            ch,
            mq: MatchQueues::default(),
            wr: TrackedWrs::default(),
            health: Health::default(),
            mpi_call,
            stats,
            rec,
            gate: crate::news::SweepGate::new(),
            cq_scratch: Vec::with_capacity(CQ_BATCH),
            seen_ctrl_epoch: 0,
            offload_down: false,
            offload_fail_streak: 0,
        }
    }

    /// First-touch connection establishment toward `peer`; the caller's
    /// packet queues (or waits in `send_packet`) until the handshake
    /// wires the pair. Fails — before anything protocol-visible happened
    /// — when our half of the pair cannot be allocated.
    fn ensure_peer(&mut self, ctx: &mut Ctx, peer: Rank) -> Result<(), MpiError> {
        if self.ch.connect(ctx, &self.res, &mut self.stats, peer)? {
            self.arm_watchdog(ctx, TimeoutKind::Conn { peer, attempt: 1 });
        }
        Ok(())
    }

    pub fn mem(&self) -> MemRef {
        self.res.mem()
    }

    pub fn cluster(&self) -> &std::sync::Arc<fabric::Cluster> {
        self.res.cluster()
    }

    pub fn config(&self) -> &MpiConfig {
        &self.cfg
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
        self.gate(Some(dst), is_shrink_tag(tag))?;
        // Backpressure before the pair-sequence increment: a send that
        // cannot get a request slot (or its half of the pair) must not
        // burn a sequence id, or the stream would carry a permanent hole
        // and wedge matching.
        if self.reqs.is_full() {
            return Err(MpiError::ResourceExhausted);
        }
        self.ensure_peer(ctx, dst)?;
        let _hot = crate::hotpath::enter();
        ctx.sleep(self.mpi_call);
        // Late failure gate: the guards above ran before `ensure_peer`
        // and the entry sleep; fail here instead of burning a sequence
        // id toward a corpse or enqueueing into a revoked stream.
        self.gate(Some(dst), is_shrink_tag(tag))?;
        let (source, len) = (dst, buf.len);
        let pair = self.pair(dst);
        let seq = pair.tx_seq;
        pair.tx_seq += 1;
        // The message is born: its (src, dst, seq) id is now pinned.
        self.life(ctx, self.rank, dst, seq, MsgStage::Post, len);
        let status = Status { source, tag, len };

        self.stats.bytes_sent += len;
        if len <= self.cfg.eager_threshold {
            self.stats.eager_sends += 1;
            let req = self.reqs.insert(ReqState::EagerSend { status }.into());
            self.open_span(ctx, Phase::Eager, req, len, dst);
            let hdr = PacketHeader::control(PacketKind::Eager, self.rank, tag, seq, len);
            self.send_packet(ctx, dst, hdr, buf, req);
            return Ok(Request(req));
        }

        // Rendezvous. Pick the data source: offloaded host twin or the user
        // buffer registered directly.
        self.stats.rndv_sends += 1;
        let (src_addr, lease) = self.rndv_source(ctx, buf, dst, seq);
        let src_rkey = lease.mr.key();

        // Receiver-first? A stashed RTR with our sequence id means the
        // receiver already advertised its buffer.
        let rtrs = &mut self.pair(dst).stashed_rtrs;
        let stashed = rtrs.iter().position(|r| r.seq == seq);
        if let Some(rtr) = stashed.map(|i| rtrs.swap_remove(i)) {
            self.stats.rndv_recv_first += 1;
            let writing = ReqState::Rdma {
                read: false,
                peer: dst,
                seq,
                status,
                truncated: None,
                lease,
            };
            let req = self.reqs.insert(writing.into());
            self.open_span(ctx, Phase::RndvWrite, req, len, dst);
            // RDMA WRITE into the advertised buffer, then DONE-WRITE on
            // completion (the `transfer_done` row).
            let write_len = len.min(rtr.len);
            let sge = verbs::Sge {
                addr: src_addr,
                len: write_len,
                lkey: src_rkey,
            };
            let wr = SendWr::rdma_write(0, sge, rtr.addr, MrKey(rtr.rkey));
            self.post_tracked(ctx, dst, wr, WrKind::RndvWrite { req });
            self.life(ctx, self.rank, dst, seq, MsgStage::RdmaStart, write_len);
            return Ok(Request(req));
        }

        // Sender-first: RTS with our buffer info, then await DONE.
        let mut hdr = PacketHeader::control(PacketKind::Rts, self.rank, tag, seq, len);
        (hdr.addr, hdr.rkey) = (src_addr, src_rkey.0);
        let awaiting = ReqState::RndvSendAwaitDone {
            dst,
            status,
            lease,
            hdr,
        };
        let req = self.reqs.insert(awaiting.into());
        self.open_span(ctx, Phase::RtsWait, req, len, dst);
        self.dispatch(ctx, Event::Issue, Hit::new(dst, hdr, Some(req)));
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
        let (peer, band) = self.recv_gate_args(src, tag)?;
        self.note_op();
        self.observe_health(ctx);
        self.gate(peer, band)?;
        if self.reqs.is_full() {
            return Err(MpiError::ResourceExhausted);
        }
        if let Some(r) = peer {
            // A known-source receive touches the pair (sequence ids, and
            // possibly an RTR advertisement) — establish it.
            self.ensure_peer(ctx, r)?;
        }
        let _hot = crate::hotpath::enter();
        ctx.sleep(self.mpi_call);
        // Drain anything already sitting in the rings so protocol
        // selection sees the latest state (an RTS that already arrived
        // must match here instead of triggering a needless RTR).
        self.progress(ctx);
        let req = self.reqs.insert(ReqState::RecvQueued.into());

        let mut posted = PostedRecv {
            req,
            buf: buf.clone(),
            src,
            tag,
            seq: None,
            rtr_lease: None,
        };
        // Try the unexpected queue first.
        if let Some(idx) = self.match_unexpected(src, tag) {
            let u = self.mq.unexpected.remove(idx);
            self.pair_unexpected(ctx, posted, u);
            return Ok(Request(req));
        }
        posted.seq = self.assign_rx_seq(src);
        self.enqueue(ctx, self.mq.recv_q.len(), posted);
        // Late failure gate. The entry guards above ran before this call
        // slept, drove progress and possibly queued an RTR — any death or
        // revocation observed meanwhile has already had its one-shot
        // reap/drain pass, which could not see this receive. Leaving it
        // queued would strand it forever (nothing will ever match it and
        // no later sweep revisits the corpse).
        if let Err(e) = self.gate(peer, band) {
            let rank = self.rank;
            self.dispatch(ctx, Event::Withdraw, Hit::new(rank, NO_PACKET, Some(req)));
            return Err(e);
        }
        Ok(Request(req))
    }

    /// Validate a receive-side source selector and split it into the
    /// failure gate's arguments: the named peer, and whether the tag is
    /// in the shrink band.
    fn recv_gate_args(&self, src: Src, tag: TagSel) -> Result<(Option<Rank>, bool), MpiError> {
        let peer = match src {
            Src::Rank(r) if r >= self.size || r == self.rank => return Err(MpiError::BadRank(r)),
            Src::Rank(r) => Some(r),
            Src::Any => None,
        };
        Ok((peer, matches!(tag, TagSel::Tag(t) if is_shrink_tag(t))))
    }

    /// Non-blocking completion test. `Some` removes the request.
    pub fn test(&mut self, ctx: &mut Ctx, req: Request) -> Option<Result<Status, MpiError>> {
        let _hot = crate::hotpath::enter();
        self.progress(ctx);
        match self.state(req.0) {
            Some(ReqState::Ended(_)) => {}
            Some(_) => return None,
            None => return Some(Err(MpiError::BadRequest)),
        }
        match self.reqs.remove(req.0).map(|r| r.state) {
            Some(ReqState::Ended(outcome)) => Some(outcome),
            _ => Some(Err(MpiError::BadRequest)),
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
            self.wait_progress(ctx, seen, "mpi wait");
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
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(out), Err)
    }

    /// Non-blocking probe: is a matching message available to receive
    /// right now? Returns its envelope without consuming it (an arrived
    /// eager payload or rendezvous RTS in the unexpected queue).
    pub fn iprobe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Option<Status> {
        self.progress(ctx);
        self.match_unexpected(src, tag).map(|i| {
            let hdr = self.mq.unexpected[i].hdr;
            let (source, tag, len) = (hdr.src_rank, hdr.tag, hdr.len);
            Status { source, tag, len }
        })
    }

    /// Blocking probe. Like a receive it passes the failure gate before
    /// every park (`iprobe` has just observed the health board): the
    /// reap/drain after a verdict empties the unexpected queue, and
    /// nothing would wake a probe parked behind it.
    pub fn probe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Result<Status, MpiError> {
        let (peer, band) = self.recv_gate_args(src, tag)?;
        loop {
            let seen = self.progress_event.epoch();
            if let Some(st) = self.iprobe(ctx, src, tag) {
                return Ok(st);
            }
            self.gate(peer, band)?;
            self.wait_progress(ctx, seen, "mpi probe");
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
                if let Some(ReqState::Ended(_)) = self.state(r.0) {
                    if let Some(outcome) = self.test(ctx, r) {
                        return (i, outcome);
                    }
                }
                all_inactive &= !self.reqs.contains(r.0);
            }
            if all_inactive {
                return (0, Err(MpiError::BadRequest));
            }
            self.wait_progress(ctx, seen, "mpi waitany");
        }
    }

    /// Protocol/traffic counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Consolidated counter snapshot: protocol counters plus the
    /// registration cache's hit/miss/lifetime statistics of each kind.
    pub fn dump(&self) -> StatsReport {
        StatsReport {
            rank: self.rank,
            comm: self.stats,
            mr_cache: self.cache.stats(Kind::Mr),
            offload: self.cache.stats(Kind::Twin),
            mr_cached: self.cache.resident(Kind::Mr),
            mr_pinned: self.cache.pinned(),
        }
    }

    /// Live handshake-replay entries (`served_done` + `served_dw`) across
    /// all peers. Bounded by the unresolved-handshake window thanks to
    /// CREDIT watermark pruning — the soak regression test pins this.
    pub fn replay_entries(&self) -> usize {
        let entries = |e: &Peer| e.pair.served_done.len() + e.pair.served_dw.len();
        self.ch.peers.iter().map(entries).sum()
    }

    /// Request-table slots currently occupied (issued, not yet consumed).
    pub fn requests_live(&self) -> usize {
        self.reqs.len()
    }

    /// Attach this engine to the world's failure-detection board. Health
    /// checks (dead-peer refusal, revoke draining, kill unwinding) are
    /// no-ops until this is called.
    pub fn set_health(&mut self, board: Arc<HealthBoard>) {
        self.health.board = Some(board);
    }

    /// Arm the fail-stop trigger: this rank tears down and unwinds with
    /// `KillMarker` upon issuing its `n`-th MPI entry operation.
    pub fn set_kill_after(&mut self, n: u64) {
        self.health.kill_after = Some(n);
    }

    /// Park the simulated process until the progress event advances past
    /// `seen` (simulator plumbing, not library work).
    pub(crate) fn wait_progress(&mut self, ctx: &mut Ctx, seen: u64, reason: &'static str) {
        let _dev = crate::hotpath::pause();
        ctx.wait_event(&self.progress_event, seen, reason);
    }

    /// A clone of the progress event, for registering as a health-board
    /// watcher (death/revoke/commit transitions must wake blocked ranks).
    pub fn progress_event_handle(&self) -> SimEvent {
        self.progress_event.clone()
    }

    // ---- how a request ends ------------------------------------------------

    /// The one way a request ends (DESIGN.md §19): record its timed stage —
    /// first, as a pin release can cost virtual time outside the stage —
    /// cancel its watchdog, swap in the outcome and release the buffer pin
    /// the old state held. An ended request or a stale handle is left as
    /// it is. A posted receive's RTR pin goes with its queue entry
    /// ([`Self::take_posted`]).
    pub(crate) fn resolve(&mut self, ctx: &mut Ctx, req: u64, outcome: Result<Status, MpiError>) {
        if matches!(self.state(req), None | Some(ReqState::Ended(_))) {
            return;
        }
        self.close_span(ctx, req);
        self.disarm(req);
        let old = self.set_state(req, ReqState::Ended(outcome));
        if let Some(ReqState::RndvSendAwaitDone { lease, .. } | ReqState::Rdma { lease, .. }) = old
        {
            self.cache.release(ctx, &self.res, lease);
        }
    }

    /// Request `id`'s protocol state, if the handle is live.
    pub(crate) fn state(&self, id: u64) -> Option<&ReqState> {
        self.reqs.get(id).map(|r| &r.state)
    }

    /// Move request `id` to `state`, returning the one it leaves.
    pub(crate) fn set_state(&mut self, id: u64, state: ReqState) -> Option<ReqState> {
        let r = self.reqs.get_mut(id)?;
        Some(std::mem::replace(&mut r.state, state))
    }

    /// Start timing request `id`'s protocol stage `phase`. It ends in
    /// [`Self::close_span`].
    pub(crate) fn open_span(&mut self, ctx: &Ctx, phase: Phase, id: u64, bytes: u64, peer: Rank) {
        if let Some(r) = self.reqs.get_mut(id) {
            let start = ctx.now();
            r.timing = Some(Timing {
                phase,
                bytes,
                peer,
                start,
            });
        }
    }

    /// Record an edge of message (`src`, `dst`, `seq`)'s lifecycle.
    pub(crate) fn life(
        &self,
        ctx: &Ctx,
        src: Rank,
        dst: Rank,
        seq: u64,
        stage: MsgStage,
        len: u64,
    ) {
        self.ch.msg_life(ctx, src, dst, seq, stage, len);
    }

    /// The memcpy time of `len` bytes in this rank's memory.
    pub(crate) fn copy_time(&self, len: u64) -> SimDuration {
        self.res.cluster().copy_duration(self.res.mem().domain, len)
    }

    /// End request `id`'s timed stage, if it has one, recording its
    /// latency. The stage is taken from the request, so it ends once.
    pub(crate) fn close_span(&mut self, ctx: &Ctx, id: u64) {
        if let Some(t) = self.reqs.get_mut(id).and_then(|r| r.timing.take()) {
            let ns = ctx.now().since(t.start).as_nanos();
            self.rec.sample(t.phase, t.bytes, Some(t.peer), ns);
        }
    }

    // ---- host twins, teardown ----------------------------------------------

    /// Host twin of a Phi buffer (creating/caching it on first use), for
    /// host-staged operations. `None` on host placement or when the
    /// offloading send buffer is disabled.
    pub fn host_twin(&mut self, ctx: &mut Ctx, buf: &Buffer) -> Option<Buffer> {
        if !self.twin_eligible(buf) {
            return None;
        }
        self.refresh_ctrl();
        self.cache.twin(ctx, &self.res, buf)
    }

    /// Whether the offloading send buffer serves `buf`: the feature is on
    /// (and not degraded off) and the buffer lives in this rank's Phi
    /// memory — one already in host memory (e.g. a host-staged
    /// collective's) is sourced directly at full speed.
    fn twin_eligible(&self, buf: &Buffer) -> bool {
        self.cfg.placement == Placement::Phi
            && self.cfg.offload_threshold.is_some()
            && buf.mem.domain == fabric::Domain::Phi
            && !self.offload_down
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
            let pending = self.ch.ctrl_pending()
                || !self.wr.inflight.is_empty()
                || !self.wr.retry_due.is_empty();
            if !pending {
                debug_assert!(self.ch.stages_idle(), "a staging slot leaked");
                return;
            }
            ctx.wait_event(&self.progress_event, seen, "finalize quiesce");
        }
    }

    /// Tear down: drain the cache and tell the DCFA daemon we're done.
    pub fn finalize(&mut self, ctx: &mut Ctx) {
        self.cache.clear(ctx, &self.res);
        self.res.close(ctx);
    }

    // ---- protocol internals ------------------------------------------------

    /// Consecutive twin-registration failures after which the rank stops
    /// trying the offloading send buffer altogether.
    const OFFLOAD_FAIL_LIMIT: u32 = 3;

    /// Re-validate the registration cache against the DCFA control epoch.
    /// A bump means the rank re-attached (daemon respawn or lease loss):
    /// flush every cached entry whose registration died with the old
    /// daemon incarnation before its stale key can reach the wire.
    fn refresh_ctrl(&mut self) {
        let epoch = self.res.ctrl_epoch();
        if epoch != self.seen_ctrl_epoch {
            self.seen_ctrl_epoch = epoch;
            self.cache.invalidate_dead(&self.res);
        }
    }

    /// Choose the rendezvous data source and pin it: the host twin (synced
    /// first) above the offload threshold, else the user buffer via the MR
    /// pool — also when no twin is to be had, and for good after
    /// [`Self::OFFLOAD_FAIL_LIMIT`] failures in a row. Returns the source
    /// address and its lease, and records message `seq`'s staging edge.
    fn rndv_source(&mut self, ctx: &mut Ctx, buf: &Buffer, dst: Rank, seq: u64) -> (u64, Lease) {
        self.refresh_ctrl();
        let (rank, len) = (self.rank, buf.len);
        let thr = self.cfg.offload_threshold;
        if self.twin_eligible(buf) && thr.is_some_and(|thr| len >= thr) {
            if let Some(lease) = self.cache.acquire(ctx, &self.res, Kind::Twin, buf) {
                self.offload_fail_streak = 0;
                // Sync the latest bytes into the twin (blocking DMA).
                let twin = lease.image(buf);
                self.rec
                    .trace(|| TraceEvent::OffloadSyncStart { rank, len });
                let t0 = ctx.now();
                let t = self.res.cluster().pci_dma(buf, &twin, t0);
                ctx.wait_reason(&t.completion, "offload sync");
                let sync_ns = ctx.now().since(t0).as_nanos();
                self.rec.sample(Phase::OffloadSync, len, None, sync_ns);
                self.stats.offload_syncs += 1;
                self.rec.trace(|| TraceEvent::OffloadSyncEnd { rank, len });
                self.life(ctx, rank, dst, seq, MsgStage::OffloadSync, len);
                return (twin.addr, lease);
            }
            // No twin to be had: source the Phi buffer directly.
            self.stats.offload_fallbacks += 1;
            self.offload_fail_streak += 1;
            if self.offload_fail_streak >= Self::OFFLOAD_FAIL_LIMIT {
                self.offload_down = true;
                self.rec.trace(|| TraceEvent::OffloadDegraded { rank });
            }
        }
        let lease = self.pin_mr(ctx, buf);
        self.life(ctx, rank, dst, seq, MsgStage::MrAcquire, len);
        (buf.addr, lease)
    }

    /// Pin the registration of user buffer `buf` through the MR pool.
    pub(crate) fn pin_mr(&mut self, ctx: &mut Ctx, buf: &Buffer) -> Lease {
        let lease = self.cache.acquire(ctx, &self.res, Kind::Mr, buf);
        lease.expect("an MR lookup registers or panics; it never declines")
    }

    /// Queue a control packet (RTS/RTR/DONE/CREDIT) for `dst` and drain as
    /// much of the queue as current credit allows. Never blocks — safe to
    /// call from inside the progress engine.
    pub(crate) fn send_ctrl(&mut self, ctx: &mut Ctx, dst: Rank, hdr: PacketHeader) {
        self.ch.queue_ctrl(dst, hdr);
        self.flush_ctrl(ctx, dst);
    }

    /// Transmit queued control packets while the window allows. Posts
    /// after the first of one drain ride the first post's doorbell.
    pub(crate) fn flush_ctrl(&mut self, ctx: &mut Ctx, dst: Rank) {
        let mut posted_any = false;
        while let Some(hdr) = self.ch.next_ctrl(dst) {
            self.wr.coalesce_next_post = posted_any;
            self.transmit(ctx, dst, hdr, None, None, None);
            posted_any = true;
        }
        self.wr.coalesce_next_post = false;
    }

    /// Send an eager data packet: waits for room at top level, draining
    /// queued control packets first so packet order on the wire matches
    /// issue order.
    fn send_packet(
        &mut self,
        ctx: &mut Ctx,
        dst: Rank,
        hdr: PacketHeader,
        payload: &Buffer,
        owner: u64,
    ) {
        let mut stalled = false;
        loop {
            self.flush_ctrl(ctx, dst);
            if self.ch.room(dst, hdr.kind) {
                break;
            }
            let seen = self.progress_event.epoch();
            self.progress(ctx);
            if self.ch.room(dst, hdr.kind) {
                break;
            }
            // A dead peer grants no more credits (and never answers the
            // connect handshake): fail the owner instead of blocking the
            // rank forever.
            if self.board_says_dead(dst) {
                self.resolve(ctx, owner, Err(MpiError::PeerFailed(dst)));
                return;
            }
            stalled = true;
            ctx.wait_event(&self.progress_event, seen, "eager ring credit");
        }
        if stalled {
            // The send parked for ring credit; the edge ending here is
            // the credit-stall interval.
            self.stats.credit_parks += 1;
            self.life(ctx, self.rank, dst, hdr.seq, MsgStage::CreditStall, hdr.len);
        }
        self.transmit(ctx, dst, hdr, Some(payload), Some(owner), None);
    }

    /// Put one packet on the wire toward `dst` (the caller has verified
    /// the window), into outbound slot `slot` if given. Every slot write is
    /// tracked: a failed one is retried or replaced in its slot, or the
    /// peer's inbound stream would wedge.
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut Ctx,
        dst: Rank,
        hdr: PacketHeader,
        payload: Option<&Buffer>,
        req: Option<u64>,
        slot: Option<u64>,
    ) {
        let (res, stats) = (&self.res, &mut self.stats);
        let (wr, slot_seq, stage) = self.ch.put(ctx, res, stats, dst, hdr, payload, slot);
        let kind = WrKind::Ring {
            hdr,
            slot_seq,
            stage,
            req,
        };
        self.post_tracked(ctx, dst, wr, kind);
    }

    /// One progress sweep: drain CQ completions, then inbound packets — if
    /// the progress event was notified since the last began (DESIGN.md §19).
    pub fn progress(&mut self, ctx: &mut Ctx) {
        if self.gate.sweeping {
            return; // re-entered from a handler; the outer sweep continues
        }
        if !self.gate.open(self.progress_event.epoch()) {
            debug_assert_eq!(self.news(ctx.now()), None, "a skipped sweep had news");
            return;
        }
        let _hot = crate::hotpath::enter();
        self.gate.sweeping = true;
        self.observe_health(ctx);
        self.ch
            .pump_conn(ctx, &self.res, &mut self.stats, &mut self.wr.watchdogs);
        self.pump_retries(ctx);
        self.pump_rndv_timeouts(ctx);
        // Drain completions in batches of CQ_BATCH.
        let mut batch = std::mem::take(&mut self.cq_scratch);
        while self.ch.cq.poll_batch(&mut batch, CQ_BATCH) > 0 {
            for wc in batch.drain(..) {
                self.handle_wc(ctx, wc);
            }
        }
        self.cq_scratch = batch;
        while let Some(step) = self.ch.poll(ctx, &self.res, &mut self.stats) {
            match step {
                Inbound::Packet(p, hdr, payload) => self.arrive(ctx, p, hdr, payload),
                Inbound::Drained(p) => {
                    if self.ch.credit_due(p) {
                        let hdr = self.credit_header(p);
                        self.send_ctrl(ctx, p, hdr);
                    }
                    self.flush_ctrl(ctx, p);
                }
            }
        }
        self.gate.sweeping = false;
    }
}
