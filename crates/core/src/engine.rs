//! The DCFA-MPI point-to-point protocol engine.
//!
//! One engine instance runs inside each rank's simulated process and owns
//! that rank's channel, MR caches and request table. The protocol follows
//! §IV-B3/§IV-B4 of the paper:
//!
//! * **Eager** for small messages: one copy into a pre-registered staging
//!   slot, then `header ‖ payload ‖ tail` travels to the peer's inbound
//!   slot; the receiver finds it there in order.
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
//!
//! The engine is four files (DESIGN.md "Engine layering"): this one holds
//! the MPI entry points and the protocol transitions; [`crate::channel`]
//! is the transport underneath, [`crate::matching`] decides which receive
//! a message belongs to, and [`crate::recovery`] is everything that runs
//! when a transfer, a handshake or a peer fails. However a request ends,
//! it ends in [`Engine::resolve`].

use std::sync::Arc;

use fabric::{Buffer, HealthBoard, MemRef};
use simcore::{Ctx, SimDuration, SimEvent};
use verbs::{MrKey, SendWr, Wc};

pub use crate::channel::PeerEndpoint;
use crate::channel::{Channel, Inbound, Payload, CQ_BATCH};
use crate::config::{MpiConfig, Placement};
use crate::connect::ConnDirectory;
use crate::matching::{MatchQueues, Pair, PostedRecv};
use crate::metrics::{Metrics, MetricsHub, Phase, Span};
use crate::mrcache::{MrCache, MrLease, OffloadCache, OffloadLease};
use crate::packet::{PacketHeader, PacketKind};
use crate::recovery::{Health, TimeoutKind, TrackedWrs, WrKind};
use crate::resources::Resources;
use crate::slots::SlotTable;
use crate::stats::StatsReport;
use crate::trace::{MsgStage, Trace, TraceBuf, TraceEvent};
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

/// The pinned source region of an outgoing rendezvous transfer: either
/// the user buffer via the MR cache, or the offloading send buffer's
/// host twin. Held until the remote side confirms the data has moved.
pub(crate) enum SendLease {
    Mr(MrLease),
    Offload(OffloadLease),
}

pub(crate) enum ReqState {
    /// Eager slot write in flight; completes on local WC.
    EagerSend { status: Status },
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
    /// The request is over; `test`/`wait` hand the outcome to the caller.
    /// Only [`Engine::resolve`] puts a request here.
    Ended(Result<Status, MpiError>),
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
    pub(crate) mr_cache: MrCache,
    pub(crate) offload_cache: OffloadCache,
    /// Request table. Slot-indexed with generation-tagged handles: a
    /// consumed/unknown `Request` misses on its generation and reports
    /// `BadRequest`, exactly like the old hash-map lookup did.
    pub(crate) reqs: SlotTable<ReqState>,
    /// Match queues and pair sequence state (see [`crate::matching`]).
    pub(crate) mq: MatchQueues,
    /// Send-side work requests in flight and the timers watching them
    /// (see [`crate::recovery`]).
    pub(crate) wr: TrackedWrs,
    /// What this rank knows about failures in its world.
    pub(crate) health: Health,
    mpi_call: SimDuration,
    pub(crate) stats: CommStats,
    pub(crate) trace: Trace,
    pub(crate) metrics: Metrics,
    /// Open latency spans, slot-indexed in step with `reqs` (the stored
    /// full id disambiguates slot reuse): one asynchronous protocol stage
    /// per request, closed when the request resolves.
    pub(crate) open_spans: Vec<Option<(u64, Span)>>,
    /// Re-entrancy guard: progress() invoked from within progress() (via
    /// a packet handler) is a no-op; the outer sweep picks up the work.
    in_progress: bool,
    /// Reusable scratch: completions drained per CQ batch.
    cq_scratch: Vec<Wc>,
    /// DCFA control epoch the caches were last validated against. A bump
    /// (daemon respawn / lease loss) flushes dead entries from both cache
    /// pools before their stale keys can reach the wire.
    seen_ctrl_epoch: u64,
    /// Offloading send buffer degraded off: repeated twin-registration
    /// failure switches this rank to direct-from-Phi rendezvous sends.
    offload_down: bool,
    /// Consecutive twin-registration failures (reset on success).
    offload_fail_streak: u32,
}

impl Engine {
    /// Create a rank's engine. Per-peer resources materialize lazily on
    /// first touch (see `channel.rs`).
    pub fn create(
        ctx: &mut Ctx,
        rank: Rank,
        size: usize,
        cfg: MpiConfig,
        res: Resources,
        conn: Arc<ConnDirectory>,
    ) -> Engine {
        cfg.validate();
        let progress_event = SimEvent::new();
        conn.register(rank, progress_event.clone());
        let cq = res.create_cq(ctx, progress_event.clone());
        let cost = &res.cluster().config().cost;
        let mpi_call = match cfg.placement {
            Placement::Phi => cost.mpi_call_phi,
            Placement::Host => cost.mpi_call_host,
        };
        let mut stats = CommStats::default();
        let wake = progress_event.clone();
        let ch = Channel::new(ctx, rank, size, &cfg, &res, conn, cq, wake, &mut stats);
        Engine {
            rank,
            size,
            mr_cache: MrCache::new(cfg.mr_cache_capacity),
            offload_cache: OffloadCache::new(16),
            reqs: SlotTable::with_limit(cfg.max_requests),
            cfg,
            res,
            progress_event,
            ch,
            mq: MatchQueues::new(size),
            wr: TrackedWrs::default(),
            health: Health::default(),
            mpi_call,
            stats,
            trace: Trace::default(),
            metrics: Metrics::default(),
            open_spans: Vec::new(),
            in_progress: false,
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
            let attempt = 1;
            self.arm_watchdog(ctx, TimeoutKind::Conn { peer, attempt });
        }
        Ok(())
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
        let len = buf.len;
        let pair = self.pair(dst);
        let seq = pair.tx_seq;
        pair.tx_seq += 1;
        // The message is born: its (src, dst, seq) id is now pinned.
        self.ch
            .msg_life(ctx, self.rank, dst, seq, MsgStage::Post, len);
        let status = Status {
            source: dst,
            tag,
            len,
        };

        self.stats.bytes_sent += len;
        if len <= self.cfg.eager_threshold {
            self.stats.eager_sends += 1;
            let req = self.reqs.insert(ReqState::EagerSend { status });
            self.open_span(ctx, Phase::Eager, req, len, dst);
            let hdr = PacketHeader::control(PacketKind::Eager, self.rank, tag, seq, len);
            self.send_packet(ctx, dst, hdr, buf, req);
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
        self.ch.msg_life(ctx, self.rank, dst, seq, src_stage, len);

        // Receiver-first? A stashed RTR with our sequence id means the
        // receiver already advertised its buffer.
        let rtrs = &mut self.pair(dst).stashed_rtrs;
        let stashed = rtrs.iter().position(|r| r.seq == seq);
        if let Some(rtr) = stashed.map(|i| rtrs.swap_remove(i)) {
            self.stats.rndv_recv_first += 1;
            let req = self.reqs.insert(ReqState::RndvSendWriting {
                dst,
                seq,
                full_len: len,
                status,
                lease,
            });
            self.open_span(ctx, Phase::RndvWrite, req, len, dst);
            // RDMA WRITE into the advertised buffer, then DONE-WRITE on
            // completion (driven by `complete_wr`).
            let write_len = len.min(rtr.len);
            let sge = verbs::Sge {
                addr: src_addr,
                len: write_len,
                lkey: src_rkey,
            };
            let wr = SendWr::rdma_write(0, sge, rtr.addr, MrKey(rtr.rkey));
            self.post_tracked(ctx, dst, wr, WrKind::RndvWrite { req });
            self.ch
                .msg_life(ctx, self.rank, dst, seq, MsgStage::RdmaStart, write_len);
            return Ok(Request(req));
        }

        // Sender-first: RTS with our buffer info, then await DONE.
        let mut hdr = PacketHeader::control(PacketKind::Rts, self.rank, tag, seq, len);
        (hdr.addr, hdr.rkey) = (src_addr, src_rkey.0);
        let req = self.reqs.insert(ReqState::RndvSendAwaitDone {
            dst,
            seq,
            status,
            lease,
            hdr,
        });
        self.open_span(ctx, Phase::RtsWait, req, len, dst);
        self.send_ctrl(ctx, dst, hdr);
        self.arm_watchdog(ctx, TimeoutKind::Rts { req });
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
        let req = self.reqs.insert(ReqState::RecvQueued);

        // Try the unexpected queue first.
        if let Some(idx) = self.match_unexpected(src, tag) {
            let u = self.mq.unexpected.remove(idx);
            self.consume_unexpected(ctx, req, buf, u);
            return Ok(Request(req));
        }

        let seq = self.assign_rx_seq(src);
        let mut posted = PostedRecv {
            req,
            buf: buf.clone(),
            src,
            tag,
            seq,
            rtr_lease: None,
            rtr_hdr: None,
        };
        // Receiver-first rendezvous initiation: a large receive with a known
        // source advertises its buffer immediately.
        if let (Some(s), Some(q)) = (peer, seq) {
            if buf.len > self.cfg.eager_threshold {
                self.send_rtr(ctx, s, q, &mut posted);
            }
        }
        self.mq.recv_q.push(posted);
        // Late failure gate. The entry guards above ran before this call
        // slept, drove progress and possibly queued an RTR — any death or
        // revocation observed meanwhile has already had its one-shot
        // reap/drain pass, which could not see this receive. Leaving it
        // queued would strand it forever (nothing will ever match it and
        // no later sweep revisits the corpse).
        if let Err(e) = self.gate(peer, band) {
            self.take_posted(ctx, self.mq.recv_q.len() - 1);
            self.reqs.remove(req);
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
        match self.reqs.get(req.0) {
            Some(ReqState::Ended(_)) => {}
            Some(_) => return None,
            None => return Some(Err(MpiError::BadRequest)),
        }
        match self.reqs.remove(req.0) {
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
            let (source, tag, _, len) = self.mq.unexpected[i].envelope();
            Status { source, tag, len }
        })
    }

    /// Blocking probe. Like a receive it can only be satisfied by the
    /// peer it names on a communicator that is not revoked, so it passes
    /// the same failure gate before every park (`iprobe` has just observed
    /// the health board): the reap/drain that follows a verdict empties
    /// the unexpected queue, and nothing would ever wake a probe parked
    /// behind it.
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
                if let Some(ReqState::Ended(_)) = self.reqs.get(r.0) {
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

    /// Consolidated counter snapshot: protocol counters plus both cache
    /// pools' hit/miss/lifetime statistics.
    pub fn dump(&self) -> StatsReport {
        StatsReport {
            rank: self.rank,
            comm: self.stats,
            mr_cache: self.mr_cache.stats(),
            offload: self.offload_cache.stats(),
            mr_cached: self.mr_cache.cached_regions(),
            mr_pinned: self.mr_cache.pinned_regions(),
        }
    }

    /// Live handshake-replay entries (`served_done` + `served_dw`) across
    /// all peers. Bounded by the unresolved-handshake window thanks to
    /// CREDIT watermark pruning — the soak regression test pins this.
    pub fn replay_entries(&self) -> usize {
        let entries = |p: &Pair| p.served_done.len() + p.served_dw.len();
        self.mq.pairs.iter().map(entries).sum()
    }

    /// Request-table slots currently occupied (issued, not yet consumed).
    pub fn requests_live(&self) -> usize {
        self.reqs.len()
    }

    /// Attach this engine (and its caches) to a shared structured trace
    /// ring. Recording is a no-op until this is called.
    pub fn set_tracer(&mut self, buf: TraceBuf) {
        self.trace.attach(buf);
        self.ch.trace = self.trace.clone();
        self.mr_cache.set_trace(self.trace.clone(), self.rank);
        self.offload_cache.set_trace(self.trace.clone(), self.rank);
    }

    /// Attach this engine (and its caches) to a shared metrics hub.
    /// Latency recording — histograms and phase spans — is a no-op until
    /// this is called.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.metrics.attach(hub);
        self.ch.metrics = self.metrics.clone();
        self.mr_cache.set_metrics(self.metrics.clone());
        self.offload_cache.set_metrics(self.metrics.clone());
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

    /// The one way a request ends: close its latency span, swap in the
    /// outcome, release whichever buffer pin the old state held, and tell
    /// the watchdog heap that its handshake entry is dead — in that
    /// order. The span closes first because a pin release can cost
    /// virtual time (a deregistration through the daemon) that is not
    /// part of the protocol stage the span measures. A request that
    /// already ended, or a stale handle, is left as it is, so a late
    /// completion or a second failure changes nothing.
    ///
    /// A posted receive's RTR pin lives with its queue entry:
    /// [`Self::take_posted`] drops it when the receive leaves the queue.
    pub(crate) fn resolve(&mut self, ctx: &mut Ctx, req: u64, outcome: Result<Status, MpiError>) {
        match self.reqs.get(req) {
            None | Some(ReqState::Ended(_)) => return,
            Some(_) => {}
        }
        self.close_span(ctx, req);
        let watched = match self.reqs.replace(req, ReqState::Ended(outcome)) {
            Some(ReqState::RndvSendAwaitDone { lease, .. }) => {
                self.release_send_lease(ctx, lease);
                true
            }
            Some(ReqState::RndvSendWriting { lease, .. }) => {
                self.release_send_lease(ctx, lease);
                false
            }
            Some(ReqState::RndvRecvReading { lease, .. }) => {
                self.mr_cache.release(ctx, &self.res, lease);
                false
            }
            Some(ReqState::RecvAwaitDone) => true,
            _ => false,
        };
        if watched {
            self.note_watchdog_resolved();
        }
    }

    /// Open a latency span for request `id` and mirror it into the trace
    /// stream (auditor invariant 6 pairs opens and closes).
    pub(crate) fn open_span(&mut self, ctx: &Ctx, phase: Phase, id: u64, bytes: u64, peer: Rank) {
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
    pub(crate) fn close_span(&mut self, ctx: &Ctx, id: u64) {
        let slot = self.open_spans.get_mut(id as u32 as usize);
        let span = slot.and_then(|s| s.take_if(|(owner, _)| *owner == id));
        if let Some((_, span)) = span {
            let phase = span.phase;
            self.metrics.span_end(span, || ctx.now());
            let rank = self.rank;
            self.trace
                .record(|| TraceEvent::SpanClose { rank, id, phase });
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
        let omr = self.offload_cache.get_or_create(ctx, &self.res, buf)?;
        let off = buf.addr - omr.phi.addr;
        Some(omr.host_mr.buffer().slice(off, buf.len))
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

    /// Tear down: drain caches and tell the DCFA daemon we're done.
    pub fn finalize(&mut self, ctx: &mut Ctx) {
        self.mr_cache.clear(ctx, &self.res);
        self.offload_cache.clear(ctx, &self.res);
        self.res.close(ctx);
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
        let thr = self.cfg.offload_threshold;
        if self.twin_eligible(buf) && thr.is_some_and(|thr| buf.len >= thr) {
            if let Some(lease) = self.offload_cache.try_acquire(ctx, &self.res, buf) {
                self.offload_fail_streak = 0;
                let off = buf.addr - lease.phi.addr;
                let (host_addr, host_key) = (lease.host_mr.addr() + off, lease.host_mr.key());
                // Sync the latest bytes into the twin (blocking DMA).
                let src = lease.phi.slice(off, buf.len);
                let dst = lease.host_mr.buffer().slice(off, buf.len);
                let (rank, len) = (self.rank, buf.len);
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
            // No twin to be had: source the Phi buffer directly.
            self.stats.offload_fallbacks += 1;
            self.offload_fail_streak += 1;
            if self.offload_fail_streak >= Self::OFFLOAD_FAIL_LIMIT {
                self.offload_down = true;
                let rank = self.rank;
                self.trace.record(|| TraceEvent::OffloadDegraded { rank });
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
            self.ch
                .msg_life(ctx, self.rank, dst, hdr.seq, MsgStage::CreditStall, hdr.len);
        }
        self.transmit(ctx, dst, hdr, Some(payload), Some(owner), None);
    }

    /// Put one packet on the wire toward `dst` (the caller has verified
    /// the window) — into outbound slot `slot` if given, the next one
    /// otherwise. Every slot write is signaled and tracked: a failed
    /// control packet must be retried (dropping it would wedge the peer's
    /// inbound stream), and that needs the WR and its slot to still be
    /// known when the error completion arrives.
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

    /// One progress sweep: drain CQ completions, then inbound packets.
    pub fn progress(&mut self, ctx: &mut Ctx) {
        if self.in_progress {
            return; // re-entered from a handler; the outer sweep continues
        }
        let _hot = crate::hotpath::enter();
        self.in_progress = true;
        self.observe_health(ctx);
        self.ch.pump_conn(ctx, &self.res, &mut self.stats);
        self.pump_retries(ctx);
        self.pump_rndv_timeouts(ctx);
        // Drain completions in batches: one CQ lock per CQ_BATCH entries
        // instead of one per completion.
        let mut batch = std::mem::take(&mut self.cq_scratch);
        loop {
            batch.clear();
            if self.ch.cq.poll_batch(&mut batch, CQ_BATCH) == 0 {
                break;
            }
            for wc in batch.drain(..) {
                self.handle_wc(ctx, wc);
            }
        }
        self.cq_scratch = batch;
        while let Some(step) = self.ch.poll(ctx, &self.res, &mut self.stats) {
            match step {
                Inbound::Packet(p, hdr, payload) => self.handle_packet(ctx, p, hdr, payload),
                Inbound::Drained(p) => {
                    if self.ch.credit_due(p) {
                        let hdr = self.credit_header(p);
                        self.send_ctrl(ctx, p, hdr);
                    }
                    self.flush_ctrl(ctx, p);
                }
            }
        }
        self.in_progress = false;
    }

    /// One in-order arrival from `p`.
    fn handle_packet(&mut self, ctx: &mut Ctx, p: Rank, hdr: PacketHeader, payload: Payload) {
        let rank = self.rank;
        let (src, tag, seq) = (hdr.src_rank, hdr.tag, hdr.seq);
        self.trace.record(|| TraceEvent::PacketRx {
            at: rank,
            from: p,
            kind: hdr.kind,
            seq,
            len: hdr.len,
        });
        if let Some((msrc, mdst)) = self.ch.msg_id(hdr.kind, p, false) {
            self.ch
                .msg_life(ctx, msrc, mdst, seq, MsgStage::Wire, hdr.len);
        }
        let lost = || MpiError::RemoteTransport { peer: src, seq };
        match hdr.kind {
            PacketKind::Credit => {
                self.trace.record(|| TraceEvent::CreditApply {
                    at: rank,
                    from: p,
                    consumed: hdr.len,
                });
                self.ch.credited(p, hdr.len);
                // Prune replayed-handshake answers the peer has resolved.
                // `seq`/`addr` carry the peer's resolution watermarks (see
                // `credit_header`); slot FIFO guarantees any still-replayable
                // duplicate RTS/RTR was processed before this credit, so
                // dropping entries below the watermarks is safe. Zeros (old
                // peers, bootstrap) prune nothing.
                let pair = self.pair(p);
                let before = pair.served_done.len() + pair.served_dw.len();
                pair.served_done.retain(|&s, _| s >= hdr.seq);
                pair.served_dw.retain(|&s, _| s >= hdr.addr);
                let after = pair.served_done.len() + pair.served_dw.len();
                self.stats.replay_pruned += (before - after) as u64;
            }
            // The data stream — the three kinds that consume a pair
            // sequence id — goes to the matcher.
            PacketKind::Eager | PacketKind::Rts | PacketKind::NackSend => {
                self.match_arrival(ctx, p, hdr, payload)
            }
            PacketKind::Rtr => {
                if self.awaiting_send(src, seq).is_some() {
                    // Simultaneous send/receive: "The sender will disregard
                    // the RTR and still wait for the receiver's RDMA read."
                    return;
                }
                // A re-issued RTR for a write we already answered
                // (DONE-WRITE or NACK-WRITE): replay the answer.
                if let Some(ans) = self.pair(p).served_dw.get(&seq).copied() {
                    self.replay(ctx, p, ans);
                    return;
                }
                // A re-issued RTR whose first copy already started our
                // RDMA write: the answer is coming, drop the dup.
                let writing = self.reqs.iter().any(|(_, st)| {
                    matches!(st, ReqState::RndvSendWriting { dst, seq: s, .. }
                        if *dst == p && *s == seq)
                });
                if writing {
                    return;
                }
                // Completed or eager-satisfied sends: drop ("the sender
                // drops the RTR packet ... thanks to the sequence id").
                let pair = self.pair(p);
                if seq >= pair.tx_seq {
                    // Send not posted yet: receiver-first, stash for later
                    // (a re-issued RTR must not stash twice).
                    if !pair.stashed_rtrs.iter().any(|r| r.seq == seq) {
                        pair.stashed_rtrs.push(hdr);
                    }
                } else {
                    self.stats.stale_rtrs_dropped += 1;
                    self.trace
                        .record(|| TraceEvent::StaleRtrDrop { rank, from: p, seq });
                }
            }
            PacketKind::Done | PacketKind::Nack => {
                // The receiver finished its RDMA READ of our sender-first
                // send — or, negatively, could not (or its receive was
                // already dead).
                if let Some((id, status)) = self.awaiting_send(src, seq) {
                    if hdr.kind == PacketKind::Done {
                        self.resolve(ctx, id, Ok(status));
                        self.ch
                            .msg_life(ctx, rank, p, seq, MsgStage::Complete, hdr.len);
                    } else {
                        self.resolve(ctx, id, Err(lost()));
                    }
                }
            }
            PacketKind::DoneWrite | PacketKind::NackWrite => {
                // Receiver-first: the sender finished its RDMA WRITE into
                // our advertised buffer — or, negatively, it failed.
                let Some(idx) = self.mq.recv_q.iter().position(|r| r.advertised(src, seq)) else {
                    return;
                };
                let posted = self.take_posted(ctx, idx);
                let capacity = posted.buf.len;
                if hdr.kind == PacketKind::NackWrite {
                    self.resolve(ctx, posted.req, Err(lost()));
                } else if hdr.len > capacity {
                    // Sender had more data than our buffer: MPI error.
                    let got = hdr.len;
                    self.resolve(ctx, posted.req, Err(MpiError::Truncated { got, capacity }));
                } else {
                    self.stats.bytes_received += hdr.len;
                    let (source, len) = (src, hdr.len);
                    self.resolve(ctx, posted.req, Ok(Status { source, tag, len }));
                    self.ch
                        .msg_life(ctx, p, rank, seq, MsgStage::Complete, hdr.len);
                }
            }
        }
    }
}
