//! The channel: everything between the protocol engine and the verbs.
//!
//! One [`Channel`] per rank owns the transport half of every pair (QP,
//! staging region, inbound ring, slot and credit counters, the queue of
//! control packets waiting for credit) and the lazy-connect handshake.
//! Above it the engine sees five operations (DESIGN.md §19), after the
//! channel interface MPICH2 runs a whole MPI over: *room*
//! ([`Channel::room`]), *put* ([`Channel::put`], then [`Channel::post`]),
//! *poll* ([`Channel::poll`], an in-order arrival with its payload as a
//! [`Payload`] value), *credit* ([`Channel::credit_due`] /
//! [`Channel::credited`]) and *flush* ([`Channel::queue_ctrl`] /
//! [`Channel::next_ctrl`]: control packets never block).
//!
//! Arrivals reach a rank one of two ways: the peer RDMA-WRITEs into a
//! per-pair inbound ring whose tail word we poll, or (with
//! [`MpiConfig::srq_depth`]) it Sends into one receive pool shared by
//! every peer, an O(ranks²) → O(ranks) buffer-memory saving. Window,
//! credit and sequence accounting are the same in both, so this is one
//! concrete type, and the receive mode is visible nowhere outside this
//! file. Both inbound buffers are held off-page (DESIGN.md §18): a slot's
//! bytes live in side buffers until their last read ([`Channel::unread`]).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use fabric::{Buffer, Plane};
use simcore::{Ctx, SimDuration, SimEvent, TimerHandle, TimerQueue};
use verbs::{
    CompletionQueue, MemoryRegion, MrKey, QueuePair, RecvWr, SendWr, SharedReceiveQueue,
    VerbsError, Wc, WcStatus,
};

use crate::config::MpiConfig;
use crate::connect::{ConnDirectory, ConnMsg};
use crate::engine::CommStats;
use crate::metrics::Phase;
use crate::packet::{
    tail_seq, tail_word, PacketHeader, PacketKind, HEADER_BYTES, HEADER_LEN, SLOT_OVERHEAD,
    TAIL_LEN,
};
use crate::peers::{Peer, Peers};
use crate::recovery::TimeoutKind;
use crate::resources::Resources;
use crate::trace::{MsgStage, Recorder, TraceEvent};
use crate::types::{MpiError, Rank};

/// Completions drained from a CQ per poll (the `ibv_poll_cq` batch size).
pub(crate) const CQ_BATCH: usize = 64;

/// Recycled payload buffers kept for copy-out.
const PAYLOAD_POOL_CAP: usize = 32;

/// Info a rank publishes during bootstrap, consumed by its peers.
#[derive(Clone)]
pub struct PeerEndpoint {
    pub qpn: verbs::QpNum,
    pub node: fabric::NodeId,
    pub ring_addr: u64,
    pub ring_rkey: MrKey,
}

/// The transport half of one pair, kept in its [`Peer`] entry.
pub(crate) struct Link {
    qp: QueuePair,
    /// Whether the outbound half is wired (the lazy-connect Req/Ack
    /// handshake resolved). Data and control packets queue until then.
    connected: bool,
    /// Remote (peer-side) inbound ring we write into.
    out_ring_addr: u64,
    out_ring_rkey: MrKey,
    /// Next outbound slot sequence number.
    out_slot_seq: u64,
    /// Cumulative slots the peer reported consumed (credits).
    out_consumed: u64,
    /// Local staging region, one slot per ring slot, and the stack of its
    /// free slots: a slot write stages in the most recently freed one and
    /// holds it until the write ends for good, so the pages a pair keeps
    /// hot are as many as it keeps packets in flight.
    stage: Buffer,
    stage_lkey: MrKey,
    stage_free: Vec<u32>,
    /// Local inbound ring this peer writes into (the region's buffer), held
    /// off-page; `None` when arrivals come through the shared pool.
    in_ring: Option<MemoryRegion>,
    /// Next inbound slot sequence to consume.
    in_next_seq: u64,
    /// `Some(n)`: at [`MemoryRegion::writes`] `== n` the next slot of
    /// `in_ring` is empty — it was parsed and found so, or every write
    /// landed so far was consumed — and while no write lands it still is,
    /// so *poll* need not look.
    in_idle_at: Option<u64>,
    /// Consumed slots not yet reported as credit.
    in_unreported: u64,
    /// Whether any *non-credit* packet was consumed since the last credit
    /// report. CREDIT packets occupy (and free) slots like everything
    /// else, but must never *trigger* a report themselves — otherwise two
    /// idle ranks with small rings acknowledge each other's credits
    /// forever (credit ping-pong livelock).
    in_noncredit_pending: bool,
    /// Control packets waiting for credit. Control sends never block
    /// (they are issued from inside the progress engine); they queue here
    /// and drain as credits arrive, ahead of any later data packet.
    pending_ctrl: VecDeque<PacketHeader>,
    /// Pool arrivals ahead of `in_next_seq` (a retried send's replacement
    /// can be overtaken by its successors — two-sided Sends have no fixed
    /// ring slot to stall on). Copied off the shared pool so the slot
    /// recycles; drained as the sequence catches up.
    stash: Vec<(u64, PacketHeader, Vec<u8>)>,
}

impl Link {
    fn endpoint(&self) -> PeerEndpoint {
        PeerEndpoint {
            qpn: self.qp.qpn(),
            node: self.qp.node(),
            ring_addr: self.in_ring.as_ref().map_or(0, MemoryRegion::addr),
            ring_rkey: self.in_ring.as_ref().map_or(MrKey(0), MemoryRegion::key),
        }
    }
}

/// One pool of receive slots serving every peer of this rank, replacing
/// the per-pair inbound rings.
struct SrqPool {
    srq: SharedReceiveQueue,
    /// Inbound Send completions land here, separate from the send-side CQ:
    /// their wr_ids are pool slot indices, which must never collide with
    /// the inflight-table handles that identify send-side completions.
    recv_cq: CompletionQueue,
    /// The pool: `depth` slots of ring-slot layout (hdr ‖ payload ‖ tail),
    /// `slot_size` bytes each, held off-page.
    pool: Buffer,
    pool_mr: MemoryRegion,
    slot_size: u64,
    /// Slots consumed by the HCA and not yet re-posted.
    outstanding: u32,
    /// Sender (node, qpn) → peer rank, filled as pairs wire up.
    src_ranks: HashMap<(fabric::NodeId, verbs::QpNum), usize>,
    /// Completions whose source QP wasn't mapped yet (the first data
    /// packet can race the connect Ack); retried at the next sweep.
    parked: Vec<Wc>,
    /// The sweep's completions and the next one to look at. `fresh` says
    /// they came off the CQ this sweep (each is one newly consumed slot),
    /// not out of `parked` (counted when first seen).
    wcs: Vec<Wc>,
    next: usize,
    fresh: bool,
    /// Slot of the arrival the engine is handling, re-posted when it
    /// asks for the next one.
    held: Option<usize>,
    /// Peer whose reorder stash is draining behind an in-order arrival.
    draining: Option<Rank>,
}

impl SrqPool {
    /// Return a consumed pool slot, its bytes ended, to the SRQ: the post
    /// may complete a backlogged Send into it, seen by the same sweep.
    fn repost(&mut self, ctx: &mut Ctx, slot: usize) {
        let _dev = crate::hotpath::pause();
        self.post(ctx, slot);
        self.outstanding -= 1;
    }

    fn post(&self, ctx: &mut Ctx, slot: usize) {
        let sge = self.pool_mr.sge(self.at(slot), self.slot_size);
        // Invariant: the SGE lies inside `pool_mr`, which lives as long as
        // the pool — the only ways a receive post can be refused.
        self.srq
            .post_recv(ctx, RecvWr::new(slot as u64, sge))
            .expect("pool slot lies inside the pool MR");
    }

    /// Where pool slot `slot` starts.
    fn at(&self, slot: usize) -> u64 {
        slot as u64 * self.slot_size
    }
}

/// Where an arrival's payload bytes are.
pub(crate) enum Payload {
    /// Still in the inbound slot at `at` of `buf`, after its header.
    Slot(Buffer, u64),
    /// Copied off the shared pool by the reorder stash.
    Stashed(Vec<u8>),
}

/// One step of an inbound sweep.
pub(crate) enum Inbound {
    /// The next in-order packet from a peer.
    Packet(Rank, PacketHeader, Payload),
    /// `peer`'s inbound stream is drained for this sweep: the moment to
    /// report credit and flush its control queue.
    Drained(Rank),
}

/// Where an inbound sweep stands between two `poll` calls.
enum Sweep {
    /// Draining the shared pool's completions.
    Pool,
    /// Draining per-pair streams: the next position in the peers' rank
    /// order, and where the sweep ends (pairs established mid-sweep wait
    /// for the next).
    Pairs(usize, usize),
}

/// The per-rank transport (see the module docs).
pub(crate) struct Channel {
    rank: Rank,
    /// Slots per ring, bytes per slot, payload bytes per slot.
    slots: u64,
    slot_size: u64,
    slot_payload: u64,
    /// CPU cost of consuming one inbound packet.
    cpu_op: SimDuration,
    /// Send-side completion queue every QP of this rank reports to; the
    /// engine drains it.
    pub(crate) cq: CompletionQueue,
    progress_event: SimEvent,
    /// One entry per established pair, in rank order: a sweep visits
    /// these, so a rank that talks to 4 of 512 peers pays for 4.
    pub(crate) peers: Peers,
    srq: Option<SrqPool>,
    /// The shared pool could not be allocated: no pair can be established.
    pool_oom: bool,
    sweep: Option<Sweep>,
    /// The inbound slot (ring or pool) of the arrival being routed or handed
    /// out, while it holds bytes. The plane acquisition that reads its last
    /// bytes discards it — the parse of a packet without payload, the
    /// copy-out of one with — or else (a dropped payload, a failed pool
    /// completion) the next *poll*, before a repost or credit reuses it.
    unread: Option<Buffer>,
    /// The world's lazy-connect directory (see [`crate::connect`]).
    pub(crate) conn: Arc<ConnDirectory>,
    conn_scratch: Vec<ConnMsg>,
    /// The connect watchdog of each unwired pair that has one, by peer:
    /// kept here, not in `Link`, which every established pair keeps for
    /// good. Wiring the pair cancels it.
    conn_watchdogs: Vec<(Rank, Option<TimerHandle>)>,
    /// Recycled payload buffers: copy-out pops one here instead of
    /// allocating, and consuming the message pushes it back.
    payload_pool: Vec<Vec<u8>>,
    /// The engine's recorder (see [`Recorder`]).
    rec: Recorder,
    /// Slots parsed so far, for the tests of the idle-ring rule.
    #[cfg(test)]
    pub(crate) slot_parses: std::cell::Cell<u64>,
}

impl Channel {
    /// Create a rank's channel. No per-peer resources are allocated here:
    /// QPs and rings materialize lazily on first touch (see
    /// [`crate::connect`]), so a 512-rank world that only exchanges with
    /// neighbours never pays for the all-pairs matrix. The shared pool,
    /// when configured, is posted up front; its completions wake the same
    /// progress event as the send CQ, so a blocked rank resumes on arrival.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &mut Ctx,
        rank: Rank,
        cfg: &MpiConfig,
        res: &Resources,
        conn: Arc<ConnDirectory>,
        progress_event: &SimEvent,
        stats: &mut CommStats,
        rec: &Recorder,
    ) -> Channel {
        let cq = res.create_cq(ctx, progress_event.clone());
        let slot_size = cfg.ring_slot_payload + SLOT_OVERHEAD;
        let mut pool_oom = false;
        let srq = cfg.srq_depth.and_then(|depth| {
            let pool_bytes = depth as u64 * slot_size;
            let srq = res.create_srq(ctx);
            let recv_cq = res.create_cq(ctx, progress_event.clone());
            let Ok(pool) = res.cluster().alloc_pages(res.mem(), pool_bytes) else {
                pool_oom = true;
                return None;
            };
            let pool_mr = res.reg_mr(ctx, pool.clone());
            // A posted receive's bytes live from the arrival that writes
            // them until their last read: the host backs none of them.
            res.cluster().hold_off_page(&pool);
            let pool = SrqPool {
                srq,
                recv_cq,
                pool,
                pool_mr,
                slot_size,
                outstanding: 0,
                src_ranks: HashMap::new(),
                parked: Vec::new(),
                wcs: Vec::with_capacity(CQ_BATCH),
                next: 0,
                fresh: false,
                held: None,
                draining: None,
            };
            (0..depth as usize).for_each(|slot| pool.post(ctx, slot));
            stats.comm_buffer_bytes += pool_bytes;
            Some(pool)
        });
        Channel {
            rank,
            slots: cfg.ring_slots as u64,
            slot_size,
            slot_payload: cfg.ring_slot_payload,
            cpu_op: res.cluster().config().cost.cpu_op(res.mem().domain),
            cq,
            progress_event: progress_event.clone(),
            peers: Peers::default(),
            srq,
            pool_oom,
            sweep: None,
            unread: None,
            conn,
            conn_scratch: Vec::new(),
            conn_watchdogs: Vec::new(),
            payload_pool: Vec::new(),
            rec: rec.clone(),
            #[cfg(test)]
            slot_parses: Default::default(),
        }
    }

    /// Invariant: every caller names a peer whose pair `connect` or
    /// `pump_conn` established — a packet, completion, timer or queue
    /// entry for `p` can only exist after that.
    fn link(&self, p: Rank) -> &Link {
        &self.peers.get(p).expect("pair established").link
    }

    /// See [`Self::link`].
    fn link_mut(&mut self, p: Rank) -> &mut Link {
        &mut self.peers.get_mut(p).expect("pair established").link
    }

    // ---- lazy connect ------------------------------------------------------

    /// Allocate this rank's half of the pair with `p`: QP, inbound ring
    /// (registered with the progress event so an inbound packet wakes
    /// us) and the staging region, a slot for each of the peer's ring.
    /// Returns the endpoint to advertise. The outbound half stays unwired until the
    /// peer's endpoint arrives (`Req` or `Ack`).
    fn alloc_link(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
        p: Rank,
    ) -> Result<PeerEndpoint, MpiError> {
        debug_assert!(self.peers.get(p).is_none(), "peer {p} already established");
        if self.pool_oom {
            return Err(MpiError::OutOfMemory);
        }
        // Resource setup is a device/control excursion, not steady-state
        // message traffic.
        let _dev = crate::hotpath::pause();
        let ring_bytes = self.slot_size * self.slots;
        let cluster = res.cluster();
        let alloc = || {
            cluster
                .alloc_pages(res.mem(), ring_bytes)
                .map_err(|_| MpiError::OutOfMemory)
        };
        // Memory first, ring then stage: a first touch refused for lack of
        // it leaves nothing behind — no queue pair, no daemon command —
        // however often the caller retries. With a shared pool the QP
        // draws receives from it and needs no per-pair inbound ring: only
        // the outbound stage scales with the number of touched peers.
        let ring = match &self.srq {
            Some(_) => None,
            None => Some(alloc()?),
        };
        let stage = alloc().inspect_err(|_| ring.iter().for_each(|r| cluster.free(r)))?;
        let qp = match &self.srq {
            Some(pool) => res.create_qp_with_srq(ctx, &self.cq, &pool.recv_cq, &pool.srq),
            None => res.create_qp(ctx, &self.cq, &self.cq),
        };
        let in_ring = ring.map(|ring| {
            // Registration cost through the placement-appropriate path,
            // then attach the shared progress event.
            let mr = res.reg_mr(ctx, ring);
            cluster.hold_off_page(mr.buffer());
            res.ib()
                .set_write_event(mr.key(), self.progress_event.clone())
                .expect("ring MR was registered on the line above")
        });
        let stage_lkey = res.reg_mr(ctx, stage.clone()).key();
        let link = Link {
            qp,
            connected: false,
            out_ring_addr: 0,
            out_ring_rkey: MrKey(0),
            out_slot_seq: 0,
            out_consumed: 0,
            stage,
            stage_lkey,
            stage_free: (0..self.slots as u32).rev().collect(),
            in_ring,
            in_next_seq: 0,
            in_idle_at: None,
            in_unreported: 0,
            in_noncredit_pending: false,
            pending_ctrl: VecDeque::new(),
            stash: Vec::new(),
        };
        let ep = link.endpoint();
        stats.pairs_established += 1;
        // With a pool only the stage is per pair; receives share the pool.
        stats.comm_buffer_bytes += ring_bytes * if link.in_ring.is_some() { 2 } else { 1 };
        let pair = Default::default();
        self.peers.insert(p, Peer { link, pair });
        Ok(ep)
    }

    fn post_conn(&self, res: &Resources, to: Rank, msg: ConnMsg) {
        let _dev = crate::hotpath::pause();
        self.conn.post(res.cluster().scheduler(), to, msg);
    }

    /// First-touch connection establishment: allocate our half and post
    /// the connect request; `Ok(true)` when this call did so. Packets for
    /// `p` queue until the peer's answer wires the outbound half.
    pub(crate) fn connect(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
        p: Rank,
    ) -> Result<bool, MpiError> {
        if self.peers.get(p).is_some() {
            return Ok(false);
        }
        let ep = self.alloc_link(ctx, res, stats, p)?;
        let from = self.rank;
        self.post_conn(res, p, ConnMsg::Req { from, ep });
        Ok(true)
    }

    /// Whether our half of the pair with `p` exists but the handshake has
    /// not resolved yet.
    pub(crate) fn unwired(&self, p: Rank) -> bool {
        self.peers.get(p).is_some_and(|e| !e.link.connected)
    }

    /// Where the connect watchdog toward `p` is kept, while unwired.
    pub(crate) fn conn_watchdog(&mut self, p: Rank) -> Option<&mut Option<TimerHandle>> {
        if !self.unwired(p) {
            return None;
        }
        let held = &mut self.conn_watchdogs;
        let i = held.iter().position(|&(q, _)| q == p).unwrap_or_else(|| {
            held.push((p, None));
            held.len() - 1
        });
        Some(&mut held[i].1)
    }

    /// Re-issue the connect request for our already-allocated half (the
    /// directory deduplicates via the idempotent wire/ack paths).
    pub(crate) fn reissue_connect(&self, res: &Resources, p: Rank) {
        let (from, ep) = (self.rank, self.link(p).endpoint());
        self.post_conn(res, p, ConnMsg::Req { from, ep });
    }

    /// Wire the outbound half of the pair from the peer's endpoint; the
    /// handshake's watchdog, if one was armed, is done.
    fn wire(&mut self, p: Rank, ep: &PeerEndpoint, watchdogs: &mut TimerQueue<TimeoutKind>) {
        let link = self.link_mut(p);
        link.qp.connect(ep.node, ep.qpn);
        link.out_ring_addr = ep.ring_addr;
        link.out_ring_rkey = ep.ring_rkey;
        link.connected = true;
        if let Some(i) = self.conn_watchdogs.iter().position(|&(q, _)| q == p) {
            if let (_, Some(timer)) = self.conn_watchdogs.swap_remove(i) {
                watchdogs.cancel(timer);
            }
        }
        if let Some(pool) = self.srq.as_mut() {
            // Inbound Send completions carry the sender's (node, qpn);
            // map it to the rank so `poll` can route packets.
            pool.src_ranks.insert((ep.node, ep.qpn), p);
        }
    }

    /// Serve the lazy-connect mailbox: establish passively on `Req`,
    /// wire on `Req`/`Ack`. Queued packets for freshly wired peers drain
    /// in the same progress sweep (it flushes every established peer).
    pub(crate) fn pump_conn(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
        watchdogs: &mut TimerQueue<TimeoutKind>,
    ) {
        let mut msgs = std::mem::take(&mut self.conn_scratch);
        msgs.clear();
        self.conn.drain(self.rank, &mut msgs);
        for msg in msgs.drain(..) {
            match msg {
                ConnMsg::Req { from, ep } => {
                    let ours = if self.peers.get(from).is_none() {
                        // Passive establishment: allocate our half, wire
                        // toward the initiator, answer with our endpoint.
                        // Out of memory: stay silent — the initiator's
                        // watchdog re-asks, and gives up on us if memory
                        // never frees.
                        let Ok(ours) = self.alloc_link(ctx, res, stats, from) else {
                            continue;
                        };
                        self.wire(from, &ep, watchdogs);
                        ours
                    } else if self.unwired(from) {
                        // Cross-connect: both sides initiated at once.
                        // Each wires from the other's Req; an Ack would
                        // be redundant.
                        self.wire(from, &ep, watchdogs);
                        continue;
                    } else {
                        // A re-issued Req at an already-wired pair: our
                        // Ack was lost. Re-answer idempotently with the
                        // endpoint we allocated the first time.
                        self.link(from).endpoint()
                    };
                    let ack = ConnMsg::Ack {
                        from: self.rank,
                        ep: ours,
                    };
                    self.post_conn(res, from, ack);
                }
                ConnMsg::Ack { from, ep } => {
                    if self.unwired(from) {
                        self.wire(from, &ep, watchdogs);
                    }
                }
            }
        }
        self.conn_scratch = msgs;
    }

    // ---- room / flush ------------------------------------------------------

    /// Window for a packet kind: CREDITs may use the 2 reserve slots so
    /// flow control can always make progress.
    fn window(&self, kind: PacketKind) -> u64 {
        if kind == PacketKind::Credit {
            self.slots
        } else {
            self.slots - 2
        }
    }

    /// *room*: may a data packet of `kind` go to `dst` right now — the
    /// pair wired, nothing queued ahead of it, the window open and a
    /// staging slot free? (The last never decides: a slot write's
    /// completion is handled before the credit for its slot can arrive,
    /// so writes in flight never outnumber the window.)
    pub(crate) fn room(&self, dst: Rank, kind: PacketKind) -> bool {
        let link = self.link(dst);
        link.connected
            && link.pending_ctrl.is_empty()
            && link.out_slot_seq - link.out_consumed < self.window(kind)
            && !link.stage_free.is_empty()
    }

    /// Queue a control packet for `dst`; [`Self::next_ctrl`] drains it.
    pub(crate) fn queue_ctrl(&mut self, dst: Rank, hdr: PacketHeader) {
        self.link_mut(dst).pending_ctrl.push_back(hdr);
    }

    /// *flush*: take the next queued control packet the window admits —
    /// the queue front, or else the first queued CREDIT. The ring
    /// reserves two slots beyond the non-credit window so credits can
    /// always flow, but that reserve is useless if a queued credit sits
    /// behind a window-blocked RTS/DONE at the queue front: two rings
    /// that fill simultaneously would each wait for the other's ack and
    /// wedge. Bypassing is safe — a credit's consumed watermark is
    /// applied with `max` and its replay-prune watermarks only ever claim
    /// already-resolved handshakes, so neither interacts with the
    /// non-credit packets it overtakes.
    pub(crate) fn next_ctrl(&mut self, dst: Rank) -> Option<PacketHeader> {
        let (all, data) = (
            self.window(PacketKind::Credit),
            self.window(PacketKind::Eager),
        );
        let link = &mut self.peers.get_mut(dst)?.link;
        // Queue until the lazy-connect handshake wires us (and, as in
        // `room`, while no staging slot is free).
        if !link.connected || link.stage_free.is_empty() {
            return None;
        }
        let used = link.out_slot_seq - link.out_consumed;
        let front = link.pending_ctrl.front()?;
        if used < data || (used < all && front.kind == PacketKind::Credit) {
            return link.pending_ctrl.pop_front();
        }
        if used >= all {
            return None;
        }
        let i = link
            .pending_ctrl
            .iter()
            .position(|h| h.kind == PacketKind::Credit)?;
        link.pending_ctrl.remove(i)
    }

    /// Whether a control packet `pred` accepts is still queued for `dst`.
    pub(crate) fn ctrl_queued(&self, dst: Rank, pred: impl Fn(&PacketHeader) -> bool) -> bool {
        let link = self.peers.get(dst).map(|e| &e.link);
        link.is_some_and(|l| l.pending_ctrl.iter().any(pred))
    }

    /// Whether any pair still has control packets queued.
    pub(crate) fn ctrl_pending(&self) -> bool {
        self.peers.iter().any(|e| !e.link.pending_ctrl.is_empty())
    }

    // ---- put ---------------------------------------------------------------

    /// *put*: assemble `header ‖ payload ‖ tail` in a free staging slot
    /// and build the work request that carries it to `dst` (the caller
    /// has verified the window). `slot` names an already-claimed outbound
    /// slot to rewrite; `None` claims the next one. Returns the request,
    /// the slot sequence it occupies and the staging slot it holds — the
    /// caller's to give back with [`Self::release_stage`] once the write
    /// has ended for good.
    ///
    /// Rewriting is the transport-abort path: the slot's original write
    /// failed and delivered nothing, so the receiver is still waiting for
    /// this very slot sequence; the stream stays consumable only if
    /// *something* valid lands there. The slot cannot have been reused:
    /// the flow-control window never advances past an unconsumed slot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
        dst: Rank,
        hdr: PacketHeader,
        payload: Option<&Buffer>,
        slot: Option<u64>,
    ) -> (SendWr, u64, u32) {
        let payload_len = payload.map_or(0, |b| b.len);
        assert!(payload_len <= self.slot_payload, "payload exceeds slot");
        let link = self.link_mut(dst);
        let slot_seq = slot.unwrap_or_else(|| {
            link.out_slot_seq += 1;
            link.out_slot_seq - 1
        });
        // Invariant: `room` / `next_ctrl` saw a free staging slot, and a
        // rewrite's caller has just released the failed write's.
        let held = link.stage_free.pop().expect("a free staging slot");
        let (stage, lkey) = (link.stage.clone(), link.stage_lkey);
        let (ring_addr, ring_rkey) = (link.out_ring_addr, link.out_ring_rkey);
        let base = held as u64 * self.slot_size;
        let ring_off = (slot_seq % self.slots) * self.slot_size;
        let cluster = res.cluster();
        let rank = self.rank;

        // The whole slot under one acquisition of the byte plane. Nobody
        // reads the slot before the post below.
        let mut hdr_bytes = [0u8; HEADER_BYTES];
        hdr.encode_into(&mut hdr_bytes);
        let tail = tail_word(slot_seq).to_le_bytes();
        cluster.with_plane(|m| {
            m.write(&stage, base, &hdr_bytes);
            if let Some(p) = payload {
                m.copy(p, 0, &stage, base + HEADER_LEN, p.len);
            }
            m.write(&stage, base + HEADER_LEN + payload_len, &tail);
        });
        if payload.is_some() {
            // The eager protocol's "one copy", charged at the local
            // domain's memcpy bandwidth.
            let copy = cluster.copy_duration(res.mem().domain, payload_len);
            ctx.sleep(copy);
            self.rec
                .sample(Phase::EagerCopy, payload_len, Some(dst), copy.as_nanos());
            if hdr.kind == PacketKind::Eager {
                self.msg_life(ctx, rank, dst, hdr.seq, MsgStage::Copy, payload_len);
            }
        }

        self.rec.trace(|| TraceEvent::PacketTx {
            from: rank,
            to: dst,
            kind: hdr.kind,
            seq: hdr.seq,
            len: hdr.len,
        });
        if hdr.kind == PacketKind::Credit {
            stats.credit_grants += 1;
            self.rec.trace(|| TraceEvent::CreditGrant {
                from: rank,
                to: dst,
                consumed: hdr.len,
            });
        }
        // NACKs record a `Nack` lifecycle edge, everything else a
        // `Doorbell`.
        if let Some((src, mdst)) = self.msg_id(hdr.kind, dst, true) {
            let stage = match hdr.kind {
                PacketKind::NackSend | PacketKind::Nack | PacketKind::NackWrite => MsgStage::Nack,
                _ => MsgStage::Doorbell,
            };
            self.msg_life(ctx, src, mdst, hdr.seq, stage, hdr.len);
        }
        let sge = verbs::Sge {
            addr: stage.addr + base,
            len: HEADER_LEN + payload_len + TAIL_LEN,
            lkey,
        };
        // The one place the two receive modes differ on the way out: the
        // same bytes go as a two-sided Send into the peer's shared pool,
        // or as an RDMA WRITE into its ring slot. The slot sequence
        // travels in the tail either way.
        let wr = if self.srq.is_some() {
            SendWr::send(0, sge)
        } else {
            SendWr::rdma_write(0, sge, ring_addr + ring_off, ring_rkey)
        };
        (wr, slot_seq, held)
    }

    /// A slot write toward `dst` has ended for good — completed, failed
    /// permanently or reaped with its peer: its staging slot is the next
    /// one *put* uses. (A write waiting out a retry backoff keeps its
    /// slot: the re-post reads the same bytes.)
    pub(crate) fn release_stage(&mut self, dst: Rank, held: u32) {
        let link = self.link_mut(dst);
        debug_assert!(!link.stage_free.contains(&held), "staging slot freed twice");
        link.stage_free.push(held);
    }

    /// The staging region toward `p` and the stack of its free slots.
    #[cfg(test)]
    pub(crate) fn stage(&self, p: Rank) -> (&Buffer, &[u32]) {
        (&self.link(p).stage, &self.link(p).stage_free)
    }

    /// The buffer arrivals from `p` land in: its ring, or the shared pool.
    #[cfg(test)]
    pub(crate) fn inbound(&self, p: Rank) -> Option<&Buffer> {
        let link = &self.peers.get(p)?.link;
        let ring = link.in_ring.as_ref().map(MemoryRegion::buffer);
        ring.or(self.srq.as_ref().map(|pool| &pool.pool))
    }

    /// Whether every staging slot of every pair is free — true whenever no
    /// slot write is in flight.
    pub(crate) fn stages_idle(&self) -> bool {
        let idle = |e: &Peer| e.link.stage_free.len() as u64 == self.slots;
        self.peers.iter().all(idle)
    }

    /// Post a send-side work request on the QP toward `dst`. `coalesce`
    /// rides the previous post's doorbell (the HCA fetches batched WQEs
    /// on one ring).
    pub(crate) fn post(
        &mut self,
        ctx: &mut Ctx,
        stats: &mut CommStats,
        dst: Rank,
        wr: SendWr,
        coalesce: bool,
    ) -> Result<(), VerbsError> {
        let qp = &self.link(dst).qp;
        // Posting is a device-model excursion: the simulated HCA may
        // allocate (scheduling its completion event) without that
        // counting against the library's zero-alloc budget.
        let _dev = crate::hotpath::pause();
        if coalesce {
            stats.doorbells_coalesced += 1;
            qp.post_send_coalesced(ctx, wr)
        } else {
            qp.post_send(ctx, wr)
        }
    }

    // ---- poll --------------------------------------------------------------

    /// Parse an inbound slot: its header and the sequence in its tail word;
    /// `None` if it is empty, stale or corrupt, or its sequence is not `want`.
    fn parse_slot(
        &self,
        res: &Resources,
        buf: &Buffer,
        at: u64,
        want: Option<u64>,
    ) -> Option<(PacketHeader, u64)> {
        #[cfg(test)]
        self.slot_parses.set(self.slot_parses.get() + 1);
        // Header and tail under one acquisition of the byte plane, which
        // also ends the slot of a packet that carries nothing more.
        res.cluster().with_plane(|m| {
            let mut hdr_bytes = [0u8; HEADER_BYTES];
            m.read(buf, at, &mut hdr_bytes);
            let hdr = PacketHeader::decode(&hdr_bytes)?;
            let payload_len = payload_len(&hdr);
            if HEADER_LEN + payload_len + TAIL_LEN > self.slot_size {
                return None;
            }
            let mut tail = [0u8; 8];
            m.read(buf, at + HEADER_LEN + payload_len, &mut tail);
            let seq = tail_seq(u64::from_le_bytes(tail))?;
            if want.is_some_and(|w| w != seq) {
                return None;
            }
            if payload_len == 0 {
                m.discard(&buf.slice(at, self.slot_size));
            }
            Some((hdr, seq))
        })
    }

    /// Account one in-order arrival from `p` — the single place inbound
    /// sequence, credit and CPU cost are charged. The slot counts as
    /// consumed before the engine handles it, so handlers can send. Each
    /// landed write fills one slot sequence, so when the ring counts no
    /// more writes than were consumed, the slot behind is empty.
    fn consume(&mut self, ctx: &mut Ctx, stats: &mut CommStats, p: Rank, kind: PacketKind) {
        let link = self.link_mut(p);
        link.in_next_seq += 1;
        let writes = link.in_ring.as_ref().map(MemoryRegion::writes);
        link.in_idle_at = writes.filter(|&n| n == link.in_next_seq);
        link.in_unreported += 1;
        link.in_noncredit_pending |= kind != PacketKind::Credit;
        ctx.sleep(self.cpu_op);
        stats.packets_processed += 1;
    }

    /// *poll*: the next step of the inbound sweep, `None` when the sweep
    /// is over (the next call starts a new one). Pool completions come
    /// first, in completion order with each peer's overtakers held back
    /// until its sequence catches up; then every established pair in rank
    /// order — its ring arrivals, then [`Inbound::Drained`].
    pub(crate) fn poll(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
    ) -> Option<Inbound> {
        self.settle(res);
        if self.sweep.is_none() {
            self.sweep = Some(match self.srq.as_mut() {
                Some(pool) => {
                    // Completions parked because their source QP wasn't
                    // mapped yet: `pump_conn` ran just before us, so the
                    // Ack that maps them may have landed.
                    pool.wcs.clear();
                    pool.wcs.append(&mut pool.parked);
                    (pool.next, pool.fresh) = (0, false);
                    Sweep::Pool
                }
                None => Sweep::Pairs(0, self.peers.len()),
            });
        }
        if let Some(Sweep::Pool) = self.sweep {
            if let Some(packet) = self.poll_pool(ctx, res, stats) {
                return Some(packet);
            }
            self.sweep = Some(Sweep::Pairs(0, self.peers.len()));
        }
        let Some(Sweep::Pairs(next, end)) = self.sweep else {
            return None;
        };
        if next >= end {
            self.sweep = None;
            return None;
        }
        let (p, Peer { link, .. }) = self.peers.at(next);
        // An idle ring is not parsed again until something is written into
        // it: the arena acquisition, two reads and header decode are paid
        // once per write, not once per sweep.
        let ring = link.in_ring.as_ref().map(|mr| (mr.buffer(), mr.writes()));
        if let Some((ring, writes)) = ring.filter(|&(_, n)| link.in_idle_at != Some(n)) {
            let at = (link.in_next_seq % self.slots) * self.slot_size;
            let arrived = self.parse_slot(res, ring, at, Some(link.in_next_seq));
            if let Some((hdr, _)) = arrived {
                let payload = Payload::Slot(ring.clone(), at);
                self.unread = (payload_len(&hdr) > 0).then(|| ring.slice(at, self.slot_size));
                self.consume(ctx, stats, p, hdr.kind);
                return Some(Inbound::Packet(p, hdr, payload));
            }
            self.link_mut(p).in_idle_at = Some(writes);
        }
        self.sweep = Some(Sweep::Pairs(next + 1, end));
        Some(Inbound::Drained(p))
    }

    /// Whether a pool completion, or a ring write past what was consumed, waits unseen by *poll*.
    pub(crate) fn unseen_arrival(&self) -> bool {
        let unseen = |l: &Link, n: u64| n > l.in_next_seq && l.in_idle_at != Some(n);
        let ring = |l: &Link| l.in_ring.as_ref().map_or(0, MemoryRegion::writes);
        let pool = self.srq.as_ref().map_or(0, |pool| pool.recv_cq.len());
        pool > 0 || self.peers.iter().any(|e| unseen(&e.link, ring(&e.link)))
    }

    /// The pool half of [`Self::poll`]: finish the arrival handed out
    /// last (recycle its slot, drain the stash behind it), then route
    /// completions until one is the next in-order packet of its peer.
    fn poll_pool(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        stats: &mut CommStats,
    ) -> Option<Inbound> {
        loop {
            let pool = self.srq.as_mut()?;
            if let Some(slot) = pool.held.take() {
                pool.repost(ctx, slot);
            }
            if let Some(p) = pool.draining {
                let link = &mut self.peers.get_mut(p)?.link;
                let next = link.in_next_seq;
                match link.stash.iter().position(|&(s, _, _)| s == next) {
                    Some(i) => {
                        let (_, hdr, data) = link.stash.swap_remove(i);
                        self.consume(ctx, stats, p, hdr.kind);
                        return Some(Inbound::Packet(p, hdr, Payload::Stashed(data)));
                    }
                    None => pool.draining = None,
                }
            }
            if pool.next == pool.wcs.len() {
                pool.wcs.clear();
                (pool.next, pool.fresh) = (0, true);
                if pool.recv_cq.poll_batch(&mut pool.wcs, CQ_BATCH) == 0 {
                    return None;
                }
            }
            let wc = pool.wcs[pool.next].clone();
            pool.next += 1;
            if pool.fresh {
                // Each fresh completion is one consumed pool slot; it
                // stays counted until `repost` returns it.
                pool.outstanding += 1;
                stats.srq_highwater = stats.srq_highwater.max(pool.outstanding as u64);
            }
            if let Some((p, hdr, slot)) = self.route_pool_wc(ctx, res, wc) {
                self.consume(ctx, stats, p, hdr.kind);
                let pool = self.srq.as_mut()?;
                (pool.held, pool.draining) = (Some(slot), Some(p));
                let payload = Payload::Slot(pool.pool.clone(), pool.at(slot));
                return Some(Inbound::Packet(p, hdr, payload));
            }
        }
    }

    /// Route one inbound-Send completion: map the source QP to a rank and
    /// parse the packet out of the pool slot. The next in-order packet of
    /// its peer is returned (its slot still held); an overtaker is copied
    /// into the peer's stash; anything else just recycles the slot.
    fn route_pool_wc(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        wc: Wc,
    ) -> Option<(Rank, PacketHeader, usize)> {
        let slot = wc.wr_id as usize;
        let pool = self.srq.as_mut()?;
        let peer = match wc.src.map(|src| pool.src_ranks.get(&src).copied()) {
            Some(None) => {
                // Data raced the connect Ack that maps this QP — park the
                // completion; the slot stays consumed until then.
                pool.parked.push(wc);
                return None;
            }
            mapped => mapped.flatten(),
        };
        // A scatter failure (defensive: the sender's retry machinery owns
        // recovery), an undecodable slot, or a slot sequence below the
        // consumed watermark (cannot happen today — a failed Send moves
        // no data, so a slot sequence is only ever delivered once) all
        // just recycle the slot.
        let (buf, at) = (pool.pool.clone(), pool.at(slot));
        let arrival = peer.filter(|_| wc.status == WcStatus::Success);
        let arrival = arrival.and_then(|p| {
            let (hdr, slot_seq) = self.parse_slot(res, &buf, at, None)?;
            Some((p, hdr, slot_seq, self.link(p).in_next_seq))
        });
        let ended = arrival.is_some_and(|(_, hdr, ..)| payload_len(&hdr) == 0);
        self.unread = (!ended).then(|| buf.slice(at, self.slot_size));
        match arrival {
            Some((p, hdr, slot_seq, next)) if slot_seq == next => return Some((p, hdr, slot)),
            Some((p, hdr, slot_seq, next)) if slot_seq > next => {
                // An overtaker: a retried packet's successors arrived
                // first. Copy it off the pool so the slot recycles.
                let _dev = crate::hotpath::pause();
                let data = self.detach(res, Payload::Slot(buf, at), payload_len(&hdr));
                self.link_mut(p).stash.push((slot_seq, hdr, data));
                if let Some((src, dst)) = self.msg_id(hdr.kind, p, false) {
                    self.msg_life(ctx, src, dst, hdr.seq, MsgStage::SrqStash, hdr.len);
                }
            }
            _ => {}
        }
        self.settle(res);
        self.srq.as_mut()?.repost(ctx, slot);
        None
    }

    // ---- payloads ----------------------------------------------------------

    /// Move an arrival's `len` payload bytes into `dst` (content plane
    /// only — the caller charges the copy).
    pub(crate) fn deliver(&mut self, res: &Resources, payload: Payload, dst: &Buffer, len: u64) {
        match payload {
            Payload::Slot(buf, at) => self.read_slot(res, &buf, at, |m| {
                m.copy(&buf, at + HEADER_LEN, dst, 0, len)
            }),
            Payload::Stashed(data) => {
                res.cluster().write(dst, 0, &data);
                self.recycle(data);
            }
        }
    }

    /// Take an arrival's `len` payload bytes off its slot as an owned
    /// buffer, so the slot can be reused. Give it back with
    /// [`Self::recycle`].
    pub(crate) fn detach(&mut self, res: &Resources, payload: Payload, len: u64) -> Vec<u8> {
        match payload {
            Payload::Stashed(data) => data,
            Payload::Slot(buf, at) => {
                let mut data = self.payload_pool.pop().unwrap_or_default();
                debug_assert!(data.is_empty(), "pooled buffer returned dirty");
                data.resize(len as usize, 0);
                if len > 0 {
                    self.read_slot(res, &buf, at, |m| m.read(&buf, at + HEADER_LEN, &mut data));
                }
                data
            }
        }
    }

    /// Read the payload of the slot at `at` of `buf` with `f`, in one plane
    /// acquisition with the discard of the slot if it is the one in hand
    /// and holds bytes ([`Self::unread`]): nothing reads them after.
    fn read_slot(&mut self, res: &Resources, buf: &Buffer, at: u64, f: impl FnOnce(&mut Plane)) {
        let slot = buf.slice(at, self.slot_size);
        let last = self.unread.take_if(|s| *s == slot);
        res.cluster().with_plane(|m| {
            f(m);
            if let Some(slot) = &last {
                m.discard(slot);
            }
        });
    }

    /// End the bytes of the slot in hand that nothing read ([`Self::unread`]).
    fn settle(&mut self, res: &Resources) {
        if let Some(slot) = self.unread.take() {
            let _dev = crate::hotpath::pause();
            res.cluster().discard(&slot);
        }
    }

    /// Return a copy-out buffer to the pool: cleared, so stale bytes from
    /// this message can never leak into a shorter later one, and dropped
    /// outright when its capacity outgrew a slot payload (one jumbo
    /// packet must not pin its high-water allocation in the pool
    /// forever).
    pub(crate) fn recycle(&mut self, mut data: Vec<u8>) {
        data.clear();
        if self.payload_pool.len() < PAYLOAD_POOL_CAP
            && data.capacity() <= self.slot_payload as usize
        {
            self.payload_pool.push(data);
        }
    }

    // ---- credit ------------------------------------------------------------

    /// Cumulative inbound slots consumed from `p` — what a CREDIT reports.
    pub(crate) fn consumed(&self, p: Rank) -> u64 {
        self.link(p).in_next_seq
    }

    /// *credit*: is a credit report to `p` due? If so the unreported
    /// count restarts — the caller sends the CREDIT.
    ///
    /// Two thresholds: consumption involving real packets reports at
    /// slots/4; *pure credit* consumption reports only at slots/2. The
    /// 2:1 ratio makes credit-only exchanges decay geometrically (no
    /// ping-pong livelock) while still recycling the slots that CREDIT
    /// packets themselves occupy (no ack-stream starvation).
    pub(crate) fn credit_due(&mut self, p: Rank) -> bool {
        let slots = self.slots;
        let Some(Peer { link, .. }) = self.peers.get_mut(p) else {
            return false;
        };
        let threshold = if link.in_noncredit_pending {
            (slots / 4).max(1)
        } else {
            (slots / 2).max(2)
        };
        let due = link.in_unreported >= threshold;
        if due {
            link.in_unreported = 0;
            link.in_noncredit_pending = false;
        }
        due
    }

    /// Apply a CREDIT from `p`: it has consumed `consumed` of our slots.
    pub(crate) fn credited(&mut self, p: Rank, consumed: u64) {
        let link = self.link_mut(p);
        link.out_consumed = link.out_consumed.max(consumed);
    }

    // ---- teardown of one pair ----------------------------------------------

    /// Drop everything queued toward or stashed from dead peer `d`;
    /// returns how many objects that reclaimed.
    pub(crate) fn reap(&mut self, d: Rank) -> u64 {
        let Some(Peer { link, .. }) = self.peers.get_mut(d) else {
            return 0;
        };
        let stash = std::mem::take(&mut link.stash);
        link.in_idle_at = None;
        let reclaimed = (link.pending_ctrl.len() + stash.len()) as u64;
        link.pending_ctrl.clear();
        for (_, _, data) in stash {
            self.recycle(data);
        }
        reclaimed
    }

    // ---- message lifecycle -------------------------------------------------

    /// The message a wire packet's lifecycle events record under. A
    /// message is identified by (sender rank, receiver rank, pair
    /// sequence id); packets that flow sender→receiver (EAGER, RTS,
    /// NACK-SEND, DONE-WRITE, NACK-WRITE) and packets that flow
    /// receiver→sender (RTR, DONE, NACK) map onto it from opposite
    /// ends. CREDITs belong to no message.
    pub(crate) fn msg_id(
        &self,
        kind: PacketKind,
        peer: Rank,
        outbound: bool,
    ) -> Option<(Rank, Rank)> {
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
    /// detached trace pays nothing and the allocation-free hot path is
    /// unchanged.
    #[inline]
    pub(crate) fn msg_life(
        &self,
        ctx: &Ctx,
        src: Rank,
        dst: Rank,
        seq: u64,
        stage: MsgStage,
        len: u64,
    ) {
        let at = self.rank;
        self.rec.trace(move || TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t: ctx.now().as_nanos(),
            len,
        });
    }
}

/// Payload bytes a packet carries in its slot (only EAGER does).
fn payload_len(hdr: &PacketHeader) -> u64 {
    match hdr.kind {
        PacketKind::Eager => hdr.len,
        _ => 0,
    }
}
