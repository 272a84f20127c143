//! The point-to-point protocol of §IV-B3 as one table.
//!
//! * **Eager** for small messages: one copy into a pre-registered staging
//!   slot, then `header ‖ payload ‖ tail` travels to the peer's inbound
//!   slot; the receiver finds it there in order.
//! * **Sender-first rendezvous**: RTS (buffer address + rkey) → receiver
//!   RDMA READ → DONE.
//! * **Receiver-first rendezvous**: a large receive advertises its buffer
//!   in an RTR; the sender RDMA WRITEs into it → DONE-WRITE.
//! * **Simultaneous**: the sender disregards the RTR and waits for the
//!   receiver's RDMA READ; the receiver follows the sender-first protocol.
//! * **Sequence ids** pair each send with its receive per process pair;
//!   `MPI_ANY_SOURCE` receives lock sequence assignment for later receives
//!   until matched. A stale RTR is dropped by its sequence id; a message
//!   too large for its receive raises an MPI error.
//!
//! Each transition is one row of [`ROWS`]: the request's state, the event,
//! the named action, the state it leaves the request in, and what happens
//! to its handshake watchdog. The event's request is looked up first — a
//! data-stream arrival (EAGER / RTS / NACK-SEND) by the matcher, a control
//! packet or a failed handshake write by [`Engine::find`], anything else
//! by the handle it carries. An event that finds no request is in state
//! `None`; a (state, event) pair without a row is dropped.

use simcore::Ctx;
use verbs::{MrKey, SendWr};

use crate::channel::Payload;
use crate::engine::{Engine, ReqState};
use crate::matching::{PostedRecv, Unexpected};
use crate::metrics::Phase;
use crate::packet::{PacketHeader, PacketKind, PacketKind as K};
use crate::recovery::{TimeoutKind, WrKind};
use crate::trace::{MsgStage, TraceEvent};
use crate::types::{MpiError, Rank, Status};

/// A request's protocol state: its [`ReqState`] variant (a transfer's
/// direction picks one of two), or `None` when the event found no request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum State {
    None,
    EagerSend,
    RndvSendAwaitDone,
    RndvSendWriting,
    RecvQueued,
    RndvRecvReading,
    RecvAwaitDone,
    Ended,
}

/// A tracked work request: a slot write carrying a packet of some kind,
/// or a rendezvous RDMA READ or WRITE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wr {
    Slot(PacketKind),
    Read,
    Write,
}

/// What befalls a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Event {
    /// A packet of this kind arrived, in order.
    Packet(PacketKind),
    /// A work request completed.
    Sent(Wr),
    /// A work request failed for good.
    Failed(Wr),
    /// The handshake watchdog fired.
    Watchdog,
    /// The MPI call issues the request's handshake (an RTS or an RTR).
    Issue,
    /// A posted receive is taken back before it ends.
    Withdraw,
}

/// What a row does to the request's handshake watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Watch {
    Keep,
    /// Arm it, after the action.
    Arm,
    /// Cancel it, before the action.
    Cancel,
}

/// One transition.
pub(crate) struct Row {
    pub(crate) state: State,
    pub(crate) event: Event,
    pub(crate) action: &'static str,
    run: fn(&mut Engine, &mut Ctx, &mut Hit),
    pub(crate) next: State,
    pub(crate) watch: Watch,
}

macro_rules! rows {
    ($(($state:ident, $event:expr, $action:ident, $next:ident, $watch:ident),)*) => {
        &[$(Row {
            state: State::$state,
            event: $event,
            action: stringify!($action),
            run: Engine::$action,
            next: State::$next,
            watch: Watch::$watch,
        },)*]
    };
}

/// The protocol. DESIGN.md §19 quotes it as `seam_tests` renders it.
#[rustfmt::skip]
pub(crate) const ROWS: &[Row] = {
    use Event::*;
    use PacketKind::*;
    use Wr::*;
    rows![
        (None, Packet(Credit), apply_credit, None, Keep),
        (None, Packet(Eager), unmatched, None, Keep),
        (None, Packet(Rts), unmatched, None, Keep),
        (None, Packet(NackSend), unmatched, None, Keep),
        (RecvQueued, Packet(Eager), pair_eager, Ended, Keep),
        (RecvAwaitDone, Packet(Eager), pair_eager, Ended, Cancel),
        (RecvQueued, Packet(Rts), pair_rts, RndvRecvReading, Keep),
        (RecvAwaitDone, Packet(Rts), pair_rts, RndvRecvReading, Cancel),
        (RecvQueued, Packet(NackSend), pair_nack, Ended, Keep),
        (RecvAwaitDone, Packet(NackSend), pair_nack, Ended, Cancel),
        (None, Packet(Rtr), stash_rtr, None, Keep),
        (RndvSendAwaitDone, Packet(Done), end_send, Ended, Cancel),
        (RndvSendAwaitDone, Packet(Nack), end_send, Ended, Cancel),
        (RecvAwaitDone, Packet(DoneWrite), end_written_recv, Ended, Cancel),
        (RecvAwaitDone, Packet(NackWrite), end_written_recv, Ended, Cancel),
        (EagerSend, Sent(Slot(Eager)), end_send, Ended, Keep),
        (RndvRecvReading, Sent(Read), transfer_done, Ended, Keep),
        (RndvSendWriting, Sent(Write), transfer_done, Ended, Keep),
        (EagerSend, Failed(Slot(Eager)), fail_owner, Ended, Keep),
        (RndvSendAwaitDone, Failed(Slot(Rts)), fail_owner, Ended, Cancel),
        (RecvAwaitDone, Failed(Slot(Rtr)), fail_advertised, Ended, Cancel),
        (RndvRecvReading, Failed(Read), transfer_failed, Ended, Keep),
        (RndvSendWriting, Failed(Write), transfer_failed, Ended, Keep),
        (RndvSendAwaitDone, Issue, send_rts, RndvSendAwaitDone, Arm),
        (RecvQueued, Issue, advertise_rtr, RecvAwaitDone, Arm),
        (RndvSendAwaitDone, Watchdog, reissue, RndvSendAwaitDone, Arm),
        (RecvAwaitDone, Watchdog, reissue, RecvAwaitDone, Arm),
        (RecvQueued, Withdraw, take_back, None, Keep),
        (RecvAwaitDone, Withdraw, take_back, None, Cancel),
        (Ended, Withdraw, take_back, None, Keep),
    ]
};

/// The header of an event that carries no packet.
pub(crate) const NO_PACKET: PacketHeader = PacketHeader::control(PacketKind::Credit, 0, 0, 0, 0);

/// What an event refers to, as its lookup found it.
pub(crate) struct Hit {
    /// The rank on the other end.
    pub(crate) peer: Rank,
    /// The packet that arrived or is issued, or the failed slot write's.
    pub(crate) hdr: PacketHeader,
    pub(crate) req: Option<u64>,
    /// The receive a data arrival pairs with, or an RTR advertises.
    pub(crate) recv: Option<PostedRecv>,
    /// A data arrival's bytes.
    pub(crate) payload: Option<Payload>,
    /// A failed work request's error, and whether recovery may follow.
    pub(crate) fault: Option<(MpiError, bool)>,
}

impl Hit {
    pub(crate) fn new(peer: Rank, hdr: PacketHeader, req: Option<u64>) -> Hit {
        let (recv, payload, fault) = (None, None, None);
        Hit {
            peer,
            hdr,
            req,
            recv,
            payload,
            fault,
        }
    }
}

impl ReqState {
    pub(crate) fn tag(&self) -> State {
        match self {
            ReqState::EagerSend { .. } => State::EagerSend,
            ReqState::RndvSendAwaitDone { .. } => State::RndvSendAwaitDone,
            ReqState::Rdma { read: false, .. } => State::RndvSendWriting,
            ReqState::RecvQueued => State::RecvQueued,
            ReqState::Rdma { read: true, .. } => State::RndvRecvReading,
            ReqState::RecvAwaitDone { .. } => State::RecvAwaitDone,
            ReqState::Ended(_) => State::Ended,
        }
    }

    /// The (peer, pair sequence, is-a-send) a control packet names this
    /// request by, while it has a rendezvous handshake or transfer open.
    fn key(&self) -> Option<(Rank, u64, bool)> {
        match self {
            ReqState::RndvSendAwaitDone { dst, hdr, .. } => Some((*dst, hdr.seq, true)),
            ReqState::Rdma {
                read, peer, seq, ..
            } => Some((*peer, *seq, !*read)),
            ReqState::RecvAwaitDone { src, hdr, .. } => Some((*src, hdr.seq, false)),
            _ => None,
        }
    }
}

impl Engine {
    /// The one dispatcher: run the row of `ev` on the request `hit` found.
    /// Returns the receive `hit` carried if the row left it with us.
    pub(crate) fn dispatch(&mut self, ctx: &mut Ctx, ev: Event, hit: Hit) -> Option<PostedRecv> {
        let (req, mut hit) = (hit.req, hit);
        let state = self.tag(req);
        if let Some(row) = ROWS.iter().find(|r| r.state == state && r.event == ev) {
            if let (Watch::Cancel, Some(req)) = (row.watch, req) {
                self.disarm(req);
            }
            (row.run)(self, ctx, &mut hit);
            // A post the QP refuses fails its request inside the action.
            let now = self.tag(req);
            debug_assert!(
                now == row.next || now == State::Ended,
                "{} left {now:?}",
                row.action
            );
            if let (Watch::Arm, Some(req), true) = (row.watch, req, now == row.next) {
                self.arm_watchdog(ctx, TimeoutKind::Handshake { req });
            }
        }
        hit.recv
    }

    fn tag(&self, req: Option<u64>) -> State {
        let state = req.and_then(|r| self.state(r));
        state.map_or(State::None, ReqState::tag)
    }

    // ---- lookups -------------------------------------------------------------

    /// One in-order arrival from `p`: find the request it refers to and
    /// run its row.
    pub(crate) fn arrive(&mut self, ctx: &mut Ctx, p: Rank, hdr: PacketHeader, payload: Payload) {
        let (rank, seq) = (self.rank, hdr.seq);
        self.rec.trace(|| TraceEvent::PacketRx {
            at: rank,
            from: p,
            kind: hdr.kind,
            seq,
            len: hdr.len,
        });
        if let Some((msrc, mdst)) = self.ch.msg_id(hdr.kind, p, false) {
            self.life(ctx, msrc, mdst, seq, MsgStage::Wire, hdr.len);
        }
        let mut hit = Hit::new(p, hdr, None);
        hit.payload = Some(payload);
        let mut was_any = false;
        match hdr.kind {
            // The data stream goes to the matcher, unless it is a
            // duplicate or its receive already failed.
            PacketKind::Eager | PacketKind::Rts | PacketKind::NackSend => {
                let fresh = !self.is_dup_data(p, seq) && !self.mq.dead_rx.contains(&(p, seq));
                let idx = fresh.then(|| self.match_posted(p, hdr.tag, seq)).flatten();
                if let Some(recv) = idx.map(|i| self.mq.recv_q.remove(i)) {
                    self.note_data_seq(p, seq);
                    was_any = recv.seq.is_none();
                    (hit.req, hit.recv) = (Some(recv.req), Some(recv));
                }
            }
            PacketKind::Credit => {}
            // RTR, DONE and NACK answer our sends; DONE-WRITE and
            // NACK-WRITE our receives.
            kind => {
                let ours = matches!(kind, PacketKind::Rtr | PacketKind::Done | PacketKind::Nack);
                hit.req = self.find(p, seq, ours);
            }
        }
        self.dispatch(ctx, Event::Packet(hdr.kind), hit);
        self.after_match(ctx, was_any, p, seq);
    }

    /// Pair receive `recv`, just posted or just given its sequence id,
    /// with unexpected message `u`; the pairing consumes `u`'s sequence id.
    pub(crate) fn pair_unexpected(&mut self, ctx: &mut Ctx, recv: PostedRecv, u: Unexpected) {
        self.note_rx_seq(u.hdr.src_rank, u.hdr.seq);
        let mut hit = Hit::new(u.hdr.src_rank, u.hdr, Some(recv.req));
        (hit.recv, hit.payload) = (Some(recv), Some(Payload::Stashed(u.data)));
        self.dispatch(ctx, Event::Packet(u.hdr.kind), hit);
    }

    /// The live request toward `peer` that pair sequence `seq` names — a
    /// send if `send`, else a receive — while it has a rendezvous
    /// handshake or transfer open. Control packets carry no request id,
    /// so RTR, DONE, NACK, DONE-WRITE, NACK-WRITE and a failed RTS or RTR
    /// write all find their request this way.
    pub(crate) fn find(&self, peer: Rank, seq: u64, send: bool) -> Option<u64> {
        let key = Some((peer, seq, send));
        self.reqs
            .iter()
            .find_map(|(id, r)| (r.state.key() == key).then_some(id))
    }

    // ---- actions -------------------------------------------------------------

    fn apply_credit(&mut self, _: &mut Ctx, hit: &mut Hit) {
        let (rank, p, hdr) = (self.rank, hit.peer, hit.hdr);
        self.rec.trace(|| TraceEvent::CreditApply {
            at: rank,
            from: p,
            consumed: hdr.len,
        });
        self.ch.credited(p, hdr.len);
        // Prune replayed-handshake answers the peer has resolved: `seq` /
        // `addr` carry its watermarks (`credit_header`), and slot FIFO
        // means any still-replayable duplicate RTS/RTR came before this.
        let pair = self.pair(p);
        let before = pair.served_done.len() + pair.served_dw.len();
        pair.served_done.retain(|&s, _| s >= hdr.seq);
        pair.served_dw.retain(|&s, _| s >= hdr.addr);
        let after = pair.served_done.len() + pair.served_dw.len();
        self.stats.replay_pruned += (before - after) as u64;
    }

    /// A data-stream packet no posted receive claims: a re-issued
    /// handshake, one whose receive already failed, or an unexpected
    /// message.
    fn unmatched(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (p, hdr, me) = (hit.peer, hit.hdr, self.rank);
        let (kind, seq) = (hdr.kind, hdr.seq);
        if self.is_dup_data(p, seq) {
            // If we already answered the RTS, replay the answer — the
            // original may be what got lost; else the first copy is
            // still being served.
            let answered = self.pair(p).served_done.get(&seq).copied();
            if let (PacketKind::Rts, Some(ans)) = (kind, answered) {
                self.replay(ctx, p, ans);
            }
            return;
        }
        self.note_data_seq(p, seq);
        if self.mq.dead_rx.remove(&(p, seq)) {
            // Its receive died with its RTR: an RTS is answered negatively
            // so the sender resolves too; anything else is dropped.
            if kind == PacketKind::Rts {
                let nack = PacketHeader::control(PacketKind::Nack, me, hdr.tag, seq, 0);
                self.answer(ctx, p, nack);
            }
            return;
        }
        // An EAGER's payload is copied out so the slot can be reused.
        let data = match hit.payload.take() {
            Some(payload) if kind == PacketKind::Eager => {
                let data = self.ch.detach(&self.res, payload, hdr.len);
                ctx.sleep(self.copy_time(hdr.len));
                data
            }
            _ => Vec::new(),
        };
        self.mq.unexpected.push(Unexpected { hdr, data });
        if kind != PacketKind::NackSend {
            self.life(ctx, p, me, seq, MsgStage::UnexpStash, hdr.len);
        }
    }

    /// EAGER meets its receive: copy the payload into the user buffer.
    fn pair_eager(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (Some(mut recv), Some(payload)) = (hit.recv.take(), hit.payload.take()) else {
            return;
        };
        let (source, hdr, me) = (hit.peer, hit.hdr, self.rank);
        let (tag, seq, len) = (hdr.tag, hdr.seq, hdr.len);
        // A mis-prediction into an RTR-coupled receive drops its pin here.
        self.unpin(ctx, &mut recv);
        self.life(ctx, source, me, seq, MsgStage::Match, len);
        if len > recv.buf.len {
            let capacity = recv.buf.len;
            let err = MpiError::Truncated { got: len, capacity };
            return self.resolve(ctx, recv.req, Err(err));
        }
        self.ch.deliver(&self.res, payload, &recv.buf, len);
        ctx.sleep(self.copy_time(len));
        self.life(ctx, source, me, seq, MsgStage::Copy, len);
        self.stats.bytes_received += len;
        self.resolve(ctx, recv.req, Ok(Status { source, tag, len }));
        self.life(ctx, source, me, seq, MsgStage::Complete, len);
    }

    /// RTS meets its receive (sender-first, or simultaneous when the
    /// receive sent an RTR): RDMA READ from the advertised buffer.
    fn pair_rts(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let Some(mut recv) = hit.recv.take() else {
            return;
        };
        let (source, hdr, me, capacity) = (hit.peer, hit.hdr, self.rank, recv.buf.len);
        let (peer, tag, seq, got) = (source, hdr.tag, hdr.seq, hdr.len);
        self.life(ctx, peer, me, seq, MsgStage::Match, hdr.len);
        let len = got.min(capacity);
        let truncated = (got > capacity).then_some(MpiError::Truncated { got, capacity });
        // Simultaneous rendezvous reads into the buffer its RTR pinned.
        let lease = match recv.rtr_lease.take() {
            Some(l) => l,
            None => self.pin_mr(ctx, &recv.buf),
        };
        self.life(ctx, peer, me, seq, MsgStage::MrAcquire, len);
        let (addr, lkey, req) = (recv.buf.addr, lease.mr.key(), recv.req);
        let status = Status { source, tag, len };
        let reading = ReqState::Rdma {
            read: true,
            peer,
            seq,
            status,
            truncated,
            lease,
        };
        self.set_state(req, reading);
        self.open_span(ctx, Phase::RndvRead, req, len, peer);
        let sge = verbs::Sge { addr, len, lkey };
        let wr = SendWr::rdma_read(0, sge, hdr.addr, MrKey(hdr.rkey));
        self.post_tracked(ctx, peer, wr, WrKind::RndvRead { req });
        self.life(ctx, peer, me, seq, MsgStage::RdmaStart, len);
    }

    /// NACK-SEND meets its receive: the sender's EAGER or RTS for this
    /// sequence died, so the receive fails instead of waiting forever.
    fn pair_nack(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let Some(mut recv) = hit.recv.take() else {
            return;
        };
        let (peer, seq) = (hit.peer, hit.hdr.seq);
        self.unpin(ctx, &mut recv);
        let lost = MpiError::RemoteTransport { peer, seq };
        self.resolve(ctx, recv.req, Err(lost));
    }

    /// An RTR no rendezvous send of ours is waiting on.
    fn stash_rtr(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (p, hdr, rank) = (hit.peer, hit.hdr, self.rank);
        let seq = hdr.seq;
        // A re-issued RTR for a write we already answered: replay it.
        if let Some(ans) = self.pair(p).served_dw.get(&seq).copied() {
            return self.replay(ctx, p, ans);
        }
        let pair = self.pair(p);
        if seq >= pair.tx_seq {
            // Send not posted yet: receiver-first, stash it for `isend`
            // (a re-issued RTR must not stash twice).
            if !pair.stashed_rtrs.iter().any(|r| r.seq == seq) {
                pair.stashed_rtrs.push(hdr);
            }
        } else {
            // A completed or eager-satisfied send: "the sender drops the
            // RTR packet ... thanks to the sequence id".
            self.stats.stale_rtrs_dropped += 1;
            self.rec
                .trace(|| TraceEvent::StaleRtrDrop { rank, from: p, seq });
        }
    }

    /// A send is over: its eager slot write completed, or the receiver
    /// finished its RDMA READ (DONE) — or could not (NACK).
    fn end_send(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (peer, PacketHeader { kind, seq, len, .. }) = (hit.peer, hit.hdr);
        let (Some(req), me) = (hit.req, self.rank) else {
            return;
        };
        let status = match self.state(req) {
            Some(ReqState::EagerSend { status } | ReqState::RndvSendAwaitDone { status, .. }) => {
                *status
            }
            _ => return,
        };
        if kind == PacketKind::Nack {
            return self.resolve(ctx, req, Err(MpiError::RemoteTransport { peer, seq }));
        }
        self.resolve(ctx, req, Ok(status));
        self.life(ctx, me, peer, seq, MsgStage::Complete, len);
    }

    /// DONE-WRITE or NACK-WRITE: the sender finished its RDMA WRITE into
    /// the buffer our RTR advertised — or could not.
    fn end_written_recv(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let Some(req) = hit.req else { return };
        let Some(posted) = self.take_posted_req(ctx, req) else {
            return;
        };
        let (source, hdr, capacity) = (hit.peer, hit.hdr, posted.buf.len);
        let (tag, seq, len) = (hdr.tag, hdr.seq, hdr.len);
        if hdr.kind == PacketKind::NackWrite {
            let lost = MpiError::RemoteTransport { peer: source, seq };
            return self.resolve(ctx, req, Err(lost));
        }
        if len > capacity {
            // The sender had more data than our buffer: an MPI error.
            let err = MpiError::Truncated { got: len, capacity };
            return self.resolve(ctx, req, Err(err));
        }
        self.stats.bytes_received += len;
        self.resolve(ctx, req, Ok(Status { source, tag, len }));
        self.life(ctx, source, self.rank, seq, MsgStage::Complete, len);
    }

    /// The rendezvous transfer `hit` names, in either direction: its
    /// request, whether it is our READ, the peer, sequence and status.
    fn transfer(&self, hit: &Hit) -> Option<(u64, bool, Rank, u64, Status)> {
        let req = hit.req?;
        let state = self.state(req)?;
        let (ReqState::Rdma { status, .. }, Some((peer, seq, send))) = (state, state.key()) else {
            return None;
        };
        Some((req, !send, peer, seq, *status))
    }

    /// A rendezvous RDMA READ or WRITE completed: end the request and
    /// answer the peer with DONE, or DONE-WRITE.
    fn transfer_done(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let Some((req, read, peer, seq, status)) = self.transfer(hit) else {
            return;
        };
        let (me, len) = (self.rank, status.len);
        let (src, dst) = if read { (peer, me) } else { (me, peer) };
        let outcome = match self.state(req) {
            Some(ReqState::Rdma {
                truncated: Some(e), ..
            }) => Err(e.clone()),
            _ => Ok(status),
        };
        // The stage ends when the data has landed, before the lifecycle
        // edge that says so.
        self.close_span(ctx, req);
        self.life(ctx, src, dst, seq, MsgStage::RdmaDone, len);
        let completed = outcome.is_ok();
        self.resolve(ctx, req, outcome);
        self.stats.bytes_received += if read { len } else { 0 };
        let kind = if read { K::Done } else { K::DoneWrite };
        let done = PacketHeader::control(kind, me, status.tag, seq, len);
        self.answer(ctx, peer, done);
        if completed {
            self.life(ctx, src, dst, seq, MsgStage::Complete, len);
        }
    }

    /// A rendezvous RDMA READ or WRITE failed for good: end the request
    /// and answer the peer with NACK, or NACK-WRITE.
    fn transfer_failed(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (Some((req, read, peer, seq, status)), Some((err, recover))) =
            (self.transfer(hit), hit.fault.take())
        else {
            return;
        };
        self.resolve(ctx, req, Err(err));
        let rank = self.rank;
        self.rec
            .trace(|| TraceEvent::TransportFail { rank, peer, seq });
        if recover {
            let kind = if read { K::Nack } else { K::NackWrite };
            let nack = PacketHeader::control(kind, rank, status.tag, seq, 0);
            self.answer(ctx, peer, nack);
        }
    }

    /// A slot write failed for good: its EAGER's send, or the send whose
    /// RTS it carried, fails.
    fn fail_owner(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        if let (Some(req), Some((err, _))) = (hit.req, hit.fault.take()) {
            self.resolve(ctx, req, Err(err));
        }
    }

    /// Our RTR's slot write failed for good: the receive fails, and the
    /// sender — which never saw the RTR — will send its RTS or EAGER for
    /// this sequence later, which must not match another receive.
    fn fail_advertised(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (Some(req), Some((err, _))) = (hit.req, hit.fault.take()) else {
            return;
        };
        self.take_posted_req(ctx, req);
        self.resolve(ctx, req, Err(err));
        self.mq.dead_rx.insert((hit.peer, hit.hdr.seq));
    }

    /// Sender-first: send the RTS.
    fn send_rts(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        self.send_ctrl(ctx, hit.peer, hit.hdr);
    }

    /// Receiver-first: advertise the receive buffer. Its registration
    /// stays pinned until the receive leaves the match queue.
    fn advertise_rtr(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (Some(posted), mut hdr, src) = (hit.recv.as_mut(), hit.hdr, hit.peer) else {
            return;
        };
        let lease = self.pin_mr(ctx, &posted.buf);
        (hdr.addr, hdr.rkey) = (posted.buf.addr, lease.mr.key().0);
        posted.rtr_lease = Some(lease);
        let req = posted.req;
        self.send_ctrl(ctx, src, hdr);
        self.set_state(req, ReqState::RecvAwaitDone { src, hdr });
    }

    /// The handshake's answer is overdue: re-issue its RTS or RTR, unless
    /// the packet is still on its way out of this rank (queued for
    /// credit, or waiting out a retry backoff).
    fn reissue(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let (dst, hdr) = match hit.req.and_then(|r| self.state(r)) {
            Some(ReqState::RndvSendAwaitDone { dst, hdr, .. }) => (*dst, *hdr),
            Some(ReqState::RecvAwaitDone { src, hdr, .. }) => (*src, *hdr),
            _ => return,
        };
        if !self.ctrl_outstanding(dst, &hdr) {
            self.stats.handshake_reissues += 1;
            self.replay(ctx, dst, hdr);
        }
    }

    /// Take a posted receive back: out of the match queue, pin dropped,
    /// and its handle consumed.
    fn take_back(&mut self, ctx: &mut Ctx, hit: &mut Hit) {
        let Some(req) = hit.req else { return };
        self.take_posted_req(ctx, req);
        self.close_span(ctx, req);
        self.reqs.remove(req);
    }
}
