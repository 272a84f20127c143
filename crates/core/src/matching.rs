//! Matching: which receive a message belongs to.
//!
//! The posted-receive and unexpected-message queues, the per-pair
//! sequence ids that pair each send with its receive, and the
//! `MPI_ANY_SOURCE` lock over them (paper §IV-B3): an unmatched
//! any-source receive stops sequence assignment for every receive posted
//! behind it until it meets its packet. A data-stream arrival (EAGER,
//! RTS, NACK-SEND) is paired here and the receive side of the transfer
//! started: the eager copy-out, or the sender-first RDMA READ. The pair
//! state also remembers the handshake answers already given, so a
//! re-issued RTS/RTR is answered again, and derives the CREDIT
//! watermarks that let the peer forget them.
//!
//! Everything here is `impl Engine` over [`MatchQueues`] — moved out of
//! `engine.rs`, not re-designed.

use std::collections::{HashMap, HashSet};

use fabric::Buffer;
use simcore::Ctx;
use verbs::{MrKey, SendWr};

use crate::channel::Payload;
use crate::engine::{Engine, ReqState};
use crate::metrics::Phase;
use crate::mrcache::Lease;
use crate::packet::{PacketHeader, PacketKind};
use crate::recovery::{TimeoutKind, WrKind};
use crate::trace::{MsgStage, TraceEvent};
use crate::types::{MpiError, Rank, Src, Status, Tag, TagSel};

/// A receive sitting in the match queue.
pub(crate) struct PostedRecv {
    pub(crate) req: u64,
    pub(crate) buf: Buffer,
    pub(crate) src: Src,
    pub(crate) tag: TagSel,
    /// Pair sequence id; `None` while locked behind an any-source receive.
    pub(crate) seq: Option<u64>,
    /// Pin on the buffer registration advertised by our RTR; released
    /// when the receive leaves the queue (DONE-WRITE, or the
    /// eager/simultaneous mis-prediction paths).
    pub(crate) rtr_lease: Option<Lease>,
    /// The RTR we advertised, if any, kept for watchdog re-issue.
    pub(crate) rtr_hdr: Option<PacketHeader>,
}

impl PostedRecv {
    /// Whether this receive advertised `seq` of `src`'s stream in an RTR
    /// (the receive a DONE-WRITE, NACK-WRITE or failed RTR refers to).
    pub(crate) fn advertised(&self, src: Rank, seq: u64) -> bool {
        self.rtr_hdr.is_some() && self.seq == Some(seq) && self.src == Src::Rank(src)
    }
}

/// A message that arrived before its receive was posted.
pub(crate) enum Unexpected {
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

impl Unexpected {
    /// The message's envelope: its source, tag, pair sequence id and
    /// payload length.
    pub(crate) fn envelope(&self) -> (Rank, Tag, u64, u64) {
        match self {
            Unexpected::Eager {
                src,
                tag,
                seq,
                data,
            } => (*src, *tag, *seq, data.len() as u64),
            Unexpected::Rts { hdr } => (hdr.src_rank, hdr.tag, hdr.seq, hdr.len),
            Unexpected::Nack { src, tag, seq } => (*src, *tag, *seq, 0),
        }
    }
}

/// The protocol half of one pair: its sequence ids and what the
/// handshake-replay machinery remembers about it.
#[derive(Default)]
pub(crate) struct Pair {
    /// Pair sequence ids (paper §IV-B3).
    pub(crate) tx_seq: u64,
    pub(crate) rx_seq: u64,
    /// RTRs that arrived before their matching send was posted.
    pub(crate) stashed_rtrs: Vec<PacketHeader>,
    /// Highest data-stream sequence id (EAGER/RTS/NACK-SEND) seen from
    /// this peer. Data packets arrive in sequence order, so anything at or
    /// below this is a duplicate (a re-issued handshake) and is answered
    /// from `served_done`/`served_dw` or dropped.
    pub(crate) rx_data_high: Option<u64>,
    /// DONE/NACK answers we already sent for sender-first rendezvous,
    /// keyed by pair sequence id — replayed when a re-issued RTS arrives.
    pub(crate) served_done: HashMap<u64, PacketHeader>,
    /// DONE-WRITE/NACK-WRITE answers we already sent for receiver-first
    /// rendezvous — replayed when a re-issued RTR arrives.
    pub(crate) served_dw: HashMap<u64, PacketHeader>,
}

/// The engine's matching state.
pub(crate) struct MatchQueues {
    pub(crate) recv_q: Vec<PostedRecv>,
    pub(crate) unexpected: Vec<Unexpected>,
    /// Indexed by peer rank.
    pub(crate) pairs: Vec<Pair>,
    /// Receives that failed permanently, keyed by (peer, pair seq): the
    /// peer's late data packet for that seq is answered with a NACK (RTS)
    /// or dropped (EAGER) instead of matching a later receive.
    pub(crate) dead_rx: HashSet<(Rank, u64)>,
}

impl MatchQueues {
    pub(crate) fn new(size: usize) -> Self {
        MatchQueues {
            recv_q: Vec::new(),
            unexpected: Vec::new(),
            pairs: (0..size).map(|_| Pair::default()).collect(),
            dead_rx: HashSet::new(),
        }
    }
}

impl Engine {
    /// The protocol state of the pair with `p`.
    pub(crate) fn pair(&mut self, p: Rank) -> &mut Pair {
        &mut self.mq.pairs[p]
    }

    /// Draw the next receive-side sequence id of `p`'s stream.
    fn next_rx_seq(&mut self, p: Rank) -> u64 {
        let pair = self.pair(p);
        pair.rx_seq += 1;
        pair.rx_seq - 1
    }

    /// Sequence assignment for a receive from `src` posted now: `None`
    /// for any-source (it gets its id when it meets its packet) and while
    /// an unmatched any-source receive sits ahead of us.
    pub(crate) fn assign_rx_seq(&mut self, src: Src) -> Option<u64> {
        let locked = self.mq.recv_q.iter().any(|r| r.seq.is_none());
        match src {
            Src::Rank(s) if !locked => Some(self.next_rx_seq(s)),
            _ => None,
        }
    }

    /// Take posted receive `idx` out of the match queue, dropping the pin
    /// its RTR took (the advertised buffer is no longer an RDMA target).
    pub(crate) fn take_posted(&mut self, ctx: &mut Ctx, idx: usize) -> PostedRecv {
        let mut posted = self.mq.recv_q.remove(idx);
        if let Some(l) = posted.rtr_lease.take() {
            self.cache.release(ctx, &self.res, l);
        }
        posted
    }

    /// End every posted receive `doomed` accepts with `err`; returns how
    /// many there were.
    pub(crate) fn fail_posted(
        &mut self,
        ctx: &mut Ctx,
        doomed: impl Fn(&PostedRecv) -> bool,
        err: MpiError,
    ) -> u64 {
        let (mut n, mut i) = (0, 0);
        while i < self.mq.recv_q.len() {
            if doomed(&self.mq.recv_q[i]) {
                let posted = self.take_posted(ctx, i);
                self.resolve(ctx, posted.req, Err(err.clone()));
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// Discard every unexpected message whose `(source, tag)` `doomed`
    /// accepts; returns how many there were. `consume_seq` consumes their
    /// pair sequence ids: the sender already burnt them, so a stream that
    /// lives on would fall out of step with the sender's counter if the
    /// receive side skipped the note.
    pub(crate) fn purge_unexpected(
        &mut self,
        doomed: impl Fn(Rank, Tag) -> bool,
        consume_seq: bool,
    ) -> u64 {
        let (mut n, mut i) = (0, 0);
        while i < self.mq.unexpected.len() {
            let (src, tag, seq, _) = self.mq.unexpected[i].envelope();
            if !doomed(src, tag) {
                i += 1;
                continue;
            }
            if let Unexpected::Eager { data, .. } = self.mq.unexpected.remove(i) {
                self.ch.recycle(data);
            }
            if consume_seq {
                self.note_rx_seq(src, seq);
            }
            n += 1;
        }
        n
    }

    /// The sender-first send toward `dst` still waiting for the answer to
    /// its RTS `seq` (control packets carry no request id, so DONE, NACK,
    /// a simultaneous RTR and a failed RTS all find it this way).
    pub(crate) fn awaiting_send(&self, dst: Rank, seq: u64) -> Option<(u64, Status)> {
        self.reqs.iter().find_map(|(id, r)| match &r.state {
            ReqState::RndvSendAwaitDone {
                dst: d,
                seq: s,
                status,
                ..
            } if *d == dst && *s == seq => Some((id, *status)),
            _ => None,
        })
    }

    /// Account a *pairing*: sequence id `seq` of peer `p`'s stream has
    /// been consumed by a receive. Only pairings may advance the receive
    /// counter — bumping on mere packet arrival would make later-posted
    /// receives skip ids and fall out of step with the sender's counter.
    pub(crate) fn note_rx_seq(&mut self, p: Rank, seq: u64) {
        let pair = self.pair(p);
        pair.rx_seq = pair.rx_seq.max(seq + 1);
    }

    /// Whether data-stream sequence `seq` from peer `p` has been seen
    /// before (data packets arrive in sequence order, so a dup means a
    /// re-issued handshake).
    pub(crate) fn is_dup_data(&self, p: Rank, seq: u64) -> bool {
        self.mq.pairs[p].rx_data_high.is_some_and(|h| seq <= h)
    }

    /// Record the arrival of data-stream sequence `seq` from peer `p`.
    pub(crate) fn note_data_seq(&mut self, p: Rank, seq: u64) {
        let pair = self.pair(p);
        pair.rx_data_high = Some(pair.rx_data_high.map_or(seq, |h| h.max(seq)));
    }

    /// Match an inbound data packet against the posted-receive queue,
    /// honouring the any-source sequence lock: scanning stops at the first
    /// unassigned entry unless that entry itself matches.
    pub(crate) fn match_posted(&self, src: Rank, tag: Tag, seq: u64) -> Option<usize> {
        for (i, r) in self.mq.recv_q.iter().enumerate() {
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
            if r.rtr_hdr.is_some() && r.seq != Some(seq) {
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
    pub(crate) fn match_unexpected(&self, src: Src, tag: TagSel) -> Option<usize> {
        self.mq.unexpected.iter().position(|u| {
            let (usrc, utag, ..) = u.envelope();
            let src_ok = match src {
                Src::Rank(s) => s == usrc,
                Src::Any => true,
            };
            src_ok && tag.matches(utag)
        })
    }

    /// A data-stream packet (EAGER, RTS or NACK-SEND) arrived from `p`:
    /// pair it with the receive it belongs to, or park it as unexpected.
    pub(crate) fn match_arrival(
        &mut self,
        ctx: &mut Ctx,
        p: Rank,
        hdr: PacketHeader,
        payload: Payload,
    ) {
        let (src, tag, seq, kind, me) = (hdr.src_rank, hdr.tag, hdr.seq, hdr.kind, self.rank);
        if self.is_dup_data(p, seq) {
            // A re-issued handshake. If we already answered the RTS (DONE
            // or NACK), replay the answer — the original may have been
            // what got lost; otherwise the first copy is still being
            // served and the dup is dropped.
            let answered = self.pair(p).served_done.get(&seq).copied();
            if let (PacketKind::Rts, Some(ans)) = (kind, answered) {
                self.replay(ctx, p, ans);
            }
            return;
        }
        self.note_data_seq(p, seq);
        if self.mq.dead_rx.remove(&(p, seq)) {
            // The matching receive already failed (its RTR write died):
            // an eager payload has nowhere to go and a NACK-SEND finds
            // both ends failed already; an RTS is answered negatively so
            // the sender resolves too.
            if kind == PacketKind::Rts {
                let nack = PacketHeader::control(PacketKind::Nack, me, tag, seq, 0);
                self.answer(ctx, p, nack);
            }
            return;
        }
        let Some(idx) = self.match_posted(src, tag, seq) else {
            let u = match kind {
                PacketKind::Eager => {
                    // Copy out so the slot can be reused; the buffer comes
                    // back via `Channel::recycle` when the message is
                    // consumed.
                    let data = self.ch.detach(&self.res, payload, hdr.len);
                    let cluster = self.res.cluster();
                    ctx.sleep(cluster.copy_duration(self.res.mem().domain, hdr.len));
                    Unexpected::Eager {
                        src,
                        tag,
                        seq,
                        data,
                    }
                }
                PacketKind::Rts => Unexpected::Rts { hdr },
                _ => Unexpected::Nack { src, tag, seq },
            };
            self.mq.unexpected.push(u);
            if kind != PacketKind::NackSend {
                self.ch
                    .msg_life(ctx, p, me, seq, MsgStage::UnexpStash, hdr.len);
            }
            return;
        };
        let was_any = self.mq.recv_q[idx].seq.is_none();
        match kind {
            PacketKind::Eager => {
                // An eager mis-prediction into an RTR-coupled receive
                // drops the advertised buffer's pin here.
                let posted = self.take_posted(ctx, idx);
                self.ch.msg_life(ctx, p, me, seq, MsgStage::Match, hdr.len);
                self.deliver_eager_to(ctx, &posted, &hdr, payload);
            }
            PacketKind::Rts => {
                // Simultaneous rendezvous keeps the RTR's pin for the
                // read, so the entry leaves the queue as it is.
                let posted = self.mq.recv_q.remove(idx);
                self.ch.msg_life(ctx, p, me, seq, MsgStage::Match, hdr.len);
                self.start_rndv_read(ctx, posted, &hdr);
            }
            // The sender's EAGER or RTS for this seq died; the receive
            // paired with it must fail instead of waiting forever. The
            // NACK-SEND occupies the dead packet's place in the data
            // stream, keeping later seqs matchable.
            _ => {
                let posted = self.take_posted(ctx, idx);
                let lost = MpiError::RemoteTransport { peer: src, seq };
                self.resolve(ctx, posted.req, Err(lost));
            }
        }
        self.after_match(ctx, was_any, src, seq);
    }

    /// Copy an arrived eager payload straight into the matched user buffer.
    fn deliver_eager_to(
        &mut self,
        ctx: &mut Ctx,
        posted: &PostedRecv,
        hdr: &PacketHeader,
        payload: Payload,
    ) {
        let (source, tag, len, me) = (hdr.src_rank, hdr.tag, hdr.len, self.rank);
        if len > posted.buf.len {
            let capacity = posted.buf.len;
            self.resolve(
                ctx,
                posted.req,
                Err(MpiError::Truncated { got: len, capacity }),
            );
            return;
        }
        self.ch.deliver(&self.res, payload, &posted.buf, len);
        let cluster = self.res.cluster();
        ctx.sleep(cluster.copy_duration(self.res.mem().domain, len));
        self.ch
            .msg_life(ctx, source, me, hdr.seq, MsgStage::Copy, len);
        self.stats.bytes_received += len;
        self.resolve(ctx, posted.req, Ok(Status { source, tag, len }));
        self.ch
            .msg_life(ctx, source, me, hdr.seq, MsgStage::Complete, len);
    }

    /// Sender-first rendezvous on the receiver: RDMA READ from the RTS
    /// buffer into the user buffer.
    fn start_rndv_read(&mut self, ctx: &mut Ctx, mut posted: PostedRecv, hdr: &PacketHeader) {
        let (src, seq, me) = (hdr.src_rank, hdr.seq, self.rank);
        let read_len = hdr.len.min(posted.buf.len);
        let truncated = (hdr.len > posted.buf.len).then_some(MpiError::Truncated {
            got: hdr.len,
            capacity: posted.buf.len,
        });
        // Simultaneous rendezvous reuses the pin taken for our RTR (same
        // buffer); a plain sender-first receive pins it now.
        let lease = match posted.rtr_lease.take() {
            Some(l) => l,
            None => self.pin_mr(ctx, &posted.buf),
        };
        self.ch
            .msg_life(ctx, src, me, seq, MsgStage::MrAcquire, read_len);
        let sge = verbs::Sge {
            addr: posted.buf.addr,
            len: read_len,
            lkey: lease.mr.key(),
        };
        let status = Status {
            source: src,
            tag: hdr.tag,
            len: read_len,
        };
        let req = posted.req;
        let reading = ReqState::RndvRecvReading {
            src,
            seq,
            status,
            truncated,
            lease,
        };
        // Simultaneous rendezvous: our RTR's handshake is over.
        let mut rtr = self.set_state(req, reading);
        self.disarm(rtr.as_mut());
        self.open_span(ctx, Phase::RndvRead, req, read_len, src);
        let wr = SendWr::rdma_read(0, sge, hdr.addr, MrKey(hdr.rkey));
        self.post_tracked(ctx, src, wr, WrKind::RndvRead { req });
        self.ch
            .msg_life(ctx, src, me, seq, MsgStage::RdmaStart, read_len);
    }

    /// Receiver-first: advertise the receive buffer. The registration is
    /// pinned via `posted.rtr_lease` until the receive leaves the queue.
    pub(crate) fn send_rtr(&mut self, ctx: &mut Ctx, src: Rank, seq: u64, posted: &mut PostedRecv) {
        let lease = self.pin_mr(ctx, &posted.buf);
        let tag = match posted.tag {
            TagSel::Tag(t) => t,
            TagSel::Any => 0,
        };
        let mut hdr = PacketHeader::control(PacketKind::Rtr, self.rank, tag, seq, posted.buf.len);
        (hdr.addr, hdr.rkey) = (posted.buf.addr, lease.mr.key().0);
        posted.rtr_lease = Some(lease);
        posted.rtr_hdr = Some(hdr);
        self.send_ctrl(ctx, src, hdr);
        self.set_state(posted.req, ReqState::RecvAwaitDone { watchdog: None });
        self.arm_watchdog(ctx, TimeoutKind::Rtr { req: posted.req });
    }

    /// Pair the receive `req` into `buf` with unexpected message `u`.
    pub(crate) fn consume_unexpected(
        &mut self,
        ctx: &mut Ctx,
        req: u64,
        buf: &Buffer,
        u: Unexpected,
    ) {
        let me = self.rank;
        match u {
            Unexpected::Eager {
                src,
                tag,
                seq,
                data,
            } => {
                let len = data.len() as u64;
                self.ch.msg_life(ctx, src, me, seq, MsgStage::Match, len);
                if len > buf.len {
                    let capacity = buf.len;
                    self.resolve(ctx, req, Err(MpiError::Truncated { got: len, capacity }));
                    return;
                }
                let cluster = self.res.cluster().clone();
                cluster.write(buf, 0, &data);
                ctx.sleep(cluster.copy_duration(self.res.mem().domain, len));
                self.ch.msg_life(ctx, src, me, seq, MsgStage::Copy, len);
                self.note_rx_seq(src, seq);
                self.stats.bytes_received += len;
                let source = src;
                self.resolve(ctx, req, Ok(Status { source, tag, len }));
                self.ch.msg_life(ctx, src, me, seq, MsgStage::Complete, len);
                // Recycle the copy-out buffer for the next unexpected
                // message.
                self.ch.recycle(data);
            }
            Unexpected::Rts { hdr } => {
                self.ch
                    .msg_life(ctx, hdr.src_rank, me, hdr.seq, MsgStage::Match, hdr.len);
                self.note_rx_seq(hdr.src_rank, hdr.seq);
                let posted = PostedRecv {
                    req,
                    buf: buf.clone(),
                    src: Src::Rank(hdr.src_rank),
                    tag: TagSel::Tag(hdr.tag),
                    seq: Some(hdr.seq),
                    rtr_lease: None,
                    rtr_hdr: None,
                };
                self.start_rndv_read(ctx, posted, &hdr);
            }
            Unexpected::Nack { src, seq, .. } => {
                self.note_rx_seq(src, seq);
                self.resolve(ctx, req, Err(MpiError::RemoteTransport { peer: src, seq }));
            }
        }
    }

    /// After matching an any-source receive, assign sequence ids to the
    /// receives it was locking, fire deferred RTRs and recheck the
    /// unexpected queue ("all the sequences locked will be unlocked and
    /// later receive requests can also get their ids").
    pub(crate) fn after_match(&mut self, ctx: &mut Ctx, was_any_lock: bool, src: Rank, seq: u64) {
        if !was_any_lock {
            return;
        }
        // The any-source receive consumed `seq` of `src`'s stream ("the
        // MPI ANY SOURCE request will get its sequence id when it first
        // meets the matching packet").
        self.note_rx_seq(src, seq);
        let mut i = 0;
        while i < self.mq.recv_q.len() {
            if self.mq.recv_q[i].seq.is_some() {
                i += 1;
                continue;
            }
            match self.mq.recv_q[i].src {
                Src::Any => break, // the next any-source lock takes over
                Src::Rank(s) => {
                    let q = self.next_rx_seq(s);
                    self.mq.recv_q[i].seq = Some(q);
                    // Re-check the unexpected queue for this receive.
                    let (rsrc, rtag) = (self.mq.recv_q[i].src, self.mq.recv_q[i].tag);
                    if let Some(uidx) = self.match_unexpected(rsrc, rtag) {
                        let posted = self.mq.recv_q.remove(i);
                        let u = self.mq.unexpected.remove(uidx);
                        self.consume_unexpected(ctx, posted.req, &posted.buf, u);
                        continue; // don't advance: entry removed
                    }
                    // Deferred receiver-first initiation.
                    if self.mq.recv_q[i].buf.len > self.cfg.eager_threshold {
                        let mut posted = self.mq.recv_q.remove(i);
                        self.send_rtr(ctx, s, q, &mut posted);
                        self.mq.recv_q.insert(i, posted);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Answer a rendezvous handshake from `p` (DONE, DONE-WRITE or their
    /// NACKs), remembering the answer so a re-issued RTS/RTR gets it
    /// replayed.
    pub(crate) fn answer(&mut self, ctx: &mut Ctx, p: Rank, hdr: PacketHeader) {
        let pair = self.pair(p);
        match hdr.kind {
            PacketKind::Done | PacketKind::Nack => pair.served_done.insert(hdr.seq, hdr),
            _ => pair.served_dw.insert(hdr.seq, hdr),
        };
        self.send_ctrl(ctx, p, hdr);
    }

    /// Send a handshake packet again (a watchdog re-issue, or the answer
    /// to a re-issued RTS/RTR whose first answer may have been lost).
    pub(crate) fn replay(&mut self, ctx: &mut Ctx, to: Rank, hdr: PacketHeader) {
        let (from, kind, seq) = (self.rank, hdr.kind, hdr.seq);
        self.rec.trace(|| TraceEvent::Retrans {
            from,
            to,
            kind,
            seq,
        });
        self.send_ctrl(ctx, to, hdr);
    }

    /// Build a CREDIT packet for peer `p`: `len` reports consumed inbound
    /// slots, and the otherwise-unused `seq`/`addr` fields piggyback the
    /// handshake-resolution watermarks that let the peer prune its
    /// `served_done`/`served_dw` replay maps (see `handle_packet`). Old
    /// peers that sent zeros here simply prune nothing.
    pub(crate) fn credit_header(&self, p: Rank) -> PacketHeader {
        let (acked, consumed) = (self.ack_tx_watermark(p), self.ch.consumed(p));
        let mut hdr = PacketHeader::control(PacketKind::Credit, self.rank, 0, acked, consumed);
        hdr.addr = self.ack_rx_watermark(p);
        hdr
    }

    /// Smallest pair sequence toward `p` whose sender-first handshake is
    /// still unresolved on our side — the watchdog could re-issue its RTS,
    /// so the peer must keep its `served_done` reply for it. Everything
    /// below is acknowledged: the peer may forget those replies.
    pub(crate) fn ack_tx_watermark(&self, p: Rank) -> u64 {
        let mut w = self.mq.pairs[p].tx_seq;
        for (_, r) in self.reqs.iter() {
            if let ReqState::RndvSendAwaitDone { dst, seq, .. } = &r.state {
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
    pub(crate) fn ack_rx_watermark(&self, p: Rank) -> u64 {
        let mut w = self.mq.pairs[p].rx_seq;
        for r in &self.mq.recv_q {
            if r.rtr_hdr.is_some() && r.src == Src::Rank(p) {
                if let Some(seq) = r.seq {
                    w = w.min(seq);
                }
            }
        }
        w
    }
}
