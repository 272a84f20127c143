//! Matching: which receive a message belongs to.
//!
//! The posted-receive and unexpected-message queues, the per-pair
//! sequence ids that pair each send with its receive, and the
//! `MPI_ANY_SOURCE` lock over them (paper §IV-B3): an unmatched
//! any-source receive stops sequence assignment for every receive posted
//! behind it until it meets its packet. What a data-stream arrival
//! (EAGER, RTS, NACK-SEND) does once paired is a row of
//! [`crate::protocol::ROWS`]. The pair state also remembers the handshake
//! answers already given, so a re-issued RTS/RTR is answered again, and
//! derives the CREDIT watermarks that let the peer forget them.

use std::collections::{HashMap, HashSet};

use fabric::Buffer;
use simcore::Ctx;

use crate::engine::{Engine, ReqState};
use crate::mrcache::Lease;
use crate::packet::{PacketHeader, PacketKind};
use crate::protocol::{Event, Hit};
use crate::trace::TraceEvent;
use crate::types::{MpiError, Rank, Src, Tag, TagSel};

/// A receive sitting in the match queue.
pub(crate) struct PostedRecv {
    pub(crate) req: u64,
    pub(crate) buf: Buffer,
    pub(crate) src: Src,
    pub(crate) tag: TagSel,
    /// Pair sequence id; `None` while locked behind an any-source receive.
    pub(crate) seq: Option<u64>,
    /// Pin on the buffer registration our RTR advertised: `Some` exactly
    /// while the receive is coupled to its sequence id. Released when the
    /// receive leaves the queue, unless a simultaneous RDMA READ takes it.
    pub(crate) rtr_lease: Option<Lease>,
}

/// A message that arrived before its receive was posted: an EAGER with
/// its payload copied out, an RTS, or a NACK-SEND (a sender-side transport
/// abort; the receive fails with `RemoteTransport`).
pub(crate) struct Unexpected {
    pub(crate) hdr: PacketHeader,
    pub(crate) data: Vec<u8>,
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

/// The engine's matching state. Each pair's own lives in its peer entry
/// ([`crate::peers`]).
#[derive(Default)]
pub(crate) struct MatchQueues {
    pub(crate) recv_q: Vec<PostedRecv>,
    pub(crate) unexpected: Vec<Unexpected>,
    /// Receives that failed permanently, keyed by (peer, pair seq): the
    /// peer's late data packet for that seq is answered with a NACK (RTS)
    /// or dropped (EAGER) instead of matching a later receive.
    pub(crate) dead_rx: HashSet<(Rank, u64)>,
}

impl Engine {
    /// The protocol state of the pair with `p`.
    pub(crate) fn pair(&mut self, p: Rank) -> &mut Pair {
        self.ch.peers.pair_mut(p)
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
        self.unpin(ctx, &mut posted);
        posted
    }

    /// [`Self::take_posted`] for the receive of request `req`.
    pub(crate) fn take_posted_req(&mut self, ctx: &mut Ctx, req: u64) -> Option<PostedRecv> {
        let idx = self.mq.recv_q.iter().position(|r| r.req == req)?;
        Some(self.take_posted(ctx, idx))
    }

    /// Drop the pin `posted`'s RTR took, if any.
    pub(crate) fn unpin(&mut self, ctx: &mut Ctx, posted: &mut PostedRecv) {
        if let Some(l) = posted.rtr_lease.take() {
            self.cache.release(ctx, &self.res, l);
        }
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
            let hdr = self.mq.unexpected[i].hdr;
            if !doomed(hdr.src_rank, hdr.tag) {
                i += 1;
                continue;
            }
            let u = self.mq.unexpected.remove(i);
            if hdr.kind == PacketKind::Eager {
                self.ch.recycle(u.data);
            }
            if consume_seq {
                self.note_rx_seq(hdr.src_rank, hdr.seq);
            }
            n += 1;
        }
        n
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
        self.ch.peers.pair(p).rx_data_high.is_some_and(|h| seq <= h)
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
            if r.rtr_lease.is_some() && r.seq != Some(seq) {
                continue;
            }
            let matches = r.src.matches(src) && r.tag.matches(tag);
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
        let hit = |u: &Unexpected| src.matches(u.hdr.src_rank) && tag.matches(u.hdr.tag);
        self.mq.unexpected.iter().position(hit)
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
                    self.mq.recv_q[i].seq = Some(self.next_rx_seq(s));
                    // Re-check the unexpected queue for this receive.
                    let posted = self.mq.recv_q.remove(i);
                    if let Some(uidx) = self.match_unexpected(posted.src, posted.tag) {
                        let u = self.mq.unexpected.remove(uidx);
                        self.pair_unexpected(ctx, posted, u);
                        continue; // don't advance: entry removed
                    }
                    // Deferred receiver-first initiation.
                    self.enqueue(ctx, i, posted);
                    i += 1;
                }
            }
        }
    }

    /// Put `posted` into the match queue at `at`. A large receive with a
    /// known source and sequence id first advertises its buffer in an RTR
    /// (receiver-first rendezvous).
    pub(crate) fn enqueue(&mut self, ctx: &mut Ctx, at: usize, posted: PostedRecv) {
        let (req, len) = (posted.req, posted.buf.len);
        let posted = match (posted.src, posted.seq) {
            (Src::Rank(s), Some(q)) if len > self.cfg.eager_threshold => {
                let tag = match posted.tag {
                    TagSel::Tag(t) => t,
                    TagSel::Any => 0,
                };
                let rtr = PacketHeader::control(PacketKind::Rtr, self.rank, tag, q, len);
                let mut hit = Hit::new(s, rtr, Some(req));
                hit.recv = Some(posted);
                self.dispatch(ctx, Event::Issue, hit)
            }
            _ => Some(posted),
        };
        if let Some(posted) = posted {
            self.mq.recv_q.insert(at, posted);
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
    /// `served_done`/`served_dw` replay maps (the `apply_credit` row).
    pub(crate) fn credit_header(&self, p: Rank) -> PacketHeader {
        let (acked, consumed) = (self.ack_watermark(p, true), self.ch.consumed(p));
        let mut hdr = PacketHeader::control(PacketKind::Credit, self.rank, 0, acked, consumed);
        hdr.addr = self.ack_watermark(p, false);
        hdr
    }

    /// Smallest pair sequence with `p` whose handshake is still open on
    /// our side — our RTS if `send`, our RTR otherwise: the watchdog could
    /// re-issue it, so the peer must keep its reply. Everything below is
    /// acknowledged. New handshakes always start at or above the pair's
    /// `tx_seq` / `rx_seq`, so the watermark never moves backwards.
    fn ack_watermark(&self, p: Rank, send: bool) -> u64 {
        let pair = self.ch.peers.pair(p);
        let open = self
            .reqs
            .iter()
            .filter_map(|(_, r)| match (&r.state, send) {
                (ReqState::RndvSendAwaitDone { dst: q, hdr, .. }, true)
                | (ReqState::RecvAwaitDone { src: q, hdr }, false)
                    if *q == p =>
                {
                    Some(hdr.seq)
                }
                _ => None,
            });
        open.fold(if send { pair.tx_seq } else { pair.rx_seq }, u64::min)
    }
}
