//! Recovery: what the engine does when the happy path does not happen.
//!
//! * every send-side work request is tracked until its completion is
//!   classified — success, bounded retry with backoff, or permanent
//!   failure of the one request that owns it ([`Engine::fail_wr`]);
//! * watchdogs re-issue a rendezvous or lazy-connect handshake whose
//!   answer never came;
//! * the health board's verdicts are acted on: a dead peer is reaped, a
//!   revoked communicator drained, a shrink committed.
//!
//! All `impl Engine`, moved out of `engine.rs`; requests end through
//! [`Engine::resolve`] like everywhere else.

use std::collections::HashSet;
use std::sync::Arc;

use fabric::{HealthBoard, PeerState};
use simcore::{Ctx, SimDuration, SimTime, TimerQueue};
use verbs::{SendWr, Wc, WcStatus};

use crate::engine::{is_shrink_tag, Engine, KillMarker, ReqState, SHRINK_TAG_BASE};
use crate::metrics::Phase;
use crate::packet::{PacketHeader, PacketKind};
use crate::slots::SlotTable;
use crate::trace::{MsgStage, TraceEvent};
use crate::types::{MpiError, Rank, Request, Src, Tag, TagSel, TransportOp};

/// What a tracked send-side work request was doing, so its completion —
/// or its failure — can be routed to the owning protocol state.
#[derive(Clone, Copy)]
pub(crate) enum WrKind {
    /// An outbound slot write (data or control packet).
    Ring {
        hdr: PacketHeader,
        slot_seq: u64,
        /// Staging slot the packet sits in until the write ends for good.
        stage: u32,
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
pub(crate) struct InflightWr {
    wr: SendWr,
    pub(crate) dst: Rank,
    /// Posts issued so far (1 = the original post).
    attempts: u32,
    pub(crate) kind: WrKind,
}

/// A pending handshake watchdog.
#[derive(Clone, Copy)]
pub(crate) enum TimeoutKind {
    /// Sender-first: re-issue the RTS if the DONE hasn't arrived.
    Rts { req: u64 },
    /// Receiver-first: re-issue the RTR if the DONE-WRITE hasn't arrived.
    Rtr { req: u64 },
    /// Lazy-connect handshake: re-issue the connect Req if the pair is
    /// still unwired (the Req or its Ack was lost on the out-of-band
    /// channel). `attempt` counts re-issues; past `dcfa::CMD_RETRY_LIMIT` the
    /// peer is declared dead instead of retried forever.
    Conn { peer: Rank, attempt: u32 },
}

/// Send-side work requests in flight, and the timers watching them.
#[derive(Default)]
pub(crate) struct TrackedWrs {
    /// Every posted send-side work request until its completion is
    /// classified (success / retry / permanent failure). The table handle
    /// IS the wr_id: every send-side WR's id is drawn from here, so a
    /// completion — success or error — always finds its owner, and a
    /// handle that went stale (request failed under the retry) simply
    /// misses on its generation.
    pub(crate) inflight: SlotTable<InflightWr>,
    /// Transiently failed WRs waiting out their backoff, by due time.
    pub(crate) retry_due: TimerQueue<u64>,
    /// Armed handshake watchdogs, by due time. Each one's handle lives
    /// with the handshake it guards, which cancels it when it stops
    /// waiting, so the front is always live.
    pub(crate) watchdogs: TimerQueue<TimeoutKind>,
    /// Due time of the scheduler wake armed for `watchdogs` (the earliest,
    /// should there be two). One wake serves the whole queue: while it is
    /// non-empty a wake is armed at or before its front, and
    /// `pump_rndv_timeouts` moves it on when it fires.
    pub(crate) watchdog_wake: Option<SimTime>,
    /// Scheduler wakes armed for the watchdog queue so far.
    #[cfg(test)]
    pub(crate) watchdog_wakes_armed: u64,
    /// Set by `flush_ctrl` for the second and later posts of one drain:
    /// their doorbells coalesce behind the first post's.
    pub(crate) coalesce_next_post: bool,
}

/// What a rank knows about failures in its world, and its own scheduled
/// death.
#[derive(Default)]
pub(crate) struct Health {
    /// The world's failure-detection board (`None` outside `launch`, e.g.
    /// in unit harnesses). All hot-path health checks are plain atomic
    /// loads; the expensive reap runs only on a death-epoch transition.
    pub(crate) board: Option<Arc<HealthBoard>>,
    /// Death / revocation epoch last reaped / drained at.
    seen_death_epoch: u64,
    seen_revoke_epoch: u64,
    /// Whether the communicator is currently revoked: pending work has
    /// been drained with [`MpiError::Revoked`] and new operations outside
    /// the shrink-agreement tag band are refused.
    pub(crate) revoked: bool,
    /// Peers already reaped (a death epoch can cover several deaths; each
    /// peer is reaped exactly once).
    reaped_peers: HashSet<Rank>,
    /// Peers ever counted into `peers_suspected` (count distinct peers,
    /// not observations).
    suspect_noted: HashSet<Rank>,
    /// MPI entry operations (`isend`/`irecv`) issued so far — the kill
    /// schedule's op counter.
    ops_posted: u64,
    /// Fail-stop trigger: when set, the rank kills itself (teardown +
    /// [`KillMarker`] unwind) upon issuing its `kill_after`-th entry op.
    pub(crate) kill_after: Option<u64>,
}

/// Whether a slot write of this kind has a request that fails with it
/// (the EAGER's send, or the handshake an RTS/RTR opened). The other
/// kinds are answers and credits: nobody waits on the write itself.
fn owned(kind: PacketKind) -> bool {
    matches!(kind, PacketKind::Eager | PacketKind::Rts | PacketKind::Rtr)
}

impl Engine {
    // ---- tracked work requests ---------------------------------------------

    /// Post a send-side work request with its completion routing recorded
    /// in the inflight table. A synchronous post failure (the QP refused
    /// the WR — no completion will ever arrive) is treated as a fatal
    /// completion, but without the recovery traffic: the QP itself is the
    /// thing that is broken.
    pub(crate) fn post_tracked(&mut self, ctx: &mut Ctx, dst: Rank, mut wr: SendWr, kind: WrKind) {
        let coalesce = std::mem::replace(&mut self.wr.coalesce_next_post, false);
        // The inflight-table handle IS the wr_id: insert first to obtain
        // it, then stamp the WR (both the posted one and the stored copy
        // used for retries).
        let wr_id = self.wr.inflight.insert(InflightWr {
            wr,
            dst,
            attempts: 1,
            kind,
        });
        wr.wr_id = wr_id;
        if let Some(entry) = self.wr.inflight.get_mut(wr_id) {
            entry.wr.wr_id = wr_id;
        }
        let posted = self.ch.post(ctx, &mut self.stats, dst, wr, coalesce);
        if posted.is_err() {
            if let Some(entry) = self.wr.inflight.remove(wr_id) {
                self.fail_wr(ctx, entry, WcStatus::RemoteAccessError, false);
            }
        }
    }

    /// Route one work completion: success completes the tracked WR;
    /// errors are classified into bounded retry (transient statuses),
    /// unbounded retry (ownerless control packets, which must eventually
    /// land or the peer's ring wedges), or permanent failure of the
    /// owning request — never a panic, never a dead rank.
    pub(crate) fn handle_wc(&mut self, ctx: &mut Ctx, wc: Wc) {
        let Some(entry) = self.wr.inflight.remove(wc.wr_id) else {
            return;
        };
        if wc.status == WcStatus::Success {
            self.release_stage(&entry);
            self.complete_wr(ctx, entry);
            return;
        }
        self.stats.wr_faults += 1;
        let rank = self.rank;
        let (peer, wr_id, transient) = (entry.dst, wc.wr_id, wc.status.is_transient());
        self.rec.trace(|| TraceEvent::WrFault {
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
            match self.health.board.clone() {
                Some(board) => {
                    self.release_stage(&entry);
                    self.promote_dead(&board, peer);
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
        // A control packet nobody owns must eventually land, or the
        // peer's inbound stream wedges: it retries without bound.
        let ownerless_ctrl =
            matches!(entry.kind, WrKind::Ring { hdr, req: None, .. } if !owned(hdr.kind));
        if ownerless_ctrl || (transient && entry.attempts <= self.cfg.retry_limit) {
            self.schedule_retry(ctx, entry);
        } else {
            self.fail_wr(ctx, entry, wc.status, true);
        }
    }

    /// `entry`, already out of the inflight table, will not be posted
    /// again: if it was a slot write, its staging slot is free.
    fn release_stage(&mut self, entry: &InflightWr) {
        if let WrKind::Ring { stage, .. } = entry.kind {
            self.ch.release_stage(entry.dst, stage);
        }
    }

    /// A tracked work request completed successfully. A request that
    /// already ended out-of-band (peer-death reap, or a revocation drained
    /// it) keeps that outcome: the late success changes nothing.
    fn complete_wr(&mut self, ctx: &mut Ctx, entry: InflightWr) {
        let me = self.rank;
        let req = match entry.kind {
            WrKind::Ring { req: None, .. } => return,
            WrKind::Ring { req: Some(id), .. } => id,
            WrKind::RndvRead { req } | WrKind::RndvWrite { req } => req,
        };
        match (entry.kind, self.wr_owner(req)) {
            (WrKind::Ring { hdr, .. }, Some(ReqState::EagerSend { status })) => {
                let status = *status;
                self.resolve(ctx, req, Ok(status));
                self.ch
                    .msg_life(ctx, me, entry.dst, hdr.seq, MsgStage::Complete, hdr.len);
            }
            (
                WrKind::RndvRead { .. },
                Some(ReqState::RndvRecvReading {
                    src,
                    seq,
                    status,
                    truncated,
                    ..
                }),
            ) => {
                let (src, seq, status, truncated) = (*src, *seq, *status, truncated.clone());
                // The stage ends when the data has landed, before the
                // lifecycle edge that says so.
                self.close_span(ctx, req);
                self.ch
                    .msg_life(ctx, src, me, seq, MsgStage::RdmaDone, status.len);
                let completed = truncated.is_none();
                self.resolve(ctx, req, truncated.map_or(Ok(status), Err));
                self.stats.bytes_received += status.len;
                let done = PacketHeader::control(PacketKind::Done, me, status.tag, seq, status.len);
                self.answer(ctx, src, done);
                if completed {
                    self.ch
                        .msg_life(ctx, src, me, seq, MsgStage::Complete, status.len);
                }
            }
            (
                WrKind::RndvWrite { .. },
                Some(ReqState::RndvSendWriting {
                    dst,
                    seq,
                    full_len,
                    status,
                    ..
                }),
            ) => {
                // Data placed; the source is free again. Tell the receiver.
                let (dst, seq, len, status) = (*dst, *seq, *full_len, *status);
                self.close_span(ctx, req);
                self.ch.msg_life(ctx, me, dst, seq, MsgStage::RdmaDone, len);
                self.resolve(ctx, req, Ok(status));
                let done = PacketHeader::control(PacketKind::DoneWrite, me, status.tag, seq, len);
                self.answer(ctx, dst, done);
                self.ch.msg_life(ctx, me, dst, seq, MsgStage::Complete, len);
            }
            // The request is gone, or in no state that expects this
            // completion: nothing to advance, so it is dropped.
            _ => {}
        }
    }

    /// The live (not yet ended) request `req`, if any.
    fn wr_owner(&self, req: u64) -> Option<&ReqState> {
        self.state(req)
            .filter(|st| !matches!(st, ReqState::Ended(_)))
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
        self.rec
            .sample(Phase::Backoff, 0, Some(entry.dst), backoff.as_nanos());
        self.msg_life_wr(ctx, &entry, MsgStage::Backoff);
        entry.attempts += 1;
        // Re-insert under a fresh handle (the caller removed the entry to
        // classify its completion). The WR is re-stamped with the current
        // handle at each re-post, so the eventual completion still routes.
        let new_id = self.wr.inflight.insert(entry);
        let due = ctx.now() + backoff;
        self.wr.retry_due.arm(due, new_id);
        self.progress_event
            .notify_at(self.res.cluster().scheduler(), due);
    }

    /// Lifecycle edge for a slot write being retried (RDMA reads and
    /// writes record none).
    fn msg_life_wr(&self, ctx: &Ctx, entry: &InflightWr, stage: MsgStage) {
        if let WrKind::Ring { hdr, .. } = entry.kind {
            if let Some((src, dst)) = self.ch.msg_id(hdr.kind, entry.dst, true) {
                self.ch.msg_life(ctx, src, dst, hdr.seq, stage, hdr.len);
            }
        }
    }

    /// Re-post WRs whose backoff has elapsed. One whose owner was reaped
    /// meanwhile is gone from the inflight table, and skipped.
    pub(crate) fn pump_retries(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        while let Some(wr_id) = self.wr.retry_due.pop_due(now) {
            let Some(entry) = self.wr.inflight.get(wr_id) else {
                continue;
            };
            let (dst, mut wr, attempt) = (entry.dst, entry.wr, entry.attempts);
            wr.wr_id = wr_id;
            let rank = self.rank;
            self.rec.trace(|| TraceEvent::WrRetry {
                rank,
                peer: dst,
                wr_id,
                attempt,
            });
            self.stats.wr_retries += 1;
            self.msg_life_wr(ctx, entry, MsgStage::Retry);
            if self.ch.post(ctx, &mut self.stats, dst, wr, false).is_err() {
                if let Some(entry) = self.wr.inflight.remove(wr_id) {
                    self.fail_wr(ctx, entry, WcStatus::RemoteAccessError, false);
                }
            }
        }
    }

    /// A send-side work request failed permanently: fail the owning
    /// request (only that request — the rank and all other traffic stay
    /// alive), notify the peer so its side resolves too, and keep the
    /// slot stream consumable. `recover` is false only for synchronous
    /// post failures, where the QP itself refused the WR and recovery
    /// traffic through it would be futile.
    pub(crate) fn fail_wr(
        &mut self,
        ctx: &mut Ctx,
        entry: InflightWr,
        status: WcStatus,
        recover: bool,
    ) {
        self.stats.transport_failures += 1;
        let rank = self.rank;
        let (dst, attempts) = (entry.dst, entry.attempts);
        let failed = |op| MpiError::Transport {
            status,
            op,
            attempts,
        };
        // Before anything below stages the filler: it goes where the dead
        // packet was.
        self.release_stage(&entry);
        match entry.kind {
            WrKind::Ring {
                hdr, slot_seq, req, ..
            } => {
                let seq = hdr.seq;
                if !owned(hdr.kind) {
                    // Ownerless control packets only land here on a
                    // synchronous post failure.
                    self.stats.ctrl_abandoned += 1;
                    return;
                }
                self.rec.trace(|| TraceEvent::TransportFail {
                    rank,
                    peer: dst,
                    seq,
                });
                // The receiver is still waiting for this very slot
                // sequence: whatever tells it (or, with nobody to tell, a
                // CREDIT) must land in the dead packet's slot.
                let filler = if hdr.kind == PacketKind::Rtr {
                    let idx = self.mq.recv_q.iter().position(|r| r.advertised(dst, seq));
                    if let Some(i) = idx {
                        let posted = self.take_posted(ctx, i);
                        self.resolve(ctx, posted.req, Err(failed(TransportOp::CtrlWrite)));
                        // The sender never saw our RTR; its RTS (or eager
                        // packet) for this seq will arrive later and must
                        // not match another receive.
                        self.mq.dead_rx.insert((dst, seq));
                    }
                    self.credit_header(dst)
                } else {
                    // The owning send of an RTS is discovered through
                    // (dst, seq): control packets carry no request id.
                    let (owner, op) = match hdr.kind {
                        PacketKind::Eager => (req, TransportOp::EagerWrite),
                        _ => (
                            self.awaiting_send(dst, seq).map(|(id, _)| id),
                            TransportOp::CtrlWrite,
                        ),
                    };
                    if let Some(id) = owner {
                        self.resolve(ctx, id, Err(failed(op)));
                    }
                    PacketHeader::control(PacketKind::NackSend, rank, hdr.tag, seq, 0)
                };
                if recover {
                    self.transmit(ctx, dst, filler, None, None, Some(slot_seq));
                }
            }
            WrKind::RndvRead { req } | WrKind::RndvWrite { req } => {
                // Ended out-of-band while the transfer was in flight:
                // nothing left to fail.
                let (peer, seq, tag, op, nack) = match self.state(req) {
                    Some(ReqState::RndvRecvReading {
                        src, seq, status, ..
                    }) => (
                        *src,
                        *seq,
                        status.tag,
                        TransportOp::RndvRead,
                        PacketKind::Nack,
                    ),
                    Some(ReqState::RndvSendWriting {
                        dst, seq, status, ..
                    }) => (
                        *dst,
                        *seq,
                        status.tag,
                        TransportOp::RndvWrite,
                        PacketKind::NackWrite,
                    ),
                    _ => return,
                };
                self.resolve(ctx, req, Err(failed(op)));
                self.rec
                    .trace(|| TraceEvent::TransportFail { rank, peer, seq });
                if recover {
                    let nack = PacketHeader::control(nack, rank, tag, seq, 0);
                    self.answer(ctx, peer, nack);
                }
            }
        }
    }

    // ---- handshake watchdogs -----------------------------------------------

    /// Arm (or re-arm) a handshake watchdog, keeping its handle with the
    /// handshake it guards. The lazy-connect one runs on the command
    /// timeout — the out-of-band channel can lose the Req or its Ack; a
    /// rendezvous one is a no-op when `rndv_timeout` is off. A handshake
    /// that already ended — a re-issue whose post failed on the spot
    /// fails its request — arms nothing.
    pub(crate) fn arm_watchdog(&mut self, ctx: &mut Ctx, kind: TimeoutKind) {
        let period = match kind {
            TimeoutKind::Conn { .. } => Some(dcfa::CMD_TIMEOUT),
            _ => self.cfg.rndv_timeout,
        };
        let Some(period) = period else { return };
        let Engine { wr, reqs, ch, .. } = self;
        let held = match kind {
            TimeoutKind::Conn { peer, .. } => ch.conn_watchdog(peer),
            TimeoutKind::Rts { req } | TimeoutKind::Rtr { req } => {
                reqs.get_mut(req).and_then(|r| r.state.watchdog_mut())
            }
        };
        let Some(held) = held else { return };
        let due = ctx.now() + period;
        *held = Some(wr.watchdogs.arm(due, kind));
        self.wake_for_watchdogs(due);
    }

    /// `state` has stopped waiting for its handshake's answer — it has
    /// it, or will never get one: cancel the watchdog armed on it, if any.
    pub(crate) fn disarm(&mut self, state: Option<&mut ReqState>) {
        let armed = state
            .and_then(ReqState::watchdog_mut)
            .and_then(Option::take);
        if let Some(timer) = armed {
            self.wr.watchdogs.cancel(timer);
        }
    }

    /// See that the rank is woken at `due` for its watchdog queue: arm a
    /// scheduler wake unless one is already outstanding at or before it.
    /// A rendezvous arms a watchdog per handshake and nearly all of them
    /// resolve long before they are due; one wake moved along the queue
    /// serves them all.
    fn wake_for_watchdogs(&mut self, due: SimTime) {
        if self.wr.watchdog_wake.is_some_and(|armed| armed <= due) {
            return;
        }
        self.wr.watchdog_wake = Some(due);
        #[cfg(test)]
        {
            self.wr.watchdog_wakes_armed += 1;
        }
        self.progress_event
            .notify_at(self.res.cluster().scheduler(), due);
    }

    /// Fire elapsed handshake watchdogs.
    pub(crate) fn pump_rndv_timeouts(&mut self, ctx: &mut Ctx) {
        // No watchdog is due before the armed wake is.
        let now = ctx.now();
        if self.wr.watchdog_wake.is_none_or(|armed| armed > now) {
            return;
        }
        self.wr.watchdog_wake = None;
        while let Some(kind) = self.wr.watchdogs.pop_due(now) {
            self.handle_timeout(ctx, kind);
        }
        // The wake has fired: move it on to the next watchdog (one re-armed
        // just now has seen to itself).
        if let Some(due) = self.wr.watchdogs.front() {
            self.wake_for_watchdogs(due);
        }
    }

    /// Whether the handshake packet `hdr` is still on its way out of this
    /// rank (queued for credit, in flight, or awaiting a retry) — in
    /// which case re-issuing it would be premature.
    fn ctrl_outstanding(&self, dst: Rank, hdr: &PacketHeader) -> bool {
        let same = |h: &PacketHeader| h.kind == hdr.kind && h.seq == hdr.seq;
        self.ch.ctrl_queued(dst, same)
            || self.wr.inflight.iter().any(|(_, e)| {
                e.dst == dst && matches!(&e.kind, WrKind::Ring { hdr: h, .. } if same(h))
            })
    }

    fn handle_timeout(&mut self, ctx: &mut Ctx, kind: TimeoutKind) {
        let (dst, hdr) = match kind {
            TimeoutKind::Conn { peer, attempt } => {
                self.handle_conn_timeout(ctx, peer, attempt);
                return;
            }
            TimeoutKind::Rts { req } => {
                let Some(ReqState::RndvSendAwaitDone { dst, hdr, .. }) = self.state(req) else {
                    return;
                };
                (*dst, *hdr)
            }
            TimeoutKind::Rtr { req } => {
                // A queued receive that advertised an RTR is still
                // waiting for its DONE-WRITE.
                let Some(posted) = self.mq.recv_q.iter().find(|r| r.req == req) else {
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
            self.arm_watchdog(ctx, kind);
            return;
        }
        self.stats.handshake_reissues += 1;
        self.replay(ctx, dst, hdr);
        self.arm_watchdog(ctx, kind);
    }

    /// The connect handshake toward `peer` timed out: re-issue the Req,
    /// or — past the retry budget — declare the peer dead rather than
    /// retrying forever against a corpse.
    fn handle_conn_timeout(&mut self, ctx: &mut Ctx, peer: Rank, attempt: u32) {
        debug_assert!(self.ch.unwired(peer), "wiring cancels the watchdog");
        // The reap already failed everything toward a dead peer.
        if self.board_says_dead(peer) {
            return;
        }
        if attempt > dcfa::CMD_RETRY_LIMIT {
            // Without a board there is nothing better than keeping the
            // queued packets parked; the caller's own timeout machinery
            // (or test harness) owns the verdict.
            if let Some(board) = self.health.board.clone() {
                self.promote_dead(&board, peer);
                self.observe_health(ctx);
            }
            return;
        }
        self.ch.reissue_connect(&self.res, peer);
        self.stats.conn_retries += 1;
        let rank = self.rank;
        self.rec.trace(|| TraceEvent::ConnRetry {
            rank,
            peer,
            attempt,
        });
        let attempt = attempt + 1;
        self.arm_watchdog(ctx, TimeoutKind::Conn { peer, attempt });
    }

    // ---- rank death, revocation, shrink ------------------------------------

    /// Count one MPI entry operation and fire the fail-stop trigger when
    /// the kill schedule says so: tear the rank's fabric presence down
    /// through the board (QPs error, daemon sessions die) and unwind.
    pub(crate) fn note_op(&mut self) {
        self.health.ops_posted += 1;
        if self
            .health
            .kill_after
            .is_some_and(|k| self.health.ops_posted >= k)
        {
            self.die(true);
        }
    }

    /// Unwind this fail-stopped rank out of its process body; `teardown`
    /// when the rank kills itself and must first take its own fabric
    /// presence down (an external kill already did).
    fn die(&mut self, teardown: bool) -> ! {
        let rank = self.rank;
        self.rec.trace(|| TraceEvent::RankKilled { rank });
        self.res.abandon();
        if teardown {
            self.res.cluster().kill_rank(rank);
        }
        std::panic::panic_any(KillMarker);
    }

    /// Observe the health board: unwind if this rank was fail-stopped
    /// externally, reap on a death-epoch transition, drain on a
    /// revocation-epoch transition. Steady state is three atomic loads.
    pub(crate) fn observe_health(&mut self, ctx: &mut Ctx) {
        let Some(board) = self.health.board.clone() else {
            return;
        };
        if board.is_killed(self.rank) {
            self.die(false);
        }
        let de = board.death_epoch();
        if de != self.health.seen_death_epoch {
            self.health.seen_death_epoch = de;
            self.reap_dead_peers(ctx, &board);
        }
        let re = board.revoke_epoch();
        if re != self.health.seen_revoke_epoch {
            self.health.seen_revoke_epoch = re;
            self.pump_revoke(ctx);
        }
    }

    /// Whether the board has promoted `r` to `Dead` (a plain atomic load).
    pub(crate) fn board_says_dead(&self, r: Rank) -> bool {
        let board = self.health.board.as_ref();
        board.is_some_and(|b| b.state(r) == PeerState::Dead)
    }

    /// [`Self::board_says_dead`], counting first-time `Suspect`
    /// observations along the way.
    pub(crate) fn peer_dead(&mut self, r: Rank) -> bool {
        let Some(board) = &self.health.board else {
            return false;
        };
        let state = board.state(r);
        if state == PeerState::Suspect && self.health.suspect_noted.insert(r) {
            self.stats.peers_suspected += 1;
        }
        state == PeerState::Dead
    }

    /// Declare `peer` dead on the board ourselves (its QP flushed, or it
    /// never answered the connect handshake).
    fn promote_dead(&self, board: &HealthBoard, peer: Rank) {
        let sched = self.res.cluster().scheduler();
        board.promote_dead(sched, peer, sched.now());
    }

    /// The failure gate of `isend`/`irecv`/`probe`: refuse with
    /// `Revoked` outside the shrink band on a revoked communicator, and
    /// with `PeerFailed` when the named peer is dead. Run at entry and
    /// again right before the operation becomes reachable only by the
    /// one-shot reap/drain sweeps — those run once per verdict and
    /// cannot see an operation still between the two gates.
    pub(crate) fn gate(&mut self, peer: Option<Rank>, shrink_band: bool) -> Result<(), MpiError> {
        if self.health.revoked && !shrink_band {
            return Err(MpiError::Revoked);
        }
        match peer {
            Some(r) if self.peer_dead(r) => Err(MpiError::PeerFailed(r)),
            _ => Ok(()),
        }
    }

    /// Reap every newly dead peer. Runs only on a death-epoch transition.
    fn reap_dead_peers(&mut self, ctx: &mut Ctx, board: &Arc<HealthBoard>) {
        let _dev = crate::hotpath::pause();
        for d in 0..self.size {
            if d == self.rank || !board.is_dead(d) || !self.health.reaped_peers.insert(d) {
                continue;
            }
            self.stats.peer_deaths_detected += 1;
            let rank = self.rank;
            self.rec.trace(|| TraceEvent::PeerReaped { rank, peer: d });
            self.reap_one(ctx, d);
        }
    }

    /// Reap dead peer `d`: fail requests that can never complete with
    /// [`MpiError::PeerFailed`] (only those — everything else on this
    /// rank stays alive), drop in-flight and queued traffic toward the
    /// corpse, and reclaim its stash/replay state.
    fn reap_one(&mut self, ctx: &mut Ctx, d: Rank) {
        // In-flight WRs toward the corpse first: removing them here means
        // their eventual flush completions miss in `handle_wc` (stale
        // wr_id) instead of triggering NACK recovery toward a dead QP.
        let toward = |(id, e): (u64, &InflightWr)| (e.dst == d).then_some(id);
        let dead_wrs: Vec<u64> = self.wr.inflight.iter().filter_map(toward).collect();
        let mut reclaimed = dead_wrs.len() as u64;
        for id in dead_wrs {
            if let Some(entry) = self.wr.inflight.remove(id) {
                self.release_stage(&entry);
            }
        }
        // Requests whose progress depends on the corpse.
        let depends = |(id, st): (u64, &ReqState)| {
            let hit = match st {
                ReqState::EagerSend { status } => status.source == d,
                ReqState::RndvSendAwaitDone { dst, .. } | ReqState::RndvSendWriting { dst, .. } => {
                    *dst == d
                }
                ReqState::RndvRecvReading { src, .. } => *src == d,
                _ => false,
            };
            hit.then_some(id)
        };
        let states = self.reqs.iter().map(|(id, r)| (id, &r.state));
        let dead_reqs: Vec<u64> = states.filter_map(depends).collect();
        reclaimed += dead_reqs.len() as u64;
        for id in dead_reqs {
            self.resolve(ctx, id, Err(MpiError::PeerFailed(d)));
        }
        // Posted receives sourced from the corpse (any-source receives may
        // still match a live sender and stay), and its unexpected
        // messages, which have no receiver left to claim them.
        reclaimed += self.fail_posted(ctx, |r| r.src == Src::Rank(d), MpiError::PeerFailed(d));
        reclaimed += self.purge_unexpected(|src, _| src == d, false);
        // Pair-local state: queued control packets, reorder stash,
        // handshake replay maps, stashed RTRs, dead-receive tombstones.
        reclaimed += self.ch.reap(d);
        let pair = &mut self.mq.pairs[d];
        reclaimed +=
            (pair.stashed_rtrs.len() + pair.served_done.len() + pair.served_dw.len()) as u64;
        pair.stashed_rtrs.clear();
        pair.served_done.clear();
        pair.served_dw.clear();
        let before = self.mq.dead_rx.len();
        self.mq.dead_rx.retain(|&(r, _)| r != d);
        reclaimed += (before - self.mq.dead_rx.len()) as u64;
        self.stats.dead_reclaimed += reclaimed;
    }

    /// Drain this rank's side of a revocation: every pending request and
    /// posted receive ends with [`MpiError::Revoked`]; unexpected
    /// messages are discarded.
    ///
    /// The shrink-agreement band is exempt from the drain throughout:
    /// `shrink` runs *on* the revoked communicator (ULFM semantics), so a
    /// second revocation arriving mid-agreement must not eat the
    /// agreement's own messages — that would wedge the recovery at an
    /// unchanged death epoch.
    fn pump_revoke(&mut self, ctx: &mut Ctx) {
        let _dev = crate::hotpath::pause();
        self.health.revoked = true;
        self.stats.revokes_observed += 1;
        let rank = self.rank;
        self.rec.trace(|| TraceEvent::RevokeObserved { rank });
        // Posted receives first — they hold RTR leases.
        let band = |tag: TagSel| matches!(tag, TagSel::Tag(t) if is_shrink_tag(t));
        let mut revoked = self.fail_posted(ctx, |r| !band(r.tag), MpiError::Revoked);
        let spared: Vec<u64> = self.mq.recv_q.iter().map(|r| r.req).collect();
        // Every other live request.
        let live = |(id, st): (u64, &ReqState)| {
            let live = match st {
                ReqState::Ended(_) => false,
                ReqState::EagerSend { status } => !is_shrink_tag(status.tag),
                _ => !spared.contains(&id),
            };
            live.then_some(id)
        };
        let states = self.reqs.iter().map(|(id, r)| (id, &r.state));
        let live: Vec<u64> = states.filter_map(live).collect();
        revoked += live.len() as u64;
        for id in live {
            self.resolve(ctx, id, Err(MpiError::Revoked));
        }
        self.stats.reqs_revoked += revoked;
        // Shrink-band arrivals stay (an agreement report that landed
        // before its gather recv was posted).
        self.stats.dead_reclaimed += self.purge_unexpected(|_, tag| !is_shrink_tag(tag), true);
    }

    /// Complete a shrink at `epoch`: the communicator is un-revoked and
    /// unexpected messages from stale shrink attempts (epoch at or below
    /// the new floor) are purged.
    pub(crate) fn complete_shrink(&mut self, epoch: u64, survivors: u64) {
        self.health.revoked = false;
        self.rec
            .trace(|| TraceEvent::ShrinkCommit { epoch, survivors });
        let floor_tag = SHRINK_TAG_BASE + (epoch & 0xFFFF) as Tag;
        self.stats.dead_reclaimed +=
            self.purge_unexpected(|_, tag| is_shrink_tag(tag) && tag <= floor_tag, true);
    }

    /// Cancel a posted receive that will never be waited on (shrink
    /// agreement restart): the request handle is consumed and any RTR
    /// pin released. The message may still arrive — it lands in the
    /// unexpected queue and is purged by the shrink floor.
    pub(crate) fn cancel_recv(&mut self, ctx: &mut Ctx, req: Request) {
        if let Some(i) = self.mq.recv_q.iter().position(|r| r.req == req.0) {
            self.take_posted(ctx, i);
        }
        self.close_span(ctx, req.0);
        let mut gone = self.reqs.remove(req.0).map(|r| r.state);
        self.disarm(gone.as_mut());
    }
}
