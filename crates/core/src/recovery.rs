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
//! What a completion, a failure or a watchdog does to its request is a
//! row of [`crate::protocol::ROWS`]; requests end in [`Engine::resolve`].

use std::collections::HashSet;
use std::sync::Arc;

use fabric::{HealthBoard, PeerState};
use simcore::{Ctx, SimDuration, SimTime, TimerQueue};
use verbs::{SendWr, Wc, WcStatus};

use crate::engine::{is_shrink_tag, Engine, KillMarker, Req, ReqState, SHRINK_TAG_BASE};
use crate::metrics::Phase;
use crate::packet::{PacketHeader, PacketKind};
use crate::protocol::{Event, Hit, Wr, NO_PACKET};
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

impl WrKind {
    /// The work request as [`crate::protocol::ROWS`] names it, the request
    /// that owns it if that is known, and the packet it carries.
    fn parts(&self) -> (Wr, Option<u64>, PacketHeader) {
        match *self {
            WrKind::Ring { hdr, req, .. } => (Wr::Slot(hdr.kind), req, hdr),
            WrKind::RndvRead { req } => (Wr::Read, Some(req), NO_PACKET),
            WrKind::RndvWrite { req } => (Wr::Write, Some(req), NO_PACKET),
        }
    }
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
    /// A rendezvous handshake: re-issue the RTS or RTR of request `req`
    /// if its answer hasn't arrived.
    Handshake { req: u64 },
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
    /// classified. The table handle IS the wr_id, so a completion always
    /// finds its owner, and a stale handle (its request failed under the
    /// retry) misses on its generation.
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
    pub(crate) seen_death_epoch: u64,
    pub(crate) seen_revoke_epoch: u64,
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

    /// Post a send-side work request, tracked in the inflight table. A post
    /// the QP refuses (no completion will ever arrive) fails like a fatal
    /// completion, without recovery traffic through the broken QP.
    pub(crate) fn post_tracked(&mut self, ctx: &mut Ctx, dst: Rank, mut wr: SendWr, kind: WrKind) {
        let coalesce = std::mem::replace(&mut self.wr.coalesce_next_post, false);
        // The inflight-table handle IS the wr_id: insert first to obtain
        // it, then stamp the posted WR (a retry stamps the stored copy
        // with the handle it has then).
        let wr_id = self.wr.inflight.insert(InflightWr {
            wr,
            dst,
            attempts: 1,
            kind,
        });
        wr.wr_id = wr_id;
        let posted = self.ch.post(ctx, &mut self.stats, dst, wr, coalesce);
        if posted.is_err() {
            if let Some(entry) = self.wr.inflight.remove(wr_id) {
                self.fail_wr(ctx, entry, WcStatus::RemoteAccessError, false);
            }
        }
    }

    /// Route one work completion: success is a row; an error is retried
    /// with a bound (transient statuses) or without one (ownerless control
    /// packets, or the peer's ring wedges), or fails its owner for good.
    pub(crate) fn handle_wc(&mut self, ctx: &mut Ctx, wc: Wc) {
        let Some(entry) = self.wr.inflight.remove(wc.wr_id) else {
            return;
        };
        if wc.status == WcStatus::Success {
            self.release_stage(&entry);
            let (wr, req, hdr) = entry.kind.parts();
            self.dispatch(ctx, Event::Sent(wr), Hit::new(entry.dst, hdr, req));
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
                    // That reap is one-shot per peer, and a WR posted after
                    // it (its entry guards raced the promotion) would leave
                    // its owner pending forever: `reap_one` is idempotent,
                    // so re-run it for every flush.
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
                self.life(ctx, src, dst, hdr.seq, stage, hdr.len);
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

    /// A send-side work request failed permanently: its row fails the one
    /// request owning it and tells the peer, and a filler keeps the slot
    /// stream consumable. `recover` is false when the QP itself refused
    /// the post, and recovery traffic through it would be futile.
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
        let (wr, mut req, hdr) = entry.kind.parts();
        let op = match wr {
            Wr::Slot(kind) if !owned(kind) => {
                // Ownerless control packets only land here on a
                // synchronous post failure.
                self.stats.ctrl_abandoned += 1;
                return;
            }
            Wr::Slot(PacketKind::Eager) => TransportOp::EagerWrite,
            Wr::Slot(_) => TransportOp::CtrlWrite,
            Wr::Read => TransportOp::RndvRead,
            Wr::Write => TransportOp::RndvWrite,
        };
        if let Wr::Slot(kind) = wr {
            let (peer, seq) = (dst, hdr.seq);
            self.rec
                .trace(|| TraceEvent::TransportFail { rank, peer, seq });
            if kind != PacketKind::Eager {
                // An RTS's send or an RTR's receive: found by (dst, seq).
                req = self.find(dst, seq, kind == PacketKind::Rts);
            }
        }
        let mut hit = Hit::new(dst, hdr, req);
        hit.fault = Some((failed(op), recover));
        self.dispatch(ctx, Event::Failed(wr), hit);
        // The receiver is still waiting for a dead slot write's slot
        // sequence: whatever tells it (or, with nobody to tell, a CREDIT)
        // must land in the dead packet's slot.
        if let (WrKind::Ring { slot_seq, .. }, true) = (entry.kind, recover) {
            let filler = match hdr.kind {
                PacketKind::Rtr => self.credit_header(dst),
                _ => PacketHeader::control(PacketKind::NackSend, rank, hdr.tag, hdr.seq, 0),
            };
            self.transmit(ctx, dst, filler, None, None, Some(slot_seq));
        }
    }

    // ---- handshake watchdogs -----------------------------------------------

    /// Arm (or re-arm) a handshake watchdog, keeping its handle with the
    /// handshake it guards. The lazy-connect one runs on the command
    /// timeout — the out-of-band channel can lose the Req or its Ack; a
    /// rendezvous one is a no-op when `rndv_timeout` is off.
    pub(crate) fn arm_watchdog(&mut self, ctx: &mut Ctx, kind: TimeoutKind) {
        let period = match kind {
            TimeoutKind::Conn { .. } => Some(dcfa::CMD_TIMEOUT),
            _ => self.cfg.rndv_timeout,
        };
        let Some(period) = period else { return };
        let Engine { wr, reqs, ch, .. } = self;
        let held = match kind {
            TimeoutKind::Conn { peer, .. } => ch.conn_watchdog(peer),
            TimeoutKind::Handshake { req } => reqs.get_mut(req).map(|r| &mut r.watchdog),
        };
        let Some(held) = held else { return };
        let due = ctx.now() + period;
        *held = Some(wr.watchdogs.arm(due, kind));
        self.wake_for_watchdogs(due);
    }

    /// Request `req` has stopped waiting for its handshake's answer — it
    /// has it, or will never get one: cancel the watchdog armed on it.
    pub(crate) fn disarm(&mut self, req: u64) {
        let armed = self.reqs.get_mut(req).and_then(|r| r.watchdog.take());
        if let Some(timer) = armed {
            self.wr.watchdogs.cancel(timer);
        }
    }

    /// See that the rank is woken at `due` for its watchdog queue, unless
    /// a wake is already armed at or before it: nearly every handshake
    /// resolves long before its watchdog is due, and one wake moved along
    /// the queue serves them all.
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
            match kind {
                TimeoutKind::Conn { peer, attempt } => self.handle_conn_timeout(ctx, peer, attempt),
                TimeoutKind::Handshake { req } => {
                    let hit = Hit::new(self.rank, NO_PACKET, Some(req));
                    self.dispatch(ctx, Event::Watchdog, hit);
                }
            }
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
    pub(crate) fn ctrl_outstanding(&self, dst: Rank, hdr: &PacketHeader) -> bool {
        let same = |h: &PacketHeader| h.kind == hdr.kind && h.seq == hdr.seq;
        self.ch.ctrl_queued(dst, same)
            || self.wr.inflight.iter().any(|(_, e)| {
                e.dst == dst && matches!(&e.kind, WrKind::Ring { hdr: h, .. } if same(h))
            })
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
        let health = &mut self.health;
        health.ops_posted += 1;
        if health.kill_after.is_some_and(|k| health.ops_posted >= k) {
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

    /// The failure gate of `isend`/`irecv`/`probe`: `Revoked` outside the
    /// shrink band on a revoked communicator, `PeerFailed` toward a dead
    /// peer. Run at entry and again right before the operation becomes
    /// reachable only by the one-shot reap/drain sweeps.
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
        reclaimed += self.resolve_all(ctx, MpiError::PeerFailed(d), |_, st| match st {
            ReqState::EagerSend { status } => status.source == d,
            ReqState::RndvSendAwaitDone { dst: p, .. } | ReqState::Rdma { peer: p, .. } => *p == d,
            _ => false,
        });
        // Posted receives sourced from the corpse (any-source receives may
        // still match a live sender and stay), and its unexpected
        // messages, which have no receiver left to claim them.
        reclaimed += self.fail_posted(ctx, |r| r.src == Src::Rank(d), MpiError::PeerFailed(d));
        reclaimed += self.purge_unexpected(|src, _| src == d, false);
        // Pair-local state: queued control packets, reorder stash,
        // handshake replay maps, stashed RTRs, dead-receive tombstones.
        reclaimed += self.ch.reap(d);
        if let Some(pair) = self.ch.peers.get_mut(d).map(|e| &mut e.pair) {
            reclaimed +=
                (pair.stashed_rtrs.len() + pair.served_done.len() + pair.served_dw.len()) as u64;
            pair.stashed_rtrs.clear();
            pair.served_done.clear();
            pair.served_dw.clear();
        }
        let before = self.mq.dead_rx.len();
        self.mq.dead_rx.retain(|&(r, _)| r != d);
        reclaimed += (before - self.mq.dead_rx.len()) as u64;
        self.stats.dead_reclaimed += reclaimed;
    }

    /// End every request `doomed` accepts with `err`, in table order;
    /// returns how many there were.
    fn resolve_all(
        &mut self,
        ctx: &mut Ctx,
        err: MpiError,
        doomed: impl Fn(u64, &ReqState) -> bool,
    ) -> u64 {
        let pick = |(id, r): (u64, &Req)| doomed(id, &r.state).then_some(id);
        let ids: Vec<u64> = self.reqs.iter().filter_map(pick).collect();
        for &id in &ids {
            self.resolve(ctx, id, Err(err.clone()));
        }
        ids.len() as u64
    }

    /// Drain this rank's side of a revocation: every pending request and
    /// posted receive ends with [`MpiError::Revoked`]; unexpected messages
    /// are discarded. The shrink-agreement band is exempt: `shrink` runs
    /// *on* the revoked communicator (ULFM), and a second revocation must
    /// not eat the agreement's own messages.
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
        revoked += self.resolve_all(ctx, MpiError::Revoked, |id, st| match st {
            ReqState::Ended(_) => false,
            ReqState::EagerSend { status } => !is_shrink_tag(status.tag),
            _ => !spared.contains(&id),
        });
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
        let hit = Hit::new(self.rank, NO_PACKET, Some(req.0));
        self.dispatch(ctx, Event::Withdraw, hit);
    }
}
