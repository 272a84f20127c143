//! Rank-failure ground truth and the detection lattice.
//!
//! The [`HealthBoard`] is the simulation's stand-in for the gossip /
//! heartbeat plane a real ULFM-style runtime would run over the fabric:
//! one shared board tracks, per rank, the last heartbeat time and a
//! monotone `Alive → Suspect → Dead` classification. Ground truth (the
//! instant a rank was killed) is recorded separately from *detection*
//! (the instant some survivor promoted it to `Dead`), so detection
//! latency is measurable and the protocol layer only ever acts on the
//! detected state — exactly the information a heartbeat sidecar plus
//! QP-error snooping would give it.
//!
//! Determinism: every transition happens in virtual time from scheduler
//! context (heartbeat ticks are self-rescheduling scheduler calls, QP
//! snooping happens in engine progress), so runs replay bit-for-bit.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use simcore::{Scheduler, SimCell, SimDuration, SimEvent, SimTime};

/// Classification of one rank as seen by the detection plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heartbeats current.
    Alive,
    /// Heartbeats stale past `peer_ttl` but not yet past the dead line.
    Suspect,
    /// Promoted dead: heartbeats stale past `3 * peer_ttl`, or a QP to
    /// the rank flushed with an error. Monotone — never leaves.
    Dead,
}

const ST_ALIVE: u64 = 0;
const ST_SUSPECT: u64 = 1;
const ST_DEAD: u64 = 2;

struct RankHealth {
    /// Virtual-time nanos of the last heartbeat.
    last_seen: AtomicU64,
    /// `ST_*` classification (monotone).
    state: AtomicU64,
    /// Ground truth: virtual-time nanos of the kill, `u64::MAX` if alive.
    killed_at: AtomicU64,
    /// Value of `death_epoch` after this rank's promotion to `Dead`
    /// (`u64::MAX` while not promoted). Makes the live set a pure
    /// function of an epoch: rank r is live at epoch e iff
    /// `dead_at_epoch[r] > e`.
    dead_at_epoch: AtomicU64,
}

type Teardown = Box<dyn FnOnce(&Scheduler) + Send>;

/// Shared rank-health board: ground-truth kills, heartbeat freshness,
/// the `Suspect → Dead` lattice, and the epochs the recovery protocol
/// (revoke / shrink agreement) keys off.
pub struct HealthBoard {
    ranks: Vec<RankHealth>,
    /// Bumped once per promotion to `Dead`. The live set at any epoch
    /// value is well defined and monotone shrinking.
    death_epoch: AtomicU64,
    /// Bumped by every `Comm::revoke()` flood.
    revoke_epoch: AtomicU64,
    /// Death epoch of the last committed shrink agreement (0 = none;
    /// epochs are 1-based at the first death so 0 is unambiguous).
    shrink_commit: AtomicU64,
    /// Number of committed shrink agreements.
    shrinks: AtomicU64,
    /// Ranks that finished (exited their process body, killed or not).
    /// Heartbeat sidecars stop once every rank is done, so the event
    /// wheel drains and the simulation terminates.
    done: AtomicUsize,
    kills: AtomicU64,
    detections: AtomicU64,
    /// Detection latency samples (promotion time - kill time), ns.
    detection_latency: SimCell<Vec<u64>>,
    /// Events notified on every kill / promotion / revoke / commit, so
    /// blocked progress loops re-examine the world.
    watchers: SimCell<Vec<SimEvent>>,
    /// Per-rank teardown hooks (error the rank's QPs); run once at kill.
    teardowns: SimCell<Vec<Option<Teardown>>>,
}

impl HealthBoard {
    pub fn new(n: usize) -> Arc<HealthBoard> {
        let ranks = (0..n)
            .map(|_| RankHealth {
                last_seen: AtomicU64::new(0),
                state: AtomicU64::new(ST_ALIVE),
                killed_at: AtomicU64::new(u64::MAX),
                dead_at_epoch: AtomicU64::new(u64::MAX),
            })
            .collect();
        Arc::new(HealthBoard {
            ranks,
            death_epoch: AtomicU64::new(0),
            revoke_epoch: AtomicU64::new(0),
            shrink_commit: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            kills: AtomicU64::new(0),
            detections: AtomicU64::new(0),
            detection_latency: SimCell::new(Vec::new()),
            watchers: SimCell::new(Vec::new()),
            teardowns: SimCell::new((0..n).map(|_| None).collect()),
        })
    }

    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Register an event to notify on every health transition (kill,
    /// promotion, revoke, shrink commit). Engines register their
    /// progress event so blocked waits wake and re-examine peers.
    pub fn register_watcher(&self, ev: SimEvent) {
        self.watchers.lock().push(ev);
    }

    /// Install the teardown hook run (once) when `rank` is killed —
    /// typically "error every QP this rank owns".
    pub fn set_teardown(&self, rank: usize, hook: Teardown) {
        self.teardowns.lock()[rank] = Some(hook);
    }

    fn notify_watchers(&self, sched: &Scheduler) {
        let watchers = self.watchers.lock();
        for w in watchers.iter() {
            w.notify_all(sched);
        }
    }

    // ---- heartbeats and classification ------------------------------------

    /// Record a heartbeat from `rank` at virtual time `now`.
    pub fn beat(&self, rank: usize, now: SimTime) {
        self.ranks[rank]
            .last_seen
            .fetch_max(now.as_nanos(), Ordering::Relaxed);
    }

    /// Classify `rank` as seen at `now` under `ttl`, promoting to `Dead`
    /// (and notifying watchers) when its heartbeat is stale past the
    /// dead line. Returns the (possibly new) state.
    pub fn classify(
        &self,
        sched: &Scheduler,
        rank: usize,
        now: SimTime,
        ttl: SimDuration,
    ) -> PeerState {
        let h = &self.ranks[rank];
        if h.state.load(Ordering::Acquire) == ST_DEAD {
            return PeerState::Dead;
        }
        let age = now
            .as_nanos()
            .saturating_sub(h.last_seen.load(Ordering::Relaxed));
        if age > 3 * ttl.as_nanos() {
            self.promote_dead(sched, rank, now);
            PeerState::Dead
        } else if age > ttl.as_nanos() {
            // Alive -> Suspect only (never demote Dead).
            let _ =
                h.state
                    .compare_exchange(ST_ALIVE, ST_SUSPECT, Ordering::AcqRel, Ordering::Relaxed);
            PeerState::Suspect
        } else {
            PeerState::Alive
        }
    }

    /// Promote `rank` to `Dead` (idempotent). First caller wins: bumps
    /// the death epoch, records the detection-latency sample and wakes
    /// every watcher. Called from heartbeat classification and from
    /// QP-error snooping in engine progress.
    pub fn promote_dead(&self, sched: &Scheduler, rank: usize, now: SimTime) {
        let h = &self.ranks[rank];
        let prev = h.state.swap(ST_DEAD, Ordering::AcqRel);
        if prev == ST_DEAD {
            return;
        }
        let epoch = self.death_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        h.dead_at_epoch.store(epoch, Ordering::Release);
        self.detections.fetch_add(1, Ordering::Relaxed);
        let killed = h.killed_at.load(Ordering::Relaxed);
        if killed != u64::MAX {
            self.detection_latency
                .lock()
                .push(now.as_nanos().saturating_sub(killed));
        }
        self.notify_watchers(sched);
    }

    // ---- ground truth ------------------------------------------------------

    /// Fail-stop `rank` at `now`: record ground truth, run its teardown
    /// hook (error its QPs so in-flight WCs flush) and wake watchers.
    /// Does NOT promote the rank to `Dead` — survivors must *detect*
    /// the failure (heartbeat staleness or QP error snooping).
    pub fn kill(&self, sched: &Scheduler, rank: usize, now: SimTime) {
        let h = &self.ranks[rank];
        if h.killed_at
            .compare_exchange(
                u64::MAX,
                now.as_nanos(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        self.kills.fetch_add(1, Ordering::Relaxed);
        let hook = self.teardowns.lock()[rank].take();
        if let Some(hook) = hook {
            hook(sched);
        }
        self.notify_watchers(sched);
    }

    /// Ground truth: has `rank` been killed?
    pub fn is_killed(&self, rank: usize) -> bool {
        self.ranks[rank].killed_at.load(Ordering::Relaxed) != u64::MAX
    }

    /// Detected state: has `rank` been promoted to `Dead`?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.ranks[rank].state.load(Ordering::Acquire) == ST_DEAD
    }

    /// Detected state without a TTL sweep (no promotion side effects).
    pub fn state(&self, rank: usize) -> PeerState {
        match self.ranks[rank].state.load(Ordering::Acquire) {
            ST_ALIVE => PeerState::Alive,
            ST_SUSPECT => PeerState::Suspect,
            _ => PeerState::Dead,
        }
    }

    // ---- epochs ------------------------------------------------------------

    /// Current death epoch (number of promotions so far).
    pub fn death_epoch(&self) -> u64 {
        self.death_epoch.load(Ordering::Acquire)
    }

    /// Current revocation epoch.
    pub fn revoke_epoch(&self) -> u64 {
        self.revoke_epoch.load(Ordering::Acquire)
    }

    /// Flood a revocation: bump the revoke epoch and wake watchers.
    pub fn revoke(&self, sched: &Scheduler) -> u64 {
        let e = self.revoke_epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.notify_watchers(sched);
        e
    }

    /// The ranks live at death epoch `epoch` — a pure function of the
    /// epoch, identical on every rank that evaluates it.
    pub fn live_at(&self, epoch: u64) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&r| self.ranks[r].dead_at_epoch.load(Ordering::Acquire) > epoch)
            .collect()
    }

    /// Ranks promoted dead at or before `epoch`.
    pub fn dead_at(&self, epoch: u64) -> Vec<usize> {
        (0..self.ranks.len())
            .filter(|&r| self.ranks[r].dead_at_epoch.load(Ordering::Acquire) <= epoch)
            .collect()
    }

    /// Commit the shrink agreement for death epoch `epoch`. Succeeds only
    /// while no further death has been detected (the root's final check);
    /// also reports success if `epoch` is already committed (idempotent
    /// across a restarted root).
    pub fn try_commit_shrink(&self, sched: &Scheduler, epoch: u64) -> bool {
        if epoch == 0 {
            return false; // epoch 0 is the "no shrink yet" sentinel
        }
        if self.shrink_commit.load(Ordering::Acquire) == epoch {
            return true;
        }
        if self.death_epoch.load(Ordering::Acquire) != epoch {
            return false;
        }
        let prev = self.shrink_commit.swap(epoch, Ordering::AcqRel);
        debug_assert!(prev < epoch, "shrink commit must advance");
        self.shrinks.fetch_add(1, Ordering::Relaxed);
        self.notify_watchers(sched);
        true
    }

    /// Death epoch of the last committed shrink (0 = none yet).
    pub fn shrink_commit(&self) -> u64 {
        self.shrink_commit.load(Ordering::Acquire)
    }

    // ---- lifecycle / sidecar ----------------------------------------------

    /// A rank's process body finished (normally or by kill).
    pub fn mark_done(&self) {
        self.done.fetch_add(1, Ordering::AcqRel);
    }

    /// Have all ranks finished? Heartbeat sidecars stop rescheduling.
    pub fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.ranks.len()
    }

    /// Start the heartbeat sidecar for `rank`: a self-rescheduling
    /// scheduler tick (independent of the rank's process, which may be
    /// blocked) that beats its own slot and classifies every peer under
    /// `ttl`. Stops once the rank is killed or every rank has finished.
    pub fn start_sidecar(
        self: &Arc<Self>,
        sched: &Scheduler,
        rank: usize,
        period: SimDuration,
        ttl: SimDuration,
    ) {
        self.beat(rank, sched.now());
        schedule_sidecar_tick(self.clone(), sched, rank, period, ttl);
    }

    // ---- counters ----------------------------------------------------------

    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }

    pub fn detections(&self) -> u64 {
        self.detections.load(Ordering::Relaxed)
    }

    pub fn shrink_count(&self) -> u64 {
        self.shrinks.load(Ordering::Relaxed)
    }

    /// Detection-latency samples (ns), in promotion order.
    pub fn detection_latency_samples(&self) -> Vec<u64> {
        self.detection_latency.lock().clone()
    }
}

impl std::fmt::Debug for HealthBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthBoard")
            .field("ranks", &self.ranks.len())
            .field("kills", &self.kills())
            .field("detections", &self.detections())
            .field("death_epoch", &self.death_epoch())
            .field("revoke_epoch", &self.revoke_epoch())
            .field("shrinks", &self.shrink_count())
            .finish()
    }
}

fn schedule_sidecar_tick(
    board: Arc<HealthBoard>,
    sched: &Scheduler,
    rank: usize,
    period: SimDuration,
    ttl: SimDuration,
) {
    sched.call_after(period, move |s| {
        if board.is_killed(rank) || board.finished() {
            return;
        }
        let now = s.now();
        board.beat(rank, now);
        for peer in 0..board.num_ranks() {
            if peer != rank {
                board.classify(s, peer, now, ttl);
            }
        }
        schedule_sidecar_tick(board, s, rank, period, ttl);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Simulation;

    #[test]
    fn lattice_is_monotone_and_latency_sampled() {
        let sim = Simulation::new();
        let sched = sim.scheduler();
        let b = HealthBoard::new(4);
        let ttl = SimDuration::from_micros(10);
        for r in 0..4 {
            b.beat(r, SimTime(0));
        }
        // Fresh heartbeat: alive.
        assert_eq!(b.classify(&sched, 1, SimTime(1_000), ttl), PeerState::Alive);
        // Stale past ttl: suspect.
        assert_eq!(
            b.classify(&sched, 1, SimTime(15_000), ttl),
            PeerState::Suspect
        );
        // A late heartbeat revives the suspect view only via freshness,
        // never the dead state: kill, let it go stale past 3*ttl.
        b.kill(&sched, 1, SimTime(20_000));
        assert!(b.is_killed(1));
        assert!(!b.is_dead(1), "kill alone is not detection");
        assert_eq!(b.classify(&sched, 1, SimTime(40_000), ttl), PeerState::Dead);
        assert_eq!(b.death_epoch(), 1);
        assert_eq!(b.detections(), 1);
        let lat = b.detection_latency_samples();
        assert_eq!(lat, vec![20_000]);
        // Idempotent.
        b.promote_dead(&sched, 1, SimTime(50_000));
        assert_eq!(b.death_epoch(), 1);
        assert_eq!(b.live_at(1), vec![0, 2, 3]);
        assert_eq!(b.dead_at(1), vec![1]);
        assert_eq!(b.live_at(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shrink_commit_requires_current_epoch() {
        let sim = Simulation::new();
        let sched = sim.scheduler();
        let b = HealthBoard::new(4);
        b.kill(&sched, 2, SimTime(10));
        b.promote_dead(&sched, 2, SimTime(20));
        assert_eq!(b.death_epoch(), 1);
        // Commit for a stale epoch fails.
        assert!(!b.try_commit_shrink(&sched, 0));
        assert!(b.try_commit_shrink(&sched, 1));
        assert_eq!(b.shrink_commit(), 1);
        // Idempotent re-commit (restarted root).
        assert!(b.try_commit_shrink(&sched, 1));
        assert_eq!(b.shrink_count(), 1);
        // A further death invalidates epoch-1 commits but epoch 2 works.
        b.kill(&sched, 3, SimTime(30));
        b.promote_dead(&sched, 3, SimTime(40));
        assert!(!b.try_commit_shrink(&sched, 1) || b.shrink_commit() == 1);
        assert!(b.try_commit_shrink(&sched, 2));
        assert_eq!(b.live_at(b.shrink_commit()), vec![0, 1]);
    }

    #[test]
    fn teardown_hook_runs_once_at_kill() {
        let sim = Simulation::new();
        let sched = sim.scheduler();
        let b = HealthBoard::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        b.set_teardown(
            0,
            Box::new(move |_| {
                h2.fetch_add(1, Ordering::Relaxed);
            }),
        );
        b.kill(&sched, 0, SimTime(5));
        b.kill(&sched, 0, SimTime(6));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(b.kills(), 1);
    }

    #[test]
    fn sidecar_detects_a_killed_rank_and_terminates() {
        let mut sim = Simulation::new();
        let sched = sim.scheduler();
        let b = HealthBoard::new(2);
        let period = SimDuration::from_micros(5);
        let ttl = SimDuration::from_micros(10);
        b.start_sidecar(&sched, 0, period, ttl);
        b.start_sidecar(&sched, 1, period, ttl);
        // Kill rank 1 at t=20us; rank 0 finishes (mark_done) when it
        // observes the death, letting the wheel drain.
        let b2 = b.clone();
        sched.call_after(SimDuration::from_micros(20), move |s| {
            b2.kill(s, 1, s.now());
        });
        let b3 = b.clone();
        sim.spawn("observer", move |ctx| {
            while !b3.is_dead(1) {
                ctx.sleep(SimDuration::from_micros(5));
            }
            b3.mark_done(); // for rank 0
            b3.mark_done(); // for rank 1
        });
        sim.run_expect();
        assert!(b.is_dead(1));
        assert_eq!(b.detections(), 1);
        let lat = b.detection_latency_samples();
        assert_eq!(lat.len(), 1);
        // Detection within a few TTLs of the kill.
        assert!(lat[0] <= 5 * ttl.as_nanos(), "latency {} ns", lat[0]);
    }
}
