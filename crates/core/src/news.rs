//! A progress sweep runs only on news (DESIGN.md §19).
//!
//! [`Engine::progress`] looks at every source of protocol work, and each
//! of them notifies the rank's progress event when it has something new:
//!
//! * the send CQ and the shared pool's receive CQ, both created on it;
//! * each inbound ring's MR, whose landed writes notify it
//!   (`set_write_event`);
//! * the lazy-connect directory, on delivery ([`ConnDirectory`]);
//! * the health board's watchers, on a kill, a death verdict, a
//!   revocation or a shrink commit;
//! * the retry backoff and the watchdog wake, through `notify_at` at
//!   their due instants.
//!
//! So a call that finds the event's epoch where the last sweep began
//! would find nothing, and returns at once: [`SweepGate`] keeps that
//! epoch. [`Engine::news`] names what such a call would have missed, and
//! debug builds assert on every skipped sweep that it is nothing, so a
//! source that stops notifying fails by name instead of hanging a rank.
//!
//! [`ConnDirectory`]: crate::ConnDirectory

use simcore::SimTime;

use crate::engine::Engine;

/// Whether a sweep runs, and the progress event's epoch when the last
/// one began.
pub(crate) struct SweepGate {
    /// Set while a sweep runs: `progress` re-entered from a packet
    /// handler does nothing, and the outer sweep picks up the work.
    pub(crate) sweeping: bool,
    swept_at: u64,
    /// Sweeps run and sweeps skipped so far.
    #[cfg(test)]
    pub(crate) run: u64,
    #[cfg(test)]
    pub(crate) skipped: u64,
}

impl SweepGate {
    /// A gate whose first call sweeps.
    pub(crate) fn new() -> SweepGate {
        SweepGate {
            sweeping: false,
            swept_at: u64::MAX,
            #[cfg(test)]
            run: 0,
            #[cfg(test)]
            skipped: 0,
        }
    }

    /// Whether the progress event moved to `epoch` since the last sweep
    /// began; if so, a sweep begins now.
    pub(crate) fn open(&mut self, epoch: u64) -> bool {
        let news = epoch != self.swept_at;
        self.swept_at = epoch;
        #[cfg(test)]
        {
            self.run += u64::from(news);
            self.skipped += u64::from(!news);
        }
        news
    }
}

impl Engine {
    /// The first source holding news that no sweep has seen, by name, or
    /// `None` when a sweep at `now` would find nothing to do.
    pub(crate) fn news(&self, now: SimTime) -> Option<&'static str> {
        let due = |front: Option<SimTime>| front.is_some_and(|t| t <= now);
        let health = &self.health;
        let verdict = health.board.as_ref().is_some_and(|b| {
            b.is_killed(self.rank)
                || b.death_epoch() != health.seen_death_epoch
                || b.revoke_epoch() != health.seen_revoke_epoch
        });
        let sources = [
            (!self.ch.cq.is_empty(), "a send completion"),
            (self.ch.conn.holds(self.rank), "a connect message"),
            (due(self.wr.retry_due.front()), "a retry"),
            (due(self.wr.watchdogs.front()), "a watchdog"),
            (verdict, "a health verdict"),
            (self.ch.unseen_arrival(), "an inbound arrival"),
        ];
        sources
            .into_iter()
            .find_map(|(news, name)| news.then_some(name))
    }
}
