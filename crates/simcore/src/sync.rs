//! Synchronization objects connecting device models to processes:
//! one-shot [`Completion`]s, broadcast [`SimEvent`]s and FIFO [`Mailbox`]es.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cell::SimCell;
use crate::engine::{fire_completion, fire_event, Ctx, Scheduler, WakeTarget};
use crate::time::{SimDuration, SimTime};

pub(crate) struct CompletionInner {
    pub(crate) done: bool,
    /// The first waiter, inline: most completions have one, so most never
    /// allocate a list.
    pub(crate) first: Option<WakeTarget>,
    /// Any waiters after the first, in the order they came.
    pub(crate) more: Vec<WakeTarget>,
}

impl CompletionInner {
    pub(crate) fn push(&mut self, waiter: WakeTarget) {
        match self.first {
            None => self.first = Some(waiter),
            Some(_) => self.more.push(waiter),
        }
    }
}

/// A one-shot flag in virtual time. Devices signal it (immediately or at a
/// scheduled instant); processes block on it with [`Ctx::wait`].
#[derive(Clone)]
pub struct Completion {
    inner: Arc<SimCell<CompletionInner>>,
}

impl Default for Completion {
    fn default() -> Self {
        Self::new()
    }
}

impl Completion {
    pub fn new() -> Self {
        Completion {
            inner: Arc::new(SimCell::new(CompletionInner {
                done: false,
                first: None,
                more: Vec::new(),
            })),
        }
    }

    /// True once the completion has fired.
    pub fn is_done(&self) -> bool {
        self.inner.lock().done
    }

    /// Fire at virtual time `t` (clamped to now if `t` is in the past).
    pub fn complete_at(&self, sched: &Scheduler, t: SimTime) {
        let inner = self.inner.clone();
        sched.call_at(t, move |s| fire_completion(s, &inner));
    }

    /// Fire at the current virtual time.
    pub fn complete_now(&self, sched: &Scheduler) {
        fire_completion(sched, &self.inner);
    }

    pub(crate) fn inner(&self) -> &SimCell<CompletionInner> {
        &self.inner
    }
}

pub(crate) struct EventShared {
    /// Notification count. Stored only with `waiters` held (a waiter
    /// re-reads it under that lock before registering, so it cannot miss a
    /// bump) and loaded without it: polling "anything new?" costs no lock.
    /// `Release`/`Acquire`, so whoever sees a new epoch also sees what the
    /// notifier wrote before notifying.
    epoch: AtomicU64,
    /// Who to wake, each with how long after the notification. A notify
    /// drains it in place, so its capacity stays for the next waiter and a
    /// park allocates nothing.
    pub(crate) waiters: SimCell<Vec<(WakeTarget, SimDuration)>>,
}

impl EventShared {
    /// Count one notification. The caller holds `waiters`.
    pub(crate) fn bump_epoch(&self) {
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(next, Ordering::Release);
    }
}

/// A broadcast notification channel in virtual time, analogous to a condition
/// variable. Waiters capture the epoch, test their condition, then sleep
/// until the epoch changes.
#[derive(Clone)]
pub struct SimEvent {
    shared: Arc<EventShared>,
}

impl Default for SimEvent {
    fn default() -> Self {
        Self::new()
    }
}

impl SimEvent {
    pub fn new() -> Self {
        SimEvent {
            shared: Arc::new(EventShared {
                epoch: AtomicU64::new(0),
                waiters: SimCell::new(Vec::new()),
            }),
        }
    }

    /// Current notification epoch. Takes no lock.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Wake all current waiters at the present virtual time.
    pub fn notify_all(&self, sched: &Scheduler) {
        fire_event(sched, &self.shared);
    }

    /// Wake all waiters registered at time `t` when it arrives.
    pub fn notify_at(&self, sched: &Scheduler, t: SimTime) {
        let shared = self.shared.clone();
        sched.call_at(t, move |s| fire_event(s, &shared));
    }

    pub(crate) fn shared(&self) -> &EventShared {
        &self.shared
    }
}

struct MailboxShared<T> {
    /// `queue.len()`, stored only with `queue` held and loaded without it
    /// (`Release`/`Acquire`, like [`EventShared::epoch`]): an empty mailbox
    /// is polled without a lock.
    len: AtomicUsize,
    queue: SimCell<VecDeque<T>>,
}

/// An unbounded FIFO channel in virtual time: sends are instantaneous
/// (callers model any transfer cost themselves); receives block the calling
/// process until an item is available.
pub struct Mailbox<T> {
    shared: Arc<MailboxShared<T>>,
    event: SimEvent,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            shared: self.shared.clone(),
            event: self.event.clone(),
        }
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    pub fn new() -> Self {
        Mailbox {
            shared: Arc::new(MailboxShared {
                len: AtomicUsize::new(0),
                queue: SimCell::new(VecDeque::new()),
            }),
            event: SimEvent::new(),
        }
    }

    /// Enqueue an item now and wake any waiting receiver.
    pub fn send(&self, sched: &Scheduler, item: T) {
        {
            let mut queue = self.shared.queue.lock();
            queue.push_back(item);
            self.shared.len.store(queue.len(), Ordering::Release);
        }
        self.event.notify_all(sched);
    }

    /// Enqueue an item when virtual time `t` arrives (models delivery delay).
    pub fn send_at(&self, sched: &Scheduler, t: SimTime, item: T)
    where
        T: Send + 'static,
    {
        let mailbox = self.clone();
        sched.call_at(t, move |s| mailbox.send(s, item));
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut queue = self.shared.queue.lock();
        let item = queue.pop_front();
        self.shared.len.store(queue.len(), Ordering::Release);
        item
    }

    /// Blocking receive in virtual time.
    pub fn recv(&self, ctx: &mut Ctx) -> T {
        let item = self.recv_charged(ctx, None, SimDuration::ZERO);
        item.expect("a receive without a deadline waits")
    }

    /// Blocking receive that gives up at virtual time `deadline`.
    pub fn recv_deadline(&self, ctx: &mut Ctx, deadline: SimTime) -> Option<T> {
        self.recv_charged(ctx, Some(deadline), SimDuration::ZERO)
    }

    /// Blocking receive that costs the receiver `charge` of its own time
    /// per item (a copy out of a ring, say) and gives up at `deadline`, if
    /// any. An item already queued is taken now and returned `charge`
    /// later. Otherwise the receiver parks, and the send that ends the wait
    /// wakes it `charge` after: one wake, not a wake and a [`Ctx::sleep`].
    /// An item sent before the deadline is returned even when its charge
    /// ends past it; `None` means none was.
    ///
    /// One charged receiver at a time: the item that ends its wait is its
    /// own, and no other receiver may take it meanwhile.
    pub fn recv_charged(
        &self,
        ctx: &mut Ctx,
        deadline: Option<SimTime>,
        charge: SimDuration,
    ) -> Option<T> {
        let reason = match deadline {
            Some(_) => "mailbox recv (deadline)",
            None => "mailbox recv",
        };
        loop {
            let seen = self.event.epoch();
            if let Some(item) = self.try_recv() {
                ctx.sleep(charge);
                return Some(item);
            }
            if deadline.is_some_and(|d| ctx.now() >= d) {
                return None;
            }
            if ctx.wait_event_charged(&self.event, seen, deadline, charge, reason) != seen {
                // Woken `charge` after the send: the charge is paid.
                match self.try_recv() {
                    Some(item) => return Some(item),
                    None => debug_assert!(
                        charge.is_zero(),
                        "a pre-charged item was taken by a block it did not wake"
                    ),
                }
            }
        }
    }

    /// Number of queued items. Takes no lock.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::time::SimDuration;

    #[test]
    fn completion_fires_once() {
        let c = Completion::new();
        assert!(!c.is_done());
        let sim = Simulation::new();
        let sched = sim.scheduler();
        c.complete_now(&sched);
        assert!(c.is_done());
        // Second fire is a no-op, not a panic.
        c.complete_now(&sched);
        assert!(c.is_done());
    }

    #[test]
    fn mailbox_try_recv_order() {
        let sim = Simulation::new();
        let sched = sim.scheduler();
        let mb: Mailbox<u32> = Mailbox::new();
        mb.send(&sched, 1);
        mb.send(&sched, 2);
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.try_recv(), Some(1));
        assert_eq!(mb.try_recv(), Some(2));
        assert_eq!(mb.try_recv(), None);
        assert!(mb.is_empty());
    }

    #[test]
    fn event_epoch_advances_on_notify() {
        let sim = Simulation::new();
        let sched = sim.scheduler();
        let ev = SimEvent::new();
        let e0 = ev.epoch();
        ev.notify_all(&sched);
        assert_eq!(ev.epoch(), e0 + 1);
    }

    #[test]
    fn recv_deadline_times_out_and_recovers() {
        let mut sim = Simulation::new();
        let sched = sim.scheduler();
        let mb: Mailbox<&'static str> = Mailbox::new();
        let mb2 = mb.clone();
        // Item lands at t=900; a 500ns deadline must miss it, a second
        // deadline wait must pick it up at exactly t=900.
        mb.send_at(&sched, crate::time::SimTime(900), "late");
        sim.spawn("rx", move |ctx| {
            let miss = mb2.recv_deadline(ctx, crate::time::SimTime(500));
            assert_eq!(miss, None);
            assert_eq!(ctx.now().as_nanos(), 500);
            let hit = mb2.recv_deadline(ctx, crate::time::SimTime(2000));
            assert_eq!(hit, Some("late"));
            assert_eq!(ctx.now().as_nanos(), 900);
        });
        sim.run_expect();
    }

    #[test]
    fn recv_deadline_returns_immediately_when_ready() {
        let mut sim = Simulation::new();
        let sched = sim.scheduler();
        let mb: Mailbox<u32> = Mailbox::new();
        mb.send(&sched, 7);
        let mb2 = mb.clone();
        sim.spawn("rx", move |ctx| {
            // Deadline already in the past still drains queued items.
            assert_eq!(mb2.recv_deadline(ctx, crate::time::SimTime(0)), Some(7));
            assert_eq!(mb2.recv_deadline(ctx, crate::time::SimTime(0)), None);
        });
        sim.run_expect();
    }

    #[test]
    fn delayed_send_arrives_at_time() {
        let mut sim = Simulation::new();
        let sched = sim.scheduler();
        let mb: Mailbox<&'static str> = Mailbox::new();
        let mb2 = mb.clone();
        mb.send_at(&sched, crate::time::SimTime(500), "hello");
        sim.spawn("rx", move |ctx| {
            let item = mb2.recv(ctx);
            assert_eq!(item, "hello");
            assert_eq!(ctx.now().as_nanos(), 500);
            ctx.sleep(SimDuration::from_nanos(1));
        });
        let report = sim.run_expect();
        assert_eq!(report.final_time.as_nanos(), 501);
    }
}
