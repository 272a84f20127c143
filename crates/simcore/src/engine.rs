//! The discrete-event engine and its cooperative process model.
//!
//! # Execution model
//!
//! A simulation uses **one OS thread**: the one that calls
//! [`Simulation::run`]. Every simulated process is a stackful coroutine
//! (`coro.rs`) on a 2 MiB stack of its own, and nothing stands between
//! them: **whoever has nothing left to do runs the event loop, and control
//! goes straight to whoever is next.** `dispatch` pops events in order and
//! is entered by the caller of `run`, by a process that blocks (a [`Ctx`]
//! call that parks) and by a process whose body has returned. A callback
//! runs in place, on whatever stack is dispatching; a wake for the
//! dispatcher itself is a plain return; a wake for another process is one
//! switch to it; a verdict — queue drained, deadlock, event limit, a
//! panic — is one switch to the caller of `run`, which returns it. Exactly
//! one process runs at any moment and events with equal timestamps fire in
//! schedule order: a deterministic simulation whose process code is
//! ordinary imperative Rust. Sharing a thread has consequences:
//!
//! * **A simulation is tied to the thread that first ran it.** A parked
//!   stack may hold addresses of thread-local storage and `!Send` locals,
//!   so `run` records its thread on the first call, and it and the
//!   teardown in `Drop` panic on any other. Building and spawning on one
//!   thread, then running on another, stays legal: a process that has not
//!   started is only a `Send` closure.
//! * **Thread-local state is shared by every process.** A per-process
//!   value goes in [`proc_local`], one word the engine trades at every
//!   switch — and around a callback, which sees the word of `run`'s caller
//!   whichever stack it borrows. Nor is a callback's panic its host's:
//!   `dispatch` catches it and `run` re-raises it.
//! * **A process that ends dispatches from its own stack**, so it cannot
//!   unmap it: it leaves itself in `EngineState::reclaim`, and the next
//!   context to park, to end or to leave `run` drops what it finds there —
//!   one deep, so stacks go as processes end.
//! * **Simulations nest** — a process may build and `run` one of its own —
//!   because the stack pointer of `run`'s caller is kept per simulation
//!   (`Shared::runner_sp`), not per thread.
//!
//! # Wake correctness
//!
//! A process's *block epoch* counts the blocks it has come out of; a wake
//! carries the epoch of the block it ends, and popping it ends that block.
//! A block has at most one wake queued at a time, so a wake that would be
//! stale — its process continued for another reason, or finished — is
//! never queued: a deadline is cancelled when the event it races is the
//! first to wake its process, and a waiter whose block is already over
//! when its event fires is skipped. Spurious wakes are impossible by
//! construction. A waiter with a charge ([`Ctx::wait_event_charged`]) is
//! woken that long after the notification instead of at it: work it does
//! on every wake-up, paid by the wake rather than by a `sleep` after it.
//!
//! # Event queue
//!
//! Pending events live in one [`TimerQueue`] ordered by `(time, seq)`,
//! where `seq` counts every event ever scheduled. That pair is the whole
//! ordering contract: the same program yields the same trace on every run.
//!
//! # Shared state
//!
//! The queue and the process table are one [`SimCell`], bound to the
//! simulation's home: `run` holds the home for the whole run, so taking
//! the state is a plain owner compare and a borrow flag (`cell.rs`). A
//! block takes it once: the blocking call registers its wake under the
//! guard and hands the guard to `dispatch`, which pops the next event under
//! it and lets go just before the switch (or the return); no guard ever
//! lives across a switch. A callback runs with the state let go, so it may
//! schedule, and `dispatch` takes it back after. The clock
//! ([`Scheduler::now`]) is an atomic beside it, read with a plain load.
//! DESIGN.md §21 and §24 have the rules.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cell::{Home, SimCell, SimGuard};
use crate::coro::{self, Coroutine};
use crate::error::{BlockedProc, SimError};
use crate::sync::{CompletionInner, EventShared};
use crate::time::{SimDuration, SimTime};
use crate::timer::{TimerHandle, TimerQueue};

/// Identifier of a simulated process, dense from zero in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// A wake targets a specific block epoch; see module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeTarget {
    pub pid: ProcId,
    pub epoch: u64,
}

pub(crate) enum EventKind {
    Wake(WakeTarget),
    Call(Box<dyn FnOnce(&Scheduler) + Send>),
}

/// One word of per-process state for code above the engine.
///
/// Every process of a simulation runs on one thread, so a thread-local is
/// shared by all of them. This word is not: the engine trades it at every
/// switch, so a process reads back what *it* last stored (zero at its
/// start), and code outside any process — device callbacks, whichever
/// stack they run on, and the caller of `run` — has the thread's own value.
/// Const-initialised and `Copy`, so access never allocates and is safe
/// inside an allocator.
pub mod proc_local {
    use std::cell::Cell;

    thread_local! {
        static WORD: Cell<u64> = const { Cell::new(0) };
    }

    /// The current process's word.
    #[inline]
    pub fn get() -> u64 {
        WORD.get()
    }

    /// Set the current process's word.
    #[inline]
    pub fn set(word: u64) {
        WORD.set(word);
    }

    pub(super) fn swap(word: u64) -> u64 {
        WORD.replace(word)
    }
}

struct ProcSlot {
    name: String,
    /// Blocks the process has come out of: a wake for block `epoch` is live.
    epoch: u64,
    /// The deadline of a [`Ctx::wait_event_until`] block, while queued.
    deadline: Option<TimerHandle>,
    /// Human-readable reason recorded at the blocking call site.
    block_reason: &'static str,
    /// The process itself, from spawn until it ends: it stays here while
    /// it runs. `None` afterwards (and during teardown).
    coro: Option<Coroutine>,
    /// The process's [`proc_local`] word while it is not running.
    local: u64,
}

type Payload = Box<dyn Any + Send>;

/// What `run` returns — or the payload of a callback's panic, which it
/// re-raises — left in the state by whichever context found it.
type Verdict = Result<Result<RunReport, SimError>, Payload>;

/// Who is running the event loop: the caller of `run`, a process that
/// blocked, or one whose body has returned.
#[derive(Clone, Copy, PartialEq)]
enum Host {
    Runner,
    Proc(ProcId),
    Ended,
}

#[derive(Default)]
pub(crate) struct EngineState {
    /// Pending events; the front is the next to fire.
    queue: TimerQueue<EventKind>,
    procs: Vec<ProcSlot>,
    live: usize,
    events_processed: u64,
    event_limit: u64,
    /// The thread of the first `run`; see `claim_thread`.
    home: Option<std::thread::Thread>,
    /// The [`proc_local`] word of `run`'s caller while a process runs.
    outer_local: u64,
    /// Why `run` is about to return; taken by it.
    verdict: Option<Verdict>,
    /// The process that ended last, whose stack it could not unmap from
    /// under itself (module docs). `None` outside `run`.
    reclaim: Option<Coroutine>,
}

// SAFETY: `Coroutine` (in `procs` and `reclaim`) is the only `!Send` part:
// the counters, names and `home` are owned plain data, the queue's callbacks
// and the verdict's panic payload are `Send` boxes. One that has never
// been switched to is a boxed `Send` closure and a private mapping nothing
// points into, so it may move freely. One that is parked mid-body may hold
// thread-bound state on its stack, but moving the state does not touch
// that stack; only a switch does, and every switch — under
// `Simulation::run` and the cancellation in `Simulation::drop` — comes
// after `EngineState::claim_thread`, which pins the simulation to the
// thread of its first run. Unmapping a stack from another thread is sound:
// ended and never-started stacks hold no live frames and a parked one is
// leaked, not unmapped (see `coro.rs`).
unsafe impl Send for EngineState {}

impl EngineState {
    /// Start a block of process `pid`: the target of the wakes registered
    /// for it.
    fn block(&mut self, pid: ProcId, reason: &'static str) -> WakeTarget {
        let slot = &mut self.procs[pid.0];
        slot.block_reason = reason;
        let epoch = slot.epoch;
        WakeTarget { pid, epoch }
    }

    /// The verdict on an empty queue, at virtual time `at`.
    fn drained(&self, at: SimTime) -> Result<RunReport, SimError> {
        if self.live == 0 {
            return Ok(RunReport {
                final_time: at,
                events_processed: self.events_processed,
            });
        }
        let blocked = self
            .procs
            .iter()
            .filter(|p| p.coro.is_some())
            .map(|p| BlockedProc {
                name: p.name.clone(),
                reason: p.block_reason.to_string(),
            })
            .collect();
        Err(SimError::Deadlock { at, blocked })
    }

    /// Pin the simulation to the calling thread on first use and refuse
    /// any other afterwards: parked stacks are only valid on the thread
    /// that ran them (module docs). `what` names the refused operation.
    fn claim_thread(&mut self, what: &str) {
        let here = std::thread::current();
        let home = self.home.get_or_insert_with(|| here.clone());
        assert!(
            home.id() == here.id(),
            "a Simulation must be {what} on the thread that first ran it: it ran on {home:?} \
             and this is {here:?}; its parked processes' stacks are bound to that thread",
        );
    }
}

struct Shared {
    /// What the state's cell and every cell this simulation binds answer
    /// to; held by `run` and by the teardown in `Drop`.
    home: &'static Home,
    state: SimCell<EngineState>,
    /// The stack pointer of `run`'s caller while a process runs. Written
    /// by the switch that leaves that stack and read by the one that goes
    /// back, both on the simulation's thread: an atomic only to be `Sync`.
    runner_sp: AtomicPtr<u8>,
    /// The virtual clock, in nanoseconds. Stored only with `state` held —
    /// by `dispatch` when it pops an event and by [`Ctx::sleep`]'s
    /// fast-forward — and loaded without it, so that reading the time never
    /// conflicts with a guard: there is no second copy to drift. `Relaxed`
    /// is enough: on the simulation's thread program order gives every
    /// reader the latest store, and a thread that reads the clock after
    /// `run` returned got its happens-before from whatever handed it the
    /// result (a `join`, a channel).
    now: AtomicU64,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime(self.now.load(Ordering::Relaxed))
    }

    /// Advance the clock. The caller holds `state`.
    fn set_now(&self, t: SimTime) {
        debug_assert!(t >= self.now(), "the clock ran backwards");
        self.now.store(t.0, Ordering::Relaxed);
    }

    /// Queue `kind` for `time`. The caller holds `state`, as `st`.
    fn schedule(&self, st: &mut EngineState, time: SimTime, kind: EventKind) -> TimerHandle {
        debug_assert!(time >= self.now(), "event scheduled in the past");
        st.queue.arm(time, kind)
    }

    /// The bookkeeping of a switch from `host` to process `to` (`None`: the
    /// caller of `run`): trade [`proc_local`] words, mark the target running
    /// and return the stack pointer to switch to once `st` is let go.
    fn hand_over(&self, st: &mut EngineState, host: Host, to: Option<ProcId>) -> *mut u8 {
        let (word, sp) = match to {
            Some(pid) => {
                let slot = &st.procs[pid.0];
                let coro = slot.coro.as_ref().expect("`dispatch` saw it alive");
                (slot.local, coro.unpark())
            }
            None => (st.outer_local, self.runner_sp.load(Ordering::Relaxed)),
        };
        let mine = proc_local::swap(word);
        match host {
            Host::Runner => st.outer_local = mine,
            Host::Proc(pid) => st.procs[pid.0].local = mine,
            Host::Ended => {}
        }
        sp
    }
}

/// The event loop (module docs). Entered holding the state, as `st`, by
/// whoever has nothing left to do; pops events in `(time, seq)` order,
/// running callbacks in place, until one is a live wake or the run is over.
/// Returns the stack pointer `host` switches to now that `st` is let go, or
/// `None` to carry on where it is: its own wake, or `run`'s own verdict.
fn dispatch<'a>(
    sched: &'a Scheduler,
    mut st: SimGuard<'a, EngineState>,
    host: Host,
) -> Option<*mut u8> {
    let shared = &*sched.shared;
    let verdict = loop {
        // Before popping: an event the limit refuses stays queued, and the
        // clock where it was, for a later `run` under a higher limit.
        if st.events_processed >= st.event_limit {
            if let Some(at) = st.queue.front() {
                let limit = st.event_limit;
                break Ok(Err(SimError::EventLimit { limit, at }));
            }
        }
        let Some((time, kind)) = st.queue.pop() else {
            break Ok(st.drained(shared.now()));
        };
        shared.set_now(time);
        st.events_processed += 1;
        match kind {
            EventKind::Call(f) => {
                // Outside any process, whoever's stack this is; and the
                // callback's panic is `run`'s to raise, not its host's.
                let mine = (host != Host::Runner).then(|| proc_local::swap(st.outer_local));
                drop(st);
                let result = catch_unwind(AssertUnwindSafe(|| f(sched)));
                st = shared.state.lock();
                if let Some(mine) = mine {
                    st.outer_local = proc_local::swap(mine);
                }
                if let Err(payload) = result {
                    break Err(payload);
                }
            }
            EventKind::Wake(WakeTarget { pid, epoch }) => {
                let slot = &mut st.procs[pid.0];
                debug_assert!(
                    slot.epoch == epoch && slot.coro.is_some(),
                    "a stale wake for {} was queued",
                    slot.name
                );
                // The block is over, and every waiter-list entry of it with
                // it. Its deadline, if any, is this wake, or was cancelled
                // when `wake_all` queued this one.
                slot.epoch += 1;
                slot.deadline = None;
                if host == Host::Proc(pid) {
                    return None;
                }
                return Some(shared.hand_over(&mut st, host, Some(pid)));
            }
        }
    };
    st.verdict = Some(verdict);
    (host != Host::Runner).then(|| shared.hand_over(&mut st, host, None))
}

/// Handle for scheduling future work; clonable and usable from process code
/// and from device callbacks alike.
#[derive(Clone)]
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Current virtual time: a plain load, no cell.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Run `f` at virtual time `t` (engine context, no process running).
    pub fn call_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&Scheduler) + Send + 'static,
    {
        let kind = EventKind::Call(Box::new(f));
        let mut st = self.shared.state.lock();
        self.shared.schedule(&mut st, t.max(self.now()), kind);
    }

    /// Run `f` after `d` virtual time.
    pub fn call_after<F>(&self, d: SimDuration, f: F)
    where
        F: FnOnce(&Scheduler) + Send + 'static,
    {
        self.call_at(self.now() + d, f);
    }

    /// Spawn a new simulated process; it becomes runnable at the current
    /// virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(self, name.into(), f)
    }

    /// Make every process in `waiters` runnable its charge from now, in the
    /// order given, under one guard of the engine state: consecutive
    /// sequence numbers, exactly what one `schedule` per waiter would
    /// assign. A waiter whose block is over (it timed out, or ended) is
    /// skipped. One with a deadline queued loses it, unless the deadline is
    /// due now and the waiter has no charge: queued first, it wakes the
    /// process first. A charged waiter is woken after its charge even then,
    /// as it would have paid the charge after taking what its deadline
    /// wake found.
    fn wake_all(&self, waiters: impl Iterator<Item = (WakeTarget, SimDuration)>) {
        let mut st = self.shared.state.lock();
        let now = self.now();
        for (w, charge) in waiters {
            let slot = &mut st.procs[w.pid.0];
            let deadline_first = charge.is_zero() && slot.deadline.is_some_and(|d| d.due() <= now);
            if slot.epoch != w.epoch || deadline_first {
                continue;
            }
            if let Some(deadline) = slot.deadline.take() {
                st.queue.cancel(deadline);
            }
            self.shared
                .schedule(&mut st, now + charge, EventKind::Wake(w));
        }
    }
}

/// Per-process context passed to process closures. All blocking operations
/// of the simulation go through this handle.
pub struct Ctx {
    pid: ProcId,
    scheduler: Scheduler,
}

impl Ctx {
    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// A clonable scheduler handle for device models.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler.clone()
    }

    /// Spawn a sibling process, runnable at the current virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.scheduler.spawn(name, f)
    }

    /// Advance this process's virtual clock by `d` (models compute or fixed
    /// software overhead).
    pub fn sleep(&mut self, d: SimDuration) {
        if !d.is_zero() {
            self.pause(d, "sleep");
        }
    }

    /// Yield the processor: requeue after every event already scheduled at
    /// the current instant.
    pub fn yield_now(&mut self) {
        self.pause(SimDuration::ZERO, "yield");
    }

    /// Run again at `now + d`, behind everything already queued up to then.
    fn pause(&mut self, d: SimDuration, reason: &'static str) {
        let shared = &self.scheduler.shared;
        let mut st = shared.state.lock();
        let t = shared.now() + d;
        // Fast-forward: while this process runs nothing else touches the
        // scheduler, so if our wake would sort before everything queued,
        // `dispatch` would only pop it straight back to us. Advance the
        // clock inline instead — the event still counts, identically. A
        // queued event at the same instant wins (it holds an earlier
        // sequence number), exactly as it would in `dispatch`.
        if st.events_processed < st.event_limit && st.queue.front().is_none_or(|next| t < next) {
            shared.set_now(t);
            st.events_processed += 1;
            return;
        }
        let wake = EventKind::Wake(st.block(self.pid, reason));
        shared.schedule(&mut st, t, wake);
        self.park(st);
    }

    /// Block until the completion is signalled. Returns immediately if it
    /// already is.
    pub fn wait(&mut self, c: &crate::sync::Completion) {
        self.wait_reason(c, "completion");
    }

    /// Like [`Ctx::wait`] but records `reason` for deadlock diagnostics.
    pub fn wait_reason(&mut self, c: &crate::sync::Completion, reason: &'static str) {
        loop {
            let mut st = self.scheduler.shared.state.lock();
            let mut inner = c.inner().lock();
            if inner.done {
                return;
            }
            inner.push(st.block(self.pid, reason));
            drop(inner);
            self.park(st);
        }
    }

    /// Block until the event's epoch differs from `seen`. Returns the new
    /// epoch. The standard condition-polling pattern is:
    ///
    /// ```ignore
    /// loop {
    ///     let seen = ev.epoch();
    ///     if condition() { break; }
    ///     ctx.wait_event(&ev, seen, "why");
    /// }
    /// ```
    pub fn wait_event(
        &mut self,
        ev: &crate::sync::SimEvent,
        seen: u64,
        reason: &'static str,
    ) -> u64 {
        self.wait_event_charged(ev, seen, None, SimDuration::ZERO, reason)
    }

    /// Like [`Ctx::wait_event`] but gives up at virtual time `deadline`:
    /// returns the new epoch if the event fired, or `seen` unchanged on
    /// timeout. Whichever comes first wakes the process and the other
    /// never does: an event that fires first cancels the queued deadline,
    /// and one that fires after a timeout finds the block over and queues
    /// nothing (module docs, "Wake correctness").
    pub fn wait_event_until(
        &mut self,
        ev: &crate::sync::SimEvent,
        seen: u64,
        deadline: SimTime,
        reason: &'static str,
    ) -> u64 {
        self.wait_event_charged(ev, seen, Some(deadline), SimDuration::ZERO, reason)
    }

    /// [`Ctx::wait_event`], with a `deadline` if any, for a waiter that
    /// pays `charge` of its own time whenever its event fires (the copy of
    /// a receive, say): the notification wakes it `charge` later, so the
    /// charge costs no event of its own. An event that fires before the
    /// deadline — or at it, before the deadline's wake — cancels it, even
    /// when the charge then ends past it. An epoch that has already moved
    /// is paid for at once: the call returns `charge` from now.
    pub(crate) fn wait_event_charged(
        &mut self,
        ev: &crate::sync::SimEvent,
        seen: u64,
        deadline: Option<SimTime>,
        charge: SimDuration,
        reason: &'static str,
    ) -> u64 {
        // What a notification still costs us: all of `charge` until we
        // park, nothing once its wake has paid it.
        let mut unpaid = charge;
        loop {
            // Already notified: the usual answer, and it costs no lock.
            // Otherwise register — re-reading the epoch with the waiter
            // list held, where it is stored, so that a notify can never
            // fall between the check and the registration.
            if ev.epoch() != seen {
                self.sleep(unpaid);
                return ev.epoch();
            }
            if deadline.is_some_and(|d| self.now() >= d) {
                return seen;
            }
            let shared = &self.scheduler.shared;
            let mut st = shared.state.lock();
            let mut waiters = ev.shared().waiters.lock();
            if ev.epoch() != seen {
                continue;
            }
            let target = st.block(self.pid, reason);
            waiters.push((target, charge));
            drop(waiters);
            if let Some(deadline) = deadline {
                let timer = shared.schedule(&mut st, deadline, EventKind::Wake(target));
                st.procs[self.pid.0].deadline = Some(timer);
            }
            self.park(st);
            unpaid = SimDuration::ZERO;
        }
    }

    /// Block: run the event loop, under the guard the wake was registered
    /// with, until it pops a wake for this block — in place, or else parked
    /// behind a switch to whoever runs first. Unwinds (quietly) instead
    /// when the simulation is being torn down.
    fn park(&self, mut st: SimGuard<'_, EngineState>) {
        drop(st.reclaim.take());
        let Some(me) = st.procs[self.pid.0].coro.as_ref().map(Coroutine::running) else {
            // Torn down (`Simulation::drop` has the coroutine out of the
            // table) and the body swallowed the unwinding: unwind again.
            drop(st);
            coro::unwind_cancelled()
        };
        if let Some(to) = dispatch(&self.scheduler, st, Host::Proc(self.pid)) {
            // SAFETY: we run on `me`'s stack — it is this process — and
            // `to` is what `hand_over` just took from a parked context of
            // this simulation, which only this thread switches to.
            unsafe { me.park(to) };
        }
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Virtual time of the last processed event.
    pub final_time: SimTime,
    /// Total events processed.
    pub events_processed: u64,
}

/// A deterministic discrete-event simulation.
pub struct Simulation {
    sched: Scheduler,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

fn spawn_inner<F>(sched: &Scheduler, name: String, f: F) -> ProcId
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    let shared = &sched.shared;
    let mut st = shared.state.lock();
    let pid = ProcId(st.procs.len());
    let (scheduler, sched) = (sched.clone(), sched.clone());
    let body = move || f(&mut Ctx { pid, scheduler });
    // SAFETY: `process_ended` returns what `hand_over` took from a parked
    // context, having put the coroutine where only a later context drops it.
    let coro = unsafe { Coroutine::new(body, move |end| process_ended(&sched, pid, end)) };
    st.procs.push(ProcSlot {
        name,
        epoch: 0,
        deadline: None,
        block_reason: "start",
        coro: Some(coro),
        local: 0,
    });
    st.live += 1;
    let start = EventKind::Wake(WakeTarget { pid, epoch: 0 });
    shared.schedule(&mut st, shared.now(), start);
    pid
}

/// The body of process `pid` has returned or unwound. Still on its stack:
/// leave the process for the next context to drop, dispatch (or go straight
/// to `run`'s caller with the panic), and return where the thread goes next.
fn process_ended(sched: &Scheduler, pid: ProcId, end: Result<(), Payload>) -> *mut u8 {
    let shared = &*sched.shared;
    let mut st = shared.state.lock();
    let slot = &mut st.procs[pid.0];
    let ended = slot.coro.take();
    st.live -= 1;
    // Whoever ended before us goes now; we go with the next to park or end.
    drop(std::mem::replace(&mut st.reclaim, ended));
    if let Err(payload) = end {
        let name = st.procs[pid.0].name.clone();
        let message = panic_message(payload.as_ref());
        st.verdict = Some(Ok(Err(SimError::ProcessPanic { name, message })));
        return shared.hand_over(&mut st, Host::Ended, None);
    }
    dispatch(sched, st, Host::Ended).expect("nothing wakes an ended process")
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Simulation {
    pub fn new() -> Self {
        let home = Home::leak();
        let shared = Arc::new(Shared {
            home,
            state: SimCell::in_home(
                home,
                EngineState {
                    event_limit: u64::MAX,
                    ..EngineState::default()
                },
            ),
            runner_sp: AtomicPtr::default(),
            now: AtomicU64::new(0),
        });
        Simulation {
            sched: Scheduler { shared },
        }
    }

    /// Cap the number of processed events (livelock guard for tests).
    pub fn set_event_limit(&self, limit: u64) {
        self.sched.shared.state.lock().event_limit = limit;
    }

    /// Scheduler handle for constructing device models before `run`.
    pub fn scheduler(&self) -> Scheduler {
        self.sched.clone()
    }

    /// Spawn a root process; it becomes runnable at t=0 (or the current time
    /// if the simulation already ran).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(&self.sched, name.into(), f)
    }

    /// Run until the event queue drains and every process has finished.
    ///
    /// # Panics
    /// If an earlier `run` of this simulation happened on another thread
    /// (see the module docs).
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let shared = &*self.sched.shared;
        let _running = shared.home.run();
        let mut st = shared.state.lock();
        st.claim_thread("run");
        if let Some(to) = dispatch(&self.sched, st, Host::Runner) {
            // SAFETY: `to` is what `hand_over` just took from a parked
            // process of this simulation, on this, its home thread; only
            // the switch back with the verdict reads `runner_sp`.
            unsafe { coro::switch(shared.runner_sp.as_ptr(), to) };
        }
        let mut st = shared.state.lock();
        drop(st.reclaim.take());
        let verdict = st.verdict.take().expect("`run` resumes with a verdict");
        drop(st);
        verdict.unwrap_or_else(|callback_panic| resume_unwind(callback_panic))
    }

    /// Convenience: run and panic with a readable message on failure.
    pub fn run_expect(&mut self) -> RunReport {
        match self.run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Take every remaining process out of the table — each holds a
        // `Scheduler`, so leaving them would keep the table alive forever —
        // and tear it down outside the lock, since destructors of process
        // locals may call back into the scheduler: one parked mid-body is
        // unwound so its locals drop, one never started drops its closure.
        let _running = self.sched.shared.home.run();
        let mut st = self.sched.shared.state.lock();
        let coros: Vec<Coroutine> = st.procs.iter_mut().filter_map(|p| p.coro.take()).collect();
        if coros.iter().any(Coroutine::is_mid_body) {
            st.claim_thread("dropped");
        }
        drop(st);
        coros.into_iter().for_each(Coroutine::cancel);
    }
}

// Internal plumbing shared with sync.rs.
pub(crate) fn fire_completion(sched: &Scheduler, inner: &SimCell<CompletionInner>) {
    let (first, more) = {
        let mut c = inner.lock();
        if c.done {
            return;
        }
        c.done = true;
        (c.first.take(), std::mem::take(&mut c.more))
    };
    if first.is_some() {
        let waiters = first.into_iter().chain(more);
        sched.wake_all(waiters.map(|w| (w, SimDuration::ZERO)));
    }
}

/// Notify `ev`: drained in place under its lock, so the waiter list keeps
/// its capacity and the next park on it allocates nothing.
pub(crate) fn fire_event(sched: &Scheduler, ev: &EventShared) {
    let mut waiters = ev.waiters.lock();
    ev.bump_epoch();
    if !waiters.is_empty() {
        sched.wake_all(waiters.drain(..));
    }
}
