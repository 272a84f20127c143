//! The discrete-event engine and its cooperative process model.
//!
//! # Execution model
//!
//! A simulation uses **one OS thread**: the one that calls
//! [`Simulation::run`]. Every simulated process is a stackful coroutine
//! (`coro.rs`) with a 2 MiB stack of its own. The engine loop pops the next
//! event; a wake resumes the target's coroutine *on the calling thread* and
//! gets control back when the process blocks (a [`Ctx`] call that parks) or
//! finishes, so exactly one process runs at any moment and the kernel has
//! nothing to schedule. All events with equal timestamps fire in schedule
//! order. The result is a fully deterministic simulation in which process
//! code is ordinary imperative Rust — device models charge virtual time,
//! processes wait on completions. Sharing a thread has two consequences:
//!
//! * **A simulation is tied to the thread that first ran it.** A parked
//!   process's stack may hold addresses of thread-local storage and `!Send`
//!   locals, so `run` records its thread on the first call, and it and the
//!   teardown in `Drop` panic on any other. Building a simulation and
//!   spawning into it on one thread, then running it on another, stays
//!   legal: a process that has not started is only a `Send` closure.
//! * **Thread-local state is shared by every process.** Code that wants a
//!   per-process value uses [`proc_local`], one word the engine saves and
//!   restores around every resume.
//!
//! Each stack ends in a guard page, so a process that overflows it dies
//! with `SIGSEGV` at the overflowing instruction instead of scribbling on
//! a neighbour.
//!
//! # Wake correctness
//!
//! Each block operation increments the process's *block epoch*; wake events
//! carry the epoch they target. A stale wake (the process already continued
//! for another reason, or finished) is dropped. This makes spurious wakes
//! impossible by construction.
//!
//! # Event queue
//!
//! Pending events live in one binary heap ordered by `(time, seq)`, where
//! `seq` is the global schedule counter. That pair is the whole ordering
//! contract: the same program yields the same trace on every run.
//!
//! # Locks
//!
//! The queue and the process table sit behind one mutex, never contended
//! while a simulation runs (one thread) and still paid for per acquisition,
//! so the engine takes it sparingly: the run loop once per event (it lets
//! go only around the code the event runs), a wake-up of many waiters once.
//! The virtual clock is an atomic beside the mutex — [`Scheduler::now`]
//! takes no lock — and so is the trace hook, a set-once cell called with no
//! lock held. DESIGN.md "Locking discipline" has the rule and the numbers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::coro::{self, Coroutine, Resumed};
use crate::error::{BlockedProc, SimError};
use crate::sync::{CompletionInner, EventShared};
use crate::time::{SimDuration, SimTime};

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

struct ScheduledEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}
impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One word of per-process state for code above the engine.
///
/// Every process of a simulation runs on one thread, so a thread-local is
/// shared by all of them. This word is not: the engine swaps it on every
/// resume and park, so a process reads back what *it* last stored (zero
/// at its start), and code outside any process — device callbacks, the
/// caller of `run` — has the thread's own value. Const-initialised and
/// `Copy`, so access never allocates and is safe inside an allocator.
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
    /// Daemon processes (servers that block forever waiting for requests)
    /// don't keep the simulation alive and don't count as deadlocked.
    daemon: bool,
    /// Incremented each time the process blocks; wakes must match.
    epoch: u64,
    /// Human-readable reason recorded at the blocking call site.
    block_reason: &'static str,
    /// The process itself while it is blocked (or not yet started); `None`
    /// once it finished, and while the engine has it out to run it.
    coro: Option<Coroutine>,
    /// The process's [`proc_local`] word while it is not running.
    local: u64,
}

// SAFETY: `Coroutine` is the only `!Send` field (the rest is owned plain
// data). One that has never been resumed is a boxed `Send` closure and a
// private mapping nothing points into, so it may move freely. One that is
// parked mid-body may hold thread-bound state on its stack, but moving the
// slot does not touch that stack; only a resume does, and every resume —
// `Simulation::run` and the cancellation in `Simulation::drop` — first
// passes `EngineState::claim_thread`, which pins the simulation to the
// thread of its first resume. Unmapping a stack from another thread is
// sound: finished and never-started stacks hold no live frames and a
// parked one is leaked, not unmapped (see `coro.rs`).
unsafe impl Send for ProcSlot {}

/// Installed trace hook.
type TraceHook = Box<dyn Fn(SimTime, &str) + Send + Sync>;

pub(crate) struct EngineState {
    next_seq: u64,
    /// Pending events; the top is the next to fire.
    heap: BinaryHeap<Reverse<ScheduledEvent>>,
    procs: Vec<ProcSlot>,
    live: usize,
    events_processed: u64,
    event_limit: u64,
    /// The thread of the first `run`; see `claim_thread`.
    home: Option<std::thread::Thread>,
}

impl EngineState {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(ScheduledEvent { time, seq, kind }));
    }

    /// Earliest queued event time.
    fn earliest_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the next event in `(time, seq)` order.
    fn pop_next(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop().map(|Reverse(e)| e)
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
    state: Mutex<EngineState>,
    /// The virtual clock, in nanoseconds. Stored only with `state` held —
    /// by the run loop when it pops an event and by [`Ctx::sleep`]'s
    /// fast-forward — and loaded without it: there is no second copy to
    /// drift. `Relaxed` is enough: on the simulation's thread program
    /// order gives every reader the latest store, and a thread that reads
    /// the clock after `run` returned got its happens-before from
    /// whatever handed it the result (a `join`, a channel).
    now: AtomicU64,
    /// The trace hook: installed at most once, before `run`, and called
    /// with no lock held — so the hook itself may use the scheduler.
    trace: OnceLock<TraceHook>,
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
    fn schedule(&self, st: &mut EngineState, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now(), "event scheduled in the past");
        st.push(time, kind);
    }
}

/// Handle for scheduling future work; clonable and usable from process code
/// and from device callbacks alike.
#[derive(Clone)]
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Current virtual time. Takes no lock.
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

    /// Emit a trace line through the installed trace hook, if any. The
    /// hook runs with no engine lock held: it may read the clock and
    /// schedule work.
    pub fn trace(&self, msg: &str) {
        if let Some(hook) = self.shared.trace.get() {
            hook(self.now(), msg);
        }
    }

    /// Whether a trace hook is installed (lets hot paths skip formatting).
    /// Takes no lock.
    #[inline]
    pub fn has_trace(&self) -> bool {
        self.shared.trace.get().is_some()
    }

    /// Spawn a new simulated process; it becomes runnable at the current
    /// virtual time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), false, f)
    }

    /// Spawn a daemon process: a server that may block forever without
    /// keeping the simulation alive or counting as deadlocked.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), true, f)
    }

    /// Make every process in `waiters` runnable now, in the order given,
    /// under one acquisition of the engine state: consecutive sequence
    /// numbers at the current instant, exactly what one `schedule` per
    /// waiter would assign.
    fn wake_all(&self, waiters: Vec<WakeTarget>) {
        if waiters.is_empty() {
            return;
        }
        let mut st = self.shared.state.lock();
        let now = self.now();
        for w in waiters {
            self.shared.schedule(&mut st, now, EventKind::Wake(w));
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

    /// Emit a trace line (no-op unless a trace hook is installed).
    pub fn trace(&self, msg: &str) {
        self.scheduler.trace(msg);
    }

    /// Whether a trace hook is installed.
    pub fn has_trace(&self) -> bool {
        self.scheduler.has_trace()
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
        if d.is_zero() {
            return;
        }
        {
            let shared = &self.scheduler.shared;
            let mut st = shared.state.lock();
            let t = shared.now() + d;
            // Fast-forward: while this process runs nothing else touches
            // the scheduler (every other process is parked and the engine
            // loop is waiting for our park), so if our wake would sort
            // before everything queued, parking would only make the
            // engine pop it straight back to us. Advance the clock inline
            // instead and skip both switches — the event still counts,
            // identically to the two-switch path. A queued event at the
            // same instant wins (it holds an earlier sequence number),
            // exactly as in the two-switch path.
            if st.events_processed < st.event_limit && st.earliest_time().is_none_or(|h| t < h) {
                shared.set_now(t);
                st.events_processed += 1;
                return;
            }
            let slot = &mut st.procs[self.pid.0];
            slot.epoch += 1;
            slot.block_reason = "sleep";
            let epoch = slot.epoch;
            let wake = EventKind::Wake(WakeTarget {
                pid: self.pid,
                epoch,
            });
            shared.schedule(&mut st, t, wake);
        }
        self.park();
    }

    /// Yield the processor: requeue after every event already scheduled at
    /// the current instant.
    pub fn yield_now(&mut self) {
        {
            let shared = &self.scheduler.shared;
            let now = shared.now();
            let mut st = shared.state.lock();
            // Fast-forward (see `sleep`): with nothing else queued at the
            // current instant the yield is a no-op — requeueing would
            // bounce straight back through the engine loop.
            if st.events_processed < st.event_limit && st.earliest_time().is_none_or(|h| now < h) {
                st.events_processed += 1;
                return;
            }
            let slot = &mut st.procs[self.pid.0];
            slot.epoch += 1;
            slot.block_reason = "yield";
            let epoch = slot.epoch;
            let wake = EventKind::Wake(WakeTarget {
                pid: self.pid,
                epoch,
            });
            shared.schedule(&mut st, now, wake);
        }
        self.park();
    }

    /// Block until the completion is signalled. Returns immediately if it
    /// already is.
    pub fn wait(&mut self, c: &crate::sync::Completion) {
        self.wait_reason(c, "completion");
    }

    /// Like [`Ctx::wait`] but records `reason` for deadlock diagnostics.
    pub fn wait_reason(&mut self, c: &crate::sync::Completion, reason: &'static str) {
        loop {
            let registered = {
                let mut st = self.scheduler.shared.state.lock();
                let mut inner = c.inner().lock();
                if inner.done {
                    return;
                }
                let slot = &mut st.procs[self.pid.0];
                slot.epoch += 1;
                slot.block_reason = reason;
                inner.waiters.push(WakeTarget {
                    pid: self.pid,
                    epoch: slot.epoch,
                });
                true
            };
            debug_assert!(registered);
            self.park();
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
        loop {
            {
                // Already notified: the usual answer, and it costs no
                // lock. Otherwise register — re-reading the epoch with the
                // waiter list held, where it is stored, so that a notify
                // can never fall between the check and the registration.
                if ev.epoch() != seen {
                    return ev.epoch();
                }
                let mut st = self.scheduler.shared.state.lock();
                let mut waiters = ev.shared().waiters.lock();
                if ev.epoch() != seen {
                    return ev.epoch();
                }
                let slot = &mut st.procs[self.pid.0];
                slot.epoch += 1;
                slot.block_reason = reason;
                waiters.push(WakeTarget {
                    pid: self.pid,
                    epoch: slot.epoch,
                });
            }
            self.park();
        }
    }

    /// Like [`Ctx::wait_event`] but gives up at virtual time `deadline`:
    /// returns the new epoch if the event fired, or `seen` unchanged on
    /// timeout. Both the event waiter and a deadline wake are registered
    /// with the same block epoch, so whichever fires second is dropped as
    /// stale by the engine — a timed-out waiter can never be woken twice.
    pub fn wait_event_until(
        &mut self,
        ev: &crate::sync::SimEvent,
        seen: u64,
        deadline: SimTime,
        reason: &'static str,
    ) -> u64 {
        loop {
            {
                if ev.epoch() != seen {
                    return ev.epoch();
                }
                if self.now() >= deadline {
                    return seen;
                }
                let shared = &self.scheduler.shared;
                let mut st = shared.state.lock();
                let mut waiters = ev.shared().waiters.lock();
                if ev.epoch() != seen {
                    return ev.epoch();
                }
                let slot = &mut st.procs[self.pid.0];
                slot.epoch += 1;
                slot.block_reason = reason;
                let target = WakeTarget {
                    pid: self.pid,
                    epoch: slot.epoch,
                };
                waiters.push(target);
                shared.schedule(&mut st, deadline, EventKind::Wake(target));
            }
            self.park();
        }
    }

    /// Hand control back to the engine loop until a wake for the current
    /// block epoch resumes this process; unwinds (quietly) instead when the
    /// simulation is being torn down.
    fn park(&mut self) {
        coro::suspend();
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
    shared: Arc<Shared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

fn spawn_inner<F>(shared: &Arc<Shared>, name: String, daemon: bool, f: F) -> ProcId
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    let mut st = shared.state.lock();
    let pid = ProcId(st.procs.len());
    let scheduler = Scheduler {
        shared: shared.clone(),
    };
    let coro = Coroutine::new(move || f(&mut Ctx { pid, scheduler }));
    st.procs.push(ProcSlot {
        name,
        daemon,
        epoch: 0,
        block_reason: "start",
        coro: Some(coro),
        local: 0,
    });
    if !daemon {
        st.live += 1;
    }
    let start = EventKind::Wake(WakeTarget { pid, epoch: 0 });
    shared.schedule(&mut st, shared.now(), start);
    pid
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                next_seq: 0,
                heap: BinaryHeap::new(),
                procs: Vec::new(),
                live: 0,
                events_processed: 0,
                event_limit: u64::MAX,
                home: None,
            }),
            now: AtomicU64::new(0),
            trace: OnceLock::new(),
        });
        Simulation { shared }
    }

    /// Install the trace hook invoked by [`Ctx::trace`] / [`Scheduler::trace`].
    /// The hook is installed once, before `run`: it lives in a set-once
    /// cell so that `has_trace`/`trace` take no lock, and it is called with
    /// no engine lock held, so it may read the clock and schedule work.
    ///
    /// # Panics
    /// If a hook is already installed.
    pub fn set_trace(&self, hook: impl Fn(SimTime, &str) + Send + Sync + 'static) {
        let installed = self.shared.trace.set(Box::new(hook));
        assert!(installed.is_ok(), "the trace hook is installed once");
    }

    /// Cap the number of processed events (livelock guard for tests).
    pub fn set_event_limit(&self, limit: u64) {
        self.shared.state.lock().event_limit = limit;
    }

    /// Scheduler handle for constructing device models before `run`.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler {
            shared: self.shared.clone(),
        }
    }

    /// Spawn a root process; it becomes runnable at t=0 (or the current time
    /// if the simulation already ran).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), false, f)
    }

    /// Spawn a daemon process (see [`Scheduler::spawn_daemon`]).
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_inner(&self.shared, name.into(), true, f)
    }

    /// Run until the event queue drains and every process has finished.
    ///
    /// # Panics
    /// If an earlier `run` of this simulation happened on another thread
    /// (see the module docs).
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let shared = &*self.shared;
        let sched = self.scheduler();
        // One acquisition per event: the lock is let go only around the
        // code an event runs — a callback, or a process until it parks —
        // and taken back once, for that event's bookkeeping *and* the
        // next pop.
        let mut st = shared.state.lock();
        st.claim_thread("run");
        loop {
            let Some(ev) = st.pop_next() else {
                if st.live == 0 {
                    return Ok(RunReport {
                        final_time: shared.now(),
                        events_processed: st.events_processed,
                    });
                }
                let blocked = st
                    .procs
                    .iter()
                    .filter(|p| p.coro.is_some() && !p.daemon)
                    .map(|p| BlockedProc {
                        name: p.name.clone(),
                        reason: p.block_reason.to_string(),
                    })
                    .collect();
                return Err(SimError::Deadlock {
                    at: shared.now(),
                    blocked,
                });
            };
            shared.set_now(ev.time);
            st.events_processed += 1;
            if st.events_processed > st.event_limit {
                return Err(SimError::EventLimit {
                    limit: st.event_limit,
                    at: ev.time,
                });
            }
            let target = match ev.kind {
                EventKind::Call(f) => {
                    drop(st);
                    f(&sched);
                    st = shared.state.lock();
                    continue;
                }
                EventKind::Wake(target) => target,
            };
            let slot = &mut st.procs[target.pid.0];
            if slot.epoch != target.epoch {
                continue; // stale wake: the process moved on
            }
            let Some(mut coro) = slot.coro.take() else {
                continue; // stale wake: the process finished
            };
            let local = slot.local;
            drop(st);

            // Run the process, on this thread, until it parks or ends.
            let outer = proc_local::swap(local);
            let resumed = coro.resume();
            let local = proc_local::swap(outer);

            st = shared.state.lock();
            let slot = &mut st.procs[target.pid.0];
            match resumed {
                Resumed::Suspended => {
                    slot.coro = Some(coro);
                    slot.local = local;
                }
                Resumed::Finished(result) => {
                    if !slot.daemon {
                        st.live -= 1;
                    }
                    // Unmaps the stack now, not when the simulation drops.
                    drop(coro);
                    if let Err(payload) = result {
                        return Err(SimError::ProcessPanic {
                            name: st.procs[target.pid.0].name.clone(),
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        }
    }

    /// Convenience: run and panic with a readable message on failure.
    pub fn run_expect(&mut self) -> RunReport {
        match self.run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Name of a process (for diagnostics).
    pub fn proc_name(&self, pid: ProcId) -> String {
        self.shared.state.lock().procs[pid.0].name.clone()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Take every remaining process out of the table — each holds a
        // `Scheduler`, so leaving them would keep the table alive forever —
        // and tear it down outside the lock, since destructors of process
        // locals may call back into the scheduler: a process parked
        // mid-body is unwound so its locals drop, one that never started
        // just drops its closure.
        let mut st = self.shared.state.lock();
        let coros: Vec<Coroutine> = st.procs.iter_mut().filter_map(|p| p.coro.take()).collect();
        if coros.iter().any(Coroutine::is_mid_body) {
            st.claim_thread("dropped");
        }
        drop(st);
        coros.into_iter().for_each(Coroutine::cancel);
    }
}

// Internal plumbing shared with sync.rs.
pub(crate) fn fire_completion(sched: &Scheduler, inner: &Mutex<CompletionInner>) {
    let waiters = {
        let mut c = inner.lock();
        if c.done {
            return;
        }
        c.done = true;
        std::mem::take(&mut c.waiters)
    };
    sched.wake_all(waiters);
}

pub(crate) fn fire_event(sched: &Scheduler, ev: &EventShared) {
    let waiters = {
        let mut waiters = ev.waiters.lock();
        ev.bump_epoch();
        std::mem::take(&mut *waiters)
    };
    sched.wake_all(waiters);
}
