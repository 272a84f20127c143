//! The discrete-event engine and its cooperative process model.
//!
//! # Execution model
//!
//! Every simulated process is an OS thread, but **exactly one** of them runs
//! at any moment: the engine wakes a process, then parks itself until that
//! process either blocks (via a [`Ctx`] call) or finishes. All events with
//! equal timestamps fire in schedule order. The result is a fully
//! deterministic simulation in which process code is ordinary imperative
//! Rust — device models charge virtual time, processes wait on completions.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::{BlockedProc, SimError};
use crate::sync::{CompletionInner, EventInner};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    /// Not yet started or currently blocked.
    Blocked,
    Running,
    Finished,
}

enum Resume {
    Go,
    Abort,
}

enum Park {
    Blocked(ProcId),
    Finished(ProcId),
    Panicked(ProcId, String),
}

struct ProcSlot {
    name: String,
    status: ProcStatus,
    /// Daemon processes (servers that block forever waiting for requests)
    /// don't keep the simulation alive and don't count as deadlocked.
    daemon: bool,
    /// Incremented each time the process blocks; wakes must match.
    epoch: u64,
    /// Human-readable reason recorded at the blocking call site.
    block_reason: &'static str,
    resume_tx: Sender<Resume>,
    join: Option<JoinHandle<()>>,
}

/// Installed trace hook.
type TraceHook = Box<dyn Fn(SimTime, &str) + Send>;

pub(crate) struct EngineState {
    now: SimTime,
    next_seq: u64,
    /// Pending events; the top is the next to fire.
    heap: BinaryHeap<Reverse<ScheduledEvent>>,
    procs: Vec<ProcSlot>,
    live: usize,
    events_processed: u64,
    event_limit: u64,
    trace: Option<TraceHook>,
}

impl EngineState {
    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(ScheduledEvent { time, seq, kind }));
    }

    fn peek_next(&self) -> Option<&ScheduledEvent> {
        self.heap.peek().map(|Reverse(e)| e)
    }

    /// Earliest queued event time.
    fn earliest_time(&self) -> Option<SimTime> {
        self.peek_next().map(|e| e.time)
    }

    /// Whether the next queued event is a process wake (vs a device `Call`
    /// or nothing). Used by the direct-handoff fast path in [`Ctx::park`].
    fn next_is_wake(&self) -> Option<bool> {
        self.peek_next()
            .map(|e| matches!(e.kind, EventKind::Wake(_)))
    }

    /// Pop the next event in `(time, seq)` order.
    fn pop_next(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn trace(&self, msg: &str) {
        if let Some(t) = &self.trace {
            t(self.now, msg);
        }
    }
}

struct Shared {
    state: Mutex<EngineState>,
    park_tx: Sender<Park>,
}

/// Handle for scheduling future work; clonable and usable from process code
/// and from device callbacks alike.
#[derive(Clone)]
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Run `f` at virtual time `t` (engine context, no process running).
    pub fn call_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&Scheduler) + Send + 'static,
    {
        let mut st = self.shared.state.lock();
        let t = t.max(st.now);
        st.schedule(t, EventKind::Call(Box::new(f)));
    }

    /// Run `f` after `d` virtual time.
    pub fn call_after<F>(&self, d: SimDuration, f: F)
    where
        F: FnOnce(&Scheduler) + Send + 'static,
    {
        let mut st = self.shared.state.lock();
        let t = st.now + d;
        st.schedule(t, EventKind::Call(Box::new(f)));
    }

    /// Emit a trace line through the installed trace hook, if any.
    pub fn trace(&self, msg: &str) {
        self.shared.state.lock().trace(msg);
    }

    /// Whether a trace hook is installed (lets hot paths skip formatting).
    pub fn has_trace(&self) -> bool {
        self.shared.state.lock().trace.is_some()
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

    pub(crate) fn wake_at(&self, t: SimTime, target: WakeTarget) {
        let mut st = self.shared.state.lock();
        let t = t.max(st.now);
        st.schedule(t, EventKind::Wake(target));
    }
}

/// Per-process context passed to process closures. All blocking operations
/// of the simulation go through this handle.
pub struct Ctx {
    pid: ProcId,
    scheduler: Scheduler,
    resume_rx: Receiver<Resume>,
}

/// Internal marker used to unwind aborted process threads quietly.
struct AbortMarker;

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
            let mut st = self.scheduler.shared.state.lock();
            let t = st.now + d;
            // Fast-forward: while this process runs, no other thread can
            // mutate the scheduler (every other process is parked and the
            // engine thread is waiting for our park), so if our wake
            // would sort before everything queued, parking would only
            // make the engine pop it straight back to us. Advance the
            // clock inline instead and skip both thread handoffs — the
            // event still counts, identically to the two-hop path. A
            // queued event at the same instant wins (it holds an earlier
            // sequence number), exactly as in the two-hop path.
            if st.events_processed < st.event_limit && st.earliest_time().is_none_or(|h| t < h) {
                st.now = t;
                st.events_processed += 1;
                return;
            }
            let slot = &mut st.procs[self.pid.0];
            slot.epoch += 1;
            slot.block_reason = "sleep";
            let epoch = slot.epoch;
            st.schedule(
                t,
                EventKind::Wake(WakeTarget {
                    pid: self.pid,
                    epoch,
                }),
            );
        }
        self.park();
    }

    /// Yield the processor: requeue after every event already scheduled at
    /// the current instant.
    pub fn yield_now(&mut self) {
        {
            let mut st = self.scheduler.shared.state.lock();
            let now = st.now;
            // Fast-forward (see `sleep`): with nothing else queued at the
            // current instant the yield is a no-op — requeueing would
            // bounce straight back through the engine thread.
            if st.events_processed < st.event_limit && st.earliest_time().is_none_or(|h| now < h) {
                st.events_processed += 1;
                return;
            }
            let slot = &mut st.procs[self.pid.0];
            slot.epoch += 1;
            slot.block_reason = "yield";
            let epoch = slot.epoch;
            st.schedule(
                now,
                EventKind::Wake(WakeTarget {
                    pid: self.pid,
                    epoch,
                }),
            );
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
                let mut st = self.scheduler.shared.state.lock();
                let mut inner = ev.inner().lock();
                if inner.epoch != seen {
                    return inner.epoch;
                }
                let slot = &mut st.procs[self.pid.0];
                slot.epoch += 1;
                slot.block_reason = reason;
                inner.waiters.push(WakeTarget {
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
                let mut st = self.scheduler.shared.state.lock();
                let mut inner = ev.inner().lock();
                if inner.epoch != seen {
                    return inner.epoch;
                }
                if st.now >= deadline {
                    return seen;
                }
                let slot = &mut st.procs[self.pid.0];
                slot.epoch += 1;
                slot.block_reason = reason;
                let target = WakeTarget {
                    pid: self.pid,
                    epoch: slot.epoch,
                };
                inner.waiters.push(target);
                st.schedule(deadline, EventKind::Wake(target));
            }
            self.park();
        }
    }

    fn park(&mut self) {
        // Direct handoff: while this thread runs, the engine thread sits
        // blocked waiting for our park, so bouncing control through it
        // costs two thread switches per event. If the next event is a
        // plain wake of a parked process, deliver it from here: pop it,
        // mark the target running and resume it directly — or, when the
        // wake targets this very process, just keep running with no
        // switch at all. Device callbacks (`Call`), an exhausted event
        // budget, an empty queue (run end / deadlock detection) and
        // process exit still go through the engine thread, which keeps
        // sole authority over run termination and error reporting.
        enum Hand {
            SelfResume,
            Direct(Sender<Resume>),
            Engine,
        }
        let hand = {
            let mut st = self.scheduler.shared.state.lock();
            st.procs[self.pid.0].status = ProcStatus::Blocked;
            loop {
                if st.events_processed >= st.event_limit {
                    // Let the engine thread pop the offending event and
                    // report `SimError::EventLimit`.
                    break Hand::Engine;
                }
                match st.next_is_wake() {
                    Some(true) => {}
                    Some(false) | None => break Hand::Engine,
                }
                let Some(ev) = st.pop_next() else {
                    unreachable!("peeked event vanished under the state lock")
                };
                let EventKind::Wake(target) = ev.kind else {
                    unreachable!("next_is_wake said wake")
                };
                debug_assert!(ev.time >= st.now);
                st.now = ev.time;
                st.events_processed += 1;
                let slot = &mut st.procs[target.pid.0];
                if slot.status != ProcStatus::Blocked || slot.epoch != target.epoch {
                    continue; // stale wake, skipped exactly like the engine loop
                }
                slot.status = ProcStatus::Running;
                if target.pid == self.pid {
                    break Hand::SelfResume;
                }
                break Hand::Direct(slot.resume_tx.clone());
            }
        };
        match hand {
            Hand::SelfResume => return,
            Hand::Direct(tx) => {
                tx.send(Resume::Go).expect("process thread gone");
            }
            Hand::Engine => {
                self.scheduler
                    .shared
                    .park_tx
                    .send(Park::Blocked(self.pid))
                    .expect("engine gone while parking");
            }
        }
        match self.resume_rx.recv() {
            Ok(Resume::Go) => {}
            // resume_unwind skips the panic hook: teardown stays quiet.
            Ok(Resume::Abort) | Err(_) => std::panic::resume_unwind(Box::new(AbortMarker)),
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
    shared: Arc<Shared>,
    park_rx: Receiver<Park>,
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
    let (resume_tx, resume_rx) = unbounded();
    let pid;
    {
        let mut st = shared.state.lock();
        pid = ProcId(st.procs.len());
        st.procs.push(ProcSlot {
            name: name.clone(),
            status: ProcStatus::Blocked,
            daemon,
            epoch: 0,
            block_reason: "start",
            resume_tx,
            join: None,
        });
        if !daemon {
            st.live += 1;
        }
        let now = st.now;
        st.schedule(now, EventKind::Wake(WakeTarget { pid, epoch: 0 }));
    }
    let mut ctx = Ctx {
        pid,
        scheduler: Scheduler {
            shared: shared.clone(),
        },
        resume_rx,
    };
    let park_tx = shared.park_tx.clone();
    let handle = std::thread::Builder::new()
        .name(format!("sim:{name}"))
        .spawn(move || {
            // Wait for the first wake before touching anything.
            match ctx.resume_rx.recv() {
                Ok(Resume::Go) => {}
                Ok(Resume::Abort) | Err(_) => return,
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            match result {
                Ok(()) => {
                    let _ = park_tx.send(Park::Finished(pid));
                }
                Err(payload) => {
                    if payload.downcast_ref::<AbortMarker>().is_some() {
                        // Quiet teardown; engine is gone or aborting us.
                        return;
                    }
                    let msg = panic_message(payload.as_ref());
                    let _ = park_tx.send(Park::Panicked(pid, msg));
                }
            }
        })
        .expect("failed to spawn sim process thread");
    shared.state.lock().procs[pid.0].join = Some(handle);
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
        let (park_tx, park_rx) = unbounded();
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                now: SimTime::ZERO,
                next_seq: 0,
                heap: BinaryHeap::new(),
                procs: Vec::new(),
                live: 0,
                events_processed: 0,
                event_limit: u64::MAX,
                trace: None,
            }),
            park_tx,
        });
        Simulation { shared, park_rx }
    }

    /// Install a trace hook invoked by [`Ctx::trace`] / [`Scheduler::trace`].
    pub fn set_trace(&self, hook: impl Fn(SimTime, &str) + Send + 'static) {
        self.shared.state.lock().trace = Some(Box::new(hook));
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
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        loop {
            let ev = {
                let mut st = self.shared.state.lock();
                match st.pop_next() {
                    Some(ev) => {
                        debug_assert!(ev.time >= st.now);
                        st.now = ev.time;
                        st.events_processed += 1;
                        if st.events_processed > st.event_limit {
                            return Err(SimError::EventLimit {
                                limit: st.event_limit,
                                at: st.now,
                            });
                        }
                        Some(ev)
                    }
                    None => None,
                }
            };
            let Some(ev) = ev else {
                let st = self.shared.state.lock();
                if st.live == 0 {
                    return Ok(RunReport {
                        final_time: st.now,
                        events_processed: st.events_processed,
                    });
                }
                let blocked = st
                    .procs
                    .iter()
                    .filter(|p| p.status == ProcStatus::Blocked && !p.daemon)
                    .map(|p| BlockedProc {
                        name: p.name.clone(),
                        reason: p.block_reason.to_string(),
                    })
                    .collect();
                return Err(SimError::Deadlock {
                    at: st.now,
                    blocked,
                });
            };
            match ev.kind {
                EventKind::Call(f) => f(&self.scheduler()),
                EventKind::Wake(target) => {
                    let resume_tx = {
                        let mut st = self.shared.state.lock();
                        let slot = &mut st.procs[target.pid.0];
                        if slot.status != ProcStatus::Blocked || slot.epoch != target.epoch {
                            continue; // stale wake
                        }
                        slot.status = ProcStatus::Running;
                        slot.resume_tx.clone()
                    };
                    resume_tx.send(Resume::Go).expect("process thread gone");
                    match self.park_rx.recv().expect("all process threads gone") {
                        Park::Blocked(pid) => {
                            self.shared.state.lock().procs[pid.0].status = ProcStatus::Blocked;
                        }
                        Park::Finished(pid) => {
                            let mut st = self.shared.state.lock();
                            st.procs[pid.0].status = ProcStatus::Finished;
                            if !st.procs[pid.0].daemon {
                                st.live -= 1;
                            }
                        }
                        Park::Panicked(pid, message) => {
                            let name = {
                                let mut st = self.shared.state.lock();
                                st.procs[pid.0].status = ProcStatus::Finished;
                                if !st.procs[pid.0].daemon {
                                    st.live -= 1;
                                }
                                st.procs[pid.0].name.clone()
                            };
                            return Err(SimError::ProcessPanic { name, message });
                        }
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
        // Abort any still-parked process threads so their stacks unwind and
        // the threads exit; then join them.
        let mut handles = Vec::new();
        {
            let mut st = self.shared.state.lock();
            for slot in st.procs.iter_mut() {
                if slot.status != ProcStatus::Finished {
                    let _ = slot.resume_tx.send(Resume::Abort);
                }
                if let Some(h) = slot.join.take() {
                    handles.push(h);
                }
            }
        }
        for h in handles {
            let _ = h.join();
        }
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
    let now = sched.now();
    for w in waiters {
        sched.wake_at(now, w);
    }
}

pub(crate) fn fire_event(sched: &Scheduler, inner: &Mutex<EventInner>) {
    let waiters = {
        let mut e = inner.lock();
        e.epoch += 1;
        std::mem::take(&mut e.waiters)
    };
    let now = sched.now();
    for w in waiters {
        sched.wake_at(now, w);
    }
}
