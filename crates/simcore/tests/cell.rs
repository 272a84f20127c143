//! `SimCell`: who may touch a simulation's shared state, and when.
//!
//! A cell answers to the home of its simulation, held by the thread that
//! runs it; these tests pin what that rule allows (two simulations on two
//! threads at once, build here and run there, nesting, reads after a run)
//! and what it refuses, by a panic rather than a race: a touch while
//! another thread runs the simulation, and a second guard while one is
//! alive — a re-entrant lock, or a guard held across a park.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{mpsc, Arc, Barrier};

use simcore::{Completion, SimCell, SimDuration, SimError, SimGuard, Simulation};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    }
}

/// Two simulations run on two threads at the same time, each touching its
/// own cells thousands of times: neither waits for the other (each holds
/// only its own home, so a rendezvous between the two runs completes) and
/// neither sees the other's writes.
#[test]
fn two_simulations_on_two_threads_never_share_a_holder() {
    const TOUCHES: u64 = 20_000;
    let meet = Arc::new(Barrier::new(2));
    let runs: Vec<_> = (0..2u64)
        .map(|t| {
            let meet = meet.clone();
            std::thread::spawn(move || {
                let mut sim = Simulation::new();
                let count = Arc::new(SimCell::new(0u64));
                let c = count.clone();
                sim.spawn("toucher", move |ctx| {
                    // Both runs are inside `run` here, at once.
                    meet.wait();
                    for _ in 0..TOUCHES {
                        *c.lock() += 1 + t;
                        ctx.yield_now();
                    }
                });
                sim.run_expect();
                let total = *count.lock();
                total
            })
        })
        .collect();
    let totals: Vec<u64> = runs.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(totals, vec![TOUCHES, 2 * TOUCHES]);
}

/// A cell whose simulation another thread is running refuses the touch
/// with a panic, and is the simulation's again once the run is over.
#[test]
fn a_cell_is_refused_while_another_thread_runs_its_simulation() {
    let cell = Arc::new(SimCell::new(1u32));
    let (inside, entered) = mpsc::channel();
    let (release, go) = mpsc::channel::<()>();
    let c = cell.clone();
    let runner = std::thread::spawn(move || {
        let mut sim = Simulation::new();
        sim.spawn("holder", move |_| {
            *c.lock() += 1;
            inside.send(()).unwrap();
            go.recv().unwrap();
            *c.lock() += 1;
        });
        sim.run_expect();
    });
    entered.recv().unwrap();
    let refused = catch_unwind(AssertUnwindSafe(|| *cell.lock()));
    let text = panic_text(refused.expect_err("a touch during another thread's run"));
    assert!(
        text.contains("while another thread runs its simulation"),
        "{text}"
    );
    release.send(()).unwrap();
    runner.join().unwrap();
    assert_eq!(*cell.lock(), 3);
}

/// Cells built and touched on one thread, the simulation run on another,
/// the results read back on the first: each step holds the home in turn.
#[test]
fn built_here_run_there_read_here() {
    let mut sim = Simulation::new();
    let log = Arc::new(SimCell::new(vec![0u32]));
    let done = Completion::new();
    log.lock().push(1);
    // A completion fired before any run: its cell binds outside a run.
    done.complete_now(&sim.scheduler());
    let (l, d) = (log.clone(), done.clone());
    sim.spawn("worker", move |ctx| {
        ctx.wait(&d);
        l.lock().push(2);
        ctx.sleep(SimDuration::from_nanos(5));
        l.lock().push(3);
    });
    let sim = std::thread::spawn(move || {
        sim.run_expect();
        sim
    })
    .join()
    .unwrap();
    assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    assert!(done.is_done());
    // Dropped off the thread it ran on: no process of it is parked
    // mid-body, so any thread may drop it.
    drop(sim);
}

/// A process of one simulation runs another inside it: the inner run
/// touches its own cells and the outer's, and the outer process reads the
/// inner's after the inner run is over.
#[test]
fn nested_simulations_touch_each_others_cells() {
    let mut outer = Simulation::new();
    let outer_cell = Arc::new(SimCell::new(Vec::new()));
    let oc = outer_cell.clone();
    outer.spawn("outer", move |ctx| {
        oc.lock().push("outer before");
        let mut inner = Simulation::new();
        let inner_cell = Arc::new(SimCell::new(0u32));
        let (ic, oc2) = (inner_cell.clone(), oc.clone());
        inner.spawn("inner", move |ictx| {
            *ic.lock() += 1;
            oc2.lock().push("inner");
            ictx.sleep(SimDuration::from_nanos(3));
            *ic.lock() += 1;
        });
        inner.run_expect();
        assert_eq!(*inner_cell.lock(), 2);
        ctx.sleep(SimDuration::from_nanos(1));
        oc.lock().push("outer after");
    });
    outer.run_expect();
    assert_eq!(
        *outer_cell.lock(),
        vec!["outer before", "inner", "outer after"]
    );
}

/// A guard held across a park: the next process to take the cell panics,
/// naming where the live guard was taken and where the second lock is.
#[test]
fn a_guard_held_across_a_park_is_refused_naming_both_sites() {
    let cell = Arc::new(SimCell::new(0u8));
    let mut sim = Simulation::new();
    let c = cell.clone();
    let first = line!() + 2;
    sim.spawn("holder", move |ctx| {
        let guard = c.lock();
        ctx.sleep(SimDuration::from_nanos(10));
        drop(guard);
    });
    let c = cell.clone();
    let again = line!() + 3;
    sim.spawn("taker", move |ctx| {
        ctx.sleep(SimDuration::from_nanos(1));
        *c.lock() += 1;
    });
    let Err(SimError::ProcessPanic { name, message }) = sim.run() else {
        panic!("the second lock() went through");
    };
    assert_eq!(name, "taker");
    let file = file!();
    assert!(message.contains(&format!("{file}:{first}:")), "{message}");
    assert!(message.contains(&format!("{file}:{again}:")), "{message}");
}

/// A second `lock()` of a cell on the thread whose guard is alive panics in
/// every build, naming both sites, and leaves the cell as it was.
#[test]
fn relocking_panics_naming_both_sites() {
    let cell = SimCell::new(0u8);
    let first = line!() + 1;
    let held = cell.lock();
    let again = line!() + 1;
    let refused = catch_unwind(AssertUnwindSafe(|| drop(cell.lock())));
    let text = panic_text(refused.expect_err("the second lock() returned"));
    let file = file!();
    assert!(text.contains(&format!("{file}:{again}:")), "{text}");
    assert!(text.contains(&format!("{file}:{first}:")), "{text}");
    drop(held);
    *cell.lock() += 1;
    assert_eq!(*cell.lock(), 1);
}

/// Outside any run a cell's home is a lock: threads touching a cell no
/// simulation has claimed, or one of a finished simulation, take turns.
/// Every increment reads and writes apart, so a lost update or a torn
/// hand-over shows in the total.
#[test]
fn threads_outside_a_run_take_turns() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 20_000;
    let mut sim = Simulation::new();
    let unclaimed = Arc::new(SimCell::new(0u64));
    let finished = Arc::new(SimCell::new(0u64));
    let f = finished.clone();
    sim.spawn("claimer", move |_| *f.lock() += 0);
    sim.run_expect();
    let start = Arc::new(Barrier::new(THREADS as usize));
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let (a, b, start) = (unclaimed.clone(), finished.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..PER_THREAD {
                    for cell in [&a, &b] {
                        let mut g = cell.lock();
                        let v = std::hint::black_box(*g);
                        *g = v + 1;
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(*unclaimed.lock(), THREADS * PER_THREAD);
    assert_eq!(*finished.lock(), THREADS * PER_THREAD);
}

/// A guard that is never dropped keeps its home for good. Another thread
/// that then touches a cell of that home waits about a second, not
/// forever, and panics naming the holder and the likely cause. The cell
/// belongs to a fresh simulation's home, so no other test waits on it.
#[test]
fn a_forgotten_guard_fails_the_next_taker_within_a_second() {
    let mut sim = Simulation::new();
    let cell = Arc::new(SimCell::new(0u8));
    let c = cell.clone();
    sim.spawn("binder", move |_| *c.lock() += 1);
    sim.run_expect();
    std::mem::forget(cell.lock());
    let c = cell.clone();
    let start = std::time::Instant::now();
    let taker = std::thread::spawn(move || *c.lock()).join();
    let waited = start.elapsed();
    let text = panic_text(taker.expect_err("the taker got a home that is held for good"));
    assert!(text.contains("held outside any run"), "{text}");
    assert!(text.contains("never dropped"), "{text}");
    assert!(
        waited < std::time::Duration::from_secs(10),
        "waited {waited:?}"
    );
}

/// Fails to compile if `$t: $bound` — the method is ambiguous then.
macro_rules! assert_not_impl {
    ($t:ty, $bound:path) => {{
        trait Probe<A> {
            fn probe() {}
        }
        impl<T: ?Sized> Probe<()> for T {}
        struct Yes;
        impl<T: ?Sized + $bound> Probe<Yes> for T {}
        let _ = <$t as Probe<_>>::probe;
    }};
}

#[test]
fn send_and_sync_follow_the_value() {
    fn assert_send_sync<T: Send + Sync>() {}
    // `T: Send` is enough for both, even when `T` is not `Sync`...
    assert_send_sync::<SimCell<Cell<u8>>>();
    // ...and necessary for either.
    assert_not_impl!(SimCell<Rc<u8>>, Send);
    assert_not_impl!(SimCell<Rc<u8>>, Sync);
    // A guard stays on the thread that took it.
    assert_not_impl!(SimGuard<'static, u8>, Send);
}
