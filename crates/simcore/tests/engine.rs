//! Integration tests for the discrete-event engine: determinism, ordering,
//! blocking primitives, deadlock and panic reporting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{
    proc_local, Completion, Mailbox, SimDuration, SimError, SimEvent, SimTime, Simulation,
};

#[test]
fn single_process_advances_time() {
    let mut sim = Simulation::new();
    sim.spawn("p", |ctx| {
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.sleep(SimDuration::from_micros(5));
        assert_eq!(ctx.now().as_nanos(), 5_000);
        ctx.sleep(SimDuration::from_micros(5));
        assert_eq!(ctx.now().as_nanos(), 10_000);
    });
    let report = sim.run_expect();
    assert_eq!(report.final_time.as_nanos(), 10_000);
}

#[test]
fn zero_sleep_is_noop() {
    let mut sim = Simulation::new();
    sim.spawn("p", |ctx| {
        ctx.sleep(SimDuration::ZERO);
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run_expect();
}

#[test]
fn processes_interleave_in_time_order() {
    let log: Arc<Mutex<Vec<(u64, &'static str)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for (name, step) in [("a", 3u64), ("b", 5u64)] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            for _ in 0..3 {
                ctx.sleep(SimDuration::from_nanos(step));
                log.lock().push((ctx.now().as_nanos(), name));
            }
        });
    }
    sim.run_expect();
    let got = log.lock().clone();
    assert_eq!(
        got,
        vec![(3, "a"), (5, "b"), (6, "a"), (9, "a"), (10, "b"), (15, "b"),]
    );
}

#[test]
fn equal_time_events_fire_in_schedule_order() {
    let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for i in 0..8 {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.sleep(SimDuration::from_nanos(100));
            log.lock().push(i);
        });
    }
    sim.run_expect();
    assert_eq!(log.lock().clone(), (0..8).collect::<Vec<_>>());
}

#[test]
fn determinism_across_runs() {
    fn run_once() -> Vec<(u64, usize)> {
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let ev = SimEvent::new();
        let counter = Arc::new(Mutex::new(0u32));
        for i in 0..5 {
            let log = log.clone();
            let ev = ev.clone();
            let counter = counter.clone();
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.sleep(SimDuration::from_nanos(10 * (i as u64 % 3)));
                loop {
                    let seen = ev.epoch();
                    if *counter.lock() >= i as u32 {
                        break;
                    }
                    ctx.wait_event(&ev, seen, "counter");
                }
                *counter.lock() += 1;
                let sched = ctx.scheduler();
                ev.notify_all(&sched);
                log.lock().push((ctx.now().as_nanos(), i));
            });
        }
        sim.run_expect();
        let out = log.lock().clone();
        out
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
    assert_eq!(a.len(), 5);
}

#[test]
fn completion_wakes_waiter_at_exact_time() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("waiter", move |ctx| {
        ctx.wait(&c2);
        assert_eq!(ctx.now().as_nanos(), 777);
    });
    let c3 = c.clone();
    sim.spawn("signaler", move |ctx| {
        let sched = ctx.scheduler();
        c3.complete_at(&sched, SimTime(777));
    });
    sim.run_expect();
}

#[test]
fn wait_on_already_done_completion_returns_immediately() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("p", move |ctx| {
        let sched = ctx.scheduler();
        c2.complete_now(&sched);
        ctx.wait(&c2);
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    sim.run_expect();
}

#[test]
fn multiple_waiters_on_one_completion() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let hits = Arc::new(Mutex::new(0u32));
    for i in 0..4 {
        let c = c.clone();
        let hits = hits.clone();
        sim.spawn(format!("w{i}"), move |ctx| {
            ctx.wait(&c);
            assert_eq!(ctx.now().as_nanos(), 42);
            *hits.lock() += 1;
        });
    }
    let c2 = c.clone();
    sim.spawn("sig", move |ctx| {
        let sched = ctx.scheduler();
        c2.complete_at(&sched, SimTime(42));
    });
    sim.run_expect();
    assert_eq!(*hits.lock(), 4);
}

#[test]
fn mailbox_transfers_between_processes() {
    let mut sim = Simulation::new();
    let mb: Mailbox<u64> = Mailbox::new();
    let tx = mb.clone();
    sim.spawn("producer", move |ctx| {
        for i in 0..10 {
            ctx.sleep(SimDuration::from_nanos(100));
            let sched = ctx.scheduler();
            tx.send(&sched, i);
        }
    });
    let rx = mb.clone();
    let got = Arc::new(Mutex::new(Vec::new()));
    let got2 = got.clone();
    sim.spawn("consumer", move |ctx| {
        for _ in 0..10 {
            let v = rx.recv(ctx);
            got2.lock().push((ctx.now().as_nanos(), v));
        }
    });
    sim.run_expect();
    let got = got.lock().clone();
    assert_eq!(got.len(), 10);
    for (i, (t, v)) in got.iter().enumerate() {
        assert_eq!(*v, i as u64);
        assert_eq!(*t, 100 * (i as u64 + 1));
    }
}

#[test]
fn deadlock_is_reported_with_names_and_reasons() {
    let mut sim = Simulation::new();
    let c = Completion::new();
    let c2 = c.clone();
    sim.spawn("stuck-rank", move |ctx| {
        ctx.wait_reason(&c2, "recv from rank 1");
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].name, "stuck-rank");
            assert_eq!(blocked[0].reason, "recv from rank 1");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn process_panic_is_captured() {
    let mut sim = Simulation::new();
    sim.spawn("bad", |_ctx| {
        panic!("protocol violation xyz");
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("protocol violation xyz"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn event_limit_catches_livelock() {
    let mut sim = Simulation::new();
    sim.set_event_limit(1000);
    sim.spawn("spinner", |ctx| loop {
        ctx.yield_now();
    });
    match sim.run() {
        Err(SimError::EventLimit { limit, .. }) => assert_eq!(limit, 1000),
        other => panic!("expected event limit, got {other:?}"),
    }
}

/// The limit refuses an event before popping it: the event stays queued and
/// the clock where it was, so a later `run` under a higher limit carries on
/// as if nothing had happened. (The loop used to pop, count, find the count
/// over the limit and return with the popped wake dropped on the floor: the
/// second `run` then reported a deadlock for a program that cannot have one.)
#[test]
fn the_event_limit_leaves_the_refused_event_queued() {
    let build = || {
        let sim = Simulation::new();
        let finished = Arc::new(AtomicUsize::new(0));
        for name in ["a", "b"] {
            let finished = finished.clone();
            sim.spawn(name, move |ctx| {
                for _ in 0..4 {
                    ctx.sleep(SimDuration::from_nanos(10));
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        (sim, finished)
    };
    let (mut unlimited, _) = build();
    let unlimited = unlimited.run_expect();

    // Refused at limit 2, the first wake (t=10) leaves the clock at the
    // starts' t=0; at limit 3 it is the second wake of that instant.
    for (limit, clock) in [(2, 0), (3, 10)] {
        let (mut sim, finished) = build();
        sim.set_event_limit(limit);
        match sim.run() {
            Err(SimError::EventLimit { limit: l, at }) => assert_eq!((l, at), (limit, SimTime(10))),
            other => panic!("expected the event limit, got {other:?}"),
        }
        assert_eq!(sim.scheduler().now(), SimTime(clock), "the clock moved");
        sim.set_event_limit(1000);
        let report = sim.run().expect("the refused wake was still queued");
        assert_eq!(finished.load(Ordering::SeqCst), 2);
        assert_eq!(report.events_processed, unlimited.events_processed);
        assert_eq!(report.final_time, unlimited.final_time);
    }
}

#[test]
fn spawn_from_within_process() {
    let mut sim = Simulation::new();
    let total = Arc::new(Mutex::new(0u32));
    let total2 = total.clone();
    sim.spawn("parent", move |ctx| {
        ctx.sleep(SimDuration::from_nanos(10));
        for i in 0..3 {
            let total = total2.clone();
            ctx.spawn(format!("child{i}"), move |cctx| {
                cctx.sleep(SimDuration::from_nanos(5));
                *total.lock() += 1;
            });
        }
    });
    let report = sim.run_expect();
    assert_eq!(*total.lock(), 3);
    assert_eq!(report.final_time.as_nanos(), 15);
}

#[test]
fn scheduler_call_after_runs_at_offset() {
    let mut sim = Simulation::new();
    let hit = Arc::new(Mutex::new(None));
    let hit2 = hit.clone();
    sim.spawn("p", move |ctx| {
        let sched = ctx.scheduler();
        let hit3 = hit2.clone();
        sched.call_after(SimDuration::from_micros(2), move |s| {
            *hit3.lock() = Some(s.now());
        });
        ctx.sleep(SimDuration::from_micros(5));
    });
    sim.run_expect();
    assert_eq!(hit.lock().unwrap(), SimTime(2_000));
}

#[test]
fn yield_now_lets_same_time_peers_run() {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let l1 = log.clone();
    sim.spawn("first", move |ctx| {
        l1.lock().push("first-before");
        ctx.yield_now();
        l1.lock().push("first-after");
    });
    let l2 = log.clone();
    sim.spawn("second", move |_ctx| {
        l2.lock().push("second");
    });
    sim.run_expect();
    assert_eq!(
        log.lock().clone(),
        vec!["first-before", "second", "first-after"]
    );
}

/// One clock, three ways to move it, every reader agrees: `now()` is the
/// time a `call_at` callback was scheduled for, the time a fast-forwarded
/// `sleep` advanced to, the time a parked `sleep` woke at — and, once `run`
/// has returned, what any other thread reads.
#[test]
fn now_is_the_one_clock() {
    let seen: Arc<Mutex<Vec<(&'static str, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let s2 = seen.clone();
    sim.scheduler().call_at(SimTime(40), move |s| {
        s2.lock().push(("call", s.now().as_nanos()));
    });
    let s3 = seen.clone();
    sim.spawn("p", move |ctx| {
        // Nothing is queued before t=40: this sleep advances the clock
        // inline, without a trip through the event loop...
        ctx.sleep(SimDuration::from_nanos(25));
        s3.lock().push(("fast-forward", ctx.now().as_nanos()));
        // ...and this one crosses the callback, so it parks.
        ctx.sleep(SimDuration::from_nanos(30));
        s3.lock().push(("park", ctx.now().as_nanos()));
        assert_eq!(ctx.scheduler().now(), ctx.now());
    });
    let report = sim.run_expect();
    assert_eq!(
        *seen.lock(),
        vec![("fast-forward", 25), ("call", 40), ("park", 55)]
    );
    assert_eq!(report.final_time, SimTime(55));
    let sched = sim.scheduler();
    let elsewhere = std::thread::spawn(move || sched.now())
        .join()
        .expect("reader thread");
    assert_eq!(elsewhere, report.final_time);
}

/// The reads a progress loop makes when nothing is new take no lock at
/// all, a callback event costs the engine state once (to take it back after
/// the callback ran unlocked), and a block costs it once — from registering
/// the wake through popping the next event — and at most one context
/// switch. (Counted by the lock shim and the switch, debug builds only.)
#[cfg(debug_assertions)]
#[test]
fn polling_reads_take_no_lock_and_a_block_takes_one() {
    use parking_lot::lock_count;

    const CALLS: u64 = 100;
    const SLEEPS: u64 = 50;
    let locks_of = |f: &mut dyn FnMut()| {
        let before = lock_count::total();
        f();
        lock_count::total() - before
    };
    // What `run` itself takes: one on the way in, one to fetch the verdict.
    const RUN: u64 = 2;

    // Callbacks only, all on `run`'s own stack: no switch at all.
    let mut sim = Simulation::new();
    let sched = sim.scheduler();
    let ev = SimEvent::new();
    let mb: Mailbox<u8> = Mailbox::new();
    for i in 0..CALLS {
        let (ev, mb) = (ev.clone(), mb.clone());
        sched.call_at(SimTime(i), move |s| {
            let before = lock_count::total();
            let _ = (s.now(), ev.epoch(), mb.len(), mb.try_recv());
            assert_eq!(lock_count::total(), before, "an empty poll took a lock");
        });
    }
    let switches = simcore::switch_count();
    let locks = locks_of(&mut || {
        sim.run_expect();
    });
    assert_eq!(locks, RUN + CALLS);
    assert_eq!(simcore::switch_count(), switches);

    // Two processes whose sleeps interleave, so that every sleep but the
    // first of "b" finds the other's wake queued ahead of its own and
    // blocks: each `sleep` call is one acquisition, fast-forwarded or not,
    // and each process ending one more. Every popped event is a wake for
    // the other process — one switch — and the last one out switches to
    // `run`'s caller.
    let mut sim = Simulation::new();
    for (name, offset) in [("a", 0), ("b", 5)] {
        sim.spawn(name, move |ctx| {
            ctx.sleep(SimDuration::from_nanos(offset));
            for _ in 0..SLEEPS {
                ctx.sleep(SimDuration::from_nanos(10));
            }
        });
    }
    let mut events = 0;
    let switches = simcore::switch_count();
    let locks = locks_of(&mut || events = sim.run_expect().events_processed);
    let switches = simcore::switch_count() - switches;
    let sleep_calls = 2 * SLEEPS + 1; // a zero sleep returns at once
    let fast_forwarded = 1; // "b"'s offset: counted as an event, never queued
    assert_eq!(events, 2 + sleep_calls);
    assert_eq!(locks, RUN + sleep_calls + 2);
    assert_eq!(switches, events - fast_forwarded + 1);
    assert!(switches <= events, "more than one switch per event");
}

/// A process that blocks with nobody else runnable runs the event loop
/// itself: the callbacks it sleeps across run on its stack — seeing the word
/// of `run`'s caller, not the process's — and its own wake is a plain
/// return, so the whole sleep makes no context switch.
#[test]
fn a_process_alone_hosts_its_callbacks_and_never_switches() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let seen2 = seen.clone();
    sim.spawn("host", move |ctx| {
        proc_local::set(42);
        for at in 1..=3 {
            let seen = seen2.clone();
            ctx.scheduler()
                .call_after(SimDuration::from_nanos(at), move |s| {
                    seen.lock().push((s.now().as_nanos(), proc_local::get()));
                    proc_local::set(7 + at); // the outside word moves on
                });
        }
        #[cfg(debug_assertions)]
        let switches = simcore::switch_count();
        ctx.sleep(SimDuration::from_nanos(10));
        #[cfg(debug_assertions)]
        assert_eq!(simcore::switch_count(), switches, "a switch for nobody");
        assert_eq!(ctx.now(), SimTime(10));
        assert_eq!(proc_local::get(), 42, "the process's own word is back");
    });
    proc_local::set(7);
    sim.run_expect();
    assert_eq!(*seen.lock(), vec![(1, 7), (2, 8), (3, 9)]);
    assert_eq!(
        proc_local::get(),
        10,
        "the caller's word, as the callbacks left it"
    );
    proc_local::set(0);
}

/// Pinned execution order of the event queue: a mixed wake + device-callback
/// workload (300 procs, `sleep` + `call_after`) must replay the exact
/// `(time, proc, round)` trace and event count recorded before the queue
/// was reduced to one heap. Any scheduler change is checked against this.
#[test]
fn event_order_is_pinned() {
    let log: Arc<Mutex<Vec<(u64, usize, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for i in 0..300 {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for round in 0..6u32 {
                let d = 1 + ((i as u64 * 7 + u64::from(round) * 13) % 97);
                ctx.sleep(SimDuration::from_nanos(d));
                log.lock().push((ctx.now().as_nanos(), i, round));
                if round == 2 {
                    let log = log.clone();
                    let sched = ctx.scheduler();
                    sched.call_after(SimDuration::from_nanos(50), move |s| {
                        log.lock().push((s.now().as_nanos(), i, 99));
                    });
                }
            }
        });
    }
    let report = sim.run_expect();
    let trace = log.lock().clone();
    assert_eq!(trace.len(), 300 * 7);
    // FNV-1a over the little-endian words of every trace entry.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(time, proc, round) in &trace {
        for word in [time, proc as u64, u64::from(round)] {
            for b in word.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, 0x7ddd_9676_5570_8843);
    assert_eq!(report.events_processed, 2400);
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new();
    let n = 256;
    let done = Arc::new(Mutex::new(0u32));
    for i in 0..n {
        let done = done.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for _ in 0..10 {
                ctx.sleep(SimDuration::from_nanos(1 + i as u64));
            }
            *done.lock() += 1;
        });
    }
    sim.run_expect();
    assert_eq!(*done.lock(), n);
}

/// Bumps a shared counter when dropped.
struct CountDrop(Arc<AtomicUsize>);

impl Drop for CountDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or(String::new(), |s| s.to_string()),
    }
}

/// A process stack is the 2 MiB a spawned thread gets: recursing through
/// more than 1 MiB of frames and parking at the bottom must work.
#[test]
fn process_stack_holds_a_mebibyte_of_frames() {
    const DEPTH_BYTES: usize = (1 << 20) + (256 << 10);

    /// Recurse until the frames below `top` span `DEPTH_BYTES`, park
    /// there, and return how many frames that took.
    #[inline(never)]
    fn descend(ctx: &mut simcore::Ctx, top: usize) -> u64 {
        let mut frame = [0u8; 512];
        std::hint::black_box(&mut frame);
        if top - frame.as_ptr() as usize >= DEPTH_BYTES {
            ctx.sleep(SimDuration::from_nanos(1));
            return u64::from(frame[0]);
        }
        descend(ctx, top) + 1 + u64::from(frame[511])
    }
    let mut sim = Simulation::new();
    // A second process so the sleep at the bottom really parks.
    sim.spawn("peer", |ctx| ctx.sleep(SimDuration::from_nanos(2)));
    sim.spawn("deep", |ctx| {
        let top = 0u8;
        let frames = descend(ctx, &raw const top as usize);
        assert!(
            frames >= 16,
            "only {frames} frames: the recursion was flattened"
        );
    });
    sim.run_expect();
}

/// Optimised builds keep floating-point values in callee-saved vector
/// registers across a park; a switch that dropped them would show here.
#[test]
fn floating_point_state_survives_parks() {
    fn mix(acc: &mut [f64; 4], round: u32, seed: f64) {
        for a in acc {
            *a = *a * 1.25 + f64::from(round) * seed;
        }
    }
    let mut sim = Simulation::new();
    for seed in [0.5f64, 3.25] {
        sim.spawn(format!("fp{seed}"), move |ctx| {
            let mut expected = [1.5 * seed, 2.5, 3.5, 4.5];
            (0..8).for_each(|round| mix(&mut expected, round, seed));
            let mut acc = [1.5 * seed, 2.5, 3.5, 4.5];
            for round in 0..8 {
                ctx.sleep(SimDuration::from_nanos(1)); // the peer runs in between
                mix(&mut acc, round, seed);
            }
            assert_eq!(acc, expected);
        });
    }
    sim.run_expect();
}

#[test]
fn panic_is_reported_and_parked_processes_unwind_once_on_drop() {
    let drops = Arc::new(AtomicUsize::new(0));
    let never = Completion::new();
    let mut sim = Simulation::new();
    for name in ["parked-a", "parked-b"] {
        let (drops, never) = (drops.clone(), never.clone());
        sim.spawn(name, move |ctx| {
            let _local = CountDrop(drops);
            ctx.wait(&never);
            unreachable!("the completion never fires");
        });
    }
    sim.spawn("bad", |ctx| {
        ctx.sleep(SimDuration::from_nanos(5));
        panic!("boom at five");
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "bad");
            assert_eq!(message, "boom at five");
        }
        other => panic!("expected panic error, got {other:?}"),
    }
    assert_eq!(drops.load(Ordering::SeqCst), 0, "still parked mid-body");
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 2, "each local dropped once");
}

/// A callback runs on whatever stack is dispatching, but its panic is not
/// its host's: `run` unwinds with the callback's own payload on its caller's
/// stack, and the process that happened to host it is left parked — its
/// locals drop once, when the simulation is torn down.
#[test]
fn a_callbacks_panic_is_not_charged_to_its_host() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    let guard = CountDrop(drops.clone());
    sim.spawn("innocent", move |ctx| {
        let _guard = guard;
        ctx.scheduler()
            .call_after(SimDuration::from_nanos(5), |_| panic!("callback blew up"));
        // Blocks with nothing else runnable: hosts the callback.
        ctx.sleep(SimDuration::from_nanos(10));
        unreachable!("`run` never comes back to this process");
    });
    // What a `#[should_panic(expected = ..)]` caller would see.
    let unwound = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must unwind");
    assert_eq!(panic_text(unwound), "callback blew up");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        0,
        "the host is parked, not unwound"
    );
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "its local dropped once");
}

#[test]
fn unstarted_processes_drop_their_closures_unrun() {
    let drops = Arc::new(AtomicUsize::new(0));
    let ran = Arc::new(AtomicBool::new(false));
    let sim = Simulation::new();
    for i in 0..3 {
        let (captured, ran) = (CountDrop(drops.clone()), ran.clone());
        sim.spawn(format!("p{i}"), move |_ctx| {
            let _captured = captured;
            ran.store(true, Ordering::SeqCst);
        });
    }
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
    assert!(!ran.load(Ordering::SeqCst));
}

/// The per-process word follows the process across parks and is not what
/// device callbacks or the caller of `run` see.
#[test]
fn proc_local_word_is_per_process() {
    let seen_by_call = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for me in 1..=3u64 {
        let seen_by_call = seen_by_call.clone();
        sim.spawn(format!("p{me}"), move |ctx| {
            assert_eq!(proc_local::get(), 0, "a process starts with a zero word");
            for round in 0..4 {
                proc_local::set(me * 100 + round);
                let seen = seen_by_call.clone();
                ctx.scheduler()
                    .call_after(SimDuration::from_nanos(1), move |_| {
                        seen.lock().push(proc_local::get());
                    });
                ctx.sleep(SimDuration::from_nanos(me));
                assert_eq!(proc_local::get(), me * 100 + round);
            }
        });
    }
    proc_local::set(7);
    sim.run_expect();
    assert_eq!(proc_local::get(), 7, "the caller's word is restored");
    proc_local::set(0);
    assert_eq!(*seen_by_call.lock(), vec![7; 12]);
}

#[test]
fn built_on_one_thread_runs_on_another() {
    let hits = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    for i in 0..4 {
        let hits = hits.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.sleep(SimDuration::from_nanos(10 + i));
            hits.fetch_add(1, Ordering::SeqCst);
        });
    }
    let report = std::thread::spawn(move || sim.run_expect())
        .join()
        .expect("runs on the second thread");
    assert_eq!(report.final_time.as_nanos(), 13);
    assert_eq!(hits.load(Ordering::SeqCst), 4);
}

/// Parked stacks belong to the thread that ran them: resuming or tearing
/// them down anywhere else is refused, naming both threads.
#[test]
fn a_simulation_that_ran_is_bound_to_its_thread() {
    let first = std::thread::Builder::new().name("first-runner".into());
    let mut sim = first
        .spawn(|| {
            let mut sim = Simulation::new();
            let never = Completion::new();
            sim.spawn("parked", move |ctx| ctx.wait(&never));
            assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
            sim
        })
        .expect("spawn")
        .join()
        .expect("first run");
    let here = std::thread::current();
    let here = here.name().expect("test threads are named");

    let refused = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must be refused");
    let text = panic_text(refused);
    assert!(text.contains("must be run on the thread"), "{text}");
    assert!(
        text.contains("first-runner") && text.contains(here),
        "{text}"
    );

    let refused = catch_unwind(AssertUnwindSafe(move || drop(sim))).expect_err("drop too");
    let text = panic_text(refused);
    assert!(text.contains("must be dropped on the thread"), "{text}");
    assert!(
        text.contains("first-runner") && text.contains(here),
        "{text}"
    );
}

/// The engine's stack pointer is saved per resumed process, not per
/// thread, so a process may build and run a whole simulation of its own.
#[test]
fn a_simulation_runs_nested_inside_a_process() {
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut outer = Simulation::new();
    for name in ["host-a", "host-b"] {
        let log = log.clone();
        outer.spawn(name, move |ctx| {
            ctx.sleep(SimDuration::from_nanos(10));
            let mut inner = Simulation::new();
            let mb: Mailbox<u64> = Mailbox::new();
            let (tx, rx) = (mb.clone(), mb);
            inner.spawn("tx", move |ictx| {
                for i in 0..3 {
                    ictx.sleep(SimDuration::from_nanos(7));
                    tx.send(&ictx.scheduler(), i);
                }
            });
            let ilog = log.clone();
            inner.spawn("rx", move |ictx| {
                for _ in 0..3 {
                    let v = rx.recv(ictx);
                    ilog.lock()
                        .push(format!("{name} inner {v}@{}", ictx.now().as_nanos()));
                }
            });
            let report = inner.run_expect();
            assert_eq!(report.final_time.as_nanos(), 21);
            // Still a process of the outer simulation, on the outer clock.
            assert_eq!(ctx.now().as_nanos(), 10);
            ctx.sleep(SimDuration::from_nanos(5));
            log.lock()
                .push(format!("{name} outer@{}", ctx.now().as_nanos()));
        });
    }
    assert_eq!(outer.run_expect().final_time.as_nanos(), 15);
    let inner = |n: &'static str| (0..3).map(move |i| format!("{n} inner {i}@{}", 7 * (i + 1)));
    let expected: Vec<String> = inner("host-a")
        .chain(inner("host-b"))
        .chain(["host-a outer@15".into(), "host-b outer@15".into()])
        .collect();
    assert_eq!(*log.lock(), expected);
}
