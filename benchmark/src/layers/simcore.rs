//! `simcore`: what one hand-off, one callback event, one sleep and one
//! process cost the host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simcore::{Completion, Scheduler, SimDuration, Simulation};

use super::{ns_per_call, run_process};

/// `procs` processes in a ring pass a token by completing the next
/// one's `Completion`; every hop parks one process and wakes another.
/// Host ns per hop.
pub fn ring_handoff(procs: usize, sample: Duration) -> f64 {
    let mut sim = Simulation::new();
    let slots: Arc<Vec<Mutex<Completion>>> =
        Arc::new((0..procs).map(|_| Mutex::new(Completion::new())).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let result = Arc::new(Mutex::new(0.0));
    for me in 0..procs {
        let (slots, stop, result) = (slots.clone(), stop.clone(), result.clone());
        sim.spawn(format!("ring{me}"), move |ctx| {
            let sched = ctx.scheduler();
            let start = Instant::now();
            let mut laps = 0u64;
            loop {
                let mine = slots[me].lock().expect("slot").clone();
                ctx.wait(&mine);
                // A fresh one-shot for the next lap, in place before the
                // token moves on.
                *slots[me].lock().expect("slot") = Completion::new();
                if me == 0 {
                    laps += 1;
                    let elapsed = start.elapsed();
                    if laps.is_multiple_of(16) && elapsed >= sample {
                        let hops = (laps - 1) * procs as u64;
                        *result.lock().expect("result") = elapsed.as_nanos() as f64 / hops as f64;
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                let next = slots[(me + 1) % procs].lock().expect("slot").clone();
                next.complete_now(&sched);
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        });
    }
    slots[0]
        .lock()
        .expect("slot")
        .complete_now(&sim.scheduler());
    sim.run_expect();
    let ns = *result.lock().expect("result");
    ns
}

struct Ticker {
    start: Instant,
    sample: Duration,
    fired: Mutex<u64>,
    result: Mutex<f64>,
}

fn tick(sched: &Scheduler, t: Arc<Ticker>) {
    let fired = {
        let mut f = t.fired.lock().expect("count");
        *f += 1;
        *f
    };
    if fired % 1024 == 0 {
        let elapsed = t.start.elapsed();
        if elapsed >= t.sample {
            *t.result.lock().expect("result") = elapsed.as_nanos() as f64 / fired as f64;
            return;
        }
    }
    sched.call_after(SimDuration::from_nanos(1), move |s| tick(s, t));
}

/// A chain of `Scheduler::call_after` closures with no process involved:
/// the cost of the event queue and dispatch alone. Host ns per event.
pub fn call_event(sample: Duration) -> f64 {
    let mut sim = Simulation::new();
    let ticker = Arc::new(Ticker {
        start: Instant::now(),
        sample,
        fired: Mutex::new(0),
        result: Mutex::new(0.0),
    });
    let t = ticker.clone();
    sim.scheduler()
        .call_after(SimDuration::from_nanos(1), move |s| tick(s, t));
    sim.run_expect();
    let ns = *ticker.result.lock().expect("result");
    ns
}

/// One process sleeping 1 virtual ns in a loop. Host ns per sleep.
pub fn sleep(sample: Duration) -> f64 {
    run_process(Simulation::new(), move |ctx| {
        ns_per_call(sample, 256, || ctx.sleep(SimDuration::from_nanos(1)))
    })
}

/// Create a simulation, spawn 64 processes that do nothing, run it and
/// tear it down. Host us per process.
pub fn spawn(sample: Duration) -> f64 {
    const PROCS: u64 = 64;
    ns_per_call(sample, 1, || {
        let mut sim = Simulation::new();
        for p in 0..PROCS {
            sim.spawn(format!("idle{p}"), |_| {});
        }
        sim.run_expect();
    }) / PROCS as f64
        / 1e3
}
