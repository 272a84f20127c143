//! Property tests for the engine: determinism under arbitrary schedules,
//! time monotonicity, and completion/event semantics.

use std::sync::Arc;

use proptest::prelude::*;
use simcore::{Completion, SimCell, SimDuration, SimEvent, Simulation};

#[derive(Debug, Clone)]
enum Step {
    Sleep(u16),
    Yield,
    Signal(u8),
    WaitOn(u8),
    Notify(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u16..5000).prop_map(Step::Sleep),
        Just(Step::Yield),
        (0u8..4).prop_map(Step::Signal),
        (0u8..4).prop_map(Step::WaitOn),
        (0u8..4).prop_map(Step::Notify),
    ]
}

/// Run a program of per-process steps; return the event log.
fn run_program(procs: &[Vec<Step>]) -> Vec<(u64, usize, usize)> {
    let mut sim = Simulation::new();
    sim.set_event_limit(200_000);
    let completions: Vec<Completion> = (0..4).map(|_| Completion::new()).collect();
    let events: Vec<SimEvent> = (0..4).map(|_| SimEvent::new()).collect();
    let log: Arc<SimCell<Vec<(u64, usize, usize)>>> = Arc::new(SimCell::new(Vec::new()));

    // A watchdog signals every completion late so WaitOn never deadlocks.
    {
        let completions = completions.clone();
        sim.spawn("watchdog", move |ctx| {
            ctx.sleep(SimDuration::from_millis(100));
            let sched = ctx.scheduler();
            for c in &completions {
                c.complete_now(&sched);
            }
        });
    }

    for (pid, steps) in procs.iter().enumerate() {
        let steps = steps.clone();
        let completions = completions.clone();
        let events = events.clone();
        let log = log.clone();
        sim.spawn(format!("p{pid}"), move |ctx| {
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(*ns as u64)),
                    Step::Yield => ctx.yield_now(),
                    Step::Signal(k) => {
                        let sched = ctx.scheduler();
                        completions[*k as usize].complete_now(&sched);
                    }
                    Step::WaitOn(k) => ctx.wait(&completions[*k as usize]),
                    Step::Notify(k) => {
                        let sched = ctx.scheduler();
                        events[*k as usize].notify_all(&sched);
                    }
                }
                log.lock().push((ctx.now().as_nanos(), pid, i));
            }
        });
    }
    sim.run_expect();
    let out = log.lock().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn schedules_are_deterministic(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..12),
            1..5,
        )
    ) {
        let a = run_program(&programs);
        let b = run_program(&programs);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn per_process_time_is_monotone(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..12),
            1..5,
        )
    ) {
        let log = run_program(&programs);
        for pid in 0..programs.len() {
            let times: Vec<u64> = log.iter().filter(|(_, p, _)| *p == pid).map(|(t, _, _)| *t).collect();
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1], "time went backwards for p{pid}: {:?}", w);
            }
        }
    }

    #[test]
    fn all_steps_execute(
        programs in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..12),
            1..5,
        )
    ) {
        let log = run_program(&programs);
        let expected: usize = programs.iter().map(|p| p.len()).sum();
        prop_assert_eq!(log.len(), expected);
    }
}
