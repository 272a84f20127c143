//! Unit costs: each crate's public API timed in isolation, from outside
//! (after Kerr, *Dissecting a Small InfiniBand Application Using the
//! Verbs API*: cost each call on its own, then count calls). Every
//! benchmark runs five samples and reports the floor.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ::fabric::{Cluster, ClusterConfig};
use ::simcore::{Ctx, Simulation};

pub mod dcfa;
pub mod fabric;
pub mod scif;
pub mod simcore;
pub mod verbs;

const SAMPLES: usize = 5;

/// A benchmark takes the time one sample should run for and returns its
/// metrics' values for that sample.
type Bench = fn(Duration) -> Vec<f64>;

/// `(metric names, benchmark)`; a benchmark that measures both clocks of
/// one operation reports two metrics.
const BENCHES: &[(&[&str], Bench)] = &[
    (&["simcore.handoff_ns"], |d| {
        vec![simcore::ring_handoff(2, d)]
    }),
    (&["simcore.handoff_ns_64p"], |d| {
        vec![simcore::ring_handoff(64, d)]
    }),
    (&["simcore.call_event_ns"], |d| vec![simcore::call_event(d)]),
    (&["simcore.sleep_ns"], |d| vec![simcore::sleep(d)]),
    (&["simcore.spawn_us_per_proc"], |d| vec![simcore::spawn(d)]),
    (&["fabric.ib_transfer_call_ns"], |d| {
        vec![fabric::ib_transfer_call(d)]
    }),
    (&["fabric.copy_gbs"], |d| vec![fabric::copy_gbs(d)]),
    (&["fabric.alloc_free_ns"], |d| vec![fabric::alloc_free(d)]),
    (&["verbs.post_send_ns"], |d| vec![verbs::post_send(d)]),
    (&["verbs.poll_cq_empty_ns"], |d| {
        vec![verbs::poll_cq_empty(d)]
    }),
    (&["verbs.poll_cq_hit_ns"], |d| vec![verbs::poll_cq_hit(d)]),
    (&["verbs.reg_dereg_mr_ns"], |d| vec![verbs::reg_dereg_mr(d)]),
    (
        &["scif.msg_roundtrip_host_ns", "scif.msg_roundtrip_virt_ns"],
        scif::msg_roundtrip,
    ),
    (
        &["dcfa.reg_dereg_host_ns", "dcfa.reg_dereg_virt_ns"],
        dcfa::reg_dereg,
    ),
    (&["dcfa.sync_offload_host_ns_per_mib"], |d| {
        vec![dcfa::sync_offload(d)]
    }),
];

/// Run every unit-cost benchmark within about `budget` and return
/// `(metric, value)` pairs. A metric whose better direction is "higher"
/// (`fabric.copy_gbs`) takes the ceiling instead of the floor: either
/// way it is the least-disturbed sample.
pub fn run_all(budget: Duration) -> Vec<(String, f64)> {
    let sample = budget / (BENCHES.len() * SAMPLES) as u32;
    let mut out = Vec::new();
    for (names, bench) in BENCHES {
        let samples: Vec<Vec<f64>> = (0..SAMPLES).map(|_| bench(sample)).collect();
        for (i, name) in names.iter().enumerate() {
            let values = samples.iter().map(|s| s[i]);
            let best = if *name == "fabric.copy_gbs" {
                values.fold(f64::NEG_INFINITY, f64::max)
            } else {
                values.fold(f64::INFINITY, f64::min)
            };
            out.push((name.to_string(), best));
        }
    }
    out
}

/// A two-node paper-calibrated cluster on a fresh simulation.
fn two_nodes() -> (Simulation, Arc<Cluster>) {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    (sim, cluster)
}

/// Spawn `body` as the only measured process of `sim`, run the
/// simulation and return what the body measured.
fn run_process<T: Send + 'static>(
    mut sim: Simulation,
    body: impl FnOnce(&mut Ctx) -> T + Send + 'static,
) -> T {
    let slot = Arc::new(Mutex::new(None));
    let slot2 = slot.clone();
    sim.spawn("bench", move |ctx| {
        *slot2.lock().expect("result slot") = Some(body(ctx));
    });
    sim.run_expect();
    let out = slot.lock().expect("result slot").take();
    out.expect("the benchmark process ran to its end")
}

/// Call `op` until `sample` has passed (checked every `batch` calls) and
/// return host ns per call.
fn ns_per_call(sample: Duration, batch: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch;
        let elapsed = start.elapsed();
        if elapsed >= sample {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}
