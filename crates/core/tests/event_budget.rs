//! Scheduler-event budget for one MPI operation.
//!
//! Every event the simulator processes — a process resumed, a device
//! callback run — is a pop and a push on one timer queue plus whatever
//! the event runs, so host time per operation follows events per
//! operation. The rules (DESIGN "Control plane on events") are that only
//! code that runs MPI is a simulated process, that an engine keeps one
//! armed wake for all its watchdogs and that no wake is ever stale; this test
//! counts the events of the four steady-state loops of `loops/mod.rs`,
//! shaped like the benchmark's workloads — a full run minus a run of its set-up alone, as the
//! benchmark's `simcore.events_per_op` does — divides by the operations
//! completed and holds each quotient under a ceiling. Counts are
//! deterministic, on any machine and in any build.

use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use simcore::SimDuration;

mod loops;
use loops::{eager_pp, halo, mr_churn, rndv_stream, Loop, PerOp};

fn events_per_op(spec: &Loop) -> f64 {
    let full = loops::run(spec, |_| ());
    let setup = loops::run(&spec.setup_only(), |_| ());
    (full.events - setup.events) as f64 / full.ops as f64
}

fn check(spec: &Loop, ceiling: f64) -> Result<(), String> {
    let per_op = events_per_op(spec);
    println!("{}: {per_op:.3} scheduler events per op", spec.name);
    if per_op <= ceiling {
        return Ok(());
    }
    Err(format!(
        "{} runs {per_op:.3} scheduler events per op, over its ceiling of {ceiling}",
        spec.name
    ))
}

// Ceilings: about 1.1 times the counts measured (counts are exact; the
// room is for honest small changes) — less for the churn loop, whose
// ceiling sits 0.6 above its count, and the rendezvous loop, whose
// negative control below adds one event per op. Measured on these loops:
// 4.629 / 8.235 / 18.910 / 5.883 events per op since a DCFA command costs
// its client one wake (the send's and the receive's `cpu_op` folded into
// the reply wait) and the daemon one step; 4.629 / 8.449 / 25.410 / 5.883
// once deadline wakes were cancelled instead of popping stale; 4.629 /
// 8.521 / 27.410 / 5.883 before that, when the control plane had just
// gone onto events; 4.629 / 9.701 / 33.319 / 6.125 with a handler process
// per daemon connection and a scheduler wake per rendezvous watchdog.
const EAGER_CEILING: f64 = 5.1;
const RNDV_CEILING: f64 = 9.0;
const CHURN_CEILING: f64 = 19.5;
const HALO_CEILING: f64 = 6.5;

#[test]
fn eager_pingpong_stays_under_its_event_budget() {
    check(&eager_pp(), EAGER_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn windowed_rendezvous_stays_under_its_event_budget() {
    check(&rndv_stream(), RNDV_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn registration_churn_stays_under_its_event_budget() {
    check(&mr_churn(), CHURN_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn srq_halo_stays_under_its_event_budget() {
    check(&halo(), HALO_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

/// Negative control: the gate is live. A scheduler wake armed per
/// watchdog — one more event per operation, what every rendezvous paid
/// before the engine kept one armed wake — must trip the ceiling.
#[test]
fn one_wake_per_watchdog_trips_the_ceiling() {
    let spec = Loop {
        per_op: PerOp::Wake,
        ..rndv_stream()
    };
    let err = check(&spec, RNDV_CEILING).expect_err("an extra wake per op went unseen");
    assert!(err.contains("rndv_stream"), "{err}");
}

/// A simulated process is something that runs MPI code: a world of N Phi
/// ranks — daemons up, lease reaper and heartbeats on — is N processes.
/// The acceptor, the per-connection handlers, the reaper and the
/// heartbeat sidecars are events.
#[test]
fn a_world_of_n_phi_ranks_is_n_processes() {
    const RANKS: usize = 4;
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let cfg = MpiConfig {
        heartbeat_interval: Some(SimDuration::from_micros(200)),
        ..MpiConfig::dcfa()
    };
    let opts = LaunchOpts {
        ranks_per_node: 2,
        daemon: dcfa::DaemonConfig {
            lease_ttl: Some(SimDuration::from_millis(2)),
            ..Default::default()
        },
        ..Default::default()
    };
    let stats = launch(&sim, &ib, &scif, cfg, RANKS, opts, |ctx, comm| {
        let buf = comm.alloc(64 << 10).expect("Phi memory holds the buffer");
        let (me, peer) = (comm.rank(), comm.rank() ^ 1);
        if me % 2 == 0 {
            comm.send(ctx, &buf, peer, 1).expect("send");
        } else {
            comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(1))
                .expect("recv");
        }
        ctx.sleep(SimDuration::from_millis(1));
    })
    .expect("Phi ranks bring daemons");
    sim.run_expect();
    let daemon = stats.snapshot();
    assert_eq!(daemon.connections, RANKS as u64);
    assert!(
        daemon.heartbeats > 0 && daemon.mr_registered > 0,
        "{daemon:?}"
    );
    let one_more = sim.spawn("one more", |_| {});
    assert_eq!(
        one_more.0, RANKS,
        "processes besides the ranks were spawned"
    );
    sim.run_expect();
}
