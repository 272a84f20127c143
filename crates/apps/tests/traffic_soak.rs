//! Soak tests: seeded random traffic patterns over DCFA-MPI and the
//! Intel-Phi baseline — every payload byte verified, every seed
//! replayable.

use std::sync::Arc;

use apps::{run_traffic_rank, TrafficPattern};
use baselines::IntelPhiWorld;
use dcfa_mpi::{launch, LaunchOpts, MpiConfig, Placement};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{SimCell, Simulation};
use verbs::IbFabric;

fn soak_dcfa(seed: u64, n: usize, count: usize, cfg: MpiConfig) -> usize {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let pattern = Arc::new(TrafficPattern::generate(seed, n, count, 1 << 20));
    let verified = Arc::new(SimCell::new(0usize));
    let v2 = verified.clone();
    let p2 = pattern.clone();
    launch(
        &sim,
        &ib,
        &scif,
        cfg,
        n,
        LaunchOpts::default(),
        move |ctx, comm| {
            let k = run_traffic_rank(ctx, comm, &p2);
            *v2.lock() += k;
        },
    );
    sim.run_expect();
    let v = *verified.lock();
    assert_eq!(v, count, "every message verified exactly once");
    v
}

#[test]
fn soak_two_ranks_hundred_messages() {
    soak_dcfa(1001, 2, 100, MpiConfig::dcfa());
}

#[test]
fn soak_four_ranks_mixed_sizes() {
    soak_dcfa(2002, 4, 120, MpiConfig::dcfa());
}

#[test]
fn soak_eight_ranks() {
    soak_dcfa(3003, 8, 160, MpiConfig::dcfa());
}

#[test]
fn soak_without_offload_or_cache() {
    let cfg = MpiConfig {
        offload_threshold: None,
        mr_cache_capacity: 0,
        ..MpiConfig::dcfa()
    };
    soak_dcfa(4004, 4, 80, cfg);
}

#[test]
fn soak_host_placement() {
    soak_dcfa(5005, 4, 100, MpiConfig::host());
}

#[test]
fn soak_symmetric_placement() {
    let n = 4;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let pattern = Arc::new(TrafficPattern::generate(6006, n, 100, 1 << 20));
    let verified = Arc::new(SimCell::new(0usize));
    let v2 = verified.clone();
    let p2 = pattern.clone();
    let opts = LaunchOpts {
        placements: Some(vec![
            Placement::Phi,
            Placement::Host,
            Placement::Phi,
            Placement::Host,
        ]),
        ..Default::default()
    };
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        n,
        opts,
        move |ctx, comm| {
            *v2.lock() += run_traffic_rank(ctx, comm, &p2);
        },
    );
    sim.run_expect();
    assert_eq!(*verified.lock(), 100);
}

#[test]
fn soak_intel_phi_baseline() {
    let n = 4;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
    let world = IntelPhiWorld::new(cluster.clone(), n);
    let pattern = Arc::new(TrafficPattern::generate(7007, n, 80, 1 << 20));
    let verified = Arc::new(SimCell::new(0usize));
    let v2 = verified.clone();
    let p2 = pattern.clone();
    world.launch(&sim, move |ctx, comm| {
        *v2.lock() += run_traffic_rank(ctx, comm, &p2);
    });
    sim.run_expect();
    assert_eq!(*verified.lock(), 80);
}

#[test]
fn soak_is_deterministic_in_virtual_time() {
    fn run(seed: u64) -> u64 {
        let n = 3;
        let mut sim = Simulation::new();
        let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n));
        let ib = IbFabric::new(cluster.clone());
        let scif = ScifFabric::new(cluster);
        let pattern = Arc::new(TrafficPattern::generate(seed, n, 60, 1 << 18));
        let p2 = pattern.clone();
        launch(
            &sim,
            &ib,
            &scif,
            MpiConfig::dcfa(),
            n,
            LaunchOpts::default(),
            move |ctx, comm| {
                run_traffic_rank(ctx, comm, &p2);
            },
        );
        sim.run_expect().final_time.as_nanos()
    }
    assert_eq!(run(8008), run(8008));
    assert_ne!(run(8008), run(8009));
}
