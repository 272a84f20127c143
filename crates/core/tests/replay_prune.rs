//! Regression test for unbounded growth of the rendezvous
//! handshake-replay maps (`served_done`/`served_dw`): entries used to be
//! inserted per completed handshake and never removed, so a long soak
//! leaked memory linearly in the operation count. CREDIT watermark
//! pruning must keep the live entry count bounded by the unresolved
//! window regardless of how many operations complete.

use std::sync::Arc;

use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{SimCell, Simulation};
use verbs::IbFabric;

#[test]
fn replay_maps_stay_bounded_over_10k_op_soak() {
    const ROUNDS: usize = 10_000;

    // Small eager threshold so every 1 KiB message takes a rendezvous
    // handshake — each one used to leave a permanent replay entry at the
    // receiver.
    let cfg = MpiConfig {
        eager_threshold: 256,
        ..MpiConfig::dcfa()
    };

    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    // (live replay entries after the soak, replay_pruned counter) per rank.
    let results = Arc::new(SimCell::new(vec![(0usize, 0u64); 2]));
    let results2 = results.clone();
    launch(
        &sim,
        &ib,
        &scif,
        cfg,
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let r = comm.rank();
            let peer = 1 - r;
            let buf = comm.alloc(1024).unwrap();
            // Alternating-direction rendezvous ping-pong: both ranks act
            // as data receiver (populating `served_done`/`served_dw`) and
            // both grant credits that carry pruning watermarks back.
            for round in 0..ROUNDS {
                if round % 2 == r {
                    comm.send(ctx, &buf, peer, 7).unwrap();
                } else {
                    comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(7))
                        .unwrap();
                }
            }
            results2.lock()[r] = (comm.replay_entries(), comm.stats().replay_pruned);
        },
    );
    sim.run_expect();

    let results = results.lock();
    let live: usize = results.iter().map(|(l, _)| l).sum();
    let pruned: u64 = results.iter().map(|(_, p)| p).sum();
    // Without pruning the two ranks would hold ~ROUNDS entries between
    // them; the bound below is the credit-window worth of slack that can
    // legitimately linger between credit grants.
    assert!(
        live < 64,
        "replay maps leaked: {live} live entries after {ROUNDS} ops ({results:?})"
    );
    // And the bound is enforced by actual pruning, not by entries never
    // being created: nearly every handshake's entry must have been pruned.
    assert!(
        pruned as usize >= ROUNDS / 2,
        "expected >= {} pruned replay entries, got {pruned}",
        ROUNDS / 2
    );
}
