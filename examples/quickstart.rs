//! Quickstart: two DCFA-MPI ranks on two simulated Xeon Phi cards —
//! hello-message exchange plus a short ping-pong with timing.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use dcfa_mpi_repro::dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::Simulation;
use dcfa_mpi_repro::verbs::IbFabric;
use simcore::SimCell;

fn main() {
    // Build the simulated machine: 2 nodes, each a host Xeon + Phi card +
    // ConnectX-3 HCA, parameters from the paper's Table I.
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);

    let report: Arc<SimCell<Vec<String>>> = Arc::new(SimCell::new(Vec::new()));
    let report2 = report.clone();

    // DCFA-MPI: ranks live on the Phi cards; resource setup is offloaded to
    // the per-node host daemon; data moves card-to-card over InfiniBand.
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let me = comm.rank();
            let peer = 1 - me;
            let buf = comm.alloc(4096).unwrap();

            // Hello exchange.
            if me == 0 {
                comm.write(&buf, 0, b"hello from the mic side");
                comm.send(ctx, &buf, peer, 0).unwrap();
            } else {
                let st = comm
                    .recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(0))
                    .unwrap();
                let text = String::from_utf8_lossy(&comm.read_vec(&buf)[..23]).into_owned();
                report2.lock().push(format!(
                    "rank 1 received {} bytes from rank {}: {text:?}",
                    st.len, st.source
                ));
            }

            // Ping-pong: blocking round trips, timed in *virtual* time.
            let iters = 100;
            let t0 = ctx.now();
            for _ in 0..iters {
                if me == 0 {
                    comm.send(ctx, &buf.slice(0, 4), peer, 1).unwrap();
                    comm.recv(ctx, &buf.slice(0, 4), Src::Rank(peer), TagSel::Tag(2))
                        .unwrap();
                } else {
                    comm.recv(ctx, &buf.slice(0, 4), Src::Rank(peer), TagSel::Tag(1))
                        .unwrap();
                    comm.send(ctx, &buf.slice(0, 4), peer, 2).unwrap();
                }
            }
            if me == 0 {
                let rtt = (ctx.now() - t0).as_micros_f64() / iters as f64;
                report2.lock().push(format!(
                    "4-byte ping-pong over {iters} iterations: {rtt:.1} us RTT (paper: ~15 us)"
                ));
            }
        },
    );

    sim.run_expect();
    for line in report.lock().iter() {
        println!("{line}");
    }
}
