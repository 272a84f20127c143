//! Derived-datatype demo: exchange matrix *column* halos between two ranks
//! using strided vector layouts (the paper's "communication using user
//! defined data types" future work, implemented in `dcfa_mpi::datatype`).
//!
//! ```text
//! cargo run --release --example column_halo
//! ```

use dcfa_mpi_repro::dcfa_mpi::datatype::{recv_typed, send_typed, Layout};
use dcfa_mpi_repro::dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::Simulation;
use dcfa_mpi_repro::verbs::IbFabric;
use simcore::SimCell;
use std::sync::Arc;

fn main() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);

    let out: Arc<SimCell<Vec<String>>> = Arc::new(SimCell::new(Vec::new()));
    let out2 = out.clone();

    // A 512 x 512 grid of f64 per rank, column-partitioned: rank 0 owns
    // the left half-plane, rank 1 the right. Each iteration exchanges one
    // boundary *column* — a strided layout with 512 blocks of 8 bytes.
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let (rows, cols, elem) = (512u64, 512u64, 8u64);
            let grid = comm.alloc(rows * cols * elem).unwrap();
            let me = comm.rank();
            let peer = 1 - me;

            // Fill the boundary column with recognizable values.
            let my_boundary = if me == 0 { cols - 1 } else { 0 };
            for r in 0..rows {
                let v = (me as u64 + 1) * 1_000_000 + r;
                comm.write(&grid, (r * cols + my_boundary) * elem, &v.to_le_bytes());
            }

            let send_col = Layout::column(my_boundary, rows, cols, elem);
            // The ghost column lives on the far side of the local grid (a
            // real column-partitioned code would widen the grid by one ghost
            // column per neighbour; reusing the far edge keeps the demo
            // compact without overlapping the send column).
            let halo_col = if me == 0 { 0 } else { cols - 1 };
            let recv_col = Layout::column(halo_col, rows, cols, elem);

            let t0 = ctx.now();
            // Exchange: lower rank sends first (simple two-rank ordering).
            if me == 0 {
                send_typed(ctx, comm, &grid, &send_col, peer, 7).unwrap();
                recv_typed(ctx, comm, &grid, &recv_col, Src::Rank(peer), TagSel::Tag(7)).unwrap();
            } else {
                recv_typed(ctx, comm, &grid, &recv_col, Src::Rank(peer), TagSel::Tag(7)).unwrap();
                send_typed(ctx, comm, &grid, &send_col, peer, 7).unwrap();
            }
            let elapsed = ctx.now() - t0;

            // Verify the received halo column.
            let all = comm.read_vec(&grid);
            let check_row = 100usize;
            let off = (check_row as u64 * cols + halo_col) as usize * 8;
            let v = u64::from_le_bytes(all[off..off + 8].try_into().unwrap());
            let expect = (peer as u64 + 1) * 1_000_000 + check_row as u64;
            assert_eq!(v, expect, "rank {me} halo column corrupted");
            out2.lock().push(format!(
                "rank {me}: column halo exchanged in {elapsed} — halo[{check_row}] = {v} ✓"
            ));
        },
    );
    sim.run_expect();
    for l in out.lock().iter() {
        println!("{l}");
    }
}
