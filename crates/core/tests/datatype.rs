//! Derived-datatype tests: pack/unpack correctness over the full MPI path
//! (column halos, indexed layouts, typed send/recv).

use std::sync::Arc;

use dcfa_mpi::datatype::{pack, recv_typed, send_typed, unpack, Layout};
use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_mpi<F>(nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        nprocs,
        LaunchOpts::default(),
        f,
    );
    sim.run_expect();
}

#[test]
fn pack_unpack_roundtrip_vector() {
    run_mpi(1, |ctx, comm| {
        // 8x8 matrix of u64-sized cells; extract column 3.
        let base = comm.alloc(8 * 8 * 8).unwrap();
        for r in 0..8u64 {
            for c in 0..8u64 {
                comm.write(&base, (r * 8 + c) * 8, &(r * 100 + c).to_le_bytes());
            }
        }
        let col = Layout::column(3, 8, 8, 8);
        let stage = comm.alloc(col.packed_len()).unwrap();
        pack(ctx, comm, &base, &col, &stage);
        let packed = comm.read_vec(&stage);
        for r in 0..8usize {
            let v = u64::from_le_bytes(packed[r * 8..(r + 1) * 8].try_into().unwrap());
            assert_eq!(v, r as u64 * 100 + 3);
        }
        // Unpack into column 5 of a fresh matrix.
        let dst = comm.alloc(8 * 8 * 8).unwrap();
        let col5 = Layout::column(5, 8, 8, 8);
        unpack(ctx, comm, &stage, &col5, &dst);
        let all = comm.read_vec(&dst);
        for r in 0..8usize {
            let v = u64::from_le_bytes(all[(r * 8 + 5) * 8..(r * 8 + 6) * 8].try_into().unwrap());
            assert_eq!(v, r as u64 * 100 + 3);
            // Other columns untouched (zero).
            let v0 = u64::from_le_bytes(all[(r * 8) * 8..(r * 8 + 1) * 8].try_into().unwrap());
            assert_eq!(v0, 0);
        }
    });
}

#[test]
fn column_halo_exchange_between_ranks() {
    // Rank 0 sends its rightmost column; rank 1 receives it into its
    // leftmost column — the classic 2-D column-halo pattern the paper's
    // user-defined-datatype future work targets.
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    run_mpi(2, move |ctx, comm| {
        let (rows, cols, elem) = (16u64, 10u64, 8u64);
        let grid = comm.alloc(rows * cols * elem).unwrap();
        if comm.rank() == 0 {
            for r in 0..rows {
                comm.write(
                    &grid,
                    (r * cols + (cols - 1)) * elem,
                    &(7000 + r).to_le_bytes(),
                );
            }
            let right_col = Layout::column(cols - 1, rows, cols, elem);
            send_typed(ctx, comm, &grid, &right_col, 1, 42).unwrap();
        } else {
            let left_col = Layout::column(0, rows, cols, elem);
            let st =
                recv_typed(ctx, comm, &grid, &left_col, Src::Rank(0), TagSel::Tag(42)).unwrap();
            assert_eq!(st.len, rows * elem);
            let all = comm.read_vec(&grid);
            for r in 0..rows as usize {
                let off = r * 10 * 8;
                let v = u64::from_le_bytes(all[off..off + 8].try_into().unwrap());
                assert_eq!(v, 7000 + r as u64);
            }
            *ok2.lock() = true;
        }
    });
    assert!(*ok.lock());
}

#[test]
fn indexed_layout_roundtrip() {
    run_mpi(1, |ctx, comm| {
        let base = comm.alloc(1024).unwrap();
        comm.write(&base, 0, &[1u8; 16]);
        comm.write(&base, 100, &[2u8; 8]);
        comm.write(&base, 500, &[3u8; 32]);
        let layout = Layout::Indexed {
            blocks: vec![(0, 16), (100, 8), (500, 32)],
        };
        assert_eq!(layout.packed_len(), 56);
        let stage = comm.alloc(56).unwrap();
        pack(ctx, comm, &base, &layout, &stage);
        let packed = comm.read_vec(&stage);
        assert_eq!(&packed[..16], &[1u8; 16]);
        assert_eq!(&packed[16..24], &[2u8; 8]);
        assert_eq!(&packed[24..56], &[3u8; 32]);

        let dst = comm.alloc(1024).unwrap();
        unpack(ctx, comm, &stage, &layout, &dst);
        assert_eq!(comm.read_vec(&dst), comm.read_vec(&base));
    });
}

#[test]
fn large_typed_message_uses_rendezvous() {
    // A column big enough that the packed message goes rendezvous (and
    // through the offloading send buffer).
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    run_mpi(2, move |ctx, comm| {
        let (rows, cols, elem) = (8192u64, 4u64, 8u64);
        let grid = comm.alloc(rows * cols * elem).unwrap();
        let col = Layout::column(2, rows, cols, elem);
        assert!(col.packed_len() > comm.config().eager_threshold);
        if comm.rank() == 0 {
            for r in 0..rows {
                comm.write(&grid, (r * cols + 2) * elem, &r.to_le_bytes());
            }
            send_typed(ctx, comm, &grid, &col, 1, 1).unwrap();
        } else {
            recv_typed(ctx, comm, &grid, &col, Src::Rank(0), TagSel::Tag(1)).unwrap();
            let all = comm.read_vec(&grid);
            for r in [0u64, 1, 4095, 8191] {
                let off = ((r * cols + 2) * elem) as usize;
                let v = u64::from_le_bytes(all[off..off + 8].try_into().unwrap());
                assert_eq!(v, r);
            }
            *ok2.lock() = true;
        }
    });
    assert!(*ok.lock());
}
