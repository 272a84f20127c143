//! Collective-operation tests across 2–8 ranks on the Phi placement.

use std::sync::Arc;

use dcfa_mpi::collectives;
use dcfa_mpi::{launch, Comm, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp};
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
fn barrier_synchronizes() {
    for n in [2usize, 3, 4, 8] {
        let max_before = Arc::new(SimCell::new(0u64));
        let min_after = Arc::new(SimCell::new(u64::MAX));
        let (b2, a2) = (max_before.clone(), min_after.clone());
        run_mpi(n, move |ctx, comm| {
            // Stagger arrival times.
            ctx.sleep(simcore::SimDuration::from_micros(100 * comm.rank() as u64));
            {
                let mut b = b2.lock();
                *b = (*b).max(ctx.now().as_nanos());
            }
            collectives::barrier(comm, ctx).unwrap();
            {
                let mut a = a2.lock();
                *a = (*a).min(ctx.now().as_nanos());
            }
        });
        // Nobody leaves the barrier before the last arrival.
        assert!(
            *min_after.lock() >= *max_before.lock(),
            "barrier violated for n={n}"
        );
    }
}

#[test]
fn bcast_from_each_root() {
    for root in 0..4usize {
        let ok = Arc::new(SimCell::new(0usize));
        let ok2 = ok.clone();
        run_mpi(4, move |ctx, comm| {
            let buf = comm.alloc(4096).unwrap();
            if comm.rank() == root {
                comm.write(&buf, 0, &[root as u8 + 42; 4096]);
            }
            collectives::bcast(comm, ctx, &buf, root).unwrap();
            assert_eq!(comm.read_vec(&buf), vec![root as u8 + 42; 4096]);
            *ok2.lock() += 1;
        });
        assert_eq!(*ok.lock(), 4);
    }
}

#[test]
fn bcast_large_message() {
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(4, move |ctx, comm| {
        let buf = comm.alloc(1 << 20).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &vec![7u8; 1 << 20]);
        }
        collectives::bcast(comm, ctx, &buf, 0).unwrap();
        assert_eq!(comm.read_vec(&buf), vec![7u8; 1 << 20]);
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn reduce_sum_f64() {
    let result = Arc::new(SimCell::new(Vec::new()));
    let r2 = result.clone();
    run_mpi(4, move |ctx, comm| {
        let n_elems = 128usize;
        let buf = comm.alloc((n_elems * 8) as u64).unwrap();
        let mut bytes = Vec::new();
        for i in 0..n_elems {
            bytes.extend_from_slice(&((comm.rank() + i) as f64).to_le_bytes());
        }
        comm.write(&buf, 0, &bytes);
        collectives::reduce(comm, ctx, &buf, Datatype::F64, ReduceOp::Sum, 0).unwrap();
        if comm.rank() == 0 {
            *r2.lock() = comm.read_vec(&buf);
        }
    });
    let bytes = result.lock().clone();
    for i in 0..128usize {
        let v = f64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        // sum over ranks r of (r + i) = 6 + 4i
        assert_eq!(v, (6 + 4 * i) as f64);
    }
}

#[test]
fn allreduce_max_i32() {
    let results = Arc::new(SimCell::new(Vec::new()));
    let r2 = results.clone();
    run_mpi(5, move |ctx, comm| {
        let buf = comm.alloc(4).unwrap();
        comm.write(&buf, 0, &((comm.rank() as i32) * 10).to_le_bytes());
        collectives::allreduce(comm, ctx, &buf, Datatype::I32, ReduceOp::Max).unwrap();
        let v = i32::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
        r2.lock().push(v);
    });
    assert_eq!(*results.lock(), vec![40; 5]);
}

#[test]
fn gather_collects_blocks() {
    let gathered = Arc::new(SimCell::new(Vec::new()));
    let g2 = gathered.clone();
    run_mpi(4, move |ctx, comm| {
        let send = comm.alloc(256).unwrap();
        comm.write(&send, 0, &[comm.rank() as u8; 256]);
        if comm.rank() == 1 {
            let recv = comm.alloc(1024).unwrap();
            collectives::gather(comm, ctx, &send, Some(&recv), 1).unwrap();
            *g2.lock() = comm.read_vec(&recv);
        } else {
            collectives::gather(comm, ctx, &send, None, 1).unwrap();
        }
    });
    let g = gathered.lock().clone();
    for p in 0..4usize {
        assert!(
            g[p * 256..(p + 1) * 256].iter().all(|&b| b == p as u8),
            "block {p}"
        );
    }
}

#[test]
fn scatter_distributes_blocks() {
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(4, move |ctx, comm| {
        let recv = comm.alloc(128).unwrap();
        if comm.rank() == 0 {
            let send = comm.alloc(512).unwrap();
            for p in 0..4u64 {
                comm.write(&send, p * 128, &[p as u8 + 1; 128]);
            }
            collectives::scatter(comm, ctx, Some(&send), &recv, 0).unwrap();
        } else {
            collectives::scatter(comm, ctx, None, &recv, 0).unwrap();
        }
        assert_eq!(comm.read_vec(&recv), vec![comm.rank() as u8 + 1; 128]);
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn allgather_ring() {
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(6, move |ctx, comm| {
        let n = comm.size();
        let send = comm.alloc(64).unwrap();
        comm.write(&send, 0, &[comm.rank() as u8 * 3; 64]);
        let recv = comm.alloc(64 * n as u64).unwrap();
        collectives::allgather(comm, ctx, &send, &recv).unwrap();
        let all = comm.read_vec(&recv);
        for p in 0..n {
            assert!(
                all[p * 64..(p + 1) * 64].iter().all(|&b| b == p as u8 * 3),
                "rank {} block {p}",
                comm.rank()
            );
        }
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 6);
}

#[test]
fn alltoall_pairwise() {
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(4, move |ctx, comm| {
        let n = comm.size();
        let blk = 128u64;
        let send = comm.alloc(blk * n as u64).unwrap();
        let recv = comm.alloc(blk * n as u64).unwrap();
        // Block for destination p is filled with (me*16 + p).
        for p in 0..n as u64 {
            comm.write(&send, p * blk, &[(comm.rank() as u8) * 16 + p as u8; 128]);
        }
        collectives::alltoall(comm, ctx, &send, &recv, blk).unwrap();
        let all = comm.read_vec(&recv);
        for p in 0..n {
            let expect = (p as u8) * 16 + comm.rank() as u8;
            assert!(
                all[p * 128..(p + 1) * 128].iter().all(|&b| b == expect),
                "rank {} from {p}",
                comm.rank()
            );
        }
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn collectives_on_single_rank_are_noops() {
    run_mpi(1, move |ctx, comm| {
        let buf = comm.alloc(64).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        collectives::bcast(comm, ctx, &buf, 0).unwrap();
        collectives::reduce(comm, ctx, &buf, Datatype::U8, ReduceOp::Sum, 0).unwrap();
        collectives::allreduce(comm, ctx, &buf, Datatype::U8, ReduceOp::Sum).unwrap();
    });
}
