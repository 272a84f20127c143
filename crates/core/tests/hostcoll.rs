//! Host-staged collective tests: correctness vs. the plain algorithms and
//! the performance win that motivates offloading collectives to the host.

use std::sync::Arc;

use dcfa_mpi::collectives;
use dcfa_mpi::{launch, Comm, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_mpi<F>(cfg: MpiConfig, nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(&sim, &ib, &scif, cfg, nprocs, LaunchOpts::default(), f);
    sim.run_expect();
}

#[test]
fn host_staged_bcast_delivers_content() {
    for root in [0usize, 3] {
        let ok = Arc::new(SimCell::new(0usize));
        let ok2 = ok.clone();
        run_mpi(MpiConfig::dcfa(), 8, move |ctx, comm| {
            let len = 1 << 20;
            let buf = comm.alloc(len).unwrap();
            if comm.rank() == root {
                comm.write(&buf, 0, &vec![0xCD; len as usize]);
            }
            collectives::bcast_host_staged(comm, ctx, &buf, root).unwrap();
            assert_eq!(
                comm.read_vec(&buf),
                vec![0xCD; len as usize],
                "rank {}",
                comm.rank()
            );
            *ok2.lock() += 1;
        });
        assert_eq!(*ok.lock(), 8);
    }
}

#[test]
fn host_staged_reduce_matches_plain() {
    let results = Arc::new(SimCell::new(Vec::new()));
    let r2 = results.clone();
    run_mpi(MpiConfig::dcfa(), 4, move |ctx, comm| {
        let n_elems = 1024usize;
        let mk = |comm: &Comm| {
            let buf = comm.alloc((n_elems * 8) as u64).unwrap();
            let mut bytes = Vec::new();
            for i in 0..n_elems {
                bytes.extend_from_slice(&((comm.rank() * 1000 + i) as f64).to_le_bytes());
            }
            comm.write(&buf, 0, &bytes);
            buf
        };
        let a = mk(comm);
        let b = mk(comm);
        collectives::reduce(comm, ctx, &a, Datatype::F64, ReduceOp::Sum, 0).unwrap();
        collectives::reduce_host_staged(comm, ctx, &b, Datatype::F64, ReduceOp::Sum, 0).unwrap();
        if comm.rank() == 0 {
            r2.lock().push((comm.read_vec(&a), comm.read_vec(&b)));
        }
    });
    let results = results.lock();
    let (plain, staged) = &results[0];
    assert_eq!(
        plain, staged,
        "host-staged reduce must match plain reduce bit-for-bit"
    );
}

#[test]
fn host_staged_allreduce_all_ranks_agree() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(MpiConfig::dcfa(), 6, move |ctx, comm| {
        let buf = comm.alloc(8).unwrap();
        comm.write(&buf, 0, &((comm.rank() + 1) as f64).to_le_bytes());
        collectives::allreduce_host_staged(comm, ctx, &buf, Datatype::F64, ReduceOp::Sum).unwrap();
        let v = f64::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
        g2.lock().push(v);
    });
    assert_eq!(*got.lock(), vec![21.0; 6]); // 1+2+..+6
}

#[test]
fn host_staged_bcast_faster_than_plain_for_large_buffers() {
    // The point of the future work: a multi-hop large broadcast saves the
    // repeated PCIe re-staging at every tree level.
    let times = Arc::new(SimCell::new((0u64, 0u64)));
    let t2 = times.clone();
    run_mpi(MpiConfig::dcfa(), 8, move |ctx, comm| {
        let len = 2 << 20;
        let buf = comm.alloc(len).unwrap();
        // Warm-up round: establish the lazy connections both variants
        // use, so the timed comparison measures steady-state data
        // movement rather than first-touch QP/ring setup.
        collectives::bcast(comm, ctx, &buf, 0).unwrap();
        collectives::bcast_host_staged(comm, ctx, &buf, 0).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let t0 = ctx.now();
        collectives::bcast(comm, ctx, &buf, 0).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let plain = (ctx.now() - t0).as_nanos();
        let t1 = ctx.now();
        collectives::bcast_host_staged(comm, ctx, &buf, 0).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let staged = (ctx.now() - t1).as_nanos();
        if comm.rank() == 0 {
            *t2.lock() = (plain, staged);
        }
    });
    let (plain, staged) = *times.lock();
    assert!(
        (staged as f64) < plain as f64 * 0.8,
        "host staging should win: plain={plain}ns staged={staged}ns"
    );
}

#[test]
fn host_placement_falls_back_to_plain() {
    // On host placement there is no twin; the staged variants silently
    // delegate and still produce correct results.
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(MpiConfig::host(), 4, move |ctx, comm| {
        let buf = comm.alloc(64 << 10).unwrap();
        if comm.rank() == 2 {
            comm.write(&buf, 0, &vec![9u8; 64 << 10]);
        }
        collectives::bcast_host_staged(comm, ctx, &buf, 2).unwrap();
        assert_eq!(comm.read_vec(&buf), vec![9u8; 64 << 10]);
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn failed_host_staged_reduce_returns_its_host_scratch() {
    // Rank 3 dies on its way into the reduction, so rank 2's hop from it
    // fails mid-tree with `PeerFailed`. The early return used to skip
    // freeing the host-side scratch buffer; host memory must be back at
    // its pre-call level on every survivor.
    use dcfa_mpi::{KillSpec, MpiError};
    use fabric::{Domain, MemRef};
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(4));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let opts = LaunchOpts {
        kills: vec![KillSpec {
            rank: 3,
            after_ops: 1,
        }],
        ..Default::default()
    };
    let cfg = MpiConfig {
        peer_ttl: Some(simcore::SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let failed = Arc::new(SimCell::new(Vec::new()));
    let failed2 = failed.clone();
    launch(&sim, &ib, &scif, cfg, 4, opts, move |ctx, comm| {
        let buf = comm.alloc(64 << 10).unwrap();
        // The twin is cached by design; only the scratch may not stay.
        comm.host_twin(ctx, &buf).unwrap();
        let host = MemRef {
            domain: Domain::Host,
            ..comm.mem()
        };
        let before = comm.cluster().mem_used(host);
        let out = collectives::reduce_host_staged(comm, ctx, &buf, Datatype::F64, ReduceOp::Sum, 0);
        if out == Err(MpiError::PeerFailed(3)) {
            comm.revoke(ctx); // release the ranks waiting on us
        }
        assert_eq!(
            comm.cluster().mem_used(host),
            before,
            "rank {}",
            comm.rank()
        );
        failed2.lock().push((comm.rank(), out.is_err()));
    });
    sim.run_expect();
    let mut failed = failed.lock().clone();
    failed.sort();
    assert_eq!(failed, [(0, true), (1, false), (2, true)]);
}
