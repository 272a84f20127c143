//! Cross-crate integration tests: mixed traffic patterns, larger rank
//! counts, teardown hygiene and memory accounting across the whole stack.

use std::sync::Arc;

use dcfa_mpi_repro::dcfa_mpi::collectives;
use dcfa_mpi_repro::dcfa_mpi::{
    launch, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp, Src, TagSel,
};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::{SimDuration, Simulation};
use dcfa_mpi_repro::verbs::IbFabric;
use simcore::SimCell;

struct Rig {
    sim: Simulation,
    cluster: Arc<Cluster>,
    ib: Arc<IbFabric>,
    scif: Arc<ScifFabric>,
}

fn rig(nodes: usize) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    Rig {
        sim,
        cluster,
        ib,
        scif,
    }
}

#[test]
fn eight_ranks_mixed_traffic() {
    // Every rank sends a distinct-size message to every other rank (sizes
    // span eager, offload and rendezvous regimes) and checks content.
    let mut r = rig(8);
    let done = Arc::new(SimCell::new(0usize));
    let d2 = done.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        8,
        LaunchOpts::default(),
        move |ctx, comm| {
            let n = comm.size();
            let me = comm.rank();
            let size_for = |from: usize, to: usize| 64u64 << ((from + to) % 5 * 3); // 64B..256KB
            let mut reqs = Vec::new();
            let mut rbufs = Vec::new();
            for p in 0..n {
                if p == me {
                    continue;
                }
                let rbuf = comm.alloc(size_for(p, me)).unwrap();
                reqs.push(
                    comm.irecv(ctx, &rbuf, Src::Rank(p), TagSel::Tag(700))
                        .unwrap(),
                );
                rbufs.push((p, rbuf));
            }
            for p in 0..n {
                if p == me {
                    continue;
                }
                let len = size_for(me, p);
                let sbuf = comm.alloc(len).unwrap();
                comm.write(&sbuf, 0, &vec![(me * 16 + p) as u8; len as usize]);
                reqs.push(comm.isend(ctx, &sbuf, p, 700).unwrap());
            }
            comm.waitall(ctx, &reqs).unwrap();
            for (p, rbuf) in rbufs {
                let expect = (p * 16 + me) as u8;
                let got = comm.read_vec(&rbuf);
                assert!(got.iter().all(|&b| b == expect), "rank {me} from {p}");
            }
            collectives::barrier(comm, ctx).unwrap();
            *d2.lock() += 1;
        },
    );
    r.sim.run_expect();
    assert_eq!(*done.lock(), 8);
}

#[test]
fn two_ranks_per_node_share_the_card() {
    // 4 ranks on 2 nodes: co-located ranks share the Phi card and the
    // DCFA daemon; traffic between co-located ranks loops through the HCA.
    let mut r = rig(2);
    let sum = Arc::new(SimCell::new(0u64));
    let s2 = sum.clone();
    let opts = LaunchOpts {
        ranks_per_node: 2,
        ..Default::default()
    };
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        4,
        opts,
        move |ctx, comm| {
            let buf = comm.alloc(1024).unwrap();
            comm.write(&buf, 0, &[comm.rank() as u8; 1024]);
            collectives::allreduce(comm, ctx, &buf, Datatype::U8, ReduceOp::Sum).unwrap();
            let v = comm.read_vec(&buf)[0] as u64;
            *s2.lock() += v;
        },
    );
    r.sim.run_expect();
    // 0+1+2+3 = 6 on every rank.
    assert_eq!(*sum.lock(), 6 * 4);
}

#[test]
fn phi_memory_released_after_finalize() {
    let mut r = rig(2);
    let cluster = r.cluster.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let buf = comm.alloc(1 << 20).unwrap();
            if comm.rank() == 0 {
                comm.send(ctx, &buf, 1, 1).unwrap();
            } else {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            }
            comm.free(&buf);
        },
    );
    r.sim.run_expect();
    // After finalize, the offload twins on the host were deregistered and
    // freed; host memory holds no leaked twins (rings/stages are owned by
    // the engine and freed with the arena — we check the *host* side which
    // only ever holds offload twins).
    for n in 0..2 {
        let host_used = cluster.mem_used(MemRef {
            node: NodeId(n),
            domain: Domain::Host,
        });
        assert_eq!(host_used, 0, "node {n} leaked {host_used} host bytes");
    }
}

#[test]
fn offload_twins_freed_on_finalize() {
    let mut r = rig(2);
    let cluster = r.cluster.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            // Large sends create offload twins in host memory.
            let buf = comm.alloc(1 << 20).unwrap();
            if comm.rank() == 0 {
                for _ in 0..3 {
                    comm.send(ctx, &buf, 1, 1).unwrap();
                }
            } else {
                for _ in 0..3 {
                    comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                }
            }
        },
    );
    r.sim.run_expect();
    let host_used = cluster.mem_used(MemRef {
        node: NodeId(0),
        domain: Domain::Host,
    });
    assert_eq!(host_used, 0, "offload twins leaked: {host_used} bytes");
}

#[test]
fn stress_many_small_messages_across_six_ranks() {
    let mut r = rig(6);
    let total = Arc::new(SimCell::new(0u64));
    let t2 = total.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        6,
        LaunchOpts::default(),
        move |ctx, comm| {
            let n = comm.size();
            let me = comm.rank();
            let rounds = 40;
            let buf = comm.alloc(128).unwrap();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            for k in 0..rounds {
                let rr = comm
                    .irecv(ctx, &buf, Src::Rank(left), TagSel::Tag(k))
                    .unwrap();
                let sbuf = comm.alloc(128).unwrap();
                comm.write(&sbuf, 0, &[k as u8; 128]);
                let sr = comm.isend(ctx, &sbuf, right, k).unwrap();
                comm.wait(ctx, sr).unwrap();
                let st = comm.wait(ctx, rr).unwrap();
                assert_eq!(st.len, 128);
                comm.free(&sbuf);
            }
            *t2.lock() += rounds as u64;
        },
    );
    r.sim.run_expect();
    assert_eq!(*total.lock(), 240);
}

#[test]
fn staggered_start_times_still_converge() {
    // Ranks entering the application at wildly different times must still
    // bootstrap and communicate (bootstrap is unsynchronized publish/wait).
    let mut r = rig(4);
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        4,
        LaunchOpts::default(),
        move |ctx, comm| {
            ctx.sleep(SimDuration::from_micros(137 * comm.rank() as u64));
            let buf = comm.alloc(64).unwrap();
            collectives::bcast(comm, ctx, &buf, 2).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            *ok2.lock() += 1;
        },
    );
    r.sim.run_expect();
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn intel_phi_and_dcfa_coexist_in_one_simulation() {
    // Two jobs (a DCFA-MPI pair and an Intel-Phi pair) share the cluster;
    // both complete and their traffic contends on the same channels.
    use dcfa_mpi_repro::baselines::IntelPhiWorld;
    let mut r = rig(2);
    let done = Arc::new(SimCell::new(0usize));

    let d1 = done.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let buf = comm.alloc(256 << 10).unwrap();
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                comm.send(ctx, &buf, peer, 1).unwrap();
            } else {
                comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(1))
                    .unwrap();
            }
            *d1.lock() += 1;
        },
    );

    let world = IntelPhiWorld::new(r.cluster.clone(), 2);
    let d2 = done.clone();
    world.launch(&r.sim, move |ctx, comm| {
        let buf = comm.cluster().alloc_pages(comm.mem(), 256 << 10).unwrap();
        let peer = 1 - comm.rank();
        if comm.rank() == 0 {
            comm.send(ctx, &buf, peer, 9).unwrap();
        } else {
            comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(9))
                .unwrap();
        }
        *d2.lock() += 1;
    });

    r.sim.run_expect();
    assert_eq!(*done.lock(), 4);
}
