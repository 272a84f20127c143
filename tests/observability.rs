//! Protocol-trace + auditor integration tests: the MR-lease lifetime
//! fixes (no leak with caching disabled, no deregister under an in-flight
//! RDMA) and deterministic replay of a traced multi-rank run, all checked
//! by the event-stream auditor rather than ad-hoc assertions.

use std::sync::Arc;

use dcfa_mpi_repro::dcfa_mpi::{
    audit, launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel, TraceBuf, TraceEvent,
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

fn traced_opts(tracer: &TraceBuf) -> LaunchOpts {
    LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    }
}

/// With the MR cache pool disabled (`mr_cache_capacity = 0`), every
/// rendezvous registration must be torn down when its transfer completes:
/// nothing resident, nothing pinned, nothing leaked — the regression this
/// layer's lease model fixed (lookups used to register and never
/// deregister).
#[test]
fn cache_disabled_releases_every_mr() {
    let mut r = rig(2);
    let tracer = TraceBuf::new(4096);
    let cfg = MpiConfig {
        mr_cache_capacity: 0,
        ..MpiConfig::dcfa_no_offload()
    };
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        cfg,
        2,
        traced_opts(&tracer),
        move |ctx, comm| {
            let buf = comm.alloc(128 << 10).unwrap();
            for i in 0..4 {
                if comm.rank() == 0 {
                    comm.send(ctx, &buf, 1, i).unwrap();
                } else {
                    comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(i)).unwrap();
                }
            }
            comm.free(&buf);
            let (hits, misses) = comm.mr_cache_stats();
            assert_eq!(hits, 0, "disabled cache must never hit");
            assert!(
                misses > 0,
                "rendezvous traffic goes through the cache as misses"
            );
            assert_eq!(
                comm.mr_cache_len(),
                0,
                "disabled cache must hold no regions"
            );
            assert_eq!(comm.mr_pinned_len(), 0, "no lease may outlive its transfer");
        },
    );
    r.sim.run_expect();

    let events = tracer.snapshot();
    let report = audit(&events).expect("auditor found invariant violations");
    assert!(report.mr_registered > 0, "run must have registered regions");
    assert_eq!(
        report.mr_leaked, 0,
        "every registration must be matched by a deregister"
    );
    // Mirror `phi_memory_released_after_finalize`: host memory only ever
    // holds offload twins (none in this no-offload config), so anything
    // left after finalize is a leak. Phi memory keeps the engine-owned
    // rings, as in the seed test.
    for n in 0..2 {
        let used = r.cluster.mem_used(MemRef {
            node: NodeId(n),
            domain: Domain::Host,
        });
        assert_eq!(used, 0, "node {n} leaked {used} host bytes");
    }
}

/// A tiny (capacity 1) cache under concurrent rendezvous transfers from
/// two distinct buffers: eviction pressure arrives while the first
/// region's RDMA is still in flight. The pinned region must survive (the
/// overflow acquisition goes uncached) and the payloads must arrive
/// intact — the use-after-deregister regression.
#[test]
fn eviction_waits_for_inflight_rendezvous() {
    let mut r = rig(2);
    let tracer = TraceBuf::new(8192);
    let cfg = MpiConfig {
        mr_cache_capacity: 1,
        ..MpiConfig::dcfa_no_offload()
    };
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        cfg,
        2,
        traced_opts(&tracer),
        move |ctx, comm| {
            let len = 64u64 << 10;
            let a = comm.alloc(len).unwrap();
            let b = comm.alloc(len).unwrap();
            if comm.rank() == 0 {
                comm.write(&a, 0, &[0xAA; 64]);
                comm.write(&b, 0, &[0xBB; 64]);
                // Both sends outstanding at once: registering `b` while `a`'s
                // RDMA READ is pending forces the eviction decision.
                let ra = comm.isend(ctx, &a, 1, 1).unwrap();
                let rb = comm.isend(ctx, &b, 1, 2).unwrap();
                comm.waitall(ctx, &[ra, rb]).unwrap();
            } else {
                ctx.sleep(SimDuration::from_micros(50));
                let ra = comm.irecv(ctx, &a, Src::Rank(0), TagSel::Tag(1)).unwrap();
                let rb = comm.irecv(ctx, &b, Src::Rank(0), TagSel::Tag(2)).unwrap();
                comm.waitall(ctx, &[ra, rb]).unwrap();
                assert_eq!(&comm.read_vec(&a)[..64], &[0xAA; 64]);
                assert_eq!(&comm.read_vec(&b)[..64], &[0xBB; 64]);
                *ok2.lock() = true;
            }
            assert_eq!(comm.mr_pinned_len(), 0, "leases must all be released");
        },
    );
    r.sim.run_expect();
    assert!(*ok.lock(), "receiver verified both payloads");

    // The auditor proves no region was deregistered or evicted while an
    // RDMA lease still pinned it.
    let events = tracer.snapshot();
    let report = audit(&events).expect("auditor found invariant violations");
    assert_eq!(report.mr_leaked, 0);
}

/// The traced 4-rank mixed workload: eager ring, both rendezvous flavours
/// (peer skew selects sender-first then receiver-first), ANY_SOURCE
/// fan-in, offload-buffer syncs. One simulation's event stream must pass
/// the auditor, and a second identical simulation must replay the exact
/// same stream (the property that makes trace-based debugging viable).
#[test]
fn auditor_replays_4rank_mixed_run_deterministically() {
    fn run() -> Vec<TraceEvent> {
        let mut r = rig(4);
        let tracer = TraceBuf::new(1 << 16);
        launch(
            &r.sim,
            &r.ib,
            &r.scif,
            MpiConfig::dcfa(),
            4,
            traced_opts(&tracer),
            move |ctx, comm| {
                let (me, n) = (comm.rank(), comm.size());
                let next = (me + 1) % n;
                let prev = (me + n - 1) % n;
                let stx = comm.alloc(512).unwrap();
                let srx = comm.alloc(512).unwrap();
                let big = comm.alloc(64 << 10).unwrap();
                for _ in 0..6 {
                    comm.sendrecv(ctx, &stx, next, &srx, prev, 10).unwrap();
                }
                let peer = me ^ 1;
                for recv_late in [true, false] {
                    if me % 2 == 0 {
                        if !recv_late {
                            ctx.sleep(SimDuration::from_micros(150));
                        }
                        comm.send(ctx, &big, peer, 20).unwrap();
                    } else {
                        if recv_late {
                            ctx.sleep(SimDuration::from_micros(150));
                        }
                        comm.recv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                            .unwrap();
                    }
                }
                if me == 0 {
                    for _ in 1..n {
                        comm.recv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
                    }
                } else {
                    comm.send(ctx, &stx, 0, 30).unwrap();
                }
            },
        );
        r.sim.run_expect();
        assert_eq!(tracer.dropped(), 0, "ring must not overflow in this run");
        tracer.snapshot()
    }

    let events = run();
    let report = audit(&events).expect("auditor found invariant violations");
    assert!(report.data_packets > 0);
    assert!(
        report.rts_matched > 0,
        "run must exercise sender-first rendezvous"
    );
    assert!(
        report.offload_syncs > 0,
        "64 KiB sends must stage through the offload buffer"
    );
    assert_eq!(report.mr_leaked, 0);

    let replay = run();
    assert_eq!(
        events, replay,
        "identical simulations must produce identical traces"
    );
}

/// Containment lookup in the offload-twin cache: re-sending from the same
/// Phi buffer must reuse the host twin (hit), not allocate a new one.
#[test]
fn offload_twin_containment_reuses_host_buffer() {
    let mut r = rig(2);
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let buf = comm.alloc(32 << 10).unwrap();
            for i in 0..3 {
                if comm.rank() == 0 {
                    comm.send(ctx, &buf, 1, i).unwrap();
                } else {
                    comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(i)).unwrap();
                }
            }
            if comm.rank() == 0 {
                let (hits, misses) = comm.offload_cache_stats();
                assert_eq!(misses, 1, "first send allocates the twin");
                assert_eq!(hits, 2, "repeat sends must hit via containment");
            }
        },
    );
    r.sim.run_expect();
}
