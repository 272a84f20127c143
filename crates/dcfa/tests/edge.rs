//! DCFA edge cases: daemon lifecycle, command-channel error paths, offload
//! twin allocation failure, and cost accounting of the offload round trip.

use std::sync::Arc;

use dcfa::{spawn_daemons, DcfaContext, DcfaError};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use scif::ScifFabric;
use simcore::{SimCell, Simulation};
use verbs::IbFabric;

struct Rig {
    sim: Simulation,
    ib: Arc<IbFabric>,
    scif: Arc<ScifFabric>,
}

fn rig_with(cfg: ClusterConfig) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), cfg);
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    spawn_daemons(&sim.scheduler(), &scif, &ib);
    Rig { sim, ib, scif }
}

#[test]
fn open_without_daemon_fails_cleanly() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    // No spawn_daemons.
    sim.spawn("rank0", move |ctx| {
        let err = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap_err();
        assert!(matches!(err, DcfaError::Connect(_)));
    });
    sim.run_expect();
}

#[test]
fn bye_then_new_connection_gets_fresh_handler() {
    let mut r = rig_with(ClusterConfig::with_nodes(1));
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let d1 = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let cl = ib.cluster().clone();
        let buf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Phi,
                },
                4096,
            )
            .unwrap();
        let mr = d1.reg_mr(ctx, buf.clone()).unwrap();
        d1.dereg_mr(ctx, &mr).unwrap();
        d1.close(ctx);
        // A second session works independently.
        let d2 = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let mr2 = d2.reg_mr(ctx, buf).unwrap();
        d2.dereg_mr(ctx, &mr2).unwrap();
        d2.close(ctx);
    });
    r.sim.run_expect();
}

#[test]
fn offload_twin_allocation_failure_reports_oom() {
    // Host memory too small for the twin: reg_offload_mr must surface the
    // daemon's OOM error, not panic.
    let mut cfg = ClusterConfig::with_nodes(1);
    cfg.host_mem_capacity = 64 << 10; // tiny host memory
    let mut r = rig_with(cfg);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let big = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Phi,
                },
                1 << 20,
            )
            .unwrap();
        let err = d.reg_offload_mr(ctx, &big).unwrap_err();
        assert_eq!(err, DcfaError::Oom, "{err:?}");
    });
    r.sim.run_expect();
}

#[test]
fn registration_cost_scales_with_pages() {
    let mut r = rig_with(ClusterConfig::with_nodes(1));
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let out = Arc::new(SimCell::new((0u64, 0u64)));
    let o2 = out.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let small = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Phi,
                },
                4096,
            )
            .unwrap();
        let large = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Phi,
                },
                4 << 20,
            )
            .unwrap();
        let t0 = ctx.now();
        let m1 = d.reg_mr(ctx, small).unwrap();
        let small_cost = (ctx.now() - t0).as_nanos();
        let t1 = ctx.now();
        let m2 = d.reg_mr(ctx, large).unwrap();
        let large_cost = (ctx.now() - t1).as_nanos();
        d.dereg_mr(ctx, &m1).unwrap();
        d.dereg_mr(ctx, &m2).unwrap();
        *o2.lock() = (small_cost, large_cost);
    });
    r.sim.run_expect();
    let (small, large) = *out.lock();
    // 1024x the pages: per-page translation + pinning must show.
    assert!(large > small, "per-page cost invisible: {small} vs {large}");
    let cfg = ClusterConfig::paper();
    let per_page =
        cfg.cost.cmd_translate_per_page.as_nanos() + cfg.cost.host_mr_reg_per_page.as_nanos();
    assert!(
        large - small >= 1000 * per_page,
        "expected >= {} more",
        1000 * per_page
    );
}

#[test]
fn daemons_on_every_node_serve_their_own_cards() {
    let mut r = rig_with(ClusterConfig::with_nodes(4));
    let done = Arc::new(SimCell::new(0usize));
    for n in 0..4 {
        let (ib, scif) = (r.ib.clone(), r.scif.clone());
        let d2 = done.clone();
        r.sim.spawn(format!("rank-on-{n}"), move |ctx| {
            let cl = ib.cluster().clone();
            let d = DcfaContext::open(ctx, &ib, &scif, NodeId(n)).unwrap();
            assert_eq!(d.node(), NodeId(n));
            let buf = cl
                .alloc_pages(
                    MemRef {
                        node: NodeId(n),
                        domain: Domain::Phi,
                    },
                    8192,
                )
                .unwrap();
            let mr = d.reg_mr(ctx, buf).unwrap();
            // The registered region lives on this node's card.
            assert_eq!(mr.buffer().mem.node, NodeId(n));
            d.dereg_mr(ctx, &mr).unwrap();
            d.close(ctx);
            *d2.lock() += 1;
        });
    }
    r.sim.run_expect();
    assert_eq!(*done.lock(), 4);
}
