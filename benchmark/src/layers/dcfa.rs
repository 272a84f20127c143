//! `dcfa`: registration through the delegation daemon, in both clocks,
//! and the offloading send buffer's sync.

use std::time::Duration;

use dcfa::DcfaContext;
use fabric::NodeId;
use scif::ScifFabric;
use simcore::Ctx;
use verbs::IbFabric;

use super::{ns_per_call, run_process, two_nodes};

/// Run `body` in a Phi process of node 0 with an open DCFA context.
fn with_context<T: Send + 'static>(
    body: impl FnOnce(&mut Ctx, &DcfaContext) -> T + Send + 'static,
) -> T {
    let (sim, cluster) = two_nodes();
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    dcfa::spawn_daemons(&sim.scheduler(), &scif, &ib);
    run_process(sim, move |ctx| {
        let d = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).expect("the daemon is up");
        let out = body(ctx, &d);
        d.close(ctx);
        out
    })
}

/// `reg_mr` + `dereg_mr` of a 64 KiB Phi buffer: page translation and
/// two commands through the host daemon — what an MR-cache miss costs.
/// `[host ns, virtual ns]` per pair.
pub fn reg_dereg(sample: Duration) -> Vec<f64> {
    with_context(move |ctx, d| {
        let buf = d
            .cluster()
            .alloc_pages(d.mem_ref(), 64 << 10)
            .expect("arena has room");
        let virt_start = ctx.now();
        let mut pairs = 0u64;
        let host = ns_per_call(sample, 8, || {
            let mr = d.reg_mr(ctx, buf.clone()).expect("registration succeeds");
            d.dereg_mr(ctx, &mr).expect("deregistration succeeds");
            pairs += 1;
        });
        vec![
            host,
            (ctx.now() - virt_start).as_nanos() as f64 / pairs as f64,
        ]
    })
}

/// `sync_offload_mr` of a 1 MiB buffer into its host twin. Host ns per
/// MiB.
pub fn sync_offload(sample: Duration) -> f64 {
    const LEN: u64 = 1 << 20;
    with_context(move |ctx, d| {
        let buf = d
            .cluster()
            .alloc_pages(d.mem_ref(), LEN)
            .expect("arena has room");
        let twin = d.reg_offload_mr(ctx, &buf).expect("the twin registers");
        ns_per_call(sample, 4, || d.sync_offload_mr(ctx, &twin, 0, LEN))
    })
}
