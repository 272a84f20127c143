//! `verbs`: post, poll and registration on host contexts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric::{Domain, MemRef, NodeId};
use simcore::{Ctx, SimDuration};
use verbs::{CompletionQueue, IbFabric, MemoryRegion, QueuePair, SendWr, VerbsContext};

use super::{ns_per_call, run_process, two_nodes};

const BATCH: u64 = 64;

struct Pair {
    qp: QueuePair,
    cq: CompletionQueue,
    local: MemoryRegion,
    remote: MemoryRegion,
    /// Keeps the passive side's queue pair alive.
    _peer: QueuePair,
}

/// A connected host queue pair with a 64-byte region on each side.
fn connected_pair(ib: &Arc<IbFabric>) -> Pair {
    let side = |node: usize| {
        let vctx = VerbsContext::open(ib.clone(), NodeId(node), Domain::Host);
        let mem = MemRef {
            node: NodeId(node),
            domain: Domain::Host,
        };
        let buf = ib.cluster().alloc_pages(mem, 64).expect("arena has room");
        let mr = vctx.reg_mr_uncharged(buf);
        let cq = vctx.create_cq();
        let qp = vctx.create_qp(&cq, &cq);
        (qp, cq, mr)
    };
    let (qp, cq, local) = side(0);
    let (peer, _, remote) = side(1);
    QueuePair::connect_pair(&qp, &peer);
    Pair {
        qp,
        cq,
        local,
        remote,
        _peer: peer,
    }
}

fn post_batch(ctx: &mut Ctx, p: &Pair) {
    for id in 0..BATCH {
        let wr = SendWr::rdma_write(id, p.local.sge(0, 64), p.remote.addr(), p.remote.rkey());
        p.qp.post_send(ctx, wr)
            .expect("a connected queue pair accepts posts");
    }
}

/// A signalled 64-byte RDMA write on a connected host queue pair, from
/// `post_send` to its completion leaving the queue. Host ns per write.
pub fn post_send(sample: Duration) -> f64 {
    let (sim, cluster) = two_nodes();
    let ib = IbFabric::new(cluster);
    run_process(sim, move |ctx| {
        let pair = connected_pair(&ib);
        ns_per_call(sample, 1, || {
            post_batch(ctx, &pair);
            for _ in 0..BATCH {
                pair.cq.wait(ctx);
            }
        }) / BATCH as f64
    })
}

/// `poll` on an empty completion queue. Host ns per poll.
pub fn poll_cq_empty(sample: Duration) -> f64 {
    let cq = CompletionQueue::new();
    ns_per_call(sample, 1024, || {
        std::hint::black_box(cq.poll());
    })
}

/// `poll` that returns a completion; only the polls are timed. Host ns
/// per poll.
pub fn poll_cq_hit(sample: Duration) -> f64 {
    let (sim, cluster) = two_nodes();
    let ib = IbFabric::new(cluster);
    run_process(sim, move |ctx| {
        let pair = connected_pair(&ib);
        let begun = Instant::now();
        let (mut polling, mut polls) = (Duration::ZERO, 0u64);
        while begun.elapsed() < sample {
            post_batch(ctx, &pair);
            // Long enough for every write of the batch to complete.
            ctx.sleep(SimDuration::from_micros(200));
            let t = Instant::now();
            while std::hint::black_box(pair.cq.poll()).is_some() {
                polls += 1;
            }
            polling += t.elapsed();
        }
        polling.as_nanos() as f64 / polls as f64
    })
}

/// `reg_mr` + `dereg_mr` of a 64 KiB host buffer. Host ns per pair.
pub fn reg_dereg_mr(sample: Duration) -> f64 {
    let (sim, cluster) = two_nodes();
    let ib = IbFabric::new(cluster.clone());
    run_process(sim, move |ctx| {
        let vctx = VerbsContext::open(ib, NodeId(0), Domain::Host);
        let buf = cluster
            .alloc_pages(vctx.mem_ref(), 64 << 10)
            .expect("arena has room");
        ns_per_call(sample, 16, || {
            let mr = vctx.reg_mr(ctx, buf.clone());
            vctx.dereg_mr(&mr);
        })
    })
}
