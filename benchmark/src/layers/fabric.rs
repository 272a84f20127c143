//! `fabric`: the cost-model call, the byte movement behind it, and the
//! arena allocator.

use std::time::{Duration, Instant};

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId};

use super::{ns_per_call, run_process, two_nodes};

fn mem(node: usize, domain: Domain) -> MemRef {
    MemRef {
        node: NodeId(node),
        domain,
    }
}

fn alloc(cluster: &Cluster, node: usize, domain: Domain, len: u64) -> Buffer {
    cluster
        .alloc_pages(mem(node, domain), len)
        .expect("an empty arena holds the benchmark's buffers")
}

/// A 64-byte Phi-to-Phi `ib_transfer`, as an eager ring write makes it:
/// path reservation, the copy and the completion event. Issued in
/// batches so the issuing process parks once per 256. Host ns per call.
pub fn ib_transfer_call(sample: Duration) -> f64 {
    let (sim, cluster) = two_nodes();
    run_process(sim, move |ctx| {
        let src = alloc(&cluster, 0, Domain::Phi, 64);
        let dst = alloc(&cluster, 1, Domain::Phi, 64);
        ns_per_call(sample, 1, || {
            let mut last = None;
            for _ in 0..256 {
                last = Some(cluster.ib_transfer(&src, &dst, NodeId(0), ctx.now()));
            }
            ctx.wait(&last.expect("a batch is not empty").completion);
        }) / 256.0
    })
}

/// 1 MiB moved by `pci_dma` (Phi to its host twin) and by `ib_transfer`
/// (host to the remote Phi), alternating, as an offloaded rendezvous
/// send moves it. Host GB/s.
pub fn copy_gbs(sample: Duration) -> f64 {
    const LEN: u64 = 1 << 20;
    let (sim, cluster) = two_nodes();
    run_process(sim, move |ctx| {
        let phi = alloc(&cluster, 0, Domain::Phi, LEN);
        let twin = alloc(&cluster, 0, Domain::Host, LEN);
        let remote = alloc(&cluster, 1, Domain::Phi, LEN);
        let start = Instant::now();
        let mut bytes = 0u64;
        loop {
            for _ in 0..4 {
                let sync = cluster.pci_dma(&phi, &twin, ctx.now());
                ctx.wait(&sync.completion);
                let wire = cluster.ib_transfer(&twin, &remote, NodeId(1), ctx.now());
                ctx.wait(&wire.completion);
                bytes += 2 * LEN;
            }
            let elapsed = start.elapsed();
            if elapsed >= sample {
                return bytes as f64 / elapsed.as_nanos() as f64;
            }
        }
    })
}

/// `alloc_pages` + `free` of a 64 KiB buffer. Host ns per pair.
pub fn alloc_free(sample: Duration) -> f64 {
    let (_sim, cluster) = two_nodes();
    let m = mem(0, Domain::Phi);
    // Keep one allocation live so the pair works on a used arena.
    let _pinned = alloc(&cluster, 0, Domain::Phi, 64 << 10);
    ns_per_call(sample, 256, || {
        let b = cluster.alloc_pages(m, 64 << 10).expect("arena has room");
        cluster.free(&b);
    })
}
