//! Integration tests for the fabric data paths: PCIe DMA, InfiniBand path
//! selection (the Phi DMA-read bottleneck), channel queueing and data
//! integrity.

use std::sync::Arc;

use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use simcore::{SimCell, SimTime, Simulation};

fn host(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Host,
    }
}

fn phi(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Phi,
    }
}

/// Run one transfer inside a simulation and return (start_ns, end_ns).
fn timed_transfer(
    src_mem: MemRef,
    dst_mem: MemRef,
    len: u64,
    initiator: NodeId,
) -> (u64, u64, Vec<u8>) {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let out: Arc<SimCell<(u64, u64, Vec<u8>)>> = Arc::new(SimCell::new((0, 0, Vec::new())));
    let out2 = out.clone();
    let cl = cluster.clone();
    sim.spawn("xfer", move |ctx| {
        let src = cl.alloc_pages(src_mem, len).unwrap();
        let dst = cl.alloc_pages(dst_mem, len).unwrap();
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        cl.write(&src, 0, &payload);
        let t = if src_mem.node == dst_mem.node && src_mem.domain != dst_mem.domain {
            cl.pci_dma(&src, &dst, ctx.now())
        } else {
            cl.ib_transfer(&src, &dst, initiator, ctx.now())
        };
        ctx.wait(&t.completion);
        let got = cl.read_vec(&dst);
        *out2.lock() = (t.start.as_nanos(), t.end.as_nanos(), got);
    });
    sim.run_expect();
    let r = out.lock().clone();
    r
}

#[test]
fn ib_host_to_host_hits_wire_bandwidth() {
    let len = 1 << 20; // 1 MiB
    let (start, end, data) = timed_transfer(host(0), host(1), len, NodeId(0));
    assert_eq!(start, 0);
    let bw = simcore::bandwidth(len, SimTime(end) - SimTime(start));
    // Wire is 6 GB/s; latency shaves a little off.
    assert!(
        bw > 5.5e9 && bw <= 6.0e9,
        "host-host bw = {:.2} GB/s",
        bw / 1e9
    );
    assert_eq!(data[..16], (0..16u8).collect::<Vec<_>>()[..]);
}

#[test]
fn ib_phi_sourced_is_bottlenecked() {
    let len = 1 << 20;
    let (_s, end_pp, _) = timed_transfer(phi(0), phi(1), len, NodeId(0));
    let (_s, end_hh, _) = timed_transfer(host(0), host(1), len, NodeId(0));
    // Paper Fig. 5: Phi-sourced transfer is more than 4x slower than
    // host-to-host, regardless of the destination domain.
    assert!(end_pp as f64 / end_hh as f64 > 4.0);
    let (_s, end_ph, _) = timed_transfer(phi(0), host(1), len, NodeId(0));
    assert!(end_ph as f64 / end_hh as f64 > 4.0);
}

#[test]
fn ib_host_to_phi_matches_host_to_host() {
    let len = 1 << 20;
    let (_s, end_hp, _) = timed_transfer(host(0), phi(1), len, NodeId(0));
    let (_s, end_hh, _) = timed_transfer(host(0), host(1), len, NodeId(0));
    // Paper Fig. 5: host→Phi delivers the same bandwidth as host→host
    // (within the write-bandwidth margin).
    let ratio = end_hp as f64 / end_hh as f64;
    assert!(ratio < 1.15, "host->phi / host->host = {ratio}");
}

#[test]
fn rdma_read_pays_request_latency() {
    let len = 4096;
    // Initiator == destination node => RDMA READ.
    let (_s, end_read, _) = timed_transfer(host(0), host(1), len, NodeId(1));
    let (_s, end_write, _) = timed_transfer(host(0), host(1), len, NodeId(0));
    let cfg = ClusterConfig::paper();
    assert_eq!(end_read - end_write, cfg.cost.ib_latency.as_nanos());
}

#[test]
fn pci_dma_moves_data_with_latency() {
    let len = 64 * 1024;
    let (start, end, data) = timed_transfer(phi(0), host(0), len, NodeId(0));
    assert_eq!(start, 0);
    let cfg = ClusterConfig::paper();
    let expected = simcore::transfer_time(len, cfg.cost.pci_p2h_bw) + cfg.cost.pci_dma_latency;
    assert_eq!(end, expected.as_nanos());
    assert_eq!(data.len(), len as usize);
    assert_eq!(data[250], 250u8);
}

#[test]
fn concurrent_transfers_queue_on_shared_channel() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ends: Arc<SimCell<Vec<u64>>> = Arc::new(SimCell::new(Vec::new()));
    let cl = cluster.clone();
    let ends2 = ends.clone();
    sim.spawn("poster", move |ctx| {
        let len = 1 << 20;
        let src1 = cl.alloc_pages(host(0), len).unwrap();
        let dst1 = cl.alloc_pages(host(1), len).unwrap();
        let src2 = cl.alloc_pages(host(0), len).unwrap();
        let dst2 = cl.alloc_pages(host(1), len).unwrap();
        let t1 = cl.ib_transfer(&src1, &dst1, NodeId(0), ctx.now());
        let t2 = cl.ib_transfer(&src2, &dst2, NodeId(0), ctx.now());
        // Second transfer queues behind the first on the egress port.
        assert_eq!(t2.start, t1.end - cl.config().cost.ib_latency);
        ctx.wait(&t1.completion);
        ctx.wait(&t2.completion);
        ends2.lock().push(t1.end.as_nanos());
        ends2.lock().push(t2.end.as_nanos());
    });
    sim.run_expect();
    let ends = ends.lock().clone();
    // Serialized: roughly double the single-transfer time.
    assert!((ends[1] as f64 / ends[0] as f64 - 2.0).abs() < 0.01);
}

#[test]
fn disjoint_paths_do_not_interfere() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(4));
    let cl = cluster.clone();
    sim.spawn("poster", move |ctx| {
        let len = 1 << 20;
        let a = cl.alloc_pages(host(0), len).unwrap();
        let b = cl.alloc_pages(host(1), len).unwrap();
        let c = cl.alloc_pages(host(2), len).unwrap();
        let d = cl.alloc_pages(host(3), len).unwrap();
        let t1 = cl.ib_transfer(&a, &b, NodeId(0), ctx.now());
        let t2 = cl.ib_transfer(&c, &d, NodeId(2), ctx.now());
        assert_eq!(t1.start, t2.start);
        assert_eq!(t1.end, t2.end);
        ctx.wait(&t1.completion);
        ctx.wait(&t2.completion);
    });
    sim.run_expect();
}

#[test]
fn phi_capacity_is_enforced() {
    let mut sim = Simulation::new();
    let mut cfg = ClusterConfig::with_nodes(1);
    cfg.phi_mem_capacity = 1 << 20;
    let cluster = Cluster::new(sim.scheduler(), cfg);
    let cl = cluster.clone();
    sim.spawn("alloc", move |_ctx| {
        let ok = cl.alloc_pages(phi(0), 512 << 10).unwrap();
        let err = cl.alloc_pages(phi(0), 600 << 10).unwrap_err();
        assert!(err.available < 600 << 10);
        cl.free(&ok);
        // After freeing, a large allocation fits again.
        cl.alloc_pages(phi(0), 1 << 20).unwrap();
    });
    sim.run_expect();
}

#[test]
fn channel_stats_track_traffic() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let cl = cluster.clone();
    sim.spawn("p", move |ctx| {
        let src = cl.alloc_pages(host(0), 8192).unwrap();
        let dst = cl.alloc_pages(host(1), 8192).unwrap();
        let t = cl.ib_transfer(&src, &dst, NodeId(0), ctx.now());
        ctx.wait(&t.completion);
        let stats = cl.channel_stats(NodeId(0));
        let egress = stats.iter().find(|(n, _, _)| *n == "ib-egress").unwrap();
        assert_eq!(egress.1, 8192);
    });
    sim.run_expect();
}

#[test]
fn local_copy_duration_scales() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let cl = cluster.clone();
    sim.spawn("p", move |ctx| {
        let a = cl.alloc_pages(phi(0), 4096).unwrap();
        let b = cl.alloc_pages(phi(0), 4096).unwrap();
        cl.write(&a, 0, &[7u8; 4096]);
        let d = cl.local_copy(&a, &b);
        ctx.sleep(d);
        // Paper: <1us for a 4 KiB copy on the Phi.
        assert!(d.as_micros_f64() < 1.0);
        assert_eq!(cl.read_vec(&b), vec![7u8; 4096]);
    });
    sim.run_expect();
}

// ---- the byte plane ----------------------------------------------------------

fn pattern(len: u64, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Run `body` as the only process of a fresh `nodes`-node cluster.
fn on_cluster(nodes: usize, body: impl FnOnce(&mut simcore::Ctx, Arc<Cluster>) + Send + 'static) {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    sim.spawn("p", move |ctx| body(ctx, cluster));
    sim.run_expect();
}

/// One transfer `src_mem -> dst_mem`: the destination keeps its old bytes at
/// every sampled time before `end` and equals the source at `end`.
fn lands_at_end(src_mem: MemRef, dst_mem: MemRef) {
    on_cluster(2, move |ctx, cl| {
        let len = 64 << 10;
        let src = cl.alloc_pages(src_mem, len).unwrap();
        let dst = cl.alloc_pages(dst_mem, len).unwrap();
        let (new, old) = (pattern(len, 1), pattern(len, 2));
        cl.write(&src, 0, &new);
        cl.write(&dst, 0, &old);
        let t = if src_mem.node == dst_mem.node {
            cl.pci_dma(&src, &dst, ctx.now())
        } else {
            cl.ib_transfer(&src, &dst, src_mem.node, ctx.now())
        };
        assert!(t.end > ctx.now());
        let span = t.end - ctx.now();
        let one_ns = simcore::SimDuration::from_secs_f64(1e-9);
        for at in [t.start, ctx.now() + span / 2, t.end - one_ns] {
            let (cl, dst, old) = (cl.clone(), dst.clone(), old.clone());
            cl.clone().call_at(at, move |_| {
                assert_eq!(cl.read_vec(&dst), old, "destination changed before `end`");
            });
        }
        assert_eq!(cl.read_vec(&dst), old, "destination changed at post");
        ctx.wait(&t.completion);
        assert_eq!(ctx.now(), t.end);
        assert_eq!(cl.read_vec(&dst), new);
        assert_eq!(cl.read_vec(&src), new, "source must be left alone");
    });
}

#[test]
fn pci_dma_lands_at_end_and_not_before() {
    lands_at_end(phi(0), host(0));
    lands_at_end(host(1), phi(1));
}

#[test]
fn ib_transfer_lands_at_end_and_not_before() {
    lands_at_end(host(0), phi(1));
    lands_at_end(phi(0), phi(1));
}

#[test]
fn source_is_read_at_end_not_sampled_at_post() {
    // The documented rule (see `Transfer`): a poster that rewrites an
    // in-flight source — a usage error — sees the late bytes delivered.
    on_cluster(1, |ctx, cl| {
        let src = cl.alloc_pages(phi(0), 4096).unwrap();
        let dst = cl.alloc_pages(host(0), 4096).unwrap();
        cl.write(&src, 0, &[1u8; 4096]);
        let t = cl.pci_dma(&src, &dst, ctx.now());
        cl.write(&src, 0, &[2u8; 4096]);
        ctx.wait(&t.completion);
        assert_eq!(cl.read_vec(&dst), vec![2u8; 4096]);
    });
}

#[test]
fn overlapping_copy_in_one_arena_is_a_memmove() {
    on_cluster(1, |_ctx, cl| {
        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        let data = pattern(4096, 7);
        // Forward overlap (dst above src) and backward overlap.
        for (from, to) in [(0u64, 100u64), (100, 0)] {
            cl.write(&buf, 0, &data);
            cl.copy(&buf, from, &buf, to, 3000);
            let mut want = data.clone();
            want.copy_within(from as usize..from as usize + 3000, to as usize);
            assert_eq!(cl.read_vec(&buf), want, "{from} -> {to}");
        }
        // Two buffers of one arena, at offsets.
        let other = cl.alloc_pages(phi(0), 4096).unwrap();
        cl.write(&buf, 0, &data);
        cl.copy(&buf, 10, &other, 20, 1000);
        assert_eq!(cl.read_vec(&other)[20..1020], data[10..1010]);
        assert_eq!(cl.read_vec(&other)[..20], [0u8; 20]);
        assert_eq!(cl.read_vec(&other)[1020..], [0u8; 4096 - 1020]);
    });
}

#[test]
fn copy_crosses_domains_and_nodes() {
    on_cluster(2, |_ctx, cl| {
        let data = pattern(5000, 3);
        let src = cl.alloc_pages(phi(0), 5000).unwrap();
        cl.write(&src, 0, &data);
        // Either lock order: lower arena to higher and back.
        for dst_mem in [host(0), phi(1), host(1)] {
            let dst = cl.alloc_pages(dst_mem, 8192).unwrap();
            cl.copy(&src, 8, &dst, 100, 4000);
            assert_eq!(cl.read_vec(&dst)[100..4100], data[8..4008], "{dst_mem}");
            let back = cl.alloc_pages(phi(0), 4000).unwrap();
            cl.copy(&dst, 100, &back, 0, 4000);
            assert_eq!(cl.read_vec(&back), data[8..4008], "{dst_mem} back");
        }
    });
}

#[test]
fn zero_length_copy_moves_nothing() {
    on_cluster(1, |ctx, cl| {
        let a = cl.alloc_pages(phi(0), 64).unwrap();
        let b = cl.alloc_pages(host(0), 64).unwrap();
        cl.write(&b, 0, &[9u8; 64]);
        // At the very end of both buffers is still in range.
        cl.copy(&a, 64, &b, 64, 0);
        cl.copy(&a, 64, &a, 0, 0);
        assert_eq!(cl.read_vec(&b), vec![9u8; 64]);
        // A zero-length allocation is one byte long; its transfer completes.
        let (z1, z2) = (
            cl.alloc(phi(0), 0, 1).unwrap(),
            cl.alloc(host(0), 0, 1).unwrap(),
        );
        let t = cl.pci_dma(&z1, &z2, ctx.now());
        ctx.wait(&t.completion);
    });
}

/// `copy` with one side out of range, same arena or across arenas.
fn out_of_range_copy(dst_mem: MemRef, src_off: u64, dst_off: u64) {
    on_cluster(1, move |_ctx, cl| {
        let src = cl.alloc_pages(phi(0), 4096).unwrap();
        let dst = cl.alloc_pages(dst_mem, 4096).unwrap();
        cl.copy(&src, src_off, &dst, dst_off, 4096);
    });
}

#[test]
#[should_panic(expected = "access 1+4096 out of buffer len 4096")]
fn copy_source_out_of_range_panics() {
    out_of_range_copy(host(0), 1, 0);
}

#[test]
#[should_panic(expected = "access 2+4096 out of buffer len 4096")]
fn copy_destination_out_of_range_panics() {
    out_of_range_copy(host(0), 0, 2);
}

#[test]
#[should_panic(expected = "access 3+4096 out of buffer len 4096")]
fn copy_within_source_out_of_range_panics() {
    out_of_range_copy(phi(0), 3, 0);
}

#[test]
#[should_panic(expected = "access 4+4096 out of buffer len 4096")]
fn copy_within_destination_out_of_range_panics() {
    out_of_range_copy(phi(0), 0, 4);
}
