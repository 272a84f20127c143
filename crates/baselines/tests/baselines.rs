//! Tests for the Intel MPI baseline models: correctness of the proxy-mode
//! communicator, calibration of its latency/bandwidth behaviour against
//! the paper's numbers, and the offload runtime's cost structure.

use std::sync::Arc;

use baselines::{IntelPhiWorld, OffloadRuntime};
use dcfa_mpi::{Communicator, Src, TagSel};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use simcore::{SimCell, SimDuration, Simulation};

fn setup(nodes: usize) -> (Simulation, Arc<Cluster>) {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    (sim, cluster)
}

#[test]
fn intel_phi_send_recv_roundtrip() {
    let (mut sim, cluster) = setup(2);
    let world = IntelPhiWorld::new(cluster.clone(), 2);
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    world.launch(&sim, move |ctx, comm| {
        let buf = comm.cluster().alloc_pages(comm.mem(), 4096).unwrap();
        if comm.rank() == 0 {
            comm.cluster().write(&buf, 0, &[0x42; 4096]);
            comm.send(ctx, &buf, 1, 5).unwrap();
        } else {
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(5)).unwrap();
            assert_eq!(st.len, 4096);
            assert_eq!(comm.cluster().read_vec(&buf), vec![0x42; 4096]);
            *ok2.lock() = true;
        }
    });
    sim.run_expect();
    assert!(*ok.lock());
}

#[test]
fn intel_phi_large_message_roundtrip() {
    let (mut sim, cluster) = setup(2);
    let world = IntelPhiWorld::new(cluster.clone(), 2);
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    world.launch(&sim, move |ctx, comm| {
        let len = 2 << 20;
        let buf = comm.cluster().alloc_pages(comm.mem(), len).unwrap();
        if comm.rank() == 0 {
            let data: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
            comm.cluster().write(&buf, 0, &data);
            comm.send(ctx, &buf, 1, 1).unwrap();
        } else {
            comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            let got = comm.cluster().read_vec(&buf);
            assert_eq!(got[12345], (12345 % 255) as u8);
            *ok2.lock() = true;
        }
    });
    sim.run_expect();
    assert!(*ok.lock());
}

#[test]
fn intel_phi_any_source_and_tags() {
    let (mut sim, cluster) = setup(3);
    let world = IntelPhiWorld::new(cluster.clone(), 3);
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    world.launch(&sim, move |ctx, comm| {
        if comm.rank() < 2 {
            let buf = comm.cluster().alloc_pages(comm.mem(), 64).unwrap();
            comm.cluster().write(&buf, 0, &[comm.rank() as u8; 64]);
            comm.send(ctx, &buf, 2, 10 + comm.rank() as u32).unwrap();
        } else {
            let buf = comm.cluster().alloc_pages(comm.mem(), 64).unwrap();
            for _ in 0..2 {
                let st = comm.recv(ctx, &buf, Src::Any, TagSel::Any).unwrap();
                g2.lock().push((st.source, st.tag));
            }
        }
    });
    sim.run_expect();
    let mut got = got.lock().clone();
    got.sort();
    assert_eq!(got, vec![(0, 10), (1, 11)]);
}

#[test]
fn intel_phi_4byte_rtt_near_28us() {
    // Paper: "For 4bytes round trip blocking communication, the 'Intel MPI
    // on Xeon Phi co-processors' mode spends 28 microseconds".
    let (mut sim, cluster) = setup(2);
    let world = IntelPhiWorld::new(cluster.clone(), 2);
    let rtt = Arc::new(SimCell::new(0.0f64));
    let r2 = rtt.clone();
    world.launch(&sim, move |ctx, comm| {
        let buf = comm.cluster().alloc_pages(comm.mem(), 4).unwrap();
        let iters = 20;
        if comm.rank() == 0 {
            let t0 = ctx.now();
            for _ in 0..iters {
                comm.send(ctx, &buf, 1, 0).unwrap();
                comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(0)).unwrap();
            }
            *r2.lock() = (ctx.now() - t0).as_micros_f64() / iters as f64;
        } else {
            for _ in 0..iters {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
                comm.send(ctx, &buf, 0, 0).unwrap();
            }
        }
    });
    sim.run_expect();
    let rtt = *rtt.lock();
    assert!(
        (20.0..36.0).contains(&rtt),
        "4B RTT = {rtt:.1}us, expected ~28us"
    );
}

#[test]
fn intel_phi_large_bandwidth_below_1gbs() {
    // Paper Fig. 9: "'Intel MPI on Xeon Phi co-processors' mode cannot get
    // bandwidth greater than 1 Gbytes/s".
    let (mut sim, cluster) = setup(2);
    let world = IntelPhiWorld::new(cluster.clone(), 2);
    let bw = Arc::new(SimCell::new(0.0f64));
    let b2 = bw.clone();
    world.launch(&sim, move |ctx, comm| {
        let len = 4u64 << 20;
        let buf = comm.cluster().alloc_pages(comm.mem(), len).unwrap();
        if comm.rank() == 0 {
            let t0 = ctx.now();
            comm.send(ctx, &buf, 1, 0).unwrap();
            comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(0)).unwrap();
            let rtt = ctx.now() - t0;
            *b2.lock() = 2.0 * len as f64 / rtt.as_secs_f64();
        } else {
            comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
            comm.send(ctx, &buf, 0, 0).unwrap();
        }
    });
    sim.run_expect();
    let bw = *bw.lock();
    assert!(
        bw < 1.1e9,
        "Intel-Phi large bandwidth {:.2} GB/s should be < ~1",
        bw / 1e9
    );
    assert!(bw > 0.5e9, "sanity: {:.2} GB/s", bw / 1e9);
}

#[test]
fn offload_runtime_copy_roundtrip() {
    let (mut sim, cluster) = setup(1);
    let cl = cluster.clone();
    sim.spawn("host-rank", move |ctx| {
        let rt = OffloadRuntime::new(ctx, cl.clone(), NodeId(0));
        let host = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Host,
                },
                8192,
            )
            .unwrap();
        let card = rt.alloc_phi(8192).unwrap();
        cl.write(&host, 0, &[9u8; 8192]);
        rt.copy_in(ctx, &host, &card);
        assert_eq!(cl.read_vec(&card), vec![9u8; 8192]);
        cl.write(&card, 0, &[7u8; 8192]);
        rt.copy_out(ctx, &card, &host);
        assert_eq!(cl.read_vec(&host), vec![7u8; 8192]);
        rt.free_phi(&card);
    });
    sim.run_expect();
}

#[test]
fn offload_transfer_overhead_dominates_small_copies() {
    // The 12x of Fig. 10 comes from the fixed per-transfer overhead.
    let (mut sim, cluster) = setup(1);
    let cl = cluster.clone();
    let times = Arc::new(SimCell::new((0u64, 0u64)));
    let t2 = times.clone();
    sim.spawn("host-rank", move |ctx| {
        let rt = OffloadRuntime::new(ctx, cl.clone(), NodeId(0));
        let host = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Host,
                },
                1 << 20,
            )
            .unwrap();
        let card = rt.alloc_phi(1 << 20).unwrap();
        let t0 = ctx.now();
        rt.copy_in(ctx, &host.slice(0, 64), &card.slice(0, 64));
        let small = (ctx.now() - t0).as_nanos();
        let t1 = ctx.now();
        rt.copy_in(ctx, &host, &card);
        let large = (ctx.now() - t1).as_nanos();
        *t2.lock() = (small, large);
    });
    sim.run_expect();
    let (small, large) = *times.lock();
    let overhead = cluster.config().cost.offload_transfer_overhead.as_nanos();
    assert!(small >= overhead, "small copy must pay the fixed overhead");
    // A 64B copy is within 5% of pure overhead.
    assert!((small as f64) < overhead as f64 * 1.05);
    // 1 MiB at ~3 GB/s adds ~350us on top.
    assert!(large > small * 3);
}

#[test]
fn offload_copies_serialize_on_the_coi_stream() {
    // The runtime funnels all offload transfers through one COI DMA
    // stream: in+out of the same size take ~double one copy, even though
    // the PCIe directions could physically overlap. (This is what keeps
    // the offload mode at about half of DCFA-MPI's rate for large
    // messages in Fig. 10.)
    let (mut sim, cluster) = setup(1);
    let cl = cluster.clone();
    let elapsed = Arc::new(SimCell::new((0u64, 0u64)));
    let e2 = elapsed.clone();
    sim.spawn("host-rank", move |ctx| {
        let rt = OffloadRuntime::new(ctx, cl.clone(), NodeId(0));
        let len = 4 << 20;
        let host = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Host,
                },
                2 * len,
            )
            .unwrap();
        let card = rt.alloc_phi(2 * len).unwrap();
        let t0 = ctx.now();
        rt.copy_in(ctx, &host.slice(0, len), &card.slice(0, len));
        let one = (ctx.now() - t0).as_nanos();
        let t1 = ctx.now();
        let a = rt.copy_in_async(ctx, &host.slice(0, len), &card.slice(0, len));
        let b = rt.copy_out_async(ctx, &card.slice(len, len), &host.slice(len, len));
        ctx.wait(&a.completion);
        ctx.wait(&b.completion);
        let both = (ctx.now() - t1).as_nanos();
        *e2.lock() = (one, both);
    });
    sim.run_expect();
    let (one, both) = *elapsed.lock();
    let ratio = both as f64 / one as f64;
    assert!(
        (1.8..2.2).contains(&ratio),
        "copies must serialize: one={one} both={both} ratio={ratio:.2}"
    );
}

#[test]
fn offload_region_charges_dispatch_plus_kernel() {
    let (mut sim, cluster) = setup(1);
    let cl = cluster.clone();
    let t = Arc::new(SimCell::new(0u64));
    let t2 = t.clone();
    sim.spawn("host-rank", move |ctx| {
        let rt = OffloadRuntime::new(ctx, cl.clone(), NodeId(0));
        let t0 = ctx.now();
        let v = rt.offload_region(ctx, SimDuration::from_micros(500), |_cl| 41 + 1);
        assert_eq!(v, 42);
        *t2.lock() = (ctx.now() - t0).as_nanos();
    });
    sim.run_expect();
    let cost = cluster.config().cost.clone();
    assert_eq!(
        *t.lock(),
        (cost.offload_region_overhead + SimDuration::from_micros(500)).as_nanos()
    );
}
