//! Rate-capped DMA, channel accounting for PCIe traffic, and page
//! alignment properties.

use std::sync::Arc;

use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId, PAGE_SIZE};
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

#[test]
fn rate_capped_dma_is_slower_than_hardware() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let out = Arc::new(SimCell::new((0u64, 0u64)));
    let o2 = out.clone();
    let cl = cluster.clone();
    sim.spawn("p", move |ctx| {
        let len = 4 << 20;
        let h = cl.alloc_pages(host(0), len).unwrap();
        let p = cl.alloc_pages(phi(0), len).unwrap();
        let t1 = cl.pci_dma(&h, &p, ctx.now());
        ctx.wait(&t1.completion);
        let full = (t1.end - t1.start).as_nanos();
        let t2 = cl.pci_dma_at_rate(&h, &p, ctx.now(), 1.0e9);
        ctx.wait(&t2.completion);
        let capped = (t2.end - t2.start).as_nanos();
        *o2.lock() = (full, capped);
    });
    sim.run_expect();
    let (full, capped) = *out.lock();
    // 6 GB/s hardware vs 1 GB/s cap: ~6x slower.
    let ratio = capped as f64 / full as f64;
    assert!((5.0..7.0).contains(&ratio), "ratio = {ratio:.2}");
}

#[test]
fn rate_cap_above_hardware_is_clamped() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let cl = cluster.clone();
    sim.spawn("p", move |ctx| {
        let len = 1 << 20;
        let h = cl.alloc_pages(host(0), len).unwrap();
        let p = cl.alloc_pages(phi(0), len).unwrap();
        let t1 = cl.pci_dma(&h, &p, ctx.now());
        let t2 = cl.pci_dma_at_rate(&h, &p, ctx.now(), 1e15);
        // Same duration: the cap cannot beat the hardware.
        assert_eq!(t1.end - t1.start, t2.end - t2.start);
        ctx.wait(&t1.completion);
        ctx.wait(&t2.completion);
    });
    sim.run_expect();
}

#[test]
fn pci_channels_account_direction_separately() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let cl = cluster.clone();
    sim.spawn("p", move |ctx| {
        let h = cl.alloc_pages(host(0), 4096).unwrap();
        let p = cl.alloc_pages(phi(0), 4096).unwrap();
        let t1 = cl.pci_dma(&h, &p, ctx.now()); // h2p
        let t2 = cl.pci_dma(&p, &h, ctx.now()); // p2h
        ctx.wait(&t1.completion);
        ctx.wait(&t2.completion);
        let stats = cl.channel_stats(NodeId(0));
        let h2p = stats.iter().find(|(n, _, _)| *n == "pci-h2p").unwrap();
        let p2h = stats.iter().find(|(n, _, _)| *n == "pci-p2h").unwrap();
        assert_eq!(h2p.1, 4096);
        assert_eq!(p2h.1, 4096);
        // Opposite directions overlap: same start.
        assert_eq!(t1.start, t2.start);
    });
    sim.run_expect();
}

#[test]
fn page_alignment_helpers() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let cl = cluster.clone();
    sim.spawn("p", move |_ctx| {
        let a = cl.alloc_pages(host(0), PAGE_SIZE * 3).unwrap();
        assert!(a.is_page_aligned());
        assert_eq!(a.pages(), 3);
        let b = cl.alloc(host(0), 100, 1).unwrap();
        assert!(!b.is_page_aligned());
    });
    sim.run_expect();
}

#[test]
fn transfers_at_same_instant_are_deterministically_ordered() {
    fn run() -> Vec<u64> {
        let mut sim = Simulation::new();
        let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
        let ends = Arc::new(SimCell::new(Vec::new()));
        let (cl, e2) = (cluster.clone(), ends.clone());
        sim.spawn("p", move |ctx| {
            let mut transfers = Vec::new();
            for _ in 0..4 {
                let s = cl.alloc_pages(host(0), 64 << 10).unwrap();
                let d = cl.alloc_pages(host(1), 64 << 10).unwrap();
                transfers.push(cl.ib_transfer(&s, &d, NodeId(0), ctx.now()));
            }
            for t in &transfers {
                ctx.wait(&t.completion);
                e2.lock().push(t.end.as_nanos());
            }
        });
        sim.run_expect();
        let v = ends.lock().clone();
        v
    }
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // Strictly increasing (serialized on the egress port in post order).
    for w in a.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn cluster_call_at_runs_in_order() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let log = Arc::new(SimCell::new(Vec::new()));
    let (cl, l2) = (cluster.clone(), log.clone());
    sim.spawn("p", move |ctx| {
        for (i, t) in [300u64, 100, 200].iter().enumerate() {
            let l3 = l2.clone();
            cl.call_at(SimTime(*t), move |_| l3.lock().push(i));
        }
        ctx.sleep(simcore::SimDuration::from_micros(1));
    });
    sim.run_expect();
    assert_eq!(*log.lock(), vec![1, 2, 0]);
}
