//! SCIF concurrency tests: multiple connections per listener, message
//! ordering, and PCIe contention between endpoints of the same node.
//! Servers are sinks (`listen_with` + `on_recv` + `send_from`), as the
//! DCFA daemon is, or processes that end once their clients are served.

use std::sync::Arc;

use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use scif::ScifFabric;
use simcore::{SimDuration, Simulation};

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
fn one_listener_many_clients() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let fabric = ScifFabric::new(cluster);
    let served = Arc::new(Mutex::new(Vec::new()));

    let s2 = served.clone();
    // What a handler process pays by sleeping: a `cpu_op` to receive and
    // one to send.
    let work = fabric.cluster().config().cost.cpu_op(Domain::Host) * 2;
    fabric.listen_with(host(0), 9, move |_, ep| {
        let s3 = s2.clone();
        ep.on_recv(move |s, ep, msg| {
            s3.lock().push(msg[0]);
            ep.send_from(s.now() + work, &[msg[0] + 100]);
        });
    });

    for i in 0..4u8 {
        let f = fabric.clone();
        sim.spawn(format!("client{i}"), move |ctx| {
            ctx.yield_now();
            let ep = f.connect(ctx, phi(0), Domain::Host, 9).unwrap();
            ep.send(ctx, &[i]);
            let reply = ep.recv(ctx);
            assert_eq!(reply, vec![i + 100]);
        });
    }
    sim.run_expect();
    let mut s = served.lock().clone();
    s.sort();
    assert_eq!(s, vec![0, 1, 2, 3]);
}

#[test]
fn message_order_is_fifo_per_connection() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let fabric = ScifFabric::new(cluster);
    let got = Arc::new(Mutex::new(Vec::new()));

    let g2 = got.clone();
    fabric.listen_with(host(0), 1, move |_, ep| {
        let g3 = g2.clone();
        ep.on_recv(move |_, _, m| g3.lock().push(m[0]));
    });
    let f2 = fabric.clone();
    sim.spawn("tx", move |ctx| {
        ctx.yield_now();
        let ep = f2.connect(ctx, phi(0), Domain::Host, 1).unwrap();
        for i in 0..16u8 {
            ep.send(ctx, &[i]);
            if i % 3 == 0 {
                ctx.sleep(SimDuration::from_micros(2));
            }
        }
        // Let everything drain.
        ctx.sleep(SimDuration::from_millis(1));
    });
    sim.run_expect();
    assert_eq!(*got.lock(), (0..16u8).collect::<Vec<_>>());
}

#[test]
fn rma_contention_serializes_same_direction() {
    // Two endpoints on the same node both RMA-write phi->host: the PCIe
    // p2h channel serializes them.
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let fabric = ScifFabric::new(cluster.clone());
    let times = Arc::new(Mutex::new(Vec::new()));

    // RMA needs no work from the host side: accepting is all it does.
    let l = fabric.listen(host(0), 2);
    sim.spawn("srv", move |ctx| {
        for _ in 0..2 {
            l.accept(ctx);
        }
    });

    let len = 4u64 << 20;
    let barrier = Arc::new(Mutex::new(0usize));
    for i in 0..2 {
        let f = fabric.clone();
        let cl = cluster.clone();
        let t2 = times.clone();
        let b2 = barrier.clone();
        sim.spawn(format!("phi{i}"), move |ctx| {
            ctx.yield_now();
            let ep = f.connect(ctx, phi(0), Domain::Host, 2).unwrap();
            let src = cl.alloc_pages(phi(0), len).unwrap();
            let dst = cl.alloc_pages(host(0), len).unwrap();
            // Rough start sync.
            *b2.lock() += 1;
            while *b2.lock() < 2 {
                ctx.sleep(SimDuration::from_micros(1));
            }
            let t0 = ctx.now();
            ep.writeto_sync(ctx, &src, &dst);
            t2.lock().push((ctx.now() - t0).as_nanos());
        });
    }
    sim.run_expect();
    let times = times.lock().clone();
    let single = simcore::transfer_time(len, ClusterConfig::paper().cost.pci_p2h_bw).as_nanos();
    // One of the two waited for the other: its elapsed ~2x a lone transfer.
    let max = *times.iter().max().unwrap();
    assert!(
        max as f64 > 1.8 * single as f64,
        "no serialization visible: {times:?}"
    );
}

#[test]
fn cross_node_endpoints_do_not_contend() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let fabric = ScifFabric::new(cluster.clone());
    let times = Arc::new(Mutex::new(Vec::new()));
    for i in 0..2usize {
        let f = fabric.clone();
        let cl = cluster.clone();
        let t2 = times.clone();
        let fl = fabric.clone();
        // A process-style server: one round trip once the RMA is done.
        sim.spawn(format!("srv{i}"), move |ctx| {
            let l = fl.listen(host(i), 3);
            let ep = l.accept(ctx);
            let msg = ep.recv(ctx);
            ep.send(ctx, &msg);
        });
        sim.spawn(format!("phi{i}"), move |ctx| {
            ctx.yield_now();
            let len = 4u64 << 20;
            let ep = f.connect(ctx, phi(i), Domain::Host, 3).unwrap();
            let src = cl.alloc_pages(phi(i), len).unwrap();
            let dst = cl.alloc_pages(host(i), len).unwrap();
            let t0 = ctx.now();
            ep.writeto_sync(ctx, &src, &dst);
            t2.lock().push((ctx.now() - t0).as_nanos());
            ep.send(ctx, b"written");
            assert_eq!(ep.recv(ctx), b"written");
        });
    }
    sim.run_expect();
    let times = times.lock().clone();
    assert_eq!(times[0], times[1], "different nodes must not contend");
}
