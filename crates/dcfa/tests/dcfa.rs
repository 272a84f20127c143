//! Integration tests for DCFA: command offloading costs, Phi-side verbs
//! through the daemon, and the offloading send buffer.

use std::sync::Arc;

use dcfa::{spawn_daemons, DcfaContext};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use scif::ScifFabric;
use simcore::{SimCell, SimDuration, Simulation};
use verbs::{IbFabric, SendWr, VerbsContext, WcStatus};

struct Rig {
    sim: Simulation,
    ib: Arc<IbFabric>,
    scif: Arc<ScifFabric>,
}

fn rig(nodes: usize) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    spawn_daemons(&sim.scheduler(), &scif, &ib);
    Rig { sim, ib, scif }
}

fn phi(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Phi,
    }
}

#[test]
fn open_and_close() {
    let mut r = rig(1);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        assert_eq!(dcfa.node(), NodeId(0));
        dcfa.close(ctx);
    });
    r.sim.run_expect();
}

#[test]
fn phi_registration_much_more_expensive_than_host() {
    let mut r = rig(1);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let out: Arc<SimCell<(u64, u64)>> = Arc::new(SimCell::new((0, 0)));
    let out2 = out.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let buf = cl.alloc_pages(phi(0), 64 << 10).unwrap();
        let t0 = ctx.now();
        let _mr = dcfa.reg_mr(ctx, buf).unwrap();
        let phi_cost = (ctx.now() - t0).as_nanos();

        let hostctx = VerbsContext::open(ib.clone(), NodeId(0), Domain::Host);
        let hbuf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: Domain::Host,
                },
                64 << 10,
            )
            .unwrap();
        let t1 = ctx.now();
        let _hmr = hostctx.reg_mr(ctx, hbuf);
        let host_cost = (ctx.now() - t1).as_nanos();
        *out2.lock() = (phi_cost, host_cost);
    });
    r.sim.run_expect();
    let (phi_cost, host_cost) = *out.lock();
    // "A memory region registration operation on the Xeon Phi co-processor
    // is much more expensive than that on the host" (§IV-B3).
    assert!(
        phi_cost as f64 / host_cost as f64 > 3.0,
        "phi={phi_cost}ns host={host_cost}ns"
    );
}

#[test]
fn dcfa_rdma_write_between_phi_cards() {
    // End-to-end: two ranks on two Phi cards, resources via the daemon,
    // RDMA write directly card-to-card.
    let mut r = rig(2);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let qpns: Arc<SimCell<Vec<(NodeId, verbs::QpNum)>>> = Arc::new(SimCell::new(Vec::new()));
    let mrinfo: Arc<SimCell<Option<(u64, verbs::MrKey)>>> = Arc::new(SimCell::new(None));
    let done: Arc<SimCell<bool>> = Arc::new(SimCell::new(false));

    // Receiver: register a target region and expose it.
    let (ib1, scif1) = (ib.clone(), scif.clone());
    let (qpns1, mrinfo1, done1) = (qpns.clone(), mrinfo.clone(), done.clone());
    r.sim.spawn("rank1", move |ctx| {
        let cl = ib1.cluster().clone();
        let dcfa = DcfaContext::open(ctx, &ib1, &scif1, NodeId(1)).unwrap();
        let buf = cl.alloc_pages(phi(1), 4096).unwrap();
        let mr = dcfa.reg_mr(ctx, buf.clone()).unwrap();
        let cq = dcfa.create_cq(ctx).unwrap();
        let qp = dcfa.create_qp(ctx, &cq, &cq).unwrap();
        qpns1.lock().push((qp.node(), qp.qpn()));
        *mrinfo1.lock() = Some((mr.addr(), mr.rkey()));
        // Wait for the peer QP to appear, then connect.
        while qpns1.lock().len() < 2 {
            ctx.sleep(SimDuration::from_micros(1));
        }
        let peer = qpns1.lock()[1];
        qp.connect(peer.0, peer.1);
        // Wait for the payload to land.
        let seen = mr.write_event().epoch();
        ctx.wait_event(mr.write_event(), seen, "payload");
        assert_eq!(cl.read_vec(&buf)[..5], *b"dcfa!");
        *done1.lock() = true;
    });

    let (qpns2, mrinfo2) = (qpns.clone(), mrinfo.clone());
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        cl.write(&buf, 0, b"dcfa!");
        let mr = dcfa.reg_mr(ctx, buf).unwrap();
        let cq = dcfa.create_cq(ctx).unwrap();
        let qp = dcfa.create_qp(ctx, &cq, &cq).unwrap();
        // Wait for the receiver to publish its QP and MR.
        while qpns2.lock().is_empty() || mrinfo2.lock().is_none() {
            ctx.sleep(SimDuration::from_micros(1));
        }
        let peer = qpns2.lock()[0];
        qpns2.lock().push((qp.node(), qp.qpn()));
        qp.connect(peer.0, peer.1);
        let (raddr, rkey) = mrinfo2.lock().unwrap();
        qp.post_send(ctx, SendWr::rdma_write(1, vec![mr.sge(0, 5)], raddr, rkey))
            .unwrap();
        let wc = cq.wait(ctx);
        assert_eq!(wc.status, WcStatus::Success);
    });

    r.sim.run_expect();
    assert!(*done.lock());
}

#[test]
fn offload_mr_lifecycle_and_sync() {
    let mut r = rig(1);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let host_mem = MemRef {
            node: NodeId(0),
            domain: Domain::Host,
        };
        let used_before = cl.mem_used(host_mem);
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let buf = cl.alloc_pages(phi(0), 64 << 10).unwrap();
        cl.write(&buf, 0, &[0x5A; 1024]);
        let omr = dcfa.reg_offload_mr(ctx, &buf).unwrap();
        // Host twin allocated on the host.
        assert!(cl.mem_used(host_mem) >= used_before + (64 << 10));
        assert_eq!(omr.host_mr.buffer().mem.domain, Domain::Host);

        // Sync moves the latest data.
        dcfa.sync_offload_mr(ctx, &omr, 0, 1024);
        let mut out = vec![0u8; 1024];
        cl.read(omr.host_mr.buffer(), 0, &mut out);
        assert_eq!(out, vec![0x5A; 1024]);

        // Partial sync at an offset.
        cl.write(&buf, 2048, &[0xA5; 512]);
        dcfa.sync_offload_mr(ctx, &omr, 2048, 512);
        let mut out = vec![0u8; 512];
        cl.read(omr.host_mr.buffer(), 2048, &mut out);
        assert_eq!(out, vec![0xA5; 512]);

        // Dereg frees the host twin.
        dcfa.dereg_offload_mr(ctx, omr).unwrap();
        assert_eq!(cl.mem_used(host_mem), used_before);
    });
    r.sim.run_expect();
}

#[test]
fn offload_send_outperforms_direct_phi_send_for_large_messages() {
    // The point of §IV-B4: host-staged send beats the direct Phi-sourced
    // path for large messages despite the extra sync.
    let mut r = rig(2);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let out: Arc<SimCell<(u64, u64)>> = Arc::new(SimCell::new((0, 0)));
    let out2 = out.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let len: u64 = 1 << 20;
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let src = cl.alloc_pages(phi(0), len).unwrap();
        let mr_direct = dcfa.reg_mr(ctx, src.clone()).unwrap();
        let omr = dcfa.reg_offload_mr(ctx, &src).unwrap();

        // Remote target on node 1 (host memory region for simplicity).
        let rctx = VerbsContext::open(ib.clone(), NodeId(1), Domain::Host);
        let rbuf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(1),
                    domain: Domain::Host,
                },
                len,
            )
            .unwrap();
        let rmr = rctx.reg_mr_uncharged(rbuf);

        let cq = dcfa.create_cq(ctx).unwrap();
        let qp = dcfa.create_qp(ctx, &cq, &cq).unwrap();
        let rcq = rctx.create_cq();
        let rqp = rctx.create_qp(&rcq, &rcq);
        verbs::QueuePair::connect_pair(&qp, &rqp);

        // Direct: source the Phi buffer.
        let t0 = ctx.now();
        qp.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr_direct.sge(0, len)], rmr.addr(), rmr.rkey()),
        )
        .unwrap();
        let _ = cq.wait(ctx);
        let direct = (ctx.now() - t0).as_nanos();

        // Offloaded: sync to host twin, then source the host buffer.
        let t1 = ctx.now();
        dcfa.sync_offload_mr(ctx, &omr, 0, len);
        qp.post_send(
            ctx,
            SendWr::rdma_write(2, vec![omr.host_mr.sge(0, len)], rmr.addr(), rmr.rkey()),
        )
        .unwrap();
        let _ = cq.wait(ctx);
        let offloaded = (ctx.now() - t1).as_nanos();
        *out2.lock() = (direct, offloaded);
    });
    r.sim.run_expect();
    let (direct, offloaded) = *out.lock();
    assert!(
        offloaded * 2 < direct,
        "offload should be >2x faster at 1MiB: direct={direct} offloaded={offloaded}"
    );
}

#[test]
fn dereg_unknown_key_is_an_error() {
    let mut r = rig(1);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr = dcfa.reg_mr(ctx, buf).unwrap();
        dcfa.dereg_mr(ctx, &mr).unwrap();
        // Second dereg: daemon no longer knows the key.
        let err = dcfa.dereg_mr(ctx, &mr).unwrap_err();
        assert_eq!(err, dcfa::DcfaError::UnknownKey);
    });
    r.sim.run_expect();
}

#[test]
fn a_fault_plan_fails_a_write_from_a_dcfa_registered_mr() {
    // Work-request faults are armed on the HCA model, not through the
    // daemon: the plan fails the first matching RDMA WRITE posted from a
    // region the daemon registered, and only that one.
    let mut r = rig(2);
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
        ib.inject_fault_plan(verbs::FaultPlan {
            status: WcStatus::RemoteAccessError,
            initiator: Some(NodeId(0)),
            target: Some(NodeId(1)),
            ..Default::default()
        });
        assert_eq!(ib.armed_fault_plans().len(), 1);

        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr = dcfa.reg_mr(ctx, buf).unwrap();
        let rctx = VerbsContext::open(ib.clone(), NodeId(1), Domain::Host);
        let rbuf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(1),
                    domain: Domain::Host,
                },
                4096,
            )
            .unwrap();
        let rmr = rctx.reg_mr_uncharged(rbuf);

        let cq = dcfa.create_cq(ctx).unwrap();
        let qp = dcfa.create_qp(ctx, &cq, &cq).unwrap();
        let rcq = rctx.create_cq();
        let rqp = rctx.create_qp(&rcq, &rcq);
        verbs::QueuePair::connect_pair(&qp, &rqp);

        qp.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr.sge(0, 64)], rmr.addr(), rmr.rkey()),
        )
        .unwrap();
        let wc = cq.wait(ctx);
        assert_ne!(wc.status, WcStatus::Success);
        assert!(!wc.status.is_transient());
        // The plan was one-shot: a second write goes through clean.
        assert_eq!(ib.armed_fault_plans(), Vec::new());
        qp.post_send(
            ctx,
            SendWr::rdma_write(2, vec![mr.sge(0, 64)], rmr.addr(), rmr.rkey()),
        )
        .unwrap();
        let wc = cq.wait(ctx);
        assert_eq!(wc.status, WcStatus::Success);
        dcfa.close(ctx);
    });
    r.sim.run_expect();
}

#[test]
fn multiple_clients_share_one_daemon() {
    let mut r = rig(1);
    for i in 0..4 {
        let (ib, scif) = (r.ib.clone(), r.scif.clone());
        r.sim.spawn(format!("rank{i}"), move |ctx| {
            let cl = ib.cluster().clone();
            let dcfa = DcfaContext::open(ctx, &ib, &scif, NodeId(0)).unwrap();
            let buf = cl.alloc_pages(phi(0), 4096).unwrap();
            let mr = dcfa.reg_mr(ctx, buf).unwrap();
            dcfa.dereg_mr(ctx, &mr).unwrap();
            dcfa.close(ctx);
        });
    }
    r.sim.run_expect();
}
