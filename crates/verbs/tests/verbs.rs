//! Integration tests for the Verbs API: send/recv matching, RDMA read and
//! write semantics, SGE gather/scatter, ordering, error statuses and the
//! Phi-path bottleneck seen through verbs.

use std::sync::Arc;

use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use simcore::{SimCell, SimDuration, SimTime, Simulation};
use verbs::{IbFabric, RecvWr, SendWr, VerbsContext, VerbsError, WcOpcode, WcStatus};

struct Rig {
    sim: Simulation,
    fabric: Arc<IbFabric>,
}

fn rig(nodes: usize) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    let fabric = IbFabric::new(cluster);
    Rig { sim, fabric }
}

fn mem(node: usize, domain: Domain) -> MemRef {
    MemRef {
        node: NodeId(node),
        domain,
    }
}

#[test]
fn rdma_write_moves_bytes_and_completes() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    type DoneCell = Arc<SimCell<Option<(u64, Vec<u8>)>>>;
    let done: DoneCell = Arc::new(SimCell::new(None));
    let done2 = done.clone();
    r.sim.spawn("writer", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);

        let src_buf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let dst_buf = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        cl.write(&src_buf, 0, &[0xAB; 4096]);

        let mr_src = ctx_a.reg_mr(ctx, src_buf);
        let mr_dst = ctx_b.reg_mr_uncharged(dst_buf.clone());

        let cq_a = ctx_a.create_cq();
        let cq_b = ctx_b.create_cq();
        let qp_a = ctx_a.create_qp(&cq_a, &cq_a);
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        qp_a.post_send(
            ctx,
            SendWr::rdma_write(7, vec![mr_src.sge(0, 4096)], mr_dst.addr(), mr_dst.rkey()),
        )
        .unwrap();
        let wc = cq_a.wait(ctx);
        assert_eq!(wc.status, WcStatus::Success);
        assert_eq!(wc.opcode, WcOpcode::RdmaWrite);
        *done2.lock() = Some((ctx.now().as_nanos(), cl.read_vec(&dst_buf)));
    });
    r.sim.run_expect();
    let (t, data) = done.lock().clone().unwrap();
    assert!(t > 0);
    assert_eq!(data, vec![0xAB; 4096]);
}

#[test]
fn send_recv_matches_fifo_and_scatters() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    type GotCell = Arc<SimCell<Vec<(u64, Vec<u8>)>>>;
    let got: GotCell = Arc::new(SimCell::new(Vec::new()));

    // Receiver pre-posts two receives, sender sends two distinct payloads.
    let f1 = fabric.clone();
    let got2 = got.clone();
    r.sim.spawn("receiver", move |ctx| {
        let cl = f1.cluster().clone();
        let vctx = VerbsContext::open(f1.clone(), NodeId(1), Domain::Host);
        let buf = cl.alloc_pages(mem(1, Domain::Host), 8192).unwrap();
        let mr = vctx.reg_mr(ctx, buf);
        let cq = vctx.create_cq();
        let qp = vctx.create_qp(&cq, &cq);
        qp.connect(NodeId(0), verbs::QpNum(2)); // sender's QP created second

        qp.post_recv(ctx, RecvWr::new(100, vec![mr.sge(0, 4096)]))
            .unwrap();
        qp.post_recv(ctx, RecvWr::new(101, vec![mr.sge(4096, 4096)]))
            .unwrap();
        for _ in 0..2 {
            let wc = cq.wait(ctx);
            assert_eq!(wc.status, WcStatus::Success);
            assert_eq!(wc.opcode, WcOpcode::Recv);
            let off = if wc.wr_id == 100 { 0 } else { 4096 };
            let mut out = vec![0u8; wc.byte_len as usize];
            cl.read(mr.buffer(), off, &mut out);
            got2.lock().push((wc.wr_id, out));
        }
    });

    let f2 = fabric.clone();
    r.sim.spawn("sender", move |ctx| {
        let cl = f2.cluster().clone();
        let vctx = VerbsContext::open(f2.clone(), NodeId(0), Domain::Host);
        let buf = cl.alloc_pages(mem(0, Domain::Host), 8192).unwrap();
        cl.write(&buf, 0, &[1u8; 4096]);
        cl.write(&buf, 4096, &[2u8; 4096]);
        let mr = vctx.reg_mr(ctx, buf);
        let cq = vctx.create_cq();
        let qp = vctx.create_qp(&cq, &cq);
        qp.connect(NodeId(1), verbs::QpNum(1)); // receiver's QP created first

        // Give the receiver a moment to post; FIFO order must hold anyway.
        ctx.sleep(simcore::SimDuration::from_micros(10));
        qp.post_send(ctx, SendWr::send(0, vec![mr.sge(0, 4096)]))
            .unwrap();
        qp.post_send(ctx, SendWr::send(1, vec![mr.sge(4096, 4096)]))
            .unwrap();
        for _ in 0..2 {
            let wc = cq.wait(ctx);
            assert_eq!(wc.status, WcStatus::Success);
        }
    });
    r.sim.run_expect();
    let got = got.lock().clone();
    assert_eq!(got.len(), 2);
    // First send matched first posted receive.
    assert_eq!(got[0].0, 100);
    assert_eq!(got[0].1, vec![1u8; 4096]);
    assert_eq!(got[1].0, 101);
    assert_eq!(got[1].1, vec![2u8; 4096]);
}

#[test]
fn rdma_read_pulls_remote_content() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("reader", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);

        let remote = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        cl.write(&remote, 0, b"rendezvous payload");
        let mr_remote = ctx_b.reg_mr_uncharged(remote);

        let local = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let mr_local = ctx_a.reg_mr(ctx, local.clone());

        let cq = ctx_a.create_cq();
        let qp_a = ctx_a.create_qp(&cq, &cq);
        let cq_b = ctx_b.create_cq();
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        qp_a.post_send(
            ctx,
            SendWr::rdma_read(
                9,
                vec![mr_local.sge(0, 18)],
                mr_remote.addr(),
                mr_remote.rkey(),
            ),
        )
        .unwrap();
        let wc = cq.wait(ctx);
        assert_eq!(wc.status, WcStatus::Success);
        assert_eq!(wc.opcode, WcOpcode::RdmaRead);
        let mut out = vec![0u8; 18];
        cl.read(&local, 0, &mut out);
        assert_eq!(&out, b"rendezvous payload");
    });
    r.sim.run_expect();
}

#[test]
fn rdma_write_sge_order_tail_polling() {
    // The eager packet: header SGE + data SGE + tail SGE, delivered in
    // order into a contiguous remote ring slot.
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("eager", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);

        let src = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        cl.write(&src, 0, &[0x11; 64]); // header
        cl.write(&src, 64, &[0x22; 256]); // data
        cl.write(&src, 320, &[0xEE; 8]); // tail
        let mr_src = ctx_a.reg_mr(ctx, src);

        let ring = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        let mr_ring = ctx_b.reg_mr_uncharged(ring.clone());

        let cq = ctx_a.create_cq();
        let qp_a = ctx_a.create_qp(&cq, &cq);
        let cq_b = ctx_b.create_cq();
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        let wr = SendWr::rdma_write(
            1,
            vec![mr_src.sge(0, 64), mr_src.sge(64, 256), mr_src.sge(320, 8)],
            mr_ring.addr(),
            mr_ring.rkey(),
        );
        qp_a.post_send(ctx, wr).unwrap();

        // Receiver side: wait for the region write event, then check tail.
        let seen = mr_ring.write_event().epoch();
        ctx.wait_event(mr_ring.write_event(), seen, "tail poll");
        let mut tail = [0u8; 8];
        cl.read(&ring, 320, &mut tail);
        assert_eq!(tail, [0xEE; 8]);
        let mut hdr = [0u8; 64];
        cl.read(&ring, 0, &mut hdr);
        assert_eq!(hdr, [0x11; 64]);
    });
    r.sim.run_expect();
}

/// The eager ring's assumption, shared with MPICH2 over InfiniBand: the
/// SGEs of one RDMA write land in list order, so whoever sees the tail
/// sees the header and payload before it. The source gathers them out of
/// address order (tail first, header last), so a delivery that followed
/// source addresses instead of the list would place them wrong; and a
/// reader polls the slot every virtual nanosecond until the write has
/// completed, so a delivery that let the tail land before the rest would
/// be seen.
#[test]
fn rdma_write_lands_sges_in_list_order() {
    const HDR: usize = 64;
    const DATA: usize = 256;
    const TAIL: usize = 8;
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    let cl = fabric.cluster().clone();
    let ring = cl.alloc_pages(mem(1, Domain::Phi), 4096).unwrap();
    let (polls, done) = (Arc::new(SimCell::new(0u32)), Arc::new(SimCell::new(false)));
    let (ring2, cl2, polls2, done2) = (ring.clone(), cl.clone(), polls.clone(), done.clone());
    r.sim.spawn("poller", move |ctx| loop {
        let mut slot = [0u8; HDR + DATA + TAIL];
        cl2.read(&ring2, 0, &mut slot);
        *polls2.lock() += 1;
        let tail_seen = slot[HDR + DATA..] == [0xEE; TAIL];
        if tail_seen || *done2.lock() {
            assert_eq!(slot[..HDR], [0x11; HDR], "header misplaced");
            assert_eq!(slot[HDR..HDR + DATA], [0x22; DATA], "data misplaced");
            assert!(tail_seen, "tail misplaced");
            return;
        }
        ctx.sleep(SimDuration::from_nanos(1));
    });
    r.sim.spawn("writer", move |ctx| {
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Phi);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Phi);
        let src = cl.alloc_pages(mem(0, Domain::Phi), 4096).unwrap();
        cl.write(&src, 0, &[0xEE; TAIL]);
        cl.write(&src, TAIL as u64, &[0x22; DATA]);
        cl.write(&src, (TAIL + DATA) as u64, &[0x11; HDR]);
        let mr_src = ctx_a.reg_mr(ctx, src);
        let mr_ring = ctx_b.reg_mr_uncharged(ring);
        let cq = ctx_a.create_cq();
        let qp_a = ctx_a.create_qp(&cq, &cq);
        let cq_b = ctx_b.create_cq();
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);
        let sges = vec![
            mr_src.sge((TAIL + DATA) as u64, HDR as u64),
            mr_src.sge(TAIL as u64, DATA as u64),
            mr_src.sge(0, TAIL as u64),
        ];
        let wr = SendWr::rdma_write(1, sges, mr_ring.addr(), mr_ring.rkey());
        qp_a.post_send(ctx, wr).unwrap();
        assert_eq!(cq.wait(ctx).status, WcStatus::Success);
        *done.lock() = true;
    });
    r.sim.run_expect();
    // The write took far longer than one poll: the reader looked many
    // times before the tail landed.
    assert!(*polls.lock() > 100, "{} polls", *polls.lock());
}

#[test]
fn send_larger_than_recv_errors() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let sbuf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let rbuf = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        let mr_s = ctx_a.reg_mr(ctx, sbuf);
        let mr_r = ctx_b.reg_mr_uncharged(rbuf);
        let cq_a = ctx_a.create_cq();
        let cq_b = ctx_b.create_cq();
        let qp_a = ctx_a.create_qp(&cq_a, &cq_a);
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        qp_b.post_recv(ctx, RecvWr::new(5, vec![mr_r.sge(0, 16)]))
            .unwrap();
        qp_a.post_send(ctx, SendWr::send(6, vec![mr_s.sge(0, 64)]))
            .unwrap();
        let wc = cq_b.wait(ctx);
        assert_eq!(wc.status, WcStatus::LocalLengthError);
        assert_eq!(wc.byte_len, 64);
    });
    r.sim.run_expect();
}

#[test]
fn send_before_recv_is_held_and_delivered() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let sbuf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        cl.write(&sbuf, 0, b"late recv");
        let rbuf = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        let mr_s = ctx_a.reg_mr(ctx, sbuf);
        let mr_r = ctx_b.reg_mr_uncharged(rbuf.clone());
        let cq_a = ctx_a.create_cq();
        let cq_b = ctx_b.create_cq();
        let qp_a = ctx_a.create_qp(&cq_a, &cq_a);
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        qp_a.post_send(ctx, SendWr::send(1, vec![mr_s.sge(0, 9)]))
            .unwrap();
        // Wait long enough that the send has landed with no receive posted.
        ctx.sleep(simcore::SimDuration::from_millis(1));
        qp_b.post_recv(ctx, RecvWr::new(2, vec![mr_r.sge(0, 64)]))
            .unwrap();
        let wc = cq_b.wait(ctx);
        assert_eq!(wc.status, WcStatus::Success);
        let mut out = vec![0u8; 9];
        cl.read(&rbuf, 0, &mut out);
        assert_eq!(&out, b"late recv");
    });
    r.sim.run_expect();
}

#[test]
fn post_send_on_unconnected_qp_fails() {
    let mut r = rig(1);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let vctx = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let buf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let mr = vctx.reg_mr(ctx, buf);
        let cq = vctx.create_cq();
        let qp = vctx.create_qp(&cq, &cq);
        let err = qp
            .post_send(ctx, SendWr::send(1, vec![mr.sge(0, 8)]))
            .unwrap_err();
        assert_eq!(err, VerbsError::QpNotConnected);
    });
    r.sim.run_expect();
}

#[test]
fn invalid_lkey_and_out_of_range_sge_fail() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let vctx = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let buf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let mr = vctx.reg_mr(ctx, buf);
        let cq = vctx.create_cq();
        let qp = vctx.create_qp(&cq, &cq);
        qp.connect(NodeId(1), verbs::QpNum(999));

        let bad_key = SendWr::send(
            1,
            vec![verbs::Sge {
                addr: mr.addr(),
                len: 8,
                lkey: verbs::MrKey(4242),
            }],
        );
        assert!(matches!(
            qp.post_send(ctx, bad_key),
            Err(VerbsError::InvalidLKey(_))
        ));

        let oob = SendWr::send(
            2,
            vec![verbs::Sge {
                addr: mr.addr() + 4090,
                len: 100,
                lkey: mr.key(),
            }],
        );
        assert!(matches!(
            qp.post_send(ctx, oob),
            Err(VerbsError::SgeOutOfRange { .. })
        ));
    });
    r.sim.run_expect();
}

#[test]
fn dereg_mr_invalidates_rdma_target() {
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let sbuf = cl.alloc_pages(mem(0, Domain::Host), 4096).unwrap();
        let rbuf = cl.alloc_pages(mem(1, Domain::Host), 4096).unwrap();
        let mr_s = ctx_a.reg_mr(ctx, sbuf);
        let mr_r = ctx_b.reg_mr_uncharged(rbuf);
        let cq_a = ctx_a.create_cq();
        let cq_b = ctx_b.create_cq();
        let qp_a = ctx_a.create_qp(&cq_a, &cq_a);
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        ctx_b.dereg_mr(&mr_r);
        qp_a.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr_s.sge(0, 64)], mr_r.addr(), mr_r.rkey()),
        )
        .unwrap_err();
    });
    r.sim.run_expect();
}

#[test]
fn sq_ordering_serializes_same_qp_transfers() {
    // Two back-to-back 1 MiB RDMA writes on one QP must not overlap.
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    let times: Arc<SimCell<Vec<u64>>> = Arc::new(SimCell::new(Vec::new()));
    let t2 = times.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let len = 1 << 20;
        let sbuf = cl.alloc_pages(mem(0, Domain::Host), len).unwrap();
        let rbuf = cl.alloc_pages(mem(1, Domain::Host), len).unwrap();
        let mr_s = ctx_a.reg_mr(ctx, sbuf);
        let mr_r = ctx_b.reg_mr_uncharged(rbuf);
        let cq = ctx_a.create_cq();
        let qp_a = ctx_a.create_qp(&cq, &cq);
        let cq_b = ctx_b.create_cq();
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);

        for id in 0..2 {
            qp_a.post_send(
                ctx,
                SendWr::rdma_write(id, vec![mr_s.sge(0, len)], mr_r.addr(), mr_r.rkey()),
            )
            .unwrap();
        }
        for _ in 0..2 {
            let _ = cq.wait(ctx);
            t2.lock().push(ctx.now().as_nanos());
        }
    });
    r.sim.run_expect();
    let times = times.lock().clone();
    let single = times[0] as f64;
    let both = times[1] as f64;
    assert!(both / single > 1.9, "transfers overlapped: {times:?}");
}

#[test]
fn phi_sourced_verbs_transfer_is_slow() {
    // Same check as the fabric-level test but through the full verbs stack,
    // with buffers in Phi memory (what DCFA-MPI without offload does).
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    let out: Arc<SimCell<(u64, u64)>> = Arc::new(SimCell::new((0, 0)));
    let out2 = out.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let len = 1 << 20;
        let mut elapsed = [0u64; 2];
        for (i, dom) in [Domain::Phi, Domain::Host].iter().enumerate() {
            let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), *dom);
            let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), *dom);
            let sbuf = cl.alloc_pages(mem(0, *dom), len).unwrap();
            let rbuf = cl.alloc_pages(mem(1, *dom), len).unwrap();
            let mr_s = ctx_a.reg_mr_uncharged(sbuf);
            let mr_r = ctx_b.reg_mr_uncharged(rbuf);
            let cq = ctx_a.create_cq();
            let qp_a = ctx_a.create_qp(&cq, &cq);
            let cq_b = ctx_b.create_cq();
            let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
            verbs::QueuePair::connect_pair(&qp_a, &qp_b);
            let t0 = ctx.now();
            qp_a.post_send(
                ctx,
                SendWr::rdma_write(1, vec![mr_s.sge(0, len)], mr_r.addr(), mr_r.rkey()),
            )
            .unwrap();
            let _ = cq.wait(ctx);
            elapsed[i] = (ctx.now() - t0).as_nanos();
        }
        *out2.lock() = (elapsed[0], elapsed[1]);
    });
    r.sim.run_expect();
    let (phi_t, host_t) = *out.lock();
    assert!(
        phi_t as f64 / host_t as f64 > 4.0,
        "phi={phi_t} host={host_t}"
    );
}

#[test]
fn time_zero_never_regresses() {
    // Regression guard: posting at t=0 must produce start >= 0 and strictly
    // positive completion times.
    let mut r = rig(2);
    let fabric = r.fabric.clone();
    r.sim.spawn("p", move |ctx| {
        let cl = fabric.cluster().clone();
        let ctx_a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Host);
        let ctx_b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let sbuf = cl.alloc_pages(mem(0, Domain::Host), 64).unwrap();
        let rbuf = cl.alloc_pages(mem(1, Domain::Host), 64).unwrap();
        let mr_s = ctx_a.reg_mr_uncharged(sbuf);
        let mr_r = ctx_b.reg_mr_uncharged(rbuf);
        let cq = ctx_a.create_cq();
        let qp_a = ctx_a.create_qp(&cq, &cq);
        let cq_b = ctx_b.create_cq();
        let qp_b = ctx_b.create_qp(&cq_b, &cq_b);
        verbs::QueuePair::connect_pair(&qp_a, &qp_b);
        qp_a.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr_s.sge(0, 64)], mr_r.addr(), mr_r.rkey()),
        )
        .unwrap();
        let _ = cq.wait(ctx);
        assert!(ctx.now() > SimTime::ZERO);
    });
    r.sim.run_expect();
}

#[test]
fn srq_pools_receives_across_qps_and_holds_backlog() {
    // Two senders feed one receiver through QPs attached to a single
    // shared receive queue. Pool entries are consumed in post order
    // regardless of which QP a Send arrives on; completions surface on
    // the arrival QP's recv CQ with the sender's (node, qpn); and a Send
    // arriving while the pool is dry is held RNR-style, delivered by the
    // next post_recv.
    let mut r = rig(3);
    let fabric = r.fabric.clone();
    type GotCell = Arc<SimCell<Vec<(u64, Vec<u8>, Option<(NodeId, verbs::QpNum)>)>>>;
    let got: GotCell = Arc::new(SimCell::new(Vec::new()));

    let f1 = fabric.clone();
    let got2 = got.clone();
    r.sim.spawn("receiver", move |ctx| {
        let cl = f1.cluster().clone();
        let vctx = VerbsContext::open(f1.clone(), NodeId(2), Domain::Host);
        let buf = cl.alloc_pages(mem(2, Domain::Host), 4 * 1024).unwrap();
        let mr = vctx.reg_mr(ctx, buf);
        let cq = vctx.create_cq();
        let srq = vctx.create_srq();
        let qp_a = vctx.create_qp_with_srq(&cq, &cq, &srq); // from node 0
        let qp_b = vctx.create_qp_with_srq(&cq, &cq, &srq); // from node 1
        qp_a.connect(NodeId(0), verbs::QpNum(3));
        qp_b.connect(NodeId(1), verbs::QpNum(4));
        // Two pool slots up front; the third message must be held until
        // the late post below.
        srq.post_recv(ctx, RecvWr::new(0, vec![mr.sge(0, 1024)]))
            .unwrap();
        srq.post_recv(ctx, RecvWr::new(1, vec![mr.sge(1024, 1024)]))
            .unwrap();
        for n in 0..3u64 {
            if n == 2 {
                // Pool ran dry; the third Send is backlogged. Posting
                // delivers it immediately.
                ctx.sleep(simcore::SimDuration::from_millis(1));
                srq.post_recv(ctx, RecvWr::new(2, vec![mr.sge(2048, 1024)]))
                    .unwrap();
            }
            let wc = cq.wait(ctx);
            assert_eq!(wc.status, WcStatus::Success);
            assert_eq!(wc.opcode, WcOpcode::Recv);
            let mut out = vec![0u8; wc.byte_len as usize];
            cl.read(mr.buffer(), wc.wr_id * 1024, &mut out);
            got2.lock().push((wc.wr_id, out, wc.src));
        }
    });

    for (node, delay_us) in [(0usize, 10u64), (1, 20)] {
        let f = fabric.clone();
        r.sim.spawn(format!("sender{node}"), move |ctx| {
            let cl = f.cluster().clone();
            let vctx = VerbsContext::open(f.clone(), NodeId(node), Domain::Host);
            let buf = cl.alloc_pages(mem(node, Domain::Host), 1024).unwrap();
            cl.write(&buf, 0, &vec![node as u8 + 1; 1024]);
            let mr = vctx.reg_mr(ctx, buf);
            let cq = vctx.create_cq();
            let qp = vctx.create_qp(&cq, &cq);
            qp.connect(NodeId(2), verbs::QpNum(node as u32 + 1));
            ctx.sleep(simcore::SimDuration::from_micros(delay_us));
            qp.post_send(ctx, SendWr::send(0, vec![mr.sge(0, 1024)]))
                .unwrap();
            if node == 0 {
                // Sender 0 also supplies the backlogged third message.
                ctx.sleep(simcore::SimDuration::from_micros(50));
                qp.post_send(ctx, SendWr::send(1, vec![mr.sge(0, 1024)]))
                    .unwrap();
            }
            let _ = cq.wait(ctx);
        });
    }
    r.sim.run_expect();
    let got = got.lock();
    assert_eq!(got.len(), 3);
    // Pool slots consumed in post order: 0 then 1 then the late 2.
    assert_eq!(
        got.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // First arrival is sender 0 (earlier delay) on qp_a, second sender 1
    // on qp_b, third the backlogged one from sender 0.
    assert_eq!(got[0].2.map(|(n, _)| n), Some(NodeId(0)));
    assert_eq!(got[0].1, vec![1u8; 1024]);
    assert_eq!(got[1].2.map(|(n, _)| n), Some(NodeId(1)));
    assert_eq!(got[1].1, vec![2u8; 1024]);
    assert_eq!(got[2].2.map(|(n, _)| n), Some(NodeId(0)));
    assert_eq!(got[2].1, vec![1u8; 1024]);
}
