//! Tests for InfiniBand atomics (fetch-add, compare-and-swap) and the
//! fault-injection plan.

use std::sync::Arc;

use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use simcore::Simulation;
use verbs::{FaultPlan, IbFabric, SendWr, VerbsContext, WcOpcode, WcStatus};

fn setup() -> (Simulation, Arc<IbFabric>) {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    (sim, IbFabric::new(cluster))
}

fn host(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Host,
    }
}

#[test]
fn fetch_add_returns_original_and_updates_remote() {
    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let counter = cl.alloc_pages(host(1), 8).unwrap();
        cl.write(&counter, 0, &100u64.to_le_bytes());
        let mr_counter = b.reg_mr_uncharged(counter.clone());
        let result = cl.alloc_pages(host(0), 8).unwrap();
        let mr_result = a.reg_mr_uncharged(result.clone());
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        for i in 0..3u64 {
            qp.post_send(
                ctx,
                SendWr::fetch_add(
                    i,
                    mr_result.sge(0, 8),
                    mr_counter.addr(),
                    mr_counter.rkey(),
                    5,
                ),
            )
            .unwrap();
            let wc = cq.wait(ctx);
            assert_eq!(wc.status, WcStatus::Success);
            assert_eq!(wc.opcode, WcOpcode::FetchAdd);
            let orig = u64::from_le_bytes(cl.read_vec(&result).try_into().unwrap());
            assert_eq!(orig, 100 + i * 5);
        }
        let final_v = u64::from_le_bytes(cl.read_vec(&counter).try_into().unwrap());
        assert_eq!(final_v, 115);
    });
    sim.run_expect();
}

#[test]
fn compare_swap_succeeds_and_fails_by_value() {
    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let word = cl.alloc_pages(host(1), 8).unwrap();
        cl.write(&word, 0, &7u64.to_le_bytes());
        let mr_word = b.reg_mr_uncharged(word.clone());
        let result = cl.alloc_pages(host(0), 8).unwrap();
        let mr_result = a.reg_mr_uncharged(result.clone());
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        // CAS(7 -> 42): succeeds, returns 7.
        qp.post_send(
            ctx,
            SendWr::compare_swap(
                1,
                mr_result.sge(0, 8),
                mr_word.addr(),
                mr_word.rkey(),
                7,
                42,
            ),
        )
        .unwrap();
        cq.wait(ctx);
        assert_eq!(
            u64::from_le_bytes(cl.read_vec(&result).try_into().unwrap()),
            7
        );
        assert_eq!(
            u64::from_le_bytes(cl.read_vec(&word).try_into().unwrap()),
            42
        );

        // CAS(7 -> 99): fails (word is 42), returns 42, word unchanged.
        qp.post_send(
            ctx,
            SendWr::compare_swap(
                2,
                mr_result.sge(0, 8),
                mr_word.addr(),
                mr_word.rkey(),
                7,
                99,
            ),
        )
        .unwrap();
        cq.wait(ctx);
        assert_eq!(
            u64::from_le_bytes(cl.read_vec(&result).try_into().unwrap()),
            42
        );
        assert_eq!(
            u64::from_le_bytes(cl.read_vec(&word).try_into().unwrap()),
            42
        );
    });
    sim.run_expect();
}

#[test]
fn atomics_pay_round_trip_latency() {
    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    let times = Arc::new(Mutex::new((0u64, 0u64)));
    let t2 = times.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let word = cl.alloc_pages(host(1), 8).unwrap();
        let mr_word = b.reg_mr_uncharged(word);
        let result = cl.alloc_pages(host(0), 8).unwrap();
        let mr_result = a.reg_mr_uncharged(result);
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        let t0 = ctx.now();
        qp.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr_result.sge(0, 8)], mr_word.addr(), mr_word.rkey()),
        )
        .unwrap();
        cq.wait(ctx);
        let write_t = (ctx.now() - t0).as_nanos();

        let t1 = ctx.now();
        qp.post_send(
            ctx,
            SendWr::fetch_add(2, mr_result.sge(0, 8), mr_word.addr(), mr_word.rkey(), 1),
        )
        .unwrap();
        cq.wait(ctx);
        let atomic_t = (ctx.now() - t1).as_nanos();
        *t2.lock() = (write_t, atomic_t);
    });
    sim.run_expect();
    let (write_t, atomic_t) = *times.lock();
    let lat = ClusterConfig::paper().cost.ib_latency.as_nanos();
    assert_eq!(atomic_t - write_t, lat, "atomic pays one extra wire hop");
}

#[test]
fn injected_fault_fails_the_chosen_op_only() {
    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let src = cl.alloc_pages(host(0), 4096).unwrap();
        cl.write(&src, 0, &[1u8; 4096]);
        let dst = cl.alloc_pages(host(1), 4096).unwrap();
        let mr_s = a.reg_mr_uncharged(src);
        let mr_d = b.reg_mr_uncharged(dst.clone());
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        // Fail the SECOND op.
        f.inject_fault_plan(FaultPlan {
            after_matches: 1,
            status: WcStatus::RemoteAccessError,
            ..Default::default()
        });

        for i in 0..3u64 {
            qp.post_send(
                ctx,
                SendWr::rdma_write(i, vec![mr_s.sge(0, 4096)], mr_d.addr(), mr_d.rkey()),
            )
            .unwrap();
        }
        let mut statuses = Vec::new();
        for _ in 0..3 {
            let wc = cq.wait(ctx);
            statuses.push((wc.wr_id, wc.status));
        }
        statuses.sort_by_key(|s| s.0);
        assert_eq!(statuses[0].1, WcStatus::Success);
        assert_eq!(statuses[1].1, WcStatus::RemoteAccessError);
        assert_eq!(statuses[2].1, WcStatus::Success);
        // Data of successful ops arrived.
        assert_eq!(cl.read_vec(&dst), vec![1u8; 4096]);
    });
    sim.run_expect();
}

#[test]
fn faulted_op_moves_no_data() {
    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let src = cl.alloc_pages(host(0), 64).unwrap();
        cl.write(&src, 0, &[9u8; 64]);
        let dst = cl.alloc_pages(host(1), 64).unwrap();
        let mr_s = a.reg_mr_uncharged(src);
        let mr_d = b.reg_mr_uncharged(dst.clone());
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        f.inject_fault_plan(FaultPlan {
            after_matches: 0,
            status: WcStatus::RemoteAccessError,
            ..Default::default()
        });
        qp.post_send(
            ctx,
            SendWr::rdma_write(1, vec![mr_s.sge(0, 64)], mr_d.addr(), mr_d.rkey()),
        )
        .unwrap();
        let wc = cq.wait(ctx);
        assert_eq!(wc.status, WcStatus::RemoteAccessError);
        assert_eq!(cl.read_vec(&dst), vec![0u8; 64], "no bytes may land");
    });
    sim.run_expect();
}

/// `MemoryRegion::writes` counts the remote writes delivered into the
/// region — one per RDMA WRITE, one per atomic that changed its word —
/// whichever handle asks, and nothing else: not a read of it, not a Send
/// scattered into it, not a WR a fault plan failed, not one flushed at a
/// dead QP. It is what lets a poller skip memory nobody has written.
#[test]
fn writes_counts_delivered_remote_writes_and_nothing_else() {
    use verbs::RecvWr;

    let (mut sim, fabric) = setup();
    let f = fabric.clone();
    sim.spawn("p", move |ctx| {
        let cl = f.cluster().clone();
        let a = VerbsContext::open(f.clone(), NodeId(0), Domain::Host);
        let b = VerbsContext::open(f.clone(), NodeId(1), Domain::Host);
        let local = a.reg_mr_uncharged(cl.alloc_pages(host(0), 64).unwrap());
        let target = b.reg_mr_uncharged(cl.alloc_pages(host(1), 64).unwrap());
        // A second handle on the same region, its event swapped the way the
        // engine does for its rings: one counter behind all of them.
        let other = f
            .set_write_event(target.key(), simcore::SimEvent::new())
            .expect("registered above");
        let cq = a.create_cq();
        let qp = a.create_qp(&cq, &cq);
        let cqb = b.create_cq();
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qp, &qpb);

        let (addr, rkey) = (target.addr(), target.rkey());
        let post = |ctx: &mut simcore::Ctx, wr: SendWr, status: WcStatus, counted: u64| {
            qp.post_send(ctx, wr).unwrap();
            assert_eq!(cq.wait(ctx).status, status);
            assert_eq!(target.writes(), counted);
            assert_eq!(other.writes(), counted);
            assert_eq!(f.mr_handle(target.key()).unwrap().writes(), counted);
        };
        let write = || SendWr::rdma_write(0, vec![local.sge(0, 8)], addr, rkey);
        assert_eq!(target.writes(), 0);
        post(ctx, write(), WcStatus::Success, 1);
        post(ctx, write(), WcStatus::Success, 2);
        post(
            ctx,
            SendWr::fetch_add(0, local.sge(0, 8), addr, rkey, 5),
            WcStatus::Success,
            3,
        );
        // The word is now 5: the first swap changes it, the second does not.
        post(
            ctx,
            SendWr::compare_swap(0, local.sge(0, 8), addr, rkey, 5, 9),
            WcStatus::Success,
            4,
        );
        post(
            ctx,
            SendWr::compare_swap(0, local.sge(0, 8), addr, rkey, 5, 1),
            WcStatus::Success,
            4,
        );
        post(
            ctx,
            SendWr::rdma_read(0, vec![local.sge(0, 8)], addr, rkey),
            WcStatus::Success,
            4,
        );
        qpb.post_recv(ctx, RecvWr::new(0, vec![target.sge(0, 8)]))
            .unwrap();
        post(
            ctx,
            SendWr::send(0, vec![local.sge(0, 8)]),
            WcStatus::Success,
            4,
        );
        f.inject_fault_plan(FaultPlan {
            after_matches: 0,
            status: WcStatus::RemoteAccessError,
            ..Default::default()
        });
        post(ctx, write(), WcStatus::RemoteAccessError, 4);
        qpb.set_error();
        post(ctx, write(), WcStatus::WrFlushErr, 4);
        assert_eq!(
            local.writes(),
            0,
            "nothing was written into the initiator's region"
        );
    });
    sim.run_expect();
}
