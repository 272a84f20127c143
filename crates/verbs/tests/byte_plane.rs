//! The verbs byte plane: every payload moves once, straight between the
//! registered buffers. Multi-SGE RDMA lands at the right offsets in SGE
//! order; a Send delivers the same bytes whether it meets a posted
//! receive, an SRQ slot or waits in the RNR backlog; and a receive whose
//! region vanished completes with an error instead of a silent success.

use std::sync::Arc;

use fabric::{Buffer, Cluster, ClusterConfig, Domain, NodeId};
use simcore::{Ctx, SimDuration, Simulation};
use verbs::{
    CompletionQueue, IbFabric, MemoryRegion, QueuePair, RecvWr, SendWr, SharedReceiveQueue,
    VerbsContext, WcOpcode, WcStatus,
};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Two connected endpoints driven by one process: `a` on node 0 (Phi
/// memory), `b` on node 1 (host memory), `b`'s QP optionally drawing its
/// receives from an SRQ.
struct Pair {
    cl: Arc<Cluster>,
    a: VerbsContext,
    b: VerbsContext,
    qp_a: QueuePair,
    qp_b: QueuePair,
    cq_a: CompletionQueue,
    cq_b: CompletionQueue,
    srq: Option<SharedReceiveQueue>,
}

impl Pair {
    fn alloc(&self, vctx: &VerbsContext, len: u64) -> (Buffer, MemoryRegion) {
        let buf = self.cl.alloc_pages(vctx.mem_ref(), len).unwrap();
        (buf.clone(), vctx.reg_mr_uncharged(buf))
    }

    /// Post a receive on `b`, through the SRQ when there is one.
    fn post_recv(&self, ctx: &mut Ctx, wr: RecvWr) {
        match &self.srq {
            Some(srq) => srq.post_recv(ctx, wr).unwrap(),
            None => self.qp_b.post_recv(ctx, wr).unwrap(),
        }
    }
}

fn with_pair(srq: bool, body: impl FnOnce(&mut Ctx, Pair) + Send + 'static) {
    let mut sim = Simulation::new();
    let cl = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let fabric = IbFabric::new(cl.clone());
    sim.spawn("p", move |ctx| {
        let a = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Phi);
        let b = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let (cq_a, cq_b) = (a.create_cq(), b.create_cq());
        let qp_a = a.create_qp(&cq_a, &cq_a);
        let srq = srq.then(|| b.create_srq());
        let qp_b = match &srq {
            Some(srq) => b.create_qp_with_srq(&cq_b, &cq_b, srq),
            None => b.create_qp(&cq_b, &cq_b),
        };
        QueuePair::connect_pair(&qp_a, &qp_b);
        let pair = Pair {
            cl,
            a,
            b,
            qp_a,
            qp_b,
            cq_a,
            cq_b,
            srq,
        };
        body(ctx, pair);
    });
    sim.run_expect();
}

#[test]
fn three_sge_rdma_write_lands_in_sge_order() {
    with_pair(false, |ctx, p| {
        let (src, mr_src) = p.alloc(&p.a, 8192);
        let (dst, mr_dst) = p.alloc(&p.b, 8192);
        let data = pattern(8192, 5);
        p.cl.write(&src, 0, &data);
        // Header, payload, tail — gathered from scattered places, *not* in
        // address order, into one contiguous remote range.
        let sges = [
            mr_src.sge(4000, 64),
            mr_src.sge(100, 3000),
            mr_src.sge(7000, 8),
        ];
        let wr = SendWr::rdma_write(1, sges, mr_dst.addr() + 50, mr_dst.rkey());
        p.qp_a.post_send(ctx, wr).unwrap();
        let wc = p.cq_a.wait(ctx);
        assert_eq!(
            (wc.status, wc.opcode),
            (WcStatus::Success, WcOpcode::RdmaWrite)
        );
        let want = [&data[4000..4064], &data[100..3100], &data[7000..7008]].concat();
        let got = p.cl.read_vec(&dst);
        assert_eq!(got[50..50 + want.len()], want[..]);
        assert_eq!(got[..50], [0u8; 50], "bytes below the target moved");
        assert!(
            got[50 + want.len()..].iter().all(|&b| b == 0),
            "bytes past the tail moved"
        );
    });
}

#[test]
fn three_sge_rdma_read_lands_in_sge_order() {
    with_pair(false, |ctx, p| {
        let (local, mr_local) = p.alloc(&p.a, 8192);
        let (remote, mr_remote) = p.alloc(&p.b, 8192);
        let data = pattern(8192, 9);
        p.cl.write(&remote, 0, &data);
        // The remote range [200, 200+3072) scatters into three local SGEs
        // in SGE order: first 64 bytes to 6000, next 3000 to 0, last 8 to
        // 5000.
        let sges = [
            mr_local.sge(6000, 64),
            mr_local.sge(0, 3000),
            mr_local.sge(5000, 8),
        ];
        let wr = SendWr::rdma_read(2, sges, mr_remote.addr() + 200, mr_remote.rkey());
        p.qp_a.post_send(ctx, wr).unwrap();
        let wc = p.cq_a.wait(ctx);
        assert_eq!(
            (wc.status, wc.opcode),
            (WcStatus::Success, WcOpcode::RdmaRead)
        );
        let got = p.cl.read_vec(&local);
        assert_eq!(got[6000..6064], data[200..264]);
        assert_eq!(got[..3000], data[264..3264]);
        assert_eq!(got[5000..5008], data[3264..3272]);
        assert!(got[3000..5000].iter().all(|&b| b == 0));
        assert!(got[5008..6000].iter().all(|&b| b == 0));
        assert!(got[6064..].iter().all(|&b| b == 0));
        assert_eq!(p.cl.read_vec(&remote), data, "a READ leaves its source");
    });
}

/// How a Send meets its receive.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// A receive is already posted on the QP.
    Posted,
    /// A receive is already posted on the SRQ.
    SrqSlot,
    /// No receive yet: the Send waits in the QP's RNR backlog.
    Backlog,
    /// No receive yet: the Send waits in the SRQ's RNR backlog.
    SrqBacklog,
}

const PATHS: [Path; 4] = [Path::Posted, Path::SrqSlot, Path::Backlog, Path::SrqBacklog];

/// A 3-SGE gather (`send_lens`, from scattered source offsets) sent into a
/// 3-SGE scatter (100, 7 and 400 bytes at scattered offsets) over `path`.
/// Returns the receive completion, the receive region's bytes and the
/// payload that was sent.
fn send_over(path: Path, send_lens: [u64; 3]) -> (verbs::Wc, Vec<u8>, Vec<u8>) {
    let out = Arc::new(simcore::SimCell::new(None));
    let out2 = out.clone();
    let use_srq = matches!(path, Path::SrqSlot | Path::SrqBacklog);
    with_pair(use_srq, move |ctx, p| {
        let (src, mr_src) = p.alloc(&p.a, 4096);
        let (dst, mr_dst) = p.alloc(&p.b, 4096);
        let data = pattern(4096, 11);
        p.cl.write(&src, 0, &data);
        let send = SendWr::send(
            1,
            [
                mr_src.sge(1000, send_lens[0]),
                mr_src.sge(0, send_lens[1]),
                mr_src.sge(2000, send_lens[2]),
            ],
        );
        let want = [
            &data[1000..1000 + send_lens[0] as usize],
            &data[..send_lens[1] as usize],
            &data[2000..2000 + send_lens[2] as usize],
        ]
        .concat();
        let recv = RecvWr::new(
            2,
            vec![
                mr_dst.sge(3000, 100),
                mr_dst.sge(10, 7),
                mr_dst.sge(500, 400),
            ],
        );
        match path {
            Path::Posted | Path::SrqSlot => {
                p.post_recv(ctx, recv);
                p.qp_a.post_send(ctx, send).unwrap();
            }
            Path::Backlog | Path::SrqBacklog => {
                p.qp_a.post_send(ctx, send).unwrap();
                // Long enough that the Send has landed with nothing posted;
                // the held copy must not follow the source from here on.
                ctx.sleep(SimDuration::from_millis(1));
                p.cl.write(&src, 0, &[0xFF; 4096]);
                p.post_recv(ctx, recv);
            }
        }
        let wc = p.cq_b.wait(ctx);
        assert_eq!(wc.opcode, WcOpcode::Recv);
        assert_eq!(wc.src, Some((p.qp_a.node(), p.qp_a.qpn())));
        *out2.lock() = Some((wc, p.cl.read_vec(&dst), want));
    });
    let r = out.lock().take().expect("the process ran to the end");
    r
}

#[test]
fn send_delivers_identical_bytes_on_every_path() {
    // 5 + 300 + 8 = 313 bytes: SGE boundaries of the two lists never line
    // up, and the last receive SGE is only partly filled.
    for path in PATHS {
        let (wc, got, want) = send_over(path, [5, 300, 8]);
        assert_eq!(wc.status, WcStatus::Success, "{path:?}");
        assert_eq!(wc.byte_len, 313, "{path:?}");
        assert_eq!(got[3000..3100], want[..100], "{path:?}: first SGE");
        assert_eq!(got[10..17], want[100..107], "{path:?}: second SGE");
        assert_eq!(got[500..706], want[107..], "{path:?}: third SGE");
        let mut rest = got.clone();
        for r in [3000..3100, 10..17, 500..706] {
            rest[r].fill(0);
        }
        assert!(
            rest.iter().all(|&b| b == 0),
            "{path:?}: bytes outside the payload moved"
        );
    }
}

#[test]
fn zero_length_send_completes_every_path() {
    for path in PATHS {
        let (wc, got, _) = send_over(path, [0, 0, 0]);
        assert_eq!((wc.status, wc.byte_len), (WcStatus::Success, 0), "{path:?}");
        assert!(got.iter().all(|&b| b == 0), "{path:?}");
    }
}

#[test]
fn oversized_send_is_a_local_length_error_on_every_path() {
    // 100 + 7 + 400 = 507 bytes of receive; 508 do not fit.
    for path in PATHS {
        let (wc, got, _) = send_over(path, [100, 400, 8]);
        assert_eq!(wc.status, WcStatus::LocalLengthError, "{path:?}");
        assert_eq!(wc.byte_len, 508, "{path:?}");
        assert!(
            got.iter().all(|&b| b == 0),
            "{path:?}: a refused Send wrote"
        );
    }
}

/// A receive scatters into two regions, and one of them is deregistered
/// between the post (which validates keys) and the Send's arrival.
fn deregistered_receive_sge(srq: bool, first_sge_is_bad: bool) {
    with_pair(srq, move |ctx, p| {
        let (src, mr_src) = p.alloc(&p.a, 4096);
        let (keep_buf, keep) = p.alloc(&p.b, 4096);
        let (gone_buf, gone) = p.alloc(&p.b, 4096);
        let data = pattern(4096, 13);
        p.cl.write(&src, 0, &data);
        let sges = if first_sge_is_bad {
            vec![gone.sge(0, 64), keep.sge(0, 64)]
        } else {
            vec![keep.sge(0, 64), gone.sge(0, 64)]
        };
        p.post_recv(ctx, RecvWr::new(7, sges));
        p.b.dereg_mr(&gone);
        p.qp_a
            .post_send(ctx, SendWr::send(1, mr_src.sge(0, 128)))
            .unwrap();
        let wc = p.cq_b.wait(ctx);
        assert_eq!(wc.wr_id, 7);
        assert_eq!(wc.opcode, WcOpcode::Recv);
        assert_eq!(
            wc.status,
            WcStatus::LocalProtectionError,
            "data loss must not complete as success"
        );
        assert!(!wc.status.is_transient());
        // Nothing lands at or past the bad SGE; what came before it did.
        assert_eq!(p.cl.read_vec(&gone_buf), vec![0u8; 4096]);
        let kept = p.cl.read_vec(&keep_buf);
        if first_sge_is_bad {
            assert_eq!(kept, vec![0u8; 4096]);
        } else {
            assert_eq!(kept[..64], data[..64]);
            assert!(kept[64..].iter().all(|&b| b == 0));
        }
        // The QP is still usable: the next receive completes normally.
        p.post_recv(ctx, RecvWr::new(8, vec![keep.sge(1024, 128)]));
        p.qp_a
            .post_send(ctx, SendWr::send(2, mr_src.sge(128, 128)))
            .unwrap();
        let wc = p.cq_b.wait(ctx);
        assert_eq!((wc.wr_id, wc.status), (8, WcStatus::Success));
        assert_eq!(p.cl.read_vec(&keep_buf)[1024..1152], data[128..256]);
    });
}

#[test]
fn deregistered_receive_sge_fails_the_receive_on_a_qp() {
    deregistered_receive_sge(false, false);
    deregistered_receive_sge(false, true);
}

#[test]
fn deregistered_receive_sge_fails_the_receive_on_an_srq() {
    deregistered_receive_sge(true, false);
    deregistered_receive_sge(true, true);
}
