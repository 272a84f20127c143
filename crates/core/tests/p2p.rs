//! Point-to-point protocol tests: eager, all three rendezvous flavours,
//! sequence ids, ANY_SOURCE locking, mis-predictions, ordering, and the
//! offloading send buffer — on both Phi (DCFA-MPI) and Host (YAMPII)
//! placements.

use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, MpiError, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, SimDuration, Simulation};
use verbs::IbFabric;

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
    Rig { sim, ib, scif }
}

thread_local! {
    /// Receive mode of the case running on this test thread: `None` for
    /// per-pair rings, `Some(depth)` for the shared receive pool.
    static SRQ_DEPTH: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// Every case below is one body run on both receive modes: `cases!`
/// turns `fn case()` into the tests `case::rings` and `case::pool`, and
/// `run_mpi` launches with the mode of the test it is called from.
macro_rules! cases {
    ($($case:ident),* $(,)?) => {$(
        mod $case {
            #[test]
            fn rings() {
                super::$case()
            }
            #[test]
            fn pool() {
                super::SRQ_DEPTH.set(Some(256));
                super::$case()
            }
        }
    )*};
}

fn run_mpi<F>(cfg: MpiConfig, nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut r = rig(nprocs.max(2));
    let cfg = MpiConfig {
        srq_depth: SRQ_DEPTH.get(),
        ..cfg
    };
    launch(
        &r.sim,
        &r.ib,
        &r.scif,
        cfg,
        nprocs,
        LaunchOpts::default(),
        f,
    );
    r.sim.run_expect();
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Send sizes crossing the eager, offload and rendezvous regimes.
fn roundtrip_size(cfg: MpiConfig, len: u64) {
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    run_mpi(cfg, 2, move |ctx, comm| {
        let buf = comm.alloc(len).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &pattern(len as usize, 3));
            comm.send(ctx, &buf, 1, 42).unwrap();
        } else {
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(42)).unwrap();
            assert_eq!(st.len, len);
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 42);
            assert_eq!(comm.read_vec(&buf), pattern(len as usize, 3));
            *ok2.lock() = true;
        }
    });
    assert!(*ok.lock());
}

fn eager_roundtrip_phi() {
    roundtrip_size(MpiConfig::dcfa(), 4);
    roundtrip_size(MpiConfig::dcfa(), 1024);
    roundtrip_size(MpiConfig::dcfa(), 16 << 10); // exactly at threshold
}

fn rndv_roundtrip_phi() {
    roundtrip_size(MpiConfig::dcfa(), (16 << 10) + 1);
    roundtrip_size(MpiConfig::dcfa(), 1 << 20);
}

fn rndv_roundtrip_phi_no_offload() {
    roundtrip_size(MpiConfig::dcfa_no_offload(), 1 << 20);
}

fn roundtrips_host_placement() {
    roundtrip_size(MpiConfig::host(), 4);
    roundtrip_size(MpiConfig::host(), 1 << 20);
}

fn receiver_first_rendezvous() {
    // Receiver posts early (RTR path): sender arrives late, RDMA-writes.
    let done = Arc::new(SimCell::new(false));
    let d2 = done.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let len = 256 << 10;
        let buf = comm.alloc(len).unwrap();
        if comm.rank() == 0 {
            // Late sender.
            ctx.sleep(SimDuration::from_millis(2));
            comm.write(&buf, 0, &pattern(len as usize, 9));
            comm.send(ctx, &buf, 1, 5).unwrap();
        } else {
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(5)).unwrap();
            assert_eq!(st.len, len);
            assert_eq!(comm.read_vec(&buf), pattern(len as usize, 9));
            *d2.lock() = true;
        }
    });
    assert!(*done.lock());
}

fn sender_first_rendezvous() {
    // Sender posts early (RTS sits unexpected), receiver arrives late and
    // RDMA-reads.
    let done = Arc::new(SimCell::new(false));
    let d2 = done.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let len = 256 << 10;
        let buf = comm.alloc(len).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &pattern(len as usize, 11));
            comm.send(ctx, &buf, 1, 5).unwrap();
        } else {
            ctx.sleep(SimDuration::from_millis(2));
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(5)).unwrap();
            assert_eq!(st.len, len);
            assert_eq!(comm.read_vec(&buf), pattern(len as usize, 11));
            *d2.lock() = true;
        }
    });
    assert!(*done.lock());
}

fn simultaneous_rendezvous() {
    // Both sides send large messages to each other at the same instant via
    // non-blocking ops; both RTS and RTR cross on the wire.
    let done = Arc::new(SimCell::new(0u32));
    let d2 = done.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let len = 512 << 10;
        let sbuf = comm.alloc(len).unwrap();
        let rbuf = comm.alloc(len).unwrap();
        let me = comm.rank();
        let peer = 1 - me;
        comm.write(&sbuf, 0, &pattern(len as usize, me as u8));
        let rr = comm
            .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(1))
            .unwrap();
        let sr = comm.isend(ctx, &sbuf, peer, 1).unwrap();
        comm.wait(ctx, sr).unwrap();
        let st = comm.wait(ctx, rr).unwrap();
        assert_eq!(st.len, len);
        assert_eq!(comm.read_vec(&rbuf), pattern(len as usize, peer as u8));
        *d2.lock() += 1;
    });
    assert_eq!(*done.lock(), 2);
}

fn message_ordering_same_tag() {
    // MPI guarantees order between a pair for the same tag.
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let n = 20;
        if comm.rank() == 0 {
            for i in 0..n {
                let buf = comm.alloc(64).unwrap();
                comm.write(&buf, 0, &[i as u8; 64]);
                comm.send(ctx, &buf, 1, 9).unwrap();
            }
        } else {
            for _ in 0..n {
                let buf = comm.alloc(64).unwrap();
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(9)).unwrap();
                g2.lock().push(comm.read_vec(&buf)[0]);
            }
        }
    });
    assert_eq!(*got.lock(), (0..20u8).collect::<Vec<_>>());
}

fn tag_selective_matching_eager() {
    // Two eager messages with different tags; receiver takes tag 2 first.
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        if comm.rank() == 0 {
            for tag in [1u32, 2u32] {
                let buf = comm.alloc(8).unwrap();
                comm.write(&buf, 0, &[tag as u8; 8]);
                comm.send(ctx, &buf, 1, tag).unwrap();
            }
        } else {
            // Let both arrive into the unexpected queue.
            ctx.sleep(SimDuration::from_millis(1));
            let buf = comm.alloc(8).unwrap();
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(2)).unwrap();
            g2.lock().push((st.tag, comm.read_vec(&buf)[0]));
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            g2.lock().push((st.tag, comm.read_vec(&buf)[0]));
        }
    });
    assert_eq!(*got.lock(), vec![(2, 2), (1, 1)]);
}

fn any_source_receives() {
    // Rank 2 receives from both peers with ANY_SOURCE.
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(MpiConfig::dcfa(), 3, move |ctx, comm| {
        if comm.rank() < 2 {
            let buf = comm.alloc(32).unwrap();
            comm.write(&buf, 0, &[comm.rank() as u8 + 1; 32]);
            comm.send(ctx, &buf, 2, 4).unwrap();
        } else {
            for _ in 0..2 {
                let buf = comm.alloc(32).unwrap();
                let st = comm.recv(ctx, &buf, Src::Any, TagSel::Tag(4)).unwrap();
                g2.lock().push((st.source, comm.read_vec(&buf)[0]));
            }
        }
    });
    let mut got = got.lock().clone();
    got.sort();
    assert_eq!(got, vec![(0, 1), (1, 2)]);
}

fn any_source_locks_later_receives() {
    // Paper §IV-B3: an unmatched ANY_SOURCE receive blocks sequence
    // assignment; once it matches, the locked receives proceed.
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(MpiConfig::dcfa(), 3, move |ctx, comm| {
        match comm.rank() {
            0 => {
                // Wait, then satisfy the ANY recv.
                ctx.sleep(SimDuration::from_millis(3));
                let buf = comm.alloc(16).unwrap();
                comm.write(&buf, 0, &[0xAA; 16]);
                comm.send(ctx, &buf, 2, 7).unwrap();
            }
            1 => {
                // This arrives while the ANY recv is still unmatched; the
                // specific recv for it is locked behind the ANY.
                ctx.sleep(SimDuration::from_millis(1));
                let buf = comm.alloc(16).unwrap();
                comm.write(&buf, 0, &[0xBB; 16]);
                comm.send(ctx, &buf, 2, 8).unwrap();
            }
            _ => {
                let b1 = comm.alloc(16).unwrap();
                let b2 = comm.alloc(16).unwrap();
                let any = comm.irecv(ctx, &b1, Src::Any, TagSel::Tag(7)).unwrap();
                let specific = comm.irecv(ctx, &b2, Src::Rank(1), TagSel::Tag(8)).unwrap();
                let st1 = comm.wait(ctx, any).unwrap();
                let st2 = comm.wait(ctx, specific).unwrap();
                g2.lock().push((st1.source, comm.read_vec(&b1)[0]));
                g2.lock().push((st2.source, comm.read_vec(&b2)[0]));
            }
        }
    });
    assert_eq!(*got.lock(), vec![(0, 0xAA), (1, 0xBB)]);
}

fn truncation_is_an_error() {
    // Rendezvous message bigger than the receive buffer => MPI error on
    // the receiver (paper's sender-rendezvous / receiver-eager case).
    let saw_error = Arc::new(SimCell::new(false));
    let s2 = saw_error.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        if comm.rank() == 0 {
            let buf = comm.alloc(128 << 10).unwrap();
            comm.send(ctx, &buf, 1, 3).unwrap();
        } else {
            let small = comm.alloc(4 << 10).unwrap();
            let err = comm
                .recv(ctx, &small, Src::Rank(0), TagSel::Tag(3))
                .unwrap_err();
            assert!(matches!(err, MpiError::Truncated { got, capacity }
                if got == 128 << 10 && capacity == 4 << 10));
            *s2.lock() = true;
        }
    });
    assert!(*saw_error.lock());
}

fn eager_mispredict_receiver_expected_rendezvous() {
    // Receiver posts a LARGE buffer (sends RTR); sender sends a SMALL
    // (eager) message. Receiver must complete from the eager packet and
    // the sender must drop the stale RTR.
    let done = Arc::new(SimCell::new(false));
    let d2 = done.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        if comm.rank() == 0 {
            ctx.sleep(SimDuration::from_millis(1)); // let the RTR arrive first
            let buf = comm.alloc(64).unwrap();
            comm.write(&buf, 0, &pattern(64, 5));
            comm.send(ctx, &buf, 1, 6).unwrap();
            // Follow-up message proves the engine isn't wedged by the
            // stale RTR.
            comm.send(ctx, &buf, 1, 7).unwrap();
        } else {
            let big = comm.alloc(256 << 10).unwrap();
            let st = comm.recv(ctx, &big, Src::Rank(0), TagSel::Tag(6)).unwrap();
            assert_eq!(st.len, 64);
            assert_eq!(comm.read_vec(&big)[..64], pattern(64, 5)[..]);
            let buf = comm.alloc(64).unwrap();
            comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(7)).unwrap();
            *d2.lock() = true;
        }
    });
    assert!(*done.lock());
}

fn many_outstanding_isends_flow_control() {
    // More eager messages in flight than ring slots: the credit protocol
    // must keep things moving.
    let count = Arc::new(SimCell::new(0u32));
    let c2 = count.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let n = 300usize; // >> 64 ring slots
        if comm.rank() == 0 {
            let buf = comm.alloc(512).unwrap();
            let mut reqs = Vec::new();
            for i in 0..n {
                comm.write(&buf, 0, &[(i % 251) as u8; 512]);
                reqs.push(comm.isend(ctx, &buf, 1, 1).unwrap());
            }
            comm.waitall(ctx, &reqs).unwrap();
        } else {
            let buf = comm.alloc(512).unwrap();
            for _ in 0..n {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                *c2.lock() += 1;
            }
        }
    });
    assert_eq!(*count.lock(), 300);
}

fn bidirectional_flood_no_deadlock() {
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let n = 150usize;
        let peer = 1 - comm.rank();
        let sbuf = comm.alloc(1024).unwrap();
        let rbuf = comm.alloc(1024).unwrap();
        let mut reqs = Vec::new();
        for _ in 0..n {
            reqs.push(
                comm.irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Any)
                    .unwrap(),
            );
            reqs.push(comm.isend(ctx, &sbuf, peer, 2).unwrap());
        }
        comm.waitall(ctx, &reqs).unwrap();
    });
}

fn sendrecv_exchange() {
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let sbuf = comm.alloc(10 << 10).unwrap();
        let rbuf = comm.alloc(10 << 10).unwrap();
        comm.write(&sbuf, 0, &pattern(10 << 10, me as u8));
        comm.sendrecv(ctx, &sbuf, peer, &rbuf, peer, 77).unwrap();
        assert_eq!(comm.read_vec(&rbuf), pattern(10 << 10, peer as u8));
    });
}

fn deterministic_virtual_times() {
    // The same program must produce bit-identical completion times.
    fn run_once() -> u64 {
        let out = Arc::new(SimCell::new(0u64));
        let o2 = out.clone();
        run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
            let buf = comm.alloc(32 << 10).unwrap();
            if comm.rank() == 0 {
                comm.send(ctx, &buf, 1, 1).unwrap();
            } else {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                *o2.lock() = ctx.now().as_nanos();
            }
        });
        let v = *out.lock();
        v
    }
    assert_eq!(run_once(), run_once());
}

fn eight_rank_ring_pass() {
    // Token passes around an 8-node ring (the paper's cluster size).
    let sum = Arc::new(SimCell::new(0u64));
    let s2 = sum.clone();
    run_mpi(MpiConfig::dcfa(), 8, move |ctx, comm| {
        let me = comm.rank();
        let n = comm.size();
        let buf = comm.alloc(8).unwrap();
        if me == 0 {
            comm.write(&buf, 0, &1u64.to_le_bytes());
            comm.send(ctx, &buf, 1, 0).unwrap();
            comm.recv(ctx, &buf, Src::Rank(n - 1), TagSel::Tag(0))
                .unwrap();
            let v = u64::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
            *s2.lock() = v;
        } else {
            comm.recv(ctx, &buf, Src::Rank(me - 1), TagSel::Tag(0))
                .unwrap();
            let mut v = u64::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
            v += me as u64;
            comm.write(&buf, 0, &v.to_le_bytes());
            comm.send(ctx, &buf, (me + 1) % n, 0).unwrap();
        }
    });
    assert_eq!(*sum.lock(), 1 + (1..8u64).sum::<u64>());
}

fn mr_cache_hits_on_reuse() {
    let stats = Arc::new(SimCell::new((0u64, 0u64)));
    let s2 = stats.clone();
    run_mpi(MpiConfig::dcfa_no_offload(), 2, move |ctx, comm| {
        let buf = comm.alloc(1 << 20).unwrap();
        if comm.rank() == 0 {
            for _ in 0..10 {
                comm.send(ctx, &buf, 1, 1).unwrap();
            }
            *s2.lock() = comm.mr_cache_stats();
        } else {
            for _ in 0..10 {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            }
        }
    });
    let (hits, _misses) = *stats.lock();
    assert!(
        hits >= 9,
        "reused buffer should hit the MR cache: {stats:?}"
    );
}

fn offload_cache_hits_on_reuse() {
    let stats = Arc::new(SimCell::new((0u64, 0u64)));
    let s2 = stats.clone();
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let buf = comm.alloc(1 << 20).unwrap();
        if comm.rank() == 0 {
            for _ in 0..5 {
                comm.send(ctx, &buf, 1, 1).unwrap();
            }
            *s2.lock() = comm.offload_cache_stats();
        } else {
            for _ in 0..5 {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            }
        }
    });
    let (hits, misses) = *stats.lock();
    assert_eq!(misses, 1);
    assert!(hits >= 4);
}

fn self_and_out_of_range_ranks_rejected() {
    run_mpi(MpiConfig::dcfa(), 2, move |ctx, comm| {
        let buf = comm.alloc(8).unwrap();
        assert!(matches!(
            comm.isend(ctx, &buf, comm.rank(), 0),
            Err(MpiError::BadRank(_))
        ));
        assert!(matches!(
            comm.isend(ctx, &buf, 99, 0),
            Err(MpiError::BadRank(99))
        ));
        assert!(matches!(
            comm.irecv(ctx, &buf, Src::Rank(99), TagSel::Any),
            Err(MpiError::BadRank(99))
        ));
    });
}

cases!(
    eager_roundtrip_phi,
    rndv_roundtrip_phi,
    rndv_roundtrip_phi_no_offload,
    roundtrips_host_placement,
    receiver_first_rendezvous,
    sender_first_rendezvous,
    simultaneous_rendezvous,
    message_ordering_same_tag,
    tag_selective_matching_eager,
    any_source_receives,
    any_source_locks_later_receives,
    truncation_is_an_error,
    eager_mispredict_receiver_expected_rendezvous,
    many_outstanding_isends_flow_control,
    bidirectional_flood_no_deadlock,
    sendrecv_exchange,
    deterministic_virtual_times,
    eight_rank_ring_pass,
    mr_cache_hits_on_reuse,
    offload_cache_hits_on_reuse,
    self_and_out_of_range_ranks_rejected,
);
