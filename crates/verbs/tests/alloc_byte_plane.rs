//! Allocation gate for the byte plane: a 64 KiB RDMA READ and a 64 KiB
//! `pci_dma` each leave a mirror, so neither may allocate anything
//! payload-sized — only the small boxed completion event — and the mirror
//! index must not allocate in steady state. A counting global allocator
//! sums the bytes the test's own thread requests (the whole simulation
//! runs on it) over 1,000 rounds of an RDMA READ from a remote host buffer
//! into a Phi buffer plus an offload sync of that Phi buffer into its host
//! twin, as an offloaded rendezvous makes them, with an 8-byte stamp into
//! the remote source in between: both mirrors' destinations hold the
//! stamp's displaced bytes without a page, and each mirror splits around
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fabric::{Buffer, Cluster, ClusterConfig, Domain, MemRef, NodeId};
use simcore::{SimCell, Simulation};
use verbs::{IbFabric, QueuePair, SendWr, VerbsContext, WcStatus};

struct Counting;

thread_local! {
    /// Bytes requested on this thread. Per thread because the two tests
    /// below run concurrently, each with its simulation on its own thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    BYTES.set(BYTES.get() + bytes as u64);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const LEN: u64 = 64 << 10;
const WARMUP_ROUNDS: u64 = 16;
const ROUNDS: u64 = 1000;
/// The gate: heap bytes per transfer (two transfers a round).
const LIMIT: u64 = 1 << 10;
const STAMP: [u8; 8] = [0xA5; 8];

/// Heap bytes per transfer over `ROUNDS` rounds of RDMA READ (remote host
/// into local Phi) + `pci_dma` (Phi to host twin), each waited for, an
/// 8-byte stamp into the middle of the remote buffer, then `extra` on the
/// twin.
fn bytes_per_transfer(extra: fn(&Cluster, &Buffer)) -> u64 {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let fabric = IbFabric::new(cluster.clone());
    let measured = Arc::new(SimCell::new(None));
    let measured2 = measured.clone();
    sim.spawn("p", move |ctx| {
        let mem = |node, domain| MemRef {
            node: NodeId(node),
            domain,
        };
        let local = VerbsContext::open(fabric.clone(), NodeId(0), Domain::Phi);
        let remote = VerbsContext::open(fabric.clone(), NodeId(1), Domain::Host);
        let phi = cluster.alloc_pages(mem(0, Domain::Phi), LEN).unwrap();
        let twin = cluster.alloc_pages(mem(0, Domain::Host), LEN).unwrap();
        let far = cluster.alloc_pages(mem(1, Domain::Host), LEN).unwrap();
        cluster.write(&far, 0, &vec![0x5A; LEN as usize]);
        let mr_phi = local.reg_mr_uncharged(phi.clone());
        let mr_far = remote.reg_mr_uncharged(far.clone());
        let (cq, cq_far) = (local.create_cq(), remote.create_cq());
        let qp = local.create_qp(&cq, &cq);
        let qp_far = remote.create_qp(&cq_far, &cq_far);
        QueuePair::connect_pair(&qp, &qp_far);

        let round = |ctx: &mut simcore::Ctx| {
            let read = SendWr::rdma_read(1, mr_phi.sge(0, LEN), mr_far.addr(), mr_far.rkey());
            qp.post_send(ctx, read).unwrap();
            assert_eq!(cq.wait(ctx).status, WcStatus::Success);
            let sync = cluster.pci_dma(&phi, &twin, ctx.now());
            ctx.wait(&sync.completion);
            cluster.write(&far, LEN / 2, &STAMP);
            extra(&cluster, &twin);
        };
        for _ in 0..WARMUP_ROUNDS {
            round(ctx);
        }
        let before = BYTES.get();
        assert!(before > 0, "the counting allocator is not installed");
        for _ in 0..ROUNDS {
            round(ctx);
        }
        let used = BYTES.get() - before;
        // Both hops landed as mirrors of the remote buffer: each local
        // buffer reads as it and holds no page, not even for the bytes the
        // stamps displaced.
        let mut stamped = vec![0x5A; LEN as usize];
        stamped[LEN as usize / 2..][..STAMP.len()].copy_from_slice(&STAMP);
        assert_eq!(cluster.read_vec(&far), stamped);
        for local in [&phi, &twin] {
            assert_eq!(cluster.read_vec(local), stamped);
            let resident = cluster.mem_resident(local.mem);
            assert_eq!(resident, 0, "{}: a hop or a stamp was copied", local.mem);
        }
        *measured2.lock() = Some(used / (2 * ROUNDS));
    });
    sim.run_expect();
    let per_transfer = measured.lock().take().expect("the process ran to the end");
    per_transfer
}

#[test]
fn transfers_allocate_no_payload_sized_block() {
    let per_transfer = bytes_per_transfer(|_, _| {});
    assert!(
        per_transfer < LIMIT,
        "a 64 KiB transfer allocated {per_transfer} heap bytes (limit {LIMIT}): \
         a staging buffer is back on the data path"
    );
}

#[test]
fn a_staging_read_in_the_loop_trips_the_gate() {
    // Negative control: one `read_vec` per round is exactly the staging
    // buffer the byte plane deleted, and the same measurement catches it.
    let per_transfer = bytes_per_transfer(|cluster, buf| {
        std::hint::black_box(cluster.read_vec(buf));
    });
    assert!(
        per_transfer >= LEN / 2,
        "a 64 KiB staging read per round went unseen: {per_transfer} bytes per transfer"
    );
}
