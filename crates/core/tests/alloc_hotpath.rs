//! Allocation regression test for the zero-allocation hot path.
//!
//! A counting global allocator attributes every heap allocation made
//! while `dcfa_mpi::hotpath::armed()` is true — i.e. by a simulated
//! rank inside `isend`/`irecv`/`test`/`wait`/`progress`, and
//! not paused for a device-model excursion — to the MPI library's hot
//! path. After a warmup phase (which is allowed to allocate: slab
//! slots, ring scratch, metric keys and scheduler heaps all grow to
//! steady-state capacity once), a long eager ping-pong must perform
//! **zero** hot-path allocations. This turns the tentpole's central
//! claim into an enforced invariant rather than an assertion in prose.
//!
//! A rendezvous that misses the MR cache cannot be allocation-free — it
//! registers through the delegation daemon, and every command frame,
//! reply frame and daemon step is a boxed scheduler event — but what it
//! allocates is counted and held under a ceiling the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use simcore::SimCell;

struct HotCounting;

/// Armed allocations, one counter per test: the tests run concurrently,
/// each with its whole simulation on its own test thread, and none may
/// land an allocation in another's measured window.
static HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static CHURN_ALLOCS: AtomicU64 = AtomicU64::new(0);
static CONTROL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The counter of the test whose thread this is, set for its whole run.
    static COUNTER: Cell<&'static AtomicU64> = const { Cell::new(&HOT_ALLOCS) };
}

fn count_if_armed() {
    if dcfa_mpi::hotpath::armed() {
        COUNTER.get().fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for HotCounting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: HotCounting = HotCounting;

/// Rounds allowed to allocate (fills slabs, scratch buffers, metric
/// keys and event-queue capacity).
const WARMUP_ROUNDS: usize = 64;
/// Measured rounds: two eager ops each (one send + one recv per rank).
const MEASURED_ROUNDS: usize = 1000;
/// Well under the eager threshold so every op takes the eager path.
const MSG: u64 = 256;

#[test]
fn steady_state_eager_ops_do_not_allocate() {
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let measured = Arc::new(SimCell::new(None::<u64>));
    let measured2 = measured.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let buf = comm.alloc(MSG).unwrap();
            let me = comm.rank();
            let peer = 1 - me;
            let round = |ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm| {
                if me == 0 {
                    comm.send(ctx, &buf, peer, 7).unwrap();
                    comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(7))
                        .unwrap();
                } else {
                    comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(7))
                        .unwrap();
                    comm.send(ctx, &buf, peer, 7).unwrap();
                }
            };
            for _ in 0..WARMUP_ROUNDS {
                round(ctx, comm);
            }
            let before = HOT_ALLOCS.load(Ordering::Relaxed);
            // The harness must be live: warmup itself allocates (slabs
            // and scratch growing to steady-state capacity), so a zero
            // here would mean arming is broken, not that the code is
            // allocation-free.
            if me == 0 {
                assert!(
                    before > 0,
                    "counting allocator never saw an armed allocation; \
                     hot-path instrumentation is not wired up"
                );
            }
            for _ in 0..MEASURED_ROUNDS {
                round(ctx, comm);
            }
            let after = HOT_ALLOCS.load(Ordering::Relaxed);
            if me == 0 {
                *measured2.lock() = Some(after - before);
            }
        },
    );
    sim.run_expect();
    let hot = measured
        .lock()
        .take()
        .expect("rank 0 recorded a measurement");
    assert_eq!(
        hot, 0,
        "steady-state eager ping-pong performed {hot} hot-path heap \
         allocations over {MEASURED_ROUNDS} rounds (expected zero)"
    );
}

/// Distinct 64 KiB buffers the registration round cycles through: more
/// than the 64 entries of the MR and offload caches, so every message
/// registers (and evicts) on both sides.
const CHURN_BUFS: usize = 96;
/// Armed allocations the two ranks may make per round of the registration
/// loop — a message each way, so two sends (a twin registered and one
/// evicted each) and two receives (an MR registered and one evicted
/// each): eight daemon commands. Measured: 12.03, since a completion keeps
/// its first waiter inline instead of in a list (two DMA completions a
/// round); 14.03 since a command's client sleeps no more around its reply
/// wait, its daemon serves it in one step and a park no longer gives its
/// waiter list's capacity away; 22.03 before that. With a handler process
/// per connection, `Vec` frames and a boxed wake per watchdog: 50.00.
const CHURN_CEILING_PER_ROUND: f64 = 13.0;

#[test]
fn steady_state_rendezvous_with_registration_stays_under_its_ceiling() {
    const LEN: u64 = 64 << 10;
    const ROUNDS: usize = 2 * CHURN_BUFS;
    COUNTER.set(&CHURN_ALLOCS);
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let measured = Arc::new(SimCell::new(None::<u64>));
    let measured2 = measured.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let bufs: Vec<_> = (0..CHURN_BUFS).map(|_| comm.alloc(LEN).unwrap()).collect();
            let (me, peer) = (comm.rank(), 1 - comm.rank());
            let round = |ctx: &mut simcore::Ctx, comm: &mut dcfa_mpi::Comm, i: usize| {
                let buf = &bufs[i % CHURN_BUFS];
                for half in 0..2 {
                    if (half == 0) == (me == 0) {
                        comm.send(ctx, buf, peer, 7).unwrap();
                    } else {
                        comm.recv(ctx, buf, Src::Rank(peer), TagSel::Tag(7))
                            .unwrap();
                    }
                }
            };
            // Warm up past the first evictions of both caches.
            (0..ROUNDS).for_each(|i| round(ctx, comm, i));
            let before = CHURN_ALLOCS.load(Ordering::Relaxed);
            (ROUNDS..2 * ROUNDS).for_each(|i| round(ctx, comm, i));
            let after = CHURN_ALLOCS.load(Ordering::Relaxed);
            if me == 0 {
                let report = comm.dump();
                assert_eq!(report.mr_cache.hits, 0, "every message registers");
                *measured2.lock() = Some(after - before);
            }
        },
    );
    sim.run_expect();
    let hot = measured.lock().take().expect("rank 0 measured");
    let per_round = hot as f64 / ROUNDS as f64;
    println!("{per_round:.2} hot-path allocations per registration round");
    assert!(
        per_round <= CHURN_CEILING_PER_ROUND,
        "a rendezvous round with registration makes {per_round:.2} hot-path heap \
         allocations, over its ceiling of {CHURN_CEILING_PER_ROUND}"
    );
}

/// Negative control for the test above: arming is per simulated process.
/// Every rank shares one OS thread, so a rank parked inside a `pause()`
/// must not disarm the rank that runs next, and an allocation made in an
/// armed section right after resuming from a park must be counted. Fails
/// if the counters are shared between processes (the paused rank would
/// hide the allocation) and fails if attribution is off altogether.
#[test]
fn armed_allocation_after_a_park_is_counted_while_a_peer_sits_paused() {
    use dcfa_mpi::hotpath;
    use simcore::SimDuration;

    COUNTER.set(&CONTROL_ALLOCS);
    let mut sim = simcore::Simulation::new();
    sim.spawn("allocates", |ctx| {
        // Parks: "paused" starts at this instant and is queued first.
        ctx.sleep(SimDuration::from_nanos(10));
        let section = hotpath::enter();
        assert!(
            hotpath::armed(),
            "the parked peer's pause leaked into this process"
        );
        let before = CONTROL_ALLOCS.load(Ordering::Relaxed);
        let block = std::hint::black_box(Box::new([0u8; 64]));
        let counted = CONTROL_ALLOCS.load(Ordering::Relaxed) - before;
        drop(block);
        drop(section);
        assert_eq!(
            counted, 1,
            "an armed allocation after a park went uncounted"
        );
        assert!(!hotpath::armed());
    });
    sim.spawn("paused", |ctx| {
        let _section = hotpath::enter();
        let _pause = hotpath::pause();
        // Parks inside the pause until after "allocates" has run.
        ctx.sleep(SimDuration::from_nanos(100));
        assert!(!hotpath::armed(), "this process is still paused");
        let before = CONTROL_ALLOCS.load(Ordering::Relaxed);
        drop(std::hint::black_box(Box::new([0u8; 64])));
        assert_eq!(CONTROL_ALLOCS.load(Ordering::Relaxed), before);
    });
    sim.run_expect();
    assert!(
        !hotpath::armed(),
        "a process's section leaked out of the run"
    );
}
