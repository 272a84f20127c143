//! What one tiny world costs the host, whole: build, run and drop.
//!
//! A generator of random MPI programs checked against a reference model
//! (ROADMAP item 1) is only worth building if a small world is cheap, so
//! this test builds, runs and drops the smallest world such a program
//! would get — 2 nodes, one DCFA rank on each card, 5 eager messages
//! ping-ponged between them, each a send and a receive: 10 operations —
//! many times over. It pins the scheduler events and heap allocations of
//! one world exactly (both are deterministic, so a change to what set-up
//! builds shows here as a count, not as noise) and prints the median wall
//! time of each phase, which is host-dependent and therefore only
//! reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};

struct Counting;

thread_local! {
    /// Allocations made on this thread: a world runs wholly on the thread
    /// that calls `Simulation::run`, its ranks included.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Messages ping-ponged; each is two operations.
const MESSAGES: usize = 5;
/// Worlds timed after the first, which warms the thread's caches.
const WORLDS: usize = 500;
/// Scheduler events one world processes, launch and finalize included.
const EVENTS: u64 = 109;
/// Heap allocations one world makes from build to drop. Seven of them are
/// each card's for its inbound ring, held off-page: the arena's off-page
/// slots, their address order, its off-page index, the ring's run list, the
/// side-buffer table, one side buffer and the list of free ones. Two are
/// each rank's table of the peers it touched: its rank order and its
/// entries (the two tables with an entry per rank of the world and the
/// sweep's list of established peers took three). One is the
/// simulation's home, which its cells answer to and which is never freed.
const ALLOCATIONS: u64 = 198;

/// One world's counts and the wall time of its three phases.
struct World {
    events: u64,
    allocs: u64,
    build: Duration,
    run: Duration,
    drop: Duration,
}

fn world() -> World {
    let allocs = ALLOCS.get();
    let t0 = Instant::now();
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        LaunchOpts::default(),
        |ctx, comm| {
            let buf = comm.alloc(8).expect("8 bytes fit");
            let me = comm.rank();
            let peer = 1 - me;
            for i in 0..MESSAGES {
                if i % 2 == me {
                    comm.send(ctx, &buf, peer, 0).expect("send");
                } else {
                    comm.recv(ctx, &buf, Src::Rank(peer), TagSel::Tag(0))
                        .expect("recv");
                }
            }
        },
    );
    let t1 = Instant::now();
    let events = sim.run_expect().events_processed;
    let t2 = Instant::now();
    drop((sim, ib, scif));
    let t3 = Instant::now();
    World {
        events,
        allocs: ALLOCS.get() - allocs,
        build: t1 - t0,
        run: t2 - t1,
        drop: t3 - t2,
    }
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

#[test]
fn a_tiny_world_costs_pinned_events_and_allocations() {
    world();
    let worlds: Vec<World> = (0..WORLDS).map(|_| world()).collect();
    let first = &worlds[0];
    for (i, w) in worlds.iter().enumerate() {
        assert_eq!(
            (w.events, w.allocs),
            (first.events, first.allocs),
            "world {i} differs from the first timed one"
        );
    }
    let of = |f: fn(&World) -> Duration| median(worlds.iter().map(f).collect());
    println!(
        "tiny world ({} events, {} allocations): median {:?} = build {:?} + run {:?} + drop {:?} over {WORLDS} worlds",
        first.events,
        first.allocs,
        of(|w| w.build + w.run + w.drop),
        of(|w| w.build),
        of(|w| w.run),
        of(|w| w.drop),
    );
    assert_eq!(first.events, EVENTS, "scheduler events of one tiny world");
    assert_eq!(
        first.allocs, ALLOCATIONS,
        "heap allocations of one tiny world"
    );
}
