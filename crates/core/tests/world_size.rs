//! What a rank holds on the heap must not depend on the world's size.
//!
//! A rank keeps state for the peers it touches, not for every rank of
//! the world (DESIGN.md §15): a table with a slot per rank of the world
//! costs each rank bytes in proportion to the world, and the world bytes
//! in its square. This test runs the 4-neighbour halo loop of
//! `loops/mod.rs` through its warm-up at 16 and at 256 ranks, and reads
//! the heap bytes held — allocated and not yet freed — at the end of the
//! warm-up, when every rank has touched its four neighbours and holds
//! everything it will hold. Held bytes per rank may differ between the two
//! worlds only by [`SLACK_BYTES`]. A peer TTL is set, so the world's
//! health board and every rank's heartbeat are in it too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcfa_mpi::MpiConfig;
use simcore::SimDuration;

mod loops;
use loops::{halo, Loop, PerOp};

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread: a world runs
    /// wholly on the thread that calls `Simulation::run`, its ranks
    /// included.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

fn held() -> i64 {
    HELD.get()
}

// SAFETY: forwards every call to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        HELD.set(HELD.get() + l.size() as i64);
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        HELD.set(HELD.get() + l.size() as i64);
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        HELD.set(HELD.get() + new_size as i64 - l.size() as i64);
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        HELD.set(HELD.get() - l.size() as i64);
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The worlds compared.
const SMALL: usize = 16;
const LARGE: usize = 256;

/// How many more bytes a rank of the large world may hold than one of the
/// small world: what the world's shared tables leave when their growth
/// is spread over its ranks (a vector or a map doubles its capacity, and
/// a world of 256 ranks may sit nearer the top of a doubling than one of
/// 16). A table with a byte per rank of the world adds 240.
const SLACK_BYTES: i64 = 64;

/// Heap bytes held per rank at the end of `spec`'s warm-up.
fn held_per_rank(spec: &Loop) -> i64 {
    let before = held();
    let counted = loops::run(&spec.setup_only(), |_| held());
    (counted.start - before) / spec.ranks as i64
}

/// Held bytes per rank in the small and the large world.
fn both(per_op: PerOp) -> (i64, i64) {
    let cfg = MpiConfig {
        peer_ttl: Some(SimDuration::from_micros(50)),
        ..halo().cfg
    };
    let at = |ranks| {
        held_per_rank(&Loop {
            ranks,
            cfg: cfg.clone(),
            per_op,
            ..halo()
        })
    };
    (at(SMALL), at(LARGE))
}

/// `Err` naming both numbers when the large world's ranks hold more.
fn check((small, large): (i64, i64)) -> Result<(), String> {
    println!("heap held per rank after the halo warm-up: {small} B at {SMALL} ranks, {large} B at {LARGE}");
    if large > small + SLACK_BYTES {
        return Err(format!(
            "a rank holds {large} B on the heap in a {LARGE}-rank world and {small} B in a \
             {SMALL}-rank one: {} B more, over the slack of {SLACK_BYTES}",
            large - small
        ));
    }
    Ok(())
}

#[test]
fn heap_held_per_rank_does_not_grow_with_the_world() {
    check(both(PerOp::Nothing)).unwrap_or_else(|e| panic!("{e}"));
}

/// Negative control: the gate is live. A byte per rank of the world,
/// held by every rank, trips it.
#[test]
fn a_table_sized_by_the_world_trips_the_gate() {
    let err = check(both(PerOp::WorldTable)).expect_err("a world-sized table went unseen");
    assert!(err.contains("over the slack"), "{err}");
}
