//! The list of ended processes waiting to be unmapped is one deep. Alone in
//! this file, so in a process of its own, like `stack_reclaim.rs`: the
//! observable is the whole process's memory map.

use simcore::{SimDuration, Simulation};

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("Linux exposes the memory map")
        .lines()
        .count()
}

/// A process that ends runs the event loop from its own stack, so it
/// cannot unmap it; the next context to block or end does. That list is one
/// deep: a parent spawning short-lived children one after another never
/// sees more than the child that just ended and the one it has just made.
#[test]
fn the_reclaim_list_is_one_deep() {
    const CHILDREN: usize = 2_000;
    let mut sim = Simulation::new();
    sim.spawn("parent", |ctx| {
        let (mut floor, mut peak) = (usize::MAX, 0);
        for child in 0..CHILDREN {
            ctx.spawn(format!("c{child}"), |_| {});
            // The child has come and gone by then, on a stack of its own.
            ctx.sleep(SimDuration::from_nanos(1));
            if child >= 10 {
                (floor, peak) = (floor.min(mappings()), peak.max(mappings()));
            }
        }
        // A kept stack is two mappings (stack + guard); the table and the
        // heap of 2,000 processes may add a mapping or two as they grow.
        assert!(
            peak <= floor + 2 * 2 + 2,
            "between {floor} and {peak} mappings while {CHILDREN} children came and went one \
             after another: ended stacks pile up",
        );
    });
    sim.run_expect();
}
