//! A finished process gives its stack back when it finishes, not when the
//! simulation drops. Alone in this file, so in a process of its own: the
//! observable is the whole process's memory map, which concurrently
//! running tests would move.

use simcore::{SimDuration, Simulation};

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("Linux exposes the memory map")
        .lines()
        .count()
}

#[test]
fn finished_processes_unmap_their_stacks() {
    const WAVES: usize = 100;
    const PER_WAVE: usize = 100;
    let mut sim = Simulation::new();
    sim.spawn("parent", |ctx| {
        let mut after_first_wave = 0;
        for wave in 0..WAVES {
            for child in 0..PER_WAVE {
                ctx.spawn(format!("w{wave}c{child}"), |cctx| {
                    cctx.sleep(SimDuration::from_nanos(3));
                });
            }
            // Every child of the wave has come and gone by then.
            ctx.sleep(SimDuration::from_nanos(10));
            if wave == 0 {
                after_first_wave = mappings();
            }
        }
        let at_end = mappings();
        // The process table and event heap for 10,000 processes grow past
        // the allocator's mmap threshold on the way, which may add a
        // mapping or two; every kept stack would add two (stack + guard).
        const HEAP_GROWTH: usize = 4;
        assert!(
            at_end <= after_first_wave + HEAP_GROWTH,
            "{at_end} mappings after {} short-lived processes, {after_first_wave} after the \
             first {PER_WAVE}: finished stacks are being kept",
            WAVES * PER_WAVE,
        );
    });
    let report = sim.run_expect();
    assert_eq!(report.final_time.as_nanos(), 10 * WAVES as u64);
}
