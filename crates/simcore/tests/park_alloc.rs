//! A park allocates nothing once its event's waiter list has grown: a
//! notification drains the list in place, so its capacity stays for the
//! next waiter. Alone in this file because it installs a counting global
//! allocator; it counts only on a thread that armed it, so the harness's
//! own threads cannot land an allocation in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simcore::{SimCell, SimDuration, SimEvent, Simulation};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.get() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new_size)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One process parks on one `SimEvent` a thousand times while another
/// notifies it every 10 ns. The first park grows the waiter list (and the
/// event queue) to what the loop needs; none after it may allocate.
#[test]
fn a_thousand_parks_on_one_event_allocate_nothing_after_the_first() {
    const PARKS: usize = 1_000;
    let mut sim = Simulation::new();
    let ev = SimEvent::new();
    let counted = Arc::new(SimCell::new(None));
    let (waiter_ev, counted2) = (ev.clone(), counted.clone());
    sim.spawn("waiter", move |ctx| {
        let seen = waiter_ev.epoch();
        ctx.wait_event(&waiter_ev, seen, "first park");
        ARMED.set(true);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 1..PARKS {
            let seen = waiter_ev.epoch();
            ctx.wait_event(&waiter_ev, seen, "park");
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        ARMED.set(false);
        *counted2.lock() = Some(allocs);
    });
    sim.spawn("notifier", move |ctx| {
        let sched = ctx.scheduler();
        for _ in 0..PARKS {
            ctx.sleep(SimDuration::from_nanos(10));
            ev.notify_all(&sched);
        }
    });
    let report = sim.run_expect();
    let allocs = counted.lock().take().expect("the waiter finished");
    assert_eq!(
        allocs,
        0,
        "{} parks after the first allocated {allocs} times",
        PARKS - 1
    );
    assert_eq!(report.final_time.as_nanos(), 10 * PARKS as u64);
}
