//! The timer queue under the event loop and the engine's watchdogs:
//! `(time, seq)` order, FIFO on ties, and a cancel that no stale handle
//! can misuse.

use simcore::{SimTime, TimerQueue};

/// Pop everything left, checking the order, and return the keys.
fn drain<K>(q: &mut TimerQueue<K>) -> Vec<K> {
    let (mut keys, mut last) = (Vec::new(), SimTime::ZERO);
    while let Some((t, key)) = q.pop() {
        assert!(t >= last, "popped out of deadline order");
        last = t;
        keys.push(key);
    }
    keys
}

#[test]
fn pops_in_deadline_order_and_ties_fifo() {
    let mut q = TimerQueue::default();
    let t = SimTime;
    for (at, key) in [(30, 'e'), (10, 'a'), (20, 'b'), (20, 'c'), (20, 'd')] {
        q.arm(t(at), key);
    }
    assert_eq!(q.front(), Some(t(10)));
    assert_eq!(q.pop_due(t(5)), None, "nothing due yet");
    assert_eq!(q.pop_due(t(15)), Some('a'));
    assert_eq!(drain(&mut q), ['b', 'c', 'd', 'e']);
    assert!(q.is_empty());
}

#[test]
fn cancelling_front_middle_or_back_keeps_the_rest_in_order() {
    // Deadlines out of arming order, with a tie in the middle.
    let times = [5, 3, 9, 1, 4, 4, 8, 2, 7, 10];
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by_key(|&i| (times[i], i));
    for rank in [0, 4, 9] {
        let mut q = TimerQueue::default();
        let armed: Vec<_> = (0..times.len())
            .map(|i| q.arm(SimTime(times[i]), i))
            .collect();
        let mut rest = order.clone();
        let gone = rest.remove(rank);
        assert_eq!(q.cancel(armed[gone]), Some(gone));
        assert_eq!(drain(&mut q), rest, "cancelled the {rank}th");
    }
}

#[test]
fn a_fired_cancelled_or_replaced_timer_cannot_be_cancelled() {
    let mut q = TimerQueue::default();
    let fired = q.arm(SimTime(1), 'f');
    let cancelled = q.arm(SimTime(2), 'c');
    assert_eq!(q.pop(), Some((SimTime(1), 'f')));
    assert_eq!(q.cancel(cancelled), Some('c'));
    assert_eq!((q.cancel(fired), q.cancel(cancelled)), (None, None));
    // Two new timers take both freed slots, one at the cancelled one's
    // very instant: the old handles name neither.
    let new = [q.arm(SimTime(1), 'n'), q.arm(SimTime(2), 'm')];
    assert_eq!(new[1].due(), cancelled.due());
    assert_eq!((q.cancel(fired), q.cancel(cancelled)), (None, None));
    assert_eq!(q.len(), 2);
    assert_eq!(q.pop(), Some((SimTime(1), 'n')));
    assert_eq!(q.cancel(new[1]), Some('m'));
}

#[test]
fn arm_cancel_churn_leaves_only_the_live_timers() {
    // The watchdog pattern: one timer per operation, cancelled when its
    // operation ends, in no particular order — here seven in eight, each
    // a pseudo-random live one, checked against an ordered map.
    let mut q = TimerQueue::default();
    let mut live = std::collections::BTreeMap::new();
    let mut rng = 1u64;
    for op in 0..10_000u64 {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let at = SimTime(1_000_000 + (rng >> 33) % 977);
        live.insert((at, op), q.arm(at, op));
        if op % 8 != 0 {
            let nth = (rng >> 17) as usize % live.len();
            let key = *live.keys().nth(nth).expect("in range");
            let timer = live.remove(&key).expect("just found");
            assert_eq!(q.cancel(timer), Some(key.1));
        }
        assert_eq!(q.len(), live.len());
    }
    let order: Vec<u64> = live.keys().map(|&(_, op)| op).collect();
    assert_eq!(drain(&mut q), order);
}
