//! The one timer primitive: "do this at `t` unless cancelled".
//!
//! A [`TimerQueue`] orders its timers by `(time, seq)`, `seq` counting
//! [`TimerQueue::arm`] calls, so timers for one instant leave in arming
//! order. It is a binary min-heap of those keys whose payloads sit in slab
//! slots that know their entry's heap index, so [`TimerQueue::cancel`]
//! takes a timer out in O(log n) and leaves nothing behind. The
//! simulation's event queue and the engine's watchdogs and retries are
//! each one of these.

use crate::time::SimTime;

/// A timer armed in a [`TimerQueue`]. It names its timer's `seq`, which is
/// never reused: once that timer fired or was cancelled the handle cancels
/// nothing, not even the timer that took over its slot.
#[derive(Debug, Clone, Copy)]
pub struct TimerHandle {
    due: SimTime,
    seq: u64,
    slot: u32,
}

impl TimerHandle {
    /// When the timer is (or was) due.
    pub fn due(&self) -> SimTime {
        self.due
    }
}

/// A heap entry: its timer's `(time, seq)`, packed into one integer that
/// compares without a branch, and the slot of its payload.
#[derive(Clone, Copy)]
struct Entry {
    order: u128,
    slot: u32,
}

fn order(time: SimTime, seq: u64) -> u128 {
    u128::from(time.0) << 64 | u128::from(seq)
}

/// Timers in `(time, seq)` order, with O(log n) cancel (module docs).
pub struct TimerQueue<K> {
    heap: Vec<Entry>,
    /// Per slot: the index of its entry in `heap`, and its payload while
    /// its timer is armed.
    slots: Vec<(u32, Option<K>)>,
    /// Slots whose timer fired or was cancelled.
    free: Vec<u32>,
    next_seq: u64,
}

impl<K> Default for TimerQueue<K> {
    fn default() -> Self {
        TimerQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<K> TimerQueue<K> {
    /// Arm a timer carrying `key` for `time`, behind every timer already
    /// armed for that instant.
    pub fn arm(&mut self, time: SimTime, key: K) -> TimerHandle {
        let (seq, pos) = (self.next_seq, self.heap.len() as u32);
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (pos, Some(key));
                slot
            }
            None => {
                self.slots.push((pos, Some(key)));
                self.slots.len() as u32 - 1
            }
        };
        self.heap.push(Entry {
            order: order(time, seq),
            slot,
        });
        self.sift_up(pos as usize);
        TimerHandle {
            due: time,
            seq,
            slot,
        }
    }

    /// Disarm `timer` and hand back its key; `None` if it already fired or
    /// was cancelled.
    pub fn cancel(&mut self, timer: TimerHandle) -> Option<K> {
        let pos = self.slots.get(timer.slot as usize)?.0 as usize;
        let armed = self.heap.get(pos)?.order == order(timer.due, timer.seq);
        armed.then(|| self.remove(pos))
    }

    /// When the first timer is due.
    pub fn front(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime((e.order >> 64) as u64))
    }

    /// Take the first timer off the queue.
    pub fn pop(&mut self) -> Option<(SimTime, K)> {
        let time = self.front()?;
        Some((time, self.remove(0)))
    }

    /// Take the first timer off the queue if it is due by `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<K> {
        (self.front()? <= now).then(|| self.remove(0))
    }

    /// Timers armed and neither fired nor cancelled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Take the entry at `pos` out of the heap and its key out of its slot.
    fn remove(&mut self, mut pos: usize) -> K {
        let slot = self.heap[pos].slot;
        let last = self.heap.pop().expect("`pos` indexes an entry");
        let len = self.heap.len();
        if pos < len {
            // Pull the lesser child up into the hole until it reaches a
            // leaf, then let the last entry rise from there: one compare
            // per level on the way down, and no branch on its outcome.
            let mut child = 2 * pos + 1;
            while child + 1 < len {
                child += usize::from(self.heap[child + 1].order < self.heap[child].order);
                self.place(pos, self.heap[child]);
                pos = child;
                child = 2 * pos + 1;
            }
            if child < len {
                self.place(pos, self.heap[child]);
                pos = child;
            }
            self.heap[pos] = last;
            self.sift_up(pos);
        }
        self.free.push(slot);
        let key = self.slots[slot as usize].1.take();
        key.expect("an armed slot holds its key")
    }

    /// Put `entry` at `pos` and tell its slot.
    fn place(&mut self, pos: usize, entry: Entry) {
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].0 = pos as u32;
    }

    /// Move the entry at `pos` up past every parent that sorts after it.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 && entry.order < self.heap[(pos - 1) / 2].order {
            self.place(pos, self.heap[(pos - 1) / 2]);
            pos = (pos - 1) / 2;
        }
        self.place(pos, entry);
    }
}
