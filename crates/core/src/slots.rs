//! Allocation-free bookkeeping for the progress engine's hot path.
//!
//! [`SlotTable`] replaces the per-engine `HashMap<u64, _>` request and
//! inflight-WR tables: entries live in a dense `Vec` of slots, handles
//! encode `(generation << 32) | slot`, and freed slots are recycled
//! through an intrusive free list. Steady-state insert/remove therefore
//! touches no allocator and no hasher, and a stale handle (slot reused
//! since) misses on its generation tag instead of aliasing a new entry —
//! preserving the "unknown request" semantics the MPI layer relies on.
//!
//! The engine's timers — retry backoffs and handshake watchdogs — are
//! [`simcore::TimerQueue`]s, the simulation's own event queue type.

enum Slot<T> {
    /// Free slot: the next free slot (or `NO_FREE`) and the generation
    /// the next occupant will carry (bumped at removal time).
    Free {
        next_free: u32,
        gen: u32,
    },
    Full {
        gen: u32,
        value: T,
    },
}

/// Dense generation-tagged storage. Handles are plain `u64`s so they can
/// flow through wire-adjacent code (e.g. verbs `wr_id` fields) unchanged.
pub struct SlotTable<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
    /// Maximum number of live entries; inserts past this bound fail
    /// instead of growing. `u32::MAX - 1` (the index space) by default.
    limit: u32,
}

const NO_FREE: u32 = u32::MAX;

impl<T> SlotTable<T> {
    pub fn new() -> Self {
        SlotTable {
            slots: Vec::new(),
            free_head: NO_FREE,
            len: 0,
            limit: u32::MAX - 1,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        let mut t = SlotTable::new();
        t.slots.reserve(cap);
        t
    }

    /// A table that refuses to hold more than `limit` live entries.
    /// Exhaustion then surfaces as `try_insert() == None` backpressure
    /// rather than unbounded growth.
    pub fn with_limit(limit: u32) -> Self {
        let mut t = SlotTable::new();
        t.limit = limit;
        t
    }

    fn split(id: u64) -> (u32, u32) {
        ((id >> 32) as u32, id as u32)
    }

    /// Insert a value, returning its handle, or `None` when the table is
    /// at its limit. Generations start at 1 so a handle is never 0 (the
    /// engine uses ids in contexts where 0 would read as "unset").
    pub fn try_insert(&mut self, value: T) -> Option<u64> {
        if self.len >= self.limit as usize {
            return None;
        }
        self.len += 1;
        if self.free_head != NO_FREE {
            let idx = self.free_head;
            let gen = match self.slots[idx as usize] {
                Slot::Free { next_free, gen } => {
                    self.free_head = next_free;
                    gen
                }
                Slot::Full { .. } => unreachable!("free list points at a full slot"),
            };
            self.slots[idx as usize] = Slot::Full { gen, value };
            Some(((gen as u64) << 32) | idx as u64)
        } else {
            let idx = self.slots.len() as u32;
            if idx == u32::MAX {
                self.len -= 1;
                return None;
            }
            self.slots.push(Slot::Full { gen: 1, value });
            Some((1u64 << 32) | idx as u64)
        }
    }

    /// Infallible insert for tables whose size is bounded by construction
    /// (panics only at the `u32` index-space limit).
    pub fn insert(&mut self, value: T) -> u64 {
        self.try_insert(value).expect("slot table exhausted")
    }

    pub fn get(&self, id: u64) -> Option<&T> {
        let (gen, idx) = Self::split(id);
        match self.slots.get(idx as usize) {
            Some(Slot::Full { gen: g, value }) if *g == gen => Some(value),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (gen, idx) = Self::split(id);
        match self.slots.get_mut(idx as usize) {
            Some(Slot::Full { gen: g, value }) if *g == gen => Some(value),
            _ => None,
        }
    }

    /// Remove and return the value for `id`. The slot's generation is
    /// bumped so outstanding copies of the handle go stale.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let (gen, idx) = Self::split(id);
        match self.slots.get_mut(idx as usize) {
            Some(slot @ Slot::Full { .. }) => {
                if !matches!(slot, Slot::Full { gen: g, .. } if *g == gen) {
                    return None;
                }
                // Bump the generation for the next occupant; skip 0 on
                // wrap so ids stay non-zero.
                let next_gen = match gen.wrapping_add(1) {
                    0 => 1,
                    g => g,
                };
                let old = std::mem::replace(
                    slot,
                    Slot::Free {
                        next_free: self.free_head,
                        gen: next_gen,
                    },
                );
                self.free_head = idx;
                self.len -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the next `try_insert` would fail. Callers that must not
    /// burn a sequence number on a doomed operation check this first.
    pub fn is_full(&self) -> bool {
        self.len >= self.limit as usize
    }

    /// Iterate `(id, &value)` over live entries.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Full { gen, value } => Some((((*gen as u64) << 32) | i as u64, value)),
            Slot::Free { .. } => None,
        })
    }

    /// Iterate `(id, &mut value)` over live entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Full { gen, value } => Some((((*gen as u64) << 32) | i as u64, value)),
                Slot::Free { .. } => None,
            })
    }
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = SlotTable::new();
        let a = t.insert("a");
        let b = t.insert("b");
        assert_ne!(a, b);
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.get(b), Some(&"b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(a), Some("a"));
        assert_eq!(t.get(a), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(a), None, "double remove misses");
    }

    #[test]
    fn ids_are_nonzero_and_stale_after_reuse() {
        let mut t = SlotTable::new();
        let a = t.insert(1u32);
        assert_ne!(a, 0);
        t.remove(a);
        let b = t.insert(2u32);
        // Same slot, new generation: the old handle must not alias.
        assert_eq!(b as u32, a as u32, "slot recycled");
        assert_ne!(a, b);
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(b), Some(&2));
    }

    #[test]
    fn steady_state_reuses_one_slot() {
        let mut t = SlotTable::new();
        for i in 0..10_000u32 {
            let id = t.insert(i);
            assert_eq!(t.remove(id), Some(i));
        }
        assert_eq!(t.slots.len(), 1, "one slot recycled throughout");
    }

    #[test]
    fn iter_visits_live_entries_only() {
        let mut t = SlotTable::new();
        let a = t.insert("a");
        let _b = t.insert("b");
        let _c = t.insert("c");
        t.remove(a);
        let mut vals: Vec<_> = t.iter().map(|(_, v)| *v).collect();
        vals.sort_unstable();
        assert_eq!(vals, ["b", "c"]);
        for (id, v) in t.iter_mut() {
            assert_ne!(id, 0);
            *v = "x";
        }
        assert!(t.iter().all(|(_, v)| *v == "x"));
    }

    #[test]
    fn generation_wrap_skips_zero() {
        let mut t = SlotTable::new();
        // Force the slot-0 generation to the wrap point.
        let id = t.insert(0u8);
        t.remove(id);
        match &mut t.slots[0] {
            Slot::Free { gen, .. } => *gen = u32::MAX,
            Slot::Full { .. } => unreachable!(),
        }
        let id = t.insert(1u8);
        assert_eq!(id >> 32, u32::MAX as u64);
        t.remove(id);
        let id = t.insert(2u8);
        assert_eq!(id >> 32, 1, "generation wraps past zero");
        assert_eq!(t.get(id), Some(&2));
    }

    #[test]
    fn limited_table_backpressures_instead_of_growing() {
        let mut t = SlotTable::with_limit(3);
        let a = t.try_insert(0u32).unwrap();
        let _b = t.try_insert(1).unwrap();
        let _c = t.try_insert(2).unwrap();
        assert_eq!(t.try_insert(3), None, "limit reached");
        assert_eq!(t.len(), 3);
        // Freeing a slot lifts the backpressure.
        assert_eq!(t.remove(a), Some(0));
        let d = t.try_insert(4).unwrap();
        assert_eq!(t.get(d), Some(&4));
        assert_eq!(t.try_insert(5), None, "full again");
    }
}
