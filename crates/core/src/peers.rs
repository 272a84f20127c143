//! Per-peer state of one rank, keyed by the peers it has touched.
//!
//! A rank's transport half of a pair (the channel's `Link`) and its
//! protocol half ([`Pair`]: sequence ids, stashed RTRs, the
//! handshake-replay maps) are one [`Peer`] entry. The entry is made when
//! the pair is first touched — a send to the peer, a receive naming it,
//! its connect request arriving — and never for the rest of the world: a
//! halo rank holds four whatever the world's size. A table with a slot
//! for every rank of the world costs each rank bytes in proportion to
//! the world, and the world bytes in its square (DESIGN.md §15).
//!
//! Entries are kept in rank order, beside a dense list of their ranks. A
//! peer is found by binary search over that list, so a rank that talks to
//! hundreds of peers pays a few compares, not a scan; and every walk over
//! the table — the channel's inbound sweep, its control-queue and staging
//! checks — visits peers in rank order. Making an entry moves the ones
//! behind it up by one place, once in a pair's life.

use crate::channel::Link;
use crate::matching::Pair;
use crate::types::Rank;

/// Everything one rank keeps about one peer it has touched.
pub(crate) struct Peer {
    /// The transport half: queue pair, staging region, inbound ring,
    /// slot and credit counters, queued control packets, reorder stash.
    pub(crate) link: Link,
    /// The protocol half: pair sequence ids and handshake replay.
    pub(crate) pair: Pair,
}

/// A rank's entries, one per touched peer, in rank order.
pub(crate) struct Peers<T = Peer> {
    /// The touched peers, ascending.
    ranks: Vec<Rank>,
    /// Their entries, in the same order.
    entries: Vec<T>,
}

impl<T> Default for Peers<T> {
    fn default() -> Self {
        Peers {
            ranks: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<T> Peers<T> {
    /// `p`'s entry, if `p` was touched.
    pub(crate) fn get(&self, p: Rank) -> Option<&T> {
        Some(&self.entries[self.ranks.binary_search(&p).ok()?])
    }

    /// See [`Self::get`].
    pub(crate) fn get_mut(&mut self, p: Rank) -> Option<&mut T> {
        Some(&mut self.entries[self.ranks.binary_search(&p).ok()?])
    }

    /// Make `p`'s entry, in rank order: a walk in progress sees it at its
    /// place, and the positions behind it move up by one.
    pub(crate) fn insert(&mut self, p: Rank, entry: T) {
        let Err(i) = self.ranks.binary_search(&p) else {
            panic!("peer {p} already has an entry");
        };
        self.ranks.insert(i, p);
        self.entries.insert(i, entry);
    }

    /// How many peers were touched.
    pub(crate) fn len(&self) -> usize {
        self.ranks.len()
    }

    /// The peer at position `i` of the rank order, and its entry.
    pub(crate) fn at(&self, i: usize) -> (Rank, &T) {
        (self.ranks[i], &self.entries[i])
    }

    /// Every entry, in rank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }
}

impl Peers {
    /// The protocol half of the pair with `p`. Invariant: `p` was touched
    /// — every caller handles a packet, a request or a credit of the pair,
    /// none of which exists before the pair's first touch.
    pub(crate) fn pair(&self, p: Rank) -> &Pair {
        &self.get(p).expect("pair established").pair
    }

    /// See [`Self::pair`].
    pub(crate) fn pair_mut(&mut self, p: Rank) -> &mut Pair {
        &mut self.get_mut(p).expect("pair established").pair
    }
}

#[cfg(test)]
mod tests {
    use super::Peers;

    /// Touched in a scattered order, hundreds of peers are found by rank,
    /// walked in rank order, and an untouched rank has no entry.
    #[test]
    fn entries_are_found_by_rank_and_walked_in_rank_order() {
        let mut peers = Peers::<u64>::default();
        let touched: Vec<usize> = (0..600).map(|i| i * 7919 % 1024).collect();
        for &p in &touched {
            peers.insert(p, p as u64 * 10);
        }
        assert_eq!(peers.len(), touched.len());
        for &p in &touched {
            assert_eq!(peers.get(p), Some(&(p as u64 * 10)));
        }
        let mut sorted = touched.clone();
        sorted.sort_unstable();
        let walked: Vec<usize> = (0..peers.len()).map(|i| peers.at(i).0).collect();
        assert_eq!(walked, sorted);
        let values: Vec<u64> = peers.iter().copied().collect();
        assert_eq!(
            values,
            sorted.iter().map(|&p| p as u64 * 10).collect::<Vec<_>>()
        );
        let untouched = (0..1024)
            .find(|p| !touched.contains(p))
            .expect("one is left");
        assert!(peers.get(untouched).is_none());
        *peers.get_mut(sorted[3]).expect("touched") += 1;
        assert_eq!(peers.get(sorted[3]), Some(&(sorted[3] as u64 * 10 + 1)));
    }

    #[test]
    #[should_panic(expected = "already has an entry")]
    fn a_peer_has_one_entry() {
        let mut peers = Peers::<u64>::default();
        peers.insert(5, 0);
        peers.insert(5, 1);
    }
}
