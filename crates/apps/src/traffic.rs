//! Seeded random-traffic workload generator: reproducible message
//! patterns for soak-testing an MPI implementation (sizes spanning all
//! protocol regimes, random peers and tags, content checksums).
//!
//! Every pattern is derived from a seed, so a failing soak run is exactly
//! replayable.

use dcfa_mpi::{Communicator, Src, TagSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::Ctx;

/// One scripted message of a traffic pattern.
#[derive(Debug, Clone, Copy)]
pub struct TrafficMsg {
    pub from: usize,
    pub to: usize,
    pub tag: u32,
    pub size: u64,
    /// Content byte (payload is `size` copies — cheap to verify).
    pub salt: u8,
}

/// A reproducible random traffic pattern over `n` ranks.
#[derive(Debug, Clone)]
pub struct TrafficPattern {
    pub seed: u64,
    pub msgs: Vec<TrafficMsg>,
}

impl TrafficPattern {
    /// Generate `count` messages over `n` ranks from `seed`. Sizes are
    /// drawn log-uniformly over 4 B – `max_size` so every protocol regime
    /// (eager / rendezvous / offload) is exercised.
    pub fn generate(seed: u64, n: usize, count: usize, max_size: u64) -> TrafficPattern {
        assert!(n >= 2, "traffic needs at least two ranks");
        let mut rng = StdRng::seed_from_u64(seed);
        let max_pow = 64 - max_size.max(4).leading_zeros() as u64 - 1;
        let msgs = (0..count)
            .map(|_| {
                let from = rng.random_range(0..n);
                let mut to = rng.random_range(0..n - 1);
                if to >= from {
                    to += 1;
                }
                let pow = rng.random_range(2..=max_pow);
                let size = (1u64 << pow).min(max_size);
                TrafficMsg {
                    from,
                    to,
                    tag: rng.random_range(0..4),
                    size,
                    salt: rng.random(),
                }
            })
            .collect();
        TrafficPattern { seed, msgs }
    }

    /// Total bytes this pattern moves.
    pub fn total_bytes(&self) -> u64 {
        self.msgs.iter().map(|m| m.size).sum()
    }

    /// Messages sent by `rank`, in script order.
    pub fn sends_of(&self, rank: usize) -> impl Iterator<Item = &TrafficMsg> {
        self.msgs.iter().filter(move |m| m.from == rank)
    }

    /// Messages received by `rank`, in script order.
    pub fn recvs_of(&self, rank: usize) -> impl Iterator<Item = &TrafficMsg> {
        self.msgs.iter().filter(move |m| m.to == rank)
    }
}

/// Execute one rank's part of the pattern: post all receives, issue all
/// sends, wait for everything, verify every payload byte-for-byte.
/// Returns the number of messages this rank verified.
pub fn run_rank<C: Communicator>(ctx: &mut Ctx, comm: &mut C, pattern: &TrafficPattern) -> usize {
    let me = comm.rank();
    let mut reqs = Vec::new();
    let mut rbufs = Vec::new();
    // Receives first (message order per (src, tag) follows script order
    // because sends from each source are issued in script order too).
    for m in pattern.recvs_of(me) {
        let buf = comm.cluster().alloc_pages(comm.mem(), m.size).unwrap();
        reqs.push(
            comm.irecv(ctx, &buf, Src::Rank(m.from), TagSel::Tag(m.tag))
                .expect("irecv"),
        );
        rbufs.push((*m, buf));
    }
    let mut sbufs = Vec::new();
    for m in pattern.sends_of(me) {
        let buf = comm.cluster().alloc_pages(comm.mem(), m.size).unwrap();
        comm.cluster()
            .write(&buf, 0, &vec![m.salt; m.size as usize]);
        reqs.push(comm.isend(ctx, &buf, m.to, m.tag).expect("isend"));
        sbufs.push(buf);
    }
    comm.waitall(ctx, &reqs).expect("waitall");
    let mut verified = 0;
    for (m, buf) in &rbufs {
        let got = comm.cluster().read_vec(buf);
        assert_eq!(got.len() as u64, m.size);
        assert!(
            got.iter().all(|&b| b == m.salt),
            "payload corrupted: {m:?} (seed {})",
            pattern.seed
        );
        verified += 1;
        comm.cluster().free(buf);
    }
    for buf in &sbufs {
        comm.cluster().free(buf);
    }
    verified
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TrafficPattern::generate(42, 4, 50, 1 << 20);
        let b = TrafficPattern::generate(42, 4, 50, 1 << 20);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = TrafficPattern::generate(43, 4, 50, 1 << 20);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn no_self_sends_and_sizes_in_range() {
        let p = TrafficPattern::generate(7, 3, 200, 256 << 10);
        for m in &p.msgs {
            assert_ne!(m.from, m.to);
            assert!(m.from < 3 && m.to < 3);
            assert!(m.size >= 4 && m.size <= 256 << 10);
            assert!(m.tag < 4);
        }
        assert!(p.total_bytes() > 0);
    }

    #[test]
    fn send_recv_scripts_partition_the_pattern() {
        let p = TrafficPattern::generate(1, 4, 100, 1 << 16);
        let sends: usize = (0..4).map(|r| p.sends_of(r).count()).sum();
        let recvs: usize = (0..4).map(|r| p.recvs_of(r).count()).sum();
        assert_eq!(sends, 100);
        assert_eq!(recvs, 100);
    }
}
