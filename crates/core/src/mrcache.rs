//! The registration cache (paper §IV-B3, §IV-B4). Registering memory on
//! the Phi is expensive — it is offloaded to the host daemon — and
//! DCFA-MPI amortises it twice: an LRU pool of memory regions over user
//! buffers, and the offloading send buffer's host twins. Both are one
//! [`RegCache`] with entries of two [`Kind`]s, keyed by kind, memory space
//! and address range. An entry holds one registration: the user buffer's
//! own MR, or the MR of the host twin that shadows a Phi range.
//!
//! A lookup hits when a cached entry of its kind *contains* the requested
//! range and the registration is still live on the HCA (the daemon
//! reclaims registrations on lease expiry, and twins when it crashes); a
//! dead hit is invalidated and registered afresh. Eviction is LRU among
//! *unpinned* entries only, so a region with an RDMA outstanding against
//! it is never deregistered under the HCA. [`RegCache::acquire`] hands out
//! a [`Lease`] that pins its entry for one transfer; [`RegCache::release`]
//! unpins it. The kinds differ only in data:
//!
//! | kind | registered by | budget | a miss with every entry pinned |
//! |---|---|---|---|
//! | [`Kind::Mr`] | `reg_mr` | `mr_cache_capacity` | an uncached lease, deregistered on release |
//! | [`Kind::Twin`] | `reg_offload` | [`TWIN_BUDGET`] | grows past the budget |
//!
//! An MR budget of 0 disables that pool: every lease is uncached, and
//! registrations and deregistrations stay symmetric. Twins past their
//! budget stay: a later miss evicts at most one twin and adds one, so the
//! twin count keeps its high-water mark until invalidation or `clear`.
//!
//! Each kind has a list of its own: a hit is the *first* entry containing
//! the range, and a `swap_remove` in a shared list would reorder the other
//! kind's entries and change which registration a hit hands out.

use dcfa::OffloadMr;
use fabric::Buffer;
use simcore::Ctx;
use verbs::MemoryRegion;

use crate::metrics::Phase;
use crate::resources::Resources;
use crate::trace::{Recorder, TraceEvent};
use crate::types::Rank;

/// Host twins the offloading send buffer keeps before it evicts.
pub(crate) const TWIN_BUDGET: usize = 16;

/// What an entry registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A user buffer, registered in place (the MR cache pool).
    Mr,
    /// The host twin of a Phi buffer (the offloading send buffer).
    Twin,
}

/// Hit/miss/lifetime counters of one kind of entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Regions registered through the cache layer (cached or not).
    pub registered: u64,
    /// Regions deregistered through the cache layer.
    pub deregistered: u64,
    /// Cached entries dropped because the daemon had already reclaimed
    /// the underlying registration (lease expiry or crash drain). Counted
    /// in `deregistered` too — the region left the cache layer.
    pub invalidated: u64,
}

struct Entry {
    /// The user buffer, or the Phi range a twin shadows. Its memory space
    /// is part of the key: Phi and host addresses both start at 0, so a
    /// range match alone would alias a host buffer to a Phi registration.
    range: Buffer,
    /// The user buffer's MR, or the host twin's.
    mr: MemoryRegion,
    last_use: u64,
    pins: u32,
}

/// A pinned claim on a registration. Obtain with [`RegCache::acquire`];
/// give back with [`RegCache::release`] once the transfer that used it
/// has completed. Dropping a lease without releasing it leaves its entry
/// pinned (caught by the protocol auditor).
#[must_use = "release the lease once the transfer completes"]
pub(crate) struct Lease {
    kind: Kind,
    pub(crate) mr: MemoryRegion,
    /// Start of the range the leased registration serves.
    base: u64,
    cached: bool,
}

impl Lease {
    /// Where `buf`'s bytes sit in the leased registration: `buf` itself
    /// for an MR, its slice of the host twin for a twin.
    pub(crate) fn image(&self, buf: &Buffer) -> Buffer {
        self.mr.buffer().slice(buf.addr - self.base, buf.len)
    }
}

/// LRU cache of registrations of both kinds.
#[derive(Default)]
pub(crate) struct RegCache {
    budgets: [usize; 2],
    lists: [Vec<Entry>; 2],
    clock: u64,
    stats: [CacheStats; 2],
    rec: Recorder,
    rank: Rank,
}

impl RegCache {
    pub(crate) fn new(mr_capacity: usize, rank: Rank, rec: Recorder) -> Self {
        let budgets = [mr_capacity, TWIN_BUDGET];
        RegCache {
            budgets,
            rec,
            rank,
            ..Default::default()
        }
    }

    /// Pin an entry of `kind` covering `buf`, registering on a miss.
    /// `None` only when the daemon cannot provide a twin — the caller
    /// degrades to the direct path.
    pub(crate) fn acquire(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        kind: Kind,
        buf: &Buffer,
    ) -> Option<Lease> {
        let (mr, base, cached) = match self.lookup(ctx, res, kind, buf)? {
            Ok(i) => {
                let e = &mut self.lists[kind as usize][i];
                e.pins += 1;
                (e.mr.clone(), e.range.addr, true)
            }
            Err(mr) => (mr, buf.addr, false),
        };
        let (rank, key) = (self.rank, mr.key().0);
        self.rec.trace(|| TraceEvent::MrPin { rank, key });
        Some(Lease {
            kind,
            mr,
            base,
            cached,
        })
    }

    /// `buf`'s slice of its host twin, creating the twin on a miss,
    /// without pinning it. `None` when the daemon cannot provide a twin.
    pub(crate) fn twin(&mut self, ctx: &mut Ctx, res: &Resources, buf: &Buffer) -> Option<Buffer> {
        let i = self.lookup(ctx, res, Kind::Twin, buf)?.ok()?;
        let e = &self.lists[Kind::Twin as usize][i];
        Some(e.mr.buffer().slice(buf.addr - e.range.addr, buf.len))
    }

    /// Find or register the entry of `kind` covering `buf` and stamp it
    /// used: `Ok` with its index, or `Err` with an uncached registration
    /// (an MR miss with every entry pinned). `None` when no twin can be had.
    fn lookup(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        kind: Kind,
        buf: &Buffer,
    ) -> Option<Result<usize, MemoryRegion>> {
        self.clock += 1;
        let (k, clock, rank, rec) = (kind as usize, self.clock, self.rank, &self.rec);
        let (list, stats) = (&mut self.lists[k], &mut self.stats[k]);
        let covers = |e: &Entry| {
            let r = &e.range;
            r.mem == buf.mem && r.addr <= buf.addr && buf.addr + buf.len <= r.addr + r.len
        };
        if let Some(i) = list.iter().position(covers) {
            if list[i].pins > 0 || res.mr_live(list[i].mr.key()) {
                list[i].last_use = clock;
                stats.hits += 1;
                return Some(Ok(i));
            }
            let key = list.swap_remove(i).mr.key().0;
            stats.invalidated += 1;
            stats.deregistered += 1;
            rec.trace(|| TraceEvent::MrInvalidated { rank, key });
        }
        stats.misses += 1;
        let reg_start = ctx.now();
        let mr = match kind {
            Kind::Mr => res.reg_mr(ctx, buf.clone()),
            Kind::Twin => res.reg_offload(ctx, buf)?.host_mr,
        };
        let reg_ns = ctx.now().since(reg_start).as_nanos();
        rec.sample(Phase::MrRegister, buf.len, None, reg_ns);
        stats.registered += 1;
        let full = list.len() >= self.budgets[k];
        let unpinned = list.iter().enumerate().filter(|(_, e)| e.pins == 0);
        let lru = full
            .then(|| unpinned.min_by_key(|(_, e)| e.last_use))
            .flatten()
            .map(|(i, _)| i);
        // Every entry is pinned by an in-flight transfer: an MR goes
        // uncached, a twin grows past the budget.
        let cached = !full || lru.is_some() || kind == Kind::Twin;
        let register = TraceEvent::MrRegister {
            rank,
            key: mr.key().0,
            addr: buf.addr,
            len: buf.len,
            cached,
        };
        // A twin's registration is recorded before the eviction it
        // causes, an MR's after it.
        if kind == Kind::Twin {
            rec.trace(|| register);
        }
        if let Some(i) = lru {
            let evicted = list.swap_remove(i);
            let key = evicted.mr.key().0;
            deregister(ctx, res, kind, evicted);
            stats.evictions += 1;
            stats.deregistered += 1;
            rec.trace(|| TraceEvent::MrEvict { rank, key });
        }
        if kind == Kind::Mr {
            rec.trace(|| register);
        }
        if !cached {
            return Some(Err(mr));
        }
        list.push(Entry {
            range: buf.clone(),
            mr,
            last_use: clock,
            pins: 0,
        });
        Some(Ok(list.len() - 1))
    }

    /// Release a lease obtained from [`RegCache::acquire`]. An uncached
    /// lease deregisters here.
    pub(crate) fn release(&mut self, ctx: &mut Ctx, res: &Resources, lease: Lease) {
        let (k, rank, key) = (lease.kind as usize, self.rank, lease.mr.key().0);
        self.rec.trace(|| TraceEvent::MrUnpin { rank, key });
        if !lease.cached {
            res.dereg_mr(ctx, &lease.mr);
            self.stats[k].deregistered += 1;
            self.rec.trace(|| TraceEvent::MrDeregister { rank, key });
            return;
        }
        let e = self.lists[k]
            .iter_mut()
            .find(|e| e.mr.key() == lease.mr.key())
            .expect("released lease not in cache (double release?)");
        debug_assert!(e.pins > 0, "unpinning an unpinned entry");
        e.pins = e.pins.saturating_sub(1);
    }

    /// Drop every unpinned entry whose registration is no longer live on
    /// the HCA — the bulk flush after a control-epoch bump (daemon respawn
    /// or lease loss; twins die with a crashed daemon).
    pub(crate) fn invalidate_dead(&mut self, res: &Resources) {
        let (rank, rec) = (self.rank, &self.rec);
        for (list, stats) in self.lists.iter_mut().zip(&mut self.stats) {
            let before = list.len();
            list.retain(|e| {
                let live = e.pins > 0 || res.mr_live(e.mr.key());
                let key = e.mr.key().0;
                if !live {
                    rec.trace(|| TraceEvent::MrInvalidated { rank, key });
                }
                live
            });
            let dropped = (before - list.len()) as u64;
            stats.invalidated += dropped;
            stats.deregistered += dropped;
        }
    }

    /// Deregister everything (finalize). All leases must be released first.
    pub(crate) fn clear(&mut self, ctx: &mut Ctx, res: &Resources) {
        let rank = self.rank;
        for kind in [Kind::Mr, Kind::Twin] {
            for e in self.lists[kind as usize].drain(..) {
                debug_assert_eq!(e.pins, 0, "finalize with a lease outstanding");
                let key = e.mr.key().0;
                deregister(ctx, res, kind, e);
                self.stats[kind as usize].deregistered += 1;
                self.rec.trace(|| TraceEvent::MrDeregister { rank, key });
            }
        }
    }

    pub(crate) fn stats(&self, kind: Kind) -> CacheStats {
        self.stats[kind as usize]
    }

    /// Entries of `kind` resident in the cache.
    pub(crate) fn resident(&self, kind: Kind) -> usize {
        self.lists[kind as usize].len()
    }

    /// Entries of either kind pinned by outstanding leases.
    pub(crate) fn pinned(&self) -> usize {
        self.lists.iter().flatten().filter(|e| e.pins > 0).count()
    }
}

/// Hand an entry's registration back to the daemon (or the host HCA).
fn deregister(ctx: &mut Ctx, res: &Resources, kind: Kind, e: Entry) {
    match kind {
        Kind::Mr => res.dereg_mr(ctx, &e.mr),
        Kind::Twin => {
            let (phi, host_mr) = (e.range, e.mr);
            res.dereg_offload(ctx, OffloadMr { phi, host_mr })
        }
    }
}
