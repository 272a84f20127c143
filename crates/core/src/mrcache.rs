//! The buffer cache pool (paper §IV-B3): memory-region registration on the
//! Phi is expensive (offloaded to the host), so DCFA-MPI caches the most
//! recently used regions. A lookup hits when a cached region *contains* the
//! requested range. Eviction is least-recently-used among *unpinned*
//! entries only — a region with an outstanding RDMA against it must never
//! be deregistered out from under the HCA.
//!
//! Lifetime model: [`MrCache::acquire`] hands out an [`MrLease`] that pins
//! the backing region for the duration of one protocol operation;
//! [`MrCache::release`] unpins it. With caching disabled (`capacity == 0`)
//! — or when every cached slot is pinned — the lease owns an *unmanaged*
//! registration that `release` deregisters immediately, so the disabled
//! configuration registers and deregisters symmetrically instead of
//! leaking one MR per lookup.
//!
//! The same structure caches offloading twin buffers (host-side staging
//! regions of `reg_offload_mr`), which are just as expensive to create.

use dcfa::OffloadMr;
use fabric::{Buffer, MemRef};
use simcore::Ctx;
use verbs::MemoryRegion;

use crate::metrics::{Metrics, Phase};
use crate::resources::Resources;
use crate::trace::{Trace, TraceEvent};
use crate::types::Rank;

/// Hit/miss/lifetime counters of one cache, for `dump()` snapshots and
/// the ablation benches.
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
    /// Memory space the range lives in. Addresses are only meaningful
    /// per (node, domain): Phi and host allocations both start at 0, so
    /// a range match without this would alias a host buffer to a Phi
    /// MR (or vice versa) and silently RDMA the wrong memory.
    mem: MemRef,
    addr: u64,
    len: u64,
    mr: MemoryRegion,
    last_use: u64,
    pins: u32,
}

/// A pinned claim on a registered region. Obtain with
/// [`MrCache::acquire`]; give back with [`MrCache::release`] once the
/// RDMA that used it has completed. Dropping a lease without releasing
/// it leaves the region pinned (caught by the protocol auditor).
#[must_use = "release the lease once the RDMA completes"]
pub struct MrLease {
    mr: MemoryRegion,
    cached: bool,
}

impl MrLease {
    pub fn mr(&self) -> &MemoryRegion {
        &self.mr
    }
}

/// LRU cache of registered memory regions.
pub struct MrCache {
    capacity: usize,
    entries: Vec<Entry>,
    clock: u64,
    pub(crate) stats: CacheStats,
    pub(crate) trace: Trace,
    metrics: Metrics,
    rank: Rank,
}

impl MrCache {
    /// `capacity == 0` disables caching: every acquire registers and every
    /// release deregisters immediately.
    pub fn new(capacity: usize) -> Self {
        MrCache {
            capacity,
            entries: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
            trace: Trace::default(),
            metrics: Metrics::default(),
            rank: 0,
        }
    }

    pub(crate) fn set_trace(&mut self, trace: Trace, rank: Rank) {
        self.trace = trace;
        self.rank = rank;
    }

    pub(crate) fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Acquire a pinned region covering `buf`, registering on miss. A hit
    /// on an entry whose registration the daemon has since reclaimed
    /// (lease expiry; detected by HCA liveness) is invalidated and
    /// re-registered instead of handing out a stale key.
    pub fn acquire(&mut self, ctx: &mut Ctx, res: &Resources, buf: &Buffer) -> MrLease {
        self.clock += 1;
        let clock = self.clock;
        let rank = self.rank;
        if let Some(i) = self.entries.iter().position(|e| {
            e.mem == buf.mem && e.addr <= buf.addr && buf.addr + buf.len <= e.addr + e.len
        }) {
            let live = self.entries[i].pins > 0 || res.mr_live(self.entries[i].mr.key());
            if live {
                let e = &mut self.entries[i];
                e.last_use = clock;
                e.pins += 1;
                self.stats.hits += 1;
                let key = e.mr.key().0;
                self.trace.record(|| TraceEvent::MrPin { rank, key });
                return MrLease {
                    mr: e.mr.clone(),
                    cached: true,
                };
            }
            let dead = self.entries.swap_remove(i);
            self.stats.invalidated += 1;
            self.stats.deregistered += 1;
            let key = dead.mr.key().0;
            self.trace
                .record(|| TraceEvent::MrInvalidated { rank, key });
            // Fall through to the miss path: register afresh.
        }
        self.stats.misses += 1;
        let reg_start = self.metrics.start(|| ctx.now());
        let mr = res.reg_mr(ctx, buf.clone());
        self.metrics
            .record_since(reg_start, || ctx.now(), Phase::MrRegister, buf.len, None);
        self.stats.registered += 1;
        let key = mr.key().0;
        if self.capacity == 0 {
            // Caching disabled: the lease owns the registration outright
            // and `release` deregisters it.
            self.trace.record(|| TraceEvent::MrRegister {
                rank,
                key,
                addr: buf.addr,
                len: buf.len,
                cached: false,
            });
            self.trace.record(|| TraceEvent::MrPin { rank, key });
            return MrLease { mr, cached: false };
        }
        if self.entries.len() >= self.capacity {
            // Evict the LRU *unpinned* entry. If every slot is pinned by
            // an in-flight RDMA, overflow into an unmanaged lease rather
            // than yank a region the HCA is still using.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i);
            match lru {
                Some(i) => {
                    let evicted = self.entries.swap_remove(i);
                    res.dereg_mr(ctx, &evicted.mr);
                    self.stats.evictions += 1;
                    self.stats.deregistered += 1;
                    let ekey = evicted.mr.key().0;
                    self.trace
                        .record(|| TraceEvent::MrEvict { rank, key: ekey });
                }
                None => {
                    self.trace.record(|| TraceEvent::MrRegister {
                        rank,
                        key,
                        addr: buf.addr,
                        len: buf.len,
                        cached: false,
                    });
                    self.trace.record(|| TraceEvent::MrPin { rank, key });
                    return MrLease { mr, cached: false };
                }
            }
        }
        self.trace.record(|| TraceEvent::MrRegister {
            rank,
            key,
            addr: buf.addr,
            len: buf.len,
            cached: true,
        });
        self.trace.record(|| TraceEvent::MrPin { rank, key });
        self.entries.push(Entry {
            mem: buf.mem,
            addr: buf.addr,
            len: buf.len,
            mr: mr.clone(),
            last_use: clock,
            pins: 1,
        });
        MrLease { mr, cached: true }
    }

    /// Release a lease obtained from [`MrCache::acquire`]. Unmanaged
    /// leases (caching disabled, or cache overflow) deregister here.
    pub fn release(&mut self, ctx: &mut Ctx, res: &Resources, lease: MrLease) {
        let rank = self.rank;
        let key = lease.mr.key().0;
        self.trace.record(|| TraceEvent::MrUnpin { rank, key });
        if !lease.cached {
            res.dereg_mr(ctx, &lease.mr);
            self.stats.deregistered += 1;
            self.trace.record(|| TraceEvent::MrDeregister { rank, key });
            return;
        }
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.mr.key() == lease.mr.key())
            .expect("released lease not in cache (double release?)");
        debug_assert!(e.pins > 0, "unpinning an unpinned entry");
        e.pins = e.pins.saturating_sub(1);
    }

    /// Drop every unpinned entry whose registration is no longer live on
    /// the HCA — bulk flush after a control-epoch bump (daemon respawn or
    /// lease loss). Returns how many entries were invalidated.
    pub(crate) fn invalidate_dead(&mut self, res: &Resources) -> usize {
        let rank = self.rank;
        let trace = self.trace.clone();
        let mut dropped = 0usize;
        self.entries.retain(|e| {
            if e.pins == 0 && !res.mr_live(e.mr.key()) {
                let key = e.mr.key().0;
                trace.record(|| TraceEvent::MrInvalidated { rank, key });
                dropped += 1;
                false
            } else {
                true
            }
        });
        self.stats.invalidated += dropped as u64;
        self.stats.deregistered += dropped as u64;
        dropped
    }

    /// Drop everything (finalize). All leases must be released first.
    pub fn clear(&mut self, ctx: &mut Ctx, res: &Resources) {
        let rank = self.rank;
        for e in self.entries.drain(..) {
            debug_assert_eq!(e.pins, 0, "finalize with a pinned MR lease outstanding");
            res.dereg_mr(ctx, &e.mr);
            self.stats.deregistered += 1;
            let key = e.mr.key().0;
            self.trace.record(|| TraceEvent::MrDeregister { rank, key });
        }
    }

    /// Number of cached regions (ablation instrumentation).
    pub fn cached_regions(&self) -> usize {
        self.entries.len()
    }

    /// Regions currently pinned by outstanding leases.
    pub fn pinned_regions(&self) -> usize {
        self.entries.iter().filter(|e| e.pins > 0).count()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A pinned claim on an offload twin, mirroring [`MrLease`]: holds the
/// Phi-side range and host-side MR of the twin for the duration of one
/// rendezvous transfer.
#[must_use = "release the lease once the transfer completes"]
pub struct OffloadLease {
    /// Phi-side registered range the twin shadows.
    pub phi: Buffer,
    /// Host twin memory region (the RDMA source).
    pub host_mr: MemoryRegion,
    cached: bool,
}

struct OffloadEntry {
    /// Memory space of the Phi-side range (see [`Entry::mem`]).
    mem: MemRef,
    addr: u64,
    len: u64,
    omr: OffloadMr,
    last_use: u64,
    pins: u32,
}

/// LRU cache of offloading twin buffers keyed by the Phi-side range.
/// Like [`MrCache`], a lookup hits when a cached twin's Phi range
/// *contains* the requested range, and pinned twins are never evicted.
pub struct OffloadCache {
    capacity: usize,
    entries: Vec<OffloadEntry>,
    clock: u64,
    pub(crate) stats: CacheStats,
    trace: Trace,
    metrics: Metrics,
    rank: Rank,
}

impl OffloadCache {
    pub fn new(capacity: usize) -> Self {
        OffloadCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
            trace: Trace::default(),
            metrics: Metrics::default(),
            rank: 0,
        }
    }

    pub(crate) fn set_trace(&mut self, trace: Trace, rank: Rank) {
        self.trace = trace;
        self.rank = rank;
    }

    pub(crate) fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Find or create the twin covering `buf`, bump LRU, and return its
    /// index. Containment test like the MR cache: a twin spanning a
    /// larger Phi range serves any sub-range. A hit on a twin the daemon
    /// already reclaimed (twins die with a crashed delegation process) is
    /// invalidated and recreated. `None` when the daemon cannot provide a
    /// twin — the caller degrades to the direct path.
    fn lookup(&mut self, ctx: &mut Ctx, res: &Resources, buf: &Buffer) -> Option<usize> {
        self.clock += 1;
        let clock = self.clock;
        let rank = self.rank;
        if let Some(i) = self.entries.iter().position(|e| {
            e.mem == buf.mem && e.addr <= buf.addr && buf.addr + buf.len <= e.addr + e.len
        }) {
            let live = self.entries[i].pins > 0 || res.mr_live(self.entries[i].omr.host_mr.key());
            if live {
                self.entries[i].last_use = clock;
                self.stats.hits += 1;
                return Some(i);
            }
            let dead = self.entries.swap_remove(i);
            self.stats.invalidated += 1;
            self.stats.deregistered += 1;
            let key = dead.omr.host_mr.key().0;
            self.trace
                .record(|| TraceEvent::MrInvalidated { rank, key });
        }
        self.stats.misses += 1;
        let reg_start = self.metrics.start(|| ctx.now());
        let omr = res.reg_offload(ctx, buf)?;
        self.metrics
            .record_since(reg_start, || ctx.now(), Phase::MrRegister, buf.len, None);
        self.stats.registered += 1;
        let key = omr.host_mr.key().0;
        self.trace.record(|| TraceEvent::MrRegister {
            rank,
            key,
            addr: buf.addr,
            len: buf.len,
            cached: true,
        });
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i);
            // All pinned: grow past capacity rather than tear down a twin
            // mid-transfer (shrinks back as pins release and LRU churns).
            if let Some(i) = lru {
                let evicted = self.entries.swap_remove(i);
                let ekey = evicted.omr.host_mr.key().0;
                res.dereg_offload(ctx, evicted.omr);
                self.stats.evictions += 1;
                self.stats.deregistered += 1;
                self.trace
                    .record(|| TraceEvent::MrEvict { rank, key: ekey });
            }
        }
        self.entries.push(OffloadEntry {
            mem: buf.mem,
            addr: buf.addr,
            len: buf.len,
            omr,
            last_use: clock,
            pins: 0,
        });
        Some(self.entries.len() - 1)
    }

    /// Get (or create) the offload twin for a Phi buffer without pinning
    /// it. The returned reference stays valid until the next call. `None`
    /// when the daemon cannot provide a twin — callers fall back to the
    /// direct path.
    pub fn get_or_create(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        buf: &Buffer,
    ) -> Option<&OffloadMr> {
        let i = self.lookup(ctx, res, buf)?;
        Some(&self.entries[i].omr)
    }

    /// Acquire a pinned twin covering `buf` for one rendezvous transfer.
    /// `None` when the twin cannot be (re)created — the send degrades to
    /// sourcing the Phi buffer directly.
    pub fn try_acquire(
        &mut self,
        ctx: &mut Ctx,
        res: &Resources,
        buf: &Buffer,
    ) -> Option<OffloadLease> {
        let i = self.lookup(ctx, res, buf)?;
        let e = &mut self.entries[i];
        e.pins += 1;
        let rank = self.rank;
        let key = e.omr.host_mr.key().0;
        self.trace.record(|| TraceEvent::MrPin { rank, key });
        Some(OffloadLease {
            phi: e.omr.phi.clone(),
            host_mr: e.omr.host_mr.clone(),
            cached: true,
        })
    }

    /// Release a lease obtained from [`OffloadCache::try_acquire`].
    pub fn release(&mut self, _ctx: &mut Ctx, _res: &Resources, lease: OffloadLease) {
        let rank = self.rank;
        let key = lease.host_mr.key().0;
        self.trace.record(|| TraceEvent::MrUnpin { rank, key });
        debug_assert!(lease.cached);
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.omr.host_mr.key() == lease.host_mr.key())
            .expect("released offload lease not in cache");
        debug_assert!(e.pins > 0, "unpinning an unpinned twin");
        e.pins = e.pins.saturating_sub(1);
    }

    /// Drop every unpinned twin whose host-side registration is no longer
    /// live — twins die with a crashed daemon, so this flushes the whole
    /// cache after a control-epoch bump. Returns how many were dropped.
    pub(crate) fn invalidate_dead(&mut self, res: &Resources) -> usize {
        let rank = self.rank;
        let trace = self.trace.clone();
        let mut dropped = 0usize;
        self.entries.retain(|e| {
            if e.pins == 0 && !res.mr_live(e.omr.host_mr.key()) {
                let key = e.omr.host_mr.key().0;
                trace.record(|| TraceEvent::MrInvalidated { rank, key });
                dropped += 1;
                false
            } else {
                true
            }
        });
        self.stats.invalidated += dropped as u64;
        self.stats.deregistered += dropped as u64;
        dropped
    }

    pub fn clear(&mut self, ctx: &mut Ctx, res: &Resources) {
        let rank = self.rank;
        for e in self.entries.drain(..) {
            debug_assert_eq!(
                e.pins, 0,
                "finalize with a pinned offload lease outstanding"
            );
            let key = e.omr.host_mr.key().0;
            res.dereg_offload(ctx, e.omr);
            self.stats.deregistered += 1;
            self.trace.record(|| TraceEvent::MrDeregister { rank, key });
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}
