//! Latency histograms and span-based phase profiling.
//!
//! The paper's central claims are latency claims — the Eager/Rendezvous
//! crossover, the >4× Phi→HCA DMA-read penalty, the offload-send recovery —
//! so the reproduction needs latency *distributions*, not just counters.
//! This module provides:
//!
//! * [`Histogram`] — a lock-free log₂-bucketed latency histogram. Recording
//!   touches only atomics (no locks, no allocation); snapshots are plain
//!   values that merge across ranks and answer p50/p90/p99/max queries in
//!   virtual-clock nanoseconds.
//! * [`Span`] — attributes a message's lifetime to a [`Phase`]
//!   (`EagerCopy`, `RtsWait`, `RndvRead`, …), keyed by (phase, size-class,
//!   peer). Asynchronous protocol stages open a span when the stage starts
//!   and close it when the matching completion resolves the request.
//! * [`MetricsHub`] — the shared registry a `World` hands to every rank's
//!   engine; the exporter drains it into the versioned JSON report.
//! * [`Metrics`] — the per-engine handle, mirroring
//!   [`crate::trace::Trace`]: with no hub attached every call is a branch
//!   on `None`.
//!
//! Percentiles are computed by inverting the piecewise-linear CDF over the
//! bucket boundaries. Because every histogram shares the same knots, the
//! merged CDF is a weighted average of the parts' CDFs, which guarantees
//! that a merged percentile always lies between the parts' percentiles —
//! a property the proptests in `tests/metrics_prop.rs` pin down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simcore::SimTime;

use crate::types::Rank;

/// Number of log₂ buckets: bucket 0 holds `[0, 2)` ns, bucket `i ≥ 1`
/// holds `[2^i, 2^(i+1))` ns, bucket 63 absorbs everything above.
pub const BUCKETS: usize = 64;

/// A profiled protocol phase. `name`/`parse` round-trip through the JSON
/// report, so renaming a variant is a schema change (bump the report
/// version in `bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Whole eager send: MPI call to remote-ring WRITE completion.
    Eager,
    /// The one copy of an eager send: user buffer → staging slot.
    EagerCopy,
    /// Sender-first rendezvous: RTS issued until DONE (or NACK) arrives.
    RtsWait,
    /// Receiver-side RDMA READ of the source buffer (sender-first rndv).
    RndvRead,
    /// Sender-side RDMA WRITE into the receiver buffer (receiver-first).
    RndvWrite,
    /// Memory registration on an MR-cache miss (Phi-side: delegated).
    MrRegister,
    /// Offloading send buffer: Phi→host twin DMA sync before the send.
    OffloadSync,
    /// One reliable command round-trip on the SCIF control channel.
    CtrlRoundtrip,
    /// Exponential backoff slept before a work-request retry.
    Backoff,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 9] = [
        Phase::Eager,
        Phase::EagerCopy,
        Phase::RtsWait,
        Phase::RndvRead,
        Phase::RndvWrite,
        Phase::MrRegister,
        Phase::OffloadSync,
        Phase::CtrlRoundtrip,
        Phase::Backoff,
    ];

    /// Stable wire name used in the JSON report.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Eager => "Eager",
            Phase::EagerCopy => "EagerCopy",
            Phase::RtsWait => "RtsWait",
            Phase::RndvRead => "RndvRead",
            Phase::RndvWrite => "RndvWrite",
            Phase::MrRegister => "MrRegister",
            Phase::OffloadSync => "OffloadSync",
            Phase::CtrlRoundtrip => "CtrlRoundtrip",
            Phase::Backoff => "Backoff",
        }
    }

    /// Inverse of [`Phase::name`] (used by the report comparator).
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Log₂ size class of a message: `0` for 0–1 bytes, else `floor(log₂ n)`.
pub fn size_class(bytes: u64) -> u8 {
    if bytes < 2 {
        0
    } else {
        (63 - bytes.leading_zeros()) as u8
    }
}

/// Histogram identity: one time series per (phase, size-class, peer).
/// `peer: None` aggregates samples that have no meaningful peer (control
/// round-trips, backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    pub phase: Phase,
    pub size_class: u8,
    pub peer: Option<Rank>,
}

/// Lock-free log₂-bucketed latency histogram. All updates are relaxed
/// atomic RMWs — concurrent recorders never block each other, and a
/// snapshot taken mid-record is merely one sample stale, never torn into
/// an impossible state (each counter is monotone).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Bucket index for a sample: `floor(log₂ v)`, with 0 and 1 sharing
    /// bucket 0 (a u64 cannot exceed bucket 63, so no clamp is needed).
    pub fn bucket_index(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            (63 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Exclusive upper bound of bucket `i` (as f64 so bucket 63's bound,
    /// 2⁶⁴, is representable).
    pub fn bucket_hi(i: usize) -> f64 {
        (i as f64 + 1.0).exp2()
    }

    /// Record one latency sample in virtual-clock nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
    }

    /// One-pass snapshot. Counters are monotone, so the result is always a
    /// *valid* histogram; under concurrent recording it may lag the live
    /// counters by in-flight samples (`count` can trail the bucket sums or
    /// vice versa by the records that raced the pass).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Acquire)),
            count: self.count.load(Ordering::Acquire),
            sum: self.sum.load(Ordering::Acquire),
            max: self.max.load(Ordering::Acquire),
            min: self.min.load(Ordering::Acquire),
        }
    }
}

/// Plain-value histogram state: mergeable across ranks, queryable for
/// percentiles, serializable by the bench exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `u64::MAX` when empty.
    pub min: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Build a snapshot from raw samples (test/replay helper).
    pub fn from_samples(samples: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    /// Element-wise merge. Associative and commutative: buckets and sums
    /// add, extrema combine with min/max.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
            min: self.min.min(other.min),
        }
    }

    /// The `p`-th percentile (0–100) in virtual ns, by inverting the
    /// piecewise-linear CDF over the bucket boundaries. Returns 0 for an
    /// empty histogram. The estimate is exact up to bucket resolution
    /// (relative error < 1 bucket width).
    ///
    /// The result is always clamped to the observed `[min, max]` range:
    /// within-bucket interpolation can otherwise extrapolate past any
    /// recorded sample — catastrophically so in bucket 63, whose upper
    /// bound is 2⁶⁴ — and a mid-flight snapshot whose `count` leads the
    /// bucket sums can fall off the end of the CDF entirely. A percentile
    /// of real samples can never exceed the largest one.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        let mut raw = self.max as f64;
        for i in 0..BUCKETS {
            let c = self.buckets[i];
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let lo = Histogram::bucket_lo(i) as f64;
                let hi = Histogram::bucket_hi(i);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                raw = lo + frac * (hi - lo);
                break;
            }
            cum += c;
        }
        // `min` can still be unset (u64::MAX) in a snapshot that raced
        // `record`, and `max` can trail `min` the same way, so clamp with
        // max-then-min rather than `f64::clamp` (which panics on an
        // inverted range); when the bounds cross, the observed `max` wins.
        let lo_bound = if self.min == u64::MAX {
            0.0
        } else {
            self.min as f64
        };
        raw.max(lo_bound).min(self.max as f64)
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// An open span: a protocol stage in flight. Carried in the engine's
/// open-span side table until the matching completion (or failure)
/// resolves the request — protocol stages are asynchronous, so RAII guards
/// cannot model them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub phase: Phase,
    /// Message/request id the span is attributed to.
    pub id: u64,
    pub bytes: u64,
    pub peer: Option<Rank>,
    pub start: SimTime,
}

impl Span {
    /// Open a span on `phase` at virtual time `start`.
    pub fn begin(phase: Phase, id: u64, bytes: u64, peer: Option<Rank>, start: SimTime) -> Span {
        Span {
            phase,
            id,
            bytes,
            peer,
            start,
        }
    }

    /// Close the span, yielding its (key, elapsed-ns) sample.
    pub fn end(self, now: SimTime) -> (MetricKey, u64) {
        (
            MetricKey {
                phase: self.phase,
                size_class: size_class(self.bytes),
                peer: self.peer,
            },
            now.since(self.start).as_nanos(),
        )
    }
}

#[derive(Debug, Default)]
struct HubInner {
    hists: HashMap<MetricKey, Arc<Histogram>>,
}

/// Shared metrics registry: one per measured run, cloned into every
/// rank's engine. The map is guarded by a mutex only for histogram
/// *creation* (first sample per key); recording into an existing
/// histogram holds the lock just long enough to clone its `Arc`, and the
/// atomic update itself is lock-free.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
}

impl MetricsHub {
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Get-or-create the histogram for `key`.
    pub fn histogram(&self, key: MetricKey) -> Arc<Histogram> {
        self.inner
            .lock()
            .hists
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Record one sample under (phase, size-class of `bytes`, peer).
    pub fn record(&self, phase: Phase, bytes: u64, peer: Option<Rank>, ns: u64) {
        self.record_key(
            MetricKey {
                phase,
                size_class: size_class(bytes),
                peer,
            },
            ns,
        );
    }

    pub fn record_key(&self, key: MetricKey, ns: u64) {
        self.histogram(key).record(ns);
    }

    /// Snapshot every histogram, sorted by key for deterministic output.
    pub fn snapshot(&self) -> Vec<(MetricKey, HistogramSnapshot)> {
        let mut out: Vec<(MetricKey, HistogramSnapshot)> = self
            .inner
            .lock()
            .hists
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Per-phase roll-up: all size classes and peers merged, sorted by
    /// phase, empty phases omitted.
    pub fn merged_by_phase(&self) -> Vec<(Phase, HistogramSnapshot)> {
        let mut by_phase: HashMap<Phase, HistogramSnapshot> = HashMap::new();
        for (key, snap) in self.snapshot() {
            let entry = by_phase.entry(key.phase).or_default();
            *entry = entry.merge(&snap);
        }
        let mut out: Vec<(Phase, HistogramSnapshot)> = by_phase
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

/// The per-engine metrics handle. Mirrors [`crate::trace::Trace`]: with
/// no hub attached, each call is one branch on `None`. Closures defer
/// `ctx.now()` so a detached handle never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    hub: Option<MetricsHub>,
}

impl Metrics {
    /// Attach a hub; subsequent calls record into it.
    pub fn attach(&mut self, hub: MetricsHub) {
        self.hub = Some(hub);
    }

    pub fn enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// Start timing a synchronous section: `Some(now)` when metrics are
    /// live, `None` (and the clock untouched) otherwise.
    #[inline]
    pub fn start(&self, now: impl FnOnce() -> SimTime) -> Option<SimTime> {
        self.hub.as_ref().map(|_| now())
    }

    /// Close a [`Metrics::start`] section, attributing the elapsed virtual
    /// time to `phase`. No-op if `start` was `None`.
    #[inline]
    pub fn record_since(
        &self,
        start: Option<SimTime>,
        now: impl FnOnce() -> SimTime,
        phase: Phase,
        bytes: u64,
        peer: Option<Rank>,
    ) {
        if let (Some(hub), Some(t0)) = (&self.hub, start) {
            hub.record(phase, bytes, peer, now().since(t0).as_nanos());
        }
    }

    /// Record an already-measured duration (used by the control-plane
    /// perf probe, which reports elapsed ns across the crate boundary).
    #[inline]
    pub fn record_ns(&self, phase: Phase, bytes: u64, peer: Option<Rank>, ns: u64) {
        if let Some(hub) = &self.hub {
            hub.record(phase, bytes, peer, ns);
        }
    }

    /// Open a span for an asynchronous protocol stage. Returns `None`
    /// when metrics are off; the caller stores the span in its open-span
    /// table and must close it exactly once via [`Metrics::span_end`].
    #[inline]
    pub fn span_begin(
        &self,
        phase: Phase,
        id: u64,
        bytes: u64,
        peer: Option<Rank>,
        now: impl FnOnce() -> SimTime,
    ) -> Option<Span> {
        self.hub
            .as_ref()
            .map(|_| Span::begin(phase, id, bytes, peer, now()))
    }

    /// Close a span, recording its lifetime.
    #[inline]
    pub fn span_end(&self, span: Span, now: impl FnOnce() -> SimTime) {
        if let Some(hub) = &self.hub {
            let (key, ns) = span.end(now());
            hub.record_key(key, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 holds 0 and 1; bucket i ≥ 1 holds [2^i, 2^(i+1)).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(7), 2);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        for i in 1..BUCKETS {
            let lo = Histogram::bucket_lo(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(lo - 1), i - 1, "below bucket {i}");
        }
    }

    #[test]
    fn bucket_bounds_round_trip() {
        // [lo, hi) tiles the u64 range: each bucket's hi is the next
        // bucket's lo, lo < hi, and the bounds re-index into the bucket
        // they delimit. Bucket 63's hi is 2^64, representable only as f64
        // — the reason bucket_hi returns one.
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_hi(0), 2.0);
        for i in 0..BUCKETS {
            let (lo, hi) = (Histogram::bucket_lo(i), Histogram::bucket_hi(i));
            assert!((lo as f64) < hi, "bucket {i} is non-empty");
            assert_eq!(Histogram::bucket_index(lo), i, "lo re-indexes into {i}");
            if i + 1 < BUCKETS {
                assert_eq!(
                    hi,
                    Histogram::bucket_lo(i + 1) as f64,
                    "hi({i}) == lo({})",
                    i + 1
                );
                assert_eq!(Histogram::bucket_index(hi as u64), i + 1, "hi is exclusive");
            } else {
                assert_eq!(hi, 2.0f64.powi(64), "last bucket's bound is 2^64");
            }
        }
    }

    #[test]
    fn record_and_snapshot_basics() {
        let h = Histogram::new();
        for v in [0, 1, 5, 5, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_011);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.buckets[0], 2); // 0, 1
        assert_eq!(s.buckets[2], 2); // 5, 5
        assert_eq!(s.buckets[9], 1); // 1000
        assert_eq!(s.buckets[19], 1); // 1_000_000
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn empty_snapshot() {
        let s = HistogramSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        // Merging with an empty histogram is the identity.
        let a = HistogramSnapshot::from_samples(&[3, 9, 27]);
        assert_eq!(a.merge(&s), a);
        assert_eq!(s.merge(&a), a);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = HistogramSnapshot::from_samples(&[1, 2, 3, 100]);
        let b = HistogramSnapshot::from_samples(&[50, 60, 70]);
        let c = HistogramSnapshot::from_samples(&[7, 7_000, 70_000_000]);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let abc = a.merge(&b).merge(&c);
        assert_eq!(abc.count, 10);
        assert_eq!(abc.min, 1);
        assert_eq!(abc.max, 70_000_000);
    }

    #[test]
    fn percentile_interpolation() {
        // 100 samples spread uniformly in bucket 10 ([1024, 2048)):
        // the CDF is linear across the bucket, so p50 ≈ the midpoint.
        let samples: Vec<u64> = (0..100).map(|i| 1024 + i * 10).collect();
        let s = HistogramSnapshot::from_samples(&samples);
        let p50 = s.p50();
        assert!((p50 - 1536.0).abs() < 16.0, "p50 = {p50}");
        // All mass in one bucket: p0 → the smallest sample, p100 → the
        // largest (not the bucket bounds — percentiles never extrapolate
        // past observed samples).
        assert!((s.percentile(0.0) - 1024.0).abs() < 1e-9);
        assert!((s.percentile(100.0) - 2014.0).abs() < 1e-9);
        // Percentiles are monotone in p.
        let mut last = -1.0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            assert!(v >= last, "percentile({p}) regressed");
            last = v;
        }
    }

    #[test]
    fn percentile_across_buckets() {
        // 90 tiny samples and 10 huge ones: p50 stays in the small bucket,
        // p99 lands in the large one.
        let mut samples = vec![4u64; 90];
        samples.extend(std::iter::repeat_n(1 << 20, 10));
        let s = HistogramSnapshot::from_samples(&samples);
        assert!(s.p50() < 8.0, "p50 = {}", s.p50());
        assert!(s.p99() >= (1 << 20) as f64, "p99 = {}", s.p99());
        assert!(s.p99() < (1 << 21) as f64, "p99 = {}", s.p99());
    }

    #[test]
    fn percentile_clamps_to_observed_range() {
        // Samples clustered mid-bucket: interpolation toward the bucket's
        // upper bound would exceed every sample; the observed max caps it.
        let s = HistogramSnapshot::from_samples(&[5000; 100]);
        for p in [50.0, 90.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), 5000.0, "p{p}");
        }
        // Low side symmetrically: p0 is the smallest sample, not the
        // bucket's lower bound.
        let s = HistogramSnapshot::from_samples(&[100, 100]);
        assert_eq!(s.percentile(0.0), 100.0);
    }

    #[test]
    fn percentile_bucket_63_does_not_extrapolate() {
        // Bucket 63's upper bound is 2⁶⁴; interpolation used to run the
        // p100 of a single sample at 2⁶³ up to twice its value.
        let top = 1u64 << 63;
        let s = HistogramSnapshot::from_samples(&[top]);
        assert_eq!(s.percentile(50.0), top as f64);
        assert_eq!(s.percentile(100.0), top as f64);
        // Mixed with a small sample, high percentiles stay <= max.
        let s = HistogramSnapshot::from_samples(&[1, top]);
        assert!(s.percentile(99.0) <= top as f64);
        assert_eq!(s.percentile(100.0), top as f64);
    }

    #[test]
    fn percentile_mid_flight_snapshots() {
        // A snapshot can race `record`: `count` may lead the bucket sums
        // (count read after the bucket pass) or trail them, and min/max
        // may not have landed yet. Percentiles must stay inside whatever
        // range *was* observed — never panic, never extrapolate.
        let mut s = HistogramSnapshot::default();
        // count leads the bucket sums: the CDF walk falls off the end.
        s.buckets[Histogram::bucket_index(2100)] = 1;
        s.count = 4;
        s.max = 2100;
        s.min = 2100;
        assert_eq!(s.percentile(100.0), 2100.0);
        // A partial landing inside the last bucket clamps to max too.
        assert!(s.percentile(20.0) <= 2100.0);
        // count trails the bucket sums (records raced in after the count
        // read): targets are smaller, result still within [min, max].
        s.count = 1;
        assert!(s.percentile(50.0) >= 2048.0 && s.percentile(50.0) <= 2100.0);
        // min not yet recorded (still the u64::MAX sentinel): the clamp
        // must not treat it as a lower bound.
        let mut s = HistogramSnapshot::default();
        s.buckets[0] = 1;
        s.count = 1;
        s.max = 1;
        assert!(s.percentile(50.0) <= 1.0);
    }

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(8192), 13);
        assert_eq!(size_class(65536), 16);
        // Exact powers of two open their class; one below stays in the
        // previous one.
        for p in 1..64u32 {
            let v = 1u64 << p;
            assert_eq!(size_class(v), p as u8, "2^{p}");
            assert_eq!(size_class(v - 1), (p - 1) as u8, "2^{p} - 1");
            if v < u64::MAX {
                assert_eq!(size_class(v + 1), p as u8, "2^{p} + 1");
            }
        }
        assert_eq!(size_class(u64::MAX), 63);
        // Around the default eager threshold (8 KiB): crossing it does
        // not skip a class, so eager and rendezvous latencies straddling
        // the cutover land in adjacent histograms, not the same one.
        let eager = crate::MpiConfig::dcfa().eager_threshold;
        assert_eq!(eager, 8192);
        assert_eq!(size_class(eager - 1), 12);
        assert_eq!(size_class(eager), 13);
        assert_eq!(size_class(eager + 1), 13);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
        }
        assert_eq!(Phase::parse("NotAPhase"), None);
    }

    #[test]
    fn hub_snapshot_sorted_and_merged() {
        let hub = MetricsHub::new();
        hub.record(Phase::RndvRead, 65536, Some(1), 5_000);
        hub.record(Phase::Eager, 512, Some(1), 900);
        hub.record(Phase::Eager, 512, Some(2), 1_100);
        hub.record(Phase::Eager, 64, Some(1), 400);
        let snap = hub.snapshot();
        assert_eq!(snap.len(), 4);
        let keys: Vec<MetricKey> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let phases = hub.merged_by_phase();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, Phase::Eager);
        assert_eq!(phases[0].1.count, 3);
        assert_eq!(phases[1].0, Phase::RndvRead);
        assert_eq!(phases[1].1.count, 1);
    }

    #[test]
    fn span_end_attributes_elapsed_time() {
        let span = Span::begin(Phase::RtsWait, 7, 65536, Some(3), SimTime(1_000));
        let (key, ns) = span.end(SimTime(43_000));
        assert_eq!(ns, 42_000);
        assert_eq!(key.phase, Phase::RtsWait);
        assert_eq!(key.size_class, 16);
        assert_eq!(key.peer, Some(3));
    }

    #[test]
    fn metrics_handle_gates_on_attachment() {
        let m = Metrics::default();
        assert!(!m.enabled());
        // Unattached: closures never run, spans never open.
        assert_eq!(m.start(|| unreachable!()), None);
        assert!(m
            .span_begin(Phase::Eager, 1, 64, None, || unreachable!())
            .is_none());

        let hub = MetricsHub::new();
        let mut m = Metrics::default();
        m.attach(hub.clone());
        assert!(m.enabled());
        let t0 = m.start(|| SimTime(10));
        m.record_since(t0, || SimTime(25), Phase::EagerCopy, 512, Some(1));
        let span = m
            .span_begin(Phase::Eager, 9, 512, Some(1), || SimTime(10))
            .expect("span opens when attached");
        m.span_end(span, || SimTime(110));
        let phases = hub.merged_by_phase();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, Phase::Eager);
        assert_eq!(phases[0].1.sum, 100);
        assert_eq!(phases[1].0, Phase::EagerCopy);
        assert_eq!(phases[1].1.sum, 15);
    }
}
