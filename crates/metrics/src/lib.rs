//! # `jim-metrics` — lock-cheap observability primitives
//!
//! Zero-dependency metrics for the JIM server and its load driver:
//!
//! * [`Counter`] — monotonically increasing `u64`, relaxed atomics.
//! * [`Gauge`] — instantaneous `i64` level (connections, queue depth).
//! * [`Histogram`] — fixed-bucket log-scale latency histogram in the
//!   HDR spirit: 32 linear sub-buckets per power-of-two octave, ≤ ~3.2%
//!   relative error, p50/p90/p99/max readout, exact max.
//! * [`HistogramSnapshot`] — a dense, mergeable copy of a histogram;
//!   merging per-thread snapshots is bit-identical to recording every
//!   sample into one histogram (property-tested).
//!
//! Callers hold these as typed fields of their own metrics tables; there
//! is no name-keyed lookup and no lock. Everything on the hot path is a
//! handful of `Relaxed` atomic ops; a snapshot is a point-in-time copy
//! that may be minutely torn under concurrent writers (counts and sums
//! race by design — observability, not accounting).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level: connections, queue depth, resident sessions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Move the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^5 = 32 linear buckets per octave.
const SUB_BITS: u32 = 5;
/// Buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Largest tracked exponent; values at or above 2^(MAX_EXP+1) clamp.
/// 2^42 µs ≈ 51 days — far beyond any latency this records.
const MAX_EXP: u32 = 41;
/// Largest exactly-representable clamp point.
const MAX_TRACKABLE: u64 = (1 << (MAX_EXP + 1)) - 1;
/// Total bucket count: one linear run of 32, then 32 per octave for
/// exponents 5..=41.
pub const BUCKETS: usize = SUBS + (MAX_EXP - SUB_BITS + 1) as usize * SUBS;

/// The bucket a value lands in. Values below 32 map exactly; above, the
/// top 5 bits after the leading 1 select a sub-bucket, bounding relative
/// error by 1/32.
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        return value as usize;
    }
    let v = value.min(MAX_TRACKABLE);
    let e = 63 - v.leading_zeros();
    let sub = ((v >> (e - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + (e - SUB_BITS) as usize * SUBS + sub
}

/// The largest value that lands in bucket `index` (inclusive upper bound).
fn bucket_high(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let rel = index - SUBS;
    let e = (rel / SUBS) as u32 + SUB_BITS;
    let sub = (rel % SUBS) as u64;
    let width = 1u64 << (e - SUB_BITS);
    (1u64 << e) + (sub + 1) * width - 1
}

/// A concurrent log-scale histogram. Recording is three relaxed
/// `fetch_add`s and one `fetch_max`; reading is via [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (~10 KiB of buckets).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds — the unit every latency
    /// histogram in this workspace uses.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A dense point-in-time copy, safe to merge with other snapshots.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|bucket| bucket.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A dense, owned copy of a [`Histogram`]. Snapshots merge associatively
/// and commutatively: merging per-thread snapshots equals recording all
/// samples into a single histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot of zero samples — the merge identity.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Fold `other`'s samples into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.wrapping_add(*b);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest sample, 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]` — the upper bound of the bucket
    /// holding the ⌈q·n⌉-th smallest sample, clamped to the exact max.
    /// 0 if empty. Values below 32 are exact; above, within ~3.2%.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        if rank == total {
            // The top-ranked sample is the max itself — exact even when
            // the sample overflowed into the clamped last bucket.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn buckets_are_exact_below_32() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_at_octave_edges() {
        // First log octave (32..64) still has width-1 buckets.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_high(63), 63);
        // Second octave (64..128) has width-2 buckets.
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64);
        assert_eq!(bucket_index(66), 65);
        assert_eq!(bucket_high(64), 65);
        assert_eq!(bucket_index(127), 95);
        assert_eq!(bucket_high(95), 127);
        assert_eq!(bucket_index(128), 96);
    }

    #[test]
    fn bucket_index_is_monotone_and_tight() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < MAX_TRACKABLE / 2 {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index regressed at {v}");
            prev = i;
            let high = bucket_high(i);
            assert!(high >= v, "v={v} above its bucket bound {high}");
            // Relative error bound: bucket width ≤ v / 32 (+1 for rounding).
            assert!(high - v <= v / 32 + 1, "v={v} bound {high} too loose");
            v = v * 2 + 1;
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(MAX_TRACKABLE), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.max(), u64::MAX);
        assert_eq!(s.quantile(0.5), u64::MAX); // clamped to the exact max
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // quantile() clamps to the exact recorded max, so any one-sample
        // histogram reads back its value exactly at every quantile.
        for v in [0, 1, 31, 32, 63, 64, 1000, 123_456_789] {
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(s.quantile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn percentiles_of_1_to_100() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.max(), 100);
        assert_eq!(s.mean(), 50.5);
        // 1..=63 are exact; above that buckets have width 2, so the
        // readout is the bucket's upper bound.
        assert_eq!(s.p50(), 50);
        assert_eq!(s.p90(), 91); // 90 lands in bucket [90, 91]
        assert_eq!(s.p99(), 99); // 99 lands in bucket [98, 99]
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1);
    }

    #[test]
    fn quantiles_track_exact_within_bound() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 37); // spread over several octaves
        }
        let s = h.snapshot();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = ((q * 10_000f64).ceil() as u64 - 1) * 37;
            let got = s.quantile(q);
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(got - exact <= exact / 16 + 1, "q={q}: {got} vs {exact}");
        }
    }

    #[test]
    fn empty_snapshot_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn merge_identity_and_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 50, 700] {
            a.record(v);
        }
        for v in [9u64, 50, 123_456] {
            b.record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        let all = Histogram::new();
        for v in [3u64, 50, 700, 9, 50, 123_456] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot());
    }
}
