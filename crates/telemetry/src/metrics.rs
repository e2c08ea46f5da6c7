//! Atomic metric primitives and the process-global registry.
//!
//! Histograms use a log-bucketed HDR scheme: every power-of-two octave is
//! split into [`SUB_COUNT`] linear sub-buckets, so any recorded value
//! lands in a bucket whose width is at most [`MAX_RELATIVE_ERROR`] of its
//! lower bound. Quantiles read the bucket **upper** bound (clamped to the
//! recorded maximum), which yields the two-sided guarantee
//!
//! ```text
//! true ≤ reported ≤ true × (1 + MAX_RELATIVE_ERROR)
//! ```
//!
//! for every quantile, at every scale from 1 ns to `u64::MAX`. The bucket
//! mapping is a pure function of the value, so histograms recorded on
//! different threads (or in different processes) merge by adding bucket
//! counts — merge order can never change a quantile, which is what the
//! `hdr_merge` property suite pins.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &str) -> Self {
        Counter {
            name: name.to_string(),
            value: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds one (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous level (queue depth, outstanding work, …).
#[derive(Debug)]
pub struct Gauge {
    name: String,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: &str) -> Self {
        Gauge {
            name: name.to_string(),
            value: AtomicI64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the level (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta (no-op while disabled).
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An `f64` level stored as atomic bits (convergence residuals, rates).
#[derive(Debug)]
pub struct FloatGauge {
    name: String,
    bits: AtomicU64,
}

impl FloatGauge {
    fn new(name: &str) -> Self {
        FloatGauge {
            name: name.to_string(),
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the level (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the level to `v` if `v` is greater (no-op while disabled).
    #[inline]
    pub fn set_max(&self, v: f64) {
        if crate::enabled() {
            self.bits.fetch_max(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Drop guard of [`Histogram::start_timer`]: records the elapsed
/// nanoseconds between construction and drop.
#[must_use = "a histogram timer measures the scope it is bound to; dropping it immediately records a zero-length sample"]
#[derive(Debug)]
pub struct HistogramTimer {
    histogram: &'static Histogram,
    started: Option<std::time::Instant>,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            self.histogram.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// log₂ of the sub-buckets per octave.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave.
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count: indices `0..SUB_COUNT` hold the exact values
/// `0..SUB_COUNT`, then one group of [`SUB_COUNT`] buckets per octave up
/// to `2^64`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_COUNT;

/// Worst-case relative width of any bucket: `1 / SUB_COUNT`. A reported
/// quantile exceeds the true sample value by at most this fraction.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB_COUNT as f64;

/// Bucket index for a sample (pure, so per-thread histograms merge by
/// adding counts).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    octave * SUB_COUNT + sub
}

/// `(lower, upper)` inclusive value bounds of bucket `index`.
///
/// Buckets below [`SUB_COUNT`] are exact (`lower == upper == index`);
/// above, each bucket spans `2^(octave-1)` values starting at
/// `(SUB_COUNT + sub) · 2^(octave-1)`, so `width / lower ≤
/// `[`MAX_RELATIVE_ERROR`].
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_COUNT {
        return (index as u64, index as u64);
    }
    let octave = (index / SUB_COUNT) as u32;
    let sub = (index % SUB_COUNT) as u64;
    let width = 1u64 << (octave - 1);
    let lower = (SUB_COUNT as u64 + sub).wrapping_mul(width);
    (lower, lower.wrapping_add(width - 1))
}

/// Nearest-rank quantile over a sparse `(bucket index, count)` list
/// (sorted by index), reported as the bucket upper bound clamped to the
/// recorded maximum.
fn quantile_sparse(buckets: &[(u16, u64)], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for &(i, n) in buckets {
        seen += n;
        if seen >= rank {
            return bucket_bounds(i as usize).1.min(max);
        }
    }
    max
}

/// A fixed-bucket, log-bucketed HDR histogram of `u64` samples (shared,
/// atomic — see the module docs for the bucket scheme and error bound).
///
/// Recording is two relaxed atomic adds plus an atomic max — no locks, no
/// allocation — so it is safe in simulator and route-lookup hot loops.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(name: &str) -> Self {
        Histogram {
            name: name.to_string(),
            buckets: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(BUCKETS)
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Starts a wall-clock timer whose elapsed nanoseconds are recorded
    /// into this histogram when the guard drops. While telemetry is
    /// disabled the guard holds no clock and drops for free, preserving
    /// the near-zero disabled-path cost the overhead bench enforces.
    #[inline]
    pub fn start_timer(&'static self) -> HistogramTimer {
        HistogramTimer {
            histogram: self,
            started: crate::enabled().then(std::time::Instant::now),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (nearest-rank over buckets), clamped to the recorded maximum —
    /// within [`MAX_RELATIVE_ERROR`] above the true sample value.
    /// Returns 0 for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max());
            }
        }
        self.max()
    }

    /// Point-in-time copy for rendering and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        let mut snap = HistogramSnapshot {
            name: self.name.clone(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            mean: 0.0,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
            p9999: 0,
            buckets,
        };
        snap.recompute();
        snap
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An owned, non-atomic histogram with the same bucket scheme as
/// [`Histogram`], recording **unconditionally** — no
/// [`crate::enabled`] gate — so deterministic per-run statistics (e.g.
/// `fib bench`'s hop distribution) never depend on whether telemetry is
/// switched on. Per-thread instances merge with [`HdrHistogram::merge`];
/// merge order cannot affect any quantile.
#[derive(Debug, Clone)]
pub struct HdrHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        HdrHistogram::new()
    }
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        HdrHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other` into `self` (bucket-wise; exact).
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Same quantile semantics as [`Histogram::percentile`].
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Point-in-time copy under the given display name.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| (n > 0).then_some((i as u16, n)))
            .collect();
        let mut snap = HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            max: self.max,
            mean: 0.0,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
            p9999: 0,
            buckets,
        };
        snap.recompute();
        snap
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
    /// `(bucket index, count)` for non-empty buckets, sorted by index
    /// (see [`bucket_bounds`] for the index → value-range mapping).
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Folds `other`'s samples into `self` (bucket-wise) and recomputes
    /// the derived statistics. Because buckets are value-addressed, the
    /// result is independent of merge order — the property test suite
    /// pins this.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u16, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    merged.push(y);
                    b.next();
                }
                (Some(&&(xi, xn)), Some(&&(yi, yn))) => {
                    if xi < yi {
                        merged.push((xi, xn));
                        a.next();
                    } else if yi < xi {
                        merged.push((yi, yn));
                        b.next();
                    } else {
                        merged.push((xi, xn + yn));
                        a.next();
                        b.next();
                    }
                }
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        self.recompute();
    }

    /// Recomputes mean and quantiles from the bucket list.
    fn recompute(&mut self) {
        self.mean = if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        };
        self.p50 = quantile_sparse(&self.buckets, self.count, self.max, 0.50);
        self.p90 = quantile_sparse(&self.buckets, self.count, self.max, 0.90);
        self.p99 = quantile_sparse(&self.buckets, self.count, self.max, 0.99);
        self.p999 = quantile_sparse(&self.buckets, self.count, self.max, 0.999);
        self.p9999 = quantile_sparse(&self.buckets, self.count, self.max, 0.9999);
    }

    /// Nearest-rank quantile over the snapshot's buckets (same semantics
    /// as [`Histogram::percentile`]).
    pub fn percentile(&self, q: f64) -> u64 {
        quantile_sparse(&self.buckets, self.count, self.max, q)
    }
}

/// Point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, level)` per float gauge.
    pub float_gauges: Vec<(String, f64)>,
    /// One snapshot per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// `true` when no metric has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0)
            && self.float_gauges.iter().all(|(_, v)| *v == 0.0)
            && self.histograms.iter().all(|h| h.count == 0)
    }

    /// Value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Snapshot of a histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Name-keyed store of every metric in the process.
///
/// Metrics are allocated once and leaked to `'static`, so hot paths hold
/// plain references (the [`crate::counter!`]-family macros cache the
/// lookup per call site).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    float_gauges: Mutex<BTreeMap<String, &'static FloatGauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn intern<T>(
    map: &Mutex<BTreeMap<String, &'static T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> &'static T {
    let mut map = map.lock().expect("metric registry poisoned");
    if let Some(existing) = map.get(name) {
        return existing;
    }
    let leaked: &'static T = Box::leak(Box::new(make()));
    map.insert(name.to_string(), leaked);
    leaked
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name, || Counter::new(name))
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&self.gauges, name, || Gauge::new(name))
    }

    /// The float gauge registered under `name` (created on first use).
    pub fn float_gauge(&self, name: &str) -> &'static FloatGauge {
        intern(&self.float_gauges, name, || FloatGauge::new(name))
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&self.histograms, name, || Histogram::new(name))
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metric registry poisoned")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metric registry poisoned")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            float_gauges: self
                .float_gauges
                .lock()
                .expect("metric registry poisoned")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metric registry poisoned")
                .values()
                .map(|h| h.snapshot())
                .collect(),
        }
    }

    /// Zeroes every registered metric (registration survives).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            g.reset();
        }
        for g in self
            .float_gauges
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("metric registry poisoned")
            .values()
        {
            h.reset();
        }
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _lock = crate::test_guard();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        r
    }

    #[test]
    fn bucket_boundaries() {
        // Exact buckets below SUB_COUNT.
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // First sub-bucketed octave is still exact (width 1).
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_bounds(31), (31, 31));
        // Octave 2: width-2 buckets.
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_bounds(32), (32, 33));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn buckets_partition_the_value_space() {
        // Every bucket's upper bound + 1 is the next bucket's lower bound,
        // and bucket_of maps both endpoints back to the bucket.
        let mut expected_lower = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lower, "bucket {i}");
            assert_eq!(bucket_of(lo), i, "bucket {i} lower");
            assert_eq!(bucket_of(hi), i, "bucket {i} upper");
            // Relative width bound (exact buckets have zero width).
            if lo > 0 {
                assert!((hi - lo) as f64 / lo as f64 <= MAX_RELATIVE_ERROR);
            }
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                break;
            }
            expected_lower = hi + 1;
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let h = Histogram::new("t.hist");
        with_enabled(|| {
            for v in [0u64, 1, 1, 2, 3, 8, 100] {
                h.record(v);
            }
        });
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.max(), 100);
        // Small values land in exact buckets: the median sample is 2 and
        // is reported exactly (the old log₂ scheme said "≤ 3").
        assert_eq!(h.percentile(0.5), 2);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.percentile(0.0), 0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.p50, 2);
        assert_eq!(snap.p9999, 100);
        assert_eq!(snap.buckets.iter().map(|(_, n)| n).sum::<u64>(), 7);
    }

    #[test]
    fn timer_records_only_while_enabled() {
        // Held throughout: a sibling test that switches telemetry on while
        // the "disabled" timer runs would make it record.
        let _lock = crate::test_guard();
        let h = crate::registry().histogram("t.timer");
        let before = h.count();
        {
            let _t = h.start_timer(); // disabled: holds no clock
        }
        assert_eq!(h.count(), before);
        crate::set_enabled(true);
        {
            let _t = h.start_timer();
        }
        crate::set_enabled(false);
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn percentile_clamps_to_max() {
        let h = Histogram::new("t.clamp");
        with_enabled(|| h.record(1000));
        // Bucket [960, 1023] upper bound is 1023; the recorded max is
        // tighter.
        assert_eq!(h.percentile(0.99), 1000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new("t.empty");
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        let snap = h.snapshot();
        assert_eq!((snap.p50, snap.p999, snap.p9999), (0, 0, 0));
    }

    #[test]
    fn owned_histogram_records_without_telemetry() {
        // No set_enabled anywhere: HdrHistogram must still record.
        let mut h = HdrHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p99 = h.percentile(0.99);
        assert!((990..=1023).contains(&p99), "{p99}");
        assert!(p99 as f64 <= 990.0 * (1.0 + MAX_RELATIVE_ERROR));
        let snap = h.snapshot("t.owned");
        assert_eq!(snap.name, "t.owned");
        assert_eq!(snap.p50, h.percentile(0.5));
    }

    #[test]
    fn snapshot_merge_matches_single_histogram() {
        let mut all = HdrHistogram::new();
        let mut parts: Vec<HdrHistogram> = (0..4).map(|_| HdrHistogram::new()).collect();
        let mut x = 0x12345u64;
        for i in 0..10_000u64 {
            // SplitMix-ish scramble for spread across octaves.
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let v = x >> (x % 50);
            all.record(v);
            parts[(i % 4) as usize].record(v);
        }
        let mut merged = parts[0].snapshot("m");
        for p in &parts[1..] {
            merged.merge(&p.snapshot("m"));
        }
        let direct = all.snapshot("m");
        assert_eq!(merged.count, direct.count);
        assert_eq!(merged.buckets, direct.buckets);
        assert_eq!(
            (
                merged.p50,
                merged.p90,
                merged.p99,
                merged.p999,
                merged.p9999
            ),
            (
                direct.p50,
                direct.p90,
                direct.p99,
                direct.p999,
                direct.p9999
            )
        );
    }

    #[test]
    fn gauges_and_counters_roundtrip() {
        with_enabled(|| {
            let c = crate::registry().counter("t.counter");
            c.reset();
            c.inc();
            c.add(4);
            assert_eq!(c.get(), 5);

            let g = crate::registry().gauge("t.gauge");
            g.set(7);
            g.add(-3);
            assert_eq!(g.get(), 4);

            let f = crate::registry().float_gauge("t.fgauge");
            f.set(1.5);
            f.set_max(0.5);
            assert_eq!(f.get(), 1.5);
            f.set_max(2.5);
            assert_eq!(f.get(), 2.5);
        });
    }

    #[test]
    fn snapshot_sorted_and_resettable() {
        let r = Registry::new();
        with_enabled(|| {
            r.counter("b").inc();
            r.counter("a").add(2);
            r.histogram("h").record(9);
        });
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.counter("a"), Some(2));
        assert!(snap.histogram("h").is_some());
        assert!(!snap.is_empty());
        r.reset();
        assert!(r.snapshot().is_empty());
    }
}
