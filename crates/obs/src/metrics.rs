//! Lock-free counters, gauges and log-bucketed histograms, plus the
//! registry that renders them as Prometheus text exposition.
//!
//! ## Histogram bucket layout
//!
//! Buckets are log₂-spaced with **2 significant bits** (4 sub-buckets per
//! octave), the same trade HdrHistogram makes at its lowest precision:
//! values `0..=3` get exact unit buckets; a larger value `v` with most
//! significant bit `m` lands in sub-bucket `(v >> (m-2)) & 3` of octave
//! `m`. That gives 252 fixed buckets covering all of `u64` in ~2 KiB of
//! atomics per histogram, with a relative bucket width of at most 1/4 —
//! so any reported quantile is within +25% of the true sample value
//! (exact max is tracked separately). Bucket-wise merge is associative,
//! which is what lets per-thread or per-run histograms be combined.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket precision: 2 significant bits = 4 sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Sub-buckets per octave (and the count of exact unit buckets).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 4 unit buckets + 4 per octave for msb 2..=63.
pub const BUCKETS: usize = SUB as usize + (64 - SUB_BITS as usize) * SUB as usize;

/// A monotonic counter. Hot-path updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes, …) with exact count/sum/max and approximate quantiles.
///
/// Recording is lock-free: one relaxed `fetch_add` into the bucket, plus
/// count/sum adds and a `fetch_max`. Readers (scrapes) copy the bucket
/// array without stopping writers; a scrape racing a record may miss the
/// in-flight sample, which is fine for monitoring.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// One consistent-enough readout of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// Approximate median (≤ +25% relative error, clamped to `max`).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of sample `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let group = msb - SUB_BITS;
        let sub = (v >> group) & (SUB - 1);
        (SUB + u64::from(group) * SUB + sub) as usize
    }

    /// Inclusive `[lower, upper]` sample range of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index out of range");
        let i = index as u64;
        if i < SUB {
            return (i, i);
        }
        let group = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        let lower = (SUB + sub) << group;
        // The width of every bucket in octave `group` is 2^group; the top
        // bucket's upper bound saturates at u64::MAX.
        let upper = lower.saturating_add((1u64 << group) - 1);
        (lower, upper)
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact maximum sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Bucket-wise add every sample of `other` into `self`. Merging is
    /// associative and commutative (bucket counts and sums add; max is a
    /// join), so sharded histograms combine in any order.
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Copy the bucket counts out (index-aligned with [`bucket_bounds`]).
    ///
    /// [`bucket_bounds`]: Histogram::bucket_bounds
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Read count/sum/max and the standard quantiles in one pass.
    ///
    /// Quantiles are computed against the bucket array as read (not the
    /// `count` atomic), so a snapshot racing concurrent records stays
    /// internally consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.bucket_counts();
        let total: u64 = buckets.iter().sum();
        let max = self.max();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // 1-based rank of the q-quantile sample.
            let target = (((total as f64) * q).ceil() as u64).clamp(1, total);
            let mut cum = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return Self::bucket_bounds(i).1.min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// What a name is registered as (one name, one kind — forever).
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metric registry: name → atomic handle.
///
/// The internal lock guards only registration and rendering; recording
/// always goes through the `Arc` handles handed out at registration, so
/// the hot path never touches the lock. Names render in sorted order,
/// which keeps the exposition stable for golden tests and diffs.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

/// A metric name must match `[a-zA-Z_][a-zA-Z0-9_]*` (the Prometheus
/// subset this registry emits without escaping).
fn assert_valid_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(head_ok && tail_ok, "invalid metric name {name:?} (want [a-zA-Z_][a-zA-Z0-9_]*)");
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics when `name` is malformed or already registered as a
    /// different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert_valid_name(name);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is already registered as a {}", other.kind()),
        }
    }

    /// Get or register the gauge `name` (same contract as [`counter`]).
    ///
    /// [`counter`]: Registry::counter
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert_valid_name(name);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is already registered as a {}", other.kind()),
        }
    }

    /// Get or register the histogram `name` (same contract as [`counter`]).
    ///
    /// [`counter`]: Registry::counter
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        assert_valid_name(name);
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is already registered as a {}", other.kind()),
        }
    }

    /// Render every registered metric as Prometheus text exposition
    /// (version 0.0.4): `# TYPE` lines, cumulative `_bucket{le="…"}`
    /// series for the non-empty histogram buckets (bounds are inclusive
    /// integers, so `le` carries each bucket's upper bound exactly),
    /// `_sum`/`_count`, names in sorted order.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let total: u64 = buckets.iter().sum();
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, &c) in buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        let (_, upper) = Histogram::bucket_bounds(i);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum.load(Ordering::Relaxed));
                    let _ = writeln!(out, "{name}_count {total}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
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
    fn unit_buckets_are_exact() {
        for v in 0..4u64 {
            let i = Histogram::bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(Histogram::bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_contain_their_samples() {
        for v in [
            4u64,
            5,
            7,
            8,
            15,
            16,
            17,
            1000,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} outside bucket {i} [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_relative_width_is_at_most_a_quarter() {
        for i in (SUB as usize)..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            if hi == u64::MAX {
                continue; // the saturated top bucket
            }
            assert!(hi - lo <= lo / 4, "bucket {i} [{lo}, {hi}] too wide");
        }
    }

    #[test]
    fn top_bucket_is_the_last_index() {
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_reads_count_sum_max_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // ≤ +25% relative quantile error, never below the true rank value.
        assert!((50..=63).contains(&s.p50), "p50 = {}", s.p50);
        assert!((90..=113).contains(&s.p90), "p90 = {}", s.p90);
        assert!((99..=124).contains(&s.p99), "p99 = {}", s.p99);
        // Quantiles clamp to the exact max.
        assert!(s.p99 <= s.max || s.p99 <= 124);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeroes() {
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_returns_the_same_handle_for_the_same_name() {
        let r = Registry::new();
        let a = r.counter("gt_x_total");
        let b = r.counter("gt_x_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn registry_rejects_kind_collisions() {
        let r = Registry::new();
        r.counter("gt_x");
        r.histogram("gt_x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_malformed_names() {
        Registry::new().counter("gt x total");
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(h.snapshot().count, 40_000);
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.max(), 3 * 10_000 + 9_999);
    }

    #[test]
    fn render_while_recording_stays_parseable() {
        // A scrape racing writers must always see `# TYPE`-prefixed,
        // line-oriented text with monotone cumulative buckets.
        let r = Arc::new(Registry::new());
        let h = r.histogram("gt_race_ns");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1) >> 32;
                }
            })
        };
        for _ in 0..50 {
            let text = r.render();
            assert!(text.starts_with("# TYPE gt_race_ns histogram"));
            let mut last = 0u64;
            for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
                let v: u64 = line.rsplit(' ').next().expect("count").parse().expect("number");
                assert!(v >= last, "cumulative buckets must be monotone: {text}");
                last = v;
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
    }

    #[test]
    fn golden_exposition_format() {
        let r = Registry::new();
        r.counter("gt_requests_total").add(7);
        r.gauge("gt_backlog").set(-2);
        let h = r.histogram("gt_test_ns");
        for v in [0u64, 3, 17, 1000] {
            h.record(v);
        }
        let expected = "\
# TYPE gt_backlog gauge
gt_backlog -2
# TYPE gt_requests_total counter
gt_requests_total 7
# TYPE gt_test_ns histogram
gt_test_ns_bucket{le=\"0\"} 1
gt_test_ns_bucket{le=\"3\"} 2
gt_test_ns_bucket{le=\"19\"} 3
gt_test_ns_bucket{le=\"1023\"} 4
gt_test_ns_bucket{le=\"+Inf\"} 4
gt_test_ns_sum 1020
gt_test_ns_count 4
";
        assert_eq!(r.render(), expected);
    }
}
