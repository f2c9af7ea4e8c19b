//! Metric primitives: monotonic counters, log₂-bucketed histograms,
//! span-timer statistics, and the [`Registry`] that holds them by name.
//!
//! Everything here is plain data — no atomics, no locks. Instrumented
//! loops own one registry each (one per DES shard, one per sweep
//! worker); the owner merges them afterwards **in a fixed order** (shard
//! order, cluster order), the same discipline the simulation outcome
//! merge uses, so merged statistics are deterministic for a given
//! partition.

/// Number of histogram buckets: one for zero plus one per bit width of a
/// `u64` value (bucket `i ≥ 1` covers `[2^(i−1), 2^i − 1]`).
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucketing by bit width keeps recording branch-free and the bucket
/// array fixed-size: value `0` lands in bucket `0`, any other value `v`
/// in bucket `64 − v.leading_zeros()`. Count, sum and max are tracked
/// exactly, so means are exact and only quantiles are bucket-resolution
/// approximations.
///
/// # Example
///
/// ```
/// use pollux_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0, 1, 2, 3, 4, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.max(), 1000);
/// // (range_lo, range_hi_exclusive, count) of each non-empty bucket.
/// assert_eq!(
///     h.nonzero_buckets(),
///     vec![(0, 1, 1), (1, 2, 1), (2, 4, 2), (4, 8, 1), (512, 1024, 1)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    #[inline]
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers.
    #[must_use]
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self` (exact: element-wise integer sums).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(range_lo, range_hi_exclusive, count)`
    /// triples, in value order (the JSON export shape).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(i, &b)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, b)
            })
            .collect()
    }
}

/// Moment statistics of a span timer (or any `f64` series): count, total,
/// min/max and a Welford mean/variance accumulator with the standard
/// parallel-merge identity.
///
/// Merging is **ordered**: `merge` is deterministic for a fixed merge
/// order, and the instrumented layers always merge in shard/cluster
/// order — the same rule the DES outcome merge follows — so merged spans
/// are reproducible for a given partition.
///
/// # Example
///
/// ```
/// use pollux_obs::SpanStats;
///
/// let mut all = SpanStats::new();
/// let (mut a, mut b) = (SpanStats::new(), SpanStats::new());
/// for (i, v) in [0.5, 1.5, 2.5, 3.5].iter().enumerate() {
///     all.record(*v);
///     if i < 2 { a.record(*v) } else { b.record(*v) }
/// }
/// a.merge(&b);
/// assert_eq!(a.count(), all.count());
/// assert!((a.mean() - all.mean()).abs() < 1e-15);
/// assert!((a.variance() - all.variance()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    count: u64,
    total: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Default for SpanStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        SpanStats {
            count: 0,
            total: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Records one span (seconds, or any f64 measurement).
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.total += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all spans.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Smallest span (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest span (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean span (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for fewer than two spans).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merges `other` into `self` via Chan's parallel-update identity.
    /// Deterministic for a fixed merge order.
    pub fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic counter (merge: sum).
    Counter(u64),
    /// A log₂ histogram (merge: element-wise sum).
    Histogram(Box<Histogram>),
    /// Span statistics (merge: ordered Welford merge).
    Span(SpanStats),
}

/// A named metric store owned by one instrumented loop.
///
/// Keys are `&'static str` so recording never allocates; lookup is a
/// linear scan with a pointer-equality fast path (instrumented loops use
/// a handful of interned literals, so the scan is a few comparisons).
/// Entries keep insertion order internally; every exported view is
/// sorted by key, so exports are deterministic regardless of recording
/// order.
///
/// # Example
///
/// ```
/// use pollux_obs::Registry;
///
/// let mut r = Registry::new();
/// r.add("events", 2);
/// r.add("events", 3);
/// r.observe("depth", 7);
/// assert_eq!(r.counter("events"), Some(5));
/// assert_eq!(r.histogram("depth").map(|h| h.max()), Some(7));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(&'static str, Metric)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    fn slot(&mut self, key: &'static str) -> Option<usize> {
        self.entries
            .iter()
            .position(|(k, _)| std::ptr::eq(*k, key) || *k == key)
    }

    /// Adds `delta` to counter `key` (creating it at 0).
    #[inline]
    pub fn add(&mut self, key: &'static str, delta: u64) {
        match self.slot(key) {
            Some(i) => {
                if let Metric::Counter(c) = &mut self.entries[i].1 {
                    *c += delta;
                }
            }
            None => self.entries.push((key, Metric::Counter(delta))),
        }
    }

    /// Records `value` into histogram `key`.
    #[inline]
    pub fn observe(&mut self, key: &'static str, value: u64) {
        match self.slot(key) {
            Some(i) => {
                if let Metric::Histogram(h) = &mut self.entries[i].1 {
                    h.record(value);
                }
            }
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.entries.push((key, Metric::Histogram(Box::new(h))));
            }
        }
    }

    /// Records a span of `seconds` under `key`.
    #[inline]
    pub fn span(&mut self, key: &'static str, seconds: f64) {
        match self.slot(key) {
            Some(i) => {
                if let Metric::Span(s) = &mut self.entries[i].1 {
                    s.record(seconds);
                }
            }
            None => {
                let mut s = SpanStats::new();
                s.record(seconds);
                self.entries.push((key, Metric::Span(s)));
            }
        }
    }

    /// The value of counter `key`, if present (and a counter).
    #[must_use]
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(|m| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        })
    }

    /// The histogram under `key`, if present.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.get(key).and_then(|m| match m {
            Metric::Histogram(h) => Some(h.as_ref()),
            _ => None,
        })
    }

    /// The span statistics under `key`, if present.
    #[must_use]
    pub fn span_stats(&self, key: &str) -> Option<&SpanStats> {
        self.get(key).and_then(|m| match m {
            Metric::Span(s) => Some(s),
            _ => None,
        })
    }

    /// The metric under `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, m)| m)
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of named metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Merges `other` into `self`, metric by metric: counters sum,
    /// histograms sum element-wise, spans merge in call order. The caller is responsible for a fixed merge order
    /// (shard 0, shard 1, …) — the same rule as the simulation outcome
    /// merge.
    pub fn merge(&mut self, other: &Registry) {
        for (key, metric) in &other.entries {
            match self.slot(key) {
                Some(i) => match (&mut self.entries[i].1, metric) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
                    (Metric::Span(a), Metric::Span(b)) => a.merge(b),
                    // A key recorded as two different metric kinds is a
                    // programming error; keep the first, drop the second.
                    _ => {}
                },
                None => self.entries.push((key, metric.clone())),
            }
        }
    }

    /// All metrics, sorted by key (the deterministic export order).
    #[must_use]
    pub fn sorted(&self) -> Vec<(&'static str, &Metric)> {
        let mut out: Vec<_> = self.entries.iter().map(|(k, m)| (*k, m)).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        // Zero is its own bucket; powers of two open a new bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..HIST_BUCKETS - 1 {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(hi - 1),
                i,
                "upper edge of bucket {i}"
            );
            assert_eq!(hi, 2 * lo);
        }
    }

    #[test]
    fn histogram_moments_are_exact() {
        let mut h = Histogram::new();
        for v in [5u64, 0, 1023, 7, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1042);
        assert_eq!(h.max(), 1023);
        assert!((h.mean() - 208.4).abs() < 1e-12);
        // 0 alone; 5, 7, 7 ∈ [4, 7]; 1023 ∈ [512, 1023].
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1, 1), (4, 8, 3), (512, 1024, 1)]
        );
    }

    #[test]
    fn histogram_merge_equals_pooled_recording() {
        let values: Vec<u64> = (0..1000).map(|i| (i * i * 2654435761) % 100_000).collect();
        let mut pooled = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            pooled.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn span_merge_matches_sequential_push_in_order() {
        // Split a series at an arbitrary point; ordered merge must equal
        // the sequential accumulation to floating-point round-off.
        let xs: Vec<f64> = (0..200)
            .map(|i| ((i * 37) % 91) as f64 * 0.25 + 1.0)
            .collect();
        let mut seq = SpanStats::new();
        for &x in &xs {
            seq.record(x);
        }
        for split in [0usize, 1, 99, 199, 200] {
            let (mut a, mut b) = (SpanStats::new(), SpanStats::new());
            for &x in &xs[..split] {
                a.record(x);
            }
            for &x in &xs[split..] {
                b.record(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), seq.count());
            assert!((a.total() - seq.total()).abs() < 1e-9);
            assert!((a.mean() - seq.mean()).abs() < 1e-12);
            assert!((a.variance() - seq.variance()).abs() < 1e-9);
            assert_eq!(a.min(), seq.min());
            assert_eq!(a.max(), seq.max());
        }
    }

    #[test]
    fn span_merge_is_deterministic_for_a_fixed_order() {
        // The cluster-order rule: merging [s0, s1, s2] left to right twice
        // gives bit-identical accumulators.
        let mk = |seed: u64| {
            let mut s = SpanStats::new();
            for i in 0..50 {
                s.record(((seed * 31 + i * 17) % 101) as f64 * 0.125);
            }
            s
        };
        let parts = [mk(1), mk(2), mk(3)];
        let fold = || {
            let mut acc = SpanStats::new();
            for p in &parts {
                acc.merge(p);
            }
            acc
        };
        assert_eq!(fold(), fold());
    }

    #[test]
    fn registry_round_trip_and_merge() {
        let mut a = Registry::new();
        a.add("ev", 10);
        a.observe("h", 3);
        a.span("t", 0.5);
        let mut b = Registry::new();
        b.add("ev", 4);
        b.observe("h", 900);
        b.span("t", 1.5);
        b.add("only_b", 1);
        a.merge(&b);
        assert_eq!(a.counter("ev"), Some(14));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().max(), 900);
        let t = a.span_stats("t").unwrap();
        assert_eq!(t.count(), 2);
        assert!((t.mean() - 1.0).abs() < 1e-15);
        assert_eq!(a.counter("only_b"), Some(1));
        assert_eq!(a.counter("missing"), None);
        // Sorted export order is key order, not insertion order.
        let keys: Vec<&str> = a.sorted().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["ev", "h", "only_b", "t"]);
    }
}
