//! Order statistics shared by the workloads: medians and the tail
//! percentile rule.

/// Percentiles the tail latency may be reported at, highest first. The
/// ladder stops at p99 so that `latency_tail_ms` keeps one meaning on a
/// workload when a faster program serves more samples in the same window.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// A tail latency reported under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least ten samples beyond it.
/// A sample too small for any (fewer than 20) supports no tail beyond
/// its median, so the [`median`] is reported.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    let (percentile, value) = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .map_or((50.0, median(samples)), |p| (p, nearest_rank(&sorted, p)));
    Tail {
        percentile,
        value,
        samples: n,
    }
}

/// Median: the middle sample, or the mean of the middle two.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule cannot lean on input order.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // One sample short: only nine would lie beyond p99.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 900.0, 999));
    }

    #[test]
    fn small_samples_fall_down_the_ladder() {
        assert_eq!(tail(&ramp(100)).percentile, 90.0);
        assert_eq!(tail(&ramp(99)).percentile, 50.0);
        assert_eq!(tail(&ramp(20)).percentile, 50.0);
        // Too few samples for any tail: the median stands in.
        let t = tail(&ramp(19));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
        let t = tail(&[3.5, 1.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 2.25, 2));
    }

    #[test]
    fn the_ladder_stops_at_p99() {
        assert_eq!(tail(&ramp(100_000)).percentile, 99.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
