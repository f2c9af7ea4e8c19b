//! Statistics collection for Monte-Carlo simulation.
//!
//! [`Welford`] accumulates means and variances in one numerically stable
//! pass; [`Summary`] reports them with normal-approximation confidence
//! intervals.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use pollux_des::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// // Sum of squared deviations 32 over n − 1 = 7 observations.
/// assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        self.m2 / (self.count - 1) as f64
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sample_variance() / self.count as f64).sqrt()
    }

    /// Summary with a normal-approximation confidence half-width at the
    /// given z value (1.96 for 95 %).
    pub fn summary(&self, z: f64) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            variance: self.sample_variance(),
            ci_half_width: z * self.standard_error(),
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
    }
}

/// Point summary of a sample: mean, variance and confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Half-width of the confidence interval around the mean.
    pub ci_half_width: f64,
}

impl Summary {
    /// `true` when `value` lies inside the confidence interval.
    pub fn covers(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci_half_width
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.6} ± {:.6} (n={})",
            self.mean, self.ci_half_width, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.sample_variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &data[..200] {
            left.push(x);
        }
        for &x in &data[200..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        // Merging an empty accumulator changes nothing.
        left.merge(&Welford::new());
        assert_eq!(left.count(), 500);
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
    }

    #[test]
    fn empty_and_single_observation_edge_cases() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.standard_error(), 0.0);
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn summary_confidence_interval() {
        let mut w = Welford::new();
        for x in [1.0f64, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        let s = w.summary(1.96);
        assert_eq!(s.mean, 3.0);
        assert!(s.covers(3.0));
        assert!(!s.covers(100.0));
        assert!(s.to_string().contains("n=5"));
    }
}
