use crate::comb::{binomial, ln_binomial};
use crate::ProbError;

/// The binomial distribution `Bin(n, p)`.
///
/// The paper's initial distribution `β` (Relation 3) draws the number of
/// malicious peers in the core and spare sets from independent binomials
/// with success probability `μ`.
///
/// # Example
///
/// ```
/// use pollux_prob::Binomial;
///
/// let b = Binomial::new(7, 0.25).unwrap();
/// let total: f64 = (0..=7).map(|x| b.pmf(x)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Bin(n, p)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameters`] when `p` is outside `[0, 1]`
    /// or not finite.
    pub fn new(n: u64, p: f64) -> Result<Self, ProbError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(ProbError::InvalidParameters(format!(
                "success probability {p} not in [0, 1]"
            )));
        }
        Ok(Binomial { n, p })
    }

    /// Probability of exactly `x` successes; 0 when `x > n`.
    pub fn pmf(&self, x: u64) -> f64 {
        if x > self.n {
            return 0.0;
        }
        // Handle the degenerate endpoints exactly: 0^0 = 1 convention.
        if self.p == 0.0 {
            return if x == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if x == self.n { 1.0 } else { 0.0 };
        }
        if self.n <= 120 {
            binomial(self.n, x) * self.p.powi(x as i32) * (1.0 - self.p).powi((self.n - x) as i32)
        } else {
            (ln_binomial(self.n, x)
                + x as f64 * self.p.ln()
                + (self.n - x) as f64 * (1.0 - self.p).ln())
            .exp()
        }
    }
}

/// The Wilson score interval for a binomial proportion: the `(lo, hi)`
/// confidence bounds on the success probability after observing
/// `successes` out of `trials`, at normal quantile `z` (1.96 for 95 %).
///
/// Unlike the naive `p̂ ± z·√(p̂(1−p̂)/n)` interval, Wilson's bounds stay
/// inside `[0, 1]` and remain informative at the extremes (`p̂ = 0` or
/// `1`), which is exactly where absorption-frequency checks live: a run
/// that observes zero polluted merges still yields a non-degenerate upper
/// bound to compare against the Markov prediction.
///
/// With `trials == 0` the interval is the vacuous `(0, 1)`.
///
/// # Example
///
/// ```
/// use pollux_prob::wilson_interval;
///
/// let (lo, hi) = wilson_interval(56, 1000, 1.96);
/// assert!(lo < 0.056 && 0.056 < hi);
/// assert!(hi - lo < 0.03);
/// // Zero successes still bound p away from large values.
/// let (lo0, hi0) = wilson_interval(0, 1000, 1.96);
/// assert_eq!(lo0, 0.0);
/// assert!(hi0 < 0.005);
/// ```
///
/// # Panics
///
/// Panics when `successes > trials` or `z` is not a positive finite
/// number.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(
        successes <= trials,
        "{successes} successes in {trials} trials"
    );
    assert!(
        z.is_finite() && z > 0.0,
        "z = {z} must be a positive quantile"
    );
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p_hat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p_hat + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for n in [0u64, 1, 5, 13] {
            for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let b = Binomial::new(n, p).unwrap();
                let total: f64 = (0..=n).map(|x| b.pmf(x)).sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn known_values() {
        let b = Binomial::new(7, 0.3).unwrap();
        // C(7,2) 0.3^2 0.7^5 = 21 * 0.09 * 0.16807
        assert!((b.pmf(2) - 21.0 * 0.09 * 0.16807).abs() < 1e-12);
        assert_eq!(b.pmf(8), 0.0);
    }

    #[test]
    fn degenerate_endpoints() {
        let b = Binomial::new(5, 0.0).unwrap();
        assert_eq!(b.pmf(0), 1.0);
        assert_eq!(b.pmf(1), 0.0);
        let b = Binomial::new(5, 1.0).unwrap();
        assert_eq!(b.pmf(5), 1.0);
        assert_eq!(b.pmf(4), 0.0);
    }

    #[test]
    fn invalid_p_rejected() {
        assert!(Binomial::new(3, -0.1).is_err());
        assert!(Binomial::new(3, 1.1).is_err());
        assert!(Binomial::new(3, f64::NAN).is_err());
    }

    #[test]
    fn moments_match_pmf() {
        let b = Binomial::new(11, 0.35).unwrap();
        let mean: f64 = (0..=11).map(|x| x as f64 * b.pmf(x)).sum();
        let var: f64 = (0..=11).map(|x| (x as f64 - mean).powi(2) * b.pmf(x)).sum();
        // n p and n p (1 − p).
        assert!((mean - 11.0 * 0.35).abs() < 1e-10);
        assert!((var - 11.0 * 0.35 * 0.65).abs() < 1e-10);
    }

    #[test]
    fn large_n_uses_log_space() {
        let b = Binomial::new(500, 0.3).unwrap();
        let total: f64 = (0..=500).map(|x| b.pmf(x)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wilson_interval_brackets_the_true_proportion() {
        // Coverage sanity: the interval contains p̂ and tightens with n.
        let (lo, hi) = wilson_interval(500, 1000, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        let (lo_big, hi_big) = wilson_interval(50_000, 100_000, 1.96);
        assert!(hi_big - lo_big < hi - lo);
        // Monotone in z.
        let (lo3, hi3) = wilson_interval(500, 1000, 3.0);
        assert!(lo3 < lo && hi < hi3);
    }

    #[test]
    fn wilson_interval_extremes_stay_in_unit_range() {
        let (lo, hi) = wilson_interval(0, 50, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.15);
        let (lo, hi) = wilson_interval(50, 50, 1.96);
        assert!(lo > 0.85 && lo < 1.0);
        assert_eq!(hi, 1.0);
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "successes")]
    fn wilson_interval_rejects_impossible_counts() {
        wilson_interval(5, 4, 1.96);
    }
}
