use rand::RngExt;

use crate::comb::{binomial, ln_binomial};
use crate::ProbError;

/// The hypergeometric distribution, in the paper's notation
/// `q(k, ℓ, u, v)`: the probability of getting `u` red balls when `k` balls
/// are drawn *without replacement* from an urn containing `ℓ` balls of which
/// `v` are red.
///
/// The struct fixes the urn (`population = ℓ`, `successes = v`) and the
/// sample size (`draws = k`); `pmf(u)` evaluates the mass at `u`.
///
/// # Example
///
/// ```
/// use pollux_prob::Hypergeometric;
///
/// let h = Hypergeometric::new(10, 4, 3).unwrap();
/// // Full support sums to one.
/// let total: f64 = (0..=3).map(|u| h.pmf(u)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    population: u64,
    successes: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Creates the distribution with `population` balls, of which
    /// `successes` are red, drawing `draws` balls.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameters`] when `successes > population`
    /// or `draws > population`.
    pub fn new(population: u64, successes: u64, draws: u64) -> Result<Self, ProbError> {
        if successes > population {
            return Err(ProbError::InvalidParameters(format!(
                "successes {successes} exceeds population {population}"
            )));
        }
        if draws > population {
            return Err(ProbError::InvalidParameters(format!(
                "draws {draws} exceeds population {population}"
            )));
        }
        Ok(Hypergeometric {
            population,
            successes,
            draws,
        })
    }

    /// Inclusive support bounds `[max(0, k+v−ℓ), min(k, v)]`.
    pub fn support(&self) -> (u64, u64) {
        let lo = (self.draws + self.successes).saturating_sub(self.population);
        let hi = self.draws.min(self.successes);
        (lo, hi)
    }

    /// Probability of drawing exactly `u` red balls.
    ///
    /// Returns 0 outside the support. Uses exact arithmetic for small urns
    /// and log-space otherwise.
    pub fn pmf(&self, u: u64) -> f64 {
        let (lo, hi) = self.support();
        if u < lo || u > hi {
            return 0.0;
        }
        // C(v,u) C(ℓ−v, k−u) / C(ℓ,k)
        if self.population <= 120 {
            binomial(self.successes, u) * binomial(self.population - self.successes, self.draws - u)
                / binomial(self.population, self.draws)
        } else {
            (ln_binomial(self.successes, u)
                + ln_binomial(self.population - self.successes, self.draws - u)
                - ln_binomial(self.population, self.draws))
            .exp()
        }
    }

    /// Samples a variate by simulating the sequential draw, which is exact
    /// and O(k).
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut remaining = self.population;
        let mut red_remaining = self.successes;
        let mut drawn_red = 0;
        for _ in 0..self.draws {
            debug_assert!(remaining > 0);
            if rng.random_range(0..remaining) < red_remaining {
                drawn_red += 1;
                red_remaining -= 1;
            }
            remaining -= 1;
        }
        drawn_red
    }
}

/// Direct functional form of the paper's `q(k, ℓ, u, v)`.
///
/// Out-of-range parameter combinations (e.g. `k > ℓ`) yield probability 0
/// rather than an error, which matches how the transition-matrix derivation
/// uses the quantity inside sums over constrained ranges.
///
/// ```
/// use pollux_prob::hypergeometric_q;
/// assert!((hypergeometric_q(3, 10, 2, 4) - 0.3).abs() < 1e-12);
/// assert_eq!(hypergeometric_q(11, 10, 2, 4), 0.0);
/// ```
pub fn hypergeometric_q(k: u64, l: u64, u: u64, v: u64) -> f64 {
    if v > l || k > l {
        return 0.0;
    }
    match Hypergeometric::new(l, v, k) {
        Ok(h) => h.pmf(u),
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn support_bounds() {
        let h = Hypergeometric::new(10, 7, 6).unwrap();
        assert_eq!(h.support(), (3, 6));
        let h = Hypergeometric::new(10, 2, 3).unwrap();
        assert_eq!(h.support(), (0, 2));
    }

    #[test]
    fn pmf_sums_to_one() {
        for l in 1..=30u64 {
            for v in 0..=l {
                for k in 0..=l {
                    let h = Hypergeometric::new(l, v, k).unwrap();
                    let (lo, hi) = h.support();
                    let total: f64 = (lo..=hi).map(|u| h.pmf(u)).sum();
                    assert!(
                        (total - 1.0).abs() < 1e-10,
                        "l={l} v={v} k={k}: total={total}"
                    );
                }
            }
        }
    }

    #[test]
    fn pmf_zero_outside_support() {
        let h = Hypergeometric::new(10, 4, 3).unwrap();
        assert_eq!(h.pmf(4), 0.0);
        let h = Hypergeometric::new(10, 7, 6).unwrap();
        assert_eq!(h.pmf(2), 0.0);
    }

    #[test]
    fn known_value() {
        // P(2 red | draw 3 from 10 with 4 red) = C(4,2)C(6,1)/C(10,3) = 36/120.
        let h = Hypergeometric::new(10, 4, 3).unwrap();
        assert!((h.pmf(2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Hypergeometric::new(5, 6, 2).is_err());
        assert!(Hypergeometric::new(5, 2, 6).is_err());
    }

    #[test]
    fn mean_and_variance_match_moments() {
        let h = Hypergeometric::new(20, 8, 5).unwrap();
        let (lo, hi) = h.support();
        let mean: f64 = (lo..=hi).map(|u| u as f64 * h.pmf(u)).sum();
        let var: f64 = (lo..=hi)
            .map(|u| (u as f64 - mean).powi(2) * h.pmf(u))
            .sum();
        // k v / ℓ and k (v/ℓ)(1 − v/ℓ)(ℓ − k)/(ℓ − 1).
        assert!((mean - 5.0 * 8.0 / 20.0).abs() < 1e-10);
        assert!((var - 5.0 * 0.4 * 0.6 * 15.0 / 19.0).abs() < 1e-10);
    }

    #[test]
    fn q_function_handles_out_of_range() {
        assert_eq!(hypergeometric_q(3, 2, 1, 1), 0.0); // k > l
        assert_eq!(hypergeometric_q(1, 2, 0, 3), 0.0); // v > l
        assert!((hypergeometric_q(0, 5, 0, 2) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sampling_matches_mean() {
        let h = Hypergeometric::new(30, 12, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| h.sample(&mut rng)).sum();
        let emp_mean = sum as f64 / n as f64;
        // k v / ℓ = 4; std-err ≈ sqrt(var/n) ≈ 0.01; allow 5 sigma.
        assert!((emp_mean - 4.0).abs() < 0.06, "empirical {emp_mean} vs 4");
    }

    #[test]
    fn sampling_stays_in_support() {
        let h = Hypergeometric::new(9, 7, 6).unwrap();
        let (lo, hi) = h.support();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let u = h.sample(&mut rng);
            assert!(u >= lo && u <= hi);
        }
    }

    #[test]
    fn log_space_path_consistent_with_exact() {
        // Large urn forces the log path; compare against a mid-size urn
        // ratio identity: q(k,l,u,v) with scaled parameters should still sum
        // to 1.
        let h = Hypergeometric::new(500, 200, 50).unwrap();
        let (lo, hi) = h.support();
        let total: f64 = (lo..=hi).map(|u| h.pmf(u)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }
}
