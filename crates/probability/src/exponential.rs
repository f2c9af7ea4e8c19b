//! Exponential variates for event inter-arrival times.
//!
//! The discrete-event engine models churn as Poisson processes; the only
//! primitive it needs is an exponential sampler.

use rand::RngExt;

/// Samples `Exp(rate)` by inversion.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
///
/// ```
/// use rand::{SeedableRng, rngs::StdRng};
/// let mut rng = StdRng::seed_from_u64(3);
/// let x = pollux_prob::exponential::sample(&mut rng, 2.0);
/// assert!(x >= 0.0);
/// ```
pub fn sample<R: rand::Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential rate must be positive and finite, got {rate}"
    );
    // random() yields [0, 1); use 1 - u to avoid ln(0).
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// Fills `out` with independent `Exp(rate)` variates — the batched form of
/// [`sample`].
///
/// The uniforms are drawn in one pass and the log transform applied in a
/// second, so the generator recurrence and the `ln` evaluations each run
/// as a tight independent loop instead of alternating per draw — the
/// discrete-event hot loops refill a small per-stream buffer of
/// inter-arrival gaps through this in one call. Consumes exactly
/// `out.len()` draws from `rng`, and each slot holds the same value
/// [`sample`] would have produced from that draw.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
///
/// ```
/// use rand::{SeedableRng, rngs::StdRng};
/// let mut batched = StdRng::seed_from_u64(3);
/// let mut buf = [0.0f64; 8];
/// pollux_prob::exponential::fill(&mut batched, 2.0, &mut buf);
/// let mut one_by_one = StdRng::seed_from_u64(3);
/// for &x in &buf {
///     assert_eq!(x, pollux_prob::exponential::sample(&mut one_by_one, 2.0));
/// }
/// ```
pub fn fill<R: rand::Rng + ?Sized>(rng: &mut R, rate: f64, out: &mut [f64]) {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential rate must be positive and finite, got {rate}"
    );
    for slot in out.iter_mut() {
        *slot = rng.random();
    }
    for slot in out.iter_mut() {
        *slot = -(1.0 - *slot).ln() / rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn samples_nonnegative_and_mean_matches() {
        let mut rng = StdRng::seed_from_u64(99);
        let rate = 4.0;
        let n = 100_000;
        let mut total = 0.0;
        for _ in 0..n {
            let x = sample(&mut rng, rate);
            assert!(x >= 0.0);
            total += x;
        }
        let mean = total / n as f64;
        // Mean 1/rate = 0.25; sd of mean ≈ 0.25/sqrt(n) ≈ 8e-4; allow 6 sigma.
        assert!((mean - 0.25).abs() < 5e-3, "mean {mean}");
    }

    #[test]
    fn fill_matches_sequential_samples() {
        // Batched and one-by-one sampling consume the same stream and
        // produce bit-identical variates — the DES determinism contract
        // does not care *when* a cluster's gaps were drawn, only that the
        // values are a fixed function of its stream.
        for rate in [0.3, 1.0, 2.5] {
            let mut a = StdRng::seed_from_u64(41);
            let mut b = StdRng::seed_from_u64(41);
            let mut buf = [0.0f64; 13];
            fill(&mut a, rate, &mut buf);
            for &x in &buf {
                assert_eq!(x, sample(&mut b, rate));
                assert!(x >= 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn bad_rate_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        sample(&mut rng, 0.0);
    }
}
