//! Exact and logarithmic combinatorics.
//!
//! The DSN'11 model works with clusters of a few dozen peers, so binomial
//! coefficients stay tiny; we nevertheless provide both an exact `u128`
//! path (with overflow detection) and a log-space path so that larger
//! parameterizations (e.g. ablations with big `Smax`) remain usable.

/// Exact binomial coefficient `C(n, k)` in `u128`, or `None` on overflow.
///
/// Uses the multiplicative formula with interleaved division, which stays
/// exact because every prefix product `C(n, j)` is an integer.
///
/// ```
/// use pollux_prob::comb::binomial_exact;
/// assert_eq!(binomial_exact(7, 3), Some(35));
/// assert_eq!(binomial_exact(3, 7), Some(0));
/// assert_eq!(binomial_exact(0, 0), Some(1));
/// ```
pub fn binomial_exact(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for j in 0..k {
        acc = acc.checked_mul((n - j) as u128)?;
        acc /= (j + 1) as u128;
    }
    Some(acc)
}

/// Binomial coefficient as `f64`, computed in log space for large inputs.
///
/// Exact for every value representable in `u128` (≲ `C(130, 65)`), and
/// accurate to ~1e-12 relative error beyond that.
pub fn binomial(n: u64, k: u64) -> f64 {
    match binomial_exact(n, k) {
        Some(v) => v as f64,
        None => ln_binomial(n, k).exp(),
    }
}

/// Natural log of `C(n, k)`; `-inf` when `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Natural log of `n!` via a cached table for small `n` and Stirling's
/// series beyond it.
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_LEN: usize = 257;
    // Lazily built monotone table of ln(n!) for n < 257; this covers every
    // cluster size the model uses, exactly (accumulated ln).
    static TABLE: std::sync::OnceLock<[f64; TABLE_LEN]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0; TABLE_LEN];
        let mut acc = 0.0;
        for (i, slot) in t.iter_mut().enumerate().skip(1) {
            acc += (i as f64).ln();
            *slot = acc;
        }
        t
    });
    if (n as usize) < TABLE_LEN {
        return table[n as usize];
    }
    stirling_ln_factorial(n as f64)
}

/// Stirling's series for `ln(n!)` with three correction terms.
fn stirling_ln_factorial(n: f64) -> f64 {
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    n * n.ln() - n + 0.5 * (ln2pi + n.ln()) + 1.0 / (12.0 * n) - 1.0 / (360.0 * n.powi(3))
        + 1.0 / (1260.0 * n.powi(5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pascal_triangle_identity() {
        for n in 1..60u64 {
            for k in 1..n {
                let lhs = binomial_exact(n, k).unwrap();
                let rhs = binomial_exact(n - 1, k - 1).unwrap() + binomial_exact(n - 1, k).unwrap();
                assert_eq!(lhs, rhs, "C({n},{k})");
            }
        }
    }

    #[test]
    fn symmetry() {
        for n in 0..40u64 {
            for k in 0..=n {
                assert_eq!(binomial_exact(n, k), binomial_exact(n, n - k));
            }
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(binomial_exact(52, 5), Some(2_598_960));
        assert_eq!(
            binomial_exact(100, 50).unwrap(),
            100891344545564193334812497256
        );
        assert_eq!(binomial_exact(7, 0), Some(1));
    }

    #[test]
    fn overflow_detected_then_log_path_takes_over() {
        // C(200,100) overflows u128.
        assert_eq!(binomial_exact(200, 100), None);
        let v = binomial(200, 100);
        // Known value ≈ 9.0548514656103281165404177077e58.
        let expect = 9.054851465610328e58;
        assert!((v / expect - 1.0).abs() < 1e-9, "got {v:e}");
    }

    #[test]
    fn ln_binomial_matches_exact_for_small_inputs() {
        for n in 0..50u64 {
            for k in 0..=n {
                let exact = binomial_exact(n, k).unwrap() as f64;
                let viajln = ln_binomial(n, k).exp();
                assert!(
                    (viajln / exact - 1.0).abs() < 1e-10,
                    "C({n},{k}): {viajln} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn ln_binomial_out_of_support() {
        assert_eq!(ln_binomial(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_factorial_table_and_stirling_agree_at_boundary() {
        // Compare the exact accumulated value at n=256 with Stirling at 257.
        let a = ln_factorial(256) + (257f64).ln();
        let b = ln_factorial(257);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
