//! Property-based tests for the probability kernels.

use proptest::prelude::*;

use pollux_prob::comb::{binomial, binomial_exact, ln_binomial};
use pollux_prob::{hypergeometric_q, Binomial, Hypergeometric};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hypergeometric_pmf_sums_to_one(l in 1u64..60, v_frac in 0.0f64..=1.0, k_frac in 0.0f64..=1.0) {
        let v = (l as f64 * v_frac) as u64;
        let k = (l as f64 * k_frac) as u64;
        let h = Hypergeometric::new(l, v, k).unwrap();
        let (lo, hi) = h.support();
        let total: f64 = (lo..=hi).map(|u| h.pmf(u)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "l={l} v={v} k={k}: {total}");
    }

    #[test]
    fn vandermonde_identity(l in 1u64..40, v in 0u64..40, k in 0u64..40) {
        // Σ_u C(v,u) C(l−v, k−u) = C(l, k): exactly the normalization of
        // the q(k, l, u, v) kernel.
        prop_assume!(v <= l && k <= l);
        let lhs: f64 = (0..=k).map(|u| binomial(v, u) * binomial(l - v, k - u)).sum();
        let rhs = binomial(l, k);
        prop_assert!((lhs / rhs - 1.0).abs() < 1e-10);
    }

    #[test]
    fn hypergeometric_symmetry_in_draws_and_successes(l in 1u64..40, v in 0u64..40, k in 0u64..40, u in 0u64..40) {
        // q(k, l, u, v) = q(v, l, u, k): drawing k and counting red(v) is
        // symmetric to drawing v and counting red(k).
        prop_assume!(v <= l && k <= l);
        let a = hypergeometric_q(k, l, u, v);
        let b = hypergeometric_q(v, l, u, k);
        prop_assert!((a - b).abs() < 1e-10, "a={a} b={b}");
    }

    #[test]
    fn binomial_pmf_sums_and_recursion(n in 0u64..40, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p).unwrap();
        let total: f64 = (0..=n).map(|x| b.pmf(x)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Pascal-style ratio check where defined.
        if p > 0.0 && p < 1.0 && n > 0 {
            for x in 0..n {
                let ratio = b.pmf(x + 1) / b.pmf(x);
                let want = (n - x) as f64 / (x + 1) as f64 * p / (1.0 - p);
                prop_assert!((ratio / want - 1.0).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn binomial_exact_matches_log_space(n in 0u64..80, k in 0u64..80) {
        prop_assume!(k <= n);
        let exact = binomial_exact(n, k).unwrap() as f64;
        let via_ln = ln_binomial(n, k).exp();
        prop_assert!((via_ln / exact - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hypergeometric_samples_in_support(l in 1u64..30, v in 0u64..30, k in 0u64..30, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        prop_assume!(v <= l && k <= l);
        let h = Hypergeometric::new(l, v, k).unwrap();
        let (lo, hi) = h.support();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let u = h.sample(&mut rng);
            prop_assert!(u >= lo && u <= hi);
        }
    }

    #[test]
    fn binomial_samples_bounded(n in 0u64..30, p in 0.0f64..=1.0, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let b = Binomial::new(n, p).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(b.sample(&mut rng) <= n);
        }
    }
}
