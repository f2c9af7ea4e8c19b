//! Property-based tests for the simulation primitives.

use proptest::prelude::*;

use pollux_des::stats::Welford;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn welford_matches_two_pass(data in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.sample_variance() - var).abs() < 1e-6 * (1.0 + var));
    }

    #[test]
    fn welford_merge_any_split_point(data in proptest::collection::vec(-50.0f64..50.0, 2..100), split_frac in 0.0f64..=1.0) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let split = split.min(data.len());
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Welford::new();
        for &x in &data[..split] {
            left.push(x);
        }
        let mut right = Welford::new();
        for &x in &data[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-8);
        prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-6);
    }

    #[test]
    fn replication_seeds_unique(master in any::<u64>()) {
        use pollux_des::replication::replication_seed;
        let seeds: std::collections::HashSet<u64> =
            (0..256).map(|i| replication_seed(master, i)).collect();
        prop_assert_eq!(seeds.len(), 256);
    }
}
