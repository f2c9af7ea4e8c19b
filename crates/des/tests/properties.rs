//! Property-based tests for the discrete-event engine.

use proptest::prelude::*;

use pollux_des::stats::Welford;
use pollux_des::{EventQueue, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn queue_pops_sorted_with_fifo_ties(times in proptest::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from(t as f64), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    #[test]
    fn queue_interleaved_operations_never_go_backwards(
        script in proptest::collection::vec((any::<bool>(), 0u32..100), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut last_popped: Option<SimTime> = None;
        let mut pending_max = 0u32;
        for (push, t) in script {
            if push {
                // Keep times non-decreasing relative to what was popped so
                // the scenario is a legal simulation schedule.
                let t = t.max(last_popped.map(|lt| lt.value() as u32).unwrap_or(0));
                pending_max = pending_max.max(t);
                q.push(SimTime::from(t as f64), ());
            } else if let Some((t, ())) = q.pop() {
                if let Some(lp) = last_popped {
                    prop_assert!(t >= lp, "pop went backwards");
                }
                last_popped = Some(t);
            }
        }
    }

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
