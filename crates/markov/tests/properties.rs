//! Property-based tests for the Markov-chain machinery on *random*
//! absorbing chains (not just the textbook examples of the unit tests).

use proptest::prelude::*;

use pollux_markov::classify::classify;
use pollux_markov::{AbsorbingChain, CompetingChains, Dtmc, SojournAnalysis, SojournPartition};

/// A random absorbing chain: `t` transient states followed by `a`
/// absorbing ones. Each transient row mixes random mass over everything
/// with guaranteed leakage towards the absorbing block.
fn absorbing_chain_strategy() -> impl Strategy<Value = (Dtmc, usize)> {
    (2usize..=6, 1usize..=3).prop_flat_map(|(t, a)| {
        let n = t + a;
        proptest::collection::vec(0.01f64..1.0, t * n).prop_map(move |weights| {
            let mut rows = Vec::with_capacity(n);
            for i in 0..t {
                let mut row: Vec<f64> = weights[i * n..(i + 1) * n].to_vec();
                // Force strictly positive absorption leakage.
                for cell in row.iter_mut().skip(t) {
                    *cell += 0.2;
                }
                let total: f64 = row.iter().sum();
                for cell in row.iter_mut() {
                    *cell /= total;
                }
                rows.push(row);
            }
            for i in 0..a {
                let mut row = vec![0.0; n];
                row[t + i] = 1.0;
                rows.push(row);
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            (Dtmc::from_rows(&refs).expect("rows normalized"), t)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn absorption_probabilities_sum_to_one((chain, t) in absorbing_chain_strategy()) {
        let abs = AbsorbingChain::new(&chain).unwrap();
        for i in 0..t {
            let probs = abs.absorption_probabilities_from(i).unwrap();
            let total: f64 = probs.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "state {i}: {total}");
            prop_assert!(probs.iter().all(|&p| p >= -1e-12));
        }
    }

    #[test]
    fn expected_steps_satisfy_first_step_equations((chain, t) in absorbing_chain_strategy()) {
        // t_i = 1 + Σ_j P(i→j) t_j over transient j.
        let abs = AbsorbingChain::new(&chain).unwrap();
        for i in 0..t {
            let ti = abs.expected_steps_from(i).unwrap();
            let mut rhs = 1.0;
            for j in 0..t {
                rhs += chain.prob(i, j) * abs.expected_steps_from(j).unwrap();
            }
            prop_assert!((ti - rhs).abs() < 1e-8, "state {i}: {ti} vs {rhs}");
        }
    }

    #[test]
    fn sojourn_totals_decompose_for_every_bipartition((chain, t) in absorbing_chain_strategy(), mask in any::<u32>()) {
        // Split the transient states arbitrarily by the mask bits.
        let s_states: Vec<usize> = (0..t).filter(|i| mask & (1 << i) != 0).collect();
        let p_states: Vec<usize> = (0..t).filter(|i| mask & (1 << i) == 0).collect();
        let partition = SojournPartition::new(s_states, p_states).unwrap();
        let mut alpha = vec![0.0; chain.n_states()];
        alpha[0] = 1.0;
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let abs = AbsorbingChain::new(&chain).unwrap();
        let total = abs.expected_steps_from(0).unwrap();
        let ts = soj.expected_total_s().unwrap();
        let tp = soj.expected_total_p().unwrap();
        prop_assert!(ts >= -1e-12 && tp >= -1e-12);
        prop_assert!((ts + tp - total).abs() < 1e-7,
            "{ts} + {tp} != {total}");
    }

    #[test]
    fn sojourn_distribution_mean_matches_expectation((chain, t) in absorbing_chain_strategy()) {
        let s_states: Vec<usize> = (0..t / 2).collect();
        let p_states: Vec<usize> = (t / 2..t).collect();
        let partition = SojournPartition::new(s_states, p_states).unwrap();
        let mut alpha = vec![0.0; chain.n_states()];
        alpha[0] = 1.0;
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let dist = soj.distribution_s(4000);
        let mass: f64 = dist.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
        let mean: f64 = dist.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
        let want = soj.expected_total_s().unwrap();
        prop_assert!((mean - want).abs() < 1e-4 * (1.0 + want));
    }

    #[test]
    fn classification_counts_are_consistent((chain, t) in absorbing_chain_strategy()) {
        let c = classify(&chain);
        prop_assert_eq!(c.transient_states().len(), t);
        prop_assert_eq!(c.recurrent_states().len(), chain.n_states() - t);
        for i in t..chain.n_states() {
            prop_assert!(c.is_absorbing_state(i));
        }
    }

    #[test]
    fn competing_chains_preserve_scaled_mass((chain, t) in absorbing_chain_strategy(), n in 1u64..50) {
        // After one overlay event the transient mass shrinks by at most
        // the per-event absorption rate / n.
        let comp = CompetingChains::new(&chain, n).unwrap();
        let mut alpha = vec![0.0; chain.n_states()];
        alpha[0] = 1.0;
        let subset: Vec<usize> = (0..t).collect();
        let series = comp.proportion_series(&alpha, &[&subset], &[0, 1, 10]).unwrap();
        prop_assert!((series[0][0] - 1.0).abs() < 1e-12);
        prop_assert!(series[1][0] <= 1.0 + 1e-12);
        prop_assert!(series[2][0] <= series[1][0] + 1e-12);
        // One step removes at most 1/n of the mass (only one chain moves).
        prop_assert!(series[1][0] >= 1.0 - 1.0 / n as f64 - 1e-12);
    }
}
