//! A `DefenseFold` is the defense exactly as the chain builder reads it,
//! which is what makes it an exact cache key:
//!
//! * equal folds build bit-identical chains, whatever defense objects
//!   stand behind them (property-sampled over parameters and pairs);
//! * defenses that differ only in name or in how they compute equal
//!   values share a fold; defenses that share a name but not their
//!   values do not;
//! * a defense whose hooks vary with the cluster's composition gets a
//!   fold of its own, and so a what-if answer of its own.

use pollux::{AdversaryToggles, ClusterChain, DefenseFold, InitialCondition, ModelParams};
use pollux_adversary::ClusterView;
use pollux_defense::{AdaptiveClusterSize, Defense, IncarnationRefresh, InducedChurn, NullDefense};
use pollux_meanfield::{planet_scale_what_if_with_defense, WhatIfAnswer};
use proptest::prelude::*;

/// Every hook neutral, under another name than `NullDefense`.
struct Inert;

impl Defense for Inert {
    fn name(&self) -> &'static str {
        "inert"
    }
}

/// `InducedChurn`'s value from a hand-written hook.
struct ConstChurn(f64);

impl Defense for ConstChurn {
    fn name(&self) -> &'static str {
        "const-churn"
    }
    fn induced_churn(&self, _view: &ClusterView) -> f64 {
        self.0
    }
}

/// `IncarnationRefresh`'s hazard, `detection_prob / period`, by hand.
struct ConstRefresh {
    period: f64,
    detection_prob: f64,
}

impl Defense for ConstRefresh {
    fn name(&self) -> &'static str {
        "const-refresh"
    }
    fn refresh_eviction(&self, _view: &ClusterView) -> f64 {
        self.detection_prob / self.period
    }
}

/// `AdaptiveClusterSize`'s setpoint taper written as join-rate shaping.
struct Taper(f64);

impl Defense for Taper {
    fn name(&self) -> &'static str {
        "taper"
    }
    fn join_admission(&self, view: &ClusterView) -> f64 {
        let (s, delta) = (view.spare_size(), view.max_spare());
        let t = ((self.0 * delta as f64).round() as usize).max(1);
        if s > t && delta > t {
            (delta - s) as f64 / (delta - t) as f64
        } else {
            1.0
        }
    }
}

/// Induced churn that grows with the cluster's malicious members.
struct Hunter;

impl Defense for Hunter {
    fn name(&self) -> &'static str {
        "hunter"
    }
    fn induced_churn(&self, view: &ClusterView) -> f64 {
        let malicious = view.malicious_core() + view.malicious_spare();
        0.2 * malicious as f64 / (view.core_size() + view.max_spare()) as f64
    }
}

/// The defenses the tests pair up; neighbours 0–1, 2–3, 5–6 and 7–8
/// compute equal values in different ways.
fn family() -> Vec<Box<dyn Defense>> {
    vec![
        Box::new(NullDefense::new()),
        Box::new(Inert),
        Box::new(InducedChurn::new(0.1).unwrap()),
        Box::new(ConstChurn(0.1)),
        Box::new(InducedChurn::new(0.2).unwrap()),
        Box::new(IncarnationRefresh::new(10.0, 0.8).unwrap()),
        Box::new(ConstRefresh {
            period: 10.0,
            detection_prob: 0.8,
        }),
        Box::new(AdaptiveClusterSize::new(0.5).unwrap()),
        Box::new(Taper(0.5)),
        Box::new(Hunter),
    ]
}

/// Every CSR entry of a chain as `(row, column, value bits)`.
fn csr_bits(chain: &ClusterChain) -> Vec<(usize, usize, u64)> {
    let m = chain.sparse_dtmc().matrix();
    (0..m.rows())
        .flat_map(|i| m.row_entries(i).map(move |(j, v)| (i, j, v.to_bits())))
        .collect()
}

fn answer_bits(a: &WhatIfAnswer) -> [u64; 9] {
    [
        a.n_clusters,
        a.mean_cluster_size,
        a.safe_fraction,
        a.polluted_fraction,
        a.polluted_node_fraction,
        a.expected_polluted_nodes,
        a.spectral_gap,
        a.settling_time,
        a.finite_size_band,
    ]
    .map(f64::to_bits)
}

#[test]
fn equal_values_share_a_fold_and_equal_names_do_not() {
    let shapes = [
        ModelParams::paper_defaults(),
        ModelParams::new(4, 10, 2).unwrap(),
        ModelParams::new(7, 20, 7).unwrap(),
    ];
    let defenses = family();
    for params in &shapes {
        let fold = |i: usize| DefenseFold::new(params, defenses[i].as_ref());
        for (a, b) in [(0, 1), (2, 3), (5, 6), (7, 8)] {
            assert_eq!(fold(a), fold(b), "{params}: {a} vs {b}");
        }
        // Same name, other rate.
        assert_eq!(defenses[2].name(), defenses[4].name());
        assert_ne!(fold(2), fold(4), "{params}");
        for (a, b) in [(0, 2), (0, 5), (0, 7), (2, 5), (0, 9), (2, 9), (4, 9)] {
            assert_ne!(fold(a), fold(b), "{params}: {a} vs {b}");
        }
    }
}

#[test]
fn composition_dependent_hooks_get_their_own_fold_and_answer() {
    let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
    let fold = DefenseFold::new(&params, &Hunter);
    assert!(fold.run_count() > 1);
    for rate in [0.0, 0.1, 0.2] {
        assert_ne!(
            fold,
            DefenseFold::new(&params, &InducedChurn::new(rate).unwrap())
        );
    }
    let ask = |defense: &dyn Defense| {
        planet_scale_what_if_with_defense(&params, defense, &InitialCondition::Delta, 1e9, 1.0)
            .unwrap()
    };
    let first = ask(&Hunter);
    assert_eq!(answer_bits(&ask(&Hunter)), answer_bits(&first));
    for rate in [0.0, 0.1, 0.2] {
        let constant = ask(&InducedChurn::new(rate).unwrap());
        assert_ne!(answer_bits(&constant), answer_bits(&first), "rate {rate}");
    }
}

/// Small valid parameter sets over every field the builder reads.
fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        1usize..=5,
        2usize..=7,
        0.0f64..0.9,
        0.0f64..0.99,
        0.01f64..0.9,
        0u8..8,
    )
        .prop_flat_map(|(c, delta, mu, d, nu, toggles)| {
            (1usize..=c).prop_map(move |k| {
                ModelParams::new(c, delta, k)
                    .expect("generated sizes are valid")
                    .with_mu(mu)
                    .with_d(d)
                    .with_nu(nu)
                    .with_toggles(AdversaryToggles {
                        rule1: toggles & 1 != 0,
                        rule2: toggles & 2 != 0,
                        bias: toggles & 4 != 0,
                    })
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key completeness: a chain is a function of the parameters and the
    /// fold alone, so equal folds mean bit-identical chains.
    #[test]
    fn equal_folds_build_bit_identical_chains(
        params in params_strategy(),
        a in 0usize..10,
        b in 0usize..10,
    ) {
        let defenses = family();
        let (da, db) = (defenses[a].as_ref(), defenses[b].as_ref());
        let (fa, fb) = (DefenseFold::new(&params, da), DefenseFold::new(&params, db));
        let chain = csr_bits(&ClusterChain::build_with_defense(&params, da));
        prop_assert_eq!(&chain, &csr_bits(&ClusterChain::build_with_fold(&params, &fa)));
        if fa == fb {
            prop_assert_eq!(chain, csr_bits(&ClusterChain::build_with_defense(&params, db)));
        }
    }
}
