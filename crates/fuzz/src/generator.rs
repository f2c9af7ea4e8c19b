//! The seeded value generator: a random walk over the joint
//! configuration space.
//!
//! One `u64` seed determines the whole scenario stream. The generator
//! draws every field in a **fixed order** from the vendored
//! deterministic [`rand::rngs::StdRng`] (xoshiro256++ seeded via
//! SplitMix64), so the stream — and therefore the entire fuzz run — is
//! byte-reproducible across machines and thread counts.
//!
//! The walk deliberately steps onto the constructor-invalid edges the
//! model guards against (`Δ = 1`, `k = 0`): those raw draws are pushed
//! through [`ModelParams::new`] so the rejection path is exercised on
//! every occurrence, then clamped to the nearest valid value and
//! recorded in the [`Coverage`] counters. Extreme-but-valid `μ`/`d`
//! corners get dedicated probability mass for the same reason.

use crate::metrics::Coverage;
use crate::scenario::{FuzzScenario, StrategyChoice, SweepKindChoice};
use pollux::{AnalysisMode, InitialCondition, ModelParams};
use pollux_defense::DefenseSpec;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Dense-pipeline ceiling of the dense-vs-sparse oracle pair (states).
/// Kept here because the generator's size ranges are chosen so a healthy
/// fraction of scenarios falls under it; the runner enforces it.
pub const DENSE_STATE_CAP: usize = 400;

/// Seeded scenario stream with coverage accounting.
#[derive(Debug)]
pub struct ScenarioGen {
    rng: StdRng,
    next_id: u64,
    coverage: Coverage,
}

impl ScenarioGen {
    /// A fresh stream; the same `seed` always yields the same stream.
    pub fn new(seed: u64) -> Self {
        ScenarioGen {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            coverage: Coverage::new(),
        }
    }

    /// The accumulated coverage counters.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Draws the next scenario. Field draw order is part of the
    /// reproducibility contract — do not reorder.
    pub fn next_scenario(&mut self) -> FuzzScenario {
        let rng = &mut self.rng;
        let cov = &mut self.coverage;

        // Model sizes, walking through the invalid edges deliberately.
        let c: usize = rng.random_range(1..=8);
        let delta_raw: usize = rng.random_range(1..=12);
        let k_raw: usize = rng.random_range(0..=c);
        let delta = if ModelParams::new(c, delta_raw, k_raw.max(1)).is_err() {
            // Δ = 1 violates max_spare ≥ 2 and must be rejected.
            cov.hit("edge.delta_raw_1");
            2
        } else {
            delta_raw
        };
        let k = if k_raw == 0 {
            // k = 0 violates 1 ≤ k ≤ C and must be rejected.
            debug_assert!(ModelParams::new(c, delta, 0).is_err());
            cov.hit("edge.k_raw_0");
            1
        } else {
            k_raw
        };

        // Rates, with dedicated mass on the extreme corners.
        let mu = match rng.random_range(0..10u32) {
            0 => {
                cov.hit("edge.mu_zero");
                0.0
            }
            1 => {
                cov.hit("edge.mu_extreme");
                0.85
            }
            _ => rng.random_range(0.0..0.6),
        };
        let d = match rng.random_range(0..10u32) {
            0 => {
                cov.hit("edge.d_zero");
                0.0
            }
            1 => {
                cov.hit("edge.d_extreme");
                0.94
            }
            _ => rng.random_range(0.0..0.9),
        };
        let nu = rng.random_range(0.05..0.5);

        let rule1 = rng.random_bool(0.5);
        let rule2 = rng.random_bool(0.5);
        let bias = rng.random_bool(0.5);
        cov.hit(format!(
            "toggles.{}{}{}",
            u8::from(rule1),
            u8::from(rule2),
            u8::from(bias)
        ));

        let initial = if rng.random_bool(0.5) {
            InitialCondition::Delta
        } else {
            InitialCondition::Beta
        };
        cov.hit(format!("initial.{}", initial.label()));

        let strategy = StrategyChoice::ALL[rng.random_range(0..StrategyChoice::ALL.len())];
        cov.hit(format!("strategy.{}", strategy.label()));

        let defense = match rng.random_range(0..4u32) {
            0 => DefenseSpec::Null,
            1 => DefenseSpec::InducedChurn {
                rate: rng.random_range(0.01..0.3),
            },
            2 => DefenseSpec::IncarnationRefresh {
                period: rng.random_range(2.0..20.0),
                detection_prob: rng.random_range(0.1..1.0),
            },
            _ => DefenseSpec::AdaptiveClusterSize {
                target_fraction: rng.random_range(0.25..1.0),
            },
        };
        cov.hit(format!("defense.{}", defense_key(&defense)));

        let mode = if rng.random_bool(0.5) {
            AnalysisMode::Dense
        } else {
            AnalysisMode::Sparse
        };
        cov.hit(format!("mode.{}", mode_key(&mode)));

        // DES overlay knobs, sized so a debug-build replay stays fast.
        let cluster_bits: u32 = rng.random_range(2..=5);
        let lambda = [0.5, 1.0, 2.0][rng.random_range(0..3usize)];
        let events_per_cluster: u64 = rng.random_range(100..=400);
        let regenerate = rng.random_bool(0.5);
        cov.hit(if regenerate { "regen.on" } else { "regen.off" });
        // Per-cluster warm-up. Regeneration runs always warm up half the
        // budget (the steady-state estimator carries an O(1/budget)
        // fresh-δ transient otherwise); plain runs fuzz the zero-warm-up
        // path too.
        let warmup_events = if regenerate {
            events_per_cluster / 2
        } else {
            [0, events_per_cluster / 4][rng.random_range(0..2usize)]
        };
        let n_samples = rng.random_range(0..=3usize);
        let mut sample_times: Vec<f64> = (0..n_samples)
            .map(|_| rng.random_range(0.0..50.0))
            .collect();
        sample_times.sort_by(f64::total_cmp);
        let shards: usize = rng.random_range(2..=8);
        cov.hit(format!("shards.{shards}"));

        let kind = SweepKindChoice::ALL[rng.random_range(0..SweepKindChoice::ALL.len())];
        cov.hit(format!("kind.{}", kind.label()));

        let seed = rng.next_u64();

        let id = self.next_id;
        self.next_id += 1;
        FuzzScenario {
            id,
            seed,
            c,
            delta,
            k,
            mu,
            d,
            nu,
            rule1,
            rule2,
            bias,
            initial,
            strategy,
            defense,
            mode,
            cluster_bits,
            lambda,
            events_per_cluster,
            regenerate,
            warmup_events,
            sample_times,
            shards,
            kind,
        }
    }
}

fn defense_key(spec: &DefenseSpec) -> &'static str {
    match spec {
        DefenseSpec::Null => "null",
        DefenseSpec::InducedChurn { .. } => "induced_churn",
        DefenseSpec::IncarnationRefresh { .. } => "incarnation_refresh",
        DefenseSpec::AdaptiveClusterSize { .. } => "adaptive_cluster_size",
        // `DefenseSpec` is non-exhaustive; the generator only draws the
        // four variants above.
        _ => unreachable!("generator never draws unknown defense variants"),
    }
}

fn mode_key(mode: &AnalysisMode) -> &'static str {
    match mode {
        AnalysisMode::Dense => "dense",
        AnalysisMode::Sparse => "sparse",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts every constructor invariant a scenario must satisfy.
    fn assert_valid(s: &FuzzScenario) {
        // `params()` panics on violation, so this is the whole check for
        // (C, Δ, k, μ, d, ν, toggles).
        let params = s.params();
        assert_eq!(params.state_count(), s.state_count());
        assert!(s.k >= 1 && s.k <= s.c);
        assert!(s.delta >= 2);
        assert!((2..=5).contains(&s.cluster_bits));
        assert!(s.lambda > 0.0);
        assert!((100..=400).contains(&s.events_per_cluster));
        assert!(s.warmup_events < s.events_per_cluster);
        assert!((2..=8).contains(&s.shards));
        assert!(s.sample_times.windows(2).all(|w| w[0] <= w[1]));
        // The strategy and defense build without error.
        let _ = s.strategy();
        s.defense.build().expect("defense spec in valid range");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ScenarioGen::new(42);
        let mut b = ScenarioGen::new(42);
        for _ in 0..50 {
            assert_eq!(a.next_scenario(), b.next_scenario());
        }
        assert_eq!(a.coverage(), b.coverage());
        let mut c = ScenarioGen::new(42);
        let mut d = ScenarioGen::new(43);
        let differs = (0..50).any(|_| c.next_scenario() != d.next_scenario());
        assert!(differs, "different seeds must diverge");
    }

    #[test]
    fn ten_thousand_draws_satisfy_every_invariant() {
        let mut gen = ScenarioGen::new(2011);
        for i in 0..10_000u64 {
            let s = gen.next_scenario();
            assert_eq!(s.id, i);
            assert_valid(&s);
        }
    }

    #[test]
    fn every_variant_is_hit_within_600_draws() {
        let mut gen = ScenarioGen::new(2011);
        for _ in 0..600 {
            gen.next_scenario();
        }
        let cov = gen.coverage();
        for s in StrategyChoice::ALL {
            assert!(cov.count(&format!("strategy.{}", s.label())) > 0, "{s:?}");
        }
        for key in [
            "defense.null",
            "defense.induced_churn",
            "defense.incarnation_refresh",
            "defense.adaptive_cluster_size",
            "mode.dense",
            "mode.sparse",
            "initial.delta",
            "initial.beta",
            "regen.on",
            "regen.off",
            "edge.delta_raw_1",
            "edge.k_raw_0",
            "edge.mu_zero",
            "edge.mu_extreme",
            "edge.d_zero",
            "edge.d_extreme",
        ] {
            assert!(cov.count(key) > 0, "{key} never hit");
        }
        for kind in SweepKindChoice::ALL {
            assert!(cov.count(&format!("kind.{}", kind.label())) > 0, "{kind:?}");
        }
        for shards in 2..=8 {
            assert!(
                cov.count(&format!("shards.{shards}")) > 0,
                "shards {shards}"
            );
        }
        // All 8 toggle combinations.
        for r1 in 0..2 {
            for r2 in 0..2 {
                for b in 0..2 {
                    let key = format!("toggles.{r1}{r2}{b}");
                    assert!(cov.count(&key) > 0, "{key} never hit");
                }
            }
        }
    }

    #[test]
    fn a_healthy_fraction_fits_under_the_dense_cap() {
        let mut gen = ScenarioGen::new(7);
        let under = (0..200)
            .filter(|_| gen.next_scenario().state_count() <= DENSE_STATE_CAP)
            .count();
        assert!(under >= 50, "only {under}/200 under the dense cap");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Invariants hold from arbitrary seeds, and the JSON encoding
        /// round-trips every generated scenario exactly.
        #[test]
        fn draws_are_valid_and_round_trip_from_any_seed(seed in any::<u64>()) {
            let mut gen = ScenarioGen::new(seed);
            for _ in 0..40 {
                let s = gen.next_scenario();
                assert_valid(&s);
                let back = FuzzScenario::from_json(&s.to_json()).expect("round trip");
                prop_assert_eq!(back, s);
            }
        }
    }
}
