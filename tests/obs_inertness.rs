//! The observability layer's hard contract, enforced end to end:
//! instrumentation is **provably inert**. Every scenario artefact —
//! sweep TSV/JSON bytes, DES reports, duel reports — must be
//! byte-identical whether metrics are recorded or not, at any
//! shard/thread count. Each test compares a plain entry point (which
//! passes `NullRecorder`) with its observed twin (which passes a
//! `MetricsRecorder`), and checks the recorded side for plausibility.

use proptest::prelude::*;

use pollux::des_overlay::{
    run_des_overlay, run_des_overlay_duel_observed, run_des_overlay_duel_with_stats,
    DesOverlayConfig,
};
use pollux::{InitialCondition, ModelParams};
use pollux_adversary::TargetedStrategy;
use pollux_defense::NullDefense;
use pollux_sweep::{OutputKind, ParamGrid, Scenario, SweepRunner};

fn params() -> ModelParams {
    ModelParams::paper_defaults().with_mu(0.25).with_d(0.9)
}

fn strategy(p: &ModelParams) -> TargetedStrategy {
    TargetedStrategy::new(p.k(), p.nu()).unwrap()
}

/// DES duel artefacts must not change when a recorder rides along —
/// at 1 shard and at 8, in plain and regeneration modes.
#[test]
fn des_duel_bytes_survive_observation_at_any_shard_count() {
    let p = params();
    let s = strategy(&p);
    let configs = [
        DesOverlayConfig::new(6, 1.0, 3_000 << 6),
        DesOverlayConfig::new(6, 1.0, 3_000 << 6).with_shards(8),
        DesOverlayConfig::new(5, 1.0, 2_000 << 5)
            .with_regeneration()
            .with_warmup_events(500)
            .with_shards(8),
    ];
    for config in &configs {
        let (plain, plain_stats) = run_des_overlay_duel_with_stats(
            &p,
            &InitialCondition::Delta,
            &s,
            &NullDefense::new(),
            config,
            2011,
        );
        let (observed, obs_stats, obs) = run_des_overlay_duel_observed(
            &p,
            &InitialCondition::Delta,
            &s,
            &NullDefense::new(),
            config,
            2011,
            4096,
        );
        assert_eq!(plain, observed, "observation changed report bytes");
        assert_eq!(plain_stats.shard_events, obs_stats.shard_events);
        assert!(!obs.registry.is_empty());
        assert!(!obs.trace.is_empty());
    }
}

/// The single-run entry point equals the duel path under observation,
/// and sharding never changes bytes either way.
#[test]
fn des_single_run_matches_observed_duel() {
    let p = params();
    let s = strategy(&p);
    let config = DesOverlayConfig::new(6, 1.0, 3_000 << 6);
    let single = run_des_overlay(&p, &InitialCondition::Delta, &s, &config, 7);
    for shards in [1usize, 8] {
        let cfg = config.clone().with_shards(shards);
        let (observed, _, _) = run_des_overlay_duel_observed(
            &p,
            &InitialCondition::Delta,
            &s,
            &NullDefense::new(),
            &cfg,
            7,
            64,
        );
        assert_eq!(single, observed, "shards={shards}");
    }
}

/// Sweep artefact bytes (TSV and JSON) are identical between the plain
/// and observed runner paths, at 1 thread and at 8, across an
/// analytical, a Monte-Carlo and a DES-validation scenario.
#[test]
fn sweep_artefact_bytes_survive_observation() {
    let scenarios = [
        Scenario::new(
            "inert_sojourns",
            "analytical battery",
            ParamGrid::paper().mu(vec![0.0, 0.25]).d(vec![0.5, 0.9]),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "inert_mc",
            "monte-carlo validation",
            ParamGrid::paper().mu(vec![0.2]).d(vec![0.8]),
            OutputKind::McValidation {
                replications: 200,
                sigmas: 4.0,
            },
        ),
        Scenario::new(
            "inert_des",
            "whole-overlay DES validation",
            ParamGrid::paper().mu(vec![0.25]).d(vec![0.9]),
            OutputKind::DesValidation {
                cluster_bits: vec![5],
                lambda: 1.0,
                max_events_per_cluster: 2_000,
                sigmas: 6.0,
            },
        ),
    ];
    for scenario in &scenarios {
        let mut renderings = Vec::new();
        for threads in [1usize, 8] {
            let runner = SweepRunner::new().with_threads(threads).with_seed(2011);
            let plain = runner.run(scenario).unwrap();
            let (observed, obs) = runner
                .run_all_observed(std::slice::from_ref(scenario))
                .unwrap();
            assert_eq!(plain, observed[0], "{}, threads={threads}", scenario.name);
            renderings.push((plain.to_tsv(), plain.to_json()));
            assert!(obs[0].registry.counter("sweep.cells").is_some());
        }
        assert_eq!(renderings[0], renderings[1], "{}", scenario.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small DES workloads: observation is inert for every
    /// `(cluster_bits, shards, seed, mu)` drawn, including trace rings
    /// small enough to wrap.
    #[test]
    fn observed_des_is_inert_for_random_workloads(
        bits in 3u32..6,
        shards in 1usize..6,
        seed in 0u64..1_000,
        mu in 0.0f64..0.5,
        cap_choice in 0usize..3,
    ) {
        // Tiny capacities force ring wraparound; the large one never wraps.
        let trace_capacity = [1usize, 16, 4096][cap_choice];
        let p = ModelParams::paper_defaults().with_mu(mu).with_d(0.9);
        let s = strategy(&p);
        let config = DesOverlayConfig::new(bits, 1.0, 1_000 << bits);
        let plain = run_des_overlay(&p, &InitialCondition::Delta, &s, &config, seed);
        let cfg = config.clone().with_shards(shards);
        let (observed, _, obs) = run_des_overlay_duel_observed(
            &p,
            &InitialCondition::Delta,
            &s,
            &NullDefense::new(),
            &cfg,
            seed,
            trace_capacity,
        );
        prop_assert_eq!(&plain, &observed);
        // Trace stays bounded and time-sorted even across shard merges.
        prop_assert!(obs.trace.len() <= trace_capacity * shards);
        prop_assert!(obs.trace.windows(2).all(|w| w[0].time <= w[1].time));
    }
}
