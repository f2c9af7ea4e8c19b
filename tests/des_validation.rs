//! Repo-level acceptance tests for the whole-overlay discrete-event
//! simulator: the registry's `des_validate` scenario (10⁵⁺ nodes at its
//! largest overlay size) must be byte-identical across thread counts —
//! which, since the runner's thread count now also shards each DES run,
//! exercises the sharded engine end-to-end — and must agree with the
//! Markov model within its statistical tolerances. A property test
//! additionally pins [`pollux::des_overlay`]'s shard-invariance contract
//! (byte-identical `DesOverlayReport`s at 1, 2 and 8 shards, with and
//! without a defense in the loop) across random `(C, Δ, k, μ, d)` draws.

use pollux::des_overlay::{run_des_overlay, run_des_overlay_duel, DesOverlayConfig};
use pollux::{InitialCondition, ModelParams};
use pollux_adversary::TargetedStrategy;
use pollux_defense::IncarnationRefresh;
use pollux_prob::tolerance::AGREEMENT_SIGMAS;
use pollux_sweep::{registry, OutputKind, SweepRunner};
use proptest::prelude::*;

/// The statistical agreement criteria of the steady-state/duel scenarios
/// are pinned to the shared [`pollux_prob::tolerance`] quantile — the
/// same constant the `pollux-fuzz` differential oracle uses — so the
/// registry, this suite and the fuzzer cannot drift apart.
#[test]
fn steady_state_scenarios_pin_the_shared_agreement_quantile() {
    for name in ["des_steady_state", "duel_matrix"] {
        let scenario = registry::find(name).expect("registered");
        let sigmas = match scenario.kind {
            OutputKind::DesSteadyState { sigmas, .. } | OutputKind::Duel { sigmas, .. } => sigmas,
            other => panic!("unexpected kind {other:?}"),
        };
        assert_eq!(sigmas, AGREEMENT_SIGMAS, "{name}");
    }
}

#[test]
fn registry_des_validate_is_byte_identical_across_threads_and_agrees() {
    let scenario = registry::find("des_validate").expect("registered");
    let one = SweepRunner::new()
        .with_threads(1)
        .run(&scenario)
        .expect("runs");
    let eight = SweepRunner::new()
        .with_threads(8)
        .run(&scenario)
        .expect("runs");

    // Byte-identity of both artefact encodings, 1 vs 8 threads.
    assert_eq!(one.to_tsv(), eight.to_tsv());
    assert_eq!(one.to_json(), eight.to_json());

    // The scenario's largest overlay is the 10^5-node acceptance point.
    let nodes_col = one.column("nodes").expect("nodes column");
    let max_nodes = one
        .rows
        .iter()
        .filter_map(|r| r[nodes_col].as_f64())
        .fold(0.0f64, f64::max);
    assert!(
        max_nodes >= 1e5,
        "des_validate must reach 10^5 nodes (saw {max_nodes})"
    );

    // Simulated-vs-Markov agreement within the CI-checked tolerance on
    // every row (the `ok` verdict column), with no censored clusters.
    assert!(
        one.all_ok(),
        "DES vs Markov mismatch:\n{}",
        one.render_text()
    );
    let censored_col = one.column("censored").expect("censored column");
    assert!(one
        .rows
        .iter()
        .all(|r| r[censored_col].as_f64() == Some(0.0)));
}

/// Random model parameters small enough for fast debug-build DES runs.
fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        3usize..=7,
        3usize..=8,
        0.0f64..0.5,
        0.0f64..0.95,
        0.01f64..0.5,
    )
        .prop_flat_map(|(c, delta, mu, d, nu)| {
            (1usize..=c).prop_map(move |k| {
                ModelParams::new(c, delta, k)
                    .expect("generated sizes are valid")
                    .with_mu(mu)
                    .with_d(d)
                    .with_nu(nu)
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded-DES determinism contract: per-cluster counter-seeded
    /// streams make every report a function of `(inputs, seed)` alone, so
    /// shard counts 1, 2 and 8 must produce byte-identical reports — in
    /// plain runs, in regeneration mode with an occupancy grid, and with
    /// a randomness-consuming defense in the loop.
    #[test]
    fn des_reports_are_byte_identical_across_shard_counts(
        params in params_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let strategy = TargetedStrategy::new(params.k(), params.nu())
            .expect("k and nu come from valid draws");
        let defense = IncarnationRefresh::new(8.0, 0.5).expect("valid defense");
        let plain = DesOverlayConfig::new(4, 1.0, 150 << 4);
        let regen = DesOverlayConfig::new(4, 1.0, 150 << 4)
            .with_regeneration()
            .with_sample_times(vec![0.0, 3.0, 40.0, 1e9]);
        for cfg in [plain, regen] {
            let one = run_des_overlay(&params, &InitialCondition::Delta, &strategy, &cfg, seed);
            let one_duel = run_des_overlay_duel(
                &params, &InitialCondition::Delta, &strategy, &defense, &cfg, seed,
            );
            for shards in [2usize, 8] {
                let cfg_n = cfg.clone().with_shards(shards);
                let many =
                    run_des_overlay(&params, &InitialCondition::Delta, &strategy, &cfg_n, seed);
                prop_assert_eq!(&one, &many, "shards = {}", shards);
                let many_duel = run_des_overlay_duel(
                    &params, &InitialCondition::Delta, &strategy, &defense, &cfg_n, seed,
                );
                prop_assert_eq!(&one_duel, &many_duel, "duel shards = {}", shards);
            }
        }
    }
}
