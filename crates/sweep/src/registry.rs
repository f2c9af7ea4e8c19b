//! Built-in scenarios: every artefact of the paper's evaluation
//! (Sections VII–VIII) plus beyond-paper grids exploring regimes the
//! paper's fixed tables cannot show.

use pollux::{AdversaryToggles, InitialCondition};
use pollux_defense::DefenseSpec;
use pollux_prob::tolerance::AGREEMENT_SIGMAS;

use crate::{OutputKind, ParamGrid, Scenario, SweepError, ToggleSpec};

/// The scenario names reproducing the paper's own artefacts, in
/// presentation order. [`paper`] returns exactly these.
pub const PAPER_ARTEFACTS: [&str; 11] = [
    "state_space",
    "fig3",
    "table1",
    "table2",
    "fig4",
    "fig5",
    "ablation_k",
    "ablation_rules",
    "ablation_nu",
    "validate_model",
    "validate_overlay",
];

/// The `d` grid of Figures 3 and 4.
const FIGURE_D_GRID: [f64; 4] = [0.0, 0.3, 0.8, 0.9];

/// The `μ` grid of Figures 3 and 4.
const FIGURE_MU_GRID: [f64; 7] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// The `μ` grid of Tables I and II.
const TABLE_MU_GRID: [f64; 4] = [0.0, 0.10, 0.20, 0.30];

/// The `d` grid of Table I.
const TABLE1_D_GRID: [f64; 3] = [0.95, 0.99, 0.999];

/// The Figure-5 sampling grid: 0 to 100 000 events in steps of 2 000
/// (51 points), matching the paper's x-axis.
fn figure5_sample_points() -> Vec<u64> {
    (0..=50).map(|i| i * 2000).collect()
}

fn both_initials() -> Vec<InitialCondition> {
    vec![InitialCondition::Delta, InitialCondition::Beta]
}

/// Scenarios reproducing the paper's tables and figures.
pub fn paper() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "state_space",
            "Figure 1: state-space partition sizes and Rule-2 reachability across (C, Delta)",
            ParamGrid::paper()
                .core_size(vec![4, 7, 10])
                .max_spare(vec![4, 7, 10])
                .mu(vec![0.3])
                .d(vec![0.9]),
            OutputKind::StateSpace,
        ),
        Scenario::new(
            "fig3",
            "Figure 3: E(T_S^(k)), E(T_P^(k)) over (d, mu) for protocols 1 and 7, both initials",
            ParamGrid::paper()
                .initial(both_initials())
                .k(vec![1, 7])
                .d(FIGURE_D_GRID.to_vec())
                .mu(FIGURE_MU_GRID.to_vec()),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "table1",
            "Table I: E(T_S^(1)), E(T_P^(1)) in the high-survival regime",
            ParamGrid::paper()
                .d(TABLE1_D_GRID.to_vec())
                .mu(TABLE_MU_GRID.to_vec()),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "table2",
            "Table II: first two successive sojourn expectations at d = 90%",
            ParamGrid::paper().d(vec![0.9]).mu(TABLE_MU_GRID.to_vec()),
            OutputKind::SuccessiveSojourns { count: 2 },
        ),
        Scenario::new(
            "fig4",
            "Figure 4: absorption probabilities over (d, mu), both initials",
            ParamGrid::paper()
                .initial(both_initials())
                .d(FIGURE_D_GRID.to_vec())
                .mu(FIGURE_MU_GRID.to_vec()),
            OutputKind::Absorption,
        ),
        Scenario::new(
            "fig5",
            "Figure 5: overlay proportions E(N_S(m))/n, E(N_P(m))/n for n in {500, 1500}",
            ParamGrid::paper()
                .d(vec![0.3, 0.9])
                .mu(vec![0.10, 0.20, 0.25, 0.30]),
            OutputKind::OverlayProportions {
                n_clusters: vec![500, 1500],
                sample_points: figure5_sample_points(),
            },
        ),
        Scenario::new(
            "ablation_k",
            "k-sweep: the 'protocol_1 wins' lesson, extended to every k and both initials",
            ParamGrid::paper()
                .initial(both_initials())
                .k((1..=7).collect())
                .mu(vec![0.2, 0.3])
                .d(vec![0.8, 0.9]),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "ablation_rules",
            "Adversary-lever ablation: Rule 1 / Rule 2 / bias toggled independently",
            ParamGrid::paper()
                .toggles(vec![
                    ToggleSpec::full(),
                    ToggleSpec::named(
                        "no-rule2",
                        AdversaryToggles {
                            rule2: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named(
                        "no-bias",
                        AdversaryToggles {
                            bias: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named(
                        "no-rule1",
                        AdversaryToggles {
                            rule1: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named("passive", AdversaryToggles::none()),
                ])
                .mu(vec![0.3])
                .d(vec![0.9]),
            OutputKind::SojournsWithAbsorption,
        ),
        Scenario::new(
            "ablation_nu",
            "Rule-1 threshold sweep at k = 7 (nu is inert for k = 1)",
            ParamGrid::paper()
                .k(vec![1, 7])
                .nu(vec![0.01, 0.05, 0.1, 0.2, 0.4])
                .mu(vec![0.3])
                .d(vec![0.9]),
            OutputKind::SojournsWithAbsorption,
        ),
        Scenario::new(
            "validate_model",
            "Figure 2 validation: analytical metrics vs event-level Monte-Carlo",
            // Covers the low-survival regime (d = 0.3) and an
            // intermediate protocol (k = 3), not just the corners.
            ParamGrid::paper()
                .k(vec![1, 3, 7])
                .mu(vec![0.0, 0.2, 0.3])
                .d(vec![0.3, 0.8, 0.9]),
            OutputKind::McValidation {
                replications: 40_000,
                sigmas: 3.0,
            },
        ),
        Scenario::new(
            "validate_overlay",
            "Theorem 2 validation: closed-form proportions vs n-cluster Monte-Carlo",
            ParamGrid::paper().mu(vec![0.25]).d(vec![0.9]),
            OutputKind::OverlayMcValidation {
                n_clusters: 500,
                runs: 20,
                sample_points: vec![0, 5_000, 10_000, 20_000, 40_000, 80_000],
                tol_safe: 0.02,
                tol_polluted: 0.01,
            },
        ),
    ]
}

/// Beyond-paper scenarios: larger grids and regimes the DSN'11 tables
/// leave unexplored.
pub fn extended() -> Vec<Scenario> {
    vec![
        Scenario::new(
            "mu_extreme",
            "Beyond-paper: adversarial fractions up to 50% (the paper stops at 30%)",
            ParamGrid::paper()
                .k(vec![1, 7])
                .mu(vec![0.30, 0.35, 0.40, 0.45, 0.50])
                .d(vec![0.8, 0.9, 0.95]),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "nu_fine",
            "Beyond-paper: fine-grained Rule-1 threshold sweep for k in {3, 5, 7}",
            ParamGrid::paper()
                .k(vec![3, 5, 7])
                .nu(vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5])
                .mu(vec![0.2, 0.3])
                .d(vec![0.9]),
            OutputKind::SojournsWithAbsorption,
        ),
        Scenario::new(
            "delta_large",
            "Beyond-paper: larger spare bounds Delta (bigger transient band)",
            ParamGrid::paper()
                .max_spare(vec![7, 10, 14])
                .mu(vec![0.2, 0.3])
                .d(vec![0.9]),
            OutputKind::Sojourns,
        ),
        Scenario::new(
            "absorption_fine",
            "Beyond-paper: absorption split on a fine (mu, d) grid",
            ParamGrid::paper()
                .mu(vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
                .d(vec![0.9, 0.95, 0.99]),
            OutputKind::Absorption,
        ),
        Scenario::new(
            "risk_decomposition",
            "Beyond-paper: pollution frequency vs episode duration vs steady-state fraction",
            ParamGrid::paper()
                .d(vec![0.3, 0.8, 0.9, 0.95])
                .mu(vec![0.1, 0.2, 0.3]),
            OutputKind::PollutionRisk,
        ),
        Scenario::new(
            "des_validate",
            "DES cross-validation: whole-overlay event-driven runs (10^4 and 1.6*10^5 nodes) vs the Markov chain",
            ParamGrid::paper().mu(vec![0.1, 0.25]).d(vec![0.8, 0.9]),
            // The per-cluster budget is a cap, not work: without
            // regeneration a cluster stops at absorption (E(T) ≈ 13
            // events), so a generous budget costs nothing and keeps the
            // censoring probability of the sojourn tail negligible even
            // over 2^14 clusters.
            OutputKind::DesValidation {
                cluster_bits: vec![10, 14],
                lambda: 1.0,
                max_events_per_cluster: 5_000,
                sigmas: 4.0,
            },
        ),
        Scenario::new(
            "des_validate_wide",
            "DES cross-validation across structure and adversary ablations: (C, Delta, k) x {full, no-rule2, no-bias, passive}",
            ParamGrid::paper()
                .core_size(vec![4, 7])
                .max_spare(vec![5, 7])
                .k(vec![1, 7])
                .mu(vec![0.2])
                .d(vec![0.8])
                .toggles(vec![
                    ToggleSpec::full(),
                    ToggleSpec::named(
                        "no-rule2",
                        AdversaryToggles {
                            rule2: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named(
                        "no-bias",
                        AdversaryToggles {
                            bias: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named("passive", AdversaryToggles::none()),
                ]),
            OutputKind::DesValidation {
                cluster_bits: vec![11],
                lambda: 1.0,
                max_events_per_cluster: 5_000,
                sigmas: 4.5,
            },
        ),
        Scenario::new(
            "state_space_scaling",
            "Sparse-pipeline scaling: the full analytical battery at Delta up to 100 (10^4-10^5 states, far past the paper's Delta = 7)",
            // Δ = 20 (1 848 states) crosses into iterative solves;
            // Δ = 48 ≈ 10⁴ states; Δ = 100 ≈ 4·10⁴ states (the bench
            // suite pushes to Δ = 156 ≈ 10⁵). μ/d sit at the paper's
            // hardest evaluated corner so pollution metrics stay
            // non-trivial at every size.
            ParamGrid::paper()
                .max_spare(vec![7, 20, 48, 100])
                .mu(vec![0.2])
                .d(vec![0.8]),
            OutputKind::StateSpaceScaling,
        ),
        Scenario::new(
            "des_scale",
            "DES at production scale: one 1.3-million-node overlay (2^17 clusters) vs the Markov chain",
            ParamGrid::paper().mu(vec![0.25]).d(vec![0.9]),
            OutputKind::DesValidation {
                cluster_bits: vec![17],
                lambda: 1.0,
                max_events_per_cluster: 5_000,
                sigmas: 4.0,
            },
        ),
        Scenario::new(
            "des_steady_state",
            "Regeneration-mode DES vs the renewal-reward closed form: long-run safe/polluted event fractions plus a live-fraction time grid",
            ParamGrid::paper().mu(vec![0.2, 0.3]).d(vec![0.8, 0.9]),
            OutputKind::DesSteadyState {
                cluster_bits: vec![10],
                lambda: 1.0,
                max_events_per_cluster: 2_000,
                // ~2000 time units per run at λ = 1: sample the first
                // tenth densely (the transient settles within a few
                // cycles) and the rest coarsely.
                sample_times: vec![
                    0.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 1500.0, 2000.0,
                ],
                sigmas: AGREEMENT_SIGMAS,
            },
        ),
        Scenario::new(
            "duel_matrix",
            "Adversary-vs-defense duels: strategies x defenses x (C, Delta), analytic (sparse pipeline) vs regeneration-mode DES per cell",
            ParamGrid::paper()
                .core_size(vec![4, 7])
                .max_spare(vec![5, 7])
                .mu(vec![0.25])
                .d(vec![0.9])
                .toggles(vec![
                    ToggleSpec::full(),
                    ToggleSpec::named(
                        "no-bias",
                        AdversaryToggles {
                            bias: false,
                            ..AdversaryToggles::all()
                        },
                    ),
                    ToggleSpec::named("passive", AdversaryToggles::none()),
                ]),
            OutputKind::Duel {
                defenses: vec![
                    DefenseSpec::Null,
                    DefenseSpec::InducedChurn { rate: 0.1 },
                    DefenseSpec::IncarnationRefresh {
                        period: 10.0,
                        detection_prob: 0.8,
                    },
                    DefenseSpec::AdaptiveClusterSize {
                        target_fraction: 0.5,
                    },
                ],
                cluster_bits: 9,
                lambda: 1.0,
                // Regeneration-mode budgets are fully consumed; the duel
                // compares through the completed-cycle renewal estimator
                // (no interrupted-cycle truncation bias), so the budget
                // only sizes the cycle count behind the Wilson interval.
                max_events_per_cluster: 1_500,
                sigmas: AGREEMENT_SIGMAS,
            },
        ),
        Scenario::new(
            "defense_frontier",
            "Minimum induced-churn rate keeping steady-state pollution below 1% across the (mu, d) plane (mean-field bisection verified against the exact chain)",
            ParamGrid::paper()
                .mu(vec![0.2, 0.25, 0.3])
                .d(vec![0.85, 0.9, 0.95]),
            OutputKind::ControlTuning {
                threshold: 0.01,
                max_rate: 0.5,
                // Matches the finest step of the retired grid scan while
                // spending ~log2(0.5/0.01) fluid solves per cell instead
                // of one exact battery per grid point.
                rate_tol: 0.01,
            },
        ),
        Scenario::new(
            "meanfield_validate",
            "Fluid-limit stationary fractions vs the exact chain, the settled ODE trajectory, and a regeneration-mode DES with the O(1/M) band",
            ParamGrid::paper()
                .mu(vec![0.2, 0.25, 0.3])
                .d(vec![0.85, 0.9, 0.95]),
            OutputKind::MeanFieldValidation {
                cluster_bits: 10,
                lambda: 1.0,
                max_events_per_cluster: 2_000,
                sigmas: AGREEMENT_SIGMAS,
                tol: 1e-7,
            },
        ),
        Scenario::new(
            "meanfield_equilibrium",
            "Coupled mean-field equilibria and Jacobian-eigenvalue stability across routing-bias amplifications and the (mu, d) plane",
            ParamGrid::paper()
                .mu(vec![0.15, 0.2, 0.25, 0.3])
                .d(vec![0.85, 0.9, 0.95]),
            OutputKind::MeanFieldEquilibrium {
                amplifications: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            },
        ),
    ]
}

/// Every built-in scenario (paper artefacts first).
pub fn all() -> Vec<Scenario> {
    let mut scenarios = paper();
    scenarios.extend(extended());
    scenarios
}

/// Looks up one scenario by name.
///
/// # Errors
///
/// [`SweepError::UnknownScenario`] when the name matches nothing.
pub fn find(name: &str) -> Result<Scenario, SweepError> {
    all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| SweepError::UnknownScenario(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all().into_iter().map(|s| s.name).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn paper_list_matches_constant() {
        let names: Vec<String> = paper().into_iter().map(|s| s.name).collect();
        assert_eq!(names, PAPER_ARTEFACTS.to_vec());
    }

    #[test]
    fn every_scenario_expands() {
        for scenario in all() {
            let cells = scenario
                .cells()
                .unwrap_or_else(|e| panic!("scenario '{}' fails to expand: {e}", scenario.name));
            assert!(!cells.is_empty(), "{}", scenario.name);
        }
    }

    #[test]
    fn find_hits_and_misses() {
        assert!(find("fig3").is_ok());
        assert!(matches!(find("fig99"), Err(SweepError::UnknownScenario(_))));
    }
}
