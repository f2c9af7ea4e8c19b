//! The measurement taken at each grid cell: one [`OutputKind`] per
//! scenario, mapping a cell (plus its deterministic seed) to typed rows.

use pollux::des_overlay::{des_memory_audit, run_des_overlay, DesOverlayConfig};
use pollux::duel::{renewal_wilson, run_duel_with_baseline, DuelConfig};
use pollux::simulation;
use pollux::{
    polluted_split_unreachable, ChainKey, ClusterAnalysis, ClusterChain, InitialCondition,
    ModelParams, ModelSpace, OverlayModel,
};
use pollux_adversary::TargetedStrategy;
use pollux_defense::DefenseSpec;
use pollux_des::replication::replication_seed;
use pollux_meanfield::{
    tune_induced_churn, AdaptiveOptions, Coupling, FluidModel, Stability, TuningConfig,
};
use pollux_prob::tolerance::CI_HALF_WIDTH_FLOOR;
use pollux_prob::wilson_interval;

use crate::{SweepCell, SweepError, Value};

/// Integration horizon (time units at unit event rate) per chunk of the
/// adaptive mean-field trajectory. The trajectory is extended chunk by
/// chunk until it settles onto the stationary solve, so slow-mixing
/// cells (spectral gap ~10⁻³ on the d = 0.95 edge of the paper grid)
/// get the time they need without over-integrating the fast ones.
const MEAN_FIELD_ODE_HORIZON: f64 = 400.0;
/// Upper bound on settle chunks (total horizon 8 × 400 = 3200 time
/// units: two decades past the slowest paper-grid relaxation time).
const MEAN_FIELD_ODE_MAX_CHUNKS: u32 = 8;
/// Agreement demanded between the settled ODE state and the stationary
/// solve (looser than solver tolerance: the trajectory stops at a
/// finite horizon).
const MEAN_FIELD_ODE_SETTLE_TOL: f64 = 1e-6;
/// Power-iteration budget for the per-equilibrium relaxation-gap bound.
const MEAN_FIELD_GAP_ITERATIONS: u32 = 192;

/// What a scenario computes per cell.
///
/// Analytical kinds are deterministic by construction; Monte-Carlo kinds
/// derive every stream from the cell seed, so all of them produce
/// byte-identical artefacts regardless of the runner's thread count.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OutputKind {
    /// `E(T_S)`, `E(T_P)` (Relations 5–6) — Figure 3 / Table I / k-sweeps.
    Sojourns,
    /// `E(T_S)`, `E(T_P)` plus the polluted-merge absorption mass — the
    /// headline triple the ablation artefacts report.
    SojournsWithAbsorption,
    /// The first `count` successive sojourn expectations per subset
    /// (Relations 7–8) — Table II.
    SuccessiveSojourns {
        /// How many sojourns per subset.
        count: usize,
    },
    /// The Figure-1 absorption split (Relation 9) — Figure 4.
    Absorption,
    /// Beyond-paper decomposition `E(T_P) = P(ever polluted) × duration`,
    /// plus the renewal–reward steady-state polluted fraction.
    PollutionRisk,
    /// State-space partition counts and the Rule-2 reachability check —
    /// Figure 1.
    StateSpace,
    /// Sparse-pipeline scaling probe: the full analytical battery
    /// (Relations 5–6, Relation 9, pollution probability) evaluated
    /// through the default [`pollux::AnalysisMode::Sparse`] pipeline,
    /// reporting the state-space and non-zero counts alongside. Pushes Δ
    /// far past the paper's 7 (state spaces of 10⁴–10⁵ states, where the
    /// dense pipeline's O(n²) memory and O(n³) solves are unusable);
    /// deterministic, so the artefacts stay byte-identical across thread
    /// counts.
    StateSpaceScaling,
    /// Overlay-level proportions `E(N_S(m))/n`, `E(N_P(m))/n`
    /// (Theorem 2) — Figure 5. One row per `(n, m)`.
    OverlayProportions {
        /// Overlay sizes `n` to evaluate.
        n_clusters: Vec<u64>,
        /// Event counts `m` at which to sample the proportions.
        sample_points: Vec<u64>,
    },
    /// Analytical metrics vs the event-level Monte-Carlo simulator
    /// (the Figure-2 validation).
    McValidation {
        /// Monte-Carlo replications per cell.
        replications: usize,
        /// Slack in CI half-widths before a mismatch is flagged.
        sigmas: f64,
    },
    /// The cluster-level Markov predictions vs the **whole-overlay
    /// discrete-event simulation** ([`pollux::des_overlay`]) at
    /// production scale: one row per overlay size, each comparing the
    /// measured per-cluster sojourns and absorption split of
    /// `2^cluster_bits` concurrently simulated clusters (10⁵–10⁶ nodes)
    /// against Relations 5–6 and 9, with Welford confidence intervals on
    /// the sojourns and a Wilson score interval
    /// ([`pollux_prob::wilson_interval`]) on the polluted-merge
    /// frequency.
    DesValidation {
        /// Overlay sizes to run: `n = 2^bits` clusters per entry, one
        /// output row each (seeded independently from the cell seed).
        cluster_bits: Vec<u32>,
        /// Per-cluster churn rate of the Poisson arrival streams.
        lambda: f64,
        /// Event budget **per cluster** (the DES distributes its global
        /// cap as per-cluster budgets): a cluster that has not absorbed
        /// within its budget is censored with its partial counts. Without
        /// regeneration an unused budget costs nothing, so validation
        /// scenarios set this generously to keep the sojourn tail's
        /// censoring probability negligible.
        max_events_per_cluster: u64,
        /// Slack multiplier on the confidence half-widths (sojourns) and
        /// the Wilson z quantile (absorption) before a mismatch is
        /// flagged.
        sigmas: f64,
    },
    /// Regeneration-mode DES vs the renewal–reward closed form
    /// ([`pollux::ClusterAnalysis::steady_state_fractions`]): the share
    /// of churn events landing on polluted clusters over an overlay whose
    /// absorbed clusters are re-seeded from the initial condition, with a
    /// renewal-adjusted Wilson interval
    /// ([`pollux::duel::renewal_wilson`]) around the measurement. Also
    /// samples live safe/polluted fractions on a fixed time grid (the
    /// continuous-time Figure-5 analogue) and reports their count and
    /// mean. The measurement substrate of the duel scenarios.
    DesSteadyState {
        /// Overlay sizes to run: `n = 2^bits` clusters per entry.
        cluster_bits: Vec<u32>,
        /// Per-cluster churn rate.
        lambda: f64,
        /// Event budget per cluster.
        max_events_per_cluster: u64,
        /// Fixed time grid for the live-fraction samples (sorted).
        sample_times: Vec<f64>,
        /// Wilson z-quantile of the agreement interval.
        sigmas: f64,
    },
    /// An adversary-vs-defense duel per cell: every listed defense is
    /// evaluated analytically (defense-folded chain through the sparse
    /// pipeline) **and** empirically (regeneration-mode DES), with the
    /// undefended baseline and the agreement verdict per row.
    Duel {
        /// The defenses to duel (one output row each).
        defenses: Vec<DefenseSpec>,
        /// `2^bits` clusters per DES run.
        cluster_bits: u32,
        /// Per-cluster churn rate.
        lambda: f64,
        /// Event budget per cluster.
        max_events_per_cluster: u64,
        /// Wilson z-quantile of the agreement interval.
        sigmas: f64,
    },
    /// Cross-validation of the mean-field (fluid-limit) evaluation path
    /// ([`pollux_meanfield::FluidModel`]): the fluid stationary
    /// fractions vs the exact renewal fractions
    /// ([`pollux::ClusterAnalysis::steady_state_fractions`]), vs the
    /// settled adaptive-ODE trajectory, and vs a regeneration-mode DES
    /// run whose renewal-adjusted Wilson interval is widened by the
    /// documented O(1/M) finite-size band.
    MeanFieldValidation {
        /// `2^bits` clusters in the DES run.
        cluster_bits: u32,
        /// Per-cluster churn rate of the DES.
        lambda: f64,
        /// Event budget per cluster (half is spent as warm-up).
        max_events_per_cluster: u64,
        /// Wilson z-quantile of the DES agreement interval.
        sigmas: f64,
        /// Absolute tolerance on the fluid-vs-exact stationary
        /// fractions (the two coincide by the renewal identity, so this
        /// is solver slack, not an approximation bound).
        tol: f64,
    },
    /// Coupled mean-field equilibria under the targeted-adversary
    /// routing-bias feedback: one row per (amplification, equilibrium
    /// branch) with the Jacobian-eigenvalue stability classification
    /// and the power-iteration relaxation-gap bound. Deterministic
    /// (byte-identical across thread counts by construction).
    MeanFieldEquilibrium {
        /// Routing-bias amplification factors to scan (`0` recovers the
        /// open model and its unique equilibrium).
        amplifications: Vec<f64>,
    },
    /// Mean-field-guided defense tuning: the minimal
    /// [`InducedChurn`](pollux_defense::InducedChurn)
    /// rate whose stationary polluted fraction meets a threshold, found
    /// by bisection on the fluid equilibrium and verified against the
    /// exact chain at the answer. Replaces the old `DefenseFrontier`
    /// grid scan with ~log₂(range/tol) sparse solves plus a single
    /// exact-chain battery. Purely analytical (byte-identical across
    /// thread counts by construction).
    ControlTuning {
        /// Target ceiling on the steady-state polluted fraction.
        threshold: f64,
        /// Upper end of the searched rate range (must stay below 1,
        /// the [`InducedChurn`](pollux_defense::InducedChurn) domain
        /// bound).
        max_rate: f64,
        /// Bracket width at which bisection stops.
        rate_tol: f64,
    },
    /// Theorem 2 vs the `n`-cluster competing Monte-Carlo simulation.
    OverlayMcValidation {
        /// Number of clusters `n`.
        n_clusters: usize,
        /// Independent overlay trajectories to average.
        runs: u64,
        /// Event counts `m` at which to compare.
        sample_points: Vec<u64>,
        /// Absolute tolerance on the safe proportion.
        tol_safe: f64,
        /// Absolute tolerance on the polluted proportion.
        tol_polluted: f64,
    },
}

/// What the cells of one chain group share: one analysis of their chain
/// per initial condition, each made on first use and all dropped with
/// the share. A panic leaves it consistent: an analysis is stored only
/// once it is complete.
#[derive(Debug, Default)]
pub(crate) struct ChainShare {
    /// The analyses made so far, by initial condition; the first owns
    /// the chain and the factored blocks the others share.
    analyses: Vec<(InitialCondition, ClusterAnalysis)>,
    /// Chains built so far.
    builds: u64,
}

impl ChainShare {
    /// Chains this share has built.
    pub(crate) fn builds(&self) -> u64 {
        self.builds
    }

    /// `true` once the share holds a chain.
    pub(crate) fn holds_chain(&self) -> bool {
        !self.analyses.is_empty()
    }

    /// Builds the chain of `params`, counting the build.
    fn build(&mut self, params: &ModelParams) -> ClusterChain {
        self.builds += 1;
        ClusterChain::build(params)
    }

    /// The analysis of `cell`'s chain under `cell`'s initial condition,
    /// made on first use on the factored blocks of the first analysis.
    fn analysis(&mut self, cell: &SweepCell) -> Result<&ClusterAnalysis, SweepError> {
        let initial = &cell.initial;
        if let Some(i) = self
            .analyses
            .iter()
            .position(|(start, _)| same_start(start, initial))
        {
            return Ok(&self.analyses[i].1);
        }
        let analysis = match self.analyses.first() {
            Some((_, first)) => first.with_initial(initial.clone())?,
            None => ClusterAnalysis::from_chain(self.build(&cell.params), initial.clone())?,
        };
        self.analyses.push((initial.clone(), analysis));
        Ok(&self.analyses[self.analyses.len() - 1].1)
    }
}

/// `true` when `a` and `b` give bit-identical initial distributions
/// (custom vectors compare bits, so `-0.0` and `0.0` differ).
fn same_start(a: &InitialCondition, b: &InitialCondition) -> bool {
    match (a, b) {
        (InitialCondition::Custom(x), InitialCondition::Custom(y)) => x
            .iter()
            .map(|v| v.to_bits())
            .eq(y.iter().map(|v| v.to_bits())),
        _ => a == b,
    }
}

impl OutputKind {
    /// The kind-specific column names (appended to the cell key columns).
    pub fn columns(&self) -> Vec<String> {
        match self {
            OutputKind::Sojourns => vec!["E_T_S".into(), "E_T_P".into()],
            OutputKind::SojournsWithAbsorption => {
                vec!["E_T_S".into(), "E_T_P".into(), "p_polluted_merge".into()]
            }
            OutputKind::SuccessiveSojourns { count } => {
                let mut cols = Vec::with_capacity(2 * count);
                for i in 1..=*count {
                    cols.push(format!("E_T_S{i}"));
                }
                for i in 1..=*count {
                    cols.push(format!("E_T_P{i}"));
                }
                cols
            }
            OutputKind::Absorption => vec![
                "p_safe_merge".into(),
                "p_safe_split".into(),
                "p_polluted_merge".into(),
                "p_polluted_split".into(),
                "total".into(),
            ],
            OutputKind::PollutionRisk => vec![
                "p_ever_polluted".into(),
                "E_T_P_given_polluted".into(),
                "E_T_P".into(),
                "steady_polluted_fraction".into(),
            ],
            OutputKind::StateSpace => vec![
                "n_states".into(),
                "n_transient_safe".into(),
                "n_transient_polluted".into(),
                "n_safe_merge".into(),
                "n_safe_split".into(),
                "n_polluted_merge".into(),
                "n_polluted_split".into(),
                "polluted_split_unreachable".into(),
            ],
            OutputKind::StateSpaceScaling => vec![
                "n_states".into(),
                "n_transient".into(),
                "nnz".into(),
                "pipeline".into(),
                "E_T_S".into(),
                "E_T_P".into(),
                "p_polluted_merge".into(),
                "p_ever_polluted".into(),
            ],
            OutputKind::OverlayProportions { .. } => vec![
                "n".into(),
                "m".into(),
                "safe_proportion".into(),
                "polluted_proportion".into(),
            ],
            OutputKind::McValidation { .. } => vec![
                "E_T_S".into(),
                "sim_T_S".into(),
                "sim_T_S_ci".into(),
                "E_T_P".into(),
                "sim_T_P".into(),
                "sim_T_P_ci".into(),
                "p_polluted_merge".into(),
                "sim_polluted_merge".into(),
                "censored".into(),
                "ok".into(),
            ],
            OutputKind::DesValidation { .. } => vec![
                "n_clusters".into(),
                "nodes".into(),
                "events".into(),
                "t_end".into(),
                "E_T_S".into(),
                "des_T_S".into(),
                "des_T_S_ci".into(),
                "E_T_P".into(),
                "des_T_P".into(),
                "des_T_P_ci".into(),
                "p_polluted_merge".into(),
                "des_polluted_merge".into(),
                "des_pm_lo".into(),
                "des_pm_hi".into(),
                "censored".into(),
                "ok".into(),
            ],
            OutputKind::DesSteadyState { .. } => vec![
                "n_clusters".into(),
                "events".into(),
                "cycles".into(),
                "analytic_safe".into(),
                "analytic_polluted".into(),
                "des_safe".into(),
                "des_polluted".into(),
                "des_lo".into(),
                "des_hi".into(),
                "n_samples".into(),
                "mean_live_polluted".into(),
                "ok".into(),
            ],
            OutputKind::Duel { .. } => vec![
                "defense".into(),
                "E_T_S".into(),
                "E_T_P".into(),
                "analytic_polluted".into(),
                "des_polluted".into(),
                "des_lo".into(),
                "des_hi".into(),
                "baseline_polluted".into(),
                "reduction".into(),
                "cycles".into(),
                "ok".into(),
            ],
            OutputKind::MeanFieldValidation { .. } => vec![
                "n_clusters".into(),
                "mf_safe".into(),
                "mf_polluted".into(),
                "exact_safe".into(),
                "exact_polluted".into(),
                "ode_polluted".into(),
                "des_polluted".into(),
                "des_lo".into(),
                "des_hi".into(),
                "band".into(),
                "cycles".into(),
                "ok".into(),
            ],
            OutputKind::MeanFieldEquilibrium { .. } => vec![
                "amplification".into(),
                "branch".into(),
                "mu_eff".into(),
                "safe".into(),
                "polluted".into(),
                "abscissa".into(),
                "stable".into(),
                "gap".into(),
            ],
            OutputKind::ControlTuning { .. } => vec![
                "baseline_polluted".into(),
                "threshold".into(),
                "found".into(),
                "frontier_rate".into(),
                "polluted_at_frontier".into(),
                "evaluations".into(),
                "verified_polluted".into(),
                "verified_ok".into(),
            ],
            OutputKind::OverlayMcValidation { .. } => vec![
                "n".into(),
                "m".into(),
                "t2_safe".into(),
                "sim_safe".into(),
                "t2_polluted".into(),
                "sim_polluted".into(),
                "ok".into(),
            ],
        }
    }

    /// Evaluates one cell. `seed` is the cell's deterministic seed; only
    /// Monte-Carlo kinds consume it. `shards` is the worker-shard count
    /// handed to the whole-overlay DES kinds (the runner passes its own
    /// thread count, so a `--threads 8` sweep also shards each DES run
    /// 8 ways) — DES output is byte-identical across shard counts, so
    /// this affects wall-clock time only, never artefact bytes.
    ///
    /// This is the cell as a group of one: the runner evaluates the
    /// cells of one [`ChainKey`] back to back over one shared chain, and
    /// gives the same rows.
    ///
    /// # Errors
    ///
    /// Propagates model/analysis construction failures.
    pub fn evaluate(
        &self,
        cell: &SweepCell,
        seed: u64,
        shards: usize,
    ) -> Result<Vec<Vec<Value>>, SweepError> {
        self.evaluate_shared(&mut ChainShare::default(), cell, seed, shards)
    }

    /// The key of the chain this kind's evaluation starts from, for the
    /// kinds whose rows are read off that chain's analyses (and, for
    /// [`OutputKind::McValidation`], a Monte-Carlo run). The DES, duel
    /// and mean-field kinds return `None`: their simulations dwarf the
    /// chain and shard over the pool's threads, so each keeps a job of
    /// its own, and so do the overlay kinds, which build their chains
    /// inside [`OverlayModel`], and [`OutputKind::StateSpace`], which
    /// analyses nothing.
    pub(crate) fn chain_key(&self, cell: &SweepCell) -> Option<ChainKey> {
        match self {
            OutputKind::Sojourns
            | OutputKind::SojournsWithAbsorption
            | OutputKind::SuccessiveSojourns { .. }
            | OutputKind::Absorption
            | OutputKind::PollutionRisk
            | OutputKind::StateSpaceScaling
            | OutputKind::McValidation { .. } => Some(ChainKey::new(&cell.params)),
            _ => None,
        }
    }

    /// As [`OutputKind::evaluate`], reading the chain and its analyses
    /// through `share`, which earlier cells of the same [`ChainKey`] may
    /// have filled.
    pub(crate) fn evaluate_shared(
        &self,
        share: &mut ChainShare,
        cell: &SweepCell,
        seed: u64,
        shards: usize,
    ) -> Result<Vec<Vec<Value>>, SweepError> {
        match self {
            OutputKind::Sojourns => {
                let a = share.analysis(cell)?;
                Ok(vec![vec![
                    a.expected_safe_events()?.into(),
                    a.expected_polluted_events()?.into(),
                ]])
            }
            OutputKind::SojournsWithAbsorption => {
                let a = share.analysis(cell)?;
                Ok(vec![vec![
                    a.expected_safe_events()?.into(),
                    a.expected_polluted_events()?.into(),
                    a.absorption_split()?.polluted_merge.into(),
                ]])
            }
            OutputKind::SuccessiveSojourns { count } => {
                let a = share.analysis(cell)?;
                let s = a.successive_safe_sojourns(*count);
                let p = a.successive_polluted_sojourns(*count);
                let mut row = Vec::with_capacity(2 * count);
                row.extend(s.into_iter().map(Value::from));
                row.extend(p.into_iter().map(Value::from));
                Ok(vec![row])
            }
            OutputKind::Absorption => {
                let a = share.analysis(cell)?;
                let split = a.absorption_split()?;
                Ok(vec![vec![
                    split.safe_merge.into(),
                    split.safe_split.into(),
                    split.polluted_merge.into(),
                    split.polluted_split.into(),
                    split.total().into(),
                ]])
            }
            OutputKind::PollutionRisk => {
                let a = share.analysis(cell)?;
                let e_tp = a.expected_polluted_events()?;
                let p_ever = a.pollution_probability()?;
                let duration = if p_ever > 0.0 { e_tp / p_ever } else { 0.0 };
                let (_, steady_polluted) = a.steady_state_fractions()?;
                Ok(vec![vec![
                    p_ever.into(),
                    duration.into(),
                    e_tp.into(),
                    steady_polluted.into(),
                ]])
            }
            OutputKind::StateSpace => {
                let space = ModelSpace::new(&cell.params);
                let chain = share.build(&cell.params);
                Ok(vec![vec![
                    space.len().into(),
                    space.transient_safe().len().into(),
                    space.transient_polluted().len().into(),
                    space.safe_merge().len().into(),
                    space.safe_split().len().into(),
                    space.polluted_merge().len().into(),
                    space.polluted_split().len().into(),
                    polluted_split_unreachable(&chain).into(),
                ]])
            }
            OutputKind::StateSpaceScaling => {
                let a = share.analysis(cell)?;
                let chain = a.chain();
                Ok(vec![vec![
                    chain.space().len().into(),
                    chain.space().transient().len().into(),
                    chain.sparse_dtmc().matrix().nnz().into(),
                    if a.is_sparse() { "sparse" } else { "dense" }.into(),
                    a.expected_safe_events()?.into(),
                    a.expected_polluted_events()?.into(),
                    a.absorption_split()?.polluted_merge.into(),
                    a.pollution_probability()?.into(),
                ]])
            }
            OutputKind::OverlayProportions {
                n_clusters,
                sample_points,
            } => {
                let mut rows = Vec::with_capacity(n_clusters.len() * sample_points.len());
                for &n in n_clusters {
                    let model = OverlayModel::new(&cell.params, cell.initial.clone(), n)?;
                    for point in model.proportion_series(sample_points)? {
                        rows.push(vec![
                            n.into(),
                            point.m.into(),
                            point.safe.into(),
                            point.polluted.into(),
                        ]);
                    }
                }
                Ok(rows)
            }
            OutputKind::McValidation {
                replications,
                sigmas,
            } => {
                let a = share.analysis(cell)?;
                let e_ts = a.expected_safe_events()?;
                let e_tp = a.expected_polluted_events()?;
                let split = a.absorption_split()?;
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                // One in-cell thread: the sweep runner supplies the
                // parallelism, and a fixed layout keeps streams identical.
                let report = simulation::estimate(
                    &cell.params,
                    &cell.initial,
                    &strategy,
                    *replications,
                    seed,
                    1,
                );
                let ok_s = (report.safe_events.mean - e_ts).abs()
                    <= sigmas * report.safe_events.ci_half_width.max(CI_HALF_WIDTH_FLOOR);
                let ok_p = (report.polluted_events.mean - e_tp).abs()
                    <= sigmas
                        * report
                            .polluted_events
                            .ci_half_width
                            .max(CI_HALF_WIDTH_FLOOR);
                let ok_a = (report.absorption.2 - split.polluted_merge).abs() < 0.01;
                Ok(vec![vec![
                    e_ts.into(),
                    report.safe_events.mean.into(),
                    report.safe_events.ci_half_width.into(),
                    e_tp.into(),
                    report.polluted_events.mean.into(),
                    report.polluted_events.ci_half_width.into(),
                    split.polluted_merge.into(),
                    report.absorption.2.into(),
                    report.censored.into(),
                    (ok_s && ok_p && ok_a).into(),
                ]])
            }
            OutputKind::DesValidation {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                sigmas,
            } => {
                let a = share.analysis(cell)?;
                let e_ts = a.expected_safe_events()?;
                let e_tp = a.expected_polluted_events()?;
                let split = a.absorption_split()?;
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                let mut rows = Vec::with_capacity(cluster_bits.len());
                for (i, &bits) in cluster_bits.iter().enumerate() {
                    let config =
                        DesOverlayConfig::new(bits, *lambda, max_events_per_cluster << bits)
                            .with_shards(shards);
                    // Each overlay size gets its own stream derived from
                    // the cell seed, so adding a size never perturbs the
                    // others.
                    let r = run_des_overlay(
                        &cell.params,
                        &cell.initial,
                        &strategy,
                        &config,
                        replication_seed(seed, i as u64),
                    );
                    let (pm_lo, pm_hi) =
                        wilson_interval(r.absorption_counts[2], r.absorbed, *sigmas);
                    let ok_s = (r.safe_events.mean - e_ts).abs()
                        <= sigmas * r.safe_events.ci_half_width.max(CI_HALF_WIDTH_FLOOR);
                    let ok_p = (r.polluted_events.mean - e_tp).abs()
                        <= sigmas * r.polluted_events.ci_half_width.max(CI_HALF_WIDTH_FLOOR);
                    let ok_a = (pm_lo..=pm_hi).contains(&split.polluted_merge);
                    rows.push(vec![
                        (r.n_clusters as u64).into(),
                        r.initial_nodes.into(),
                        r.events.into(),
                        r.end_time.into(),
                        e_ts.into(),
                        r.safe_events.mean.into(),
                        r.safe_events.ci_half_width.into(),
                        e_tp.into(),
                        r.polluted_events.mean.into(),
                        r.polluted_events.ci_half_width.into(),
                        split.polluted_merge.into(),
                        r.absorption.2.into(),
                        pm_lo.into(),
                        pm_hi.into(),
                        r.censored.into(),
                        (ok_s && ok_p && ok_a).into(),
                    ]);
                }
                Ok(rows)
            }
            OutputKind::DesSteadyState {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                sample_times,
                sigmas,
            } => {
                if sample_times.windows(2).any(|w| w[0] > w[1]) {
                    return Err(SweepError::InvalidScenario(
                        "sample times must be sorted increasing".into(),
                    ));
                }
                let a = share.analysis(cell)?;
                let (want_safe, want_poll) = a.steady_state_fractions()?;
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                let mut rows = Vec::with_capacity(cluster_bits.len());
                for (i, &bits) in cluster_bits.iter().enumerate() {
                    // Half the budget is warm-up (see `pollux::duel`): the
                    // fresh-δ transient is safe-heavy, and an unwarmed
                    // share biases the measured pollution low.
                    let config =
                        DesOverlayConfig::new(bits, *lambda, max_events_per_cluster << bits)
                            .with_regeneration()
                            .with_warmup_events(max_events_per_cluster / 2)
                            .with_sample_times(sample_times.clone())
                            .with_shards(shards);
                    let r = run_des_overlay(
                        &cell.params,
                        &cell.initial,
                        &strategy,
                        &config,
                        replication_seed(seed, i as u64),
                    );
                    let (des_safe, des_poll) = r.steady_state_fractions();
                    let (lo, hi) = renewal_wilson(
                        r.polluted_event_total,
                        r.events - r.warmup_events,
                        r.measured_cycles,
                        *sigmas,
                    );
                    let mean_live_polluted = if r.occupancy.is_empty() {
                        0.0
                    } else {
                        r.occupancy.iter().map(|&(_, _, p)| p).sum::<f64>()
                            / r.occupancy.len() as f64
                    };
                    rows.push(vec![
                        (r.n_clusters as u64).into(),
                        r.events.into(),
                        r.absorbed.into(),
                        want_safe.into(),
                        want_poll.into(),
                        des_safe.into(),
                        des_poll.into(),
                        lo.into(),
                        hi.into(),
                        (r.occupancy.len() as u64).into(),
                        mean_live_polluted.into(),
                        ((lo..=hi).contains(&want_poll)).into(),
                    ]);
                }
                Ok(rows)
            }
            OutputKind::Duel {
                defenses,
                cluster_bits,
                lambda,
                max_events_per_cluster,
                sigmas,
            } => {
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                // The undefended baseline is computed once per cell and
                // shared by every defense row.
                let baseline = share.analysis(cell)?;
                let (_, baseline_polluted) = baseline.steady_state_fractions()?;
                let config = DuelConfig {
                    cluster_bits: *cluster_bits,
                    lambda: *lambda,
                    max_events_per_cluster: *max_events_per_cluster,
                    sigmas: *sigmas,
                    shards,
                };
                let mut rows = Vec::with_capacity(defenses.len());
                for (i, spec) in defenses.iter().enumerate() {
                    let defense = spec
                        .build()
                        .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                    // Each defense gets its own stream derived from the
                    // cell seed and its list position (so appending a
                    // defense never perturbs earlier rows; reordering or
                    // inserting mid-list re-seeds the rows after it).
                    let outcome = run_duel_with_baseline(
                        &cell.params,
                        &cell.initial,
                        &strategy,
                        defense.as_ref(),
                        &config,
                        replication_seed(seed, i as u64),
                        baseline_polluted,
                    )?;
                    rows.push(vec![
                        Value::Str(spec.label()),
                        outcome.analytic_safe_events.into(),
                        outcome.analytic_polluted_events.into(),
                        outcome.analytic_polluted.into(),
                        outcome.des_polluted.into(),
                        outcome.des_lo.into(),
                        outcome.des_hi.into(),
                        outcome.baseline_polluted.into(),
                        outcome.reduction().into(),
                        outcome.cycles.into(),
                        outcome.agrees.into(),
                    ]);
                }
                Ok(rows)
            }
            OutputKind::MeanFieldValidation {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                sigmas,
                tol,
            } => {
                if !(*tol > 0.0 && tol.is_finite()) {
                    return Err(SweepError::InvalidScenario(format!(
                        "mean-field tolerance must be positive, got {tol}"
                    )));
                }
                let model = FluidModel::build(&cell.params, &cell.initial)
                    .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                let eq = model
                    .open_equilibrium()
                    .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                let a = share.analysis(cell)?;
                let (exact_safe, exact_polluted) = a.steady_state_fractions()?;
                // The ODE trajectory from the regeneration distribution
                // must settle onto the same equilibrium (a genuinely
                // independent check of the stationary solve).
                let mut y = model.alpha().to_vec();
                let mut ode_polluted = f64::NAN;
                for _ in 0..MEAN_FIELD_ODE_MAX_CHUNKS {
                    let run = model
                        .integrate_adaptive(&y, MEAN_FIELD_ODE_HORIZON, &AdaptiveOptions::default())
                        .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                    y = run.y;
                    let (_, p) = model.fractions(&y);
                    ode_polluted = p;
                    if (p - eq.polluted_fraction).abs() <= MEAN_FIELD_ODE_SETTLE_TOL {
                        break;
                    }
                }
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                let config = DesOverlayConfig::new(
                    *cluster_bits,
                    *lambda,
                    max_events_per_cluster << cluster_bits,
                )
                .with_regeneration()
                .with_warmup_events(max_events_per_cluster / 2)
                .with_shards(shards);
                let r = run_des_overlay(&cell.params, &cell.initial, &strategy, &config, seed);
                let (_, des_polluted) = r.steady_state_fractions();
                let (lo, hi) = renewal_wilson(
                    r.polluted_event_total,
                    r.events - r.warmup_events,
                    r.measured_cycles,
                    *sigmas,
                );
                // The fluid prediction is exact only at M = ∞; a finite
                // DES overlay sits within O(1/M) of it, so the Wilson
                // band is widened by one finite-size term.
                let band = 1.0 / (1u64 << cluster_bits) as f64;
                let ok = (eq.safe_fraction - exact_safe).abs() <= *tol
                    && (eq.polluted_fraction - exact_polluted).abs() <= *tol
                    && (ode_polluted - eq.polluted_fraction).abs() <= MEAN_FIELD_ODE_SETTLE_TOL
                    && ((lo - band)..=(hi + band)).contains(&eq.polluted_fraction);
                Ok(vec![vec![
                    (1u64 << cluster_bits).into(),
                    eq.safe_fraction.into(),
                    eq.polluted_fraction.into(),
                    exact_safe.into(),
                    exact_polluted.into(),
                    ode_polluted.into(),
                    des_polluted.into(),
                    lo.into(),
                    hi.into(),
                    band.into(),
                    r.measured_cycles.into(),
                    ok.into(),
                ]])
            }
            OutputKind::MeanFieldEquilibrium { amplifications } => {
                if amplifications.is_empty()
                    || amplifications.iter().any(|a| !a.is_finite() || *a < 0.0)
                {
                    return Err(SweepError::InvalidScenario(
                        "amplifications must be non-empty and non-negative".into(),
                    ));
                }
                let mut rows = Vec::new();
                for &amplification in amplifications {
                    let model = FluidModel::build(&cell.params, &cell.initial)
                        .and_then(|m| {
                            m.with_coupling(if amplification == 0.0 {
                                Coupling::Open
                            } else {
                                Coupling::RoutingBias { amplification }
                            })
                        })
                        .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                    let equilibria = model
                        .equilibria()
                        .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                    for (branch, eq) in equilibria.iter().enumerate() {
                        let report = model
                            .classify_equilibrium(eq)
                            .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                        let gap = model.relaxation_gap(eq, MEAN_FIELD_GAP_ITERATIONS);
                        rows.push(vec![
                            amplification.into(),
                            (branch as u64).into(),
                            eq.mu_eff.into(),
                            eq.safe_fraction.into(),
                            eq.polluted_fraction.into(),
                            report.abscissa.into(),
                            matches!(report.classification, Stability::Stable).into(),
                            gap.into(),
                        ]);
                    }
                }
                Ok(rows)
            }
            OutputKind::ControlTuning {
                threshold,
                max_rate,
                rate_tol,
            } => {
                let cfg = TuningConfig {
                    threshold: *threshold,
                    max_rate: *max_rate,
                    rate_tol: *rate_tol,
                };
                let out = tune_induced_churn(&cell.params, &cell.initial, &cfg)
                    .map_err(|e| SweepError::InvalidScenario(e.to_string()))?;
                Ok(vec![vec![
                    out.baseline_polluted.into(),
                    out.threshold.into(),
                    out.found.into(),
                    out.rate.into(),
                    out.polluted_at_rate.into(),
                    out.evaluations.into(),
                    out.verified_polluted.into(),
                    out.verified_ok.into(),
                ]])
            }
            OutputKind::OverlayMcValidation {
                n_clusters,
                runs,
                sample_points,
                tol_safe,
                tol_polluted,
            } => {
                let model =
                    OverlayModel::new(&cell.params, cell.initial.clone(), *n_clusters as u64)?;
                let expect = model.proportion_series(sample_points)?;
                let strategy = TargetedStrategy::new(cell.params.k(), cell.params.nu())
                    .ok_or_else(|| {
                        SweepError::InvalidScenario(format!(
                            "no targeted strategy for k = {}, nu = {}",
                            cell.params.k(),
                            cell.params.nu()
                        ))
                    })?;
                let config = pollux::overlay_sim::OverlaySimConfig {
                    n_clusters: *n_clusters,
                    sample_points: sample_points.clone(),
                    regenerate: false,
                };
                let mut mean_safe = vec![0.0; sample_points.len()];
                let mut mean_polluted = vec![0.0; sample_points.len()];
                for run in 0..*runs {
                    let tr = pollux::overlay_sim::run_overlay(
                        &cell.params,
                        &cell.initial,
                        &strategy,
                        &config,
                        replication_seed(seed, run),
                    );
                    for (i, &(_, s, p)) in tr.points.iter().enumerate() {
                        mean_safe[i] += s / *runs as f64;
                        mean_polluted[i] += p / *runs as f64;
                    }
                }
                let mut rows = Vec::with_capacity(expect.len());
                for (i, e) in expect.iter().enumerate() {
                    let ok = (mean_safe[i] - e.safe).abs() < *tol_safe
                        && (mean_polluted[i] - e.polluted).abs() < *tol_polluted;
                    rows.push(vec![
                        (*n_clusters).into(),
                        e.m.into(),
                        e.safe.into(),
                        mean_safe[i].into(),
                        e.polluted.into(),
                        mean_polluted[i].into(),
                        ok.into(),
                    ]);
                }
                Ok(rows)
            }
        }
    }

    /// Predicted peak memory footprint of evaluating one cell with the
    /// given DES shard count, or `None` when the kind has no usable
    /// prediction (the analytical kinds' footprint depends on pipeline
    /// selection, not on pre-declarable tables).
    ///
    /// DES kinds sum the table audit ([`des_memory_audit`] — the same
    /// accounting `pollux-obs` exposes) of the *largest* sub-run the cell
    /// will launch (sub-runs are sequential, so the peak is the max, not
    /// the sum) plus a per-shard working-set allowance for each worker's
    /// scratch (RNG state, staged accumulators, stack). The audit is the
    /// total over all cluster blocks of the run, an upper bound on its
    /// live set: only `shards` blocks of flags and hot columns are alive
    /// at once, plus the per-cluster accumulators of the blocks not yet
    /// folded into the report. The allowance is what makes shard shedding a
    /// real degradation lever: the audited tables are shard-invariant by
    /// design, so shards only add scratch — and since DES output bytes
    /// are shard-invariant too, shedding changes the memory plan without
    /// touching a single artefact byte.
    #[must_use]
    pub fn predicted_memory_bytes(&self, cell: &SweepCell, shards: usize) -> Option<u64> {
        /// Working-set allowance per DES shard worker (scratch buffers,
        /// RNG state, thread stack) on top of the audited shared tables.
        const PER_SHARD_OVERHEAD_BYTES: u64 = 1 << 20;
        let largest_audit = |configs: &mut dyn Iterator<Item = DesOverlayConfig>| {
            configs
                .map(|c| des_memory_audit(&cell.params, &c).total_bytes())
                .max()
                .unwrap_or(0)
        };
        let tables = match self {
            OutputKind::DesValidation {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                ..
            } => largest_audit(&mut cluster_bits.iter().map(|&bits| {
                DesOverlayConfig::new(bits, *lambda, max_events_per_cluster << bits)
                    .with_shards(shards)
            })),
            OutputKind::DesSteadyState {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                ..
            } => largest_audit(&mut cluster_bits.iter().map(|&bits| {
                DesOverlayConfig::new(bits, *lambda, max_events_per_cluster << bits)
                    .with_shards(shards)
            })),
            OutputKind::Duel {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                ..
            } => largest_audit(&mut std::iter::once(
                DesOverlayConfig::new(*cluster_bits, *lambda, *max_events_per_cluster)
                    .with_shards(shards),
            )),
            OutputKind::MeanFieldValidation {
                cluster_bits,
                lambda,
                max_events_per_cluster,
                ..
            } => largest_audit(&mut std::iter::once(
                DesOverlayConfig::new(
                    *cluster_bits,
                    *lambda,
                    max_events_per_cluster << cluster_bits,
                )
                .with_shards(shards),
            )),
            _ => return None,
        };
        Some(tables + shards as u64 * PER_SHARD_OVERHEAD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamGrid;

    fn paper_cell() -> SweepCell {
        ParamGrid::paper()
            .mu(vec![0.2])
            .d(vec![0.9])
            .cells()
            .unwrap()
            .remove(0)
    }

    #[test]
    fn sojourns_match_direct_analysis() {
        let cell = paper_cell();
        let rows = OutputKind::Sojourns.evaluate(&cell, 0, 1).unwrap();
        assert_eq!(rows.len(), 1);
        let a = ClusterAnalysis::new(&cell.params, cell.initial.clone()).unwrap();
        assert_eq!(
            rows[0][0].as_f64().unwrap(),
            a.expected_safe_events().unwrap()
        );
        assert_eq!(
            rows[0][1].as_f64().unwrap(),
            a.expected_polluted_events().unwrap()
        );
    }

    #[test]
    fn absorption_rows_sum_to_one() {
        let rows = OutputKind::Absorption
            .evaluate(&paper_cell(), 0, 1)
            .unwrap();
        let total = rows[0][4].as_f64().unwrap();
        assert!((total - 1.0).abs() < 1e-8, "total {total}");
    }

    #[test]
    fn columns_match_row_arity_for_every_kind() {
        let cell = paper_cell();
        let kinds = [
            OutputKind::Sojourns,
            OutputKind::SojournsWithAbsorption,
            OutputKind::SuccessiveSojourns { count: 2 },
            OutputKind::Absorption,
            OutputKind::PollutionRisk,
            OutputKind::StateSpace,
            OutputKind::StateSpaceScaling,
            OutputKind::OverlayProportions {
                n_clusters: vec![10],
                sample_points: vec![0, 10, 20],
            },
            OutputKind::McValidation {
                replications: 50,
                sigmas: 3.0,
            },
            OutputKind::OverlayMcValidation {
                n_clusters: 10,
                runs: 2,
                sample_points: vec![0, 10],
                tol_safe: 1.0,
                tol_polluted: 1.0,
            },
            OutputKind::DesValidation {
                cluster_bits: vec![4, 6],
                lambda: 1.0,
                max_events_per_cluster: 100,
                sigmas: 4.0,
            },
            OutputKind::DesSteadyState {
                cluster_bits: vec![4],
                lambda: 1.0,
                max_events_per_cluster: 60,
                sample_times: vec![0.0, 20.0],
                sigmas: 5.0,
            },
            OutputKind::Duel {
                defenses: vec![DefenseSpec::Null, DefenseSpec::InducedChurn { rate: 0.1 }],
                cluster_bits: 4,
                lambda: 1.0,
                max_events_per_cluster: 60,
                sigmas: 5.0,
            },
            OutputKind::MeanFieldValidation {
                cluster_bits: 4,
                lambda: 1.0,
                max_events_per_cluster: 100,
                sigmas: 5.0,
                tol: 1e-7,
            },
            OutputKind::MeanFieldEquilibrium {
                amplifications: vec![0.0],
            },
            OutputKind::ControlTuning {
                threshold: 0.05,
                max_rate: 0.5,
                rate_tol: 0.05,
            },
        ];
        for kind in kinds {
            let rows = kind.evaluate(&cell, 7, 1).unwrap();
            assert!(!rows.is_empty());
            for row in &rows {
                assert_eq!(row.len(), kind.columns().len(), "{kind:?}");
            }
        }
    }

    #[test]
    fn des_validation_is_seed_deterministic_with_one_row_per_size() {
        let cell = paper_cell();
        let kind = OutputKind::DesValidation {
            cluster_bits: vec![6, 8],
            lambda: 1.0,
            max_events_per_cluster: 100,
            sigmas: 4.0,
        };
        let rows = kind.evaluate(&cell, 17, 1).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_f64().unwrap(), 64.0);
        assert_eq!(rows[1][0].as_f64().unwrap(), 256.0);
        assert_eq!(rows, kind.evaluate(&cell, 17, 1).unwrap());
        assert_ne!(rows, kind.evaluate(&cell, 18, 1).unwrap());
    }

    #[test]
    fn des_validation_agrees_with_the_chain_at_moderate_scale() {
        let cell = paper_cell(); // mu = 0.2, d = 0.9
        let kind = OutputKind::DesValidation {
            cluster_bits: vec![11],
            lambda: 1.0,
            max_events_per_cluster: 2_000,
            sigmas: 4.0,
        };
        let rows = kind.evaluate(&cell, 5, 1).unwrap();
        let cols = kind.columns();
        let ok_at = cols.iter().position(|c| c == "ok").unwrap();
        assert_eq!(rows[0][ok_at].as_bool(), Some(true), "rows: {rows:?}");
        let censored_at = cols.iter().position(|c| c == "censored").unwrap();
        assert_eq!(rows[0][censored_at].as_f64(), Some(0.0));
    }

    #[test]
    fn scaling_kind_matches_direct_analysis_and_reports_pipeline() {
        let cell = paper_cell();
        let rows = OutputKind::StateSpaceScaling.evaluate(&cell, 0, 1).unwrap();
        assert_eq!(rows.len(), 1);
        let cols = OutputKind::StateSpaceScaling.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        assert_eq!(rows[0][at("n_states")].as_f64(), Some(288.0));
        // Auto routes every size, the paper's 288 states included, to the
        // factor-once sparse pipeline.
        assert_eq!(rows[0][at("pipeline")], crate::Value::Str("sparse".into()));
        let a = ClusterAnalysis::new(&cell.params, cell.initial.clone()).unwrap();
        assert_eq!(
            rows[0][at("E_T_S")].as_f64().unwrap(),
            a.expected_safe_events().unwrap()
        );
        assert_eq!(
            rows[0][at("p_ever_polluted")].as_f64().unwrap(),
            a.pollution_probability().unwrap()
        );
    }

    #[test]
    fn des_steady_state_rows_and_determinism() {
        let cell = ParamGrid::paper()
            .mu(vec![0.25])
            .d(vec![0.9])
            .cells()
            .unwrap()
            .remove(0);
        let kind = OutputKind::DesSteadyState {
            cluster_bits: vec![7],
            lambda: 1.0,
            max_events_per_cluster: 400,
            sample_times: vec![0.0, 50.0, 100.0],
            sigmas: 5.0,
        };
        let rows = kind.evaluate(&cell, 3, 1).unwrap();
        assert_eq!(rows, kind.evaluate(&cell, 3, 1).unwrap());
        assert_eq!(rows.len(), 1);
        let cols = kind.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        assert_eq!(rows[0][at("n_clusters")].as_f64(), Some(128.0));
        assert_eq!(rows[0][at("n_samples")].as_f64(), Some(3.0));
        assert_eq!(rows[0][at("ok")].as_bool(), Some(true), "rows: {rows:?}");
        // Unsorted grids are a scenario error, not a panic.
        let bad = OutputKind::DesSteadyState {
            cluster_bits: vec![4],
            lambda: 1.0,
            max_events_per_cluster: 10,
            sample_times: vec![5.0, 1.0],
            sigmas: 4.0,
        };
        assert!(matches!(
            bad.evaluate(&cell, 0, 1),
            Err(SweepError::InvalidScenario(_))
        ));
    }

    #[test]
    fn duel_rows_carry_defense_labels_and_null_matches_baseline() {
        let cell = ParamGrid::paper()
            .mu(vec![0.25])
            .d(vec![0.9])
            .cells()
            .unwrap()
            .remove(0);
        let kind = OutputKind::Duel {
            defenses: vec![
                DefenseSpec::Null,
                DefenseSpec::IncarnationRefresh {
                    period: 5.0,
                    detection_prob: 0.8,
                },
            ],
            cluster_bits: 6,
            lambda: 1.0,
            max_events_per_cluster: 300,
            sigmas: 5.0,
        };
        let rows = kind.evaluate(&cell, 9, 1).unwrap();
        assert_eq!(rows.len(), 2);
        let cols = kind.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        assert_eq!(rows[0][at("defense")], Value::Str("none".into()));
        assert_eq!(rows[1][at("defense")], Value::Str("refresh@5:0.8".into()));
        // The null duel's analytic value IS the baseline.
        assert_eq!(
            rows[0][at("analytic_polluted")].as_f64(),
            rows[0][at("baseline_polluted")].as_f64()
        );
        assert_eq!(rows[0][at("reduction")].as_f64(), Some(0.0));
        // The refresh defense reduces pollution analytically.
        assert!(
            rows[1][at("analytic_polluted")].as_f64().unwrap()
                < rows[1][at("baseline_polluted")].as_f64().unwrap()
        );
    }

    #[test]
    fn control_tuning_bisects_to_a_verified_frontier() {
        let cell = ParamGrid::paper()
            .mu(vec![0.25])
            .d(vec![0.9])
            .cells()
            .unwrap()
            .remove(0);
        let kind = OutputKind::ControlTuning {
            threshold: 0.01,
            max_rate: 0.5,
            rate_tol: 0.01,
        };
        let rows = kind.evaluate(&cell, 0, 1).unwrap();
        let cols = kind.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        assert_eq!(rows[0][at("found")].as_bool(), Some(true));
        let rate = rows[0][at("frontier_rate")].as_f64().unwrap();
        assert!(rate > 0.0, "undefended pollution exceeds the threshold");
        assert!(rows[0][at("polluted_at_frontier")].as_f64().unwrap() <= 0.01);
        // The exact chain re-checked the fluid answer at the frontier.
        assert_eq!(rows[0][at("verified_ok")].as_bool(), Some(true));
        // Bisection beats any useful grid: baseline + bracket +
        // ~log2(0.5/0.01) probes, where the old grid scan spent one full
        // exact battery per grid point.
        assert!(rows[0][at("evaluations")].as_f64().unwrap() <= 12.0);
        assert_eq!(
            rows,
            kind.evaluate(&cell, 77, 1).unwrap(),
            "analytic: seed-free"
        );
        // An unreachable threshold reports found = false at max_rate.
        let none = OutputKind::ControlTuning {
            threshold: 1e-9,
            max_rate: 0.01,
            rate_tol: 0.005,
        };
        let rows = none.evaluate(&cell, 0, 1).unwrap();
        assert_eq!(rows[0][at("found")].as_bool(), Some(false));
        assert_eq!(rows[0][at("frontier_rate")].as_f64(), Some(0.01));
        // Malformed configurations are rejected.
        let bad = OutputKind::ControlTuning {
            threshold: 0.05,
            max_rate: 1.5,
            rate_tol: 0.01,
        };
        assert!(matches!(
            bad.evaluate(&cell, 0, 1),
            Err(SweepError::InvalidScenario(_))
        ));
    }

    #[test]
    fn mean_field_validation_agrees_on_every_path() {
        let cell = paper_cell(); // mu = 0.2, d = 0.9
        let kind = OutputKind::MeanFieldValidation {
            cluster_bits: 7,
            lambda: 1.0,
            max_events_per_cluster: 400,
            sigmas: 5.0,
            tol: 1e-7,
        };
        let rows = kind.evaluate(&cell, 11, 1).unwrap();
        assert_eq!(rows.len(), 1);
        let cols = kind.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        assert_eq!(rows[0][at("n_clusters")].as_f64(), Some(128.0));
        // Fluid and exact fractions coincide by the renewal identity.
        let mf = rows[0][at("mf_polluted")].as_f64().unwrap();
        let exact = rows[0][at("exact_polluted")].as_f64().unwrap();
        assert!((mf - exact).abs() <= 1e-7, "fluid {mf} vs exact {exact}");
        assert_eq!(rows[0][at("ok")].as_bool(), Some(true), "rows: {rows:?}");
        // Seed-deterministic like every Monte-Carlo kind.
        assert_eq!(rows, kind.evaluate(&cell, 11, 1).unwrap());
        // A DES shard prediction exists for the memory planner.
        assert!(kind.predicted_memory_bytes(&cell, 2).is_some());
    }

    #[test]
    fn mean_field_equilibrium_scans_amplifications() {
        let cell = paper_cell();
        let kind = OutputKind::MeanFieldEquilibrium {
            amplifications: vec![0.0, 1.5],
        };
        let rows = kind.evaluate(&cell, 0, 1).unwrap();
        assert!(rows.len() >= 2, "one row per amplification at least");
        let cols = kind.columns();
        let at = |name: &str| cols.iter().position(|c| c == name).unwrap();
        // The open row reproduces the exact stationary fractions and the
        // coupled rows raise (never lower) the effective pollution rate.
        assert_eq!(rows[0][at("amplification")].as_f64(), Some(0.0));
        assert_eq!(rows[0][at("mu_eff")].as_f64(), Some(0.2));
        for row in &rows {
            assert!(row[at("mu_eff")].as_f64().unwrap() >= 0.2);
            assert!(row[at("gap")].as_f64().unwrap() >= 0.0);
            assert_eq!(row[at("stable")].as_bool(), Some(true));
        }
        // Malformed amplification lists are rejected.
        let bad = OutputKind::MeanFieldEquilibrium {
            amplifications: vec![-1.0],
        };
        assert!(matches!(
            bad.evaluate(&cell, 0, 1),
            Err(SweepError::InvalidScenario(_))
        ));
    }

    #[test]
    fn mc_validation_is_seed_deterministic() {
        let cell = paper_cell();
        let kind = OutputKind::McValidation {
            replications: 200,
            sigmas: 3.0,
        };
        assert_eq!(
            kind.evaluate(&cell, 99, 1).unwrap(),
            kind.evaluate(&cell, 99, 1).unwrap()
        );
    }
}
