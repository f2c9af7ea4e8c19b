//! The differential runner: one scenario through every applicable
//! oracle pair.
//!
//! Seven pairs cross-examine the independent evaluation paths:
//!
//! 1. **`dense_vs_sparse`** — the forced-dense and forced-sparse
//!    analytic pipelines on the defense-folded chain must agree to
//!    [`pollux_prob::tolerance::ANALYTIC_REL_TOL`] on every
//!    sweep-visible metric (skipped above [`DENSE_STATE_CAP`] states,
//!    where dense LU is not meant to run).
//! 2. **`analytic_vs_des`** — the analytic predictions against the
//!    whole-overlay DES under the scenario's defense: the
//!    renewal–reward steady-state fraction inside its
//!    [`renewal_wilson`] interval (regeneration mode) or the sojourn
//!    CI + Wilson absorption criterion of the `des_validate` scenario
//!    (plain mode). Targeted-adversary scenarios only — the Markov
//!    chain models the paper's adversary, not the baselines.
//! 3. **`meanfield_vs_exact`** — the fluid-limit stationary fractions
//!    ([`pollux_meanfield::FluidModel::open_equilibrium`]) on the
//!    defense-folded chain against the exact renewal fractions
//!    ([`ClusterAnalysis::steady_state_fractions`]); the two coincide
//!    by the renewal identity, so disagreement above
//!    `analytic_close` is a real defect in one of the paths.
//! 4. **`meanfield_vs_des`** — the fluid-limit stationary polluted
//!    fraction inside the regeneration-mode DES's [`renewal_wilson`]
//!    interval widened by the O(1/M) finite-size band. Targeted +
//!    regeneration scenarios with enough completed cycles only.
//! 5. **`shard_identity`** — the same DES run at 1 and at `shards`
//!    worker shards must produce byte-identical reports.
//! 6. **`recorder_inertness`** — the observed entry point
//!    ([`run_des_overlay_duel_observed`]) must return a report
//!    byte-identical to the unobserved one.
//! 7. **`sweep_threads`** — a single-cell sweep of the scenario's
//!    [`OutputKind`](pollux_sweep::OutputKind) choice must emit
//!    byte-identical TSV/JSON artefacts at 1 and 2 runner threads.
//!
//! Statistical pairs only ever *skip* (never fail) when their
//! preconditions — completed cycles, no censoring — are not met, so a
//! red verdict always means disagreement, not noise.

use crate::generator::DENSE_STATE_CAP;
use crate::scenario::{FuzzScenario, StrategyChoice};
use pollux::des_overlay::{run_des_overlay_duel, run_des_overlay_duel_observed, DesOverlayReport};
use pollux::duel::renewal_wilson;
use pollux::{AnalysisMode, ClusterAnalysis, ClusterChain};
use pollux_defense::Defense;
use pollux_linalg::SolverOptions;
use pollux_markov::{SojournAnalysis, SojournPartition, SparseDtmc};
use pollux_meanfield::FluidModel;
use pollux_prob::tolerance::{analytic_close, AGREEMENT_SIGMAS, CI_HALF_WIDTH_FLOOR};
use pollux_prob::wilson_interval;
use pollux_sweep::SweepRunner;

/// The oracle pair names, in execution order. Summaries and shrink
/// predicates key on these.
pub const PAIR_NAMES: [&str; 7] = [
    "dense_vs_sparse",
    "analytic_vs_des",
    "meanfield_vs_exact",
    "meanfield_vs_des",
    "shard_identity",
    "recorder_inertness",
    "sweep_threads",
];

/// Minimum completed renewal cycles before the steady-state Wilson
/// criterion is considered informative.
const MIN_CYCLES: u64 = 100;

/// Relative size of an injected fault (see [`Fault`]). Referenced by
/// non-test builds too: the injection helpers themselves are always
/// compiled (only the [`Fault`] constructors are test-gated).
pub(crate) const FAULT_EPS: f64 = 1e-3;

/// Verdict of one oracle pair on one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairStatus {
    /// The two paths agreed within the pinned tolerance.
    Agree,
    /// The two paths disagreed — a real finding (or an injected fault).
    Disagree,
    /// The pair's preconditions were not met for this scenario.
    Skip,
}

/// One pair's outcome, with a human-readable detail line.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// One of [`PAIR_NAMES`].
    pub name: &'static str,
    /// Agreement verdict.
    pub status: PairStatus,
    /// What was compared (or why the pair was skipped).
    pub detail: String,
}

impl PairOutcome {
    fn agree(name: &'static str, detail: impl Into<String>) -> Self {
        PairOutcome {
            name,
            status: PairStatus::Agree,
            detail: detail.into(),
        }
    }

    fn disagree(name: &'static str, detail: impl Into<String>) -> Self {
        PairOutcome {
            name,
            status: PairStatus::Disagree,
            detail: detail.into(),
        }
    }

    fn skip(name: &'static str, detail: impl Into<String>) -> Self {
        PairOutcome {
            name,
            status: PairStatus::Skip,
            detail: detail.into(),
        }
    }
}

/// All pair outcomes of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// One outcome per entry of [`PAIR_NAMES`], in order.
    pub pairs: Vec<PairOutcome>,
}

impl Verdict {
    /// The first disagreeing pair, if any.
    pub fn failure(&self) -> Option<&PairOutcome> {
        self.pairs.iter().find(|p| p.status == PairStatus::Disagree)
    }
}

/// Fault-injection hook for the oracle self-check: a deliberately
/// broken runner must be *caught* by the pairs, proving the oracle has
/// teeth. Constructed only by `#[cfg(test)]` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))] // constructed only by test code
pub(crate) enum Fault {
    /// Moves `FAULT_EPS` of probability mass between two entries of one
    /// transient CSR row before the *sparse* sojourn solve (mass-
    /// preserving, so the perturbed chain still validates as
    /// stochastic). The dense pipeline sees the unperturbed chain, so
    /// `dense_vs_sparse` must flag the 1e-3 drift against its 1e-9
    /// tolerance.
    SparseCsrEntry,
    /// Scales the DES churn rate λ by `1 + FAULT_EPS` in the N-shard
    /// run only; `shard_identity` must flag the byte difference.
    DesLambdaRate,
}

/// The differential runner. Stateless apart from the test-only fault
/// hook, so one instance can run any number of scenarios.
#[derive(Debug, Default)]
pub struct DiffRunner {
    fault: Option<Fault>,
}

impl DiffRunner {
    /// A healthy runner (no fault injected).
    pub fn new() -> Self {
        DiffRunner { fault: None }
    }

    /// A deliberately broken runner for the oracle self-check.
    #[cfg(test)]
    pub(crate) fn with_fault(fault: Fault) -> Self {
        DiffRunner { fault: Some(fault) }
    }

    /// Runs every oracle pair on `scenario`.
    pub fn run(&self, scenario: &FuzzScenario) -> Verdict {
        let base = self.base_report(scenario);
        let pairs = vec![
            self.pair_dense_vs_sparse(scenario),
            self.pair_analytic_vs_des(scenario, base.as_ref()),
            self.pair_meanfield_vs_exact(scenario),
            self.pair_meanfield_vs_des(scenario, base.as_ref()),
            self.pair_shard_identity(scenario, base.as_ref()),
            self.pair_recorder_inertness(scenario, base.as_ref()),
            self.pair_sweep_threads(scenario),
        ];
        Verdict { pairs }
    }

    /// Runs a single pair by name — the shrinker's predicate, which
    /// only needs to re-check the failing pair.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PAIR_NAMES`].
    pub fn run_pair(&self, scenario: &FuzzScenario, name: &str) -> PairOutcome {
        match name {
            "dense_vs_sparse" => self.pair_dense_vs_sparse(scenario),
            "analytic_vs_des" => {
                let base = self.base_report(scenario);
                self.pair_analytic_vs_des(scenario, base.as_ref())
            }
            "meanfield_vs_exact" => self.pair_meanfield_vs_exact(scenario),
            "meanfield_vs_des" => {
                let base = self.base_report(scenario);
                self.pair_meanfield_vs_des(scenario, base.as_ref())
            }
            "shard_identity" => {
                let base = self.base_report(scenario);
                self.pair_shard_identity(scenario, base.as_ref())
            }
            "recorder_inertness" => {
                let base = self.base_report(scenario);
                self.pair_recorder_inertness(scenario, base.as_ref())
            }
            "sweep_threads" => self.pair_sweep_threads(scenario),
            other => panic!("unknown oracle pair '{other}'"),
        }
    }

    /// The reference DES run: one shard, scenario defense in the loop.
    /// `None` when the defense spec fails to build (each pair then
    /// skips with the reason).
    fn base_report(&self, s: &FuzzScenario) -> Option<DesOverlayReport> {
        let defense = s.defense.build().ok()?;
        let report = run_des_overlay_duel(
            &s.params(),
            &s.initial,
            &s.strategy(),
            defense.as_ref(),
            &s.des_config(1),
            s.seed,
        );
        Some(report)
    }

    fn pair_dense_vs_sparse(&self, s: &FuzzScenario) -> PairOutcome {
        const NAME: &str = "dense_vs_sparse";
        let states = s.state_count();
        if states > DENSE_STATE_CAP {
            return PairOutcome::skip(
                NAME,
                format!("{states} states above the dense cap ({DENSE_STATE_CAP})"),
            );
        }
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        let params = s.params();
        let analyze = |mode: AnalysisMode| {
            let chain = ClusterChain::build_with_defense(&params, defense.as_ref());
            ClusterAnalysis::from_chain_with_mode(chain, s.initial.clone(), mode)
        };
        let dense = match analyze(AnalysisMode::Dense) {
            Ok(a) => a,
            Err(e) => return PairOutcome::skip(NAME, format!("dense pipeline: {e}")),
        };
        let sparse = match analyze(AnalysisMode::Sparse) {
            Ok(a) => a,
            Err(e) => return PairOutcome::skip(NAME, format!("sparse pipeline: {e}")),
        };

        let metrics = |a: &ClusterAnalysis| -> Result<Vec<(&'static str, f64)>, String> {
            let split = a.absorption_split().map_err(|e| e.to_string())?;
            let (steady_s, steady_p) = a.steady_state_fractions().map_err(|e| e.to_string())?;
            Ok(vec![
                (
                    "E_T_S",
                    a.expected_safe_events().map_err(|e| e.to_string())?,
                ),
                (
                    "E_T_P",
                    a.expected_polluted_events().map_err(|e| e.to_string())?,
                ),
                (
                    "E_T",
                    a.expected_absorption_events().map_err(|e| e.to_string())?,
                ),
                (
                    "var_S",
                    a.variance_safe_events().map_err(|e| e.to_string())?,
                ),
                (
                    "var_P",
                    a.variance_polluted_events().map_err(|e| e.to_string())?,
                ),
                (
                    "p_ever",
                    a.pollution_probability().map_err(|e| e.to_string())?,
                ),
                ("AmS", split.safe_merge),
                ("AlS", split.safe_split),
                ("AmP", split.polluted_merge),
                ("AlP", split.polluted_split),
                ("steady_S", steady_s),
                ("steady_P", steady_p),
            ])
        };
        let dense_metrics = match metrics(&dense) {
            Ok(m) => m,
            Err(e) => return PairOutcome::skip(NAME, format!("dense metrics: {e}")),
        };
        let mut sparse_metrics = match metrics(&sparse) {
            Ok(m) => m,
            Err(e) => return PairOutcome::skip(NAME, format!("sparse metrics: {e}")),
        };

        if self.fault_is(Fault::SparseCsrEntry) {
            match self.perturbed_sparse_sojourns(s, defense.as_ref()) {
                Ok((e_ts, e_tp)) => {
                    for (name, value) in sparse_metrics.iter_mut() {
                        match *name {
                            "E_T_S" => *value = e_ts,
                            "E_T_P" => *value = e_tp,
                            _ => {}
                        }
                    }
                }
                Err(e) => return PairOutcome::skip(NAME, format!("fault injection: {e}")),
            }
        }

        for ((name, a), (_, b)) in dense_metrics.iter().zip(sparse_metrics.iter()) {
            if !analytic_close(*a, *b) {
                return PairOutcome::disagree(
                    NAME,
                    format!("{name}: dense = {a:?} vs sparse = {b:?}"),
                );
            }
        }
        PairOutcome::agree(
            NAME,
            format!("{} metrics agree at {states} states", dense_metrics.len()),
        )
    }

    /// The sparse sojourns of a mass-preservingly perturbed chain: the
    /// [`Fault::SparseCsrEntry`] payload.
    fn perturbed_sparse_sojourns(
        &self,
        s: &FuzzScenario,
        defense: &(dyn Defense + Send + Sync),
    ) -> Result<(f64, f64), String> {
        let params = s.params();
        let chain = ClusterChain::build_with_defense(&params, defense);
        let source = chain.sparse_dtmc();
        let n = source.n_states();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for (j, v) in source.successors(i) {
                triplets.push((i, j, v));
            }
        }
        let partition = SojournPartition::new(
            chain.space().transient_safe().to_vec(),
            chain.space().transient_polluted().to_vec(),
        )
        .map_err(|e| e.to_string())?;
        let alpha = s
            .initial
            .distribution(chain.space())
            .map_err(|e| e.to_string())?;
        let solve = |trips: Vec<(usize, usize, f64)>| -> Result<(f64, f64), String> {
            let dtmc = SparseDtmc::from_triplets(n, trips).map_err(|e| e.to_string())?;
            let sojourns = SojournAnalysis::new_sparse(
                &dtmc,
                &partition,
                &alpha,
                SolverOptions::force_sparse(),
            )
            .map_err(|e| e.to_string())?;
            Ok((
                sojourns.expected_total_s().map_err(|e| e.to_string())?,
                sojourns.expected_total_p().map_err(|e| e.to_string())?,
            ))
        };
        let base = solve(triplets.clone())?;

        // Move `FAULT_EPS` of mass between two entries of one transient
        // row — the row sum, and therefore stochasticity validation, is
        // preserved. Not every (row, entry-pair) is visible to the
        // aggregate sojourn metrics: the row can be unreachable from the
        // initial distribution, or both target states can carry the same
        // continuation value (e.g. both leave the safe set immediately).
        // Search the combinations in deterministic order and keep the
        // first whose perturbed sojourns move by a margin well above the
        // oracle tolerance, so injection provably produces a detectable
        // fault rather than a silent no-op.
        let transient: Vec<usize> = chain
            .space()
            .transient_safe()
            .iter()
            .chain(chain.space().transient_polluted().iter())
            .copied()
            .collect();
        for &row in &transient {
            let idx: Vec<usize> = triplets
                .iter()
                .enumerate()
                .filter(|(_, (i, _, _))| *i == row)
                .map(|(pos, _)| pos)
                .collect();
            for pair in idx.windows(2) {
                let (from, to) = (pair[0], pair[1]);
                let eps = FAULT_EPS.min(triplets[from].2 / 2.0);
                if eps <= 0.0 {
                    continue;
                }
                let mut perturbed = triplets.clone();
                perturbed[from].2 -= eps;
                perturbed[to].2 += eps;
                let (e_ts, e_tp) = solve(perturbed)?;
                let margin = |a: f64, b: f64| (a - b).abs() > 1e-6 * a.abs().max(b.abs()).max(1.0);
                if margin(e_ts, base.0) || margin(e_tp, base.1) {
                    return Ok((e_ts, e_tp));
                }
            }
        }
        Err("no CSR perturbation moves the sojourn metrics".into())
    }

    fn pair_analytic_vs_des(
        &self,
        s: &FuzzScenario,
        base: Option<&DesOverlayReport>,
    ) -> PairOutcome {
        const NAME: &str = "analytic_vs_des";
        if s.strategy != StrategyChoice::Targeted {
            return PairOutcome::skip(NAME, "the Markov chain models the targeted adversary only");
        }
        let Some(report) = base else {
            return PairOutcome::skip(NAME, "defense spec failed to build");
        };
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        // Respect the scenario's analysis-mode override, but never force
        // dense above the cap.
        let mode = if s.mode == AnalysisMode::Dense && s.state_count() > DENSE_STATE_CAP {
            AnalysisMode::Sparse
        } else {
            s.mode
        };
        let chain = ClusterChain::build_with_defense(&s.params(), defense.as_ref());
        let analysis = match ClusterAnalysis::from_chain_with_mode(chain, s.initial.clone(), mode) {
            Ok(a) => a,
            Err(e) => return PairOutcome::skip(NAME, format!("analytic pipeline: {e}")),
        };

        if s.regenerate {
            // Renewal–reward steady state against the renewal-adjusted
            // Wilson interval, as in the `des_steady_state` scenario.
            let (_, want_polluted) = match analysis.steady_state_fractions() {
                Ok(f) => f,
                Err(e) => return PairOutcome::skip(NAME, format!("steady state: {e}")),
            };
            if report.measured_cycles < MIN_CYCLES {
                return PairOutcome::skip(
                    NAME,
                    format!(
                        "{} completed cycles below the informative minimum {MIN_CYCLES}",
                        report.measured_cycles
                    ),
                );
            }
            let (lo, hi) = renewal_wilson(
                report.polluted_event_total,
                report.events - report.warmup_events,
                report.measured_cycles,
                AGREEMENT_SIGMAS,
            );
            let (_, des_polluted) = report.steady_state_fractions();
            // Wilson bounds carry O(1e-18) rounding residue (a zero
            // count yields a lower bound of ~1e-18, excluding an exact
            // analytic 0.0), so containment gets an absolute epsilon —
            // fractions live in [0, 1].
            const WILSON_EPS: f64 = 1e-12;
            if want_polluted >= lo - WILSON_EPS && want_polluted <= hi + WILSON_EPS {
                PairOutcome::agree(
                    NAME,
                    format!(
                        "steady polluted {want_polluted:.6} in [{lo:.6}, {hi:.6}] over {} cycles",
                        report.measured_cycles
                    ),
                )
            } else {
                PairOutcome::disagree(
                    NAME,
                    format!(
                        "steady polluted: analytic {want_polluted:?} outside \
                         [{lo:?}, {hi:?}] (DES {des_polluted:?}, {} cycles)",
                        report.measured_cycles
                    ),
                )
            }
        } else {
            // Sojourn CI + Wilson absorption criterion, as in the
            // `des_validate` scenario.
            if report.censored > 0 {
                return PairOutcome::skip(
                    NAME,
                    format!("{} censored clusters at this budget", report.censored),
                );
            }
            if report.absorbed == 0 {
                return PairOutcome::skip(NAME, "no absorbed clusters");
            }
            let e_ts = match analysis.expected_safe_events() {
                Ok(v) => v,
                Err(e) => return PairOutcome::skip(NAME, format!("E(T_S): {e}")),
            };
            let e_tp = match analysis.expected_polluted_events() {
                Ok(v) => v,
                Err(e) => return PairOutcome::skip(NAME, format!("E(T_P): {e}")),
            };
            let split = match analysis.absorption_split() {
                Ok(v) => v,
                Err(e) => return PairOutcome::skip(NAME, format!("absorption split: {e}")),
            };
            let checks = [
                ("T_S", e_ts, report.safe_events),
                ("T_P", e_tp, report.polluted_events),
            ];
            for (name, want, got) in checks {
                if got.ci_half_width == 0.0 {
                    // A constant sample (e.g. every cluster saw zero
                    // polluted events) carries no variance information:
                    // the CI collapses to a point and any rare-but-real
                    // event class would read as a false alarm. The
                    // Wilson absorption check below stays informative.
                    continue;
                }
                let slack = AGREEMENT_SIGMAS * got.ci_half_width.max(CI_HALF_WIDTH_FLOOR);
                if (got.mean - want).abs() > slack {
                    return PairOutcome::disagree(
                        NAME,
                        format!(
                            "{name}: analytic {want:?} vs DES {:?} ± {slack:?}",
                            got.mean
                        ),
                    );
                }
            }
            let (pm_lo, pm_hi) = wilson_interval(
                report.absorption_counts[2],
                report.absorbed,
                AGREEMENT_SIGMAS,
            );
            // Same rounding residue as the renewal bound: a zero count
            // yields a lower bound of ~1e-18, excluding an exact 0.0.
            const WILSON_EPS: f64 = 1e-12;
            if !(split.polluted_merge >= pm_lo - WILSON_EPS
                && split.polluted_merge <= pm_hi + WILSON_EPS)
            {
                return PairOutcome::disagree(
                    NAME,
                    format!(
                        "polluted merge: analytic {:?} outside [{pm_lo:?}, {pm_hi:?}]",
                        split.polluted_merge
                    ),
                );
            }
            PairOutcome::agree(
                NAME,
                format!(
                    "sojourns + absorption agree over {} absorbed clusters",
                    report.absorbed
                ),
            )
        }
    }

    fn pair_meanfield_vs_exact(&self, s: &FuzzScenario) -> PairOutcome {
        const NAME: &str = "meanfield_vs_exact";
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        let states = s.state_count();
        if states > DENSE_STATE_CAP {
            // Both paths are sparse-capable, but the fuzz loop budgets
            // one draw at well under a second; big spaces are covered
            // by the dedicated sweep scenarios instead.
            return PairOutcome::skip(
                NAME,
                format!("{states} states above the fuzz cap ({DENSE_STATE_CAP})"),
            );
        }
        let model = match FluidModel::build_with_defense(&s.params(), defense.as_ref(), &s.initial)
        {
            Ok(m) => m,
            Err(e) => return PairOutcome::skip(NAME, format!("fluid build: {e}")),
        };
        let eq = match model.open_equilibrium() {
            Ok(eq) => eq,
            Err(e) => return PairOutcome::skip(NAME, format!("fluid equilibrium: {e}")),
        };
        let chain = ClusterChain::build_with_defense(&s.params(), defense.as_ref());
        let analysis = match ClusterAnalysis::from_chain(chain, s.initial.clone()) {
            Ok(a) => a,
            Err(e) => return PairOutcome::skip(NAME, format!("analytic pipeline: {e}")),
        };
        let (exact_safe, exact_polluted) = match analysis.steady_state_fractions() {
            Ok(f) => f,
            Err(e) => return PairOutcome::skip(NAME, format!("steady state: {e}")),
        };
        // The two paths share the renewal identity; disagreement beyond
        // solver tolerance is a real defect, never noise.
        for (name, mf, exact) in [
            ("steady_S", eq.safe_fraction, exact_safe),
            ("steady_P", eq.polluted_fraction, exact_polluted),
        ] {
            if !analytic_close(mf, exact) {
                return PairOutcome::disagree(
                    NAME,
                    format!("{name}: mean-field = {mf:?} vs exact = {exact:?}"),
                );
            }
        }
        PairOutcome::agree(
            NAME,
            format!("stationary fractions agree at {states} states"),
        )
    }

    fn pair_meanfield_vs_des(
        &self,
        s: &FuzzScenario,
        base: Option<&DesOverlayReport>,
    ) -> PairOutcome {
        const NAME: &str = "meanfield_vs_des";
        if s.strategy != StrategyChoice::Targeted {
            return PairOutcome::skip(NAME, "the fluid limit models the targeted adversary only");
        }
        if !s.regenerate {
            return PairOutcome::skip(NAME, "stationary comparison needs regeneration mode");
        }
        let Some(report) = base else {
            return PairOutcome::skip(NAME, "defense spec failed to build");
        };
        if report.measured_cycles < MIN_CYCLES {
            return PairOutcome::skip(
                NAME,
                format!(
                    "{} completed cycles below the informative minimum {MIN_CYCLES}",
                    report.measured_cycles
                ),
            );
        }
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        let model = match FluidModel::build_with_defense(&s.params(), defense.as_ref(), &s.initial)
        {
            Ok(m) => m,
            Err(e) => return PairOutcome::skip(NAME, format!("fluid build: {e}")),
        };
        let eq = match model.open_equilibrium() {
            Ok(eq) => eq,
            Err(e) => return PairOutcome::skip(NAME, format!("fluid equilibrium: {e}")),
        };
        let (lo, hi) = renewal_wilson(
            report.polluted_event_total,
            report.events - report.warmup_events,
            report.measured_cycles,
            AGREEMENT_SIGMAS,
        );
        // The fluid prediction is exact only at M = ∞; the finite DES
        // overlay sits within O(1/M) of it, so the Wilson band gets one
        // finite-size term on top of the usual rounding epsilon.
        const WILSON_EPS: f64 = 1e-12;
        let band = 1.0 / (1u64 << s.cluster_bits) as f64 + WILSON_EPS;
        let want = eq.polluted_fraction;
        if want >= lo - band && want <= hi + band {
            PairOutcome::agree(
                NAME,
                format!(
                    "fluid polluted {want:.6} in [{lo:.6}, {hi:.6}] ± {band:.6} \
                     over {} cycles",
                    report.measured_cycles
                ),
            )
        } else {
            PairOutcome::disagree(
                NAME,
                format!(
                    "fluid polluted {want:?} outside [{lo:?}, {hi:?}] widened by \
                     {band:?} ({} cycles)",
                    report.measured_cycles
                ),
            )
        }
    }

    fn pair_shard_identity(
        &self,
        s: &FuzzScenario,
        base: Option<&DesOverlayReport>,
    ) -> PairOutcome {
        const NAME: &str = "shard_identity";
        let Some(base) = base else {
            return PairOutcome::skip(NAME, "defense spec failed to build");
        };
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        #[cfg(test)]
        let scenario = {
            let mut c = s.clone();
            if self.fault_is(Fault::DesLambdaRate) {
                c.lambda *= 1.0 + FAULT_EPS;
            }
            c
        };
        #[cfg(not(test))]
        let scenario = s.clone();
        let sharded = run_des_overlay_duel(
            &scenario.params(),
            &scenario.initial,
            &scenario.strategy(),
            defense.as_ref(),
            &scenario.des_config(scenario.shards),
            scenario.seed,
        );
        if &sharded == base {
            PairOutcome::agree(NAME, format!("byte-identical at 1 vs {} shards", s.shards))
        } else {
            PairOutcome::disagree(
                NAME,
                format!(
                    "1-shard vs {}-shard reports differ: events {} vs {}, end_time {:?} vs {:?}",
                    s.shards, base.events, sharded.events, base.end_time, sharded.end_time
                ),
            )
        }
    }

    fn pair_recorder_inertness(
        &self,
        s: &FuzzScenario,
        base: Option<&DesOverlayReport>,
    ) -> PairOutcome {
        const NAME: &str = "recorder_inertness";
        let Some(base) = base else {
            return PairOutcome::skip(NAME, "defense spec failed to build");
        };
        let defense = match s.defense.build() {
            Ok(d) => d,
            Err(e) => return PairOutcome::skip(NAME, format!("defense spec: {e}")),
        };
        let (observed, _, _) = run_des_overlay_duel_observed(
            &s.params(),
            &s.initial,
            &s.strategy(),
            defense.as_ref(),
            &s.des_config(s.shards),
            s.seed,
            16,
        );
        if &observed == base {
            PairOutcome::agree(
                NAME,
                format!("observed {}-shard run matches the plain report", s.shards),
            )
        } else {
            PairOutcome::disagree(
                NAME,
                format!(
                    "observed run diverges from the plain report: events {} vs {}",
                    observed.events, base.events
                ),
            )
        }
    }

    fn pair_sweep_threads(&self, s: &FuzzScenario) -> PairOutcome {
        const NAME: &str = "sweep_threads";
        let scenario = s.sweep_scenario();
        let run = |threads: usize| {
            SweepRunner::new()
                .with_threads(threads)
                .with_seed(s.seed)
                .run(&scenario)
        };
        let one = match run(1) {
            Ok(r) => r,
            Err(e) => return PairOutcome::skip(NAME, format!("sweep failed: {e}")),
        };
        let two = match run(2) {
            Ok(r) => r,
            Err(e) => return PairOutcome::skip(NAME, format!("sweep failed: {e}")),
        };
        if one.to_tsv() == two.to_tsv() && one.to_json() == two.to_json() {
            PairOutcome::agree(
                NAME,
                format!("kind {} byte-identical at 1 vs 2 threads", s.kind.label()),
            )
        } else {
            PairOutcome::disagree(
                NAME,
                format!(
                    "kind {} artefacts differ across thread counts",
                    s.kind.label()
                ),
            )
        }
    }

    fn fault_is(&self, fault: Fault) -> bool {
        self.fault == Some(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ScenarioGen;

    /// A cheap, well-behaved scenario for direct runner tests.
    fn small_scenario() -> FuzzScenario {
        let mut gen = ScenarioGen::new(2011);
        loop {
            let s = gen.next_scenario();
            if s.state_count() <= DENSE_STATE_CAP
                && s.strategy == StrategyChoice::Targeted
                && s.cluster_bits <= 3
            {
                return s;
            }
        }
    }

    #[test]
    fn healthy_runner_reports_no_disagreement() {
        let runner = DiffRunner::new();
        let verdict = runner.run(&small_scenario());
        assert_eq!(verdict.pairs.len(), PAIR_NAMES.len());
        for (pair, name) in verdict.pairs.iter().zip(PAIR_NAMES) {
            assert_eq!(pair.name, name);
            assert_ne!(
                pair.status,
                PairStatus::Disagree,
                "{}: {}",
                pair.name,
                pair.detail
            );
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let runner = DiffRunner::new();
        let s = small_scenario();
        assert_eq!(runner.run(&s), runner.run(&s));
    }

    #[test]
    fn run_pair_matches_full_run() {
        let runner = DiffRunner::new();
        let s = small_scenario();
        let verdict = runner.run(&s);
        for pair in &verdict.pairs {
            assert_eq!(&runner.run_pair(&s, pair.name), pair);
        }
    }

    #[test]
    #[should_panic(expected = "unknown oracle pair")]
    fn unknown_pair_names_panic() {
        DiffRunner::new().run_pair(&small_scenario(), "nonsense");
    }

    /// The first seed-2011 scenario where the CSR fault is injectable.
    /// The tiniest chains absorb after one event no matter what the
    /// transition probabilities are, so injection legitimately reports
    /// "nothing to perturb" there (the pair skips); the self-check needs
    /// a chain whose sojourn metrics actually depend on a probability.
    fn csr_faultable_scenario() -> (FuzzScenario, PairOutcome) {
        let runner = DiffRunner::with_fault(Fault::SparseCsrEntry);
        let mut gen = ScenarioGen::new(2011);
        for _ in 0..200 {
            let s = gen.next_scenario();
            if s.state_count() > DENSE_STATE_CAP {
                continue;
            }
            let outcome = runner.run_pair(&s, "dense_vs_sparse");
            if outcome.status != PairStatus::Skip {
                return (s, outcome);
            }
        }
        panic!("no CSR-faultable scenario within 200 draws");
    }

    #[test]
    fn csr_fault_is_detected_by_the_analytic_pair() {
        let (_, outcome) = csr_faultable_scenario();
        assert_eq!(outcome.status, PairStatus::Disagree, "{}", outcome.detail);
    }

    #[test]
    fn lambda_fault_is_detected_by_the_shard_pair() {
        let runner = DiffRunner::with_fault(Fault::DesLambdaRate);
        let outcome = runner.run_pair(&small_scenario(), "shard_identity");
        assert_eq!(outcome.status, PairStatus::Disagree, "{}", outcome.detail);
    }
}
