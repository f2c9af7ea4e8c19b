//! A fuzzed scenario: one point of the joint configuration space.
//!
//! [`FuzzScenario`] flattens everything a differential check needs —
//! model parameters (with the adversary ablation toggles), the initial
//! condition, the adversary strategy, the defense, the analysis-mode
//! override, the DES overlay knobs and one sweep [`OutputKind`] choice —
//! into a plain struct with an exact JSON round-trip, so shrunk failures
//! can live in `tests/regressions/` and be replayed forever.

use pollux::des_overlay::DesOverlayConfig;
use pollux::{AdversaryToggles, AnalysisMode, InitialCondition, ModelParams};
use pollux_adversary::baselines::{PassiveAdversary, RecklessAdversary};
use pollux_adversary::{ClusterView, JoinDecision, Strategy, TargetedStrategy};
use pollux_defense::DefenseSpec;
use pollux_prob::tolerance::AGREEMENT_SIGMAS;
use pollux_resilience::json::{self, Json};
use pollux_sweep::{OutputKind, ParamGrid, Scenario, ToggleSpec};
use std::fmt::Write as _;

/// Which adversary drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// The paper's targeted adversary (`TargetedStrategy`).
    Targeted,
    /// The do-nothing baseline.
    Passive,
    /// The always-churn baseline.
    Reckless,
}

impl StrategyChoice {
    /// Every variant, in generator draw order.
    pub const ALL: [StrategyChoice; 3] = [
        StrategyChoice::Targeted,
        StrategyChoice::Passive,
        StrategyChoice::Reckless,
    ];

    /// Stable identifier used in JSON and coverage keys.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyChoice::Targeted => "targeted",
            StrategyChoice::Passive => "passive",
            StrategyChoice::Reckless => "reckless",
        }
    }

    fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// Enum dispatch over the three concrete strategies, so the DES entry
/// points (generic over `S: Strategy + Sync`, sized) can run any fuzzed
/// adversary without boxing.
#[derive(Debug, Clone)]
pub enum AnyStrategy {
    /// See [`TargetedStrategy`].
    Targeted(TargetedStrategy),
    /// See [`PassiveAdversary`].
    Passive(PassiveAdversary),
    /// See [`RecklessAdversary`].
    Reckless(RecklessAdversary),
}

impl Strategy for AnyStrategy {
    fn name(&self) -> &'static str {
        match self {
            AnyStrategy::Targeted(s) => s.name(),
            AnyStrategy::Passive(s) => s.name(),
            AnyStrategy::Reckless(s) => s.name(),
        }
    }

    fn join_decision(&self, view: &ClusterView, joiner_malicious: bool) -> JoinDecision {
        match self {
            AnyStrategy::Targeted(s) => s.join_decision(view, joiner_malicious),
            AnyStrategy::Passive(s) => s.join_decision(view, joiner_malicious),
            AnyStrategy::Reckless(s) => s.join_decision(view, joiner_malicious),
        }
    }

    fn voluntary_core_leave(&self, view: &ClusterView) -> bool {
        match self {
            AnyStrategy::Targeted(s) => s.voluntary_core_leave(view),
            AnyStrategy::Passive(s) => s.voluntary_core_leave(view),
            AnyStrategy::Reckless(s) => s.voluntary_core_leave(view),
        }
    }

    fn biases_maintenance(&self) -> bool {
        match self {
            AnyStrategy::Targeted(s) => s.biases_maintenance(),
            AnyStrategy::Passive(s) => s.biases_maintenance(),
            AnyStrategy::Reckless(s) => s.biases_maintenance(),
        }
    }
}

/// Which sweep [`OutputKind`] the thread-identity oracle pair exercises.
///
/// One unit choice per `OutputKind` variant; [`FuzzScenario::sweep_scenario`]
/// maps a choice to a concrete kind with budgets small enough for the
/// fuzz loop. Keeping the choice (not the kind) in the scenario keeps
/// the JSON flat and the coverage counters one-per-variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKindChoice {
    /// [`OutputKind::Sojourns`].
    Sojourns,
    /// [`OutputKind::SojournsWithAbsorption`].
    SojournsWithAbsorption,
    /// [`OutputKind::SuccessiveSojourns`].
    SuccessiveSojourns,
    /// [`OutputKind::Absorption`].
    Absorption,
    /// [`OutputKind::PollutionRisk`].
    PollutionRisk,
    /// [`OutputKind::StateSpace`].
    StateSpace,
    /// [`OutputKind::StateSpaceScaling`].
    StateSpaceScaling,
    /// [`OutputKind::OverlayProportions`].
    OverlayProportions,
    /// [`OutputKind::McValidation`].
    McValidation,
    /// [`OutputKind::DesValidation`].
    DesValidation,
    /// [`OutputKind::DesSteadyState`].
    DesSteadyState,
    /// [`OutputKind::Duel`].
    Duel,
    /// [`OutputKind::ControlTuning`].
    ControlTuning,
    /// [`OutputKind::MeanFieldValidation`].
    MeanFieldValidation,
    /// [`OutputKind::MeanFieldEquilibrium`].
    MeanFieldEquilibrium,
    /// [`OutputKind::OverlayMcValidation`].
    OverlayMcValidation,
}

impl SweepKindChoice {
    /// Every variant, in generator draw order.
    pub const ALL: [SweepKindChoice; 16] = [
        SweepKindChoice::Sojourns,
        SweepKindChoice::SojournsWithAbsorption,
        SweepKindChoice::SuccessiveSojourns,
        SweepKindChoice::Absorption,
        SweepKindChoice::PollutionRisk,
        SweepKindChoice::StateSpace,
        SweepKindChoice::StateSpaceScaling,
        SweepKindChoice::OverlayProportions,
        SweepKindChoice::McValidation,
        SweepKindChoice::DesValidation,
        SweepKindChoice::DesSteadyState,
        SweepKindChoice::Duel,
        SweepKindChoice::ControlTuning,
        SweepKindChoice::MeanFieldValidation,
        SweepKindChoice::MeanFieldEquilibrium,
        SweepKindChoice::OverlayMcValidation,
    ];

    /// Stable identifier used in JSON and coverage keys.
    pub fn label(&self) -> &'static str {
        match self {
            SweepKindChoice::Sojourns => "sojourns",
            SweepKindChoice::SojournsWithAbsorption => "sojourns_with_absorption",
            SweepKindChoice::SuccessiveSojourns => "successive_sojourns",
            SweepKindChoice::Absorption => "absorption",
            SweepKindChoice::PollutionRisk => "pollution_risk",
            SweepKindChoice::StateSpace => "state_space",
            SweepKindChoice::StateSpaceScaling => "state_space_scaling",
            SweepKindChoice::OverlayProportions => "overlay_proportions",
            SweepKindChoice::McValidation => "mc_validation",
            SweepKindChoice::DesValidation => "des_validation",
            SweepKindChoice::DesSteadyState => "des_steady_state",
            SweepKindChoice::Duel => "duel",
            SweepKindChoice::ControlTuning => "control_tuning",
            SweepKindChoice::MeanFieldValidation => "meanfield_validation",
            SweepKindChoice::MeanFieldEquilibrium => "meanfield_equilibrium",
            SweepKindChoice::OverlayMcValidation => "overlay_mc_validation",
        }
    }

    fn parse(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// One sampled point of the joint configuration space.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenario {
    /// Index in the generator's stream (0-based).
    pub id: u64,
    /// Seed handed to the DES / duel / sweep runs.
    pub seed: u64,
    /// Core size `C`.
    pub c: usize,
    /// Spare capacity `Δ`.
    pub delta: usize,
    /// Pollution threshold `k` (`1 ..= C`).
    pub k: usize,
    /// Fraction of malicious nodes `μ` in `[0, 1)`.
    pub mu: f64,
    /// Churn bias `d` in `[0, 1)`.
    pub d: f64,
    /// Adversary caution `ν` in `(0, 1)`.
    pub nu: f64,
    /// Adversary Rule 1 toggle.
    pub rule1: bool,
    /// Adversary Rule 2 toggle.
    pub rule2: bool,
    /// Biased-maintenance toggle.
    pub bias: bool,
    /// Initial condition (`δ` or `β`).
    pub initial: InitialCondition,
    /// Adversary strategy.
    pub strategy: StrategyChoice,
    /// Defense in the loop.
    pub defense: DefenseSpec,
    /// Analysis-mode override for the analytic half.
    pub mode: AnalysisMode,
    /// `2^cluster_bits` clusters per DES run.
    pub cluster_bits: u32,
    /// Per-cluster churn rate of the DES.
    pub lambda: f64,
    /// DES event budget per cluster.
    pub events_per_cluster: u64,
    /// Regeneration mode (renewal–reward steady state) on/off.
    pub regenerate: bool,
    /// Per-cluster warm-up events discarded from steady-state tallies.
    pub warmup_events: u64,
    /// Occupancy sample grid (sorted ascending).
    pub sample_times: Vec<f64>,
    /// Shard count of the N-shard half of the byte-identity pair
    /// (`2 ..= 8`; the reference run always uses one shard).
    pub shards: usize,
    /// The sweep kind exercised by the thread-identity pair.
    pub kind: SweepKindChoice,
}

impl FuzzScenario {
    /// The model parameters (with toggles applied).
    ///
    /// # Panics
    ///
    /// Panics if the scenario's fields violate the [`ModelParams`]
    /// invariants — the generator and shrinker only produce valid
    /// fields, and corpus files are validated on load.
    pub fn params(&self) -> ModelParams {
        ModelParams::new(self.c, self.delta, self.k)
            .expect("scenario carries valid (C, Δ, k)")
            .with_mu(self.mu)
            .with_d(self.d)
            .with_nu(self.nu)
            .with_toggles(AdversaryToggles {
                rule1: self.rule1,
                rule2: self.rule2,
                bias: self.bias,
            })
    }

    /// Number of states of the cluster chain at these parameters.
    pub fn state_count(&self) -> usize {
        self.params().state_count()
    }

    /// The concrete adversary.
    pub fn strategy(&self) -> AnyStrategy {
        match self.strategy {
            StrategyChoice::Targeted => AnyStrategy::Targeted(
                TargetedStrategy::new(self.k, self.nu).expect("k ≥ 1 and ν ∈ (0, 1)"),
            ),
            StrategyChoice::Passive => AnyStrategy::Passive(PassiveAdversary::new()),
            StrategyChoice::Reckless => AnyStrategy::Reckless(RecklessAdversary::new()),
        }
    }

    /// The DES overlay configuration at the given shard count.
    pub fn des_config(&self, shards: usize) -> DesOverlayConfig {
        let mut cfg = DesOverlayConfig::new(self.cluster_bits, self.lambda, self.total_events())
            .with_warmup_events(self.warmup_events)
            .with_shards(shards);
        if self.regenerate {
            cfg = cfg.with_regeneration();
        }
        if !self.sample_times.is_empty() {
            cfg = cfg.with_sample_times(self.sample_times.clone());
        }
        cfg
    }

    /// The global DES event budget (`events_per_cluster · 2^cluster_bits`).
    pub fn total_events(&self) -> u64 {
        self.events_per_cluster << self.cluster_bits
    }

    /// The single-cell sweep scenario of the thread-identity pair: this
    /// scenario's parameter point under the chosen [`OutputKind`], with
    /// budgets sized for the fuzz loop (the pair asserts byte-identity
    /// across thread counts, not statistical agreement, so small DES/MC
    /// budgets lose no power).
    pub fn sweep_scenario(&self) -> Scenario {
        let toggles = AdversaryToggles {
            rule1: self.rule1,
            rule2: self.rule2,
            bias: self.bias,
        };
        // Budget pinning, like the fixed DES cluster_bits below: the
        // dense Jacobian-eigenvalue classification behind
        // `MeanFieldEquilibrium` is O(n³) in the state count, so that
        // kind clamps the spare axis to keep one fuzz draw bounded.
        let delta = if self.kind == SweepKindChoice::MeanFieldEquilibrium {
            self.delta.min(5)
        } else {
            self.delta
        };
        let grid = ParamGrid::paper()
            .core_size(vec![self.c])
            .max_spare(vec![delta])
            .k(vec![self.k])
            .mu(vec![self.mu])
            .d(vec![self.d])
            .nu(vec![self.nu])
            .toggles(vec![ToggleSpec::named("fuzz", toggles)])
            .initial(vec![self.initial.clone()]);
        let kind = match self.kind {
            SweepKindChoice::Sojourns => OutputKind::Sojourns,
            SweepKindChoice::SojournsWithAbsorption => OutputKind::SojournsWithAbsorption,
            SweepKindChoice::SuccessiveSojourns => OutputKind::SuccessiveSojourns { count: 3 },
            SweepKindChoice::Absorption => OutputKind::Absorption,
            SweepKindChoice::PollutionRisk => OutputKind::PollutionRisk,
            SweepKindChoice::StateSpace => OutputKind::StateSpace,
            SweepKindChoice::StateSpaceScaling => OutputKind::StateSpaceScaling,
            SweepKindChoice::OverlayProportions => OutputKind::OverlayProportions {
                n_clusters: vec![8, 32],
                sample_points: vec![1, 10, 100],
            },
            SweepKindChoice::McValidation => OutputKind::McValidation {
                replications: 16,
                sigmas: AGREEMENT_SIGMAS,
            },
            SweepKindChoice::DesValidation => OutputKind::DesValidation {
                cluster_bits: vec![2],
                lambda: self.lambda,
                max_events_per_cluster: 200,
                sigmas: AGREEMENT_SIGMAS,
            },
            SweepKindChoice::DesSteadyState => OutputKind::DesSteadyState {
                cluster_bits: vec![2],
                lambda: self.lambda,
                max_events_per_cluster: 200,
                sample_times: vec![5.0, 20.0],
                sigmas: AGREEMENT_SIGMAS,
            },
            SweepKindChoice::Duel => OutputKind::Duel {
                defenses: vec![self.defense.clone()],
                cluster_bits: 2,
                lambda: self.lambda,
                max_events_per_cluster: 150,
                sigmas: AGREEMENT_SIGMAS,
            },
            SweepKindChoice::ControlTuning => OutputKind::ControlTuning {
                threshold: 0.05,
                max_rate: 0.5,
                // A loose tolerance keeps the probe at a handful of
                // fluid solves; the pair checks byte-identity, not
                // frontier precision.
                rate_tol: 0.05,
            },
            SweepKindChoice::MeanFieldValidation => OutputKind::MeanFieldValidation {
                cluster_bits: 2,
                lambda: self.lambda,
                max_events_per_cluster: 200,
                sigmas: AGREEMENT_SIGMAS,
                tol: 1e-7,
            },
            SweepKindChoice::MeanFieldEquilibrium => OutputKind::MeanFieldEquilibrium {
                amplifications: vec![0.0, 1.0],
            },
            SweepKindChoice::OverlayMcValidation => OutputKind::OverlayMcValidation {
                n_clusters: 8,
                runs: 4,
                sample_points: vec![5, 20],
                tol_safe: 1.0,
                tol_polluted: 1.0,
            },
        };
        Scenario::new(
            format!("fuzz_{}", self.kind.label()),
            "single-cell thread-identity probe",
            grid,
            kind,
        )
    }

    /// Serializes the scenario as pretty-printed JSON with a fixed field
    /// order, byte-deterministic for identical scenarios.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            let _ = writeln!(out, "  \"{key}\": {value},");
        };
        field("format", "2".into());
        field("id", self.id.to_string());
        field("seed", self.seed.to_string());
        field("c", self.c.to_string());
        field("delta", self.delta.to_string());
        field("k", self.k.to_string());
        field("mu", json::fmt_f64(self.mu));
        field("d", json::fmt_f64(self.d));
        field("nu", json::fmt_f64(self.nu));
        field("rule1", self.rule1.to_string());
        field("rule2", self.rule2.to_string());
        field("bias", self.bias.to_string());
        field("initial", format!("\"{}\"", self.initial.label()));
        field("strategy", format!("\"{}\"", self.strategy.label()));
        let (dk, dp) = defense_fields(&self.defense);
        field("defense", format!("\"{dk}\""));
        field(
            "defense_params",
            format!(
                "[{}]",
                dp.iter()
                    .map(|v| json::fmt_f64(*v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        field("mode", format!("\"{}\"", mode_label(&self.mode)));
        field("cluster_bits", self.cluster_bits.to_string());
        field("lambda", json::fmt_f64(self.lambda));
        field("events_per_cluster", self.events_per_cluster.to_string());
        field("regenerate", self.regenerate.to_string());
        field("warmup_events", self.warmup_events.to_string());
        field(
            "sample_times",
            format!(
                "[{}]",
                self.sample_times
                    .iter()
                    .map(|t| json::fmt_f64(*t))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        field("shards", self.shards.to_string());
        // Last field without the trailing comma.
        let _ = write!(out, "  \"kind\": \"{}\"\n}}\n", self.kind.label());
        out
    }

    /// Parses a scenario back from [`FuzzScenario::to_json`] output.
    ///
    /// Older corpus entries keep loading: formats 1 and 2 are accepted,
    /// the retired `queue`, `steal` and `steal_skew` fields of format 2
    /// are ignored (every DES runs one execution plan), and the
    /// retired `"auto"` analysis mode reads as the default,
    /// [`AnalysisMode::Sparse`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/invalid field; also
    /// validates the model invariants by constructing [`ModelParams`].
    pub fn from_json(text: &str) -> Result<FuzzScenario, String> {
        let v = Json::parse(text)?;
        let format = v
            .get("format")
            .and_then(Json::as_u64)
            .ok_or("missing 'format'")?;
        if !(1..=2).contains(&format) {
            return Err(format!("unsupported corpus format {format}"));
        }
        let u64_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("bad '{key}'"))
        };
        let usize_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or(format!("bad '{key}'"))
        };
        let f64_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("bad '{key}'"))
        };
        let bool_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or(format!("bad '{key}'"))
        };
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("bad '{key}'"))
        };

        let initial = match str_field("initial")? {
            "delta" => InitialCondition::Delta,
            "beta" => InitialCondition::Beta,
            other => return Err(format!("unsupported initial '{other}'")),
        };
        let strategy =
            StrategyChoice::parse(str_field("strategy")?).ok_or("unsupported strategy")?;
        let defense_params: Vec<f64> = v
            .get("defense_params")
            .and_then(Json::as_arr)
            .ok_or("bad 'defense_params'")?
            .iter()
            .map(|j| j.as_f64().ok_or("non-numeric defense param"))
            .collect::<Result<_, _>>()?;
        let defense = parse_defense(str_field("defense")?, &defense_params)?;
        let mode = match str_field("mode")? {
            "dense" => AnalysisMode::Dense,
            "sparse" | "auto" => AnalysisMode::Sparse,
            other => return Err(format!("unsupported mode '{other}'")),
        };
        let kind = SweepKindChoice::parse(str_field("kind")?).ok_or("unsupported kind")?;
        let sample_times: Vec<f64> = v
            .get("sample_times")
            .and_then(Json::as_arr)
            .ok_or("bad 'sample_times'")?
            .iter()
            .map(|j| j.as_f64().ok_or("non-numeric sample time"))
            .collect::<Result<_, _>>()?;

        let scenario = FuzzScenario {
            id: u64_field("id")?,
            seed: u64_field("seed")?,
            c: usize_field("c")?,
            delta: usize_field("delta")?,
            k: usize_field("k")?,
            mu: f64_field("mu")?,
            d: f64_field("d")?,
            nu: f64_field("nu")?,
            rule1: bool_field("rule1")?,
            rule2: bool_field("rule2")?,
            bias: bool_field("bias")?,
            initial,
            strategy,
            defense,
            mode,
            cluster_bits: u64_field("cluster_bits")? as u32,
            lambda: f64_field("lambda")?,
            events_per_cluster: u64_field("events_per_cluster")?,
            regenerate: bool_field("regenerate")?,
            warmup_events: u64_field("warmup_events")?,
            sample_times,
            shards: usize_field("shards")?,
            kind,
        };
        // Validate the model invariants eagerly so replay failures point
        // at the corpus file, not a downstream panic.
        ModelParams::new(scenario.c, scenario.delta, scenario.k)
            .map_err(|e| format!("invalid (C, Δ, k): {e}"))?;
        if !(0.0..1.0).contains(&scenario.mu) || !(0.0..1.0).contains(&scenario.d) {
            return Err("μ and d must lie in [0, 1)".into());
        }
        if !(scenario.nu > 0.0 && scenario.nu < 1.0) {
            return Err("ν must lie in (0, 1)".into());
        }
        if scenario.cluster_bits > 24 || scenario.lambda <= 0.0 {
            return Err("invalid DES config".into());
        }
        if scenario.shards == 0 {
            return Err("shards must be ≥ 1".into());
        }
        Ok(scenario)
    }
}

fn mode_label(mode: &AnalysisMode) -> &'static str {
    match mode {
        AnalysisMode::Dense => "dense",
        AnalysisMode::Sparse => "sparse",
    }
}

/// Flattens a [`DefenseSpec`] to a `(kind, params)` pair for the JSON
/// encoding.
fn defense_fields(spec: &DefenseSpec) -> (&'static str, Vec<f64>) {
    match spec {
        DefenseSpec::Null => ("null", vec![]),
        DefenseSpec::InducedChurn { rate } => ("induced_churn", vec![*rate]),
        DefenseSpec::IncarnationRefresh {
            period,
            detection_prob,
        } => ("incarnation_refresh", vec![*period, *detection_prob]),
        DefenseSpec::AdaptiveClusterSize { target_fraction } => {
            ("adaptive_cluster_size", vec![*target_fraction])
        }
        // `DefenseSpec` is non-exhaustive; scenarios only ever carry the
        // four variants above (enforced by the generator and the parser).
        _ => unreachable!("unknown defense variant in a fuzz scenario"),
    }
}

fn parse_defense(kind: &str, params: &[f64]) -> Result<DefenseSpec, String> {
    match (kind, params) {
        ("null", []) => Ok(DefenseSpec::Null),
        ("induced_churn", [rate]) => Ok(DefenseSpec::InducedChurn { rate: *rate }),
        ("incarnation_refresh", [period, detection_prob]) => Ok(DefenseSpec::IncarnationRefresh {
            period: *period,
            detection_prob: *detection_prob,
        }),
        ("adaptive_cluster_size", [target_fraction]) => Ok(DefenseSpec::AdaptiveClusterSize {
            target_fraction: *target_fraction,
        }),
        _ => Err(format!(
            "unsupported defense '{kind}' with {} params",
            params.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> FuzzScenario {
        FuzzScenario {
            id: 3,
            seed: u64::MAX - 11,
            c: 4,
            delta: 5,
            k: 2,
            mu: 0.25,
            d: 0.6,
            nu: 0.3,
            rule1: true,
            rule2: false,
            bias: true,
            initial: InitialCondition::Beta,
            strategy: StrategyChoice::Targeted,
            defense: DefenseSpec::IncarnationRefresh {
                period: 8.0,
                detection_prob: 0.5,
            },
            mode: AnalysisMode::Sparse,
            cluster_bits: 3,
            lambda: 1.0,
            events_per_cluster: 200,
            regenerate: true,
            warmup_events: 100,
            sample_times: vec![1.5, 12.0],
            shards: 6,
            kind: SweepKindChoice::Duel,
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let text = s.to_json();
        let back = FuzzScenario::from_json(&text).expect("round trip");
        assert_eq!(back, s);
        // Serialization is deterministic.
        assert_eq!(back.to_json(), text);
        // A format-2 entry written before the single DES execution plan
        // still parses: its queue/stealing fields are ignored and the
        // retired "auto" mode reads as the sparse default.
        let legacy = text
            .replace("  \"mode\": \"sparse\",\n", "  \"mode\": \"auto\",\n")
            .replace(
                "  \"shards\": 6,\n",
                "  \"shards\": 6,\n  \"queue\": \"calendar\",\n  \"steal\": true,\n  \"steal_skew\": 2,\n",
            );
        assert_ne!(legacy, text);
        assert_eq!(
            FuzzScenario::from_json(&legacy).expect("legacy format 2"),
            s
        );
    }

    #[test]
    fn from_json_rejects_invalid_models() {
        let mut s = sample();
        s.delta = 1; // Δ = 1 violates max_spare ≥ 2
        assert!(FuzzScenario::from_json(&s.to_json()).is_err());
        let mut s = sample();
        s.k = 0;
        assert!(FuzzScenario::from_json(&s.to_json()).is_err());
        let mut s = sample();
        s.mu = 1.0;
        assert!(FuzzScenario::from_json(&s.to_json()).is_err());
    }

    #[test]
    fn format_one_corpora_replay_on_the_legacy_configuration() {
        // Pre-queue/stealing corpus entries must keep replaying exactly
        // as they did when committed.
        let s = sample();
        let text = s.to_json().replace("\"format\": 2,", "\"format\": 1,");
        let back = FuzzScenario::from_json(&text).expect("format 1 parses");
        assert_eq!(back, s);
    }

    #[test]
    fn every_kind_choice_builds_a_sweep_scenario() {
        let mut s = sample();
        for kind in SweepKindChoice::ALL {
            s.kind = kind;
            let scenario = s.sweep_scenario();
            assert_eq!(scenario.name, format!("fuzz_{}", kind.label()));
            assert_eq!(scenario.grid.cells().expect("single cell").len(), 1);
        }
    }

    #[test]
    fn strategies_dispatch() {
        let mut s = sample();
        for (choice, name) in [
            (StrategyChoice::Targeted, "targeted"),
            (StrategyChoice::Passive, "passive"),
            (StrategyChoice::Reckless, "reckless"),
        ] {
            s.strategy = choice;
            assert!(s.strategy().name().contains(name), "{choice:?}");
        }
    }
}
