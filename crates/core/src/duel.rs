//! Adversary-vs-defense duels: one countermeasure evaluated through both
//! model halves at once.
//!
//! A duel pits a [`pollux_adversary::Strategy`] against a
//! [`pollux_defense::Defense`] and answers one question — *what long-run
//! polluted fraction does the defended overlay sustain?* — twice:
//!
//! * **analytically**: the defense folds into the Figure-2 transition
//!   probabilities ([`crate::ClusterChain::build_with_defense`]), the
//!   sparse pipeline evaluates `E(T_S)`, `E(T_P)`, and the
//!   renewal–reward closed form
//!   [`crate::ClusterAnalysis::steady_state_fractions`] gives the exact
//!   long-run polluted fraction of the regenerating overlay;
//! * **empirically**: the regeneration-mode whole-overlay DES
//!   ([`crate::des_overlay::run_des_overlay_duel`]) measures the share
//!   of churn events landing on polluted clusters.
//!
//! The two estimates are tied together with a renewal-adjusted Wilson
//! interval ([`renewal_wilson`]): successive events of one cluster are
//! correlated over a renewal cycle, so the binomial interval is taken at
//! the number of completed cycles — the i.i.d. unit of the renewal
//! process — instead of the raw event count.
//!
//! # Example
//!
//! ```
//! use pollux::duel::{run_duel, DuelConfig};
//! use pollux::{InitialCondition, ModelParams};
//! use pollux_adversary::TargetedStrategy;
//! use pollux_defense::InducedChurn;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
//! let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();
//! let defense = InducedChurn::new(0.1)?;
//! let config = DuelConfig::new(8, 1.0, 600);
//! let outcome = run_duel(
//!     &params,
//!     &InitialCondition::Delta,
//!     &strategy,
//!     &defense,
//!     &config,
//!     2011,
//! )?;
//! assert!(outcome.agrees, "{outcome:?}");
//! assert!(outcome.analytic_polluted < outcome.baseline_polluted);
//! # Ok(())
//! # }
//! ```

use pollux_adversary::Strategy;
use pollux_defense::{Defense, DefenseOutcome};
use pollux_markov::MarkovError;
use pollux_prob::wilson_interval;

use crate::des_overlay::{run_des_overlay_duel, DesOverlayConfig};
use crate::{ClusterAnalysis, ClusterChain, InitialCondition, ModelParams};

/// Configuration of the measured (DES) half of a duel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuelConfig {
    /// `2^cluster_bits` clusters are simulated.
    pub cluster_bits: u32,
    /// Per-cluster churn rate.
    pub lambda: f64,
    /// Event budget per cluster (the run processes
    /// `max_events_per_cluster · 2^cluster_bits` events).
    pub max_events_per_cluster: u64,
    /// Wilson z-quantile of the agreement interval.
    pub sigmas: f64,
    /// Worker shards of the DES half (see
    /// [`DesOverlayConfig::shards`]); byte-identical output at any value.
    pub shards: usize,
}

impl DuelConfig {
    /// A duel configuration with the default agreement quantile
    /// (`sigmas = 4`) and a single DES shard.
    pub fn new(cluster_bits: u32, lambda: f64, max_events_per_cluster: u64) -> Self {
        DuelConfig {
            cluster_bits,
            lambda,
            max_events_per_cluster,
            sigmas: 4.0,
            shards: 1,
        }
    }

    /// Overrides the agreement quantile.
    pub fn with_sigmas(mut self, sigmas: f64) -> Self {
        self.sigmas = sigmas;
        self
    }
}

/// The renewal-adjusted Wilson interval of a long-run fraction estimated
/// from `polluted_events / total_events` over `cycles` completed renewal
/// cycles.
///
/// Events within one cycle are dependent (a polluted event is typically
/// followed by more of them), so the i.i.d. sample count of the estimator
/// is the number of cycles, not the number of events: the interval is the
/// Wilson score interval at `cycles` trials with the fraction's success
/// count scaled accordingly. Returns `(0, 1)` when nothing was observed.
pub fn renewal_wilson(polluted_events: u64, total_events: u64, cycles: u64, z: f64) -> (f64, f64) {
    if total_events == 0 || cycles == 0 {
        return (0.0, 1.0);
    }
    let p_hat = polluted_events as f64 / total_events as f64;
    let successes = ((p_hat * cycles as f64).round() as u64).min(cycles);
    wilson_interval(successes, cycles, z)
}

/// Runs one duel: analytical and measured steady-state pollution of the
/// defended overlay, with the undefended ([`pollux_defense::NullDefense`])
/// analytical value as the baseline.
///
/// Deterministic in every argument (the DES half is seeded).
///
/// # Errors
///
/// Propagates analysis construction and linear-algebra failures.
pub fn run_duel<S: Strategy + Sync, D: Defense + Sync + ?Sized>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DuelConfig,
    seed: u64,
) -> Result<DefenseOutcome, MarkovError> {
    let baseline = ClusterAnalysis::new(params, initial.clone())?;
    let (_, baseline_polluted) = baseline.steady_state_fractions()?;
    run_duel_with_baseline(
        params,
        initial,
        strategy,
        defense,
        config,
        seed,
        baseline_polluted,
    )
}

/// As [`run_duel`] with a precomputed baseline (callers sweeping several
/// defenses over one cell compute the undefended analysis once).
///
/// # Errors
///
/// As [`run_duel`].
pub fn run_duel_with_baseline<S: Strategy + Sync, D: Defense + Sync + ?Sized>(
    params: &ModelParams,
    initial: &InitialCondition,
    strategy: &S,
    defense: &D,
    config: &DuelConfig,
    seed: u64,
    baseline_polluted: f64,
) -> Result<DefenseOutcome, MarkovError> {
    // Analytical half: defense-modified chain through the (sparse-first)
    // pipeline.
    let chain = ClusterChain::build_with_defense(params, defense);
    let analysis = ClusterAnalysis::from_chain(chain, initial.clone())?;
    let analytic_safe_events = analysis.expected_safe_events()?;
    let analytic_polluted_events = analysis.expected_polluted_events()?;
    let (analytic_safe, analytic_polluted) = analysis.steady_state_fractions()?;

    // Measured half: regeneration-mode whole-overlay DES.
    // Half of every cluster's budget is warm-up: the event-class process
    // regenerates at absorptions but mixes slowly on sticky parameter
    // corners, and the fresh-δ transient is safe-heavy — an unwarmed
    // share under-reports pollution by O(1/budget), which a z = 5
    // interval over 10⁵ cycles is narrow enough to expose.
    let des_config = DesOverlayConfig::new(
        config.cluster_bits,
        config.lambda,
        config.max_events_per_cluster << config.cluster_bits,
    )
    .with_regeneration()
    .with_warmup_events(config.max_events_per_cluster / 2)
    .with_shards(config.shards);
    let report = run_des_overlay_duel(params, initial, strategy, defense, &des_config, seed);
    let (_, des_polluted) = report.steady_state_fractions();
    let (des_lo, des_hi) = renewal_wilson(
        report.polluted_event_total,
        report.events - report.warmup_events,
        report.measured_cycles,
        config.sigmas,
    );

    Ok(DefenseOutcome {
        defense: defense.name().into(),
        analytic_safe_events,
        analytic_polluted_events,
        analytic_safe,
        analytic_polluted,
        des_polluted,
        des_lo,
        des_hi,
        baseline_polluted,
        events: report.events,
        cycles: report.absorbed,
        agrees: analytic_polluted >= des_lo && analytic_polluted <= des_hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_adversary::TargetedStrategy;
    use pollux_defense::{IncarnationRefresh, NullDefense};

    fn setup() -> (ModelParams, TargetedStrategy) {
        let params = ModelParams::paper_defaults().with_mu(0.25).with_d(0.9);
        let strategy = TargetedStrategy::new(params.k(), params.nu()).unwrap();
        (params, strategy)
    }

    #[test]
    fn null_duel_matches_its_own_baseline_and_the_des() {
        let (params, strategy) = setup();
        let config = DuelConfig::new(8, 1.0, 800);
        let outcome = run_duel(
            &params,
            &InitialCondition::Delta,
            &strategy,
            &NullDefense::new(),
            &config,
            7,
        )
        .unwrap();
        assert_eq!(outcome.defense, "none");
        assert_eq!(outcome.analytic_polluted, outcome.baseline_polluted);
        assert_eq!(outcome.reduction(), 0.0);
        assert!(outcome.agrees, "{outcome:?}");
        assert!(outcome.cycles > 1000);
    }

    #[test]
    fn refresh_duel_reduces_pollution_and_agrees() {
        let (params, strategy) = setup();
        let config = DuelConfig::new(8, 1.0, 800);
        let outcome = run_duel(
            &params,
            &InitialCondition::Delta,
            &strategy,
            &IncarnationRefresh::new(5.0, 0.8).unwrap(),
            &config,
            11,
        )
        .unwrap();
        assert!(outcome.agrees, "{outcome:?}");
        assert!(outcome.reduction() > 0.3, "{outcome:?}");
        assert!(outcome.measurably_improves(), "{outcome:?}");
    }

    #[test]
    fn duel_is_deterministic_per_seed() {
        let (params, strategy) = setup();
        let config = DuelConfig::new(6, 1.0, 400);
        let defense = IncarnationRefresh::new(10.0, 0.5).unwrap();
        let a = run_duel(
            &params,
            &InitialCondition::Delta,
            &strategy,
            &defense,
            &config,
            3,
        )
        .unwrap();
        let b = run_duel(
            &params,
            &InitialCondition::Delta,
            &strategy,
            &defense,
            &config,
            3,
        )
        .unwrap();
        assert_eq!(a, b);
        let c = run_duel(
            &params,
            &InitialCondition::Delta,
            &strategy,
            &defense,
            &config,
            4,
        )
        .unwrap();
        assert_ne!(a.des_polluted, c.des_polluted);
    }

    #[test]
    fn renewal_wilson_degenerate_and_width() {
        assert_eq!(renewal_wilson(0, 0, 0, 4.0), (0.0, 1.0));
        assert_eq!(renewal_wilson(10, 100, 0, 4.0), (0.0, 1.0));
        let (lo, hi) = renewal_wilson(500, 10_000, 700, 4.0);
        assert!(lo < 0.05 && hi > 0.05);
        // More cycles tighten the interval.
        let (lo2, hi2) = renewal_wilson(5_000, 100_000, 7_000, 4.0);
        assert!(hi2 - lo2 < hi - lo);
    }
}
