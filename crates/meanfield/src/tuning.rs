//! Control-theoretic defense tuning: minimal induced-churn rate.
//!
//! The `defense_frontier` question — "how much defensive churn is
//! enough to push the polluted fraction under a threshold?" — used to
//! be answered by evaluating the full exact-chain battery on a fixed
//! rate grid. The mean-field layer turns it into a one-dimensional
//! root-finding problem: the open-coupling fluid equilibrium prices a
//! candidate rate in one sparse solve, and bisection on the rate
//! brackets the frontier to any tolerance with ~log₂(range/tol)
//! evaluations. The returned rate is then verified once against the
//! exact chain, so the speedup costs no trust: the fluid stationary
//! fractions coincide with `ClusterAnalysis::steady_state_fractions`
//! by the renewal identity, making the verification a consistency
//! check rather than an approximation bound.
//!
//! Monotonicity (more induced churn → less pollution) is the paper's
//! Rule-2 mechanism and holds across the explored grids; the outcome
//! records the bracket endpoints so a non-monotone surprise would show
//! up as a failed verification, not a silent wrong answer.

use crate::error::MeanFieldError;
use crate::fluid::FluidModel;
use pollux::{ClusterAnalysis, ClusterChain, InitialCondition, ModelParams};
use pollux_defense::InducedChurn;

/// Slack allowed when the exact chain re-checks the fluid answer; the
/// two paths agree to solver tolerance, so this is generous.
const VERIFY_TOL: f64 = 1e-7;
/// Hard cap on bisection steps (belt and braces; ~50 suffices for any
/// sane tolerance).
const MAX_BISECTIONS: u32 = 200;

/// Configuration of [`tune_induced_churn`].
#[derive(Debug, Clone, Copy)]
pub struct TuningConfig {
    /// Acceptable stationary polluted fraction.
    pub threshold: f64,
    /// Upper end of the searched rate range (must stay below 1, the
    /// domain bound of [`InducedChurn`]).
    pub max_rate: f64,
    /// Bracket width at which bisection stops.
    pub rate_tol: f64,
}

/// Result of [`tune_induced_churn`].
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Stationary polluted fraction with no defense at all.
    pub baseline_polluted: f64,
    /// The threshold that was tuned against.
    pub threshold: f64,
    /// `true` when some rate in `[0, max_rate]` meets the threshold.
    pub found: bool,
    /// The tuned rate: minimal-to-tolerance when `found`, otherwise
    /// `max_rate` (whose prediction still fails the threshold).
    pub rate: f64,
    /// Mean-field polluted fraction at `rate`.
    pub polluted_at_rate: f64,
    /// Fluid-equilibrium evaluations spent (baseline + bracket +
    /// bisection).
    pub evaluations: u64,
    /// Exact-chain polluted fraction at `rate` (the verification).
    pub verified_polluted: f64,
    /// `true` when the exact chain agrees with the fluid prediction at
    /// `rate` to `VERIFY_TOL` (10⁻⁷) *and* confirms the threshold
    /// verdict.
    pub verified_ok: bool,
}

/// Minimal induced-churn rate whose stationary polluted fraction meets
/// `cfg.threshold`, by mean-field-guided bisection, verified against
/// the exact chain at the returned rate.
///
/// # Errors
///
/// * [`MeanFieldError::InvalidConfig`] for a threshold outside (0, 1),
///   `max_rate` outside (0, 1), or a non-positive `rate_tol`.
/// * Propagated solver errors from the fluid or exact path.
pub fn tune_induced_churn(
    params: &ModelParams,
    initial: &InitialCondition,
    cfg: &TuningConfig,
) -> Result<TuningOutcome, MeanFieldError> {
    if !(cfg.threshold > 0.0 && cfg.threshold < 1.0) {
        return Err(MeanFieldError::InvalidConfig(format!(
            "threshold must lie in (0, 1), got {}",
            cfg.threshold
        )));
    }
    if !(cfg.max_rate > 0.0 && cfg.max_rate < 1.0) {
        return Err(MeanFieldError::InvalidConfig(format!(
            "max_rate must lie in (0, 1), got {}",
            cfg.max_rate
        )));
    }
    if !(cfg.rate_tol > 0.0 && cfg.rate_tol.is_finite()) {
        return Err(MeanFieldError::InvalidConfig(format!(
            "rate_tol must be positive, got {}",
            cfg.rate_tol
        )));
    }

    let mut evaluations = 0u64;
    let mut probe = |rate: f64| -> Result<f64, MeanFieldError> {
        let defense =
            InducedChurn::new(rate).map_err(|e| MeanFieldError::InvalidConfig(e.to_string()))?;
        let model = FluidModel::build_with_defense(params, &defense, initial)?;
        evaluations += 1;
        Ok(model.open_equilibrium()?.polluted_fraction)
    };

    let baseline_polluted = probe(0.0)?;
    let (found, rate, polluted_at_rate) = if baseline_polluted <= cfg.threshold {
        (true, 0.0, baseline_polluted)
    } else {
        let at_max = probe(cfg.max_rate)?;
        if at_max > cfg.threshold {
            (false, cfg.max_rate, at_max)
        } else {
            // Invariant: polluted(lo) > threshold ≥ polluted(hi).
            let mut lo = 0.0f64;
            let mut hi = cfg.max_rate;
            let mut at_hi = at_max;
            let mut steps = 0u32;
            while hi - lo > cfg.rate_tol && steps < MAX_BISECTIONS {
                steps += 1;
                let mid = 0.5 * (lo + hi);
                let at_mid = probe(mid)?;
                if at_mid <= cfg.threshold {
                    hi = mid;
                    at_hi = at_mid;
                } else {
                    lo = mid;
                }
            }
            (true, hi, at_hi)
        }
    };

    // One exact-chain evaluation at the answer.
    let defense =
        InducedChurn::new(rate).map_err(|e| MeanFieldError::InvalidConfig(e.to_string()))?;
    let chain = ClusterChain::build_with_defense(params, &defense);
    let analysis = ClusterAnalysis::from_chain(chain, initial.clone())?;
    let (_, verified_polluted) = analysis.steady_state_fractions()?;
    let agrees = (verified_polluted - polluted_at_rate).abs() <= VERIFY_TOL;
    let verdict_holds = if found {
        verified_polluted <= cfg.threshold + VERIFY_TOL
    } else {
        verified_polluted > cfg.threshold - VERIFY_TOL
    };

    Ok(TuningOutcome {
        baseline_polluted,
        threshold: cfg.threshold,
        found,
        rate,
        polluted_at_rate,
        evaluations,
        verified_polluted,
        verified_ok: agrees && verdict_holds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::paper_defaults().with_mu(0.25).with_d(0.9)
    }

    #[test]
    fn bisection_finds_a_verified_frontier_rate() {
        let cfg = TuningConfig {
            threshold: 0.01,
            max_rate: 0.5,
            rate_tol: 0.005,
        };
        let out = tune_induced_churn(&params(), &InitialCondition::Delta, &cfg).unwrap();
        assert!(out.found, "no frontier inside [0, 0.5]: {out:?}");
        assert!(out.baseline_polluted > cfg.threshold);
        assert!(out.polluted_at_rate <= cfg.threshold);
        assert!(out.rate > 0.0 && out.rate <= cfg.max_rate);
        assert!(out.verified_ok, "exact chain disagrees: {out:?}");
        // log2(0.5 / 0.005) ≈ 7 bisections + baseline + bracket.
        assert!(
            out.evaluations <= 12,
            "bisection spent {} evaluations",
            out.evaluations
        );
    }

    #[test]
    fn minimality_rate_is_tight_to_tolerance() {
        let cfg = TuningConfig {
            threshold: 0.01,
            max_rate: 0.5,
            rate_tol: 0.005,
        };
        let out = tune_induced_churn(&params(), &InitialCondition::Delta, &cfg).unwrap();
        // A rate one tolerance below the answer must fail the threshold
        // (this is what "minimal to tolerance" means).
        let below = (out.rate - cfg.rate_tol).max(0.0);
        if below > 0.0 {
            let defense = InducedChurn::new(below).unwrap();
            let model =
                FluidModel::build_with_defense(&params(), &defense, &InitialCondition::Delta)
                    .unwrap();
            let polluted = model.open_equilibrium().unwrap().polluted_fraction;
            assert!(
                polluted > cfg.threshold,
                "rate {below} already meets the threshold ({polluted})"
            );
        }
    }

    #[test]
    fn trivial_and_impossible_thresholds_short_circuit() {
        // A threshold the undefended system already meets.
        let easy = TuningConfig {
            threshold: 0.9,
            max_rate: 0.5,
            rate_tol: 0.01,
        };
        let out = tune_induced_churn(&params(), &InitialCondition::Delta, &easy).unwrap();
        assert!(out.found);
        assert_eq!(out.rate, 0.0);
        assert_eq!(out.evaluations, 1);
        assert!(out.verified_ok);

        // A threshold nothing in range achieves.
        let hard = TuningConfig {
            threshold: 1e-12,
            max_rate: 0.05,
            rate_tol: 0.01,
        };
        let out = tune_induced_churn(&params(), &InitialCondition::Delta, &hard).unwrap();
        assert!(!out.found);
        assert_eq!(out.rate, 0.05);
        assert!(out.verified_ok);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let bad = |threshold, max_rate, rate_tol| TuningConfig {
            threshold,
            max_rate,
            rate_tol,
        };
        for cfg in [
            bad(0.0, 0.5, 0.01),
            bad(1.5, 0.5, 0.01),
            bad(0.01, 1.5, 0.01),
            bad(0.01, 0.0, 0.01),
            bad(0.01, 0.5, 0.0),
        ] {
            assert!(tune_induced_churn(&params(), &InitialCondition::Delta, &cfg).is_err());
        }
    }
}
