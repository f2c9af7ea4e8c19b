//! Deterministic ODE integration for the fluid system.
//!
//! [`bs32_adaptive`] is the Bogacki–Shampine 3(2) embedded pair with
//! FSAL reuse and a deterministic PI-free step controller,
//! allocation-frugal and bit-reproducible. It suits trajectories with a
//! fast transient followed by a long slow tail (e.g. settling into a
//! near-degenerate equilibrium).
//!
//! The integrator is generic over the right-hand side so the unit tests
//! can drive it with scalar ODEs of known solution.

use crate::error::MeanFieldError;
use crate::fluid::FluidModel;

/// Result of one integration run.
#[derive(Debug, Clone)]
pub struct OdeRun {
    /// Final state at `t_end`.
    pub y: Vec<f64>,
    /// Accepted steps.
    pub steps: u64,
    /// Rejected (re-tried) steps.
    pub rejected: u64,
    /// Right-hand-side evaluations.
    pub rhs_evals: u64,
}

/// Tolerances and budget for [`bs32_adaptive`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOptions {
    /// Relative tolerance per component.
    pub rel_tol: f64,
    /// Absolute tolerance per component.
    pub abs_tol: f64,
    /// First step attempt (clipped to the interval).
    pub initial_dt: f64,
    /// Hard cap on attempted steps before giving up.
    pub max_steps: u64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            rel_tol: 1e-8,
            abs_tol: 1e-10,
            initial_dt: 1e-2,
            max_steps: 1_000_000,
        }
    }
}

/// Bogacki–Shampine 3(2) adaptive integration from `0` to `t_end`.
///
/// Third-order propagation with an embedded second-order error
/// estimate; the step controller is the standard
/// `h ← h · clamp(0.9·err^(−1/3), 0.2, 5)` with the final step clipped
/// to land exactly on `t_end`. Deterministic: no randomness, no
/// wall-clock input.
///
/// # Errors
///
/// * [`MeanFieldError::InvalidConfig`] for non-positive tolerances,
///   horizon, or initial step.
/// * [`MeanFieldError::NonConvergence`] when `max_steps` attempts do
///   not reach `t_end`.
pub fn bs32_adaptive<F>(
    mut rhs: F,
    y0: &[f64],
    t_end: f64,
    opts: &AdaptiveOptions,
) -> Result<OdeRun, MeanFieldError>
where
    F: FnMut(&[f64], &mut [f64]),
{
    if !(t_end.is_finite() && t_end > 0.0) {
        return Err(MeanFieldError::InvalidConfig(format!(
            "adaptive horizon must be finite and positive, got {t_end}"
        )));
    }
    if !(opts.rel_tol > 0.0 && opts.abs_tol > 0.0 && opts.initial_dt > 0.0) {
        return Err(MeanFieldError::InvalidConfig(
            "adaptive tolerances and initial step must be positive".into(),
        ));
    }

    let n = y0.len();
    let mut y = y0.to_vec();
    let mut t = 0.0;
    let mut h = opts.initial_dt.min(t_end);
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut stage = vec![0.0; n];
    let mut y_next = vec![0.0; n];

    let mut steps = 0u64;
    let mut rejected = 0u64;
    let mut rhs_evals = 1u64;
    rhs(&y, &mut k1); // FSAL seed

    let mut attempts = 0u64;
    while t < t_end {
        if attempts >= opts.max_steps {
            return Err(MeanFieldError::NonConvergence {
                what: "adaptive integration",
                iterations: attempts,
                residual: t_end - t,
            });
        }
        attempts += 1;
        let last = t + h >= t_end;
        let step = if last { t_end - t } else { h };

        for i in 0..n {
            stage[i] = y[i] + 0.5 * step * k1[i];
        }
        rhs(&stage, &mut k2);
        for i in 0..n {
            stage[i] = y[i] + 0.75 * step * k2[i];
        }
        rhs(&stage, &mut k3);
        for i in 0..n {
            y_next[i] = y[i] + step * (2.0 / 9.0 * k1[i] + 1.0 / 3.0 * k2[i] + 4.0 / 9.0 * k3[i]);
        }
        rhs(&y_next, &mut k4);
        rhs_evals += 3;

        // Embedded second-order solution; scaled max-norm error.
        let mut err: f64 = 0.0;
        for i in 0..n {
            let z = y[i]
                + step * (7.0 / 24.0 * k1[i] + 0.25 * k2[i] + 1.0 / 3.0 * k3[i] + 0.125 * k4[i]);
            let scale = opts.abs_tol + opts.rel_tol * y[i].abs().max(y_next[i].abs());
            err = err.max((y_next[i] - z).abs() / scale);
        }

        if err <= 1.0 {
            t = if last { t_end } else { t + step };
            std::mem::swap(&mut y, &mut y_next);
            std::mem::swap(&mut k1, &mut k4); // FSAL: k4 is f(y_next)
            steps += 1;
        } else {
            rejected += 1;
        }
        let factor = if err > 0.0 {
            (0.9 * err.powf(-1.0 / 3.0)).clamp(0.2, 5.0)
        } else {
            5.0
        };
        h = (step * factor).min(t_end);
    }

    Ok(OdeRun {
        y,
        steps,
        rejected,
        rhs_evals,
    })
}

impl FluidModel {
    /// Integrates the fluid ODE adaptively (Bogacki–Shampine 3(2)).
    ///
    /// # Errors
    ///
    /// As [`bs32_adaptive`].
    pub fn integrate_adaptive(
        &self,
        pi0: &[f64],
        t_end: f64,
        opts: &AdaptiveOptions,
    ) -> Result<OdeRun, MeanFieldError> {
        bs32_adaptive(|y, out| self.rhs_into(y, out), pi0, t_end, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux::{InitialCondition, ModelParams};

    /// dy/dt = -y, y(0) = 1 → y(t) = e^{-t}.
    fn decay(y: &[f64], out: &mut [f64]) {
        out[0] = -y[0];
    }

    #[test]
    fn adaptive_matches_the_analytic_solution_and_counts_work() {
        let t_end: f64 = 3.0;
        let run = bs32_adaptive(decay, &[1.0], t_end, &AdaptiveOptions::default()).unwrap();
        assert!((run.y[0] - (-t_end).exp()).abs() < 1e-6);
        assert!(run.steps > 0);
        assert_eq!(run.rhs_evals, 1 + 3 * (run.steps + run.rejected));
    }

    #[test]
    fn adaptive_rejects_bad_configuration() {
        let bad = AdaptiveOptions {
            rel_tol: -1.0,
            ..AdaptiveOptions::default()
        };
        assert!(bs32_adaptive(decay, &[1.0], 1.0, &bad).is_err());
        assert!(bs32_adaptive(decay, &[1.0], f64::NAN, &AdaptiveOptions::default()).is_err());
    }

    #[test]
    fn adaptive_budget_exhaustion_reports_nonconvergence() {
        let opts = AdaptiveOptions {
            max_steps: 3,
            initial_dt: 1e-9,
            ..AdaptiveOptions::default()
        };
        let err = bs32_adaptive(decay, &[1.0], 1.0, &opts).unwrap_err();
        assert!(matches!(
            err,
            MeanFieldError::NonConvergence {
                what: "adaptive integration",
                ..
            }
        ));
    }

    #[test]
    fn fluid_runs_are_byte_deterministic_and_mass_conserving() {
        let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
        let model = crate::FluidModel::build(&params, &InitialCondition::Delta).unwrap();
        let pi0 = model.alpha().to_vec();
        let opts = AdaptiveOptions::default();
        let a = model.integrate_adaptive(&pi0, 50.0, &opts).unwrap();
        let b = model.integrate_adaptive(&pi0, 50.0, &opts).unwrap();
        // Byte-level determinism, not approximate agreement.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.y), bits(&b.y));
        let mass: f64 = a.y.iter().sum();
        assert!((mass - 1.0).abs() < 1e-10, "mass drifted to {mass}");
        // Long horizon converges to the renewal equilibrium.
        let eq = model.open_equilibrium().unwrap();
        let run = model.integrate_adaptive(&pi0, 400.0, &opts).unwrap();
        let dev = run
            .y
            .iter()
            .zip(&eq.pi)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(dev < 1e-6, "trajectory end vs equilibrium: {dev}");
    }
}
