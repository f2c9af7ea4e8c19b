//! Jacobian-eigenvalue stability classification of fluid equilibria.
//!
//! The dynamics Jacobian at a fixed point `π*` is
//! `J = λ·(P_regen(μ_eff)ᵀ − I + u·wᵀ)` (see the equilibrium module
//! for the rank-one coupling term). Mass conservation forces one
//! structural eigenvalue at zero — columns of `J` sum to zero, with or
//! without coupling, because both `P_regen` rows and the `C₁` rows sum
//! to their respective invariants. Classification therefore drops the
//! eigenvalue nearest zero and reads the spectral abscissa off the
//! rest: negative means the equilibrium attracts on the simplex,
//! positive means the adversary's feedback has destabilized it.
//!
//! Two paths, matching two cost regimes:
//!
//! * [`FluidModel::classify_equilibrium`] — full dense spectrum (the
//!   in-crate QR kernel), exact abscissa, used by sweep cells and the
//!   bifurcation scans.
//! * [`FluidModel::relaxation_gap`] — a capped, deflated power
//!   iteration on the lazy embedded chain `(P+I)/2`, giving a
//!   conservative lower bound on the decay rate in bounded
//!   deterministic time. This is what keeps the planet-scale what-if
//!   path under a millisecond.

use crate::eig::{eigenvalues, Complex};
use crate::error::MeanFieldError;
use crate::fluid::{Equilibrium, FluidModel};
use pollux_linalg::Matrix;

/// Verdict of the spectral test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Spectral abscissa clearly negative: perturbations decay.
    Stable,
    /// Abscissa within tolerance of zero: at (or numerically at) a
    /// bifurcation.
    Marginal,
    /// Abscissa clearly positive: the equilibrium repels.
    Unstable,
}

/// Result of [`FluidModel::classify_equilibrium`].
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// The verdict.
    pub classification: Stability,
    /// Spectral abscissa (max real part over non-structural modes), in
    /// the model's rate units; `−abscissa` is the asymptotic decay
    /// rate when stable.
    pub abscissa: f64,
    /// Modulus of the dropped structural eigenvalue — a diagnostic
    /// that should sit at rounding level.
    pub structural_mode: f64,
    /// The full spectrum (rate units), structural mode included.
    pub eigenvalues: Vec<Complex>,
}

/// Relative tolerance (vs the event rate) for calling an abscissa zero.
const MARGINAL_REL_TOL: f64 = 1e-7;

impl FluidModel {
    /// Classifies an equilibrium by the spectrum of the dynamics
    /// Jacobian (dense QR path; exact up to the eigenvalue kernel's
    /// accuracy).
    ///
    /// # Errors
    ///
    /// Propagates [`MeanFieldError::NonConvergence`] from the QR
    /// kernel (not observed on this family of matrices in practice).
    pub fn classify_equilibrium(
        &self,
        eq: &Equilibrium,
    ) -> Result<StabilityReport, MeanFieldError> {
        let mut jac = self.coupled_embedded_jacobian(&eq.pi);
        scale_in_place(&mut jac, self.rate());
        let eigs = eigenvalues(&jac)?;

        // Drop the structural zero mode (mass conservation).
        let structural_idx = eigs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.abs().partial_cmp(&b.abs()).expect("finite eigenvalues"))
            .map(|(i, _)| i)
            .expect("non-empty spectrum");
        let structural_mode = eigs[structural_idx].abs();
        let abscissa = eigs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != structural_idx)
            .map(|(_, e)| e.re)
            .fold(f64::NEG_INFINITY, f64::max);

        let tol = MARGINAL_REL_TOL * self.rate();
        let classification = if abscissa < -tol {
            Stability::Stable
        } else if abscissa > tol {
            Stability::Unstable
        } else {
            Stability::Marginal
        };
        Ok(StabilityReport {
            classification,
            abscissa,
            structural_mode,
            eigenvalues: eigs,
        })
    }

    /// A conservative lower bound on the relaxation (decay) rate of
    /// the linearized dynamics at `eq`, from `iterations` deflated
    /// power-iteration steps on the lazy embedded chain `(P + I)/2`.
    ///
    /// The lazy chain's spectrum is `(1 + λ)/2`, so its subdominant
    /// growth factor `θ` bounds every non-structural eigenvalue of the
    /// original chain by `Re λ ≤ 2θ − 1`, giving the dynamics a decay
    /// rate of at least `2·rate·(1 − θ)`. Work is fixed (`iterations`
    /// sparse applies), so the what-if path stays on budget regardless
    /// of conditioning; the price is an estimate, not an exact
    /// abscissa.
    ///
    /// The per-step growth factors converge to θ geometrically in the
    /// subdominant spectral ratio, which sits near 1 for these chains;
    /// a plain tail average would need hundreds of applies to shed the
    /// transient bias. Instead the estimate applies Aitken Δ² to
    /// block-averaged log factors (blocks of 8 smooth complex-pair
    /// oscillation) and keeps the extrapolation only when it moves the
    /// raw tail estimate toward 1 while staying a valid growth factor —
    /// the direction monotone burn-off guarantees. Otherwise the raw
    /// second-half geometric mean is used unchanged.
    #[must_use]
    pub fn relaxation_gap(&self, eq: &Equilibrium, iterations: u32) -> f64 {
        let n = self.dim();
        let mu = eq.mu_eff;
        // Deterministic perturbation with zero total mass: regeneration
        // profile minus the equilibrium.
        let mut z: Vec<f64> = self
            .alpha()
            .iter()
            .zip(&eq.pi)
            .map(|(a, p)| a - p)
            .collect();
        let norm0 = sup(&z);
        if norm0 < 1e-280 {
            // α is (numerically) the equilibrium; perturb one
            // coordinate pair instead.
            z[0] = 1.0;
            z[n - 1] = -1.0;
        }
        normalize(&mut z);

        let mut out = vec![0.0; n];
        // z is re-normalized every step, so each post-apply norm is a
        // per-step growth factor.
        let mut log_norms = Vec::with_capacity(iterations as usize);
        for _ in 0..iterations {
            // z ← z·(P+I)/2, deflating the conserved-mass direction.
            self.apply_embedded_at_mu(&z, mu, &mut out);
            for (o, &zi) in out.iter_mut().zip(&z) {
                *o = 0.5 * (*o + zi);
            }
            let drift: f64 = out.iter().sum();
            if drift != 0.0 {
                for (o, &p) in out.iter_mut().zip(&eq.pi) {
                    *o -= drift * p;
                }
            }
            std::mem::swap(&mut z, &mut out);
            let norm = sup(&z);
            if norm < 1e-280 {
                // Perturbation fully decayed: the gap is at least the
                // rate itself.
                return self.rate();
            }
            normalize(&mut z);
            log_norms.push(norm.ln());
        }

        // Raw estimate: geometric mean over the second half.
        let half = log_norms.len() / 2;
        let tail = &log_norms[half..];
        if tail.is_empty() {
            return 0.0;
        }
        let raw = tail.iter().sum::<f64>() / tail.len() as f64;

        // Aitken Δ² on the last three blocks of 8 log factors. Burn-off
        // pushes block means up toward ln θ, so a trustworthy
        // extrapolation lands in [raw, 0]; anything else (oscillation,
        // a flat denominator) falls back to the raw mean.
        const BLOCK: usize = 8;
        let mut log_theta = raw;
        if log_norms.len() >= 3 * BLOCK {
            let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
            let m = log_norms.len();
            let a0 = mean(&log_norms[m - 3 * BLOCK..m - 2 * BLOCK]);
            let a1 = mean(&log_norms[m - 2 * BLOCK..m - BLOCK]);
            let a2 = mean(&log_norms[m - BLOCK..]);
            let denom = a2 - 2.0 * a1 + a0;
            if denom.abs() > 1e-12 {
                let extrapolated = a2 - (a2 - a1).powi(2) / denom;
                if extrapolated.is_finite() && extrapolated >= raw && extrapolated <= 0.0 {
                    log_theta = extrapolated;
                }
            }
        }
        let theta = log_theta.exp().clamp(0.0, 1.0);
        2.0 * self.rate() * (1.0 - theta)
    }
}

fn scale_in_place(m: &mut Matrix, s: f64) {
    let n = m.rows();
    for i in 0..n {
        for v in m.row_mut(i) {
            *v *= s;
        }
    }
}

fn sup(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

fn normalize(v: &mut [f64]) {
    let s = sup(v);
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::Coupling;
    use pollux::{InitialCondition, ModelParams};

    /// Small space (Δ=3 → 50 states) keeps the dense QR fast in debug.
    fn small_model() -> FluidModel {
        let params = ModelParams::new(4, 3, 1).unwrap().with_mu(0.2).with_d(0.9);
        FluidModel::build(&params, &InitialCondition::Delta).unwrap()
    }

    #[test]
    fn open_equilibrium_is_stable_with_a_structural_zero_mode() {
        let model = small_model();
        let eq = model.open_equilibrium().unwrap();
        let report = model.classify_equilibrium(&eq).unwrap();
        assert_eq!(report.classification, Stability::Stable);
        assert!(report.abscissa < 0.0);
        assert!(
            report.structural_mode < 1e-8,
            "structural mode {}",
            report.structural_mode
        );
        assert_eq!(report.eigenvalues.len(), model.dim());
    }

    #[test]
    fn coupled_equilibria_classify_without_error() {
        let model = small_model()
            .with_coupling(Coupling::RoutingBias { amplification: 2.0 })
            .unwrap();
        for eq in model.equilibria().unwrap() {
            let report = model.classify_equilibrium(&eq).unwrap();
            assert!(report.structural_mode < 1e-8);
            assert!(report.abscissa.is_finite());
        }
    }

    #[test]
    fn relaxation_gap_is_a_lower_bound_on_the_exact_decay_rate() {
        let model = small_model();
        let eq = model.open_equilibrium().unwrap();
        let report = model.classify_equilibrium(&eq).unwrap();
        let exact_decay = -report.abscissa;
        let gap = model.relaxation_gap(&eq, 256);
        assert!(gap > 0.0, "gap {gap}");
        // Conservative bound with a small slack for the finite-sample
        // θ estimate; also sanity-check it lands in the right decade.
        assert!(
            gap <= exact_decay * 1.05 + 1e-9,
            "estimate {gap} exceeds exact decay {exact_decay}"
        );
        assert!(
            gap >= 0.05 * exact_decay,
            "estimate {gap} far below exact decay {exact_decay}"
        );
    }

    #[test]
    fn relaxation_gap_scales_linearly_with_the_event_rate() {
        let model = small_model();
        let eq = model.open_equilibrium().unwrap();
        let g1 = model.relaxation_gap(&eq, 128);
        let model2 = small_model().with_rate(3.0).unwrap();
        let eq2 = model2.open_equilibrium().unwrap();
        let g3 = model2.relaxation_gap(&eq2, 128);
        assert!((g3 - 3.0 * g1).abs() < 1e-9 * g3.max(1.0));
    }
}
