//! Damped-Newton fixed-point solver for the coupled (nonlinear) fluid
//! system.
//!
//! The open system needs no iteration — its unique equilibrium falls
//! out of one renewal-identity solve
//! ([`FluidModel::open_equilibrium`]). Under
//! [`crate::Coupling::RoutingBias`] the
//! effective μ depends on the state, so fixed points solve the
//! nonlinear system
//!
//! ```text
//!     F(π) = π · P_regen(μ_eff(π)) − π = 0,    Σπ = 1.
//! ```
//!
//! Because `P(μ) = C₀ + μ·C₁` is affine and `μ_eff` is piecewise
//! affine in the polluted mass, the Jacobian has the closed form
//! `J = P(μ_eff)ᵀ − I + u·wᵀ` with `u_j = Σ_i π_i·C₁[i][j]` and
//! `w = s·1_polluted` (`s = μ·a` off the clamp, `0` on it) — a rank-one
//! correction to the frozen-μ linearization. One balance equation is
//! redundant (the components of `F` sum to zero identically), so the
//! last row is replaced by the mass constraint, making the system
//! square and generically nonsingular.
//!
//! Multiple equilibria are hunted by multi-starting Newton from the
//! frozen-μ equilibria at the two ends of the feedback range (base μ
//! and fully amplified μ) and deduplicating the converged points — the
//! standard continuation trick for detecting the bistable window.

use crate::error::MeanFieldError;
use crate::fluid::{residual_at_mu, Coupling, Equilibrium, EquilibriumMethod, FluidModel};
use pollux_linalg::{Lu, Matrix};

/// Newton convergence target on `‖F‖∞` (embedded-chain units).
const NEWTON_TOL: f64 = 1e-12;
/// Iteration budget per start.
const NEWTON_MAX_ITERS: u64 = 60;
/// Damping halvings per iteration before declaring the step failed.
const NEWTON_MAX_HALVINGS: u32 = 9;
/// Two equilibria closer than this (sup-norm) are the same point.
const DEDUP_TOL: f64 = 1e-7;

impl FluidModel {
    /// All equilibria of the fluid system under the active coupling.
    ///
    /// For [`Coupling::Open`] this is the single renewal-identity
    /// equilibrium. For [`Coupling::RoutingBias`] a damped-Newton
    /// solver is multi-started from the frozen-μ equilibria at base
    /// and fully-amplified μ; distinct converged points are returned
    /// sorted by polluted fraction (safe branch first). Two entries
    /// signal bistability: which one the finite system settles into
    /// depends on where it starts.
    ///
    /// # Errors
    ///
    /// * Propagates linear-solver failures.
    /// * [`MeanFieldError::NonConvergence`] when no start converges.
    pub fn equilibria(&self) -> Result<Vec<Equilibrium>, MeanFieldError> {
        let amplification = match self.coupling() {
            Coupling::Open => return Ok(vec![self.open_equilibrium()?]),
            Coupling::RoutingBias { amplification } => amplification,
        };
        if amplification == 0.0 {
            // Zero gain: the coupled system is the open one.
            let mut eq = self.open_equilibrium()?;
            eq.method = EquilibriumMethod::Newton;
            return Ok(vec![eq]);
        }

        let mu_lo = self.mu_base();
        let mu_hi = (self.mu_base() * (1.0 + amplification)).clamp(0.0, crate::MU_EFF_CAP);
        let mut found: Vec<Equilibrium> = Vec::new();
        let mut worst = (0u64, 0.0f64);
        for mu_start in [mu_lo, mu_hi] {
            let start = self.equilibrium_at_mu(mu_start)?;
            match self.newton_refine(start.pi)? {
                Some(eq) => {
                    if !found
                        .iter()
                        .any(|e| sup_distance(&e.pi, &eq.pi) < DEDUP_TOL)
                    {
                        found.push(eq);
                    }
                }
                None => worst = (NEWTON_MAX_ITERS, f64::NAN),
            }
        }
        if found.is_empty() {
            return Err(MeanFieldError::NonConvergence {
                what: "damped Newton",
                iterations: worst.0,
                residual: worst.1,
            });
        }
        found.sort_by(|a, b| {
            a.polluted_fraction
                .partial_cmp(&b.polluted_fraction)
                .expect("pollution fractions are finite")
        });
        Ok(found)
    }

    /// One damped-Newton run from `pi`. Returns `None` when the run
    /// stalls (line search fails or the budget runs out) — the caller
    /// treats that as "this start found nothing", not as an error.
    fn newton_refine(&self, mut pi: Vec<f64>) -> Result<Option<Equilibrium>, MeanFieldError> {
        let n = self.dim();
        let mut f = vec![0.0; n];
        let mut f_trial = vec![0.0; n];
        self.constrained_residual(&pi, &mut f);
        let mut fnorm = sup_norm(&f);
        let mut iterations = 0u64;

        while fnorm > NEWTON_TOL {
            if iterations >= NEWTON_MAX_ITERS {
                return Ok(None);
            }
            iterations += 1;

            let jac = self.constrained_jacobian(&pi);
            let lu = Lu::decompose(&jac)?;
            let neg_f: Vec<f64> = f.iter().map(|v| -v).collect();
            let delta = lu.solve(&neg_f)?;

            // Armijo-style damping: accept the first step length that
            // shrinks ‖F‖∞ by a λ-proportional margin.
            let mut lambda = 1.0;
            let mut accepted = false;
            for _ in 0..NEWTON_MAX_HALVINGS {
                let trial: Vec<f64> = pi.iter().zip(&delta).map(|(p, d)| p + lambda * d).collect();
                self.constrained_residual(&trial, &mut f_trial);
                let trial_norm = sup_norm(&f_trial);
                if trial_norm <= NEWTON_TOL || trial_norm < (1.0 - 0.25 * lambda) * fnorm {
                    pi = trial;
                    std::mem::swap(&mut f, &mut f_trial);
                    fnorm = trial_norm;
                    accepted = true;
                    break;
                }
                lambda *= 0.5;
            }
            if !accepted {
                return Ok(None);
            }
        }

        // Project rounding dust off the simplex; reject genuine
        // negativity (a converged point outside the simplex is not a
        // distributional equilibrium).
        if pi.iter().any(|&p| p < -1e-9) {
            return Ok(None);
        }
        for p in &mut pi {
            *p = p.max(0.0);
        }
        let total: f64 = pi.iter().sum();
        for p in &mut pi {
            *p /= total;
        }

        let mu_eff = self.mu_eff(&pi);
        let (safe_fraction, polluted_fraction) = self.fractions(&pi);
        let residual = residual_at_mu(self, &pi, mu_eff);
        Ok(Some(Equilibrium {
            pi,
            mu_eff,
            safe_fraction,
            polluted_fraction,
            residual,
            iterations,
            method: EquilibriumMethod::Newton,
        }))
    }

    /// `F(π)` with the last balance equation replaced by `Σπ − 1`.
    fn constrained_residual(&self, pi: &[f64], out: &mut [f64]) {
        let mu = self.mu_eff(pi);
        self.apply_embedded_at_mu(pi, mu, out);
        let n = out.len();
        for (o, &p) in out.iter_mut().zip(pi) {
            *o -= p;
        }
        out[n - 1] = pi.iter().sum::<f64>() - 1.0;
    }

    /// Analytic Jacobian of the constrained residual (see module docs).
    fn constrained_jacobian(&self, pi: &[f64]) -> Matrix {
        let n = self.dim();
        let mut jac = self.coupled_embedded_jacobian(pi);
        // Replace the redundant last balance row with the constraint.
        for slot in jac.row_mut(n - 1) {
            *slot = 1.0;
        }
        jac
    }

    /// Jacobian of the embedded map `π ↦ π·P_regen(μ_eff(π)) − π`
    /// (unconstrained, embedded-chain units). The stability layer
    /// scales this by the event rate to get the dynamics Jacobian.
    pub(crate) fn coupled_embedded_jacobian(&self, pi: &[f64]) -> Matrix {
        let mu = self.mu_eff(pi);
        let mut jac = self.frozen_mu_jacobian(mu);

        let n = self.dim();
        // Rank-one coupling correction u·wᵀ where the clamp is inactive.
        if let Coupling::RoutingBias { amplification } = self.coupling() {
            let raw = self.mu_base() * (1.0 + amplification * self.polluted_mass(pi));
            let slope = if raw > 0.0 && raw < crate::MU_EFF_CAP {
                self.mu_base() * amplification
            } else {
                0.0
            };
            if slope != 0.0 {
                let mut u = vec![0.0; n];
                for (i, &w) in pi.iter().enumerate() {
                    if self.is_absorbing_state(i) || w == 0.0 {
                        continue;
                    }
                    for e in self.row_range(i) {
                        let (j, _, c1) = self.entry(e);
                        u[j] += w * c1;
                    }
                }
                for (jrow, &uj) in u.iter().enumerate() {
                    if uj == 0.0 {
                        continue;
                    }
                    let row = jac.row_mut(jrow);
                    for (m, slot) in row.iter_mut().enumerate() {
                        if self.is_polluted_state(m) {
                            *slot += uj * slope;
                        }
                    }
                }
            }
        }
        jac
    }

    /// `P_regen(mu)ᵀ − I` as a dense matrix (regeneration redirect
    /// included): the Jacobian of the frozen-μ embedded map.
    pub(crate) fn frozen_mu_jacobian(&self, mu: f64) -> Matrix {
        let n = self.dim();
        let mut jac = Matrix::zeros(n, n);
        for m in 0..n {
            if self.is_absorbing_state(m) {
                // d(π·P)_j / dπ_m = α_j for absorbing m.
                for (jrow, &a) in self.alpha().iter().enumerate() {
                    if a != 0.0 {
                        jac[(jrow, m)] += a;
                    }
                }
            } else {
                for e in self.row_range(m) {
                    let (j, c0, c1) = self.entry(e);
                    jac[(j, m)] += c0 + mu * c1;
                }
            }
        }
        for d in 0..n {
            jac[(d, d)] -= 1.0;
        }
        jac
    }
}

fn sup_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

fn sup_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux::{InitialCondition, ModelParams};

    fn model(mu: f64, amplification: f64) -> FluidModel {
        let params = ModelParams::paper_defaults().with_mu(mu).with_d(0.9);
        FluidModel::build(&params, &InitialCondition::Delta)
            .unwrap()
            .with_coupling(Coupling::RoutingBias { amplification })
            .unwrap()
    }

    #[test]
    fn zero_gain_newton_reproduces_the_open_equilibrium() {
        let coupled = model(0.2, 0.0);
        let eqs = coupled.equilibria().unwrap();
        assert_eq!(eqs.len(), 1);
        let open = FluidModel::build(
            &ModelParams::paper_defaults().with_mu(0.2).with_d(0.9),
            &InitialCondition::Delta,
        )
        .unwrap()
        .open_equilibrium()
        .unwrap();
        assert!(sup_distance(&eqs[0].pi, &open.pi) < 1e-10);
    }

    #[test]
    fn coupled_equilibria_are_genuine_fixed_points() {
        let m = model(0.2, 2.0);
        let eqs = m.equilibria().unwrap();
        assert!(!eqs.is_empty());
        for eq in &eqs {
            assert!(
                eq.residual < 1e-10,
                "residual {} at mu_eff {}",
                eq.residual,
                eq.mu_eff
            );
            let total: f64 = eq.pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(eq.pi.iter().all(|&p| p >= 0.0));
            assert!(eq.mu_eff >= 0.2 - 1e-12);
            // Self-consistency: μ_eff really is the feedback of π.
            assert!((m.mu_eff(&eq.pi) - eq.mu_eff).abs() < 1e-12);
        }
        // Sorted by pollution.
        for pair in eqs.windows(2) {
            assert!(pair[0].polluted_fraction <= pair[1].polluted_fraction);
        }
    }

    #[test]
    fn feedback_raises_pollution_relative_to_the_open_system() {
        let open = model(0.25, 0.0).equilibria().unwrap();
        let coupled = model(0.25, 4.0).equilibria().unwrap();
        let max_coupled = coupled
            .iter()
            .map(|e| e.polluted_fraction)
            .fold(0.0f64, f64::max);
        assert!(
            max_coupled > open[0].polluted_fraction,
            "amplified {} vs open {}",
            max_coupled,
            open[0].polluted_fraction
        );
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let m = model(0.2, 2.0);
        let n = m.dim();
        let pi = m.alpha().to_vec();
        let jac = m.constrained_jacobian(&pi);
        let h = 1e-7;
        let mut base = vec![0.0; n];
        m.constrained_residual(&pi, &mut base);
        // Probe a handful of columns (full n² probe is wastefully slow).
        for col in [0usize, 1, n / 3, n / 2, n - 2, n - 1] {
            let mut bumped = pi.clone();
            bumped[col] += h;
            let mut fb = vec![0.0; n];
            m.constrained_residual(&bumped, &mut fb);
            for row in 0..n {
                let fd = (fb[row] - base[row]) / h;
                let an = jac[(row, col)];
                assert!(
                    (fd - an).abs() < 1e-5,
                    "J[{row}][{col}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }
}
