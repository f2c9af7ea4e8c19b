//! The fluid-limit (N→∞) model of cluster-composition dynamics.
//!
//! # Derivation sketch
//!
//! The exact layer models one cluster as an absorbing Markov chain over
//! `(s, x, y)` and restarts it from the initial distribution whenever a
//! merge/split event absorbs it (the renewal argument behind
//! [`ClusterAnalysis::steady_state_fractions`](pollux::ClusterAnalysis::steady_state_fractions)).
//! With `m` clusters evolving independently, the empirical measure
//! `π(t) ∈ Δ(Ω)` (fraction of clusters in each state) is a density-
//! dependent population process; by Kurtz's theorem it converges, as
//! `m → ∞`, to the deterministic fluid limit
//!
//! ```text
//!     dπ/dt = λ · ( π · P_regen(μ_eff(π)) − π )
//! ```
//!
//! where `λ` is the per-cluster event rate and `P_regen` is the embedded
//! jump chain with every absorbing row (merge/split outcomes) replaced by
//! the regeneration distribution `α` — the chain the renewal argument
//! implicitly runs forever. Stationary points of the ODE are exactly the
//! stationary distributions of `P_regen`, so the fluid steady state
//! reproduces the exact per-cluster fractions; the O(1/m) gap to a
//! finite system is sampling noise, not model error.
//!
//! # Adversary coupling
//!
//! In the open model ([`Coupling::Open`]) clusters do not interact and
//! the ODE is linear: useful for validation and for answering what-ifs
//! with a single sparse solve. [`Coupling::RoutingBias`] adds the
//! system-level feedback the paper's targeted adversary induces: join
//! requests routed through polluted clusters are preferentially steered
//! by colluders, so the malicious-join probability seen by one cluster
//! grows with the polluted fraction of the whole system,
//! `μ_eff(π) = min(μ·(1 + a·ρ_P(π)), 0.995)` with `ρ_P` the mass on
//! polluted states. That makes the ODE nonlinear and opens the door to
//! multiple equilibria (see [`FluidModel::equilibria`]).
//!
//! The transition matrix enters only through an affine decomposition
//! `P(μ) = C₀ + μ·C₁`, which holds exactly because μ multiplies only the
//! join branch of the per-event outcome tree (verified by a unit test
//! against a third μ): two chain builds at probe values recover `C₀`
//! and `C₁`, and every later μ evaluation is a fused multiply-add.

use crate::error::MeanFieldError;
use pollux::{ClusterChain, DefenseFold, InitialCondition, ModelParams, ModelSpace};
use pollux_defense::{Defense, NullDefense};
use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::{SolverOptions, TransientSolver};

/// Hard ceiling on the amplified malicious-join probability. The model
/// caps `μ_eff` strictly below 1 so the join branch never degenerates
/// (an all-malicious join stream is outside the paper's regime anyway).
pub const MU_EFF_CAP: f64 = 0.995;

/// Second probe value used to recover the affine-μ decomposition.
const MU_PROBE: f64 = 0.5;

/// How the system-level adversary couples clusters in the fluid limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coupling {
    /// Independent clusters: `μ_eff ≡ μ`. The ODE is linear and its
    /// unique equilibrium matches the exact renewal fractions.
    Open,
    /// Targeted routing feedback: the malicious-join probability seen
    /// by a cluster is amplified by the global polluted mass,
    /// `μ_eff(π) = min(μ·(1 + amplification·ρ_P(π)), MU_EFF_CAP)`.
    RoutingBias {
        /// Feedback gain `a ≥ 0`; `0` reduces to [`Coupling::Open`].
        amplification: f64,
    },
}

/// How an equilibrium was obtained (diagnostic, carried on the result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquilibriumMethod {
    /// Direct renewal-identity solve of the linear (open) system.
    Direct,
    /// Damped-Newton refinement of the nonlinear coupled system.
    Newton,
}

/// A fixed point of the fluid ODE together with solution diagnostics.
#[derive(Debug, Clone)]
pub struct Equilibrium {
    /// Stationary distribution over the full state space (sums to 1).
    pub pi: Vec<f64>,
    /// Effective malicious-join probability at this fixed point.
    pub mu_eff: f64,
    /// Stationary mass on transient-safe states (the paper's
    /// availability-style "fraction of time safe").
    pub safe_fraction: f64,
    /// Stationary mass on transient-polluted states.
    pub polluted_fraction: f64,
    /// `‖π·P_regen(μ_eff(π)) − π‖∞` at the returned point.
    pub residual: f64,
    /// Iterations spent (0 for the direct path).
    pub iterations: u64,
    /// Which solver produced it.
    pub method: EquilibriumMethod,
}

/// The fluid-limit model: affine-μ embedded chain with regeneration,
/// ready for integration, equilibrium solving, and stability analysis.
///
/// ```
/// use pollux::{InitialCondition, ModelParams};
/// use pollux_meanfield::FluidModel;
///
/// let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
/// let model = FluidModel::build(&params, &InitialCondition::Delta)?;
/// let eq = model.open_equilibrium()?;
/// assert!(eq.safe_fraction > 0.0 && eq.polluted_fraction >= 0.0);
/// # Ok::<(), pollux_meanfield::MeanFieldError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FluidModel {
    space: ModelSpace,
    /// Regeneration distribution `α` (full space, sums to 1).
    alpha: Vec<f64>,
    /// CSR structure shared by `c0`/`c1`; absorbing rows are empty.
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    /// `P(μ)[i][j] = c0[e] + μ·c1[e]` for the entry `e` at `(i, j)`.
    c0: Vec<f64>,
    c1: Vec<f64>,
    /// `true` for merge/split rows, whose outflow regenerates to `α`.
    absorbing: Vec<bool>,
    /// `true` for every polluted class (transient or absorbing).
    polluted: Vec<bool>,
    mu_base: f64,
    rate: f64,
    coupling: Coupling,
    solver_options: SolverOptions,
}

impl FluidModel {
    /// Builds the fluid model for `params` with no defense mechanism.
    ///
    /// # Errors
    ///
    /// Propagates [`MeanFieldError::Markov`] from an invalid initial
    /// distribution and [`MeanFieldError::Linalg`] from CSR assembly.
    pub fn build(params: &ModelParams, initial: &InitialCondition) -> Result<Self, MeanFieldError> {
        FluidModel::build_with_defense(params, &NullDefense::new(), initial)
    }

    /// Builds the fluid model with a defense folded into the per-event
    /// probabilities, exactly as
    /// [`ClusterChain::build_with_defense`] folds it into the exact
    /// chain. The defense hooks depend only on the cluster view, never
    /// on μ, so one [`DefenseFold`] builds both probe chains and the
    /// affine-μ decomposition survives any defense.
    ///
    /// # Errors
    ///
    /// As [`FluidModel::build`].
    pub fn build_with_defense<D: Defense + ?Sized>(
        params: &ModelParams,
        defense: &D,
        initial: &InitialCondition,
    ) -> Result<Self, MeanFieldError> {
        FluidModel::build_with_fold(params, &DefenseFold::new(params, defense), initial)
    }

    /// [`FluidModel::build_with_defense`] from a defense already folded
    /// for `params`' `(C, Δ)`.
    pub(crate) fn build_with_fold(
        params: &ModelParams,
        fold: &DefenseFold,
        initial: &InitialCondition,
    ) -> Result<Self, MeanFieldError> {
        let lo = ClusterChain::build_with_fold(&params.with_mu(0.0), fold);
        let hi = ClusterChain::build_with_fold(&params.with_mu(MU_PROBE), fold);
        let space = ModelSpace::new(params);
        let alpha = initial.distribution(&space)?;
        let n = space.len();

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut absorbing = vec![false; n];
        let mut polluted = vec![false; n];

        row_ptr.push(0);
        for (i, state) in space.iter() {
            let class = state.classify(params);
            polluted[i] = class.is_polluted();
            if class.is_absorbing() {
                // Outflow of absorbing rows is the regeneration redirect,
                // applied analytically from `alpha`; keep the row empty.
                absorbing[i] = true;
                row_ptr.push(cols.len());
                continue;
            }
            // Merge the μ=0 and μ=MU_PROBE rows. Both chains push the
            // same entry set (zero-weight μ terms included), so the
            // union merge is belt and braces, not a correctness need.
            let mut it0 = lo.sparse_dtmc().successors(i).peekable();
            let mut it1 = hi.sparse_dtmc().successors(i).peekable();
            loop {
                let (j, p_lo, p_hi) = match (it0.peek().copied(), it1.peek().copied()) {
                    (Some((j0, v0)), Some((j1, v1))) => {
                        if j0 == j1 {
                            it0.next();
                            it1.next();
                            (j0, v0, v1)
                        } else if j0 < j1 {
                            it0.next();
                            (j0, v0, 0.0)
                        } else {
                            it1.next();
                            (j1, 0.0, v1)
                        }
                    }
                    (Some((j0, v0)), None) => {
                        it0.next();
                        (j0, v0, 0.0)
                    }
                    (None, Some((j1, v1))) => {
                        it1.next();
                        (j1, 0.0, v1)
                    }
                    (None, None) => break,
                };
                cols.push(j);
                c0.push(p_lo);
                c1.push((p_hi - p_lo) / MU_PROBE);
            }
            row_ptr.push(cols.len());
        }

        Ok(FluidModel {
            space,
            alpha,
            row_ptr,
            cols,
            c0,
            c1,
            absorbing,
            polluted,
            mu_base: params.mu(),
            rate: 1.0,
            coupling: Coupling::Open,
            solver_options: SolverOptions::default(),
        })
    }

    /// Sets the per-cluster event rate `λ` (events per unit time).
    /// Defaults to 1, matching the DES convention.
    ///
    /// # Errors
    ///
    /// [`MeanFieldError::InvalidConfig`] unless `rate` is finite and
    /// positive.
    pub fn with_rate(mut self, rate: f64) -> Result<Self, MeanFieldError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(MeanFieldError::InvalidConfig(format!(
                "event rate must be finite and positive, got {rate}"
            )));
        }
        self.rate = rate;
        Ok(self)
    }

    /// Selects the adversary coupling (default: [`Coupling::Open`]).
    ///
    /// # Errors
    ///
    /// [`MeanFieldError::InvalidConfig`] for a negative or non-finite
    /// amplification.
    pub fn with_coupling(mut self, coupling: Coupling) -> Result<Self, MeanFieldError> {
        if let Coupling::RoutingBias { amplification } = coupling {
            if !amplification.is_finite() || amplification < 0.0 {
                return Err(MeanFieldError::InvalidConfig(format!(
                    "routing-bias amplification must be finite and >= 0, got {amplification}"
                )));
            }
        }
        self.coupling = coupling;
        Ok(self)
    }

    /// Overrides the linear-solver routing used by the direct
    /// equilibrium path. [`SolverOptions::force_sparse`] keeps the
    /// planet-scale what-if path in the tens-of-microseconds regime.
    #[must_use]
    pub fn with_solver_options(mut self, options: SolverOptions) -> Self {
        self.solver_options = options;
        self
    }

    /// The state space this model is defined over.
    #[must_use]
    pub fn space(&self) -> &ModelSpace {
        &self.space
    }

    /// Number of states (= dimension of the ODE).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.space.len()
    }

    /// The per-cluster event rate `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The active coupling.
    #[must_use]
    pub fn coupling(&self) -> Coupling {
        self.coupling
    }

    /// The regeneration distribution `α`.
    #[must_use]
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The effective malicious-join probability induced by state `pi`.
    #[must_use]
    pub fn mu_eff(&self, pi: &[f64]) -> f64 {
        match self.coupling {
            Coupling::Open => self.mu_base,
            Coupling::RoutingBias { amplification } => {
                let rho = self.polluted_mass(pi);
                (self.mu_base * (1.0 + amplification * rho)).clamp(0.0, MU_EFF_CAP)
            }
        }
    }

    /// Total mass on polluted classes (transient and absorbing).
    #[must_use]
    pub fn polluted_mass(&self, pi: &[f64]) -> f64 {
        pi.iter()
            .zip(&self.polluted)
            .filter(|(_, &p)| p)
            .map(|(&w, _)| w)
            .sum()
    }

    /// `(transient-safe mass, transient-polluted mass)` of `pi` — the
    /// fluid analogue of
    /// [`ClusterAnalysis::steady_state_fractions`](pollux::ClusterAnalysis::steady_state_fractions).
    #[must_use]
    pub fn fractions(&self, pi: &[f64]) -> (f64, f64) {
        let sum_over = |idx: &[usize]| idx.iter().map(|&g| pi[g]).sum::<f64>();
        (
            sum_over(self.space.transient_safe()),
            sum_over(self.space.transient_polluted()),
        )
    }

    /// `out = π · P_regen(mu)`: one application of the embedded
    /// regeneration chain at an explicit μ (`out` is fully overwritten).
    pub(crate) fn apply_embedded_at_mu(&self, pi: &[f64], mu: f64, out: &mut [f64]) {
        out.fill(0.0);
        let mut regen_mass = 0.0;
        for (i, &w) in pi.iter().enumerate() {
            if self.absorbing[i] {
                regen_mass += w;
                continue;
            }
            if w == 0.0 {
                continue;
            }
            for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.cols[e]] += w * (self.c0[e] + mu * self.c1[e]);
            }
        }
        if regen_mass != 0.0 {
            for (o, &a) in out.iter_mut().zip(&self.alpha) {
                *o += regen_mass * a;
            }
        }
    }

    /// The fluid vector field: `out = λ·(π·P_regen(μ_eff(π)) − π)`.
    ///
    /// The components of `out` always sum to zero (both `P_regen` rows
    /// and the regeneration redirect are stochastic), so total mass is
    /// conserved along every trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `out` have a length other than [`FluidModel::dim`].
    pub fn rhs_into(&self, pi: &[f64], out: &mut [f64]) {
        assert_eq!(pi.len(), self.dim(), "state vector has wrong dimension");
        assert_eq!(out.len(), self.dim(), "output vector has wrong dimension");
        let mu = self.mu_eff(pi);
        self.apply_embedded_at_mu(pi, mu, out);
        for (o, &p) in out.iter_mut().zip(pi) {
            *o = self.rate * (*o - p);
        }
    }

    /// The unique equilibrium of the open (linear) system, via the
    /// renewal identity: expected visit counts `v` solve
    /// `(I − Q(μ))ᵀ v = α_T`, the cycle length is `Σv + 1`, and
    /// `π = [v, α_A + vᵀR] / cycle`. One sparse transposed solve — no
    /// integration, no iteration — and it agrees with
    /// `ClusterAnalysis::steady_state_fractions` to solver tolerance.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`MeanFieldError::Linalg`]).
    pub fn open_equilibrium(&self) -> Result<Equilibrium, MeanFieldError> {
        self.equilibrium_at_mu(self.mu_base)
    }

    /// Renewal-identity equilibrium of the linear chain frozen at an
    /// explicit μ. For [`Coupling::Open`] with `mu = μ_base` this is
    /// *the* equilibrium; the Newton path uses other values as warm
    /// starts.
    pub(crate) fn equilibrium_at_mu(&self, mu: f64) -> Result<Equilibrium, MeanFieldError> {
        let n = self.dim();
        let transient = self.space.transient();
        let tn = transient.len();
        let mut pos = vec![usize::MAX; n];
        for (t, &g) in transient.iter().enumerate() {
            pos[g] = t;
        }

        // Transient-to-transient block Q(μ). The affine interpolation
        // is exact in exact arithmetic; clamp the ~1e-18 rounding
        // negatives so the solver's substochasticity check passes.
        let mut triplets = Vec::with_capacity(self.cols.len());
        for (t, &g) in transient.iter().enumerate() {
            for e in self.row_ptr[g]..self.row_ptr[g + 1] {
                let j = self.cols[e];
                if pos[j] != usize::MAX {
                    let v = (self.c0[e] + mu * self.c1[e]).max(0.0);
                    triplets.push((t, pos[j], v));
                }
            }
        }
        let q = CsrMatrix::from_triplet_vec(tn, tn, triplets)?;
        let solver = TransientSolver::new(&q, self.solver_options)?;
        let alpha_t: Vec<f64> = transient.iter().map(|&g| self.alpha[g]).collect();
        let visits = solver.solve_transposed(&alpha_t)?;

        let cycle = visits.iter().sum::<f64>() + 1.0;
        let mut pi = vec![0.0; n];
        for (t, &g) in transient.iter().enumerate() {
            pi[g] = visits[t];
        }
        // Absorbing mass per cycle: direct regeneration hits plus the
        // transient-to-absorbing flow R weighted by the visit counts.
        for (j, &a) in self.alpha.iter().enumerate() {
            if self.absorbing[j] {
                pi[j] += a;
            }
        }
        for (t, &g) in transient.iter().enumerate() {
            if visits[t] == 0.0 {
                continue;
            }
            for e in self.row_ptr[g]..self.row_ptr[g + 1] {
                let j = self.cols[e];
                if self.absorbing[j] {
                    pi[j] += visits[t] * (self.c0[e] + mu * self.c1[e]).max(0.0);
                }
            }
        }
        for p in &mut pi {
            *p /= cycle;
        }

        let (safe_fraction, polluted_fraction) = self.fractions(&pi);
        let residual = residual_at_mu(self, &pi, mu);
        Ok(Equilibrium {
            pi,
            mu_eff: mu,
            safe_fraction,
            polluted_fraction,
            residual,
            iterations: 0,
            method: EquilibriumMethod::Direct,
        })
    }

    pub(crate) fn mu_base(&self) -> f64 {
        self.mu_base
    }

    pub(crate) fn is_absorbing_state(&self, i: usize) -> bool {
        self.absorbing[i]
    }

    pub(crate) fn is_polluted_state(&self, i: usize) -> bool {
        self.polluted[i]
    }

    pub(crate) fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    pub(crate) fn entry(&self, e: usize) -> (usize, f64, f64) {
        (self.cols[e], self.c0[e], self.c1[e])
    }
}

/// `‖π·P_regen(mu) − π‖∞` at a frozen μ.
pub(crate) fn residual_at_mu(model: &FluidModel, pi: &[f64], mu: f64) -> f64 {
    let mut out = vec![0.0; model.dim()];
    model.apply_embedded_at_mu(pi, mu, &mut out);
    out.iter()
        .zip(pi)
        .map(|(o, p)| (o - p).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux::ClusterAnalysis;

    fn paper_small() -> ModelParams {
        ModelParams::paper_defaults().with_mu(0.2).with_d(0.9)
    }

    #[test]
    fn transition_matrix_is_affine_in_mu() {
        // Pin the decomposition at a third μ: P(0.3) from the exact
        // builder must match c0 + 0.3·c1 entrywise (the renormalization
        // inside SparseDtmc adds only ~1e-12).
        let mu = 0.3;
        let params = paper_small().with_mu(mu);
        let model = FluidModel::build(&params, &InitialCondition::Delta).unwrap();
        let exact = ClusterChain::build(&params);
        let n = model.dim();
        for i in 0..n {
            if model.is_absorbing_state(i) {
                continue;
            }
            let mut interp = vec![0.0; n];
            for e in model.row_range(i) {
                let (j, c0, c1) = model.entry(e);
                interp[j] = c0 + mu * c1;
            }
            for (j, &v) in interp.iter().enumerate() {
                let p = exact.sparse_dtmc().prob(i, j);
                assert!(
                    (p - v).abs() < 1e-10,
                    "P({mu})[{i}][{j}]: exact {p} vs affine {v}"
                );
            }
        }
    }

    #[test]
    fn open_equilibrium_matches_exact_renewal_fractions() {
        let params = paper_small();
        let model = FluidModel::build(&params, &InitialCondition::Delta).unwrap();
        let eq = model.open_equilibrium().unwrap();
        let analysis =
            ClusterAnalysis::from_chain(ClusterChain::build(&params), InitialCondition::Delta)
                .unwrap();
        let (safe, polluted) = analysis.steady_state_fractions().unwrap();
        assert!(
            (eq.safe_fraction - safe).abs() < 1e-9,
            "safe: fluid {} vs exact {safe}",
            eq.safe_fraction
        );
        assert!(
            (eq.polluted_fraction - polluted).abs() < 1e-9,
            "polluted: fluid {} vs exact {polluted}",
            eq.polluted_fraction
        );
        assert!(eq.residual < 1e-12, "residual {}", eq.residual);
        let total: f64 = eq.pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rhs_conserves_mass_and_vanishes_at_equilibrium() {
        let model = FluidModel::build(&paper_small(), &InitialCondition::Delta).unwrap();
        let n = model.dim();
        // Arbitrary distribution: regeneration profile.
        let pi = model.alpha().to_vec();
        let mut out = vec![0.0; n];
        model.rhs_into(&pi, &mut out);
        let drift: f64 = out.iter().sum();
        assert!(drift.abs() < 1e-14, "mass leak {drift}");

        let eq = model.open_equilibrium().unwrap();
        model.rhs_into(&eq.pi, &mut out);
        let speed = out.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(speed < 1e-11, "vector field at equilibrium: {speed}");
    }

    #[test]
    fn routing_bias_amplifies_mu_and_respects_the_cap() {
        let params = paper_small();
        let model = FluidModel::build(&params, &InitialCondition::Delta)
            .unwrap()
            .with_coupling(Coupling::RoutingBias { amplification: 3.0 })
            .unwrap();
        let eq_open = FluidModel::build(&params, &InitialCondition::Delta)
            .unwrap()
            .open_equilibrium()
            .unwrap();
        let mu = model.mu_eff(&eq_open.pi);
        assert!(mu >= params.mu());
        assert!(mu <= MU_EFF_CAP);
        // Fully polluted state hits the cap for a large enough gain.
        let model_hot = FluidModel::build(&params, &InitialCondition::Delta)
            .unwrap()
            .with_coupling(Coupling::RoutingBias { amplification: 1e6 })
            .unwrap();
        let mut hot = vec![0.0; model_hot.dim()];
        let tp = model_hot.space().transient_polluted()[0];
        hot[tp] = 1.0;
        assert_eq!(model_hot.mu_eff(&hot), MU_EFF_CAP);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let model = FluidModel::build(&paper_small(), &InitialCondition::Delta).unwrap();
        assert!(model.clone().with_rate(0.0).is_err());
        assert!(model.clone().with_rate(f64::NAN).is_err());
        assert!(model
            .with_coupling(Coupling::RoutingBias {
                amplification: -1.0
            })
            .is_err());
    }
}
