//! # pollux-meanfield — the N→∞ fluid-limit evaluation path
//!
//! Third evaluation path of the workspace, alongside the exact
//! per-cluster Markov chain (`pollux`) and the discrete-event
//! simulator (`pollux-des`): the mean-field / fluid-limit ODE for the
//! empirical measure of cluster compositions. Where the exact chain
//! tops out near Δ≈156 and the DES near 10⁷ nodes, the fluid limit
//! answers planet-scale questions (10⁸–10⁹ nodes) in microseconds —
//! with an error that *shrinks* as O(1/M) in the cluster count M.
//!
//! The layer is organized as:
//!
//! * [`FluidModel`] ([`fluid`]) — the ODE
//!   `dπ/dt = λ(π·P_regen(μ_eff(π)) − π)`, built from
//!   [`ModelParams`](pollux::ModelParams) + the four
//!   [`Defense`](pollux_defense::Defense) hooks via an exact affine-μ
//!   decomposition of the transition matrix; [`Coupling`] selects the
//!   open (linear) model or the targeted-adversary routing feedback.
//! * [`ode`] — a deterministic adaptive Bogacki–Shampine 3(2) pair
//!   ([`bs32_adaptive`]).
//! * [`equilibrium`] — the renewal-identity direct solve
//!   ([`FluidModel::open_equilibrium`]) and a damped-Newton solver
//!   with analytic Jacobian for the coupled system
//!   ([`FluidModel::equilibria`]), multi-started to detect
//!   bistability.
//! * [`stability`] — Jacobian-eigenvalue classification
//!   ([`FluidModel::classify_equilibrium`], backed by the in-crate
//!   dense QR kernel in [`eig`]) and a bounded-work spectral-gap
//!   estimate ([`FluidModel::relaxation_gap`]).
//! * [`tuning`] — control-theoretic defense tuning: bisection on the
//!   induced-churn rate replacing `defense_frontier`'s grid search,
//!   verified against the exact chain ([`tune_induced_churn`]).
//! * [`whatif`] — planet-scale what-if cells
//!   ([`planet_scale_what_if`]): a cold cell is a sparse solve plus a
//!   capped power iteration, < 1 ms for 10⁹ nodes; a repeat comes from
//!   a bounded memo keyed by the exact inputs, in microseconds.
//!
//! Validation contract: the open-model stationary fractions coincide
//! with [`ClusterAnalysis::steady_state_fractions`](pollux::ClusterAnalysis::steady_state_fractions)
//! *exactly* (same renewal identity, agreeing to solver tolerance),
//! and with finite-N DES estimates within the renewal-Wilson band plus
//! the O(1/M) finite-size term — both enforced by tests, the fuzz
//! oracle pairs, and the CI sweep scenarios.
//!
//! ```
//! use pollux::{InitialCondition, ModelParams};
//! use pollux_meanfield::{planet_scale_what_if, FluidModel};
//!
//! let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.9);
//! // Stationary pollution of the open system: one sparse solve.
//! let model = FluidModel::build(&params, &InitialCondition::Delta)?;
//! let eq = model.open_equilibrium()?;
//! assert!(eq.polluted_fraction < 1.0);
//! // A billion-node what-if: under a millisecond cold…
//! let answer = planet_scale_what_if(&params, &InitialCondition::Delta, 1e9, 1.0)?;
//! assert!(answer.expected_polluted_nodes >= 0.0);
//! // …and microseconds when asked again, with the same bits.
//! let again = planet_scale_what_if(&params, &InitialCondition::Delta, 1e9, 1.0)?;
//! assert_eq!(again.polluted_fraction.to_bits(), answer.polluted_fraction.to_bits());
//! # Ok::<(), pollux_meanfield::MeanFieldError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eig;
pub mod equilibrium;
mod error;
pub mod fluid;
pub mod ode;
pub mod stability;
pub mod tuning;
pub mod whatif;

pub use eig::{eigenvalues, Complex};
pub use error::MeanFieldError;
pub use fluid::{Coupling, Equilibrium, EquilibriumMethod, FluidModel, MU_EFF_CAP};
pub use ode::{bs32_adaptive, AdaptiveOptions, OdeRun};
pub use stability::{Stability, StabilityReport};
pub use tuning::{tune_induced_churn, TuningConfig, TuningOutcome};
pub use whatif::{planet_scale_what_if, planet_scale_what_if_with_defense, WhatIfAnswer};
