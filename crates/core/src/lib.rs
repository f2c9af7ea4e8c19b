//! Pollux: analytical model and simulators for targeted attacks on
//! cluster-based overlays.
//!
//! This crate is the primary-contribution layer of a full reproduction of
//! *Modeling and Evaluating Targeted Attacks in Large Scale Dynamic
//! Systems* (Anceaume, Sericola, Ludinard, Tronel — DSN 2011):
//!
//! * [`ModelParams`] — the paper's parameter set `(C, Δ, μ, d, k, ν)` plus
//!   ablation toggles.
//! * [`ClusterState`] / [`ModelSpace`] — the state space
//!   `Ω = {(s, x, y)}` with its partition into transient safe `S`,
//!   transient polluted `P` and the absorbing classes `AmS`, `AℓS`, `AmP`
//!   (Figure 1).
//! * [`ClusterChain`] — the exact transition matrix of Figure 2, built
//!   from the overlay operations, Property 1 (limited identifier
//!   lifetimes, survival probability `d`) and the adversary's Rules 1–2;
//!   a [`DefenseFold`] is a countermeasure exactly as the builder reads it.
//! * [`InitialCondition`] — the paper's initial distributions `δ`
//!   (attack-free start) and `β` (binomially pre-polluted, Relation 3).
//! * [`ClusterAnalysis`] — every cluster-level metric of Section VII:
//!   `E(T_S)`, `E(T_P)` (Relations 5–6), successive sojourns
//!   (Relations 7–8), absorption probabilities (Relation 9),
//!   distributions and variances.
//! * [`OverlayModel`] — the overlay-level expectations of Section VIII
//!   (Theorems 1–2): `E(N_S(m))/n`, `E(N_P(m))/n`.
//! * [`simulation`] — an independently-coded event-level Monte-Carlo
//!   simulator of the same process (validates the matrix), and
//! * [`overlay_sim`] — an `n`-cluster competing simulation (validates
//!   Theorem 2), both driven by pluggable [`pollux_adversary`] strategies.
//! * [`des_overlay`] — a continuous-time discrete-event simulation of the
//!   **whole overlay at node granularity** (10⁵–10⁶ nodes) on
//!   [`pollux_des`]'s clock, churn coin and stream seeding: per-cluster
//!   Poisson churn, packed malicious-flag bitsets per membership slot,
//!   prefix-labelled identifiers, and per-cluster sojourn /
//!   absorption statistics that cross-validate the Markov chain at scales
//!   state-space enumeration cannot reach — plus a regeneration mode
//!   whose event fractions estimate the renewal–reward steady state.
//! * [`duel`] — adversary-vs-defense duels: any
//!   [`pollux_defense::Defense`] folds into both the transition matrix
//!   ([`ClusterChain::build_with_defense`]) and the DES event loop, and
//!   [`duel::run_duel`] compares the two steady-state pollution
//!   estimates inside a renewal-adjusted Wilson interval.
//!
//! The paper's tables and figures are scenarios of `pollux_sweep::registry`,
//! which holds their grids and evaluates every cell through
//! [`ClusterAnalysis`] and [`OverlayModel`].
//!
//! # Quickstart
//!
//! ```
//! use pollux::{ClusterAnalysis, InitialCondition, ModelParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // protocol_1 under a 20 % adversary with survival probability 0.8.
//! let params = ModelParams::paper_defaults().with_mu(0.2).with_d(0.8).with_k(1)?;
//! let analysis = ClusterAnalysis::new(&params, InitialCondition::Delta)?;
//! let e_safe = analysis.expected_safe_events()?;
//! let e_polluted = analysis.expected_polluted_events()?;
//! assert!(e_safe > 10.0 && e_polluted < e_safe);
//! # Ok(())
//! # }
//! ```

mod analysis;
pub mod des_overlay;
pub mod duel;
mod fold;
mod initial;
mod overlay_analysis;
pub mod overlay_sim;
mod params;
pub mod simulation;
mod space;
mod state;
mod transition;

pub use analysis::{AbsorptionSplit, AnalysisMode, ClusterAnalysis};
pub use fold::DefenseFold;
pub use initial::InitialCondition;
pub use overlay_analysis::{OverlayModel, ProportionPoint};
pub use params::{AdversaryToggles, ModelParams, ParamsError};
pub use space::ModelSpace;
pub use state::{ClusterState, StateClass};
pub use transition::{polluted_split_unreachable, ChainKey, ClusterChain};
