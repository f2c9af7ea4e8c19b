//! Discrete-time Markov chain machinery.
//!
//! This crate implements the stochastic-process layer of the Pollux
//! reproduction of *Modeling and Evaluating Targeted Attacks in Large Scale
//! Dynamic Systems* (Anceaume, Sericola, Ludinard, Tronel — DSN 2011):
//!
//! * [`StateSpace`] — a bijection between arbitrary state values and dense
//!   indices.
//! * [`Dtmc`] — a validated discrete-time Markov chain, with per-state
//!   alias tables for Monte-Carlo sampling.
//! * [`SparseDtmc`] — the same validation contract on CSR storage, so
//!   sparse chains (each state reaching a handful of successors) never
//!   materialize an O(n²) matrix; the analyses below accept either
//!   representation, switching to O(nnz) iterative solvers at a size
//!   crossover.
//! * [`classify`] — communicating classes (iterative Tarjan SCC), closed /
//!   transient classification.
//! * [`AbsorbingChain`] — fundamental matrix, expected time to absorption,
//!   absorption probabilities per absorbing class (the paper's
//!   Relation (9)).
//! * [`SojournAnalysis`] — total and per-visit sojourn times in a
//!   two-subset partition of the transient states, following Sericola
//!   (*J. Appl. Prob.* 1990) and Rubino & Sericola (*J. Appl. Prob.* 1989):
//!   the paper's Relations (5)–(8), plus full distributions and variances.
//! * [`CompetingChains`] — `n` identical chains of which a uniformly chosen
//!   one moves at each instant (Anceaume, Castella, Ludinard, Sericola —
//!   the paper's Theorems 1 and 2).
//!
//! # Example
//!
//! ```
//! use pollux_markov::{Dtmc, AbsorbingChain};
//!
//! # fn main() -> Result<(), pollux_markov::MarkovError> {
//! // Gambler's ruin on {0,1,2,3} with absorbing barriers 0 and 3.
//! let p = Dtmc::from_rows(&[
//!     &[1.0, 0.0, 0.0, 0.0],
//!     &[0.5, 0.0, 0.5, 0.0],
//!     &[0.0, 0.5, 0.0, 0.5],
//!     &[0.0, 0.0, 0.0, 1.0],
//! ])?;
//! let abs = AbsorbingChain::new(&p)?;
//! let t = abs.expected_steps_from(1)?;
//! assert!((t - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod absorbing;
mod chain;
pub mod classify;
mod competing;
mod error;
pub mod hitting;
mod sojourn;
pub mod sparse_chain;
mod state_space;

pub use absorbing::AbsorbingChain;
pub use chain::Dtmc;
pub use competing::CompetingChains;
pub use error::MarkovError;
pub use sojourn::{PartitionSolvers, SojournAnalysis, SojournPartition};
pub use sparse_chain::SparseDtmc;
pub use state_space::StateSpace;
