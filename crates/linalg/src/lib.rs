//! Dense and sparse linear-algebra kernels sized for absorbing Markov-chain
//! analysis.
//!
//! This crate backs the analytical side of the Pollux reproduction of
//! *Modeling and Evaluating Targeted Attacks in Large Scale Dynamic Systems*
//! (Anceaume, Sericola, Ludinard, Tronel — DSN 2011). The chains studied
//! there have a few hundred states, so the design targets correctness and
//! numerical robustness on small/medium dense systems rather than BLAS-level
//! throughput:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with the usual algebra,
//!   sub-matrix extraction by index sets (needed to carve `M_S`, `M_SP`, …
//!   out of a partitioned transition matrix), and stochasticity checks.
//! * [`Lu`] — LU decomposition with partial pivoting and linear solves
//!   (`Ax = b`, `xA = b`), skipping the zeros outside a banded matrix's
//!   band.
//! * [`sparse::CsrMatrix`] — compressed sparse row matrix with fast
//!   vector–matrix iteration, used for the overlay-level computation
//!   `α (T/n + (1−1/n) I)^m` (a binomial mixture of pushes through `T`).
//! * [`solver::TransientSolver`] — the sparse-first solver for
//!   `(I − Q) x = b` systems: dense LU below a size crossover
//!   (bit-stable for the paper-scale chains) and above it BiCGSTAB in
//!   O(nnz) per iteration, falling back to adaptive SOR and then plain
//!   Gauss–Seidel, all deterministic, with batched and transposed
//!   solves. This is what lets the analytical pipeline reach 10⁴–10⁵
//!   state spaces.
//!
//! # Example
//!
//! ```
//! use pollux_linalg::{Lu, Matrix};
//!
//! # fn main() -> Result<(), pollux_linalg::LinalgError> {
//! // Expected steps to absorption of a gambler's ruin from the middle state:
//! // t = (I - Q)^{-1} 1, i.e. the solution of (I - Q) t = 1.
//! let q = Matrix::from_rows(&[&[0.0, 0.5], &[0.5, 0.0]])?;
//! let t = Lu::decompose(&(&Matrix::identity(2) - &q))?.solve(&[1.0, 1.0])?;
//! assert!((t[0] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod error;
mod lu;
mod matrix;
pub mod solver;
pub mod sparse;
pub mod vec_ops;

pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use solver::{
    IterStats, KrylovBreakdown, SolverOptions, TransientSolver, DEFAULT_SPARSE_CROSSOVER,
};
