//! Solvers for transient-chain systems `(I − Q) x = b`.
//!
//! Every analytical quantity of the DSN'11 pipeline — expected steps to
//! absorption, absorption probabilities, sojourn moments, hitting
//! probabilities — reduces to solves against `I − Q` where `Q` is the
//! (sub-stochastic) transient block of a Markov chain. Dense LU is exact
//! and [`Lu`] skips the zeros outside the band: the cluster chain's
//! states are enumerated `s`-major and every event moves the spare count
//! `s` by at most one, so its blocks have half-bandwidths of about one
//! spare level, `(C + 1)(Δ + 1)` states, and factoring costs
//! O(n·(C·Δ)²) time instead of O(n³). The dense factors still take
//! O(n²) memory, while the transient blocks themselves are extremely
//! sparse (a handful of successors per state), so large chains want an
//! O(nnz)-per-sweep iterative method instead.
//!
//! [`TransientSolver`] packages the crossover: below
//! [`SolverOptions::crossover`] states it densifies `I − Q` and factors it
//! once with [`Lu`] (bit-stable, matching the historical dense pipeline);
//! at or above the crossover it keeps `Q` in CSR form and solves
//! iteratively, trying in order:
//!
//! 1. **BiCGSTAB** (van der Vorst) — the primary method; Krylov
//!    convergence leaves the O(Δ²)-sweep stationary methods far behind on
//!    the slowly mixing spare-level random walk of the cluster chain.
//!    Breakdowns, recursive-residual drift and non-finite excursions all
//!    resolve by restarting from the current iterate; a restart that
//!    fails to improve the true residual abandons the method.
//! 2. **Adaptive SOR** (Young's classical scheme) — sweeps start at
//!    `ω = 1` (plain Gauss–Seidel), the observed per-sweep contraction
//!    `μ` over a fixed window yields a Jacobi spectral-radius estimate
//!    `ρ(J) = (μ + ω − 1) / (ω √μ)`, and `ω` is re-tuned to
//!    `2 / (1 + √(1 − ρ(J)²))`, backing off (with iterate rollback) when
//!    over-relaxation misbehaves — non-reversible chains can have
//!    complex Jacobi spectra for which the real-spectrum formula
//!    overshoots. The learned `ω` is cached on the solver and carried
//!    across solves.
//! 3. **Plain Gauss–Seidel** with the full budget, before reporting
//!    [`LinalgError::NoConvergence`].
//!
//! Every returned solution has passed a *true-residual* verification
//! (not just the iteration's own stopping test).
//!
//! Determinism contract: every step — the Krylov recurrences, the sweep
//! order, the convergence tests — is a fixed function of the matrix and
//! the call sequence. No randomness, no time-outs, no thread-count
//! dependence: replaying the same solves on a fresh instance reproduces
//! bit-identical results on every run and every machine with the same
//! floating-point semantics. (Because the learned relaxation factor
//! carries across solves, an *individual* solve's trajectory depends on
//! the calls before it — the pipeline performs its solves in a fixed
//! order, so end results are reproducible.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sparse::CsrMatrix;
use crate::vec_ops::dot;
use crate::{LinalgError, Lu, Matrix};

/// Default state-count threshold at which [`TransientSolver`] switches
/// from dense LU to the sparse iterative path. Every chain of the paper's
/// own evaluation (≤ ~1000 states) stays on the bit-stable dense path,
/// where the band elimination factors the cluster chain's `s`-major
/// blocks in O(n·p·(p + q)) for half-bandwidths `p`, `q` of about one
/// spare level (at `C = 7, Δ = 14`, the 832-unknown transient block has
/// `p` = 124 and `q` = 112) instead of O(n³).
pub const DEFAULT_SPARSE_CROSSOVER: usize = 1024;

/// Relative residual tolerance of the iterative path.
const TOL: f64 = 1e-13;

/// Sweep budget of the iterative path (per right-hand side).
const MAX_SWEEPS: usize = 200_000;

/// Tuning knobs for [`TransientSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Systems smaller than this are solved by dense LU.
    pub crossover: usize,
    /// Apply a Jacobi (diagonal) preconditioner to the BiCGSTAB path:
    /// the Krylov recurrences run on the right-preconditioned system
    /// `A D⁻¹ z = b` with `D = diag(A)`, which rescales the
    /// strongly-self-looping rows of large cluster chains. On the
    /// Δ = 100 cluster chain (40 392 transient states) it does not pay:
    /// `BENCH_markov.json` records 402 forward iterations and 28.0 s
    /// unpreconditioned against 430 iterations and 30.6 s with it
    /// (0.92×). Off by default; the unpreconditioned recurrence is the
    /// historical bit-exact reference. Only the iterative path ever
    /// consults this — the dense-LU side of the crossover is unaffected.
    pub jacobi: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            crossover: DEFAULT_SPARSE_CROSSOVER,
            jacobi: false,
        }
    }
}

impl SolverOptions {
    /// Options that force the iterative path regardless of size (used by
    /// the equivalence tests and benchmarks).
    #[must_use]
    pub fn force_sparse() -> Self {
        SolverOptions {
            crossover: 0,
            ..SolverOptions::default()
        }
    }

    /// Options that force the dense path regardless of size.
    #[must_use]
    pub fn force_dense() -> Self {
        SolverOptions {
            crossover: usize::MAX,
            ..SolverOptions::default()
        }
    }

    /// Enables or disables the Jacobi-preconditioned BiCGSTAB path.
    #[must_use]
    pub fn with_jacobi(mut self, jacobi: bool) -> Self {
        self.jacobi = jacobi;
        self
    }
}

#[derive(Debug, Clone)]
enum Repr {
    /// Zero unknowns: every solve returns an empty vector.
    Empty,
    /// LU factors of the densified `I − Q`.
    Dense(Box<Lu>),
    /// CSR `Q`, its transpose, and the per-row diagonal of `I − Q`.
    Iterative {
        q: CsrMatrix,
        qt: CsrMatrix,
        /// `1 − Q_ii` per row (always positive for a transient block).
        diag: Vec<f64>,
        /// Learned relaxation factor and ceiling, carried across solves
        /// (the spectrum is a property of the matrix, not of the
        /// right-hand side, so later solves skip the warm-up). Stored as
        /// f64 bit patterns.
        omega_cache: Arc<OmegaCache>,
    },
}

/// A solver for `(I − Q) x = b` and `x (I − Q) = b` with `Q` a
/// sub-stochastic transient block, switching between dense LU and the
/// sparse iterative path (BiCGSTAB → adaptive SOR → Gauss–Seidel) at a
/// size crossover.
///
/// # Example
///
/// ```
/// use pollux_linalg::solver::{SolverOptions, TransientSolver};
/// use pollux_linalg::sparse::CsrMatrix;
///
/// # fn main() -> Result<(), pollux_linalg::LinalgError> {
/// // Fair gambler's-ruin transient block on {1, 2, 3}:
/// let q = CsrMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 0.5)],
/// )?;
/// let solver = TransientSolver::new(&q, SolverOptions::default())?;
/// let steps = solver.solve(&[1.0, 1.0, 1.0])?; // N·1: expected absorption times
/// assert!((steps[1] - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSolver {
    n: usize,
    repr: Repr,
    jacobi: bool,
    /// Fault-injection hook: when set, the iterative path skips BiCGSTAB
    /// with a synthetic breakdown so the SOR fallback ladder (and its
    /// reporting) can be exercised deterministically.
    force_krylov_breakdown: bool,
}

impl TransientSolver {
    /// Builds the solver for the transient block `q`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimensions`] if `q` is not square, has a
    ///   negative or NaN entry, or a row sums to more than 1 (plus a small
    ///   tolerance) — such a matrix is not a transient block.
    /// * [`LinalgError::Singular`] if the densified system is singular
    ///   (the block contains a closed class).
    pub fn new(q: &CsrMatrix, options: SolverOptions) -> Result<Self, LinalgError> {
        if q.rows() != q.cols() {
            return Err(LinalgError::InvalidDimensions(format!(
                "transient block must be square, got {}x{}",
                q.rows(),
                q.cols()
            )));
        }
        let n = q.rows();
        for i in 0..n {
            let mut sum = 0.0;
            for (_, v) in q.row_entries(i) {
                // NaN passes `v < 0.0`; with no NaN or −∞ entry the row
                // sum cannot be NaN, so the sum check below is sound.
                if v < 0.0 || v.is_nan() {
                    return Err(LinalgError::InvalidDimensions(format!(
                        "transient block row {i} has negative or NaN entry {v}"
                    )));
                }
                sum += v;
            }
            if sum > 1.0 + 1e-9 {
                return Err(LinalgError::InvalidDimensions(format!(
                    "transient block row {i} sums to {sum} > 1"
                )));
            }
        }

        let repr = if n == 0 {
            Repr::Empty
        } else if n < options.crossover {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = 1.0;
                for (j, v) in q.row_entries(i) {
                    a[(i, j)] -= v;
                }
            }
            Repr::Dense(Box::new(Lu::decompose_owned(a)?))
        } else {
            let diag: Vec<f64> = (0..n).map(|i| 1.0 - q.get(i, i)).collect();
            if let Some(i) = diag.iter().position(|&d| d <= 0.0) {
                return Err(LinalgError::Singular { pivot: i });
            }
            let qt = q.transpose();
            Repr::Iterative {
                q: q.clone(),
                qt,
                diag,
                omega_cache: Arc::new(OmegaCache::new()),
            }
        };
        Ok(TransientSolver {
            n,
            repr,
            jacobi: options.jacobi,
            force_krylov_breakdown: false,
        })
    }

    /// Wraps an explicitly formed dense system `A` (usually `I − Q`),
    /// factoring it once. Dense analysis entry points use this to keep
    /// their historical bit-exact LU path while sharing the solver API.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::Singular`] from the factorization.
    pub fn from_dense_system(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        let repr = if n == 0 {
            Repr::Empty
        } else {
            Repr::Dense(Box::new(Lu::decompose(a)?))
        };
        Ok(TransientSolver {
            n,
            repr,
            jacobi: false,
            force_krylov_breakdown: false,
        })
    }

    /// Replaces the BiCGSTAB attempt with a synthetic breakdown so the
    /// fallback ladder runs end to end. Fault-injection harnesses and
    /// tests use this to prove the SOR detour (and its machine-readable
    /// reporting) actually fires; it is not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn with_forced_krylov_breakdown(mut self) -> Self {
        self.force_krylov_breakdown = true;
        self
    }

    /// Number of unknowns.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when this instance took the sparse iterative path.
    #[must_use]
    pub fn is_iterative(&self) -> bool {
        matches!(self.repr, Repr::Iterative { .. })
    }

    /// Solves `(I − Q) x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] for a wrong-length `b`;
    /// [`LinalgError::NoConvergence`] if the sweep budget runs out.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.solve_impl(b, false).map(|(x, _)| x)
    }

    /// As [`TransientSolver::solve`], additionally reporting iteration
    /// statistics (`None` on the dense path).
    ///
    /// # Errors
    ///
    /// As [`TransientSolver::solve`].
    pub fn solve_with_stats(
        &self,
        b: &[f64],
    ) -> Result<(Vec<f64>, Option<IterStats>), LinalgError> {
        self.solve_impl(b, false)
    }

    /// Solves the transposed system `x (I − Q) = b`, i.e.
    /// `(I − Q)ᵀ x = b`.
    ///
    /// # Errors
    ///
    /// As [`TransientSolver::solve`].
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.solve_impl(b, true).map(|(x, _)| x)
    }

    /// Batched solve: one factorization / relaxation setup amortized over
    /// many right-hand sides.
    ///
    /// # Errors
    ///
    /// As [`TransientSolver::solve`]; the first failing right-hand side
    /// aborts the batch.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinalgError> {
        rhs.iter().map(|b| self.solve(b)).collect()
    }

    fn solve_impl(
        &self,
        b: &[f64],
        transposed: bool,
    ) -> Result<(Vec<f64>, Option<IterStats>), LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                left: (self.n, self.n),
                right: (b.len(), 1),
            });
        }
        match &self.repr {
            Repr::Empty => Ok((Vec::new(), None)),
            Repr::Dense(lu) => {
                let x = if transposed {
                    lu.solve_transposed(b)?
                } else {
                    lu.solve(b)?
                };
                Ok((x, None))
            }
            Repr::Iterative {
                q,
                qt,
                diag,
                omega_cache,
            } => {
                // x (I − Q) = b is (I − Qᵀ) x = b: sweep over Qᵀ's rows
                // (the transposed system shares the spectrum, so it shares
                // the learned relaxation factor too).
                let m = if transposed { qt } else { q };
                let krylov = if self.force_krylov_breakdown {
                    Err(LinalgError::NoConvergence {
                        sweeps: 0,
                        residual: f64::INFINITY,
                    })
                } else {
                    self.bicgstab(m, diag, b)
                };
                // When BiCGSTAB fails, keep *why* (not just that it did):
                // the breakdown rides along into the returned stats so
                // callers see the reason machine-readably.
                let mut breakdown = None;
                let result = krylov.or_else(|e| {
                    if let LinalgError::NoConvergence { sweeps, residual } = e {
                        breakdown = Some(KrylovBreakdown { sweeps, residual });
                    }
                    self.sor(m, diag, b, Some(omega_cache))
                        .or_else(|_| self.sor(m, diag, b, None))
                });
                result.map(|(x, mut stats)| {
                    stats.krylov_failure = breakdown;
                    (x, Some(stats))
                })
            }
        }
    }

    /// BiCGSTAB (van der Vorst) on `(I − M) x = b` — the primary iterative
    /// method: Krylov convergence is O(√κ)-ish in practice, far ahead of
    /// stationary sweeps on the slowly-mixing random-walk blocks of the
    /// cluster chain, and every operation is a fixed-order kernel so the
    /// run is bit-reproducible. Breakdown or stagnation (both possible for
    /// non-symmetric systems) surfaces as an error and the caller falls
    /// back to the SOR path; the final true-residual verification gates
    /// correctness in all cases.
    ///
    /// With [`SolverOptions::jacobi`] set, the recurrence runs
    /// right-preconditioned on `A D⁻¹` (`D = diag(A)`): the search
    /// directions are divided by the diagonal before each matrix apply,
    /// and the iterate update uses the preconditioned directions, so the
    /// returned `x` solves the *original* system and the residual test
    /// is unchanged.
    fn bicgstab(
        &self,
        m: &CsrMatrix,
        diag: &[f64],
        b: &[f64],
    ) -> Result<(Vec<f64>, IterStats), LinalgError> {
        let n = self.n;
        let b_scale = b.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        let max_iters = (MAX_SWEEPS / 8).max(64);

        // (A y)_i = diag_i·y_i − Σ_{j≠i} M_ij y_j, A = I − M.
        let apply = |y: &[f64], out: &mut [f64]| {
            for i in 0..n {
                let mut acc = diag[i] * y[i];
                for (j, v) in m.row_entries(i) {
                    if j != i {
                        acc -= v * y[j];
                    }
                }
                out[i] = acc;
            }
        };

        let mut x = vec![0.0f64; n];
        let mut r = b.to_vec();
        let mut r_hat = r.clone();
        let mut rho = 1.0f64;
        let mut alpha = 1.0f64;
        let mut omega = 1.0f64;
        let mut v = vec![0.0f64; n];
        let mut p = vec![0.0f64; n];
        let mut s = vec![0.0f64; n];
        let mut t = vec![0.0f64; n];
        // Preconditioned search directions (empty when the Jacobi
        // preconditioner is off — no per-iteration cost on that path).
        let jacobi = self.jacobi;
        let mut p_hat = vec![0.0f64; if jacobi { n } else { 0 }];
        let mut s_hat = vec![0.0f64; if jacobi { n } else { 0 }];

        let inf_norm = |y: &[f64]| y.iter().fold(0.0f64, |acc, &u| acc.max(u.abs()));

        // Breakdowns (near-orthogonal shadow vector), recursive-residual
        // drift and non-finite excursions all resolve the same way: resync
        // `r` to the true residual of the current iterate, reset the
        // Krylov directions, and continue. Progress across restarts is
        // monitored so a genuinely stuck system still exits to the SOR
        // fallback.
        const MAX_RESTARTS: usize = 32;
        let mut restarts = 0usize;
        let mut last_restart_residual = f64::INFINITY;
        let mut iter = 0usize;

        macro_rules! restart {
            () => {{
                restarts += 1;
                if !inf_norm(&x).is_finite() {
                    x.fill(0.0);
                }
                apply(&x, &mut t);
                for i in 0..n {
                    r[i] = b[i] - t[i];
                }
                let now = inf_norm(&r);
                // NaN `now` must bail out too, so compare in the negated
                // form rather than `now >= …`.
                let improved = now < last_restart_residual * 0.99;
                if restarts > MAX_RESTARTS || !improved {
                    return Err(LinalgError::NoConvergence {
                        sweeps: iter,
                        residual: now,
                    });
                }
                last_restart_residual = now;
                r_hat.copy_from_slice(&r);
                rho = 1.0;
                alpha = 1.0;
                omega = 1.0;
                v.fill(0.0);
                p.fill(0.0);
                continue;
            }};
        }

        while iter < max_iters {
            iter += 1;
            let rho_new = dot(&r_hat, &r);
            if rho_new.abs() < f64::MIN_POSITIVE || !rho_new.is_finite() {
                restart!();
            }
            let beta = (rho_new / rho) * (alpha / omega);
            if !beta.is_finite() {
                restart!();
            }
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            if jacobi {
                for i in 0..n {
                    p_hat[i] = p[i] / diag[i];
                }
                apply(&p_hat, &mut v);
            } else {
                apply(&p, &mut v);
            }
            let denom = dot(&r_hat, &v);
            if denom.abs() < f64::MIN_POSITIVE || !denom.is_finite() {
                restart!();
            }
            alpha = rho_new / denom;
            for i in 0..n {
                s[i] = r[i] - alpha * v[i];
            }
            if jacobi {
                for i in 0..n {
                    s_hat[i] = s[i] / diag[i];
                }
                apply(&s_hat, &mut t);
            } else {
                apply(&s, &mut t);
            }
            let tt = dot(&t, &t);
            omega = if tt > 0.0 { dot(&t, &s) / tt } else { 0.0 };
            if !omega.is_finite() {
                restart!();
            }
            if jacobi {
                for i in 0..n {
                    x[i] += alpha * p_hat[i] + omega * s_hat[i];
                    r[i] = s[i] - omega * t[i];
                }
            } else {
                for i in 0..n {
                    x[i] += alpha * p[i] + omega * s[i];
                    r[i] = s[i] - omega * t[i];
                }
            }
            let r_norm = inf_norm(&r);
            if !r_norm.is_finite() {
                restart!();
            }
            let x_scale = inf_norm(&x).max(1.0);
            if r_norm <= TOL * b_scale.max(x_scale) {
                // The recursive residual can drift from the true one;
                // verify, and resync if it has.
                let residual = residual_inf(m, diag, &x, b);
                if residual <= 10.0 * TOL * b_scale.max(x_scale) {
                    return Ok((
                        x,
                        IterStats {
                            sweeps: iter,
                            omega: f64::NAN,
                            residual,
                            krylov_failure: None,
                        },
                    ));
                }
                restart!();
            }
            rho = rho_new;
        }
        Err(LinalgError::NoConvergence {
            sweeps: max_iters,
            residual: inf_norm(&r),
        })
    }

    /// SOR sweeps on `(I − M) x = b` where `diag[i] = 1 − M_ii`.
    ///
    /// With a cache supplied, the relaxation factor starts from the value
    /// learned by earlier solves on this matrix and is re-tuned every
    /// [`OMEGA_WINDOW`] sweeps from the observed contraction rate via
    /// Young's formula; with `None` it stays at 1 for the whole run (the
    /// plain Gauss–Seidel fallback). The iterate is checkpointed at every
    /// accepted window so a mis-tuned over-relaxation only ever costs one
    /// window of sweeps.
    fn sor(
        &self,
        m: &CsrMatrix,
        diag: &[f64],
        b: &[f64],
        cache: Option<&Arc<OmegaCache>>,
    ) -> Result<(Vec<f64>, IterStats), LinalgError> {
        let n = self.n;
        let mut x = vec![0.0f64; n];
        let b_scale = b.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        let (mut omega, mut omega_cap) = match cache {
            Some(c) => c.load(),
            None => (1.0, 1.0),
        };
        // Checkpoint of the last accepted iterate: a diverging window is
        // rolled back instead of restarting the whole solve.
        let mut checkpoint = x.clone();
        let mut sweeps = 0usize;
        let mut residual = f64::INFINITY;
        let mut window_start_delta = f64::NAN;
        while sweeps < MAX_SWEEPS {
            let mut delta = 0.0f64;
            for i in 0..n {
                let mut acc = b[i];
                for (j, v) in m.row_entries(i) {
                    if j != i {
                        acc += v * x[j];
                    }
                }
                let candidate = acc / diag[i];
                let new_xi = x[i] + omega * (candidate - x[i]);
                delta = delta.max((new_xi - x[i]).abs());
                x[i] = new_xi;
            }
            sweeps += 1;
            let x_scale = x.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
            if !(delta.is_finite() && x_scale < 1e100) {
                // Over-relaxation diverged outright: roll back to the last
                // good iterate under a tighter ceiling. (Genuine transient
                // solutions live far below this scale.)
                x.copy_from_slice(&checkpoint);
                omega_cap = 1.0 + (omega - 1.0) * 0.5;
                omega = omega_cap;
                window_start_delta = f64::NAN;
                continue;
            }
            if delta <= TOL * x_scale {
                residual = residual_inf(m, diag, &x, b);
                if residual <= 10.0 * TOL * b_scale.max(x_scale) {
                    if let Some(c) = cache {
                        c.store(omega, omega_cap);
                    }
                    return Ok((
                        x,
                        IterStats {
                            sweeps,
                            omega,
                            residual,
                            krylov_failure: None,
                        },
                    ));
                }
            }
            if cache.is_some() {
                if sweeps.is_multiple_of(OMEGA_WINDOW) {
                    if window_start_delta.is_finite() && window_start_delta > 0.0 && delta > 0.0 {
                        let mu = (delta / window_start_delta).powf(1.0 / OMEGA_WINDOW as f64);
                        if mu >= 1.0 && omega > 1.0 {
                            // Growing over a full window: roll back and
                            // back the factor off toward Gauss–Seidel.
                            x.copy_from_slice(&checkpoint);
                            omega_cap = omega_cap.min(1.0 + (omega - 1.0) * 0.75);
                            omega = 1.0 + (omega - 1.0) * 0.5;
                            window_start_delta = f64::NAN;
                            continue;
                        }
                        omega = retuned_omega(omega, mu, omega_cap);
                    }
                    checkpoint.copy_from_slice(&x);
                    window_start_delta = delta;
                } else if sweeps % OMEGA_WINDOW == 1 {
                    window_start_delta = delta;
                }
            }
        }
        Err(LinalgError::NoConvergence { sweeps, residual })
    }
}

/// Shared store for the learned relaxation factor and its ceiling.
#[derive(Debug)]
struct OmegaCache {
    omega: AtomicU64,
    cap: AtomicU64,
}

impl OmegaCache {
    fn new() -> Self {
        OmegaCache {
            omega: AtomicU64::new(1.0f64.to_bits()),
            cap: AtomicU64::new(1.95f64.to_bits()),
        }
    }

    fn load(&self) -> (f64, f64) {
        (
            f64::from_bits(self.omega.load(Ordering::Relaxed)),
            f64::from_bits(self.cap.load(Ordering::Relaxed)),
        )
    }

    fn store(&self, omega: f64, cap: f64) {
        self.omega.store(omega.to_bits(), Ordering::Relaxed);
        self.cap.store(cap.to_bits(), Ordering::Relaxed);
    }
}

/// Sweep count between relaxation-factor updates of the adaptive scheme.
const OMEGA_WINDOW: usize = 24;

/// Young's update: from the contraction rate `mu` observed under the
/// current factor `omega`, recover the Jacobi spectral radius
/// `ρ(J) = (μ + ω − 1) / (ω √μ)` and return the corresponding optimal
/// factor `2 / (1 + √(1 − ρ²))`, capped at `omega_cap`. A stalled or
/// growing contraction backs the factor off toward Gauss–Seidel instead.
fn retuned_omega(omega: f64, mu: f64, omega_cap: f64) -> f64 {
    if !(mu.is_finite() && mu > 0.0) {
        return omega;
    }
    // Not contracting: the current factor is too aggressive — back off.
    if mu >= 1.0 {
        return 1.0 + (omega - 1.0) * 0.5;
    }
    let rho = (mu + omega - 1.0) / (omega * mu.sqrt());
    if !(0.0..1.0).contains(&rho) {
        return omega;
    }
    let next = 2.0 / (1.0 + (1.0 - rho * rho).max(0.0).sqrt());
    next.clamp(1.0, omega_cap)
}

/// `‖b − (I − M) x‖_∞` with `M` given row-wise and `diag[i] = 1 − M_ii`;
/// NaN when any row's residual is NaN (`f64::max` would drop it and let
/// a NaN solution pass the caller's tolerance check).
fn residual_inf(m: &CsrMatrix, diag: &[f64], x: &[f64], b: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..m.rows() {
        let mut r = b[i] - diag[i] * x[i];
        for (j, v) in m.row_entries(i) {
            if j != i {
                r += v * x[j];
            }
        }
        if r.is_nan() {
            return f64::NAN;
        }
        worst = worst.max(r.abs());
    }
    worst
}

/// Why a BiCGSTAB attempt gave up: the iterations it burned and the
/// residual it was stuck at when the solver descended to the stationary
/// fallback ladder. Carried on [`IterStats::krylov_failure`] so callers
/// get the reason machine-readably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovBreakdown {
    /// Krylov iterations performed before abandoning the method.
    pub sweeps: usize,
    /// Residual ∞-norm at the point of giving up (may be non-finite —
    /// a breakdown can diverge before measuring anything useful).
    pub residual: f64,
}

/// Iteration statistics of a sparse solve (see
/// [`TransientSolver::solve_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Iterations performed (Krylov iterations or SOR sweeps).
    pub sweeps: usize,
    /// Final relaxation factor of the adaptive SOR scheme; `NaN` when the
    /// BiCGSTAB path produced the solution (no relaxation involved).
    pub omega: f64,
    /// Verified residual ∞-norm of the returned solution.
    pub residual: f64,
    /// `Some` when this solution came from the fallback ladder after a
    /// BiCGSTAB breakdown, carrying why the Krylov attempt failed;
    /// `None` when BiCGSTAB answered directly.
    pub krylov_failure: Option<KrylovBreakdown>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gambler's-ruin transient block on `{1, …, n}` (absorbing barriers
    /// removed): tridiagonal with `p` up and `1 − p` down.
    fn ruin_block(n: usize, p: f64) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                triplets.push((i, i + 1, p));
            }
            if i > 0 {
                triplets.push((i, i - 1, 1.0 - p));
            }
        }
        CsrMatrix::from_triplet_vec(n, n, triplets).unwrap()
    }

    #[test]
    fn nan_blocks_are_rejected_on_both_paths() {
        let q = CsrMatrix::from_triplets(2, 2, &[(0, 1, f64::NAN), (1, 0, 0.5)]).unwrap();
        for options in [SolverOptions::default(), SolverOptions::force_sparse()] {
            assert!(TransientSolver::new(&q, options).is_err());
        }
    }

    #[test]
    fn a_nan_residual_is_not_dropped() {
        let q = ruin_block(4, 0.5);
        let diag = vec![1.0; 4];
        let b = vec![1.0; 4];
        assert!(residual_inf(&q, &diag, &[0.0, f64::NAN, 0.0, 0.0], &b).is_nan());
        assert_eq!(residual_inf(&q, &diag, &[0.0; 4], &b), 1.0);
    }

    #[test]
    fn forced_krylov_breakdown_descends_the_ladder_and_records_why() {
        let q = ruin_block(60, 0.5);
        let ones = vec![1.0; 60];
        let honest = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let broken = TransientSolver::new(&q, SolverOptions::force_sparse())
            .unwrap()
            .with_forced_krylov_breakdown();

        let (xh, sh) = honest.solve_with_stats(&ones).unwrap();
        let (xb, sb) = broken.solve_with_stats(&ones).unwrap();
        // The ladder still lands the verified answer…
        for (a, b) in xh.iter().zip(xb.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }

        // …and the stats say why the detour happened.
        let stats = sb.expect("iterative path reports stats");
        let why = stats.krylov_failure.expect("breakdown recorded in stats");
        assert_eq!(why.sweeps, 0);
        assert!(why.residual.is_infinite());
        assert!(!stats.omega.is_nan(), "solution came from SOR, not Krylov");
        // A solve BiCGSTAB answered itself records no failure.
        assert!(sh.expect("stats").krylov_failure.is_none());
    }

    #[test]
    fn dense_and_sparse_paths_agree() {
        let q = ruin_block(40, 0.5);
        let ones = vec![1.0; 40];
        let dense = TransientSolver::new(&q, SolverOptions::force_dense()).unwrap();
        let sparse = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        assert!(!dense.is_iterative());
        assert!(sparse.is_iterative());
        let xd = dense.solve(&ones).unwrap();
        let xs = sparse.solve(&ones).unwrap();
        for (a, b) in xd.iter().zip(xs.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // Closed form: E[steps from state i] = (i+1)(n−i) for the fair walk.
        for (i, v) in xd.iter().enumerate() {
            let want = ((i + 1) * (40 - i)) as f64;
            assert!((v - want).abs() < 1e-8, "i={i}: {v} vs {want}");
        }
    }

    #[test]
    fn transposed_solves_agree() {
        let q = ruin_block(30, 0.35);
        let mut b = vec![0.0; 30];
        b[4] = 1.0;
        b[17] = 0.25;
        let dense = TransientSolver::new(&q, SolverOptions::force_dense()).unwrap();
        let sparse = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let xd = dense.solve_transposed(&b).unwrap();
        let xs = sparse.solve_transposed(&b).unwrap();
        for (a, c) in xd.iter().zip(xs.iter()) {
            assert!((a - c).abs() < 1e-8);
        }
    }

    #[test]
    fn batched_solves_match_individual() {
        let q = ruin_block(12, 0.5);
        let solver = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..12)
                    .map(|i| if i % 3 == k { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let batched = solver.solve_many(&rhs).unwrap();
        // Later solves start from the learned relaxation factor, so they
        // are equivalent to the residual tolerance rather than bit-equal.
        for (b, x) in rhs.iter().zip(batched.iter()) {
            for (u, v) in solver.solve(b).unwrap().iter().zip(x.iter()) {
                assert!((u - v).abs() < 1e-10, "{u} vs {v}");
            }
        }
        // A fresh instance replays the identical call sequence
        // bit-identically (the determinism contract).
        let replay = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        assert_eq!(replay.solve_many(&rhs).unwrap(), batched);
    }

    #[test]
    fn crossover_picks_the_path() {
        let q = ruin_block(8, 0.5);
        let opts = SolverOptions {
            crossover: 9,
            ..SolverOptions::default()
        };
        assert!(!TransientSolver::new(&q, opts).unwrap().is_iterative());
        let opts = SolverOptions {
            crossover: 8,
            ..SolverOptions::default()
        };
        assert!(TransientSolver::new(&q, opts).unwrap().is_iterative());
    }

    #[test]
    fn iterative_path_beats_stationary_sweeps_on_large_walks() {
        // Plain Gauss–Seidel needs ~3·n² ≈ 500k sweeps on this slowly
        // mixing walk; the Krylov path must land the right answer in a
        // tiny fraction of that.
        let n = 400;
        let q = ruin_block(n, 0.5);
        let solver = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let (x, stats) = solver.solve_with_stats(&vec![1.0; n]).unwrap();
        let stats = stats.expect("iterative path reports stats");
        assert!(stats.sweeps < 10_000, "iterations = {}", stats.sweeps);
        let mid = x[n / 2 - 1];
        let want = ((n / 2) * (n - n / 2 + 1)) as f64;
        // The solution magnitude is ~n²/4, so judge the residual
        // relatively.
        assert!(
            stats.residual < 1e-8 * want,
            "residual = {}",
            stats.residual
        );
        assert!((mid - want).abs() / want < 1e-9, "{mid} vs {want}");
    }

    /// A lazy walk: heavy, *state-dependent* self-loops give `I − Q` a
    /// strongly varying diagonal — the regime a Jacobi preconditioner
    /// actually rescales (a constant diagonal makes it the identity).
    fn lazy_ruin_block(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            let stay = 0.05 + 0.9 * (i as f64 / n as f64);
            let hop = (1.0 - stay) / 2.0;
            triplets.push((i, i, stay));
            if i + 1 < n {
                triplets.push((i, i + 1, hop));
            }
            if i > 0 {
                triplets.push((i, i - 1, hop));
            }
        }
        CsrMatrix::from_triplet_vec(n, n, triplets).unwrap()
    }

    #[test]
    fn jacobi_preconditioned_path_agrees_with_dense_and_plain() {
        let q = lazy_ruin_block(300);
        let ones = vec![1.0; 300];
        let dense = TransientSolver::new(&q, SolverOptions::force_dense()).unwrap();
        let plain = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let jacobi =
            TransientSolver::new(&q, SolverOptions::force_sparse().with_jacobi(true)).unwrap();
        let xd = dense.solve(&ones).unwrap();
        let (xp, sp) = plain.solve_with_stats(&ones).unwrap();
        let (xj, sj) = jacobi.solve_with_stats(&ones).unwrap();
        let scale = xd.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        for i in 0..300 {
            assert!((xd[i] - xj[i]).abs() < 1e-8 * scale, "i={i}");
            assert!((xd[i] - xp[i]).abs() < 1e-8 * scale, "i={i}");
        }
        // Both iterative runs landed on the Krylov path (omega is NaN
        // only for BiCGSTAB results) and the preconditioned one did not
        // regress the iteration count on this varied-diagonal system.
        let (sp, sj) = (sp.unwrap(), sj.unwrap());
        assert!(sp.omega.is_nan() && sj.omega.is_nan());
        assert!(
            sj.sweeps <= sp.sweeps + 8,
            "jacobi {} vs plain {}",
            sj.sweeps,
            sp.sweeps
        );
        // Transposed solves share the preconditioner.
        let xt = jacobi.solve_transposed(&ones).unwrap();
        let xtd = dense.solve_transposed(&ones).unwrap();
        for i in 0..300 {
            assert!((xt[i] - xtd[i]).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn jacobi_is_identity_on_unit_diagonals() {
        // Zero self-loops: D = I, so preconditioned and plain runs are
        // the *same* recurrence, bit for bit.
        let q = ruin_block(64, 0.4);
        let b: Vec<f64> = (0..64).map(|i| (i % 5) as f64).collect();
        let plain = TransientSolver::new(&q, SolverOptions::force_sparse()).unwrap();
        let jacobi =
            TransientSolver::new(&q, SolverOptions::force_sparse().with_jacobi(true)).unwrap();
        assert_eq!(plain.solve(&b).unwrap(), jacobi.solve(&b).unwrap());
    }

    #[test]
    fn rejects_bad_blocks() {
        // Not square.
        let q = CsrMatrix::from_triplets(2, 3, &[(0, 0, 0.5)]).unwrap();
        assert!(TransientSolver::new(&q, SolverOptions::default()).is_err());
        // Negative entry.
        let q = CsrMatrix::from_triplets(2, 2, &[(0, 1, -0.5)]).unwrap();
        assert!(TransientSolver::new(&q, SolverOptions::default()).is_err());
        // Super-stochastic row.
        let q = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.7), (0, 1, 0.5)]).unwrap();
        assert!(TransientSolver::new(&q, SolverOptions::default()).is_err());
        // Wrong-length right-hand side.
        let q = ruin_block(4, 0.5);
        let solver = TransientSolver::new(&q, SolverOptions::default()).unwrap();
        assert!(solver.solve(&[1.0]).is_err());
    }

    #[test]
    fn closed_class_is_singular_on_the_iterative_path() {
        // Row 0 is a self-loop with probability 1: 1 − Q_00 = 0.
        let q = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 0.5)]).unwrap();
        let r = TransientSolver::new(&q, SolverOptions::force_sparse());
        assert!(matches!(r, Err(LinalgError::Singular { pivot: 0 })));
    }

    #[test]
    fn empty_block() {
        let q = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let solver = TransientSolver::new(&q, SolverOptions::default()).unwrap();
        assert_eq!(solver.n(), 0);
        assert_eq!(solver.solve(&[]).unwrap(), Vec::<f64>::new());
    }
}
