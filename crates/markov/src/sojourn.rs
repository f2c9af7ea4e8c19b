use std::sync::{Arc, OnceLock};

use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::{vec_ops, Lu, Matrix, SolverOptions, TransientSolver};

use crate::sparse_chain::sparse_block;
use crate::{Dtmc, MarkovError, SparseDtmc};

/// A two-subset partition `(S, P)` of (a subset of) the transient states of
/// a chain, given by global state indices.
///
/// In the DSN'11 model `S` holds the transient *safe* cluster states and
/// `P` the transient *polluted* ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SojournPartition {
    s_states: Vec<usize>,
    p_states: Vec<usize>,
}

impl SojournPartition {
    /// Creates a partition from the two disjoint index sets.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidPartition`] if the sets overlap.
    pub fn new(s_states: Vec<usize>, p_states: Vec<usize>) -> Result<Self, MarkovError> {
        for s in &s_states {
            if p_states.contains(s) {
                return Err(MarkovError::InvalidPartition(format!(
                    "state {s} appears in both subsets"
                )));
            }
        }
        Ok(SojournPartition { s_states, p_states })
    }

    /// Global indices of the `S` subset.
    pub fn s_states(&self) -> &[usize] {
        &self.s_states
    }

    /// Global indices of the `P` subset.
    pub fn p_states(&self) -> &[usize] {
        &self.p_states
    }
}

/// The solver bundle of a sojourn partition, built **once** and shared by
/// every downstream analysis stage and every initial distribution.
///
/// The analyses solve against three censored blocks: the full transient
/// block `T = S ∪ P` (totals, variances, absorption metrics) and the `S`
/// and `P` blocks (sojourn series and distributions, hitting
/// probabilities). Construction extracts the blocks and sets up the `T`
/// solver, so a partition holding a closed class fails here; the `S` and
/// `P` solvers are set up on first use (a principal sub-block of a
/// non-singular transient block is non-singular), so a reader of totals
/// alone never factors them. Clones share everything, the solvers set up
/// later included.
///
/// Index sets are stored sorted ascending (the CSR block order).
#[derive(Debug, Clone)]
pub struct PartitionSolvers {
    blocks: Arc<Blocks>,
}

#[derive(Debug)]
struct Blocks {
    t_idx: Vec<usize>,
    s_idx: Vec<usize>,
    p_idx: Vec<usize>,
    /// `true` at the positions of `T` that belong to `S`.
    in_s: Vec<bool>,
    options: SolverOptions,
    solver_t: TransientSolver,
    m_s: CsrMatrix,
    m_sp: CsrMatrix,
    m_ps: CsrMatrix,
    m_p: CsrMatrix,
    solver_s: OnceLock<Result<TransientSolver, MarkovError>>,
    solver_p: OnceLock<Result<TransientSolver, MarkovError>>,
}

/// One subset of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subset {
    S,
    P,
}

impl Subset {
    fn other(self) -> Self {
        match self {
            Subset::S => Subset::P,
            Subset::P => Subset::S,
        }
    }
}

/// One side's view of the blocks: `A` is "our" subset, `B` the other.
struct Roles<'a> {
    a_idx: &'a [usize],
    b_idx: &'a [usize],
    m_a: &'a CsrMatrix,
    m_ab: &'a CsrMatrix,
    m_ba: &'a CsrMatrix,
}

/// The value in `cell`, computed by `f` on first read. A failure is kept
/// too: reading again would replay the same solves.
fn cached<T>(
    cell: &OnceLock<Result<T, MarkovError>>,
    f: impl FnOnce() -> Result<T, MarkovError>,
) -> Result<&T, MarkovError> {
    cell.get_or_init(f).as_ref().map_err(Clone::clone)
}

impl PartitionSolvers {
    /// Extracts the censored blocks of `partition` from `chain` and sets
    /// up the solver of the full transient block.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidState`] for an out-of-range partition
    ///   index.
    /// * [`MarkovError::Linalg`] when the transient block is singular
    ///   (a subset contains a closed class).
    pub fn build(
        chain: &SparseDtmc,
        partition: &SojournPartition,
        options: SolverOptions,
    ) -> Result<Self, MarkovError> {
        let n = chain.n_states();
        for &i in partition.s_states().iter().chain(partition.p_states()) {
            if i >= n {
                return Err(MarkovError::InvalidState {
                    index: i,
                    states: n,
                });
            }
        }
        let mut s_idx = partition.s_states().to_vec();
        let mut p_idx = partition.p_states().to_vec();
        s_idx.sort_unstable();
        p_idx.sort_unstable();
        let mut t_idx: Vec<usize> = s_idx.iter().chain(p_idx.iter()).copied().collect();
        t_idx.sort_unstable();

        let p = chain.matrix();
        let solver_t = TransientSolver::new(&sparse_block(p, &t_idx, &t_idx), options)?;
        let mut s_members = s_idx.iter().peekable();
        let in_s = t_idx
            .iter()
            .map(|g| s_members.next_if_eq(&g).is_some())
            .collect();
        Ok(PartitionSolvers {
            blocks: Arc::new(Blocks {
                m_s: sparse_block(p, &s_idx, &s_idx),
                m_sp: sparse_block(p, &s_idx, &p_idx),
                m_ps: sparse_block(p, &p_idx, &s_idx),
                m_p: sparse_block(p, &p_idx, &p_idx),
                t_idx,
                s_idx,
                p_idx,
                in_s,
                options,
                solver_t,
                solver_s: OnceLock::new(),
                solver_p: OnceLock::new(),
            }),
        })
    }

    /// Sorted global indices of `T = S ∪ P`.
    pub fn t_indices(&self) -> &[usize] {
        &self.blocks.t_idx
    }

    /// Sorted global indices of `S`.
    pub fn s_indices(&self) -> &[usize] {
        &self.blocks.s_idx
    }

    /// Sorted global indices of `P`.
    pub fn p_indices(&self) -> &[usize] {
        &self.blocks.p_idx
    }

    /// Solver for `I − Q_T` (the full transient block).
    pub fn solver_t(&self) -> &TransientSolver {
        &self.blocks.solver_t
    }

    /// Solver for `I − M_S`, set up on the first call.
    ///
    /// # Errors
    ///
    /// [`MarkovError::Linalg`] when the set-up fails; later calls return
    /// the same error.
    pub fn solver_s(&self) -> Result<&TransientSolver, MarkovError> {
        self.solver(Subset::S)
    }

    /// Solver for `I − M_P`, set up on the first call.
    ///
    /// # Errors
    ///
    /// As [`PartitionSolvers::solver_s`].
    pub fn solver_p(&self) -> Result<&TransientSolver, MarkovError> {
        self.solver(Subset::P)
    }

    fn solver(&self, subset: Subset) -> Result<&TransientSolver, MarkovError> {
        let b = &*self.blocks;
        let (cell, block) = match subset {
            Subset::S => (&b.solver_s, &b.m_s),
            Subset::P => (&b.solver_p, &b.m_p),
        };
        cached(cell, || Ok(TransientSolver::new(block, b.options)?))
    }

    fn roles(&self, a: Subset) -> Roles<'_> {
        let b = &*self.blocks;
        match a {
            Subset::S => Roles {
                a_idx: &b.s_idx,
                b_idx: &b.p_idx,
                m_a: &b.m_s,
                m_ab: &b.m_sp,
                m_ba: &b.m_ps,
            },
            Subset::P => Roles {
                a_idx: &b.p_idx,
                b_idx: &b.s_idx,
                m_a: &b.m_p,
                m_ab: &b.m_ps,
                m_ba: &b.m_sp,
            },
        }
    }

    /// Whether each position of `T` belongs to `a`.
    fn mask(&self, a: Subset) -> impl Iterator<Item = bool> + '_ {
        let want = a == Subset::S;
        self.blocks.in_s.iter().map(move |&in_s| in_s == want)
    }
}

/// Sojourn-time analysis for a two-subset partition of transient states,
/// following Sericola (1990) and Rubino & Sericola (1989) as used in the
/// DSN'11 paper (Relations (5)–(8)).
///
/// Let `T_S` be the total number of steps the chain spends in `S` before
/// absorption, and `T_{S,n}` the length of its n-th sojourn in `S`
/// (symmetrically for `P`). With
///
/// * `v = α_S + α_P (I − M_P)^{-1} M_PS`,
/// * `R = M_S + M_SP (I − M_P)^{-1} M_PS`,
/// * `G = (I − M_S)^{-1} M_SP (I − M_P)^{-1} M_PS`,
///
/// the quantities computed here are
///
/// * `E(T_S) = v (I − R)^{-1} 1`                        (Relation 5)
/// * `E(T_{S,n}) = v G^{n-1} (I − M_S)^{-1} 1`          (Relation 7)
/// * `P(T_S = 0) = 1 − v·1`, `P(T_S = j) = v R^{j-1} (I − R) 1`
/// * `E[T_S (T_S − 1)] = 2 v R (I − R)^{-2} 1` (for the variance)
///
/// and the mirror-image set for `P` (Relations 6 and 8).
///
/// # Example
///
/// A gambler's-ruin walk on `{0, 1, 2, 3}` with absorbing barriers,
/// partitioned into `S = {1}` and `P = {2}`: started at state 1, the
/// chain spends two steps in expectation in the transient band, split
/// evenly between the two subsets.
///
/// ```
/// use pollux_markov::{Dtmc, SojournAnalysis, SojournPartition};
///
/// # fn main() -> Result<(), pollux_markov::MarkovError> {
/// let chain = Dtmc::from_rows(&[
///     &[1.0, 0.0, 0.0, 0.0],
///     &[0.5, 0.0, 0.5, 0.0],
///     &[0.0, 0.5, 0.0, 0.5],
///     &[0.0, 0.0, 0.0, 1.0],
/// ])?;
/// let partition = SojournPartition::new(vec![1], vec![2])?;
/// let alpha = [0.0, 1.0, 0.0, 0.0];
/// let sojourns = SojournAnalysis::new(&chain, &partition, &alpha)?;
/// let e_s = sojourns.expected_total_s()?;
/// let e_p = sojourns.expected_total_p()?;
/// assert!((e_s + e_p - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SojournAnalysis {
    pipeline: Pipeline,
}

/// Representation of the analysis.
#[derive(Debug, Clone)]
enum Pipeline {
    /// Dense censored matrices and LU factors (the historical path): the
    /// `S` side, then the `P` side.
    Dense(Box<[SubsetAnalysis; 2]>),
    /// Operator-form sparse path: `R` and `G` are never materialized,
    /// every application is a chain of CSR products and block solves,
    /// and every quantity is computed on first read.
    Sparse(Box<SparseSojourns>),
}

/// One side (`S` or `P`) of the analysis; the other side is obtained by
/// swapping the roles of the two subsets.
#[derive(Debug, Clone)]
struct SubsetAnalysis {
    /// Entry vector `v` (defective distribution of the first visited state
    /// of the subset).
    v: Vec<f64>,
    /// Censored transition matrix `R` on the subset.
    r: Matrix,
    /// LU factors of `I − R`.
    lu_r: Option<Lu>,
    /// Sojourn transfer matrix `G`.
    g: Matrix,
    /// `(I − M_S)^{-1} 1` (expected length of one sojourn started in each
    /// state of the subset).
    one_sojourn: Vec<f64>,
}

impl SojournAnalysis {
    /// Builds the analysis for `chain`, `partition` and initial
    /// distribution `alpha` (over **all** states of the chain; only the
    /// mass on `S ∪ P` matters, as in the paper).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidState`] if a partition index is out of range.
    /// * [`MarkovError::InvalidDistribution`] if `alpha` has the wrong
    ///   length, negative mass, or total mass exceeding 1.
    /// * [`MarkovError::Linalg`] if a censored system is singular, which
    ///   happens exactly when a subset contains a closed class (the subset
    ///   must be transient).
    pub fn new(
        chain: &Dtmc,
        partition: &SojournPartition,
        alpha: &[f64],
    ) -> Result<Self, MarkovError> {
        let n = chain.n_states();
        for &i in partition.s_states().iter().chain(partition.p_states()) {
            if i >= n {
                return Err(MarkovError::InvalidState {
                    index: i,
                    states: n,
                });
            }
        }
        if alpha.len() != n {
            return Err(MarkovError::InvalidDistribution(format!(
                "length {} does not match {} states",
                alpha.len(),
                n
            )));
        }
        if alpha.iter().any(|&a| a < -1e-12) {
            return Err(MarkovError::InvalidDistribution(
                "negative probability mass".into(),
            ));
        }
        if alpha.iter().sum::<f64>() > 1.0 + 1e-9 {
            return Err(MarkovError::InvalidDistribution(
                "total mass exceeds 1".into(),
            ));
        }

        let s_idx = partition.s_states();
        let p_idx = partition.p_states();
        let m = chain.matrix();
        let alpha_s = vec_ops::gather(alpha, s_idx);
        let alpha_p = vec_ops::gather(alpha, p_idx);

        let side_s = SubsetAnalysis::build(m, s_idx, p_idx, &alpha_s, &alpha_p)?;
        let side_p = SubsetAnalysis::build(m, p_idx, s_idx, &alpha_p, &alpha_s)?;
        Ok(SojournAnalysis {
            pipeline: Pipeline::Dense(Box::new([side_s, side_p])),
        })
    }

    /// Builds the analysis on a sparse chain without ever materializing
    /// the censored matrices `R` and `G`: every quantity is evaluated in
    /// operator form through CSR blocks and the crossover-aware
    /// [`TransientSolver`] (dense LU below `options.crossover` unknowns,
    /// BiCGSTAB with SOR fallbacks in O(nnz) per iteration above).
    ///
    /// The totals and variances use the full-transient-block identities
    ///
    /// * `E(T_S) = α_T N 1_S` with `N = (I − Q_T)⁻¹` over `T = S ∪ P`,
    /// * `E[T_S (T_S − 1)] = 2 (α_T N) I_S (N − I) 1_S`,
    ///
    /// which are algebraically equal to Relations (5)–(6) but need two
    /// sparse solves instead of a censored-matrix inverse. Sojourn series
    /// and distributions iterate `G`- and `R`-applications as solve
    /// chains.
    ///
    /// Construction sets up the `T` solver and solves nothing: each
    /// quantity is computed on its first read and kept, and only the
    /// series and distributions set up the `S` and `P` solvers. A dense
    /// LU solve depends on its right-hand side alone, so the read order
    /// never changes a bit below `options.crossover`; above it, the SOR
    /// fallback carries a learned relaxation factor across solves, so
    /// bits follow the read order whenever BiCGSTAB breaks down.
    ///
    /// # Errors
    ///
    /// As [`SojournAnalysis::new`]. A solve that fails (for example an
    /// iterative solve exhausting its budget) surfaces from the reader
    /// that needed it: the `Result` readers return it, the series /
    /// distribution readers *panic* (see their `# Panics` sections).
    pub fn new_sparse(
        chain: &SparseDtmc,
        partition: &SojournPartition,
        alpha: &[f64],
        options: SolverOptions,
    ) -> Result<Self, MarkovError> {
        let solvers = PartitionSolvers::build(chain, partition, options)?;
        Self::new_sparse_shared(chain, alpha, &solvers)
    }

    /// As [`SojournAnalysis::new_sparse`] with a prebuilt
    /// [`PartitionSolvers`] bundle — sibling stages (absorption, hitting)
    /// and analyses of other initial distributions reuse the same
    /// factorizations instead of setting the blocks up again.
    ///
    /// # Errors
    ///
    /// As [`SojournAnalysis::new_sparse`] (the bundle already validated
    /// the partition against the chain).
    pub fn new_sparse_shared(
        chain: &SparseDtmc,
        alpha: &[f64],
        solvers: &PartitionSolvers,
    ) -> Result<Self, MarkovError> {
        let n = chain.n_states();
        if alpha.len() != n {
            return Err(MarkovError::InvalidDistribution(format!(
                "length {} does not match {} states",
                alpha.len(),
                n
            )));
        }
        if alpha.iter().any(|&a| a < -1e-12) {
            return Err(MarkovError::InvalidDistribution(
                "negative probability mass".into(),
            ));
        }
        if alpha.iter().sum::<f64>() > 1.0 + 1e-9 {
            return Err(MarkovError::InvalidDistribution(
                "total mass exceeds 1".into(),
            ));
        }

        let alpha_t = vec_ops::gather(alpha, solvers.t_indices());
        Ok(SojournAnalysis {
            pipeline: Pipeline::Sparse(Box::new(SparseSojourns {
                solvers: solvers.clone(),
                alpha: alpha.to_vec(),
                alpha_t,
                weights: OnceLock::new(),
                sides: Default::default(),
            })),
        })
    }

    /// `E(T_S)` — expected total time in `S` before absorption
    /// (Relation 5).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn expected_total_s(&self) -> Result<f64, MarkovError> {
        self.expected_total(Subset::S)
    }

    /// `E(T_P)` — expected total time in `P` before absorption
    /// (Relation 6).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn expected_total_p(&self) -> Result<f64, MarkovError> {
        self.expected_total(Subset::P)
    }

    /// `E(T_{S,n})` for `n = 1, 2, …, count` (Relation 7).
    ///
    /// # Panics
    ///
    /// On a [`SojournAnalysis::new_sparse`] analysis, panics when
    /// setting up the censored-block solvers fails (impossible for a
    /// partition of transient states, whose blocks are non-singular) or,
    /// on the iterative path, in the remote (three solver fallbacks deep)
    /// event that a censored-block solve exhausts its budget. The dense
    /// path never panics.
    pub fn expected_sojourns_s(&self, count: usize) -> Vec<f64> {
        self.expected_sojourns(Subset::S, count)
    }

    /// `E(T_{P,n})` for `n = 1, 2, …, count` (Relation 8).
    ///
    /// # Panics
    ///
    /// As [`SojournAnalysis::expected_sojourns_s`].
    pub fn expected_sojourns_p(&self, count: usize) -> Vec<f64> {
        self.expected_sojourns(Subset::P, count)
    }

    /// Distribution `P(T_S = j)` for `j = 0, …, j_max`.
    ///
    /// # Panics
    ///
    /// As [`SojournAnalysis::expected_sojourns_s`].
    pub fn distribution_s(&self, j_max: usize) -> Vec<f64> {
        self.distribution(Subset::S, j_max)
    }

    /// Distribution `P(T_P = j)` for `j = 0, …, j_max`.
    ///
    /// # Panics
    ///
    /// As [`SojournAnalysis::expected_sojourns_s`].
    pub fn distribution_p(&self, j_max: usize) -> Vec<f64> {
        self.distribution(Subset::P, j_max)
    }

    /// Variance of `T_S`.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn variance_s(&self) -> Result<f64, MarkovError> {
        self.variance(Subset::S)
    }

    /// Variance of `T_P`.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures.
    pub fn variance_p(&self) -> Result<f64, MarkovError> {
        self.variance(Subset::P)
    }

    fn expected_total(&self, side: Subset) -> Result<f64, MarkovError> {
        match &self.pipeline {
            Pipeline::Dense(sides) => sides[side as usize].expected_total(),
            Pipeline::Sparse(sparse) => sparse.total(side).map(|&(total, _)| total),
        }
    }

    fn expected_sojourns(&self, side: Subset, count: usize) -> Vec<f64> {
        match &self.pipeline {
            Pipeline::Dense(sides) => sides[side as usize].expected_sojourns(count),
            Pipeline::Sparse(sparse) => sparse.expected_sojourns(side, count),
        }
    }

    fn distribution(&self, side: Subset, j_max: usize) -> Vec<f64> {
        match &self.pipeline {
            Pipeline::Dense(sides) => sides[side as usize].distribution(j_max),
            Pipeline::Sparse(sparse) => sparse.distribution(side, j_max),
        }
    }

    fn variance(&self, side: Subset) -> Result<f64, MarkovError> {
        match &self.pipeline {
            Pipeline::Dense(sides) => sides[side as usize].variance(),
            Pipeline::Sparse(sparse) => sparse.variance(side),
        }
    }
}

impl SubsetAnalysis {
    /// Builds one side of the analysis: `a_idx` is "our" subset, `b_idx`
    /// the other one.
    fn build(
        m: &Matrix,
        a_idx: &[usize],
        b_idx: &[usize],
        alpha_a: &[f64],
        alpha_b: &[f64],
    ) -> Result<Self, MarkovError> {
        let na = a_idx.len();
        let nb = b_idx.len();
        let m_a = m.submatrix(a_idx, a_idx);
        let m_ab = m.submatrix(a_idx, b_idx);
        let m_ba = m.submatrix(b_idx, a_idx);
        let m_b = m.submatrix(b_idx, b_idx);

        let lu_a = Lu::decompose(&(&Matrix::identity(na) - &m_a))?;
        let lu_b = Lu::decompose(&(&Matrix::identity(nb) - &m_b))?;

        // W = (I - M_B)^{-1} M_BA, solved column by column.
        let mut w = Matrix::zeros(nb, na);
        for j in 0..na {
            let col = lu_b.solve(&m_ba.col(j))?;
            for i in 0..nb {
                w[(i, j)] = col[i];
            }
        }

        // v = alpha_A + alpha_B (I - M_B)^{-1} M_BA.
        let z = lu_b.solve_transposed(alpha_b)?;
        let v = vec_ops::add(alpha_a, &m_ba.vec_mul(&z));

        // R = M_A + M_AB W ;  G = (I - M_A)^{-1} (M_AB W).
        let u = m_ab.matmul(&w)?;
        let r = &m_a + &u;
        let mut g = Matrix::zeros(na, na);
        for j in 0..na {
            let col = lu_a.solve(&u.col(j))?;
            for i in 0..na {
                g[(i, j)] = col[i];
            }
        }

        let one_sojourn = lu_a.solve(&vec![1.0; na])?;
        let lu_r = if na > 0 {
            Some(Lu::decompose(&(&Matrix::identity(na) - &r))?)
        } else {
            None
        };
        Ok(SubsetAnalysis {
            v,
            r,
            lu_r,
            g,
            one_sojourn,
        })
    }

    fn expected_total(&self) -> Result<f64, MarkovError> {
        match &self.lu_r {
            None => Ok(0.0),
            Some(lu) => {
                let u = lu.solve(&vec![1.0; self.v.len()])?;
                Ok(vec_ops::dot(&self.v, &u))
            }
        }
    }

    fn expected_sojourns(&self, count: usize) -> Vec<f64> {
        if self.v.is_empty() {
            return vec![0.0; count];
        }
        let mut out = Vec::with_capacity(count);
        let mut u = self.one_sojourn.clone();
        for n in 0..count {
            if n > 0 {
                u = self.g.mul_vec(&u);
            }
            out.push(vec_ops::dot(&self.v, &u));
        }
        out
    }

    fn distribution(&self, j_max: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(j_max + 1);
        let entering: f64 = vec_ops::sum(&self.v);
        out.push((1.0 - entering).max(0.0));
        if self.v.is_empty() {
            out.resize(j_max + 1, 0.0);
            return out;
        }
        // e = (I - R) 1, per-state exit probability of the censored chain.
        let e: Vec<f64> = self
            .r
            .row_sums()
            .iter()
            .map(|s| (1.0 - s).max(0.0))
            .collect();
        let mut cur = self.v.clone();
        for _ in 1..=j_max {
            out.push(vec_ops::dot(&cur, &e));
            cur = self.r.vec_mul(&cur);
        }
        out
    }

    fn variance(&self) -> Result<f64, MarkovError> {
        match &self.lu_r {
            None => Ok(0.0),
            Some(lu) => {
                let ones = vec![1.0; self.v.len()];
                let u1 = lu.solve(&ones)?;
                let u2 = lu.solve(&u1)?;
                let m1 = vec_ops::dot(&self.v, &u1);
                let m2f = 2.0 * vec_ops::dot(&self.v, &self.r.mul_vec(&u2));
                Ok(m2f + m1 - m1 * m1)
            }
        }
    }
}

/// The sparse analysis of one initial distribution. `A` below is the
/// side being read, `B` the other; the censored operators are applied as
/// solve chains:
///
/// * `R y   = M_A y + M_AB (I − M_B)⁻¹ M_BA y`
/// * `G y   = (I − M_A)⁻¹ M_AB (I − M_B)⁻¹ M_BA y`
/// * `x R   = (x M_A) + ((x M_AB) (I − M_B)⁻¹) M_BA`
///
/// Totals and variances solve against the `T` block only; the series
/// and distributions set up the `S` and `P` solvers on first read.
#[derive(Debug, Clone)]
struct SparseSojourns {
    solvers: PartitionSolvers,
    /// The initial distribution over every state of the chain.
    alpha: Vec<f64>,
    /// Its restriction to `T`, in sorted order.
    alpha_t: Vec<f64>,
    /// `α_T N`, shared by both sides' variances.
    weights: OnceLock<Result<Vec<f64>, MarkovError>>,
    /// The `S` side, then the `P` side.
    sides: [SparseSide; 2],
}

/// What one side computed so far.
#[derive(Debug, Clone, Default)]
struct SparseSide {
    /// `E(T_A) = α_T N 1_A` and the occupancy `N 1_A` behind it.
    total: OnceLock<Result<(f64, Vec<f64>), MarkovError>>,
    /// `Var(T_A)` from the full-block identity.
    variance: OnceLock<Result<f64, MarkovError>>,
    /// The vectors the sojourn series and distribution iterate from.
    series: OnceLock<Result<Series, MarkovError>>,
}

#[derive(Debug, Clone)]
struct Series {
    /// Entry vector `v` over `A` (defective distribution of the first
    /// visited state of the subset).
    v: Vec<f64>,
    /// `(I − M_A)⁻¹ 1` — expected length of one sojourn per entry state.
    one_sojourn: Vec<f64>,
    /// `(I − R) 1` — per-state exit probability of the censored chain.
    r_exit: Vec<f64>,
}

impl SparseSojourns {
    fn total(&self, a: Subset) -> Result<&(f64, Vec<f64>), MarkovError> {
        cached(&self.sides[a as usize].total, || {
            let ind_a: Vec<f64> = self
                .solvers
                .mask(a)
                .map(|m| if m { 1.0 } else { 0.0 })
                .collect();
            let occupancy = self.solvers.solver_t().solve(&ind_a)?;
            Ok((vec_ops::dot(&self.alpha_t, &occupancy), occupancy))
        })
    }

    fn variance(&self, a: Subset) -> Result<f64, MarkovError> {
        cached(&self.sides[a as usize].variance, || {
            if self.solvers.roles(a).a_idx.is_empty() {
                return Ok(0.0);
            }
            // The factorial moment
            // E[T_A (T_A − 1)] = 2 Σ_{i ∈ A} (α_T N)_i ((N 1_A)_i − 1).
            let &(expected_total, ref occupancy) = self.total(a)?;
            let weights = cached(&self.weights, || {
                Ok(self.solvers.solver_t().solve_transposed(&self.alpha_t)?)
            })?;
            let mut factorial = 0.0;
            for (i, in_a) in self.solvers.mask(a).enumerate() {
                if in_a {
                    factorial += weights[i] * (occupancy[i] - 1.0);
                }
            }
            Ok(2.0 * factorial + expected_total - expected_total * expected_total)
        })
        .copied()
    }

    fn series(&self, a: Subset) -> &Series {
        cached(&self.sides[a as usize].series, || {
            let r = self.solvers.roles(a);
            let (solver_a, solver_b) = (self.solvers.solver(a)?, self.solvers.solver(a.other())?);
            let na = r.a_idx.len();
            let alpha_a = vec_ops::gather(&self.alpha, r.a_idx);
            let alpha_b = vec_ops::gather(&self.alpha, r.b_idx);

            // v = α_A + α_B (I − M_B)⁻¹ M_BA.
            let z = solver_b.solve_transposed(&alpha_b)?;
            let v = vec_ops::add(&alpha_a, &r.m_ba.vec_mul(&z));

            let one_sojourn = solver_a.solve(&vec![1.0; na])?;

            // (I − R) 1 = 1 − M_A 1 − M_AB (I − M_B)⁻¹ M_BA 1.
            let w1 = solver_b.solve(&r.m_ba.mul_vec(&vec![1.0; na]))?;
            let mut r_one = r.m_a.mul_vec(&vec![1.0; na]);
            r.m_ab.mul_add(&w1, &mut r_one);
            let r_exit = r_one.iter().map(|s| (1.0 - s).max(0.0)).collect();
            Ok(Series {
                v,
                one_sojourn,
                r_exit,
            })
        })
        .expect("censored block set-up and solves succeed on a transient partition")
    }

    /// `E(T_{A,n})` for `n = 1..=count`: iterate `u ← G u` starting from
    /// `(I − M_A)⁻¹ 1` and dot with `v` (Relations 7–8).
    fn expected_sojourns(&self, a: Subset, count: usize) -> Vec<f64> {
        if self.solvers.roles(a).a_idx.is_empty() {
            return vec![0.0; count];
        }
        let series = self.series(a);
        let mut out = Vec::with_capacity(count);
        let mut u = series.one_sojourn.clone();
        for n in 0..count {
            if n > 0 {
                u = self.apply_g(a, &u);
            }
            out.push(vec_ops::dot(&series.v, &u));
        }
        out
    }

    /// `P(T_A = j)` for `j = 0..=j_max`: iterate the row vector `v Rʲ⁻¹`
    /// and dot with the exit probabilities.
    fn distribution(&self, a: Subset, j_max: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(j_max + 1);
        if self.solvers.roles(a).a_idx.is_empty() {
            // No entry mass: T_A = 0 surely.
            out.push(1.0);
            out.resize(j_max + 1, 0.0);
            return out;
        }
        let series = self.series(a);
        let entering: f64 = vec_ops::sum(&series.v);
        out.push((1.0 - entering).max(0.0));
        let mut cur = series.v.clone();
        for _ in 1..=j_max {
            out.push(vec_ops::dot(&cur, &series.r_exit));
            cur = self.apply_r_left(a, &cur);
        }
        out
    }

    /// The `A` and `B` solvers, which [`SparseSojourns::series`] set up.
    fn solvers_ab(&self, a: Subset) -> (&TransientSolver, &TransientSolver) {
        let set_up = "series() set the censored block solvers up";
        (
            self.solvers.solver(a).expect(set_up),
            self.solvers.solver(a.other()).expect(set_up),
        )
    }

    /// `G u` as a solve chain (no materialized `G`).
    fn apply_g(&self, a: Subset, u: &[f64]) -> Vec<f64> {
        let r = self.solvers.roles(a);
        let (solver_a, solver_b) = self.solvers_ab(a);
        let through_b = solver_b
            .solve(&r.m_ba.mul_vec(u))
            .expect("censored block solves succeed after set-up");
        solver_a
            .solve(&r.m_ab.mul_vec(&through_b))
            .expect("censored block solves succeed after set-up")
    }

    /// `x R` (row vector) as a solve chain (no materialized `R`).
    fn apply_r_left(&self, a: Subset, x: &[f64]) -> Vec<f64> {
        let r = self.solvers.roles(a);
        let (_, solver_b) = self.solvers_ab(a);
        let mut out = r.m_a.vec_mul(x);
        let through_b = solver_b
            .solve_transposed(&r.m_ab.vec_mul(x))
            .expect("censored block solves succeed after set-up");
        let back = r.m_ba.vec_mul(&through_b);
        for (o, b) in out.iter_mut().zip(back.iter()) {
            *o += b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbsorbingChain;
    use rand::{rngs::StdRng, SeedableRng};

    /// Gambler's ruin on {0..4}: transient {1,2,3}; S = {1}, P = {2,3}.
    fn setup() -> (Dtmc, SojournPartition, Vec<f64>) {
        let chain = Dtmc::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.5, 0.0, 0.5, 0.0, 0.0],
            &[0.0, 0.5, 0.0, 0.5, 0.0],
            &[0.0, 0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let partition = SojournPartition::new(vec![1], vec![2, 3]).unwrap();
        let alpha = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        (chain, partition, alpha)
    }

    #[test]
    fn partition_rejects_overlap() {
        assert!(SojournPartition::new(vec![1, 2], vec![2, 3]).is_err());
    }

    #[test]
    fn totals_split_expected_absorption_time() {
        let (chain, partition, alpha) = setup();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let abs = AbsorbingChain::new(&chain).unwrap();
        let total_s = soj.expected_total_s().unwrap();
        let total_p = soj.expected_total_p().unwrap();
        let want = abs.expected_steps(&alpha).unwrap();
        assert!(
            (total_s + total_p - want).abs() < 1e-10,
            "{total_s} + {total_p} != {want}"
        );
    }

    #[test]
    fn sojourn_series_sums_to_total() {
        let (chain, partition, alpha) = setup();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let series = soj.expected_sojourns_s(200);
        let sum: f64 = series.iter().sum();
        let total = soj.expected_total_s().unwrap();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
        let series_p = soj.expected_sojourns_p(200);
        let sum_p: f64 = series_p.iter().sum();
        let total_p = soj.expected_total_p().unwrap();
        assert!((sum_p - total_p).abs() < 1e-9);
    }

    #[test]
    fn distribution_is_a_distribution_with_matching_mean() {
        let (chain, partition, alpha) = setup();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let dist = soj.distribution_s(2000);
        let mass: f64 = dist.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
        let mean: f64 = dist.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
        assert!((mean - soj.expected_total_s().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_agreement() {
        let (chain, partition, alpha) = setup();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let mut rng = StdRng::seed_from_u64(424242);
        let sampler = chain.sampler();
        let reps = 40_000;
        let mut tot_s = 0.0f64;
        let mut tot_p = 0.0f64;
        let mut sq_s = 0.0f64;
        for _ in 0..reps {
            // Start in state 2 (alpha is a point mass there).
            let mut cur = 2usize;
            let mut ts = 0u32;
            let mut tp = 0u32;
            while cur != 0 && cur != 4 {
                if cur == 1 {
                    ts += 1;
                } else {
                    tp += 1;
                }
                cur = sampler.step(cur, &mut rng);
            }
            tot_s += ts as f64;
            tot_p += tp as f64;
            sq_s += (ts as f64) * (ts as f64);
        }
        let emp_s = tot_s / reps as f64;
        let emp_p = tot_p / reps as f64;
        let want_s = soj.expected_total_s().unwrap();
        let want_p = soj.expected_total_p().unwrap();
        assert!((emp_s - want_s).abs() < 0.1, "S: {emp_s} vs {want_s}");
        assert!((emp_p - want_p).abs() < 0.15, "P: {emp_p} vs {want_p}");
        let emp_var = sq_s / reps as f64 - emp_s * emp_s;
        let want_var = soj.variance_s().unwrap();
        assert!(
            (emp_var - want_var).abs() / want_var < 0.1,
            "var: {emp_var} vs {want_var}"
        );
    }

    #[test]
    fn empty_subset_is_degenerate() {
        let (chain, _, alpha) = setup();
        let partition = SojournPartition::new(vec![], vec![1, 2, 3]).unwrap();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        assert_eq!(soj.expected_total_s().unwrap(), 0.0);
        assert_eq!(soj.expected_sojourns_s(3), vec![0.0, 0.0, 0.0]);
        let d = soj.distribution_s(3);
        assert_eq!(d[0], 1.0);
        assert_eq!(soj.variance_s().unwrap(), 0.0);
        // And the full mass flows through P.
        let abs = AbsorbingChain::new(&chain).unwrap();
        let want = abs.expected_steps(&alpha).unwrap();
        assert!((soj.expected_total_p().unwrap() - want).abs() < 1e-10);
    }

    #[test]
    fn validation_errors() {
        let (chain, partition, _) = setup();
        assert!(SojournAnalysis::new(&chain, &partition, &[1.0]).is_err());
        let bad = SojournPartition::new(vec![99], vec![]).unwrap();
        assert!(SojournAnalysis::new(&chain, &bad, &[0.0; 5]).is_err());
        let neg = [-0.5, 0.5, 0.5, 0.5, 0.0];
        assert!(SojournAnalysis::new(&chain, &partition, &neg).is_err());
    }

    #[test]
    fn subset_containing_closed_class_is_rejected() {
        let (chain, _, alpha) = setup();
        // State 0 is absorbing; including it makes I - M_S singular.
        let partition = SojournPartition::new(vec![0, 1], vec![2, 3]).unwrap();
        let r = SojournAnalysis::new(&chain, &partition, &alpha);
        assert!(matches!(r, Err(MarkovError::Linalg(_))));
    }

    #[test]
    fn sparse_constructor_agrees_with_dense() {
        let (chain, partition, alpha) = setup();
        let dense = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let sparse_chain = SparseDtmc::from_dense(&chain);
        for options in [SolverOptions::force_dense(), SolverOptions::force_sparse()] {
            let sparse =
                SojournAnalysis::new_sparse(&sparse_chain, &partition, &alpha, options).unwrap();
            let pairs = [
                (
                    dense.expected_total_s().unwrap(),
                    sparse.expected_total_s().unwrap(),
                ),
                (
                    dense.expected_total_p().unwrap(),
                    sparse.expected_total_p().unwrap(),
                ),
                (dense.variance_s().unwrap(), sparse.variance_s().unwrap()),
                (dense.variance_p().unwrap(), sparse.variance_p().unwrap()),
            ];
            for (a, b) in pairs {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
            for (a, b) in dense
                .expected_sojourns_s(20)
                .iter()
                .zip(sparse.expected_sojourns_s(20).iter())
            {
                assert!((a - b).abs() < 1e-9, "sojourn series: {a} vs {b}");
            }
            for (a, b) in dense
                .distribution_s(200)
                .iter()
                .zip(sparse.distribution_s(200).iter())
            {
                assert!((a - b).abs() < 1e-9, "distribution: {a} vs {b}");
            }
        }
    }

    #[test]
    fn shared_solver_bundle_reproduces_new_sparse_exactly() {
        let (chain, partition, alpha) = setup();
        let sparse_chain = SparseDtmc::from_dense(&chain);
        for options in [SolverOptions::force_dense(), SolverOptions::force_sparse()] {
            let own =
                SojournAnalysis::new_sparse(&sparse_chain, &partition, &alpha, options).unwrap();
            let solvers = PartitionSolvers::build(&sparse_chain, &partition, options).unwrap();
            assert_eq!(solvers.t_indices(), &[1, 2, 3]);
            assert_eq!(solvers.s_indices(), &[1]);
            assert_eq!(solvers.p_indices(), &[2, 3]);
            let shared =
                SojournAnalysis::new_sparse_shared(&sparse_chain, &alpha, &solvers).unwrap();
            // Bit-identical: the same blocks go through the same solves.
            assert_eq!(
                own.expected_total_s().unwrap().to_bits(),
                shared.expected_total_s().unwrap().to_bits()
            );
            assert_eq!(
                own.variance_p().unwrap().to_bits(),
                shared.variance_p().unwrap().to_bits()
            );
            assert_eq!(own.expected_sojourns_s(10), shared.expected_sojourns_s(10));
            assert_eq!(own.distribution_p(50), shared.distribution_p(50));
            // The bundle's standalone solvers answer block systems.
            let steps = solvers.solver_t().solve(&[1.0; 3]).unwrap();
            assert!((steps[1] - 4.0).abs() < 1e-9); // middle of the ruin walk
        }
    }

    #[test]
    fn partition_solvers_validate_indices() {
        let (chain, _, _) = setup();
        let sparse_chain = SparseDtmc::from_dense(&chain);
        let bad = SojournPartition::new(vec![99], vec![]).unwrap();
        assert!(matches!(
            PartitionSolvers::build(&sparse_chain, &bad, SolverOptions::default()),
            Err(MarkovError::InvalidState { .. })
        ));
        // A closed class inside a subset surfaces as a solver failure.
        let closed = SojournPartition::new(vec![0, 1], vec![2, 3]).unwrap();
        assert!(matches!(
            PartitionSolvers::build(&sparse_chain, &closed, SolverOptions::default()),
            Err(MarkovError::Linalg(_))
        ));
    }

    #[test]
    fn sparse_empty_subset_is_degenerate() {
        let (chain, _, alpha) = setup();
        let partition = SojournPartition::new(vec![], vec![1, 2, 3]).unwrap();
        let sparse_chain = SparseDtmc::from_dense(&chain);
        let soj = SojournAnalysis::new_sparse(
            &sparse_chain,
            &partition,
            &alpha,
            SolverOptions::force_sparse(),
        )
        .unwrap();
        assert_eq!(soj.expected_total_s().unwrap(), 0.0);
        assert_eq!(soj.expected_sojourns_s(3), vec![0.0, 0.0, 0.0]);
        let d = soj.distribution_s(3);
        assert_eq!(d[0], 1.0);
        assert_eq!(soj.variance_s().unwrap(), 0.0);
        let dense = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let a = soj.expected_total_p().unwrap();
        let b = dense.expected_total_p().unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn first_sojourn_dominates_for_weakly_coupled_subsets() {
        // Once the walk leaves S = {1} it is more likely absorbed than to
        // come back through P; E(T_{S,1}) should carry most of E(T_S).
        let (chain, partition, alpha) = setup();
        let soj = SojournAnalysis::new(&chain, &partition, &alpha).unwrap();
        let series = soj.expected_sojourns_s(10);
        assert!(series[0] > series[1]);
        assert!(series[1] > series[2]);
    }
}
