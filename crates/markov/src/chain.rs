use pollux_linalg::{power, Matrix};
use pollux_prob::AliasTable;

use crate::MarkovError;

/// Validation tolerance for row sums of a transition matrix.
const ROW_SUM_TOL: f64 = 1e-9;

/// Shared distribution validation: right length, no negative mass, total
/// mass 1 within `1e-9`. Every chain representation and analysis in this
/// crate funnels through here so the tolerances live in one place.
pub(crate) fn validate_distribution(alpha: &[f64], n_states: usize) -> Result<(), MarkovError> {
    if alpha.len() != n_states {
        return Err(MarkovError::InvalidDistribution(format!(
            "length {} does not match {} states",
            alpha.len(),
            n_states
        )));
    }
    if alpha.iter().any(|&v| v < -1e-12) {
        return Err(MarkovError::InvalidDistribution(
            "negative probability mass".into(),
        ));
    }
    let total: f64 = alpha.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(MarkovError::InvalidDistribution(format!(
            "total mass {total}"
        )));
    }
    Ok(())
}

/// A validated discrete-time Markov chain on states `0..n`.
///
/// Construction checks that the matrix is square, entries are non-negative
/// and every row sums to 1 (within `1e-9`); rows are then re-normalized
/// exactly, so downstream analyses never accumulate the construction
/// tolerance.
///
/// # Example
///
/// ```
/// use pollux_markov::Dtmc;
///
/// # fn main() -> Result<(), pollux_markov::MarkovError> {
/// let p = Dtmc::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]])?;
/// let dist = p.transient_distribution(&[1.0, 0.0], 2)?;
/// assert!((dist[0] - 0.85).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    p: Matrix,
}

impl Dtmc {
    /// Builds a chain from a transition matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotStochastic`] when the matrix is not
    /// square, has a negative or NaN entry, or a row sum differs from 1
    /// by more than `1e-9`.
    pub fn new(p: Matrix) -> Result<Self, MarkovError> {
        if !p.is_square() {
            return Err(MarkovError::NotStochastic(format!(
                "matrix is {}x{}",
                p.rows(),
                p.cols()
            )));
        }
        let mut p = p;
        for i in 0..p.rows() {
            let mut sum = 0.0;
            for &v in p.row(i).iter() {
                // NaN passes `v < -1e-15`; with no NaN or −∞ entry the
                // row sum cannot be NaN, so the sum check below is sound.
                if v < -1e-15 || v.is_nan() {
                    return Err(MarkovError::NotStochastic(format!(
                        "row {i} has negative or NaN entry {v}"
                    )));
                }
                sum += v;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(MarkovError::NotStochastic(format!("row {i} sums to {sum}")));
            }
            // Exact re-normalization so analyses see rows summing to 1.
            for v in p.row_mut(i) {
                *v = (*v).max(0.0) / sum;
            }
        }
        Ok(Dtmc { p })
    }

    /// Builds a chain from row slices.
    ///
    /// # Errors
    ///
    /// Propagates matrix-construction and stochasticity failures.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MarkovError> {
        let m = Matrix::from_rows(rows)?;
        Dtmc::new(m)
    }

    /// Wraps a matrix that is already validated and exactly normalized
    /// (used when bridging from [`crate::SparseDtmc`], whose constructor
    /// enforces the same contract — re-running the normalization would
    /// perturb the probabilities by an ulp).
    pub(crate) fn from_validated_matrix(p: Matrix) -> Self {
        debug_assert!(p.is_stochastic(1e-9));
        Dtmc { p }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.p.rows()
    }

    /// Borrows the transition matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.p
    }

    /// Transition probability `P(i → j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[(i, j)]
    }

    /// Validates a distribution vector against this chain.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] for wrong length,
    /// negative mass or total mass differing from 1 by more than `1e-9`.
    pub fn check_distribution(&self, alpha: &[f64]) -> Result<(), MarkovError> {
        validate_distribution(alpha, self.n_states())
    }

    /// Distribution after `m` steps: `α P^m`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidDistribution`] when `alpha` fails
    /// validation.
    pub fn transient_distribution(&self, alpha: &[f64], m: u64) -> Result<Vec<f64>, MarkovError> {
        self.check_distribution(alpha)?;
        Ok(power::push_distribution(&self.p, alpha, m)?)
    }

    /// Stationary distribution `π` with `π P = π`, `Σ π = 1`, computed by a
    /// direct linear solve (replace one balance equation with the
    /// normalization constraint).
    ///
    /// Meaningful for irreducible chains; for reducible chains the result
    /// is *a* stationary vector of the linear system, if one is uniquely
    /// determined.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Linalg`] when the linear system is singular
    /// (e.g. multiple closed classes give non-unique stationary vectors).
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.n_states();
        // Solve (P^T - I) pi = 0 with last row replaced by ones: sum = 1.
        let mut a = Matrix::from_fn(n, n, |i, j| {
            let v = self.p[(j, i)];
            if i == j {
                v - 1.0
            } else {
                v
            }
        });
        for j in 0..n {
            a[(n - 1, j)] = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let pi = a.solve(&b)?;
        Ok(pi)
    }

    /// Samples the successor of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn step<R: rand::Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        let row = self.p.row(i);
        let table = AliasTable::new(row).expect("validated stochastic row");
        table.sample(rng)
    }

    /// Pre-builds per-state alias tables for repeated simulation.
    pub fn sampler(&self) -> DtmcSampler {
        DtmcSampler {
            tables: (0..self.n_states())
                .map(|i| AliasTable::new(self.p.row(i)).expect("validated stochastic row"))
                .collect(),
        }
    }

    /// Simulates a trajectory of `steps` transitions starting at `start`,
    /// returning the visited states **including** the start (so the result
    /// has `steps + 1` entries).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidState`] when `start` is out of range.
    pub fn simulate<R: rand::Rng + ?Sized>(
        &self,
        start: usize,
        steps: usize,
        rng: &mut R,
    ) -> Result<Vec<usize>, MarkovError> {
        if start >= self.n_states() {
            return Err(MarkovError::InvalidState {
                index: start,
                states: self.n_states(),
            });
        }
        let sampler = self.sampler();
        let mut path = Vec::with_capacity(steps + 1);
        let mut cur = start;
        path.push(cur);
        for _ in 0..steps {
            cur = sampler.step(cur, rng);
            path.push(cur);
        }
        Ok(path)
    }
}

/// Pre-computed alias tables for O(1)-per-step trajectory sampling.
#[derive(Debug, Clone)]
pub struct DtmcSampler {
    tables: Vec<AliasTable>,
}

impl DtmcSampler {
    /// Samples the successor of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn step<R: rand::Rng + ?Sized>(&self, i: usize, rng: &mut R) -> usize {
        self.tables[i].sample(rng)
    }

    /// Number of states covered.
    pub fn n_states(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn validation_rejects_bad_matrices() {
        assert!(Dtmc::from_rows(&[&[0.5, 0.5], &[0.5, 0.4]]).is_err());
        assert!(Dtmc::from_rows(&[&[1.5, -0.5], &[0.5, 0.5]]).is_err());
        assert!(Dtmc::new(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn validation_rejects_nan() {
        assert!(Dtmc::from_rows(&[&[f64::NAN, 1.0], &[0.5, 0.5]]).is_err());
        assert!(Dtmc::new(Matrix::from_rows(&[&[0.0, f64::NAN], &[0.5, 0.5]]).unwrap()).is_err());
    }

    #[test]
    fn renormalization_is_exact() {
        // Row sums that are off by less than the tolerance get fixed up.
        let p = Dtmc::from_rows(&[&[0.5 + 1e-12, 0.5], &[0.25, 0.75]]).unwrap();
        for i in 0..2 {
            let s: f64 = p.matrix().row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn transient_distribution_two_state() {
        let p = Dtmc::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]]).unwrap();
        // One step from state 0.
        let d1 = p.transient_distribution(&[1.0, 0.0], 1).unwrap();
        assert!((d1[0] - 0.9).abs() < 1e-14);
        // Distribution must stay normalized.
        let d20 = p.transient_distribution(&[0.5, 0.5], 20).unwrap();
        assert!((d20.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn check_distribution_validates() {
        let p = Dtmc::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert!(p.check_distribution(&[0.5, 0.5]).is_ok());
        assert!(p.check_distribution(&[0.5]).is_err());
        assert!(p.check_distribution(&[0.7, 0.7]).is_err());
        assert!(p.check_distribution(&[1.5, -0.5]).is_err());
    }

    #[test]
    fn stationary_distribution_known_chain() {
        // Birth-death chain with known stationary distribution.
        let p = Dtmc::from_rows(&[&[0.5, 0.5, 0.0], &[0.25, 0.5, 0.25], &[0.0, 0.5, 0.5]]).unwrap();
        let pi = p.stationary_distribution().unwrap();
        // Detailed balance: pi = (1/4, 1/2, 1/4).
        assert!((pi[0] - 0.25).abs() < 1e-10);
        assert!((pi[1] - 0.50).abs() < 1e-10);
        assert!((pi[2] - 0.25).abs() < 1e-10);
        // Verify invariance.
        let next = p.matrix().vec_mul(&pi);
        for (a, b) in next.iter().zip(pi.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn simulation_respects_structure() {
        // Deterministic cycle 0 -> 1 -> 2 -> 0.
        let p = Dtmc::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let path = p.simulate(0, 6, &mut rng).unwrap();
        assert_eq!(path, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn simulate_rejects_bad_start() {
        let p = Dtmc::from_rows(&[&[1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            p.simulate(3, 1, &mut rng),
            Err(MarkovError::InvalidState {
                index: 3,
                states: 1
            })
        ));
    }

    #[test]
    fn empirical_step_frequencies_match_row() {
        let p = Dtmc::from_rows(&[&[0.2, 0.8], &[1.0, 0.0]]).unwrap();
        let sampler = p.sampler();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 50_000;
        let ones = (0..n).filter(|_| sampler.step(0, &mut rng) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.8).abs() < 0.01, "freq {freq}");
    }
}
