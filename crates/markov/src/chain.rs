use pollux_linalg::Matrix;
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
/// assert_eq!(p.n_states(), 2);
/// assert_eq!(p.prob(1, 0), 0.4);
/// // A row that does not sum to 1 is rejected at construction.
/// assert!(Dtmc::from_rows(&[&[0.9, 0.2], &[0.4, 0.6]]).is_err());
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

    /// Pre-builds per-state alias tables for repeated simulation.
    pub fn sampler(&self) -> DtmcSampler {
        DtmcSampler {
            tables: (0..self.n_states())
                .map(|i| AliasTable::new(self.p.row(i)).expect("validated stochastic row"))
                .collect(),
        }
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
    fn check_distribution_validates() {
        let p = Dtmc::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert!(p.check_distribution(&[0.5, 0.5]).is_ok());
        assert!(p.check_distribution(&[0.5]).is_err());
        assert!(p.check_distribution(&[0.7, 0.7]).is_err());
        assert!(p.check_distribution(&[1.5, -0.5]).is_err());
    }

    #[test]
    fn simulation_respects_structure() {
        // Deterministic cycle 0 -> 1 -> 2 -> 0.
        let p = Dtmc::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]]).unwrap();
        let sampler = p.sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let mut cur = 0;
        let path: Vec<usize> = (0..6)
            .map(|_| {
                cur = sampler.step(cur, &mut rng);
                cur
            })
            .collect();
        assert_eq!(path, vec![1, 2, 0, 1, 2, 0]);
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
