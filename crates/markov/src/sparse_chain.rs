//! A validated discrete-time Markov chain in compressed sparse row form.
//!
//! The DSN'11 cluster chain reaches a handful of successor states from
//! each state, so its transition matrix holds O(n) non-zeros while the
//! dense representation costs O(n²) memory and O(n³) analysis time. A
//! [`SparseDtmc`] carries the same validation contract as [`Dtmc`]
//! (square, non-negative, rows summing to 1 within `1e-9`, then exact
//! re-normalization) on the CSR storage, letting model builders emit
//! transition triplets directly without ever materializing the dense
//! matrix.

use pollux_linalg::sparse::CsrMatrix;

use crate::{Dtmc, MarkovError};

/// Validation tolerance for row sums (matches [`Dtmc`]).
const ROW_SUM_TOL: f64 = 1e-9;

/// A validated discrete-time Markov chain on states `0..n`, stored as a
/// CSR matrix.
///
/// # Example
///
/// ```
/// use pollux_markov::SparseDtmc;
///
/// # fn main() -> Result<(), pollux_markov::MarkovError> {
/// let p = SparseDtmc::from_triplets(
///     2,
///     vec![(0, 0, 0.9), (0, 1, 0.1), (1, 0, 0.4), (1, 1, 0.6)],
/// )?;
/// assert_eq!(p.n_states(), 2);
/// assert!((p.prob(0, 1) - 0.1).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDtmc {
    p: CsrMatrix,
}

impl SparseDtmc {
    /// Builds a chain from a CSR transition matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotStochastic`] when the matrix is not
    /// square, has a negative or NaN entry, or a row sum differs from 1
    /// by more than `1e-9`.
    pub fn new(p: CsrMatrix) -> Result<Self, MarkovError> {
        if p.rows() != p.cols() {
            return Err(MarkovError::NotStochastic(format!(
                "matrix is {}x{}",
                p.rows(),
                p.cols()
            )));
        }
        let mut p = p;
        for i in 0..p.rows() {
            let mut sum = 0.0;
            for (_, v) in p.row_entries(i) {
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
            // Exact re-normalization, mirroring `Dtmc::new`, so analyses
            // see rows summing to 1 regardless of builder round-off.
            p.row_values_mut(i).iter_mut().for_each(|v| {
                *v = (*v).max(0.0) / sum;
            });
        }
        Ok(SparseDtmc { p })
    }

    /// Builds a chain from `(row, col, probability)` triplets over an
    /// `n × n` space (duplicates are summed in appearance order, exactly
    /// as a dense scatter-accumulate would).
    ///
    /// # Errors
    ///
    /// Propagates triplet shape violations and stochasticity failures.
    pub fn from_triplets(
        n: usize,
        triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, MarkovError> {
        let p = CsrMatrix::from_triplet_vec(n, n, triplets)
            .map_err(|e| MarkovError::NotStochastic(e.to_string()))?;
        SparseDtmc::new(p)
    }

    /// Converts a dense chain (keeping the exact probabilities — the dense
    /// chain is already validated and normalized).
    #[must_use]
    pub fn from_dense(chain: &Dtmc) -> Self {
        SparseDtmc {
            p: CsrMatrix::from_dense(chain.matrix(), 0.0),
        }
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.p.rows()
    }

    /// Borrows the CSR transition matrix.
    #[must_use]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.p
    }

    /// Transition probability `P(i → j)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p.get(i, j)
    }

    /// Iterates the non-zero transitions out of state `i` as
    /// `(successor, probability)` pairs, in successor order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.p.row_entries(i)
    }

    /// Densifies into a [`Dtmc`] carrying the *exact* stored probabilities
    /// (no second validation pass, so bridging representations never
    /// re-normalizes twice).
    #[must_use]
    pub fn to_dense(&self) -> Dtmc {
        Dtmc::from_validated_matrix(self.p.to_dense())
    }
}

/// Extracts the square sub-chain block `P[idx, idx]` of a CSR matrix as a
/// new CSR matrix over the compacted index range `0..idx.len()`.
///
/// `idx` must be strictly increasing; entries outside `idx × idx` are
/// dropped. This is the sparse analogue of
/// [`pollux_linalg::Matrix::submatrix`] used to carve transient blocks
/// (`Q`, `M_S`, `M_P`, …) out of a chain.
///
/// # Panics
///
/// Panics if `idx` is not strictly increasing or indexes out of bounds.
#[must_use]
pub fn sparse_block(p: &CsrMatrix, row_idx: &[usize], col_idx: &[usize]) -> CsrMatrix {
    assert!(
        row_idx.windows(2).all(|w| w[0] < w[1]),
        "row index set must be strictly increasing"
    );
    assert!(
        col_idx.windows(2).all(|w| w[0] < w[1]),
        "column index set must be strictly increasing"
    );
    let mut col_pos = vec![usize::MAX; p.cols()];
    for (c, &j) in col_idx.iter().enumerate() {
        col_pos[j] = c;
    }
    let mut triplets = Vec::new();
    for (r, &i) in row_idx.iter().enumerate() {
        for (j, v) in p.row_entries(i) {
            if col_pos[j] != usize::MAX {
                triplets.push((r, col_pos[j], v));
            }
        }
    }
    CsrMatrix::from_triplet_vec(row_idx.len(), col_idx.len(), triplets)
        .expect("block indices are in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamblers_ruin() -> SparseDtmc {
        SparseDtmc::from_triplets(
            4,
            vec![
                (0, 0, 1.0),
                (1, 0, 0.5),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (2, 3, 0.5),
                (3, 3, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        assert!(SparseDtmc::from_triplets(2, vec![(0, 0, 1.0), (1, 1, 0.9)]).is_err());
        assert!(
            SparseDtmc::from_triplets(2, vec![(0, 0, 1.5), (0, 1, -0.5), (1, 1, 1.0)]).is_err()
        );
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(SparseDtmc::new(rect).is_err());
        // A NaN entry is rejected, through either constructor.
        assert!(SparseDtmc::from_triplets(2, vec![(0, 1, f64::NAN), (1, 0, 1.0)]).is_err());
        let nan = CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN), (1, 1, 1.0)]).unwrap();
        assert!(SparseDtmc::new(nan).is_err());
    }

    #[test]
    fn renormalization_is_exact() {
        let p = SparseDtmc::from_triplets(
            2,
            vec![(0, 0, 0.5 + 1e-12), (0, 1, 0.5), (1, 0, 0.25), (1, 1, 0.75)],
        )
        .unwrap();
        for i in 0..2 {
            let s: f64 = p.successors(i).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn dense_roundtrip_preserves_bits() {
        let sparse = gamblers_ruin();
        let dense = sparse.to_dense();
        assert_eq!(dense.n_states(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(sparse.prob(i, j), dense.prob(i, j));
            }
        }
        let back = SparseDtmc::from_dense(&dense);
        assert_eq!(back, sparse);
    }

    #[test]
    fn block_extraction_matches_dense_submatrix() {
        let p = gamblers_ruin();
        let q = sparse_block(p.matrix(), &[1, 2], &[1, 2]);
        let dense_q = p.to_dense().matrix().submatrix(&[1, 2], &[1, 2]);
        assert_eq!(q.to_dense(), dense_q);
        // Rectangular block.
        let r = sparse_block(p.matrix(), &[1, 2], &[0, 3]);
        assert_eq!(r.get(0, 0), 0.5);
        assert_eq!(r.get(1, 1), 0.5);
        assert_eq!(r.nnz(), 2);
    }
}
