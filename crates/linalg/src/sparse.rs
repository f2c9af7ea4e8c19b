//! Compressed sparse row (CSR) matrices.
//!
//! The DSN'11 overlay-level computation pushes a distribution through the
//! transient block `T` of the cluster chain a few hundred times per
//! Figure-5 series. `T` is sparse (each state reaches a handful of
//! successors), so a CSR representation makes each push linear in the
//! number of non-zeros.

use crate::{LinalgError, Matrix};

/// A compressed sparse row matrix over `f64`.
///
/// # Example
///
/// ```
/// use pollux_linalg::sparse::CsrMatrix;
///
/// # fn main() -> Result<(), pollux_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplet_vec(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0)])?;
/// assert_eq!(m.vec_mul(&[1.0, 1.0]), vec![3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets, sorting the
    /// buffer in place, so building from a large transition enumeration
    /// allocates nothing beyond the CSR arrays themselves.
    ///
    /// Duplicate coordinates are summed (in their order of appearance, so
    /// the result is bit-identical to a scatter-accumulate into a dense
    /// row); explicit zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] when a triplet lies outside
    /// the declared shape.
    pub fn from_triplet_vec(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, LinalgError> {
        for &(i, j, _) in &triplets {
            if i >= rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: rows,
                });
            }
            if j >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: j,
                    bound: cols,
                });
            }
        }
        // Stable sort keeps duplicates in appearance order, so the running
        // sum below adds them exactly as a dense `row[j] += v` loop would.
        triplets.sort_by_key(|&(i, j, _)| (i, j));
        let nnz_upper = triplets.len();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz_upper);
        let mut values = Vec::with_capacity(nnz_upper);
        row_ptr.push(0);
        let mut next_row = 0usize;
        let mut t = 0usize;
        while t < nnz_upper {
            let (i, j, v) = triplets[t];
            while next_row < i {
                row_ptr.push(col_idx.len());
                next_row += 1;
            }
            let mut acc = v;
            t += 1;
            while t < nnz_upper && triplets[t].0 == i && triplets[t].1 == j {
                acc += triplets[t].2;
                t += 1;
            }
            if acc != 0.0 {
                col_idx.push(j);
                values.push(acc);
            }
        }
        while next_row < rows {
            row_ptr.push(col_idx.len());
            next_row += 1;
        }
        debug_assert_eq!(row_ptr.len(), rows + 1);
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts a dense matrix, dropping entries with absolute value at or
    /// below `drop_tol`.
    #[must_use]
    pub fn from_dense(dense: &Matrix, drop_tol: f64) -> Self {
        let mut triplets = Vec::with_capacity(dense.rows() * 4);
        for i in 0..dense.rows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v.abs() > drop_tol {
                    triplets.push((i, j, v));
                }
            }
        }
        CsrMatrix::from_triplet_vec(dense.rows(), dense.cols(), triplets)
            .expect("dense shape is consistent by construction")
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entry at `(i, j)`, or 0 when the coordinate holds no
    /// entry (columns are sorted within a row, so this is a binary
    /// search).
    ///
    /// # Panics
    ///
    /// Panics when the coordinate lies outside the matrix shape.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        match self.col_idx[span.clone()].binary_search(&j) {
            Ok(pos) => self.values[span.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Mutable access to the stored values of row `i` (columns are not
    /// exposed, so the sparsity pattern stays immutable).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_values_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The transpose as a new CSR matrix (a CSC view of `self`), built in
    /// O(nnz) by counting sort — no per-row maps, no re-sorting.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.rows {
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[idx];
                let at = cursor[j];
                cursor[j] += 1;
                col_idx[at] = i;
                values[at] = self.values[idx];
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Iterates over the stored entries of row `i` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// In-place version of [`CsrMatrix::mul_vec`] writing into `out`
    /// (fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec_into");
        assert_eq!(out.len(), self.rows, "output dimension mismatch");
        for (i, out_i) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[idx] * x[self.col_idx[idx]];
            }
            *out_i = acc;
        }
    }

    /// Fused multiply-add `out += A x` — the accumulation kernel of the
    /// batched iterative solves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_add(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_add");
        assert_eq!(out.len(), self.rows, "output dimension mismatch");
        for (i, out_i) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[idx] * x[self.col_idx[idx]];
            }
            *out_i += acc;
        }
    }

    /// Vector–matrix product `x A` (row vector times matrix).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    #[must_use]
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.col_idx[idx]] += xi * self.values[idx];
            }
        }
        out
    }

    /// In-place version of [`CsrMatrix::vec_mul`] writing into `out`.
    ///
    /// This avoids per-step allocation in long iterations; `out` is fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn vec_mul_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "dimension mismatch in vec_mul_into");
        assert_eq!(out.len(), self.cols, "output dimension mismatch");
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.col_idx[idx]] += xi * self.values[idx];
            }
        }
    }

    /// Densifies the matrix (for tests and small problems).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Returns `self * scale + identity * shift` as a new CSR matrix,
    /// assuming `self` is square.
    ///
    /// This is the kernel shape of the DSN'11 Theorem 2 matrix
    /// `T/n + (1 − 1/n) I`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if the matrix is not
    /// square.
    pub fn affine(&self, scale: f64, shift: f64) -> Result<CsrMatrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::InvalidDimensions(format!(
                "affine combination with identity requires a square matrix, got {}x{}",
                self.rows, self.cols
            )));
        }
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() + self.rows);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                triplets.push((i, j, v * scale));
            }
            triplets.push((i, i, shift));
        }
        CsrMatrix::from_triplet_vec(self.rows, self.cols, triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplet_vec(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let m =
            CsrMatrix::from_triplet_vec(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_dense()[(0, 0)], 3.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(CsrMatrix::from_triplet_vec(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplet_vec(2, 2, vec![(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn products_match_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -2.0, 3.0];
        assert_eq!(m.mul_vec(&x), d.mul_vec(&x));
        assert_eq!(m.vec_mul(&x), d.vec_mul(&x));
        let mut out = vec![0.0; 3];
        m.vec_mul_into(&x, &mut out);
        assert_eq!(out, d.vec_mul(&x));
    }

    #[test]
    fn dense_roundtrip() {
        let d = Matrix::from_rows(&[&[0.0, 1.5], &[2.5, 0.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn drop_tolerance_applies() {
        let d = Matrix::from_rows(&[&[1e-12, 1.0], &[0.5, 1e-13]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 1e-10);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn affine_matches_formula() {
        let m = sample();
        let n = 4.0;
        let a = m.affine(1.0 / n, 1.0 - 1.0 / n).unwrap();
        let dense = m.to_dense();
        let expect = &dense.scale(1.0 / n) + &Matrix::identity(3).scale(1.0 - 1.0 / n);
        assert!(a.to_dense().approx_eq(&expect, 1e-15));
    }

    #[test]
    fn affine_requires_square() {
        let m = CsrMatrix::from_triplet_vec(2, 3, vec![(0, 0, 1.0)]).unwrap();
        assert!(m.affine(1.0, 1.0).is_err());
    }

    #[test]
    fn empty_rows_and_trailing_rows() {
        // Rows 0, 2 and 4 empty; row 4 is trailing.
        let m = CsrMatrix::from_triplet_vec(5, 3, vec![(1, 2, 1.0), (3, 0, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(2).count(), 0);
        assert_eq!(m.row_entries(4).count(), 0);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![0.0, 1.0, 0.0, 2.0, 0.0]);
        // A fully empty matrix still has a consistent shape.
        let z = CsrMatrix::from_triplet_vec(3, 3, vec![]).unwrap();
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.mul_vec(&[1.0; 3]), vec![0.0; 3]);
    }

    #[test]
    fn duplicates_sum_in_appearance_order() {
        // The running sum must add duplicates left to right exactly as a
        // dense scatter-accumulate would (bit-identical, not just close).
        let vals = [0.1, 0.7, 1e-17, 0.2];
        let triplets: Vec<_> = vals.iter().map(|&v| (0usize, 0usize, v)).collect();
        let m = CsrMatrix::from_triplet_vec(1, 1, triplets.to_vec()).unwrap();
        let dense = vals.iter().fold(0.0, |acc, &v| acc + v);
        assert_eq!(m.get(0, 0), dense);
    }

    #[test]
    fn get_and_row_sums() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        let row_sums: Vec<f64> = (0..3)
            .map(|i| m.row_entries(i).map(|(_, v)| v).sum())
            .collect();
        assert_eq!(row_sums, vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = CsrMatrix::from_triplet_vec(
            2,
            4,
            vec![(0, 3, 1.0), (0, 0, 2.0), (1, 1, 3.0), (1, 3, 4.0)],
        )
        .unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        // Columns stay sorted within each transposed row.
        for i in 0..t.rows() {
            let cols: Vec<usize> = t.row_entries(i).map(|(j, _)| j).collect();
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn mul_add_accumulates() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut out = vec![10.0, 10.0, 10.0];
        m.mul_add(&x, &mut out);
        let want = m.mul_vec(&x);
        for (o, w) in out.iter().zip(want.iter()) {
            assert_eq!(*o, 10.0 + w);
        }
        let mut direct = vec![0.0; 3];
        m.mul_vec_into(&x, &mut direct);
        assert_eq!(direct, want);
    }

    #[test]
    fn row_entries_sorted_by_column() {
        let m =
            CsrMatrix::from_triplet_vec(1, 4, vec![(0, 3, 1.0), (0, 1, 2.0), (0, 2, 3.0)]).unwrap();
        let cols: Vec<usize> = m.row_entries(0).map(|(j, _)| j).collect();
        assert_eq!(cols, vec![1, 2, 3]);
    }
}
