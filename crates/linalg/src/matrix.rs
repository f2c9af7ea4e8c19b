use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::LinalgError;

/// A dense, row-major `f64` matrix.
///
/// The type is deliberately small and predictable: storage is a single
/// `Vec<f64>` of length `rows * cols`, element access is `m[(i, j)]`, and all
/// fallible construction goes through `Result`. Operator overloads are
/// provided on references (`&a * &b`) so that chains of operations do not
/// consume their operands.
///
/// # Example
///
/// ```
/// use pollux_linalg::Matrix;
///
/// # fn main() -> Result<(), pollux_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = (&a * &b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of the index pair.
    ///
    /// ```
    /// use pollux_linalg::Matrix;
    /// let hilbert = Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert[(0, 0)], 1.0);
    /// ```
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if the rows are empty or
    /// have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidDimensions("no rows given".into()));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidDimensions("rows are empty".into()));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidDimensions(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the backing row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the backing row-major storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies one column into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Returns the transposed matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Extracts the sub-matrix with the given row and column index sets, in
    /// the given order (indices may repeat).
    ///
    /// This is the primitive used to carve the blocks `M_S`, `M_SP`,
    /// `M_PS`, … out of a partitioned transition matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Sum of each row.
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// `true` when every row sums to 1 within `tol` and all entries are
    /// non-negative: the matrix is (row-)stochastic.
    #[must_use]
    pub fn is_stochastic(&self, tol: f64) -> bool {
        self.data.iter().all(|&v| v >= -tol)
            && self.row_sums().iter().all(|&s| (s - 1.0).abs() <= tol)
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "vector length {} does not match {} columns",
            x.len(),
            self.cols
        );
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect()
    }

    /// Vector–matrix product `x A` (row vector times matrix).
    ///
    /// This is the natural operation for pushing a probability distribution
    /// through a transition matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    #[must_use]
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows,
            "vector length {} does not match {} rows",
            x.len(),
            self.rows
        );
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &aij) in self.row(i).iter().enumerate() {
                out[j] += xi * aij;
            }
        }
        out
    }

    /// Matrix product, checked for shape compatibility.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }

    /// Multiplies every entry by `s`, returning a new matrix.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Entry-wise check against another matrix.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        // Show at most eight rows/cols to keep assert! failure output usable.
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  [")?;
            for j in 0..show_c {
                write!(f, "{:>10.6} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ. Use explicit shape checks for fallible code.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix, LinalgError>;

    fn mul(self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.matmul(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = abc();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidDimensions(_)));
        assert!(Matrix::from_rows(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty]).is_err());
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!((&m * &i).unwrap(), m);
        assert_eq!((&i * &m).unwrap(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = abc();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let want = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap();
        assert_eq!(c, want);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = abc();
        let err = a.matmul(&a).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn transpose_involution() {
        let a = abc();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn vector_products() {
        let a = abc();
        assert_eq!(a.mul_vec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.vec_mul(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn submatrix_extracts_blocks() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = a.submatrix(&[0, 2], &[1, 3]);
        assert_eq!(b, Matrix::from_rows(&[&[1.0, 3.0], &[9.0, 11.0]]).unwrap());
    }

    #[test]
    fn stochastic_checks() {
        let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.1, 0.9]]).unwrap();
        assert!(p.is_stochastic(1e-12));
        let q = Matrix::from_rows(&[&[0.5, 0.4], &[0.1, 0.9]]).unwrap();
        assert!(!q.is_stochastic(1e-12));
        let neg = Matrix::from_rows(&[&[1.5, -0.5], &[0.1, 0.9]]).unwrap();
        assert!(!neg.is_stochastic(1e-12));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row_sums(), vec![-1.0, 7.0]);
    }

    #[test]
    fn add_sub_neg_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let zero = &a - &a;
        assert!(zero.approx_eq(&Matrix::zeros(2, 2), 0.0));
        let doubled = &a + &a;
        assert!(doubled.approx_eq(&a.scale(2.0), 0.0));
        assert!((&-&a + &a).approx_eq(&Matrix::zeros(2, 2), 0.0));
    }

    #[test]
    fn debug_output_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
        let big = Matrix::zeros(20, 20);
        assert!(format!("{big:?}").contains("..."));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
