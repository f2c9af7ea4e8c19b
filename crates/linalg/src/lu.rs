use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting: `P A = L U`.
///
/// The factors are stored compactly in a single matrix (`L` has an implicit
/// unit diagonal). The decomposition supports solving `A x = b` and
/// `x A = b` (the row-vector form used when pushing distributions through
/// `(I − M)^{-1}` from the left).
///
/// Elimination and both solves skip the exact zeros outside each row's and
/// column's non-zero extent. A matrix with lower half-bandwidth `p` and
/// upper half-bandwidth `q` therefore costs O(n·p·(p + q)) to factor and
/// O(n·(p + q)) per solve (pivoting can widen `U`'s band to `p + q`)
/// instead of O(n³) and O(n²). The cluster chain's `I − Q` blocks are such
/// matrices: every event moves the spare count `s` by at most one and
/// states are enumerated `s`-major, so at `C = Δ = 7` the 216-unknown
/// transient block has `p` = 61–86 and `q` = 50–56. Every operation that does
/// run, runs in the textbook order, so the factors and solutions are
/// bit-identical to the unbanded elimination's, up to the sign of an exact
/// zero.
///
/// # Example
///
/// ```
/// use pollux_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), pollux_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::decompose(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strictly lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Box<[usize]>,
    /// Where row and column `i` of the factors can hold non-zeros.
    extents: Box<[Extent]>,
}

/// The non-zero extents of row `i` and column `i` of the LU factors.
#[derive(Debug, Clone, Copy)]
struct Extent {
    /// First column that can hold a non-zero `L` entry in row `i`.
    l_start: usize,
    /// One past the last column that can hold a non-zero `U` entry in row
    /// `i`.
    u_end: usize,
    /// One past the last row holding a non-zero `L` entry in column `i`.
    l_end: usize,
}

/// A largest pivot candidate whose absolute value is below this absolute
/// threshold counts as an exact zero, i.e. the matrix is singular.
const PIVOT_EPS: f64 = 1e-300;

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimensions`] if `a` is not square.
    /// * [`LinalgError::Singular`] if elimination encounters a vanishing
    ///   pivot.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        Lu::decompose_owned(a.clone())
    }

    /// As [`Lu::decompose`], factoring `lu` in its own buffer.
    pub(crate) fn decompose_owned(mut lu: Matrix) -> Result<Self, LinalgError> {
        if !lu.is_square() {
            return Err(LinalgError::InvalidDimensions(format!(
                "LU requires a square matrix, got {}x{}",
                lu.rows(),
                lu.cols()
            )));
        }
        let n = lu.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        // Each row's extent: `start` is its first non-zero column (n when
        // it has none) and `end` one past its last. Elimination never
        // writes before `start` and only ever widens `end`; both move with
        // the row on a swap.
        let mut start = Vec::with_capacity(n);
        let mut end = Vec::with_capacity(n);
        // `reach[k]`: one past the last row whose first non-zero column is
        // at most k. At step k every row at or past it has been neither
        // swapped nor updated and is still zero in column k, so the pivot
        // search and the elimination stop there.
        let mut reach = vec![0; n];
        for (i, row) in lu.as_slice().chunks_exact(n.max(1)).enumerate() {
            let s = row.iter().position(|&v| v != 0.0).unwrap_or(n);
            start.push(s);
            end.push(row.iter().rposition(|&v| v != 0.0).map_or(0, |j| j + 1));
            if s < n {
                reach[s] = i + 1;
            }
        }
        for k in 1..n {
            reach[k] = reach[k].max(reach[k - 1]);
        }

        for k in 0..n {
            let rows = reach[k].max(k + 1);
            let data = lu.as_mut_slice();
            // Partial pivoting: pick the largest |entry| in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = data[k * n + k].abs();
            for i in (k + 1)..rows {
                let v = data[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                start.swap(k, pivot_row);
                end.swap(k, pivot_row);
                let (top, bottom) = data.split_at_mut(pivot_row * n);
                top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
            }
            let (top, below) = data.split_at_mut((k + 1) * n);
            let pivot = top[k * n + k];
            let end_k = end[k];
            let u_k = &top[k * n + k + 1..k * n + end_k];
            for (row, end_i) in below
                .chunks_exact_mut(n)
                .zip(&mut end[k + 1..])
                .take(rows - k - 1)
            {
                if row[k] == 0.0 {
                    continue;
                }
                let factor = row[k] / pivot;
                row[k] = factor;
                for (x, &u) in row[k + 1..end_k].iter_mut().zip(u_k) {
                    *x -= factor * u;
                }
                *end_i = (*end_i).max(end_k);
            }
        }

        let mut extents: Box<[Extent]> = (0..n)
            .map(|i| Extent {
                l_start: start[i],
                u_end: end[i],
                l_end: i + 1,
            })
            .collect();
        for (i, row) in lu.as_slice().chunks_exact(n.max(1)).enumerate() {
            for (j, &l) in row.iter().enumerate().take(i).skip(start[i]) {
                if l != 0.0 {
                    extents[j].l_end = i + 1;
                }
            }
        }
        Ok(Lu {
            lu,
            perm: perm.into_boxed_slice(),
            extents,
        })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let lu = self.lu.as_slice();
        // Forward substitution with permuted b: L y = P b, y overwriting x.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let s = self.extents[i].l_start;
            let row = &lu[i * n..i * n + i];
            let (done, rest) = x.split_at_mut(i);
            let mut acc = rest[0];
            for (&l, &yj) in row[s..].iter().zip(&done[s..]) {
                acc -= l * yj;
            }
            rest[0] = acc;
        }
        // Backward substitution: U x = y.
        for i in (0..n).rev() {
            let row = &lu[i * n..i * n + self.extents[i].u_end];
            let (head, solved) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (&u, &xj) in row[i + 1..].iter().zip(solved.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / row[i];
        }
        Ok(x)
    }

    /// Solves the row-vector system `x A = b`, i.e. `Aᵀ xᵀ = bᵀ`.
    ///
    /// This is the shape used for `v = α (I − M)^{-1}` computations where
    /// `α` is a distribution (row) vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (1, b.len()),
            });
        }
        let lu = self.lu.as_slice();
        // x A = b  <=>  x P^{-1} P A = b  <=>  (x P^{-1}) L U = b.
        // Solve z U = b row by row: entry j receives -z_i U_ij for
        // ascending i, the same subtractions in the same order as the
        // column-wise dot product, on contiguous memory.
        let mut z = b.to_vec();
        for i in 0..n {
            let row = &lu[i * n..i * n + self.extents[i].u_end];
            let (head, rest) = z.split_at_mut(i + 1);
            let zi = head[i] / row[i];
            head[i] = zi;
            for (acc, &u) in rest.iter_mut().zip(&row[i + 1..]) {
                *acc -= zi * u;
            }
        }
        // Then w L = z backward, w overwriting z (L has unit diagonal), and
        // un-permute: x[perm[i]] = w[i].
        for j in (0..n).rev() {
            let e = self.extents[j].l_end;
            let (head, solved) = z.split_at_mut(j + 1);
            let mut acc = head[j];
            let col = lu[j..].iter().step_by(n).skip(j + 1);
            for (&wi, &l) in solved[..e - j - 1].iter().zip(col) {
                acc -= wi * l;
            }
            head[j] = acc;
        }
        let mut x = vec![0.0; n];
        for (&p, &wi) in self.perm.iter().zip(&z) {
            x[p] = wi;
        }
        Ok(x)
    }
}

impl Matrix {
    /// Solves `A x = b` through a fresh LU decomposition.
    ///
    /// Prefer building [`Lu`] once when solving against many right-hand
    /// sides.
    ///
    /// # Errors
    ///
    /// See [`Lu::decompose`] and [`Lu::solve`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Lu::decompose(self)?.solve(b)
    }

    /// Solves `x A = b` through a fresh LU decomposition.
    ///
    /// # Errors
    ///
    /// See [`Lu::decompose`] and [`Lu::solve_transposed`].
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Lu::decompose(self)?.solve_transposed(b)
    }
}

/// The unbanded textbook kernels the banded ones must reproduce bit for
/// bit: every factor entry and solution, up to the sign of an exact zero.
#[cfg(test)]
mod reference {
    use super::PIVOT_EPS;
    use crate::{LinalgError, Matrix};

    pub(super) struct Lu {
        pub(super) lu: Matrix,
        pub(super) perm: Vec<usize>,
    }

    impl Lu {
        pub(super) fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
            if !a.is_square() {
                return Err(LinalgError::InvalidDimensions(format!(
                    "LU requires a square matrix, got {}x{}",
                    a.rows(),
                    a.cols()
                )));
            }
            let n = a.rows();
            let mut lu = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();

            for k in 0..n {
                // Partial pivoting: pick the largest |entry| in column k at or
                // below the diagonal.
                let mut pivot_row = k;
                let mut pivot_val = lu[(k, k)].abs();
                for i in (k + 1)..n {
                    let v = lu[(i, k)].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val < PIVOT_EPS {
                    return Err(LinalgError::Singular { pivot: k });
                }
                if pivot_row != k {
                    perm.swap(k, pivot_row);
                    for j in 0..n {
                        let tmp = lu[(k, j)];
                        lu[(k, j)] = lu[(pivot_row, j)];
                        lu[(pivot_row, j)] = tmp;
                    }
                }
                let pivot = lu[(k, k)];
                for i in (k + 1)..n {
                    let factor = lu[(i, k)] / pivot;
                    lu[(i, k)] = factor;
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }

            Ok(Lu { lu, perm })
        }

        pub(super) fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.lu.rows();
            // Forward substitution with permuted b: L y = P b.
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut acc = b[self.perm[i]];
                for (j, &yj) in y.iter().enumerate().take(i) {
                    acc -= self.lu[(i, j)] * yj;
                }
                y[i] = acc;
            }
            // Backward substitution: U x = y.
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut acc = y[i];
                for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                    acc -= self.lu[(i, j)] * xj;
                }
                x[i] = acc / self.lu[(i, i)];
            }
            x
        }

        pub(super) fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
            let n = self.lu.rows();
            let mut z = vec![0.0; n];
            for j in 0..n {
                let mut acc = b[j];
                for (i, &zi) in z.iter().enumerate().take(j) {
                    acc -= zi * self.lu[(i, j)];
                }
                z[j] = acc / self.lu[(j, j)];
            }
            let mut w = vec![0.0; n];
            for j in (0..n).rev() {
                let mut acc = z[j];
                for (i, &wi) in w.iter().enumerate().skip(j + 1) {
                    acc -= wi * self.lu[(i, j)];
                }
                w[j] = acc; // L has unit diagonal.
            }
            let mut x = vec![0.0; n];
            for i in 0..n {
                x[self.perm[i]] = w[i];
            }
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    /// Bit patterns with −0.0 read as 0.0.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|&x| if x == 0.0 { 0 } else { x.to_bits() })
            .collect()
    }

    /// Factors `a` with both kernels and requires the same outcome: the
    /// same permutation, factor bits and solution bits of both solves
    /// against `b`, or the same error.
    fn assert_matches_reference(a: &Matrix, b: &[f64]) {
        match (reference::Lu::decompose(a), Lu::decompose(a)) {
            (Ok(want), Ok(got)) => {
                assert_eq!(*got.perm, *want.perm);
                assert_eq!(bits(got.lu.as_slice()), bits(want.lu.as_slice()));
                assert_eq!(bits(&got.solve(b).unwrap()), bits(&want.solve(b)));
                assert_eq!(
                    bits(&got.solve_transposed(b).unwrap()),
                    bits(&want.solve_transposed(b))
                );
            }
            (Err(want), Err(got)) => assert_eq!(got, want),
            (want, got) => panic!(
                "reference gave {:?}, banded kernel {:?}",
                want.map(|_| ()),
                got.map(|_| ())
            ),
        }
    }

    fn rhs(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(-10.0..10.0)).collect()
    }

    /// `I − Q` for a random sub-stochastic `Q` on the cluster chain's
    /// level structure: level `s = 0..=Δ` holds `(C + 1)(s + 1)` states,
    /// enumerated level-major, and every state moves only within its own
    /// and the neighbouring levels. Some states get a heavy self-loop, so
    /// their diagonal is small and partial pivoting swaps rows.
    fn cluster_like(rng: &mut StdRng, c: usize, delta: usize) -> Matrix {
        let offsets: Vec<usize> = (0..=delta + 1).map(|s| (c + 1) * s * (s + 1) / 2).collect();
        let n = offsets[delta + 1];
        let mut a = Matrix::identity(n);
        for s in 0..=delta {
            let lo = offsets[s.saturating_sub(1)];
            let hi = offsets[(s + 2).min(delta + 1)];
            for i in offsets[s]..offsets[s + 1] {
                let mut row = vec![0.0; n];
                if rng.random_range(0.0..1.0) < 0.3 {
                    row[i] = rng.random_range(0.5..1.0);
                }
                for _ in 0..rng.random_range(1..6usize) {
                    row[rng.random_range(lo..hi)] += rng.random_range(0.0..1.0);
                }
                let total: f64 = row.iter().sum();
                let keep = rng.random_range(0.2..0.999) / total;
                for (j, q) in row.into_iter().enumerate() {
                    a[(i, j)] -= q * keep;
                }
            }
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn banded_kernels_match_reference_on_dense_matrices(seed in any::<u64>(), n in 1usize..40) {
            // Diagonally dominant, so well conditioned and non-singular.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            assert_matches_reference(&a, &rhs(&mut rng, n));
        }

        #[test]
        fn banded_kernels_match_reference_with_zero_diagonals(seed in any::<u64>(), n in 2usize..30) {
            // Sparse entries and an empty diagonal in about half the rows:
            // pivoting must swap rows, and a structurally singular draw
            // must fail at the same pivot.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(n, n, |i, j| {
                let keep = if i == j { 0.5 } else { 0.3 };
                if rng.random_range(0.0..1.0) < keep {
                    rng.random_range(-1.0..1.0)
                } else {
                    0.0
                }
            });
            assert_matches_reference(&a, &rhs(&mut rng, n));
        }

        #[test]
        fn banded_kernels_match_reference_on_cluster_like_chains(
            seed in any::<u64>(),
            c in 1usize..5,
            delta in 0usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = cluster_like(&mut rng, c, delta);
            assert_matches_reference(&a, &rhs(&mut rng, a.rows()));
        }
    }

    #[test]
    fn singular_matrices_fail_at_the_reference_pivot() {
        // Column 3 of a tridiagonal matrix is empty: elimination reaches
        // it with nothing to pivot on.
        let mut zero_col = Matrix::from_fn(6, 6, |i, j| match i.abs_diff(j) {
            0 => 4.0,
            1 => -1.0,
            _ => 0.0,
        });
        for i in 0..6 {
            zero_col[(i, 3)] = 0.0;
        }
        // Row 4 repeats row 2 exactly, so the elimination cancels it to an
        // exact zero pivot.
        let repeated = Matrix::from_rows(&[
            &[2.0, 1.0, 0.0, 0.0, 0.0],
            &[1.0, 2.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 2.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0, 2.0, 1.0],
            &[0.0, 1.0, 2.0, 1.0, 0.0],
        ])
        .unwrap();
        for (a, pivot) in [(zero_col, 3), (repeated, 4)] {
            assert!(matches!(
                reference::Lu::decompose(&a),
                Err(LinalgError::Singular { pivot: p }) if p == pivot
            ));
            assert!(matches!(
                Lu::decompose(&a),
                Err(LinalgError::Singular { pivot: p }) if p == pivot
            ));
        }
    }

    #[test]
    fn solve_small_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 3.0]);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::InvalidDimensions(_))
        ));
    }

    #[test]
    fn solve_transposed_matches_transpose_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.1, 3.0, 0.2], &[0.3, 0.4, 5.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = a.solve_transposed(&b).unwrap();
        let x_ref = a.transpose().solve(&b).unwrap();
        for (u, v) in x.iter().zip(x_ref.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        // Verify residual of x A = b directly.
        let xa = a.vec_mul(&x);
        for (u, v) in xa.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_rhs_length_errors() {
        let a = Matrix::identity(3);
        let lu = Lu::decompose(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_transposed(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn random_solves_have_small_residuals() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for n in [1usize, 2, 5, 17, 40] {
            // Diagonally dominant => well conditioned and non-singular.
            let mut a = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
            let x = a.solve(&b).unwrap();
            assert!(residual(&a, &x, &b) < 1e-9, "n={n}");
            let xt = a.solve_transposed(&b).unwrap();
            let r = a
                .vec_mul(&xt)
                .iter()
                .zip(b.iter())
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
            assert!(r < 1e-9, "transposed n={n}");
        }
    }
}
