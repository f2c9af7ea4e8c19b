//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;

use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::{vec_ops, Lu, Matrix};

/// A random matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_fn(rows, cols, |i, j| data[i * cols + j]))
}

/// A random well-conditioned (diagonally dominant) square matrix.
fn dd_matrix_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |mut m| {
        for i in 0..n {
            let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
            m[(i, i)] += row_sum + 1.0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 5),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(3, 3),
        b in matrix_strategy(3, 3),
        c in matrix_strategy(3, 3),
    ) {
        let left = a.matmul(&(&b + &c)).unwrap();
        let right = &a.matmul(&b).unwrap() + &a.matmul(&c).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn transpose_reverses_products(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
    ) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn lu_solve_has_small_residual(
        a in dd_matrix_strategy(6),
        b in proptest::collection::vec(-10.0f64..10.0, 6),
    ) {
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        let r = a.mul_vec(&x).iter().zip(&b).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        prop_assert!(r < 1e-8);
    }

    #[test]
    fn solve_transposed_is_row_solve(
        a in dd_matrix_strategy(5),
        b in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let x = Lu::decompose(&a).unwrap().solve_transposed(&b).unwrap();
        let r = a.vec_mul(&x).iter().zip(&b).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        prop_assert!(r < 1e-8);
    }

    #[test]
    fn csr_agrees_with_dense(a in matrix_strategy(4, 6), x in proptest::collection::vec(-3.0f64..3.0, 6), y in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let sparse = CsrMatrix::from_dense(&a, 0.0);
        prop_assert_eq!(sparse.to_dense(), a.clone());
        let d1 = a.mul_vec(&x);
        let s1 = sparse.mul_vec(&x);
        for (u, v) in d1.iter().zip(s1.iter()) {
            prop_assert!((u - v).abs() < 1e-12);
        }
        let d2 = a.vec_mul(&y);
        let s2 = sparse.vec_mul(&y);
        for (u, v) in d2.iter().zip(s2.iter()) {
            prop_assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn gather_scatter_are_inverse(values in proptest::collection::vec(-9.0f64..9.0, 8)) {
        let idx = [0usize, 3, 5, 7];
        let g = vec_ops::gather(&values, &idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g[k], values[i]);
        }
    }
}
