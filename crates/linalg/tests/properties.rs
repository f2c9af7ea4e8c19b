//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;

use pollux_linalg::sparse::CsrMatrix;
use pollux_linalg::{power, vec_ops, Matrix};

/// A random matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized correctly"))
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
        let x = a.solve(&b).unwrap();
        let r = vec_ops::sub(&a.mul_vec(&x), &b);
        prop_assert!(vec_ops::norm_inf(&r) < 1e-8);
    }

    #[test]
    fn solve_transposed_is_row_solve(
        a in dd_matrix_strategy(5),
        b in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let x = a.solve_transposed(&b).unwrap();
        let r = vec_ops::sub(&a.vec_mul(&x), &b);
        prop_assert!(vec_ops::norm_inf(&r) < 1e-8);
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
    fn matrix_power_additive_in_exponent(a in matrix_strategy(3, 3), p in 0u64..5, q in 0u64..5) {
        // Normalize to keep the powers bounded.
        let scale = 1.0 / (a.norm_inf().max(1.0));
        let a = a.scale(scale);
        let lhs = power::matrix_power(&a, p + q).unwrap();
        let rhs = power::matrix_power(&a, p)
            .unwrap()
            .matmul(&power::matrix_power(&a, q).unwrap())
            .unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn push_distribution_linear(a in matrix_strategy(4, 4), m in 0u64..6) {
        let scale = 1.0 / (a.norm_inf().max(1.0));
        let a = a.scale(scale);
        let e0 = vec![1.0, 0.0, 0.0, 0.0];
        let e1 = vec![0.0, 1.0, 0.0, 0.0];
        let both = vec![0.5, 0.5, 0.0, 0.0];
        let r0 = power::push_distribution(&a, &e0, m).unwrap();
        let r1 = power::push_distribution(&a, &e1, m).unwrap();
        let rb = power::push_distribution(&a, &both, m).unwrap();
        for i in 0..4 {
            prop_assert!((rb[i] - 0.5 * (r0[i] + r1[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn gather_scatter_are_inverse(values in proptest::collection::vec(-9.0f64..9.0, 8)) {
        let idx = [0usize, 3, 5, 7];
        let g = vec_ops::gather(&values, &idx);
        let s = vec_ops::scatter(8, &idx, &g);
        for &i in &idx {
            prop_assert_eq!(s[i], values[i]);
        }
    }
}
