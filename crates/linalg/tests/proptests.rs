//! Property-based tests for the linear-algebra substrate.

use cnd_linalg::eigen::symmetric_eigen;
use cnd_linalg::gemm::matmul_with_kernel;
use cnd_linalg::{stats, GemmKernel, Matrix};
use proptest::prelude::*;

/// Strategy producing a matrix with bounded dimensions and finite values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0..100.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

/// Strategy producing a square matrix.
fn square_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        prop::collection::vec(-10.0..10.0f64, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized"))
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_commutes(a in matrix(8), b in matrix(8)) {
        if a.shape() == b.shape() {
            let l = a.add(&b).unwrap();
            let r = b.add(&a).unwrap();
            prop_assert!(l.max_abs_diff(&r) < 1e-12);
        }
    }

    #[test]
    fn scale_distributes_over_add(a in matrix(6), s in -5.0..5.0f64) {
        let b = a.map(|v| v + 1.0);
        let left = a.add(&b).unwrap().scale(s);
        let right = a.scale(s).add(&b.scale(s)).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn matmul_identity_left_right(m in square_matrix(8)) {
        let i = Matrix::identity(m.rows());
        prop_assert!(m.matmul(&i).unwrap().max_abs_diff(&m) < 1e-12);
        prop_assert!(i.matmul(&m).unwrap().max_abs_diff(&m) < 1e-12);
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(6), b in matrix(6)) {
        // (AB)^T = B^T A^T whenever the product is defined.
        if a.cols() == b.rows() {
            let left = a.matmul(&b).unwrap().transpose();
            let right = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(left.max_abs_diff(&right) < 1e-9);
        }
    }

    #[test]
    fn vstack_preserves_rows(a in matrix(6), b in matrix(6)) {
        if a.cols() == b.cols() {
            let v = a.vstack(&b).unwrap();
            prop_assert_eq!(v.rows(), a.rows() + b.rows());
            prop_assert_eq!(v.row(0), a.row(0));
            prop_assert_eq!(v.row(a.rows()), b.row(0));
        }
    }

    #[test]
    fn covariance_symmetric_psd_diag(m in matrix(8)) {
        if m.rows() >= 2 {
            let c = stats::covariance(&m).unwrap();
            prop_assert!(c.max_abs_diff(&c.transpose()) < 1e-9);
            for j in 0..c.cols() {
                prop_assert!(c[(j, j)] >= -1e-9);
            }
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric(sq in square_matrix(7)) {
        let a = sq.add(&sq.transpose()).unwrap();
        let e = symmetric_eigen(&a, 1e-6).unwrap();
        // Rebuild V diag(l) V^T.
        let n = a.rows();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n { d[(i, i)] = e.eigenvalues[i]; }
        let r = e.eigenvectors.matmul(&d).unwrap()
            .matmul(&e.eigenvectors.transpose()).unwrap();
        prop_assert!(r.max_abs_diff(&a) < 1e-6, "diff = {}", r.max_abs_diff(&a));
    }

    #[test]
    fn eigen_trace_preserved(sq in square_matrix(7)) {
        let a = sq.add(&sq.transpose()).unwrap();
        let e = symmetric_eigen(&a, 1e-6).unwrap();
        let trace: f64 = (0..a.rows()).map(|i| a[(i, i)]).sum();
        let eig_sum: f64 = e.eigenvalues.iter().sum();
        prop_assert!((trace - eig_sum).abs() < 1e-6 * (1.0 + trace.abs()));
    }

    #[test]
    fn pairwise_distances_nonnegative(a in matrix(6), b in matrix(6)) {
        if a.cols() == b.cols() {
            let d = stats::pairwise_sq_distances(&a, &b).unwrap();
            prop_assert!(d.iter().all(|&v| v >= 0.0));
        }
    }
}

/// Dimension strategy biased toward microkernel edge cases: degenerate
/// (0/1), exact MR/NR/KC tile multiples, and off-by-one straddlers.
fn adversarial_dim() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 41, 63, 64, 65,
    ])
}

/// A GEMM problem `(a, b)` with adversarial shapes, including empty-k,
/// 1×N, and N×1 operands.
fn gemm_problem() -> impl Strategy<Value = (Matrix, Matrix)> {
    (adversarial_dim(), adversarial_dim(), adversarial_dim()).prop_flat_map(|(m, k, p)| {
        (
            prop::collection::vec(-100.0..100.0f64, m * k),
            prop::collection::vec(-100.0..100.0f64, k * p),
        )
            .prop_map(move |(da, db)| {
                (
                    Matrix::from_vec(m, k, da).expect("sized"),
                    Matrix::from_vec(k, p, db).expect("sized"),
                )
            })
    })
}

proptest! {
    /// The packed microkernel — on BOTH dispatch arms — reproduces the
    /// triple-loop oracle bit for bit on shapes that straddle every
    /// tile boundary. This is the deterministic-f64 contract: packing,
    /// blocking, and vectorization may reorder *loads*, never the
    /// per-element sequence of adds.
    #[test]
    fn packed_kernels_match_naive_bitwise((a, b) in gemm_problem()) {
        let oracle = a.matmul_naive(&b).unwrap();
        for kernel in [GemmKernel::Portable, GemmKernel::Avx2] {
            let got = matmul_with_kernel(&a, &b, kernel).unwrap();
            prop_assert_eq!(got.shape(), oracle.shape());
            for (x, y) in got.iter().zip(oracle.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "kernel {:?} diverged from the oracle", kernel);
            }
        }
    }

    /// `Matrix::matmul` (auto dispatch, any threshold path) equals the
    /// oracle bitwise as well.
    #[test]
    fn auto_dispatch_matches_naive_bitwise((a, b) in gemm_problem()) {
        let oracle = a.matmul_naive(&b).unwrap();
        let got = a.matmul(&b).unwrap();
        for (x, y) in got.iter().zip(oracle.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Transposed views feed the same packed kernel: `aᵀ·b` computed
    /// through a view equals the materialized-transpose product bitwise.
    #[test]
    fn transposed_view_matmul_matches_materialized((a, b) in gemm_problem()) {
        // Reinterpret: aᵀ (k×m) · b (k×p) needs a.rows == b.rows.
        let at = a.transpose();
        let via_view = a.view().t().matmul(&b.view());
        let via_copy = at.matmul(&b);
        match (via_view, via_copy) {
            (Ok(x), Ok(y)) => {
                for (l, r) in x.iter().zip(y.iter()) {
                    prop_assert_eq!(l.to_bits(), r.to_bits());
                }
            }
            (Err(_), Err(_)) => {}
            (l, r) => prop_assert!(false, "view/copy disagreed on validity: {l:?} vs {r:?}"),
        }
    }
}
