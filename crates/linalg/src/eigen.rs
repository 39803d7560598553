//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA in `cnd-ml` diagonalizes feature covariance matrices, which are
//! symmetric positive semi-definite and small (≤ a few hundred columns in
//! this workspace). The cyclic Jacobi method is exact to machine precision
//! for symmetric input, requires no pivoting heuristics, and is easy to
//! verify — properties we value over raw speed here.

use crate::{LinalgError, Matrix};

/// Result of a symmetric eigendecomposition.
///
/// Satisfies `A ≈ V diag(λ) Vᵀ` with the columns of
/// [`eigenvectors`](SymmetricEigen::eigenvectors) orthonormal and the
/// eigenvalues sorted in **descending** order (the order PCA consumes them
/// in).
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Column `j` is the eigenvector for `eigenvalues[j]`.
    pub eigenvectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a symmetric matrix using cyclic
/// Jacobi rotations.
///
/// `tol` is the relative symmetry tolerance used to validate the input; a
/// good default is `1e-9`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square.
/// * [`LinalgError::NotSymmetric`] if `|a[i][j] - a[j][i]|` exceeds
///   `tol * max_abs(a)` anywhere.
/// * [`LinalgError::NoConvergence`] if the off-diagonal mass does not
///   vanish within the sweep budget (does not occur for finite symmetric
///   input in practice).
///
/// # Example
///
/// ```
/// use cnd_linalg::{Matrix, eigen::symmetric_eigen};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let e = symmetric_eigen(&a, 1e-9)?;
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-10);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), cnd_linalg::LinalgError>(())
/// ```
pub fn symmetric_eigen(a: &Matrix, tol: f64) -> Result<SymmetricEigen, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: a.shape(),
            op: "symmetric_eigen",
        });
    }
    if n == 0 {
        return Err(LinalgError::Empty {
            op: "symmetric_eigen",
        });
    }
    let scale = a.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > tol * scale {
                return Err(LinalgError::NotSymmetric);
            }
        }
    }

    // Work on a copy; accumulate rotations into v.
    let mut m = a.clone();
    // Force exact symmetry so rounding in the input cannot bias rotations.
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
            m[(i, j)] = avg;
            m[(j, i)] = avg;
        }
    }
    // Rows of `vt` are the eigenvector estimates: `Vᵀ`, so every
    // rotation updates two contiguous rows.
    let mut vt = Matrix::identity(n);

    let eps = 1e-14 * scale;
    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&m);
        if off <= eps * n as f64 {
            return Ok(sort_descending(m, vt));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= eps {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic stable rotation computation (Golub & Van Loan).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                apply_rotation(&mut m, p, q, c, s);
                let (rp, rq) = two_rows(&mut vt, p, q);
                rotate_pair(rp, rq, c, s);
            }
        }
    }
    // Final convergence check after the last sweep.
    if off_diagonal_norm(&m) <= eps * n as f64 * 10.0 {
        return Ok(sort_descending(m, vt));
    }
    Err(LinalgError::NoConvergence {
        op: "symmetric_eigen",
        iterations: MAX_SWEEPS,
    })
}

/// Frobenius norm of the strictly upper-triangular part.
fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            acc += m[(i, j)] * m[(i, j)];
        }
    }
    acc.sqrt()
}

/// Rows `p < q` of `m`, both mutable.
fn two_rows(m: &mut Matrix, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let n = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// Rotates the pair `(x, y)` elementwise: `x ← c·x − s·y`,
/// `y ← s·x + c·y`.
fn rotate_pair(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xk, *yk);
        *xk = c * a - s * b;
        *yk = s * a + c * b;
    }
}

/// Applies the two-sided Jacobi rotation J(p,q,θ)ᵀ M J(p,q,θ) in place.
///
/// `M` is exactly symmetric (every write is mirrored), so column `p` is
/// row `p`: the rotation runs over the two contiguous rows, then copies
/// them into the two columns. Entries `(p,p)`, `(q,q)` and `(p,q)` are
/// set afterwards from the values read before, as the rotation of the
/// other entries never reads them.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    let app = m[(p, p)];
    let aqq = m[(q, q)];
    let apq = m[(p, q)];
    let (rp, rq) = two_rows(m, p, q);
    rotate_pair(rp, rq, c, s);
    rp[p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    rq[q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    rp[q] = 0.0;
    rq[p] = 0.0;
    for k in 0..n {
        m[(k, p)] = m[(p, k)];
        m[(k, q)] = m[(q, k)];
    }
}

/// Extracts eigenvalues from the diagonal and sorts pairs descending;
/// row `i` of `vt` is the eigenvector of `m[(i, i)]`.
fn sort_descending(m: Matrix, vt: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    idx.sort_by(|&a, &b| {
        diag[b]
            .partial_cmp(&diag[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let eigenvalues: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_col, &old_row) in idx.iter().enumerate() {
        for (row, &v) in vt.row(old_row).iter().enumerate() {
            eigenvectors[(row, new_col)] = v;
        }
    }
    SymmetricEigen {
        eigenvalues,
        eigenvectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference Jacobi that walks columns `p` and `q` of `M` and
    /// accumulates `V` itself: the oracle the row-contiguous
    /// [`symmetric_eigen`] must match bit for bit. Takes input that
    /// `symmetric_eigen` accepts.
    fn symmetric_eigen_by_columns(a: &Matrix) -> SymmetricEigen {
        let n = a.rows();
        let scale = a.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-300);
        let mut m = a.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        let mut v = Matrix::identity(n);
        let eps = 1e-14 * scale;
        for _sweep in 0..MAX_SWEEPS {
            if off_diagonal_norm(&m) <= eps * n as f64 {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= eps {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    m[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                    m[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                    m[(p, q)] = 0.0;
                    m[(q, p)] = 0.0;
                    for k in 0..n {
                        if k != p && k != q {
                            let akp = m[(k, p)];
                            let akq = m[(k, q)];
                            m[(k, p)] = c * akp - s * akq;
                            m[(p, k)] = m[(k, p)];
                            m[(k, q)] = s * akp + c * akq;
                            m[(q, k)] = m[(k, q)];
                        }
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        sort_descending(m, v.transpose())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_oracle(a: &Matrix) {
        let got = symmetric_eigen(a, 1e-9).unwrap();
        let want = symmetric_eigen_by_columns(a);
        assert_eq!(
            bits(&got.eigenvalues),
            bits(&want.eigenvalues),
            "eigenvalues"
        );
        assert_eq!(
            bits(got.eigenvectors.as_slice()),
            bits(want.eigenvectors.as_slice()),
            "eigenvectors"
        );
    }

    /// Symmetric `B + Bᵀ` (`psd == false`) or PSD `B·Bᵀ` of rank at most
    /// `k`, `n × n` with `n ∈ 1..=130`.
    fn eigen_input() -> impl Strategy<Value = Matrix> {
        (1usize..=130, 0u8..2, 1usize..=8).prop_flat_map(|(n, kind, k)| {
            let (psd, k) = (kind == 1, k.min(n));
            prop::collection::vec(-3.0..3.0f64, n * n).prop_map(move |data| {
                let b = Matrix::from_vec(n, n, data).expect("sized");
                if psd {
                    let bk = Matrix::from_fn(n, k, |i, j| b[(i, j)]);
                    bk.matmul(&bk.transpose()).unwrap()
                } else {
                    b.add(&b.transpose()).unwrap()
                }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn rows_in_place_match_column_oracle_bit_for_bit(a in eigen_input()) {
            assert_matches_oracle(&a);
        }
    }

    #[test]
    fn edge_cases_match_column_oracle_bit_for_bit() {
        let diagonal = Matrix::from_fn(5, 5, |i, j| if i == j { (i as f64) - 2.0 } else { 0.0 });
        let ones = Matrix::filled(7, 7, 1.0);
        let repeated = Matrix::identity(6)
            .scale(2.0)
            .add(&Matrix::filled(6, 6, 0.5))
            .unwrap();
        let cases = [
            Matrix::from_rows(&[vec![4.2]]).unwrap(),
            Matrix::zeros(1, 1),
            Matrix::zeros(4, 4),
            diagonal,
            Matrix::identity(9).scale(3.0),
            ones,
            repeated,
        ];
        for a in &cases {
            assert_matches_oracle(a);
        }
    }

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.eigenvalues.len();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = e.eigenvalues[i];
        }
        e.eigenvectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.eigenvectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 5.0;
        a[(2, 2)] = 3.0;
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn two_by_two_known_values() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_identity() {
        // Random-ish symmetric matrix built as B + Bᵀ.
        let b = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 13) % 11) as f64 / 11.0);
        let a = b.add(&b.transpose()).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        let r = reconstruct(&e);
        assert!(r.max_abs_diff(&a) < 1e-9, "diff={}", r.max_abs_diff(&a));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let b = Matrix::from_fn(5, 5, |i, j| ((i + 2 * j) % 7) as f64);
        let a = b.add(&b.transpose()).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(5)) < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let b = Matrix::from_fn(8, 8, |i, j| ((3 * i + j) % 5) as f64 * 0.3);
        let a = b.add(&b.transpose()).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn psd_covariance_has_nonnegative_eigenvalues() {
        // X^T X is PSD by construction.
        let x = Matrix::from_fn(10, 4, |i, j| ((i * j + i) % 9) as f64 - 4.0);
        let a = x.transpose().matmul(&x).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-8, "eigenvalue {l} should be >= 0");
        }
    }

    #[test]
    fn rejects_nonsymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a, 1e-9),
            Err(LinalgError::NotSymmetric)
        ));
    }

    #[test]
    fn rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert!(symmetric_eigen(&a, 1e-9).is_err());
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(
            symmetric_eigen(&a, 1e-9),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[vec![4.2]]).unwrap();
        let e = symmetric_eigen(&a, 1e-9).unwrap();
        assert_eq!(e.eigenvalues, vec![4.2]);
        assert_eq!(e.eigenvectors[(0, 0)].abs(), 1.0);
    }
}
