//! Principal component analysis with feature-reconstruction-error (FRE)
//! anomaly scoring.
//!
//! This is the paper's novelty detector (Section III-D): PCA is fitted on
//! the *encoded clean normal data* `N_c`, components are kept up to 95%
//! explained variance, and a test embedding `h` receives the anomaly
//! score `FRE = ‖h − T⁻¹(T(h))‖²` where `T` is the PCA projection.

use cnd_linalg::{eigen, matmul_packed_into, stats, Matrix, MatrixRef, PackedB};

use crate::MlError;

/// How many principal components to retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComponentSelection {
    /// Keep the smallest number of leading components whose cumulative
    /// explained-variance ratio reaches the given fraction (the paper
    /// uses `0.95`).
    VarianceFraction(f64),
    /// Keep exactly this many components (clamped to the feature count).
    Fixed(usize),
}

/// A fitted PCA transform.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use cnd_ml::pca::{ComponentSelection, Pca};
///
/// // Data on a 1-D line in 2-D space: one component explains everything.
/// let x = Matrix::from_fn(50, 2, |i, j| (i as f64) * if j == 0 { 1.0 } else { 2.0 });
/// let pca = Pca::fit(&x, ComponentSelection::VarianceFraction(0.95))?;
/// assert_eq!(pca.n_components(), 1);
/// // On-manifold points reconstruct perfectly...
/// assert!(pca.reconstruction_errors(&x)?.iter().all(|&e| e < 1e-9));
/// // ...off-manifold points do not.
/// let outlier = Matrix::from_rows(&[vec![10.0, -10.0]])?;
/// assert!(pca.reconstruction_errors(&outlier)?[0] > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    mean: Vec<f64>,
    /// `(features, n_components)` — columns are principal axes.
    components: Matrix,
    explained_variance: Vec<f64>,
    explained_variance_ratio: Vec<f64>,
    /// `C` and `Cᵀ` packed once for the scoring GEMMs. A fitted PCA
    /// never changes, so they are built with it and never invalidated.
    packed_c: PackedB,
    packed_ct: PackedB,
}

impl Pca {
    /// Fits PCA on `x` (one sample per row) and keeps components
    /// according to `selection`.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] for a matrix with no rows.
    /// * [`MlError::InvalidParameter`] if the variance fraction is not in
    ///   `(0, 1]` or a fixed count is zero.
    /// * Propagates eigendecomposition failures.
    pub fn fit(x: &Matrix, selection: ComponentSelection) -> Result<Self, MlError> {
        let _span = cnd_obs::span!("pca.fit", rows = x.rows(), cols = x.cols());
        if x.rows() == 0 {
            return Err(MlError::EmptyInput);
        }
        let mean = stats::column_means(x)?;
        let cov = stats::covariance(x)?;
        match selection {
            ComponentSelection::VarianceFraction(f) if !(f > 0.0 && f <= 1.0) => {
                return Err(MlError::InvalidParameter {
                    name: "variance_fraction",
                    constraint: "must be in (0, 1]",
                });
            }
            ComponentSelection::Fixed(0) => {
                return Err(MlError::InvalidParameter {
                    name: "n_components",
                    constraint: "must be >= 1",
                });
            }
            _ => {}
        }
        let eig = eigen::symmetric_eigen(&cov, 1e-7)?;
        // Covariance is PSD; clamp tiny negative rounding artifacts.
        let eigenvalues: Vec<f64> = eig.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = eigenvalues.iter().sum();
        let ratios: Vec<f64> = if total > 0.0 {
            eigenvalues.iter().map(|&l| l / total).collect()
        } else {
            // Degenerate data (all rows identical): keep 1 component with
            // ratio 1 so downstream code still works.
            let mut r = vec![0.0; eigenvalues.len()];
            if !r.is_empty() {
                r[0] = 1.0;
            }
            r
        };
        cnd_obs::counter_add("pca.fit.count", 1);
        let n_keep = match selection {
            ComponentSelection::Fixed(n) => n.min(eigenvalues.len()),
            ComponentSelection::VarianceFraction(f) => {
                let mut acc = 0.0;
                let mut n = eigenvalues.len();
                for (i, &r) in ratios.iter().enumerate() {
                    acc += r;
                    if acc >= f - 1e-12 {
                        n = i + 1;
                        break;
                    }
                }
                n.max(1)
            }
        };
        // Keep the first n_keep columns of the eigenvector matrix,
        // copying row slices rather than indexing element by element.
        let d = cov.rows();
        let mut components = Matrix::zeros(d, n_keep);
        for r in 0..d {
            components
                .row_mut(r)
                .copy_from_slice(&eig.eigenvectors.row(r)[..n_keep]);
        }
        Ok(Pca::assemble(
            mean,
            components,
            eigenvalues[..n_keep].to_vec(),
            ratios[..n_keep].to_vec(),
        ))
    }

    /// The one constructor: packs `C` and `Cᵀ` beside the parts.
    fn assemble(
        mean: Vec<f64>,
        components: Matrix,
        explained_variance: Vec<f64>,
        explained_variance_ratio: Vec<f64>,
    ) -> Pca {
        Pca {
            packed_c: PackedB::pack(components.view()),
            packed_ct: PackedB::pack(components.view().t()),
            mean,
            components,
            explained_variance,
            explained_variance_ratio,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.cols()
    }

    /// Input feature dimensionality expected by the transform.
    pub fn n_features(&self) -> usize {
        self.components.rows()
    }

    /// Per-component explained variance (descending).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Per-component explained-variance ratios.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained_variance_ratio
    }

    /// Column mean vector subtracted before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The retained principal axes as a `(features, n_components)`
    /// matrix (columns are components) — exposed for model persistence.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Rebuilds a fitted PCA from its parts (model persistence).
    ///
    /// `components` must be `(features, n_components)` with orthonormal
    /// columns; `explained_variance` may be empty if unknown.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `mean.len()` differs
    /// from `components.rows()`.
    pub fn from_parts(
        mean: Vec<f64>,
        components: Matrix,
        explained_variance: Vec<f64>,
    ) -> Result<Self, MlError> {
        if mean.len() != components.rows() {
            return Err(MlError::DimensionMismatch {
                fitted: components.rows(),
                given: mean.len(),
            });
        }
        let total: f64 = explained_variance.iter().sum();
        let explained_variance_ratio = if total > 0.0 {
            explained_variance.iter().map(|&v| v / total).collect()
        } else {
            vec![0.0; explained_variance.len()]
        };
        Ok(Pca::assemble(
            mean,
            components,
            explained_variance,
            explained_variance_ratio,
        ))
    }

    /// Projects `x` into the principal subspace
    /// (`T : h → l` in the paper's notation).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on a feature-count mismatch.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        self.check_dim(x)?;
        let centered = x.sub_row_broadcast(&self.mean)?;
        Ok(centered.matmul(&self.components)?)
    }

    /// Maps projections back to the original space
    /// (`T⁻¹ : l → h`, the Moore–Penrose inverse of the projection).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `l` does not have
    /// `n_components` columns.
    pub fn inverse_transform(&self, l: &Matrix) -> Result<Matrix, MlError> {
        if l.cols() != self.n_components() {
            return Err(MlError::DimensionMismatch {
                fitted: self.n_components(),
                given: l.cols(),
            });
        }
        // Transposed view: the packed GEMM reads Cᵀ straight out of the
        // component matrix, so no transposed copy is materialized.
        Ok(l.view()
            .matmul(&self.components.view().t())?
            .add_row_broadcast(&self.mean)?)
    }

    /// Feature reconstruction error `FRE(h) = ‖h − T⁻¹(T(h))‖²` per row —
    /// the CND-IDS anomaly score.
    ///
    /// Scoring is row-independent, so a batch is split into one
    /// contiguous row block per [`cnd_parallel::current`] pool thread
    /// ([`cnd_parallel::ThreadPool::par_row_blocks`]); each tile of a
    /// block runs the serial [`fre_rows_into`](Self::fre_rows_into)
    /// against the pre-packed components, so the scores are
    /// bit-identical at every pool size.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on a feature-count mismatch.
    pub fn reconstruction_errors(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let _span = cnd_obs::span!("pca.score", rows = x.rows());
        self.check_dim(x)?;
        cnd_obs::counter_add("pca.score.rows.count", x.rows() as u64);
        let mut scores = vec![0.0; x.rows()];
        cnd_parallel::current().par_row_blocks(
            &mut scores,
            x.rows(),
            |r, out, (centered, projected): &mut (Vec<f64>, Vec<f64>)| {
                self.fre_rows_into(x.view().rows_view(r.start, r.end), centered, projected, out)
                    .expect("dimension checked");
            },
        );
        Ok(scores)
    }

    /// Serial FRE of the rows of `h` into `out`, one score per row.
    ///
    /// Center → project → reconstruct (+ mean) → residual → Σv², in
    /// that order for every row, so a row's score does not depend on
    /// the rows beside it. `centered` and `projected` are scratch,
    /// cleared and resized here, so a caller scoring many tiles
    /// allocates them once.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] unless `h` has
    /// `n_features` columns and `out` has one slot per row of `h`.
    pub fn fre_rows_into(
        &self,
        h: MatrixRef<'_>,
        centered: &mut Vec<f64>,
        projected: &mut Vec<f64>,
        out: &mut [f64],
    ) -> Result<(), MlError> {
        let (n, d, k) = (h.rows(), self.n_features(), self.n_components());
        if h.cols() != d {
            return Err(MlError::DimensionMismatch {
                fitted: d,
                given: h.cols(),
            });
        }
        if out.len() != n {
            return Err(MlError::DimensionMismatch {
                fitted: n,
                given: out.len(),
            });
        }
        centered.clear();
        for i in 0..n {
            centered.extend(h.row(i).iter().zip(&self.mean).map(|(&v, &m)| v - m));
        }
        projected.resize(n * k, 0.0);
        matmul_packed_into(
            MatrixRef::from_slice(n, d, centered),
            &self.packed_c,
            projected,
        )?;
        // The reconstruction overwrites the centered rows, which the
        // projection no longer needs.
        matmul_packed_into(
            MatrixRef::from_slice(n, k, projected),
            &self.packed_ct,
            centered,
        )?;
        for (i, score) in out.iter_mut().enumerate() {
            let recon = &centered[i * d..(i + 1) * d];
            *score = h
                .row(i)
                .iter()
                .zip(recon.iter().zip(&self.mean))
                .map(|(&v, (&r, &m))| {
                    let diff = v - (r + m);
                    diff * diff
                })
                .sum();
        }
        Ok(())
    }

    fn check_dim(&self, x: &Matrix) -> Result<(), MlError> {
        if x.cols() != self.n_features() {
            return Err(MlError::DimensionMismatch {
                fitted: self.n_features(),
                given: x.cols(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data lying exactly on a 2-D plane inside 4-D space.
    fn planar_data() -> Matrix {
        Matrix::from_fn(60, 4, |i, j| {
            let u = (i as f64 * 0.37).sin();
            let v = (i as f64 * 0.11).cos();
            match j {
                0 => u,
                1 => v,
                2 => 2.0 * u - v,
                _ => u + 3.0 * v,
            }
        })
    }

    #[test]
    fn planar_data_needs_two_components() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::VarianceFraction(0.999)).unwrap();
        assert_eq!(p.n_components(), 2);
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::Fixed(4)).unwrap();
        let errs = p.reconstruction_errors(&x).unwrap();
        assert!(
            errs.iter().all(|&e| e < 1e-16),
            "max = {:?}",
            errs.iter().cloned().fold(0.0, f64::max)
        );
    }

    #[test]
    fn on_manifold_zero_off_manifold_positive() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::VarianceFraction(0.999)).unwrap();
        let on = p.reconstruction_errors(&x).unwrap();
        assert!(on.iter().all(|&e| e < 1e-12));
        // A point off the plane: violate the j=2 linear relation.
        let off = Matrix::from_rows(&[vec![1.0, 1.0, 50.0, 4.0]]).unwrap();
        assert!(p.reconstruction_errors(&off).unwrap()[0] > 100.0);
    }

    #[test]
    fn explained_variance_ratios_sum_to_one_at_full_rank() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::Fixed(4)).unwrap();
        let s: f64 = p.explained_variance_ratio().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variance_fraction_bounds_checked() {
        let x = planar_data();
        assert!(Pca::fit(&x, ComponentSelection::VarianceFraction(0.0)).is_err());
        assert!(Pca::fit(&x, ComponentSelection::VarianceFraction(1.5)).is_err());
        assert!(Pca::fit(&x, ComponentSelection::Fixed(0)).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        let x = Matrix::zeros(0, 3);
        assert!(matches!(
            Pca::fit(&x, ComponentSelection::Fixed(1)),
            Err(MlError::EmptyInput)
        ));
    }

    #[test]
    fn transform_roundtrip_shapes() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::Fixed(2)).unwrap();
        let l = p.transform(&x).unwrap();
        assert_eq!(l.shape(), (60, 2));
        let back = p.inverse_transform(&l).unwrap();
        assert_eq!(back.shape(), (60, 4));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::Fixed(2)).unwrap();
        assert!(p.transform(&Matrix::zeros(3, 5)).is_err());
        assert!(p.inverse_transform(&Matrix::zeros(3, 3)).is_err());
        assert!(p.reconstruction_errors(&Matrix::zeros(3, 5)).is_err());
        let (mut c, mut l) = (Vec::new(), Vec::new());
        let mut out = [0.0; 2];
        assert!(p.fre_rows_into(x.view(), &mut c, &mut l, &mut out).is_err());
        let two = x.rows_view(0, 2).unwrap();
        p.fre_rows_into(two, &mut c, &mut l, &mut out).unwrap();
        assert_eq!(
            out.to_vec(),
            p.reconstruction_errors(&x.slice_rows(0, 2).unwrap())
                .unwrap()
        );
    }

    #[test]
    fn constant_data_degenerate_but_usable() {
        let x = Matrix::filled(10, 3, 2.0);
        let p = Pca::fit(&x, ComponentSelection::VarianceFraction(0.95)).unwrap();
        assert!(p.n_components() >= 1);
        let errs = p.reconstruction_errors(&x).unwrap();
        assert!(errs.iter().all(|&e| e < 1e-18));
    }

    #[test]
    fn fixed_count_clamped_to_features() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::Fixed(10)).unwrap();
        assert_eq!(p.n_components(), 4);
    }

    #[test]
    fn scores_increase_with_distance_from_manifold() {
        let x = planar_data();
        let p = Pca::fit(&x, ComponentSelection::VarianceFraction(0.999)).unwrap();
        let near = Matrix::from_rows(&[vec![1.0, 1.0, 1.0 + 0.1, 4.0]]).unwrap();
        let far = Matrix::from_rows(&[vec![1.0, 1.0, 1.0 + 10.0, 4.0]]).unwrap();
        let en = p.reconstruction_errors(&near).unwrap()[0];
        let ef = p.reconstruction_errors(&far).unwrap()[0];
        assert!(ef > en * 100.0);
    }
}
