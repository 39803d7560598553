//! Feature scalers fitted on training data and applied to streams.
//!
//! Intrusion-flow features span wildly different ranges (packet counts,
//! durations, byte totals), so every pipeline in the reproduction scales
//! inputs before feeding them to a model — the paper's preprocessing
//! implied by its use of MLPs and distance-based methods.

use cnd_linalg::{stats, Matrix, MatrixRef};

use crate::MlError;

/// Standardizes features to zero mean and unit variance.
///
/// Constant features (zero variance) are mapped to zero rather than NaN.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use cnd_ml::StandardScaler;
///
/// let x = Matrix::from_rows(&[vec![0.0, 100.0], vec![2.0, 300.0]])?;
/// let sc = StandardScaler::fit(&x)?;
/// let z = sc.transform(&x)?;
/// assert!((z[(0, 0)] + 1.0).abs() < 1e-12);
/// assert!((z[(1, 1)] - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to `x`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] for an empty matrix.
    pub fn fit(x: &Matrix) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput);
        }
        let mean = stats::column_means(x)?;
        let std = stats::column_stds(x)?;
        Ok(StandardScaler { mean, std })
    }

    /// Fitted per-feature means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Fitted per-feature standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Rebuilds a fitted scaler from its parts (model persistence).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the vectors differ in
    /// length.
    pub fn from_parts(mean: Vec<f64>, std: Vec<f64>) -> Result<Self, MlError> {
        if mean.len() != std.len() {
            return Err(MlError::DimensionMismatch {
                fitted: mean.len(),
                given: std.len(),
            });
        }
        Ok(StandardScaler { mean, std })
    }

    /// Applies `(x - mean) / std` per column.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on a feature-count mismatch.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        let mut out = Vec::new();
        self.transform_rows_into(x.view(), &mut out)?;
        Ok(Matrix::from_vec(x.rows(), x.cols(), out)?)
    }

    /// [`transform`](Self::transform) of a row block into a reused
    /// buffer: `out` is cleared and refilled row-major with the scaled
    /// rows of `x`. Each element is computed exactly as `transform`
    /// computes it.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on a feature-count mismatch.
    pub fn transform_rows_into(&self, x: MatrixRef<'_>, out: &mut Vec<f64>) -> Result<(), MlError> {
        if x.cols() != self.mean.len() {
            return Err(MlError::DimensionMismatch {
                fitted: self.mean.len(),
                given: x.cols(),
            });
        }
        out.clear();
        out.reserve(x.rows() * x.cols());
        for i in 0..x.rows() {
            let scaled = x
                .row(i)
                .iter()
                .zip(&self.mean)
                .zip(&self.std)
                .map(|((&v, &m), &s)| {
                    let c = v - m;
                    if s > 1e-12 {
                        c / s
                    } else {
                        0.0
                    }
                });
            out.extend(scaled);
        }
        Ok(())
    }

    /// Convenience: fit on `x` then transform it.
    ///
    /// # Errors
    ///
    /// See [`StandardScaler::fit`].
    pub fn fit_transform(x: &Matrix) -> Result<(Self, Matrix), MlError> {
        let sc = Self::fit(x)?;
        let z = sc.transform(x)?;
        Ok((sc, z))
    }
}

/// Scales features linearly into `[0, 1]` based on the fitted min/max.
///
/// Values outside the fitted range extrapolate linearly (they are *not*
/// clipped), so drifting streams remain distinguishable.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    min: Vec<f64>,
    range: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler to `x`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] for an empty matrix.
    pub fn fit(x: &Matrix) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput);
        }
        let d = x.cols();
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for row in x.iter_rows() {
            for j in 0..d {
                min[j] = min[j].min(row[j]);
                max[j] = max[j].max(row[j]);
            }
        }
        let range = min.iter().zip(&max).map(|(lo, hi)| hi - lo).collect();
        Ok(MinMaxScaler { min, range })
    }

    /// Applies `(x - min) / (max - min)` per column; constant features
    /// map to zero.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on a feature-count mismatch.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if x.cols() != self.min.len() {
            return Err(MlError::DimensionMismatch {
                fitted: self.min.len(),
                given: x.cols(),
            });
        }
        let mut out = x.sub_row_broadcast(&self.min)?;
        for row in 0..out.rows() {
            let r = out.row_mut(row);
            for (v, &rg) in r.iter_mut().zip(&self.range) {
                *v = if rg > 1e-12 { *v / rg } else { 0.0 };
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scaler_zero_mean_unit_var() {
        let x = Matrix::from_fn(20, 3, |i, j| (i as f64) * (j + 1) as f64 + j as f64);
        let (_, z) = StandardScaler::fit_transform(&x).unwrap();
        let means = stats::column_means(&z).unwrap();
        let stds = stats::column_stds(&z).unwrap();
        for m in means {
            assert!(m.abs() < 1e-10);
        }
        for s in stds {
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn standard_scaler_constant_feature_maps_to_zero() {
        let x = Matrix::from_fn(5, 2, |i, j| if j == 0 { 7.0 } else { i as f64 });
        let (_, z) = StandardScaler::fit_transform(&x).unwrap();
        assert!(z.col_iter(0).all(|v| v == 0.0));
    }

    #[test]
    fn standard_scaler_dimension_check() {
        let x = Matrix::filled(3, 2, 1.0);
        let sc = StandardScaler::fit(&x).unwrap();
        assert!(sc.transform(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn standard_scaler_empty_rejected() {
        assert!(StandardScaler::fit(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let x = Matrix::from_fn(10, 2, |i, j| i as f64 * (j as f64 + 1.0) - 3.0);
        let sc = MinMaxScaler::fit(&x).unwrap();
        let z = sc.transform(&x).unwrap();
        for &v in z.iter() {
            assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        }
        // Extremes hit exactly 0 and 1.
        assert!(z.col_iter(0).any(|v| v.abs() < 1e-12));
        assert!(z.col_iter(0).any(|v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn minmax_extrapolates_out_of_range() {
        let x = Matrix::from_rows(&[vec![0.0], vec![10.0]]).unwrap();
        let sc = MinMaxScaler::fit(&x).unwrap();
        let z = sc
            .transform(&Matrix::from_rows(&[vec![20.0]]).unwrap())
            .unwrap();
        assert!((z[(0, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_constant_feature() {
        let x = Matrix::filled(4, 1, 5.0);
        let sc = MinMaxScaler::fit(&x).unwrap();
        let z = sc.transform(&x).unwrap();
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
