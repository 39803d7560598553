//! # cnd-detectors
//!
//! From-scratch implementations of every novelty-detection baseline the
//! CND-IDS paper compares against (Section IV-A / Fig. 4):
//!
//! * [`LocalOutlierFactor`] — LOF in novelty mode (Breunig et al.),
//!   exact brute-force k-nearest-neighbour computation.
//! * [`OneClassSvm`] — ν-one-class SVM trained on a random-Fourier-feature
//!   approximation of the RBF kernel with projected subgradient descent
//!   (the standard large-scale approximation; see DESIGN.md §1 for the
//!   substitution rationale).
//! * [`IsolationForest`] — Liu et al.'s iForest with subsampled trees and
//!   the canonical average-path-length normalization.
//! * [`DeepIsolationForest`] — Xu et al.'s DIF: an ensemble of
//!   randomly-initialized MLP representations, each scored by its own
//!   isolation forest, averaged.
//! * [`PcaDetector`] — plain PCA reconstruction error (the non-continual
//!   ancestor of CND-IDS's novelty detector).
//!
//! Two extension baselines beyond the paper's roster round out the
//! comparison in the extended benches:
//!
//! * [`KnnDetector`] — raw k-nearest-neighbour distance (the
//!   unnormalized signal LOF builds on).
//! * [`MahalanobisDetector`] — single-Gaussian Mahalanobis distance
//!   (direction-aware parametric baseline).
//! * [`AutoencoderDetector`] — MLP autoencoder reconstruction error
//!   (the non-linear counterpart of [`PcaDetector`]).
//!
//! All detectors implement the object-safe [`NoveltyDetector`] trait:
//! `fit` on (assumed mostly normal) training data, then
//! [`anomaly_scores`](NoveltyDetector::anomaly_scores) where **higher
//! scores mean more anomalous** — the orientation expected by the
//! Best-F thresholding and PR-AUC code in `cnd-metrics`.
//!
//! # Example
//!
//! ```
//! use cnd_linalg::Matrix;
//! use cnd_detectors::{IsolationForest, NoveltyDetector};
//!
//! let train = Matrix::from_fn(256, 2, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
//! let mut forest = IsolationForest::new(50, 64, 42);
//! forest.fit(&train)?;
//! let far = Matrix::from_rows(&[vec![50.0, -50.0]])?;
//! let near = train.slice_rows(0, 1)?;
//! let s = forest.anomaly_scores(&far.vstack(&near)?)?;
//! assert!(s[0] > s[1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoencoder;
mod dif;
mod error;
mod iforest;
mod knn;
mod lof;
mod mahalanobis;
mod ocsvm;
mod pca_detector;

pub use autoencoder::{AutoencoderConfig, AutoencoderDetector};
pub use dif::{DeepIsolationForest, DeepIsolationForestConfig};
pub use error::DetectorError;
pub use iforest::IsolationForest;
pub use knn::{KnnAggregation, KnnDetector};
pub use lof::LocalOutlierFactor;
pub use mahalanobis::MahalanobisDetector;
pub use ocsvm::{OneClassSvm, OneClassSvmConfig};
pub use pca_detector::PcaDetector;

use cnd_linalg::Matrix;

/// Common interface for all novelty detectors.
///
/// Detectors are fitted on (assumed normal) training data and then score
/// arbitrary batches; **higher scores indicate more anomalous samples**.
/// The trait is object-safe so the experiment runner can iterate over a
/// heterogeneous `Vec<Box<dyn NoveltyDetector>>`.
pub trait NoveltyDetector {
    /// Fits the detector to training data (one sample per row).
    ///
    /// # Errors
    ///
    /// Implementations reject empty input and may propagate numeric
    /// failures.
    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError>;

    /// Scores each row of `x`; higher means more anomalous.
    ///
    /// # Errors
    ///
    /// Returns [`DetectorError::NotFitted`] before `fit` and dimension
    /// errors when the feature count differs from the fitted data.
    fn anomaly_scores(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError>;

    /// Short human-readable name used in benchmark tables.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn takes_boxed(_: &dyn NoveltyDetector) {}
        let d = IsolationForest::new(5, 16, 0);
        takes_boxed(&d);
    }
}
