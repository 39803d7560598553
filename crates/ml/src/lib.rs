//! # cnd-ml
//!
//! Classical machine-learning substrate for the CND-IDS reproduction:
//!
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding, plus the
//!   *elbow method* ([`kmeans::select_k_elbow`]) the paper uses to choose
//!   the number of clusters (Section IV-A). The ADCN baseline selects its
//!   latent K with it; the CFE's pseudo-labelling uses `round(√n)`
//!   instead (DESIGN.md §1).
//! * [`Pca`] — principal component analysis with the explained-variance
//!   component-selection rule (the paper keeps 95% of variance) and the
//!   feature-reconstruction-error (FRE) anomaly score of Section III-D.
//! * [`StandardScaler`] / [`MinMaxScaler`] — feature normalization fitted
//!   on training data and applied to streams.
//!
//! All estimators follow a `fit` / `transform` (or `fit` / `score`)
//! convention, take explicit RNGs where stochastic, and return errors
//! rather than panicking on bad input.
//!
//! # Example
//!
//! ```
//! use cnd_linalg::Matrix;
//! use cnd_ml::{KMeans, Pca};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let x = Matrix::from_fn(40, 3, |i, j| if i < 20 { j as f64 } else { j as f64 + 10.0 });
//! let km = KMeans::fit(&x, 2, 50, &mut rng)?;
//! assert_eq!(km.centroids().rows(), 2);
//!
//! let pca = Pca::fit(&x, cnd_ml::pca::ComponentSelection::VarianceFraction(0.95))?;
//! let scores = pca.reconstruction_errors(&x)?;
//! assert_eq!(scores.len(), 40);
//! # Ok::<(), cnd_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod chunked;
pub mod kmeans;
pub mod pca;
pub mod scaler;

pub use error::MlError;
pub use kmeans::KMeans;
pub use pca::{Pca, PcaF32};
pub use scaler::{MinMaxScaler, StandardScaler, StandardScalerF32};
