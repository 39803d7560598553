use std::error::Error;
use std::fmt;

use cnd_linalg::LinalgError;

/// Error type for the classical-ML estimators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MlError {
    /// An underlying matrix operation failed.
    Linalg(LinalgError),
    /// `fit` was given an empty dataset.
    EmptyInput,
    /// The requested cluster count exceeds the number of samples, or is 0.
    BadClusterCount {
        /// Requested number of clusters.
        k: usize,
        /// Number of available samples.
        samples: usize,
    },
    /// `transform`/`score` input dimensionality differs from `fit`.
    DimensionMismatch {
        /// Dimensionality seen at fit time.
        fitted: usize,
        /// Dimensionality of the new input.
        given: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            MlError::EmptyInput => write!(f, "fit requires a non-empty dataset"),
            MlError::BadClusterCount { k, samples } => {
                write!(f, "cannot form {k} clusters from {samples} samples")
            }
            MlError::DimensionMismatch { fitted, given } => {
                write!(f, "model fitted on {fitted} features but input has {given}")
            }
            MlError::InvalidParameter { name, constraint } => {
                write!(f, "parameter {name} violates constraint: {constraint}")
            }
        }
    }
}

impl Error for MlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MlError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MlError {
    fn from(e: LinalgError) -> Self {
        MlError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(MlError::EmptyInput.to_string().contains("non-empty"));
        assert!(MlError::BadClusterCount { k: 5, samples: 2 }
            .to_string()
            .contains("5 clusters"));
        assert!(MlError::DimensionMismatch {
            fitted: 3,
            given: 4
        }
        .to_string()
        .contains("3 features"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
