use std::error::Error;
use std::fmt;

use cnd_linalg::LinalgError;
use cnd_ml::MlError;
use cnd_nn::NnError;

/// Error type for novelty detectors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DetectorError {
    /// `anomaly_scores` was called before `fit`.
    NotFitted,
    /// `fit` received an empty dataset.
    EmptyInput,
    /// Scoring input feature count differs from the fitted data.
    DimensionMismatch {
        /// Feature count at fit time.
        fitted: usize,
        /// Feature count of the new input.
        given: usize,
    },
    /// A hyper-parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        constraint: &'static str,
    },
    /// An underlying matrix operation failed.
    Linalg(LinalgError),
    /// An underlying classical-ML estimator failed.
    Ml(MlError),
    /// An underlying neural-network operation failed.
    Nn(NnError),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::NotFitted => write!(f, "detector used before fit"),
            DetectorError::EmptyInput => write!(f, "fit requires a non-empty dataset"),
            DetectorError::DimensionMismatch { fitted, given } => {
                write!(
                    f,
                    "detector fitted on {fitted} features but input has {given}"
                )
            }
            DetectorError::InvalidParameter { name, constraint } => {
                write!(f, "parameter {name} violates constraint: {constraint}")
            }
            DetectorError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            DetectorError::Ml(e) => write!(f, "ml estimator error: {e}"),
            DetectorError::Nn(e) => write!(f, "neural network error: {e}"),
        }
    }
}

impl Error for DetectorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DetectorError::Linalg(e) => Some(e),
            DetectorError::Ml(e) => Some(e),
            DetectorError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for DetectorError {
    fn from(e: LinalgError) -> Self {
        DetectorError::Linalg(e)
    }
}

impl From<MlError> for DetectorError {
    fn from(e: MlError) -> Self {
        DetectorError::Ml(e)
    }
}

impl From<NnError> for DetectorError {
    fn from(e: NnError) -> Self {
        DetectorError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(DetectorError::NotFitted.to_string().contains("before fit"));
        let e = DetectorError::from(MlError::EmptyInput);
        assert!(e.to_string().contains("ml estimator"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DetectorError>();
    }
}
