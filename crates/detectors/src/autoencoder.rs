//! Autoencoder reconstruction-error novelty detection.
//!
//! The classic deep unsupervised ML-IDS baseline (paper Section II cites
//! autoencoders among the standard unsupervised models): train an MLP
//! autoencoder on (assumed normal) data and score queries by input-space
//! reconstruction error. Complements [`crate::PcaDetector`] — the same
//! principle with a non-linear, learned manifold — and isolates what the
//! full CND-IDS adds on top of plain reconstruction (pseudo-labels,
//! triplet separation, continual updates, latent PCA).

use cnd_linalg::Matrix;
use cnd_ml::StandardScaler;
use cnd_nn::{loss, Activation, Adam, Sequential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DetectorError, NoveltyDetector};

/// Configuration for [`AutoencoderDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoencoderConfig {
    /// Hidden-layer width.
    pub hidden_dim: usize,
    /// Bottleneck width (input-relative defaults are fine: the detector
    /// clamps to at least 2 and at most the input width).
    pub latent_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        AutoencoderConfig {
            hidden_dim: 64,
            latent_dim: 16,
            epochs: 15,
            batch_size: 128,
            learning_rate: 0.002,
            seed: 0,
        }
    }
}

/// MLP autoencoder novelty detector scoring by reconstruction MSE.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
/// use cnd_detectors::{AutoencoderDetector, NoveltyDetector};
///
/// // Normal data on a curve; anomalies off it.
/// let train = Matrix::from_fn(300, 3, |i, j| {
///     let t = i as f64 * 0.05;
///     match j { 0 => t.sin(), 1 => t.cos(), _ => t.sin() * t.cos() }
/// });
/// let mut det = AutoencoderDetector::new(Default::default());
/// det.fit(&train)?;
/// let s = det.anomaly_scores(&Matrix::from_rows(&[
///     vec![0.5, 0.86, 0.43],  // near the manifold
///     vec![3.0, -3.0, 3.0],   // far off it
/// ])?)?;
/// assert!(s[1] > s[0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AutoencoderDetector {
    config: AutoencoderConfig,
    scaler: Option<StandardScaler>,
    encoder: Option<Sequential>,
    decoder: Option<Sequential>,
}

impl AutoencoderDetector {
    /// Creates an unfitted detector.
    pub fn new(config: AutoencoderConfig) -> Self {
        AutoencoderDetector {
            config,
            scaler: None,
            encoder: None,
            decoder: None,
        }
    }
}

impl NoveltyDetector for AutoencoderDetector {
    fn fit(&mut self, x: &Matrix) -> Result<(), DetectorError> {
        if x.rows() == 0 {
            return Err(DetectorError::EmptyInput);
        }
        let c = self.config;
        if c.hidden_dim == 0 || c.epochs == 0 || c.batch_size == 0 {
            return Err(DetectorError::InvalidParameter {
                name: "hidden_dim/epochs/batch_size",
                constraint: "must be >= 1",
            });
        }
        let latent = c.latent_dim.clamp(2, x.cols().max(2));
        let mut rng = StdRng::seed_from_u64(c.seed);
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let mut encoder = Sequential::mlp(
            &[x.cols(), c.hidden_dim, latent],
            Activation::Tanh,
            &mut rng,
        );
        let mut decoder = Sequential::mlp(
            &[latent, c.hidden_dim, x.cols()],
            Activation::Tanh,
            &mut rng,
        );
        let mut opt = Adam::new(c.learning_rate);
        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..c.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(c.batch_size) {
                let xb = xs.select_rows(chunk)?;
                encoder.zero_grad();
                decoder.zero_grad();
                let h = encoder.forward(&xb);
                let y = decoder.forward(h);
                let (_l, d) = loss::mse(y, &xb)?;
                let dh = decoder.backward(&d)?;
                encoder.backward_params(dh)?;
                encoder.apply_gradients_offset(&mut opt, 0);
                decoder.apply_gradients_offset(&mut opt, 100_000);
            }
        }
        self.scaler = Some(scaler);
        encoder.release_workspace();
        decoder.release_workspace();
        self.encoder = Some(encoder);
        self.decoder = Some(decoder);
        Ok(())
    }

    fn anomaly_scores(&self, x: &Matrix) -> Result<Vec<f64>, DetectorError> {
        let scaler = self.scaler.as_ref().ok_or(DetectorError::NotFitted)?;
        let encoder = self.encoder.as_ref().ok_or(DetectorError::NotFitted)?;
        let decoder = self.decoder.as_ref().ok_or(DetectorError::NotFitted)?;
        if x.cols() != scaler.mean().len() {
            return Err(DetectorError::DimensionMismatch {
                fitted: scaler.mean().len(),
                given: x.cols(),
            });
        }
        let xs = scaler.transform(x)?;
        let y = decoder.forward_inference(&encoder.forward_inference(&xs));
        let diff = xs.sub(&y)?;
        Ok(diff
            .iter_rows()
            .map(|r| r.iter().map(|v| v * v).sum::<f64>() / r.len() as f64)
            .collect())
    }

    fn name(&self) -> &'static str {
        "Autoencoder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifold() -> Matrix {
        Matrix::from_fn(400, 4, |i, j| {
            let t = i as f64 * 0.03;
            match j {
                0 => t.sin(),
                1 => t.cos(),
                2 => (2.0 * t).sin() * 0.5,
                _ => t.sin() + t.cos(),
            }
        })
    }

    #[test]
    fn detects_off_manifold_points() {
        let mut det = AutoencoderDetector::new(AutoencoderConfig {
            latent_dim: 2,
            ..Default::default()
        });
        det.fit(&manifold()).unwrap();
        let on = manifold().slice_rows(0, 20).unwrap();
        let off = Matrix::filled(20, 4, 5.0);
        let s_on = det.anomaly_scores(&on).unwrap();
        let s_off = det.anomaly_scores(&off).unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&s_off) > 3.0 * mean(&s_on),
            "on {:.4} off {:.4}",
            mean(&s_on),
            mean(&s_off)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let x = manifold();
        let mut a = AutoencoderDetector::new(Default::default());
        let mut b = AutoencoderDetector::new(Default::default());
        a.fit(&x).unwrap();
        b.fit(&x).unwrap();
        assert_eq!(a.anomaly_scores(&x).unwrap(), b.anomaly_scores(&x).unwrap());
    }

    #[test]
    fn error_paths() {
        let det = AutoencoderDetector::new(Default::default());
        assert_eq!(
            det.anomaly_scores(&Matrix::zeros(1, 4)),
            Err(DetectorError::NotFitted)
        );
        let mut bad = AutoencoderDetector::new(AutoencoderConfig {
            epochs: 0,
            ..Default::default()
        });
        assert!(matches!(
            bad.fit(&manifold()),
            Err(DetectorError::InvalidParameter { .. })
        ));
        let mut fitted = AutoencoderDetector::new(Default::default());
        fitted.fit(&manifold()).unwrap();
        assert!(matches!(
            fitted.anomaly_scores(&Matrix::zeros(1, 7)),
            Err(DetectorError::DimensionMismatch { .. })
        ));
        let mut empty = AutoencoderDetector::new(Default::default());
        assert_eq!(
            empty.fit(&Matrix::zeros(0, 4)),
            Err(DetectorError::EmptyInput)
        );
    }
}
