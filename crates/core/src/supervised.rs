//! A plain supervised MLP-IDS, used to reproduce the paper's
//! motivational Fig. 1: supervised detectors excel on attack types seen
//! during training and collapse on unseen (zero-day) types.

use cnd_linalg::Matrix;
use cnd_ml::StandardScaler;
use cnd_nn::{loss, Activation, Adam, Sequential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CoreError;

/// Configuration of the supervised MLP classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpClassifierConfig {
    /// Hidden-layer width.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlpClassifierConfig {
    fn default() -> Self {
        MlpClassifierConfig {
            hidden_dim: 64,
            epochs: 15,
            batch_size: 128,
            learning_rate: 0.002,
            seed: 0,
        }
    }
}

/// A binary MLP classifier with a sigmoid output head.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    config: MlpClassifierConfig,
    scaler: Option<StandardScaler>,
    net: Option<Sequential>,
}

impl MlpClassifier {
    /// Creates an untrained classifier.
    pub fn new(config: MlpClassifierConfig) -> Self {
        MlpClassifier {
            config,
            scaler: None,
            net: None,
        }
    }

    /// Fits the classifier on labelled data (`0` normal / `1` attack).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSeedSet`] on empty or mismatched input;
    /// propagates network errors.
    pub fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), CoreError> {
        if x.rows() == 0 || x.rows() != y.len() {
            return Err(CoreError::BadSeedSet {
                reason: format!("{} rows vs {} labels", x.rows(), y.len()),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let mut net = Sequential::new();
        net.push_linear(x.cols(), self.config.hidden_dim, &mut rng);
        net.push_activation(Activation::Relu);
        net.push_linear(self.config.hidden_dim, self.config.hidden_dim, &mut rng);
        net.push_activation(Activation::Relu);
        net.push_linear(self.config.hidden_dim, 1, &mut rng);
        net.push_activation(Activation::Sigmoid);

        let targets = Matrix::from_fn(y.len(), 1, |i, _| f64::from(y[i]));
        let mut opt = Adam::new(self.config.learning_rate);
        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.batch_size) {
                let xb = xs.select_rows(chunk)?;
                let tb = targets.select_rows(chunk)?;
                net.zero_grad();
                let p = net.forward(&xb);
                // MSE on probabilities — a Brier-score objective; simple
                // and sufficient for the motivational figure.
                let (_l, d) = loss::mse(p, &tb)?;
                net.backward_params(&d)?;
                net.apply_gradients(&mut opt);
            }
        }
        self.scaler = Some(scaler);
        net.release_workspace();
        self.net = Some(net);
        Ok(())
    }

    /// Attack probability per row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before [`MlpClassifier::fit`].
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, CoreError> {
        let net = self.net.as_ref().ok_or(CoreError::NotTrained)?;
        let scaler = self.scaler.as_ref().ok_or(CoreError::NotTrained)?;
        let p = net.forward_inference(&scaler.transform(x)?);
        Ok(p.col_iter(0).collect())
    }

    /// Binary prediction at threshold 0.5.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before [`MlpClassifier::fit`].
    pub fn predict(&self, x: &Matrix) -> Result<Vec<u8>, CoreError> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| u8::from(p > 0.5))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labelled_blobs() -> (Matrix, Vec<u8>) {
        let x = Matrix::from_fn(240, 4, |i, j| {
            let base = if i % 2 == 0 { 0.0 } else { 4.0 };
            base + ((i * 7 + j * 3) % 13) as f64 / 13.0
        });
        let y: Vec<u8> = (0..240).map(|i| (i % 2) as u8).collect();
        (x, y)
    }

    #[test]
    fn learns_separable_problem() {
        let (x, y) = labelled_blobs();
        let mut clf = MlpClassifier::new(Default::default());
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        let f1 = cnd_metrics::classification::f1_score(&pred, &y).unwrap();
        assert!(f1 > 0.95, "F1 = {f1}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = labelled_blobs();
        let mut clf = MlpClassifier::new(Default::default());
        clf.fit(&x, &y).unwrap();
        let p = clf.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn untrained_errors() {
        let clf = MlpClassifier::new(Default::default());
        assert!(matches!(
            clf.predict(&Matrix::zeros(1, 4)),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn rejects_mismatched_labels() {
        let (x, _) = labelled_blobs();
        let mut clf = MlpClassifier::new(Default::default());
        assert!(matches!(
            clf.fit(&x, &[0, 1]),
            Err(CoreError::BadSeedSet { .. })
        ));
    }
}
