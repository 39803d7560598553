//! Unsupervised continual-learning (UCL) baselines: ADCN and LwF.
//!
//! Both baselines (paper Section IV-A) share a substrate: an MLP
//! autoencoder whose latent space is clustered with K-Means, with
//! clusters classified by **labelled-cluster voting** over a small
//! labelled seed set (the paper: "both ADCN and LwF require a small
//! amount of labeled normal and attack data to perform classification").
//! They differ in their anti-forgetting mechanism:
//!
//! * **ADCN** (Ashfahani & Pratama) — *latent regularization*: the
//!   current embedding of new data is pulled toward the previous model's
//!   embedding, plus a clustering-friendliness term pulling embeddings
//!   toward their assigned centroids (the self-clustering flavour of the
//!   original network, simplified per DESIGN.md §1).
//! * **LwF** (Li & Hoiem, adapted) — *output distillation*: the current
//!   autoencoder's reconstruction of new data is regularized toward the
//!   previous model's reconstruction.
//!
//! Unlike CND-IDS these methods assign labels by nearest labelled
//! cluster and therefore produce **no anomaly score** — exactly why the
//! paper excludes them from the threshold-free comparison (Fig. 5).

use cnd_linalg::{stats, vector, Matrix};
use cnd_ml::{kmeans, KMeans, StandardScaler};
use cnd_nn::{loss, Activation, Adam, Sequential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CoreError;

/// Which anti-forgetting mechanism a [`UclBaseline`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UclMethod {
    /// Autonomous Deep Clustering Network (latent regularization +
    /// clustering loss).
    Adcn,
    /// Autoencoder + K-Means with Learning-without-Forgetting
    /// reconstruction distillation.
    Lwf,
}

impl UclMethod {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            UclMethod::Adcn => "ADCN",
            UclMethod::Lwf => "LwF",
        }
    }
}

/// Hyper-parameters shared by the two UCL baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UclConfig {
    /// Embedding dimensionality.
    pub latent_dim: usize,
    /// Hidden-layer width.
    pub hidden_dim: usize,
    /// Training epochs per experience.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight of the anti-forgetting loss.
    pub lambda_cl: f64,
    /// Weight of ADCN's pull-to-centroid clustering loss.
    pub lambda_cluster: f64,
    /// Upper bound of the elbow search for latent K-Means.
    pub max_k: usize,
    /// Fraction of each experience's training rows revealed as the
    /// labelled seed set.
    pub labeled_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UclConfig {
    /// Configuration matched to [`crate::CfeConfig::paper`] capacity.
    pub fn paper(seed: u64) -> Self {
        UclConfig {
            latent_dim: 32,
            hidden_dim: 256,
            epochs: 20,
            batch_size: 128,
            learning_rate: 0.001,
            lambda_cl: 0.1,
            lambda_cluster: 0.05,
            max_k: 10,
            labeled_fraction: 0.05,
            seed,
        }
    }

    /// Reduced configuration for tests.
    pub fn fast(seed: u64) -> Self {
        UclConfig {
            latent_dim: 16,
            hidden_dim: 64,
            epochs: 6,
            batch_size: 128,
            learning_rate: 0.002,
            lambda_cl: 0.1,
            lambda_cluster: 0.05,
            max_k: 6,
            labeled_fraction: 0.05,
            seed,
        }
    }
}

/// A fitted-cluster classifier state.
#[derive(Debug, Clone)]
struct ClusterClassifier {
    kmeans: KMeans,
    /// Binary label per cluster (`0` normal / `1` attack).
    labels: Vec<u8>,
}

/// An unsupervised continual-learning baseline (ADCN or LwF).
#[derive(Debug, Clone)]
pub struct UclBaseline {
    method: UclMethod,
    config: UclConfig,
    scaler: Option<StandardScaler>,
    encoder: Sequential,
    decoder: Sequential,
    optimizer: Adam,
    /// Previous model snapshot for the anti-forgetting loss.
    past: Option<(Sequential, Sequential)>,
    classifier: Option<ClusterClassifier>,
    experiences_trained: usize,
    input_dim: usize,
    rng: StdRng,
}

impl UclBaseline {
    /// Builds an untrained baseline for `input_dim`-dimensional data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on degenerate parameters.
    pub fn new(method: UclMethod, input_dim: usize, config: UclConfig) -> Result<Self, CoreError> {
        if input_dim == 0 || config.latent_dim == 0 || config.hidden_dim == 0 {
            return Err(CoreError::InvalidConfig {
                name: "dimensions",
                constraint: "must be >= 1",
            });
        }
        if !(config.labeled_fraction > 0.0 && config.labeled_fraction <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "labeled_fraction",
                constraint: "must be in (0, 1]",
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = Sequential::mlp(
            &[input_dim, config.hidden_dim, config.latent_dim],
            Activation::Relu,
            &mut rng,
        );
        let decoder = Sequential::mlp(
            &[config.latent_dim, config.hidden_dim, input_dim],
            Activation::Relu,
            &mut rng,
        );
        Ok(UclBaseline {
            method,
            config,
            scaler: None,
            encoder,
            decoder,
            optimizer: Adam::new(config.learning_rate),
            past: None,
            classifier: None,
            experiences_trained: 0,
            input_dim,
            rng,
        })
    }

    /// The method implemented by this baseline.
    pub fn method(&self) -> UclMethod {
        self.method
    }

    /// Number of experiences trained so far.
    pub fn experiences_trained(&self) -> usize {
        self.experiences_trained
    }

    /// Input feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Trains one experience on `x_train` with a labelled seed subset
    /// (`seed_x`, `seed_y`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSeedSet`] when the seed set is empty;
    /// propagates network and clustering errors.
    pub fn train_experience(
        &mut self,
        x_train: &Matrix,
        seed_x: &Matrix,
        seed_y: &[u8],
    ) -> Result<(), CoreError> {
        if seed_x.rows() == 0 || seed_x.rows() != seed_y.len() {
            return Err(CoreError::BadSeedSet {
                reason: format!(
                    "seed set has {} rows and {} labels",
                    seed_x.rows(),
                    seed_y.len()
                ),
            });
        }
        if self.scaler.is_none() {
            self.scaler = Some(StandardScaler::fit(x_train)?);
        }
        let scaler = self.scaler.clone().expect("fitted above");
        let xs = scaler.transform(x_train)?;

        // Previous centroids for ADCN's clustering loss.
        let prev_centroids = self
            .classifier
            .as_ref()
            .map(|c| c.kmeans.centroids().clone());

        // The previous snapshot's output for every row, computed once per
        // experience (per-row exact, so minibatch rows of it are the bits
        // a per-minibatch forward would give): ADCN's latents, LwF's
        // reconstructions.
        let past_targets = self.past.as_ref().map(|(enc, dec)| {
            let h = enc.forward_inference(&xs);
            match self.method {
                UclMethod::Adcn => h,
                UclMethod::Lwf => dec.forward_inference(&h),
            }
        });

        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..self.config.epochs {
            for i in (1..n).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.batch_size) {
                let xb = xs.select_rows(chunk)?;
                let past_b = past_targets
                    .as_ref()
                    .map(|t| t.select_rows(chunk))
                    .transpose()?;
                self.train_batch(&xb, past_b.as_ref(), prev_centroids.as_ref())?;
            }
        }
        self.encoder.release_workspace();
        self.decoder.release_workspace();

        // Latent clustering + labelled-cluster voting.
        let h = self.encoder.forward_inference(&xs);
        let upper = self.config.max_k.min(h.rows());
        let k = kmeans::select_k_elbow(&h, 1..=upper, 60, &mut self.rng)?;
        let km = KMeans::fit(&h, k, 100, &mut self.rng)?;
        let seed_scaled = scaler.transform(seed_x)?;
        let seed_h = self.encoder.forward_inference(&seed_scaled);
        let seed_clusters = km.predict(&seed_h)?;
        let mut votes = vec![(0usize, 0usize); k]; // (normal, attack)
        for (&c, &y) in seed_clusters.iter().zip(seed_y) {
            if y == 0 {
                votes[c].0 += 1;
            } else {
                votes[c].1 += 1;
            }
        }
        // Prior-normalized voting: with heavy class imbalance a raw
        // majority would label every cluster normal, so each vote is
        // weighted by the inverse frequency of its class in the seed set.
        let total_normal = seed_y.iter().filter(|&&y| y == 0).count().max(1) as f64;
        let total_attack = seed_y.iter().filter(|&&y| y != 0).count().max(1) as f64;
        let mut labels = vec![None::<u8>; k];
        for (c, &(n0, n1)) in votes.iter().enumerate() {
            if n0 + n1 > 0 {
                let normal_rate = n0 as f64 / total_normal;
                let attack_rate = n1 as f64 / total_attack;
                labels[c] = Some(u8::from(attack_rate > normal_rate));
            }
        }
        let centroids = km.centroids();
        let resolved: Vec<u8> = (0..k)
            .map(|c| {
                labels[c].unwrap_or_else(|| {
                    let mut best = (f64::INFINITY, 0u8);
                    for (o, lab) in labels.iter().enumerate() {
                        if let Some(l) = lab {
                            let d = vector::sq_distance(centroids.row(c), centroids.row(o));
                            if d < best.0 {
                                best = (d, *l);
                            }
                        }
                    }
                    best.1
                })
            })
            .collect();
        self.classifier = Some(ClusterClassifier {
            kmeans: km,
            labels: resolved,
        });

        self.past = Some((self.encoder.clone(), self.decoder.clone()));
        self.experiences_trained += 1;
        Ok(())
    }

    /// One optimization step on a mini-batch; `past` holds the previous
    /// snapshot's output for its rows (absent in the first experience).
    fn train_batch(
        &mut self,
        xb: &Matrix,
        past: Option<&Matrix>,
        prev_centroids: Option<&Matrix>,
    ) -> Result<(), CoreError> {
        self.encoder.zero_grad();
        self.decoder.zero_grad();
        let h = self.encoder.forward(xb);
        let x_hat = self.decoder.forward(h);

        // Reconstruction loss is the common learning signal.
        let (_l_r, d_xhat) = loss::mse(x_hat, xb)?;
        // LwF's distillation gradient at the decoder output, taken before
        // the decoder's backward reuses its workspace.
        let distill = match (self.method, past) {
            (UclMethod::Lwf, Some(old_recon)) => Some(loss::mse(x_hat, old_recon)?.1),
            _ => None,
        };
        let mut d_h = self.decoder.backward(&d_xhat)?.clone();

        match self.method {
            UclMethod::Adcn => {
                // Latent regularization toward the previous encoder.
                if let Some(h_past) = past {
                    let (_l, g) = loss::mse(h, h_past)?;
                    d_h = d_h.add(&g.scale(self.config.lambda_cl))?;
                }
                // Pull-to-centroid clustering loss.
                if let Some(cents) = prev_centroids {
                    let dists = stats::pairwise_sq_distances(h, cents)?;
                    let mut target = h.clone();
                    for i in 0..h.rows() {
                        let (c, _) = vector::argmin(dists.row(i)).expect("k >= 1");
                        target.row_mut(i).copy_from_slice(cents.row(c));
                    }
                    let (_l, g) = loss::mse(h, &target)?;
                    d_h = d_h.add(&g.scale(self.config.lambda_cluster))?;
                }
            }
            UclMethod::Lwf => {
                // Distill the previous model's reconstruction: the gradient
                // enters at the decoder output, and a second backward through
                // the same decoder accumulates its parameter gradients, the
                // summed-loss behaviour.
                if let Some(g) = distill {
                    let extra_d_h = self.decoder.backward(&g.scale(self.config.lambda_cl))?;
                    d_h = d_h.add(extra_d_h)?;
                }
            }
        }

        self.encoder.backward_params(&d_h)?;
        self.encoder.apply_gradients_offset(&mut self.optimizer, 0);
        self.decoder
            .apply_gradients_offset(&mut self.optimizer, 100_000);
        Ok(())
    }

    /// Predicts binary labels by nearest labelled latent cluster.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before the first experience.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<u8>, CoreError> {
        let classifier = self.classifier.as_ref().ok_or(CoreError::NotTrained)?;
        let scaler = self.scaler.as_ref().ok_or(CoreError::NotTrained)?;
        let h = self.encoder.forward_inference(&scaler.transform(x)?);
        let clusters = classifier.kmeans.predict(&h)?;
        Ok(clusters.into_iter().map(|c| classifier.labels[c]).collect())
    }

    /// Extracts the labelled seed subset from a training stream given its
    /// (withheld) ground-truth classes — the runner-side helper that
    /// grants baselines their concession.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSeedSet`] when the stream is empty.
    pub fn extract_seed_set(
        &mut self,
        x_train: &Matrix,
        train_class: &[usize],
    ) -> Result<(Matrix, Vec<u8>), CoreError> {
        if x_train.rows() == 0 || x_train.rows() != train_class.len() {
            return Err(CoreError::BadSeedSet {
                reason: "empty or mismatched training stream".into(),
            });
        }
        let n = x_train.rows();
        let want = ((n as f64) * self.config.labeled_fraction).ceil() as usize;
        let want = want.clamp(2, n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        // Prefer a seed set containing both classes when available.
        let mut chosen: Vec<usize> = idx.iter().copied().take(want).collect();
        let has =
            |ids: &[usize], positive: bool| ids.iter().any(|&i| (train_class[i] != 0) == positive);
        if !has(&chosen, true) {
            if let Some(&extra) = idx.iter().find(|&&i| train_class[i] != 0) {
                chosen[0] = extra;
            }
        }
        if !has(&chosen, false) {
            if let Some(&extra) = idx.iter().find(|&&i| train_class[i] == 0) {
                let slot = chosen.len() - 1;
                chosen[slot] = extra;
            }
        }
        let seed_x = x_train.select_rows(&chosen)?;
        let seed_y: Vec<u8> = chosen
            .iter()
            .map(|&i| u8::from(train_class[i] != 0))
            .collect();
        Ok((seed_x, seed_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream with a benign cluster and a clearly shifted attack cluster.
    fn stream() -> (Matrix, Vec<usize>) {
        let d = 6;
        let x = Matrix::from_fn(300, d, |i, j| {
            let base = if i < 220 { 0.0 } else { 6.0 };
            base + ((i * 13 + j * 7) % 17) as f64 / 17.0
        });
        let class: Vec<usize> = (0..300).map(|i| usize::from(i >= 220)).collect();
        (x, class)
    }

    fn train_one(method: UclMethod, seed: u64) -> UclBaseline {
        let (x, class) = stream();
        let mut model = UclBaseline::new(method, 6, UclConfig::fast(seed)).unwrap();
        let (sx, sy) = model.extract_seed_set(&x, &class).unwrap();
        model.train_experience(&x, &sx, &sy).unwrap();
        model
    }

    #[test]
    fn adcn_classifies_clear_separation() {
        let model = train_one(UclMethod::Adcn, 1);
        let (x, class) = stream();
        let pred = model.predict(&x).unwrap();
        let truth: Vec<u8> = class.iter().map(|&c| u8::from(c != 0)).collect();
        let f1 = cnd_metrics::classification::f1_score(&pred, &truth).unwrap();
        assert!(f1 > 0.8, "ADCN F1 = {f1}");
    }

    #[test]
    fn lwf_classifies_clear_separation() {
        let model = train_one(UclMethod::Lwf, 2);
        let (x, class) = stream();
        let pred = model.predict(&x).unwrap();
        let truth: Vec<u8> = class.iter().map(|&c| u8::from(c != 0)).collect();
        let f1 = cnd_metrics::classification::f1_score(&pred, &truth).unwrap();
        assert!(f1 > 0.8, "LwF F1 = {f1}");
    }

    #[test]
    fn predict_before_training_errors() {
        let model = UclBaseline::new(UclMethod::Adcn, 6, UclConfig::fast(0)).unwrap();
        assert!(matches!(
            model.predict(&Matrix::zeros(1, 6)),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn seed_set_contains_both_classes() {
        let (x, class) = stream();
        let mut model = UclBaseline::new(UclMethod::Lwf, 6, UclConfig::fast(3)).unwrap();
        let (sx, sy) = model.extract_seed_set(&x, &class).unwrap();
        assert_eq!(sx.rows(), sy.len());
        assert!(sy.contains(&0));
        assert!(sy.contains(&1));
        // ~5% of 300.
        assert!(sy.len() >= 15 && sy.len() <= 20, "seed size {}", sy.len());
    }

    #[test]
    fn bad_seed_set_rejected() {
        let (x, _) = stream();
        let mut model = UclBaseline::new(UclMethod::Adcn, 6, UclConfig::fast(0)).unwrap();
        assert!(matches!(
            model.train_experience(&x, &Matrix::zeros(0, 6), &[]),
            Err(CoreError::BadSeedSet { .. })
        ));
    }

    #[test]
    fn config_validation() {
        assert!(UclBaseline::new(UclMethod::Adcn, 0, UclConfig::fast(0)).is_err());
        let mut cfg = UclConfig::fast(0);
        cfg.labeled_fraction = 0.0;
        assert!(UclBaseline::new(UclMethod::Adcn, 4, cfg).is_err());
    }

    #[test]
    fn second_experience_trains_with_forgetting_losses() {
        let (x, class) = stream();
        for method in [UclMethod::Adcn, UclMethod::Lwf] {
            let mut model = UclBaseline::new(method, 6, UclConfig::fast(4)).unwrap();
            let (sx, sy) = model.extract_seed_set(&x, &class).unwrap();
            model.train_experience(&x, &sx, &sy).unwrap();
            let x2 = x.map(|v| v + 0.3);
            let (sx2, sy2) = model.extract_seed_set(&x2, &class).unwrap();
            model.train_experience(&x2, &sx2, &sy2).unwrap();
            assert_eq!(model.experiences_trained(), 2);
            assert!(model.predict(&x).is_ok());
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(UclMethod::Adcn.name(), "ADCN");
        assert_eq!(UclMethod::Lwf.name(), "LwF");
    }
}
