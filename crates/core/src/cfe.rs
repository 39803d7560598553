//! The Continual Feature Extractor (CFE) — paper Section III-C.
//!
//! An MLP autoencoder trained, one experience at a time, with the
//! composite continual novelty-detection loss (Eq. 1):
//!
//! ```text
//! L_CND = L_CS + λ_R · L_R + λ_CL · L_CL
//! ```
//!
//! * **`L_CS` — cluster separation.** K-Means is fitted to the raw
//!   `X_train` with `K = min(max_k, round(√n))` (the paper selects `K`
//!   by the elbow method; DESIGN.md §4 says why this code does not).
//!   Every cluster containing at least one point of the clean normal
//!   subset `N_c` forms the "normal" cluster set `CL_N`. Points in `CL_N`
//!   clusters get pseudo-label `0`, all others `1`, and a
//!   squared-Euclidean triplet margin loss pushes the two pseudo-classes
//!   apart in embedding space.
//! * **`L_R` — reconstruction.** MSE between the decoder output and the
//!   input, keeping the embedding information-rich so PCA generalizes
//!   across experiences.
//! * **`L_CL` — continual learning.** Latent regularization against
//!   snapshots of the encoder taken at the end of every past experience:
//!   `Σ_{i<c} MSE(h^c, h^i)`. Only model state is stored — no replay
//!   data — matching the paper's storage argument.
//!
//! All three gradient streams meet at the encoder output and are summed
//! before a single encoder backward pass.

use std::borrow::Cow;

use cnd_linalg::Matrix;
use cnd_ml::KMeans;
use cnd_nn::{loss, Activation, Adam, Sequential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CoreError;

/// Which terms of `L_CND` are active — the knob behind the paper's
/// Table III ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossConfig {
    /// Include the cluster-separation triplet loss `L_CS`.
    pub cluster_separation: bool,
    /// Include the reconstruction loss `λ_R · L_R`.
    pub reconstruction: bool,
    /// Include the continual-learning latent regularization `λ_CL · L_CL`.
    pub continual: bool,
}

impl LossConfig {
    /// Full CND-IDS loss (all three terms).
    pub fn full() -> Self {
        LossConfig {
            cluster_separation: true,
            reconstruction: true,
            continual: true,
        }
    }

    /// Ablation: CND-IDS without `L_CS` (Table III row 2).
    pub fn without_cluster_separation() -> Self {
        LossConfig {
            cluster_separation: false,
            ..Self::full()
        }
    }

    /// Ablation: CND-IDS without `L_R` (Table III row 3).
    pub fn without_reconstruction() -> Self {
        LossConfig {
            reconstruction: false,
            ..Self::full()
        }
    }

    /// Ablation: CND-IDS without `L_R` and `L_CL` (Table III row 4).
    pub fn without_reconstruction_and_continual() -> Self {
        LossConfig {
            reconstruction: false,
            continual: false,
            ..Self::full()
        }
    }
}

impl Default for LossConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Hyper-parameters of the CFE (paper Section IV-A values in
/// [`CfeConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfeConfig {
    /// Embedding dimensionality. `0` (the default) selects the automatic
    /// width `2 × input_dim`: an *overcomplete* embedding. The CFE's job
    /// is not compression — it reshapes the space so the normal class is
    /// compact and pseudo-anomalies are pushed out; an overcomplete tanh
    /// embedding preserves the off-manifold evidence raw PCA relies on
    /// while adding the learned separation.
    pub latent_dim: usize,
    /// Hidden-layer width (paper: 256).
    pub hidden_dim: usize,
    /// Number of hidden layers in encoder and decoder each.
    pub hidden_layers: usize,
    /// Training epochs per experience.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Reconstruction weight `λ_R` (paper: 0.1).
    pub lambda_r: f64,
    /// Continual-learning weight `λ_CL` (paper: 0.1).
    pub lambda_cl: f64,
    /// Triplet margin `m` (paper: 2, "after careful experimentation").
    pub margin: f64,
    /// Cap on the pseudo-label K-Means' cluster count, which is
    /// otherwise `round(√n)` for `n` training rows. Must be at least 2.
    pub max_k: usize,
    /// Active loss terms.
    pub losses: LossConfig,
    /// Experience-replay mix-in fraction (extension; the paper uses
    /// snapshot regularization instead). When `> 0`, a reservoir of past
    /// training rows is kept and each new experience's training set is
    /// augmented with `replay_fraction × |X_train|` replayed rows. `0`
    /// (the paper's setting) disables replay entirely.
    pub replay_fraction: f64,
    /// Rows retained in the replay reservoir when replay is enabled.
    pub replay_capacity: usize,
    /// Divergence guard: training aborts with
    /// [`CoreError::TrainingDiverged`] when an epoch's mean loss is
    /// non-finite or exceeds `divergence_factor ×` the first epoch's
    /// mean loss. The factor is deliberately generous — healthy training
    /// never trips it — so it only catches genuinely destroyed runs
    /// (NaN inputs, exploding gradients).
    pub divergence_factor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CfeConfig {
    /// The paper's configuration: 4-layer MLP with 256-unit hidden
    /// layers, Adam at 0.001, `λ_R = λ_CL = 0.1`, margin 2.
    pub fn paper(seed: u64) -> Self {
        CfeConfig {
            latent_dim: 0,
            hidden_dim: 256,
            hidden_layers: 2,
            epochs: 20,
            batch_size: 128,
            learning_rate: 0.001,
            lambda_r: 0.1,
            lambda_cl: 0.1,
            margin: 2.0,
            max_k: 24,
            losses: LossConfig::full(),
            replay_fraction: 0.0,
            replay_capacity: 2_000,
            divergence_factor: 1e3,
            seed,
        }
    }

    /// A reduced configuration for unit tests and quick examples.
    pub fn fast(seed: u64) -> Self {
        CfeConfig {
            latent_dim: 0,
            hidden_dim: 64,
            hidden_layers: 1,
            epochs: 6,
            batch_size: 128,
            learning_rate: 0.002,
            lambda_r: 0.1,
            lambda_cl: 0.1,
            margin: 2.0,
            max_k: 20,
            losses: LossConfig::full(),
            replay_fraction: 0.0,
            replay_capacity: 2_000,
            divergence_factor: 1e3,
            seed,
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.hidden_dim == 0 {
            return Err(CoreError::InvalidConfig {
                name: "hidden_dim",
                constraint: "must be >= 1",
            });
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(CoreError::InvalidConfig {
                name: "epochs/batch_size",
                constraint: "must be >= 1",
            });
        }
        if self.max_k < 2 {
            return Err(CoreError::InvalidConfig {
                name: "max_k",
                constraint: "pseudo-label K cap needs max_k >= 2",
            });
        }
        if !(0.0..=1.0).contains(&self.replay_fraction) {
            return Err(CoreError::InvalidConfig {
                name: "replay_fraction",
                constraint: "must be in [0, 1]",
            });
        }
        if self.divergence_factor.is_nan() || self.divergence_factor <= 1.0 {
            return Err(CoreError::InvalidConfig {
                name: "divergence_factor",
                constraint: "must be > 1",
            });
        }
        Ok(())
    }
}

/// Diagnostics returned by one experience of CFE training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Pseudo-label K-Means cluster count, `min(max_k, round(√n))`
    /// (at least 1); `0` when `L_CS` is off and no clustering ran.
    pub k_selected: usize,
    /// Fraction of training points pseudo-labelled anomalous.
    pub pseudo_anomalous_fraction: f64,
    /// Mean cluster-separation loss over the last epoch.
    pub mean_cs_loss: f64,
    /// Mean reconstruction loss over the last epoch.
    pub mean_reconstruction_loss: f64,
    /// Mean continual-learning loss over the last epoch.
    pub mean_continual_loss: f64,
}

/// The Continual Feature Extractor.
#[derive(Debug, Clone)]
pub struct ContinualFeatureExtractor {
    config: CfeConfig,
    encoder: Sequential,
    decoder: Sequential,
    optimizer: Adam,
    /// Encoder snapshots from past experiences, for `L_CL`.
    past_encoders: Vec<Sequential>,
    /// Reservoir of past training rows (replay extension; empty when
    /// `replay_fraction == 0`).
    reservoir: Vec<Vec<f64>>,
    experiences_trained: usize,
    input_dim: usize,
    rng: StdRng,
    /// Minibatch buffers reused from step to step.
    batch: Minibatch,
}

/// One training step's inputs and the gradient at the embedding,
/// gathered into buffers that keep their allocations across steps.
#[derive(Debug, Default)]
struct Minibatch {
    /// The minibatch rows.
    x: Matrix,
    /// Their pseudo-labels.
    y: Vec<u8>,
    /// Each snapshot's latents for the minibatch rows.
    past: Vec<Matrix>,
    /// Row indices into the snapshot latents block.
    past_rows: Vec<usize>,
    /// `dL/dh`: every loss term's gradient at the embedding, summed.
    d_h: Matrix,
}

impl Clone for Minibatch {
    /// Scratch only: a copy starts empty.
    fn clone(&self) -> Self {
        Minibatch::default()
    }
}

impl ContinualFeatureExtractor {
    /// Builds an untrained CFE for `input_dim`-dimensional data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for degenerate dimensions.
    pub fn new(input_dim: usize, config: CfeConfig) -> Result<Self, CoreError> {
        config.validate()?;
        if input_dim == 0 {
            return Err(CoreError::InvalidConfig {
                name: "input_dim",
                constraint: "must be >= 1",
            });
        }
        let mut config = config;
        if config.latent_dim == 0 {
            config.latent_dim = 2 * input_dim;
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut enc_widths = vec![input_dim];
        enc_widths.extend(std::iter::repeat_n(config.hidden_dim, config.hidden_layers));
        enc_widths.push(config.latent_dim);
        let mut dec_widths = vec![config.latent_dim];
        dec_widths.extend(std::iter::repeat_n(config.hidden_dim, config.hidden_layers));
        dec_widths.push(input_dim);
        // Tanh hidden units: bounded features absorb the heavy-tailed
        // benign volume bursts that plague linear detectors.
        let encoder = Sequential::mlp(&enc_widths, Activation::Tanh, &mut rng);
        let decoder = Sequential::mlp(&dec_widths, Activation::Tanh, &mut rng);
        let optimizer = Adam::new(config.learning_rate);
        Ok(ContinualFeatureExtractor {
            config,
            encoder,
            decoder,
            optimizer,
            past_encoders: Vec::new(),
            reservoir: Vec::new(),
            experiences_trained: 0,
            input_dim,
            rng,
            batch: Minibatch::default(),
        })
    }

    /// The configuration this CFE was built with.
    pub fn config(&self) -> &CfeConfig {
        &self.config
    }

    /// Number of experiences trained so far.
    pub fn experiences_trained(&self) -> usize {
        self.experiences_trained
    }

    /// Input feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Embedding dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.config.latent_dim
    }

    /// Borrow of the encoder network (for persistence and inspection).
    pub fn encoder(&self) -> &Sequential {
        &self.encoder
    }

    /// Borrow of the decoder network (for inspection).
    pub fn decoder(&self) -> &Sequential {
        &self.decoder
    }

    /// Encodes a batch (inference mode).
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `x` does not have `input_dim` columns.
    pub fn encode(&self, x: &Matrix) -> Result<Matrix, CoreError> {
        if x.cols() != self.input_dim {
            return Err(CoreError::Nn(cnd_nn::NnError::BatchMismatch {
                left: x.shape(),
                right: (x.rows(), self.input_dim),
            }));
        }
        Ok(self.encoder.forward_inference(x))
    }

    /// Computes the paper's pseudo-labels for `x_train` given `n_c`
    /// (Section III-C steps 1–4), clustering with one K-Means fit at
    /// K = min(`max_k`, round(√rows)), at least 1. Returns the labels and K.
    ///
    /// # Errors
    ///
    /// Propagates K-Means failures.
    pub fn pseudo_labels(
        &mut self,
        x_train: &Matrix,
        n_c: &Matrix,
    ) -> Result<(Vec<u8>, usize), CoreError> {
        let _span = cnd_obs::span!("cfe.pseudo_labels", rows = x_train.rows());
        // K = round(sqrt(n)), capped at max_k: cluster granularity near
        // attack-class granularity without an elbow search (DESIGN.md §4).
        // round(sqrt(n)) <= n for n >= 1, so K never exceeds the rows; an
        // empty x_train reaches K-Means with K = 1 and gets its typed error.
        let k = ((x_train.rows() as f64).sqrt().round() as usize).clamp(1, self.config.max_k);
        let km = KMeans::fit(x_train, k, 100, &mut self.rng)?;
        let train_clusters = km.predict(x_train)?;
        let nc_clusters = km.predict(n_c)?;
        let mut normal_clusters = vec![false; k];
        for c in nc_clusters {
            normal_clusters[c] = true;
        }
        let labels: Vec<u8> = train_clusters
            .iter()
            .map(|&c| u8::from(!normal_clusters[c]))
            .collect();
        Ok((labels, k))
    }

    /// Trains one experience on the unlabelled stream `x_train`, using
    /// the clean normal subset `n_c` for pseudo-labelling
    /// (Algorithm 1 line 3).
    ///
    /// # Errors
    ///
    /// Propagates clustering and network errors; rejects inputs whose
    /// feature count differs from `input_dim`.
    pub fn train_experience(
        &mut self,
        x_train: &Matrix,
        n_c: &Matrix,
    ) -> Result<TrainStats, CoreError> {
        let _span = cnd_obs::span!(
            "cfe.train",
            experience = self.experiences_trained,
            rows = x_train.rows(),
        );
        if x_train.cols() != self.input_dim || n_c.cols() != self.input_dim {
            return Err(CoreError::Nn(cnd_nn::NnError::BatchMismatch {
                left: x_train.shape(),
                right: (x_train.rows(), self.input_dim),
            }));
        }
        // Replay extension: augment the stream with reservoir rows.
        let x_train = self.augment_with_replay(x_train)?;
        let x_train: &Matrix = &x_train;
        let (pseudo, k_selected) = if self.config.losses.cluster_separation {
            self.pseudo_labels(x_train, n_c)?
        } else {
            (vec![0; x_train.rows()], 0)
        };
        let pseudo_anomalous_fraction =
            pseudo.iter().filter(|&&l| l != 0).count() as f64 / pseudo.len().max(1) as f64;

        // Each frozen snapshot's latents for every row, encoded once per
        // experience: `forward_inference` is per-row exact, so a
        // minibatch's rows of these are the bits a per-minibatch forward
        // would give. Snapshot `s` holds rows `s·n .. (s+1)·n` of one
        // `e · n · latent · 8`-byte block, freed on return. One block
        // rather than one matrix per snapshot: separate matrices settle
        // into whatever heap holes earlier work left, and whether their
        // release lets the allocator hand the pages back then varies from
        // process to process (about 3 MiB of resident memory).
        let n = x_train.rows();
        let latent = self.config.latent_dim;
        let mut past_latents = Matrix::zeros(self.past_encoders.len() * n, latent);
        for (past, block) in self.past_encoders.iter().zip(
            past_latents
                .as_mut_slice()
                .chunks_exact_mut((n * latent).max(1)),
        ) {
            past.forward_inference_into(x_train, block);
        }
        let snapshots = self.past_encoders.len();
        self.batch.past.resize_with(snapshots, Matrix::default);

        let mut order: Vec<usize> = (0..n).collect();
        let mut last_epoch = (0.0, 0.0, 0.0);
        let mut first_epoch_loss: Option<f64> = None;
        for epoch in 0..self.config.epochs {
            let _epoch_span = cnd_obs::span!("cfe.epoch", epoch = epoch);
            // Shuffle each epoch.
            for i in (1..n).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut sums = (0.0, 0.0, 0.0);
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let b = &mut self.batch;
                x_train.select_rows_into(chunk, &mut b.x)?;
                b.y.clear();
                b.y.extend(chunk.iter().map(|&i| pseudo[i]));
                for (s, past) in b.past.iter_mut().enumerate() {
                    b.past_rows.clear();
                    b.past_rows.extend(chunk.iter().map(|&i| s * n + i));
                    past_latents.select_rows_into(&b.past_rows, past)?;
                }
                let (cs, rec, cl) = self.train_batch()?;
                sums.0 += cs;
                sums.1 += rec;
                sums.2 += cl;
                batches += 1;
            }
            if cnd_obs::enabled() {
                let denom = batches.max(1) as f64;
                cnd_obs::gauge_set("cfe.loss.cs.value", sums.0 / denom);
                cnd_obs::gauge_set("cfe.loss.rec.value", sums.1 / denom);
                cnd_obs::gauge_set("cfe.loss.cl.value", sums.2 / denom);
            }
            // Divergence guard: a NaN input row or an exploding update
            // poisons the epoch mean; abort instead of finishing the
            // experience with destroyed weights. The caller (training
            // watchdog) is responsible for rolling back.
            let epoch_loss =
                (sums.0 + self.config.lambda_r * sums.1 + self.config.lambda_cl * sums.2)
                    / batches.max(1) as f64;
            cnd_obs::gauge_set("cfe.loss.total.value", epoch_loss);
            if !epoch_loss.is_finite() {
                return Err(CoreError::TrainingDiverged {
                    epoch,
                    loss: epoch_loss,
                });
            }
            match first_epoch_loss {
                None => first_epoch_loss = Some(epoch_loss.abs().max(1e-9)),
                Some(baseline) => {
                    if epoch_loss > self.config.divergence_factor * baseline {
                        return Err(CoreError::TrainingDiverged {
                            epoch,
                            loss: epoch_loss,
                        });
                    }
                }
            }
            if epoch == self.config.epochs - 1 && batches > 0 {
                last_epoch = (
                    sums.0 / batches as f64,
                    sums.1 / batches as f64,
                    sums.2 / batches as f64,
                );
            }
        }

        // The training buffers live for one experience, so a trained
        // model kept for scoring holds none of them.
        self.encoder.release_workspace();
        self.decoder.release_workspace();
        self.batch = Minibatch::default();

        // Snapshot the encoder for future L_CL terms (model state only —
        // no data is retained, per the paper's storage argument).
        if self.config.losses.continual {
            self.past_encoders.push(self.encoder.clone());
        }
        self.update_reservoir(x_train);
        self.experiences_trained += 1;
        cnd_obs::counter_add("cfe.train.count", 1);
        Ok(TrainStats {
            k_selected,
            pseudo_anomalous_fraction,
            mean_cs_loss: last_epoch.0,
            mean_reconstruction_loss: last_epoch.1,
            mean_continual_loss: last_epoch.2,
        })
    }

    /// Returns `x_train` augmented with sampled reservoir rows when the
    /// replay extension is active, otherwise `x_train` itself.
    fn augment_with_replay<'a>(
        &mut self,
        x_train: &'a Matrix,
    ) -> Result<Cow<'a, Matrix>, CoreError> {
        if self.config.replay_fraction <= 0.0 || self.reservoir.is_empty() {
            return Ok(Cow::Borrowed(x_train));
        }
        let want = ((x_train.rows() as f64) * self.config.replay_fraction).round() as usize;
        let want = want.min(self.reservoir.len());
        if want == 0 {
            return Ok(Cow::Borrowed(x_train));
        }
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(x_train.rows() + want);
        for r in x_train.iter_rows() {
            rows.push(r.to_vec());
        }
        for _ in 0..want {
            let i = self.rng.gen_range(0..self.reservoir.len());
            rows.push(self.reservoir[i].clone());
        }
        Ok(Cow::Owned(Matrix::from_rows(&rows)?))
    }

    /// Reservoir-samples the just-trained stream into the replay buffer.
    fn update_reservoir(&mut self, x_train: &Matrix) {
        if self.config.replay_fraction <= 0.0 {
            return;
        }
        let cap = self.config.replay_capacity.max(1);
        for row in x_train.iter_rows() {
            if self.reservoir.len() < cap {
                self.reservoir.push(row.to_vec());
            } else {
                // Classic reservoir sampling keeps each seen row with
                // equal probability.
                let j = self.rng.gen_range(0..self.reservoir.len() * 4);
                if j < cap {
                    self.reservoir[j] = row.to_vec();
                }
            }
        }
    }

    /// One optimization step on the gathered minibatch (`self.batch`:
    /// rows, pseudo-labels and each snapshot's latents for them);
    /// returns the three loss values `(L_CS, L_R, L_CL)` before weighting.
    fn train_batch(&mut self) -> Result<(f64, f64, f64), CoreError> {
        let cfg = self.config;
        let b = &mut self.batch;
        self.encoder.zero_grad();
        self.decoder.zero_grad();

        let h = self.encoder.forward(&b.x);
        // `dL/dh` sums from +0.0: `L_CS`, then the decoder's gradient,
        // then each snapshot's `λ_CL`-scaled term.
        b.d_h.reset_zeros(h.rows(), h.cols());
        let mut l_cs = 0.0;
        let mut l_r = 0.0;
        let mut l_cl = 0.0;

        if cfg.losses.cluster_separation {
            let (l, g) = loss::triplet_margin(h, &b.y, cfg.margin, &mut self.rng)?;
            l_cs = l;
            add_into(&mut b.d_h, &g);
        }

        if cfg.losses.reconstruction {
            let x_hat = self.decoder.forward(h);
            let (l, mut d_xhat) = loss::mse(x_hat, &b.x)?;
            l_r = l;
            d_xhat.map_inplace(|v| v * cfg.lambda_r);
            add_into(&mut b.d_h, self.decoder.backward(&d_xhat)?);
        }

        // Empty unless `L_CL` is on: snapshots are taken only then.
        for h_past in &b.past {
            let (l, mut g) = loss::mse(h, h_past)?;
            l_cl += l;
            g.map_inplace(|v| v * cfg.lambda_cl);
            add_into(&mut b.d_h, &g);
        }

        // Nothing reads the input gradient: its product is skipped.
        self.encoder.backward_params(&b.d_h)?;
        self.encoder.apply_gradients_offset(&mut self.optimizer, 0);
        if cfg.losses.reconstruction {
            self.decoder
                .apply_gradients_offset(&mut self.optimizer, 100_000);
        }
        Ok((l_cs, l_r, l_cl))
    }
}

/// `acc += g` element by element: the bits of `acc.add(g)`.
fn add_into(acc: &mut Matrix, g: &Matrix) {
    debug_assert_eq!(acc.shape(), g.shape());
    for (a, &v) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
        *a += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benign cluster near origin, anomalies far away.
    fn toy_stream(n_normal: usize, n_attack: usize, shift: f64) -> (Matrix, Matrix) {
        let d = 8;
        let x = Matrix::from_fn(n_normal + n_attack, d, |i, j| {
            let base = if i < n_normal { 0.0 } else { shift };
            base + ((i * 13 + j * 7) % 23) as f64 / 23.0 - 0.5
        });
        let n_c = Matrix::from_fn(40, d, |i, j| ((i * 11 + j * 3) % 23) as f64 / 23.0 - 0.5);
        (x, n_c)
    }

    #[test]
    fn builds_paper_architecture() {
        let cfe = ContinualFeatureExtractor::new(58, CfeConfig::paper(0)).unwrap();
        assert_eq!(cfe.input_dim(), 58);
        // latent_dim 0 = auto (2 x input).
        assert_eq!(cfe.latent_dim(), 116);
        assert_eq!(cfe.experiences_trained(), 0);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(matches!(
            ContinualFeatureExtractor::new(0, CfeConfig::fast(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut cfg = CfeConfig::fast(0);
        cfg.hidden_dim = 0;
        assert!(ContinualFeatureExtractor::new(8, cfg).is_err());
        let mut cfg2 = CfeConfig::fast(0);
        cfg2.max_k = 1;
        assert!(ContinualFeatureExtractor::new(8, cfg2).is_err());
    }

    #[test]
    fn pseudo_labels_separate_clear_clusters() {
        let (x, n_c) = toy_stream(200, 100, 30.0);
        let mut cfe = ContinualFeatureExtractor::new(8, CfeConfig::fast(1)).unwrap();
        let (labels, k) = cfe.pseudo_labels(&x, &n_c).unwrap();
        assert!(k >= 2);
        // Normal block should be mostly pseudo-label 0, attack block 1.
        // The exact normal mislabel count is sensitive to the K-Means
        // initialization stream (observed 17–26/200 across seeds), so the
        // bound is a loose 20%, not a tight constant.
        let normal_anom: usize = labels[..200].iter().map(|&l| l as usize).sum();
        let attack_anom: usize = labels[200..].iter().map(|&l| l as usize).sum();
        assert!(normal_anom < 40, "normal mislabeled: {normal_anom}/200");
        assert!(attack_anom > 80, "attack mislabeled: {attack_anom}/100");
    }

    #[test]
    fn pseudo_label_k_is_sqrt_n_capped_at_max_k() {
        // (n, max_k, K = min(max_k, n, max(1, round(√n)))). round(√n)
        // first reaches the cap at n = 381 for max_k 20 and n = 553 for 24.
        let cases = [
            (1, 20, 1),
            (2, 20, 1),
            (5, 20, 2),
            (100, 20, 10),
            (380, 20, 19),
            (381, 20, 20),
            (1500, 20, 20),
            (552, 24, 23),
            (553, 24, 24),
        ];
        for (n, max_k, expected) in cases {
            let x = Matrix::from_fn(n, 3, |i, j| ((i * 31 + j * 17) % 101) as f64);
            let n_c = Matrix::from_fn(1, 3, |_, j| j as f64);
            let mut cfg = CfeConfig::fast(4);
            cfg.max_k = max_k;
            let mut cfe = ContinualFeatureExtractor::new(3, cfg).unwrap();
            let (labels, k) = cfe.pseudo_labels(&x, &n_c).unwrap();
            assert_eq!(k, expected, "n = {n}, max_k = {max_k}");
            assert_eq!(labels.len(), n);
        }
    }

    /// Latent-FRE contrast: mean attack score / mean normal score when a
    /// PCA detector is fitted on the encoded clean-normal subset. This is
    /// the quantity `L_CS` is designed to improve (paper Section III-C).
    fn latent_fre_contrast(
        cfe: &ContinualFeatureExtractor,
        x: &Matrix,
        n_c: &Matrix,
        split: usize,
    ) -> f64 {
        use cnd_ml::pca::{ComponentSelection, Pca};
        let h_nc = cfe.encode(n_c).unwrap();
        let pca = Pca::fit(&h_nc, ComponentSelection::VarianceFraction(0.95)).unwrap();
        let h = cfe.encode(x).unwrap();
        let scores = pca.reconstruction_errors(&h).unwrap();
        let normal: f64 = scores[..split].iter().sum::<f64>() / split as f64;
        let attack: f64 = scores[split..].iter().sum::<f64>() / (scores.len() - split) as f64;
        attack / normal.max(1e-12)
    }

    /// Normal data on a rank-2 linear manifold inside 8-D; attacks are
    /// shifted *within* that manifold — invisible to reconstruction
    /// methods unless the feature space is reshaped, which is exactly
    /// the job of `L_CS`.
    fn within_manifold_stream(n_normal: usize, n_attack: usize) -> (Matrix, Matrix) {
        let d = 8;
        let gen_row = |i: usize, shift: f64| -> Vec<f64> {
            let z1 = ((i * 37 % 97) as f64 / 97.0 - 0.5) * 2.0 + shift;
            let z2 = ((i * 53 % 89) as f64 / 89.0 - 0.5) * 2.0;
            (0..d)
                .map(|j| {
                    let (a, b) = ((j + 1) as f64 * 0.4, (j as f64 * 0.7) - 1.0);
                    a * z1 + b * z2 + ((i * 7 + j * 13) % 11) as f64 * 0.005
                })
                .collect()
        };
        let mut rows = Vec::new();
        for i in 0..n_normal {
            rows.push(gen_row(i, 0.0));
        }
        for i in 0..n_attack {
            rows.push(gen_row(i + 5000, 4.0));
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let nc_rows: Vec<Vec<f64>> = (0..60).map(|i| gen_row(i + 9000, 0.0)).collect();
        let n_c = Matrix::from_rows(&nc_rows).unwrap();
        (x, n_c)
    }

    #[test]
    fn cluster_separation_loss_improves_fre_contrast() {
        // Same data, same seed: training *with* the cluster-separation
        // triplet must yield a higher attack/normal FRE contrast than
        // training without it on within-manifold attacks.
        let (x, n_c) = within_manifold_stream(250, 120);
        let mut with_cs = ContinualFeatureExtractor::new(8, CfeConfig::fast(2)).unwrap();
        with_cs.train_experience(&x, &n_c).unwrap();
        let contrast_with = latent_fre_contrast(&with_cs, &x, &n_c, 250);

        let mut cfg = CfeConfig::fast(2);
        cfg.losses.cluster_separation = false;
        let mut without_cs = ContinualFeatureExtractor::new(8, cfg).unwrap();
        without_cs.train_experience(&x, &n_c).unwrap();
        let contrast_without = latent_fre_contrast(&without_cs, &x, &n_c, 250);

        assert!(
            contrast_with > contrast_without,
            "FRE contrast with CS {contrast_with} <= without {contrast_without}"
        );
        assert!(contrast_with > 1.0, "attacks must score above normals");
        assert_eq!(with_cs.experiences_trained(), 1);
    }

    #[test]
    fn continual_loss_keeps_embeddings_stable() {
        let (x1, n_c) = toy_stream(200, 80, 8.0);
        let x2 = x1.map(|v| v + 0.5); // second experience, shifted data

        // With L_CL.
        let mut with_cl = ContinualFeatureExtractor::new(8, CfeConfig::fast(3)).unwrap();
        with_cl.train_experience(&x1, &n_c).unwrap();
        let h_before = with_cl.encode(&x1).unwrap();
        with_cl.train_experience(&x2, &n_c).unwrap();
        let h_after = with_cl.encode(&x1).unwrap();
        let drift_with = h_before.sub(&h_after).unwrap().frobenius_sq() / h_before.len() as f64;

        // Without L_CL.
        let mut cfg = CfeConfig::fast(3);
        cfg.losses.continual = false;
        let mut without_cl = ContinualFeatureExtractor::new(8, cfg).unwrap();
        without_cl.train_experience(&x1, &n_c).unwrap();
        let h_before2 = without_cl.encode(&x1).unwrap();
        without_cl.train_experience(&x2, &n_c).unwrap();
        let h_after2 = without_cl.encode(&x1).unwrap();
        let drift_without =
            h_before2.sub(&h_after2).unwrap().frobenius_sq() / h_before2.len() as f64;

        assert!(
            drift_with < drift_without,
            "L_CL should reduce drift: with={drift_with}, without={drift_without}"
        );
    }

    #[test]
    fn reconstruction_loss_decreases() {
        let (x, n_c) = toy_stream(300, 0, 0.0);
        let mut cfg = CfeConfig::fast(4);
        cfg.epochs = 12;
        cfg.losses.cluster_separation = false;
        let mut cfe = ContinualFeatureExtractor::new(8, cfg).unwrap();
        let stats = cfe.train_experience(&x, &n_c).unwrap();
        // After training, reconstruction should be well below input var.
        assert!(stats.mean_reconstruction_loss < 0.2, "{stats:?}");
    }

    #[test]
    fn ablation_flags_respected() {
        let (x, n_c) = toy_stream(150, 60, 10.0);
        let mut cfg = CfeConfig::fast(5);
        cfg.losses = LossConfig::without_reconstruction_and_continual();
        let mut cfe = ContinualFeatureExtractor::new(8, cfg).unwrap();
        let stats = cfe.train_experience(&x, &n_c).unwrap();
        assert_eq!(stats.mean_reconstruction_loss, 0.0);
        assert_eq!(stats.mean_continual_loss, 0.0);
        // No snapshot is stored when L_CL is disabled.
        assert!(cfe.past_encoders.is_empty());
    }

    #[test]
    fn encode_rejects_wrong_width() {
        let cfe = ContinualFeatureExtractor::new(8, CfeConfig::fast(0)).unwrap();
        assert!(cfe.encode(&Matrix::zeros(3, 9)).is_err());
    }

    #[test]
    fn replay_reservoir_fills_and_augments() {
        let (x, n_c) = toy_stream(150, 60, 6.0);
        let mut cfg = CfeConfig::fast(9);
        cfg.replay_fraction = 0.5;
        cfg.replay_capacity = 100;
        let mut cfe = ContinualFeatureExtractor::new(8, cfg).unwrap();
        cfe.train_experience(&x, &n_c).unwrap();
        assert_eq!(cfe.reservoir.len(), 100, "reservoir capped at capacity");
        // Second experience trains on stream + replayed rows without error.
        let x2 = x.map(|v| v + 0.4);
        cfe.train_experience(&x2, &n_c).unwrap();
        assert_eq!(cfe.experiences_trained(), 2);
    }

    #[test]
    fn replay_disabled_keeps_no_data() {
        let (x, n_c) = toy_stream(120, 60, 6.0);
        let mut cfe = ContinualFeatureExtractor::new(8, CfeConfig::fast(9)).unwrap();
        cfe.train_experience(&x, &n_c).unwrap();
        assert!(
            cfe.reservoir.is_empty(),
            "paper setting must retain no data"
        );
    }

    #[test]
    fn replay_fraction_validated() {
        let mut cfg = CfeConfig::fast(0);
        cfg.replay_fraction = 1.5;
        assert!(ContinualFeatureExtractor::new(8, cfg).is_err());
    }

    /// FNV-1a over the bit patterns of every encoder weight and bias.
    fn encoder_digest(cfe: &ContinualFeatureExtractor) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for lin in cfe.encoder().linear_layers() {
            for v in lin.weights().iter().chain(lin.bias()) {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn three_experiences_reach_golden_encoder_bits() {
        // Three experiences with L_CL on: the second trains against one
        // snapshot, the third against two, and 210 rows leave a partial
        // last minibatch. The digest pins every bit of the training path
        // (forward, backward, snapshot latents, Adam); a change meant to
        // be exact must keep it at any CND_THREADS and GEMM arm.
        let (x, n_c) = toy_stream(150, 60, 6.0);
        let mut cfe = ContinualFeatureExtractor::new(8, CfeConfig::fast(11)).unwrap();
        for e in 0..3 {
            let xe = x.map(|v| v + 0.3 * e as f64);
            cfe.train_experience(&xe, &n_c).unwrap();
        }
        assert_eq!(cfe.past_encoders.len(), 3);
        assert_eq!(encoder_digest(&cfe), 0x26b2_a830_785d_7dfb);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, n_c) = toy_stream(120, 60, 6.0);
        let mut a = ContinualFeatureExtractor::new(8, CfeConfig::fast(7)).unwrap();
        let mut b = ContinualFeatureExtractor::new(8, CfeConfig::fast(7)).unwrap();
        a.train_experience(&x, &n_c).unwrap();
        b.train_experience(&x, &n_c).unwrap();
        let ha = a.encode(&x).unwrap();
        let hb = b.encode(&x).unwrap();
        assert!(ha.max_abs_diff(&hb) < 1e-12);
    }
}
