//! The experiment runner behind every figure and table of the paper's
//! evaluation: it drives continual learners and static novelty detectors
//! through a [`ContinualSplit`] and produces result matrices, PR-AUC
//! series and timing measurements.
//!
//! Evaluation protocol (Algorithm 1, lines 6–11): after **each** training
//! experience the model scores the **pooled test data of all
//! experiences**; one Best-F threshold is selected on the pooled scores;
//! per-experience F1 values fill row `i` of the result matrix `R_ij`.

use std::time::Instant;

use cnd_datasets::continual::{ContinualSplit, Experience};
use cnd_detectors::NoveltyDetector;
use cnd_linalg::Matrix;
use cnd_metrics::classification::f1_score;
use cnd_metrics::continual::ResultMatrix;
use cnd_metrics::curve::pr_auc;
use cnd_metrics::threshold::{apply_threshold, best_f1_threshold};

use crate::baselines::UclBaseline;
use crate::resilience::ResilientStreamingCndIds;
use crate::streaming::ContinualStatus;
use crate::{CndIds, CoreError};

/// A model that can be trained through a continual experience stream.
///
/// Implementations either produce anomaly *scores*
/// ([`ContinualLearner::scores`] returns `Some`) which the runner
/// thresholds with Best-F, or direct binary *predictions*
/// ([`ContinualLearner::predict`] returns `Some`) when the method has its
/// own decision rule (the UCL baselines).
pub trait ContinualLearner {
    /// Consumes one training experience.
    ///
    /// # Errors
    ///
    /// Propagates model-specific failures.
    fn train_experience(&mut self, exp: &Experience) -> Result<(), CoreError>;

    /// Anomaly scores (higher = more anomalous), or `None` when the
    /// method does not produce scores.
    ///
    /// # Errors
    ///
    /// Propagates model-specific failures.
    fn scores(&self, x: &Matrix) -> Result<Option<Vec<f64>>, CoreError>;

    /// Direct binary predictions, or `None` when the method relies on
    /// external thresholding.
    ///
    /// # Errors
    ///
    /// Propagates model-specific failures.
    fn predict(&self, x: &Matrix) -> Result<Option<Vec<u8>>, CoreError>;

    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;
}

impl ContinualLearner for CndIds {
    fn train_experience(&mut self, exp: &Experience) -> Result<(), CoreError> {
        CndIds::train_experience(self, &exp.train_x)?;
        Ok(())
    }

    fn scores(&self, x: &Matrix) -> Result<Option<Vec<f64>>, CoreError> {
        Ok(Some(self.anomaly_scores(x)?))
    }

    fn predict(&self, _x: &Matrix) -> Result<Option<Vec<u8>>, CoreError> {
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "CND-IDS"
    }
}

impl ContinualLearner for UclBaseline {
    fn train_experience(&mut self, exp: &Experience) -> Result<(), CoreError> {
        let (seed_x, seed_y) = self.extract_seed_set(&exp.train_x, &exp.train_class)?;
        UclBaseline::train_experience(self, &exp.train_x, &seed_x, &seed_y)
    }

    fn scores(&self, _x: &Matrix) -> Result<Option<Vec<f64>>, CoreError> {
        Ok(None)
    }

    fn predict(&self, x: &Matrix) -> Result<Option<Vec<u8>>, CoreError> {
        Ok(Some(UclBaseline::predict(self, x)?))
    }

    fn name(&self) -> &'static str {
        match self.method() {
            crate::baselines::UclMethod::Adcn => "ADCN",
            crate::baselines::UclMethod::Lwf => "LwF",
        }
    }
}

/// Outcome of a continual evaluation run.
#[derive(Debug, Clone)]
pub struct ContinualOutcome {
    /// Model display name.
    pub name: String,
    /// `R_ij` matrix of F1 scores.
    pub f1_matrix: ResultMatrix,
    /// Pooled PR-AUC after each training experience (`None` for models
    /// without anomaly scores).
    pub pr_auc_per_step: Vec<Option<f64>>,
    /// Total training wall time in seconds.
    pub train_seconds: f64,
    /// Mean per-sample inference latency in milliseconds (measured on
    /// the final pooled evaluation).
    pub inference_ms_per_sample: f64,
    /// Compute-thread count of the pool the evaluation ran on (see
    /// `CND_THREADS`) — recorded so timing numbers are interpretable.
    pub threads: usize,
}

impl ContinualOutcome {
    /// Pooled PR-AUC after the final experience.
    pub fn final_pr_auc(&self) -> Option<f64> {
        self.pr_auc_per_step.last().copied().flatten()
    }
}

/// Pooled test data with per-experience boundaries.
struct PooledTest {
    x: Matrix,
    y: Vec<u8>,
    /// Half-open row ranges per experience.
    bounds: Vec<(usize, usize)>,
}

/// Folds this step's scores into the drift monitor and appends one
/// `quality` event (F1 row, PR-AUC, threshold, running continual
/// summary, score histogram) to the trace stream. Only called while
/// observability is enabled; every float comes from seeded model math,
/// so the event is identical across pool sizes.
fn emit_quality_record(
    i: usize,
    f1_matrix: &ResultMatrix,
    pr_auc: Option<f64>,
    threshold: Option<f64>,
    scores: Option<&[f64]>,
    monitor: &mut cnd_obs::DriftMonitor,
) {
    if let Some(scores) = scores {
        for &s in scores {
            monitor.observe(s);
        }
    }
    let score_hist = monitor.current_histogram().clone();
    if let Some(v) = monitor.rotate() {
        cnd_obs::gauge_set("quality.drift.psi.value", v.psi);
        cnd_obs::gauge_set("quality.drift.sym_kl.value", v.sym_kl);
        if v.drifted {
            cnd_obs::counter_add("quality.drift.flagged.count", 1);
        }
    }
    let summary = f1_matrix.partial_summary(i);
    cnd_obs::gauge_set("quality.avg.value", summary.avg);
    cnd_obs::gauge_set("quality.fwd_trans.value", summary.fwd_trans);
    cnd_obs::gauge_set("quality.bwd_trans.value", summary.bwd_trans);
    cnd_obs::quality_record(cnd_obs::QualityRecord {
        experience: i,
        f1_row: f1_matrix.row(i).to_vec(),
        pr_auc,
        threshold,
        avg: summary.avg,
        fwd_trans: summary.fwd_trans,
        bwd_trans: summary.bwd_trans,
        scores: score_hist,
    });
}

fn pool_tests(split: &ContinualSplit) -> Result<PooledTest, CoreError> {
    let mats: Vec<&Matrix> = split.experiences.iter().map(|e| &e.test_x).collect();
    let x = Matrix::vstack_all(mats)?;
    let mut y = Vec::with_capacity(x.rows());
    let mut bounds = Vec::with_capacity(split.len());
    let mut at = 0;
    for e in &split.experiences {
        y.extend_from_slice(&e.test_y);
        bounds.push((at, at + e.test_y.len()));
        at += e.test_y.len();
    }
    Ok(PooledTest { x, y, bounds })
}

/// Runs the full continual protocol (train on each experience, evaluate
/// on all test sets) and returns the result matrix and timings.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] when the split has fewer than two
///   experiences.
/// * Propagates model errors.
pub fn evaluate_continual(
    model: &mut dyn ContinualLearner,
    split: &ContinualSplit,
) -> Result<ContinualOutcome, CoreError> {
    let m = split.len();
    if m < 2 {
        return Err(CoreError::InvalidConfig {
            name: "split",
            constraint: "need at least 2 experiences",
        });
    }
    let _run_span = cnd_obs::span!("runner.evaluate", experiences = m);
    let pooled = pool_tests(split)?;
    let mut f1_matrix = ResultMatrix::new(m)?;
    let mut pr_auc_per_step = Vec::with_capacity(m);
    let mut train_seconds = 0.0;
    let mut inference_ms_per_sample = 0.0;

    let mut score_monitor = cnd_obs::DriftMonitor::default();
    for i in 0..m {
        let t0 = Instant::now();
        {
            let _train = cnd_obs::span!("runner.train", experience = i);
            model.train_experience(&split.experiences[i])?;
        }
        train_seconds += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (preds, step_pr_auc, scores, threshold) = {
            let _score = cnd_obs::span!("runner.score", experience = i, rows = pooled.x.rows());
            match model.scores(&pooled.x)? {
                Some(scores) => {
                    let sel = best_f1_threshold(&scores, &pooled.y)?;
                    let ap = pr_auc(&scores, &pooled.y).ok();
                    let preds = apply_threshold(&scores, sel.threshold);
                    (preds, ap, Some(scores), Some(sel.threshold))
                }
                None => {
                    let preds = model.predict(&pooled.x)?.ok_or(CoreError::NotTrained)?;
                    (preds, None, None, None)
                }
            }
        };
        let elapsed_ms = t1.elapsed().as_secs_f64() * 1e3;
        if i == m - 1 {
            inference_ms_per_sample = elapsed_ms / pooled.x.rows() as f64;
        }
        pr_auc_per_step.push(step_pr_auc);

        let _eval = cnd_obs::span!("runner.eval", experience = i);
        for (j, &(lo, hi)) in pooled.bounds.iter().enumerate() {
            let f1 = f1_score(&preds[lo..hi], &pooled.y[lo..hi])?;
            f1_matrix.set(i, j, f1);
        }
        if cnd_obs::enabled() {
            emit_quality_record(
                i,
                &f1_matrix,
                step_pr_auc,
                threshold,
                scores.as_deref(),
                &mut score_monitor,
            );
        }
    }
    cnd_obs::counter_add("runner.experiences.count", m as u64);

    Ok(ContinualOutcome {
        name: model.name().to_string(),
        f1_matrix,
        pr_auc_per_step,
        train_seconds,
        inference_ms_per_sample,
        threads: cnd_parallel::current().threads(),
    })
}

/// Outcome of a static (non-continual) novelty-detector evaluation.
#[derive(Debug, Clone)]
pub struct StaticOutcome {
    /// Detector display name.
    pub name: String,
    /// Best-F F1 per test experience.
    pub per_experience_f1: Vec<f64>,
    /// Pooled threshold-free PR-AUC across all test experiences.
    pub pr_auc: Option<f64>,
    /// Fit wall time in seconds.
    pub fit_seconds: f64,
    /// Mean per-sample inference latency in milliseconds.
    pub inference_ms_per_sample: f64,
    /// Compute-thread count of the pool the evaluation ran on (see
    /// `CND_THREADS`) — recorded so timing numbers are interpretable.
    pub threads: usize,
}

impl StaticOutcome {
    /// Mean F1 across experiences (the bar height in the paper's Fig. 4).
    pub fn average_f1(&self) -> f64 {
        if self.per_experience_f1.is_empty() {
            0.0
        } else {
            self.per_experience_f1.iter().sum::<f64>() / self.per_experience_f1.len() as f64
        }
    }
}

/// Evaluates a static novelty detector: fit once on the clean normal
/// subset `N_c`, then score every experience's test set (the detectors
/// cannot retrain on the unlabelled contaminated stream — paper
/// Section IV-B).
///
/// # Errors
///
/// Propagates detector and metric errors.
pub fn evaluate_static_detector(
    detector: &mut dyn NoveltyDetector,
    split: &ContinualSplit,
) -> Result<StaticOutcome, CoreError> {
    let _run_span = cnd_obs::span!("runner.static", rows = split.clean_normal.rows());
    let t0 = Instant::now();
    {
        let _fit = cnd_obs::span!("runner.train");
        detector.fit(&split.clean_normal)?;
    }
    let fit_seconds = t0.elapsed().as_secs_f64();

    let pooled = pool_tests(split)?;
    let t1 = Instant::now();
    let _score = cnd_obs::span!("runner.score", rows = pooled.x.rows());
    let pooled_scores = detector.anomaly_scores(&pooled.x)?;
    let inference_ms_per_sample = t1.elapsed().as_secs_f64() * 1e3 / pooled.x.rows().max(1) as f64;

    // One pooled Best-F threshold — the same protocol Algorithm 1 applies
    // to CND-IDS, so the comparison is threshold-for-threshold fair.
    let sel = best_f1_threshold(&pooled_scores, &pooled.y)?;
    let preds = apply_threshold(&pooled_scores, sel.threshold);
    let mut per_experience_f1 = Vec::with_capacity(split.len());
    for &(lo, hi) in &pooled.bounds {
        per_experience_f1.push(f1_score(&preds[lo..hi], &pooled.y[lo..hi])?);
    }
    let ap = pr_auc(&pooled_scores, &pooled.y).ok();

    Ok(StaticOutcome {
        name: detector.name().to_string(),
        per_experience_f1,
        pr_auc: ap,
        fit_seconds,
        inference_ms_per_sample,
        threads: cnd_parallel::current().threads(),
    })
}

/// Outcome of driving the resilient streaming pipeline through a
/// continual split (see [`evaluate_resilient_streaming`]).
#[derive(Debug, Clone)]
pub struct ResilientStreamingOutcome {
    /// Best-F F1 on the pooled test data of all experiences (0 when the
    /// pipeline never managed to train).
    pub pooled_f1: f64,
    /// Pooled threshold-free PR-AUC, when scoring was possible.
    pub pr_auc: Option<f64>,
    /// Final status of the pipeline, with its trained and failed
    /// attempts among the event counts.
    pub status: ContinualStatus,
}

/// Feeds every experience's training stream through a
/// [`ResilientStreamingCndIds`] in `chunk`-sized batches (flushing the
/// residue at each experience boundary when the pipeline is accepting
/// retrains), then evaluates Best-F F1 on the pooled test data — the
/// same pooled protocol as [`evaluate_continual`].
///
/// Used by the fault-tolerance bench and the CLI `stream` command to
/// measure how much injected corruption costs in detection quality.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] when `chunk` is zero.
/// * Propagates infrastructure errors (training *failures* are counted,
///   not propagated — that is the point of the resilient pipeline).
pub fn evaluate_resilient_streaming(
    stream: &mut ResilientStreamingCndIds,
    split: &ContinualSplit,
    chunk: usize,
) -> Result<ResilientStreamingOutcome, CoreError> {
    if chunk == 0 {
        return Err(CoreError::InvalidConfig {
            name: "chunk",
            constraint: "must be >= 1",
        });
    }
    let _run_span = cnd_obs::span!(
        "runner.stream",
        experiences = split.experiences.len(),
        chunk = chunk,
    );
    for (i, exp) in split.experiences.iter().enumerate() {
        let _ingest = cnd_obs::span!("runner.ingest", experience = i, rows = exp.train_x.rows());
        let n = exp.train_x.rows();
        let mut at = 0;
        while at < n {
            let hi = (at + chunk).min(n);
            let x = exp.train_x.slice_rows(at, hi)?;
            stream.push_flows(&x)?;
            at = hi;
        }
        // Experience boundary: train on the residue unless the retry
        // backoff says the pipeline is not accepting attempts yet.
        if stream.buffered() > 0 && stream.status().flows_until_retry == 0 {
            stream.flush()?;
        }
    }
    let (pooled_f1, pr_auc_val) = if stream.can_score() {
        let _eval = cnd_obs::span!("runner.eval");
        let pooled = pool_tests(split)?;
        let scores = stream.anomaly_scores(&pooled.x)?;
        let sel = best_f1_threshold(&scores, &pooled.y)?;
        (sel.f1, pr_auc(&scores, &pooled.y).ok())
    } else {
        (0.0, None)
    };
    Ok(ResilientStreamingOutcome {
        pooled_f1,
        pr_auc: pr_auc_val,
        status: stream.status(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{UclConfig, UclMethod};
    use crate::CndIdsConfig;
    use cnd_datasets::{continual, DatasetProfile, GeneratorConfig};
    use cnd_detectors::PcaDetector;

    fn split() -> ContinualSplit {
        let data = DatasetProfile::WustlIiot
            .generate(&GeneratorConfig::small(21))
            .unwrap();
        continual::prepare(&data, 4, 0.7, 21).unwrap()
    }

    #[test]
    fn cnd_ids_full_run_produces_matrix() {
        let s = split();
        let mut model = CndIds::new(CndIdsConfig::fast(1), &s.clean_normal).unwrap();
        let out = evaluate_continual(&mut model, &s).unwrap();
        assert_eq!(out.f1_matrix.experiences(), 4);
        assert_eq!(out.pr_auc_per_step.len(), 4);
        assert!(out.pr_auc_per_step.iter().all(|p| p.is_some()));
        assert!(out.train_seconds > 0.0);
        assert!(out.inference_ms_per_sample > 0.0);
        // Diagonal entries should show real detection ability.
        assert!(out.f1_matrix.avg() > 0.3, "AVG = {}", out.f1_matrix.avg());
    }

    #[test]
    fn ucl_baseline_run_produces_matrix_without_scores() {
        let s = split();
        let mut model =
            UclBaseline::new(UclMethod::Lwf, s.clean_normal.cols(), UclConfig::fast(2)).unwrap();
        let out = evaluate_continual(&mut model, &s).unwrap();
        assert_eq!(out.name, "LwF");
        assert!(out.pr_auc_per_step.iter().all(|p| p.is_none()));
        assert!(out.final_pr_auc().is_none());
    }

    #[test]
    fn resilient_streaming_run_with_corruption() {
        use crate::resilience::{ResilientConfig, ScriptedFaults};
        use crate::streaming::{EventKind, StreamingConfig};

        let s = split();
        let model = CndIds::new(CndIdsConfig::fast(1), &s.clean_normal).unwrap();
        let mut stream = ResilientStreamingCndIds::new(
            model,
            ResilientConfig {
                streaming: StreamingConfig {
                    max_buffer: 400,
                    bootstrap_batch: 200,
                    min_batch: 100,
                    drift_window: 50,
                },
                ..ResilientConfig::default()
            },
        )
        .unwrap();
        stream.set_fault_injector(Box::new(ScriptedFaults::new(9).with_corruption_rate(0.05)));
        let out = evaluate_resilient_streaming(&mut stream, &s, 64).unwrap();
        assert!(
            out.status.count(EventKind::Trained) > 0,
            "must train at least once"
        );
        assert_eq!(out.status.count(EventKind::TrainerFailed), 0);
        assert!(
            out.status.quarantine.total() > 0,
            "corruption must be caught"
        );
        assert!(out.pooled_f1 > 0.0, "pooled F1 = {}", out.pooled_f1);
        assert!(out.pr_auc.is_some());
    }

    #[test]
    fn static_detector_outcome() {
        let s = split();
        let mut det = PcaDetector::new(0.95);
        let out = evaluate_static_detector(&mut det, &s).unwrap();
        assert_eq!(out.per_experience_f1.len(), 4);
        assert!(out.average_f1() > 0.0);
        assert!(out.pr_auc.is_some());
        assert!(out.inference_ms_per_sample > 0.0);
    }
}
