//! `continual_train`: the fig3 protocol (`runner::evaluate_continual`)
//! on the 5-experience X-IIoTID split with `CndIdsConfig::fast`, pass
//! after pass from the same freshly built model.
//!
//! The traced run replays the protocol through the public pieces
//! `CndIds::train_experience` and `CndIds::anomaly_scores` chain
//! (scaler, CFE, PCA, Best-F threshold, PR-AUC) with a span around each,
//! and must reach the untraced pass's PR-AUC bit for bit.

use std::time::Instant;

use cnd_core::runner::{evaluate_continual, ContinualLearner};
use cnd_core::{CndIds, CndIdsConfig, ContinualFeatureExtractor, CoreError};
use cnd_datasets::continual::{ContinualSplit, Experience};
use cnd_datasets::GeneratorConfig;
use cnd_linalg::Matrix;
use cnd_metrics::curve::pr_auc;
use cnd_metrics::threshold::best_f1_threshold;
use cnd_ml::pca::{ComponentSelection, Pca};
use cnd_ml::StandardScaler;

use crate::layers::deploy_layers;
use crate::stats::{
    keep_freed_memory, median, median_of_quantiles, peak_rss_mib, reset_peak_rss, timed_setup,
};
use crate::trace::Tracer;
use crate::{generate, split, Args, BenchError, Outcome};

/// Splits + model constructions per run; `setup_s` is their median.
/// Each takes about a millisecond; 61 let the median ride out short
/// bursts of host noise within a run.
const SETUP_REPS: usize = 61;

/// Delegates to [`CndIds`] and stamps the start of every experience, so
/// per-step latency is measured from outside the runner.
struct Stamped<'a> {
    model: &'a mut CndIds,
    marks: Vec<Instant>,
}

impl ContinualLearner for Stamped<'_> {
    fn train_experience(&mut self, exp: &Experience) -> Result<(), CoreError> {
        self.marks.push(Instant::now());
        ContinualLearner::train_experience(self.model, exp)
    }

    fn scores(&self, x: &Matrix) -> Result<Option<Vec<f64>>, CoreError> {
        ContinualLearner::scores(self.model, x)
    }

    fn predict(&self, x: &Matrix) -> Result<Option<Vec<u8>>, CoreError> {
        ContinualLearner::predict(self.model, x)
    }

    fn name(&self) -> &'static str {
        "CND-IDS"
    }
}

/// One protocol pass.
struct Pass {
    seconds: f64,
    step_s: Vec<f64>,
    pr_auc: Option<f64>,
}

/// Runs one pass from a clone of `fresh`; returns it with the trained
/// model.
fn pass(fresh: &CndIds, split: &ContinualSplit) -> (Pass, CndIds) {
    let mut model = fresh.clone();
    let mut stamped = Stamped {
        model: &mut model,
        marks: Vec::with_capacity(split.len()),
    };
    let t0 = Instant::now();
    let outcome = evaluate_continual(&mut stamped, split);
    let end = Instant::now();
    let mut marks = std::mem::take(&mut stamped.marks);
    marks.push(end);
    let step_s = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let pr_auc = match outcome {
        Ok(o) => o.final_pr_auc(),
        Err(e) => {
            eprintln!("continual pass failed: {e}");
            None
        }
    };
    let p = Pass {
        seconds: (end - t0).as_secs_f64(),
        step_s,
        pr_auc,
    };
    (p, model)
}

/// The same protocol through the pieces `CndIds` chains, one span each.
/// `pseudo_labels` runs on a clone of the CFE, so the traced model's
/// random stream and weights stay those of the untraced pass.
fn traced_pass(
    cfg: CndIdsConfig,
    split: &ContinualSplit,
    pooled: &Matrix,
    pooled_y: &[u8],
    tracer: &mut Tracer,
) -> Result<f64, BenchError> {
    let scaler = StandardScaler::fit(&split.clean_normal)?;
    let nc = scaler.transform(&split.clean_normal)?;
    let mut cfe = ContinualFeatureExtractor::new(split.clean_normal.cols(), cfg.cfe)?;
    let mut last_pr_auc = None;
    tracer.enter("continual.pass");
    for exp in &split.experiences {
        tracer.enter("continual.experience");
        let xs = tracer.time("ml.scale", || scaler.transform(&exp.train_x))?;
        let mut probe = cfe.clone();
        tracer.time("cfe.pseudo_labels", || probe.pseudo_labels(&xs, &nc))?;
        drop(probe);
        tracer.time("cfe.train", || cfe.train_experience(&xs, &nc))?;
        let h = tracer.time("cfe.encode", || cfe.encode(&nc))?;
        let pca = tracer.time("pca.fit", || {
            Pca::fit(&h, ComponentSelection::VarianceFraction(cfg.pca_variance))
        })?;
        let scores = tracer.time("deploy.score", || -> Result<Vec<f64>, BenchError> {
            let xs = scaler.transform(pooled)?;
            let h = cfe.encode(&xs)?;
            Ok(pca.reconstruction_errors(&h)?)
        })?;
        last_pr_auc = tracer
            .time("metrics.threshold", || -> Result<f64, BenchError> {
                best_f1_threshold(&scores, pooled_y)?;
                Ok(pr_auc(&scores, pooled_y)?)
            })
            .ok();
        tracer.exit();
    }
    tracer.exit();
    last_pr_auc.ok_or_else(|| "traced pass produced no PR-AUC".into())
}

/// Mean over traced passes of each pass's total time in spans `name`.
fn per_pass_s(tracer: &Tracer, name: &str, passes: usize) -> f64 {
    let total: f64 = tracer.durations_s(name).iter().sum();
    total / passes.max(1) as f64
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    // Set-up and passes reuse the pages their predecessors freed, in
    // every process alike.
    keep_freed_memory();
    let data = generate(
        args.seed,
        GeneratorConfig::standard(args.seed).total_samples,
    )?;
    let cfg = CndIdsConfig::fast(args.seed);

    let ((split, fresh), setup_s) = timed_setup(SETUP_REPS, || {
        let s = split(&data, args.seed)?;
        let model = CndIds::new(cfg, &s.clean_normal)?;
        Ok((s, model))
    })?;
    drop(data);
    let train_rows: usize = split.experiences.iter().map(|e| e.train_x.rows()).sum();
    let pooled = Matrix::vstack_all(split.experiences.iter().map(|e| &e.test_x))?;
    let pooled_y: Vec<u8> = split
        .experiences
        .iter()
        .flat_map(|e| e.test_y.iter().copied())
        .collect();
    let flows_per_pass = (train_rows + split.len() * pooled.rows()) as f64;

    let mut out = Outcome::default();
    reset_peak_rss();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let mut passes = Vec::new();
    // Only the first trained model is kept, so memory does not grow
    // with the number of passes.
    let mut trained = None;
    while passes.is_empty() || t0.elapsed() < budget {
        let (p, model) = pass(&fresh, &split);
        passes.push(p);
        trained.get_or_insert(model);
    }
    let peak = peak_rss_mib();

    // Output check: every pass reaches a PR-AUC, bit-identical to the
    // first pass's.
    let reference = passes[0].pr_auc.map(f64::to_bits);
    let mut failed_steps = 0u64;
    for p in &passes {
        if p.pr_auc.is_none() || p.pr_auc.map(f64::to_bits) != reference {
            failed_steps += split.len() as u64;
        }
    }
    let mut attempted = (passes.len() * split.len()) as u64;

    if !args.trace {
        let mut job: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
        let mut rates: Vec<f64> = passes.iter().map(|p| flows_per_pass / p.seconds).collect();
        out.set("setup_s", setup_s);
        out.set("flows_per_s", median(&mut rates));
        let steps = || passes.iter().map(|p| p.step_s.as_slice());
        out.set("lat_p50_us", median_of_quantiles(steps(), 0.5) * 1e6);
        out.set("lat_p90_us", median_of_quantiles(steps(), 0.9) * 1e6);
        out.set("job_s", median(&mut job));
        out.set("pr_auc", passes[0].pr_auc.unwrap_or(0.0));
        out.set("peak_rss_mib", peak);
    } else {
        let t1 = Instant::now();
        let mut traced = 0usize;
        let mut traced_s = Vec::new();
        while traced == 0 || t1.elapsed() < budget {
            let t = Instant::now();
            let ap = traced_pass(cfg, &split, &pooled, &pooled_y, tracer)?;
            traced_s.push(t.elapsed().as_secs_f64());
            attempted += split.len() as u64;
            if Some(ap.to_bits()) != reference {
                eprintln!(
                    "traced PR-AUC {ap} differs from untraced {:?}",
                    passes[0].pr_auc
                );
                failed_steps += split.len() as u64;
            }
            traced += 1;
        }
        for (span, metric) in [
            ("cfe.pseudo_labels", "cfe.pseudo_labels_s"),
            ("cfe.train", "cfe.train_s"),
            ("cfe.encode", "cfe.encode_s"),
            ("pca.fit", "pca.fit_s"),
            ("deploy.score", "deploy.score_s"),
            ("metrics.threshold", "metrics.threshold_s"),
        ] {
            out.set(metric, per_pass_s(tracer, span, traced));
        }
        // The pseudo-label probe is extra work, not tracing cost.
        let probe_s = per_pass_s(tracer, "cfe.pseudo_labels", traced);
        let mut untraced_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
        out.set(
            "bench.trace_overhead_pct",
            ((median(&mut traced_s) - probe_s) / median(&mut untraced_s) - 1.0) * 100.0,
        );
        let trained = trained.as_ref().expect("at least one pass ran");
        deploy_layers(trained, &pooled, &mut out, tracer)?;
    }
    out.attempted = attempted;
    out.failed = failed_steps;
    out.correct = failed_steps == 0;
    Ok(out)
}
