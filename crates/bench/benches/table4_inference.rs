//! Regenerates **Table IV** (average inference time per test sample, in
//! milliseconds) for CND-IDS, ADCN, LwF, DIF and PCA. Each row is the
//! median of [`CALLS`] timed calls after one untimed warm-up call.
//!
//! Paper reference (RTX 3090 + EPYC 7343):
//!
//! | method  | CND-IDS | ADCN   | LwF    | DIF    | PCA    |
//! |---------|---------|--------|--------|--------|--------|
//! | ms      | 0.0019  | 0.4061 | 0.0677 | 1.0535 | 0.0018 |
//!
//! Shape: PCA and CND-IDS are the two fastest (CND-IDS pays only the
//! extra encoder pass over PCA); the cluster-classification baselines
//! and DIF's representation ensemble are orders of magnitude slower.

use std::time::Instant;

use cnd_bench::{paper_cnd_ids, paper_ucl, standard_split, BENCH_SEED};
use cnd_core::baselines::UclMethod;
use cnd_core::runner::evaluate_continual;
use cnd_datasets::DatasetProfile;
use cnd_detectors::{DeepIsolationForest, DeepIsolationForestConfig, NoveltyDetector, PcaDetector};
use cnd_linalg::Matrix;

/// Timed calls per row.
const CALLS: usize = 101;

/// Median wall time of `CALLS` calls of `f` in milliseconds, printed as
/// one row named `name`.
fn row<R>(name: &str, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let mut ms: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    println!(
        "  {name:<24} {:>12.6} ms (median of {CALLS})",
        ms[CALLS / 2]
    );
}

fn main() {
    // One representative dataset (UNSW-NB15 — the smallest of the four
    // in the paper) trained once; benches measure scoring a single flow.
    let profile = DatasetProfile::UnswNb15;
    let (_, split) = standard_split(profile);
    let sample: Matrix = split.experiences[0]
        .test_x
        .slice_rows(0, 1)
        .expect("test set is non-empty");

    println!("Table IV: inference time per call");

    // CND-IDS.
    let mut cnd = paper_cnd_ids(&split);
    evaluate_continual(&mut cnd, &split).expect("CND-IDS training");
    row("CND-IDS", || {
        cnd.anomaly_scores(&sample).expect("scoring succeeds")
    });

    // ADCN.
    let mut adcn = paper_ucl(UclMethod::Adcn, &split);
    evaluate_continual(&mut adcn, &split).expect("ADCN training");
    row("ADCN", || {
        adcn.predict(&sample).expect("prediction succeeds")
    });

    // LwF.
    let mut lwf = paper_ucl(UclMethod::Lwf, &split);
    evaluate_continual(&mut lwf, &split).expect("LwF training");
    row("LwF", || lwf.predict(&sample).expect("prediction succeeds"));

    // DIF.
    let mut dif = DeepIsolationForest::new(DeepIsolationForestConfig {
        seed: BENCH_SEED,
        ..Default::default()
    });
    dif.fit(&split.clean_normal).expect("DIF fit");
    row("DIF", || {
        dif.anomaly_scores(&sample).expect("scoring succeeds")
    });

    // PCA.
    let mut pca = PcaDetector::new(0.95);
    pca.fit(&split.clean_normal).expect("PCA fit");
    row("PCA", || {
        pca.anomaly_scores(&sample).expect("scoring succeeds")
    });

    // Batched scoring: deployments score flows in batches, which
    // amortizes the per-call allocation overhead that dominates the
    // batch-of-1 numbers above. Reported per 1024-sample batch; divide
    // by 1024 for the amortized per-sample cost.
    let batch: Matrix = split.experiences[0]
        .test_x
        .slice_rows(0, split.experiences[0].test_x.rows().min(1024))
        .expect("test set is non-empty");
    row("CND-IDS (batch 1024)", || {
        cnd.anomaly_scores(&batch).expect("scoring succeeds")
    });
    row("PCA (batch 1024)", || {
        pca.anomaly_scores(&batch).expect("scoring succeeds")
    });

    println!("\nTable IV reference (paper, GPU+EPYC): CND-IDS 0.0019 ms, ADCN 0.4061 ms,");
    println!("LwF 0.0677 ms, DIF 1.0535 ms, PCA 0.0018 ms per sample.");
    println!("Shape to verify above: PCA and CND-IDS fastest; DIF slowest.");
}
