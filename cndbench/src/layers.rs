//! Inference layers timed in isolation at a workload's batch shape:
//! `StandardScaler::transform` → `Sequential::forward_inference` →
//! `Pca::reconstruction_errors`, the three calls `DeployedScorer`
//! chains, plus the encoder on a one-thread pool for the parallel
//! speed-up.

use std::hint::black_box;
use std::time::Instant;

use cnd_core::CndIds;
use cnd_linalg::Matrix;
use cnd_parallel::ThreadPool;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{BenchError, Outcome};

/// Flows pushed through each layer per timing sample, so small batches
/// are timed over many calls.
const FLOWS_PER_SAMPLE: usize = 16_384;
/// Timing samples per layer (the median is reported).
const SAMPLES: usize = 7;

/// Times `f` over `reps` calls per sample; returns median seconds per call.
fn time_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&mut per_call)
}

/// Multiply-adds ×2 of every linear layer for `rows` flows.
fn encoder_flops(model: &CndIds, rows: usize) -> f64 {
    model
        .feature_extractor()
        .encoder()
        .linear_layers()
        .map(|l| 2.0 * (rows * l.fan_in() * l.fan_out()) as f64)
        .sum()
}

/// Records the `deploy.*` and `parallel.*` metrics for batches of `x`.
pub fn deploy_layers(
    model: &CndIds,
    x: &Matrix,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), BenchError> {
    let rows = x.rows().max(1);
    let reps = FLOWS_PER_SAMPLE.div_ceil(rows);
    let scaler = model.scaler();
    let encoder = model.feature_extractor().encoder();
    let pca = model.pca().ok_or("fixture model is untrained")?;
    let xs = scaler.transform(x)?;
    let h = encoder.forward_inference(&xs);

    tracer.enter("deploy.layers");
    let scaler_s = tracer.time("deploy.scaler", || {
        time_call(reps, || {
            black_box(scaler.transform(black_box(x)).expect("dimension checked"));
        })
    });
    let encoder_s = tracer.time("deploy.encoder", || {
        time_call(reps, || {
            black_box(encoder.forward_inference(black_box(&xs)));
        })
    });
    let pca_s = tracer.time("deploy.pca", || {
        time_call(reps, || {
            black_box(
                pca.reconstruction_errors(black_box(&h))
                    .expect("dimension checked"),
            );
        })
    });
    let serial = ThreadPool::new(1);
    let encoder_serial_s = tracer.time("deploy.encoder_1thread", || {
        serial.install(|| {
            time_call(reps, || {
                black_box(encoder.forward_inference(black_box(&xs)));
            })
        })
    });
    tracer.exit();

    let per_flow_ns = |s: f64| s * 1e9 / rows as f64;
    out.set("deploy.scaler_ns_per_flow", per_flow_ns(scaler_s));
    out.set("deploy.encoder_ns_per_flow", per_flow_ns(encoder_s));
    out.set("deploy.pca_ns_per_flow", per_flow_ns(pca_s));
    out.set(
        "deploy.encoder_gflops",
        encoder_flops(model, rows) / encoder_s / 1e9,
    );
    out.set("parallel.encoder_speedup", encoder_serial_s / encoder_s);
    Ok(())
}
