//! Hand-timed micro-benchmarks of the parallel compute substrate.
//!
//! Not a paper artifact — this target measures the hot kernels behind
//! CFE/PCA scoring (blocked matmul, batch FRE scoring, batched network
//! inference) serially and on the `cnd-parallel` pool, asserts the two
//! paths are bit-identical, and writes the numbers
//! to `BENCH_substrate.json` for CI trend tracking.
//!
//! Env knobs:
//! * `CND_SUBSTRATE_QUICK=1` — small shapes for CI smoke runs.
//! * `CND_THREADS=N` — compute threads for the parallel measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cnd_linalg::Matrix;
use cnd_ml::pca::{ComponentSelection, Pca};
use cnd_nn::{Activation, Sequential};
use cnd_parallel::ThreadPool;
use rand::SeedableRng;

/// Counting wrapper around the system allocator so the out-of-core
/// bench can report a peak-allocation proxy: `LIVE` tracks currently
/// allocated bytes, `PEAK` the high-water mark since the last
/// [`reset_peak_to_live`]. Relaxed ordering is fine — the benches that
/// read these run their measured sections single-threaded, and the
/// counter only feeds a coarse MiB-level report.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Resets the high-water mark to the current live byte count and
/// returns that baseline; `PEAK - baseline` after a measured section is
/// the section's peak extra allocation.
fn reset_peak_to_live() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// One serial-vs-parallel measurement.
struct Measurement {
    name: String,
    serial_secs: f64,
    parallel_secs: f64,
    /// Work-rate label and serial/parallel values (GFLOP/s or flows/s).
    rate_unit: &'static str,
    serial_rate: f64,
    parallel_rate: f64,
    bit_identical: bool,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-12)
    }
}

/// Best-of-`reps` wall time of `f` (one warmup call first).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut sink = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        sink = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Keep the last result alive so the closure is not optimized away.
    std::hint::black_box(&sink);
    best
}

fn bench_matmul_shape(
    m: usize,
    k: usize,
    p: usize,
    reps: usize,
    serial: &ThreadPool,
    parallel: &ThreadPool,
) -> Measurement {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
    let b = Matrix::from_fn(k, p, |i, j| ((i * 13 + j * 7) % 89) as f64 / 89.0);
    let s_out = serial.install(|| a.matmul(&b).expect("shapes agree"));
    let p_out = parallel.install(|| a.matmul(&b).expect("shapes agree"));
    let serial_secs = time_best(reps, || {
        serial.install(|| a.matmul(&b).expect("shapes agree"))
    });
    let parallel_secs = time_best(reps, || {
        parallel.install(|| a.matmul(&b).expect("shapes agree"))
    });
    let flops = 2.0 * m as f64 * k as f64 * p as f64;
    Measurement {
        name: format!("matmul_{m}x{k}x{p}"),
        serial_secs,
        parallel_secs,
        rate_unit: "GFLOP/s",
        serial_rate: flops / serial_secs / 1e9,
        parallel_rate: flops / parallel_secs / 1e9,
        bit_identical: s_out == p_out,
    }
}

fn bench_matmul(n: usize, reps: usize, serial: &ThreadPool, parallel: &ThreadPool) -> Measurement {
    bench_matmul_shape(n, n, n, reps, serial, parallel)
}

/// A fast-config model trained on one synthetic experience and frozen,
/// plus `rows` flows to score with it.
fn frozen_scorer_and_flows(rows: usize, cols: usize) -> (cnd_core::deploy::DeployedScorer, Matrix) {
    use cnd_core::{CndIds, CndIdsConfig};

    let normal = |i: usize, j: usize| ((i * 7 + j * 3) % 13) as f64 * 0.1;
    let n_c = Matrix::from_fn(50, cols, normal);
    let train = Matrix::from_fn(300, cols, |i, j| {
        if i < 240 {
            normal(i + 100, j)
        } else {
            normal(i + 100, j) + 2.5
        }
    });
    let mut model = CndIds::new(CndIdsConfig::fast(cnd_bench::BENCH_SEED), &n_c).expect("builds");
    model.train_experience(&train).expect("trains");
    let scorer = model.freeze().expect("freezes");
    let x = Matrix::from_fn(rows, cols, |i, j| {
        normal(i + 500, j) + ((i % 10) as f64) * 0.2
    });
    (scorer, x)
}

/// End-to-end scoring on a frozen model (scaler → packed encoder →
/// PCA FRE), serially and on the pool; `bit_identical` records that
/// the pooled scores are bitwise equal to the serial ones.
fn bench_serve_score(
    rows: usize,
    cols: usize,
    reps: usize,
    serial: &ThreadPool,
    parallel: &ThreadPool,
) -> Measurement {
    let (scorer, x) = frozen_scorer_and_flows(rows, cols);

    let score = |pool: &ThreadPool| pool.install(|| scorer.anomaly_scores(&x).expect("scores"));
    let bits = |s: Vec<f64>| s.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let bit_identical = bits(score(serial)) == bits(score(parallel));
    let serial_secs = time_best(reps, || score(serial));
    let parallel_secs = time_best(reps, || score(parallel));
    Measurement {
        name: format!("serve_score_{rows}x{cols}"),
        serial_secs,
        parallel_secs,
        rate_unit: "flows/s",
        serial_rate: rows as f64 / serial_secs,
        parallel_rate: rows as f64 / parallel_secs,
        bit_identical,
    }
}

/// Out-of-core scoring through a `.cnds` flow store. Two rows come out:
///
/// * `store_stream_<shape>` — `serial_*` scores the fully materialized
///   matrix, `parallel_*` streams chunk-at-a-time from the store (both
///   on the serial pool — the comparison is data plane, not thread
///   fan-out); `bit_identical` records that the streamed f64 scores are
///   bitwise equal to the in-memory ones.
/// * `store_stream_flat_peak_<shape>` — the data plane's memory claim:
///   when the capture grows 4×, the streamed pass's peak extra
///   allocation (measured once through the counting allocator), minus
///   the score vector it returns, does not grow. `serial_*`/`parallel_*`
///   are the streamed pass over `rows` and `4 · rows` flows (flows/s);
///   `bit_identical` records that the bound held.
fn bench_store_stream(
    rows: usize,
    cols: usize,
    reps: usize,
    serial: &ThreadPool,
) -> [Measurement; 2] {
    use cnd_store::{DType, FlowStore, StoreWriter};

    const CHUNK_ROWS: usize = 256;
    const MIB: f64 = 1024.0 * 1024.0;

    let (scorer, x) = frozen_scorer_and_flows(rows, cols);
    let x4 = Matrix::vstack_all(vec![&x; 4]).expect("same width");
    let store_of = |m: &Matrix, tag: &str| {
        let path = std::env::temp_dir().join(format!(
            "cnd_substrate_{}_{tag}_{rows}.cnds",
            std::process::id()
        ));
        let mut writer =
            StoreWriter::create(&path, cols, DType::F64, false).expect("store is writable");
        writer.push_matrix(m, &[]).expect("rows append");
        writer.finalize().expect("store finalizes");
        path
    };
    let (path, path4) = (store_of(&x, "x1"), store_of(&x4, "x4"));

    let stream_pass = |path: &std::path::Path| {
        let store = FlowStore::open(path).expect("store opens");
        let chunks = store.chunks(CHUNK_ROWS).expect("chunk iter opens");
        let mut scores = Vec::with_capacity(store.len() as usize);
        for part in scorer.score_chunks(chunks) {
            scores.extend(part.expect("chunk scores").scores);
        }
        scores
    };
    // Peak extra allocation of one streamed pass, less the 8-byte score
    // per row it returns. Measured once, outside the timing loop, so a
    // warmup cannot inflate the high-water mark, and with tracing off,
    // because the trace buffer grows with the number of chunk spans.
    let working_set = |path: &std::path::Path| {
        cnd_obs::set_enabled(false);
        let base = reset_peak_to_live();
        let scores = serial.install(|| stream_pass(path));
        let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
        cnd_obs::set_enabled(true);
        (peak.saturating_sub(scores.len() * 8), scores)
    };
    let (flat1, s_stream) = working_set(&path);
    let (flat4, _) = working_set(&path4);
    let s_mem = serial.install(|| scorer.anomaly_scores(&x).expect("scores"));
    let bitwise = s_mem.len() == s_stream.len()
        && s_mem
            .iter()
            .zip(&s_stream)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "store_stream_flat_peak: {:.3} MiB at {rows} rows, {:.3} MiB at {} rows (peak less returned scores)",
        flat1 as f64 / MIB,
        flat4 as f64 / MIB,
        4 * rows,
    );
    assert!(
        flat4 <= flat1,
        "streaming a 4x capture grew the working set from {flat1} to {flat4} bytes"
    );

    let mem_secs = time_best(reps, || {
        serial.install(|| scorer.anomaly_scores(&x).expect("scores"))
    });
    let stream_secs = time_best(reps, || serial.install(|| stream_pass(&path)));
    let stream4_secs = time_best(reps, || serial.install(|| stream_pass(&path4)));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&path4);

    [
        Measurement {
            name: format!("store_stream_{rows}x{cols}"),
            serial_secs: mem_secs,
            parallel_secs: stream_secs,
            rate_unit: "flows/s",
            serial_rate: rows as f64 / mem_secs,
            parallel_rate: rows as f64 / stream_secs,
            bit_identical: bitwise,
        },
        Measurement {
            name: format!("store_stream_flat_peak_{rows}x{cols}"),
            serial_secs: stream_secs,
            parallel_secs: stream4_secs,
            rate_unit: "flows/s",
            serial_rate: rows as f64 / stream_secs,
            parallel_rate: (4 * rows) as f64 / stream4_secs,
            bit_identical: flat4 <= flat1,
        },
    ]
}

fn bench_pca_score(
    rows: usize,
    cols: usize,
    reps: usize,
    serial: &ThreadPool,
    parallel: &ThreadPool,
) -> Measurement {
    let x = Matrix::from_fn(rows, cols, |i, j| ((i * 29 + j * 3) % 31) as f64 / 31.0);
    let pca = Pca::fit(&x, ComponentSelection::Fixed(cols / 2)).expect("fits");
    let s_out = serial.install(|| pca.reconstruction_errors(&x).expect("scores"));
    let p_out = parallel.install(|| pca.reconstruction_errors(&x).expect("scores"));
    let serial_secs = time_best(reps, || {
        serial.install(|| pca.reconstruction_errors(&x).expect("scores"))
    });
    let parallel_secs = time_best(reps, || {
        parallel.install(|| pca.reconstruction_errors(&x).expect("scores"))
    });
    let bit_identical = s_out.len() == p_out.len()
        && s_out
            .iter()
            .zip(&p_out)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    Measurement {
        name: format!("pca_score_{rows}x{cols}"),
        serial_secs,
        parallel_secs,
        rate_unit: "flows/s",
        serial_rate: rows as f64 / serial_secs,
        parallel_rate: rows as f64 / parallel_secs,
        bit_identical,
    }
}

fn bench_cfe_forward(
    rows: usize,
    cols: usize,
    reps: usize,
    serial: &ThreadPool,
    parallel: &ThreadPool,
) -> Measurement {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cnd_bench::BENCH_SEED);
    // Paper-shaped CFE encoder stack: features -> 256 -> 64 -> latent.
    let net = Sequential::mlp(&[cols, 256, 64, 32], Activation::Relu, &mut rng);
    let x = Matrix::from_fn(rows, cols, |i, j| ((i * 11 + j * 5) % 41) as f64 / 41.0);
    let s_out = serial.install(|| net.forward_inference(&x));
    let p_out = parallel.install(|| net.forward_inference(&x));
    let serial_secs = time_best(reps, || serial.install(|| net.forward_inference(&x)));
    let parallel_secs = time_best(reps, || parallel.install(|| net.forward_inference(&x)));
    Measurement {
        name: format!("cfe_forward_{rows}x{cols}"),
        serial_secs,
        parallel_secs,
        rate_unit: "flows/s",
        serial_rate: rows as f64 / serial_secs,
        parallel_rate: rows as f64 / parallel_secs,
        bit_identical: s_out == p_out,
    }
}

fn json_escape_free(s: &str) -> &str {
    // Names are generated from fixed templates; just assert the
    // invariant instead of escaping.
    assert!(!s.contains(['"', '\\']), "bench name needs no escaping");
    s
}

fn write_json(
    path: &str,
    quick: bool,
    threads: usize,
    results: &[Measurement],
    phases: &cnd_obs::PhaseReport,
) {
    let mut entries = Vec::with_capacity(results.len());
    for m in results {
        entries.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"serial_secs\": {:.6}, ",
                "\"parallel_secs\": {:.6}, \"speedup\": {:.3}, ",
                "\"rate_unit\": \"{}\", \"serial_rate\": {:.3}, ",
                "\"parallel_rate\": {:.3}, \"bit_identical\": {}}}"
            ),
            json_escape_free(&m.name),
            m.serial_secs,
            m.parallel_secs,
            m.speedup(),
            m.rate_unit,
            m.serial_rate,
            m.parallel_rate,
            m.bit_identical,
        ));
    }
    let phase_entries: Vec<String> = phases
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"span\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                json_escape_free(&r.name),
                r.count,
                r.total,
                r.self_time,
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"substrate_perf\",\n  \"quick\": {quick},\n  \
         \"parallel_threads\": {threads},\n  \"results\": [\n{}\n  ],\n  \
         \"phases\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        phase_entries.join(",\n"),
    );
    std::fs::write(path, body).expect("BENCH_substrate.json is writable");
}

fn main() {
    let quick = std::env::var("CND_SUBSTRATE_QUICK").is_ok_and(|v| v == "1");
    let serial = ThreadPool::new(1);
    let parallel = cnd_parallel::global();
    cnd_bench::banner(
        "substrate_perf — parallel compute substrate",
        "not a paper artifact (kernel performance tracking)",
    );
    println!(
        "mode: {}, parallel pool: {} thread(s)",
        if quick { "quick" } else { "full" },
        parallel.threads(),
    );

    // Trace each kernel measurement so the report can carry a
    // per-phase timing breakdown next to the rates.
    cnd_obs::reset(cnd_obs::ClockKind::Wall);
    cnd_obs::set_enabled(true);

    let reps = if quick { 2 } else { 3 };
    let (score_rows, score_cols) = if quick { (2_000, 32) } else { (20_000, 64) };
    let mut results = vec![
        {
            let _s = cnd_obs::span!("bench.matmul");
            bench_matmul(192, reps, &serial, parallel)
        },
        {
            let _s = cnd_obs::span!("bench.matmul_512");
            bench_matmul(512, reps, &serial, parallel)
        },
        {
            // The CFE encode shape: a tall-skinny batch against the
            // first (widest) layer of the paper's encoder stack.
            let _s = cnd_obs::span!("bench.matmul_encode");
            bench_matmul_shape(score_rows, score_cols, 256, reps, &serial, parallel)
        },
        {
            let _s = cnd_obs::span!("bench.pca_score");
            bench_pca_score(score_rows, score_cols, reps, &serial, parallel)
        },
        {
            let _s = cnd_obs::span!("bench.cfe_forward");
            bench_cfe_forward(score_rows, score_cols, reps, &serial, parallel)
        },
        {
            let _s = cnd_obs::span!("bench.serve_score");
            bench_serve_score(score_rows, score_cols, reps, &serial, parallel)
        },
    ];
    {
        let _s = cnd_obs::span!("bench.store_stream");
        results.extend(bench_store_stream(score_rows, score_cols, reps, &serial));
    }
    cnd_obs::set_enabled(false);
    let phases = cnd_obs::phase_report(&cnd_obs::snapshot_jsonl()).expect("bench trace parses");

    let widths = [30, 12, 12, 9, 14, 14, 9];
    println!(
        "{}",
        cnd_bench::row(
            &[
                "kernel".into(),
                "serial s".into(),
                "parallel s".into(),
                "speedup".into(),
                "serial rate".into(),
                "parallel rate".into(),
                "bit-eq".into(),
            ],
            &widths,
        )
    );
    for m in &results {
        assert!(
            m.bit_identical,
            "{}: parallel output diverged from serial",
            m.name
        );
        println!(
            "{}",
            cnd_bench::row(
                &[
                    m.name.clone(),
                    format!("{:.4}", m.serial_secs),
                    format!("{:.4}", m.parallel_secs),
                    format!("{:.2}x", m.speedup()),
                    format!("{:.1} {}", m.serial_rate, m.rate_unit),
                    format!("{:.1} {}", m.parallel_rate, m.rate_unit),
                    m.bit_identical.to_string(),
                ],
                &widths,
            )
        );
    }

    // Benches run with the package dir as cwd; anchor the report at the
    // workspace root so CI can find it at a fixed path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    write_json(path, quick, parallel.threads(), &results, &phases);
    println!("\nwrote {path}");
    println!(
        "gate against the committed baseline with: cnd-ids-cli bench-check BENCH_substrate.json"
    );
}
