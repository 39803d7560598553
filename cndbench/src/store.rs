//! `score_store`: offline scoring of a 200k-flow `.cnds` capture through
//! `FlowStore::chunks(default_chunk_rows())` → `DeployedScorer::score_chunks`,
//! pass after pass. 8192-row chunks run through cnd-store and the
//! cnd-parallel pool, which the serving path never reaches.

use std::path::Path;
use std::time::Instant;

use cnd_core::deploy::DeployedScorer;
use cnd_metrics::curve::pr_auc;
use cnd_store::{default_chunk_rows, DType, FlowStore, StoreWriter};

use crate::layers::deploy_layers;
use crate::stats::{median, median_of_quantiles, peak_rss_mib, reset_peak_rss, timed_setup};
use crate::trace::Tracer;
use crate::{generate, train_fixture_model, Args, BenchError, Outcome};

/// Flows in the capture (93 MB as f64 rows of the 58-feature replica).
const STORE_ROWS: usize = 200_000;
/// Store writes + opens + model loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One scoring pass over the store.
#[derive(Debug, Default)]
struct Pass {
    seconds: f64,
    rows: u64,
    /// Seconds from the previous chunk (or the pass start) to each chunk.
    chunk_s: Vec<f64>,
    /// FNV-1a over every score's bits, in store order.
    digest: u64,
    first_chunk: Vec<u64>,
    error: Option<String>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Pass::default()
        }
    }

    /// Folds one chunk's scores into the row count, digest, and (for the
    /// first chunk) the bits checked against the in-memory scorer.
    fn absorb(&mut self, scores: &[f64]) {
        if self.rows == 0 {
            self.first_chunk = scores.iter().map(|s| s.to_bits()).collect();
        }
        self.rows += scores.len() as u64;
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                self.digest ^= u64::from(b);
                self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// The untraced pass: exactly `FlowStore::chunks` → `score_chunks`.
fn pass(
    store: &FlowStore,
    scorer: &DeployedScorer,
    scores: &mut Vec<f64>,
    labels: &mut Vec<u8>,
) -> Pass {
    scores.clear();
    labels.clear();
    let mut p = Pass::new();
    let t0 = Instant::now();
    let mut last = t0;
    let chunks = match store.chunks(default_chunk_rows()) {
        Ok(c) => c,
        Err(e) => {
            p.error = Some(e.to_string());
            return p;
        }
    };
    for scored in scorer.score_chunks(chunks) {
        let now = Instant::now();
        p.chunk_s.push((now - last).as_secs_f64());
        last = now;
        match scored {
            Ok(c) => {
                p.absorb(&c.scores);
                scores.extend_from_slice(&c.scores);
                labels.extend(c.labels.iter().map(|&l| u8::from(l != 0)));
            }
            Err(e) => {
                p.error = Some(e.to_string());
                break;
            }
        }
    }
    p.seconds = t0.elapsed().as_secs_f64();
    p
}

/// The traced pass: the same reads and scoring calls, with a span
/// around `ChunkIter::next` (read + decode + CRC) and one around
/// `DeployedScorer::anomaly_scores` per chunk.
fn traced_pass(store: &FlowStore, scorer: &DeployedScorer, tracer: &mut Tracer) -> Pass {
    let mut p = Pass::new();
    tracer.enter("store.pass");
    let t0 = Instant::now();
    let mut last = t0;
    match store.chunks(default_chunk_rows()) {
        Ok(mut chunks) => {
            while let Some(chunk) = tracer.time("store.read", || chunks.next()) {
                let scored = chunk.map_err(|e| e.to_string()).and_then(|c| {
                    tracer
                        .time("deploy.score", || scorer.anomaly_scores(&c.rows))
                        .map_err(|e| e.to_string())
                });
                let now = Instant::now();
                p.chunk_s.push((now - last).as_secs_f64());
                last = now;
                match scored {
                    Ok(s) => p.absorb(&s),
                    Err(e) => {
                        p.error = Some(e);
                        break;
                    }
                }
            }
        }
        Err(e) => p.error = Some(e.to_string()),
    }
    p.seconds = t0.elapsed().as_secs_f64();
    tracer.exit();
    p
}

pub fn run(args: &Args, dir: &Path, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    // Fixtures: the capture's flows, the model, and the first chunk's
    // expected scores from the in-memory path.
    let (model, _) = train_fixture_model(args.seed)?;
    let model_path = dir.join("model.txt");
    model.freeze()?.save_to_path(&model_path)?;
    let data = generate(args.seed, STORE_ROWS)?;
    let labels: Vec<u16> = data
        .class
        .iter()
        .map(|&c| u16::try_from(c).expect("class ids fit u16"))
        .collect();
    let first_rows = default_chunk_rows().min(data.len());
    let first_x = data.x.slice_rows(0, first_rows)?;
    let expected_first: Vec<u64> = DeployedScorer::load_from_path(&model_path)?
        .anomaly_scores(&first_x)?
        .iter()
        .map(|s| s.to_bits())
        .collect();

    // Set-up: write the capture, open it, load the model.
    let store_path = dir.join("flows.cnds");
    let ((store, scorer), setup_s) = timed_setup(SETUP_REPS, || {
        let mut w = StoreWriter::create(&store_path, data.n_features(), DType::F64, true)?;
        w.push_matrix(&data.x, &labels)?;
        w.finalize()?;
        let store = FlowStore::open(&store_path)?;
        let scorer = DeployedScorer::load_from_path(&model_path)?;
        Ok((store, scorer))
    })?;
    let store_rows = store.len();
    drop((data, labels, first_x));

    let mut scores = vec![0.0f64; store_rows as usize];
    let mut bin_labels = vec![0u8; store_rows as usize];
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut out = Outcome::default();
    reset_peak_rss();
    let t0 = Instant::now();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    while passes.is_empty() || t0.elapsed() < budget {
        passes.push(pass(&store, &scorer, &mut scores, &mut bin_labels));
    }
    let peak = peak_rss_mib();
    let pass_pr_auc = pr_auc(&scores, &bin_labels).unwrap_or(0.0);
    if args.trace {
        let t1 = Instant::now();
        while traced.is_empty() || t1.elapsed() < budget {
            traced.push(traced_pass(&store, &scorer, tracer));
        }
    }

    // Output checks: every pass scores every row, the CRC holds (a
    // mismatch surfaces as an error from the final chunk), the first
    // chunk matches the in-memory scorer bit for bit, and every pass
    // produces the same scores. An operation is one chunk; a failed pass
    // fails all of its chunks, including those it never reached.
    let reference = passes[0].digest;
    let chunks_per_pass = store_rows.div_ceil(default_chunk_rows() as u64).max(1);
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for p in passes.iter().chain(&traced) {
        attempted += chunks_per_pass;
        let ok = p.error.is_none()
            && p.rows == store_rows
            && p.first_chunk == expected_first
            && p.digest == reference;
        if !ok {
            eprintln!(
                "score_store pass failed: rows {} of {store_rows}, error {:?}",
                p.rows, p.error
            );
            failed += chunks_per_pass;
        }
    }
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0;

    if !args.trace {
        let mut rates: Vec<f64> = passes.iter().map(|p| p.rows as f64 / p.seconds).collect();
        let mut job: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
        out.set("setup_s", setup_s);
        out.set("flows_per_s", median(&mut rates));
        let chunks = || passes.iter().map(|p| p.chunk_s.as_slice());
        out.set("lat_p50_us", median_of_quantiles(chunks(), 0.5) * 1e6);
        out.set("lat_p90_us", median_of_quantiles(chunks(), 0.9) * 1e6);
        out.set("job_s", median(&mut job));
        out.set("pr_auc", pass_pr_auc);
        out.set("peak_rss_mib", peak);
    } else {
        let reads = tracer.durations_s("store.read");
        let scored = tracer.durations_s("deploy.score");
        let traced_rows: u64 = traced.iter().map(|p| p.rows).sum();
        out.set(
            "store.read_ns_per_flow",
            reads.iter().sum::<f64>() * 1e9 / traced_rows.max(1) as f64,
        );
        out.set(
            "deploy.score_s",
            scored.iter().sum::<f64>() / traced.len().max(1) as f64,
        );
        let mut untraced_chunk: Vec<f64> = passes.iter().flat_map(|p| p.chunk_s.clone()).collect();
        let mut traced_chunk: Vec<f64> = traced.iter().flat_map(|p| p.chunk_s.clone()).collect();
        out.set(
            "bench.trace_overhead_pct",
            (median(&mut traced_chunk) / median(&mut untraced_chunk) - 1.0) * 100.0,
        );
        let batch = store.read_rows(0, default_chunk_rows().min(store_rows as usize))?;
        deploy_layers(&model, &batch.rows, &mut out, tracer)?;
    }
    Ok(out)
}
