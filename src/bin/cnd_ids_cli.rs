//! `cnd-ids-cli` — command-line interface to the CND-IDS reproduction.
//!
//! Subcommands:
//!
//! * `generate <profile> <out.csv> [--seed N] [--samples N]` — write a
//!   synthetic dataset replica to CSV (features..., label).
//! * `ingest <data.csv> <out.cnds> [--header] [--f32]` — convert a
//!   (possibly huge) CSV capture into the chunked binary `.cnds` flow
//!   store, streaming row by row; malformed rows are quarantined with
//!   line numbers and reasons (sidecar `<out>.quarantine`) rather than
//!   aborting the run.
//! * `run <data.csv> [--experiences M] [--seed N] [--paper]` — run the
//!   full continual protocol on a labelled CSV and print the result
//!   matrix and CL metrics.
//! * `train <data.csv|data.cnds> <model.txt> [--experiences M] [--seed N]`
//!   — train on the whole stream and persist a frozen scorer. With a
//!   `.cnds` store the training is out-of-core: rows stream through
//!   seeded reservoirs (`--clean-cap`, `--train-cap`) and only the
//!   sample is ever materialized.
//! * `score <model.txt> <data.csv|data.cnds> [--quantile Q]` — score a
//!   capture with a deployed model; prints one score (and alert flag)
//!   per line. A `.cnds` store is scored chunk-at-a-time with output
//!   byte-identical to the CSV path.
//! * `stream <data.csv> [--experiences M] [--seed N] [--chunk N]
//!   [--fault-rate R] [--health]` — drive the fault-tolerant streaming
//!   pipeline over the stream (optionally with seeded input corruption)
//!   and print pooled detection quality; `--health` appends the
//!   pipeline's final health report.
//! * `serve <model.txt> [--addr A] [--max-batch N] [--queue-cap N]
//!   [--threshold T | --quantile Q --calibrate N]
//!   [--watch [--watch-interval-ms MS]] [--no-telemetry]
//!   [--runtime-s S]`
//!   — serve the frozen model over the `cnd-serve` TCP wire protocol;
//!   each connection's reader scores the frames it has buffered as one
//!   batch (`--max-batch` caps it), with hot-swap reload and admission
//!   control (`--queue-cap` bounds in-flight rows across connections);
//!   `--no-telemetry` disables the per-stage lifecycle telemetry
//!   (rings + SLO tracking), which exists mainly to measure its own
//!   overhead. With
//!   `--continual --data <labelled.csv>` the process also runs the
//!   closed continual loop: live traffic is mirrored into a training
//!   buffer, score drift triggers a background retrain, candidates are
//!   shadow-validated against a held-out split, validated ones are
//!   canary-swapped in, and post-swap degradation rolls back to the
//!   last-known-good model (`--drift-window`, `--min-retrain`,
//!   `--probation` tune the loop). `--data` also accepts a `.cnds`
//!   store for an out-of-core bootstrap, and `--mirror-spill <out.cnds>`
//!   persists mirror-evicted flows to a store instead of dropping them.
//! * `loadgen <addr> [--flows N] [--concurrency C] [--rate R] [--seed N]
//!   [--reload-midway] [--tag T] [--out BENCH_serve.json] [--append]` —
//!   drive open-loop load against a running server and write a
//!   bench-check report with achieved flows/s and latency percentiles.
//! * `observe <trace.jsonl> [--top [N]] [--latency]` — validate a trace
//!   written by `--trace-out` (or `CND_OBS_OUT`) and print the
//!   phase-time breakdown; `--top` prints a self-time profile instead;
//!   `--latency` prints the latency-breakdown report (every hdr metric
//!   in the trace as count/mean/p50/p90/p99/p999/max).
//! * `bench-check <current> [--baseline <path>] [--update]
//!   [--tolerance T]` — compare a bench report or quality trace against
//!   a committed baseline under `baselines/` and exit non-zero on
//!   regression; `--update` (re)writes the baseline instead.
//! * `profiles` — list the built-in dataset profiles.
//!
//! Observability: setting `CND_OBS=1` (wall clock) or `CND_OBS=det`
//! (deterministic clock) — or passing `--trace-out <path>` to any
//! subcommand — records spans and metrics via `cnd-obs`. `--trace-out`
//! writes the JSONL trace to the given path; with `CND_OBS` alone a
//! summary table is printed to stderr (and the trace goes to
//! `CND_OBS_OUT` when that is set). Setting `CND_OBS_LISTEN=<addr>`
//! additionally serves live Prometheus `/metrics` and JSON `/health`
//! over HTTP for the lifetime of the process.
//!
//! Store chunks: `train`, `score` and `serve --continual` read a `.cnds`
//! store in slabs of `CND_STORE_CHUNK_ROWS` rows (default 8192).
//!
//! Exit code is non-zero on any error, including a `--` flag the
//! subcommand does not read (`--trace-out` is accepted everywhere);
//! messages go to stderr.

use std::io::Write as _;
use std::process::ExitCode;

use cnd_core::deploy::DeployedScorer;
use cnd_core::runner::evaluate_continual;
use cnd_core::{CndIds, CndIdsConfig};
use cnd_datasets::{continual, loader, DatasetProfile, GeneratorConfig};
use cnd_metrics::threshold::{apply_threshold, quantile_threshold};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = match parse_flag::<String>(&args, "--trace-out", String::new()) {
        Ok(s) if s.is_empty() => None,
        Ok(s) => Some(std::path::PathBuf::from(s)),
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let env_enabled = cnd_obs::init_from_env();
    if trace_out.is_some() && !env_enabled {
        cnd_obs::reset(cnd_obs::ClockKind::Wall);
        cnd_obs::set_enabled(true);
    }
    // Keep the exporter (if CND_OBS_LISTEN is set) alive until exit.
    let _exporter = cnd_obs::init_exporter_from_env();
    match run(&args) {
        Ok(code) => {
            if let Err(msg) = finish_observability(trace_out.as_deref(), env_enabled) {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
            code
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Writes/flushes the recorded trace after a successful run: `--trace-out`
/// gets the JSONL file, `CND_OBS_OUT` is honoured, and a plain `CND_OBS`
/// run prints the phase/metric summary to stderr.
fn finish_observability(
    trace_out: Option<&std::path::Path>,
    env_enabled: bool,
) -> Result<(), String> {
    if !cnd_obs::enabled() {
        return Ok(());
    }
    if let Some(path) = trace_out {
        cnd_obs::write_jsonl(path).map_err(|e| format!("--trace-out {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    if let Some(path) = cnd_obs::flush_to_env_path().map_err(|e| format!("CND_OBS_OUT: {e}"))? {
        eprintln!("trace written to {}", path.display());
    }
    if env_enabled {
        eprint!("{}", cnd_obs::summary());
    }
    Ok(())
}

const USAGE: &str = "usage:
  cnd-ids-cli profiles
  cnd-ids-cli generate <profile> <out.csv> [--seed N] [--samples N]
  cnd-ids-cli ingest <data.csv> <out.cnds> [--header] [--f32]
  cnd-ids-cli run <data.csv> [--experiences M] [--seed N] [--paper]
  cnd-ids-cli train <data.csv|data.cnds> <model.txt> [--experiences M] [--seed N] [--clean-cap N] [--train-cap N]
  cnd-ids-cli score <model.txt> <data.csv|data.cnds> [--quantile Q]
  cnd-ids-cli stream <data.csv> [--experiences M] [--seed N] [--chunk N] [--fault-rate R] [--health]
  cnd-ids-cli serve <model.txt> [--addr 127.0.0.1:7071] [--max-batch N] [--queue-cap N] [--threshold T] [--quantile Q] [--calibrate N] [--watch] [--watch-interval-ms MS] [--no-telemetry] [--runtime-s S] [--continual --data <labelled.csv|.cnds> [--experiences M] [--seed N] [--drift-window N] [--min-retrain N] [--probation N] [--ledger <path>] [--flight-dump <path>] [--mirror-spill <out.cnds>]]
  cnd-ids-cli loadgen <addr> [--flows N] [--concurrency C] [--rate R] [--seed N] [--reload-midway] [--tag T] [--out <path>] [--append]
  cnd-ids-cli observe <trace.jsonl> [--top [N]] [--latency] [--timeline]
  cnd-ids-cli bench-check <current> [--baseline <path>] [--update] [--tolerance T]

observability: every subcommand accepts --trace-out <path> to record a
span/metric trace; CND_OBS=1 (wall) or CND_OBS=det (deterministic)
enables tracing with a stderr summary, CND_OBS_OUT=<path> writes JSONL,
CND_OBS_LISTEN=<addr> serves live /metrics (Prometheus) and /health.
CND_STORE_CHUNK_ROWS=N sets the rows per .cnds read slab (default 8192).";

/// Per subcommand: the flags that take a value, then the switches.
/// `--trace-out <path>` is accepted by every subcommand.
const FLAGS: &[(&str, &[&str], &[&str])] = &[
    ("profiles", &[], &[]),
    ("generate", &["--seed", "--samples"], &[]),
    ("ingest", &[], &["--header", "--f32"]),
    ("run", &["--experiences", "--seed"], &["--paper"]),
    (
        "train",
        &["--experiences", "--seed", "--clean-cap", "--train-cap"],
        &[],
    ),
    ("score", &["--quantile"], &[]),
    (
        "stream",
        &["--experiences", "--seed", "--chunk", "--fault-rate"],
        &["--health"],
    ),
    (
        "serve",
        &[
            "--addr",
            "--max-batch",
            "--queue-cap",
            "--threshold",
            "--quantile",
            "--calibrate",
            "--watch-interval-ms",
            "--runtime-s",
            "--data",
            "--experiences",
            "--seed",
            "--drift-window",
            "--min-retrain",
            "--probation",
            "--ledger",
            "--flight-dump",
            "--mirror-spill",
        ],
        &["--watch", "--no-telemetry", "--continual"],
    ),
    (
        "loadgen",
        &[
            "--flows",
            "--concurrency",
            "--rate",
            "--seed",
            "--tag",
            "--out",
        ],
        &["--reload-midway", "--append"],
    ),
    ("observe", &[], &["--top", "--latency", "--timeline"]),
    ("bench-check", &["--baseline", "--tolerance"], &["--update"]),
];

/// Rejects any `--` token `sub` does not declare in [`FLAGS`]; the token
/// after a value flag is its value and is not checked.
fn check_flags(sub: &str, args: &[String]) -> Result<(), String> {
    let Some((_, values, switches)) = FLAGS.iter().find(|(name, ..)| *name == sub) else {
        return Ok(());
    };
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        let flag = token.as_str();
        if flag == "--trace-out" || values.contains(&flag) {
            tokens.next();
        } else if flag.starts_with("--") && !switches.contains(&flag) {
            return Err(format!("unknown flag {flag:?} for {sub}"));
        }
    }
    Ok(())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("{name} requires a value")),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v:?}")),
        },
    }
}

fn profile_by_name(name: &str) -> Result<DatasetProfile, String> {
    DatasetProfile::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown profile {name:?}; choose one of: {}",
                DatasetProfile::ALL.map(|p| p.name()).join(", ")
            )
        })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let rest = args.get(1..).unwrap_or_default();
    if let Some(sub) = args.first() {
        check_flags(sub, rest)?;
    }
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match args.first().map(String::as_str) {
        Some("profiles") => {
            for p in DatasetProfile::ALL {
                println!(
                    "{:<12} {} features, {} attack classes, {} experiences, {:.1}% attack",
                    p.name(),
                    p.n_features(),
                    p.n_attack_classes(),
                    p.default_experiences(),
                    100.0 * p.attack_fraction()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("generate") => done(cmd_generate(rest)),
        Some("ingest") => done(cmd_ingest(rest)),
        Some("run") => done(cmd_run(rest)),
        Some("train") => done(cmd_train(rest)),
        Some("score") => done(cmd_score(rest)),
        Some("stream") => done(cmd_stream(rest)),
        Some("serve") => done(cmd_serve(rest)),
        Some("loadgen") => cmd_loadgen(rest),
        Some("observe") => done(cmd_observe(rest)),
        Some("bench-check") => cmd_bench_check(rest),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => Err("no subcommand given".into()),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let profile = profile_by_name(args.first().ok_or("generate: missing <profile>")?)?;
    let out = args.get(1).ok_or("generate: missing <out.csv>")?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let samples: usize = parse_flag(args, "--samples", 12_000)?;
    let cfg = GeneratorConfig {
        total_samples: samples,
        ..GeneratorConfig::standard(seed)
    };
    let data = profile.generate(&cfg).map_err(|e| e.to_string())?;
    let mut f = std::fs::File::create(out).map_err(|e| e.to_string())?;
    for (row, &class) in data.x.iter_rows().zip(&data.class) {
        let mut line = String::with_capacity(row.len() * 12);
        for v in row {
            line.push_str(&format!("{v:.6},"));
        }
        line.push_str(&data.class_names[class]);
        writeln!(f, "{line}").map_err(|e| e.to_string())?;
    }
    eprintln!(
        "wrote {} rows x {} features ({} attack classes) to {out}",
        data.len(),
        data.n_features(),
        data.n_attack_classes()
    );
    Ok(())
}

fn load_and_split(
    path: &str,
    args: &[String],
) -> Result<(cnd_datasets::Dataset, continual::ContinualSplit, u64), String> {
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let data = loader::read_csv(path, false).map_err(|e| e.to_string())?;
    let default_m = data.n_attack_classes().clamp(2, 5);
    let m: usize = parse_flag(args, "--experiences", default_m)?;
    let split = continual::prepare(&data, m, 0.7, seed).map_err(|e| e.to_string())?;
    Ok((data, split, seed))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("run: missing <data.csv>")?;
    let (data, split, seed) = load_and_split(path, args)?;
    let cfg = if args.iter().any(|a| a == "--paper") {
        CndIdsConfig::paper(seed)
    } else {
        CndIdsConfig::fast(seed)
    };
    let mut model = CndIds::new(cfg, &split.clean_normal).map_err(|e| e.to_string())?;
    let out = evaluate_continual(&mut model, &split).map_err(|e| e.to_string())?;
    println!("dataset: {} ({} rows)", data.name, data.len());
    println!("result matrix R_ij (train i rows, test j cols):");
    let m = split.len();
    for i in 0..m {
        let cells: Vec<String> = (0..m)
            .map(|j| format!("{:.3}", out.f1_matrix.get(i, j)))
            .collect();
        println!("  E{i}: {}", cells.join("  "));
    }
    let s = out.f1_matrix.summary();
    println!(
        "AVG = {:.3}  FwdTrans = {:.3}  BwdTrans = {:+.3}",
        s.avg, s.fwd_trans, s.bwd_trans
    );
    if let Some(ap) = out.final_pr_auc() {
        println!("PR-AUC = {ap:.3}");
    }
    Ok(())
}

/// Converts a CSV capture into the chunked binary `.cnds` flow store
/// the out-of-core train/score paths consume.
fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let csv = args.first().ok_or("ingest: missing <data.csv>")?;
    let out = args.get(1).ok_or("ingest: missing <out.cnds>")?;
    let options = cnd_datasets::IngestOptions {
        // The CLI's CSV convention is headerless (matching `generate`,
        // `train`, and `score`); `--header` opts in to skipping line 1.
        // The safe failure mode is preserved either way: an unskipped
        // header is quarantined loudly, never silently dropped.
        has_header: args.iter().any(|a| a == "--header"),
        dtype: if args.iter().any(|a| a == "--f32") {
            cnd_store::DType::F32
        } else {
            cnd_store::DType::F64
        },
    };
    let report =
        cnd_datasets::ingest_csv_to_store(csv, out, &options).map_err(|e| e.to_string())?;
    eprintln!(
        "ingested {} rows x {} features ({} classes, {:?}) into {out}",
        report.rows_written,
        report.meta.dim,
        report.class_names.len(),
        report.meta.dtype,
    );
    if report.rows_quarantined > 0 {
        eprintln!(
            "quarantined {} malformed rows — see {}",
            report.rows_quarantined,
            report
                .sidecar
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
        for q in &report.quarantined {
            eprintln!("  line {}: {}", q.line, q.reason);
        }
        if report.rows_quarantined as usize > report.quarantined.len() {
            eprintln!(
                "  ... and {} more (full list in the sidecar)",
                report.rows_quarantined as usize - report.quarantined.len()
            );
        }
    }
    Ok(())
}

/// `true` when a data path names a `.cnds` flow store rather than a CSV.
fn is_store_path(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("cnds"))
}

/// Out-of-core `train`: stream the store through seeded reservoirs and
/// run one experience on the sample (see `cnd_core::outofcore`).
fn cmd_train_from_store(path: &str, model_out: &str, args: &[String]) -> Result<(), String> {
    use cnd_core::outofcore::{train_from_store, OutOfCoreTrainConfig};

    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let store = cnd_store::FlowStore::open(path).map_err(|e| e.to_string())?;
    let mut cfg = OutOfCoreTrainConfig::new(CndIdsConfig::fast(seed));
    cfg.seed = seed;
    cfg.clean_capacity = parse_flag(args, "--clean-cap", cfg.clean_capacity)?;
    cfg.train_capacity = parse_flag(args, "--train-cap", cfg.train_capacity)?;
    let report = train_from_store(&store, &cfg).map_err(|e| e.to_string())?;
    let scorer = report.model.freeze().map_err(|e| e.to_string())?;
    scorer.save_to_path(model_out).map_err(|e| e.to_string())?;
    eprintln!(
        "streamed {} rows ({} clean candidates); trained on {} sampled rows (N_c {}); scorer written to {model_out}",
        report.rows_streamed, report.clean_candidates, report.train_sampled, report.clean_sampled
    );
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("train: missing <data.csv|data.cnds>")?;
    let model_out = args.get(1).ok_or("train: missing <model.txt>")?;
    if is_store_path(path) {
        return cmd_train_from_store(path, model_out, args);
    }
    let (_, split, seed) = load_and_split(path, args)?;
    let mut model =
        CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal).map_err(|e| e.to_string())?;
    for e in &split.experiences {
        model
            .train_experience(&e.train_x)
            .map_err(|e| e.to_string())?;
    }
    let scorer = DeployedScorer::from_model(&model).map_err(|e| e.to_string())?;
    // Atomic tmp+rename write: a concurrent `serve --watch` reloader
    // can never observe a half-written artifact.
    scorer.save_to_path(model_out).map_err(|e| e.to_string())?;
    eprintln!(
        "trained on {} experiences; scorer written to {model_out}",
        split.len()
    );
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    use cnd_core::resilience::{ResilientConfig, ResilientStreamingCndIds, ScriptedFaults};
    use cnd_core::runner::evaluate_resilient_streaming;
    use cnd_core::streaming::EventKind;

    let path = args.first().ok_or("stream: missing <data.csv>")?;
    let (data, split, seed) = load_and_split(path, args)?;
    let chunk: usize = parse_flag(args, "--chunk", 128)?;
    let fault_rate: f64 = parse_flag(args, "--fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("--fault-rate must be in [0, 1], got {fault_rate}"));
    }
    let model =
        CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal).map_err(|e| e.to_string())?;
    let mut stream = ResilientStreamingCndIds::new(model, ResilientConfig::default())
        .map_err(|e| e.to_string())?;
    if fault_rate > 0.0 {
        stream.set_fault_injector(Box::new(
            ScriptedFaults::new(seed).with_corruption_rate(fault_rate),
        ));
    }
    let out =
        evaluate_resilient_streaming(&mut stream, &split, chunk).map_err(|e| e.to_string())?;
    println!("dataset: {} ({} rows)", data.name, data.len());
    println!(
        "stream:  {} experiences trained, {} failed attempts, fault rate {fault_rate}",
        out.status.count(EventKind::Trained),
        out.status.count(EventKind::TrainerFailed)
    );
    println!("pooled best-F F1 = {:.3}", out.pooled_f1);
    if let Some(ap) = out.pr_auc {
        println!("pooled PR-AUC   = {ap:.3}");
    }
    if args.iter().any(|a| a == "--health") {
        println!("health report:");
        for line in out.status.to_string().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

/// In `--continual` mode: train the bootstrap model from the labelled
/// CSV, write its frozen scorer to `model_path` (the artifact the
/// server will serve and the loop will re-write on every swap), and
/// build the held-out validation set the shadow gate scores candidates
/// against.
/// `--continual --data <store.cnds>`: bootstrap out-of-core. The model
/// trains from reservoir samples streamed off the store, and the
/// store's trailing rows (with their labels) become the shadow
/// validation set — nothing larger than a chunk plus the reservoirs is
/// ever resident.
fn continual_bootstrap_from_store(
    model_path: &str,
    data_path: &str,
    args: &[String],
) -> Result<(CndIds, cnd_serve::ValidationSet), String> {
    use cnd_core::outofcore::{train_from_store, OutOfCoreTrainConfig};

    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let store = cnd_store::FlowStore::open(data_path).map_err(|e| e.to_string())?;
    if !store.meta().labelled {
        return Err(format!(
            "serve --continual with {data_path} needs a labelled store (shadow validation requires labels; re-ingest the CSV with its label column)"
        ));
    }
    let mut cfg = OutOfCoreTrainConfig::new(CndIdsConfig::fast(seed));
    cfg.seed = seed;
    let report = train_from_store(&store, &cfg).map_err(|e| e.to_string())?;
    let val_len = (store.len() as usize).min(2048);
    let chunk = store
        .read_rows(store.len() as usize - val_len, val_len)
        .map_err(|e| e.to_string())?;
    let val_y: Vec<u8> = chunk.labels.iter().map(|&l| u8::from(l != 0)).collect();
    let val = cnd_serve::ValidationSet::new(chunk.rows, val_y).map_err(|e| e.to_string())?;
    let scorer = report.model.freeze().map_err(|e| e.to_string())?;
    scorer.save_to_path(model_path).map_err(|e| e.to_string())?;
    eprintln!(
        "continual bootstrap (out-of-core): streamed {} rows from {data_path}, trained on {} sampled rows (N_c {}), {} validation rows; artifact written to {model_path}",
        report.rows_streamed,
        report.train_sampled,
        report.clean_sampled,
        val.len()
    );
    Ok((report.model, val))
}

fn continual_bootstrap(
    model_path: &str,
    args: &[String],
) -> Result<(CndIds, cnd_serve::ValidationSet), String> {
    let data_path: String = parse_flag(args, "--data", String::new())?;
    if data_path.is_empty() {
        return Err("serve --continual requires --data <labelled.csv|.cnds> (bootstrap + shadow validation come from it)".into());
    }
    if is_store_path(&data_path) {
        return continual_bootstrap_from_store(model_path, &data_path, args);
    }
    let (_, split, seed) = load_and_split(&data_path, args)?;
    let mut model =
        CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal).map_err(|e| e.to_string())?;
    let mut val_rows: Vec<Vec<f64>> = Vec::new();
    let mut val_y: Vec<u8> = Vec::new();
    for e in &split.experiences {
        model
            .train_experience(&e.train_x)
            .map_err(|e| e.to_string())?;
        for (row, &y) in e.test_x.iter_rows().zip(&e.test_y) {
            val_rows.push(row.to_vec());
            val_y.push(y);
        }
    }
    let val_x = cnd_linalg::Matrix::from_rows(&val_rows).map_err(|e| e.to_string())?;
    let val = cnd_serve::ValidationSet::new(val_x, val_y).map_err(|e| e.to_string())?;
    let scorer = model.freeze().map_err(|e| e.to_string())?;
    scorer.save_to_path(model_path).map_err(|e| e.to_string())?;
    eprintln!(
        "continual bootstrap: trained on {} experiences from {data_path}, {} validation rows; artifact written to {model_path}",
        split.len(),
        val.len()
    );
    Ok((model, val))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use cnd_serve::{ContinualConfig, ContinualController, ServeConfig, Server, TrafficMirror};

    let model_path = args.first().ok_or("serve: missing <model.txt>")?;
    let addr: String = parse_flag(args, "--addr", "127.0.0.1:7071".to_string())?;
    let threshold: f64 = parse_flag(args, "--threshold", f64::NAN)?;
    let watch_interval_ms: u64 = parse_flag(args, "--watch-interval-ms", 500)?;
    let runtime_s: u64 = parse_flag(args, "--runtime-s", 0)?;
    let continual = args.iter().any(|a| a == "--continual");

    // In continual mode the loop owns the trainable model and the
    // artifact on disk; bootstrap both before the server opens.
    let bootstrap = if continual {
        Some(continual_bootstrap(model_path, args)?)
    } else {
        None
    };
    let mirror = match &bootstrap {
        Some((model, _)) => {
            let spill: String = parse_flag(args, "--mirror-spill", String::new())?;
            Some(if spill.is_empty() {
                TrafficMirror::new(8192)
            } else {
                // Evicted mirror samples spill to a .cnds store instead
                // of vanishing, so the replay window effectively covers
                // the whole run for post-hoc analysis or re-training.
                let dim = model.scaler().mean().len();
                let writer =
                    cnd_store::StoreWriter::create(&spill, dim, cnd_store::DType::F64, false)
                        .map_err(|e| e.to_string())?;
                eprintln!("mirror evictions spill to {spill}");
                TrafficMirror::with_spill(8192, writer)
            })
        }
        None => None,
    };
    let mirror_handle = mirror.clone();

    let cfg = ServeConfig {
        max_batch: parse_flag(args, "--max-batch", 64)?,
        queue_cap: parse_flag(args, "--queue-cap", 1024)?,
        threshold: if threshold.is_nan() {
            None
        } else {
            Some(threshold)
        },
        quantile: parse_flag(args, "--quantile", 0.95)?,
        calibrate: parse_flag(args, "--calibrate", 512)?,
        watch: args
            .iter()
            .any(|a| a == "--watch")
            .then(|| std::time::Duration::from_millis(watch_interval_ms.max(10))),
        mirror: mirror.clone(),
        telemetry: !args.iter().any(|a| a == "--no-telemetry"),
    };
    // Make sure the counters the server records are live so a
    // CND_OBS_LISTEN /metrics scrape always sees them.
    if !cnd_obs::enabled() {
        cnd_obs::reset(cnd_obs::ClockKind::Wall);
        cnd_obs::set_enabled(true);
    }
    let server = Server::start(model_path, &addr, cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {model_path} (model v{}) on {} — protocol v{}",
        server.model_version(),
        server.local_addr(),
        cnd_serve::protocol::PROTOCOL_VERSION
    );

    let mut controller = match (bootstrap, mirror) {
        (Some((model, val)), Some(mirror)) => {
            let ccfg = ContinualConfig {
                drift_window: parse_flag(args, "--drift-window", 256)?,
                min_retrain_samples: parse_flag(args, "--min-retrain", 256)?,
                probation_samples: parse_flag(args, "--probation", 128)?,
                ..ContinualConfig::default()
            };
            let mut c =
                ContinualController::new(ccfg, model, val, mirror).map_err(|e| e.to_string())?;
            // Forensics: mirror every lifecycle disposition to an
            // append-only hash-chained ledger, and arm the crash
            // flight recorder so a panic or watchdog rollback leaves
            // a postmortem dump behind.
            let ledger_path = parse_flag::<String>(args, "--ledger", String::new())?;
            if !ledger_path.is_empty() {
                c.set_ledger_path(std::path::Path::new(&ledger_path))
                    .map_err(|e| format!("--ledger {ledger_path}: {e}"))?;
                eprintln!("provenance ledger at {ledger_path}");
            }
            let flight_path = parse_flag::<String>(args, "--flight-dump", String::new())?;
            if !flight_path.is_empty() {
                cnd_obs::flight::set_dump_path(Some(std::path::Path::new(&flight_path)));
                eprintln!("flight recorder dumps to {flight_path}");
            }
            cnd_obs::flight::install_panic_hook();
            eprintln!(
                "continual loop armed: drift window {}, min retrain {}, probation {}",
                parse_flag::<usize>(args, "--drift-window", 256)?,
                parse_flag::<usize>(args, "--min-retrain", 256)?,
                parse_flag::<usize>(args, "--probation", 128)?,
            );
            Some(c)
        }
        _ => None,
    };

    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(if controller.is_some() {
            100
        } else {
            200
        }));
        if let Some(c) = controller.as_mut() {
            for event in c.step(&server) {
                eprintln!("continual: {event}");
            }
        }
        if runtime_s > 0 && started.elapsed() >= std::time::Duration::from_secs(runtime_s) {
            break;
        }
    }
    if let Some(c) = controller.as_ref() {
        eprintln!("continual loop: state {}", c.state_name());
        for line in c.status().to_string().lines() {
            eprintln!("  {line}");
        }
    }
    let stats = server.shutdown();
    if let Some(m) = &mirror_handle {
        if let Some(meta) = m.finish_spill() {
            eprintln!(
                "mirror spill finalized: {} evicted flows persisted",
                meta.count
            );
        }
    }
    eprintln!(
        "served {} flows in {} batches (accepted {}, shed {}, bad frames {}, reloads {}); final model v{}",
        stats.scored,
        stats.batches,
        stats.accepted,
        stats.shed,
        stats.bad_frames,
        stats.reloads,
        stats.model_version
    );
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<ExitCode, String> {
    use cnd_obs::baseline::extract_metrics;
    use cnd_serve::{run_loadgen, LoadGenConfig};
    use std::net::ToSocketAddrs as _;

    let addr_str = args.first().ok_or("loadgen: missing <addr>")?;
    let addr = addr_str
        .to_socket_addrs()
        .map_err(|e| format!("loadgen: bad address {addr_str:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("loadgen: address {addr_str:?} resolved to nothing"))?;
    let cfg = LoadGenConfig {
        flows: parse_flag(args, "--flows", 5000)?,
        concurrency: parse_flag(args, "--concurrency", 4)?,
        rate: parse_flag(args, "--rate", 0.0)?,
        seed: parse_flag(args, "--seed", 1)?,
        reload_midway: args.iter().any(|a| a == "--reload-midway"),
    };
    let tag: String = parse_flag(args, "--tag", "serve".to_string())?;
    let out: String = parse_flag(args, "--out", "BENCH_serve.json".to_string())?;

    let report = run_loadgen(addr, &cfg).map_err(|e| e.to_string())?;
    println!(
        "sent {} flows in {:.2}s -> {:.0} flows/s (ok {}, shed {}, bad {}, transport errors {})",
        report.sent,
        report.elapsed_s,
        report.flows_per_s,
        report.ok,
        report.shed,
        report.bad_request,
        report.transport_errors
    );
    println!("{}", report.latency_summary());
    println!(
        "accept ratio = {:.3}  alerts = {}",
        report.accept_ratio(),
        report.alerts
    );
    if report.reconnects_per_worker.iter().any(|&r| r > 0) {
        println!("reconnects per worker: {:?}", report.reconnects_per_worker);
    }
    if let Some(v) = report.reload_version {
        println!(
            "midway hot-swap -> model v{v}; versions seen in replies: {:?}",
            report.versions_seen
        );
    }

    // Merge with an existing report when --append is given, so batched
    // and single-row runs can share one bench-check artifact.
    let mut metrics = std::collections::BTreeMap::new();
    if args.iter().any(|a| a == "--append") {
        if let Ok(text) = std::fs::read_to_string(&out) {
            metrics = extract_metrics(&text).map_err(|e| format!("{out}: {e}"))?;
        }
    }
    for (name, value) in report.bench_metrics(&tag) {
        metrics.insert(name, value);
    }
    let mut json = String::from("{\n  \"benchcheck\": 1,\n  \"metrics\": {\n");
    let n = metrics.len();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("bench report written to {out}");

    if report.transport_errors > 0 {
        eprintln!(
            "loadgen: {} accepted requests lost",
            report.transport_errors
        );
        return Ok(ExitCode::FAILURE);
    }
    if report.ok == 0 {
        eprintln!("loadgen: no flows were scored");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_observe(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("observe: missing <trace.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines =
        cnd_obs::trace::validate_jsonl(&text).map_err(|e| format!("{path}: invalid trace: {e}"))?;
    let report = cnd_obs::phase_report(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "trace: {path} ({lines} lines, schema v{})",
        cnd_obs::trace::TRACE_VERSION
    );
    if args.iter().any(|a| a == "--timeline") {
        // Causal timeline: continual-loop events grouped by cycle id
        // into detect → retrain → validate → swap → probation chains.
        let tl = cnd_obs::timeline_report(&text).map_err(|e| format!("{path}: {e}"))?;
        if tl.chains.is_empty() {
            println!("no continual events in this trace");
        } else {
            print!("{}", tl.render());
        }
        return Ok(());
    }
    if args.iter().any(|a| a == "--latency") {
        // Latency-breakdown report: every hdr metric in the trace
        // (per-stage serving latencies, reload times, ...) as a
        // count/mean/percentile table.
        let lat = cnd_obs::latency_report(&text).map_err(|e| format!("{path}: {e}"))?;
        if lat.rows.is_empty() {
            println!("no hdr latency metrics in this trace");
        } else {
            print!("{}", lat.render());
        }
        return Ok(());
    }
    match args.iter().position(|a| a == "--top") {
        None => print!("{}", report.render()),
        Some(i) => {
            // --top takes an optional count; default to the ten hottest spans.
            let limit = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v
                    .parse()
                    .map_err(|_| format!("invalid value for --top: {v:?}"))?,
                _ => 10,
            };
            print!("{}", report.render_top(limit));
        }
    }
    Ok(())
}

fn cmd_bench_check(args: &[String]) -> Result<ExitCode, String> {
    use cnd_obs::baseline::{compare, extract_metrics, render_baseline};

    let current_path = args.first().ok_or("bench-check: missing <current>")?;
    let baseline_path = match parse_flag::<String>(args, "--baseline", String::new())? {
        s if s.is_empty() => {
            let stem = std::path::Path::new(current_path)
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| {
                    format!("bench-check: cannot derive a stem from {current_path:?}")
                })?;
            std::path::PathBuf::from("baselines").join(format!("{stem}.json"))
        }
        s => std::path::PathBuf::from(s),
    };
    let text = std::fs::read_to_string(current_path).map_err(|e| format!("{current_path}: {e}"))?;
    let current = extract_metrics(&text).map_err(|e| format!("{current_path}: {e}"))?;

    if args.iter().any(|a| a == "--update") {
        if let Some(dir) = baseline_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(&baseline_path, render_baseline(&current))
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        eprintln!(
            "baseline updated: {} ({} metrics)",
            baseline_path.display(),
            current.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let tolerance = match parse_flag::<f64>(args, "--tolerance", f64::NAN)? {
        t if t.is_nan() => None,
        t if t >= 0.0 => Some(t),
        t => return Err(format!("--tolerance must be >= 0, got {t}")),
    };
    let base_text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "{}: {e} (run `cnd-ids-cli bench-check {current_path} --update` to create it)",
            baseline_path.display()
        )
    })?;
    let baseline =
        extract_metrics(&base_text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let report = compare(&current, &baseline, tolerance);
    print!("{}", report.render());
    if report.passed {
        Ok(ExitCode::SUCCESS)
    } else {
        // A genuine regression is not a usage error: report it plainly
        // (no usage blurb) and let CI fail on the exit code.
        eprintln!(
            "bench-check: regression against {}",
            baseline_path.display()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_score(args: &[String]) -> Result<(), String> {
    let model_path = args.first().ok_or("score: missing <model.txt>")?;
    let data_path = args.get(1).ok_or("score: missing <data.csv|data.cnds>")?;
    let quantile: f64 = parse_flag(args, "--quantile", 0.95)?;
    let scorer = DeployedScorer::load_from_path(model_path).map_err(|e| e.to_string())?;
    let scores = if is_store_path(data_path) {
        // Out-of-core: stream the store one chunk at a time. Scoring is
        // row-independent, so the scores (and therefore the printed
        // output) are byte-identical to the in-memory CSV path.
        let store = cnd_store::FlowStore::open(data_path).map_err(|e| e.to_string())?;
        if store.meta().dim != scorer.n_features() {
            return Err(format!(
                "model expects {} features but store has {}",
                scorer.n_features(),
                store.meta().dim
            ));
        }
        let mut scores = Vec::with_capacity(store.len() as usize);
        let chunks = store
            .chunks(cnd_store::default_chunk_rows())
            .map_err(|e| e.to_string())?;
        for part in scorer.score_chunks(chunks) {
            scores.extend(part.map_err(|e| e.to_string())?.scores);
        }
        scores
    } else {
        let data = loader::read_csv(data_path, false).map_err(|e| e.to_string())?;
        if data.n_features() != scorer.n_features() {
            return Err(format!(
                "model expects {} features but data has {}",
                scorer.n_features(),
                data.n_features()
            ));
        }
        scorer.anomaly_scores(&data.x).map_err(|e| e.to_string())?
    };
    // Calibrate on the lower bulk of the scored data itself (no labels).
    let tau = quantile_threshold(&scores, quantile).map_err(|e| e.to_string())?;
    let alerts = apply_threshold(&scores, tau);
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    for (s, a) in scores.iter().zip(&alerts) {
        writeln!(w, "{s:.6}\t{}", if *a != 0 { "ALERT" } else { "ok" })
            .map_err(|e| e.to_string())?;
    }
    let n_alerts: usize = alerts.iter().map(|&a| a as usize).sum();
    eprintln!("{n_alerts}/{} flows flagged (tau = {tau:.4})", alerts.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_exactly_the_declared_flags() {
        for (sub, values, switches) in FLAGS {
            let line = USAGE
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(sub))
                .unwrap_or_else(|| panic!("no usage line for {sub}"));
            let mut listed: Vec<&str> = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|t| t.starts_with("--"))
                .collect();
            let mut declared: Vec<&str> = values.iter().chain(switches.iter()).copied().collect();
            listed.sort_unstable();
            declared.sort_unstable();
            assert_eq!(listed, declared, "usage of {sub}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_and_values_are_skipped() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(check_flags("serve", &args(&["m.txt", "--max-batch", "8"])).is_ok());
        assert!(check_flags("serve", &args(&["m.txt", "--data", "--odd.csv"])).is_ok());
        assert!(check_flags("run", &args(&["d.csv", "--trace-out", "t.jsonl"])).is_ok());
        assert_eq!(
            check_flags("serve", &args(&["m.txt", "--max-batc", "8"])),
            Err("unknown flag \"--max-batc\" for serve".to_string())
        );
        assert!(check_flags("generate", &args(&["WUSTL-IIoT", "x.csv", "--paper"])).is_err());
    }
}
