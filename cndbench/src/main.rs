//! End-to-end and per-layer benchmark of CND-IDS.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path cndbench/Cargo.toml -- \
//!     --workload <serve_pipelined|serve_paced|score_store|continual_train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets itself up
//! several times (the median is `setup_s`), measures for `--seconds`,
//! checks the program's outputs, and prints one JSON object as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload once untraced and once with spans around
//! every layer call and reports the per-layer metrics. See README.md.

mod layers;
mod serve;
mod stats;
mod store;
mod trace;
mod train;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use cnd_core::{CndIds, CndIdsConfig};
use cnd_datasets::continual::{self, ContinualSplit};
use cnd_datasets::{Dataset, DatasetProfile, GeneratorConfig};

/// Dataset replica every workload draws its flows from (paper Table I).
pub const PROFILE: DatasetProfile = DatasetProfile::XIiotId;
/// Experiences in the continual split (the paper's X-IIoTID setting).
pub const EXPERIENCES: usize = 5;
/// Within-experience train fraction used by the CLI and the runner.
pub const TRAIN_FRACTION: f64 = 0.7;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("flows_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("job_s", "s"),
    ("pr_auc", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("server.parse_p50_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("server.batch_form_p50_us", "us"),
    ("server.score_p50_us", "us"),
    ("server.write_p50_us", "us"),
    ("server.total_p50_us", "us"),
    ("server.queue_depth_p50", "count"),
    ("server.telemetry_dropped", "count"),
    ("server.batch_rows_mean", "count"),
    ("client.outside_server_p50_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.gen_late_p90_us", "us"),
    ("registry.reload_p50_us", "us"),
    ("server.start_us", "us"),
    ("deploy.scaler_ns_per_flow", "ns"),
    ("deploy.encoder_ns_per_flow", "ns"),
    ("deploy.pca_ns_per_flow", "ns"),
    ("deploy.encoder_gflops", "GFLOP/s"),
    ("parallel.encoder_speedup", "ratio"),
    ("store.read_ns_per_flow", "ns"),
    ("cfe.pseudo_labels_s", "s"),
    ("cfe.train_s", "s"),
    ("cfe.encode_s", "s"),
    ("pca.fit_s", "s"),
    ("deploy.score_s", "s"),
    ("metrics.threshold_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Boxed error for fixture and set-up failures (the run then exits
/// non-zero without printing a result).
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one run reports: output checks, operation accounting, and the
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Generates the seeded X-IIoTID replica with `samples` flows.
pub fn generate(seed: u64, samples: usize) -> Result<Dataset, BenchError> {
    let cfg = GeneratorConfig {
        total_samples: samples,
        ..GeneratorConfig::standard(seed)
    };
    Ok(PROFILE.generate(&cfg)?)
}

/// The 5-experience continual split `cnd train` and `cnd run` build.
pub fn split(data: &Dataset, seed: u64) -> Result<ContinualSplit, BenchError> {
    Ok(continual::prepare(data, EXPERIENCES, TRAIN_FRACTION, seed)?)
}

/// Trains the model `cnd train` would write for this seed: the fast
/// config through every experience of the standard-size replica.
pub fn train_fixture_model(seed: u64) -> Result<(CndIds, ContinualSplit), BenchError> {
    let data = generate(seed, GeneratorConfig::standard(seed).total_samples)?;
    let split = split(&data, seed)?;
    let mut model = CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal)?;
    for e in &split.experiences {
        model.train_experience(&e.train_x)?;
    }
    Ok((model, split))
}

/// Environment fingerprint printed beside every result.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CND_"))
        .map(|(k, v)| format!("{}={}", k, v))
        .collect();
    vars.sort();
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {}, \"gemm_kernel\": {}, \"cpu\": {}, \"cnd_env\": [{}]}}",
        cnd_parallel::current().threads(),
        json_str(&format!("{:?}", cnd_linalg::gemm::active_kernel())),
        json_str(&cpu),
        vars.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(", "),
    )
}

/// Minimal JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric the mode promises.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let measured = outcome.metrics.iter().find(|(n, _)| *n == name);
        // A layer the workload never calls reads 0; every end-to-end
        // metric must be measured.
        let value = match measured {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// Working directory for one run's artifacts (model file, flow store),
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_out").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, BenchError> {
    let dir = WorkDir::create(&args.workload)?;
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "serve_pipelined" => serve::run(serve::Mode::Pipelined, args, &dir.0, &mut tracer),
        "serve_paced" => serve::run(serve::Mode::Paced, args, &dir.0, &mut tracer),
        "score_store" => store::run(args, &dir.0, &mut tracer),
        "continual_train" => train::run(args, &mut tracer),
        other => Err(format!("unknown workload {other:?}").into()),
    }?;
    if args.trace {
        let out = Path::new(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&out)?;
        eprintln!("spans written to {}", out.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cndbench: {e}");
            eprintln!(
                "usage: cndbench --workload <serve_pipelined|serve_paced|score_store|continual_train> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args).map_err(|e| e.to_string()).and_then(|o| {
        let line = result_line(&o, args.trace)?;
        Ok((o, line))
    }) {
        Ok((outcome, line)) => {
            if !outcome.correct {
                eprintln!(
                    "cndbench: output check FAILED ({} failed ops)",
                    outcome.failed
                );
            }
            println!("env {}", fingerprint());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cndbench: {e}");
            ExitCode::FAILURE
        }
    }
}
