//! End-to-end test of the `cnd-ids-cli` binary: generate → train →
//! score, exercising the full deployment path through the real
//! command-line interface.

use std::path::PathBuf;
use std::process::Command;

/// Path to the compiled CLI binary within the cargo target directory.
fn cli() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_BIN_EXE_cnd-ids-cli"));
    assert!(p.exists(), "CLI binary missing at {}", p.display());
    p = p.canonicalize().expect("canonical path");
    p
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnd_ids_cli_test_{name}"))
}

#[test]
fn generate_train_score_pipeline() {
    let csv = tmp("data.csv");
    let model = tmp("model.txt");

    // generate
    let out = Command::new(cli())
        .args([
            "generate",
            "WUSTL-IIoT",
            csv.to_str().expect("utf8 path"),
            "--seed",
            "5",
            "--samples",
            "3000",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(csv.exists());

    // train
    let out = Command::new(cli())
        .args([
            "train",
            csv.to_str().expect("utf8 path"),
            model.to_str().expect("utf8 path"),
            "--seed",
            "5",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());
    let header = std::fs::read_to_string(&model).expect("model readable");
    assert!(header.starts_with("CND-IDS-SCORER v1"));

    // score
    let out = Command::new(cli())
        .args([
            "score",
            model.to_str().expect("utf8 path"),
            csv.to_str().expect("utf8 path"),
            "--quantile",
            "0.95",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "score failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3000, "one score per input row");
    assert!(lines.iter().any(|l| l.ends_with("ALERT")));
    assert!(lines.iter().any(|l| l.ends_with("ok")));

    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn stream_subcommand_reports_health() {
    let csv = tmp("stream_data.csv");
    let out = Command::new(cli())
        .args([
            "generate",
            "WUSTL-IIoT",
            csv.to_str().expect("utf8 path"),
            "--seed",
            "7",
            "--samples",
            "3000",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(cli())
        .args([
            "stream",
            csv.to_str().expect("utf8 path"),
            "--seed",
            "7",
            "--fault-rate",
            "0.05",
            "--health",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pooled best-F F1"), "stdout: {stdout}");
    assert!(stdout.contains("health report:"), "stdout: {stdout}");
    assert!(stdout.contains("mode:"), "stdout: {stdout}");
    // The health report must expose every quarantine counter, including
    // the eviction/drift lines added with the observability layer.
    assert!(stdout.contains("quarantined"), "stdout: {stdout}");
    assert!(stdout.contains("nan/inf"), "stdout: {stdout}");
    assert!(stdout.contains("evicted"), "stdout: {stdout}");
    assert!(stdout.contains("drift-rejected"), "stdout: {stdout}");

    let out = Command::new(cli())
        .args([
            "stream",
            csv.to_str().expect("utf8 path"),
            "--fault-rate",
            "2.0",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        !out.status.success(),
        "out-of-range fault rate must be rejected"
    );

    std::fs::remove_file(&csv).ok();
}

#[test]
fn trace_out_then_observe_round_trip() {
    let csv = tmp("trace_data.csv");
    let trace = tmp("trace.jsonl");
    let out = Command::new(cli())
        .args([
            "generate",
            "WUSTL-IIoT",
            csv.to_str().expect("utf8 path"),
            "--seed",
            "11",
            "--samples",
            "1500",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `--trace-out` must enable tracing on its own (no CND_OBS needed).
    let out = Command::new(cli())
        .env_remove("CND_OBS")
        .env_remove("CND_OBS_OUT")
        .args([
            "run",
            csv.to_str().expect("utf8 path"),
            "--experiences",
            "2",
            "--seed",
            "11",
            "--trace-out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "run --trace-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&trace).expect("trace written");
    assert!(jsonl.starts_with("{\"ev\":\"meta\""), "first line is meta");
    for span in ["runner.train", "runner.score", "cfe.train", "pca.fit"] {
        assert!(jsonl.contains(span), "trace missing span {span}");
    }

    let out = Command::new(cli())
        .args(["observe", trace.to_str().expect("utf8 path")])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "observe failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase breakdown"), "stdout: {stdout}");
    assert!(stdout.contains("runner.evaluate"), "stdout: {stdout}");
    assert!(stdout.contains("cfe.train"), "stdout: {stdout}");

    // A corrupt trace must be rejected with a non-zero exit.
    std::fs::write(&trace, "not json\n").expect("overwrite trace");
    let out = Command::new(cli())
        .args(["observe", trace.to_str().expect("utf8 path")])
        .output()
        .expect("CLI runs");
    assert!(!out.status.success(), "corrupt trace must be rejected");

    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&trace).ok();
}

/// Satellite: `observe` must exit non-zero when trace validation
/// fails, even for traces whose lines all parse as JSON individually —
/// here a structurally invalid trace with an unclosed span.
#[test]
fn observe_rejects_unclosed_span_with_nonzero_exit() {
    let trace = tmp("unclosed.jsonl");
    std::fs::write(
        &trace,
        concat!(
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"deterministic\",\"unit\":\"tick\",\"dropped\":0}\n",
            "{\"ev\":\"span_begin\",\"t\":1,\"id\":1,\"parent\":0,\"name\":\"runner.train\",\"fields\":{}}\n",
        ),
    )
    .expect("write trace");
    let out = Command::new(cli())
        .args(["observe", trace.to_str().expect("utf8 path")])
        .output()
        .expect("CLI runs");
    assert!(!out.status.success(), "unclosed span must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid trace"), "stderr: {stderr}");
    std::fs::remove_file(&trace).ok();
}

/// `observe --top N` prints a self-time profile instead of the phase
/// breakdown.
#[test]
fn observe_top_prints_self_time_profile() {
    let trace = tmp("top.jsonl");
    std::fs::write(
        &trace,
        concat!(
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"deterministic\",\"unit\":\"tick\",\"dropped\":0}\n",
            "{\"ev\":\"span_begin\",\"t\":1,\"id\":1,\"parent\":0,\"name\":\"runner.train\",\"fields\":{}}\n",
            "{\"ev\":\"span_end\",\"t\":5,\"id\":1,\"name\":\"runner.train\",\"dur\":4}\n",
        ),
    )
    .expect("write trace");
    let out = Command::new(cli())
        .args(["observe", trace.to_str().expect("utf8 path"), "--top", "5"])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "observe --top failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top self-time spans"), "stdout: {stdout}");
    assert!(stdout.contains("runner.train"), "stdout: {stdout}");
    std::fs::remove_file(&trace).ok();
}

/// Writes a `BENCH_substrate.json` report into a fresh directory named
/// `dir`, rebuilt from the committed baseline's metrics, so the
/// bench-check tests depend on nothing but committed files.
fn substrate_report(dir: &str) -> PathBuf {
    let text = std::fs::read_to_string("baselines/BENCH_substrate.json")
        .expect("committed substrate baseline");
    let metrics = cnd_ids::obs::baseline::extract_metrics(&text).expect("baseline parses");
    let results: Vec<String> = metrics
        .iter()
        .filter_map(|(key, bit)| {
            let name = key.strip_prefix("bit.")?;
            let rate = |arm: &str| metrics[&format!("rate.{name}.{arm}")];
            Some(format!(
                "{{\"name\":\"{name}\",\"serial_rate\":{},\"parallel_rate\":{},\"bit_identical\":{}}}",
                rate("serial"),
                rate("parallel"),
                *bit == 1.0
            ))
        })
        .collect();
    let dir = tmp(dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let report = dir.join("BENCH_substrate.json");
    std::fs::write(&report, format!("{{\"results\":[{}]}}", results.join(",")))
        .expect("write report");
    report
}

/// Tentpole acceptance criterion: `bench-check` exits zero against the
/// committed baselines and non-zero on a doctored report with a 10x
/// slower kernel.
#[test]
fn bench_check_passes_committed_pair_and_fails_doctored() {
    // A report matching the committed baseline, which bench-check finds
    // from the report's file stem.
    let report = substrate_report("bench_report_pair");
    let out = Command::new(cli())
        .args(["bench-check", report.to_str().expect("utf8 path")])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "committed pair must pass: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench-check: PASS"), "stdout: {stdout}");

    // Doctor one serial rate down 10x: that is below the Relative(0.6)
    // floor, so the check must fail with a non-zero exit.
    let doctored = tmp("doctored_bench.json");
    let text = std::fs::read_to_string(&report).expect("bench report written");
    let needle = "\"serial_rate\":";
    let at = text.find(needle).expect("serial_rate field") + needle.len();
    let end = at + text[at..].find([',', '}']).expect("number end");
    let rate: f64 = text[at..end].trim().parse().expect("rate parses");
    let slow = format!("{}{}{}", &text[..at], rate / 10.0, &text[end..]);
    std::fs::write(&doctored, slow).expect("write doctored report");

    let out = Command::new(cli())
        .args([
            "bench-check",
            doctored.to_str().expect("utf8 path"),
            "--baseline",
            "baselines/BENCH_substrate.json",
        ])
        .output()
        .expect("CLI runs");
    assert!(!out.status.success(), "doctored report must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "stdout: {stdout}");
    assert!(stdout.contains("bench-check: FAIL"), "stdout: {stdout}");
    // A regression is not a usage error: no usage blurb on this path.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
    std::fs::remove_file(&doctored).ok();
    std::fs::remove_dir_all(report.parent().expect("report dir")).ok();
}

/// `bench-check --update` creates a baseline that the same artifact
/// then passes against; a missing baseline is an error that points at
/// `--update`.
#[test]
fn bench_check_update_workflow_round_trips() {
    let report = substrate_report("bench_report_update");
    let dir = tmp("bench_baselines");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let baseline = dir.join("roundtrip.json");

    // Without a baseline: fail, and tell the user how to create one.
    let out = Command::new(cli())
        .args([
            "bench-check",
            report.to_str().expect("utf8 path"),
            "--baseline",
            baseline.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("CLI runs");
    assert!(!out.status.success(), "missing baseline must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--update"),
        "error should suggest --update"
    );

    // --update writes it; a re-check of the identical artifact passes.
    let out = Command::new(cli())
        .args([
            "bench-check",
            report.to_str().expect("utf8 path"),
            "--baseline",
            baseline.to_str().expect("utf8 path"),
            "--update",
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "--update failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(written.starts_with("{\"benchcheck\":1"), "got: {written}");

    let out = Command::new(cli())
        .args([
            "bench-check",
            report.to_str().expect("utf8 path"),
            "--baseline",
            baseline.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "identical artifact must pass its own baseline: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_file(&baseline).ok();
    std::fs::remove_dir(&dir).ok();
    std::fs::remove_dir_all(report.parent().expect("report dir")).ok();
}

#[test]
fn profiles_subcommand_lists_all() {
    let out = Command::new(cli())
        .arg("profiles")
        .output()
        .expect("CLI runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["X-IIoTID", "WUSTL-IIoT", "CICIDS2017", "UNSW-NB15"] {
        assert!(stdout.contains(name), "missing profile {name}");
    }
}

#[test]
fn bad_usage_fails_with_message() {
    let out = Command::new(cli()).arg("bogus").output().expect("CLI runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_flags_fail_before_any_work() {
    let csv = tmp("unknown_flag.csv");
    let _ = std::fs::remove_file(&csv);
    let cases: [&[&str]; 3] = [
        // A flag that no longer exists.
        &["serve", "missing_model.txt", "--score-f32"],
        // A typo of --max-batch.
        &["serve", "missing_model.txt", "--max-batc", "8"],
        &[
            "generate",
            "WUSTL-IIoT",
            csv.to_str().expect("utf8 path"),
            "--samples",
            "1000",
            "--no-such-flag",
            "7",
        ],
    ];
    for (args, flag) in cases
        .iter()
        .zip(["--score-f32", "--max-batc", "--no-such-flag"])
    {
        let out = Command::new(cli()).args(*args).output().expect("CLI runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let sub = args[0];
        assert!(
            stderr.contains(&format!("unknown flag \"{flag}\" for {sub}")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!csv.exists(), "generate must not run with an unknown flag");
}
