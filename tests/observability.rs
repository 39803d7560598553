//! End-to-end observability tests through the facade crate: span
//! coverage of a full continual run, and byte-identical deterministic
//! traces across thread-pool sizes.

use cnd_ids::core::resilience::{ResilientConfig, ResilientStreamingCndIds};
use cnd_ids::core::runner::{evaluate_continual, evaluate_resilient_streaming};
use cnd_ids::core::{CndIds, CndIdsConfig};
use cnd_ids::datasets::{continual, DatasetProfile, GeneratorConfig};
use cnd_ids::obs;
use cnd_ids::parallel::ThreadPool;

fn split(seed: u64) -> continual::ContinualSplit {
    let data = DatasetProfile::WustlIiot
        .generate(&GeneratorConfig::small(seed))
        .unwrap();
    continual::prepare(&data, 3, 0.7, seed).unwrap()
}

/// ISSUE acceptance criterion: with observability on, a full
/// `evaluate_continual` run emits spans covering >= 90% of the traced
/// wall time, and the training / scoring / retrain / eval phases are
/// all present in the JSONL trace.
#[test]
fn continual_run_spans_cover_at_least_ninety_percent() {
    let _session = obs::Session::wall();
    let s = split(3);
    let mut model = CndIds::new(CndIdsConfig::fast(3), &s.clean_normal).unwrap();
    evaluate_continual(&mut model, &s).unwrap();

    // A short resilient streaming pass adds the retrain phase spans.
    let model = CndIds::new(CndIdsConfig::fast(3), &s.clean_normal).unwrap();
    let mut stream = ResilientStreamingCndIds::new(model, ResilientConfig::default()).unwrap();
    evaluate_resilient_streaming(&mut stream, &s, 256).unwrap();

    let jsonl = obs::snapshot_jsonl();
    let report = obs::phase_report(&jsonl).unwrap();
    for phase in [
        "runner.evaluate",
        "runner.train",
        "runner.score",
        "runner.eval",
        "runner.stream",
        "stream.retrain",
        "cfe.train",
        "pca.fit",
        "pipeline.score",
    ] {
        assert!(
            report.row(phase).is_some(),
            "phase {phase} missing from trace; rows: {:?}",
            report.rows.iter().map(|r| &r.name).collect::<Vec<_>>()
        );
    }
    // Top-level phase spans must account for >= 90% of the root spans'
    // wall time (runner.ingest carries the streaming ingest+retrain).
    let cov = report.coverage(&[
        "runner.train",
        "runner.score",
        "runner.eval",
        "runner.ingest",
    ]);
    assert!(cov >= 0.9, "span coverage {cov:.3} < 0.9");

    obs::trace::validate_jsonl(&jsonl).expect("trace validates");
}

/// Tentpole acceptance criterion: a traced full evaluation emits
/// exactly one schema-valid `quality` event per experience, carrying
/// the F1 matrix row, running continual metrics, and the score
/// histogram.
#[test]
fn quality_events_one_per_experience() {
    let _session = obs::Session::deterministic();
    let s = split(5);
    let m = s.len();
    let mut model = CndIds::new(CndIdsConfig::fast(5), &s.clean_normal).unwrap();
    evaluate_continual(&mut model, &s).unwrap();

    let jsonl = obs::snapshot_jsonl();
    obs::trace::validate_jsonl(&jsonl).expect("trace validates");
    let quality: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"ev\":\"quality\""))
        .collect();
    assert_eq!(quality.len(), m, "one quality event per experience");
    assert!(
        !jsonl.contains("\"ev\":\"hist\""),
        "every distribution is an hdr body"
    );
    for name in ["cfe.loss.total.value", "quality.drift.psi.value"] {
        assert!(
            jsonl.contains(&format!("{{\"ev\":\"gauge\",\"name\":\"{name}\"")),
            "{name} is a gauge"
        );
    }
    for (i, line) in quality.iter().enumerate() {
        let obj = obs::trace::parse_json(line).expect("quality line parses");
        assert_eq!(
            obj.get("experience").and_then(|v| v.as_f64()),
            Some(i as f64)
        );
        let f1 = obj.get("f1").and_then(|v| v.as_arr()).expect("f1 row");
        assert_eq!(f1.len(), m, "f1 row spans all experiences");
        let scores = obj.get("scores").and_then(|v| v.as_obj()).expect("scores");
        let count = scores.get("count").and_then(|v| v.as_u64()).expect("count");
        assert!(count > 0, "scores histogram nonempty");
        // The scores are an hdr body (integer count and sum, min, max,
        // buckets) whose bucket counts add up to the count.
        let body = &line[line.find("\"scores\":{").unwrap() + 10..line.len() - 2];
        let hdr_line = format!(
            "{{\"ev\":\"meta\",\"version\":{},\"clock\":\"deterministic\"}}\n{{\"ev\":\"hdr\",\"name\":\"scores\",{body}}}",
            obs::trace::TRACE_VERSION
        );
        obs::trace::validate_jsonl(&hdr_line).expect("scores validate as an hdr body");
        let buckets = scores.get("buckets").and_then(|v| v.as_obj()).unwrap();
        let total: u64 = buckets.values().map(|c| c.as_u64().unwrap()).sum();
        assert_eq!(total, count, "bucket counts sum to count");
        for key in ["avg", "fwd_trans", "bwd_trans"] {
            assert!(
                obj.get(key).and_then(|v| v.as_f64()).is_some(),
                "{key} missing"
            );
        }
    }
}

/// Tentpole acceptance criterion: while a run is live, the exporter
/// serves valid Prometheus text on /metrics and a JSON health document
/// on /health.
#[test]
fn exporter_serves_metrics_and_health_during_a_run() {
    use std::io::{Read as _, Write as _};

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut conn = std::net::TcpStream::connect(addr).expect("connect to exporter");
        write!(
            conn,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    }

    let _session = obs::Session::wall();
    let exporter = obs::Exporter::start("127.0.0.1:0").expect("bind ephemeral port");

    let s = split(7);
    let model = CndIds::new(CndIdsConfig::fast(7), &s.clean_normal).unwrap();
    let mut stream = ResilientStreamingCndIds::new(model, ResilientConfig::default()).unwrap();
    evaluate_resilient_streaming(&mut stream, &s, 256).unwrap();

    let metrics = http_get(exporter.local_addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "got: {metrics}");
    assert!(
        metrics.contains("text/plain; version=0.0.4"),
        "Prometheus content type missing: {metrics}"
    );
    assert!(metrics.contains("# TYPE cnd_obs_events counter"));
    assert!(
        metrics.contains("# TYPE continual_trained_count counter"),
        "domain counter missing from exposition: {metrics}"
    );

    let health = http_get(exporter.local_addr(), "/health");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "got: {health}");
    assert!(health.contains("\"status\":\"ok\""), "got: {health}");

    let missing = http_get(exporter.local_addr(), "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");
}

/// Satellite: two identical seeded runs under the deterministic clock
/// produce byte-identical JSONL traces, even when the thread-pool size
/// differs (scheduling-dependent metrics are excluded as volatile).
#[test]
fn deterministic_traces_identical_across_pool_sizes() {
    let _session = obs::Session::deterministic();
    let s = split(9);

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        obs::reset(obs::ClockKind::Deterministic);
        let pool = ThreadPool::new(threads);
        pool.install(|| {
            let mut model = CndIds::new(CndIdsConfig::fast(9), &s.clean_normal).unwrap();
            evaluate_continual(&mut model, &s).unwrap();
        });
        traces.push(obs::snapshot_jsonl());
    }
    assert!(!traces[0].is_empty());
    assert_eq!(
        traces[0], traces[1],
        "deterministic traces differ between 1 and 4 threads"
    );
    obs::trace::validate_jsonl(&traces[0]).expect("trace validates");
}

/// The resilient stream's trace, `cevent` lines and `continual.*`
/// counters included, is byte-identical across pool sizes under the
/// deterministic clock.
#[test]
fn deterministic_stream_traces_identical_across_pool_sizes() {
    let _session = obs::Session::deterministic();
    let s = split(9);

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        obs::reset(obs::ClockKind::Deterministic);
        let pool = ThreadPool::new(threads);
        pool.install(|| {
            let model = CndIds::new(CndIdsConfig::fast(9), &s.clean_normal).unwrap();
            let mut stream =
                ResilientStreamingCndIds::new(model, ResilientConfig::default()).unwrap();
            evaluate_resilient_streaming(&mut stream, &s, 128).unwrap();
        });
        traces.push(obs::snapshot_jsonl());
    }
    assert!(traces[0].contains("\"ev\":\"cevent\""));
    assert!(traces[0].contains("\"continual.trained.count\""));
    assert_eq!(
        traces[0], traces[1],
        "deterministic stream traces differ between 1 and 4 threads"
    );
    obs::trace::validate_jsonl(&traces[0]).expect("trace validates");
}

/// Satellite: per-thread HDR partials merged through the registry
/// serialize to byte-identical aggregate traces whether the workload
/// ran on 1 thread or 4. Merge is associative and commutative and the
/// bucket map has one canonical order, so chunking must not leak into
/// the trace.
#[test]
fn hdr_aggregate_traces_byte_identical_across_pool_sizes() {
    use cnd_ids::obs::hdr::HdrHistogram;

    let _session = obs::Session::deterministic();
    let n = 10_000usize;
    // A spiky deterministic latency stream spanning many buckets.
    let value = |i: usize| ((i as u64).wrapping_mul(2_654_435_761) >> 8) % 900_000 + 1;

    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        obs::reset(obs::ClockKind::Deterministic);
        let pool = ThreadPool::new(threads);
        let partials = pool.par_chunks(n, 64, |range| {
            let mut h = HdrHistogram::new();
            for i in range {
                h.record(value(i));
            }
            h
        });
        if threads > 1 {
            assert!(partials.len() > 1, "workload must actually split");
        }
        for p in &partials {
            obs::hdr_merge("it.stage.us", p);
        }
        traces.push(obs::snapshot_jsonl());
    }
    assert!(
        traces[0].contains("\"ev\":\"hdr\""),
        "no hdr event in trace: {}",
        traces[0]
    );
    assert_eq!(
        traces[0], traces[1],
        "hdr aggregate traces differ between 1 and 4 threads"
    );
    obs::trace::validate_jsonl(&traces[0]).expect("trace validates");
}
