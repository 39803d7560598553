//! End-to-end tests of the `cnd-serve` scoring server: wire-protocol
//! robustness against hostile frames, admission control under pressure,
//! and the hot-swap determinism guarantee (never mix weights mid-batch,
//! never drop an accepted request, scores bit-for-bit per version).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cnd_ids::core::deploy::DeployedScorer;
use cnd_ids::core::{CndIds, CndIdsConfig};
use cnd_ids::linalg::Matrix;
use cnd_ids::serve::protocol::{read_reply, write_request, PROTOCOL_VERSION, REQUEST_MAGIC};
use cnd_ids::serve::{
    run_loadgen, LoadGenConfig, Reply, Request, ServeClient, ServeConfig, Server, Verdict,
};

/// Trains a tiny model; different seeds give different weights with the
/// same feature width.
fn trained_scorer(seed: u64) -> DeployedScorer {
    let d = 6;
    let normal = |i: usize, j: usize| ((i * 7 + j * 3 + seed as usize) % 13) as f64 * 0.1;
    let n_c = Matrix::from_fn(50, d, normal);
    let train = Matrix::from_fn(300, d, |i, j| {
        if i < 240 {
            normal(i + 100, j)
        } else {
            normal(i + 100, j) + 2.5
        }
    });
    let mut model = CndIds::new(CndIdsConfig::fast(seed), &n_c).expect("model builds");
    model.train_experience(&train).expect("model trains");
    DeployedScorer::from_model(&model).expect("model freezes")
}

struct TempArtifact(PathBuf);

static UNIQUE: AtomicU64 = AtomicU64::new(0);

impl TempArtifact {
    fn new(tag: &str, scorer: &DeployedScorer) -> TempArtifact {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cnd_serve_it_{tag}_{}_{n}.txt", std::process::id()));
        scorer.save_to_path(&path).expect("artifact saves");
        TempArtifact(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempArtifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn feature_row(k: usize, d: usize) -> Vec<f64> {
    (0..d)
        .map(|j| ((k * 11 + j * 5) % 17) as f64 * 0.13)
        .collect()
}

#[test]
fn served_scores_match_local_scorer_bit_for_bit() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("bitexact", &scorer);
    let server = Server::start(artifact.path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");

    for k in 0..32 {
        let features = feature_row(k, d);
        let local = scorer
            .anomaly_scores(&Matrix::from_vec(1, d, features.clone()).unwrap())
            .unwrap()[0];
        match client.score(&features).expect("score round trip") {
            Reply::Score {
                score,
                model_version,
                ..
            } => {
                assert_eq!(model_version, 1);
                assert_eq!(
                    score.to_bits(),
                    local.to_bits(),
                    "flow {k}: served score differs from local scoring"
                );
            }
            other => panic!("flow {k}: unexpected reply {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 32);
    assert_eq!(stats.scored, 32);
}

#[test]
fn explicit_threshold_drives_verdicts() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("verdict", &scorer);

    // Threshold below every score: everything alerts. Above: nothing.
    let probe = scorer
        .anomaly_scores(&Matrix::from_vec(1, d, feature_row(0, d)).unwrap())
        .unwrap()[0];
    for (tau, expected) in [
        (probe - 1.0, Verdict::Alert),
        (probe + 1.0, Verdict::Normal),
    ] {
        let server = Server::start(
            artifact.path(),
            "127.0.0.1:0",
            ServeConfig {
                threshold: Some(tau),
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let mut client = ServeClient::connect(server.local_addr()).expect("connects");
        match client.score(&feature_row(0, d)).expect("scores") {
            Reply::Score { verdict, .. } => assert_eq!(verdict, expected),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

#[test]
fn uncalibrated_until_window_fills_then_verdicts_appear() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("calib", &scorer);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            calibrate: 8,
            quantile: 0.5,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");
    let mut verdicts = Vec::new();
    for k in 0..32 {
        match client.score(&feature_row(k, d)).expect("scores") {
            Reply::Score { verdict, .. } => verdicts.push(verdict),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(
        verdicts[0],
        Verdict::Uncalibrated,
        "first score arrives before the window can fill"
    );
    assert!(
        verdicts.iter().any(|v| *v != Verdict::Uncalibrated),
        "calibration never completed in 32 scores with an 8-score window"
    );
}

/// Every malformed frame must produce a typed error reply (or a clean
/// close for sync-losing frames) and leave the server able to score a
/// well-formed request on a fresh connection.
#[test]
fn malformed_frames_get_error_replies_and_server_keeps_serving() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("hostile", &scorer);
    let server = Server::start(artifact.path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");
    let addr = server.local_addr();

    let score_header = |dim: u32| {
        let mut f = Vec::new();
        f.extend_from_slice(&REQUEST_MAGIC);
        f.push(PROTOCOL_VERSION);
        f.push(1); // Score
        f.extend_from_slice(&99u64.to_le_bytes());
        f.extend_from_slice(&dim.to_le_bytes());
        f
    };

    let wrong_magic = {
        let mut f = score_header(1);
        f[0] = b'X';
        f.extend_from_slice(&1.0f64.to_le_bytes());
        f
    };
    let bad_version = {
        let mut f = score_header(1);
        f[4] = 99;
        f.extend_from_slice(&1.0f64.to_le_bytes());
        f
    };
    let oversized_dim = score_header(u32::MAX);
    let zero_dim = score_header(0);
    let nan_feature = {
        let mut f = score_header(2);
        f.extend_from_slice(&1.0f64.to_le_bytes());
        f.extend_from_slice(&f64::NAN.to_le_bytes());
        f
    };
    let wrong_dim = {
        // Well-formed frame whose width disagrees with the model.
        let mut f = score_header(2);
        f.extend_from_slice(&1.0f64.to_le_bytes());
        f.extend_from_slice(&2.0f64.to_le_bytes());
        f
    };
    let unknown_type = {
        let mut f = Vec::new();
        f.extend_from_slice(&REQUEST_MAGIC);
        f.push(PROTOCOL_VERSION);
        f.push(42);
        f.extend_from_slice(&99u64.to_le_bytes());
        f
    };
    let truncated = {
        let mut f = score_header(4);
        f.extend_from_slice(&1.0f64.to_le_bytes());
        f // promises 4 features, delivers 1, then the connection closes
    };

    let cases: [(&str, &[u8]); 8] = [
        ("wrong magic", &wrong_magic),
        ("bad version", &bad_version),
        ("oversized dim", &oversized_dim),
        ("zero dim", &zero_dim),
        ("nan feature", &nan_feature),
        ("wrong feature width", &wrong_dim),
        ("unknown type", &unknown_type),
        ("truncated payload", &truncated),
    ];

    for (name, frame) in cases {
        let mut raw = TcpStream::connect(addr).expect("connects");
        // Short timeout: the reply arrives immediately; recoverable
        // frames leave the connection open so the loop exits on it.
        raw.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        raw.write_all(frame).expect("writes hostile frame");
        if name == "truncated payload" {
            // Server is blocked mid-frame; closing our write half
            // delivers the EOF that makes truncation observable.
            raw.shutdown(std::net::Shutdown::Write).unwrap();
        }
        // Read whatever the server sends until it closes or goes quiet;
        // a typed reply starts with the reply magic.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match raw.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        assert!(
            buf.starts_with(b"CNDR"),
            "{name}: expected a typed error reply, got {buf:?}"
        );

        // The server must still score well-formed traffic afterwards.
        let mut client = ServeClient::connect(addr).expect("reconnects");
        match client.score(&feature_row(7, d)).expect("still serving") {
            Reply::Score { .. } => {}
            other => panic!("{name}: server unhealthy afterwards: {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert!(
        stats.bad_frames >= cases.len() as u64,
        "every hostile frame should be counted, got {}",
        stats.bad_frames
    );
}

/// Writes one score frame per row (ids `0..`) to a fresh connection in
/// a single `write_all`, so the server finds them all buffered at once,
/// and reads back one reply per frame.
fn pipeline(addr: std::net::SocketAddr, rows: &[Vec<f64>]) -> Vec<Reply> {
    let mut conn = TcpStream::connect(addr).expect("connects");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = Vec::new();
    for (id, features) in rows.iter().enumerate() {
        let req = Request::Score {
            id: id as u64,
            features: features.clone(),
        };
        write_request(&mut frames, &req).expect("encodes");
    }
    conn.write_all(&frames).expect("writes the pipeline");
    rows.iter()
        .map(|_| read_reply(&mut conn).expect("one reply per frame"))
        .collect()
}

fn reply_id(reply: &Reply) -> u64 {
    match reply {
        Reply::Score { id, .. }
        | Reply::BadRequest { id, .. }
        | Reply::Overloaded { id }
        | Reply::ReloadOk { id, .. }
        | Reply::ReloadFailed { id, .. }
        | Reply::Info { id, .. } => *id,
    }
}

#[test]
fn full_queue_sheds_with_explicit_overloaded_replies() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("shed", &scorer);
    // One batch may hold every frame, but only `queue_cap` rows may be
    // in flight: the rest of the batch must be shed.
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            max_batch: 64,
            queue_cap: 4,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");

    let total = 16;
    let rows: Vec<_> = (0..total).map(|k| feature_row(k, d)).collect();
    let mut scored = 0u64;
    let mut shed = 0u64;
    for reply in pipeline(server.local_addr(), &rows) {
        match reply {
            Reply::Score { .. } => scored += 1,
            Reply::Overloaded { .. } => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(scored + shed, total as u64, "every request got a reply");
    assert!(
        shed >= 1,
        "queue_cap=4 with 16 frames in one batch must shed"
    );
    let snap = server.telemetry_snapshot().expect("telemetry on");
    assert_eq!(snap.shed_queue_full, shed, "every shed is attributed");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, scored);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.scored, scored, "accepted requests are never dropped");
}

/// Batches form from whatever a connection has pipelined, with no
/// timer: 64 frames written at once are scored in fewer batches than
/// rows, every reply bit-matches the row scored alone, and replies come
/// back in request order.
#[test]
fn pipelined_frames_batch_and_score_bit_exactly() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("pipelined", &scorer);
    let server = Server::start(artifact.path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");

    let rows: Vec<_> = (0..64).map(|k| feature_row(k, d)).collect();
    let replies = pipeline(server.local_addr(), &rows);
    for (k, (row, reply)) in rows.iter().zip(&replies).enumerate() {
        assert_eq!(reply_id(reply), k as u64, "replies out of request order");
        let alone = scorer
            .anomaly_scores(&Matrix::from_vec(1, d, row.clone()).unwrap())
            .unwrap()[0];
        match reply {
            Reply::Score { score, .. } => assert_eq!(
                score.to_bits(),
                alone.to_bits(),
                "flow {k}: batched score differs from the row scored alone"
            ),
            other => panic!("flow {k}: unexpected reply {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.scored, 64);
    assert!(
        stats.batches < stats.scored,
        "64 pipelined frames were scored one row per batch ({} batches)",
        stats.batches
    );
}

/// The hot-swap guarantee: concurrent scoring while models swap never
/// mixes weights (every reply's score bit-matches the scorer version it
/// names), never drops an accepted request, and both versions are
/// actually observed.
#[test]
fn hot_swap_under_load_is_atomic_and_bit_exact() {
    let scorer_a = trained_scorer(3);
    let scorer_b = trained_scorer(11);
    let d = scorer_a.n_features();
    assert_eq!(d, scorer_b.n_features());

    let artifact = TempArtifact::new("hotswap", &scorer_a);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Expected score per (version, flow) pair, computed locally.
    let expect = |scorer: &DeployedScorer, k: usize| {
        scorer
            .anomaly_scores(&Matrix::from_vec(1, d, feature_row(k, d)).unwrap())
            .unwrap()[0]
    };

    // Each worker keeps scoring until it has seen a handful of replies
    // from the swapped-in model (the cap only guards against a reload
    // that never lands), so the "both versions observed" assertion
    // cannot race the swap on a slow or loaded machine.
    let workers = 4;
    let cap = 5000;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                let mut seen = Vec::new();
                let mut after_swap = 0;
                for i in 0..cap {
                    let k = w * cap + i;
                    match c.score(&feature_row(k, d)).expect("round trip") {
                        Reply::Score {
                            score,
                            model_version,
                            ..
                        } => {
                            seen.push((k, model_version, score));
                            if model_version >= 2 {
                                after_swap += 1;
                                if after_swap >= 8 {
                                    break;
                                }
                            }
                        }
                        other => panic!("flow {k}: unexpected reply {other:?}"),
                    }
                }
                seen
            })
        })
        .collect();

    // Swap to model B mid-run: wait until traffic is demonstrably
    // flowing, overwrite the artifact atomically, then reload through
    // the server API (same path the wire `reload` takes).
    while server.stats().scored < 50 {
        std::thread::sleep(Duration::from_millis(1));
    }
    scorer_b
        .save_to_path(artifact.path())
        .expect("artifact swaps");
    let new_version = server.reload().expect("hot swap succeeds");
    assert_eq!(new_version, 2);

    let mut versions_seen = std::collections::BTreeSet::new();
    let mut sent = 0u64;
    for h in handles {
        for (k, version, score) in h.join().expect("worker") {
            sent += 1;
            versions_seen.insert(version);
            let expected = match version {
                1 => expect(&scorer_a, k),
                2 => expect(&scorer_b, k),
                v => panic!("flow {k}: impossible model version {v}"),
            };
            assert_eq!(
                score.to_bits(),
                expected.to_bits(),
                "flow {k}: score does not match the weights of model v{version} — batch mixed weights?"
            );
        }
    }
    assert!(
        versions_seen.contains(&2),
        "swap happened mid-run but no reply came from model v2"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.accepted, sent,
        "default queue depth should admit everything"
    );
    assert_eq!(
        stats.scored, stats.accepted,
        "zero dropped accepted requests across the swap"
    );
    assert_eq!(stats.reply_failures, 0);
    assert_eq!(stats.reloads, 1);
}

#[test]
fn wire_reload_and_info_round_trip() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("wire_reload", &scorer);
    let server = Server::start(artifact.path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).expect("connects");

    for k in 0..5 {
        client.score(&feature_row(k, d)).expect("scores");
    }
    assert_eq!(client.reload().expect("wire reload"), 2);
    let info = client.info().expect("info");
    assert_eq!(info.model_version, 2);
    assert_eq!(info.n_features as usize, d);
    assert_eq!(info.accepted, 5);
    assert_eq!(info.reloads, 1);

    // Reload against a corrupt artifact is refused; old model serves on.
    std::fs::write(artifact.path(), "garbage").unwrap();
    assert!(client.reload().is_err());
    match client.score(&feature_row(9, d)).expect("still serving") {
        Reply::Score { model_version, .. } => assert_eq!(model_version, 2),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn loadgen_reports_throughput_and_survives_midway_reload() {
    let scorer = trained_scorer(3);
    let artifact = TempArtifact::new("loadgen", &scorer);
    let server = Server::start(artifact.path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server starts");
    let report = run_loadgen(
        server.local_addr(),
        &LoadGenConfig {
            flows: 400,
            concurrency: 2,
            reload_midway: true,
            ..LoadGenConfig::default()
        },
    )
    .expect("loadgen runs");
    assert_eq!(report.sent, 400);
    assert_eq!(report.transport_errors, 0, "no accepted request lost");
    assert!(report.ok > 0, "some flows scored");
    assert!(report.flows_per_s > 0.0);
    assert_eq!(report.reload_version, Some(2));
    let metrics = report.bench_metrics("it");
    assert!(metrics
        .iter()
        .all(|(n, _)| n.starts_with("rate.it.") || n.starts_with("lat.it.")));
    assert!(metrics.iter().any(|(n, _)| n == "lat.it.p99_us"));
    assert_eq!(report.reconnects_per_worker.len(), 2);
    assert_eq!(report.latency.count, report.ok);
    assert!(report.max_us >= report.p999_us && report.p999_us >= report.p50_us);
    let stats = server.shutdown();
    assert_eq!(stats.scored + stats.shed, 400);
}

/// The lifecycle-telemetry contract: every served request appears in
/// each stage histogram, shed decisions carry the queue depth that
/// caused them, and — because `total` is measured end-to-end rather
/// than summed — the sum of stage medians must agree with the
/// end-to-end median within the batching jitter.
#[test]
fn stage_medians_are_consistent_with_end_to_end_latency() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("stages", &scorer);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let workers = 3;
    let per_worker = 150;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                for i in 0..per_worker {
                    match c
                        .score(&feature_row(w * per_worker + i, d))
                        .expect("scores")
                    {
                        Reply::Score { .. } => {}
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client worker");
    }

    // A reader records a request's `write` and `total` stages after its
    // reply bytes leave, so the client can get here first: wait (with a
    // bound) for the last rounds to be recorded.
    let served = (workers * per_worker) as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let snap = server
            .telemetry_snapshot()
            .expect("telemetry is on by default");
        if snap.total.count >= served || Instant::now() >= deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // Every request passed through every stage exactly once.
    assert_eq!(snap.total.count, served);
    assert_eq!(snap.queue_wait.count, served);
    assert_eq!(snap.batch_form.count, served);
    assert_eq!(snap.score.count, served);
    assert_eq!(snap.write.count, served);
    assert_eq!(snap.parse.count, served);
    assert!(snap.queue_depth.count > 0, "depth sampled at every batch");
    assert_eq!(snap.records_dropped, 0, "rings must not saturate here");
    assert_eq!(snap.shed_queue_full, 0);
    assert_eq!(snap.bad_frames, 0);

    // Sum of stage medians vs the end-to-end median. The stages
    // partition [decoded, reply-written] (parse precedes the decode
    // timestamp, so it is excluded), but medians of different
    // distributions do not sum exactly — allow generous slack plus the
    // HDR quantile error before calling it inconsistent.
    let p50 = |h: &cnd_ids::obs::hdr::HdrHistogram| h.quantile(0.5).unwrap_or(0) as f64;
    let stage_sum =
        p50(&snap.queue_wait) + p50(&snap.batch_form) + p50(&snap.score) + p50(&snap.write);
    let total = p50(&snap.total);
    assert!(
        stage_sum <= 2.0 * total + 500.0,
        "stage medians ({stage_sum}us) wildly exceed end-to-end median ({total}us)"
    );
    assert!(
        stage_sum >= 0.25 * total - 500.0,
        "stage medians ({stage_sum}us) unaccountably below end-to-end median ({total}us)"
    );

    let stats = server.shutdown();
    assert_eq!(stats.scored, served);
}

/// Shed attribution: requests rejected by admission control show up in
/// the telemetry with the in-flight depth at the decision, separate
/// from bad-frame rejections.
#[test]
fn shed_decisions_are_attributed_with_queue_depth() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("shed_attr", &scorer);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            max_batch: 64,
            queue_cap: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");

    let rows: Vec<_> = (0..12).map(|k| feature_row(k, d)).collect();
    let shed = pipeline(server.local_addr(), &rows)
        .iter()
        .filter(|r| matches!(r, Reply::Overloaded { .. }))
        .count() as u64;
    assert!(
        shed >= 1,
        "queue_cap=2 with 12 frames in one batch must shed"
    );

    let snap = server.telemetry_snapshot().expect("telemetry on");
    assert_eq!(snap.shed_queue_full, shed, "every shed is attributed");
    assert_eq!(snap.shed_depth.count, shed);
    // Each shed saw the in-flight count at (or beyond) its cap.
    assert!(snap.shed_depth.min.unwrap_or(0) >= 2);
    assert_eq!(snap.bad_frames, 0, "sheds are not bad frames");
    assert_eq!(server.stats().shed, shed);
    drop(server);
}

/// The telemetry accounting contract under concurrency: every served
/// request is in every stage exactly once. Sixteen connections pipeline
/// frames against a tiny in-flight bound, so rounds mix scored rows,
/// sheds and bad frames; one client first hangs up before reading a
/// reply, so later writes to it fail. Once the readers have recorded everything,
/// the telemetry agrees exactly with the server's own counters.
#[test]
fn every_served_request_is_in_every_stage_exactly_once() {
    let scorer = trained_scorer(3);
    let d = scorer.n_features();
    let artifact = TempArtifact::new("accounting", &scorer);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            queue_cap: 8,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Every eighth frame is one feature too wide: a bad frame.
    let frames = |n: usize, seed: usize| {
        let mut bytes = Vec::new();
        for k in 0..n {
            let width = if k % 8 == 7 { d + 1 } else { d };
            let req = Request::Score {
                id: k as u64,
                features: feature_row(seed + k, width),
            };
            write_request(&mut bytes, &req).expect("encodes");
        }
        bytes
    };

    // Four rounds' worth of frames, then a hang-up before any reply is
    // read: the reader's writes after the first one fail. The hang-up
    // can race the reader's writes, so it is repeated (boundedly) until
    // a write has failed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().reply_failures == 0 && Instant::now() < deadline {
        let mut conn = TcpStream::connect(addr).expect("connects");
        conn.write_all(&frames(256, 0))
            .expect("writes the pipeline");
        drop(conn);
        std::thread::sleep(Duration::from_millis(20));
    }

    let clients = 15;
    let rounds = 20;
    let per_round = 32;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let pipeline = frames(per_round, c * 1000);
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connects");
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let (mut scored, mut shed, mut bad) = (0u64, 0u64, 0u64);
                for _ in 0..rounds {
                    conn.write_all(&pipeline).expect("writes the pipeline");
                    for _ in 0..per_round {
                        match read_reply(&mut conn).expect("one reply per frame") {
                            Reply::Score { .. } => scored += 1,
                            Reply::Overloaded { .. } => shed += 1,
                            Reply::BadRequest { .. } => bad += 1,
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                }
                (scored, shed, bad)
            })
        })
        .collect();
    let (mut scored, mut shed, mut bad) = (0u64, 0u64, 0u64);
    for h in handles {
        let (s, x, b) = h.join().expect("client");
        (scored, shed, bad) = (scored + s, shed + x, bad + b);
    }
    assert_eq!(scored + shed + bad, (clients * rounds * per_round) as u64);
    assert_eq!(bad, (clients * rounds * per_round / 8) as u64);

    // A round is recorded after its reply bytes leave, so wait (with a
    // bound) for the written rows to account for every scored one, with
    // no round landing while the snapshot is taken.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (snap, stats) = loop {
        let stats = server.stats();
        let snap = server.telemetry_snapshot().expect("telemetry on");
        let settled =
            server.stats() == stats && snap.total.count + snap.reply_failures >= stats.scored;
        if settled || Instant::now() >= deadline {
            break (snap, stats);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(stats.shed > 0 && stats.bad_frames > 0, "{stats:?}");
    assert!(
        stats.reply_failures > 0,
        "the hung-up client must cost failed writes: {stats:?}"
    );
    assert_eq!(stats.accepted, stats.scored);
    for (stage, h) in [
        ("parse", &snap.parse),
        ("queue_wait", &snap.queue_wait),
        ("batch_form", &snap.batch_form),
        ("score", &snap.score),
    ] {
        assert_eq!(h.count, stats.scored, "{stage}");
    }
    let written = stats.scored - stats.reply_failures;
    assert_eq!(snap.write.count, written);
    assert_eq!(snap.total.count, written);
    assert_eq!(snap.shed_queue_full, stats.shed);
    assert_eq!(snap.shed_depth.count, stats.shed);
    assert_eq!(snap.bad_frames, stats.bad_frames);
    assert_eq!(snap.reply_failures, stats.reply_failures);
    let slo_total = snap.slo.windows.last().expect("SLO windows").total;
    assert_eq!(
        slo_total,
        snap.total.count + snap.shed_queue_full + snap.bad_frames + snap.reply_failures
    );
    assert_eq!(slo_total, stats.scored + stats.shed + stats.bad_frames);
    assert_eq!(snap.records_dropped, 0);
    drop(server);
}
