//! End-to-end tests of the closed continual-serving loop: injected
//! distribution drift must produce exactly one validated canary swap,
//! and every `ScriptedFaults` scenario (corrupt candidate artifact,
//! trainer panic, NaN-poisoned mirror traffic, silently degraded
//! weights) must leave the server scoring on a known-good model —
//! bit-for-bit — with zero dropped accepted requests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cnd_ids::core::deploy::DeployedScorer;
use cnd_ids::core::resilience::ScriptedFaults;
use cnd_ids::core::streaming::{ContinualEvent, EventKind, RetryPolicy};
use cnd_ids::core::{CndIds, CndIdsConfig};
use cnd_ids::linalg::Matrix;
use cnd_ids::serve::{
    ContinualConfig, ContinualController, Reply, ServeClient, ServeConfig, Server, TrafficMirror,
    ValidationSet,
};

const D: usize = 6;

/// Deterministic "normal" traffic feature, parameterized by seed.
fn base(i: usize, j: usize, seed: u64) -> f64 {
    ((i * 7 + j * 3 + seed as usize) % 13) as f64 * 0.1
}

/// `n` rows of traffic at `offset` above the normal manifold.
fn traffic(n: usize, offset: f64, phase: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..D).map(|j| base(i + phase, j, seed) + offset).collect())
        .collect()
}

/// Trains the bootstrap model and builds the labeled validation set the
/// shadow gate scores candidates on (normals on the training manifold,
/// attacks far off it).
fn bootstrap(seed: u64) -> (CndIds, ValidationSet) {
    let n_c = Matrix::from_fn(60, D, |i, j| base(i, j, seed));
    let train = Matrix::from_fn(300, D, |i, j| {
        if i < 240 {
            base(i + 100, j, seed)
        } else {
            base(i + 100, j, seed) + 2.5
        }
    });
    let mut model = CndIds::new(CndIdsConfig::fast(seed), &n_c).expect("model builds");
    model.train_experience(&train).expect("model trains");
    let val_x = Matrix::from_fn(90, D, |i, j| {
        if i < 60 {
            base(i + 400, j, seed)
        } else {
            base(i + 400, j, seed) + 6.0
        }
    });
    let mut y = vec![0u8; 60];
    y.extend(vec![1u8; 30]);
    let val = ValidationSet::new(val_x, y).expect("validation set");
    (model, val)
}

struct TempArtifact(PathBuf);

static UNIQUE: AtomicU64 = AtomicU64::new(0);

impl TempArtifact {
    fn new(tag: &str, scorer: &DeployedScorer) -> TempArtifact {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "cnd_continual_{tag}_{}_{n}.txt",
            std::process::id()
        ));
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

struct Harness {
    server: Server,
    controller: ContinualController,
    client: ServeClient,
    original: DeployedScorer,
    _artifact: TempArtifact,
    events: Vec<ContinualEvent>,
}

fn harness(tag: &str, seed: u64, faults: Option<ScriptedFaults>) -> Harness {
    let (model, val) = bootstrap(seed);
    let original = model.freeze().expect("freezes");
    let artifact = TempArtifact::new(tag, &original);
    let mirror = TrafficMirror::new(4096);
    let server = Server::start(
        artifact.path(),
        "127.0.0.1:0",
        ServeConfig {
            max_batch: 32,
            queue_cap: 4096,
            mirror: Some(mirror.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let cfg = ContinualConfig {
        drift_window: 64,
        min_retrain_samples: 64,
        max_train_samples: 512,
        probation_samples: 48,
        probation_quantile: 0.95,
        probation_max_alert_rate: 0.5,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base_flows: 32,
            max_backoff_flows: 128,
        },
        ..ContinualConfig::default()
    };
    let mut controller =
        ContinualController::new(cfg, model, val, mirror).expect("controller builds");
    if let Some(f) = faults {
        controller.set_fault_injector(Box::new(f));
    }
    let client = ServeClient::connect(server.local_addr()).expect("client connects");
    Harness {
        server,
        controller,
        client,
        original,
        _artifact: artifact,
        events: Vec::new(),
    }
}

impl Harness {
    /// Scores `rows` through the wire; every request must be accepted
    /// and answered with a `Score` reply.
    fn send(&mut self, rows: &[Vec<f64>]) {
        for row in rows {
            match self.client.score(row).expect("transport ok") {
                Reply::Score { .. } => {}
                other => panic!("expected a score reply, got {other:?}"),
            }
        }
    }

    fn pump(&mut self) {
        let evs = self.controller.step(&self.server);
        self.events.extend(evs);
    }

    /// Sends `rows` in chunks, pumping the controller between chunks.
    fn drive(&mut self, rows: Vec<Vec<f64>>) {
        for chunk in rows.chunks(32) {
            self.send(chunk);
            // Let the batcher flush the mirror before pumping.
            std::thread::sleep(Duration::from_millis(5));
            self.pump();
        }
    }

    /// Pumps until the controller leaves `retraining` (trainer joined).
    fn await_trainer(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.controller.state_name() == "retraining" {
            assert!(Instant::now() < deadline, "trainer never finished");
            std::thread::sleep(Duration::from_millis(10));
            self.pump();
        }
    }

    fn saw<F: Fn(&ContinualEvent) -> bool>(&self, f: F) -> bool {
        self.events.iter().any(f)
    }

    /// Asserts the server scores `probe` bit-identically to `expected`
    /// and reports `version` on every reply.
    fn assert_serving(&mut self, expected: &DeployedScorer, version: u32, probe_phase: usize) {
        let probe = traffic(8, 0.4, probe_phase, 77);
        let x = Matrix::from_rows(&probe).expect("probe matrix");
        let want = expected.anomaly_scores(&x).expect("local scores");
        for (row, want) in probe.iter().zip(&want) {
            match self.client.score(row).expect("transport ok") {
                Reply::Score {
                    model_version,
                    score,
                    ..
                } => {
                    assert_eq!(model_version, version, "wrong serving version");
                    assert_eq!(
                        score.to_bits(),
                        want.to_bits(),
                        "served score must match the expected model bit-for-bit"
                    );
                }
                other => panic!("expected a score reply, got {other:?}"),
            }
        }
    }

    /// Drains the pipeline and asserts no accepted request was dropped.
    fn finish(mut self) {
        self.pump();
        let stats = self.server.shutdown();
        assert_eq!(stats.shed, 0, "test traffic should never be shed");
        assert_eq!(
            stats.scored, stats.accepted,
            "every accepted request must be scored"
        );
        assert_eq!(
            stats.reply_failures, 0,
            "every scored request got its reply"
        );
    }

    /// Establishes the drift monitor's reference window on normal
    /// traffic, then injects drifted traffic until retraining starts.
    fn drive_to_retrain(&mut self, seed: u64) {
        self.drive(traffic(192, 0.0, 0, seed));
        assert_eq!(self.controller.status().count(EventKind::DriftDetected), 0);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut phase = 0;
        while self.controller.status().count(EventKind::RetrainStarted) == 0 {
            assert!(Instant::now() < deadline, "drift never triggered a retrain");
            self.drive(traffic(64, 1.5, 5000 + phase, seed));
            phase += 64;
        }
        assert!(self.controller.status().count(EventKind::DriftDetected) >= 1);
        assert!(self.saw(|e| matches!(e, ContinualEvent::DriftDetected { .. })));
        assert!(self.saw(|e| matches!(e, ContinualEvent::RetrainStarted { .. })));
    }

    /// Feeds drifted traffic until the probation window resolves.
    fn drive_probation(&mut self, seed: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut phase = 0;
        while self.controller.state_name() == "probation" {
            assert!(Instant::now() < deadline, "probation never resolved");
            self.drive(traffic(32, 1.5, 9000 + phase, seed));
            phase += 32;
        }
    }
}

#[test]
fn injected_drift_yields_exactly_one_validated_swap() {
    let seed = 3;
    let mut h = harness("drift_swap", seed, None);
    h.drive_to_retrain(seed);
    h.await_trainer();

    let stats = h.controller.status();
    assert_eq!(
        stats.count(EventKind::Swapped),
        1,
        "exactly one canary swap: {stats:?}"
    );
    assert_eq!(
        stats.count(EventKind::ShadowRejected),
        0,
        "candidate passed the shadow gate"
    );
    assert_eq!(stats.count(EventKind::SwapRefused), 0);
    assert!(h.saw(|e| matches!(e, ContinualEvent::Swapped { version: 2, .. })));
    assert_eq!(h.server.model_version(), 2);

    h.drive_probation(seed);
    let stats = h.controller.status();
    assert_eq!(
        stats.count(EventKind::ProbationPassed),
        1,
        "canary survived: {stats:?}"
    );
    assert_eq!(stats.count(EventKind::RolledBack), 0);
    assert!(h.saw(|e| matches!(e, ContinualEvent::ProbationPassed { version: 2, .. })));

    // The new model now serves the drifted distribution: no further
    // drift verdicts, no second swap.
    h.drive(traffic(384, 1.5, 20_000, seed));
    h.await_trainer();
    let stats = h.controller.status();
    assert_eq!(
        stats.count(EventKind::Swapped),
        1,
        "drift must not re-fire post-swap: {stats:?}"
    );

    // The artifact on disk is the candidate; serving matches it
    // bit-for-bit.
    let disk = DeployedScorer::load_from_path(h.server.model_path()).expect("artifact loads");
    h.assert_serving(&disk, 2, 31);
    h.finish();
}

#[test]
fn corrupt_candidate_artifact_is_refused_and_loop_recovers() {
    let seed = 5;
    let faults = ScriptedFaults::new(seed).with_artifact_garbage_at(&[1]);
    let mut h = harness("garbage_artifact", seed, Some(faults));
    h.drive_to_retrain(seed);
    h.await_trainer();

    // The registry must refuse the unparseable candidate: zero bad
    // swaps, v1 keeps serving bit-for-bit.
    let stats = h.controller.status();
    assert_eq!(stats.count(EventKind::SwapRefused), 1, "{stats:?}");
    assert_eq!(stats.count(EventKind::Swapped), 0);
    assert!(h.saw(|e| matches!(e, ContinualEvent::SwapRefused { .. })));
    assert_eq!(h.server.model_version(), 1);
    assert_eq!(h.server.stats().reload_failures, 1);
    let original = h.original.clone();
    h.assert_serving(&original, 1, 11);

    // The controller restored a good artifact, so the next cycle (no
    // fault on attempt 2) swaps cleanly after backoff.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut phase = 0;
    while h.controller.status().count(EventKind::Swapped) == 0 {
        assert!(Instant::now() < deadline, "loop never recovered");
        h.drive(traffic(64, 1.5, 40_000 + phase, seed));
        h.await_trainer();
        phase += 64;
    }
    assert_eq!(h.server.model_version(), 2);
    h.drive_probation(seed);
    assert_eq!(h.controller.status().count(EventKind::RolledBack), 0);
    h.finish();
}

#[test]
fn trainer_panic_is_contained_and_loop_recovers() {
    let seed = 7;
    let faults = ScriptedFaults::new(seed).with_panic_at(&[1]);
    let mut h = harness("trainer_panic", seed, Some(faults));
    h.drive_to_retrain(seed);
    h.await_trainer();

    let stats = h.controller.status();
    assert_eq!(stats.trainer_panics, 1, "{stats:?}");
    assert_eq!(
        stats.count(EventKind::Swapped),
        0,
        "a crashed trainer must not swap anything"
    );
    assert!(h.saw(|e| matches!(e, ContinualEvent::TrainerFailed { .. })));
    assert_eq!(h.server.model_version(), 1);
    let original = h.original.clone();
    h.assert_serving(&original, 1, 13);

    // Attempt 2 has no fault: the loop retrains and swaps after
    // backoff.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut phase = 0;
    while h.controller.status().count(EventKind::Swapped) == 0 {
        assert!(Instant::now() < deadline, "loop never recovered");
        h.drive(traffic(64, 1.5, 60_000 + phase, seed));
        h.await_trainer();
        phase += 64;
    }
    assert_eq!(h.server.model_version(), 2);
    h.finish();
}

#[test]
fn poisoned_mirror_never_retrains_and_serving_stays_bit_stable() {
    let seed = 9;
    // Corrupt every mirrored sample: NaN / +Inf / huge-magnitude /
    // truncated rows, cycling.
    let faults = ScriptedFaults::new(seed).with_corruption_rate(1.0);
    let mut h = harness("poisoned_mirror", seed, Some(faults));

    // Even overtly drifted traffic cannot arm retraining when the
    // mirror is fully poisoned: every sample is quarantined before it
    // reaches the drift monitor or the training buffer.
    h.drive(traffic(192, 0.0, 0, seed));
    h.drive(traffic(256, 1.5, 5000, seed));
    let stats = h.controller.status();
    assert!(stats.quarantine.total() > 0, "{stats:?}");
    assert_eq!(stats.flows_seen, stats.quarantine.total());
    assert_eq!(stats.count(EventKind::DriftDetected), 0);
    assert_eq!(stats.count(EventKind::RetrainStarted), 0);
    assert_eq!(stats.count(EventKind::Swapped), 0);
    assert_eq!(h.controller.buffered_samples(), 0);

    assert_eq!(h.server.model_version(), 1);
    let original = h.original.clone();
    h.assert_serving(&original, 1, 17);
    h.finish();
}

#[test]
fn degraded_candidate_rolls_back_to_last_known_good() {
    let seed = 11;
    let faults = ScriptedFaults::new(seed).with_artifact_degraded_at(&[1]);
    let mut h = harness("degraded_rollback", seed, Some(faults));
    h.drive_to_retrain(seed);
    h.await_trainer();

    // The degraded artifact parses, so the swap goes through — this is
    // the silent failure only probation can catch.
    let stats = h.controller.status();
    assert_eq!(stats.count(EventKind::Swapped), 1, "{stats:?}");
    assert_eq!(h.server.model_version(), 2);
    assert_eq!(h.controller.state_name(), "probation");

    // Post-swap traffic scores enormously under the wrecked weights;
    // the alert-rate explosion inside the probation window triggers an
    // automatic rollback to the last-known-good model.
    h.drive_probation(seed);
    let stats = h.controller.status();
    assert_eq!(stats.count(EventKind::RolledBack), 1, "{stats:?}");
    assert_eq!(stats.count(EventKind::ProbationPassed), 0);
    assert!(h.saw(|e| matches!(
        e,
        ContinualEvent::RolledBack {
            from_version: 2,
            ..
        }
    )));

    // The rollback re-promoted the original weights under a new
    // version; scoring is bit-identical to the pre-swap model.
    let restored = h.server.model_version();
    assert!(restored > 2, "rollback promotes a fresh version");
    let original = h.original.clone();
    h.assert_serving(&original, restored, 19);
    assert_eq!(h.controller.known_good_versions().last(), Some(&restored));
    h.finish();
}
