//! Control-plane forensics e2e: a fault-injected continual run must be
//! fully reconstructable after the fact from the provenance ledger and
//! the `observe --timeline` view alone — every `ContinualEvent` carries
//! a cycle id that resolves to hash-chained ledger entries, and an
//! injected trainer panic leaves a schema-valid crash flight dump
//! behind.
//!
//! The artifacts written under `target/forensics/` are re-validated by
//! the CI `forensics-smoke` job with the real `obs-schema-check`
//! binary (`--require-provenance`) and `observe --timeline`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cnd_ids::core::deploy::DeployedScorer;
use cnd_ids::core::resilience::ScriptedFaults;
use cnd_ids::core::streaming::{ContinualEvent, EventKind, RetryPolicy};
use cnd_ids::core::{CndIds, CndIdsConfig};
use cnd_ids::linalg::Matrix;
use cnd_ids::obs;
use cnd_ids::obs::ledger::Disposition;
use cnd_ids::serve::{
    ContinualConfig, ContinualController, Reply, ServeClient, ServeConfig, Server, TrafficMirror,
    ValidationSet,
};

const D: usize = 6;

fn base(i: usize, j: usize, seed: u64) -> f64 {
    ((i * 7 + j * 3 + seed as usize) % 13) as f64 * 0.1
}

fn traffic(n: usize, offset: f64, phase: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..D).map(|j| base(i + phase, j, seed) + offset).collect())
        .collect()
}

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
            "cnd_forensics_{tag}_{}_{n}.txt",
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
    _artifact: TempArtifact,
    events: Vec<ContinualEvent>,
}

fn harness(tag: &str, seed: u64, faults: ScriptedFaults) -> Harness {
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
    controller.set_fault_injector(Box::new(faults));
    let client = ServeClient::connect(server.local_addr()).expect("client connects");
    Harness {
        server,
        controller,
        client,
        _artifact: artifact,
        events: Vec::new(),
    }
}

impl Harness {
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

    fn drive(&mut self, rows: Vec<Vec<f64>>) {
        for chunk in rows.chunks(32) {
            self.send(chunk);
            std::thread::sleep(Duration::from_millis(5));
            self.pump();
        }
    }

    fn await_trainer(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.controller.state_name() == "retraining" {
            assert!(Instant::now() < deadline, "trainer never finished");
            std::thread::sleep(Duration::from_millis(10));
            self.pump();
        }
    }

    fn drive_to_retrain(&mut self, seed: u64) {
        self.drive(traffic(192, 0.0, 0, seed));
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut phase = 0;
        while self.controller.status().count(EventKind::RetrainStarted) == 0 {
            assert!(Instant::now() < deadline, "drift never triggered a retrain");
            self.drive(traffic(64, 1.5, 5000 + phase, seed));
            phase += 64;
        }
    }

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

fn forensics_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("forensics");
    std::fs::create_dir_all(&dir).expect("forensics dir");
    dir
}

/// A degraded-weights canary (swap then probation rollback) must be
/// fully reconstructable from the ledger + timeline: exactly one swap
/// and one rollback attributed to the cycle, hash chain intact, and
/// every emitted event's cycle id resolving to ledger entries.
#[test]
fn degraded_swap_and_rollback_reconstruct_from_ledger_and_timeline() {
    let _session = obs::Session::wall();
    obs::flight::reset();
    let dir = forensics_dir();
    let ledger_path = dir.join("continual_ledger.jsonl");
    let trace_path = dir.join("continual_trace.jsonl");

    let seed = 11;
    let faults = ScriptedFaults::new(seed).with_artifact_degraded_at(&[1]);
    let mut h = harness("degraded", seed, faults);
    h.controller
        .set_ledger_path(&ledger_path)
        .expect("ledger attaches");

    h.drive_to_retrain(seed);
    h.await_trainer();
    assert_eq!(h.controller.status().count(EventKind::Swapped), 1);
    h.drive_probation(seed);
    assert_eq!(h.controller.status().count(EventKind::RolledBack), 1);

    // Every event belongs to the one minted cycle, and that cycle
    // resolves to ledger entries.
    assert!(!h.events.is_empty());
    for e in &h.events {
        assert_eq!(e.cycle(), 1, "event outside the armed cycle: {e}");
        assert!(
            !h.controller.ledger().cycle_entries(e.cycle()).is_empty(),
            "cycle {} resolves to no ledger entry",
            e.cycle()
        );
    }

    // The on-disk mirror and the in-memory ledger agree, the hash chain
    // verifies, and the cycle's dispositions are exactly one swap
    // followed by one rollback.
    let text = std::fs::read_to_string(&ledger_path).expect("ledger readable");
    assert_eq!(text, h.controller.ledger().to_jsonl());
    let entries = obs::ledger::verify(&text).expect("hash chain verifies");
    let kinds: Vec<Disposition> = entries
        .iter()
        .filter(|e| e.cycle == 1)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        vec![Disposition::Swapped, Disposition::RolledBack],
        "cycle 1 must be exactly swap -> rollback"
    );
    let swap = entries
        .iter()
        .find(|e| e.kind == Disposition::Swapped)
        .expect("swap entry");
    assert!(swap.drift.is_some(), "swap records its drift verdict");
    assert!(swap.samples.is_some(), "swap records sample provenance");
    assert!(swap.shadow.is_some(), "swap records the shadow gate result");
    assert_eq!(swap.version, 2);
    assert_eq!(swap.parent, 1, "candidate's parent is the bootstrap model");

    // A truncated tail (lost final entry) is detectable: the surviving
    // prefix still verifies but its head hash differs from the full
    // chain's, so a recorded head hash pins the complete history.
    let full_head = entries.last().expect("entries").hash;
    let truncated: Vec<&str> = text.lines().take(text.lines().count() - 1).collect();
    let truncated_entries =
        obs::ledger::verify(&(truncated.join("\n") + "\n")).expect("prefix verifies");
    assert_ne!(truncated_entries.last().expect("prefix").hash, full_head);

    // The trace's causal timeline renders the full chain for cycle 1 in
    // time order: detect -> retrain -> swap -> rollback.
    obs::write_jsonl(&trace_path).expect("trace writes");
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace readable");
    let tl = obs::timeline_report(&trace_text).expect("timeline parses");
    let chain = tl.chain(1).expect("cycle 1 chain present");
    let stages: Vec<&str> = chain.stages.iter().map(|s| s.kind.as_str()).collect();
    assert_eq!(
        stages,
        vec![
            "drift_detected",
            "retrain_started",
            "swapped",
            "rolled_back"
        ],
        "timeline must reconstruct the causal chain"
    );
    let rendered = tl.render();
    assert!(rendered.contains("cycle 1"));
    assert!(rendered.contains("rolled_back"));

    let stats = h.server.shutdown();
    assert_eq!(stats.shed, 0);
}

/// An injected trainer panic must leave a schema-valid flight dump at
/// the configured path, carrying cycle-attributed continual events
/// recorded before the crash.
#[test]
fn trainer_panic_writes_schema_valid_flight_dump() {
    let _session = obs::Session::wall();
    obs::flight::reset();
    let dir = forensics_dir();
    let dump_path = dir.join("flight_dump.jsonl");
    let _ = std::fs::remove_file(&dump_path);
    obs::flight::set_dump_path(Some(&dump_path));
    obs::flight::install_panic_hook();

    let seed = 7;
    let faults = ScriptedFaults::new(seed).with_panic_at(&[1]);
    let mut h = harness("panic", seed, faults);
    h.drive_to_retrain(seed);
    h.await_trainer();
    assert_eq!(h.controller.status().trainer_panics, 1);
    assert!(h
        .events
        .iter()
        .any(|e| matches!(e, ContinualEvent::TrainerFailed { cycle: 1, .. })));

    // The panic hook fired inside the trainer thread and dumped the
    // ring; the dump passes schema validation and names the cause.
    let text = std::fs::read_to_string(&dump_path).expect("flight dump written");
    let (cause, events) = obs::flight::validate_flight(&text).expect("dump validates");
    assert!(
        cause.contains("injected trainer panic"),
        "cause is the panic message: {cause}"
    );
    assert!(events > 0);
    // Pre-crash continual events carry their cycle id, so the dump is
    // attributable to the cycle that crashed.
    assert!(
        text.lines().any(|l| l.contains("\"cycle\":1")),
        "dump carries cycle-attributed events"
    );

    obs::flight::set_dump_path(None);
    let stats = h.server.shutdown();
    assert_eq!(stats.shed, 0);
}
