//! Closed-loop continual serving: drift detection → background retrain
//! → shadow validation → canary swap → probation → rollback.
//!
//! The pieces built by earlier layers — streaming retrain with a
//! watchdog (`cnd_core::resilience`), PSI/KL drift verdicts
//! ([`cnd_obs::DriftMonitor`]), and hot-swap serving
//! ([`crate::registry::ModelRegistry`]) — exist but are open-loop: an
//! operator has to notice drift, retrain offline, and swap by hand,
//! and a bad candidate goes live with no safety net. This module closes
//! the loop:
//!
//! ```text
//!          ┌────────────────────────────────────────────────┐
//!          ▼                                                │
//!      [Stable] ──drift verdict──▶ [Retraining] (bg thread) │
//!          ▲                            │ candidate          │
//!          │                            ▼                    │
//!          │ reject / trainer fault  [Shadow] val-set F1 /   │
//!          ├────────────────────────  PR-AUC vs live model   │
//!          │                            │ pass               │
//!          │                            ▼                    │
//!          │ refuse (bad artifact)  [Canary swap]            │
//!          ├────────────────────────    │ swapped            │
//!          │                            ▼                    │
//!          │     rollback to LKG    [Probation]──pass────────┘
//!          └────────────────────────    (alert-rate / error
//!                                        spike window)
//! ```
//!
//! * **Traffic mirror.** The scoring hot path pushes every scored flow
//!   (features + score + model version) into a bounded [`TrafficMirror`];
//!   beyond capacity the oldest samples are dropped and counted. The
//!   controller drains the mirror on every [`ContinualController::step`].
//! * **Continual core.** Drained samples go through a
//!   [`ContinualCore`]: its input guard quarantines poisoned samples,
//!   live scores fill its PSI / symmetric-KL drift windows (a drifted
//!   verdict arms retraining), accepted samples feed its replay
//!   reservoir, and it counts the retry backoff.
//! * **Background retrain.** A clone of the trainable model learns the
//!   mirrored (drifted) traffic as a new experience on a dedicated
//!   thread — a trainer panic or error is contained by the join and
//!   can never touch the serving path.
//! * **Shadow gate.** The candidate is scored on a held-out *labeled*
//!   validation set alongside the live model and must stay within
//!   bench-check-style absolute tolerances on F1 and PR-AUC; any
//!   non-finite score is an automatic reject.
//! * **Canary swap + probation.** Only a passing candidate is written
//!   to the artifact path and swapped through the registry (which
//!   re-validates the artifact — unparseable candidates are refused
//!   with the old model still serving). The freshly swapped model then
//!   serves a probation window; an alert-rate explosion or server
//!   error spike rolls back to the last-known-good ledger entry.
//!   `DeployedScorer`'s bit-exact text round-trip makes the restored
//!   model score identically to the original.
//! * **Fault injection.** The controller accepts a
//!   [`FaultInjector`] whose
//!   training/artifact/flow faults exercise every failure edge above
//!   deterministically.
//!
//! * **Events.** Every transition is a [`ContinualEvent`] recorded once
//!   by [`ContinualCore::record`], as the `stream` host's are: a `cevent`
//!   trace line, a flight-ring entry, a volatile `continual.<name>.count`
//!   counter, and for each disposition a provenance-ledger entry.
//!   [`ContinualController::status`] is the same [`ContinualStatus`]
//!   `stream --health` prints.
//!
//! Failed cycles back off exponentially (measured in accepted mirror
//! samples, by the core's [`RetryPolicy`]) so a persistently failing
//! environment cannot hot-loop retraining.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cnd_core::deploy::DeployedScorer;
use cnd_core::resilience::LastKnownGood;
use cnd_core::streaming::{
    train_attempt, ArtifactFault, ContinualCore, ContinualEvent, ContinualStatus, FaultInjector,
    Host, LedgerSink, RetryPolicy, StreamingConfig, TrainingFault, Trigger,
};
use cnd_core::{CndIds, CoreError};
use cnd_linalg::Matrix;
use cnd_metrics::curve::pr_auc;
use cnd_metrics::threshold::{best_f1_threshold, quantile_threshold};
use cnd_obs::ledger::{Ledger, ShadowProvenance};
use cnd_store::{StoreMeta, StoreWriter};

use crate::server::Server;
use crate::ServeError;

/// One scored flow captured from the serving hot path.
#[derive(Debug, Clone)]
pub struct MirrorSample {
    /// The flow's feature vector as scored.
    pub features: Vec<f64>,
    /// The anomaly score the serving model produced.
    pub score: f64,
    /// The model version that produced the score.
    pub model_version: u32,
}

#[derive(Debug)]
struct MirrorInner {
    queue: VecDeque<MirrorSample>,
    capacity: usize,
    seen: u64,
    dropped: u64,
    /// Out-of-core overflow: evicted samples are appended here instead
    /// of vanishing. `None` when spilling is off or permanently failed.
    spill: Option<StoreWriter>,
    spill_errors: u64,
}

/// Bounded, thread-safe buffer of recently scored traffic.
///
/// Cloning yields another handle to the same buffer: one clone goes
/// into [`crate::ServeConfig::mirror`] for the hot path to push into,
/// the other to the [`ContinualController`] that drains it. Past
/// `capacity` the oldest samples are dropped (and counted) rather than
/// blocking the scoring path.
#[derive(Debug, Clone)]
pub struct TrafficMirror {
    inner: Arc<Mutex<MirrorInner>>,
}

impl TrafficMirror {
    /// An empty mirror retaining at most `capacity` samples (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        TrafficMirror {
            inner: Arc::new(Mutex::new(MirrorInner {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                seen: 0,
                dropped: 0,
                spill: None,
                spill_errors: 0,
            })),
        }
    }

    /// A mirror that appends every sample it would otherwise evict to a
    /// `.cnds` [`StoreWriter`], so retrospective analysis (or a later
    /// out-of-core retrain) can still see traffic the bounded queue had
    /// to shed. Call [`finish_spill`](TrafficMirror::finish_spill) at
    /// shutdown to seal the store.
    pub fn with_spill(capacity: usize, writer: StoreWriter) -> Self {
        let mirror = TrafficMirror::new(capacity);
        mirror.inner.lock().unwrap_or_else(|e| e.into_inner()).spill = Some(writer);
        mirror
    }

    /// Pushes one scored flow, evicting the oldest beyond capacity.
    pub fn push(&self, sample: MirrorSample) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.seen += 1;
        if g.queue.len() >= g.capacity {
            let evicted = g.queue.pop_front();
            g.dropped += 1;
            if let (Some(spill), Some(victim)) = (g.spill.as_mut(), evicted) {
                if spill.push_row(&victim.features, None).is_err() {
                    // One failed append means the file is suspect; stop
                    // spilling rather than risk blocking the hot path
                    // on a sick disk. The counter records the outage.
                    g.spill = None;
                    g.spill_errors += 1;
                    cnd_obs::counter_add_volatile("store.spill.errors.count", 1);
                }
            }
        }
        g.queue.push_back(sample);
    }

    /// Finalizes the spill store, returning its metadata (`None` when
    /// no spill was configured or it already failed). After this the
    /// mirror keeps serving but evictions are no longer preserved.
    pub fn finish_spill(&self) -> Option<StoreMeta> {
        let writer = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spill
            .take()?;
        writer.finalize().ok()
    }

    /// Takes every buffered sample, oldest first.
    pub fn drain(&self) -> Vec<MirrorSample> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.queue.drain(..).collect()
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples ever pushed.
    pub fn seen(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seen
    }

    /// Samples evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }
}

/// Labeled held-out data the shadow gate scores both models on.
#[derive(Debug, Clone)]
pub struct ValidationSet {
    x: Matrix,
    y: Vec<u8>,
}

impl ValidationSet {
    /// Builds a validation set from features `x` and binary labels `y`
    /// (`1` = attack).
    ///
    /// # Errors
    ///
    /// Rejects a row/label length mismatch and label sets missing
    /// either class — Best-F threshold selection (and therefore the
    /// shadow gate) is undefined without both.
    pub fn new(x: Matrix, y: Vec<u8>) -> Result<Self, ServeError> {
        if x.rows() != y.len() {
            return Err(ServeError::InvalidConfig {
                name: "validation",
                constraint: "feature rows and labels must have equal length",
            });
        }
        if x.rows() == 0 {
            return Err(ServeError::InvalidConfig {
                name: "validation",
                constraint: "must be non-empty",
            });
        }
        let pos = y.iter().filter(|&&l| l != 0).count();
        if pos == 0 || pos == y.len() {
            return Err(ServeError::InvalidConfig {
                name: "validation",
                constraint: "must contain both normal and attack labels",
            });
        }
        Ok(ValidationSet { x, y })
    }

    /// Number of labeled rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature width.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }
}

/// Tuning knobs for the closed loop.
#[derive(Debug, Clone)]
pub struct ContinualConfig {
    /// Live scores per drift window; a PSI/KL verdict is computed every
    /// time this many scores from the serving model have been observed.
    pub drift_window: usize,
    /// Mirrored samples required before a retrain may start.
    pub min_retrain_samples: usize,
    /// Capacity of the replay reservoir: a seeded uniform sample of the
    /// traffic accepted since the last swap, so long drift episodes do
    /// not silently forget their early flows.
    pub max_train_samples: usize,
    /// Shadow gate: candidate F1 must be at least `live F1 − this`.
    pub f1_tolerance: f64,
    /// Shadow gate: candidate PR-AUC must be at least `live PR-AUC −
    /// this`.
    pub pr_auc_tolerance: f64,
    /// Post-swap scores the canary must serve before probation is
    /// judged.
    pub probation_samples: usize,
    /// Quantile of the candidate's shadow scores used as the probation
    /// alert threshold τ.
    pub probation_quantile: f64,
    /// Probation fails when the fraction of post-swap scores above τ
    /// (plus any non-finite scores) exceeds this.
    pub probation_max_alert_rate: f64,
    /// Probation fails when server-side errors (bad frames + reply
    /// failures) during the window exceed this.
    pub probation_max_errors: u64,
    /// Backoff policy for failed cycles, measured in accepted mirror
    /// samples (`max_attempts` is not used by the loop — it retries
    /// indefinitely with capped backoff).
    pub retry: RetryPolicy,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        ContinualConfig {
            drift_window: 256,
            min_retrain_samples: 256,
            max_train_samples: 4096,
            f1_tolerance: 0.05,
            pr_auc_tolerance: 0.05,
            probation_samples: 128,
            probation_quantile: 0.99,
            probation_max_alert_rate: 0.5,
            probation_max_errors: 10,
            retry: RetryPolicy::default(),
        }
    }
}

impl ContinualConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.drift_window < 2 {
            return Err(ServeError::InvalidConfig {
                name: "drift_window",
                constraint: "must be >= 2",
            });
        }
        if self.min_retrain_samples == 0 {
            return Err(ServeError::InvalidConfig {
                name: "min_retrain_samples",
                constraint: "must be >= 1",
            });
        }
        if self.max_train_samples < self.min_retrain_samples {
            return Err(ServeError::InvalidConfig {
                name: "max_train_samples",
                constraint: "must be >= min_retrain_samples",
            });
        }
        if !self.f1_tolerance.is_finite() || self.f1_tolerance < 0.0 {
            return Err(ServeError::InvalidConfig {
                name: "f1_tolerance",
                constraint: "must be finite and >= 0",
            });
        }
        if !self.pr_auc_tolerance.is_finite() || self.pr_auc_tolerance < 0.0 {
            return Err(ServeError::InvalidConfig {
                name: "pr_auc_tolerance",
                constraint: "must be finite and >= 0",
            });
        }
        if self.probation_samples == 0 {
            return Err(ServeError::InvalidConfig {
                name: "probation_samples",
                constraint: "must be >= 1",
            });
        }
        if !(0.0..=1.0).contains(&self.probation_quantile) {
            return Err(ServeError::InvalidConfig {
                name: "probation_quantile",
                constraint: "must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.probation_max_alert_rate) {
            return Err(ServeError::InvalidConfig {
                name: "probation_max_alert_rate",
                constraint: "must be in [0, 1]",
            });
        }
        Ok(())
    }
}

/// The shadow gate's comparison of the candidate against the live
/// model on the held-out validation set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowReport {
    /// Both models' Best-F1 and PR-AUC on the validation set, and the
    /// probation alert threshold τ: the configured quantile of the
    /// candidate's scores on the mirrored traffic.
    pub scores: ShadowProvenance,
    /// Non-finite candidate scores observed (validation + mirror);
    /// any non-zero count fails the gate.
    pub nonfinite_scores: u64,
    /// Whether the candidate passed the gate.
    pub passed: bool,
}

/// What a successful background training attempt hands back.
type TrainOutcome = Result<(CndIds, DeployedScorer), CoreError>;

enum State {
    /// Serving steadily; watching the score stream for drift.
    Stable,
    /// A background trainer owns a clone of the model.
    Retraining {
        handle: JoinHandle<TrainOutcome>,
        artifact_fault: Option<ArtifactFault>,
        shadow: Matrix,
        attempt: u64,
    },
    /// A freshly swapped canary is serving under observation.
    Probation(Box<Probation>),
}

/// A swapped canary's probation window.
struct Probation {
    version: u32,
    tau: f64,
    candidate: DeployedScorer,
    prev_model: CndIds,
    scores: Vec<f64>,
    nonfinite: u64,
    baseline_errors: u64,
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::Stable => "stable",
            State::Retraining { .. } => "retraining",
            State::Probation(_) => "probation",
        }
    }
}

/// The closed-loop controller: drains the [`TrafficMirror`], watches
/// for drift, retrains in the background, shadow-validates candidates,
/// canary-swaps them through the server's registry, and rolls back on
/// post-swap degradation.
///
/// [`step`](Self::step) is a synchronous pump — call it periodically
/// (the CLI's `serve --continual` loop does so every ~100 ms). Only the
/// training itself runs on a background thread, so a trainer panic is
/// contained by the join and every state transition happens
/// deterministically inside `step`.
pub struct ContinualController {
    cfg: ContinualConfig,
    model: CndIds,
    val: ValidationSet,
    mirror: TrafficMirror,
    known_good: LastKnownGood,
    provenance: Ledger,
    cycle_parent: u64,
    core: ContinualCore,
    state: State,
    live_scorer: DeployedScorer,
    live_version: u32,
    synced: bool,
}

impl ContinualController {
    /// Builds a controller around a *trained* model whose frozen scorer
    /// is what the attached server is currently serving.
    ///
    /// # Errors
    ///
    /// Fails on an invalid config, an untrained model, or a validation
    /// set whose feature width does not match the model.
    pub fn new(
        cfg: ContinualConfig,
        model: CndIds,
        validation: ValidationSet,
        mirror: TrafficMirror,
    ) -> Result<ContinualController, ServeError> {
        cfg.validate()?;
        let live_scorer = model.freeze()?;
        if validation.n_features() != live_scorer.n_features() {
            return Err(ServeError::DimMismatch {
                expected: live_scorer.n_features(),
                got: validation.n_features(),
            });
        }
        // The core registers its event counters; this one counts
        // samples, not events.
        cnd_obs::counter_add_volatile("continual.poisoned.count", 0);
        let streaming = StreamingConfig {
            max_buffer: cfg.max_train_samples,
            // The served model is already trained: no bootstrap trigger.
            bootstrap_batch: cfg.max_train_samples,
            min_batch: cfg.min_retrain_samples,
            drift_window: cfg.drift_window,
        };
        let core = ContinualCore::new(model.scaler(), streaming, cfg.retry, Host::Serve);
        Ok(ContinualController {
            cfg,
            model,
            val: validation,
            mirror,
            known_good: LastKnownGood::new(4),
            provenance: Ledger::new(),
            cycle_parent: 0,
            core,
            state: State::Stable,
            live_scorer,
            live_version: 0,
            synced: false,
        })
    }

    /// Installs a deterministic fault source (mirror poisoning, trainer
    /// faults, artifact corruption) for tests and fire drills.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector + Send>) {
        self.core.set_fault_injector(injector);
    }

    /// Status snapshot: the core's state and its event counts.
    pub fn status(&self) -> ContinualStatus {
        self.core.status(self.model.experiences_trained())
    }

    /// Current state machine position (`stable` / `retraining` /
    /// `probation`).
    pub fn state_name(&self) -> &'static str {
        self.state.name()
    }

    /// Versions currently in the last-known-good ledger, oldest first.
    pub fn known_good_versions(&self) -> Vec<u32> {
        self.known_good.versions()
    }

    /// The append-only model-provenance ledger: one hash-chained entry
    /// per lifecycle disposition (trainer failure, shadow rejection,
    /// swap refusal, swap, probation verdict, rollback).
    pub fn ledger(&self) -> &Ledger {
        &self.provenance
    }

    /// Mirrors every future ledger entry (and the entries already
    /// recorded) to a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating or writing the file.
    pub fn set_ledger_path(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.provenance.attach_path(path)
    }

    /// Mirrored samples currently buffered for the next retrain.
    pub fn buffered_samples(&self) -> usize {
        self.core.buffered()
    }

    /// Pumps the loop once: drains the mirror, advances the state
    /// machine, and returns every transition that happened. Each event
    /// was recorded by [`ContinualCore::record`] as it happened: trace,
    /// flight ring, metrics and provenance ledger.
    pub fn step(&mut self, server: &Server) -> Vec<ContinualEvent> {
        if !self.synced {
            self.live_version = server.model_version();
            self.known_good
                .record(self.live_version, self.live_scorer.clone());
            self.synced = true;
        }
        let mut events = Vec::new();
        match std::mem::replace(&mut self.state, State::Stable) {
            State::Stable => {
                self.ingest_stable(&mut events);
                self.maybe_start_retrain(&mut events);
            }
            State::Retraining {
                handle,
                artifact_fault,
                shadow,
                attempt,
            } => {
                // Keep the mirror bounded while training runs; the
                // drained traffic still feeds the reservoir.
                for sample in self.drain_sanitized() {
                    self.core.offer(sample.features);
                }
                if !handle.is_finished() {
                    self.state = State::Retraining {
                        handle,
                        artifact_fault,
                        shadow,
                        attempt,
                    };
                    return events;
                }
                let samples = Some(shadow.rows());
                match handle.join() {
                    Err(_) => {
                        let reason = format!("trainer thread panicked (attempt {attempt})");
                        self.trainer_failed(reason, samples, true, &mut events);
                    }
                    Ok(Err(e)) => {
                        let reason = format!("attempt {attempt}: {e}");
                        self.trainer_failed(reason, samples, false, &mut events);
                    }
                    Ok(Ok((new_model, candidate))) => {
                        self.judge_candidate(
                            server,
                            new_model,
                            candidate,
                            artifact_fault,
                            &shadow,
                            &mut events,
                        );
                    }
                }
            }
            State::Probation(mut p) => {
                for sample in self.drain_sanitized() {
                    if sample.model_version == p.version {
                        if sample.score.is_finite() {
                            p.scores.push(sample.score);
                        } else {
                            p.nonfinite += 1;
                        }
                    }
                }
                let observed = p.scores.len() + p.nonfinite as usize;
                if observed < self.cfg.probation_samples {
                    self.state = State::Probation(p);
                    return events;
                }
                let alerts = p.scores.iter().filter(|&&s| s > p.tau).count() as u64 + p.nonfinite;
                let alert_rate = alerts as f64 / observed as f64;
                let errors = error_snapshot(server).saturating_sub(p.baseline_errors);
                let degraded = alert_rate > self.cfg.probation_max_alert_rate
                    || errors > self.cfg.probation_max_errors;
                if degraded {
                    self.roll_back(server, p, alert_rate, &mut events);
                } else {
                    let version = p.version;
                    self.known_good.record(version, p.candidate);
                    self.core.succeeded();
                    let event = ContinualEvent::ProbationPassed {
                        cycle: self.core.cycle(),
                        version,
                        alert_rate,
                    };
                    self.record(event, &mut events);
                }
            }
        }
        events
    }

    /// Records `event` through the core, with this host's ledger.
    fn record(&mut self, event: ContinualEvent, events: &mut Vec<ContinualEvent>) {
        let sink = LedgerSink {
            ledger: &mut self.provenance,
            parent: self.cycle_parent,
            mirror_seen: self.mirror.seen(),
            mirror_dropped: self.mirror.dropped(),
        };
        self.core.record(event, Some(sink), events);
    }

    /// Drains the mirror through the core's fault injector and input
    /// guard, keeping the samples it accepts.
    fn drain_sanitized(&mut self) -> Vec<MirrorSample> {
        let mut samples = self.mirror.drain();
        samples.retain_mut(|sample| {
            let poisoned = self.core.screen(&mut sample.features).is_some();
            if poisoned {
                cnd_obs::counter_add_volatile("continual.poisoned.count", 1);
            }
            !poisoned
        });
        samples
    }

    fn ingest_stable(&mut self, events: &mut Vec<ContinualEvent>) {
        let live_version = self.live_version;
        for sample in self.drain_sanitized() {
            if sample.model_version == live_version {
                let cycle = self.core.cycle();
                self.core.observe_score(sample.score, events);
                if self.core.cycle() != cycle {
                    // A verdict armed a new cycle: its ledger entries
                    // name the model serving now as their parent.
                    self.cycle_parent = u64::from(live_version);
                }
            }
            self.core.offer(sample.features);
        }
    }

    fn maybe_start_retrain(&mut self, events: &mut Vec<ContinualEvent>) {
        if !self.core.drift_ready() {
            return;
        }
        let Ok(attempt) = self.core.begin_attempt() else {
            return;
        };
        let (number, fault) = (attempt.number, attempt.fault);
        let batch = attempt.batch.clone();
        let mut model = self.model.clone();
        let cycle = self.core.cycle();
        // Breadcrumb BEFORE the spawn: the trainer may die (or be
        // fault-injected to panic) before step() records this attempt's
        // events into the flight ring, and a crash dump must still
        // attribute the in-flight work to its cycle.
        cnd_obs::flight::record(
            Host::Serve.as_str(),
            "retrain_spawning",
            Some(cycle),
            &format!("attempt {number}, {} samples", batch.rows()),
        );
        let spawned = std::thread::Builder::new()
            .name("cnd-continual-train".into())
            .spawn(move || -> TrainOutcome {
                let _span = cnd_obs::span!("continual.retrain", cycle = cycle);
                if fault == Some(TrainingFault::Panic) {
                    panic!("injected trainer panic");
                }
                train_attempt(&mut model, &batch, fault)?;
                let scorer = model.freeze()?;
                Ok((model, scorer))
            });
        match spawned {
            Ok(handle) => {
                let event = ContinualEvent::RetrainStarted {
                    cycle,
                    trigger: Trigger::DriftDetected,
                    samples: attempt.batch.rows(),
                    attempt: number,
                };
                self.record(event, events);
                self.state = State::Retraining {
                    handle,
                    artifact_fault: attempt.artifact_fault,
                    shadow: attempt.batch,
                    attempt: number,
                };
            }
            Err(e) => self.trainer_failed(format!("spawn failed: {e}"), None, false, events),
        }
    }

    fn judge_candidate(
        &mut self,
        server: &Server,
        new_model: CndIds,
        candidate: DeployedScorer,
        artifact_fault: Option<ArtifactFault>,
        shadow: &Matrix,
        events: &mut Vec<ContinualEvent>,
    ) {
        let cycle = self.core.cycle();
        let samples = shadow.rows();
        let report = {
            let _span = cnd_obs::span!("continual.shadow", cycle = cycle);
            self.shadow_evaluate(&candidate, shadow)
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                let reason = format!("shadow evaluation failed: {e}");
                self.trainer_failed(reason, Some(samples), false, events);
                return;
            }
        };
        if !report.passed {
            self.core.failed();
            let event = ContinualEvent::CandidateRejected {
                cycle,
                samples,
                shadow: report.scores,
                nonfinite: report.nonfinite_scores,
            };
            self.record(event, events);
            return;
        }
        // Canary swap: remember the serving model as a rollback target,
        // write the candidate artifact, and swap through the registry
        // (which refuses unloadable or mismatched artifacts outright).
        let _span = cnd_obs::span!("continual.swap", cycle = cycle);
        self.known_good
            .record(self.live_version, self.live_scorer.clone());
        let path = server.model_path().to_path_buf();
        let write_result = match artifact_fault {
            None => candidate.save_to_path(&path),
            Some(ArtifactFault::Garbage) => {
                std::fs::write(&path, b"not a model artifact\n").map_err(CoreError::Io)
            }
            Some(ArtifactFault::DegradedWeights) => write_degraded(&candidate, &path),
        };
        let swapped = write_result
            .map_err(|e| format!("artifact write failed: {e}"))
            .and_then(|()| server.reload().map_err(|e| e.to_string()));
        match swapped {
            Err(reason) => {
                // Restore a good artifact so watchers and later swaps
                // never see the corrupt bytes.
                let _ = self.live_scorer.save_to_path(&path);
                self.core.failed();
                let event = ContinualEvent::SwapRefused {
                    cycle,
                    samples,
                    shadow: report.scores,
                    reason,
                };
                self.record(event, events);
            }
            Ok(version) => {
                let event = ContinualEvent::Swapped {
                    cycle,
                    samples,
                    version,
                    shadow: report.scores,
                };
                self.record(event, events);
                let prev_model = std::mem::replace(&mut self.model, new_model);
                self.live_version = version;
                self.live_scorer = candidate.clone();
                // The swap resets drift accounting: the new model's
                // score distribution becomes the reference.
                self.core.reset_drift();
                self.core.clear_buffer();
                self.state = State::Probation(Box::new(Probation {
                    version,
                    tau: report.scores.tau,
                    candidate,
                    prev_model,
                    scores: Vec::new(),
                    nonfinite: 0,
                    baseline_errors: error_snapshot(server),
                }));
            }
        }
    }

    fn roll_back(
        &mut self,
        server: &Server,
        probation: Box<Probation>,
        alert_rate: f64,
        events: &mut Vec<ContinualEvent>,
    ) {
        let Some((_, good)) = self.known_good.current() else {
            // Cannot happen: the pre-swap model is always recorded.
            return;
        };
        let good = good.clone();
        let path = server.model_path().to_path_buf();
        let restore = good
            .save_to_path(&path)
            .map_err(ServeError::from)
            .and_then(|()| server.reload());
        let cycle = self.core.cycle();
        match restore {
            Ok(restored_version) => {
                self.live_version = restored_version;
                self.live_scorer = good.clone();
                self.known_good.record(restored_version, good);
                let event = ContinualEvent::RolledBack {
                    cycle,
                    from_version: probation.version,
                    restored_version,
                    alert_rate,
                };
                self.model = probation.prev_model;
                self.core.failed();
                self.core.reset_drift();
                self.record(event, events);
            }
            Err(e) => {
                let event = ContinualEvent::RollbackFailed {
                    cycle,
                    reason: e.to_string(),
                };
                self.record(event, events);
                // Stay in probation and retry the rollback next step.
                self.state = State::Probation(probation);
            }
        }
    }

    /// A failed attempt backs off (`core.failed()`) but keeps the drift
    /// episode, and its cycle id, armed: the retry joins the same cycle.
    fn trainer_failed(
        &mut self,
        reason: String,
        samples: Option<usize>,
        panicked: bool,
        events: &mut Vec<ContinualEvent>,
    ) {
        self.core.failed();
        let event = ContinualEvent::TrainerFailed {
            cycle: self.core.cycle(),
            reason,
            samples,
            panicked,
            mode: self.core.mode(),
        };
        self.record(event, events);
    }

    fn shadow_evaluate(
        &self,
        candidate: &DeployedScorer,
        shadow: &Matrix,
    ) -> Result<ShadowReport, ServeError> {
        let live_scores = self.live_scorer.anomaly_scores(&self.val.x)?;
        let cand_scores = candidate.anomaly_scores(&self.val.x)?;
        let mut nonfinite = cand_scores.iter().filter(|s| !s.is_finite()).count() as u64;
        let live_sel = best_f1_threshold(&live_scores, &self.val.y)
            .map_err(|e| ServeError::Model(CoreError::from(e)))?;
        // A candidate producing non-finite validation scores cannot be
        // thresholded; gate it out before Best-F selection.
        let (cand_f1, cand_pr_auc) = if nonfinite == 0 {
            let sel = best_f1_threshold(&cand_scores, &self.val.y)
                .map_err(|e| ServeError::Model(CoreError::from(e)))?;
            let pr = pr_auc(&cand_scores, &self.val.y)
                .map_err(|e| ServeError::Model(CoreError::from(e)))?;
            (sel.f1, pr)
        } else {
            (0.0, 0.0)
        };
        let live_pr_auc =
            pr_auc(&live_scores, &self.val.y).map_err(|e| ServeError::Model(CoreError::from(e)))?;
        // Probation τ comes from the candidate's own scores on the
        // mirrored (drifted) traffic it was trained on: a healthy
        // canary serving the same traffic should rarely exceed it.
        let mirror_scores = candidate.anomaly_scores(shadow)?;
        let finite_mirror: Vec<f64> = mirror_scores
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect();
        nonfinite += (mirror_scores.len() - finite_mirror.len()) as u64;
        let tau = if finite_mirror.is_empty() {
            f64::INFINITY
        } else {
            quantile_threshold(&finite_mirror, self.cfg.probation_quantile)
                .map_err(|e| ServeError::Model(CoreError::from(e)))?
        };
        let passed = nonfinite == 0
            && cand_f1 >= live_sel.f1 - self.cfg.f1_tolerance
            && cand_pr_auc >= live_pr_auc - self.cfg.pr_auc_tolerance;
        Ok(ShadowReport {
            scores: ShadowProvenance {
                live_f1: live_sel.f1,
                cand_f1,
                live_pr_auc,
                cand_pr_auc,
                tau,
            },
            nonfinite_scores: nonfinite,
            passed,
        })
    }
}

impl std::fmt::Debug for ContinualController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinualController")
            .field("state", &self.state.name())
            .field("live_version", &self.live_version)
            .field("status", &self.status())
            .finish()
    }
}

/// Total server-side error count used for the probation error-spike
/// criterion.
fn error_snapshot(server: &Server) -> u64 {
    let s = server.stats();
    s.bad_frames + s.reply_failures
}

/// Writes a *parseable but wrong* artifact: the serialized candidate
/// with its PCA mean replaced by a huge constant. The loader accepts it
/// (all values finite, dimensions intact) but every score it produces
/// is enormous — exactly the silent-degradation failure mode the
/// probation window exists to catch.
fn write_degraded(candidate: &DeployedScorer, path: &std::path::Path) -> Result<(), CoreError> {
    let mut buf = Vec::new();
    candidate.save(&mut buf).map_err(CoreError::Io)?;
    let text = String::from_utf8(buf).map_err(|_| CoreError::CorruptModel {
        reason: "artifact is not utf-8",
    })?;
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let pca_header =
        lines
            .iter()
            .position(|l| l.starts_with("pca "))
            .ok_or(CoreError::CorruptModel {
                reason: "no pca section in artifact",
            })?;
    let n_features = candidate.n_features().max(1);
    // PCA operates on the encoder's latent width, which the header
    // records as its first field.
    let latent: usize = lines[pca_header]
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(n_features);
    let mean_line = pca_header + 1;
    if mean_line >= lines.len() {
        return Err(CoreError::CorruptModel {
            reason: "truncated pca section",
        });
    }
    lines[mean_line] = vec!["1.00000000000000000e6"; latent].join(" ");
    let mut degraded = lines.join("\n");
    degraded.push('\n');
    std::fs::write(path, degraded).map_err(CoreError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{trained_scorer, TempArtifact};

    #[test]
    fn mirror_is_bounded_and_counts_drops() {
        let m = TrafficMirror::new(3);
        for i in 0..5 {
            m.push(MirrorSample {
                features: vec![i as f64],
                score: i as f64,
                model_version: 1,
            });
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.seen(), 5);
        assert_eq!(m.dropped(), 2);
        let drained = m.drain();
        assert_eq!(drained.len(), 3);
        // Oldest were evicted: samples 2, 3, 4 remain in order.
        assert_eq!(drained[0].features[0], 2.0);
        assert_eq!(drained[2].features[0], 4.0);
        assert!(m.is_empty());
        assert_eq!(m.dropped(), 2);
    }

    #[test]
    fn mirror_spills_evictions_to_store() {
        let mut path = std::env::temp_dir();
        path.push(format!("cnd_serve_spill_{}.cnds", std::process::id()));
        let writer = StoreWriter::create(&path, 1, cnd_store::DType::F64, false).unwrap();
        let m = TrafficMirror::with_spill(3, writer);
        for i in 0..10 {
            m.push(MirrorSample {
                features: vec![i as f64],
                score: 0.0,
                model_version: 1,
            });
        }
        let meta = m.finish_spill().expect("spill store finalizes");
        assert_eq!(meta.count, m.dropped(), "every eviction is preserved");
        let store = cnd_store::FlowStore::open(&path).unwrap();
        let rows = store.read_rows(0, meta.count as usize).unwrap();
        // Evictions happen oldest-first: samples 0..7 spill in order.
        for (i, row) in rows.rows.iter_rows().enumerate() {
            assert_eq!(row[0], i as f64);
        }
        // A second finish is a clean no-op.
        assert!(m.finish_spill().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mirror_capacity_clamps_to_one() {
        let m = TrafficMirror::new(0);
        m.push(MirrorSample {
            features: vec![1.0],
            score: 0.0,
            model_version: 1,
        });
        m.push(MirrorSample {
            features: vec![2.0],
            score: 0.0,
            model_version: 1,
        });
        assert_eq!(m.len(), 1);
        assert_eq!(m.dropped(), 1);
    }

    #[test]
    fn validation_set_rejects_malformed_input() {
        let x = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        assert!(ValidationSet::new(x.clone(), vec![0, 1, 0]).is_err());
        assert!(ValidationSet::new(x.clone(), vec![0, 0, 0, 0]).is_err());
        assert!(ValidationSet::new(x.clone(), vec![1, 1, 1, 1]).is_err());
        let ok = ValidationSet::new(x, vec![0, 1, 0, 1]).expect("valid");
        assert_eq!(ok.len(), 4);
        assert_eq!(ok.n_features(), 2);
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let bad = [
            ContinualConfig {
                drift_window: 1,
                ..ContinualConfig::default()
            },
            ContinualConfig {
                min_retrain_samples: 0,
                ..ContinualConfig::default()
            },
            ContinualConfig {
                max_train_samples: 1,
                ..ContinualConfig::default()
            },
            ContinualConfig {
                f1_tolerance: -0.1,
                ..ContinualConfig::default()
            },
            ContinualConfig {
                probation_quantile: 1.5,
                ..ContinualConfig::default()
            },
            ContinualConfig {
                probation_max_alert_rate: -0.5,
                ..ContinualConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} should be rejected");
        }
        assert!(ContinualConfig::default().validate().is_ok());
    }

    #[test]
    fn degraded_artifact_loads_but_scores_enormously() {
        let scorer = trained_scorer(11);
        let artifact = TempArtifact::new("degraded", &scorer);
        write_degraded(&scorer, artifact.path()).expect("degrades");
        let loaded = DeployedScorer::load_from_path(artifact.path()).expect("still parseable");
        let x = Matrix::from_fn(4, scorer.n_features(), |i, j| (i + j) as f64 * 0.1);
        let honest = scorer.anomaly_scores(&x).expect("scores");
        let degraded = loaded.anomaly_scores(&x).expect("scores");
        for (h, d) in honest.iter().zip(&degraded) {
            assert!(d.is_finite(), "degraded scores stay finite");
            assert!(
                *d > h * 1e3 + 1e6,
                "degraded score {d} should dwarf honest score {h}"
            );
        }
    }
}
