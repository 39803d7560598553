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
//! Failed cycles back off exponentially (measured in accepted mirror
//! samples, by the core's [`RetryPolicy`]) so a persistently failing
//! environment cannot hot-loop retraining.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cnd_core::deploy::DeployedScorer;
use cnd_core::resilience::LastKnownGood;
use cnd_core::streaming::{
    train_attempt, ArtifactFault, ContinualCore, FaultInjector, RetryPolicy, StreamingConfig,
    TrainingFault,
};
use cnd_core::{CndIds, CoreError};
use cnd_linalg::Matrix;
use cnd_metrics::curve::pr_auc;
use cnd_metrics::threshold::{best_f1_threshold, quantile_threshold};
use cnd_obs::ledger::{
    Disposition, DriftProvenance, EntryDraft, Ledger, SampleProvenance, ShadowProvenance,
};
use cnd_obs::DriftVerdict;
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
    /// Best-F1 of the live model on the validation set.
    pub live_f1: f64,
    /// Best-F1 of the candidate on the validation set.
    pub candidate_f1: f64,
    /// PR-AUC of the live model on the validation set.
    pub live_pr_auc: f64,
    /// PR-AUC of the candidate on the validation set.
    pub candidate_pr_auc: f64,
    /// Non-finite candidate scores observed (validation + mirror);
    /// any non-zero count fails the gate.
    pub nonfinite_scores: u64,
    /// Alert threshold for the probation window: the configured
    /// quantile of the candidate's scores on the mirrored traffic.
    pub probation_tau: f64,
    /// Whether the candidate passed the gate.
    pub passed: bool,
}

/// Counter snapshot of everything the closed loop has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContinualStats {
    /// Mirrored samples drained from the serving path.
    pub samples_seen: u64,
    /// Samples the input guard quarantined (non-finite / wrong width /
    /// |z| beyond the guard's bound).
    pub poisoned_rejected: u64,
    /// Drift verdicts over threshold.
    pub drift_detections: u64,
    /// Background retrains started.
    pub retrains_started: u64,
    /// Trainer threads that panicked.
    pub trainer_panics: u64,
    /// Trainer attempts that returned an error.
    pub trainer_failures: u64,
    /// Candidates rejected by the shadow gate.
    pub shadow_rejects: u64,
    /// Canary swaps refused at reload (bad artifact).
    pub swap_refusals: u64,
    /// Successful canary swaps.
    pub swaps: u64,
    /// Post-swap rollbacks to last-known-good.
    pub rollbacks: u64,
    /// Rollback reload attempts that failed (retried next step).
    pub rollback_failures: u64,
    /// Probation windows passed.
    pub probation_passes: u64,
    /// Failed cycles since the last success (drives backoff).
    pub consecutive_failures: u32,
}

/// One observable transition of the closed loop, returned by
/// [`ContinualController::step`].
///
/// Every variant carries the *cycle id* minted when the drift verdict
/// armed the retrain, so each event resolves to a provenance-ledger
/// entry and to the `cevent` trace lines `observe --timeline` groups
/// into causal chains. Retries of a failed attempt stay in the same
/// cycle; the id is retired when the cycle reaches a terminal outcome
/// (probation passed, or rolled back).
#[derive(Debug, Clone)]
pub enum ContinualEvent {
    /// A drift window's verdict crossed the configured thresholds.
    DriftDetected {
        /// Cycle id minted by this detection.
        cycle: u64,
        /// The verdict that armed the retrain.
        verdict: DriftVerdict,
    },
    /// A background retrain started on the given number of mirrored
    /// samples (1-based attempt counter).
    RetrainStarted {
        /// Cycle id this retrain belongs to.
        cycle: u64,
        /// Mirrored samples in the training batch.
        samples: usize,
        /// 1-based training attempt number.
        attempt: u64,
    },
    /// The trainer thread failed (panic or error); the serving model is
    /// untouched.
    TrainerFailed {
        /// Cycle id this attempt belonged to.
        cycle: u64,
        /// Rendered cause.
        reason: String,
    },
    /// The shadow gate rejected the candidate.
    CandidateRejected {
        /// Cycle id this candidate belonged to.
        cycle: u64,
        /// The failing comparison.
        report: ShadowReport,
    },
    /// The registry refused to swap the candidate artifact in.
    SwapRefused {
        /// Cycle id this candidate belonged to.
        cycle: u64,
        /// Rendered cause.
        reason: String,
    },
    /// A validated candidate went live.
    Swapped {
        /// Cycle id that produced the candidate.
        cycle: u64,
        /// The new serving model version.
        version: u32,
        /// The shadow report that admitted it.
        report: ShadowReport,
    },
    /// Post-swap degradation detected; serving was restored to the
    /// last-known-good model.
    RolledBack {
        /// Cycle id being rolled back.
        cycle: u64,
        /// The version rolled away from.
        from_version: u32,
        /// The version now serving (a re-promotion of the last-known-
        /// good weights).
        restored_version: u32,
        /// Alert rate observed during probation.
        alert_rate: f64,
    },
    /// The canary survived probation and is now the last-known-good.
    ProbationPassed {
        /// Cycle id that produced the canary.
        cycle: u64,
        /// The surviving model version.
        version: u32,
    },
    /// A rollback reload failed; it is retried on the next step.
    RollbackFailed {
        /// Cycle id being rolled back.
        cycle: u64,
        /// Rendered cause.
        reason: String,
    },
}

impl ContinualEvent {
    /// The causal cycle id this event belongs to (0 only for events
    /// recorded outside any armed cycle, which the loop never emits).
    pub fn cycle(&self) -> u64 {
        match self {
            ContinualEvent::DriftDetected { cycle, .. }
            | ContinualEvent::RetrainStarted { cycle, .. }
            | ContinualEvent::TrainerFailed { cycle, .. }
            | ContinualEvent::CandidateRejected { cycle, .. }
            | ContinualEvent::SwapRefused { cycle, .. }
            | ContinualEvent::Swapped { cycle, .. }
            | ContinualEvent::RolledBack { cycle, .. }
            | ContinualEvent::ProbationPassed { cycle, .. }
            | ContinualEvent::RollbackFailed { cycle, .. } => *cycle,
        }
    }

    /// Machine-readable event kind, shared by the `cevent` trace lines,
    /// flight-recorder entries, and (for disposition events) the
    /// provenance ledger's `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            ContinualEvent::DriftDetected { .. } => "drift_detected",
            ContinualEvent::RetrainStarted { .. } => "retrain_started",
            ContinualEvent::TrainerFailed { .. } => "trainer_failed",
            ContinualEvent::CandidateRejected { .. } => "shadow_rejected",
            ContinualEvent::SwapRefused { .. } => "swap_refused",
            ContinualEvent::Swapped { .. } => "swapped",
            ContinualEvent::RolledBack { .. } => "rolled_back",
            ContinualEvent::ProbationPassed { .. } => "probation_passed",
            ContinualEvent::RollbackFailed { .. } => "rollback_failed",
        }
    }
}

impl std::fmt::Display for ContinualEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[cycle {}] ", self.cycle())?;
        match self {
            ContinualEvent::DriftDetected { verdict: v, .. } => write!(
                f,
                "drift detected (psi {:.3}, sym-kl {:.3})",
                v.psi, v.sym_kl
            ),
            ContinualEvent::RetrainStarted {
                samples, attempt, ..
            } => {
                write!(f, "retrain #{attempt} started on {samples} mirrored samples")
            }
            ContinualEvent::TrainerFailed { reason, .. } => write!(f, "trainer failed: {reason}"),
            ContinualEvent::CandidateRejected { report: r, .. } => write!(
                f,
                "candidate rejected by shadow gate (F1 {:.3} vs live {:.3}, PR-AUC {:.3} vs live {:.3}, {} non-finite)",
                r.candidate_f1, r.live_f1, r.candidate_pr_auc, r.live_pr_auc, r.nonfinite_scores
            ),
            ContinualEvent::SwapRefused { reason, .. } => write!(f, "canary swap refused: {reason}"),
            ContinualEvent::Swapped {
                version, report, ..
            } => write!(
                f,
                "canary swapped in as v{version} (F1 {:.3} vs live {:.3})",
                report.candidate_f1, report.live_f1
            ),
            ContinualEvent::RolledBack {
                from_version,
                restored_version,
                alert_rate,
                ..
            } => write!(
                f,
                "rolled back v{from_version} -> v{restored_version} (probation alert rate {alert_rate:.3})"
            ),
            ContinualEvent::ProbationPassed { version, .. } => {
                write!(f, "v{version} passed probation")
            }
            ContinualEvent::RollbackFailed { reason, .. } => {
                write!(f, "rollback failed (will retry): {reason}")
            }
        }
    }
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
    Probation {
        version: u32,
        tau: f64,
        candidate: Box<DeployedScorer>,
        prev_model: Box<CndIds>,
        scores: Vec<f64>,
        nonfinite: u64,
        baseline_errors: u64,
    },
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::Stable => "stable",
            State::Retraining { .. } => "retraining",
            State::Probation { .. } => "probation",
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
    cycle: u64,
    cycles_minted: u64,
    cycle_parent: u64,
    armed_verdict: Option<DriftVerdict>,
    core: ContinualCore,
    state: State,
    stats: ContinualStats,
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
        // Pre-register the loop's counters so a scrape sees them at
        // zero before the first cycle.
        for name in [
            "continual.drift.count",
            "continual.retrain.count",
            "continual.retrain_fail.count",
            "continual.shadow_reject.count",
            "continual.swap.count",
            "continual.swap_refused.count",
            "continual.rollback.count",
            "continual.probation_pass.count",
            "continual.poisoned.count",
        ] {
            cnd_obs::counter_add_volatile(name, 0);
        }
        let streaming = StreamingConfig {
            max_buffer: cfg.max_train_samples,
            // The served model is already trained: no bootstrap trigger.
            bootstrap_batch: cfg.max_train_samples,
            min_batch: cfg.min_retrain_samples,
            drift_window: cfg.drift_window,
        };
        let core = ContinualCore::new(model.scaler(), streaming, cfg.retry);
        Ok(ContinualController {
            cfg,
            model,
            val: validation,
            mirror,
            known_good: LastKnownGood::new(4),
            provenance: Ledger::new(),
            cycle: 0,
            cycles_minted: 0,
            cycle_parent: 0,
            armed_verdict: None,
            core,
            state: State::Stable,
            stats: ContinualStats::default(),
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

    /// Counter snapshot.
    pub fn stats(&self) -> ContinualStats {
        ContinualStats {
            samples_seen: self.core.flows_seen(),
            poisoned_rejected: self.core.quarantine().total(),
            consecutive_failures: self.core.consecutive_failures(),
            ..self.stats
        }
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

    /// The cycle id of the currently armed drift episode (0 when no
    /// cycle is in flight).
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Mirrored samples currently buffered for the next retrain.
    pub fn buffered_samples(&self) -> usize {
        self.core.buffered()
    }

    /// Pumps the loop once: drains the mirror, advances the state
    /// machine, and returns every transition that happened.
    ///
    /// Each returned event is also recorded as a `cevent` trace line
    /// (the single source of truth the CLI's stderr log and
    /// `observe --timeline` both render from) and into the crash
    /// flight recorder's ring.
    pub fn step(&mut self, server: &Server) -> Vec<ContinualEvent> {
        let events = self.step_inner(server);
        for event in &events {
            let detail = event.to_string();
            cnd_obs::continual_event(event.cycle(), event.kind(), &detail);
            cnd_obs::flight::record("continual", event.kind(), Some(event.cycle()), &detail);
        }
        events
    }

    fn step_inner(&mut self, server: &Server) -> Vec<ContinualEvent> {
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
                match handle.join() {
                    Err(_) => {
                        self.stats.trainer_panics += 1;
                        cnd_obs::counter_add_volatile("continual.retrain_fail.count", 1);
                        let reason = format!("trainer thread panicked (attempt {attempt})");
                        self.record_disposition(
                            Disposition::TrainerFailed,
                            0,
                            Some(shadow.rows()),
                            None,
                            &reason,
                        );
                        self.fail_cycle();
                        events.push(ContinualEvent::TrainerFailed {
                            cycle: self.cycle,
                            reason,
                        });
                    }
                    Ok(Err(e)) => {
                        self.stats.trainer_failures += 1;
                        cnd_obs::counter_add_volatile("continual.retrain_fail.count", 1);
                        let reason = format!("attempt {attempt}: {e}");
                        self.record_disposition(
                            Disposition::TrainerFailed,
                            0,
                            Some(shadow.rows()),
                            None,
                            &reason,
                        );
                        self.fail_cycle();
                        events.push(ContinualEvent::TrainerFailed {
                            cycle: self.cycle,
                            reason,
                        });
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
            State::Probation {
                version,
                tau,
                candidate,
                prev_model,
                mut scores,
                mut nonfinite,
                baseline_errors,
            } => {
                for sample in self.drain_sanitized() {
                    if sample.model_version == version {
                        if sample.score.is_finite() {
                            scores.push(sample.score);
                        } else {
                            nonfinite += 1;
                        }
                    }
                }
                let observed = scores.len() + nonfinite as usize;
                if observed < self.cfg.probation_samples {
                    self.state = State::Probation {
                        version,
                        tau,
                        candidate,
                        prev_model,
                        scores,
                        nonfinite,
                        baseline_errors,
                    };
                    return events;
                }
                let alerts = scores.iter().filter(|&&s| s > tau).count() as u64 + nonfinite;
                let alert_rate = alerts as f64 / observed as f64;
                let errors = error_snapshot(server).saturating_sub(baseline_errors);
                let degraded = alert_rate > self.cfg.probation_max_alert_rate
                    || errors > self.cfg.probation_max_errors;
                if degraded {
                    self.roll_back(
                        server,
                        version,
                        tau,
                        candidate,
                        prev_model,
                        scores,
                        nonfinite,
                        baseline_errors,
                        alert_rate,
                        &mut events,
                    );
                } else {
                    self.known_good.record(version, *candidate);
                    self.stats.probation_passes += 1;
                    self.core.succeeded();
                    cnd_obs::counter_add_volatile("continual.probation_pass.count", 1);
                    self.record_disposition(
                        Disposition::ProbationPassed,
                        u64::from(version),
                        None,
                        None,
                        &format!("alert rate {alert_rate:.3} within budget"),
                    );
                    self.state = State::Stable;
                    events.push(ContinualEvent::ProbationPassed {
                        cycle: self.cycle,
                        version,
                    });
                    self.retire_cycle();
                }
            }
        }
        events
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
        let was_armed = self.core.drift_armed();
        for sample in self.drain_sanitized() {
            if sample.model_version == live_version {
                self.core.observe_score(sample.score);
            }
            self.core.offer(sample.features);
        }
        let Some(verdict) = self.core.close_window() else {
            return;
        };
        cnd_obs::gauge_set_volatile("continual.drift.psi", verdict.psi);
        cnd_obs::gauge_set_volatile("continual.drift.sym_kl", verdict.sym_kl);
        if verdict.drifted && !was_armed {
            self.stats.drift_detections += 1;
            cnd_obs::counter_add_volatile("continual.drift.count", 1);
            // Mint the cycle id that threads this drift episode through
            // every event, span, and ledger entry until it reaches a
            // terminal outcome.
            self.cycles_minted += 1;
            self.cycle = self.cycles_minted;
            self.cycle_parent = u64::from(self.live_version);
            self.armed_verdict = Some(verdict);
            events.push(ContinualEvent::DriftDetected {
                cycle: self.cycle,
                verdict,
            });
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
        let cycle = self.cycle;
        // Breadcrumb BEFORE the spawn: the trainer may die (or be
        // fault-injected to panic) before step() drains this attempt's
        // events into the flight ring, and a crash dump must still
        // attribute the in-flight work to its cycle.
        cnd_obs::flight::record(
            "continual",
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
                self.stats.retrains_started += 1;
                cnd_obs::counter_add_volatile("continual.retrain.count", 1);
                events.push(ContinualEvent::RetrainStarted {
                    cycle: self.cycle,
                    samples: attempt.batch.rows(),
                    attempt: number,
                });
                self.state = State::Retraining {
                    handle,
                    artifact_fault: attempt.artifact_fault,
                    shadow: attempt.batch,
                    attempt: number,
                };
            }
            Err(e) => {
                self.stats.trainer_failures += 1;
                let reason = format!("spawn failed: {e}");
                self.record_disposition(Disposition::TrainerFailed, 0, None, None, &reason);
                self.fail_cycle();
                events.push(ContinualEvent::TrainerFailed {
                    cycle: self.cycle,
                    reason,
                });
            }
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
        let report = {
            let _span = cnd_obs::span!("continual.shadow", cycle = self.cycle);
            self.shadow_evaluate(&candidate, shadow)
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                self.stats.shadow_rejects += 1;
                cnd_obs::counter_add_volatile("continual.shadow_reject.count", 1);
                let reason = format!("shadow evaluation failed: {e}");
                self.record_disposition(
                    Disposition::TrainerFailed,
                    0,
                    Some(shadow.rows()),
                    None,
                    &reason,
                );
                self.fail_cycle();
                events.push(ContinualEvent::TrainerFailed {
                    cycle: self.cycle,
                    reason,
                });
                return;
            }
        };
        if !report.passed {
            self.stats.shadow_rejects += 1;
            cnd_obs::counter_add_volatile("continual.shadow_reject.count", 1);
            self.record_disposition(
                Disposition::ShadowRejected,
                0,
                Some(shadow.rows()),
                Some(&report),
                "candidate behind live model on validation set",
            );
            self.fail_cycle();
            events.push(ContinualEvent::CandidateRejected {
                cycle: self.cycle,
                report,
            });
            return;
        }
        // Canary swap: remember the serving model as a rollback target,
        // write the candidate artifact, and swap through the registry
        // (which refuses unloadable or mismatched artifacts outright).
        let _span = cnd_obs::span!("continual.swap", cycle = self.cycle);
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
        if let Err(e) = write_result {
            self.stats.swap_refusals += 1;
            cnd_obs::counter_add_volatile("continual.swap_refused.count", 1);
            let _ = self.live_scorer.save_to_path(&path);
            let reason = format!("artifact write failed: {e}");
            self.record_disposition(
                Disposition::SwapRefused,
                0,
                Some(shadow.rows()),
                Some(&report),
                &reason,
            );
            self.fail_cycle();
            events.push(ContinualEvent::SwapRefused {
                cycle: self.cycle,
                reason,
            });
            return;
        }
        match server.reload() {
            Err(e) => {
                self.stats.swap_refusals += 1;
                cnd_obs::counter_add_volatile("continual.swap_refused.count", 1);
                // Restore a good artifact so watchers and later swaps
                // never see the corrupt bytes.
                let _ = self.live_scorer.save_to_path(&path);
                let reason = e.to_string();
                self.record_disposition(
                    Disposition::SwapRefused,
                    0,
                    Some(shadow.rows()),
                    Some(&report),
                    &reason,
                );
                self.fail_cycle();
                events.push(ContinualEvent::SwapRefused {
                    cycle: self.cycle,
                    reason,
                });
            }
            Ok(version) => {
                self.stats.swaps += 1;
                cnd_obs::counter_add_volatile("continual.swap.count", 1);
                let prev_model = std::mem::replace(&mut self.model, new_model);
                self.record_disposition(
                    Disposition::Swapped,
                    u64::from(version),
                    Some(shadow.rows()),
                    Some(&report),
                    "shadow gate passed; canary promoted to probation",
                );
                self.live_version = version;
                self.live_scorer = candidate.clone();
                // The swap resets drift accounting: the new model's
                // score distribution becomes the reference.
                self.core.reset_drift();
                self.core.clear_buffer();
                let baseline_errors = error_snapshot(server);
                events.push(ContinualEvent::Swapped {
                    cycle: self.cycle,
                    version,
                    report,
                });
                self.state = State::Probation {
                    version,
                    tau: report.probation_tau,
                    candidate: Box::new(candidate),
                    prev_model: Box::new(prev_model),
                    scores: Vec::new(),
                    nonfinite: 0,
                    baseline_errors,
                };
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn roll_back(
        &mut self,
        server: &Server,
        version: u32,
        tau: f64,
        candidate: Box<DeployedScorer>,
        prev_model: Box<CndIds>,
        scores: Vec<f64>,
        nonfinite: u64,
        baseline_errors: u64,
        alert_rate: f64,
        events: &mut Vec<ContinualEvent>,
    ) {
        let Some((_, good)) = self.known_good.current() else {
            // Cannot happen: the pre-swap model is always recorded.
            self.state = State::Stable;
            return;
        };
        let good = good.clone();
        let path = server.model_path().to_path_buf();
        let restore = good
            .save_to_path(&path)
            .map_err(ServeError::from)
            .and_then(|()| server.reload());
        match restore {
            Ok(restored_version) => {
                self.stats.rollbacks += 1;
                cnd_obs::counter_add_volatile("continual.rollback.count", 1);
                self.live_version = restored_version;
                self.live_scorer = good.clone();
                self.known_good.record(restored_version, good);
                self.model = *prev_model;
                self.core.failed();
                self.core.reset_drift();
                self.record_disposition(
                    Disposition::RolledBack,
                    u64::from(version),
                    None,
                    None,
                    &format!("probation alert rate {alert_rate:.3}; restored v{restored_version}"),
                );
                self.state = State::Stable;
                events.push(ContinualEvent::RolledBack {
                    cycle: self.cycle,
                    from_version: version,
                    restored_version,
                    alert_rate,
                });
                self.retire_cycle();
            }
            Err(e) => {
                self.stats.rollback_failures += 1;
                events.push(ContinualEvent::RollbackFailed {
                    cycle: self.cycle,
                    reason: e.to_string(),
                });
                // Stay in probation and retry the rollback next step.
                self.state = State::Probation {
                    version,
                    tau,
                    candidate,
                    prev_model,
                    scores,
                    nonfinite,
                    baseline_errors,
                };
            }
        }
    }

    /// A failed attempt backs off but keeps the drift episode (and its
    /// cycle id) armed, so the retry is attributed to the same cycle.
    fn fail_cycle(&mut self) {
        self.core.failed();
        self.state = State::Stable;
    }

    /// Terminal outcome reached (probation passed or rolled back): the
    /// cycle id is retired so the next drift verdict mints a fresh one.
    fn retire_cycle(&mut self) {
        self.cycle = 0;
        self.cycle_parent = 0;
        self.armed_verdict = None;
    }

    /// Appends one hash-chained entry to the provenance ledger for a
    /// lifecycle disposition of the currently armed cycle.
    fn record_disposition(
        &mut self,
        kind: Disposition,
        version: u64,
        train_samples: Option<usize>,
        report: Option<&ShadowReport>,
        detail: &str,
    ) {
        let drift = self.armed_verdict.map(|v| DriftProvenance {
            psi: v.psi,
            sym_kl: v.sym_kl,
            window: self.cfg.drift_window as u64,
        });
        let samples = train_samples.map(|train| SampleProvenance {
            train: train as u64,
            mirror_seen: self.mirror.seen(),
            mirror_dropped: self.mirror.dropped(),
            poisoned: self.stats.poisoned_rejected,
        });
        let shadow = report.map(|r| ShadowProvenance {
            live_f1: r.live_f1,
            cand_f1: r.candidate_f1,
            live_pr_auc: r.live_pr_auc,
            cand_pr_auc: r.candidate_pr_auc,
            tau: r.probation_tau,
        });
        self.provenance.append(EntryDraft {
            cycle: self.cycle,
            kind,
            version,
            parent: self.cycle_parent,
            drift,
            samples,
            shadow,
            detail: detail.to_string(),
        });
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
        let (candidate_f1, candidate_pr_auc) = if nonfinite == 0 {
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
        let probation_tau = if finite_mirror.is_empty() {
            f64::INFINITY
        } else {
            quantile_threshold(&finite_mirror, self.cfg.probation_quantile)
                .map_err(|e| ServeError::Model(CoreError::from(e)))?
        };
        let passed = nonfinite == 0
            && candidate_f1 >= live_sel.f1 - self.cfg.f1_tolerance
            && candidate_pr_auc >= live_pr_auc - self.cfg.pr_auc_tolerance;
        Ok(ShadowReport {
            live_f1: live_sel.f1,
            candidate_f1,
            live_pr_auc,
            candidate_pr_auc,
            nonfinite_scores: nonfinite,
            probation_tau,
            passed,
        })
    }
}

impl std::fmt::Debug for ContinualController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContinualController")
            .field("state", &self.state.name())
            .field("live_version", &self.live_version)
            .field("buffered", &self.core.buffered())
            .field("stats", &self.stats())
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
