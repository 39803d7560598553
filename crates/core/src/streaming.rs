//! The continual-learning core that every retrain loop shares.
//!
//! The paper defines an experience as "a shift in the data stream
//! distribution" (Section I) but assumes the boundaries are given. A
//! deployment has to find them. [`ContinualCore`] makes the decisions
//! such a loop needs, and only those: it owns no model, no thread and no
//! clock, so each host drives it from its own I/O.
//!
//! 1. **Input guard** ([`InputGuard`]): every flow is checked for
//!    non-finite values, a wrong width, and |z| beyond
//!    [`MAX_ABS_SCALED`] under the fitted scaler; offenders go to a
//!    bounded quarantine with per-reason counters.
//! 2. **Drift policy**: `ln(1 + score)` of the serving model's scores
//!    fills windows of exactly `drift_window` scores of a
//!    [`cnd_obs::DriftMonitor`], each closed by the score that fills it
//!    ([`ContinualCore::observe_score`]); a window whose PSI /
//!    symmetric-KL verdict crosses the default thresholds arms a retrain.
//! 3. **Replay reservoir**: accepted flows feed a seeded Algorithm-R
//!    sample of at most `max_buffer` rows; the triggers count *offered*
//!    flows, so memory stays bounded however long a retrain is held off.
//! 4. **Retry, backoff and degraded mode** ([`RetryPolicy`], [`Mode`]):
//!    failed attempts back off exponentially in accepted flows (no wall
//!    clock), and `max_attempts` consecutive failures enter degraded mode.
//! 5. **The training attempt** ([`train_attempt`]): Algorithm 1's
//!    per-experience update on the reservoir, with the scripted
//!    [`TrainingFault`]s applied.
//! 6. **Cycles and events** ([`ContinualEvent`], [`ContinualStatus`]):
//!    arming drift, or starting an attempt with nothing armed, mints a
//!    cycle id that every event of that retrain carries until it
//!    succeeds. Every event of either host goes through
//!    [`ContinualCore::record`], which counts it by [`EventKind`] and
//!    writes its `cevent` trace line, flight-ring entry,
//!    `continual.<name>.count` metric and (for `serve`) ledger entry.
//!    [`ContinualCore::status`] reports the core's state with those
//!    counts.
//!
//! Two hosts ([`Host`]) drive the core. `ResilientStreamingCndIds` (the
//! `stream` CLI) trains in-process and rolls back to a model snapshot;
//! `cnd_serve::ContinualController` (`serve --continual`) trains on a
//! background thread behind a shadow gate, canary swap and probation.

use std::collections::VecDeque;
use std::fmt;

use cnd_linalg::Matrix;
use cnd_ml::StandardScaler;
use cnd_obs::ledger::{
    Disposition, DriftProvenance, EntryDraft, Ledger, SampleProvenance, ShadowProvenance,
};
use cnd_obs::{DriftMonitor, DriftVerdict};
use cnd_store::ReservoirBuffer;

use crate::cfe::TrainStats;
use crate::{CndIds, CoreError};

/// The guard rejects a flow when any feature's |z-score| under the
/// fitted scaler exceeds this. Legitimate drift moves means by a few
/// standard deviations; exporter garbage moves them by millions.
pub const MAX_ABS_SCALED: f64 = 1e6;

/// Quarantined flows kept for inspection; older ones are evicted and
/// counted.
pub const QUARANTINE_CAPACITY: usize = 1024;

/// Finite score given to rows the guard rejects at scoring time: large
/// enough to always rank as anomalous, finite so metrics never see NaN.
pub const QUARANTINE_SCORE: f64 = 1e12;

/// Seed of the replay reservoir.
const RESERVOIR_SEED: u64 = 42;

/// Why a training step was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A drift window's verdict armed a retrain.
    DriftDetected,
    /// The buffer reached its configured capacity.
    BufferFull,
    /// The caller forced a flush.
    Manual,
}

impl Trigger {
    /// Stable lowercase name (used in metric names and health reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::DriftDetected => "drift",
            Trigger::BufferFull => "buffer_full",
            Trigger::Manual => "manual",
        }
    }
}

/// Buffering and trigger sizes of a [`ContinualCore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Reservoir capacity; a retrain is due at the latest once this many
    /// flows have been offered.
    pub max_buffer: usize,
    /// Train the *first* experience as soon as this many flows are
    /// offered (an untrained model cannot score, so it cannot see drift).
    pub bootstrap_batch: usize,
    /// Never train on fewer offered flows than this (a drift verdict on
    /// a nearly empty buffer waits until the minimum accumulates).
    pub min_batch: usize,
    /// Scores per drift window: the score that fills a window closes
    /// it, however the host batches its scores.
    pub drift_window: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            max_buffer: 2_000,
            bootstrap_batch: 800,
            min_batch: 200,
            drift_window: 100,
        }
    }
}

/// Why the input guard rejected a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The flow contained a NaN or infinite value.
    NonFinite,
    /// The flow's feature count did not match the fitted model.
    DimensionMismatch,
    /// A value's |z-score| exceeded [`MAX_ABS_SCALED`].
    OutOfRange,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NonFinite => write!(f, "non-finite value"),
            RejectReason::DimensionMismatch => write!(f, "dimension mismatch"),
            RejectReason::OutOfRange => write!(f, "out of scaled range"),
        }
    }
}

/// Counters for flows rejected by the input guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineStats {
    /// Flows rejected for NaN/Inf values.
    pub non_finite: u64,
    /// Flows rejected for a wrong feature count.
    pub dimension_mismatch: u64,
    /// Flows rejected for implausible magnitude after scaling.
    pub out_of_range: u64,
    /// Quarantined flows evicted because the quarantine buffer was full.
    pub evicted: u64,
}

impl QuarantineStats {
    /// Total flows quarantined (evictions not double-counted).
    pub fn total(&self) -> u64 {
        self.non_finite + self.dimension_mismatch + self.out_of_range
    }
}

/// Validates incoming flows against the fitted scaler and quarantines
/// offenders (bounded, with counters).
#[derive(Debug, Clone)]
pub struct InputGuard {
    mean: Vec<f64>,
    std: Vec<f64>,
    quarantine: VecDeque<(Vec<f64>, RejectReason)>,
    stats: QuarantineStats,
}

impl InputGuard {
    /// Builds a guard around the pipeline's fitted input scaler.
    pub fn new(scaler: &StandardScaler) -> Self {
        InputGuard {
            mean: scaler.mean().to_vec(),
            std: scaler.std().to_vec(),
            quarantine: VecDeque::new(),
            stats: QuarantineStats::default(),
        }
    }

    /// Pure validation: `None` means the row is acceptable.
    pub fn check(&self, row: &[f64]) -> Option<RejectReason> {
        if row.len() != self.mean.len() {
            return Some(RejectReason::DimensionMismatch);
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Some(RejectReason::NonFinite);
        }
        for ((v, m), s) in row.iter().zip(&self.mean).zip(&self.std) {
            if ((v - m) / s.max(1e-9)).abs() > MAX_ABS_SCALED {
                return Some(RejectReason::OutOfRange);
            }
        }
        None
    }

    /// Validates a row; on rejection the row is quarantined and the
    /// reason returned.
    pub fn admit(&mut self, row: &[f64]) -> Option<RejectReason> {
        let reason = self.check(row)?;
        cnd_obs::counter_add("resilience.quarantine.count", 1);
        match reason {
            RejectReason::NonFinite => {
                self.stats.non_finite += 1;
                cnd_obs::counter_add("resilience.quarantine.non_finite.count", 1);
            }
            RejectReason::DimensionMismatch => {
                self.stats.dimension_mismatch += 1;
                cnd_obs::counter_add("resilience.quarantine.dimension_mismatch.count", 1);
            }
            RejectReason::OutOfRange => {
                self.stats.out_of_range += 1;
                cnd_obs::counter_add("resilience.quarantine.out_of_range.count", 1);
            }
        }
        self.quarantine.push_back((row.to_vec(), reason));
        if self.quarantine.len() > QUARANTINE_CAPACITY {
            self.quarantine.pop_front();
            self.stats.evicted += 1;
            cnd_obs::counter_add("resilience.quarantine.evicted.count", 1);
        }
        Some(reason)
    }

    /// Rejection counters so far.
    pub fn stats(&self) -> QuarantineStats {
        self.stats
    }

    /// Flows currently held in quarantine (oldest first).
    pub fn quarantined(&self) -> impl Iterator<Item = (&[f64], RejectReason)> {
        self.quarantine.iter().map(|(row, r)| (row.as_slice(), *r))
    }

    /// Removes and returns all quarantined flows (counters are kept).
    pub fn drain_quarantine(&mut self) -> Vec<(Vec<f64>, RejectReason)> {
        self.quarantine.drain(..).collect()
    }
}

/// Retry/backoff policy for failed training attempts, measured in
/// accepted-flow counts (deterministic, no wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failures tolerated before entering
    /// [`Mode::Degraded`]. Retries continue even in degraded mode (at
    /// the capped backoff) so a later success can restore normal
    /// operation.
    pub max_attempts: u32,
    /// Accepted flows to wait before the first retry; doubles per
    /// consecutive failure.
    pub backoff_base_flows: usize,
    /// Upper bound on the backoff interval.
    pub max_backoff_flows: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_flows: 500,
            max_backoff_flows: 16_000,
        }
    }
}

impl RetryPolicy {
    /// Flows to wait after the `consecutive_failures`-th failure:
    /// `base · 2^(failures−1)`, capped at `max_backoff_flows`.
    pub fn backoff_flows(&self, consecutive_failures: u32) -> usize {
        let exp = consecutive_failures.saturating_sub(1).min(16);
        self.backoff_base_flows
            .saturating_mul(1usize << exp)
            .min(self.max_backoff_flows)
    }
}

/// Operating mode of a continual loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training and scoring are both healthy.
    Normal,
    /// Repeated training failures: scoring continues on the
    /// last-known-good frozen scorer; retraining keeps retrying at the
    /// capped backoff interval.
    Degraded,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Normal => write!(f, "normal"),
            Mode::Degraded => write!(f, "degraded"),
        }
    }
}

/// A fault injected into a training attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingFault {
    /// Poison the training batch so the CFE loss goes non-finite,
    /// exercising the divergence watchdog end to end.
    NanLoss,
    /// Fail the attempt outright with a synthetic error before training
    /// starts.
    Error,
    /// Crash the trainer mid-attempt. A host that trains on its own
    /// thread turns this into a real `panic!` and contains it via the
    /// join; [`train_attempt`] maps it to an error so an in-process
    /// host can never abort the whole process.
    Panic,
}

/// A fault injected into a candidate model *artifact* on its way to
/// disk, exercising the swap-validation and post-swap rollback paths of
/// a model registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFault {
    /// Replace the artifact bytes with garbage that cannot parse, so a
    /// validating loader must refuse the swap outright.
    Garbage,
    /// Keep the artifact parseable but silently wreck its weights, so
    /// the swap succeeds and only *post-swap* quality monitoring can
    /// catch it and roll back.
    DegradedWeights,
}

/// Deterministic fault source for exercising recovery paths.
///
/// The core calls `corrupt_flow` for every incoming flow *before* the
/// input guard (so the guard is tested against the corruption), and
/// `training_fault` / `artifact_fault` once per training attempt.
pub trait FaultInjector {
    /// May corrupt the given flow in place (`flow_index` counts all
    /// flows ever screened, 0-based). Default: no-op.
    fn corrupt_flow(&mut self, flow_index: u64, row: &mut Vec<f64>) {
        let _ = (flow_index, row);
    }

    /// May fail the given training attempt (`attempt` counts all
    /// attempts, 1-based). Default: no fault.
    fn training_fault(&mut self, attempt: u64) -> Option<TrainingFault> {
        let _ = attempt;
        None
    }

    /// May corrupt the candidate artifact produced by the given training
    /// attempt (`attempt` counts all attempts, 1-based) as it is written
    /// to disk. Default: no fault.
    fn artifact_fault(&mut self, attempt: u64) -> Option<ArtifactFault> {
        let _ = attempt;
        None
    }
}

/// One training attempt handed out by [`ContinualCore::begin_attempt`].
#[derive(Debug, Clone)]
pub struct Attempt {
    /// 1-based attempt number.
    pub number: u64,
    /// Injected training fault, if any.
    pub fault: Option<TrainingFault>,
    /// Injected artifact fault, if any.
    pub artifact_fault: Option<ArtifactFault>,
    /// The reservoir's rows, in slot order.
    pub batch: Matrix,
}

/// Runs one training experience on `batch` with `fault` applied.
/// [`TrainingFault::Panic`] becomes an error here; a threaded host
/// panics for real before calling this.
///
/// # Errors
///
/// The injected failure, or whatever `train_experience` returns
/// (an injected NaN batch trips [`CoreError::TrainingDiverged`]).
pub fn train_attempt(
    model: &mut CndIds,
    batch: &Matrix,
    fault: Option<TrainingFault>,
) -> Result<TrainStats, CoreError> {
    let injected = |constraint| CoreError::InvalidConfig {
        name: "fault-injection",
        constraint,
    };
    match fault {
        Some(TrainingFault::Error) => Err(injected("injected training failure")),
        Some(TrainingFault::Panic) => Err(injected("injected trainer panic")),
        Some(TrainingFault::NanLoss) => {
            // Poison a copy *after* the guard, so the CFE's own
            // divergence watchdog is what trips.
            let mut poisoned = batch.clone();
            if poisoned.rows() > 0 && poisoned.cols() > 0 {
                poisoned[(0, 0)] = f64::NAN;
            }
            model.train_experience(&poisoned)
        }
        None => model.train_experience(batch),
    }
}

/// Which host drives a [`ContinualCore`]: it decides how the core's
/// events are counted and where their flight entries say they came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Host {
    /// The `stream` CLI: in-process and seeded, so its counters belong
    /// in deterministic traces.
    Stream,
    /// `serve --continual`: paced by live traffic, so its counters are
    /// volatile (left out of deterministic traces).
    Serve,
}

impl Host {
    /// Stable lowercase name (the flight-ring `source`).
    pub fn as_str(self) -> &'static str {
        match self {
            Host::Stream => "stream",
            Host::Serve => "serve",
        }
    }

    fn count(self, name: &str, v: u64) {
        match self {
            Host::Stream => cnd_obs::counter_add(name, v),
            Host::Serve => cnd_obs::counter_add_volatile(name, v),
        }
    }

    fn gauge(self, name: &str, v: f64) {
        match self {
            Host::Stream => cnd_obs::gauge_set(name, v),
            Host::Serve => cnd_obs::gauge_set_volatile(name, v),
        }
    }
}

/// Non-finite scores left out of a drift window
/// ([`ContinualCore::observe_score`]).
const DRIFT_REJECTED: &str = "continual.drift_rejected.count";
/// Closed drift windows whose verdict drifted, armed or not.
const DRIFT_CONFIRMED: &str = "continual.drift_confirmed.count";

/// What kind of [`ContinualEvent`] happened: the key of the status
/// counts and the `kind` of the event's trace, flight and ledger lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`ContinualEvent::DriftDetected`].
    DriftDetected,
    /// [`ContinualEvent::RetrainStarted`].
    RetrainStarted,
    /// [`ContinualEvent::Trained`].
    Trained,
    /// [`ContinualEvent::TrainerFailed`].
    TrainerFailed,
    /// [`ContinualEvent::CandidateRejected`].
    ShadowRejected,
    /// [`ContinualEvent::SwapRefused`].
    SwapRefused,
    /// [`ContinualEvent::Swapped`].
    Swapped,
    /// [`ContinualEvent::RolledBack`].
    RolledBack,
    /// [`ContinualEvent::ProbationPassed`].
    ProbationPassed,
    /// [`ContinualEvent::RollbackFailed`].
    RollbackFailed,
}

impl EventKind {
    /// Every kind, in the order the status prints them.
    pub const ALL: [EventKind; 10] = [
        EventKind::DriftDetected,
        EventKind::RetrainStarted,
        EventKind::Trained,
        EventKind::TrainerFailed,
        EventKind::ShadowRejected,
        EventKind::SwapRefused,
        EventKind::Swapped,
        EventKind::RolledBack,
        EventKind::ProbationPassed,
        EventKind::RollbackFailed,
    ];

    /// Each kind's stable name (a disposition's is its ledger `kind`)
    /// and the counter it bumps, in [`ALL`](Self::ALL) order.
    const NAMES: [(&'static str, &'static str); 10] = [
        ("drift_detected", "continual.drift.count"),
        ("retrain_started", "continual.retrain.count"),
        ("trained", "continual.trained.count"),
        ("trainer_failed", "continual.retrain_fail.count"),
        ("shadow_rejected", "continual.shadow_reject.count"),
        ("swap_refused", "continual.swap_refused.count"),
        ("swapped", "continual.swap.count"),
        ("rolled_back", "continual.rollback.count"),
        ("probation_passed", "continual.probation_pass.count"),
        ("rollback_failed", "continual.rollback_fail.count"),
    ];

    /// Stable lowercase name: the `kind` of trace, flight and ledger
    /// lines.
    pub fn as_str(self) -> &'static str {
        Self::NAMES[self as usize].0
    }

    /// The `continual.<name>.count` counter this kind bumps.
    pub fn metric(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The ledger disposition this kind is, if any (six of the ten).
    pub fn disposition(self) -> Option<Disposition> {
        Some(match self {
            EventKind::TrainerFailed => Disposition::TrainerFailed,
            EventKind::ShadowRejected => Disposition::ShadowRejected,
            EventKind::SwapRefused => Disposition::SwapRefused,
            EventKind::Swapped => Disposition::Swapped,
            EventKind::RolledBack => Disposition::RolledBack,
            EventKind::ProbationPassed => Disposition::ProbationPassed,
            _ => return None,
        })
    }
}

/// One observable transition of a continual loop, from either host.
///
/// Every variant carries the cycle id the core minted when the retrain
/// was armed ([`ContinualCore::cycle`]). Retries of a failed attempt
/// stay in the same cycle; it ends with a trained experience (`stream`),
/// or a passed probation or a rollback (`serve`).
#[derive(Debug, Clone)]
pub enum ContinualEvent {
    /// A drift window's verdict armed a retrain.
    DriftDetected {
        /// Cycle id of the armed retrain.
        cycle: u64,
        /// The verdict that armed it.
        drift: DriftProvenance,
    },
    /// A training attempt started.
    RetrainStarted {
        /// Cycle id this attempt belongs to.
        cycle: u64,
        /// What made the attempt due.
        trigger: Trigger,
        /// Rows in the training batch.
        samples: usize,
        /// 1-based attempt number.
        attempt: u64,
    },
    /// An in-process attempt trained the next experience, and its model
    /// now scores (`stream`).
    Trained {
        /// Cycle id that ends here.
        cycle: u64,
        /// What made the attempt due.
        trigger: Trigger,
        /// Rows the experience trained on.
        samples: usize,
        /// CFE training diagnostics.
        stats: TrainStats,
        /// `true` when this success left [`Mode::Degraded`].
        recovered: bool,
    },
    /// A training attempt failed (error, panic, or a candidate that could
    /// not be evaluated). The serving model is untouched and the
    /// reservoir is kept for a retry after the backoff.
    TrainerFailed {
        /// Cycle id this attempt belonged to.
        cycle: u64,
        /// Rendered cause.
        reason: String,
        /// Rows in the training batch (`None` when none was built).
        samples: Option<usize>,
        /// `true` when the trainer thread panicked.
        panicked: bool,
        /// Mode after accounting for this failure.
        mode: Mode,
    },
    /// The shadow gate rejected the candidate (`serve`).
    CandidateRejected {
        /// Cycle id this candidate belonged to.
        cycle: u64,
        /// Rows the candidate trained on.
        samples: usize,
        /// The failing comparison.
        shadow: ShadowProvenance,
        /// Non-finite candidate scores (any fails the gate).
        nonfinite: u64,
    },
    /// The registry refused to swap the candidate artifact in (`serve`).
    SwapRefused {
        /// Cycle id this candidate belonged to.
        cycle: u64,
        /// Rows the candidate trained on.
        samples: usize,
        /// The shadow comparison the candidate passed.
        shadow: ShadowProvenance,
        /// Rendered cause.
        reason: String,
    },
    /// A validated candidate went live and entered probation (`serve`).
    Swapped {
        /// Cycle id that produced the candidate.
        cycle: u64,
        /// Rows the candidate trained on.
        samples: usize,
        /// The new serving model version.
        version: u32,
        /// The shadow comparison that admitted it.
        shadow: ShadowProvenance,
    },
    /// Post-swap degradation: serving was restored to the last-known-good
    /// model (`serve`).
    RolledBack {
        /// Cycle id that ends here.
        cycle: u64,
        /// The version rolled away from.
        from_version: u32,
        /// The version now serving (the last-known-good weights
        /// re-promoted).
        restored_version: u32,
        /// Alert rate observed during probation.
        alert_rate: f64,
    },
    /// The canary survived probation and is now the last-known-good
    /// (`serve`).
    ProbationPassed {
        /// Cycle id that ends here.
        cycle: u64,
        /// The surviving model version.
        version: u32,
        /// Alert rate observed during probation.
        alert_rate: f64,
    },
    /// A rollback reload failed; it is retried on the next step
    /// (`serve`).
    RollbackFailed {
        /// Cycle id being rolled back.
        cycle: u64,
        /// Rendered cause.
        reason: String,
    },
}

impl ContinualEvent {
    /// The cycle id this event belongs to.
    pub fn cycle(&self) -> u64 {
        match self {
            ContinualEvent::DriftDetected { cycle, .. }
            | ContinualEvent::RetrainStarted { cycle, .. }
            | ContinualEvent::Trained { cycle, .. }
            | ContinualEvent::TrainerFailed { cycle, .. }
            | ContinualEvent::CandidateRejected { cycle, .. }
            | ContinualEvent::SwapRefused { cycle, .. }
            | ContinualEvent::Swapped { cycle, .. }
            | ContinualEvent::RolledBack { cycle, .. }
            | ContinualEvent::ProbationPassed { cycle, .. }
            | ContinualEvent::RollbackFailed { cycle, .. } => *cycle,
        }
    }

    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            ContinualEvent::DriftDetected { .. } => EventKind::DriftDetected,
            ContinualEvent::RetrainStarted { .. } => EventKind::RetrainStarted,
            ContinualEvent::Trained { .. } => EventKind::Trained,
            ContinualEvent::TrainerFailed { .. } => EventKind::TrainerFailed,
            ContinualEvent::CandidateRejected { .. } => EventKind::ShadowRejected,
            ContinualEvent::SwapRefused { .. } => EventKind::SwapRefused,
            ContinualEvent::Swapped { .. } => EventKind::Swapped,
            ContinualEvent::RolledBack { .. } => EventKind::RolledBack,
            ContinualEvent::ProbationPassed { .. } => EventKind::ProbationPassed,
            ContinualEvent::RollbackFailed { .. } => EventKind::RollbackFailed,
        }
    }
}

impl fmt::Display for ContinualEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] ", self.cycle())?;
        match self {
            ContinualEvent::DriftDetected { drift, .. } => write!(
                f,
                "drift detected (psi {:.3}, sym-kl {:.3})",
                drift.psi, drift.sym_kl
            ),
            ContinualEvent::RetrainStarted {
                trigger,
                samples,
                attempt,
                ..
            } => write!(
                f,
                "retrain #{attempt} started on {samples} samples ({})",
                trigger.as_str()
            ),
            ContinualEvent::Trained {
                trigger,
                samples,
                recovered,
                ..
            } => write!(
                f,
                "experience trained on {samples} samples ({}){}",
                trigger.as_str(),
                if *recovered { ", left degraded mode" } else { "" }
            ),
            ContinualEvent::TrainerFailed { reason, mode, .. } => {
                write!(f, "trainer failed ({mode}): {reason}")
            }
            ContinualEvent::CandidateRejected {
                shadow, nonfinite, ..
            } => write!(
                f,
                "candidate rejected by shadow gate (F1 {:.3} vs live {:.3}, PR-AUC {:.3} vs live {:.3}, {nonfinite} non-finite)",
                shadow.cand_f1, shadow.live_f1, shadow.cand_pr_auc, shadow.live_pr_auc
            ),
            ContinualEvent::SwapRefused { reason, .. } => write!(f, "canary swap refused: {reason}"),
            ContinualEvent::Swapped {
                version, shadow, ..
            } => write!(
                f,
                "canary swapped in as v{version} (F1 {:.3} vs live {:.3})",
                shadow.cand_f1, shadow.live_f1
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
            ContinualEvent::ProbationPassed {
                version,
                alert_rate,
                ..
            } => write!(
                f,
                "v{version} passed probation (alert rate {alert_rate:.3})"
            ),
            ContinualEvent::RollbackFailed { reason, .. } => {
                write!(f, "rollback failed (will retry): {reason}")
            }
        }
    }
}

/// The provenance ledger a `serve` host appends each disposition to,
/// with the provenance only that host knows.
pub struct LedgerSink<'a> {
    /// The ledger to append to.
    pub ledger: &'a mut Ledger,
    /// Model version serving when the cycle was armed.
    pub parent: u64,
    /// Flows the traffic mirror has seen.
    pub mirror_seen: u64,
    /// Flows the traffic mirror dropped (buffer full).
    pub mirror_dropped: u64,
}

/// One status snapshot of a continual loop, for either host: the
/// core's state plus its event counts (the CLI's `stream --health` and
/// the `serve --continual` closing summary).
#[derive(Debug, Clone, PartialEq)]
pub struct ContinualStatus {
    /// Current operating mode.
    pub mode: Mode,
    /// Input-guard rejection counters.
    pub quarantine: QuarantineStats,
    /// All flows ever screened (accepted + quarantined).
    pub flows_seen: u64,
    /// Flows that passed the input guard.
    pub flows_accepted: u64,
    /// Accepted flows the full replay reservoir did not keep.
    pub flows_dropped: u64,
    /// Rows the reservoir holds for the next experience.
    pub buffered: usize,
    /// Non-finite scores rejected by the drift policy.
    pub drift_rejections: u64,
    /// The most recent drift window's verdict (PSI / symmetric KL);
    /// `None` until two windows have closed.
    pub score_drift: Option<DriftVerdict>,
    /// Experiences the host's model has trained.
    pub experiences_trained: usize,
    /// Failed cycles in total.
    pub total_failures: u64,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Accepted flows remaining before the next attempt is allowed
    /// (0 = ready).
    pub flows_until_retry: usize,
    /// [`ContinualEvent::TrainerFailed`] events whose trainer panicked.
    pub trainer_panics: u64,
    /// The cycle in flight (0 = none).
    pub cycle: u64,
    /// Events recorded so far, indexed by `EventKind as usize`.
    pub events: [u64; EventKind::ALL.len()],
}

impl ContinualStatus {
    /// Events of `kind` recorded so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.events[kind as usize]
    }
}

impl fmt::Display for ContinualStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "mode:       {}", self.mode)?;
        writeln!(
            f,
            "flows:      seen {}, accepted {}, quarantined {} (nan/inf {}, dim {}, range {}), dropped {}",
            self.flows_seen,
            self.flows_accepted,
            self.quarantine.total(),
            self.quarantine.non_finite,
            self.quarantine.dimension_mismatch,
            self.quarantine.out_of_range,
            self.flows_dropped,
        )?;
        writeln!(
            f,
            "quarantine: evicted {}, drift-rejected {}",
            self.quarantine.evicted, self.drift_rejections,
        )?;
        match self.score_drift {
            Some(v) => writeln!(
                f,
                "drift:      psi {:.3}, kl {:.3}, {}",
                v.psi,
                v.sym_kl,
                if v.drifted { "drifted" } else { "stable" }
            )?,
            None => writeln!(f, "drift:      no verdict yet")?,
        }
        writeln!(
            f,
            "training:   {} experiences, {} failures ({} consecutive, {} trainer panics)",
            self.experiences_trained,
            self.total_failures,
            self.consecutive_failures,
            self.trainer_panics,
        )?;
        if self.flows_until_retry == 0 {
            writeln!(f, "retry:      ready")?;
        } else {
            writeln!(
                f,
                "retry:      next attempt in {} flows",
                self.flows_until_retry
            )?;
        }
        writeln!(f, "buffered:   {}", self.buffered)?;
        match self.cycle {
            0 => writeln!(f, "cycle:      none in flight")?,
            c => writeln!(f, "cycle:      {c} in flight")?,
        }
        write!(f, "events:     ")?;
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{} {}", kind.as_str(), self.events[i])?;
        }
        Ok(())
    }
}

/// The guard, drift, reservoir, backoff and fault decisions of one
/// continual loop (see the [module docs](self)).
pub struct ContinualCore {
    config: StreamingConfig,
    retry: RetryPolicy,
    guard: InputGuard,
    drift: DriftMonitor,
    window: usize,
    armed: bool,
    last_verdict: Option<DriftVerdict>,
    drift_rejections: u64,
    buffer: ReservoirBuffer<Vec<f64>>,
    flows_seen: u64,
    flows_dropped: u64,
    attempts: u64,
    mode: Mode,
    consecutive_failures: u32,
    total_failures: u64,
    flows_until_retry: usize,
    injector: Option<Box<dyn FaultInjector + Send>>,
    host: Host,
    cycle: u64,
    cycles_minted: u64,
    cycle_drift: Option<DriftProvenance>,
    events: [u64; EventKind::ALL.len()],
    trainer_panics: u64,
}

impl ContinualCore {
    /// A core guarding inputs with `scaler`'s fitted statistics. Every
    /// event and drift counter is registered at zero, so a scrape sees
    /// it before the first cycle.
    pub fn new(
        scaler: &StandardScaler,
        config: StreamingConfig,
        retry: RetryPolicy,
        host: Host,
    ) -> Self {
        for kind in EventKind::ALL {
            host.count(kind.metric(), 0);
        }
        host.count(DRIFT_REJECTED, 0);
        host.count(DRIFT_CONFIRMED, 0);
        ContinualCore {
            config,
            retry,
            guard: InputGuard::new(scaler),
            drift: DriftMonitor::default(),
            window: 0,
            armed: false,
            last_verdict: None,
            drift_rejections: 0,
            buffer: ReservoirBuffer::new(config.max_buffer, RESERVOIR_SEED),
            flows_seen: 0,
            flows_dropped: 0,
            attempts: 0,
            mode: Mode::Normal,
            consecutive_failures: 0,
            total_failures: 0,
            flows_until_retry: 0,
            injector: None,
            host,
            cycle: 0,
            cycles_minted: 0,
            cycle_drift: None,
            events: [0; EventKind::ALL.len()],
            trainer_panics: 0,
        }
    }

    /// Installs a fault injector (tests, benches, fire drills).
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector + Send>) {
        self.injector = Some(injector);
    }

    /// Applies injected corruption to `row`, then the input guard.
    /// `Some` means the row was quarantined and must go no further.
    pub fn screen(&mut self, row: &mut Vec<f64>) -> Option<RejectReason> {
        let index = self.flows_seen;
        self.flows_seen += 1;
        if let Some(inj) = self.injector.as_mut() {
            inj.corrupt_flow(index, row);
        }
        self.guard.admit(row)
    }

    /// Offers an accepted row to the replay reservoir and counts it
    /// against the retry backoff. Returns `true` when the full
    /// reservoir dropped a row (this one or a displaced one).
    pub fn offer(&mut self, row: Vec<f64>) -> bool {
        self.flows_until_retry = self.flows_until_retry.saturating_sub(1);
        let dropped = self.buffer.offer(row).is_some();
        self.flows_dropped += u64::from(dropped);
        dropped
    }

    /// Adds one serving-model score to the current drift window, and
    /// closes the window when this score fills it to `drift_window`, so
    /// every window holds exactly `drift_window` scores however the host
    /// batches them. A `NaN` or `+inf` score is rejected from the
    /// histogram (counted in `continual.drift_rejected.count`) but still
    /// counts toward the window.
    ///
    /// A closing window's verdict is compared against the previous
    /// window (there is none for the first window after a reset) and
    /// returned. It sets the `continual.drift.{psi,sym_kl}` gauges, and
    /// a drifted one bumps `continual.drift_confirmed.count` and arms a
    /// retrain until [`reset_drift`](Self::reset_drift): arming mints a
    /// cycle (unless one is in flight) and records
    /// [`ContinualEvent::DriftDetected`] into `events`.
    pub fn observe_score(
        &mut self,
        score: f64,
        events: &mut Vec<ContinualEvent>,
    ) -> Option<DriftVerdict> {
        // FRE scores are heavy-tailed; the log keeps a few extreme flows
        // from owning the histogram. `max` maps NaN to 0, so NaN is
        // refused before it.
        let value = (1.0 + score.max(0.0)).ln();
        self.window += 1;
        if !score.is_nan() && value.is_finite() {
            self.drift.observe(value);
        } else {
            self.drift_rejections += 1;
            self.host.count(DRIFT_REJECTED, 1);
        }
        self.close_window(events)
    }

    fn close_window(&mut self, events: &mut Vec<ContinualEvent>) -> Option<DriftVerdict> {
        if self.window < self.config.drift_window {
            return None;
        }
        self.window = 0;
        let verdict = self.drift.rotate()?;
        self.last_verdict = Some(verdict);
        self.host.gauge("continual.drift.psi", verdict.psi);
        self.host.gauge("continual.drift.sym_kl", verdict.sym_kl);
        if verdict.drifted {
            self.host.count(DRIFT_CONFIRMED, 1);
        }
        if verdict.drifted && !self.armed {
            self.armed = true;
            let drift = DriftProvenance {
                psi: verdict.psi,
                sym_kl: verdict.sym_kl,
                window: self.config.drift_window as u64,
            };
            self.cycle_drift = Some(drift);
            let cycle = self.open_cycle();
            self.record(ContinualEvent::DriftDetected { cycle, drift }, None, events);
        }
        Some(verdict)
    }

    /// The cycle in flight, minting one when there is none.
    fn open_cycle(&mut self) -> u64 {
        if self.cycle == 0 {
            self.cycles_minted += 1;
            self.cycle = self.cycles_minted;
        }
        self.cycle
    }

    /// Forgets the score distribution (after a new model goes live): the
    /// next window becomes the reference and any armed drift is cleared.
    pub fn reset_drift(&mut self) {
        self.drift = DriftMonitor::default();
        self.window = 0;
        self.armed = false;
    }

    /// `true` when drift is armed, enough flows were offered, and no
    /// backoff is pending.
    pub fn drift_ready(&self) -> bool {
        self.armed && self.pending() >= self.config.min_batch && self.flows_until_retry == 0
    }

    /// The trigger of a retrain that is due now, if any: bootstrap (for
    /// an untrained model) or a full buffer ([`Trigger::BufferFull`]),
    /// else ready drift ([`Trigger::DriftDetected`]).
    pub fn due(&self, trained: bool) -> Option<Trigger> {
        if self.flows_until_retry > 0 {
            return None;
        }
        let full = self.is_full() || (!trained && self.pending() >= self.config.bootstrap_batch);
        if full {
            Some(Trigger::BufferFull)
        } else if self.drift_ready() {
            Some(Trigger::DriftDetected)
        } else {
            None
        }
    }

    /// Numbers the next attempt, asks the injector for its faults, and
    /// stacks the reservoir into its batch. An attempt with no cycle in
    /// flight (a full buffer or a manual flush) mints one.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the reservoir is empty.
    pub fn begin_attempt(&mut self) -> Result<Attempt, CoreError> {
        let batch = self.buffer.to_matrix().ok_or(CoreError::InvalidConfig {
            name: "buffer",
            constraint: "cannot train on an empty stream buffer",
        })?;
        self.open_cycle();
        self.attempts += 1;
        let number = self.attempts;
        let (fault, artifact_fault) = match self.injector.as_mut() {
            Some(inj) => (inj.training_fault(number), inj.artifact_fault(number)),
            None => (None, None),
        };
        Ok(Attempt {
            number,
            fault,
            artifact_fault,
            batch,
        })
    }

    /// Empties the reservoir (its rows became a model).
    pub fn clear_buffer(&mut self) {
        self.buffer.clear();
    }

    /// Records a successful cycle: failures and backoff reset. Returns
    /// `true` when this left [`Mode::Degraded`].
    pub fn succeeded(&mut self) -> bool {
        let recovered = self.mode == Mode::Degraded;
        self.mode = Mode::Normal;
        self.consecutive_failures = 0;
        self.flows_until_retry = 0;
        recovered
    }

    /// Records a failed cycle and arms the backoff. Returns `true` when
    /// this entered [`Mode::Degraded`].
    pub fn failed(&mut self) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.total_failures += 1;
        self.flows_until_retry = self.retry.backoff_flows(self.consecutive_failures);
        let entered =
            self.mode == Mode::Normal && self.consecutive_failures >= self.retry.max_attempts;
        if entered {
            self.mode = Mode::Degraded;
        }
        entered
    }

    /// Records one event of either host, in one place: counts it by
    /// kind; writes its `cevent` trace line, flight-ring entry and
    /// `continual.<name>.count` metric; appends a disposition to the
    /// `ledger` when the host keeps one; ends the cycle on a terminal
    /// event; and pushes the event onto `events`.
    pub fn record(
        &mut self,
        event: ContinualEvent,
        ledger: Option<LedgerSink<'_>>,
        events: &mut Vec<ContinualEvent>,
    ) {
        let kind = event.kind();
        let cycle = event.cycle();
        self.events[kind as usize] += 1;
        if matches!(event, ContinualEvent::TrainerFailed { panicked: true, .. }) {
            self.trainer_panics += 1;
        }
        let detail = event.to_string();
        cnd_obs::continual_event(cycle, kind.as_str(), &detail);
        cnd_obs::flight::record(self.host.as_str(), kind.as_str(), Some(cycle), &detail);
        self.host.count(kind.metric(), 1);
        if let (Some(sink), Some(disposition)) = (ledger, kind.disposition()) {
            let (version, train, shadow) = match &event {
                ContinualEvent::TrainerFailed { samples, .. } => (0, *samples, None),
                ContinualEvent::CandidateRejected {
                    samples, shadow, ..
                }
                | ContinualEvent::SwapRefused {
                    samples, shadow, ..
                } => (0, Some(*samples), Some(*shadow)),
                ContinualEvent::Swapped {
                    samples,
                    version,
                    shadow,
                    ..
                } => (u64::from(*version), Some(*samples), Some(*shadow)),
                ContinualEvent::RolledBack {
                    from_version: v, ..
                }
                | ContinualEvent::ProbationPassed { version: v, .. } => (u64::from(*v), None, None),
                _ => (0, None, None),
            };
            let poisoned = self.guard.stats().total();
            sink.ledger.append(EntryDraft {
                cycle,
                kind: disposition,
                version,
                parent: sink.parent,
                drift: self.cycle_drift,
                samples: train.map(|train| SampleProvenance {
                    train: train as u64,
                    mirror_seen: sink.mirror_seen,
                    mirror_dropped: sink.mirror_dropped,
                    poisoned,
                }),
                shadow,
                detail,
            });
        }
        if matches!(
            kind,
            EventKind::Trained | EventKind::ProbationPassed | EventKind::RolledBack
        ) {
            self.cycle = 0;
            self.cycle_drift = None;
        }
        events.push(event);
    }

    /// The state of the loop plus its event counts; `experiences_trained`
    /// comes from the host's model.
    pub fn status(&self, experiences_trained: usize) -> ContinualStatus {
        let quarantine = self.guard.stats();
        ContinualStatus {
            mode: self.mode,
            quarantine,
            flows_seen: self.flows_seen,
            flows_accepted: self.flows_seen - quarantine.total(),
            flows_dropped: self.flows_dropped,
            buffered: self.buffer.len(),
            drift_rejections: self.drift_rejections,
            score_drift: self.last_verdict,
            experiences_trained,
            total_failures: self.total_failures,
            consecutive_failures: self.consecutive_failures,
            flows_until_retry: self.flows_until_retry,
            trainer_panics: self.trainer_panics,
            cycle: self.cycle,
            events: self.events,
        }
    }

    /// The cycle in flight (0 = none).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The input guard (quarantine inspection).
    pub fn guard(&self) -> &InputGuard {
        &self.guard
    }

    /// Flows offered since the last [`clear_buffer`](Self::clear_buffer).
    pub fn pending(&self) -> usize {
        self.buffer.seen() as usize
    }

    /// Whether `max_buffer` flows were offered: the reservoir is full and
    /// the next offer drops a flow.
    pub fn is_full(&self) -> bool {
        self.pending() >= self.config.max_buffer
    }

    /// Rows the reservoir holds (at most `max_buffer`).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a drift verdict has armed a retrain.
    pub fn drift_armed(&self) -> bool {
        self.armed
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CndIdsConfig;

    fn flows(n: usize, offset: f64, phase: usize) -> Matrix {
        Matrix::from_fn(n, 6, |i, j| {
            offset + (((i + phase) * 13 + j * 7) % 17) as f64 / 17.0
        })
    }

    fn model() -> CndIds {
        CndIds::new(CndIdsConfig::fast(5), &flows(60, 0.0, 900)).expect("builds")
    }

    fn core(max_buffer: usize) -> ContinualCore {
        let config = StreamingConfig {
            max_buffer,
            bootstrap_batch: max_buffer,
            min_batch: 50,
            drift_window: 40,
        };
        ContinualCore::new(
            model().scaler(),
            config,
            RetryPolicy::default(),
            Host::Stream,
        )
    }

    fn offer_all(c: &mut ContinualCore, x: &Matrix) {
        for row in x.iter_rows() {
            c.offer(row.to_vec());
        }
    }

    /// Feeds one full drift window of the 8-value cycle `base + k/10`;
    /// its last score closes it.
    fn window(c: &mut ContinualCore, base: f64) -> Option<DriftVerdict> {
        let mut verdict = None;
        for i in 0..40 {
            verdict = c.observe_score(base + (i % 8) as f64 * 0.1, &mut Vec::new());
        }
        verdict
    }

    #[test]
    fn drift_detector_fires_on_shift_not_on_stationary() {
        let mut c = core(100_000);
        assert!(
            window(&mut c, 0.0).is_none(),
            "first window is the reference"
        );
        for _ in 0..4 {
            let v = window(&mut c, 0.0).expect("verdict");
            assert!(!v.drifted, "stationary windows must not drift: {v:?}");
        }
        assert!(!c.drift_armed());
        let v = window(&mut c, 500.0).expect("verdict");
        assert!(v.drifted && v.psi > 0.25, "{v:?}");
        assert!(c.drift_armed());
        // Armed drift stays armed until a reset.
        window(&mut c, 500.0);
        assert!(c.drift_armed());
    }

    #[test]
    fn drift_detector_reset_recalibrates() {
        let mut c = core(100_000);
        window(&mut c, 0.0);
        window(&mut c, 500.0);
        assert!(c.drift_armed());
        c.reset_drift();
        assert!(!c.drift_armed());
        let v = c
            .status(0)
            .score_drift
            .expect("the arming verdict stays readable");
        assert!(v.drifted);
        // The new regime becomes the reference after a reset.
        assert!(window(&mut c, 500.0).is_none());
        let v = window(&mut c, 500.0).expect("verdict");
        assert!(!v.drifted, "same regime after reset must not drift");
        assert!(!c.drift_armed());
    }

    #[test]
    fn non_finite_scores_are_rejected_but_fill_the_window() {
        let mut c = core(100_000);
        for _ in 0..39 {
            c.observe_score(1.0, &mut Vec::new());
        }
        assert_eq!(c.status(0).drift_rejections, 0);
        let last = c.observe_score(f64::INFINITY, &mut Vec::new());
        assert_eq!(c.status(0).drift_rejections, 1);
        assert!(last.is_none(), "the first window is the reference");
        assert!(window(&mut c, 0.0).is_some(), "so the second one compares");
    }

    #[test]
    fn nan_scores_are_rejected_not_observed_as_zero() {
        let mut c = core(100_000);
        assert_eq!(c.observe_score(f64::NAN, &mut Vec::new()), None);
        assert_eq!(c.status(0).drift_rejections, 1);
        assert_eq!(c.drift.observed(), 0);
        // A finite score still lands in the histogram.
        c.observe_score(0.5, &mut Vec::new());
        assert_eq!(c.drift.observed(), 1);
        assert_eq!(c.status(0).drift_rejections, 1);
    }

    #[test]
    fn one_long_drain_closes_every_full_window() {
        // A host that drains 3000 scores in one step gets a verdict for
        // every full 256-score window after the reference, not one
        // oversized window.
        let config = StreamingConfig {
            drift_window: 256,
            ..StreamingConfig::default()
        };
        let mut c = ContinualCore::new(
            model().scaler(),
            config,
            RetryPolicy::default(),
            Host::Stream,
        );
        let verdicts = (0..3000)
            .filter_map(|i| c.observe_score((i % 8) as f64 * 0.1, &mut Vec::new()))
            .count();
        assert_eq!(verdicts, 3000 / 256 - 1);
        assert!(c.status(0).score_drift.is_some());
    }

    #[test]
    fn buffer_full_triggers_training() {
        let mut c = core(100);
        for phase in 0..3 {
            offer_all(&mut c, &flows(30, 0.0, phase * 30));
            assert_eq!(c.due(false), None);
        }
        offer_all(&mut c, &flows(30, 0.0, 90));
        assert_eq!(c.due(false), Some(Trigger::BufferFull));
        assert_eq!(c.pending(), 120);
        assert_eq!(c.buffered(), 100, "the reservoir keeps max_buffer rows");
        assert_eq!(c.status(0).flows_dropped, 20);
        let attempt = c.begin_attempt().expect("non-empty");
        assert_eq!((attempt.number, attempt.batch.rows()), (1, 100));
        let mut m = model();
        train_attempt(&mut m, &attempt.batch, attempt.fault).expect("trains");
        assert_eq!(m.experiences_trained(), 1);
        c.clear_buffer();
        assert_eq!((c.pending(), c.buffered()), (0, 0));
    }

    #[test]
    fn drift_triggers_training_before_buffer_full() {
        let mut c = core(100_000);
        window(&mut c, 0.0);
        window(&mut c, 0.0);
        offer_all(&mut c, &flows(40, 0.0, 0));
        assert_eq!(c.due(true), None, "no drift, buffer far from full");
        window(&mut c, 500.0);
        assert_eq!(c.due(true), None, "armed drift waits for min_batch");
        offer_all(&mut c, &flows(10, 0.0, 40));
        assert_eq!(c.due(true), Some(Trigger::DriftDetected));
        assert!(c.drift_ready());
    }

    #[test]
    fn arming_drift_mints_one_cycle_until_a_terminal_event() {
        let mut c = core(100_000);
        window(&mut c, 0.0);
        assert_eq!(c.cycle(), 0, "no cycle before drift arms");
        let mut events = Vec::new();
        for i in 0..40 {
            c.observe_score(500.0 + (i % 8) as f64 * 0.1, &mut events);
        }
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            ContinualEvent::DriftDetected { cycle: 1, drift } if drift.window == 40
        ));
        // An armed window does not re-announce drift.
        window(&mut c, 0.0);
        offer_all(&mut c, &flows(50, 0.0, 0));
        assert_eq!(c.begin_attempt().expect("non-empty").number, 1);
        assert_eq!(c.cycle(), 1, "the attempt joins the armed cycle");
        let fail = ContinualEvent::TrainerFailed {
            cycle: 1,
            reason: "x".into(),
            samples: None,
            panicked: true,
            mode: Mode::Normal,
        };
        c.record(fail, None, &mut events);
        assert_eq!(c.cycle(), 1, "a failure keeps the cycle");
        let pass = ContinualEvent::ProbationPassed {
            cycle: 1,
            version: 2,
            alert_rate: 0.0,
        };
        c.record(pass, None, &mut events);
        assert_eq!(c.cycle(), 0, "a terminal event ends it");
        let status = c.status(0);
        assert_eq!(status.count(EventKind::DriftDetected), 1);
        assert_eq!(status.count(EventKind::TrainerFailed), 1);
        assert_eq!(status.count(EventKind::ProbationPassed), 1);
        assert_eq!(status.trainer_panics, 1);
        assert_eq!(events.len(), 3);
        // With nothing armed, the next attempt mints a fresh cycle.
        assert_eq!(c.begin_attempt().expect("non-empty").number, 2);
        assert_eq!(c.cycle(), 2);
    }

    #[test]
    fn dispositions_reach_the_ledger_and_name_their_kind() {
        for kind in EventKind::ALL {
            if let Some(d) = kind.disposition() {
                assert_eq!(d.as_str(), kind.as_str());
            }
            assert_eq!(EventKind::ALL[kind as usize], kind);
        }
        let dispositions = EventKind::ALL
            .iter()
            .filter_map(|k| k.disposition())
            .count();
        assert_eq!(dispositions, 6);
        let mut c = core(100);
        let mut ledger = Ledger::new();
        let mut events = Vec::new();
        fn sink(ledger: &mut Ledger) -> LedgerSink<'_> {
            LedgerSink {
                ledger,
                parent: 1,
                mirror_seen: 9,
                mirror_dropped: 2,
            }
        }
        let started = ContinualEvent::RetrainStarted {
            cycle: 1,
            trigger: Trigger::DriftDetected,
            samples: 7,
            attempt: 1,
        };
        c.record(started, Some(sink(&mut ledger)), &mut events);
        assert!(ledger.is_empty(), "only dispositions are ledger entries");
        let shadow = ShadowProvenance {
            live_f1: 0.5,
            cand_f1: 0.6,
            live_pr_auc: 0.5,
            cand_pr_auc: 0.6,
            tau: 1.0,
        };
        let swapped = ContinualEvent::Swapped {
            cycle: 1,
            samples: 7,
            version: 2,
            shadow,
        };
        c.record(swapped, Some(sink(&mut ledger)), &mut events);
        let entry = &ledger.entries()[0];
        assert_eq!(entry.kind, Disposition::Swapped);
        assert_eq!((entry.cycle, entry.version, entry.parent), (1, 2, 1));
        assert_eq!(entry.shadow, Some(shadow));
        let samples = entry.samples.expect("sample provenance");
        assert_eq!((samples.train, samples.mirror_seen), (7, 9));
        assert_eq!(entry.detail, events[1].to_string());
    }

    #[test]
    fn flush_empty_is_an_error() {
        let mut c = core(100);
        assert!(matches!(
            c.begin_attempt(),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn scores_available_after_first_experience() {
        let mut c = core(100);
        offer_all(&mut c, &flows(120, 0.0, 0));
        let attempt = c.begin_attempt().expect("non-empty");
        let mut m = model();
        train_attempt(&mut m, &attempt.batch, None).expect("trains");
        assert!(m.anomaly_scores(&flows(10, 0.0, 500)).is_ok());
    }
}
