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
//!    fills fixed-size windows of a [`cnd_obs::DriftMonitor`]; a window
//!    whose PSI / symmetric-KL verdict crosses the default thresholds
//!    arms a retrain.
//! 3. **Replay reservoir**: accepted flows feed a seeded Algorithm-R
//!    sample of at most `max_buffer` rows; the triggers count *offered*
//!    flows, so memory stays bounded however long a retrain is held off.
//! 4. **Retry, backoff and degraded mode** ([`RetryPolicy`], [`Mode`]):
//!    failed attempts back off exponentially in accepted flows (no wall
//!    clock), and `max_attempts` consecutive failures enter degraded mode.
//! 5. **The training attempt** ([`train_attempt`]): Algorithm 1's
//!    per-experience update on the reservoir, with the scripted
//!    [`TrainingFault`]s applied.
//!
//! Two hosts drive the core. `ResilientStreamingCndIds` (the `stream`
//! CLI) trains in-process and rolls back to a model snapshot;
//! `cnd_serve::ContinualController` (`serve --continual`) trains on a
//! background thread behind a shadow gate, canary swap and probation.

use std::collections::VecDeque;
use std::fmt;

use cnd_linalg::Matrix;
use cnd_ml::StandardScaler;
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
    /// Scores per drift window; a verdict is taken each time a batch
    /// brings the window to at least this many.
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
}

impl ContinualCore {
    /// A core guarding inputs with `scaler`'s fitted statistics.
    pub fn new(scaler: &StandardScaler, config: StreamingConfig, retry: RetryPolicy) -> Self {
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

    /// Adds one serving-model score to the current drift window.
    /// Returns `false` when the score was rejected as non-finite.
    pub fn observe_score(&mut self, score: f64) -> bool {
        // FRE scores are heavy-tailed; the log keeps a few extreme flows
        // from owning the histogram.
        let value = (1.0 + score.max(0.0)).ln();
        self.window += 1;
        if !value.is_finite() {
            self.drift_rejections += 1;
            return false;
        }
        self.drift.observe(value);
        true
    }

    /// Closes the drift window once it holds `drift_window` scores and
    /// returns its verdict against the previous window (`None` while the
    /// window is filling, and for the first window after a reset). A
    /// drifted verdict arms a retrain until [`reset_drift`](Self::reset_drift).
    pub fn close_window(&mut self) -> Option<DriftVerdict> {
        if self.window < self.config.drift_window {
            return None;
        }
        self.window = 0;
        let verdict = self.drift.rotate()?;
        self.armed |= verdict.drifted;
        self.last_verdict = Some(verdict);
        Some(verdict)
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
        let pending = self.pending();
        let full = pending >= self.config.max_buffer
            || (!trained && pending >= self.config.bootstrap_batch);
        if full {
            Some(Trigger::BufferFull)
        } else if self.drift_ready() {
            Some(Trigger::DriftDetected)
        } else {
            None
        }
    }

    /// Numbers the next attempt, asks the injector for its faults, and
    /// stacks the reservoir into its batch.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the reservoir is empty.
    pub fn begin_attempt(&mut self) -> Result<Attempt, CoreError> {
        let batch = self.buffer.to_matrix().ok_or(CoreError::InvalidConfig {
            name: "buffer",
            constraint: "cannot train on an empty stream buffer",
        })?;
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

    /// The input guard (quarantine inspection).
    pub fn guard(&self) -> &InputGuard {
        &self.guard
    }

    /// Input-guard rejection counters.
    pub fn quarantine(&self) -> QuarantineStats {
        self.guard.stats()
    }

    /// Flows ever screened (accepted + quarantined).
    pub fn flows_seen(&self) -> u64 {
        self.flows_seen
    }

    /// Accepted flows the full reservoir did not keep.
    pub fn flows_dropped(&self) -> u64 {
        self.flows_dropped
    }

    /// Flows offered since the last [`clear_buffer`](Self::clear_buffer).
    pub fn pending(&self) -> usize {
        self.buffer.seen() as usize
    }

    /// Rows the reservoir holds (at most `max_buffer`).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a drift verdict has armed a retrain.
    pub fn drift_armed(&self) -> bool {
        self.armed
    }

    /// The most recent window verdict; survives [`reset_drift`](Self::reset_drift)
    /// so the verdict behind the last retrain stays readable.
    pub fn last_verdict(&self) -> Option<DriftVerdict> {
        self.last_verdict
    }

    /// Non-finite scores rejected by the drift policy.
    pub fn drift_rejections(&self) -> u64 {
        self.drift_rejections
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Failed cycles in total.
    pub fn total_failures(&self) -> u64 {
        self.total_failures
    }

    /// Accepted flows to offer before the next attempt (0 = ready).
    pub fn flows_until_retry(&self) -> usize {
        self.flows_until_retry
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
        ContinualCore::new(model().scaler(), config, RetryPolicy::default())
    }

    fn offer_all(c: &mut ContinualCore, x: &Matrix) {
        for row in x.iter_rows() {
            c.offer(row.to_vec());
        }
    }

    /// Feeds one full drift window of the 8-value cycle `base + k/10`
    /// and closes it.
    fn window(c: &mut ContinualCore, base: f64) -> Option<DriftVerdict> {
        for i in 0..40 {
            c.observe_score(base + (i % 8) as f64 * 0.1);
        }
        c.close_window()
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
        let v = c.last_verdict().expect("the arming verdict stays readable");
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
            assert!(c.observe_score(1.0));
        }
        assert!(!c.observe_score(f64::INFINITY));
        assert_eq!(c.drift_rejections(), 1);
        assert!(
            c.close_window().is_none(),
            "the first window is the reference"
        );
        assert!(window(&mut c, 0.0).is_some(), "so the second one compares");
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
        assert_eq!(c.flows_dropped(), 20);
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
