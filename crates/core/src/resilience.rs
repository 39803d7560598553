//! The in-process host of the continual core: fault-tolerant
//! streaming deployment of CND-IDS.
//!
//! [`ResilientStreamingCndIds`] feeds every flow through the
//! [`ContinualCore`] (input guard, drift windows, replay reservoir,
//! retry backoff and degraded mode) and adds what only an in-process
//! trainer needs:
//!
//! 1. **Training watchdog**: every attempt runs against a pre-experience
//!    snapshot of the model; if the CFE reports a non-finite or
//!    exploding loss ([`CoreError::TrainingDiverged`]) or any other
//!    failure, the model is rolled back to the snapshot and the
//!    reservoir is kept for a later retry.
//! 2. **Sentinel scoring**: scoring always goes through the
//!    last-known-good [`DeployedScorer`], so a mid-retraining failure can
//!    never leave callers with a half-updated model, and rows the guard
//!    rejects score as the finite [`QUARANTINE_SCORE`].
//!
//! Each batch returns its [`ContinualEvent`]s, recorded through the
//! core like those of the serving host; [`ResilientStreamingCndIds::status`]
//! surfaces the whole state. [`ScriptedFaults`] is the seeded,
//! deterministic [`FaultInjector`] that corrupts inputs and fails chosen
//! attempts, so every recovery path is exercised by tests and benches
//! rather than waiting for production to find them.

use std::collections::VecDeque;

use cnd_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::DeployedScorer;
use crate::streaming::{
    train_attempt, ArtifactFault, ContinualCore, ContinualEvent, ContinualStatus, FaultInjector,
    Host, InputGuard, Mode, RetryPolicy, StreamingConfig, TrainingFault, Trigger, QUARANTINE_SCORE,
};
use crate::{CndIds, CoreError};

/// Seeded scripted fault injector: corrupts a configurable fraction of
/// flows (cycling NaN / +Inf / huge-magnitude / truncated-row faults)
/// and fails chosen training attempts.
#[derive(Debug, Clone)]
pub struct ScriptedFaults {
    rng: StdRng,
    corruption_rate: f64,
    kind_counter: u64,
    nan_loss_attempts: Vec<u64>,
    fail_attempts: Vec<u64>,
    panic_attempts: Vec<u64>,
    garbage_artifact_attempts: Vec<u64>,
    degraded_artifact_attempts: Vec<u64>,
    corrupted: u64,
}

impl ScriptedFaults {
    /// A no-op injector with the given seed; add faults with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        ScriptedFaults {
            rng: StdRng::seed_from_u64(seed),
            corruption_rate: 0.0,
            kind_counter: 0,
            nan_loss_attempts: Vec::new(),
            fail_attempts: Vec::new(),
            panic_attempts: Vec::new(),
            garbage_artifact_attempts: Vec::new(),
            degraded_artifact_attempts: Vec::new(),
            corrupted: 0,
        }
    }

    /// Corrupt roughly this fraction of incoming flows (clamped to
    /// `[0, 1]`).
    pub fn with_corruption_rate(mut self, rate: f64) -> Self {
        self.corruption_rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// Poison the training batch (NaN loss) on these 1-based attempts.
    pub fn with_nan_loss_at(mut self, attempts: &[u64]) -> Self {
        self.nan_loss_attempts = attempts.to_vec();
        self
    }

    /// Fail these 1-based attempts outright with a synthetic error.
    pub fn with_failure_at(mut self, attempts: &[u64]) -> Self {
        self.fail_attempts = attempts.to_vec();
        self
    }

    /// Crash the trainer ([`TrainingFault::Panic`]) on these 1-based
    /// attempts.
    pub fn with_panic_at(mut self, attempts: &[u64]) -> Self {
        self.panic_attempts = attempts.to_vec();
        self
    }

    /// Replace the candidate artifact with unparseable garbage
    /// ([`ArtifactFault::Garbage`]) on these 1-based attempts.
    pub fn with_artifact_garbage_at(mut self, attempts: &[u64]) -> Self {
        self.garbage_artifact_attempts = attempts.to_vec();
        self
    }

    /// Silently degrade the candidate artifact's weights
    /// ([`ArtifactFault::DegradedWeights`]) on these 1-based attempts.
    pub fn with_artifact_degraded_at(mut self, attempts: &[u64]) -> Self {
        self.degraded_artifact_attempts = attempts.to_vec();
        self
    }

    /// Flows corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }
}

impl FaultInjector for ScriptedFaults {
    fn corrupt_flow(&mut self, _flow_index: u64, row: &mut Vec<f64>) {
        if self.corruption_rate <= 0.0 || row.is_empty() {
            return;
        }
        if self.rng.gen_range(0.0..1.0) >= self.corruption_rate {
            return;
        }
        self.corrupted += 1;
        let slot = self.rng.gen_range(0..row.len());
        match self.kind_counter % 4 {
            0 => row[slot] = f64::NAN,
            1 => row[slot] = f64::INFINITY,
            2 => row[slot] = 1e30,
            _ => {
                // Truncated record: exporter dropped trailing fields.
                row.pop();
            }
        }
        self.kind_counter += 1;
    }

    fn training_fault(&mut self, attempt: u64) -> Option<TrainingFault> {
        if self.nan_loss_attempts.contains(&attempt) {
            Some(TrainingFault::NanLoss)
        } else if self.fail_attempts.contains(&attempt) {
            Some(TrainingFault::Error)
        } else if self.panic_attempts.contains(&attempt) {
            Some(TrainingFault::Panic)
        } else {
            None
        }
    }

    fn artifact_fault(&mut self, attempt: u64) -> Option<ArtifactFault> {
        if self.garbage_artifact_attempts.contains(&attempt) {
            Some(ArtifactFault::Garbage)
        } else if self.degraded_artifact_attempts.contains(&attempt) {
            Some(ArtifactFault::DegradedWeights)
        } else {
            None
        }
    }
}

/// Bounded ledger of model versions that survived validation — the
/// rollback targets for a canary swap gone wrong.
///
/// The ledger keeps the most recent `capacity` `(version, scorer)`
/// pairs in promotion order. A closed-loop controller records the
/// serving model here *before* swapping a candidate in, and records the
/// candidate only after it survives its probation window; rolling back
/// is therefore always "restore [`LastKnownGood::current`]", which can
/// never name a model that was not observed healthy in production.
///
/// [`DeployedScorer`]'s text round-trip is bit-exact, so restoring a
/// ledger entry through a save/load cycle reproduces the original
/// scores bit for bit.
#[derive(Debug, Clone)]
pub struct LastKnownGood {
    capacity: usize,
    entries: VecDeque<(u32, DeployedScorer)>,
}

impl LastKnownGood {
    /// An empty ledger retaining at most `capacity` entries (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        LastKnownGood {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Records `scorer` as the known-good model for `version`. If the
    /// version is already present its scorer is replaced in place;
    /// otherwise the entry is appended and the oldest entry beyond
    /// capacity is evicted.
    pub fn record(&mut self, version: u32, scorer: DeployedScorer) {
        if let Some(slot) = self.entries.iter_mut().find(|(v, _)| *v == version) {
            slot.1 = scorer;
            return;
        }
        self.entries.push_back((version, scorer));
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    /// The most recently recorded known-good entry, if any.
    pub fn current(&self) -> Option<(u32, &DeployedScorer)> {
        self.entries.back().map(|(v, s)| (*v, s))
    }

    /// The entry recorded immediately before [`LastKnownGood::current`],
    /// if any.
    pub fn previous(&self) -> Option<(u32, &DeployedScorer)> {
        let n = self.entries.len();
        if n < 2 {
            return None;
        }
        self.entries.get(n - 2).map(|(v, s)| (*v, s))
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Versions currently retained, oldest first.
    pub fn versions(&self) -> Vec<u32> {
        self.entries.iter().map(|(v, _)| *v).collect()
    }
}

/// Configuration of the resilient streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilientConfig {
    /// Buffering / drift-trigger sizes.
    pub streaming: StreamingConfig,
    /// Retry/backoff policy for failed training attempts.
    pub retry: RetryPolicy,
}

/// Fault-tolerant streaming deployment of CND-IDS: the in-process host
/// of the [`ContinualCore`] (see the [module docs](self)).
///
/// * Training failures are **events, not errors**: `push_flows`
///   returns [`ContinualEvent::TrainerFailed`] and the pipeline keeps
///   running on the last-known-good scorer.
/// * [`anomaly_scores`](Self::anomaly_scores) never returns NaN/Inf:
///   invalid rows get the finite [`QUARANTINE_SCORE`] sentinel, and
///   scoring always uses the last *frozen* snapshot, never a
///   half-trained model.
pub struct ResilientStreamingCndIds {
    model: CndIds,
    core: ContinualCore,
    fallback: Option<DeployedScorer>,
}

impl ResilientStreamingCndIds {
    /// Wraps a (possibly untrained) model. If the model has already
    /// trained, its current state becomes the initial last-known-good
    /// scorer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid retry
    /// parameters.
    pub fn new(model: CndIds, config: ResilientConfig) -> Result<Self, CoreError> {
        if config.retry.max_attempts == 0 {
            return Err(CoreError::InvalidConfig {
                name: "retry.max_attempts",
                constraint: "must be >= 1",
            });
        }
        if config.retry.backoff_base_flows == 0 {
            return Err(CoreError::InvalidConfig {
                name: "retry.backoff_base_flows",
                constraint: "must be >= 1",
            });
        }
        let fallback = if model.experiences_trained() > 0 {
            Some(model.freeze()?)
        } else {
            None
        };
        let core = ContinualCore::new(model.scaler(), config.streaming, config.retry, Host::Stream);
        Ok(ResilientStreamingCndIds {
            model,
            core,
            fallback,
        })
    }

    /// Installs a fault injector (tests/benches); replaces any previous
    /// one.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector + Send>) {
        self.core.set_fault_injector(injector);
    }

    /// Borrow of the wrapped model.
    pub fn model(&self) -> &CndIds {
        &self.model
    }

    /// Borrow of the input guard (quarantine inspection).
    pub fn guard(&self) -> &InputGuard {
        self.core.guard()
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.core.mode()
    }

    /// Flows currently buffered for the next experience.
    pub fn buffered(&self) -> usize {
        self.core.buffered()
    }

    /// `true` once a last-known-good scorer exists (first successful
    /// training), i.e. [`anomaly_scores`](Self::anomaly_scores) works.
    pub fn can_score(&self) -> bool {
        self.fallback.is_some()
    }

    /// Current status snapshot.
    pub fn status(&self) -> ContinualStatus {
        self.core.status(self.model.experiences_trained())
    }

    /// Pushes a batch of flows through guard → drift window → reservoir,
    /// then trains if a retrain is due. A reservoir that fills mid-batch
    /// trains at once, and the rest of the batch goes to the next
    /// experience. Returns every event, in order (none when the flows
    /// were only buffered or quarantined).
    ///
    /// Training failures are reported as
    /// [`ContinualEvent::TrainerFailed`], **not** as `Err`; the `Err`
    /// path is reserved for infrastructure faults (which the internal
    /// invariants rule out in practice).
    ///
    /// # Errors
    ///
    /// Propagates internal scoring errors of the frozen fallback scorer.
    pub fn push_flows(&mut self, x: &Matrix) -> Result<Vec<ContinualEvent>, CoreError> {
        let mut events = Vec::new();
        let mut accepted: Vec<Vec<f64>> = Vec::with_capacity(x.rows());
        for row in x.iter_rows() {
            let mut row = row.to_vec();
            if self.core.screen(&mut row).is_none() {
                accepted.push(row);
            }
        }
        if accepted.is_empty() {
            return Ok(events);
        }
        // Drift is observed on the last-known-good scorer: a model
        // mid-rollback must not steer the trigger logic.
        if let Some(scorer) = &self.fallback {
            for s in scorer.anomaly_scores(&Matrix::from_rows(&accepted)?)? {
                self.core.observe_score(s, &mut events);
            }
        }
        let mut dropped = 0;
        for row in accepted {
            dropped += u64::from(self.core.offer(row));
            // A full reservoir trains at once: one more row would drop a
            // flow. Bootstrap and drift retrains wait for the batch end.
            if self.core.is_full() {
                self.train_if_due(&mut events)?;
            }
        }
        if dropped > 0 {
            cnd_obs::counter_add("resilience.flows.dropped.count", dropped);
        }
        self.train_if_due(&mut events)?;
        Ok(events)
    }

    fn train_if_due(&mut self, events: &mut Vec<ContinualEvent>) -> Result<(), CoreError> {
        match self.core.due(self.model.experiences_trained() > 0) {
            Some(trigger) => self.attempt_train(trigger, events),
            None => Ok(()),
        }
    }

    /// Forces a training attempt on the buffered flows, bypassing the
    /// retry backoff (operator override). Failures still roll back,
    /// count against the retry policy, and re-arm the backoff.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the buffer is empty.
    pub fn flush(&mut self) -> Result<Vec<ContinualEvent>, CoreError> {
        let mut events = Vec::new();
        self.attempt_train(Trigger::Manual, &mut events)?;
        Ok(events)
    }

    /// Scores a batch on the last-known-good frozen scorer, sanitizing
    /// invalid rows: every returned score is finite, with invalid rows
    /// pinned to the [`QUARANTINE_SCORE`] sentinel (they cannot be
    /// meaningfully scored, and an IDS should treat malformed traffic
    /// as suspicious, not invisible).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before the first successful
    /// training experience.
    pub fn anomaly_scores(&self, x: &Matrix) -> Result<Vec<f64>, CoreError> {
        let scorer = self.fallback.as_ref().ok_or(CoreError::NotTrained)?;
        let mut scores = vec![QUARANTINE_SCORE; x.rows()];
        let valid: Vec<usize> = (0..x.rows())
            .filter(|&i| self.core.guard().check(x.row(i)).is_none())
            .collect();
        if !valid.is_empty() {
            let xm = x.select_rows(&valid)?;
            for (&i, s) in valid.iter().zip(scorer.anomaly_scores(&xm)?) {
                if s.is_finite() {
                    scores[i] = s;
                }
            }
        }
        Ok(scores)
    }

    /// One watchdog-supervised training attempt: snapshot, (optionally
    /// fault-injected) train, and on failure rollback + backoff.
    fn attempt_train(
        &mut self,
        trigger: Trigger,
        events: &mut Vec<ContinualEvent>,
    ) -> Result<(), CoreError> {
        let attempt = self.core.begin_attempt()?;
        let samples = attempt.batch.rows();
        let cycle = self.core.cycle();
        let _span = cnd_obs::span!(
            "stream.retrain",
            samples = samples,
            trigger = trigger.as_str(),
        );
        self.core.record(
            ContinualEvent::RetrainStarted {
                cycle,
                trigger,
                samples,
                attempt: attempt.number,
            },
            None,
            events,
        );
        let snapshot = self.model.clone();
        let (event, fault) = match train_attempt(&mut self.model, &attempt.batch, attempt.fault) {
            Ok(stats) => {
                self.fallback = Some(self.model.freeze()?);
                self.core.clear_buffer();
                self.core.reset_drift();
                let recovered = self.core.succeeded();
                let event = ContinualEvent::Trained {
                    cycle,
                    trigger,
                    samples,
                    stats,
                    recovered,
                };
                (event, None)
            }
            Err(err) => {
                self.model = snapshot;
                self.core.failed();
                let event = ContinualEvent::TrainerFailed {
                    cycle,
                    reason: format!("attempt {} rolled back: {err}", attempt.number),
                    samples: Some(samples),
                    panicked: false,
                    mode: self.core.mode(),
                };
                (event, Some(format!("watchdog rollback: {err}")))
            }
        };
        self.core.record(event, None, events);
        // Persist the flight ring, if a dump path is configured, so a
        // rollback is postmortem-able even if the process dies before
        // the next scrape.
        if let Some(cause) = fault {
            let _ = cnd_obs::flight::dump_on_fault(&cause);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{EventKind, QuarantineStats, RejectReason, QUARANTINE_CAPACITY};
    use crate::CndIdsConfig;

    fn flows(n: usize, offset: f64, phase: usize) -> Matrix {
        Matrix::from_fn(n, 6, |i, j| {
            offset + (((i + phase) * 13 + j * 7) % 17) as f64 / 17.0
        })
    }

    fn pipeline(max_buffer: usize, retry: RetryPolicy) -> ResilientStreamingCndIds {
        let n_c = flows(60, 0.0, 900);
        let model = CndIds::new(CndIdsConfig::fast(5), &n_c).expect("builds");
        ResilientStreamingCndIds::new(
            model,
            ResilientConfig {
                streaming: StreamingConfig {
                    max_buffer,
                    bootstrap_batch: max_buffer,
                    min_batch: 50,
                    drift_window: 40,
                },
                retry,
            },
        )
        .expect("valid config")
    }

    #[test]
    fn guard_classifies_rejections() {
        let p = pipeline(100, RetryPolicy::default());
        let g = p.guard();
        assert_eq!(g.check(&[0.1; 6]), None);
        assert_eq!(
            g.check(&[0.1, f64::NAN, 0.1, 0.1, 0.1, 0.1]),
            Some(RejectReason::NonFinite)
        );
        assert_eq!(
            g.check(&[0.1, f64::INFINITY, 0.1, 0.1, 0.1, 0.1]),
            Some(RejectReason::NonFinite)
        );
        assert_eq!(g.check(&[0.1; 5]), Some(RejectReason::DimensionMismatch));
        assert_eq!(
            g.check(&[1e30, 0.1, 0.1, 0.1, 0.1, 0.1]),
            Some(RejectReason::OutOfRange)
        );
    }

    #[test]
    fn guard_quarantine_is_bounded() {
        let n_c = flows(60, 0.0, 900);
        let model = CndIds::new(CndIdsConfig::fast(5), &n_c).unwrap();
        let mut guard = InputGuard::new(model.scaler());
        for _ in 0..QUARANTINE_CAPACITY + 7 {
            guard.admit(&[f64::NAN; 6]);
        }
        assert_eq!(guard.quarantined().count(), QUARANTINE_CAPACITY);
        let stats = guard.stats();
        assert_eq!(stats.non_finite, QUARANTINE_CAPACITY as u64 + 7);
        assert_eq!(stats.evicted, 7);
        assert_eq!(guard.drain_quarantine().len(), QUARANTINE_CAPACITY);
        assert_eq!(guard.quarantined().count(), 0);
    }

    #[test]
    fn health_report_display_names_every_counter() {
        let mut events = [0; EventKind::ALL.len()];
        events[EventKind::Trained as usize] = 5;
        events[EventKind::TrainerFailed as usize] = 4;
        let report = ContinualStatus {
            mode: Mode::Degraded,
            quarantine: QuarantineStats {
                non_finite: 12,
                dimension_mismatch: 3,
                out_of_range: 7,
                evicted: 2,
            },
            flows_seen: 1000,
            flows_accepted: 978,
            flows_dropped: 40,
            experiences_trained: 5,
            total_failures: 4,
            consecutive_failures: 3,
            flows_until_retry: 2000,
            buffered: 150,
            drift_rejections: 9,
            score_drift: Some(cnd_obs::DriftVerdict {
                psi: 0.375,
                sym_kl: 0.6428571428571429,
                drifted: true,
            }),
            trainer_panics: 0,
            cycle: 6,
            events,
        };
        let text = report.to_string();
        // The rendered text names every counter an operator needs.
        for needle in [
            "mode:       degraded",
            "quarantined 22",
            "nan/inf 12",
            "evicted 2",
            "drift-rejected 9",
            "psi 0.375",
            "drifted",
            "next attempt in 2000 flows",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 3,
            backoff_base_flows: 100,
            max_backoff_flows: 350,
        };
        assert_eq!(p.backoff_flows(1), 100);
        assert_eq!(p.backoff_flows(2), 200);
        assert_eq!(p.backoff_flows(3), 350);
        assert_eq!(p.backoff_flows(10), 350);
    }

    #[test]
    fn scripted_faults_are_deterministic() {
        let run = || {
            let mut inj = ScriptedFaults::new(7).with_corruption_rate(0.5);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for i in 0..50u64 {
                let mut row = vec![1.0; 6];
                inj.corrupt_flow(i, &mut row);
                rows.push(row);
            }
            (rows, inj.corrupted())
        };
        let (a, na) = run();
        let (b, nb) = run();
        assert_eq!(na, nb);
        assert!(na > 5, "rate 0.5 over 50 flows should corrupt > 5");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y) {
                assert!(u == v || (u.is_nan() && v.is_nan()));
            }
        }
    }

    #[test]
    fn corrupted_flows_are_quarantined_and_training_proceeds() {
        let mut p = pipeline(100, RetryPolicy::default());
        p.set_fault_injector(Box::new(ScriptedFaults::new(3).with_corruption_rate(0.2)));
        let mut trained = false;
        for phase in 0..10 {
            for ev in p.push_flows(&flows(30, 0.0, phase * 30)).unwrap() {
                match ev {
                    ContinualEvent::Trained { .. } => trained = true,
                    ContinualEvent::RetrainStarted { .. } => {}
                    ev => panic!("unexpected {ev:?}"),
                }
            }
            if trained {
                break;
            }
        }
        assert!(trained);
        let h = p.status();
        assert!(h.quarantine.total() > 0, "some flows must be quarantined");
        assert_eq!(h.flows_accepted + h.quarantine.total(), h.flows_seen);
        // Scores on a clean batch stay finite.
        for s in p.anomaly_scores(&flows(10, 0.0, 500)).unwrap() {
            assert!(s.is_finite());
        }
    }

    #[test]
    fn nan_loss_rolls_back_and_retry_succeeds() {
        let mut p = pipeline(
            100,
            RetryPolicy {
                max_attempts: 3,
                backoff_base_flows: 30,
                max_backoff_flows: 1000,
            },
        );
        p.set_fault_injector(Box::new(ScriptedFaults::new(0).with_nan_loss_at(&[1])));
        let mut failed = false;
        let mut trained = false;
        'push: for phase in 0..20 {
            for ev in p.push_flows(&flows(30, 0.0, phase * 30)).unwrap() {
                match ev {
                    ContinualEvent::TrainerFailed { reason, mode, .. } => {
                        assert!(reason.contains("diverged"), "failure = {reason}");
                        assert_eq!(mode, Mode::Normal, "one failure must not degrade");
                        failed = true;
                    }
                    ContinualEvent::Trained { .. } => {
                        trained = true;
                        break 'push;
                    }
                    _ => {}
                }
            }
        }
        assert!(failed, "injected NaN loss must fail the first attempt");
        assert!(trained, "retry after backoff must succeed");
        let h = p.status();
        assert_eq!(h.count(EventKind::TrainerFailed), 1);
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.mode, Mode::Normal);
        assert_eq!(h.experiences_trained, 1);
        for s in p.anomaly_scores(&flows(10, 0.0, 500)).unwrap() {
            assert!(s.is_finite());
        }
    }

    #[test]
    fn repeated_failures_degrade_then_recover() {
        let mut p = pipeline(
            60,
            RetryPolicy {
                max_attempts: 2,
                backoff_base_flows: 20,
                max_backoff_flows: 40,
            },
        );
        // Bootstrap a healthy first experience so a fallback exists.
        for phase in 0..3 {
            p.push_flows(&flows(30, 0.0, phase * 30)).unwrap();
        }
        assert!(p.can_score());
        let baseline = p.anomaly_scores(&flows(10, 0.0, 500)).unwrap();
        // The bootstrap consumed attempt 1; fail the next two attempts
        // -> degraded; the attempt after that succeeds.
        p.set_fault_injector(Box::new(ScriptedFaults::new(0).with_failure_at(&[2, 3])));
        let mut saw_degraded = false;
        let mut recovered = false;
        'push: for phase in 0..40 {
            for ev in p.push_flows(&flows(20, 0.0, phase * 20)).unwrap() {
                match ev {
                    ContinualEvent::TrainerFailed {
                        mode: Mode::Degraded,
                        ..
                    } => {
                        saw_degraded = true;
                        // Degraded mode still scores, identically to
                        // the last-known-good snapshot.
                        assert_eq!(p.anomaly_scores(&flows(10, 0.0, 500)).unwrap(), baseline);
                    }
                    ContinualEvent::Trained { recovered: r, .. } if saw_degraded => {
                        assert!(r, "success out of degraded mode must flag recovery");
                        recovered = true;
                        break 'push;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_degraded, "two consecutive failures must degrade");
        assert!(recovered, "later success must recover to normal");
        assert_eq!(p.mode(), Mode::Normal);
        assert_eq!(p.status().total_failures, 2);
    }

    #[test]
    fn a_full_reservoir_trains_before_it_drops_a_flow() {
        // 100 is not a multiple of the 30-row batches: a retrain that
        // waited for the whole batch would be offered 120 rows and drop
        // 20 of them.
        let mut p = pipeline(100, RetryPolicy::default());
        for phase in 0..10 {
            p.push_flows(&flows(30, 0.0, phase * 30)).unwrap();
        }
        let h = p.status();
        assert!(h.count(EventKind::Trained) >= 2, "{h}");
        assert_eq!(
            h.count(EventKind::RetrainStarted),
            h.count(EventKind::Trained),
            "every attempt succeeds"
        );
        assert_eq!(h.flows_dropped, 0);
    }

    #[test]
    fn a_retrain_shares_one_cycle_from_trigger_to_success() {
        let mut p = pipeline(
            100,
            RetryPolicy {
                max_attempts: 3,
                backoff_base_flows: 30,
                max_backoff_flows: 1000,
            },
        );
        p.set_fault_injector(Box::new(ScriptedFaults::new(0).with_failure_at(&[1])));
        let mut events = Vec::new();
        for phase in 0..6 {
            events.extend(p.push_flows(&flows(30, 0.0, phase * 30)).unwrap());
        }
        let kinds: Vec<EventKind> = events.iter().map(ContinualEvent::kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::RetrainStarted,
                EventKind::TrainerFailed,
                EventKind::RetrainStarted,
                EventKind::Trained
            ]
        );
        assert!(events.iter().all(|e| e.cycle() == 1), "{events:?}");
        assert_eq!(p.status().cycle, 0, "success ends the cycle");
    }

    #[test]
    fn anomaly_scores_sanitize_invalid_rows() {
        let mut p = pipeline(100, RetryPolicy::default());
        for phase in 0..5 {
            p.push_flows(&flows(30, 0.0, phase * 30)).unwrap();
        }
        assert!(p.can_score());
        let mut rows: Vec<Vec<f64>> = flows(4, 0.0, 0).iter_rows().map(<[f64]>::to_vec).collect();
        rows[1][2] = f64::NAN;
        rows[3][0] = f64::NEG_INFINITY;
        let x = Matrix::from_rows(&rows).unwrap();
        let scores = p.anomaly_scores(&x).unwrap();
        assert_eq!(scores.len(), 4);
        for s in &scores {
            assert!(s.is_finite());
        }
        let sentinel = QUARANTINE_SCORE;
        assert_eq!(scores[1], sentinel);
        assert_eq!(scores[3], sentinel);
        assert!(scores[0] < sentinel && scores[2] < sentinel);
    }

    #[test]
    fn backoff_keeps_a_bounded_reservoir() {
        let mut p = pipeline(
            60,
            RetryPolicy {
                max_attempts: 1,
                backoff_base_flows: 500,
                max_backoff_flows: 500,
            },
        );
        p.set_fault_injector(Box::new(ScriptedFaults::new(0).with_failure_at(&[1])));
        for phase in 0..10 {
            p.push_flows(&flows(30, 0.0, phase * 30)).unwrap();
        }
        let h = p.status();
        assert!(
            h.buffered <= 60,
            "buffer must stay bounded, got {}",
            h.buffered
        );
        assert!(h.flows_dropped > 0, "evictions must be counted");
        assert_eq!(h.mode, Mode::Degraded);
    }

    #[test]
    fn config_validation() {
        let n_c = flows(60, 0.0, 900);
        let model = CndIds::new(CndIdsConfig::fast(5), &n_c).unwrap();
        let mut cfg = ResilientConfig::default();
        cfg.retry.max_attempts = 0;
        assert!(matches!(
            ResilientStreamingCndIds::new(model, cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn health_report_renders() {
        let p = pipeline(100, RetryPolicy::default());
        let text = p.status().to_string();
        assert!(text.contains("mode:"));
        assert!(text.contains("normal"));
        assert!(text.contains("quarantined"));
    }

    #[test]
    fn scripted_faults_schedule_panics_and_artifact_faults() {
        let mut inj = ScriptedFaults::new(0)
            .with_panic_at(&[2])
            .with_artifact_garbage_at(&[3])
            .with_artifact_degraded_at(&[4]);
        assert_eq!(inj.training_fault(1), None);
        assert_eq!(inj.training_fault(2), Some(TrainingFault::Panic));
        assert_eq!(inj.artifact_fault(1), None);
        assert_eq!(inj.artifact_fault(3), Some(ArtifactFault::Garbage));
        assert_eq!(inj.artifact_fault(4), Some(ArtifactFault::DegradedWeights));
        // Training faults take precedence in declaration order.
        let mut both = ScriptedFaults::new(0)
            .with_failure_at(&[1])
            .with_panic_at(&[1]);
        assert_eq!(both.training_fault(1), Some(TrainingFault::Error));
    }

    #[test]
    fn injected_panic_is_contained_by_streaming_pipeline() {
        let mut p = pipeline(
            100,
            RetryPolicy {
                max_attempts: 3,
                backoff_base_flows: 10,
                max_backoff_flows: 40,
            },
        );
        p.set_fault_injector(Box::new(ScriptedFaults::new(0).with_panic_at(&[1])));
        // First training attempt "panics"; the pipeline must survive,
        // roll back, and retrain successfully once backoff expires.
        for phase in 0..10 {
            p.push_flows(&flows(30, 0.0, phase * 30)).unwrap();
        }
        let h = p.status();
        assert!(
            h.total_failures >= 1,
            "panic must count as a failed attempt"
        );
        assert!(
            h.count(EventKind::Trained) >= 1,
            "retry after panic must succeed"
        );
        let scores = p.anomaly_scores(&flows(5, 0.0, 7)).expect("still scores");
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn last_known_good_records_evicts_and_rolls_back() {
        let n_c = flows(60, 0.0, 900);
        let mut model = CndIds::new(CndIdsConfig::fast(5), &n_c).unwrap();
        model.train_experience(&flows(80, 0.0, 0)).unwrap();
        let s1 = DeployedScorer::from_model(&model).unwrap();
        model.train_experience(&flows(80, 0.5, 100)).unwrap();
        let s2 = DeployedScorer::from_model(&model).unwrap();
        model.train_experience(&flows(80, 1.0, 200)).unwrap();
        let s3 = DeployedScorer::from_model(&model).unwrap();

        let mut ledger = LastKnownGood::new(2);
        assert!(ledger.is_empty());
        assert!(ledger.current().is_none());
        ledger.record(1, s1.clone());
        ledger.record(2, s2);
        ledger.record(3, s3);
        // Capacity 2: version 1 evicted, newest is 3, previous is 2.
        assert_eq!(ledger.versions(), vec![2, 3]);
        assert_eq!(ledger.current().map(|(v, _)| v), Some(3));
        assert_eq!(ledger.previous().map(|(v, _)| v), Some(2));

        // Re-recording an existing version replaces in place.
        ledger.record(3, s1.clone());
        assert_eq!(ledger.len(), 2);
        let probe = flows(4, 0.2, 50);
        let (v, cur) = ledger.current().unwrap();
        assert_eq!(v, 3);
        let a = cur.anomaly_scores(&probe).unwrap();
        let b = s1.anomaly_scores(&probe).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "replaced entry must be s1 bit-exactly"
            );
        }
    }

    #[test]
    fn last_known_good_capacity_clamped_to_one() {
        let mut ledger = LastKnownGood::new(0);
        let n_c = flows(60, 0.0, 900);
        let mut model = CndIds::new(CndIdsConfig::fast(5), &n_c).unwrap();
        model.train_experience(&flows(80, 0.0, 0)).unwrap();
        let s = DeployedScorer::from_model(&model).unwrap();
        ledger.record(1, s.clone());
        ledger.record(2, s);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.versions(), vec![2]);
        assert!(ledger.previous().is_none());
    }
}
