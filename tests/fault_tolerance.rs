//! End-to-end fault-tolerance tests for the resilient streaming
//! pipeline (`cnd_core::resilience`), driven through the public API
//! exactly as a deployment would: seeded fault injection, deterministic
//! assertions, and finite scoring throughout every recovery path.

use cnd_core::deploy::DeployedScorer;
use cnd_core::resilience::{ResilientConfig, ResilientStreamingCndIds, ScriptedFaults};
use cnd_core::streaming::{
    ContinualEvent, EventKind, Mode, RetryPolicy, StreamingConfig, QUARANTINE_SCORE,
};
use cnd_core::{CndIds, CndIdsConfig, CoreError};
use cnd_datasets::{continual, DatasetProfile, GeneratorConfig};
use cnd_linalg::Matrix;

/// A small continual split of the synthetic X-IIoTID replica.
fn split() -> continual::ContinualSplit {
    let data = DatasetProfile::XIiotId
        .generate(&GeneratorConfig::small(11))
        .expect("generates");
    continual::prepare(&data, 3, 0.7, 11).expect("splits")
}

fn pipeline(split: &continual::ContinualSplit, retry: RetryPolicy) -> ResilientStreamingCndIds {
    let model = CndIds::new(CndIdsConfig::fast(11), &split.clean_normal).expect("builds");
    ResilientStreamingCndIds::new(
        model,
        ResilientConfig {
            streaming: StreamingConfig {
                max_buffer: 400,
                bootstrap_batch: 200,
                min_batch: 100,
                drift_window: 50,
            },
            retry,
        },
    )
    .expect("valid config")
}

/// Asserts every score is finite; returns the scores.
fn assert_finite_scores(p: &ResilientStreamingCndIds, x: &Matrix) -> Vec<f64> {
    let scores = p.anomaly_scores(x).expect("scoring works");
    assert_eq!(scores.len(), x.rows());
    for (i, s) in scores.iter().enumerate() {
        assert!(s.is_finite(), "score {i} not finite: {s}");
    }
    scores
}

/// Path 1: corrupted input flows are quarantined by the input guard,
/// counted by reason, and never reach training or scoring.
#[test]
fn corrupted_input_is_quarantined() {
    let s = split();
    let mut p = pipeline(&s, RetryPolicy::default());
    p.set_fault_injector(Box::new(ScriptedFaults::new(1).with_corruption_rate(0.1)));
    for exp in &s.experiences {
        let n = exp.train_x.rows().min(600);
        let mut at = 0;
        while at < n {
            let hi = (at + 100).min(n);
            let x = exp.train_x.slice_rows(at, hi).unwrap();
            p.push_flows(&x).expect("push never errors on bad input");
            at = hi;
        }
    }
    let h = p.status();
    assert!(
        h.quarantine.total() > 0,
        "10% corruption must quarantine flows"
    );
    assert!(
        h.quarantine.non_finite > 0,
        "NaN/Inf faults must be classified"
    );
    assert_eq!(
        h.flows_seen,
        h.flows_accepted + h.quarantine.total(),
        "every flow is either accepted or quarantined"
    );
    assert!(h.experiences_trained > 0, "pipeline must still train");
    assert_eq!(h.mode, Mode::Normal);
    assert_finite_scores(&p, &s.experiences[0].test_x);
}

/// Path 2: an injected NaN loss trips the CFE divergence watchdog; the
/// model is rolled back and scoring stays bit-identical to the
/// pre-failure state.
#[test]
fn nan_loss_triggers_rollback() {
    let s = split();
    let mut p = pipeline(
        &s,
        RetryPolicy {
            max_attempts: 3,
            backoff_base_flows: 100,
            max_backoff_flows: 1_000,
        },
    );
    // Healthy bootstrap (attempt 1).
    let boot = s.experiences[0].train_x.slice_rows(0, 200).unwrap();
    assert!(matches!(
        p.push_flows(&boot).unwrap().last(),
        Some(ContinualEvent::Trained { .. })
    ));
    let probe = s.experiences[0].test_x.slice_rows(0, 50).unwrap();
    let before = assert_finite_scores(&p, &probe);

    // Attempt 2 is poisoned: NaN loss -> divergence -> rollback.
    p.set_fault_injector(Box::new(ScriptedFaults::new(2).with_nan_loss_at(&[2])));
    let mut failed = false;
    'push: for chunk in 0..8 {
        let lo = 200 + chunk * 100;
        let x = s.experiences[0].train_x.slice_rows(lo, lo + 100).unwrap();
        for ev in p.push_flows(&x).unwrap() {
            if let ContinualEvent::TrainerFailed { reason, mode, .. } = ev {
                assert!(reason.contains("diverged"), "failure = {reason}");
                assert_eq!(mode, Mode::Normal, "a single failure must not degrade");
                failed = true;
                break 'push;
            }
        }
    }
    assert!(failed, "the poisoned attempt must fail");
    let h = p.status();
    assert_eq!(h.count(EventKind::TrainerFailed), 1);
    assert_eq!(h.consecutive_failures, 1);
    assert!(h.flows_until_retry > 0, "backoff must arm after a failure");
    // Rollback means scoring is exactly the pre-failure snapshot.
    assert_eq!(assert_finite_scores(&p, &probe), before);
}

/// Path 3+4: repeated failures exhaust the retry budget, the pipeline
/// enters degraded mode (still scoring on the last-known-good snapshot),
/// and a later successful retrain recovers it to normal.
#[test]
fn retry_exhaustion_degrades_then_recovers() {
    let s = split();
    let mut p = pipeline(
        &s,
        RetryPolicy {
            max_attempts: 2,
            backoff_base_flows: 50,
            max_backoff_flows: 100,
        },
    );
    // Healthy bootstrap (attempt 1).
    let boot = s.experiences[0].train_x.slice_rows(0, 200).unwrap();
    assert!(matches!(
        p.push_flows(&boot).unwrap().last(),
        Some(ContinualEvent::Trained { .. })
    ));
    let probe = s.experiences[1].test_x.slice_rows(0, 50).unwrap();
    let baseline = assert_finite_scores(&p, &probe);

    // Attempts 2 and 3 fail -> degraded; attempt 4 succeeds -> recovery.
    p.set_fault_injector(Box::new(ScriptedFaults::new(3).with_failure_at(&[2, 3])));
    let mut saw_degraded = false;
    let mut recovered = false;
    'outer: for exp in &s.experiences {
        let n = exp.train_x.rows();
        let mut at = 0;
        while at < n {
            let hi = (at + 50).min(n);
            let x = exp.train_x.slice_rows(at, hi).unwrap();
            at = hi;
            for ev in p.push_flows(&x).unwrap() {
                match ev {
                    ContinualEvent::TrainerFailed {
                        mode: Mode::Degraded,
                        ..
                    } => {
                        saw_degraded = true;
                        assert_eq!(p.mode(), Mode::Degraded);
                        // Degraded mode keeps scoring, identically to
                        // the last-known-good snapshot, and stays
                        // finite.
                        assert_eq!(assert_finite_scores(&p, &probe), baseline);
                    }
                    ContinualEvent::Trained { recovered: r, .. } if saw_degraded => {
                        assert!(r, "success out of degraded mode must flag recovery");
                        recovered = true;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(saw_degraded, "exhausting max_attempts must degrade");
    assert!(recovered, "a later successful retrain must recover");
    assert_eq!(p.mode(), Mode::Normal);
    assert_eq!(p.status().total_failures, 2);
    assert_finite_scores(&p, &probe);
}

/// Path 5a: scoring a batch containing invalid rows yields the finite
/// quarantine sentinel for those rows, never NaN/Inf.
#[test]
fn invalid_rows_score_as_finite_sentinel() {
    let s = split();
    let mut p = pipeline(&s, RetryPolicy::default());
    let boot = s.experiences[0].train_x.slice_rows(0, 200).unwrap();
    p.push_flows(&boot).unwrap();
    assert!(p.can_score());

    let mut rows: Vec<Vec<f64>> = s.experiences[0]
        .test_x
        .slice_rows(0, 6)
        .unwrap()
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect();
    rows[0][0] = f64::NAN;
    rows[2][1] = f64::INFINITY;
    rows[4][0] = 1e30;
    let x = Matrix::from_rows(&rows).unwrap();
    let scores = assert_finite_scores(&p, &x);
    let sentinel = QUARANTINE_SCORE;
    for i in [0, 2, 4] {
        assert_eq!(scores[i], sentinel, "invalid row {i} must get the sentinel");
    }
    for i in [1, 3, 5] {
        assert!(scores[i] < sentinel, "valid row {i} must get a real score");
    }
}

/// Path 5b: corrupted scorer artifacts fail to load with the typed
/// error; the live pipeline is unaffected.
#[test]
fn corrupted_scorer_artifacts_are_rejected() {
    let s = split();
    let mut p = pipeline(&s, RetryPolicy::default());
    let boot = s.experiences[0].train_x.slice_rows(0, 200).unwrap();
    p.push_flows(&boot).unwrap();

    let scorer = p.model().freeze().expect("trained model freezes");
    let mut buf = Vec::new();
    scorer.save(&mut buf).unwrap();

    // Round trip works.
    let restored = DeployedScorer::load(buf.as_slice()).expect("round trip");
    let probe = s.experiences[0].test_x.slice_rows(0, 20).unwrap();
    assert_eq!(
        scorer.anomaly_scores(&probe).unwrap(),
        restored.anomaly_scores(&probe).unwrap()
    );

    // Truncation, garbage and header corruption all yield the typed
    // error, never a panic.
    let corruptions: Vec<Vec<u8>> = vec![
        buf[..buf.len() / 3].to_vec(),
        b"garbage".to_vec(),
        {
            let mut c = buf.clone();
            c[0] = b'X'; // break the magic line
            c
        },
        {
            let text = String::from_utf8(buf.clone()).unwrap();
            text.replacen("scaler", "scaler 999999999999", 1)
                .into_bytes()
        },
    ];
    for (i, c) in corruptions.iter().enumerate() {
        match DeployedScorer::load(c.as_slice()) {
            Err(CoreError::CorruptModel { .. }) => {}
            other => panic!("corruption {i} must be CorruptModel, got {other:?}"),
        }
    }
    // The live pipeline still scores finite values afterwards.
    assert_finite_scores(&p, &probe);
}
