//! Model-quality telemetry: per-experience quality records and
//! score-distribution drift monitoring.
//!
//! CND-IDS's continual evaluation produces, per experience, an F1
//! matrix row, PR-AUC, the Best-F threshold, and the running continual
//! summary (AVG / FwdTrans / BwdTrans). A [`QualityRecord`] packages
//! those together with an [`HdrHistogram`] of the novelty scores so the
//! trace stream carries *model* quality next to timing spans.
//!
//! Scores enter the histograms in fixed point ([`fixed_point`],
//! `v·2³²`), and the divergences compare them by **octave**: HDR
//! buckets grouped by the bit length of their low bound, the zero
//! bucket as octave 0. No HDR bucket straddles a power of two, so for
//! scores that are 0 or lie in `[2^-32, 2^32)` octave `k + 33` holds
//! exactly the scores in `[2^k, 2^(k+1))`. Smaller positive scores
//! fold into the zero octave, and scores `>= 2^32` saturate into the
//! top one (octave 64, shared with `[2^31, 2^32)`).
//!
//! Drift between score distributions is measured on the octaves with
//! two standard divergences (DESIGN.md §9):
//!
//! * **PSI** (population stability index):
//!   `Σ_b (p_b − q_b) · ln(p_b / q_b)` — the industry-standard
//!   monitoring statistic; `> 0.25` is conventionally "major shift".
//! * **Symmetric KL**: `(KL(p‖q) + KL(q‖p)) / 2` — a smoother
//!   companion that weights tail buckets less aggressively.
//!
//! Both are computed over the union of occupied octaves with additive
//! smoothing, so empty octaves never produce infinities and the result
//! is deterministic for identical inputs.

use std::collections::BTreeMap;

use crate::hdr::{bucket_bounds, fixed_point, HdrHistogram};

/// Per-experience model-quality payload carried by `quality` trace
/// events. All floats come from seeded, bit-reproducible model math,
/// so records are safe to include in deterministic traces.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRecord {
    /// Experience index (0-based).
    pub experience: usize,
    /// Row `i` of the F1 matrix: F1 on each experience's test set after
    /// training on experience `i`.
    pub f1_row: Vec<f64>,
    /// PR-AUC over the pooled test set at this step, if computed.
    pub pr_auc: Option<f64>,
    /// Best-F selected threshold at this step, if one was selected.
    pub threshold: Option<f64>,
    /// Continual AVG over experiences seen so far (diagonal mean).
    pub avg: f64,
    /// Forward transfer over experiences seen so far.
    pub fwd_trans: f64,
    /// Backward transfer over experiences seen so far (0 at step 0).
    pub bwd_trans: f64,
    /// The novelty scores at this step, in fixed point
    /// ([`fixed_point`]).
    pub scores: HdrHistogram,
}

/// Thresholds above which a [`DriftVerdict`] flags drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftThresholds {
    /// PSI above this is drift (0.25 = conventional "major shift").
    pub psi: f64,
    /// Symmetric KL above this is drift.
    pub sym_kl: f64,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        DriftThresholds {
            psi: 0.25,
            sym_kl: 0.5,
        }
    }
}

/// Outcome of comparing two score distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// Population stability index between the two histograms.
    pub psi: f64,
    /// Symmetric Kullback-Leibler divergence.
    pub sym_kl: f64,
    /// `true` when either statistic exceeded its threshold.
    pub drifted: bool,
}

/// Additive smoothing constant for bucket probabilities. Keeps both
/// divergences finite when a bucket is occupied on one side only.
const SMOOTHING: f64 = 0.5;

/// The octave of HDR bucket `i`: the bit length of its low bound (0
/// for the zero bucket).
fn octave(i: u32) -> u32 {
    64 - bucket_bounds(i).0.leading_zeros()
}

/// Bucket counts of `h` summed per octave.
fn octaves(h: &HdrHistogram) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for (&i, &c) in &h.buckets {
        *out.entry(octave(i)).or_insert(0) += c;
    }
    out
}

/// Smoothed probability vectors for `p` and `q` over the union of
/// their occupied octaves, in octave order. Empty union → empty
/// vectors.
fn aligned_probabilities(p: &HdrHistogram, q: &HdrHistogram) -> (Vec<f64>, Vec<f64>) {
    let (po, qo) = (octaves(p), octaves(q));
    let mut keys: Vec<u32> = po.keys().chain(qo.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    let count = |o: &BTreeMap<u32, u64>, k: u32| o.get(&k).copied().unwrap_or(0) as f64;
    let k_total = keys.len() as f64;
    let p_total = p.count as f64 + SMOOTHING * k_total;
    let q_total = q.count as f64 + SMOOTHING * k_total;
    let pv = keys
        .iter()
        .map(|&k| (count(&po, k) + SMOOTHING) / p_total)
        .collect();
    let qv = keys
        .iter()
        .map(|&k| (count(&qo, k) + SMOOTHING) / q_total)
        .collect();
    (pv, qv)
}

/// Population stability index between two histograms (0 when both are
/// empty). Always finite and non-negative.
pub fn psi(p: &HdrHistogram, q: &HdrHistogram) -> f64 {
    let (pv, qv) = aligned_probabilities(p, q);
    pv.iter()
        .zip(&qv)
        .map(|(&a, &b)| (a - b) * (a / b).ln())
        .sum()
}

/// Symmetric KL divergence `(KL(p‖q) + KL(q‖p)) / 2` between two
/// histograms (0 when both are empty). Always finite and non-negative.
pub fn symmetric_kl(p: &HdrHistogram, q: &HdrHistogram) -> f64 {
    let (pv, qv) = aligned_probabilities(p, q);
    let kl = |x: &[f64], y: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .map(|(&a, &b)| a * (a / b).ln())
            .sum::<f64>()
    };
    (kl(&pv, &qv) + kl(&qv, &pv)) / 2.0
}

/// Compares two histograms against thresholds.
pub fn compare(
    previous: &HdrHistogram,
    current: &HdrHistogram,
    th: DriftThresholds,
) -> DriftVerdict {
    let psi = psi(previous, current);
    let sym_kl = symmetric_kl(previous, current);
    DriftVerdict {
        psi,
        sym_kl,
        drifted: psi > th.psi || sym_kl > th.sym_kl,
    }
}

/// Rolling score-distribution monitor: accumulates scores into a
/// current histogram and, on [`DriftMonitor::rotate`], compares it
/// against the previous window's histogram.
///
/// The continual core (`cnd_core::streaming::ContinualCore`) rotates
/// one every drift window and retrains on its verdicts; the runner
/// rotates one per experience. Keeping the full distributions makes
/// each verdict explainable after the fact (which buckets moved, by how
/// much).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftMonitor {
    thresholds: DriftThresholds,
    previous: Option<HdrHistogram>,
    current: HdrHistogram,
    last: Option<DriftVerdict>,
    rotations: u64,
}

impl Default for DriftMonitor {
    fn default() -> Self {
        Self::new(DriftThresholds::default())
    }
}

impl DriftMonitor {
    /// A monitor with the given drift thresholds.
    pub fn new(thresholds: DriftThresholds) -> Self {
        DriftMonitor {
            thresholds,
            previous: None,
            current: HdrHistogram::new(),
            last: None,
            rotations: 0,
        }
    }

    /// Records one score into the current window, in fixed point;
    /// `NaN`, `±inf` and negative scores are refused.
    pub fn observe(&mut self, score: f64) {
        if let Some(v) = fixed_point(score) {
            self.current.record(v);
        }
    }

    /// Scores accepted into the current (un-rotated) window.
    pub fn observed(&self) -> u64 {
        self.current.count
    }

    /// The current window's histogram (snapshot for quality records).
    pub fn current_histogram(&self) -> &HdrHistogram {
        &self.current
    }

    /// Closes the current window: compares it against the previous
    /// window (when one exists), stores it as the new reference, and
    /// returns the verdict. Returns `None` on the first rotation (no
    /// reference yet) or when the current window is empty (the
    /// reference is kept untouched so a burst of rejected values cannot
    /// blind the monitor).
    pub fn rotate(&mut self) -> Option<DriftVerdict> {
        if self.current.count == 0 {
            return None;
        }
        let window = std::mem::take(&mut self.current);
        let verdict = self
            .previous
            .as_ref()
            .map(|prev| compare(prev, &window, self.thresholds));
        self.previous = Some(window);
        self.rotations += 1;
        if verdict.is_some() {
            self.last = verdict;
        }
        verdict
    }

    /// The verdict from the most recent comparing rotation.
    pub fn last_verdict(&self) -> Option<DriftVerdict> {
        self.last
    }

    /// Number of completed (non-empty) rotations.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[f64]) -> HdrHistogram {
        let mut h = HdrHistogram::new();
        for &v in values {
            h.record(fixed_point(v).expect("finite, non-negative"));
        }
        h
    }

    #[test]
    fn identical_distributions_have_near_zero_divergence() {
        let p = hist(&[0.5, 1.0, 1.5, 2.0, 4.0, 0.0]);
        let v = compare(&p, &p.clone(), DriftThresholds::default());
        assert!(v.psi.abs() < 1e-12, "psi {}", v.psi);
        assert!(v.sym_kl.abs() < 1e-12, "kl {}", v.sym_kl);
        assert!(!v.drifted);
    }

    #[test]
    fn shifted_distributions_flag_drift() {
        let low: Vec<f64> = (0..200).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        let high: Vec<f64> = (0..200).map(|i| 64.0 + (i % 7) as f64 * 8.0).collect();
        let v = compare(&hist(&low), &hist(&high), DriftThresholds::default());
        assert!(v.psi > 0.25, "psi {}", v.psi);
        assert!(v.sym_kl > 0.5, "kl {}", v.sym_kl);
        assert!(v.drifted);
    }

    /// Drift referee: `psi` and `sym_kl` bits pinned from the
    /// exponent-bucket histogram this monitor replaced. Octave grouping
    /// must reproduce them exactly for scores that are 0 or lie in
    /// `[2^-32, 2^32)`.
    #[test]
    fn drift_divergences_keep_their_exponent_bucket_bits() {
        // The `shifted_distributions_flag_drift` windows.
        let low: Vec<f64> = (0..200).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        let high: Vec<f64> = (0..200).map(|i| 64.0 + (i % 7) as f64 * 8.0).collect();
        // A zero-containing pair over five octaves.
        let zp: Vec<f64> = (0..120)
            .map(|i| {
                if i % 4 == 0 {
                    0.0
                } else {
                    0.25 * (i % 9) as f64
                }
            })
            .collect();
        let zq: Vec<f64> = (0..90)
            .map(|i| {
                if i % 9 == 0 {
                    0.0
                } else {
                    0.5 * (i % 13) as f64
                }
            })
            .collect();
        // A single-octave pair: both windows inside [1, 2), on
        // different HDR buckets, so only octave grouping reads 0.
        let sp: Vec<f64> = (0..100).map(|i| 1.0 + (i % 10) as f64 * 0.05).collect();
        let sq: Vec<f64> = (0..150).map(|i| 1.5 + (i % 10) as f64 * 0.049).collect();
        let cases: [(&[f64], &[f64], u64, u64); 3] = [
            (&low, &high, 0x4026_a00e_c37a_3fa6, 0x4016_a00e_c37a_3fa6),
            (&zp, &zq, 0x4002_abe8_2b8b_8429, 0x3ff2_abe8_2b8b_8429),
            (&sp, &sq, 0, 0),
        ];
        for (i, (p, q, psi_bits, kl_bits)) in cases.into_iter().enumerate() {
            let (p, q) = (hist(p), hist(q));
            assert_eq!(psi(&p, &q).to_bits(), psi_bits, "case {i}: psi");
            assert_eq!(symmetric_kl(&p, &q).to_bits(), kl_bits, "case {i}: sym_kl");
        }
    }

    #[test]
    fn octave_of_a_fixed_point_score_is_its_binary_exponent_plus_33() {
        // Deterministic xorshift64: random exponents in [-32, 32) and
        // random mantissas, so v covers the exact range [2^-32, 2^32).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let k = (next() % 64) as i32 - 32;
            let mantissa = 1.0 + (next() >> 11) as f64 / (1u64 << 53) as f64;
            let v = mantissa * 2f64.powi(k);
            assert!(v >= 2f64.powi(k) && v < 2f64.powi(k + 1));
            let fixed = fixed_point(v).expect("in range");
            let key = octave(crate::hdr::bucket_index(fixed));
            assert_eq!(key as i32, k + 33, "v = {v:e}");
        }
        assert_eq!(octave(crate::hdr::bucket_index(0)), 0, "zero octave");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, -1e300] {
            assert_eq!(fixed_point(v), None, "{v} must be refused");
            let mut m = DriftMonitor::default();
            m.observe(v);
            assert_eq!(m.observed(), 0, "{v} must not enter a window");
        }
    }

    #[test]
    fn divergences_are_finite_with_disjoint_and_empty_buckets() {
        let p = hist(&[1.0, 1.5]);
        let q = hist(&[1024.0, 2048.0]);
        assert!(psi(&p, &q).is_finite());
        assert!(symmetric_kl(&p, &q).is_finite());
        let empty = HdrHistogram::new();
        assert_eq!(psi(&empty, &empty), 0.0);
        assert_eq!(symmetric_kl(&empty, &empty), 0.0);
        assert!(psi(&p, &empty).is_finite());
    }

    #[test]
    fn zero_bucket_participates_in_divergence() {
        let p = hist(&[0.0, 0.0, 0.0, 0.0]);
        let q = hist(&[8.0, 8.0, 8.0, 8.0]);
        let v = compare(&p, &q, DriftThresholds::default());
        assert!(v.drifted, "all-zero vs all-large must drift: {v:?}");
    }

    #[test]
    fn monitor_rotation_protocol() {
        let mut m = DriftMonitor::default();
        assert!(m.rotate().is_none(), "empty window");
        for i in 0..50 {
            m.observe(1.0 + (i % 3) as f64 * 0.25);
        }
        assert_eq!(m.observed(), 50);
        assert!(m.rotate().is_none(), "first window has no reference");
        assert!(m.last_verdict().is_none());
        for i in 0..50 {
            m.observe(1.0 + (i % 3) as f64 * 0.25);
        }
        let v = m.rotate().expect("second rotation compares");
        assert!(!v.drifted);
        for _ in 0..50 {
            m.observe(512.0);
        }
        let v = m.rotate().expect("third rotation compares");
        assert!(v.drifted);
        assert_eq!(m.last_verdict(), Some(v));
        assert_eq!(m.rotations(), 3);
        // An all-rejected window must not clobber the reference.
        m.observe(f64::NAN);
        assert!(m.rotate().is_none());
        assert_eq!(m.rotations(), 3);
        assert_eq!(m.last_verdict(), Some(v));
    }

    #[test]
    fn repeated_empty_windows_keep_monitor_inert() {
        let mut m = DriftMonitor::default();
        for _ in 0..5 {
            assert!(m.rotate().is_none());
        }
        assert_eq!(m.rotations(), 0);
        assert!(m.last_verdict().is_none());
        // A reference formed before a run of empty windows survives it.
        for _ in 0..20 {
            m.observe(2.0);
        }
        assert!(m.rotate().is_none(), "first non-empty rotation seeds");
        for _ in 0..5 {
            assert!(m.rotate().is_none(), "empty windows skip comparison");
        }
        for _ in 0..20 {
            m.observe(2.0);
        }
        let v = m.rotate().expect("reference survived the empty run");
        assert!(!v.drifted);
    }

    #[test]
    fn constant_windows_compare_as_stable_single_bin() {
        // A constant score stream occupies exactly one histogram bucket;
        // the smoothed divergences must stay finite and near zero when
        // both windows hold the same constant.
        let p = hist(&vec![3.5; 100]);
        assert_eq!(p.buckets.len(), 1, "constant stream is single-bin");
        let v = compare(&p, &hist(&vec![3.5; 100]), DriftThresholds::default());
        assert!(v.psi.is_finite() && v.psi.abs() < 1e-12, "psi {}", v.psi);
        assert!(!v.drifted);
        // Window sizes differing by 10x on the same constant still
        // compare stable: probabilities, not counts.
        let v = compare(&p, &hist(&vec![3.5; 1000]), DriftThresholds::default());
        assert!(!v.drifted, "count imbalance alone is not drift: {v:?}");
    }

    #[test]
    fn disjoint_single_bin_windows_flag_drift_finitely() {
        // Single-bin vs single-bin in a far-away bucket: the union has
        // two buckets, each empty on one side — smoothing must keep the
        // statistics finite while still flagging the shift.
        let v = compare(
            &hist(&vec![0.25; 200]),
            &hist(&vec![4096.0; 200]),
            DriftThresholds::default(),
        );
        assert!(v.psi.is_finite() && v.sym_kl.is_finite());
        assert!(v.drifted, "fully disjoint single bins must drift: {v:?}");
    }

    #[test]
    fn verdicts_are_invariant_to_observation_order_and_chunking() {
        // The monitor feeds from a scoring pipeline whose batch/pool
        // sizes vary run to run; the verdict must depend only on the
        // score multiset, not on arrival order or chunk boundaries.
        let scores: Vec<f64> = (0..256)
            .map(|i| 0.1 + ((i * 37) % 97) as f64 * 0.5)
            .collect();
        let drifted: Vec<f64> = scores.iter().map(|s| s * 96.0).collect();
        let verdict_with = |chunk: usize, reverse: bool| -> DriftVerdict {
            let feed = |m: &mut DriftMonitor, vals: &[f64]| {
                let mut vals = vals.to_vec();
                if reverse {
                    vals.reverse();
                }
                for c in vals.chunks(chunk) {
                    for &v in c {
                        m.observe(v);
                    }
                }
            };
            let mut m = DriftMonitor::default();
            feed(&mut m, &scores);
            assert!(m.rotate().is_none());
            feed(&mut m, &drifted);
            m.rotate().expect("comparing rotation")
        };
        let reference = verdict_with(256, false);
        assert!(reference.drifted);
        for (chunk, reverse) in [(1usize, false), (7, true), (64, false), (256, true)] {
            let v = verdict_with(chunk, reverse);
            assert_eq!(
                v.psi.to_bits(),
                reference.psi.to_bits(),
                "psi must be bit-identical across pool/chunk shapes"
            );
            assert_eq!(v.sym_kl.to_bits(), reference.sym_kl.to_bits());
            assert_eq!(v.drifted, reference.drifted);
        }
    }
}
