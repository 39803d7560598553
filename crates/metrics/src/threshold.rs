//! Best-F threshold selection (Su et al., KDD 2019 — the paper's \[24\]).
//!
//! CND-IDS converts anomaly scores into attack/normal decisions with a
//! threshold `τ` chosen to maximize F1 on the evaluation scores. The
//! search sweeps every distinct score level in a single sorted pass, so
//! the returned threshold is exactly optimal for the given data.

use crate::MetricsError;

/// The outcome of a Best-F threshold search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSelection {
    /// The selected threshold `τ`; samples with `score > τ` are
    /// classified as attacks.
    pub threshold: f64,
    /// F1 achieved at the threshold.
    pub f1: f64,
    /// Precision at the threshold.
    pub precision: f64,
    /// Recall at the threshold.
    pub recall: f64,
}

/// Finds the threshold maximizing F1 over `scores` (higher = more
/// anomalous) against binary `labels` (`1` = attack).
///
/// The returned rule is strict (`score > τ` ⇒ attack), matching the
/// paper's Algorithm 1 line 10.
///
/// # Errors
///
/// * [`MetricsError::LengthMismatch`] / [`MetricsError::EmptyInput`] on
///   malformed input.
/// * [`MetricsError::SingleClass`] when `labels` lacks positives (with no
///   attacks F1 is identically zero and a threshold is meaningless).
///
/// # Example
///
/// ```
/// use cnd_metrics::threshold::best_f1_threshold;
/// let sel = best_f1_threshold(&[0.9, 0.1, 0.8, 0.3], &[1, 0, 1, 0])?;
/// assert_eq!(sel.f1, 1.0);
/// assert!(sel.threshold >= 0.3 && sel.threshold < 0.8);
/// # Ok::<(), cnd_metrics::MetricsError>(())
/// ```
pub fn best_f1_threshold(
    scores: &[f64],
    labels: &[u8],
) -> Result<ThresholdSelection, MetricsError> {
    if scores.len() != labels.len() {
        return Err(MetricsError::LengthMismatch {
            scores: scores.len(),
            labels: labels.len(),
        });
    }
    if scores.is_empty() {
        return Err(MetricsError::EmptyInput);
    }
    let total_pos = labels.iter().filter(|&&l| l != 0).count();
    if total_pos == 0 {
        return Err(MetricsError::SingleClass);
    }

    // Sort by descending score; sweep thresholds between distinct levels.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut best = ThresholdSelection {
        threshold: f64::INFINITY, // predict nothing as attack
        f1: 0.0,
        precision: 0.0,
        recall: 0.0,
    };
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        // Consume the whole tie group at this score level.
        let level = scores[order[i]];
        while i < order.len() && scores[order[i]] == level {
            if labels[order[i]] != 0 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        // Threshold τ just below `level`: everything with score >= level
        // (== score > τ) is predicted attack.
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = tp as f64 / total_pos as f64;
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        if f1 > best.f1 {
            // τ = midpoint to the next-lower level, or just below the
            // current level at the tail.
            let tau = if i < order.len() {
                0.5 * (level + scores[order[i]])
            } else {
                level - level.abs().max(1.0) * 1e-9 - 1e-12
            };
            best = ThresholdSelection {
                threshold: tau,
                f1,
                precision,
                recall,
            };
        }
    }
    Ok(best)
}

/// Applies a threshold: `score > τ` ⇒ attack (`1`).
pub fn apply_threshold(scores: &[f64], tau: f64) -> Vec<u8> {
    scores.iter().map(|&s| u8::from(s > tau)).collect()
}

/// Label-free threshold selection: the `q`-quantile of the anomaly
/// scores of *known-normal* calibration data (e.g. the clean subset
/// `N_c` re-scored by the deployed model).
///
/// Best-F (the paper's choice) requires labelled evaluation data; in a
/// real deployment no such labels exist. Calibrating `τ` so that a
/// `1 − q` false-positive rate is accepted on clean data is the standard
/// deployable alternative; the `sweep_thresholding` bench quantifies the
/// F1 cost of giving up the Best-F oracle.
///
/// Uses linear interpolation between order statistics.
///
/// # Errors
///
/// * [`MetricsError::EmptyInput`] when `normal_scores` is empty.
/// * [`MetricsError::BadMatrix`] when `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// let tau = cnd_metrics::threshold::quantile_threshold(
///     &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
///     0.95,
/// )?;
/// assert!(tau > 9.0 && tau <= 10.0);
/// # Ok::<(), cnd_metrics::MetricsError>(())
/// ```
pub fn quantile_threshold(normal_scores: &[f64], q: f64) -> Result<f64, MetricsError> {
    if normal_scores.is_empty() {
        return Err(MetricsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(MetricsError::BadMatrix {
            reason: "quantile must be in [0, 1]",
        });
    }
    let mut sorted = normal_scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::f1_score;

    #[test]
    fn perfectly_separable() {
        let scores = [0.1, 0.2, 0.7, 0.9];
        let labels = [0, 0, 1, 1];
        let sel = best_f1_threshold(&scores, &labels).unwrap();
        assert_eq!(sel.f1, 1.0);
        let pred = apply_threshold(&scores, sel.threshold);
        assert_eq!(pred, vec![0, 0, 1, 1]);
    }

    #[test]
    fn threshold_is_consistent_with_reported_f1() {
        let scores = [0.3, 0.5, 0.5, 0.2, 0.8, 0.9, 0.1, 0.6];
        let labels = [0, 1, 0, 0, 1, 1, 0, 0];
        let sel = best_f1_threshold(&scores, &labels).unwrap();
        let pred = apply_threshold(&scores, sel.threshold);
        let f1 = f1_score(&pred, &labels).unwrap();
        assert!((f1 - sel.f1).abs() < 1e-12, "reported {} got {f1}", sel.f1);
    }

    #[test]
    fn exhaustive_optimality_small_case() {
        let scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.2];
        let labels = [0, 1, 0, 1, 1, 0];
        let sel = best_f1_threshold(&scores, &labels).unwrap();
        // Brute force over many candidate thresholds.
        let mut best = 0.0f64;
        let mut t = -0.05;
        while t < 1.0 {
            let pred = apply_threshold(&scores, t);
            if let Ok(f1) = f1_score(&pred, &labels) {
                best = best.max(f1);
            }
            t += 0.001;
        }
        assert!(
            (sel.f1 - best).abs() < 1e-9,
            "sweep found {best}, selector {}",
            sel.f1
        );
    }

    #[test]
    fn handles_ties() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [1, 1, 0, 0];
        let sel = best_f1_threshold(&scores, &labels).unwrap();
        // Either all-attack (F1 = 2/3) or none (F1 = 0); best is 2/3.
        assert!((sel.f1 - 2.0 / 3.0).abs() < 1e-12);
        let pred = apply_threshold(&scores, sel.threshold);
        assert_eq!(pred, vec![1, 1, 1, 1]);
    }

    #[test]
    fn all_positive_labels() {
        let scores = [0.2, 0.9];
        let sel = best_f1_threshold(&scores, &[1, 1]).unwrap();
        assert_eq!(sel.f1, 1.0);
        assert_eq!(apply_threshold(&scores, sel.threshold), vec![1, 1]);
    }

    #[test]
    fn no_positives_is_error() {
        assert!(matches!(
            best_f1_threshold(&[0.1, 0.2], &[0, 0]),
            Err(MetricsError::SingleClass)
        ));
    }

    #[test]
    fn malformed_inputs() {
        assert!(matches!(
            best_f1_threshold(&[0.1], &[0, 1]),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            best_f1_threshold(&[], &[]),
            Err(MetricsError::EmptyInput)
        ));
    }

    #[test]
    fn quantile_threshold_interpolates() {
        let scores: Vec<f64> = (1..=10).map(f64::from).collect();
        let t50 = quantile_threshold(&scores, 0.5).unwrap();
        assert!((t50 - 5.5).abs() < 1e-12);
        let t0 = quantile_threshold(&scores, 0.0).unwrap();
        assert_eq!(t0, 1.0);
        let t1 = quantile_threshold(&scores, 1.0).unwrap();
        assert_eq!(t1, 10.0);
    }

    #[test]
    fn quantile_threshold_controls_fpr() {
        // Applying the 0.9-quantile threshold to the calibration data
        // itself flags ~10% of it.
        let scores: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.37).sin() + i as f64 * 0.01)
            .collect();
        let tau = quantile_threshold(&scores, 0.9).unwrap();
        let flagged = apply_threshold(&scores, tau)
            .iter()
            .map(|&v| v as usize)
            .sum::<usize>();
        let fpr = flagged as f64 / scores.len() as f64;
        assert!((fpr - 0.1).abs() < 0.02, "fpr = {fpr}");
    }

    #[test]
    fn quantile_threshold_validates() {
        assert!(matches!(
            quantile_threshold(&[], 0.9),
            Err(MetricsError::EmptyInput)
        ));
        assert!(quantile_threshold(&[1.0], 1.5).is_err());
        assert!(quantile_threshold(&[1.0], -0.1).is_err());
    }

    #[test]
    fn inverted_scores_still_find_best_available() {
        // Scores anti-correlated with labels: best F1 comes from a very
        // low threshold that predicts everything as attack.
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [0, 0, 1, 1];
        let sel = best_f1_threshold(&scores, &labels).unwrap();
        let pred = apply_threshold(&scores, sel.threshold);
        assert_eq!(pred, vec![1, 1, 1, 1]);
        assert!((sel.f1 - 2.0 / 3.0).abs() < 1e-12);
    }
}
