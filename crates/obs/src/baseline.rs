//! Baseline regression store for `bench-check`.
//!
//! A baseline is a committed JSON file (`baselines/*.json`) holding a
//! flat `metric name → value` map. `bench-check` extracts the same
//! flat map from a *current* artifact — a `BENCH_substrate.json` bench
//! report or a JSONL trace with `quality` events — and compares the
//! two with per-metric tolerances, failing on regression. Metric
//! naming makes the tolerance class self-describing:
//!
//! * `rate.<bench>.<serial|parallel>` — throughput rates; noisy, so
//!   the default tolerance is relative (current may be up to 60%
//!   below baseline before failing).
//! * `bit.<bench>` — 1.0 when serial/parallel outputs were
//!   bit-identical; any decrease fails (exact).
//! * `quality.e<i>.<stat>` — model-quality stats from `quality` trace
//!   events (seeded and bit-reproducible); absolute tolerance 0.05.
//! * `lat.<bench>.<quantile>_us` — latency quantiles in microseconds;
//!   **lower-is-better**, compared against a *ceiling* (current may be
//!   up to 100% above baseline before failing — loaded CI runners make
//!   tail latency the noisiest class we track).
//!
//! Every class except `lat.` is **higher-is-better**, where
//! "regression" means "current fell below what the tolerance allows";
//! for `lat.` it means "current rose above the ceiling". Improvements
//! never fail and are reported as such.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse_json, write_f64, Json};

/// Tolerance applied when comparing one metric against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Current must be `>= baseline * (1 - frac)`.
    Relative(f64),
    /// Current must be `>= baseline - delta`.
    Absolute(f64),
    /// Current must be `>= baseline` exactly.
    Exact,
    /// Lower-is-better: current must be `<= baseline * (1 + frac)`.
    RelativeCeiling(f64),
}

impl Tolerance {
    /// The acceptance bound for `baseline`: a floor (smallest
    /// acceptable current) for higher-is-better classes, a ceiling
    /// (largest acceptable current) for [`Tolerance::RelativeCeiling`].
    pub fn floor(self, baseline: f64) -> f64 {
        match self {
            Tolerance::Relative(frac) => {
                if baseline >= 0.0 {
                    baseline * (1.0 - frac)
                } else {
                    baseline * (1.0 + frac)
                }
            }
            Tolerance::Absolute(delta) => baseline - delta,
            Tolerance::Exact => baseline,
            Tolerance::RelativeCeiling(frac) => {
                if baseline >= 0.0 {
                    baseline * (1.0 + frac)
                } else {
                    baseline * (1.0 - frac)
                }
            }
        }
    }

    /// `true` for lower-is-better classes, where the bound from
    /// [`Tolerance::floor`] is an upper limit.
    pub fn is_ceiling(self) -> bool {
        matches!(self, Tolerance::RelativeCeiling(_))
    }

    /// Whether `current` is acceptable against `baseline`.
    pub fn accepts(self, baseline: f64, current: f64) -> bool {
        let bound = self.floor(baseline);
        if self.is_ceiling() {
            current <= bound
        } else {
            current >= bound
        }
    }
}

/// Default tolerance class for a metric name (see module docs).
pub fn default_tolerance(metric: &str) -> Tolerance {
    if metric.starts_with("rate.") {
        Tolerance::Relative(0.6)
    } else if metric.starts_with("bit.") {
        Tolerance::Exact
    } else if metric.starts_with("quality.") {
        Tolerance::Absolute(0.05)
    } else if metric.starts_with("lat.") {
        Tolerance::RelativeCeiling(1.0)
    } else {
        Tolerance::Relative(0.25)
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Metric name.
    pub metric: String,
    /// Committed baseline value (`None` for a metric new in current).
    pub baseline: Option<f64>,
    /// Current value (`None` when the metric vanished from current).
    pub current: Option<f64>,
    /// The acceptance floor derived from the tolerance.
    pub floor: f64,
    /// `false` = regression.
    pub ok: bool,
}

/// Result of one `bench-check` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Per-metric outcomes, baseline order then new metrics.
    pub outcomes: Vec<CheckOutcome>,
    /// `true` when no metric regressed.
    pub passed: bool,
}

impl CheckReport {
    /// Human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:>14} {:>14}  status",
            "metric", "baseline", "current", "floor"
        );
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
        for o in &self.outcomes {
            let status = if !o.ok {
                "REGRESSED"
            } else if o.baseline.is_none() {
                "new"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<34} {:>14} {:>14} {:>14.6}  {}",
                o.metric,
                fmt(o.baseline),
                fmt(o.current),
                o.floor,
                status
            );
        }
        let _ = writeln!(
            out,
            "bench-check: {} ({} metrics, {} regressed)",
            if self.passed { "PASS" } else { "FAIL" },
            self.outcomes.len(),
            self.outcomes.iter().filter(|o| !o.ok).count()
        );
        out
    }
}

fn is_jsonl_trace(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| {
            parse_json(l).is_ok_and(|obj| obj.get("ev").and_then(Json::as_str).is_some())
        })
}

fn extract_from_trace(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut metrics = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if obj.get("ev").and_then(Json::as_str) != Some("quality") {
            continue;
        }
        let exp = obj
            .get("experience")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: quality event missing experience", i + 1))?;
        let prefix = format!("quality.e{exp}");
        for (key, field) in [
            ("avg", "avg"),
            ("fwd_trans", "fwd_trans"),
            ("bwd_trans", "bwd_trans"),
            ("pr_auc", "pr_auc"),
        ] {
            if let Some(v) = obj.get(field).and_then(Json::as_f64) {
                metrics.insert(format!("{prefix}.{key}"), v);
            }
        }
        if let Some(f1) = obj.get("f1").and_then(Json::as_arr) {
            if let Some(diag) = f1.get(exp as usize).and_then(Json::as_f64) {
                metrics.insert(format!("{prefix}.f1_seen"), diag);
            }
        }
    }
    if metrics.is_empty() {
        return Err("trace contains no quality events".to_string());
    }
    Ok(metrics)
}

fn extract_from_bench(obj: &Json) -> Result<BTreeMap<String, f64>, String> {
    let results = obj
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("bench report missing results array")?;
    let mut metrics = BTreeMap::new();
    for r in results {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .ok_or("bench result missing name")?;
        for (suffix, field) in [("serial", "serial_rate"), ("parallel", "parallel_rate")] {
            let v = r
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("bench result {name} missing {field}"))?;
            metrics.insert(format!("rate.{name}.{suffix}"), v);
        }
        let bit = match r.get("bit_identical") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("bench result {name} missing bit_identical")),
        };
        metrics.insert(format!("bit.{name}"), if bit { 1.0 } else { 0.0 });
    }
    if metrics.is_empty() {
        return Err("bench report has no results".to_string());
    }
    Ok(metrics)
}

fn extract_from_baseline(obj: &Json) -> Result<BTreeMap<String, f64>, String> {
    let map = obj
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("baseline file missing metrics object")?;
    let mut metrics = BTreeMap::new();
    for (k, v) in map {
        let v = v
            .as_f64()
            .ok_or_else(|| format!("baseline metric {k} is not a number"))?;
        metrics.insert(k.clone(), v);
    }
    Ok(metrics)
}

/// Extracts the flat metric map from any supported artifact: a
/// normalized baseline file, a `BENCH_*.json` report, or a JSONL trace
/// carrying `quality` events.
pub fn extract_metrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    if is_jsonl_trace(text) {
        return extract_from_trace(text);
    }
    let obj = parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if obj.get("benchcheck").is_some() {
        extract_from_baseline(&obj)
    } else if obj.get("results").is_some() {
        extract_from_bench(&obj)
    } else {
        Err(
            "unrecognized artifact: expected a bench report, a baseline file, or a quality trace"
                .to_string(),
        )
    }
}

/// Serializes a flat metric map as a normalized baseline document.
pub fn render_baseline(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\"benchcheck\":1,\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        write_f64(*v, &mut out);
    }
    out.push_str("}}\n");
    out
}

/// Compares current against baseline metrics. `override_tolerance`
/// replaces the per-class defaults (used by `--tolerance`, as a
/// relative fraction). A metric present in the baseline but missing
/// from current is a regression (coverage loss); metrics new in
/// current pass and are labelled as such.
pub fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    override_tolerance: Option<f64>,
) -> CheckReport {
    let mut outcomes = Vec::new();
    for (metric, &base) in baseline {
        // --tolerance overrides the fraction, not the direction: a
        // lat. metric stays ceiling-checked under an override.
        let tol = match override_tolerance {
            Some(frac) if default_tolerance(metric).is_ceiling() => {
                Tolerance::RelativeCeiling(frac)
            }
            Some(frac) => Tolerance::Relative(frac),
            None => default_tolerance(metric),
        };
        let floor = tol.floor(base);
        let current_v = current.get(metric).copied();
        let ok = current_v.is_some_and(|v| tol.accepts(base, v));
        outcomes.push(CheckOutcome {
            metric: metric.clone(),
            baseline: Some(base),
            current: current_v,
            floor,
            ok,
        });
    }
    for (metric, &v) in current {
        if !baseline.contains_key(metric) {
            outcomes.push(CheckOutcome {
                metric: metric.clone(),
                baseline: None,
                current: Some(v),
                floor: f64::NEG_INFINITY,
                ok: true,
            });
        }
    }
    let passed = outcomes.iter().all(|o| o.ok);
    CheckReport { outcomes, passed }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "bench": "substrate_perf", "quick": true, "parallel_threads": 4,
      "results": [
        {"name": "matmul", "serial_secs": 0.001, "parallel_secs": 0.001, "speedup": 1.0,
         "rate_unit": "GFLOP/s", "serial_rate": 8.0, "parallel_rate": 16.0, "bit_identical": true}
      ],
      "phases": []
    }"#;

    #[test]
    fn extracts_rates_and_bit_flags_from_bench_report() {
        let m = extract_metrics(BENCH).expect("extract");
        assert_eq!(m.get("rate.matmul.serial"), Some(&8.0));
        assert_eq!(m.get("rate.matmul.parallel"), Some(&16.0));
        assert_eq!(m.get("bit.matmul"), Some(&1.0));
    }

    #[test]
    fn extracts_quality_metrics_from_trace() {
        let trace = concat!(
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"deterministic\",\"unit\":\"tick\",\"dropped\":0}\n",
            "{\"ev\":\"quality\",\"t\":1,\"experience\":0,\"f1\":[0.9,0.4],\"pr_auc\":0.8,\"threshold\":1.0,",
            "\"avg\":0.9,\"fwd_trans\":0.4,\"bwd_trans\":0.0,",
            "\"scores\":{\"count\":1,\"sum\":4294967296,\"min\":4294967296,\"max\":4294967296,\"buckets\":{\"3328\":1}}}\n",
        );
        let m = extract_metrics(trace).expect("extract");
        assert_eq!(m.get("quality.e0.avg"), Some(&0.9));
        assert_eq!(m.get("quality.e0.pr_auc"), Some(&0.8));
        assert_eq!(m.get("quality.e0.f1_seen"), Some(&0.9));
        assert!(extract_metrics(
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}\n"
        )
        .is_err());
    }

    #[test]
    fn baseline_round_trips_through_render_and_extract() {
        let m = extract_metrics(BENCH).unwrap();
        let text = render_baseline(&m);
        assert_eq!(extract_metrics(&text).unwrap(), m);
    }

    #[test]
    fn identical_metrics_pass_and_doctored_rates_fail() {
        let m = extract_metrics(BENCH).unwrap();
        assert!(compare(&m, &m, None).passed);

        let mut doctored = m.clone();
        doctored.insert("rate.matmul.serial".into(), 8.0 * 0.1);
        let report = compare(&doctored, &m, None);
        assert!(!report.passed);
        let bad = report.outcomes.iter().find(|o| !o.ok).unwrap();
        assert_eq!(bad.metric, "rate.matmul.serial");
        assert!(report.render().contains("REGRESSED"));

        // Within relative tolerance: 30% slower passes the 60% floor.
        let mut noisy = m.clone();
        noisy.insert("rate.matmul.serial".into(), 8.0 * 0.7);
        assert!(compare(&noisy, &m, None).passed);
    }

    #[test]
    fn bit_identical_loss_is_exact_regression() {
        let m = extract_metrics(BENCH).unwrap();
        let mut broken = m.clone();
        broken.insert("bit.matmul".into(), 0.0);
        assert!(!compare(&broken, &m, None).passed);
    }

    #[test]
    fn quality_uses_absolute_tolerance() {
        let mut base = BTreeMap::new();
        base.insert("quality.e0.avg".to_string(), 0.90);
        let mut cur = BTreeMap::new();
        cur.insert("quality.e0.avg".to_string(), 0.86);
        assert!(compare(&cur, &base, None).passed, "within 0.05 abs");
        cur.insert("quality.e0.avg".to_string(), 0.80);
        assert!(!compare(&cur, &base, None).passed, "0.10 drop fails");
    }

    #[test]
    fn missing_metric_fails_and_new_metric_passes() {
        let mut base = BTreeMap::new();
        base.insert("rate.x.serial".to_string(), 10.0);
        let mut cur = BTreeMap::new();
        cur.insert("rate.y.serial".to_string(), 10.0);
        let report = compare(&cur, &base, None);
        assert!(!report.passed, "baseline metric vanished");
        assert!(report.outcomes.iter().any(|o| o.baseline.is_none() && o.ok));
    }

    #[test]
    fn latency_metrics_are_ceiling_checked() {
        let mut base = BTreeMap::new();
        base.insert("lat.serve.batched.p99_us".to_string(), 1000.0);
        // Faster than baseline: always fine.
        let mut cur = BTreeMap::new();
        cur.insert("lat.serve.batched.p99_us".to_string(), 200.0);
        assert!(compare(&cur, &base, None).passed);
        // 80% slower: inside the 100% ceiling.
        cur.insert("lat.serve.batched.p99_us".to_string(), 1800.0);
        assert!(compare(&cur, &base, None).passed);
        // 3x slower: regression.
        cur.insert("lat.serve.batched.p99_us".to_string(), 3000.0);
        let report = compare(&cur, &base, None);
        assert!(!report.passed);
        assert!(report.render().contains("REGRESSED"));
        // An override tightens the fraction but keeps the direction.
        cur.insert("lat.serve.batched.p99_us".to_string(), 1200.0);
        assert!(compare(&cur, &base, Some(0.5)).passed);
        assert!(!compare(&cur, &base, Some(0.1)).passed);
    }

    #[test]
    fn override_tolerance_applies_everywhere() {
        let mut base = BTreeMap::new();
        base.insert("bit.x".to_string(), 1.0);
        let mut cur = BTreeMap::new();
        cur.insert("bit.x".to_string(), 0.9);
        assert!(!compare(&cur, &base, None).passed);
        assert!(compare(&cur, &base, Some(0.5)).passed);
    }
}
