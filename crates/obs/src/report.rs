//! Phase-time breakdown computed from a parsed trace.
//!
//! The same aggregation backs three consumers: the CLI `observe`
//! subcommand (replay a JSONL file), the end-of-run summary table, and
//! the bench harness (which attaches the per-phase rows to
//! `BENCH_*.json`). Aggregation is by span *name*: all `cfe.epoch`
//! spans fold into one row with a call count, total time, and self
//! time (total minus time spent in child spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hdr::HdrHistogram;
use crate::json::{parse_json, Json, ObsError};

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span name (e.g. `cfe.train`).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations (clock units).
    pub total: u64,
    /// Total minus time covered by child spans (clock units).
    pub self_time: u64,
}

/// A full phase report for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Clock kind from the meta line (`wall` / `deterministic`).
    pub clock: String,
    /// Timestamp unit from the meta line (`us` / `tick`).
    pub unit: String,
    /// Sum of durations of root spans (parent id 0) — the denominator
    /// for percentage columns.
    pub root_total: u64,
    /// Rows sorted by descending total time, then name.
    pub rows: Vec<PhaseRow>,
}

struct OpenSpan {
    name: String,
    parent: u64,
    begin: u64,
    child_time: u64,
}

/// Builds a phase report from JSONL trace text. Tolerates metric lines
/// (they are skipped); fails on unparseable lines or span_end without a
/// matching span_begin.
pub fn phase_report(text: &str) -> Result<PhaseReport, ObsError> {
    let mut clock = String::from("wall");
    let mut unit = String::from("us");
    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    let mut agg: BTreeMap<String, PhaseRow> = BTreeMap::new();
    let mut root_total = 0u64;

    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let obj = parse_json(line).map_err(|e| ObsError::at(n, e.message))?;
        match obj.get("ev").and_then(Json::as_str) {
            Some("meta") => {
                if let Some(c) = obj.get("clock").and_then(Json::as_str) {
                    clock = c.to_string();
                }
                if let Some(u) = obj.get("unit").and_then(Json::as_str) {
                    unit = u.to_string();
                }
            }
            Some("span_begin") => {
                let id = obj
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ObsError::at(n, "span_begin missing id"))?;
                open.insert(
                    id,
                    OpenSpan {
                        name: obj
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        parent: obj.get("parent").and_then(Json::as_u64).unwrap_or(0),
                        begin: obj.get("t").and_then(Json::as_u64).unwrap_or(0),
                        child_time: 0,
                    },
                );
            }
            Some("span_end") => {
                let id = obj
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ObsError::at(n, "span_end missing id"))?;
                let span = open
                    .remove(&id)
                    .ok_or_else(|| ObsError::at(n, format!("span_end for unopened id {id}")))?;
                let end = obj.get("t").and_then(Json::as_u64).unwrap_or(span.begin);
                let dur = end.saturating_sub(span.begin);
                let row = agg.entry(span.name.clone()).or_insert(PhaseRow {
                    name: span.name.clone(),
                    count: 0,
                    total: 0,
                    self_time: 0,
                });
                row.count += 1;
                row.total += dur;
                row.self_time += dur.saturating_sub(span.child_time);
                if span.parent == 0 {
                    root_total += dur;
                } else if let Some(parent) = open.get_mut(&span.parent) {
                    parent.child_time += dur;
                }
            }
            _ => {} // metric lines and unknown kinds are not timing data
        }
    }

    let mut rows: Vec<PhaseRow> = agg.into_values().collect();
    rows.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
    Ok(PhaseReport {
        clock,
        unit,
        root_total,
        rows,
    })
}

impl PhaseReport {
    /// Fraction of root-span time covered by the named spans (used by
    /// the coverage acceptance check): sum of `total` over `names`
    /// divided by `root_total`.
    pub fn coverage(&self, names: &[&str]) -> f64 {
        if self.root_total == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .rows
            .iter()
            .filter(|r| names.contains(&r.name.as_str()))
            .map(|r| r.total)
            .sum();
        covered as f64 / self.root_total as f64
    }

    /// Row lookup by span name.
    pub fn row(&self, name: &str) -> Option<&PhaseRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the human-readable phase table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "phase breakdown (clock: {}, unit: {}, root total: {})",
            self.clock, self.unit, self.root_total
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>7}",
            "span", "count", "total", "self", "%root"
        );
        for r in &self.rows {
            let pct = if self.root_total == 0 {
                0.0
            } else {
                100.0 * r.total as f64 / self.root_total as f64
            };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12} {:>12} {:>6.1}%",
                r.name, r.count, r.total, r.self_time, pct
            );
        }
        out
    }

    /// Renders a flamegraph-style self-time profile: the top `limit`
    /// span names by self time, each with a bar scaled to its share of
    /// the summed self time. Self time (total minus child time) is the
    /// honest "where did the cycles actually go" ranking — a parent
    /// span that only dispatches to children sinks to the bottom.
    pub fn render_top(&self, limit: usize) -> String {
        const BAR_WIDTH: usize = 32;
        let mut rows: Vec<&PhaseRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.self_time
                .cmp(&a.self_time)
                .then_with(|| a.name.cmp(&b.name))
        });
        let self_total: u64 = rows.iter().map(|r| r.self_time).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "top self-time spans (clock: {}, unit: {}, total self: {})",
            self.clock, self.unit, self_total
        );
        if self_total == 0 {
            out.push_str("  no self time recorded\n");
            return out;
        }
        for r in rows.iter().take(limit.max(1)) {
            let share = r.self_time as f64 / self_total as f64;
            let filled = ((share * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
            let _ = writeln!(
                out,
                "  {:<28} {:<width$} {:>5.1}% {:>12} x{}",
                r.name,
                "#".repeat(filled),
                100.0 * share,
                r.self_time,
                r.count,
                width = BAR_WIDTH
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Latency breakdown (HDR metrics)
// ---------------------------------------------------------------------

/// One HDR latency metric reconstructed from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Metric name (e.g. `serve.stage.queue_wait.us`).
    pub name: String,
    /// Reconstructed histogram.
    pub hist: HdrHistogram,
}

/// A latency-breakdown report: every `hdr` metric in a trace with its
/// standard quantiles, rendered as one table. This is what
/// `observe --latency` prints and what the server's shutdown summary
/// reuses.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Rows in trace (name-sorted) order.
    pub rows: Vec<LatencyRow>,
}

/// Builds a latency report from JSONL trace text by collecting every
/// `hdr` metric line. Lines of other kinds are skipped; a malformed
/// line is an error.
pub fn latency_report(text: &str) -> Result<LatencyReport, ObsError> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let obj = parse_json(line).map_err(|e| ObsError::at(n, e.message))?;
        if obj.get("ev").and_then(Json::as_str) != Some("hdr") {
            continue;
        }
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ObsError::at(n, "hdr missing name"))?
            .to_string();
        let mut hist = HdrHistogram::new();
        hist.count = obj
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| ObsError::at(n, "hdr missing count"))?;
        hist.sum = obj
            .get("sum")
            .and_then(Json::as_u64)
            .ok_or_else(|| ObsError::at(n, "hdr missing sum"))?;
        hist.min = obj.get("min").and_then(Json::as_u64);
        hist.max = obj.get("max").and_then(Json::as_u64);
        let buckets = obj
            .get("buckets")
            .and_then(Json::as_obj)
            .ok_or_else(|| ObsError::at(n, "hdr missing buckets object"))?;
        for (k, v) in buckets {
            let idx: u32 = k
                .parse()
                .map_err(|_| ObsError::at(n, format!("bad bucket index {k}")))?;
            let c = v
                .as_u64()
                .ok_or_else(|| ObsError::at(n, format!("bad bucket count for {k}")))?;
            hist.buckets.insert(idx, c);
        }
        rows.push(LatencyRow { name, hist });
    }
    Ok(LatencyReport { rows })
}

impl LatencyReport {
    /// Row lookup by metric name.
    pub fn row(&self, name: &str) -> Option<&LatencyRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the latency table: one line per HDR metric with count,
    /// mean, and the standard quantiles.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "latency breakdown (unit: us)");
        if self.rows.is_empty() {
            out.push_str("  no hdr metrics recorded\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "metric", "count", "mean", "p50", "p90", "p99", "p999", "max"
        );
        for r in &self.rows {
            let (p50, p90, p99, p999) = r.hist.standard_quantiles();
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
                r.name,
                r.hist.count,
                r.hist.mean(),
                p50,
                p90,
                p99,
                p999,
                r.hist.max.unwrap_or(0)
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Continual-learning causal timeline (cevent lines)
// ---------------------------------------------------------------------

/// One control-plane event inside a cycle's causal chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineStage {
    /// Timestamp (clock units).
    pub t: u64,
    /// Machine-readable event kind (e.g. `drift_detected`, `swapped`).
    pub kind: String,
    /// Rendered human-readable description.
    pub detail: String,
}

/// The detect→retrain→validate→swap→probation→rollback chain for one
/// cycle id, in timestamp order.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleChain {
    /// Cycle id (0 groups events recorded outside any cycle).
    pub cycle: u64,
    /// Stages in timestamp (then recording) order.
    pub stages: Vec<TimelineStage>,
}

impl CycleChain {
    /// Time from the first to the last stage (clock units).
    pub fn total(&self) -> u64 {
        match (self.stages.first(), self.stages.last()) {
            (Some(a), Some(b)) => b.t.saturating_sub(a.t),
            _ => 0,
        }
    }
}

/// A causal timeline reconstructed from the typed `cevent` lines of a
/// trace: one chain per cycle id, rendered as a tree with per-stage
/// durations. This is what `observe --timeline` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Timestamp unit from the meta line (`us` / `tick`).
    pub unit: String,
    /// Chains sorted by cycle id.
    pub chains: Vec<CycleChain>,
}

/// Builds a timeline report from JSONL trace text by collecting every
/// `cevent` line and grouping by cycle id. Lines of other kinds are
/// skipped; a malformed `cevent` line is an error.
pub fn timeline_report(text: &str) -> Result<TimelineReport, ObsError> {
    let mut unit = String::from("us");
    let mut chains: BTreeMap<u64, Vec<TimelineStage>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let obj = parse_json(line).map_err(|e| ObsError::at(n, e.message))?;
        match obj.get("ev").and_then(Json::as_str) {
            Some("meta") => {
                if let Some(u) = obj.get("unit").and_then(Json::as_str) {
                    unit = u.to_string();
                }
            }
            Some("cevent") => {
                let cycle = obj
                    .get("cycle")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ObsError::at(n, "cevent missing cycle"))?;
                chains.entry(cycle).or_default().push(TimelineStage {
                    t: obj
                        .get("t")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ObsError::at(n, "cevent missing t"))?,
                    kind: obj
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ObsError::at(n, "cevent missing kind"))?
                        .to_string(),
                    detail: obj
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                });
            }
            _ => {}
        }
    }
    let chains = chains
        .into_iter()
        .map(|(cycle, mut stages)| {
            stages.sort_by_key(|s| s.t);
            CycleChain { cycle, stages }
        })
        .collect();
    Ok(TimelineReport { unit, chains })
}

impl TimelineReport {
    /// Chain lookup by cycle id.
    pub fn chain(&self, cycle: u64) -> Option<&CycleChain> {
        self.chains.iter().find(|c| c.cycle == cycle)
    }

    /// Renders the causal tree: one block per cycle, each stage with
    /// the time elapsed since the previous stage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "continual timeline (unit: {}, cycles: {})",
            self.unit,
            self.chains.len()
        );
        if self.chains.is_empty() {
            out.push_str("  no continual events recorded\n");
            return out;
        }
        for chain in &self.chains {
            if chain.cycle == 0 {
                let _ = writeln!(out, "uncorrelated (no cycle)");
            } else {
                let _ = writeln!(
                    out,
                    "cycle {} (stages: {}, total: {} {})",
                    chain.cycle,
                    chain.stages.len(),
                    chain.total(),
                    self.unit
                );
            }
            let mut prev_t = None;
            for (i, s) in chain.stages.iter().enumerate() {
                let branch = if i + 1 == chain.stages.len() {
                    "└─"
                } else {
                    "├─"
                };
                let delta = match prev_t {
                    Some(p) => format!("+{}", s.t.saturating_sub(p)),
                    None => format!("t={}", s.t),
                };
                let _ = writeln!(out, "  {branch} {:<18} {:>12}  {}", s.kind, delta, s.detail);
                prev_t = Some(s.t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockKind;
    use crate::metrics::Registry;
    use crate::trace::{to_jsonl, Event};

    fn nested_trace() -> String {
        // root (t 0..100) containing two children: a (10..40), b (50..90).
        let events = vec![
            Event::SpanBegin {
                t: 0,
                id: 1,
                parent: 0,
                name: "root",
                fields: vec![],
            },
            Event::SpanBegin {
                t: 10,
                id: 2,
                parent: 1,
                name: "a",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 40,
                id: 2,
                dur: 30,
            },
            Event::SpanBegin {
                t: 50,
                id: 3,
                parent: 1,
                name: "b",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 90,
                id: 3,
                dur: 40,
            },
            Event::SpanEnd {
                t: 100,
                id: 1,
                dur: 100,
            },
        ];
        to_jsonl(
            ClockKind::Deterministic,
            &events,
            0,
            &Registry::default(),
            false,
        )
    }

    #[test]
    fn self_time_subtracts_children() {
        let report = phase_report(&nested_trace()).expect("report");
        assert_eq!(report.root_total, 100);
        let root = report.row("root").unwrap();
        assert_eq!(root.total, 100);
        assert_eq!(root.self_time, 30); // 100 - 30 - 40
        assert_eq!(report.row("a").unwrap().total, 30);
        assert_eq!(report.row("b").unwrap().total, 40);
    }

    #[test]
    fn coverage_is_child_time_over_root() {
        let report = phase_report(&nested_trace()).expect("report");
        let cov = report.coverage(&["a", "b"]);
        assert!((cov - 0.7).abs() < 1e-12, "got {cov}");
        assert_eq!(report.coverage(&["missing"]), 0.0);
    }

    #[test]
    fn rows_sort_by_descending_total() {
        let report = phase_report(&nested_trace()).expect("report");
        let names: Vec<&str> = report.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["root", "b", "a"]);
        let table = report.render();
        assert!(table.contains("phase breakdown"));
        assert!(table.contains("root"));
    }

    #[test]
    fn render_top_ranks_by_self_time() {
        let report = phase_report(&nested_trace()).expect("report");
        let top = report.render_top(10);
        // Self times: b=40, a=30, root=30 (100 - 70); b leads.
        let lines: Vec<&str> = top.lines().collect();
        assert!(lines[0].contains("total self: 100"));
        assert!(lines[1].trim_start().starts_with('b'), "{top}");
        assert!(top.contains('#'));
        // limit=1 keeps only the header and the leader.
        assert_eq!(report.render_top(1).lines().count(), 2);
    }

    fn trace_of(events: Vec<Event>) -> String {
        to_jsonl(
            ClockKind::Deterministic,
            &events,
            0,
            &Registry::default(),
            false,
        )
    }

    #[test]
    fn empty_trace_renders_stably() {
        let report = phase_report(&trace_of(vec![])).expect("meta-only trace");
        assert_eq!(report.root_total, 0);
        assert!(report.rows.is_empty());
        assert_eq!(report.coverage(&["anything"]), 0.0);
        assert!(report.render().contains("root total: 0"));
        assert!(report.render_top(5).contains("no self time recorded"));
        // Fully empty text (no meta line) also parses to an empty report.
        let report = phase_report("").expect("empty text");
        assert!(report.rows.is_empty());
    }

    #[test]
    fn single_span_trace_is_all_self_time() {
        let report = phase_report(&trace_of(vec![
            Event::SpanBegin {
                t: 5,
                id: 1,
                parent: 0,
                name: "only",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 9,
                id: 1,
                dur: 4,
            },
        ]))
        .expect("report");
        assert_eq!(report.root_total, 4);
        let row = report.row("only").unwrap();
        assert_eq!((row.count, row.total, row.self_time), (1, 4, 4));
        assert!((report.coverage(&["only"]) - 1.0).abs() < 1e-12);
        assert!(report.render_top(3).contains("only"));
    }

    #[test]
    fn zero_self_time_spans_do_not_panic_or_divide_by_zero() {
        // Parent fully covered by its child: parent self time is 0.
        let report = phase_report(&trace_of(vec![
            Event::SpanBegin {
                t: 0,
                id: 1,
                parent: 0,
                name: "wrapper",
                fields: vec![],
            },
            Event::SpanBegin {
                t: 0,
                id: 2,
                parent: 1,
                name: "inner",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 10,
                id: 2,
                dur: 10,
            },
            Event::SpanEnd {
                t: 10,
                id: 1,
                dur: 10,
            },
        ]))
        .expect("report");
        assert_eq!(report.row("wrapper").unwrap().self_time, 0);
        let top = report.render_top(5);
        assert!(top.contains("inner"));
        assert!(top.contains("wrapper"));
        // Zero-duration spans everywhere: render paths stay finite.
        let report = phase_report(&trace_of(vec![
            Event::SpanBegin {
                t: 3,
                id: 1,
                parent: 0,
                name: "instant",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 3,
                id: 1,
                dur: 0,
            },
        ]))
        .expect("report");
        assert_eq!(report.root_total, 0);
        assert!(report.render().contains("instant"));
        assert!(report.render_top(5).contains("no self time recorded"));
    }

    #[test]
    fn latency_report_round_trips_hdr_metrics() {
        let mut reg = Registry::default();
        let mut expect = HdrHistogram::new();
        for v in [3u64, 50, 700, 700, 12_000, 400_000] {
            reg.hdr_record("serve.stage.total.us", v, false);
            expect.record(v);
        }
        reg.counter_add("serve.accept.count", 6, false);
        let text = to_jsonl(ClockKind::Wall, &[], 0, &reg, true);
        let report = latency_report(&text).expect("report");
        assert_eq!(report.rows.len(), 1, "non-hdr metrics skipped");
        let row = report.row("serve.stage.total.us").expect("row");
        assert_eq!(row.hist, expect, "histogram survives serialization");
        let table = report.render();
        assert!(table.contains("latency breakdown"));
        assert!(table.contains("serve.stage.total.us"));
        assert!(table.contains("p999"));
    }

    #[test]
    fn latency_report_empty_and_malformed() {
        let report = latency_report("").expect("empty ok");
        assert!(report.rows.is_empty());
        assert!(report.render().contains("no hdr metrics"));
        let bad = "{\"ev\":\"hdr\",\"name\":\"x\",\"count\":1}";
        assert_eq!(
            latency_report(bad).unwrap_err(),
            ObsError::at(1, "hdr missing sum")
        );
        let bad_bucket =
            "{\"ev\":\"hdr\",\"name\":\"x\",\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"buckets\":{\"oops\":1}}";
        assert_eq!(
            latency_report(bad_bucket).unwrap_err(),
            ObsError::at(1, "bad bucket index oops")
        );
    }

    #[test]
    fn timeline_groups_cevents_by_cycle_in_time_order() {
        let cev = |t: u64, cycle: u64, kind: &str, detail: &str| Event::Continual {
            t,
            cycle,
            kind: kind.into(),
            detail: detail.into(),
        };
        let text = trace_of(vec![
            cev(10, 1, "drift_detected", "psi 0.40"),
            cev(12, 1, "retrain_started", "512 samples, attempt 1"),
            cev(90, 1, "swapped", "v2 live"),
            cev(140, 1, "rolled_back", "v2 -> v1"),
            cev(200, 2, "drift_detected", "psi 0.35"),
        ]);
        let report = timeline_report(&text).expect("timeline");
        assert_eq!(report.chains.len(), 2);
        let c1 = report.chain(1).expect("cycle 1");
        assert_eq!(c1.stages.len(), 4);
        assert_eq!(c1.stages[0].kind, "drift_detected");
        assert_eq!(c1.stages[3].kind, "rolled_back");
        assert_eq!(c1.total(), 130);
        assert_eq!(report.chain(2).unwrap().stages.len(), 1);
        let tree = report.render();
        assert!(tree.contains("cycle 1"), "{tree}");
        assert!(tree.contains("└─ rolled_back"), "{tree}");
        assert!(tree.contains("+78"), "per-stage duration rendered: {tree}");
        // Empty traces render stably.
        let empty = timeline_report("").expect("empty");
        assert!(empty.render().contains("no continual events"));
    }

    #[test]
    fn coverage_with_unknown_names_is_zero_not_panic() {
        let report = phase_report(&nested_trace()).expect("report");
        assert_eq!(report.coverage(&[]), 0.0);
        assert_eq!(report.coverage(&["missing", "also.missing"]), 0.0);
        // Mix of known and unknown only counts the known.
        assert!((report.coverage(&["a", "missing"]) - 0.3).abs() < 1e-12);
        assert!(report.row("missing").is_none());
    }
}
