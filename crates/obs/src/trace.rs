//! Trace events, JSONL serialization, and a minimal JSON reader.
//!
//! A trace is a sequence of JSON objects, one per line:
//!
//! ```text
//! {"ev":"meta","version":2,"clock":"deterministic","unit":"tick","dropped":0}
//! {"ev":"span_begin","t":1,"id":1,"parent":0,"name":"runner.evaluate","fields":{...}}
//! {"ev":"span_end","t":8,"id":1,"dur":7}
//! {"ev":"counter","name":"continual.retrain.count","value":3}
//! {"ev":"gauge","name":"cfe.loss.total.value","value":0.42}
//! {"ev":"hdr","name":"serve.stage.score.us","count":10,"sum":...,"buckets":{...}}
//! ```
//!
//! Every distribution is an `hdr` body, the `scores` of a `quality`
//! line included. The validator accepts only [`TRACE_VERSION`], so a
//! version-1 trace (exponent-bucket `hist` lines) is refused.
//!
//! Serialization is fully deterministic: events in recording order,
//! metrics sorted by name, floats formatted with `{:?}` (shortest
//! round-trip representation), object keys emitted in a fixed order.
//! The reader side is the shared [`crate::json`] recursive-descent
//! parser — enough to replay traces for `observe` and the schema-check
//! binary without any external dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::ClockKind;
use crate::json::{escape_json, write_f64};
use crate::metrics::{Metric, MetricValue, Registry};
use crate::quality::QualityRecord;
use crate::Value;

pub use crate::json::{parse_json, Json};

/// Trace format version written into the meta line.
pub const TRACE_VERSION: u64 = 2;

/// One recorded event (spans only; metrics are snapshotted at flush).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened: timestamp, span id, parent id (0 = root), name,
    /// and the fields captured at open time.
    SpanBegin {
        /// Timestamp (clock units).
        t: u64,
        /// Unique span id (1-based).
        id: u64,
        /// Parent span id, 0 when the span has no parent.
        parent: u64,
        /// Span name (`subsystem.verb` taxonomy).
        name: &'static str,
        /// Fields captured when the span opened.
        fields: Vec<(&'static str, Value)>,
    },
    /// A span closed: timestamp, span id, and duration in clock units.
    SpanEnd {
        /// Timestamp (clock units).
        t: u64,
        /// Id of the span being closed.
        id: u64,
        /// `end - begin` in clock units.
        dur: u64,
    },
    /// A per-experience model-quality record (F1 row, PR-AUC, continual
    /// summary, novelty-score histogram). Emitted by the experiment
    /// runner once per experience.
    Quality {
        /// Timestamp (clock units).
        t: u64,
        /// The quality payload.
        record: QualityRecord,
    },
    /// A continual-learning control-plane event (`cevent` line): the
    /// typed form of [`ContinualEvent`]s of either continual host,
    /// carrying the causal cycle id so `observe --timeline` can
    /// reconstruct each detect→retrain→validate→swap→probation→rollback
    /// chain.
    ///
    /// [`ContinualEvent`]: https://docs.rs/cnd-core
    Continual {
        /// Timestamp (clock units).
        t: u64,
        /// Cycle id minted when the retrain was armed (0 for events
        /// outside any cycle).
        cycle: u64,
        /// Machine-readable event kind (e.g. `drift_detected`, `swapped`).
        kind: String,
        /// Rendered human-readable description.
        detail: String,
    },
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => write_f64(*f, out),
        Value::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Writes the field list shared by `hdr` metric lines and the `scores`
/// object inside `quality` events (everything after the opening brace).
/// Bucket keys are HDR bucket indices (see
/// [`crate::hdr::bucket_index`]), values are counts.
fn write_hdr_body(h: &crate::hdr::HdrHistogram, out: &mut String) {
    let _ = write!(out, "\"count\":{},\"sum\":{},\"min\":", h.count, h.sum);
    match h.min {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"max\":");
    match h.max {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"buckets\":{");
    for (i, (b, c)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{b}\":{c}");
    }
    out.push('}');
}

fn write_opt_f64(v: Option<f64>, out: &mut String) {
    match v {
        Some(v) => write_f64(v, out),
        None => out.push_str("null"),
    }
}

fn write_event(ev: &Event, out: &mut String) {
    match ev {
        Event::SpanBegin {
            t,
            id,
            parent,
            name,
            fields,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"span_begin\",\"t\":{t},\"id\":{id},\"parent\":{parent},\"name\":\""
            );
            escape_json(name, out);
            out.push('"');
            if !fields.is_empty() {
                out.push_str(",\"fields\":{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, out);
                    out.push_str("\":");
                    write_value(v, out);
                }
                out.push('}');
            }
            out.push('}');
        }
        Event::SpanEnd { t, id, dur } => {
            let _ = write!(
                out,
                "{{\"ev\":\"span_end\",\"t\":{t},\"id\":{id},\"dur\":{dur}}}"
            );
        }
        Event::Quality { t, record } => {
            let _ = write!(
                out,
                "{{\"ev\":\"quality\",\"t\":{t},\"experience\":{},\"f1\":[",
                record.experience
            );
            for (i, v) in record.f1_row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_f64(*v, out);
            }
            out.push_str("],\"pr_auc\":");
            write_opt_f64(record.pr_auc, out);
            out.push_str(",\"threshold\":");
            write_opt_f64(record.threshold, out);
            out.push_str(",\"avg\":");
            write_f64(record.avg, out);
            out.push_str(",\"fwd_trans\":");
            write_f64(record.fwd_trans, out);
            out.push_str(",\"bwd_trans\":");
            write_f64(record.bwd_trans, out);
            out.push_str(",\"scores\":{");
            write_hdr_body(&record.scores, out);
            out.push_str("}}");
        }
        Event::Continual {
            t,
            cycle,
            kind,
            detail,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"cevent\",\"t\":{t},\"cycle\":{cycle},\"kind\":\""
            );
            escape_json(kind, out);
            out.push_str("\",\"detail\":\"");
            escape_json(detail, out);
            out.push_str("\"}");
        }
    }
}

fn write_metric(name: &str, m: &Metric, out: &mut String) {
    let _ = write!(out, "{{\"ev\":\"{}\",\"name\":\"", m.value.kind());
    escape_json(name, out);
    out.push_str("\",");
    match &m.value {
        MetricValue::Counter(c) => {
            let _ = write!(out, "\"value\":{c}");
        }
        MetricValue::Gauge(g) => {
            out.push_str("\"value\":");
            write_f64(*g, out);
        }
        MetricValue::Hdr(h) => write_hdr_body(h, out),
    }
    out.push('}');
}

/// Serializes a full trace (meta line, events in order, then metrics
/// sorted by name) to a JSONL string. When `include_volatile` is false,
/// volatile metrics are omitted — the deterministic-clock path uses
/// this so traces stay byte-identical across pool sizes.
pub fn to_jsonl(
    clock: ClockKind,
    events: &[Event],
    dropped: u64,
    metrics: &Registry,
    include_volatile: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"ev\":\"meta\",\"version\":{TRACE_VERSION},\"clock\":\"{}\",\"unit\":\"{}\",\"dropped\":{dropped}}}",
        clock.name(),
        clock.unit()
    );
    for ev in events {
        write_event(ev, &mut out);
        out.push('\n');
    }
    for (name, m) in metrics.iter() {
        if m.volatile && !include_volatile {
            continue;
        }
        write_metric(name, m, &mut out);
        out.push('\n');
    }
    out
}

/// Checks the fields [`write_hdr_body`] writes: `count` and `sum` as
/// integers, `min` and `max` present, and a `buckets` object. `what`
/// prefixes the error.
fn check_hdr_body(obj: &Json, what: &str) -> Result<(), String> {
    for field in ["count", "sum"] {
        obj.get(field)
            .and_then(Json::as_u64)
            .ok_or(format!("{what} missing {field}"))?;
    }
    for field in ["min", "max"] {
        if obj.get(field).is_none() {
            return Err(format!("{what} missing {field}"));
        }
    }
    if !matches!(obj.get("buckets"), Some(Json::Obj(_))) {
        return Err(format!("{what} missing buckets object"));
    }
    Ok(())
}

/// Structural validation of a JSONL trace. Checks that the first line
/// is a versioned meta record, every line parses, every `span_end`
/// matches an open `span_begin`, durations are consistent, and metric
/// lines carry the fields their kind requires. Returns the number of
/// lines validated.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    let mut open: BTreeMap<u64, u64> = BTreeMap::new(); // id -> begin t
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let obj = parse_json(line).map_err(|e| format!("line {n}: {e}"))?;
        let ev = obj
            .get("ev")
            .and_then(Json::as_str)
            .ok_or(format!("line {n}: missing \"ev\""))?;
        if lines == 0 {
            if ev != "meta" {
                return Err(format!("line {n}: first line must be meta, got {ev}"));
            }
            let version = obj
                .get("version")
                .and_then(Json::as_u64)
                .ok_or(format!("line {n}: meta missing version"))?;
            if version != TRACE_VERSION {
                return Err(format!("line {n}: unsupported trace version {version}"));
            }
            obj.get("clock")
                .and_then(Json::as_str)
                .ok_or(format!("line {n}: meta missing clock"))?;
        } else {
            match ev {
                "meta" => return Err(format!("line {n}: duplicate meta")),
                "span_begin" => {
                    let id = obj
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: span_begin missing id"))?;
                    let t = obj
                        .get("t")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: span_begin missing t"))?;
                    obj.get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("line {n}: span_begin missing name"))?;
                    if open.insert(id, t).is_some() {
                        return Err(format!("line {n}: duplicate span id {id}"));
                    }
                }
                "span_end" => {
                    let id = obj
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: span_end missing id"))?;
                    let t = obj
                        .get("t")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: span_end missing t"))?;
                    let dur = obj
                        .get("dur")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: span_end missing dur"))?;
                    let begin = open
                        .remove(&id)
                        .ok_or(format!("line {n}: span_end for unopened id {id}"))?;
                    if t < begin || t - begin != dur {
                        return Err(format!(
                            "line {n}: span {id} duration mismatch (begin {begin}, end {t}, dur {dur})"
                        ));
                    }
                }
                "counter" | "gauge" => {
                    obj.get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("line {n}: {ev} missing name"))?;
                    if obj.get("value").is_none() {
                        return Err(format!("line {n}: {ev} missing value"));
                    }
                }
                "hdr" => {
                    obj.get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("line {n}: hdr missing name"))?;
                    check_hdr_body(&obj, &format!("line {n}: hdr"))?;
                }
                "quality" => {
                    obj.get("t")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: quality missing t"))?;
                    obj.get("experience")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {n}: quality missing experience"))?;
                    let f1 = obj
                        .get("f1")
                        .and_then(Json::as_arr)
                        .ok_or(format!("line {n}: quality missing f1 array"))?;
                    if f1.iter().any(|v| !matches!(v, Json::Num(_) | Json::Null)) {
                        return Err(format!("line {n}: quality f1 entries must be numbers"));
                    }
                    for field in ["avg", "fwd_trans", "bwd_trans"] {
                        if obj.get(field).is_none() {
                            return Err(format!("line {n}: quality missing {field}"));
                        }
                    }
                    let scores = obj
                        .get("scores")
                        .ok_or(format!("line {n}: quality missing scores object"))?;
                    check_hdr_body(scores, &format!("line {n}: quality scores"))?;
                }
                "cevent" => {
                    for field in ["t", "cycle"] {
                        obj.get(field)
                            .and_then(Json::as_u64)
                            .ok_or(format!("line {n}: cevent missing {field}"))?;
                    }
                    for field in ["kind", "detail"] {
                        obj.get(field)
                            .and_then(Json::as_str)
                            .ok_or(format!("line {n}: cevent missing {field}"))?;
                    }
                }
                other => return Err(format!("line {n}: unknown event kind {other}")),
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return Err("empty trace".into());
    }
    if let Some((&id, _)) = open.iter().next() {
        return Err(format!("span {id} never closed"));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdr::{fixed_point, HdrHistogram};

    fn sample_trace() -> String {
        let mut reg = Registry::default();
        reg.counter_add("continual.retrain.count", 3, false);
        reg.gauge_set("cfe.loss.total.value", 0.5, false);
        reg.gauge_set("pool.threads.value", 4.0, true);
        let events = vec![
            Event::SpanBegin {
                t: 1,
                id: 1,
                parent: 0,
                name: "runner.evaluate",
                fields: vec![("experiences", Value::UInt(5))],
            },
            Event::SpanBegin {
                t: 2,
                id: 2,
                parent: 1,
                name: "cfe.train",
                fields: vec![],
            },
            Event::SpanEnd {
                t: 3,
                id: 2,
                dur: 1,
            },
            Event::SpanEnd {
                t: 4,
                id: 1,
                dur: 3,
            },
        ];
        to_jsonl(ClockKind::Deterministic, &events, 0, &reg, false)
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let text = sample_trace();
        let lines = validate_jsonl(&text).expect("valid trace");
        // meta + 4 span events + 2 non-volatile metrics.
        assert_eq!(lines, 7);
        assert!(!text.contains("pool.threads.value"), "volatile excluded");
    }

    #[test]
    fn volatile_metrics_are_included_on_request() {
        let mut reg = Registry::default();
        reg.gauge_set("pool.threads.value", 4.0, true);
        let text = to_jsonl(ClockKind::Wall, &[], 0, &reg, true);
        assert!(text.contains("pool.threads.value"));
        validate_jsonl(&text).expect("valid trace");
    }

    #[test]
    fn quality_events_serialize_and_validate() {
        let mut scores = HdrHistogram::new();
        for v in [0.5, 1.5, 2.5, 0.0] {
            scores.record(fixed_point(v).unwrap());
        }
        let record = QualityRecord {
            experience: 1,
            f1_row: vec![0.9, 0.45],
            pr_auc: Some(0.875),
            threshold: Some(1.25),
            avg: 0.675,
            fwd_trans: 0.45,
            bwd_trans: 0.0,
            scores,
        };
        let events = vec![Event::Quality { t: 3, record }];
        let text = to_jsonl(
            ClockKind::Deterministic,
            &events,
            0,
            &Registry::default(),
            false,
        );
        validate_jsonl(&text).expect("quality trace validates");
        let line = text.lines().nth(1).unwrap();
        let obj = parse_json(line).expect("quality line parses");
        assert_eq!(obj.get("ev").and_then(Json::as_str), Some("quality"));
        assert_eq!(obj.get("experience").and_then(Json::as_u64), Some(1));
        assert_eq!(
            obj.get("f1").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(obj.get("pr_auc").and_then(Json::as_f64), Some(0.875));
        let scores = obj.get("scores").unwrap();
        assert_eq!(scores.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(scores.get("min").and_then(Json::as_u64), Some(0));
        assert_eq!(scores.get("max").and_then(Json::as_u64), fixed_point(2.5));
        let buckets = scores.get("buckets").and_then(Json::as_obj).unwrap();
        assert_eq!(buckets.len(), 4, "one bucket per distinct score");
        assert!(buckets.iter().any(|(k, _)| k == "0"), "zero bucket");
    }

    #[test]
    fn quality_events_with_missing_fields_are_rejected() {
        let meta =
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}";
        let no_scores = format!(
            "{meta}\n{{\"ev\":\"quality\",\"t\":1,\"experience\":0,\"f1\":[0.5],\"avg\":0.5,\"fwd_trans\":0.0,\"bwd_trans\":0.0}}"
        );
        assert!(validate_jsonl(&no_scores)
            .unwrap_err()
            .contains("missing scores"));
        let no_f1 = format!(
            "{meta}\n{{\"ev\":\"quality\",\"t\":1,\"experience\":0,\"avg\":0.5,\"fwd_trans\":0.0,\"bwd_trans\":0.0,\"scores\":{{\"count\":0,\"sum\":0,\"min\":null,\"max\":null,\"buckets\":{{}}}}}}"
        );
        assert!(validate_jsonl(&no_f1).unwrap_err().contains("missing f1"));
        // Version 1's exponent-bucket `scores` shape no longer validates.
        let old_scores = format!(
            "{meta}\n{{\"ev\":\"quality\",\"t\":1,\"experience\":0,\"f1\":[0.5],\"avg\":0.5,\"fwd_trans\":0.0,\"bwd_trans\":0.0,\"scores\":{{\"count\":2,\"zero\":0,\"rejected\":0,\"sum\":2.75,\"min\":1.25,\"max\":1.5,\"buckets\":{{\"0\":2}}}}}}"
        );
        assert!(validate_jsonl(&old_scores)
            .unwrap_err()
            .contains("quality scores missing sum"));
    }

    #[test]
    fn hdr_metrics_serialize_and_validate() {
        let mut reg = Registry::default();
        reg.hdr_record("serve.stage.score.us", 137, false);
        reg.hdr_record("serve.stage.score.us", 4096, false);
        let text = to_jsonl(ClockKind::Wall, &[], 0, &reg, true);
        validate_jsonl(&text).expect("hdr trace validates");
        let line = text.lines().nth(1).unwrap();
        let obj = parse_json(line).expect("hdr line parses");
        assert_eq!(obj.get("ev").and_then(Json::as_str), Some("hdr"));
        assert_eq!(
            obj.get("name").and_then(Json::as_str),
            Some("serve.stage.score.us")
        );
        assert_eq!(obj.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(obj.get("sum").and_then(Json::as_u64), Some(137 + 4096));
        assert_eq!(obj.get("min").and_then(Json::as_u64), Some(137));
        assert_eq!(obj.get("max").and_then(Json::as_u64), Some(4096));
        assert!(matches!(obj.get("buckets"), Some(Json::Obj(_))));
    }

    #[test]
    fn hdr_lines_with_missing_fields_are_rejected() {
        let meta =
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}";
        let no_buckets = format!(
            "{meta}\n{{\"ev\":\"hdr\",\"name\":\"x\",\"count\":1,\"sum\":5,\"min\":5,\"max\":5}}"
        );
        assert!(validate_jsonl(&no_buckets)
            .unwrap_err()
            .contains("missing buckets"));
        let no_sum = format!(
            "{meta}\n{{\"ev\":\"hdr\",\"name\":\"x\",\"count\":1,\"min\":5,\"max\":5,\"buckets\":{{}}}}"
        );
        assert!(validate_jsonl(&no_sum).unwrap_err().contains("missing sum"));
    }

    #[test]
    fn continual_events_serialize_and_validate() {
        let events = vec![Event::Continual {
            t: 5,
            cycle: 2,
            kind: "swapped".into(),
            detail: "swapped in v3 \"canary\"".into(),
        }];
        let text = to_jsonl(
            ClockKind::Deterministic,
            &events,
            0,
            &Registry::default(),
            false,
        );
        validate_jsonl(&text).expect("cevent trace validates");
        let obj = parse_json(text.lines().nth(1).unwrap()).expect("cevent line parses");
        assert_eq!(obj.get("ev").and_then(Json::as_str), Some("cevent"));
        assert_eq!(obj.get("cycle").and_then(Json::as_u64), Some(2));
        assert_eq!(obj.get("kind").and_then(Json::as_str), Some("swapped"));
        let meta =
            "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}";
        let no_cycle =
            format!("{meta}\n{{\"ev\":\"cevent\",\"t\":1,\"kind\":\"x\",\"detail\":\"y\"}}");
        assert!(validate_jsonl(&no_cycle)
            .unwrap_err()
            .contains("cevent missing cycle"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"ev\":\"span_end\",\"t\":1,\"id\":1,\"dur\":0}").is_err());
        let no_close = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}\n{\"ev\":\"span_begin\",\"t\":1,\"id\":1,\"parent\":0,\"name\":\"x\"}";
        assert!(validate_jsonl(no_close)
            .unwrap_err()
            .contains("never closed"));
        let bad_dur = "{\"ev\":\"meta\",\"version\":2,\"clock\":\"wall\",\"unit\":\"us\",\"dropped\":0}\n{\"ev\":\"span_begin\",\"t\":5,\"id\":1,\"parent\":0,\"name\":\"x\"}\n{\"ev\":\"span_end\",\"t\":9,\"id\":1,\"dur\":3}";
        assert!(validate_jsonl(bad_dur).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample_trace(), sample_trace());
    }
}
