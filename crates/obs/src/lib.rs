//! `cnd-obs` — zero-dependency observability for CND-IDS.
//!
//! Spans (nested wall-time scopes), metrics (counters, gauges, HDR
//! histograms), and sinks (JSONL trace files, a human-readable summary
//! table, in-memory snapshots for tests), all std-only to match the
//! rest of the workspace.
//!
//! # Design rules
//!
//! * **Disabled means free.** Every entry point first checks a single
//!   relaxed [`AtomicBool`]; when observability is off, `span!` and the
//!   metric helpers return without evaluating their arguments or
//!   touching any lock.
//! * **Deterministic output.** Timestamps come from a [`Clock`];
//!   the [`DeterministicClock`] advances one tick per reading, metrics
//!   serialize sorted by name, and scheduling-dependent ("volatile")
//!   metrics are excluded from deterministic traces — so two identical
//!   runs produce byte-identical JSONL at any `CND_THREADS`.
//! * **Spans are thread-scoped.** A [`SpanGuard`] must be dropped on
//!   the thread that opened it (it is `!Send`); parentage is tracked
//!   with a thread-local stack.
//!
//! # Quick start
//!
//! ```
//! let _session = cnd_obs::Session::deterministic();
//! {
//!     let _root = cnd_obs::span!("demo.run", items = 3u64);
//!     cnd_obs::counter_add("demo.items.count", 3);
//! }
//! let trace = cnd_obs::snapshot_jsonl();
//! assert!(trace.contains("demo.run"));
//! cnd_obs::trace::validate_jsonl(&trace).unwrap();
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod clock;
pub mod export;
pub mod flight;
pub mod hdr;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod quality;
pub mod report;
pub mod slo;
pub mod trace;

pub use clock::{Clock, ClockKind, DeterministicClock, WallClock};
pub use export::{init_exporter_from_env, Exporter};
pub use hdr::HdrHistogram;
pub use ledger::{
    Disposition, DriftProvenance, EntryDraft, Ledger, LedgerEntry, SampleProvenance,
    ShadowProvenance,
};
pub use quality::{DriftMonitor, DriftThresholds, DriftVerdict, QualityRecord};
pub use report::{
    latency_report, phase_report, timeline_report, LatencyReport, PhaseReport, PhaseRow,
    TimelineReport,
};
pub use slo::{SloConfig, SloSnapshot, SloTracker, WindowBurn};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use metrics::Registry;
use trace::Event;

/// Hard cap on recorded span events; past this, events are counted as
/// dropped instead of stored (backstop against runaway loops).
const EVENT_CAP: usize = 1 << 20;

/// The single global gate. Relaxed is sufficient: the flag only guards
/// whether instrumentation bothers to take the recorder lock, and the
/// lock itself orders all recorded data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` when observability is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (the recorder's contents are untouched).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

struct Recorder {
    clock: Box<dyn clock::Clock>,
    events: Vec<Event>,
    dropped: u64,
    metrics: Registry,
    next_span_id: u64,
}

impl Recorder {
    fn new(kind: ClockKind) -> Self {
        let clock: Box<dyn clock::Clock> = match kind {
            ClockKind::Wall => Box::new(WallClock::new()),
            ClockKind::Deterministic => Box::new(DeterministicClock::new()),
        };
        Recorder {
            clock,
            events: Vec::new(),
            dropped: 0,
            metrics: Registry::default(),
            next_span_id: 0,
        }
    }
}

static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();

fn recorder() -> MutexGuard<'static, Recorder> {
    RECORDER
        .get_or_init(|| Mutex::new(Recorder::new(ClockKind::Wall)))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Clears all recorded events and metrics and installs a fresh clock of
/// the given kind. Call between independent runs (the CLI does this at
/// startup via [`init_from_env`]).
pub fn reset(kind: ClockKind) {
    let mut r = recorder();
    *r = Recorder::new(kind);
}

/// Configures observability from the environment:
///
/// * `CND_OBS=1` / `true` — enable with the wall clock;
/// * `CND_OBS=det` / `deterministic` — enable with the deterministic
///   clock (byte-reproducible traces);
/// * anything else / unset — disabled.
///
/// Returns `true` when recording was enabled. The recorder is reset
/// whenever recording is enabled.
pub fn init_from_env() -> bool {
    match std::env::var("CND_OBS").ok().as_deref() {
        Some("1") | Some("true") => {
            reset(ClockKind::Wall);
            set_enabled(true);
            true
        }
        Some("det") | Some("deterministic") => {
            reset(ClockKind::Deterministic);
            set_enabled(true);
            true
        }
        _ => {
            set_enabled(false);
            false
        }
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A field value attached to a span at open time.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point (non-finite serializes as `null`).
    Float(f64),
    /// String.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle for an open span; dropping it records the end event.
/// `!Send`: must be dropped on the thread that opened it.
#[must_use = "dropping the guard immediately ends the span"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when observability was disabled or the event cap was hit.
    id: Option<u64>,
    begin: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// A no-op guard (observability disabled). Prefer the [`span!`]
    /// macro, which produces this automatically without evaluating
    /// field expressions.
    pub fn disabled() -> Self {
        SpanGuard {
            id: None,
            begin: 0,
            _not_send: PhantomData,
        }
    }

    /// Opens a span now. Prefer the [`span!`] macro.
    pub fn begin(name: &'static str, fields: Vec<(&'static str, Value)>) -> Self {
        if !enabled() {
            return Self::disabled();
        }
        let mut r = recorder();
        if r.events.len() >= EVENT_CAP {
            r.dropped += 1;
            return Self::disabled();
        }
        let t = r.clock.now();
        r.next_span_id += 1;
        let id = r.next_span_id;
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        r.events.push(Event::SpanBegin {
            t,
            id,
            parent,
            name,
            fields,
        });
        drop(r);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            id: Some(id),
            begin: t,
            _not_send: PhantomData,
        }
    }

    /// Span id (0 for a disabled guard) — mainly for tests.
    pub fn id(&self) -> u64 {
        self.id.unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&id) {
                stack.pop();
            } else {
                // Out-of-order drop (e.g. mem::swap games): remove the
                // id wherever it is so the stack does not corrupt.
                stack.retain(|&x| x != id);
            }
        });
        let mut r = recorder();
        let t = r.clock.now();
        let dur = t.saturating_sub(self.begin);
        r.events.push(Event::SpanEnd { t, id, dur });
    }
}

/// Opens a timed span: `span!("cfe.train", experience = i)`.
///
/// Returns a [`SpanGuard`]; bind it (`let _span = span!(...)`) so the
/// span covers the scope. When observability is disabled the field
/// expressions are **not evaluated** — the only cost is one relaxed
/// atomic load.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin(
                $name,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

// ---------------------------------------------------------------------
// Metrics (global helpers)
// ---------------------------------------------------------------------

/// Adds `v` to the counter `name`. No-op while disabled.
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        recorder().metrics.counter_add(name, v, false);
    }
}

/// Adds `v` to a **volatile** counter (scheduling-dependent; excluded
/// from deterministic traces). No-op while disabled.
#[inline]
pub fn counter_add_volatile(name: &str, v: u64) {
    if enabled() {
        recorder().metrics.counter_add(name, v, true);
    }
}

/// Sets the gauge `name` to `v`. No-op while disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        recorder().metrics.gauge_set(name, v, false);
    }
}

/// Sets a **volatile** gauge. No-op while disabled.
#[inline]
pub fn gauge_set_volatile(name: &str, v: f64) {
    if enabled() {
        recorder().metrics.gauge_set(name, v, true);
    }
}

/// Records `v` (integer microseconds) into the HDR histogram `name`.
/// No-op while disabled.
#[inline]
pub fn hdr_record(name: &str, v: u64) {
    if enabled() {
        recorder().metrics.hdr_record(name, v, false);
    }
}

/// Records into a **volatile** HDR histogram. No-op while disabled.
#[inline]
pub fn hdr_record_volatile(name: &str, v: u64) {
    if enabled() {
        recorder().metrics.hdr_record(name, v, true);
    }
}

/// Merges an [`HdrHistogram`] delta into the HDR metric `name`, so a
/// caller that aggregates locally (the serving telemetry hub, once per
/// second) takes the recorder lock once per delta instead of once per
/// sample. No-op while disabled.
#[inline]
pub fn hdr_merge(name: &str, delta: &HdrHistogram) {
    if enabled() && !delta.is_empty() {
        recorder().metrics.hdr_merge(name, delta, false);
    }
}

/// Merges into a **volatile** HDR metric. No-op while disabled.
#[inline]
pub fn hdr_merge_volatile(name: &str, delta: &HdrHistogram) {
    if enabled() && !delta.is_empty() {
        recorder().metrics.hdr_merge(name, delta, true);
    }
}

/// Appends a per-experience [`QualityRecord`] to the trace stream as a
/// typed `quality` event. No-op while disabled; counts against the
/// same event cap as spans. Quality floats come from seeded model
/// math, so the event is safe in deterministic traces.
pub fn quality_record(record: QualityRecord) {
    if !enabled() {
        return;
    }
    let mut r = recorder();
    if r.events.len() >= EVENT_CAP {
        r.dropped += 1;
        return;
    }
    let t = r.clock.now();
    r.events.push(Event::Quality { t, record });
}

/// Appends a continual-learning control-plane event to the trace stream
/// as a typed `cevent` line carrying the cycle id — the single source of
/// truth `observe --timeline` reconstructs causal chains from. No-op
/// while disabled; counts against the same event cap as spans.
pub fn continual_event(cycle: u64, kind: &str, detail: &str) {
    if !enabled() {
        return;
    }
    let mut r = recorder();
    if r.events.len() >= EVENT_CAP {
        r.dropped += 1;
        return;
    }
    let t = r.clock.now();
    r.events.push(Event::Continual {
        t,
        cycle,
        kind: kind.to_string(),
        detail: detail.to_string(),
    });
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Serializes the recorder's current contents as a JSONL trace. Under
/// the deterministic clock, volatile metrics are excluded so the bytes
/// are reproducible; under the wall clock everything is included.
/// Call after all spans have closed (open spans would fail validation).
pub fn snapshot_jsonl() -> String {
    let r = recorder();
    let kind = r.clock.kind();
    trace::to_jsonl(
        kind,
        &r.events,
        r.dropped,
        &r.metrics,
        kind == ClockKind::Wall,
    )
}

/// Writes the current trace to `path` (see [`snapshot_jsonl`]).
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot_jsonl())
}

/// If `CND_OBS_OUT` is set and recording is enabled, writes the trace
/// there and returns the path. Intended for `main` exit paths and the
/// CI smoke job.
pub fn flush_to_env_path() -> std::io::Result<Option<std::path::PathBuf>> {
    if !enabled() {
        return Ok(None);
    }
    match std::env::var_os("CND_OBS_OUT") {
        Some(p) => {
            let path = std::path::PathBuf::from(p);
            write_jsonl(&path)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

/// Renders the human-readable end-of-run summary: the phase-time table
/// plus every metric (volatile included) sorted by name.
pub fn summary() -> String {
    use std::fmt::Write as _;
    let r = recorder();
    let kind = r.clock.kind();
    let jsonl = trace::to_jsonl(kind, &r.events, r.dropped, &r.metrics, false);
    let mut out = match phase_report(&jsonl) {
        Ok(rep) if !rep.rows.is_empty() => rep.render(),
        _ => String::from("phase breakdown: no closed spans recorded\n"),
    };
    if !r.metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        for (name, m) in r.metrics.iter() {
            match &m.value {
                metrics::MetricValue::Counter(c) => {
                    let _ = writeln!(out, "  {name:<40} counter {c}");
                }
                metrics::MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "  {name:<40} gauge   {g:?}");
                }
                metrics::MetricValue::Hdr(h) => {
                    let (p50, p90, p99, p999) = h.standard_quantiles();
                    let _ = writeln!(
                        out,
                        "  {name:<40} hdr     n={} p50={} p90={} p99={} p999={} max={}",
                        h.count,
                        p50,
                        p90,
                        p99,
                        p999,
                        h.max.unwrap_or(0)
                    );
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Test session guard
// ---------------------------------------------------------------------

static SESSION_GATE: Mutex<()> = Mutex::new(());

/// Serializes access to the global recorder for tests: holds a process
/// lock, enables recording with the requested clock, and on drop
/// disables recording and clears the recorder. Tests in the same
/// process queue behind each other instead of mixing traces.
#[derive(Debug)]
pub struct Session {
    _gate: MutexGuard<'static, ()>,
}

impl Session {
    fn start(kind: ClockKind) -> Self {
        let gate = SESSION_GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset(kind);
        set_enabled(true);
        Session { _gate: gate }
    }

    /// An exclusive recording session on the wall clock.
    pub fn wall() -> Self {
        Self::start(ClockKind::Wall)
    }

    /// An exclusive recording session on the deterministic clock.
    pub fn deterministic() -> Self {
        Self::start(ClockKind::Deterministic)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        set_enabled(false);
        reset(ClockKind::Wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_macro_does_not_evaluate_fields() {
        let _session = Session::deterministic();
        set_enabled(false);
        let mut evaluated = false;
        {
            let _g = span!(
                "test.skip",
                flag = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(!evaluated, "field expression ran while disabled");
        set_enabled(true);
        {
            let _g = span!(
                "test.run",
                flag = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(evaluated);
    }

    #[test]
    fn nested_spans_record_parentage_and_validate() {
        let _session = Session::deterministic();
        {
            let root = span!("test.root", n = 2u64);
            let root_id = root.id();
            {
                let child = span!("test.child");
                assert_ne!(child.id(), root_id);
            }
            counter_add("test.events.count", 5);
        }
        let text = snapshot_jsonl();
        trace::validate_jsonl(&text).expect("trace validates");
        assert!(text.contains("\"name\":\"test.root\""));
        assert!(text.contains("\"name\":\"test.child\""));
        assert!(text.contains("\"parent\":1"));
        assert!(text.contains("test.events.count"));
        let report = phase_report(&text).expect("report");
        assert_eq!(report.row("test.root").unwrap().count, 1);
    }

    #[test]
    fn deterministic_sessions_are_byte_identical() {
        let run = || {
            let _session = Session::deterministic();
            {
                let _root = span!("test.repeat", k = 7u64);
                gauge_set("test.value", 1.5);
            }
            snapshot_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn volatile_metrics_skip_deterministic_traces_only() {
        {
            let _session = Session::deterministic();
            counter_add_volatile("test.volatile.count", 1);
            counter_add("test.stable.count", 1);
            let text = snapshot_jsonl();
            assert!(!text.contains("test.volatile.count"));
            assert!(text.contains("test.stable.count"));
            assert!(summary().contains("test.volatile.count"));
        }
        {
            let _session = Session::wall();
            counter_add_volatile("test.volatile.count", 1);
            let text = snapshot_jsonl();
            assert!(text.contains("test.volatile.count"));
        }
    }

    #[test]
    fn quality_records_enter_the_trace_stream() {
        let _session = Session::deterministic();
        let mut scores = HdrHistogram::new();
        scores.record(hdr::fixed_point(1.0).unwrap());
        let record = QualityRecord {
            experience: 0,
            f1_row: vec![1.0],
            pr_auc: None,
            threshold: None,
            avg: 1.0,
            fwd_trans: 0.0,
            bwd_trans: 0.0,
            scores,
        };
        set_enabled(false);
        quality_record(record.clone());
        set_enabled(true);
        assert!(!snapshot_jsonl().contains("\"ev\":\"quality\""));
        quality_record(record);
        let text = snapshot_jsonl();
        assert!(text.contains("\"ev\":\"quality\""));
        trace::validate_jsonl(&text).expect("trace validates");
    }

    #[test]
    fn metric_helpers_are_noops_while_disabled() {
        let _session = Session::deterministic();
        set_enabled(false);
        counter_add("test.off.count", 1);
        gauge_set("test.off.value", 1.0);
        hdr_record("test.off.us", 1);
        set_enabled(true);
        let text = snapshot_jsonl();
        assert!(!text.contains("test.off"));
    }
}
