//! Crash flight recorder: a bounded in-memory ring of recent structured
//! control-plane events, dumped as schema-validated JSONL on panic or
//! watchdog rollback so postmortems have the last N events of state.
//!
//! The flight recorder wants the *most recent* history at the moment of
//! failure, so it overwrites the oldest record and counts how many were
//! overwritten. Recording is always on — a crash dump
//! must exist even when tracing is disabled — and cheap: one short mutex
//! hold per control-plane event (these are rare; the scoring hot path never
//! records here).
//!
//! Lifecycle:
//! 1. `install_panic_hook()` once at startup chains onto the existing hook.
//! 2. Control-plane code calls `record(source, kind, cycle, detail)`.
//! 3. On panic — or explicitly via `dump_on_fault(cause)` from resilience
//!    fault paths — the ring is serialized to the configured dump path
//!    (`set_dump_path` or the `CND_FLIGHT_DUMP` env var).
//!
//! Dump schema (meta first):
//!
//! ```text
//! {"ev":"meta","stream":"flight","version":1,"cause":"...","overwritten":0}
//! {"ev":"flight","t_us":...,"source":"continual","kind":"swapped","cycle":1,"detail":"..."}
//! ```

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::{escape_json, parse_json, ObsError};

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json(s, &mut out);
    out
}

/// Flight stream schema version.
pub const FLIGHT_VERSION: u64 = 1;

/// Default ring capacity (events retained at the moment of failure).
pub const DEFAULT_CAPACITY: usize = 1024;

/// One structured flight event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Wall-clock microseconds since the Unix epoch.
    pub t_us: u64,
    /// Subsystem that recorded the event (e.g. "continual", "registry",
    /// "resilience", "panic").
    pub source: String,
    /// Short machine-readable event kind (e.g. "swapped", "reload_fail").
    pub kind: String,
    /// Continual-learning cycle id, when the event belongs to one.
    pub cycle: Option<u64>,
    /// Free-form human-readable context.
    pub detail: String,
}

impl FlightEvent {
    fn to_json_line(&self) -> String {
        let cycle = match self.cycle {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"ev\":\"flight\",\"t_us\":{},\"source\":\"{}\",\"kind\":\"{}\",\"cycle\":{},\"detail\":\"{}\"}}",
            self.t_us,
            esc(&self.source),
            esc(&self.kind),
            cycle,
            esc(&self.detail)
        )
    }
}

struct FlightState {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    overwritten: u64,
    dump_path: Option<PathBuf>,
}

impl FlightState {
    fn new() -> Self {
        FlightState {
            ring: VecDeque::with_capacity(DEFAULT_CAPACITY),
            capacity: DEFAULT_CAPACITY,
            overwritten: 0,
            dump_path: std::env::var("CND_FLIGHT_DUMP").ok().map(PathBuf::from),
        }
    }

    fn push(&mut self, ev: FlightEvent) {
        while self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(ev);
    }

    fn dump(&self, cause: &str) -> String {
        let mut out = format!(
            "{{\"ev\":\"meta\",\"stream\":\"flight\",\"version\":{FLIGHT_VERSION},\"cause\":\"{}\",\"overwritten\":{}}}\n",
            esc(cause),
            self.overwritten
        );
        for ev in &self.ring {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

fn state() -> &'static Mutex<FlightState> {
    static STATE: std::sync::OnceLock<Mutex<FlightState>> = std::sync::OnceLock::new();
    STATE.get_or_init(|| Mutex::new(FlightState::new()))
}

fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Record one control-plane event into the flight ring.
pub fn record(source: &str, kind: &str, cycle: Option<u64>, detail: &str) {
    let ev = FlightEvent {
        t_us: wall_us(),
        source: source.to_string(),
        kind: kind.to_string(),
        cycle,
        detail: detail.to_string(),
    };
    if let Ok(mut s) = state().lock() {
        s.push(ev);
    }
}

/// Set (or clear) the path crash dumps are written to. Overrides
/// `CND_FLIGHT_DUMP`.
pub fn set_dump_path(path: Option<&Path>) {
    if let Ok(mut s) = state().lock() {
        s.dump_path = path.map(Path::to_path_buf);
    }
}

/// Resize the ring (drops oldest events if shrinking). Mainly for tests.
pub fn set_capacity(capacity: usize) {
    if let Ok(mut s) = state().lock() {
        s.capacity = capacity.max(1);
        while s.ring.len() > s.capacity {
            s.ring.pop_front();
            s.overwritten += 1;
        }
    }
}

/// Clear all recorded events and the overwrite counter (tests).
pub fn reset() {
    if let Ok(mut s) = state().lock() {
        s.ring.clear();
        s.overwritten = 0;
    }
}

/// Snapshot of the current ring contents, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    state()
        .lock()
        .map(|s| s.ring.iter().cloned().collect())
        .unwrap_or_default()
}

/// Serialize the ring to a JSONL dump with the given cause.
pub fn dump(cause: &str) -> String {
    state().lock().map(|s| s.dump(cause)).unwrap_or_default()
}

/// Write a dump to an explicit path.
pub fn dump_to_path(path: &Path, cause: &str) -> std::io::Result<()> {
    std::fs::write(path, dump(cause))
}

/// Dump to the configured path, if any. Called from resilience fault paths
/// (watchdog rollback) and the panic hook. Returns the path written, if one
/// was configured.
pub fn dump_on_fault(cause: &str) -> Option<PathBuf> {
    let (text, path) = {
        let s = state().lock().ok()?;
        (s.dump(cause), s.dump_path.clone()?)
    };
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

/// Install the flight-recorder panic hook (idempotent). Chains onto the
/// previously installed hook so default backtrace printing is preserved.
/// On any thread panic the ring is dumped to the configured path with the
/// panic message as the cause.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        let loc = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown".to_string());
        record("panic", "panic", None, &format!("{msg} at {loc}"));
        dump_on_fault(&format!("panic: {msg}"));
        prev(info);
    }));
}

/// Parse + schema-validate a flight dump. Returns (cause, event count).
pub fn validate_flight(text: &str) -> Result<(String, usize), ObsError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, meta_line) = lines
        .next()
        .ok_or_else(|| ObsError::new("empty flight dump"))?;
    let meta =
        parse_json(meta_line).map_err(|e| ObsError::new(format!("meta line: {}", e.message)))?;
    if meta.get("ev").and_then(|v| v.as_str()) != Some("meta") {
        return Err(ObsError::new("first line must be a meta event"));
    }
    if meta.get("stream").and_then(|v| v.as_str()) != Some("flight") {
        return Err(ObsError::new(
            "meta line is not a flight stream (missing \"stream\":\"flight\")",
        ));
    }
    match meta.get("version").and_then(|v| v.as_u64()) {
        Some(FLIGHT_VERSION) => {}
        Some(v) => return Err(ObsError::new(format!("unsupported flight version {v}"))),
        None => return Err(ObsError::new("meta line missing version")),
    }
    let cause = meta
        .get("cause")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ObsError::new("meta line missing \"cause\""))?
        .to_string();
    if meta.get("overwritten").and_then(|v| v.as_u64()).is_none() {
        return Err(ObsError::new("meta line missing \"overwritten\""));
    }
    let mut count = 0usize;
    let mut last_t = 0u64;
    for (idx, raw) in lines {
        let line = idx + 1;
        let obj = parse_json(raw).map_err(|e| ObsError::at(line, e.message))?;
        if obj.get("ev").and_then(|v| v.as_str()) != Some("flight") {
            return Err(ObsError::at(line, "expected \"ev\":\"flight\""));
        }
        let t = obj
            .get("t_us")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| ObsError::at(line, "missing \"t_us\""))?;
        if t < last_t {
            return Err(ObsError::at(
                line,
                format!("timestamps regress ({t} < {last_t})"),
            ));
        }
        last_t = t;
        for key in ["source", "kind", "detail"] {
            if obj.get(key).and_then(|v| v.as_str()).is_none() {
                return Err(ObsError::at(
                    line,
                    format!("missing or non-string \"{key}\""),
                ));
            }
        }
        match obj.get("cycle") {
            Some(c) if c.as_u64().is_none() && !matches!(c, crate::json::Json::Null) => {
                return Err(ObsError::at(line, "\"cycle\" must be an integer or null"));
            }
            Some(_) => {}
            None => return Err(ObsError::at(line, "missing \"cycle\"")),
        }
        count += 1;
    }
    Ok((cause, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Flight state is global; serialize these tests against each other.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let _g = guard();
        reset();
        set_capacity(4);
        for i in 0..10 {
            record("test", "tick", Some(i), &format!("event {i}"));
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].cycle, Some(6));
        assert_eq!(snap[3].cycle, Some(9));
        let text = dump("unit-test");
        let (cause, n) = validate_flight(&text).expect("dump validates");
        assert_eq!(cause, "unit-test");
        assert_eq!(n, 4);
        assert!(text.contains("\"overwritten\":6"), "got: {text}");
        set_capacity(DEFAULT_CAPACITY);
        reset();
    }

    #[test]
    fn dump_schema_rejects_garbage() {
        let _g = guard();
        assert!(validate_flight("").is_err());
        assert!(validate_flight("{\"ev\":\"meta\",\"stream\":\"trace\"}").is_err());
        let bad = format!(
            "{{\"ev\":\"meta\",\"stream\":\"flight\",\"version\":{FLIGHT_VERSION},\"cause\":\"x\",\"overwritten\":0}}\n{{\"ev\":\"flight\",\"t_us\":1}}"
        );
        let err = validate_flight(&bad).unwrap_err();
        assert_eq!(err.line, Some(2), "got: {err}");
        assert!(err.message.contains("missing"), "got: {err}");
    }

    #[test]
    fn dump_on_fault_writes_configured_path() {
        let _g = guard();
        reset();
        let dir = std::env::temp_dir().join(format!("cnd_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        set_dump_path(Some(&path));
        record(
            "resilience",
            "watchdog_rollback",
            None,
            "train failed: NaN loss",
        );
        let written = dump_on_fault("watchdog_rollback").expect("path configured");
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let (cause, n) = validate_flight(&text).expect("on-disk dump validates");
        assert_eq!(cause, "watchdog_rollback");
        assert_eq!(n, 1);
        set_dump_path(None);
        reset();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
