//! Live export: Prometheus text exposition and a JSON health snapshot
//! served from a background `TcpListener` thread.
//!
//! Scrape endpoints (std-only, no HTTP library):
//!
//! * `GET /metrics` — the metrics registry in Prometheus text
//!   exposition format 0.0.4 (counters, gauges, and HDR histograms
//!   rendered as summaries with quantile series).
//! * `GET /health`  — a one-object JSON snapshot of recorder state
//!   (enabled flag, clock kind, event/drop/metric counts).
//!
//! The exporter is gated behind `CND_OBS_LISTEN` (e.g.
//! `CND_OBS_LISTEN=127.0.0.1:9464`); bind to port 0 for an ephemeral
//! port and read it back with [`Exporter::local_addr`]. The serving
//! thread polls a non-blocking accept loop so shutdown (on drop) never
//! blocks on a dead socket.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::hdr::HdrHistogram;
use crate::metrics::MetricValue;

/// Maps a dotted metric name to a Prometheus-legal one: every char
/// outside `[A-Za-z0-9_:]` becomes `_`, and a leading digit gets a
/// `_` prefix.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus sample value: plain shortest-round-trip decimal, with
/// the spec's spellings for non-finite values.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// HDR latency metrics render as a Prometheus *summary*: pre-computed
/// quantile series (`{quantile="0.5"}` etc.) plus `_sum`/`_count`.
/// Quantiles come straight from the HDR buckets, so a scrape needs no
/// server-side histogram_quantile() and CI can grep exact series.
fn write_hdr(name: &str, h: &HdrHistogram, out: &mut String) {
    out.push_str(&format!("# TYPE {name} summary\n"));
    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
        let v = h.quantile(q).unwrap_or(0);
        out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
    }
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
    if let Some(max) = h.max {
        out.push_str(&format!("# TYPE {name}_max gauge\n{name}_max {max}\n"));
    }
}

/// Renders the current metrics registry (volatile metrics included —
/// a live scrape wants everything) as Prometheus text exposition.
pub fn prometheus_text() -> String {
    let r = crate::recorder();
    let mut out = String::new();
    out.push_str("# TYPE cnd_obs_events counter\n");
    out.push_str(&format!("cnd_obs_events {}\n", r.events.len()));
    out.push_str("# TYPE cnd_obs_dropped counter\n");
    out.push_str(&format!("cnd_obs_dropped {}\n", r.dropped));
    for (name, m) in r.metrics.iter() {
        let pname = sanitize_name(name);
        match &m.value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {c}\n"));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", prom_f64(*g)));
            }
            MetricValue::Hdr(h) => write_hdr(&pname, h, &mut out),
        }
    }
    out
}

/// Renders the recorder's health snapshot as a one-line JSON object.
///
/// When the serving telemetry hub is publishing SLO burn-rate alert gauges
/// (`serve.slo.alert.availability` / `serve.slo.alert.latency`), the
/// snapshot carries an `"slo"` object so one endpoint answers "is the
/// error budget burning?": `tracked` flips to `true` once the gauges
/// exist, and each alert flag mirrors its gauge (any non-zero value
/// means the multi-window burn-rate policy is firing). The overall
/// `status` degrades from `"ok"` to `"burning"` while either alert is
/// up.
pub fn health_json() -> String {
    let enabled = crate::enabled();
    let r = crate::recorder();
    let alert_gauge = |name: &str| -> Option<bool> {
        match r.metrics.get(name).map(|m| &m.value) {
            Some(MetricValue::Gauge(g)) => Some(*g != 0.0),
            _ => None,
        }
    };
    let availability = alert_gauge("serve.slo.alert.availability");
    let latency = alert_gauge("serve.slo.alert.latency");
    let tracked = availability.is_some() || latency.is_some();
    let burning = availability.unwrap_or(false) || latency.unwrap_or(false);
    let status = if burning { "burning" } else { "ok" };
    format!(
        "{{\"status\":\"{}\",\"enabled\":{},\"clock\":\"{}\",\"events\":{},\"dropped\":{},\"metrics\":{},\"slo\":{{\"tracked\":{},\"availability_alert\":{},\"latency_alert\":{}}}}}",
        status,
        enabled,
        r.clock.kind().name(),
        r.events.len(),
        r.dropped,
        r.metrics.len(),
        tracked,
        availability.unwrap_or(false),
        latency.unwrap_or(false)
    )
}

fn respond(conn: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = conn.write_all(head.as_bytes());
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.flush();
}

fn handle_connection(conn: &mut TcpStream) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 2048];
    let mut filled = 0usize;
    // Read until the end of the request head (we ignore any body).
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..filled]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        respond(conn, "405 Method Not Allowed", "text/plain", "GET only\n");
        return;
    }
    match path {
        "/metrics" => respond(
            conn,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &prometheus_text(),
        ),
        "/health" => respond(conn, "200 OK", "application/json", &health_json()),
        _ => respond(conn, "404 Not Found", "text/plain", "not found\n"),
    }
}

fn serve(listener: TcpListener, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                let _ = conn.set_nonblocking(false);
                handle_connection(&mut conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// A background metrics/health HTTP listener. Dropping it stops the
/// serving thread.
#[derive(Debug)]
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or `127.0.0.1:0` for an
    /// ephemeral port) and starts serving `/metrics` and `/health`.
    pub fn start(addr: &str) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cnd-obs-exporter".to_string())
            .spawn(move || serve(listener, thread_stop))?;
        Ok(Exporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Starts an exporter when `CND_OBS_LISTEN` is set. Returns `None`
/// (after a stderr warning on bind failure) otherwise. The CLI holds
/// the returned guard for the life of the process.
pub fn init_exporter_from_env() -> Option<Exporter> {
    let addr = std::env::var("CND_OBS_LISTEN").ok()?;
    match Exporter::start(&addr) {
        Ok(exporter) => {
            eprintln!(
                "cnd-obs: serving /metrics and /health on http://{}",
                exporter.local_addr()
            );
            Some(exporter)
        }
        Err(e) => {
            eprintln!("cnd-obs: CND_OBS_LISTEN={addr} bind failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(
            format!("GET {path} HTTP/1.1\r\nHost: cnd\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
        let mut body = String::new();
        conn.read_to_string(&mut body).expect("read");
        body
    }

    #[test]
    fn sanitizes_metric_names() {
        assert_eq!(
            sanitize_name("stream.retrain.count"),
            "stream_retrain_count"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }

    #[test]
    fn prometheus_text_covers_all_metric_kinds() {
        let _session = Session::deterministic();
        crate::counter_add("test.export.count", 3);
        crate::gauge_set("test.export.value", 1.5);
        crate::hdr_record("test.export.us", 0);
        crate::hdr_record("test.export.us", 3);
        let text = prometheus_text();
        assert!(text.contains("# TYPE test_export_count counter\ntest_export_count 3\n"));
        assert!(text.contains("# TYPE test_export_value gauge\ntest_export_value 1.5\n"));
        assert!(text.contains("# TYPE test_export_us summary\n"));
        assert!(text.contains("test_export_us{quantile=\"0.5\"} 0\n"));
        assert!(text.contains("test_export_us_sum 3\ntest_export_us_count 2\n"));
        assert!(
            !text.contains("_bucket{"),
            "no exponent-bucket series remain"
        );
    }

    #[test]
    fn hdr_metrics_render_as_summaries_with_quantiles() {
        let _session = Session::deterministic();
        for v in 1..=100u64 {
            // Values below 2^7 land in exact buckets, so the rendered
            // quantiles are the true order statistics.
            crate::hdr_record_volatile("serve.stage.score.us", v);
        }
        let text = prometheus_text();
        assert!(text.contains("# TYPE serve_stage_score_us summary\n"));
        assert!(text.contains("serve_stage_score_us{quantile=\"0.5\"} 50\n"));
        assert!(text.contains("serve_stage_score_us{quantile=\"0.99\"} 99\n"));
        assert!(text.contains("serve_stage_score_us{quantile=\"0.999\"} 100\n"));
        assert!(text.contains("serve_stage_score_us_count 100\n"));
        assert!(text.contains("serve_stage_score_us_max 100\n"));
    }

    #[test]
    fn exporter_serves_metrics_and_health_over_tcp() {
        let _session = Session::wall();
        crate::counter_add("test.live.count", 7);
        let exporter = Exporter::start("127.0.0.1:0").expect("bind ephemeral");
        let addr = exporter.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("test_live_count 7"));

        let health = http_get(addr, "/health");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        let body = health.split("\r\n\r\n").nth(1).expect("body");
        let obj = crate::json::parse_json(body.trim()).expect("health is JSON");
        assert_eq!(
            obj.get("status").and_then(crate::json::Json::as_str),
            Some("ok")
        );

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(exporter); // must join without hanging
    }

    #[test]
    fn health_reports_slo_burn_alert_state() {
        use crate::json::Json;
        let _session = Session::wall();
        // No SLO gauges yet: untracked, status ok.
        let obj = crate::json::parse_json(&health_json()).expect("health is JSON");
        assert_eq!(obj.get("status").and_then(Json::as_str), Some("ok"));
        let slo = obj.get("slo").expect("slo object");
        assert_eq!(slo.get("tracked").and_then(Json::as_bool), Some(false));

        // The hub publishes quiet alert gauges: tracked, still ok.
        crate::gauge_set_volatile("serve.slo.alert.availability", 0.0);
        crate::gauge_set_volatile("serve.slo.alert.latency", 0.0);
        let obj = crate::json::parse_json(&health_json()).expect("health is JSON");
        assert_eq!(obj.get("status").and_then(Json::as_str), Some("ok"));
        let slo = obj.get("slo").expect("slo object");
        assert_eq!(slo.get("tracked").and_then(Json::as_bool), Some(true));
        assert_eq!(
            slo.get("availability_alert").and_then(Json::as_bool),
            Some(false)
        );

        // Latency budget starts burning: status degrades.
        crate::gauge_set_volatile("serve.slo.alert.latency", 1.0);
        let obj = crate::json::parse_json(&health_json()).expect("health is JSON");
        assert_eq!(obj.get("status").and_then(Json::as_str), Some("burning"));
        let slo = obj.get("slo").expect("slo object");
        assert_eq!(slo.get("latency_alert").and_then(Json::as_bool), Some(true));
        assert_eq!(
            slo.get("availability_alert").and_then(Json::as_bool),
            Some(false)
        );
    }
}
