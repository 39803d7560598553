//! The scoring server: each connection's reader scores inline.
//!
//! # Thread architecture
//!
//! ```text
//! acceptor ──spawns──▶ one reader thread per connection, looping over rounds:
//!                        1. decode every complete frame already buffered
//!                           (≤ max_batch), admitting score rows
//!                        2. score the rows as one Matrix against one
//!                           `registry.current()` load
//!                        3. send every reply of the round with one write
//! ```
//!
//! * **Batching without a timer.** A batch is whatever one connection
//!   has pipelined by the time its reader looks: a client with 64
//!   frames in flight gets batches of up to 64 rows, a closed-loop
//!   client gets 1-row batches and never waits out a deadline. A row's
//!   f64 score does not depend on the rows it shares a batch with, so
//!   batch composition never shows in a reply.
//! * **Admission control.** One atomic counts admitted-but-unreplied
//!   score rows across all connections; past `queue_cap` a score frame
//!   is answered with an explicit `Overloaded` reply and counted as
//!   shed.
//! * **Hot swap.** A round takes one `Arc<VersionedModel>`; `reload`
//!   swaps the registry pointer, so a batch never mixes two models'
//!   weights and every reply names the version that scored it.
//! * **Shutdown drains.** A reader answers every frame of its round
//!   before it looks at the stop flag again, so joining the readers is
//!   the whole drain: an admitted request always gets its reply.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cnd_linalg::Matrix;

use cnd_obs::slo::SloConfig;

use crate::continual::{MirrorSample, TrafficMirror};
use crate::protocol::{
    frame_len, read_request, write_reply, FrameError, Reply, Request, ServerInfo, Verdict,
};
use crate::registry::{ModelRegistry, VersionedModel};
use crate::telemetry::{RoundRecord, TelemetryHub, TelemetrySnapshot};
use crate::ServeError;

/// Idle poll interval for reader socket reads.
const POLL: Duration = Duration::from_millis(25);
/// How long shutdown waits to connect to its own listener, the
/// connection that wakes the acceptor out of its blocking `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Once a frame has started arriving, allow this long for the rest.
const FRAME_TIMEOUT: Duration = Duration::from_secs(2);
/// Bytes a reader buffers from its socket; the complete frames in this
/// buffer form the connection's next batch.
const READ_BUF: usize = 64 * 1024;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum frames one connection decodes into one batch.
    pub max_batch: usize,
    /// Bound on score rows admitted but not yet replied to, across all
    /// connections; score requests past it are shed.
    pub queue_cap: usize,
    /// Explicit alert threshold τ. When `None` the server calibrates a
    /// per-model-version τ from the first [`calibrate`](Self::calibrate)
    /// served scores via
    /// [`quantile_threshold`](cnd_metrics::threshold::quantile_threshold).
    pub threshold: Option<f64>,
    /// Calibration quantile (used when `threshold` is `None`).
    pub quantile: f64,
    /// Calibration window length in scores.
    pub calibrate: usize,
    /// When set, a watcher thread polls the model artifact's mtime at
    /// this interval and hot-swaps on change.
    pub watch: Option<Duration>,
    /// When set, every scored flow (features, score, model version) is
    /// pushed into this bounded mirror for the closed continual-serving
    /// loop ([`crate::continual`]) to drain.
    pub mirror: Option<TrafficMirror>,
    /// Request-lifecycle telemetry ([`crate::telemetry`]): per-stage
    /// latency histograms, shed attribution, and SLO burn-rate
    /// tracking. On the hot path this costs one hub lock per round;
    /// disable only to measure that overhead.
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            queue_cap: 1024,
            threshold: None,
            quantile: 0.95,
            calibrate: 512,
            watch: None,
            mirror: None,
            telemetry: true,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                name: "max_batch",
                constraint: "must be >= 1",
            });
        }
        if self.queue_cap == 0 {
            return Err(ServeError::InvalidConfig {
                name: "queue_cap",
                constraint: "must be >= 1",
            });
        }
        if !(0.0..=1.0).contains(&self.quantile) {
            return Err(ServeError::InvalidConfig {
                name: "quantile",
                constraint: "must be in [0, 1]",
            });
        }
        if self.calibrate == 0 && self.threshold.is_none() {
            return Err(ServeError::InvalidConfig {
                name: "calibrate",
                constraint: "must be >= 1 when no explicit threshold is set",
            });
        }
        if let Some(t) = self.threshold {
            if !t.is_finite() {
                return Err(ServeError::InvalidConfig {
                    name: "threshold",
                    constraint: "must be finite",
                });
            }
        }
        Ok(())
    }
}

/// Counter snapshot returned by [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Score requests admitted for scoring.
    pub accepted: u64,
    /// Requests shed with an `Overloaded` reply.
    pub shed: u64,
    /// Flows scored.
    pub scored: u64,
    /// Batches executed.
    pub batches: u64,
    /// Malformed frames rejected.
    pub bad_frames: u64,
    /// Replies that could not be written (client gone).
    pub reply_failures: u64,
    /// Successful hot swaps.
    pub reloads: u64,
    /// Failed hot swaps (previous model kept serving).
    pub reload_failures: u64,
    /// Currently serving model version.
    pub model_version: u32,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    scored: AtomicU64,
    batches: AtomicU64,
    bad_frames: AtomicU64,
    reply_failures: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    /// Set by shutdown: the acceptor, readers, and watcher exit. A
    /// reader finishes its round first, so nothing admitted is dropped.
    stop: AtomicBool,
    /// Score rows admitted but not yet replied to, across connections.
    in_flight: AtomicUsize,
    /// Feature width of every model version (reloads refuse a change).
    n_features: usize,
    counters: Counters,
    registry: ModelRegistry,
    cfg: ServeConfig,
    /// Lifecycle telemetry hub; `None` when `cfg.telemetry` is off.
    hub: Option<TelemetryHub>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running scoring server; dropping it shuts down and joins every
/// thread (each reader answers what it admitted first — accepted
/// requests always get a reply).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Loads the model at `model_path`, binds `addr` (use port 0 for an
    /// ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Fails on an invalid config, an unreadable/corrupt model, or a
    /// bind failure.
    pub fn start(
        model_path: impl Into<PathBuf>,
        addr: &str,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        cfg.validate()?;
        let registry = ModelRegistry::open(model_path)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        // Pre-register the admission counters so a Prometheus scrape
        // sees them at zero before any traffic arrives.
        cnd_obs::counter_add_volatile("serve.accept.count", 0);
        cnd_obs::counter_add_volatile("serve.shed.count", 0);
        cnd_obs::counter_add_volatile("serve.scored.count", 0);
        cnd_obs::counter_add_volatile("serve.bad_frame.count", 0);
        cnd_obs::counter_add_volatile("serve.reply_fail.count", 0);

        let hub = cfg
            .telemetry
            .then(|| TelemetryHub::new(SloConfig::default()));
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            n_features: registry.current().scorer.n_features(),
            counters: Counters::default(),
            registry,
            cfg,
            hub,
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            Some(
                std::thread::Builder::new()
                    .name("cnd-serve-accept".into())
                    .spawn(move || accept_loop(listener, shared, conn_threads))?,
            )
        };
        let watcher = match shared.cfg.watch {
            Some(interval) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("cnd-serve-watch".into())
                        .spawn(move || watch_loop(&shared, interval))?,
                )
            }
            None => None,
        };
        Ok(Server {
            addr,
            shared,
            acceptor,
            watcher,
            conn_threads,
        })
    }

    /// The bound address (port 0 resolved to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently serving model version.
    pub fn model_version(&self) -> u32 {
        self.shared.registry.version()
    }

    /// Hot-swaps to a freshly loaded copy of the model artifact.
    ///
    /// # Errors
    ///
    /// See [`ModelRegistry::reload`]; on error the previous model keeps
    /// serving.
    pub fn reload(&self) -> Result<u32, ServeError> {
        self.shared.registry.reload()
    }

    /// Path of the model artifact the registry loads from; the
    /// continual-serving controller writes validated candidates here
    /// before asking for a [`reload`](Self::reload).
    pub fn model_path(&self) -> &Path {
        self.shared.registry.path()
    }

    /// The currently serving versioned model.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        self.shared.registry.current()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        let (reloads, reload_failures) = self.shared.registry.reload_counts();
        ServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            scored: c.scored.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            bad_frames: c.bad_frames.load(Ordering::Relaxed),
            reply_failures: c.reply_failures.load(Ordering::Relaxed),
            reloads,
            reload_failures,
            model_version: self.shared.registry.version(),
        }
    }

    /// Lifecycle telemetry recorded so far: per-stage latency histograms,
    /// in-flight/shed attribution, and SLO burn rates. `None` when the
    /// server was started with [`ServeConfig::telemetry`] off.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.shared.hub.as_ref().map(|h| h.snapshot())
    }

    /// Stops accepting, lets every reader answer what it admitted,
    /// joins all threads, and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        // A reader answers its whole round before it sees the flag, so
        // once the readers are joined every admitted request has had
        // its reply. The acceptor goes first: after it is joined no new
        // reader can appear in `conn_threads`.
        // SeqCst pairs with `stopping`: the acceptor reads the flag right
        // after the wake connection below lands and must see it set.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            // The acceptor blocks in `accept`: one connection to our own
            // address wakes it to see the flag. Should that connect
            // fail, the acceptor is left detached rather than joined; it
            // exits at the next connection it accepts, without serving it.
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.watcher.take() {
            let _ = h.join();
        }
        let conns: Vec<_> = {
            let mut g = self.conn_threads.lock().unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for h in conns {
            let _ = h.join();
        }
        // Every reader recorded its last round before it exited: one
        // final publish puts all of it in the registry.
        if let Some(hub) = &self.shared.hub {
            hub.publish();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            // The connection that wakes a shutdown, or one that raced
            // it: either way, no new reader.
            Ok(_) if shared.stopping() => break,
            Ok((conn, _)) => {
                let shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("cnd-serve-conn".into())
                    .spawn(move || serve_connection(conn, &shared));
                let mut handles = conn_threads.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished connection threads so a long-lived
                // server does not accumulate handles.
                let (done, live): (Vec<_>, Vec<_>) =
                    handles.drain(..).partition(|h| h.is_finished());
                *handles = live;
                drop(handles);
                for h in done {
                    let _ = h.join();
                }
                if let Ok(h) = spawned {
                    conn_threads
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(h);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => break,
        }
    }
}

/// The address shutdown connects to: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// A decoded frame's place in its round's reply order.
enum Slot {
    /// An admitted score row, answered once its batch is scored.
    Row {
        id: u64,
        features: Vec<f64>,
        decoded: Instant,
        parse_us: u64,
    },
    /// A reply known at decode time (errors, sheds, control frames).
    Ready(Reply),
}

fn serve_connection(conn: TcpStream, shared: &Shared) {
    let _ = conn.set_nodelay(true);
    if conn.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut reader = BufReader::with_capacity(READ_BUF, &conn);
    let mut slots = Vec::new();
    let mut round = RoundRecord::default();
    let mut out = Vec::new();
    while !shared.stopping() {
        match reader.fill_buf() {
            Ok([]) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        let open = decode_round(&mut reader, shared, &mut round, &mut slots);
        let sent = answer_round(&conn, &mut slots, shared, &mut round, &mut out);
        if !(open && sent) {
            break;
        }
    }
}

/// Decodes one round into `slots`: every complete frame already
/// buffered, up to `max_batch`. The reader blocks on its socket (under
/// [`FRAME_TIMEOUT`]) only when the buffer holds nothing but the start
/// of a frame. Returns `false` when the connection must close once this
/// round is answered.
fn decode_round(
    reader: &mut BufReader<&TcpStream>,
    shared: &Shared,
    round: &mut RoundRecord,
    slots: &mut Vec<Slot>,
) -> bool {
    while slots.len() < shared.cfg.max_batch {
        let started = Instant::now();
        let outcome = if frame_len(reader.buffer()).is_some() {
            read_request(reader)
        } else if slots.is_empty() {
            let _ = reader.get_ref().set_read_timeout(Some(FRAME_TIMEOUT));
            let outcome = read_request(reader);
            let _ = reader.get_ref().set_read_timeout(Some(POLL));
            outcome
        } else {
            break;
        };
        let decoded = Instant::now();
        let slot = match outcome {
            Ok(Request::Score { id, features }) => {
                let parse_us = micros(decoded - started);
                admit(id, features, decoded, parse_us, shared, round)
            }
            Ok(Request::Reload { id }) => Slot::Ready(match shared.registry.reload() {
                Ok(model_version) => Reply::ReloadOk { id, model_version },
                Err(e) => Reply::ReloadFailed {
                    id,
                    reason: e.to_string(),
                },
            }),
            Ok(Request::Info { id }) => Slot::Ready(Reply::Info {
                id,
                info: info_snapshot(shared),
            }),
            Err(FrameError::Closed) => return false,
            Err(FrameError::Malformed { id, reason }) => {
                bump_bad_frame(shared, round);
                Slot::Ready(Reply::BadRequest {
                    id,
                    reason: reason.to_string(),
                })
            }
            Err(FrameError::Fatal { id, reason }) => {
                // Framing is lost: a best-effort typed reply, then close.
                bump_bad_frame(shared, round);
                slots.push(Slot::Ready(Reply::BadRequest {
                    id,
                    reason: reason.to_string(),
                }));
                return false;
            }
        };
        slots.push(slot);
    }
    true
}

fn bump_bad_frame(shared: &Shared, round: &mut RoundRecord) {
    shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
    round.bad_frames += 1;
}

fn info_snapshot(shared: &Shared) -> ServerInfo {
    let c = &shared.counters;
    let (reloads, _) = shared.registry.reload_counts();
    ServerInfo {
        model_version: shared.registry.version(),
        n_features: shared.n_features as u32,
        accepted: c.accepted.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
        scored: c.scored.load(Ordering::Relaxed),
        reloads,
        bad_frames: c.bad_frames.load(Ordering::Relaxed),
    }
}

/// Admission control for one decoded score frame: a dimension check,
/// then one slot of the server-wide in-flight bound. A shed is recorded
/// with the in-flight depth that justified it.
fn admit(
    id: u64,
    features: Vec<f64>,
    decoded: Instant,
    parse_us: u64,
    shared: &Shared,
    round: &mut RoundRecord,
) -> Slot {
    let expected = shared.n_features;
    if features.len() != expected {
        bump_bad_frame(shared, round);
        return Slot::Ready(Reply::BadRequest {
            id,
            reason: format!(
                "feature dimension mismatch: model expects {expected}, frame has {}",
                features.len()
            ),
        });
    }
    let depth = shared.in_flight.fetch_add(1, Ordering::Relaxed);
    if depth >= shared.cfg.queue_cap {
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        round.shed_depths.push(depth as u64);
        return Slot::Ready(Reply::Overloaded { id });
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    Slot::Row {
        id,
        features,
        decoded,
        parse_us,
    }
}

/// Adds one round's admission outcomes to the `cnd-obs` counters: one
/// registry call per non-zero count per round, never one per request.
fn count_admissions(round: &RoundRecord) {
    for (name, n) in [
        ("serve.accept.count", round.rows.len() as u64),
        ("serve.shed.count", round.shed_depths.len() as u64),
        ("serve.bad_frame.count", round.bad_frames),
    ] {
        if n > 0 {
            cnd_obs::counter_add_volatile(name, n);
        }
    }
}

/// Scores the round's admitted rows as one batch, then sends every
/// reply of the round, in request order, with one `write_all`. Returns
/// `false` when the client is gone.
///
/// The round is recorded into the telemetry hub once its replies are
/// written, off the reply's latency path. `batch_form`, `score` and
/// `write` count once per row, un-amortized — each request waits out
/// all of them, which is what makes stage medians sum to the
/// end-to-end median.
fn answer_round(
    conn: &TcpStream,
    slots: &mut Vec<Slot>,
    shared: &Shared,
    round: &mut RoundRecord,
    out: &mut Vec<u8>,
) -> bool {
    let batch_started = Instant::now();
    let model = shared.registry.current();
    let mut data = Vec::new();
    let mut decoded = Vec::new();
    for slot in slots.iter() {
        if let Slot::Row {
            features,
            decoded: at,
            parse_us,
            ..
        } = slot
        {
            data.extend_from_slice(features);
            decoded.push(*at);
            round.rows.push((*parse_us, micros(batch_started - *at)));
        }
    }
    let n = decoded.len();
    let (scores, tau) = if n == 0 {
        (Ok(Vec::new()), None)
    } else {
        round.queue_depth = Some(shared.in_flight.load(Ordering::Relaxed) as u64);
        let x = Matrix::from_vec(n, shared.n_features, data)
            .expect("admitted rows are dimension-checked");
        let formed = Instant::now();
        let result = model.scorer.anomaly_scores(&x);
        round.batch_form_us = micros(formed - batch_started);
        round.score_us = micros(formed.elapsed());
        let tau = match &result {
            Ok(scores) => {
                let c = &shared.counters;
                c.scored.fetch_add(n as u64, Ordering::Relaxed);
                c.batches.fetch_add(1, Ordering::Relaxed);
                cnd_obs::counter_add_volatile("serve.scored.count", n as u64);
                cnd_obs::hdr_record_volatile("serve.batch.size", n as u64);
                shared
                    .cfg
                    .threshold
                    .or_else(|| model.calibrate(scores, shared.cfg.calibrate, shared.cfg.quantile))
            }
            Err(_) => None,
        };
        (result, tau)
    };
    count_admissions(round);
    if let Some(hub) = &shared.hub {
        // A shed or rejected frame is recorded before its reply leaves,
        // so a client holding the reply finds it counted.
        if !round.shed_depths.is_empty() || round.bad_frames > 0 {
            hub.record(round);
        }
    }

    let write_started = Instant::now();
    let mut scores = scores.as_deref().map(|s| s.iter());
    for slot in slots.drain(..) {
        let reply = match (slot, &mut scores) {
            (Slot::Ready(reply), _) => reply,
            (Slot::Row { id, features, .. }, Ok(scores)) => {
                let score = *scores.next().expect("one score per admitted row");
                if let Some(mirror) = &shared.cfg.mirror {
                    mirror.push(MirrorSample {
                        features,
                        score,
                        model_version: model.version,
                    });
                }
                let verdict = match tau {
                    Some(t) if score > t => Verdict::Alert,
                    Some(_) => Verdict::Normal,
                    None => Verdict::Uncalibrated,
                };
                Reply::Score {
                    id,
                    model_version: model.version,
                    score,
                    verdict,
                }
            }
            // Unreachable with dimension-checked admission, but a
            // scoring failure must still answer every request.
            (Slot::Row { id, .. }, Err(e)) => Reply::BadRequest {
                id,
                reason: format!("scoring failed: {e}"),
            },
        };
        write_reply(out, &reply).expect("writing to a Vec cannot fail");
    }
    let sent = (&*conn).write_all(out).is_ok();
    out.clear();
    let written = Instant::now();
    if sent {
        round.write_us = micros(written - write_started);
        round
            .totals
            .extend(decoded.iter().map(|&at| micros(written - at)));
    } else if n > 0 {
        round.reply_failures = n as u64;
        shared
            .counters
            .reply_failures
            .fetch_add(n as u64, Ordering::Relaxed);
        cnd_obs::counter_add_volatile("serve.reply_fail.count", n as u64);
    }
    shared.in_flight.fetch_sub(n, Ordering::Relaxed);
    match &shared.hub {
        Some(hub) => hub.record(round),
        None => round.clear(),
    }
    sent
}

fn watch_loop(shared: &Shared, interval: Duration) {
    let mtime = |shared: &Shared| {
        std::fs::metadata(shared.registry.path())
            .and_then(|m| m.modified())
            .ok()
    };
    let mut last = mtime(shared);
    while !shared.stopping() {
        // Sleep in short slices so shutdown stays responsive.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.stopping() {
            let slice = (interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.stopping() {
            break;
        }
        let now = mtime(shared);
        if now.is_some() && now != last {
            last = now;
            match shared.registry.reload() {
                Ok(v) => {
                    cnd_obs::flight::record(
                        "watcher",
                        "artifact_changed",
                        None,
                        &format!("on-disk artifact change picked up as v{v}"),
                    );
                    eprintln!("cnd-serve: watch reload -> model v{v}");
                }
                Err(e) => {
                    cnd_obs::flight::record(
                        "watcher",
                        "artifact_rejected",
                        None,
                        &format!("on-disk artifact change rejected: {e}"),
                    );
                    eprintln!("cnd-serve: watch reload failed ({e}); keeping old model");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::test_support::{trained_scorer, TempArtifact};

    fn start(cfg: ServeConfig) -> (Server, TempArtifact) {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("server_unit", &scorer);
        let server = Server::start(artifact.path(), "127.0.0.1:0", cfg).expect("starts");
        (server, artifact)
    }

    #[test]
    fn rejects_invalid_configs() {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("server_cfg", &scorer);
        for cfg in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                quantile: 1.5,
                ..ServeConfig::default()
            },
            ServeConfig {
                threshold: Some(f64::NAN),
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                Server::start(artifact.path(), "127.0.0.1:0", cfg),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn batch_scores_are_row_independent_bit_for_bit() {
        // The hot-swap determinism guarantee relies on a score being a
        // pure function of (model, features) regardless of which other
        // rows share the batch: the blocked matmul fixes its k-order
        // per weight matrix, so this holds bit-for-bit.
        let scorer = trained_scorer(3);
        let d = scorer.n_features();
        let rows = 64;
        let x = Matrix::from_fn(rows, d, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.21 - 1.0);
        let batched = scorer.anomaly_scores(&x).expect("batch scores");
        for (i, b) in batched.iter().enumerate() {
            let row = x.slice_rows(i, i + 1).expect("row slice");
            let single = scorer.anomaly_scores(&row).expect("single score");
            assert_eq!(
                single[0].to_bits(),
                b.to_bits(),
                "row {i}: batch composition changed the score bits"
            );
        }
    }

    #[test]
    fn shutdown_wakes_the_blocking_acceptor() {
        assert_eq!(
            wake_addr("0.0.0.0:7178".parse().unwrap()),
            "127.0.0.1:7178".parse().unwrap()
        );
        assert_eq!(
            wake_addr("[::]:7178".parse().unwrap()),
            "[::1]:7178".parse().unwrap()
        );
        assert_eq!(
            wake_addr("10.1.2.3:7178".parse().unwrap()),
            "10.1.2.3:7178".parse().unwrap()
        );
        // Bound to every interface, served, then shut down: the wake
        // connection reaches the acceptor through loopback.
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("server_wake", &scorer);
        let server =
            Server::start(artifact.path(), "0.0.0.0:0", ServeConfig::default()).expect("starts");
        let mut c = ServeClient::connect(wake_addr(server.local_addr())).expect("connect");
        assert!(matches!(
            c.score(&[0.5; 6]).expect("scored"),
            Reply::Score { .. }
        ));
        drop(c);
        let t = Instant::now();
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.scored), (1, 1));
        assert!(
            t.elapsed() < WAKE_TIMEOUT,
            "shutdown waited {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let (server, _artifact) = start(ServeConfig::default());
        let addr = server.local_addr();
        let d = 6;
        let handles: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = ServeClient::connect(addr).expect("connect");
                    c.score(&vec![0.1 * (k + 1) as f64; d]).expect("scored")
                })
            })
            .collect();
        // Give the requests time to arrive, then shut down.
        std::thread::sleep(Duration::from_millis(100));
        let stats = server.shutdown();
        for h in handles {
            match h.join().expect("client thread") {
                Reply::Score { .. } => {}
                other => panic!("expected a score reply, got {other:?}"),
            }
        }
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.scored, 4, "every accepted request was scored");
        assert_eq!(stats.reply_failures, 0);
    }

    #[test]
    fn shutdown_under_live_traffic_never_drops_accepted_requests() {
        // Clients hammer the server while shutdown lands mid-stream.
        // A reader answers its whole round before it checks the stop
        // flag, so every admitted request is scored and replied to —
        // `scored == accepted` with zero reply failures.
        let (server, _artifact) = start(ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..3)
            .map(|k| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut c = ServeClient::connect(addr).expect("connect");
                    let row = vec![0.2 * (k + 1) as f64; 6];
                    let mut replies = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match c.score(&row) {
                            Ok(Reply::Score { .. }) => replies += 1,
                            Ok(other) => panic!("unexpected reply {other:?}"),
                            // Connection torn down by shutdown: the
                            // request was never admitted.
                            Err(_) => break,
                        }
                    }
                    replies
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        let stats = server.shutdown();
        stop.store(true, Ordering::Relaxed);
        let client_replies: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
        assert!(stats.accepted > 0, "traffic must have flowed");
        assert_eq!(
            stats.scored, stats.accepted,
            "every accepted request must be scored"
        );
        assert_eq!(stats.reply_failures, 0);
        assert!(client_replies >= stats.scored.saturating_sub(3));
    }

    #[test]
    fn watch_reload_swaps_on_mtime_change() {
        let scorer = trained_scorer(3);
        let artifact = TempArtifact::new("server_watch", &scorer);
        let server = Server::start(
            artifact.path(),
            "127.0.0.1:0",
            ServeConfig {
                watch: Some(Duration::from_millis(50)),
                ..ServeConfig::default()
            },
        )
        .expect("starts");
        assert_eq!(server.model_version(), 1);
        // Rewrite the artifact (atomic tmp+rename bumps mtime).
        std::thread::sleep(Duration::from_millis(20));
        trained_scorer(5).save_to_path(artifact.path()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.model_version() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            server.model_version() >= 2,
            "watcher never picked up the new artifact"
        );
        drop(server);
    }
}
