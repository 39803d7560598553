//! `serve_pipelined` and `serve_paced`: the scoring server `cnd serve`
//! runs (`Server::start` with `ServeConfig::default()`), driven over its
//! wire protocol on one connection from this process.
//!
//! * Pipelined: a closed loop that keeps [`IN_FLIGHT`] requests
//!   outstanding on one connection, from one client thread. Written
//!   requests are flushed whenever no complete reply is buffered, so
//!   the client never blocks holding unsent requests.
//! * Paced: an open loop of seeded Poisson arrivals at a mean
//!   [`PACED_RATE`] flows/s, with a sender and a receiver thread.
//!   Latency counts from each request's due time. Evenly spaced arrivals
//!   would phase-lock with the batcher's 500 µs deadline (exactly four
//!   periods at 8,000/s), and the median then jumped by ±10% between
//!   runs as jitter moved the fifth arrival across the deadline.
//!
//! In both, a control thread hot-swaps the model once a second with
//! `Server::reload`, and every reply must be a `Score` whose f64 bits
//! equal `DeployedScorer::anomaly_scores` of the requested row.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cnd_core::deploy::DeployedScorer;
use cnd_core::CndIds;
use cnd_linalg::Matrix;
use cnd_metrics::curve::pr_auc;
use cnd_obs::hdr::HdrHistogram;
use cnd_serve::protocol::{read_reply, write_request, Reply, Request};
use cnd_serve::{ServeConfig, Server, TelemetrySnapshot};

use crate::layers::deploy_layers;
use crate::stats::{
    hdr_delta, hdr_quantile, median, peak_rss_mib, quantile, reset_peak_rss, timed_setup,
};
use crate::trace::Tracer;
use crate::{train_fixture_model, Args, BenchError, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pipelined,
    Paced,
}

impl Mode {
    /// Replies per latency window, and the quantile over windows of each
    /// window's p50 and p90 that `lat_p50_us` and `lat_p90_us` report.
    ///
    /// Pipelined: the median over one-job windows (≈85 ms). The closed
    /// loop stops sending while the host stalls, so a stall delays at
    /// most [`IN_FLIGHT`] requests and moves few windows. The 5th
    /// percentile, tried here too, read 15–17% spreads over five seeds,
    /// where the median had read 4–6% over ten.
    ///
    /// Paced: the 5th percentile over 256-reply windows (≈32 ms). The
    /// hypervisor takes vCPUs away in bursts (1% to 21% steal time on the
    /// 2-vCPU machine measured, from one minute to the next), and in the
    /// open loop every request due meanwhile waits. At 7%, 11% and 21%
    /// steal the median window's p90 read 1.0, 1.7 and 5.5 ms, the 5th
    /// percentile 0.85, 0.87 and 0.94 ms. These are the windows the host
    /// left alone: a change that slows every request moves them; one that
    /// stalls the server now and then may not, and shows in
    /// `client.lat_p99_us`, over the whole run.
    fn lat_windows(self) -> (usize, f64) {
        match self {
            Mode::Pipelined => (JOB_REQUESTS as usize, 0.5),
            Mode::Paced => (256, 0.05),
        }
    }
}

/// Requests outstanding in the pipelined loop (`ServeConfig::default()`'s
/// `max_batch`, so batches can fill).
const IN_FLIGHT: usize = 64;
/// Mean open-loop send rate of the paced workload, flows/s.
const PACED_RATE: u64 = 8_000;
/// Request rows are drawn round-robin from at most this many pooled
/// test flows.
const POOL_ROWS: usize = 4_096;
/// Untimed warm-up requests; more than the server's 512-score
/// threshold-calibration window.
const WARMUP_REQUESTS: u64 = 2_048;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The set-up client connects this long after `Server::start` returns,
/// so the acceptor is always inside its 25 ms poll sleep and the first
/// reply waits for its next poll. Connecting at once races the
/// acceptor's first `accept`, which makes set-up bimodal (≈5 or ≈28 ms).
/// The pause ends before that poll, so it adds nothing to `setup_s`.
const CONNECT_AFTER: Duration = Duration::from_millis(2);
/// Interval of the hot-swap control thread.
const RELOAD_EVERY: Duration = Duration::from_secs(1);
/// Replies per job: `job_s` is the median time to complete this many.
const JOB_REQUESTS: u64 = 4_096;
/// In traced runs, one request in this many gets a span.
const SPAN_SAMPLE: u64 = 16;
/// A reply slower than this is a transport failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Bytes of an encoded `Score` reply.
const SCORE_REPLY_LEN: usize = 27;

/// Everything the serve workloads need before set-up: the trained model
/// on disk and the request pool with its expected scores.
struct Fixture {
    model: CndIds,
    model_path: PathBuf,
    pool: Vec<Vec<f64>>,
    labels: Vec<u8>,
    expected: Vec<u64>,
}

impl Fixture {
    fn build(seed: u64, dir: &Path) -> Result<Fixture, BenchError> {
        let (model, split) = train_fixture_model(seed)?;
        let model_path = dir.join("model.txt");
        model.freeze()?.save_to_path(&model_path)?;
        let pooled = Matrix::vstack_all(split.experiences.iter().map(|e| &e.test_x))?;
        let n = pooled.rows().min(POOL_ROWS);
        let pool_x = pooled.slice_rows(0, n)?;
        let labels: Vec<u8> = split
            .experiences
            .iter()
            .flat_map(|e| e.test_y.iter().copied())
            .take(n)
            .collect();
        // Expected scores come from the artifact the server loads.
        let expected = DeployedScorer::load_from_path(&model_path)?
            .anomaly_scores(&pool_x)?
            .iter()
            .map(|s| s.to_bits())
            .collect();
        Ok(Fixture {
            model,
            model_path,
            pool: pool_x.iter_rows().map(<[f64]>::to_vec).collect(),
            labels,
            expected,
        })
    }

    fn row(&self, id: u64) -> usize {
        (id % self.pool.len() as u64) as usize
    }

    fn request(&self, id: u64) -> Request {
        Request::Score {
            id,
            features: self.pool[self.row(id)].clone(),
        }
    }
}

fn reply_id(r: &Reply) -> u64 {
    match *r {
        Reply::Score { id, .. }
        | Reply::BadRequest { id, .. }
        | Reply::Overloaded { id }
        | Reply::ReloadOk { id, .. }
        | Reply::ReloadFailed { id, .. }
        | Reply::Info { id, .. } => id,
    }
}

/// Operation accounting for one run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    scored: u64,
    shed: u64,
    other_reply: u64,
    transport: u64,
    mismatched: u64,
    reloads: u64,
    reload_failed: u64,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.sent + self.reloads
    }

    fn failed(&self) -> u64 {
        self.shed + self.other_reply + self.transport + self.mismatched + self.reload_failed
    }
}

/// Measurements of one load phase. Memory stays constant however fast
/// the server answers, so `peak_rss_mib` does not grow with throughput.
struct Phase {
    trace: bool,
    /// Latencies of the current window, µs; the window's length; and
    /// the quantile over windows reported (see [`Mode::lat_windows`]).
    window: Vec<f64>,
    window_len: usize,
    over_windows: f64,
    /// Per complete window: its p50 and p90, µs.
    window_p50: Vec<f64>,
    window_p90: Vec<f64>,
    /// Replies in the current job of [`JOB_REQUESTS`], and its start.
    block_replies: u64,
    block_start: Instant,
    /// Seconds each complete job took.
    job_s: Vec<f64>,
    /// Every latency of the phase, ns.
    all_ns: HdrHistogram,
    /// Paced only: how late the generator sent each request, µs.
    late_us: Vec<f32>,
    /// Served score per pool row (first reply), for PR-AUC.
    served: Vec<Option<f64>>,
    /// Sampled request spans: (id, sent, replied).
    spans: Vec<(u64, Instant, Instant)>,
    /// `Server::reload` calls: (start, end).
    reloads: Vec<(Instant, Instant)>,
}

impl Phase {
    fn new(fx: &Fixture, trace: bool, mode: Mode) -> Phase {
        let (window_len, over_windows) = mode.lat_windows();
        Phase {
            trace,
            window: Vec::with_capacity(window_len),
            window_len,
            over_windows,
            window_p50: Vec::new(),
            window_p90: Vec::new(),
            block_replies: 0,
            block_start: Instant::now(),
            job_s: Vec::new(),
            all_ns: HdrHistogram::new(),
            late_us: Vec::new(),
            served: vec![None; fx.pool.len()],
            spans: Vec::new(),
            reloads: Vec::new(),
        }
    }

    /// Accounts one reply received at `now` for a request due or sent
    /// at `sent`.
    fn reply(
        &mut self,
        fx: &Fixture,
        tally: &mut Tally,
        reply: Reply,
        sent: Option<Instant>,
        now: Instant,
    ) {
        match reply {
            Reply::Score { id, score, .. } => {
                let Some(sent) = sent else {
                    tally.other_reply += 1;
                    return;
                };
                tally.scored += 1;
                let row = fx.row(id);
                if score.to_bits() != fx.expected[row] {
                    tally.mismatched += 1;
                }
                self.served[row].get_or_insert(score);
                let lat = now.saturating_duration_since(sent);
                self.all_ns.record(lat.as_nanos() as u64);
                self.window.push(lat.as_secs_f64() * 1e6);
                if self.trace && id % SPAN_SAMPLE == 0 {
                    self.spans.push((id, sent, now));
                }
                if self.window.len() == self.window_len {
                    self.window_p50.push(quantile(&mut self.window, 0.5));
                    self.window_p90.push(quantile(&mut self.window, 0.9));
                    self.window.clear();
                }
                self.block_replies += 1;
                if self.block_replies == JOB_REQUESTS {
                    self.job_s.push((now - self.block_start).as_secs_f64());
                    self.block_replies = 0;
                    self.block_start = now;
                }
            }
            Reply::Overloaded { .. } => tally.shed += 1,
            _ => tally.other_reply += 1,
        }
    }

    /// (`lat_p50_us`, `lat_p90_us`) of the phase, µs.
    fn lat_us(&self) -> (f64, f64) {
        (
            quantile(&mut self.window_p50.clone(), self.over_windows),
            quantile(&mut self.window_p90.clone(), self.over_windows),
        )
    }

    /// Quantile `q` of every latency in the phase, µs.
    fn lat_quantile(&self, q: f64) -> f64 {
        hdr_quantile(&self.all_ns, q) / 1e3
    }

    /// Served flows/s of the median job.
    fn flows_per_s(&self) -> f64 {
        JOB_REQUESTS as f64 / median(&mut self.job_s.clone()).max(1e-9)
    }

    fn pr_auc(&self, fx: &Fixture) -> f64 {
        let (scores, labels): (Vec<f64>, Vec<u8>) = self
            .served
            .iter()
            .zip(&fx.labels)
            .filter_map(|(s, &l)| s.map(|s| (s, l)))
            .unzip();
        pr_auc(&scores, &labels).unwrap_or(0.0)
    }
}

/// When a pipelined loop stops issuing new requests.
enum Stop {
    Count(u64),
    At(Instant),
}

/// Closed loop with [`IN_FLIGHT`] requests outstanding on `conn`.
fn pipelined(
    conn: &TcpStream,
    fx: &Fixture,
    ids: &mut u64,
    stop: Stop,
    ph: &mut Phase,
    tally: &mut Tally,
) {
    let mut reader = BufReader::with_capacity(1 << 16, conn);
    let mut writer = BufWriter::with_capacity(IN_FLIGHT * 512, conn);
    let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(4 * IN_FLIGHT);
    let mut unstamped: Vec<u64> = Vec::with_capacity(IN_FLIGHT);
    let first = *ids;
    let may_send = |next: u64, now: Instant| match stop {
        Stop::Count(n) => next - first < n,
        Stop::At(t) => now < t,
    };
    let t0 = Instant::now();
    ph.block_start = t0;
    let mut in_flight = 0usize;
    let flush = |writer: &mut BufWriter<&TcpStream>,
                 unstamped: &mut Vec<u64>,
                 sent_at: &mut HashMap<u64, Instant>|
     -> bool {
        let ok = writer.flush().is_ok();
        let now = Instant::now();
        for id in unstamped.drain(..) {
            sent_at.insert(id, now);
        }
        ok
    };
    while in_flight < IN_FLIGHT && may_send(*ids, t0) {
        if write_request(&mut writer, &fx.request(*ids)).is_err() {
            break;
        }
        unstamped.push(*ids);
        *ids += 1;
        in_flight += 1;
        tally.sent += 1;
    }
    let mut broken = !flush(&mut writer, &mut unstamped, &mut sent_at);
    while in_flight > 0 && !broken {
        let reply = read_reply(&mut reader);
        let now = Instant::now();
        in_flight -= 1;
        match reply {
            Ok(r) => {
                let sent = sent_at.remove(&reply_id(&r));
                ph.reply(fx, tally, r, sent, now);
            }
            Err(_) => {
                tally.transport += 1;
                break;
            }
        }
        if may_send(*ids, now) {
            if write_request(&mut writer, &fx.request(*ids)).is_err() {
                break;
            }
            unstamped.push(*ids);
            *ids += 1;
            in_flight += 1;
            tally.sent += 1;
        }
        if reader.buffer().len() < SCORE_REPLY_LEN && !unstamped.is_empty() {
            broken = !flush(&mut writer, &mut unstamped, &mut sent_at);
        }
    }
    tally.transport += in_flight as u64;
}

/// Send offsets (ns after the first send) of `n` Poisson arrivals at a
/// mean [`PACED_RATE`], drawn from a splitmix64 stream of `seed`.
fn poisson_schedule(n: usize, seed: u64) -> Vec<u64> {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let mean_ns = 1e9 / PACED_RATE as f64;
    let mut state = seed ^ GOLDEN;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let offset = at as u64;
            state = state.wrapping_add(GOLDEN);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            at += -u.ln() * mean_ns;
            offset
        })
        .collect()
}

/// Open loop of Poisson arrivals for `dur`: one sender thread on the
/// write half, replies read on this thread.
fn paced(
    conn: &TcpStream,
    fx: &Fixture,
    ids: &mut u64,
    dur: Duration,
    seed: u64,
    ph: &mut Phase,
    tally: &mut Tally,
) {
    let n = (dur.as_secs_f64() * PACED_RATE as f64) as u64;
    let schedule = poisson_schedule(n as usize, seed);
    let base = *ids;
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |id: u64| t0 + Duration::from_nanos(schedule[(id - base) as usize]);
    ph.block_start = t0;
    let (sent, late) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut w = conn;
            let mut late = Vec::with_capacity(n as usize);
            let mut sent = 0u64;
            for id in base..base + n {
                let at = due(id);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let now = Instant::now();
                if write_request(&mut w, &fx.request(id)).is_err() {
                    break;
                }
                late.push(now.saturating_duration_since(at).as_secs_f64() as f32 * 1e6);
                sent += 1;
            }
            (sent, late)
        });
        let mut reader = BufReader::with_capacity(1 << 16, conn);
        let mut received = 0u64;
        while received < n {
            match read_reply(&mut reader) {
                Ok(r) => {
                    let now = Instant::now();
                    received += 1;
                    let id = reply_id(&r);
                    let sent = (base..base + n).contains(&id).then(|| due(id));
                    ph.reply(fx, tally, r, sent, now);
                }
                Err(_) => break,
            }
        }
        let (sent, late) = sender.join().expect("paced sender panicked");
        tally.transport += sent.saturating_sub(received);
        (sent, late)
    });
    tally.sent += sent;
    *ids = base + n;
    ph.late_us = late;
}

/// What a load phase drives.
struct Load<'a> {
    server: &'a Server,
    conn: &'a TcpStream,
    fx: &'a Fixture,
    mode: Mode,
    seed: u64,
}

/// Runs one load phase of `dur` with the hot-swap control thread.
fn measure(load: &Load<'_>, ids: &mut u64, dur: Duration, trace: bool, tally: &mut Tally) -> Phase {
    let &Load {
        server,
        conn,
        fx,
        mode,
        seed,
    } = load;
    let mut ph = Phase::new(fx, trace, mode);
    let stop = AtomicBool::new(false);
    let reloads = std::thread::scope(|s| {
        let reloader = s.spawn(|| {
            let mut calls = Vec::new();
            let mut failed = 0u64;
            let mut next = Instant::now() + RELOAD_EVERY;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(20)));
                    continue;
                }
                let t = Instant::now();
                if server.reload().is_err() {
                    failed += 1;
                }
                calls.push((t, Instant::now()));
                next += RELOAD_EVERY;
            }
            (calls, failed)
        });
        match mode {
            Mode::Pipelined => pipelined(
                conn,
                fx,
                ids,
                Stop::At(Instant::now() + dur),
                &mut ph,
                tally,
            ),
            Mode::Paced => paced(conn, fx, ids, dur, seed, &mut ph, tally),
        }
        stop.store(true, Ordering::Relaxed);
        reloader.join().expect("reload thread panicked")
    });
    tally.reloads += reloads.0.len() as u64;
    tally.reload_failed += reloads.1;
    ph.reloads = reloads.0;
    ph
}

/// Server start → first reply on a fresh connection. Pushes the time
/// `Server::start` itself took (model load, bind, thread spawns) to
/// `start_s`. The connection comes first, so dropping the pair closes
/// it before the server joins its reader.
fn start_server(
    fx: &Fixture,
    tally: &mut Tally,
    start_s: &mut Vec<f64>,
) -> Result<(TcpStream, Server), BenchError> {
    let t = Instant::now();
    let server = Server::start(&fx.model_path, "127.0.0.1:0", ServeConfig::default())?;
    start_s.push(t.elapsed().as_secs_f64());
    std::thread::sleep(CONNECT_AFTER);
    let conn = TcpStream::connect(server.local_addr())?;
    conn.set_nodelay(true)?;
    write_request(&mut &conn, &fx.request(0))?;
    let reply = read_reply(&mut &conn).map_err(|e| format!("first reply: {e}"))?;
    conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
    tally.sent += 1;
    match reply {
        Reply::Score { score, .. } => {
            tally.scored += 1;
            if score.to_bits() != fx.expected[0] {
                tally.mismatched += 1;
            }
        }
        Reply::Overloaded { .. } => tally.shed += 1,
        _ => tally.other_reply += 1,
    }
    Ok((conn, server))
}

pub fn run(
    mode: Mode,
    args: &Args,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, BenchError> {
    let fx = Fixture::build(args.seed, dir)?;
    let mut tally = Tally::default();
    let mut start_s = Vec::with_capacity(SETUP_REPS);
    let ((conn, server), setup_s) =
        timed_setup(SETUP_REPS, || start_server(&fx, &mut tally, &mut start_s))?;
    let mut ids = 1u64;
    let mut warm = Phase::new(&fx, false, Mode::Pipelined);
    pipelined(
        &conn,
        &fx,
        &mut ids,
        Stop::Count(WARMUP_REQUESTS),
        &mut warm,
        &mut tally,
    );

    let load = Load {
        server: &server,
        conn: &conn,
        fx: &fx,
        mode,
        seed: args.seed,
    };
    let mut out = Outcome::default();
    if !args.trace {
        reset_peak_rss();
        let mut ph = measure(&load, &mut ids, args.seconds, false, &mut tally);
        out.set("peak_rss_mib", peak_rss_mib());
        out.set("setup_s", setup_s);
        out.set("flows_per_s", ph.flows_per_s());
        let (p50, p90) = ph.lat_us();
        out.set("lat_p50_us", p50);
        out.set("lat_p90_us", p90);
        out.set("job_s", median(&mut ph.job_s));
        out.set("pr_auc", ph.pr_auc(&fx));
    } else {
        let half = args.seconds / 2;
        let untraced = measure(&load, &mut ids, half, false, &mut tally);
        let tel0 = server
            .telemetry_snapshot()
            .ok_or("server telemetry is off")?;
        let st0 = server.stats();
        tracer.enter("serve.phase");
        let ph = measure(&load, &mut ids, half, true, &mut tally);
        for &(id, sent, done) in &ph.spans {
            tracer.record("client.request", sent, done, Some(id));
        }
        for &(a, b) in &ph.reloads {
            tracer.record("registry.reload", a, b, None);
        }
        tracer.exit();
        let tel1 = tracer
            .time("server.telemetry_snapshot", || server.telemetry_snapshot())
            .ok_or("server telemetry is off")?;
        let st1 = server.stats();

        type Pick = fn(&TelemetrySnapshot) -> &HdrHistogram;
        let stages: [(&'static str, Pick); 7] = [
            ("server.parse_p50_us", |t| &t.parse),
            ("server.queue_wait_p50_us", |t| &t.queue_wait),
            ("server.batch_form_p50_us", |t| &t.batch_form),
            ("server.score_p50_us", |t| &t.score),
            ("server.write_p50_us", |t| &t.write),
            ("server.total_p50_us", |t| &t.total),
            ("server.queue_depth_p50", |t| &t.queue_depth),
        ];
        for (name, pick) in stages {
            out.set(
                name,
                hdr_quantile(&hdr_delta(pick(&tel1), pick(&tel0)), 0.5),
            );
        }
        let total_p50 = hdr_quantile(&hdr_delta(&tel1.total, &tel0.total), 0.5);
        out.set(
            "server.telemetry_dropped",
            tel1.records_dropped.saturating_sub(tel0.records_dropped) as f64,
        );
        let batches = st1.batches.saturating_sub(st0.batches).max(1);
        let batch_rows = st1.scored.saturating_sub(st0.scored) as f64 / batches as f64;
        out.set("server.batch_rows_mean", batch_rows);
        out.set(
            "client.outside_server_p50_us",
            ph.lat_quantile(0.5) - total_p50,
        );
        out.set("client.lat_p99_us", ph.lat_quantile(0.99));
        let mut late: Vec<f64> = ph.late_us.iter().map(|&x| f64::from(x)).collect();
        out.set("client.gen_late_p90_us", quantile(&mut late, 0.9));
        let mut reload_us: Vec<f64> = ph
            .reloads
            .iter()
            .map(|&(a, b)| (b - a).as_secs_f64() * 1e6)
            .collect();
        out.set("registry.reload_p50_us", median(&mut reload_us));
        out.set("server.start_us", median(&mut start_s) * 1e6);
        out.set(
            "bench.trace_overhead_pct",
            (ph.lat_us().0 / untraced.lat_us().0 - 1.0) * 100.0,
        );
        let rows = (batch_rows.round() as usize).clamp(1, fx.pool.len());
        let batch = Matrix::from_rows(&fx.pool[..rows])?;
        deploy_layers(&fx.model, &batch, &mut out, tracer)?;
    }
    drop(conn);
    let stats = server.shutdown();
    if stats.shed > 0 || stats.bad_frames > 0 || stats.reply_failures > 0 {
        eprintln!("server counters: {stats:?}");
    }
    out.attempted = tally.attempted();
    out.failed = tally.failed();
    out.correct = out.failed == 0;
    eprintln!("{mode:?}: {tally:?}");
    Ok(out)
}
