//! Request-lifecycle telemetry for the scoring server.
//!
//! Each connection reader fills a [`RoundRecord`] while it answers a
//! round and records it into the [`TelemetryHub`] under one hub lock
//! once the round's replies are written. The hub folds the record into
//! log-bucketed [`HdrHistogram`]s and the SLO tracker, and at most once
//! per elapsed hub second publishes what it gathered since the last
//! publish to the `cnd-obs` registry (when a session is active) and the
//! SLO gauges.
//!
//! ```text
//!                                       ┌─▶ per-stage HdrHistograms
//! reader round ──one lock──▶ hub ───────┼─▶ SloTracker (burn rates)
//!                                       └─▶ cnd-obs registry (≤ 1/s)
//! ```
//!
//! # Stage taxonomy
//!
//! A request's served life is split into non-overlapping stages, each
//! timed in microseconds:
//!
//! | stage        | clock starts               | clock stops                |
//! |--------------|----------------------------|----------------------------|
//! | `parse`      | decoder starts the frame   | request decoded            |
//! | `queue_wait` | request decoded            | its batch starts scoring   |
//! | `batch_form` | batch starts               | rows assembled (Matrix)    |
//! | `score`      | scoring kernel entered     | scores returned            |
//! | `write`      | round's replies serialized | one `write_all` returns    |
//! | `total`      | request decoded            | reply bytes written        |
//!
//! `total` is measured end-to-end (not summed from stages), so the sum
//! of stage medians can be cross-checked against it — the integration
//! tests do exactly that. Shed and malformed requests are never
//! scored; they are recorded as *admission outcomes* instead, a shed
//! carrying the in-flight depth that justified it, which is what
//! "which admission decision, at what depth" dashboards need.
//!
//! # When a round lands in the hub
//!
//! A reader records a round after its replies are written, so the lock
//! stays off the replies' latency path and a client can see its reply
//! a moment before the round is counted. A round that shed or rejected
//! a frame also records what it has so far just before the write, so a
//! client holding an `Overloaded` or `BadRequest` reply finds it
//! already counted. Nothing is sampled or dropped: every scored request
//! lands in every stage exactly once.

use std::sync::Mutex;
use std::time::Instant;

use cnd_obs::hdr::HdrHistogram;
use cnd_obs::slo::{SloConfig, SloSnapshot, SloTracker};

/// Per-stage histograms plus admission/SLO state recorded so far.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Frame decode time of each scored request, µs.
    pub parse: HdrHistogram,
    /// Request decoded → its batch starts scoring, µs.
    pub queue_wait: HdrHistogram,
    /// Batch start → kernel entry, µs.
    pub batch_form: HdrHistogram,
    /// Kernel wall time per request, µs.
    pub score: HdrHistogram,
    /// Reply write time, µs.
    pub write: HdrHistogram,
    /// End-to-end served latency, µs.
    pub total: HdrHistogram,
    /// Rows in flight across connections as each batch starts.
    pub queue_depth: HdrHistogram,
    /// In-flight depth at each shed decision.
    pub shed_depth: HdrHistogram,
    /// Requests shed at the in-flight bound.
    pub shed_queue_full: u64,
    /// Malformed / mismatched frames rejected.
    pub bad_frames: u64,
    /// Replies lost to closed client connections.
    pub reply_failures: u64,
    /// Telemetry records lost. Always 0: readers record into the hub
    /// directly and nothing is sampled or dropped. Kept so readers of
    /// the field (the `server.telemetry_dropped` bench row) still build.
    pub records_dropped: u64,
    /// Multi-window SLO burn rates at snapshot time.
    pub slo: SloSnapshot,
}

impl TelemetrySnapshot {
    /// Each histogram with the `cnd-obs` metric it is published as.
    fn histograms(&self) -> [(&'static str, &HdrHistogram); 8] {
        [
            ("serve.stage.parse.us", &self.parse),
            ("serve.stage.queue_wait.us", &self.queue_wait),
            ("serve.stage.batch_form.us", &self.batch_form),
            ("serve.stage.score.us", &self.score),
            ("serve.stage.write.us", &self.write),
            ("serve.stage.total.us", &self.total),
            ("serve.queue.depth.hdr", &self.queue_depth),
            ("serve.admit.shed_depth", &self.shed_depth),
        ]
    }

    /// Folds `other`'s histograms and counts into `self`.
    fn merge(&mut self, other: &TelemetrySnapshot) {
        self.parse.merge(&other.parse);
        self.queue_wait.merge(&other.queue_wait);
        self.batch_form.merge(&other.batch_form);
        self.score.merge(&other.score);
        self.write.merge(&other.write);
        self.total.merge(&other.total);
        self.queue_depth.merge(&other.queue_depth);
        self.shed_depth.merge(&other.shed_depth);
        self.shed_queue_full += other.shed_queue_full;
        self.bad_frames += other.bad_frames;
        self.reply_failures += other.reply_failures;
    }
}

/// What one reader round adds to the telemetry, filled while the round
/// is answered and recorded by [`TelemetryHub::record`], which clears
/// it for the next round.
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    /// Per admitted score row: (parse µs, queue_wait µs).
    pub rows: Vec<(u64, u64)>,
    /// Matrix assembly time of the round's batch, µs; every row in
    /// `rows` waited it out.
    pub batch_form_us: u64,
    /// Scoring kernel time of the round's batch, µs.
    pub score_us: u64,
    /// Rows in flight across connections as the batch started (`None`
    /// when the round scored nothing).
    pub queue_depth: Option<u64>,
    /// In-flight depth at each shed decision of the round.
    pub shed_depths: Vec<u64>,
    /// Frames rejected as malformed or dimension-mismatched.
    pub bad_frames: u64,
    /// Reply write time of the round, µs; every row in `totals` waited
    /// it out.
    pub write_us: u64,
    /// End-to-end latency of each row whose reply was written, µs.
    pub totals: Vec<u64>,
    /// Rows whose reply could not be written.
    pub reply_failures: u64,
}

impl RoundRecord {
    /// Empties the record, keeping its allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.batch_form_us = 0;
        self.score_us = 0;
        self.queue_depth = None;
        self.shed_depths.clear();
        self.bad_frames = 0;
        self.write_us = 0;
        self.totals.clear();
        self.reply_failures = 0;
    }
}

#[derive(Debug)]
struct HubInner {
    /// Everything recorded up to the last publish.
    published: TelemetrySnapshot,
    /// Recorded since the last publish: the delta the registry is fed.
    fresh: TelemetrySnapshot,
    slo: SloTracker,
    /// Hub second of the last publish.
    published_s: u64,
}

impl HubInner {
    /// Feeds the fresh delta to the `cnd-obs` registry (every call
    /// no-ops without an enabled session), folds it into the published
    /// totals, and sets the SLO gauges.
    fn publish(&mut self, now_s: u64) {
        for (name, delta) in self.fresh.histograms() {
            cnd_obs::hdr_merge_volatile(name, delta);
        }
        self.published.merge(&self.fresh);
        self.fresh = TelemetrySnapshot::default();
        self.published_s = now_s;

        let snap = self.slo.snapshot(now_s);
        for w in &snap.windows {
            cnd_obs::gauge_set_volatile(
                &format!("serve.slo.availability_burn.{}s", w.window_s),
                w.availability_burn,
            );
            cnd_obs::gauge_set_volatile(
                &format!("serve.slo.latency_burn.{}s", w.window_s),
                w.latency_burn,
            );
        }
        let flag = |on: bool| if on { 1.0 } else { 0.0 };
        cnd_obs::gauge_set_volatile(
            "serve.slo.alert.availability",
            flag(snap.availability_alert),
        );
        cnd_obs::gauge_set_volatile("serve.slo.alert.latency", flag(snap.latency_alert));
    }
}

/// The telemetry hub: per-stage aggregates and the SLO tracker behind
/// one lock. The server holds one `Arc<TelemetryHub>`; each connection
/// reader records its rounds into it.
#[derive(Debug)]
pub struct TelemetryHub {
    inner: Mutex<HubInner>,
    started: Instant,
}

impl TelemetryHub {
    /// A hub tracking `slo`.
    pub fn new(slo: SloConfig) -> TelemetryHub {
        TelemetryHub {
            inner: Mutex::new(HubInner {
                published: TelemetrySnapshot::default(),
                fresh: TelemetrySnapshot::default(),
                slo: SloTracker::new(slo),
                published_s: 0,
            }),
            started: Instant::now(),
        }
    }

    /// Seconds since the hub started — the SLO time base.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one round under one hub lock and clears `round`. Publishes
    /// when the hub second has advanced since the last publish.
    pub fn record(&self, round: &mut RoundRecord) {
        let now_s = self.now_s();
        let mut inner = self.lock();
        let HubInner { fresh, slo, .. } = &mut *inner;
        for &(parse, wait) in &round.rows {
            fresh.parse.record(parse);
            fresh.queue_wait.record(wait);
        }
        let rows = round.rows.len() as u64;
        fresh.batch_form.record_n(round.batch_form_us, rows);
        fresh.score.record_n(round.score_us, rows);
        if let Some(depth) = round.queue_depth {
            fresh.queue_depth.record(depth);
        }
        for &depth in &round.shed_depths {
            fresh.shed_depth.record(depth);
        }
        fresh.shed_queue_full += round.shed_depths.len() as u64;
        fresh.bad_frames += round.bad_frames;
        fresh.reply_failures += round.reply_failures;
        let failures = round.shed_depths.len() as u64 + round.bad_frames + round.reply_failures;
        for _ in 0..failures {
            slo.record(now_s, 0, false);
        }
        fresh
            .write
            .record_n(round.write_us, round.totals.len() as u64);
        for &total in &round.totals {
            fresh.total.record(total);
            slo.record(now_s, total, true);
        }
        if now_s != inner.published_s {
            inner.publish(now_s);
        }
        round.clear();
    }

    /// Publishes what was recorded since the last publish. The server
    /// calls it at stop, once its readers have joined.
    pub fn publish(&self) {
        self.lock().publish(self.now_s());
    }

    /// Publishes, then returns a copy of every aggregate.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let now_s = self.now_s();
        let mut inner = self.lock();
        inner.publish(now_s);
        TelemetrySnapshot {
            slo: inner.slo.snapshot(now_s),
            ..inner.published.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_routes_records_to_the_right_aggregates() {
        let hub = TelemetryHub::new(SloConfig::default());
        hub.record(&mut RoundRecord {
            rows: vec![(3, 40)],
            batch_form_us: 7,
            score_us: 90,
            queue_depth: Some(5),
            shed_depths: vec![1024],
            bad_frames: 1,
            write_us: 12,
            totals: vec![150],
            reply_failures: 1,
        });
        let snap = hub.snapshot();
        assert_eq!(snap.parse.count, 1);
        assert_eq!(snap.parse.max, Some(3));
        assert_eq!(snap.queue_wait.max, Some(40));
        assert_eq!(snap.batch_form.max, Some(7));
        assert_eq!(snap.score.max, Some(90));
        assert_eq!(snap.write.max, Some(12));
        assert_eq!(snap.total.max, Some(150));
        assert_eq!(snap.queue_depth.max, Some(5));
        assert_eq!(snap.shed_depth.max, Some(1024));
        assert_eq!(snap.shed_queue_full, 1);
        assert_eq!(snap.bad_frames, 1);
        assert_eq!(snap.reply_failures, 1);
        // 1 ok + 3 bad outcomes reached the SLO tracker.
        assert_eq!(snap.slo.windows[0].total, 4);
        assert!(snap.slo.windows[0].availability_burn > 0.0);
        hub.publish();
    }

    #[test]
    fn shutdown_runs_a_final_harvest_and_is_idempotent() {
        // The server's stop-time publish, run twice: nothing recorded is
        // lost, and nothing is counted twice.
        let hub = TelemetryHub::new(SloConfig::default());
        hub.record(&mut RoundRecord {
            rows: vec![(1, 1)],
            score_us: 77,
            ..RoundRecord::default()
        });
        hub.publish();
        hub.publish();
        let snap = hub.snapshot();
        assert_eq!(snap.score.count, 1);
        assert_eq!(snap.score.max, Some(77));
    }
}
