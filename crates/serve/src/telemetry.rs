//! Hot-path request-lifecycle telemetry for the scoring server.
//!
//! The serving threads must not pay a mutex (or any blocking call) per
//! request to be observable, so every lifecycle event is written into a
//! per-connection [`RingBuffer`] — a wait-free push of two words —
//! and a background **harvester** thread drains the rings every few
//! milliseconds into log-bucketed [`HdrHistogram`]s, the SLO tracker,
//! and (when a `cnd-obs` session is active) the global metric registry.
//!
//! ```text
//!                                            ┌─▶ per-stage HdrHistograms
//! reader threads ──▶ SPSC rings ─harvest─▶ ──┼─▶ SloTracker (burn rates)
//!                     (wait-free)            └─▶ cnd-obs registry/export
//! ```
//!
//! # Stage taxonomy
//!
//! A request's served life is split into non-overlapping stages, each
//! timed in microseconds and recorded under its own [`Stage`] tag:
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
//! # Loss accounting
//!
//! A full ring drops the sample, never blocks the request. Drops are
//! counted per ring and surfaced as `serve.telemetry.dropped.count`;
//! a dashboard showing latency percentiles next to a nonzero drop
//! counter knows exactly how much it is missing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cnd_obs::hdr::HdrHistogram;
use cnd_obs::ring::{Record, RingBuffer, RingSet};
use cnd_obs::slo::{SloConfig, SloSnapshot, SloTracker};

/// Ring capacity per connection reader (records). A reader emits six
/// records per scored request plus one per batch, and the harvester
/// drains every `HARVEST_PERIOD`.
pub const RING_CAP: usize = 1 << 14;
/// How often the harvester drains the rings.
const HARVEST_PERIOD: Duration = Duration::from_millis(10);

/// Event tags recorded into the rings (the `Record::tag` taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Stage {
    /// Frame decode time (first byte → request struct), µs.
    Parse = 1,
    /// Request decoded → its batch starts scoring, µs.
    QueueWait = 2,
    /// Batch start → scoring kernel entry (matrix assembly), µs.
    BatchForm = 3,
    /// Scoring kernel wall time, recorded once per request in the
    /// batch (each request waits out the full kernel), µs.
    Score = 4,
    /// Serialization of the round's replies + their one socket write,
    /// recorded once per scored request, µs.
    Write = 5,
    /// Request decoded → reply written, end-to-end, µs.
    Total = 6,
    /// Rows in flight across connections as a batch starts (value =
    /// depth).
    QueueDepth = 7,
    /// Request shed at the in-flight bound (aux = depth seen).
    ShedQueueFull = 8,
    /// Malformed or dimension-mismatched frame rejected.
    BadFrame = 9,
    /// Reply could not be written (client gone).
    ReplyFailure = 10,
}

impl Stage {
    fn from_tag(tag: u16) -> Option<Stage> {
        Some(match tag {
            1 => Stage::Parse,
            2 => Stage::QueueWait,
            3 => Stage::BatchForm,
            4 => Stage::Score,
            5 => Stage::Write,
            6 => Stage::Total,
            7 => Stage::QueueDepth,
            8 => Stage::ShedQueueFull,
            9 => Stage::BadFrame,
            10 => Stage::ReplyFailure,
            _ => return None,
        })
    }
}

/// Builds a stage-timing record (value = microseconds).
pub fn stage_record(stage: Stage, us: u64) -> Record {
    Record::new(stage as u16, 0, us)
}

/// Builds a shed record carrying the in-flight depth at the decision.
pub fn shed_record(depth: usize) -> Record {
    Record::new(
        Stage::ShedQueueFull as u16,
        depth.min(u32::MAX as usize) as u32,
        0,
    )
}

/// Per-stage histograms plus admission/SLO state, harvested so far.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Frame decode time, µs.
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
    /// Telemetry records dropped by full rings (loss accounting).
    pub records_dropped: u64,
    /// Multi-window SLO burn rates at harvest time.
    pub slo: SloSnapshot,
}

/// Aggregation state owned by the harvester.
#[derive(Debug)]
struct HubInner {
    parse: HdrHistogram,
    queue_wait: HdrHistogram,
    batch_form: HdrHistogram,
    score: HdrHistogram,
    write: HdrHistogram,
    total: HdrHistogram,
    queue_depth: HdrHistogram,
    shed_depth: HdrHistogram,
    shed_queue_full: u64,
    bad_frames: u64,
    reply_failures: u64,
    dropped_published: u64,
    slo: SloTracker,
    scratch: Vec<Record>,
}

impl HubInner {
    fn new(slo: SloConfig) -> Self {
        Self {
            parse: HdrHistogram::new(),
            queue_wait: HdrHistogram::new(),
            batch_form: HdrHistogram::new(),
            score: HdrHistogram::new(),
            write: HdrHistogram::new(),
            total: HdrHistogram::new(),
            queue_depth: HdrHistogram::new(),
            shed_depth: HdrHistogram::new(),
            shed_queue_full: 0,
            bad_frames: 0,
            reply_failures: 0,
            dropped_published: 0,
            slo: SloTracker::new(slo),
            scratch: Vec::with_capacity(1024),
        }
    }
}

/// The telemetry hub: ring registry + harvester + aggregates.
///
/// The server holds one `Arc<TelemetryHub>`; each connection reader
/// registers a ring once and pushes records wait-free. The harvester
/// owns aggregation; [`snapshot`](TelemetryHub::snapshot) runs one
/// harvest inline first so callers always see their own records.
#[derive(Debug)]
pub struct TelemetryHub {
    rings: RingSet,
    inner: Mutex<HubInner>,
    stop: AtomicBool,
    harvester: Mutex<Option<std::thread::JoinHandle<()>>>,
    started: Instant,
}

impl TelemetryHub {
    /// Starts a hub (and its harvester thread) tracking `slo`.
    pub fn start(slo: SloConfig) -> Arc<TelemetryHub> {
        let hub = Arc::new(TelemetryHub {
            rings: RingSet::new(),
            inner: Mutex::new(HubInner::new(slo)),
            stop: AtomicBool::new(false),
            harvester: Mutex::new(None),
            started: Instant::now(),
        });
        let handle = {
            let hub = Arc::clone(&hub);
            std::thread::Builder::new()
                .name("cnd-serve-telemetry".into())
                .spawn(move || {
                    while !hub.stop.load(Ordering::Relaxed) {
                        std::thread::sleep(HARVEST_PERIOD);
                        hub.harvest();
                    }
                })
                .ok()
        };
        *hub.harvester.lock().unwrap_or_else(|e| e.into_inner()) = handle;
        hub
    }

    /// Registers a producer ring (one per connection reader).
    pub fn register_ring(&self, capacity: usize) -> Arc<RingBuffer> {
        self.rings.register(capacity)
    }

    /// Seconds since the hub started — the SLO time base.
    fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Drains every ring into the aggregates and republishes metrics.
    /// Called periodically by the harvester and inline by `snapshot`.
    pub fn harvest(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *inner;
        inner.scratch.clear();
        self.rings.drain_all(&mut inner.scratch);
        let now_s = self.now_s();
        // Per-harvest deltas so the global registry can be fed by merge
        // (one lock per harvest, not one per record).
        let mut delta: [HdrHistogram; 8] = Default::default();
        let (mut d_shed, mut d_bad, mut d_reply) = (0u64, 0u64, 0u64);
        for rec in inner.scratch.drain(..) {
            let Some(stage) = Stage::from_tag(rec.tag) else {
                continue;
            };
            match stage {
                Stage::Parse => delta[0].record(rec.value),
                Stage::QueueWait => delta[1].record(rec.value),
                Stage::BatchForm => delta[2].record(rec.value),
                Stage::Score => delta[3].record(rec.value),
                Stage::Write => delta[4].record(rec.value),
                Stage::Total => {
                    delta[5].record(rec.value);
                    inner.slo.record(now_s, rec.value, true);
                }
                Stage::QueueDepth => delta[6].record(rec.value),
                Stage::ShedQueueFull => {
                    delta[7].record(rec.aux as u64);
                    d_shed += 1;
                    inner.slo.record(now_s, 0, false);
                }
                Stage::BadFrame => {
                    d_bad += 1;
                    inner.slo.record(now_s, 0, false);
                }
                Stage::ReplyFailure => {
                    d_reply += 1;
                    inner.slo.record(now_s, 0, false);
                }
            }
        }
        inner.parse.merge(&delta[0]);
        inner.queue_wait.merge(&delta[1]);
        inner.batch_form.merge(&delta[2]);
        inner.score.merge(&delta[3]);
        inner.write.merge(&delta[4]);
        inner.total.merge(&delta[5]);
        inner.queue_depth.merge(&delta[6]);
        inner.shed_depth.merge(&delta[7]);
        inner.shed_queue_full += d_shed;
        inner.bad_frames += d_bad;
        inner.reply_failures += d_reply;

        // Republish into the global registry; every call below no-ops
        // when no cnd-obs session is enabled.
        const STAGES: [&str; 6] = [
            "serve.stage.parse.us",
            "serve.stage.queue_wait.us",
            "serve.stage.batch_form.us",
            "serve.stage.score.us",
            "serve.stage.write.us",
            "serve.stage.total.us",
        ];
        for (name, d) in STAGES.iter().zip(&delta) {
            cnd_obs::hdr_merge_volatile(name, d);
        }
        cnd_obs::hdr_merge_volatile("serve.queue.depth.hdr", &delta[6]);
        cnd_obs::hdr_merge_volatile("serve.admit.shed_depth", &delta[7]);
        if d_shed > 0 {
            cnd_obs::counter_add_volatile("serve.admit.queue_full.count", d_shed);
        }
        if d_bad > 0 {
            cnd_obs::counter_add_volatile("serve.admit.bad_frame.count", d_bad);
        }
        if d_reply > 0 {
            cnd_obs::counter_add_volatile("serve.reply_fail.count", d_reply);
        }
        let dropped = self.rings.dropped() + inner.dropped_published;
        cnd_obs::gauge_set_volatile("serve.telemetry.dropped.count", dropped as f64);

        let snap = inner.slo.snapshot(now_s);
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
        cnd_obs::gauge_set_volatile(
            "serve.slo.alert.availability",
            if snap.availability_alert { 1.0 } else { 0.0 },
        );
        cnd_obs::gauge_set_volatile(
            "serve.slo.alert.latency",
            if snap.latency_alert { 1.0 } else { 0.0 },
        );

        // Shed rings of closed connections; their drop counts move into
        // the published total so loss accounting stays exact.
        inner.dropped_published += self.rings.prune_orphans();
    }

    /// Harvests, then returns a copy of every aggregate.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.harvest();
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        TelemetrySnapshot {
            parse: inner.parse.clone(),
            queue_wait: inner.queue_wait.clone(),
            batch_form: inner.batch_form.clone(),
            score: inner.score.clone(),
            write: inner.write.clone(),
            total: inner.total.clone(),
            queue_depth: inner.queue_depth.clone(),
            shed_depth: inner.shed_depth.clone(),
            shed_queue_full: inner.shed_queue_full,
            bad_frames: inner.bad_frames,
            reply_failures: inner.reply_failures,
            records_dropped: self.rings.dropped() + inner.dropped_published,
            slo: inner.slo.snapshot(self.now_s()),
        }
    }

    /// Stops and joins the harvester after a final drain. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self
            .harvester
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.harvest();
    }
}

impl Drop for TelemetryHub {
    fn drop(&mut self) {
        // The harvester holds an Arc to the hub, so by the time Drop
        // runs the thread has already exited; just make sure no records
        // are stranded if shutdown() was never called.
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_round_trip() {
        for tag in 1..=10u16 {
            let s = Stage::from_tag(tag).expect("valid tag");
            assert_eq!(s as u16, tag);
        }
        assert!(Stage::from_tag(0).is_none());
        assert!(Stage::from_tag(11).is_none());
    }

    #[test]
    fn harvest_routes_records_to_the_right_aggregates() {
        let hub = TelemetryHub::start(SloConfig::default());
        let ring = hub.register_ring(64);
        ring.push(stage_record(Stage::Parse, 3));
        ring.push(stage_record(Stage::QueueWait, 40));
        ring.push(stage_record(Stage::BatchForm, 7));
        ring.push(stage_record(Stage::Score, 90));
        ring.push(stage_record(Stage::Write, 12));
        ring.push(stage_record(Stage::Total, 150));
        ring.push(Record::new(Stage::QueueDepth as u16, 0, 5));
        ring.push(shed_record(1024));
        ring.push(Record::new(Stage::BadFrame as u16, 0, 0));
        ring.push(Record::new(Stage::ReplyFailure as u16, 0, 0));
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
        hub.shutdown();
    }

    #[test]
    fn unknown_tags_are_skipped_not_fatal() {
        let hub = TelemetryHub::start(SloConfig::default());
        let ring = hub.register_ring(8);
        ring.push(Record::new(999, 7, 42));
        ring.push(stage_record(Stage::Total, 10));
        let snap = hub.snapshot();
        assert_eq!(snap.total.count, 1);
        hub.shutdown();
    }

    #[test]
    fn drop_accounting_survives_ring_pruning() {
        let hub = TelemetryHub::start(SloConfig::default());
        let ring = hub.register_ring(2);
        ring.push(stage_record(Stage::Total, 1));
        ring.push(stage_record(Stage::Total, 2));
        ring.push(stage_record(Stage::Total, 3)); // dropped: cap 2
        let snap = hub.snapshot();
        assert_eq!(snap.records_dropped, 1);
        drop(ring);
        hub.harvest(); // prunes the orphan, folding its drop count in
        let snap = hub.snapshot();
        assert_eq!(snap.records_dropped, 1, "pruning lost the drop count");
        hub.shutdown();
    }

    #[test]
    fn shutdown_runs_a_final_harvest_and_is_idempotent() {
        let hub = TelemetryHub::start(SloConfig::default());
        let ring = hub.register_ring(8);
        ring.push(stage_record(Stage::Score, 77));
        hub.shutdown();
        hub.shutdown();
        let snap = hub.snapshot();
        assert_eq!(snap.score.count, 1);
        assert_eq!(snap.score.max, Some(77));
    }
}
