//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Metric names follow the `subsystem.verb.unit` convention documented
//! in DESIGN.md §8 (e.g. `resilience.quarantine.count`,
//! `cfe.epoch.loss.value`). Names are kept in a `BTreeMap`, so every
//! export (JSONL, summary table) lists metrics in a deterministic
//! lexicographic order.
//!
//! A metric may be marked **volatile** when its value legitimately
//! depends on thread scheduling (pool utilization, worker task counts).
//! Volatile metrics appear in the human-readable summary but are
//! excluded from traces recorded under the deterministic clock, which
//! is what keeps those traces byte-identical across `CND_THREADS`
//! settings.

use std::collections::BTreeMap;

use crate::hdr::HdrHistogram;

/// Histogram bucket exponents are clamped to `[MIN_EXP, MAX_EXP]`;
/// bucket `e` covers values in `[2^e, 2^(e+1))`.
pub const MIN_EXP: i32 = -64;
/// See [`MIN_EXP`].
pub const MAX_EXP: i32 = 63;

/// A fixed log-bucketed histogram of non-negative finite values.
///
/// Bucketing is by the value's binary exponent, extracted from the IEEE
/// 754 bit pattern (never from `log2`, whose rounding at bucket
/// boundaries is platform-dependent), so identical value streams always
/// produce identical bucket maps:
///
/// * `NaN`, `±inf` and negative values are **rejected** (counted in
///   [`Histogram::rejected`], otherwise ignored);
/// * exact `0.0` gets its own bucket ([`Histogram::zero`]);
/// * subnormals clamp into the lowest bucket `MIN_EXP`;
/// * huge values clamp into the highest bucket `MAX_EXP`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Values accepted (including zeros).
    pub count: u64,
    /// Sum of accepted values.
    pub sum: f64,
    /// Smallest accepted value (`None` until the first accept).
    pub min: Option<f64>,
    /// Largest accepted value (`None` until the first accept).
    pub max: Option<f64>,
    /// Exact zeros observed (not assigned to an exponent bucket).
    pub zero: u64,
    /// Observations rejected for being NaN, infinite, or negative.
    pub rejected: u64,
    /// Sparse bucket map: binary exponent → count.
    pub buckets: BTreeMap<i32, u64>,
}

/// Bucket exponent for a strictly positive finite value.
fn bucket_exp(v: f64) -> i32 {
    debug_assert!(v.is_finite() && v > 0.0);
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    // Subnormals have biased exponent 0; clamp them (and any other
    // tiny value) into the lowest bucket.
    (biased - 1023).clamp(MIN_EXP, MAX_EXP)
}

impl Histogram {
    /// Records one observation (see the type docs for edge-case rules).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        if v == 0.0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(bucket_exp(v)).or_insert(0) += 1;
        }
    }

    /// Mean of accepted values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Deterministic quantile estimate: the upper bound `2^(e+1)` of the
    /// bucket containing the `q`-th observation (0 for the zero bucket).
    /// Returns `None` when empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if rank <= seen {
            return Some(0.0);
        }
        for (&e, &c) in &self.buckets {
            seen += c;
            if rank <= seen {
                return Some(((e + 1) as f64).exp2());
            }
        }
        self.max
    }
}

/// The value side of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Log-bucketed distribution.
    Histogram(Histogram),
    /// HDR latency distribution of integer microseconds (~1% relative
    /// quantile error; see [`crate::hdr`]).
    Hdr(HdrHistogram),
}

impl MetricValue {
    /// Short kind label used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "hist",
            MetricValue::Hdr(_) => "hdr",
        }
    }
}

/// One registered metric: its value plus the volatility flag.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Current value.
    pub value: MetricValue,
    /// `true` when the value depends on thread scheduling and must be
    /// excluded from deterministic traces.
    pub volatile: bool,
}

/// Name-ordered collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// Removes every metric.
    pub fn clear(&mut self) {
        self.metrics.clear();
    }

    /// Adds `v` to the counter `name`, creating it at zero first.
    /// `volatile` is sticky: once set for a name it stays set.
    pub fn counter_add(&mut self, name: &str, v: u64, volatile: bool) {
        let m = self.metrics.entry(name.to_string()).or_insert(Metric {
            value: MetricValue::Counter(0),
            volatile,
        });
        m.volatile |= volatile;
        if let MetricValue::Counter(c) = &mut m.value {
            *c += v;
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64, volatile: bool) {
        let m = self.metrics.entry(name.to_string()).or_insert(Metric {
            value: MetricValue::Gauge(v),
            volatile,
        });
        m.volatile |= volatile;
        if let MetricValue::Gauge(g) = &mut m.value {
            *g = v;
        }
    }

    /// Records `v` into the histogram `name`.
    pub fn histogram_record(&mut self, name: &str, v: f64, volatile: bool) {
        let m = self.metrics.entry(name.to_string()).or_insert(Metric {
            value: MetricValue::Histogram(Histogram::default()),
            volatile,
        });
        m.volatile |= volatile;
        if let MetricValue::Histogram(h) = &mut m.value {
            h.record(v);
        }
    }

    /// Records `v` (integer microseconds) into the HDR histogram
    /// `name`.
    pub fn hdr_record(&mut self, name: &str, v: u64, volatile: bool) {
        let m = self.metrics.entry(name.to_string()).or_insert(Metric {
            value: MetricValue::Hdr(HdrHistogram::new()),
            volatile,
        });
        m.volatile |= volatile;
        if let MetricValue::Hdr(h) = &mut m.value {
            h.record(v);
        }
    }

    /// Merges a whole [`HdrHistogram`] delta into `name` (locally
    /// aggregated samples fold in one call instead of one per sample).
    pub fn hdr_merge(&mut self, name: &str, delta: &HdrHistogram, volatile: bool) {
        let m = self.metrics.entry(name.to_string()).or_insert(Metric {
            value: MetricValue::Hdr(HdrHistogram::new()),
            volatile,
        });
        m.volatile |= volatile;
        if let MetricValue::Hdr(h) = &mut m.value {
            h.merge(delta);
        }
    }

    /// Name-ordered view of all metrics.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_binary_exponent() {
        let mut h = Histogram::default();
        for v in [1.0, 1.5, 1.999, 2.0, 3.9, 4.0, 0.5] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets.get(&0), Some(&3)); // [1, 2)
        assert_eq!(h.buckets.get(&1), Some(&2)); // [2, 4)
        assert_eq!(h.buckets.get(&2), Some(&1)); // [4, 8)
        assert_eq!(h.buckets.get(&-1), Some(&1)); // [0.5, 1)
        assert_eq!(h.rejected, 0);
    }

    #[test]
    fn histogram_zero_has_its_own_bucket() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(0.0);
        assert_eq!(h.zero, 2);
        assert_eq!(h.count, 2);
        assert!(h.buckets.is_empty());
        assert_eq!(h.min, Some(0.0));
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn histogram_subnormals_clamp_to_lowest_bucket() {
        let mut h = Histogram::default();
        let sub = f64::MIN_POSITIVE / 4.0;
        assert!(sub > 0.0 && !sub.is_normal());
        h.record(sub);
        h.record(f64::MIN_POSITIVE); // smallest normal, exp -1022 -> clamped
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets.get(&MIN_EXP), Some(&2));
        assert_eq!(h.rejected, 0);
    }

    #[test]
    fn histogram_rejects_nonfinite_and_negative() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(-1.0);
        assert_eq!(h.rejected, 4);
        assert_eq!(h.count, 0);
        assert_eq!(h.min, None);
        assert_eq!(h.quantile(0.5), None);
        // Huge finite values clamp instead of being rejected.
        h.record(f64::MAX);
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.get(&MAX_EXP), Some(&1));
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1.0); // bucket 0 -> upper bound 2
        }
        for _ in 0..10 {
            h.record(100.0); // bucket 6 -> upper bound 128
        }
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.99), Some(128.0));
        assert!((h.mean() - (90.0 + 1000.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn registry_hdr_record_and_merge_agree() {
        let mut r = Registry::default();
        r.hdr_record("serve.stage.score.us", 100, true);
        r.hdr_record("serve.stage.score.us", 200, true);
        let mut delta = HdrHistogram::new();
        delta.record(100);
        delta.record(200);
        let mut r2 = Registry::default();
        r2.hdr_merge("serve.stage.score.us", &delta, true);
        let (a, b) = (
            r.get("serve.stage.score.us").unwrap(),
            r2.get("serve.stage.score.us").unwrap(),
        );
        assert_eq!(a.value, b.value);
        assert!(a.volatile && b.volatile);
        assert_eq!(a.value.kind(), "hdr");
    }

    #[test]
    fn registry_orders_by_name_and_tracks_volatility() {
        let mut r = Registry::default();
        r.counter_add("b.two.count", 2, false);
        r.counter_add("a.one.count", 1, false);
        r.gauge_set("c.three.value", 3.0, true);
        r.counter_add("a.one.count", 1, false);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one.count", "b.two.count", "c.three.value"]);
        assert!(matches!(
            r.get("a.one.count").unwrap().value,
            MetricValue::Counter(2)
        ));
        assert!(r.get("c.three.value").unwrap().volatile);
        assert!(!r.get("a.one.count").unwrap().volatile);
    }
}
