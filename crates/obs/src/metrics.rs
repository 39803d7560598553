//! The metrics registry: counters, gauges, and HDR histograms.
//!
//! Metric names follow the `subsystem.verb.unit` convention documented
//! in DESIGN.md §8 (e.g. `resilience.quarantine.count`,
//! `cfe.loss.total.value`). Names are kept in a `BTreeMap`, so every
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

/// The value side of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// HDR distribution of integer values, latency microseconds in
    /// practice (~1% relative quantile error; see [`crate::hdr`]).
    Hdr(HdrHistogram),
}

impl MetricValue {
    /// Short kind label used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
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
    use crate::hdr::{bucket_bounds, bucket_index, fixed_point, MAX_INDEX};

    /// Records each `f64` that [`fixed_point`] accepts into the HDR
    /// histogram `name`, the way the drift monitor records scores.
    fn record_scores(r: &mut Registry, name: &str, vs: &[f64]) {
        for &v in vs {
            if let Some(x) = fixed_point(v) {
                r.hdr_record(name, x, false);
            }
        }
    }

    fn hdr<'a>(r: &'a Registry, name: &str) -> &'a HdrHistogram {
        match &r.get(name).expect("registered").value {
            MetricValue::Hdr(h) => h,
            v => panic!("{name} is a {}", v.kind()),
        }
    }

    #[test]
    fn histogram_buckets_by_binary_exponent() {
        let mut r = Registry::default();
        record_scores(&mut r, "s", &[1.0, 1.5, 1.999, 2.0, 3.9, 4.0, 0.5]);
        let h = hdr(&r, "s");
        assert_eq!(h.count, 7);
        // Bucket counts summed by binary exponent: a fixed-point value
        // in [2^k, 2^(k+1)) has a low bound of bit length k + 33.
        let mut by_exp = BTreeMap::new();
        for (&i, &c) in &h.buckets {
            let bits = 64 - bucket_bounds(i).0.leading_zeros() as i32;
            *by_exp.entry(bits - 33).or_insert(0u64) += c;
        }
        assert_eq!(by_exp.get(&0), Some(&3)); // [1, 2)
        assert_eq!(by_exp.get(&1), Some(&2)); // [2, 4)
        assert_eq!(by_exp.get(&2), Some(&1)); // [4, 8)
        assert_eq!(by_exp.get(&-1), Some(&1)); // [0.5, 1)
        assert_eq!(by_exp.len(), 4);
    }

    #[test]
    fn histogram_zero_has_its_own_bucket() {
        let mut r = Registry::default();
        record_scores(&mut r, "s", &[0.0, 0.0]);
        let h = hdr(&r, "s");
        assert_eq!(h.count, 2);
        let zero = bucket_index(0);
        assert_eq!(bucket_bounds(zero), (0, 0), "the zero bucket holds only 0");
        assert_eq!(h.buckets.len(), 1);
        assert_eq!(h.buckets.get(&zero), Some(&2));
        assert_eq!(h.min, Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
    }

    #[test]
    fn histogram_subnormals_clamp_to_lowest_bucket() {
        let mut r = Registry::default();
        let sub = f64::MIN_POSITIVE / 4.0;
        assert!(sub > 0.0 && !sub.is_normal());
        record_scores(&mut r, "s", &[sub, f64::MIN_POSITIVE, 2f64.powi(-33)]);
        let h = hdr(&r, "s");
        assert_eq!(h.count, 3);
        assert_eq!(bucket_index(0), 0, "zero is the lowest bucket");
        assert_eq!(h.buckets.get(&0), Some(&3));
        assert_eq!(h.buckets.len(), 1);
    }

    #[test]
    fn histogram_rejects_nonfinite_and_negative() {
        let mut r = Registry::default();
        record_scores(
            &mut r,
            "s",
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0],
        );
        assert!(r.get("s").is_none(), "refused values record nothing");
        assert!(r.is_empty());
        // Huge finite values clamp into the top bucket instead of being
        // refused.
        record_scores(&mut r, "s", &[f64::MAX]);
        let h = hdr(&r, "s");
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets.get(&MAX_INDEX), Some(&1));
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
