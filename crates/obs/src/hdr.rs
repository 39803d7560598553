//! HDR-style log-bucketed histograms: the one distribution type of
//! `cnd-obs`.
//!
//! [`HdrHistogram`] records unsigned integer values (the serving data
//! plane feeds it microseconds; the drift monitor feeds it scores
//! through [`fixed_point`]) into buckets whose width is a fixed
//! fraction of their magnitude: values below `2^SUB_BITS` are recorded
//! exactly, larger values share `2^SUB_BITS` linear sub-buckets per
//! power of two. With [`SUB_BITS`]` = 7` the quantile error is bounded
//! by one part in 128 (< 0.8% relative), which is what lets one
//! histogram span queue waits of a few microseconds and pathological
//! multi-second stalls without either losing resolution or allocating
//! per-observation memory.
//!
//! Two properties matter for the telemetry pipeline built on top:
//!
//! * **Mergeable.** [`merge`](HdrHistogram::merge) adds bucket counts;
//!   it is exactly associative and commutative, so per-thread shard
//!   histograms fold into one aggregate whose bytes do not depend on
//!   the number of shards or the merge order.
//! * **Deterministic.** Bucket indexing uses integer bit operations
//!   only (never floating-point `log2`), and the sparse bucket map is
//!   a `BTreeMap`, so identical value streams serialize identically.

use std::collections::BTreeMap;

/// Linear sub-bucket bits per power of two: 2^7 = 128 sub-buckets,
/// bounding relative quantile error by 1/128 < 0.8%.
pub const SUB_BITS: u32 = 7;

/// Number of sub-buckets per power of two (`2^SUB_BITS`).
pub const SUBS: u64 = 1 << SUB_BITS;

/// Highest bucket index a `u64` value can map to.
pub const MAX_INDEX: u32 = ((64 - SUB_BITS) * SUBS as u32) + SUBS as u32 - 1;

/// A mergeable log-bucketed histogram of `u64` values with bounded
/// relative error (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HdrHistogram {
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`None` until the first record).
    pub min: Option<u64>,
    /// Largest recorded value (`None` until the first record).
    pub max: Option<u64>,
    /// Sparse bucket map: bucket index → count.
    pub buckets: BTreeMap<u32, u64>,
}

/// Bucket index for a value (monotone non-decreasing in `v`).
pub fn bucket_index(v: u64) -> u32 {
    if v < SUBS {
        return v as u32;
    }
    // exp >= SUB_BITS because v >= 2^SUB_BITS.
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    // sub is in [SUBS, 2*SUBS).
    let sub = (v >> shift) as u32;
    shift * SUBS as u32 + sub
}

/// Inclusive `(low, high)` value bounds of bucket `i`: every value in
/// `[low, high]` maps to bucket `i`.
pub fn bucket_bounds(i: u32) -> (u64, u64) {
    let subs = SUBS as u32;
    if i < subs {
        return (i as u64, i as u64);
    }
    let shift = i / subs - 1;
    let sub = (subs + i % subs) as u64;
    let low = sub << shift;
    // Bucket width is 1 << shift values; computing `high` from the
    // width (not `(sub + 1) << shift`) keeps the top bucket — whose
    // exclusive upper bound is 2^64 — inside u64.
    let high = low + ((1u64 << shift) - 1);
    (low, high)
}

/// `2^32`: the scale of [`fixed_point`].
const FIXED_SCALE: f64 = 4_294_967_296.0;

/// Maps a finite `v >= 0` to fixed point with 32 fractional bits,
/// `(v·2³²) as u64`, so `f64` distributions (the drift monitor's
/// scores) record into an [`HdrHistogram`]. Returns `None` for `NaN`,
/// `±inf` and negative values.
///
/// The power-of-two scale keeps octaves aligned: a `v` in `[2^k,
/// 2^(k+1))` with `-32 <= k < 32` maps into `[2^(k+32), 2^(k+33))`, so
/// its bit length is `k + 33`. That range, `[2^-32, 2^32)`, is exact;
/// smaller values fold to `0` and values `>= 2^32` saturate to
/// `u64::MAX` (the top bucket).
pub fn fixed_point(v: f64) -> Option<u64> {
    (v.is_finite() && v >= 0.0).then_some((v * FIXED_SCALE) as u64)
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        *self.buckets.entry(bucket_index(v)).or_insert(0) += n;
    }

    /// Folds `other` into `self`. Exactly associative and commutative:
    /// merging per-thread shards yields the same histogram regardless
    /// of shard count or merge order.
    pub fn merge(&mut self, other: &HdrHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-th observation, clamped into the recorded `[min, max]`
    /// range. For any `q`, the estimate `e` and the exact order
    /// statistic `x` satisfy `x <= e <= x * (1 + 1/SUBS)` — the ~1%
    /// error contract the latency reports rely on. Returns `None` when
    /// empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&i, &c) in &self.buckets {
            seen += c;
            if rank <= seen {
                let (_, high) = bucket_bounds(i);
                let high = self.max.map_or(high, |m| high.min(m));
                return Some(self.min.map_or(high, |m| high.max(m)));
            }
        }
        self.max
    }

    /// Convenience snapshot of the standard reporting quantiles
    /// `(p50, p90, p99, p999)`; zeros when empty.
    pub fn standard_quantiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.90).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
            self.quantile(0.999).unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64 for sampling tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new();
        for v in 0..SUBS {
            h.record(v);
        }
        for (i, (&idx, &c)) in h.buckets.iter().enumerate() {
            assert_eq!(idx, i as u32);
            assert_eq!(c, 1);
            assert_eq!(bucket_bounds(idx), (i as u64, i as u64));
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_tight() {
        // Every value maps into the bucket whose bounds contain it, and
        // indexing is monotone across power-of-two boundaries.
        let probes: Vec<u64> = (0..64)
            .flat_map(|e| {
                let p = 1u64 << e;
                [p.saturating_sub(1), p, p.saturating_add(1)]
            })
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut last = 0u32;
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for v in sorted {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i <= MAX_INDEX);
            last = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn buckets_never_straddle_a_power_of_two() {
        // The drift monitor groups buckets into octaves by the bit
        // length of their low bound; that is only a partition if both
        // bounds of every bucket share one bit length.
        let bits = |v: u64| 64 - v.leading_zeros();
        for i in 0..=MAX_INDEX {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bits(lo), bits(hi), "bucket {i} = [{lo}, {hi}]");
        }
    }

    #[test]
    fn fixed_point_scales_by_two_to_the_32() {
        assert_eq!(fixed_point(0.0), Some(0));
        assert_eq!(fixed_point(-0.0), Some(0));
        assert_eq!(fixed_point(1.0), Some(1 << 32));
        assert_eq!(fixed_point(0.5), Some(1 << 31));
        assert_eq!(fixed_point(2f64.powi(-32)), Some(1));
        assert_eq!(
            fixed_point(2f64.powi(-33)),
            Some(0),
            "below 2^-32 folds to 0"
        );
        assert_eq!(fixed_point(2f64.powi(32)), Some(u64::MAX), "saturates");
        assert_eq!(fixed_point(f64::MAX), Some(u64::MAX));
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
        ] {
            assert_eq!(fixed_point(v), None, "{v} must be refused");
        }
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for i in 0..=MAX_INDEX {
            let (lo, hi) = bucket_bounds(i);
            assert!(hi >= lo);
            if lo >= SUBS {
                // width / low <= 1/SUBS: the advertised error bound.
                assert!(
                    (hi - lo) as f64 / lo as f64 <= 1.0 / SUBS as f64,
                    "bucket {i} too wide: [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = Rng(7);
        let shards: Vec<HdrHistogram> = (0..4)
            .map(|_| {
                let mut h = HdrHistogram::new();
                for _ in 0..500 {
                    h.record(rng.next() >> (rng.next() % 50));
                }
                h
            })
            .collect();
        // ((a+b)+c)+d
        let mut left = shards[0].clone();
        for s in &shards[1..] {
            left.merge(s);
        }
        // a+(b+(c+d))
        let mut right = shards[3].clone();
        let mut cd = shards[2].clone();
        cd.merge(&right);
        right = shards[1].clone();
        right.merge(&cd);
        let mut assoc = shards[0].clone();
        assoc.merge(&right);
        assert_eq!(left, assoc, "merge not associative");
        // d+c+b+a
        let mut rev = shards[3].clone();
        for s in shards[..3].iter().rev() {
            rev.merge(s);
        }
        assert_eq!(left, rev, "merge not commutative");
        assert_eq!(left.count, 2000);
    }

    #[test]
    fn quantiles_match_exact_sort_within_error_bound() {
        let mut rng = Rng(42);
        let mut h = HdrHistogram::new();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // Mix magnitudes from sub-microsecond to tens of seconds.
            let v = rng.next() % 10u64.pow(1 + (rng.next() % 7) as u32);
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let x = exact[rank - 1];
            let e = h.quantile(q).expect("non-empty");
            assert!(e >= x, "q={q}: estimate {e} below exact {x}");
            let bound = x + x / SUBS + 1;
            assert!(
                e <= bound,
                "q={q}: estimate {e} above bound {bound} (exact {x})"
            );
        }
    }

    #[test]
    fn empty_and_edge_quantiles() {
        let h = HdrHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.standard_quantiles(), (0, 0, 0, 0));
        let mut h = HdrHistogram::new();
        h.record(7);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(0.0), Some(7));
        assert_eq!(h.quantile(1.0), Some(7));
        assert_eq!((h.min, h.max), (Some(7), Some(7)));
    }

    #[test]
    fn quantile_clamps_into_recorded_range() {
        let mut h = HdrHistogram::new();
        h.record(1_000_003); // bucket upper bound exceeds the value
        assert_eq!(h.quantile(0.5), Some(1_000_003), "clamped to max");
        h.record(2_000_000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((1_000_003..=1_000_003 + 1_000_003 / SUBS + 1).contains(&p50));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        for _ in 0..5 {
            a.record(300);
        }
        b.record_n(300, 5);
        b.record_n(1, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn saturating_sum_never_wraps() {
        let mut h = HdrHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.max, Some(u64::MAX));
    }
}
