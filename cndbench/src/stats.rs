//! Order statistics, histogram deltas, set-up timing, and process
//! memory.

use std::time::Instant;

use cnd_obs::hdr::{bucket_bounds, HdrHistogram};

use crate::BenchError;

/// Linearly interpolated quantile of `values` (sorted in place).
/// Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median over groups (passes, blocks) of each group's quantile `q`: a
/// group slowed by a busy neighbour moves one value, not the median.
pub fn median_of_quantiles<'a>(groups: impl IntoIterator<Item = &'a [f64]>, q: f64) -> f64 {
    let mut per_group: Vec<f64> = groups
        .into_iter()
        .map(|g| quantile(&mut g.to_vec(), q))
        .collect();
    median(&mut per_group)
}

/// Runs a set-up `reps` times, dropping each result before the next
/// one is built, and returns the last result with the median time.
pub fn timed_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<T, BenchError>,
) -> Result<(T, f64), BenchError> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let built = kept.expect("at least one repetition ran");
    Ok((built, median(&mut times)))
}

/// What `after` recorded that `before` had not: bucket-wise difference
/// of two snapshots of one growing histogram. `min`/`max` are widened
/// to the surviving buckets' bounds.
pub fn hdr_delta(after: &HdrHistogram, before: &HdrHistogram) -> HdrHistogram {
    let mut d = HdrHistogram::new();
    for (&i, &c) in &after.buckets {
        let n = c.saturating_sub(before.buckets.get(&i).copied().unwrap_or(0));
        if n > 0 {
            d.buckets.insert(i, n);
            d.count += n;
        }
    }
    d.sum = after.sum.saturating_sub(before.sum);
    d.min = d.buckets.keys().next().map(|&i| bucket_bounds(i).0);
    d.max = d.buckets.keys().next_back().map(|&i| bucket_bounds(i).1);
    d
}

/// Grouped-data quantile of an integer-valued histogram: the rank is
/// interpolated across the bucket that holds it, treating bucket `i` as
/// the continuous interval `[low − ½, high + ½]`. Server telemetry
/// records whole microseconds, so `HdrHistogram::quantile` (a bucket
/// bound) reads the same integer run after run for the few-µs stages
/// (parse, batch form, write ≈ 3–5 µs) and for the queue depth (64);
/// interpolating keeps the sub-microsecond movement a change makes.
pub fn hdr_quantile(h: &HdrHistogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0u64;
    for (&i, &c) in &h.buckets {
        if rank <= (seen + c) as f64 {
            let (low, high) = bucket_bounds(i);
            let width = (high - low + 1) as f64;
            let frac = (rank - seen as f64) / c as f64;
            return low as f64 - 0.5 + frac * width;
        }
        seen += c;
    }
    h.max.unwrap_or(0) as f64
}

/// Makes glibc's allocator keep freed memory in the process: blocks up
/// to 32 MiB come from the heap rather than fresh mappings, and the top
/// of the heap is never handed back to the kernel. By default both
/// limits move with the allocation history, so whether a repeated
/// set-up reuses its predecessor's pages or faults in new ones (≈1,400
/// minor faults, more than half of a `continual_train` set-up) changed
/// from process to process, even for one seed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters, under the
    // allocator's own lock.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if !ok {
        eprintln!("mallopt refused: freed memory may still be returned to the kernel");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

/// Resets the kernel's resident-set high-water mark (VmHWM) to the
/// current RSS, so the next [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("cannot reset VmHWM: peak_rss_mib covers the whole process");
    }
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn hdr_delta_keeps_only_new_records() {
        let mut h = HdrHistogram::new();
        h.record(10);
        let before = h.clone();
        h.record(20);
        h.record(20);
        let d = hdr_delta(&h, &before);
        assert_eq!(d.count, 2);
        assert!((hdr_quantile(&d, 0.5) - 20.0).abs() <= 0.5);
    }
}
