//! Small measurement helpers: percentiles, best-of-passes samples, time
//! conversion, live heap.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`, which are sorted
/// in place. 0.0 for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (nearest rank), sorting them in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Fold one pass's per-position samples into `best`, keeping the smallest
/// value seen at each position. Every pass runs the same stream on a fresh
/// detector, so position `i` is the same work in every pass; its smallest
/// time is that work with the least interference from the host's other
/// tenants, which only ever adds time.
pub fn keep_min(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    }
    for (b, &x) in best.iter_mut().zip(pass) {
        *b = b.min(x);
    }
}

/// A duration in nanoseconds.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Bytes the allocator has handed out and not yet had back, in MB: the
/// program's live heap. Unlike resident memory it does not depend on how
/// freed memory lies in the allocator's per-thread arenas, which varies from
/// run to run once the engine's pool threads have allocated.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn heap_mb() -> f64 {
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments, returns its struct by value
    // with the layout declared above (glibc 2.33 and later), and locks each
    // arena while it reads it.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Without glibc's statistics, the resident set size from
/// `/proc/self/status` stands in.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn heap_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn keep_min_is_elementwise() {
        let mut best = Vec::new();
        keep_min(&mut best, &[3.0, 1.0, 2.0]);
        keep_min(&mut best, &[2.0, 4.0, 2.5]);
        assert_eq!(best, vec![2.0, 1.0, 2.0]);
    }
}
