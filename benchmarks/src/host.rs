//! Host-side measurements: wall clock, on-CPU time, peak resident memory,
//! and the order statistics every timing in this benchmark is reported as.

use std::time::Instant;

/// Runs `f` and returns its result with the wall time it took, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Puts the allocator in the state a long-lived `repro` process is in, by
/// allocating and freeing one large block (zeroed, so never resident).
///
/// glibc serves blocks above its mmap threshold (128 KiB at start) with
/// `mmap`, and returns the top of the heap to the kernel when more than its
/// trim threshold is free there; the first time an `mmap`ed block is freed
/// it raises both past that block's size. The Small-scale kernels' arrays
/// straddle 128 KiB, so in a fresh process it depended on the seed whether
/// a run ever crossed that line — and when it did not, every set-up repeat
/// re-faulted the pages the previous one had trimmed: `setup_s` of the
/// suites read 1.43 ms on some seeds and 1.85 ms on others, the same in
/// every process. Any `repro` subcommand crosses the line in its first
/// moments; this makes every workload start past it.
pub fn prime_allocator() {
    drop(std::hint::black_box(vec![0u8; 4 << 20]));
}

/// Peak resident set size (`VmHWM`) of this process in MB; 0 if `/proc` is
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU, from the first field
/// of `/proc/thread-self/schedstat`; `None` where the kernel does not
/// provide it.
pub fn on_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Median of `values` (mean of the two middle elements for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range over the median — the run-to-run spread statistic
/// the bounds are compared against. Quartiles use the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); 0 below four samples.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let n = values.len();
    let m = median(values);
    if n < 4 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quantile(0.75) - quantile(0.25)) / m
}

/// How far the second-smallest of `values` lies above the smallest, as a
/// share of it: the spread of a statistic that is a minimum. It says how
/// well the run reproduced its own fastest pass, works from two samples up
/// (a time-limited run may make only three passes), and ignores what a
/// minimum ignores — `probed`'s first pass, which faults in 1.1 GB, is 40 %
/// slower than the rest in every run. 0 below two samples.
pub fn runner_up_gap(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v[..] {
        [min, next, ..] if min > 0.0 => (next - min) / min,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn relative_iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn runner_up_gap_works_at_three_passes_and_ignores_a_slow_first_one() {
        assert!((runner_up_gap(&[6.0, 4.4, 4.0]) - 0.1).abs() < 1e-12);
        assert_eq!(runner_up_gap(&[4.0, 4.0]), 0.0);
        assert_eq!(runner_up_gap(&[4.0]), 0.0);
        assert_eq!(runner_up_gap(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.5);
        let before = on_cpu_ns().expect("schedstat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(on_cpu_ns().expect("schedstat") > before);
    }
}
