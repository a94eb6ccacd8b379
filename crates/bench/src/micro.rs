//! A tiny, dependency-free micro-benchmark harness.
//!
//! Criterion needs registry access the build environment does not have, so
//! the `cargo bench` targets run on this harness instead: each benchmark is
//! warmed briefly, then timed in batches for a fixed measurement window, and
//! the per-iteration mean/min wall times are printed in a stable one-line
//! format. That is enough to compare the two rows of a bench pair at a
//! glance (end-to-end host time is `benchmarks/`'s job); statistical rigor
//! beyond min/mean is out of scope.
//!
//! Usage from a `harness = false` bench target:
//!
//! ```no_run
//! let mut b = tyr_bench::micro::Harness::from_args("store");
//! b.bench("row_access/dense/fused", || { /* work */ });
//! b.finish();
//! ```

use std::time::{Duration, Instant};

/// Default time spent warming each benchmark before measurement.
const WARM_UP: Duration = Duration::from_millis(200);
/// Default measurement window per benchmark.
const MEASURE: Duration = Duration::from_secs(1);

/// A benchmark suite: runs each registered closure and prints a report line.
pub struct Harness {
    suite: &'static str,
    /// Substring filter from the command line (cargo forwards trailing args).
    filter: Option<String>,
    ran: usize,
    skipped: usize,
}

impl Harness {
    /// A harness whose filter comes from the process arguments, matching
    /// cargo's bench-filter convention: the first non-flag argument is a
    /// substring filter; flags (`--bench`, `--exact`, …) are ignored.
    pub fn from_args(suite: &'static str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness { suite, filter, ran: 0, skipped: 0 }
    }

    /// Runs one benchmark (unless filtered out) and prints its timing line.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                self.skipped += 1;
                return;
            }
        }
        self.ran += 1;

        // Warm-up: also sizes the measurement batches so that `Instant::now`
        // overhead stays negligible for sub-microsecond bodies.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARM_UP {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;
        let batch = (Duration::from_millis(1).as_nanos() / per_iter.as_nanos().max(1))
            .clamp(1, 1 << 20) as u64;

        let mut total_iters: u64 = 0;
        let mut min_batch = Duration::MAX;
        let start = Instant::now();
        while start.elapsed() < MEASURE {
            let batch_start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            min_batch = min_batch.min(batch_start.elapsed());
            total_iters += batch;
        }
        let elapsed = start.elapsed();

        let mean_ns = elapsed.as_nanos() as f64 / total_iters as f64;
        let min_ns = min_batch.as_nanos() as f64 / batch as f64;
        println!(
            "{}/{:<40} {:>10} iters   mean {:>14}   min {:>14}",
            self.suite,
            name,
            total_iters,
            fmt_ns(mean_ns),
            fmt_ns(min_ns),
        );
    }

    /// Prints the suite summary. Call once after the last benchmark.
    pub fn finish(self) {
        println!("{}: {} benchmark(s) run, {} filtered out", self.suite, self.ran, self.skipped);
    }
}

/// Renders nanoseconds with an adaptive unit, aligned for table output.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:.2} s/iter", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert!(fmt_ns(12.3).contains("ns"));
        assert!(fmt_ns(12_300.0).contains("µs"));
        assert!(fmt_ns(12_300_000.0).contains("ms"));
        assert!(fmt_ns(12_300_000_000.0).contains("s/iter"));
    }
}
