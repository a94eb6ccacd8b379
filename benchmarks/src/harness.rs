//! The measurement loop shared by every workload.
//!
//! Closed loop, one client: one process, one thread, one cell at a time.
//! Per workload: set-up repeats (timed by the workload module) → timed
//! passes with tracing off → (with `--trace`) one traced pass through the
//! hand-sequenced layer calls, then the workload's extra layer
//! measurements. End-to-end metrics never come from the traced pass.
//!
//! There is no separate warm-up pass: the set-up repeats have grown the
//! heap, a first pass measured no slower than later ones beyond this
//! host's pass-to-pass noise, and under the driver's time cap a pass spent
//! warming is a timed pass not taken. The per-cell minimum over the passes
//! absorbs a slow first sample.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tyr_stats::probe::{Probe, ProbeEvent, StallReason};

use crate::cell::{CellSpec, Digest, Engine};
use crate::host;
use crate::metrics::{Value, WorkloadResult, PER_LAYER};
use crate::span::{SpanTotals, Tracer};

/// Fewest set-up repeats behind `setup_s`.
pub const SETUP_REPEATS: usize = 15;
/// Set-up is repeated until this many seconds have passed. A fresh process
/// on this host runs 1.3–2.2× slower for its first 30–60 ms, and fifteen
/// repeats of a 1 ms set-up put the median inside that ramp (README,
/// "Noise"); a quarter of a second puts it well past.
const SETUP_MIN_SECONDS: f64 = 0.5;
/// Fewest timed passes a time-limited run makes.
pub const MIN_PASSES: usize = 3;
/// Timed passes when neither `--passes` nor `--seconds` is given.
pub const DEFAULT_PASSES: usize = 5;
/// A timed pass that got less than this share of a CPU is re-run.
pub const MIN_CPU_OVER_WALL: f64 = 0.9;
/// Passes shorter than this (50 ms) are never marked disturbed.
const MIN_JUDGED_PASS_NS: f64 = 50e6;
/// At most this many disturbed passes are re-run per workload.
pub const MAX_RERUNS: usize = 2;

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper (`Scale::Small` inputs, full cell lists).
    Full,
    /// `--smoke`: tiny inputs and short cell lists, for `check.sh`.
    Smoke,
}

impl Size {
    /// The `tyr-workloads` input scale this size builds kernels at.
    pub fn scale(self) -> tyr_workloads::Scale {
        match self {
            Size::Full => tyr_workloads::Scale::Small,
            Size::Smoke => tyr_workloads::Scale::Tiny,
        }
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the only source of randomness.
    pub seed: u64,
    /// Minimum number of timed passes.
    pub passes: usize,
    /// Keep making timed passes until this many seconds have been measured.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// One workload, as the measurement loop sees it.
pub trait Bench {
    /// The cells, in run order.
    fn cells(&self) -> &[CellSpec];

    /// Runs cell `i` through the public harness call and returns its digest
    /// with the wall time of exactly that call, in seconds.
    fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64);

    /// Runs cell `i` through the hand-sequenced layer calls, under spans.
    fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String>;

    /// Workload-specific layer measurements made after the traced pass.
    ///
    /// # Errors
    ///
    /// A measurement run that faulted; counted as one failed operation.
    fn trace_extras(
        &self,
        _ctx: &TraceCtx<'_>,
        _t: &mut Tracer,
        _layers: &mut Layers,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// What the untraced passes established, for [`Bench::trace_extras`].
pub struct TraceCtx<'a> {
    /// `digests[i]` is cell `i`'s reference digest (`None` if it never ran
    /// clean).
    pub digests: &'a [Option<Digest>],
    /// The workload's `wall_s`.
    pub wall_s: f64,
}

/// Set-up timing, measured by the workload module around its own input
/// construction.
pub struct Setup {
    /// Seconds per repeat.
    pub samples: Vec<f64>,
}

impl Setup {
    /// Times `build` at least [`SETUP_REPEATS`] times and for at least
    /// [`SETUP_MIN_SECONDS`], dropping each result.
    pub fn measure<T>(mut build: impl FnMut() -> T) -> Setup {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
            let (built, secs) = host::timed(&mut build);
            drop(std::hint::black_box(built));
            samples.push(secs);
        }
        Setup { samples }
    }
}

/// Per-layer metrics by name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, Value>);

impl Layers {
    /// Records per-layer metric `name`; non-finite values become 0.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`] — a typo must not silently
    /// drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|&&(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("'{name}' is not a declared per-layer metric"))
            .1;
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), Value::exact(value, unit));
    }
}

/// Counting sink for the traced run: total events, tag allocations, and
/// stall intervals opened, by reason.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCounts {
    /// Every event.
    pub events: u64,
    /// `TagAllocated` events.
    pub tag_allocs: u64,
    /// `StallBegin` events by [`StallReason::index`].
    pub stalls: [u64; 3],
}

impl Probe for EventCounts {
    fn event(&mut self, _cycle: u64, ev: ProbeEvent) {
        self.events += 1;
        match ev {
            ProbeEvent::TagAllocated { .. } => self.tag_allocs += 1,
            ProbeEvent::StallBegin { reason, .. } => self.stalls[reason.index()] += 1,
            _ => {}
        }
    }
}

impl EventCounts {
    /// Records the counts as the `sim.*` stall and tag-allocation metrics.
    pub fn record(&self, layers: &mut Layers) {
        layers.set("sim.tagged.tag_allocs", self.tag_allocs as f64);
        layers.set(
            "sim.tagged.stalls_tag_starved",
            self.stalls[StallReason::TagStarved.index()] as f64,
        );
        layers.set(
            "sim.tagged.stalls_partial_match",
            self.stalls[StallReason::PartialMatch.index()] as f64,
        );
        layers.set(
            "sim.ordered.stalls_back_pressure",
            self.stalls[StallReason::BackPressure.index()] as f64,
        );
    }
}

/// Failure bookkeeping: every run of a cell is an attempt; a failed run is
/// named by cell.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, spec: &CellSpec, phase: &str, why: &str) {
        self.failed += spec.ops;
        // One line per failure, capped so a systematic failure stays readable.
        if self.failures.len() < 50 {
            self.failures.push(format!("{} [{phase}]: {why}", spec.id));
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

/// Checks one cell run against the expectation table and the digest the
/// cell produced before; the first run of a cell sets the reference.
fn judge(
    spec: &CellSpec,
    result: Result<Digest, String>,
    reference: &mut Option<Digest>,
) -> Result<(), String> {
    let digest = result?;
    digest.expect(spec.expect)?;
    match reference {
        None => *reference = Some(digest),
        Some(want) if *want != digest => {
            return Err(format!("simulated statistics differ: [{digest}] vs earlier [{want}]"));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Σ `f(digest)` over the cells that have a reference digest.
fn sum_over(digests: &[Option<Digest>], f: &dyn Fn(&Digest) -> u64) -> f64 {
    digests.iter().flatten().map(|d| f(d) as f64).sum()
}

/// One untraced pass over every cell. Returns each cell's wall time
/// (`None` for a failed cell) and the pass's on-CPU share.
fn run_pass(
    bench: &dyn Bench,
    phase: &str,
    reference: &mut [Option<Digest>],
    tally: &mut Tally,
) -> (Vec<Option<f64>>, f64) {
    let cpu0 = host::on_cpu_ns();
    let start = Instant::now();
    let secs = bench
        .cells()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            tally.attempted += spec.ops;
            let (result, secs) = catch_unwind(AssertUnwindSafe(|| bench.run_cell(i)))
                .unwrap_or_else(|p| (Err(format!("panicked: {}", panic_text(p))), 0.0));
            match judge(spec, result, &mut reference[i]) {
                Ok(()) => Some(secs),
                Err(why) => {
                    tally.fail(spec, phase, &why);
                    None
                }
            }
        })
        .collect();
    let wall_ns = start.elapsed().as_nanos() as f64;
    // The kernel accounts on-CPU time at scheduler-tick granularity, so a
    // pass shorter than a few ticks cannot be judged.
    let cpu_over_wall = match (cpu0, host::on_cpu_ns()) {
        (Some(a), Some(b)) if wall_ns >= MIN_JUDGED_PASS_NS => (b - a) as f64 / wall_ns,
        _ => 1.0,
    };
    (secs, cpu_over_wall)
}

/// Runs the whole measurement for one workload and returns its metrics;
/// with `opts.trace` also returns the spans as a JSON document.
pub fn measure(
    name: &str,
    opts: &Opts,
    bench: &dyn Bench,
    setup: &Setup,
) -> (WorkloadResult, Option<String>) {
    let cells = bench.cells();
    let mut tally = Tally::default();
    let mut reference: Vec<Option<Digest>> = vec![None; cells.len()];

    let mut passes: Vec<Vec<Option<f64>>> = Vec::new();
    let mut cpu_shares = Vec::new();
    let mut disturbed = 0usize;
    let measuring = Instant::now();
    while passes.len() < opts.passes || measuring.elapsed().as_secs_f64() < opts.seconds {
        let phase = format!("pass {}", passes.len() + 1);
        let (secs, cpu_over_wall) = run_pass(bench, &phase, &mut reference, &mut tally);
        if cpu_over_wall < MIN_CPU_OVER_WALL && disturbed < MAX_RERUNS {
            disturbed += 1;
            continue;
        }
        passes.push(secs);
        cpu_shares.push(cpu_over_wall);
    }
    let peak_rss_mb = host::peak_rss_mb();

    // Per-cell statistics, not a statistic of pass totals: one slow cell in
    // one pass must not move the sum. The statistic is the minimum: the
    // simulator is deterministic and single-threaded, so a cell's cost is
    // fixed and what varies is interference from the host, which only ever
    // adds time and arrives in episodes longer than a pass. On this host
    // the per-cell minimum halved the run-to-run spread of the per-cell
    // median (README, "Noise"); the median is kept as a layer metric.
    let cell_samples = |i: usize| -> Vec<f64> { passes.iter().filter_map(|p| p[i]).collect() };
    let wall_s: f64 = (0..cells.len())
        .map(|i| cell_samples(i).into_iter().fold(f64::INFINITY, f64::min))
        .filter(|s| s.is_finite())
        .sum();
    let wall_median_s: f64 = (0..cells.len()).map(|i| host::median(&cell_samples(i))).sum();
    let pass_totals: Vec<f64> =
        passes.iter().map(|p| p.iter().map(|s| s.unwrap_or(0.0)).sum()).collect();

    let sum = |f: &dyn Fn(&Digest) -> u64| sum_over(&reference, f);
    let mut out = WorkloadResult::default();
    let host_value = |value: f64, unit: &str, samples: &[f64], spread: f64| Value {
        value,
        unit: unit.to_string(),
        samples: samples.len() as u64,
        spread,
    };
    let e2e = &mut out.end_to_end;
    // `wall_s` is a minimum, so its spread is how closely the runner-up
    // pass reproduced the fastest one; `setup_s` is a median.
    let wall_spread = host::runner_up_gap(&pass_totals);
    let setup_spread = host::relative_iqr(&setup.samples);
    e2e.insert("wall_s".into(), host_value(wall_s, "s", &pass_totals, wall_spread));
    e2e.insert("peak_rss_mb".into(), host_value(peak_rss_mb, "MB", &[], 0.0));
    let setup_s = host::median(&setup.samples);
    e2e.insert("setup_s".into(), host_value(setup_s, "s", &setup.samples, setup_spread));
    e2e.insert("sim_cycles".into(), Value::exact(sum(&|d| d.cycles), "cycles"));
    e2e.insert("tyr_cycles".into(), Value::exact(sum(&|d| d.tyr_cycles), "cycles"));
    e2e.insert("sim_dyn_instrs".into(), Value::exact(sum(&|d| d.dyn_instrs), "instrs"));
    e2e.insert("sim_peak_live".into(), Value::exact(sum(&|d| d.peak_live), "tokens"));

    let mut trace_json = None;
    if opts.trace {
        let mut layers = Layers::default();
        let mut t = Tracer::on();
        t.span("workload", |t| {
            t.span("pass", |t| {
                for (i, spec) in cells.iter().enumerate() {
                    t.set_cell(i as u32);
                    tally.attempted += spec.ops;
                    let depth = t.depth();
                    let result = t.span("cell", |t| {
                        catch_unwind(AssertUnwindSafe(|| bench.trace_cell(i, t)))
                            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))))
                    });
                    t.unwind_to(depth);
                    // Split-path parity: the layer calls must describe the
                    // same configuration as the public call.
                    if let Err(why) = judge(spec, result, &mut reference[i]) {
                        tally.fail(spec, "traced pass, split path vs public call", &why);
                    }
                }
            });
            t.set_cell(u32::MAX);
            generic_layers(t, cells, &reference, wall_median_s, setup, &mut layers);
            tally.attempted += 1;
            let ctx = TraceCtx { digests: &reference, wall_s };
            let extras = t.span("bench.extras", |t| bench.trace_extras(&ctx, t, &mut layers));
            if let Err(why) = extras {
                tally.fail(
                    &CellSpec::new("layer measurements", "all"),
                    "after the traced pass",
                    &why,
                );
            }
        });
        layers.set("bench.cpu_over_wall", host::median(&cpu_shares));
        layers.set("bench.disturbed_passes", disturbed as f64);
        layers.set("bench.timed_passes", passes.len() as f64);
        layers.set("bench.wall_median_s", wall_median_s);
        layers.set("bench.fail_share", tally.failed as f64 / tally.attempted.max(1) as f64);
        out.per_layer = layers.0;
        let ids: Vec<String> = cells.iter().map(|c| c.id.clone()).collect();
        trace_json = Some(t.to_json(name, &ids));
    }

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.failures = tally.failures;
    (out, trace_json)
}

/// `sim.E.new_us`, `sim.E.ns_per_instr` and `sim.E.minstr_per_s` of `engine`
/// from its `new`/`run` spans in `totals` and its instruction count; returns
/// the two span totals.
pub fn engine_rates(
    t: &Tracer,
    totals: &BTreeMap<&'static str, SpanTotals>,
    engine: Engine,
    layers: &mut Layers,
) -> (SpanTotals, SpanTotals) {
    let e = engine.name();
    let get = |name: String| totals.get(name.as_str()).copied().unwrap_or_default();
    let (new, run) = (get(format!("sim.{e}.new")), get(format!("sim.{e}.run")));
    let instrs = t.count(&format!("sim.{e}.instrs")) as f64;
    let run_ns = run.total_ns as f64;
    layers.set(&format!("sim.{e}.new_us"), new.total_ns as f64 / 1e3 / new.count.max(1) as f64);
    layers.set(&format!("sim.{e}.ns_per_instr"), run_ns / instrs.max(1.0));
    layers.set(&format!("sim.{e}.minstr_per_s"), instrs * 1e3 / run_ns.max(1.0));
    (new, run)
}

/// The layer metrics every workload shares, from the traced pass's spans
/// and counts and the cells' reference digests.
fn generic_layers(
    t: &Tracer,
    cells: &[CellSpec],
    digests: &[Option<Digest>],
    wall_median_s: f64,
    setup: &Setup,
    layers: &mut Layers,
) {
    let totals = t.totals_under("pass");
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let pass_ns = get("pass").total_ns.max(1) as f64;
    let per_call_us = |s: SpanTotals| s.total_ns as f64 / 1e3 / s.count.max(1) as f64;

    layers.set("workloads.build_ms", host::median(&setup.samples) * 1e3);
    layers.set("workloads.check_ms", get("workloads.check").total_ns as f64 / 1e6);
    for (metric, span) in [
        ("lang.compile_us_per_kernel", "lang.compile"),
        ("ir.validate_us_per_program", "ir.validate"),
        ("dfg.lower_tagged_us_per_program", "dfg.lower_tagged"),
        ("dfg.lower_ordered_us_per_program", "dfg.lower_ordered"),
        ("verify.static_us_per_graph", "verify.static"),
        ("verify.tv_us_per_program", "verify.tv"),
        ("verify.shard_us_per_graph", "verify.shard"),
    ] {
        layers.set(metric, per_call_us(get(span)));
    }
    for count in [
        "lang.source_bytes",
        "dfg.nodes_tyr",
        "dfg.nodes_unordered",
        "dfg.nodes_ordered",
        "verify.diagnostics",
    ] {
        layers.set(count, t.count(count) as f64);
    }
    let interp_ns = get("ir.interp").total_ns.max(1) as f64;
    layers.set("ir.interp_minstr_per_s", t.count("ir.interp.instrs") as f64 * 1e3 / interp_ns);

    for engine in Engine::ALL {
        let e = engine.name();
        let (new, run) = engine_rates(t, &totals, engine, layers);
        let run_ns = run.total_ns as f64;
        layers.set(
            &format!("sim.{e}.share_pct"),
            (new.self_ns + run.self_ns) as f64 * 100.0 / pass_ns,
        );
        if matches!(engine, Engine::Tagged | Engine::Ordered) {
            let cycles = t.count(&format!("sim.{e}.cycles")).max(1) as f64;
            layers.set(&format!("sim.{e}.ns_per_cycle"), run_ns / cycles);
        }
    }

    let sum = |f: &dyn Fn(&Digest) -> u64| sum_over(digests, f);
    layers.set("sim.mem_loads", sum(&|d| d.mem_loads));
    layers.set("sim.mem_stores", sum(&|d| d.mem_stores));
    layers.set("sim.cache.mshr_stalls", sum(&|d| d.mshr_stalls));
    layers.set(
        "sim.tagged.store_peak",
        digests.iter().flatten().map(|d| d.store_peak).max().unwrap_or(0) as f64,
    );
    layers.set(
        "sim.event.skipped_pct",
        sum(&|d| d.skipped_cycles) * 100.0 / sum(&|d| d.cycles).max(1.0),
    );
    let miss_pct = |system: &str, level: usize| {
        let (mut hits, mut misses) = (0u64, 0u64);
        for (spec, d) in cells.iter().zip(digests) {
            if let (true, Some(d)) = (spec.system == system, d) {
                let (h, m) = [(d.l1_hits, d.l1_misses), (d.l2_hits, d.l2_misses)][level];
                hits += h;
                misses += m;
            }
        }
        misses as f64 * 100.0 / (hits + misses).max(1) as f64
    };
    layers.set("sim.cache.l1_miss_pct_tyr", miss_pct("TYR", 0));
    layers.set("sim.cache.l1_miss_pct_unordered", miss_pct("unordered", 0));
    layers.set("sim.cache.l1_miss_pct_ordered", miss_pct("ordered", 0));
    layers.set("sim.cache.l2_miss_pct_tyr", miss_pct("TYR", 1));

    // Time inside named layer calls, against the traced pass and against
    // the untraced public calls.
    let glue_ns = (get("pass").self_ns + get("cell").self_ns) as f64;
    let cell_ns = get("cell").total_ns as f64;
    // One traced pass is compared with the typical untraced pass (per-cell
    // medians), not with the per-cell minima behind `wall_s`.
    let wall_ns = (wall_median_s * 1e9).max(1.0);
    layers.set("bench.layers_accounted_pct", (pass_ns - glue_ns) * 100.0 / pass_ns);
    layers.set(
        "bench.run_system_glue_pct",
        (wall_ns - (cell_ns - get("cell").self_ns as f64)) * 100.0 / wall_ns,
    );
    layers.set("bench.trace_overhead_pct", (cell_ns - wall_ns) * 100.0 / wall_ns);
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::cell::Expect;

    /// How the fake's second cell misbehaves.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// A different cycle count on every run.
        Drift,
        Panic,
        /// Completes although the table says it must deadlock.
        WrongOutcome,
        /// The split path simulates a different configuration.
        SplitDiffers,
        /// Sleeps instead of computing, so the pass gets no CPU.
        Sleeps,
    }

    struct Fake {
        cells: Vec<CellSpec>,
        fault: Fault,
        runs: Cell<u64>,
    }

    impl Fake {
        fn new(fault: Fault) -> Self {
            let mut cells =
                vec![CellSpec::new("a/TYR", "TYR"), CellSpec::new("b/ordered", "ordered")];
            if fault == Fault::WrongOutcome {
                cells[1].expect = Expect::Deadlock;
            }
            Fake { cells, fault, runs: Cell::new(0) }
        }

        fn digest(&self, i: usize) -> Digest {
            let cycles = 100 * (i as u64 + 1);
            Digest { cycles, tyr_cycles: if i == 0 { cycles } else { 0 }, ..Digest::default() }
        }
    }

    impl Bench for Fake {
        fn cells(&self) -> &[CellSpec] {
            &self.cells
        }

        fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64) {
            self.runs.set(self.runs.get() + 1);
            let mut d = self.digest(i);
            match (i, self.fault) {
                (1, Fault::Drift) => d.cycles += self.runs.get(),
                (1, Fault::Panic) => panic!("engine fault"),
                (1, Fault::Sleeps) => std::thread::sleep(std::time::Duration::from_millis(80)),
                _ => {}
            }
            (Ok(d), 0.5 + i as f64)
        }

        fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
            let mut d = t.span("sim.tagged.run", |_| self.digest(i));
            if (i, self.fault) == (1, Fault::SplitDiffers) {
                d.dyn_instrs += 1;
            }
            Ok(d)
        }
    }

    fn opts(passes: usize, trace: bool) -> Opts {
        Opts { seed: 1, passes, seconds: 0.0, trace, size: Size::Smoke }
    }

    fn run(fault: Fault, passes: usize, trace: bool) -> WorkloadResult {
        let setup = Setup { samples: vec![0.01, 0.02, 0.03] };
        measure("fake", &opts(passes, trace), &Fake::new(fault), &setup).0
    }

    #[test]
    fn a_clean_run_sums_per_cell_minima_and_simulated_counts() {
        let r = run(Fault::None, 3, false);
        assert_eq!((r.attempted, r.failed), (6, 0));
        let value = |m: &str| r.end_to_end[m].value;
        assert_eq!(value("wall_s"), 2.0);
        assert_eq!(r.end_to_end["wall_s"].samples, 3);
        assert_eq!(value("setup_s"), 0.02);
        assert_eq!((value("sim_cycles"), value("tyr_cycles")), (300.0, 100.0));
        assert!(value("peak_rss_mb") > 0.0);
        assert!(r.per_layer.is_empty());
    }

    #[test]
    fn statistics_that_differ_between_passes_fail_the_cell_by_name() {
        let r = run(Fault::Drift, 3, false);
        assert_eq!((r.attempted, r.failed), (6, 2));
        assert!(r.failures[0].starts_with("b/ordered [pass 2]: simulated statistics differ"));
        // The failed runs contribute no time: cell b keeps its clean sample.
        assert_eq!(r.end_to_end["wall_s"].value, 2.0);
    }

    #[test]
    fn a_panicking_cell_is_a_failed_operation_not_a_crash() {
        let r = run(Fault::Panic, 2, false);
        assert_eq!(r.failed, 2);
        assert!(r.failures[0].contains("panicked: engine fault"), "{:?}", r.failures);
        assert_eq!(r.end_to_end["wall_s"].value, 0.5);
    }

    #[test]
    fn the_wrong_outcome_class_fails_the_cell() {
        let r = run(Fault::WrongOutcome, 1, false);
        assert_eq!(r.failed, 1);
        assert!(r.failures[0].contains("must deadlock"));
    }

    #[test]
    fn the_traced_pass_checks_split_path_parity_and_reports_layers() {
        let clean = run(Fault::None, 1, true);
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        // One timed pass, one traced pass, and the layer measurements.
        assert_eq!(clean.attempted, 5);
        assert_eq!(clean.per_layer["bench.timed_passes"].value, 1.0);
        assert!(clean.per_layer["sim.tagged.share_pct"].value > 0.0);

        let r = run(Fault::SplitDiffers, 1, true);
        assert_eq!(r.failed, 1);
        assert!(r.failures[0].starts_with("b/ordered [traced pass, split path vs public call]"));
    }

    #[test]
    fn a_pass_that_got_no_cpu_is_rerun_at_most_twice() {
        let r = run(Fault::Sleeps, 2, true);
        assert_eq!(r.per_layer["bench.disturbed_passes"].value, MAX_RERUNS as f64);
        assert_eq!(r.per_layer["bench.timed_passes"].value, 2.0);
        assert!(r.per_layer["bench.cpu_over_wall"].value < MIN_CPU_OVER_WALL);
        assert_eq!(r.failed, 0);
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn an_undeclared_layer_metric_is_a_bug() {
        Layers::default().set("sim.tagged.typo", 1.0);
    }
}
