//! `probed`: one kernel × three engines through `trace::run_probed` under
//! the two sink stacks users actually run — `repro trace`'s
//! `(NodeProfiler, ChromeTrace)` + report render + JSON validation, and
//! `repro timeline`'s `((Timeline, CountingProbe), StreamProbe)` into a
//! byte-counting writer (no disk). Here `tyr-stats` does most of the work
//! (several times the bare run, hundreds of MB), so this is the only
//! workload where sink consolidation or report changes can show, and the
//! control proving `NoProbe` stays free everywhere else.

use std::io::Write;

use tyr_bench::figures::Ctx;
use tyr_bench::trace::run_probed;
use tyr_bench::{RunConfig, System};
use tyr_sim::{NoProbe, Probe, RunResult};
use tyr_stats::probe::{ChromeTrace, CountingProbe};
use tyr_stats::{NodeProfiler, StreamProbe, Timeline, TimelineConfig};
use tyr_workloads::{by_name, Workload};

use crate::cell::{fnv_words, CellSpec, Digest};
use crate::engines::{split_run, Machine, Params};
use crate::harness::{Bench, Layers, Opts, Setup, Size, TraceCtx};
use crate::host;
use crate::metrics::WorkloadResult;
use crate::span::Tracer;

const KERNELS: [&str; 1] = ["tc"];
/// `(run_probed engine name, system)`.
const ENGINES: [(&str, System); 3] =
    [("tyr", System::Tyr), ("ordered", System::Ordered), ("seqvn", System::SeqVn)];
const STACKS: [Stack; 2] = [Stack::Trace, Stack::Timeline];
/// `NodeProfiler` table rows and heatmap width `repro trace` prints.
const PROFILE_TOP: usize = 10;
const PROFILE_WIDTH: usize = 48;
/// Sparkline width `repro timeline` prints.
const TIMELINE_WIDTH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stack {
    /// `(NodeProfiler, ChromeTrace)` + render + validate.
    Trace,
    /// `((Timeline, CountingProbe), StreamProbe)` into a byte counter.
    Timeline,
}

/// An `io::Write` that only counts.
#[derive(Debug, Default)]
struct ByteCounter(u64);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How the engine is driven with a probe attached: the public
/// `run_probed`, or the hand-sequenced layer calls.
trait Driver {
    fn drive<P: Probe>(
        &self,
        w: &Workload,
        engine: (&str, System),
        probe: P,
        t: &mut Tracer,
    ) -> Result<RunResult, String>;
}

struct Public<'a>(&'a Ctx);

impl Driver for Public<'_> {
    fn drive<P: Probe>(
        &self,
        w: &Workload,
        engine: (&str, System),
        probe: P,
        _t: &mut Tracer,
    ) -> Result<RunResult, String> {
        run_probed(self.0, w, engine.0, probe)
    }
}

struct Split<'a>(&'a RunConfig);

impl Driver for Split<'_> {
    fn drive<P: Probe>(
        &self,
        w: &Workload,
        engine: (&str, System),
        probe: P,
        t: &mut Tracer,
    ) -> Result<RunResult, String> {
        let machine = Machine::of_system(engine.1, self.0.tags);
        let params = Params::of_run_config(self.0);
        split_run(&w.program, &w.memory, &w.args, &machine, &params, probe, t)
    }
}

/// Events and bytes a sink stack emitted.
#[derive(Debug, Default, Clone, Copy)]
struct Emitted {
    events: u64,
    bytes: u64,
}

/// Runs `w` with the sinks of `stack` attached, then does what the CLI does
/// with them: oracle check, report render, document validation. Each step
/// is a span (plain calls under a disabled tracer).
fn run_stack<D: Driver>(
    driver: &D,
    w: &Workload,
    engine: (&str, System),
    stack: Stack,
    t: &mut Tracer,
) -> Result<(RunResult, Emitted), String> {
    let check = |r: &RunResult, t: &mut Tracer| {
        if r.is_complete() {
            t.span("workloads.check", |_| w.check(r.memory())).map_err(|e| e.to_string())
        } else {
            Ok(())
        }
    };
    match stack {
        Stack::Trace => {
            let mut profiler = NodeProfiler::new();
            let mut chrome = ChromeTrace::new();
            let r = driver.drive(w, engine, (&mut profiler, &mut chrome), t)?;
            check(&r, t)?;
            let final_cycle = r.final_cycle();
            let table = t.span("stats.profile.render", |_| {
                profiler.report(final_cycle).render(PROFILE_TOP, PROFILE_WIDTH)
            });
            let json = t.span("stats.chrome.render", |_| chrome.render(final_cycle));
            let kinds = t
                .span("stats.json.parse", |_| ChromeTrace::validate(&json))
                .map_err(|e| format!("emitted trace invalid: {e}"))?;
            t.add("stats.chrome.bytes", json.len() as u64);
            let emitted =
                Emitted { events: kinds.values().sum(), bytes: (json.len() + table.len()) as u64 };
            Ok((r, emitted))
        }
        Stack::Timeline => {
            let mut timeline = Timeline::new(TimelineConfig::default());
            let mut counting = CountingProbe::default();
            let mut stream = StreamProbe::new(ByteCounter::default());
            let r = driver.drive(w, engine, ((&mut timeline, &mut counting), &mut stream), t)?;
            check(&r, t)?;
            let final_cycle = r.final_cycle();
            let chart = t.span("stats.timeline.render", |_| {
                timeline.report(final_cycle).render(TIMELINE_WIDTH)
            });
            let streamed = stream.events();
            let bytes = stream.finish()?.0;
            if streamed != counting.events {
                return Err(format!(
                    "stream holds {streamed} event records but the counting probe saw {}",
                    counting.events
                ));
            }
            t.add("stats.stream.bytes", bytes);
            t.add("stats.stream.events", streamed);
            Ok((r, Emitted { events: streamed, bytes: bytes + chart.len() as u64 }))
        }
    }
}

struct Probed {
    kernels: Vec<Workload>,
    ctx: Ctx,
    cells: Vec<CellSpec>,
}

fn build_kernels(size: Size, seed: u64) -> Vec<Workload> {
    KERNELS.iter().map(|k| by_name(k, size.scale(), seed).expect("a known kernel")).collect()
}

impl Probed {
    fn new(kernels: Vec<Workload>, size: Size, seed: u64) -> Self {
        let ctx =
            Ctx { scale: size.scale(), seed, cfg: RunConfig::default(), csv_dir: None, jobs: 1 };
        let mut cells = Vec::new();
        for w in &kernels {
            for (engine, sys) in ENGINES {
                for stack in STACKS {
                    let id = format!("{}/{engine}/{stack:?}", w.name).to_lowercase();
                    cells.push(CellSpec::new(id, sys.label()));
                }
            }
        }
        Probed { kernels, ctx, cells }
    }

    fn cell(&self, i: usize) -> (&Workload, (&'static str, System), Stack) {
        let per_kernel = ENGINES.len() * STACKS.len();
        let engine = ENGINES[(i % per_kernel) / STACKS.len()];
        (&self.kernels[i / per_kernel], engine, STACKS[i % STACKS.len()])
    }

    /// The digest of a probed run: the simulated statistics plus what the
    /// sinks emitted, which must repeat exactly too.
    fn digest(
        &self,
        i: usize,
        run: Result<(RunResult, Emitted), String>,
    ) -> Result<Digest, String> {
        let (r, emitted) = run?;
        let mut d = Digest::of(&r, self.cells[i].system)?;
        d.out_fnv = fnv_words(d.out_fnv, &[emitted.events as i64, emitted.bytes as i64]);
        Ok(d)
    }

    /// Wall time of one run of every kernel × engine with the sink `make`
    /// builds attached (handed to `done` afterwards), and the instructions
    /// those runs retired.
    fn time_sink<P: Probe>(
        &self,
        mut make: impl FnMut() -> P,
        mut done: impl FnMut(P),
    ) -> Result<(f64, u64), String> {
        let split = Split(&self.ctx.cfg);
        let (mut secs, mut instrs) = (0.0, 0);
        for w in &self.kernels {
            for engine in ENGINES {
                let mut probe = make();
                let (r, s) = host::timed(|| split.drive(w, engine, &mut probe, &mut Tracer::off()));
                done(probe);
                secs += s;
                instrs += r?.dyn_instrs();
            }
        }
        Ok((secs, instrs))
    }
}

impl Bench for Probed {
    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64) {
        let (w, engine, stack) = self.cell(i);
        let (run, secs) =
            host::timed(|| run_stack(&Public(&self.ctx), w, engine, stack, &mut Tracer::off()));
        (self.digest(i, run), secs)
    }

    fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
        let (w, engine, stack) = self.cell(i);
        let run = run_stack(&Split(&self.ctx.cfg), w, engine, stack, t);
        self.digest(i, run)
    }

    fn trace_extras(
        &self,
        ctx: &TraceCtx<'_>,
        t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // One sink at a time against the bare run, so each sink's cost per
        // event is separate from the others'.
        let (bare_s, instrs) = self.time_sink(|| NoProbe, drop)?;
        let mut events = 0u64;
        let (counting_s, _) = self.time_sink(CountingProbe::default, |p| events += p.events)?;
        let events = events.max(1) as f64;
        let per_event = |sink_s: f64| (sink_s - bare_s) * 1e9 / events;
        layers.set("stats.events_per_instr", events / instrs.max(1) as f64);
        layers.set("stats.counting_overhead_pct", (counting_s - bare_s) * 100.0 / bare_s);
        layers.set(
            "stats.timeline_ns_per_event",
            per_event(self.time_sink(|| Timeline::new(TimelineConfig::default()), drop)?.0),
        );
        layers.set(
            "stats.profiler_ns_per_event",
            per_event(self.time_sink(NodeProfiler::new, drop)?.0),
        );
        layers.set(
            "stats.stream_ns_per_event",
            per_event(self.time_sink(|| StreamProbe::new(ByteCounter::default()), drop)?.0),
        );
        layers
            .set("stats.chrome_ns_per_event", per_event(self.time_sink(ChromeTrace::new, drop)?.0));

        let chrome_bytes = t.count("stats.chrome.bytes") as f64;
        layers.set("stats.chrome_render_ms", t.total_s("stats.chrome.render") * 1e3);
        layers.set(
            "stats.json_parse_mb_per_s",
            chrome_bytes / 1e6 / t.total_s("stats.json.parse").max(1e-9),
        );
        layers.set("stats.chrome_json_mb", chrome_bytes / 1e6);
        layers.set(
            "stats.stream_bytes_per_event",
            t.count("stats.stream.bytes") as f64 / t.count("stats.stream.events").max(1) as f64,
        );
        // Each kernel × engine is probed under both stacks, so the bare
        // equivalent of the workload is every bare run twice.
        layers.set("stats.probe_overhead_x", ctx.wall_s / (bare_s * STACKS.len() as f64));
        Ok(())
    }
}

/// Runs the `probed` workload.
pub fn run(name: &str, opts: &Opts) -> (WorkloadResult, Option<String>) {
    let setup = Setup::measure(|| build_kernels(opts.size, opts.seed));
    let probed = Probed::new(build_kernels(opts.size, opts.seed), opts.size, opts.seed);
    crate::harness::measure(name, opts, &probed, &setup)
}
