//! `suite_ideal`, `suite_lat200`, `suite_cached`: the Table II kernels on
//! all five systems through `run_system` — the Fig. 12–14 grid and the bulk
//! of `repro all` — under the three memory models that exercise different
//! machinery: `ideal:1` (engine loop only; the event queue never skips and
//! the cache is bypassed), `ideal:200` (half the cycles are idle jumps) and
//! the figure-locality cache geometry (cache, MSHRs and variable-latency
//! event traffic; `dgemmb` and `hist` join the seven kernels). Caches start
//! empty in every cell.

use tyr_bench::{run_system, RunConfig, System};
use tyr_sim::{MemConfig, NoProbe};
use tyr_workloads::{by_name, Workload, APP_NAMES, CACHE_NAMES};

use crate::cell::{CellSpec, Digest, Engine};
use crate::engines::{split_workload, Machine, Params};
use crate::harness::{engine_rates, Bench, EventCounts, Layers, Opts, Setup, Size, TraceCtx};
use crate::host;
use crate::metrics::WorkloadResult;
use crate::micro;
use crate::span::Tracer;

/// The memory model behind each suite workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mem {
    /// `--mem ideal:1`.
    Ideal,
    /// `--mem ideal:200`.
    Lat200,
    /// `--mem cached:l1=4k,l2=64k,mshr=8`, the figure-locality geometry.
    Cached,
}

impl Mem {
    fn config(self) -> MemConfig {
        match self {
            Mem::Ideal => MemConfig::ideal(1),
            Mem::Lat200 => MemConfig::ideal(200),
            Mem::Cached => {
                MemConfig::parse("cached:l1=4k,l2=64k,mshr=8").expect("a valid --mem spec")
            }
        }
    }
}

struct Suite {
    mem: Mem,
    kernels: Vec<Workload>,
    cfg: RunConfig,
    cells: Vec<CellSpec>,
}

/// Builds the kernels from the seed: everything paid before the first
/// simulated cycle.
fn build_kernels(mem: Mem, size: Size, seed: u64) -> Vec<Workload> {
    let extra: &[&str] = if mem == Mem::Cached { &CACHE_NAMES } else { &[] };
    APP_NAMES
        .iter()
        .chain(extra)
        .map(|name| by_name(name, size.scale(), seed).expect("a known kernel"))
        .collect()
}

impl Suite {
    fn new(mem: Mem, kernels: Vec<Workload>) -> Self {
        let cfg = RunConfig { mem: mem.config(), ..RunConfig::default() };
        let cells = kernels
            .iter()
            .flat_map(|w| {
                System::ALL
                    .map(|sys| CellSpec::new(format!("{}/{}", w.name, sys.label()), sys.label()))
            })
            .collect();
        Suite { mem, kernels, cfg, cells }
    }

    fn cell(&self, i: usize) -> (&Workload, System) {
        (&self.kernels[i / System::ALL.len()], System::ALL[i % System::ALL.len()])
    }

    /// The hand-sequenced equivalent of `run_system`, with `probe` attached.
    fn split<P: tyr_sim::Probe>(
        &self,
        w: &Workload,
        machine: &Machine<'_>,
        system: &str,
        probe: P,
        t: &mut Tracer,
    ) -> Result<Digest, String> {
        split_workload(w, machine, &Params::of_run_config(&self.cfg), probe, system, t)
    }
}

impl Bench for Suite {
    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64) {
        let (w, sys) = self.cell(i);
        // `run_system` checks the oracle itself and panics on any fault;
        // the measurement loop catches that and fails the cell.
        let (r, secs) = host::timed(|| run_system(w, sys, &self.cfg));
        (Digest::of(&r, sys.label()), secs)
    }

    fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
        let (w, sys) = self.cell(i);
        self.split(w, &Machine::of_system(sys, self.cfg.tags), sys.label(), NoProbe, t)
    }

    fn trace_extras(
        &self,
        ctx: &TraceCtx<'_>,
        t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // Event counts of the dataflow cells, from a second run with a
        // counting sink: a probe-enabled engine is slower, so these runs
        // stay out of the traced pass's timings.
        let mut counts = EventCounts::default();
        for (i, _) in self.cells.iter().enumerate() {
            let (w, sys) = self.cell(i);
            if matches!(sys, System::Ordered | System::Unordered | System::Tyr) {
                let machine = Machine::of_system(sys, self.cfg.tags);
                self.split(w, &machine, sys.label(), &mut counts, &mut Tracer::off())?;
            }
        }
        counts.record(layers);

        // The OoO core is not a `System`; time it on two kernels here so
        // its layer numbers exist beside the other engines'.
        for name in ["dmv", "tc"] {
            if let Some(w) = self.kernels.iter().find(|w| w.name == name) {
                self.split(w, &Machine::Ooo, "ooo", NoProbe, t)?;
            }
        }
        engine_rates(t, &t.totals_under("bench.extras"), Engine::Ooo, layers);

        // The micro-component loops do not depend on the workload; each is
        // measured once, where its structure is on the path.
        match self.mem {
            Mem::Ideal => {
                paper_ratios(ctx.digests, self.kernels.len(), layers);
                t.span("bench.micro", |_| micro::measure_store(layers));
            }
            Mem::Lat200 => t.span("bench.micro", |_| micro::measure_fixed_latency(layers)),
            Mem::Cached => t.span("bench.micro", |_| micro::measure_cached(layers)),
        }
        Ok(())
    }
}

/// The paper's headline ratios (geometric means over the kernels), for
/// comparison with the published values. The model is validated against
/// these reported ratios only — there is no hardware or RTL reference.
fn paper_ratios(digests: &[Option<Digest>], kernels: usize, layers: &mut Layers) {
    let n = System::ALL.len();
    let of = |k: usize, sys: System| {
        let col = System::ALL.iter().position(|s| *s == sys).expect("listed");
        digests[k * n + col]
    };
    let gmean = |f: &dyn Fn(usize) -> Option<f64>| {
        let ratios: Option<Vec<f64>> = (0..kernels).map(f).collect();
        ratios.and_then(|r| tyr_stats::gmean(&r)).unwrap_or(0.0)
    };
    let speedup = |base: System| {
        gmean(&|k| Some(of(k, base)?.cycles as f64 / of(k, System::Tyr)?.cycles as f64))
    };
    layers.set("paper.tyr_vs_unordered_time", speedup(System::Unordered));
    layers.set("paper.tyr_speedup_vs_vn", speedup(System::SeqVn));
    layers.set("paper.tyr_speedup_vs_ordered", speedup(System::Ordered));
    layers.set(
        "paper.tyr_peak_vs_ordered",
        gmean(&|k| {
            let (tyr, ord) = (of(k, System::Tyr)?, of(k, System::Ordered)?);
            Some(tyr.peak_live.max(1) as f64 / ord.peak_live.max(1) as f64)
        }),
    );
}

/// Runs one of the three suite workloads.
pub fn run(name: &str, mem: Mem, opts: &Opts) -> (WorkloadResult, Option<String>) {
    let setup = Setup::measure(|| build_kernels(mem, opts.size, opts.seed));
    let suite = Suite::new(mem, build_kernels(mem, opts.size, opts.seed));
    crate::harness::measure(name, opts, &suite, &setup)
}
