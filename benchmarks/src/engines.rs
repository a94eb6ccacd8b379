//! The hand-sequenced engine path: lower → `new` → `run`, one public layer
//! call at a time with a span around each.
//!
//! The public harness calls (`run_system`, `LoweredWorkload::run_tyr`,
//! `trace::run_probed`, `fuzz::run_engine`) do these steps in one opaque
//! call; the traced pass replaces them by [`split_run`] so each layer's
//! time and counts are separate. The parity check in `harness` asserts the
//! two paths produce the same digest for every cell, so the configurations
//! cannot drift apart unnoticed.

use tyr_bench::{RunConfig, System};
use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::Dfg;
use tyr_ir::{MemoryImage, Program, Value};
use tyr_sim::ooo::{OooConfig, OooEngine};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{MemConfig, Probe, RunResult, Watchdog};

use tyr_workloads::Workload;

use crate::cell::{Digest, Engine};
use crate::span::Tracer;

/// Where a tagged cell's graph comes from.
pub enum Graph<'a> {
    /// Lower the program inside the cell (what `run_system` does).
    Lower(TaggingDiscipline),
    /// Use a graph lowered at set-up (what `LoweredWorkload` does).
    Pre(&'a Dfg),
}

/// Which machine to run.
pub enum Machine<'a> {
    /// Sequential von Neumann.
    SeqVn,
    /// Sequential dataflow.
    SeqDf,
    /// Out-of-order von Neumann.
    Ooo,
    /// Ordered dataflow, over `graph` if given (else lowered in the cell).
    Ordered {
        /// A graph lowered earlier.
        graph: Option<&'a Dfg>,
    },
    /// Tagged dataflow under `policy`.
    Tagged {
        /// The graph to run.
        graph: Graph<'a>,
        /// The tag policy.
        policy: TagPolicy,
    },
}

impl Machine<'_> {
    /// The machine `run_system` builds for `system` with `tags` local tags.
    pub fn of_system(system: System, tags: usize) -> Machine<'static> {
        match system {
            System::SeqVn => Machine::SeqVn,
            System::SeqDf => Machine::SeqDf,
            System::Ordered => Machine::Ordered { graph: None },
            System::Unordered => Machine::Tagged {
                graph: Graph::Lower(TaggingDiscipline::UnorderedUnbounded),
                policy: TagPolicy::GlobalUnbounded,
            },
            System::Tyr => Machine::Tagged {
                graph: Graph::Lower(TaggingDiscipline::Tyr),
                policy: TagPolicy::local_with(tags, Vec::new()),
            },
        }
    }

    /// The engine module the machine runs on.
    pub fn engine(&self) -> Engine {
        match self {
            Machine::SeqVn => Engine::SeqVn,
            Machine::SeqDf => Engine::SeqDf,
            Machine::Ooo => Engine::Ooo,
            Machine::Ordered { .. } => Engine::Ordered,
            Machine::Tagged { .. } => Engine::Tagged,
        }
    }
}

/// The engine-independent run parameters. `max_cycles` is scaled per engine
/// exactly as `run_system` scales it (×64 vN/OoO, ×16 seq-dataflow and
/// ordered).
#[derive(Debug, Clone)]
pub struct Params {
    /// Issue width for every engine that has one.
    pub issue_width: usize,
    /// Ordered-dataflow FIFO depth.
    pub queue_depth: usize,
    /// Memory model.
    pub mem: MemConfig,
    /// Cycle budget before scaling.
    pub max_cycles: u64,
    /// Tagged engine's use-after-free sanitizer (the fuzzer arms it).
    pub check_token_leaks: bool,
    /// Run watchdog (the fuzzer arms a cycle budget).
    pub watchdog: Watchdog,
}

impl Params {
    /// The parameters `run_system` and `run_probed` derive from `cfg`.
    pub fn of_run_config(cfg: &RunConfig) -> Self {
        Params {
            issue_width: cfg.issue_width,
            queue_depth: cfg.queue_depth,
            mem: cfg.mem.clone(),
            max_cycles: cfg.max_cycles,
            check_token_leaks: false,
            watchdog: Watchdog::none(),
        }
    }
}

const fn span_names(engine: Engine) -> (&'static str, &'static str, &'static str, &'static str) {
    match engine {
        Engine::Tagged => {
            ("sim.tagged.new", "sim.tagged.run", "sim.tagged.instrs", "sim.tagged.cycles")
        }
        Engine::Ordered => {
            ("sim.ordered.new", "sim.ordered.run", "sim.ordered.instrs", "sim.ordered.cycles")
        }
        Engine::SeqDf => ("sim.seqdf.new", "sim.seqdf.run", "sim.seqdf.instrs", "sim.seqdf.cycles"),
        Engine::SeqVn => ("sim.seqvn.new", "sim.seqvn.run", "sim.seqvn.instrs", "sim.seqvn.cycles"),
        Engine::Ooo => ("sim.ooo.new", "sim.ooo.run", "sim.ooo.instrs", "sim.ooo.cycles"),
    }
}

/// [`split_run`] on a suite workload, then the oracle check in its own span:
/// the hand-sequenced equivalent of `run_system` / `LoweredWorkload::run_*`.
///
/// # Errors
///
/// Lowering errors, simulation faults, oracle mismatches and watchdog
/// time-outs, as text.
pub fn split_workload<P: Probe>(
    w: &Workload,
    machine: &Machine<'_>,
    params: &Params,
    probe: P,
    system: &str,
    t: &mut Tracer,
) -> Result<Digest, String> {
    let r = split_run(&w.program, &w.memory, &w.args, machine, params, probe, t)?;
    if r.is_complete() {
        t.span("workloads.check", |_| w.check(r.memory())).map_err(|e| e.to_string())?;
    }
    Digest::of(&r, system)
}

/// `lower_tagged` in a span, with the graph's node count recorded.
///
/// # Errors
///
/// The lowering error, as text.
pub fn lower_tagged_counted(
    program: &Program,
    discipline: TaggingDiscipline,
    t: &mut Tracer,
) -> Result<Dfg, String> {
    let dfg = t
        .span("dfg.lower_tagged", |_| lower_tagged(program, discipline))
        .map_err(|e| format!("tagged lowering: {e}"))?;
    let nodes = match discipline {
        TaggingDiscipline::Tyr | TaggingDiscipline::UnorderedBounded => "dfg.nodes_tyr",
        TaggingDiscipline::UnorderedUnbounded => "dfg.nodes_unordered",
    };
    t.add(nodes, dfg.len() as u64);
    Ok(dfg)
}

/// `lower_ordered` in a span, with the graph's node count recorded.
///
/// # Errors
///
/// The lowering error, as text.
pub fn lower_ordered_counted(program: &Program, t: &mut Tracer) -> Result<Dfg, String> {
    let dfg = t
        .span("dfg.lower_ordered", |_| lower_ordered(program))
        .map_err(|e| format!("ordered lowering: {e}"))?;
    t.add("dfg.nodes_ordered", dfg.len() as u64);
    Ok(dfg)
}

/// Lowers (if the machine needs it), constructs the engine with `probe`
/// attached, and runs it — each step in its own span, with the graph size
/// and the instructions and cycles simulated counted at the same
/// boundaries.
///
/// # Errors
///
/// Lowering errors and simulation faults, as text.
pub fn split_run<P: Probe>(
    program: &Program,
    memory: &MemoryImage,
    args: &[Value],
    machine: &Machine<'_>,
    p: &Params,
    probe: P,
    t: &mut Tracer,
) -> Result<RunResult, String> {
    let (new_span, run_span, instrs, cycles) = span_names(machine.engine());
    let mem = memory.clone();
    let args = args.to_vec();
    let result = match machine {
        Machine::SeqVn => {
            let c = SeqVnConfig {
                args,
                max_cycles: p.max_cycles.saturating_mul(64),
                mem: p.mem.clone(),
                watchdog: p.watchdog.clone(),
            };
            let engine = t.span(new_span, |_| SeqVnEngine::with_probe(program, mem, c, probe));
            t.span(run_span, |_| engine.run())
        }
        Machine::SeqDf => {
            let c = SeqDataflowConfig {
                issue_width: p.issue_width,
                args,
                max_cycles: p.max_cycles.saturating_mul(16),
                mem: p.mem.clone(),
                watchdog: p.watchdog.clone(),
            };
            let engine =
                t.span(new_span, |_| SeqDataflowEngine::with_probe(program, mem, c, probe));
            t.span(run_span, |_| engine.run())
        }
        Machine::Ooo => {
            let c = OooConfig {
                args,
                max_instrs: p.max_cycles.saturating_mul(64),
                mem: p.mem.clone(),
                watchdog: p.watchdog.clone(),
                ..OooConfig::default()
            };
            let engine = t.span(new_span, |_| OooEngine::with_probe(program, mem, c, probe));
            t.span(run_span, |_| engine.run())
        }
        Machine::Ordered { graph } => {
            let lowered;
            let dfg = match graph {
                Some(dfg) => *dfg,
                None => {
                    lowered = lower_ordered_counted(program, t)?;
                    &lowered
                }
            };
            let c = OrderedConfig {
                issue_width: p.issue_width,
                queue_depth: p.queue_depth,
                args,
                max_cycles: p.max_cycles.saturating_mul(16),
                mem: p.mem.clone(),
                watchdog: p.watchdog.clone(),
                ..OrderedConfig::default()
            };
            let engine = t.span(new_span, |_| OrderedEngine::with_probe(dfg, mem, c, probe));
            t.span(run_span, |_| engine.run())
        }
        Machine::Tagged { graph, policy } => {
            let lowered;
            let dfg = match graph {
                Graph::Pre(dfg) => *dfg,
                Graph::Lower(discipline) => {
                    lowered = lower_tagged_counted(program, *discipline, t)?;
                    &lowered
                }
            };
            let c = TaggedConfig {
                issue_width: p.issue_width,
                tag_policy: policy.clone(),
                args,
                max_cycles: p.max_cycles,
                mem: p.mem.clone(),
                check_token_leaks: p.check_token_leaks,
                watchdog: p.watchdog.clone(),
                ..TaggedConfig::default()
            };
            let engine = t.span(new_span, |_| TaggedEngine::with_probe(dfg, mem, c, probe));
            t.span(run_span, |_| engine.run())
        }
    };
    let r = result.map_err(|e| e.to_string())?;
    t.add(instrs, r.dyn_instrs());
    t.add(cycles, r.final_cycle());
    Ok(r)
}
