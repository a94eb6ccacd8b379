//! Shared experiment plumbing for the `repro` harness and the micro-benches:
//! a uniform way to run any workload on any of the five architectures of the
//! paper's evaluation (Sec. VI).

#![warn(missing_docs)]

pub mod bench_cmd;
pub mod figures;
pub mod fuzz;
pub mod locality;
pub mod micro;
pub mod pool;
pub mod shard;
pub mod timeline;
pub mod trace;
pub mod verify;

use std::fmt;

use tyr_dfg::lower::{lower_ordered, lower_tagged, LowerError, TaggingDiscipline};
use tyr_dfg::Dfg;
use tyr_ir::{MemoryImage, Program, Value};
use tyr_sim::ooo::{OooConfig, OooEngine};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{MemConfig, NoProbe, Probe, RunResult, SimError};
use tyr_workloads::Workload;

/// The compared architectures (Sec. VI, *Systems*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Sequential von Neumann.
    SeqVn,
    /// Sequential dataflow (WaveScalar/TRIPS-style).
    SeqDf,
    /// Ordered dataflow (FIFO-synchronized, RipTide-style).
    Ordered,
    /// Naïve unordered dataflow, unlimited global tags.
    Unordered,
    /// TYR: local tag spaces.
    Tyr,
}

impl System {
    /// All five systems, in the paper's presentation order.
    pub const ALL: [System; 5] =
        [System::SeqVn, System::SeqDf, System::Ordered, System::Unordered, System::Tyr];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::SeqVn => "seq-vN",
            System::SeqDf => "seq-dataflow",
            System::Ordered => "ordered",
            System::Unordered => "unordered",
            System::Tyr => "TYR",
        }
    }

    /// The system's engine name, as `repro trace` and [`Launch::named`]
    /// spell it.
    pub fn engine(self) -> &'static str {
        match self {
            System::SeqVn => "seqvn",
            System::SeqDf => "seqdf",
            System::Ordered => "ordered",
            System::Unordered => "unordered",
            System::Tyr => "tyr",
        }
    }
}

/// Common run parameters (defaults match Sec. VI: 128-wide issue, 64 tags
/// per local tag space, FIFO depth 4).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Issue width for every system.
    pub issue_width: usize,
    /// TYR tags per concurrent block.
    pub tags: usize,
    /// TYR per-block tag overrides `(block name, tags)`.
    pub tag_overrides: Vec<(String, usize)>,
    /// Ordered-dataflow FIFO depth.
    pub queue_depth: usize,
    /// Memory model shared by all engines: ideal fixed latency (default 1)
    /// or a two-level cache hierarchy (`--mem cached:...`). Under `Ideal`,
    /// only the dataflow engines observe the latency, matching the
    /// pre-cache harness behaviour.
    pub mem: MemConfig,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Use the event-driven core in the tagged/ordered engines (skip idle
    /// cycles). Bit-identical to ticked execution; disable (`--ticked`) only
    /// to cross-check that claim.
    pub event_driven: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            issue_width: 128,
            tags: 64,
            tag_overrides: Vec::new(),
            queue_depth: 4,
            mem: MemConfig::ideal(1),
            max_cycles: 2_000_000_000,
            event_driven: true,
        }
    }
}

/// The conversion from harness parameters to engine configurations: the
/// only place [`RunConfig`]'s fields are read. Every launch site starts from
/// one of these and overrides, with struct-update syntax, just the field it
/// sweeps or arms (`free_token_sync`, `faults`, `watchdog`, ...), so a new
/// harness flag reaches every engine by being threaded through here once.
impl RunConfig {
    /// TYR's tag policy: `tags` per local space, plus the per-block
    /// overrides.
    pub fn tyr_policy(&self) -> TagPolicy {
        TagPolicy::local_with(self.tags, self.tag_overrides.clone())
    }

    /// The tagged engine under `policy`; its cycle budget is `max_cycles`.
    pub fn tagged(&self, policy: TagPolicy, args: &[Value]) -> TaggedConfig {
        TaggedConfig {
            issue_width: self.issue_width,
            tag_policy: policy,
            args: args.to_vec(),
            max_cycles: self.max_cycles,
            mem: self.mem.clone(),
            event_driven: self.event_driven,
            ..TaggedConfig::default()
        }
    }

    /// The ordered engine (budget x16: FIFO serialization makes it the
    /// slowest dataflow machine).
    pub fn ordered(&self, args: &[Value]) -> OrderedConfig {
        OrderedConfig {
            issue_width: self.issue_width,
            queue_depth: self.queue_depth,
            args: args.to_vec(),
            max_cycles: self.max_cycles.saturating_mul(16),
            mem: self.mem.clone(),
            event_driven: self.event_driven,
            ..OrderedConfig::default()
        }
    }

    /// The sequential-dataflow engine (budget x16).
    pub fn seqdf(&self, args: &[Value]) -> SeqDataflowConfig {
        SeqDataflowConfig {
            issue_width: self.issue_width,
            args: args.to_vec(),
            max_cycles: self.max_cycles.saturating_mul(16),
            mem: self.mem.clone(),
            ..SeqDataflowConfig::default()
        }
    }

    /// The von Neumann engine (budget x64: one instruction per cycle).
    pub fn seqvn(&self, args: &[Value]) -> SeqVnConfig {
        SeqVnConfig {
            args: args.to_vec(),
            max_cycles: self.max_cycles.saturating_mul(64),
            mem: self.mem.clone(),
            ..SeqVnConfig::default()
        }
    }

    /// The out-of-order engine (instruction budget x64). Its window and
    /// issue width model a CPU core, not the dataflow fabric, so they keep
    /// their own defaults rather than following `issue_width`.
    pub fn ooo(&self, args: &[Value]) -> OooConfig {
        OooConfig {
            args: args.to_vec(),
            max_instrs: self.max_cycles.saturating_mul(64),
            mem: self.mem.clone(),
            ..OooConfig::default()
        }
    }
}

/// Why a [`Launch`] produced no [`RunResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The program could not be lowered to the engine's graph form.
    Lowering(LowerError),
    /// The engine faulted.
    Sim(SimError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Lowering(e) => write!(f, "lowering: {e}"),
            LaunchError::Sim(e) => write!(f, "{e}"),
        }
    }
}

/// One fully configured engine run: which machine, and its configuration.
/// Built by [`Launch::named`] or [`Launch::of`] from the harness
/// [`RunConfig`]; [`Launch::run`] is the one system -> lowering -> engine ->
/// run dispatch.
#[derive(Debug, Clone)]
pub enum Launch {
    /// Sequential von Neumann.
    SeqVn(SeqVnConfig),
    /// Sequential dataflow.
    SeqDf(SeqDataflowConfig),
    /// Out-of-order von Neumann.
    Ooo(OooConfig),
    /// Ordered dataflow.
    Ordered(OrderedConfig),
    /// Tagged dataflow over the given elaboration.
    Tagged(TaggingDiscipline, TaggedConfig),
}

impl Launch {
    /// The launch `engine` names (see `trace::ENGINE_NAMES`) under `cfg`,
    /// or `None` for an unknown name.
    pub fn named(engine: &str, cfg: &RunConfig, args: &[Value]) -> Option<Launch> {
        Some(match engine {
            "seqvn" => Launch::SeqVn(cfg.seqvn(args)),
            "seqdf" => Launch::SeqDf(cfg.seqdf(args)),
            "ooo" => Launch::Ooo(cfg.ooo(args)),
            "ordered" => Launch::Ordered(cfg.ordered(args)),
            "unordered" => Launch::Tagged(
                TaggingDiscipline::UnorderedUnbounded,
                cfg.tagged(TagPolicy::GlobalUnbounded, args),
            ),
            "tyr" => Launch::Tagged(TaggingDiscipline::Tyr, cfg.tagged(cfg.tyr_policy(), args)),
            // Bounded global pools run the TYR elaboration: they need its
            // barrier/free structure to recycle tags at all.
            "tagged-global-bounded" => Launch::Tagged(
                TaggingDiscipline::Tyr,
                cfg.tagged(TagPolicy::GlobalBounded { tags: trace::BOUNDED_POOL }, args),
            ),
            _ => return None,
        })
    }

    /// The launch of one of the five compared systems under `cfg`.
    pub fn of(system: System, cfg: &RunConfig, args: &[Value]) -> Launch {
        Launch::named(system.engine(), cfg, args).expect("every system names an engine")
    }

    /// Lowers `program` as the machine needs, builds the engine over a copy
    /// of `memory` with `probe` attached, and runs it.
    ///
    /// # Errors
    ///
    /// Lowering errors and simulation faults.
    pub fn run<P: Probe>(
        self,
        program: &Program,
        memory: &MemoryImage,
        probe: P,
    ) -> Result<RunResult, LaunchError> {
        let mem = memory.clone();
        let run = match self {
            Launch::SeqVn(c) => SeqVnEngine::with_probe(program, mem, c, probe).run(),
            Launch::SeqDf(c) => SeqDataflowEngine::with_probe(program, mem, c, probe).run(),
            Launch::Ooo(c) => OooEngine::with_probe(program, mem, c, probe).run(),
            Launch::Ordered(c) => {
                let dfg = lower_ordered(program).map_err(LaunchError::Lowering)?;
                OrderedEngine::with_probe(&dfg, mem, c, probe).run()
            }
            Launch::Tagged(discipline, c) => {
                let dfg = lower_tagged(program, discipline).map_err(LaunchError::Lowering)?;
                TaggedEngine::with_probe(&dfg, mem, c, probe).run()
            }
        };
        run.map_err(LaunchError::Sim)
    }
}

/// Lowers (as needed) and runs `w` on `system`, checking the output memory
/// against the workload's oracle on completion.
///
/// # Panics
///
/// Panics on lowering errors, simulation faults, or oracle mismatches —
/// an experiment must not silently produce wrong data.
pub fn run_system(w: &Workload, system: System, cfg: &RunConfig) -> RunResult {
    let r = Launch::of(system, cfg, &w.args)
        .run(&w.program, &w.memory, NoProbe)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", system.label(), w.name));
    if r.is_complete() {
        w.check(r.memory()).unwrap_or_else(|e| panic!("{} on {}: {e}", system.label(), w.name));
    }
    r
}

/// Pre-lowered graphs for a workload, when the same graph is reused across
/// many engine configurations (tag/width sweeps).
pub struct LoweredWorkload<'w> {
    /// The source workload.
    pub workload: &'w Workload,
    /// TYR elaboration (also used for bounded-global policies).
    pub tyr: Dfg,
    /// Naïve unordered elaboration.
    pub unordered: Dfg,
    /// Harness parameters every run starts from.
    cfg: RunConfig,
}

impl<'w> LoweredWorkload<'w> {
    /// Lowers both tagged elaborations, to run under the default
    /// [`RunConfig`].
    ///
    /// # Panics
    ///
    /// Panics on lowering errors.
    pub fn new(workload: &'w Workload) -> Self {
        LoweredWorkload::with_config(workload, &RunConfig::default())
    }

    /// Lowers both tagged elaborations, to run under the harness
    /// parameters in `cfg` (memory model, event core, cycle budget; the
    /// sweeps pass the tag policy and issue width per run).
    ///
    /// # Panics
    ///
    /// Panics on lowering errors.
    pub fn with_config(workload: &'w Workload, cfg: &RunConfig) -> Self {
        LoweredWorkload {
            workload,
            tyr: lower_tagged(&workload.program, TaggingDiscipline::Tyr).expect("tyr lowering"),
            unordered: lower_tagged(&workload.program, TaggingDiscipline::UnorderedUnbounded)
                .expect("unordered lowering"),
            cfg: cfg.clone(),
        }
    }

    /// Runs the TYR graph under an arbitrary tag policy.
    ///
    /// # Panics
    ///
    /// Panics on simulation faults or oracle mismatches.
    pub fn run_tyr(&self, policy: TagPolicy, issue_width: usize) -> RunResult {
        self.run_on(&self.tyr, "tyr", policy, issue_width)
    }

    /// Runs the unordered graph under a tag policy (unbounded or bounded).
    ///
    /// # Panics
    ///
    /// Panics on simulation faults or oracle mismatches.
    pub fn run_unordered(&self, policy: TagPolicy, issue_width: usize) -> RunResult {
        let graph = match &policy {
            // Bounded pools need the barrier/free elaboration to recycle tags.
            TagPolicy::GlobalBounded { .. } => &self.tyr,
            _ => &self.unordered,
        };
        self.run_on(graph, "unordered", policy, issue_width)
    }

    fn run_on(&self, graph: &Dfg, what: &str, policy: TagPolicy, issue_width: usize) -> RunResult {
        let w = self.workload;
        let c = TaggedConfig { issue_width, ..self.cfg.tagged(policy, &w.args) };
        let r = TaggedEngine::new(graph, w.memory.clone(), c)
            .run()
            .unwrap_or_else(|e| panic!("{what} on {}: {e}", w.name));
        if r.is_complete() {
            w.check(r.memory()).unwrap_or_else(|e| panic!("{e}"));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_workloads::{by_name, Scale};

    #[test]
    fn run_system_smoke_all_systems() {
        let w = by_name("dmv", Scale::Tiny, 5).unwrap();
        let cfg = RunConfig::default();
        let mut cycles = Vec::new();
        for sys in System::ALL {
            let r = run_system(&w, sys, &cfg);
            assert!(r.is_complete(), "{}", sys.label());
            cycles.push((sys.label(), r.cycles()));
        }
        // Parallelism ordering: vN is the slowest; TYR and unordered are the
        // fastest.
        let get = |l: &str| cycles.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!(get("seq-vN") > get("TYR"));
        assert!(get("seq-vN") > get("unordered"));
        assert!(get("ordered") > get("unordered"));
    }
}
