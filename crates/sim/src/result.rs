//! Shared run results and simulation errors for all engines.

use std::fmt;

use tyr_ir::{AluError, MemError, MemoryImage, Value};
use tyr_stats::{IpcHistogram, ProfileReport, TimelineReport, Trace};

use crate::cache::MemStats;
use crate::fault::FaultRecord;

/// Which watchdog limit ended a run (see [`crate::watchdog::Watchdog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutCause {
    /// The per-run cycle budget was exhausted. Deterministic: the same run
    /// trips at the same cycle on every host.
    CycleBudget {
        /// The configured budget.
        budget: u64,
    },
    /// The wall-clock deadline passed (host-dependent).
    WallClock {
        /// The configured limit in milliseconds.
        limit_ms: u64,
    },
    /// A shared [`crate::watchdog::CancelToken`] was cancelled — typically
    /// because a sweep-wide deadline fired in another worker.
    Cancelled,
}

impl fmt::Display for TimeoutCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutCause::CycleBudget { budget } => write!(f, "cycle budget {budget} exhausted"),
            TimeoutCause::WallClock { limit_ms } => {
                write!(f, "wall-clock limit {limit_ms} ms exceeded")
            }
            TimeoutCause::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// How a simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program ran to completion.
    Completed {
        /// Total cycles.
        cycles: u64,
        /// Total dynamic instructions fired.
        dyn_instrs: u64,
    },
    /// The machine deadlocked: no instruction could fire, but work remained
    /// (the failure mode of bounded global tag spaces — Fig. 11).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Live tokens stranded in the machine.
        live_tokens: u64,
        /// Human-readable descriptions of what is wedged: pending tag
        /// allocations (tagged engine) or starved/back-pressured nodes
        /// (ordered engine).
        pending_allocates: Vec<String>,
    },
    /// A watchdog ended the run before it completed or deadlocked: the
    /// machine was still (apparently) making progress, but a cycle budget,
    /// wall-clock deadline, or cancellation fired. Unlike
    /// [`SimError::CycleLimit`] this is an attributed *result*, not a fault:
    /// the fuzzer and chaos harness treat hangs as first-class outcomes.
    TimedOut {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Live tokens in the machine at that point.
        live_tokens: u64,
        /// Which limit fired.
        cause: TimeoutCause,
    },
}

impl fmt::Display for Outcome {
    /// Renders the outcome the way the deadlock reports and
    /// [`RunResult::cycles`]'s panic message present it: one summary line,
    /// plus (for deadlocks) an indented `wedged:` line per stuck activation,
    /// capped at eight.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Completed { cycles, dyn_instrs } => {
                write!(f, "completed in {cycles} cycles ({dyn_instrs} dynamic instructions)")
            }
            Outcome::Deadlock { cycle, live_tokens, pending_allocates } => {
                write!(f, "deadlocked at cycle {cycle} with {live_tokens} stranded token(s)")?;
                const MAX_LINES: usize = 8;
                for p in pending_allocates.iter().take(MAX_LINES) {
                    write!(f, "\n  wedged: {p}")?;
                }
                if pending_allocates.len() > MAX_LINES {
                    write!(f, "\n  … and {} more", pending_allocates.len() - MAX_LINES)?;
                }
                Ok(())
            }
            Outcome::TimedOut { cycle, live_tokens, cause } => {
                write!(f, "timed out at cycle {cycle} ({cause}) with {live_tokens} live token(s)")
            }
        }
    }
}

/// The complete record of one simulation run.
///
/// # Example
///
/// ```
/// use tyr_ir::MemoryImage;
/// use tyr_sim::{Outcome, RunResult};
/// use tyr_stats::{IpcHistogram, Trace};
///
/// let r = RunResult::new(
///     Outcome::Completed { cycles: 10, dyn_instrs: 25 },
///     Trace::new(),
///     IpcHistogram::new(),
///     MemoryImage::new(),
///     vec![7],
/// );
/// assert!(r.is_complete());
/// assert_eq!(r.cycles(), 10);
/// assert_eq!(r.dyn_instrs(), 25);
/// assert!(r.faults.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Per-cycle live-token (or live-value) trace.
    pub live: Trace,
    /// Exact histogram of per-cycle IPC.
    pub ipc: IpcHistogram,
    /// Final memory contents.
    memory: MemoryImage,
    /// Program return values (empty on deadlock).
    pub returns: Vec<Value>,
    /// Peak tokens resident per concurrent block's token store
    /// (`(block name, peak)`), for engines that track it (the tagged
    /// engine). Quantifies the hardware token-store size each block needs —
    /// the implementability argument of Sec. III.
    pub store_peaks: Vec<(String, u64)>,
    /// Per-node profile from the probe layer, when the run was executed
    /// with a `NodeProfiler` attached (see `tyr_stats::profile`).
    pub profile: Option<ProfileReport>,
    /// Cycle-windowed telemetry from the probe layer, when the run was
    /// executed with a `Timeline` sink attached (see `tyr_stats::timeline`).
    pub timeline: Option<TimelineReport>,
    /// Every fault the injection layer applied during the run, in injection
    /// order (empty unless the engine ran with a
    /// [`FaultPlan`](crate::fault::FaultPlan)). The length always equals the
    /// number of `FaultInjected` probe events the run emitted.
    pub faults: Vec<FaultRecord>,
    /// Architectural loads executed. Counted unconditionally by every
    /// engine (probe or not); always equals the number of `MemAccess`
    /// probe events with `write: false` the run emitted.
    pub mem_loads: u64,
    /// Architectural stores executed (`store` and `store_add` each count
    /// one); always equals the number of `MemAccess` probe events with
    /// `write: true`.
    pub mem_stores: u64,
    /// Idle cycles the event-driven core advanced over in bulk instead of
    /// ticking one by one. Purely a wall-clock diagnostic: every skipped
    /// cycle is still accounted in `live`, `ipc`, and the cycle counts, so
    /// two runs differing only in this field are otherwise bit-identical.
    /// Always 0 for ticked runs and for engines without an event core.
    pub skipped_cycles: u64,
    /// Cache-hierarchy counters, present iff the run used
    /// [`MemConfig::Cached`](crate::cache::MemConfig). `mem_stats.l1.misses`
    /// always equals the number of `MemMiss` probe events the run emitted.
    pub mem_stats: Option<MemStats>,
}

impl RunResult {
    /// Assembles a result.
    pub fn new(
        outcome: Outcome,
        live: Trace,
        ipc: IpcHistogram,
        memory: MemoryImage,
        returns: Vec<Value>,
    ) -> Self {
        RunResult {
            outcome,
            live,
            ipc,
            memory,
            returns,
            store_peaks: Vec::new(),
            profile: None,
            timeline: None,
            faults: Vec::new(),
            mem_loads: 0,
            mem_stores: 0,
            skipped_cycles: 0,
            mem_stats: None,
        }
    }

    /// L1 hits (0 under ideal memory, where every access "hits").
    pub fn mem_hits(&self) -> u64 {
        self.mem_stats.map_or(0, |s| s.l1.hits)
    }

    /// L1 misses — the count of `MemMiss` probe events (0 under ideal
    /// memory).
    pub fn mem_misses(&self) -> u64 {
        self.mem_stats.map_or(0, |s| s.l1.misses)
    }

    /// Accesses delayed by a full MSHR table (0 under ideal memory).
    pub fn mshr_stalls(&self) -> u64 {
        self.mem_stats.map_or(0, |s| s.mshr_stalls)
    }

    /// Attaches a per-node profile from the probe layer (builder-style).
    pub fn with_profile(mut self, profile: ProfileReport) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Attaches a cycle-windowed timeline from the probe layer
    /// (builder-style).
    pub fn with_timeline(mut self, timeline: TimelineReport) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The largest single block-store occupancy seen (0 if untracked).
    pub fn max_store_peak(&self) -> u64 {
        self.store_peaks.iter().map(|&(_, p)| p).max().unwrap_or(0)
    }

    /// Whether the run completed.
    pub fn is_complete(&self) -> bool {
        matches!(self.outcome, Outcome::Completed { .. })
    }

    /// Execution time in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the run deadlocked.
    pub fn cycles(&self) -> u64 {
        match &self.outcome {
            Outcome::Completed { cycles, .. } => *cycles,
            dead => panic!("{dead}; no completion time"),
        }
    }

    /// The cycle the run ended at — completion, deadlock, or timeout — the
    /// final timestamp for probe sinks.
    pub fn final_cycle(&self) -> u64 {
        match self.outcome {
            Outcome::Completed { cycles, .. } => cycles,
            Outcome::Deadlock { cycle, .. } => cycle,
            Outcome::TimedOut { cycle, .. } => cycle,
        }
    }

    /// Total dynamic instructions (0 for a deadlocked or timed-out run).
    pub fn dyn_instrs(&self) -> u64 {
        match self.outcome {
            Outcome::Completed { dyn_instrs, .. } => dyn_instrs,
            Outcome::Deadlock { .. } | Outcome::TimedOut { .. } => 0,
        }
    }

    /// Peak live state over the run.
    pub fn peak_live(&self) -> u64 {
        self.live.peak()
    }

    /// Mean live state over the run.
    pub fn mean_live(&self) -> f64 {
        self.live.mean()
    }

    /// Final memory contents.
    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }
}

/// A simulation fault (distinct from [`Outcome::Deadlock`], which is a
/// legitimate result the evaluation observes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Arithmetic fault in the simulated program.
    Alu(AluError),
    /// Memory fault in the simulated program.
    Mem(MemError),
    /// The configured cycle limit was reached.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// The program completed but tokens remained in the machine — a lowering
    /// or engine bug, surfaced loudly.
    TokenLeak {
        /// Leaked token count.
        live_tokens: u64,
    },
    /// A token arrived with a tag outside its block's tag space — an engine
    /// or policy bug.
    TagOverflow {
        /// Offending tag value.
        tag: u64,
        /// Size of the space it was delivered into.
        space: usize,
    },
    /// A node has more wired inputs than the engine's token store supports.
    TooManyInputs {
        /// The node's wired input count.
        count: usize,
    },
    /// A `free` recycled a tag while a node of its block still held tokens
    /// under it — the free-barrier safety property (Sec. IV-A) was violated
    /// and a later context would silently read this context's state. Only
    /// raised when `TaggedConfig::check_token_leaks` is on.
    UseAfterFree {
        /// Label of the node still holding tokens.
        node: String,
        /// Name of the block whose tag was freed.
        block: String,
        /// The recycled tag.
        tag: u64,
    },
    /// The interpreter faulted (vN engine).
    Interp(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Alu(e) => write!(f, "alu fault: {e}"),
            SimError::Mem(e) => write!(f, "memory fault: {e}"),
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} reached"),
            SimError::TokenLeak { live_tokens } => {
                write!(f, "program completed with {live_tokens} tokens leaked")
            }
            SimError::TagOverflow { tag, space } => {
                write!(f, "tag {tag} outside its space of {space}")
            }
            SimError::TooManyInputs { count } => {
                write!(f, "a node has {count} wired inputs (the token store holds 48)")
            }
            SimError::UseAfterFree { node, block, tag } => {
                write!(
                    f,
                    "use-after-free: block '{block}' freed tag {tag} while '{node}' still \
                     held tokens under it"
                )
            }
            SimError::Interp(e) => write!(f, "interpreter fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<AluError> for SimError {
    fn from(e: AluError) -> Self {
        SimError::Alu(e)
    }
}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let r = RunResult::new(
            Outcome::Completed { cycles: 10, dyn_instrs: 25 },
            Trace::new(),
            IpcHistogram::new(),
            MemoryImage::new(),
            vec![7],
        );
        assert!(r.is_complete());
        assert_eq!(r.cycles(), 10);
        assert_eq!(r.dyn_instrs(), 25);
        assert_eq!(r.returns, vec![7]);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn cycles_panics_on_deadlock() {
        let r = RunResult::new(
            Outcome::Deadlock { cycle: 5, live_tokens: 3, pending_allocates: vec![] },
            Trace::new(),
            IpcHistogram::new(),
            MemoryImage::new(),
            vec![],
        );
        assert!(!r.is_complete());
        let _ = r.cycles();
    }

    #[test]
    fn outcome_display() {
        let done = Outcome::Completed { cycles: 10, dyn_instrs: 25 };
        assert_eq!(done.to_string(), "completed in 10 cycles (25 dynamic instructions)");
        let dead = Outcome::Deadlock {
            cycle: 5,
            live_tokens: 3,
            pending_allocates: (0..10).map(|i| format!("alloc {i}")).collect(),
        };
        let text = dead.to_string();
        assert!(text.starts_with("deadlocked at cycle 5 with 3 stranded token(s)"));
        assert!(text.contains("wedged: alloc 0"));
        assert!(text.contains("wedged: alloc 7"));
        assert!(!text.contains("alloc 8"), "wedged lines are capped");
        assert!(text.contains("and 2 more"));
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::CycleLimit { limit: 99 };
        assert!(e.to_string().contains("99"));
        let e = SimError::TokenLeak { live_tokens: 4 };
        assert!(e.to_string().contains("4 tokens"));
    }
}
