//! The state every engine carries and the single exit every run leaves by.
//!
//! [`Core`] owns the clock, the live-state and IPC samplers, the watchdog,
//! the fault-injection state, the memory port and the probe; the engines
//! borrow it for their machine-specific work and all end in
//! [`Core::finish`], so a completed, deadlocked and timed-out run report
//! the same full set of statistics.

use tyr_dfg::Dfg;
use tyr_ir::interp::InterpError;
use tyr_ir::{MemoryImage, Value};
use tyr_stats::probe::{Probe, ProbeEvent};
use tyr_stats::{IpcHistogram, Trace};

use crate::fault::{FaultPlan, FaultState};
use crate::mem::MemPort;
use crate::result::{Outcome, RunResult, SimError, TimeoutCause};
use crate::watchdog::{Watchdog, WatchdogState};

/// Why a run stopped before completing or deadlocking: a simulated fault
/// (an error), or a watchdog trip (an attributed *result*).
pub(crate) enum Halt {
    Fault(SimError),
    Timeout(TimeoutCause),
}

impl<E: Into<SimError>> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Fault(e.into())
    }
}

impl Halt {
    /// Classifies an interpreter failure for the engines built on
    /// `interp::run_traced`: a halt means the tracer's watchdog `tripped`,
    /// running out of fuel is the cycle `limit`.
    pub(crate) fn of_interp(e: InterpError, tripped: Option<TimeoutCause>, limit: u64) -> Self {
        match e {
            InterpError::Halted => Halt::Timeout(tripped.expect("halt implies a tripped watchdog")),
            InterpError::OutOfFuel => Halt::Fault(SimError::CycleLimit { limit }),
            other => Halt::Fault(SimError::Interp(other.to_string())),
        }
    }
}

/// How a run that was not halted ended, plus the program's return values
/// (empty on deadlock).
pub(crate) type End = Result<(Outcome, Vec<Value>), Halt>;

/// Declares every block and node of `dfg` to `probe`.
pub(crate) fn declare_graph<P: Probe>(probe: &mut P, dfg: &Dfg) {
    if P::ENABLED {
        for (i, b) in dfg.blocks.iter().enumerate() {
            probe.declare_block(i as u32, &b.name);
        }
        for (i, n) in dfg.nodes().enumerate() {
            probe.declare_node(i as u32, n.label(), n.block().0);
        }
    }
}

/// Declares the single virtual node 0 (`instr`) in block 0 (`program`) that
/// the engines executing the structured IR attribute every event to.
pub(crate) fn declare_program<P: Probe>(probe: &mut P) {
    if P::ENABLED {
        probe.declare_block(0, "program");
        probe.declare_node(0, "instr", 0);
    }
}

/// Engine-independent run state.
pub(crate) struct Core<P: Probe> {
    pub(crate) cycle: u64,
    /// Live tokens (or bound values) right now.
    pub(crate) live: u64,
    pub(crate) trace: Trace,
    pub(crate) ipc: IpcHistogram,
    /// Idle cycles advanced over in bulk by [`Core::idle_jump`].
    pub(crate) skipped: u64,
    pub(crate) dog: WatchdogState,
    /// Live fault-injection state (`None` when no plan is configured).
    pub(crate) faults: Option<FaultState>,
    pub(crate) port: MemPort,
    pub(crate) probe: P,
}

impl<P: Probe> Core<P> {
    pub(crate) fn new(
        port: MemPort,
        watchdog: &Watchdog,
        faults: Option<&FaultPlan>,
        probe: P,
    ) -> Self {
        Core {
            cycle: 0,
            live: 0,
            trace: Trace::new(),
            ipc: IpcHistogram::new(),
            skipped: 0,
            dog: watchdog.arm(),
            faults: faults.map(FaultState::new),
            port,
            probe,
        }
    }

    /// Emits `ev` at the current cycle (compiled out under `NoProbe`).
    #[inline]
    pub(crate) fn event(&mut self, ev: ProbeEvent) {
        if P::ENABLED {
            self.probe.event(self.cycle, ev);
        }
    }

    /// The port's [`MemPort::access`] at the current cycle.
    pub(crate) fn mem(&mut self, node: u32, addr: Value, write: bool) -> u64 {
        self.port.access(&mut self.probe, self.cycle, node, addr, write)
    }

    /// Ends cycle `self.cycle`: advances the clock and samples live state
    /// and the cycle's `fired` instructions.
    pub(crate) fn tick(&mut self, fired: u64) {
        self.cycle += 1;
        self.trace.record(self.live);
        self.ipc.record(fired);
    }

    /// Adds `n` idle cycles (live state unchanged, nothing issued).
    pub(crate) fn idle(&mut self, n: u64) {
        self.cycle += n;
        self.trace.record_n(self.live, n);
        self.ipc.record_n(0, n);
    }

    /// The watchdog check at the top of a cycle.
    pub(crate) fn check_watchdog(&self) -> Result<(), Halt> {
        self.dog.check(self.cycle).map_or(Ok(()), |cause| Err(Halt::Timeout(cause)))
    }

    /// The cycle-limit check at the bottom of a cycle.
    pub(crate) fn check_limit(&self, limit: u64) -> Result<(), Halt> {
        if self.cycle >= limit {
            return Err(Halt::Fault(SimError::CycleLimit { limit }));
        }
        Ok(())
    }

    /// The event-driven core's idle jump. The machine is frozen until the
    /// in-flight memory result due at `next_release` matures, so the clock
    /// advances straight to the cycle before it (the drain during cycle
    /// `r - 1` delivers release `r`), sampling every skipped cycle exactly
    /// as a ticked run would have: unchanged live state, IPC 0. Returns
    /// whether the clock moved.
    ///
    /// The jump is clamped so every deadline that inspects skipped cycles
    /// still sees its exact trip cycle: an outstanding MSHR fill, the cycle
    /// `limit` (checked at the bottom of each ticked cycle, so it fires
    /// here, before any loop-top watchdog check could run), the watchdog's
    /// cycle budget (left to the loop-top check so its attributed cycle
    /// stays deterministic), and the engine's own `bound`. A jump can leap
    /// over every slow-check boundary in the gap, so the host limits are
    /// polled once per resume.
    pub(crate) fn idle_jump(
        &mut self,
        next_release: u64,
        bound: u64,
        limit: u64,
    ) -> Result<bool, Halt> {
        let target = (next_release - 1)
            .min(self.port.next_fill(self.cycle))
            .min(limit)
            .min(self.dog.budget().unwrap_or(u64::MAX))
            .min(bound);
        if target <= self.cycle {
            return Ok(false);
        }
        let n = target - self.cycle;
        self.idle(n);
        self.skipped += n;
        self.check_limit(limit)?;
        self.dog.poll_host().map_or(Ok(true), |cause| Err(Halt::Timeout(cause)))
    }

    /// The single run exit: assembles the [`RunResult`] of a run that
    /// ended with `end`, leaving `memory` behind. Completed, deadlocked and
    /// timed-out runs all carry the memory counters, cache statistics,
    /// fault log and skipped-cycle count; a simulated fault discards them.
    pub(crate) fn finish(self, end: End, memory: MemoryImage) -> Result<RunResult, SimError> {
        let (outcome, returns) = match end {
            Ok(done) => done,
            Err(Halt::Timeout(cause)) => {
                (Outcome::TimedOut { cycle: self.cycle, live_tokens: self.live, cause }, Vec::new())
            }
            Err(Halt::Fault(e)) => return Err(e),
        };
        let mut r = RunResult::new(outcome, self.trace, self.ipc, memory, returns);
        (r.mem_loads, r.mem_stores) = self.port.counts();
        r.mem_stats = self.port.stats();
        r.faults = self.faults.map(FaultState::into_log).unwrap_or_default();
        r.skipped_cycles = self.skipped;
        Ok(r)
    }
}
