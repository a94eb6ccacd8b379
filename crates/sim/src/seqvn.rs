//! Sequential von Neumann engine (Sec. II-C, Fig. 5a).
//!
//! One instruction retires per cycle — the depth-first traversal of the
//! dynamic execution graph. Live state is the number of bound values across
//! the activation stack (registers + spilled locals), which stays tiny:
//! that is exactly the paper's point about vN machines minimizing state at
//! the cost of parallelism.
//!
//! Implemented as instrumentation over the `tyr-ir` reference interpreter,
//! which doubles as the correctness oracle for the dataflow engines.

use tyr_ir::interp::{self, Tracer};
use tyr_ir::{MemoryImage, Program, Value};
use tyr_stats::probe::{NoProbe, Probe, ProbeEvent};

use crate::cache::MemConfig;
use crate::core::{declare_program, Core, Halt};
use crate::mem::MemPort;
use crate::result::{Outcome, RunResult, SimError, TimeoutCause};
use crate::watchdog::Watchdog;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SeqVnConfig {
    /// Program arguments.
    pub args: Vec<Value>,
    /// Safety limit on retired instructions (= cycles under ideal memory).
    pub max_cycles: u64,
    /// Memory model (default ideal latency 1, which costs nothing beyond
    /// the instruction's own cycle). The serial machine blocks on every
    /// access: a cached model's miss latency is added to the clock as stall
    /// cycles during which nothing retires — the vN baseline has no
    /// parallelism to hide memory behind.
    pub mem: MemConfig,
    /// Run watchdog (see [`crate::watchdog`]). Disarmed by default. One
    /// instruction retires per cycle, so the cycle budget doubles as an
    /// instruction budget; trips end the run as an attributed
    /// [`Outcome::TimedOut`] instead of a [`SimError::CycleLimit`].
    pub watchdog: Watchdog,
}

impl Default for SeqVnConfig {
    fn default() -> Self {
        SeqVnConfig {
            args: Vec::new(),
            max_cycles: 50_000_000_000,
            mem: MemConfig::default(),
            watchdog: Watchdog::none(),
        }
    }
}

/// The sequential von Neumann engine.
pub struct SeqVnEngine<'a, P: Probe = NoProbe> {
    program: &'a Program,
    mem: MemoryImage,
    cfg: SeqVnConfig,
    probe: P,
}

struct VnTracer<P: Probe> {
    /// Clock, samplers, watchdog, memory port and probe.
    core: Core<P>,
    /// Memory-stall cycles owed by the access of the instruction about to
    /// retire (applied by `on_instr` right after its one compute cycle).
    stall_pending: u64,
    /// Total memory-stall cycles added to the clock.
    stalls: u64,
    tripped: Option<TimeoutCause>,
}

impl<P: Probe> Tracer for VnTracer<P> {
    fn on_instr(&mut self, live: u64) {
        self.core.live = live;
        self.core.tick(1);
        if P::ENABLED {
            self.core.probe.event(self.core.cycle, ProbeEvent::NodeFired { node: 0 });
        }
        // The serial machine blocks on its access: the miss latency is idle
        // clock with the live state unchanged and nothing retiring.
        let n = std::mem::take(&mut self.stall_pending);
        self.stalls += n;
        self.core.idle(n);
    }

    fn on_mem(&mut self, addr: Value, write: bool) {
        // `on_mem` precedes the instruction's retire, so stamp the access
        // with the cycle that instruction will occupy. One cycle of the
        // latency is the instruction's own; the rest is stall.
        let at = self.core.cycle + 1;
        let lat = self.core.port.access(&mut self.core.probe, at, 0, addr, write);
        self.stall_pending += lat.saturating_sub(1);
    }

    fn poll_halt(&mut self) -> bool {
        self.tripped = self.core.dog.check(self.core.cycle);
        self.tripped.is_some()
    }
}

impl<'a> SeqVnEngine<'a> {
    /// Builds an engine over a structured program with no probe attached.
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let y = f.sub(x, 2);
    /// let p = pb.finish(f, [y]);
    ///
    /// let cfg = SeqVnConfig { args: vec![44], ..SeqVnConfig::default() };
    /// let r = SeqVnEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![42]);
    /// assert_eq!(r.cycles(), r.dyn_instrs(), "one instruction per cycle");
    /// ```
    pub fn new(program: &'a Program, mem: MemoryImage, cfg: SeqVnConfig) -> Self {
        SeqVnEngine::with_probe(program, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> SeqVnEngine<'a, P> {
    /// Builds an engine that reports events to `probe` as it runs. The vN
    /// machine has no spatial structure, so every retired instruction is a
    /// fire of the single virtual node 0 (`instr`) in block 0 (`program`),
    /// one per cycle.
    pub fn with_probe(
        program: &'a Program,
        mem: MemoryImage,
        cfg: SeqVnConfig,
        mut probe: P,
    ) -> Self {
        declare_program(&mut probe);
        SeqVnEngine { program, mem, cfg, probe }
    }

    /// Runs the program.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Interp`] on interpreter faults and
    /// [`SimError::CycleLimit`] if the instruction budget runs out.
    pub fn run(mut self) -> Result<RunResult, SimError> {
        let port = MemPort::free_when_ideal(&self.cfg.mem);
        let mut tracer = VnTracer {
            core: Core::new(port, &self.cfg.watchdog, None, self.probe),
            stall_pending: 0,
            stalls: 0,
            tripped: None,
        };
        let limit = self.cfg.max_cycles;
        let end = match interp::run_traced(
            self.program,
            &mut self.mem,
            &self.cfg.args,
            limit,
            &mut tracer,
        ) {
            Ok(out) => {
                let cycles = out.dyn_instrs + tracer.stalls;
                Ok((Outcome::Completed { cycles, dyn_instrs: out.dyn_instrs }, out.returns))
            }
            Err(e) => Err(Halt::of_interp(e, tracer.tripped, limit)),
        };
        tracer.core.finish(end, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn one_ipc_and_tiny_state() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc2, nn], [acc]);
        let p = pb.finish(f, [total]);

        let cfg = SeqVnConfig { args: vec![500], ..SeqVnConfig::default() };
        let r = SeqVnEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![(0..500).sum::<i64>()]);
        assert_eq!(r.cycles(), r.dyn_instrs());
        assert_eq!(r.ipc.max_value(), 1);
        assert!(r.peak_live() < 16, "vN live state should be register-like");
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("long", [0]);
        let c = f.lt(i, 1_000_000);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        let cfg = SeqVnConfig { max_cycles: 100, ..SeqVnConfig::default() };
        let err = SeqVnEngine::new(&p, MemoryImage::new(), cfg).run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 100 }));
    }
}
