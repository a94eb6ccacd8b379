//! Sequential dataflow engine (WaveScalar/TRIPS-style; Sec. II-C, Fig. 5c).
//!
//! These architectures impose *global ordering points* at block boundaries:
//! execution proceeds one dynamic block instance (one "wave") at a time, in
//! the von Neumann block order, with dataflow parallelism only *inside* the
//! current instance. We model this directly on the structured IR:
//!
//! * simple statements accumulate into the current instance's dependence
//!   DAG; conditionals are if-converted into the same instance (hyperblock
//!   style);
//! * loop entries, every loop iteration, calls, and returns are ordering
//!   points that *flush* the instance: its instructions are scheduled by
//!   dependence level, at most `issue_width` per cycle, before the next
//!   instance may begin.
//!
//! Live state is the bound-value count across activation frames, as in the
//! vN engine — sequential dataflow keeps values "in place" rather than as
//! tokens, which is why Fig. 14 shows its state comparable to (even below)
//! the vN baseline.

use tyr_ir::{MemoryImage, Program, Region, Stmt, Value, Var};
use tyr_stats::probe::{NoProbe, Probe, ProbeEvent};

use crate::cache::MemConfig;
use crate::core::{declare_program, Core, Halt};
use crate::mem::MemPort;
use crate::result::{Outcome, RunResult, SimError};
use crate::watchdog::Watchdog;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SeqDataflowConfig {
    /// Instructions issued per cycle within the current block instance.
    pub issue_width: usize,
    /// Program arguments.
    pub args: Vec<Value>,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Memory model. Ideal memory is free (accesses complete within the
    /// instruction's cycle, matching the engine's historical behaviour). A
    /// cached model charges each access's excess latency as a serial
    /// end-of-run stall penalty: block-at-a-time machines can hide some
    /// latency inside a wave's dataflow parallelism, so this is a coarse,
    /// deliberately pessimistic bound — but hits and misses are still
    /// counted exactly, which is what the locality comparison needs.
    pub mem: MemConfig,
    /// Run watchdog (see [`crate::watchdog`]). Disarmed by default; checked
    /// once per simulated cycle as block instances are scheduled. Trips end
    /// the run as an attributed [`Outcome::TimedOut`].
    pub watchdog: Watchdog,
}

impl Default for SeqDataflowConfig {
    fn default() -> Self {
        SeqDataflowConfig {
            issue_width: 128,
            args: Vec::new(),
            max_cycles: 50_000_000_000,
            mem: MemConfig::default(),
            watchdog: Watchdog::none(),
        }
    }
}

/// The sequential-dataflow engine.
pub struct SeqDataflowEngine<'a, P: Probe = NoProbe> {
    program: &'a Program,
    mem: MemoryImage,
    cfg: SeqDataflowConfig,
    probe: P,
}

struct Frame {
    env: Vec<Option<Value>>,
    /// Dependence level of each variable within the *current* instance
    /// (0 = produced by an earlier instance).
    level: Vec<u32>,
}

struct Exec<'a, P: Probe> {
    program: &'a Program,
    mem: MemoryImage,
    width: u64,
    max_cycles: u64,
    /// Instructions per dependence level in the current instance
    /// (index = level - 1).
    hist: Vec<u64>,
    fired: u64,
    /// Accumulated memory-stall cycles, appended to the clock at run end.
    stalls: u64,
    /// Clock, samplers, watchdog, memory port and probe.
    core: Core<P>,
}

impl<'a> SeqDataflowEngine<'a> {
    /// Builds an engine over a structured program with no probe attached.
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let a = f.add(x, 1);
    /// let b = f.mul(x, 2);
    /// let y = f.add(a, b);
    /// let p = pb.finish(f, [y]);
    ///
    /// let cfg = SeqDataflowConfig { args: vec![5], ..SeqDataflowConfig::default() };
    /// let r = SeqDataflowEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![16]);
    /// ```
    pub fn new(program: &'a Program, mem: MemoryImage, cfg: SeqDataflowConfig) -> Self {
        SeqDataflowEngine::with_probe(program, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> SeqDataflowEngine<'a, P> {
    /// Builds an engine that reports events to `probe` as it runs. The
    /// engine executes the structured IR directly (no per-node graph), so
    /// all events are attributed to a single virtual node 0 (`instr`) in a
    /// single virtual block 0 (`program`); values bound into activation
    /// frames count as produced tokens, unbinds as consumed.
    pub fn with_probe(
        program: &'a Program,
        mem: MemoryImage,
        cfg: SeqDataflowConfig,
        mut probe: P,
    ) -> Self {
        declare_program(&mut probe);
        SeqDataflowEngine { program, mem, cfg, probe }
    }

    /// Runs the program.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on simulated-program faults or when the cycle
    /// limit is exceeded.
    pub fn run(self) -> Result<RunResult, SimError> {
        let port = MemPort::free_when_ideal(&self.cfg.mem);
        let mut exec = Exec {
            program: self.program,
            mem: self.mem,
            width: self.cfg.issue_width.max(1) as u64,
            max_cycles: self.cfg.max_cycles,
            hist: Vec::new(),
            fired: 0,
            stalls: 0,
            core: Core::new(port, &self.cfg.watchdog, None, self.probe),
        };
        let end = exec.call(self.program.entry, &self.cfg.args).map(|returns| {
            // Coarse serial-penalty model: the excess latency of every cache
            // access lands as idle clock after the last wave drains.
            exec.core.idle(exec.stalls);
            (Outcome::Completed { cycles: exec.core.cycle, dyn_instrs: exec.fired }, returns)
        });
        exec.core.finish(end, exec.mem)
    }
}

impl<'a, P: Probe> Exec<'a, P> {
    /// Schedules the accumulated instance DAG: levels in order, at most
    /// `width` instructions per cycle.
    fn flush(&mut self) -> Result<(), Halt> {
        for l in 0..self.hist.len() {
            let mut remaining = self.hist[l];
            while remaining > 0 {
                let fire = remaining.min(self.width);
                self.fired += fire;
                self.core.tick(fire);
                if P::ENABLED {
                    for _ in 0..fire {
                        self.core.probe.event(self.core.cycle, ProbeEvent::NodeFired { node: 0 });
                    }
                }
                remaining -= fire;
                self.core.check_watchdog()?;
                self.core.check_limit(self.max_cycles)?;
            }
        }
        self.hist.clear();
        Ok(())
    }

    /// Runs one access through the memory port, accumulating its latency
    /// beyond the instruction's own cycle as stall debt.
    fn access(&mut self, addr: Value, write: bool) {
        self.stalls += self.core.mem(0, addr, write).saturating_sub(1);
    }

    fn record(&mut self, level: u32) {
        let idx = level.saturating_sub(1) as usize;
        if idx >= self.hist.len() {
            self.hist.resize(idx + 1, 0);
        }
        self.hist[idx] += 1;
    }

    fn bind(&mut self, frame: &mut Frame, v: Var, value: Value, level: u32) {
        let slot = &mut frame.env[v.0 as usize];
        if slot.is_none() {
            self.core.live += 1;
            if P::ENABLED {
                self.core.probe.event(self.core.cycle, ProbeEvent::TokenProduced { node: 0 });
            }
        }
        *slot = Some(value);
        frame.level[v.0 as usize] = level;
    }

    fn unbind(&mut self, frame: &mut Frame, v: Var) {
        if frame.env[v.0 as usize].take().is_some() {
            self.core.live -= 1;
            if P::ENABLED {
                self.core
                    .probe
                    .event(self.core.cycle, ProbeEvent::TokenConsumed { node: 0, count: 1 });
            }
        }
        frame.level[v.0 as usize] = 0;
    }

    fn operand(frame: &Frame, o: tyr_ir::Operand) -> Result<(Value, u32), Halt> {
        match o {
            tyr_ir::Operand::Const(c) => Ok((c, 0)),
            tyr_ir::Operand::Var(v) => {
                let val = frame.env[v.0 as usize]
                    .ok_or_else(|| Halt::Fault(SimError::Interp(format!("unbound {v}"))))?;
                Ok((val, frame.level[v.0 as usize]))
            }
        }
    }

    fn call(&mut self, func: tyr_ir::FuncId, args: &[Value]) -> Result<Vec<Value>, Halt> {
        let f = self.program.func(func);
        let mut frame =
            Frame { env: vec![None; f.n_vars as usize], level: vec![0; f.n_vars as usize] };
        for (&p, &a) in f.params.iter().zip(args) {
            self.bind(&mut frame, p, a, 0);
        }
        self.exec_region(&f.body, &mut frame)?;
        self.flush()?;
        let rets: Vec<Value> = f
            .returns
            .iter()
            .map(|&r| Self::operand(&frame, r).map(|(v, _)| v))
            .collect::<Result<_, _>>()?;
        self.core.live -= frame.env.iter().filter(|s| s.is_some()).count() as u64;
        Ok(rets)
    }

    fn exec_region(&mut self, region: &Region, frame: &mut Frame) -> Result<(), Halt> {
        for stmt in &region.stmts {
            self.exec_stmt(stmt, frame)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> Result<(), Halt> {
        match stmt {
            Stmt::Op { dst, op, lhs, rhs } => {
                let (a, la) = Self::operand(frame, *lhs)?;
                let (b, lb) = Self::operand(frame, *rhs)?;
                let v = op.eval(a, b).map_err(|e| Halt::Fault(SimError::Alu(e)))?;
                let level = la.max(lb) + 1;
                self.record(level);
                self.bind(frame, *dst, v, level);
            }
            Stmt::Load { dst, addr } => {
                let (a, la) = Self::operand(frame, *addr)?;
                let v = self.mem.load(a)?;
                self.access(a, false);
                let level = la + 1;
                self.record(level);
                self.bind(frame, *dst, v, level);
            }
            Stmt::Store { addr, value } => {
                let (a, la) = Self::operand(frame, *addr)?;
                let (v, lv) = Self::operand(frame, *value)?;
                self.mem.store(a, v)?;
                self.access(a, true);
                self.record(la.max(lv) + 1);
            }
            Stmt::StoreAdd { addr, value } => {
                let (a, la) = Self::operand(frame, *addr)?;
                let (v, lv) = Self::operand(frame, *value)?;
                self.mem.fetch_add(a, v)?;
                self.access(a, true);
                self.record(la.max(lv) + 1);
            }
            Stmt::Select { dst, cond, on_true, on_false } => {
                let (c, lc) = Self::operand(frame, *cond)?;
                let (t, lt) = Self::operand(frame, *on_true)?;
                let (e, le) = Self::operand(frame, *on_false)?;
                let level = lc.max(lt).max(le) + 1;
                self.record(level);
                self.bind(frame, *dst, if c != 0 { t } else { e }, level);
            }
            Stmt::If(i) => {
                // If-converted into the current hyperblock: the branch is one
                // instruction; the taken side's statements keep accumulating.
                let (c, lc) = Self::operand(frame, i.cond)?;
                self.record(lc + 1);
                let (taken, merge_then) =
                    if c != 0 { (&i.then_region, true) } else { (&i.else_region, false) };
                self.exec_region(taken, frame)?;
                let merged: Vec<(Var, Value, u32)> = i
                    .merges
                    .iter()
                    .map(|&(d, t, e)| {
                        let src = if merge_then { t } else { e };
                        Self::operand(frame, src).map(|(v, l)| (d, v, l))
                    })
                    .collect::<Result<_, _>>()?;
                for v in region_defs(taken) {
                    self.unbind(frame, v);
                }
                for (d, v, l) in merged {
                    self.bind(frame, d, v, l);
                }
            }
            Stmt::Loop(l) => {
                let inits: Vec<(Var, Value)> = l
                    .carried
                    .iter()
                    .map(|&(v, init)| Self::operand(frame, init).map(|(x, _)| (v, x)))
                    .collect::<Result<_, _>>()?;
                // Loop entry is an ordering point (the wave advances).
                self.flush()?;
                for (v, x) in inits {
                    self.bind(frame, v, x, 0);
                }
                loop {
                    self.exec_region(&l.pre, frame)?;
                    let (c, lc) = Self::operand(frame, l.cond)?;
                    self.record(lc + 1); // the steer/branch
                    if c == 0 {
                        break;
                    }
                    self.exec_region(&l.body, frame)?;
                    let nexts: Vec<Value> = l
                        .next
                        .iter()
                        .map(|&n| Self::operand(frame, n).map(|(v, _)| v))
                        .collect::<Result<_, _>>()?;
                    // Iteration boundary: wave advance.
                    self.flush()?;
                    for (&(v, _), x) in l.carried.iter().zip(nexts) {
                        self.bind(frame, v, x, 0);
                    }
                }
                let exits: Vec<(Var, Value)> = l
                    .exits
                    .iter()
                    .map(|&(d, src)| Self::operand(frame, src).map(|(v, _)| (d, v)))
                    .collect::<Result<_, _>>()?;
                self.flush()?;
                for (v, _) in &l.carried {
                    self.unbind(frame, *v);
                }
                for v in region_defs(&l.pre).chain(region_defs(&l.body)) {
                    self.unbind(frame, v);
                }
                for (d, v) in exits {
                    self.bind(frame, d, v, 0);
                }
            }
            Stmt::Call { func, args, rets } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|&a| Self::operand(frame, a).map(|(v, _)| v))
                    .collect::<Result<_, _>>()?;
                self.record(1); // the call
                self.flush()?;
                let retv = self.call(*func, &argv)?;
                self.record(1); // the return
                self.flush()?;
                for (&d, v) in rets.iter().zip(retv) {
                    self.bind(frame, d, v, 0);
                }
            }
        }
        Ok(())
    }
}

/// All variables defined anywhere inside a region (recursively).
fn region_defs(region: &Region) -> impl Iterator<Item = Var> + '_ {
    let mut out = Vec::new();
    fn collect(region: &Region, out: &mut Vec<Var>) {
        for stmt in &region.stmts {
            out.extend(stmt.defs());
            match stmt {
                Stmt::Loop(l) => {
                    out.extend(l.carried.iter().map(|&(v, _)| v));
                    collect(&l.pre, out);
                    collect(&l.body, out);
                }
                Stmt::If(i) => {
                    collect(&i.then_region, out);
                    collect(&i.else_region, out);
                }
                _ => {}
            }
        }
    }
    collect(region, &mut out);
    out.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::interp;

    fn sum_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc2, nn], [acc]);
        pb.finish(f, [total])
    }

    #[test]
    fn matches_oracle_and_beats_vn() {
        let p = sum_program();
        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[500]).unwrap();
        let cfg = SeqDataflowConfig { args: vec![500], ..SeqDataflowConfig::default() };
        let r = SeqDataflowEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete());
        assert_eq!(r.returns, oracle.returns);
        // Same dynamic instruction count as vN, fewer cycles (ILP inside the
        // block instance).
        assert_eq!(r.dyn_instrs(), oracle.dyn_instrs);
        assert!(r.cycles() < oracle.dyn_instrs);
        // But still serialized across iterations: much slower than ~depth.
        assert!(r.cycles() >= 500);
    }

    #[test]
    fn ipc_exceeds_one_within_instances() {
        let p = sum_program();
        let cfg = SeqDataflowConfig { args: vec![100], ..SeqDataflowConfig::default() };
        let r = SeqDataflowEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.ipc.max_value() >= 2, "expected intra-block ILP");
    }

    #[test]
    fn narrow_width_serializes() {
        let p = sum_program();
        let wide = SeqDataflowEngine::new(
            &p,
            MemoryImage::new(),
            SeqDataflowConfig { args: vec![100], ..SeqDataflowConfig::default() },
        )
        .run()
        .unwrap();
        let narrow = SeqDataflowEngine::new(
            &p,
            MemoryImage::new(),
            SeqDataflowConfig { issue_width: 1, args: vec![100], ..SeqDataflowConfig::default() },
        )
        .run()
        .unwrap();
        assert_eq!(wide.returns, narrow.returns);
        assert!(narrow.cycles() >= wide.cycles());
        assert_eq!(narrow.cycles(), narrow.dyn_instrs());
    }
}
