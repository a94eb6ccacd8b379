//! Out-of-order von Neumann engine (Sec. II-C, Fig. 5b).
//!
//! The classic vN/dataflow hybrid: instructions issue out of order from a
//! bounded *window* over the sequential instruction stream and retire in
//! order. The paper illustrates it with a 4-instruction window: "parallelism
//! increases by nearly 4×, and live state is kept small. However, OoO is
//! still fundamentally vN — reordering is limited to a small region of the
//! vN execution order, preventing the OoO processor from discovering
//! parallelism across, e.g., outer-loop iterations."
//!
//! This engine is an *extension* of the reproduction (Fig. 5 is
//! illustrative; OoO is not one of the five evaluated systems). It streams
//! the dynamic vN instruction order from the reference interpreter —
//! including *exact* def-use dependence ids via
//! [`Tracer::on_instr_deps`] — and schedules it against a `window`-entry
//! reorder buffer with an issue-width cap: instruction *i* issues at the
//! earliest cycle where (a) its operands have finished, (b) instruction
//! *i − window* has retired (in-order retirement frees window slots), and
//! (c) an issue slot is free. Memory disambiguation is perfect (loads and
//! stores are ordered only by their address/value dependences), which only
//! flatters OoO — and it still cannot approach dataflow's parallelism.
//! Live state is the reorder-buffer occupancy plus the architectural
//! registers, vN-style.

use std::collections::VecDeque;

use tyr_ir::interp::{self, Tracer};
use tyr_ir::{MemoryImage, Program, Value};
use tyr_stats::probe::{NoProbe, Probe, ProbeEvent};
use tyr_stats::{IpcHistogram, Trace};

use crate::cache::MemConfig;
use crate::core::{declare_program, Core, Halt};
use crate::mem::MemPort;
use crate::result::{Outcome, RunResult, SimError, TimeoutCause};
use crate::watchdog::Watchdog;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OooConfig {
    /// Reorder-buffer size (the instruction window).
    pub window: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Program arguments.
    pub args: Vec<Value>,
    /// Safety limit on retired instructions.
    pub max_instrs: u64,
    /// Memory model. Ideal memory completes every access within the
    /// instruction's single execution cycle (the engine's historical
    /// behaviour). A cached model stretches a memory instruction's
    /// execution latency to the hierarchy's response time: younger
    /// independent instructions still issue around the miss (that is the
    /// point of OoO), but in-order retirement means an outstanding miss at
    /// the window head stalls window refill — the classic MLP-vs-window
    /// tension.
    pub mem: MemConfig,
    /// Run watchdog (see [`crate::watchdog`]). Disarmed by default. The
    /// cycle budget is checked against the scheduler's retirement horizon;
    /// trips end the run as an attributed [`Outcome::TimedOut`].
    pub watchdog: Watchdog,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            window: 64,
            issue_width: 8,
            args: Vec::new(),
            max_instrs: 50_000_000_000,
            mem: MemConfig::default(),
            watchdog: Watchdog::none(),
        }
    }
}

/// The out-of-order vN engine.
pub struct OooEngine<'a, P: Probe = NoProbe> {
    program: &'a Program,
    mem: MemoryImage,
    cfg: OooConfig,
    probe: P,
}

/// Greedy window scheduler over the dynamic vN instruction stream.
///
/// Out-of-order issue, in-order retirement: instruction *i* may issue at
/// any cycle ≥ its operands' readiness once it has entered the window
/// (i.e. instruction *i − window* has retired), subject to `width` issue
/// slots per cycle. Younger instructions may issue before stalled older
/// ones — the defining OoO property.
struct WindowScheduler {
    window: usize,
    width: u64,
    /// In-order retirement times of in-flight instructions (≤ `window`).
    rob: VecDeque<u64>,
    /// Retirement time of the youngest retired instruction (monotone).
    last_retire: u64,
    /// Issue-slot usage per cycle, keyed relative to `slot_base`.
    slots: VecDeque<u64>,
    slot_base: u64,
    /// Cycles fully accounted into the trace/IPC so far.
    accounted: u64,
    /// Retire times awaiting trace accounting (popped from `rob`).
    retired_pending: VecDeque<u64>,
    issued: u64,
    retired_counted: u64,
    trace: Trace,
    ipc: IpcHistogram,
    live_values: u64,
}

impl WindowScheduler {
    fn new(window: usize, width: usize) -> Self {
        WindowScheduler {
            window: window.max(1),
            width: width.max(1) as u64,
            rob: VecDeque::new(),
            last_retire: 0,
            slots: VecDeque::new(),
            slot_base: 0,
            accounted: 0,
            retired_pending: VecDeque::new(),
            issued: 0,
            retired_counted: 0,
            trace: Trace::new(),
            ipc: IpcHistogram::new(),
            live_values: 0,
        }
    }

    fn slot_at(&mut self, cycle: u64) -> &mut u64 {
        debug_assert!(cycle >= self.slot_base);
        let idx = (cycle - self.slot_base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        &mut self.slots[idx]
    }

    /// Accounts finished cycles `< upto` into the trace and IPC histogram.
    ///
    /// Zero-issue stretches are folded in bulk: between one retirement and
    /// the next, a cycle with no issue-slot usage records exactly the same
    /// `(in_flight, 0)` sample as its neighbours, so a long memory-latency
    /// gap costs one `record_n` instead of one `record` per cycle. The
    /// samples produced are bit-identical to the per-cycle loop's.
    fn account_to(&mut self, upto: u64) {
        while self.accounted < upto {
            let c = self.accounted;
            while self.retired_pending.front().is_some_and(|&r| r <= c) {
                self.retired_pending.pop_front();
                self.retired_counted += 1;
            }
            let issued_this = if c >= self.slot_base { *self.slot_at(c) } else { 0 };
            let in_flight = self.issued - self.retired_counted;
            let value = in_flight.min(self.window as u64) + self.live_values;
            if issued_this > 0 {
                self.trace.record(value);
                self.ipc.record(issued_this);
                self.accounted += 1;
                continue;
            }
            // The constant-sample run ends at the next retirement (which
            // changes `in_flight`) or the next cycle with issued slots.
            let mut end = self.retired_pending.front().map_or(upto, |&r| upto.min(r));
            let base = self.slot_base;
            let mut idx = ((c + 1).max(base) - base) as usize;
            while base + (idx as u64) < end && idx < self.slots.len() {
                if self.slots[idx] != 0 {
                    end = base + idx as u64;
                    break;
                }
                idx += 1;
            }
            let n = end - c;
            self.trace.record_n(value, n);
            self.ipc.record_n(0, n);
            self.accounted = end;
        }
        // Prune slot storage below the accounted horizon.
        while self.slot_base < self.accounted && !self.slots.is_empty() {
            self.slots.pop_front();
            self.slot_base += 1;
        }
    }

    /// Schedules one dynamic instruction whose operands finish at
    /// `ready_cycle`; returns its finish cycle. (The engine itself goes
    /// through the split halves so memory instructions can carry a cache
    /// latency; this convenience wrapper anchors the equivalence test.)
    #[cfg(test)]
    fn issue(&mut self, ready_cycle: u64, live_values: u64) -> u64 {
        let at = self.issue_slot(ready_cycle, live_values);
        self.finish_at(at, 1)
    }

    /// First half of [`WindowScheduler::issue`]: claims an issue slot and
    /// returns the issue cycle. Must be paired with a
    /// [`WindowScheduler::finish_at`] call.
    fn issue_slot(&mut self, ready_cycle: u64, live_values: u64) -> u64 {
        self.live_values = live_values;
        // Window entry: the (i - window)-th instruction must have retired.
        let enter = if self.rob.len() >= self.window {
            let r = self.rob.pop_front().expect("full rob");
            self.retired_pending.push_back(r);
            r
        } else {
            0
        };
        // Everything strictly before `enter` can no longer issue: account it.
        self.account_to(enter);
        // Find the first cycle >= max(ready, enter) with a free issue slot.
        let mut at = ready_cycle.max(enter).max(self.slot_base);
        let width = self.width;
        loop {
            let used = self.slot_at(at);
            if *used < width {
                *used += 1;
                break;
            }
            at += 1;
        }
        self.issued += 1;
        at
    }

    /// Second half of [`WindowScheduler::issue`]: completes the instruction
    /// issued at `at` after `latency` execution cycles (1 for ALU ops and
    /// ideal memory; the hierarchy's response time for cached accesses) and
    /// returns its finish cycle.
    fn finish_at(&mut self, at: u64, latency: u64) -> u64 {
        let finish = at + latency.max(1);
        // In-order retirement: visible completion is monotone.
        self.last_retire = self.last_retire.max(finish);
        self.rob.push_back(self.last_retire);
        finish
    }

    fn drain(mut self) -> (u64, Trace, IpcHistogram) {
        let end = self.last_retire.max(self.accounted);
        while let Some(r) = self.rob.pop_front() {
            self.retired_pending.push_back(r);
        }
        self.account_to(end);
        (end.max(1), self.trace, self.ipc)
    }
}

/// Interpreter tracer that schedules the exact def-use stream: every
/// dynamic instruction carries its definition id and its operands'
/// definition ids, so operand readiness is each producer's true finish
/// cycle.
struct OooTracer<P: Probe> {
    sched: WindowScheduler,
    /// Finish cycle per definition id. A long-lived value (e.g. a loop
    /// invariant) can be referenced arbitrarily late, so the whole table is
    /// kept: 8 bytes per dynamic instruction.
    finish: Vec<u64>,
    tripped: Option<TimeoutCause>,
    /// Accesses reported by `on_mem` but not yet priced: the interpreter
    /// calls `on_mem` *before* the owning instruction's `on_instr_deps`, so
    /// the issue cycle — where the cache lookup happens — is not known yet.
    /// Stays empty (and unallocated) under ideal memory.
    pending_mem: Vec<(Value, bool)>,
    /// Watchdog, memory port and probe; the scheduler keeps the clock and
    /// the samplers until the run drains.
    core: Core<P>,
}

impl<P: Probe> OooTracer<P> {
    /// Prices any pending memory accesses against the cache at issue cycle
    /// `at` and returns the instruction's execution latency: 1 for pure ALU
    /// work or ideal memory, otherwise the slowest access's response time.
    fn mem_latency(&mut self, at: u64) -> u64 {
        let mut lat = 1;
        for (addr, write) in self.pending_mem.drain(..) {
            lat = lat.max(self.core.port.lookup(&mut self.core.probe, at, 0, addr, write));
        }
        lat
    }
}

impl<P: Probe> Tracer for OooTracer<P> {
    fn on_instr(&mut self, live_values: u64) {
        // Not reached: the interpreter always calls `on_instr_deps`.
        let at = self.sched.issue_slot(0, live_values);
        let lat = self.mem_latency(at);
        let f = self.sched.finish_at(at, lat);
        if P::ENABLED {
            self.core.probe.event(at, ProbeEvent::NodeFired { node: 0 });
        }
        self.finish.push(f);
    }

    fn on_instr_deps(&mut self, live_values: u64, def: u64, srcs: &[u64]) {
        let ready = srcs
            .iter()
            .map(|&s| self.finish.get(s as usize).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let at = self.sched.issue_slot(ready, live_values);
        let lat = self.mem_latency(at);
        let f = self.sched.finish_at(at, lat);
        if P::ENABLED {
            // Stamped with the issue cycle. Issue times are not monotone
            // across the stream (the defining OoO property); sinks tolerate
            // out-of-order timestamps.
            self.core.probe.event(at, ProbeEvent::NodeFired { node: 0 });
        }
        // `def` ids are issued consecutively starting at 1; binds into the
        // table may skip ids (branches define nothing consumed later) but
        // stay ordered.
        if self.finish.len() <= def as usize {
            self.finish.resize(def as usize + 1, 0);
        }
        self.finish[def as usize] = f;
    }

    fn on_mem(&mut self, addr: Value, write: bool) {
        // `on_mem` precedes the access's `on_instr_deps`, so the issue cycle
        // is not known yet; stamp with the retirement horizon (timestamps
        // are out of order in this engine anyway, and sinks tolerate it).
        self.core.port.count(&mut self.core.probe, self.sched.last_retire, 0, addr, write);
        if self.core.port.is_cached() {
            self.pending_mem.push((addr, write));
        }
    }

    fn poll_halt(&mut self) -> bool {
        // The scheduler's retirement horizon is the engine's notion of the
        // current cycle.
        self.tripped = self.core.dog.check(self.sched.last_retire);
        self.tripped.is_some()
    }
}

impl<'a> OooEngine<'a> {
    /// Builds an engine over a structured program with no probe attached.
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::ooo::{OooConfig, OooEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let a = f.add(x, 1);
    /// let b = f.mul(x, 2);
    /// let y = f.add(a, b);
    /// let p = pb.finish(f, [y]);
    ///
    /// let cfg = OooConfig { args: vec![10], ..OooConfig::default() };
    /// let r = OooEngine::new(&p, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![31]);
    /// assert!(r.cycles() < r.dyn_instrs(), "independent ops overlap");
    /// ```
    pub fn new(program: &'a Program, mem: MemoryImage, cfg: OooConfig) -> Self {
        OooEngine::with_probe(program, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> OooEngine<'a, P> {
    /// Builds an engine that reports events to `probe` as it runs. Like the
    /// vN engine, the OoO window has no spatial structure: each dynamic
    /// instruction fires virtual node 0 (`instr`) in block 0 (`program`),
    /// timestamped with its (out-of-order) issue cycle.
    pub fn with_probe(
        program: &'a Program,
        mem: MemoryImage,
        cfg: OooConfig,
        mut probe: P,
    ) -> Self {
        declare_program(&mut probe);
        OooEngine { program, mem, cfg, probe }
    }

    /// Runs the program.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Interp`] on interpreter faults and
    /// [`SimError::CycleLimit`] when the instruction budget runs out.
    pub fn run(mut self) -> Result<RunResult, SimError> {
        let port = MemPort::free_when_ideal(&self.cfg.mem);
        let mut tracer = OooTracer {
            sched: WindowScheduler::new(self.cfg.window, self.cfg.issue_width),
            finish: vec![0],
            tripped: None,
            pending_mem: Vec::new(),
            core: Core::new(port, &self.cfg.watchdog, None, self.probe),
        };
        let limit = self.cfg.max_instrs;
        let out =
            interp::run_traced(self.program, &mut self.mem, &self.cfg.args, limit, &mut tracer);
        let OooTracer { sched, tripped, mut core, .. } = tracer;
        // A timeout is attributed to the retirement horizon with the
        // reorder buffer's occupancy as its live state.
        (core.cycle, core.live) = (sched.last_retire, sched.rob.len() as u64);
        let cycles;
        (cycles, core.trace, core.ipc) = sched.drain();
        let end = match out {
            Ok(out) => Ok((Outcome::Completed { cycles, dyn_instrs: out.dyn_instrs }, out.returns)),
            Err(e) => Err(Halt::of_interp(e, tripped, limit)),
        };
        core.finish(end, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_ir::build::ProgramBuilder;

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

    fn run(window: usize, width: usize, n: i64) -> RunResult {
        let p = sum_program();
        let cfg = OooConfig { window, issue_width: width, args: vec![n], ..OooConfig::default() };
        OooEngine::new(&p, MemoryImage::new(), cfg).run().unwrap()
    }

    #[test]
    fn computes_correct_result() {
        let r = run(64, 8, 200);
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![(0..200).sum::<i64>()]);
    }

    #[test]
    fn window_one_degenerates_to_sequential() {
        let r = run(1, 8, 100);
        // One-entry window: issue waits for the previous retire — cycles at
        // least the instruction count.
        assert!(r.cycles() >= r.dyn_instrs());
    }

    #[test]
    fn wider_windows_do_not_slow_down() {
        let w1 = run(4, 4, 300);
        let w2 = run(64, 4, 300);
        assert_eq!(w1.dyn_instrs(), w2.dyn_instrs());
        assert!(w2.cycles() <= w1.cycles(), "{} > {}", w2.cycles(), w1.cycles());
        // But OoO cannot approach dataflow: ILP stays window/width-limited.
        assert!(w2.cycles() * 64 >= w2.dyn_instrs());
    }

    #[test]
    fn live_state_tracks_window_not_program() {
        let small = run(4, 4, 400);
        let large = run(256, 16, 400);
        assert!(small.peak_live() <= 4 + 32, "peak {}", small.peak_live());
        assert!(large.peak_live() <= 256 + 32, "peak {}", large.peak_live());
        assert!(large.peak_live() > small.peak_live());
    }

    /// A copy of the pre-batching scheduler whose `account_to` ticks one
    /// cycle at a time — the reference the bulk-folding version must match
    /// sample for sample.
    struct RefScheduler(WindowScheduler);

    impl RefScheduler {
        fn account_to(&mut self, upto: u64) {
            let s = &mut self.0;
            while s.accounted < upto {
                let c = s.accounted;
                let issued_this = if c >= s.slot_base { *s.slot_at(c) } else { 0 };
                while s.retired_pending.front().is_some_and(|&r| r <= c) {
                    s.retired_pending.pop_front();
                    s.retired_counted += 1;
                }
                let in_flight = s.issued - s.retired_counted;
                s.trace.record(in_flight.min(s.window as u64) + s.live_values);
                s.ipc.record(issued_this);
                s.accounted += 1;
            }
            while s.slot_base < s.accounted && !s.slots.is_empty() {
                s.slots.pop_front();
                s.slot_base += 1;
            }
        }

        fn issue(&mut self, ready_cycle: u64, live_values: u64) -> u64 {
            let enter = {
                let s = &mut self.0;
                s.live_values = live_values;
                if s.rob.len() >= s.window {
                    let r = s.rob.pop_front().expect("full rob");
                    s.retired_pending.push_back(r);
                    r
                } else {
                    0
                }
            };
            self.account_to(enter);
            let s = &mut self.0;
            let mut at = ready_cycle.max(enter).max(s.slot_base);
            let width = s.width;
            loop {
                let used = s.slot_at(at);
                if *used < width {
                    *used += 1;
                    break;
                }
                at += 1;
            }
            s.issued += 1;
            let finish = at + 1;
            s.last_retire = s.last_retire.max(finish);
            s.rob.push_back(s.last_retire);
            finish
        }

        fn drain(mut self) -> (u64, Trace, IpcHistogram) {
            let end = self.0.last_retire.max(self.0.accounted);
            while let Some(r) = self.0.rob.pop_front() {
                self.0.retired_pending.push_back(r);
            }
            self.account_to(end);
            (end.max(1), self.0.trace, self.0.ipc)
        }
    }

    /// The batched `account_to` must produce bit-identical traces, IPC
    /// histograms, and issue cycles to the one-tick-at-a-time reference —
    /// across dense streams, long memory-latency gaps (the case the
    /// batching exists for), and window-full retirement stalls.
    #[test]
    fn batched_accounting_matches_per_cycle_reference() {
        let schedules: Vec<Vec<u64>> = vec![
            // Dense: every instruction ready immediately.
            (0..200).map(|_| 0).collect(),
            // Serial chain with a 500-cycle gap per instruction.
            (0..40).map(|i| i * 500).collect(),
            // Mixed: bursts separated by long gaps.
            (0..120).map(|i| (i / 10) * 3000 + (i % 10)).collect(),
            // Gaps shorter than the window refill rate.
            (0..300).map(|i| i * 3).collect(),
        ];
        for (wi, (window, width)) in [(1usize, 1usize), (4, 2), (64, 8)].iter().enumerate() {
            for (si, ready) in schedules.iter().enumerate() {
                let mut fast = WindowScheduler::new(*window, *width);
                let mut slow = RefScheduler(WindowScheduler::new(*window, *width));
                for (k, &r) in ready.iter().enumerate() {
                    let live = (k % 7) as u64;
                    assert_eq!(
                        fast.issue(r, live),
                        slow.issue(r, live),
                        "w{wi} s{si} k{k}: issue cycle diverged"
                    );
                }
                let (end_f, trace_f, ipc_f) = fast.drain();
                let (end_s, trace_s, ipc_s) = slow.drain();
                assert_eq!(end_f, end_s, "w{wi} s{si}: end");
                assert_eq!(trace_f, trace_s, "w{wi} s{si}: trace");
                assert_eq!(ipc_f, ipc_s, "w{wi} s{si}: ipc");
            }
        }
    }
}
