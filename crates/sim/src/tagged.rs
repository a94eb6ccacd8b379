//! The tagged-dataflow engine: executes graphs from
//! `tyr_dfg::lower::lower_tagged` under a configurable *tag policy*.
//!
//! One engine serves three architectures of the paper's evaluation:
//!
//! * [`TagPolicy::Local`] — **TYR**: every concurrent block has its own
//!   free list; `allocate` obeys the forward-progress rule of Sec. IV-A
//!   (never taking the last usable tag unless the context is ready, and
//!   reserving a spare tag for tail-recursive backedges). Per-block sizes
//!   can differ (Sec. VII-E).
//! * [`TagPolicy::GlobalBounded`] — naïve unordered dataflow with a finite
//!   global tag pool, allocated first-come-first-served. This is the
//!   configuration that deadlocks in Fig. 11.
//! * [`TagPolicy::GlobalUnbounded`] — naïve unordered dataflow with
//!   unlimited tags (the TTDA/Monsoon-style baseline). With a TYR graph this
//!   policy makes every `allocate` succeed immediately, reproducing the
//!   "unlimited tags behaves identically to naïve unordered" observation of
//!   Fig. 9d.
//!
//! Execution is idealized per Sec. VI: every instruction takes one cycle,
//! up to `issue_width` instructions fire per cycle (including multiple
//! dynamic instances of the same static instruction), and live tokens and
//! IPC are sampled every cycle.

use std::collections::VecDeque;

use tyr_dfg::{AllocKind, BlockId, Dfg, InKind, Node, NodeId, NodeKind, PortRef};
use tyr_ir::{MemoryImage, Value};
use tyr_stats::probe::{FaultKind, NoProbe, Probe, ProbeEvent, StallReason};

use crate::cache::MemConfig;
use crate::core::{declare_graph, Core, End};
use crate::event::EventQueue;
use crate::fault::FaultPlan;
use crate::mem::MemPort;
use crate::plan::{Edge, Op, Plan, PlanNode};
use crate::result::{Outcome, RunResult, SimError};
use crate::store::{DenseRows, Rows, SparseRows, IN_QUEUE};
use crate::watchdog::Watchdog;

/// Presence-word flags beside [`IN_QUEUE`]: the activation is parked on a
/// pending-allocate list; the `allocate` popped before its `ready` arrived.
const IN_PENDING: u64 = 1 << 62;
const AL_POPPED: u64 = 1 << 61;

/// Tag-allocation policy (the axis distinguishing TYR from prior unordered
/// dataflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagPolicy {
    /// TYR: local tag spaces with forward-progress gating.
    Local {
        /// Tags per concurrent block.
        default_tags: usize,
        /// Per-block overrides by block name (function name or loop label).
        overrides: Vec<(String, usize)>,
    },
    /// One global pool of `tags` tags, allocated FCFS with no gating.
    GlobalBounded {
        /// Pool size.
        tags: usize,
    },
    /// Unlimited tags.
    GlobalUnbounded,
}

impl TagPolicy {
    /// TYR with `tags` tags in every local tag space.
    pub fn local(tags: usize) -> Self {
        TagPolicy::Local { default_tags: tags, overrides: Vec::new() }
    }

    /// TYR with per-block overrides: `(block name, tags)`.
    pub fn local_with(tags: usize, overrides: Vec<(String, usize)>) -> Self {
        TagPolicy::Local { default_tags: tags, overrides }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct TaggedConfig {
    /// Instructions issued per cycle (Sec. VI uses 128).
    pub issue_width: usize,
    /// Tag policy.
    pub tag_policy: TagPolicy,
    /// Program arguments delivered by the source node.
    pub args: Vec<Value>,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Memory model (default [`MemConfig::Ideal`] with latency 1, the
    /// paper's idealized store). Loads and stores deliver their results
    /// after the model's per-access latency; raising the ideal latency (or
    /// switching to [`MemConfig::Cached`]) shows why tagged dataflow
    /// tolerates long/unpredictable latencies where ordered dataflow stalls
    /// (Sec. II-C). The cache decides only *when* results arrive, never
    /// *what* they are, so architectural results are identical across
    /// memory models.
    pub mem: MemConfig,
    /// Model dedicated tag-management hardware: token-synchronization
    /// instructions (`allocate`, `free`, `changeTag`, `extractTag`, `join`,
    /// `merge`, `const`) fire without consuming issue slots. Sec. VIII
    /// sketches exactly such microarchitectures (Monsoon-style block-boundary
    /// matching); this knob quantifies the ISA tax of TYR's token
    /// synchronization. Default off: every instruction costs a slot, as in
    /// the paper's evaluation.
    pub free_token_sync: bool,
    /// Use-after-free sanitizer: every time a `free` recycles a tag, scan
    /// that block's nodes for tokens still held under the freed tag and
    /// fail with [`SimError::UseAfterFree`] if any are found. This is the
    /// dynamic counterpart of `tyr-verify`'s static barrier-coverage pass:
    /// a node outside its block's free barrier is exactly one whose tokens
    /// can survive the free. Default off (the scan is O(block size) per
    /// free).
    pub check_token_leaks: bool,
    /// Deterministic fault-injection plan (see [`crate::fault`]). `None`
    /// (the default) injects nothing: every candidate site costs one
    /// `Option` test and the run is bit-identical to an engine without the
    /// fault layer.
    pub faults: Option<FaultPlan>,
    /// Run watchdog: cycle budget, wall-clock deadline, cancellation (see
    /// [`crate::watchdog`]). Disarmed by default.
    pub watchdog: Watchdog,
    /// Event-driven core (default on): when the ready queue is empty the
    /// engine advances the clock straight to the cycle before the next
    /// delayed release instead of ticking through the idle gap, clamped so
    /// the cycle limit, watchdog budget, and fault windows still see every
    /// cycle they would have in a ticked run. Results are bit-identical
    /// either way (only [`RunResult::skipped_cycles`](crate::RunResult) and
    /// wall-clock time differ); `false` forces the legacy one-tick-per-cycle
    /// loop, kept as the differential baseline for `repro fuzz`.
    pub event_driven: bool,
}

impl Default for TaggedConfig {
    fn default() -> Self {
        TaggedConfig {
            issue_width: 128,
            tag_policy: TagPolicy::local(64),
            args: Vec::new(),
            max_cycles: 500_000_000,
            mem: MemConfig::default(),
            free_token_sync: false,
            check_token_leaks: false,
            faults: None,
            watchdog: Watchdog::none(),
            event_driven: true,
        }
    }
}

/// Live tokens per concurrent block (token-store occupancy) and the peak
/// each reached.
struct Occupancy {
    live: Vec<u64>,
    peak: Vec<u64>,
}

impl Occupancy {
    #[inline]
    fn add(&mut self, block: u32, n: u64) {
        let b = block as usize;
        self.live[b] += n;
        if self.live[b] > self.peak[b] {
            self.peak[b] = self.live[b];
        }
    }

    /// Counts a fan-out, one same-block run at a time — exact, since a
    /// block's count only rises within a run, so its last value is its peak.
    #[inline]
    fn add_edges(&mut self, edges: &[Edge]) {
        let mut i = 0;
        while let Some(e) = edges.get(i) {
            self.add(e.block, e.run as u64);
            i += e.run as usize;
        }
    }
}

enum Backend {
    Local { free: Vec<Vec<u64>>, pending: Vec<VecDeque<(u32, u64)>> },
    Global { free: Vec<u64>, pending: VecDeque<(u32, u64)> },
    Unbounded { next: u64 },
}

/// The tagged-dataflow engine. Construct with [`TaggedEngine::new`] (no
/// observability, zero overhead) or [`TaggedEngine::with_probe`], run with
/// [`TaggedEngine::run`].
pub struct TaggedEngine<'a, P: Probe = NoProbe>(Kind<'a, P>);

/// The engine's machine state over the token-store representation its tag
/// policy needs, chosen once per run so that no token pays for the other.
enum Kind<'a, P: Probe> {
    /// Bounded tag spaces (`Local`, `GlobalBounded`).
    Dense(Machine<'a, P, DenseRows>),
    /// Unbounded tags (`GlobalUnbounded`).
    Sparse(Machine<'a, P, SparseRows>),
}

/// Everything one run mutates, generic over the token store `S`.
struct Machine<'a, P: Probe, S: Rows> {
    /// The graph, for cold paths only (labels, faults, reports); the hot
    /// loop reads `plan`.
    dfg: &'a Dfg,
    plan: Plan,
    mem: MemoryImage,
    cfg: TaggedConfig,
    /// Token storage per node: TYR's bounded local tag spaces permit small
    /// dense arrays, unbounded tags force an associative store.
    store: Vec<S>,
    backend: Backend,
    ready: VecDeque<(u32, u64)>,
    emissions: Vec<(PortRef, u64, Value)>,
    /// Memory results in flight, bucketed by release cycle — and the
    /// engine's wakeup source when the ready queue runs dry.
    delayed: EventQueue<(PortRef, u64, Value)>,
    /// Scratch for the per-cycle release drain (capacity reused).
    due: Vec<(PortRef, u64, Value)>,
    /// Scratch for the parked allocates a `free` re-examines (likewise).
    unparked: Vec<(u32, u64)>,
    occupancy: Occupancy,
    fired_total: u64,
    returns: Option<Vec<Value>>,
    /// Set once a tag-exhaust fault strikes: the victim local space index
    /// (any value for the global pool). Freed tags returning to the victim
    /// are swallowed so the starvation is permanent.
    tag_sink: Option<usize>,
    /// Clock, samplers, watchdog, fault state, memory port and probe.
    core: Core<P>,
}

impl<'a> TaggedEngine<'a> {
    /// Builds an engine over a lowered graph and an initial memory image,
    /// with the zero-cost [`NoProbe`] (every probe site compiles out).
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::tagged::{TaggedConfig, TaggedEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let y = f.add(x, 1);
    /// let p = pb.finish(f, [y]);
    ///
    /// let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    /// let cfg = TaggedConfig { args: vec![41], ..TaggedConfig::default() };
    /// let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![42]);
    /// ```
    pub fn new(dfg: &'a Dfg, mem: MemoryImage, cfg: TaggedConfig) -> Self {
        TaggedEngine::with_probe(dfg, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> TaggedEngine<'a, P> {
    /// Builds an engine that emits probe events into `probe` (pass `&mut
    /// sink` to keep ownership of the sink across [`TaggedEngine::run`]).
    pub fn with_probe(dfg: &'a Dfg, mem: MemoryImage, cfg: TaggedConfig, mut probe: P) -> Self {
        declare_graph(&mut probe, dfg);
        let space_size = |name: &str, default_tags: usize, overrides: &[(String, usize)]| {
            overrides
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, t)| t)
                .unwrap_or(default_tags)
                .max(1)
        };

        // Bounded policies get dense stores, `None` is the unbounded policy.
        let (backend, dense): (Backend, Option<Vec<DenseRows>>) = match &cfg.tag_policy {
            TagPolicy::Local { default_tags, overrides } => {
                let root = dfg.node(dfg.source).block();
                let sizes: Vec<usize> = dfg
                    .blocks
                    .iter()
                    .map(|b| space_size(&b.name, *default_tags, overrides))
                    .collect();
                let free: Vec<Vec<u64>> = sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        // The root context owns tag 0 of the root space.
                        let lo = if i == root.0 as usize { 1 } else { 0 };
                        (lo as u64..t as u64).rev().collect()
                    })
                    .collect();
                let pending = vec![VecDeque::new(); sizes.len()];
                let rows = |n: Node| DenseRows::new(n.ins().len(), sizes[n.block().0 as usize]);
                let store = dfg.nodes().map(rows).collect();
                (Backend::Local { free, pending }, Some(store))
            }
            TagPolicy::GlobalBounded { tags } => {
                let t = (*tags).max(1);
                // Tags 1..=t are the pool; the root context owns tag 0.
                let free: Vec<u64> = (1..=t as u64).rev().collect();
                let store = dfg.nodes().map(|n| DenseRows::new(n.ins().len(), t + 1)).collect();
                (Backend::Global { free, pending: VecDeque::new() }, Some(store))
            }
            TagPolicy::GlobalUnbounded => (Backend::Unbounded { next: 1 }, None),
        };
        TaggedEngine(match dense {
            Some(store) => Kind::Dense(Machine::new(dfg, mem, cfg, probe, backend, store)),
            None => {
                let store = dfg.nodes().map(|n| SparseRows::new(n.ins().len())).collect();
                Kind::Sparse(Machine::new(dfg, mem, cfg, probe, backend, store))
            }
        })
    }

    /// Runs the program to completion, deadlock, or fault.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on simulated-program faults (memory, divide),
    /// the cycle limit, internal invariant violations, or a graph the token
    /// store cannot hold ([`SimError::TooManyInputs`]: a node with more than
    /// 48 wired inputs). Deadlock is *not* an error: it is reported via
    /// [`Outcome::Deadlock`].
    pub fn run(self) -> Result<RunResult, SimError> {
        match self.0 {
            Kind::Dense(machine) => machine.run(),
            Kind::Sparse(machine) => machine.run(),
        }
    }
}

impl<'a, P: Probe, S: Rows> Machine<'a, P, S> {
    fn new(
        dfg: &'a Dfg,
        mem: MemoryImage,
        cfg: TaggedConfig,
        probe: P,
        backend: Backend,
        store: Vec<S>,
    ) -> Self {
        // Per-response extra delays (the mem-delay fault) must keep the
        // front-gated FIFO's delivery order, which fault runs pin.
        let arms_mem_delay = cfg
            .faults
            .as_ref()
            .is_some_and(|p| p.specs.iter().any(|s| s.kind == FaultKind::MemDelay && s.count > 0));
        // Cached mode's per-access latencies vary (L1 hit vs DRAM), so hits
        // must be allowed to overtake earlier misses: the sorted queue.
        let delayed = if arms_mem_delay {
            EventQueue::fifo()
        } else if cfg.mem.is_cached() {
            EventQueue::sorted()
        } else {
            EventQueue::new(cfg.mem.ideal_latency())
        };
        let core = Core::new(MemPort::new(&cfg.mem), &cfg.watchdog, cfg.faults.as_ref(), probe);
        let blocks = dfg.blocks.len();
        Machine {
            dfg,
            plan: Plan::compile(dfg),
            mem,
            cfg,
            store,
            backend,
            ready: VecDeque::new(),
            emissions: Vec::new(),
            delayed,
            due: Vec::new(),
            unparked: Vec::new(),
            occupancy: Occupancy { live: vec![0; blocks], peak: vec![0; blocks] },
            fired_total: 0,
            returns: None,
            tag_sink: None,
            core,
        }
    }

    /// [`TaggedEngine::run`] on this store representation.
    fn run(mut self) -> Result<RunResult, SimError> {
        if let Some(count) = self.plan.too_wide {
            return Err(SimError::TooManyInputs { count });
        }
        let end = self.run_loop();
        let peaks = self.store_peaks();
        let mut r = self.core.finish(end, self.mem)?;
        r.store_peaks = peaks;
        Ok(r)
    }

    fn run_loop(&mut self) -> End {
        // Seed: the source fires in the first cycle with the root tag.
        self.ready.push_back((self.dfg.source.0, 0));

        loop {
            self.core.check_watchdog()?;
            if self.core.faults.is_some() {
                self.fault_exhaust_tags();
            }
            // Event-driven fast path: with nothing ready, no instruction can
            // fire and no machine state can change until the next delayed
            // memory release, so the clock may jump there (see
            // `Core::idle_jump` for the clamps). The engine's own clamp is
            // the tag-exhaust fault window, whose in-window cycles each draw
            // from the fault PRNG. After a jump the loop restarts so the
            // loop-top checks see the new cycle.
            if self.cfg.event_driven && self.ready.is_empty() {
                if let Some(next) = self.delayed.next_release(self.core.cycle) {
                    let bound = self.exhaust_jump_bound();
                    if self.core.idle_jump(next, bound, self.cfg.max_cycles)? {
                        continue;
                    }
                }
            }
            let mut fired = 0u64;
            let mut sync_fired = 0u64;
            // With dedicated tag-management hardware, sync instructions are
            // still one-cycle but do not compete for issue slots.
            let sync_budget = if self.cfg.free_token_sync { self.ready.len() } else { 0 };
            let mut considered = 0usize;
            let mut deferred: Vec<(u32, u64)> = Vec::new();
            while (fired as usize) < self.cfg.issue_width
                || (self.cfg.free_token_sync && considered < sync_budget)
            {
                let Some((n, t)) = self.ready.pop_front() else { break };
                considered += 1;
                if let Some(fs) = self.core.faults.as_mut() {
                    let label = self.dfg.node(NodeId(n)).label();
                    if fs.stick(&mut self.core.probe, self.core.cycle, n, label) {
                        // The stuck activation keeps its queue slot but never
                        // fires; the run spins until a watchdog or the cycle
                        // limit ends it.
                        deferred.push((n, t));
                        continue;
                    }
                }
                let PlanNode { op, is_sync, .. } = self.plan.nodes[n as usize];
                if self.cfg.free_token_sync && !is_sync && (fired as usize) >= self.cfg.issue_width
                {
                    // Out of compute slots this cycle; defer without
                    // perturbing the FIFO issue order.
                    deferred.push((n, t));
                    continue;
                }
                if let Op::Allocate { space, kind } = op {
                    if !self.recheck_allocate(n, t, space, kind) {
                        continue; // moved back to the pending list
                    }
                }
                self.fire(n, t)?;
                self.core.event(ProbeEvent::NodeFired { node: n });
                if self.cfg.free_token_sync && is_sync {
                    sync_fired += 1;
                } else {
                    fired += 1;
                }
            }

            // Release memory results whose latency has elapsed. They have
            // counted as live (machine and block) since issue; only now are
            // they produced.
            let mut due = std::mem::take(&mut self.due);
            self.delayed.drain_due(self.core.cycle, &mut due);
            for (target, tag, val) in due.drain(..) {
                self.core.event(ProbeEvent::TokenProduced { node: target.node.0 });
                self.emissions.push((target, tag, val));
            }
            self.due = due;
            // Deliver this cycle's emissions (visible next cycle). The list
            // can grow while draining: an `allocate` that already popped
            // consumes its `ready` input on delivery and emits its control
            // token immediately.
            let mut i = 0;
            while i < self.emissions.len() {
                let (target, tag, mut val) = self.emissions[i];
                i += 1;
                if self.core.faults.is_some() && !self.fault_perturb_emission(target, tag, &mut val)
                {
                    continue; // token dropped
                }
                self.deliver(target, tag, val)?;
            }
            self.emissions.clear();

            for &(n, t) in deferred.iter().rev() {
                self.ready.push_front((n, t));
            }
            // Sync firings are real dynamic instructions even when they do
            // not consume issue slots; IPC counts compute slots only.
            self.fired_total += fired + sync_fired;
            self.core.tick(fired);

            if self.core.live == 0 && self.ready.is_empty() && self.delayed.is_empty() {
                if let Some(returns) = self.returns.take() {
                    let cycles = self.core.cycle;
                    return Ok((
                        Outcome::Completed { cycles, dyn_instrs: self.fired_total },
                        returns,
                    ));
                }
            }
            if fired + sync_fired == 0 && self.ready.is_empty() && self.delayed.is_empty() {
                if self.returns.is_some() {
                    return Err(SimError::TokenLeak { live_tokens: self.core.live }.into());
                }
                let wedge = Outcome::Deadlock {
                    cycle: self.core.cycle,
                    live_tokens: self.core.live,
                    pending_allocates: self.pending_report(),
                };
                return Ok((wedge, Vec::new()));
            }
            self.core.check_limit(self.cfg.max_cycles)?;
        }
    }

    /// The highest cycle the event core may jump to without skipping a
    /// cycle on which [`Machine::fault_exhaust_tags`] could draw from
    /// the fault PRNG. Outside the plan window (and once the fault has
    /// struck or its budget is spent) no candidate cycle draws, so jumps
    /// are unbounded; before the window the clock may advance to its start;
    /// inside it every cycle is a potential draw and the engine single-steps.
    fn exhaust_jump_bound(&self) -> u64 {
        match self.core.faults.as_ref() {
            Some(fs) if self.tag_sink.is_none() && fs.arms(FaultKind::TagExhaust) => {
                let (lo, hi) = fs.window();
                if self.core.cycle >= hi {
                    u64::MAX
                } else {
                    lo.max(self.core.cycle + 1)
                }
            }
            _ => u64::MAX,
        }
    }

    /// The tag-exhaust fault: steals every free tag from one space (the
    /// first local space that an `allocate` node actually targets, or the
    /// global pool) and swallows all future frees to it, so the starvation
    /// is permanent. Allocates on the space park forever — the run ends in
    /// a deadlock report or, with a watchdog, an attributed timeout.
    fn fault_exhaust_tags(&mut self) {
        if self.tag_sink.is_some() {
            return;
        }
        // Only spaces with allocate-side demand are worth starving:
        // stealing a pool nothing draws from perturbs nothing.
        let demanded = |space: usize| {
            self.dfg.nodes().any(
                |n| matches!(n.kind(), NodeKind::Allocate { space: s, .. } if s.0 as usize == space),
            )
        };
        let victim = match &self.backend {
            Backend::Local { free, .. } => {
                free.iter().enumerate().position(|(i, f)| !f.is_empty() && demanded(i))
            }
            Backend::Global { free, .. } => {
                (!free.is_empty() && (0..self.dfg.blocks.len()).any(demanded)).then_some(0)
            }
            Backend::Unbounded { .. } => None, // unbounded spaces cannot exhaust
        };
        let Some(space) = victim else { return };
        let fs = self.core.faults.as_mut().expect("caller checked");
        if !fs.strike(self.core.cycle, FaultKind::TagExhaust) {
            return;
        }
        let (stolen, name) = match &mut self.backend {
            Backend::Local { free, .. } => {
                let n = free[space].len();
                free[space].clear();
                (n, self.dfg.blocks[space].name.as_str())
            }
            Backend::Global { free, .. } => {
                let n = free.len();
                free.clear();
                (n, "the global pool")
            }
            Backend::Unbounded { .. } => unreachable!("filtered above"),
        };
        self.tag_sink = Some(space);
        let fs = self.core.faults.as_mut().expect("caller checked");
        let detail = format!("stole {stolen} free tag(s) from {name}; future frees are swallowed");
        fs.inject(&mut self.core.probe, self.core.cycle, 0, FaultKind::TagExhaust, detail);
    }

    /// Applies token-level faults (drop / duplicate / corrupt) to one
    /// emission. Returns `false` when the token was dropped — the caller
    /// must not deliver it.
    fn fault_perturb_emission(&mut self, target: PortRef, tag: u64, val: &mut Value) -> bool {
        let (node, port) = (target.node.0, target.port);
        let n = self.dfg.node(NodeId(node));
        let (label, block) = (n.label(), n.block().0);
        let (cycle, probe) = (self.core.cycle, &mut self.core.probe);
        let fs = self.core.faults.as_mut().expect("caller checked");
        if fs.strike(cycle, FaultKind::TokenDrop) {
            let detail = format!("dropped token (value {val}) bound for '{label}' port {port}");
            fs.inject(probe, cycle, node, FaultKind::TokenDrop, detail);
            // The token was counted live by `emit`; un-count it.
            self.core.live -= 1;
            self.occupancy.live[block as usize] -= 1;
            return false;
        }
        if fs.strike(cycle, FaultKind::TokenDup) {
            let detail = format!(
                "duplicated token (value {val}) bound for '{label}' port {port} under tag {tag}"
            );
            fs.inject(probe, cycle, node, FaultKind::TokenDup, detail);
            // The copy is appended to this cycle's emission list; delivering
            // it onto the now-occupied port violates the cardinal
            // tagged-dataflow invariant and trips `TagOverflow`.
            self.emissions.push((target, tag, *val));
            self.core.live += 1;
            self.occupancy.add(block, 1);
        }
        // Corrupting a dynamic continuation (`ChangeTagDyn` port 1 encodes a
        // port reference) would send the token to an arbitrary graph index —
        // a harness crash, not a simulated fault — so that one port is
        // exempt.
        let dyn_target = port == 1 && matches!(n.kind(), NodeKind::ChangeTagDyn);
        if !dyn_target && fs.strike(cycle, FaultKind::TokenCorrupt) {
            let before = *val;
            *val ^= fs.mask();
            let detail = format!("corrupted token for '{label}' port {port}: {before} -> {val}");
            fs.inject(probe, cycle, node, FaultKind::TokenCorrupt, detail);
        }
        true
    }

    fn store_peaks(&self) -> Vec<(String, u64)> {
        let peaks = self.dfg.blocks.iter().zip(&self.occupancy.peak);
        peaks.map(|(b, &p)| (b.name.clone(), p)).collect()
    }

    fn pending_report(&self) -> Vec<String> {
        let mut out = Vec::new();
        let describe = |&(n, t): &(u32, u64)| {
            let node = self.dfg.node(NodeId(n));
            format!(
                "{} (tag {t}, block '{}')",
                node.label(),
                self.dfg.blocks[node.block().0 as usize].name
            )
        };
        match &self.backend {
            Backend::Local { pending, .. } => {
                for q in pending {
                    out.extend(q.iter().map(describe));
                }
            }
            Backend::Global { pending, .. } => out.extend(pending.iter().map(describe)),
            Backend::Unbounded { .. } => {}
        }
        out
    }

    /// For an allocate activation popped from the ready queue: takes it off
    /// the queue and re-verifies eligibility (free lists may have changed).
    /// Returns `false` (and parks the activation) if it can no longer pop.
    fn recheck_allocate(&mut self, n: u32, t: u64, space: BlockId, kind: AllocKind) -> bool {
        let present = self.store[n as usize].clear(t, IN_QUEUE);
        if self.alloc_eligible(space, kind, present & 0b10 != 0) {
            return true;
        }
        self.starve(space, n, t);
        false
    }

    /// Parks activation `(n, t)` on `space`'s pending list until a tag
    /// returns to it.
    fn park(&mut self, space: BlockId, n: u32, t: u64) {
        self.store[n as usize].or_flags(t, IN_PENDING);
        self.pending(space).push_back((n, t));
    }

    /// The list of activations parked on `space`.
    fn pending(&mut self, space: BlockId) -> &mut VecDeque<(u32, u64)> {
        match &mut self.backend {
            Backend::Local { pending, .. } => &mut pending[space.0 as usize],
            Backend::Global { pending, .. } => pending,
            Backend::Unbounded { .. } => unreachable!("unbounded is always eligible"),
        }
    }

    /// Parks `(n, t)` and opens (or switches to) its tag-starved stall.
    fn starve(&mut self, space: BlockId, n: u32, t: u64) {
        self.park(space, n, t);
        let reason = StallReason::TagStarved;
        self.core.event(ProbeEvent::StallBegin { node: n, tag: t, reason });
    }

    fn alloc_eligible(&self, space: BlockId, kind: AllocKind, ready: bool) -> bool {
        match &self.backend {
            Backend::Local { free, .. } => {
                let f = free[space.0 as usize].len();
                let r = kind.reserve();
                // Sec. IV-A: pop immediately while more than one usable tag
                // remains; pop the last usable tag only for a ready context.
                if ready {
                    f > r
                } else {
                    f > r + 1
                }
            }
            // FCFS, no gating: this is what deadlocks (Fig. 11).
            Backend::Global { free, .. } => !free.is_empty(),
            Backend::Unbounded { .. } => true,
        }
    }

    fn pop_tag(&mut self, space: BlockId) -> u64 {
        match &mut self.backend {
            Backend::Local { free, .. } => {
                free[space.0 as usize].pop().expect("eligibility checked")
            }
            Backend::Global { free, .. } => free.pop().expect("eligibility checked"),
            Backend::Unbounded { next } => {
                let t = *next;
                *next += 1;
                t
            }
        }
    }

    fn push_tag(&mut self, space: BlockId, tag: u64) {
        if let Some(sink) = self.tag_sink {
            let swallowed = match &self.backend {
                Backend::Local { .. } => sink == space.0 as usize,
                Backend::Global { .. } => true,
                Backend::Unbounded { .. } => false,
            };
            if swallowed {
                // The exhausted space swallows returned tags, keeping the
                // starvation permanent (see `fault_exhaust_tags`).
                return;
            }
        }
        // Returning a tag may unblock parked allocates; re-examine them in
        // arrival order.
        let mut unparked = std::mem::take(&mut self.unparked);
        match &mut self.backend {
            Backend::Local { free, pending } => {
                free[space.0 as usize].push(tag);
                unparked.extend(pending[space.0 as usize].drain(..));
            }
            Backend::Global { free, pending } => {
                free.push(tag);
                unparked.extend(pending.drain(..));
            }
            Backend::Unbounded { .. } => {}
        }
        for (n, t) in unparked.drain(..) {
            // Entries promoted by a later `ready` arrival are stale.
            let present = self.store[n as usize].present(t);
            if present & IN_PENDING == 0 {
                continue;
            }
            let PlanNode { op, block, .. } = self.plan.nodes[n as usize];
            let (space, kind, ready) = match op {
                // A parked pseudo-allocate (bounded policy over an
                // unbounded-elaboration graph).
                Op::NewTag => (BlockId(block), AllocKind::Call, true),
                Op::Allocate { space, kind } => (space, kind, present & 0b10 != 0),
                _ => unreachable!("only allocates park"),
            };
            if self.alloc_eligible(space, kind, ready) {
                self.store[n as usize].clear(t, IN_PENDING);
                self.store[n as usize].or_flags(t, IN_QUEUE);
                self.ready.push_back((n, t));
                self.core.event(ProbeEvent::StallEnd { node: n, tag: t });
            } else {
                // Still starved: back on the list, `IN_PENDING` untouched.
                self.pending(space).push_back((n, t));
            }
        }
        self.unparked = unparked;
    }

    /// Sends `val` under `tag` down every wire of `n`'s output `port`.
    #[inline(always)]
    fn emit(&mut self, n: &PlanNode, port: u16, tag: u64, val: Value) {
        let edges = self.plan.out(n, port);
        for e in edges {
            self.core.event(ProbeEvent::TokenProduced { node: e.to.node.0 });
            self.emissions.push((e.to, tag, val));
        }
        self.core.live += edges.len() as u64;
        self.occupancy.add_edges(edges);
    }

    /// Emits a memory result on output 0 after `latency` cycles (plus any
    /// injected extra delay).
    fn emit_mem(&mut self, node: u32, n: &PlanNode, tag: u64, mut val: Value, latency: u64) {
        let mut extra = 0u64;
        if let Some(fs) = self.core.faults.as_mut() {
            let label = self.dfg.node(NodeId(node)).label();
            let is_load = matches!(n.op, Op::Load);
            let (cycle, probe) = (self.core.cycle, &mut self.core.probe);
            extra = fs.perturb_mem_response(probe, cycle, node, label, is_load, &mut val);
        }
        if latency <= 1 && extra == 0 {
            self.emit(n, 0, tag, val);
            return;
        }
        let release = self.core.cycle + latency.max(1) + extra;
        let edges = self.plan.out(n, 0);
        for e in edges {
            self.delayed.push(release, (e.to, tag, val));
        }
        self.core.live += edges.len() as u64;
        self.occupancy.add_edges(edges);
    }

    /// Settles the `eaten` tokens a firing of `node` took from its store.
    #[inline]
    fn consumed(&mut self, node: u32, block: u32, eaten: u64) {
        let k = eaten.count_ones();
        self.core.live -= k as u64;
        self.occupancy.live[block as usize] -= k as u64;
        if k > 0 {
            self.core.event(ProbeEvent::TokenConsumed { node, count: k });
        }
    }

    /// Use-after-free sanitizer (`TaggedConfig::check_token_leaks`): after
    /// `space` recycled `tag`, no node of that block may still hold tokens
    /// under it — any residual presence means the free barrier failed to
    /// cover the node and a future context of the same tag would observe
    /// this context's state. The sink is exempt: it drains the root
    /// context's return tokens concurrently with the root free.
    fn scan_freed_tag(&self, space: BlockId, tag: u64) -> Result<(), SimError> {
        const FLAGS: u64 = IN_QUEUE | IN_PENDING | AL_POPPED;
        for (ni, n) in self.dfg.nodes().enumerate() {
            if n.block() != space || matches!(n.kind(), NodeKind::Sink) {
                continue;
            }
            if self.store[ni].present(tag) & !FLAGS != 0 {
                return Err(SimError::UseAfterFree {
                    node: n.label().to_string(),
                    block: self.dfg.blocks[space.0 as usize].name.clone(),
                    tag,
                });
            }
        }
        Ok(())
    }

    fn fire(&mut self, node: u32, tag: u64) -> Result<(), SimError> {
        let idx = node as usize;
        let n = self.plan.nodes[idx];
        let space = BlockId(n.block);
        // A bounded policy running an unbounded-elaboration graph still
        // hands out pool tags FCFS (without frees it exhausts quickly — that
        // is the point of Fig. 11's companion discussion): a `newTag` that
        // finds none parks as a pseudo-allocate request, tokens untouched.
        if matches!(n.op, Op::NewTag) && !self.alloc_eligible(space, AllocKind::Call, true) {
            self.store[idx].clear(tag, IN_QUEUE);
            self.starve(space, node, tag);
            return Ok(());
        }
        // The firing's one store access takes its tokens: the operands are
        // the immediates overlaid with the wired values. Only a wide merge
        // or sink reads ports past the three the plan pre-decodes (cold).
        let mut narrow = n.imm;
        let mut wide = Vec::new();
        if n.n_ins > 3 && matches!(n.op, Op::Merge | Op::Sink) {
            let imm = |k: &InKind| if let InKind::Imm(c) = k { *c } else { 0 };
            wide = self.dfg.node(NodeId(idx as u32)).ins().iter().map(imm).collect();
        }
        let v: &mut [Value] = if wide.is_empty() { &mut narrow } else { &mut wide };
        // `allocate` takes its request (port 0) and, if present, its ready
        // (port 1); everything else its whole input set.
        let mask = if matches!(n.op, Op::Allocate { .. }) { 0b11 } else { n.required };
        let eaten = self.store[idx].take(tag, mask, v) & mask;
        match n.op {
            Op::Alu(op) => {
                let r = op.eval(v[0], v[1])?;
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, r);
            }
            Op::Select => {
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, if v[0] != 0 { v[1] } else { v[2] });
            }
            Op::Load => {
                let r = self.mem.load(v[0])?;
                let lat = self.core.mem(node, v[0], false);
                self.consumed(node, n.block, eaten);
                self.emit_mem(node, &n, tag, r, lat);
            }
            Op::Store | Op::StoreAdd => {
                if matches!(n.op, Op::Store) {
                    self.mem.store(v[0], v[1])?;
                } else {
                    self.mem.fetch_add(v[0], v[1])?;
                }
                // Output-less stores still occupy the cache and an MSHR.
                let lat = self.core.mem(node, v[0], true);
                self.consumed(node, n.block, eaten);
                if n.n_outs > 0 {
                    self.emit_mem(node, &n, tag, 0, lat);
                }
            }
            Op::Steer => {
                self.consumed(node, n.block, eaten);
                self.emit(&n, if v[0] != 0 { 0 } else { 1 }, tag, v[1]);
                self.emit(&n, 2, tag, 0);
            }
            Op::Merge => {
                debug_assert_eq!(eaten.count_ones(), 1, "merge with multiple arrivals");
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, v[eaten.trailing_zeros() as usize]);
            }
            Op::Join => {
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, v[0]);
            }
            Op::Allocate { space, .. } => {
                let t_new = self.pop_tag(space);
                self.core.event(ProbeEvent::TagAllocated { space: space.0, tag: t_new });
                self.core.event(ProbeEvent::BlockEnter { block: space.0, tag: t_new });
                self.consumed(node, n.block, eaten & 0b01);
                if eaten & 0b10 != 0 {
                    // The ready is consumed too, emitting the barrier
                    // control token.
                    self.consumed(node, n.block, 0b10);
                    self.emit(&n, 1, tag, 0);
                } else {
                    self.store[idx].or_flags(tag, AL_POPPED);
                }
                self.emit(&n, 0, tag, t_new as Value);
            }
            Op::NewTag => {
                let t_new = self.pop_tag(space);
                self.core.event(ProbeEvent::TagAllocated { space: n.block, tag: t_new });
                self.core.event(ProbeEvent::BlockEnter { block: n.block, tag: t_new });
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, t_new as Value);
            }
            Op::Free { space } => {
                self.consumed(node, n.block, eaten);
                self.push_tag(space, tag);
                self.core.event(ProbeEvent::TagFreed { space: space.0, tag });
                self.core.event(ProbeEvent::BlockExit { block: space.0, tag });
                if self.cfg.check_token_leaks {
                    self.scan_freed_tag(space, tag)?;
                }
            }
            Op::ChangeTag | Op::ChangeTagDyn => {
                let t_new = v[0] as u64;
                self.consumed(node, n.block, eaten);
                self.core.event(ProbeEvent::TagChanged { node, from: tag, to: t_new });
                if matches!(n.op, Op::ChangeTag) {
                    self.emit(&n, 0, t_new, v[1]);
                } else {
                    // The continuation is a dynamic `(instruction, operand)`
                    // location, not a wire of the plan.
                    let to = PortRef::decode(v[1]);
                    self.core.event(ProbeEvent::TokenProduced { node: to.node.0 });
                    self.emissions.push((to, t_new, v[2]));
                    self.core.live += 1;
                    self.occupancy.add(self.plan.nodes[to.node.0 as usize].block, 1);
                }
                self.emit(&n, 1, tag, 0);
            }
            Op::ExtractTag => {
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, tag as Value);
            }
            Op::Const(c) => {
                self.consumed(node, n.block, eaten);
                self.emit(&n, 0, tag, c);
            }
            Op::Source => {
                let ctl = n.n_outs - 1;
                for k in 0..ctl {
                    let arg = self.cfg.args.get(k as usize).copied().unwrap_or(0);
                    self.emit(&n, k, tag, arg);
                }
                self.emit(&n, ctl, tag, 0);
            }
            Op::Sink => {
                self.consumed(node, n.block, eaten);
                self.returns = Some(v[..self.dfg.n_returns].to_vec());
            }
        }
        Ok(())
    }

    fn deliver(&mut self, target: PortRef, tag: u64, val: Value) -> Result<(), SimError> {
        let node = target.node.0;
        let idx = node as usize;
        let PlanNode { op, required, enqueue, .. } = self.plan.nodes[idx];
        let (before, present) = self.store[idx].put(tag, target.port, val, enqueue)?;
        let queued = present & !before & IN_QUEUE != 0;
        if queued {
            self.ready.push_back((node, tag));
        }
        match op {
            Op::Allocate { space, kind } => {
                if target.port == 1 && present & AL_POPPED != 0 {
                    // Ready arrived after the pop: consumed without effect
                    // except the barrier control token (Sec. IV-A).
                    let n = self.plan.nodes[idx];
                    self.store[idx].clear(tag, 0b10 | AL_POPPED);
                    self.consumed(node, n.block, 0b10);
                    self.emit(&n, 1, tag, 0);
                    return Ok(());
                }
                if present & IN_PENDING != 0 {
                    // Parked on tag pressure; a newly-arrived `ready` may
                    // lower the pop threshold (Sec. IV-A's "pop the last tag
                    // only for a ready context").
                    if target.port == 1 && self.alloc_eligible(space, kind, true) {
                        self.store[idx].clear(tag, IN_PENDING);
                        self.store[idx].or_flags(tag, IN_QUEUE);
                        self.ready.push_back((node, tag));
                        self.core.event(ProbeEvent::StallEnd { node, tag });
                    }
                    return Ok(());
                }
                if present & (IN_QUEUE | AL_POPPED) != 0 {
                    return Ok(());
                }
                // Request present? Try to schedule.
                if present & 0b01 != 0 {
                    if self.alloc_eligible(space, kind, present & 0b10 != 0) {
                        self.store[idx].or_flags(tag, IN_QUEUE);
                        self.ready.push_back((node, tag));
                        if before & 0b11 != 0 {
                            self.core.event(ProbeEvent::StallEnd { node, tag });
                        }
                    } else {
                        // Parking switches any open partial-match interval
                        // to tag starvation — the Fig. 11 attribution.
                        self.starve(space, node, tag);
                    }
                } else if before & 0b11 == 0 {
                    // First token of the allocate's input set (the `ready`
                    // arrived before the request): a partial-match wait.
                    let reason = StallReason::PartialMatch;
                    self.core.event(ProbeEvent::StallBegin { node, tag, reason });
                }
            }
            // Any arrival fires a merge; it never waits.
            Op::Merge => {}
            _ => {
                if queued {
                    if before & required != 0 {
                        // Earlier tokens of this set were waiting; the set
                        // just completed.
                        self.core.event(ProbeEvent::StallEnd { node, tag });
                    }
                } else if before & required == 0 && present & IN_QUEUE == 0 {
                    // First token of a multi-input set: the activation now
                    // waits for its partners.
                    let reason = StallReason::PartialMatch;
                    self.core.event(ProbeEvent::StallBegin { node, tag, reason });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_dfg::NodeId;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::{interp, Program};

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

    fn run_with(p: &Program, d: TaggingDiscipline, policy: TagPolicy, arg: i64) -> RunResult {
        let dfg = lower_tagged(p, d).unwrap();
        let cfg = TaggedConfig { tag_policy: policy, args: vec![arg], ..TaggedConfig::default() };
        TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
    }

    #[test]
    fn sanitizer_passes_on_correct_lowering() {
        // With the use-after-free sanitizer on, a correct lowering still
        // completes: the free barrier really does cover every node.
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        for tags in [2, 64] {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(tags),
                args: vec![25],
                check_token_leaks: true,
                ..TaggedConfig::default()
            };
            let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, vec![300], "tags={tags}");
        }
    }

    #[test]
    fn sanitizer_passes_on_root_if_diamond() {
        // Regression: the root free barrier must also cover the data path.
        // An If-diamond's steer-completion signals fire as soon as the
        // steers commit, cycles before the ALU chain consuming the merged
        // value has drained; a barrier joining only control completion let
        // `root.free` fire while downstream consumers still held tokens.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 2);
        let a = f.param(0);
        let b = f.param(1);
        f.begin_if(a);
        let t = f.op(tyr_ir::AluOp::And, b, a);
        f.begin_else();
        let e = f.op(tyr_ir::AluOp::Gt, b, a);
        let [m] = f.end_if([(t, e)]);
        // A chain hanging off the merge, strictly after all control signals.
        let x = f.op(tyr_ir::AluOp::Lt, a, m);
        let y = f.op(tyr_ir::AluOp::Xor, x, m);
        let p = pb.finish(f, [y]);

        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![3, -5],
            check_token_leaks: true,
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        let mut mem = MemoryImage::new();
        let expect = interp::run(&p, &mut mem, &[3, -5]).unwrap().returns;
        assert_eq!(r.returns, expect);
    }

    #[test]
    fn sanitizer_traps_token_surviving_free() {
        // Graft a node into the loop body that receives a token but can
        // never fire (its second input is never fed): the token outlives
        // the context's free, and the sanitizer must trap it. This is the
        // dynamic twin of tyr-verify's B001 static finding.
        let p = sum_program();
        let mut dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let body = dfg.block_by_name("sum").unwrap();
        let producer = dfg
            .nodes()
            .position(|n| n.block() == body && matches!(n.kind(), NodeKind::Alu(_)))
            .expect("loop body has an alu node");
        let orphan = dfg.push_node(NodeKind::Join, body, &[InKind::Wire, InKind::Wire], 1, "leaky");
        dfg.push_target(NodeId(producer as u32), 0, PortRef { node: orphan, port: 0 });

        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![25],
            check_token_leaks: true,
            ..TaggedConfig::default()
        };
        let err = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        match err {
            SimError::UseAfterFree { node, block, .. } => {
                assert_eq!(node, "leaky");
                assert_eq!(block, "sum");
            }
            other => panic!("expected UseAfterFree, got {other}"),
        }
        // Same corrupted graph with the sanitizer off: the leak is silent
        // (the run completes or token-leaks at exit, but nothing traps the
        // free itself) — which is exactly why the gate exists.
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(4),
            args: vec![25],
            ..TaggedConfig::default()
        };
        let quiet = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run();
        assert!(!matches!(quiet, Err(SimError::UseAfterFree { .. })), "sanitizer must be opt-in");
    }

    #[test]
    fn tyr_computes_sum() {
        let p = sum_program();
        for tags in [2, 3, 8, 64] {
            let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 100);
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, vec![4950], "tags={tags}");
        }
    }

    #[test]
    fn unordered_unbounded_computes_sum() {
        let p = sum_program();
        let r =
            run_with(&p, TaggingDiscipline::UnorderedUnbounded, TagPolicy::GlobalUnbounded, 100);
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![4950]);
    }

    #[test]
    fn unordered_runs_nodes_wider_than_inline_rows() {
        // A loop-carried `select` and a three-value return give the
        // unbounded graph three-port nodes, whose sparse rows live in the
        // slab rather than inline.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, hi] = f.begin_loop("walk", [0.into(), 0.into(), n]);
        let c = f.lt(i, hi);
        f.begin_body(c);
        let odd = f.op(tyr_ir::AluOp::And, i, 1);
        let step = f.select(odd, i, acc);
        let acc2 = f.add(acc, step);
        let i2 = f.add(i, 1);
        let [total, last] = f.end_loop([i2, acc2, hi], [acc, i]);
        let p = pb.finish(f, [total, last, n]);

        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedUnbounded).unwrap();
        let wide = dfg.nodes().filter(|n| n.ins().len() > 2).count();
        assert!(wide >= 2, "select and sink are three-port nodes");
        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[40]).unwrap();
        let r = run_with(&p, TaggingDiscipline::UnorderedUnbounded, TagPolicy::GlobalUnbounded, 40);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, oracle.returns);
    }

    #[test]
    fn zero_trip_loop_in_dataflow() {
        let p = sum_program();
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 0);
        assert!(r.is_complete());
        assert_eq!(r.returns, vec![0]);
    }

    #[test]
    fn matches_reference_interpreter() {
        let p = sum_program();
        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[57]).unwrap();
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(4), 57);
        assert_eq!(r.returns, oracle.returns);
    }

    #[test]
    fn more_tags_do_not_change_results_but_change_state() {
        let p = sum_program();
        let small = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 300);
        let large = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(64), 300);
        assert_eq!(small.returns, large.returns);
        // More tags → at least as much peak live state and no more cycles.
        assert!(large.peak_live() >= small.peak_live());
        assert!(large.cycles() <= small.cycles());
    }

    #[test]
    fn live_state_is_bounded_by_theorem2() {
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let tags = 4usize;
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 200);
        let bound = (tags * dfg.len() * dfg.max_wired_inputs()) as u64;
        assert!(r.peak_live() <= bound, "{} > {}", r.peak_live(), bound);
    }

    #[test]
    fn nested_loops_under_tiny_tag_spaces() {
        // sum_{i<12} sum_{j<i} i*j with 2 tags per block must complete
        // (Theorem 1) and match the oracle.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 12);
        f.begin_body(c);
        let [j, ia, ii] = f.begin_loop("inner", [0.into(), acc, i]);
        let cj = f.lt(j, ii);
        f.begin_body(cj);
        let prod = f.mul(ii, j);
        let ia2 = f.add(ia, prod);
        let j2 = f.add(j, 1);
        let [acc_out] = f.end_loop([j2, ia2, ii], [ia]);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc_out], [acc]);
        let p = pb.finish(f, [total]);

        let mut mem = MemoryImage::new();
        let oracle = interp::run(&p, &mut mem, &[]).unwrap();
        for tags in [2, 3, 16] {
            let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(tags), 0);
            assert!(r.is_complete(), "tags={tags}: {:?}", r.outcome);
            assert_eq!(r.returns, oracle.returns, "tags={tags}");
        }
    }

    #[test]
    fn bounded_global_pool_deadlocks_nested_loops() {
        // The Fig. 11 phenomenon: a small FCFS global pool hands all tags to
        // outer iterations; inner loops starve; the machine deadlocks.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 64);
        f.begin_body(c);
        let [j, ia] = f.begin_loop("inner", [0.into(), acc]);
        let cj = f.lt(j, 8);
        f.begin_body(cj);
        let ia2 = f.add(ia, 1);
        let j2 = f.add(j, 1);
        let [acc_out] = f.end_loop([j2, ia2], [ia]);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, acc_out], [acc]);
        let p = pb.finish(f, [total]);

        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::GlobalBounded { tags: 4 },
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match &r.outcome {
            Outcome::Deadlock { pending_allocates, live_tokens, .. } => {
                assert!(!pending_allocates.is_empty());
                assert!(*live_tokens > 0);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // TYR completes the same program with 2 tags per block.
        let r = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(2), 0);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![64 * 8]);
    }

    #[test]
    fn per_block_tag_overrides_apply() {
        let p = sum_program();
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local_with(64, vec![("sum".into(), 2)]),
            args: vec![200],
            ..TaggedConfig::default()
        };
        let throttled = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        let wide = run_with(&p, TaggingDiscipline::Tyr, TagPolicy::local(64), 200);
        assert_eq!(throttled.returns, wide.returns);
        assert!(throttled.peak_live() <= wide.peak_live());
    }
}

#[cfg(test)]
mod gating_tests {
    //! Focused tests of the Sec. IV-A allocate firing rule.

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// A loop whose iterations are long-latency (a serial chain), making
    /// tag pressure observable.
    fn chain_loop(iters: i64, chain: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("chain", [0, 0]);
        let c = f.lt(i, iters);
        f.begin_body(c);
        let mut v = f.add(acc, 1);
        for _ in 0..chain {
            v = f.add(v, 0);
        }
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, v], [acc]);
        pb.finish(f, [out])
    }

    #[test]
    fn external_allocate_never_takes_the_last_tag() {
        // With exactly 2 tags: the entry (external) allocate may only pop
        // when both tags are free *and* the context is ready, so the run
        // must serialize but always complete (Lemma 2 in action).
        let p = chain_loop(25, 6);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(2), ..TaggedConfig::default() };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![25]);
    }

    #[test]
    fn single_tag_space_is_clamped_to_one_and_still_works_for_leaf_calls() {
        // TagPolicy::local(0) is clamped to 1 tag. A 1-tag *loop* space
        // cannot satisfy the external allocate's reserve, so use a function
        // call (Call kind, reserve 0): it must still complete, fully
        // serialized.
        let mut pb = ProgramBuilder::new();
        let mut g = pb.func("leaf", 1);
        let x = g.param(0);
        let y = g.mul(x, x);
        let gid = g.id();
        pb.define(g, [y]);
        let mut f = pb.func("main", 1);
        let a = f.param(0);
        let r1 = f.call(gid, &[a], 1);
        let r2 = f.call(gid, &[r1[0]], 1);
        let p = pb.finish(f, [r2[0]]);

        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(0),
            args: vec![3],
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![81]);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let p = chain_loop(100_000, 2);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::local(2),
            max_cycles: 500,
            ..TaggedConfig::default()
        };
        let err = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 500 }));
    }

    #[test]
    fn dense_store_is_used_for_local_policies() {
        // Structural: a TYR run with bounded tags must never allocate a tag
        // value >= the space size (would be TagOverflow). Completing proves
        // the dense token store sufficed — the Sec. III hardware claim.
        let p = chain_loop(50, 1);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
        for tags in [2usize, 3, 7] {
            let cfg =
                TaggedConfig { tag_policy: TagPolicy::local(tags), ..TaggedConfig::default() };
            let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete());
        }
    }

    #[test]
    fn deadlock_report_names_blocks() {
        let p = chain_loop(50, 1);
        let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
        let cfg = TaggedConfig {
            tag_policy: TagPolicy::GlobalBounded { tags: 1 },
            ..TaggedConfig::default()
        };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { pending_allocates, .. } => {
                assert!(
                    pending_allocates.iter().any(|p| p.contains("chain")),
                    "{pending_allocates:?}"
                );
            }
            other => panic!("expected deadlock with 1 global tag, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod isa_tax_tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn free_token_sync_is_correct_and_not_slower() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 300);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let run = |free_sync: bool| {
            let cfg = TaggedConfig {
                issue_width: 8,
                tag_policy: TagPolicy::local(16),
                free_token_sync: free_sync,
                ..TaggedConfig::default()
            };
            TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
        };
        let taxed = run(false);
        let free = run(true);
        assert_eq!(taxed.returns, free.returns);
        assert_eq!(taxed.returns, vec![(0..300).sum::<i64>()]);
        // Same dynamic instruction count; fewer (or equal) cycles without
        // the tax on a narrow machine.
        assert_eq!(taxed.dyn_instrs(), free.dyn_instrs());
        assert!(free.cycles() <= taxed.cycles(), "{} > {}", free.cycles(), taxed.cycles());
        // IPC under the free-sync model never exceeds the compute width.
        assert!(free.ipc.max_value() <= 8);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn results_are_latency_invariant() {
        // dmv-like loop with loads: memory latency changes timing, never
        // values.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..32).map(|i| i * 3 - 7).collect::<Vec<_>>());
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 32);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let mut cycles = Vec::new();
        let mut returns = Vec::new();
        for lat in [1u64, 4, 16, 64] {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(16),
                mem: MemConfig::ideal(lat),
                ..TaggedConfig::default()
            };
            let r = TaggedEngine::new(&dfg, mem.clone(), cfg).run().unwrap();
            assert!(r.is_complete(), "lat={lat}: {:?}", r.outcome);
            cycles.push(r.cycles());
            returns.push(r.returns.clone());
        }
        assert!(returns.windows(2).all(|w| w[0] == w[1]));
        // Longer latency never speeds things up.
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    }

    #[test]
    fn tags_hide_latency() {
        // With enough tags, many iterations' loads overlap: doubling memory
        // latency must cost far less than 2x. With 2 tags it is nearly
        // serial.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &vec![1; 256]);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, 256);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let run = |tags: usize, lat: u64| {
            let cfg = TaggedConfig {
                tag_policy: TagPolicy::local(tags),
                mem: MemConfig::ideal(lat),
                ..TaggedConfig::default()
            };
            TaggedEngine::new(&dfg, mem.clone(), cfg).run().unwrap().cycles()
        };
        let wide_1 = run(64, 1);
        let wide_32 = run(64, 32);
        let narrow_1 = run(2, 1);
        let narrow_32 = run(2, 32);
        let wide_slowdown = wide_32 as f64 / wide_1 as f64;
        let narrow_slowdown = narrow_32 as f64 / narrow_1 as f64;
        assert!(
            wide_slowdown < narrow_slowdown,
            "tags should hide latency: {wide_slowdown:.2} vs {narrow_slowdown:.2}"
        );
    }
}

#[cfg(test)]
mod event_core_tests {
    //! The event-driven fast path must be bit-identical to the ticked loop
    //! it replaces: same outcome, traces, histograms, memory, and deadline
    //! trip cycles, differing only in `skipped_cycles` and wall-clock time.

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// Serial reduction over loads: with few tags and long memory latency
    /// almost every cycle is idle — the worst case the event core targets.
    fn load_loop(n: i64) -> (Program, MemoryImage) {
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..n).map(|i| i * 3 - 7).collect::<Vec<_>>());
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("l", [0, 0]);
        let c = f.lt(i, n);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let acc2 = f.add(acc, v);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        (pb.finish(f, [out]), mem)
    }

    fn run_mode(
        p: &Program,
        mem: &MemoryImage,
        policy: TagPolicy,
        lat: u64,
        event_driven: bool,
        watchdog: Watchdog,
        max_cycles: u64,
    ) -> Result<RunResult, SimError> {
        let dfg = lower_tagged(p, TaggingDiscipline::Tyr).unwrap();
        let cfg = TaggedConfig {
            tag_policy: policy,
            mem: MemConfig::ideal(lat),
            event_driven,
            watchdog,
            max_cycles,
            ..TaggedConfig::default()
        };
        TaggedEngine::new(&dfg, mem.clone(), cfg).run()
    }

    fn assert_identical(event: &RunResult, ticked: &RunResult, what: &str) {
        assert_eq!(event.outcome, ticked.outcome, "{what}: outcome");
        assert_eq!(event.live, ticked.live, "{what}: live trace");
        assert_eq!(event.ipc, ticked.ipc, "{what}: ipc histogram");
        assert_eq!(event.returns, ticked.returns, "{what}: returns");
        assert_eq!(event.store_peaks, ticked.store_peaks, "{what}: store peaks");
        assert_eq!(event.mem_loads, ticked.mem_loads, "{what}: loads");
        assert_eq!(event.mem_stores, ticked.mem_stores, "{what}: stores");
        assert_eq!(event.memory(), ticked.memory(), "{what}: memory");
        assert_eq!(event.faults, ticked.faults, "{what}: fault log");
        assert_eq!(ticked.skipped_cycles, 0, "{what}: ticked runs never skip");
    }

    #[test]
    fn event_and_ticked_runs_are_bit_identical() {
        let (p, mem) = load_loop(24);
        for lat in [2u64, 7, 200] {
            for (label, policy) in [
                ("local(2)", TagPolicy::local(2)),
                ("local(16)", TagPolicy::local(16)),
                ("unbounded", TagPolicy::GlobalUnbounded),
            ] {
                let max = TaggedConfig::default().max_cycles;
                let run = |ed| {
                    run_mode(&p, &mem, policy.clone(), lat, ed, Watchdog::none(), max).unwrap()
                };
                let event = run(true);
                let ticked = run(false);
                let what = format!("lat={lat} {label}");
                assert!(event.is_complete(), "{what}: {:?}", event.outcome);
                assert_identical(&event, &ticked, &what);
                // With 2 tags the loads serialize, so at 200-cycle latency
                // nearly the whole run is skippable idle time. (Wider
                // policies overlap their loads and skip far less.)
                if lat == 200 && label == "local(2)" {
                    assert!(
                        event.skipped_cycles > event.cycles() / 2,
                        "{what}: skipped {} of {}",
                        event.skipped_cycles,
                        event.cycles()
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_limit_trips_identically_mid_gap() {
        // Limits chosen to land inside idle gaps: the event core must not
        // jump past `max_cycles` and run longer than a ticked engine would.
        let (p, mem) = load_loop(24);
        let total = run_mode(&p, &mem, TagPolicy::local(2), 200, true, Watchdog::none(), u64::MAX)
            .unwrap()
            .cycles();
        for limit in [total / 7, total / 3, total / 2, total - 2] {
            let run = |ed| {
                run_mode(&p, &mem, TagPolicy::local(2), 200, ed, Watchdog::none(), limit)
                    .unwrap_err()
            };
            assert_eq!(run(true), SimError::CycleLimit { limit }, "event mode, limit={limit}");
            assert_eq!(run(true), run(false), "limit={limit}");
        }
    }

    #[test]
    fn cycle_budget_trips_at_the_same_cycle_even_when_jumped_past() {
        // A watchdog budget landing mid-gap must attribute the timeout to
        // exactly the budget cycle, with the same trace lengths, in both
        // modes — the jump is clamped to the budget boundary.
        let (p, mem) = load_loop(24);
        for budget in [37u64, 123, 391, 777] {
            let dog = Watchdog::none().with_cycle_budget(budget);
            let run = |ed| {
                run_mode(&p, &mem, TagPolicy::local(2), 200, ed, dog.clone(), u64::MAX).unwrap()
            };
            let event = run(true);
            let ticked = run(false);
            match event.outcome {
                Outcome::TimedOut { cycle, cause, .. } => {
                    assert_eq!(cycle, budget, "attributed to the exact budget cycle");
                    assert_eq!(cause, crate::result::TimeoutCause::CycleBudget { budget });
                }
                ref other => panic!("budget={budget}: expected a timeout, got {other:?}"),
            }
            assert_identical(&event, &ticked, &format!("budget={budget}"));
            assert_eq!(event.live.cycles(), budget, "one trace record per pre-trip cycle");
        }
    }
}

#[cfg(test)]
mod store_size_tests {
    //! Per-block token-store occupancy: the hardware-implementability
    //! argument of Sec. III ("small, private token stores").

    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    #[test]
    fn block_store_peaks_are_tracked_and_bounded() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("work", [0, 0]);
        let c = f.lt(i, 500);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        let p = pb.finish(f, [out]);
        let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();

        let tags = 8usize;
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(tags), ..TaggedConfig::default() };
        let r = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete());
        // One entry per block, block peaks sum >= overall peak never holds
        // exactly (peaks at different times), but every block peak is
        // bounded by T * (nodes in block) * max inputs.
        assert_eq!(r.store_peaks.len(), dfg.blocks.len());
        for (name, peak) in &r.store_peaks {
            let members =
                dfg.nodes().filter(|n| dfg.blocks[n.block().0 as usize].name == *name).count()
                    as u64;
            let bound = tags as u64 * members * dfg.max_wired_inputs() as u64;
            assert!(peak <= &bound, "block '{name}': {peak} > {bound}");
            assert!(*peak > 0 || members == 0 || name == "main");
        }
        assert!(r.max_store_peak() > 0);
        // Fewer tags => smaller per-block stores.
        let cfg = TaggedConfig { tag_policy: TagPolicy::local(2), ..TaggedConfig::default() };
        let r2 = TaggedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r2.max_store_peak() <= r.max_store_peak());
    }
}
