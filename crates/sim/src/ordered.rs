//! Ordered-dataflow engine (RipTide-style; Sec. II-C).
//!
//! Instructions communicate through bounded per-edge FIFO queues. A node
//! fires when every wired input FIFO has a token *and* every output FIFO has
//! space (back pressure); each static instruction fires at most once per
//! cycle, which is precisely the serialization that costs ordered dataflow
//! its cross-iteration parallelism. "The queue size also limits the number
//! of dynamic instances of each instruction, applying back pressure to
//! upstream instructions."
//!
//! Readiness is evaluated against start-of-cycle state (synchronous
//! hardware); a queue may transiently hold one token above its capacity
//! within a cycle, and the producer stalls the next cycle.
//!
//! The simulator does not test every node every cycle: one bit per node
//! caches `is_ready`, and only nodes at either end of a FIFO that was
//! pushed to or popped from are re-evaluated (DESIGN.md §7.10), so a
//! cycle costs what fired in it, not the size of the graph.

use std::collections::VecDeque;

use tyr_dfg::{Dfg, Edge, InKind, Node, NodeId, NodeKind};
use tyr_ir::{MemoryImage, Value};
use tyr_stats::probe::{FaultKind, NoProbe, Probe, ProbeEvent, StallReason};

use crate::cache::MemConfig;
use crate::core::{declare_graph, Core, End};
use crate::fault::FaultPlan;
use crate::mem::MemPort;
use crate::result::{Outcome, RunResult, SimError};
use crate::watchdog::Watchdog;

/// Per-edge FIFO capacities: a uniform default plus targeted overrides.
///
/// Capacities are keyed by the *consumer* input port `(node, port)` — the
/// same indexing as the engine's FIFO array — because every edge has
/// exactly one consumer port while an output port may fan out. This is the
/// configuration surface the static occupancy pass (`tyr-verify`'s `O…`
/// diagnostics) checks against, the way `check_tag_policy` checks a
/// [`TagPolicy`](crate::tagged::TagPolicy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelCapacity {
    /// Capacity of every edge without an override.
    pub default: usize,
    /// `((consumer node id, input port), capacity)` exceptions.
    pub overrides: Vec<((u32, u16), usize)>,
}

impl ChannelCapacity {
    /// Every edge at `default`.
    pub fn uniform(default: usize) -> Self {
        ChannelCapacity { default, overrides: Vec::new() }
    }

    /// Builder: overrides the capacity of the edge into `(node, port)`.
    pub fn with_override(mut self, node: u32, port: u16, capacity: usize) -> Self {
        self.overrides.push(((node, port), capacity));
        self
    }

    /// The capacity of the edge into input `port` of `node`.
    pub fn of(&self, node: u32, port: u16) -> usize {
        self.overrides
            .iter()
            .find(|((n, p), _)| *n == node && *p == port)
            .map_or(self.default, |&(_, c)| c)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OrderedConfig {
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// FIFO capacity per edge (the paper's baseline uses 4, which
    /// "empirically minimizes peak state with minimal loss in performance").
    pub queue_depth: usize,
    /// Per-edge capacity exceptions, keyed by consumer `(node, port)`;
    /// edges not listed use `queue_depth`. See [`ChannelCapacity`].
    pub depth_overrides: Vec<((u32, u16), usize)>,
    /// Program arguments.
    pub args: Vec<Value>,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Memory model (default [`MemConfig::Ideal`] with latency 1). Results
    /// are pipelined: each load node delivers its results in issue order,
    /// so per-edge FIFO order is preserved even when a cached model gives
    /// later accesses shorter latencies (a hit behind a miss waits for the
    /// miss — the in-order memory interface ordered dataflow pays for).
    pub mem: MemConfig,
    /// Deterministic fault-injection plan (see [`crate::fault`]). `None`
    /// (the default) injects nothing. Tag-space faults do not apply to the
    /// ordered machine (it is untagged) and are never triggered.
    pub faults: Option<FaultPlan>,
    /// Run watchdog (see [`crate::watchdog`]). Disarmed by default.
    pub watchdog: Watchdog,
    /// Event-driven core (default on): when a cycle fires nothing and
    /// releases nothing, the machine is frozen until the earliest in-flight
    /// memory release matures, so the clock advances straight to that cycle
    /// (clamped to the cycle limit and watchdog budget). Bit-identical to
    /// the ticked loop; `false` forces one tick per cycle, kept as the
    /// differential baseline for `repro fuzz`.
    pub event_driven: bool,
}

impl OrderedConfig {
    /// The per-edge capacity map this configuration induces.
    pub fn capacity(&self) -> ChannelCapacity {
        ChannelCapacity { default: self.queue_depth, overrides: self.depth_overrides.clone() }
    }
}

impl Default for OrderedConfig {
    fn default() -> Self {
        OrderedConfig {
            issue_width: 128,
            queue_depth: 4,
            depth_overrides: Vec::new(),
            args: Vec::new(),
            max_cycles: 500_000_000,
            mem: MemConfig::default(),
            faults: None,
            watchdog: Watchdog::none(),
            event_driven: true,
        }
    }
}

/// The producer node(s) of every input FIFO, CSR-flat: the FIFO into input
/// `port` of `node` is row `base[node] + port`, and its producers are
/// `ids[off[row]..off[row + 1]]`. `lower_ordered` wires one producer per
/// port; `GraphBuilder` allows several.
struct Producers {
    base: Vec<u32>,
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl Producers {
    fn new(dfg: &Dfg) -> Self {
        let mut base = Vec::with_capacity(dfg.len());
        let mut rows = 0u32;
        for n in dfg.nodes() {
            base.push(rows);
            rows += n.ins().len() as u32;
        }
        let row = |e: &Edge| (base[e.to.0 as usize] + u32::from(e.to_port)) as usize;
        // Count into `off[row + 2]` so the prefix sum leaves row `r`'s start
        // in `off[r + 1]`; filling then advances that slot to the row's
        // end — the start of row `r + 1` — and `off[r]` ends as the start.
        let mut off = vec![0u32; rows as usize + 2];
        for e in dfg.edges() {
            off[row(&e) + 2] += 1;
        }
        for r in 2..off.len() {
            off[r] += off[r - 1];
        }
        let mut ids = vec![0u32; off[rows as usize + 1] as usize];
        for e in dfg.edges() {
            let slot = &mut off[row(&e) + 1];
            ids[*slot as usize] = e.from.0;
            *slot += 1;
        }
        off.pop();
        Producers { base, off, ids }
    }

    fn of(&self, node: usize, port: usize) -> &[u32] {
        let row = self.base[node] as usize + port;
        &self.ids[self.off[row] as usize..self.off[row + 1] as usize]
    }
}

/// The activity-driven ready set (DESIGN.md §7.10): bit `i` caches
/// `is_ready(i)`, and `touched` lists, without duplicates, the nodes whose
/// readiness may have changed since the bits were last refreshed.
struct ReadySet {
    bits: Vec<u64>,
    touched: Vec<u32>,
    marked: Vec<bool>,
}

impl ReadySet {
    /// No bit set and every node touched, so the first refresh evaluates
    /// them all.
    fn new(nodes: usize) -> Self {
        ReadySet {
            bits: vec![0; nodes.div_ceil(64)],
            touched: (0..nodes as u32).collect(),
            marked: vec![true; nodes],
        }
    }

    #[inline]
    fn touch(&mut self, idx: u32) {
        if !self.marked[idx as usize] {
            self.marked[idx as usize] = true;
            self.touched.push(idx);
        }
    }

    fn get(&self, idx: usize) -> bool {
        self.bits[idx / 64] >> (idx % 64) & 1 != 0
    }

    fn set(&mut self, idx: usize, ready: bool) {
        let bit = 1u64 << (idx % 64);
        if ready {
            self.bits[idx / 64] |= bit;
        } else {
            self.bits[idx / 64] &= !bit;
        }
    }

    fn clear_touched(&mut self) {
        for &idx in &self.touched {
            self.marked[idx as usize] = false;
        }
        self.touched.clear();
    }
}

/// The ordered-dataflow engine.
pub struct OrderedEngine<'a, P: Probe = NoProbe> {
    dfg: &'a Dfg,
    mem: MemoryImage,
    cfg: OrderedConfig,
    /// Resolved per-edge capacity: `caps[node][port]`.
    caps: Vec<Vec<usize>>,
    /// One FIFO per wired input port: `fifos[node][port]`.
    fifos: Vec<Vec<VecDeque<Value>>>,
    source_fired: bool,
    /// Memory results in flight, per load node (results of one node stay
    /// ordered; different nodes deliver independently):
    /// `delayed[node] = (release_cycle, value)`.
    delayed: Vec<VecDeque<(u64, Value)>>,
    delayed_count: usize,
    /// The `Load` nodes, ascending: the only nodes with a `delayed` queue.
    loads: Vec<u32>,
    producers: Producers,
    ready: ReadySet,
    /// This cycle's issue list, reused across cycles.
    issue: Vec<u32>,
    fired_total: u64,
    returns: Option<Vec<Value>>,
    /// Clock, samplers, watchdog, fault state, memory port and probe.
    core: Core<P>,
    /// Current stall reason per node, for edge-triggered probe emission.
    /// Empty unless the probe is enabled.
    stall_state: Vec<Option<StallReason>>,
}

impl<'a> OrderedEngine<'a> {
    /// Builds an engine over an ordered-lowered graph with no probe
    /// attached.
    ///
    /// # Example
    ///
    /// ```
    /// use tyr_dfg::lower::lower_ordered;
    /// use tyr_ir::build::ProgramBuilder;
    /// use tyr_ir::MemoryImage;
    /// use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
    ///
    /// let mut pb = ProgramBuilder::new();
    /// let mut f = pb.func("main", 1);
    /// let x = f.param(0);
    /// let y = f.mul(x, 3);
    /// let p = pb.finish(f, [y]);
    ///
    /// let dfg = lower_ordered(&p).unwrap();
    /// let cfg = OrderedConfig { args: vec![7], ..OrderedConfig::default() };
    /// let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
    /// assert_eq!(r.returns, vec![21]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a non-source node has no wired input (it would fire every
    /// cycle forever).
    pub fn new(dfg: &'a Dfg, mem: MemoryImage, cfg: OrderedConfig) -> Self {
        OrderedEngine::with_probe(dfg, mem, cfg, NoProbe)
    }
}

impl<'a, P: Probe> OrderedEngine<'a, P> {
    /// Builds an engine that reports events to `probe` as it runs.
    ///
    /// # Panics
    ///
    /// Panics if a non-source node has no wired input (it would fire every
    /// cycle forever).
    pub fn with_probe(dfg: &'a Dfg, mem: MemoryImage, cfg: OrderedConfig, mut probe: P) -> Self {
        declare_graph(&mut probe, dfg);
        for n in dfg.nodes() {
            assert!(
                matches!(n.kind(), NodeKind::Source)
                    || n.ins().iter().any(|i| matches!(i, InKind::Wire)),
                "node '{}' has no wired inputs",
                n.label()
            );
        }
        let mut live = 0;
        let fifos: Vec<Vec<VecDeque<Value>>> = dfg
            .nodes()
            .map(|n| {
                let mut qs: Vec<VecDeque<Value>> =
                    n.ins().iter().map(|_| VecDeque::new()).collect();
                if let NodeKind::CMerge { initial_ctl } = n.kind() {
                    for &t in initial_ctl {
                        qs[0].push_back(t);
                        live += 1;
                    }
                }
                qs
            })
            .collect();
        let capacity = cfg.capacity();
        let caps: Vec<Vec<usize>> = dfg
            .nodes()
            .enumerate()
            .map(|(ni, n)| (0..n.ins().len()).map(|p| capacity.of(ni as u32, p as u16)).collect())
            .collect();
        let mut core = Core::new(MemPort::new(&cfg.mem), &cfg.watchdog, cfg.faults.as_ref(), probe);
        core.live = live;
        let loads = (0..dfg.len() as u32)
            .filter(|&i| matches!(dfg.node(NodeId(i)).kind(), NodeKind::Load))
            .collect();
        let mut engine = OrderedEngine {
            dfg,
            mem,
            cfg,
            caps,
            fifos,
            source_fired: false,
            delayed: std::iter::repeat_with(VecDeque::new).take(dfg.len()).collect(),
            delayed_count: 0,
            loads,
            producers: Producers::new(dfg),
            ready: ReadySet::new(dfg.len()),
            issue: Vec::new(),
            fired_total: 0,
            returns: None,
            core,
            stall_state: if P::ENABLED { vec![None; dfg.len()] } else { Vec::new() },
        };
        // Every node stays touched through cycle 0, whose stall scan must
        // cover the nodes that start out holding tokens.
        engine.refresh_ready();
        engine
    }

    /// Re-evaluates `is_ready` — the one definition of readiness — for the
    /// touched nodes. Debug builds check the result against a scan of every
    /// node, so a missed mark fails the first test that runs into it.
    fn refresh_ready(&mut self) {
        for k in 0..self.ready.touched.len() {
            let idx = self.ready.touched[k] as usize;
            let ready = self.is_ready(idx);
            self.ready.set(idx, ready);
        }
        if cfg!(debug_assertions) {
            for idx in 0..self.dfg.len() {
                assert_eq!(
                    self.ready.get(idx),
                    self.is_ready(idx),
                    "stale ready bit for '{}' after cycle {}",
                    self.node(idx).label(),
                    self.core.cycle
                );
            }
        }
    }

    /// Enqueues `val` on the FIFO into input `port` of `node`, marking the
    /// consumer (an input gained a token) and the producers (an output lost
    /// a slot).
    fn enqueue(&mut self, node: usize, port: usize, val: Value) {
        self.fifos[node][port].push_back(val);
        self.core.live += 1;
        self.ready.touch(node as u32);
        for &p in self.producers.of(node, port) {
            self.ready.touch(p);
        }
    }

    fn node(&self, idx: usize) -> Node<'a> {
        self.dfg.node(NodeId(idx as u32))
    }

    fn outputs_have_space(&self, idx: usize) -> bool {
        self.node(idx).outs().iter().all(|targets| {
            targets.iter().all(|t| {
                self.fifos[t.node.0 as usize][t.port as usize].len()
                    < self.caps[t.node.0 as usize][t.port as usize]
            })
        })
    }

    /// Describes why each stuck node is stuck, for the deadlock outcome:
    /// either starved (some wired input FIFO empty) or back-pressured (a
    /// full downstream FIFO, named with its capacity). Only nodes actually
    /// holding tokens are listed — they are the wavefront of the wedge.
    fn stall_witness(&self) -> Vec<String> {
        const MAX_LINES: usize = 12;
        let mut out = Vec::new();
        for idx in 0..self.dfg.len() {
            let n = self.node(idx);
            let held: usize = self.fifos[idx].iter().map(|q| q.len()).sum();
            if held == 0 || matches!(n.kind(), NodeKind::Source) {
                continue;
            }
            let starved =
                n.ins().iter().enumerate().find(|(p, kind)| {
                    matches!(kind, InKind::Wire) && self.fifos[idx][*p].is_empty()
                });
            let reason = if let Some((p, _)) = starved {
                format!("starved on i{p}")
            } else if let Some(t) = n
                .outs()
                .iter()
                .flatten()
                .find(|t| !self.outputs_have_space_at(t.node.0 as usize, t.port as usize))
            {
                let (tn, tp) = (t.node.0 as usize, t.port as usize);
                format!(
                    "back-pressured: {}.i{} full ({}/{})",
                    self.node(tn).label(),
                    tp,
                    self.fifos[tn][tp].len(),
                    self.caps[tn][tp],
                )
            } else {
                // e.g. a CMerge whose selected side is empty.
                "not fireable".to_string()
            };
            if out.len() == MAX_LINES {
                out.push("…".to_string());
                break;
            }
            out.push(format!("{} holds {held} token(s), {reason}", n.label()));
        }
        out
    }

    fn outputs_have_space_at(&self, node: usize, port: usize) -> bool {
        self.fifos[node][port].len() < self.caps[node][port]
    }

    /// Whether `idx` could fire if its output FIFOs had room — i.e. it is
    /// blocked *only* by back-pressure. At quiescence this is a wedge, not
    /// a normal end state: nothing will ever fire again, so the full
    /// downstream FIFO can never drain and the held tokens are lost. (A
    /// merely *starved* node at quiescence is normal — the loops' final
    /// control tokens always end up starved.)
    fn back_pressured(&self, idx: usize) -> bool {
        let n = self.node(idx);
        match n.kind() {
            NodeKind::Source => !self.source_fired && !self.outputs_have_space(idx),
            NodeKind::Sink => false,
            NodeKind::CMerge { .. } => {
                let Some(&ctl) = self.fifos[idx][0].front() else { return false };
                let side = if ctl == 0 { 1 } else { 2 };
                let side_ok = match n.ins()[side] {
                    InKind::Imm(_) => true,
                    InKind::Wire => !self.fifos[idx][side].is_empty(),
                };
                side_ok && !self.outputs_have_space(idx)
            }
            _ => self.wired_inputs_ready(idx) && !self.outputs_have_space(idx),
        }
    }

    /// Re-derives the stall reason of every touched node — a stall state is
    /// a function of exactly the FIFOs whose changes mark a node — against
    /// post-fire state, in ascending node order, and emits
    /// `StallBegin`/`StallEnd` on transitions. A node holding tokens
    /// but not fireable is either back-pressured (a full downstream FIFO)
    /// or waiting on a partial input match (a starved FIFO); a node that
    /// can fire next cycle is not stalled. Ordered graphs are untagged, so
    /// stall intervals use tag 0.
    fn scan_stalls(&mut self) {
        self.ready.touched.sort_unstable();
        for k in 0..self.ready.touched.len() {
            let idx = self.ready.touched[k] as usize;
            if matches!(self.node(idx).kind(), NodeKind::Source | NodeKind::Sink) {
                continue;
            }
            let held: usize = self.fifos[idx].iter().map(|q| q.len()).sum();
            let now = if held == 0 || self.is_ready(idx) {
                None
            } else if self.back_pressured(idx) {
                Some(StallReason::BackPressure)
            } else {
                Some(StallReason::PartialMatch)
            };
            if now == self.stall_state[idx] {
                continue;
            }
            let node = idx as u32;
            match now {
                // A Begin on an already-open (node, tag) key switches the
                // reason in the sinks; no explicit End needed first.
                Some(reason) => {
                    self.core
                        .probe
                        .event(self.core.cycle, ProbeEvent::StallBegin { node, tag: 0, reason });
                }
                None => {
                    self.core.probe.event(self.core.cycle, ProbeEvent::StallEnd { node, tag: 0 })
                }
            }
            self.stall_state[idx] = now;
        }
    }

    fn wired_inputs_ready(&self, idx: usize) -> bool {
        self.node(idx).ins().iter().enumerate().all(|(p, kind)| match kind {
            InKind::Imm(_) => true,
            InKind::Wire => !self.fifos[idx][p].is_empty(),
        })
    }

    fn is_ready(&self, idx: usize) -> bool {
        let n = self.node(idx);
        match n.kind() {
            NodeKind::Source => !self.source_fired && self.outputs_have_space(idx),
            NodeKind::Sink => self.returns.is_none() && self.wired_inputs_ready(idx),
            NodeKind::CMerge { .. } => {
                let Some(&ctl) = self.fifos[idx][0].front() else { return false };
                let side = if ctl == 0 { 1 } else { 2 };
                let side_ok = match n.ins()[side] {
                    InKind::Imm(_) => true,
                    InKind::Wire => !self.fifos[idx][side].is_empty(),
                };
                side_ok && self.outputs_have_space(idx)
            }
            _ => self.wired_inputs_ready(idx) && self.outputs_have_space(idx),
        }
    }

    fn pop(&mut self, idx: usize, port: usize) -> Value {
        match self.node(idx).ins()[port] {
            InKind::Imm(v) => v,
            InKind::Wire => {
                self.core.live -= 1;
                if P::ENABLED {
                    self.core.probe.event(
                        self.core.cycle,
                        ProbeEvent::TokenConsumed { node: idx as u32, count: 1 },
                    );
                }
                // The FIFO gained a slot: its producers may be ready now.
                for &p in self.producers.of(idx, port) {
                    self.ready.touch(p);
                }
                self.fifos[idx][port].pop_front().expect("readiness checked")
            }
        }
    }

    fn push_outputs(&mut self, idx: usize, port: usize, val: Value) {
        // Copy the graph reference out of `self` so the target list is
        // iterated in place — the per-fire `outs[port].clone()` this
        // replaces was a hot-path allocation.
        let dfg = self.dfg;
        for &t in self.node(idx).targets(port) {
            let mut val = val;
            let mut dup = None;
            if let Some(fs) = self.core.faults.as_mut() {
                let (tn, label, port) = (t.node.0, dfg.node(t.node).label(), t.port);
                let (cycle, probe) = (self.core.cycle, &mut self.core.probe);
                if fs.strike(cycle, FaultKind::TokenDrop) {
                    let detail =
                        format!("dropped token (value {val}) bound for '{label}' port {port}");
                    fs.inject(probe, cycle, tn, FaultKind::TokenDrop, detail);
                    continue;
                }
                if fs.strike(cycle, FaultKind::TokenDup) {
                    let detail =
                        format!("duplicated token (value {val}) bound for '{label}' port {port}");
                    fs.inject(probe, cycle, tn, FaultKind::TokenDup, detail);
                    if P::ENABLED {
                        probe.event(cycle, ProbeEvent::TokenProduced { node: tn });
                    }
                    // The extra token skews the edge's FIFO alignment for
                    // the rest of the run: a wrong answer or a wedge.
                    dup = Some(val);
                }
                if fs.strike(cycle, FaultKind::TokenCorrupt) {
                    let before = val;
                    val ^= fs.mask();
                    let detail =
                        format!("corrupted token for '{label}' port {port}: {before} -> {val}");
                    fs.inject(probe, cycle, tn, FaultKind::TokenCorrupt, detail);
                }
            }
            if P::ENABLED {
                self.core
                    .probe
                    .event(self.core.cycle, ProbeEvent::TokenProduced { node: t.node.0 });
            }
            if let Some(extra) = dup {
                self.enqueue(t.node.0 as usize, t.port as usize, extra);
            }
            self.enqueue(t.node.0 as usize, t.port as usize, val);
        }
    }

    fn fire(&mut self, idx: usize) -> Result<(), SimError> {
        // Match the node kind by reference (`kind.clone()` here used to
        // heap-allocate for every CMerge fire, whose kind owns a Vec).
        let node = self.node(idx);
        self.ready.touch(idx as u32);
        match node.kind() {
            NodeKind::Alu(op) => {
                let a = self.pop(idx, 0);
                let b = if node.ins().len() > 1 { self.pop(idx, 1) } else { 0 };
                let v = op.eval(a, b)?;
                self.push_outputs(idx, 0, v);
            }
            NodeKind::Select => {
                let c = self.pop(idx, 0);
                let t = self.pop(idx, 1);
                let f = self.pop(idx, 2);
                self.push_outputs(idx, 0, if c != 0 { t } else { f });
            }
            NodeKind::Load => {
                let addr = self.pop(idx, 0);
                if node.ins().len() > 1 {
                    self.pop(idx, 1); // trigger
                }
                let mut v = self.mem.load(addr)?;
                let (cycle, probe) = (self.core.cycle, &mut self.core.probe);
                self.core.port.count(probe, cycle, idx as u32, addr, false);
                let extra = self.core.faults.as_mut().map_or(0, |fs| {
                    let label = node.label();
                    fs.perturb_mem_response(probe, cycle, idx as u32, label, true, &mut v)
                });
                let lat = self.core.port.lookup(probe, cycle, idx as u32, addr, false);
                // A fast response bypasses the queue only when nothing
                // issued earlier is still in it: results leave in issue order.
                if lat <= 1 && extra == 0 && self.delayed[idx].is_empty() {
                    self.push_outputs(idx, 0, v);
                } else {
                    self.core.live += 1; // in flight in the memory system
                    let release = self.core.cycle + lat.max(1) + extra;
                    self.delayed[idx].push_back((release, v));
                    self.delayed_count += 1;
                }
            }
            NodeKind::Store | NodeKind::StoreAdd => {
                let addr = self.pop(idx, 0);
                let v = self.pop(idx, 1);
                if node.ins().len() > 2 {
                    self.pop(idx, 2); // trigger
                }
                if matches!(node.kind(), NodeKind::Store) {
                    self.mem.store(addr, v)?;
                } else {
                    self.mem.fetch_add(addr, v)?;
                }
                // Stores commit instantly (no completion token) but still
                // occupy the cache and an MSHR.
                self.core.mem(idx as u32, addr, true);
            }
            NodeKind::Steer => {
                let d = self.pop(idx, 0);
                let v = self.pop(idx, 1);
                self.push_outputs(idx, if d != 0 { 0 } else { 1 }, v);
            }
            NodeKind::CMerge { .. } => {
                let ctl = self.pop(idx, 0);
                let side = if ctl == 0 { 1 } else { 2 };
                let v = self.pop(idx, side);
                self.push_outputs(idx, 0, v);
            }
            NodeKind::Const(c) => {
                let c = *c;
                self.pop(idx, 0);
                self.push_outputs(idx, 0, c);
            }
            NodeKind::Source => {
                let n_outs = node.outs().len();
                for k in 0..n_outs - 1 {
                    let v = self.cfg.args.get(k).copied().unwrap_or(0);
                    self.push_outputs(idx, k, v);
                }
                self.push_outputs(idx, n_outs - 1, 0);
                self.source_fired = true;
            }
            NodeKind::Sink => {
                let n_ins = node.ins().len();
                let vals: Vec<Value> = (0..n_ins).map(|p| self.pop(idx, p)).collect();
                self.returns = Some(vals[..self.dfg.n_returns].to_vec());
            }
            other => unreachable!("{} in an ordered graph", other.mnemonic()),
        }
        Ok(())
    }

    /// Runs the program.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on simulated-program faults or the cycle
    /// limit. A stall with no fireable instruction before completion is
    /// reported as [`Outcome::Deadlock`].
    pub fn run(mut self) -> Result<RunResult, SimError> {
        let end = self.run_loop();
        self.core.finish(end, self.mem)
    }

    fn run_loop(&mut self) -> End {
        loop {
            self.core.check_watchdog()?;
            // The ready bits are start-of-cycle state; walking them in
            // ascending node index keeps the width cut-off and the order
            // stick faults roll their victim in.
            self.issue.clear();
            'scan: for (w, &word) in self.ready.bits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    if self.issue.len() >= self.cfg.issue_width {
                        break 'scan;
                    }
                    let idx = w as u32 * 64 + bits.trailing_zeros();
                    bits &= bits - 1;
                    if let Some(fs) = self.core.faults.as_mut() {
                        let label = self.dfg.node(NodeId(idx)).label();
                        if fs.stick(&mut self.core.probe, self.core.cycle, idx, label) {
                            continue;
                        }
                    }
                    self.issue.push(idx);
                }
            }
            let fired = self.issue.len() as u64;
            for k in 0..self.issue.len() {
                let node = self.issue[k];
                self.fire(node as usize)?;
                self.core.event(ProbeEvent::NodeFired { node });
            }
            // Release matured memory results — per load node, in issue
            // order, and only into FIFOs with space: the memory system
            // honors back-pressure, otherwise a late delivery could consume
            // the flow-control bubble a loop cycle needs and wedge the
            // machine.
            let mut released = 0usize;
            if self.delayed_count > 0 {
                for k in 0..self.loads.len() {
                    let idx = self.loads[k] as usize;
                    while let Some(&(r, _)) = self.delayed[idx].front() {
                        if r > self.core.cycle + 1 {
                            break;
                        }
                        let has_space = self.node(idx).targets(0).iter().all(|t| {
                            self.fifos[t.node.0 as usize][t.port as usize].len()
                                < self.caps[t.node.0 as usize][t.port as usize]
                        });
                        if !has_space {
                            break;
                        }
                        let (_, v) = self.delayed[idx].pop_front().expect("checked");
                        self.delayed_count -= 1;
                        released += 1;
                        self.core.live -= 1; // re-counted by push_outputs
                        self.push_outputs(idx, 0, v);
                    }
                }
            }
            if P::ENABLED {
                self.scan_stalls();
            }
            // Nothing below moves a token, so the bits refreshed here are
            // the next cycle's start-of-cycle state.
            self.refresh_ready();
            self.ready.clear_touched();
            self.fired_total += fired;
            self.core.tick(fired);

            // Quiescent only if nothing fired AND the memory system neither
            // holds nor delivered anything this cycle (a release re-enables
            // consumers).
            if fired == 0 && released == 0 && self.delayed_count == 0 {
                // Quiescent. The sink's return tokens may arrive long before
                // the last stores drain, so completion is only declared once
                // nothing can fire anymore — and only if no node is wedged
                // behind a full FIFO. A return value independent of a loop
                // (e.g. a kernel whose real output is memory) must not mask
                // a back-pressure deadlock that wedged the loop's stores.
                let wedged = (0..self.dfg.len()).any(|i| self.back_pressured(i));
                if let Some(returns) = self.returns.take().filter(|_| !wedged) {
                    let cycles = self.core.cycle;
                    return Ok((
                        Outcome::Completed { cycles, dyn_instrs: self.fired_total },
                        returns,
                    ));
                }
                let wedge = Outcome::Deadlock {
                    cycle: self.core.cycle,
                    live_tokens: self.core.live,
                    pending_allocates: self.stall_witness(),
                };
                return Ok((wedge, Vec::new()));
            }
            self.core.check_limit(self.cfg.max_cycles)?;
            // Event-driven fast path: a cycle that fired nothing and
            // released nothing leaves the FIFOs, readiness, and stall edges
            // exactly as they were — the machine is frozen until the
            // earliest in-flight memory release matures, so the clock may
            // jump there (see `Core::idle_jump` for the clamps). A
            // matured-but-back-pressured head keeps the minimum release at
            // or below the current cycle, so blocked deliveries (which
            // ticked runs retry every cycle) are never jumped over.
            if self.cfg.event_driven && fired == 0 && released == 0 && self.delayed_count > 0 {
                let next = self
                    .loads
                    .iter()
                    .filter_map(|&i| self.delayed[i as usize].front().map(|&(r, _)| r))
                    .min()
                    .expect("delayed_count > 0");
                self.core.idle_jump(next, u64::MAX, self.cfg.max_cycles)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::lower_ordered;
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

    fn run(p: &Program, arg: i64) -> RunResult {
        let dfg = lower_ordered(p).unwrap();
        let cfg = OrderedConfig { args: vec![arg], ..OrderedConfig::default() };
        OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap()
    }

    #[test]
    fn computes_sum() {
        let r = run(&sum_program(), 100);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![4950]);
    }

    #[test]
    fn zero_trip_loop() {
        let r = run(&sum_program(), 0);
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![0]);
    }

    #[test]
    fn nested_loops_match_oracle() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 9);
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
        let dfg = lower_ordered(&p).unwrap();
        for q in [2, 4, 16] {
            let cfg = OrderedConfig { queue_depth: q, ..OrderedConfig::default() };
            let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "q={q}: {:?}", r.outcome);
            assert_eq!(r.returns, oracle.returns, "q={q}");
        }
    }

    #[test]
    fn queue_depth_bounds_state() {
        let p = sum_program();
        let dfg = lower_ordered(&p).unwrap();
        let shallow = OrderedEngine::new(
            &dfg,
            MemoryImage::new(),
            OrderedConfig { queue_depth: 2, args: vec![200], ..OrderedConfig::default() },
        )
        .run()
        .unwrap();
        let deep = OrderedEngine::new(
            &dfg,
            MemoryImage::new(),
            OrderedConfig { queue_depth: 64, args: vec![200], ..OrderedConfig::default() },
        )
        .run()
        .unwrap();
        assert_eq!(shallow.returns, deep.returns);
        assert!(shallow.peak_live() <= deep.peak_live());
    }

    #[test]
    fn one_fire_per_node_per_cycle_limits_ipc() {
        // Ordered IPC can never exceed the static node count.
        let p = sum_program();
        let dfg = lower_ordered(&p).unwrap();
        let r = run(&p, 50);
        assert!(r.ipc.max_value() <= dfg.len() as u64);
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, InKind, NodeKind, PortRef};

    #[test]
    fn starved_graph_reports_deadlock() {
        // A CMerge with an empty control FIFO can never fire: the engine
        // must report a stall (Outcome::Deadlock), not hang.
        let mut g = GraphBuilder::new();
        let b = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, b, vec![], 2, "src");
        let cm = g.add_node(
            NodeKind::CMerge { initial_ctl: vec![] },
            b,
            vec![InKind::Wire, InKind::Wire, InKind::Wire],
            1,
            "cm",
        );
        let sink = g.add_node(NodeKind::Sink, b, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: cm, port: 1 });
        g.connect(src, 1, PortRef { node: cm, port: 2 });
        g.connect(cm, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);
        let r =
            OrderedEngine::new(&dfg, MemoryImage::new(), OrderedConfig::default()).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { live_tokens, .. } => assert_eq!(live_tokens, 2),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn a_push_by_one_producer_blocks_the_port_s_other_producers() {
        // `GraphBuilder` lets two nodes feed one input port. At width 1 and
        // depth 1, `a` fires alone and fills `c`'s FIFO, so `b` — marked
        // only as a producer of the FIFO `a` pushed to — must stop being
        // ready until `c` drains it.
        let mut g = GraphBuilder::new();
        let blk = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, blk, vec![], 2, "src");
        let a = g.add_node(NodeKind::Const(1), blk, vec![InKind::Wire], 1, "a");
        let b = g.add_node(NodeKind::Const(2), blk, vec![InKind::Wire], 1, "b");
        let c = g.add_node(
            NodeKind::Select,
            blk,
            vec![InKind::Wire, InKind::Imm(7), InKind::Imm(9)],
            1,
            "c",
        );
        let sink = g.add_node(NodeKind::Sink, blk, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: a, port: 0 });
        g.connect(src, 1, PortRef { node: b, port: 0 });
        g.connect(a, 0, PortRef { node: c, port: 0 });
        g.connect(b, 0, PortRef { node: c, port: 0 });
        g.connect(c, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);
        let cfg = OrderedConfig { issue_width: 1, queue_depth: 1, ..OrderedConfig::default() };
        let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(r.is_complete(), "{:?}", r.outcome);
        assert_eq!(r.returns, vec![7]);
        // src, a, c, b, sink, c: the sink takes one value and `c`'s second
        // result is left in its FIFO.
        assert_eq!(r.dyn_instrs(), 6);
    }

    #[test]
    fn capacity_override_resolves_per_edge() {
        let caps = ChannelCapacity::uniform(4).with_override(7, 0, 0).with_override(7, 1, 9);
        assert_eq!(caps.of(3, 0), 4);
        assert_eq!(caps.of(7, 0), 0);
        assert_eq!(caps.of(7, 1), 9);
        let cfg = OrderedConfig {
            queue_depth: 4,
            depth_overrides: vec![((7, 0), 0)],
            ..OrderedConfig::default()
        };
        assert_eq!(cfg.capacity().of(7, 0), 0);
        assert_eq!(cfg.capacity().of(7, 1), 4);
    }

    #[test]
    fn zero_capacity_on_a_loop_control_edge_deadlocks_with_a_witness() {
        // Wedge the loop: the comparison can never forward its decision into
        // the carry CMerge's control FIFO, so after the primed first
        // iteration nothing can fire. The outcome must be a deadlock whose
        // witness names the back-pressured edge.
        use tyr_dfg::lower::lower_ordered;
        use tyr_ir::build::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 10);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        let dfg = lower_ordered(&p).unwrap();
        let cm = dfg
            .nodes()
            .position(
                |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
            )
            .expect("a primed loop-carry CMerge") as u32;

        let cfg = OrderedConfig { depth_overrides: vec![((cm, 0), 0)], ..OrderedConfig::default() };
        let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        match r.outcome {
            Outcome::Deadlock { ref pending_allocates, .. } => {
                assert!(
                    pending_allocates.iter().any(|s| s.contains("back-pressured")),
                    "witness must name the full edge: {pending_allocates:?}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The same graph with the override removed completes.
        let r =
            OrderedEngine::new(&dfg, MemoryImage::new(), OrderedConfig::default()).run().unwrap();
        assert!(r.is_complete());
    }

    #[test]
    fn cycle_limit_is_enforced() {
        // An endless producer/consumer ring would run forever; the limit
        // must stop it. Build `while(i < huge)` via the real lowering.
        use tyr_dfg::lower::lower_ordered;
        use tyr_ir::build::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("long", [0]);
        let c = f.lt(i, 1_000_000_000);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        let p = pb.finish(f, [out]);
        let dfg = lower_ordered(&p).unwrap();
        let cfg = OrderedConfig { max_cycles: 1000, ..OrderedConfig::default() };
        let err = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 1000 }));
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use tyr_dfg::lower::lower_ordered;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::interp;

    #[test]
    fn latency_changes_timing_not_results() {
        // A load-bearing loop (literally): results must be identical across
        // memory latencies, including latencies far above the FIFO depth.
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..40).map(|i| i * 2 + 1).collect::<Vec<_>>());
        let out = mem.alloc("out", 40);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 40);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let scaled = f.mul(v, 3);
        let oaddr = f.add(i, out.base_const());
        f.store(oaddr, scaled);
        let i2 = f.add(i, 1);
        f.end_loop([i2], tyr_ir::NO_OPERANDS);
        let p = pb.finish(f, [tyr_ir::Operand::Const(0)]);

        let mut oracle_mem = mem.clone();
        interp::run(&p, &mut oracle_mem, &[]).unwrap();
        let dfg = lower_ordered(&p).unwrap();
        let mut prev_cycles = 0;
        for lat in [1u64, 2, 7, 32] {
            let cfg = OrderedConfig { mem: MemConfig::ideal(lat), ..OrderedConfig::default() };
            let r = OrderedEngine::new(&dfg, mem.clone(), cfg).run().unwrap();
            assert!(r.is_complete(), "lat={lat}: {:?}", r.outcome);
            assert_eq!(r.memory().slice(out), oracle_mem.slice(out), "lat={lat}");
            assert!(r.cycles() >= prev_cycles, "latency should not speed things up");
            prev_cycles = r.cycles();
        }
    }
}

#[cfg(test)]
mod event_core_tests {
    //! The event-driven fast path must be bit-identical to the ticked loop:
    //! same outcome, traces, histograms, memory, and watchdog trip cycles,
    //! differing only in `skipped_cycles` and wall-clock time.

    use super::*;
    use tyr_dfg::lower::lower_ordered;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::{interp, Program};

    /// Load-to-store loop: shallow FIFOs plus long memory latency freeze
    /// the machine for most of every iteration.
    fn load_store_loop() -> (Program, MemoryImage) {
        let mut mem = MemoryImage::new();
        let xs = mem.alloc_init("xs", &(0..24).map(|i| i * 2 + 1).collect::<Vec<_>>());
        let out = mem.alloc("out", 24);
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 24);
        f.begin_body(c);
        let addr = f.add(i, xs.base_const());
        let v = f.load(addr);
        let scaled = f.mul(v, 3);
        let oaddr = f.add(i, out.base_const());
        f.store(oaddr, scaled);
        let i2 = f.add(i, 1);
        f.end_loop([i2], tyr_ir::NO_OPERANDS);
        (pb.finish(f, [tyr_ir::Operand::Const(0)]), mem)
    }

    fn run_mode(
        p: &Program,
        mem: &MemoryImage,
        lat: u64,
        event_driven: bool,
        watchdog: Watchdog,
    ) -> RunResult {
        let dfg = lower_ordered(p).unwrap();
        let cfg = OrderedConfig {
            queue_depth: 2,
            mem: MemConfig::ideal(lat),
            event_driven,
            watchdog,
            ..OrderedConfig::default()
        };
        OrderedEngine::new(&dfg, mem.clone(), cfg).run().unwrap()
    }

    fn assert_identical(event: &RunResult, ticked: &RunResult, what: &str) {
        assert_eq!(event.outcome, ticked.outcome, "{what}: outcome");
        assert_eq!(event.live, ticked.live, "{what}: live trace");
        assert_eq!(event.ipc, ticked.ipc, "{what}: ipc histogram");
        assert_eq!(event.returns, ticked.returns, "{what}: returns");
        assert_eq!(event.mem_loads, ticked.mem_loads, "{what}: loads");
        assert_eq!(event.mem_stores, ticked.mem_stores, "{what}: stores");
        assert_eq!(event.memory(), ticked.memory(), "{what}: memory");
        assert_eq!(ticked.skipped_cycles, 0, "{what}: ticked runs never skip");
    }

    #[test]
    fn event_and_ticked_runs_are_bit_identical() {
        let (p, mem) = load_store_loop();
        for lat in [2u64, 7, 200] {
            let event = run_mode(&p, &mem, lat, true, Watchdog::none());
            let ticked = run_mode(&p, &mem, lat, false, Watchdog::none());
            let what = format!("lat={lat}");
            assert!(event.is_complete(), "{what}: {:?}", event.outcome);
            assert_identical(&event, &ticked, &what);
            if lat == 200 {
                assert!(
                    event.skipped_cycles > event.cycles() / 2,
                    "{what}: skipped {} of {}",
                    event.skipped_cycles,
                    event.cycles()
                );
            }
        }
    }

    #[test]
    fn load_results_leave_in_issue_order() {
        // The per-edge FIFOs pair values by position, so a 1-cycle hit
        // issued behind a miss, or a prompt response behind a delayed one,
        // must wait its turn: overtaking lands it in the wrong iteration.
        let (p, mem) = load_store_loop();
        let mut want = mem.clone();
        interp::run(&p, &mut want, &[]).unwrap();
        let dfg = lower_ordered(&p).unwrap();
        let run = |mem_cfg: MemConfig, faults: Option<FaultPlan>| {
            let cfg = OrderedConfig { mem: mem_cfg, faults, ..OrderedConfig::default() };
            OrderedEngine::new(&dfg, mem.clone(), cfg).run().unwrap()
        };

        let r = run(MemConfig::parse("cached:l1=512,l2=4k,mshr=4,lat1=1").unwrap(), None);
        assert!(r.is_complete(), "fast L1: {:?}", r.outcome);
        assert!(r.mem_hits() > 0 && r.mem_misses() > 0, "hits must trail misses");
        assert_eq!(r.memory(), &want, "fast L1: memory image");

        let mut delays = 0;
        for seed in 0..8 {
            let plan = FaultPlan::new(seed).with(FaultKind::MemDelay, 3);
            let r = run(MemConfig::ideal(1), Some(plan));
            assert!(r.is_complete(), "seed {seed}: {:?}", r.outcome);
            assert_eq!(r.memory(), &want, "seed {seed}: a delay must be absorbed");
            delays += r.faults.len();
        }
        assert!(delays > 0, "no seed delayed a response");
    }

    #[test]
    fn cycle_budget_trips_at_the_same_cycle_even_when_jumped_past() {
        let (p, mem) = load_store_loop();
        for budget in [41u64, 137, 513] {
            let dog = Watchdog::none().with_cycle_budget(budget);
            let event = run_mode(&p, &mem, 200, true, dog.clone());
            let ticked = run_mode(&p, &mem, 200, false, dog);
            match event.outcome {
                Outcome::TimedOut { cycle, .. } => {
                    assert_eq!(cycle, budget, "attributed to the exact budget cycle");
                }
                ref other => panic!("budget={budget}: expected a timeout, got {other:?}"),
            }
            assert_identical(&event, &ticked, &format!("budget={budget}"));
            assert_eq!(event.live.cycles(), budget, "one trace record per pre-trip cycle");
        }
    }
}
