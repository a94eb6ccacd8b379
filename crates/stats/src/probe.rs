//! The engine-wide event probe layer.
//!
//! Every engine in `tyr-sim` is generic over a [`Probe`] and emits typed
//! [`ProbeEvent`]s at the exact points where it already decides them: a node
//! fires, a token is produced or consumed, a tag is allocated / freed /
//! changed, a concurrent-block context is entered or exited, and — most
//! importantly for the paper's argument — a node *stalls*, with the reason
//! ([`StallReason`]) attributed at the stall site (partial-match wait,
//! tag starvation, output back pressure).
//!
//! The default probe is [`NoProbe`], whose associated
//! [`ENABLED`](Probe::ENABLED) constant is `false`: every emission site in
//! the engines is guarded by `if P::ENABLED { ... }`, so with the no-op
//! probe the entire layer is compiled out of the hot loops — no branches, no
//! allocation, no calls (verified by a guarded micro-bench in `tyr-bench`).
//!
//! Two sinks ship with the crate: the per-node aggregating profiler in
//! [`crate::profile`] and the [`ChromeTrace`] exporter here, which writes
//! Chrome-trace / Perfetto JSON (blocks → processes, nodes → threads, stalls
//! → async slices) so any run opens in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! Stall events are *intervals* keyed by `(node, tag)`: a
//! [`ProbeEvent::StallBegin`] opens the interval (re-opening with a
//! different reason switches it) and [`ProbeEvent::StallEnd`] closes it.
//! Sinks close any still-open interval at the run's final cycle — this is
//! precisely how a deadlocked run's wedged tokens show up with their full
//! stall duration attributed (Fig. 11).

use std::collections::HashMap;

use crate::json::{self, uint, Kind, Parser};

/// Why a node cannot make progress right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Tokens sit in the matching store waiting for the rest of the node's
    /// input set (classic dataflow partial-match wait).
    PartialMatch,
    /// An `allocate` / `newTag` request is parked because the tag space has
    /// no (eligible) free tag — the Fig. 11 failure mode.
    TagStarved,
    /// The node's inputs are ready but an output FIFO is full (ordered
    /// engine back pressure).
    BackPressure,
}

impl StallReason {
    /// All reasons, in display order.
    pub const ALL: [StallReason; 3] =
        [StallReason::PartialMatch, StallReason::TagStarved, StallReason::BackPressure];

    /// Stable human-readable label (also used in trace JSON).
    pub fn label(self) -> &'static str {
        match self {
            StallReason::PartialMatch => "partial-match",
            StallReason::TagStarved => "tag-starved",
            StallReason::BackPressure => "back-pressure",
        }
    }

    /// Dense index into per-reason arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::PartialMatch => 0,
            StallReason::TagStarved => 1,
            StallReason::BackPressure => 2,
        }
    }
}

/// The class of a deliberately injected fault (see `tyr-sim`'s `FaultPlan`).
///
/// Lives here rather than in `tyr-sim` because [`ProbeEvent::FaultInjected`]
/// carries it: the probe layer is the channel through which injected faults
/// are attributed, and sinks (profiler, Chrome trace, counters) must be able
/// to name the class without depending on the simulator crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A token in flight was silently discarded.
    TokenDrop,
    /// A token in flight was delivered twice.
    TokenDup,
    /// A token's value was corrupted (XOR with a seeded mask).
    TokenCorrupt,
    /// A memory response was delayed by extra cycles (latency-only fault).
    MemDelay,
    /// A memory response's value was flipped.
    MemFlip,
    /// A node was stuck: its ready activations refuse to fire.
    NodeStick,
    /// Free tags were stolen from a tag space.
    TagExhaust,
}

impl FaultKind {
    /// Every fault class, in taxonomy order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::TokenDrop,
        FaultKind::TokenDup,
        FaultKind::TokenCorrupt,
        FaultKind::MemDelay,
        FaultKind::MemFlip,
        FaultKind::NodeStick,
        FaultKind::TagExhaust,
    ];

    /// Stable human-readable label (also the CLI spelling in
    /// `repro fuzz --faults` and the name used in trace JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TokenDrop => "drop",
            FaultKind::TokenDup => "dup",
            FaultKind::TokenCorrupt => "corrupt",
            FaultKind::MemDelay => "mem-delay",
            FaultKind::MemFlip => "mem-flip",
            FaultKind::NodeStick => "stick",
            FaultKind::TagExhaust => "tags",
        }
    }

    /// Dense index into per-class arrays.
    pub fn index(self) -> usize {
        FaultKind::ALL.iter().position(|k| *k == self).unwrap()
    }
}

/// A typed engine event. All variants are `Copy`; emission is a plain call
/// with two scalars and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// `node` executed (counts exactly what the engine reports as a dynamic
    /// instruction).
    NodeFired {
        /// Static node id.
        node: u32,
    },
    /// A token was sent toward `node` (the *consumer*; occupancy of a node's
    /// matching store is produced − consumed).
    TokenProduced {
        /// Consumer node id.
        node: u32,
    },
    /// `node` consumed `count` waiting tokens when it fired.
    TokenConsumed {
        /// Node id.
        node: u32,
        /// Tokens removed from its matching store.
        count: u32,
    },
    /// A tag was taken from tag space `space`.
    TagAllocated {
        /// Tag-space (block) id.
        space: u32,
        /// The concrete tag value.
        tag: u64,
    },
    /// A tag was returned to tag space `space`.
    TagFreed {
        /// Tag-space (block) id.
        space: u32,
        /// The concrete tag value.
        tag: u64,
    },
    /// A `changeTag` moved a value between contexts.
    TagChanged {
        /// The changeTag node id.
        node: u32,
        /// Tag the value arrived with.
        from: u64,
        /// Tag it leaves with.
        to: u64,
    },
    /// A new dynamic instance of concurrent block `block` began (its
    /// allocate fired).
    BlockEnter {
        /// Block id.
        block: u32,
        /// The instance's tag.
        tag: u64,
    },
    /// A dynamic block instance completed (its free fired).
    BlockExit {
        /// Block id.
        block: u32,
        /// The instance's tag.
        tag: u64,
    },
    /// `node` (activation `tag`) became unable to make progress. Re-opening
    /// an open interval with a different reason switches it.
    StallBegin {
        /// Node id.
        node: u32,
        /// Activation tag (0 for untagged engines).
        tag: u64,
        /// Attributed reason.
        reason: StallReason,
    },
    /// The stall interval for `(node, tag)` ended.
    StallEnd {
        /// Node id.
        node: u32,
        /// Activation tag.
        tag: u64,
    },
    /// A fault-injection layer deliberately perturbed the machine at `node`
    /// (0 when the fault has no node, e.g. tag-space exhaustion). Emitted
    /// exactly once per injected fault, so a counting sink can check probe
    /// parity against the engine's own fault log.
    FaultInjected {
        /// Node the fault was applied at (consumer for token faults, load
        /// node for memory faults, stuck node for sticks; 0 otherwise).
        node: u32,
        /// The fault class.
        kind: FaultKind,
    },
    /// `node` touched memory word `addr`. Emitted exactly once per
    /// architectural `load` / `store` / `store_add` (a `store_add` is one
    /// write: its read-modify-write is atomic in every engine), so a
    /// counting sink can check probe parity against the engine's own
    /// load/store counters. Feeds the [`crate::locality`] working-set sink.
    MemAccess {
        /// Node performing the access (0 for the interpreter-backed vN/OoO
        /// engines, which have no spatial structure).
        node: u32,
        /// Absolute word address in the flat memory image.
        addr: i64,
        /// `true` for `store` / `store_add`, `false` for `load`.
        write: bool,
    },
    /// The cache-hierarchy memory model missed L1 on an access by `node`.
    /// Emitted exactly once per L1 miss (never under ideal memory), so a
    /// counting sink can check probe parity against
    /// `RunResult::mem_misses()`. Feeds the timeline's `mem_misses` window
    /// quantity.
    MemMiss {
        /// Node performing the access (0 for the interpreter-backed vN/OoO
        /// engines).
        node: u32,
        /// Absolute word address in the flat memory image.
        addr: i64,
        /// `true` when L2 served the miss, `false` when it went to DRAM.
        l2: bool,
    },
}

/// The event taxonomy, for coverage validation (the CI gate checks that a
/// trace contains ≥ 1 event of every kind the traced engine can emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// [`ProbeEvent::NodeFired`].
    Fired,
    /// [`ProbeEvent::TokenProduced`].
    Produced,
    /// [`ProbeEvent::TokenConsumed`].
    Consumed,
    /// [`ProbeEvent::TagAllocated`].
    TagAllocated,
    /// [`ProbeEvent::TagFreed`].
    TagFreed,
    /// [`ProbeEvent::TagChanged`].
    TagChanged,
    /// [`ProbeEvent::BlockEnter`].
    BlockEnter,
    /// [`ProbeEvent::BlockExit`].
    BlockExit,
    /// [`ProbeEvent::StallBegin`].
    StallBegin,
    /// [`ProbeEvent::StallEnd`].
    StallEnd,
    /// [`ProbeEvent::FaultInjected`].
    FaultInjected,
    /// [`ProbeEvent::MemAccess`].
    MemAccess,
    /// [`ProbeEvent::MemMiss`].
    MemMiss,
}

impl EventKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [EventKind; 13] = [
        EventKind::Fired,
        EventKind::Produced,
        EventKind::Consumed,
        EventKind::TagAllocated,
        EventKind::TagFreed,
        EventKind::TagChanged,
        EventKind::BlockEnter,
        EventKind::BlockExit,
        EventKind::StallBegin,
        EventKind::StallEnd,
        EventKind::FaultInjected,
        EventKind::MemAccess,
        EventKind::MemMiss,
    ];

    /// Stable name used in trace JSON (`otherData.eventKinds`) and CI
    /// validation.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fired => "fired",
            EventKind::Produced => "produced",
            EventKind::Consumed => "consumed",
            EventKind::TagAllocated => "tag-allocated",
            EventKind::TagFreed => "tag-freed",
            EventKind::TagChanged => "tag-changed",
            EventKind::BlockEnter => "block-enter",
            EventKind::BlockExit => "block-exit",
            EventKind::StallBegin => "stall-begin",
            EventKind::StallEnd => "stall-end",
            EventKind::FaultInjected => "fault-injected",
            EventKind::MemAccess => "mem-access",
            EventKind::MemMiss => "mem-miss",
        }
    }

    /// Dense index into per-kind arrays.
    pub fn index(self) -> usize {
        EventKind::ALL.iter().position(|k| *k == self).unwrap()
    }
}

impl ProbeEvent {
    /// The taxonomy kind of this event.
    pub fn kind(self) -> EventKind {
        match self {
            ProbeEvent::NodeFired { .. } => EventKind::Fired,
            ProbeEvent::TokenProduced { .. } => EventKind::Produced,
            ProbeEvent::TokenConsumed { .. } => EventKind::Consumed,
            ProbeEvent::TagAllocated { .. } => EventKind::TagAllocated,
            ProbeEvent::TagFreed { .. } => EventKind::TagFreed,
            ProbeEvent::TagChanged { .. } => EventKind::TagChanged,
            ProbeEvent::BlockEnter { .. } => EventKind::BlockEnter,
            ProbeEvent::BlockExit { .. } => EventKind::BlockExit,
            ProbeEvent::StallBegin { .. } => EventKind::StallBegin,
            ProbeEvent::StallEnd { .. } => EventKind::StallEnd,
            ProbeEvent::FaultInjected { .. } => EventKind::FaultInjected,
            ProbeEvent::MemAccess { .. } => EventKind::MemAccess,
            ProbeEvent::MemMiss { .. } => EventKind::MemMiss,
        }
    }
}

/// An event sink the engines emit into.
///
/// All methods default to no-ops so a sink only implements what it needs.
/// The engines guard every emission site with `if P::ENABLED`, so a probe
/// with `ENABLED = false` ([`NoProbe`]) costs nothing at runtime.
///
/// # Example
///
/// A custom sink that counts fires:
///
/// ```
/// use tyr_stats::probe::{Probe, ProbeEvent};
///
/// #[derive(Default)]
/// struct FireCounter {
///     fires: u64,
/// }
///
/// impl Probe for FireCounter {
///     fn event(&mut self, _cycle: u64, ev: ProbeEvent) {
///         if matches!(ev, ProbeEvent::NodeFired { .. }) {
///             self.fires += 1;
///         }
///     }
/// }
///
/// let mut sink = FireCounter::default();
/// sink.event(0, ProbeEvent::NodeFired { node: 3 });
/// sink.event(0, ProbeEvent::TokenProduced { node: 4 });
/// assert_eq!(sink.fires, 1);
/// ```
pub trait Probe {
    /// Whether the engine should emit at all. Emission sites (and any
    /// probe-only bookkeeping) are compiled out when this is `false`.
    const ENABLED: bool = true;

    /// Announces a concurrent block (process in Chrome-trace terms) before
    /// the run starts.
    fn declare_block(&mut self, _block: u32, _name: &str) {}

    /// Announces a node, its label, and its owning block before the run
    /// starts.
    fn declare_node(&mut self, _node: u32, _label: &str, _block: u32) {}

    /// Delivers one event at `cycle`. Cycles are non-decreasing for all
    /// engines except `ooo`, whose issue cycles may step backwards; sinks
    /// must tolerate that. The windowed [`crate::timeline::Timeline`] sink
    /// is the reference for how: it buckets by absolute cycle and stores
    /// levels as deltas, so a late event lands in the window its cycle
    /// names with no panic and no skew (defended by its
    /// `out_of_order_cycles_land_in_the_right_window` test).
    fn event(&mut self, _cycle: u64, _ev: ProbeEvent) {}
}

/// The zero-cost default probe: `ENABLED = false`, so engines monomorphized
/// over it contain no probe code at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// Forwarding impl so callers can pass `&mut sink` to an engine (whose
/// `run(self)` consumes it) and still own the sink afterwards.
impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    fn declare_block(&mut self, block: u32, name: &str) {
        (**self).declare_block(block, name);
    }

    fn declare_node(&mut self, node: u32, label: &str, block: u32) {
        (**self).declare_node(node, label, block);
    }

    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        (**self).event(cycle, ev);
    }
}

/// Fan-out to two sinks (e.g. profiler + Chrome trace in one run).
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn declare_block(&mut self, block: u32, name: &str) {
        self.0.declare_block(block, name);
        self.1.declare_block(block, name);
    }

    fn declare_node(&mut self, node: u32, label: &str, block: u32) {
        self.0.declare_node(node, label, block);
        self.1.declare_node(node, label, block);
    }

    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        self.0.event(cycle, ev);
        self.1.event(cycle, ev);
    }
}

/// A probe that just counts events — useful for tests and as the "enabled
/// but minimal" reference point in the overhead micro-bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingProbe {
    /// Total events received.
    pub events: u64,
}

impl Probe for CountingProbe {
    fn event(&mut self, _cycle: u64, _ev: ProbeEvent) {
        self.events += 1;
    }
}

/// Serialized Chrome-trace events beyond this count are dropped (with
/// `otherData.truncated = true`) so a paper-scale run cannot write an
/// unboundedly large file. Kind counts keep counting past the cap. Lowered
/// under test so a unit test can cross it.
const MAX_TRACE_EVENTS: usize = if cfg!(test) { 256 } else { 1_000_000 };

/// Sampling stride (in cycles) for the machine-wide tokens-in-flight and
/// live-tags counter tracks — one sample per window, matching the default
/// [`crate::timeline::TimelineConfig`] window, so the Perfetto curves line
/// up with the `repro timeline` windows.
const GLOBAL_COUNTER_WINDOW: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct FireRun {
    start: u64,
    last: u64,
    count: u64,
}

/// The slot for dense id `id`, growing `v` with defaults to reach it.
fn slot<T: Default + Clone>(v: &mut Vec<T>, id: u32) -> &mut T {
    let id = id as usize;
    if id >= v.len() {
        v.resize(id + 1, T::default());
    }
    &mut v[id]
}

/// Chrome-trace / Perfetto JSON exporter.
///
/// Mapping: concurrent blocks → processes (`pid`), nodes → threads (`tid`),
/// consecutive-cycle fire runs → complete (`"X"`) slices, stall intervals →
/// async (`"b"`/`"e"`) slices named by reason, tag and block events →
/// instant (`"i"`) events, and per-block live-token counts → counter
/// (`"C"`) events. Two machine-wide counter tracks — `tokens in flight`
/// and `live tags`, on `pid` 0 — are sampled once per
/// 64-cycle timeline window so Perfetto shows the same curves as
/// `repro timeline`. Use [`ChromeTrace::render`] after the run to get the
/// JSON document.
///
/// Records are written straight into two comma-joined buffers (`meta` for
/// the declarations, `events` for the run's records, up to a million of
/// them), and the per-node and per-block state is indexed by the dense
/// ids `declare_*` hands out.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    meta: String,
    events: String,
    recorded: usize,
    node_block: Vec<u32>,
    fires: Vec<Option<FireRun>>,
    open_stalls: HashMap<(u32, u64), (u64, u64, StallReason)>,
    next_async_id: u64,
    block_live: Vec<i64>,
    dirty_blocks: Vec<u32>,
    counter_cycle: u64,
    global_inflight: i64,
    live_tags: i64,
    next_global_sample: u64,
    kind_counts: [u64; EventKind::ALL.len()],
    dropped: u64,
}

impl ChromeTrace {
    /// Creates an empty exporter.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Events seen per taxonomy kind (counted even past the size cap).
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind.index()]
    }

    /// Starts the next record: the buffer to write it into, or `None` (and
    /// one more `dropped`) past the cap.
    fn record(&mut self) -> Option<&mut String> {
        if self.recorded == MAX_TRACE_EVENTS {
            self.dropped += 1;
            return None;
        }
        if self.recorded > 0 {
            self.events.push(',');
        }
        self.recorded += 1;
        Some(&mut self.events)
    }

    fn pid_of(&self, node: u32) -> u32 {
        self.node_block.get(node as usize).copied().unwrap_or(0)
    }

    fn declare(&mut self, what: &str, pid: u32, tid: u32, label: &str) {
        let b = &mut self.meta;
        if !b.is_empty() {
            b.push(',');
        }
        b.push_str("{\"ph\":\"M\",\"name\":\"");
        b.push_str(what);
        uint(b, "\",\"pid\":", pid.into());
        uint(b, ",\"tid\":", tid.into());
        b.push_str(",\"args\":{\"name\":");
        json::write_str(b, label);
        b.push_str("}}");
    }

    fn flush_fire(&mut self, node: u32, run: FireRun) {
        let pid = self.pid_of(node);
        if let Some(b) = self.record() {
            uint(b, "{\"ph\":\"X\",\"cat\":\"fired\",\"name\":\"fire\",\"pid\":", pid.into());
            uint(b, ",\"tid\":", node.into());
            uint(b, ",\"ts\":", run.start);
            uint(b, ",\"dur\":", run.last - run.start + 1);
            uint(b, ",\"args\":{\"fires\":", run.count);
            b.push_str("}}");
        }
    }

    /// One sample of counter track `name` of process `pid`.
    fn counter(&mut self, name: &str, pid: u32, cycle: u64, series: &str, value: i64) {
        if let Some(b) = self.record() {
            b.push_str("{\"ph\":\"C\",\"name\":\"");
            b.push_str(name);
            uint(b, "\",\"pid\":", pid.into());
            uint(b, ",\"tid\":0,\"ts\":", cycle);
            b.push_str(",\"args\":{\"");
            b.push_str(series);
            b.push_str("\":");
            json::write_i64(b, value);
            b.push_str("}}");
        }
    }

    fn flush_counters(&mut self) {
        let cycle = self.counter_cycle;
        let mut blocks = std::mem::take(&mut self.dirty_blocks);
        for block in blocks.drain(..) {
            let live = self.block_live[block as usize];
            self.counter("live tokens", block, cycle, "tokens", live);
        }
        self.dirty_blocks = blocks;
    }

    /// Emits a catch-up counter sample at the last un-sampled window
    /// boundary when one or more whole sampling windows passed without any
    /// event — e.g. across an event-driven engine's clock jump, where an
    /// idle gap produces no probe events at all. The counters were flat
    /// through the gap; without the catch-up point Perfetto would
    /// interpolate a ramp from the pre-gap sample to the next one instead
    /// of the true merged flat span. Called before the current event's
    /// deltas are applied, so the sample carries the gap's values.
    fn backfill_globals(&mut self, cycle: u64) {
        let window_start = (cycle / GLOBAL_COUNTER_WINDOW) * GLOBAL_COUNTER_WINDOW;
        if self.next_global_sample < window_start {
            self.sample_globals(self.next_global_sample);
        }
    }

    fn sample_globals(&mut self, cycle: u64) {
        self.counter("tokens in flight", 0, cycle, "tokens", self.global_inflight);
        self.counter("live tags", 0, cycle, "tags", self.live_tags);
        self.next_global_sample = (cycle / GLOBAL_COUNTER_WINDOW + 1) * GLOBAL_COUNTER_WINDOW;
    }

    fn touch_block(&mut self, node: u32, delta: i64) {
        let block = self.pid_of(node);
        *slot(&mut self.block_live, block) += delta;
        if !self.dirty_blocks.contains(&block) {
            self.dirty_blocks.push(block);
        }
    }

    /// An instant event; `args` writes the members of its `args` object.
    fn instant(
        &mut self,
        cycle: u64,
        cat: &str,
        name: &str,
        pid: u32,
        args: impl FnOnce(&mut String),
    ) {
        if let Some(b) = self.record() {
            b.push_str("{\"ph\":\"i\",\"cat\":\"");
            b.push_str(cat);
            b.push_str("\",\"name\":\"");
            b.push_str(name);
            uint(b, "\",\"pid\":", pid.into());
            uint(b, ",\"tid\":0,\"ts\":", cycle);
            b.push_str(",\"s\":\"p\",\"args\":{");
            args(b);
            b.push_str("}}");
        }
    }

    fn open_stall(&mut self, cycle: u64, node: u32, tag: u64, reason: StallReason) {
        self.close_stall(cycle, node, tag);
        let id = self.next_async_id;
        self.next_async_id += 1;
        self.open_stalls.insert((node, tag), (id, cycle, reason));
    }

    fn close_stall(&mut self, cycle: u64, node: u32, tag: u64) {
        if let Some((id, start, reason)) = self.open_stalls.remove(&(node, tag)) {
            let pid = self.pid_of(node);
            // The begin edge carries the tag; the end edge has no args.
            for (ph, ts, tag) in [("b", start, Some(tag)), ("e", cycle.max(start), None)] {
                if let Some(b) = self.record() {
                    b.push_str("{\"ph\":\"");
                    b.push_str(ph);
                    uint(b, "\",\"cat\":\"stall\",\"id\":", id);
                    b.push_str(",\"name\":\"");
                    b.push_str(reason.label());
                    uint(b, "\",\"pid\":", pid.into());
                    uint(b, ",\"tid\":", node.into());
                    uint(b, ",\"ts\":", ts);
                    if let Some(tag) = tag {
                        uint(b, ",\"args\":{\"tag\":", tag);
                        b.push('}');
                    }
                    b.push('}');
                }
            }
        }
    }

    /// Closes open fire runs, stall intervals, and counters at `final_cycle`
    /// and returns the complete JSON document.
    pub fn render(mut self, final_cycle: u64) -> String {
        for (node, run) in std::mem::take(&mut self.fires).into_iter().enumerate() {
            if let Some(run) = run {
                self.flush_fire(node as u32, run);
            }
        }
        let open: Vec<(u32, u64)> = {
            let mut v: Vec<_> = self.open_stalls.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for (node, tag) in open {
            self.close_stall(final_cycle, node, tag);
        }
        self.counter_cycle = final_cycle;
        self.flush_counters();
        self.backfill_globals(final_cycle);
        self.sample_globals(final_cycle);

        let mut head = String::from("{\"traceEvents\":[");
        head.push_str(&self.meta);
        if !self.meta.is_empty() && self.recorded > 0 {
            head.push(',');
        }
        // The document is the event buffer itself, with the head moved in
        // front: no second copy of a trace that can be hundreds of MB.
        let mut out = self.events;
        out.insert_str(0, &head);
        out.push_str("],\"displayTimeUnit\":\"ns\",\"otherData\":{\"tool\":\"tyr repro trace\",");
        uint(&mut out, "\"finalCycle\":", final_cycle);
        out.push_str(if self.dropped > 0 { ",\"truncated\":true" } else { ",\"truncated\":false" });
        uint(&mut out, ",\"dropped\":", self.dropped);
        out.push_str(",\"eventKinds\":{");
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            out.push_str(if i > 0 { ",\"" } else { "\"" });
            out.push_str(kind.name());
            uint(&mut out, "\":", self.kind_counts[kind.index()]);
        }
        out.push_str("}}}");
        out
    }

    /// Structural validation of an emitted trace document: checks the JSON
    /// syntax, that the `traceEvents` array is well-formed, and returns the
    /// per-kind event counts recorded in `otherData.eventKinds`.
    ///
    /// One pass over the text with a few flags of state per event — no
    /// tree. As with [`crate::json::Json::get`], the first occurrence of a key
    /// decides.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found. A malformed event
    /// is reported where it stands, so a syntax error *after* it goes
    /// unseen.
    pub fn validate(text: &str) -> Result<HashMap<String, u64>, String> {
        let mut events_seen = false;
        let mut other_seen = false;
        let mut kinds: Option<Result<HashMap<String, u64>, &str>> = None;
        let mut ph = String::new();
        Parser::document(text, |p| {
            if p.kind()? != Kind::Obj {
                return p.skip();
            }
            p.object(|p, key| match key {
                "traceEvents" if !events_seen => {
                    events_seen = true;
                    if p.kind()? != Kind::Arr {
                        return Err("missing traceEvents array".into());
                    }
                    let mut count = 0;
                    p.array(|p, i| {
                        count += 1;
                        EventKeys::read(p, &mut ph)?.check(i, &ph)
                    })?;
                    if count == 0 {
                        return Err("traceEvents is empty".into());
                    }
                    Ok(())
                }
                // A problem here is reported only once the events, which
                // may come later in the text, have passed.
                "otherData" if !other_seen => {
                    other_seen = true;
                    if p.kind()? != Kind::Obj {
                        return p.skip();
                    }
                    let mut kinds_seen = false;
                    p.object(|p, key| {
                        if key != "eventKinds" || kinds_seen {
                            return p.skip();
                        }
                        kinds_seen = true;
                        if p.kind()? != Kind::Obj {
                            return p.skip();
                        }
                        let mut counts = HashMap::new();
                        let mut numeric = true;
                        p.object(|p, kind| {
                            if p.kind()? != Kind::Num {
                                numeric = false;
                                return p.skip();
                            }
                            counts.insert(kind.to_string(), p.number()? as u64);
                            Ok(())
                        })?;
                        kinds =
                            Some(if numeric { Ok(counts) } else { Err("non-numeric kind count") });
                        Ok(())
                    })
                }
                _ => p.skip(),
            })
        })?;
        if !events_seen {
            return Err("missing traceEvents array".into());
        }
        Ok(kinds.ok_or("missing otherData.eventKinds")??)
    }
}

/// What [`ChromeTrace::validate`] keeps of one event: for each key it
/// checks, whether the first occurrence had the right type (`None`: no
/// such key), and whether `args` held a numeric member.
#[derive(Default)]
struct EventKeys {
    ph: Option<bool>,
    name: Option<bool>,
    ts: Option<bool>,
    args: Option<bool>,
    numeric_arg: bool,
}

impl EventKeys {
    /// Consumes one element of `traceEvents`, leaving its phase in `ph`.
    fn read(p: &mut Parser<'_>, ph: &mut String) -> Result<Self, String> {
        let mut ev = EventKeys::default();
        ph.clear();
        if p.kind()? != Kind::Obj {
            p.skip()?;
            return Ok(ev);
        }
        p.object(|p, key| {
            let kind = p.kind()?;
            match key {
                "ph" if ev.ph.is_none() => {
                    ev.ph = Some(kind == Kind::Str);
                    if kind == Kind::Str {
                        return p.string(Some(ph));
                    }
                }
                "name" if ev.name.is_none() => ev.name = Some(kind == Kind::Str),
                "ts" if ev.ts.is_none() => ev.ts = Some(kind == Kind::Num),
                "args" if ev.args.is_none() => {
                    ev.args = Some(kind == Kind::Obj);
                    if kind == Kind::Obj {
                        return p.object(|p, _| {
                            ev.numeric_arg |= p.kind()? == Kind::Num;
                            p.skip()
                        });
                    }
                }
                _ => {}
            }
            p.skip()
        })?;
        Ok(ev)
    }

    /// The checks on event `i`, in the order their messages take priority.
    fn check(&self, i: usize, ph: &str) -> Result<(), String> {
        if self.ph != Some(true) {
            return Err(format!("event {i} has no ph"));
        }
        if !matches!(ph, "X" | "b" | "e" | "i" | "C" | "M") {
            return Err(format!("event {i} has unknown phase {ph:?}"));
        }
        if self.name != Some(true) {
            return Err(format!("event {i} has no name"));
        }
        if ph != "M" && self.ts != Some(true) {
            return Err(format!("event {i} ({ph}) has no ts"));
        }
        if ph == "C" {
            if self.args != Some(true) {
                return Err(format!("counter event {i} has no args object"));
            }
            if !self.numeric_arg {
                return Err(format!("counter event {i} has no numeric series"));
            }
        }
        Ok(())
    }
}

impl Probe for ChromeTrace {
    fn declare_block(&mut self, block: u32, name: &str) {
        self.declare("process_name", block, 0, name);
    }

    fn declare_node(&mut self, node: u32, label: &str, block: u32) {
        *slot(&mut self.node_block, node) = block;
        self.declare("thread_name", block, node, label);
    }

    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        self.kind_counts[ev.kind().index()] += 1;
        if cycle > self.counter_cycle {
            self.flush_counters();
            self.counter_cycle = cycle;
        }
        self.backfill_globals(cycle);
        match ev {
            ProbeEvent::TokenProduced { .. } => self.global_inflight += 1,
            ProbeEvent::TokenConsumed { count, .. } => self.global_inflight -= count as i64,
            ProbeEvent::TagAllocated { .. } => self.live_tags += 1,
            ProbeEvent::TagFreed { .. } => self.live_tags -= 1,
            _ => {}
        }
        if cycle >= self.next_global_sample {
            self.sample_globals(cycle);
        }
        let tag_arg = |tag: u64| move |b: &mut String| uint(b, "\"tag\":", tag);
        let mem_args = |node: u32, addr: i64| {
            move |b: &mut String| {
                uint(b, "\"node\":", node.into());
                b.push_str(",\"addr\":");
                json::write_i64(b, addr);
            }
        };
        match ev {
            ProbeEvent::NodeFired { node } => {
                let fresh = FireRun { start: cycle, last: cycle, count: 1 };
                match slot(&mut self.fires, node) {
                    Some(run) if cycle == run.last || cycle == run.last + 1 => {
                        run.last = cycle;
                        run.count += 1;
                    }
                    run => {
                        if let Some(done) = run.replace(fresh) {
                            self.flush_fire(node, done);
                        }
                    }
                }
            }
            ProbeEvent::TokenProduced { node } => self.touch_block(node, 1),
            ProbeEvent::TokenConsumed { node, count } => self.touch_block(node, -(count as i64)),
            ProbeEvent::TagAllocated { space, tag } => {
                self.instant(cycle, "tag", "allocate", space, tag_arg(tag));
            }
            ProbeEvent::TagFreed { space, tag } => {
                self.instant(cycle, "tag", "free", space, tag_arg(tag));
            }
            ProbeEvent::TagChanged { node, from, to } => {
                self.instant(cycle, "tag", "changeTag", self.pid_of(node), |b| {
                    uint(b, "\"node\":", node.into());
                    uint(b, ",\"from\":", from);
                    uint(b, ",\"to\":", to);
                });
            }
            ProbeEvent::BlockEnter { block, tag } => {
                self.instant(cycle, "block", "enter", block, tag_arg(tag));
            }
            ProbeEvent::BlockExit { block, tag } => {
                self.instant(cycle, "block", "exit", block, tag_arg(tag));
            }
            ProbeEvent::StallBegin { node, tag, reason } => {
                self.open_stall(cycle, node, tag, reason);
            }
            ProbeEvent::StallEnd { node, tag } => {
                self.close_stall(cycle, node, tag);
            }
            ProbeEvent::FaultInjected { node, kind } => {
                self.instant(cycle, "fault", kind.label(), self.pid_of(node), |b| {
                    uint(b, "\"node\":", node.into());
                });
            }
            ProbeEvent::MemAccess { node, addr, write } => {
                let name = if write { "store" } else { "load" };
                self.instant(cycle, "mem", name, self.pid_of(node), mem_args(node, addr));
            }
            ProbeEvent::MemMiss { node, addr, l2 } => {
                let name = if l2 { "missL2" } else { "missL1" };
                self.instant(cycle, "mem", name, self.pid_of(node), mem_args(node, addr));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The validator as it was before it streamed: build the tree, then
    /// look the keys up. Kept as the reference [`ChromeTrace::validate`]
    /// must agree with, verdict for verdict.
    fn validate_tree(text: &str) -> Result<HashMap<String, u64>, String> {
        let doc = Json::parse(text)?;
        let events =
            doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
        if events.is_empty() {
            return Err("traceEvents is empty".into());
        }
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i} has no ph"))?;
            if !matches!(ph, "X" | "b" | "e" | "i" | "C" | "M") {
                return Err(format!("event {i} has unknown phase {ph:?}"));
            }
            if ev.get("name").and_then(Json::as_str).is_none() {
                return Err(format!("event {i} has no name"));
            }
            if ph != "M" && ev.get("ts").and_then(Json::as_f64).is_none() {
                return Err(format!("event {i} ({ph}) has no ts"));
            }
            if ph == "C" {
                let args = ev
                    .get("args")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| format!("counter event {i} has no args object"))?;
                if !args.iter().any(|(_, v)| v.as_f64().is_some()) {
                    return Err(format!("counter event {i} has no numeric series"));
                }
            }
        }
        let kinds = doc
            .get("otherData")
            .and_then(|o| o.get("eventKinds"))
            .and_then(Json::as_obj)
            .ok_or("missing otherData.eventKinds")?;
        let mut out = HashMap::new();
        for (k, v) in kinds {
            out.insert(k.clone(), v.as_f64().ok_or("non-numeric kind count")? as u64);
        }
        Ok(out)
    }

    /// A value of a type `v` is not.
    fn mistyped(v: &Json) -> Json {
        match v {
            Json::Str(_) => Json::Num(7.0),
            _ => Json::Str("7".into()),
        }
    }

    /// `doc` with member `key` of its top-level object replaced by `f`'s
    /// result (`None` removes it).
    fn with_member(doc: &Json, key: &str, f: impl Fn(&Json) -> Option<Json>) -> Json {
        let pairs = doc.as_obj().unwrap().iter();
        Json::Obj(
            pairs
                .filter_map(|(k, v)| {
                    if k == key { f(v) } else { Some(v.clone()) }.map(|v| (k.clone(), v))
                })
                .collect(),
        )
    }

    /// Every document the two validators are compared on: the sample, and
    /// for one event of each phase every one-key mutation of it, plus the
    /// mutations of the document's own members.
    fn corpus() -> Vec<String> {
        let doc = Json::parse(&sample_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut docs = vec![doc.clone()];
        let mut with_event = |i: usize, ev: Json| {
            docs.push(with_member(&doc, "traceEvents", |evs| {
                let mut evs = evs.as_arr().unwrap().to_vec();
                evs[i] = ev.clone();
                Some(Json::Arr(evs))
            }));
        };
        for ph in ["M", "X", "b", "e", "i", "C"] {
            let (i, ev) = events
                .iter()
                .enumerate()
                .find(|(_, e)| e.get("ph").and_then(Json::as_str) == Some(ph))
                .unwrap_or_else(|| panic!("the sample has no {ph} event"));
            for key in ["ph", "name", "ts", "args"] {
                let Some(v) = ev.get(key) else { continue };
                with_event(i, with_member(ev, key, |_| None));
                with_event(i, with_member(ev, key, |v| Some(mistyped(v))));
                let mut twice = ev.as_obj().unwrap().to_vec();
                twice.push((key.into(), mistyped(v)));
                with_event(i, Json::Obj(twice.clone()));
                twice.rotate_right(1);
                with_event(i, Json::Obj(twice));
            }
            with_event(i, with_member(ev, "ph", |_| Some(json::str("Q"))));
            with_event(i, with_member(ev, "args", |_| Some(Json::Obj(vec![]))));
            with_event(
                i,
                with_member(ev, "args", |_| Some(Json::Obj(vec![("s".into(), json::str("3"))]))),
            );
            with_event(i, json::num(3));
            with_event(i, Json::Null);
        }

        let mut swapped = doc.as_obj().unwrap().to_vec();
        swapped.reverse();
        docs.push(Json::Obj(swapped.clone()));
        // Reversed *and* wrong in both halves: the event's message wins.
        let bad_kinds = |o: &Json| {
            Some(with_member(o, "eventKinds", |k| {
                Some(with_member(k, "fired", |_| Some(json::str("2"))))
            }))
        };
        docs.push(with_member(&doc, "otherData", bad_kinds));
        docs.push(with_member(
            &with_member(&Json::Obj(swapped), "otherData", bad_kinds),
            "traceEvents",
            |_| Some(Json::Arr(vec![json::num(1)])),
        ));
        for key in ["traceEvents", "otherData"] {
            docs.push(with_member(&doc, key, |_| None));
            docs.push(with_member(&doc, key, |_| Some(json::num(1))));
            docs.push(with_member(&doc, key, |_| Some(Json::Arr(vec![]))));
            // Duplicated with the wrong type second, then first.
            let mut twice = doc.as_obj().unwrap().to_vec();
            twice.push((key.into(), json::num(1)));
            docs.push(Json::Obj(twice.clone()));
            twice.rotate_right(1);
            docs.push(Json::Obj(twice));
        }
        docs.push(with_member(&doc, "otherData", |o| Some(with_member(o, "eventKinds", |_| None))));
        docs.push(with_member(&doc, "otherData", |o| {
            Some(with_member(o, "eventKinds", |_| Some(json::num(1))))
        }));
        docs.push(json::num(1));
        docs.push(Json::Arr(vec![]));

        let mut texts: Vec<String> = docs.iter().map(Json::render).collect();
        let good = sample_trace();
        texts.push(good[..good.len() / 2].to_string());
        texts.push(format!("{good} x"));
        let leading_zero = good.replacen("\"ts\":1,", "\"ts\":01,", 1);
        assert_ne!(leading_zero, good);
        texts.push(leading_zero);
        texts.push(String::new());
        texts
    }

    #[test]
    fn streaming_validator_agrees_with_the_tree_reference() {
        let corpus = corpus();
        let (mut ok, mut errors) = (0, std::collections::HashSet::new());
        for text in &corpus {
            let got = ChromeTrace::validate(text);
            assert_eq!(got, validate_tree(text), "verdicts differ on {text}");
            match got {
                Ok(_) => ok += 1,
                Err(e) => drop(errors.insert(e)),
            }
        }
        // The corpus must reach every message, not just agree on a few.
        assert!(ok >= 10, "only {ok} documents of the corpus pass");
        for needle in [
            "has no ph",
            "unknown phase",
            "has no name",
            "has no ts",
            "no args object",
            "no numeric series",
            "missing traceEvents array",
            "traceEvents is empty",
            "missing otherData.eventKinds",
            "non-numeric kind count",
            "at byte",
        ] {
            assert!(errors.iter().any(|e| e.contains(needle)), "no document yields {needle:?}");
        }
    }

    #[test]
    fn a_malformed_event_is_reported_before_a_later_syntax_error() {
        // The one observable difference from the tree: the tree-builder
        // read the whole text first, so it saw the syntax error.
        let text = "{\"traceEvents\":[{\"ph\":\"Q\",\"name\":\"n\",\"ts\":0}],\"otherData\":{";
        assert!(ChromeTrace::validate(text).unwrap_err().contains("unknown phase"));
        assert!(validate_tree(text).unwrap_err().contains("at byte"));
    }

    #[test]
    fn records_past_the_cap_are_dropped_and_counted() {
        let mut t = ChromeTrace::new();
        t.declare_block(0, "main");
        let events = 1000;
        for tag in 0..events {
            t.event(0, ProbeEvent::TagAllocated { space: 0, tag });
        }
        // Two global samples at the first event, one instant per event, two
        // more samples from `render`.
        let records = events + 4;
        let text = t.render(0);
        let kinds = ChromeTrace::validate(&text).expect("a truncated trace still validates");
        assert_eq!(kinds["tag-allocated"], events, "kind counts keep counting past the cap");
        let doc = Json::parse(&text).unwrap();
        let kept = doc.get("traceEvents").unwrap().as_arr().unwrap().len();
        assert_eq!(kept, 1 + MAX_TRACE_EVENTS, "the declaration plus a full buffer");
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("truncated"), Some(&Json::Bool(true)));
        assert_eq!(other.get("dropped"), Some(&json::num(records - MAX_TRACE_EVENTS as u64)));
    }

    fn sample_trace() -> String {
        let mut t = ChromeTrace::new();
        t.declare_block(0, "main");
        t.declare_block(1, "loop \"inner\"");
        t.declare_node(0, "load a", 0);
        t.declare_node(1, "mul", 1);
        t.event(0, ProbeEvent::NodeFired { node: 0 });
        t.event(1, ProbeEvent::NodeFired { node: 0 });
        t.event(1, ProbeEvent::TokenProduced { node: 1 });
        t.event(2, ProbeEvent::StallBegin { node: 1, tag: 3, reason: StallReason::TagStarved });
        t.event(2, ProbeEvent::TagAllocated { space: 1, tag: 3 });
        t.event(3, ProbeEvent::BlockEnter { block: 1, tag: 3 });
        t.event(5, ProbeEvent::StallEnd { node: 1, tag: 3 });
        t.event(6, ProbeEvent::NodeFired { node: 1 });
        t.event(6, ProbeEvent::TokenConsumed { node: 1, count: 1 });
        t.event(7, ProbeEvent::TagFreed { space: 1, tag: 3 });
        t.event(7, ProbeEvent::BlockExit { block: 1, tag: 3 });
        t.event(8, ProbeEvent::TagChanged { node: 1, from: 3, to: 0 });
        t.event(8, ProbeEvent::FaultInjected { node: 1, kind: FaultKind::TokenCorrupt });
        t.event(8, ProbeEvent::MemAccess { node: 0, addr: 64, write: false });
        t.event(8, ProbeEvent::MemMiss { node: 0, addr: 64, l2: false });
        // Left open: must be closed by render() at the final cycle.
        t.event(9, ProbeEvent::StallBegin { node: 0, tag: 0, reason: StallReason::PartialMatch });
        t.render(12)
    }

    #[test]
    fn trace_json_round_trips() {
        let text = sample_trace();
        let doc = Json::parse(&text).expect("trace JSON parses");
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn trace_validates_with_full_taxonomy() {
        let text = sample_trace();
        let kinds = ChromeTrace::validate(&text).unwrap();
        for kind in EventKind::ALL {
            assert!(
                kinds.get(kind.name()).copied().unwrap_or(0) > 0,
                "kind {} missing from sample trace",
                kind.name()
            );
        }
    }

    #[test]
    fn open_stalls_close_at_final_cycle() {
        let text = sample_trace();
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let closes: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("e"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(closes.len(), 2, "one explicit StallEnd + one forced close");
        assert!(closes.contains(&12.0), "open interval closed at the final cycle");
    }

    #[test]
    fn consecutive_fires_merge_into_one_slice() {
        let mut t = ChromeTrace::new();
        t.declare_node(4, "n", 0);
        for c in 10..20 {
            t.event(c, ProbeEvent::NodeFired { node: 4 });
        }
        t.event(30, ProbeEvent::NodeFired { node: 4 });
        let text = t.render(31);
        let doc = Json::parse(&text).unwrap();
        let slices: Vec<&Json> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].get("dur").unwrap().as_f64().unwrap(), 10.0);
        assert_eq!(slices[0].get("args").unwrap().get("fires").unwrap().as_f64().unwrap(), 10.0);
    }

    #[test]
    fn global_counter_tracks_are_sampled_per_window() {
        let mut t = ChromeTrace::new();
        t.declare_node(0, "n", 0);
        // Cross two sampling windows and finish mid-window: expect samples at
        // cycle 0, 64, 128, and the forced final sample at 150.
        for c in [0u64, 3, 64, 70, 128, 140] {
            t.event(c, ProbeEvent::TokenProduced { node: 0 });
        }
        t.event(140, ProbeEvent::TagAllocated { space: 0, tag: 1 });
        let text = t.render(150);
        let doc = Json::parse(&text).unwrap();
        let counters: Vec<&Json> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        let track = |name: &str| -> Vec<(f64, f64)> {
            counters
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .map(|e| {
                    let ts = e.get("ts").unwrap().as_f64().unwrap();
                    let args = e.get("args").unwrap().as_obj().unwrap();
                    (ts, args[0].1.as_f64().unwrap())
                })
                .collect()
        };
        let tokens = track("tokens in flight");
        assert_eq!(
            tokens,
            vec![(0.0, 1.0), (64.0, 3.0), (128.0, 5.0), (150.0, 6.0)],
            "one sample per {GLOBAL_COUNTER_WINDOW}-cycle window plus the final sample"
        );
        let tags = track("live tags");
        assert_eq!(tags.last(), Some(&(150.0, 1.0)));
        ChromeTrace::validate(&text).expect("counter tracks pass validation");
    }

    #[test]
    fn global_counter_gaps_get_a_backfill_sample() {
        // An event-driven engine can jump the clock over hundreds of idle
        // cycles, so whole sampling windows pass with no probe events. The
        // gap must render as one merged flat span: a single catch-up sample
        // at the first skipped window boundary carrying the pre-gap values,
        // not a silent drop (which Perfetto would draw as a ramp).
        let track = |text: &str, name: &str| -> Vec<(f64, f64)> {
            let doc = Json::parse(text).unwrap();
            doc.get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("C")
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
                .map(|e| {
                    let ts = e.get("ts").unwrap().as_f64().unwrap();
                    let args = e.get("args").unwrap().as_obj().unwrap();
                    (ts, args[0].1.as_f64().unwrap())
                })
                .collect()
        };

        // Gap between two events.
        let mut t = ChromeTrace::new();
        t.declare_node(0, "n", 0);
        t.event(0, ProbeEvent::TokenProduced { node: 0 });
        t.event(1000, ProbeEvent::TokenProduced { node: 0 });
        let text = t.render(1010);
        assert_eq!(
            track(&text, "tokens in flight"),
            vec![(0.0, 1.0), (64.0, 1.0), (1000.0, 2.0), (1010.0, 2.0)],
            "backfill at the first skipped boundary with pre-gap value"
        );
        ChromeTrace::validate(&text).expect("backfilled trace passes validation");

        // Gap between the last event and the final cycle.
        let mut t = ChromeTrace::new();
        t.declare_node(0, "n", 0);
        t.event(0, ProbeEvent::TokenProduced { node: 0 });
        let text = t.render(1000);
        assert_eq!(
            track(&text, "tokens in flight"),
            vec![(0.0, 1.0), (64.0, 1.0), (1000.0, 1.0)],
            "render backfills a tail gap before the forced final sample"
        );
    }

    #[test]
    fn validator_rejects_counter_without_numeric_args() {
        let doc = |counter: &str| {
            format!("{{\"traceEvents\":[{counter}],\"otherData\":{{\"eventKinds\":{{}}}}}}")
        };
        let good = doc("{\"ph\":\"C\",\"name\":\"t\",\"ts\":0,\"args\":{\"tokens\":3}}");
        ChromeTrace::validate(&good).unwrap();
        let stringy = doc("{\"ph\":\"C\",\"name\":\"t\",\"ts\":0,\"args\":{\"tokens\":\"3\"}}");
        assert!(
            ChromeTrace::validate(&stringy).unwrap_err().contains("no numeric series"),
            "stringified counter value must be rejected"
        );
        let missing = doc("{\"ph\":\"C\",\"name\":\"t\",\"ts\":0}");
        assert!(
            ChromeTrace::validate(&missing).unwrap_err().contains("has no args object"),
            "counter without args must be rejected"
        );
    }

    #[test]
    fn counting_probe_counts() {
        let mut c = CountingProbe::default();
        c.event(0, ProbeEvent::NodeFired { node: 0 });
        c.event(1, ProbeEvent::TokenProduced { node: 0 });
        assert_eq!(c.events, 2);
    }

    #[test]
    fn tuple_and_ref_probes_forward() {
        let mut a = CountingProbe::default();
        let mut b = ChromeTrace::new();
        {
            let mut pair = (&mut a, &mut b);
            pair.declare_node(0, "n", 0);
            pair.event(0, ProbeEvent::NodeFired { node: 0 });
        }
        assert_eq!(a.events, 1);
        assert_eq!(b.kind_count(EventKind::Fired), 1);
        const { assert!(<(&mut CountingProbe, &mut ChromeTrace) as Probe>::ENABLED) };
        const { assert!(!NoProbe::ENABLED) };
    }
}
