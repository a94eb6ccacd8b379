//! Elaborated dataflow graphs.
//!
//! A [`Dfg`] is the executable artifact produced by the lowering passes: a
//! set of instruction nodes wired output-port → input-port, partitioned into
//! *concurrent blocks* (Sec. III). Nodes implement the dataflow firing rule;
//! the engines in `tyr-sim` give the graph its operational semantics.
//!
//! The node set is Table I of the paper (arithmetic, `load`/`store`,
//! `steer`/`join`, and the token-synchronization instructions `allocate`,
//! `free`, `changeTag`, `extractTag`) plus the linkage/plumbing nodes any
//! concrete compiler needs (`Source`, `Sink`, `Merge`, and the
//! ordered-dataflow `CMerge`).

use std::fmt;
use std::ops::Range;

use tyr_ir::{AluOp, Value};

/// Identifies a node within a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a concurrent block (and its local tag space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cb{}", self.0)
    }
}

/// The root block (the entry function's single context).
pub const ROOT_BLOCK: BlockId = BlockId(0);

/// An input-port reference: `(node, input index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Target node.
    pub node: NodeId,
    /// Input port index on the target.
    pub port: u16,
}

impl PortRef {
    /// Encodes this port as an integer for dynamic routing
    /// ([`NodeKind::ChangeTagDyn`]); the paper's changeTag routes tokens to a
    /// dynamic `(instruction, operand)` location for arbitrary-caller
    /// returns.
    pub fn encode(self) -> Value {
        ((self.node.0 as Value) << 16) | self.port as Value
    }

    /// Decodes an encoded port.
    pub fn decode(v: Value) -> PortRef {
        PortRef { node: NodeId((v >> 16) as u32), port: (v & 0xFFFF) as u16 }
    }
}

/// Reservation discipline for [`NodeKind::Allocate`] (Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// An allocate on the *external* edge into a tail-recursive block (a
    /// loop entry). Reserves one spare tag for the backedge: it never
    /// consumes either of the last two tags without the context being ready,
    /// and never consumes the last one at all.
    External,
    /// The allocate on a loop's backedge (tail-recursive self edge). May
    /// take the last tag, but only once the context is ready.
    Tail,
    /// An allocate into a non-recursive block (a function call). No spare
    /// tag is needed; may take the last tag once ready.
    Call,
}

impl AllocKind {
    /// Number of tags that must remain un-popped for other edges.
    pub fn reserve(self) -> usize {
        match self {
            AllocKind::External => 1,
            AllocKind::Tail | AllocKind::Call => 0,
        }
    }
}

/// Instruction opcodes of the elaborated graph.
///
/// Port conventions (inputs `inN` / outputs `outN`) are documented per
/// variant; `ctl` denotes a zero-data token `<t, ∅>` used for the free
/// barrier (present only in lowering modes that build barriers).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Arithmetic. `in0`,`in1` → `out0`.
    Alu(AluOp),
    /// Memory read. `in0` = address → `out0` = value.
    Load,
    /// Memory write. `in0` = address, `in1` = value → `out0` = ctl.
    Store,
    /// Atomic fetch-add. `in0` = address, `in1` = addend → `out0` = ctl.
    StoreAdd,
    /// If-converted select: `in0` = condition, `in1` = on-true,
    /// `in2` = on-false → `out0`. Strict (waits for all three inputs), as in
    /// classic if-conversion where both sides are computed.
    Select,
    /// Conditional route. `in0` = decider, `in1` = data →
    /// `out0` = data when decider ≠ 0, `out1` = data when decider = 0,
    /// `out2` = ctl (unconditional).
    Steer,
    /// Nondeterministic merge: exactly one of its inputs arrives per
    /// context. `in0..inN` → `out0` = the arriving token.
    Merge,
    /// Barrier: waits for all inputs, then `out0` = copy of `in0`.
    Join,
    /// Tag allocation (Sec. IV-A). `in0` = request `<t,∅>`,
    /// `in1` = ready `<t,∅>` → `out0` = `<t, t'>` (the new tag as data),
    /// `out1` = ctl `<t,∅>` emitted when `ready` is consumed.
    ///
    /// Firing rule: pops immediately on `request` when
    /// `free > reserve + 1`; pops on `request`+`ready` when
    /// `free > reserve`; otherwise waits.
    Allocate {
        /// The tag space allocated from.
        space: BlockId,
        /// Reservation discipline.
        kind: AllocKind,
    },
    /// Unbounded tag generation (naïve unordered dataflow's `T` node).
    /// `in0` = request `<t,∅>` → `out0` = `<t, t'>` with a globally fresh
    /// `t'`.
    NewTag,
    /// Returns a tag to its space's free list. `in0` = `<t,∅>`; no outputs.
    Free {
        /// The tag space freed into.
        space: BlockId,
    },
    /// Tag translation: `(in0 = <t,t'>, in1 = <t,data>)` →
    /// `out0` = `<t',data>` (static target), `out1` = ctl `<t,∅>`.
    ChangeTag,
    /// Dynamically-routed tag translation for function returns:
    /// `(in0 = <t,t'>, in1 = <t,target>, in2 = <t,data>)` →
    /// `out0` = `<t',data>` delivered to the [`PortRef::decode`]d target,
    /// `out1` = ctl `<t,∅>`.
    ChangeTagDyn,
    /// `in0` = `<t,∅>` → `out0` = `<t,t>` (the tag as data).
    ExtractTag,
    /// Program entry: fires once at cycle 0, emitting the program arguments
    /// (one per output port) with the root tag.
    Source,
    /// Program exit: the program completes when all inputs have arrived.
    Sink,
    /// Materializes a constant: `in0` = trigger `<t,∅>` → `out0` = `<t,c>`.
    /// Used where a constant must become a *token* (e.g. a constant merged
    /// out of a conditional); constants feeding ordinary instructions are
    /// immediates instead.
    Const(Value),
    /// Ordered-dataflow controlled merge. `in0` = control, `in1` = initial
    /// side, `in2` = backedge side → `out0`. Pops `in1` when control = 0,
    /// `in2` otherwise. `initial_ctl` tokens are pre-loaded into the control
    /// FIFO at reset (the classic "take-initial-first" trick).
    CMerge {
        /// Tokens pre-loaded into the control FIFO.
        initial_ctl: Vec<Value>,
    },
}

impl NodeKind {
    /// Short mnemonic for printing/DOT.
    pub fn mnemonic(&self) -> String {
        match self {
            NodeKind::Alu(op) => op.mnemonic().to_string(),
            NodeKind::Select => "select".into(),
            NodeKind::Load => "load".into(),
            NodeKind::Store => "store".into(),
            NodeKind::StoreAdd => "store+".into(),
            NodeKind::Steer => "steer".into(),
            NodeKind::Merge => "merge".into(),
            NodeKind::Join => "join".into(),
            NodeKind::Allocate { kind, .. } => match kind {
                AllocKind::External => "alloc.ext".into(),
                AllocKind::Tail => "alloc.tail".into(),
                AllocKind::Call => "alloc.call".into(),
            },
            NodeKind::NewTag => "newtag".into(),
            NodeKind::Free { .. } => "free".into(),
            NodeKind::ChangeTag => "changetag".into(),
            NodeKind::ChangeTagDyn => "changetag.dyn".into(),
            NodeKind::ExtractTag => "extracttag".into(),
            NodeKind::Const(c) => format!("const {c}"),
            NodeKind::Source => "source".into(),
            NodeKind::Sink => "sink".into(),
            NodeKind::CMerge { .. } => "cmerge".into(),
        }
    }
}

/// How an input port is fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InKind {
    /// Receives tokens from producer outputs.
    Wire,
    /// An immediate baked into the instruction; never carries tokens.
    Imm(Value),
}

/// A half-open range into one of a [`Dfg`]'s shared arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: u32,
    hi: u32,
}

impl Span {
    #[inline]
    fn range(self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// One node's fixed-size row: its opcode and block, plus where its inputs,
/// output ports and label live in the graph's shared arrays.
#[derive(Debug, Clone)]
struct Head {
    kind: NodeKind,
    block: BlockId,
    /// Into `ins`.
    ins: Span,
    /// Port indices into `port_off`; a node's ports are contiguous.
    ports: Span,
    /// Byte range into `labels`.
    label: Span,
}

/// A borrowed view of one instruction node of a [`Dfg`].
#[derive(Clone, Copy)]
pub struct Node<'a> {
    dfg: &'a Dfg,
    head: &'a Head,
}

impl<'a> Node<'a> {
    /// The opcode.
    #[inline]
    pub fn kind(&self) -> &'a NodeKind {
        &self.head.kind
    }

    /// The concurrent block (tag space) this node's tokens live in.
    #[inline]
    pub fn block(&self) -> BlockId {
        self.head.block
    }

    /// Input ports.
    #[inline]
    pub fn ins(&self) -> &'a [InKind] {
        &self.dfg.ins[self.head.ins.range()]
    }

    /// Output ports, each with its targets. An empty target list means
    /// tokens on that port are discarded at zero cost (the edge does not
    /// exist).
    #[inline]
    pub fn outs(&self) -> Ports<'a> {
        let Span { lo, hi } = self.head.ports;
        Ports { off: &self.dfg.port_off[lo as usize..=hi as usize], targets: &self.dfg.targets }
    }

    /// The targets of output `port`, in the order they were connected.
    ///
    /// # Panics
    ///
    /// Panics if the node has no such port.
    #[inline]
    pub fn targets(&self, port: usize) -> &'a [PortRef] {
        let p = self.head.ports.lo as usize + port;
        assert!(p < self.head.ports.hi as usize, "no output port {port} on {}", self.label());
        let off = &self.dfg.port_off;
        &self.dfg.targets[off[p] as usize..off[p + 1] as usize]
    }

    /// Diagnostic label.
    #[inline]
    pub fn label(&self) -> &'a str {
        &self.dfg.labels[self.head.label.range()]
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", self.kind())
            .field("block", &self.block())
            .field("ins", &self.ins())
            .field("outs", &self.outs().iter().collect::<Vec<_>>())
            .field("label", &self.label())
            .finish()
    }
}

/// The output ports of one [`Node`]: a window of the graph's compressed
/// port rows.
#[derive(Debug, Clone, Copy)]
pub struct Ports<'a> {
    /// `off[q]..off[q + 1]` indexes port `q`'s targets; one entry more than
    /// there are ports.
    off: &'a [u32],
    targets: &'a [PortRef],
}

impl<'a> Ports<'a> {
    /// Number of output ports.
    #[inline]
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the node has no output ports.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The targets of port `q`, if it exists.
    #[inline]
    pub fn get(&self, q: usize) -> Option<&'a [PortRef]> {
        let (lo, hi) = (*self.off.get(q)?, *self.off.get(q + 1)?);
        Some(&self.targets[lo as usize..hi as usize])
    }

    /// Each port's targets, in port order.
    #[inline]
    pub fn iter(&self) -> PortIter<'a> {
        PortIter { off: self.off.windows(2), targets: self.targets }
    }
}

impl<'a> IntoIterator for Ports<'a> {
    type Item = &'a [PortRef];
    type IntoIter = PortIter<'a>;

    #[inline]
    fn into_iter(self) -> PortIter<'a> {
        self.iter()
    }
}

/// Iterator over a node's output ports, yielding each port's targets.
#[derive(Debug, Clone)]
pub struct PortIter<'a> {
    off: std::slice::Windows<'a, u32>,
    targets: &'a [PortRef],
}

impl<'a> Iterator for PortIter<'a> {
    type Item = &'a [PortRef];

    #[inline]
    fn next(&mut self) -> Option<&'a [PortRef]> {
        let targets = self.targets;
        self.off.next().map(|w| &targets[w[0] as usize..w[1] as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.off.size_hint()
    }
}

impl ExactSizeIterator for PortIter<'_> {}

/// Metadata for one concurrent block.
#[derive(Debug, Clone)]
pub struct BlockInfo {
    /// Human-readable name: function name or loop label.
    pub name: String,
    /// The lexically-enclosing block, if any.
    pub parent: Option<BlockId>,
    /// Whether the block has a tail-recursive self edge (it's a loop).
    pub is_loop: bool,
}

/// One static wire of a [`Dfg`]: producer output port → consumer input
/// port. Produced by [`Dfg::edges`]; the unit of reasoning for per-edge
/// analyses (the ordered engine's FIFO capacities are per consumer port,
/// i.e. per edge bundle sharing a consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Producer output port.
    pub from_port: u16,
    /// Consumer node.
    pub to: NodeId,
    /// Consumer input port.
    pub to_port: u16,
}

/// An elaborated dataflow graph.
///
/// Stored as flat rows, so building, cloning or dropping one costs a
/// handful of allocations however many nodes it has: a fixed-size head per
/// node, every input kind in one array, every output port's targets in one
/// compressed array (a node's ports contiguous, each port's targets in
/// connect order), and every label in one string. Read nodes through
/// [`Dfg::node`] and [`Dfg::nodes`].
#[derive(Debug, Clone)]
pub struct Dfg {
    heads: Vec<Head>,
    ins: Vec<InKind>,
    /// `port_off[p]..port_off[p + 1]` indexes port `p`'s targets; one entry
    /// more than there are ports.
    port_off: Vec<u32>,
    targets: Vec<PortRef>,
    labels: String,
    /// All concurrent blocks; index 0 is the root.
    pub blocks: Vec<BlockInfo>,
    /// The unique [`NodeKind::Source`].
    pub source: NodeId,
    /// The unique [`NodeKind::Sink`].
    pub sink: NodeId,
    /// Number of program return values (the first `n_returns` sink inputs).
    pub n_returns: usize,
}

impl Dfg {
    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        Node { dfg: self, head: &self.heads[id.0 as usize] }
    }

    /// The node for `id`, if it exists.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<Node<'_>> {
        self.heads.get(id.0 as usize).map(|head| Node { dfg: self, head })
    }

    /// Every node, in id order.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = Node<'_>> {
        self.heads.iter().map(move |head| Node { dfg: self, head })
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Maximum number of *wired* input ports across nodes (the `M` of
    /// Theorem 2's `T · N · M` bound).
    pub fn max_wired_inputs(&self) -> usize {
        self.nodes()
            .map(|n| n.ins().iter().filter(|i| matches!(i, InKind::Wire)).count())
            .max()
            .unwrap_or(0)
    }

    /// Iterates every static wire, in producer order. Dynamically routed
    /// `changeTag.dyn` deliveries are not static wires and are not
    /// included (see the verifier's `dyn_targets` for those).
    #[inline]
    pub fn edges(&self) -> Edges<'_> {
        Edges { dfg: self, node: 0, port: 0, next: 0 }
    }

    /// Looks up a block id by name.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.name == name).map(|i| BlockId(i as u32))
    }

    /// Structural sanity check, run by every lowering before returning:
    ///
    /// * every edge targets an existing, `Wire` input port;
    /// * every non-source node has at least one wired input (a node with
    ///   only immediates could never fire — or would fire forever in the
    ///   ordered engine);
    /// * `Allocate`/`Free` reference existing tag spaces, and every space
    ///   with an `Allocate` also has a `Free` (tags must recycle) unless the
    ///   graph is an unbounded elaboration (no `Free` nodes at all);
    /// * node block ids are in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let any_free = self.heads.iter().any(|h| matches!(h.kind, NodeKind::Free { .. }));
        let mut alloc_spaces = Vec::new();
        let mut free_spaces = Vec::new();
        for (ni, n) in self.nodes().enumerate() {
            if n.block().0 as usize >= self.blocks.len() {
                return Err(format!(
                    "n{ni} ('{}') has out-of-range block {}",
                    n.label(),
                    n.block()
                ));
            }
            if !matches!(n.kind(), NodeKind::Source)
                && !n.ins().iter().any(|i| matches!(i, InKind::Wire))
            {
                return Err(format!("n{ni} ('{}') has no wired inputs", n.label()));
            }
            match n.kind() {
                NodeKind::Allocate { space, .. } | NodeKind::Free { space } => {
                    if space.0 as usize >= self.blocks.len() {
                        return Err(format!(
                            "n{ni} ('{}') references bad space {space}",
                            n.label()
                        ));
                    }
                    if matches!(n.kind(), NodeKind::Free { .. }) {
                        free_spaces.push(*space);
                    } else {
                        alloc_spaces.push(*space);
                    }
                }
                _ => {}
            }
            for (pi, targets) in n.outs().iter().enumerate() {
                for t in targets {
                    let Some(dst) = self.heads.get(t.node.0 as usize) else {
                        return Err(format!("n{ni}.o{pi} targets missing node {}", t.node));
                    };
                    match self.ins[dst.ins.range()].get(t.port as usize) {
                        Some(InKind::Wire) => {}
                        Some(InKind::Imm(_)) => {
                            return Err(format!(
                                "n{ni}.o{pi} targets immediate input {}.i{}",
                                t.node, t.port
                            ))
                        }
                        None => {
                            return Err(format!(
                                "n{ni}.o{pi} targets missing port {}.i{}",
                                t.node, t.port
                            ))
                        }
                    }
                }
            }
        }
        if any_free {
            for s in alloc_spaces {
                if !free_spaces.contains(&s) {
                    return Err(format!(
                        "space {s} ('{}') is allocated from but never freed into",
                        self.blocks[s.0 as usize].name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Renders the graph in Graphviz DOT format, clustering nodes by
    /// concurrent block.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph dfg {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
        for (bi, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{bi} {{");
            let _ = writeln!(out, "    label=\"{} (cb{bi})\";", block.name);
            for (ni, n) in self.nodes().enumerate() {
                if n.block().0 as usize == bi {
                    let _ = writeln!(
                        out,
                        "    n{ni} [label=\"{}: {}\"];",
                        n.label(),
                        n.kind().mnemonic()
                    );
                }
            }
            let _ = writeln!(out, "  }}");
        }
        for e in self.edges() {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"o{}->i{}\"];",
                e.from.0, e.to.0, e.from_port, e.to_port
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Iterator over a [`Dfg`]'s static wires, from [`Dfg::edges`]. Walks the
/// compressed target array once, in order: its producer port and node only
/// ever move forward.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    dfg: &'a Dfg,
    /// The node owning `port`.
    node: usize,
    /// The port owning target `next`.
    port: usize,
    /// Index of the next target in `Dfg::targets`.
    next: usize,
}

impl Iterator for Edges<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        let g = self.dfg;
        let to = *g.targets.get(self.next)?;
        while g.port_off[self.port + 1] as usize <= self.next {
            self.port += 1;
        }
        while g.heads[self.node].ports.hi as usize <= self.port {
            self.node += 1;
        }
        self.next += 1;
        Some(Edge {
            from: NodeId(self.node as u32),
            from_port: (self.port - g.heads[self.node].ports.lo as usize) as u16,
            to: to.node,
            to_port: to.port,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.dfg.targets.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Edges<'_> {}

/// Raw edits on a finished graph. They skip every check the builder makes,
/// so tests can build the malformed graphs — edges to missing nodes or
/// ports, nodes outside every barrier — that [`Dfg::check`], the verifier
/// and the engines' sanitizers must catch. Each keeps the flat rows
/// consistent (a node's ports contiguous, each port's targets in insertion
/// order) at a cost linear in the graph.
impl Dfg {
    /// Appends a node with `n_outs` unwired output ports.
    pub fn push_node(
        &mut self,
        kind: NodeKind,
        block: BlockId,
        ins: &[InKind],
        n_outs: usize,
        label: &str,
    ) -> NodeId {
        let id = NodeId(self.heads.len() as u32);
        let ins = extend(&mut self.ins, ins.iter().copied());
        let lo = (self.port_off.len() - 1) as u32;
        let end = *self.port_off.last().expect("port rows end with a sentinel");
        self.port_off.extend(std::iter::repeat_n(end, n_outs));
        let ports = Span { lo, hi: lo + n_outs as u32 };
        let label = push_label(&mut self.labels, label);
        self.heads.push(Head { kind, block, ins, ports, label });
        id
    }

    /// Adds one (unwired) output port after `node`'s last, returning its
    /// index.
    pub fn push_port(&mut self, node: NodeId) -> u16 {
        let ports = self.heads[node.0 as usize].ports;
        let at = ports.hi as usize;
        self.port_off.insert(at, self.port_off[at]);
        for h in &mut self.heads[node.0 as usize + 1..] {
            h.ports.lo += 1;
            h.ports.hi += 1;
        }
        self.heads[node.0 as usize].ports.hi += 1;
        (ports.hi - ports.lo) as u16
    }

    /// Appends `to` after the existing targets of output `port` of `from`,
    /// without checking that `to` exists.
    ///
    /// # Panics
    ///
    /// Panics if `from` or its output `port` does not exist.
    pub fn push_target(&mut self, from: NodeId, port: u16, to: PortRef) {
        let ports = self.heads[from.0 as usize].ports;
        assert!((port as u32) < ports.hi - ports.lo, "no output port {port} on {from}");
        let p = (ports.lo + port as u32) as usize;
        self.targets.insert(self.port_off[p + 1] as usize, to);
        for off in &mut self.port_off[p + 1..] {
            *off += 1;
        }
    }

    /// Replaces the opcode of `node`.
    pub fn set_kind(&mut self, node: NodeId, kind: NodeKind) {
        self.heads[node.0 as usize].kind = kind;
    }
}

/// Appends `items` to `v`, returning where they landed.
fn extend<T>(v: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Span {
    let lo = v.len() as u32;
    v.extend(items);
    Span { lo, hi: v.len() as u32 }
}

/// Renders `label` onto the end of the label arena, returning its bytes.
fn push_label(labels: &mut String, label: impl fmt::Display) -> Span {
    use std::fmt::Write as _;
    let lo = labels.len() as u32;
    let _ = write!(labels, "{label}");
    Span { lo, hi: labels.len() as u32 }
}

/// Mutable graph construction helper used by the lowering passes.
///
/// Nodes, input kinds and labels are appended to flat arrays as they are
/// added; [`GraphBuilder::connect`] appends to one edge list, and
/// [`GraphBuilder::finish`] places the edges into compressed per-port rows.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    heads: Vec<Head>,
    ins: Vec<InKind>,
    n_ports: u32,
    /// Every wire, in `connect` order: (producer port index, target).
    edges: Vec<(u32, PortRef)>,
    labels: String,
    blocks: Vec<BlockInfo>,
    /// The nested-`Vec` builder the flat rows replaced, fed the same calls;
    /// `finish` asserts both graphs agree row for row.
    #[cfg(test)]
    reference: crate::reference::Builder,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a concurrent block.
    pub fn add_block(&mut self, name: &str, parent: Option<BlockId>, is_loop: bool) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockInfo { name: name.to_string(), parent, is_loop });
        id
    }

    /// Adds a node with `n_outs` (initially unwired) output ports. The
    /// label is rendered straight into the graph's label arena, so passing
    /// `format_args!` costs no allocation of its own.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        block: BlockId,
        ins: impl IntoIterator<Item = InKind>,
        n_outs: usize,
        label: impl fmt::Display,
    ) -> NodeId {
        let id = NodeId(self.heads.len() as u32);
        let ins = extend(&mut self.ins, ins);
        let ports = Span { lo: self.n_ports, hi: self.n_ports + n_outs as u32 };
        self.n_ports = ports.hi;
        let label = push_label(&mut self.labels, label);
        #[cfg(test)]
        self.reference.add_node(
            kind.clone(),
            block,
            self.ins[ins.range()].to_vec(),
            n_outs,
            self.labels[label.range()].to_string(),
        );
        self.heads.push(Head { kind, block, ins, ports, label });
        id
    }

    /// Wires output `from_port` of `from` to input `to.port` of `to.node`.
    ///
    /// # Panics
    ///
    /// Panics if either port does not exist, or the input is an immediate.
    pub fn connect(&mut self, from: NodeId, from_port: u16, to: PortRef) {
        let dst = &self.heads[to.node.0 as usize];
        let dst_ins = &self.ins[dst.ins.range()];
        assert!(
            (to.port as usize) < dst_ins.len(),
            "no input port {} on {} ({})",
            to.port,
            to.node,
            &self.labels[dst.label.range()]
        );
        assert!(
            matches!(dst_ins[to.port as usize], InKind::Wire),
            "input {} of {} is an immediate",
            to.port,
            to.node
        );
        let src = &self.heads[from.0 as usize];
        assert!(
            (from_port as u32) < src.ports.hi - src.ports.lo,
            "no output port {from_port} on {from} ({})",
            &self.labels[src.label.range()]
        );
        self.edges.push((src.ports.lo + from_port as u32, to));
        #[cfg(test)]
        self.reference.connect(from, from_port, to);
    }

    /// Converts a (still unwired) input port into an immediate. Used when a
    /// node must be created before its operand sources are known (e.g. a
    /// loop's backedge changeTags, created before the body is lowered).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_imm(&mut self, node: NodeId, port: u16, value: Value) {
        let ins = &mut self.ins[self.heads[node.0 as usize].ins.range()];
        assert!((port as usize) < ins.len(), "no input port {port} on {node}");
        ins[port as usize] = InKind::Imm(value);
        #[cfg(test)]
        self.reference.set_imm(node, port, value);
    }

    /// Number of nodes so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Finalizes the graph. `n_returns` is the number of program outputs
    /// (the first `n_returns` sink inputs).
    ///
    /// # Panics
    ///
    /// Panics if `source`/`sink` do not refer to Source/Sink nodes, or the
    /// sink has fewer than `n_returns` inputs.
    pub fn finish(self, source: NodeId, sink: NodeId, n_returns: usize) -> Dfg {
        assert!(matches!(self.heads[source.0 as usize].kind, NodeKind::Source));
        let sink_head = &self.heads[sink.0 as usize];
        assert!(matches!(sink_head.kind, NodeKind::Sink));
        assert!(sink_head.ins.range().len() >= n_returns);
        // Count each port's targets, turn the counts into row starts, then
        // place every edge at its row's cursor. Placing in `connect` order
        // keeps each port's targets in the order they were wired; each
        // cursor ends at the next row's start, so shifting the array by one
        // slot turns the cursors back into offsets.
        let mut port_off = vec![0u32; self.n_ports as usize + 1];
        for &(p, _) in &self.edges {
            port_off[p as usize + 1] += 1;
        }
        for p in 1..port_off.len() {
            port_off[p] += port_off[p - 1];
        }
        let mut targets = vec![PortRef { node: NodeId(0), port: 0 }; self.edges.len()];
        for &(p, to) in &self.edges {
            let at = &mut port_off[p as usize];
            targets[*at as usize] = to;
            *at += 1;
        }
        port_off.copy_within(..self.n_ports as usize, 1);
        port_off[0] = 0;
        let dfg = Dfg {
            heads: self.heads,
            ins: self.ins,
            port_off,
            targets,
            labels: self.labels,
            blocks: self.blocks,
            source,
            sink,
            n_returns,
        };
        #[cfg(test)]
        if let Err(e) = crate::reference::diff(&dfg, &self.reference.nodes) {
            panic!("the flat graph differs from the nested reference: {e}");
        }
        dfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_encoding_round_trips() {
        for (n, p) in [(0u32, 0u16), (1, 2), (65_535, 7), (1_000_000, 3)] {
            let r = PortRef { node: NodeId(n), port: p };
            assert_eq!(PortRef::decode(r.encode()), r);
        }
    }

    #[test]
    fn alloc_reserve() {
        assert_eq!(AllocKind::External.reserve(), 1);
        assert_eq!(AllocKind::Tail.reserve(), 0);
        assert_eq!(AllocKind::Call.reserve(), 0);
    }

    #[test]
    fn builder_wires_ports() {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let add = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Wire, InKind::Imm(5)],
            1,
            "add",
        );
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: add, port: 0 });
        g.connect(add, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 0);
        assert_eq!(dfg.len(), 3);
        assert_eq!(dfg.node(src).targets(0), [PortRef { node: add, port: 0 }]);
        assert_eq!(dfg.max_wired_inputs(), 1);
        assert_eq!(dfg.block_by_name("main"), Some(ROOT_BLOCK));
        assert_eq!(dfg.block_by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "is an immediate")]
    fn connect_to_immediate_panics() {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let add = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Wire, InKind::Imm(5)],
            1,
            "add",
        );
        g.connect(src, 0, PortRef { node: add, port: 1 });
    }

    #[test]
    fn edges_enumerates_every_static_wire() {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 2, "src");
        let add =
            g.add_node(NodeKind::Alu(AluOp::Add), root, vec![InKind::Wire, InKind::Wire], 1, "add");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: add, port: 0 });
        g.connect(src, 1, PortRef { node: add, port: 1 });
        g.connect(add, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);
        let edges: Vec<Edge> = dfg.edges().collect();
        assert_eq!(
            edges,
            vec![
                Edge { from: src, from_port: 0, to: add, to_port: 0 },
                Edge { from: src, from_port: 1, to: add, to_port: 1 },
                Edge { from: add, from_port: 0, to: sink, to_port: 0 },
            ]
        );
    }

    /// A source fanning out to two consumers through one port, then a
    /// second port: the graph the placement tests edit.
    fn fan_out() -> (GraphBuilder, NodeId, NodeId) {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, [], 2, "src");
        let a = g.add_node(NodeKind::Alu(AluOp::Mov), root, [InKind::Wire], 1, "a");
        let b = g.add_node(NodeKind::Alu(AluOp::Mov), root, [InKind::Wire], 1, "b");
        let sink = g.add_node(NodeKind::Sink, root, [InKind::Wire; 3], 0, "sink");
        g.connect(src, 0, PortRef { node: b, port: 0 });
        g.connect(a, 0, PortRef { node: sink, port: 0 });
        g.connect(src, 0, PortRef { node: a, port: 0 });
        g.connect(b, 0, PortRef { node: sink, port: 1 });
        g.connect(src, 1, PortRef { node: sink, port: 2 });
        (g, src, sink)
    }

    #[test]
    fn finish_keeps_each_ports_targets_in_connect_order() {
        let (g, src, sink) = fan_out();
        let dfg = g.finish(src, sink, 3);
        assert_eq!(
            dfg.node(src).targets(0),
            [PortRef { node: NodeId(2), port: 0 }, PortRef { node: NodeId(1), port: 0 }]
        );
        assert_eq!(dfg.node(src).targets(1), [PortRef { node: sink, port: 2 }]);
        assert!(dfg.node(sink).outs().is_empty());
        assert_eq!(dfg.node(sink).label(), "sink");
    }

    #[test]
    fn the_reference_catches_two_swapped_targets() {
        let (g, src, sink) = fan_out();
        let nested = g.reference.nodes.clone();
        let mut dfg = g.finish(src, sink, 3);
        assert_eq!(crate::reference::diff(&dfg, &nested), Ok(()));
        dfg.targets.swap(0, 1);
        let err = crate::reference::diff(&dfg, &nested).unwrap_err();
        assert!(err.starts_with("n0:"), "{err}");
    }

    #[test]
    fn raw_edits_match_the_same_edits_on_the_nested_reference() {
        let (g, src, sink) = fan_out();
        let mut nested = g.reference.nodes.clone();
        let mut dfg = g.finish(src, sink, 3);
        // A port on the sink (which has none), two targets on it, an extra
        // target on a middle port, a new node wired to a missing one, and a
        // changed opcode.
        assert_eq!(dfg.push_port(sink), 0);
        nested[3].outs.push(Vec::new());
        for t in [PortRef { node: NodeId(1), port: 9 }, PortRef { node: NodeId(77), port: 0 }] {
            dfg.push_target(sink, 0, t);
            nested[3].outs[0].push(t);
        }
        dfg.push_target(src, 0, PortRef { node: sink, port: 0 });
        nested[0].outs[0].push(PortRef { node: sink, port: 0 });
        let n = dfg.push_node(NodeKind::Join, ROOT_BLOCK, &[InKind::Wire; 2], 1, "raw");
        dfg.push_target(n, 0, PortRef { node: NodeId(5), port: 0 });
        nested.push(crate::reference::Node {
            kind: NodeKind::Join,
            block: ROOT_BLOCK,
            ins: vec![InKind::Wire; 2],
            outs: vec![vec![PortRef { node: NodeId(5), port: 0 }]],
            label: "raw".into(),
        });
        assert_eq!(dfg.push_port(NodeId(1)), 1);
        nested[1].outs.push(Vec::new());
        dfg.set_kind(NodeId(2), NodeKind::Alu(AluOp::Neg));
        nested[2].kind = NodeKind::Alu(AluOp::Neg);
        assert_eq!(crate::reference::diff(&dfg, &nested), Ok(()));
        assert!(dfg.check().unwrap_err().contains("missing port"));
    }

    #[test]
    fn dot_export_mentions_blocks_and_edges() {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: sink, port: 0 });
        let dot = g.finish(src, sink, 0).to_dot();
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("source"));
    }
}

#[cfg(test)]
mod check_tests {
    use super::*;
    use crate::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;

    fn nested_program() -> tyr_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, nn] = f.begin_loop("outer", [0.into(), 0.into(), n]);
        let c = f.lt(i, nn);
        f.begin_body(c);
        let [j, ia, ii] = f.begin_loop("inner", [0.into(), acc, i]);
        let cj = f.lt(j, ii);
        f.begin_body(cj);
        let ia2 = f.add(ia, 1);
        let j2 = f.add(j, 1);
        let [out] = f.end_loop([j2, ia2, ii], [ia]);
        let i2 = f.add(i, 1);
        let [total] = f.end_loop([i2, out, nn], [acc]);
        pb.finish(f, [total])
    }

    #[test]
    fn lowered_graphs_pass_check() {
        let p = nested_program();
        for d in [
            TaggingDiscipline::Tyr,
            TaggingDiscipline::UnorderedBounded,
            TaggingDiscipline::UnorderedUnbounded,
        ] {
            lower_tagged(&p, d).unwrap().check().unwrap();
        }
        lower_ordered(&p).unwrap().check().unwrap();
    }

    #[test]
    fn check_rejects_nodes_without_wired_inputs() {
        let mut g = GraphBuilder::new();
        let b = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, b, vec![], 1, "src");
        let orphan = g.add_node(
            NodeKind::Alu(tyr_ir::AluOp::Add),
            b,
            vec![InKind::Imm(1), InKind::Imm(2)],
            1,
            "orphan",
        );
        let sink = g.add_node(NodeKind::Sink, b, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: sink, port: 0 });
        let _ = orphan;
        let dfg = g.finish(src, sink, 1);
        let err = dfg.check().unwrap_err();
        assert!(err.contains("no wired inputs"), "{err}");
    }

    #[test]
    fn check_rejects_edge_into_immediate() {
        let mut g = GraphBuilder::new();
        let b = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, b, vec![], 1, "src");
        let add = g.add_node(
            NodeKind::Alu(tyr_ir::AluOp::Add),
            b,
            vec![InKind::Wire, InKind::Wire],
            1,
            "add",
        );
        let sink = g.add_node(NodeKind::Sink, b, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: add, port: 0 });
        g.connect(src, 0, PortRef { node: add, port: 1 });
        g.connect(add, 0, PortRef { node: sink, port: 0 });
        // set_imm after wiring leaves a dangling edge into an immediate.
        g.set_imm(add, 1, 5);
        let dfg = g.finish(src, sink, 1);
        let err = dfg.check().unwrap_err();
        assert!(err.contains("immediate input"), "{err}");
    }

    #[test]
    fn check_rejects_unfreed_space() {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let child = g.add_block("loop", Some(root), true);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let al = g.add_node(
            NodeKind::Allocate { space: child, kind: AllocKind::Call },
            root,
            vec![InKind::Wire, InKind::Wire],
            2,
            "al",
        );
        // A free for a DIFFERENT space makes the graph "barrier mode".
        let fr = g.add_node(NodeKind::Free { space: root }, root, vec![InKind::Wire], 0, "fr");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: al, port: 0 });
        g.connect(src, 0, PortRef { node: al, port: 1 });
        g.connect(al, 0, PortRef { node: sink, port: 0 });
        g.connect(al, 1, PortRef { node: fr, port: 0 });
        let dfg = g.finish(src, sink, 1);
        let err = dfg.check().unwrap_err();
        assert!(err.contains("never freed"), "{err}");
    }
}
