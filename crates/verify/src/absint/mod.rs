//! A generic monotone framework for abstract interpretation over lowered
//! dataflow graphs.
//!
//! Every deep static pass in this crate needs the same machinery: an
//! efficient *reverse* view of the graph's edges (the `Dfg` stores edges
//! forward, producer → consumer, so "who feeds this input port?" is an
//! O(nodes × edges) scan without one), and a fixpoint loop that propagates
//! abstract values until nothing changes. This module provides both, once:
//!
//! * [`EdgeMaps`] — precomputed forward/backward adjacency plus a per-input-
//!   port producer list, as flat compressed [`Rows`], with the dynamically
//!   routed `changeTag.dyn` edges synthesized in (see [`crate::passes`]).
//!   The batteries in the crate root build one per call and share it
//!   between their passes;
//! * [`Lattice`] — the join-semilattice contract an abstract domain must
//!   satisfy;
//! * [`Analysis`] — per-node transfer functions keyed on
//!   [`NodeKind`], with hooks for immediates, per-output
//!   refinement (the `Source` node carries one program argument per port),
//!   and widening;
//! * [`fixpoint`] — the worklist engine: monotone joins per node, widening
//!   after a bounded number of updates so infinite-height domains (strided
//!   intervals, path lengths) still terminate.
//!
//! Clients: the index-set analysis ([`indexset`]) behind the sharpened race
//! pass, the ordered-channel occupancy analysis ([`occupancy`]) behind the
//! `O…` diagnostics, the working-set footprint analysis ([`footprint`])
//! behind the `W…` locality bounds, and the race pass itself
//! ([`check_races`](crate::passes::check_races)), whose segment-mask
//! propagation is the pointer component of the index-set domain.

pub mod footprint;
pub mod indexset;
pub mod occupancy;
pub mod si;

use std::collections::VecDeque;

use tyr_dfg::{Dfg, Edge, InKind, NodeId, NodeKind};
use tyr_ir::Value;

use crate::passes::dyn_targets;

/// A join-semilattice: the value domain of an [`Analysis`].
///
/// `bottom` is the least element (no information / unreachable);
/// [`join_from`](Lattice::join_from) computes the least upper bound in
/// place. The framework only ever moves values *up* the lattice, so
/// `join_from` returning `false` (no change) is what drives termination.
pub trait Lattice: Clone + PartialEq {
    /// The least element.
    fn bottom() -> Self;

    /// Joins `other` into `self`; returns whether `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;
}

/// Compressed rows: row `i` is the slice `ids[off[i]..off[i + 1]]`, so a
/// whole family of small lists lives in two allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows<T> {
    off: Vec<u32>,
    ids: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// Empty rows of the lengths in `counts` (`counts[r + 1]` entries in
    /// row `r`, `counts[0] == 0`), padded with `fill`; `next` holds each
    /// row's first free slot for [`place`](Self::place).
    fn with_counts(mut counts: Vec<u32>, fill: T) -> (Self, Vec<u32>) {
        for r in 1..counts.len() {
            counts[r] += counts[r - 1];
        }
        let next = counts.clone();
        let ids = vec![fill; counts[counts.len() - 1] as usize];
        (Rows { off: counts, ids }, next)
    }

    /// Appends `item` to row `row`, after the entries placed there before.
    fn place(&mut self, next: &mut [u32], row: usize, item: T) {
        self.ids[next[row] as usize] = item;
        next[row] += 1;
    }
}

impl<T> Rows<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::ops::Index<usize> for Rows<T> {
    type Output = [T];

    fn index(&self, row: usize) -> &[T] {
        &self.ids[self.off[row] as usize..self.off[row + 1] as usize]
    }
}

/// Precomputed edge views over a [`Dfg`], shared by every pass.
///
/// Built once per public verify call in O(edges), as flat compressed rows;
/// all lookups are O(1) per edge thereafter. This is what fixed the race
/// pass's former O(nodes × edges)-per-query input scan.
///
/// Row order is part of the contract: `succs[n]` lists `n`'s static
/// targets in [`Dfg::edges`] order, then its synthesized `changeTag.dyn`
/// targets, first occurrence kept. It is the fixpoint's worklist order, so
/// it decides where widening lands. `preds[m]` lists every node with a
/// static edge into `m` in ascending order, then every node whose only
/// edges into `m` are dynamic, in ascending order — the order in which a
/// walk over the static edges and then the dynamic ones first meets them.
pub struct EdgeMaps {
    /// `succs[n]` = nodes receiving tokens from node `n`, deduplicated,
    /// including synthesized `changeTag.dyn` routing edges.
    pub succs: Rows<NodeId>,
    /// `preds[n]` = nodes feeding node `n`, deduplicated, including
    /// synthesized `changeTag.dyn` routing edges.
    pub preds: Rows<NodeId>,
    /// Per node: where its dynamic targets start in `succs`' id array.
    dyn_start: Vec<u32>,
    /// Per node: the flat index of its input port 0 (`n + 1` entries).
    port_base: Vec<u32>,
    /// Per flat input port: every `(producer, out_port)` wired into it.
    producers: Rows<(NodeId, u16)>,
}

impl EdgeMaps {
    /// Builds the edge maps for `dfg`.
    ///
    /// Edges into nonexistent nodes or ports (structural errors reported by
    /// [`check_structure`](crate::passes::check_structure)) are silently
    /// dropped so downstream passes stay total on malformed graphs: a
    /// missing node drops the edge entirely, a missing port only drops it
    /// from the producer lists (the target node still counts for
    /// reachability).
    pub fn new(dfg: &Dfg) -> Self {
        let n = dfg.len();
        let mut port_base = vec![0u32; n + 1];
        for (ni, node) in dfg.nodes().enumerate() {
            port_base[ni + 1] = port_base[ni] + node.ins().len() as u32;
        }

        // Successors, row by row: a node's static targets, then its dynamic
        // ones, each kept on first occurrence.
        let mut off = Vec::with_capacity(n + 1);
        off.push(0u32);
        let mut ids: Vec<NodeId> = Vec::new();
        let mut dyn_start = Vec::with_capacity(n);
        for (ni, node) in dfg.nodes().enumerate() {
            let row = ids.len();
            for t in node.outs().iter().flatten() {
                if (t.node.0 as usize) < n && !ids[row..].contains(&t.node) {
                    ids.push(t.node);
                }
            }
            dyn_start.push(ids.len() as u32);
            if matches!(node.kind(), NodeKind::ChangeTagDyn) {
                for t in dyn_targets(dfg, NodeId(ni as u32)) {
                    if !ids[row..].contains(&t.node) {
                        ids.push(t.node);
                    }
                }
            }
            off.push(ids.len() as u32);
        }
        let succs = Rows { off, ids };

        // Predecessors: every (from, to) pair sits once in `succs`. The
        // static pairs come first, ascending in `from`, then the dynamic ones.
        let mut counts = vec![0u32; n + 1];
        for t in &succs.ids {
            counts[t.0 as usize + 1] += 1;
        }
        let (mut preds, mut next) = Rows::with_counts(counts, NodeId(0));
        for dynamic in [false, true] {
            for (f, &split) in dyn_start.iter().enumerate() {
                let (start, end) = (succs.off[f], succs.off[f + 1]);
                let (lo, hi) = if dynamic { (split, end) } else { (start, split) };
                for t in &succs.ids[lo as usize..hi as usize] {
                    preds.place(&mut next, t.0 as usize, NodeId(f as u32));
                }
            }
        }

        // Producers, per flat input port, in edge order.
        let flat_port = |e: &Edge| {
            let to = e.to.0 as usize;
            let ports = dfg.get(e.to)?.ins().len();
            ((e.to_port as usize) < ports).then(|| port_base[to] as usize + e.to_port as usize)
        };
        let mut counts = vec![0u32; port_base[n] as usize + 1];
        for e in dfg.edges() {
            if let Some(i) = flat_port(&e) {
                counts[i + 1] += 1;
            }
        }
        let (mut producers, mut next) = Rows::with_counts(counts, (NodeId(0), 0));
        for e in dfg.edges() {
            if let Some(i) = flat_port(&e) {
                producers.place(&mut next, i, (e.from, e.from_port));
            }
        }
        EdgeMaps { succs, preds, dyn_start, port_base, producers }
    }

    /// Every `(producer, out_port)` wired into input `port` of `node`, in
    /// [`Dfg::edges`] order (static wires only; dynamic routing has no
    /// fixed target port). Empty for a port the node does not have.
    pub fn producers(&self, node: usize, port: usize) -> &[(NodeId, u16)] {
        let flat = self.port_base[node] as usize + port;
        if flat < self.port_base[node + 1] as usize {
            &self.producers[flat]
        } else {
            &[]
        }
    }

    /// The synthesized `changeTag.dyn` targets of `node` that no static
    /// edge already reaches: the tail of `succs[node]`.
    pub(crate) fn dyn_succs(&self, node: usize) -> &[NodeId] {
        &self.succs.ids[self.dyn_start[node] as usize..self.succs.off[node + 1] as usize]
    }
}

/// An abstract interpretation over a [`Dfg`]: a value domain plus transfer
/// functions.
///
/// The framework computes one abstract value per node (the value "on the
/// node's data outputs"); multi-output nodes whose ports carry different
/// values refine per port via [`output`](Analysis::output).
pub trait Analysis {
    /// The abstract value domain.
    type Value: Lattice;

    /// The abstract value for an immediate input.
    fn immediate(&self, dfg: &Dfg, node: usize, port: u16, value: Value) -> Self::Value;

    /// The transfer function of node `node`: computes its output value from
    /// its input values. `input(p)` is the join over every producer wired
    /// into input port `p` (or the lifted immediate).
    fn transfer(
        &self,
        dfg: &Dfg,
        node: usize,
        input: &mut dyn FnMut(u16) -> Self::Value,
    ) -> Self::Value;

    /// Refines the per-node value for one output port. The default returns
    /// the node value unchanged; the index-set analysis overrides this for
    /// `Source`, whose ports carry distinct program arguments.
    fn output(&self, _dfg: &Dfg, _node: usize, _port: u16, value: &Self::Value) -> Self::Value {
        value.clone()
    }

    /// Accelerates convergence on infinite-height domains: called instead of
    /// a plain join once a node's value has changed [`WIDEN_AFTER`] times.
    /// Must return an upper bound of both arguments that eventually
    /// stabilizes. The default (returning `new`) is only correct for
    /// finite-height domains.
    fn widen(&self, _old: &Self::Value, new: &Self::Value) -> Self::Value {
        new.clone()
    }
}

/// Number of per-node updates before [`Analysis::widen`] kicks in. Small
/// enough to bound work on deep loop nests, large enough to let short
/// constant chains resolve exactly first.
pub const WIDEN_AFTER: u32 = 4;

/// The abstract value arriving at input `port` of `node` under `values`
/// (typically a [`fixpoint`] result): the lifted immediate, or the join of
/// every wired producer's per-port [`output`](Analysis::output). This is
/// what the engine feeds transfer functions, exposed so passes can query
/// port values — e.g. the race pass reading access addresses — after the
/// fixpoint.
pub fn input_value<A: Analysis>(
    dfg: &Dfg,
    maps: &EdgeMaps,
    analysis: &A,
    values: &[A::Value],
    node: usize,
    port: u16,
) -> A::Value {
    match dfg.node(NodeId(node as u32)).ins().get(port as usize) {
        Some(InKind::Imm(v)) => analysis.immediate(dfg, node, port, *v),
        Some(InKind::Wire) => {
            let mut acc = A::Value::bottom();
            for &(p, q) in maps.producers(node, port as usize) {
                let pi = p.0 as usize;
                acc.join_from(&analysis.output(dfg, pi, q, &values[pi]));
            }
            acc
        }
        None => A::Value::bottom(),
    }
}

/// Runs `analysis` to fixpoint over `dfg` and returns the per-node values.
///
/// Standard worklist iteration: every node starts at bottom and is
/// re-evaluated whenever one of its producers changes; values only move up
/// the lattice (the new value is *joined* into the old, never assigned), so
/// with a correct [`widen`](Analysis::widen) the loop terminates on any
/// graph, cyclic or not.
pub fn fixpoint<A: Analysis>(dfg: &Dfg, maps: &EdgeMaps, analysis: &A) -> Vec<A::Value> {
    let n = dfg.len();
    let mut values: Vec<A::Value> = vec![A::Value::bottom(); n];
    let mut updates: Vec<u32> = vec![0; n];
    let mut queued = vec![true; n];
    let mut work: VecDeque<usize> = (0..n).collect();
    while let Some(ni) = work.pop_front() {
        queued[ni] = false;
        let computed = {
            let values = &values;
            let mut input =
                |port: u16| -> A::Value { input_value(dfg, maps, analysis, values, ni, port) };
            analysis.transfer(dfg, ni, &mut input)
        };
        let next = if updates[ni] >= WIDEN_AFTER {
            analysis.widen(&values[ni], &computed)
        } else {
            computed
        };
        if values[ni].join_from(&next) {
            updates[ni] += 1;
            for &s in &maps.succs[ni] {
                let si = s.0 as usize;
                if !queued[si] {
                    queued[si] = true;
                    work.push_back(si);
                }
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, PortRef};
    use tyr_ir::AluOp;

    /// Reachability-from-source as a trivial boolean analysis.
    struct Reachable;

    impl Lattice for bool {
        fn bottom() -> Self {
            false
        }
        fn join_from(&mut self, other: &Self) -> bool {
            let changed = !*self && *other;
            *self = *self || *other;
            changed
        }
    }

    impl Analysis for Reachable {
        type Value = bool;
        fn immediate(&self, _: &Dfg, _: usize, _: u16, _: Value) -> bool {
            false
        }
        fn transfer(&self, dfg: &Dfg, node: usize, input: &mut dyn FnMut(u16) -> bool) -> bool {
            if matches!(dfg.node(NodeId(node as u32)).kind(), NodeKind::Source) {
                return true;
            }
            (0..dfg.node(NodeId(node as u32)).ins().len()).any(|p| input(p as u16))
        }
    }

    fn diamond() -> Dfg {
        // source → (a, b) → join → sink, plus one orphan.
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 2, "src");
        let a = g.add_node(NodeKind::Alu(AluOp::Mov), root, vec![InKind::Wire], 1, "a");
        let b = g.add_node(NodeKind::Alu(AluOp::Mov), root, vec![InKind::Wire], 1, "b");
        let j = g.add_node(NodeKind::Join, root, vec![InKind::Wire, InKind::Wire], 1, "j");
        let orphan = g.add_node(NodeKind::Alu(AluOp::Mov), root, vec![InKind::Wire], 1, "orphan");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: a, port: 0 });
        g.connect(src, 1, PortRef { node: b, port: 0 });
        g.connect(a, 0, PortRef { node: j, port: 0 });
        g.connect(b, 0, PortRef { node: j, port: 1 });
        g.connect(j, 0, PortRef { node: sink, port: 0 });
        g.connect(orphan, 0, PortRef { node: orphan, port: 0 }); // self-loop
        g.finish(src, sink, 1)
    }

    #[test]
    fn edge_maps_invert_the_graph() {
        let dfg = diamond();
        let maps = EdgeMaps::new(&dfg);
        // join's two input ports each have exactly one producer.
        assert_eq!(maps.producers(3, 0), [(NodeId(1), 0)]);
        assert_eq!(maps.producers(3, 1), [(NodeId(2), 0)]);
        assert!(maps.producers(3, 2).is_empty(), "join has no third port");
        // source's successors are a and b.
        assert_eq!(&maps.succs[0], [NodeId(1), NodeId(2)]);
        // join's preds are a and b.
        assert_eq!(&maps.preds[3], [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn edge_maps_drop_broken_edges() {
        let mut dfg = diamond();
        dfg.push_target(NodeId(0), 0, PortRef { node: NodeId(999), port: 0 });
        dfg.push_target(NodeId(0), 0, PortRef { node: NodeId(3), port: 999 });
        let maps = EdgeMaps::new(&dfg);
        assert!((0..2).flat_map(|p| maps.producers(3, p)).all(|&(p, _)| p.0 < dfg.len() as u32));
        // The missing-node edge vanishes entirely; the missing-port edge
        // still counts for reachability (its target node exists) but feeds
        // no producer list. Successor order follows out-port order, so the
        // bad-port edge to n3 lands between the two real ones.
        assert_eq!(&maps.succs[0], [NodeId(1), NodeId(3), NodeId(2)]);
    }

    /// The nested-`Vec` builder the compressed rows replaced, kept as the
    /// reference they must reproduce row for row, in order.
    struct NestedMaps {
        producers: Vec<Vec<Vec<(NodeId, u16)>>>,
        succs: Vec<Vec<NodeId>>,
        preds: Vec<Vec<NodeId>>,
    }

    fn nested_maps(dfg: &Dfg) -> NestedMaps {
        let n = dfg.len();
        let mut producers: Vec<Vec<Vec<(NodeId, u16)>>> =
            dfg.nodes().map(|node| vec![Vec::new(); node.ins().len()]).collect();
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut add_adj = |from: NodeId, to: NodeId| {
            if (from.0 as usize) < n && (to.0 as usize) < n {
                let s = &mut succs[from.0 as usize];
                if s.last() != Some(&to) && !s.contains(&to) {
                    s.push(to);
                }
                let p = &mut preds[to.0 as usize];
                if p.last() != Some(&from) && !p.contains(&from) {
                    p.push(from);
                }
            }
        };
        for e in dfg.edges() {
            add_adj(e.from, e.to);
            if let Some(ports) = producers.get_mut(e.to.0 as usize) {
                if let Some(list) = ports.get_mut(e.to_port as usize) {
                    list.push((e.from, e.from_port));
                }
            }
        }
        for (ni, node) in dfg.nodes().enumerate() {
            if matches!(node.kind(), NodeKind::ChangeTagDyn) {
                for t in dyn_targets(dfg, NodeId(ni as u32)) {
                    add_adj(NodeId(ni as u32), t.node);
                }
            }
        }
        NestedMaps { producers, succs, preds }
    }

    fn assert_matches_reference(what: &str, dfg: &Dfg) {
        let maps = EdgeMaps::new(dfg);
        let want = nested_maps(dfg);
        assert_eq!(maps.succs.len(), dfg.len(), "{what}");
        assert_eq!(maps.preds.len(), dfg.len(), "{what}");
        for (ni, node) in dfg.nodes().enumerate() {
            assert_eq!(&maps.succs[ni], want.succs[ni], "{what}: succs[{ni}]");
            assert_eq!(&maps.preds[ni], want.preds[ni], "{what}: preds[{ni}]");
            for (p, list) in want.producers[ni].iter().enumerate() {
                assert_eq!(maps.producers(ni, p), list, "{what}: producers({ni}, {p})");
            }
            assert!(
                maps.producers(ni, node.ins().len()).is_empty(),
                "{what}: n{ni} past its ports"
            );
            let dynamic = &want.succs[ni][maps.succs[ni].len() - maps.dyn_succs(ni).len()..];
            assert_eq!(maps.dyn_succs(ni), dynamic, "{what}: dyn_succs({ni})");
        }
    }

    /// A helper called from inside a loop and once after it: the returns
    /// are routed by `changeTag.dyn`, so the maps carry synthesized edges.
    fn call_program() -> tyr_ir::Program {
        use tyr_ir::build::ProgramBuilder;
        use tyr_ir::Operand;
        let mut pb = ProgramBuilder::new();
        let mut h = pb.func("helper", 2);
        let (a, b) = (h.param(0), h.param(1));
        let r = h.add(a, b);
        let hid = h.id();
        pb.define(h, [r]);
        let mut f = pb.func("main", 1);
        let n = f.param(0);
        let [i, acc, m] = f.begin_loop("l", [Operand::Const(0), Operand::Const(0), n]);
        let c = f.lt(i, m);
        f.begin_body(c);
        let r = f.call(hid, &[acc, i], 1);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, r[0], m], [acc]);
        let r2 = f.call(hid, &[out, n], 1);
        pb.finish(f, [r2[0]])
    }

    /// Every graph the batteries see in practice: 200 generated programs,
    /// the tiny suite and a calling program, each under the TYR,
    /// unordered-unbounded and ordered lowerings.
    fn corpus() -> Vec<(String, Dfg)> {
        use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
        use tyr_workloads::gen::Recipe;
        let mut programs: Vec<(String, tyr_ir::Program)> = (0..200)
            .map(|s| (format!("recipe{s}"), Recipe::generate(s, 16).materialize().program))
            .collect();
        programs.extend(
            tyr_workloads::suite(tyr_workloads::Scale::Tiny, 5)
                .into_iter()
                .map(|w| (w.name, w.program)),
        );
        programs.push(("call".into(), call_program()));
        let mut out = Vec::new();
        for (name, program) in &programs {
            for (label, d) in [
                ("tyr", TaggingDiscipline::Tyr),
                ("unordered", TaggingDiscipline::UnorderedUnbounded),
            ] {
                out.push((format!("{name}/{label}"), lower_tagged(program, d).unwrap()));
            }
            out.push((format!("{name}/ordered"), lower_ordered(program).unwrap()));
        }
        assert!(
            out.iter().any(|(_, g)| g.nodes().any(|n| matches!(n.kind(), NodeKind::ChangeTagDyn))),
            "the corpus must exercise synthesized edges"
        );
        out
    }

    /// Broken copies of `dfg`, each mutated at a few nodes: an edge to a
    /// missing node, an edge to a missing port, a duplicated edge, a
    /// self-loop, all four at once, and static edges beside the dynamic
    /// ones.
    fn mutations(dfg: &Dfg) -> Vec<(&'static str, Dfg)> {
        let n = dfg.len();
        let mut sites = vec![0, n / 2, n - 1];
        sites.dedup();
        let edit = |g: &mut Dfg, kind: usize, k: usize| {
            let id = NodeId(k as u32);
            if g.node(id).outs().is_empty() {
                g.push_port(id);
            }
            let extra = match kind {
                0 => PortRef { node: NodeId(n as u32 + 7), port: 0 },
                1 => PortRef { node: NodeId(((k + 1) % n) as u32), port: 999 },
                2 => match g.node(id).outs().iter().flatten().next() {
                    Some(&t) => t,
                    None => return,
                },
                _ => PortRef { node: id, port: 0 },
            };
            let q = k % g.node(id).outs().len();
            g.push_target(id, q as u16, extra);
        };
        let names = ["missing-node", "missing-port", "duplicate", "self-loop"];
        let mut out: Vec<(&'static str, Dfg)> = names
            .iter()
            .enumerate()
            .map(|(kind, &name)| {
                let mut g = dfg.clone();
                sites.iter().for_each(|&k| edit(&mut g, kind, k));
                (name, g)
            })
            .collect();
        let mut all = dfg.clone();
        for kind in 0..names.len() {
            sites.iter().for_each(|&k| edit(&mut all, kind, k));
        }
        out.push(("all", all));
        // A static edge from the last node into every dynamic target, so a
        // target's predecessors mix static and dynamic sources with the
        // static one numbered higher: their order is then observable.
        let mut mixed = dfg.clone();
        let last = NodeId(n as u32 - 1);
        if mixed.node(last).outs().is_empty() {
            mixed.push_port(last);
        }
        for (ni, node) in dfg.nodes().enumerate() {
            if matches!(node.kind(), NodeKind::ChangeTagDyn) {
                for t in dyn_targets(dfg, NodeId(ni as u32)) {
                    mixed.push_target(last, 0, t);
                }
            }
        }
        out.push(("static-beside-dynamic", mixed));
        out
    }

    #[test]
    fn edge_maps_match_the_nested_reference() {
        for (name, dfg) in corpus() {
            assert_matches_reference(&name, &dfg);
            for (what, broken) in mutations(&dfg) {
                assert_matches_reference(&format!("{name} ({what})"), &broken);
            }
        }
    }

    #[test]
    fn fixpoint_propagates_through_cycles_and_misses_orphans() {
        let dfg = diamond();
        let maps = EdgeMaps::new(&dfg);
        let reach = fixpoint(&dfg, &maps, &Reachable);
        assert_eq!(reach, vec![true, true, true, true, false, true]);
    }
}
