//! Ordered-channel occupancy: static FIFO-depth obligations for the
//! ordered (RipTide-style) engine, and the `O…` diagnostics.
//!
//! The ordered engine gives every edge a bounded FIFO and applies back
//! pressure: a node fires only when all wired inputs have a token *and*
//! every output FIFO has space. That rule has a static shadow, the way the
//! tagged engine's tag pools have the `T…` passes:
//!
//! * **Minimum capacity** ([`ChannelDepths::min`]). A *live* edge — one
//!   whose producer a source token can reach — needs capacity ≥ 1: at
//!   capacity 0 the producer's space check (`len < 0`) can never pass, the
//!   producer is wedged forever, and (because barrier coverage guarantees
//!   every node transitively feeds the sink) the graph deadlocks. A primed
//!   `CMerge`'s control port additionally needs room for its `initial_ctl`
//!   preload. Below-minimum capacity is [`Code::ChannelBelowMinimum`]
//!   (O001, error) — a *guaranteed* stall cycle, cross-validated against
//!   the engine's back-pressure deadlock detector in `repro verify`.
//!
//! * **Recommended capacity** ([`ChannelDepths::recommended`]), from
//!   *reconvergent-path imbalance*: when two paths from a common producer
//!   reconverge, the shorter path's tokens wait for the longer path's, and
//!   the wait is the difference of the paths' pipeline depths — computed
//!   here as a longest-path analysis on the monotone framework (cyclic
//!   regions widen to unbounded and claim nothing). A configuration at the
//!   bare minimum is *safe* — progress is guaranteed, one token at a time —
//!   but has zero slack; that is [`Code::ChannelAtMinimum`] (O002, note,
//!   aggregated per graph).
//!
//! * **Data-dependent cycles**. For a loop whose trip count the graph
//!   decides from *loaded* data (the sparse kernels' inner loops), the
//!   static analysis cannot bound how long the zero-slack regime lasts or
//!   prove the schedule fair under memory latency; a zero-slack
//!   configuration of such a cycle is flagged [`Code::DataDependentCycle`]
//!   (O003, warning — may deadlock, not proven).
//!
//! [`check_channel_capacity`] evaluates all three against a concrete
//! [`ChannelCapacity`], mirroring how `check_tag_policy` evaluates the tag
//! passes against a concrete `TagPolicy`.

use tyr_dfg::{Dfg, InKind, NodeId, NodeKind};
use tyr_ir::Value;
use tyr_sim::ordered::ChannelCapacity;

use crate::absint::{fixpoint, Analysis, EdgeMaps, Lattice, Rows};
use crate::diag::{Code, Diagnostic};
use crate::passes::reach;

/// Pipeline depth from the source: the value domain of the level analysis.
///
/// Ordered as `Bottom < Depth(0) < Depth(1) < … < Unbounded`; join is max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No token can arrive here.
    Bottom,
    /// Longest acyclic path from the source, in node firings.
    Depth(u32),
    /// On a cycle (or past the widening bound): no finite depth.
    Unbounded,
}

impl Lattice for Level {
    fn bottom() -> Self {
        Level::Bottom
    }

    fn join_from(&mut self, other: &Self) -> bool {
        if other > self {
            *self = *other;
            true
        } else {
            false
        }
    }
}

/// Longest-path-from-source as an [`Analysis`]: node level = 1 + max over
/// wired input levels. Cycles would climb forever; widening sends them to
/// [`Level::Unbounded`], which is exactly the right answer — a cyclic
/// region has no static path imbalance to speak of.
struct Levels;

impl Analysis for Levels {
    type Value = Level;

    fn immediate(&self, _dfg: &Dfg, _node: usize, _port: u16, _value: Value) -> Level {
        // Immediates are baked into the instruction; they add no pipeline
        // depth and never gate firing.
        Level::Bottom
    }

    fn transfer(&self, dfg: &Dfg, node: usize, input: &mut dyn FnMut(u16) -> Level) -> Level {
        let n = dfg.node(NodeId(node as u32));
        if matches!(n.kind(), NodeKind::Source) {
            return Level::Depth(0);
        }
        let mut acc = Level::Bottom;
        for (p, kind) in n.ins().iter().enumerate() {
            if matches!(kind, InKind::Wire) {
                acc.join_from(&input(p as u16));
            }
        }
        match acc {
            Level::Bottom => Level::Bottom,
            Level::Depth(d) => Level::Depth(d.saturating_add(1)),
            Level::Unbounded => Level::Unbounded,
        }
    }

    fn widen(&self, old: &Level, new: &Level) -> Level {
        if new > old {
            Level::Unbounded
        } else {
            *new
        }
    }
}

/// The static per-edge depth obligations of one graph.
#[derive(Debug)]
pub struct ChannelDepths {
    /// `min[node][port]` — the minimum FIFO capacity the edge bundle into
    /// that port needs for the graph to make progress; 0 for ports no live
    /// producer feeds (unconstrained).
    pub min: Vec<Vec<usize>>,
    /// `recommended[node][port]` — capacity for stall-free flow through
    /// reconvergent paths: `min + (path imbalance at this node)`. Equals
    /// `min` where no finite imbalance is known.
    pub recommended: Vec<Vec<usize>>,
    /// Whether a source token can reach each node (including dynamic
    /// `changeTag.dyn` routes).
    pub live: Vec<bool>,
    /// The graph's nontrivial strongly connected components (its loops).
    pub cycles: Vec<Vec<NodeId>>,
    /// Per cycle: whether its trip count is data-dependent — a `Load` sits
    /// in the backward slice of the loop head's control input, so no static
    /// bound on iterations exists.
    pub data_dependent: Vec<bool>,
}

/// Computes the per-edge depth obligations.
pub fn analyze_channel_depths(dfg: &Dfg, maps: &EdgeMaps) -> ChannelDepths {
    let n = dfg.len();
    let live = reach(&maps.succs, [dfg.source]);
    let levels = fixpoint(dfg, maps, &Levels);

    // Per input port: does a live producer feed it, and at what level?
    let port_info = |ni: usize, p: usize| -> (bool, Level) {
        let mut fed = false;
        let mut lvl = Level::Bottom;
        for &(prod, _) in maps.producers(ni, p) {
            if live[prod.0 as usize] {
                fed = true;
                lvl.join_from(&levels[prod.0 as usize]);
            }
        }
        (fed, lvl)
    };

    let mut min = Vec::with_capacity(n);
    let mut recommended = Vec::with_capacity(n);
    for (ni, node) in dfg.nodes().enumerate() {
        let ports = node.ins().len();
        let mut m = vec![0usize; ports];
        let mut r = vec![0usize; ports];
        // The deepest live input level, for imbalance.
        let mut deepest = Level::Bottom;
        for (p, mp) in m.iter_mut().enumerate() {
            let (fed, lvl) = port_info(ni, p);
            if fed {
                deepest.join_from(&lvl);
                *mp = match node.kind() {
                    // The primed control tokens must fit alongside flow.
                    NodeKind::CMerge { initial_ctl } if p == 0 => initial_ctl.len().max(1),
                    _ => 1,
                };
            }
        }
        for p in 0..ports {
            if m[p] == 0 {
                continue;
            }
            let (_, lvl) = port_info(ni, p);
            r[p] = match (lvl, deepest) {
                (Level::Depth(mine), Level::Depth(max)) => m[p] + (max - mine) as usize,
                _ => m[p],
            };
        }
        min.push(m);
        recommended.push(r);
    }

    let cycles = nontrivial_sccs(&maps.succs, &maps.preds);
    let data_dependent = cycles
        .iter()
        .map(|cycle| {
            // The loop head is the primed CMerge (a plain Steer for
            // degenerate cycles); its control input's backward slice is the
            // trip-count decider.
            let head = cycle
                .iter()
                .find(|&&c| {
                    matches!(dfg.node(c).kind(),
                             NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty())
                })
                .or_else(|| cycle.iter().find(|&&c| matches!(dfg.node(c).kind(), NodeKind::Steer)));
            let Some(&head) = head else { return false };
            let deciders = maps.producers(head.0 as usize, 0).iter().map(|&(p, _)| p);
            let slice = reach(&maps.preds, deciders);
            slice.iter().enumerate().any(|(i, &in_slice)| {
                in_slice && matches!(dfg.node(NodeId(i as u32)).kind(), NodeKind::Load)
            })
        })
        .collect();

    ChannelDepths { min, recommended, live, cycles, data_dependent }
}

/// Checks a concrete per-edge capacity configuration against the static
/// obligations; the ordered analogue of `check_tag_policy`.
pub fn check_channel_capacity(dfg: &Dfg, caps: &ChannelCapacity) -> Vec<Diagnostic> {
    let maps = EdgeMaps::new(dfg);
    check_channel_capacity_with(dfg, &maps, &analyze_channel_depths(dfg, &maps), caps)
}

/// [`check_channel_capacity`] over already-built graph facts.
pub(crate) fn check_channel_capacity_with(
    dfg: &Dfg,
    maps: &EdgeMaps,
    depths: &ChannelDepths,
    caps: &ChannelCapacity,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let mut at_min = 0usize;
    let mut suggest = 0usize;
    for (ni, node) in dfg.nodes().enumerate() {
        for p in 0..node.ins().len() {
            let need = depths.min[ni][p];
            if need == 0 {
                continue;
            }
            let cap = caps.of(ni as u32, p as u16);
            if cap < need {
                let feeders: Vec<&str> =
                    maps.producers(ni, p).iter().map(|&(q, _)| dfg.node(q).label()).collect();
                out.push(Diagnostic::at_node(
                    Code::ChannelBelowMinimum,
                    dfg,
                    NodeId(ni as u32),
                    format!(
                        "channel into i{p} (from '{}') has capacity {cap}, below the static \
                         minimum {need}: the producer can never forward a token, and back \
                         pressure wedges everything upstream — guaranteed deadlock",
                        feeders.join("', '"),
                    ),
                ));
            } else if cap == need {
                at_min += 1;
                suggest = suggest.max(depths.recommended[ni][p]);
            }
        }
    }

    for (cycle, &dd) in depths.cycles.iter().zip(&depths.data_dependent) {
        if !dd {
            continue;
        }
        let zero_slack = cycle.iter().any(|&c| {
            let ni = c.0 as usize;
            (0..dfg.node(NodeId(ni as u32)).ins().len()).any(|p| {
                depths.min[ni][p] > 0
                    && caps.of(ni as u32, p as u16) == depths.min[ni][p]
                    && maps.producers(ni, p).iter().any(|(q, _)| cycle.contains(q))
            })
        });
        if !zero_slack {
            continue;
        }
        let head = cycle.iter().min().copied().unwrap_or(NodeId(0));
        let block = dfg.node(head).block();
        out.push(Diagnostic::at_block(
            Code::DataDependentCycle,
            dfg,
            block,
            format!(
                "a {}-node cycle with a data-dependent trip count (a load feeds its \
                 decider) runs its channels at the static minimum depth; the minimum \
                 guarantees progress only cycle-locally, so this configuration may \
                 deadlock under adverse memory schedules",
                cycle.len(),
            ),
        ));
    }

    if at_min > 0 && out.is_empty() {
        out.push(Diagnostic::global(
            Code::ChannelAtMinimum,
            format!(
                "{at_min} channel(s) at the static minimum depth: safe, but zero slack \
                 (every token strictly serializes); reconvergent-path imbalance suggests \
                 depth {suggest}",
            ),
        ));
    }
    out
}

/// Nontrivial strongly connected components (size > 1, or a self-loop),
/// via Kosaraju's two passes over the prebuilt adjacency.
fn nontrivial_sccs(succs: &Rows<NodeId>, preds: &Rows<NodeId>) -> Vec<Vec<NodeId>> {
    let n = succs.len();
    // Pass 1: finish order by iterative DFS over the forward graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        // (node, next-successor-index) stack.
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if let Some(&w) = succs[v].get(*i) {
                *i += 1;
                let wi = w.0 as usize;
                if !seen[wi] {
                    seen[wi] = true;
                    stack.push((wi, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph, reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut n_comps = 0usize;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let c = n_comps;
        n_comps += 1;
        let mut stack = vec![root];
        comp[root] = c;
        while let Some(v) = stack.pop() {
            for &w in &preds[v] {
                let wi = w.0 as usize;
                if comp[wi] == usize::MAX {
                    comp[wi] = c;
                    stack.push(wi);
                }
            }
        }
    }
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); n_comps];
    for (v, &c) in comp.iter().enumerate() {
        members[c].push(NodeId(v as u32));
    }
    members
        .into_iter()
        .filter(|m| m.len() > 1 || m.first().is_some_and(|&v| succs[v.0 as usize].contains(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::lower_ordered;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    fn counted_loop() -> Program {
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

    fn loaded_bound_loop() -> Program {
        // while (i < mem[1]) — the trip count is loaded, not computed.
        // (Loads are impure, so the bound is loaded before the loop and
        // carried in; the decider's backward slice still reaches it.)
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let bound = f.load(1);
        let [i, b] = f.begin_loop("l", [0.into(), bound]);
        let c = f.lt(i, b);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, b], [i]);
        pb.finish(f, [out])
    }

    #[test]
    fn live_edges_need_capacity_one_and_the_preload_fits() {
        let dfg = lower_ordered(&counted_loop()).unwrap();
        let maps = EdgeMaps::new(&dfg);
        let d = analyze_channel_depths(&dfg, &maps);
        // Every wired port of a live node with a live producer needs ≥ 1.
        for (ni, node) in dfg.nodes().enumerate() {
            for p in 0..node.ins().len() {
                if d.min[ni][p] > 0 {
                    assert!(d.recommended[ni][p] >= d.min[ni][p]);
                }
            }
        }
        // The loop-carry CMerges are a cycle.
        assert!(!d.cycles.is_empty(), "a loop must show up as an SCC");
        // A pure counter loop's trip count is not data-dependent.
        assert!(d.data_dependent.iter().all(|&x| !x));
    }

    #[test]
    fn below_minimum_is_an_error_at_minimum_a_note() {
        let dfg = lower_ordered(&counted_loop()).unwrap();
        // Depth 4: slack everywhere, nothing to report.
        assert!(check_channel_capacity(&dfg, &ChannelCapacity::uniform(4)).is_empty());
        // Depth 1: the exact minimum — safe, one aggregated note.
        let diags = check_channel_capacity(&dfg, &ChannelCapacity::uniform(1));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::ChannelAtMinimum);
        // A zero-capacity live edge: guaranteed deadlock, an error.
        let cm = dfg
            .nodes()
            .position(
                |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
            )
            .unwrap() as u32;
        let caps = ChannelCapacity::uniform(4).with_override(cm, 0, 0);
        let diags = check_channel_capacity(&dfg, &caps);
        assert!(diags.iter().any(|d| d.code == Code::ChannelBelowMinimum), "{diags:?}");
    }

    #[test]
    fn data_dependent_trip_counts_warn_at_zero_slack() {
        let dfg = lower_ordered(&loaded_bound_loop()).unwrap();
        let maps = EdgeMaps::new(&dfg);
        let d = analyze_channel_depths(&dfg, &maps);
        assert!(
            d.data_dependent.iter().any(|&x| x),
            "a loaded loop bound must mark the cycle data-dependent"
        );
        let diags = check_channel_capacity(&dfg, &ChannelCapacity::uniform(1));
        assert!(diags.iter().any(|d| d.code == Code::DataDependentCycle), "{diags:?}");
        // With slack the warning disappears.
        assert!(check_channel_capacity(&dfg, &ChannelCapacity::uniform(4)).is_empty());
    }

    #[test]
    fn static_verdicts_match_the_engine() {
        // The module-level contract in miniature: a predicted-safe capacity
        // completes; a predicted-deadlock capacity deadlocks.
        use tyr_ir::MemoryImage;
        use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
        let dfg = lower_ordered(&counted_loop()).unwrap();
        for depth in [1usize, 2, 4] {
            let caps = ChannelCapacity::uniform(depth);
            assert!(!check_channel_capacity(&dfg, &caps)
                .iter()
                .any(|d| d.code == Code::ChannelBelowMinimum));
            let cfg =
                OrderedConfig { queue_depth: depth, args: vec![25], ..OrderedConfig::default() };
            let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
            assert!(r.is_complete(), "depth {depth}: {:?}", r.outcome);
            assert_eq!(r.returns, vec![300]);
        }
        let cm = dfg
            .nodes()
            .position(
                |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
            )
            .unwrap() as u32;
        assert!(check_channel_capacity(&dfg, &ChannelCapacity::uniform(4).with_override(cm, 0, 0))
            .iter()
            .any(|d| d.code == Code::ChannelBelowMinimum));
        let cfg = OrderedConfig {
            depth_overrides: vec![((cm, 0), 0)],
            args: vec![25],
            ..OrderedConfig::default()
        };
        let r = OrderedEngine::new(&dfg, MemoryImage::new(), cfg).run().unwrap();
        assert!(!r.is_complete(), "predicted deadlock must be real");
    }
}
