//! Static analysis passes over lowered dataflow graphs.
//!
//! Each pass is a pure function `&Dfg → Vec<Diagnostic>`; the conveniences
//! in the crate root compose them into a [`Report`](crate::Report). A pass
//! that reads graph facts has a crate-private `…_with` body taking them
//! already built, so a battery builds each fact once per call; the public
//! function is a thin wrapper that builds its own and calls that body.
//! Passes share the [`EdgeMaps`](crate::absint::EdgeMaps) view, which
//! augments the graph's static edges with the *dynamically routed* edges of
//! `changeTag.dyn` nodes (function returns): without them, call-return
//! landing pads look unreachable and callee bodies look disconnected from
//! the caller's barrier.

mod barrier;
mod lints;
mod races;
mod shard;
mod structure;
mod tags;
mod workingset;

pub use barrier::check_barrier_coverage;
pub(crate) use barrier::check_barrier_coverage_with;
pub use lints::check_lints;
pub(crate) use lints::check_lints_with;
pub use races::check_races;
pub(crate) use races::check_races_with;
pub use shard::{
    analyze_shards, check_shards, verify_shards, BoundaryFlow, MemClaims, ShardBudget,
    ShardCertificate, ShardCollision, ShardTagCheck,
};
pub use structure::check_structure;
pub use tags::{analyze_tag_demand, check_tag_policy, predict_global, GlobalPrediction, TagDemand};
pub(crate) use workingset::check_edge_residency_with;
pub use workingset::{
    analyze_live_state, check_edge_residency, check_footprint, check_live_state,
    compare_elaborations, footprint_diags, ordered_live_bound, BlockLiveBound, ElaborationBounds,
    Instances, LiveStateBound,
};

use tyr_dfg::{Dfg, InKind, NodeId, NodeKind, PortRef};

use crate::absint::Rows;

/// Resolves the possible routing targets of a `changeTag.dyn` node.
///
/// The lowering delivers a function's return value to a port encoded as a
/// [`PortRef`] integer that *flows through the graph as data* into the
/// node's `in1`. Statically we trace `in1` backwards through
/// value-preserving instructions (`changeTag`, `mov`, `merge`, `join`,
/// `steer`, `select`) until we reach immediates or constants, and decode
/// every one we find. Paths through value-transforming instructions are
/// abandoned (no target claimed): that loses completeness, not soundness —
/// the real lowering only ever routes immediate-encoded targets.
pub(crate) fn dyn_targets(dfg: &Dfg, node: NodeId) -> Vec<PortRef> {
    let mut out = Vec::new();
    let mut seen = vec![false; dfg.len()];
    // Work item: an input port whose incoming value we want to enumerate.
    let mut work: Vec<(NodeId, u16)> = vec![(node, 1)];
    let collect = |out: &mut Vec<PortRef>, v: i64| {
        let p = PortRef::decode(v);
        let valid = dfg
            .get(p.node)
            .and_then(|n| n.ins().get(p.port as usize))
            .is_some_and(|i| matches!(i, InKind::Wire));
        if valid && !out.contains(&p) {
            out.push(p);
        }
    };
    while let Some((nid, port)) = work.pop() {
        let Some(n) = dfg.get(nid) else { continue };
        if let Some(InKind::Imm(v)) = n.ins().get(port as usize) {
            collect(&mut out, *v);
            continue;
        }
        // Find every producer wired into (nid, port) and recurse through its
        // value path.
        for (pi, p) in dfg.nodes().enumerate() {
            let feeds = p.outs().iter().flatten().any(|t| t.node == nid && t.port == port);
            if !feeds || seen[pi] {
                continue;
            }
            seen[pi] = true;
            let pid = NodeId(pi as u32);
            match p.kind() {
                NodeKind::Const(v) => collect(&mut out, *v),
                NodeKind::ChangeTag => work.push((pid, 1)),
                NodeKind::ChangeTagDyn => work.push((pid, 2)),
                NodeKind::Alu(tyr_ir::AluOp::Mov) => work.push((pid, 0)),
                NodeKind::Join => work.push((pid, 0)),
                NodeKind::Steer => work.push((pid, 1)),
                NodeKind::Select => {
                    work.push((pid, 1));
                    work.push((pid, 2));
                }
                NodeKind::Merge | NodeKind::CMerge { .. } => {
                    for q in 0..p.ins().len() {
                        work.push((pid, q as u16));
                    }
                }
                _ => {} // value-transforming: abandon this path
            }
        }
    }
    out
}

/// Forward BFS over `succs` from `starts`; returns a visited bitmap.
pub(crate) fn reach(succs: &Rows<NodeId>, starts: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    let mut work: Vec<NodeId> =
        starts.into_iter().filter(|s| (s.0 as usize) < succs.len()).collect();
    for s in &work {
        seen[s.0 as usize] = true;
    }
    while let Some(n) = work.pop() {
        for &m in &succs[n.0 as usize] {
            if !seen[m.0 as usize] {
                seen[m.0 as usize] = true;
                work.push(m);
            }
        }
    }
    seen
}
