//! Token-lifecycle lints: dead graph regions and unrecyclable tags.
//!
//! * [`Code::DanglingOutput`] (note) — a value-producing node whose result
//!   is never consumed. Harmless (the token still dies with its context in
//!   barriered lowerings) but wasteful: it occupies an issue slot and
//!   waiting-matching space every firing.
//! * [`Code::UnreachableNode`] (warning) — a node no token from the source
//!   can ever reach; it will never fire, and anything strict on its output
//!   (the sink included) can never complete. Reachability includes the
//!   synthesized `changeTag.dyn` routing edges — call-return landing pads
//!   are fed dynamically, not by static wires.
//! * [`Code::AllocNoFree`] (error) — an `allocate` from which no `free` of
//!   the same space is forward-reachable: the context's tag can never be
//!   recycled, so the space's pool drains monotonically and a long enough
//!   run deadlocks. Vacuous in barrierless (unordered-unbounded) graphs.

use tyr_dfg::{Dfg, NodeId, NodeKind};

use crate::absint::EdgeMaps;
use crate::diag::{Code, Diagnostic};
use crate::passes::reach;

/// Runs the lifecycle lints.
pub fn check_lints(dfg: &Dfg) -> Vec<Diagnostic> {
    check_lints_with(dfg, &EdgeMaps::new(dfg))
}

/// [`check_lints`] over already-built edge maps.
pub(crate) fn check_lints_with(dfg: &Dfg, maps: &EdgeMaps) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // L001: dangling data outputs.
    for (ni, n) in dfg.nodes().enumerate() {
        let value_producing = matches!(
            n.kind(),
            NodeKind::Alu(_)
                | NodeKind::Load
                | NodeKind::Select
                | NodeKind::Merge
                | NodeKind::Join
                | NodeKind::ExtractTag
                | NodeKind::NewTag
                | NodeKind::Const(_)
                | NodeKind::CMerge { .. }
        );
        if value_producing && n.outs().get(0).is_some_and(|t| t.is_empty()) {
            out.push(Diagnostic::at_node(
                Code::DanglingOutput,
                dfg,
                NodeId(ni as u32),
                "node produces a value nothing consumes",
            ));
        }
    }

    // L002: unreachable from the source.
    let live = reach(&maps.succs, [dfg.source]);
    for (ni, n) in dfg.nodes().enumerate() {
        if !live[ni] && !matches!(n.kind(), NodeKind::Source) {
            out.push(Diagnostic::at_node(
                Code::UnreachableNode,
                dfg,
                NodeId(ni as u32),
                "no token from the source can reach this node; it will never fire",
            ));
        }
    }

    // L003: allocate with no reachable free of its space.
    let any_free = dfg.nodes().any(|n| matches!(n.kind(), NodeKind::Free { .. }));
    if any_free {
        for (ni, n) in dfg.nodes().enumerate() {
            let NodeKind::Allocate { space, .. } = n.kind() else { continue };
            let cone = reach(&maps.succs, [NodeId(ni as u32)]);
            let freed = dfg.nodes().enumerate().any(|(mi, m)| {
                cone[mi] && matches!(m.kind(), NodeKind::Free { space: s } if s == space)
            });
            if !freed {
                out.push(Diagnostic::at_node(
                    Code::AllocNoFree,
                    dfg,
                    NodeId(ni as u32),
                    format!(
                        "no free of space {space} is reachable from this allocate; \
                         its tags can never be recycled"
                    ),
                ));
            }
        }
    }
    out
}
