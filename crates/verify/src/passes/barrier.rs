//! Free-barrier coverage (Sec. IV-A).
//!
//! TYR's central safety argument is that a context's `free` fires only
//! after *every* token tagged with that context is dead: the lowering gives
//! each instruction an unconditional control output and `join`s them all
//! into the barrier feeding `free`. This pass checks the resulting
//! obligation graph-wide: every node must — transitively, through data or
//! control edges — feed either its own block's `free` barrier or the sink
//! (return values and anything downstream of them are kept alive by program
//! completion itself).
//!
//! A node failing this check can still hold a live token *after* its
//! context's tag was recycled, silently corrupting a later context — the
//! exact class of bug the dynamic token-leak sanitizer
//! (`TaggedConfig::check_token_leaks`) traps at `free` time. The static
//! pass finds it without running anything.
//!
//! Graphs with no `free` nodes at all (the unordered-unbounded
//! elaboration) have no barriers to cover; the pass is vacuous there.

use tyr_dfg::{Dfg, NodeId, NodeKind};

use crate::absint::EdgeMaps;
use crate::diag::{Code, Diagnostic};
use crate::passes::reach;

/// Runs the free-barrier coverage pass.
pub fn check_barrier_coverage(dfg: &Dfg) -> Vec<Diagnostic> {
    check_barrier_coverage_with(dfg, &EdgeMaps::new(dfg))
}

/// [`check_barrier_coverage`] over already-built edge maps.
pub(crate) fn check_barrier_coverage_with(dfg: &Dfg, maps: &EdgeMaps) -> Vec<Diagnostic> {
    let frees: Vec<NodeId> = dfg
        .nodes()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind(), NodeKind::Free { .. }))
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    if frees.is_empty() {
        return Vec::new();
    }

    // Work on the reversed graph: "reaches X" = backward-reachable from X.
    let reaches_sink = reach(&maps.preds, [dfg.sink]);
    // Per block: the set of nodes reaching any of *that block's* frees.
    let mut reaches_block_free: Vec<Option<Vec<bool>>> = vec![None; dfg.blocks.len()];
    for (b, entry) in reaches_block_free.iter_mut().enumerate() {
        let starts: Vec<NodeId> =
            frees.iter().copied().filter(|f| dfg.node(*f).block().0 as usize == b).collect();
        if !starts.is_empty() {
            *entry = Some(reach(&maps.preds, starts));
        }
    }
    // Fallback for nodes whose block hosts no free of its own (e.g. the
    // barrierless straight-line parts of root in ordered graphs): any free.
    let reaches_any_free = reach(&maps.preds, frees.iter().copied());

    let mut out = Vec::new();
    for (ni, n) in dfg.nodes().enumerate() {
        if reaches_sink[ni] {
            continue;
        }
        let covered = match reaches_block_free.get(n.block().0 as usize) {
            Some(Some(own)) => own[ni],
            _ => reaches_any_free[ni],
        };
        if !covered {
            out.push(Diagnostic::at_node(
                Code::OutsideBarrier,
                dfg,
                NodeId(ni as u32),
                "node never feeds its block's free barrier or the sink; its tokens can \
                 outlive the context's free",
            ));
        }
    }
    out
}
