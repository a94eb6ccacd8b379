//! Structural well-formedness: [`Dfg::check`]'s obligations, but reported
//! *exhaustively* with one located diagnostic per violation instead of
//! failing on the first.
//!
//! The lowering promotes these same obligations into
//! `LowerError::Malformed`, so a graph that came out of `lower_tagged` /
//! `lower_ordered` is already clean here; this pass exists for hand-built
//! graphs and as the first gate of `verify` (deeper passes are skipped when
//! structure is broken, since they would chase dangling edges).

use tyr_dfg::{BlockId, Dfg, InKind, NodeId, NodeKind};

use crate::diag::{Code, Diagnostic};

/// Runs the structure pass.
pub fn check_structure(dfg: &Dfg) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let any_free = dfg.nodes().any(|n| matches!(n.kind(), NodeKind::Free { .. }));
    let mut alloc_spaces: Vec<(BlockId, NodeId)> = Vec::new();
    let mut free_spaces: Vec<BlockId> = Vec::new();

    for (ni, n) in dfg.nodes().enumerate() {
        let nid = NodeId(ni as u32);
        if n.block().0 as usize >= dfg.blocks.len() {
            out.push(Diagnostic::at_node(
                Code::BadBlock,
                dfg,
                nid,
                format!("node's block {} is out of range ({} blocks)", n.block(), dfg.blocks.len()),
            ));
        }
        if !matches!(n.kind(), NodeKind::Source)
            && !n.ins().iter().any(|i| matches!(i, InKind::Wire))
        {
            out.push(Diagnostic::at_node(
                Code::NoWiredInputs,
                dfg,
                nid,
                "node has no wired inputs, so it can never fire",
            ));
        }
        match n.kind() {
            NodeKind::Allocate { space, .. } | NodeKind::Free { space } => {
                if space.0 as usize >= dfg.blocks.len() {
                    out.push(Diagnostic::at_node(
                        Code::BadSpace,
                        dfg,
                        nid,
                        format!("references nonexistent tag space {space}"),
                    ));
                } else if matches!(n.kind(), NodeKind::Free { .. }) {
                    free_spaces.push(*space);
                } else {
                    alloc_spaces.push((*space, nid));
                }
            }
            _ => {}
        }
        for (pi, targets) in n.outs().iter().enumerate() {
            for t in targets {
                let Some(dst) = dfg.get(t.node) else {
                    out.push(Diagnostic::at_node(
                        Code::MissingNode,
                        dfg,
                        nid,
                        format!("output o{pi} targets missing node {}", t.node),
                    ));
                    continue;
                };
                match dst.ins().get(t.port as usize) {
                    Some(InKind::Wire) => {}
                    Some(InKind::Imm(_)) => out.push(Diagnostic::at_node(
                        Code::EdgeIntoImm,
                        dfg,
                        nid,
                        format!(
                            "output o{pi} targets immediate input {}.i{}, which can never accept tokens",
                            t.node, t.port
                        ),
                    )),
                    None => out.push(Diagnostic::at_node(
                        Code::MissingPort,
                        dfg,
                        nid,
                        format!("output o{pi} targets missing port {}.i{}", t.node, t.port),
                    )),
                }
            }
        }
    }

    if any_free {
        for (space, nid) in alloc_spaces {
            if !free_spaces.contains(&space) {
                out.push(Diagnostic::at_node(
                    Code::UnfreedSpace,
                    dfg,
                    nid,
                    format!(
                        "tag space {space} is allocated from but never freed into; its tags cannot recycle"
                    ),
                ));
            }
        }
    }
    out
}
