//! The working-set pass (`W…`): static peak-live-state and footprint
//! bounds — the compile-time half of the paper's locality claim.
//!
//! The paper's Fig. 14 measures live state *dynamically*; this pass proves
//! the same shape statically:
//!
//! * **W001** ([`check_live_state`]) — per concurrent block, peak token-
//!   store occupancy is bounded by the block's wired-input port count (each
//!   `(node, port)` cell holds at most one token per tag) times its
//!   concurrent-instance bound under the tag policy (the space's tag count;
//!   Theorem 1's pool is also a live-state cap). The root context is unique,
//!   so the root bound is just its port count.
//! * **W002** ([`check_footprint`]) — per block instance, the memory
//!   footprint from the strided-interval index sets widened into per-segment
//!   address intervals ([`crate::absint::footprint`]); an access with no
//!   segment provenance makes the block input-scaled and is reported as the
//!   witness at warning severity.
//! * **W003** ([`compare_elaborations`]) — the headline verdict: the total
//!   W001 bound under local tag spaces versus a bounded global pool versus
//!   the ordered elaboration's FIFO capacity, with the shrink ratio. Local
//!   spaces provably shrink the bound whenever any non-root space's tag
//!   count is below the shared pool size.
//! * **W004** ([`check_edge_residency`]) — per-edge token residency for
//!   ordered lowerings, summarized from the O-pass's recommended
//!   occupancies with the most imbalanced port as witness.
//!
//! Every bound here is cross-validated against the dynamic reuse tracker
//! (`tyr_stats::locality`) by `repro verify`: the static number must
//! dominate what the matching engine actually observes.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::{BlockId, Dfg, InKind, NodeId, NodeKind, ROOT_BLOCK};
use tyr_ir::{MemoryImage, Program, Value};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;

use crate::absint::footprint::{analyze_footprint, FootprintAnalysis};
use crate::absint::occupancy::{analyze_channel_depths, ChannelDepths};
use crate::absint::EdgeMaps;
use crate::diag::{Code, Diagnostic, Severity};
use crate::passes::analyze_tag_demand;

/// Concurrent-instance bound of one block under a tag policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instances {
    /// A finite bound (1 for the root context, the tag count otherwise).
    Bounded(u64),
    /// No bound (unbounded tag generation).
    Unbounded,
}

/// The static live-state bound of one concurrent block.
#[derive(Debug, Clone)]
pub struct BlockLiveBound {
    /// The block.
    pub block: BlockId,
    /// Its name.
    pub name: String,
    /// Token-store capacity of one context: the number of wired input
    /// ports across the block's nodes.
    pub ports: u64,
    /// Concurrent-instance bound under the policy.
    pub instances: Instances,
    /// `ports × instances`, `None` when unbounded.
    pub bound: Option<u64>,
}

/// The whole-graph live-state bound: one entry per block, in block order.
#[derive(Debug, Clone, Default)]
pub struct LiveStateBound {
    /// Per-block bounds.
    pub per_block: Vec<BlockLiveBound>,
}

impl LiveStateBound {
    /// Total peak-live-state bound; `None` if any block is unbounded.
    pub fn total(&self) -> Option<u64> {
        self.per_block.iter().map(|b| b.bound).sum()
    }

    /// The bound for the block named `name`, if finite.
    pub fn for_block(&self, name: &str) -> Option<u64> {
        self.per_block.iter().find(|b| b.name == name).and_then(|b| b.bound)
    }
}

/// Computes per-block peak live-state bounds for `dfg` under `policy`.
pub fn analyze_live_state(dfg: &Dfg, policy: &TagPolicy) -> LiveStateBound {
    let demand = analyze_tag_demand(dfg);
    let allocated = |b: BlockId| demand.for_space(b).is_some();
    let uses_newtag = dfg.nodes().any(|n| matches!(n.kind(), NodeKind::NewTag));

    let mut ports = vec![0u64; dfg.blocks.len()];
    for n in dfg.nodes() {
        if let Some(p) = ports.get_mut(n.block().0 as usize) {
            *p += n.ins().iter().filter(|i| matches!(i, InKind::Wire)).count() as u64;
        }
    }

    let per_block = dfg
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, info)| {
            let block = BlockId(bi as u32);
            let instances = if block == ROOT_BLOCK {
                Instances::Bounded(1)
            } else if uses_newtag {
                // Unbounded tag generation: fresh contexts at will.
                Instances::Unbounded
            } else if allocated(block) {
                match policy {
                    TagPolicy::Local { default_tags, overrides } => {
                        let tags = overrides
                            .iter()
                            .find(|(n, _)| n == &info.name)
                            .map(|&(_, t)| t)
                            .unwrap_or(*default_tags)
                            .max(1);
                        Instances::Bounded(tags as u64)
                    }
                    TagPolicy::GlobalBounded { tags } => Instances::Bounded(*tags as u64),
                    TagPolicy::GlobalUnbounded => Instances::Unbounded,
                }
            } else {
                // Never an allocation target: only the root context's tag
                // ever reaches it.
                Instances::Bounded(1)
            };
            let bound = match instances {
                Instances::Bounded(i) => Some(ports[bi] * i),
                Instances::Unbounded => None,
            };
            BlockLiveBound { block, name: info.name.clone(), ports: ports[bi], instances, bound }
        })
        .collect();
    LiveStateBound { per_block }
}

/// W001: one note per block stating its peak live-state bound, plus a
/// graph total.
pub fn check_live_state(dfg: &Dfg, policy: &TagPolicy) -> Vec<Diagnostic> {
    let bounds = analyze_live_state(dfg, policy);
    let mut out = Vec::new();
    for b in &bounds.per_block {
        let msg = match (b.instances, b.bound) {
            (Instances::Bounded(i), Some(bound)) => format!(
                "peak live state <= {bound} token(s) ({} wired port(s) x {i} concurrent \
                 instance(s))",
                b.ports
            ),
            _ => format!(
                "peak live state unbounded: {} wired port(s) x unbounded concurrent instances",
                b.ports
            ),
        };
        out.push(Diagnostic::at_block(Code::BlockLiveState, dfg, b.block, msg));
    }
    let total = match bounds.total() {
        Some(t) => format!("graph peak live state <= {t} token(s) under this tag policy"),
        None => "graph peak live state is unbounded under this tag policy".to_string(),
    };
    out.push(Diagnostic::global(Code::BlockLiveState, total));
    out
}

/// W002: per-block footprint bounds (notes), with provenance-free accesses
/// raised to warnings carrying the offending load/store as witness.
pub fn check_footprint(dfg: &Dfg, mem: &MemoryImage, args: &[Value]) -> Vec<Diagnostic> {
    let fp = analyze_footprint(dfg, mem, args);
    footprint_diags(dfg, &fp)
}

/// Renders an already-computed [`FootprintAnalysis`] into W002 diagnostics
/// (split out so callers that need the raw bounds don't run the analysis
/// twice).
pub fn footprint_diags(dfg: &Dfg, fp: &FootprintAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for b in &fp.per_block {
        for u in &b.unbounded {
            let mut d = Diagnostic::at_node(
                Code::FootprintBound,
                dfg,
                u.node,
                format!(
                    "{} address has no segment provenance: the block's working set \
                     scales with the input",
                    if u.write { "store" } else { "load" }
                ),
            );
            d.severity = Severity::Warning;
            out.push(d);
        }
        let segs: Vec<String> = b.segments.iter().map(|(n, w)| format!("{n}:{w}w")).collect();
        out.push(Diagnostic::at_block(
            Code::FootprintBound,
            dfg,
            b.block,
            format!(
                "memory footprint per instance <= {} word(s) / {} line(s){}{}",
                b.words,
                b.lines,
                if segs.is_empty() { String::new() } else { format!(" [{}]", segs.join(", ")) },
                if b.unbounded.is_empty() { "" } else { " (bounded accesses only)" },
            ),
        ));
    }
    out
}

/// W004: per-edge token residency of an ordered lowering, from the O-pass.
pub fn check_edge_residency(dfg: &Dfg) -> Vec<Diagnostic> {
    check_edge_residency_with(dfg, &analyze_channel_depths(dfg, &EdgeMaps::new(dfg)))
}

/// [`check_edge_residency`] over already-computed channel depths.
pub(crate) fn check_edge_residency_with(dfg: &Dfg, depths: &ChannelDepths) -> Vec<Diagnostic> {
    let mut fed = 0u64;
    let mut total = 0u64;
    let mut worst: Option<(usize, usize, usize)> = None; // (node, port, recommended)
    for (ni, node) in dfg.nodes().enumerate() {
        for p in 0..node.ins().len() {
            let r = depths.recommended[ni][p];
            if depths.min[ni][p] == 0 {
                continue;
            }
            fed += 1;
            total += r as u64;
            if worst.map(|(_, _, w)| r > w).unwrap_or(true) {
                worst = Some((ni, p, r));
            }
        }
    }
    let mut out = Vec::new();
    match worst {
        Some((ni, p, r)) => out.push(Diagnostic::global(
            Code::EdgeResidency,
            format!(
                "edge token residency: {fed} fed port(s), total recommended occupancy \
                 {total} token(s); deepest residency at '{}' in{p} ({r} token(s))",
                dfg.node(NodeId(ni as u32)).label()
            ),
        )),
        None => out.push(Diagnostic::global(
            Code::EdgeResidency,
            "edge token residency: no fed ports (empty or dead graph)".to_string(),
        )),
    }
    out
}

/// The statically predicted peak-live-state bounds of one program's three
/// bounded elaborations (the W003 comparison).
#[derive(Debug, Clone)]
pub struct ElaborationBounds {
    /// Tagged elaboration under the given *local* tag policy.
    pub local: Option<u64>,
    /// The same graph under a bounded global pool of `pool` tags.
    pub global: Option<u64>,
    /// The pool size used for the global bound.
    pub pool: usize,
    /// Ordered elaboration: total FIFO capacity over live fed ports.
    pub ordered: u64,
}

impl ElaborationBounds {
    /// The headline verdict: local tag spaces yield a strictly smaller
    /// bound than the shared global pool.
    pub fn local_shrinks(&self) -> bool {
        match (self.local, self.global) {
            (Some(l), Some(g)) => l < g,
            (Some(_), None) => true,
            _ => false,
        }
    }
}

/// W003: lowers `program` to its tagged and ordered elaborations and
/// compares the statically predicted peak live state of local tag spaces,
/// a bounded global pool of `pool` tags, and the ordered FIFO machine.
///
/// # Errors
///
/// Returns the lowering error message if either elaboration fails.
pub fn compare_elaborations(
    program: &Program,
    local: &TagPolicy,
    pool: usize,
    caps: &ChannelCapacity,
) -> Result<(ElaborationBounds, Vec<Diagnostic>), String> {
    let tagged = lower_tagged(program, TaggingDiscipline::Tyr).map_err(|e| e.to_string())?;
    let ordered = lower_ordered(program).map_err(|e| e.to_string())?;

    let local_bound = analyze_live_state(&tagged, local).total();
    let global_bound =
        analyze_live_state(&tagged, &TagPolicy::GlobalBounded { tags: pool }).total();
    let ordered_bound = ordered_live_bound(&ordered, caps);

    let bounds = ElaborationBounds {
        local: local_bound,
        global: global_bound,
        pool,
        ordered: ordered_bound,
    };
    let fmt = |b: Option<u64>| match b {
        Some(v) => v.to_string(),
        None => "unbounded".to_string(),
    };
    let verdict = if bounds.local_shrinks() {
        let ratio = match (bounds.local, bounds.global) {
            (Some(l), Some(g)) if l > 0 => format!("{:.2}x", g as f64 / l as f64),
            _ => "inf".to_string(),
        };
        format!("local tag spaces provably shrink the bound ({ratio} smaller)")
    } else {
        "local tag spaces do not shrink the bound on this graph".to_string()
    };
    let diag = Diagnostic::global(
        Code::ElaborationComparison,
        format!(
            "predicted peak live state: tagged-local <= {}, tagged-global(pool={}) <= {}, \
             ordered <= {} token(s); {verdict}",
            fmt(bounds.local),
            pool,
            fmt(bounds.global),
            bounds.ordered,
        ),
    );
    Ok((bounds, vec![diag]))
}

/// Peak live-token bound of an ordered elaboration under `caps`: every
/// token sits in some input FIFO, so the sum of capacities over live fed
/// ports bounds occupancy (sound for unit memory latency, where load
/// results are forwarded in the firing cycle).
pub fn ordered_live_bound(dfg: &Dfg, caps: &ChannelCapacity) -> u64 {
    let maps = EdgeMaps::new(dfg);
    let depths = analyze_channel_depths(dfg, &maps);
    let mut total = 0u64;
    for (ni, node) in dfg.nodes().enumerate() {
        for p in 0..node.ins().len() {
            if depths.min[ni][p] > 0 {
                total += caps.of(ni as u32, p as u16) as u64;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Operand;

    fn nested_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 4);
        f.begin_body(c);
        let [j, a, ii] = f.begin_loop("inner", [Operand::Const(0), acc, i]);
        let cj = f.lt(j, ii);
        f.begin_body(cj);
        let a2 = f.add(a, j);
        let j2 = f.add(j, 1);
        let [a3] = f.end_loop([j2, a2, ii], [a]);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, a3], [acc]);
        pb.finish(f, [out])
    }

    #[test]
    fn local_bound_scales_with_tags_and_root_is_unique() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let two = analyze_live_state(&dfg, &TagPolicy::local(2));
        let four = analyze_live_state(&dfg, &TagPolicy::local(4));
        let (t2, t4) = (two.total().unwrap(), four.total().unwrap());
        assert!(t2 < t4, "{t2} vs {t4}");
        // Root context is unique: its bound equals its port count.
        let root = &two.per_block[0];
        assert_eq!(root.instances, Instances::Bounded(1));
        assert_eq!(root.bound, Some(root.ports));
    }

    #[test]
    fn global_pool_bound_dominates_local() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let local = analyze_live_state(&dfg, &TagPolicy::local(2)).total().unwrap();
        let global =
            analyze_live_state(&dfg, &TagPolicy::GlobalBounded { tags: 8 }).total().unwrap();
        assert!(local < global, "{local} vs {global}");
    }

    #[test]
    fn unbounded_policy_has_no_total() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let b = analyze_live_state(&dfg, &TagPolicy::GlobalUnbounded);
        assert!(b.total().is_none());
        // Per-block entries still carry the port counts.
        assert!(b.per_block.iter().any(|bl| bl.ports > 0));
    }

    #[test]
    fn comparison_verdict_matches_the_paper() {
        let caps = ChannelCapacity::uniform(4);
        let (bounds, diags) =
            compare_elaborations(&nested_loop(), &TagPolicy::local(2), 8, &caps).unwrap();
        assert!(bounds.local_shrinks(), "{bounds:?}");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("provably shrink"), "{}", diags[0].message);
    }

    #[test]
    fn residency_reports_a_witness() {
        let dfg = lower_ordered(&nested_loop()).unwrap();
        let diags = check_edge_residency(&dfg);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("fed port(s)"), "{}", diags[0].message);
    }
}
