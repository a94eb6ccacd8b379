//! Static memory-race detection, with index-precise verdicts.
//!
//! Dataflow executes memory operations in *data-dependence order only*: two
//! accesses in the same concurrent block with no path between them can
//! commit in either order in the same context. The kernels avoid this by
//! construction — disjoint index sets for plain stores, `storeAdd` for
//! commutative accumulation — and this pass checks that discipline
//! statically.
//!
//! The pass is a client of the abstract-interpretation framework
//! ([`crate::absint`]); its domain ([`AbsVal`]) carries two components per
//! node output:
//!
//! * **Segment provenance** — which memory segments the value may point
//!   into, by exact-base-match classification propagated through address
//!   arithmetic (see [`crate::absint::indexset`] for the soundness
//!   argument). This under-approximates — an address materialized by
//!   arithmetic we do not model is simply not classified — so the pass can
//!   miss races but reports no impossible segment pairs.
//! * **A strided interval** over-approximating the value numerically, with
//!   loop counters widened to anchored progressions (`base + [0,∞) step s`).
//!
//! **Verdict.** Two same-block accesses whose segment masks intersect, at
//! least one of which is a plain `store`, with no ordering path either way:
//!
//! * their address intervals, clamped to each common segment, are provably
//!   [`disjoint`](Si::disjoint) (disjoint ranges, or incompatible residues
//!   modulo the stride gcd) → **no finding** — the PR-1 segment warning is
//!   resolved to a proof of safety;
//! * both addresses are the *same singleton* in a common segment → the
//!   accesses always collide; the warning is upgraded to a hard **error**
//!   carrying the witness index;
//! * otherwise → the original **warning** stands ([`Code::StoreStoreRace`]
//!   M001 / [`Code::LoadStoreRace`] M002), now rendering the computed index
//!   sets so the reader sees *why* it is undecided.
//!
//! `storeAdd`/`storeAdd` pairs are permitted (commutative by design — the
//! paper's own fix).

use tyr_dfg::{Dfg, NodeId, NodeKind};
use tyr_ir::{MemoryImage, Value};

use crate::absint::indexset::{AbsVal, IndexSets, Segment};
use crate::absint::si::Si;
use crate::absint::EdgeMaps;
use crate::diag::{Code, Diagnostic, Severity};
use crate::passes::reach;

/// Runs the race pass against the memory image and program arguments the
/// graph will execute with.
pub fn check_races(dfg: &Dfg, mem: &MemoryImage, args: &[Value]) -> Vec<Diagnostic> {
    if mem.arrays().next().is_none() {
        return Vec::new();
    }
    let maps = EdgeMaps::new(dfg);
    check_races_with(dfg, &maps, &IndexSets::new(dfg, &maps, mem, args))
}

/// [`check_races`] over already-built graph facts.
pub(crate) fn check_races_with(dfg: &Dfg, maps: &EdgeMaps, index: &IndexSets) -> Vec<Diagnostic> {
    let segments = &index.segments;
    if segments.is_empty() {
        return Vec::new();
    }
    // Memory accesses with a classified address (in0); judge unordered
    // same-block overlaps involving a plain store.
    let accesses = collect_accesses(dfg, maps, index, |addr| addr.mask != 0);
    let mut out = Vec::new();
    for (i, x) in accesses.iter().enumerate() {
        for y in &accesses[i + 1..] {
            let (a, b, ma, mb) = (x.node, y.node, &x.addr, &y.addr);
            let overlap = ma.mask & mb.mask;
            if overlap == 0
                || dfg.node(a).block() != dfg.node(b).block()
                || !(x.kind == Acc::Store || y.kind == Acc::Store)
                || x.ordered_with(y)
            {
                continue;
            }
            let code = if x.kind != Acc::Load && y.kind != Acc::Load {
                Code::StoreStoreRace
            } else {
                Code::LoadStoreRace
            };
            match judge(segments, overlap, ma, mb) {
                Verdict::Disjoint => {} // proven race-free: suppressed
                Verdict::Collides { segment, index } => {
                    let what =
                        if code == Code::StoreStoreRace { "stores" } else { "load and store" };
                    let mut d = Diagnostic::at_node(
                        code,
                        dfg,
                        a,
                        format!(
                            "unordered {what} to '{}' always collide at index {index} \
                             (with {b} '{}'); use storeAdd or add an ordering dependence",
                            segments[segment].name,
                            dfg.node(b).label(),
                        ),
                    );
                    d.severity = Severity::Error;
                    out.push(d);
                }
                Verdict::Unknown => {
                    let what =
                        if code == Code::StoreStoreRace { "stores" } else { "load and store" };
                    out.push(Diagnostic::at_node(
                        code,
                        dfg,
                        a,
                        format!(
                            "unordered {what} to segment(s) {} in the same concurrent block \
                             (with {b} '{}'; index sets {} vs {}); if the index sets overlap, \
                             use storeAdd or add an ordering dependence",
                            seg_names(segments, overlap),
                            dfg.node(b).label(),
                            render_num(ma),
                            render_num(mb),
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// How a memory access touches its word.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Acc {
    Load,
    Store,
    StoreAdd,
}

/// One `load`/`store`/`store+` the pair judgments consider.
pub(crate) struct Access {
    pub(crate) node: NodeId,
    pub(crate) kind: Acc,
    /// The abstract address (input 0).
    pub(crate) addr: AbsVal,
    /// Forward reachability from the access, dynamic routing included.
    reaches: Vec<bool>,
}

impl Access {
    /// Whether a dependence path orders the two accesses, either way.
    pub(crate) fn ordered_with(&self, other: &Access) -> bool {
        self.reaches[other.node.0 as usize] || other.reaches[self.node.0 as usize]
    }
}

/// Every memory access whose abstract address satisfies `keep`, in node
/// order. Shared by the race pass (same-block pairs) and the shard pass's
/// P001 (cross-block pairs).
pub(crate) fn collect_accesses(
    dfg: &Dfg,
    maps: &EdgeMaps,
    index: &IndexSets,
    keep: impl Fn(&AbsVal) -> bool,
) -> Vec<Access> {
    let mut out = Vec::new();
    for (ni, node) in dfg.nodes().enumerate() {
        let kind = match node.kind() {
            NodeKind::Load => Acc::Load,
            NodeKind::Store => Acc::Store,
            NodeKind::StoreAdd => Acc::StoreAdd,
            _ => continue,
        };
        let addr = index.address(dfg, maps, ni);
        if keep(&addr) {
            let node = NodeId(ni as u32);
            out.push(Access { node, kind, addr, reaches: reach(&maps.succs, [node]) });
        }
    }
    out
}

pub(crate) enum Verdict {
    /// Provably race-free in every common segment.
    Disjoint,
    /// Provably always the same word of `segments[segment]`.
    Collides {
        segment: usize,
        index: i64,
    },
    Unknown,
}

/// Judges one unordered access pair over their common segments. A pair is
/// race-free only if it is proven disjoint within *every* common segment;
/// it provably collides if, in some common segment, both addresses clamp to
/// the same singleton. Shared with the shard pass's cross-block P001
/// disjointness claims.
pub(crate) fn judge(segments: &[Segment], overlap: u64, a: &AbsVal, b: &AbsVal) -> Verdict {
    let (Some(na), Some(nb)) = (a.num, b.num) else { return Verdict::Unknown };
    let mut all_disjoint = true;
    let mut collision = None;
    for (si, seg) in segments.iter().enumerate() {
        if overlap & (1 << si) == 0 {
            continue;
        }
        let (lo, hi) = (seg.base, seg.base + seg.len - 1);
        match (na.clamp(lo, hi), nb.clamp(lo, hi)) {
            // One of the addresses can never fall inside this segment:
            // vacuously disjoint here.
            (None, _) | (_, None) => {}
            (Some(ca), Some(cb)) => {
                if let Some(addr) = Si::must_equal(ca, cb) {
                    // Only a genuine collision if the clamp didn't narrow:
                    // the unclamped values must already be that singleton.
                    if na.as_singleton() == Some(addr) && nb.as_singleton() == Some(addr) {
                        collision = Some((si, addr - seg.base));
                        all_disjoint = false;
                        continue;
                    }
                }
                if !Si::disjoint(ca, cb) {
                    all_disjoint = false;
                }
            }
        }
    }
    match (all_disjoint, collision) {
        (true, _) => Verdict::Disjoint,
        (false, Some((segment, index))) => Verdict::Collides { segment, index },
        (false, None) => Verdict::Unknown,
    }
}

fn seg_names(segments: &[Segment], m: u64) -> String {
    segments
        .iter()
        .enumerate()
        .filter(|(i, _)| m & (1 << i) != 0)
        .map(|(_, s)| format!("'{}'", s.name))
        .collect::<Vec<_>>()
        .join(", ")
}

fn render_num(v: &AbsVal) -> String {
    match v.num {
        Some(si) => si.to_string(),
        None => "?".to_string(),
    }
}
