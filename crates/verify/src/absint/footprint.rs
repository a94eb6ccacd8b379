//! Static working-set footprint: per-block memory address intervals from
//! the index-set analysis, widened into line-granular working-set bounds.
//!
//! The race pass asks the index-set analysis *"can these two accesses
//! collide?"*; this client asks the complementary question *"how much
//! memory can this block touch at all?"* — the static half of the paper's
//! locality claim. Every `load`/`store`/`store+` node's address value is a
//! strided interval with segment provenance; clamping the interval to each
//! segment it may point into yields a finite set of words, and the union
//! over a block's accesses (over-approximated by the interval join per
//! segment) bounds the block-instance working set. The bound is sound by
//! construction: the dynamic reuse tracker
//! (`tyr_stats::locality::WorkingSet`) can never observe more distinct
//! lines than the static interval covers, which `repro verify`
//! cross-validates on every kernel.
//!
//! An access whose address carries *no* segment provenance (a computed
//! pointer, a loaded address) admits no bound: the block's footprint scales
//! with the input, and the analysis reports the offending access as the
//! witness instead of a number.

use std::collections::BTreeMap;

use tyr_dfg::{BlockId, Dfg, NodeId, NodeKind};
use tyr_ir::{MemoryImage, Value};

use crate::absint::indexset::{IndexSets, Segment};
use crate::absint::si::Si;
use crate::absint::EdgeMaps;

/// Words per cache line used to convert word intervals into line bounds.
/// Matches `tyr_stats::locality::DEFAULT_LINE_WORDS` so static bounds and
/// dynamic observations are in the same unit.
pub const LINE_WORDS: i64 = 8;

/// Why an access admits no static footprint bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unbounded {
    /// The address value carries no segment provenance: it may point
    /// anywhere, so the footprint scales with the input.
    NoProvenance,
}

/// One memory access that defeats the analysis, reported as the witness on
/// the enclosing block's `W002`.
#[derive(Debug, Clone)]
pub struct UnboundedAccess {
    /// The offending `load`/`store`/`store+` node.
    pub node: NodeId,
    /// Whether the access writes.
    pub write: bool,
    /// Why no bound exists.
    pub why: Unbounded,
}

/// The footprint bound of one concurrent block (per block *instance* —
/// every instance runs the same nodes over the same address intervals).
#[derive(Debug, Clone)]
pub struct BlockFootprint {
    /// The block.
    pub block: BlockId,
    /// Its name.
    pub name: String,
    /// Upper bound on distinct words the block's accesses can touch.
    pub words: u64,
    /// Upper bound on distinct [`LINE_WORDS`]-word lines.
    pub lines: u64,
    /// Per-segment word bounds (`(segment name, words)`), for rendering.
    pub segments: Vec<(String, u64)>,
    /// Accesses in this block with no static bound; when non-empty, `words`
    /// and `lines` cover only the *bounded* accesses and the block's true
    /// footprint is input-scaled.
    pub unbounded: Vec<UnboundedAccess>,
}

/// The whole-graph footprint analysis result.
#[derive(Debug, Clone, Default)]
pub struct FootprintAnalysis {
    /// Per-block bounds, in block order, for blocks containing any access.
    pub per_block: Vec<BlockFootprint>,
}

impl FootprintAnalysis {
    /// Total word bound across blocks; `None` if any access is unbounded.
    pub fn total_words(&self) -> Option<u64> {
        self.bounded().then(|| self.per_block.iter().map(|b| b.words).sum())
    }

    /// Total line bound across blocks; `None` if any access is unbounded.
    pub fn total_lines(&self) -> Option<u64> {
        self.bounded().then(|| self.per_block.iter().map(|b| b.lines).sum())
    }

    /// Whether every access in the graph admits a static bound.
    pub fn bounded(&self) -> bool {
        self.per_block.iter().all(|b| b.unbounded.is_empty())
    }
}

/// Number of words a finite strided interval covers.
fn si_words(si: Si) -> u64 {
    let step = si.step.max(1);
    ((si.hi - si.lo) / step + 1) as u64
}

/// Number of [`LINE_WORDS`]-word lines a finite interval spans.
fn si_lines(si: Si) -> u64 {
    (si.hi.div_euclid(LINE_WORDS) - si.lo.div_euclid(LINE_WORDS) + 1) as u64
}

/// Computes per-block working-set bounds for `dfg` running over `mem` with
/// `args` (the same execution context the race pass takes — segment layout
/// and argument classification both come from it).
pub fn analyze_footprint(dfg: &Dfg, mem: &MemoryImage, args: &[Value]) -> FootprintAnalysis {
    let maps = EdgeMaps::new(dfg);
    analyze_footprint_with(dfg, &maps, &IndexSets::new(dfg, &maps, mem, args))
}

/// [`analyze_footprint`] over already-built graph facts.
pub(crate) fn analyze_footprint_with(
    dfg: &Dfg,
    maps: &EdgeMaps,
    index: &IndexSets,
) -> FootprintAnalysis {
    let segments = &index.segments;

    // Per (block, segment): the join of every clamped access interval.
    let mut joined: BTreeMap<(u32, usize), Si> = BTreeMap::new();
    let mut unbounded: BTreeMap<u32, Vec<UnboundedAccess>> = BTreeMap::new();
    let mut touched_blocks: Vec<u32> = Vec::new();

    for (ni, node) in dfg.nodes().enumerate() {
        let write = match node.kind() {
            NodeKind::Load => false,
            NodeKind::Store | NodeKind::StoreAdd => true,
            _ => continue,
        };
        let addr = index.address(dfg, maps, ni);
        if addr.is_bottom() {
            continue; // no token ever reaches this access
        }
        let b = node.block().0;
        if !touched_blocks.contains(&b) {
            touched_blocks.push(b);
        }
        let Some(si) = addr.num else { continue };
        if addr.mask == 0 {
            unbounded.entry(b).or_default().push(UnboundedAccess {
                node: NodeId(ni as u32),
                write,
                why: Unbounded::NoProvenance,
            });
            continue;
        }
        for (s, seg) in segments.iter().enumerate() {
            if addr.mask & (1 << s) == 0 {
                continue;
            }
            let Some(clamped) = si.clamp(seg.base, seg.base + seg.len - 1) else { continue };
            joined
                .entry((b, s))
                .and_modify(|acc| *acc = Si::join(*acc, clamped))
                .or_insert(clamped);
        }
    }

    touched_blocks.sort_unstable();
    let per_block = touched_blocks
        .into_iter()
        .map(|b| {
            let mut words = 0u64;
            let mut lines = 0u64;
            let mut seg_bounds = Vec::new();
            for ((_, s), si) in joined.range((b, 0)..(b, usize::MAX)) {
                let seg: &Segment = &segments[*s];
                // The join can spill past the segment; the segment itself is
                // always a valid cap.
                let w = si_words(*si).min(seg.len as u64);
                let l = si_lines(*si).min((seg.len as u64).div_ceil(LINE_WORDS as u64).max(1) + 1);
                words += w;
                lines += l;
                seg_bounds.push((seg.name.clone(), w));
            }
            BlockFootprint {
                block: BlockId(b),
                name: dfg
                    .blocks
                    .get(b as usize)
                    .map(|bl| bl.name.clone())
                    .unwrap_or_else(|| format!("cb{b}")),
                words,
                lines,
                segments: seg_bounds,
                unbounded: unbounded.remove(&b).unwrap_or_default(),
            }
        })
        .collect();

    FootprintAnalysis { per_block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, InKind, PortRef};
    use tyr_ir::AluOp;

    fn image() -> MemoryImage {
        let mut mem = MemoryImage::new();
        mem.alloc("a", 16);
        mem.alloc("b", 32);
        mem
    }

    /// source → load a[k] (k = 0,2,4,…) in a strided loop: the footprint is
    /// the even words of `a`, bounded by the segment.
    #[test]
    fn strided_loop_footprint_is_segment_bounded() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let k = g.add_node(NodeKind::Merge, root, vec![InKind::Imm(base), InKind::Wire], 1, "k");
        let bump = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Wire, InKind::Imm(2)],
            1,
            "bump",
        );
        let ld = g.add_node(NodeKind::Load, root, vec![InKind::Wire], 1, "ld");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: k, port: 1 });
        g.connect(k, 0, PortRef { node: bump, port: 0 });
        g.connect(bump, 0, PortRef { node: k, port: 1 });
        g.connect(k, 0, PortRef { node: ld, port: 0 });
        g.connect(ld, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);

        // `k`'s immediate is the base of `a`, which classify() marks with
        // provenance — the widened loop counter keeps stride 2.
        let fp = analyze_footprint(&dfg, &mem, &[]);
        assert_eq!(fp.per_block.len(), 1);
        let b = &fp.per_block[0];
        assert!(b.unbounded.is_empty());
        // Even words of a 16-word segment: at most 8.
        assert_eq!(b.words, 8, "{b:?}");
        assert!(fp.total_words() == Some(8));
        assert!(b.lines >= 1 && b.lines <= 3, "{b:?}");
    }

    /// A load whose address arrives as a plain number (no segment base in
    /// its provenance) admits no bound: the block is input-scaled, with the
    /// access as witness.
    #[test]
    fn provenance_free_address_is_unbounded_with_witness() {
        let mem = image();
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let mov = g.add_node(NodeKind::Alu(AluOp::Mov), root, vec![InKind::Wire], 1, "mov");
        let ld = g.add_node(NodeKind::Load, root, vec![InKind::Wire], 1, "ld.data");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: mov, port: 0 });
        g.connect(mov, 0, PortRef { node: ld, port: 0 });
        g.connect(ld, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);

        // Argument 5 matches no segment base, so the address has a value
        // but no provenance.
        let fp = analyze_footprint(&dfg, &mem, &[5]);
        let b = fp.per_block.iter().find(|b| !b.unbounded.is_empty()).expect("witness");
        assert_eq!(b.unbounded[0].node, ld);
        assert_eq!(b.unbounded[0].why, Unbounded::NoProvenance);
        assert!(fp.total_words().is_none());
    }
}
