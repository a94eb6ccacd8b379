//! The index-set analysis: segment provenance *and* strided-interval
//! address values, computed together on the monotone framework.
//!
//! This is the race pass's abstract domain. Each node's data output is
//! abstracted to an [`AbsVal`]:
//!
//! * `mask` — which memory segments the value may point into, as provenance
//!   bits (exact-base-match classification, propagated through address
//!   arithmetic; see the race-pass docs for why this is sound);
//! * `num` — a strided interval ([`Si`]) over-approximating the value
//!   *numerically*, regardless of provenance.
//!
//! The two components answer different questions at an access site. The
//! mask says *which arrays* the address may target (may-alias at segment
//! granularity — PR 1's whole story). The interval says *which words*: for
//! two accesses classified into a common segment, their concrete addresses
//! lie in their respective intervals, so [`Si::disjoint`] intervals prove
//! the accesses race-free, and two equal singletons prove they always
//! collide — with the witness index being the singleton minus the segment
//! base. Loop counters keep their stride through widening (see [`si`]), so
//! the classic even/odd and strided partitionings are proved disjoint even
//! with unknown trip counts.
//!
//! [`si`]: crate::absint::si

use tyr_dfg::{Dfg, NodeId, NodeKind};
use tyr_ir::{AluOp, MemoryImage, Value};

use crate::absint::si::Si;
use crate::absint::{fixpoint, input_value, Analysis, EdgeMaps, Lattice};

/// Up to this many segments are tracked (one provenance bit each); later
/// segments are left unclassified. Real kernels allocate well under this.
pub const MAX_SEGMENTS: usize = 64;

/// One tracked memory segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The array's name in the [`MemoryImage`].
    pub name: String,
    /// First word address.
    pub base: i64,
    /// Length in words.
    pub len: i64,
}

/// Extracts the tracked segments (first [`MAX_SEGMENTS`] arrays) from a
/// memory image.
pub fn segments_of(mem: &MemoryImage) -> Vec<Segment> {
    mem.arrays()
        .take(MAX_SEGMENTS)
        .map(|(n, r)| Segment { name: n.to_string(), base: r.base as i64, len: r.len as i64 })
        .collect()
}

/// The abstract value of one node output: segment provenance plus a
/// numeric strided interval.
///
/// Bottom (no token ever flows here) is `mask == 0 && num == None`. Every
/// reachable value has `num = Some(_)` — an unmodeled operator produces
/// [`Si::top`], never `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbsVal {
    /// Segment provenance bits (bit `i` = may point into segment `i`).
    pub mask: u64,
    /// Numeric over-approximation of the value; `None` iff bottom.
    pub num: Option<Si>,
}

impl AbsVal {
    /// Whether no value can flow here.
    pub fn is_bottom(&self) -> bool {
        self.mask == 0 && self.num.is_none()
    }

    /// A pure number with no segment provenance.
    pub fn number(si: Si) -> AbsVal {
        AbsVal { mask: 0, num: Some(si) }
    }

    /// The unknown-value top: any number, no provenance.
    pub fn unknown() -> AbsVal {
        AbsVal::number(Si::top())
    }

    fn lift2(a: &AbsVal, b: &AbsVal, mask: u64, op: impl Fn(Si, Si) -> Si) -> AbsVal {
        match (a.num, b.num) {
            (Some(x), Some(y)) => AbsVal { mask, num: Some(op(x, y)) },
            // Either side bottom: the node can never fire on these inputs.
            _ => AbsVal::default(),
        }
    }

    /// Abstract addition. Provenance is the union: `ptr + int` (and the
    /// degenerate `ptr + ptr`) stays classified, exactly as the segment
    /// analysis always propagated `add`.
    pub fn add(a: &AbsVal, b: &AbsVal) -> AbsVal {
        Self::lift2(a, b, a.mask | b.mask, Si::add)
    }

    /// Abstract subtraction; provenance as for [`add`](Self::add).
    pub fn sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
        Self::lift2(a, b, a.mask | b.mask, Si::sub)
    }

    /// Abstract multiplication. Scaling destroys base-plus-offset shape, so
    /// the result carries no provenance (matching the segment analysis,
    /// which never propagated pointers through `mul`).
    pub fn mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
        Self::lift2(a, b, 0, Si::mul)
    }
}

impl Lattice for AbsVal {
    fn bottom() -> Self {
        AbsVal::default()
    }

    fn join_from(&mut self, other: &Self) -> bool {
        let mask_changed = self.mask | other.mask != self.mask;
        self.mask |= other.mask;
        self.num.join_from(&other.num) || mask_changed
    }
}

/// The analysis client: classifies constants and program arguments against
/// the segment table and pushes [`AbsVal`]s through the value-preserving
/// and address-arithmetic operators.
pub struct IndexAnalysis<'a> {
    segments: &'a [Segment],
    args: &'a [Value],
}

impl<'a> IndexAnalysis<'a> {
    /// A client over `segments`, classifying `Source` ports via `args`.
    pub fn new(segments: &'a [Segment], args: &'a [Value]) -> Self {
        IndexAnalysis { segments, args }
    }

    /// Abstracts one concrete value: the exact singleton, plus a provenance
    /// bit for every segment whose base it equals exactly. (Sound because
    /// `MemoryImage` reserves word 0 as a guard, so no base is ever 0 and
    /// the ubiquitous constant 0 never aliases the first array.)
    pub fn classify(&self, v: Value) -> AbsVal {
        let mask = self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.base == v)
            .fold(0u64, |m, (i, _)| m | 1 << i);
        AbsVal { mask, num: Some(Si::exact(v)) }
    }
}

impl Analysis for IndexAnalysis<'_> {
    type Value = AbsVal;

    fn immediate(&self, _dfg: &Dfg, _node: usize, _port: u16, value: Value) -> AbsVal {
        self.classify(value)
    }

    fn transfer(&self, dfg: &Dfg, node: usize, input: &mut dyn FnMut(u16) -> AbsVal) -> AbsVal {
        let n = dfg.node(NodeId(node as u32));
        match n.kind() {
            NodeKind::Const(v) => self.classify(*v),
            // The source's per-port argument values are produced by
            // `output`; the node value itself is irrelevant.
            NodeKind::Source => AbsVal::unknown(),
            NodeKind::Alu(AluOp::Mov) => input(0),
            NodeKind::Alu(AluOp::Add) => AbsVal::add(&input(0), &input(1)),
            NodeKind::Alu(AluOp::Sub) => AbsVal::sub(&input(0), &input(1)),
            NodeKind::Alu(AluOp::Mul) => AbsVal::mul(&input(0), &input(1)),
            NodeKind::Alu(
                AluOp::Lt | AluOp::Le | AluOp::Gt | AluOp::Ge | AluOp::Eq | AluOp::Ne,
            ) => {
                if input(0).is_bottom() || input(1).is_bottom() {
                    AbsVal::default()
                } else {
                    AbsVal::number(Si::range(0, 1))
                }
            }
            NodeKind::Select => {
                let mut v = input(1);
                v.join_from(&input(2));
                if input(0).is_bottom() {
                    AbsVal::default()
                } else {
                    v
                }
            }
            NodeKind::Steer => {
                if input(0).is_bottom() {
                    AbsVal::default()
                } else {
                    input(1)
                }
            }
            NodeKind::Join => input(0),
            NodeKind::ChangeTag => input(1),
            NodeKind::ChangeTagDyn => input(2),
            NodeKind::Merge | NodeKind::CMerge { .. } => {
                let mut v = AbsVal::default();
                for p in 0..n.ins().len() {
                    v.join_from(&input(p as u16));
                }
                v
            }
            // Loads, remaining ALU ops, allocation, control: an unknown
            // number once any input is live, never a pointer.
            _ => {
                if (0..n.ins().len()).any(|p| !input(p as u16).is_bottom()) {
                    AbsVal::unknown()
                } else {
                    AbsVal::default()
                }
            }
        }
    }

    fn output(&self, dfg: &Dfg, node: usize, port: u16, value: &AbsVal) -> AbsVal {
        if matches!(dfg.node(NodeId(node as u32)).kind(), NodeKind::Source) {
            return match self.args.get(port as usize) {
                Some(&v) => self.classify(v),
                None => AbsVal::default(),
            };
        }
        value.clone()
    }

    fn widen(&self, old: &AbsVal, new: &AbsVal) -> AbsVal {
        // The mask component is finite-height; only the interval needs
        // widening.
        AbsVal {
            mask: old.mask | new.mask,
            num: match (old.num, new.num) {
                (Some(o), Some(n)) => Some(Si::widen(o, Si::join(o, n))),
                (o, n) => o.or(n),
            },
        }
    }
}

/// The fixpoint of the index-set analysis: one [`AbsVal`] per node.
pub fn analyze(dfg: &Dfg, maps: &EdgeMaps, segments: &[Segment], args: &[Value]) -> Vec<AbsVal> {
    fixpoint(dfg, maps, &IndexAnalysis::new(segments, args))
}

/// The index-set facts of one graph under one execution context — the
/// tracked segments and the fixpoint — computed once per verify call and
/// read by every memory pass (races, footprint, the shard pass's P001).
pub(crate) struct IndexSets<'a> {
    pub(crate) segments: Vec<Segment>,
    args: &'a [Value],
    values: Vec<AbsVal>,
}

impl<'a> IndexSets<'a> {
    pub(crate) fn new(dfg: &Dfg, maps: &EdgeMaps, mem: &MemoryImage, args: &'a [Value]) -> Self {
        let segments = segments_of(mem);
        let values = analyze(dfg, maps, &segments, args);
        IndexSets { segments, args, values }
    }

    /// The abstract address (input 0) of access node `node`.
    pub(crate) fn address(&self, dfg: &Dfg, maps: &EdgeMaps, node: usize) -> AbsVal {
        let analysis = IndexAnalysis::new(&self.segments, self.args);
        input_value(dfg, maps, &analysis, &self.values, node, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, InKind, PortRef};

    fn segs() -> Vec<Segment> {
        vec![
            Segment { name: "a".into(), base: 1, len: 8 },
            Segment { name: "b".into(), base: 9, len: 8 },
        ]
    }

    #[test]
    fn classification_is_exact_base_match() {
        let segs = segs();
        let an = IndexAnalysis::new(&segs, &[]);
        assert_eq!(an.classify(1).mask, 0b01);
        assert_eq!(an.classify(9).mask, 0b10);
        assert_eq!(an.classify(0).mask, 0, "the guard word belongs to no segment");
        assert_eq!(an.classify(5).mask, 0, "mid-segment values carry no provenance");
        assert_eq!(an.classify(9).num, Some(Si::exact(9)));
    }

    #[test]
    fn address_arithmetic_keeps_provenance_and_value() {
        let p = AbsVal { mask: 0b01, num: Some(Si::exact(1)) };
        let i = AbsVal::number(Si::progression(0, 2));
        let sum = AbsVal::add(&p, &i);
        assert_eq!(sum.mask, 0b01);
        assert_eq!(sum.num, Some(Si::progression(1, 2)));
        // Scaling drops provenance but keeps the interval.
        let scaled = AbsVal::mul(&i, &AbsVal::number(Si::exact(3)));
        assert_eq!(scaled.mask, 0);
        assert_eq!(scaled.num, Some(Si::progression(0, 6)));
        // Bottom is absorbing.
        assert!(AbsVal::add(&p, &AbsVal::default()).is_bottom());
    }

    /// A single-block counter loop storing to `a[2k]` and `a[2k+1]`:
    /// the fixpoint must find the two store addresses in disjoint residue
    /// classes of segment `a` even though the trip count is dynamic.
    #[test]
    fn loop_counter_widens_to_an_anchored_stride() {
        let segs = segs();
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        // k = merge(0, k + 2)
        let k = g.add_node(NodeKind::Merge, root, vec![InKind::Imm(0), InKind::Wire], 1, "k");
        let bump = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Wire, InKind::Imm(2)],
            1,
            "bump",
        );
        // even = 1 + k; odd = even + 1 (addresses into segment 'a').
        let even = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Imm(1), InKind::Wire],
            1,
            "even",
        );
        let odd = g.add_node(
            NodeKind::Alu(AluOp::Add),
            root,
            vec![InKind::Wire, InKind::Imm(1)],
            1,
            "odd",
        );
        let s0 =
            g.add_node(NodeKind::Store, root, vec![InKind::Wire, InKind::Imm(7)], 1, "store.even");
        let s1 =
            g.add_node(NodeKind::Store, root, vec![InKind::Wire, InKind::Imm(7)], 1, "store.odd");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: k, port: 1 });
        g.connect(k, 0, PortRef { node: bump, port: 0 });
        g.connect(bump, 0, PortRef { node: k, port: 1 });
        g.connect(k, 0, PortRef { node: even, port: 1 });
        g.connect(even, 0, PortRef { node: odd, port: 0 });
        g.connect(even, 0, PortRef { node: s0, port: 0 });
        g.connect(odd, 0, PortRef { node: s1, port: 0 });
        g.connect(s0, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);

        let maps = EdgeMaps::new(&dfg);
        let vals = analyze(&dfg, &maps, &segs, &[]);
        let ve = &vals[even.0 as usize];
        let vo = &vals[odd.0 as usize];
        assert_eq!(ve.mask, 0b01);
        assert_eq!(vo.mask, 0b01);
        let (e, o) = (ve.num.unwrap(), vo.num.unwrap());
        assert_eq!(e.step, 2, "even addresses: {e}");
        assert_eq!(o.step, 2, "odd addresses: {o}");
        assert!(Si::disjoint(e, o), "{e} vs {o} must be provably disjoint");
    }
}
