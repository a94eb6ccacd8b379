//! The shard pass (`P…`): proven-safe DFG partitioning with progress
//! summaries — the static enabling layer for a sharded multi-worker engine.
//!
//! A shard plan ([`crate::partition::ShardPlan`]) splits the graph's
//! concurrent blocks across K workers. Splitting blindly risks exactly the
//! failures the rest of this crate exists to rule out, so the pass *proves*
//! a plan safe before anyone builds machinery on it:
//!
//! * **P001** ([`Code::ShardMemory`]) — cross-shard memory disjointness
//!   from the strided-interval index sets. Every cross-block access pair
//!   involving a plain `store`, unordered by any dependence path, is judged
//!   exactly as the race pass judges same-block pairs: proven-disjoint
//!   pairs become *claims* (cross-validated dynamically by
//!   `tyr_stats::ShardCrossings`), proven collisions split across shards
//!   are hard errors with the witness index, and undecided pairs demote to
//!   warnings that force the two blocks into one shard (fed to the
//!   partitioner as co-location constraints).
//! * **P002** ([`Code::ShardTagDemand`]) — per-shard tag-space demand,
//!   reusing the T-pass bounds: a shard whose resident spaces statically
//!   demand more tags than the policy can ever grant would wedge alone.
//! * **P003** ([`Code::ShardProgress`]) — progress summaries over the cut:
//!   a per-cut-edge "could-result-in" reachability matrix (the
//!   timely-dataflow frontier skeleton). The certificate checks that every
//!   *live* cut edge is derivable from the source frontier by composing
//!   intra-shard reachability with cut-edge hops — so a distributed
//!   termination detector observing shard-local quiescence plus empty
//!   channels cannot miss pending work. Cut edges on could-result-in
//!   cycles (which need multi-round confirmation) are counted.
//! * **P004** ([`Code::ShardTraffic`]) — static cross-shard traffic: per
//!   directed shard boundary, the cut-edge count and a peak in-flight token
//!   bound scaled by the consumer blocks' concurrent-instance bounds
//!   (W001); per shard, the boundary live-state bound that `repro shard`
//!   gates against the dynamic tracker's observed peak.

use std::collections::BTreeMap;

use tyr_dfg::{BlockId, Dfg, InKind, NodeId, NodeKind};
use tyr_ir::{MemoryImage, Value};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;

use crate::absint::indexset::IndexSets;
use crate::absint::EdgeMaps;
use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::partition::{partition, ShardPlan};
use crate::passes::races::{collect_accesses, judge, Acc, Verdict};
use crate::passes::workingset::Instances;
use crate::passes::{analyze_live_state, reach};

/// The per-shard resource budget the plan is certified against: the tag
/// policy of a tagged elaboration, or the channel capacities of an ordered
/// one. Drives P002 (tagged only) and the P004 in-flight scaling.
#[derive(Clone, Copy)]
pub enum ShardBudget<'a> {
    /// A tagged elaboration under this policy.
    Tagged(&'a TagPolicy),
    /// An ordered elaboration under these FIFO capacities.
    Ordered(&'a ChannelCapacity),
}

/// A cross-block access pair proven to always collide (same word, at least
/// one plain store, no ordering path) — a hard error if split across
/// shards.
#[derive(Debug, Clone)]
pub struct ShardCollision {
    /// The first access.
    pub a: NodeId,
    /// The second access.
    pub b: NodeId,
    /// The first access's block.
    pub block_a: BlockId,
    /// The second access's block.
    pub block_b: BlockId,
    /// The segment both addresses provably land in.
    pub segment: String,
    /// The colliding index within the segment.
    pub index: i64,
}

/// The P001 memory verdicts over cross-block access pairs: which block
/// pairs the pass *claims* disjoint (the claims the dynamic tracker
/// cross-checks), which it could not decide (forced into one shard), and
/// which provably collide.
#[derive(Debug, Clone, Default)]
pub struct MemClaims {
    /// Block pairs (lower id first) with at least one relevant access pair,
    /// every one of them proven disjoint. Contradicting one of these at
    /// runtime falsifies the plan.
    pub disjoint: Vec<(BlockId, BlockId)>,
    /// Block pairs with at least one undecided access pair: co-located by
    /// the partitioner so the undecidedness stays within one shard.
    pub undecided: Vec<(BlockId, BlockId)>,
    /// Proven always-colliding pairs, with witnesses.
    pub collisions: Vec<ShardCollision>,
}

/// One directed shard boundary's static traffic estimate (P004).
#[derive(Debug, Clone)]
pub struct BoundaryFlow {
    /// Producing shard.
    pub from: u32,
    /// Consuming shard.
    pub to: u32,
    /// Node-level token edges crossing this boundary (dyn routing
    /// included).
    pub edges: u64,
    /// Peak in-flight tokens over those edges: each edge targets one
    /// `(node, port)` cell, holding at most one token per concurrent
    /// instance of the consumer block. `None` when some consumer block is
    /// instance-unbounded.
    pub inflight: Option<u64>,
}

/// Per-shard tag-space accounting (P002).
#[derive(Debug, Clone)]
pub struct ShardTagCheck {
    /// The shard.
    pub shard: u32,
    /// Allocated tag spaces resident in the shard.
    pub spaces: u64,
    /// Sum of the spaces' static minimum tag demands (T-pass).
    pub demand: u64,
    /// What the policy can grant the shard: the sum of the spaces'
    /// configured tag counts under local spaces, the whole pool under a
    /// bounded global policy, `None` under an unbounded one.
    pub budget: Option<u64>,
}

/// A certified shard plan: the partition plus every statically derived
/// table the dynamic tracker and the CLI need — node→shard map, boundary
/// consumers, per-shard in-flight bounds, memory claims.
#[derive(Clone)]
pub struct ShardCertificate {
    /// The partition.
    pub plan: ShardPlan,
    /// P001 memory verdicts; `None` when no memory context was supplied.
    pub mem: Option<MemClaims>,
    /// Per-node shard assignment (the node's block's shard).
    pub node_shard: Vec<u32>,
    /// Per-node flag: has a predecessor (dyn routing included) in another
    /// shard, i.e. receives cross-shard tokens.
    pub boundary: Vec<bool>,
    /// Per-node flag: is a plain `store` (used by the dynamic conflict
    /// tracker to distinguish stores from commutative `storeAdd`s).
    pub plain_store: Vec<bool>,
    /// Per-shard peak in-flight bound over its boundary consumers:
    /// `Σ wired_ports(n) × instances(block(n))` (tagged) or the FIFO
    /// capacity sum (ordered). `None` when unbounded. This is the number
    /// `repro shard` gates against the observed peak.
    pub shard_inflight: Vec<Option<u64>>,
    /// Per-shard boundary-consumer counts (for rendering).
    pub shard_boundary_nodes: Vec<u64>,
    /// Directed boundary traffic estimates, sorted by `(from, to)`.
    pub boundaries: Vec<BoundaryFlow>,
    /// P002 accounting; `None` for untagged budgets.
    pub tag_checks: Option<Vec<ShardTagCheck>>,
}

/// A node-level token edge crossing the cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CutEdge {
    from: NodeId,
    to: NodeId,
}

/// Collects every node-level token edge whose endpoints live in different
/// shards: each static edge (duplicates kept), then each synthesized
/// `changeTag.dyn` edge no static edge already covers, once.
fn collect_cut_edges(dfg: &Dfg, maps: &EdgeMaps, node_shard: &[u32]) -> Vec<CutEdge> {
    let mut out = Vec::new();
    for e in dfg.edges() {
        if node_shard[e.from.0 as usize] != node_shard[e.to.0 as usize] {
            out.push(CutEdge { from: e.from, to: e.to });
        }
    }
    for ni in 0..dfg.len() {
        for &to in maps.dyn_succs(ni) {
            if node_shard[ni] != node_shard[to.0 as usize] {
                out.push(CutEdge { from: NodeId(ni as u32), to });
            }
        }
    }
    out
}

/// Derives the P001 memory verdicts for every cross-block access pair.
fn mem_claims(dfg: &Dfg, maps: &EdgeMaps, index: &IndexSets) -> MemClaims {
    let segments = &index.segments;
    // Every reachable access; one with no segment provenance (mask 0) may
    // touch anything, so unlike the race pass we must not drop it — it
    // poisons its block's pairs to "undecided".
    let accesses = collect_accesses(dfg, maps, index, |addr| !addr.is_bottom());

    // Per block pair (lower id first): did we see a relevant access pair,
    // and was any of them undecided?
    let mut seen: BTreeMap<(u32, u32), bool> = BTreeMap::new(); // value: any undecided
    let mut collisions = Vec::new();
    for (i, x) in accesses.iter().enumerate() {
        for y in &accesses[i + 1..] {
            let (a, b, ma, mb) = (x.node, y.node, &x.addr, &y.addr);
            let (ba, bb) = (dfg.node(a).block(), dfg.node(b).block());
            if ba == bb || !(x.kind == Acc::Store || y.kind == Acc::Store) || x.ordered_with(y) {
                continue;
            }
            let key = (ba.0.min(bb.0), ba.0.max(bb.0));
            let entry = seen.entry(key).or_insert(false);
            if ma.mask == 0 || mb.mask == 0 {
                *entry = true; // no provenance on one side: undecidable
                continue;
            }
            let overlap = ma.mask & mb.mask;
            if overlap == 0 {
                continue; // disjoint by segment separation
            }
            match judge(segments, overlap, ma, mb) {
                Verdict::Disjoint => {}
                Verdict::Collides { segment, index } => collisions.push(ShardCollision {
                    a,
                    b,
                    block_a: ba,
                    block_b: bb,
                    segment: segments[segment].name.clone(),
                    index,
                }),
                Verdict::Unknown => *entry = true,
            }
        }
    }

    let has_collision = |&(x, y): &(u32, u32)| {
        collisions
            .iter()
            .any(|c| (c.block_a.0.min(c.block_b.0), c.block_a.0.max(c.block_b.0)) == (x, y))
    };
    let disjoint = seen
        .iter()
        .filter(|(k, &undecided)| !undecided && !has_collision(k))
        .map(|(&(x, y), _)| (BlockId(x), BlockId(y)))
        .collect();
    let undecided = seen
        .iter()
        .filter(|(_, &undecided)| undecided)
        .map(|(&(x, y), _)| (BlockId(x), BlockId(y)))
        .collect();
    MemClaims { disjoint, undecided, collisions }
}

/// Computes a shard plan for `dfg` and certifies it: runs the P001 memory
/// judgments first (undecided pairs become co-location constraints), then
/// partitions, then derives every static table P002–P004 and the dynamic
/// tracker need. Deterministic in all arguments.
pub fn analyze_shards(
    dfg: &Dfg,
    k: usize,
    seed: u64,
    budget: Option<ShardBudget<'_>>,
    memory: Option<(&MemoryImage, &[Value])>,
) -> ShardCertificate {
    let maps = EdgeMaps::new(dfg);
    let index = memory.map(|(mem, args)| IndexSets::new(dfg, &maps, mem, args));
    analyze_shards_with(dfg, &maps, k, seed, budget, index.as_ref())
}

/// [`analyze_shards`] over already-built graph facts; `index` is present
/// exactly when a memory context was supplied.
fn analyze_shards_with(
    dfg: &Dfg,
    maps: &EdgeMaps,
    k: usize,
    seed: u64,
    budget: Option<ShardBudget<'_>>,
    index: Option<&IndexSets>,
) -> ShardCertificate {
    let mem = index.map(|index| mem_claims(dfg, maps, index));
    let colocate: Vec<(BlockId, BlockId)> =
        mem.as_ref().map(|c| c.undecided.clone()).unwrap_or_default();
    let plan = partition(dfg, k, seed, &colocate);

    let node_shard: Vec<u32> = dfg.nodes().map(|n| plan.shard_of(n.block())).collect();
    let boundary: Vec<bool> = (0..dfg.len())
        .map(|ni| maps.preds[ni].iter().any(|p| node_shard[p.0 as usize] != node_shard[ni]))
        .collect();
    let plain_store: Vec<bool> = dfg.nodes().map(|n| matches!(n.kind(), NodeKind::Store)).collect();

    // Concurrent-instance bound per block (tagged budgets), used to scale
    // both the per-shard boundary bound and the per-boundary traffic.
    let instances: Option<Vec<Instances>> = match budget {
        Some(ShardBudget::Tagged(policy)) => {
            Some(analyze_live_state(dfg, policy).per_block.iter().map(|b| b.instances).collect())
        }
        _ => None,
    };
    let wired = |ni: usize| {
        dfg.node(NodeId(ni as u32)).ins().iter().filter(|i| matches!(i, InKind::Wire)).count()
            as u64
    };
    // Peak tokens parked at one consumer node: every wired input port holds
    // at most one token per concurrent instance of the node's block.
    let node_bound = |ni: usize| -> Option<u64> {
        let n = dfg.node(NodeId(ni as u32));
        match budget {
            Some(ShardBudget::Tagged(_)) => {
                match instances.as_ref().unwrap()[n.block().0 as usize] {
                    Instances::Bounded(i) => Some(wired(ni) * i),
                    Instances::Unbounded => None,
                }
            }
            Some(ShardBudget::Ordered(caps)) => Some(
                (0..n.ins().len())
                    .filter(|&p| matches!(n.ins()[p], InKind::Wire))
                    .map(|p| caps.of(ni as u32, p as u16) as u64)
                    .sum(),
            ),
            None => None,
        }
    };

    let mut shard_inflight: Vec<Option<u64>> = vec![Some(0); plan.shards];
    let mut shard_boundary_nodes = vec![0u64; plan.shards];
    for ni in 0..dfg.len() {
        if !boundary[ni] {
            continue;
        }
        let s = node_shard[ni] as usize;
        shard_boundary_nodes[s] += 1;
        shard_inflight[s] = match (shard_inflight[s], node_bound(ni)) {
            (Some(acc), Some(b)) => Some(acc + b),
            _ => None,
        };
    }

    // Per-edge in-flight bound: a cut edge targets one (node, port) cell —
    // one token per concurrent consumer instance.
    let edge_bound = |e: &CutEdge| -> Option<u64> {
        match budget {
            Some(ShardBudget::Tagged(_)) => {
                match instances.as_ref().unwrap()[dfg.node(e.to).block().0 as usize] {
                    Instances::Bounded(i) => Some(i),
                    Instances::Unbounded => None,
                }
            }
            // Without port attribution for dyn edges we conservatively use
            // the consumer's total wired capacity.
            Some(ShardBudget::Ordered(_)) => node_bound(e.to.0 as usize),
            None => None,
        }
    };
    let cut = collect_cut_edges(dfg, maps, &node_shard);
    let mut flows: BTreeMap<(u32, u32), (u64, Option<u64>)> = BTreeMap::new();
    for e in &cut {
        let key = (node_shard[e.from.0 as usize], node_shard[e.to.0 as usize]);
        let entry = flows.entry(key).or_insert((0, Some(0)));
        entry.0 += 1;
        entry.1 = match (entry.1, edge_bound(e)) {
            (Some(acc), Some(b)) => Some(acc + b),
            _ => None,
        };
    }
    let boundaries = flows
        .into_iter()
        .map(|((from, to), (edges, inflight))| BoundaryFlow { from, to, edges, inflight })
        .collect();

    // P002 accounting (tagged budgets only).
    let tag_checks = match budget {
        Some(ShardBudget::Tagged(policy)) => {
            let demand = crate::passes::analyze_tag_demand(dfg);
            let mut per_shard: BTreeMap<u32, ShardTagCheck> = BTreeMap::new();
            for &(space, need) in &demand.per_space {
                let s = plan.shard_of(space);
                let entry = per_shard.entry(s).or_insert(ShardTagCheck {
                    shard: s,
                    spaces: 0,
                    demand: 0,
                    budget: match policy {
                        TagPolicy::Local { .. } => Some(0),
                        TagPolicy::GlobalBounded { tags } => Some(*tags as u64),
                        TagPolicy::GlobalUnbounded => None,
                    },
                });
                entry.spaces += 1;
                entry.demand += need as u64;
                if let TagPolicy::Local { default_tags, overrides } = policy {
                    let name = dfg.blocks.get(space.0 as usize).map(|b| b.name.as_str());
                    let tags = name
                        .and_then(|nm| overrides.iter().find(|(o, _)| o == nm))
                        .map(|&(_, t)| t)
                        .unwrap_or(*default_tags)
                        .max(1) as u64;
                    entry.budget = entry.budget.map(|b| b + tags);
                }
            }
            Some(per_shard.into_values().collect())
        }
        _ => None,
    };

    ShardCertificate {
        plan,
        mem,
        node_shard,
        boundary,
        plain_store,
        shard_inflight,
        shard_boundary_nodes,
        boundaries,
        tag_checks,
    }
}

/// Runs the P001–P004 checks over an already-computed certificate.
pub fn check_shards(dfg: &Dfg, cert: &ShardCertificate) -> Vec<Diagnostic> {
    check_shards_with(dfg, &EdgeMaps::new(dfg), cert)
}

/// [`check_shards`] over already-built edge maps.
fn check_shards_with(dfg: &Dfg, maps: &EdgeMaps, cert: &ShardCertificate) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_memory(dfg, cert, &mut out);
    check_tag_budgets(cert, &mut out);
    check_progress(dfg, maps, cert, &mut out);
    check_traffic(cert, &mut out);
    out
}

/// P001: cross-shard memory disjointness.
fn check_memory(dfg: &Dfg, cert: &ShardCertificate, out: &mut Vec<Diagnostic>) {
    let Some(claims) = &cert.mem else {
        let mut d = Diagnostic::global(
            Code::ShardMemory,
            "no memory context supplied: cross-shard disjointness not applicable".to_string(),
        );
        d.severity = Severity::Note;
        out.push(d);
        return;
    };
    let mut cross_collisions = 0usize;
    for c in &claims.collisions {
        let (sa, sb) = (cert.plan.shard_of(c.block_a), cert.plan.shard_of(c.block_b));
        if sa != sb {
            cross_collisions += 1;
            let mut d = Diagnostic::at_node(
                Code::ShardMemory,
                dfg,
                c.a,
                format!(
                    "cross-shard accesses always collide at '{}' index {} (shard {sa} vs \
                     shard {sb} {} '{}'): this cut is unsafe; colocate the blocks or use \
                     storeAdd",
                    c.segment,
                    c.index,
                    c.b,
                    dfg.node(c.b).label(),
                ),
            );
            d.severity = Severity::Error;
            out.push(d);
        } else {
            out.push(Diagnostic::at_node(
                Code::ShardMemory,
                dfg,
                c.a,
                format!(
                    "accesses always collide at '{}' index {} (with {} '{}'); both blocks \
                     are in shard {sa}, so the cut is safe, but the same-shard race stands",
                    c.segment,
                    c.index,
                    c.b,
                    dfg.node(c.b).label(),
                ),
            ));
        }
    }
    for &(a, b) in &claims.undecided {
        let s = cert.plan.shard_of(a);
        out.push(Diagnostic::at_block(
            Code::ShardMemory,
            dfg,
            a,
            format!(
                "undecided memory overlap with {b}: blocks forced into one shard \
                 (shard {s}) instead of proving the cut",
            ),
        ));
    }
    let mut d = Diagnostic::global(
        Code::ShardMemory,
        format!(
            "cross-shard memory disjointness: {} block pair(s) proven disjoint, {} forced \
             together (undecided), {} cross-shard collision(s)",
            claims.disjoint.len(),
            claims.undecided.len(),
            cross_collisions,
        ),
    );
    d.severity = Severity::Note;
    out.push(d);
}

/// P002: per-shard tag demand vs budget.
fn check_tag_budgets(cert: &ShardCertificate, out: &mut Vec<Diagnostic>) {
    let Some(checks) = &cert.tag_checks else { return };
    if checks.is_empty() {
        out.push(Diagnostic::global(
            Code::ShardTagDemand,
            "no allocated tag spaces: per-shard tag demand is trivially met".to_string(),
        ));
        return;
    }
    for c in checks {
        match c.budget {
            Some(b) if c.demand > b => {
                let mut d = Diagnostic::global(
                    Code::ShardTagDemand,
                    format!(
                        "shard {}: {} tag space(s) statically demand {} tag(s) but the \
                         policy grants at most {b}: the shard wedges on its own",
                        c.shard, c.spaces, c.demand,
                    ),
                );
                d.severity = Severity::Error;
                out.push(d);
            }
            Some(b) => out.push(Diagnostic::global(
                Code::ShardTagDemand,
                format!(
                    "shard {}: {} tag space(s), demand {} of {b} tag(s) within budget",
                    c.shard, c.spaces, c.demand,
                ),
            )),
            None => out.push(Diagnostic::global(
                Code::ShardTagDemand,
                format!(
                    "shard {}: {} tag space(s), demand {} against an unbounded policy",
                    c.shard, c.spaces, c.demand,
                ),
            )),
        }
    }
}

/// P003: progress summaries over the cut.
fn check_progress(dfg: &Dfg, maps: &EdgeMaps, cert: &ShardCertificate, out: &mut Vec<Diagnostic>) {
    let cut = collect_cut_edges(dfg, maps, &cert.node_shard);
    if cut.is_empty() {
        out.push(Diagnostic::global(
            Code::ShardProgress,
            format!(
                "progress summary: empty cut across {} shard(s); shard-local quiescence \
                 is global quiescence",
                cert.plan.shards.max(1),
            ),
        ));
        return;
    }

    // Frontier derivation: starting from the source, alternate intra-shard
    // reachability with cut-edge hops until fixpoint. A cut edge is
    // *derived* once its producer is covered.
    let shard = &cert.node_shard;
    let mut covered = vec![false; dfg.len()];
    let mut work: Vec<NodeId> = Vec::new();
    covered[dfg.source.0 as usize] = true;
    work.push(dfg.source);
    let mut derived = vec![false; cut.len()];
    loop {
        // Intra-shard closure.
        while let Some(n) = work.pop() {
            for &m in &maps.succs[n.0 as usize] {
                if shard[m.0 as usize] == shard[n.0 as usize] && !covered[m.0 as usize] {
                    covered[m.0 as usize] = true;
                    work.push(m);
                }
            }
        }
        // Cut-edge hops from covered producers.
        let mut progressed = false;
        for (i, e) in cut.iter().enumerate() {
            if !derived[i] && covered[e.from.0 as usize] {
                derived[i] = true;
                if !covered[e.to.0 as usize] {
                    covered[e.to.0 as usize] = true;
                    work.push(e.to);
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Could-result-in matrix: e → f iff a token delivered over e can reach
    // f's producer. Cached full reachability per distinct consumer.
    let mut reach_of: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
    for e in &cut {
        reach_of.entry(e.to.0).or_insert_with(|| reach(&maps.succs, [e.to]));
    }
    let mut entries = 0u64;
    let mut cycles = 0u64;
    for e in &cut {
        let r = &reach_of[&e.to.0];
        for f in &cut {
            if r[f.from.0 as usize] {
                entries += 1;
            }
        }
        if r[e.from.0 as usize] {
            cycles += 1;
        }
    }

    // The certificate: every live cut edge (producer reachable from the
    // source at all) must be derivable through the frontier composition.
    let live = reach(&maps.succs, [dfg.source]);
    let mut ok = true;
    for (i, e) in cut.iter().enumerate() {
        if live[e.from.0 as usize] && !derived[i] {
            ok = false;
            let mut d = Diagnostic::at_node(
                Code::ShardProgress,
                dfg,
                e.from,
                format!(
                    "live cut edge to {} '{}' is not derivable from the source frontier: \
                     a distributed termination detector could miss work on it",
                    e.to,
                    dfg.node(e.to).label(),
                ),
            );
            d.severity = Severity::Error;
            out.push(d);
        }
    }
    if ok {
        out.push(Diagnostic::global(
            Code::ShardProgress,
            format!(
                "progress summary: {} cut edge(s), could-result-in matrix has {entries} \
                 reachable pair(s), {cycles} self-cyclic edge(s) (need multi-round \
                 confirmation); every live cut edge derives from the source frontier, so \
                 shard-local quiescence + empty channels implies global quiescence",
                cut.len(),
            ),
        ));
    }
}

/// P004: static cross-shard traffic estimates.
fn check_traffic(cert: &ShardCertificate, out: &mut Vec<Diagnostic>) {
    if cert.boundaries.is_empty() {
        out.push(Diagnostic::global(
            Code::ShardTraffic,
            "no cross-shard traffic: the cut carries no token edges".to_string(),
        ));
        return;
    }
    let fmt = |b: Option<u64>| match b {
        Some(v) => format!("{v}"),
        None => "unbounded".to_string(),
    };
    for f in &cert.boundaries {
        out.push(Diagnostic::global(
            Code::ShardTraffic,
            format!(
                "shard {} -> shard {}: {} cut edge(s), in-flight <= {} token(s)",
                f.from,
                f.to,
                f.edges,
                fmt(f.inflight),
            ),
        ));
    }
    for (s, (bound, nodes)) in
        cert.shard_inflight.iter().zip(&cert.shard_boundary_nodes).enumerate()
    {
        if *nodes == 0 {
            continue;
        }
        out.push(Diagnostic::global(
            Code::ShardTraffic,
            format!(
                "shard {s}: boundary live state <= {} token(s) across {nodes} boundary \
                 consumer(s)",
                fmt(*bound),
            ),
        ));
    }
}

/// Computes and certifies a shard plan in one call: partitions `dfg` into
/// (at most) `k` shards with `seed`, then runs P001–P004 into a
/// [`Report`] titled `title`.
pub fn verify_shards(
    title: impl Into<String>,
    dfg: &Dfg,
    k: usize,
    seed: u64,
    budget: Option<ShardBudget<'_>>,
    memory: Option<(&MemoryImage, &[Value])>,
) -> (ShardCertificate, Report) {
    let maps = EdgeMaps::new(dfg);
    let index = memory.map(|(mem, args)| IndexSets::new(dfg, &maps, mem, args));
    let cert = analyze_shards_with(dfg, &maps, k, seed, budget, index.as_ref());
    let mut report = Report::new(title);
    report.extend(check_shards_with(dfg, &maps, &cert));
    (cert, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::{GraphBuilder, PortRef};
    use tyr_ir::AluOp;

    fn image() -> MemoryImage {
        let mut mem = MemoryImage::new();
        mem.alloc("a", 16);
        mem
    }

    /// Two child blocks storing to fixed words of segment `a` (addressed as
    /// `base + offset` so classification sees the provenance), with nothing
    /// connecting them: the partitioner is free to split them.
    fn colliding_graph(base: i64, off_a: i64, off_b: i64) -> Dfg {
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let ba = g.add_block("wa", Some(root), false);
        let bb = g.add_block("wb", Some(root), false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let aa = g.add_node(
            NodeKind::Alu(AluOp::Add),
            ba,
            vec![InKind::Imm(base), InKind::Imm(off_a)],
            1,
            "addr.a",
        );
        let ab = g.add_node(
            NodeKind::Alu(AluOp::Add),
            bb,
            vec![InKind::Imm(base), InKind::Imm(off_b)],
            1,
            "addr.b",
        );
        let sa = g.add_node(NodeKind::Store, ba, vec![InKind::Wire, InKind::Wire], 1, "store.a");
        let sb = g.add_node(NodeKind::Store, bb, vec![InKind::Wire, InKind::Wire], 1, "store.b");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire, InKind::Wire], 0, "sink");
        g.connect(aa, 0, PortRef { node: sa, port: 0 });
        g.connect(ab, 0, PortRef { node: sb, port: 0 });
        g.connect(src, 0, PortRef { node: sa, port: 1 });
        g.connect(src, 0, PortRef { node: sb, port: 1 });
        g.connect(sa, 0, PortRef { node: sink, port: 0 });
        g.connect(sb, 0, PortRef { node: sink, port: 1 });
        g.finish(src, sink, 1)
    }

    #[test]
    fn cross_shard_collision_is_an_error() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let dfg = colliding_graph(base, 3, 3);
        let policy = TagPolicy::local(2);
        let (cert, report) = verify_shards(
            "collision",
            &dfg,
            4,
            5,
            Some(ShardBudget::Tagged(&policy)),
            Some((&mem, &[])),
        );
        let claims = cert.mem.as_ref().unwrap();
        assert_eq!(claims.collisions.len(), 1, "{report:?}");
        // The two worker blocks share no edges, so the partitioner splits
        // them — and the collision across the cut must be a hard error.
        if cert.plan.shard_of(BlockId(1)) != cert.plan.shard_of(BlockId(2)) {
            assert!(!report.is_clean(), "{}", report.render());
            assert!(report.has(Code::ShardMemory));
        }
    }

    #[test]
    fn disjoint_stores_are_claimed_and_clean() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let dfg = colliding_graph(base, 3, 9);
        let policy = TagPolicy::local(2);
        let (cert, report) = verify_shards(
            "disjoint",
            &dfg,
            4,
            5,
            Some(ShardBudget::Tagged(&policy)),
            Some((&mem, &[])),
        );
        let claims = cert.mem.as_ref().unwrap();
        assert!(claims.collisions.is_empty());
        assert_eq!(claims.disjoint, vec![(BlockId(1), BlockId(2))]);
        assert!(report.is_clean(), "{}", report.render());
    }

    /// An address with no segment provenance on one side makes the block
    /// pair undecided, which must co-locate the blocks.
    #[test]
    fn undecided_pair_is_forced_into_one_shard() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let ba = g.add_block("wa", Some(root), false);
        let bb = g.add_block("wb", Some(root), false);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        // wa stores at an input-dependent (provenance-free) address.
        let sa = g.add_node(NodeKind::Store, ba, vec![InKind::Wire, InKind::Imm(1)], 1, "store.a");
        let sb = g.add_node(
            NodeKind::Store,
            bb,
            vec![InKind::Imm(base + 1), InKind::Wire],
            1,
            "store.b",
        );
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire, InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: sa, port: 0 });
        g.connect(src, 0, PortRef { node: sb, port: 1 });
        g.connect(sa, 0, PortRef { node: sink, port: 0 });
        g.connect(sb, 0, PortRef { node: sink, port: 1 });
        let dfg = g.finish(src, sink, 1);

        // Argument 5 matches no segment base: sa's address is a plain
        // number with no provenance.
        let (cert, report) = verify_shards("undecided", &dfg, 4, 5, None, Some((&mem, &[5])));
        let claims = cert.mem.as_ref().unwrap();
        assert_eq!(claims.undecided, vec![(BlockId(1), BlockId(2))]);
        assert_eq!(cert.plan.shard_of(BlockId(1)), cert.plan.shard_of(BlockId(2)));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.warnings() >= 1, "{}", report.render());
    }

    #[test]
    fn over_budget_shard_is_an_error() {
        // A loop space demands 2 tags; a global pool of 1 cannot grant it.
        let mut g = GraphBuilder::new();
        let root = g.add_block("main", None, false);
        let lp = g.add_block("loop", Some(root), true);
        let src = g.add_node(NodeKind::Source, root, vec![], 1, "src");
        let al = g.add_node(
            NodeKind::Allocate { space: lp, kind: tyr_dfg::AllocKind::External },
            root,
            vec![InKind::Wire],
            1,
            "alloc",
        );
        let body = g.add_node(NodeKind::Alu(AluOp::Mov), lp, vec![InKind::Wire], 1, "body");
        let sink = g.add_node(NodeKind::Sink, root, vec![InKind::Wire], 0, "sink");
        g.connect(src, 0, PortRef { node: al, port: 0 });
        g.connect(al, 0, PortRef { node: body, port: 0 });
        g.connect(body, 0, PortRef { node: sink, port: 0 });
        let dfg = g.finish(src, sink, 1);

        let policy = TagPolicy::GlobalBounded { tags: 1 };
        let (cert, report) =
            verify_shards("budget", &dfg, 2, 5, Some(ShardBudget::Tagged(&policy)), None);
        let checks = cert.tag_checks.as_ref().unwrap();
        assert!(checks.iter().any(|c| c.demand > c.budget.unwrap()), "{checks:?}");
        assert!(!report.is_clean(), "{}", report.render());
        assert!(report.has(Code::ShardTagDemand));
    }

    #[test]
    fn progress_summary_derives_all_live_cut_edges() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let dfg = colliding_graph(base, 3, 9);
        let policy = TagPolicy::local(2);
        let (cert, report) = verify_shards(
            "progress",
            &dfg,
            4,
            5,
            Some(ShardBudget::Tagged(&policy)),
            Some((&mem, &[])),
        );
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.has(Code::ShardProgress));
        if cert.plan.shards > 1 {
            // Boundary consumers exist and carry finite bounds.
            assert!(cert.boundary.iter().any(|&b| b));
            assert!(cert.shard_inflight.iter().all(|b| b.is_some()));
        }
    }

    #[test]
    fn certificates_are_deterministic() {
        let mem = image();
        let base = mem.arrays().next().unwrap().1.base as i64;
        let dfg = colliding_graph(base, 3, 9);
        let policy = TagPolicy::local(2);
        let run = || {
            let (cert, report) = verify_shards(
                "det",
                &dfg,
                3,
                17,
                Some(ShardBudget::Tagged(&policy)),
                Some((&mem, &[])),
            );
            format!("{}{}", cert.plan.render(&dfg), report.render())
        };
        assert_eq!(run(), run());
    }
}
