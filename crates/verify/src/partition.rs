//! Deterministic, seeded shard partitioner over a lowered DFG's blocks.
//!
//! The TYR premise — many small, bounded local tag spaces — makes the
//! concurrent block the natural unit of sharding: a block's token store and
//! tag space are private, so a shard boundary only ever crosses *token
//! edges*, never shared matching state. This module computes such a cut: a
//! multi-level greedy assignment followed by Kernighan–Lin-style
//! refinement, minimizing the number of inter-block token edges that cross
//! shards while keeping shard weights (wired input ports, the token-store
//! capacity currency of the W-pass) roughly balanced.
//!
//! The partitioner is **deterministic and seeded**: given the same graph,
//! the same shard count, the same seed, and the same co-location
//! constraints, it produces a byte-identical [`ShardPlan`] — snapshot tests
//! and the `--jobs` determinism test rely on this. All tie-breaks go
//! through a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)-style hash
//! of `(seed, cluster, shard)`; no map iteration order leaks into the
//! result.
//!
//! Safety is *not* this module's job: the P-pass
//! ([`crate::passes::verify_shards`]) derives co-location constraints from
//! undecided memory pairs, hands them in via `colocate`, and then proves
//! the resulting plan safe (P001–P004).

use tyr_dfg::{BlockId, Dfg, InKind, NodeId, NodeKind};

use crate::passes::dyn_targets;

/// Hard cap on the shard count: dynamic conflict tracking keys shard sets
/// as 64-bit masks.
pub const MAX_SHARDS: usize = 64;

/// A partition of a graph's concurrent blocks into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard count that was asked for.
    pub requested: usize,
    /// The effective shard count (≤ requested: clamped by the number of
    /// block clusters after co-location merging; empty shards are dropped).
    pub shards: usize,
    /// The seed the tie-breaks were derived from.
    pub seed: u64,
    /// Per-block shard assignment, indexed by `BlockId`. Shards are
    /// canonically renumbered in order of their lowest block id.
    pub assign: Vec<u32>,
    /// Inter-block token edges (node-level, `changeTag.dyn` routing
    /// included) that cross the cut.
    pub cut_edges: u64,
    /// All inter-block token edges, for context.
    pub inter_edges: u64,
    /// The co-location constraints the plan honored (block pairs forced
    /// into one shard), in sorted order.
    pub colocated: Vec<(BlockId, BlockId)>,
}

impl ShardPlan {
    /// The shard holding `block`.
    pub fn shard_of(&self, block: BlockId) -> u32 {
        self.assign.get(block.0 as usize).copied().unwrap_or(0)
    }

    /// Renders the plan deterministically: one line per shard listing its
    /// blocks and weight, then the cut summary. Byte-identical across runs
    /// for the same inputs (the determinism snapshot relies on it).
    pub fn render(&self, dfg: &Dfg) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== shard plan: {} shard(s) (requested {}, seed {}) ==",
            self.shards, self.requested, self.seed
        );
        for s in 0..self.shards {
            let mut ports = 0u64;
            for (bi, &a) in self.assign.iter().enumerate() {
                if a == s as u32 {
                    ports += block_ports(dfg, bi);
                }
            }
            let blocks: Vec<String> = self
                .assign
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == s as u32)
                .map(|(bi, _)| {
                    let name = dfg.blocks.get(bi).map(|b| b.name.as_str()).unwrap_or("<invalid>");
                    format!("cb{bi} '{name}'")
                })
                .collect();
            let _ = writeln!(out, "shard {s}: {} ({ports} wired port(s))", blocks.join(", "));
        }
        for &(a, b) in &self.colocated {
            let _ = writeln!(out, "colocated: {a}+{b} (undecided memory pair)");
        }
        let _ = writeln!(
            out,
            "cut: {} of {} inter-block token edge(s) cross shards",
            self.cut_edges, self.inter_edges
        );
        out
    }
}

/// Wired-input-port count of block `bi` — the vertex weight.
fn block_ports(dfg: &Dfg, bi: usize) -> u64 {
    dfg.nodes()
        .filter(|n| n.block().0 as usize == bi)
        .map(|n| n.ins().iter().filter(|i| matches!(i, InKind::Wire)).count() as u64)
        .sum()
}

/// SplitMix64 finalizer — the deterministic tie-break hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All inter-block node-level token edges of `dfg` as `(from_block,
/// to_block)` pairs with multiplicity, `changeTag.dyn` routing included.
fn inter_block_edges(dfg: &Dfg) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let block_of = |n: NodeId| dfg.node(n).block().0;
    for e in dfg.edges() {
        let (a, b) = (block_of(e.from), block_of(e.to));
        if a != b {
            out.push((a, b));
        }
    }
    for (ni, node) in dfg.nodes().enumerate() {
        if matches!(node.kind(), NodeKind::ChangeTagDyn) {
            for t in dyn_targets(dfg, NodeId(ni as u32)) {
                let (a, b) = (node.block().0, block_of(t.node));
                if a != b {
                    out.push((a, b));
                }
            }
        }
    }
    out
}

/// Partitions `dfg`'s blocks into (at most) `k` shards.
///
/// `colocate` lists block pairs that must land in the same shard (the
/// P-pass feeds undecided memory pairs here). The result is deterministic
/// in `(dfg, k, seed, colocate)`.
pub fn partition(dfg: &Dfg, k: usize, seed: u64, colocate: &[(BlockId, BlockId)]) -> ShardPlan {
    let nb = dfg.blocks.len();
    let requested = k.clamp(1, MAX_SHARDS);
    if nb == 0 {
        return ShardPlan {
            requested,
            shards: 0,
            seed,
            assign: Vec::new(),
            cut_edges: 0,
            inter_edges: 0,
            colocated: Vec::new(),
        };
    }

    // Union-find over co-location constraints → clusters, each represented
    // by its lowest block id.
    let mut parent: Vec<usize> = (0..nb).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut colocated: Vec<(BlockId, BlockId)> = Vec::new();
    for &(a, b) in colocate {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai >= nb || bi >= nb || ai == bi {
            continue;
        }
        colocated.push((BlockId(a.0.min(b.0)), BlockId(a.0.max(b.0))));
        let (ra, rb) = (find(&mut parent, ai), find(&mut parent, bi));
        if ra != rb {
            // Lower id becomes the representative: keeps cluster ids stable.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }
    colocated.sort();
    colocated.dedup();
    let cluster_of: Vec<usize> = (0..nb).map(|b| find(&mut parent, b)).collect();
    let mut clusters: Vec<usize> = cluster_of.clone();
    clusters.sort_unstable();
    clusters.dedup();
    let cluster_idx = |c: usize| clusters.binary_search(&c).unwrap();

    // Cluster-level weighted graph.
    let nc = clusters.len();
    let inter = inter_block_edges(dfg);
    let inter_edges = inter.len() as u64;
    let mut cweight = vec![0u64; nc]; // wired ports per cluster
    for b in 0..nb {
        cweight[cluster_idx(cluster_of[b])] += block_ports(dfg, b);
    }
    // Symmetric cluster-pair edge weights, as a sorted dense-ish list.
    let mut wedges: Vec<((usize, usize), u64)> = Vec::new();
    for &(a, b) in &inter {
        let (ca, cb) = (cluster_idx(cluster_of[a as usize]), cluster_idx(cluster_of[b as usize]));
        if ca == cb {
            continue;
        }
        let key = (ca.min(cb), ca.max(cb));
        match wedges.iter_mut().find(|(k2, _)| *k2 == key) {
            Some((_, w)) => *w += 1,
            None => wedges.push((key, 1)),
        }
    }
    wedges.sort();
    let neighbors = |c: usize| {
        wedges.iter().filter_map(move |&((a, b), w)| {
            if a == c {
                Some((b, w))
            } else if b == c {
                Some((a, w))
            } else {
                None
            }
        })
    };

    let k_eff = requested.min(nc).max(1);
    let total_weight: u64 = cweight.iter().sum();
    // Soft balance cap: a shard may exceed the even split by 25% (plus the
    // incoming cluster) before greedy assignment starts avoiding it.
    let cap = (total_weight / k_eff as u64).max(1) * 5 / 4 + 1;

    // Greedy seeded assignment: clusters in order of descending incident
    // edge weight (then ascending id) each go to the shard maximizing
    // connectivity, preferring under-cap shards; ties resolved by load,
    // then by the seeded hash.
    let mut order: Vec<usize> = (0..nc).collect();
    let incident: Vec<u64> = (0..nc).map(|c| neighbors(c).map(|(_, w)| w).sum()).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(incident[c]), c));

    let mut shard_of_cluster = vec![usize::MAX; nc];
    let mut load = vec![0u64; k_eff];
    for &c in &order {
        let mut gain = vec![0u64; k_eff];
        for (n, w) in neighbors(c) {
            if shard_of_cluster[n] != usize::MAX {
                gain[shard_of_cluster[n]] += w;
            }
        }
        let score = |s: usize| {
            let over = load[s] + cweight[c] > cap;
            // Lexicographic: respect the cap, maximize gain, minimize load,
            // break ties with the seeded hash.
            (
                over,
                std::cmp::Reverse(gain[s]),
                load[s],
                mix64(seed ^ (c as u64).wrapping_mul(0x9e3779b1) ^ s as u64),
            )
        };
        let best = (0..k_eff).min_by_key(|&s| score(s)).unwrap_or(0);
        shard_of_cluster[c] = best;
        load[best] += cweight[c];
    }

    // KL-style refinement: hill-climb single-cluster moves that strictly
    // reduce the cut weight (or keep it equal while improving balance),
    // bounded passes, deterministic scan order. Moves must respect the
    // balance cap — otherwise any connected graph collapses into one shard
    // (cut 0 is always the hill-climb optimum), undoing the greedy spread.
    for _pass in 0..8 {
        let mut moved = false;
        for c in 0..nc {
            let s = shard_of_cluster[c];
            let mut gain = vec![0u64; k_eff];
            for (n, w) in neighbors(c) {
                gain[shard_of_cluster[n]] += w;
            }
            let mut best: Option<(usize, u64)> = None; // (target, gain)
            for t in 0..k_eff {
                if t == s || load[t] + cweight[c] > cap {
                    continue;
                }
                let better_cut = gain[t] > gain[s];
                let same_cut_better_balance = gain[t] == gain[s] && load[s] > load[t] + cweight[c];
                if (better_cut || same_cut_better_balance)
                    && best.map(|(_, g)| gain[t] > g).unwrap_or(true)
                {
                    best = Some((t, gain[t]));
                }
            }
            if let Some((t, _)) = best {
                shard_of_cluster[c] = t;
                load[s] -= cweight[c];
                load[t] += cweight[c];
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Canonical renumbering: shards ordered by their lowest block id;
    // empty shards dropped.
    let mut remap = vec![u32::MAX; k_eff];
    let mut next = 0u32;
    for b in 0..nb {
        let s = shard_of_cluster[cluster_idx(cluster_of[b])];
        if remap[s] == u32::MAX {
            remap[s] = next;
            next += 1;
        }
    }
    let assign: Vec<u32> =
        (0..nb).map(|b| remap[shard_of_cluster[cluster_idx(cluster_of[b])]]).collect();
    let cut_edges =
        inter.iter().filter(|&&(a, b)| assign[a as usize] != assign[b as usize]).count() as u64;

    ShardPlan { requested, shards: next as usize, seed, assign, cut_edges, inter_edges, colocated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::{Operand, Program};

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
    fn partition_is_total_and_respects_k() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let plan = partition(&dfg, 2, 5, &[]);
        assert_eq!(plan.assign.len(), dfg.blocks.len());
        assert!(plan.shards <= 2);
        assert!(plan.shards >= 1);
        assert!(plan.cut_edges <= plan.inter_edges);
    }

    #[test]
    fn partition_is_deterministic() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let a = partition(&dfg, 3, 42, &[]);
        let b = partition(&dfg, 3, 42, &[]);
        assert_eq!(a, b);
        assert_eq!(a.render(&dfg), b.render(&dfg));
    }

    #[test]
    fn colocation_constraints_are_honored() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let nb = dfg.blocks.len();
        assert!(nb >= 3, "expected root + two loop blocks, got {nb}");
        let pair = (BlockId(1), BlockId(2));
        let plan = partition(&dfg, nb, 7, &[pair]);
        assert_eq!(plan.shard_of(pair.0), plan.shard_of(pair.1));
        assert_eq!(plan.colocated, vec![pair]);
    }

    #[test]
    fn k_one_means_no_cut() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let plan = partition(&dfg, 1, 0, &[]);
        assert_eq!(plan.shards, 1);
        assert_eq!(plan.cut_edges, 0);
    }
}
