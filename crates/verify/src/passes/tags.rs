//! Static tag-demand analysis (Theorem 1 and Fig. 11, decided without
//! simulating).
//!
//! **Local spaces.** An `allocate` with reservation `r` needs `free > r`
//! tags in its space before it may pop, so a space's static minimum is
//! `1 + max r` over the allocates targeting it — 2 for loop spaces (the
//! external-edge allocate reserves one for the backedge), 1 for call-only
//! spaces. Configuring fewer tags than that is a guaranteed deadlock;
//! Theorem 1 says meeting it is also sufficient.
//!
//! **Bounded global pool.** The FCFS pool has no per-edge reservations, so
//! the flat analogue is the *sum* of space demands: below that, whether the
//! program completes depends on allocation interleaving. Worse, if an
//! allocate targeting space `c` itself *resides in* an allocated block
//! (allocation nesting: inner loops, calls from loops), concurrent demand
//! scales with trip counts — every outer context holds a tag while its
//! inner contexts request more, and a large enough input exhausts any fixed
//! pool with all holders waiting on each other. That is exactly the Fig. 11
//! deadlock, and it is decidable from the graph shape alone: report
//! [`GlobalPrediction::DeadlockNested`]. Self-allocation (a loop's tail
//! allocate lives in the block it allocates, replacing its own tag) is not
//! nesting and is excluded.

use tyr_dfg::{BlockId, Dfg, NodeKind, ROOT_BLOCK};
use tyr_sim::tagged::TagPolicy;

use crate::diag::{Code, Diagnostic};

/// Per-graph static tag requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagDemand {
    /// `(space, minimum tags)` for every space that is allocated from,
    /// in block order. The minimum is `1 + max reserve` over the space's
    /// allocates.
    pub per_space: Vec<(BlockId, usize)>,
    /// Whether any allocate resides in a block that is itself an allocation
    /// target (inner loops, calls from loops) — the shape that makes
    /// bounded global pools deadlock on large inputs.
    pub nested: bool,
}

impl TagDemand {
    /// The flat concurrent demand: sum of per-space minimums. A bounded
    /// global pool below this may deadlock even without nesting.
    pub fn flat_demand(&self) -> usize {
        self.per_space.iter().map(|&(_, d)| d).sum()
    }

    /// Minimum tags for `space`, if it is allocated from.
    pub fn for_space(&self, space: BlockId) -> Option<usize> {
        self.per_space.iter().find(|&&(s, _)| s == space).map(|&(_, d)| d)
    }
}

/// Computes the static tag demand of a lowered graph.
pub fn analyze_tag_demand(dfg: &Dfg) -> TagDemand {
    let mut per_space: Vec<(BlockId, usize)> = Vec::new();
    for n in dfg.nodes() {
        if let NodeKind::Allocate { space, kind } = n.kind() {
            let need = 1 + kind.reserve();
            match per_space.iter_mut().find(|(s, _)| s == space) {
                Some((_, d)) => *d = (*d).max(need),
                None => per_space.push((*space, need)),
            }
        }
    }
    per_space.sort_by_key(|&(s, _)| s.0);

    let is_target = |b: BlockId| per_space.iter().any(|&(s, _)| s == b);
    let nested = dfg.nodes().any(|n| match n.kind() {
        NodeKind::Allocate { space, .. } => {
            n.block() != *space && n.block() != ROOT_BLOCK && is_target(n.block())
        }
        _ => false,
    });
    TagDemand { per_space, nested }
}

/// What the analysis predicts for a bounded global pool of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalPrediction {
    /// Pool covers the flat demand and there is no allocation nesting.
    Safe,
    /// Pool is below the flat demand: completion depends on FCFS
    /// interleaving.
    MayDeadlock,
    /// Allocation nesting: concurrent demand grows with trip counts, so the
    /// pool deadlocks once the input is large enough (Fig. 11).
    DeadlockNested,
}

/// Predicts the fate of running this graph's allocations against a bounded
/// global FCFS pool of `pool` tags.
pub fn predict_global(demand: &TagDemand, pool: usize) -> GlobalPrediction {
    if demand.nested {
        GlobalPrediction::DeadlockNested
    } else if pool < demand.flat_demand() {
        GlobalPrediction::MayDeadlock
    } else {
        GlobalPrediction::Safe
    }
}

/// Checks a concrete [`TagPolicy`] against the graph's static demand.
pub fn check_tag_policy(dfg: &Dfg, policy: &TagPolicy) -> Vec<Diagnostic> {
    let demand = analyze_tag_demand(dfg);
    let mut out = Vec::new();
    match policy {
        TagPolicy::Local { default_tags, overrides } => {
            for &(space, need) in &demand.per_space {
                let name = dfg.blocks.get(space.0 as usize).map(|b| b.name.as_str());
                let tags = name
                    .and_then(|nm| overrides.iter().find(|(o, _)| o == nm))
                    .map(|&(_, t)| t)
                    .unwrap_or(*default_tags)
                    .max(1);
                if tags < need {
                    out.push(Diagnostic::at_block(
                        Code::InsufficientTags,
                        dfg,
                        space,
                        format!(
                            "tag space has {tags} tag(s) but statically needs {need} \
                             (1 + max allocate reservation); the engine will deadlock"
                        ),
                    ));
                }
            }
        }
        TagPolicy::GlobalBounded { tags } => match predict_global(&demand, *tags) {
            GlobalPrediction::Safe => {}
            GlobalPrediction::MayDeadlock => out.push(Diagnostic::global(
                Code::GlobalPoolTooSmall,
                format!(
                    "global pool of {tags} tag(s) is below the flat demand of {} \
                     ({} allocated space(s)); completion depends on FCFS interleaving",
                    demand.flat_demand(),
                    demand.per_space.len()
                ),
            )),
            GlobalPrediction::DeadlockNested => out.push(Diagnostic::global(
                Code::NestedGlobalAlloc,
                format!(
                    "allocation nesting under a bounded global pool of {tags} tag(s): \
                     concurrent demand scales with trip counts, so a large enough input \
                     deadlocks (Fig. 11)"
                ),
            )),
        },
        TagPolicy::GlobalUnbounded => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
    use tyr_ir::build::ProgramBuilder;
    use tyr_ir::Program;

    /// `predict_global` is exact at the flat-demand boundary: a pool equal
    /// to the flat demand is safe, one below it is not.
    #[test]
    fn predict_global_is_tight_at_the_flat_demand_boundary() {
        let demand = TagDemand { per_space: vec![(BlockId(1), 2), (BlockId(2), 1)], nested: false };
        let flat = demand.flat_demand();
        assert_eq!(flat, 3);
        assert_eq!(predict_global(&demand, flat), GlobalPrediction::Safe);
        assert_eq!(predict_global(&demand, flat - 1), GlobalPrediction::MayDeadlock);
        // Nesting dominates: even a generous pool is doomed (Fig. 11).
        let nested = TagDemand { nested: true, ..demand };
        assert_eq!(predict_global(&nested, flat * 100), GlobalPrediction::DeadlockNested);
    }

    fn flat_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i] = f.begin_loop("l", [0]);
        let c = f.lt(i, 10);
        f.begin_body(c);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2], [i]);
        pb.finish(f, [out])
    }

    fn nested_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("outer", [0, 0]);
        let c = f.lt(i, 4);
        f.begin_body(c);
        let [j, a, ii] = f.begin_loop("inner", [0.into(), acc, i]);
        let cj = f.lt(j, ii);
        f.begin_body(cj);
        let a2 = f.add(a, j);
        let j2 = f.add(j, 1);
        let [a3] = f.end_loop([j2, a2, ii], [a]);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, a3], [acc]);
        pb.finish(f, [out])
    }

    /// A single flat loop has a *tail* allocate living in the very block it
    /// allocates (it replaces its own tag). That self-allocation is not
    /// nesting — only an allocate residing in a *different* allocated block
    /// scales demand with trip counts.
    #[test]
    fn self_allocation_is_not_nesting() {
        let dfg = lower_tagged(&flat_loop(), TaggingDiscipline::Tyr).unwrap();
        let demand = analyze_tag_demand(&dfg);
        // The loop's space is allocated from (external edge reserves one
        // for the backedge → minimum 2)...
        assert_eq!(demand.per_space.len(), 1);
        assert_eq!(demand.per_space[0].1, 2);
        // ...and the tail allocate sits in that same block:
        assert!(dfg.nodes().any(|n| matches!(
            n.kind(),
            NodeKind::Allocate { space, .. } if n.block() == *space
        )));
        // yet the graph is not "nested" — a pool covering the flat demand
        // is predicted safe.
        assert!(!demand.nested);
        assert_eq!(predict_global(&demand, demand.flat_demand()), GlobalPrediction::Safe);
    }

    /// A genuinely nested loop trips the Fig. 11 predictor regardless of
    /// pool size.
    #[test]
    fn inner_loops_are_nesting() {
        let dfg = lower_tagged(&nested_loop(), TaggingDiscipline::Tyr).unwrap();
        let demand = analyze_tag_demand(&dfg);
        assert!(demand.nested);
        assert_eq!(predict_global(&demand, 1_000_000), GlobalPrediction::DeadlockNested);
    }
}
