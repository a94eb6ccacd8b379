//! Static analysis and translation validation for lowered dataflow graphs.
//!
//! The simulator can only show a graph misbehaving on the inputs it is run
//! with; this crate checks the *obligations behind the paper's theorems*
//! directly on the graph, before anything executes:
//!
//! * **structure** (`S…`) — [`Dfg::check`]'s well-formedness rules,
//!   reported exhaustively with per-node locations;
//! * **free-barrier coverage** (`B001`) — every node transitively feeds its
//!   block's `join → free` barrier or the sink (Sec. IV-A's safety
//!   argument);
//! * **static tag demand** (`T…`) — per-space minimum tag counts from the
//!   allocate/reserve rule (Theorem 1), and a decision procedure for
//!   bounded global pools that predicts the Fig. 11 deadlock from graph
//!   shape alone;
//! * **memory races** (`M…`) — unordered same-block accesses to
//!   overlapping segments, sharpened by the strided-interval index-set
//!   analysis into proofs of safety (suppressed), proofs of collision
//!   (errors with a witness index), or honest warnings;
//! * **ordered-channel occupancy** (`O…`) — per-edge minimum FIFO depths
//!   for ordered lowerings, checked against the configured capacity to
//!   predict back-pressure deadlock before anything runs;
//! * **lifecycle lints** (`L…`) — dangling outputs, unreachable nodes,
//!   allocates whose tags can never be recycled;
//! * **working sets** (`W…`) — static peak-live-state bounds per block
//!   under a tag policy, per-instance memory footprints from the
//!   index-set analysis, the tagged-local vs tagged-global vs ordered
//!   elaboration comparison (the paper's locality headline), and per-edge
//!   token residency — each cross-validated against the dynamic reuse
//!   tracker in `tyr-stats`;
//! * **shard planning** (`P…`, [`verify_shards`]) — a deterministic,
//!   seeded partition of the graph's blocks into K shards ([`partition()`]),
//!   certified safe: cross-shard memory disjointness from the index sets,
//!   per-shard tag-demand budgets, progress summaries over the cut (a
//!   could-result-in matrix proving shard-local quiescence + empty
//!   channels ⇒ global quiescence), and static cross-shard traffic bounds
//!   — cross-validated against `tyr_stats::ShardCrossings` by
//!   `repro shard`;
//! * **translation validation** (`X…`, [`tv`]) — every lowering replayed
//!   against the reference interpreter on concrete inputs.
//!
//! The graph-shaped passes (races, occupancy, and the reachability parts
//! of barriers and lints) are clients of the [`absint`] monotone framework.
//! Everything funnels into a [`Report`] of located, stably-coded
//! [`Diagnostic`]s. The `repro verify` subcommand runs the full battery
//! over the paper's kernel suite — including the static↔dynamic
//! cross-validation that replays every static verdict against the matching
//! engine detector.
//!
//! [`Dfg::check`]: tyr_dfg::Dfg::check

#![warn(missing_docs)]

pub mod absint;
pub mod diag;
pub mod partition;
pub mod passes;
pub mod tv;

pub use absint::footprint::{analyze_footprint, BlockFootprint, FootprintAnalysis};
pub use absint::occupancy::{analyze_channel_depths, check_channel_capacity, ChannelDepths};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use partition::{partition, ShardPlan, MAX_SHARDS};
pub use passes::{
    analyze_live_state, analyze_shards, analyze_tag_demand, check_barrier_coverage,
    check_edge_residency, check_footprint, check_lints, check_live_state, check_races,
    check_shards, check_structure, check_tag_policy, compare_elaborations, predict_global,
    verify_shards, BoundaryFlow, ElaborationBounds, GlobalPrediction, LiveStateBound, MemClaims,
    ShardBudget, ShardCertificate, ShardCollision, ShardTagCheck, TagDemand,
};
pub use tv::validate_translations;

use tyr_dfg::Dfg;
use tyr_ir::{MemoryImage, Value};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;

use absint::footprint::analyze_footprint_with;
use absint::indexset::IndexSets;
use absint::occupancy::check_channel_capacity_with;
use absint::EdgeMaps;
use passes::{
    check_barrier_coverage_with, check_edge_residency_with, check_lints_with, check_races_with,
    footprint_diags,
};

/// Runs the input-independent static passes (structure, barrier coverage,
/// lifecycle lints) over one graph.
///
/// If the structure pass finds errors, the deeper passes are skipped —
/// they would chase the same dangling edges and drown the report in
/// cascading findings.
pub fn verify(title: &str, dfg: &Dfg) -> Report {
    verify_with(title, dfg, None, None)
}

/// [`verify`], plus the passes that need execution context: a concrete
/// [`TagPolicy`] to check against the graph's static tag demand, and/or the
/// memory image and arguments the graph will run with (enabling the race
/// pass, which must know the segment layout).
///
/// The graph facts the passes share — edge maps, and the index sets when
/// memory is given — are built once for the whole call.
pub fn verify_with(
    title: &str,
    dfg: &Dfg,
    policy: Option<&TagPolicy>,
    memory: Option<(&MemoryImage, &[Value])>,
) -> Report {
    let mut report = Report::new(title);
    report.extend(check_structure(dfg));
    if !report.is_clean() {
        return report;
    }
    let maps = EdgeMaps::new(dfg);
    report.extend(check_barrier_coverage_with(dfg, &maps));
    report.extend(check_lints_with(dfg, &maps));
    if let Some(p) = policy {
        report.extend(check_tag_policy(dfg, p));
        report.extend(check_live_state(dfg, p));
    }
    if let Some((mem, args)) = memory {
        report.extend(memory_passes(dfg, &maps, mem, args));
    }
    report
}

/// [`verify`] for *ordered* lowerings: the input-independent passes, plus
/// the channel-occupancy pass checked against the FIFO capacities the
/// ordered engine will run with (the ordered analogue of handing
/// [`verify_with`] a [`TagPolicy`]).
///
/// Edge maps, channel depths and (with memory) index sets are built once
/// for the whole call.
pub fn verify_ordered(
    title: &str,
    dfg: &Dfg,
    caps: &ChannelCapacity,
    memory: Option<(&MemoryImage, &[Value])>,
) -> Report {
    let mut report = Report::new(title);
    report.extend(check_structure(dfg));
    if !report.is_clean() {
        return report;
    }
    let maps = EdgeMaps::new(dfg);
    report.extend(check_barrier_coverage_with(dfg, &maps));
    report.extend(check_lints_with(dfg, &maps));
    let depths = analyze_channel_depths(dfg, &maps);
    report.extend(check_channel_capacity_with(dfg, &maps, &depths, caps));
    report.extend(check_edge_residency_with(dfg, &depths));
    if let Some((mem, args)) = memory {
        report.extend(memory_passes(dfg, &maps, mem, args));
    }
    report
}

/// The race and footprint passes over one index-set fixpoint.
fn memory_passes(dfg: &Dfg, maps: &EdgeMaps, mem: &MemoryImage, args: &[Value]) -> Vec<Diagnostic> {
    let index = IndexSets::new(dfg, maps, mem, args);
    let mut out = check_races_with(dfg, maps, &index);
    out.extend(footprint_diags(dfg, &analyze_footprint_with(dfg, maps, &index)));
    out
}
