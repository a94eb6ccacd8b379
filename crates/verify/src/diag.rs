//! The diagnostics framework: codes, severities, locations, and rendered
//! reports.
//!
//! Every finding a pass produces is a [`Diagnostic`]: a stable [`Code`]
//! (asserted on by tests and greppable in output), a [`Severity`], an
//! optional node/block location, and a human-readable message. Passes
//! accumulate diagnostics into a [`Report`], which renders them compiler
//! style, one line per finding:
//!
//! ```text
//! error[B001] n17 'orphan' (cb1 'dmv_i'): node never reaches its block's free barrier or the sink
//! ```

use std::fmt;

use tyr_dfg::{BlockId, Dfg, NodeId};

/// Stable diagnostic codes, grouped by pass.
///
/// The letter names the pass family (`S`tructure, `B`arrier, `T`ags,
/// `M`emory, `O`rdered channels, `L`ifecycle, `X` translation validation);
/// numbers are stable
/// across releases so tests and tooling can match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    // Structure pass (the Dfg::check obligations, per node).
    /// A node references an out-of-range concurrent block.
    BadBlock,
    /// A non-source node has no wired inputs, so it could never fire (or
    /// would fire forever in the ordered engine).
    NoWiredInputs,
    /// An `Allocate`/`Free` references a nonexistent tag space.
    BadSpace,
    /// An edge targets a node that does not exist.
    MissingNode,
    /// An edge targets an input port that does not exist.
    MissingPort,
    /// An edge targets an immediate input, which can never accept tokens.
    EdgeIntoImm,
    /// A tag space is allocated from but never freed into (tags cannot
    /// recycle), in a graph that otherwise builds barriers.
    UnfreedSpace,

    // Free-barrier coverage pass.
    /// A node never (transitively) feeds its block's `join → free` barrier
    /// or the sink: its tokens can outlive the context's `free`, breaking
    /// free-barrier safety (Sec. IV-A).
    OutsideBarrier,

    // Static tag-demand pass.
    /// A local tag space is configured with fewer tags than its static
    /// minimum demand under the allocate/reserve rule — deadlock.
    InsufficientTags,
    /// A bounded global (FCFS) tag pool is smaller than the flat concurrent
    /// demand of the graph's spaces; deadlock depends on allocation order.
    GlobalPoolTooSmall,
    /// Allocation nesting under a bounded global pool: concurrent tag demand
    /// scales with trip counts, so any fixed pool deadlocks once the input
    /// is large enough (the Fig. 11 failure).
    NestedGlobalAlloc,

    // Memory race pass.
    /// Two stores to the same memory segment in one concurrent block with no
    /// ordering dependency between them.
    StoreStoreRace,
    /// A load and a store to the same memory segment in one concurrent block
    /// with no ordering dependency between them.
    LoadStoreRace,

    // Ordered-channel occupancy pass.
    /// An ordered-lowering FIFO is configured below the static minimum depth
    /// of a live edge: its producer can never deposit, so the graph is
    /// guaranteed to deadlock under back-pressure.
    ChannelBelowMinimum,
    /// Every live edge is at exactly its static minimum depth: the
    /// configuration is safe but has zero slack for pipelining.
    ChannelAtMinimum,
    /// A data-dependent cycle (its trip count derives from loaded values)
    /// runs with zero slack on some in-cycle edge: worst-case occupancy
    /// cannot be bounded statically, so deeper FIFOs are recommended.
    DataDependentCycle,

    // Token-lifecycle lints.
    /// A value-producing node whose results are never consumed.
    DanglingOutput,
    /// A node unreachable from the source: it can never receive a token.
    UnreachableNode,
    /// An `Allocate` from which no `Free` of the same space is reachable:
    /// the allocated tag can never be recycled.
    AllocNoFree,

    // Working-set pass (static locality bounds).
    /// Per-block peak live-state bound: the block's token-store capacity per
    /// context times its concurrent-instance bound under the tag policy.
    /// Reported for every block so the locality claim is auditable; an
    /// unbounded instance count (unbounded tag pool) is still a note — it
    /// states the bound is infinite, which is the honest verdict.
    BlockLiveState,
    /// Per-block-instance memory footprint from the strided-interval
    /// index-set analysis, widened into per-segment address intervals.
    /// Reported as a note with the bound in words/lines per block; raised to
    /// a warning when an access's address has no segment provenance, so the
    /// block's footprint scales with the input (the offending load/store is
    /// the witness).
    FootprintBound,
    /// The paper's headline locality verdict, decided statically: the peak
    /// live-state bound under local tag spaces versus a bounded global pool
    /// versus the ordered elaboration, with the shrink ratio.
    ElaborationComparison,
    /// Per-edge token residency for ordered lowerings: total recommended
    /// FIFO occupancy from the O-pass, with the most imbalanced port as
    /// witness.
    EdgeResidency,

    // Shard-planning pass (static sharding certificates).
    /// Cross-shard memory disjointness from the strided-interval index
    /// sets: a proven always-colliding access pair split across shards is
    /// a hard error with the witness index; an undecided pair is a warning
    /// recording that the two blocks were forced into one shard; a fully
    /// proven cut is a note.
    ShardMemory,
    /// Per-shard tag-space demand versus the tag policy's budget: a shard
    /// whose resident spaces statically demand more tags than the policy
    /// can ever grant is an error (it would wedge the whole pool alone);
    /// otherwise the demand/budget figures are a note.
    ShardTagDemand,
    /// Progress summary over the cut: the per-cut-edge "could-result-in"
    /// matrix must derive every live cut edge from the source frontier, so
    /// shard-local quiescence plus empty channels implies global
    /// quiescence. A live cut edge the summary cannot derive is an error
    /// (a distributed termination detector could miss work on it).
    ShardProgress,
    /// Static cross-shard traffic estimate: per directed shard boundary,
    /// the cut-edge count and the peak in-flight token bound scaled by the
    /// consumer blocks' concurrent-instance bounds (W001).
    ShardTraffic,

    // Translation validation.
    /// A lowered graph's simulation produced different returns or memory
    /// than the reference interpreter.
    TvDivergence,
    /// A lowered graph's simulation faulted where the interpreter succeeded.
    TvFault,
    /// A lowered graph deadlocked under a configuration that must complete.
    TvDeadlock,
}

impl Code {
    /// Every diagnostic code, in pass order. The registry tests iterate
    /// this to assert uniqueness, stability, and documentation coverage.
    pub const ALL: [Code; 30] = [
        Code::BadBlock,
        Code::NoWiredInputs,
        Code::BadSpace,
        Code::MissingNode,
        Code::MissingPort,
        Code::EdgeIntoImm,
        Code::UnfreedSpace,
        Code::OutsideBarrier,
        Code::InsufficientTags,
        Code::GlobalPoolTooSmall,
        Code::NestedGlobalAlloc,
        Code::StoreStoreRace,
        Code::LoadStoreRace,
        Code::ChannelBelowMinimum,
        Code::ChannelAtMinimum,
        Code::DataDependentCycle,
        Code::DanglingOutput,
        Code::UnreachableNode,
        Code::AllocNoFree,
        Code::BlockLiveState,
        Code::FootprintBound,
        Code::ElaborationComparison,
        Code::EdgeResidency,
        Code::ShardMemory,
        Code::ShardTagDemand,
        Code::ShardProgress,
        Code::ShardTraffic,
        Code::TvDivergence,
        Code::TvFault,
        Code::TvDeadlock,
    ];

    /// The stable code string (e.g. `"B001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::BadBlock => "S001",
            Code::NoWiredInputs => "S002",
            Code::BadSpace => "S003",
            Code::MissingNode => "S004",
            Code::MissingPort => "S005",
            Code::EdgeIntoImm => "S006",
            Code::UnfreedSpace => "S007",
            Code::OutsideBarrier => "B001",
            Code::InsufficientTags => "T001",
            Code::GlobalPoolTooSmall => "T002",
            Code::NestedGlobalAlloc => "T003",
            Code::StoreStoreRace => "M001",
            Code::LoadStoreRace => "M002",
            Code::ChannelBelowMinimum => "O001",
            Code::ChannelAtMinimum => "O002",
            Code::DataDependentCycle => "O003",
            Code::DanglingOutput => "L001",
            Code::UnreachableNode => "L002",
            Code::AllocNoFree => "L003",
            Code::BlockLiveState => "W001",
            Code::FootprintBound => "W002",
            Code::ElaborationComparison => "W003",
            Code::EdgeResidency => "W004",
            Code::ShardMemory => "P001",
            Code::ShardTagDemand => "P002",
            Code::ShardProgress => "P003",
            Code::ShardTraffic => "P004",
            Code::TvDivergence => "X001",
            Code::TvFault => "X002",
            Code::TvDeadlock => "X003",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            // Races are reported as warnings: segment classification is a
            // sound-ish heuristic (see the races pass docs), and the paper's
            // kernels resolve them with `StoreAdd`, not ordering edges.
            Code::StoreStoreRace | Code::LoadStoreRace => Severity::Warning,
            // A pool smaller than the flat demand *may* complete under lucky
            // FCFS interleavings; nesting (T003) is the certain failure.
            Code::GlobalPoolTooSmall => Severity::Warning,
            // A node that never fires is dead weight, and fatal only if
            // something strict (like the sink) waits on it — which barrier
            // coverage and TV catch as errors in their own right.
            Code::UnreachableNode => Severity::Warning,
            // Zero-slack cycles with data-dependent trip counts *may*
            // deadlock; only a capacity below the static minimum is certain.
            Code::DataDependentCycle => Severity::Warning,
            // Unconsumed results are wasteful, not wrong.
            Code::DanglingOutput => Severity::Note,
            // Zero slack everywhere is safe, just worth knowing.
            Code::ChannelAtMinimum => Severity::Note,
            // The working-set pass reports *bounds*, not violations. The
            // footprint pass raises individual findings to Warning in place
            // when an address has no provenance (input-scaled footprint).
            Code::BlockLiveState
            | Code::FootprintBound
            | Code::ElaborationComparison
            | Code::EdgeResidency => Severity::Note,
            // A shard-memory finding defaults to Warning (an undecided pair
            // forced into one shard); the pass raises proven cross-shard
            // collisions to Error and lowers proven-clean cuts to Note in
            // place, mirroring the race pass discipline.
            Code::ShardMemory => Severity::Warning,
            // Demand/budget, progress summaries, and traffic estimates are
            // certificates, not violations; the pass raises over-budget
            // shards and underivable cut edges to Error in place.
            Code::ShardTagDemand | Code::ShardProgress | Code::ShardTraffic => Severity::Note,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Note,
    /// Probably a problem; does not fail verification.
    Warning,
    /// A correctness violation; fails verification.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (normally `code.severity()`).
    pub severity: Severity,
    /// The node the finding anchors to, if any.
    pub node: Option<NodeId>,
    /// The concurrent block the finding anchors to, if any.
    pub block: Option<BlockId>,
    /// Pre-rendered location (`n17 'orphan' (cb1 'dmv_i')`), empty if the
    /// finding is graph-global.
    pub loc: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic anchored to `node` of `dfg`.
    pub fn at_node(code: Code, dfg: &Dfg, node: NodeId, message: impl Into<String>) -> Self {
        let (block, loc) = match dfg.get(node) {
            Some(n) => {
                (Some(n.block()), format!("{node} '{}' ({})", n.label(), block_loc(dfg, n.block())))
            }
            None => (None, format!("{node}")),
        };
        Diagnostic {
            code,
            severity: code.severity(),
            node: Some(node),
            block,
            loc,
            message: message.into(),
        }
    }

    /// A diagnostic anchored to a block.
    pub fn at_block(code: Code, dfg: &Dfg, block: BlockId, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node: None,
            block: Some(block),
            loc: block_loc(dfg, block),
            message: message.into(),
        }
    }

    /// A graph-global diagnostic.
    pub fn global(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            node: None,
            block: None,
            loc: String::new(),
            message: message.into(),
        }
    }
}

fn block_loc(dfg: &Dfg, block: BlockId) -> String {
    match dfg.blocks.get(block.0 as usize) {
        Some(b) => format!("{block} '{}'", b.name),
        None => format!("{block} <invalid>"),
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.loc.is_empty() {
            write!(f, "{}[{}] {}", self.severity, self.code, self.message)
        } else {
            write!(f, "{}[{}] {}: {}", self.severity, self.code, self.loc, self.message)
        }
    }
}

/// A collection of diagnostics from one or more passes over one artifact.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// What was verified (e.g. `"dmv/tyr"`), used as the report header.
    pub title: String,
    /// All findings, in pass order.
    pub diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `title`.
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), diags: Vec::new() }
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Adds findings from a pass.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(ds);
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether verification passed (no errors; warnings/notes allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Renders the report: header, one line per finding (most severe first),
    /// and a summary line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== verify {} ==", self.title);
        let mut sorted: Vec<&Diagnostic> = self.diags.iter().collect();
        sorted.sort_by_key(|d| std::cmp::Reverse(d.severity));
        for d in sorted {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} note(s)",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.errors(),
            self.warnings(),
            self.diags.len() - self.errors() - self.warnings(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        let before = strs.len();
        strs.dedup();
        assert_eq!(before, strs.len(), "duplicate code strings");
    }

    #[test]
    fn report_counts_and_renders() {
        let mut r = Report::new("unit");
        assert!(r.is_clean());
        r.push(Diagnostic::global(Code::TvDivergence, "returns differ"));
        r.push(Diagnostic::global(Code::DanglingOutput, "unused"));
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 0);
        assert!(!r.is_clean());
        assert!(r.has(Code::TvDivergence));
        assert!(!r.has(Code::OutsideBarrier));
        let text = r.render();
        assert!(text.contains("error[X001]"), "{text}");
        assert!(text.contains("note[L001]"), "{text}");
        assert!(text.contains("FAIL: 1 error(s)"), "{text}");
    }
}
