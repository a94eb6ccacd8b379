//! Golden snapshots of full diagnostic output, plus a scaling guard on the
//! race pass.
//!
//! The snapshots pin the *complete rendered report* for `dmv` and `spmspv`
//! under all three tagged elaborations, each checked against a
//! deliberately scarce tag policy so the reports are non-trivial, and
//! under the ordered elaboration at two FIFO depths: message
//! drift (wording, ordering, severities, locations) shows up as a test
//! diff in review instead of silently reaching users. Regenerate with
//! `TYR_BLESS=1 cargo test -p tyr-verify --test golden` after an
//! intentional change, and read the diff.

use std::path::PathBuf;
use std::time::Instant;

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;
use tyr_verify::{analyze_footprint, analyze_live_state, check_races, verify_ordered, verify_with};
use tyr_workloads::{by_name, suite, Scale};

/// Seed for the workload generator; must stay fixed or every snapshot
/// changes.
const SEED: u64 = 5;

fn golden(name: &str, actual: &str) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", path.display())
    });
    assert_eq!(
        actual, expected,
        "diagnostic output for '{name}' drifted from its golden snapshot; \
         if intentional, regenerate with TYR_BLESS=1 and review the diff"
    );
}

#[test]
fn snapshot_diagnostics_for_dmv_and_spmspv() {
    // Scarce policies per elaboration: Local(1) starves every loop space
    // (T001); a bounded global pool of 2 trips the nesting predictor
    // (T003); the unbounded elaboration has nothing to starve and pins the
    // clean-report rendering instead.
    let elaborations: [(TaggingDiscipline, &str, TagPolicy); 3] = [
        (TaggingDiscipline::Tyr, "tyr", TagPolicy::local(1)),
        (
            TaggingDiscipline::UnorderedBounded,
            "unordered-bounded",
            TagPolicy::GlobalBounded { tags: 2 },
        ),
        (TaggingDiscipline::UnorderedUnbounded, "unordered-unbounded", TagPolicy::GlobalUnbounded),
    ];
    for kernel in ["dmv", "spmspv"] {
        let w = by_name(kernel, Scale::Tiny, SEED).unwrap();
        for (discipline, label, policy) in &elaborations {
            let dfg = lower_tagged(&w.program, *discipline).unwrap();
            let title = format!("{kernel}/{label}");
            let report = verify_with(&title, &dfg, Some(policy), Some((&w.memory, &w.args)));
            golden(&format!("{kernel}_{label}"), &report.render());
        }
    }
}

/// Golden snapshots for the ordered battery: `verify_ordered` with memory
/// context on the ordered lowerings of `dmv` and `spmspv`, at the static
/// minimum FIFO depth (O002 zero-slack notes, O003 on the data-dependent
/// sparse loops) and at the harness default of 4. `verify_ordered` shares
/// the most analysis between its passes (edge maps, channel depths, index
/// sets), so these pin that sharing against drift.
#[test]
fn snapshot_ordered_reports_for_dmv_and_spmspv() {
    for kernel in ["dmv", "spmspv"] {
        let w = by_name(kernel, Scale::Tiny, SEED).unwrap();
        let dfg = lower_ordered(&w.program).unwrap();
        for depth in [1usize, 4] {
            let title = format!("{kernel}/ordered/depth-{depth}");
            let caps = ChannelCapacity::uniform(depth);
            let report = verify_ordered(&title, &dfg, &caps, Some((&w.memory, &w.args)));
            golden(&format!("ordered_{kernel}_depth-{depth}"), &report.render());
        }
    }
}

/// The races pass sits on the framework's precomputed edge maps; finding
/// an input's producers is O(1) per port instead of the old
/// O(nodes × edges) rescan per query. Guard the complexity class with a
/// debug-build wall-clock bound on the largest Table II kernel: many
/// repetitions must stay comfortably inside a budget the quadratic scan
/// would blow.
#[test]
fn race_pass_is_fast_on_the_largest_kernel() {
    let kernels = suite(Scale::Tiny, SEED);
    let (w, dfg) = kernels
        .iter()
        .map(|w| (w, lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap()))
        .max_by_key(|(_, d)| d.nodes().len())
        .unwrap();
    let start = Instant::now();
    let reps = 25;
    for _ in 0..reps {
        let diags = check_races(&dfg, &w.memory, &w.args);
        assert!(diags.is_empty(), "{}: {diags:?}", w.name);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "{reps} race passes over {} ({} nodes) took {elapsed:?} — \
         the per-query producer scan has regressed",
        w.name,
        dfg.len(),
    );
}

/// Same complexity guard for the working-set pass: one index-set fixpoint
/// plus linear post-processing per run. A regression to per-access fixpoints
/// or per-block graph rescans would blow this budget in a debug build.
#[test]
fn workingset_pass_is_fast_on_the_largest_kernel() {
    let kernels = suite(Scale::Tiny, SEED);
    let (w, dfg) = kernels
        .iter()
        .map(|w| (w, lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap()))
        .max_by_key(|(_, d)| d.nodes().len())
        .unwrap();
    let policy = TagPolicy::local(2);
    let start = Instant::now();
    let reps = 25;
    for _ in 0..reps {
        let live = analyze_live_state(&dfg, &policy);
        assert!(live.total().is_some(), "{}: live-state bound should be finite", w.name);
        let fp = analyze_footprint(&dfg, &w.memory, &w.args);
        assert!(!fp.per_block.is_empty(), "{}: kernel touches memory", w.name);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "{reps} working-set passes over {} ({} nodes) took {elapsed:?} — \
         the pass has regressed from one fixpoint per run",
        w.name,
        dfg.len(),
    );
}

/// Golden snapshots for the shard pass: the rendered plan and the full
/// P-report for three kernels under both tagged elaboration budgets
/// (`tagged-local`: TYR local spaces; `tagged-global`: the Fig. 11 bounded
/// global pool). Pins the partitioner's cut, the renumbering, and every
/// P001–P004 message against drift.
#[test]
fn snapshot_shard_plans_and_reports() {
    use tyr_verify::{verify_shards, ShardBudget};

    let budgets: [(&str, TagPolicy); 2] = [
        ("tagged-local", TagPolicy::local(2)),
        ("tagged-global", TagPolicy::GlobalBounded { tags: 8 }),
    ];
    for kernel in ["dmv", "spmspv", "tc"] {
        let w = by_name(kernel, Scale::Tiny, SEED).unwrap();
        let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
        for (label, policy) in &budgets {
            let title = format!("{kernel}/{label}/shard");
            let (cert, report) = verify_shards(
                &title,
                &dfg,
                4,
                SEED,
                Some(ShardBudget::Tagged(policy)),
                Some((&w.memory, &w.args)),
            );
            let rendered = format!("{}{}", cert.plan.render(&dfg), report.render());
            golden(&format!("shard_{kernel}_{label}"), &rendered);
        }
    }
}

/// The shard certificate is a pure function of (graph, k, seed, budget,
/// memory): recomputing it must reproduce the plan, every derived table,
/// and the rendered report byte-for-byte.
#[test]
fn shard_certificates_are_deterministic_across_recomputation() {
    use tyr_verify::{verify_shards, ShardBudget};

    let w = by_name("spmspv", Scale::Tiny, SEED).unwrap();
    let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
    let policy = TagPolicy::local(2);
    let compute = || {
        let (cert, report) = verify_shards(
            "det",
            &dfg,
            4,
            SEED,
            Some(ShardBudget::Tagged(&policy)),
            Some((&w.memory, &w.args)),
        );
        (cert.plan.clone(), cert.node_shard.clone(), cert.boundary.clone(), report.render())
    };
    let a = compute();
    for _ in 0..3 {
        assert_eq!(compute(), a);
    }
}

/// Complexity guard for the partitioner plus the full P-pass: one memory
/// fixpoint, one partition, and linear certificate derivation per run. A
/// regression to per-pair fixpoints or quadratic refinement would blow
/// this budget in a debug build.
#[test]
fn shard_pass_is_fast_on_the_largest_kernel() {
    use tyr_verify::{verify_shards, ShardBudget};

    let kernels = suite(Scale::Tiny, SEED);
    let (w, dfg) = kernels
        .iter()
        .map(|w| (w, lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap()))
        .max_by_key(|(_, d)| d.nodes().len())
        .unwrap();
    let policy = TagPolicy::local(2);
    let start = Instant::now();
    let reps = 25;
    for _ in 0..reps {
        let (cert, report) = verify_shards(
            "perf",
            &dfg,
            4,
            SEED,
            Some(ShardBudget::Tagged(&policy)),
            Some((&w.memory, &w.args)),
        );
        assert_eq!(cert.node_shard.len(), dfg.len());
        assert_eq!(report.errors(), 0, "{}: {}", w.name, report.render());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "{reps} shard passes over {} ({} nodes) took {elapsed:?} — \
         the partitioner or P-pass has regressed",
        w.name,
        dfg.len(),
    );
}
