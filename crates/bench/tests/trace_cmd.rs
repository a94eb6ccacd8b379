//! End-to-end acceptance tests for `repro trace`: every engine family's
//! emitted Chrome-trace JSON must round-trip through validation with at
//! least one event of each kind that engine is specified to emit, and the
//! Fig. 11 bounded-global deadlock must be attributed to tag starvation on
//! a wedged allocate. The rendered bytes are pinned too: an FNV-1a of each
//! engine's document sits in `golden/trace_tiny_fnv.txt`, blessed
//! (`TYR_BLESS=1 cargo test -p tyr-bench --test trace_cmd`) on the commit
//! *before* a change to the exporter and passing unmodified after it.

use std::path::PathBuf;

use tyr_bench::figures::Ctx;
use tyr_bench::trace::{self, expected_kinds, BOUNDED_POOL, ENGINE_NAMES};
use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_stats::probe::ChromeTrace;
use tyr_stats::{NodeProfiler, StallReason};
use tyr_workloads::{by_name, Scale};

fn tiny_ctx() -> Ctx {
    Ctx { scale: Scale::Tiny, ..Ctx::default() }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The same gate `ci.sh` runs, but over every engine name in one sweep: the
/// subcommand succeeds, the file it writes parses, the per-engine taxonomy
/// coverage table is satisfied, and the bytes are the blessed ones.
#[test]
fn every_engine_trace_round_trips() {
    let ctx = tiny_ctx();
    let dir = std::env::temp_dir().join(format!("tyr_trace_test_{}", std::process::id()));
    let mut digest = String::new();
    for engine in ENGINE_NAMES {
        let path = dir.join(format!("{engine}.json"));
        trace::run(&ctx, "dmv", engine, Some(&path)).unwrap_or_else(|e| panic!("{engine}: {e}"));
        let json = std::fs::read_to_string(&path).unwrap();
        digest +=
            &format!("dmv {engine}: bytes={} fnv={:016x}\n", json.len(), fnv1a(json.as_bytes()));
        let kinds = ChromeTrace::validate(&json).unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert!(!expected_kinds(engine).is_empty(), "{engine} has no coverage spec");
        for k in expected_kinds(engine) {
            assert!(
                kinds.get(k.name()).copied().unwrap_or(0) > 0,
                "{engine} trace is missing '{}' events",
                k.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tiny_fnv.txt");
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::write(&golden, &digest).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", golden.display())
    });
    assert_eq!(digest, expected, "rendered trace bytes drifted from their blessed digest");
}

/// Fig. 11 with the profiler attached: a small FCFS global pool wedges dmv,
/// and the stall-attribution table pins the deadlock on an allocate that
/// spent the tail of the run tag-starved.
#[test]
fn fig11_deadlock_is_attributed_to_tag_starvation() {
    let w = by_name("dmv", Scale::Tiny, 7).unwrap();
    let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
    let mut prof = NodeProfiler::new();
    let c = TaggedConfig {
        tag_policy: TagPolicy::GlobalBounded { tags: BOUNDED_POOL },
        args: w.args.clone(),
        ..TaggedConfig::default()
    };
    let r = TaggedEngine::with_probe(&dfg, w.memory.clone(), c, &mut prof).run().unwrap();
    assert!(!r.is_complete(), "a pool of {BOUNDED_POOL} global tags must wedge dmv (Fig. 11)");
    let report = prof.report(r.final_cycle());
    let starved = report
        .nodes
        .iter()
        .max_by_key(|n| n.stall_cycles[StallReason::TagStarved.index()])
        .unwrap();
    assert!(
        starved.stall_cycles[StallReason::TagStarved.index()] > 0,
        "deadlocked run must show tag-starved cycles"
    );
    assert!(
        starved.label.contains("alloc"),
        "the dominant starved node should be a wedged allocate, got '{}'",
        starved.label
    );
    assert!(!starved.block.is_empty(), "starved node must carry its block name");
}

#[test]
fn trace_rejects_unknown_names() {
    let ctx = tiny_ctx();
    let err = trace::run(&ctx, "nope", "tyr", None).unwrap_err();
    assert!(err.contains("unknown kernel"), "{err}");
    let err = trace::run(&ctx, "dmv", "nope", None).unwrap_err();
    assert!(err.contains("unknown engine"), "{err}");
}
