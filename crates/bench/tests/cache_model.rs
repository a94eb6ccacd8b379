//! Cache-model invariance suite: the two-level hierarchy decides *when*
//! results arrive, never *what* they are.
//!
//! Three gates:
//! 1. **Architectural equivalence** — every suite kernel (plus the cache
//!    extensions) on all five systems produces the identical memory image,
//!    returns, and access counts under ideal and cached memory, with the
//!    default 2-cycle L1 and with 1-cycle hits that could overtake a miss.
//! 2. **Degenerate bit-identity** — a cache with 1-cycle L1 and zero L2/
//!    DRAM penalty and an MSHR table deep enough to never fill is exactly
//!    `ideal:1`: same cycles, live trace, IPC histogram, everything.
//! 3. **Probe parity** — the `mem-miss` JSONL event count equals
//!    `RunResult::mem_misses` on every engine, so the streaming telemetry
//!    and the summary stats can never drift apart.
//! 4. **Full stat set on every exit** — a completed, a deadlocked and a
//!    timed-out run of the tagged and ordered engines all carry the cache
//!    statistics, the access counters and the fault log.

use tyr_bench::figures::Ctx;
use tyr_bench::{run_system, timeline, RunConfig, System};
use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::NodeKind;
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::{FaultKind, FaultPlan, MemConfig, Outcome, RunResult, Watchdog};
use tyr_stats::TimelineConfig;
use tyr_workloads::{by_name, Scale, APP_NAMES, CACHE_NAMES};

/// Workload seed; fixed for reproducible failures.
const SEED: u64 = 3;

/// A cache tight enough that even tiny-scale kernels miss in it.
const TIGHT_CACHE: &str = "cached:l1=512,l2=4k,mshr=4";

/// The same geometry with 1-cycle L1 hits: a hit issued behind a miss
/// could be delivered first if an engine did not keep responses in order.
const FAST_L1_CACHE: &str = "cached:l1=512,l2=4k,mshr=4,lat1=1";

fn cfg_with(mem: &str) -> RunConfig {
    RunConfig { mem: MemConfig::parse(mem).expect("valid model"), ..RunConfig::default() }
}

#[test]
fn cached_memory_never_changes_architectural_results() {
    for name in APP_NAMES.iter().chain(CACHE_NAMES.iter()) {
        let w = by_name(name, Scale::Tiny, SEED).unwrap();
        for sys in System::ALL {
            // run_system checks each completed run against the oracle; the
            // cross-check below pins cached ≡ ideal exactly, not just
            // oracle-correct.
            let ideal = run_system(&w, sys, &RunConfig::default());
            let what = format!("{name} on {}", sys.label());
            assert!(ideal.is_complete(), "{what}: ideal run: {:?}", ideal.outcome);
            assert!(ideal.mem_stats.is_none(), "{what}: ideal runs report no cache stats");
            for cache in [TIGHT_CACHE, FAST_L1_CACHE] {
                let cached = run_system(&w, sys, &cfg_with(cache));
                let what = format!("{what} under {cache}");
                assert!(cached.is_complete(), "{what}: cached run: {:?}", cached.outcome);
                assert_eq!(ideal.memory(), cached.memory(), "{what}: memory image");
                assert_eq!(ideal.returns, cached.returns, "{what}: returns");
                assert_eq!(ideal.mem_loads, cached.mem_loads, "{what}: load count");
                assert_eq!(ideal.mem_stores, cached.mem_stores, "{what}: store count");
                let st = cached.mem_stats.expect("cached runs report stats");
                assert_eq!(
                    st.l1.hits + st.l1.misses,
                    cached.mem_loads + cached.mem_stores,
                    "{what}: every architectural access goes through the cache"
                );
                assert!(st.l1.misses > 0, "{what}: the cache must actually miss");
            }
        }
    }
}

#[test]
fn degenerate_cache_is_bit_identical_to_ideal() {
    // 1-cycle L1, zero L2/DRAM penalty, MSHRs never full: the hierarchy
    // still counts hits and misses but every access completes next cycle,
    // exactly like ideal:1. Core timing stats must not budge.
    let degenerate = "cached:lat1=1,lat2=0,mem=0,mshr=4096";
    for name in APP_NAMES {
        let w = by_name(name, Scale::Tiny, SEED).unwrap();
        for sys in System::ALL {
            let ideal = run_system(&w, sys, &RunConfig::default());
            let cached = run_system(&w, sys, &cfg_with(degenerate));
            let what = format!("{name} on {}", sys.label());
            assert_eq!(ideal.outcome, cached.outcome, "{what}: outcome (incl. cycles)");
            assert_eq!(ideal.live, cached.live, "{what}: live-token trace");
            assert_eq!(ideal.ipc, cached.ipc, "{what}: IPC histogram");
            assert_eq!(ideal.returns, cached.returns, "{what}: returns");
            assert_eq!(ideal.store_peaks, cached.store_peaks, "{what}: store peaks");
            assert_eq!(ideal.memory(), cached.memory(), "{what}: memory image");
            assert_eq!(cached.mshr_stalls(), 0, "{what}: 4096 MSHRs never fill");
        }
    }
}

#[test]
fn mem_miss_probe_count_matches_summary_stats() {
    // One engine per family, all five families: the streamed mem-miss
    // events and the RunResult counter are the same measurement.
    for engine in ["tyr", "ordered", "seqdf", "seqvn", "ooo"] {
        let mut ctx = Ctx { scale: Scale::Tiny, seed: SEED, jobs: 1, ..Ctx::default() };
        ctx.cfg.mem = MemConfig::parse(TIGHT_CACHE).unwrap();
        let w = by_name("dmv", ctx.scale, ctx.seed).unwrap();
        let (r, _counted, jsonl) = timeline::collect(&ctx, &w, engine, TimelineConfig::default())
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let streamed = jsonl.lines().filter(|l| l.contains("\"k\":\"mem-miss\"")).count() as u64;
        assert!(r.mem_misses() > 0, "{engine}: the tight cache must miss");
        assert_eq!(streamed, r.mem_misses(), "{engine}: mem-miss events vs mem_misses()");
        assert_eq!(
            r.mem_hits() + r.mem_misses(),
            r.mem_loads + r.mem_stores,
            "{engine}: hits + misses covers every access"
        );
    }
}

#[test]
fn every_run_exit_carries_the_full_stat_set() {
    let w = by_name("dmv", Scale::Tiny, SEED).unwrap();
    let cfg = cfg_with(TIGHT_CACHE);
    // Delays are absorbed, so the armed plan changes no outcome below.
    let plan = || Some(FaultPlan::new(SEED).with(FaultKind::MemDelay, 2));
    let budget = Watchdog::none().with_cycle_budget(40);
    let check = |what: &str, r: RunResult| {
        assert!(r.mem_stats.is_some(), "{what}: cache stats");
        assert!(r.mem_loads > 0, "{what}: load count");
        assert!(r.mem_hits() + r.mem_misses() > 0, "{what}: hierarchy traffic");
        assert!(!r.faults.is_empty(), "{what}: fault log");
        r.outcome
    };

    let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
    let tagged = |policy: TagPolicy, watchdog: Watchdog| {
        let c = TaggedConfig { faults: plan(), watchdog, ..cfg.tagged(policy, &w.args) };
        TaggedEngine::new(&dfg, w.memory.clone(), c).run().unwrap()
    };
    let done = check("tagged completed", tagged(cfg.tyr_policy(), Watchdog::none()));
    assert!(matches!(done, Outcome::Completed { .. }), "{done:?}");
    let pool = TagPolicy::GlobalBounded { tags: tyr_bench::trace::BOUNDED_POOL };
    let wedge = check("tagged deadlock", tagged(pool, Watchdog::none()));
    assert!(matches!(wedge, Outcome::Deadlock { .. }), "{wedge:?}");
    let cut = check("tagged timeout", tagged(cfg.tyr_policy(), budget.clone()));
    assert!(matches!(cut, Outcome::TimedOut { .. }), "{cut:?}");

    let dfg = lower_ordered(&w.program).unwrap();
    // Squeezing the back edge (input 2) of the outer loop's first carry to
    // capacity 0 lets the first row through, then wedges the loop behind
    // back-pressure: the carried value can never be delivered.
    let victim = dfg
        .nodes()
        .position(
            |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
        )
        .expect("dmv loops") as u32;
    let ordered = |depth_overrides: Vec<((u32, u16), usize)>, watchdog: Watchdog| {
        let c = OrderedConfig { depth_overrides, faults: plan(), watchdog, ..cfg.ordered(&w.args) };
        OrderedEngine::new(&dfg, w.memory.clone(), c).run().unwrap()
    };
    let done = check("ordered completed", ordered(Vec::new(), Watchdog::none()));
    assert!(matches!(done, Outcome::Completed { .. }), "{done:?}");
    let wedge = check("ordered deadlock", ordered(vec![((victim, 2), 0)], Watchdog::none()));
    assert!(matches!(wedge, Outcome::Deadlock { .. }), "{wedge:?}");
    let cut = check("ordered timeout", ordered(Vec::new(), budget));
    assert!(matches!(cut, Outcome::TimedOut { .. }), "{cut:?}");
}
