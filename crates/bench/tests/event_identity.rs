//! Ticked-vs-event-driven identity suite: for every engine with an event
//! core (one kernel per engine family, the full latency spread), the
//! event-driven run must be *bit-identical* to the ticked run — same
//! outcome, cycle-by-cycle live trace, IPC histogram, returns, store
//! peaks, memory image, load/store counts, and a byte-identical probe
//! event stream (`tyr-events/v1` JSONL). The only permitted difference is
//! the `skipped_cycles` wall-clock diagnostic. The engines without an
//! event core (seqdf, seqvn, ooo) must always report zero skipped cycles.
//!
//! The sweep covers ideal memory at three latencies *and* the two-level
//! cache model: the jump clamp on outstanding MSHR fills must keep the
//! event core exact under variable-latency misses too.
//!
//! The ordered engine gets a second, wider sweep — issue width, FIFO depth,
//! memory model and a fault plan over generated programs and two kernels —
//! because narrow widths are the only place its node-index issue order is
//! observable.

use tyr_bench::figures::Ctx;
use tyr_bench::fuzz::{FUZZ_CYCLE_BUDGET, FUZZ_RECIPE_SIZE};
use tyr_bench::timeline;
use tyr_dfg::lower::lower_ordered;
use tyr_ir::{MemoryImage, Program, Value};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::{FaultKind, FaultPlan, MemConfig, RunResult, Watchdog};
use tyr_stats::TimelineConfig;
use tyr_workloads::gen::Recipe;
use tyr_workloads::{by_name, Scale};

/// Workload seed; any value works, fixed for reproducible failures.
const SEED: u64 = 7;

/// The memory models swept: the historical ideal latencies plus a small
/// cache (tight enough that dmv at tiny scale actually misses).
fn mem_sweep() -> Vec<MemConfig> {
    vec![
        MemConfig::ideal(1),
        MemConfig::ideal(4),
        MemConfig::ideal(200),
        MemConfig::parse("cached:l1=512,l2=4k,mshr=4").unwrap(),
    ]
}

/// One probed run: the result plus its JSONL event stream.
fn run_mode(engine: &str, mem: &MemConfig, event_driven: bool) -> (RunResult, String) {
    let mut ctx = Ctx { scale: Scale::Tiny, seed: SEED, jobs: 1, ..Ctx::default() };
    ctx.cfg.mem = mem.clone();
    ctx.cfg.event_driven = event_driven;
    let w = by_name("dmv", ctx.scale, ctx.seed).unwrap();
    let (r, counted, jsonl) = timeline::collect(&ctx, &w, engine, TimelineConfig::default())
        .unwrap_or_else(|e| panic!("{engine} mem {} event={event_driven}: {e}", mem.label()));
    assert!(counted > 0, "{engine}: the run must emit probe events");
    (r, jsonl)
}

/// Field-by-field identity check; `skipped_cycles` is the one exception.
fn assert_identical(engine: &str, mem: &MemConfig, event: &RunResult, ticked: &RunResult) {
    let what = format!("{engine} at mem {}", mem.label());
    assert_eq!(event.outcome, ticked.outcome, "{what}: outcome");
    assert_eq!(event.live, ticked.live, "{what}: live-token trace");
    assert_eq!(event.ipc, ticked.ipc, "{what}: IPC histogram");
    assert_eq!(event.returns, ticked.returns, "{what}: returns");
    assert_eq!(event.store_peaks, ticked.store_peaks, "{what}: store peaks");
    assert_eq!(event.mem_loads, ticked.mem_loads, "{what}: load count");
    assert_eq!(event.mem_stores, ticked.mem_stores, "{what}: store count");
    assert_eq!(event.mem_stats, ticked.mem_stats, "{what}: cache stats");
    assert_eq!(event.memory(), ticked.memory(), "{what}: final memory");
    assert_eq!(event.faults, ticked.faults, "{what}: fault log");
    assert_eq!(ticked.skipped_cycles, 0, "{what}: a ticked run never skips");
}

#[test]
fn event_and_ticked_runs_are_bit_identical_per_engine() {
    // One representative per engine family with an event core: the two
    // tagged elaborations, the wedging bounded-global policy (a deadlock
    // must attribute identically), and the ordered machine.
    for engine in ["tyr", "unordered", "tagged-global-bounded", "ordered"] {
        for mem in mem_sweep() {
            let (event, event_jsonl) = run_mode(engine, &mem, true);
            let (ticked, ticked_jsonl) = run_mode(engine, &mem, false);
            assert_identical(engine, &mem, &event, &ticked);
            assert_eq!(
                event_jsonl,
                ticked_jsonl,
                "{engine} at mem {}: probe event streams must be byte-identical",
                mem.label()
            );
            // The windowed telemetry is derived from the same events and
            // final cycle, so it must render identically too.
            let csv = |r: &RunResult| r.timeline.as_ref().unwrap().to_csv().render();
            assert_eq!(csv(&event), csv(&ticked), "{engine} at mem {}: timeline CSV", mem.label());
        }
    }
}

#[test]
fn high_latency_serial_runs_actually_skip() {
    // The identity above would hold trivially if the jump never fired;
    // pin that the event core earns its keep where it matters — a serial
    // dependence chain at high memory latency idles most cycles.
    let (event, _) = run_mode("ordered", &MemConfig::ideal(200), true);
    assert!(
        event.skipped_cycles > event.cycles() / 2,
        "ordered dmv at latency 200 skipped only {} of {} cycles",
        event.skipped_cycles,
        event.cycles()
    );
}

#[test]
fn engines_without_an_event_core_report_zero_skips() {
    for engine in ["seqdf", "seqvn", "ooo"] {
        let (r, _) = run_mode(engine, &MemConfig::ideal(1), true);
        assert_eq!(r.skipped_cycles, 0, "{engine} has no event core");
    }
}

#[test]
fn ordered_runs_are_identical_across_modes_at_every_width_depth_and_memory_model() {
    // The ordered engine issues from a cached ready set it updates only for
    // nodes whose FIFOs changed; debug builds check that set against a scan
    // of every node each cycle, so every run here also tests the marking
    // rules. Widths 1 and 2 are what make the node-index cut-off bind: the
    // default 128 (and the fuzzer's 64) never shortens a ready list on
    // graphs this small. The stick fault rolls its victim in that same
    // order, and a duplicated token drives FIFOs over capacity.
    let mut cases: Vec<(String, Program, MemoryImage, Vec<Value>)> = (0..6)
        .map(|seed| {
            let c = Recipe::generate(seed, FUZZ_RECIPE_SIZE).materialize();
            (format!("recipe {seed}"), c.program, c.memory, c.args)
        })
        .collect();
    for name in ["dmv", "spmspv"] {
        let w = by_name(name, Scale::Tiny, SEED).unwrap();
        cases.push((name.to_string(), w.program, w.memory, w.args));
    }
    let mems = ["ideal:1", "ideal:200", "cached:l1=4k,l2=64k,mshr=8"]
        .map(|m| MemConfig::parse(m).unwrap());
    let plan = FaultPlan::new(SEED).with(FaultKind::NodeStick, 1).with(FaultKind::TokenDup, 2);
    let mut injected = 0;

    for (name, program, memory, args) in &cases {
        let dfg = lower_ordered(program).unwrap();
        for issue_width in [1, 2, 128] {
            for queue_depth in [1, 2, 4] {
                for mem in &mems {
                    for faults in [None, Some(plan.clone())] {
                        let what = format!(
                            "{name}, width {issue_width}, depth {queue_depth}, faults {}",
                            faults.is_some()
                        );
                        let run = |event_driven| {
                            let cfg = OrderedConfig {
                                issue_width,
                                queue_depth,
                                args: args.clone(),
                                mem: mem.clone(),
                                faults: faults.clone(),
                                watchdog: Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET),
                                event_driven,
                                ..OrderedConfig::default()
                            };
                            OrderedEngine::new(&dfg, memory.clone(), cfg)
                                .run()
                                .map_err(|e| e.to_string())
                        };
                        match (run(true), run(false)) {
                            (Ok(event), Ok(ticked)) => {
                                assert_identical(&what, mem, &event, &ticked);
                                assert!(event.ipc.max_value() <= issue_width as u64, "{what}");
                                if faults.is_none() {
                                    assert!(event.is_complete(), "{what}: {:?}", event.outcome);
                                }
                                injected += event.faults.len();
                            }
                            (event, ticked) => {
                                assert_eq!(event.err(), ticked.err(), "{what}: simulated fault")
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(injected > 0, "the fault plan never struck");
}
