//! Cross-engine probe-layer integration tests.
//!
//! Every engine must emit `NodeFired` through the shared [`Probe`] trait in
//! exact agreement with the `dyn_instrs` it reports, the profiler must
//! attribute the Fig. 11 bounded-global deadlock to tag starvation, and the
//! Chrome-trace sink must produce JSON that round-trips through its own
//! validator.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_ir::build::ProgramBuilder;
use tyr_ir::{MemoryImage, Program};
use tyr_sim::ooo::{OooConfig, OooEngine};
use tyr_sim::ordered::{OrderedConfig, OrderedEngine};
use tyr_sim::seqdf::{SeqDataflowConfig, SeqDataflowEngine};
use tyr_sim::seqvn::{SeqVnConfig, SeqVnEngine};
use tyr_sim::tagged::{TagPolicy, TaggedConfig, TaggedEngine};
use tyr_sim::MemConfig;
use tyr_stats::probe::{ChromeTrace, CountingProbe, EventKind};
use tyr_stats::{NodeProfiler, StallReason};

fn sum_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let [i, acc, nn] = f.begin_loop("sum", [0.into(), 0.into(), n]);
    let c = f.lt(i, nn);
    f.begin_body(c);
    let acc2 = f.add(acc, i);
    let i2 = f.add(i, 1);
    let [total] = f.end_loop([i2, acc2, nn], [acc]);
    pb.finish(f, [total])
}

/// The paper's Fig. 11 shape: nested loops whose inner iterations starve
/// when an FCFS global tag pool hands every tag to outer iterations.
fn nested_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let [i, acc] = f.begin_loop("outer", [0, 0]);
    let c = f.lt(i, 64);
    f.begin_body(c);
    let [j, ia] = f.begin_loop("inner", [0.into(), acc]);
    let cj = f.lt(j, 8);
    f.begin_body(cj);
    let ia2 = f.add(ia, 1);
    let j2 = f.add(j, 1);
    let [acc_out] = f.end_loop([j2, ia2], [ia]);
    let i2 = f.add(i, 1);
    let [total] = f.end_loop([i2, acc_out], [acc]);
    pb.finish(f, [total])
}

#[test]
fn tagged_profiler_fires_match_dyn_instrs() {
    let p = sum_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let cfg = TaggedConfig { args: vec![100], ..TaggedConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete(), "{:?}", r.outcome);
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
    assert!(report.nodes.iter().any(|n| n.produced > 0));
    assert!(report.nodes.iter().any(|n| n.consumed > 0));
}

#[test]
fn ordered_profiler_fires_match_dyn_instrs() {
    let p = sum_program();
    let dfg = lower_ordered(&p).unwrap();
    let cfg = OrderedConfig { args: vec![100], ..OrderedConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = OrderedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete(), "{:?}", r.outcome);
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
}

#[test]
fn seqdf_profiler_fires_match_dyn_instrs() {
    let p = sum_program();
    let cfg = SeqDataflowConfig { args: vec![100], ..SeqDataflowConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = SeqDataflowEngine::with_probe(&p, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete());
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
}

#[test]
fn seqvn_profiler_fires_match_dyn_instrs() {
    let p = sum_program();
    let cfg = SeqVnConfig { args: vec![100], ..SeqVnConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = SeqVnEngine::with_probe(&p, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete());
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
}

#[test]
fn ooo_profiler_fires_match_dyn_instrs() {
    let p = sum_program();
    let cfg = OooConfig { args: vec![100], ..OooConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = OooEngine::with_probe(&p, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete());
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
}

#[test]
fn probe_does_not_change_results() {
    let p = sum_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let cfg = TaggedConfig { args: vec![200], ..TaggedConfig::default() };
    let plain = TaggedEngine::new(&dfg, MemoryImage::new(), cfg.clone()).run().unwrap();
    let mut counting = CountingProbe::default();
    let probed =
        TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut counting).run().unwrap();
    assert_eq!(plain.returns, probed.returns);
    assert_eq!(plain.cycles(), probed.cycles());
    assert_eq!(plain.dyn_instrs(), probed.dyn_instrs());
    assert!(counting.events > 0, "an attached probe must see events");
}

#[test]
fn bounded_global_deadlock_attributed_to_tag_starvation() {
    // Fig. 11: the bounded-global run wedges; stall attribution must name
    // tag starvation, and the wedged allocates must sit in the profile with
    // open tag-starved intervals accounted to the deadlock cycle.
    let p = nested_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedBounded).unwrap();
    let cfg = TaggedConfig {
        tag_policy: TagPolicy::GlobalBounded { tags: 4 },
        ..TaggedConfig::default()
    };
    let mut prof = NodeProfiler::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(!r.is_complete(), "bounded global pool must deadlock: {:?}", r.outcome);
    let report = prof.report(r.final_cycle());
    assert!(
        report.stall_total(StallReason::TagStarved) > 0,
        "deadlock must be attributed to tag starvation:\n{}",
        report.render(10, 40)
    );
    // The dominant tag-starved node is a tag-allocation site.
    let starved = report
        .nodes
        .iter()
        .max_by_key(|n| n.stall_cycles[StallReason::TagStarved.index()])
        .unwrap();
    assert!(starved.stall_cycles[StallReason::TagStarved.index()] > 0);

    // The same program under TYR's per-block local spaces completes with
    // ample tags: no tag starvation at all. (With a deliberately tiny local
    // space TYR *does* accumulate bounded tag-starved waits — that is its
    // throttling working — but the run still completes.)
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let cfg = TaggedConfig { tag_policy: TagPolicy::local(64), ..TaggedConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete(), "{:?}", r.outcome);
    let report = prof.report(r.final_cycle());
    assert_eq!(
        report.stall_total(StallReason::TagStarved),
        0,
        "TYR with ample local tags must not starve:\n{}",
        report.stall_table(10)
    );

    let cfg = TaggedConfig { tag_policy: TagPolicy::local(2), ..TaggedConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(r.is_complete(), "TYR throttled must still complete: {:?}", r.outcome);
    let report = prof.report(r.final_cycle());
    assert!(
        report.stall_total(StallReason::TagStarved) > 0,
        "a 2-tag local space should show bounded allocate waits"
    );
}

#[test]
fn ordered_attributes_back_pressure() {
    // Starve a loop-control edge to zero capacity: the comparison wedges
    // behind the full (capacity-0) FIFO and the profile must say so.
    use tyr_dfg::NodeKind;
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let [i] = f.begin_loop("l", [0]);
    let c = f.lt(i, 10);
    f.begin_body(c);
    let i2 = f.add(i, 1);
    let [out] = f.end_loop([i2], [i]);
    let p = pb.finish(f, [out]);
    let dfg = lower_ordered(&p).unwrap();
    let cm = dfg
        .nodes()
        .position(
            |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
        )
        .expect("a primed loop-carry CMerge") as u32;
    let cfg = OrderedConfig { depth_overrides: vec![((cm, 0), 0)], ..OrderedConfig::default() };
    let mut prof = NodeProfiler::new();
    let r = OrderedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut prof).run().unwrap();
    assert!(!r.is_complete());
    let report = prof.report(r.final_cycle());
    assert!(
        report.stall_total(StallReason::BackPressure) > 0,
        "wedge must be attributed to back pressure:\n{}",
        report.stall_table(10)
    );
}

#[test]
fn chrome_trace_round_trips_from_a_real_run() {
    let p = sum_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let cfg = TaggedConfig { args: vec![50], ..TaggedConfig::default() };
    let mut chrome = ChromeTrace::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, &mut chrome).run().unwrap();
    assert!(r.is_complete());
    let text = chrome.render(r.final_cycle());
    let kinds = ChromeTrace::validate(&text).expect("emitted trace must validate");
    assert!(kinds[EventKind::Fired.name()] > 0);
    assert!(kinds[EventKind::Produced.name()] > 0);
    assert!(kinds[EventKind::Consumed.name()] > 0);
}

#[test]
fn dual_sink_feeds_both() {
    let p = sum_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let cfg = TaggedConfig { args: vec![50], ..TaggedConfig::default() };
    let mut prof = NodeProfiler::new();
    let mut chrome = ChromeTrace::new();
    let r = TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, (&mut prof, &mut chrome))
        .run()
        .unwrap();
    assert!(r.is_complete());
    let report = prof.report(r.final_cycle());
    assert_eq!(report.total_fires(), r.dyn_instrs());
    assert_eq!(chrome.kind_count(EventKind::Fired), r.dyn_instrs());
}

#[test]
fn sparse_store_probe_parity() {
    // The unbounded-tag policy exercises the slab-backed FxHash sparse
    // store; probe fire counts must still equal dyn_instrs, and attaching
    // the probe must not perturb the run.
    let p = nested_program();
    let dfg = lower_tagged(&p, TaggingDiscipline::UnorderedUnbounded).unwrap();
    let cfg = TaggedConfig { tag_policy: TagPolicy::GlobalUnbounded, ..TaggedConfig::default() };
    let plain = TaggedEngine::new(&dfg, MemoryImage::new(), cfg.clone()).run().unwrap();
    assert!(plain.is_complete(), "{:?}", plain.outcome);
    let mut counting = CountingProbe::default();
    let mut prof = NodeProfiler::new();
    let probed =
        TaggedEngine::with_probe(&dfg, MemoryImage::new(), cfg, (&mut counting, &mut prof))
            .run()
            .unwrap();
    assert_eq!(plain.cycles(), probed.cycles());
    assert_eq!(plain.returns, probed.returns);
    assert_eq!(prof.report(probed.final_cycle()).total_fires(), probed.dyn_instrs());
}

/// Splits `MemAccess` events by direction, for parity checks against the
/// engine's own architectural load/store counters.
#[derive(Default)]
struct MemCounter {
    loads: u64,
    stores: u64,
}

impl tyr_stats::probe::Probe for MemCounter {
    fn event(&mut self, _cycle: u64, ev: tyr_stats::probe::ProbeEvent) {
        if let tyr_stats::probe::ProbeEvent::MemAccess { write, .. } = ev {
            if write {
                self.stores += 1;
            } else {
                self.loads += 1;
            }
        }
    }
}

/// `ys[i] = xs[i] * 3` — one load and one store per iteration, so every
/// engine has both directions to account for.
fn copy_scale_case() -> (Program, MemoryImage) {
    let mut mem = MemoryImage::new();
    let xs = mem.alloc_init("xs", &(0..24).map(|i| i * 7 - 11).collect::<Vec<_>>());
    let ys = mem.alloc("ys", 24);
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let [i] = f.begin_loop("copy", [0]);
    let c = f.lt(i, 24);
    f.begin_body(c);
    let src = f.add(i, xs.base_const());
    let v = f.load(src);
    let v3 = f.mul(v, 3);
    let dst = f.add(i, ys.base_const());
    f.store(dst, v3);
    let i2 = f.add(i, 1);
    let [end] = f.end_loop([i2], [i]);
    (pb.finish(f, [end]), mem)
}

#[test]
fn mem_access_events_match_engine_counters_on_every_engine() {
    // The W-pass cross-validation trusts `MemAccess` to be an exact record
    // of architectural memory traffic: every engine's emitted load/store
    // events must equal the counters it reports on the `RunResult`.
    let (p, mem) = copy_scale_case();
    let dfg_tyr = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    let dfg_ord = lower_ordered(&p).unwrap();

    let mut runs: Vec<(&str, MemCounter, tyr_sim::RunResult)> = Vec::new();

    let mut mc = MemCounter::default();
    let r = TaggedEngine::with_probe(&dfg_tyr, mem.clone(), TaggedConfig::default(), &mut mc)
        .run()
        .unwrap();
    runs.push(("tagged", mc, r));

    let mut mc = MemCounter::default();
    let r = OrderedEngine::with_probe(&dfg_ord, mem.clone(), OrderedConfig::default(), &mut mc)
        .run()
        .unwrap();
    runs.push(("ordered", mc, r));

    let mut mc = MemCounter::default();
    let r = SeqDataflowEngine::with_probe(&p, mem.clone(), SeqDataflowConfig::default(), &mut mc)
        .run()
        .unwrap();
    runs.push(("seqdf", mc, r));

    let mut mc = MemCounter::default();
    let r =
        SeqVnEngine::with_probe(&p, mem.clone(), SeqVnConfig::default(), &mut mc).run().unwrap();
    runs.push(("seqvn", mc, r));

    let mut mc = MemCounter::default();
    let r = OooEngine::with_probe(&p, mem.clone(), OooConfig::default(), &mut mc).run().unwrap();
    runs.push(("ooo", mc, r));

    for (engine, mc, r) in &runs {
        assert!(r.is_complete(), "{engine}: {:?}", r.outcome);
        assert!(mc.loads > 0 && mc.stores > 0, "{engine} must emit both directions");
        assert_eq!(mc.loads, r.mem_loads, "{engine}: load events vs counter");
        assert_eq!(mc.stores, r.mem_stores, "{engine}: store events vs counter");
    }
    // All engines execute the same architectural accesses on this kernel.
    let (_, m0, _) = &runs[0];
    for (engine, mc, _) in &runs[1..] {
        assert_eq!((mc.loads, mc.stores), (m0.loads, m0.stores), "{engine} vs tagged");
    }
}

#[test]
fn timing_wheel_probe_parity() {
    // mem_latency >= 2 routes memory responses through the timing wheel.
    // Fire counts must match dyn_instrs on both the wheel path and the
    // FIFO fallback used for latencies past the wheel's bucket cap.
    let mut mem = MemoryImage::new();
    let xs = mem.alloc_init("xs", &(0..16).map(|i| i * 5 - 3).collect::<Vec<_>>());
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let [i, acc] = f.begin_loop("l", [0, 0]);
    let c = f.lt(i, 16);
    f.begin_body(c);
    let addr = f.add(i, xs.base_const());
    let v = f.load(addr);
    let acc2 = f.add(acc, v);
    let i2 = f.add(i, 1);
    let [out] = f.end_loop([i2, acc2], [acc]);
    let p = pb.finish(f, [out]);
    let dfg = lower_tagged(&p, TaggingDiscipline::Tyr).unwrap();
    for lat in [4u64, 64, 20_000] {
        let cfg = TaggedConfig { mem: MemConfig::ideal(lat), ..TaggedConfig::default() };
        let plain = TaggedEngine::new(&dfg, mem.clone(), cfg.clone()).run().unwrap();
        assert!(plain.is_complete(), "lat={lat}: {:?}", plain.outcome);
        let mut prof = NodeProfiler::new();
        let probed = TaggedEngine::with_probe(&dfg, mem.clone(), cfg, &mut prof).run().unwrap();
        assert_eq!(plain.cycles(), probed.cycles(), "lat={lat}");
        assert_eq!(
            prof.report(probed.final_cycle()).total_fires(),
            probed.dyn_instrs(),
            "lat={lat}"
        );
    }
}
