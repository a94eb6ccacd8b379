//! Composition differential: the batteries — `verify_with`,
//! `verify_ordered` and `verify_shards` — build each graph fact (edge maps,
//! index sets, channel depths) once per call and hand it to every pass that
//! needs it. Each must render byte-equal to the same passes called one by
//! one through the public wrappers, each of which builds its own facts, in
//! the battery's order. This is the standing check that sharing facts never
//! changes a verdict.
//!
//! Corpus: 200 generated programs, the seven tiny suite kernels and a
//! program with calls (whose returns are routed by `changeTag.dyn`), each
//! under the TYR, unordered-unbounded and ordered lowerings.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::Dfg;
use tyr_ir::build::ProgramBuilder;
use tyr_ir::{MemoryImage, Operand, Program, Value};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;
use tyr_verify::{
    analyze_shards, check_barrier_coverage, check_channel_capacity, check_edge_residency,
    check_footprint, check_lints, check_live_state, check_races, check_shards, check_structure,
    check_tag_policy, verify_ordered, verify_shards, verify_with, Report, ShardBudget,
    ShardCertificate,
};
use tyr_workloads::gen::Recipe;
use tyr_workloads::{suite, Scale};

const RECIPES: u64 = 200;
const RECIPE_SIZE: usize = 16;
const SHARDS: usize = 4;
const SHARD_SEED: u64 = 5;

type Memory<'a> = Option<(&'a MemoryImage, &'a [Value])>;

/// `verify_with`, pass by pass.
fn tagged_by_hand(title: &str, dfg: &Dfg, policy: Option<&TagPolicy>, memory: Memory) -> Report {
    let mut report = Report::new(title);
    report.extend(check_structure(dfg));
    if !report.is_clean() {
        return report;
    }
    report.extend(check_barrier_coverage(dfg));
    report.extend(check_lints(dfg));
    if let Some(p) = policy {
        report.extend(check_tag_policy(dfg, p));
        report.extend(check_live_state(dfg, p));
    }
    if let Some((mem, args)) = memory {
        report.extend(check_races(dfg, mem, args));
        report.extend(check_footprint(dfg, mem, args));
    }
    report
}

/// `verify_ordered`, pass by pass.
fn ordered_by_hand(title: &str, dfg: &Dfg, caps: &ChannelCapacity, memory: Memory) -> Report {
    let mut report = Report::new(title);
    report.extend(check_structure(dfg));
    if !report.is_clean() {
        return report;
    }
    report.extend(check_barrier_coverage(dfg));
    report.extend(check_lints(dfg));
    report.extend(check_channel_capacity(dfg, caps));
    report.extend(check_edge_residency(dfg));
    if let Some((mem, args)) = memory {
        report.extend(check_races(dfg, mem, args));
        report.extend(check_footprint(dfg, mem, args));
    }
    report
}

/// The rendered report, then every finding in the order the passes
/// produced it (rendering sorts by severity, which would hide a pass moved
/// across another).
fn rendered(report: &Report) -> String {
    let in_order: String = report.diags.iter().map(|d| format!("{d}\n")).collect();
    format!("{}{in_order}", report.render())
}

/// Every table of a certificate, rendered.
fn render_cert(dfg: &Dfg, c: &ShardCertificate) -> String {
    format!(
        "{}mem {:?}\nnode_shard {:?}\nboundary {:?}\nplain_store {:?}\ninflight {:?}\n\
         boundary_nodes {:?}\nboundaries {:?}\ntag_checks {:?}\n",
        c.plan.render(dfg),
        c.mem,
        c.node_shard,
        c.boundary,
        c.plain_store,
        c.shard_inflight,
        c.shard_boundary_nodes,
        c.boundaries,
        c.tag_checks,
    )
}

/// `verify_shards` against `analyze_shards` + `check_shards`.
fn check_shard_battery(title: &str, dfg: &Dfg, budget: Option<ShardBudget<'_>>, memory: Memory) {
    let (cert, report) = verify_shards(title, dfg, SHARDS, SHARD_SEED, budget, memory);
    let by_hand = analyze_shards(dfg, SHARDS, SHARD_SEED, budget, memory);
    let mut expected = Report::new(title);
    expected.extend(check_shards(dfg, &by_hand));
    assert_eq!(render_cert(dfg, &cert), render_cert(dfg, &by_hand), "{title}: certificate");
    assert_eq!(rendered(&report), rendered(&expected), "{title}: shard report");
}

/// Every battery on the three lowerings of one program, with and without
/// execution context.
fn check_program(name: &str, program: &Program, mem: &MemoryImage, args: &[Value]) {
    let memory: Memory = Some((mem, args));
    let tagged = [
        (TaggingDiscipline::Tyr, "tyr", TagPolicy::local(2)),
        (TaggingDiscipline::UnorderedUnbounded, "unordered", TagPolicy::GlobalUnbounded),
    ];
    for (discipline, label, policy) in &tagged {
        let dfg = lower_tagged(program, *discipline).unwrap();
        let title = format!("{name}/{label}");
        for (p, m) in [(Some(policy), memory), (None, None)] {
            assert_eq!(
                rendered(&verify_with(&title, &dfg, p, m)),
                rendered(&tagged_by_hand(&title, &dfg, p, m)),
                "{title}: verify_with (policy {}, memory {})",
                p.is_some(),
                m.is_some(),
            );
        }
        check_shard_battery(&title, &dfg, Some(ShardBudget::Tagged(policy)), memory);
    }

    let dfg = lower_ordered(program).unwrap();
    let title = format!("{name}/ordered");
    for depth in [1usize, 4] {
        let caps = ChannelCapacity::uniform(depth);
        for m in [memory, None] {
            assert_eq!(
                rendered(&verify_ordered(&title, &dfg, &caps, m)),
                rendered(&ordered_by_hand(&title, &dfg, &caps, m)),
                "{title}: verify_ordered (depth {depth}, memory {})",
                m.is_some(),
            );
        }
    }
    check_shard_battery(
        &title,
        &dfg,
        Some(ShardBudget::Ordered(&ChannelCapacity::uniform(4))),
        memory,
    );
}

#[test]
fn batteries_match_their_passes_on_generated_programs() {
    for seed in 0..RECIPES {
        let case = Recipe::generate(seed, RECIPE_SIZE).materialize();
        check_program(&format!("recipe{seed}"), &case.program, &case.memory, &case.args);
    }
}

#[test]
fn batteries_match_their_passes_on_the_suite() {
    for w in &suite(Scale::Tiny, SHARD_SEED) {
        check_program(&w.name, &w.program, &w.memory, &w.args);
    }
}

/// A helper called from inside a loop and once after it, over a memory
/// image with one array.
#[test]
fn batteries_match_their_passes_across_calls() {
    let mut pb = ProgramBuilder::new();
    let mut h = pb.func("helper", 2);
    let (a, b) = (h.param(0), h.param(1));
    let r = h.add(a, b);
    let hid = h.id();
    pb.define(h, [r]);
    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let [i, acc, m] = f.begin_loop("l", [Operand::Const(0), Operand::Const(0), n]);
    let c = f.lt(i, m);
    f.begin_body(c);
    let r = f.call(hid, &[acc, i], 1);
    let i2 = f.add(i, 1);
    let [out] = f.end_loop([i2, r[0], m], [acc]);
    let r2 = f.call(hid, &[out, n], 1);
    let program = pb.finish(f, [r2[0]]);
    let mut mem = MemoryImage::new();
    mem.alloc("a", 8);
    check_program("call", &program, &mem, &[5]);
}
