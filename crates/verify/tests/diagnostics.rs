//! End-to-end tests of the static passes: real lowerings must verify
//! clean, and hand-broken graphs must produce exactly the advertised
//! diagnostic codes.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::{AllocKind, Dfg, GraphBuilder, InKind, NodeId, NodeKind, PortRef, ROOT_BLOCK};
use tyr_ir::build::ProgramBuilder;
use tyr_ir::{MemoryImage, Operand, Program};
use tyr_sim::tagged::TagPolicy;
use tyr_verify::{
    analyze_tag_demand, check_races, check_tag_policy, predict_global, verify, verify_with, Code,
    GlobalPrediction,
};

/// `main(n)`: one affine loop summing `0..n`.
fn single_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let [i, acc, m] = f.begin_loop("sum", [Operand::Const(0), Operand::Const(0), n]);
    let c = f.lt(i, m);
    f.begin_body(c);
    let acc2 = f.add(acc, i);
    let i2 = f.add(i, 1);
    let [out] = f.end_loop([i2, acc2, m], [acc]);
    pb.finish(f, [out])
}

/// `main(n)`: a dmv-shaped doubly nested loop.
fn nested_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let [i, acc, m] = f.begin_loop("outer", [Operand::Const(0), Operand::Const(0), n]);
    let c = f.lt(i, m);
    f.begin_body(c);
    let [j, s, mm] = f.begin_loop("inner", [Operand::Const(0), acc, m]);
    let cj = f.lt(j, mm);
    f.begin_body(cj);
    let s2 = f.add(s, j);
    let j2 = f.add(j, 1);
    let [s_out] = f.end_loop([j2, s2, mm], [s]);
    let i2 = f.add(i, 1);
    let [out] = f.end_loop([i2, s_out, m], [acc]);
    pb.finish(f, [out])
}

/// `main(n)` calling a helper twice — exercises the dynamically-routed
/// return edges that the passes must synthesize.
fn call_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut h = pb.func("helper", 2);
    let (a, b) = (h.param(0), h.param(1));
    let r = h.add(a, b);
    let hid = h.id();
    pb.define(h, [r]);

    let mut f = pb.func("main", 1);
    let n = f.param(0);
    let r1 = f.call(hid, &[n, Operand::Const(3)], 1);
    let r2 = f.call(hid, &[r1[0], n], 1);
    pb.finish(f, [r2[0]])
}

#[test]
fn real_lowerings_verify_clean() {
    for program in [single_loop_program(), nested_loop_program(), call_program()] {
        for disc in [
            TaggingDiscipline::Tyr,
            TaggingDiscipline::UnorderedBounded,
            TaggingDiscipline::UnorderedUnbounded,
        ] {
            let dfg = lower_tagged(&program, disc).unwrap();
            let report = verify("test", &dfg);
            assert!(report.is_clean(), "{disc:?}:\n{}", report.render());
            // Real lowerings are fully live and waste-free: not even
            // warnings or notes.
            assert!(report.diags.is_empty(), "{disc:?}:\n{}", report.render());
        }
        let ord = lower_ordered(&program).unwrap();
        let report = verify("test", &ord);
        assert!(report.is_clean(), "ordered:\n{}", report.render());
    }
}

#[test]
fn tag_demand_of_loop_shapes() {
    // Single loop: its space needs 2 tags (external allocate reserves 1);
    // no nesting, so a global pool >= flat demand is safe.
    let dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    let d = analyze_tag_demand(&dfg);
    let space = dfg.block_by_name("sum").unwrap();
    assert_eq!(d.for_space(space), Some(2));
    assert!(!d.nested);
    assert_eq!(predict_global(&d, d.flat_demand()), GlobalPrediction::Safe);
    assert_eq!(predict_global(&d, 1), GlobalPrediction::MayDeadlock);

    // Nested loops: both spaces need 2 tags, and the inner allocate lives
    // in the outer block — nesting, so any bounded pool is predicted to
    // deadlock on large inputs (Fig. 11).
    let dfg = lower_tagged(&nested_loop_program(), TaggingDiscipline::Tyr).unwrap();
    let d = analyze_tag_demand(&dfg);
    for b in ["outer", "inner"] {
        assert_eq!(d.for_space(dfg.block_by_name(b).unwrap()), Some(2), "{b}");
    }
    assert!(d.nested);
    assert_eq!(predict_global(&d, 1_000_000), GlobalPrediction::DeadlockNested);

    // Call-only spaces need just 1 tag, and a call from straight-line main
    // is not nesting.
    let dfg = lower_tagged(&call_program(), TaggingDiscipline::Tyr).unwrap();
    let d = analyze_tag_demand(&dfg);
    assert_eq!(d.for_space(dfg.block_by_name("helper").unwrap()), Some(1));
    assert!(!d.nested);
}

#[test]
fn tag_policy_checks() {
    let dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    // 1 tag for a loop space: statically doomed (T001).
    let diags = check_tag_policy(&dfg, &TagPolicy::local(1));
    assert!(diags.iter().any(|d| d.code == Code::InsufficientTags), "{diags:?}");
    // Theorem 1 minimum: clean.
    assert!(check_tag_policy(&dfg, &TagPolicy::local(2)).is_empty());
    // A default of 1 rescued by an override on the loop's block: clean.
    let rescued = TagPolicy::local_with(1, vec![("sum".into(), 2)]);
    assert!(check_tag_policy(&dfg, &rescued).is_empty());
    // Unbounded: nothing to check.
    assert!(check_tag_policy(&dfg, &TagPolicy::GlobalUnbounded).is_empty());

    // Nested program under a bounded global pool: T003 regardless of size.
    let dfg = lower_tagged(&nested_loop_program(), TaggingDiscipline::Tyr).unwrap();
    let diags = check_tag_policy(&dfg, &TagPolicy::GlobalBounded { tags: 8 });
    assert!(diags.iter().any(|d| d.code == Code::NestedGlobalAlloc), "{diags:?}");
}

#[test]
fn orphan_node_is_outside_barrier() {
    let mut dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    // Graft a node that consumes a loop-body value but feeds nothing: its
    // tokens outlive the context's free.
    let body = dfg.block_by_name("sum").unwrap();
    let producer = dfg
        .nodes()
        .position(|n| n.block() == body && matches!(n.kind(), NodeKind::Alu(_)))
        .expect("loop body has an alu node");
    let orphan =
        dfg.push_node(NodeKind::Alu(tyr_ir::AluOp::Neg), body, &[InKind::Wire], 1, "orphan");
    dfg.push_target(NodeId(producer as u32), 0, PortRef { node: orphan, port: 0 });

    let report = verify("orphan", &dfg);
    assert!(report.has(Code::OutsideBarrier), "{}", report.render());
    assert!(report.has(Code::DanglingOutput), "{}", report.render());
    let diag = report.diags.iter().find(|d| d.code == Code::OutsideBarrier).unwrap();
    assert_eq!(diag.node, Some(orphan));
    assert_eq!(diag.block, Some(body));
}

#[test]
fn broken_edges_are_reported_per_node() {
    let mut dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    // An edge to a port beyond the sink's inputs, and one to a node that
    // does not exist. Both anchored to the same (valid) producer.
    let from = dfg.source;
    dfg.push_target(from, 0, PortRef { node: dfg.sink, port: 999 });
    dfg.push_target(from, 0, PortRef { node: NodeId(u32::MAX), port: 0 });
    let report = verify("broken", &dfg);
    assert!(report.has(Code::MissingPort), "{}", report.render());
    assert!(report.has(Code::MissingNode), "{}", report.render());
    // Structure errors gate the deeper passes.
    assert!(!report.has(Code::OutsideBarrier));
}

#[test]
fn allocate_with_unreachable_free() {
    // Hand-built: source feeds an allocate of space B and, separately, a
    // free of B. The graph *has* a free of B (so structure's recycling
    // check passes) but the allocate's forward cone never reaches it.
    let mut g = GraphBuilder::new();
    g.add_block("root", None, false);
    let b = g.add_block("B", Some(ROOT_BLOCK), false);
    let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 3, "source");
    let alloc = g.add_node(
        NodeKind::Allocate { space: b, kind: AllocKind::Call },
        ROOT_BLOCK,
        vec![InKind::Wire, InKind::Wire],
        2,
        "alloc",
    );
    let free = g.add_node(NodeKind::Free { space: b }, ROOT_BLOCK, vec![InKind::Wire], 0, "free");
    let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
    g.connect(source, 0, PortRef { node: alloc, port: 0 });
    g.connect(source, 1, PortRef { node: alloc, port: 1 });
    g.connect(source, 2, PortRef { node: free, port: 0 });
    g.connect(alloc, 0, PortRef { node: sink, port: 0 });
    let dfg = g.finish(source, sink, 1);

    let report = verify("alloc-no-free", &dfg);
    assert!(report.has(Code::AllocNoFree), "{}", report.render());
    let diag = report.diags.iter().find(|d| d.code == Code::AllocNoFree).unwrap();
    assert_eq!(diag.node, Some(alloc));
}

#[test]
fn unfreed_space_is_a_structure_error() {
    let mut dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    // Retarget every free of the loop's space at the root space: the loop
    // space is now allocated from but never freed into.
    let space = dfg.block_by_name("sum").unwrap();
    for id in (0..dfg.len() as u32).map(NodeId) {
        if matches!(dfg.node(id).kind(), NodeKind::Free { space: s } if *s == space) {
            dfg.set_kind(id, NodeKind::Free { space: ROOT_BLOCK });
        }
    }
    let report = verify("unfreed", &dfg);
    assert!(report.has(Code::UnfreedSpace), "{}", report.render());
}

#[test]
fn unreachable_node_is_linted_but_call_landings_are_not() {
    // Call-return landing pads are only fed through changeTag.dyn routing;
    // if the synthesized edges were missing, this clean graph would be full
    // of false L002s — `real_lowerings_verify_clean` covers that. Here:
    // a genuinely unreachable island.
    let mut dfg = lower_tagged(&call_program(), TaggingDiscipline::Tyr).unwrap();
    let a = NodeId(dfg.len() as u32);
    let b = NodeId(dfg.len() as u32 + 1);
    for other in [b, a] {
        let n = dfg.push_node(
            NodeKind::Alu(tyr_ir::AluOp::Mov),
            ROOT_BLOCK,
            &[InKind::Wire],
            1,
            "island",
        );
        dfg.push_target(n, 0, PortRef { node: other, port: 0 });
    }
    let report = verify("island", &dfg);
    let flagged: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.code == Code::UnreachableNode)
        .filter_map(|d| d.node)
        .collect();
    assert_eq!(flagged, vec![a, b], "{}", report.render());
}

#[test]
fn race_pass_flags_unordered_stores_only() {
    let mut mem = MemoryImage::new();
    let arr = mem.alloc("out", 8);

    // Two plain stores into the same segment, no path between them: M001.
    let build = |ordered: bool, kinds: [NodeKind; 2]| -> Dfg {
        let mut g = GraphBuilder::new();
        g.add_block("root", None, false);
        let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 1, "source");
        let mut prev: Option<NodeId> = None;
        let mut stores = Vec::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            // Both accesses use the segment base itself: classification is
            // by exact base match, so offset addresses are deliberately
            // invisible unless reached through add/sub arithmetic.
            let s = g.add_node(
                kind,
                ROOT_BLOCK,
                vec![InKind::Imm(arr.base_const()), InKind::Wire],
                1,
                format!("s{i}"),
            );
            g.connect(source, 0, PortRef { node: s, port: 1 });
            if ordered {
                if let Some(p) = prev {
                    // Thread the ctl output through: an ordering dependence.
                    g.connect(p, 0, PortRef { node: s, port: 1 });
                }
            }
            prev = Some(s);
            stores.push(s);
        }
        let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
        g.connect(stores[1], 0, PortRef { node: sink, port: 0 });
        g.finish(source, sink, 1)
    };

    let racy = build(false, [NodeKind::Store, NodeKind::Store]);
    let diags = check_races(&racy, &mem, &[]);
    // Both stores hit the segment base itself, so the index analysis proves
    // they always collide: the finding is upgraded to an error with the
    // witness index.
    let d = diags.iter().find(|d| d.code == Code::StoreStoreRace).expect("M001");
    assert_eq!(d.severity, tyr_verify::Severity::Error, "{diags:?}");
    assert!(d.message.contains("always collide at index 0"), "{}", d.message);

    // Same stores with a dependence edge: ordered, no finding.
    let serial = build(true, [NodeKind::Store, NodeKind::Store]);
    assert!(check_races(&serial, &mem, &[]).is_empty());

    // storeAdd pairs are commutative by design: no finding.
    let atomic = build(false, [NodeKind::StoreAdd, NodeKind::StoreAdd]);
    assert!(check_races(&atomic, &mem, &[]).is_empty());

    // Load vs. store at the same singleton address, unordered: M002,
    // upgraded to an error by the collision proof.
    let mixed = {
        let mut g = GraphBuilder::new();
        g.add_block("root", None, false);
        let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 1, "source");
        let ld = g.add_node(NodeKind::Load, ROOT_BLOCK, vec![InKind::Wire], 1, "ld");
        g.connect(source, 0, PortRef { node: ld, port: 0 });
        let st = g.add_node(
            NodeKind::Store,
            ROOT_BLOCK,
            vec![InKind::Imm(arr.base_const()), InKind::Wire],
            1,
            "st",
        );
        g.connect(source, 0, PortRef { node: st, port: 1 });
        let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
        g.connect(ld, 0, PortRef { node: sink, port: 0 });
        g.finish(source, sink, 1)
    };
    // The load's address is the segment base, delivered as argument 0.
    let report = verify_with("mixed", &mixed, None, Some((&mem, &[arr.base_const()])));
    assert!(report.has(Code::LoadStoreRace), "{}", report.render());
    assert!(!report.is_clean(), "a proven collision must fail verification:\n{}", report.render());

    // An address the analysis cannot pin down (a two-way merge of base and
    // base+1) against the base itself: possibly-overlapping, still a
    // warning — verification passes.
    let undecided = {
        let mut g = GraphBuilder::new();
        g.add_block("root", None, false);
        let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 1, "source");
        let addr = g.add_node(
            NodeKind::Merge,
            ROOT_BLOCK,
            vec![InKind::Imm(arr.base_const()), InKind::Wire],
            1,
            "addr",
        );
        g.connect(source, 0, PortRef { node: addr, port: 1 });
        let s0 = g.add_node(NodeKind::Store, ROOT_BLOCK, vec![InKind::Wire, InKind::Wire], 1, "s0");
        g.connect(addr, 0, PortRef { node: s0, port: 0 });
        g.connect(source, 0, PortRef { node: s0, port: 1 });
        let s1 = g.add_node(
            NodeKind::Store,
            ROOT_BLOCK,
            vec![InKind::Imm(arr.base_const()), InKind::Wire],
            1,
            "s1",
        );
        g.connect(source, 0, PortRef { node: s1, port: 1 });
        let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
        g.connect(s1, 0, PortRef { node: sink, port: 0 });
        g.finish(source, sink, 1)
    };
    // Argument 0 (the source's port-0 value, merged into the address) is
    // base + 1: the merged address is {base, base+1}, not a singleton.
    let report = verify_with("undecided", &undecided, None, Some((&mem, &[arr.base_const() + 1])));
    assert!(report.has(Code::StoreStoreRace), "{}", report.render());
    assert!(report.is_clean(), "undecided overlaps stay warnings:\n{}", report.render());
}

#[test]
fn strided_even_odd_stores_are_proven_disjoint() {
    // Two unordered plain stores into the same segment — exactly the shape
    // PR 1's segment-mask analysis warned about (M001: intersecting masks
    // prove overlap of segments, not of index sets). One store's address
    // set is {base, base+2} (stride 2, even residue), the other's is
    // {base+1, base+3} (stride 2, odd residue): the strided-interval
    // analysis proves the residues incompatible mod 2 and suppresses the
    // warning outright.
    let mut mem = MemoryImage::new();
    let arr = mem.alloc("out", 8);
    let build = |offset: i64| -> Dfg {
        let mut g = GraphBuilder::new();
        g.add_block("root", None, false);
        let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 1, "source");
        // Even set: merge of the segment base (immediate) and base+2 (the
        // program argument) — the analysis joins them into {base, base+2}
        // step 2, carrying the segment's provenance from the base match.
        let even = g.add_node(
            NodeKind::Merge,
            ROOT_BLOCK,
            vec![InKind::Imm(arr.base_const()), InKind::Wire],
            1,
            "even",
        );
        g.connect(source, 0, PortRef { node: even, port: 1 });
        let st_e =
            g.add_node(NodeKind::Store, ROOT_BLOCK, vec![InKind::Wire, InKind::Wire], 1, "st_e");
        g.connect(even, 0, PortRef { node: st_e, port: 0 });
        g.connect(source, 0, PortRef { node: st_e, port: 1 });
        // Second set: the even set shifted by `offset`, through real address
        // arithmetic so provenance follows.
        let shifted = g.add_node(
            NodeKind::Alu(tyr_ir::AluOp::Add),
            ROOT_BLOCK,
            vec![InKind::Wire, InKind::Imm(offset)],
            1,
            "shifted",
        );
        g.connect(even, 0, PortRef { node: shifted, port: 0 });
        let st_s =
            g.add_node(NodeKind::Store, ROOT_BLOCK, vec![InKind::Wire, InKind::Wire], 1, "st_s");
        g.connect(shifted, 0, PortRef { node: st_s, port: 0 });
        g.connect(source, 0, PortRef { node: st_s, port: 1 });
        let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
        g.connect(st_s, 0, PortRef { node: sink, port: 0 });
        g.finish(source, sink, 1)
    };
    let args = [arr.base_const() + 2];

    // Offset 1: {base, base+2} vs {base+1, base+3} — incompatible residues
    // mod 2, the PR-1 warning is resolved to a proof of safety.
    let diags = check_races(&build(1), &mem, &args);
    assert!(diags.is_empty(), "even/odd strides must be proven disjoint: {diags:?}");

    // Offset 2: {base, base+2} vs {base+2, base+4} share the even residue
    // and may both hit base+2 — the honest warning stays (and no collision
    // upgrade: neither address is a singleton).
    let diags = check_races(&build(2), &mem, &args);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::StoreStoreRace);
    assert_eq!(diags[0].severity, tyr_verify::Severity::Warning, "{diags:?}");
}

#[test]
fn pointer_masks_follow_address_arithmetic() {
    // store(base + i, v) vs store(other_base + i, v): disjoint segments,
    // no finding even though both stores are unordered.
    let mut mem = MemoryImage::new();
    let a = mem.alloc("a", 8);
    let b = mem.alloc("b", 8);
    let mut g = GraphBuilder::new();
    g.add_block("root", None, false);
    let source = g.add_node(NodeKind::Source, ROOT_BLOCK, vec![], 1, "source");
    let mut last = None;
    for base in [a.base_const(), b.base_const()] {
        let addr = g.add_node(
            NodeKind::Alu(tyr_ir::AluOp::Add),
            ROOT_BLOCK,
            vec![InKind::Wire, InKind::Imm(base)],
            1,
            "addr",
        );
        g.connect(source, 0, PortRef { node: addr, port: 0 });
        let st = g.add_node(NodeKind::Store, ROOT_BLOCK, vec![InKind::Wire, InKind::Wire], 1, "st");
        g.connect(addr, 0, PortRef { node: st, port: 0 });
        g.connect(source, 0, PortRef { node: st, port: 1 });
        last = Some(st);
    }
    let sink = g.add_node(NodeKind::Sink, ROOT_BLOCK, vec![InKind::Wire], 0, "sink");
    g.connect(last.unwrap(), 0, PortRef { node: sink, port: 0 });
    let dfg = g.finish(source, sink, 1);
    assert!(check_races(&dfg, &mem, &[]).is_empty());
}

#[test]
fn translation_validation_of_clean_programs() {
    let mem = MemoryImage::new();
    for (name, program) in [
        ("single", single_loop_program()),
        ("nested", nested_loop_program()),
        ("calls", call_program()),
    ] {
        let report = tyr_verify::validate_translations(name, &program, &mem, &[6]);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.diags.is_empty(), "{}", report.render());
    }
}

#[test]
fn translation_validation_reports_oracle_faults() {
    // A program that loads far outside the (empty) memory image: the
    // reference interpreter itself faults, which TV must surface rather
    // than panic over.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 1);
    let v = f.load(1 << 40);
    let program = pb.finish(f, [v]);
    let report = tyr_verify::validate_translations("oob", &program, &MemoryImage::new(), &[0]);
    assert!(report.has(Code::TvFault), "{}", report.render());
}

#[test]
fn blockid_display_in_rendered_reports() {
    let dfg = lower_tagged(&single_loop_program(), TaggingDiscipline::Tyr).unwrap();
    let report = verify_with("render", &dfg, Some(&TagPolicy::local(1)), None);
    let text = report.render();
    assert!(text.contains("error[T001]"), "{text}");
    assert!(text.contains("'sum'"), "{text}");
    assert!(text.contains("FAIL"), "{text}");
}
