//! The `repro verify` subcommand: the full static-analysis and
//! translation-validation battery over the paper's kernel suite (Table II).
//!
//! For every app, every tagged elaboration is checked by the `tyr-verify`
//! static passes — structure, free-barrier coverage, lifecycle lints, tag
//! demand against the policy the harness would actually run with, and
//! memory races against the actual memory image — then every lowering is
//! replayed against the reference interpreter (translation validation).
//!
//! The *ordered* lowering of every app is checked too: the channel-
//! occupancy pass computes per-edge minimum FIFO depths and checks them
//! against the capacity the harness would run with (`--queue`).
//!
//! Finally the static verdicts are *cross-validated* against the engines'
//! dynamic detectors:
//!
//! * Fig. 11 — the static tag-demand pass must predict from graph shape
//!   alone that dmv under a bounded global pool can deadlock, the dynamic
//!   detector must confirm it on a real run, and the same pair must agree
//!   that TYR's local spaces with the Theorem-1 minimum of 2 tags are safe
//!   and complete.
//! * Ordered FIFOs — for every kernel's ordered lowering, a configuration
//!   the occupancy pass calls safe (no O001) must complete in the ordered
//!   engine, and a configuration it calls doomed (a live edge under its
//!   static minimum) must trip the engine's back-pressure deadlock
//!   detector, with a stall witness naming the starved edge.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::NodeKind;
use tyr_sim::ordered::{ChannelCapacity, OrderedConfig, OrderedEngine};
use tyr_sim::tagged::TagPolicy;
use tyr_stats::locality::WorkingSet;
use tyr_verify::{
    analyze_footprint, analyze_live_state, analyze_tag_demand, check_channel_capacity,
    check_tag_policy, compare_elaborations, predict_global, validate_translations, verify_ordered,
    verify_with, Code, GlobalPrediction, Report,
};
use tyr_workloads::{dmv, suite, Scale};

use crate::figures::Ctx;
use crate::{trace, LoweredWorkload};

/// Prints `report` — one `ok` line when empty, the full rendering when it
/// has findings — and folds its counts into the running totals.
fn account(report: &Report, errors: &mut usize, warnings: &mut usize) {
    *errors += report.errors();
    *warnings += report.warnings();
    if report.diags.is_empty() {
        println!("  verify {:<40} ok", report.title);
    } else {
        println!("{}", report.render());
    }
}

/// Runs the whole battery; returns `false` if any pass reported an error
/// (the subcommand then exits nonzero).
pub fn run(ctx: &Ctx) -> bool {
    println!("== repro verify: static analysis + translation validation ==");
    let mut errors = 0usize;
    let mut warnings = 0usize;

    // The policies each elaboration is meant to run under in the harness.
    let tyr_policy = ctx.cfg.tyr_policy();
    let lowerings: &[(TaggingDiscipline, &str, Option<&TagPolicy>)] = &[
        (TaggingDiscipline::Tyr, "tyr", Some(&tyr_policy)),
        // Bounded-global runs reuse the barriered graph; its demand under a
        // global pool is checked separately in the Fig. 11 cross-validation
        // below, so no policy here.
        (TaggingDiscipline::UnorderedBounded, "unordered-bounded", None),
        (
            TaggingDiscipline::UnorderedUnbounded,
            "unordered-unbounded",
            Some(&TagPolicy::GlobalUnbounded),
        ),
    ];

    for w in &suite(ctx.scale, ctx.seed) {
        for &(discipline, label, policy) in lowerings {
            let title = format!("{}/{label}", w.name);
            let report = match lower_tagged(&w.program, discipline) {
                Ok(dfg) => verify_with(&title, &dfg, policy, Some((&w.memory, &w.args))),
                Err(e) => {
                    let mut r = Report::new(&title);
                    r.push(tyr_verify::Diagnostic::global(
                        Code::TvFault,
                        format!("lowering failed: {e}"),
                    ));
                    r
                }
            };
            account(&report, &mut errors, &mut warnings);
        }
        let title = format!("{}/ordered", w.name);
        let report = match lower_ordered(&w.program) {
            Ok(dfg) => verify_ordered(
                &title,
                &dfg,
                &ChannelCapacity::uniform(ctx.cfg.queue_depth),
                Some((&w.memory, &w.args)),
            ),
            Err(e) => {
                let mut r = Report::new(&title);
                r.push(tyr_verify::Diagnostic::global(
                    Code::TvFault,
                    format!("lowering failed: {e}"),
                ));
                r
            }
        };
        account(&report, &mut errors, &mut warnings);
        let tv = validate_translations(&w.name, &w.program, &w.memory, &w.args);
        account(&tv, &mut errors, &mut warnings);
    }

    errors += fig11_cross_validation(ctx);
    errors += ordered_cross_validation(ctx);
    errors += workingset_cross_validation(ctx);
    errors += shard_cross_validation(ctx);

    println!("verify: {errors} error(s), {warnings} warning(s) across the suite");
    errors == 0
}

/// The Fig. 11 deadlock, predicted statically and confirmed dynamically.
///
/// Returns the number of cross-validation failures (0 on agreement).
fn fig11_cross_validation(ctx: &Ctx) -> usize {
    println!("-- Fig. 11 cross-validation: static prediction vs. dynamic detector --");
    let mut failures = 0usize;
    let mut check = |what: &str, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // A small dmv instance: nested loops, so inner-loop allocates happen
    // inside an outer allocated context — the shape behind Fig. 11.
    let w = dmv::build(8, 8, ctx.seed);
    let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).expect("tyr lowering");
    let demand = analyze_tag_demand(&dfg);

    // Static side: a global pool of 8 is predicted to deadlock because
    // allocates nest; the policy checker reports it as T003.
    let pool = 8usize;
    let prediction = predict_global(&demand, pool);
    check(
        "static: nested allocates make a bounded global pool unsafe",
        prediction == GlobalPrediction::DeadlockNested,
    );
    let diags = check_tag_policy(&dfg, &TagPolicy::GlobalBounded { tags: pool });
    check(
        "static: check_tag_policy(GlobalBounded{8}) reports T003",
        diags.iter().any(|d| d.code == Code::NestedGlobalAlloc),
    );

    // Dynamic side: the same graph under the same pool really deadlocks.
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let r = lw.run_unordered(TagPolicy::GlobalBounded { tags: pool }, ctx.cfg.issue_width);
    check("dynamic: GlobalBounded{8} deadlocks on dmv", !r.is_complete());

    // And the safe configuration agrees in both worlds: TYR local spaces
    // at the Theorem-1 minimum are statically clean and dynamically
    // complete.
    let local = TagPolicy::local(2);
    check("static: check_tag_policy(Local(2)) is clean", check_tag_policy(&dfg, &local).is_empty());
    let r = lw.run_tyr(local, ctx.cfg.issue_width);
    check("dynamic: Local(2) completes (Theorem 1)", r.is_complete());

    failures
}

/// The W-pass bounds against the dynamic reuse tracker, three legs:
///
/// 1. **W003 headline** — on dmv, the statically predicted peak live state
///    under TYR's local tag spaces must be *strictly* below the bound under
///    a bounded global pool: the paper's locality claim, provable from
///    graph shape.
/// 2. **W001 soundness** — for every Table II kernel on the tyr engine,
///    the per-block and total static live-state bounds must dominate the
///    engine's observed peak token-store occupancies.
/// 3. **W002 soundness** — for every engine family on dmv, the static
///    footprint bound (in lines) must dominate the distinct lines the
///    reuse tracker observed.
///
/// Returns the number of violations (0 when every bound is sound).
fn workingset_cross_validation(ctx: &Ctx) -> usize {
    println!("-- working-set cross-validation: static W bounds vs. dynamic reuse tracker --");
    let mut failures = 0usize;
    let mut check = |what: &str, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // Leg 1: the W003 verdict on dmv.
    let w = dmv::build(8, 8, ctx.seed);
    let caps = ChannelCapacity::uniform(ctx.cfg.queue_depth);
    match compare_elaborations(&w.program, &TagPolicy::local(2), trace::BOUNDED_POOL, &caps) {
        Ok((bounds, _)) => check(
            "W003: dmv local(2) live-state bound strictly below GlobalBounded{8}",
            bounds.local_shrinks(),
        ),
        Err(e) => check(&format!("W003: dmv lowering failed: {e}"), false),
    }

    // Leg 2: W001 + W002 per kernel on the tyr engine (the policy the
    // harness runs with, so the static and dynamic sides see the same
    // configuration).
    let policy = ctx.cfg.tyr_policy();
    for w in &suite(Scale::Tiny, ctx.seed) {
        let dfg = match lower_tagged(&w.program, TaggingDiscipline::Tyr) {
            Ok(d) => d,
            Err(e) => {
                check(&format!("{}: tyr lowering failed: {e}", w.name), false);
                continue;
            }
        };
        let mut ws = WorkingSet::new();
        let r = match trace::run_probed(ctx, w, "tyr", &mut ws) {
            Ok(r) => r,
            Err(e) => {
                check(&format!("{}: {e}", w.name), false);
                continue;
            }
        };
        let dynamic = ws.report(r.final_cycle());
        let live = analyze_live_state(&dfg, &policy);
        let total_ok = live.total().is_none_or(|t| t >= r.max_store_peak());
        let blocks_ok = r
            .store_peaks
            .iter()
            .all(|(name, peak)| live.for_block(name).is_none_or(|b| b >= *peak));
        check(&format!("W001: {} static live-state bounds dominate engine peaks", w.name), {
            total_ok && blocks_ok && r.is_complete()
        });
        let fp = analyze_footprint(&dfg, &w.memory, &w.args);
        check(
            &format!("W002: {} static footprint dominates observed lines", w.name),
            fp.total_lines().is_none_or(|l| l >= dynamic.distinct_lines),
        );
    }

    // Leg 3: the W002 bound holds for every engine family on dmv — the
    // sequential engines issue the same architectural accesses, so the
    // TYR lowering's footprint bound applies across the board.
    let w = dmv::build(8, 8, ctx.seed);
    let tyr_dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).expect("tyr lowering");
    let fp = analyze_footprint(&tyr_dfg, &w.memory, &w.args);
    for engine in ["tyr", "unordered", "ordered", "seqdf", "seqvn", "ooo"] {
        let mut ws = WorkingSet::new();
        let observed = match trace::run_probed(ctx, &w, engine, &mut ws) {
            Ok(r) => ws.report(r.final_cycle()).distinct_lines,
            Err(e) => {
                check(&format!("W002: dmv on {engine}: {e}"), false);
                continue;
            }
        };
        check(
            &format!("W002: dmv footprint bound holds on {engine}"),
            fp.total_lines().is_none_or(|l| l >= observed),
        );
    }

    failures
}

/// The P-pass certificates against the dynamic crossing tracker: for every
/// Table II kernel's TYR elaboration, a 4-shard plan must certify clean
/// (no P-errors, a P003 progress summary present), and a real run with the
/// [`ShardCrossings`](tyr_stats::shard::ShardCrossings) tracker attached
/// must stay within every static bound — per-shard boundary in-flight
/// peaks under the P004 bounds, and no runtime cross-shard word conflict
/// contradicting a P001 disjointness claim.
///
/// Returns the number of violations (0 when every certificate held).
fn shard_cross_validation(ctx: &Ctx) -> usize {
    use tyr_dfg::BlockId;
    use tyr_stats::shard::{ShardCrossings, ShardSpec};
    use tyr_verify::{verify_shards, ShardBudget};

    println!("-- shard cross-validation: P-pass certificates vs. dynamic crossing tracker --");
    let mut failures = 0usize;
    let mut check = |what: &str, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let policy = ctx.cfg.tyr_policy();
    for w in &suite(Scale::Tiny, ctx.seed) {
        let dfg = match lower_tagged(&w.program, TaggingDiscipline::Tyr) {
            Ok(d) => d,
            Err(e) => {
                check(&format!("{}: tyr lowering failed: {e}", w.name), false);
                continue;
            }
        };
        let (cert, report) = verify_shards(
            format!("{}/shard", w.name),
            &dfg,
            crate::shard::DEFAULT_SHARDS,
            ctx.seed,
            Some(ShardBudget::Tagged(&policy)),
            Some((&w.memory, &w.args)),
        );
        check(&format!("P001-P004: {} 4-shard plan certifies clean", w.name), report.errors() == 0);
        check(
            &format!("P003: {} progress summary present", w.name),
            report.has(tyr_verify::Code::ShardProgress),
        );

        let mut sc = ShardCrossings::new(ShardSpec {
            shards: cert.plan.shards as u32,
            node_shard: cert.node_shard.clone(),
            boundary: cert.boundary.clone(),
            plain_store: cert.plain_store.clone(),
            node_block: dfg.nodes().map(|n| n.block().0).collect(),
        });
        let r = match trace::run_probed(ctx, w, "tyr", &mut sc) {
            Ok(r) => r,
            Err(e) => {
                check(&format!("{}: {e}", w.name), false);
                continue;
            }
        };
        let observed = sc.report();
        let bounds_ok = r.is_complete()
            && observed.per_shard.iter().all(|f| {
                cert.shard_inflight
                    .get(f.shard as usize)
                    .copied()
                    .flatten()
                    .is_none_or(|b| b >= f.peak_inflight)
            });
        check(&format!("P004: {} static crossing bounds dominate peaks", w.name), bounds_ok);
        let claims = cert.mem.as_ref().expect("memory context was supplied");
        let shard_of = |b: u32| cert.plan.shard_of(BlockId(b));
        let contradicted = observed
            .cross_shard_conflicts(shard_of)
            .any(|c| claims.disjoint.contains(&(BlockId(c.block_a), BlockId(c.block_b))));
        check(&format!("P001: {} disjointness claims uncontradicted", w.name), !contradicted);
    }
    failures
}

/// Every kernel's ordered lowering, static occupancy verdict vs. the
/// engine's back-pressure deadlock detector.
///
/// Three configurations per kernel (always at `Scale::Tiny`, so the
/// dynamic legs stay fast regardless of `--scale`):
///
/// 1. the harness depth (`--queue`, default 4) — predicted safe, must
///    complete;
/// 2. uniform depth 1, the static minimum of every live edge — still
///    predicted safe, must complete (back-pressure throttles but cannot
///    wedge a loop whose edges all hold one token);
/// 3. a victim edge (a loop-carry `CMerge`'s control input) squeezed to
///    capacity 0 — O001, and the engine must deadlock with a stall
///    witness naming a back-pressured producer.
///
/// Returns the number of disagreements (0 when static and dynamic worlds
/// agree everywhere).
fn ordered_cross_validation(ctx: &Ctx) -> usize {
    println!("-- ordered-FIFO cross-validation: static occupancy vs. back-pressure detector --");
    let mut failures = 0usize;

    for w in &suite(Scale::Tiny, ctx.seed) {
        let dfg = match lower_ordered(&w.program) {
            Ok(d) => d,
            Err(e) => {
                println!("  FAIL {}: ordered lowering failed: {e}", w.name);
                failures += 1;
                continue;
            }
        };
        let victim = dfg
            .nodes()
            .position(
                |n| matches!(n.kind(), NodeKind::CMerge { initial_ctl } if !initial_ctl.is_empty()),
            )
            .map(|i| i as u32);

        // (leg label, uniform depth, per-edge overrides)
        let mut legs = vec![
            (format!("uniform depth {}", ctx.cfg.queue_depth), ctx.cfg.queue_depth, Vec::new()),
            ("uniform depth 1 (the static minimum)".to_string(), 1, Vec::new()),
        ];
        match victim {
            Some(cm) => legs.push((
                format!("victim: edge into n{cm}.i0 at capacity 0"),
                ctx.cfg.queue_depth,
                vec![((cm, 0u16), 0usize)],
            )),
            // Every Table II kernel loops, so a missing loop-carry CMerge
            // means the lowering changed shape under this analysis' feet.
            None => {
                println!("  FAIL {}: no loop-carry CMerge to squeeze", w.name);
                failures += 1;
            }
        }

        for (label, depth, overrides) in legs {
            let mut caps = ChannelCapacity::uniform(depth);
            for &((n, p), c) in &overrides {
                caps = caps.with_override(n, p, c);
            }
            let predicts_deadlock = check_channel_capacity(&dfg, &caps)
                .iter()
                .any(|d| d.code == Code::ChannelBelowMinimum);
            let cfg = OrderedConfig {
                queue_depth: depth,
                depth_overrides: overrides,
                ..ctx.cfg.ordered(&w.args)
            };
            let (completed, witness) = match OrderedEngine::new(&dfg, w.memory.clone(), cfg).run() {
                Ok(r) => {
                    let witness = match &r.outcome {
                        tyr_sim::Outcome::Deadlock { pending_allocates, .. } => {
                            pending_allocates.clone()
                        }
                        _ => Vec::new(),
                    };
                    (r.is_complete(), witness)
                }
                Err(e) => {
                    println!("  FAIL {}: {label}: engine fault: {e}", w.name);
                    failures += 1;
                    continue;
                }
            };
            let agree = if completed {
                !predicts_deadlock
            } else {
                predicts_deadlock && !witness.is_empty()
            };
            println!(
                "  {} {}: {label}: static says {}, engine {}",
                if agree { "ok  " } else { "FAIL" },
                w.name,
                if predicts_deadlock { "deadlock (O001)" } else { "safe" },
                if completed {
                    "completed".to_string()
                } else {
                    format!("deadlocked ({} stalled)", witness.len())
                },
            );
            if !agree {
                failures += 1;
            }
        }
    }
    failures
}
