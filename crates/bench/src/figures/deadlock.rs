//! Fig. 11 (deadlock under a bounded global tag space) and the Sec. VIII
//! k-bounding ablation.

use tyr_sim::tagged::TagPolicy;
use tyr_sim::Outcome;
use tyr_stats::csv::CsvTable;
use tyr_workloads::{by_name, dmv, Scale};

use crate::figures::Ctx;
use crate::LoweredWorkload;

/// Fig. 11: naïve unordered dataflow with a small global tag pool deadlocks
/// on dmv — every tag is grabbed by an eager outer-loop iteration, so no
/// inner loop can finish. The same sweep shows the pool size needed to
/// complete growing with input size, while TYR completes with 2 tags per
/// block at every size.
pub fn fig11(ctx: &Ctx) {
    println!("== Fig. 11: bounded global tag space deadlocks (unordered dataflow) ==");
    let sizes: &[usize] = match ctx.scale {
        Scale::Tiny => &[4, 6, 8],
        _ => &[4, 8, 12, 16, 24, 32],
    };
    let mut csv = CsvTable::new(["matrix_size", "global_tags_needed", "tyr_tags_needed"]);
    println!("  {:>12} {:>22} {:>18}", "dmv size", "global tags to finish", "TYR tags/block");
    for &n in sizes {
        let w = dmv::build(n, n, ctx.seed);
        let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
        // Demonstrate the deadlock and report it at pool size 8.
        if n == sizes[0] {
            let r = lw.run_unordered(TagPolicy::GlobalBounded { tags: 2 }, ctx.cfg.issue_width);
            if matches!(r.outcome, Outcome::Deadlock { .. }) {
                // `Outcome`'s Display renders the summary line plus the
                // wedged-allocate list — the same text `RunResult::cycles`
                // panics with.
                println!("  example deadlock ({n}x{n}, 2 global tags): {}", r.outcome);
            }
        }
        // Smallest global pool that completes (linear scan over doublings).
        let mut needed = None;
        let mut tags = 1usize;
        while tags <= 65_536 {
            let r = lw.run_unordered(TagPolicy::GlobalBounded { tags }, ctx.cfg.issue_width);
            if r.is_complete() {
                needed = Some(tags);
                break;
            }
            tags *= 2;
        }
        // TYR always completes with 2 tags per block (Theorem 1).
        let tyr = lw.run_tyr(TagPolicy::local(2), ctx.cfg.issue_width);
        assert!(tyr.is_complete(), "TYR with 2 tags must complete (Theorem 1)");
        let needed_str = needed.map(|t| format!("<= {t}")).unwrap_or_else(|| "> 65536".to_string());
        println!("  {:>9}x{:<3} {:>22} {:>18}", n, n, needed_str, 2);
        csv.push_row([
            n.to_string(),
            needed.map(|t| t.to_string()).unwrap_or_else(|| "inf".into()),
            "2".to_string(),
        ]);
    }
    println!("  => the global pool must grow with the input; TYR's local spaces do not.");
    ctx.emit_csv("fig11_deadlock", &csv);
}

/// Sec. VIII ablation: the ISA tax of token synchronization. TYR executes
/// extra `allocate`/`free`/`changeTag`/`join` instructions that compete for
/// issue slots; a microarchitecture with dedicated tag-management hardware
/// (Monsoon-style block-boundary matching, as Sec. VIII envisions) removes
/// that tax. This quantifies how much of the TYR-vs-unordered gap it
/// explains.
pub fn ablation_isatax(ctx: &Ctx) {
    use tyr_sim::tagged::{TaggedConfig, TaggedEngine};
    println!("== Ablation: the token-synchronization ISA tax ==");
    let mut csv = CsvTable::new(["app", "config", "cycles", "dyn_instrs"]);
    println!(
        "  {:>8} {:>16} {:>16} {:>16} {:>10}",
        "app", "unordered", "TYR (taxed)", "TYR (free sync)", "tax"
    );
    for app in ["dmv", "dmm", "smv", "spmspm", "tc"] {
        let w = by_name(app, ctx.scale, ctx.seed).expect("app");
        let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
        let un = lw.run_unordered(TagPolicy::GlobalUnbounded, ctx.cfg.issue_width);
        let run_tyr = |free_sync: bool| {
            let cfg = TaggedConfig {
                free_token_sync: free_sync,
                ..ctx.cfg.tagged(TagPolicy::local(ctx.cfg.tags), &w.args)
            };
            let r = TaggedEngine::new(&lw.tyr, w.memory.clone(), cfg).run().expect("tyr run");
            assert!(r.is_complete());
            w.check(r.memory()).expect("oracle");
            r
        };
        let taxed = run_tyr(false);
        let free = run_tyr(true);
        let tax = 100.0 * (taxed.cycles() as f64 / free.cycles() as f64 - 1.0);
        println!(
            "  {:>8} {:>16} {:>16} {:>16} {:>9.1}%",
            app,
            un.cycles(),
            taxed.cycles(),
            free.cycles(),
            tax
        );
        for (config, r) in [("unordered", &un), ("tyr_taxed", &taxed), ("tyr_free_sync", &free)] {
            csv.push_row([
                app.to_string(),
                config.to_string(),
                r.cycles().to_string(),
                r.dyn_instrs().to_string(),
            ]);
        }
    }
    println!("  => width-bound apps (spmspm, tc) recover much of the gap when tag management");
    println!("     is free; loop-nest apps (dmv, dmm) are *tag*-bound — their concurrency is");
    println!("     capped by the shared local tag space, so the ISA tax is not what separates");
    println!("     them from unordered. Raising --tags is the lever there (Fig. 17).");
    ctx.emit_csv("ablation_isatax", &csv);
}

/// Sec. II-C "Problem #2" quantified: the token-store size each design
/// needs. TYR's bounded local tag spaces keep every block's store small and
/// private (issue-queue sized); naïve unordered dataflow needs one large
/// associative store whose peak grows with the program's run-ahead.
pub fn ablation_storesize(ctx: &Ctx) {
    println!("== Ablation: token-store sizing (per-block peaks) ==");
    let mut csv = CsvTable::new(["app", "config", "max_block_store", "total_peak"]);
    println!("  {:>8} {:>24} {:>24}", "app", "TYR max block store", "unordered store peak");
    for app in ["dmv", "dmm", "smv", "spmspm", "tc"] {
        let w = by_name(app, ctx.scale, ctx.seed).expect("app");
        let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
        let tyr = lw.run_tyr(TagPolicy::local(ctx.cfg.tags), ctx.cfg.issue_width);
        let un = lw.run_unordered(TagPolicy::GlobalUnbounded, ctx.cfg.issue_width);
        // Unordered has a single global (associative) store; its required
        // capacity is the overall live-token peak.
        println!("  {:>8} {:>24} {:>24}", app, tyr.max_store_peak(), un.peak_live());
        csv.push_row([
            app.to_string(),
            "tyr".into(),
            tyr.max_store_peak().to_string(),
            tyr.peak_live().to_string(),
        ]);
        csv.push_row([
            app.to_string(),
            "unordered".into(),
            un.max_store_peak().to_string(),
            un.peak_live().to_string(),
        ]);
    }
    println!("  => every TYR block's private store fits an issue-queue-sized structure;");
    println!("     the unordered design needs one big associative store (and its required");
    println!("     size grows with the input - see ablation-explosion).");
    ctx.emit_csv("ablation_storesize", &csv);
}

/// Sec. VIII ablation: TTDA-style k-bounding is a bounded tag budget without
/// local-space structure. On a single affine loop nest it can complete with
/// a modest pool, but on irregular nested programs the FCFS pool deadlocks
/// while TYR (2 tags per block) always finishes.
pub fn ablation_kbound(ctx: &Ctx) {
    println!("== Sec. VIII ablation: k-bounded global pool vs TYR local tag spaces ==");
    let k = 8;
    let mut csv = CsvTable::new(["app", "kbound_outcome", "tyr_outcome"]);
    println!("  {:>8} {:>26} {:>22}", "app", format!("global pool (k={k})"), "TYR (2 tags/block)");
    // A single (non-nested) affine loop first: this is TTDA's home turf, and
    // k-bounding works there — the pool recycles tag-by-tag with no
    // cross-level competition.
    let single = {
        use tyr_ir::build::ProgramBuilder;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let [i, acc] = f.begin_loop("affine", [0, 0]);
        let c = f.lt(i, 200);
        f.begin_body(c);
        let acc2 = f.add(acc, i);
        let i2 = f.add(i, 1);
        let [out] = f.end_loop([i2, acc2], [acc]);
        pb.finish(f, [out])
    };
    let single_w = tyr_workloads::Workload::new(
        "affine1",
        "single loop",
        single,
        tyr_ir::MemoryImage::new(),
        vec![],
    );
    let apps = ["dmv", "smv", "spmspm", "tc"];
    let mut rows: Vec<tyr_workloads::Workload> = vec![single_w];
    rows.extend(apps.iter().map(|app| by_name(app, Scale::Tiny, ctx.seed).expect("app")));
    for w in &rows {
        let lw = LoweredWorkload::with_config(w, &ctx.cfg);
        let kb = lw.run_unordered(TagPolicy::GlobalBounded { tags: k }, ctx.cfg.issue_width);
        let tyr = lw.run_tyr(TagPolicy::local(2), ctx.cfg.issue_width);
        let describe = |outcome: &Outcome| match outcome {
            Outcome::Completed { cycles, .. } => format!("completed ({cycles} cyc)"),
            Outcome::Deadlock { cycle, .. } => format!("DEADLOCK @ {cycle}"),
            Outcome::TimedOut { cycle, .. } => format!("TIMEOUT @ {cycle}"),
        };
        let (kb_str, tyr_str) = (describe(&kb.outcome), describe(&tyr.outcome));
        println!("  {:>8} {kb_str:>26} {tyr_str:>22}", w.name);
        csv.push_row([w.name.clone(), kb_str, tyr_str]);
        assert!(tyr.is_complete(), "TYR must always complete");
    }
    println!("  => k-bounding suffices for a single affine loop (TTDA's target) but deadlocks");
    println!("     the moment loops nest; TYR's local spaces generalize it (Sec. VIII).");
    ctx.emit_csv("ablation_kbound", &csv);
}
