//! State-over-time trace figures: Fig. 2 (spmspm, all systems), Fig. 9
//! (dmv across TYR tag-space sizes), Fig. 16 (spmspm across tag widths),
//! Fig. 18 (dmm with per-region tag tuning).

use tyr_sim::tagged::TagPolicy;
use tyr_stats::ascii::{line_chart, Series};
use tyr_stats::csv::CsvTable;
use tyr_workloads::by_name;

use crate::figures::{trace_points, Ctx};
use crate::{pool, run_system, LoweredWorkload, System};

/// Fig. 2: live state over time for spmspm on every system (log-y). The
/// unordered trace balloons by orders of magnitude and then drains; TYR
/// finishes at nearly the same time with bounded state.
pub fn fig02(ctx: &Ctx) {
    println!("== Fig. 2: live state over time, spmspm ({} scale) ==", ctx.scale_label());
    let w = by_name("spmspm", ctx.scale, ctx.seed).expect("spmspm");
    let mut series = Vec::new();
    let mut csv = CsvTable::new(["system", "cycle", "live_tokens"]);
    for sys in System::ALL {
        let r = run_system(&w, sys, &ctx.cfg);
        println!(
            "  {:<14} cycles={:<12} peak_live={:<12} mean_live={:.1}",
            sys.label(),
            r.cycles(),
            r.peak_live(),
            r.mean_live()
        );
        for (c, v) in trace_points(&r.live) {
            csv.push_row([sys.label().to_string(), c.to_string(), v.to_string()]);
        }
        series.push(Series::new(sys.label(), trace_points(&r.live)));
    }
    println!("{}", line_chart("live tokens (log) vs cycles", &series, 100, 24, true));
    ctx.emit_csv("fig02_spmspm_traces", &csv);
}

/// Fig. 9: dmv live state as TYR's tag-space size varies (2, 8, 64,
/// unlimited). With unlimited tags TYR behaves identically to naïve
/// unordered dataflow.
pub fn fig09(ctx: &Ctx) {
    println!("== Fig. 9: dmv across TYR tag-space sizes ({} scale) ==", ctx.scale_label());
    let w = by_name("dmv", ctx.scale, ctx.seed).expect("dmv");
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let mut series = Vec::new();
    let mut csv = CsvTable::new(["tags", "cycle", "live_tokens"]);

    let mut run_case = |label: String, policy: TagPolicy| {
        let r = lw.run_tyr(policy, ctx.cfg.issue_width);
        println!("  tags={:<10} cycles={:<12} peak_live={:<12}", label, r.cycles(), r.peak_live());
        for (c, v) in trace_points(&r.live) {
            csv.push_row([label.clone(), c.to_string(), v.to_string()]);
        }
        series.push(Series::new(format!("t={label}"), trace_points(&r.live)));
        r
    };

    for tags in [2usize, 8, 64] {
        run_case(tags.to_string(), TagPolicy::local(tags));
    }
    let unlimited = run_case("unlimited".into(), TagPolicy::GlobalUnbounded);

    // Cross-check the Fig. 9d claim: unlimited-tag TYR ≈ naïve unordered.
    let naive = lw.run_unordered(TagPolicy::GlobalUnbounded, ctx.cfg.issue_width);
    println!(
        "  (naïve unordered: cycles={}, peak_live={}; unlimited-tag TYR tracks it modulo tag-management overhead: cycles={}, peak_live={})",
        naive.cycles(),
        naive.peak_live(),
        unlimited.cycles(),
        unlimited.peak_live(),
    );
    println!("{}", line_chart("live tokens (log) vs cycles", &series, 100, 24, true));
    ctx.emit_csv("fig09_dmv_tag_sizes", &csv);
}

/// Fig. 16: TYR live-state traces on spmspm across tag widths 2–512.
/// Execution time improves with more tags until parallelism saturates
/// (around t = issue width / 2).
pub fn fig16(ctx: &Ctx) {
    println!("== Fig. 16: TYR tag-width sweep on spmspm ({} scale) ==", ctx.scale_label());
    let w = by_name("spmspm", ctx.scale, ctx.seed).expect("spmspm");
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let mut series = Vec::new();
    let mut csv = CsvTable::new(["tags", "cycles", "peak_live", "mean_live"]);
    let mut trace_csv = CsvTable::new(["tags", "cycle", "live_tokens"]);
    // Each tag configuration is an independent run; sweep them on the
    // worker pool (submission-ordered results keep the output identical).
    let tag_counts = [2usize, 8, 32, 64, 128, 512];
    let runs = pool::parallel_map(ctx.jobs, tag_counts.to_vec(), |tags| {
        lw.run_tyr(TagPolicy::local(tags), ctx.cfg.issue_width)
    });
    for (tags, r) in tag_counts.into_iter().zip(runs) {
        println!(
            "  t={:<5} cycles={:<12} peak_live={:<12} mean_live={:.1}",
            tags,
            r.cycles(),
            r.peak_live(),
            r.mean_live()
        );
        csv.push_row([
            tags.to_string(),
            r.cycles().to_string(),
            r.peak_live().to_string(),
            format!("{:.2}", r.mean_live()),
        ]);
        for (c, v) in trace_points(&r.live) {
            trace_csv.push_row([tags.to_string(), c.to_string(), v.to_string()]);
        }
        series.push(Series::new(format!("t={tags}"), trace_points(&r.live)));
    }
    println!("{}", line_chart("live tokens (log) vs cycles", &series, 100, 24, true));
    ctx.emit_csv("fig16_tag_sweep", &csv);
    ctx.emit_csv("fig16_tag_sweep_traces", &trace_csv);
}

/// Fig. 18: per-region tag tuning on dmm. Shrinking only the outermost
/// loop's tag space (64 → 8) cuts peak state with minimal slowdown — the
/// paper reports −28.5% peak state.
pub fn fig18(ctx: &Ctx) {
    println!("== Fig. 18: per-region tag tuning on dmm ({} scale) ==", ctx.scale_label());
    let w = by_name("dmm", ctx.scale, ctx.seed).expect("dmm");
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let base = lw.run_tyr(TagPolicy::local(ctx.cfg.tags), ctx.cfg.issue_width);
    let tuned = lw.run_tyr(
        TagPolicy::local_with(ctx.cfg.tags, vec![("dmm_i".into(), 8)]),
        ctx.cfg.issue_width,
    );
    let dstate = 100.0 * (1.0 - tuned.peak_live() as f64 / base.peak_live() as f64);
    let dtime = 100.0 * (tuned.cycles() as f64 / base.cycles() as f64 - 1.0);
    println!(
        "  baseline  (t={} everywhere):    cycles={:<12} peak_live={}",
        ctx.cfg.tags,
        base.cycles(),
        base.peak_live()
    );
    println!(
        "  tuned     (outer loop t=8):     cycles={:<12} peak_live={}",
        tuned.cycles(),
        tuned.peak_live()
    );
    println!(
        "  => peak state reduced by {dstate:.1}% at a {dtime:+.1}% execution-time cost (paper: −28.5%, minimal slowdown)"
    );
    let series = vec![
        Series::new("t=64 everywhere", trace_points(&base.live)),
        Series::new("outer t=8", trace_points(&tuned.live)),
    ];
    println!("{}", line_chart("live tokens (log) vs cycles", &series, 100, 20, true));
    let mut csv = CsvTable::new(["config", "cycles", "peak_live"]);
    csv.push_row(["baseline".into(), base.cycles().to_string(), base.peak_live().to_string()]);
    csv.push_row(["tuned".into(), tuned.cycles().to_string(), tuned.peak_live().to_string()]);
    ctx.emit_csv("fig18_region_tuning", &csv);
}
