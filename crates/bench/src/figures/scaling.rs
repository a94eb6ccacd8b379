//! Scalability figures: Fig. 15 (issue-width sweep on dmv) and Fig. 17
//! (issue width × tag count on spmspv).

use tyr_sim::tagged::TagPolicy;
use tyr_stats::ascii::{line_chart, Series};
use tyr_stats::csv::CsvTable;
use tyr_workloads::{dmv, spmspv, Scale};

use crate::figures::Ctx;
use crate::{pool, run_system, LoweredWorkload, RunConfig, System};

/// Fig. 15: execution time (top) and peak state (bottom) across issue
/// widths 16–512 for dmv. TYR and unordered scale with width; sequential
/// and ordered dataflow see negligible gains; live state is insensitive to
/// width.
pub fn fig15(ctx: &Ctx) {
    // Paper caption: dmv on 512×512 inputs. Scale down in Small mode.
    let n = match ctx.scale {
        Scale::Tiny => 16,
        Scale::Small => 96,
        Scale::Paper => 512,
    };
    println!("== Fig. 15: issue-width scaling on dmv {n}x{n} ==");
    let w = dmv::build(n, n, ctx.seed);
    let widths = [16usize, 32, 64, 128, 256, 512];
    // Fan the (system, width) grid out over the worker pool; results come
    // back in submission order, so the rendering below is byte-identical
    // to the serial nested loop it replaces.
    let grid: Vec<(System, usize)> =
        System::ALL.iter().flat_map(|&sys| widths.iter().map(move |&width| (sys, width))).collect();
    let runs = pool::parallel_map(ctx.jobs, grid, |(sys, width)| {
        let cfg = RunConfig { issue_width: width, ..ctx.cfg.clone() };
        run_system(&w, sys, &cfg)
    });
    let mut runs = runs.into_iter();
    let mut time_series: Vec<Series> = Vec::new();
    let mut state_series: Vec<Series> = Vec::new();
    let mut csv = CsvTable::new(["system", "issue_width", "cycles", "peak_live"]);
    for sys in System::ALL {
        let mut tpts = Vec::new();
        let mut spts = Vec::new();
        for &width in &widths {
            let r = runs.next().expect("one result per grid cell");
            tpts.push((width as f64, r.cycles() as f64));
            spts.push((width as f64, r.peak_live() as f64));
            csv.push_row([
                sys.label().to_string(),
                width.to_string(),
                r.cycles().to_string(),
                r.peak_live().to_string(),
            ]);
        }
        println!(
            "  {:<14} cycles {:>9} -> {:<9} peak_live {:>9} -> {:<9} (w=16 -> w=512)",
            sys.label(),
            tpts[0].1,
            tpts[widths.len() - 1].1,
            spts[0].1,
            spts[widths.len() - 1].1
        );
        time_series.push(Series::new(sys.label(), tpts));
        state_series.push(Series::new(sys.label(), spts));
    }
    println!("{}", line_chart("execution time (log) vs issue width", &time_series, 90, 18, true));
    println!(
        "{}",
        line_chart("peak live tokens (log) vs issue width", &state_series, 90, 18, true)
    );
    ctx.emit_csv("fig15_width_scaling", &csv);
}

/// Theorem 2 demonstrated: peak live state versus input size on dmv. Naïve
/// unordered dataflow's state grows without bound as inputs grow (the
/// "parallelism explosion"); TYR's stays pinned at its `T·N·M`-style bound
/// regardless of input.
pub fn ablation_explosion(ctx: &Ctx) {
    println!("== Ablation: peak live state vs input size (dmv, Theorem 2) ==");
    let sizes: &[usize] = match ctx.scale {
        Scale::Tiny => &[16, 32, 64],
        _ => &[64, 128, 256, 512],
    };
    let mut csv = CsvTable::new(["size", "unordered_peak", "tyr_peak", "ratio"]);
    println!(
        "  {:>10} {:>18} {:>18} {:>8}",
        "dmv size", "unordered peak", "TYR peak (t=64)", "ratio"
    );
    let mut first_tyr = 0u64;
    for &n in sizes {
        let w = dmv::build(n, n, ctx.seed);
        let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
        let un = lw.run_unordered(TagPolicy::GlobalUnbounded, ctx.cfg.issue_width);
        let ty = lw.run_tyr(TagPolicy::local(ctx.cfg.tags), ctx.cfg.issue_width);
        if first_tyr == 0 {
            first_tyr = ty.peak_live();
        }
        let ratio = un.peak_live() as f64 / ty.peak_live() as f64;
        println!(
            "  {:>7}x{:<3} {:>18} {:>18} {:>7.1}x",
            n,
            n,
            un.peak_live(),
            ty.peak_live(),
            ratio
        );
        csv.push_row([
            n.to_string(),
            un.peak_live().to_string(),
            ty.peak_live().to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    println!("  => unordered grows with the input; TYR stays near its tag bound.");
    ctx.emit_csv("ablation_explosion", &csv);
}

/// Fig. 5b extended into an experiment: out-of-order vN across window
/// sizes. OoO recovers intra-window ILP quickly but plateaus far below the
/// dataflow systems — "reordering is limited to a small region of the vN
/// execution order".
pub fn ablation_ooo(ctx: &Ctx) {
    use tyr_sim::ooo::{OooConfig, OooEngine};
    let n = match ctx.scale {
        Scale::Tiny => 12,
        _ => 64,
    };
    println!("== Ablation: out-of-order vN window sweep on dmv {n}x{n} (Fig. 5b) ==");
    let w = dmv::build(n, n, ctx.seed);
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let mut csv = CsvTable::new(["window", "cycles", "mean_ipc", "peak_live"]);
    println!("  {:>8} {:>12} {:>10} {:>12}", "window", "cycles", "mean IPC", "peak live");
    let vn = run_system(&w, System::SeqVn, &ctx.cfg);
    println!(
        "  {:>8} {:>12} {:>10.2} {:>12}   (vN baseline)",
        "-",
        vn.cycles(),
        1.0,
        vn.peak_live()
    );
    for window in [4usize, 16, 64, 256, 1024] {
        let cfg = OooConfig { window, issue_width: 8, ..ctx.cfg.ooo(&w.args) };
        let r = OooEngine::new(&w.program, w.memory.clone(), cfg).run().expect("ooo run");
        w.check(r.memory()).expect("ooo result");
        println!("  {:>8} {:>12} {:>10.2} {:>12}", window, r.cycles(), r.ipc.mean(), r.peak_live());
        csv.push_row([
            window.to_string(),
            r.cycles().to_string(),
            format!("{:.2}", r.ipc.mean()),
            r.peak_live().to_string(),
        ]);
    }
    let tyr = lw.run_tyr(TagPolicy::local(ctx.cfg.tags), ctx.cfg.issue_width);
    println!(
        "  {:>8} {:>12} {:>10.2} {:>12}   (TYR, t={}, w={})",
        "-",
        tyr.cycles(),
        tyr.ipc.mean(),
        tyr.peak_live(),
        ctx.cfg.tags,
        ctx.cfg.issue_width
    );
    println!("  => OoO plateaus once the window covers one loop body; TYR keeps scaling.");
    ctx.emit_csv("ablation_ooo", &csv);
}

/// Sec. II-C's motivation for tagged dataflow, quantified: sweep memory
/// latency and watch ordered dataflow stall (a slow load blocks every later
/// instance of the same instruction) while TYR's tags let other iterations
/// proceed.
pub fn ablation_latency(ctx: &Ctx) {
    use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
    use tyr_sim::ordered::OrderedEngine;
    use tyr_sim::tagged::TaggedEngine;
    println!("== Ablation: memory-latency tolerance (smv) ==");
    let scale = if ctx.scale == Scale::Tiny { Scale::Tiny } else { Scale::Small };
    let w = tyr_workloads::by_name("smv", scale, ctx.seed).expect("smv");
    let tyr_dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).expect("lowering");
    let ord_dfg = lower_ordered(&w.program).expect("lowering");
    let mut csv = CsvTable::new(["mem_latency", "tyr4_cycles", "tyr64_cycles", "ordered_cycles"]);
    println!("  {:>12} {:>14} {:>14} {:>14}", "mem latency", "TYR (t=4)", "TYR (t=64)", "ordered");
    // The swept latency replaces `--mem`; every other harness flag applies.
    let at = |lat: u64| RunConfig { mem: tyr_sim::MemConfig::ideal(lat), ..ctx.cfg.clone() };
    let run_tyr = |tags: usize, lat: u64| {
        let tcfg = at(lat).tagged(TagPolicy::local(tags), &w.args);
        let r = TaggedEngine::new(&tyr_dfg, w.memory.clone(), tcfg).run().expect("tyr");
        w.check(r.memory()).expect("oracle");
        r
    };
    for lat in [1u64, 4, 16, 64] {
        let t4 = run_tyr(4, lat);
        let t64 = run_tyr(64, lat);
        let ocfg = at(lat).ordered(&w.args);
        let or = OrderedEngine::new(&ord_dfg, w.memory.clone(), ocfg).run().expect("ordered");
        w.check(or.memory()).expect("oracle");
        println!("  {:>12} {:>14} {:>14} {:>14}", lat, t4.cycles(), t64.cycles(), or.cycles());
        csv.push_row([
            lat.to_string(),
            t4.cycles().to_string(),
            t64.cycles().to_string(),
            or.cycles().to_string(),
        ]);
    }
    println!("  => more tags = more iterations in flight = more latency hidden; the tag");
    println!("     count is a latency-tolerance knob the FIFO machine does not have.");
    ctx.emit_csv("ablation_latency", &csv);
}

/// Fig. 17: spmspv IPC and peak state over the (issue width × tags) grid,
/// and the proportional-scaling line tags = width/2. Performance needs
/// *both* enough width and enough tags; peak state grows with tags but not
/// width.
pub fn fig17(ctx: &Ctx) {
    // Paper: spmspv on a 128×128 matrix.
    let (n, nnz, vnnz) = match ctx.scale {
        Scale::Tiny => (48, 160, 8),
        _ => (128, 512, 32),
    };
    println!("== Fig. 17: width x tags grid on spmspv ({n}x{n}, {nnz} nnz) ==");
    let w = spmspv::build(n, nnz, vnnz, ctx.seed);
    let lw = LoweredWorkload::with_config(&w, &ctx.cfg);
    let widths = [16usize, 32, 64, 128, 256];
    let tag_counts = [2usize, 4, 8, 16, 32, 64, 128];

    // Fan the (width, tags) grid out over the worker pool (submission
    // order preserved, so the tables below match a serial sweep byte for
    // byte).
    let cells: Vec<(usize, usize)> = widths
        .iter()
        .flat_map(|&width| tag_counts.iter().map(move |&tags| (width, tags)))
        .collect();
    let runs = pool::parallel_map(ctx.jobs, cells.clone(), |(width, tags)| {
        lw.run_tyr(TagPolicy::local(tags), width)
    });
    let grid: Vec<(usize, usize, tyr_sim::RunResult)> =
        cells.into_iter().zip(runs).map(|((w2, t), r)| (w2, t, r)).collect();

    let mut csv = CsvTable::new(["issue_width", "tags", "mean_ipc", "cycles", "peak_live"]);
    println!("  (a) mean IPC:");
    print!("  {:>8}", "w\\t");
    for t in tag_counts {
        print!(" {t:>8}");
    }
    println!();
    let mut it = grid.iter();
    for &width in &widths {
        print!("  {width:>8}");
        for &tags in &tag_counts {
            let (_, _, r) = it.next().expect("one result per cell");
            print!(" {:>8.1}", r.ipc.mean());
            csv.push_row([
                width.to_string(),
                tags.to_string(),
                format!("{:.2}", r.ipc.mean()),
                r.cycles().to_string(),
                r.peak_live().to_string(),
            ]);
        }
        println!();
    }
    println!("  (b) peak live tokens:");
    print!("  {:>8}", "w\\t");
    for t in tag_counts {
        print!(" {t:>8}");
    }
    println!();
    for &width in &widths {
        print!("  {width:>8}");
        for &tags in &tag_counts {
            let r = &grid.iter().find(|(w2, t2, _)| *w2 == width && *t2 == tags).unwrap().2;
            print!(" {:>8}", r.peak_live());
        }
        println!();
    }

    // (c) Proportional scaling: tags = width / 2.
    println!("  (c) tags scaled with width (t = w/2):");
    let mut ipc_pts = Vec::new();
    let mut state_pts = Vec::new();
    let mut csv_c = CsvTable::new(["issue_width", "tags", "mean_ipc", "peak_live"]);
    let prop_runs = pool::parallel_map(ctx.jobs, widths.to_vec(), |width| {
        lw.run_tyr(TagPolicy::local((width / 2).max(2)), width)
    });
    for (&width, r) in widths.iter().zip(&prop_runs) {
        let tags = (width / 2).max(2);
        println!(
            "    w={width:<4} t={tags:<4} mean IPC={:<8.1} peak_live={}",
            r.ipc.mean(),
            r.peak_live()
        );
        ipc_pts.push((width as f64, r.ipc.mean()));
        state_pts.push((width as f64, r.peak_live() as f64));
        csv_c.push_row([
            width.to_string(),
            tags.to_string(),
            format!("{:.2}", r.ipc.mean()),
            r.peak_live().to_string(),
        ]);
    }
    let series = vec![Series::new("mean IPC", ipc_pts), Series::new("peak live", state_pts)];
    println!("{}", line_chart("IPC and peak state vs width (t = w/2)", &series, 80, 16, false));
    ctx.emit_csv("fig17_grid", &csv);
    ctx.emit_csv("fig17_proportional", &csv_c);
}
