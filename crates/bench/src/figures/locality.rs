//! `repro figure locality` — the headline cache experiment: measured
//! locality under the two-level cache model (extension; companion to the
//! paper's Fig. 9 working-set and Fig. 11 wedging discussion).
//!
//! The paper's central locality claim is that *taming* parallelism — local
//! tag spaces instead of one global pool — keeps each block's working set
//! dense and reused. The W-pass bounds that statically and `repro locality`
//! counts distinct lines dynamically; this figure finally prices it: the
//! same kernel runs on TYR (tagged-local), on the same tagged fabric with
//! one bounded global pool, and on ordered dataflow, across a sweep of L1
//! sizes with everything else fixed. The global pool lets far-apart
//! iterations interleave, so its access stream blends tiles and rows that
//! the local policy keeps together — visible as a strictly higher L1 miss
//! rate at the same cache size.
//!
//! Small global pools wedge these kernels (Fig. 11), so the bounded-global
//! leg self-tunes: it scans pool sizes in doublings and uses the smallest
//! power of two that completes at *every* sweep point — the most
//! constrained global machine that still finishes, i.e. the fairest
//! possible locality opponent.

use tyr_dfg::lower::TaggingDiscipline;
use tyr_sim::tagged::TagPolicy;
use tyr_sim::{CacheConfig, MemConfig, NoProbe, RunResult, SimError};
use tyr_stats::ascii::{line_chart, Series};
use tyr_stats::csv::CsvTable;
use tyr_workloads::by_name;

use crate::figures::Ctx;
use crate::{pool, Launch, LaunchError, RunConfig};

/// The compared kernels: the suite's dense row-walk and the blocked matmul
/// built for exactly this experiment.
const KERNELS: [&str; 2] = ["dmv", "dgemmb"];

/// Swept L1 capacities (bytes); L2 and everything else stay at defaults.
const L1_SIZES: [u64; 5] = [1024, 2048, 4096, 8192, 16384];

/// First bounded-global pool size tried; the scan doubles from here until
/// the kernel completes at every sweep point (Fig. 11: the required pool
/// grows with the input, so no fixed constant can be correct).
const GLOBAL_POOL_START: usize = 256;

/// Scan ceiling — effectively an unbounded pool for every suite input.
const GLOBAL_POOL_MAX: usize = 1 << 20;

/// The three compared engines, in report order.
const ENGINES: [&str; 3] = ["tagged-local", "tagged-global-bounded", "ordered"];

/// Cache model for one sweep point: only the L1 capacity moves.
fn mem_at(l1_bytes: u64) -> MemConfig {
    MemConfig::Cached(CacheConfig { l1_bytes, ..CacheConfig::default() })
}

/// One grid cell. Returns the result even if it wedged, and the raw
/// [`LaunchError`] on engine faults — the bounded-global scan needs to
/// observe both deadlocks *and* token leaks (an undersized global pool on a
/// deep nest can deliver its returns while stranding tokens mid-machine);
/// [`checked`] enforces clean completion.
fn run_cell(
    ctx: &Ctx,
    kernel: &str,
    engine: &str,
    pool: usize,
    l1_bytes: u64,
) -> Result<RunResult, LaunchError> {
    let w = by_name(kernel, ctx.scale, ctx.seed).expect("known kernel");
    let cfg = RunConfig { mem: mem_at(l1_bytes), ..ctx.cfg.clone() };
    let launch = match engine {
        "tagged-local" => Launch::named("tyr", &cfg, &w.args),
        "ordered" => Launch::named("ordered", &cfg, &w.args),
        _ => Some(Launch::Tagged(
            TaggingDiscipline::Tyr,
            cfg.tagged(TagPolicy::GlobalBounded { tags: pool }, &w.args),
        )),
    };
    launch.expect("known engine").run(&w.program, &w.memory, NoProbe)
}

/// Asserts a cell completed and produced the oracle's memory image.
fn checked(ctx: &Ctx, kernel: &str, engine: &str, l1: u64, r: RunResult) -> RunResult {
    assert!(r.is_complete(), "{engine} on {kernel} (l1 {l1}): {:?}", r.outcome);
    let w = by_name(kernel, ctx.scale, ctx.seed).expect("known kernel");
    w.check(r.memory()).unwrap_or_else(|e| panic!("{engine} on {kernel}: {e}"));
    r
}

/// The bounded-global sweep for one kernel: smallest power-of-two pool
/// (from [`GLOBAL_POOL_START`]) whose runs complete cleanly at every L1
/// size. An undersized pool either wedges (Fig. 11) or leaks tokens
/// ([`SimError::TokenLeak`]); both mean "too small", so the scan doubles
/// past them. Returns the pool and its results, in [`L1_SIZES`] order.
fn bounded_global_sweep(ctx: &Ctx, kernel: &str) -> (usize, Vec<RunResult>) {
    let mut pool_size = GLOBAL_POOL_START;
    loop {
        let runs = pool::parallel_map(ctx.jobs, L1_SIZES.to_vec(), |l1| {
            match run_cell(ctx, kernel, "tagged-global-bounded", pool_size, l1) {
                Ok(r) => Some(r),
                Err(LaunchError::Sim(SimError::TokenLeak { .. })) => None,
                Err(e) => panic!("tagged-global-bounded on {kernel} (l1 {l1}): {e}"),
            }
        });
        if runs.iter().all(|r| r.as_ref().is_some_and(RunResult::is_complete)) {
            let runs = L1_SIZES
                .iter()
                .zip(runs)
                .map(|(&l1, r)| {
                    checked(ctx, kernel, "tagged-global-bounded", l1, r.expect("checked above"))
                })
                .collect();
            return (pool_size, runs);
        }
        assert!(
            pool_size < GLOBAL_POOL_MAX,
            "{kernel}: no bounded global pool up to {GLOBAL_POOL_MAX} completes"
        );
        println!("  [{kernel}] global pool of {pool_size} wedges or leaks (Fig. 11); doubling");
        pool_size *= 2;
    }
}

/// Runs the full (kernel × engine × L1 size) grid and prints per-kernel
/// tables, miss-rate and cycle charts, and one combined CSV
/// (`figure_locality.csv` under `--csv`).
pub fn figure_locality(ctx: &Ctx) {
    println!("== figure locality: L1 miss rate vs cache size ({} scale) ==", ctx.scale_label());
    println!(
        "   engines: tagged-local (TYR, {} tags/block), tagged-global-bounded (smallest \
         completing pool), ordered",
        ctx.cfg.tags
    );
    let mut csv = CsvTable::new([
        "kernel",
        "system",
        "l1_bytes",
        "cycles",
        "l1_hits",
        "l1_misses",
        "l1_miss_rate",
        "l2_misses",
        "mshr_stalls",
    ]);
    for &kernel in &KERNELS {
        // The local and ordered legs sweep in one parallel grid; the
        // bounded-global leg runs its own pool-size scan.
        let grid: Vec<(&str, u64)> = ["tagged-local", "ordered"]
            .iter()
            .flat_map(|&e| L1_SIZES.iter().map(move |&s| (e, s)))
            .collect();
        let fixed = pool::parallel_map(ctx.jobs, grid.clone(), |(e, s)| {
            let r = run_cell(ctx, kernel, e, 0, s)
                .unwrap_or_else(|err| panic!("{e} on {kernel} (l1 {s}): {err}"));
            checked(ctx, kernel, e, s, r)
        });
        let (pool_size, bounded) = bounded_global_sweep(ctx, kernel);
        let by_engine = |engine: &str| -> Vec<&RunResult> {
            match engine {
                "tagged-global-bounded" => bounded.iter().collect(),
                _ => grid
                    .iter()
                    .zip(&fixed)
                    .filter(|((e, _), _)| *e == engine)
                    .map(|(_, r)| r)
                    .collect(),
            }
        };

        println!("\n  -- {kernel} (global pool: {pool_size} tags) --");
        println!(
            "  {:<24} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "system", "l1", "cycles", "l1_miss%", "l2_miss", "mshr_stall"
        );
        let mut miss_series: Vec<Series> = Vec::new();
        let mut cycle_series: Vec<Series> = Vec::new();
        for &engine in &ENGINES {
            let mut mpts = Vec::new();
            let mut cpts = Vec::new();
            for (&l1, r) in L1_SIZES.iter().zip(by_engine(engine)) {
                let st = r.mem_stats.expect("cached run reports stats");
                println!(
                    "  {:<24} {:>8} {:>12} {:>9.2}% {:>10} {:>10}",
                    engine,
                    l1,
                    r.cycles(),
                    st.l1.miss_rate() * 100.0,
                    st.l2.misses,
                    st.mshr_stalls
                );
                mpts.push((l1 as f64, st.l1.miss_rate() * 100.0));
                cpts.push((l1 as f64, r.cycles() as f64));
                csv.push_row([
                    kernel.to_string(),
                    engine.to_string(),
                    l1.to_string(),
                    r.cycles().to_string(),
                    st.l1.hits.to_string(),
                    st.l1.misses.to_string(),
                    format!("{:.6}", st.l1.miss_rate()),
                    st.l2.misses.to_string(),
                    st.mshr_stalls.to_string(),
                ]);
            }
            miss_series.push(Series::new(engine, mpts));
            cycle_series.push(Series::new(engine, cpts));
        }
        println!(
            "{}",
            line_chart(
                &format!("{kernel}: L1 miss rate (%) vs L1 bytes"),
                &miss_series,
                80,
                14,
                false
            )
        );
        println!(
            "{}",
            line_chart(&format!("{kernel}: cycles vs L1 bytes"), &cycle_series, 80, 14, false)
        );
    }
    println!("\n  => local tag spaces keep each block's lines hot; one shared pool interleaves");
    println!("     distant iterations and pays for it in L1 misses at the same cache size.");
    ctx.emit_csv("figure_locality", &csv);
}
