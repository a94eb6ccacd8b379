//! `repro` — regenerates every table and figure of the TYR paper's
//! evaluation (Sec. VII).
//!
//! ```text
//! repro [--scale tiny|small|paper] [--seed N] [--width N] [--tags N]
//!       [--queue N] [--mem MODEL] [--jobs N] [--ticked] [--csv DIR]
//!       [--out FILE] <command>...
//!
//! commands:
//!   verify table1 table2 fig2 fig9 fig11 fig12 fig13 fig14 fig15 fig16
//!   fig17 fig18 ablation-kbound ablation-explosion ablation-ooo
//!   ablation-isatax ablation-latency ablation-storesize all
//!   trace timeline locality shard figure bench bench-check fuzz chaos
//! ```
//!
//! `repro --help` prints every command's arguments and options.
//!
//! Default scale is `small` (seconds per figure); `--scale paper` restores
//! the Table II input sizes (50M–1B dynamic instructions per app — budget
//! hours, and tens of GB of RAM for the unordered baseline's token store).

use std::path::PathBuf;
use std::process::ExitCode;

use tyr_bench::figures::{deadlock, locality as figlocality, perf, scaling, tables, traces, Ctx};
use tyr_bench::{bench_cmd, fuzz, locality, shard, timeline, trace, verify};
use tyr_sim::MemConfig;
use tyr_workloads::Scale;

const USAGE: &str = "usage: repro [--scale tiny|small|paper] [--seed N] [--width N] [--tags N] [--queue N] [--mem MODEL] [--jobs N] [--csv DIR] [--out FILE] <command>...
commands: verify table1 table2 fig2 fig9 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 ablation-kbound ablation-explosion ablation-ooo ablation-isatax ablation-latency ablation-storesize all
          trace <kernel> <engine>   (engines: tyr tagged-global-bounded unordered ordered seqdf seqvn ooo)
          timeline <kernel> <engine> [--window N] [--events FILE]
                                    (cycle-windowed telemetry: per-window firings, token/tag traffic,
                                     open stalls by reason, memory lines; --window sets the window size
                                     in cycles (default 64, auto-coarsens), --events streams every probe
                                     event as tyr-events/v1 JSONL, --out writes the per-window CSV;
                                     a wedged run prints its stall-dominated tail and still exits 0)
          locality <kernel> <engine>
                                    (dynamic working-set/reuse report next to the static W-pass bounds;
                                     nonzero exit if any static bound is below the observation)
          shard <kernel> <engine> [--shards K]
                                    (certified K-shard plan (P001-P004) next to the dynamic crossing
                                     tracker; engines: tyr|tagged tagged-global-bounded unordered ordered;
                                     nonzero exit on P-errors, a beaten bound, or a contradicted claim)
          figure locality           (headline cache experiment: L1 miss rate + cycles for tagged-local vs
                                     tagged-global-bounded vs ordered on dmv and blocked dgemm across L1 sizes;
                                     --csv DIR writes figure_locality.csv)
          bench                     (simulated cycles/dyn_instrs/skipped_cycles of every suite cell
                                     -> BENCH_suite.json, or --out FILE; the same bytes for any --jobs)
          bench-check <file>        (re-run a baseline's cells under the parameters its header records;
                                     nonzero exit unless the file is byte-for-byte what bench writes,
                                     naming every drifted, missing, duplicate or unknown cell)
          fuzz [--seeds N] [--faults PLAN] [--deadline-secs N] [--quick]
                                    (differential fuzz all five engines vs the oracle; --quick = 25 seeds;
                                     PLAN e.g. 'drop,corrupt:2@100..5000' or 'all'; nonzero exit on any finding)
          chaos <kernel> <engine> [--faults PLAN]
                                    (inject a fault plan into one run and print the attributed log;
                                     engines: tyr unordered ordered)
options:  --mem MODEL memory model: 'ideal[:LAT]' (default ideal:1) or a two-level cache
                      'cached[:k=v,...]' with keys l1/l2/line (bytes, k/m suffixes ok),
                      assoc1/assoc2, lat1/lat2/mem (cycles), mshr (outstanding misses),
                      e.g. --mem cached:l1=4k,l2=64k,mshr=8; --mem-latency N = --mem ideal:N
          --jobs N    worker threads for sweeps (default: REPRO_JOBS or available cores; output is identical for any N)
          --ticked    disable the event-driven core (tick every idle cycle); stats are bit-identical
                      either way -- use to cross-check that claim, at a wall-clock cost";

/// The value following option `name`; a missing one is a usage error
/// (exit 2).
fn value_of(name: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {name}\n{USAGE}");
        std::process::exit(2);
    })
}

/// The numeric value following option `name`; a missing or malformed one is
/// a usage error (exit 2), like a bad `--scale` or `--mem`.
fn num_of<T: std::str::FromStr>(name: &str, args: &mut impl Iterator<Item = String>) -> T {
    let value = value_of(name, args);
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value '{value}' for {name}\n{USAGE}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut cmds: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut quick = false;
    let mut fuzz_seeds: Option<u64> = None;
    let mut fuzz_faults: Option<String> = None;
    let mut fuzz_deadline: Option<u64> = None;
    let mut shard_count: usize = shard::DEFAULT_SHARDS;
    let mut timeline_window: Option<u64> = None;
    let mut events_out: Option<PathBuf> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                ctx.scale = match value_of(&arg, &mut it).as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale '{other}'\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--seed" => ctx.seed = num_of(&arg, &mut it),
            "--width" => ctx.cfg.issue_width = num_of(&arg, &mut it),
            "--tags" => ctx.cfg.tags = num_of(&arg, &mut it),
            "--queue" => ctx.cfg.queue_depth = num_of(&arg, &mut it),
            "--mem-latency" => ctx.cfg.mem = MemConfig::ideal(num_of(&arg, &mut it)),
            "--mem" => {
                ctx.cfg.mem = match MemConfig::parse(&value_of(&arg, &mut it)) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--jobs" => {
                ctx.jobs = num_of(&arg, &mut it);
                if ctx.jobs == 0 {
                    eprintln!("--jobs must be at least 1\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
            "--quick" => quick = true,
            "--ticked" => ctx.cfg.event_driven = false,
            "--seeds" => fuzz_seeds = Some(num_of(&arg, &mut it)),
            "--faults" => fuzz_faults = Some(value_of(&arg, &mut it)),
            "--shards" => shard_count = num_of(&arg, &mut it),
            "--deadline-secs" => fuzz_deadline = Some(num_of(&arg, &mut it)),
            "--csv" => ctx.csv_dir = Some(PathBuf::from(value_of(&arg, &mut it))),
            "--out" => trace_out = Some(PathBuf::from(value_of(&arg, &mut it))),
            "--window" => timeline_window = Some(num_of(&arg, &mut it)),
            "--events" => events_out = Some(PathBuf::from(value_of(&arg, &mut it))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
            cmd => cmds.push(cmd.to_string()),
        }
    }
    if cmds.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if quick && cmds.iter().any(|c| c == "bench") {
        eprintln!("bench has no --quick; use --scale tiny\n{USAGE}");
        return ExitCode::from(2);
    }
    if cmds.iter().any(|c| c == "all") {
        cmds = [
            "verify",
            "table1",
            "table2",
            "fig2",
            "fig9",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "ablation-kbound",
            "ablation-explosion",
            "ablation-ooo",
            "ablation-isatax",
            "ablation-latency",
            "ablation-storesize",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    // Figs. 12–14 share one expensive suite sweep.
    let needs_suite = cmds.iter().any(|c| matches!(c.as_str(), "fig12" | "fig13" | "fig14"));
    let suite_results = if needs_suite {
        eprintln!("running the full suite on all five systems (shared by fig12/13/14)...");
        Some(perf::run_suite(&ctx))
    } else {
        None
    };

    let mut i = 0;
    while i < cmds.len() {
        let cmd = &cmds[i];
        match cmd.as_str() {
            // `trace` consumes the two following positional arguments.
            "trace" => {
                let (Some(kernel), Some(engine)) = (cmds.get(i + 1), cmds.get(i + 2)) else {
                    eprintln!("trace needs <kernel> and <engine>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = trace::run(&ctx, kernel, engine, trace_out.as_deref()) {
                    eprintln!("trace failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            // `timeline` consumes the two following positional arguments.
            "timeline" => {
                let (Some(kernel), Some(engine)) = (cmds.get(i + 1), cmds.get(i + 2)) else {
                    eprintln!("timeline needs <kernel> and <engine>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = timeline::run(
                    &ctx,
                    kernel,
                    engine,
                    timeline_window,
                    trace_out.as_deref(),
                    events_out.as_deref(),
                ) {
                    eprintln!("timeline failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            // `locality` consumes the two following positional arguments.
            "locality" => {
                let (Some(kernel), Some(engine)) = (cmds.get(i + 1), cmds.get(i + 2)) else {
                    eprintln!("locality needs <kernel> and <engine>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = locality::run(&ctx, kernel, engine) {
                    eprintln!("locality failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            // `shard` consumes the two following positional arguments.
            "shard" => {
                let (Some(kernel), Some(engine)) = (cmds.get(i + 1), cmds.get(i + 2)) else {
                    eprintln!("shard needs <kernel> and <engine>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = shard::run(&ctx, kernel, engine, shard_count) {
                    eprintln!("shard failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            "verify" => {
                if !verify::run(&ctx) {
                    return ExitCode::FAILURE;
                }
            }
            // `figure` consumes the following positional argument.
            "figure" => {
                let Some(name) = cmds.get(i + 1) else {
                    eprintln!("figure needs a <name> (available: locality)\n{USAGE}");
                    return ExitCode::from(2);
                };
                match name.as_str() {
                    "locality" => figlocality::figure_locality(&ctx),
                    other => {
                        eprintln!("unknown figure '{other}' (available: locality)\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
                i += 1;
            }
            "bench" => {
                let out = trace_out.clone().unwrap_or_else(|| PathBuf::from("BENCH_suite.json"));
                if let Err(e) = bench_cmd::run(&ctx, &out) {
                    eprintln!("bench failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            // `bench-check` consumes the following positional argument.
            "bench-check" => {
                let Some(file) = cmds.get(i + 1) else {
                    eprintln!("bench-check needs a <file>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = bench_cmd::check_file(std::path::Path::new(file), ctx.jobs) {
                    eprintln!("bench-check failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 1;
            }
            "fuzz" => {
                let opts = fuzz::FuzzOpts {
                    seeds: fuzz_seeds.unwrap_or(if quick { 25 } else { 100 }),
                    jobs: ctx.jobs,
                    faults: fuzz_faults.clone(),
                    deadline: fuzz_deadline.map(std::time::Duration::from_secs),
                    event_driven: ctx.cfg.event_driven,
                    mem: ctx.cfg.mem.clone(),
                };
                if let Err(e) = fuzz::run(&opts) {
                    eprintln!("fuzz failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            // `chaos` consumes the two following positional arguments.
            "chaos" => {
                let (Some(kernel), Some(engine)) = (cmds.get(i + 1), cmds.get(i + 2)) else {
                    eprintln!("chaos needs <kernel> and <engine>\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(e) = fuzz::chaos(&ctx, kernel, engine, fuzz_faults.as_deref()) {
                    eprintln!("chaos failed: {e}");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            "table1" => tables::table1(&ctx),
            "table2" => tables::table2(&ctx),
            "fig2" => traces::fig02(&ctx),
            "fig9" => traces::fig09(&ctx),
            "fig11" => deadlock::fig11(&ctx),
            "fig12" => perf::fig12(&ctx, suite_results.as_ref().unwrap()),
            "fig13" => perf::fig13(&ctx, suite_results.as_ref().unwrap()),
            "fig14" => perf::fig14(&ctx, suite_results.as_ref().unwrap()),
            "fig15" => scaling::fig15(&ctx),
            "fig16" => traces::fig16(&ctx),
            "fig17" => scaling::fig17(&ctx),
            "fig18" => traces::fig18(&ctx),
            "ablation-kbound" => deadlock::ablation_kbound(&ctx),
            "ablation-explosion" => scaling::ablation_explosion(&ctx),
            "ablation-ooo" => scaling::ablation_ooo(&ctx),
            "ablation-isatax" => deadlock::ablation_isatax(&ctx),
            "ablation-latency" => scaling::ablation_latency(&ctx),
            "ablation-storesize" => deadlock::ablation_storesize(&ctx),
            other => {
                eprintln!("unknown command '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        println!();
        i += 1;
    }
    ExitCode::SUCCESS
}
