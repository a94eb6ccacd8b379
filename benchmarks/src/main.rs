//! The TYR simulator's benchmark: six workloads, end-to-end metrics with
//! regression bounds, and per-layer metrics from a traced pass. See
//! `README.md` for the workload and metric tables and `../BENCHMARK.json`
//! for the contract the repository's driver runs this under.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- \
//!     [--seed N] [--passes P] [--seconds S] [--workload NAME] [--trace] [--smoke]
//! cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- \
//!     compare A.json B.json
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). Without it every workload runs in a child process
//! of its own, one after the other, so that `peak_rss_mb` is per workload;
//! the merged results land in `benchmarks/out/results.json`.

#![warn(missing_docs)]

mod cell;
mod compare;
mod engines;
mod harness;
mod host;
mod metrics;
mod micro;
mod span;
mod workloads;

use std::io::ErrorKind;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Opts, Size, DEFAULT_PASSES, MIN_PASSES};
use metrics::{Results, WorkloadResult, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: tyr-benchmarks [--seed N] [--passes P] [--seconds S] \
[--workload NAME] [--trace [0|1]] [--smoke]
       tyr-benchmarks compare A.json B.json [--bounds BENCHMARK.json]";

/// The paper's value and the small-scale value recorded in EXPERIMENTS.md
/// for each `paper.*` ratio.
const PAPER_VALUES: [(&str, f64, f64); 4] = [
    ("paper.tyr_vs_unordered_time", 0.77, 0.76),
    ("paper.tyr_speedup_vs_vn", 68.0, 35.2),
    ("paper.tyr_speedup_vs_ordered", 21.7, 12.5),
    ("paper.tyr_peak_vs_ordered", 23.0, 19.8),
];

/// `benchmarks/`: where `cargo run` says the manifest is, else where it was
/// at build time.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn write_out(file: &str, text: &str) -> Result<PathBuf, String> {
    let dir = manifest_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

struct Cli {
    opts: Opts,
    workload: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut seed, mut passes, mut seconds) = (1u64, None, None);
    let (mut trace, mut size, mut workload) = (false, Size::Full, None);
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag {
            "--seed" => {
                let v = value(&mut i, flag)?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--passes" => {
                let v = value(&mut i, flag)?;
                passes = Some(v.parse::<usize>().ok().filter(|p| *p >= 1).ok_or_else(|| bad(&v))?);
            }
            "--seconds" => {
                let v = value(&mut i, flag)?;
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(|| bad(&v))?);
            }
            "--workload" => {
                let v = value(&mut i, flag)?;
                if !workloads::NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload '{v}' (known: {})",
                        workloads::NAMES.join(" ")
                    ));
                }
                workload = Some(v);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    // A time-limited run makes at least MIN_PASSES; a smoke run one pass;
    // otherwise the fixed default.
    let passes = passes.unwrap_or(match (size, seconds) {
        (Size::Smoke, _) => 1,
        (_, Some(_)) => MIN_PASSES,
        _ => DEFAULT_PASSES,
    });
    let opts = Opts { seed, passes, seconds: seconds.unwrap_or(0.0), trace, size };
    Ok(Cli { opts, workload })
}

/// Prints one workload's metrics by name with their units.
fn print_report(name: &str, opts: &Opts, r: &WorkloadResult) {
    println!("== {name} (seed {}) ==", opts.seed);
    println!(
        "  operations: {} attempted, {} failed (fail_share {})",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for f in &r.failures {
        println!("  FAILED {f}");
    }
    for m in END_TO_END {
        let Some(v) = r.end_to_end.get(m.name) else { continue };
        let stats = match m.name {
            "wall_s" => format!(
                "  (sum of per-cell minima over P={} timed passes; runner-up pass +{:.2}%)",
                v.samples,
                v.spread * 100.0
            ),
            "setup_s" => format!(
                "  (median of {} set-up repeats; interquartile range {:.2}%)",
                v.samples,
                v.spread * 100.0
            ),
            "peak_rss_mb" => "  (VmHWM after the last timed pass)".to_string(),
            _ => "  (exact for this seed)".to_string(),
        };
        println!("  {:<34} {:>16} {:<8}{stats}", m.name, format!("{}", v.value), v.unit);
    }
    for (layer, unit, _) in PER_LAYER {
        let Some(v) = r.per_layer.get(layer) else { continue };
        let note = PAPER_VALUES.iter().find(|p| p.0 == layer).map_or(String::new(), |p| {
            format!(
                "  (paper {}x: {:+.1}%; EXPERIMENTS.md small scale {}x: {:+.1}%)",
                p.1,
                (v.value - p.1) * 100.0 / p.1,
                p.2,
                (v.value - p.2) * 100.0 / p.2
            )
        });
        println!("  {layer:<34} {:>16} {unit:<8}{note}", format!("{:.4}", v.value));
    }
    if r.per_layer.contains_key(PAPER_VALUES[0].0) {
        println!(
            "  note: the model is validated against the paper's reported ratios only; \
             there is no hardware or RTL reference."
        );
    }
}

/// Runs one workload in this process. The last line printed is the
/// driver's JSON object.
fn run_workload(name: &str, opts: &Opts) -> Result<bool, String> {
    host::prime_allocator();
    let (result, trace) = workloads::run(name, opts).ok_or("unknown workload")?;
    print_report(name, opts, &result);
    if let Some(trace) = trace {
        let path = write_out(&format!("trace_{name}.json"), &trace)?;
        println!("  spans written to {}", path.display());
    }
    let mut results = Results { seed: opts.seed, ..Results::default() };
    results.workloads.insert(name.to_string(), result.clone());
    write_out(&format!("result_{name}.json"), &results.render())?;
    println!("{}", result.driver_line(opts.trace));
    Ok(result.failed == 0)
}

/// Runs every workload in a child process of its own, one at a time, and
/// merges their result files. A workload whose child died without a result
/// is left out of `results.json` (where `compare` reads it as missing) and
/// fails the run; the others are still written.
fn run_all(args: &[String], opts: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut merged = Results { seed: opts.seed, ..Results::default() };
    let mut ok = true;
    for name in workloads::NAMES {
        let path = manifest_dir().join("out").join(format!("result_{name}.json"));
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != ErrorKind::NotFound => {
                return Err(format!("removing stale {}: {e}", path.display()));
            }
            _ => {}
        }
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .status()
            .map_err(|e| format!("running {name}: {e}"))?;
        ok &= status.success();
        // The file was removed above, so what is there now is this child's.
        let result = std::fs::read_to_string(&path)
            .map_err(|e| format!("no result file: {e}"))
            .and_then(|text| Results::parse(&text));
        match result {
            Ok(mut one) => merged.workloads.append(&mut one.workloads),
            Err(why) => {
                ok = false;
                eprintln!("error: {name} ({status}) left no result: {why}");
            }
        }
    }
    let path = write_out("results.json", &merged.render())?;
    println!("\n== summary ==");
    for name in workloads::NAMES {
        let Some(r) = merged.workloads.get(name) else {
            println!("  {name:<14} MISSING: the workload's process produced no result");
            continue;
        };
        let v = |m: &str| r.end_to_end.get(m).map_or(0.0, |v| v.value);
        println!(
            "  {name:<14} wall_s {:>9.4}  peak_rss_mb {:>8.1}  setup_s {:>9.5}  failed {}/{}",
            v("wall_s"),
            v("peak_rss_mb"),
            v("setup_s"),
            r.failed,
            r.attempted
        );
    }
    println!("results written to {}", path.display());
    Ok(ok)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = manifest_dir().join("..").join("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--bounds" {
            i += 1;
            bounds_path = PathBuf::from(args.get(i).ok_or("--bounds needs a file")?);
        } else {
            files.push(&args[i]);
        }
        i += 1;
    }
    let [a, b] = files[..] else { return Err(USAGE.to_string()) };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let bounds = compare::bounds_from_benchmark_json(&read(&bounds_path.to_string_lossy())?)?;
    let (table, counts) =
        compare::compare(&Results::parse(&read(a)?)?, &Results::parse(&read(b)?)?, &bounds);
    print!("{table}");
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("{}", summary.join(", "));
    Ok(!counts.contains_key("worse"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        match parse_cli(&args) {
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(Cli { opts, workload: Some(name) }) => run_workload(&name, &opts),
            Ok(Cli { opts, workload: None }) => run_all(&args, &opts),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_bare_trace_both_parse() {
        let c = cli(&["--workload", "probed", "--seed", "7", "--seconds", "10", "--trace", "0"])
            .unwrap();
        assert_eq!((c.opts.seed, c.opts.trace, c.opts.passes), (7, false, MIN_PASSES));
        assert_eq!(c.opts.seconds, 10.0);
        assert_eq!(c.workload.as_deref(), Some("probed"));
        assert!(cli(&["--trace", "1"]).unwrap().opts.trace);
        let c = cli(&["--trace", "--seed", "2"]).unwrap();
        assert!(c.opts.trace && c.opts.seed == 2);
    }

    #[test]
    fn defaults_are_five_passes_seed_one() {
        let c = cli(&[]).unwrap();
        assert_eq!((c.opts.seed, c.opts.passes, c.opts.seconds), (1, DEFAULT_PASSES, 0.0));
        assert_eq!(cli(&["--smoke"]).unwrap().opts.passes, 1);
        assert_eq!(cli(&["--passes", "4", "--seconds", "3"]).unwrap().opts.passes, 4);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--passes", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` and the metric tables in `metrics.rs` must name the
    /// same metrics with the same units, and the workloads must match.
    #[test]
    fn benchmark_json_agrees_with_the_metric_tables() {
        use tyr_stats::json::Json;
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| -> Vec<[String; 3]> {
            let items = doc.get(key).and_then(Json::as_arr).expect("a list");
            items
                .iter()
                .map(|m| {
                    ["name", "unit", "better"]
                        .map(|f| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string())
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| [m.name.to_string(), m.unit.to_string(), "lower".to_string()])
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> =
            PER_LAYER.iter().map(|&(n, u, b)| [n, u, b].map(String::from)).collect();
        assert_eq!(list("per_layer"), layers);
        let names: Vec<String> = list("workloads").into_iter().map(|[n, _, _]| n).collect();
        assert_eq!(names, workloads::NAMES);
    }
}
