//! `repro bench` — the persisted performance baseline.
//!
//! Runs the full `(kernel, system)` suite grid, records wall-time together
//! with the simulated `cycles` and `dyn_instrs` of every cell, and writes a
//! schema-stable `BENCH_suite.json`. The committed copy is the repo's perf
//! trajectory: future changes to the engines re-run `repro bench` and diff
//! against it.
//!
//! Schema (`tyr-bench-suite/v1`):
//!
//! ```json
//! {
//!   "schema": "tyr-bench-suite/v1",
//!   "scale": "tiny", "seed": 1,
//!   "issue_width": 128, "tags": 64, "jobs": 2,
//!   "total_wall_ms": 123.4,
//!   "entries": [
//!     {"kernel": "dmv", "system": "seq-vN",
//!      "cycles": 1538, "dyn_instrs": 1537, "wall_ms": 0.8},
//!     ...
//!   ]
//! }
//! ```
//!
//! `entries` holds exactly one object per (kernel, system) pair —
//! 7 kernels × 5 systems — in kernel-major, paper-presentation order.
//! `cycles` and `dyn_instrs` are deterministic (they come from the
//! simulators, whose results are oracle-checked); the `*_wall_ms` fields
//! are the only machine-dependent values.
//!
//! Each cell is run [`WALL_REPS`] times into a log-bucketed
//! [`LogHistogram`] of whole microseconds; `wall_ms` is the median rep, and
//! the optional `wall_p50_ms`/`wall_p99_ms` fields expose the dispersion.
//! The optional `skipped_cycles` field records how many of the cell's
//! cycles the event-driven core jumped over instead of ticking (always 0
//! for the sequential engines and for `--ticked` runs); it is a wall-clock
//! diagnostic and never affects `cycles`/`dyn_instrs`. The schema stays
//! `tyr-bench-suite/v1`: [`validate`] accepts baselines with or without
//! the optional fields, so committed baselines from before they existed
//! keep validating.
//!
//! [`validate`] is the schema gate `ci.sh` runs against both the emitted
//! file and the committed baseline; `bench-check --sim-exact` additionally
//! re-runs the committed baseline's cells and fails unless every
//! `cycles`/`dyn_instrs` is reproduced exactly.

use std::path::Path;
use std::time::Instant;

use tyr_stats::json::{self, Json};
use tyr_stats::LogHistogram;
use tyr_workloads::{suite, Scale, Workload, APP_NAMES};

use crate::figures::Ctx;
use crate::{pool, run_system, RunConfig, System};

/// The schema identifier written to and required of every baseline file.
pub const SCHEMA: &str = "tyr-bench-suite/v1";

/// Wall-clock repetitions per grid cell. The simulated `cycles` and
/// `dyn_instrs` are deterministic, so only the first rep's result is kept;
/// the extra reps exist purely to give the per-cell latency histogram
/// something to disperse over.
pub const WALL_REPS: usize = 3;

/// Runs the suite benchmark and writes the baseline to `out`.
///
/// The emitted document is validated with [`validate`] before it is
/// written, so a schema violation can never reach disk (or CI).
///
/// # Errors
///
/// Returns a message if self-validation fails or the file cannot be
/// written. Simulation faults and oracle mismatches panic, as everywhere
/// else in the harness — a perf baseline over wrong results is worthless.
pub fn run(ctx: &Ctx, out: &Path) -> Result<(), String> {
    eprintln!(
        "benchmarking the {} suite on all five systems ({} jobs)...",
        ctx.scale_label(),
        ctx.jobs
    );
    let workloads = suite(ctx.scale, ctx.seed);
    let grid: Vec<(String, (&Workload, System))> = workloads
        .iter()
        .flat_map(|w| System::ALL.map(|sys| (format!("{} on {}", w.name, sys.label()), (w, sys))))
        .collect();
    let t0 = Instant::now();
    let cells = pool::parallel_map_labeled(ctx.jobs, grid, |(w, sys)| {
        let mut wall = LogHistogram::new();
        let mut result = None;
        for _ in 0..WALL_REPS {
            let start = Instant::now();
            let r = run_system(w, sys, &ctx.cfg);
            wall.record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            result.get_or_insert(r);
        }
        let r = result.expect("WALL_REPS >= 1");
        let (p50, _, p99) = wall.percentiles();
        Json::Obj(vec![
            ("kernel".into(), json::str(&w.name)),
            ("system".into(), json::str(sys.label())),
            ("cycles".into(), json::num(r.cycles())),
            ("dyn_instrs".into(), json::num(r.dyn_instrs())),
            ("wall_ms".into(), Json::Num(round3(p50 as f64 / 1e3))),
            ("wall_p50_ms".into(), Json::Num(round3(p50 as f64 / 1e3))),
            ("wall_p99_ms".into(), Json::Num(round3(p99 as f64 / 1e3))),
            ("skipped_cycles".into(), json::num(r.skipped_cycles)),
        ])
    });
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let doc = Json::Obj(vec![
        ("schema".into(), json::str(SCHEMA)),
        ("scale".into(), json::str(ctx.scale_label())),
        ("seed".into(), json::num(ctx.seed)),
        ("issue_width".into(), json::num(ctx.cfg.issue_width as u64)),
        ("tags".into(), json::num(ctx.cfg.tags as u64)),
        ("jobs".into(), json::num(ctx.jobs as u64)),
        ("total_wall_ms".into(), Json::Num(round3(total_wall_ms))),
        ("entries".into(), Json::Arr(cells)),
    ]);
    validate(&doc).map_err(|e| format!("self-validation of the emitted baseline failed: {e}"))?;
    std::fs::write(out, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} entries, {:.1} ms total wall, schema {SCHEMA})",
        out.display(),
        APP_NAMES.len() * System::ALL.len(),
        total_wall_ms
    );
    // A short human-readable digest so a bench run is useful on its own.
    for app in APP_NAMES {
        let find = |sys: System| {
            doc.get("entries")
                .and_then(Json::as_arr)
                .and_then(|es| {
                    es.iter().find(|e| {
                        e.get("kernel").and_then(Json::as_str) == Some(app)
                            && e.get("system").and_then(Json::as_str) == Some(sys.label())
                    })
                })
                .and_then(|e| e.get("cycles"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        println!(
            "  {:<8} TYR {:>12} cycles   unordered {:>12}   ordered {:>12}",
            app,
            find(System::Tyr),
            find(System::Unordered),
            find(System::Ordered)
        );
    }
    // Skip-rate digest: how much of the suite's simulated time the
    // event-driven core jumped over instead of ticking.
    let entries = doc.get("entries").and_then(Json::as_arr).expect("validated above");
    let sum = |key: &str| -> f64 {
        entries.iter().filter_map(|e| e.get(key).and_then(Json::as_f64)).sum()
    };
    let (cycles, skipped) = (sum("cycles"), sum("skipped_cycles"));
    if cycles > 0.0 {
        println!(
            "  event core skipped {skipped:.0} of {cycles:.0} simulated cycles ({:.1}%)",
            100.0 * skipped / cycles
        );
    }
    Ok(())
}

/// Validates a baseline file on disk (the `repro bench-check` command —
/// the CI gate for both the freshly emitted file and the committed
/// baseline). With `sim_exact` the simulated half of the file is checked
/// too, not just its shape: every cell is re-run under the scale, seed,
/// issue width and tag count the header records (everything else — memory
/// model, jobs — from `ctx`) and its deterministic `cycles`/`dyn_instrs`
/// must equal the recorded values, so a host-speed change to an engine has
/// to reproduce the committed file exactly.
///
/// # Errors
///
/// Returns a message naming the first schema violation, or every cell
/// whose simulated counts drifted.
pub fn check_file(ctx: &Ctx, path: &Path, sim_exact: bool) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&doc)?;
    println!("{}: schema {SCHEMA} ok", path.display());
    if sim_exact {
        let cells = check_sim_exact(ctx, &doc)?;
        println!("{}: cycles and dyn_instrs of all {cells} cells reproduced", path.display());
    }
    Ok(())
}

/// The `sim_exact` half of [`check_file`] over the validated baseline
/// `doc`. Returns the number of cells checked.
///
/// # Errors
///
/// Names every drifted cell with its recorded and observed counts.
fn check_sim_exact(ctx: &Ctx, doc: &Json) -> Result<usize, String> {
    let header = |key: &str| doc.get(key).and_then(Json::as_f64).expect("validated") as u64;
    let scale = match doc.get("scale").and_then(Json::as_str) {
        Some("tiny") => Scale::Tiny,
        Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        other => return Err(format!("cannot re-run scale {other:?}")),
    };
    let cfg = RunConfig {
        issue_width: header("issue_width") as usize,
        tags: header("tags") as usize,
        ..ctx.cfg.clone()
    };
    let workloads = suite(scale, header("seed"));
    let entries = doc.get("entries").and_then(Json::as_arr).expect("validated");
    fn name<'a>(e: &'a Json, key: &str) -> &'a str {
        e.get(key).and_then(Json::as_str).expect("validated")
    }
    let cells: Vec<(String, &Json)> = entries
        .iter()
        .map(|e| (format!("{} on {}", name(e, "kernel"), name(e, "system")), e))
        .collect();
    let drift: Vec<String> = pool::parallel_map_labeled(ctx.jobs, cells, |e| {
        let count = |key: &str| e.get(key).and_then(Json::as_f64).expect("validated") as u64;
        let w = workloads.iter().find(|w| w.name == name(e, "kernel")).expect("validated");
        let sys = System::ALL.into_iter().find(|s| s.label() == name(e, "system"));
        let r = run_system(w, sys.expect("validated"), &cfg);
        let (want, got) = ([count("cycles"), count("dyn_instrs")], [r.cycles(), r.dyn_instrs()]);
        (got != want)
            .then(|| format!("{} on {}: recorded {want:?}, now {got:?}", w.name, name(e, "system")))
    })
    .into_iter()
    .flatten()
    .collect();
    if drift.is_empty() {
        Ok(entries.len())
    } else {
        Err(format!("simulated [cycles, dyn_instrs] drifted:\n  {}", drift.join("\n  ")))
    }
}

/// Checks a document against the `tyr-bench-suite/v1` schema: the schema
/// tag, the header fields, exactly one entry per (kernel, system) pair,
/// and per-entry field sanity (positive counts, `dyn_instrs` within the
/// issue-width envelope, entry wall-times within the total, and — when the
/// optional `wall_p50_ms`/`wall_p99_ms` percentiles are present — that they
/// are non-negative with `p50 <= p99`).
///
/// # Errors
///
/// Returns a message naming the first violation.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong \"schema\" (want {SCHEMA:?})"));
    }
    let req_num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric \"{key}\""))
    };
    let issue_width = req_num("issue_width")?;
    req_num("seed")?;
    req_num("tags")?;
    req_num("jobs")?;
    let total_wall = req_num("total_wall_ms")?;
    if total_wall < 0.0 {
        return Err("negative total_wall_ms".into());
    }
    if doc.get("scale").and_then(Json::as_str).is_none() {
        return Err("missing \"scale\"".into());
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"entries\" array".to_string())?;

    let mut seen: Vec<(String, String)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let kernel = e
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing \"kernel\""))?;
        let system = e
            .get("system")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing \"system\""))?;
        if !APP_NAMES.contains(&kernel) {
            return Err(format!("entry {i}: unknown kernel {kernel:?}"));
        }
        if !System::ALL.iter().any(|s| s.label() == system) {
            return Err(format!("entry {i}: unknown system {system:?}"));
        }
        let field = |key: &str| {
            e.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry {i} ({kernel}/{system}): missing \"{key}\""))
        };
        let cycles = field("cycles")?;
        let dyn_instrs = field("dyn_instrs")?;
        let wall = field("wall_ms")?;
        if cycles <= 0.0 || dyn_instrs <= 0.0 {
            return Err(format!("entry {i} ({kernel}/{system}): non-positive cycles/dyn_instrs"));
        }
        if dyn_instrs > cycles * issue_width {
            return Err(format!(
                "entry {i} ({kernel}/{system}): dyn_instrs {dyn_instrs} exceeds \
                 cycles x issue_width = {}",
                cycles * issue_width
            ));
        }
        if wall < 0.0 || wall > total_wall {
            return Err(format!(
                "entry {i} ({kernel}/{system}): wall_ms {wall} outside [0, total_wall_ms]"
            ));
        }
        // The wall-clock percentiles are optional (schema still v1, so
        // baselines committed before they existed keep validating), but
        // when present they must be sane.
        let opt_field = |key: &str| -> Result<Option<f64>, String> {
            match e.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("entry {i} ({kernel}/{system}): non-numeric \"{key}\"")),
            }
        };
        let p50 = opt_field("wall_p50_ms")?;
        let p99 = opt_field("wall_p99_ms")?;
        for (key, v) in [("wall_p50_ms", p50), ("wall_p99_ms", p99)] {
            if v.is_some_and(|v| v < 0.0) {
                return Err(format!("entry {i} ({kernel}/{system}): negative \"{key}\""));
            }
        }
        if let (Some(p50), Some(p99)) = (p50, p99) {
            if p50 > p99 {
                return Err(format!(
                    "entry {i} ({kernel}/{system}): wall_p50_ms {p50} exceeds wall_p99_ms {p99}"
                ));
            }
        }
        // `skipped_cycles` is likewise optional (pre-event-core baselines
        // keep validating); when present it is a subset of the run's cycles.
        if let Some(skipped) = opt_field("skipped_cycles")? {
            if skipped < 0.0 {
                return Err(format!("entry {i} ({kernel}/{system}): negative \"skipped_cycles\""));
            }
            if skipped > cycles {
                return Err(format!(
                    "entry {i} ({kernel}/{system}): skipped_cycles {skipped} exceeds cycles {cycles}"
                ));
            }
        }
        let key = (kernel.to_string(), system.to_string());
        if seen.contains(&key) {
            return Err(format!("duplicate entry for ({kernel}, {system})"));
        }
        seen.push(key);
    }
    for app in APP_NAMES {
        for sys in System::ALL {
            if !seen.iter().any(|(k, s)| k == app && s == sys.label()) {
                return Err(format!("missing entry for ({app}, {})", sys.label()));
            }
        }
    }
    Ok(())
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_doc() -> Json {
        let entries = APP_NAMES
            .iter()
            .flat_map(|app| {
                System::ALL.iter().map(move |sys| {
                    Json::Obj(vec![
                        ("kernel".into(), json::str(*app)),
                        ("system".into(), json::str(sys.label())),
                        ("cycles".into(), json::num(100)),
                        ("dyn_instrs".into(), json::num(99)),
                        ("wall_ms".into(), Json::Num(1.5)),
                    ])
                })
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), json::str(SCHEMA)),
            ("scale".into(), json::str("tiny")),
            ("seed".into(), json::num(1)),
            ("issue_width".into(), json::num(128)),
            ("tags".into(), json::num(64)),
            ("jobs".into(), json::num(2)),
            ("total_wall_ms".into(), Json::Num(50.0)),
            ("entries".into(), Json::Arr(entries)),
        ])
    }

    fn set(doc: &mut Json, key: &str, v: Json) {
        let Json::Obj(pairs) = doc else { unreachable!() };
        if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
            p.1 = v;
        }
    }

    #[test]
    fn well_formed_doc_validates() {
        validate(&minimal_doc()).unwrap();
    }

    #[test]
    fn wrong_schema_tag_rejected() {
        let mut d = minimal_doc();
        set(&mut d, "schema", json::str("tyr-bench-suite/v0"));
        assert!(validate(&d).unwrap_err().contains("schema"));
    }

    #[test]
    fn missing_pair_rejected() {
        let mut d = minimal_doc();
        let Json::Obj(pairs) = &mut d else { unreachable!() };
        let entries = pairs.iter_mut().find(|(k, _)| k == "entries").unwrap();
        let Json::Arr(es) = &mut entries.1 else { unreachable!() };
        es.pop();
        assert!(validate(&d).unwrap_err().contains("missing entry"));
    }

    #[test]
    fn duplicate_pair_rejected() {
        let mut d = minimal_doc();
        let Json::Obj(pairs) = &mut d else { unreachable!() };
        let entries = pairs.iter_mut().find(|(k, _)| k == "entries").unwrap();
        let Json::Arr(es) = &mut entries.1 else { unreachable!() };
        let dup = es[0].clone();
        es.push(dup);
        assert!(validate(&d).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn issue_width_envelope_enforced() {
        let mut d = minimal_doc();
        set(&mut d, "issue_width", json::num(0));
        // Now every entry's dyn_instrs (99) exceeds cycles * 0.
        assert!(validate(&d).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn wall_time_outside_total_rejected() {
        let mut d = minimal_doc();
        set(&mut d, "total_wall_ms", Json::Num(0.1));
        assert!(validate(&d).unwrap_err().contains("outside"));
    }

    #[test]
    fn round_trip_through_text_still_validates() {
        let d = minimal_doc();
        let text = d.render();
        validate(&Json::parse(&text).unwrap()).unwrap();
    }

    fn set_entry0(doc: &mut Json, key: &str, v: Json) {
        let Json::Obj(e0) = &mut entries_mut(doc)[0] else { unreachable!() };
        e0.push((key.into(), v));
    }

    #[test]
    fn percentile_fields_are_optional_but_checked() {
        // minimal_doc has no percentile fields at all: the pre-percentile
        // baseline shape must keep validating.
        validate(&minimal_doc()).unwrap();

        let mut with_both = minimal_doc();
        set_entry0(&mut with_both, "wall_p50_ms", Json::Num(1.2));
        set_entry0(&mut with_both, "wall_p99_ms", Json::Num(2.4));
        validate(&with_both).unwrap();

        let mut only_p50 = minimal_doc();
        set_entry0(&mut only_p50, "wall_p50_ms", Json::Num(1.2));
        validate(&only_p50).unwrap();

        let mut inverted = minimal_doc();
        set_entry0(&mut inverted, "wall_p50_ms", Json::Num(3.0));
        set_entry0(&mut inverted, "wall_p99_ms", Json::Num(1.0));
        assert!(validate(&inverted).unwrap_err().contains("exceeds wall_p99_ms"));

        let mut negative = minimal_doc();
        set_entry0(&mut negative, "wall_p99_ms", Json::Num(-0.5));
        assert!(validate(&negative).unwrap_err().contains("negative"));

        let mut stringy = minimal_doc();
        set_entry0(&mut stringy, "wall_p50_ms", json::str("fast"));
        assert!(validate(&stringy).unwrap_err().contains("non-numeric"));
    }

    fn entries_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Obj(pairs) = doc else { unreachable!() };
        let entries = pairs.iter_mut().find(|(k, _)| k == "entries").unwrap();
        let Json::Arr(es) = &mut entries.1 else { unreachable!() };
        es
    }

    #[test]
    fn sim_exact_reproduces_a_real_baseline_and_names_drifted_cells() {
        // Fill the well-formed document with the counts the suite really
        // produces at its recorded scale and seed: it must reproduce.
        let ctx = Ctx::default();
        let mut doc = minimal_doc();
        let workloads = suite(Scale::Tiny, 1);
        let grid = workloads.iter().flat_map(|w| System::ALL.map(move |sys| (w, sys)));
        for (e, (w, sys)) in entries_mut(&mut doc).iter_mut().zip(grid) {
            let r = run_system(w, sys, &ctx.cfg);
            set(e, "cycles", json::num(r.cycles()));
            set(e, "dyn_instrs", json::num(r.dyn_instrs()));
        }
        assert_eq!(check_sim_exact(&ctx, &doc), Ok(35));

        // One count off by one: that cell, and only it, is named.
        let dmm_unordered = &mut entries_mut(&mut doc)[8];
        let cycles = dmm_unordered.get("cycles").and_then(Json::as_f64).unwrap() as u64;
        set(dmm_unordered, "cycles", json::num(cycles + 1));
        let err = check_sim_exact(&ctx, &doc).unwrap_err();
        assert_eq!(err.lines().count(), 2, "{err}");
        assert!(err.contains("dmm on unordered"), "{err}");
    }

    #[test]
    fn skipped_cycles_is_optional_but_bounded_by_cycles() {
        // Absent (pre-event-core baselines): still valid.
        validate(&minimal_doc()).unwrap();

        // Present and within [0, cycles]: valid (entry cycles are 100).
        let mut ok = minimal_doc();
        set_entry0(&mut ok, "skipped_cycles", json::num(40));
        validate(&ok).unwrap();

        let mut negative = minimal_doc();
        set_entry0(&mut negative, "skipped_cycles", Json::Num(-1.0));
        assert!(validate(&negative).unwrap_err().contains("negative"));

        let mut too_many = minimal_doc();
        set_entry0(&mut too_many, "skipped_cycles", json::num(101));
        assert!(validate(&too_many).unwrap_err().contains("exceeds cycles"));

        let mut stringy = minimal_doc();
        set_entry0(&mut stringy, "skipped_cycles", json::str("many"));
        assert!(validate(&stringy).unwrap_err().contains("non-numeric"));
    }
}
