//! `repro bench` — the small-scale simulated anchor for Figs. 12–14.
//!
//! Runs the full `(kernel, system)` suite grid and writes every cell's
//! simulated `cycles`, `dyn_instrs` and `skipped_cycles` under a header that
//! records every run parameter those numbers depend on. The file holds no
//! host measurements (`benchmarks/` owns wall time), so it is a pure function
//! of its header: the same bytes for any `--jobs` and on any host.
//!
//! Schema (`tyr-bench-suite/v2`), one entry per line so that `git diff`
//! names the cell that moved:
//!
//! ```text
//! {"schema":"tyr-bench-suite/v2","scale":"small","seed":1,"issue_width":128,"tags":64,"queue_depth":4,"event_driven":true,"mem":"ideal:1","entries":[
//! {"kernel":"dmv","system":"seq-vN","cycles":657410,"dyn_instrs":657410,"skipped_cycles":0},
//! ...
//! ]}
//! ```
//!
//! `entries` holds one object per (kernel, system) pair — 7 kernels × 5
//! systems — in kernel-major, paper-presentation order. `mem` is
//! [`MemConfig::label`], which [`MemConfig::parse`] reads back.
//!
//! [`check_file`] (`repro bench-check FILE`) rebuilds the run parameters from
//! the header alone, regenerates the document and requires a byte-for-byte
//! match; on a mismatch it names every drifted, missing, duplicate or
//! unknown cell.

use std::path::Path;

use tyr_sim::MemConfig;
use tyr_stats::json::{self, Json};
use tyr_workloads::{suite, Scale};

use crate::figures::Ctx;
use crate::{pool, run_system, RunConfig, System};

/// The schema identifier written to and required of every baseline file.
pub const SCHEMA: &str = "tyr-bench-suite/v2";

/// The simulated counts of one cell, in the order the file writes them.
const COUNTS: [&str; 3] = ["cycles", "dyn_instrs", "skipped_cycles"];

/// One grid cell: kernel, system label and its [`COUNTS`].
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    kernel: String,
    system: String,
    counts: [u64; 3],
}

/// Runs the grid under `ctx`, in kernel-major order.
fn cells(ctx: &Ctx) -> Vec<Cell> {
    let workloads = suite(ctx.scale, ctx.seed);
    let grid = workloads
        .iter()
        .flat_map(|w| System::ALL.map(|sys| (format!("{} on {}", w.name, sys.label()), (w, sys))))
        .collect();
    pool::parallel_map_labeled(ctx.jobs, grid, |(w, sys)| {
        let r = run_system(w, sys, &ctx.cfg);
        Cell {
            kernel: w.name.clone(),
            system: sys.label().into(),
            counts: [r.cycles(), r.dyn_instrs(), r.skipped_cycles],
        }
    })
}

/// The baseline document: the header and `entries` opener on the first
/// line, then one entry per line.
fn render(ctx: &Ctx, cells: &[Cell]) -> String {
    let c = &ctx.cfg;
    let mut out = Json::Obj(vec![
        ("schema".into(), json::str(SCHEMA)),
        ("scale".into(), json::str(ctx.scale_label())),
        ("seed".into(), json::num(ctx.seed)),
        ("issue_width".into(), json::num(c.issue_width as u64)),
        ("tags".into(), json::num(c.tags as u64)),
        ("queue_depth".into(), json::num(c.queue_depth as u64)),
        ("event_driven".into(), Json::Bool(c.event_driven)),
        ("mem".into(), json::str(c.mem.label())),
    ])
    .render();
    out.pop(); // reopen the header object for `entries`
    out.push_str(",\"entries\":[");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let mut entry = vec![
            ("kernel".into(), json::str(&cell.kernel)),
            ("system".into(), json::str(&cell.system)),
        ];
        entry.extend(COUNTS.iter().zip(cell.counts).map(|(k, n)| (k.to_string(), json::num(n))));
        out.push_str(&Json::Obj(entry).render());
    }
    out.push_str("\n]}\n");
    out
}

/// Runs the suite benchmark and writes the baseline to `out`.
///
/// # Errors
///
/// Returns a message if a run parameter is out of range (a width, tag count
/// or FIFO depth of 0) or the file cannot be written. Simulation faults and
/// oracle mismatches panic, as everywhere else in the harness — an anchor
/// over wrong results is worthless.
pub fn run(ctx: &Ctx, out: &Path) -> Result<(), String> {
    // Run under the header's own reading of `ctx`, so that the file's
    // numbers follow from its header alone.
    let ctx = header(&Json::parse(&render(ctx, &[]))?, ctx.jobs)?;
    eprintln!("running the {} suite on all five systems ({} jobs)...", ctx.scale_label(), ctx.jobs);
    let cells = cells(&ctx);
    std::fs::write(out, render(&ctx, &cells))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} ({} cells, schema {SCHEMA})", out.display(), cells.len());
    let (cycles, skipped) =
        cells.iter().fold((0, 0), |(c, s), x| (c + x.counts[0], s + x.counts[2]));
    if cycles > 0 {
        println!(
            "  event core skipped {skipped} of {cycles} simulated cycles ({:.1}%)",
            100.0 * skipped as f64 / cycles as f64
        );
    }
    Ok(())
}

/// Checks a baseline file on disk (`repro bench-check`): re-runs the grid
/// under the parameters its header records, on `jobs` workers, and requires
/// the file to be byte-for-byte what `repro bench` writes for that header.
///
/// # Errors
///
/// Returns a message naming why the file is malformed, or every drifted,
/// missing, duplicate or unknown cell.
pub fn check_file(path: &Path, jobs: usize) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let n = check(&text, jobs).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}: all {n} cells reproduced byte for byte (schema {SCHEMA})", path.display());
    Ok(())
}

/// [`check_file`] over the file's text. Returns the number of cells.
fn check(text: &str, jobs: usize) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let ctx = header(&doc, jobs)?;
    let recorded = entries(&doc)?;
    let want = cells(&ctx);
    let expect = render(&ctx, &want);
    if text == expect {
        return Ok(want.len());
    }
    let same = |a: &Cell, b: &Cell| a.kernel == b.kernel && a.system == b.system;
    let mut problems = Vec::new();
    for (i, r) in recorded.iter().enumerate() {
        let name = format!("{} on {}", r.kernel, r.system);
        match want.iter().find(|w| same(w, r)) {
            None => problems.push(format!("unknown cell {name}")),
            Some(_) if recorded[..i].iter().any(|p| same(p, r)) => {
                problems.push(format!("duplicate cell {name}"))
            }
            Some(w) if w.counts != r.counts => {
                problems.push(format!("{name}: recorded {:?}, now {:?}", r.counts, w.counts))
            }
            Some(_) => {}
        }
    }
    for w in want.iter().filter(|w| !recorded.iter().any(|r| same(r, w))) {
        problems.push(format!("missing cell {} on {}", w.kernel, w.system));
    }
    if problems.is_empty() {
        let line = text.lines().zip(expect.lines()).take_while(|(a, b)| a == b).count() + 1;
        problems
            .push(format!("every cell matches, but line {line} is not what `repro bench` writes"));
    }
    Err(format!("[{}] do not reproduce:\n  {}", COUNTS.join(", "), problems.join("\n  ")))
}

/// A JSON value as an exact non-negative integer.
fn to_u64(v: Option<&Json>, what: &str) -> Result<u64, String> {
    match v.and_then(Json::as_f64) {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => Ok(n as u64),
        _ => Err(format!("{what} is missing or not a non-negative integer")),
    }
}

/// The run parameters a baseline's header records, as a context running on
/// `jobs` workers; everything the header does not record is the default.
fn header(doc: &Json, jobs: usize) -> Result<Ctx, String> {
    let text = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("header field \"{key}\" is missing or not a string"))
    };
    let positive = |key: &str| -> Result<usize, String> {
        match to_u64(doc.get(key), &format!("header field \"{key}\""))? {
            0 => Err(format!("header field \"{key}\" must be at least 1")),
            n => Ok(n as usize),
        }
    };
    if text("schema")? != SCHEMA {
        return Err(format!("schema {:?} is not {SCHEMA:?}", text("schema")?));
    }
    let scale = match text("scale")? {
        "tiny" => Scale::Tiny,
        "small" => Scale::Small,
        "paper" => Scale::Paper,
        other => return Err(format!("unknown scale {other:?}")),
    };
    let Some(Json::Bool(event_driven)) = doc.get("event_driven") else {
        return Err("header field \"event_driven\" is missing or not a boolean".into());
    };
    Ok(Ctx {
        scale,
        seed: to_u64(doc.get("seed"), "header field \"seed\"")?,
        cfg: RunConfig {
            issue_width: positive("issue_width")?,
            tags: positive("tags")?,
            queue_depth: positive("queue_depth")?,
            mem: MemConfig::parse(text("mem")?)
                .map_err(|e| format!("header field \"mem\": {e}"))?,
            event_driven: *event_driven,
            ..RunConfig::default()
        },
        csv_dir: None,
        jobs,
    })
}

/// The cells a baseline records, in file order.
fn entries(doc: &Json) -> Result<Vec<Cell>, String> {
    let entries = doc.get("entries").and_then(Json::as_arr).ok_or("missing \"entries\" array")?;
    let cell = |i: usize, e: &Json| -> Result<Cell, String> {
        let name = |key: &str| {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry {i}: missing \"{key}\""))
        };
        let count = |k: usize| to_u64(e.get(COUNTS[k]), &format!("entry {i}: \"{}\"", COUNTS[k]));
        Ok(Cell {
            kernel: name("kernel")?,
            system: name("system")?,
            counts: [count(0)?, count(1)?, count(2)?],
        })
    };
    entries.iter().enumerate().map(|(i, e)| cell(i, e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real tiny-scale grid and the context it ran under, as
    /// `repro --scale tiny bench` writes it.
    fn tiny() -> (Ctx, Vec<Cell>) {
        let ctx = Ctx { scale: Scale::Tiny, jobs: 2, ..Ctx::default() };
        let cells = cells(&ctx);
        (ctx, cells)
    }

    #[test]
    fn well_formed_doc_validates() {
        // The baseline `bench` writes passes its own check, at any job count.
        let (ctx, cells) = tiny();
        assert_eq!(check(&render(&ctx, &cells), 1), Ok(35));
    }

    #[test]
    fn wrong_schema_tag_rejected() {
        let v1 = render(&Ctx::default(), &[]).replace(SCHEMA, "tyr-bench-suite/v1");
        assert!(check(&v1, 2).unwrap_err().contains("schema \"tyr-bench-suite/v1\""));
        // A file that is not even an object is a typed error too.
        assert!(check("[1, 2]", 2).unwrap_err().contains("\"schema\" is missing"));
    }

    #[test]
    fn issue_width_envelope_enforced() {
        // Widths, tag counts and FIFO depths of 0 panic in the engines; the
        // header rejects them before anything runs.
        let text = render(&Ctx::default(), &[]);
        for (key, bad) in [("issue_width", 0.0), ("tags", 0.0), ("queue_depth", 0.0), ("tags", 2.5)]
        {
            let text = text.replacen(&format!("\"{key}\":"), &format!("\"{key}\":{bad},\"_\":"), 1);
            assert!(check(&text, 2).unwrap_err().contains(key), "{key}={bad}");
        }
        let text = text.replace("\"mem\":\"ideal:1\"", "\"mem\":\"cached:l1=zzz\"");
        assert!(check(&text, 2).unwrap_err().contains("bad size"));
    }

    #[test]
    fn round_trip_through_text_still_validates() {
        // Every recorded parameter survives the text, including a cache
        // geometry through `MemConfig::label` and a ticked run.
        let cfg = RunConfig {
            issue_width: 3,
            tags: 5,
            queue_depth: 2,
            mem: MemConfig::parse("cached:l1=512,l2=4k,mshr=4,lat1=1").unwrap(),
            event_driven: false,
            ..RunConfig::default()
        };
        let ctx = Ctx { scale: Scale::Tiny, seed: 9, cfg, ..Ctx::default() };
        let cells = [Cell { kernel: "dmv".into(), system: "TYR".into(), counts: [3, 2, 1] }];
        let text = render(&ctx, &cells);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(render(&header(&doc, 1).unwrap(), &cells), text);
        assert_eq!(entries(&doc).unwrap(), cells);
    }

    #[test]
    fn sim_exact_reproduces_a_real_baseline_and_names_drifted_cells() {
        // One count off by one: that cell, and only it, is named.
        let (ctx, mut cells) = tiny();
        cells[7].counts[0] += 1;
        let err = check(&render(&ctx, &cells), 2).unwrap_err();
        assert_eq!(err.lines().count(), 2, "{err}");
        assert!(err.contains("dmm on ordered: recorded ["), "{err}");
    }

    #[test]
    fn missing_pair_rejected() {
        let (ctx, mut cells) = tiny();
        cells.remove(2);
        let err = check(&render(&ctx, &cells), 2).unwrap_err();
        assert!(err.contains("missing cell dmv on ordered"), "{err}");
    }

    #[test]
    fn duplicate_pair_rejected() {
        let (ctx, mut cells) = tiny();
        cells.insert(1, cells[0].clone());
        cells[5].kernel = "nope".into();
        let err = check(&render(&ctx, &cells), 2).unwrap_err();
        assert!(err.contains("duplicate cell dmv on seq-vN"), "{err}");
        assert!(err.contains("unknown cell nope on TYR"), "{err}");
        assert!(err.contains("missing cell dmv on TYR"), "{err}");
        // Any other difference is located by line.
        let (ctx, cells) = tiny();
        let extra = render(&ctx, &cells).replacen("\"seed\":1", "\"seed\":1,\"jobs\":2", 1);
        assert!(check(&extra, 2).unwrap_err().contains("line 1 is not"));
    }
}
