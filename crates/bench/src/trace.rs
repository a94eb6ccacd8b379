//! `repro trace <kernel> <engine>` — run one kernel on one engine with the
//! full probe stack attached and explain where the cycles went.
//!
//! Two sinks ride on the same run (via the `(A, B)` probe combinator):
//!
//! * a [`NodeProfiler`], whose report is printed as ranked hot-node and
//!   stall-attribution tables plus a per-block stall heatmap;
//! * a [`ChromeTrace`], whose JSON is written to disk and can be opened
//!   directly in Perfetto / `chrome://tracing` (blocks are processes, nodes
//!   are threads, attributed stalls are async slices).
//!
//! The emitted JSON is validated before the command reports success: it must
//! parse, be structurally well-formed, and contain at least one event of
//! every taxonomy kind the selected engine is specified to emit — the same
//! gate `ci.sh` runs on one kernel per engine family.

use std::path::{Path, PathBuf};

use tyr_sim::RunResult;
use tyr_stats::probe::{ChromeTrace, EventKind, Probe};
use tyr_stats::{NodeProfiler, StallReason};
use tyr_workloads::{by_name, Workload, APP_NAMES};

use crate::figures::Ctx;
use crate::{Launch, LaunchError};

/// Engine names the trace subcommand accepts.
pub const ENGINE_NAMES: [&str; 7] =
    ["tyr", "tagged-global-bounded", "unordered", "ordered", "seqdf", "seqvn", "ooo"];

/// Pool size for `tagged-global-bounded` — the Fig. 11 configuration: a
/// small FCFS global pool that wedges nested loop programs at every scale,
/// so the trace shows the deadlock's tag-starvation attribution.
pub const BOUNDED_POOL: usize = 8;

/// The event kinds engine `engine` is specified to emit on any non-trivial
/// kernel; the emitted trace must contain at least one of each.
///
/// `tagged-global-bounded` additionally emits `tag-freed`/`block-exit` on
/// runs that make progress before wedging, but a pathological input could
/// wedge before the first `free`, so those are not required.
pub fn expected_kinds(engine: &str) -> &'static [EventKind] {
    match engine {
        "tyr" => &[
            EventKind::Fired,
            EventKind::MemAccess,
            EventKind::Produced,
            EventKind::Consumed,
            EventKind::TagAllocated,
            EventKind::TagFreed,
            EventKind::TagChanged,
            EventKind::BlockEnter,
            EventKind::BlockExit,
            EventKind::StallBegin,
            EventKind::StallEnd,
        ],
        "tagged-global-bounded" => &[
            EventKind::Fired,
            EventKind::MemAccess,
            EventKind::Produced,
            EventKind::Consumed,
            EventKind::TagAllocated,
            EventKind::BlockEnter,
            EventKind::StallBegin,
        ],
        "unordered" => &[
            EventKind::Fired,
            EventKind::MemAccess,
            EventKind::Produced,
            EventKind::Consumed,
            EventKind::TagAllocated,
            EventKind::BlockEnter,
            EventKind::StallBegin,
            EventKind::StallEnd,
        ],
        "ordered" => &[
            EventKind::Fired,
            EventKind::MemAccess,
            EventKind::Produced,
            EventKind::Consumed,
            EventKind::StallBegin,
            EventKind::StallEnd,
        ],
        "seqdf" => {
            &[EventKind::Fired, EventKind::Produced, EventKind::Consumed, EventKind::MemAccess]
        }
        "seqvn" | "ooo" => &[EventKind::Fired, EventKind::MemAccess],
        _ => &[],
    }
}

/// Runs `kernel` on `engine` with the profiler and Chrome-trace sinks
/// attached, prints the profile, writes the trace JSON (to `out`, or to
/// `trace_<kernel>_<engine>.json` under `--csv`'s directory / the working
/// directory), and validates the emitted JSON.
///
/// # Errors
///
/// Returns a message on unknown kernel/engine names, simulation faults,
/// oracle mismatches, I/O failures, or a trace that fails validation.
pub fn run(ctx: &Ctx, kernel: &str, engine: &str, out: Option<&Path>) -> Result<(), String> {
    let w = by_name(kernel, ctx.scale, ctx.seed)
        .ok_or_else(|| format!("unknown kernel '{kernel}' (known: {})", APP_NAMES.join(" ")))?;
    if !ENGINE_NAMES.contains(&engine) {
        return Err(format!("unknown engine '{engine}' (known: {})", ENGINE_NAMES.join(" ")));
    }
    println!("== trace: {kernel} on {engine} ({} scale) ==", ctx.scale_label());

    let mut prof = NodeProfiler::new();
    let mut chrome = ChromeTrace::new();
    let r = run_probed(ctx, &w, engine, (&mut prof, &mut chrome))?;
    if r.is_complete() {
        w.check(r.memory()).map_err(|e| format!("oracle mismatch: {e}"))?;
    }
    finish(ctx, &w, engine, out, r, prof, chrome)
}

/// Lowers (as needed) and runs `w` on `engine` with `probe` attached,
/// under the harness configuration in `ctx`. Shared by `repro trace` and
/// `repro locality`; the caller owns oracle checking and reporting.
///
/// # Errors
///
/// Returns a message on unknown engine names, lowering errors, or
/// simulation faults.
pub fn run_probed<P: Probe>(
    ctx: &Ctx,
    w: &Workload,
    engine: &str,
    probe: P,
) -> Result<RunResult, String> {
    let launch = Launch::named(engine, &ctx.cfg, &w.args)
        .ok_or_else(|| format!("unknown engine '{engine}' (known: {})", ENGINE_NAMES.join(" ")))?;
    launch.run(&w.program, &w.memory, probe).map_err(|e| match e {
        LaunchError::Lowering(_) => e.to_string(),
        LaunchError::Sim(e) => format!("{engine} on {}: {e}", w.name),
    })
}

/// Prints the profile, writes and validates the Chrome trace.
fn finish(
    ctx: &Ctx,
    w: &Workload,
    engine: &str,
    out: Option<&Path>,
    r: RunResult,
    prof: NodeProfiler,
    chrome: ChromeTrace,
) -> Result<(), String> {
    let kernel = &w.name;
    let final_cycle = r.final_cycle();
    let r = r.with_profile(prof.report(final_cycle));
    let report = r.profile.as_ref().expect("just attached");
    println!("  outcome: {}", r.outcome);
    println!("{}", report.render(10, 48));
    if !r.is_complete() {
        let starved = report
            .nodes
            .iter()
            .max_by_key(|n| n.stall_cycles[StallReason::TagStarved.index()])
            .filter(|n| n.stall_cycles[StallReason::TagStarved.index()] > 0);
        if let Some(n) = starved {
            println!(
                "  deadlock attribution: '{}' (block '{}') spent {} cycles tag-starved",
                n.label,
                n.block,
                n.stall_cycles[StallReason::TagStarved.index()]
            );
        }
    }

    ctx.emit_csv(&format!("profile_{kernel}_{engine}"), &report.to_csv());

    let json = chrome.render(r.final_cycle());
    let path: PathBuf = match out {
        Some(p) => p.to_path_buf(),
        None => {
            let name = format!("trace_{kernel}_{engine}.json");
            match &ctx.csv_dir {
                Some(dir) => dir.join(name),
                None => PathBuf::from(name),
            }
        }
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;

    let kinds = ChromeTrace::validate(&json).map_err(|e| format!("emitted trace invalid: {e}"))?;
    for k in expected_kinds(engine) {
        if kinds.get(k.name()).copied().unwrap_or(0) == 0 {
            return Err(format!(
                "trace is missing '{}' events ({engine} must emit them); got {kinds:?}",
                k.name()
            ));
        }
    }
    let total: u64 = kinds.values().sum();
    let present = kinds.values().filter(|&&c| c > 0).count();
    println!(
        "  [trace] wrote {} ({total} events, {present} kinds; open in Perfetto / chrome://tracing)",
        path.display(),
    );
    Ok(())
}
