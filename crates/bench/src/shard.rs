//! `repro shard <kernel> <engine> [--shards K]` — the shard story for one
//! run, static and dynamic side by side.
//!
//! The static half computes a shard plan for the engine's lowering
//! (`tyr-verify`'s seeded partitioner) and certifies it with the P-pass:
//! cross-shard memory disjointness (P001), per-shard tag budgets (P002),
//! progress summaries over the cut (P003), and static traffic bounds
//! (P004). The dynamic half runs the same lowering with the
//! [`ShardCrossings`] tracker attached and prints the observed cut traffic
//! next to the static estimates.
//!
//! Three gates, any failure exiting nonzero — the same battery `repro
//! verify` runs across the suite:
//!
//! 1. the P-report must be free of errors (an unsafe cut is useless);
//! 2. every per-shard static in-flight bound must dominate the observed
//!    peak boundary occupancy;
//! 3. no runtime word conflict between blocks in *different* shards may
//!    contradict a P001 "proven disjoint" claim.

use tyr_dfg::lower::{lower_ordered, lower_tagged, TaggingDiscipline};
use tyr_dfg::BlockId;
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;
use tyr_stats::shard::{ShardCrossings, ShardSpec};
use tyr_verify::{verify_shards, ShardBudget, ShardCertificate};
use tyr_workloads::{by_name, APP_NAMES};

use crate::figures::Ctx;
use crate::trace::{self, BOUNDED_POOL};

/// Default shard count when `--shards` is not given.
pub const DEFAULT_SHARDS: usize = 4;

/// Engines the shard subcommand accepts (canonical names). The sequential
/// engines have no graph to cut, so they are rejected with a pointer here.
pub const SHARD_ENGINES: [&str; 4] = ["tyr", "tagged-global-bounded", "unordered", "ordered"];

/// Resolves user-facing engine aliases (`tagged`, `tagged-global`) to the
/// canonical engine names of [`trace::ENGINE_NAMES`].
fn canonical_engine(engine: &str) -> Result<&'static str, String> {
    match engine {
        "tyr" | "tagged" => Ok("tyr"),
        "tagged-global" | "tagged-global-bounded" => Ok("tagged-global-bounded"),
        "unordered" => Ok("unordered"),
        "ordered" => Ok("ordered"),
        "seqdf" | "seqvn" | "ooo" => Err(format!(
            "engine '{engine}' executes the program sequentially: there is no graph to \
             shard (known: {})",
            SHARD_ENGINES.join(" ")
        )),
        other => Err(format!("unknown engine '{other}' (known: {})", SHARD_ENGINES.join(" "))),
    }
}

/// Runs `kernel` on `engine` with the crossing tracker attached, prints the
/// certified shard plan, the P-report, and the dynamic observations, and
/// checks the static claims against them.
///
/// # Errors
///
/// Returns a message on unknown kernel/engine names, lowering errors,
/// simulation faults, oracle mismatches, a P-report with errors, an unsound
/// static bound, or a contradicted disjointness claim.
pub fn run(ctx: &Ctx, kernel: &str, engine: &str, shards: usize) -> Result<(), String> {
    let w = by_name(kernel, ctx.scale, ctx.seed)
        .ok_or_else(|| format!("unknown kernel '{kernel}' (known: {})", APP_NAMES.join(" ")))?;
    let engine = canonical_engine(engine)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    println!("== shard: {kernel} on {engine} ({} scale, {shards} shard(s)) ==", ctx.scale_label());

    // Static side: plan + certificate for the lowering this engine runs.
    let title = format!("{kernel}/{engine}/shard");
    let tyr_policy = ctx.cfg.tyr_policy();
    let global_policy = TagPolicy::GlobalBounded { tags: BOUNDED_POOL };
    let caps = ChannelCapacity::uniform(ctx.cfg.queue_depth);
    let (dfg, budget) = match engine {
        "tyr" => (
            lower_tagged(&w.program, TaggingDiscipline::Tyr).map_err(|e| e.to_string())?,
            ShardBudget::Tagged(&tyr_policy),
        ),
        "tagged-global-bounded" => (
            lower_tagged(&w.program, TaggingDiscipline::Tyr).map_err(|e| e.to_string())?,
            ShardBudget::Tagged(&global_policy),
        ),
        "unordered" => (
            lower_tagged(&w.program, TaggingDiscipline::UnorderedUnbounded)
                .map_err(|e| e.to_string())?,
            ShardBudget::Tagged(&TagPolicy::GlobalUnbounded),
        ),
        _ => (lower_ordered(&w.program).map_err(|e| e.to_string())?, ShardBudget::Ordered(&caps)),
    };
    let (cert, report) =
        verify_shards(&title, &dfg, shards, ctx.seed, Some(budget), Some((&w.memory, &w.args)));
    print!("{}", cert.plan.render(&dfg));
    println!("{}", report.render());

    // Dynamic side: the same lowering is what run_probed executes (the
    // lowering is deterministic, so node ids line up), with the crossing
    // tracker folding the probe stream through the certificate's tables.
    let mut sc = ShardCrossings::new(spec_of(&dfg, &cert));
    let r = trace::run_probed(ctx, &w, engine, &mut sc)?;
    if r.is_complete() {
        w.check(r.memory()).map_err(|e| format!("oracle mismatch: {e}"))?;
    }
    println!("  outcome: {}", r.outcome);
    let observed = sc.report();
    print!("{}", observed.render());

    // The gates.
    let mut violations = 0usize;
    let mut leg = |what: &str, ok: bool| {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            violations += 1;
        }
    };

    leg("P-report free of errors", report.errors() == 0);
    for f in &observed.per_shard {
        let bound = cert.shard_inflight.get(f.shard as usize).copied().flatten();
        let (ok, rendered) = match bound {
            Some(b) => (b >= f.peak_inflight, b.to_string()),
            None => (true, "unbounded".to_string()),
        };
        leg(
            &format!(
                "shard {}: static boundary in-flight <= {rendered}, observed peak {}",
                f.shard, f.peak_inflight
            ),
            ok,
        );
    }
    let claims = cert.mem.as_ref().expect("memory context was supplied");
    let shard_of = |b: u32| cert.plan.shard_of(BlockId(b));
    let contradicted: Vec<String> = observed
        .cross_shard_conflicts(shard_of)
        .filter(|c| claims.disjoint.contains(&(BlockId(c.block_a), BlockId(c.block_b))))
        .map(|c| format!("cb{}+cb{} at word {}", c.block_a, c.block_b, c.addr))
        .collect();
    leg(
        &format!("P001 disjointness claims uncontradicted ({} claim(s))", claims.disjoint.len()),
        contradicted.is_empty(),
    );
    for c in &contradicted {
        println!("       contradicted: {c}");
    }
    if observed.untracked_blocks {
        println!("  note: some blocks exceeded the conflict tracker's id range (untracked)");
    }

    if violations > 0 {
        return Err(format!("{violations} shard gate(s) failed"));
    }
    println!("  plan certified and uncontradicted by the run");
    Ok(())
}

/// Adapts a [`ShardCertificate`] into the plain-vector [`ShardSpec`] the
/// tracker consumes (`tyr-stats` does not depend on `tyr-verify`).
fn spec_of(dfg: &tyr_dfg::Dfg, cert: &ShardCertificate) -> ShardSpec {
    ShardSpec {
        shards: cert.plan.shards as u32,
        node_shard: cert.node_shard.clone(),
        boundary: cert.boundary.clone(),
        plain_store: cert.plain_store.clone(),
        node_block: dfg.nodes().map(|n| n.block().0).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parallel_map;
    use tyr_workloads::Scale;

    #[test]
    fn aliases_resolve_and_sequential_engines_are_rejected() {
        assert_eq!(canonical_engine("tagged").unwrap(), "tyr");
        assert_eq!(canonical_engine("tagged-global").unwrap(), "tagged-global-bounded");
        assert_eq!(canonical_engine("ordered").unwrap(), "ordered");
        assert!(canonical_engine("seqvn").unwrap_err().contains("sequentially"));
        assert!(canonical_engine("bogus").unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn shard_gate_passes_on_dmv_for_every_engine_family() {
        let ctx = Ctx { scale: Scale::Tiny, ..Ctx::default() };
        for engine in ["tagged", "tagged-global", "unordered", "ordered"] {
            run(&ctx, "dmv", engine, DEFAULT_SHARDS).unwrap_or_else(|e| panic!("{engine}: {e}"));
        }
    }

    /// The plan and certificate are pure functions of (graph, k, seed):
    /// computing them from worker threads (as a `--jobs` sweep would) yields
    /// byte-identical plans.
    #[test]
    fn plans_are_deterministic_across_worker_threads() {
        let ctx = Ctx { scale: Scale::Tiny, ..Ctx::default() };
        let w = by_name("dmv", ctx.scale, ctx.seed).unwrap();
        let dfg = lower_tagged(&w.program, TaggingDiscipline::Tyr).unwrap();
        let policy = ctx.cfg.tyr_policy();
        let render = |_: usize| {
            let (cert, report) = verify_shards(
                "det",
                &dfg,
                DEFAULT_SHARDS,
                ctx.seed,
                Some(ShardBudget::Tagged(&policy)),
                Some((&w.memory, &w.args)),
            );
            format!("{}{}", cert.plan.render(&dfg), report.render())
        };
        let reference = render(0);
        for out in parallel_map(4, (0..8).collect(), render) {
            assert_eq!(out, reference);
        }
    }
}
