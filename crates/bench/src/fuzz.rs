//! `repro fuzz` / `repro chaos` — the differential fuzzer and the
//! fault-injection chaos harness.
//!
//! **Fuzzing** (`repro fuzz`): seeded random structured programs from
//! [`tyr_workloads::gen::Recipe`] run on all five systems and the reference
//! interpreter (the oracle). Two sweeps per invocation:
//!
//! 1. *Differential*: unfaulted runs. Any engine whose return value or
//!    `out`-array contents disagree with the oracle — or that errors,
//!    deadlocks, or times out — is a finding; the recipe is shrunk to a
//!    minimal witness and printed.
//! 2. *Chaos*: every fault class from the plan (default `all`) is injected
//!    into a fault-capable engine (rotating over TYR / unordered / ordered
//!    by seed) and the outcome is attributed per class. "Detect" classes
//!    must produce an observable failure *somewhere* in the sweep; the
//!    `mem-delay` class is special — the dataflow engines are
//!    latency-insensitive by design, so a delayed response must be
//!    **absorbed** (the run still completes correctly), and anything else
//!    is an engine bug.
//!
//! Every run is armed with a deterministic cycle-budget watchdog (plus the
//! sweep's shared [`CancelToken`] when `--deadline-secs` is given), so a
//! wedged engine surfaces as an attributed `TimedOut` verdict instead of
//! hanging the sweep. All reporting is in seed order with no wall-clock
//! content: the same seed produces a byte-identical report and witness.
//! Per-sweep wall-clock latency histograms (p50/p90/p99 over job
//! durations) are printed to **stderr** only, so the stdout determinism
//! contract survives the instrumentation.
//!
//! **Chaos on a real kernel** (`repro chaos <kernel> <engine>`): runs one
//! suite workload on one fault-capable engine under a fault plan and prints
//! the full fault log, the outcome, and the per-run classification — the
//! single-run microscope to `repro fuzz`'s sweep.

use std::time::Duration;

use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_ir::{interp, pretty, Value};
use tyr_sim::ooo::OooConfig;
use tyr_sim::ordered::OrderedConfig;
use tyr_sim::seqdf::SeqDataflowConfig;
use tyr_sim::seqvn::SeqVnConfig;
use tyr_sim::tagged::{TaggedConfig, TaggedEngine};
use tyr_sim::{
    CancelToken, FaultKind, FaultPlan, MemConfig, NoProbe, Outcome, RunResult, Watchdog,
};
use tyr_stats::locality::WorkingSet;
use tyr_stats::shard::{ShardCrossings, ShardSpec};
use tyr_verify::{analyze_footprint, analyze_live_state, verify_shards, ShardBudget};
use tyr_workloads::gen::{GenCase, Recipe};
use tyr_workloads::{by_name, APP_NAMES};

use crate::figures::Ctx;
use crate::{pool, Launch, LaunchError, RunConfig, System};

/// Deterministic cycle budget armed on every fuzz run. Generated programs
/// finish in well under 100k cycles on every engine; a run that reaches the
/// budget is wedged (e.g. by a stuck node) and is reported as `TimedOut`.
pub const FUZZ_CYCLE_BUDGET: u64 = 1_000_000;

/// Cycle budget for `repro chaos` runs. Suite kernels finish in well under
/// ten million cycles at every scale, but a stuck or tag-starved run spins
/// quiescently until the watchdog fires — so the scale config's effectively
/// unlimited `max_cycles` (2e9) would stall the CLI for minutes on a wedge.
pub const CHAOS_CYCLE_BUDGET: u64 = 10_000_000;

/// Minimum strikes a fault class needs before the "detected at least once"
/// gate is enforced. Detection is probabilistic per strike (a duplicated
/// token is tolerated ~4-in-5 times), so tiny sweeps would fail the gate by
/// chance; the 25-seed `--quick` sweep clears this for every class.
pub const DETECT_GATE_MIN_STRIKES: usize = 8;

/// Top-level statements per generated program.
pub const FUZZ_RECIPE_SIZE: usize = 16;

/// Engines that accept a [`FaultPlan`]; the chaos sweep rotates over these.
pub const FAULT_TARGETS: [System; 3] = [System::Tyr, System::Unordered, System::Ordered];

/// Whether `sys` can inject `kind` at all. The ordered machine is untagged,
/// so tag-space exhaustion does not apply to it.
pub fn supports(sys: System, kind: FaultKind) -> bool {
    match sys {
        System::Tyr | System::Unordered => true,
        System::Ordered => kind != FaultKind::TagExhaust,
        System::SeqVn | System::SeqDf => false,
    }
}

/// What one engine run looked like next to the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Completed with the oracle's return value and `out` contents.
    Agree,
    /// Completed, but with different results (the detail names the first
    /// diverging value).
    WrongAnswer(String),
    /// The engine returned a `SimError` (sanitizer trip, ALU fault, ...).
    EngineError(String),
    /// The engine deadlocked.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
    /// A watchdog ended the run.
    TimedOut(String),
}

impl Verdict {
    /// One-line rendering for reports.
    pub fn describe(&self) -> String {
        match self {
            Verdict::Agree => "agree".into(),
            Verdict::WrongAnswer(d) => format!("WRONG ANSWER ({d})"),
            Verdict::EngineError(e) => format!("engine error ({e})"),
            Verdict::Deadlock { cycle } => format!("deadlock @ cycle {cycle}"),
            Verdict::TimedOut(cause) => format!("timed out ({cause})"),
        }
    }

    /// Whether the run matched the oracle.
    pub fn is_agree(&self) -> bool {
        *self == Verdict::Agree
    }
}

/// The oracle's view of one generated case: the reference interpreter's
/// return values and final `out`-array contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleResult {
    /// Entry-function return values.
    pub returns: Vec<Value>,
    /// Final contents of the `out` accumulator array.
    pub out: Vec<Value>,
}

/// Runs the reference interpreter on `case`.
///
/// # Errors
///
/// Returns a message if the interpreter itself faults — which means the
/// *generator* is broken, not an engine, and is reported as such.
pub fn oracle(case: &GenCase) -> Result<OracleResult, String> {
    let mut mem = case.memory.clone();
    let r = interp::run(&case.program, &mut mem, &case.args)
        .map_err(|e| format!("oracle (reference interpreter) faulted: {e}"))?;
    Ok(OracleResult { returns: r.returns, out: mem.slice(case.out).to_vec() })
}

/// The harness parameters every fuzz run uses: 64-wide issue, 64 local
/// tags, no cycle limit of the engine's own (the armed watchdog bounds the
/// run instead), and the sweep's memory model and execution mode.
fn fuzz_config(event_driven: bool, mem: &MemConfig) -> RunConfig {
    RunConfig {
        issue_width: 64,
        tags: 64,
        mem: mem.clone(),
        max_cycles: u64::MAX,
        event_driven,
        ..RunConfig::default()
    }
}

/// Arms `launch` for a robustness run: the watchdog on whichever engine it
/// names, the fault plan on the fault-capable ones, and the use-after-free
/// sanitizer on the tagged engine.
fn armed(launch: Launch, faults: Option<FaultPlan>, watchdog: Watchdog) -> Launch {
    match launch {
        Launch::SeqVn(c) => Launch::SeqVn(SeqVnConfig { watchdog, ..c }),
        Launch::SeqDf(c) => Launch::SeqDf(SeqDataflowConfig { watchdog, ..c }),
        Launch::Ooo(c) => Launch::Ooo(OooConfig { watchdog, ..c }),
        Launch::Ordered(c) => Launch::Ordered(OrderedConfig { faults, watchdog, ..c }),
        Launch::Tagged(d, c) => {
            Launch::Tagged(d, TaggedConfig { check_token_leaks: true, faults, watchdog, ..c })
        }
    }
}

/// Runs `case` on `sys` (optionally faulted, always watchdogged) and judges
/// the result against `oracle`. Never panics: every failure mode comes back
/// as a [`Verdict`]. Returns the verdict and the run's fault log.
///
/// `event_driven` selects the tagged/ordered engines' core (event-driven or
/// ticked); the verdict must be identical either way — `--ticked` sweeps
/// exist precisely to cross-check that.
pub fn run_engine(
    case: &GenCase,
    sys: System,
    faults: Option<FaultPlan>,
    dog: Watchdog,
    event_driven: bool,
    mem: &MemConfig,
    oracle: &OracleResult,
) -> (Verdict, Vec<tyr_sim::FaultRecord>) {
    let launch = Launch::of(sys, &fuzz_config(event_driven, mem), &case.args);
    let res = armed(launch, faults, dog).run(&case.program, &case.memory, NoProbe);
    judge(case, oracle, res.map_err(|e| e.to_string()))
}

/// Classifies a raw engine result against the oracle.
fn judge(
    case: &GenCase,
    oracle: &OracleResult,
    res: Result<RunResult, String>,
) -> (Verdict, Vec<tyr_sim::FaultRecord>) {
    let r = match res {
        Ok(r) => r,
        Err(e) => return (Verdict::EngineError(e), Vec::new()),
    };
    let faults = r.faults.clone();
    let v = match &r.outcome {
        Outcome::Deadlock { cycle, .. } => Verdict::Deadlock { cycle: *cycle },
        Outcome::TimedOut { cause, .. } => Verdict::TimedOut(cause.to_string()),
        Outcome::Completed { .. } => {
            if r.returns != oracle.returns {
                Verdict::WrongAnswer(format!(
                    "returns {:?}, oracle {:?}",
                    r.returns, oracle.returns
                ))
            } else {
                let got = r.memory().slice(case.out);
                match got.iter().zip(&oracle.out).position(|(g, w)| g != w) {
                    Some(i) => Verdict::WrongAnswer(format!(
                        "out[{i}] = {}, oracle {}",
                        got[i], oracle.out[i]
                    )),
                    None => Verdict::Agree,
                }
            }
        }
    };
    (v, faults)
}

/// Checks the W-pass soundness contract on one generated recipe: every
/// static working-set bound (W001 live state per block and total, W002
/// footprint lines) must dominate what the TYR engine and its attached
/// reuse tracker actually observe. Returns a description of the first
/// violated bound, or `None` when every bound is sound.
///
/// Lowering errors, engine faults, and incomplete runs return `None`: they
/// are sweep-1 differential findings, not soundness violations, and
/// treating them as violations would make the shrinker chase the wrong
/// predicate. The run uses the sweep's memory model and execution mode
/// (`event_driven`, `mem`): a sound bound holds under every schedule.
pub fn wbound_violation(
    recipe: &Recipe,
    dog: Watchdog,
    event_driven: bool,
    mem: &MemConfig,
) -> Option<String> {
    let case = recipe.materialize();
    let Ok(dfg) = lower_tagged(&case.program, TaggingDiscipline::Tyr) else { return None };
    let cfg = fuzz_config(event_driven, mem);
    let policy = cfg.tyr_policy();
    let mut ws = WorkingSet::new();
    let c = TaggedConfig { watchdog: dog, ..cfg.tagged(policy.clone(), &case.args) };
    let r = match TaggedEngine::with_probe(&dfg, case.memory.clone(), c, &mut ws).run() {
        Ok(r) => r,
        Err(_) => return None,
    };
    if !r.is_complete() {
        return None;
    }
    let dynamic = ws.report(r.final_cycle());
    let live = analyze_live_state(&dfg, &policy);
    if let Some(t) = live.total() {
        if t < r.max_store_peak() {
            return Some(format!(
                "W001 total: static bound {t} < observed peak {}",
                r.max_store_peak()
            ));
        }
    }
    for (name, peak) in &r.store_peaks {
        if let Some(b) = live.for_block(name) {
            if b < *peak {
                return Some(format!("W001 '{name}': static bound {b} < observed peak {peak}"));
            }
        }
    }
    let fp = analyze_footprint(&dfg, &case.memory, &case.args);
    if let Some(l) = fp.total_lines() {
        if l < dynamic.distinct_lines {
            return Some(format!(
                "W002: static bound {l} line(s) < observed {} line(s)",
                dynamic.distinct_lines
            ));
        }
    }
    None
}

/// Shard count and partition seed the fuzz sweep certifies every generated
/// program against. Fixed so a seed's witness is reproducible.
pub const FUZZ_SHARDS: usize = 4;
/// Partition seed for [`shard_violation`].
pub const FUZZ_SHARD_SEED: u64 = 5;

/// Checks the P-pass soundness contract on one generated recipe: the
/// certified shard plan must be internally consistent (every undecided
/// memory pair actually co-located, every live cut edge derivable — no
/// P003 error), every per-shard static in-flight bound must dominate the
/// crossing tracker's observed peak, and no runtime cross-shard word
/// conflict may contradict a P001 disjointness claim. Returns a description
/// of the first violation, or `None` when the certificate held.
///
/// P001 *collision* errors are not violations: a generated program with a
/// provable cross-block race is the analysis working, not the plan lying —
/// and such a pair is never claimed disjoint, so the dynamic side stays
/// consistent. Lowering errors, engine faults, and incomplete runs return
/// `None`, and the run follows the sweep's `event_driven` and `mem`, as in
/// [`wbound_violation`].
pub fn shard_violation(
    recipe: &Recipe,
    dog: Watchdog,
    event_driven: bool,
    mem: &MemConfig,
) -> Option<String> {
    let case = recipe.materialize();
    let Ok(dfg) = lower_tagged(&case.program, TaggingDiscipline::Tyr) else { return None };
    let cfg = fuzz_config(event_driven, mem);
    let policy = cfg.tyr_policy();
    let (cert, report) = verify_shards(
        "fuzz",
        &dfg,
        FUZZ_SHARDS,
        FUZZ_SHARD_SEED,
        Some(ShardBudget::Tagged(&policy)),
        Some((&case.memory, &case.args)),
    );
    let claims = cert.mem.as_ref().expect("memory context was supplied");
    for &(a, b) in &claims.undecided {
        if cert.plan.shard_of(a) != cert.plan.shard_of(b) {
            return Some(format!("P001: undecided pair {a}+{b} was split across shards"));
        }
    }
    if report.diags.iter().any(|d| {
        d.severity == tyr_verify::Severity::Error && d.code == tyr_verify::Code::ShardProgress
    }) {
        return Some("P003: a live cut edge is not derivable from the source frontier".into());
    }

    let mut sc = ShardCrossings::new(ShardSpec {
        shards: cert.plan.shards as u32,
        node_shard: cert.node_shard.clone(),
        boundary: cert.boundary.clone(),
        plain_store: cert.plain_store.clone(),
        node_block: dfg.nodes().map(|n| n.block().0).collect(),
    });
    let c = TaggedConfig { watchdog: dog, ..cfg.tagged(policy, &case.args) };
    let r = match TaggedEngine::with_probe(&dfg, case.memory.clone(), c, &mut sc).run() {
        Ok(r) => r,
        Err(_) => return None,
    };
    if !r.is_complete() {
        return None;
    }
    let observed = sc.report();
    for f in &observed.per_shard {
        if let Some(b) = cert.shard_inflight.get(f.shard as usize).copied().flatten() {
            if b < f.peak_inflight {
                return Some(format!(
                    "P004 shard {}: static in-flight bound {b} < observed peak {}",
                    f.shard, f.peak_inflight
                ));
            }
        }
    }
    let shard_of = |b: u32| cert.plan.shard_of(tyr_dfg::BlockId(b));
    for c in observed.cross_shard_conflicts(shard_of) {
        let pair = (tyr_dfg::BlockId(c.block_a), tyr_dfg::BlockId(c.block_b));
        if claims.disjoint.contains(&pair) {
            return Some(format!(
                "P001: claimed-disjoint pair cb{}+cb{} both touched word {} at runtime",
                c.block_a, c.block_b, c.addr
            ));
        }
    }
    None
}

/// Greedy deterministic shrinking: repeatedly replace the recipe with its
/// first still-`failing` shrink candidate until no candidate fails. Because
/// [`Recipe::shrink_candidates`] enumerates edits in a fixed order and each
/// edit strictly reduces `(size, total trips)`, this terminates and lands on
/// the same local minimum on every rerun.
pub fn shrink(recipe: &Recipe, failing: impl Fn(&Recipe) -> bool) -> Recipe {
    let mut cur = recipe.clone();
    'outer: loop {
        for cand in cur.shrink_candidates() {
            if failing(&cand) {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Fuzz-sweep options (the `repro fuzz` CLI surface).
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Number of seeds to sweep.
    pub seeds: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Fault-plan text (`FaultPlan::parse` grammar); `None` means `all`.
    pub faults: Option<String>,
    /// Optional wall-clock deadline for the whole sweep; when it passes, a
    /// shared [`CancelToken`] gracefully winds down every in-flight run
    /// (they come back as attributed `TimedOut(cancelled)` verdicts) and
    /// the sweep reports itself incomplete.
    pub deadline: Option<Duration>,
    /// Run the engines' event-driven core (default) or force ticked
    /// execution (`--ticked`). The report is byte-identical either way —
    /// diffing the two is the cheapest whole-campaign identity check.
    pub event_driven: bool,
    /// Memory model for every engine. The cache hierarchy only shapes
    /// *timing*, never values, so a `cached` sweep must produce the same
    /// memory images and return values as an ideal one — running the
    /// differential oracle under `--mem cached` checks exactly that.
    pub mem: MemConfig,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seeds: 100,
            jobs: 1,
            faults: None,
            deadline: None,
            event_driven: true,
            mem: MemConfig::default(),
        }
    }
}

/// One engine's verdict on one unfaulted seed.
#[derive(Debug, Clone)]
struct DiffFinding {
    seed: u64,
    system: System,
    verdict: Verdict,
}

/// One faulted run's attribution.
#[derive(Debug, Clone)]
struct ChaosRun {
    seed: u64,
    system: System,
    kind: FaultKind,
    injected: usize,
    verdict: Verdict,
}

/// How a faulted run is scored, given its class's expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosScore {
    /// The fault produced an observable failure (wrong answer, sanitizer
    /// error, deadlock, or watchdog trip) — the detection paths work.
    Detected,
    /// `mem-delay` only: the run completed correctly despite the delayed
    /// responses — the latency-insensitivity contract held.
    Absorbed,
    /// A "detect"-class fault struck but perturbed only dead values; the
    /// run is attributed in the report (never silent), and the class gate
    /// requires a detection elsewhere in the sweep.
    Tolerated,
    /// No strike landed inside the window (e.g. `mem-flip` on a program
    /// with no loads); nothing was injected.
    NotStruck,
    /// `mem-delay` produced a failure — the engine is *not* latency-
    /// insensitive. Always fatal.
    Misbehaved,
}

fn score(kind: FaultKind, injected: usize, verdict: &Verdict) -> ChaosScore {
    if injected == 0 {
        return ChaosScore::NotStruck;
    }
    match (kind, verdict.is_agree()) {
        (FaultKind::MemDelay, true) => ChaosScore::Absorbed,
        (FaultKind::MemDelay, false) => ChaosScore::Misbehaved,
        (_, true) => ChaosScore::Tolerated,
        (_, false) => ChaosScore::Detected,
    }
}

/// Renders a shrunk witness. Pure in its inputs, so a rerun of the same
/// seed reproduces it byte-for-byte.
pub fn render_witness(seed: u64, original: &Recipe, shrunk: &Recipe, findings: &str) -> String {
    let case = shrunk.materialize();
    format!(
        "== fuzz witness: seed {seed} ==\n\
         disagreement: {findings}\n\
         args: {:?}\n\
         shrunk {} -> {} statements; program:\n{}",
        case.args,
        original.size(),
        shrunk.size(),
        pretty::print_program(&case.program)
    )
}

/// Runs the full fuzz sweep and prints the report.
///
/// # Errors
///
/// Returns a summary message (for a nonzero exit) if any engine disagreed
/// with the oracle on an unfaulted run, a fault class was never injected or
/// never detected, `mem-delay` was not absorbed, or the sweep was cancelled
/// before completing.
pub fn run(opts: &FuzzOpts) -> Result<(), String> {
    let plan_text = opts.faults.as_deref().unwrap_or("all");
    // Parse once for validation and class listing; per-run plans re-parse
    // with their own seeds.
    let template = FaultPlan::parse(plan_text, 0)?;
    println!(
        "== fuzz: {} seeds, faults '{plan_text}', cycle budget {FUZZ_CYCLE_BUDGET} ==",
        opts.seeds
    );

    let cancel = CancelToken::new();
    let _deadline_guard = opts.deadline.map(|d| spawn_deadline(d, cancel.clone()));
    let dog = |cancel: &CancelToken| {
        Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET).with_cancel(cancel.clone())
    };

    // Sweep 1: unfaulted differential runs, all five systems per seed.
    type SeedResult = (u64, Result<Vec<(System, Verdict)>, String>);
    let seeds: Vec<(String, u64)> =
        (0..opts.seeds).map(|s| (format!("fuzz seed {s}"), s)).collect();
    let diff_timed = pool::parallel_map_labeled_timed(opts.jobs, seeds, |seed| {
        let case = Recipe::generate(seed, FUZZ_RECIPE_SIZE).materialize();
        let ora = match oracle(&case) {
            Ok(o) => o,
            Err(e) => return (seed, Err(e)),
        };
        let verdicts = System::ALL
            .map(|sys| {
                let (v, _) =
                    run_engine(&case, sys, None, dog(&cancel), opts.event_driven, &opts.mem, &ora);
                (sys, v)
            })
            .to_vec();
        (seed, Ok(verdicts))
    });
    // Wall-clock dispersion goes to stderr: stdout stays byte-identical for
    // any --jobs (the determinism contract ci.sh relies on).
    let mut campaign_lat = pool::latency_histogram(&diff_timed);
    eprintln!("  [wall] differential sweep (us/seed): {campaign_lat}");
    let diff: Vec<SeedResult> = diff_timed.into_iter().map(|(r, _)| r).collect();

    let mut failures: Vec<String> = Vec::new();
    let mut findings: Vec<DiffFinding> = Vec::new();
    let mut cancelled = 0usize;
    for (seed, r) in &diff {
        match r {
            Err(e) => failures.push(format!("seed {seed}: {e}")),
            Ok(verdicts) => {
                for (sys, v) in verdicts {
                    if matches!(v, Verdict::TimedOut(c) if c.contains("cancelled")) {
                        cancelled += 1;
                    } else if !v.is_agree() {
                        findings.push(DiffFinding {
                            seed: *seed,
                            system: *sys,
                            verdict: v.clone(),
                        });
                    }
                }
            }
        }
    }
    println!(
        "  differential: {} seeds x {} systems, {} disagreement(s)",
        opts.seeds,
        System::ALL.len(),
        findings.len()
    );

    // Shrink each disagreeing seed (serially — shrinking must be
    // deterministic and is rare) and print a witness.
    let mut witnessed = std::collections::BTreeSet::new();
    for f in &findings {
        println!("  {}: seed {} on {}", f.verdict.describe(), f.seed, f.system.label());
        if !witnessed.insert(f.seed) {
            continue;
        }
        let original = Recipe::generate(f.seed, FUZZ_RECIPE_SIZE);
        let disagrees = |r: &Recipe| {
            let case = r.materialize();
            match oracle(&case) {
                Err(_) => false,
                Ok(ora) => System::ALL.iter().any(|&sys| {
                    let d = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
                    !run_engine(&case, sys, None, d, opts.event_driven, &opts.mem, &ora)
                        .0
                        .is_agree()
                }),
            }
        };
        let shrunk = shrink(&original, disagrees);
        let summary: Vec<String> = findings
            .iter()
            .filter(|g| g.seed == f.seed)
            .map(|g| format!("{}: {}", g.system.label(), g.verdict.describe()))
            .collect();
        let witness = render_witness(f.seed, &original, &shrunk, &summary.join("; "));
        println!("{witness}");
        failures.push(format!("seed {} disagreed unfaulted ({})", f.seed, summary.join("; ")));
    }

    // Sweep 1b: W-bound soundness — the static working-set bounds must
    // dominate the dynamic reuse tracker on every generated program, not
    // just the hand-written suite.
    let wseeds: Vec<(String, u64)> =
        (0..opts.seeds).map(|s| (format!("wbound seed {s}"), s)).collect();
    let wtimed = pool::parallel_map_labeled_timed(opts.jobs, wseeds, |seed| {
        let recipe = Recipe::generate(seed, FUZZ_RECIPE_SIZE);
        (seed, wbound_violation(&recipe, dog(&cancel), opts.event_driven, &opts.mem))
    });
    let wlat = pool::latency_histogram(&wtimed);
    eprintln!("  [wall] w-bound sweep (us/seed): {wlat}");
    campaign_lat.merge(&wlat);
    let wresults: Vec<(u64, Option<String>)> = wtimed.into_iter().map(|(r, _)| r).collect();
    let unsound: Vec<(u64, &str)> =
        wresults.iter().filter_map(|(s, v)| v.as_deref().map(|v| (*s, v))).collect();
    println!("  w-bounds: {} seeds, {} unsound static bound(s)", opts.seeds, unsound.len());
    for (seed, why) in unsound {
        let original = Recipe::generate(seed, FUZZ_RECIPE_SIZE);
        let fails = |r: &Recipe| {
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            wbound_violation(r, dog, opts.event_driven, &opts.mem).is_some()
        };
        let shrunk = shrink(&original, fails);
        println!("{}", render_witness(seed, &original, &shrunk, why));
        failures.push(format!("seed {seed}: unsound working-set bound ({why})"));
    }

    // Sweep 1c: shard soundness — the certified shard plan must hold up
    // against the dynamic crossing tracker on every generated program.
    let sseeds: Vec<(String, u64)> =
        (0..opts.seeds).map(|s| (format!("shard seed {s}"), s)).collect();
    let stimed = pool::parallel_map_labeled_timed(opts.jobs, sseeds, |seed| {
        let recipe = Recipe::generate(seed, FUZZ_RECIPE_SIZE);
        (seed, shard_violation(&recipe, dog(&cancel), opts.event_driven, &opts.mem))
    });
    let slat = pool::latency_histogram(&stimed);
    eprintln!("  [wall] shard sweep (us/seed): {slat}");
    campaign_lat.merge(&slat);
    let sresults: Vec<(u64, Option<String>)> = stimed.into_iter().map(|(r, _)| r).collect();
    let broken: Vec<(u64, &str)> =
        sresults.iter().filter_map(|(s, v)| v.as_deref().map(|v| (*s, v))).collect();
    println!("  shard-bounds: {} seeds, {} violated certificate(s)", opts.seeds, broken.len());
    for (seed, why) in broken {
        let original = Recipe::generate(seed, FUZZ_RECIPE_SIZE);
        let fails = |r: &Recipe| {
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            shard_violation(r, dog, opts.event_driven, &opts.mem).is_some()
        };
        let shrunk = shrink(&original, fails);
        println!("{}", render_witness(seed, &original, &shrunk, why));
        failures.push(format!("seed {seed}: violated shard certificate ({why})"));
    }

    // Sweep 2: chaos — every plan class against a rotating fault target.
    // Seeds whose oracle failed in sweep 1 (already reported) are skipped.
    let bad_seeds: std::collections::BTreeSet<u64> =
        diff.iter().filter(|(_, r)| r.is_err()).map(|(s, _)| *s).collect();
    let jobs2: Vec<(String, (u64, FaultKind))> = (0..opts.seeds)
        .filter(|s| !bad_seeds.contains(s))
        .flat_map(|seed| {
            let target = FAULT_TARGETS[(seed % FAULT_TARGETS.len() as u64) as usize];
            template
                .specs
                .iter()
                .filter(move |s| supports(target, s.kind))
                .map(move |s| {
                    (
                        format!("chaos seed {seed} {} on {}", s.kind.label(), target.label()),
                        (seed, s.kind),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let chaos_timed = pool::parallel_map_labeled_timed(opts.jobs, jobs2, |(seed, kind)| {
        let target = FAULT_TARGETS[(seed % FAULT_TARGETS.len() as u64) as usize];
        let case = Recipe::generate(seed, FUZZ_RECIPE_SIZE).materialize();
        let ora = oracle(&case).expect("oracle-failing seeds were filtered out");
        let count = template.specs.iter().find(|s| s.kind == kind).map_or(1, |s| s.count);
        let plan = FaultPlan::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(kind.index() as u64))
            .with(kind, count)
            .between(template.window.0, template.window.1);
        let (verdict, records) =
            run_engine(&case, target, Some(plan), dog(&cancel), opts.event_driven, &opts.mem, &ora);
        ChaosRun { seed, system: target, kind, injected: records.len(), verdict }
    });
    let chaos_lat = pool::latency_histogram(&chaos_timed);
    eprintln!("  [wall] chaos sweep (us/run): {chaos_lat}");
    campaign_lat.merge(&chaos_lat);
    eprintln!("  [wall] campaign total (us/job): {campaign_lat}");
    let chaos: Vec<ChaosRun> = chaos_timed.into_iter().map(|(r, _)| r).collect();

    // Attribute per class.
    println!("  chaos: {} faulted runs across {} classes", chaos.len(), template.specs.len());
    let mut class_fail = Vec::new();
    for spec in &template.specs {
        let kind = spec.kind;
        let runs: Vec<&ChaosRun> = chaos.iter().filter(|r| r.kind == kind).collect();
        let mut n = [0usize; 5]; // detected, absorbed, tolerated, not-struck, misbehaved
        for r in &runs {
            match score(kind, r.injected, &r.verdict) {
                ChaosScore::Detected => n[0] += 1,
                ChaosScore::Absorbed => n[1] += 1,
                ChaosScore::Tolerated => n[2] += 1,
                ChaosScore::NotStruck => n[3] += 1,
                ChaosScore::Misbehaved => n[4] += 1,
            }
        }
        let injected: usize = runs.iter().map(|r| r.injected).sum();
        println!(
            "    {:<10} {injected:>4} injected: {} detected, {} absorbed, {} tolerated, {} unstruck, {} misbehaved",
            kind.label(), n[0], n[1], n[2], n[3], n[4]
        );
        for r in runs
            .iter()
            .filter(|r| matches!(score(kind, r.injected, &r.verdict), ChaosScore::Misbehaved))
        {
            println!(
                "      MISBEHAVED: seed {} on {}: {} ({} injected)",
                r.seed,
                r.system.label(),
                r.verdict.describe(),
                r.injected
            );
        }
        if injected == 0 {
            class_fail.push(format!("class '{}' never injected", kind.label()));
        } else if kind == FaultKind::MemDelay {
            if n[4] > 0 {
                class_fail.push(format!(
                    "mem-delay not absorbed in {} run(s) — engines must be latency-insensitive",
                    n[4]
                ));
            }
        } else if n[0] == 0 {
            // Some classes (dup especially) are detected only ~1-in-5 strikes:
            // the duplicate often lands on an already-consumed port and is
            // merely tolerated. Zero detections in a handful of strikes is a
            // coin flip, not evidence of a broken detection path — only
            // enforce the gate once the sample is large enough to mean it.
            if injected >= DETECT_GATE_MIN_STRIKES {
                class_fail.push(format!(
                    "class '{}' was injected {injected} time(s) but never detected",
                    kind.label()
                ));
            } else {
                println!(
                    "      note: '{}' struck only {injected}x with no detection; \
                     gate needs >= {DETECT_GATE_MIN_STRIKES} strikes (run more seeds)",
                    kind.label()
                );
            }
        }
    }
    failures.extend(class_fail);
    if cancelled > 0 {
        failures.push(format!("sweep cancelled by deadline; {cancelled} run(s) wound down"));
    }

    if failures.is_empty() {
        println!(
            "  fuzz: OK ({} seeds; no unfaulted disagreement, every static W bound sound, \
             every shard certificate held, every fault class attributed)",
            opts.seeds
        );
        Ok(())
    } else {
        Err(format!("fuzz found {} problem(s):\n  {}", failures.len(), failures.join("\n  ")))
    }
}

/// Arms a background thread that cancels `token` after `d`. The thread is
/// detached; it holds only its token clone.
fn spawn_deadline(d: Duration, token: CancelToken) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(d);
        token.cancel();
    })
}

/// Runs one suite kernel on one fault-capable engine under `plan_text`
/// (default `all`) and prints the fault log and classification.
///
/// # Errors
///
/// Returns a message on unknown kernels/engines, bad plan strings, or
/// simulation faults that are not attributable to the injected plan
/// (running chaos with an empty plan on a broken engine).
pub fn chaos(ctx: &Ctx, kernel: &str, engine: &str, plan_text: Option<&str>) -> Result<(), String> {
    let sys = match engine {
        "tyr" => System::Tyr,
        "unordered" => System::Unordered,
        "ordered" => System::Ordered,
        other => {
            return Err(format!(
                "engine '{other}' cannot inject faults (fault-capable: tyr unordered ordered)"
            ))
        }
    };
    let w = by_name(kernel, ctx.scale, ctx.seed)
        .ok_or_else(|| format!("unknown kernel '{kernel}' (known: {})", APP_NAMES.join(" ")))?;
    let text = plan_text.unwrap_or("all");
    let plan = FaultPlan::parse(text, ctx.seed)?;
    println!("== chaos: {kernel} on {}, plan '{text}' (seed {}) ==", sys.label(), ctx.seed);

    // The suite kernels run against their own oracle (`Workload::check`),
    // not the interpreter: chaos wants the production check path.
    let dog = Watchdog::none().with_cycle_budget(ctx.cfg.max_cycles.min(CHAOS_CYCLE_BUDGET));
    let cfg = RunConfig { max_cycles: u64::MAX, ..ctx.cfg.clone() };
    let launch = Launch::of(sys, &cfg, &w.args);
    let res = match armed(launch, Some(plan.clone()), dog).run(&w.program, &w.memory, NoProbe) {
        Err(e @ LaunchError::Lowering(_)) => return Err(e.to_string()),
        other => other,
    };

    match res {
        Err(e) => println!("  outcome: engine error: {e}\n  verdict: fault DETECTED (sanitizer)"),
        Ok(r) => {
            println!("  injected {} fault(s):", r.faults.len());
            for rec in &r.faults {
                println!("    {rec}");
            }
            println!("  outcome: {}", r.outcome);
            let verdict = if r.is_complete() {
                match w.check(r.memory()) {
                    Ok(()) => {
                        if r.faults.is_empty() {
                            "no fault struck; run correct".to_string()
                        } else if plan.specs.iter().all(|s| s.kind == FaultKind::MemDelay) {
                            "fault ABSORBED (latency-insensitive, output correct)".to_string()
                        } else {
                            "fault TOLERATED (struck dead values; output correct)".to_string()
                        }
                    }
                    Err(e) => format!("fault DETECTED (wrong answer: {e})"),
                }
            } else {
                "fault DETECTED (run did not complete)".to_string()
            };
            println!("  verdict: {verdict}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All five engines agree with the oracle on a spread of unfaulted
    /// seeds — the fuzzer's core invariant — in both execution modes.
    #[test]
    fn engines_agree_unfaulted() {
        for seed in 0..8 {
            let case = Recipe::generate(seed, 12).materialize();
            let ora = oracle(&case).expect("oracle runs");
            for sys in System::ALL {
                for event_driven in [true, false] {
                    let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
                    let (v, faults) = run_engine(
                        &case,
                        sys,
                        None,
                        dog,
                        event_driven,
                        &MemConfig::default(),
                        &ora,
                    );
                    assert!(faults.is_empty(), "no plan, no faults");
                    assert!(v.is_agree(), "seed {seed} on {}: {}", sys.label(), v.describe());
                }
            }
        }
    }

    /// The static working-set bounds are sound on a spread of generated
    /// programs — the fuzz sweep's W-leg invariant, in miniature.
    #[test]
    fn wbounds_sound_on_generated_programs() {
        for seed in 0..8 {
            let recipe = Recipe::generate(seed, 12);
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            for event_driven in [true, false] {
                let v = wbound_violation(&recipe, dog.clone(), event_driven, &MemConfig::default());
                assert_eq!(v, None, "seed {seed}");
            }
        }
    }

    /// The shard certificates hold on a spread of generated programs — the
    /// fuzz sweep's shard leg invariant, in miniature.
    #[test]
    fn shard_certificates_hold_on_generated_programs() {
        for seed in 0..40 {
            let recipe = Recipe::generate(seed, 12);
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            let v = shard_violation(&recipe, dog, true, &MemConfig::default());
            assert_eq!(v, None, "seed {seed}");
        }
    }

    /// Same seed, same witness bytes — the determinism contract.
    #[test]
    fn witness_is_byte_identical_across_reruns() {
        // A synthetic deterministic predicate: "still contains a store_add
        // anywhere" — stands in for a real disagreement without needing a
        // buggy engine.
        fn has_store(stmts: &[tyr_workloads::gen::RStmt]) -> bool {
            stmts.iter().any(|s| match s {
                tyr_workloads::gen::RStmt::StoreAdd { .. } => true,
                tyr_workloads::gen::RStmt::Loop { body, .. } => has_store(body),
                _ => false,
            })
        }
        let failing = |r: &Recipe| has_store(&r.stmts);
        let (seed, original) = (0..50)
            .map(|s| (s, Recipe::generate(s, 12)))
            .find(|(_, r)| failing(r))
            .expect("some seed in 0..50 contains a store_add");
        let a = shrink(&original, failing);
        let b = shrink(&original, failing);
        assert_eq!(a, b);
        let wa = render_witness(seed, &original, &a, "synthetic");
        let wb = render_witness(seed, &original, &b, "synthetic");
        assert_eq!(wa, wb, "witness must be byte-identical across reruns");
        // And the shrunk recipe is minimal for the predicate: one store_add
        // (possibly wrapped in the loop that held it) survives.
        assert!(a.size() <= 2, "not minimal: {wa}");
    }

    /// Shrinking a known disagreement converges to a minimal failing case.
    #[test]
    fn shrinker_converges_on_known_disagreement() {
        // The "disagreement" predicate: TYR under a token-drop plan fails
        // to match the oracle (drop starves a consumer -> deadlock/wrong
        // answer). Find a seed where the drop actually strikes and is
        // detected, then shrink under that predicate.
        let drop_fails = |r: &Recipe| {
            let case = r.materialize();
            let Ok(ora) = oracle(&case) else { return false };
            let plan = FaultPlan::single(99, FaultKind::TokenDrop);
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            let (v, faults) =
                run_engine(&case, System::Tyr, Some(plan), dog, true, &MemConfig::default(), &ora);
            !faults.is_empty() && !v.is_agree()
        };
        let seed = (0..32)
            .map(|s| Recipe::generate(s, 12))
            .find(|r| drop_fails(r))
            .expect("some seed in 0..32 has a detectable token drop");
        let shrunk = shrink(&seed, drop_fails);
        assert!(drop_fails(&shrunk), "shrunk witness still fails");
        assert!(shrunk.size() <= seed.size());
        // Deterministic: shrinking twice gives the same witness.
        assert_eq!(shrunk, shrink(&seed, drop_fails));
    }

    /// Probe parity: the fault log length equals the injected count seen by
    /// a counting probe (checked engine-side; here we assert the log is
    /// nonempty for a plan that must strike and that records are ordered).
    #[test]
    fn fault_log_is_cycle_ordered() {
        for seed in 0..16 {
            let case = Recipe::generate(seed, 12).materialize();
            let ora = oracle(&case).expect("oracle runs");
            let plan = FaultPlan::new(seed).with(FaultKind::TokenCorrupt, 3);
            let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
            let (_, faults) = run_engine(
                &case,
                System::Unordered,
                Some(plan),
                dog,
                true,
                &MemConfig::default(),
                &ora,
            );
            for w in faults.windows(2) {
                assert!(w[0].cycle <= w[1].cycle, "fault log out of order");
            }
        }
    }

    /// A bounded-global run that wedges on tag starvation is normally
    /// reported as a deadlock once the machine quiesces; with a cycle
    /// budget below the quiescence point the watchdog fires first and the
    /// run is attributed as `TimedOut` instead of wedging the sweep. The
    /// attributed cycle must be identical whether the engine ticks through
    /// the quiescent spin or jumps over it.
    #[test]
    fn watchdog_times_out_a_wedged_bounded_global_run() {
        use tyr_sim::TimeoutCause;
        use tyr_workloads::dmv;

        let w = dmv::build(4, 4, 1);
        let lw = crate::LoweredWorkload::new(&w);
        let run = |watchdog: Watchdog, event_driven: bool| {
            let policy = tyr_sim::tagged::TagPolicy::GlobalBounded { tags: 2 };
            let cfg = fuzz_config(event_driven, &MemConfig::default());
            let c = TaggedConfig { watchdog, ..cfg.tagged(policy, &w.args) };
            TaggedEngine::new(&lw.tyr, w.memory.clone(), c).run().unwrap()
        };
        let free = run(Watchdog::none(), true);
        let ticked_free = run(Watchdog::none(), false);
        assert_eq!(free.outcome, ticked_free.outcome, "wedge attribution differs across modes");
        let Outcome::Deadlock { cycle, .. } = free.outcome else {
            panic!("expected the 2-tag bounded pool to wedge, got {:?}", free.outcome);
        };
        assert!(cycle > 1, "wedge must take more than one cycle");
        for event_driven in [true, false] {
            let timed = run(Watchdog::none().with_cycle_budget(cycle - 1), event_driven);
            match timed.outcome {
                Outcome::TimedOut {
                    cause: TimeoutCause::CycleBudget { budget },
                    cycle: at,
                    ..
                } => {
                    assert_eq!(budget, cycle - 1, "event_driven={event_driven}");
                    assert_eq!(at, cycle - 1, "budget must trip at its own cycle in both modes");
                }
                other => panic!("expected TimedOut(CycleBudget), got {other:?}"),
            }
        }
    }

    /// Recipe seed 10703 (found by the benchmark's input scan) lowers to a
    /// `root.barrier` join with more than 48 wired inputs. The tagged engine
    /// used to `assert!` on it at construction, aborting a whole sweep; now
    /// `run` returns the typed error, so the fuzz sweep and translation
    /// validation each report it as a named failing case.
    #[test]
    fn over_wide_join_is_a_named_engine_error_not_a_panic() {
        let case = Recipe::generate(10703, FUZZ_RECIPE_SIZE).materialize();
        let dfg = lower_tagged(&case.program, TaggingDiscipline::Tyr).unwrap();
        let count = dfg.max_wired_inputs();
        assert!(count > 48, "seed 10703 no longer generates the over-wide join ({count})");

        let ora = oracle(&case).unwrap();
        let dog = Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
        let mem = MemConfig::default();
        let (v, _) = run_engine(&case, System::Tyr, None, dog, true, &mem, &ora);
        let want = tyr_sim::SimError::TooManyInputs { count }.to_string();
        assert_eq!(v, Verdict::EngineError(want));

        let tv =
            tyr_verify::validate_translations("s10703", &case.program, &case.memory, &case.args);
        let faults: Vec<_> =
            tv.diags.iter().filter(|d| d.message.contains("wired inputs")).collect();
        assert_eq!(faults.len(), 2, "both TYR tag configurations report it: {:?}", tv.diags);
    }

    /// Every injected fault is emitted as a probe event: the count of
    /// `FaultInjected` events seen by a probe equals the length of the
    /// run's fault log.
    #[test]
    fn probe_fault_events_match_the_run_log() {
        use tyr_sim::{Probe, ProbeEvent};

        #[derive(Default)]
        struct FaultCounter {
            injected: usize,
        }
        impl Probe for FaultCounter {
            fn event(&mut self, _cycle: u64, ev: ProbeEvent) {
                if matches!(ev, ProbeEvent::FaultInjected { .. }) {
                    self.injected += 1;
                }
            }
        }

        let mut total = 0usize;
        for seed in [0u64, 7, 13, 29] {
            let case = Recipe::generate(seed, FUZZ_RECIPE_SIZE).materialize();
            let dfg = lower_tagged(&case.program, TaggingDiscipline::Tyr).unwrap();
            // Delay + stick only: both leave the run attributable (absorbed
            // or timed out) rather than erroring, so the fault log is
            // always reachable.
            let plan =
                FaultPlan::new(seed).with(FaultKind::MemDelay, 3).with(FaultKind::NodeStick, 1);
            let cfg = fuzz_config(true, &MemConfig::default());
            let c = TaggedConfig {
                faults: Some(plan),
                watchdog: Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET),
                ..cfg.tagged(cfg.tyr_policy(), &case.args)
            };
            let mut counter = FaultCounter::default();
            let r = TaggedEngine::with_probe(&dfg, case.memory.clone(), c, &mut counter)
                .run()
                .expect("delay/stick faults never produce a hard error");
            assert_eq!(
                counter.injected,
                r.faults.len(),
                "seed {seed}: probe saw {} FaultInjected events, log has {}",
                counter.injected,
                r.faults.len()
            );
            total += r.faults.len();
        }
        assert!(total > 0, "the sweep must inject at least one fault");
    }
}
