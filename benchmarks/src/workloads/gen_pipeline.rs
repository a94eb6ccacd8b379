//! `gen_pipeline`: thousands of sub-millisecond programs through the whole
//! tool chain — IR validation, the interpreter oracle, all three lowerings,
//! the static verifier, translation validation, shard planning, and all
//! five engines the way `repro fuzz` configures them — plus four source
//! kernels (`kernels/*.tyr`) that start at `lang::compile`. Front end,
//! lowering, verifier and engine *construction* dominate and the
//! steady-state engine loop does little: the opposite mix from `suite_*`,
//! so an engine optimisation that buys loop speed with set-up cost shows
//! here.
//!
//! `fuzz::run_engine` returns only a verdict, so the timed passes run the
//! engines through the same hand-sequenced path as the traced pass (with
//! spans off); the traced run then checks every program against the public
//! `run_engine` call, which must agree.

use tyr_bench::fuzz::{self, OracleResult, FUZZ_CYCLE_BUDGET, FUZZ_SHARDS, FUZZ_SHARD_SEED};
use tyr_bench::System;
use tyr_dfg::lower::{lower_tagged, TaggingDiscipline};
use tyr_ir::{interp, validate::validate, ArrayRef, MemoryImage, Program, Value};
use tyr_sim::ordered::ChannelCapacity;
use tyr_sim::tagged::TagPolicy;
use tyr_sim::{MemConfig, NoProbe, Watchdog};
use tyr_verify::{validate_translations, verify_ordered, verify_shards, verify_with, Report};
use tyr_workloads::gen::{self, GenCase, Recipe};
use tyr_workloads::oracle;

use crate::cell::{fnv_words, CellSpec, Digest, Expect};
use crate::engines::{
    lower_ordered_counted, lower_tagged_counted, split_run, Graph, Machine, Params,
};
use crate::harness::{Bench, Layers, Opts, Setup, Size, TraceCtx};
use crate::host;
use crate::metrics::WorkloadResult;
use crate::span::Tracer;

/// Top-level statements per generated program (`repro fuzz`'s size).
const RECIPE_SIZE: usize = fuzz::FUZZ_RECIPE_SIZE;
/// What `fuzz::run_engine` hard-codes.
const ISSUE_WIDTH: usize = 64;
const LOCAL_TAGS: usize = 64;
const QUEUE_DEPTH: usize = 4;

/// A source kernel with inputs generated from a seed.
struct SourceCase {
    src: &'static str,
    consts: Vec<(&'static str, i64)>,
    memory: MemoryImage,
    out: ArrayRef,
    expected: Vec<Value>,
}

/// One program of the workload.
enum Item {
    Recipe(GenCase),
    Source(SourceCase),
}

struct Inputs {
    recipe_seeds: Vec<u64>,
    items: Vec<Item>,
    cells: Vec<CellSpec>,
}

const DMV: &str = include_str!("../../kernels/dmv.tyr");
const DMM: &str = include_str!("../../kernels/dmm.tyr");
const SPMSPM: &str = include_str!("../../kernels/spmspm.tyr");
const TC: &str = include_str!("../../kernels/tc.tyr");
const SOURCE_KERNELS: [&str; 4] = ["dmv", "dmm", "spmspm", "tc"];

fn source_case(kernel: &str, seed: u64) -> SourceCase {
    let mut memory = MemoryImage::new();
    match kernel {
        "dmv" => {
            let (m, n) = (12, 10);
            let a = gen::dense_matrix(seed, m, n);
            let x = gen::dense_vector(seed.wrapping_add(1), n);
            let ar = memory.alloc_init("A", &a);
            let xr = memory.alloc_init("x", &x);
            let out = memory.alloc("y", m);
            let consts = vec![
                ("M", m as i64),
                ("N", n as i64),
                ("A", ar.base_const()),
                ("X", xr.base_const()),
                ("Y", out.base_const()),
            ];
            SourceCase { src: DMV, consts, memory, out, expected: oracle::dmv(&a, &x, m, n) }
        }
        "dmm" => {
            let n = 6;
            let a = gen::dense_matrix(seed, n, n);
            let b = gen::dense_matrix(seed.wrapping_add(1), n, n);
            let ar = memory.alloc_init("A", &a);
            let br = memory.alloc_init("B", &b);
            let out = memory.alloc("C", n * n);
            let consts = vec![
                ("N", n as i64),
                ("A", ar.base_const()),
                ("B", br.base_const()),
                ("C", out.base_const()),
            ];
            SourceCase { src: DMM, consts, memory, out, expected: oracle::dmm(&a, &b, n) }
        }
        "spmspm" => {
            let n = 12;
            let a = gen::random_csr(seed, n, n, 20);
            let b = gen::random_csr(seed.wrapping_add(1), n, n, 20);
            let pa = memory.alloc_init("ptrA", &a.ptr);
            let ia = memory.alloc_init("idxA", &a.idx);
            let va = memory.alloc_init("valA", &a.vals);
            let pb = memory.alloc_init("ptrB", &b.ptr);
            let ib = memory.alloc_init("idxB", &b.idx);
            let vb = memory.alloc_init("valB", &b.vals);
            let out = memory.alloc("C", n * n);
            let consts = vec![
                ("N", n as i64),
                ("PA", pa.base_const()),
                ("IA", ia.base_const()),
                ("VA", va.base_const()),
                ("PB", pb.base_const()),
                ("IB", ib.base_const()),
                ("VB", vb.base_const()),
                ("C", out.base_const()),
            ];
            SourceCase { src: SPMSPM, consts, memory, out, expected: oracle::spmspm(&a, &b) }
        }
        _ => {
            let g = gen::watts_strogatz_forward(seed, 32, 6, 0.1);
            let ptr = memory.alloc_init("ptr", &g.ptr);
            let adj = memory.alloc_init("adj", &g.idx);
            let out = memory.alloc("count", 1);
            let consts = vec![
                ("N", g.rows as i64),
                ("PTR", ptr.base_const()),
                ("ADJ", adj.base_const()),
                ("CNT", out.base_const()),
            ];
            SourceCase { src: TC, consts, memory, out, expected: vec![oracle::count_triangles(&g)] }
        }
    }
}

/// `(generated programs, repeats of each source kernel)`.
fn counts(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (1000, 25),
        Size::Smoke => (40, 2),
    }
}

/// The tagged engine's documented limit on wired inputs per node
/// (`TaggedEngine::new` panics beyond it). About one size-16 recipe in a
/// thousand lowers to a root barrier wider than this; such recipes are not
/// valid inputs and the workload skips them.
const MAX_WIRED_INPUTS: usize = 48;

/// The first `counts(size).0` recipe seeds from `seed * 10_000` upward whose
/// programs the engines accept. Choosing the inputs is not part of building
/// them: this runs once, outside the set-up timing, so `setup_s` does not
/// time the lowering. Returns the seeds and how many were skipped.
fn accepted_recipe_seeds(size: Size, seed: u64) -> (Vec<u64>, usize) {
    let first = seed * 10_000;
    let seeds: Vec<u64> = (first..)
        .filter(|&s| {
            let case = Recipe::generate(s, RECIPE_SIZE).materialize();
            lower_tagged(&case.program, TaggingDiscipline::Tyr)
                .is_ok_and(|dfg| dfg.max_wired_inputs() <= MAX_WIRED_INPUTS)
        })
        .take(counts(size).0)
        .collect();
    let scanned = seeds.last().map_or(0, |last| last - first + 1) as usize;
    let skipped = scanned - seeds.len();
    (seeds, skipped)
}

/// Generates and materializes the recipes.
fn build_recipes(recipe_seeds: &[u64]) -> Vec<GenCase> {
    recipe_seeds.iter().map(|&s| Recipe::generate(s, RECIPE_SIZE).materialize()).collect()
}

/// Generates every program's inputs from the seed: what is paid before the
/// first pipeline stage runs.
fn build(size: Size, seed: u64, recipe_seeds: &[u64]) -> Inputs {
    let reps = counts(size).1;
    let (mut items, mut cells) = (Vec::new(), Vec::new());
    for (case, recipe_seed) in build_recipes(recipe_seeds).into_iter().zip(recipe_seeds) {
        items.push(Item::Recipe(case));
        cells.push(cell_spec(format!("recipe-{recipe_seed}")));
    }
    for kernel in SOURCE_KERNELS {
        for rep in 0..reps {
            items.push(Item::Source(source_case(kernel, seed * 1_000 + rep)));
            cells.push(cell_spec(format!("{kernel}.tyr#{rep}")));
        }
    }
    Inputs { recipe_seeds: recipe_seeds.to_vec(), items, cells }
}

fn cell_spec(id: String) -> CellSpec {
    CellSpec { id, ops: System::ALL.len() as u64, expect: Expect::Complete, system: "all" }
}

fn fuzz_params() -> Params {
    Params {
        issue_width: ISSUE_WIDTH,
        queue_depth: QUEUE_DEPTH,
        mem: MemConfig::default(),
        max_cycles: u64::MAX,
        check_token_leaks: true,
        watchdog: Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET),
    }
}

/// Error-severity findings fail the program; every finding is counted.
fn clean(report: Report, t: &mut Tracer) -> Result<u64, String> {
    t.add("verify.diagnostics", report.diags.len() as u64);
    if report.is_clean() {
        Ok(report.diags.len() as u64)
    } else {
        Err(report.render())
    }
}

/// The whole tool chain over one program whose inputs are `memory`/`args`
/// and whose result lives in `out`. `expected` is an oracle independent of
/// the interpreter, where there is one.
fn pipeline(
    program: &Program,
    memory: &MemoryImage,
    args: &[Value],
    out: ArrayRef,
    expected: Option<&[Value]>,
    t: &mut Tracer,
) -> Result<Digest, String> {
    t.span("ir.validate", |_| validate(program)).map_err(|e| format!("ir::validate: {e}"))?;

    let mut oracle_mem = memory.clone();
    let oracle = t
        .span("ir.interp", |_| interp::run(program, &mut oracle_mem, args))
        .map_err(|e| format!("interpreter oracle: {e}"))?;
    t.add("ir.interp.instrs", oracle.dyn_instrs);
    // The interpreter is only as good as the compiler that fed it; the
    // plain-Rust oracle of a source kernel is independent of both.
    if expected.is_some_and(|want| oracle_mem.slice(out) != want) {
        return Err("compiled kernel disagrees with the plain-Rust oracle".into());
    }

    let tyr = lower_tagged_counted(program, TaggingDiscipline::Tyr, t)?;
    let unordered = lower_tagged_counted(program, TaggingDiscipline::UnorderedUnbounded, t)?;
    let ordered = lower_ordered_counted(program, t)?;

    let policy = TagPolicy::local(LOCAL_TAGS);
    let inputs = Some((memory, args));
    let mut diagnostics = 0;
    let report = t.span("verify.static", |_| verify_with("tyr", &tyr, Some(&policy), inputs));
    diagnostics += clean(report, t)?;
    let report = t.span("verify.static", |_| verify_with("unordered", &unordered, None, inputs));
    diagnostics += clean(report, t)?;
    let caps = ChannelCapacity::uniform(QUEUE_DEPTH);
    let report = t.span("verify.static", |_| verify_ordered("ordered", &ordered, &caps, inputs));
    diagnostics += clean(report, t)?;
    let report = t.span("verify.tv", |_| validate_translations("program", program, memory, args));
    diagnostics += clean(report, t)?;
    let (_, report) = t.span("verify.shard", |_| {
        verify_shards("tyr", &tyr, FUZZ_SHARDS, FUZZ_SHARD_SEED, None, inputs)
    });
    diagnostics += clean(report, t)?;

    let params = fuzz_params();
    let mut digest = Digest::default();
    for system in System::ALL {
        let machine = match system {
            System::SeqVn => Machine::SeqVn,
            System::SeqDf => Machine::SeqDf,
            System::Ordered => Machine::Ordered { graph: Some(&ordered) },
            System::Unordered => Machine::Tagged {
                graph: Graph::Pre(&unordered),
                policy: TagPolicy::GlobalUnbounded,
            },
            System::Tyr => Machine::Tagged { graph: Graph::Pre(&tyr), policy: policy.clone() },
        };
        let label = system.label();
        let r = split_run(program, memory, args, &machine, &params, NoProbe, t)
            .map_err(|e| format!("{label}: {e}"))?;
        let d = Digest::of(&r, label).map_err(|e| format!("{label}: {e}"))?;
        d.expect(Expect::Complete).map_err(|e| format!("{label}: {e}"))?;
        t.span("workloads.check", |_| {
            if r.returns != oracle.returns {
                return Err(format!(
                    "{label}: returns {:?}, oracle {:?}",
                    r.returns, oracle.returns
                ));
            }
            if r.memory().slice(out) != oracle_mem.slice(out) {
                return Err(format!("{label}: output array differs from the oracle"));
            }
            Ok(())
        })?;
        digest.absorb(&d);
    }
    digest.out_fnv = fnv_words(digest.out_fnv, &oracle.returns);
    digest.out_fnv = fnv_words(digest.out_fnv, &[diagnostics as i64, oracle.dyn_instrs as i64]);
    Ok(digest)
}

impl Inputs {
    fn run(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
        match &self.items[i] {
            Item::Recipe(c) => pipeline(&c.program, &c.memory, &c.args, c.out, None, t),
            Item::Source(c) => {
                let program = compile(c, t)?;
                pipeline(&program, &c.memory, &[], c.out, Some(&c.expected), t)
            }
        }
    }
}

fn compile(case: &SourceCase, t: &mut Tracer) -> Result<Program, String> {
    t.add("lang.source_bytes", case.src.len() as u64);
    t.span("lang.compile", |_| tyr_lang::compile(case.src, &case.consts))
        .map_err(|e| format!("lang::compile: {e}"))
}

impl Bench for Inputs {
    fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    fn run_cell(&self, i: usize) -> (Result<Digest, String>, f64) {
        host::timed(|| self.run(i, &mut Tracer::off()))
    }

    fn trace_cell(&self, i: usize, t: &mut Tracer) -> Result<Digest, String> {
        self.run(i, t)
    }

    fn trace_extras(
        &self,
        _ctx: &TraceCtx<'_>,
        _t: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // Split-path parity against the public call: `fuzz::run_engine`
        // must agree with the oracle on every program × system.
        let dog = || Watchdog::none().with_cycle_budget(FUZZ_CYCLE_BUDGET);
        for (item, spec) in self.items.iter().zip(&self.cells) {
            let compiled;
            let case = match item {
                Item::Recipe(case) => case,
                Item::Source(src) => {
                    compiled = GenCase {
                        program: compile(src, &mut Tracer::off())?,
                        memory: src.memory.clone(),
                        args: Vec::new(),
                        out: src.out,
                    };
                    &compiled
                }
            };
            let oracle: OracleResult = fuzz::oracle(case)?;
            for system in System::ALL {
                let (verdict, _) = fuzz::run_engine(
                    case,
                    system,
                    None,
                    dog(),
                    true,
                    &MemConfig::default(),
                    &oracle,
                );
                if !verdict.is_agree() {
                    return Err(format!(
                        "{}: fuzz::run_engine on {}: {}",
                        spec.id,
                        system.label(),
                        verdict.describe()
                    ));
                }
            }
        }

        let (recipes, secs) = host::timed(|| build_recipes(&self.recipe_seeds));
        layers.set("workloads.gen_us_per_recipe", secs * 1e6 / recipes.len().max(1) as f64);
        Ok(())
    }
}

/// Runs the `gen_pipeline` workload.
pub fn run(name: &str, opts: &Opts) -> (WorkloadResult, Option<String>) {
    let (recipe_seeds, skipped) = accepted_recipe_seeds(opts.size, opts.seed);
    // Not hidden: a skipped recipe is one `TaggedEngine::new` would panic on.
    println!("{name}: skipped {skipped} recipe(s) with more than {MAX_WIRED_INPUTS} wired inputs");
    let setup = Setup::measure(|| build(opts.size, opts.seed, &recipe_seeds));
    let inputs = build(opts.size, opts.seed, &recipe_seeds);
    crate::harness::measure(name, opts, &inputs, &setup)
}
