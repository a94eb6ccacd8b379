//! The harness launch path's contract: every `RunConfig` field and CLI flag
//! reaches every engine it names, through the one `RunConfig` -> engine
//! config conversion, and malformed flags are usage errors, not panics.

use std::process::Command;

use tyr_bench::{run_system, Launch, LoweredWorkload, RunConfig, System};
use tyr_dfg::lower::TaggingDiscipline;
use tyr_sim::tagged::TagPolicy;
use tyr_sim::MemConfig;
use tyr_workloads::{by_name, Scale};

#[test]
fn every_run_config_field_reaches_every_engine_config() {
    let cfg = RunConfig {
        issue_width: 7,
        tags: 5,
        tag_overrides: vec![("dmv_outer".to_string(), 3)],
        queue_depth: 9,
        mem: MemConfig::ideal(33),
        max_cycles: 1000,
        event_driven: false,
    };
    // Exhaustive on purpose: a new `RunConfig` field fails to compile here
    // until this test says which engine configs must observe it.
    let RunConfig { issue_width, tags, tag_overrides, queue_depth, mem, max_cycles, event_driven } =
        RunConfig::default();
    assert_ne!(issue_width, cfg.issue_width);
    assert_ne!(tags, cfg.tags);
    assert_ne!(tag_overrides, cfg.tag_overrides);
    assert_ne!(queue_depth, cfg.queue_depth);
    assert_ne!(mem, cfg.mem);
    assert_ne!(max_cycles, cfg.max_cycles);
    assert_ne!(event_driven, cfg.event_driven);

    let args = [11, 22];
    let launch = |engine: &str| Launch::named(engine, &cfg, &args).expect("known engine");
    let local = TagPolicy::local_with(5, vec![("dmv_outer".to_string(), 3)]);
    for (engine, discipline, policy) in [
        ("tyr", TaggingDiscipline::Tyr, local),
        ("unordered", TaggingDiscipline::UnorderedUnbounded, TagPolicy::GlobalUnbounded),
        (
            "tagged-global-bounded",
            TaggingDiscipline::Tyr,
            TagPolicy::GlobalBounded { tags: tyr_bench::trace::BOUNDED_POOL },
        ),
    ] {
        let Launch::Tagged(d, c) = launch(engine) else { panic!("{engine} is a tagged engine") };
        assert_eq!(d, discipline, "{engine}");
        assert_eq!(c.tag_policy, policy, "{engine}");
        assert_eq!((c.issue_width, c.max_cycles, c.event_driven), (7, 1000, false), "{engine}");
        assert_eq!((c.mem, c.args), (cfg.mem.clone(), args.to_vec()), "{engine}");
    }
    let Launch::Ordered(c) = launch("ordered") else { panic!("ordered") };
    assert_eq!((c.issue_width, c.queue_depth, c.event_driven), (7, 9, false));
    assert_eq!((c.max_cycles, c.mem, c.args), (16_000, cfg.mem.clone(), args.to_vec()));
    let Launch::SeqDf(c) = launch("seqdf") else { panic!("seqdf") };
    assert_eq!((c.issue_width, c.max_cycles), (7, 16_000));
    assert_eq!((c.mem, c.args), (cfg.mem.clone(), args.to_vec()));
    let Launch::SeqVn(c) = launch("seqvn") else { panic!("seqvn") };
    assert_eq!((c.max_cycles, c.mem, c.args), (64_000, cfg.mem.clone(), args.to_vec()));
    let Launch::Ooo(c) = launch("ooo") else { panic!("ooo") };
    assert_eq!((c.max_instrs, c.mem, c.args), (64_000, cfg.mem.clone(), args.to_vec()));
    assert!(Launch::named("no-such-engine", &cfg, &args).is_none());
}

#[test]
fn an_unlimited_budget_saturates_instead_of_wrapping() {
    let cfg = RunConfig { max_cycles: u64::MAX, ..RunConfig::default() };
    assert_eq!(cfg.tagged(TagPolicy::GlobalUnbounded, &[]).max_cycles, u64::MAX);
    assert_eq!(cfg.ordered(&[]).max_cycles, u64::MAX);
    assert_eq!(cfg.seqdf(&[]).max_cycles, u64::MAX);
    assert_eq!(cfg.seqvn(&[]).max_cycles, u64::MAX);
    assert_eq!(cfg.ooo(&[]).max_instrs, u64::MAX);
    // A wrapped budget would be tiny and trip the cycle limit at once.
    let w = by_name("dmv", Scale::Tiny, 1).unwrap();
    for sys in System::ALL {
        assert!(run_system(&w, sys, &cfg).is_complete(), "{}", sys.label());
    }
}

#[test]
fn lowered_workloads_honour_the_memory_model_and_the_execution_mode() {
    let w = by_name("dmv", Scale::Tiny, 1).unwrap();
    let run = |latency: u64, event_driven: bool| {
        let cfg =
            RunConfig { mem: MemConfig::ideal(latency), event_driven, ..RunConfig::default() };
        let lw = LoweredWorkload::with_config(&w, &cfg);
        (lw.run_tyr(TagPolicy::local(4), 128), lw.run_unordered(TagPolicy::GlobalUnbounded, 128))
    };
    let (fast_tyr, fast_un) = run(1, true);
    let (slow_tyr, slow_un) = run(200, true);
    let (ticked_tyr, ticked_un) = run(200, false);
    for (what, fast, slow, ticked) in [
        ("run_tyr", fast_tyr, slow_tyr, ticked_tyr),
        ("run_unordered", fast_un, slow_un, ticked_un),
    ] {
        assert!(slow.cycles() > fast.cycles(), "{what}: ideal:200 must cost cycles");
        assert!(slow.skipped_cycles > 0, "{what}: the event core skips the idle gaps");
        assert_eq!(ticked.cycles(), slow.cycles(), "{what}: ticked and event-driven agree");
        assert_eq!(ticked.skipped_cycles, 0, "{what}: a ticked run never skips");
    }
}

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

#[test]
fn malformed_numeric_flags_are_usage_errors_not_panics() {
    for flag in [
        "--seed",
        "--width",
        "--tags",
        "--queue",
        "--mem-latency",
        "--jobs",
        "--seeds",
        "--shards",
        "--deadline-secs",
        "--window",
    ] {
        let out = repro(&[flag, "x", "fig2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(&format!("invalid value 'x' for {flag}")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}

#[test]
fn a_baseline_passes_its_own_check_and_names_a_drifted_cell() {
    // `--queue` and `--mem` move the dataflow cells, so the check must take
    // them from the file's header, not from its own command line.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_queue2_lat200.json");
    let file = path.to_str().unwrap();
    let out =
        repro(&["--scale", "tiny", "--queue", "2", "--mem", "ideal:200", "bench", "--out", file]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"queue_depth\":2,") && text.contains("\"mem\":\"ideal:200\""),
        "{text}"
    );
    let out = repro(&["bench-check", file]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // One count edited: exit 1, naming exactly that cell.
    let drifted = text.replacen("\"dyn_instrs\":", "\"dyn_instrs\":1", 1);
    std::fs::write(&path, drifted).unwrap();
    let out = repro(&["bench-check", file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches(": recorded [").count(), 1, "{stderr}");
    assert!(stderr.contains("dmv on seq-vN: recorded ["), "{stderr}");
}

#[test]
fn fig9_observes_mem_and_ticked() {
    let fig9 = |flags: &[&str]| {
        let out = repro(&[&["--scale", "tiny"], flags, &["fig9"]].concat());
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let slow = fig9(&["--mem", "ideal:200"]);
    assert_ne!(fig9(&[]), slow, "--mem must reach the LoweredWorkload figures");
    assert_eq!(fig9(&["--mem", "ideal:200", "--ticked"]), slow, "--ticked is bit-identical");
}
