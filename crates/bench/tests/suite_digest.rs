//! Bit-identity pins for the two dataflow engines that carry the figures:
//! one line per (kernel, engine configuration, memory model) cell carrying
//! every simulated statistic the reproduction reports — final cycle, dynamic
//! instructions, peak live tokens, per-block store peaks, load/store counts,
//! skipped cycles, the final memory image, and the probe event stream
//! (per-kind totals plus an order-sensitive hash). A host-speed change to
//! `crates/sim/src/tagged.rs` or `ordered.rs` must leave the files
//! byte-identical; the snapshots are blessed on the commit *before* such a
//! change and must pass unmodified after it.
//!
//! Both grids are the seven Table II kernels at tiny scale x {`ideal:1`,
//! `ideal:200`, the figure-locality cache geometry}. The tagged grid
//! (`suite_tiny_digest.txt`) runs {TYR with 64 tags, TYR with 2 tags at
//! width 8 (allocate parking on the path), a bounded global pool of 8 on the
//! TYR graph (the Fig. 11 wedge: deadlock cycle, live tokens and pending
//! report), unlimited tags on the unordered graph (the sparse store)}; the
//! ordered grid (`suite_tiny_ordered_digest.txt`) runs the ordered engine at
//! its default FIFO depth. Every cell runs twice — `NoProbe` and probed are
//! separate monomorphizations of the engine — and both must agree.
//!
//! Regenerate with `TYR_BLESS=1 cargo test -p tyr-bench --test suite_digest`
//! and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use tyr_bench::{Launch, LaunchError, RunConfig, System};
use tyr_dfg::lower::TaggingDiscipline;
use tyr_ir::MemoryImage;
use tyr_sim::tagged::{TagPolicy, TaggedConfig};
use tyr_sim::{MemConfig, NoProbe, Outcome, Probe, ProbeEvent, RunResult};
use tyr_stats::probe::EventKind;
use tyr_workloads::{by_name, Scale, Workload, APP_NAMES};

/// Workload seed; must stay fixed or the snapshot changes.
const SEED: u64 = 7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(state: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(state, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

fn fnv_memory(mem: &MemoryImage) -> u64 {
    mem.arrays()
        .fold(FNV_OFFSET, |h, (_, a)| mem.slice(a).iter().fold(h, |h, w| fnv(h, w.to_le_bytes())))
}

/// Counts events per taxonomy kind and hashes the stream in order (cycle
/// and every field of every event).
struct StreamDigest {
    kinds: [u64; EventKind::ALL.len()],
    hash: u64,
}

impl Probe for StreamDigest {
    fn event(&mut self, cycle: u64, ev: ProbeEvent) {
        self.kinds[ev.kind().index()] += 1;
        self.hash = fnv(self.hash, cycle.to_le_bytes());
        self.hash = fnv(self.hash, format!("{ev:?}").bytes());
    }
}

/// The statistics of one finished run, rendered as one line.
fn stats_line(run: &Result<RunResult, LaunchError>) -> String {
    let r = match run {
        Ok(r) => r,
        Err(e) => return format!("error: {e}"),
    };
    let mut s = String::new();
    match &r.outcome {
        Outcome::Deadlock { live_tokens, pending_allocates, .. } => {
            write!(s, "DEADLOCK live={live_tokens} pending=[{}] ", pending_allocates.join("; "))
        }
        _ => write!(s, "{} ", if r.is_complete() { "done" } else { "TIMEOUT" }),
    }
    .unwrap();
    let peaks: Vec<String> = r.store_peaks.iter().map(|(b, p)| format!("{b}={p}")).collect();
    write!(
        s,
        "cycle={} instrs={} peak_live={} ld/st={}/{} skipped={} mem={:016x} returns={:?} \
         peaks=[{}]",
        r.final_cycle(),
        r.dyn_instrs(),
        r.peak_live(),
        r.mem_loads,
        r.mem_stores,
        r.skipped_cycles,
        fnv_memory(r.memory()),
        r.returns,
        peaks.join(",")
    )
    .unwrap();
    s
}

/// Runs `launch` on `w` unprobed and probed, checks the oracle and that the
/// two agree, and renders the cell's digest: its stats line, per-kind event
/// totals and stream hash.
fn digest(cell: &str, w: &Workload, launch: Launch) -> String {
    let bare = launch.clone().run(&w.program, &w.memory, NoProbe);
    if let Ok(r) = &bare {
        if r.is_complete() {
            w.check(r.memory()).unwrap_or_else(|e| panic!("{cell}: {e}"));
        }
    }
    let mut sink = StreamDigest { kinds: [0; EventKind::ALL.len()], hash: FNV_OFFSET };
    let probed = launch.run(&w.program, &w.memory, &mut sink);
    let stats = stats_line(&bare);
    assert_eq!(stats, stats_line(&probed), "{cell}: probed and unprobed runs disagree");
    let kinds: Vec<String> = EventKind::ALL
        .iter()
        .zip(sink.kinds)
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{}={n}", k.name()))
        .collect();
    format!("{cell}: {stats} events=[{}] stream={:016x}", kinds.join(","), sink.hash)
}

/// Compares `out` with the golden file `name`, or rewrites it under
/// `TYR_BLESS`.
fn check_golden(name: &str, out: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::write(&path, out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", path.display())
    });
    for (got, want) in out.lines().zip(expected.lines()) {
        assert_eq!(got, want, "digest drifted from its golden snapshot {name}");
    }
    assert_eq!(out.lines().count(), expected.lines().count(), "{name}: digest cell count changed");
}

const MEMS: [&str; 3] = ["ideal:1", "ideal:200", "cached:l1=4k,l2=64k,mshr=8"];

fn config(mem: &str) -> RunConfig {
    RunConfig { mem: MemConfig::parse(mem).unwrap(), ..RunConfig::default() }
}

#[test]
fn tagged_engine_statistics_match_the_blessed_digest() {
    let policies: [(&str, TaggingDiscipline, TagPolicy, usize); 4] = [
        ("tyr64", TaggingDiscipline::Tyr, TagPolicy::local(64), 128),
        ("tyr2w8", TaggingDiscipline::Tyr, TagPolicy::local(2), 8),
        ("global8", TaggingDiscipline::Tyr, TagPolicy::GlobalBounded { tags: 8 }, 128),
        ("unordered", TaggingDiscipline::UnorderedUnbounded, TagPolicy::GlobalUnbounded, 128),
    ];
    let mut out = String::new();
    for kernel in APP_NAMES {
        let w = by_name(kernel, Scale::Tiny, SEED).unwrap();
        for (name, discipline, policy, width) in &policies {
            for mem in MEMS {
                let cfg = config(mem).tagged(policy.clone(), &w.args);
                let launch =
                    Launch::Tagged(*discipline, TaggedConfig { issue_width: *width, ..cfg });
                writeln!(out, "{}", digest(&format!("{kernel} {name} {mem}"), &w, launch)).unwrap();
            }
        }
    }
    check_golden("suite_tiny_digest.txt", &out);
}

#[test]
fn ordered_engine_statistics_match_the_blessed_digest() {
    let mut out = String::new();
    for kernel in APP_NAMES {
        let w = by_name(kernel, Scale::Tiny, SEED).unwrap();
        for mem in MEMS {
            let launch = Launch::of(System::Ordered, &config(mem), &w.args);
            writeln!(out, "{}", digest(&format!("{kernel} ordered {mem}"), &w, launch)).unwrap();
        }
    }
    check_golden("suite_tiny_ordered_digest.txt", &out);
}
