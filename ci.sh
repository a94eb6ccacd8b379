#!/bin/sh
# Offline-safe CI gate: formatting, lints, docs, build, tests, the static
# verifier, the probe/trace and perf-baseline gates, and the differential
# fuzzer smoke sweep. Everything runs with --offline — the workspace has no
# external dependencies by design (DESIGN.md §8).
set -eux

cargo fmt --all --check
# The memory model lives behind `MemPort` (crates/sim/src/mem.rs); an engine
# that names the cache simulator again has grown a private copy of the port.
if (cd crates/sim/src && grep -l CacheSim tagged.rs ordered.rs seqdf.rs seqvn.rs ooo.rs); then exit 1; fi
# The tagged engine is generic over `store::Rows` and picks dense or sparse
# rows once per run (DESIGN.md §7.9); naming a per-token representation
# enum again would bring back the match on every token.
if grep -n TokenStore crates/sim/src/tagged.rs; then exit 1; fi
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc is part of the product: every public item is documented
# (`#![warn(missing_docs)]` on every crate) and broken intra-doc links or
# missing docs fail the build here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
cargo build --offline --workspace --release
cargo test --offline --workspace -q
# The no-tree pin, by name and optimized, so no filter can drop it:
# `ChromeTrace::validate` may allocate under 64 KiB on a 12 MB trace.
cargo test --offline --release -q -p tyr-stats --test validate_alloc
# The token store and the event queue against their reference models
# (DESIGN.md §7.9, §7.3), likewise by name and optimized.
cargo test --offline --release -q -p tyr-sim --lib -- --exact \
  store::tests::dense_store_matches_the_reference_model \
  store::tests::sparse_store_matches_the_reference_model \
  event::tests::ring_matches_a_sorted_vec_reference
# The pinned benchmark crate must keep building against the harness API, and
# its parity check compares the public launch calls (`run_system`,
# `LoweredWorkload`, `run_probed`, `fuzz::run_engine`) with the same runs
# sequenced by hand, cell for cell.
sh benchmarks/check.sh
# The full static-analysis + translation-validation battery over the suite
# (tiny scale keeps the gate fast), including the Fig. 11 and ordered-FIFO
# static-vs-dynamic cross-validations; exits nonzero on any diagnostic
# error or cross-validation disagreement.
target/release/repro --scale tiny verify
# Probe-layer gate: run `repro trace` on one kernel per engine family and
# validate the emitted Chrome-trace JSON — the subcommand itself exits
# nonzero unless the file parses and contains at least one event of every
# taxonomy kind that engine is specified to emit (DESIGN.md §6).
trace_dir=$(mktemp -d)
for engine in tyr tagged-global-bounded ordered seqdf seqvn ooo; do
  target/release/repro --scale tiny --out "$trace_dir/dmv_$engine.json" \
    trace dmv "$engine"
done
# The tiny documents are under 1 MB; this one is 96 MB — the size at which
# the validator's speed and memory decide what the command costs.
target/release/repro --scale small --out "$trace_dir/tc_tyr.json" trace tc tyr
rm -rf "$trace_dir"
# Timeline gate (DESIGN.md §6): run `repro timeline` on one kernel per
# engine family — each run attaches the cycle-windowed sink plus the JSONL
# stream probe, re-parses the emitted tyr-events/v1 document, and exits
# nonzero unless its record count matches the independent counting probe
# riding the same run. The tagged-global-bounded row is the Fig. 11 wedge:
# it must exit 0 with the tail attributed to open tag-starved stalls.
timeline_dir=$(mktemp -d)
for engine in tyr tagged-global-bounded ordered seqdf seqvn ooo; do
  target/release/repro --scale tiny --out "$timeline_dir/tl_dmv_$engine.csv" \
    timeline dmv "$engine" --events "$timeline_dir/ev_dmv_$engine.jsonl"
done
rm -rf "$timeline_dir"
# Working-set gate (DESIGN.md §5.1): run `repro locality` on one kernel
# per engine family — each run attaches the MemAccess-fed reuse tracker,
# checks probe parity against the engine's load/store counters, and exits
# nonzero if any static W-pass bound falls below the dynamic observation.
# (The suite-wide static-vs-dynamic working-set matrix runs inside
# `repro verify` above; the fuzz sweep below adds the generated-program
# soundness leg.)
for engine in tyr ordered seqdf seqvn ooo; do
  target/release/repro --scale tiny locality dmv "$engine"
done
# Cache-model gate (DESIGN.md §7.8): one cached-memory smoke run per engine
# family. Each must complete, match its oracle, and report cache stats
# (`run_system` panics otherwise); the tight geometry guarantees real
# misses so the hierarchy, MSHR table, and event-queue miss path are all
# exercised. The same `locality` run cross-checks the static W002 line
# bound against the distinct lines the reuse tracker observed *under the
# cached model* — a static bound below the observation exits nonzero.
for engine in tyr ordered seqdf seqvn ooo; do
  target/release/repro --scale tiny --mem cached:l1=512,l2=4k,mshr=4 \
    locality dmv "$engine"
done
# With 1-cycle L1 hits a hit issued behind a miss is ready first; the
# ordered engine must still deliver each load node's results in issue order
# (a reordered response lands in the wrong iteration and fails the oracle).
target/release/repro --scale tiny --mem cached:l1=512,l2=4k,mshr=4,lat1=1 \
  locality dmv ordered
# Shard gate (DESIGN.md §5.2): run `repro shard` on one kernel per engine
# family that has a graph to cut — each run certifies a 4-shard plan
# (P001-P004), attaches the crossing tracker, and exits nonzero on a
# P-error, an observed boundary peak above its static bound, or a runtime
# cross-shard conflict contradicting a proven-disjoint claim. (The
# suite-wide matrix runs inside `repro verify`; the fuzz sweep adds the
# generated-program certificate leg.)
for engine in tyr tagged-global-bounded unordered ordered; do
  target/release/repro --scale tiny shard dmv "$engine" --shards 4
done
# Perf-baseline gate (DESIGN.md §7.5): `BENCH_suite.json` holds simulated
# counts only, so it is a pure function of its header. A tiny-scale baseline
# written on one worker and on two must be the same bytes; `bench-check`
# re-runs a file's cells under the parameters its header records and exits
# nonzero unless the file is byte-for-byte what `bench` writes, naming every
# drifted, missing, duplicate or unknown cell. It runs on the fresh file and
# on the committed one, so an engine change that claims to move only host
# time is held to it. A hostile file is a typed error, not a stack overflow:
# two million `[` must exit 1 naming the reader's nesting limit.
bench_dir=$(mktemp -d)
target/release/repro --scale tiny --jobs 1 bench --out "$bench_dir/jobs1.json"
target/release/repro --scale tiny --jobs 2 bench --out "$bench_dir/jobs2.json"
cmp "$bench_dir/jobs1.json" "$bench_dir/jobs2.json"
target/release/repro bench-check "$bench_dir/jobs2.json"
target/release/repro bench-check BENCH_suite.json
head -c 2000000 /dev/zero | tr '\0' '[' > "$bench_dir/deep.json"
deep_rc=0
target/release/repro bench-check "$bench_dir/deep.json" 2> "$bench_dir/deep.err" || deep_rc=$?
[ "$deep_rc" -eq 1 ]
grep -q 'nesting deeper than 128' "$bench_dir/deep.err"
rm -rf "$bench_dir"
# Robustness gate (DESIGN.md §9): 25-seed differential + chaos smoke sweep.
# Exits nonzero on any cross-engine disagreement (shrunk witness printed),
# any never-injected or never-detected fault class, or a mem-delay that
# was not absorbed; output is byte-identical for any --jobs. (The sweep
# itself runs inside the event-core gate below, which diffs its report
# between execution modes — a failed sweep fails the gate the same way.)
# Event-core identity gate (DESIGN.md §7.7): the event-driven core must be
# observationally identical to ticked execution. fig12's rendered table
# (cycles/dyn_instrs/speedups) and the fuzz report (all verdicts across a
# 25-seed differential + chaos campaign) are diffed byte-for-byte between
# the two modes; stderr carries the only wall-clock content, so stdout
# must not differ by a single byte.
event_dir=$(mktemp -d)
target/release/repro --scale tiny --jobs 2 fig12 > "$event_dir/fig12_event.txt"
target/release/repro --scale tiny --jobs 2 --ticked fig12 > "$event_dir/fig12_ticked.txt"
diff "$event_dir/fig12_event.txt" "$event_dir/fig12_ticked.txt"
# The same pair at width 2, FIFO depth 2 and latency 200: the only gate
# where the issue width actually cuts the ordered engine's ready list (in
# node-index order) while most cycles are idle jumps.
narrow="--scale tiny --jobs 2 --width 2 --queue 2 --mem ideal:200"
target/release/repro $narrow fig12 > "$event_dir/fig12_narrow_event.txt"
target/release/repro $narrow --ticked fig12 > "$event_dir/fig12_narrow_ticked.txt"
diff "$event_dir/fig12_narrow_event.txt" "$event_dir/fig12_narrow_ticked.txt"
target/release/repro fuzz --quick --jobs 2 > "$event_dir/fuzz_event.txt"
target/release/repro --ticked fuzz --quick --jobs 2 > "$event_dir/fuzz_ticked.txt"
diff "$event_dir/fuzz_event.txt" "$event_dir/fuzz_ticked.txt"
rm -rf "$event_dir"
# Cached-memory fuzz sweep (DESIGN.md §7.8): 10 generated programs run on
# all five engines under the two-level cache model. The differential oracle
# compares memory images and returns, so this is the machine-checked form
# of the invariance claim — the cache shapes timing, never values.
target/release/repro --mem cached:l1=512,l2=4k,mshr=4 fuzz --seeds 10 --jobs 2
