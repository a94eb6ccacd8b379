#!/bin/sh
# Offline gate for the benchmark crate: formatting, lints, unit tests, and a
# smoke run of every workload with the traced pass (tiny inputs, one pass).
# Run from anywhere; builds into the crate's own target directory unless
# CARGO_TARGET_DIR says otherwise.
set -eu
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
cargo run --offline --release -q -- --smoke --trace
# The comparator must call a run identical to itself.
cargo run --offline --release -q -- compare out/results.json out/results.json
