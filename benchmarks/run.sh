#!/usr/bin/env bash
# Builds the benchmark and runs it.  Every argument goes to the harness:
#
#   benchmarks/run.sh [--seed N]       every workload, tracing off
#   benchmarks/run.sh --trace          the traced run: per-layer metrics
#   benchmarks/run.sh --selfcheck      two untraced sets must agree
#   benchmarks/run.sh --quick          tiny sizes, checks only (<= 15 s)
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one contract run (BENCHMARK.json)
#
# Standard output carries only the contract's JSON line; the build and
# every human-readable table go to standard error.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A relative target directory is relative to the repository root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmarks/target}"
cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ipr-benchmarks" --out-dir benchmarks/out "$@"
