#!/usr/bin/env bash
# Builds the benchmark (release, offline) and hands it every argument.
#
#   run.sh --workload W --seed S --seconds T --trace 0|1   one run; last stdout line is its JSON result
#   run.sh [--seed S] [--seconds T]                        all five workloads, untraced then traced
#   run.sh --selfcheck                                     repeatability, seed and window-scaling checks
#   run.sh --describe                                      print BENCHMARK.json from the metric tables
#
# Runs from the repo root so CARGO_TARGET_DIR (default .bench_build) and
# benchmark/out/ resolve the same way wherever it is called from.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e-benchmark" "$@"
