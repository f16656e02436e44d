#!/bin/sh
# CI sequence: lint, build, test — in that order, failing fast.
set -eu

cd "$(dirname "$0")"

echo "==> clippy.toml is checked in"
# Its banned lists are part of the linted contract: a missing file would
# silently read as an empty ban, so its presence is asserted explicitly.
test -s clippy.toml

echo "==> clippy (clippy.toml bans wall clocks, sleeps, hash maps and string-named RNG streams; float_cmp; unwrap/expect/panic in library code; wire-counter casts in littles)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "==> the benchmark package still builds against the workspace"
# benchmark/ is a package of its own, outside the workspace: without this
# step a renamed item it imports would first fail in the benchmark run.
cargo check -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> rustdoc (broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> no compiler warnings (dead code, unused parameters, ...)"
# Cargo replays cached warnings, so this also holds on a warm tree. An
# `if`, not `! pipeline`: `set -e` does not stop on a negated pipeline.
if cargo check -q --workspace --all-targets --offline 2>&1 | grep '^warning'; then
    exit 1
fi

echo "==> cargo test -q --workspace (root integration tests + every crate's own)"
cargo test -q --workspace

echo "==> SACK sweep, 512 seeds (release; every byte once and in order under loss, reordering and duplication)"
cargo test -q --release -p tcpsim --test sack_sweep -- --ignored

echo "==> simperf smoke (wall-per-simulated-second ceilings at N=64 and N=1024, tick share at N=1024)"
simperf_out=$(cargo bench -q -p bench --bench simperf -- --smoke)
echo "$simperf_out"
echo "$simperf_out" | grep -q 'OK (ticks .* of events at N=1024,'
echo "$simperf_out" | grep -q 'OK (.*wall-s per sim-s at N=64,'
echo "$simperf_out" | grep -q 'OK (.*wall-s per sim-s at N=1024,'
# The full-mode snapshot is checked in; the smoke mode above guards the
# ceilings (N=64: the event queue; N=1024: activity-proportional
# estimation and demand-armed client ticks) without rewriting
# machine-dependent wall times on every CI run.
test -s crates/bench/BENCH_simperf.json
grep -q '"bench": "simperf"' crates/bench/BENCH_simperf.json
grep -q '"num_clients": 64' crates/bench/BENCH_simperf.json
grep -q '"num_clients": 1024' crates/bench/BENCH_simperf.json

echo "==> every bench target compiles (micro included)"
cargo bench -q -p bench --no-run

echo "==> experiments smoke (all 13 registry entries: figures, §5 sketches, six grids)"
# The smoke stdout is the tracked crates/bench/SMOKE.txt, so the
# `git status` check below also fails on any drift in a smoke line —
# including fig1, fig2 and ablations, which emit no JSON. Redirect, then
# print: a pipe through `tee` would hide a failure from `set -e`.
cargo bench -q -p bench --bench experiments -- --smoke >crates/bench/SMOKE.txt
cat crates/bench/SMOKE.txt

echo "==> experiments regenerate their checked-in BENCH_*.json byte for byte"
# Every grid is deterministic, so the checked-in file is the golden: a
# diff is either a behaviour change or a stale artifact, and both fail —
# as does a golden that was written but never `git add`-ed, which
# `git diff` alone would pass. Full mode writes the file first and exits
# non-zero on any gate afterwards, so the diff is on disk either way.
# No names = every entry, so a new emitting entry is covered without
# editing this file (the entries that emit nothing ride along, ~25 s).
# (simperf is exempt: it records machine-dependent wall times.)
cargo bench -q -p bench --bench experiments >/dev/null
# Column 2 of --porcelain is worktree-vs-index ("??" = untracked): staged
# work is fine, anything the regeneration changed or created is not.
dirty=$(git status --porcelain -- crates/bench | grep -v '^. ' || true)
echo "$dirty"
test -z "$dirty"

echo "==> ci.sh: all green"
