#!/bin/sh
# CI sequence: lint, build, test — in that order, failing fast.
set -eu

cd "$(dirname "$0")"

echo "==> linter self-test (lexer, model, call graph, rules, fixtures)"
cargo test -q -p xtask

echo "==> workspace-rule inputs are checked in"
# The RNG-stream manifest and the ratchet baselines are part of the
# linted contract: a missing file would silently read as an empty
# baseline, so their presence is asserted explicitly.
test -s crates/xtask/rng_streams.toml
test -s crates/xtask/lint_baselines/panic_reachability.txt
test -s crates/xtask/lint_baselines/hot_path_alloc.txt

echo "==> xtask lint (all rules; ratchets must not move up)"
cargo run -q -p xtask -- lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (root integration tests + every crate's own)"
cargo test -q --workspace

echo "==> simperf smoke (wall-per-simulated-second ceilings at N=64 and N=1024)"
simperf_out=$(cargo bench -q -p bench --bench simperf -- --smoke)
echo "$simperf_out"
echo "$simperf_out" | grep -q 'OK (.*wall-s per sim-s at N=64,'
echo "$simperf_out" | grep -q 'OK (.*wall-s per sim-s at N=1024,'
# The full-mode snapshot is checked in; the smoke mode above guards the
# ceilings (N=64: the event queue; N=1024: activity-proportional
# estimation) without rewriting machine-dependent wall times on every CI
# run.
test -s crates/bench/BENCH_simperf.json
grep -q '"bench": "simperf"' crates/bench/BENCH_simperf.json
grep -q '"num_clients": 64' crates/bench/BENCH_simperf.json
grep -q '"num_clients": 1024' crates/bench/BENCH_simperf.json

echo "==> fanin smoke (N=4, short run)"
cargo run -q --release --example fanin -- --smoke

echo "==> chaos smoke (loss + blackout, N=4, bounded degradation)"
cargo run -q --release --example chaos -- --smoke

echo "==> knobs smoke (c=4us, N=8, joint plane within bound)"
cargo run -q --release --example knobs -- --smoke

echo "==> adversary smoke (corrupt + restart, N=1, validation load-bearing)"
cargo run -q --release --example adversary -- --smoke

echo "==> shard smoke (two-tier proxy, N=8/K=4 skewed cell, bound holds)"
cargo run -q --release --example shard -- --smoke

echo "==> failover smoke (shard crash + brownout, defense ladder within bound)"
cargo run -q --release --example failover -- --smoke

echo "==> benches regenerate their checked-in BENCH_*.json byte for byte"
# Every grid is deterministic, so the checked-in file is the golden: a
# diff is either a behaviour change or a stale artifact, and both fail.
# (simperf is exempt: it records machine-dependent wall times.)
regenerated=""
for bench in fanin chaos knobs adversary shard failover; do
    cargo bench -q -p bench --bench "$bench" >/dev/null
    regenerated="$regenerated crates/bench/BENCH_$bench.json"
done
# Unquoted on purpose: one path per word (POSIX sh has no brace expansion).
git diff --exit-code -- $regenerated

echo "==> ci.sh: all green"
