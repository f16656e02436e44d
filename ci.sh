#!/bin/sh
# CI sequence: lint, build, test — in that order, failing fast.
set -eu

cd "$(dirname "$0")"

echo "==> clippy.toml is checked in"
# Its banned lists are part of the linted contract: a missing file would
# silently read as an empty ban, so its presence is asserted explicitly.
test -s clippy.toml

echo "==> cargo fmt --check (the whole workspace is rustfmt-clean)"
# benchmark/ is a package of its own, outside the workspace, and is not
# checked here.
cargo fmt --all -- --check

echo "==> tests take their hosts from e2e_apps::harness (no Host::new( under tests/)"
# star_hosts / tier_hosts hold the host layout (id = index, each role's
# stack and CPU context names); a test that spells it out again can drift
# from what the runners build. An `if`, not `! git grep`: `set -e` does not
# stop on a negated pipeline.
if git grep -n 'Host::new(' -- tests/; then
    exit 1
fi

echo "==> no layer counts or reads packets (Unit::Packets only in queues.rs and at the one rejection check)"
# The packet unit is not counted: its name survives only because the
# benchmark adapter builds a packet recorder, which reads an empty queue.
# queues.rs keeps the variant, Unit::ALL, Unit::index and the empty
# queue a read in it sees; TcpSocket::open refuses a config that would
# exchange it. Any other use would start counting or reading it again.
if git grep -n 'Unit::Packets' -- 'crates/*/src/*' \
    | grep -v '^crates/tcpsim/src/queues\.rs:' \
    | grep -v '^crates/tcpsim/src/socket/mod\.rs:[0-9]*: *!config\.exchange\.units\[Unit::Packets\.index()\],$'; then
    exit 1
fi

echo "==> the public surface is what another crate reads (at most 30 pub items no file outside their crate names)"
# rustc's dead-code lint cannot see a `pub` item, so an unread one stays
# until something counts it. Listed: each `pub` item or field under
# crates/*/src whose name, as a word, no tracked .rs file outside that
# crate's src/ contains (other crates, tests, examples, benches and
# benchmark/ all count as outside). The ones left must stay `pub`: types
# a public signature exposes, fields a struct-update literal in another
# crate needs, items only a doctest reads. Narrow a new one to `pub(crate)`
# (then rustc says whether it is dead); never raise the count to fit it.
pub_unread_max=30
pub_unread=$(for src in crates/*/src; do
    git grep -ohwE '[A-Za-z_][A-Za-z0-9_]*' -- '*.rs' ":(exclude)$src/" | awk -v src="$src" '
        { read[$0] = 1 }
        END {
            cmd = "git grep -nE \"^[[:space:]]*pub ((const )?fn|struct|enum|trait|type|const|static|mod) |^[[:space:]]*pub [a-z_][a-z0-9_]*:\" -- " src
            while ((cmd | getline line) > 0) {
                name = line
                sub(/^[^:]*:[0-9]*:[[:space:]]*pub /, "", name)
                sub(/^((const )?fn|struct|enum|trait|type|const|static|mod) /, "", name)
                match(name, /^[A-Za-z_][A-Za-z0-9_]*/)
                if (!(substr(name, RSTART, RLENGTH) in read)) print line
            }
            close(cmd)
        }'
done)
echo "$pub_unread"
pub_unread_count=$(echo "$pub_unread" | grep -c . || true)
echo "$pub_unread_count unread pub items (at most $pub_unread_max)"
test "$pub_unread_count" -le "$pub_unread_max"

echo "==> clippy (clippy.toml bans wall clocks, sleeps, hash maps and string-named RNG streams; float_cmp; unwrap/expect/panic in library code; wire-counter casts in littles)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "==> the benchmark package still builds against the workspace"
# benchmark/ is a package of its own, outside the workspace: without this
# step a renamed item it imports would first fail in the benchmark run.
cargo check -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> BENCHMARK.json matches the benchmark's own metric and workload tables"
# The benchmark prints its declaration from the tables it measures with;
# a metric or workload added, renamed or re-bounded in one place only fails here.
cargo run -q --offline --locked --manifest-path benchmark/Cargo.toml -- --describe | diff - BENCHMARK.json

# One benchmark run re-checks that its harness equals the runner's, that
# every socket's invariants hold and that every completed request was
# sampled, and reports all three as `"correct"` on its last stdout line.
bench_correct() {
    result=$(benchmark/run.sh --workload "$1" --seconds 1 --seed 1 --trace 0 | tail -n 1)
    echo "$result"
    echo "$result" | grep -q '"correct": *true'
}

echo "==> benchmark is correct on star1_set (one connection: the per-event hot path, the copy-free byte path)"
bench_correct star1_set

echo "==> benchmark is correct on fanin1024_set (the widest fan-in: 1024 connections on one listener)"
bench_correct fanin1024_set

echo "==> benchmark is correct on star64_mix_plane (plane seats on every client and the listener)"
bench_correct star64_mix_plane

echo "==> benchmark is correct on star64_loss (the lossy SACK path: recovery sets the tail)"
bench_correct star64_loss

echo "==> benchmark is correct on tier8x4_brownout (per-shard seats on the composed proxy estimate)"
bench_correct tier8x4_brownout

echo "==> cargo build --release"
cargo build --release

echo "==> the examples run (release; each panics with a named message on a missing figure, hints_api also on a hint estimate more than 1 % off the client's truth)"
cargo run -q --release --offline --example quickstart
cargo run -q --release --offline --example hints_api

echo "==> rustdoc (broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> no compiler warnings (dead code, unused parameters, ...)"
# Cargo replays cached warnings, so this also holds on a warm tree. An
# `if`, not `! pipeline`: `set -e` does not stop on a negated pipeline.
if cargo check -q --workspace --all-targets --offline 2>&1 | grep '^warning'; then
    exit 1
fi

echo "==> cargo test -q --workspace (root integration tests + every crate's own; tests/work_ledger.rs gates allocations, retained bytes, events and client ticks per request)"
cargo test -q --workspace

echo "==> work ledger, release (the build that ships is held to its own heap ceilings)"
cargo test -q --release --test work_ledger

echo "==> SACK sweep, 512 seeds (release; every byte once and in order under loss, reordering and duplication)"
cargo test -q --release -p tcpsim --test sack_sweep -- --ignored

echo "==> every bench target compiles (micro included)"
cargo bench -q -p bench --no-run

echo "==> micro bench runs (~3 s; its asserts check that a recorder's window spans every fresh exchange and a quiet one's has no answer, that a watch releases nothing until a share arrives, and the timer re-arm)"
# Timings are printed, never gated; the assert_eq!s after each row are
# what fails here.
cargo bench -q -p bench --bench micro

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
cargo bench -q -p bench --bench experiments >/dev/null
# Column 2 of --porcelain is worktree-vs-index ("??" = untracked): staged
# work is fine, anything the regeneration changed or created is not.
dirty=$(git status --porcelain -- crates/bench | grep -v '^. ' || true)
echo "$dirty"
test -z "$dirty"

echo "==> ci.sh: all green"
