//! The experiment registry and its driver.
//!
//! An [`Entry`] is the one definition of an experiment: its `exec`
//! function picks the full grid (what the checked-in `BENCH_<name>.json`
//! was produced from) or the smoke grid (a few cells, for CI), enumerates
//! the cells and runs each one's arms (from `e2e_apps::experiments`, one
//! `run_grid` job per cell), computes the oracle, prints the table,
//! builds the JSON rows and files every gate with [`gate!`]. Cell gates
//! run in both modes; headline gates that need the whole grid run in full
//! mode only.

/// Files one gate with a [`Gates`]: like `assert!`, but a failure is
/// recorded instead of panicking.
macro_rules! gate {
    ($gates:expr, $ok:expr, $($msg:tt)+) => {
        $gates.check($ok, format_args!($($msg)+))
    };
}

mod figures;
mod grids;

use bench::params::{MEASURE, SMOKE_MEASURE, SMOKE_WARMUP, WARMUP};
use bench::{Doc, Json};
use e2e_apps::{run_sweep, NagleSetting, RunConfig, SweepResult, WorkloadSpec};
use littles::Nanos;

/// One registered experiment.
pub(crate) struct Entry {
    /// CLI name, and the `<name>` of `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether full mode writes `BENCH_<name>.json` (a checked-in golden).
    pub emits: bool,
    /// Runs the grid for the mode (`true` = smoke), prints the table,
    /// files the gates, and returns the document if the entry emits one.
    pub exec: fn(bool, &mut Gates) -> Option<Doc>,
    /// Printed above the table.
    pub title: &'static str,
    /// What a passing smoke run vouches for (the `smoke: OK (…)` line).
    pub smoke_ok: &'static str,
}

/// Every experiment, in the order a bare invocation runs them.
#[rustfmt::skip] // one entry per three lines reads as a table
pub(crate) static REGISTRY: [Entry; 13] = [
    Entry { name: "fig1", emits: false, exec: figures::fig1,
        title: "Figure 1, on/off batching outcome vs client cost c",
        smoke_ok: "all three regimes present" },
    Entry { name: "fig2", emits: false, exec: figures::fig2,
        title: "Figure 2, bare-metal vs VM client at a fixed 20 kRPS",
        smoke_ok: "bare/vm x Nagle off/on ran" },
    Entry { name: "fig4a", emits: true, exec: figures::fig4a,
        title: "Figure 4a, 100% SET (16 B keys, 16 KiB values): latency (µs) vs offered load",
        smoke_ok: "coarse five-point sweep ran" },
    Entry { name: "fig4b", emits: true, exec: figures::fig4b,
        title: "Figure 4b, SET:GET = 95:5: latency (µs) vs offered load",
        smoke_ok: "coarse five-point sweep ran" },
    Entry { name: "dynamic_toggle", emits: true, exec: figures::dynamic_toggle,
        title: "§5 dynamic Nagle toggling vs static (mean latency, µs)",
        smoke_ok: "off / on / dynamic ran below and past the knee" },
    Entry { name: "aimd_limit", emits: true, exec: figures::aimd_limit,
        title: "§5 AIMD gradual batch limit vs static Nagle (mean latency, µs)",
        smoke_ok: "off / on / AIMD ran below and past the knee" },
    Entry { name: "ablations", emits: false, exec: figures::ablations,
        title: "§5 ablations (16 KiB SETs @ 85 kRPS)",
        smoke_ok: "every knob variant ran" },
    Entry { name: "fanin", emits: true, exec: grids::fanin,
        title: "the same aggregate load over N connections into one server",
        smoke_ok: "N=4, all connections carried traffic" },
    Entry { name: "chaos", emits: true, exec: grids::chaos,
        title: "fault classes x intensity x fan-in, adaptive vs the static oracle",
        smoke_ok: "loss + blackout, N=4, bounded degradation" },
    Entry { name: "knobs", emits: true, exec: grids::knobs,
        title: "static knob corners vs adaptive planes, client cost c x fan-in N",
        smoke_ok: "c=4us, N=8, joint plane within bound" },
    Entry { name: "adversary", emits: true, exec: grids::adversary,
        title: "metadata fault classes x intensity x fan-in, guarded vs exposed",
        smoke_ok: "corrupt + restart, N=1, validation load-bearing" },
    Entry { name: "shard", emits: true, exec: grids::shard,
        title: "two-tier skewed grid, global static pins vs per-shard planes",
        smoke_ok: "N=8, K=4, skewed cell served on both legs" },
    Entry { name: "failover", emits: true, exec: grids::failover,
        title: "shard faults vs the proxy defense ladder",
        smoke_ok: "full stack within bound in every cell" },
];

/// The gates of one entry's run. A failed gate is recorded, not
/// panicked on: full mode still writes the JSON (so `git diff` shows what
/// moved) and the process then fails with every message.
#[derive(Default)]
pub(crate) struct Gates {
    /// Gates evaluated so far.
    pub checked: usize,
    /// Messages of the gates that did not hold.
    pub failures: Vec<String>,
}

impl Gates {
    /// Files one gate: `ok` must hold, `msg` says what broke otherwise.
    pub(crate) fn check(&mut self, ok: bool, msg: std::fmt::Arguments<'_>) {
        self.checked += 1;
        if !ok {
            self.failures.push(msg.to_string());
        }
    }
}

/// The shared (warmup, measure) window for the mode.
fn windows(smoke: bool) -> (Nanos, Nanos) {
    if smoke {
        (SMOKE_WARMUP, SMOKE_MEASURE)
    } else {
        (WARMUP, MEASURE)
    }
}

/// Nagle off vs on (plus the ε-greedy dynamic policy when `dynamic`) at
/// each of `rates`, the workload `spec_at(rate)` spread over
/// `num_clients` connections: one `run_grid` job per rate.
fn sweep(
    rates: &[f64],
    spec_at: fn(f64) -> WorkloadSpec,
    num_clients: usize,
    (warmup, measure): (Nanos, Nanos),
    seed: u64,
    dynamic: bool,
) -> SweepResult {
    let base = RunConfig {
        warmup,
        measure,
        seed,
        num_clients,
        ..RunConfig::new(spec_at(rates[0]), NagleSetting::Off)
    };
    run_sweep(rates, spec_at, &base, dynamic)
}

/// A P99 ratio as a table cell: two decimals, `n/a` when absent.
fn ratio(r: Option<f64>) -> String {
    r.map_or_else(|| "n/a".into(), |r| format!("{r:.2}"))
}

/// A ratio or fraction as JSON: three decimals, `null` when absent.
fn json_ratio(r: Option<f64>) -> Json {
    Json::opt(r, |r| Json::fixed(r, 3))
}

/// A rate in requests/second as JSON: no decimals, `null` when absent.
fn json_rate(r: Option<f64>) -> Json {
    Json::opt(r, |r| Json::fixed(r, 0))
}

/// Parses `[--smoke] [name…]` into (smoke, selected entries); no names
/// selects every entry. Cargo appends `--bench` to a bench target's
/// arguments, so that one flag is ignored.
pub(crate) fn parse_cli(
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Vec<&'static Entry>), String> {
    let mut smoke = false;
    let mut selected = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--bench" => {}
            "--smoke" => smoke = true,
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(entry) => selected.push(entry),
                None => {
                    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                    return Err(format!(
                        "unknown argument {name:?}\nusage: experiments [--smoke] [name…]\n\
                         names: {}",
                        names.join(" ")
                    ));
                }
            },
        }
    }
    if selected.is_empty() {
        selected = REGISTRY.iter().collect();
    }
    Ok((smoke, selected))
}

/// Runs the selected entries and returns the process exit code: 0 when
/// every gate held, 1 on gate failures, 2 on a bad command line.
pub(crate) fn drive(args: impl IntoIterator<Item = String>) -> i32 {
    let (smoke, selected) = match parse_cli(args) {
        Ok(cli) => cli,
        Err(usage) => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let mut failures = Vec::new();
    for entry in selected {
        println!("=== {}: {} ===\n", entry.name, entry.title);
        let mut gates = Gates::default();
        let doc = (entry.exec)(smoke, &mut gates);
        assert_eq!(
            doc.is_some(),
            entry.emits,
            "{}: `emits` is wrong",
            entry.name
        );
        if let (false, Some(doc)) = (smoke, &doc) {
            let path = doc.write(entry.name).expect("write BENCH json");
            println!("wrote {} ({} rows)", path.display(), doc.count());
        }
        if !gates.failures.is_empty() {
            failures.extend(
                gates
                    .failures
                    .iter()
                    .map(|m| format!("{}: {m}", entry.name)),
            );
        } else if smoke {
            println!("{} smoke: OK ({})\n", entry.name, entry.smoke_ok);
        } else {
            println!("{}: OK ({} gates held)\n", entry.name, gates.checked);
        }
    }
    if failures.is_empty() {
        return 0;
    }
    eprintln!(
        "{} gate(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    1
}
