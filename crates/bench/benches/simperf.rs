//! Simulator self-bench: raw event-loop throughput as its own regression
//! gate.
//!
//! Runs one fixed heavy workload point (fig4a shape, 80 kRPS aggregate)
//! at N ∈ {1, 64, 1024} fan-in and reports, per width:
//!
//! - simulated events processed (warmup + measure + drain),
//! - wall-clock seconds,
//! - simulated events per wall-clock second, and
//! - wall-clock seconds per simulated second.
//!
//! Writes `BENCH_simperf.json`. The checked-in pre-refactor baseline
//! ([`BASELINE_EVENTS_PER_SEC`]) was measured with this exact harness on
//! the BinaryHeap + BTreeSet event queue and map-keyed flow tables; the
//! JSON carries the measured speedup against it so simulator performance
//! ratchets like every other benched quantity. The `--smoke` mode (used
//! by ci.sh) runs the same widths and asserts conservative
//! events-per-second floors at N = 64 and N = 1024 instead of rewriting
//! the JSON.
//!
//! ```sh
//! cargo bench -p bench --bench simperf            # full, writes JSON
//! cargo bench -p bench --bench simperf -- --smoke # CI floor check
//! ```

use std::time::Instant;

use e2e_apps::runner::{run_point, NagleSetting, PointResult, RunConfig};
use e2e_apps::workload::WorkloadSpec;
use littles::Nanos;

/// Fan-in widths swept by the full bench.
const NS: [usize; 3] = [1, 64, 1024];
/// Aggregate offered load, split evenly across the N connections.
const RATE: f64 = 80_000.0;
/// Warmup (excluded from the event count only insofar as the count spans
/// the whole run — the metric is events/wall-second, not goodput).
const WARMUP: Nanos = Nanos::from_millis(100);
/// Measurement window.
const MEASURE: Nanos = Nanos::from_millis(300);
/// Seed (fixed: the runs are deterministic; only wall time varies).
const SEED: u64 = 0x51BE;

/// Pre-refactor baseline, simulated events per wall-clock second, per
/// fan-in width — measured with this harness at commit 293b9d7 (lazy
/// deletion BinaryHeap + two BTreeSets in `EventQueue`, BTreeMap-keyed
/// flow/route/timer tables, per-event `Vec` allocation).
const BASELINE_EVENTS_PER_SEC: [(usize, f64); 3] =
    [(1, 355_887.0), (64, 318_193.0), (1024, 201_805.0)];

/// ci.sh smoke floors: simulated events per wall-clock second, per
/// fan-in width. Deliberately below the measured rates (N = 64: ~1.9 M;
/// N = 1024: ~1.1 M, floor at ~70 %) so shared-CI scheduling noise cannot
/// flake the gate. The N = 64 floor is far above the pre-refactor event
/// queue (0.32 M). The N = 1024 floor is a coarse guard: per-tick
/// estimation regardless of activity measured 0.82 M on the same
/// machine, so the sharp gate for that is the repo benchmark's
/// `fanin1024_set`, which times the steady state only.
const SMOKE_FLOORS_EPS: [(usize, f64); 2] = [(64, 1_000_000.0), (1024, 750_000.0)];

struct Row {
    num_clients: usize,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    wall_per_sim_sec: f64,
    speedup: Option<f64>,
}

fn bench_width(n: usize) -> Row {
    let cfg = RunConfig {
        warmup: WARMUP,
        measure: MEASURE,
        seed: SEED,
        num_clients: n,
        ..RunConfig::new(WorkloadSpec::fig4a(RATE), NagleSetting::Off)
    };
    let start = Instant::now();
    let r: PointResult = run_point(&cfg);
    let wall_secs = start.elapsed().as_secs_f64();
    // run_point drains 20 ms past the measure window.
    let sim_secs = (WARMUP + MEASURE + Nanos::from_millis(20)).as_nanos() as f64 / 1e9;
    let events_per_sec = r.events as f64 / wall_secs;
    let baseline = BASELINE_EVENTS_PER_SEC
        .iter()
        .find(|&&(bn, _)| bn == n)
        .map(|&(_, eps)| eps);
    Row {
        num_clients: n,
        events: r.events,
        wall_secs,
        events_per_sec,
        wall_per_sim_sec: wall_secs / sim_secs,
        speedup: baseline.map(|b| events_per_sec / b),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    println!("=== Simulator self-bench (events/sec, wall per sim-second) ===\n");
    println!(
        "{:>6} | {:>12} {:>9} | {:>14} {:>14} | {:>8}",
        "N", "events", "wall-s", "events/sec", "wall/sim-sec", "speedup"
    );
    let rows: Vec<Row> = NS.iter().map(|&n| {
        let row = bench_width(n);
        println!(
            "{:>6} | {:>12} {:>9.3} | {:>14.0} {:>14.4} | {:>8}",
            row.num_clients,
            row.events,
            row.wall_secs,
            row.events_per_sec,
            row.wall_per_sim_sec,
            row.speedup
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "n/a".into()),
        );
        row
    }).collect();

    if smoke {
        println!();
        for (n, floor) in SMOKE_FLOORS_EPS {
            let row = rows
                .iter()
                .find(|r| r.num_clients == n)
                .expect("every floored width is benched");
            assert!(
                row.events_per_sec >= floor,
                "simulator throughput regressed: {:.0} events/sec at N={n}, floor {floor:.0}",
                row.events_per_sec,
            );
            println!(
                "simperf smoke: OK ({:.2}M events/sec at N={n}, floor {:.2}M)",
                row.events_per_sec / 1e6,
                floor / 1e6
            );
        }
        return;
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"num_clients\": {}, \"events\": {}, \"wall_secs\": {:.3}, \
                 \"events_per_sec\": {:.0}, \"wall_per_sim_sec\": {:.4}, \
                 \"baseline_events_per_sec\": {}, \"speedup\": {}}}",
                r.num_clients,
                r.events,
                r.wall_secs,
                r.events_per_sec,
                r.wall_per_sim_sec,
                BASELINE_EVENTS_PER_SEC
                    .iter()
                    .find(|&&(bn, _)| bn == r.num_clients)
                    .map(|&(_, eps)| format!("{eps:.0}"))
                    .unwrap_or_else(|| "null".into()),
                r.speedup
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"simperf\",\n  \"rate_rps\": {RATE:.0},\n  \
         \"count\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.len(),
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_simperf.json", &doc).expect("write BENCH_simperf.json");
    println!("\nwrote BENCH_simperf.json ({} rows)", json_rows.len());
}
