//! The chaos experiment: fault injection across the star topology, and
//! whether the adaptive policy (ε-greedy toggling behind a circuit
//! breaker, estimator confidence driven by snapshot staleness) degrades
//! gracefully — P99 within the stated bound of the static oracle in
//! every cell.
//!
//! Prints the per-cell table and writes `BENCH_chaos.json`.
//!
//! ```sh
//! cargo bench -p bench --bench chaos
//! ```

use bench::params::{MEASURE, SEED, WARMUP};
use e2e_apps::experiments::{
    chaos, ChaosClass, CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK,
};
use e2e_apps::report::json_us;
use simnet::FaultCounters;

const INTENSITIES: [f64; 2] = [0.5, 1.0];
// Fan-in starts at 4: the aggregate rate over a single connection puts
// bursty loss into the documented go-back-N collapse regime
// (EXPERIMENTS.md, known divergence 4), where no arm measures anything.
const NS: [usize; 2] = [4, 8];
// Moderate per-connection load: high enough that batching matters, low
// enough that a lossy go-back-N connection still drains its backlog.
const RATE_RPS: f64 = 24_000.0;

fn main() {
    println!("=== Chaos: fault classes x intensity x fan-in ===\n");
    let data = chaos(
        &ChaosClass::ALL,
        &INTENSITIES,
        &NS,
        RATE_RPS,
        WARMUP,
        MEASURE,
        SEED,
    );

    println!(
        "{:>3} {:>12} {:>5} | {:>9} {:>9} {:>9} | {:>6} {:>5}",
        "N", "class", "int", "off-p99", "on-p99", "adap-p99", "ratio", "trips"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for c in &data.cells {
        let faults = c
            .adaptive
            .link_faults
            .iter()
            .fold(FaultCounters::default(), |acc, x| acc.merged(*x));
        let trips = c.adaptive.client_breaker_trips.unwrap_or(0)
            + c.adaptive.server_breaker_trips.unwrap_or(0);
        println!(
            "{:>3} {:>12} {:>5.2} | {:>9} {:>9} {:>9} | {:>6} {:>5}",
            c.num_clients,
            c.class.name(),
            c.intensity,
            json_us(c.off.measured_p99),
            json_us(c.on.measured_p99),
            json_us(c.adaptive.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            trips,
        );
        if !c.within_bound(CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK) {
            violations.push(format!(
                "{}/{:.2}/N={}: adaptive {:?} vs oracle {:?}",
                c.class.name(),
                c.intensity,
                c.num_clients,
                c.adaptive.measured_p99,
                c.oracle_p99()
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                "\"off_p99_us\": {}, \"on_p99_us\": {}, \"adaptive_p99_us\": {}, ",
                "\"oracle_p99_us\": {}, \"regression\": {}, \"breaker_trips\": {}, ",
                "\"faults\": {{\"drops\": {}, \"duplicates\": {}, \"reorders\": {}, ",
                "\"blackout_drops\": {}, \"blackout_us\": {:.1}}}}}"
            ),
            c.class.name(),
            c.intensity,
            c.num_clients,
            json_us(c.off.measured_p99),
            json_us(c.on.measured_p99),
            json_us(c.adaptive.measured_p99),
            json_us(c.oracle_p99()),
            c.regression()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "null".into()),
            trips,
            faults.drops,
            faults.duplicates,
            faults.reorders,
            faults.blackout_drops,
            c.adaptive.fault_blackout_time.as_micros_f64(),
        ));
    }

    println!(
        "\nworst adaptive-vs-oracle P99 ratio: {}",
        data.worst_regression()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into())
    );

    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"chaos\",\n  \"bound_factor\": {CHAOS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        CHAOS_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_chaos.json", &doc).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json ({} cells)", data.cells.len());

    // The bound is the experiment's claim: fail loudly if any cell broke it.
    assert!(
        violations.is_empty(),
        "adaptive policy exceeded the degradation bound:\n{}",
        violations.join("\n")
    );
}
