//! The fan-in experiment: how the Nagle cutoff moves as one aggregate
//! load spreads across more connections, and whether the aggregate
//! estimate keeps tracking the measured aggregate.
//!
//! Prints the per-N sweep tables and writes `BENCH_fanin.json` — a
//! stable, hand-rolled JSON document in the same style as
//! `xtask -- lint --json`.
//!
//! ```sh
//! cargo bench -p bench --bench fanin
//! ```

use bench::params::{MEASURE, SEED, WARMUP};
use e2e_apps::experiments::fanin;
use e2e_apps::report::{json_us, us};

const NS: [usize; 6] = [1, 4, 16, 64, 256, 1024];
const RATES: [f64; 5] = [40_000.0, 60_000.0, 75_000.0, 88_000.0, 105_000.0];

fn json_rate(r: Option<f64>) -> String {
    r.map(|v| format!("{v:.0}")).unwrap_or_else(|| "null".into())
}

fn main() {
    println!("=== Fan-in: aggregate load over N connections ===\n");
    let data = fanin(&NS, &RATES, WARMUP, MEASURE, SEED);

    let mut rows = Vec::new();
    for row in &data.rows {
        println!("--- N = {} ---", row.num_clients);
        println!(
            "{:>8} | {:>9} {:>9} | {:>9} {:>9}",
            "rate", "off-meas", "off-est", "on-meas", "on-est"
        );
        for p in &row.sweep.rows {
            println!(
                "{:>8.0} | {:>9} {:>9} | {:>9} {:>9}",
                p.rate_rps,
                us(p.off.measured_mean),
                us(p.off.estimated_bytes),
                us(p.on.measured_mean),
                us(p.on.estimated_bytes),
            );
            rows.push(format!(
                "    {{\"num_clients\": {}, \"rate_rps\": {:.0}, \"off_meas_us\": {}, \"off_est_us\": {}, \"on_meas_us\": {}, \"on_est_us\": {}}}",
                row.num_clients,
                p.rate_rps,
                json_us(p.off.measured_mean),
                json_us(p.off.estimated_bytes),
                json_us(p.on.measured_mean),
                json_us(p.on.estimated_bytes),
            ));
        }
        println!(
            "cutoff: measured {:?} vs byte-estimated {:?}\n",
            row.cutoff_measured, row.cutoff_estimated
        );
    }

    let cutoffs: Vec<String> = data
        .rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"num_clients\": {}, \"cutoff_measured_rps\": {}, \"cutoff_estimated_rps\": {}}}",
                row.num_clients,
                json_rate(row.cutoff_measured),
                json_rate(row.cutoff_estimated),
            )
        })
        .collect();

    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"fanin\",\n  \"count\": {},\n  \"rows\": [\n{}\n  ],\n  \"cutoffs\": [\n{}\n  ]\n}}\n",
        rows.len(),
        rows.join(",\n"),
        cutoffs.join(",\n")
    );
    std::fs::write("BENCH_fanin.json", &doc).expect("write BENCH_fanin.json");
    println!("wrote BENCH_fanin.json ({} rows)", data.rows.len() * RATES.len());
}
