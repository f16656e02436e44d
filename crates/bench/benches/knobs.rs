//! The knob-grid experiment: the joint multi-knob control plane (Nagle +
//! delayed-ACK + cork limit from one routed estimate) against all eight
//! static knob corners and the Nagle-only adaptive plane, across client
//! cost × fan-in.
//!
//! Prints the per-cell table and writes `BENCH_knobs.json`.
//!
//! ```sh
//! cargo bench -p bench --bench knobs
//! ```

use bench::params::{MEASURE, SEED, WARMUP};
use e2e_apps::experiments::{knobs, KNOBS_BOUND_FACTOR, KNOBS_BOUND_SLACK};
use e2e_apps::report::json_us;
use littles::Nanos;

// Client per-response cost c: the calibrated default, the Figure 2
// bare-metal cost, and a heavier stand-in for an expensive client.
const COSTS: [Nanos; 3] = [
    Nanos::from_nanos(300),
    Nanos::from_micros(4),
    Nanos::from_micros(12),
];
const NS: [usize; 3] = [1, 4, 8];
// Moderate aggregate load: enough backlog that every knob has a real
// effect, low enough that the single-connection high-c cell stays
// un-saturated.
const RATE_RPS: f64 = 24_000.0;

fn main() {
    println!("=== Knobs: static corners vs adaptive planes, c x N ===\n");
    let data = knobs(&COSTS, &NS, RATE_RPS, WARMUP, MEASURE, SEED);

    println!(
        "{:>6} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
        "c-us",
        "N",
        "best-p99",
        "best-corner",
        "1knob-p99",
        "joint-p99",
        "ratio",
        "nag",
        "dack",
        "cork",
        "expl"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for c in &data.cells {
        println!(
            "{:>6.1} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
            c.client_cost.as_micros_f64(),
            c.num_clients,
            json_us(c.best_corner_p99()),
            c.best_corner_label().unwrap_or_else(|| "n/a".into()),
            json_us(c.nagle_only.measured_p99),
            json_us(c.joint.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            c.joint.plane_nagle_switches.unwrap_or(0),
            c.joint.plane_delack_switches.unwrap_or(0),
            c.joint.plane_cork_switches.unwrap_or(0),
            c.joint.plane_explorations.unwrap_or(0),
        );
        if !c.within_bound(KNOBS_BOUND_FACTOR, KNOBS_BOUND_SLACK) {
            violations.push(format!(
                "c={}/N={}: joint {:?} vs best corner {:?}",
                c.client_cost,
                c.num_clients,
                c.joint.measured_p99,
                c.best_corner_p99()
            ));
        }
        let corners: Vec<String> = c
            .corners
            .iter()
            .map(|k| format!("\"{}\": {}", k.label(), json_us(k.result.measured_p99)))
            .collect();
        rows.push(format!(
            concat!(
                "    {{\"client_cost_us\": {:.1}, \"num_clients\": {}, ",
                "\"corners\": {{{}}}, \"best_corner\": \"{}\", ",
                "\"best_corner_p99_us\": {}, \"nagle_only_p99_us\": {}, ",
                "\"joint_p99_us\": {}, \"regression\": {}, ",
                "\"joint_beats_nagle_only\": {}, ",
                "\"plane\": {{\"nagle_switches\": {}, \"delack_switches\": {}, ",
                "\"cork_switches\": {}, \"explorations\": {}, \"cork_limit\": {}}}}}"
            ),
            c.client_cost.as_micros_f64(),
            c.num_clients,
            corners.join(", "),
            c.best_corner_label().unwrap_or_else(|| "n/a".into()),
            json_us(c.best_corner_p99()),
            json_us(c.nagle_only.measured_p99),
            json_us(c.joint.measured_p99),
            c.regression()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "null".into()),
            c.joint_beats_nagle_only(),
            c.joint.plane_nagle_switches.unwrap_or(0),
            c.joint.plane_delack_switches.unwrap_or(0),
            c.joint.plane_cork_switches.unwrap_or(0),
            c.joint.plane_explorations.unwrap_or(0),
            c.joint
                .plane_cork_limit
                .map(|l| l.to_string())
                .unwrap_or_else(|| "null".into()),
        ));
    }

    println!(
        "\nworst joint-vs-best-corner P99 ratio: {}",
        data.worst_regression()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into())
    );

    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"knobs\",\n  \"bound_factor\": {KNOBS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        KNOBS_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_knobs.json", &doc).expect("write BENCH_knobs.json");
    println!("wrote BENCH_knobs.json ({} cells)", data.cells.len());

    // The bound is the experiment's claim: fail loudly if any cell broke
    // it, or if the joint plane cannot beat the single-knob plane on the
    // hardest cell.
    assert!(
        violations.is_empty(),
        "joint plane exceeded the degradation bound:\n{}",
        violations.join("\n")
    );
    let high = data.high_cell().expect("non-empty grid");
    assert!(
        high.joint_beats_nagle_only(),
        "high cell c={}/N={}: joint {:?} does not beat nagle-only {:?}",
        high.client_cost,
        high.num_clients,
        high.joint.measured_p99,
        high.nagle_only.measured_p99
    );
}
