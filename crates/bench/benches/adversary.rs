//! The adversary experiment: adversarial metadata faults (exchange
//! corruption, endpoint restart) against the hardened estimator stack.
//! The guarded adaptive arm (validation on) must stay within the chaos
//! degradation bound of the static oracle in every cell, while at least
//! one exposed arm (same policy, validation off) must break it — proving
//! peer-state validation is load-bearing, not a rubber stamp.
//!
//! Prints the per-cell table and writes `BENCH_adversary.json`.
//!
//! ```sh
//! cargo bench -p bench --bench adversary
//! ```

use bench::params::{MEASURE, SEED, WARMUP};
use e2e_apps::experiments::{
    adversary, AdversaryClass, CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK,
};
use e2e_apps::report::json_us;

const INTENSITIES: [f64; 2] = [0.5, 1.0];
// Fan-in stays small: the adversarial faults target the metadata plane,
// not delivery, so even a single connection exercises them fully; N=2
// adds the multi-connection listener registry to the attack surface.
const NS: [usize; 2] = [1, 2];
// Past the no-Nagle knee (~88 kRPS): the static arms genuinely disagree
// here (off collapses, on holds), so a poisoned policy pinned on the
// wrong arm shows up as a large, unambiguous P99 regression.
const RATE_RPS: f64 = 95_000.0;

fn json_ratio(r: Option<f64>) -> String {
    r.map(|r| format!("{r:.3}")).unwrap_or_else(|| "null".into())
}

fn main() {
    println!("=== Adversary: metadata fault classes x intensity x fan-in ===\n");
    let data = adversary(
        &AdversaryClass::ALL,
        &INTENSITIES,
        &NS,
        RATE_RPS,
        WARMUP,
        MEASURE,
        SEED,
    );

    println!(
        "{:>3} {:>8} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>7} | {:>7} {:>6} {:>5}",
        "N",
        "class",
        "int",
        "off-p99",
        "on-p99",
        "guard-p99",
        "expo-p99",
        "g-rat",
        "e-rat",
        "rejects",
        "epochs",
        "trips"
    );
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    let mut exposed_breaches = 0usize;
    for c in &data.cells {
        let v = c.guarded.validation.unwrap_or_default();
        let corruptions: u64 = c.guarded.link_faults.iter().map(|f| f.corruptions).sum();
        let trips = c.guarded.client_breaker_trips.unwrap_or(0)
            + c.guarded.server_breaker_trips.unwrap_or(0);
        println!(
            "{:>3} {:>8} {:>5.2} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>7} | {:>7} {:>6} {:>5}",
            c.num_clients,
            c.class.name(),
            c.intensity,
            json_us(c.off.measured_p99),
            json_us(c.on.measured_p99),
            json_us(c.guarded.measured_p99),
            json_us(c.exposed.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            c.exposed_regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            v.rejected,
            v.epoch_changes,
            trips,
        );
        if !c.within_bound(CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK) {
            violations.push(format!(
                "{}/{:.2}/N={}: guarded {:?} vs oracle {:?}",
                c.class.name(),
                c.intensity,
                c.num_clients,
                c.guarded.measured_p99,
                c.oracle_p99()
            ));
        }
        if !c.exposed_within_bound(CHAOS_BOUND_FACTOR, CHAOS_BOUND_SLACK) {
            exposed_breaches += 1;
        }
        rows.push(format!(
            concat!(
                "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                "\"off_p99_us\": {}, \"on_p99_us\": {}, ",
                "\"guarded_p99_us\": {}, \"exposed_p99_us\": {}, ",
                "\"oracle_p99_us\": {}, \"regression\": {}, \"exposed_regression\": {}, ",
                "\"breaker_trips\": {}, \"corruptions\": {}, \"restarts\": {}, ",
                "\"validation\": {{\"accepted\": {}, \"rejected\": {}, \"epoch_changes\": {}}}}}"
            ),
            c.class.name(),
            c.intensity,
            c.num_clients,
            json_us(c.off.measured_p99),
            json_us(c.on.measured_p99),
            json_us(c.guarded.measured_p99),
            json_us(c.exposed.measured_p99),
            json_us(c.oracle_p99()),
            json_ratio(c.regression()),
            json_ratio(c.exposed_regression()),
            trips,
            corruptions,
            c.guarded.fault_restarts,
            v.accepted,
            v.rejected,
            v.epoch_changes,
        ));
    }

    println!(
        "\nworst guarded-vs-oracle P99 ratio: {}",
        data.worst_regression()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into())
    );
    println!("exposed arms breaking the bound: {exposed_breaches}/{}", data.cells.len());

    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"adversary\",\n  \"bound_factor\": {CHAOS_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"exposed_breaches\": {exposed_breaches},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        CHAOS_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_adversary.json", &doc).expect("write BENCH_adversary.json");
    println!("wrote BENCH_adversary.json ({} cells)", data.cells.len());

    // The bound is the experiment's claim: fail loudly if any guarded
    // cell broke it...
    assert!(
        violations.is_empty(),
        "guarded policy exceeded the degradation bound:\n{}",
        violations.join("\n")
    );
    // ...and the ablation is the experiment's point: the same stack
    // without validation must demonstrably fail somewhere on the grid.
    assert!(
        exposed_breaches > 0,
        "every exposed arm stayed within the bound — validation is not load-bearing on this grid"
    );
}
