//! Failover: shard failure against the proxy's defense ladder.
//!
//! For each fault scenario (hot-shard crash mid-run, cold-shard CPU
//! brownout), runs the never-failed oracle plus four defense arms: the
//! naive proxy, deadlines only, budgeted retries, and the full
//! retry + hedge + breaker stack with ring-successor failover routing.
//! The claim under test: with the full stack, P99 and goodput stay
//! within a small factor of the oracle while the naive proxy collapses.
//!
//! ```sh
//! cargo run --release --example failover            # full grid + failover.json
//! cargo run --release --example failover -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{
    failover, FailoverCell, FailoverData, FAILOVER_BOUND_FACTOR, FAILOVER_BOUND_SLACK,
    FAILOVER_NAIVE_FACTOR,
};
use e2e_apps::{FailoverArm, FailoverPointResult};
use e2e_apps::report::us;
use littles::Nanos;

fn print_cells(data: &FailoverData) {
    for c in &data.cells {
        println!(
            "scenario {:<13} oracle: p99 {:>8}µs goodput {:>7.0} rps",
            c.scenario.label(),
            us(c.oracle.measured_p99),
            c.oracle.achieved_rps,
        );
        println!(
            "  {:>12} | {:>9} {:>7} | {:>7} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
            "arm", "p99-us", "ratio", "rps", "t/o", "retry", "hedge", "trips", "fails", "dedup"
        );
        for (arm, r) in &c.arms {
            println!(
                "  {:>12} | {:>9} {:>7} | {:>7.0} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
                arm.label(),
                us(r.measured_p99),
                c.p99_ratio(*arm)
                    .map(|x| format!("{x:.1}x"))
                    .unwrap_or_else(|| "n/a".into()),
                r.achieved_rps,
                r.timeouts,
                r.retries,
                r.hedges,
                r.breaker_trips,
                r.failed,
                r.dedup_hits,
            );
        }
    }
}

fn check_cell(c: &FailoverCell) {
    assert!(
        c.oracle.samples > 0 && c.oracle.failed == 0 && c.oracle.upstream_resets == 0,
        "{}: oracle run was not clean",
        c.scenario.label()
    );
    for (arm, r) in &c.arms {
        assert!(
            r.samples > 0,
            "{}: {} arm recorded no samples",
            c.scenario.label(),
            arm.label()
        );
    }
    // The fault actually bit: the defended arms observed it.
    let full = c.arm(FailoverArm::Full);
    assert!(
        full.upstream_resets + full.timeouts + full.hedges > 0,
        "{}: fault plan never engaged the full stack",
        c.scenario.label()
    );
    // The full stack holds the acceptance bound in *every* cell.
    assert!(
        c.full_within_bound(FAILOVER_BOUND_FACTOR, FAILOVER_BOUND_SLACK),
        "{}: full stack p99 {:?} / goodput {:.0} outside {FAILOVER_BOUND_FACTOR}x+{:?} of oracle p99 {:?} / goodput {:.0}",
        c.scenario.label(),
        full.measured_p99,
        full.achieved_rps,
        FAILOVER_BOUND_SLACK,
        c.oracle.measured_p99,
        c.oracle.achieved_rps,
    );
}

fn check_headline(data: &FailoverData) {
    // Somewhere in the grid the naive proxy collapsed — the ladder is
    // non-vacuous.
    assert!(
        data.cells
            .iter()
            .any(|c| c.naive_collapsed(FAILOVER_NAIVE_FACTOR)),
        "no cell pushed the naive proxy past {FAILOVER_NAIVE_FACTOR}x oracle p99"
    );
    // The defenses earned their counters: retries, hedges, and breaker
    // trips all fired somewhere.
    let (mut retries, mut hedges, mut trips, mut dedups) = (0, 0, 0, 0);
    for c in &data.cells {
        let full = c.arm(FailoverArm::Full);
        retries += full.retries + c.arm(FailoverArm::Retry).retries;
        hedges += full.hedges;
        trips += full.breaker_trips;
        dedups += full.dedup_hits + c.arm(FailoverArm::Retry).dedup_hits;
    }
    assert!(retries > 0, "no retry ever granted across the grid");
    assert!(hedges > 0, "no hedge ever granted across the grid");
    assert!(trips > 0, "no breaker ever tripped across the grid");
    assert!(dedups > 0, "idempotency window never deduplicated a write");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rate, warmup, measure) = if smoke {
        (20_000.0, Nanos::from_millis(50), Nanos::from_millis(250))
    } else {
        (30_000.0, Nanos::from_millis(200), Nanos::from_millis(800))
    };

    let data = failover(rate, 4, 4, 0.7, warmup, measure, 0xFA11);
    print_cells(&data);

    for c in &data.cells {
        check_cell(c);
    }
    if smoke {
        println!("failover smoke: OK (full stack within bound in every cell)");
    } else {
        check_headline(&data);
        std::fs::write("failover.json", to_json(&data)).expect("write failover.json");
        println!("full grid written to failover.json");
    }
}

fn point_json(r: &FailoverPointResult) -> String {
    format!(
        concat!(
            "{{\"p99_us\": {}, \"mean_us\": {}, \"achieved_rps\": {:.0}, ",
            "\"timeouts\": {}, \"retries\": {}, \"hedges\": {}, ",
            "\"breaker_trips\": {}, \"failovers\": {}, \"failed\": {}, ",
            "\"upstream_resets\": {}, \"orphans\": {}, \"dedup_hits\": {}, ",
            "\"shard_crashes\": {}}}"
        ),
        us(r.measured_p99).replace("n/a", "null"),
        us(r.measured_mean).replace("n/a", "null"),
        r.achieved_rps,
        r.timeouts,
        r.retries,
        r.hedges,
        r.breaker_trips,
        r.failovers,
        r.failed,
        r.upstream_resets,
        r.orphan_responses,
        r.dedup_hits,
        r.shard_crashes,
    )
}

fn to_json(data: &FailoverData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let arms: Vec<String> = c
                .arms
                .iter()
                .map(|(arm, r)| format!("\"{}\": {}", arm.label(), point_json(r)))
                .collect();
            format!(
                "    {{\"scenario\": \"{}\", \"oracle\": {}, {}}}",
                c.scenario.label(),
                point_json(&c.oracle),
                arms.join(", "),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"experiment\": \"failover\",\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.len(),
        rows.join(",\n")
    )
}
