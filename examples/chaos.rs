//! Chaos: fault injection across the star topology with graceful
//! estimator/policy degradation.
//!
//! For each fault class (bursty loss, reorder, duplication, jitter,
//! blackout, server stall) at each intensity and fan-in width, runs the
//! two static Nagle baselines and the adaptive policy (ε-greedy dynamic
//! toggling behind a circuit breaker, estimator confidence driven by
//! snapshot staleness) and reports the adaptive P99 against the static
//! oracle — the better of the two static modes for that cell.
//!
//! ```sh
//! cargo run --release --example chaos            # full grid + chaos.json
//! cargo run --release --example chaos -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{
    chaos, ChaosCell, ChaosClass, ChaosData, CHAOS_BOUND_FACTOR as BOUND_FACTOR,
    CHAOS_BOUND_SLACK as BOUND_SLACK,
};
use e2e_apps::report::{json_us, us};
use littles::Nanos;

fn print_cells(data: &ChaosData) {
    println!(
        "{:>3} {:>12} {:>5} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {:>5} {:>6}",
        "N", "class", "int", "off-p99", "on-p99", "adap-p99", "oracle", "ratio", "trips", "faults"
    );
    println!("{}", "-".repeat(100));
    for c in &data.cells {
        let faults: u64 = c.adaptive.link_faults.iter().map(|f| f.total()).sum();
        println!(
            "{:>3} {:>12} {:>5.2} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {:>5} {:>6}",
            c.num_clients,
            c.class.name(),
            c.intensity,
            us(c.off.measured_p99),
            us(c.on.measured_p99),
            us(c.adaptive.measured_p99),
            us(c.oracle_p99()),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            c.adaptive.client_breaker_trips.unwrap_or(0)
                + c.adaptive.server_breaker_trips.unwrap_or(0),
            faults,
        );
    }
}

fn check_cell(c: &ChaosCell) {
    for (label, p) in [("off", &c.off), ("on", &c.on), ("adaptive", &c.adaptive)] {
        assert!(
            p.samples > 0,
            "{}/{:.2}/N={} [{label}]: no samples survived the faults",
            c.class.name(),
            c.intensity,
            c.num_clients
        );
    }
    // The fault layer must actually have fired for this cell — a chaos
    // run where nothing went wrong gates nothing.
    let injected: u64 = c.adaptive.link_faults.iter().map(|f| f.total()).sum();
    let stalled = c.class == ChaosClass::ServerStall || c.class == ChaosClass::Jitter;
    assert!(
        injected > 0 || stalled || !c.adaptive.fault_blackout_time.is_zero(),
        "{}/{:.2}: fault class never fired",
        c.class.name(),
        c.intensity
    );
    assert!(
        c.within_bound(BOUND_FACTOR, BOUND_SLACK),
        "{}/{:.2}/N={}: adaptive p99 {:?} exceeds {BOUND_FACTOR}x oracle {:?} + {BOUND_SLACK}",
        c.class.name(),
        c.intensity,
        c.num_clients,
        c.adaptive.measured_p99,
        c.oracle_p99()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (classes, intensities, ns, rate, warmup, measure) = if smoke {
        (
            vec![ChaosClass::Loss, ChaosClass::Blackout],
            vec![1.0],
            vec![4usize],
            40_000.0,
            Nanos::from_millis(50),
            Nanos::from_millis(150),
        )
    } else {
        (
            ChaosClass::ALL.to_vec(),
            vec![0.25, 0.5, 1.0],
            vec![4usize, 8],
            24_000.0,
            Nanos::from_millis(200),
            Nanos::from_millis(600),
        )
    };

    let data = chaos(&classes, &intensities, &ns, rate, warmup, measure, 0xC405);
    print_cells(&data);
    println!(
        "\nworst adaptive-vs-oracle P99 ratio: {}",
        data.worst_regression()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into())
    );

    if smoke {
        for c in &data.cells {
            check_cell(c);
        }
        // Loss must have dropped packets; the blackout must have darkened
        // the links for a measurable time.
        let loss = data
            .cells
            .iter()
            .find(|c| c.class == ChaosClass::Loss)
            .expect("loss cell");
        let drops: u64 = loss.off.link_faults.iter().map(|f| f.drops).sum();
        assert!(drops > 0, "loss cell dropped nothing");
        let blackout = data
            .cells
            .iter()
            .find(|c| c.class == ChaosClass::Blackout)
            .expect("blackout cell");
        assert!(!blackout.off.fault_blackout_time.is_zero());
        let dark_drops: u64 = blackout
            .off
            .link_faults
            .iter()
            .map(|f| f.blackout_drops)
            .sum();
        assert!(dark_drops > 0, "blackout windows dropped nothing");
        // The adaptive stack must actually have been live.
        for c in &data.cells {
            assert!(c.adaptive.client_on_fraction.is_some());
            assert!(c.adaptive.client_breaker_trips.is_some());
            assert!(c.adaptive.server_breaker_trips.is_some());
        }
        println!("chaos smoke: OK (loss + blackout, N=4, bounded degradation)");
    } else {
        std::fs::write("chaos.json", to_json(&data)).expect("write chaos.json");
        println!("full grid written to chaos.json");
    }
}

/// Hand-rolled JSON (the workspace has no registry dependencies): one
/// object per cell with the three P99s, the oracle ratio, breaker trips,
/// and the per-link fault counters summed over links.
fn to_json(data: &ChaosData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let f = c
                .adaptive
                .link_faults
                .iter()
                .fold(simnet::FaultCounters::default(), |acc, x| acc.merged(*x));
            format!(
                concat!(
                    "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                    "\"off_p99_us\": {}, \"on_p99_us\": {}, \"adaptive_p99_us\": {}, ",
                    "\"oracle_p99_us\": {}, \"regression\": {}, ",
                    "\"breaker_trips\": {}, ",
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
                c.adaptive.client_breaker_trips.unwrap_or(0)
                    + c.adaptive.server_breaker_trips.unwrap_or(0),
                f.drops,
                f.duplicates,
                f.reorders,
                f.blackout_drops,
                c.adaptive.fault_blackout_time.as_micros_f64(),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"experiment\": \"chaos\",\n  \"bound_factor\": {BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}
