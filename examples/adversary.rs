//! Adversary: adversarial metadata faults with peer-state validation.
//!
//! For each adversarial fault class (exchange-payload corruption,
//! endpoint restart) at each intensity and fan-in width, runs the two
//! static Nagle baselines plus two otherwise identical adaptive arms —
//! guarded (validation on) and exposed (validation off) — and reports
//! both against the static oracle. The guarded arm must stay within the
//! chaos degradation bound; the exposed arm demonstrates why: without
//! validation, garbled or restart-spanning windows poison the estimate
//! the policy acts on.
//!
//! ```sh
//! cargo run --release --example adversary            # full grid + adversary.json
//! cargo run --release --example adversary -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{
    adversary, AdversaryCell, AdversaryClass, AdversaryData, CHAOS_BOUND_FACTOR as BOUND_FACTOR,
    CHAOS_BOUND_SLACK as BOUND_SLACK,
};
use e2e_apps::report::{json_us, us};
use littles::Nanos;

fn ratio(r: Option<f64>) -> String {
    r.map(|r| format!("{r:.2}")).unwrap_or_else(|| "n/a".into())
}

fn print_cells(data: &AdversaryData) {
    println!(
        "{:>3} {:>8} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>6} | {:>7} {:>6} {:>5}",
        "N",
        "class",
        "int",
        "off-p99",
        "on-p99",
        "guard-p99",
        "expo-p99",
        "oracle",
        "g-rat",
        "e-rat",
        "rejects",
        "epochs",
        "trips"
    );
    println!("{}", "-".repeat(116));
    for c in &data.cells {
        let v = c.guarded.validation.unwrap_or_default();
        println!(
            "{:>3} {:>8} {:>5.2} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>6} | {:>7} {:>6} {:>5}",
            c.num_clients,
            c.class.name(),
            c.intensity,
            us(c.off.measured_p99),
            us(c.on.measured_p99),
            us(c.guarded.measured_p99),
            us(c.exposed.measured_p99),
            us(c.oracle_p99()),
            ratio(c.regression()),
            ratio(c.exposed_regression()),
            v.rejected,
            v.epoch_changes,
            c.guarded.client_breaker_trips.unwrap_or(0)
                + c.guarded.server_breaker_trips.unwrap_or(0),
        );
    }
}

/// Extra slack for the smoke gate only. The 150 ms smoke window holds
/// just a handful of restart/recovery cycles, so the guarded P99 lands
/// inside the recovery transient instead of averaging over it the way
/// the 600 ms full grid does; the wider slack absorbs that sampling
/// noise without loosening the full-grid bound.
const SMOKE_EXTRA_SLACK: Nanos = Nanos::from_micros(300);

fn check_cell(c: &AdversaryCell, slack: Nanos) {
    let tag = format!("{}/{:.2}/N={}", c.class.name(), c.intensity, c.num_clients);
    for (label, p) in [
        ("off", &c.off),
        ("on", &c.on),
        ("guarded", &c.guarded),
        ("exposed", &c.exposed),
    ] {
        assert!(
            p.samples > 0,
            "{tag} [{label}]: no samples survived the faults"
        );
    }
    // The fault layer must actually have hit the metadata path — an
    // adversary run where nothing was garbled or restarted gates nothing.
    match c.class {
        AdversaryClass::Corrupt => {
            let corrupted: u64 = c.guarded.link_faults.iter().map(|f| f.corruptions).sum();
            assert!(corrupted > 0, "{tag}: no exchange was ever corrupted");
            let v = c.guarded.validation.expect("guarded arm validates");
            assert!(
                v.rejected > 0,
                "{tag}: corruption fired {corrupted} times but the validator rejected nothing"
            );
        }
        AdversaryClass::Restart => {
            assert!(
                c.guarded.fault_restarts > 0,
                "{tag}: no restart was ever injected"
            );
            assert!(
                c.guarded.client_restarts > 0,
                "{tag}: clients never observed a restart"
            );
            let v = c.guarded.validation.expect("guarded arm validates");
            assert!(
                v.epoch_changes > 0,
                "{tag}: restarts fired but no epoch change was detected"
            );
            // Recovery, not just survival: the guarded arm must keep
            // serving a solid majority of the offered load across every
            // die/reconnect/resync cycle.
            assert!(
                c.guarded.achieved_rps > 0.5 * c.guarded.offered_rps,
                "{tag}: guarded arm served only {:.0}/{:.0} rps across restarts",
                c.guarded.achieved_rps,
                c.guarded.offered_rps
            );
        }
    }
    assert!(
        c.within_bound(BOUND_FACTOR, slack),
        "{tag}: guarded p99 {:?} exceeds {BOUND_FACTOR}x oracle {:?} + {slack}",
        c.guarded.measured_p99,
        c.oracle_p99()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (classes, intensities, ns, rate, warmup, measure) = if smoke {
        (
            AdversaryClass::ALL.to_vec(),
            vec![1.0],
            vec![1usize],
            95_000.0,
            Nanos::from_millis(50),
            Nanos::from_millis(150),
        )
    } else {
        (
            AdversaryClass::ALL.to_vec(),
            vec![0.5, 1.0],
            vec![1usize, 2],
            95_000.0,
            Nanos::from_millis(200),
            Nanos::from_millis(600),
        )
    };

    let data = adversary(&classes, &intensities, &ns, rate, warmup, measure, 0xC405);
    print_cells(&data);
    println!(
        "\nworst guarded-vs-oracle P99 ratio: {}",
        ratio(data.worst_regression())
    );

    if smoke {
        let slack = BOUND_SLACK + SMOKE_EXTRA_SLACK;
        for c in &data.cells {
            check_cell(c, slack);
        }
        // Validation must be load-bearing on this grid: at least one
        // exposed arm (same policy, validator off) must break the bound
        // the guarded arms all satisfy.
        assert!(
            data.poisoning_demonstrated(BOUND_FACTOR, slack),
            "every exposed arm stayed within the bound — validation is not load-bearing here"
        );
        println!("adversary smoke: OK (corrupt + restart, N=1, validation load-bearing)");
    } else {
        std::fs::write("adversary.json", to_json(&data)).expect("write adversary.json");
        println!("full grid written to adversary.json");
    }
}

/// Hand-rolled JSON (the workspace has no registry dependencies): one
/// object per cell with all four P99s, both oracle ratios, the guarded
/// arm's validation counters, and the restart/corruption tallies.
fn to_json(data: &AdversaryData) -> String {
    fn num(v: Option<f64>) -> String {
        v.map(|r| format!("{r:.3}")).unwrap_or_else(|| "null".into())
    }
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let v = c.guarded.validation.unwrap_or_default();
            let corrupted: u64 = c.guarded.link_faults.iter().map(|f| f.corruptions).sum();
            format!(
                concat!(
                    "    {{\"class\": \"{}\", \"intensity\": {}, \"num_clients\": {}, ",
                    "\"off_p99_us\": {}, \"on_p99_us\": {}, ",
                    "\"guarded_p99_us\": {}, \"exposed_p99_us\": {}, ",
                    "\"oracle_p99_us\": {}, \"regression\": {}, \"exposed_regression\": {}, ",
                    "\"breaker_trips\": {}, \"corruptions\": {}, \"restarts\": {}, ",
                    "\"validation\": {{\"accepted\": {}, \"rejected\": {}, ",
                    "\"epoch_changes\": {}}}}}"
                ),
                c.class.name(),
                c.intensity,
                c.num_clients,
                json_us(c.off.measured_p99),
                json_us(c.on.measured_p99),
                json_us(c.guarded.measured_p99),
                json_us(c.exposed.measured_p99),
                json_us(c.oracle_p99()),
                num(c.regression()),
                num(c.exposed_regression()),
                c.guarded.client_breaker_trips.unwrap_or(0)
                    + c.guarded.server_breaker_trips.unwrap_or(0),
                corrupted,
                c.guarded.fault_restarts,
                v.accepted,
                v.rejected,
                v.epoch_changes,
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"experiment\": \"adversary\",\n  \"bound_factor\": {BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}
