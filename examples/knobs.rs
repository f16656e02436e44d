//! Knobs: the multi-knob control plane against the static knob cube.
//!
//! For each client per-response cost `c` and fan-in width `N`, runs all
//! eight static corners of (Nagle × delayed-ACK × cork-limit), the
//! Nagle-only adaptive plane (the paper's single-knob policy), and the
//! joint adaptive plane driving all three knobs from one routed
//! estimate. Reports the joint plane's P99 against the best static
//! corner — the omniscient operator's pick for that cell.
//!
//! ```sh
//! cargo run --release --example knobs            # full grid + knobs.json
//! cargo run --release --example knobs -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{
    knobs, KnobsCell, KnobsData, KNOBS_BOUND_FACTOR as BOUND_FACTOR,
    KNOBS_BOUND_SLACK as BOUND_SLACK,
};
use e2e_apps::report::{json_us, us};
use littles::Nanos;

fn print_cells(data: &KnobsData) {
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
    println!("{}", "-".repeat(104));
    for c in &data.cells {
        println!(
            "{:>6.1} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
            c.client_cost.as_micros_f64(),
            c.num_clients,
            us(c.best_corner_p99()),
            c.best_corner_label().unwrap_or_else(|| "n/a".into()),
            us(c.nagle_only.measured_p99),
            us(c.joint.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            c.joint.plane_nagle_switches.unwrap_or(0),
            c.joint.plane_delack_switches.unwrap_or(0),
            c.joint.plane_cork_switches.unwrap_or(0),
            c.joint.plane_explorations.unwrap_or(0),
        );
    }
}

fn check_cell(c: &KnobsCell) {
    for corner in &c.corners {
        assert!(
            corner.result.samples > 0,
            "c={}/N={} corner {}: no samples",
            c.client_cost,
            c.num_clients,
            corner.label()
        );
    }
    assert!(
        c.within_bound(BOUND_FACTOR, BOUND_SLACK),
        "c={}/N={}: joint p99 {:?} exceeds {BOUND_FACTOR}x best corner {:?} + {BOUND_SLACK}",
        c.client_cost,
        c.num_clients,
        c.joint.measured_p99,
        c.best_corner_p99()
    );
    // The plane must actually have been live on every knob.
    assert!(c.joint.plane_nagle_switches.is_some());
    assert!(
        c.joint.plane_explorations.unwrap_or(0) > 0,
        "c={}/N={}: the joint plane never explored",
        c.client_cost,
        c.num_clients
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (costs, ns, rate, warmup, measure) = if smoke {
        (
            vec![Nanos::from_micros(4)],
            vec![8usize],
            24_000.0,
            Nanos::from_millis(50),
            Nanos::from_millis(150),
        )
    } else {
        (
            vec![
                Nanos::from_nanos(300),
                Nanos::from_micros(4),
                Nanos::from_micros(12),
            ],
            vec![1usize, 4, 8],
            24_000.0,
            Nanos::from_millis(200),
            Nanos::from_millis(600),
        )
    };

    let data = knobs(&costs, &ns, rate, warmup, measure, 0xBE7C);
    print_cells(&data);
    println!(
        "\nworst joint-vs-best-corner P99 ratio: {}",
        data.worst_regression()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "n/a".into())
    );

    if smoke {
        for c in &data.cells {
            check_cell(c);
        }
        println!("knobs smoke: OK (c=4us, N=8, joint plane within bound)");
    } else {
        // The headline claim: on the hardest cell (highest c and N —
        // where the Nagle/delayed-ACK interaction bites), the joint
        // plane must strictly beat the Nagle-only plane.
        let high = data.high_cell().expect("non-empty grid");
        assert!(
            high.joint_beats_nagle_only(),
            "high cell c={}/N={}: joint {:?} does not beat nagle-only {:?}",
            high.client_cost,
            high.num_clients,
            high.joint.measured_p99,
            high.nagle_only.measured_p99
        );
        std::fs::write("knobs.json", to_json(&data)).expect("write knobs.json");
        println!("full grid written to knobs.json");
    }
}

/// Hand-rolled JSON (the workspace has no registry dependencies): one
/// object per cell with every corner's P99, the two adaptive P99s, the
/// regression ratio, and the joint plane's per-knob counters.
fn to_json(data: &KnobsData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            let corners: Vec<String> = c
                .corners
                .iter()
                .map(|k| format!("\"{}\": {}", k.label(), json_us(k.result.measured_p99)))
                .collect();
            format!(
                concat!(
                    "    {{\"client_cost_us\": {:.1}, \"num_clients\": {}, ",
                    "\"corners\": {{{}}}, \"best_corner\": \"{}\", ",
                    "\"best_corner_p99_us\": {}, \"nagle_only_p99_us\": {}, ",
                    "\"joint_p99_us\": {}, \"regression\": {}, ",
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
                c.joint.plane_nagle_switches.unwrap_or(0),
                c.joint.plane_delack_switches.unwrap_or(0),
                c.joint.plane_cork_switches.unwrap_or(0),
                c.joint.plane_explorations.unwrap_or(0),
                c.joint
                    .plane_cork_limit
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"experiment\": \"knobs\",\n  \"bound_factor\": {BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    )
}
