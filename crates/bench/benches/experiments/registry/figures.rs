//! The paper's figures (1, 2, 4a, 4b) and its §5 sketches (dynamic
//! toggling, AIMD batch limits, the design-knob ablations). Figure 4 and
//! the two §5 sweeps emit JSON; the rest print the series their figure
//! plots and are pinned by `tests/figure_shapes.rs`,
//! `tests/dynamic_policy.rs` and `tests/aimd_limit.rs`.

use batchpolicy::{figure1_model, AimdBatchLimit, Figure1Params, Objective};
use bench::params::{MEASURE, SEED, WARMUP};
use bench::{Doc, Json};
use e2e_apps::experiments::{self, PAPER_SLO};
use e2e_apps::report::us;
use e2e_apps::runner::Overrides;
use e2e_apps::{run_point, NagleSetting, PointResult, RunConfig, WorkloadSpec};
use e2e_core::{DelaySet, Estimate};
use littles::Nanos;

use super::{json_rate, json_ratio, sweep, windows, Gates};

/// The Figure 4 rate grid (requests/second), spanning from well below the
/// measured cutoff (~75 kRPS) past both knees (no-Nagle ≈ 88 kRPS, Nagle
/// ≈ 115 kRPS with the calibrated profile).
const FIG4_RATES: [f64; 16] = [
    5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 65_000.0, 70_000.0,
    75_000.0, 80_000.0, 85_000.0, 88_000.0, 95_000.0, 105_000.0, 115_000.0,
];

/// Figure 1, the paper's motivating example, exactly: n = 3 requests
/// queued at the server, per-request cost α = 2, per-batch cost β = 4,
/// and a client-side processing cost c that the server cannot observe. As
/// c grows the optimal decision flips — with the server-side activity
/// identical throughout. Closed-form, so both modes run the same rows.
pub(crate) fn fig1(_smoke: bool, gates: &mut Gates) -> Option<Doc> {
    println!("n = 3 queued requests, per-request α = 2, per-batch β = 4 (model time units)\n");
    println!(
        "{:>3} | {:>12} {:>12} | {:>12} {:>12} | outcome",
        "c", "batch lat", "nobatch lat", "batch tput", "nobatch tput"
    );
    for c in 0..=6 {
        let out = figure1_model(Figure1Params::paper(c as f64));
        let outcome = match (
            out.batching_improves_latency(),
            out.batching_improves_throughput(),
        ) {
            (true, true) => "batching improves BOTH (Fig 1a)",
            (false, true) => "throughput up, latency down (Fig 1c)",
            (false, false) => "batching degrades BOTH (Fig 1b)",
            (true, false) => "latency up, throughput down",
        };
        println!(
            "{c:>3} | {:>12.2} {:>12.2} | {:>12.4} {:>12.4} | {outcome}",
            out.batched.avg_latency,
            out.unbatched.avg_latency,
            out.batched.throughput,
            out.unbatched.throughput,
        );
    }
    println!(
        "\nThe server's timeline is identical in every row — only the client's c\n\
         differs, which is why the sender cannot decide alone (paper §2)."
    );

    // The three regimes must appear in order as c sweeps.
    let regimes: Vec<(bool, bool)> = (0..=10)
        .map(|half_c| {
            let out = figure1_model(Figure1Params::paper(half_c as f64 / 2.0));
            (
                out.batching_improves_latency(),
                out.batching_improves_throughput(),
            )
        })
        .collect();
    let improving = regimes.iter().take_while(|r| r.0 && r.1).count();
    let degrading = regimes.iter().rev().take_while(|r| !r.0 && !r.1).count();
    println!(
        "regimes over c ∈ [0, 5] (0.5 steps): {improving} both-better, {degrading} both-worse, \
         mixed between"
    );
    gate!(
        gates,
        improving >= 1 && degrading >= 1,
        "a regime is missing: {improving} both-better, {degrading} both-worse"
    );
    None
}

/// Figure 2: the fixed-rate workload (20 kRPS, 4 KiB SETs) with the
/// client on "bare metal" and "inside a VM" (application-CPU multiplier),
/// Nagle on and off — (a) client CPU, (b) server CPU, (c) the batching
/// outcome per platform.
pub(crate) fn fig2(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    let (warmup, measure) = windows(smoke);
    let data = experiments::figure2(20_000.0, warmup, measure, SEED);
    println!(
        "{:>5} {:>6} | {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "plat", "nagle", "latency-us", "cli-app", "cli-sirq", "srv-app", "srv-sirq"
    );
    for cell in &data.cells {
        let (r, nagle) = (&cell.result, if cell.nagle_on { "on" } else { "off" });
        println!(
            "{:>5} {nagle:>6} | {:>10} | {:>8.0}% {:>8.0}% | {:>8.0}% {:>8.0}%",
            cell.platform,
            us(r.measured_mean),
            r.client_cpu.app * 100.0,
            r.client_cpu.softirq * 100.0,
            r.server_cpu.app * 100.0,
            r.server_cpu.softirq * 100.0,
        );
    }
    let (client, server) = (data.client_cpu_ratio(), data.server_cpu_ratio());
    println!("\n(a) client CPU vm/bare: {client:.2}x  (paper: VM uses significantly more)");
    println!("(b) server CPU vm/bare: {server:.2}x  (paper: unchanged — same workload)");
    println!(
        "(c) Nagle helps bare: {}, helps VM: {} (see EXPERIMENTS.md)",
        data.nagle_helps("bare"),
        data.nagle_helps("vm")
    );
    // Cells are (bare off, bare on, vm off, vm on).
    let mean = |i: usize| {
        data.cells[i]
            .result
            .measured_mean
            .map_or(f64::NAN, |m| m.as_micros_f64())
    };
    println!(
        "    Nagle penalty (on − off): bare {:+.1} µs vs VM {:+.1} µs — the client's cost\n    \
         shifts the batching tradeoff even though the server sees the same load.",
        mean(1) - mean(0),
        mean(3) - mean(2)
    );
    None
}

/// Figure 4a: SET-only, where the byte-estimated cutoff should coincide
/// with the measured one.
pub(crate) fn fig4a(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    fig4(
        smoke,
        "4a",
        WorkloadSpec::fig4a,
        0xF4A,
        "paper 4a: these coincide",
    )
}

/// Figure 4b: the 95:5 SET:GET mix, where the 16 KiB GET responses
/// dominate the byte counters while message units and hints stay faithful.
pub(crate) fn fig4b(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    let note = "paper 4b: these diverge — bytes mislead on mixed sizes";
    fig4(smoke, "4b", WorkloadSpec::fig4b, 0xF4B, note)
}

/// Measured mean latency under Nagle off/on next to the byte-unit
/// estimates (the paper's prototype), the message-unit estimates and the
/// hint-based estimates, then the headline numbers: SLO-sustainable range
/// per configuration, extension factor (paper 4a: ≈ 1.93×), and whether
/// the estimated cutoff coincides with the measured one. The smoke grid
/// is a coarse five-point sweep over shorter windows.
fn fig4(
    smoke: bool,
    variant: &str,
    spec_at: fn(f64) -> WorkloadSpec,
    smoke_seed: u64,
    cutoff_note: &str,
) -> Option<Doc> {
    let data = if smoke {
        let rates = [10_000.0, 40_000.0, 70_000.0, 85_000.0, 105_000.0];
        let window = (Nanos::from_millis(100), Nanos::from_millis(300));
        sweep(&rates, spec_at, 1, window, smoke_seed, false)
    } else {
        sweep(&FIG4_RATES, spec_at, 1, (WARMUP, MEASURE), SEED, false)
    };
    let sustainable_off = data.sustainable_rate(PAPER_SLO, |r| &r.off);
    let sustainable_on = data.sustainable_rate(PAPER_SLO, |r| &r.on);
    let extension_factor = match (sustainable_off, sustainable_on) {
        (Some(off), Some(on)) if off > 0.0 => Some(on / off),
        _ => None,
    };
    let (cutoff_measured, cutoff_estimated) = (data.cutoff_rate(), data.estimated_cutoff_rate());
    println!(
        "{:>8} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9}",
        "rate",
        "off-meas",
        "off-byte",
        "off-msg",
        "off-hint",
        "on-meas",
        "on-byte",
        "on-msg",
        "on-hint"
    );
    let columns = |p: &PointResult| {
        [
            p.measured_mean,
            p.estimated_bytes,
            p.estimated_messages,
            p.estimated_hint,
        ]
    };
    let point_json = |p: &PointResult| {
        let keys = [
            "measured_us",
            "est_bytes_us",
            "est_messages_us",
            "est_hint_us",
        ];
        Json::obj(keys.into_iter().zip(columns(p).map(Json::us)))
    };
    let mut rows = Vec::new();
    for row in &data.rows {
        let (off, on) = (columns(&row.off).map(us), columns(&row.on).map(us));
        println!(
            "{:>8.0} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9}",
            row.rate_rps, off[0], off[1], off[2], off[3], on[0], on[1], on[2], on[3]
        );
        rows.push(Json::obj([
            ("rate_rps", Json::fixed(row.rate_rps, 0)),
            ("off", point_json(&row.off)),
            ("on", point_json(&row.on)),
        ]));
    }
    println!(
        "\nSLO (500 µs) sustainable: off = {sustainable_off:?}, on = {sustainable_on:?}, \
         extension = {:.2}x",
        extension_factor.unwrap_or(f64::NAN)
    );
    println!(
        "cutoff (Nagle starts winning): measured = {cutoff_measured:?}, byte-estimated = \
         {cutoff_estimated:?} ({cutoff_note})"
    );
    let header = vec![
        ("variant", variant.into()),
        ("slo_us", Json::fixed(PAPER_SLO.as_micros_f64(), 1)),
        ("sustainable_off_rps", json_rate(sustainable_off)),
        ("sustainable_on_rps", json_rate(sustainable_on)),
        ("extension_factor", json_ratio(extension_factor)),
        ("cutoff_measured_rps", json_rate(cutoff_measured)),
        ("cutoff_estimated_rps", json_rate(cutoff_estimated)),
    ];
    Some(Doc {
        version: 1,
        header,
        sections: vec![("rows", Json::Arr(rows))],
    })
}

/// The paper's §5 proposal, end to end: at each offered load, the two
/// static configurations against per-endpoint ε-greedy togglers driven by
/// live end-to-end estimates. The dynamic policy should track — and
/// thanks to per-endpoint asymmetry sometimes beat — the better static
/// setting at every load. Each JSON row holds the three mean latencies
/// and the dynamic arm's per-endpoint on-fractions.
pub(crate) fn dynamic_toggle(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    let rates: &[f64] = if smoke {
        &[40_000.0, 85_000.0]
    } else {
        &[10_000.0, 40_000.0, 70_000.0, 85_000.0, 100_000.0]
    };
    let data = sweep(rates, WorkloadSpec::fig4a, 1, windows(smoke), SEED, true);
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>8} {:>8} | winner",
        "rate", "off", "on", "dynamic", "cli-on%", "srv-on%"
    );
    let mut rows = Vec::new();
    for row in &data.rows {
        let dynamic = row.dynamic.as_ref().expect("dynamic included");
        let (off, on, dy) = (
            row.off.measured_mean,
            row.on.measured_mean,
            dynamic.measured_mean,
        );
        // An arm that measured nothing collapsed: it loses to anything.
        let cost = |mean: Option<Nanos>| mean.unwrap_or(Nanos::MAX);
        let winner = if cost(dy) <= cost(off).min(cost(on)) {
            "dynamic"
        } else if cost(off) < cost(on) {
            "static off"
        } else {
            "static on"
        };
        println!(
            "{:>8.0} | {:>10} {:>10} {:>10} | {:>7.0}% {:>7.0}% | {winner}",
            row.rate_rps,
            us(off),
            us(on),
            us(dy),
            dynamic.client_on_fraction.unwrap_or(0.0) * 100.0,
            dynamic.server_on_fraction.unwrap_or(0.0) * 100.0,
        );
        rows.push(Json::obj([
            ("rate_rps", Json::fixed(row.rate_rps, 0)),
            ("off_us", Json::us(off)),
            ("on_us", Json::us(on)),
            ("dynamic_us", Json::us(dy)),
            ("client_on_fraction", json_ratio(dynamic.client_on_fraction)),
            ("server_on_fraction", json_ratio(dynamic.server_on_fraction)),
        ]));
    }
    println!(
        "\nEach endpoint runs its own ε-greedy bandit over its own estimates, so the dynamic\n\
         column should track min(off, on) at every rate — and can beat both by settling on\n\
         asymmetric per-endpoint settings."
    );
    Some(Doc {
        version: 1,
        header: vec![],
        sections: vec![("rows", Json::Arr(rows))],
    })
}

/// The §5 "Better Batching Heuristics" sketch, running: an AIMD-adapted
/// gradual batching limit instead of binary Nagle toggling. The limit
/// should shrink toward "send immediately" at low load and grow toward
/// full trains under load — without any on/off cliff. Each JSON row holds
/// the three mean latencies and the AIMD arm's mean limit. (Runs on
/// `RunConfig`'s default seed, like `tests/aimd_limit.rs`.)
pub(crate) fn aimd_limit(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    let (warmup, measure) = windows(smoke);
    let rates: &[f64] = if smoke {
        &[40_000.0, 85_000.0]
    } else {
        &[10_000.0, 40_000.0, 70_000.0, 85_000.0, 95_000.0]
    };
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>12}",
        "rate", "off", "on", "aimd", "mean limit B"
    );
    let mut rows = Vec::new();
    for &rate in rates {
        let point = |nagle| {
            let base = RunConfig::new(WorkloadSpec::fig4a(rate), nagle);
            run_point(&RunConfig {
                warmup,
                measure,
                ..base
            })
        };
        let (off, on) = (point(NagleSetting::Off), point(NagleSetting::On));
        let aimd = point(NagleSetting::AimdLimit {
            objective: Objective::MinLatency,
        });
        println!(
            "{rate:>8.0} | {:>10} {:>10} {:>10} | {:>12.0}",
            us(off.measured_mean),
            us(on.measured_mean),
            us(aimd.measured_mean),
            aimd.aimd_mean_limit.unwrap_or(f64::NAN),
        );
        rows.push(Json::obj([
            ("rate_rps", Json::fixed(rate, 0)),
            ("off_us", Json::us(off.measured_mean)),
            ("on_us", Json::us(on.measured_mean)),
            ("aimd_us", Json::us(aimd.measured_mean)),
            (
                "mean_limit_bytes",
                Json::opt(aimd.aimd_mean_limit, |l| Json::fixed(l, 0)),
            ),
        ]));
    }
    println!(
        "\nAIMD adapts a byte threshold (1 B … 64 KiB) by additive increase on improvement\n\
         and multiplicative decrease on regression — the paper's congestion-control-style\n\
         alternative to on/off toggling."
    );
    Some(Doc {
        version: 1,
        header: vec![],
        sections: vec![("rows", Json::Arr(rows))],
    })
}

/// §5 ablations — the design knobs the paper calls out as open
/// questions: toggling granularity (decision period), estimate smoothing
/// (EWMA weight), metadata-exchange frequency, the other stack batching
/// mechanisms (TSO, auto-corking, delayed-ACK timeout) toggled one at a
/// time, and the AIMD batch-limit controller on synthetic feedback.
pub(crate) fn ablations(smoke: bool, _gates: &mut Gates) -> Option<Doc> {
    const RATE: f64 = 85_000.0;
    let (warmup, measure) = windows(smoke);
    let point = |nagle: NagleSetting, overrides: Overrides| {
        let base = RunConfig::new(WorkloadSpec::fig4a(RATE), nagle);
        run_point(&RunConfig {
            warmup,
            measure,
            seed: SEED,
            overrides,
            ..base
        })
    };
    let dynamic = NagleSetting::dynamic(Objective::MinLatency);
    let none = Overrides::default();
    let (us100, ms1) = (Nanos::from_micros(100), Nanos::from_millis(1));

    println!("--- toggling granularity (dynamic policy decision period) ---");
    println!("{:>10} | {:>10} | note", "period", "latency µs");
    for (label, period) in [
        ("100µs", us100),
        ("1ms", ms1),
        ("10ms", Nanos::from_millis(10)),
    ] {
        let r = point(
            dynamic,
            Overrides {
                policy_tick: Some(period),
                ..none
            },
        );
        println!(
            "{label:>10} | {:>10} | client on-fraction {:.0}%",
            us(r.measured_mean),
            r.client_on_fraction.unwrap_or(0.0) * 100.0
        );
    }
    println!("(paper: finer reacts faster, coarser resists noise; ~kernel tick suggested)\n");

    println!("--- estimate smoothing (per-arm score EWMA weight α) ---");
    println!("{:>6} | {:>10}", "alpha", "latency µs");
    for alpha in [1.0, 0.4, 0.1] {
        let r = point(
            dynamic,
            Overrides {
                score_alpha: Some(alpha),
                ..none
            },
        );
        println!("{alpha:>6.1} | {:>10}", us(r.measured_mean));
    }

    println!("\n--- metadata-exchange interval (estimate health vs chatter) ---");
    println!(
        "{:>10} | {:>10} {:>10} {:>10} | exchanges",
        "interval", "meas µs", "byte-est", "hint-est"
    );
    let (us500, ms5) = (Nanos::from_micros(500), Nanos::from_millis(5));
    for (label, interval) in [("100µs", us100), ("500µs", us500), ("5ms", ms5)] {
        let r = point(
            NagleSetting::Off,
            Overrides {
                exchange_interval: Some(interval),
                ..none
            },
        );
        println!(
            "{label:>10} | {:>10} {:>10} {:>10} | {}",
            us(r.measured_mean),
            us(r.estimated_bytes),
            us(r.estimated_hint),
            r.exchanges_received
        );
    }
    println!("(paper: \"Little's law estimates remain accurate regardless\")\n");

    println!("--- other batching mechanisms, one at a time (Nagle on) ---");
    println!("{:>22} | {:>10} | pkts→srv", "variant", "latency µs");
    let variants = [
        ("baseline", none),
        (
            "TSO off",
            Overrides {
                tso: Some(false),
                ..none
            },
        ),
        (
            "auto-cork on",
            Overrides {
                autocork: Some(true),
                ..none
            },
        ),
        (
            "delack timeout 1ms",
            Overrides {
                delack_timeout: Some(ms1),
                ..none
            },
        ),
    ];
    for (label, overrides) in variants {
        let r = point(NagleSetting::On, overrides);
        println!(
            "{label:>22} | {:>10} | {}",
            us(r.measured_mean),
            r.packets_to_server
        );
    }

    println!("\n--- AIMD batch-limit controller (synthetic feedback) ---");
    let mut aimd = AimdBatchLimit::new(Objective::MinLatency, 4_096, 1_448, 65_536, 1_448);
    let mut trajectory = Vec::new();
    for tick in 0..40u64 {
        // Latency improves while the limit is below 32 KiB, then regresses.
        let latency = match aimd.limit() {
            limit if limit <= 32_768 => 300 - tick.min(200),
            limit => 500 + limit / 200,
        };
        let est = Estimate {
            at: Nanos::from_millis(tick),
            latency: Nanos::from_micros(latency),
            smoothed_latency: Nanos::from_micros(latency),
            throughput: RATE,
            local_view: Nanos::ZERO,
            remote_view: Nanos::ZERO,
            confidence: 1.0,
            remote_stale: false,
            components: DelaySet::default(),
        };
        trajectory.push(aimd.update(&est));
    }
    println!("limit trajectory (bytes): {trajectory:?}");
    println!(
        "increases {} / decreases {} — the sawtooth hugs the 32 KiB optimum",
        aimd.increases(),
        aimd.decreases()
    );
    None
}
