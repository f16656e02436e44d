//! §5 ablations: the design knobs the paper calls out as open questions.
//!
//! * toggling granularity (decision period),
//! * estimate smoothing (EWMA weight),
//! * metadata-exchange frequency,
//! * AIMD batch limits (the "better batching heuristics" sketch),
//! * and the other stack batching mechanisms (TSO, auto-corking, delayed
//!   ACK timeout) toggled one at a time.
//!
//! ```sh
//! cargo bench -p bench --bench ablations
//! ```

use batchpolicy::{AimdBatchLimit, Objective};
use bench::params::SEED;
use e2e_apps::runner::Overrides;
use e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};
use e2e_core::{DelaySet, Estimate};
use littles::Nanos;

const RATE: f64 = 85_000.0;

fn cfg(nagle: NagleSetting, overrides: Overrides) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(200),
        measure: Nanos::from_millis(600),
        seed: SEED,
        overrides,
        ..RunConfig::new(WorkloadSpec::fig4a(RATE), nagle)
    }
}

fn us(n: Option<Nanos>) -> f64 {
    n.map(|v| v.as_micros_f64()).unwrap_or(f64::NAN)
}

fn dynamic() -> NagleSetting {
    NagleSetting::dynamic(Objective::MinLatency)
}

fn main() {
    println!("=== §5 ablations (16 KiB SETs @ {RATE:.0} req/s) ===\n");

    println!("--- toggling granularity (dynamic policy decision period) ---");
    println!("{:>10} | {:>10} | note", "period", "latency µs");
    for (label, period) in [
        ("100µs", Nanos::from_micros(100)),
        ("1ms", Nanos::from_millis(1)),
        ("10ms", Nanos::from_millis(10)),
    ] {
        let r = run_point(&cfg(
            dynamic(),
            Overrides {
                policy_tick: Some(period),
                ..Overrides::default()
            },
        ));
        println!(
            "{:>10} | {:>10.1} | client on-fraction {:.0}%",
            label,
            us(r.measured_mean),
            r.client_on_fraction.unwrap_or(0.0) * 100.0
        );
    }
    println!("(paper: finer reacts faster, coarser resists noise; ~kernel tick suggested)\n");

    println!("--- estimate smoothing (per-arm score EWMA weight α) ---");
    println!("{:>6} | {:>10}", "alpha", "latency µs");
    for alpha in [1.0, 0.4, 0.1] {
        let r = run_point(&cfg(
            dynamic(),
            Overrides {
                score_alpha: Some(alpha),
                ..Overrides::default()
            },
        ));
        println!("{:>6.1} | {:>10.1}", alpha, us(r.measured_mean));
    }
    println!();

    println!("--- metadata-exchange interval (estimate health vs chatter) ---");
    println!(
        "{:>10} | {:>10} {:>10} {:>10} | exchanges",
        "interval", "meas µs", "byte-est", "hint-est"
    );
    for (label, interval) in [
        ("100µs", Nanos::from_micros(100)),
        ("500µs", Nanos::from_micros(500)),
        ("5ms", Nanos::from_millis(5)),
    ] {
        let r = run_point(&cfg(
            NagleSetting::Off,
            Overrides {
                exchange_interval: Some(interval),
                ..Overrides::default()
            },
        ));
        println!(
            "{:>10} | {:>10.1} {:>10.1} {:>10.1} | {}",
            label,
            us(r.measured_mean),
            us(r.estimated_bytes),
            us(r.estimated_hint),
            r.exchanges_received
        );
    }
    println!("(paper: \"Little's law estimates remain accurate regardless\")\n");

    println!("--- other batching mechanisms, one at a time (Nagle on) ---");
    println!("{:>22} | {:>10} | pkts→srv", "variant", "latency µs");
    for (label, overrides) in [
        ("baseline", Overrides::default()),
        (
            "TSO off",
            Overrides {
                tso: Some(false),
                ..Overrides::default()
            },
        ),
        (
            "auto-cork on",
            Overrides {
                autocork: Some(true),
                ..Overrides::default()
            },
        ),
        (
            "delack timeout 1ms",
            Overrides {
                delack_timeout: Some(Nanos::from_millis(1)),
                ..Overrides::default()
            },
        ),
    ] {
        let r = run_point(&cfg(NagleSetting::On, overrides));
        println!(
            "{:>22} | {:>10.1} | {}",
            label,
            us(r.measured_mean),
            r.packets_to_server
        );
    }
    println!();

    println!("--- AIMD batch-limit controller (synthetic feedback) ---");
    let mut aimd = AimdBatchLimit::new(Objective::MinLatency, 4_096, 1_448, 65_536, 1_448);
    let mut trajectory = Vec::new();
    for tick in 0..40u64 {
        // Latency improves while the limit is below 32 KiB, then regresses.
        let latency = if aimd.limit() <= 32_768 {
            300 - tick.min(200)
        } else {
            500 + aimd.limit() / 200
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
}
