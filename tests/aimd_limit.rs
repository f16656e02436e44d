//! The §5 "Better Batching Heuristics" result: an AIMD-adapted gradual
//! batch limit tracks — and in the mid-range beats — the best static
//! Nagle setting, because a byte threshold can sit anywhere between
//! "send immediately" and "full trains" while on/off cannot.

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};
use e2e_batching::littles::Nanos;

fn cfg(rate: f64, nagle: NagleSetting) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(200),
        measure: Nanos::from_millis(600),
        ..RunConfig::new(WorkloadSpec::fig4a(rate), nagle)
    }
}

fn aimd() -> NagleSetting {
    NagleSetting::AimdLimit {
        objective: Objective::MinLatency,
    }
}

#[test]
fn aimd_beats_both_statics_in_the_mid_range() {
    let rate = 70_000.0;
    let off = run_point(&cfg(rate, NagleSetting::Off));
    let on = run_point(&cfg(rate, NagleSetting::On));
    let a = run_point(&cfg(rate, aimd()));
    let us =
        |r: &e2e_batching::e2e_apps::PointResult| r.measured_mean.expect("samples").as_micros_f64();
    assert!(
        us(&a) < us(&off) && us(&a) < us(&on),
        "AIMD {:.1} should beat off {:.1} and on {:.1} at {rate}",
        us(&a),
        us(&off),
        us(&on)
    );
}

#[test]
fn aimd_stays_close_to_nodelay_at_low_load() {
    let rate = 10_000.0;
    let off = run_point(&cfg(rate, NagleSetting::Off));
    let on = run_point(&cfg(rate, NagleSetting::On));
    let a = run_point(&cfg(rate, aimd()));
    let us =
        |r: &e2e_batching::e2e_apps::PointResult| r.measured_mean.expect("samples").as_micros_f64();
    // Far closer to the NODELAY winner than to the Nagle loser.
    assert!(us(&a) < us(&off) + (us(&on) - us(&off)) * 0.25);
}

#[test]
fn aimd_avoids_the_nodelay_collapse() {
    let rate = 95_000.0;
    let off = run_point(&cfg(rate, NagleSetting::Off));
    let a = run_point(&cfg(rate, aimd()));
    let off_us = off.measured_mean.expect("samples").as_micros_f64();
    let a_us = a.measured_mean.expect("samples").as_micros_f64();
    assert!(off_us > 10_000.0, "sanity: NODELAY collapses at {rate}");
    assert!(a_us < 1_000.0, "AIMD must stay sane, got {a_us:.0} µs");
}

#[test]
fn aimd_limit_actually_adapts() {
    let r = run_point(&cfg(70_000.0, aimd()));
    let mean = r.aimd_mean_limit.expect("AIMD ran");
    // Between the extremes: neither pinned at 1 B (pure NODELAY) nor at
    // the 64 KiB cap (pure batching).
    assert!(
        mean > 100.0 && mean < 60_000.0,
        "limit should settle between the extremes, got {mean:.0}"
    );
    // The gate fired.
    assert!(r.nagle_holds == 0, "AIMD replaces Nagle, not stacks on it");
}
