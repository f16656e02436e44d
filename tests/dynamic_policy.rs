//! The dynamic-toggling end-to-end result (paper §4's "had they been
//! used" claim, §5's proposed mechanism, actually closed-loop here).
//!
//! Each endpoint runs an ε-greedy bandit over its live end-to-end
//! estimates and flips its own Nagle switch. The claim under test: the
//! dynamic policy stays close to the better static configuration at every
//! load — without knowing the workload in advance.

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

fn dynamic() -> NagleSetting {
    NagleSetting::dynamic(Objective::MinLatency)
}

#[test]
fn dynamic_close_to_best_static_at_low_load() {
    let off = run_point(&cfg(10_000.0, NagleSetting::Off));
    let on = run_point(&cfg(10_000.0, NagleSetting::On));
    let dy = run_point(&cfg(10_000.0, dynamic()));
    let best = off
        .measured_mean
        .unwrap()
        .min(on.measured_mean.unwrap())
        .as_micros_f64();
    let worst = off
        .measured_mean
        .unwrap()
        .max(on.measured_mean.unwrap())
        .as_micros_f64();
    let d = dy.measured_mean.unwrap().as_micros_f64();
    // Exploration costs something, but the policy must land much closer
    // to the winner than to the loser.
    assert!(
        d < best + (worst - best) * 0.5,
        "dynamic {d:.1} should approach best {best:.1} (worst {worst:.1})"
    );
}

#[test]
fn dynamic_close_to_best_static_past_the_cutoff() {
    let off = run_point(&cfg(85_000.0, NagleSetting::Off));
    let on = run_point(&cfg(85_000.0, NagleSetting::On));
    let dy = run_point(&cfg(85_000.0, dynamic()));
    let on_us = on.measured_mean.unwrap().as_micros_f64();
    let off_us = off.measured_mean.unwrap().as_micros_f64();
    let d = dy.measured_mean.unwrap().as_micros_f64();
    assert!(on_us < off_us, "sanity: Nagle wins at 85 kRPS");
    assert!(
        d < off_us,
        "dynamic {d:.1} must beat the static loser {off_us:.1}"
    );
    assert!(
        d < on_us * 2.0,
        "dynamic {d:.1} should be in the winner's neighbourhood {on_us:.1}"
    );
}

#[test]
fn dynamic_avoids_the_overload_collapse() {
    // At 100 kRPS TCP_NODELAY has collapsed (past its knee) while Nagle
    // still sustains. A policy frozen to the Redis default would be three
    // orders of magnitude off; the dynamic policy must stay sane.
    let off = run_point(&cfg(100_000.0, NagleSetting::Off));
    let dy = run_point(&cfg(100_000.0, dynamic()));
    let off_us = off.measured_mean.unwrap().as_micros_f64();
    let d = dy.measured_mean.unwrap().as_micros_f64();
    assert!(
        off_us > 10_000.0,
        "sanity: the static default collapses here, got {off_us:.0}"
    );
    assert!(
        d < 1_000.0,
        "dynamic must keep latency in the sane range, got {d:.0} µs"
    );
}

#[test]
fn dynamic_policies_actually_toggle() {
    let dy = run_point(&cfg(85_000.0, dynamic()));
    let client_frac = dy.client_on_fraction.expect("client policy ran");
    let server_frac = dy.server_on_fraction.expect("server policy ran");
    // Both endpoints made real decisions (not stuck at either extreme by
    // construction — ε-greedy explores).
    assert!(
        (0.01..=0.99).contains(&client_frac) || (0.01..=0.99).contains(&server_frac),
        "at least one endpoint explored: client {client_frac}, server {server_frac}"
    );
}

#[test]
fn deterministic_dynamic_runs() {
    let a = run_point(&cfg(60_000.0, dynamic()));
    let b = run_point(&cfg(60_000.0, dynamic()));
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.client_on_fraction, b.client_on_fraction);
}
