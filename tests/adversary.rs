//! Adversary acceptance: adversarial metadata faults with peer-state
//! validation.
//!
//! Three gates: (a) an N = 8 run with *both* adversarial fault classes
//! active (exchange corruption + endpoint restarts) replays
//! bit-identically across executions, including every validation and
//! restart counter; (b) under corruption the validation machinery is
//! demonstrably non-vacuous — exchanges are garbled on the wire, the
//! validator rejects some of them, and the breaker trips to its safe
//! mode; (c) an endpoint restart mid-run is detected as an epoch change
//! and the connection recovers — the client reconnects, the estimator
//! resyncs, and goodput survives.

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::experiments::{
    adversary_breaker, AdversaryClass, CHAOS_STALENESS_BOUND,
};
use e2e_batching::e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};
use e2e_batching::e2e_core::ValidateConfig;
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::FaultConfig;

/// Both adversarial classes at full intensity in one fault plan.
fn combined_fault() -> FaultConfig {
    let mut fault = AdversaryClass::Corrupt.fault_at(1.0);
    fault.restart = AdversaryClass::Restart.fault_at(1.0).restart;
    fault
}

fn guarded_cfg(n: usize, fault: FaultConfig) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients: n,
        seed: 0xADE5,
        fault,
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        breaker: Some(adversary_breaker()),
        validate: Some(ValidateConfig),
        overrides: e2e_batching::e2e_apps::runner::Overrides {
            min_rto: Some(Nanos::from_millis(5)),
            max_rto: Some(Nanos::from_millis(40)),
            ..Default::default()
        },
        ..RunConfig::new(
            WorkloadSpec::fig4a(24_000.0),
            NagleSetting::dynamic(Objective::MinLatency),
        )
    }
}

/// (a) The full adversarial stack — corruption, restarts, validation,
/// epoch resync, reconnect backoff — replays exactly.
#[test]
fn adversarial_n8_run_is_deterministic_across_invocations() {
    let cfg = guarded_cfg(8, combined_fault());
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert!(a.samples > 0, "faulted run must still measure traffic");
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
    assert_eq!(a.link_faults, b.link_faults);
    assert_eq!(a.validation, b.validation);
    assert_eq!(a.client_restarts, b.client_restarts);
    assert_eq!(a.fault_restarts, b.fault_restarts);
    assert_eq!(a.client_breaker_trips, b.client_breaker_trips);
    assert_eq!(a.server_breaker_trips, b.server_breaker_trips);
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
    }

    // Both classes actually fired in this combined plan.
    assert!(
        a.link_faults.iter().map(|f| f.corruptions).sum::<u64>() > 0,
        "corruption never fired"
    );
    assert!(a.fault_restarts > 0, "no restart was injected");
}

/// (b) Corruption makes the validation machinery do real work: garbled
/// exchanges hit the wire, the validator rejects a portion of them, and
/// repeated suspicion trips the breaker into its safe mode.
#[test]
fn corruption_rejects_are_nonvacuous_and_trip_the_breaker() {
    let r = run_point(&guarded_cfg(1, AdversaryClass::Corrupt.fault_at(1.0)));

    let corrupted: u64 = r.link_faults.iter().map(|f| f.corruptions).sum();
    assert!(corrupted > 0, "no exchange was ever corrupted");

    let v = r.validation.expect("validator configured");
    assert!(v.accepted > 0, "every exchange rejected — validator too strict");
    assert!(
        v.rejected > 0,
        "{corrupted} corruptions on the wire but zero rejections — validator vacuous"
    );
    let trips = r.client_breaker_trips.unwrap_or(0) + r.server_breaker_trips.unwrap_or(0);
    assert!(trips > 0, "sustained corruption must trip the breaker");
    assert!(r.samples > 0, "run must still measure traffic");
}

/// (c) A peer restart mid-run is detected as an epoch change (not a
/// gigantic wrapping delta) and the system recovers: clients observe the
/// reset and reconnect, exchanges resume, and goodput survives the
/// die/reconnect/resync cycles.
#[test]
fn restart_is_detected_as_epoch_change_and_recovers() {
    let r = run_point(&guarded_cfg(1, AdversaryClass::Restart.fault_at(1.0)));

    assert!(r.fault_restarts > 0, "no restart was injected");
    assert!(r.client_restarts > 0, "client never observed a reset");

    let v = r.validation.expect("validator configured");
    assert!(
        v.epoch_changes > 0,
        "restarts happened but no epoch change was detected: {v:?}"
    );

    // Recovery: the connection resynced after each restart — exchanges
    // kept flowing and most of the offered load was still served.
    assert!(r.exchanges_received > 0, "exchange stream never resumed");
    assert!(
        r.achieved_rps > 0.5 * r.offered_rps,
        "goodput collapsed across restarts: {:.0}/{:.0} rps",
        r.achieved_rps,
        r.offered_rps
    );
    assert!(r.samples > 0, "run must still measure traffic");
}
