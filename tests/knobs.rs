//! Multi-knob control-plane acceptance.
//!
//! Two gates: (a) an N = 8 star with the *joint* plane — Nagle +
//! delayed-ACK + cork limit all adaptive — replays bit-identically
//! across executions, per-knob counters included; (b) a plane with only
//! the Nagle knob attached reproduces, digest for digest, what the
//! dedicated single-knob drivers it replaced produced at N = 1 and
//! N = 8 under loss with breaker, staleness bound and validator live —
//! the unified actuation path is a pure generalization, not a behavior
//! change.

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::experiments::{adversary_breaker, ChaosClass, CHAOS_STALENESS_BOUND};
use e2e_batching::e2e_apps::runner::{run_point, Overrides, PointResult, RunConfig};
use e2e_batching::e2e_apps::{NagleSetting, WorkloadSpec};
use e2e_batching::e2e_core::ValidateConfig;
use e2e_batching::littles::Nanos;

fn knobs_cfg(nagle: NagleSetting, num_clients: usize) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients,
        seed: 0xBE7C,
        overrides: Overrides {
            // The knobs experiment's uniform delack setting: long enough
            // that delayed-ACK decisions visibly matter.
            delack_timeout: Some(Nanos::from_micros(500)),
            ..Overrides::default()
        },
        ..RunConfig::new(WorkloadSpec::fig4a(24_000.0), nagle)
    }
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Field-by-field bitwise comparison of two runs (floats via `to_bits`:
/// the whole point is bit-identity, not approximate equality).
fn assert_bitwise_equal(a: &PointResult, b: &PointResult) {
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p50, b.measured_p50);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.estimated_bytes, b.estimated_bytes);
    assert_eq!(a.estimated_messages, b.estimated_messages);
    assert_eq!(a.estimated_hint, b.estimated_hint);
    assert_eq!(a.tracker_mean, b.tracker_mean);
    assert_eq!(a.srtt, b.srtt);
    assert_eq!(a.client_cpu.app.to_bits(), b.client_cpu.app.to_bits());
    assert_eq!(a.server_cpu.app.to_bits(), b.server_cpu.app.to_bits());
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.nagle_holds, b.nagle_holds);
    assert_eq!(a.exchanges_received, b.exchanges_received);
    assert_eq!(opt_bits(a.client_on_fraction), opt_bits(b.client_on_fraction));
    assert_eq!(opt_bits(a.server_on_fraction), opt_bits(b.server_on_fraction));
    assert_eq!(a.server_aggregate_latency, b.server_aggregate_latency);
    assert_eq!(a.per_client.len(), b.per_client.len());
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
    }
}

/// (a) The all-knobs adaptive star replays exactly: decisions, per-knob
/// switch counters, exploration count, and every measured series.
#[test]
fn joint_plane_n8_run_is_deterministic() {
    let cfg = knobs_cfg(
        NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        },
        8,
    );
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert_eq!(a.num_clients, 8);
    assert!(a.samples > 0, "the run must measure traffic");
    assert_bitwise_equal(&a, &b);

    // The plane must have been live on all three knobs, and its decision
    // stream must replay exactly.
    assert!(a.plane_nagle_switches.is_some(), "plane counters populated");
    assert_eq!(a.plane_nagle_switches, b.plane_nagle_switches);
    assert_eq!(a.plane_delack_switches, b.plane_delack_switches);
    assert_eq!(a.plane_cork_switches, b.plane_cork_switches);
    assert_eq!(a.plane_explorations, b.plane_explorations);
    assert_eq!(a.plane_cork_limit, b.plane_cork_limit);
    assert!(
        a.plane_explorations.unwrap_or(0) > 0,
        "coordinated exploration must have run"
    );
}

/// What one guarded, lossy dynamic-Nagle run reports. On-fractions are
/// `f64::to_bits`.
#[derive(Debug, PartialEq)]
struct Digest {
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    mean_ns: u64,
    estimated_bytes_ns: u64,
    server_aggregate_ns: u64,
    client_on: u64,
    server_on: u64,
    client_trips: u64,
    server_trips: u64,
    accepted: u64,
    rejected: u64,
    events: u64,
}

/// (b) `NagleSetting::dynamic` — the plane with only its Nagle knob —
/// against digests first recorded from the dedicated single-knob drivers
/// (client policy + listener policy, `CircuitBreaker<EpsilonGreedy>`
/// actuating Nagle directly) at the last commit that had them (PR 13),
/// same config: 25 % loss intensity with the breaker, the staleness
/// bound and the validator all live, so trips, rejections and the
/// safe-mode actuation path are part of what is pinned. That provenance
/// ends with go-back-N: both digests were re-recorded when SACK recovery
/// replaced it, since every lossy trajectory moved. (Before that, the two
/// `events` figures were re-recorded once when superseded timer arms
/// stopped being dispatched; `events` counts live events only.)
#[test]
fn nagle_only_plane_is_bitwise_identical_to_dynamic() {
    let ns = |v: Option<Nanos>| v.expect("the run measured traffic").as_nanos();
    let expected = [
        (
            1usize,
            Digest {
                samples: 981,
                p50_ns: 116_391_936,
                p99_ns: 136_314_880,
                mean_ns: 118_702_090,
                estimated_bytes_ns: 224_498_799,
                server_aggregate_ns: 2_083_881,
                client_on: 4606688873635374066,
                server_on: 4606238612044395345,
                client_trips: 1,
                server_trips: 1,
                accepted: 359,
                rejected: 270,
                events: 24_707,
            },
        ),
        (
            8,
            Digest {
                samples: 3_290,
                p50_ns: 251_904,
                p99_ns: 87_031_808,
                mean_ns: 4_633_945,
                estimated_bytes_ns: 10_038_366,
                server_aggregate_ns: 565_302,
                client_on: 4606605298481635834,
                server_on: 4605541015746761646,
                client_trips: 2,
                server_trips: 2,
                accepted: 7_061,
                rejected: 573,
                events: 100_214,
            },
        ),
    ];
    for (n, want) in expected {
        let r = run_point(&RunConfig {
            warmup: Nanos::from_millis(50),
            measure: Nanos::from_millis(150),
            num_clients: n,
            seed: 0xBE7C,
            fault: ChaosClass::Loss.fault_at(0.25),
            staleness_bound: Some(CHAOS_STALENESS_BOUND),
            breaker: Some(adversary_breaker()),
            validate: Some(ValidateConfig),
            overrides: Overrides {
                min_rto: Some(Nanos::from_millis(5)),
                max_rto: Some(Nanos::from_millis(40)),
                ..Overrides::default()
            },
            ..RunConfig::new(
                WorkloadSpec::fig4a(24_000.0),
                NagleSetting::dynamic(Objective::MinLatency),
            )
        });
        let validation = r.validation.expect("validator configured");
        let got = Digest {
            samples: r.samples,
            p50_ns: ns(r.measured_p50),
            p99_ns: ns(r.measured_p99),
            mean_ns: ns(r.measured_mean),
            estimated_bytes_ns: ns(r.estimated_bytes),
            server_aggregate_ns: ns(r.server_aggregate_latency),
            client_on: r.client_on_fraction.expect("client plane ran").to_bits(),
            server_on: r.server_on_fraction.expect("listener plane ran").to_bits(),
            client_trips: r.client_breaker_trips.expect("client plane ran"),
            server_trips: r.server_breaker_trips.expect("listener plane ran"),
            accepted: validation.accepted,
            rejected: validation.rejected,
            events: r.events,
        };
        assert_eq!(got, want, "N={n}");
    }
}
