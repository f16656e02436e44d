//! Chaos acceptance: fault injection with graceful degradation.
//!
//! The PR's four acceptance gates live here: (a) a faulted N = 8 run
//! replays bit-identically across executions, (b) the socket invariant
//! gates are demonstrably non-vacuous under reordered / duplicated /
//! lost arrivals, (c) the adaptive policy's P99 stays within the stated
//! bound of the static oracle on a reduced chaos grid, and (d) a
//! stale-snapshot scenario (blackout + staleness bound) demonstrably
//! trips the circuit-breaker fallback path.

use e2e_batching::e2e_apps::experiments::{
    chaos_arms, ChaosClass, CHAOS_BOUND, CHAOS_STALENESS_BOUND,
};
use e2e_batching::e2e_apps::{
    run_point, CostProfile, LancetClient, NagleSetting, RedisServer, RunConfig, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{
    run, CpuContext, DuplicateConfig, EventQueue, FaultConfig, GilbertElliott, LinkConfig,
    ReorderConfig,
};
use e2e_batching::tcpsim::{Host, HostId, NetSim, TcpConfig};

fn faulted_n8_cfg(nagle: NagleSetting) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients: 8,
        seed: 0xCAA05,
        fault: ChaosClass::Loss.fault_at(1.0),
        ..RunConfig::new(WorkloadSpec::fig4a(24_000.0), nagle)
    }
}

/// (a) The faulted N = 8 topology replays exactly: same samples, same
/// latencies, same packet counts, and the same per-link fault tallies.
#[test]
fn faulted_n8_run_is_deterministic_across_invocations() {
    let a = run_point(&faulted_n8_cfg(NagleSetting::Off));
    let b = run_point(&faulted_n8_cfg(NagleSetting::Off));

    assert_eq!(a.num_clients, 8);
    assert!(a.samples > 0, "faulted run must still measure traffic");
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());

    assert_eq!(a.link_faults.len(), 8, "one fault tally per duplex link");
    assert_eq!(a.link_faults, b.link_faults);
    assert!(
        a.link_faults.iter().map(|f| f.drops).sum::<u64>() > 0,
        "the loss chain must actually have dropped packets"
    );
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
    }
}

/// The adaptive stack (breaker + staleness-aware estimators) replays
/// exactly too — including the breaker trip counts.
#[test]
fn faulted_adaptive_run_is_deterministic() {
    let cfg = RunConfig {
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        breaker: Some(e2e_batching::batchpolicy::BreakerConfig::default()),
        ..faulted_n8_cfg(NagleSetting::dynamic(
            e2e_batching::batchpolicy::Objective::MinLatency,
        ))
    };
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.link_faults, b.link_faults);
    assert_eq!(a.client_breaker_trips, b.client_breaker_trips);
    assert_eq!(a.server_breaker_trips, b.server_breaker_trips);
    assert_eq!(a.client_on_fraction, b.client_on_fraction);
    assert_eq!(a.server_on_fraction, b.server_on_fraction);
}

/// (b) Builds a faulted star directly and checks the invariant gates ran
/// against genuinely impaired traffic: the server-side sockets classified
/// real out-of-order and duplicate arrivals (and the gates did not fire —
/// the run completing is the proof, since a violation panics).
#[test]
fn invariant_gates_nonvacuous_under_reorder_dup_loss() {
    let n = 8;
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig::default();
    let warmup = Nanos::from_millis(10);
    let end = Nanos::from_millis(150);

    let fault = FaultConfig {
        loss: Some(GilbertElliott::bursty(0.02, 4.0)),
        reorder: Some(ReorderConfig {
            probability: 0.5,
            max_extra: Nanos::from_micros(500),
        }),
        duplicate: Some(DuplicateConfig { probability: 0.2 }),
        start_at: Nanos::from_millis(10),
        ..FaultConfig::default()
    };

    let clients: Vec<LancetClient> = (0..n)
        .map(|_| LancetClient::new(WorkloadSpec::fig4a(6_000.0), profile.app, tcp, warmup, end))
        .collect();
    let server = RedisServer::new(profile.app);
    let client_hosts: Vec<Host> = (0..n)
        .map(|i| {
            Host::new(
                HostId::from_index(i),
                CpuContext::new("client-app"),
                CpuContext::new("client-softirq"),
                profile.client_stack,
                tcp,
            )
        })
        .collect();
    let server_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("server-app"),
        CpuContext::new("server-softirq"),
        profile.server_stack,
        tcp,
    );

    let mut sim = NetSim::star_with_faults(
        clients,
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        0xC4A05,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);

    let plan = sim.fault_plan().expect("fault plan is live");
    let totals = plan
        .per_link_counters()
        .iter()
        .fold((0u64, 0u64, 0u64), |acc, c| {
            (acc.0 + c.drops, acc.1 + c.duplicates, acc.2 + c.reorders)
        });
    assert!(totals.0 > 0, "loss chain never dropped");
    assert!(totals.1 > 0, "duplication never fired");
    assert!(totals.2 > 0, "reordering never fired");

    // The impairments must have reached the receive-side classification
    // gates: across the server's sockets, both impaired-arrival classes
    // were observed, and every socket still booked real traffic.
    let socks: Vec<_> = sim.server_host().socket_ids().collect();
    let mut ooo = 0u64;
    let mut dups = 0u64;
    for s in &socks {
        let inv = sim.server_host().socket(*s).invariants();
        ooo += inv.rx_out_of_order();
        dups += inv.rx_duplicates();
        assert!(inv.unread.entered() > 0, "socket {s:?}: no request bytes");
        assert!(inv.unacked.entered() > 0, "socket {s:?}: no response bytes");
    }
    assert!(ooo > 0, "no out-of-order arrival ever classified");
    assert!(dups > 0, "no duplicate arrival ever classified");
}

/// (c) + (d) on a reduced chaos grid: the adaptive policy stays within
/// the stated bound of the static oracle in every cell, and the blackout
/// cell — where shared snapshots go stale — trips the breaker fallback.
#[test]
fn adaptive_policy_bounded_and_fallback_trips_under_blackout() {
    let window = (Nanos::from_millis(50), Nanos::from_millis(150));
    for class in [ChaosClass::Loss, ChaosClass::Blackout] {
        let cell = chaos_arms(class, 1.0, 4, 24_000.0, window, 0xC4A05);
        let [off, on, adaptive] = cell.map(|cfg| run_point(&cfg));
        for (label, p) in [("off", &off), ("on", &on), ("adaptive", &adaptive)] {
            assert!(p.samples > 0, "{}/{label}: no samples", class.name());
        }
        // The static oracle: the better of the two static P99s.
        let oracle = [off.measured_p99, on.measured_p99].into_iter().flatten().min();
        assert!(
            CHAOS_BOUND.holds(adaptive.measured_p99, oracle),
            "{}: adaptive p99 {:?} breaks the stated bound vs oracle {oracle:?}",
            class.name(),
            adaptive.measured_p99,
        );
        if class == ChaosClass::Blackout {
            assert!(
                !adaptive.fault_blackout_time.is_zero(),
                "links never went dark"
            );
            let trips = adaptive.client_breaker_trips.unwrap_or(0)
                + adaptive.server_breaker_trips.unwrap_or(0);
            assert!(
                trips > 0,
                "stale snapshots under blackout must trip the breaker fallback"
            );
        }
    }
}
