//! Fan-in acceptance: N = 16 concurrent connections into one server.
//!
//! Two of the PR's acceptance gates live here: the N = 16 topology must
//! be deterministic across invocations, and the per-connection
//! `SocketInvariants` gates must be demonstrably non-vacuous (every one
//! of the 16 server-side sockets booked real traffic through its
//! ledgers).

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::driver::EstimateRecorder;
use e2e_batching::e2e_apps::experiments::{AdversaryClass, CHAOS_STALENESS_BOUND};
use e2e_batching::e2e_apps::harness::star_hosts;
use e2e_batching::e2e_apps::runner::{ClientResult, PointResult};
use e2e_batching::e2e_apps::{
    run_point, CostProfile, Harness, LancetClient, NagleSetting, RedisServer, RunConfig,
    WorkloadSpec,
};
use e2e_batching::e2e_core::ValidateConfig;
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, EventQueue, LinkConfig};
use e2e_batching::tcpsim::{NetSim, TcpConfig, Unit};

fn n16_cfg(nagle: NagleSetting) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        num_clients: 16,
        seed: 0x00FA_4116,
        ..RunConfig::new(WorkloadSpec::fig4a(64_000.0), nagle)
    }
}

#[test]
fn n16_fanin_is_deterministic_across_invocations() {
    let a = run_point(&n16_cfg(NagleSetting::Off));
    let b = run_point(&n16_cfg(NagleSetting::Off));

    assert_eq!(a.num_clients, 16);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.measured_p99, b.measured_p99);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.packets_to_client, b.packets_to_client);
    assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
    assert_eq!(a.estimated_bytes, b.estimated_bytes);

    assert_eq!(a.per_client.len(), 16);
    for (ca, cb) in a.per_client.iter().zip(&b.per_client) {
        assert!(ca.samples > 0, "every connection must carry traffic");
        assert_eq!(ca.samples, cb.samples);
        assert_eq!(ca.measured_mean, cb.measured_mean);
        assert_eq!(ca.achieved_rps.to_bits(), cb.achieved_rps.to_bits());
        assert_eq!(ca.exchanges_received, cb.exchanges_received);
    }
}

/// The listener-wide dynamic policy path (shared ε-greedy over the
/// 16-connection aggregate) must be deterministic too, and must actually
/// produce a server-side aggregate view.
#[test]
fn n16_dynamic_policy_is_deterministic_and_aggregates() {
    let cfg = n16_cfg(NagleSetting::dynamic(Objective::MinLatency));
    let a = run_point(&cfg);
    let b = run_point(&cfg);

    assert_eq!(a.samples, b.samples);
    assert_eq!(a.measured_mean, b.measured_mean);
    assert_eq!(a.packets_to_server, b.packets_to_server);
    assert_eq!(a.server_on_fraction, b.server_on_fraction);
    assert_eq!(a.server_aggregate_latency, b.server_aggregate_latency);

    assert!(
        a.server_on_fraction.is_some(),
        "listener policy must have decided"
    );
    assert!(
        a.server_aggregate_latency.is_some(),
        "listener policy must have formed aggregate estimates"
    );
}

/// The 16-client star of the two tests below, built directly so the
/// sockets and recorders stay inspectable, run to `end`.
fn run_star16(
    per_client_rps: f64,
    recorder: Option<Unit>,
    end: Nanos,
) -> NetSim<LancetClient, RedisServer> {
    let n = 16;
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig::default();
    let warmup = Nanos::from_millis(20);

    let clients: Vec<LancetClient> = (0..n)
        .map(|_| {
            let spec = WorkloadSpec::fig4a(per_client_rps);
            let client = LancetClient::new(spec, profile.app, tcp, warmup, end);
            match recorder {
                Some(unit) => client.with_recorder(EstimateRecorder::new(unit)),
                None => client,
            }
        })
        .collect();
    let server = RedisServer::new(profile.app);
    let (hosts, server_host) = star_hosts(n, &profile, tcp);
    let mut sim = NetSim::star(
        clients,
        server,
        hosts,
        server_host,
        LinkConfig::default(),
        0x1617,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);
    sim
}

/// Builds the 16-client star directly and checks that every server-side
/// socket's invariant ledgers booked real traffic: the conservation /
/// continuity gates ran against live data on all 16 connections, not on
/// idle sockets.
#[test]
fn invariant_gates_are_nonvacuous_on_all_16_connections() {
    let n = 16;
    let sim = run_star16(3_000.0, None, Nanos::from_millis(120));

    assert_eq!(
        sim.server_host().socket_count(),
        n,
        "server accepted all connections"
    );
    let socks: Vec<_> = sim.server_host().socket_ids().collect();
    for s in socks {
        let inv = sim.server_host().socket(s).invariants();
        assert!(
            inv.unread.entered() > 0,
            "socket {s:?}: no request bytes through the unread ledger"
        );
        assert!(
            inv.unacked.entered() > 0,
            "socket {s:?}: no response bytes through the unacked ledger"
        );
        // The gates also verified departures, not just arrivals.
        assert!(inv.unread.left() > 0, "socket {s:?}: requests never read");
        assert!(
            inv.unacked.left() > 0,
            "socket {s:?}: responses never acked"
        );
    }
    // Same on the client side of each connection.
    for i in 0..n {
        let sock = sim.clients[i].sock.expect("client connected");
        let inv = sim.host(i).socket(sock).invariants();
        assert!(inv.unacked.entered() > 0, "client {i}: sent nothing");
        assert!(inv.unread.entered() > 0, "client {i}: received nothing");
    }
}

/// A client that only records, and does not validate, wakes only for what
/// its recorders can use: its tick chain parks until the peer's next share
/// arrives, so it ticks at most once per exchange received, plus its first
/// tick and the two window edges. This run must not be vacuous: every
/// connection carried traffic and estimated.
#[test]
fn recorder_only_clients_tick_once_per_exchange_on_all_16_connections() {
    let end = Nanos::from_millis(220);
    let sim = run_star16(250.0, Some(Unit::Bytes), end);
    for (i, client) in sim.clients.iter().enumerate() {
        let sock = client.sock.expect("client connected");
        let exchanges = sim.host(i).socket(sock).remote().received;
        assert!(
            client.ticks_run <= exchanges + 3,
            "client {i}: {} ticks for {exchanges} exchanges",
            client.ticks_run
        );
        assert!(client.completed > 20, "client {i}: idle connection");
        assert!(
            client.recorders[0]
                .mean_latency_in(Nanos::from_millis(20), end)
                .is_some(),
            "client {i}: no estimate"
        );
    }
}

/// Every field of a [`PointResult`] as text, one per line, except the
/// three that describe the implementation rather than the simulated
/// system: `events` and the per-client tick counters, returned beside it.
/// The destructuring is exhaustive, so a new field cannot stay out of the
/// comparison unnoticed.
fn describe(r: PointResult) -> (String, u64, Vec<(u64, u64)>) {
    let PointResult {
        offered_rps,
        achieved_rps,
        measured_mean,
        measured_p50,
        measured_p99,
        samples,
        estimated_bytes,
        estimated_messages,
        estimated_hint,
        tracker_mean,
        srtt,
        client_cpu,
        server_cpu,
        packets_to_server,
        packets_to_client,
        nagle_holds,
        client_on_fraction,
        server_on_fraction,
        aimd_mean_limit,
        exchanges_received,
        num_clients,
        per_client,
        server_aggregate_latency,
        link_faults,
        fault_blackout_time,
        client_breaker_trips,
        server_breaker_trips,
        plane_nagle_switches,
        plane_delack_switches,
        plane_cork_switches,
        plane_explorations,
        plane_cork_limit,
        validation,
        client_restarts,
        fault_restarts,
        events,
    } = r;
    let mut lines = vec![
        format!("offered_rps {offered_rps:?} achieved_rps {achieved_rps:?} samples {samples}"),
        format!("measured mean {measured_mean:?} p50 {measured_p50:?} p99 {measured_p99:?}"),
        format!(
            "estimated bytes {estimated_bytes:?} \
             messages {estimated_messages:?} hint {estimated_hint:?}"
        ),
        format!("tracker_mean {tracker_mean:?} srtt {srtt:?}"),
        format!("client_cpu {client_cpu:?} server_cpu {server_cpu:?}"),
        format!(
            "packets {packets_to_server}+{packets_to_client} nagle_holds {nagle_holds} \
             exchanges_received {exchanges_received} num_clients {num_clients}"
        ),
        format!(
            "on_fraction {client_on_fraction:?}/{server_on_fraction:?} \
             aimd_mean_limit {aimd_mean_limit:?} server_aggregate {server_aggregate_latency:?}"
        ),
        format!("link_faults {link_faults:?} blackout {fault_blackout_time:?}"),
        format!(
            "breaker_trips {client_breaker_trips:?}/{server_breaker_trips:?} plane \
             {plane_nagle_switches:?} {plane_delack_switches:?} {plane_cork_switches:?} \
             {plane_explorations:?} {plane_cork_limit:?}"
        ),
        format!("validation {validation:?}"),
        format!("restarts client {client_restarts} fault {fault_restarts}"),
    ];
    let mut ticks = Vec::new();
    for (i, client) in per_client.into_iter().enumerate() {
        let ClientResult {
            offered_rps,
            achieved_rps,
            samples,
            measured_mean,
            measured_p99,
            estimated_bytes,
            exchanges_received,
            ticks_run,
            ticks_skipped,
        } = client;
        lines.push(format!(
            "client {i}: offered {offered_rps:?} achieved {achieved_rps:?} samples {samples} \
             mean {measured_mean:?} p99 {measured_p99:?} bytes {estimated_bytes:?} \
             exchanges {exchanges_received}"
        ));
        ticks.push((ticks_run, ticks_skipped));
    }
    (lines.join("\n") + "\n", events, ticks)
}

/// A harness driven in stages, the window cut into ten equal slices,
/// reads out field for field what `run_point` reports, `events` and every
/// client's tick counters included: where a caller stops the loop inside
/// the window does not change the run. The plane run with every knob, a
/// validator and a staleness bound touches every field `describe` prints.
#[test]
fn sliced_drive_reads_out_what_run_point_reports() {
    let cfg = RunConfig {
        nagle: NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        },
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        validate: Some(ValidateConfig),
        ..n16_cfg(NagleSetting::Off)
    };
    let mut harness = Harness::star(&cfg);
    harness.warm_up();
    for slice in 1..=10 {
        let elapsed = Nanos::from_nanos(cfg.measure.as_nanos() * slice / 10);
        harness.run_until(cfg.warmup + elapsed);
    }
    harness.drain();
    assert_eq!(describe(harness.result()), describe(run_point(&cfg)));
}

/// The CPU snapshot is taken where the run first reaches the start of the
/// measurement window, whichever call gets there: seven slices of the
/// whole run, one straddling that start and none calling `warm_up`, read
/// out what `run_point` reports, CPU columns included.
#[test]
fn slices_across_the_window_start_read_out_what_run_point_reports() {
    let cfg = n16_cfg(NagleSetting::Off);
    let end = cfg.warmup + cfg.measure;
    let mut harness = Harness::star(&cfg);
    for slice in 1..=7 {
        harness.run_until(Nanos::from_nanos(end.as_nanos() * slice / 7));
    }
    harness.drain();
    assert_eq!(describe(harness.result()), describe(run_point(&cfg)));
}

/// Exchange-armed ticks change what the simulator does, not what it
/// simulates. Two runs whose clients only record are held, field by
/// field, against what the last commit with a purely periodic tick chain
/// (ac22b8f, PR 17) reported for them: sixteen quiet connections with
/// hints on, whose tick chains park, and four connections whose
/// processes are killed every 50 ms while a validator and a staleness
/// bound guard the estimators. A validating recorder judges every tick,
/// so those four clients tick every period, as the periodic chain did.
/// Every simulated figure is equal; only the quiet run's `events` fell,
/// and each of its clients slept through ticks.
#[test]
fn parked_clients_report_what_periodic_clients_reported() {
    let quiet = RunConfig {
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(250),
        num_clients: 16,
        seed: 0x9A4C,
        ..RunConfig::new(WorkloadSpec::fig4a(4_000.0), NagleSetting::Off)
    };
    let chaos = RunConfig {
        num_clients: 4,
        fault: AdversaryClass::Restart.fault_at(1.0),
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        validate: Some(ValidateConfig),
        ..quiet
    };
    let golden = include_str!("golden/parked_points.txt");
    let mut got = String::new();
    // (label, config, `events` at ac22b8f)
    for (label, cfg, periodic_events) in
        [("quiet16", quiet, 39_397u64), ("restart4", chaos, 30_606)]
    {
        assert!(cfg.use_hints, "hints on");
        let (text, events, ticks) = describe(run_point(&cfg));
        got += &format!("[{label}]\n{text}");
        let parks = cfg.validate.is_none();
        if parks {
            assert!(
                events < periodic_events,
                "{label}: {events} events, {periodic_events} with a periodic chain"
            );
        } else {
            assert_eq!(events, periodic_events, "{label}: a periodic chain");
        }
        assert_eq!(ticks.len(), cfg.num_clients);
        for (i, (run, skipped)) in ticks.into_iter().enumerate() {
            assert!(
                run > 0 && (skipped > 0) == parks,
                "{label} client {i}: {run} run, {skipped} skipped"
            );
            // Together: every 500 µs instant of the 320 ms run, give or
            // take the connection set-up and an open last park.
            assert!(
                (600..=640).contains(&(run + skipped)),
                "{label} client {i}: {run} + {skipped}"
            );
        }
    }
    assert_eq!(got, golden, "a simulated figure moved");
}
