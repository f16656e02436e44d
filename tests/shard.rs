//! Sharded-proxy acceptance: K = 4 shards behind a terminating proxy.
//!
//! Two gates from the two-tier PR live here: the skewed K = 4 grid must
//! replay bit-identically across invocations (the whole two-tier event
//! order — client arrivals, proxy re-framing, upstream flushes, per-shard
//! plane decisions — hangs off one `(time, seq)` queue), and the
//! proxy-side socket invariant ledgers must be demonstrably non-vacuous:
//! every client-facing *and* upstream socket on the proxy booked real
//! traffic in both directions.

use e2e_batching::batchpolicy::{Objective, RetryConfig};
use e2e_batching::e2e_apps::harness::{tier_hosts, Tier};
use e2e_batching::e2e_apps::{
    run_tier_point, CostProfile, FailoverArm, FailoverScenario, Harness, LancetClient, ProxyApp,
    RedisServer, Resilience, ShardRouter, ShardSetting, TierRunConfig, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{
    run, EventQueue, FaultConfig, LinkConfig, RestartSchedule, ShardBrownout, ShardCrash,
    ShardFaultPlan, WindowSchedule,
};
use e2e_batching::tcpsim::{Event, TcpConfig, TierSim};

fn k4_cfg(upstream: ShardSetting) -> TierRunConfig {
    TierRunConfig {
        num_clients: 4,
        num_shards: 4,
        hot_fraction: 0.7,
        warmup: Nanos::from_millis(50),
        measure: Nanos::from_millis(150),
        seed: 0x005A_AD16,
        ..TierRunConfig::shard(WorkloadSpec::shard(30_000.0), upstream)
    }
}

#[test]
fn k4_skewed_grid_replays_bit_identically() {
    for setting in [
        ShardSetting::Corner { nagle: false },
        ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        },
    ] {
        let cfg = k4_cfg(setting);
        let a = run_tier_point(&cfg);
        let b = run_tier_point(&cfg);

        assert!(a.samples > 0, "run must carry traffic");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.events, b.events);
        assert_eq!(a.measured_mean, b.measured_mean);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.achieved_rps.to_bits(), b.achieved_rps.to_bits());
        assert_eq!(a.hot_shard, b.hot_shard);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
        assert_eq!(a.shard_estimates, b.shard_estimates);
        assert_eq!(a.shard_rtt_p99, b.shard_rtt_p99);
        assert_eq!(
            a.hot_rank_fraction.map(f64::to_bits),
            b.hot_rank_fraction.map(f64::to_bits)
        );
        for (fa, fb) in a.shard_on_fraction.iter().zip(&b.shard_on_fraction) {
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }
}

/// A harness driven in stages, the window cut into ten equal slices,
/// reads out what `run_tier_point` reports. The derived `Debug` prints
/// every field of the result, so the comparison is field for field. The
/// adaptive upstream under a cold-shard brownout and the full defense
/// ladder touch both grids' columns.
#[test]
fn sliced_drive_reads_out_what_run_tier_point_reports() {
    let cfg = TierRunConfig {
        arm: FailoverArm::Full,
        scenario: Some(FailoverScenario::BrownoutCold),
        ..k4_cfg(ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        })
    };
    let mut harness = Harness::tier(&cfg);
    harness.warm_up();
    for slice in 1..=10 {
        let elapsed = Nanos::from_nanos(cfg.measure.as_nanos() * slice / 10);
        harness.run_until(cfg.warmup + elapsed);
    }
    harness.drain();
    let sliced = harness.result();
    assert!(sliced.samples > 0 && sliced.hedges > 0, "{sliced:?}");
    assert_eq!(format!("{sliced:?}"), format!("{:?}", run_tier_point(&cfg)));
}

/// The skew is deterministic in the seed and independent of the upstream
/// knob: every arm routes the same keys to the same shards, so the
/// corners and the adaptive run are measuring the same offered traffic.
#[test]
fn all_arms_route_the_same_skew() {
    let off = run_tier_point(&k4_cfg(ShardSetting::Corner { nagle: false }));
    let adaptive = run_tier_point(&k4_cfg(ShardSetting::Adaptive {
        objective: Objective::MinLatency,
    }));
    assert_eq!(off.hot_shard, adaptive.hot_shard);
    // The hot shard leads in both arms and carries the configured skew.
    for r in [&off, &adaptive] {
        let total: u64 = r.per_shard_requests.iter().sum();
        let hot = r.per_shard_requests[r.hot_shard];
        assert!(
            hot as f64 >= 0.6 * total as f64,
            "hot shard carried {hot}/{total}, expected ~70%"
        );
    }
}

/// The two-tier topology built directly, so its sockets stay inspectable,
/// and started: `n` clients at `rate` requests/s in total, drawing keys
/// uniformly, through the proxy `defend` returns to `k` shards, on
/// default TCP and default links.
fn start_tier(
    (n, k): (usize, usize),
    rate: f64,
    (warmup, end): (Nanos, Nanos),
    defend: impl FnOnce(ProxyApp) -> ProxyApp,
    faults: FaultConfig,
) -> (Tier, EventQueue<Event>) {
    let profile = CostProfile::shard_tier();
    let tcp = TcpConfig::default();
    let mut spec = WorkloadSpec::shard(rate);
    spec.rate_rps /= n as f64;
    let clients = (0..n)
        .map(|_| LancetClient::new(spec, profile.app, tcp, warmup, end))
        .collect();
    let (client_hosts, proxy_host, shard_hosts) = tier_hosts(n, k, &profile, tcp);
    let shard_ids = shard_hosts.iter().map(|h| h.id).collect();
    let proxy = ProxyApp::new(profile.app, tcp, shard_ids, ShardRouter::new(k, 0x5AAD));
    let shards = (0..k).map(|_| RedisServer::new(profile.app)).collect();
    let mut sim = TierSim::two_tier_with_faults(
        clients,
        defend(proxy),
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig::default(),
        0x5AAD,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    (sim, queue)
}

/// Builds the two-tier topology directly and checks that every socket on
/// the proxy host — the N accepted client connections *and* the K
/// upstream connections it opened — booked real bytes through both
/// invariant ledgers. The conservation/continuity gates on the proxy's
/// sockets ran against live data on both legs, not on idle sockets.
#[test]
fn invariant_gates_are_nonvacuous_on_proxy_sockets() {
    let (n, k) = (4, 4);
    let window = (Nanos::from_millis(20), Nanos::from_millis(120));
    let (mut sim, mut queue) = start_tier((n, k), 12_000.0, window, |p| p, FaultConfig::default());
    run(&mut sim, &mut queue, window.1);

    assert_eq!(
        sim.proxy_host().socket_count(),
        n + k,
        "proxy terminates all client connections and opened every upstream"
    );
    let socks: Vec<_> = sim.proxy_host().socket_ids().collect();
    for s in socks {
        let inv = sim.proxy_host().socket(s).invariants();
        assert!(
            inv.unread.entered() > 0,
            "proxy socket {s:?}: no inbound bytes through the unread ledger"
        );
        assert!(
            inv.unacked.entered() > 0,
            "proxy socket {s:?}: no outbound bytes through the unacked ledger"
        );
    }
    // Every shard accepted exactly the proxy's upstream and served on it.
    for j in 0..k {
        assert_eq!(sim.shard_host(j).socket_count(), 1, "shard {j}");
        let s = sim.shard_host(j).socket_ids().next().expect("one socket");
        let inv = sim.shard_host(j).socket(s).invariants();
        assert!(inv.unread.entered() > 0, "shard {j}: no requests arrived");
        assert!(inv.unacked.entered() > 0, "shard {j}: no responses sent");
    }
    // The proxy actually forwarded and completed traffic. The run stops
    // dead at `end` with no drain phase, so a handful of requests may
    // still be in flight on the back leg — but never more than one per
    // upstream's unflushed tail.
    assert!(sim.proxy.stats.responses > 0);
    let in_flight = sim.proxy.stats.forwarded - sim.proxy.stats.responses;
    assert!(
        in_flight <= 2 * k as u64,
        "{in_flight} requests unaccounted for (forwarded {}, responses {})",
        sim.proxy.stats.forwarded,
        sim.proxy.stats.responses
    );
}

/// FIFO response pairing must survive an upstream reconnect: every
/// request in flight on an upstream when its connection tears down is
/// failed (or retried) at teardown — never left in the pairing queue to
/// be matched against the *next* connection's responses. The scenario
/// stalls shard 0 so in-flight requests pile up on its upstream, then
/// crashes it mid-stall; without the teardown drain the replacement
/// connection's first responses would pop the stale entries and every
/// later response would pair one slot off for the rest of the run
/// (orphans spike, goodput craters). Checked at both points: right
/// after the reset (queue emptied while the pile was provably deep) and
/// at the end (proxy healthy, accounting closed).
#[test]
fn fifo_pairing_survives_upstream_reconnect() {
    let warmup = Nanos::from_millis(10);
    let end = Nanos::from_millis(120);
    let crash_at = Nanos::from_millis(32);

    // One 4 ms stall on shard 0 starting at 30 ms (no repeat within the
    // run), with the crash pinned to 32 ms — mid-stall, when the
    // upstream's pairing queue is at its deepest.
    let faults = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(ShardCrash {
                shard: 0,
                schedule: RestartSchedule {
                    first_at: crash_at,
                    period: Nanos::ZERO,
                },
            }),
            brownout: Some(ShardBrownout {
                shard: 0,
                windows: WindowSchedule {
                    first_at: Nanos::from_millis(30),
                    period: Nanos::from_millis(1000),
                    duration: Nanos::from_millis(4),
                },
            }),
        },
        start_at: warmup,
        ..FaultConfig::default()
    };
    let timeouts =
        |p: ProxyApp| p.with_resilience(Resilience::timeout_only(RetryConfig::default()));
    let k = 2;
    let (mut sim, mut queue) = start_tier((2, k), 24_000.0, (warmup, end), timeouts, faults);

    // Run up to just before the crash: the stall has held shard 0's
    // responses for 2 ms, so its pairing queue is provably deep.
    run(&mut sim, &mut queue, crash_at - Nanos::from_nanos(1));
    let piled = sim.proxy.upstream_waiting(0);
    assert!(
        piled >= 8,
        "stall should pile in-flight requests on shard 0's upstream, got {piled}"
    );

    // Step past the crash: the reset must have drained the pile into
    // failures, leaving at most the trickle of post-reset dispatches.
    run(&mut sim, &mut queue, crash_at + Nanos::from_micros(100));
    assert_eq!(
        sim.proxy.stats.upstream_resets, 1,
        "the crash resets the upstream once"
    );
    let after = sim.proxy.upstream_waiting(0);
    assert!(
        after <= 4,
        "teardown left {after} stale entries in the pairing queue (was {piled})"
    );
    assert!(
        sim.proxy.stats.failed > 0,
        "drained in-flight requests must be failed back, not dropped silently"
    );

    // Run out the rest. A mis-paired queue would shift every subsequent
    // response one slot off permanently: orphans would grow for the rest
    // of the run and the last requests would never complete. Healthy
    // recovery means bounded failures, bounded orphans, closed books.
    run(&mut sim, &mut queue, end);
    let stats = &sim.proxy.stats;
    assert!(
        stats.responses > 1000,
        "proxy kept serving after the reconnect"
    );
    assert!(
        stats.failed <= 80,
        "failures must stay confined to the fault window, got {}",
        stats.failed
    );
    assert!(
        stats.orphan_responses <= 40,
        "orphan responses must stay confined to the fault window, got {}",
        stats.orphan_responses
    );
    for j in 0..k {
        let depth = sim.proxy.upstream_waiting(j);
        assert!(
            depth <= 4,
            "shard {j}: {depth} requests still paired at end"
        );
    }
    assert!(
        sim.proxy.pending_requests() <= 8,
        "pending ledger must drain, got {}",
        sim.proxy.pending_requests()
    );
    // Attempt accounting closes: every forwarded attempt was answered
    // (to a live request or as an orphan), failed at teardown/deadline,
    // or is part of the end-of-run tail above.
    let answered = stats.responses + stats.orphan_responses;
    let open = (0..k)
        .map(|j| sim.proxy.upstream_waiting(j) as u64)
        .sum::<u64>();
    assert!(
        stats.forwarded <= answered + stats.failed + open,
        "attempts leaked: forwarded {} > answered {answered} + failed {} + open {open}",
        stats.forwarded,
        stats.failed
    );
    let achieved: f64 = sim.clients.iter().map(|lg| lg.achieved_rps()).sum();
    assert!(
        achieved >= 0.85 * 24_000.0,
        "goodput cratered after the reconnect: {achieved:.0} rps"
    );
}
