//! The write backlog, driven on purpose.
//!
//! Every application keeps the bytes a full send buffer rejected and
//! writes them out when the socket reports room. With the default 4 MiB
//! buffer that path runs only at overload, so no golden digest, grid or
//! benchmark workload pins it. These two runs shrink the socket buffers
//! to 40 KiB — two and a half 16 KiB messages — and push both directions
//! past saturation with a 50:50 SET:GET mix, so that every request and
//! every GET response goes through a backlog on its way out: the load
//! generator's, the server's, and both sides of the proxy. Each run also
//! loses a connection mid-flight (a client restart; a shard crash), so a
//! backlog is torn down non-empty and a re-dialed upstream holds commands
//! across its handshake.
//!
//! The expected figures were recorded by running this file unchanged at
//! the commit before the applications shared one connection type; a
//! change that reorders, drops or duplicates a single backlogged byte
//! moves them. `events` alone describes the implementation: it is
//! re-recorded when a change removes events that simulate nothing (a
//! client, proxy or server with nothing to tick no longer runs a tick
//! chain). `hint_ns` is the server's estimate, not a simulated figure: it
//! was re-recorded when the server came to read hints by difference
//! instead of averaging per-tick estimates.

use batchpolicy::{BreakerConfig, RetryConfig};
use e2e_apps::harness::{star_hosts, tier_hosts};
use e2e_apps::loadgen::{KeyPool, LancetClient};
use e2e_apps::proxy::{ProxyApp, Resilience, ShardRouter};
use e2e_apps::{CostProfile, RedisServer, WorkloadSpec};
use littles::Nanos;
use simnet::{
    run, EventQueue, FaultConfig, Histogram, LinkConfig, Pcg32, RestartSchedule, ShardCrash,
    ShardFaultPlan,
};
use tcpsim::{NetSim, TcpConfig, TierSim};

const SEED: u64 = 0x0BAC_2106;
const WARMUP: Nanos = Nanos::from_millis(5);
const END: Nanos = Nanos::from_millis(30);
const DRAIN: Nanos = Nanos::from_millis(40);

fn small_buffers() -> TcpConfig {
    TcpConfig {
        sndbuf: 40 * 1024,
        rcvbuf: 48 * 1024,
        ..TcpConfig::default()
    }
}

fn workload(rate_rps: f64) -> WorkloadSpec {
    WorkloadSpec {
        set_ratio: 0.5,
        ..WorkloadSpec::fig4a(rate_rps)
    }
}

fn latency(hist: &Histogram) -> String {
    let ns = |v: Option<Nanos>| v.map_or(0, |v| v.as_nanos());
    format!(
        "n={} p50={} p99={}",
        hist.count(),
        ns(hist.p50()),
        ns(hist.p99())
    )
}

/// One hinting load generator against one hint-recording server at
/// `rate_rps`; the client's process restarts at 12 ms.
fn pair(rate_rps: f64) -> String {
    let profile = CostProfile::calibrated();
    let client = LancetClient::new(
        workload(rate_rps),
        profile.app,
        small_buffers(),
        WARMUP,
        END,
    )
    .with_hints();
    let server = RedisServer::new(profile.app).with_hint_recorder();
    let fault = FaultConfig {
        restart: Some(RestartSchedule {
            first_at: Nanos::from_millis(12),
            period: Nanos::ZERO,
        }),
        ..FaultConfig::default()
    };
    let (client_hosts, server_host) = star_hosts(1, &profile, small_buffers());
    let mut sim = NetSim::star_with_faults(
        vec![client],
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        SEED,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    let events = run(&mut sim, &mut queue, DRAIN);

    let c = sim.client();
    let hint = sim.server.hint_mean_latency_in(WARMUP, END);
    format!(
        "sent={} completed={} in_window={} restarts={} {} server_requests={} hint_ns={} \
         events={events}",
        c.sent,
        c.completed,
        c.completed_in_window,
        c.restarts_seen,
        latency(&c.hist),
        sim.server.stats.requests,
        hint.map_or(0, |v| v.as_nanos()),
    )
}

/// Two load generators at `rate_rps` each, through a proxy with the full
/// defense ladder, to two shards; shard 0 crashes at 12 ms.
fn tier(rate_rps: f64) -> String {
    let profile = CostProfile::calibrated();
    let (n, k) = (2, 2);
    let router = ShardRouter::new(k, SEED);
    let spec = workload(rate_rps);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); k];
    for idx in 0..spec.key_space as u64 {
        owned[router.route(format!("key:{idx:012}").as_bytes())].push(idx);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "a test-local stream; the figures it pins were recorded with this label"
    )]
    let mut skew = Pcg32::named(SEED, "backpressure.skew");
    let clients: Vec<LancetClient> = (0..n)
        .map(|_| {
            let pool = KeyPool::new(owned[0].clone(), owned[1].clone(), 0.5, skew.fork());
            LancetClient::new(spec, profile.app, small_buffers(), WARMUP, END).with_key_pool(pool)
        })
        .collect();
    let (client_hosts, proxy_host, shard_hosts) = tier_hosts(n, k, &profile, small_buffers());
    let shard_ids = shard_hosts.iter().map(|h| h.id).collect();
    let proxy = ProxyApp::new(profile.app, small_buffers(), shard_ids, router).with_resilience(
        Resilience::full(RetryConfig::default(), BreakerConfig::default()),
    );
    let shards = (0..k).map(|_| RedisServer::new(profile.app)).collect();
    let fault = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(ShardCrash {
                shard: 0,
                schedule: RestartSchedule {
                    first_at: Nanos::from_millis(12),
                    period: Nanos::ZERO,
                },
            }),
            ..ShardFaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let mut sim = TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig::default(),
        SEED,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    let events = run(&mut sim, &mut queue, DRAIN);

    let mut hist = Histogram::new();
    for c in &sim.clients {
        hist.merge(&c.hist);
    }
    let sum = |f: fn(&LancetClient) -> u64| sim.clients.iter().map(f).sum::<u64>();
    let stats = &sim.proxy.stats;
    format!(
        "sent={} completed={} {} forwarded={} responses={} failed={} resets={} \
         shard_requests={:?} events={events}",
        sum(|c| c.sent),
        sum(|c| c.completed),
        latency(&hist),
        stats.forwarded,
        stats.responses,
        stats.failed,
        stats.upstream_resets,
        sim.shards
            .iter()
            .map(|s| s.stats.requests)
            .collect::<Vec<_>>(),
    )
}

/// Below saturation (about 34 kRPS with these buffers) the backlog fills
/// and empties request by request, so direct sends — the only ones that
/// carry a hint — and backlogged ones alternate; past it nearly every
/// request queues behind an older one and the restart finds the backlog
/// non-empty.
#[test]
fn client_and_server_backlogs_carry_a_pair() {
    assert_eq!(
        [pair(30_000.0), pair(50_000.0)],
        [
            "sent=1210 completed=1210 in_window=776 restarts=1 n=776 p50=35328 p99=84992 \
             server_requests=1210 hint_ns=37865 events=26261",
            "sent=2003 completed=1365 in_window=1101 restarts=1 n=1101 p50=2195456 p99=9306112 \
             server_requests=1485 hint_ns=53773 events=81349",
        ]
    );
}

/// 20 kRPS per client: the crash catches the upstream with a read pass
/// still queued. 30: all four backlogs alternate with direct sends. 40:
/// past saturation — deadlines expire, most requests are failed back
/// through the client-side backlog, and the crash finds the upstream's
/// backlog non-empty.
#[test]
fn all_four_backlogs_carry_a_tier() {
    assert_eq!(
        [tier(20_000.0), tier(30_000.0), tier(40_000.0)],
        [
            "sent=1672 completed=1671 n=1047 p50=65024 p99=109568 forwarded=1671 responses=1671 \
             failed=0 resets=1 shard_requests=[888, 785] events=69716",
            "sent=2482 completed=2477 n=1570 p50=80896 p99=282624 forwarded=2481 responses=2478 \
             failed=0 resets=1 shard_requests=[1292, 1189] events=108570",
            "sent=3248 completed=1993 n=1601 p50=9043968 p99=16384000 forwarded=2153 \
             responses=739 failed=1257 resets=1 shard_requests=[859, 927] events=155321",
        ]
    );
}
