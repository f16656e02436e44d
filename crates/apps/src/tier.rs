//! The two-tier assembly both proxy grids run on.
//!
//! [`run_shard_point`](crate::shard::run_shard_point) and
//! [`run_failover_point`](crate::failover::run_failover_point) measure
//! different things on the same harness: N skewed load generators → one
//! [`ProxyApp`] with a per-shard [`ProxyDriver`] → K [`RedisServer`]
//! shards behind an 80 µs back link, run for warm-up, measurement window
//! and a 20 ms drain. [`run_tier`] is that harness once; a [`TierPoint`]
//! says what a grid varies, and each grid reads its own result off the
//! finished [`TierRun`].

use batchpolicy::{ControlPlane, EpsilonGreedy, Objective, TickController};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{run, CpuContext, EventQueue, FaultConfig, Histogram, LinkConfig, Pcg32};
use tcpsim::{Host, HostId, NagleMode, TierSim, Unit};

use crate::cost::CostProfile;
use crate::driver::ProxyDriver;
use crate::loadgen::{KeyPool, LancetClient};
use crate::proxy::{ProxyApp, Resilience, ShardRouter};
use crate::runner::{client_host, new_host, shield, tcp_config, CpuUtil, Overrides};
use crate::server::RedisServer;
use crate::workload::WorkloadSpec;

/// One two-tier experiment point.
pub(crate) struct TierPoint {
    // The fields `ShardRunConfig` and `FailoverRunConfig` share,
    // documented there.
    pub workload: WorkloadSpec,
    pub profile: CostProfile,
    pub warmup: Nanos,
    pub measure: Nanos,
    pub seed: u64,
    pub num_clients: usize,
    pub num_shards: usize,
    pub hot_fraction: f64,
    // What each grid sets its own way.
    /// Nagle mode of the proxy's upstream (proxy → shard) sockets:
    /// `Dynamic` so the per-shard planes can actuate, or a static pin on
    /// which their Nagle actuation is inert. Clients, the proxy's accept
    /// side and the shards stay `TCP_NODELAY` whatever this is.
    pub upstream: NagleMode,
    /// Objective of the per-shard planes.
    pub objective: Objective,
    /// Peer-state validation on every registry of the proxy's driver.
    pub validate: Option<ValidateConfig>,
    /// The proxy's failure handling; `None` is the naive proxy.
    pub resilience: Option<Resilience>,
    /// The key-skew stream, forked once per client so the draws never
    /// perturb arrival/value RNG sequences. Each grid names its own
    /// stream so the two never correlate draws.
    pub skew: Pcg32,
}

/// A finished two-tier run.
pub(crate) struct TierRun {
    /// The simulation, drained: apps, hosts, links and fault plan.
    pub sim: TierSim<LancetClient, ProxyApp, RedisServer>,
    /// The shard owning the largest slice of the key space, which the hot
    /// key pool draws from (deterministic in the seed).
    pub hot_shard: usize,
    /// The cold shard owning the most keys.
    pub cold_shard: usize,
    /// Every client's in-window latency samples, merged.
    pub hist: Histogram,
    /// Achieved goodput across every client.
    pub achieved_rps: f64,
    /// Proxy-host CPU utilization over the window.
    pub proxy_cpu: CpuUtil,
    /// Simulator events processed.
    pub events: u64,
}

/// Assembles and runs one two-tier point. `fault` builds the fault plan
/// from the (hot, cold) shard indices; a disabled plan leaves the run
/// bit-identical to a fault-free one.
pub(crate) fn run_tier(
    point: TierPoint,
    fault: impl FnOnce(usize, usize) -> FaultConfig,
) -> TierRun {
    let n = point.num_clients;
    let k = point.num_shards;
    assert!(n > 0, "a run needs at least one client");
    assert!(k > 1, "skew and failover need at least two shards");

    let ov = Overrides::default();
    let edge_tcp = tcp_config(NagleMode::Off, &ov);
    let upstream_tcp = tcp_config(point.upstream, &ov);

    // Key → shard ownership and the hot/cold split.
    let router = ShardRouter::new(k, point.seed);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); k];
    for idx in 0..point.workload.key_space as u64 {
        let key = format!("key:{idx:012}");
        owned[router.route(key.as_bytes())].push(idx);
    }
    #[expect(clippy::expect_used, reason = "a two-tier run has at least two shards")]
    let largest = |skip: Option<usize>| {
        (0..k)
            .filter(|s| Some(*s) != skip)
            .max_by_key(|s| owned[*s].len())
            .expect("at least two shards")
    };
    let hot_shard = largest(None);
    let cold_shard = largest(Some(hot_shard));
    let hot: Vec<u64> = owned[hot_shard].clone();
    let cold: Vec<u64> = (0..k)
        .filter(|s| *s != hot_shard)
        .flat_map(|s| owned[s].iter().copied())
        .collect();

    let mut skew = point.skew;
    let mut spec = point.workload;
    spec.rate_rps = point.workload.rate_rps / n as f64;
    let end = point.warmup + point.measure;
    let clients: Vec<LancetClient> = (0..n)
        .map(|_| {
            LancetClient::new(spec, point.profile.app, edge_tcp, point.warmup, end).with_key_pool(
                KeyPool::new(hot.clone(), cold.clone(), point.hot_fraction, skew.fork()),
            )
        })
        .collect();

    // Per-shard planes: Nagle bandits seeded independently per shard
    // (0xD keeps the streams disjoint from the star harness's client
    // policies at 0xC and listener at 0x5). On statically pinned
    // upstreams the identical machinery runs with its Nagle actuation
    // inert — every arm pays the same estimation overhead.
    let controllers = (0..k)
        .map(|j| {
            let seed = point.seed ^ 0xD ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Calmer than the star harness's client planes (ε .05, dwell
            // 4, α .4): a wrong arm on a saturated shard is catastrophic,
            // so the per-shard bandits explore rarely, dwell longer, and
            // smooth harder — the per-window signal between arms is tens
            // of µs against comparable sampling noise on a sparse
            // upstream. The settle period keeps post-switch windows
            // (still dominated by the previous arm's traffic) from being
            // credited to the new arm.
            let toggler = EpsilonGreedy::new(point.objective, 0.01, 8, 0.5, seed).with_settle(3);
            TickController::new(
                shield(ControlPlane::new(toggler, 8), None),
                Nanos::from_millis(1),
            )
        })
        .collect();
    let mut driver = ProxyDriver::new(Unit::Bytes, controllers);
    if let Some(v) = point.validate {
        driver = driver.with_validation(v);
    }

    let shard_ids: Vec<HostId> = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let mut proxy =
        ProxyApp::new(point.profile.app, upstream_tcp, shard_ids, router).with_driver(driver);
    if let Some(resilience) = point.resilience {
        proxy = proxy.with_resilience(resilience);
    }
    let shards: Vec<RedisServer> = (0..k)
        .map(|_| RedisServer::new(point.profile.app))
        .collect();

    let client_hosts: Vec<Host> = (0..n)
        .map(|i| client_host(i, &point.profile, edge_tcp))
        .collect();
    // The proxy runs the lean client stack: it is an L7 router, not a
    // store — parse, hash, re-frame. Keeping it off the critical path
    // lets the back-leg queueing (the hot *shard's* backlog) dominate
    // each shard's composed estimate instead of shared proxy read delay.
    let (proxy_stack, shard_stack) = (point.profile.client_stack, point.profile.server_stack);
    let proxy_app = CpuContext::new("proxy-app");
    let proxy_host = new_host(n, proxy_app, "proxy-softirq", proxy_stack, edge_tcp);
    let shard_hosts: Vec<Host> = (0..k)
        .map(|j| {
            let app = CpuContext::new("shard-app");
            new_host(n + 1 + j, app, "shard-softirq", shard_stack, edge_tcp)
        })
        .collect();

    // The back leg crosses the fabric (proxy and shards sit in different
    // racks), so its propagation is real: a Nagle hold on an upstream
    // waits a full ACK round trip. That is what makes the knob a genuine
    // per-shard tradeoff — on a sparse cold upstream a held request eats
    // the round trip for nothing, while on the hot upstream the same hold
    // window coalesces several requests into one delivery and spares the
    // shard's receive path.
    let back_link = LinkConfig {
        propagation: Nanos::from_micros(80),
        ..LinkConfig::default()
    };
    let mut sim = TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        back_link,
        point.seed,
        fault(hot_shard, cold_shard),
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);

    let mut events = run(&mut sim, &mut queue, point.warmup);
    let proxy_snap = (
        sim.proxy_host().app_cpu.busy_snapshot(queue.now()),
        sim.proxy_host().softirq_cpu.busy_snapshot(queue.now()),
    );
    events += run(&mut sim, &mut queue, end);
    // Drain a little so in-flight responses complete (not measured —
    // samples are keyed by arrival time).
    events += run(&mut sim, &mut queue, end + Nanos::from_millis(20));

    let proxy_cpu = CpuUtil {
        app: sim
            .proxy_host()
            .app_cpu
            .utilization_since(&proxy_snap.0, end),
        softirq: sim
            .proxy_host()
            .softirq_cpu
            .utilization_since(&proxy_snap.1, end),
    };
    let mut hist = Histogram::new();
    for lg in &sim.clients {
        hist.merge(&lg.hist);
    }
    let achieved_rps = sim.clients.iter().map(|lg| lg.achieved_rps()).sum();

    TierRun {
        sim,
        hot_shard,
        cold_shard,
        hist,
        achieved_rps,
        proxy_cpu,
        events,
    }
}
