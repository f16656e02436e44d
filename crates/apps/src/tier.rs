//! Running one two-tier (sharded proxy) experiment point.
//!
//! The star harness ([`crate::runner`]) measures one leg; this one
//! measures the composed path of the datacenter topology: N load
//! generators fan into a [`ProxyApp`] with a per-shard [`ProxyDriver`],
//! which routes by key over K [`RedisServer`] shards behind an 80 µs back
//! link. The proxy runs the estimation machinery on *both* legs and
//! composes them per shard (client→proxy + proxy→shard, Figure 3 terms
//! summed), so the run reports a per-shard service-level estimate — the
//! signal that lets a per-shard control plane treat a hot shard
//! differently from its idle neighbours.
//!
//! The workload is deliberately skewed: a configurable fraction of
//! requests draw keys owned by one *hot* shard (the shard owning the
//! largest slice of the key space), the rest spread over the cold shards.
//! Two grids run on this one point. The shard grid varies the upstream
//! batching: [`ShardSetting::Corner`] (one global static choice for every
//! upstream) against [`ShardSetting::Adaptive`] (per-shard planes free to
//! batch the hot upstream while leaving cold ones latency-optimal). The
//! failover grid varies the fault and the proxy's defense ladder
//! ([`crate::failover`]). A [`TierRunConfig`] holds both, [`run_tier_point`]
//! runs it, and the [`TierPointResult`] carries both readouts.

use batchpolicy::{ControlPlane, EpsilonGreedy, Objective, TickController};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{run, CpuContext, EventQueue, Histogram, LinkConfig, Pcg32, RestartSchedule, Stream};
use tcpsim::{Host, HostId, NagleMode, TierSim, Unit};

use crate::cost::CostProfile;
use crate::driver::ProxyDriver;
use crate::failover::{FailoverArm, FailoverScenario};
use crate::loadgen::{KeyPool, LancetClient};
use crate::proxy::{ProxyApp, ShardRouter};
use crate::runner::{client_host, new_host, shield, tcp_config, CpuUtil, Overrides};
use crate::server::RedisServer;
use crate::workload::{key_bytes, WorkloadSpec};

/// How the proxy's upstream (proxy → shard) batching is controlled. The
/// client → proxy leg stays `TCP_NODELAY` in every arm so the comparison
/// isolates the knob under study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardSetting {
    /// One static choice applied to every upstream connection.
    Corner {
        /// Nagle enabled on every upstream.
        nagle: bool,
    },
    /// Per-shard control planes at the proxy, each deciding on its
    /// shard's back-leg estimate (the leg the knob controls) while the
    /// composed two-leg estimate provides the service-level ranking.
    Adaptive {
        /// The optimization objective.
        objective: Objective,
    },
}

/// Everything that defines one two-tier experiment point.
#[derive(Debug, Clone, Copy)]
pub struct TierRunConfig {
    /// The aggregate workload (rate split evenly across clients; keys
    /// drawn from the skewed pool, not the round-robin walk).
    pub workload: WorkloadSpec,
    /// CPU cost profile (clients and the proxy use the client stack —
    /// the proxy is a lean router — shards the server stack).
    pub profile: CostProfile,
    /// Upstream batching control. In corner arms the per-shard planes
    /// still run (under the default objective), their Nagle actuation
    /// inert, so every arm pays the same estimation overhead.
    pub upstream: ShardSetting,
    /// The proxy's defense arm.
    pub arm: FailoverArm,
    /// The injected fault; `None` runs the tier healthy (the failover
    /// grid's never-failed oracle).
    pub scenario: Option<FailoverScenario>,
    /// Warmup duration (excluded from measurement).
    pub warmup: Nanos,
    /// Measurement duration.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Client hosts fanning into the proxy.
    pub num_clients: usize,
    /// Shard hosts behind the proxy.
    pub num_shards: usize,
    /// Fraction of requests drawing keys owned by the hot shard.
    pub hot_fraction: f64,
    /// Optional client-endpoint restart chaos, layered on top of the
    /// scenario's shard faults. Restart victims draw from `fault.restart`,
    /// shard-crash victims from `fault.shard_crash` — composing the two
    /// shifts neither stream.
    pub client_restart: Option<RestartSchedule>,
    /// The key-skew stream, forked once per client so the draws never
    /// perturb arrival/value RNG sequences. Each grid names its own
    /// stream so the two never correlate draws.
    pub skew: Stream,
}

impl TierRunConfig {
    /// A standard failover run: 4 clients, 4 shards, 70% hot traffic,
    /// 200 ms warmup, 800 ms measurement. Batching is not under study
    /// there: every leg runs `TCP_NODELAY`, so the defense arms are
    /// compared on identical transport behavior. The planes still run in
    /// every arm: the full arm's hedge timing and breaker confidence read
    /// their estimates, and the other arms pay the same overhead.
    pub fn new(workload: WorkloadSpec, arm: FailoverArm, scenario: Option<FailoverScenario>) -> Self {
        TierRunConfig {
            workload,
            profile: CostProfile::shard_tier(),
            upstream: ShardSetting::Corner { nagle: false },
            arm,
            scenario,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(800),
            seed: 0xFA11,
            num_clients: 4,
            num_shards: 4,
            hot_fraction: 0.7,
            client_restart: None,
            skew: Stream::FailoverSkew,
        }
    }

    /// A standard shard-grid run: the same topology, healthy, behind the
    /// naive proxy, with upstream batching set by `upstream`.
    pub fn shard(workload: WorkloadSpec, upstream: ShardSetting) -> Self {
        TierRunConfig {
            upstream,
            seed: 0x5AAD,
            skew: Stream::ShardSkew,
            ..TierRunConfig::new(workload, FailoverArm::NoDefense, None)
        }
    }
}

/// The result of one two-tier run: the shard grid's batching readout and
/// the failover grid's defense-ladder readout, both computed every run.
#[derive(Debug, Clone)]
pub struct TierPointResult {
    /// Offered aggregate load (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput across every client.
    pub achieved_rps: f64,
    /// Measured mean end-to-end latency (client arrival → response
    /// processed, both legs included).
    pub measured_mean: Option<Nanos>,
    /// Measured median latency.
    pub measured_p50: Option<Nanos>,
    /// Measured 99th-percentile latency.
    pub measured_p99: Option<Nanos>,
    /// Latency samples in the window.
    pub samples: u64,
    /// The shard owning the hot key pool (the `CrashHot` victim).
    pub hot_shard: usize,
    /// Commands the proxy routed to each shard.
    pub per_shard_requests: Vec<u64>,
    /// Mean composed (two-leg) estimated latency per shard over the
    /// measurement window.
    pub shard_estimates: Vec<Option<Nanos>>,
    /// Measured back-leg (proxy → shard) round-trip p99 per shard, over
    /// the whole run including warmup — the ground truth behind the
    /// back-leg estimates.
    pub shard_rtt_p99: Vec<Option<Nanos>>,
    /// Fraction of estimation windows in which the hot shard's composed
    /// estimate ranked highest across shards — the "can the estimate
    /// find the hot shard" acceptance metric.
    pub hot_rank_fraction: Option<f64>,
    /// Fraction of plane decisions with batching on, per shard
    /// (meaningful for [`ShardSetting::Adaptive`]).
    pub shard_on_fraction: Vec<f64>,
    /// Proxy-host CPU utilization over the window.
    pub proxy_cpu: CpuUtil,
    /// Shard crashes the fault plan fired.
    pub shard_crashes: u64,
    /// Client-endpoint restarts the fault plan fired.
    pub endpoint_restarts: u64,
    /// Peer epoch changes the proxy's back-leg registries detected — a
    /// crashed shard's replacement connection announces a new counter
    /// generation, and the estimator resynchronizes instead of computing
    /// a garbage delta across the wipe.
    pub back_epoch_changes: u64,
    /// Upstream connection resets the proxy observed.
    pub upstream_resets: u64,
    /// Attempts that outlived their deadline.
    pub timeouts: u64,
    /// Requests failed back to clients.
    pub failed: u64,
    /// Retries granted by the budget.
    pub retries: u64,
    /// Hedges granted by the budget.
    pub hedges: u64,
    /// Attempts denied by the exhausted budget.
    pub budget_denied: u64,
    /// Breaker trips across shards.
    pub breaker_trips: u64,
    /// Attempts redirected away from their home shard.
    pub failovers: u64,
    /// Hedge/retry losers whose responses arrived after the winner.
    pub orphan_responses: u64,
    /// Duplicate tagged SETs suppressed by the shards' idempotency
    /// windows (summed across shards).
    pub dedup_hits: u64,
    /// Simulator events processed.
    pub events: u64,
}

/// Executes one two-tier experiment point: warm-up, measurement window
/// and a 20 ms drain.
pub fn run_tier_point(cfg: &TierRunConfig) -> TierPointResult {
    let n = cfg.num_clients;
    let k = cfg.num_shards;
    assert!(n > 0, "a run needs at least one client");
    assert!(k > 1, "skew and failover need at least two shards");

    let (upstream, objective) = match cfg.upstream {
        ShardSetting::Corner { nagle: true } => (NagleMode::On, Objective::MinLatency),
        ShardSetting::Corner { nagle: false } => (NagleMode::Off, Objective::MinLatency),
        ShardSetting::Adaptive { objective } => (NagleMode::Dynamic, objective),
    };
    let ov = Overrides::default();
    let edge_tcp = tcp_config(NagleMode::Off, &ov);
    let upstream_tcp = tcp_config(upstream, &ov);

    // Key → shard ownership and the hot/cold split. The brownout victim
    // is the cold shard owning the most keys (so the stalls hit real
    // traffic without touching the hot path).
    let router = ShardRouter::new(k, cfg.seed);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); k];
    for idx in 0..cfg.workload.key_space as u64 {
        owned[router.route(&key_bytes(idx))].push(idx);
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

    let mut skew = Pcg32::stream(cfg.seed, cfg.skew);
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let (from, end) = (cfg.warmup, cfg.warmup + cfg.measure);
    let clients: Vec<LancetClient> = (0..n)
        .map(|_| {
            LancetClient::new(spec, cfg.profile.app, edge_tcp, cfg.warmup, end).with_key_pool(
                KeyPool::new(hot.clone(), cold.clone(), cfg.hot_fraction, skew.fork()),
            )
        })
        .collect();

    // Per-shard planes: Nagle bandits seeded independently per shard
    // (0xD keeps the streams disjoint from the star harness's client
    // policies at 0xC and listener at 0x5).
    let controllers = (0..k)
        .map(|j| {
            let seed = cfg.seed ^ 0xD ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Calmer than the star harness's client planes (ε .05, dwell
            // 4, α .4): a wrong arm on a saturated shard is catastrophic,
            // so the per-shard bandits explore rarely, dwell longer, and
            // smooth harder — the per-window signal between arms is tens
            // of µs against comparable sampling noise on a sparse
            // upstream. The settle period keeps post-switch windows
            // (still dominated by the previous arm's traffic) from being
            // credited to the new arm.
            let toggler = EpsilonGreedy::new(objective, 0.01, 8, 0.5, seed).with_settle(3);
            TickController::new(
                shield(ControlPlane::new(toggler, 8), None),
                Nanos::from_millis(1),
            )
        })
        .collect();
    // Peer-state validation on every registry: after a shard crash the
    // replacement connection's exchanges carry a new epoch, and the back
    // registry must resynchronize rather than difference counters across
    // the wipe.
    let driver =
        ProxyDriver::new(Unit::Bytes, controllers).with_validation(ValidateConfig::default());

    let shard_ids: Vec<HostId> = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let mut proxy =
        ProxyApp::new(cfg.profile.app, upstream_tcp, shard_ids, router).with_driver(driver);
    if let Some(resilience) = cfg.arm.resilience() {
        proxy = proxy.with_resilience(resilience);
    }
    let shards: Vec<RedisServer> = (0..k)
        .map(|_| RedisServer::new(cfg.profile.app))
        .collect();

    let client_hosts: Vec<Host> = (0..n)
        .map(|i| client_host(i, &cfg.profile, edge_tcp))
        .collect();
    // The proxy runs the lean client stack: it is an L7 router, not a
    // store — parse, hash, re-frame. Keeping it off the critical path
    // lets the back-leg queueing (the hot *shard's* backlog) dominate
    // each shard's composed estimate instead of shared proxy read delay.
    let (proxy_stack, shard_stack) = (cfg.profile.client_stack, cfg.profile.server_stack);
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
        cfg.seed,
        cfg.fault_config(hot_shard, cold_shard),
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);

    let mut events = run(&mut sim, &mut queue, cfg.warmup);
    let proxy_snap = (
        sim.proxy_host().app_cpu.busy_snapshot(queue.now()),
        sim.proxy_host().softirq_cpu.busy_snapshot(queue.now()),
    );
    events += run(&mut sim, &mut queue, end);
    // Drain a little so in-flight responses complete (not measured —
    // samples are keyed by arrival time).
    events += run(&mut sim, &mut queue, end + Nanos::from_millis(20));

    let proxy_cpu = CpuUtil {
        app: sim.proxy_host().app_cpu.utilization_since(&proxy_snap.0, end),
        softirq: sim.proxy_host().softirq_cpu.utilization_since(&proxy_snap.1, end),
    };
    let mut hist = Histogram::new();
    for lg in &sim.clients {
        hist.merge(&lg.hist);
    }

    let proxy = &sim.proxy;
    #[expect(clippy::expect_used, reason = "the proxy was built with a driver above")]
    let driver = proxy.driver.as_ref().expect("attached above");
    // Rank the hot shard per estimation window. The per-shard series are
    // produced by the same proxy tick, so entries align by timestamp;
    // walk windows where every shard reported inside [from, end).
    let hot_rank_fraction = {
        let series: Vec<_> = (0..k).map(|j| driver.shard_series(j)).collect();
        let windows = series.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut ranked = 0u64;
        let mut total = 0u64;
        for (w, logged) in series[0].iter().take(windows).enumerate() {
            if logged.at < from || logged.at >= end {
                continue;
            }
            total += 1;
            let hot_latency = series[hot_shard][w].smoothed_latency;
            if (0..k).all(|j| j == hot_shard || series[j][w].smoothed_latency < hot_latency) {
                ranked += 1;
            }
        }
        (total > 0).then(|| ranked as f64 / total as f64)
    };
    let (retries, hedges, budget_denied) = proxy
        .retry_policy()
        .map(|p| (p.retries(), p.hedges(), p.budget_denied()))
        .unwrap_or((0, 0, 0));
    let plan = sim.fault_plan();
    let stats = &proxy.stats;
    TierPointResult {
        offered_rps: cfg.workload.rate_rps,
        achieved_rps: sim.clients.iter().map(|lg| lg.achieved_rps()).sum(),
        measured_mean: hist.mean(),
        measured_p50: hist.p50(),
        measured_p99: hist.p99(),
        samples: hist.count(),
        hot_shard,
        per_shard_requests: stats.per_shard.clone(),
        shard_estimates: (0..k).map(|j| driver.shard_mean_latency_in(j, from, end)).collect(),
        shard_rtt_p99: stats.back_rtt.iter().map(|h| h.p99()).collect(),
        hot_rank_fraction,
        shard_on_fraction: (0..k).map(|j| driver.on_fraction(j)).collect(),
        proxy_cpu,
        shard_crashes: plan.map_or(0, |p| p.shard_crashes()),
        endpoint_restarts: plan.map_or(0, |p| p.restarts()),
        back_epoch_changes: (0..k)
            .map(|j| driver.back_validation_stats(j).epoch_changes)
            .sum(),
        upstream_resets: stats.upstream_resets,
        timeouts: stats.timeouts,
        failed: stats.failed,
        retries,
        hedges,
        budget_denied,
        breaker_trips: proxy.breaker_trips(),
        failovers: stats.failovers,
        orphan_responses: stats.orphan_responses,
        dedup_hits: sim.shards.iter().map(|s| s.kv().dedup_hits()).sum(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(upstream: ShardSetting) -> TierRunConfig {
        let mut cfg = TierRunConfig::shard(WorkloadSpec::shard(8_000.0), upstream);
        cfg.num_clients = 2;
        cfg.num_shards = 2;
        cfg.warmup = Nanos::from_millis(50);
        cfg.measure = Nanos::from_millis(150);
        cfg
    }

    #[test]
    fn corner_point_serves_skewed_traffic() {
        let r = run_tier_point(&smoke_cfg(ShardSetting::Corner { nagle: false }));
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert!(r.achieved_rps > 0.5 * r.offered_rps);
        // Every shard saw traffic, and the hot one saw the most.
        assert!(r.per_shard_requests.iter().all(|&c| c > 0));
        let max = r
            .per_shard_requests
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(s, _)| s)
            .unwrap();
        assert_eq!(max, r.hot_shard);
    }

    #[test]
    fn adaptive_point_runs_per_shard_planes() {
        let r = run_tier_point(&smoke_cfg(ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        }));
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert_eq!(r.shard_on_fraction.len(), 2);
        assert!(r.shard_estimates.iter().all(|e| e.is_some()));
        assert!(r.hot_rank_fraction.is_some());
    }

    #[test]
    fn replay_is_bit_identical() {
        let cfg = smoke_cfg(ShardSetting::Corner { nagle: true });
        let a = run_tier_point(&cfg);
        let b = run_tier_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
    }
}
