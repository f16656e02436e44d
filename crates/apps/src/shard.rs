//! Running one two-tier (sharded proxy) experiment point.
//!
//! The star harness ([`crate::runner`]) measures one leg; this one
//! measures the composed path of the datacenter topology: N load
//! generators fan into a [`ProxyApp`](crate::proxy::ProxyApp) which
//! routes by key over K [`RedisServer`](crate::RedisServer) shards. The proxy runs the
//! estimation machinery on *both* legs and composes them per shard
//! (client→proxy + proxy→shard, Figure 3 terms summed), so the run
//! reports a per-shard service-level estimate — the signal that lets a
//! per-shard control plane treat a hot shard differently from its idle
//! neighbours.
//!
//! The workload is deliberately skewed: a configurable fraction of
//! requests draw keys owned by one *hot* shard (chosen as the shard
//! owning the largest slice of the key space), the rest spread over the
//! cold shards. The interesting comparison is [`ShardSetting::Corner`]
//! (one global static batching choice for every upstream) against
//! [`ShardSetting::Adaptive`] (per-shard planes free to batch the hot
//! upstream while leaving cold ones latency-optimal).

use batchpolicy::Objective;
use littles::Nanos;
use simnet::{FaultConfig, Pcg32, Stream};
use tcpsim::NagleMode;

use crate::cost::CostProfile;
use crate::runner::CpuUtil;
use crate::tier::{run_tier, TierPoint};
use crate::workload::WorkloadSpec;

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
pub struct ShardRunConfig {
    /// The aggregate workload (rate split evenly across clients; keys
    /// drawn from the skewed pool, not the round-robin walk).
    pub workload: WorkloadSpec,
    /// CPU cost profile (clients and the proxy use the client stack —
    /// the proxy is a lean router — shards the server stack).
    pub profile: CostProfile,
    /// Upstream batching control.
    pub setting: ShardSetting,
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
}

impl ShardRunConfig {
    /// A standard two-tier run: 4 clients, 4 shards, 70% hot traffic,
    /// 200 ms warmup, 800 ms measurement.
    pub fn new(workload: WorkloadSpec, setting: ShardSetting) -> Self {
        ShardRunConfig {
            workload,
            profile: CostProfile::shard_tier(),
            setting,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(800),
            seed: 0x5AAD,
            num_clients: 4,
            num_shards: 4,
            hot_fraction: 0.7,
        }
    }
}

/// The result of one two-tier run.
#[derive(Debug, Clone)]
pub struct ShardPointResult {
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
    /// The shard owning the hot key pool.
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
    /// (meaningful for [`ShardSetting::Adaptive`]; the planes still run,
    /// inert, in corner arms).
    pub shard_on_fraction: Vec<f64>,
    /// Each shard plane's learned (off, on) arm scores at the end of the
    /// run (negated µs under `MinLatency`; `None` = arm never scored).
    pub shard_arm_scores: Vec<(Option<f64>, Option<f64>)>,
    /// Proxy-host CPU utilization over the window.
    pub proxy_cpu: CpuUtil,
    /// Simulator events processed.
    pub events: u64,
}

/// Executes one two-tier experiment point.
pub fn run_shard_point(cfg: &ShardRunConfig) -> ShardPointResult {
    let k = cfg.num_shards;
    // Only the upstream mode varies between arms; in corner arms the
    // planes still run (under the default objective), inert.
    let (upstream, objective) = match cfg.setting {
        ShardSetting::Corner { nagle: true } => (NagleMode::On, Objective::MinLatency),
        ShardSetting::Corner { nagle: false } => (NagleMode::Off, Objective::MinLatency),
        ShardSetting::Adaptive { objective } => (NagleMode::Dynamic, objective),
    };
    let run = run_tier(
        TierPoint {
            workload: cfg.workload,
            profile: cfg.profile,
            warmup: cfg.warmup,
            measure: cfg.measure,
            seed: cfg.seed,
            num_clients: cfg.num_clients,
            num_shards: k,
            hot_fraction: cfg.hot_fraction,
            upstream,
            objective,
            validate: None,
            resilience: None,
            skew: Pcg32::stream(cfg.seed, Stream::ShardSkew),
        },
        |_, _| FaultConfig::default(),
    );
    let (from, to) = (cfg.warmup, cfg.warmup + cfg.measure);
    let hot_shard = run.hot_shard;

    let proxy = &run.sim.proxy;
    #[expect(clippy::expect_used, reason = "run_tier attaches a driver to every proxy it builds")]
    let driver = proxy.driver.as_ref().expect("run_tier attaches one");
    let shard_estimates: Vec<Option<Nanos>> = (0..k)
        .map(|j| driver.shard_mean_latency_in(j, from, to))
        .collect();
    let shard_on_fraction: Vec<f64> = (0..k).map(|j| driver.on_fraction(j)).collect();
    let shard_arm_scores: Vec<(Option<f64>, Option<f64>)> = (0..k)
        .map(|j| {
            let p = driver.plane(j);
            (p.nagle_arm_score(false), p.nagle_arm_score(true))
        })
        .collect();

    // Rank the hot shard per estimation window. The per-shard series are
    // produced by the same proxy tick, so entries align by timestamp;
    // walk windows where every shard reported inside [from, to).
    let hot_rank_fraction = {
        let series: Vec<_> = (0..k).map(|j| driver.shard_series(j)).collect();
        let windows = series.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut ranked = 0u64;
        let mut total = 0u64;
        for (w, &(at, _)) in series[0].iter().take(windows).enumerate() {
            if at < from || at >= to {
                continue;
            }
            total += 1;
            let hot_latency = series[hot_shard][w].1.smoothed_latency;
            if (0..k).all(|j| j == hot_shard || series[j][w].1.smoothed_latency < hot_latency) {
                ranked += 1;
            }
        }
        (total > 0).then(|| ranked as f64 / total as f64)
    };

    let stats = &proxy.stats;
    ShardPointResult {
        offered_rps: cfg.workload.rate_rps,
        achieved_rps: run.achieved_rps,
        measured_mean: run.hist.mean(),
        measured_p50: run.hist.p50(),
        measured_p99: run.hist.p99(),
        samples: run.hist.count(),
        hot_shard,
        per_shard_requests: stats.per_shard.clone(),
        shard_estimates,
        shard_rtt_p99: stats.back_rtt.iter().map(|h| h.p99()).collect(),
        hot_rank_fraction,
        shard_on_fraction,
        shard_arm_scores,
        proxy_cpu: run.proxy_cpu,
        events: run.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(setting: ShardSetting) -> ShardRunConfig {
        let mut cfg = ShardRunConfig::new(WorkloadSpec::shard(8_000.0), setting);
        cfg.num_clients = 2;
        cfg.num_shards = 2;
        cfg.warmup = Nanos::from_millis(50);
        cfg.measure = Nanos::from_millis(150);
        cfg
    }

    #[test]
    fn corner_point_serves_skewed_traffic() {
        let r = run_shard_point(&smoke_cfg(ShardSetting::Corner { nagle: false }));
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
        let r = run_shard_point(&smoke_cfg(ShardSetting::Adaptive {
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
        let a = run_shard_point(&cfg);
        let b = run_shard_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
    }
}
