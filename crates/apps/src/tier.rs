//! Running one two-tier (sharded proxy) experiment point.
//!
//! The star harness ([`crate::runner`]) measures one leg; this one
//! measures the composed path of the datacenter topology: N load
//! generators fan into a [`ProxyApp`](crate::proxy::ProxyApp) with a
//! per-shard [`ProxyDriver`](crate::driver::ProxyDriver), which routes by
//! key over K [`RedisServer`](crate::server::RedisServer) shards behind an 80 µs back
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
//! runs it on [`Harness::tier`], and the [`TierPointResult`] carries both
//! readouts.

use batchpolicy::Objective;
use littles::Nanos;
use simnet::{RestartSchedule, Stream};

use crate::cost::CostProfile;
use crate::failover::{FailoverArm, FailoverScenario};
use crate::harness::Harness;
use crate::runner::CpuUtil;
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
    /// scenario's shard faults. Restart victims draw from `fault.restart`;
    /// a shard crash names its shard and draws nothing, so composing the
    /// two shifts no stream.
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
    pub fn new(
        workload: WorkloadSpec,
        arm: FailoverArm,
        scenario: Option<FailoverScenario>,
    ) -> Self {
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
/// and a 20 ms drain (see [`Harness`] for the stages).
pub fn run_tier_point(cfg: &TierRunConfig) -> TierPointResult {
    Harness::tier(cfg).run().result()
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
