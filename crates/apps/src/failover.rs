//! Running one shard-failure experiment point.
//!
//! The two-tier harness ([`crate::shard`]) measures batching under a
//! healthy shard tier; this one measures *survival*: the same skewed
//! N-client → proxy → K-shard topology with a tier-aware
//! [`ShardFaultPlan`] killing or browning out
//! shards mid-run, against a ladder of proxy defense arms
//! ([`FailoverArm`]): the naive no-defense proxy, deadlines only,
//! budgeted retries, and the full retry + hedge + breaker stack with
//! ring-successor failover routing.
//!
//! The interesting comparison per cell is each arm against the
//! *never-failed oracle* — the identical configuration with the fault
//! plan disabled. A defense stack earns its keep when its P99 and
//! goodput stay within a small factor of the oracle while the naive
//! proxy collapses (a dead hot shard head-of-line-blocks every client's
//! pipelined connection).

use batchpolicy::{BreakerConfig, Objective, RetryConfig};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{
    FaultConfig, Pcg32, RestartSchedule, ShardBrownout, ShardFaultPlan, Stream, WindowSchedule,
};
use tcpsim::NagleMode;

use crate::cost::CostProfile;
use crate::proxy::Resilience;
use crate::tier::{run_tier, TierPoint};
use crate::workload::WorkloadSpec;

/// The proxy's defense ladder, weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverArm {
    /// The naive proxy: no deadlines, no reconnect. A reset upstream is
    /// forgotten and every request routed to it is silently lost.
    NoDefense,
    /// Per-attempt deadlines only: stranded requests fail fast back to
    /// the client, and reset upstreams are re-dialed — but nothing is
    /// ever re-sent.
    TimeoutOnly,
    /// Deadlines plus budgeted retries with backoff, alternating between
    /// the home shard and its ring-successor failover replica.
    Retry,
    /// The full stack: retries, estimate-driven hedging to the failover
    /// replica, and per-upstream breakers redirecting traffic away from
    /// a dead shard at admit time.
    Full,
}

impl FailoverArm {
    /// All arms, weakest first.
    pub const ALL: [FailoverArm; 4] = [
        FailoverArm::NoDefense,
        FailoverArm::TimeoutOnly,
        FailoverArm::Retry,
        FailoverArm::Full,
    ];

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverArm::NoDefense => "no_defense",
            FailoverArm::TimeoutOnly => "timeout_only",
            FailoverArm::Retry => "retry",
            FailoverArm::Full => "full",
        }
    }
}

/// What goes wrong mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverScenario {
    /// The hot shard (owner of the skewed traffic) crashes a quarter of
    /// the way into the measurement window: both ends of its proxy link
    /// reset, in-flight requests die. The host keeps listening, so a
    /// defense that re-dials recovers; the naive proxy never does.
    CrashHot,
    /// A cold shard's application thread browns out periodically
    /// (GC-pause-like stalls), stretching its service time far past the
    /// healthy tail without ever dropping the connection.
    BrownoutCold,
}

impl FailoverScenario {
    /// Both scenarios, in grid order.
    pub const ALL: [FailoverScenario; 2] =
        [FailoverScenario::CrashHot, FailoverScenario::BrownoutCold];

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FailoverScenario::CrashHot => "crash_hot",
            FailoverScenario::BrownoutCold => "brownout_cold",
        }
    }
}

/// Everything that defines one failover experiment point.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRunConfig {
    /// The aggregate workload (rate split evenly across clients).
    pub workload: WorkloadSpec,
    /// CPU cost profile.
    pub profile: CostProfile,
    /// The proxy's defense arm.
    pub arm: FailoverArm,
    /// The injected fault; `None` is the never-failed oracle.
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
    /// Optional client-endpoint restart chaos (the PR-5 fault class),
    /// layered on top of the scenario's shard faults. Restart victims
    /// draw from `fault.restart`, shard-crash victims from
    /// `fault.shard_crash` — composing the two shifts neither stream.
    pub client_restart: Option<RestartSchedule>,
}

impl FailoverRunConfig {
    /// A standard failover run: 4 clients, 4 shards, 70% hot traffic,
    /// 200 ms warmup, 800 ms measurement.
    pub fn new(workload: WorkloadSpec, arm: FailoverArm, scenario: Option<FailoverScenario>) -> Self {
        FailoverRunConfig {
            workload,
            profile: CostProfile::shard_tier(),
            arm,
            scenario,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(800),
            seed: 0xFA11,
            num_clients: 4,
            num_shards: 4,
            hot_fraction: 0.7,
            client_restart: None,
        }
    }

    /// The retry/hedge tuning every resilient arm runs with.
    pub fn retry_config() -> RetryConfig {
        RetryConfig::default()
    }

    /// The breaker tuning the full arm runs with.
    pub fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            min_confidence: 0.2,
            trip_after: 4,
            safe_on: false,
            initial_backoff: Nanos::from_millis(1),
            max_backoff: Nanos::from_millis(8),
            restore_after: 2,
        }
    }
}

/// The result of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverPointResult {
    /// Offered aggregate load (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput across every client.
    pub achieved_rps: f64,
    /// Measured mean end-to-end latency.
    pub measured_mean: Option<Nanos>,
    /// Measured median latency.
    pub measured_p50: Option<Nanos>,
    /// Measured 99th-percentile latency.
    pub measured_p99: Option<Nanos>,
    /// Latency samples in the window.
    pub samples: u64,
    /// The shard owning the hot key pool (the crash victim).
    pub hot_shard: usize,
    /// The browned-out cold shard (victim of `BrownoutCold`).
    pub cold_shard: usize,
    /// Commands the proxy routed to each shard.
    pub per_shard_requests: Vec<u64>,
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

/// Builds the fault plan for a scenario (empty = oracle, bit-identical
/// to a fault-free run).
fn fault_config(cfg: &FailoverRunConfig, hot_shard: usize, cold_shard: usize) -> FaultConfig {
    let Some(scenario) = cfg.scenario else {
        return FaultConfig {
            restart: cfg.client_restart,
            ..FaultConfig::default()
        };
    };
    let shard = match scenario {
        // One decisive crash a quarter into the measurement window,
        // pinned to the hot shard (pinned victims draw nothing from the
        // crash stream, keeping the cell replayable by inspection).
        FailoverScenario::CrashHot => ShardFaultPlan {
            crash: Some(RestartSchedule {
                first_at: cfg.warmup + Nanos::from_nanos(cfg.measure.as_nanos() / 4),
                period: Nanos::ZERO,
            }),
            crash_target: Some(hot_shard),
            ..ShardFaultPlan::default()
        },
        // Periodic 4 ms app-thread stalls at 25% duty cycle on a cold
        // shard: connections stay up, service time stretches ~20× past
        // the healthy tail inside each window.
        FailoverScenario::BrownoutCold => ShardFaultPlan {
            brownout: Some(ShardBrownout {
                shard: cold_shard,
                windows: WindowSchedule {
                    first_at: cfg.warmup + Nanos::from_millis(4),
                    period: Nanos::from_millis(16),
                    duration: Nanos::from_millis(4),
                },
            }),
            ..ShardFaultPlan::default()
        },
    };
    FaultConfig {
        shard,
        restart: cfg.client_restart,
        start_at: cfg.warmup,
        ..FaultConfig::default()
    }
}

/// Executes one failover experiment point.
pub fn run_failover_point(cfg: &FailoverRunConfig) -> FailoverPointResult {
    let k = cfg.num_shards;
    let retry = FailoverRunConfig::retry_config();
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
            // Batching is not under study here: every leg runs
            // `TCP_NODELAY` so the defense arms are compared on identical
            // transport behavior. The estimation planes still run in
            // every arm (the full arm's hedge timing and breaker
            // confidence feed read them; the other arms pay the same
            // overhead so the comparison isolates the defense, not the
            // estimator).
            upstream: NagleMode::Off,
            objective: Objective::MinLatency,
            // Peer-state validation on every registry: after a shard
            // crash the replacement connection's exchanges carry a new
            // epoch, and the back registry must resynchronize rather than
            // difference counters across the wipe.
            validate: Some(ValidateConfig::default()),
            resilience: match cfg.arm {
                FailoverArm::NoDefense => None,
                FailoverArm::TimeoutOnly => Some(Resilience::timeout_only(retry)),
                FailoverArm::Retry => Some(Resilience::with_retries(retry)),
                FailoverArm::Full => {
                    Some(Resilience::full(retry, FailoverRunConfig::breaker_config()))
                }
            },
            skew: Pcg32::stream(cfg.seed, Stream::FailoverSkew),
        },
        // The brownout victim is the cold shard owning the most keys (so
        // the stalls hit real traffic without touching the hot path).
        |hot_shard, cold_shard| fault_config(cfg, hot_shard, cold_shard),
    );
    let sim = &run.sim;

    let dedup_hits: u64 = sim.shards.iter().map(|s| s.kv().dedup_hits()).sum();
    let shard_crashes = sim.fault_plan().map(|p| p.shard_crashes()).unwrap_or(0);
    let endpoint_restarts = sim.fault_plan().map(|p| p.restarts()).unwrap_or(0);
    #[expect(clippy::expect_used, reason = "run_tier attaches a driver to every proxy it builds")]
    let driver = sim.proxy.driver.as_ref().expect("run_tier attaches one");
    let back_epoch_changes = (0..k)
        .map(|j| driver.back_validation_stats(j).epoch_changes)
        .sum();

    let stats = &sim.proxy.stats;
    let (retries, hedges, budget_denied) = sim
        .proxy
        .retry_policy()
        .map(|p| (p.retries(), p.hedges(), p.budget_denied()))
        .unwrap_or((0, 0, 0));

    FailoverPointResult {
        offered_rps: cfg.workload.rate_rps,
        achieved_rps: run.achieved_rps,
        measured_mean: run.hist.mean(),
        measured_p50: run.hist.p50(),
        measured_p99: run.hist.p99(),
        samples: run.hist.count(),
        hot_shard: run.hot_shard,
        cold_shard: run.cold_shard,
        per_shard_requests: stats.per_shard.clone(),
        shard_crashes,
        endpoint_restarts,
        back_epoch_changes,
        upstream_resets: stats.upstream_resets,
        timeouts: stats.timeouts,
        failed: stats.failed,
        retries,
        hedges,
        budget_denied,
        breaker_trips: sim.proxy.breaker_trips(),
        failovers: stats.failovers,
        orphan_responses: stats.orphan_responses,
        dedup_hits,
        events: run.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(arm: FailoverArm, scenario: Option<FailoverScenario>) -> FailoverRunConfig {
        let mut cfg = FailoverRunConfig::new(WorkloadSpec::shard(8_000.0), arm, scenario);
        cfg.num_clients = 2;
        cfg.num_shards = 3;
        cfg.warmup = Nanos::from_millis(50);
        cfg.measure = Nanos::from_millis(250);
        cfg
    }

    #[test]
    fn oracle_run_is_healthy_and_quiet() {
        let r = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert!(r.achieved_rps > 0.8 * r.offered_rps);
        assert_eq!(r.shard_crashes, 0);
        assert_eq!(r.upstream_resets, 0);
        assert_eq!(r.failed, 0, "oracle must not fail requests");
    }

    #[test]
    fn crash_collapses_the_naive_proxy_but_not_the_full_stack() {
        let naive = run_failover_point(&smoke_cfg(
            FailoverArm::NoDefense,
            Some(FailoverScenario::CrashHot),
        ));
        let full = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::CrashHot),
        ));
        let oracle = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert_eq!(naive.shard_crashes, 1);
        assert_eq!(full.shard_crashes, 1);
        assert!(full.upstream_resets >= 1);
        // The naive proxy loses the hot shard's traffic for good.
        assert!(
            naive.achieved_rps < 0.7 * oracle.achieved_rps,
            "naive goodput {} vs oracle {}",
            naive.achieved_rps,
            oracle.achieved_rps
        );
        // The full stack recovers to near-oracle goodput.
        assert!(
            full.achieved_rps > 0.9 * oracle.achieved_rps,
            "full goodput {} vs oracle {}",
            full.achieved_rps,
            oracle.achieved_rps
        );
    }

    #[test]
    fn brownout_exercises_retries_and_hedges() {
        let r = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::BrownoutCold),
        ));
        assert!(r.timeouts + r.hedges > 0, "fault plan never bit");
        assert!(
            r.retries + r.hedges > 0,
            "defense never engaged: {r:?}"
        );
    }

    #[test]
    fn shard_crash_resyncs_the_back_leg_epoch() {
        let oracle = run_failover_point(&smoke_cfg(FailoverArm::Full, None));
        assert_eq!(
            oracle.back_epoch_changes, 0,
            "no crash, no new counter generation"
        );
        let crashed = run_failover_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::CrashHot),
        ));
        // The replacement upstream announces a fresh epoch; the proxy's
        // back registry resynchronizes instead of differencing counters
        // across the wipe.
        assert!(
            crashed.back_epoch_changes > 0,
            "back leg never saw the crashed shard's new epoch: {crashed:?}"
        );
    }

    #[test]
    fn endpoint_restart_chaos_composes_with_shard_crash() {
        let mut cfg = smoke_cfg(FailoverArm::Full, Some(FailoverScenario::CrashHot));
        cfg.client_restart = Some(RestartSchedule {
            first_at: cfg.warmup + Nanos::from_millis(40),
            period: Nanos::from_millis(80),
        });
        let a = run_failover_point(&cfg);
        assert_eq!(a.shard_crashes, 1, "the shard fault still fires");
        assert!(a.endpoint_restarts > 0, "the client fault still fires");
        assert!(a.samples > 500, "clients keep measuring through both");
        // Composing the two chaos kinds stays deterministic: each draws
        // from its own named stream.
        let b = run_failover_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.endpoint_restarts, b.endpoint_restarts);
    }

    #[test]
    fn crash_cell_replays_bit_identically() {
        let cfg = smoke_cfg(FailoverArm::Full, Some(FailoverScenario::CrashHot));
        let a = run_failover_point(&cfg);
        let b = run_failover_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }
}
