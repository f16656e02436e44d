//! The shard-failure vocabulary of the two-tier point.
//!
//! The shard grid measures batching under a healthy shard tier; the
//! failover grid measures *survival* on the same point
//! ([`crate::tier`]): a tier-aware [`ShardFaultPlan`] built from a
//! [`FailoverScenario`] kills or browns out shards mid-run, against a
//! ladder of proxy defense arms ([`FailoverArm`]): the naive no-defense
//! proxy, deadlines only, budgeted retries, and the full retry + hedge +
//! breaker stack with ring-successor failover routing.
//!
//! The interesting comparison per cell is each arm against the
//! *never-failed oracle* — the identical configuration with the fault
//! plan disabled. A defense stack earns its keep when its P99 and
//! goodput stay within a small factor of the oracle while the naive
//! proxy collapses (a dead hot shard head-of-line-blocks every client's
//! pipelined connection).

use batchpolicy::{BreakerConfig, RetryConfig};
use littles::Nanos;
use simnet::{
    FaultConfig, RestartSchedule, ShardBrownout, ShardCrash, ShardFaultPlan, WindowSchedule,
};

use crate::proxy::Resilience;
use crate::tier::TierRunConfig;

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

    /// The proxy's failure handling in this arm; `None` is the naive
    /// proxy.
    pub(crate) fn resilience(self) -> Option<Resilience> {
        let retry = TierRunConfig::retry_config();
        match self {
            FailoverArm::NoDefense => None,
            FailoverArm::TimeoutOnly => Some(Resilience::timeout_only(retry)),
            FailoverArm::Retry => Some(Resilience::with_retries(retry)),
            FailoverArm::Full => Some(Resilience::full(retry, TierRunConfig::breaker_config())),
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

/// The failover grid's name for the one two-tier configuration, kept for
/// callers written against it: a [`TierRunConfig`] whose
/// [`new`](TierRunConfig::new) defaults are the failover grid's.
pub type FailoverRunConfig = TierRunConfig;

impl TierRunConfig {
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

    /// Builds the fault plan for the scenario against the (hot, cold)
    /// shards. With neither a scenario nor client restarts the plan is
    /// empty, bit-identical to a fault-free run.
    pub(crate) fn fault_config(&self, hot_shard: usize, cold_shard: usize) -> FaultConfig {
        let Some(scenario) = self.scenario else {
            return FaultConfig {
                restart: self.client_restart,
                ..FaultConfig::default()
            };
        };
        let shard = match scenario {
            // One decisive crash of the hot shard a quarter into the
            // measurement window.
            FailoverScenario::CrashHot => ShardFaultPlan {
                crash: Some(ShardCrash {
                    shard: hot_shard,
                    schedule: RestartSchedule {
                        first_at: self.warmup + Nanos::from_nanos(self.measure.as_nanos() / 4),
                        period: Nanos::ZERO,
                    },
                }),
                ..ShardFaultPlan::default()
            },
            // Periodic 4 ms app-thread stalls at 25% duty cycle on a cold
            // shard: connections stay up, service time stretches ~20× past
            // the healthy tail inside each window.
            FailoverScenario::BrownoutCold => ShardFaultPlan {
                brownout: Some(ShardBrownout {
                    shard: cold_shard,
                    windows: WindowSchedule {
                        first_at: self.warmup + Nanos::from_millis(4),
                        period: Nanos::from_millis(16),
                        duration: Nanos::from_millis(4),
                    },
                }),
                ..ShardFaultPlan::default()
            },
        };
        FaultConfig {
            shard,
            restart: self.client_restart,
            start_at: self.warmup,
            ..FaultConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::run_tier_point;
    use crate::workload::WorkloadSpec;

    fn smoke_cfg(arm: FailoverArm, scenario: Option<FailoverScenario>) -> TierRunConfig {
        let mut cfg = TierRunConfig::new(WorkloadSpec::shard(8_000.0), arm, scenario);
        cfg.num_clients = 2;
        cfg.num_shards = 3;
        cfg.warmup = Nanos::from_millis(50);
        cfg.measure = Nanos::from_millis(250);
        cfg
    }

    #[test]
    fn oracle_run_is_healthy_and_quiet() {
        let r = run_tier_point(&smoke_cfg(FailoverArm::Full, None));
        assert!(r.samples > 500, "only {} samples", r.samples);
        assert!(r.achieved_rps > 0.8 * r.offered_rps);
        assert_eq!(r.shard_crashes, 0);
        assert_eq!(r.upstream_resets, 0);
        assert_eq!(r.failed, 0, "oracle must not fail requests");
    }

    #[test]
    fn crash_collapses_the_naive_proxy_but_not_the_full_stack() {
        let naive = run_tier_point(&smoke_cfg(
            FailoverArm::NoDefense,
            Some(FailoverScenario::CrashHot),
        ));
        let full = run_tier_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::CrashHot),
        ));
        let oracle = run_tier_point(&smoke_cfg(FailoverArm::Full, None));
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
        let r = run_tier_point(&smoke_cfg(
            FailoverArm::Full,
            Some(FailoverScenario::BrownoutCold),
        ));
        assert!(r.timeouts + r.hedges > 0, "fault plan never bit");
        assert!(r.retries + r.hedges > 0, "defense never engaged: {r:?}");
    }

    #[test]
    fn shard_crash_resyncs_the_back_leg_epoch() {
        let oracle = run_tier_point(&smoke_cfg(FailoverArm::Full, None));
        assert_eq!(
            oracle.back_epoch_changes, 0,
            "no crash, no new counter generation"
        );
        let crashed = run_tier_point(&smoke_cfg(
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
        let a = run_tier_point(&cfg);
        assert_eq!(a.shard_crashes, 1, "the shard fault still fires");
        assert!(a.endpoint_restarts > 0, "the client fault still fires");
        assert!(a.samples > 500, "clients keep measuring through both");
        // Composing the two chaos kinds stays deterministic: only the
        // restarts draw, from their own named stream.
        let b = run_tier_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.endpoint_restarts, b.endpoint_restarts);
    }

    #[test]
    fn crash_cell_replays_bit_identically() {
        let cfg = smoke_cfg(FailoverArm::Full, Some(FailoverScenario::CrashHot));
        let a = run_tier_point(&cfg);
        let b = run_tier_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.measured_p99, b.measured_p99);
        assert_eq!(a.per_shard_requests, b.per_shard_requests);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.hedges, b.hedges);
        assert_eq!(a.breaker_trips, b.breaker_trips);
    }
}
