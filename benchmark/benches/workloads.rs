//! The five workloads: fixed, named traffic regimes.
//!
//! Load is open-loop Poisson, generated inside the simulation by
//! `LancetClient` from the seed; latency is timed from each request's
//! scheduled arrival, so client backlog and generator lateness are inside
//! the number. Each workload's measure window is a fixed count of
//! simulated seconds per `--seconds` asked for ([`Workload::sim_per_host_s`],
//! sized on the 2-core reference box so the timed window takes about
//! `--seconds` of host time): the same `--seed` and `--seconds` simulate
//! exactly the same thing on any machine, and only the host-time metrics
//! move.

use batchpolicy::{BreakerConfig, Objective};
use e2e_apps::experiments::ChaosClass;
use e2e_apps::failover::{FailoverArm, FailoverRunConfig, FailoverScenario};
use e2e_apps::runner::{NagleSetting, Overrides, RunConfig};
use e2e_apps::workload::WorkloadSpec;
use e2e_core::ValidateConfig;
use littles::Nanos;

use crate::adapter::Config;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; goes into BENCHMARK.json).
    pub why: &'static str,
    /// Simulated seconds of measure window per second of `--seconds`.
    pub sim_per_host_s: f64,
    /// Simulated warm-up, sized for a set-up of one to two host seconds.
    pub warmup_ms: u64,
    base: fn(u64) -> Config,
}

impl Workload {
    /// The run config for a seed and a wall-time budget.
    pub fn run_config(&self, seed: u64, seconds: u64) -> Config {
        let measure = Nanos::from_nanos((seconds as f64 * self.sim_per_host_s * 1e9) as u64);
        (self.base)(seed).with_window(Nanos::from_millis(self.warmup_ms), measure)
    }
}

fn star_config(seed: u64, clients: usize, spec: WorkloadSpec, nagle: NagleSetting) -> RunConfig {
    RunConfig {
        seed,
        num_clients: clients,
        ..RunConfig::new(spec, nagle)
    }
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: "star1_set",
        why: "Paper Fig. 4a on one connection: tiny working set, so the per-event hot path (queue pop, socket rx/tx, RESP) is all the work; estimator nearly exact, policy idle.",
        sim_per_host_s: 1.1,
        warmup_ms: 800,
        base: |seed| Config::Star(star_config(seed, 1, WorkloadSpec::fig4a(80_000.0), NagleSetting::Off)),
    },
    Workload {
        name: "fanin1024_set",
        why: "Same 80 kRPS over 1024 connections: 1024x the per-connection state, client tickers and recorders dominate and RSS grows fast; the ROADMAP N=1024 wall lives here.",
        sim_per_host_s: 0.22,
        warmup_ms: 150,
        base: |seed| Config::Star(star_config(seed, 1024, WorkloadSpec::fig4a(80_000.0), NagleSetting::Off)),
    },
    Workload {
        name: "star64_mix_plane",
        why: "Fig. 4b 95:5 SET:GET on 64 connections under the multi-knob plane: estimator, registry aggregate, validator and control-plane tick all live; the quality workload for P99 and accuracy.",
        sim_per_host_s: 0.95,
        warmup_ms: 1_000,
        base: |seed| {
            let nagle = NagleSetting::Plane { objective: Objective::MinLatency, delack: true, cork: true };
            Config::Star(RunConfig {
                validate: Some(ValidateConfig::default()),
                staleness_bound: Some(Nanos::from_millis(5)),
                breaker: Some(BreakerConfig::default()),
                ..star_config(seed, 64, WorkloadSpec::fig4b(60_000.0), nagle)
            })
        },
    },
    Workload {
        name: "star64_loss",
        why: "Fig. 4a on 64 connections with 1% bursty loss: transport recovery (go-back-N, RTO, fast retransmit) sets the tail; SACK or lifecycle work must move P99 here and nowhere else.",
        sim_per_host_s: 1.8,
        warmup_ms: 1_500,
        base: |seed| {
            Config::Star(RunConfig {
                fault: ChaosClass::Loss.fault_at(0.25),
                overrides: Overrides {
                    min_rto: Some(Nanos::from_millis(5)),
                    max_rto: Some(Nanos::from_millis(40)),
                    ..Overrides::default()
                },
                ..star_config(seed, 64, WorkloadSpec::fig4a(40_000.0), NagleSetting::Off)
            })
        },
    },
    Workload {
        name: "tier8x4_brownout",
        why: "8 clients -> proxy -> 4 shards, skewed keys, a cold shard browning out, full defense ladder: the only path through proxy, router, leg composition, hedges and breakers.",
        sim_per_host_s: 3.2,
        warmup_ms: 3_000,
        base: |seed| {
            let spec = WorkloadSpec::shard(30_000.0);
            let scenario = Some(FailoverScenario::BrownoutCold);
            Config::Tier(FailoverRunConfig {
                seed,
                num_clients: 8,
                num_shards: 4,
                hot_fraction: 0.7,
                ..FailoverRunConfig::new(spec, FailoverArm::Full, scenario)
            })
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
