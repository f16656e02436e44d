//! The one file through which a benchmark run calls into the repo.
//!
//! `run_point` / `run_failover_point` build a harness, simulate it and
//! summarise it in one call. The benchmark needs the same harness taken
//! apart: set-up split from the timed window, `LancetClient::sent` read
//! at the window edges, and — in a traced run — the event loop driven
//! from here through the public `World::handle` /
//! `EventQueue::{peek_time, pop}` API so every `Event` arm can be timed
//! from outside. So this file assembles each harness from the public
//! constructors the runners use, from the runners' own config structs.
//! [`equivalence_check`] pins that assembly to the runners bit for bit:
//! a later API consolidation needs a fix-up here and nowhere else.

use std::time::Instant;

use batchpolicy::{
    AimdBatchLimit, BatchToggler, BreakerConfig, CircuitBreaker, ControlPlane, DelAckToggler,
    EpsilonGreedy, Objective, TickController,
};
use e2e_apps::driver::{EstimateRecorder, ListenerPlaneDriver, PlaneDriver};
use e2e_apps::failover::{FailoverArm, FailoverRunConfig, FailoverScenario};
use e2e_apps::loadgen::{KeyPool, LancetClient};
use e2e_apps::proxy::{ProxyApp, Resilience, ShardRouter};
use e2e_apps::runner::{NagleSetting, Overrides, RunConfig};
use e2e_apps::{run_failover_point, run_point, ProxyDriver, RedisServer};
use e2e_core::{DelaySet, Estimate, MultiConnectionAggregator, ValidateConfig, ValidateStats};
use littles::Nanos;
use simnet::{
    run, BusySnapshot, CpuContext, DuplexLink, EventQueue, FaultConfig, Histogram, LinkConfig,
    Pcg32, ShardBrownout, ShardFaultPlan, WindowSchedule, World,
};
use tcpsim::config::ExchangeConfig;
use tcpsim::socket::SocketStats;
use tcpsim::{Event, Host, HostId, NagleMode, NetSim, TcpConfig, TierSim, Unit};

use crate::trace::{Arm, Role, Tracer};

type Star = NetSim<LancetClient, RedisServer>;
type Tier = TierSim<LancetClient, ProxyApp, RedisServer>;

/// What a workload runs: one of the two runner configs, unchanged.
#[allow(clippy::large_enum_variant)] // a handful exist per run, by value like the configs inside
#[derive(Clone, Copy)]
pub enum Config {
    /// N clients → one server (`run_point`'s harness).
    Star(RunConfig),
    /// N clients → proxy → K shards (`run_failover_point`'s harness).
    Tier(FailoverRunConfig),
}

impl Config {
    pub fn warmup(&self) -> Nanos {
        match self {
            Config::Star(c) => c.warmup,
            Config::Tier(c) => c.warmup,
        }
    }

    pub fn measure(&self) -> Nanos {
        match self {
            Config::Star(c) => c.measure,
            Config::Tier(c) => c.measure,
        }
    }

    /// The same config over a different window.
    pub fn with_window(mut self, warmup: Nanos, measure: Nanos) -> Self {
        match &mut self {
            Config::Star(c) => (c.warmup, c.measure) = (warmup, measure),
            Config::Tier(c) => (c.warmup, c.measure) = (warmup, measure),
        }
        self
    }
}

enum Sim {
    Star(Box<Star>),
    Tier(Box<Tier>),
}

/// A started simulation plus the bookkeeping the phases need.
pub struct Harness {
    sim: Sim,
    queue: EventQueue<Event>,
    config: Config,
    clients: usize,
    /// Simulator events handled so far, all phases.
    events: u64,
    /// Per host (app, softirq) busy time at the start of the window.
    cpu_at_start: Vec<(BusySnapshot, BusySnapshot)>,
    sent_at_start: u64,
    sent_at_end: u64,
}

fn shielded<T: BatchToggler>(inner: T, breaker: Option<BreakerConfig>) -> CircuitBreaker<T> {
    match breaker {
        Some(bc) => CircuitBreaker::new(inner, bc),
        None => CircuitBreaker::disabled(inner),
    }
}

fn tcp_for(nagle: NagleMode, ov: &Overrides) -> TcpConfig {
    let mut config = TcpConfig {
        nagle,
        exchange: ExchangeConfig {
            enabled: true,
            min_interval: ov.exchange_interval.unwrap_or(Nanos::from_micros(500)),
            units: [true, false, true],
        },
        ..TcpConfig::default()
    };
    if let Some(tso) = ov.tso {
        config.tso.enabled = tso;
    }
    if let Some(cork) = ov.autocork {
        config.cork.enabled = cork;
    }
    if let Some(timeout) = ov.delack_timeout {
        config.delack.timeout = timeout;
    }
    if let Some(floor) = ov.min_rto {
        config.rto.min_rto = floor;
    }
    if let Some(ceiling) = ov.max_rto {
        config.rto.max_rto = ceiling;
    }
    config
}

fn new_host(
    idx: usize,
    app: CpuContext,
    softirq: &'static str,
    costs: tcpsim::CostConfig,
    tcp: TcpConfig,
) -> Host {
    Host::new(
        HostId::from_index(idx),
        app,
        CpuContext::new(softirq),
        costs,
        tcp,
    )
}

/// `run_point`'s assembly for the two batching settings the benchmark
/// uses (`Off`, `Plane`).
fn build_star(cfg: &RunConfig) -> Star {
    let n = cfg.num_clients;
    let plane = match cfg.nagle {
        NagleSetting::Off => None,
        NagleSetting::Plane {
            objective,
            delack,
            cork,
        } => Some((objective, delack, cork)),
        other => panic!("the benchmark adapter builds Off and Plane runs only, not {other:?}"),
    };
    let mode = if plane.is_some() {
        NagleMode::Dynamic
    } else {
        NagleMode::Off
    };
    let tcp = tcp_for(mode, &cfg.overrides);

    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let tick = cfg.overrides.policy_tick.unwrap_or(Nanos::from_millis(1));
    let alpha = cfg.overrides.score_alpha.unwrap_or(0.4);

    let recorder = |unit: Unit| {
        let mut r = EstimateRecorder::new(unit);
        if let Some(bound) = cfg.staleness_bound {
            r = r.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            r = r.with_validation(v);
        }
        r
    };
    let plane_for = |objective: Objective, delack: bool, cork: bool, seed: u64| {
        let mut plane = ControlPlane::new(EpsilonGreedy::new(objective, 0.05, 4, alpha, seed), 8);
        if delack {
            plane = plane.with_delack(DelAckToggler::new(
                EpsilonGreedy::new(objective, 0.05, 4, alpha, seed ^ 0xDE1A),
                tcp.delack.timeout,
            ));
        }
        if cork {
            plane = plane.with_cork(AimdBatchLimit::new(objective, 0, 0, 65_536, 1_448));
        }
        TickController::new(shielded(plane, cfg.breaker), tick)
    };

    let clients = (0..n)
        .map(|i| {
            let mut client = LancetClient::new(
                spec,
                cfg.profile.app,
                tcp,
                cfg.warmup,
                cfg.warmup + cfg.measure,
            )
            .with_recorder(recorder(Unit::Bytes))
            .with_recorder(recorder(Unit::Packets))
            .with_recorder(recorder(Unit::Messages));
            if cfg.use_hints {
                client = client.with_hints();
            }
            if let Some((objective, delack, cork)) = plane {
                let seed = cfg.seed ^ 0xC ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut driver =
                    PlaneDriver::new(Unit::Bytes, plane_for(objective, delack, cork, seed));
                if let Some(bound) = cfg.staleness_bound {
                    driver = driver.with_staleness_bound(bound);
                }
                if let Some(v) = cfg.validate {
                    driver = driver.with_validation(v);
                }
                client = client.with_plane(driver);
            }
            client
        })
        .collect();

    let mut server = RedisServer::new(cfg.profile.app).with_hint_recorder();
    if let Some((objective, delack, cork)) = plane {
        let mut driver = ListenerPlaneDriver::new(
            Unit::Bytes,
            plane_for(objective, delack, cork, cfg.seed ^ 0x5),
        );
        if let Some(bound) = cfg.staleness_bound {
            driver = driver.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            driver = driver.with_validation(v);
        }
        server = server.with_plane(driver);
    }

    let client_hosts = (0..n)
        .map(|i| {
            let app = CpuContext::with_multiplier("client-app", cfg.profile.client_app_multiplier);
            new_host(i, app, "client-softirq", cfg.profile.client_stack, tcp)
        })
        .collect();
    let server_host = new_host(
        n,
        CpuContext::new("server-app"),
        "server-softirq",
        cfg.profile.server_stack,
        tcp,
    );
    NetSim::star_with_faults(
        clients,
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        cfg.seed,
        cfg.fault,
    )
}

/// `run_failover_point`'s fault plan for the oracle and the brownout.
fn tier_faults(cfg: &FailoverRunConfig, cold_shard: usize) -> FaultConfig {
    let shard = match cfg.scenario {
        None => {
            return FaultConfig {
                restart: cfg.client_restart,
                ..FaultConfig::default()
            }
        }
        Some(FailoverScenario::BrownoutCold) => ShardFaultPlan {
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
        Some(other) => {
            panic!("the benchmark adapter builds oracle and brownout runs only, not {other:?}")
        }
    };
    FaultConfig {
        shard,
        restart: cfg.client_restart,
        start_at: cfg.warmup,
        ..FaultConfig::default()
    }
}

/// `run_failover_point`'s assembly.
fn build_tier(cfg: &FailoverRunConfig) -> Tier {
    let (n, k) = (cfg.num_clients, cfg.num_shards);
    let tcp = tcp_for(NagleMode::Off, &Overrides::default());

    let router = ShardRouter::new(k, cfg.seed);
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); k];
    for idx in 0..cfg.workload.key_space as u64 {
        let key = format!("key:{idx:012}");
        owned[router.route(key.as_bytes())].push(idx);
    }
    let by_keys = |skip: Option<usize>| {
        (0..k)
            .filter(|s| Some(*s) != skip)
            .max_by_key(|s| owned[*s].len())
            .expect("at least two shards")
    };
    // `max_by_key` keeps the last maximum, as the runner's does.
    let hot_shard = by_keys(None);
    let cold_shard = by_keys(Some(hot_shard));
    let hot = owned[hot_shard].clone();
    let cold: Vec<u64> = (0..k)
        .filter(|s| *s != hot_shard)
        .flat_map(|s| owned[s].iter().copied())
        .collect();

    let mut skew_rng = Pcg32::named(cfg.seed, "failover.skew");
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;
    let end = cfg.warmup + cfg.measure;
    let clients = (0..n)
        .map(|_| {
            LancetClient::new(spec, cfg.profile.app, tcp, cfg.warmup, end).with_key_pool(
                KeyPool::new(hot.clone(), cold.clone(), cfg.hot_fraction, skew_rng.fork()),
            )
        })
        .collect();

    let controllers = (0..k)
        .map(|j| {
            let seed = cfg.seed ^ 0xD ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let toggler =
                EpsilonGreedy::new(Objective::MinLatency, 0.01, 8, 0.5, seed).with_settle(3);
            TickController::new(
                shielded(ControlPlane::new(toggler, 8), None),
                Nanos::from_millis(1),
            )
        })
        .collect();
    let driver =
        ProxyDriver::new(Unit::Bytes, controllers).with_validation(ValidateConfig::default());

    let shard_ids = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let mut proxy = ProxyApp::new(cfg.profile.app, tcp, shard_ids, router).with_driver(driver);
    let retry = FailoverRunConfig::retry_config();
    proxy = match cfg.arm {
        FailoverArm::NoDefense => proxy,
        FailoverArm::TimeoutOnly => proxy.with_resilience(Resilience::timeout_only(retry)),
        FailoverArm::Retry => proxy.with_resilience(Resilience::with_retries(retry)),
        FailoverArm::Full => {
            proxy.with_resilience(Resilience::full(retry, FailoverRunConfig::breaker_config()))
        }
    };
    let shards = (0..k).map(|_| RedisServer::new(cfg.profile.app)).collect();

    let client_hosts = (0..n)
        .map(|i| {
            let app = CpuContext::with_multiplier("client-app", cfg.profile.client_app_multiplier);
            new_host(i, app, "client-softirq", cfg.profile.client_stack, tcp)
        })
        .collect();
    let proxy_host = new_host(
        n,
        CpuContext::new("proxy-app"),
        "proxy-softirq",
        cfg.profile.client_stack,
        tcp,
    );
    let shard_hosts = (0..k)
        .map(|j| {
            new_host(
                n + 1 + j,
                CpuContext::new("shard-app"),
                "shard-softirq",
                cfg.profile.server_stack,
                tcp,
            )
        })
        .collect();
    let back_link = LinkConfig {
        propagation: Nanos::from_micros(80),
        ..LinkConfig::default()
    };
    TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        back_link,
        cfg.seed,
        tier_faults(cfg, cold_shard),
    )
}

/// Which arm an event belongs to and which host it runs on (`None` for
/// the two fault-injection events, which belong to no host).
fn classify(event: &Event) -> (Arm, Option<usize>) {
    match event {
        Event::Deliver { dst, .. } => (Arm::Deliver, Some(dst.index())),
        Event::SoftirqRx { host, .. } => (Arm::SoftirqRx, Some(host.index())),
        Event::Timer { host, .. } => (Arm::Timer, Some(host.index())),
        Event::NicComplete { host, .. } => (Arm::NicComplete, Some(host.index())),
        Event::AppWake { host, .. } => (Arm::AppWake, Some(host.index())),
        Event::AppCall { host, .. } => (Arm::AppCall, Some(host.index())),
        Event::Restart | Event::ShardCrash => (Arm::Fault, None),
    }
}

/// `simnet::run` with two clock reads per event: one after peek + pop,
/// one after `handle`. The second doubles as the next event's start, so
/// queue time plus arm time covers the whole loop.
fn run_traced<W: World<Event = Event>>(
    world: &mut W,
    queue: &mut EventQueue<Event>,
    until: Nanos,
    role: impl Fn(Option<usize>) -> Role,
    tracer: &mut Tracer,
) -> u64 {
    let mut n = 0;
    let mut start = Instant::now();
    while let Some(at) = queue.peek_time() {
        if at > until {
            break;
        }
        let (_, event) = queue.pop().expect("peeked event exists");
        let (arm, host) = classify(&event);
        let popped = Instant::now();
        world.handle(queue, event);
        let done = Instant::now();
        tracer.book(
            arm,
            role(host),
            at.as_nanos(),
            start,
            popped,
            done,
            queue.len(),
        );
        start = done;
        n += 1;
    }
    n
}

impl Harness {
    /// Set-up, first half: topology, hosts, apps, `start`.
    pub fn assemble(config: Config) -> Self {
        let mut queue = EventQueue::new();
        let (sim, clients) = match &config {
            Config::Star(cfg) => {
                let mut sim = Box::new(build_star(cfg));
                sim.start(&mut queue);
                (Sim::Star(sim), cfg.num_clients)
            }
            Config::Tier(cfg) => {
                let mut sim = Box::new(build_tier(cfg));
                sim.start(&mut queue);
                (Sim::Tier(sim), cfg.num_clients)
            }
        };
        Harness {
            sim,
            queue,
            config,
            clients,
            events: 0,
            cpu_at_start: Vec::new(),
            sent_at_start: 0,
            sent_at_end: 0,
        }
    }

    fn simulate_until(&mut self, until: Nanos, tracer: Option<&mut Tracer>) {
        let (n, tier) = (self.clients, matches!(self.sim, Sim::Tier(_)));
        let role = |host: Option<usize>| match host {
            None => Role::None,
            Some(h) if h < n => Role::Client,
            Some(h) if h == n && tier => Role::Proxy,
            Some(_) => Role::Server,
        };
        self.events += match (&mut self.sim, tracer) {
            (Sim::Star(s), None) => run(&mut **s, &mut self.queue, until),
            (Sim::Tier(t), None) => run(&mut **t, &mut self.queue, until),
            (Sim::Star(s), Some(tr)) => run_traced(&mut **s, &mut self.queue, until, role, tr),
            (Sim::Tier(t), Some(tr)) => run_traced(&mut **t, &mut self.queue, until, role, tr),
        };
    }

    /// Set-up, second half: simulate the warm-up interval and take the
    /// window-start snapshots.
    pub fn warm_up(&mut self) {
        self.simulate_until(self.config.warmup(), None);
        let now = self.queue.now();
        self.cpu_at_start = (0..self.host_count())
            .map(|h| {
                let host = self.host_at(h);
                (
                    host.app_cpu.busy_snapshot(now),
                    host.softirq_cpu.busy_snapshot(now),
                )
            })
            .collect();
        self.sent_at_start = self.sent();
    }

    /// Simulates slice `i` of `of` equal slices of the measure window —
    /// through the traced loop when a tracer is given — and returns the
    /// host seconds it took. Slices are taken in order, 1 to `of`.
    pub fn measure_slice(&mut self, i: u64, of: u64, tracer: Option<&mut Tracer>) -> f64 {
        let measure = self.config.measure().as_nanos() as u128;
        let until =
            self.config.warmup() + Nanos::from_nanos((measure * i as u128 / of as u128) as u64);
        let start = Instant::now();
        self.simulate_until(until, tracer);
        let host_s = start.elapsed().as_secs_f64();
        if i == of {
            self.sent_at_end = self.sent();
        }
        host_s
    }

    /// Lets in-flight responses complete (samples are keyed by arrival
    /// time, so this adds none from outside the window): `step` of
    /// simulated time, again while an in-window request is outstanding,
    /// at most `max_steps` times. Untimed.
    pub fn drain_window(&mut self, step: Nanos, max_steps: u64) {
        let end = self.measure_window().1;
        for i in 1..=max_steps {
            self.simulate_until(end + Nanos::from_nanos(step.as_nanos() * i), None);
            let completed: u64 = self
                .client_apps()
                .iter()
                .map(|c| c.completed_in_window)
                .sum();
            if completed >= self.sent_at_end - self.sent_at_start {
                break;
            }
        }
    }

    /// The measure window in simulated time.
    pub fn measure_window(&self) -> (Nanos, Nanos) {
        (
            self.config.warmup(),
            self.config.warmup() + self.config.measure(),
        )
    }

    fn client_apps(&self) -> &[LancetClient] {
        match &self.sim {
            Sim::Star(s) => &s.clients,
            Sim::Tier(t) => &t.clients,
        }
    }

    fn sent(&self) -> u64 {
        self.client_apps().iter().map(|c| c.sent).sum()
    }

    fn host_count(&self) -> usize {
        match &self.sim {
            Sim::Star(s) => s.num_clients() + 1,
            Sim::Tier(t) => t.num_clients() + 1 + t.num_shards(),
        }
    }

    fn host_at(&self, idx: usize) -> &Host {
        match &self.sim {
            Sim::Star(s) => s.host(idx),
            Sim::Tier(t) => t.host(idx),
        }
    }

    fn host_at_mut(&mut self, idx: usize) -> &mut Host {
        match &mut self.sim {
            Sim::Star(s) => s.host_mut(idx),
            Sim::Tier(t) => t.host_mut(idx),
        }
    }

    fn links(&self) -> Vec<&DuplexLink> {
        match &self.sim {
            Sim::Star(s) => (0..s.num_clients()).map(|i| s.link_for(i)).collect(),
            Sim::Tier(t) => (0..t.num_clients())
                .map(|i| t.client_link(i))
                .chain((0..t.num_shards()).map(|j| t.shard_link(j)))
                .collect(),
        }
    }

    /// Runs every socket's conservation gates (they are compiled out of
    /// the event loop in release builds, but the ledgers are always kept).
    pub fn audit(&mut self) -> Result<(), String> {
        let now = self.queue.now();
        for h in 0..self.host_count() {
            let ids: Vec<_> = self.host_at(h).socket_ids().collect();
            for id in ids {
                if let Err(v) = self.host_at_mut(h).socket_mut(id).check_invariants(now) {
                    return Err(format!("host {h} socket {}: {v:?}", id.0));
                }
            }
        }
        Ok(())
    }

    /// `run_point`'s throughput-weighted aggregate of the clients'
    /// per-unit recorders over the window.
    fn client_estimate(&self, unit: Unit) -> Option<Nanos> {
        let (from, to) = self.measure_window();
        let mut agg = MultiConnectionAggregator::new();
        for lg in self.client_apps() {
            let r = lg.recorders.iter().find(|r| r.unit == unit);
            let lat = r.and_then(|r| r.mean_latency_in(from, to));
            let tput = r.and_then(|r| r.mean_throughput_in(from, to));
            if let (Some(lat), Some(tput)) = (lat, tput) {
                agg.add(Estimate {
                    at: to,
                    latency: lat,
                    smoothed_latency: lat,
                    throughput: tput,
                    local_view: lat,
                    remote_view: lat,
                    confidence: 1.0,
                    remote_stale: false,
                    components: DelaySet::default(),
                });
            }
        }
        agg.aggregate().map(|a| a.latency)
    }

    /// The estimate the accuracy metric judges: the clients' byte-unit
    /// aggregate on a star; on the tier (clients carry no recorders) the
    /// proxy's composed per-shard estimates, weighted by requests routed.
    fn estimate(&self) -> Option<Nanos> {
        let Sim::Tier(t) = &self.sim else {
            return self.client_estimate(Unit::Bytes);
        };
        let (from, to) = self.measure_window();
        let driver = t.proxy.driver.as_ref()?;
        let (mut sum, mut weight) = (0u128, 0u128);
        for (j, &routed) in t.proxy.stats.per_shard.iter().enumerate() {
            if let Some(lat) = driver.shard_mean_latency_in(j, from, to) {
                sum += lat.as_nanos() as u128 * routed as u128;
                weight += routed as u128;
            }
        }
        (weight > 0).then(|| Nanos::from_nanos((sum / weight) as u64))
    }

    /// What the run measured, in simulated units.
    pub fn summary(&self) -> Summary {
        let mut hist = Histogram::new();
        for lg in self.client_apps() {
            hist.merge(&lg.hist);
        }
        let completed: u64 = self
            .client_apps()
            .iter()
            .map(|c| c.completed_in_window)
            .sum();
        let proxy_failed = match &self.sim {
            Sim::Star(_) => 0,
            Sim::Tier(t) => t.proxy.stats.failed,
        };
        let attempted = self.sent_at_end - self.sent_at_start;
        Summary {
            events: self.events,
            samples: hist.count(),
            mean: hist.mean(),
            p50: hist.p50(),
            p99: hist.p99(),
            p50_us: quantile_us(&hist, 0.50),
            p99_us: quantile_us(&hist, 0.99),
            estimate: self.estimate(),
            wire_packets: self
                .links()
                .iter()
                .map(|l| l.a_to_b.packets_sent() + l.b_to_a.packets_sent())
                .sum(),
            attempted,
            completed,
            failed: attempted.saturating_sub(completed.saturating_sub(proxy_failed)),
            window: self.config.measure(),
        }
    }

    /// The per-layer *count* metrics: simulated, exact, read from public
    /// stats over the whole run (utilisations over the window).
    pub fn count_metrics(&self) -> Vec<(&'static str, f64)> {
        let (from, to) = self.measure_window();
        let n = self.clients;
        let us = |v: Option<Nanos>| v.map_or(0.0, |v| v.as_nanos() as f64 / 1e3);
        let mean = |xs: Vec<f64>| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let util = |hosts: std::ops::Range<usize>, softirq: bool| {
            mean(
                hosts
                    .map(|h| {
                        let (host, snap) = (self.host_at(h), &self.cpu_at_start[h]);
                        if softirq {
                            host.softirq_cpu.utilization_since(&snap.1, to)
                        } else {
                            host.app_cpu.utilization_since(&snap.0, to)
                        }
                    })
                    .collect(),
            )
        };
        let mut tcp = SocketStats::default();
        let mut exchanges = 0u64;
        for h in 0..self.host_count() {
            let host = self.host_at(h);
            for id in host.socket_ids() {
                let s = host.socket(id).stats();
                tcp.retransmissions += s.retransmissions;
                tcp.fast_retransmits += s.fast_retransmits;
                tcp.dup_acks += s.dup_acks;
                tcp.nagle_holds += s.nagle_holds;
                tcp.cork_holds += s.cork_holds;
                tcp.pure_acks_sent += s.pure_acks_sent;
                exchanges += host.socket(id).remote().received;
            }
        }
        let summary = self.summary();
        let packets = summary.wire_packets;
        let drops: u64 = self
            .links()
            .iter()
            .map(|l| l.a_to_b.packets_dropped() + l.b_to_a.packets_dropped())
            .sum();
        let apps = self.client_apps();
        let completed: u64 = apps.iter().map(|c| c.completed).sum();

        let mut validate = ValidateStats::default();
        for lg in apps {
            let planes = lg.plane.iter().map(|p| &p.recorder);
            for s in lg
                .recorders
                .iter()
                .chain(planes)
                .filter_map(|r| r.validation_stats())
            {
                validate.merge(&s);
            }
        }
        // The planes that steer the serving side: the listener's on a
        // star, one per shard at the proxy on the tier.
        let mut planes: Vec<&ControlPlane> = Vec::new();
        let mut on_fractions = Vec::new();
        let mut breaker_trips = 0;
        let mut hint = None;
        let dedup;
        let mut proxy = [0u64; 5];
        let mut retry = [0u64; 3];
        let (server_hosts, proxy_hosts) = match &self.sim {
            Sim::Star(s) => {
                hint = s.server.hint_mean_latency_in(from, to);
                dedup = s.server.kv().dedup_hits();
                if let Some(p) = s.server.plane.as_ref() {
                    validate.merge(&p.validation_stats());
                    planes.push(p.plane());
                    on_fractions.push(p.on_fraction());
                    breaker_trips += p.breaker().trips();
                }
                breaker_trips += apps
                    .iter()
                    .filter_map(|c| c.plane.as_ref())
                    .map(|p| p.breaker().trips())
                    .sum::<u64>();
                (n..n + 1, n..n)
            }
            Sim::Tier(t) => {
                dedup = t.shards.iter().map(|s| s.kv().dedup_hits()).sum();
                let st = &t.proxy.stats;
                proxy = [
                    st.forwarded,
                    st.failed,
                    st.failovers,
                    st.timeouts,
                    st.orphan_responses,
                ];
                if let Some(p) = t.proxy.retry_policy() {
                    retry = [p.retries(), p.hedges(), p.budget_denied()];
                }
                breaker_trips = t.proxy.breaker_trips();
                if let Some(d) = t.proxy.driver.as_ref() {
                    validate.merge(&d.validation_stats());
                    for j in 0..d.num_shards() {
                        planes.push(d.plane(j));
                        on_fractions.push(d.on_fraction(j));
                    }
                }
                (n + 1..self.host_count(), n..n + 1)
            }
        };
        let plane_sum =
            |f: fn(&ControlPlane) -> u64| planes.iter().map(|p| f(p)).sum::<u64>() as f64;

        vec![
            ("simnet.link.packets", packets as f64),
            ("simnet.link.drops", drops as f64),
            ("simnet.cpu.client_app_util", util(0..n, false)),
            ("simnet.cpu.proxy_app_util", util(proxy_hosts, false)),
            (
                "simnet.cpu.server_app_util",
                util(server_hosts.clone(), false),
            ),
            ("simnet.cpu.server_softirq_util", util(server_hosts, true)),
            ("tcpsim.retransmissions", tcp.retransmissions as f64),
            ("tcpsim.fast_retransmits", tcp.fast_retransmits as f64),
            ("tcpsim.dup_acks", tcp.dup_acks as f64),
            ("tcpsim.nagle_holds", tcp.nagle_holds as f64),
            ("tcpsim.cork_holds", tcp.cork_holds as f64),
            ("tcpsim.pure_acks", tcp.pure_acks_sent as f64),
            (
                "tcpsim.packets_per_request",
                packets as f64 / completed.max(1) as f64,
            ),
            ("apps.client.sent", self.sent() as f64),
            ("apps.client.completed", completed as f64),
            ("apps.client.samples", summary.samples as f64),
            ("apps.failed_share", summary.failed_share()),
            ("apps.proxy.forwarded", proxy[0] as f64),
            ("apps.proxy.failed", proxy[1] as f64),
            ("apps.proxy.failovers", proxy[2] as f64),
            ("apps.proxy.timeouts", proxy[3] as f64),
            ("apps.proxy.orphan_responses", proxy[4] as f64),
            ("apps.kv.dedup_hits", dedup as f64),
            ("core.exchanges_received", exchanges as f64),
            ("core.est_bytes_us", us(summary.estimate)),
            (
                "core.est_packets_us",
                us(self.client_estimate(Unit::Packets)),
            ),
            (
                "core.est_messages_us",
                us(self.client_estimate(Unit::Messages)),
            ),
            ("core.est_hint_us", us(hint)),
            ("core.est_err_pct", summary.est_err_pct()),
            ("core.validate.accepted", validate.accepted as f64),
            ("core.validate.rejected", validate.rejected as f64),
            (
                "policy.nagle_switches",
                plane_sum(ControlPlane::nagle_switches),
            ),
            (
                "policy.delack_switches",
                plane_sum(ControlPlane::delack_switches),
            ),
            (
                "policy.cork_switches",
                plane_sum(ControlPlane::cork_switches),
            ),
            (
                "policy.explorations",
                plane_sum(|p| {
                    p.nagle_explorations() + p.delack_explorations() + p.cork_explorations()
                }),
            ),
            ("policy.on_fraction", mean(on_fractions)),
            ("policy.breaker_trips", breaker_trips as f64),
            ("policy.retry.retries", retry[0] as f64),
            ("policy.retry.hedges", retry[1] as f64),
            ("policy.retry.budget_denied", retry[2] as f64),
        ]
    }
}

/// Quantile `q` of `hist` in µs, interpolated inside its bucket (0 when
/// empty). `Histogram::quantile` answers with a bucket midpoint, so a
/// metric read from it moves in 3 % steps or not at all; bisecting that
/// same public call for the shares of samples below and up to the
/// bucket, and taking the midpoints to the neighbouring answers as the
/// bucket's edges, gives a figure that moves with the samples.
fn quantile_us(hist: &Histogram, q: f64) -> f64 {
    let at = |p: f64| hist.quantile(p).map_or(0.0, |v| v.as_nanos() as f64);
    let mid = at(q);
    // Narrows [lo, hi] onto the share at which the answer crosses an edge
    // of this bucket.
    let bisect = |mut lo: f64, mut hi: f64, left_of_edge: &dyn Fn(f64) -> bool| {
        for _ in 0..50 {
            let m = (lo + hi) / 2.0;
            if left_of_edge(m) {
                lo = m;
            } else {
                hi = m;
            }
        }
        (lo, hi)
    };
    let (mut share_lo, mut lower) = (0.0, mid);
    if at(0.0) < mid {
        let (lo, hi) = bisect(0.0, q, &|p| at(p) < mid);
        (share_lo, lower) = (hi, (at(lo) + mid) / 2.0);
    }
    let (mut share_hi, mut upper) = (1.0, mid);
    if at(1.0) > mid {
        let (lo, hi) = bisect(q, 1.0, &|p| at(p) <= mid);
        (share_hi, upper) = (lo, (mid + at(hi)) / 2.0);
    }
    let inside = if share_hi > share_lo {
        (q - share_lo) / (share_hi - share_lo)
    } else {
        0.5
    };
    (lower + inside.clamp(0.0, 1.0) * (upper - lower)) / 1e3
}

/// What one run measured, in simulated units — bit-exact at a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub events: u64,
    pub samples: u64,
    pub mean: Option<Nanos>,
    /// As the runners report them: histogram bucket midpoints, 3 % apart.
    pub p50: Option<Nanos>,
    pub p99: Option<Nanos>,
    /// The same quantiles interpolated inside their bucket, µs.
    pub p50_us: f64,
    pub p99_us: f64,
    pub estimate: Option<Nanos>,
    pub wire_packets: u64,
    /// Requests the clients issued inside the window.
    pub attempted: u64,
    /// In-window requests whose response a client finished processing
    /// (error replies the proxy failed back included).
    pub completed: u64,
    /// `attempted` minus those completed with a real answer; still in
    /// flight after the drain counts as failed.
    pub failed: u64,
    pub window: Nanos,
}

impl Summary {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn goodput_rps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window.as_secs_f64()
    }

    /// |estimate − measured mean| ÷ measured mean, percent.
    pub fn est_err_pct(&self) -> f64 {
        match (self.estimate, self.mean) {
            (Some(e), Some(m)) if m > Nanos::ZERO => {
                100.0 * (e.as_nanos() as f64 - m.as_nanos() as f64).abs() / m.as_nanos() as f64
            }
            _ => 0.0,
        }
    }

    /// The smaller of estimate and measured mean over the larger,
    /// percent: 100 is a perfect estimate, and unlike the error it is
    /// never zero and has one direction.
    pub fn est_agreement_pct(&self) -> f64 {
        match (self.estimate, self.mean) {
            (Some(e), Some(m)) => {
                let (e, m) = (e.as_nanos() as f64, m.as_nanos() as f64);
                100.0 * e.min(m) / e.max(m).max(1.0)
            }
            _ => 0.0,
        }
    }

    /// FNV-1a over every simulated figure: two runs that simulate the
    /// same thing print the same digest.
    pub fn digest(&self) -> String {
        let ns = |v: Option<Nanos>| v.map_or(u64::MAX, |v| v.as_nanos());
        let words = [
            self.events,
            self.samples,
            ns(self.p50),
            ns(self.p99),
            ns(self.mean),
            ns(self.estimate),
            self.wire_packets,
            self.attempted,
            self.failed,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Runs `config` over a short window through the runner and through the
/// adapter and demands the same events, samples, P50, P99, mean and
/// (star) byte estimate: the benchmark measures the system users run.
pub fn equivalence_check(config: Config) -> Result<(), String> {
    let config = config.with_window(Nanos::from_millis(30), Nanos::from_millis(100));
    let expected = match &config {
        Config::Star(cfg) => {
            let r = run_point(cfg);
            (
                r.events,
                r.samples,
                r.measured_p50,
                r.measured_p99,
                r.measured_mean,
                r.estimated_bytes,
            )
        }
        Config::Tier(cfg) => {
            let r = run_failover_point(cfg);
            (
                r.events,
                r.samples,
                r.measured_p50,
                r.measured_p99,
                r.measured_mean,
                None,
            )
        }
    };
    let mut h = Harness::assemble(config);
    h.warm_up();
    h.measure_slice(1, 1, None);
    h.drain_window(Nanos::from_millis(20), 1); // the runners' drain
    let s = h.summary();
    let estimate = if matches!(config, Config::Star(_)) {
        s.estimate
    } else {
        None
    };
    let got = (s.events, s.samples, s.p50, s.p99, s.mean, estimate);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "adapter {got:?} != runner {expected:?} (events, samples, p50, p99, mean, estimate)"
        ))
    }
}
