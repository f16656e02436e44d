//! The one place a run is assembled, staged and read out.
//!
//! [`Harness::star`] assembles a [`RunConfig`]'s star (N load generators
//! into one server), [`Harness::tier`] a [`TierRunConfig`]'s two tiers
//! (N load generators → proxy → K shards). The started world and its
//! [`EventQueue`] are public fields, advanced in stages:
//! [`warm_up`](Harness::warm_up), [`run_until`](Harness::run_until) (in
//! one call or in slices: the world cannot tell) and
//! [`drain`](Harness::drain); `result()` reads the run out.
//! [`run_point`](crate::run_point) and
//! [`run_tier_point`](crate::run_tier_point) are `Harness::run` and
//! `result()`. A caller that needs to see inside the loop steps `world`
//! and `queue` itself. [`star_hosts`] and [`tier_hosts`] place every host
//! at its index, with the profile's stack and CPU names for its role.

use batchpolicy::{
    AimdBatchLimit, BatchToggler, BreakerConfig, CircuitBreaker, ControlPlane, DelAckToggler,
    EpsilonGreedy, Objective, TickController,
};
use e2e_core::{DelaySet, Estimate, MultiConnectionAggregator, ValidateConfig, ValidateStats};
use littles::{Nanos, Snapshot};
use simnet::{run, BusySnapshot, CpuContext, EventQueue, Histogram, LinkConfig, Pcg32, World};
use tcpsim::config::{CostConfig, ExchangeConfig};
use tcpsim::{Event, Host, HostId, NagleMode, NetSim, TcpConfig, TierSim, Unit};

use crate::cost::CostProfile;
use crate::driver::{
    AimdDriver, EstimateRecorder, EstimateSource, ListenerPlaneDriver, PlaneDriver, ProxyDriver,
    Seat,
};
use crate::loadgen::{KeyPool, LancetClient};
use crate::proxy::{ProxyApp, ShardRouter};
use crate::runner::{ClientResult, CpuUtil, NagleSetting, Overrides, PointResult, RunConfig};
use crate::server::RedisServer;
use crate::tier::{ShardSetting, TierPointResult, TierRunConfig};
use crate::workload::key_bytes;

/// The star: N load generators fanning into one server.
pub type Star = NetSim<LancetClient, RedisServer>;
/// The two tiers: N load generators → a proxy → K shards.
pub type Tier = TierSim<LancetClient, ProxyApp, RedisServer>;

/// Host `idx` on `stack`; `tcp` is what its accepted connections run.
fn host(idx: usize, app: CpuContext, irq: &'static str, stack: CostConfig, tcp: TcpConfig) -> Host {
    let id = HostId::from_index(idx);
    Host::new(id, app, CpuContext::new(irq), stack, tcp)
}

/// Load-generator hosts `0..n` on the client stack, their app threads
/// scaled by the profile's client multiplier.
fn client_hosts(n: usize, profile: &CostProfile, tcp: TcpConfig) -> Vec<Host> {
    (0..n)
        .map(|i| {
            let app = CpuContext::with_multiplier("client-app", profile.client_app_multiplier);
            host(i, app, "client-softirq", profile.client_stack, tcp)
        })
        .collect()
}

/// The hosts of a star of `n` clients: the clients at `0..n`, the server
/// at `n` on the server stack. `tcp` is what every accepted connection
/// runs.
pub fn star_hosts(n: usize, profile: &CostProfile, tcp: TcpConfig) -> (Vec<Host>, Host) {
    let app = CpuContext::new("server-app");
    let server = host(n, app, "server-softirq", profile.server_stack, tcp);
    (client_hosts(n, profile, tcp), server)
}

/// The hosts of `n` clients → proxy → `k` shards: the clients at `0..n`,
/// the proxy at `n` and the shards at `n + 1..`. The proxy runs the lean
/// client stack: it is an L7 router, not a store (parse, hash, re-frame).
/// Keeping it off the critical path lets the back-leg queueing (the hot
/// *shard's* backlog) dominate each shard's composed estimate instead of
/// shared proxy read delay. The shards run the server stack.
pub fn tier_hosts(
    n: usize,
    k: usize,
    profile: &CostProfile,
    tcp: TcpConfig,
) -> (Vec<Host>, Host, Vec<Host>) {
    let app = CpuContext::new("proxy-app");
    let proxy = host(n, app, "proxy-softirq", profile.client_stack, tcp);
    let shards = (0..k)
        .map(|j| {
            let app = CpuContext::new("shard-app");
            host(n + 1 + j, app, "shard-softirq", profile.server_stack, tcp)
        })
        .collect();
    (client_hosts(n, profile, tcp), proxy, shards)
}

fn shield<T: BatchToggler>(inner: T, breaker: Option<BreakerConfig>) -> CircuitBreaker<T> {
    match breaker {
        Some(bc) => CircuitBreaker::new(inner, bc),
        None => CircuitBreaker::disabled(inner),
    }
}

/// A seat guarded as `cfg` asks: a staleness bound on its estimators'
/// trust in the peer's shared state (the breaker, when configured, acts
/// on the confidence it decays), and peer-state validation.
fn guard<S: EstimateSource>(mut seat: Seat<S>, cfg: &RunConfig) -> Seat<S> {
    if let Some(bound) = cfg.staleness_bound {
        seat = seat.with_staleness_bound(bound);
    }
    if let Some(v) = cfg.validate {
        seat = seat.with_validation(v);
    }
    seat
}

fn tcp_config(nagle: NagleMode, ov: &Overrides) -> TcpConfig {
    let mut config = TcpConfig {
        nagle,
        // Exchange byte- and message-unit counters so one run yields both
        // estimate flavours (§3.3 comparison).
        exchange: ExchangeConfig {
            enabled: true,
            min_interval: ov.exchange_interval.unwrap_or(Nanos::from_micros(500)),
            units: [true, false, true],
        },
        ..TcpConfig::default()
    };
    config.tso.enabled = ov.tso.unwrap_or(config.tso.enabled);
    config.cork.enabled = ov.autocork.unwrap_or(config.cork.enabled);
    config.delack.timeout = ov.delack_timeout.unwrap_or(config.delack.timeout);
    config.rto.min_rto = ov.min_rto.unwrap_or(config.rto.min_rto);
    config.rto.max_rto = ov.max_rto.unwrap_or(config.rto.max_rto);
    config
}

/// One histogram over every client's latency samples.
fn merged(clients: &[LancetClient]) -> Histogram {
    let mut hist = Histogram::new();
    for lg in clients {
        hist.merge(&lg.hist);
    }
    hist
}

/// A started world, its queue, and what reading the run out needs.
///
/// `S` is what `result()` reads beyond the world: the star's
/// [`RunConfig`]; the tier's [`TierRunConfig`] and its hot shard.
pub struct Harness<W, S> {
    /// The world, started.
    pub world: W,
    /// The world's event queue.
    pub queue: EventQueue<Event>,
    setup: S,
    /// Start and end of the measurement window.
    window: (Nanos, Nanos),
    /// Host `idx` of the world, and how many it has, for the CPU
    /// snapshots.
    host: fn(&W, usize) -> &Host,
    hosts: usize,
    /// What the edges read of the star's client 0, where the result
    /// reports it.
    client0: Option<fn(&W, Nanos) -> Client0Edge>,
    /// Events handled by the stages so far.
    events: u64,
    /// Every host's (app, softirq) busy time at each edge of the
    /// measurement window the run has reached: none yet, the start, or the
    /// start and the end.
    cpu: Vec<Vec<(BusySnapshot, BusySnapshot)>>,
    /// Client 0 at each edge reached, where it is read.
    edges: Vec<Client0Edge>,
}

/// What the harness reads of the star's client 0 at an edge of the
/// measurement window: its request tracker, the ground truth, and its
/// AIMD driver's limit totals, where it has one.
#[derive(Debug, Clone, Copy)]
struct Client0Edge {
    tracker: Snapshot,
    aimd: Option<(u64, u64)>,
}

impl Client0Edge {
    fn read(star: &Star, at: Nanos) -> Self {
        let client = &star.clients[0];
        Client0Edge {
            tracker: client.tracker.snapshot(at),
            aimd: client.aimd.as_ref().map(|a| a.limits),
        }
    }

    /// The mean limit client 0's AIMD driver applied between two edges.
    fn mean_limit_since(&self, start: &Self) -> Option<f64> {
        let ((sum0, n0), (sum1, n1)) = (start.aimd?, self.aimd?);
        (n1 > n0).then(|| (sum1 - sum0) as f64 / (n1 - n0) as f64)
    }
}

impl<W: World<Event = Event>, S> Harness<W, S> {
    /// Runs to the start of the measurement window.
    pub fn warm_up(&mut self) {
        self.run_until(self.window.0);
    }

    /// Runs every event due by `t`, counting them. A call that reaches an
    /// edge of the measurement window first stops there to snapshot every
    /// host's CPU accounting and the star's client 0 (its ground-truth
    /// tracker and its AIMD limit totals), so every
    /// slicing of a run reads the same CPU columns and ground truth, and
    /// the drain's work is not among them. A snapshot is a read: it
    /// dispatches no event.
    pub fn run_until(&mut self, t: Nanos) {
        for edge in [self.window.0, self.window.1]
            .into_iter()
            .skip(self.cpu.len())
        {
            if t < edge {
                break;
            }
            self.events += run(&mut self.world, &mut self.queue, edge);
            assert!(
                self.queue.now() <= edge,
                "snapshot taken past a window edge"
            );
            let snaps = (0..self.hosts)
                .map(|h| {
                    let host = (self.host)(&self.world, h);
                    (
                        host.app_cpu.busy_snapshot(edge),
                        host.softirq_cpu.busy_snapshot(edge),
                    )
                })
                .collect();
            self.cpu.push(snaps);
            let client0 = self.client0.map(|read| read(&self.world, edge));
            self.edges.extend(client0);
        }
        self.events += run(&mut self.world, &mut self.queue, t);
    }

    /// Runs 20 ms past the end of the measurement window.
    pub fn drain(&mut self) {
        self.run_until(self.window.1 + Nanos::from_millis(20));
    }

    /// Every stage: the warm-up, the measurement window and the drain.
    pub(crate) fn run(mut self) -> Self {
        self.warm_up();
        self.run_until(self.window.1);
        self.drain();
        self
    }

    /// Host `h`'s CPU utilization over the measurement window.
    #[expect(
        clippy::expect_used,
        reason = "a readout before the window's end has no CPU columns"
    )]
    fn cpu(&self, h: usize) -> CpuUtil {
        let end = self
            .cpu
            .get(1)
            .expect("read out before the run reached the window's end");
        let (start, end) = (self.cpu[0][h], end[h]);
        CpuUtil {
            app: start.0.utilization_until(&end.0),
            softirq: start.1.utilization_until(&end.1),
        }
    }
}

impl Harness<Star, RunConfig> {
    /// Assembles and starts `cfg`'s star: host `i` runs client `i`, host
    /// `num_clients` the server.
    pub fn star(cfg: &RunConfig) -> Self {
        let n = cfg.num_clients;
        assert!(n > 0, "a run needs at least one client");
        let mode = match cfg.nagle {
            NagleSetting::Off | NagleSetting::AimdLimit { .. } => NagleMode::Off,
            NagleSetting::On | NagleSetting::Corner { nagle: true, .. } => NagleMode::On,
            NagleSetting::Corner { nagle: false, .. } => NagleMode::Off,
            NagleSetting::Plane { .. } => NagleMode::Dynamic,
        };
        let mut tcp = tcp_config(mode, &cfg.overrides);
        if let NagleSetting::Corner {
            delayed_ack, cork, ..
        } = cfg.nagle
        {
            // Pin the remaining two knobs symmetrically on both endpoints:
            // quick-ack is the runtime `KnobSetting::DelAck` actuation frozen
            // into the initial config, the fixed cork limit is two MSS.
            tcp.delack.quick = !delayed_ack;
            tcp.batch_limit = cork.then_some(2 * 1_448);
        }

        // The aggregate load splits evenly across independent arrival streams.
        let mut spec = cfg.workload;
        spec.rate_rps = cfg.workload.rate_rps / n as f64;

        let tick = cfg.overrides.policy_tick.unwrap_or(Nanos::from_millis(1));
        let alpha = cfg.overrides.score_alpha.unwrap_or(0.4);

        // A client's plain recorders validate when the run does; they form
        // no estimate, so a staleness bound means nothing to them.
        let recorder = |unit: Unit| -> EstimateRecorder {
            let r = EstimateRecorder::new(unit);
            match cfg.validate {
                Some(v) => r.with_validation(v),
                None => r,
            }
        };
        // A controller for one endpoint of a Plane run: the Nagle bandit
        // always, plus whichever of the two other knobs the configuration
        // attaches. The bandit's seed does not depend on which are attached,
        // so every plane at an endpoint replays the same Nagle RNG stream.
        // The exploration window (8 decisions) gives a perturbed knob a few
        // ticks to show up in the estimate before the turn rotates.
        let controller_for = |seed: u64| {
            let NagleSetting::Plane {
                objective,
                delack,
                cork,
            } = cfg.nagle
            else {
                return None;
            };
            let mut plane =
                ControlPlane::new(EpsilonGreedy::new(objective, 0.05, 4, alpha, seed), 8);
            if delack {
                plane = plane.with_delack(DelAckToggler::new(
                    EpsilonGreedy::new(objective, 0.05, 4, alpha, seed ^ 0xDE1A),
                    tcp.delack.timeout,
                ));
            }
            if cork {
                // The limit starts and floors at 0 (no cork); additive probes
                // of one MSS raise it only when the estimate rewards corking.
                plane = plane.with_cork(AimdBatchLimit::new(objective, 0, 0, 65_536, 1_448));
            }
            Some(TickController::new(shield(plane, cfg.breaker), tick))
        };

        let mut clients = Vec::with_capacity(n);
        for i in 0..n {
            let mut client = LancetClient::new(
                spec,
                cfg.profile.app,
                tcp,
                cfg.warmup,
                cfg.warmup + cfg.measure,
            )
            .with_recorder(recorder(Unit::Bytes))
            .with_recorder(recorder(Unit::Messages));
            if cfg.use_hints {
                client = client.with_hints();
            }
            if let NagleSetting::AimdLimit { objective } = cfg.nagle {
                // Limit range: one byte (≈ NODELAY) up to the TSO maximum;
                // additive step of one MSS, as the congestion-control
                // precedent suggests.
                client = client.with_aimd(AimdDriver::new(
                    Unit::Bytes,
                    AimdBatchLimit::new(objective, 1, 1, 65_536, 1_448),
                ));
            }
            // Client 0 keeps the legacy policy seed; the golden-gamma spread
            // gives every further client an independent stream.
            let seed = cfg.seed ^ 0xC ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if let Some(controller) = controller_for(seed) {
                client = client.with_plane(guard(PlaneDriver::new(Unit::Bytes, controller), cfg));
            }
            clients.push(client);
        }

        let mut server = RedisServer::new(cfg.profile.app).with_hint_recorder();
        // One listener-wide plane fed the throughput-weighted aggregate over
        // every accepted connection.
        if let Some(controller) = controller_for(cfg.seed ^ 0x5) {
            server = server.with_plane(guard(
                ListenerPlaneDriver::new(Unit::Bytes, controller),
                cfg,
            ));
        }

        let (client_hosts, server_host) = star_hosts(n, &cfg.profile, tcp);
        let mut world = NetSim::star_with_faults(
            clients,
            server,
            client_hosts,
            server_host,
            LinkConfig::default(),
            cfg.seed,
            cfg.fault,
        );
        let mut queue = EventQueue::new();
        world.start(&mut queue);
        Harness {
            world,
            queue,
            setup: *cfg,
            window: (cfg.warmup, cfg.warmup + cfg.measure),
            host: Star::host,
            hosts: n + 1,
            client0: Some(Client0Edge::read),
            events: 0,
            cpu: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The star's readout. With more than one client, measured latency
    /// merges every connection's histogram and the estimates are
    /// throughput-weighted across the per-connection estimators. It panics
    /// before the run has reached the end of the measurement window.
    pub fn result(&self) -> PointResult {
        let (sim, cfg) = (&self.world, &self.setup);
        let n = cfg.num_clients;
        let (from, to) = self.window;

        // Per-connection slices.
        let per_client: Vec<ClientResult> = (0..n)
            .map(|i| {
                let lg = &sim.clients[i];
                // `sock` is `None` when an injected endpoint restart's
                // reconnect is still in flight as the run ends.
                ClientResult {
                    offered_rps: cfg.workload.rate_rps / n as f64,
                    achieved_rps: lg.achieved_rps(),
                    samples: lg.hist.count(),
                    measured_mean: lg.hist.mean(),
                    measured_p99: lg.hist.p99(),
                    estimated_bytes: lg
                        .recorders
                        .iter()
                        .find(|r| r.unit == Unit::Bytes)
                        .and_then(|r| r.mean_latency_in(from, to)),
                    exchanges_received: lg
                        .sock
                        .map(|sock| sim.host(i).socket(sock).remote().received)
                        .unwrap_or(0),
                    ticks_run: lg.ticks_run,
                }
            })
            .collect();

        let hist = merged(&sim.clients);

        // Aggregate estimates: throughput-weighted across the per-connection
        // estimators (§3.2's multi-connection averaging). With one client this
        // is exactly that client's estimate.
        let rec = |unit: Unit| -> Option<Nanos> {
            let mut agg = MultiConnectionAggregator::new();
            for lg in &sim.clients {
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
        };

        let lg0 = &sim.clients[0];
        let client_nagle_holds: u64 = (0..n)
            .filter_map(|i| {
                let sock = sim.clients[i].sock?;
                Some(sim.host(i).socket(sock).stats().nagle_holds)
            })
            .sum();
        let server_nagle_holds: u64 = sim
            .server_host()
            .socket_ids()
            .map(|s| sim.server_host().socket(s).stats().nagle_holds)
            .sum();

        let listener = sim.server.plane.as_ref();
        let server_plane = listener.map(|p| p.plane());

        // One merged view of every validator's verdict counters. Gated on the
        // config so a validation-free run reports `None` rather than a
        // vacuous all-zero record.
        let validation: Option<ValidateStats> = cfg.validate.map(|_| {
            let mut stats = ValidateStats::default();
            for lg in &sim.clients {
                let plane = lg.plane.iter().map(|p| &p.recorder);
                let recorders = lg.recorders.iter().chain(plane);
                for s in recorders.filter_map(|r| r.validation_stats()) {
                    stats.merge(&s);
                }
            }
            if let Some(p) = listener {
                stats.merge(&p.validation_stats());
            }
            stats
        });

        let (tracker_mean, aimd_mean_limit) = match self.edges[..] {
            [start, end] => (
                end.tracker
                    .window_since(&start.tracker)
                    .and_then(|w| w.rounded_delay()),
                end.mean_limit_since(&start),
            ),
            _ => (None, None),
        };

        PointResult {
            offered_rps: cfg.workload.rate_rps,
            achieved_rps: per_client.iter().map(|c| c.achieved_rps).sum(),
            measured_mean: hist.mean(),
            measured_p50: hist.p50(),
            measured_p99: hist.p99(),
            samples: hist.count(),
            estimated_bytes: rec(Unit::Bytes),
            estimated_messages: rec(Unit::Messages),
            estimated_hint: sim.server.hint_mean_latency_in(from, to),
            tracker_mean,
            srtt: lg0.sock.and_then(|s| sim.host(0).socket(s).srtt()),
            client_cpu: self.cpu(0),
            server_cpu: self.cpu(n),
            packets_to_server: (0..n).map(|i| sim.link_for(i).a_to_b.packets_sent()).sum(),
            packets_to_client: (0..n).map(|i| sim.link_for(i).b_to_a.packets_sent()).sum(),
            nagle_holds: client_nagle_holds + server_nagle_holds,
            client_on_fraction: lg0.plane.as_ref().map(|p| p.on_fraction()),
            aimd_mean_limit,
            server_on_fraction: listener.map(|p| p.on_fraction()),
            exchanges_received: per_client.iter().map(|c| c.exchanges_received).sum(),
            num_clients: n,
            server_aggregate_latency: listener.and_then(|p| p.recorder.mean_latency_in(from, to)),
            per_client,
            link_faults: sim
                .fault_plan()
                .map(|p| p.per_link_counters())
                .unwrap_or_default(),
            fault_blackout_time: sim
                .fault_plan()
                .map(|p| p.blackout_time_until(to))
                .unwrap_or(Nanos::ZERO),
            client_breaker_trips: lg0.plane.as_ref().map(|p| p.breaker().trips()),
            server_breaker_trips: listener.map(|p| p.breaker().trips()),
            plane_nagle_switches: server_plane.map(|p| p.nagle_switches()),
            plane_delack_switches: server_plane.map(|p| p.delack_switches()),
            plane_cork_switches: server_plane.map(|p| p.cork_switches()),
            plane_explorations: server_plane
                .map(|p| p.nagle_explorations() + p.delack_explorations() + p.cork_explorations()),
            plane_cork_limit: server_plane.and_then(|p| p.cork_limit()),
            validation,
            client_restarts: sim.clients.iter().map(|lg| lg.restarts_seen).sum(),
            fault_restarts: sim.fault_plan().map(|p| p.restarts()).unwrap_or(0),
            events: self.events,
        }
    }
}

impl Harness<Tier, (TierRunConfig, usize)> {
    /// Assembles and starts `cfg`'s two tiers: hosts `0..num_clients` run
    /// the clients, the next the proxy, the rest the shards.
    pub fn tier(cfg: &TierRunConfig) -> Self {
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
        let end = cfg.warmup + cfg.measure;
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
        let driver = ProxyDriver::new(Unit::Bytes, controllers).with_validation(ValidateConfig);

        let (client_hosts, proxy_host, shard_hosts) = tier_hosts(n, k, &cfg.profile, edge_tcp);
        let shard_ids = shard_hosts.iter().map(|h| h.id).collect();
        let mut proxy =
            ProxyApp::new(cfg.profile.app, upstream_tcp, shard_ids, router).with_driver(driver);
        if let Some(resilience) = cfg.arm.resilience() {
            proxy = proxy.with_resilience(resilience);
        }
        let shards: Vec<RedisServer> = (0..k).map(|_| RedisServer::new(cfg.profile.app)).collect();

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
        let mut world = TierSim::two_tier_with_faults(
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
        world.start(&mut queue);
        Harness {
            world,
            queue,
            setup: (*cfg, hot_shard),
            window: (cfg.warmup, end),
            host: Tier::host,
            hosts: n + 1 + k,
            client0: None,
            events: 0,
            cpu: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The two tiers' readout: the shard grid's batching columns and the
    /// failover grid's defense-ladder columns. Like the star's, it panics
    /// before the run has reached the end of the measurement window.
    pub fn result(&self) -> TierPointResult {
        let (sim, (cfg, hot_shard)) = (&self.world, self.setup);
        let k = cfg.num_shards;
        let (from, end) = self.window;
        let hist = merged(&sim.clients);

        let proxy = &sim.proxy;
        #[expect(clippy::expect_used, reason = "the proxy is built with a driver")]
        let driver = proxy.driver.as_ref().expect("attached in `Harness::tier`");
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
                let hot_latency = series[hot_shard][w].latency;
                if (0..k).all(|j| j == hot_shard || series[j][w].latency < hot_latency) {
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
            shard_estimates: (0..k)
                .map(|j| driver.shard_mean_latency_in(j, from, end))
                .collect(),
            shard_rtt_p99: stats.back_rtt.iter().map(|h| h.p99()).collect(),
            hot_rank_fraction,
            shard_on_fraction: (0..k).map(|j| driver.on_fraction(j)).collect(),
            proxy_cpu: self.cpu(cfg.num_clients),
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
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::RestartSchedule;

    use super::*;
    use crate::failover::{FailoverArm, FailoverScenario};
    use crate::workload::WorkloadSpec;

    /// The ground truth covers exactly the measurement window: stepped to
    /// each edge, client 0's tracker read there gives `tracker_mean` bit
    /// for bit.
    #[test]
    fn tracker_mean_is_client_0s_tracker_between_the_window_edges() {
        let cfg = RunConfig {
            warmup: Nanos::from_millis(20),
            measure: Nanos::from_millis(60),
            num_clients: 4,
            ..RunConfig::new(WorkloadSpec::fig4a(20_000.0), NagleSetting::Off)
        };
        let (from, to) = (cfg.warmup, cfg.warmup + cfg.measure);
        let mut harness = Harness::star(&cfg);
        harness.run_until(from);
        let start = harness.world.clients[0].tracker.snapshot(from);
        harness.run_until(to);
        let end = harness.world.clients[0].tracker.snapshot(to);
        harness.drain();
        let want = end.window_since(&start).and_then(|w| w.rounded_delay());
        assert!(want.is_some(), "no request completed in the window");
        assert_eq!(harness.result().tracker_mean, want);
    }

    /// A tier client holds no recorder and no seat, so it runs no tick
    /// chain — with the full defense ladder, a shard crash and client
    /// restarts too.
    #[test]
    fn tier_clients_run_no_tick_chain() {
        let warmup = Nanos::from_millis(30);
        let cfg = TierRunConfig {
            num_clients: 2,
            num_shards: 3,
            warmup,
            measure: Nanos::from_millis(120),
            client_restart: Some(RestartSchedule {
                first_at: warmup + Nanos::from_millis(40),
                period: Nanos::from_millis(80),
            }),
            ..TierRunConfig::new(
                WorkloadSpec::shard(6_000.0),
                FailoverArm::Full,
                Some(FailoverScenario::CrashHot),
            )
        };
        let harness = Harness::tier(&cfg).run();
        let r = harness.result();
        assert!(r.samples > 100 && r.endpoint_restarts > 0 && r.shard_crashes > 0);
        for (i, client) in harness.world.clients.iter().enumerate() {
            assert_eq!(client.ticks_run, 0, "client {i}");
        }
    }
}
