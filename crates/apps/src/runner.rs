//! Running one experiment point: one (workload, configuration) pair.
//!
//! A [`RunConfig`] fully describes a run — workload, cost profile, Nagle
//! setting, hint usage, durations, seed — and [`run_point`] executes it,
//! returning a serializable [`PointResult`] with measured latency,
//! achieved throughput, every estimator's view, CPU utilizations, and
//! packet counts. All figure experiments and many integration tests are
//! thin wrappers over this.

use batchpolicy::{
    AimdBatchLimit, BreakerConfig, CircuitBreaker, ControlPlane, DelAckToggler, EpsilonGreedy,
    Objective, TickController,
};
use e2e_core::{DelaySet, Estimate, MultiConnectionAggregator, ValidateConfig, ValidateStats};
use littles::Nanos;
use simnet::{run, CpuContext, EventQueue, FaultConfig, FaultCounters, Histogram, LinkConfig};
use tcpsim::config::{CostConfig, ExchangeConfig};
use tcpsim::{Host, HostId, NagleMode, NetSim, TcpConfig, Unit};

use crate::cost::CostProfile;
use crate::driver::{AimdDriver, EstimateRecorder, ListenerPlaneDriver, PlaneDriver};
use crate::loadgen::LancetClient;
use crate::server::RedisServer;
use crate::workload::WorkloadSpec;

/// How batching is controlled during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NagleSetting {
    /// `TCP_NODELAY` everywhere (the Redis default).
    Off,
    /// Nagle enabled on both endpoints.
    On,
    /// Nagle replaced by the §5 gradual batching limit, adapted with AIMD
    /// under the given objective (client side; the server keeps
    /// `TCP_NODELAY`).
    AimdLimit {
        /// The optimization objective.
        objective: Objective,
    },
    /// One static corner of the multi-knob cube, pinned on both
    /// endpoints for the whole run: Nagle on/off × delayed ACKs
    /// on/off (off = quick-ack) × a fixed two-MSS cork limit on/off.
    /// The eight corners are the static baselines the adaptive control
    /// plane competes against.
    Corner {
        /// Nagle enabled.
        nagle: bool,
        /// Delayed ACKs enabled (`false` = quick-ack every segment).
        delayed_ack: bool,
        /// A fixed cork limit of two MSS (`false` = no limit).
        cork: bool,
    },
    /// The control plane: per-endpoint [`ControlPlane`]s route the
    /// estimate's per-queue components to an ε-greedy Nagle toggler and,
    /// optionally, delayed-ACK and cork-limit controllers, with
    /// coordinated exploration. With `delack` and `cork` both false this
    /// is plain dynamic Nagle toggling ([`NagleSetting::dynamic`]).
    Plane {
        /// The optimization objective.
        objective: Objective,
        /// Attach the adaptive delayed-ACK controller.
        delack: bool,
        /// Attach the adaptive cork-limit controller.
        cork: bool,
    },
}

impl NagleSetting {
    /// Nagle toggled dynamically by per-endpoint ε-greedy policies under
    /// `objective` (the paper's §5 proposal): the control plane with only
    /// its Nagle knob attached.
    pub fn dynamic(objective: Objective) -> Self {
        NagleSetting::Plane {
            objective,
            delack: false,
            cork: false,
        }
    }
}

/// Optional stack/policy overrides for ablation studies (§5 knobs). All
/// `None` means the calibrated defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Overrides {
    /// Metadata-exchange minimum interval.
    pub exchange_interval: Option<Nanos>,
    /// Dynamic-policy decision period (the toggling granularity).
    pub policy_tick: Option<Nanos>,
    /// Per-arm score EWMA weight for the ε-greedy toggler.
    pub score_alpha: Option<f64>,
    /// Force TSO on/off.
    pub tso: Option<bool>,
    /// Force auto-corking on/off.
    pub autocork: Option<bool>,
    /// Delayed-ACK timeout.
    pub delack_timeout: Option<Nanos>,
    /// RTO floor. The Linux-default 200 ms floor dwarfs simulated RTTs, so
    /// chaos runs lower it to keep loss recovery inside the measure
    /// window — uniformly across the compared arms.
    pub min_rto: Option<Nanos>,
    /// RTO ceiling. Exponential backoff against the 60 s default cap can
    /// park a faulted connection for longer than the whole measure
    /// window; chaos runs cap it — uniformly across the compared arms.
    pub max_rto: Option<Nanos>,
}

/// Everything that defines one experiment point.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadSpec,
    /// CPU cost profile.
    pub profile: CostProfile,
    /// Batching control.
    pub nagle: NagleSetting,
    /// Whether the client forwards `create`/`complete` hints.
    pub use_hints: bool,
    /// Warmup duration (excluded from measurement).
    pub warmup: Nanos,
    /// Measurement duration.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Concurrent client connections fanning into the server. The offered
    /// rate is split evenly: each client runs an independent open-loop
    /// arrival stream at `workload.rate_rps / num_clients`.
    pub num_clients: usize,
    /// Ablation overrides.
    pub overrides: Overrides,
    /// Fault injection over the star topology (disabled by default, in
    /// which case the run is bit-identical to a fault-free one).
    pub fault: FaultConfig,
    /// Estimator staleness bound: remote windows older than this decay
    /// confidence and eventually trip local-only fallback. `None` trusts
    /// cached windows forever (the pre-fault behaviour).
    pub staleness_bound: Option<Nanos>,
    /// Circuit breaker around the control planes; `None` runs them
    /// unprotected.
    pub breaker: Option<BreakerConfig>,
    /// Peer-state validation: every incoming exchange window is checked
    /// for plausibility before it can influence an estimate. `None`
    /// trusts the wire blindly (the pre-validation behaviour).
    pub validate: Option<ValidateConfig>,
}

impl RunConfig {
    /// A standard run: 200 ms warmup, 800 ms measurement.
    pub fn new(workload: WorkloadSpec, nagle: NagleSetting) -> Self {
        RunConfig {
            workload,
            profile: CostProfile::calibrated(),
            nagle,
            use_hints: true,
            warmup: Nanos::from_millis(200),
            measure: Nanos::from_millis(800),
            seed: 0xE2E,
            num_clients: 1,
            overrides: Overrides::default(),
            fault: FaultConfig::default(),
            staleness_bound: None,
            breaker: None,
            validate: None,
        }
    }
}

/// One side's CPU utilizations over the measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuUtil {
    /// Application-thread utilization (may exceed 1.0 when oversubscribed).
    pub app: f64,
    /// Softirq-context utilization.
    pub softirq: f64,
}

/// One connection's slice of a multi-connection run.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// Offered load on this connection (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput on this connection.
    pub achieved_rps: f64,
    /// Latency samples this connection recorded in the window.
    pub samples: u64,
    /// Measured mean latency on this connection.
    pub measured_mean: Option<Nanos>,
    /// Measured 99th-percentile latency on this connection.
    pub measured_p99: Option<Nanos>,
    /// Byte-unit Little's-law estimate on this connection.
    pub estimated_bytes: Option<Nanos>,
    /// Exchanges received by this connection.
    pub exchanges_received: u64,
    /// Client ticks dispatched as events.
    pub ticks_run: u64,
    /// Client tick instants slept through on an unchanged socket and
    /// booked afterwards (see [`LancetClient::ticks_skipped`]).
    pub ticks_skipped: u64,
}

/// The result of one run.
///
/// With `num_clients > 1` the measured latency fields and the achieved
/// rate aggregate over every connection (merged histograms, summed
/// goodput), the `estimated_*` fields are throughput-weighted aggregates
/// across the per-connection estimators, and
/// [`per_client`](PointResult::per_client) holds each connection's slice.
/// Fields that describe a single client host (`client_cpu`, `srtt`,
/// `client_on_fraction`, `tracker_mean`, `aimd_mean_limit`) report
/// client 0.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Offered load (requests/second).
    pub offered_rps: f64,
    /// Achieved goodput (responses/second over the window).
    pub achieved_rps: f64,
    /// Measured mean latency (arrival → response processed).
    pub measured_mean: Option<Nanos>,
    /// Measured median latency.
    pub measured_p50: Option<Nanos>,
    /// Measured 99th-percentile latency.
    pub measured_p99: Option<Nanos>,
    /// Samples in the window.
    pub samples: u64,
    /// Byte-unit Little's-law estimate (the paper's prototype).
    pub estimated_bytes: Option<Nanos>,
    /// Message-unit (send-syscall) estimate.
    pub estimated_messages: Option<Nanos>,
    /// Hint-based estimate recorded at the server (§3.3).
    pub estimated_hint: Option<Nanos>,
    /// Application-level tracker ground truth (client side).
    pub tracker_mean: Option<Nanos>,
    /// The client's smoothed RTT — the paper's §2 inadequate baseline
    /// (misses application read delays; inflated by delayed ACKs).
    pub srtt: Option<Nanos>,
    /// Client CPU utilization.
    pub client_cpu: CpuUtil,
    /// Server CPU utilization.
    pub server_cpu: CpuUtil,
    /// Wire packets client → server during the whole run.
    pub packets_to_server: u64,
    /// Wire packets server → client.
    pub packets_to_client: u64,
    /// Nagle holds observed (both endpoints).
    pub nagle_holds: u64,
    /// Fraction of client 0's plane decisions with Nagle on (Plane runs
    /// only).
    pub client_on_fraction: Option<f64>,
    /// Fraction of the server listener's plane decisions with Nagle on
    /// (Plane runs only).
    pub server_on_fraction: Option<f64>,
    /// Mean AIMD batch limit over the window (AimdLimit runs only).
    pub aimd_mean_limit: Option<f64>,
    /// Exchanges received across all clients (metadata-exchange health).
    pub exchanges_received: u64,
    /// Concurrent client connections in this run.
    pub num_clients: usize,
    /// Per-connection results, indexed by client.
    pub per_client: Vec<ClientResult>,
    /// Mean server-side listener aggregate estimate over the window
    /// (Plane runs only — the `L` the listener-wide plane acted on).
    pub server_aggregate_latency: Option<Nanos>,
    /// Per-link fault-injection counters, indexed like `per_client`
    /// (empty when the run had no fault plan).
    pub link_faults: Vec<FaultCounters>,
    /// Total scheduled link-blackout time overlapping the run.
    pub fault_blackout_time: Nanos,
    /// Circuit-breaker trips at client 0 (Plane runs only).
    pub client_breaker_trips: Option<u64>,
    /// Circuit-breaker trips at the server listener (Plane runs only).
    pub server_breaker_trips: Option<u64>,
    /// Nagle-arm switches of the server listener's control plane
    /// (Plane runs only).
    pub plane_nagle_switches: Option<u64>,
    /// Delayed-ACK mode switches of the server listener's control plane
    /// (Plane runs only; 0 when the knob is not attached).
    pub plane_delack_switches: Option<u64>,
    /// Cork-limit moves of the server listener's control plane (Plane
    /// runs only; 0 when the knob is not attached).
    pub plane_cork_switches: Option<u64>,
    /// Deliberate exploratory perturbations taken across every knob of
    /// the server listener's control plane (Plane runs only).
    pub plane_explorations: Option<u64>,
    /// The server plane's final cork limit (Plane runs with `cork` only).
    pub plane_cork_limit: Option<u64>,
    /// Merged peer-state validation counters across every estimator in
    /// the run — the per-client recorders, the client planes' recorders,
    /// and the server listener registry (`None` without a validator).
    pub validation: Option<ValidateStats>,
    /// Endpoint restarts the clients observed (socket reset + reconnect).
    pub client_restarts: u64,
    /// Endpoint restarts the fault plan injected.
    pub fault_restarts: u64,
    /// Total simulator events processed across warmup, measurement, and
    /// drain. A property of the implementation, not of the workload.
    pub events: u64,
}

pub(crate) fn shield<T: batchpolicy::BatchToggler>(
    inner: T,
    breaker: Option<BreakerConfig>,
) -> CircuitBreaker<T> {
    match breaker {
        Some(bc) => CircuitBreaker::new(inner, bc),
        None => CircuitBreaker::disabled(inner),
    }
}

pub(crate) fn tcp_config(nagle: NagleMode, ov: &Overrides) -> TcpConfig {
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

/// Host `idx`; `tcp` is what its accepted connections run.
pub(crate) fn new_host(
    idx: usize,
    app: CpuContext,
    softirq: &'static str,
    costs: CostConfig,
    tcp: TcpConfig,
) -> Host {
    let id = HostId::from_index(idx);
    Host::new(id, app, CpuContext::new(softirq), costs, tcp)
}

/// Load-generator host `idx`: its app thread is scaled by the profile's
/// client multiplier.
pub(crate) fn client_host(idx: usize, profile: &CostProfile, tcp: TcpConfig) -> Host {
    let app = CpuContext::with_multiplier("client-app", profile.client_app_multiplier);
    new_host(idx, app, "client-softirq", profile.client_stack, tcp)
}

/// Executes one experiment point.
pub fn run_point(cfg: &RunConfig) -> PointResult {
    let n = cfg.num_clients;
    assert!(n > 0, "a run needs at least one client");
    let (client_mode, server_mode) = match cfg.nagle {
        NagleSetting::Off | NagleSetting::AimdLimit { .. } => (NagleMode::Off, NagleMode::Off),
        NagleSetting::On => (NagleMode::On, NagleMode::On),
        NagleSetting::Plane { .. } => (NagleMode::Dynamic, NagleMode::Dynamic),
        NagleSetting::Corner { nagle, .. } => {
            let mode = if nagle { NagleMode::On } else { NagleMode::Off };
            (mode, mode)
        }
    };
    let mut tcp = tcp_config(client_mode, &cfg.overrides);
    let mut tcp_server = tcp_config(server_mode, &cfg.overrides);
    if let NagleSetting::Corner {
        delayed_ack, cork, ..
    } = cfg.nagle
    {
        // Pin the remaining two knobs symmetrically on both endpoints:
        // quick-ack is the runtime `KnobSetting::DelAck` actuation frozen
        // into the initial config, the fixed cork limit is two MSS.
        for config in [&mut tcp, &mut tcp_server] {
            config.delack.quick = !delayed_ack;
            config.batch_limit = cork.then_some(2 * 1_448);
        }
    }

    // The aggregate load splits evenly across independent arrival streams.
    let mut spec = cfg.workload;
    spec.rate_rps = cfg.workload.rate_rps / n as f64;

    let tick = cfg.overrides.policy_tick.unwrap_or(Nanos::from_millis(1));
    let alpha = cfg.overrides.score_alpha.unwrap_or(0.4);

    // A staleness bound degrades estimator confidence when the peer's
    // shared state ages out; the breaker (when configured) acts on that.
    let recorder = |unit: Unit| -> EstimateRecorder {
        let mut r = EstimateRecorder::new(unit);
        if let Some(bound) = cfg.staleness_bound {
            r = r.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            r = r.with_validation(v);
        }
        r
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
        let mut plane = ControlPlane::new(EpsilonGreedy::new(objective, 0.05, 4, alpha, seed), 8);
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
            let mut driver = PlaneDriver::new(Unit::Bytes, controller);
            // The plane's own estimate source, guarded like the others.
            driver.recorder = recorder(Unit::Bytes);
            client = client.with_plane(driver);
        }
        clients.push(client);
    }

    let mut server = RedisServer::new(cfg.profile.app).with_hint_recorder();
    // One listener-wide plane fed the throughput-weighted aggregate over
    // every accepted connection.
    if let Some(controller) = controller_for(cfg.seed ^ 0x5) {
        let mut driver = ListenerPlaneDriver::new(Unit::Bytes, controller);
        if let Some(bound) = cfg.staleness_bound {
            driver = driver.with_staleness_bound(bound);
        }
        if let Some(v) = cfg.validate {
            driver = driver.with_validation(v);
        }
        server = server.with_plane(driver);
    }

    let client_hosts: Vec<Host> = (0..n).map(|i| client_host(i, &cfg.profile, tcp)).collect();
    let server_app = CpuContext::new("server-app");
    let server_stack = cfg.profile.server_stack;
    let server_host = new_host(n, server_app, "server-softirq", server_stack, tcp_server);

    let mut sim = NetSim::star_with_faults(
        clients,
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        cfg.seed,
        cfg.fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);

    // Run warmup, snapshot CPU accounting, run the measurement window.
    let mut events = run(&mut sim, &mut queue, cfg.warmup);
    let snaps: Vec<_> = (0..=n)
        .map(|h| {
            (
                sim.host(h).app_cpu.busy_snapshot(queue.now()),
                sim.host(h).softirq_cpu.busy_snapshot(queue.now()),
            )
        })
        .collect();
    let end = cfg.warmup + cfg.measure;
    events += run(&mut sim, &mut queue, end);
    // Drain a little so in-flight responses complete (not measured —
    // samples are keyed by arrival time).
    events += run(&mut sim, &mut queue, end + Nanos::from_millis(20));

    let (from, to) = (cfg.warmup, end);
    let util = |h: usize| CpuUtil {
        app: sim.host(h).app_cpu.utilization_since(&snaps[h].0, to),
        softirq: sim.host(h).softirq_cpu.utilization_since(&snaps[h].1, to),
    };
    let client_cpu = util(0);
    let server_cpu = util(n);

    // Per-connection slices.
    let per_client: Vec<ClientResult> = (0..n)
        .map(|i| {
            let lg = &sim.clients[i];
            // `sock` is `None` when an injected endpoint restart's
            // reconnect is still in flight as the run ends.
            ClientResult {
                offered_rps: spec.rate_rps,
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
                ticks_skipped: lg.ticks_skipped,
            }
        })
        .collect();

    // Aggregate measured latency: one merged histogram over every
    // connection's samples.
    let mut hist = Histogram::new();
    for lg in &sim.clients {
        hist.merge(&lg.hist);
    }

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
        tracker_mean: lg0.tracker_averages().and_then(|a| a.delay),
        srtt: lg0.sock.and_then(|s| sim.host(0).socket(s).srtt()),
        client_cpu,
        server_cpu,
        packets_to_server: (0..n).map(|i| sim.link_for(i).a_to_b.packets_sent()).sum(),
        packets_to_client: (0..n).map(|i| sim.link_for(i).b_to_a.packets_sent()).sum(),
        nagle_holds: client_nagle_holds + server_nagle_holds,
        client_on_fraction: lg0.plane.as_ref().map(|p| p.on_fraction()),
        aimd_mean_limit: lg0.aimd.as_ref().and_then(|a| a.mean_limit_in(from, to)),
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
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(rate: f64, nagle: NagleSetting) -> RunConfig {
        RunConfig {
            warmup: Nanos::from_millis(50),
            measure: Nanos::from_millis(150),
            ..RunConfig::new(WorkloadSpec::fig4a(rate), nagle)
        }
    }

    #[test]
    fn low_load_run_completes_and_measures() {
        let r = run_point(&quick_cfg(5_000.0, NagleSetting::Off));
        assert!(r.samples > 400, "got {} samples", r.samples);
        // Achieved ≈ offered at low load.
        assert!(
            (r.achieved_rps - 5_000.0).abs() / 5_000.0 < 0.1,
            "achieved {}",
            r.achieved_rps
        );
        let mean = r.measured_mean.expect("samples");
        assert!(
            mean > Nanos::from_micros(10) && mean < Nanos::from_micros(500),
            "implausible latency {mean}"
        );
    }

    #[test]
    fn estimates_are_produced() {
        let r = run_point(&quick_cfg(10_000.0, NagleSetting::Off));
        assert!(r.estimated_bytes.is_some(), "byte estimate missing");
        assert!(r.estimated_messages.is_some(), "message estimate missing");
        assert!(r.estimated_hint.is_some(), "hint estimate missing");
        assert!(r.tracker_mean.is_some(), "tracker ground truth missing");
        assert!(r.exchanges_received > 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_point(&quick_cfg(8_000.0, NagleSetting::On));
        let b = run_point(&quick_cfg(8_000.0, NagleSetting::On));
        assert_eq!(a.measured_mean, b.measured_mean);
        assert_eq!(a.packets_to_server, b.packets_to_server);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn nagle_on_coalesces_response_packets_under_load() {
        let off = run_point(&quick_cfg(40_000.0, NagleSetting::Off));
        let on = run_point(&quick_cfg(40_000.0, NagleSetting::On));
        assert!(
            on.packets_to_client < off.packets_to_client,
            "Nagle should coalesce responses: on={} off={}",
            on.packets_to_client,
            off.packets_to_client
        );
        assert!(on.nagle_holds > 0);
    }
}
