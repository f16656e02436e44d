//! Running one experiment point: one (workload, configuration) pair.
//!
//! A [`RunConfig`] fully describes a run — workload, cost profile, Nagle
//! setting, hint usage, durations, seed — and [`run_point`] executes it,
//! returning a serializable [`PointResult`] with measured latency,
//! achieved throughput, every estimator's view, CPU utilizations, and
//! packet counts. All figure experiments and many integration tests are
//! thin wrappers over this.

use batchpolicy::{BreakerConfig, Objective};
use e2e_core::{ValidateConfig, ValidateStats};
use littles::Nanos;
use simnet::{FaultConfig, FaultCounters};

use crate::cost::CostProfile;
use crate::harness::Harness;
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
    /// The control plane: per-endpoint
    /// [`ControlPlane`](batchpolicy::ControlPlane)s route the
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
    /// booked afterwards (see
    /// `LancetClient::ticks_skipped`).
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

/// Executes one experiment point: warm-up, measurement window and a 20 ms
/// drain (see [`Harness`] for the stages).
pub fn run_point(cfg: &RunConfig) -> PointResult {
    Harness::star(cfg).run().result()
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
