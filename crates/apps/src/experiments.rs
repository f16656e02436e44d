//! The paper's figures as runnable experiments.
//!
//! Each function regenerates one figure's data on the simulated testbed
//! and returns a structure the `experiments` bench registry prints,
//! gates and emits as `BENCH_*.json`. See EXPERIMENTS.md for the
//! paper-vs-measured comparison.

use batchpolicy::{figure1_model, BatchOutcome, BreakerConfig, Figure1Params, Objective};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{
    CorruptConfig, DuplicateConfig, FaultConfig, GilbertElliott, JitterConfig, ReorderConfig,
    RestartSchedule, WindowSchedule,
};

use crate::failover::{
    run_failover_point, FailoverArm, FailoverPointResult, FailoverRunConfig, FailoverScenario,
};
use crate::runner::{run_point, NagleSetting, Overrides, PointResult, RunConfig};
use crate::shard::{run_shard_point, ShardPointResult, ShardRunConfig, ShardSetting};
use crate::grid::{default_threads, run_grid};
use crate::sweep::{run_sweep, SweepResult};
use crate::workload::WorkloadSpec;
use crate::cost::CostProfile;

/// The paper's 500 µs latency SLO.
pub const PAPER_SLO: Nanos = Nanos::from_micros(500);

/// Figure 1: the analytical model for c ∈ {1, 3, 5} (and a few more).
pub fn figure1() -> Vec<BatchOutcome> {
    (0..=6)
        .map(|c| figure1_model(Figure1Params::paper(c as f64)))
        .collect()
}

/// One cell of Figure 2: a fixed-load run on one client platform with one
/// Nagle setting.
#[derive(Debug, Clone)]
pub struct Figure2Cell {
    /// Human-readable platform label.
    pub platform: String,
    /// Whether Nagle was on.
    pub nagle_on: bool,
    /// The run's results.
    pub result: PointResult,
}

/// Figure 2: bare-metal vs. VM client at a fixed 20 kRPS.
#[derive(Debug, Clone)]
pub struct Figure2Data {
    /// The four cells: (bare, off), (bare, on), (vm, off), (vm, on).
    pub cells: Vec<Figure2Cell>,
}

impl Figure2Data {
    fn cell(&self, platform: &str, nagle_on: bool) -> &PointResult {
        &self
            .cells
            .iter()
            .find(|c| c.platform == platform && c.nagle_on == nagle_on)
            .expect("cell exists")
            .result
    }

    /// (a) Client CPU: VM vs. bare metal (no-Nagle runs).
    pub fn client_cpu_ratio(&self) -> f64 {
        let total = |r: &PointResult| r.client_cpu.app + r.client_cpu.softirq;
        total(self.cell("vm", false)) / total(self.cell("bare", false))
    }

    /// (b) Server CPU: VM vs. bare metal (should be ≈ 1).
    pub fn server_cpu_ratio(&self) -> f64 {
        let total = |r: &PointResult| r.server_cpu.app + r.server_cpu.softirq;
        total(self.cell("vm", false)) / total(self.cell("bare", false))
    }

    /// (c) Does Nagle help (lower measured latency) on each platform?
    pub fn nagle_helps(&self, platform: &str) -> bool {
        let on = self.cell(platform, true).measured_mean;
        let off = self.cell(platform, false).measured_mean;
        match (on, off) {
            (Some(on), Some(off)) => on < off,
            _ => false,
        }
    }
}

/// Runs Figure 2: the same fixed-rate workload with the client on "bare
/// metal" and "in a VM" (application CPU multiplier), Nagle on and off.
pub fn figure2(rate_rps: f64, warmup: Nanos, measure: Nanos, seed: u64) -> Figure2Data {
    let mut cells = Vec::new();
    for (platform, profile) in [
        ("bare", CostProfile::fig2_bare()),
        ("vm", CostProfile::vm_client()),
    ] {
        for nagle_on in [false, true] {
            let cfg = RunConfig {
                workload: WorkloadSpec::fig2(rate_rps, 4096),
                profile,
                nagle: if nagle_on {
                    NagleSetting::On
                } else {
                    NagleSetting::Off
                },
                use_hints: true,
                warmup,
                measure,
                seed,
                num_clients: 1,
                overrides: crate::runner::Overrides::default(),
                fault: simnet::FaultConfig::default(),
                staleness_bound: None,
                breaker: None,
                validate: None,
            };
            cells.push(Figure2Cell {
                platform: platform.to_string(),
                nagle_on,
                result: run_point(&cfg),
            });
        }
    }
    Figure2Data { cells }
}

/// Figure 4 data: the sweep plus the derived headline quantities.
#[derive(Debug, Clone)]
pub struct Figure4Data {
    /// Which variant ("4a" or "4b").
    pub variant: String,
    /// The full sweep.
    pub sweep: SweepResult,
    /// The SLO used.
    pub slo: Nanos,
    /// Highest SLO-compliant rate with Nagle off.
    pub sustainable_off: Option<f64>,
    /// Highest SLO-compliant rate with Nagle on.
    pub sustainable_on: Option<f64>,
    /// Range-extension factor (paper 4a: ≈ 1.93×).
    pub extension_factor: Option<f64>,
    /// Measured cutoff rate (where Nagle starts winning).
    pub cutoff_measured: Option<f64>,
    /// Byte-estimate cutoff rate (4a: coincides; 4b: does not).
    pub cutoff_estimated: Option<f64>,
}

fn figure4(
    variant: &str,
    rates: &[f64],
    spec_at: impl Fn(f64) -> WorkloadSpec + Sync,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> Figure4Data {
    let base = RunConfig {
        warmup,
        measure,
        seed,
        ..RunConfig::new(spec_at(rates[0]), NagleSetting::Off)
    };
    let sweep = run_sweep(rates, spec_at, &base, false);
    let sustainable_off = sweep.sustainable_rate(PAPER_SLO, |r| &r.off);
    let sustainable_on = sweep.sustainable_rate(PAPER_SLO, |r| &r.on);
    let extension_factor = match (sustainable_off, sustainable_on) {
        (Some(off), Some(on)) if off > 0.0 => Some(on / off),
        _ => None,
    };
    Figure4Data {
        variant: variant.to_string(),
        cutoff_measured: sweep.cutoff_rate(),
        cutoff_estimated: sweep.estimated_cutoff_rate(),
        sweep,
        slo: PAPER_SLO,
        sustainable_off,
        sustainable_on,
        extension_factor,
    }
}

/// The default rate grid for Figure 4 sweeps (requests/second), spanning
/// from well below the measured cutoff (~75 kRPS) past both knees
/// (no-Nagle ≈ 88 kRPS, Nagle ≈ 115 kRPS with the calibrated profile).
pub fn default_rates() -> Vec<f64> {
    vec![
        5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 65_000.0, 70_000.0,
        75_000.0, 80_000.0, 85_000.0, 88_000.0, 95_000.0, 105_000.0, 115_000.0,
    ]
}

/// Figure 4a: SET-only, 16 B keys, 16 KiB values.
pub fn figure4a(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> Figure4Data {
    figure4("4a", rates, WorkloadSpec::fig4a, warmup, measure, seed)
}

/// Figure 4b: SET:GET = 95:5 — the byte-unit estimate degrades.
pub fn figure4b(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> Figure4Data {
    figure4("4b", rates, WorkloadSpec::fig4b, warmup, measure, seed)
}

/// One fan-in row: the same aggregate load split across `num_clients`
/// connections.
#[derive(Debug, Clone)]
pub struct FaninRow {
    /// Concurrent client connections.
    pub num_clients: usize,
    /// The load sweep at this fan-in.
    pub sweep: SweepResult,
    /// Measured cutoff rate (where Nagle starts winning) at this fan-in.
    pub cutoff_measured: Option<f64>,
    /// Byte-estimate cutoff rate at this fan-in.
    pub cutoff_estimated: Option<f64>,
}

/// The fan-in experiment: how the Nagle cutoff moves as one aggregate
/// load spreads over more connections.
#[derive(Debug, Clone)]
pub struct FaninData {
    /// One row per fan-in width, ascending.
    pub rows: Vec<FaninRow>,
}

/// Runs the fan-in experiment: for each `N ∈ ns`, sweep the *aggregate*
/// offered rate over `rates` with the load split across N connections
/// into one shared server.
///
/// Per-connection rates shrink as N grows, so each connection's Nagle
/// hold waits longer for enough bytes (or the ACK) to flush — the
/// batching-on latency penalty grows with N while the no-Nagle curve
/// stays nearly N-independent until the shared server CPU collapses.
/// The cutoff where batching starts winning therefore moves *right*
/// (to higher aggregate rates) as N grows, converging on the collapse
/// point itself; the throughput-weighted aggregate estimate identifies
/// it at every width.
pub fn fanin(
    ns: &[usize],
    rates: &[f64],
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> FaninData {
    let rows = ns
        .iter()
        .map(|&n| {
            let base = RunConfig {
                warmup,
                measure,
                seed,
                num_clients: n,
                ..RunConfig::new(WorkloadSpec::fig4a(rates[0]), NagleSetting::Off)
            };
            let sweep = run_sweep(rates, WorkloadSpec::fig4a, &base, false);
            FaninRow {
                num_clients: n,
                cutoff_measured: sweep.cutoff_rate(),
                cutoff_estimated: sweep.estimated_cutoff_rate(),
                sweep,
            }
        })
        .collect();
    FaninData { rows }
}

/// The §5 dynamic-toggling experiment: off vs. on vs. ε-greedy dynamic at
/// each rate.
pub fn dynamic_toggle(rates: &[f64], warmup: Nanos, measure: Nanos, seed: u64) -> SweepResult {
    let base = RunConfig {
        warmup,
        measure,
        seed,
        ..RunConfig::new(WorkloadSpec::fig4a(rates[0]), NagleSetting::Off)
    };
    run_sweep(rates, WorkloadSpec::fig4a, &base, true)
}

/// A degradation bound every grid states the same way: an arm's P99 must
/// stay within `factor × reference + slack`, where the reference is the
/// cell's oracle (best static mode, best corner, never-failed run).
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Multiplicative allowance on the reference P99.
    pub factor: f64,
    /// Additive slack, so a tiny reference P99 does not gate on noise.
    pub slack: Nanos,
}

impl Bound {
    /// `p99 ÷ reference` (> 1 means worse than the reference); `None`
    /// when either side measured nothing. A zero reference counts as 1 ns.
    pub fn ratio(p99: Option<Nanos>, reference: Option<Nanos>) -> Option<f64> {
        Some(p99?.as_nanos() as f64 / reference?.as_nanos().max(1) as f64)
    }

    /// True if `p99 ≤ factor × reference + slack`. A cell where either
    /// side produced no samples is a failed run, not a pass.
    pub fn holds(&self, p99: Option<Nanos>, reference: Option<Nanos>) -> bool {
        let Bound { factor, slack } = *self;
        match (p99, reference) {
            (Some(p99), Some(reference)) => {
                p99 <= Nanos::from_nanos((reference.as_nanos() as f64 * factor) as u64) + slack
            }
            _ => false,
        }
    }

    /// The worst (largest) of a grid's per-cell ratios.
    pub fn worst(ratios: impl Iterator<Item = Option<f64>>) -> Option<f64> {
        ratios.flatten().max_by(|a, b| a.total_cmp(b))
    }
}

impl std::fmt::Display for Bound {
    /// `3x + 300.00µs`-style, for gate messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x + {}", self.factor, self.slack)
    }
}

/// The lower of two optional P99s (either one if the other is missing).
fn lower_p99(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    [a, b].into_iter().flatten().min()
}

/// Staleness bound used by the adaptive chaos profile: a peer snapshot
/// older than this stops being trusted and the estimator falls back to
/// local-only estimation with zero confidence. Four exchange intervals
/// (500 µs each) of headroom keeps healthy runs comfortably fresh while a
/// blackout or server stall trips the fallback within two policy ticks.
pub const CHAOS_STALENESS_BOUND: Nanos = Nanos::from_millis(2);

/// The stated degradation bound the adaptive policy must satisfy in every
/// chaos cell, where the oracle is the better static mode for that cell.
/// The factor absorbs ε-greedy exploration (a few percent of decisions
/// deliberately sample the worse mode) plus run-to-run divergence in
/// which packets a fault episode hits; the slack keeps cells whose oracle
/// P99 is tiny from gating on scheduler noise.
pub const CHAOS_BOUND: Bound = Bound {
    factor: 3.0,
    slack: Nanos::from_micros(300),
};

/// The fault classes the chaos experiment sweeps. Each maps one intensity
/// knob in `(0, 1]` onto a single-dimension [`FaultConfig`], so a cell
/// isolates the policy stack's response to one impairment at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosClass {
    /// Gilbert–Elliott bursty loss, up to a 4% stationary rate in bursts
    /// of ~8 packets.
    Loss,
    /// Bounded reordering: up to 30% of packets held back ≤ 150 µs.
    Reorder,
    /// Packet duplication, up to 10% of packets delivered twice.
    Duplicate,
    /// Uniform per-packet delay jitter, up to 100 µs.
    Jitter,
    /// Periodic link blackouts (switch flap): up to 2 ms dark every 25 ms.
    Blackout,
    /// Periodic server application-thread stalls (GC pause): up to 2 ms
    /// every 25 ms.
    ServerStall,
}

impl ChaosClass {
    /// Every class, in sweep order.
    pub const ALL: [ChaosClass; 6] = [
        ChaosClass::Loss,
        ChaosClass::Reorder,
        ChaosClass::Duplicate,
        ChaosClass::Jitter,
        ChaosClass::Blackout,
        ChaosClass::ServerStall,
    ];

    /// Stable label used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosClass::Loss => "loss",
            ChaosClass::Reorder => "reorder",
            ChaosClass::Duplicate => "duplicate",
            ChaosClass::Jitter => "jitter",
            ChaosClass::Blackout => "blackout",
            ChaosClass::ServerStall => "server_stall",
        }
    }

    /// The fault configuration for this class at `intensity ∈ (0, 1]`.
    ///
    /// All faults start at 10 ms — past the handshake, inside any
    /// realistic warmup — and scheduled windows repeat every 25 ms so
    /// even a short measurement window sees several episodes.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `(0, 1]`.
    pub fn fault_at(&self, intensity: f64) -> FaultConfig {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "chaos intensity must be in (0, 1], got {intensity}"
        );
        let scaled_us = |max_us: f64| Nanos::from_nanos((1_000.0 * max_us * intensity) as u64);
        let start = Nanos::from_millis(10);
        let window = |duration: Nanos| WindowSchedule {
            first_at: start,
            period: Nanos::from_millis(25),
            duration,
        };
        let mut fault = FaultConfig {
            start_at: start,
            ..FaultConfig::default()
        };
        match self {
            ChaosClass::Loss => {
                // Bursty, but not a total outage inside a burst: dropping
                // only half the packets in the bad state leaves fast
                // retransmissions a fighting chance, which is the regime
                // where the policies differ rather than everything
                // reducing to RTO waits. Stationary loss rate is
                // π_bad · loss_bad = 4% · intensity.
                let pi_bad = 2.0 * 0.04 * intensity;
                fault.loss = Some(GilbertElliott {
                    p_bad_to_good: 1.0 / 8.0,
                    p_good_to_bad: pi_bad / (1.0 - pi_bad) / 8.0,
                    loss_good: 0.0,
                    loss_bad: 0.5,
                });
            }
            ChaosClass::Reorder => {
                fault.reorder = Some(ReorderConfig {
                    probability: 0.3 * intensity,
                    max_extra: Nanos::from_micros(150),
                });
            }
            ChaosClass::Duplicate => {
                fault.duplicate = Some(DuplicateConfig {
                    probability: 0.10 * intensity,
                });
            }
            ChaosClass::Jitter => {
                fault.jitter = Some(JitterConfig {
                    max: scaled_us(100.0),
                });
            }
            ChaosClass::Blackout => {
                fault.blackout = Some(window(scaled_us(2_000.0)));
            }
            ChaosClass::ServerStall => {
                fault.server_stall = Some(window(scaled_us(2_000.0)));
            }
        }
        fault
    }
}

/// One chaos cell: a fault class at one intensity and fan-in width, run
/// under both static baselines and the adaptive (breaker-guarded,
/// staleness-aware) dynamic policy.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The injected fault class.
    pub class: ChaosClass,
    /// The class intensity knob in `(0, 1]`.
    pub intensity: f64,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// Static Nagle-off baseline under this fault.
    pub off: PointResult,
    /// Static Nagle-on baseline under this fault.
    pub on: PointResult,
    /// Adaptive policy (dynamic Nagle + staleness bound + circuit breaker).
    pub adaptive: PointResult,
}

impl ChaosCell {
    /// The static oracle: the better (lower) of the two static P99s —
    /// what an omniscient operator would have picked for this cell.
    pub fn oracle_p99(&self) -> Option<Nanos> {
        lower_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Adaptive-vs-oracle P99 ratio (> 1 means the adaptive policy was
    /// worse than the best static choice).
    pub fn regression(&self) -> Option<f64> {
        Bound::ratio(self.adaptive.measured_p99, self.oracle_p99())
    }

    /// True if the adaptive P99 stays within `bound` of the oracle.
    pub fn within_bound(&self, bound: Bound) -> bool {
        bound.holds(self.adaptive.measured_p99, self.oracle_p99())
    }
}

/// The chaos experiment's full grid.
#[derive(Debug, Clone)]
pub struct ChaosData {
    /// One cell per (fan-in, class, intensity), in sweep order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosData {
    /// The worst adaptive-vs-oracle P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        Bound::worst(self.cells.iter().map(|c| c.regression()))
    }
}

/// The degradation bound the joint adaptive control plane must satisfy
/// in every knob-grid cell, against the best static corner. Much tighter
/// than the chaos bound — the grid is fault-free, so the only adaptive
/// overheads are ε-greedy exploration and the knobs' convergence
/// transient.
pub const KNOBS_BOUND: Bound = Bound {
    factor: 1.1,
    slack: Nanos::from_micros(100),
};

/// Delayed-ACK timeout used uniformly across every knob-grid arm. The
/// Linux-default 40 ms would turn each Nagle/delayed-ACK interaction
/// stall into an outage at simulated timescales; 500 µs keeps the stall
/// real (it dominates the affected corners' P99) but lets every arm
/// finish inside the measure window.
pub const KNOBS_DELACK_TIMEOUT: Nanos = Nanos::from_micros(500);

/// One static corner of the knob cube, labeled.
#[derive(Debug, Clone)]
pub struct KnobCorner {
    /// Corner coordinates: Nagle, delayed ACKs, fixed cork limit.
    pub nagle: bool,
    /// Delayed ACKs enabled.
    pub delayed_ack: bool,
    /// Two-MSS cork limit enabled.
    pub cork: bool,
    /// The run's results.
    pub result: PointResult,
}

impl KnobCorner {
    /// Stable label, e.g. `"nagle+delack-cork"`.
    pub fn label(&self) -> String {
        let sign = |b: bool| if b { '+' } else { '-' };
        format!(
            "{}nagle{}delack{}cork",
            sign(self.nagle),
            sign(self.delayed_ack),
            sign(self.cork)
        )
    }
}

/// One cell of the knob grid: a (client cost c, fan-in N) point run
/// under all eight static knob corners, the Nagle-only adaptive plane
/// (the paper's single-knob policy), and the joint adaptive plane
/// driving all three knobs.
#[derive(Debug, Clone)]
pub struct KnobsCell {
    /// The client per-response app cost `c` (Figure 1's client cost).
    pub client_cost: Nanos,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// The eight static corners, in (nagle, delack, cork) binary order.
    pub corners: Vec<KnobCorner>,
    /// The Nagle-only adaptive plane (today's single-knob behaviour).
    pub nagle_only: PointResult,
    /// The joint adaptive plane (Nagle + delayed-ACK + cork).
    pub joint: PointResult,
}

impl KnobsCell {
    /// The best (lowest) static-corner P99 — what an omniscient operator
    /// sweeping all eight corners would have picked.
    pub fn best_corner_p99(&self) -> Option<Nanos> {
        self.corners
            .iter()
            .filter_map(|c| c.result.measured_p99)
            .min()
    }

    /// The label of the best static corner.
    pub fn best_corner_label(&self) -> Option<String> {
        self.corners
            .iter()
            .filter(|c| c.result.measured_p99.is_some())
            .min_by_key(|c| c.result.measured_p99)
            .map(|c| c.label())
    }

    /// Joint-vs-best-corner P99 ratio (> 1 means the joint plane was
    /// worse than the best static corner).
    pub fn regression(&self) -> Option<f64> {
        Bound::ratio(self.joint.measured_p99, self.best_corner_p99())
    }

    /// True if the joint plane's P99 stays within `bound` of the best
    /// static corner.
    pub fn within_bound(&self, bound: Bound) -> bool {
        bound.holds(self.joint.measured_p99, self.best_corner_p99())
    }

    /// True if the joint plane's P99 strictly beats the Nagle-only
    /// adaptive plane's — the multi-knob payoff.
    pub fn joint_beats_nagle_only(&self) -> bool {
        match (self.joint.measured_p99, self.nagle_only.measured_p99) {
            (Some(joint), Some(single)) => joint < single,
            _ => false,
        }
    }
}

/// The knob grid experiment's full result.
#[derive(Debug, Clone)]
pub struct KnobsData {
    /// One cell per (client cost, fan-in), in sweep order.
    pub cells: Vec<KnobsCell>,
}

impl KnobsData {
    /// The worst joint-vs-best-corner P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        Bound::worst(self.cells.iter().map(|c| c.regression()))
    }

    /// The cell at the grid's highest client cost and fan-in — where the
    /// Nagle/delayed-ACK interaction bites hardest and the multi-knob
    /// plane must strictly beat the single-knob one.
    pub fn high_cell(&self) -> Option<&KnobsCell> {
        self.cells.iter().max_by_key(|c| (c.client_cost, c.num_clients))
    }
}

/// Runs the knob grid: for each client per-response cost `c` in `costs`
/// and each fan-in width in `ns`, one cell of ten runs (eight static
/// corners, Nagle-only plane, joint plane) at the same aggregate
/// `rate_rps`.
///
/// Every arm shares the same uniform delayed-ACK timeout
/// ([`KNOBS_DELACK_TIMEOUT`]) so the corners and the adaptive planes
/// pay the same stall when delayed ACKs interact with Nagle.
pub fn knobs(
    costs: &[Nanos],
    ns: &[usize],
    rate_rps: f64,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> KnobsData {
    // Cells (one per cost x width) run in parallel; the ten runs inside a
    // cell stay serial. Index-ordered merge keeps the output identical to
    // the serial nested loop.
    let mut specs = Vec::new();
    for &cost in costs {
        for &n in ns {
            specs.push((cost, n));
        }
    }
    let cells = run_grid(specs.len(), default_threads(), |i| {
        let (cost, n) = specs[i];
        let mut profile = CostProfile::calibrated();
        profile.app.client_response_base = cost;
        {
            let base = RunConfig {
                profile,
                warmup,
                measure,
                seed,
                num_clients: n,
                overrides: Overrides {
                    delack_timeout: Some(KNOBS_DELACK_TIMEOUT),
                    ..Overrides::default()
                },
                ..RunConfig::new(WorkloadSpec::fig4a(rate_rps), NagleSetting::Off)
            };
            let corners = [false, true]
                .iter()
                .flat_map(|&nagle| {
                    [false, true].iter().flat_map(move |&delayed_ack| {
                        [false, true].iter().map(move |&cork| (nagle, delayed_ack, cork))
                    })
                })
                .map(|(nagle, delayed_ack, cork)| KnobCorner {
                    nagle,
                    delayed_ack,
                    cork,
                    result: run_point(&RunConfig {
                        nagle: NagleSetting::Corner {
                            nagle,
                            delayed_ack,
                            cork,
                        },
                        ..base
                    }),
                })
                .collect();
            let nagle_only = run_point(&RunConfig {
                nagle: NagleSetting::dynamic(Objective::MinLatency),
                ..base
            });
            let joint = run_point(&RunConfig {
                nagle: NagleSetting::Plane {
                    objective: Objective::MinLatency,
                    delack: true,
                    cork: true,
                },
                ..base
            });
            KnobsCell {
                client_cost: cost,
                num_clients: n,
                corners,
                nagle_only,
                joint,
            }
        }
    });
    KnobsData { cells }
}

/// Runs the chaos grid: for each fan-in width in `ns`, each fault class,
/// and each intensity, one cell of three runs (static off, static on,
/// adaptive) at the same aggregate `rate_rps`.
///
/// The adaptive run is the graceful-degradation configuration under test:
/// ε-greedy dynamic toggling behind a [`batchpolicy::CircuitBreaker`]
/// with the default trip/backoff profile,
/// with estimator confidence driven by [`CHAOS_STALENESS_BOUND`].
pub fn chaos(
    classes: &[ChaosClass],
    intensities: &[f64],
    ns: &[usize],
    rate_rps: f64,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> ChaosData {
    // Enumerate the grid up front, then run cells in parallel; the merge
    // is by cell index, so the output order (and every byte in it) matches
    // the serial triple loop this replaces.
    let mut specs = Vec::new();
    for &n in ns {
        for &class in classes {
            for &intensity in intensities {
                specs.push((n, class, intensity));
            }
        }
    }
    let cells = run_grid(specs.len(), default_threads(), |i| {
        let (n, class, intensity) = specs[i];
        let base = RunConfig {
            warmup,
            measure,
            seed,
            num_clients: n,
            fault: class.fault_at(intensity),
            overrides: Overrides {
                // The Linux-default 200 ms RTO floor exceeds the
                // whole measure window, and exponential backoff
                // toward the 60 s cap can park a lossy connection
                // past it entirely; clamp both (identically in
                // all three arms) so loss episodes recover at
                // simulation timescales.
                min_rto: Some(Nanos::from_millis(5)),
                max_rto: Some(Nanos::from_millis(40)),
                ..Overrides::default()
            },
            ..RunConfig::new(WorkloadSpec::fig4a(rate_rps), NagleSetting::Off)
        };
        let off = run_point(&base);
        let on = run_point(&RunConfig {
            nagle: NagleSetting::On,
            ..base
        });
        let adaptive = run_point(&RunConfig {
            nagle: NagleSetting::dynamic(Objective::MinLatency),
            staleness_bound: Some(CHAOS_STALENESS_BOUND),
            breaker: Some(BreakerConfig::default()),
            ..base
        });
        ChaosCell {
            class,
            intensity,
            num_clients: n,
            off,
            on,
            adaptive,
        }
    });
    ChaosData { cells }
}

/// The adversarial fault classes the adversary experiment sweeps: unlike
/// the chaos classes, which impair *delivery*, these impair the
/// *metadata* itself — the exchange payload is garbled, or the peer that
/// produced it restarts and its counters start over from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryClass {
    /// Deterministic bit flips on the in-flight exchange option: one
    /// random (field, bit) target per corrupted segment, up to 25% of
    /// exchange-carrying segments at full intensity.
    Corrupt,
    /// Periodic endpoint restarts: a client process dies mid-run, every
    /// socket's counters reset, and it reconnects with a fresh epoch —
    /// every 50 ms at full intensity.
    Restart,
}

impl AdversaryClass {
    /// Every class, in sweep order.
    pub const ALL: [AdversaryClass; 2] = [AdversaryClass::Corrupt, AdversaryClass::Restart];

    /// Stable label used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryClass::Corrupt => "corrupt",
            AdversaryClass::Restart => "restart",
        }
    }

    /// The fault configuration for this class at `intensity ∈ (0, 1]`.
    ///
    /// Corruption starts at 10 ms (past the handshake); restarts first
    /// fire at 25 ms and then repeat with a period of `50 ms / intensity`,
    /// so even the smoke window sees several full die/reconnect/resync
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `(0, 1]`.
    pub fn fault_at(&self, intensity: f64) -> FaultConfig {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "adversary intensity must be in (0, 1], got {intensity}"
        );
        let mut fault = FaultConfig {
            start_at: Nanos::from_millis(10),
            ..FaultConfig::default()
        };
        match self {
            AdversaryClass::Corrupt => {
                fault.corrupt = Some(CorruptConfig {
                    probability: 0.25 * intensity,
                });
            }
            AdversaryClass::Restart => {
                fault.restart = Some(RestartSchedule {
                    first_at: Nanos::from_millis(25),
                    period: Nanos::from_nanos((50_000_000.0 / intensity) as u64),
                });
            }
        }
        fault
    }
}

/// One adversary cell: an adversarial fault class at one intensity and
/// fan-in width, run under both static baselines plus two otherwise
/// identical adaptive arms that differ only in whether incoming exchanges
/// are validated. The guarded arm is the hardened configuration under
/// test; the exposed arm is the ablation showing validation is
/// load-bearing.
#[derive(Debug, Clone)]
pub struct AdversaryCell {
    /// The injected fault class.
    pub class: AdversaryClass,
    /// The class intensity knob in `(0, 1]`.
    pub intensity: f64,
    /// Concurrent client connections.
    pub num_clients: usize,
    /// Static Nagle-off baseline under this fault.
    pub off: PointResult,
    /// Static Nagle-on baseline under this fault.
    pub on: PointResult,
    /// Adaptive policy with peer-state validation (dynamic Nagle + staleness
    /// bound + safe-on circuit breaker + validator).
    pub guarded: PointResult,
    /// The same adaptive policy with validation disabled — garbled or
    /// restart-spanning windows reach the estimator unchecked.
    pub exposed: PointResult,
}

impl AdversaryCell {
    /// The static oracle: the better (lower) of the two static P99s.
    pub fn oracle_p99(&self) -> Option<Nanos> {
        lower_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Guarded-vs-oracle P99 ratio (> 1 means the guarded policy was
    /// worse than the best static choice).
    pub fn regression(&self) -> Option<f64> {
        Bound::ratio(self.guarded.measured_p99, self.oracle_p99())
    }

    /// Exposed-vs-oracle P99 ratio — how badly unvalidated metadata
    /// poisons the same policy stack.
    pub fn exposed_regression(&self) -> Option<f64> {
        Bound::ratio(self.exposed.measured_p99, self.oracle_p99())
    }

    /// True if the guarded P99 stays within `bound` of the oracle — the
    /// same degradation bound the chaos grid enforces ([`CHAOS_BOUND`]).
    pub fn within_bound(&self, bound: Bound) -> bool {
        bound.holds(self.guarded.measured_p99, self.oracle_p99())
    }

    /// True if the *exposed* arm stays within the bound. The experiment's
    /// point is that at least one cell fails this: without validation the
    /// same policy stack degrades past the bound.
    pub fn exposed_within_bound(&self, bound: Bound) -> bool {
        bound.holds(self.exposed.measured_p99, self.oracle_p99())
    }
}

/// The adversary experiment's full grid.
#[derive(Debug, Clone)]
pub struct AdversaryData {
    /// One cell per (fan-in, class, intensity), in sweep order.
    pub cells: Vec<AdversaryCell>,
}

impl AdversaryData {
    /// The worst guarded-vs-oracle P99 ratio across the grid.
    pub fn worst_regression(&self) -> Option<f64> {
        Bound::worst(self.cells.iter().map(|c| c.regression()))
    }
}

/// The breaker profile for the adversary's adaptive arms — deliberately
/// more pessimistic than [`BreakerConfig::default`], because the threat
/// model differs. Chaos faults impair *delivery*: staleness collapses
/// confidence for the whole outage, so a short backoff and quick restore
/// suffice. Adversarial faults impair the *metadata*: a garbled window
/// small enough to pass plausibility checks carries full confidence, so
/// the only trustworthy signal is the validator's rejection stream — and
/// any rejection means the peer state cannot currently be trusted at
/// all. Hence: `min_confidence` 0.75 (a single rejected exchange halves
/// confidence to 0.5 and already counts), `trip_after` 1 (first suspect
/// tick fails static-safe), a long escalating backoff with a slow
/// restore (a still-corrupted probe re-opens and doubles the wait), and
/// `safe_on` true because at the experiment's operating point — past the
/// no-Nagle knee — the safe static mode is batching *on* (the paper's
/// range-extension argument), not the Redis default.
pub fn adversary_breaker() -> BreakerConfig {
    BreakerConfig {
        min_confidence: 0.75,
        trip_after: 1,
        safe_on: true,
        initial_backoff: Nanos::from_millis(50),
        max_backoff: Nanos::from_secs(2),
        restore_after: 8,
    }
}

/// Runs the adversary grid: for each fan-in width in `ns`, each
/// adversarial fault class, and each intensity, one cell of four runs
/// (static off, static on, guarded adaptive, exposed adaptive) at the
/// same aggregate `rate_rps`.
///
/// The guarded and exposed arms share every knob — objective, seeds,
/// staleness bound, breaker — and differ only in `validate`, so any
/// latency gap between them is attributable to peer-state validation.
pub fn adversary(
    classes: &[AdversaryClass],
    intensities: &[f64],
    ns: &[usize],
    rate_rps: f64,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> AdversaryData {
    // Same parallel-cells/serial-merge shape as the chaos grid.
    let mut specs = Vec::new();
    for &n in ns {
        for &class in classes {
            for &intensity in intensities {
                specs.push((n, class, intensity));
            }
        }
    }
    let cells = run_grid(specs.len(), default_threads(), |i| {
        let (n, class, intensity) = specs[i];
        let base = RunConfig {
            warmup,
            measure,
            seed,
            num_clients: n,
            fault: class.fault_at(intensity),
            // The validator rides along in the static arms too:
            // it cannot change their latency (no policy consumes
            // the estimates) but its counters prove the faults
            // actually reached the metadata path.
            validate: Some(ValidateConfig::default()),
            overrides: Overrides {
                // Same RTO clamps as the chaos grid, identical in
                // all four arms, so restart-induced loss episodes
                // recover at simulation timescales.
                min_rto: Some(Nanos::from_millis(5)),
                max_rto: Some(Nanos::from_millis(40)),
                ..Overrides::default()
            },
            ..RunConfig::new(WorkloadSpec::fig4a(rate_rps), NagleSetting::Off)
        };
        let off = run_point(&base);
        let on = run_point(&RunConfig {
            nagle: NagleSetting::On,
            ..base
        });
        let guarded_cfg = RunConfig {
            nagle: NagleSetting::dynamic(Objective::MinLatency),
            staleness_bound: Some(CHAOS_STALENESS_BOUND),
            breaker: Some(adversary_breaker()),
            ..base
        };
        let guarded = run_point(&guarded_cfg);
        let exposed = run_point(&RunConfig {
            validate: None,
            ..guarded_cfg
        });
        AdversaryCell {
            class,
            intensity,
            num_clients: n,
            off,
            on,
            guarded,
            exposed,
        }
    });
    AdversaryData { cells }
}

/// Minimum fraction of measurement windows in which the service-level
/// estimates must rank the hot shard's composed delay highest, checked
/// on the *unadapted* (`TCP_NODELAY`-pinned) run at the saturated top
/// rate. The diagnostic claim lives on that arm deliberately: the
/// adaptive planes consume the very signal being measured — once the
/// hot upstream flips to batching, its delay drops back into the pack.
pub const SHARD_HOT_RANK_MIN: f64 = 0.9;
/// Degradation bound for every shard-grid cell, against the best static
/// corner. Looser than the knob-grid bound because at unsaturated rates
/// the per-shard planes pay exploration excursions on upstreams where
/// both corners are already cheap; the headline claim (strictly beating
/// the best corner) is asserted separately on the saturated cell.
pub const SHARD_BOUND: Bound = Bound {
    factor: 1.5,
    slack: Nanos::from_micros(60),
};

/// One cell of the sharded-proxy grid: both static upstream corners and
/// the per-shard adaptive planes, at one aggregate rate.
#[derive(Debug, Clone)]
pub struct ShardCell {
    /// Aggregate offered load (requests/second).
    pub rate_rps: f64,
    /// Upstreams pinned `TCP_NODELAY`.
    pub off: ShardPointResult,
    /// Upstreams pinned Nagle-on.
    pub on: ShardPointResult,
    /// Per-shard adaptive planes at the proxy.
    pub adaptive: ShardPointResult,
}

impl ShardCell {
    /// The best (lowest) static-corner P99 — the global pin an operator
    /// sweeping both corners would have picked for the whole fleet.
    pub fn best_corner_p99(&self) -> Option<Nanos> {
        lower_p99(self.off.measured_p99, self.on.measured_p99)
    }

    /// Adaptive-vs-best-corner P99 ratio (< 1 means the per-shard planes
    /// beat every global static choice).
    pub fn regression(&self) -> Option<f64> {
        Bound::ratio(self.adaptive.measured_p99, self.best_corner_p99())
    }

    /// True if the adaptive P99 stays within `bound` of the best corner.
    pub fn within_bound(&self, bound: Bound) -> bool {
        bound.holds(self.adaptive.measured_p99, self.best_corner_p99())
    }
}

/// The sharded-proxy experiment's full result.
#[derive(Debug, Clone)]
pub struct ShardData {
    /// One cell per aggregate rate, in sweep order.
    pub cells: Vec<ShardCell>,
}

/// Runs the sharded-proxy grid: for each aggregate rate, one skewed-load
/// cell of three two-tier runs — upstreams pinned off, pinned on, and
/// per-shard adaptive. The skew concentrates `hot_fraction` of the
/// traffic on one shard, so a *global* static pin is wrong for someone:
/// the hot upstream wants request batching (amortizing the hot shard's
/// per-delivery receive work), the cold ones want immediacy. The cell
/// exposes whether the composed per-shard estimates (a) rank the hot
/// shard first and (b) let the per-shard planes beat both global pins.
pub fn shard(
    rates: &[f64],
    num_clients: usize,
    num_shards: usize,
    hot_fraction: f64,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> ShardData {
    let specs: Vec<f64> = rates.to_vec();
    let cells = run_grid(specs.len(), default_threads(), |i| {
        let rate = specs[i];
        let base = ShardRunConfig {
            num_clients,
            num_shards,
            hot_fraction,
            warmup,
            measure,
            seed,
            ..ShardRunConfig::new(
                WorkloadSpec::shard(rate),
                ShardSetting::Corner { nagle: false },
            )
        };
        let off = run_shard_point(&base);
        let on = run_shard_point(&ShardRunConfig {
            setting: ShardSetting::Corner { nagle: true },
            ..base
        });
        let adaptive = run_shard_point(&ShardRunConfig {
            setting: ShardSetting::Adaptive {
                objective: Objective::MinLatency,
            },
            ..base
        });
        ShardCell {
            rate_rps: rate,
            off,
            on,
            adaptive,
        }
    });
    ShardData { cells }
}

/// Degradation bound for the full defense stack in every failover cell,
/// against the never-failed oracle. The slack absorbs the deadline-scan
/// granularity (a hedge can fire at most one proxy tick late).
pub const FAILOVER_BOUND: Bound = Bound {
    factor: 3.0,
    slack: Nanos::from_micros(300),
};
/// The naive proxy must exceed this P99 multiple of the oracle in at
/// least one cell — the collapse the defense ladder exists to prevent.
pub const FAILOVER_NAIVE_FACTOR: f64 = 10.0;
/// Goodput floor for the full stack, as a fraction of the oracle's.
pub const FAILOVER_GOODPUT_MIN: f64 = 0.9;

/// One cell of the failover grid: a fault scenario, the never-failed
/// oracle, and the full defense-arm ladder under that fault.
#[derive(Debug, Clone)]
pub struct FailoverCell {
    /// The injected fault.
    pub scenario: FailoverScenario,
    /// The identical configuration with the fault plan disabled.
    pub oracle: FailoverPointResult,
    /// One run per [`FailoverArm`], in `FailoverArm::ALL` order.
    pub arms: Vec<(FailoverArm, FailoverPointResult)>,
}

impl FailoverCell {
    /// The result for one arm.
    pub fn arm(&self, arm: FailoverArm) -> &FailoverPointResult {
        &self
            .arms
            .iter()
            .find(|(a, _)| *a == arm)
            .expect("every arm runs in every cell")
            .1
    }

    /// One arm's P99 as a multiple of the oracle's.
    pub fn p99_ratio(&self, arm: FailoverArm) -> Option<f64> {
        Bound::ratio(self.arm(arm).measured_p99, self.oracle.measured_p99)
    }

    /// True when the full stack holds the cell's acceptance bound: P99
    /// within `bound` of the oracle and goodput within
    /// [`FAILOVER_GOODPUT_MIN`] of the oracle's.
    pub fn full_within_bound(&self, bound: Bound) -> bool {
        let full = self.arm(FailoverArm::Full);
        bound.holds(full.measured_p99, self.oracle.measured_p99)
            && full.achieved_rps >= FAILOVER_GOODPUT_MIN * self.oracle.achieved_rps
    }

    /// True when the naive proxy's P99 blew past `factor ×` the oracle
    /// (or stopped producing samples at all — total collapse).
    pub fn naive_collapsed(&self, factor: f64) -> bool {
        match self.p99_ratio(FailoverArm::NoDefense) {
            Some(r) => r > factor,
            None => true,
        }
    }
}

/// The failover experiment's full result.
#[derive(Debug, Clone)]
pub struct FailoverData {
    /// One cell per scenario, in [`FailoverScenario::ALL`] order.
    pub cells: Vec<FailoverCell>,
}

/// Runs the failover grid: for each fault scenario (hot-shard crash,
/// cold-shard brownout), the never-failed oracle plus every defense arm
/// — naive, deadlines only, +retries, and the full retry/hedge/breaker
/// stack with ring-successor failover routing. The cells expose the
/// robustness claim: end-to-end estimation is not only a batching signal
/// but the timing source for hedges and the confidence feed for
/// breakers, and with both in place a shard can die mid-run while the
/// client-visible tail stays within a small factor of a healthy tier.
pub fn failover(
    rate: f64,
    num_clients: usize,
    num_shards: usize,
    hot_fraction: f64,
    warmup: Nanos,
    measure: Nanos,
    seed: u64,
) -> FailoverData {
    let scenarios = FailoverScenario::ALL;
    let cells = run_grid(scenarios.len(), default_threads(), |i| {
        let scenario = scenarios[i];
        let base = FailoverRunConfig {
            num_clients,
            num_shards,
            hot_fraction,
            warmup,
            measure,
            seed,
            ..FailoverRunConfig::new(
                WorkloadSpec::shard(rate),
                FailoverArm::Full,
                Some(scenario),
            )
        };
        let oracle = run_failover_point(&FailoverRunConfig {
            scenario: None,
            ..base
        });
        let arms = FailoverArm::ALL
            .iter()
            .map(|&arm| (arm, run_failover_point(&FailoverRunConfig { arm, ..base })))
            .collect();
        FailoverCell {
            scenario,
            oracle,
            arms,
        }
    });
    FailoverData { cells }
}
