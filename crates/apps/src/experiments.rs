//! What the experiments share: each grid's arm configurations, the
//! degradation bounds and the fault-class tables, plus Figure 2.
//!
//! Every grid has the paper's shape: a cell of named configurations
//! ("arms") run at the same load and scored against an oracle arm. One
//! pure function per grid maps a cell's coordinates to its arms, in a
//! documented order a caller destructures:
//!
//! ```no_run
//! # use e2e_apps::experiments::{chaos_arms, ChaosClass};
//! # use e2e_apps::run_point;
//! # use littles::Nanos;
//! let window = (Nanos::from_millis(50), Nanos::from_millis(150));
//! let cell = chaos_arms(ChaosClass::Loss, 1.0, 4, 24_000.0, window, 7);
//! let [off, on, adaptive] = cell.map(|cfg| run_point(&cfg));
//! ```
//!
//! The `experiments` bench registry enumerates each grid's cells, runs
//! them, and prints, emits and gates the results. See EXPERIMENTS.md for
//! the paper-vs-measured comparison.

use batchpolicy::{BreakerConfig, Objective};
use e2e_core::ValidateConfig;
use littles::Nanos;
use simnet::{
    CorruptConfig, DuplicateConfig, FaultConfig, GilbertElliott, JitterConfig, ReorderConfig,
    RestartSchedule, WindowSchedule,
};

use crate::cost::CostProfile;
use crate::failover::{FailoverArm, FailoverScenario};
use crate::runner::{run_point, NagleSetting, Overrides, PointResult, RunConfig};
use crate::tier::{ShardSetting, TierRunConfig};
use crate::workload::WorkloadSpec;

/// The paper's 500 µs latency SLO.
pub const PAPER_SLO: Nanos = Nanos::from_micros(500);

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
    #[expect(
        clippy::expect_used,
        reason = "the four cells are built together, so every lookup hits"
    )]
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
        for (nagle_on, nagle) in [(false, NagleSetting::Off), (true, NagleSetting::On)] {
            let cfg = RunConfig {
                profile,
                warmup,
                measure,
                seed,
                ..RunConfig::new(WorkloadSpec::fig2(rate_rps, 4096), nagle)
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

/// The static Nagle-off arm both fault grids build on: Figure 4a at
/// `rate_rps` over `num_clients` connections under `fault`. The
/// Linux-default 200 ms RTO floor exceeds the whole measure window, and
/// exponential backoff toward the 60 s cap can park a lossy connection
/// past it entirely; both are clamped, identically in every arm, so loss
/// and restart episodes recover at simulation timescales.
fn faulted_off(
    fault: FaultConfig,
    num_clients: usize,
    rate_rps: f64,
    (warmup, measure): (Nanos, Nanos),
    seed: u64,
) -> RunConfig {
    RunConfig {
        warmup,
        measure,
        seed,
        num_clients,
        fault,
        overrides: Overrides {
            min_rto: Some(Nanos::from_millis(5)),
            max_rto: Some(Nanos::from_millis(40)),
            ..Overrides::default()
        },
        ..RunConfig::new(WorkloadSpec::fig4a(rate_rps), NagleSetting::Off)
    }
}

/// The chaos cell at (`class`, `intensity`, `num_clients`), driven at
/// `rate_rps` over `window` = (warmup, measure). Three arms, in order:
/// static off, static on, and the adaptive policy under test — ε-greedy
/// dynamic toggling behind a [`batchpolicy::CircuitBreaker`] with the
/// default trip/backoff profile, with estimator confidence driven by
/// [`CHAOS_STALENESS_BOUND`]. The oracle is the better static arm.
pub fn chaos_arms(
    class: ChaosClass,
    intensity: f64,
    num_clients: usize,
    rate_rps: f64,
    window: (Nanos, Nanos),
    seed: u64,
) -> [RunConfig; 3] {
    let fault = class.fault_at(intensity);
    let off = faulted_off(fault, num_clients, rate_rps, window, seed);
    let on = RunConfig {
        nagle: NagleSetting::On,
        ..off
    };
    let adaptive = RunConfig {
        nagle: NagleSetting::dynamic(Objective::MinLatency),
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        breaker: Some(BreakerConfig::default()),
        ..off
    };
    [off, on, adaptive]
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
pub(crate) const KNOBS_DELACK_TIMEOUT: Nanos = Nanos::from_micros(500);

/// The label of static corner `corner` of [`knobs_arms`], whose bits are
/// (Nagle, delayed ACKs, two-MSS cork limit) from the top: corner 5 is
/// `"+nagle-delack+cork"`.
pub fn knob_corner_label(corner: usize) -> String {
    let sign = |bit: usize| if corner & bit != 0 { '+' } else { '-' };
    format!("{}nagle{}delack{}cork", sign(4), sign(2), sign(1))
}

/// The knob cell at client per-response cost `client_cost` (Figure 1's
/// `c`) and `num_clients`, driven at aggregate `rate_rps` over `window` =
/// (warmup, measure). Ten arms, in order: the eight static corners of
/// (Nagle × delayed-ACK × cork limit) in binary order (see
/// [`knob_corner_label`]), the Nagle-only adaptive plane (the paper's
/// single-knob policy), and the joint plane driving all three knobs. The
/// oracle is the best static corner.
///
/// Every arm shares the same delayed-ACK timeout
/// (`KNOBS_DELACK_TIMEOUT`), so the corners and the adaptive planes pay
/// the same stall when delayed ACKs interact with Nagle.
pub fn knobs_arms(
    client_cost: Nanos,
    num_clients: usize,
    rate_rps: f64,
    (warmup, measure): (Nanos, Nanos),
    seed: u64,
) -> [RunConfig; 10] {
    let mut profile = CostProfile::calibrated();
    profile.app.client_response_base = client_cost;
    let base = RunConfig {
        profile,
        warmup,
        measure,
        seed,
        num_clients,
        overrides: Overrides {
            delack_timeout: Some(KNOBS_DELACK_TIMEOUT),
            ..Overrides::default()
        },
        ..RunConfig::new(WorkloadSpec::fig4a(rate_rps), NagleSetting::Off)
    };
    let nagle = |arm: usize| match arm {
        8 => NagleSetting::dynamic(Objective::MinLatency),
        9 => NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        },
        corner => NagleSetting::Corner {
            nagle: corner & 4 != 0,
            delayed_ack: corner & 2 != 0,
            cork: corner & 1 != 0,
        },
    };
    std::array::from_fn(|arm| RunConfig {
        nagle: nagle(arm),
        ..base
    })
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

/// The adversary cell at (`class`, `intensity`, `num_clients`), driven at
/// `rate_rps` over `window` = (warmup, measure). Four arms, in order:
/// static off, static on, the guarded adaptive policy under test (dynamic
/// Nagle + staleness bound + [`adversary_breaker`] + peer-state
/// validation), and the exposed ablation — the same policy with
/// validation off, so garbled or restart-spanning windows reach the
/// estimator unchecked. The oracle is the better static arm.
///
/// The guarded and exposed arms share every knob and differ only in
/// `validate`, so any latency gap between them is attributable to
/// peer-state validation. The validator rides along in the static arms
/// too: it cannot change their latency (no policy consumes the
/// estimates), but its counters prove the faults reached the metadata
/// path.
pub fn adversary_arms(
    class: AdversaryClass,
    intensity: f64,
    num_clients: usize,
    rate_rps: f64,
    window: (Nanos, Nanos),
    seed: u64,
) -> [RunConfig; 4] {
    let fault = class.fault_at(intensity);
    let off = RunConfig {
        validate: Some(ValidateConfig),
        ..faulted_off(fault, num_clients, rate_rps, window, seed)
    };
    let on = RunConfig {
        nagle: NagleSetting::On,
        ..off
    };
    let guarded = RunConfig {
        nagle: NagleSetting::dynamic(Objective::MinLatency),
        staleness_bound: Some(CHAOS_STALENESS_BOUND),
        breaker: Some(adversary_breaker()),
        ..off
    };
    let exposed = RunConfig {
        validate: None,
        ..guarded
    };
    [off, on, guarded, exposed]
}

/// Degradation bound for every shard-grid cell, against the best static
/// corner. Looser than the knob-grid bound because at unsaturated rates
/// the per-shard planes pay exploration excursions on upstreams where
/// both corners are already cheap; the headline claim (strictly beating
/// the best corner) is asserted separately on the saturated cell.
pub const SHARD_BOUND: Bound = Bound {
    factor: 1.5,
    slack: Nanos::from_micros(60),
};

/// The sharded-proxy cell at aggregate `rate_rps`: `num_clients` clients
/// → proxy → `num_shards` shards, with `hot_fraction` of the traffic on
/// one hot shard, over `window` = (warmup, measure). Three arms, in
/// order: every upstream pinned `TCP_NODELAY`, every upstream pinned
/// Nagle-on, and per-shard adaptive planes at the proxy. The skew makes
/// any *global* pin wrong for someone — the hot upstream wants request
/// batching, the cold ones want immediacy — so the oracle is the better
/// global pin, which the per-shard planes should beat.
pub fn shard_arms(
    rate_rps: f64,
    num_clients: usize,
    num_shards: usize,
    hot_fraction: f64,
    (warmup, measure): (Nanos, Nanos),
    seed: u64,
) -> [TierRunConfig; 3] {
    let off = TierRunConfig {
        num_clients,
        num_shards,
        hot_fraction,
        warmup,
        measure,
        seed,
        ..TierRunConfig::shard(
            WorkloadSpec::shard(rate_rps),
            ShardSetting::Corner { nagle: false },
        )
    };
    let on = TierRunConfig {
        upstream: ShardSetting::Corner { nagle: true },
        ..off
    };
    let adaptive = TierRunConfig {
        upstream: ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        },
        ..off
    };
    [off, on, adaptive]
}

/// Degradation bound for the full defense stack in every failover cell,
/// against the never-failed oracle. The slack absorbs the deadline-scan
/// granularity (a hedge can fire at most one proxy tick late).
pub const FAILOVER_BOUND: Bound = Bound {
    factor: 3.0,
    slack: Nanos::from_micros(300),
};

/// The failover cell for `scenario` on the two-tier topology
/// (`num_clients` → proxy → `num_shards`, `hot_fraction` on the hot
/// shard) at aggregate `rate_rps` over `window` = (warmup, measure). Five
/// arms, in order: the oracle (the full stack with the fault plan
/// disabled), then every [`FailoverArm`] under the fault, in
/// [`FailoverArm::ALL`] order — naive, deadlines only, +retries, and the
/// full retry/hedge/breaker stack with ring-successor failover routing.
pub fn failover_arms(
    scenario: FailoverScenario,
    rate_rps: f64,
    num_clients: usize,
    num_shards: usize,
    hot_fraction: f64,
    (warmup, measure): (Nanos, Nanos),
    seed: u64,
) -> [TierRunConfig; 5] {
    let base = TierRunConfig {
        num_clients,
        num_shards,
        hot_fraction,
        warmup,
        measure,
        seed,
        ..TierRunConfig::new(
            WorkloadSpec::shard(rate_rps),
            FailoverArm::Full,
            Some(scenario),
        )
    };
    let [naive, timeout_only, retry, full] =
        FailoverArm::ALL.map(|arm| TierRunConfig { arm, ..base });
    let oracle = TierRunConfig {
        scenario: None,
        ..base
    };
    [oracle, naive, timeout_only, retry, full]
}
