//! Deterministic fault injection over topology links.
//!
//! The figure experiments run lossless, as the paper's testbed did; this
//! module adds the impaired regimes the estimator must survive (cf.
//! "Waiting at the front door" and Dapper: diagnosis tools earn their keep
//! exactly when the network is misbehaving). A [`FaultPlan`] sits above the
//! links of a [`Topology`](crate::Topology) and decides, per
//! transmitted packet, whether to drop, duplicate, or delay it:
//!
//! * **Bursty loss** — a per-directed-link Gilbert–Elliott two-state chain
//!   ([`GilbertElliott`]): rare drops in the good state, clustered drops in
//!   the bad state.
//! * **Bounded reordering** — a packet is held back by a uniform extra
//!   delay up to a bound, letting later packets overtake it.
//! * **Duplication** — the packet arrives twice (second copy 1 µs later).
//! * **Delay jitter** — every packet gets a uniform extra delay.
//! * **Blackouts / flaps** — scheduled windows ([`WindowSchedule`]) during
//!   which every packet is dropped; purely time-driven, no randomness.
//! * **Server CPU stalls** — GC-pause-like windows during which the server
//!   application thread cannot run (wired up via
//!   [`CpuContext::set_stall_schedule`](crate::CpuContext::set_stall_schedule)).
//! * **Exchange corruption** — bit flips confined to the metadata-exchange
//!   option ([`CorruptConfig`]); data payload survives, only the shared
//!   counters lie.
//! * **Endpoint restarts** — scheduled client crashes
//!   ([`RestartSchedule`]): socket and counter state reset, the connection
//!   reconnects after a backoff, and the estimator must resynchronize via
//!   the exchange's epoch tag.
//! * **Shard faults** — tier-aware chaos for the two-tier topology
//!   ([`ShardFaultPlan`]): scheduled crash/restarts of one named shard
//!   (both ends of every proxy↔shard connection lose their socket state)
//!   and slow-shard CPU brownouts, both schedule-driven and RNG-free.
//!
//! Every random fault class draws from its own *named* PCG stream
//! ([`Pcg32::stream`]), so enabling one class never shifts another class's
//! draws, and a fully disabled [`FaultConfig`] (the default) consumes zero
//! draws — lossless runs stay bit-identical to the golden digest.

use crate::rng::{Pcg32, Stream};
use crate::topology::LinkId;
use littles::Nanos;

/// Gilbert–Elliott two-state bursty-loss parameters.
///
/// The chain advances one step per packet: in the *good* state packets are
/// lost with probability `loss_good` (often 0), in the *bad* state with
/// `loss_bad` (often near 1). The transition probabilities set burst length
/// (mean bad-state dwell = 1 / `p_bad_to_good` packets).
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad (bursty) state.
    pub p_good_to_bad: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A conventional parameterization: mean burst length `burst` packets,
    /// stationary loss rate `rate`, lossless good state.
    pub fn bursty(rate: f64, burst: f64) -> Self {
        let p_bad_to_good = 1.0 / burst.max(1.0);
        // Stationary bad-state occupancy π_B = rate (loss_bad = 1):
        // π_B = p_g2b / (p_g2b + p_b2g)  ⇒  p_g2b = rate·p_b2g/(1−rate).
        let p_good_to_bad = (rate * p_bad_to_good) / (1.0 - rate).max(1e-9);
        GilbertElliott {
            p_good_to_bad: p_good_to_bad.min(1.0),
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }
}

/// Bounded reordering: with `probability`, a packet is delayed by an extra
/// uniform amount in `[1 ns, max_extra]`, letting packets sent after it
/// arrive first. The bound keeps reordering within what the receive buffer
/// can reasonably hold.
#[derive(Debug, Clone, Copy)]
pub struct ReorderConfig {
    /// Per-packet probability of being held back.
    pub probability: f64,
    /// Maximum extra delay for a held-back packet.
    pub max_extra: Nanos,
}

/// Packet duplication: with `probability`, the far end receives a second
/// copy of the packet 1 µs after the first.
#[derive(Debug, Clone, Copy)]
pub struct DuplicateConfig {
    /// Per-packet probability of duplication.
    pub probability: f64,
}

/// Delay jitter: every packet receives an extra uniform delay in
/// `[0, max]`. Unlike [`ReorderConfig`] this applies to all packets, so it
/// perturbs RTT samples more than ordering.
#[derive(Debug, Clone, Copy)]
pub struct JitterConfig {
    /// Maximum extra per-packet delay.
    pub max: Nanos,
}

/// Exchange-payload corruption: with `probability`, a transmitted metadata
/// exchange (the 36-byte queue-state option and its epoch tag) has one
/// field garbled by a single bit flip. Data payload is untouched — this
/// models counter corruption that slips past checksums, a buggy peer
/// stack, or an adversarial peer feeding the estimator garbage.
#[derive(Debug, Clone, Copy)]
pub struct CorruptConfig {
    /// Per-exchange-carrying-packet probability of garbling.
    pub probability: f64,
}

/// Scheduled endpoint restarts: at `first_at`, and then every `period`
/// (0 = once), one client endpoint "crashes" — its socket and queue-state
/// counters reset to zero and the connection is re-established after a
/// backoff. Which client restarts is drawn from the `fault.restart`
/// stream. Purely schedule-driven timing; no randomness is consumed until
/// a restart actually fires.
#[derive(Debug, Clone, Copy)]
pub struct RestartSchedule {
    /// Time of the first restart.
    pub first_at: Nanos,
    /// Distance between restarts (0 = a single restart).
    pub period: Nanos,
}

/// Which part of an exchange to garble. `field` indexes the nine counters
/// in wire order — queue `field / 3` (unacked, unread, ackdelay), counter
/// `field % 3` (time, total, integral) — with `9` naming the epoch tag.
/// `bit` is the bit to flip (taken modulo the field's width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptTarget {
    /// Field index, `0..=9`.
    pub field: u8,
    /// Bit to flip within the field.
    pub bit: u8,
}

/// A slow-shard CPU brownout: the chosen shard's application thread
/// stalls inside the windows (a degraded replica — thermal throttling,
/// a noisy neighbor, a compaction storm). Schedule-driven and RNG-free,
/// like [`FaultConfig::server_stall`], but aimed at one shard of the
/// two-tier topology instead of the host the stall knob points at.
#[derive(Debug, Clone, Copy)]
pub struct ShardBrownout {
    /// Which shard (tier-local index `0..k`) browns out.
    pub shard: usize,
    /// When its app thread cannot run.
    pub windows: WindowSchedule,
}

/// Scheduled crashes of one shard: its socket state is lost on both ends
/// of every proxy↔shard connection, and the proxy is woken with `Reset`
/// and must re-establish the connection.
#[derive(Debug, Clone, Copy)]
pub struct ShardCrash {
    /// Which shard (tier-local index `0..k`, checked in range when the
    /// plan is installed) crashes, every time.
    pub shard: usize,
    /// When it crashes.
    pub schedule: RestartSchedule,
}

/// Tier-aware shard faults for the two-tier topology: a scheduled crash of
/// one named shard and slow-shard CPU brownouts. Both name their shard and
/// are purely schedule-driven, so neither draws from any RNG stream, and
/// shard chaos composes with client-endpoint restart chaos without
/// shifting the `fault.restart` stream. The default (everything `None`)
/// leaves runs bit-identical to the shard goldens recorded before this
/// plan existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardFaultPlan {
    /// Scheduled crashes of one shard.
    pub crash: Option<ShardCrash>,
    /// Slow-shard CPU brownout windows.
    pub brownout: Option<ShardBrownout>,
}

impl ShardFaultPlan {
    /// True if any shard fault class is configured.
    pub(crate) fn is_enabled(&self) -> bool {
        self.crash.is_some() || self.brownout.is_some()
    }
}

/// A periodic schedule of windows `[first_at + k·period,
/// first_at + k·period + duration)` for `k = 0, 1, …`.
///
/// With `period == 0` the schedule degenerates to the single window
/// starting at `first_at`. Purely time-driven — checking a schedule never
/// consumes randomness, so scheduled faults are exempt from the named-
/// stream accounting.
#[derive(Debug, Clone, Copy)]
pub struct WindowSchedule {
    /// Start of the first window.
    pub first_at: Nanos,
    /// Distance between window starts (0 = one window only).
    pub period: Nanos,
    /// Length of each window.
    pub duration: Nanos,
}

impl WindowSchedule {
    /// True if `now` falls inside one of the windows.
    pub(crate) fn contains(&self, now: Nanos) -> bool {
        self.window_end(now).is_some()
    }

    /// If `now` falls inside a window, the end of that window.
    pub(crate) fn window_end(&self, now: Nanos) -> Option<Nanos> {
        if now < self.first_at {
            return None;
        }
        let since = now.as_nanos() - self.first_at.as_nanos();
        let offset = if self.period.is_zero() {
            since
        } else {
            since % self.period.as_nanos()
        };
        if offset < self.duration.as_nanos() {
            Some(Nanos::from_nanos(now.as_nanos() - offset) + self.duration)
        } else {
            None
        }
    }

    /// Total window time overlapping `[0, until)` — e.g. how long a
    /// blackout schedule actually darkened a run of that length.
    pub(crate) fn total_time_until(&self, until: Nanos) -> Nanos {
        if until <= self.first_at {
            return Nanos::ZERO;
        }
        let span = until.as_nanos() - self.first_at.as_nanos();
        if self.period.is_zero() {
            return Nanos::from_nanos(span.min(self.duration.as_nanos()));
        }
        let period = self.period.as_nanos();
        let dur = self.duration.as_nanos().min(period);
        let full = span / period;
        let partial = (span % period).min(dur);
        Nanos::from_nanos(full * dur + partial)
    }
}

/// Which fault classes are active, and how. The default is everything
/// disabled, which is guaranteed to consume zero RNG draws and leave the
/// simulation bit-identical to a run without any fault plan at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Gilbert–Elliott bursty loss.
    pub loss: Option<GilbertElliott>,
    /// Bounded reordering.
    pub reorder: Option<ReorderConfig>,
    /// Packet duplication.
    pub duplicate: Option<DuplicateConfig>,
    /// Per-packet delay jitter.
    pub jitter: Option<JitterConfig>,
    /// Scheduled link blackouts (all links go dark simultaneously — a
    /// switch flap as seen from the endpoints).
    pub blackout: Option<WindowSchedule>,
    /// Scheduled server application-thread stalls (GC-pause-like).
    pub server_stall: Option<WindowSchedule>,
    /// Metadata-exchange corruption (bit flips in the shared counters; data
    /// segments are otherwise untouched).
    pub corrupt: Option<CorruptConfig>,
    /// Scheduled client-endpoint restarts (crash + reconnect).
    pub restart: Option<RestartSchedule>,
    /// Tier-aware shard faults (crash/restart, brownout). Only meaningful
    /// on the two-tier topology; star sims ignore it.
    pub shard: ShardFaultPlan,
    /// Faults are inert before this time: no packets are touched and no
    /// RNG draws are consumed, so the handshake and early steady state
    /// are identical to a fault-free run. Window schedules
    /// ([`WindowSchedule::first_at`]) are not shifted by this and should
    /// be placed at or after it.
    pub start_at: Nanos,
}

impl FaultConfig {
    /// True if any fault class is configured.
    pub fn is_enabled(&self) -> bool {
        self.loss.is_some()
            || self.reorder.is_some()
            || self.duplicate.is_some()
            || self.jitter.is_some()
            || self.blackout.is_some()
            || self.server_stall.is_some()
            || self.corrupt.is_some()
            || self.restart.is_some()
            || self.shard.is_enabled()
    }
}

/// Per-directed-link tallies of injected faults, for auditing runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Packets dropped by the loss chain.
    pub drops: u64,
    /// Packets delivered twice.
    pub duplicates: u64,
    /// Packets held back past later ones.
    pub reorders: u64,
    /// Packets dropped because a blackout window was open.
    pub blackout_drops: u64,
    /// Metadata exchanges garbled in flight.
    pub corruptions: u64,
}

impl FaultCounters {
    /// Element-wise sum, for folding the two directions of a duplex link.
    pub fn merged(self, other: FaultCounters) -> FaultCounters {
        FaultCounters {
            drops: self.drops + other.drops,
            duplicates: self.duplicates + other.duplicates,
            reorders: self.reorders + other.reorders,
            blackout_drops: self.blackout_drops + other.blackout_drops,
            corruptions: self.corruptions + other.corruptions,
        }
    }

    /// Total packets affected by any fault class.
    pub fn total(&self) -> u64 {
        self.drops + self.duplicates + self.reorders + self.blackout_drops + self.corruptions
    }
}

/// What the fault layer decided for one packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultDecision {
    /// Drop the packet (it still occupied the serialization pipe).
    pub drop: bool,
    /// Deliver a second copy shortly after the first.
    pub duplicate: bool,
    /// Extra delay to add to the arrival time (reorder + jitter).
    pub extra_delay: Nanos,
}

/// The live fault state for one simulation: per-class named RNG streams,
/// per-directed-link Gilbert–Elliott chain state, and audit counters.
///
/// Directed links are indexed `2·link + a_to_b`, the
/// [`Topology::hop_index`](crate::Topology::hop_index) pair; on a star,
/// link numbering is the client index and `a_to_b` means toward the
/// server, so plans replay identically across the general-graph refactor.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    loss_rng: Pcg32,
    reorder_rng: Pcg32,
    dup_rng: Pcg32,
    jitter_rng: Pcg32,
    corrupt_rng: Pcg32,
    restart_rng: Pcg32,
    ge_bad: Vec<bool>,
    counters: Vec<FaultCounters>,
    restarts: u64,
    shard_crashes: u64,
}

impl FaultPlan {
    /// Builds the plan for a topology of `num_links` duplex links.
    pub fn new(config: FaultConfig, seed: u64, num_links: usize) -> Self {
        FaultPlan {
            config,
            loss_rng: Pcg32::stream(seed, Stream::FaultLoss),
            reorder_rng: Pcg32::stream(seed, Stream::FaultReorder),
            dup_rng: Pcg32::stream(seed, Stream::FaultDuplicate),
            jitter_rng: Pcg32::stream(seed, Stream::FaultJitter),
            corrupt_rng: Pcg32::stream(seed, Stream::FaultCorrupt),
            restart_rng: Pcg32::stream(seed, Stream::FaultRestart),
            ge_bad: vec![false; 2 * num_links],
            counters: vec![FaultCounters::default(); 2 * num_links],
            restarts: 0,
            shard_crashes: 0,
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decides the fate of one packet departing at `now` on the given
    /// directed link. Call order per directed link must be transmission
    /// order (which the single-threaded event loop guarantees).
    pub fn on_transmit(&mut self, link: LinkId, a_to_b: bool, now: Nanos) -> FaultDecision {
        let idx = 2 * link.index() + usize::from(a_to_b);
        let mut decision = FaultDecision::default();

        // Before the start time the whole layer is inert — identical to a
        // run with no faults at all, including the RNG stream positions.
        if now < self.config.start_at {
            return decision;
        }

        // Blackouts are schedule-driven and checked first: a dark link
        // drops everything and consumes no randomness.
        if let Some(b) = &self.config.blackout {
            if b.contains(now) {
                self.counters[idx].blackout_drops += 1;
                decision.drop = true;
                return decision;
            }
        }

        if let Some(ge) = &self.config.loss {
            // Advance the chain one step per packet, then sample loss in
            // the (possibly new) state — both from the loss stream.
            let flip = if self.ge_bad[idx] {
                ge.p_bad_to_good
            } else {
                ge.p_good_to_bad
            };
            if self.loss_rng.gen_bool(flip) {
                self.ge_bad[idx] = !self.ge_bad[idx];
            }
            let p = if self.ge_bad[idx] {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if p > 0.0 && self.loss_rng.gen_bool(p) {
                self.counters[idx].drops += 1;
                decision.drop = true;
                return decision;
            }
        }

        if let Some(dup) = &self.config.duplicate {
            if self.dup_rng.gen_bool(dup.probability) {
                self.counters[idx].duplicates += 1;
                decision.duplicate = true;
            }
        }

        if let Some(r) = &self.config.reorder {
            if self.reorder_rng.gen_bool(r.probability) {
                let bound = r.max_extra.as_nanos().max(1);
                let extra = 1 + self.reorder_rng.gen_range(bound);
                decision.extra_delay += Nanos::from_nanos(extra);
                self.counters[idx].reorders += 1;
            }
        }

        if let Some(j) = &self.config.jitter {
            let extra = self.jitter_rng.gen_range(j.max.as_nanos() + 1);
            decision.extra_delay += Nanos::from_nanos(extra);
        }

        decision
    }

    /// Decides whether to garble the metadata exchange a surviving packet
    /// carries. Call only for packets that actually carry the option, in
    /// transmission order; consumes no randomness when corruption is
    /// disabled or before [`FaultConfig::start_at`].
    pub fn corrupt_exchange(
        &mut self,
        link: LinkId,
        a_to_b: bool,
        now: Nanos,
    ) -> Option<CorruptTarget> {
        let cfg = self.config.corrupt?;
        if now < self.config.start_at {
            return None;
        }
        if !self.corrupt_rng.gen_bool(cfg.probability) {
            return None;
        }
        self.counters[2 * link.index() + usize::from(a_to_b)].corruptions += 1;
        Some(CorruptTarget {
            field: self.corrupt_rng.gen_range(10) as u8,
            bit: self.corrupt_rng.gen_range(32) as u8,
        })
    }

    /// Picks which of `num_clients` endpoints restarts for one scheduled
    /// restart event, and counts it. Draws exactly one value from the
    /// `fault.restart` stream per fired restart.
    pub fn pick_restart_target(&mut self, num_clients: usize) -> usize {
        self.restarts += 1;
        self.restart_rng.gen_range(num_clients.max(1) as u64) as usize
    }

    /// Restart events fired so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Counts one fired shard crash and returns the plan's
    /// [`ShardCrash`] (its shard was checked in range at install); `None`
    /// when the plan schedules none. Draws nothing.
    pub fn fire_shard_crash(&mut self) -> Option<ShardCrash> {
        let crash = self.config.shard.crash?;
        self.shard_crashes += 1;
        Some(crash)
    }

    /// Shard crash events fired so far.
    pub fn shard_crashes(&self) -> u64 {
        self.shard_crashes
    }

    /// Audit counters per duplex link (both directions folded together).
    pub fn per_link_counters(&self) -> Vec<FaultCounters> {
        self.counters
            .chunks(2)
            .map(|pair| pair[0].merged(pair[1]))
            .collect()
    }

    /// Total blackout time overlapping a run of length `until`.
    pub fn blackout_time_until(&self, until: Nanos) -> Nanos {
        self.config
            .blackout
            .map(|b| b.total_time_until(until))
            .unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each random fault class owns its registered stream from
    /// construction on: none is an ad-hoc `Pcg32::new`, and no two share.
    #[test]
    fn every_fault_class_draws_from_its_own_stream() {
        let plan = FaultPlan::new(FaultConfig::default(), 0x5EED, 2);
        let pins = [
            (&plan.loss_rng, Stream::FaultLoss),
            (&plan.reorder_rng, Stream::FaultReorder),
            (&plan.dup_rng, Stream::FaultDuplicate),
            (&plan.jitter_rng, Stream::FaultJitter),
            (&plan.corrupt_rng, Stream::FaultCorrupt),
            (&plan.restart_rng, Stream::FaultRestart),
        ];
        for (rng, stream) in pins {
            assert_eq!(*rng, Pcg32::stream(0x5EED, stream), "{stream:?}");
        }
    }

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    #[test]
    fn disabled_config_never_touches_rng_or_packets() {
        let mut plan = FaultPlan::new(FaultConfig::default(), 1, 4);
        let pristine = plan.clone();
        for i in 0..1000u64 {
            let d = plan.on_transmit(LinkId::from_index((i % 4) as usize), i % 2 == 0, us(i));
            assert!(!d.drop && !d.duplicate && d.extra_delay.is_zero());
            assert!(plan.corrupt_exchange(LinkId::from_index((i % 4) as usize), i % 2 == 0, us(i)).is_none());
        }
        // No RNG state advanced, no counters moved: bit-identical.
        assert_eq!(plan.loss_rng, pristine.loss_rng);
        assert_eq!(plan.reorder_rng, pristine.reorder_rng);
        assert_eq!(plan.dup_rng, pristine.dup_rng);
        assert_eq!(plan.jitter_rng, pristine.jitter_rng);
        assert_eq!(plan.corrupt_rng, pristine.corrupt_rng);
        assert_eq!(plan.restart_rng, pristine.restart_rng);
        assert!(plan.per_link_counters().iter().all(|c| c.total() == 0));
    }

    #[test]
    fn shard_crash_draws_nothing() {
        let cfg = FaultConfig {
            shard: ShardFaultPlan {
                crash: Some(ShardCrash {
                    shard: 2,
                    schedule: RestartSchedule { first_at: us(100), period: Nanos::ZERO },
                }),
                ..ShardFaultPlan::default()
            },
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 9, 8);
        let pristine = plan.clone();
        for _ in 0..16 {
            assert_eq!(plan.fire_shard_crash().map(|c| c.shard), Some(2));
        }
        assert_eq!(plan.shard_crashes(), 16);
        assert_eq!(plan.restart_rng, pristine.restart_rng);
        // A plan without a crash fires none and counts none.
        let mut none = FaultPlan::new(FaultConfig::default(), 9, 8);
        assert!(none.fire_shard_crash().is_none());
        assert_eq!(none.shard_crashes(), 0);
    }

    #[test]
    fn corruption_is_counted_and_targets_are_in_range() {
        let cfg = FaultConfig {
            corrupt: Some(CorruptConfig { probability: 0.5 }),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 11, 2);
        let mut hits = 0u64;
        for i in 0..4_000u64 {
            if let Some(t) = plan.corrupt_exchange(LinkId::from_index((i % 2) as usize), i % 2 == 0, us(i)) {
                hits += 1;
                assert!(t.field < 10, "field {}", t.field);
                assert!(t.bit < 32, "bit {}", t.bit);
            }
        }
        assert!((1_600..2_400).contains(&hits), "corruptions {hits}");
        let counted: u64 = plan.per_link_counters().iter().map(|c| c.corruptions).sum();
        assert_eq!(counted, hits);
    }

    #[test]
    fn corruption_respects_start_at() {
        let cfg = FaultConfig {
            corrupt: Some(CorruptConfig { probability: 1.0 }),
            start_at: us(500),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 3, 1);
        assert!(plan.corrupt_exchange(LinkId::from_index(0), true, us(499)).is_none());
        assert!(plan.corrupt_exchange(LinkId::from_index(0), true, us(500)).is_some());
    }

    #[test]
    fn restart_targets_are_deterministic_and_in_range() {
        let cfg = FaultConfig {
            restart: Some(RestartSchedule {
                first_at: us(100),
                period: us(1_000),
            }),
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg, 42, 8);
        let mut b = FaultPlan::new(cfg, 42, 8);
        let picks_a: Vec<usize> = (0..64).map(|_| a.pick_restart_target(8)).collect();
        let picks_b: Vec<usize> = (0..64).map(|_| b.pick_restart_target(8)).collect();
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&t| t < 8));
        // Not degenerate: more than one distinct target over 64 draws.
        assert!(picks_a.iter().collect::<std::collections::BTreeSet<_>>().len() > 1);
        assert_eq!(a.restarts(), 64);
    }

    #[test]
    fn gilbert_elliott_losses_cluster_in_bursts() {
        let cfg = FaultConfig {
            loss: Some(GilbertElliott::bursty(0.05, 8.0)),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 7, 1);
        let drops: Vec<bool> = (0..20_000u64)
            .map(|i| plan.on_transmit(LinkId::from_index(0), true, us(i)).drop)
            .collect();
        let total = drops.iter().filter(|&&d| d).count();
        // Stationary rate ≈ 5%.
        assert!((600..1_400).contains(&total), "loss count {total}");
        // Burstiness: a drop is far more likely right after a drop than
        // the stationary rate would suggest.
        let after_drop = drops
            .windows(2)
            .filter(|w| w[0] && w[1])
            .count() as f64
            / total as f64;
        assert!(after_drop > 0.4, "P(drop|drop) = {after_drop:.3}");
        assert_eq!(plan.per_link_counters()[0].drops, total as u64);
    }

    #[test]
    fn reorder_delays_are_bounded() {
        let cfg = FaultConfig {
            reorder: Some(ReorderConfig {
                probability: 0.5,
                max_extra: us(30),
            }),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 9, 1);
        let mut held = 0u64;
        for i in 0..5_000u64 {
            let d = plan.on_transmit(LinkId::from_index(0), false, us(i));
            assert!(d.extra_delay <= us(30));
            if !d.extra_delay.is_zero() {
                held += 1;
                assert!(d.extra_delay >= Nanos::from_nanos(1));
            }
        }
        assert!((2_000..3_000).contains(&held), "held {held}");
        assert_eq!(plan.per_link_counters()[0].reorders, held);
    }

    #[test]
    fn duplication_rate_roughly_matches() {
        let cfg = FaultConfig {
            duplicate: Some(DuplicateConfig { probability: 0.1 }),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 3, 2);
        let dups = (0..10_000u64)
            .filter(|&i| plan.on_transmit(LinkId::from_index(1), true, us(i)).duplicate)
            .count();
        assert!((800..1_200).contains(&dups), "dups {dups}");
    }

    #[test]
    fn blackout_drops_everything_inside_windows_only() {
        let cfg = FaultConfig {
            blackout: Some(WindowSchedule {
                first_at: us(100),
                period: us(1000),
                duration: us(50),
            }),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 5, 1);
        assert!(!plan.on_transmit(LinkId::from_index(0), true, us(99)).drop);
        assert!(plan.on_transmit(LinkId::from_index(0), true, us(100)).drop);
        assert!(plan.on_transmit(LinkId::from_index(0), true, us(149)).drop);
        assert!(!plan.on_transmit(LinkId::from_index(0), true, us(150)).drop);
        assert!(plan.on_transmit(LinkId::from_index(0), true, us(1120)).drop); // next period
        assert_eq!(plan.per_link_counters()[0].blackout_drops, 3);
        // Blackouts are RNG-free.
        assert_eq!(plan.loss_rng, Pcg32::stream(5, Stream::FaultLoss));
    }

    #[test]
    fn window_schedule_accounting() {
        let s = WindowSchedule {
            first_at: us(10),
            period: us(100),
            duration: us(20),
        };
        assert_eq!(s.window_end(us(15)), Some(us(30)));
        assert_eq!(s.window_end(us(35)), None);
        assert_eq!(s.window_end(us(115)), Some(us(130)));
        assert_eq!(s.total_time_until(us(10)), Nanos::ZERO);
        assert_eq!(s.total_time_until(us(25)), us(15));
        assert_eq!(s.total_time_until(us(250)), us(60)); // [10,30) ∪ [110,130) ∪ [210,230)
        let single = WindowSchedule {
            first_at: us(5),
            period: Nanos::ZERO,
            duration: us(7),
        };
        assert!(single.contains(us(11)));
        assert!(!single.contains(us(12)));
        assert_eq!(single.total_time_until(us(1000)), us(7));
    }

    #[test]
    fn classes_draw_from_independent_streams() {
        // Enabling loss must not change what the duplicate stream does.
        let dup_only = FaultConfig {
            duplicate: Some(DuplicateConfig { probability: 0.2 }),
            ..FaultConfig::default()
        };
        let both = FaultConfig {
            loss: Some(GilbertElliott::bursty(0.3, 4.0)),
            ..dup_only
        };
        let mut a = FaultPlan::new(dup_only, 42, 1);
        let mut b = FaultPlan::new(both, 42, 1);
        // Feed both plans the surviving packets only: duplicate decisions
        // for the packets that pass loss must come from the same stream
        // positions as in the loss-free plan.
        let mut dup_a = Vec::new();
        let mut dup_b = Vec::new();
        for i in 0..2_000u64 {
            dup_a.push(a.on_transmit(LinkId::from_index(0), true, us(i)).duplicate);
            let d = b.on_transmit(LinkId::from_index(0), true, us(i));
            if !d.drop {
                dup_b.push(d.duplicate);
            }
        }
        // The survivor subsequence of `b` equals the prefix of `a`.
        assert_eq!(&dup_a[..dup_b.len()], &dup_b[..]);
    }

    #[test]
    fn faults_are_inert_before_start_at() {
        let cfg = FaultConfig {
            loss: Some(GilbertElliott::bursty(0.5, 4.0)),
            duplicate: Some(DuplicateConfig { probability: 0.5 }),
            jitter: Some(JitterConfig { max: us(10) }),
            start_at: us(100),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 11, 1);
        for i in 0..100u64 {
            let d = plan.on_transmit(LinkId::from_index(0), true, us(i));
            assert!(!d.drop && !d.duplicate && d.extra_delay.is_zero());
        }
        // Zero RNG draws consumed and zero faults counted before start.
        assert_eq!(plan.loss_rng, Pcg32::stream(11, Stream::FaultLoss));
        assert_eq!(plan.dup_rng, Pcg32::stream(11, Stream::FaultDuplicate));
        assert_eq!(plan.jitter_rng, Pcg32::stream(11, Stream::FaultJitter));
        assert!(plan.per_link_counters().iter().all(|c| c.total() == 0));
        // From start_at on, the layer is live.
        let touched = (100..2_100u64)
            .filter(|&i| {
                let d = plan.on_transmit(LinkId::from_index(0), true, us(i));
                d.drop || d.duplicate || !d.extra_delay.is_zero()
            })
            .count();
        assert!(touched > 500, "touched {touched}");
    }

    #[test]
    fn bursty_constructor_hits_requested_rate() {
        let ge = GilbertElliott::bursty(0.02, 10.0);
        let pi_bad = ge.p_good_to_bad / (ge.p_good_to_bad + ge.p_bad_to_good);
        assert!((pi_bad - 0.02).abs() < 1e-9);
    }
}
