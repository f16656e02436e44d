//! The multi-knob control plane: one decision layer driving every
//! batching mechanism.
//!
//! The paper tunes a single knob (dynamic Nagle). But the end-to-end
//! estimate decomposes into per-queue components (`e2e_core::route`),
//! and each component is caused by a different batching mechanism — so
//! one estimate can drive *all* of them: Nagle, the delayed-ACK mode,
//! and the send-side cork limit. A [`ControlPlane`] holds one controller
//! per knob — an [`EpsilonGreedy`] for Nagle, a [`DelAckToggler`] for the
//! ACK mode, an [`AimdBatchLimit`] for the cork limit — routes each its
//! own component view, and coordinates exploration so that **at most one
//! knob perturbs the system per window** — otherwise two knobs exploring
//! at once would poison each other's credit assignment (knob A flips,
//! latency moves, knob B's bandit learns from a change it didn't cause).
//!
//! The plane itself implements [`BatchToggler`] (its headline decision
//! is the Nagle arm), so the existing composition stack —
//! `TickController<CircuitBreaker<ControlPlane>>` — wraps it unchanged:
//! decision cadence and confidence-collapse degradation apply to the
//! whole plane at once. Configured with only the Nagle controller, the
//! plane reproduces the single-knob ε-greedy policy decision-for-
//! decision (same RNG stream, same scores), so every Nagle-only result
//! in the repo is a special case of the plane, not a parallel code path.

use e2e_core::{Estimate, Knob};
use littles::Nanos;
use tcpsim::{AckMode, KnobSetting};

use crate::aimd::AimdBatchLimit;
use crate::toggler::{BatchToggler, EpsilonGreedy};

/// The delayed-ACK knob as a two-armed bandit: arm "on" delays ACKs
/// (batching them, up to `timeout`), arm "off" quick-acks every
/// segment. Scored on the `L_ackdelay^remote` component — the exact
/// share of end-to-end latency the far side's deliberate ACK delay
/// contributes.
#[derive(Debug, Clone)]
pub struct DelAckToggler {
    greedy: EpsilonGreedy,
    timeout: Nanos,
}

impl DelAckToggler {
    /// Wraps an ε-greedy bandit; `timeout` is the delayed-mode ACK
    /// timeout its "on" arm re-arms with.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn new(greedy: EpsilonGreedy, timeout: Nanos) -> Self {
        assert!(!timeout.is_zero(), "delack timeout must be positive");
        DelAckToggler { greedy, timeout }
    }

    /// The delayed-mode timeout.
    pub fn timeout(&self) -> Nanos {
        self.timeout
    }

    /// Feeds the `L_ackdelay^remote` view of the latest estimate; returns
    /// the ACK mode to hold until the next decision. `may_explore` is true
    /// only on this knob's exploration turn.
    pub fn decide(&mut self, view: &Estimate, may_explore: bool) -> KnobSetting {
        let on = self.greedy.decide_gated(view, may_explore);
        KnobSetting::DelAck(self.mode(on))
    }

    /// The current ACK mode without feeding new data.
    pub fn setting(&self) -> KnobSetting {
        KnobSetting::DelAck(self.mode(self.greedy.current()))
    }

    /// Times the emitted mode changed.
    pub fn switches(&self) -> u64 {
        self.greedy.switches()
    }

    /// Deliberate exploratory flips taken.
    pub fn explorations(&self) -> u64 {
        self.greedy.explorations()
    }

    fn mode(&self, on: bool) -> AckMode {
        if on {
            AckMode::Delayed {
                timeout: self.timeout,
            }
        } else {
            AckMode::Quick
        }
    }
}

/// The composed multi-knob control plane.
///
/// Holds one controller per knob (delayed-ACK and cork optional — a
/// Nagle-only plane is the paper's single-knob policy), routes each its
/// component view, and rotates a single exploration turn round-robin
/// across the adaptive knobs every `exploration_window` decisions. Each
/// controller is told whether the turn is its own: outside it the
/// controller must not perturb the system to learn, though it may still
/// retreat to safety. The cork knob's additive probes count as its
/// explorations; its multiplicative decrease always fires.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    nagle: EpsilonGreedy,
    delack: Option<DelAckToggler>,
    cork: Option<AimdBatchLimit>,
    exploration_window: u32,
    decisions: u64,
}

impl ControlPlane {
    /// Creates a plane; more knobs are attached with
    /// [`with_delack`](ControlPlane::with_delack) /
    /// [`with_cork`](ControlPlane::with_cork). `exploration_window` is
    /// the number of consecutive decisions one knob keeps the
    /// exploration turn before it rotates — long enough for a perturbed
    /// knob's effect to show up in the estimate before the next knob
    /// moves.
    ///
    /// # Panics
    ///
    /// Panics if `exploration_window` is zero.
    pub fn new(nagle: EpsilonGreedy, exploration_window: u32) -> Self {
        assert!(exploration_window >= 1, "exploration window must be positive");
        ControlPlane {
            nagle,
            delack: None,
            cork: None,
            exploration_window,
            decisions: 0,
        }
    }

    /// Attaches the delayed-ACK controller.
    pub fn with_delack(mut self, delack: DelAckToggler) -> Self {
        self.delack = Some(delack);
        self
    }

    /// Attaches the cork-limit controller.
    pub fn with_cork(mut self, cork: AimdBatchLimit) -> Self {
        self.cork = Some(cork);
        self
    }

    /// Number of knobs under control.
    pub fn knobs(&self) -> usize {
        1 + usize::from(self.delack.is_some()) + usize::from(self.cork.is_some())
    }

    /// Which knob index holds the exploration turn for the upcoming
    /// decision (0 = Nagle, then delack, then cork, skipping absent
    /// knobs).
    fn turn(&self) -> usize {
        (self.decisions / u64::from(self.exploration_window)) as usize % self.knobs()
    }

    /// The current setting of every controlled knob, in canonical order.
    /// This is what a driver actuates after each decision.
    pub fn settings(&self) -> Vec<KnobSetting> {
        let mut v = vec![KnobSetting::Nagle(self.nagle.current())];
        if let Some(d) = &self.delack {
            v.push(d.setting());
        }
        if let Some(c) = &self.cork {
            v.push(KnobSetting::CorkLimit(c.limit()));
        }
        v
    }

    /// The safe static corner for every controlled knob: Nagle pinned to
    /// `safe_on`, delayed ACKs back to the stack default (delayed), the
    /// cork limit off. A driver actuates this while a surrounding
    /// circuit breaker is not closed.
    pub fn safe_settings(&self, safe_on: bool) -> Vec<KnobSetting> {
        let mut v = vec![KnobSetting::Nagle(safe_on)];
        if let Some(d) = &self.delack {
            v.push(KnobSetting::DelAck(AckMode::Delayed {
                timeout: d.timeout(),
            }));
        }
        if self.cork.is_some() {
            v.push(KnobSetting::CorkLimit(0));
        }
        v
    }

    /// Arm switches of the Nagle controller.
    pub fn nagle_switches(&self) -> u64 {
        self.nagle.switches()
    }

    /// Exploratory flips of the Nagle controller.
    pub fn nagle_explorations(&self) -> u64 {
        self.nagle.explorations()
    }

    /// Mode switches of the delayed-ACK controller (0 when absent).
    pub fn delack_switches(&self) -> u64 {
        self.delack.as_ref().map_or(0, |d| d.switches())
    }

    /// Exploratory flips of the delayed-ACK controller (0 when absent).
    pub fn delack_explorations(&self) -> u64 {
        self.delack.as_ref().map_or(0, |d| d.explorations())
    }

    /// Limit moves of the cork controller (0 when absent).
    pub fn cork_switches(&self) -> u64 {
        self.cork
            .as_ref()
            .map_or(0, |c| c.increases() + c.decreases())
    }

    /// Additive probes of the cork controller (0 when absent).
    pub fn cork_explorations(&self) -> u64 {
        self.cork.as_ref().map_or(0, AimdBatchLimit::increases)
    }

    /// The cork controller's current limit, if one is attached.
    pub fn cork_limit(&self) -> Option<u64> {
        self.cork.as_ref().map(|c| c.limit())
    }
}

impl BatchToggler for ControlPlane {
    fn decide(&mut self, estimate: &Estimate) -> bool {
        let turn = self.turn();
        self.decisions += 1;
        let on = self
            .nagle
            .decide_gated(&estimate.knob_view(Knob::Nagle), turn == 0);
        let mut idx = 1;
        if let Some(d) = self.delack.as_mut() {
            let _ = d.decide(&estimate.knob_view(Knob::DelAck), turn == idx);
            idx += 1;
        }
        if let Some(c) = self.cork.as_mut() {
            let _ = c.update_gated(&estimate.knob_view(Knob::Cork), turn == idx);
        }
        on
    }

    fn current(&self) -> bool {
        self.nagle.current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use e2e_core::DelaySet;

    fn greedy(seed: u64) -> EpsilonGreedy {
        EpsilonGreedy::new(Objective::MinLatency, 0.1, 2, 0.5, seed)
    }

    fn est_with(latency_us: u64, ackdelay_us: u64, cork_us: u64) -> Estimate {
        Estimate {
            at: Nanos::ZERO,
            latency: Nanos::from_micros(latency_us),
            smoothed_latency: Nanos::from_micros(latency_us),
            throughput: 1_000.0,
            local_view: Nanos::from_micros(latency_us),
            remote_view: Nanos::from_micros(latency_us),
            confidence: 1.0,
            remote_stale: false,
            components: DelaySet {
                unacked_near: Nanos::from_micros(cork_us),
                ackdelay_far: Nanos::from_micros(ackdelay_us),
                unread_near: Nanos::ZERO,
                unread_far: Nanos::ZERO,
            },
        }
    }

    fn full_plane(seed: u64, window: u32) -> ControlPlane {
        ControlPlane::new(greedy(seed), window)
            .with_delack(DelAckToggler::new(greedy(seed ^ 1), Nanos::from_micros(500)))
            .with_cork(AimdBatchLimit::new(
                Objective::MinLatency,
                1_448,
                1_448,
                65_536,
                1_448,
            ))
    }

    #[test]
    fn nagle_only_plane_matches_plain_epsilon_greedy() {
        let mut plain = greedy(7);
        let mut plane = ControlPlane::new(greedy(7), 1);
        for i in 0..2_000u64 {
            let p_lat = if plain.current() { 100 } else { 500 };
            let q_lat = if plane.current() { 100 } else { 500 };
            let p = BatchToggler::decide(&mut plain, &est_with(p_lat + i % 3, 10, 20));
            let q = BatchToggler::decide(&mut plane, &est_with(q_lat + i % 3, 10, 20));
            assert_eq!(p, q, "decision {i} diverged");
        }
        assert_eq!(plain.switches(), plane.nagle_switches());
        assert_eq!(plain.explorations(), plane.nagle_explorations());
        assert_eq!(plane.settings(), vec![KnobSetting::Nagle(plain.current())]);
    }

    #[test]
    fn exploration_turn_rotates_one_knob_at_a_time() {
        // ε = 1 bandits flip on every granted turn; the AIMD controller
        // probes on every granted turn. With a window of 4 and dwell 1,
        // each knob's exploration counter must only advance during its
        // own windows.
        let nagle = EpsilonGreedy::new(Objective::MinLatency, 1.0, 1, 0.5, 3);
        let delack = DelAckToggler::new(
            EpsilonGreedy::new(Objective::MinLatency, 1.0, 1, 0.5, 4),
            Nanos::from_micros(500),
        );
        let cork = AimdBatchLimit::new(Objective::MinLatency, 1_448, 1_448, 65_536, 1_448);
        let mut plane = ControlPlane::new(nagle, 4).with_delack(delack).with_cork(cork);
        assert_eq!(plane.knobs(), 3);

        let mut per_window = Vec::new();
        for w in 0..6 {
            let before = (
                plane.nagle_explorations(),
                plane.delack_explorations(),
                plane.cork_explorations(),
            );
            for _ in 0..4 {
                // Constant estimate: no regressions, so the cork knob
                // only moves via its (gated) additive probe.
                plane.decide(&est_with(100, 10, 20));
            }
            let after = (
                plane.nagle_explorations(),
                plane.delack_explorations(),
                plane.cork_explorations(),
            );
            let advanced = [
                after.0 > before.0,
                after.1 > before.1,
                after.2 > before.2,
            ];
            assert_eq!(
                advanced.iter().filter(|&&a| a).count(),
                1,
                "window {w}: exactly one knob may explore, got {advanced:?}"
            );
            per_window.push(advanced.iter().position(|&a| a).unwrap());
        }
        assert_eq!(per_window, vec![0, 1, 2, 0, 1, 2], "round-robin order");
    }

    #[test]
    fn settings_and_safe_settings_cover_every_knob() {
        let mut plane = full_plane(9, 4);
        plane.decide(&est_with(100, 10, 20));
        let settings = plane.settings();
        assert_eq!(settings.len(), 3);
        assert_eq!(settings[0].knob_name(), "nagle");
        assert_eq!(settings[1].knob_name(), "delack");
        assert_eq!(settings[2].knob_name(), "cork");

        let safe = plane.safe_settings(false);
        assert_eq!(safe[0], KnobSetting::Nagle(false));
        assert_eq!(
            safe[1],
            KnobSetting::DelAck(AckMode::Delayed {
                timeout: Nanos::from_micros(500)
            })
        );
        assert_eq!(safe[2], KnobSetting::CorkLimit(0));
    }

    #[test]
    fn aggregate_and_estimate_paths_agree_for_nagle_only() {
        use e2e_core::MultiConnectionAggregator;
        let mut by_est = ControlPlane::new(greedy(5), 1);
        let mut by_agg = ControlPlane::new(greedy(5), 1);
        for i in 0..1_000u64 {
            let e_lat = if by_est.current() { 100 } else { 500 };
            let a_lat = if by_agg.current() { 100 } else { 500 };
            let e = est_with(e_lat + i % 5, 10, 20);
            let mut a = MultiConnectionAggregator::new();
            for _ in 0..8 {
                a.add(est_with(a_lat + i % 5, 10, 20));
            }
            let d_e = by_est.decide(&e);
            let d_a = by_agg.decide(&a.aggregate().expect("eight contributions"));
            assert_eq!(d_e, d_a, "decision {i}");
        }
    }

    #[test]
    fn delack_controller_maps_arms_to_modes() {
        let mut d = DelAckToggler::new(
            EpsilonGreedy::new(Objective::MinLatency, 0.0, 1, 1.0, 2),
            Nanos::from_micros(500),
        );
        assert_eq!(d.setting(), KnobSetting::DelAck(AckMode::Quick));
        // Score the off arm badly: the unsampled on arm gets forced.
        let s = d.decide(&est_with(900, 900, 0).knob_view(Knob::DelAck), true);
        assert_eq!(
            s,
            KnobSetting::DelAck(AckMode::Delayed {
                timeout: Nanos::from_micros(500)
            })
        );
    }

    #[test]
    #[should_panic(expected = "exploration window must be positive")]
    fn zero_window_rejected() {
        let _ = ControlPlane::new(greedy(1), 0);
    }
}
