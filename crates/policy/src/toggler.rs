//! Batching togglers: static baselines and the ε-greedy dynamic policy.
//!
//! Dynamic on/off toggling is a two-armed bandit (paper §5): the effect of
//! the other mode is unknown until tried, so the policy must occasionally
//! explore. [`EpsilonGreedy`] keeps an EWMA of the objective score per arm,
//! dwells on each arm long enough for the estimate to reflect it, and
//! otherwise exploits the better arm — "a light method \[that\] will
//! suffice", as the paper speculates.

use e2e_core::Estimate;
use littles::Ewma;
use simnet::Pcg32;

use crate::objective::Objective;

/// A batching on/off policy consulted at every policy tick.
pub trait BatchToggler {
    /// Feeds the latest estimate; returns whether batching should be
    /// enabled until the next tick. A listener-wide aggregate (paper
    /// §3.2) enters here too: `MultiConnectionAggregator::aggregate`
    /// returns an [`Estimate`].
    fn decide(&mut self, estimate: &Estimate) -> bool;

    /// The current setting without feeding new data.
    fn current(&self) -> bool;
}

/// The static baselines: batching always on, or always off (the Redis
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticToggler {
    on: bool,
}

impl StaticToggler {
    /// Batching permanently enabled.
    #[cfg(test)]
    pub(crate) fn always_on() -> Self {
        StaticToggler { on: true }
    }

    /// Batching permanently disabled.
    pub fn always_off() -> Self {
        StaticToggler { on: false }
    }
}

impl BatchToggler for StaticToggler {
    fn decide(&mut self, _estimate: &Estimate) -> bool {
        self.on
    }

    fn current(&self) -> bool {
        self.on
    }
}

/// ε-greedy two-armed bandit over {batching off, batching on}.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    epsilon: f64,
    objective: Objective,
    rng: Pcg32,
    /// Score EWMA per arm: index 0 = off, 1 = on.
    arms: [Ewma; 2],
    current: bool,
    /// Ticks to dwell on an arm before reconsidering, so the smoothed
    /// estimate actually reflects the arm being scored.
    min_dwell: u32,
    dwell: u32,
    /// Ticks to withhold scoring after a switch: estimation windows lag
    /// the actuation, so the first estimates after a flip still reflect
    /// the *previous* arm and would be credited to the wrong one.
    settle: u32,
    settling: u32,
    switches: u64,
    explorations: u64,
}

impl EpsilonGreedy {
    /// Creates a toggler starting with batching off (the common default).
    ///
    /// `epsilon` is the exploration probability per decision; `min_dwell`
    /// the number of ticks between decisions; `score_alpha` the per-arm
    /// EWMA weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ epsilon ≤ 1` and `min_dwell ≥ 1`.
    pub fn new(
        objective: Objective,
        epsilon: f64,
        min_dwell: u32,
        score_alpha: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon out of range");
        assert!(min_dwell >= 1, "min_dwell must be at least one tick");
        EpsilonGreedy {
            epsilon,
            objective,
            rng: Pcg32::new(seed),
            arms: [Ewma::new(score_alpha), Ewma::new(score_alpha)],
            current: false,
            min_dwell,
            dwell: 0,
            settle: 0,
            settling: 0,
            switches: 0,
            explorations: 0,
        }
    }

    /// Withholds scoring for `ticks` after every arm switch, so estimates
    /// still dominated by the previous arm's traffic are not credited to
    /// the new arm. Zero (the default) scores every tick — on a sparse
    /// connection, where a short exploration visit produces only a few
    /// estimation windows, the carryover otherwise swamps the visit and
    /// the bandit can lock onto the wrong arm.
    pub fn with_settle(mut self, ticks: u32) -> Self {
        self.settle = ticks;
        self
    }

    /// Number of arm switches so far.
    pub(crate) fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of ε-driven exploratory flips so far.
    pub(crate) fn explorations(&self) -> u64 {
        self.explorations
    }

    /// The learned score of an arm (0 = off, 1 = on), if sampled.
    #[cfg(test)]
    fn arm_score(&self, on: bool) -> Option<f64> {
        self.arms[usize::from(on)].value()
    }

    /// Like [`BatchToggler::decide`], but exploration can be withheld:
    /// with `may_explore = false` the ε draw is skipped entirely (the RNG
    /// does not advance) and the unsampled-arm forcing is suppressed, so
    /// the bandit only exploits what it has already learned. A control
    /// plane driving several knobs at once uses this so at most one knob
    /// perturbs the system per window and credit assignment stays clean.
    /// `decide_gated(est, true)` is exactly `decide(est)` — same scoring,
    /// same RNG stream, same dwell accounting.
    pub(crate) fn decide_gated(&mut self, estimate: &Estimate, may_explore: bool) -> bool {
        if self.settling > 0 {
            self.settling -= 1;
        } else {
            let score = self.objective.score(estimate);
            self.arms[usize::from(self.current)].update(score);
        }
        self.dwell += 1;
        if self.dwell < self.min_dwell {
            return self.current;
        }
        self.dwell = 0;

        let next = if may_explore && self.rng.gen_bool(self.epsilon) {
            // Explore: flip.
            self.explorations += 1;
            !self.current
        } else if may_explore {
            // Exploit — an unsampled arm must be tried at least once.
            match (self.arms[0].value(), self.arms[1].value()) {
                (Some(off), Some(on)) => on > off,
                (None, _) => false,
                (_, None) => true,
            }
        } else {
            // Exploration withheld: exploit sampled knowledge only; an
            // unsampled arm waits for this knob's exploration turn.
            match (self.arms[0].value(), self.arms[1].value()) {
                (Some(off), Some(on)) => on > off,
                _ => self.current,
            }
        };
        if next != self.current {
            self.switches += 1;
            self.current = next;
            self.settling = self.settle;
        }
        self.current
    }
}

impl BatchToggler for EpsilonGreedy {
    fn decide(&mut self, estimate: &Estimate) -> bool {
        self.decide_gated(estimate, true)
    }

    fn current(&self) -> bool {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2e_core::{DelaySet, MultiConnectionAggregator};
    use littles::Nanos;

    fn est(latency_us: u64, tput: f64) -> Estimate {
        Estimate {
            at: Nanos::ZERO,
            latency: Nanos::from_micros(latency_us),
            smoothed_latency: Nanos::from_micros(latency_us),
            throughput: tput,
            local_view: Nanos::ZERO,
            remote_view: Nanos::ZERO,
            confidence: 1.0,
            remote_stale: false,
            components: DelaySet::default(),
        }
    }

    #[test]
    fn static_togglers_never_change() {
        let mut on = StaticToggler::always_on();
        let mut off = StaticToggler::always_off();
        for i in 0..10 {
            assert!(on.decide(&est(i * 100, 1.0)));
            assert!(!off.decide(&est(i * 100, 1.0)));
        }
    }

    /// A world where batching on always yields 100 µs and off yields
    /// 500 µs: the bandit must settle on "on".
    #[test]
    fn converges_to_better_arm() {
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 0.05, 2, 0.5, 1);
        let mut on_ticks = 0;
        let total = 2_000;
        for _ in 0..total {
            let lat = if t.current() { 100 } else { 500 };
            if t.decide(&est(lat, 10_000.0)) {
                on_ticks += 1;
            }
        }
        assert!(
            on_ticks > total * 8 / 10,
            "should exploit the better arm, got {on_ticks}/{total}"
        );
        assert!(t.arm_score(true).unwrap() > t.arm_score(false).unwrap());
    }

    /// The environment flips halfway: the bandit must adapt.
    #[test]
    fn adapts_to_regime_change() {
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 0.1, 2, 0.5, 2);
        // Phase 1: on is better.
        for _ in 0..500 {
            let lat = if t.current() { 100 } else { 400 };
            t.decide(&est(lat, 1.0));
        }
        assert!(t.current(), "settled on 'on' in phase 1");
        // Phase 2: off becomes better.
        let mut off_ticks = 0;
        for _ in 0..1_000 {
            let lat = if t.current() { 400 } else { 100 };
            if !t.decide(&est(lat, 1.0)) {
                off_ticks += 1;
            }
        }
        assert!(
            off_ticks > 600,
            "should migrate to 'off' after the flip, got {off_ticks}/1000"
        );
    }

    #[test]
    fn explores_both_arms() {
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 0.05, 1, 0.5, 3);
        let mut saw = [false; 2];
        for _ in 0..500 {
            saw[usize::from(t.decide(&est(100, 1.0)))] = true;
        }
        assert!(saw[0] && saw[1], "ε-greedy must try both arms");
    }

    #[test]
    fn dwell_prevents_rapid_switching() {
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 1.0, 5, 0.5, 4);
        // With ε = 1 every decision flips, but decisions only happen every
        // 5 ticks.
        let mut flips = 0;
        let mut prev = t.current();
        for _ in 0..100 {
            let cur = t.decide(&est(100, 1.0));
            if cur != prev {
                flips += 1;
            }
            prev = cur;
        }
        assert_eq!(flips, 100 / 5);
    }

    #[test]
    fn zero_epsilon_still_tries_unsampled_arm() {
        // Greedy-only with both arms unexplored: the first decision after
        // dwell must not get stuck on "off" forever if "off" was never
        // scored better — with (None, _) it stays off, but once off has a
        // score and on has none, it must try on.
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 0.0, 1, 0.5, 5);
        let mut tried_on = false;
        for _ in 0..10 {
            if t.decide(&est(100, 1.0)) {
                tried_on = true;
            }
        }
        assert!(tried_on, "unsampled arm must be tried");
    }

    #[test]
    fn gated_true_is_exactly_decide() {
        let mut plain = EpsilonGreedy::new(Objective::MinLatency, 0.2, 2, 0.5, 42);
        let mut gated = EpsilonGreedy::new(Objective::MinLatency, 0.2, 2, 0.5, 42);
        for i in 0..1_000u64 {
            let p_lat = if plain.current() { 100 } else { 500 };
            let g_lat = if gated.current() { 100 } else { 500 };
            let p = plain.decide(&est(p_lat + i % 7, 1.0));
            let g = gated.decide_gated(&est(g_lat + i % 7, 1.0), true);
            assert_eq!(p, g, "tick {i}: decide and decide_gated(true) diverged");
        }
        assert_eq!(plain.switches(), gated.switches());
        assert_eq!(plain.explorations(), gated.explorations());
    }

    #[test]
    fn withheld_exploration_never_flips_or_draws() {
        // ε = 1 would flip on every decision — but with exploration
        // withheld and only one arm sampled, the toggler must sit still.
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 1.0, 1, 0.5, 9);
        for _ in 0..100 {
            assert!(!t.decide_gated(&est(100, 1.0), false));
        }
        assert_eq!(t.switches(), 0);
        assert_eq!(t.explorations(), 0);
        // Granted a turn, it explores again.
        t.decide_gated(&est(100, 1.0), true);
        assert_eq!(t.explorations(), 1);
    }

    #[test]
    fn withheld_exploration_still_exploits_sampled_arms() {
        let mut t = EpsilonGreedy::new(Objective::MinLatency, 0.0, 1, 1.0, 11);
        // Sample both arms while exploration is allowed: off scores 500,
        // on scores 100.
        t.decide_gated(&est(500, 1.0), true); // scores off; tries on
        assert!(t.current(), "unsampled arm forced");
        t.decide_gated(&est(100, 1.0), true); // scores on; on wins
                                              // Exploration withheld: with both arms sampled it still picks the
                                              // better one, even after the scores flip.
        for _ in 0..20 {
            let lat = if t.current() { 600 } else { 50 };
            t.decide_gated(&est(lat, 1.0), false);
        }
        assert!(
            !t.current(),
            "exploitation alone migrates to the better arm"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon out of range")]
    fn bad_epsilon_rejected() {
        let _ = EpsilonGreedy::new(Objective::MinLatency, 1.5, 1, 0.5, 0);
    }

    /// The aggregate of `connections` equal connections sharing `tput`.
    fn agg(latency_us: u64, tput: f64, connections: usize) -> Estimate {
        let mut a = MultiConnectionAggregator::new();
        for _ in 0..connections {
            a.add(est(latency_us, tput / connections as f64));
        }
        a.aggregate().expect("at least one connection")
    }

    /// Fed a listener-wide aggregate instead of a single-connection
    /// estimate, the bandit converges exactly the same way.
    #[test]
    fn converges_on_aggregates_like_on_estimates() {
        let mut single = EpsilonGreedy::new(Objective::MinLatency, 0.05, 2, 0.5, 1);
        let mut multi = EpsilonGreedy::new(Objective::MinLatency, 0.05, 2, 0.5, 1);
        for _ in 0..2_000 {
            let s_lat = if single.current() { 100 } else { 500 };
            single.decide(&est(s_lat, 10_000.0));
            let m_lat = if multi.current() { 100 } else { 500 };
            multi.decide(&agg(m_lat, 10_000.0, 16));
        }
        assert!(multi.current(), "aggregate-fed bandit settles on 'on'");
        assert_eq!(single.current(), multi.current());
        assert_eq!(single.switches(), multi.switches());
    }
}
