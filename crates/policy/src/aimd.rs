//! AIMD batch-size limits (paper §5, "Better Batching Heuristics").
//!
//! Beyond on/off toggling, the paper theorizes that end-to-end estimates
//! enable "a more principled approach that gradually adjusts batching
//! limits based on observed performance, using algorithms such as AIMD".
//! [`AimdBatchLimit`] implements exactly that: a batch-size ceiling (in
//! bytes, messages, or packets — the unit is the caller's) that grows
//! additively while the objective improves or the SLO holds, and halves
//! multiplicatively when performance regresses.

use e2e_core::Estimate;

use crate::objective::Objective;

/// Additive-increase/multiplicative-decrease controller for a batch limit.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdBatchLimit {
    objective: Objective,
    limit: u64,
    min: u64,
    max: u64,
    step: u64,
    last_score: Option<f64>,
    increases: u64,
    decreases: u64,
}

impl AimdBatchLimit {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics unless `min ≤ initial ≤ max` and `step ≥ 1`.
    pub fn new(objective: Objective, initial: u64, min: u64, max: u64, step: u64) -> Self {
        assert!(
            min <= initial && initial <= max,
            "initial outside [min,max]"
        );
        assert!(step >= 1, "step must be positive");
        AimdBatchLimit {
            objective,
            limit: initial,
            min,
            max,
            step,
            last_score: None,
            increases: 0,
            decreases: 0,
        }
    }

    /// The current batch limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Number of additive increases so far.
    pub fn increases(&self) -> u64 {
        self.increases
    }

    /// Number of multiplicative decreases so far.
    pub fn decreases(&self) -> u64 {
        self.decreases
    }

    /// Feeds the latest estimate and adapts the limit: additive increase
    /// while the score does not regress, multiplicative decrease when it
    /// does. Returns the new limit.
    pub fn update(&mut self, estimate: &Estimate) -> u64 {
        self.update_gated(estimate, true)
    }

    /// Like [`update`](AimdBatchLimit::update), but the additive probe
    /// can be withheld: with `may_increase = false` the limit only moves
    /// on a regression (the multiplicative *decrease* is a safety
    /// response and always fires). A multi-knob control plane uses this
    /// so the cork limit only creeps upward during its own exploration
    /// window, while still backing off immediately whenever it hurts.
    pub(crate) fn update_gated(&mut self, estimate: &Estimate, may_increase: bool) -> u64 {
        let score = self.objective.score(estimate);
        match self.last_score {
            Some(prev) if score < prev => {
                self.limit = (self.limit / 2).max(self.min);
                self.decreases += 1;
            }
            _ if may_increase => {
                self.limit = (self.limit + self.step).min(self.max);
                self.increases += 1;
            }
            _ => {}
        }
        self.last_score = Some(score);
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2e_core::DelaySet;
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

    fn controller() -> AimdBatchLimit {
        AimdBatchLimit::new(Objective::MinLatency, 1_000, 100, 100_000, 100)
    }

    #[test]
    fn improving_scores_grow_additively() {
        let mut c = controller();
        // Latency keeps falling → score keeps rising → +step each tick.
        for i in 0..5u64 {
            c.update(&est(1_000 - i * 100, 1.0));
        }
        assert_eq!(c.limit(), 1_000 + 5 * 100);
        assert_eq!(c.increases(), 5);
    }

    #[test]
    fn regression_halves() {
        let mut c = controller();
        c.update(&est(100, 1.0));
        let before = c.limit();
        c.update(&est(500, 1.0)); // latency up → score down
        assert_eq!(c.limit(), before / 2);
        assert_eq!(c.decreases(), 1);
    }

    #[test]
    fn clamps_at_min_and_max() {
        let mut c = AimdBatchLimit::new(Objective::MinLatency, 150, 100, 400, 100);
        // Force repeated decreases: alternate good then bad.
        c.update(&est(100, 1.0));
        for i in 0..10u64 {
            c.update(&est(200 + i * 100, 1.0));
        }
        assert_eq!(c.limit(), 100, "floors at min");
        // Now force increases.
        for _ in 0..10 {
            c.update(&est(50, 1.0));
        }
        assert_eq!(c.limit(), 400, "caps at max");
    }

    #[test]
    fn sawtooth_emerges_under_oscillating_feedback() {
        // Classic AIMD behaviour: growth until regression, then halving.
        let mut c = controller();
        let mut peaks = Vec::new();
        let mut score_high = true;
        for tick in 0..100 {
            let lat = if score_high { 100 } else { 900 };
            let before = c.limit();
            c.update(&est(lat, 1.0));
            if c.limit() < before {
                peaks.push(before);
            }
            score_high = tick % 10 != 9; // regress every 10th tick
        }
        assert!(peaks.len() >= 5, "expected repeated sawtooth peaks");
    }

    #[test]
    fn withheld_increase_holds_but_regression_still_halves() {
        let mut c = controller();
        c.update(&est(100, 1.0));
        let held = c.limit();
        // Improving scores with the probe withheld: the limit holds.
        for i in 0..5u64 {
            assert_eq!(c.update_gated(&est(90 - i, 1.0), false), held);
        }
        assert_eq!(c.increases(), 1, "only the ungated first tick grew");
        // A regression halves regardless of the gate.
        c.update_gated(&est(900, 1.0), false);
        assert_eq!(c.limit(), held / 2);
        assert_eq!(c.decreases(), 1);
    }

    #[test]
    #[should_panic(expected = "initial outside")]
    fn bad_initial_rejected() {
        let _ = AimdBatchLimit::new(Objective::MinLatency, 10, 100, 1_000, 1);
    }
}
