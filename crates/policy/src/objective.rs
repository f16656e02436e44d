//! Policy objectives: how a toggler scores an estimate.
//!
//! The paper (§5, "Dynamic Toggling"): because throughput and latency can
//! conflict, "toggling should ideally follow some system- or user-defined
//! policy that balances between them, such as preferring latency, or
//! maximizing throughput provided some latency SLO is met". An
//! [`Objective`] turns an estimate into a scalar score (higher is better)
//! so arm-comparison logic stays policy-agnostic. Only the first rule is
//! built: every workload here, like the paper's evaluation, prefers
//! latency.

use e2e_core::Estimate;

/// A scoring rule over an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Prefer the lowest latency, ignoring throughput.
    MinLatency,
}

impl Objective {
    /// Scores an estimate; higher is better: the negated smoothed latency.
    pub(crate) fn score(&self, est: &Estimate) -> f64 {
        -est.smoothed_latency.as_micros_f64()
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

    #[test]
    fn min_latency_prefers_faster() {
        let o = Objective::MinLatency;
        assert!(o.score(&est(100, 1.0)) > o.score(&est(200, 1_000_000.0)));
    }
}
