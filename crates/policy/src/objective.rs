//! Policy objectives: how a toggler scores an estimate.
//!
//! The paper (§5, "Dynamic Toggling"): because throughput and latency can
//! conflict, "toggling should ideally follow some system- or user-defined
//! policy that balances between them, such as preferring latency, or
//! maximizing throughput provided some latency SLO is met". An
//! [`Objective`] turns an estimate into a scalar score (higher is better)
//! so arm-comparison logic stays policy-agnostic.

use e2e_core::Estimate;
use littles::Nanos;

/// A scoring rule over `(latency, throughput)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Prefer the lowest latency, ignoring throughput.
    MinLatency,
    /// Maximize throughput as long as latency stays at or below the SLO;
    /// any SLO violation scores worse than any compliant state, and deeper
    /// violations score worse still.
    MaxThroughputUnderSlo {
        /// The latency service-level objective.
        slo: Nanos,
    },
    /// Like [`MaxThroughputUnderSlo`](Objective::MaxThroughputUnderSlo),
    /// but judged against the *raw* (unsmoothed) per-window latency
    /// instead of the EWMA. The raw estimate keeps its spikes, so it is
    /// the closer proxy for a tail-latency (P99) bound: a transient
    /// excursion past the SLO scores as a violation immediately rather
    /// than being averaged away.
    MaxThroughputUnderTailSlo {
        /// The tail-latency service-level objective.
        slo: Nanos,
    },
    /// A weighted tradeoff: `score = throughput − weight · latency_µs`.
    Weighted {
        /// Cost per microsecond of latency, in throughput units.
        latency_weight: f64,
    },
}

impl Objective {
    /// The 500 µs SLO the paper uses (citing IX and ZygOS).
    pub fn paper_slo() -> Objective {
        Objective::MaxThroughputUnderSlo {
            slo: Nanos::from_micros(500),
        }
    }

    /// Scores an estimate; higher is better. Uses the smoothed latency,
    /// except for the tail-SLO objective which scores the raw latency.
    pub fn score(&self, est: &Estimate) -> f64 {
        let latency_us = est.smoothed_latency.as_micros_f64();
        match *self {
            Objective::MinLatency => -latency_us,
            Objective::MaxThroughputUnderSlo { slo } => {
                let slo_us = slo.as_micros_f64();
                if latency_us <= slo_us {
                    est.throughput
                } else {
                    // Strictly below any compliant score; deeper violations
                    // are worse.
                    -(latency_us - slo_us)
                }
            }
            Objective::MaxThroughputUnderTailSlo { slo } => {
                let raw_us = est.latency.as_micros_f64();
                let slo_us = slo.as_micros_f64();
                if raw_us <= slo_us {
                    est.throughput
                } else {
                    -(raw_us - slo_us)
                }
            }
            Objective::Weighted { latency_weight } => est.throughput - latency_weight * latency_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2e_core::DelaySet;

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

    #[test]
    fn slo_prefers_throughput_when_compliant() {
        let o = Objective::paper_slo();
        assert!(o.score(&est(400, 50_000.0)) > o.score(&est(100, 20_000.0)));
    }

    #[test]
    fn slo_violation_loses_to_any_compliant_state() {
        let o = Objective::paper_slo();
        // Violating with huge throughput still loses to compliant tiny
        // throughput.
        assert!(o.score(&est(600, 1e9)) < o.score(&est(499, 1.0)));
    }

    #[test]
    fn deeper_violations_score_worse() {
        let o = Objective::paper_slo();
        assert!(o.score(&est(600, 1.0)) > o.score(&est(5_000, 1.0)));
    }

    #[test]
    fn tail_slo_scores_the_raw_latency() {
        let o = Objective::MaxThroughputUnderTailSlo {
            slo: Nanos::from_micros(500),
        };
        // A spike the EWMA hides: smoothed 400 µs, raw 800 µs. The
        // smoothed objective calls this compliant; the tail objective
        // must not.
        let mut spiky = est(400, 50_000.0);
        spiky.latency = Nanos::from_micros(800);
        assert!(o.score(&spiky) < 0.0, "raw excursion counts as violation");
        assert!(Objective::paper_slo().score(&spiky) > 0.0);
        // A compliant raw latency earns the throughput.
        assert!((o.score(&est(400, 50_000.0)) - 50_000.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_balances() {
        let o = Objective::Weighted {
            latency_weight: 10.0,
        };
        // 1000 tput / 50 µs vs 1400 tput / 100 µs: 500 vs 400.
        assert!(o.score(&est(50, 1_000.0)) > o.score(&est(100, 1_400.0)));
    }
}
