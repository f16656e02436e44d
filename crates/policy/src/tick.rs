//! Toggling granularity (paper §5).
//!
//! Decisions happen at some cadence: "finer granularities offer faster
//! reaction; coarser granularities are less sensitive to noise. [...] Our
//! initial results suggest that a granularity of a kernel tick may be
//! suitable." A [`TickController`] gates an inner [`BatchToggler`] to a
//! fixed decision period, ignoring estimates that arrive in between — the
//! knob the granularity-ablation benchmark sweeps.

use e2e_core::Estimate;
use littles::Nanos;

use crate::toggler::BatchToggler;

/// Wraps a toggler so it decides at most once per `period`.
#[derive(Debug, Clone)]
pub struct TickController<T> {
    inner: T,
    period: Nanos,
    last_decision: Option<Nanos>,
}

impl<T: BatchToggler> TickController<T> {
    /// Creates a controller with an explicit period (a 1 ms period is the
    /// order of a kernel tick at HZ=1000, the paper's suggested
    /// granularity).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(inner: T, period: Nanos) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        TickController {
            inner,
            period,
            last_decision: None,
        }
    }

    /// Offers an estimate at time `now`; consults the inner toggler only
    /// if a full period elapsed since the last decision. Returns the
    /// (possibly unchanged) batching setting.
    pub fn offer(&mut self, now: Nanos, estimate: &Estimate) -> bool {
        let due = match self.last_decision {
            None => true,
            Some(last) => now.saturating_sub(last) >= self.period,
        };
        if due {
            self.last_decision = Some(now);
            self.inner.decide(estimate)
        } else {
            self.inner.current()
        }
    }

    /// The wrapped toggler.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::toggler::EpsilonGreedy;
    use e2e_core::DelaySet;

    /// Counts the decisions it is asked for.
    #[derive(Default)]
    struct Counting {
        decisions: u64,
    }

    impl BatchToggler for Counting {
        fn decide(&mut self, _estimate: &Estimate) -> bool {
            self.decisions += 1;
            false
        }

        fn current(&self) -> bool {
            false
        }
    }

    fn est(latency_us: u64) -> Estimate {
        Estimate {
            at: Nanos::ZERO,
            latency: Nanos::from_micros(latency_us),
            smoothed_latency: Nanos::from_micros(latency_us),
            throughput: 1.0,
            local_view: Nanos::ZERO,
            remote_view: Nanos::ZERO,
            confidence: 1.0,
            remote_stale: false,
            components: DelaySet::default(),
        }
    }

    #[test]
    fn decides_once_per_period() {
        let mut c = TickController::new(Counting::default(), Nanos::from_millis(1));
        // 10 offers spread over 500 µs: only the first decides.
        for i in 0..10u64 {
            c.offer(Nanos::from_micros(i * 50), &est(100));
        }
        assert_eq!(c.inner().decisions, 1);
        // Next offer past the period decides again.
        c.offer(Nanos::from_micros(1_100), &est(100));
        assert_eq!(c.inner().decisions, 2);
    }

    #[test]
    fn intermediate_offers_return_current_setting() {
        let inner = EpsilonGreedy::new(Objective::MinLatency, 0.0, 1, 1.0, 2);
        let mut c = TickController::new(inner, Nanos::from_millis(10));
        let first = c.offer(Nanos::ZERO, &est(100));
        for i in 1..5u64 {
            assert_eq!(c.offer(Nanos::from_micros(i), &est(100)), first);
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let inner = EpsilonGreedy::new(Objective::MinLatency, 0.05, 4, 0.4, 4);
        let _ = TickController::new(inner, Nanos::ZERO);
    }
}
