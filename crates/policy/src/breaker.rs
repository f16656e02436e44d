//! A circuit breaker around batching togglers for graceful degradation.
//!
//! The dynamic policies in this crate assume their estimates mean
//! something. Under faults — lossy links, blackouts, a stalled peer — the
//! estimator's confidence collapses (see `e2e_core::Estimate::confidence`)
//! and an ε-greedy toggler would happily learn from garbage. The
//! [`CircuitBreaker`] wraps any [`BatchToggler`] with the classic
//! closed/open/half-open state machine: consecutive low-confidence
//! estimates trip it into a configured safe static mode, re-probing
//! happens with exponential backoff, and the inner policy is only fed
//! estimates that pass the confidence gate so its learned state is never
//! poisoned by the outage.

use e2e_core::{AggregateEstimate, Estimate};
use littles::Nanos;

use crate::toggler::BatchToggler;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Estimates below this confidence (or flagged `remote_stale`) count
    /// toward tripping.
    pub min_confidence: f64,
    /// Consecutive low-confidence estimates required to trip open.
    pub trip_after: u32,
    /// The safe static batching mode pinned while the breaker is not
    /// closed (`false` = batching off, the conservative Redis default).
    pub safe_on: bool,
    /// Backoff before the first re-probe after tripping.
    pub initial_backoff: Nanos,
    /// Backoff cap; each failed probe doubles the backoff up to this.
    pub max_backoff: Nanos,
    /// Consecutive confident estimates during a probe required to close.
    pub restore_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            min_confidence: 0.5,
            trip_after: 3,
            safe_on: false,
            initial_backoff: Nanos::from_millis(5),
            max_backoff: Nanos::from_millis(80),
            restore_after: 3,
        }
    }
}

/// Where the breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: decisions delegate to the inner toggler.
    Closed,
    /// Tripped: the safe mode is pinned until the backoff elapses.
    Open,
    /// Probing: estimates are being re-examined; the safe mode stays
    /// pinned until enough confident ones arrive in a row.
    HalfOpen,
}

/// A [`BatchToggler`] decorator that falls back to a safe static mode
/// when estimator confidence collapses and re-probes with backoff.
#[derive(Debug, Clone)]
pub struct CircuitBreaker<T> {
    inner: T,
    config: BreakerConfig,
    enabled: bool,
    state: BreakerState,
    /// When the current open period ends (valid while `Open`).
    reopen_at: Nanos,
    /// Current backoff; doubles per failed probe, capped.
    backoff: Nanos,
    low_streak: u32,
    ok_streak: u32,
    trips: u64,
    reopens: u64,
}

impl<T: BatchToggler> CircuitBreaker<T> {
    /// Wraps `inner` with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_confidence ≤ 1`, the streak lengths are at
    /// least one, and the backoffs are positive with
    /// `initial_backoff ≤ max_backoff`.
    pub fn new(inner: T, config: BreakerConfig) -> Self {
        assert!(
            config.min_confidence > 0.0 && config.min_confidence <= 1.0,
            "min_confidence out of range"
        );
        assert!(config.trip_after >= 1, "trip_after must be at least one");
        assert!(config.restore_after >= 1, "restore_after must be at least one");
        assert!(
            !config.initial_backoff.is_zero() && config.initial_backoff <= config.max_backoff,
            "backoff range inverted or zero"
        );
        CircuitBreaker {
            inner,
            backoff: config.initial_backoff,
            config,
            enabled: true,
            state: BreakerState::Closed,
            reopen_at: Nanos::ZERO,
            low_streak: 0,
            ok_streak: 0,
            trips: 0,
            reopens: 0,
        }
    }

    /// Wraps `inner` as pure delegation: the breaker never trips. Lets
    /// experiment code thread one type whether or not degradation
    /// handling is on.
    pub fn disabled(inner: T) -> Self {
        let mut b = Self::new(inner, BreakerConfig::default());
        b.enabled = false;
        b
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped open from the closed state.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Failed probes: half-open periods that fell back to open.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// The backoff the next failed probe would impose.
    pub fn backoff(&self) -> Nanos {
        self.backoff
    }

    /// The wrapped toggler.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The static Nagle mode this breaker pins while degraded. Drivers
    /// that actuate more knobs than the breaker's boolean decision use
    /// this to build the matching safe corner for the rest.
    pub fn safe_on(&self) -> bool {
        self.config.safe_on
    }

    /// One step of the state machine. `delegate` runs the inner toggler
    /// on the estimate; it is only invoked when the estimate passed the
    /// confidence gate (or the breaker is disabled), so outage-degraded
    /// estimates never reach the inner policy's learned state.
    fn gate(
        &mut self,
        at: Nanos,
        confident: bool,
        delegate: impl FnOnce(&mut T) -> bool,
    ) -> bool {
        if !self.enabled {
            return delegate(&mut self.inner);
        }
        if self.state == BreakerState::Open && at >= self.reopen_at {
            self.state = BreakerState::HalfOpen;
            self.ok_streak = 0;
        }
        match self.state {
            BreakerState::Closed => {
                if confident {
                    self.low_streak = 0;
                    delegate(&mut self.inner)
                } else {
                    self.low_streak += 1;
                    if self.low_streak >= self.config.trip_after {
                        self.trips += 1;
                        self.low_streak = 0;
                        self.backoff = self.config.initial_backoff;
                        self.reopen_at = at + self.backoff;
                        self.state = BreakerState::Open;
                        self.config.safe_on
                    } else {
                        // Hold the current mode; don't feed the inner
                        // policy a suspect estimate.
                        self.inner.current()
                    }
                }
            }
            BreakerState::Open => self.config.safe_on,
            BreakerState::HalfOpen => {
                if confident {
                    self.ok_streak += 1;
                    let decision = delegate(&mut self.inner);
                    if self.ok_streak >= self.config.restore_after {
                        self.state = BreakerState::Closed;
                        self.low_streak = 0;
                        self.backoff = self.config.initial_backoff;
                        decision
                    } else {
                        self.config.safe_on
                    }
                } else {
                    self.reopens += 1;
                    self.backoff = (self.backoff * 2).min(self.config.max_backoff);
                    self.reopen_at = at + self.backoff;
                    self.state = BreakerState::Open;
                    self.config.safe_on
                }
            }
        }
    }

    fn confident(&self, confidence: f64, stale: bool) -> bool {
        !stale && confidence >= self.config.min_confidence
    }
}

impl<T: BatchToggler> BatchToggler for CircuitBreaker<T> {
    fn decide(&mut self, estimate: &Estimate) -> bool {
        let confident = self.confident(estimate.confidence, estimate.remote_stale);
        self.gate(estimate.at, confident, |inner| inner.decide(estimate))
    }

    fn decide_aggregate(&mut self, aggregate: &AggregateEstimate) -> bool {
        let confident = self.confident(
            aggregate.confidence,
            aggregate.stale_connections == aggregate.connections && aggregate.connections > 0,
        );
        self.gate(aggregate.at, confident, |inner| {
            inner.decide_aggregate(aggregate)
        })
    }

    fn current(&self) -> bool {
        if !self.enabled || self.state == BreakerState::Closed {
            self.inner.current()
        } else {
            self.config.safe_on
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toggler::StaticToggler;
    use e2e_core::DelaySet;

    fn est(at: Nanos, confidence: f64, stale: bool) -> Estimate {
        Estimate {
            at,
            latency: Nanos::from_micros(100),
            smoothed_latency: Nanos::from_micros(100),
            throughput: 1_000.0,
            local_view: Nanos::ZERO,
            remote_view: Nanos::ZERO,
            confidence,
            remote_stale: stale,
            components: DelaySet::default(),
        }
    }

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// Inner policy says "on"; safe mode is "off", so every assertion can
    /// tell which of the two is speaking.
    fn breaker() -> CircuitBreaker<StaticToggler> {
        CircuitBreaker::new(StaticToggler::always_on(), BreakerConfig::default())
    }

    #[test]
    fn disabled_is_pure_delegation() {
        let mut b = CircuitBreaker::disabled(StaticToggler::always_on());
        for i in 0..10 {
            assert!(b.decide(&est(ms(i), 0.0, true)), "delegates regardless");
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn closed_delegates_and_short_dips_do_not_trip() {
        let mut b = breaker();
        assert!(b.decide(&est(ms(0), 1.0, false)));
        // Two low-confidence ticks: held at the inner mode, not tripped.
        assert!(b.decide(&est(ms(1), 0.1, false)));
        assert!(b.decide(&est(ms(2), 0.1, false)));
        // Recovery resets the streak.
        assert!(b.decide(&est(ms(3), 0.9, false)));
        assert!(b.decide(&est(ms(4), 0.1, false)));
        assert!(b.decide(&est(ms(5), 0.1, false)));
        assert_eq!(b.trips(), 0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn consecutive_low_confidence_trips_to_safe_mode() {
        let mut b = breaker();
        b.decide(&est(ms(0), 0.2, false));
        b.decide(&est(ms(1), 0.2, false));
        let d = b.decide(&est(ms(2), 0.2, false));
        assert!(!d, "third low-confidence tick pins the safe mode");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.current());
        // Still open before the backoff elapses — even confident ticks
        // can't rush it.
        assert!(!b.decide(&est(ms(3), 1.0, false)));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn stale_estimates_trip_regardless_of_confidence_value() {
        let mut b = breaker();
        for i in 0..3 {
            b.decide(&est(ms(i), 1.0, true));
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn failed_probes_double_the_backoff_up_to_the_cap() {
        let mut b = breaker();
        for i in 0..3 {
            b.decide(&est(ms(i), 0.0, true));
        }
        assert_eq!(b.backoff(), ms(5));
        // Probe after the 5 ms backoff fails: backoff doubles, reopened.
        let mut t = ms(2) + ms(5);
        let mut expect = ms(5);
        for _ in 0..6 {
            assert!(!b.decide(&est(t, 0.0, true)));
            assert_eq!(b.state(), BreakerState::Open);
            expect = (expect * 2).min(ms(80));
            assert_eq!(b.backoff(), expect);
            t += b.backoff();
        }
        assert_eq!(b.backoff(), ms(80), "backoff pinned at the cap");
        assert_eq!(b.reopens(), 6);
    }

    #[test]
    fn confident_probes_restore_the_inner_policy() {
        let mut b = breaker();
        for i in 0..3 {
            b.decide(&est(ms(i), 0.0, true));
        }
        let t0 = ms(2) + ms(5);
        // Probing: confident estimates, but the safe mode holds until
        // restore_after of them arrive in a row.
        assert!(!b.decide(&est(t0, 1.0, false)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.decide(&est(t0 + ms(1), 1.0, false)));
        let d = b.decide(&est(t0 + ms(2), 1.0, false));
        assert!(d, "restored: the inner always-on policy speaks again");
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.current());
        assert_eq!(b.backoff(), ms(5), "backoff resets on restore");
    }

    #[test]
    fn aggregate_path_shares_the_state_machine() {
        use e2e_core::AggregateEstimate;
        let agg = |at: Nanos, confidence: f64, stale: usize| AggregateEstimate {
            at,
            latency: Nanos::from_micros(100),
            smoothed_latency: Nanos::from_micros(100),
            throughput: 1_000.0,
            connections: 4,
            confidence,
            stale_connections: stale,
            components: DelaySet::default(),
        };
        let mut b = breaker();
        // Partially stale but confident overall: stays closed.
        assert!(b.decide_aggregate(&agg(ms(0), 0.8, 1)));
        // Confidence collapse across the fleet trips it.
        for i in 1..=3 {
            b.decide_aggregate(&agg(ms(i), 0.1, 4));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.current());
    }
}
