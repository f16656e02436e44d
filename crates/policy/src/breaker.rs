//! Circuit breakers for graceful degradation: one closed/open/half-open
//! lifecycle, two views of it.
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
//!
//! The [`UpstreamBreaker`] runs the same lifecycle for the proxy's
//! routing: attempt timeouts, connection resets and low composed-estimate
//! confidence strike it, and while it is open new requests go to the
//! failover shard instead of queueing behind a dead upstream.

use e2e_core::Estimate;
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

/// The state machine both breakers run, fed two inputs: a *strike* (a
/// bad observation) and a *pass* (a good one). `trip_after` strikes in a
/// row trip a closed breaker open for `initial_backoff`; once the
/// backoff elapses it probes (half-open), where `restore_after` passes in
/// a row close it and one strike reopens it for twice the last open
/// period, capped at `max_backoff`.
#[derive(Debug, Clone)]
struct Lifecycle {
    config: BreakerConfig,
    state: BreakerState,
    /// When the current open period ends (valid while `Open`).
    reopen_at: Nanos,
    /// The current open period; reset to `initial_backoff` on restore.
    backoff: Nanos,
    strikes: u32,
    passes: u32,
    /// Trips from the closed state.
    trips: u64,
    /// Failed probes: half-open periods that fell back to open.
    reopens: u64,
}

impl Lifecycle {
    fn new(config: BreakerConfig) -> Self {
        assert!(
            config.min_confidence > 0.0 && config.min_confidence <= 1.0,
            "min_confidence out of range"
        );
        assert!(config.trip_after >= 1, "trip_after must be at least one");
        assert!(
            config.restore_after >= 1,
            "restore_after must be at least one"
        );
        assert!(
            !config.initial_backoff.is_zero() && config.initial_backoff <= config.max_backoff,
            "backoff range inverted or zero"
        );
        Lifecycle {
            backoff: config.initial_backoff,
            config,
            state: BreakerState::Closed,
            reopen_at: Nanos::ZERO,
            strikes: 0,
            passes: 0,
            trips: 0,
            reopens: 0,
        }
    }

    /// The state at `now`, advancing `Open → HalfOpen` once the backoff
    /// has elapsed.
    fn state_at(&mut self, now: Nanos) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.reopen_at {
            self.state = BreakerState::HalfOpen;
            self.passes = 0;
        }
        self.state
    }

    fn strike(&mut self, now: Nanos) {
        match self.state_at(now) {
            BreakerState::Closed => {
                self.strikes += 1;
                if self.strikes >= self.config.trip_after {
                    self.trips += 1;
                    self.strikes = 0;
                    self.open(now, self.config.initial_backoff);
                }
            }
            BreakerState::HalfOpen => {
                self.reopens += 1;
                self.open(now, (self.backoff * 2).min(self.config.max_backoff));
            }
            BreakerState::Open => {}
        }
    }

    fn open(&mut self, now: Nanos, backoff: Nanos) {
        self.state = BreakerState::Open;
        self.backoff = backoff;
        self.reopen_at = now + backoff;
    }

    fn pass(&mut self, now: Nanos) {
        match self.state_at(now) {
            BreakerState::Closed => self.strikes = 0,
            BreakerState::HalfOpen => {
                self.passes += 1;
                if self.passes >= self.config.restore_after {
                    self.state = BreakerState::Closed;
                    self.backoff = self.config.initial_backoff;
                }
            }
            BreakerState::Open => {}
        }
    }
}

/// A [`BatchToggler`] decorator that falls back to a safe static mode
/// when estimator confidence collapses and re-probes with backoff.
#[derive(Debug, Clone)]
pub struct CircuitBreaker<T> {
    inner: T,
    life: Lifecycle,
    enabled: bool,
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
        CircuitBreaker {
            inner,
            life: Lifecycle::new(config),
            enabled: true,
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
        self.life.state
    }

    /// Times the breaker tripped open from the closed state.
    pub fn trips(&self) -> u64 {
        self.life.trips
    }

    /// Failed probes: half-open periods that fell back to open.
    #[cfg(test)]
    fn reopens(&self) -> u64 {
        self.life.reopens
    }

    /// The current open period: what the latest trip or failed probe
    /// imposed, back at `initial_backoff` once a probe restores the
    /// breaker. The next failed probe doubles it, up to the cap.
    #[cfg(test)]
    fn backoff(&self) -> Nanos {
        self.life.backoff
    }

    /// The wrapped toggler.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The static Nagle mode this breaker pins while degraded. Drivers
    /// that actuate more knobs than the breaker's boolean decision use
    /// this to build the matching safe corner for the rest.
    pub fn safe_on(&self) -> bool {
        self.life.config.safe_on
    }
}

impl<T: BatchToggler> BatchToggler for CircuitBreaker<T> {
    /// Only an estimate that passes the confidence gate (or any estimate,
    /// when the breaker is disabled) reaches the inner toggler, so
    /// outage-degraded estimates never touch its learned state.
    fn decide(&mut self, estimate: &Estimate) -> bool {
        if !self.enabled {
            return self.inner.decide(estimate);
        }
        let at = estimate.at;
        if self.life.state_at(at) == BreakerState::Open {
            return self.safe_on();
        }
        let confident =
            !estimate.remote_stale && estimate.confidence >= self.life.config.min_confidence;
        let held = if confident {
            let decision = self.inner.decide(estimate);
            self.life.pass(at);
            decision
        } else {
            // Hold the current mode; don't feed the inner policy a
            // suspect estimate.
            self.life.strike(at);
            self.inner.current()
        };
        if self.life.state == BreakerState::Closed {
            held
        } else {
            self.safe_on()
        }
    }

    fn current(&self) -> bool {
        if !self.enabled || self.life.state == BreakerState::Closed {
            self.inner.current()
        } else {
            self.safe_on()
        }
    }
}

/// A per-upstream circuit breaker fed jointly by hard failure events
/// (attempt timeouts, connection resets) and composed-estimate
/// confidence.
///
/// Unlike [`CircuitBreaker`] — which guards a *batching toggler* against
/// learning from garbage — this breaker guards *routing*: while it is
/// open, [`allow`](Self::allow) is false and the proxy sends new requests
/// to the failover shard instead of queueing them behind a dead
/// upstream. It runs the same lifecycle from the same [`BreakerConfig`]
/// (the `safe_on` field is meaningless for routing and ignored).
#[derive(Debug, Clone)]
pub struct UpstreamBreaker {
    life: Lifecycle,
}

impl UpstreamBreaker {
    /// Builds a breaker with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid configs [`CircuitBreaker::new`]
    /// rejects.
    pub fn new(config: BreakerConfig) -> Self {
        UpstreamBreaker {
            life: Lifecycle::new(config),
        }
    }

    /// Current state, advancing `Open → HalfOpen` when the backoff has
    /// elapsed.
    pub(crate) fn state_at(&mut self, now: Nanos) -> BreakerState {
        self.life.state_at(now)
    }

    /// True when new requests may be sent to this upstream (closed, or
    /// half-open probing).
    pub fn allow(&mut self, now: Nanos) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// Records a hard failure: an attempt deadline expired or the
    /// connection reset. A failed probe re-opens immediately with doubled
    /// backoff.
    pub fn record_failure(&mut self, now: Nanos) {
        self.life.strike(now);
    }

    /// Records a successful response from this upstream.
    pub fn record_success(&mut self, now: Nanos) {
        self.life.pass(now);
    }

    /// Feeds the composed estimate's confidence for this upstream: low
    /// confidence counts toward the same trip streak as hard failures
    /// (the estimator distrusting the back leg is evidence of the same
    /// sickness a timeout is), high confidence relaxes a closed breaker's
    /// streak. Only real responses count toward closing a probe.
    pub fn note_confidence(&mut self, now: Nanos, confidence: f64) {
        if confidence < self.life.config.min_confidence {
            self.life.strike(now);
        } else if self.state_at(now) == BreakerState::Closed {
            self.life.pass(now);
        }
    }

    /// Times the breaker opened: trips from the closed state *plus*
    /// failed probes (each of which re-opens it).
    pub fn trips(&self) -> u64 {
        self.life.trips + self.life.reopens
    }

    /// Failed probes: half-open periods that fell back to open.
    #[cfg(test)]
    fn reopens(&self) -> u64 {
        self.life.reopens
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

    /// The toggler gate and the routing breaker run one lifecycle: fed
    /// the same seeded schedule of timed good and bad observations (a
    /// confident estimate is a success, a low-confidence one a failure),
    /// they agree on the state at every step, and the routing breaker's
    /// trip count is the toggler's trips plus its failed probes.
    #[test]
    fn toggler_and_routing_breakers_share_one_lifecycle() {
        use simnet::Pcg32;
        let config = BreakerConfig {
            trip_after: 2,
            restore_after: 2,
            ..BreakerConfig::default()
        };
        for seed in 0..8 {
            let mut rng = Pcg32::new(seed);
            let mut toggler = CircuitBreaker::new(StaticToggler::always_on(), config);
            let mut routing = UpstreamBreaker::new(config);
            let (mut t, mut restores) = (Nanos::ZERO, 0);
            for step in 0..4_000u64 {
                t += Nanos::from_micros(rng.gen_range(4_000));
                // Alternate healthy and sick phases so every transition
                // happens, failed probes and capped backoffs included.
                let p_good = if (step / 60) % 2 == 0 { 0.9 } else { 0.15 };
                let was = toggler.state();
                if rng.gen_bool(p_good) {
                    toggler.decide(&est(t, 1.0, false));
                    routing.record_success(t);
                } else {
                    toggler.decide(&est(t, 0.1, false));
                    routing.record_failure(t);
                }
                let state = toggler.state();
                if was == BreakerState::HalfOpen && state == BreakerState::Closed {
                    restores += 1;
                }
                assert_eq!(routing.state_at(t), state, "seed {seed} step {step}");
                assert_eq!(routing.allow(t), state != BreakerState::Open);
                assert_eq!(toggler.current(), state == BreakerState::Closed);
                assert_eq!(routing.trips(), toggler.trips() + toggler.reopens());
                assert_eq!(routing.reopens(), toggler.reopens());
            }
            let (trips, reopens) = (toggler.trips(), toggler.reopens());
            assert!(trips > 10, "seed {seed}: {trips} trips");
            assert!(reopens > 10, "seed {seed}: {reopens} reopens");
            assert!(restores > 10, "seed {seed}: {restores} restores");
        }
    }

    /// A listener-wide aggregate is `remote_stale` only when every
    /// contribution is; that rule is the breaker's view of aggregate
    /// staleness.
    #[test]
    fn aggregate_path_shares_the_state_machine() {
        use e2e_core::MultiConnectionAggregator;
        let agg = |at: Nanos, confidence: f64, stale: usize| {
            let mut a = MultiConnectionAggregator::new();
            for i in 0..4 {
                a.add(est(at, confidence, i < stale));
            }
            a.aggregate().expect("four contributions")
        };
        let mut b = breaker();
        // Partially stale but confident overall: stays closed.
        for i in 0..5 {
            assert!(b.decide(&agg(ms(i), 0.8, 3)));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Every connection stale trips it, however confident the mix.
        for i in 5..8 {
            b.decide(&agg(ms(i), 0.9, 4));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.current());
    }

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn bcfg() -> BreakerConfig {
        BreakerConfig {
            min_confidence: 0.5,
            trip_after: 3,
            safe_on: false,
            initial_backoff: us(100),
            max_backoff: us(400),
            restore_after: 2,
        }
    }

    #[test]
    fn breaker_trips_on_failures_and_reprobes_with_backoff() {
        let mut b = UpstreamBreaker::new(bcfg());
        assert!(b.allow(us(0)));
        b.record_failure(us(1));
        b.record_failure(us(2));
        assert!(b.allow(us(3)), "below trip_after");
        b.record_failure(us(3));
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(us(50)), "open");
        // Backoff elapses → half-open probe allowed.
        assert!(b.allow(us(103)));
        assert_eq!(b.state_at(us(103)), BreakerState::HalfOpen);
        // Failed probe: re-open with doubled backoff.
        b.record_failure(us(104));
        assert_eq!(b.reopens(), 1);
        assert!(!b.allow(us(250)));
        assert!(b.allow(us(304)), "200µs after the re-trip");
        // Two good responses close it.
        b.record_success(us(305));
        b.record_success(us(306));
        assert_eq!(b.state_at(us(306)), BreakerState::Closed);
        // Closed resets the backoff ladder.
        b.record_failure(us(400));
        b.record_failure(us(401));
        b.record_failure(us(402));
        assert!(!b.allow(us(420)));
        assert!(b.allow(us(502)), "initial backoff again after restore");
    }

    #[test]
    fn confidence_feeds_the_same_trip_streak() {
        let mut b = UpstreamBreaker::new(bcfg());
        b.record_failure(us(1)); // a timeout...
        b.note_confidence(us(2), 0.1); // ...plus collapsing confidence...
        b.note_confidence(us(3), 0.2); // ...jointly trip the breaker.
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(us(10)));
        // And high confidence relaxes a partial streak.
        let mut c = UpstreamBreaker::new(bcfg());
        c.record_failure(us(1));
        c.record_failure(us(2));
        c.note_confidence(us(3), 0.9);
        c.record_failure(us(4));
        c.record_failure(us(5));
        assert_eq!(c.trips(), 0, "streak was reset by confident estimate");
    }

    #[test]
    fn successes_keep_a_closed_breaker_closed() {
        let mut b = UpstreamBreaker::new(bcfg());
        for t in 0..100u64 {
            b.record_failure(us(2 * t));
            b.record_success(us(2 * t + 1));
        }
        assert_eq!(b.trips(), 0);
        assert!(b.allow(us(1000)));
    }
}
