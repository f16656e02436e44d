//! Aggregating estimates across connections (paper §3.2, last paragraph).
//!
//! A batching policy often flips a knob that affects many connections at
//! once (e.g. a per-interface or per-listener Nagle default). The paper
//! notes that per-connection estimates "can be averaged if a batching
//! policy simultaneously affects multiple connections"; the natural
//! average is throughput-weighted — a connection carrying 100× the
//! requests should dominate the policy's view of latency.

use littles::wire::{WireExchange, WireScale};
use littles::Nanos;

use crate::combine::{DelaySet, EndpointSnapshots};
use crate::estimator::{E2eEstimator, Estimate};
use crate::validate::{ValidateConfig, ValidateStats};

/// Throughput-weighted aggregate over per-connection estimates.
#[derive(Debug, Clone, Default)]
pub struct MultiConnectionAggregator {
    estimates: Vec<Estimate>,
}

impl MultiConnectionAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one connection's latest estimate for this aggregation round.
    pub fn add(&mut self, estimate: Estimate) {
        self.estimates.push(estimate);
    }

    /// Computes the throughput-weighted aggregate and clears the round.
    ///
    /// Each connection's latency, smoothed latency, delay components and
    /// confidence are weighted by its share of the total throughput, so a
    /// connection with zero throughput contributes nothing; only a round
    /// where every connection is idle takes the plain mean instead. The
    /// aggregate's throughput is the total, its `at` the newest
    /// contribution's, and both its views are its latency. It is
    /// `remote_stale` only when every contribution is: a stale
    /// connection's confidence is zero, so beside fresh ones it already
    /// pulls the weighted confidence down, and it must not trip a breaker
    /// on its own.
    pub fn aggregate(&mut self) -> Option<Estimate> {
        let aggregate = weighted_aggregate(self.estimates.iter().copied());
        self.estimates.clear();
        aggregate
    }
}

/// The throughput-weighted aggregate of `estimates` (see
/// [`MultiConnectionAggregator::aggregate`]), `None` when there are none.
/// Each field is one pass over the estimates in their order, so the
/// aggregate is the same to the bit whoever holds them.
fn weighted_aggregate(estimates: impl Iterator<Item = Estimate> + Clone) -> Option<Estimate> {
    let at = estimates.clone().map(|e| e.at).max()?;
    let total_tput: f64 = estimates.clone().map(|e| e.throughput).sum();
    let weighted = |field: &dyn Fn(&Estimate) -> f64| -> f64 {
        if total_tput > 0.0 {
            estimates
                .clone()
                .map(|e| field(&e) * (e.throughput / total_tput))
                .sum::<f64>()
        } else {
            // Every connection idle: the plain mean.
            let n = estimates.clone().count();
            estimates.clone().map(|e| field(&e)).sum::<f64>() / n as f64
        }
    };
    let weighted_nanos = |field: fn(&Estimate) -> Nanos| -> Nanos {
        let ns = weighted(&|e| field(e).as_nanos() as f64);
        Nanos::from_nanos(ns.round() as u64)
    };
    let latency = weighted_nanos(|e| e.latency);
    Some(Estimate {
        at,
        latency,
        smoothed_latency: weighted_nanos(|e| e.smoothed_latency),
        throughput: total_tput,
        local_view: latency,
        remote_view: latency,
        confidence: weighted(&|e| e.confidence),
        remote_stale: estimates.clone().all(|e| e.remote_stale),
        components: DelaySet {
            unacked_near: weighted_nanos(|e| e.components.unacked_near),
            ackdelay_far: weighted_nanos(|e| e.components.ackdelay_far),
            unread_near: weighted_nanos(|e| e.components.unread_near),
            unread_far: weighted_nanos(|e| e.components.unread_far),
        },
    })
}

/// Per-host registry of per-connection estimators.
///
/// A listener-wide batching policy needs one `L` for the whole host, not
/// one per connection. The registry owns an [`E2eEstimator`] per
/// connection id (created lazily on first update), remembers each
/// connection's latest estimate, and folds them on demand into the
/// throughput-weighted aggregate a [`MultiConnectionAggregator`] computes
/// — so a policy written against a single connection's [`Estimate`] sees
/// that aggregate instead.
///
/// Connection ids are small sequential integers (the simulation's flow
/// counter), so estimators live in a dense `Vec` indexed by id — lookup
/// on the per-tick update path is one bounds check rather than a tree
/// walk, and iteration in ascending index order reproduces the old
/// `BTreeMap`'s deterministic key order exactly.
#[derive(Debug, Clone)]
pub struct EstimatorRegistry {
    scale: WireScale,
    smoothing_alpha: f64,
    staleness_bound: Option<Nanos>,
    validation: Option<ValidateConfig>,
    estimators: Vec<Option<E2eEstimator>>,
}

impl EstimatorRegistry {
    /// Creates a registry whose estimators use the given wire scale and
    /// per-connection smoothing weight.
    pub fn new(scale: WireScale, smoothing_alpha: f64) -> Self {
        EstimatorRegistry {
            scale,
            smoothing_alpha,
            staleness_bound: None,
            validation: None,
            estimators: Vec::new(),
        }
    }

    /// Applies a staleness bound (see
    /// [`E2eEstimator::with_staleness_bound`]) to every estimator the
    /// registry creates from here on.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.staleness_bound = Some(bound);
        self
    }

    /// Applies peer-state validation (see [`E2eEstimator::with_validation`])
    /// to every estimator the registry creates from here on.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.validation = Some(config);
        self
    }

    /// Feeds one tick of one connection's data, creating the estimator on
    /// first sight of `conn`. Returns that connection's estimate when one
    /// can be formed (see [`E2eEstimator::update`]).
    pub fn update(
        &mut self,
        conn: u64,
        now: Nanos,
        local: EndpointSnapshots,
        remote_latest: Option<WireExchange>,
    ) -> Option<Estimate> {
        self.update_validated(conn, now, local, remote_latest, None)
    }

    /// [`Self::update`] with the connection's locally measured SRTT
    /// supplied for the validator's delay bound.
    pub fn update_validated(
        &mut self,
        conn: u64,
        now: Nanos,
        local: EndpointSnapshots,
        remote_latest: Option<WireExchange>,
        srtt: Option<Nanos>,
    ) -> Option<Estimate> {
        let (scale, alpha, bound, validation) = (
            self.scale,
            self.smoothing_alpha,
            self.staleness_bound,
            self.validation,
        );
        let idx = conn as usize;
        if idx >= self.estimators.len() {
            self.estimators.resize_with(idx + 1, || None);
        }
        self.estimators[idx]
            .get_or_insert_with(|| {
                let mut est = E2eEstimator::new(scale, alpha);
                if let Some(b) = bound {
                    est = est.with_staleness_bound(b);
                }
                if let Some(v) = validation {
                    est = est.with_validation(v);
                }
                est
            })
            .update_validated(now, local, remote_latest, srtt)
    }

    /// Validation counters summed across every connection (all zero when
    /// validation is disabled).
    pub fn validation_stats(&self) -> ValidateStats {
        let mut total = ValidateStats::default();
        for est in self.estimators.iter().flatten() {
            if let Some(stats) = est.validation_stats() {
                total.merge(&stats);
            }
        }
        total
    }

    /// Number of registered connections.
    pub fn connections(&self) -> usize {
        self.estimators.iter().filter(|e| e.is_some()).count()
    }

    /// The latest estimate of one connection, if it has produced any.
    pub fn last(&self, conn: u64) -> Option<Estimate> {
        self.estimators
            .get(conn as usize)
            .and_then(Option::as_ref)
            .and_then(|e| e.last())
    }

    /// Throughput-weighted aggregate over every connection's latest
    /// estimate. `None` until at least one connection has estimated.
    pub fn aggregate(&self) -> Option<Estimate> {
        weighted_aggregate(
            self.estimators
                .iter()
                .flatten()
                .filter_map(E2eEstimator::last),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            components: DelaySet {
                unacked_near: Nanos::from_micros(latency_us),
                ackdelay_far: Nanos::ZERO,
                unread_near: Nanos::ZERO,
                unread_far: Nanos::ZERO,
            },
        }
    }

    #[test]
    fn empty_round_yields_none() {
        let mut a = MultiConnectionAggregator::new();
        assert!(a.aggregate().is_none());
    }

    /// With one connection the aggregate is that connection's estimate:
    /// every field but the two views, through fresh ticks, smoothing and a
    /// stale remote window alike.
    #[test]
    fn single_connection_passthrough() {
        use littles::QueueState;
        let us = Nanos::from_micros;
        let mut reg =
            EstimatorRegistry::new(WireScale::UNSCALED, 0.3).with_staleness_bound(us(250));
        let [mut c_unacked, mut c_unread, c_ackdelay, s_unacked, mut s_unread, mut s_ackdelay] =
            [(); 6].map(|_| QueueState::new(Nanos::ZERO));
        let mut exchange = None;
        let (mut checked, mut stale) = (0, 0);
        for period in 0..40u64 {
            // Hold times vary per period, so no figure comes out round.
            let t0 = us(period * 100);
            let hold = 20 + period % 7 * 5;
            c_unacked.track(t0, 1);
            c_unacked.track(t0 + us(hold), -1);
            s_ackdelay.track(t0 + us(5), 1);
            s_ackdelay.track(t0 + us(12), -1);
            s_unread.track(t0 + us(5), 1);
            s_unread.track(t0 + us(5 + hold / 2), -1);
            c_unread.track(t0 + us(60), 1);
            c_unread.track(t0 + us(65 + period % 3 * 10), -1);
            let tick = t0 + us(100);
            // The peer goes quiet after period 30: the last ticks run on
            // a cached remote window until it is stale.
            if period < 30 {
                exchange = Some(WireExchange::pack(
                    &s_unacked.peek(tick),
                    &s_unread.peek(tick),
                    &s_ackdelay.peek(tick),
                    WireScale::UNSCALED,
                ));
            }
            let local = EndpointSnapshots {
                unacked: c_unacked.peek(tick),
                unread: c_unread.peek(tick),
                ackdelay: c_ackdelay.peek(tick),
            };
            reg.update(3, tick, local, exchange);
            let (Some(conn), Some(agg)) = (reg.last(3), reg.aggregate()) else {
                continue;
            };
            assert_eq!(agg.at, conn.at);
            assert_eq!(agg.latency, conn.latency);
            assert_eq!(agg.smoothed_latency, conn.smoothed_latency);
            assert_eq!(agg.throughput.to_bits(), conn.throughput.to_bits());
            assert_eq!(agg.confidence.to_bits(), conn.confidence.to_bits());
            assert_eq!(agg.remote_stale, conn.remote_stale);
            assert_eq!(agg.components, conn.components);
            checked += 1;
            stale += u32::from(conn.remote_stale);
        }
        assert!(checked > 30 && stale > 0, "{checked} ticks, {stale} stale");
    }

    #[test]
    fn weighting_favours_busy_connections() {
        let mut a = MultiConnectionAggregator::new();
        a.add(est(100, 9_000.0)); // busy, fast
        a.add(est(1_000, 1_000.0)); // quiet, slow
        let agg = a.aggregate().unwrap();
        // Weighted: 100·0.9 + 1000·0.1 = 190 µs (vs plain mean 550).
        assert_eq!(agg.latency, Nanos::from_micros(190));
        assert!((agg.throughput - 10_000.0).abs() < 1e-9);
        // Components aggregate with the same weights, field by field (the
        // est() helper puts the whole latency in unacked_near).
        assert_eq!(agg.components.unacked_near, Nanos::from_micros(190));
        assert_eq!(agg.components.ackdelay_far, Nanos::ZERO);
    }

    #[test]
    fn idle_round_falls_back_to_plain_mean() {
        let mut a = MultiConnectionAggregator::new();
        a.add(est(100, 0.0));
        a.add(est(300, 0.0));
        let agg = a.aggregate().unwrap();
        assert_eq!(agg.latency, Nanos::from_micros(200));
    }

    #[test]
    fn aggregate_clears_the_round() {
        let mut a = MultiConnectionAggregator::new();
        a.add(est(100, 1.0));
        a.aggregate();
        assert!(a.aggregate().is_none());
    }

    #[test]
    fn aggregate_views_as_a_connection_estimate() {
        let mut a = MultiConnectionAggregator::new();
        a.add(est(100, 9_000.0));
        a.add(est(1_000, 1_000.0));
        let e = a.aggregate().unwrap();
        assert_eq!(e.smoothed_latency, Nanos::from_micros(190));
        assert_eq!(
            e.local_view, e.latency,
            "both views are the aggregate latency"
        );
        assert_eq!(e.remote_view, e.latency);
    }

    #[test]
    fn confidence_is_weighted_and_one_fresh_contribution_keeps_the_view_fresh() {
        let mut a = MultiConnectionAggregator::new();
        let busy = est(100, 9_000.0); // fresh, confidence 1.0
        let mut quiet = est(1_000, 1_000.0);
        quiet.confidence = 0.0;
        quiet.remote_stale = true;
        a.add(busy);
        a.add(quiet);
        let e = a.aggregate().unwrap();
        assert!(
            !e.remote_stale,
            "one stale contributor of two is not a stale view"
        );
        assert!((e.confidence - 0.9).abs() < 1e-9);
    }

    #[test]
    fn all_stale_contributions_mark_the_view_stale() {
        let mut a = MultiConnectionAggregator::new();
        for latency_us in [100, 1_000] {
            let mut e = est(latency_us, 1_000.0);
            e.remote_stale = true;
            a.add(e);
        }
        assert!(a.aggregate().unwrap().remote_stale);
    }

    #[test]
    fn aggregate_timestamp_is_the_newest_contribution() {
        let mut a = MultiConnectionAggregator::new();
        let mut early = est(100, 1.0);
        early.at = Nanos::from_micros(10);
        let mut late = est(100, 1.0);
        late.at = Nanos::from_micros(30);
        a.add(early);
        a.add(late);
        assert_eq!(a.aggregate().unwrap().at, Nanos::from_micros(30));
    }

    #[test]
    fn registry_is_empty_until_connections_estimate() {
        let reg = EstimatorRegistry::new(WireScale::default(), 0.3);
        assert_eq!(reg.connections(), 0);
        assert!(reg.aggregate().is_none());
    }

    #[test]
    fn registry_creates_estimators_lazily_and_removes_them() {
        let mut reg = EstimatorRegistry::new(WireScale::default(), 0.3);
        let s = EndpointSnapshots {
            unacked: littles::Snapshot::default(),
            unread: littles::Snapshot::default(),
            ackdelay: littles::Snapshot::default(),
        };
        reg.update(7, Nanos::ZERO, s, None);
        reg.update(3, Nanos::ZERO, s, None);
        assert_eq!(reg.connections(), 2);
        // Default snapshots never produce an estimate.
        assert!(reg.last(7).is_none());
        assert!(reg.aggregate().is_none());
    }
}
