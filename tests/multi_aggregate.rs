//! `core::multi` coverage: the per-host estimator registry under skewed
//! fan-in.
//!
//! Three connections at 100:10:1 throughput ratios feed one
//! [`EstimatorRegistry`]; the throughput-weighted aggregate must be
//! dominated by the hot connection, and a policy fed the aggregate must
//! converge exactly as it would watching the hot connection alone.

use e2e_batching::batchpolicy::{BatchToggler, EpsilonGreedy, Objective};
use e2e_batching::e2e_core::combine::EndpointSnapshots;
use e2e_batching::e2e_core::{DelaySet, Estimate, EstimatorRegistry, MultiConnectionAggregator};
use e2e_batching::littles::wire::{WireExchange, WireScale};
use e2e_batching::littles::{Nanos, QueueState};

const PERIOD_US: u64 = 100;

/// One synthetic connection: `items` requests per 100 µs period, each
/// spending `hold_us` in the client's unread queue (the only non-zero
/// local queue, so the decomposed latency is `hold_us` plus the remote
/// hold). The remote side holds one item for `remote_hold_us` per period
/// so exchanges keep changing.
struct SyntheticConn {
    items: i64,
    hold_us: u64,
    remote_hold_us: u64,
    local_unread: QueueState,
    local_unacked: QueueState,
    local_ackdelay: QueueState,
    remote_unread: QueueState,
    remote_unacked: QueueState,
    remote_ackdelay: QueueState,
}

impl SyntheticConn {
    fn new(items: i64, hold_us: u64, remote_hold_us: u64) -> Self {
        SyntheticConn {
            items,
            hold_us,
            remote_hold_us,
            local_unread: QueueState::new(Nanos::ZERO),
            local_unacked: QueueState::new(Nanos::ZERO),
            local_ackdelay: QueueState::new(Nanos::ZERO),
            remote_unread: QueueState::new(Nanos::ZERO),
            remote_unacked: QueueState::new(Nanos::ZERO),
            remote_ackdelay: QueueState::new(Nanos::ZERO),
        }
    }

    /// Advances one period ending at `tick`, returning the local
    /// snapshots and the remote exchange at the tick.
    fn advance(&mut self, period: u64) -> (Nanos, EndpointSnapshots, WireExchange) {
        let us = Nanos::from_micros;
        let t0 = us(period * PERIOD_US);
        self.local_unread.track(t0, self.items);
        self.local_unread.track(t0 + us(self.hold_us), -self.items);
        self.remote_unread.track(t0, 1);
        self.remote_unread.track(t0 + us(self.remote_hold_us), -1);
        let tick = t0 + us(PERIOD_US);
        let local = EndpointSnapshots {
            unacked: self.local_unacked.peek(tick),
            unread: self.local_unread.peek(tick),
            ackdelay: self.local_ackdelay.peek(tick),
        };
        let remote = WireExchange::pack(
            &self.remote_unacked.peek(tick),
            &self.remote_unread.peek(tick),
            &self.remote_ackdelay.peek(tick),
            WireScale::UNSCALED,
        );
        (tick, local, remote)
    }
}

/// Drives the registry for `periods` ticks and returns the final
/// aggregate.
fn run_registry(periods: u64) -> (EstimatorRegistry, Vec<f64>) {
    // 100:10:1 items per period; the hot connection is also the fastest
    // (50 µs local hold), the cold ones are slow (90 µs).
    let mut conns = [
        SyntheticConn::new(100, 50, 10),
        SyntheticConn::new(10, 90, 10),
        SyntheticConn::new(1, 90, 10),
    ];
    let mut reg = EstimatorRegistry::new(WireScale::UNSCALED, 1.0);
    for p in 0..periods {
        for (id, conn) in conns.iter_mut().enumerate() {
            let (tick, local, remote) = conn.advance(p);
            reg.update(id as u64, tick, local, Some(remote));
        }
    }
    let tputs = (0..3)
        .map(|id| reg.last(id).map(|e| e.throughput).unwrap_or(0.0))
        .collect();
    (reg, tputs)
}

#[test]
fn throughput_ratios_are_as_constructed() {
    let (_, tputs) = run_registry(50);
    // 100 / 10 / 1 items per 100 µs → 1M / 100k / 10k items per second.
    assert!((tputs[0] / tputs[1] - 10.0).abs() < 0.5, "{tputs:?}");
    assert!((tputs[1] / tputs[2] - 10.0).abs() < 0.5, "{tputs:?}");
}

#[test]
fn aggregate_is_dominated_by_the_hot_connection() {
    let (reg, _) = run_registry(50);
    assert_eq!(reg.connections(), 3);
    let hot = reg.last(0).expect("hot connection estimated");
    let cold = reg.last(1).expect("cold connection estimated");
    let agg = reg.aggregate().expect("aggregate");

    // The weighted aggregate must sit near the hot connection's latency
    // (within ~10%), far from the plain mean of the three.
    let hot_us = hot.latency.as_micros_f64();
    let agg_us = agg.latency.as_micros_f64();
    let plain_mean_us = (hot.latency.as_micros_f64()
        + cold.latency.as_micros_f64()
        + reg.last(2).expect("conn 2").latency.as_micros_f64())
        / 3.0;
    assert!(
        (agg_us - hot_us).abs() / hot_us < 0.10,
        "aggregate {agg_us:.1} µs should hug the hot connection {hot_us:.1} µs"
    );
    assert!(
        (agg_us - hot_us).abs() < (agg_us - plain_mean_us).abs(),
        "aggregate {agg_us:.1} µs should be closer to hot {hot_us:.1} than to the plain mean {plain_mean_us:.1}"
    );
    // Total throughput is the sum of the three.
    let sum: f64 = (0..3).map(|id| reg.last(id).unwrap().throughput).sum();
    assert!((agg.throughput - sum).abs() / sum < 1e-9);
}

fn synthetic_estimate(latency_us: u64, tput: f64) -> Estimate {
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

/// A policy fed the three-connection aggregate converges to the same arm,
/// in the same decision sequence, as one watching the hot connection
/// alone: the cold connections' contributions are noise the weighting
/// suppresses.
#[test]
fn policy_on_aggregate_converges_like_hot_connection_alone() {
    let mut solo = EpsilonGreedy::new(Objective::MinLatency, 0.05, 2, 0.5, 7);
    let mut multi = EpsilonGreedy::new(Objective::MinLatency, 0.05, 2, 0.5, 7);
    let mut solo_decisions = Vec::new();
    let mut multi_decisions = Vec::new();
    for _ in 0..2_000 {
        // Batching on improves the hot connection 500 → 100 µs; the cold
        // connections sit at 300 µs regardless.
        let solo_lat = if solo.current() { 100 } else { 500 };
        solo_decisions.push(solo.decide(&synthetic_estimate(solo_lat, 10_000.0)));

        let hot_lat = if multi.current() { 100 } else { 500 };
        let mut agg = MultiConnectionAggregator::new();
        agg.add(synthetic_estimate(hot_lat, 10_000.0));
        agg.add(synthetic_estimate(300, 100.0));
        agg.add(synthetic_estimate(300, 10.0));
        multi_decisions.push(multi.decide(&agg.aggregate().expect("aggregate")));
    }
    assert!(multi.current(), "aggregate-fed policy settles on batching");
    let on_solo = solo_decisions.iter().filter(|&&d| d).count();
    let on_multi = multi_decisions.iter().filter(|&&d| d).count();
    assert!(
        on_multi > 1_600,
        "aggregate-fed policy should exploit 'on': {on_multi}/2000"
    );
    // Same RNG seed, same objective: the cold connections shift scores a
    // few percent but must not change where the policy converges.
    assert!(
        (on_solo as i64 - on_multi as i64).unsigned_abs() < 200,
        "solo {on_solo} vs aggregate {on_multi} on-decisions diverged"
    );
}
