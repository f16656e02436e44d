//! Property-style tests for the latency decomposition.
//!
//! Formerly proptest-based; rewritten as seeded SplitMix64 sweeps because
//! the workspace builds with no registry dependencies. A fixed seed keeps
//! every run identical.

use e2e_core::combine::{combine_delays, EndpointWindows, QueueWindow};
use e2e_core::{E2eEstimator, RequestTracker};
use littles::wire::{WireExchange, WireScale};
use littles::{Nanos, QueueState, Snapshot};

/// Deterministic SplitMix64 case generator (e2e-core cannot depend on
/// simnet — that would invert the crate layering).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn window(rng: &mut SplitMix64) -> QueueWindow {
    QueueWindow {
        dt: Nanos::from_nanos(rng.range(1, 10_000_000)),
        d_total: rng.range(0, 10_000),
        d_integral: (rng.next() as u128) & ((1u128 << 40) - 1),
    }
}

fn endpoint(rng: &mut SplitMix64) -> EndpointWindows {
    EndpointWindows {
        unacked: window(rng),
        unread: window(rng),
        ackdelay: window(rng),
    }
}

/// The decomposition never panics and never returns a negative latency
/// (the subtraction clamps; `Nanos` is unsigned by type).
#[test]
fn latency_is_total_and_nonnegative() {
    let mut rng = SplitMix64(0x1A7E);
    for _ in 0..500 {
        let near = endpoint(&mut rng);
        let far = endpoint(&mut rng);
        let set = combine_delays(&near, &far);
        let _ = set.latency();
    }
}

/// Monotonicity: growing any *added* component cannot lower the combined
/// latency; growing the subtracted one cannot raise it.
#[test]
fn latency_monotone_in_components() {
    let mut rng = SplitMix64(0x300E);
    for _ in 0..500 {
        let near = endpoint(&mut rng);
        let far = endpoint(&mut rng);
        let extra = (rng.next() as u128) & ((1u128 << 30) - 1) | 1;
        let base = combine_delays(&near, &far).latency();

        let mut more_unread = near;
        more_unread.unread.d_integral += extra * more_unread.unread.d_total.max(1) as u128;
        let grown = combine_delays(&more_unread, &far).latency();
        assert!(grown >= base, "adding unread delay lowered L");

        let mut more_ackdelay = far;
        more_ackdelay.ackdelay.d_integral += extra * more_ackdelay.ackdelay.d_total.max(1) as u128;
        let shrunk = combine_delays(&near, &more_ackdelay).latency();
        assert!(shrunk <= base, "adding remote ackdelay raised L");
    }
}

/// The delay fallbacks: idle → 0, stalled → window length.
#[test]
fn delay_fallbacks() {
    let mut rng = SplitMix64(0xFA11);
    for _ in 0..500 {
        let dt = rng.range(1, 1_000_000);
        let idle = QueueWindow {
            dt: Nanos::from_nanos(dt),
            d_total: 0,
            d_integral: 0,
        };
        assert_eq!(idle.delay(), Nanos::ZERO);
        let stalled = QueueWindow {
            dt: Nanos::from_nanos(dt),
            d_total: 0,
            d_integral: 1,
        };
        assert_eq!(stalled.delay(), Nanos::from_nanos(dt));
    }
}

/// The estimator is insensitive to tick cadence: feeding the same queue
/// activity with intermediate local snapshots yields estimates bounded by
/// the true per-period residency.
#[test]
fn estimator_outputs_bounded_by_activity() {
    let mut rng = SplitMix64(0xE571);
    for _ in 0..100 {
        let period_us = rng.range(50, 500);
        let residency_us = rng.range(1, 40);
        let us = Nanos::from_micros;
        let mut unacked = QueueState::new(Nanos::ZERO);
        let mut est = E2eEstimator::new(WireScale::UNSCALED, 1.0);
        let mut max_seen = Nanos::ZERO;
        for p in 0..30u64 {
            let t0 = us(p * period_us);
            unacked.track(t0, 1);
            unacked.track(t0 + us(residency_us.min(period_us - 1)), -1);
            let tick = us((p + 1) * period_us);
            let snap = unacked.peek(tick);
            let local = e2e_core::combine::EndpointSnapshots {
                unacked: snap,
                unread: Snapshot {
                    time: tick,
                    ..Snapshot::default()
                },
                ackdelay: Snapshot {
                    time: tick,
                    ..Snapshot::default()
                },
            };
            let idle = QueueState::new(Nanos::ZERO).peek(tick);
            let remote = WireExchange::pack(&idle, &idle, &idle, WireScale::UNSCALED);
            if let Some(e) = est.update(tick, local, Some(remote)) {
                max_seen = max_seen.max(e.latency);
            }
        }
        // All estimates bounded by the true residency (± rounding).
        assert!(
            max_seen <= us(residency_us) + Nanos::from_nanos(1),
            "estimate {max_seen} exceeds true residency {residency_us}us"
        );
    }
}

/// Tracker round-trip: create/complete pairs in FIFO order recover the
/// exact mean residency through the hint path.
#[test]
fn tracker_mean_exact_for_uniform_residency() {
    let mut rng = SplitMix64(0x7247);
    for _ in 0..300 {
        let n = rng.range(1, 50);
        let gap_us = rng.range(1, 100);
        let residency_us = rng.range(1, 2_000);
        let us = Nanos::from_micros;
        let mut t = RequestTracker::new(Nanos::ZERO);
        let s0 = t.snapshot(Nanos::ZERO);
        let mut events: Vec<(u64, bool)> = (0..n)
            .flat_map(|i| [(i * gap_us, true), (i * gap_us + residency_us, false)])
            .collect();
        events.sort();
        for (at, create) in events {
            if create {
                t.create(us(at), 1);
            } else {
                t.complete(us(at), 1);
            }
        }
        let s1 = t.snapshot(us(n * gap_us + residency_us + 1));
        let window = s1.window_since(&s0).unwrap();
        assert_eq!(window.rounded_delay(), Some(us(residency_us)));
    }
}
