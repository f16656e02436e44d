//! Combining per-queue delays into end-to-end latency (paper §3.2).
//!
//! The decomposition, derived in the paper's Figure 3: a request's journey
//! client-send → server-recv plus the response's server-send → client-recv
//! can be approximated from four Little's-law queueing delays:
//!
//! ```text
//! L ≈ L_unacked^local − L_ackdelay^remote + L_unread^local + L_unread^remote
//! ```
//!
//! The *unacked* delay at the sender covers transmission until the
//! acknowledgment returns, which overshoots the one-way trip by the peer's
//! deliberate ACK delay — hence the subtracted `L_ackdelay^remote` — while
//! each side's *unread* delay adds the time data sat waiting for its
//! application.
//!
//! Everything here is a pure function over [`QueueWindow`]s — unit-less
//! deltas recoverable either from full-resolution snapshots
//! ([`EndpointSnapshots`]) or from the wire-encoded 36-byte exchange.
//! Both types are `littles`'s, re-exported here.

pub use littles::wire::EndpointSnapshots;
use littles::wire::{WireExchange, WireScale};
use littles::Nanos;
pub use littles::QueueWindow;

/// One endpoint's three queue windows over the same measurement interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointWindows {
    /// Sent-but-unacknowledged queue window.
    pub unacked: QueueWindow,
    /// Received-but-unread queue window.
    pub unread: QueueWindow,
    /// Delayed-ACK queue window.
    pub ackdelay: QueueWindow,
}

impl EndpointWindows {
    /// Windows between two snapshot sets of the same endpoint.
    pub fn between(prev: &EndpointSnapshots, cur: &EndpointSnapshots) -> Option<EndpointWindows> {
        Some(EndpointWindows {
            unacked: cur.unacked.window_since(&prev.unacked)?,
            unread: cur.unread.window_since(&prev.unread)?,
            ackdelay: cur.ackdelay.window_since(&prev.ackdelay)?,
        })
    }

    /// Accumulates an adjacent window set into this one: component-wise
    /// sums, the union window.
    pub fn merge(&mut self, other: &EndpointWindows) {
        self.unacked.merge(&other.unacked);
        self.unread.merge(&other.unread);
        self.ackdelay.merge(&other.ackdelay);
    }

    /// Per-queue difference of two cumulative window sets (see
    /// [`QueueWindow::since`]).
    pub fn since(&self, earlier: &EndpointWindows) -> EndpointWindows {
        EndpointWindows {
            unacked: self.unacked.since(&earlier.unacked),
            unread: self.unread.since(&earlier.unread),
            ackdelay: self.ackdelay.since(&earlier.ackdelay),
        }
    }

    /// Windows between two wire exchanges of the same endpoint.
    pub(crate) fn between_wire(
        prev: &WireExchange,
        cur: &WireExchange,
        scale: WireScale,
    ) -> Option<EndpointWindows> {
        Some(EndpointWindows {
            unacked: cur.unacked.window_since(&prev.unacked, scale)?,
            unread: cur.unread.window_since(&prev.unread, scale)?,
            ackdelay: cur.ackdelay.window_since(&prev.ackdelay, scale)?,
        })
    }
}

/// The four delays entering the decomposition, for inspection/debugging
/// and for routing estimate components to the knobs they blame (see
/// `route::Knob`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelaySet {
    /// `L_unacked` at the side whose perspective we compute.
    pub unacked_near: Nanos,
    /// `L_ackdelay` at the far side (subtracted).
    pub ackdelay_far: Nanos,
    /// `L_unread` at the near side.
    pub unread_near: Nanos,
    /// `L_unread` at the far side.
    pub unread_far: Nanos,
}

impl DelaySet {
    /// Evaluates the decomposition, clamped at zero (the subtraction is an
    /// approximation and can transiently undershoot).
    pub fn latency(&self) -> Nanos {
        (self.unacked_near + self.unread_near + self.unread_far).saturating_sub(self.ackdelay_far)
    }
}

/// Computes end-to-end latency from one side's perspective:
/// `L ≈ unacked(near) − ackdelay(far) + unread(near) + unread(far)`.
pub fn combine_delays(near: &EndpointWindows, far: &EndpointWindows) -> DelaySet {
    DelaySet {
        unacked_near: near.unacked.delay(),
        ackdelay_far: far.ackdelay.delay(),
        unread_near: near.unread.delay(),
        unread_far: far.unread.delay(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::Snapshot;

    fn window(dt_us: u64, total: u64, integral_item_us: u128) -> QueueWindow {
        QueueWindow {
            dt: Nanos::from_micros(dt_us),
            d_total: total,
            d_integral: integral_item_us * 1_000,
        }
    }

    #[test]
    fn delay_is_integral_over_total() {
        let w = window(100, 4, 90);
        assert_eq!(w.delay(), Nanos::from_nanos(22_500));
    }

    #[test]
    fn idle_queue_delay_is_zero() {
        let w = window(100, 0, 0);
        assert_eq!(w.delay(), Nanos::ZERO);
    }

    #[test]
    fn stalled_queue_delay_is_window() {
        let w = window(100, 0, 50);
        assert_eq!(w.delay(), Nanos::from_micros(100));
    }

    #[test]
    fn throughput_in_items_per_second() {
        let w = window(1_000, 500, 0);
        assert!((w.throughput() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn decomposition_matches_hand_computation() {
        // Near: unacked 80 µs, unread 30 µs. Far: ackdelay 20 µs, unread
        // 10 µs. L = 80 − 20 + 30 + 10 = 100 µs.
        let near = EndpointWindows {
            unacked: window(1000, 10, 800),
            unread: window(1000, 10, 300),
            ackdelay: window(1000, 10, 50),
        };
        let far = EndpointWindows {
            unacked: window(1000, 10, 100),
            unread: window(1000, 10, 100),
            ackdelay: window(1000, 10, 200),
        };
        let set = combine_delays(&near, &far);
        assert_eq!(set.unacked_near, Nanos::from_micros(80));
        assert_eq!(set.ackdelay_far, Nanos::from_micros(20));
        assert_eq!(set.latency(), Nanos::from_micros(100));
    }

    #[test]
    fn negative_combination_clamps_to_zero() {
        let near = EndpointWindows {
            unacked: window(1000, 10, 10),
            unread: window(1000, 10, 0),
            ackdelay: window(1000, 10, 0),
        };
        let far = EndpointWindows {
            unacked: window(1000, 10, 0),
            unread: window(1000, 10, 0),
            ackdelay: window(1000, 10, 500),
        };
        assert_eq!(combine_delays(&near, &far).latency(), Nanos::ZERO);
    }

    #[test]
    fn windows_from_snapshots_roundtrip_through_wire() {
        let prev = EndpointSnapshots {
            unacked: Snapshot {
                time: Nanos::from_micros(100),
                total: 10,
                integral: 1_000_000,
            },
            unread: Snapshot {
                time: Nanos::from_micros(100),
                total: 20,
                integral: 2_000_000,
            },
            ackdelay: Snapshot {
                time: Nanos::from_micros(100),
                total: 30,
                integral: 3_000_000,
            },
        };
        let cur = EndpointSnapshots {
            unacked: Snapshot {
                time: Nanos::from_micros(1_100),
                total: 50,
                integral: 9_000_000,
            },
            unread: Snapshot {
                time: Nanos::from_micros(1_100),
                total: 60,
                integral: 4_000_000,
            },
            ackdelay: Snapshot {
                time: Nanos::from_micros(1_100),
                total: 70,
                integral: 3_500_000,
            },
        };
        let full = EndpointWindows::between(&prev, &cur).unwrap();

        let scale = WireScale::UNSCALED;
        let wprev = WireExchange::pack(&prev.unacked, &prev.unread, &prev.ackdelay, scale);
        let wcur = WireExchange::pack(&cur.unacked, &cur.unread, &cur.ackdelay, scale);
        let wire = EndpointWindows::between_wire(&wprev, &wcur, scale).unwrap();
        assert_eq!(full, wire);
    }

    #[test]
    fn empty_window_is_none() {
        let s = EndpointSnapshots::default();
        assert!(EndpointWindows::between(&s, &s).is_none());
    }
}
