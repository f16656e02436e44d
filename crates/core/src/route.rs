//! Routing estimate components to batching knobs.
//!
//! The §3.2 decomposition does not just produce one number — each of its
//! four per-queue delays is *caused* by an identifiable batching
//! mechanism. A multi-knob control plane exploits that: rather than
//! feeding every controller the same headline latency (so every knob gets
//! blamed for every stall), each knob's controller scores the component
//! of the estimate that its mechanism actually moves:
//!
//! * **Nagle** shapes the whole request/response round trip — holding a
//!   sub-MSS tail delays the request leg, the peer's reply, and the ACK
//!   clock all at once. Its view is the *full* estimate, unchanged.
//!   (This identity is load-bearing: a control plane configured with only
//!   a Nagle controller must reproduce the single-knob policy's decisions
//!   bit-for-bit.)
//! * **Delayed ACKs** show up as the far side's deliberate ACK delay —
//!   the `L_ackdelay^remote` term. A quick-ack switch can remove exactly
//!   that component and nothing else.
//! * **Cork / gradual batching** holds data in the sender's queue while
//!   earlier data is in flight, and the coalesced burst then waits at the
//!   receiver — `L_unacked^near + L_unread^far`.
//!
//! A view replaces the estimate's `latency` and `smoothed_latency` with
//! the routed component but keeps throughput, confidence, and staleness
//! untouched: the knob sees *its* share of the delay at the *shared*
//! trust level.

use littles::Nanos;

use crate::estimator::Estimate;

/// One of the batching knobs the control plane can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Dynamic Nagle (hold sub-MSS tails while data is in flight).
    Nagle,
    /// Delayed-ACK mode (quick vs delayed).
    DelAck,
    /// Send-side cork/coalesce byte limit (gradual batching).
    Cork,
}

impl Knob {
    /// The latency component this knob is accountable for, out of the
    /// four-delay decomposition behind an estimate.
    pub(crate) fn component(self, e: &Estimate) -> Nanos {
        match self {
            Knob::Nagle => e.latency,
            Knob::DelAck => e.components.ackdelay_far,
            Knob::Cork => e.components.unacked_near + e.components.unread_far,
        }
    }
}

impl Estimate {
    /// This estimate as seen by one knob's controller: `latency` and
    /// `smoothed_latency` are replaced by the knob's routed component
    /// (identity for [`Knob::Nagle`]); everything else — throughput,
    /// confidence, staleness, timestamps — carries through unchanged.
    pub fn knob_view(&self, knob: Knob) -> Estimate {
        if matches!(knob, Knob::Nagle) {
            return *self;
        }
        let component = knob.component(self);
        Estimate {
            latency: component,
            smoothed_latency: component,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::DelaySet;
    use crate::multi::MultiConnectionAggregator;

    fn est() -> Estimate {
        Estimate {
            at: Nanos::from_micros(10),
            latency: Nanos::from_micros(100),
            smoothed_latency: Nanos::from_micros(90),
            throughput: 5_000.0,
            local_view: Nanos::from_micros(100),
            remote_view: Nanos::from_micros(80),
            confidence: 0.7,
            remote_stale: false,
            components: DelaySet {
                unacked_near: Nanos::from_micros(60),
                ackdelay_far: Nanos::from_micros(15),
                unread_near: Nanos::from_micros(25),
                unread_far: Nanos::from_micros(30),
            },
        }
    }

    #[test]
    fn nagle_view_is_the_identity() {
        let e = est();
        assert_eq!(e.knob_view(Knob::Nagle), e);
    }

    #[test]
    fn delack_view_is_the_far_ack_delay() {
        let v = est().knob_view(Knob::DelAck);
        assert_eq!(v.latency, Nanos::from_micros(15));
        assert_eq!(v.smoothed_latency, Nanos::from_micros(15));
        // Everything else carries through.
        assert!((v.throughput - 5_000.0).abs() < 1e-9);
        assert!((v.confidence - 0.7).abs() < 1e-9);
        assert_eq!(v.at, est().at);
    }

    #[test]
    fn cork_view_is_sender_hold_plus_far_unread() {
        let v = est().knob_view(Knob::Cork);
        assert_eq!(v.latency, Nanos::from_micros(90));
        assert_eq!(v.smoothed_latency, Nanos::from_micros(90));
    }

    #[test]
    fn aggregate_views_route_the_same_components() {
        let mut agg = MultiConnectionAggregator::new();
        for throughput in [600.0, 400.0] {
            agg.add(Estimate {
                throughput,
                ..est()
            });
        }
        let e = agg.aggregate().unwrap();
        assert_eq!(e.knob_view(Knob::Nagle), e);
        assert_eq!(e.knob_view(Knob::DelAck).latency, Nanos::from_micros(15));
        assert_eq!(e.knob_view(Knob::Cork).latency, Nanos::from_micros(90));
        assert!((e.knob_view(Knob::Cork).throughput - 1_000.0).abs() < 1e-9);
    }
}
