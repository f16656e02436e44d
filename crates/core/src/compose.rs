//! Composing per-leg estimates along a multi-hop service path.
//!
//! In a two-tier deployment a request crosses *two* connections — client
//! to proxy, proxy to shard — and the client-perceived latency is the sum
//! of the per-leg end-to-end latencies (each leg's Figure 3 decomposition
//! already accounts for the queueing on its own hop, including the
//! proxy's application read delay, which is exactly the unread queue of
//! the front leg). Composition is therefore field-wise addition of the
//! delay terms, while the path-level throughput is the bottleneck leg's
//! and the path-level confidence is the *weakest* leg's: a path estimate
//! is only as trustworthy as its least-trusted segment.

use crate::combine::DelaySet;
use crate::estimator::Estimate;

/// Composes two legs' estimates into one service-level estimate for the
/// whole path, `front` the client-facing leg — the two-tier proxy case.
///
/// * latency, smoothed latency, both views and the delay components:
///   summed (the request traverses both legs in series);
/// * throughput: the minimum (the path drains no faster than its
///   bottleneck);
/// * confidence: the minimum;
/// * `at`: the newer leg's timestamp (the estimate is as fresh as the
///   more recently updated leg, but see confidence for trust);
/// * `remote_stale`: only when both legs are.
///
/// A longer path composes by chaining: the result is an estimate too.
pub fn compose_two(front: &Estimate, back: &Estimate) -> Estimate {
    let (f, b) = (&front.components, &back.components);
    Estimate {
        at: front.at.max(back.at),
        latency: front.latency + back.latency,
        smoothed_latency: front.smoothed_latency + back.smoothed_latency,
        throughput: front.throughput.min(back.throughput),
        local_view: front.local_view + back.local_view,
        remote_view: front.remote_view + back.remote_view,
        confidence: front.confidence.min(back.confidence),
        remote_stale: front.remote_stale && back.remote_stale,
        components: DelaySet {
            unacked_near: f.unacked_near + b.unacked_near,
            ackdelay_far: f.ackdelay_far + b.ackdelay_far,
            unread_near: f.unread_near + b.unread_near,
            unread_far: f.unread_far + b.unread_far,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::Nanos;

    fn leg(latency_us: u64, tput: f64, confidence: f64, at_us: u64) -> Estimate {
        Estimate {
            at: Nanos::from_micros(at_us),
            latency: Nanos::from_micros(latency_us),
            smoothed_latency: Nanos::from_micros(latency_us),
            throughput: tput,
            local_view: Nanos::from_micros(latency_us),
            remote_view: Nanos::from_micros(latency_us),
            confidence,
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
    fn latencies_sum_and_throughput_bottlenecks() {
        let front = leg(100, 9_000.0, 1.0, 10);
        let back = leg(250, 4_000.0, 1.0, 30);
        let c = compose_two(&front, &back);
        assert_eq!(c.latency, Nanos::from_micros(350));
        assert_eq!(c.smoothed_latency, Nanos::from_micros(350));
        assert!((c.throughput - 4_000.0).abs() < 1e-9, "bottleneck leg wins");
        assert_eq!(c.at, Nanos::from_micros(30), "freshest leg stamps the path");
        assert_eq!(c.local_view, Nanos::from_micros(350));
    }

    #[test]
    fn confidence_is_the_weakest_leg() {
        let front = leg(100, 1_000.0, 0.9, 10);
        let back = leg(100, 1_000.0, 0.2, 10);
        let c = compose_two(&front, &back);
        assert!((c.confidence - 0.2).abs() < 1e-9);
    }

    #[test]
    fn components_sum_field_wise() {
        let mut front = leg(100, 1_000.0, 1.0, 10);
        front.components.unread_far = Nanos::from_micros(40);
        let mut back = leg(200, 1_000.0, 1.0, 10);
        back.components.unread_near = Nanos::from_micros(70);
        let c = compose_two(&front, &back);
        assert_eq!(c.components.unacked_near, Nanos::from_micros(300));
        assert_eq!(c.components.unread_near, Nanos::from_micros(70));
        assert_eq!(c.components.unread_far, Nanos::from_micros(40));
    }

    #[test]
    fn stale_only_when_both_legs_are() {
        let mut front = leg(100, 1_000.0, 1.0, 10);
        let mut back = leg(100, 1_000.0, 1.0, 10);
        front.remote_stale = true;
        assert!(!compose_two(&front, &back).remote_stale);
        back.remote_stale = true;
        assert!(compose_two(&front, &back).remote_stale);
    }

    #[test]
    fn three_legs_chain() {
        let legs = [
            leg(100, 3_000.0, 0.9, 5),
            leg(50, 2_000.0, 0.7, 15),
            leg(25, 6_000.0, 1.0, 10),
        ];
        let c = compose_two(&compose_two(&legs[0], &legs[1]), &legs[2]);
        assert_eq!(c.latency, Nanos::from_micros(175));
        assert!((c.throughput - 2_000.0).abs() < 1e-9);
        assert!((c.confidence - 0.7).abs() < 1e-9);
        assert_eq!(c.at, Nanos::from_micros(15));
    }
}
