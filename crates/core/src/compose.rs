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
use crate::multi::AggregateEstimate;

/// Composes per-leg aggregates into one service-level estimate for the
/// whole path, leg order front-to-back (client-facing leg first).
///
/// * latency / smoothed latency / delay components: summed across legs
///   (the request traverses every leg in series);
/// * throughput: the minimum across legs (the path drains no faster than
///   its bottleneck);
/// * confidence: the minimum across legs;
/// * `at`: the newest leg's timestamp (the estimate is as fresh as the
///   most recently updated leg, but see confidence for trust);
/// * connection counts (total and stale): summed.
///
/// Returns `None` when `legs` is empty — a path with no observed legs has
/// no estimate.
pub fn compose_legs(legs: &[AggregateEstimate]) -> Option<AggregateEstimate> {
    let first = legs.first()?;
    let mut out = *first;
    for leg in &legs[1..] {
        out.at = out.at.max(leg.at);
        out.latency += leg.latency;
        out.smoothed_latency += leg.smoothed_latency;
        out.throughput = out.throughput.min(leg.throughput);
        out.connections += leg.connections;
        out.confidence = out.confidence.min(leg.confidence);
        out.stale_connections += leg.stale_connections;
        out.components = DelaySet {
            unacked_near: out.components.unacked_near + leg.components.unacked_near,
            ackdelay_far: out.components.ackdelay_far + leg.components.ackdelay_far,
            unread_near: out.components.unread_near + leg.components.unread_near,
            unread_far: out.components.unread_far + leg.components.unread_far,
        };
    }
    Some(out)
}

/// [`compose_legs`] over exactly two legs — the two-tier proxy case,
/// named for call-site clarity.
pub fn compose_two(front: &AggregateEstimate, back: &AggregateEstimate) -> AggregateEstimate {
    // The None arm is unreachable (the slice is non-empty by
    // construction), but falling back to the front leg keeps this
    // panic-free library code.
    compose_legs(&[*front, *back]).unwrap_or(*front)
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::Nanos;

    fn leg(latency_us: u64, tput: f64, confidence: f64, at_us: u64) -> AggregateEstimate {
        AggregateEstimate {
            at: Nanos::from_micros(at_us),
            latency: Nanos::from_micros(latency_us),
            smoothed_latency: Nanos::from_micros(latency_us),
            throughput: tput,
            connections: 1,
            confidence,
            stale_connections: 0,
            components: DelaySet {
                unacked_near: Nanos::from_micros(latency_us),
                ackdelay_far: Nanos::ZERO,
                unread_near: Nanos::ZERO,
                unread_far: Nanos::ZERO,
            },
        }
    }

    #[test]
    fn no_legs_no_estimate() {
        assert!(compose_legs(&[]).is_none());
    }

    #[test]
    fn single_leg_passes_through() {
        let l = leg(100, 5_000.0, 0.8, 10);
        let c = compose_legs(&[l]).unwrap();
        assert_eq!(c, l);
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
        assert_eq!(c.connections, 2);
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
    fn stale_counts_accumulate() {
        let mut front = leg(100, 1_000.0, 1.0, 10);
        front.stale_connections = 2;
        let mut back = leg(100, 1_000.0, 1.0, 10);
        back.stale_connections = 1;
        assert_eq!(compose_two(&front, &back).stale_connections, 3);
    }

    #[test]
    fn three_legs_chain() {
        let legs = [
            leg(100, 3_000.0, 0.9, 5),
            leg(50, 2_000.0, 0.7, 15),
            leg(25, 6_000.0, 1.0, 10),
        ];
        let c = compose_legs(&legs).unwrap();
        assert_eq!(c.latency, Nanos::from_micros(175));
        assert!((c.throughput - 2_000.0).abs() < 1e-9);
        assert!((c.confidence - 0.7).abs() < 1e-9);
        assert_eq!(c.at, Nanos::from_micros(15));
    }
}
