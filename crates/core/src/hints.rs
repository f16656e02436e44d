//! The cooperative-application interface (paper §3.3).
//!
//! System calls do not always correspond to application messages (e.g.
//! batched syscalls), so the paper proposes a minimalist userspace API:
//! the application invokes `create(n)` when issuing requests and
//! `complete(n)` when receiving responses. These are thin wrappers around
//! the `TRACK` procedure over a single *logical* request queue whose
//! residency **is** the end-to-end latency as the application defines it.
//!
//! The client passes the resulting queue state to `send` via ancillary
//! data; its stack forwards it to the server, which can then estimate
//! end-to-end performance from this one queue — no other monitoring
//! needed, and the server need not share its own states back.

use littles::wire::{WireScale, WireSnapshot};
use littles::{Nanos, QueueState, Snapshot};

/// The userspace request tracker: one logical queue of in-flight requests.
///
/// # Examples
///
/// ```
/// use e2e_core::RequestTracker;
/// use littles::Nanos;
///
/// let mut t = RequestTracker::new(Nanos::ZERO);
/// t.create(Nanos::from_micros(0), 1);   // request issued
/// t.complete(Nanos::from_micros(80), 1); // response received
/// assert_eq!(t.in_flight(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTracker {
    state: QueueState,
}

impl RequestTracker {
    /// Creates a tracker anchored at `now`.
    pub fn new(now: Nanos) -> Self {
        RequestTracker {
            state: QueueState::new(now),
        }
    }

    /// Records `n` requests issued at `now` (the paper's `create(n)`).
    pub fn create(&mut self, now: Nanos, n: u32) {
        self.state.track(now, n as i64);
    }

    /// Records `n` responses received at `now` (the paper's
    /// `complete(n)`).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if more requests complete than were created.
    pub fn complete(&mut self, now: Nanos, n: u32) {
        self.state.track(now, -(n as i64));
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> i64 {
        self.state.size()
    }

    /// The snapshot to pass as ancillary data with `send`.
    pub fn snapshot(&self, now: Nanos) -> Snapshot {
        self.state.peek(now)
    }

    /// End-to-end averages between two of this tracker's snapshots — what
    /// the *client* itself observes (useful for validation).
    pub fn averages(prev: &Snapshot, cur: &Snapshot) -> Option<littles::Averages> {
        cur.averages_since(prev)
    }
}

/// Server-side estimator over forwarded hints: consumes successive hint
/// snapshots and yields the client-defined end-to-end latency/throughput.
#[derive(Debug, Clone, Default)]
pub struct HintEstimator {
    prev: Option<WireSnapshot>,
    scale: WireScale,
    last: Option<HintEstimate>,
}

/// An estimate derived from the hint queue alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HintEstimate {
    /// Average end-to-end latency of the client's requests.
    pub latency: Option<Nanos>,
    /// Completed requests per second.
    pub(crate) throughput: f64,
    /// Average number of requests in flight.
    pub(crate) in_flight: f64,
}

impl HintEstimator {
    /// Creates an estimator using the given wire scale.
    pub fn new(scale: WireScale) -> Self {
        HintEstimator {
            prev: None,
            scale,
            last: None,
        }
    }

    /// Feeds the latest forwarded hint; returns an estimate once two
    /// distinct hints have arrived.
    pub fn update(&mut self, hint: WireSnapshot) -> Option<HintEstimate> {
        let prev = match self.prev {
            Some(p) if p != hint => p,
            Some(_) => return self.last,
            None => {
                self.prev = Some(hint);
                return None;
            }
        };
        self.prev = Some(hint);
        let w = hint.window_since(&prev, self.scale)?;
        let est = HintEstimate {
            latency: w.delay(),
            throughput: w.throughput(),
            in_flight: w.avg_occupancy(),
        };
        self.last = Some(est);
        Some(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_in_flight() {
        let mut t = RequestTracker::new(Nanos::ZERO);
        t.create(Nanos::from_micros(1), 3);
        assert_eq!(t.in_flight(), 3);
        t.complete(Nanos::from_micros(5), 2);
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn tracker_latency_is_exact_for_fifo_requests() {
        // Three requests, each taking exactly 100 µs.
        let mut t = RequestTracker::new(Nanos::ZERO);
        let s0 = t.snapshot(Nanos::ZERO);
        for i in 0..3u64 {
            t.create(Nanos::from_micros(i * 10), 1);
        }
        for i in 0..3u64 {
            t.complete(Nanos::from_micros(i * 10 + 100), 1);
        }
        let s1 = t.snapshot(Nanos::from_micros(200));
        let a = RequestTracker::averages(&s0, &s1).unwrap();
        assert_eq!(a.delay.unwrap(), Nanos::from_micros(100));
    }

    #[test]
    fn hint_estimator_recovers_latency_through_the_wire() {
        let mut t = RequestTracker::new(Nanos::ZERO);
        let mut est = HintEstimator::new(WireScale::UNSCALED);

        let first = WireSnapshot::pack(&t.snapshot(Nanos::ZERO), WireScale::UNSCALED);
        assert!(est.update(first).is_none(), "one hint is not enough");

        // Interleave events in time order: creates every 50 µs, each
        // completing exactly 200 µs later.
        let mut events: Vec<(u64, i64)> = (0..10u64)
            .flat_map(|i| [(i * 50, 1i64), (i * 50 + 200, -1i64)])
            .collect();
        events.sort_unstable();
        for (t_us, delta) in events {
            if delta > 0 {
                t.create(Nanos::from_micros(t_us), 1);
            } else {
                t.complete(Nanos::from_micros(t_us), 1);
            }
        }
        let snap = t.snapshot(Nanos::from_micros(700));
        let e = est
            .update(WireSnapshot::pack(&snap, WireScale::UNSCALED))
            .expect("second hint yields estimate");
        assert_eq!(e.latency.unwrap(), Nanos::from_micros(200));
        // 10 completions over 700 µs.
        let expect_tput = 10.0 / 700e-6;
        assert!((e.throughput - expect_tput).abs() / expect_tput < 1e-9);
    }

    #[test]
    fn duplicate_hint_returns_cached_estimate() {
        let mut t = RequestTracker::new(Nanos::ZERO);
        let mut est = HintEstimator::new(WireScale::UNSCALED);
        est.update(WireSnapshot::pack(
            &t.snapshot(Nanos::ZERO),
            WireScale::UNSCALED,
        ));
        t.create(Nanos::from_micros(1), 1);
        t.complete(Nanos::from_micros(11), 1);
        let snap = WireSnapshot::pack(&t.snapshot(Nanos::from_micros(20)), WireScale::UNSCALED);
        let e1 = est.update(snap);
        let e2 = est.update(snap);
        assert_eq!(e1, e2);
    }

    #[test]
    fn batch_create_complete() {
        // create(n)/complete(n) with n > 1 must weight the average by n.
        let mut t = RequestTracker::new(Nanos::ZERO);
        let s0 = t.snapshot(Nanos::ZERO);
        t.create(Nanos::ZERO, 4);
        t.complete(Nanos::from_micros(100), 4);
        let s1 = t.snapshot(Nanos::from_micros(100));
        let a = RequestTracker::averages(&s0, &s1).unwrap();
        assert_eq!(a.delay.unwrap(), Nanos::from_micros(100));
        assert_eq!(s1.total - s0.total, 4);
    }
}
