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
//! needed, and the server need not share its own states back. Its
//! counters are cumulative, so the estimate over any stretch is one
//! division of two counter differences: the server folds each fresh hint's
//! differences into running sums and reads those by difference.

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

    /// The snapshot to pass as ancillary data with `send`. The window
    /// between two of them ([`Snapshot::window_since`]) is what the
    /// *client* itself observes (useful for validation).
    pub fn snapshot(&self, now: Nanos) -> Snapshot {
        self.state.peek(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::wire::{WireScale, WireSnapshot};

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
        let w = s1.window_since(&s0).unwrap();
        assert_eq!(w.mean_delay(), Some(Nanos::from_micros(100)));
    }

    /// The server's estimate from two hints is their wire window: the
    /// counters' differences, un-scaled, give the tracker's latency and
    /// throughput exactly.
    #[test]
    fn hint_estimator_recovers_latency_through_the_wire() {
        let scale = WireScale::UNSCALED;
        let mut t = RequestTracker::new(Nanos::ZERO);
        let first = WireSnapshot::pack(&t.snapshot(Nanos::ZERO), scale);
        assert!(
            first.window_since(&first, scale).is_none(),
            "one hint is not enough"
        );

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
        let snap = WireSnapshot::pack(&t.snapshot(Nanos::from_micros(700)), scale);
        let e = snap
            .window_since(&first, scale)
            .expect("second hint yields estimate");
        assert_eq!(e.mean_delay(), Some(Nanos::from_micros(200)));
        // 10 completions over 700 µs.
        let expect_tput = 10.0 / 700e-6;
        assert!((e.throughput() - expect_tput).abs() / expect_tput < 1e-9);
    }

    /// A hint read twice adds nothing: it opens no window against itself,
    /// so the estimate from the hints before it stands unchanged.
    #[test]
    fn duplicate_hint_returns_cached_estimate() {
        let scale = WireScale::UNSCALED;
        let mut t = RequestTracker::new(Nanos::ZERO);
        let first = WireSnapshot::pack(&t.snapshot(Nanos::ZERO), scale);
        t.create(Nanos::from_micros(1), 1);
        t.complete(Nanos::from_micros(11), 1);
        let snap = WireSnapshot::pack(&t.snapshot(Nanos::from_micros(20)), scale);
        let dup = snap;
        let e1 = snap.window_since(&first, scale).expect("an estimate");
        assert_eq!(
            dup.window_since(&snap, scale),
            None,
            "the repeat folds nothing"
        );
        assert_eq!(dup.window_since(&first, scale), Some(e1));
        assert_eq!(e1.mean_delay(), Some(Nanos::from_micros(10)));
    }

    #[test]
    fn batch_create_complete() {
        // create(n)/complete(n) with n > 1 must weight the average by n.
        let mut t = RequestTracker::new(Nanos::ZERO);
        let s0 = t.snapshot(Nanos::ZERO);
        t.create(Nanos::ZERO, 4);
        t.complete(Nanos::from_micros(100), 4);
        let s1 = t.snapshot(Nanos::from_micros(100));
        let w = s1.window_since(&s0).unwrap();
        assert_eq!(w.mean_delay(), Some(Nanos::from_micros(100)));
        assert_eq!(w.d_total, 4);
    }
}
