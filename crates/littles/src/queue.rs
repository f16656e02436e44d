//! Queue-state tracking (Algorithm 1) and window averages (Algorithm 2).
//!
//! A [`QueueState`] is the paper's 4-tuple `(time, size, total, integral)`.
//! [`QueueState::track`] is the `TRACK` procedure: called with the (signed)
//! change in occupancy, it first accrues `size · dt` into the integral and
//! then applies the change, crediting departures to `total`.
//!
//! A [`Snapshot`] is the 3-tuple `(time, total, integral)` that peers
//! exchange — `size` is not needed by `GETAVGS`. Subtracting two snapshots
//! ([`Snapshot::averages_since`]) yields [`Averages`]: average occupancy,
//! throughput, and Little's-law queueing delay for the window between them.


use crate::time::Nanos;

/// Per-queue tracking state (the paper's Algorithm 1).
///
/// The state is O(1) in space and each [`track`](Self::track) call is O(1)
/// integer arithmetic, which is what makes it cheap enough to invoke on
/// every socket-buffer occupancy change.
///
/// Invariants: `size ≥ 0` (enforced with a debug assertion — a negative
/// occupancy means the caller removed items it never added), and `integral`
/// and `total` are monotonically non-decreasing.
///
/// # Examples
///
/// ```
/// use littles::{Nanos, QueueState};
///
/// let mut q = QueueState::new(Nanos::ZERO);
/// q.track(Nanos::from_micros(0), 2);  // two items enter
/// q.track(Nanos::from_micros(5), -1); // one leaves after 5 µs
/// assert_eq!(q.size(), 1);
/// assert_eq!(q.total(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueState {
    time: Nanos,
    size: i64,
    total: u64,
    integral: u128,
}

impl QueueState {
    /// Creates an empty queue state anchored at `now`.
    pub fn new(now: Nanos) -> Self {
        QueueState {
            time: now,
            size: 0,
            total: 0,
            integral: 0,
        }
    }

    /// The `TRACK` procedure: records that `nitems` items entered
    /// (`nitems > 0`) or left (`nitems < 0`) the queue at time `now`.
    ///
    /// Calling with `nitems == 0` merely accrues the time-weighted integral
    /// up to `now` (used before taking a snapshot).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `now` precedes the last update or if the
    /// occupancy would go negative.
    pub fn track(&mut self, now: Nanos, nitems: i64) { // hot-path: runs on every enqueue/dequeue
        debug_assert!(
            now >= self.time,
            "TRACK time went backwards: {} < {}",
            now,
            self.time
        );
        let dt = now.saturating_sub(self.time);
        self.time = now;
        self.integral += self.size.max(0) as u128 * dt.as_nanos() as u128;
        self.size += nitems;
        debug_assert!(self.size >= 0, "queue occupancy went negative");
        if nitems < 0 {
            self.total += nitems.unsigned_abs();
        }
    }

    /// Current occupancy.
    #[inline]
    pub fn size(&self) -> i64 {
        self.size
    }

    /// Cumulative departures since creation.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw time-weighted occupancy integral, in item-nanoseconds, as of the
    /// last update.
    #[inline]
    pub fn integral(&self) -> u128 {
        self.integral
    }

    /// Takes a [`Snapshot`] at `now`, first accruing the integral up to
    /// `now` so the snapshot does not lag behind wall time.
    pub fn snapshot(&mut self, now: Nanos) -> Snapshot {
        self.track(now, 0);
        Snapshot {
            time: self.time,
            total: self.total,
            integral: self.integral,
        }
    }

    /// Computes the snapshot that [`snapshot`](Self::snapshot) would return
    /// at `now`, without mutating the state.
    ///
    /// Useful when the state is shared and the caller only has `&self`.
    pub fn peek(&self, now: Nanos) -> Snapshot {
        Snapshot {
            time: self.time,
            total: self.total,
            integral: self.integral,
        }
        .advanced(self.size, now)
    }
}

/// The 3-tuple `(time, total, integral)` exchanged between peers.
///
/// `GETAVGS` never reads the instantaneous `size`, so snapshots omit it
/// (paper §3.1). Two snapshots of the same queue delimit a measurement
/// window; see [`Snapshot::averages_since`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Time the snapshot was taken.
    pub time: Nanos,
    /// Cumulative departures at `time`.
    pub total: u64,
    /// Time-weighted occupancy integral at `time`, in item-nanoseconds.
    pub integral: u128,
}

impl Snapshot {
    /// This snapshot moved forward to `now`, for a queue whose occupancy
    /// stayed at `size` since it was taken (no `TRACK` call in between):
    /// the integral accrues `size · dt`, nothing departs. This is the
    /// arithmetic of [`QueueState::peek`], so a snapshot advanced over a
    /// stretch without events equals a fresh `peek` at `now` bit for bit.
    pub fn advanced(&self, size: i64, now: Nanos) -> Snapshot {
        let dt = now.saturating_sub(self.time);
        Snapshot {
            time: self.time.max(now),
            total: self.total,
            integral: self.integral + size.max(0) as u128 * dt.as_nanos() as u128,
        }
    }

    /// The `GETAVGS` procedure: averages over the window from `prev` to
    /// `self`.
    ///
    /// Returns `None` if the window is empty or inverted (`Δtime ≤ 0`), in
    /// which case no estimate can be formed.
    pub fn averages_since(&self, prev: &Snapshot) -> Option<Averages> {
        let dt = self.time.checked_sub(prev.time)?;
        if dt.is_zero() {
            return None;
        }
        let d_integral = self.integral.checked_sub(prev.integral)? as f64;
        let d_total = self.total.checked_sub(prev.total)? as f64;
        let dt_ns = dt.as_nanos() as f64;

        let avg_occupancy = d_integral / dt_ns;
        let throughput = d_total / (dt_ns / 1e9);
        // `D = Q / λ` simplifies to `Δintegral / Δtotal`, directly in
        // nanoseconds (item-ns over items).
        let delay = if d_total > 0.0 {
            Some(Nanos::from_nanos((d_integral / d_total).round() as u64))
        } else {
            None
        };
        Some(Averages {
            window: dt,
            avg_occupancy,
            throughput,
            delay,
        })
    }
}

/// Window averages returned by `GETAVGS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Averages {
    /// Window length.
    pub window: Nanos,
    /// Average queue occupancy `Q` (items).
    pub avg_occupancy: f64,
    /// Departure rate `λ` (items per second); by queuing theory this equals
    /// the admitted arrival rate, i.e. the queue's throughput.
    pub throughput: f64,
    /// Little's-law queueing delay `D = Q/λ`; `None` when nothing departed
    /// during the window (the delay is then undefined — either the queue was
    /// idle, or items are stuck and the delay is unbounded).
    pub delay: Option<Nanos>,
}

impl Averages {
    /// The delay, or zero when undefined *and* the queue was empty on
    /// average; `fallback` when items were present but none departed.
    ///
    /// This is the pragmatic reading used by batching policies: an idle
    /// queue contributes no latency, while a stalled queue contributes at
    /// least the window length.
    pub fn delay_or(&self, fallback: Nanos) -> Nanos {
        match self.delay {
            Some(d) => d,
            None if self.avg_occupancy < 1e-9 => Nanos::ZERO,
            None => fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advanced_snapshot_equals_a_later_peek() {
        let us = Nanos::from_micros;
        let mut q = QueueState::new(us(3));
        q.track(us(10), 5);
        q.track(us(25), -2);
        // No TRACK after t = 25 µs: a snapshot taken at 40 µs and moved
        // forward at the held occupancy is the snapshot taken later.
        let at_40 = q.peek(us(40));
        for later in [40, 41, 500, 1 << 42] {
            assert_eq!(at_40.advanced(q.size(), us(later)), q.peek(us(later)));
        }
        // An empty (or, defensively, negative) occupancy accrues nothing.
        assert_eq!(at_40.advanced(0, us(90)).integral, at_40.integral);
        assert_eq!(at_40.advanced(-1, us(90)).integral, at_40.integral);
    }

    #[test]
    fn paper_worked_example() {
        // One item for 10 µs, then four items for 20 µs: integral is
        // 1×10 + 4×20 = 90 item-µs, so Q = 90/30 = 3.
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);
        q.track(Nanos::ZERO, 1);
        q.track(Nanos::from_micros(10), 3);
        q.track(Nanos::from_micros(30), -4);
        let end = q.snapshot(Nanos::from_micros(30));
        let a = end.averages_since(&start).unwrap();
        assert!((a.avg_occupancy - 3.0).abs() < 1e-12);
        // Four departures over 30 µs.
        let expect_tput = 4.0 / 30e-6;
        assert!((a.throughput - expect_tput).abs() / expect_tput < 1e-12);
        // D = Q/λ = Δintegral/Δtotal = 90/4 item-µs = 22.5 µs.
        assert_eq!(a.delay.unwrap(), Nanos::from_nanos(22_500));
    }

    #[test]
    fn track_zero_accrues_integral_only() {
        let mut q = QueueState::new(Nanos::ZERO);
        q.track(Nanos::ZERO, 5);
        q.track(Nanos::from_micros(4), 0);
        assert_eq!(q.size(), 5);
        assert_eq!(q.total(), 0);
        assert_eq!(q.integral(), 5 * 4_000);
    }

    #[test]
    fn snapshot_accrues_to_now() {
        let mut q = QueueState::new(Nanos::ZERO);
        q.track(Nanos::ZERO, 2);
        let s = q.snapshot(Nanos::from_micros(10));
        assert_eq!(s.integral, 2 * 10_000);
        assert_eq!(s.time, Nanos::from_micros(10));
    }

    #[test]
    fn peek_matches_snapshot_without_mutation() {
        let mut q = QueueState::new(Nanos::ZERO);
        q.track(Nanos::ZERO, 3);
        let p = q.peek(Nanos::from_micros(7));
        let before = q;
        assert_eq!(p.integral, 3 * 7_000);
        assert_eq!(q, before, "peek must not mutate");
        let s = q.snapshot(Nanos::from_micros(7));
        assert_eq!(p, s);
    }

    #[test]
    fn empty_window_yields_none() {
        let mut q = QueueState::new(Nanos::ZERO);
        let s = q.snapshot(Nanos::from_micros(1));
        assert!(s.averages_since(&s).is_none());
    }

    #[test]
    fn inverted_window_yields_none() {
        let mut q = QueueState::new(Nanos::ZERO);
        let early = q.snapshot(Nanos::from_micros(1));
        let late = q.snapshot(Nanos::from_micros(2));
        assert!(early.averages_since(&late).is_none());
    }

    #[test]
    fn no_departures_delay_undefined() {
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);
        q.track(Nanos::ZERO, 1);
        let end = q.snapshot(Nanos::from_micros(10));
        let a = end.averages_since(&start).unwrap();
        assert_eq!(a.delay, None);
        assert_eq!(a.throughput.to_bits(), 0.0f64.to_bits());
        // Stalled queue: fallback applies.
        assert_eq!(a.delay_or(Nanos::from_micros(10)), Nanos::from_micros(10));
    }

    #[test]
    fn idle_queue_delay_or_is_zero() {
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);
        let end = q.snapshot(Nanos::from_micros(10));
        let a = end.averages_since(&start).unwrap();
        assert_eq!(a.delay_or(Nanos::from_secs(1)), Nanos::ZERO);
    }

    #[test]
    fn fifo_residence_equals_littles_law() {
        // Explicit FIFO with known residence times: items enter at t=0,2,4 µs
        // and each stays exactly 10 µs. Mean residence = 10 µs, and Little's
        // law over a window where the queue starts and ends empty must agree.
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);
        for enter in [0u64, 2, 4] {
            q.track(Nanos::from_micros(enter), 1);
        }
        for leave in [10u64, 12, 14] {
            q.track(Nanos::from_micros(leave), -1);
        }
        let end = q.snapshot(Nanos::from_micros(20));
        let a = end.averages_since(&start).unwrap();
        assert_eq!(a.delay.unwrap(), Nanos::from_micros(10));
    }

    #[test]
    fn windows_compose() {
        // Averages over [a,c] must be derivable from snapshots alone,
        // regardless of how many intermediate snapshots were taken.
        let mut q = QueueState::new(Nanos::ZERO);
        let s0 = q.snapshot(Nanos::ZERO);
        q.track(Nanos::from_micros(1), 4);
        let _mid = q.snapshot(Nanos::from_micros(5));
        q.track(Nanos::from_micros(9), -4);
        let s2 = q.snapshot(Nanos::from_micros(10));
        let a = s2.averages_since(&s0).unwrap();
        // 4 items resident 1→9 µs: integral 32 item-µs over 10 µs.
        assert!((a.avg_occupancy - 3.2).abs() < 1e-12);
        assert_eq!(a.delay.unwrap(), Nanos::from_micros(8));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative")]
    fn negative_occupancy_asserts() {
        let mut q = QueueState::new(Nanos::ZERO);
        q.track(Nanos::ZERO, -1);
    }
}
