//! Queue-state tracking (Algorithm 1) and window averages (Algorithm 2).
//!
//! A [`QueueState`] is the paper's 4-tuple `(time, size, total, integral)`.
//! [`QueueState::track`] is the `TRACK` procedure: called with the (signed)
//! change in occupancy, it first accrues `size · dt` into the integral and
//! then applies the change, crediting departures to `total`.
//!
//! A [`Snapshot`] is the 3-tuple `(time, total, integral)` that peers
//! exchange — `size` is not needed by `GETAVGS`. Subtracting two snapshots
//! ([`Snapshot::window_since`]) yields a [`QueueWindow`], from which
//! average occupancy, throughput, and Little's-law queueing delay for the
//! window between them follow.

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
    pub const fn new(now: Nanos) -> Self {
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
    pub fn track(&mut self, now: Nanos, nitems: i64) {
        // hot-path: runs on every enqueue/dequeue
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
/// window; see [`Snapshot::window_since`].
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

    /// The `GETAVGS` procedure: the window from `prev` to `self`.
    ///
    /// Returns `None` if the window is empty or inverted (`Δtime ≤ 0`), or
    /// if a counter went backwards, in which case no estimate can be
    /// formed.
    pub fn window_since(&self, prev: &Snapshot) -> Option<QueueWindow> {
        let dt = self.time.checked_sub(prev.time)?;
        if dt.is_zero() {
            return None;
        }
        Some(QueueWindow {
            dt,
            d_total: self.total.checked_sub(prev.total)?,
            d_integral: self.integral.checked_sub(prev.integral)?,
        })
    }
}

/// One queue over a window: the differences of two of its snapshots,
/// taken at full resolution ([`Snapshot::window_since`]) or read off the
/// wire ([`WireSnapshot::window_since`](crate::wire::WireSnapshot::window_since)).
///
/// Little's law reads everything off the three differences: average
/// occupancy `Q = Δintegral / Δtime`, throughput `λ = Δtotal / Δtime` and
/// queueing delay `D = Q / λ = Δintegral / Δtotal`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueueWindow {
    /// Window length.
    pub dt: Nanos,
    /// Items that departed during the window.
    pub d_total: u64,
    /// Occupancy integral growth (item-nanoseconds).
    pub d_integral: u128,
}

impl QueueWindow {
    /// Average occupancy `Q` (items).
    pub fn avg_occupancy(&self) -> f64 {
        self.d_integral as f64 / self.dt.as_nanos() as f64
    }

    /// Departure rate `λ` (items per second); by queuing theory this equals
    /// the admitted arrival rate, i.e. the queue's throughput. Zero for an
    /// empty window.
    pub fn throughput(&self) -> f64 {
        if self.dt.is_zero() {
            0.0
        } else {
            self.d_total as f64 / self.dt.as_secs_f64()
        }
    }

    /// Little's-law delay `D = Δintegral / Δtotal`, floored to the
    /// nanosecond; `None` when nothing departed (the delay is then
    /// undefined — either the queue was idle, or items are stuck and the
    /// delay is unbounded).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a mean residence in ns: under 2^(32 + integral_shift) from the wire, and past 2^64 ns only after centuries at full resolution"
    )]
    pub fn mean_delay(&self) -> Option<Nanos> {
        if self.d_total == 0 {
            return None;
        }
        Some(Nanos::from_nanos(
            (self.d_integral / self.d_total as u128) as u64,
        ))
    }

    /// [`mean_delay`](Self::mean_delay) divided in `f64` and rounded to
    /// the nearest nanosecond: the rule a client's tracker reports its
    /// ground-truth latency by.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a rounded, non-negative f64 delay; `as` saturates at u64::MAX ns"
    )]
    pub fn rounded_delay(&self) -> Option<Nanos> {
        if self.d_total == 0 {
            return None;
        }
        Some(Nanos::from_nanos(
            (self.d_integral as f64 / self.d_total as f64).round() as u64,
        ))
    }

    /// [`mean_delay`](Self::mean_delay) with the pragmatic fallbacks a
    /// policy needs: an idle queue (no departures, no occupancy)
    /// contributes zero; a stalled queue (occupancy but no departures)
    /// contributes at least the window length.
    pub fn delay(&self) -> Nanos {
        match self.mean_delay() {
            Some(delay) => delay,
            None if self.d_integral == 0 => Nanos::ZERO,
            None => self.dt,
        }
    }

    /// Accumulates an adjacent window of the same queue into this one
    /// (component-wise sums): the union window.
    pub fn merge(&mut self, other: &QueueWindow) {
        self.dt += other.dt;
        self.d_total += other.d_total;
        self.d_integral += other.d_integral;
    }

    /// The window spanning from `earlier`'s end to this window's end,
    /// assuming both are cumulative sums from the same origin (each
    /// component of `self` is ≥ the corresponding one in `earlier`).
    pub fn since(&self, earlier: &QueueWindow) -> QueueWindow {
        QueueWindow {
            dt: self.dt.saturating_sub(earlier.dt),
            d_total: self.d_total.saturating_sub(earlier.d_total),
            d_integral: self.d_integral.saturating_sub(earlier.d_integral),
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
        let w = end.window_since(&start).unwrap();
        assert!((w.avg_occupancy() - 3.0).abs() < 1e-12);
        // Four departures over 30 µs.
        let expect_tput = 4.0 / 30e-6;
        assert!((w.throughput() - expect_tput).abs() / expect_tput < 1e-12);
        // D = Q/λ = Δintegral/Δtotal = 90/4 item-µs = 22.5 µs.
        assert_eq!(w.mean_delay(), Some(Nanos::from_nanos(22_500)));
        assert_eq!(w.rounded_delay(), w.mean_delay());
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
        assert!(s.window_since(&s).is_none());
    }

    #[test]
    fn inverted_window_yields_none() {
        let mut q = QueueState::new(Nanos::ZERO);
        let early = q.snapshot(Nanos::from_micros(1));
        let late = q.snapshot(Nanos::from_micros(2));
        assert!(early.window_since(&late).is_none());
    }

    #[test]
    fn no_departures_delay_undefined() {
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);
        q.track(Nanos::ZERO, 1);
        let end = q.snapshot(Nanos::from_micros(10));
        let w = end.window_since(&start).unwrap();
        assert_eq!((w.mean_delay(), w.rounded_delay()), (None, None));
        assert_eq!(w.throughput().to_bits(), 0.0f64.to_bits());
        // Occupancy with no departure: a stalled queue, delayed at least
        // the window.
        assert_eq!(w.delay(), Nanos::from_micros(10));
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
        let w = end.window_since(&start).unwrap();
        assert_eq!(w.mean_delay(), Some(Nanos::from_micros(10)));
    }

    #[test]
    fn windows_compose() {
        // The window over [a,c] must be derivable from snapshots alone,
        // regardless of how many intermediate snapshots were taken, and
        // equals the merge of its two halves.
        let mut q = QueueState::new(Nanos::ZERO);
        let s0 = q.snapshot(Nanos::ZERO);
        q.track(Nanos::from_micros(1), 4);
        let mid = q.snapshot(Nanos::from_micros(5));
        q.track(Nanos::from_micros(9), -4);
        let s2 = q.snapshot(Nanos::from_micros(10));
        let w = s2.window_since(&s0).unwrap();
        // 4 items resident 1→9 µs: integral 32 item-µs over 10 µs.
        assert!((w.avg_occupancy() - 3.2).abs() < 1e-12);
        assert_eq!(w.mean_delay(), Some(Nanos::from_micros(8)));
        let mut halves = mid.window_since(&s0).unwrap();
        halves.merge(&s2.window_since(&mid).unwrap());
        assert_eq!(halves, w);
        assert_eq!(
            w.since(&mid.window_since(&s0).unwrap()),
            s2.window_since(&mid).unwrap()
        );
    }

    #[test]
    fn delay_rules_floor_round_and_fall_back() {
        let window = |d_total, d_integral| QueueWindow {
            dt: Nanos::from_nanos(100),
            d_total,
            d_integral,
        };
        // 7 item-ns over 2 departures is 3.5 ns: the estimator's rule
        // floors it, the tracker's rounds it.
        let w = window(2, 7);
        assert_eq!(w.mean_delay(), Some(Nanos::from_nanos(3)));
        assert_eq!(w.delay(), Nanos::from_nanos(3));
        assert_eq!(w.rounded_delay(), Some(Nanos::from_nanos(4)));
        // No departure: idle contributes zero, stalled the window length.
        assert_eq!(window(0, 0).delay(), Nanos::ZERO);
        assert_eq!(window(0, 1).delay(), Nanos::from_nanos(100));
        assert_eq!(window(0, 1).mean_delay(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative")]
    fn negative_occupancy_asserts() {
        let mut q = QueueState::new(Nanos::ZERO);
        q.track(Nanos::ZERO, -1);
    }
}
