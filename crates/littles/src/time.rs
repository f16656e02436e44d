//! Simulated-time timestamps.
//!
//! Everything in this workspace runs on a deterministic simulated clock; the
//! only time type is [`Nanos`], an absolute timestamp (or duration) in
//! nanoseconds since simulation start. Using a single newtype for both
//! instants and durations mirrors how the kernel's `ktime_t` is used and
//! keeps the queue-state arithmetic (which only ever subtracts and
//! accumulates) free of conversions.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a span of it), in nanoseconds.
///
/// `Nanos` is `Copy`, totally ordered, and supports saturating subtraction
/// via [`Nanos::saturating_sub`]; the `-` operator panics on underflow in
/// debug builds and saturates in release builds (queueing arithmetic must
/// never go negative, so underflow indicates a logic error).
///
/// # Examples
///
/// ```
/// use littles::Nanos;
///
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert_eq!(t * 2, Nanos::from_nanos(7_000));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero timestamp (simulation start / zero duration).
    pub const ZERO: Nanos = Nanos(0);

    /// The largest representable timestamp; useful as an "infinite" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a timestamp from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a timestamp from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a timestamp from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a timestamp from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or NaN.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "clamped to u64::MAX above; `as` rounds nothing further"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "negative duration: {s}");
        Nanos((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at [`Nanos::MAX`].
    #[inline]
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Returns the larger of two timestamps.
    #[inline]
    pub(crate) fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// True for the zero timestamp.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;

    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;

    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "Nanos underflow: {} - {}", self.0, rhs.0);
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;

    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;

    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Formats with an adaptive unit (`ns`, `µs`, `ms`, or `s`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}µs", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a * 3).as_micros(), 30);
        assert_eq!((a / 2).as_micros(), 5);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(Nanos::ZERO.saturating_sub(Nanos::from_secs(1)), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(Nanos::from_secs(1)), Nanos::MAX);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Nanos::ZERO.checked_sub(Nanos::from_nanos(1)), None);
        assert_eq!(
            Nanos::from_nanos(5).checked_sub(Nanos::from_nanos(2)),
            Some(Nanos::from_nanos(3))
        );
    }

    #[test]
    fn min_max() {
        let a = Nanos::from_nanos(3);
        let b = Nanos::from_nanos(7);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_adapts_units() {
        assert_eq!(Nanos::from_nanos(999).to_string(), "999ns");
        assert_eq!(Nanos::from_micros(2).to_string(), "2.00µs");
        assert_eq!(Nanos::from_millis(3).to_string(), "3.00ms");
        assert_eq!(Nanos::from_secs(4).to_string(), "4.000s");
    }

    #[test]
    fn sum_folds() {
        let total: Nanos = [1u64, 2, 3].iter().map(|&n| Nanos::from_nanos(n)).sum();
        assert_eq!(total.as_nanos(), 6);
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = Nanos::from_secs_f64(1.25);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_secs_panics() {
        let _ = Nanos::from_secs_f64(-1.0);
    }
}
