//! TCP sequence-number arithmetic.
//!
//! Sequence numbers live in a 32-bit circular space; comparisons are only
//! meaningful between numbers less than 2³¹ apart. [`SeqNum`] mirrors the
//! kernel's `before()`/`after()` helpers with wrapping add/sub.

/// A 32-bit wrapping TCP sequence number.
///
/// # Examples
///
/// ```
/// use tcpsim::seq::SeqNum;
///
/// let near_wrap = SeqNum::new(u32::MAX - 1);
/// let wrapped = near_wrap + 10;
/// assert!(near_wrap.before(wrapped));
/// assert_eq!(wrapped - near_wrap, 10);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqNum(u32);

impl SeqNum {
    /// Wraps a raw 32-bit value.
    pub const fn new(v: u32) -> Self {
        SeqNum(v)
    }

    /// The raw 32-bit value.
    #[cfg(test)]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }

    /// True if `self` is strictly earlier than `other` in sequence space
    /// (the kernel's `before()`).
    pub fn before(self, other: SeqNum) -> bool {
        (self.0.wrapping_sub(other.0) as i32) < 0
    }

    /// True if `self` is strictly later than `other` (the kernel's
    /// `after()`).
    pub fn after(self, other: SeqNum) -> bool {
        other.before(self)
    }

    /// True if `self` is at or after `other`.
    pub(crate) fn at_or_after(self, other: SeqNum) -> bool {
        !self.before(other)
    }

    /// True if `self ∈ [lo, hi)` in sequence space.
    pub fn in_range(self, lo: SeqNum, hi: SeqNum) -> bool {
        self.at_or_after(lo) && self.before(hi)
    }

    /// The sequence number `bytes` stream bytes past `self`. Sequence space
    /// is modular, so only the low 32 bits of a 64-bit stream distance
    /// matter: this is the one place a stream offset narrows into it.
    pub(crate) fn advance(self, bytes: u64) -> SeqNum {
        self + bytes as u32
    }
}

/// Unwraps a 32-bit sequence into a 64-bit stream offset given the last
/// seen (seq, offset) pair. Deltas ≥ 2³¹ are treated as old data.
pub(crate) fn unwrap_seq(seq: SeqNum, last_seq: SeqNum, last_offset: u64) -> Option<u64> {
    let delta = seq - last_seq; // wrapping distance
    if delta < 1 << 31 {
        Some(last_offset + delta as u64)
    } else {
        // Behind the last-seen point.
        let back = last_seq - seq;
        last_offset.checked_sub(back as u64)
    }
}

impl core::ops::Add<u32> for SeqNum {
    type Output = SeqNum;

    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl core::ops::AddAssign<u32> for SeqNum {
    fn add_assign(&mut self, rhs: u32) {
        *self = *self + rhs;
    }
}

impl core::ops::Sub<SeqNum> for SeqNum {
    /// Distance from `rhs` to `self`; callers must know `self` is not
    /// before `rhs` (wrapping distance is returned regardless).
    type Output = u32;

    fn sub(self, rhs: SeqNum) -> u32 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl core::fmt::Display for SeqNum {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_without_wrap() {
        let a = SeqNum::new(100);
        let b = SeqNum::new(200);
        assert!(a.before(b));
        assert!(b.after(a));
        assert!(!a.after(b));
        assert!(a.at_or_after(a));
    }

    #[test]
    fn ordering_across_wrap() {
        let a = SeqNum::new(u32::MAX - 5);
        let b = a + 10; // wraps
        assert!(a.before(b));
        assert!(b.after(a));
        assert_eq!(b.raw(), 4);
    }

    #[test]
    fn distance_across_wrap() {
        let a = SeqNum::new(u32::MAX - 1);
        let b = a + 7;
        assert_eq!(b - a, 7);
    }

    #[test]
    fn in_range_basic() {
        let lo = SeqNum::new(10);
        let hi = SeqNum::new(20);
        assert!(SeqNum::new(10).in_range(lo, hi));
        assert!(SeqNum::new(19).in_range(lo, hi));
        assert!(!SeqNum::new(20).in_range(lo, hi));
        assert!(!SeqNum::new(9).in_range(lo, hi));
    }

    #[test]
    fn in_range_across_wrap() {
        let lo = SeqNum::new(u32::MAX - 2);
        let hi = lo + 6;
        assert!((lo + 3).in_range(lo, hi));
        assert!(!(lo + 6).in_range(lo, hi));
    }

    #[test]
    fn add_assign_wraps() {
        let mut s = SeqNum::new(u32::MAX);
        s += 1;
        assert_eq!(s.raw(), 0);
    }
}
