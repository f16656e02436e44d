//! Immutable, cheaply cloneable, cheaply sliceable payload buffers.
//!
//! [`Payload`] replaces the `bytes::Bytes` dependency with a view —
//! a reference-counted buffer plus a byte range — because the workspace
//! must build with no registry access and the simulator only ever needs
//! immutable payloads. Cloning shares the allocation, and [`Payload::slice`]
//! produces a sub-view in O(1) without copying.
//!
//! A request's bytes are one allocation from the client's encode to the
//! server's store: the send buffer keeps the application's buffer and
//! segments are sub-views of it, the receive buffer re-joins in-order
//! views of one allocation with [`Payload::try_append`], and the RESP
//! parser hands keys and values out as sub-views of what it read.
//!
//! The empty payload carries no allocation at all, so pure ACKs (the most
//! common segment at fan-in) construct without touching the heap.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer view.
///
/// Dereferences to `&[u8]`, so all slice operations (`len`, indexing,
/// iteration, range slicing) work directly. Equality, ordering, and
/// hashing see only the viewed bytes, never the backing allocation.
///
/// # Examples
///
/// ```
/// use tcpsim::Payload;
///
/// let p = Payload::copy_from_slice(b"hello");
/// assert_eq!(&p[..], b"hello");
/// let q = p.clone(); // O(1): shares the allocation
/// assert_eq!(p, q);
/// let mid = p.slice(1, 4); // O(1): a sub-view, no copy
/// assert_eq!(&mid[..], b"ell");
/// ```
#[derive(Clone)]
pub struct Payload {
    /// Backing buffer; `None` for the (allocation-free) empty payload.
    buf: Option<Arc<Vec<u8>>>,
    /// View start within `buf`.
    start: usize,
    /// View end within `buf`.
    end: usize,
}

impl Payload {
    /// An empty payload (no heap allocation).
    pub fn new() -> Self {
        Payload {
            buf: None,
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static byte slice (copies once into the shared allocation).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Payload::copy_from_slice(bytes)
    }

    /// Copies a slice into a new payload.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Payload::from(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of bytes `[start, end)` of this payload, sharing the
    /// backing allocation (O(1), no copy).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    // hot-path: runs per emitted segment; must not allocate per call
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(start <= end && end <= self.len(), "slice out of range");
        if start == end {
            return Payload::new();
        }
        Payload {
            buf: self.buf.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Extends this view by `next` when `next` continues it: the same
    /// allocation, starting where this view ends (O(1), no copy). An empty
    /// side always joins. Returns false, leaving both unchanged, otherwise.
    ///
    /// ```
    /// use tcpsim::Payload;
    ///
    /// let p = Payload::copy_from_slice(b"abcdef");
    /// let mut head = p.slice(0, 2);
    /// assert!(head.try_append(&p.slice(2, 4)));
    /// assert_eq!(&head[..], b"abcd");
    /// // A gap, or bytes of another allocation, never join.
    /// assert!(!head.try_append(&p.slice(5, 6)));
    /// assert!(!head.try_append(&Payload::copy_from_slice(b"ef")));
    /// ```
    // hot-path: runs per in-order segment delivered and per parser join
    pub fn try_append(&mut self, next: &Payload) -> bool {
        if next.is_empty() {
            return true;
        }
        if self.is_empty() {
            *self = next.clone();
            return true;
        }
        match (&self.buf, &next.buf) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) && self.end == next.start => {
                self.end = next.end;
                true
            }
            _ => false,
        }
    }

    /// Appends a copy of `bytes`: in place when this view is the only
    /// one of its allocation and runs to its end (so repeated appends grow
    /// like a `Vec`), into a fresh allocation holding both otherwise.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if let Some(buf) = self.buf.as_mut().and_then(Arc::get_mut) {
            if buf.len() == self.end {
                buf.extend_from_slice(bytes);
                self.end = buf.len();
                return;
            }
        }
        let mut joined = Vec::with_capacity(self.len() + bytes.len());
        joined.extend_from_slice(self);
        joined.extend_from_slice(bytes);
        *self = joined.into();
    }

    fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(b) => &b[self.start..self.end],
            None => &[],
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Payload {
    /// The viewed bytes: consistent with `Eq`, `Ord` and `Hash`, which see
    /// only those, so `[Payload]::concat` flattens and a map keyed by
    /// payloads looks up by `&[u8]`.
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// Takes ownership of the vector without copying its bytes.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Payload::new();
        }
        let end = v.len();
        Payload {
            buf: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    /// Copies the borrowed bytes once.
    fn from(v: &[u8]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl From<&Vec<u8>> for Payload {
    /// Copies the borrowed bytes once; pass the `Vec` by value to move it
    /// in without a copy.
    fn from(v: &Vec<u8>) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_default_agree() {
        assert_eq!(Payload::new(), Payload::default());
        assert!(Payload::new().is_empty());
        assert_eq!(Payload::new().len(), 0);
    }

    #[test]
    fn empty_views_compare_equal_regardless_of_origin() {
        // An allocation-free empty payload equals an empty slice of a
        // non-empty buffer: equality sees bytes, not representation.
        let p = Payload::copy_from_slice(b"abc");
        assert_eq!(p.slice(1, 1), Payload::new());
        assert_eq!(Payload::copy_from_slice(b""), Payload::new());
    }

    #[test]
    fn clone_shares_allocation() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn slice_shares_allocation_and_nests() {
        let p = Payload::copy_from_slice(b"abcdefgh");
        let s = p.slice(2, 7); // "cdefg"
        assert_eq!(&s[..], b"cdefg");
        assert!(std::ptr::eq(p.as_ref()[2..].as_ptr(), s.as_ref().as_ptr()));
        let t = s.slice(1, 3); // "de" relative to s
        assert_eq!(&t[..], b"de");
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        let p = Payload::copy_from_slice(b"abc");
        let _ = p.slice(1, 5);
    }

    #[test]
    fn from_vec_does_not_copy() {
        let v = vec![9u8; 64];
        let ptr = v.as_ptr();
        let p = Payload::from(v);
        assert!(std::ptr::eq(ptr, p.as_ref().as_ptr()));
    }

    #[test]
    fn adjacent_views_of_one_allocation_append_in_place() {
        let p = Payload::from(b"abcdefgh".to_vec());
        let mut v = p.slice(1, 3);
        assert!(v.try_append(&p.slice(3, 6)));
        assert_eq!(&v[..], b"bcdef");
        assert!(std::ptr::eq(v.as_ref().as_ptr(), p.as_ref()[1..].as_ptr()));
        // Empty on either side joins; the result is the other side.
        let mut empty = Payload::new();
        assert!(empty.try_append(&v));
        assert!(std::ptr::eq(empty.as_ref().as_ptr(), v.as_ref().as_ptr()));
        assert!(v.try_append(&Payload::new()));
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn extend_copies_in_place_only_when_unshared() {
        let mut v = Payload::copy_from_slice(b"ab");
        v.extend_from_slice(b"cd");
        assert_eq!(&v[..], b"abcd");
        // Unique and running to the end: the bytes stay where they were
        // copied to the first time, so growth is amortized.
        let mut grown = Payload::copy_from_slice(b"x");
        grown.extend_from_slice(&[b'y'; 64]);
        let at = grown.as_ref().as_ptr();
        let cap = grown.buf.as_ref().map_or(0, |b| b.capacity());
        let fits = cap - grown.len();
        grown.extend_from_slice(&vec![b'z'; fits]);
        assert!(std::ptr::eq(grown.as_ref().as_ptr(), at));
        // Shared: the other view keeps its bytes, this one moves.
        let other = v.clone();
        v.extend_from_slice(b"e");
        assert_eq!((&v[..], &other[..]), (&b"abcde"[..], &b"abcd"[..]));
        // A sub-view that stops short of its allocation's end never
        // overwrites what lies behind it.
        let whole = Payload::from(b"abcdef".to_vec());
        let mut head = whole.slice(0, 2);
        drop(whole);
        head.extend_from_slice(b"XY");
        assert_eq!(&head[..], b"abXY");
    }

    #[test]
    fn views_that_do_not_continue_never_append() {
        let p = Payload::from(b"abcdefgh".to_vec());
        let q = Payload::from(b"abcdefgh".to_vec());
        let mut v = p.slice(0, 4);
        // A gap, an overlap, a view behind it, the same range of an equal
        // but separate allocation: all refused, and `v` is untouched.
        for other in [p.slice(5, 8), p.slice(3, 8), p.slice(0, 4), q.slice(4, 8)] {
            assert!(!v.try_append(&other));
            assert_eq!(&v[..], b"abcd");
        }
    }

    #[test]
    fn deref_supports_slicing() {
        let p = Payload::copy_from_slice(b"abcdef");
        assert_eq!(&p[2..4], b"cd");
        assert_eq!(p.iter().copied().collect::<Vec<u8>>(), b"abcdef");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "exercises the Hash impl through a lookup-only map, never iterated"
    )]
    fn usable_as_hash_map_key() {
        use std::collections::HashMap;
        let mut m: HashMap<Payload, u32> = HashMap::new();
        m.insert(Payload::from_static(b"k"), 7);
        assert_eq!(m.get(&Payload::copy_from_slice(b"k")), Some(&7));
        // A sub-view with the same bytes hashes identically.
        let big = Payload::copy_from_slice(b"xkx");
        assert_eq!(m.get(&big.slice(1, 2)), Some(&7));
    }
}
