//! A free-list store: values parked under a `u32` key until taken back.
//!
//! Events travel through the [`EventQueue`](crate::EventQueue) by value, so
//! the largest event sets the size of every wheel cell. A simulation whose
//! bulky payloads (TCP segments, a few hundred bytes each) ride only a
//! couple of its event kinds keeps them here instead and schedules their
//! [`StoreKey`]: the value is written once, every event and buffer in
//! between moves four bytes, and it leaves exactly once, by
//! [`Store::take`].
//!
//! Like the wheel's slab, the store is allocation-free in steady state: a
//! taken slot goes on a free list threaded through the vacant slots
//! themselves and the next [`Store::put`] reuses it, so the high-water
//! mark is the only growth point (asserted by
//! `simnet/tests/hot_path_alloc.rs`).

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Where a value sits in a [`Store`]. Valid from the [`Store::put`] that
/// returned it to the [`Store::take`] that spends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey(u32);

#[derive(Debug, Clone)]
enum Slot<T> {
    /// A key names this value.
    Full(T),
    /// Vacant; the next vacant slot (or [`NIL`]).
    Free(u32),
}

/// A free-list store of values, each under its own [`StoreKey`].
#[derive(Debug, Clone)]
pub struct Store<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list: the last slot taken, reused first.
    free: u32,
    /// Full slots.
    live: usize,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Store<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Parks `value` and returns its key.
    ///
    /// # Panics
    ///
    /// Panics when `u32::MAX` values are live at once.
    // hot-path: runs per transmitted segment; allocation-free once warm
    #[inline]
    pub fn put(&mut self, value: T) -> StoreKey {
        self.live += 1;
        let i = self.free;
        if i == NIL {
            #[expect(clippy::expect_used, reason = "documented: 2^32 live values is a caller bug")]
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("store holds 2^32 values");
            self.slots.push(Slot::Full(value));
            return StoreKey(i);
        }
        if let Slot::Free(next) = std::mem::replace(&mut self.slots[i as usize], Slot::Full(value)) {
            self.free = next;
        }
        StoreKey(i)
    }

    /// Takes the value under `key` out of the store; the key is spent.
    ///
    /// # Panics
    ///
    /// Panics when `key` was already taken.
    // hot-path: runs per delivered or discarded segment
    #[inline]
    #[expect(clippy::panic, reason = "documented: a spent key is a caller bug")]
    pub fn take(&mut self, key: StoreKey) -> T {
        match std::mem::replace(&mut self.slots[key.0 as usize], Slot::Free(self.free)) {
            Slot::Full(value) => {
                self.free = key.0;
                self.live -= 1;
                value
            }
            Slot::Free(_) => panic!("store key already taken"),
        }
    }

    /// The value under `key`.
    ///
    /// # Panics
    ///
    /// Panics when `key` was already taken.
    #[inline]
    #[expect(clippy::panic, reason = "documented: a spent key is a caller bug")]
    pub fn get(&self, key: StoreKey) -> &T {
        match &self.slots[key.0 as usize] {
            Slot::Full(value) => value,
            Slot::Free(_) => panic!("store key already taken"),
        }
    }

    /// The value under `key`, mutably.
    ///
    /// # Panics
    ///
    /// Panics when `key` was already taken.
    #[inline]
    #[expect(clippy::panic, reason = "documented: a spent key is a caller bug")]
    pub fn get_mut(&mut self, key: StoreKey) -> &mut T {
        match &mut self.slots[key.0 as usize] {
            Slot::Full(value) => value,
            Slot::Free(_) => panic!("store key already taken"),
        }
    }

    /// Values currently parked.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is parked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated: the peak of [`len`](Self::len) over the
    /// store's life.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_taken_slot_is_reused_and_the_peak_stays() {
        let mut s = Store::new();
        let a = s.put("a");
        let b = s.put("b");
        assert_eq!((s.len(), s.high_water()), (2, 2));
        assert_eq!(s.take(a), "a");
        assert_eq!(s.len(), 1);
        let c = s.put("c");
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!((s.len(), s.high_water()), (2, 2));
        *s.get_mut(b) = "B";
        assert_eq!((*s.get(b), *s.get(c)), ("B", "c"));
        assert_eq!((s.take(b), s.take(c)), ("B", "c"));
        assert!(s.is_empty());
        assert_eq!(s.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn a_key_is_spent_by_its_take() {
        let mut s = Store::new();
        let k = s.put(1u8);
        s.take(k);
        s.take(k);
    }
}
