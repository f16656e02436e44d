//! Dense, index-addressed flow tables.
//!
//! [`FlowId`]s are small sequential integers (the simulation hands them
//! out from a counter starting at 1), so keying per-flow state on a
//! `BTreeMap` paid tree-walk and node-allocation costs on every segment
//! delivery for what is really array indexing. A [`FlowMap`] is the dense
//! replacement: a `Vec` of slots for the ids from the lowest one bound (the
//! base) to the highest, `None` for flows not (or no longer) present.
//! Lookup is one subtraction and one bounds check; binding grows the
//! vector to cover the id once and never shrinks it, so steady state
//! performs no allocation.
//!
//! Memory is proportional to the spread of the ids a host has bound, not
//! to the largest id. Over a star, client *i* holds flow *i* + 1 alone;
//! a table indexed from id 0 gave it *i* + 2 slots, O(N²) over the star
//! (8.4 MB of client tables at N = 1 024). From its base, a client holds
//! one slot, and the server, which binds every flow, holds N.

use crate::segment::FlowId;

/// A dense map from [`FlowId`] to `T`, indexed from the lowest id bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowMap<T> {
    /// The id of `slots[0]`; meaningless while `slots` is empty.
    base: u64,
    slots: Vec<Option<T>>,
    /// Slots holding a value.
    bound: usize,
}

impl<T> FlowMap<T> {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        FlowMap {
            base: 0,
            slots: Vec::new(),
            bound: 0,
        }
    }

    /// Looks up `flow`.
    // hot-path: runs on every segment delivery; must not allocate per call
    #[inline]
    pub(crate) fn get(&self, flow: FlowId) -> Option<&T> {
        // An id below the base wraps past every slot.
        let idx = flow.0.wrapping_sub(self.base);
        self.slots
            .get(usize::try_from(idx).ok()?)
            .and_then(Option::as_ref)
    }

    /// Binds `flow` to `value`, growing the table if the id is outside
    /// the ids it covers: up past the highest, or down below the base (a
    /// proxy binds its upstream flows before its clients' SYNs arrive).
    /// An empty table takes `flow` as its base. Returns the previous
    /// binding, if any.
    pub(crate) fn set(&mut self, flow: FlowId, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = flow.0;
        } else if flow.0 < self.base {
            let below = (self.base - flow.0) as usize;
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(below));
            self.base = flow.0;
        }
        let idx = (flow.0 - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let previous = self.slots[idx].replace(value);
        self.bound += usize::from(previous.is_none());
        previous
    }

    /// Unbinds `flow`, returning its value if it was bound. The slot is
    /// kept (vacant) so the table never reallocates; a table left with no
    /// binding at all (every flow of a restarted host) is emptied, keeping
    /// its capacity, and takes its next bind as its new base.
    pub(crate) fn remove(&mut self, flow: FlowId) -> Option<T> {
        let idx = usize::try_from(flow.0.wrapping_sub(self.base)).ok()?;
        let value = self.slots.get_mut(idx).and_then(Option::take)?;
        self.bound -= 1;
        if self.bound == 0 {
            self.slots.clear();
        }
        Some(value)
    }

    /// Number of bound flows.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.bound
    }

    /// True when no flows are bound.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.bound == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove_round_trip() {
        let mut m: FlowMap<usize> = FlowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.set(FlowId(3), 30), None);
        assert_eq!(m.set(FlowId(1), 10), None);
        assert_eq!(m.get(FlowId(3)), Some(&30));
        assert_eq!(m.get(FlowId(2)), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.set(FlowId(3), 33), Some(30));
        assert_eq!(m.remove(FlowId(3)), Some(33));
        assert_eq!(m.remove(FlowId(3)), None);
        assert_eq!(m.get(FlowId(3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lookup_beyond_high_water_is_none() {
        let m: FlowMap<u8> = FlowMap::new();
        assert_eq!(m.get(FlowId(1_000_000)), None);
    }

    #[test]
    fn a_lone_high_id_holds_one_slot() {
        let mut m: FlowMap<u8> = FlowMap::new();
        m.set(FlowId(1_000_000), 7);
        assert_eq!(m.slots.len(), 1);
        assert_eq!(m.get(FlowId(1_000_000)), Some(&7));
        assert_eq!(m.get(FlowId(999_999)), None);
        assert_eq!(m.get(FlowId(0)), None);
        assert_eq!(m.get(FlowId(1_000_001)), None);
    }

    #[test]
    fn a_bind_below_the_base_keeps_the_earlier_bindings() {
        let mut m: FlowMap<u64> = FlowMap::new();
        m.set(FlowId(10), 10);
        m.set(FlowId(12), 12);
        assert_eq!(m.set(FlowId(7), 7), None);
        assert_eq!(m.slots.len(), 6);
        for id in [7, 10, 12] {
            assert_eq!(m.get(FlowId(id)), Some(&id));
        }
        for id in [6, 8, 9, 11, 13] {
            assert_eq!(m.get(FlowId(id)), None);
        }
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn a_map_emptied_by_remove_rebases_on_its_next_bind() {
        let mut m: FlowMap<u64> = FlowMap::new();
        m.set(FlowId(3), 3);
        m.set(FlowId(5), 5);
        assert_eq!(m.remove(FlowId(3)), Some(3));
        assert_eq!(
            m.slots.len(),
            3,
            "a map still holding a flow keeps its slots"
        );
        assert_eq!(m.remove(FlowId(5)), Some(5));
        assert!(m.is_empty());
        m.set(FlowId(2_000), 2_000);
        assert_eq!(m.slots.len(), 1);
        assert_eq!(m.get(FlowId(2_000)), Some(&2_000));
        assert_eq!(m.get(FlowId(5)), None);
    }
}
