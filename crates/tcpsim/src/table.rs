//! Dense, index-addressed flow tables.
//!
//! [`FlowId`]s are small sequential integers (the simulation hands them
//! out from a counter starting at 1), so keying per-flow state on a
//! `BTreeMap` paid tree-walk and node-allocation costs on every segment
//! delivery for what is really array indexing. A [`FlowMap`] is the dense
//! replacement: a `Vec` indexed by the flow id, `None` for flows not (or
//! no longer) present. Lookup is one bounds check; insertion grows the
//! vector to the flow id's index once and never shrinks, so steady state
//! performs no allocation.
//!
//! Memory is proportional to the largest flow id a host has ever seen,
//! which on a client host is the ids of its own few connections and on
//! the server host is the total connection count — both tiny next to the
//! socket state itself.

use crate::segment::FlowId;

/// A dense map from [`FlowId`] to `T`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> FlowMap<T> {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        FlowMap { slots: Vec::new() }
    }

    /// Looks up `flow`.
    // hot-path: runs on every segment delivery; must not allocate per call
    #[inline]
    pub(crate) fn get(&self, flow: FlowId) -> Option<&T> {
        self.slots.get(flow.0 as usize).and_then(Option::as_ref)
    }

    /// Binds `flow` to `value`, growing the table if the id is beyond the
    /// current high-water mark. Returns the previous binding, if any.
    pub(crate) fn set(&mut self, flow: FlowId, value: T) -> Option<T> {
        let idx = flow.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Unbinds `flow`, returning its value if it was bound. The slot is
    /// kept (vacant) so the table never shrinks or reallocates.
    pub(crate) fn remove(&mut self, flow: FlowId) -> Option<T> {
        self.slots.get_mut(flow.0 as usize).and_then(Option::take)
    }

    /// Number of bound flows.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when no flows are bound.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
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
}
