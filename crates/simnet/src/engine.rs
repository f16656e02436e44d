//! Generic discrete-event engine.
//!
//! An [`EventQueue`] holds future events ordered by `(time, sequence)`; the
//! sequence number breaks ties deterministically in insertion order. A
//! simulation is a [`World`] — any state machine that consumes its own event
//! type and schedules follow-ups — driven by [`run`] until a deadline or
//! [`run_until_idle`] until the queue drains.
//!
//! Timers are events like any other; cancellation is supported through
//! [`EventToken`]s. The queue is backed by the hierarchical timer wheel in
//! [`wheel`](crate::wheel): O(1) schedule and cancel, amortized-O(1) pop,
//! and no heap allocation in steady state — the slab and slot storage are
//! recycled, and a cancelled event leaves the queue (and frees its cell)
//! at once, so only live events are ever resident. (It replaced a lazy-deletion `BinaryHeap` + `BTreeSet` pair
//! that allocated tree nodes on every schedule.)

use littles::Nanos;

use crate::wheel::{TimerWheel, WheelToken};

/// Identifies a scheduled event so it can be cancelled.
///
/// Tokens are generation-checked: cancelling an event that already fired
/// (or was already cancelled) is recognized as stale and is a true no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// A time-ordered queue of future events.
///
/// The queue owns the simulated clock: [`EventQueue::now`] advances to each
/// event's timestamp as it is popped. Scheduling in the past is a logic
/// error (debug assertion) and is clamped to `now` in release builds.
///
/// # Examples
///
/// ```
/// use simnet::{EventQueue, Nanos};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Nanos::from_micros(2), "b");
/// q.schedule(Nanos::from_micros(1), "a");
/// assert_eq!(q.pop(), Some((Nanos::from_micros(1), "a")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Nanos {
        Nanos::from_nanos(self.wheel.now_ns())
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn schedule(&mut self, delay: Nanos, event: E) -> EventToken {
        self.schedule_at(self.now().saturating_add(delay), event)
    }

    /// Schedules `event` at absolute time `at` (clamped to `now`).
    // hot-path: runs once per scheduled event; must not allocate per call
    pub fn schedule_at(&mut self, at: Nanos, event: E) -> EventToken {
        debug_assert!(
            at >= self.now(),
            "scheduling into the past: {at} < {}",
            self.now()
        );
        EventToken(self.wheel.schedule(at.as_nanos(), event).0)
    }

    /// Cancels a previously scheduled event and returns whether it was
    /// still queued. Cancelling an event that has already fired (or was
    /// already cancelled) is a true no-op: the token's generation no
    /// longer matches its slab cell, so `len` stays exact.
    // hot-path: runs once per cancelled timer; must not allocate per call
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.wheel.cancel(WheelToken(token.0))
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    // hot-path: the event-loop inner loop; must not allocate per call
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.wheel
            .pop()
            .map(|(at, event)| (Nanos::from_nanos(at), event))
    }

    /// Timestamp of the next live event without popping it. Read-only.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.wheel.peek().map(Nanos::from_nanos)
    }

    /// Number of live events still queued.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Wheel cells ever allocated: the peak of [`len`](Self::len) over
    /// the queue's life (see [`TimerWheel::slab_len`]).
    pub fn slab_len(&self) -> usize {
        self.wheel.slab_len()
    }
}

/// A simulation state machine.
///
/// The world receives each event together with the queue, through which it
/// may schedule (or cancel) follow-up events. Worlds must not depend on any
/// source of nondeterminism other than their own seeded RNG.
pub trait World {
    /// The world's event alphabet.
    type Event;

    /// Handles one event at the time `queue.now()`.
    fn handle(&mut self, queue: &mut EventQueue<Self::Event>, event: Self::Event);
}

/// Drives `world` until the queue is empty or the next event is past
/// `until`. Returns the number of events processed.
///
/// Events with timestamps exactly equal to `until` are processed; later
/// ones remain queued (and the clock does not advance past them).
pub fn run<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>, until: Nanos) -> u64 {
    let mut n = 0;
    while let Some(at) = queue.peek_time() {
        if at > until {
            break;
        }
        #[expect(
            clippy::expect_used,
            reason = "peek_time just returned Some, so pop does too"
        )]
        let (_, ev) = queue.pop().expect("peeked event exists");
        world.handle(queue, ev);
        n += 1;
    }
    n
}

/// Drives `world` until no events remain. Returns the number processed.
///
/// # Panics
///
/// Panics after `limit` events as a runaway guard (a self-perpetuating
/// timer chain would otherwise never terminate).
pub fn run_until_idle<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    limit: u64,
) -> u64 {
    let mut n = 0;
    while let Some((_, ev)) = queue.pop() {
        world.handle(queue, ev);
        n += 1;
        assert!(n <= limit, "event budget exhausted: runaway simulation?");
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Nanos::from_nanos(30), 3);
        q.schedule(Nanos::from_nanos(10), 1);
        q.schedule(Nanos::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = Nanos::from_nanos(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(Nanos::from_micros(7), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos::from_micros(7));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let tok = q.schedule(Nanos::from_nanos(1), 1);
        q.schedule(Nanos::from_nanos(2), 2);
        assert!(q.cancel(tok), "the event was still queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let tok = q.schedule(Nanos::from_nanos(1), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert!(!q.cancel(tok), "a fired event's token is stale");
        // Regression: the stale cancel must not affect live bookkeeping —
        // `len` stays exact and later events still fire.
        assert_eq!(q.len(), 0);
        q.schedule(Nanos::from_nanos(2), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn stale_cancels_do_not_underflow_len() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let tok = q.schedule(Nanos::from_nanos(1), 1);
        q.pop();
        // Before the fix, each stale cancel grew `cancelled` while the heap
        // stayed empty, so `heap.len() - cancelled.len()` underflowed.
        q.cancel(tok);
        q.cancel(tok);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let tok = q.schedule(Nanos::from_nanos(1), 1);
        q.schedule(Nanos::from_nanos(2), 2);
        q.cancel(tok);
        q.cancel(tok);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let tok = q.schedule(Nanos::from_nanos(1), 1);
        q.schedule(Nanos::from_nanos(9), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(9)));
    }

    #[test]
    fn peek_time_is_shared_ref() {
        // Satellite regression: peek must not need `&mut self`.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Nanos::from_nanos(3), 1);
        let shared: &EventQueue<u32> = &q;
        assert_eq!(shared.peek_time(), Some(Nanos::from_nanos(3)));
    }

    struct Counter {
        fired: Vec<(Nanos, u32)>,
        chain: u32,
    }

    impl World for Counter {
        type Event = u32;
        fn handle(&mut self, q: &mut EventQueue<u32>, ev: u32) {
            self.fired.push((q.now(), ev));
            if ev < self.chain {
                q.schedule(Nanos::from_nanos(10), ev + 1);
            }
        }
    }

    #[test]
    fn run_respects_deadline_inclusive() {
        let mut w = Counter {
            fired: vec![],
            chain: 100,
        };
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), 1);
        // Chain fires at t = 10, 20, 30, ...; deadline 30 → three events.
        let n = run(&mut w, &mut q, Nanos::from_nanos(30));
        assert_eq!(n, 3);
        assert_eq!(w.fired.last(), Some(&(Nanos::from_nanos(30), 3)));
        assert_eq!(q.len(), 1, "the t=40 event stays queued");
    }

    #[test]
    fn run_until_idle_drains() {
        let mut w = Counter {
            fired: vec![],
            chain: 5,
        };
        let mut q = EventQueue::new();
        q.schedule(Nanos::ZERO, 1);
        let n = run_until_idle(&mut w, &mut q, 1000);
        assert_eq!(n, 5);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn runaway_guard_trips() {
        struct Forever;
        impl World for Forever {
            type Event = ();
            fn handle(&mut self, q: &mut EventQueue<()>, _: ()) {
                q.schedule(Nanos::from_nanos(1), ());
            }
        }
        let mut q = EventQueue::new();
        q.schedule(Nanos::ZERO, ());
        run_until_idle(&mut Forever, &mut q, 100);
    }
}
