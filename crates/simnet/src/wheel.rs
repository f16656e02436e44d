//! Hierarchical timer wheel: the allocation-free core under `EventQueue`.
//!
//! [`EventQueue`](crate::EventQueue) used to keep a lazy-deletion
//! `BinaryHeap` plus two `BTreeSet`s, which allocated a tree node on every
//! schedule — on a path documented "must not allocate per call". This module
//! replaces it with a hierarchical timer wheel in the style of hashed
//! hierarchical wheels (Varghese & Lauck) and production async runtimes:
//!
//! * [`LEVELS`] levels of [`SLOTS`] slots each. Level `l` has a granularity
//!   of `64^l` nanoseconds, so level 0 resolves single nanoseconds and the
//!   top level spans the whole `u64` range — there is no separate overflow
//!   list.
//! * Events are slotted by **absolute time**: an event at time `at` lives
//!   at the level of the highest 6-bit block in which `at` differs from the
//!   wheel's cursor. Popping scans the lowest non-empty level's lowest
//!   occupied slot (an occupancy bitmap per level makes this two
//!   `trailing_zeros` instructions); slots above level 0 are *cascaded* —
//!   drained and re-slotted at finer levels — as the cursor reaches them.
//! * Every scheduled event owns a generation-checked cell in a slab, and
//!   the cells themselves form **intrusive doubly-linked FIFO lists**:
//!   each slot is just a `(head, tail)` pair of slab indices and each cell
//!   carries `prev`/`next` links. Scheduling, cancelling, popping, and
//!   cascading therefore move indices around preallocated storage and
//!   never allocate — the slab's high-water mark is the only growth point,
//!   so steady state performs zero heap allocations (asserted by
//!   `simnet/tests/hot_path_alloc.rs`).
//! * Cancellation **unlinks** the cell in O(1): the event is dropped, the
//!   token's generation goes stale, the cell leaves its slot's list (the
//!   slot is found from the invariant below), the slot's occupancy bit
//!   clears if that emptied it, and the cell is back on the free list
//!   before `cancel` returns. Only live entries are ever linked, so a
//!   timer that is re-armed a million times occupies one cell, not a
//!   million, and `pop`/`peek` never meet a dead entry. Lazy reaping is
//!   not an option: a TCP socket re-arms its 200 ms RTO on every ACK, and
//!   leaving superseded cells linked until their slot came due kept
//!   ~93 000 of them resident on one busy connection, each cascading
//!   through four levels on its way to being dropped.
//!
//! # Placement invariant
//!
//! A linked cell with timestamp `at` lives at level
//! `level_for(cursor, at)`, slot `(at >> 6·level) & 63`. `schedule` places
//! it there; `pop` only ever moves the cursor to the start of the lowest
//! occupied slot of the lowest occupied level, which changes no block
//! above that level (so coarser cells stay put), leaves other slots of
//! that level differing from the cursor in exactly that block, and
//! cascades the one slot whose cells now agree with it. `cancel` relies
//! on this to find a cell's slot without storing it.
//!
//! # Ordering
//!
//! The wheel preserves the engine's `(time, sequence)` total order
//! *structurally*, without storing sequence numbers: a level-0 slot names
//! one exact nanosecond, so FIFO order within its list is insertion order;
//! and cascades walk a slot front-to-back and append, so two same-time
//! events are never reordered on their way down the levels.
//!
//! Lower level ⇒ strictly earlier: a level-`l` entry agrees with the cursor
//! on every block above `l`, while a level-`l'` (`l' > l`) entry exceeds
//! the cursor in block `l'` — so the former compares smaller. Within a
//! level, a lower slot index is a smaller block value, hence earlier. This
//! is what makes a read-only [`TimerWheel::peek`] possible: scan in (level,
//! slot) order and take the minimum timestamp of the first occupied slot.

/// Bits per wheel level: each level fans out into `2^BITS` slots.
pub const BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << BITS;
/// Number of levels. `64^11 = 2^66` exceeds the `u64` nanosecond range, so
/// every representable timestamp maps to some level and no overflow spill
/// list is needed.
pub const LEVELS: usize = 11;

const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Null link / empty slot sentinel.
const NIL: u32 = u32::MAX;

/// Identifies a scheduled entry so it can be cancelled in O(1).
///
/// Packs `(slab index, generation)`; the generation is bumped every time
/// the cell's tenant fires or is cancelled, so tokens for spent entries
/// are recognized as stale. (A generation is 32 bits, so a token could in
/// principle alias after 2^32 reuses of one cell — far beyond any run's
/// event budget.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelToken(pub(crate) u64);

#[inline]
fn pack(idx: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(idx)
}

#[inline]
fn unpack(packed: u64) -> (u32, u32) {
    (packed as u32, (packed >> 32) as u32)
}

/// The level at which a timestamp `at` is slotted, relative to `cursor`:
/// the index of the highest 6-bit block where the two differ (0 when
/// equal, i.e. due immediately).
#[inline]
fn level_for(cursor: u64, at: u64) -> usize {
    let differing = cursor ^ at;
    if differing == 0 {
        0
    } else {
        ((63 - differing.leading_zeros()) / BITS) as usize
    }
}

#[derive(Debug)]
struct Cell<E> {
    gen: u32,
    /// Intrusive links to the neighbours in the same slot (or [`NIL`]).
    prev: u32,
    next: u32,
    at: u64,
    /// `Some` while linked; `None` on the free list.
    event: Option<E>,
}

#[derive(Debug)]
struct Level {
    /// Bit `s` set ⇔ slot `s`'s list is non-empty.
    occupied: u64,
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
        }
    }
}

/// A hierarchical timer wheel over nanosecond timestamps.
///
/// The wheel owns a monotone cursor (the engine's simulated clock):
/// [`TimerWheel::pop`] advances it to each popped event's timestamp, and
/// [`TimerWheel::schedule`] clamps timestamps below the cursor up to it.
#[derive(Debug)]
pub struct TimerWheel<E> {
    cursor: u64,
    /// Live (scheduled, not yet fired or cancelled) entries — exact.
    live: usize,
    levels: Vec<Level>,
    cells: Vec<Cell<E>>,
    /// Reusable slab indices (fired or cancelled cells).
    free: Vec<u32>,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the cursor at zero.
    pub fn new() -> Self {
        let mut levels = Vec::with_capacity(LEVELS);
        levels.resize_with(LEVELS, Level::new);
        TimerWheel {
            cursor: 0,
            live: 0,
            levels,
            cells: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Current cursor position (the simulated clock), in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.cursor
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slab cells ever allocated. A cell is reused the moment its entry
    /// fires or is cancelled, so this is the peak of [`len`](Self::len)
    /// over the wheel's life — not the number of schedules or cancels.
    pub fn slab_len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn cell(&mut self, idx: u32) -> &mut Cell<E> {
        &mut self.cells[idx as usize]
    }

    /// The (level, slot) a timestamp maps to under the current cursor.
    #[inline]
    fn position(&self, at: u64) -> (usize, usize) {
        let lvl = level_for(self.cursor, at);
        (lvl, ((at >> (BITS * lvl as u32)) & SLOT_MASK) as usize)
    }

    /// Appends cell `idx` to the slot its timestamp maps to.
    // hot-path: runs on every schedule and once per cascade hop
    #[inline]
    fn place(&mut self, idx: u32, at: u64) {
        let (lvl, slot) = self.position(at);
        let level = &mut self.levels[lvl];
        let tail = std::mem::replace(&mut level.tail[slot], idx);
        if tail == NIL {
            level.head[slot] = idx;
            level.occupied |= 1 << slot;
        } else {
            self.cell(tail).next = idx;
        }
        let cell = self.cell(idx);
        cell.prev = tail;
        cell.next = NIL;
    }

    /// Unlinks cell `idx` (neighbours `prev`/`next`) from `slot` at `lvl`,
    /// clearing the occupancy bit if the list empties.
    // hot-path: runs once per pop and once per cancel
    #[inline]
    fn unlink(&mut self, lvl: usize, slot: usize, idx: u32, prev: u32, next: u32) {
        let level = &mut self.levels[lvl];
        if prev == NIL {
            debug_assert_eq!(level.head[slot], idx, "cell is not where its time says");
            level.head[slot] = next;
        }
        if next == NIL {
            debug_assert_eq!(level.tail[slot], idx, "cell is not where its time says");
            level.tail[slot] = prev;
        }
        if prev == NIL && next == NIL {
            level.occupied &= !(1 << slot);
        }
        if prev != NIL {
            self.cell(prev).next = next;
        }
        if next != NIL {
            self.cell(next).prev = prev;
        }
    }

    /// Vacates a just-unlinked cell: takes its event, stales its tokens,
    /// and returns it to the free list.
    #[inline]
    fn release(&mut self, idx: u32) -> Option<E> {
        let cell = self.cell(idx);
        cell.gen = cell.gen.wrapping_add(1);
        let event = cell.event.take();
        self.free.push(idx);
        self.live -= 1;
        event
    }

    /// Schedules `event` at absolute nanosecond `at` (clamped up to the
    /// cursor). Allocation-free once the slab has reached its high-water
    /// mark.
    // hot-path: runs once per scheduled event; must not allocate per call
    pub fn schedule(&mut self, at: u64, event: E) -> WheelToken {
        let at = at.max(self.cursor);
        let (idx, gen) = match self.free.pop() {
            Some(idx) => {
                let cell = self.cell(idx);
                cell.at = at;
                cell.event = Some(event);
                (idx, cell.gen)
            }
            None => {
                let idx = u32::try_from(self.cells.len()).expect("wheel slab capacity");
                self.cells.push(Cell {
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    at,
                    event: Some(event),
                });
                (idx, 0)
            }
        };
        self.place(idx, at);
        self.live += 1;
        WheelToken(pack(idx, gen))
    }

    /// Cancels a scheduled entry. Returns whether the token named a live
    /// entry; stale tokens (already fired or already cancelled) are a true
    /// no-op. O(1): the cell is unlinked from its slot and back on the
    /// free list when this returns.
    // hot-path: runs once per cancelled timer; must not allocate per call
    pub fn cancel(&mut self, token: WheelToken) -> bool {
        let (idx, gen) = unpack(token.0);
        let Some(cell) = self.cells.get(idx as usize) else {
            return false;
        };
        // Firing and cancelling both bump the generation, so a matching
        // one means the cell is linked.
        if cell.gen != gen {
            return false;
        }
        debug_assert!(cell.event.is_some(), "current generation on a free cell");
        let (at, prev, next) = (cell.at, cell.prev, cell.next);
        let (lvl, slot) = self.position(at);
        self.unlink(lvl, slot, idx, prev, next);
        self.release(idx);
        true
    }

    /// Pops the earliest entry, advancing the cursor to its timestamp.
    /// The cursor never moves past any entry's time.
    // hot-path: the event-loop inner loop; must not allocate per call
    pub fn pop(&mut self) -> Option<(u64, E)> {
        loop {
            let lvl = self.levels.iter().position(|l| l.occupied != 0)?;
            let level = &self.levels[lvl];
            let slot = level.occupied.trailing_zeros() as usize;
            let head = level.head[slot];
            let slot_time = self.slot_start(lvl, slot);
            debug_assert!(slot_time >= self.cursor, "wheel cursor passed a slot");
            self.cursor = slot_time;
            if lvl == 0 {
                // A level-0 slot names one exact nanosecond; FIFO order in
                // its list is insertion order, which is the tie-break.
                let next = self.cell(head).next;
                debug_assert_eq!(self.cell(head).at, slot_time);
                self.unlink(0, slot, head, NIL, next);
                let event = self.release(head).expect("linked cells hold an event");
                return Some((slot_time, event));
            }
            // Cascade: detach the coarse slot and re-slot each entry at
            // the finer level it now maps to. Front-to-back walk + tail
            // append keeps same-time entries in order.
            let level = &mut self.levels[lvl];
            level.head[slot] = NIL;
            level.tail[slot] = NIL;
            level.occupied &= !(1 << slot);
            let mut idx = head;
            while idx != NIL {
                let cell = self.cell(idx);
                let (at, next) = (cell.at, cell.next);
                debug_assert!(level_for(self.cursor, at) < lvl);
                self.place(idx, at);
                idx = next;
            }
        }
    }

    /// Timestamp of the earliest entry, without mutating anything.
    pub fn peek(&self) -> Option<u64> {
        let (lvl, level) = self
            .levels
            .iter()
            .enumerate()
            .find(|(_, l)| l.occupied != 0)?;
        // The first occupied slot holds the global earliest (lower level
        // ⇒ earlier; lower slot ⇒ earlier).
        let slot = level.occupied.trailing_zeros() as usize;
        if lvl == 0 {
            return Some(self.slot_start(0, slot));
        }
        // Above level 0 a slot's entries span a range, so take the min.
        let mut earliest = u64::MAX;
        let mut idx = level.head[slot];
        while idx != NIL {
            let cell = &self.cells[idx as usize];
            earliest = earliest.min(cell.at);
            idx = cell.next;
        }
        Some(earliest)
    }

    /// The earliest timestamp covered by `slot` at `lvl`, given the
    /// cursor's position in all coarser blocks.
    #[inline]
    fn slot_start(&self, lvl: usize, slot: usize) -> u64 {
        let shift = BITS * lvl as u32;
        let above = match shift.checked_add(BITS) {
            Some(s) if s < 64 => !((1u64 << s) - 1),
            _ => 0,
        };
        (self.cursor & above) | ((slot as u64) << shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_cover_u64() {
        // The top level must be reachable for any cursor/timestamp pair.
        assert_eq!(level_for(0, u64::MAX), LEVELS - 1);
        assert_eq!(level_for(0, 0), 0);
        assert_eq!(level_for(5, 5), 0);
        assert_eq!(level_for(0, 63), 0);
        assert_eq!(level_for(0, 64), 1);
    }

    #[test]
    fn far_future_cascades_down() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(u64::MAX, 1);
        w.schedule(1 << 40, 2);
        w.schedule(7, 3);
        assert_eq!(w.peek(), Some(7));
        assert_eq!(w.pop(), Some((7, 3)));
        assert_eq!(w.pop(), Some((1 << 40, 2)));
        assert_eq!(w.pop(), Some((u64::MAX, 1)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn cancel_is_exact_and_generational() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t1 = w.schedule(10, 1);
        assert!(w.cancel(t1));
        assert!(!w.cancel(t1), "double cancel is stale");
        let t2 = w.schedule(20, 2);
        assert!(!w.cancel(t1), "stale token must not hit a new tenant");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((20, 2)));
        assert!(!w.cancel(t2), "cancel after fire is stale");
    }

    #[test]
    fn same_time_entries_keep_insertion_order_across_cascades() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t = (1 << 30) + 5; // deep enough to cascade several levels
        for v in 0..10 {
            w.schedule(t, v);
        }
        for v in 0..10 {
            assert_eq!(w.pop(), Some((t, v)));
        }
    }

    #[test]
    fn same_time_inserts_during_drain_fire_after_remainder() {
        // Pop one of three same-time events, schedule two more at that
        // exact time, and confirm FIFO across the reattached remainder.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for v in 0..3 {
            w.schedule(100, v);
        }
        assert_eq!(w.pop(), Some((100, 0)));
        w.schedule(100, 3);
        w.schedule(100, 4);
        for v in 1..5 {
            assert_eq!(w.pop(), Some((100, v)));
        }
    }

    #[test]
    fn peek_is_read_only_and_cancel_unlinks() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let tok = w.schedule(100, 1);
        w.schedule(1 << 20, 2);
        assert!(w.cancel(tok));
        // The cancelled cell left its slot at once: nothing at level 1
        // (where 100 lived) is occupied, and the cell is reusable.
        assert_eq!(w.levels[1].occupied, 0);
        assert_eq!(w.free, vec![0]);
        assert_eq!(w.peek(), Some(1 << 20));
        assert_eq!(w.peek(), Some(1 << 20), "peek does not consume");
        assert_eq!(w.now_ns(), 0, "peek does not move the cursor");
        assert_eq!(w.pop(), Some((1 << 20, 2)));
    }

    #[test]
    fn cancel_unlinks_head_middle_tail_and_only_cell() {
        // Five same-slot entries (level 1, slot 2: times 128..192), then
        // cancel the head, the tail, a middle one, and finally the rest.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let toks: Vec<WheelToken> = (0..5).map(|v| w.schedule(130 + v, v as u32)).collect();
        let linked = |w: &TimerWheel<u32>| {
            let (mut out, mut idx, mut prev) = (Vec::new(), w.levels[1].head[2], NIL);
            while idx != NIL {
                let cell = &w.cells[idx as usize];
                assert_eq!(cell.prev, prev, "prev links mirror next links");
                out.push(cell.event.expect("linked cells are live"));
                prev = idx;
                idx = cell.next;
            }
            assert_eq!(w.levels[1].tail[2], prev);
            out
        };
        assert_eq!(linked(&w), vec![0, 1, 2, 3, 4]);
        assert!(w.cancel(toks[0]));
        assert_eq!(linked(&w), vec![1, 2, 3, 4]);
        assert!(w.cancel(toks[4]));
        assert_eq!(linked(&w), vec![1, 2, 3]);
        assert!(w.cancel(toks[2]));
        assert_eq!(linked(&w), vec![1, 3]);
        assert_eq!(w.peek(), Some(131));
        assert!(w.cancel(toks[1]));
        assert_ne!(w.levels[1].occupied, 0);
        assert!(w.cancel(toks[3]));
        assert_eq!(w.levels[1].occupied, 0, "emptying a slot clears its bit");
        assert_eq!((w.len(), w.peek(), w.pop()), (0, None, None));
        assert_eq!(w.free.len(), 5);
    }

    #[test]
    fn cancel_finds_cells_after_the_cursor_moved() {
        // Entries placed under cursor 0 are cancelled after pops moved the
        // cursor (and cascaded some of them): the placement invariant must
        // still name each cell's slot.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let far = w.schedule(1 << 30, 0);
        let same_slot = w.schedule((1 << 12) + 70, 1);
        let cascaded = w.schedule((1 << 12) + 5, 2);
        w.schedule(1 << 12, 3);
        assert_eq!(w.pop(), Some((1 << 12, 3))); // cascades level 2 → 0
        assert!(w.cancel(cascaded), "now at level 0");
        assert!(w.cancel(same_slot), "now at level 1");
        assert!(w.cancel(far), "untouched at level 5");
        assert!(w.levels.iter().all(|l| l.occupied == 0));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn slab_reaches_a_high_water_mark() {
        // One-in-flight churn across many distinct slots must not grow the
        // slab beyond a handful of cells: storage is recycled, not
        // proportional to slots touched.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for round in 0..10_000u64 {
            w.schedule(w.now_ns() + round % 5_000 + 1, round as u32);
            w.pop();
        }
        assert!(
            w.cells.len() <= 4,
            "slab grew to {} cells for one-in-flight churn",
            w.cells.len()
        );
        // Re-arm churn (cancel + schedule far ahead, never popping) reuses
        // the one cell the cancel just freed.
        let mut tok = w.schedule(w.now_ns() + 200_000_000, 0);
        let cells = w.cells.len();
        for round in 0..10_000u64 {
            assert!(w.cancel(tok));
            tok = w.schedule(w.now_ns() + 200_000_000 + round, 0);
        }
        assert_eq!(w.cells.len(), cells, "cancelled cells must be reused at once");
    }
}
