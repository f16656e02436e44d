//! Steady-state allocation assertion for the event-queue hot path and the
//! store that holds what its events name.
//!
//! `EventQueue::schedule_at` / `pop` / `cancel` are documented "must not
//! allocate per call" — a promise the old `BinaryHeap` + `BTreeSet`
//! implementation broke on every schedule (tree-node allocation) — and so
//! are `Store::put` / `take`, which hold the segments in flight. This
//! test installs a counting global allocator, warms the timer wheel to its
//! high-water mark (slab cells and the free list) and the store to its
//! own, then replays the same churn pattern — including the re-arm of
//! standing timers, whose cancels unlink cells from the head and middle of
//! coarse slots, and values put, cloned under a second key and taken in
//! shuffled order — and asserts the steady-state phase performs **zero**
//! heap allocations.
//!
//! The file holds exactly one test so no sibling test thread can allocate
//! concurrently and pollute the counter.

// The counting allocator is the one place the simulator's test suite needs
// `unsafe`: implementing `GlobalAlloc` is inherently unsafe. The override
// is scoped to this integration test, not the library.
#![expect(unsafe_code, reason = "a counting GlobalAlloc is unsafe to implement")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simnet::{EventQueue, EventToken, Nanos, Pcg32, Store, StoreKey};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Standing timers re-armed round-robin during the churn (per-socket RTOs).
const STANDING: usize = 64;

/// One churn phase: a deterministic mix of schedules (spanning several
/// wheel levels), cancels, pops, and re-arms of the standing timers.
/// Identical across phases modulo the advancing clock, so capacity warmed
/// by earlier phases covers later ones.
fn churn(
    q: &mut EventQueue<u64>,
    rng: &mut Pcg32,
    tokens: &mut Vec<EventToken>,
    standing: &mut [Option<EventToken>; STANDING],
) {
    for i in 0..20_000u64 {
        // Re-arm one standing timer 200 ms ahead: its superseded cell sits
        // wherever in a coarse slot its neighbours left it.
        let slot = &mut standing[i as usize % STANDING];
        if let Some(tok) = slot.take() {
            q.cancel(tok);
        }
        *slot = Some(q.schedule(Nanos::from_millis(200), u64::MAX));

        let delay = match rng.gen_range(4) {
            0 => rng.gen_range(64),
            1 => rng.gen_range(1 << 10),
            2 => rng.gen_range(1 << 14),
            _ => rng.gen_range(1 << 18),
        };
        tokens.push(q.schedule(Nanos::from_nanos(delay), i));
        if i % 3 == 0 {
            if let Some(tok) = tokens.pop() {
                q.cancel(tok);
            }
        }
        if i % 2 == 0 {
            q.pop();
            q.peek_time();
        }
    }
    while q.pop().is_some() {}
    tokens.clear();
    *standing = [None; STANDING]; // all fired in the drain
}

/// Values held at most at once by the store churn (segments in flight).
const IN_FLIGHT: u64 = 512;

/// A segment-sized value.
type Value = [u8; 240];

/// One store phase: values put and taken in shuffled order with up to
/// [`IN_FLIGHT`] held, one in twenty cloned under a second key (a
/// duplicated segment), the rest taken at the end.
fn store_churn(store: &mut Store<Value>, rng: &mut Pcg32, held: &mut Vec<StoreKey>) {
    for i in 0..20_000u64 {
        let key = store.put([i as u8; 240]);
        held.push(key);
        if rng.gen_range(20) == 0 {
            let copy = *store.get(key);
            held.push(store.put(copy));
        }
        while held.len() as u64 > rng.gen_range(IN_FLIGHT) {
            let at = rng.gen_range(held.len() as u64) as usize;
            store.take(held.swap_remove(at));
        }
    }
    for key in held.drain(..) {
        store.take(key);
    }
    assert!(store.is_empty());
}

#[test]
fn steady_state_hot_path_does_not_allocate() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Pcg32::new(0x00A1_10C8);
    let mut tokens: Vec<EventToken> = Vec::with_capacity(32_768);
    let mut standing = [None; STANDING];
    let mut store: Store<Value> = Store::new();
    let mut held: Vec<StoreKey> = Vec::with_capacity(2 * IN_FLIGHT as usize);

    // Warm until a whole churn phase allocates nothing: the slab and the
    // free list reach their high-water marks. A fixed number of phases is
    // not assumed, a fixed point is. An implementation that allocates per
    // call (the old heap + BTreeSet) never reaches one.
    let mut warm_phases = 0;
    loop {
        let before = ALLOCS.load(Ordering::SeqCst);
        churn(&mut q, &mut rng, &mut tokens, &mut standing);
        store_churn(&mut store, &mut rng, &mut held);
        if ALLOCS.load(Ordering::SeqCst) == before {
            break;
        }
        warm_phases += 1;
        assert!(
            warm_phases < 64,
            "event-queue or store hot path still allocating after {warm_phases} phases: \
             no steady state exists"
        );
    }

    // And hold the fixed point: one more full phase, zero allocations.
    let before = ALLOCS.load(Ordering::SeqCst);
    churn(&mut q, &mut rng, &mut tokens, &mut standing);
    let queue_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    store_churn(&mut store, &mut rng, &mut held);
    let store_allocs = ALLOCS.load(Ordering::SeqCst) - before - queue_allocs;
    assert_eq!(
        queue_allocs, 0,
        "event-queue hot path allocated {queue_allocs} time(s) in steady state"
    );
    assert_eq!(
        store_allocs, 0,
        "store allocated {store_allocs} time(s) in steady state"
    );
    assert!(
        store.high_water() <= 2 * IN_FLIGHT as usize,
        "{}",
        store.high_water()
    );
}
