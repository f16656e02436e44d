//! Differential sweep: the timer-wheel-backed [`EventQueue`] against a
//! straightforward reference model (a `(time, seq)`-ordered `BinaryHeap`
//! with eager cancellation), driven through 1 000 seeded rounds of random
//! schedule / schedule_at / cancel / pop / peek interleavings.
//!
//! The reference is deliberately naive — correctness by construction — so
//! any divergence in popped (time, payload) pairs, peeked times, or exact
//! `len` is a wheel bug. Dedicated cases cover the corners the random
//! sweep may under-sample: far-future timestamps that live in the top
//! wheel levels, cancel-after-fire staleness, mass cancellation, cancels
//! at each position of a slot's list and across a cascade, and the re-arm
//! churn of per-socket timers (cancel + reschedule ~200 ms ahead between
//! pops), where the slab must track peak live entries, not cancellations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simnet::wheel::{TimerWheel, WheelToken};
use simnet::{EventQueue, EventToken, Nanos, Pcg32};

/// Reference scheduler: same `(time, seq)` total order and stale-cancel
/// semantics as `EventQueue`, implemented the obvious O(log n) way.
#[derive(Default)]
struct RefModel {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cancelled: Vec<u64>, // seqs cancelled while still pending
}

impl RefModel {
    fn schedule_at(&mut self, at: u64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at.max(self.now), seq, payload)));
        seq
    }

    /// Returns whether `seq` was still pending.
    fn cancel(&mut self, seq: u64) -> bool {
        // Stale tokens (already fired or already cancelled) are no-ops.
        let pending = self.heap.iter().any(|Reverse((_, s, _))| *s == seq);
        let live = pending && !self.cancelled.contains(&seq);
        if live {
            self.cancelled.push(seq);
        }
        live
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        while let Some(Reverse((at, seq, payload))) = self.heap.pop() {
            if let Some(i) = self.cancelled.iter().position(|&s| s == seq) {
                self.cancelled.swap_remove(i);
                continue;
            }
            self.now = at;
            return Some((at, payload));
        }
        None
    }

    fn peek(&mut self) -> Option<u64> {
        while let Some(Reverse((at, seq, _))) = self.heap.peek() {
            if let Some(i) = self.cancelled.iter().position(|s| *s == *seq) {
                self.cancelled.swap_remove(i);
                self.heap.pop();
                continue;
            }
            return Some(*at);
        }
        None
    }

    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }
}

/// One outstanding token pair: the wheel's and the reference's handle for
/// the same scheduled event.
struct Outstanding {
    token: EventToken,
    seq: u64,
}

#[test]
fn thousand_round_differential_sweep() {
    let mut rng = Pcg32::new(0xD1FF_E7EA);
    for round in 0..1_000 {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = RefModel::default();
        let mut outstanding: Vec<Outstanding> = Vec::new();
        let ops = 10 + rng.gen_range(60);
        for op in 0..ops {
            match rng.gen_range(100) {
                // Schedule by relative delay, mostly near, sometimes far
                // enough to land several wheel levels up.
                0..=39 => {
                    let delay = match rng.gen_range(4) {
                        0 => rng.gen_range(64),      // level 0
                        1 => rng.gen_range(1 << 12), // level ~2
                        2 => rng.gen_range(1 << 30), // level ~5
                        _ => rng.gen_range(1 << 50), // top levels
                    };
                    let payload = (round * 1_000 + op) as u32;
                    let token = q.schedule(Nanos::from_nanos(delay), payload);
                    let seq = model.schedule_at(model.now.saturating_add(delay), payload);
                    outstanding.push(Outstanding { token, seq });
                }
                // Schedule at an absolute time, occasionally in the past
                // (clamped) or at the current instant (tie-break order).
                40..=54 => {
                    let now = q.now().as_nanos();
                    let at = match rng.gen_range(3) {
                        0 => now,
                        1 => now.saturating_sub(rng.gen_range(100)),
                        _ => now + rng.gen_range(1 << 20),
                    };
                    let payload = (round * 1_000 + op) as u32;
                    let token = q.schedule_at(Nanos::from_nanos(at.max(now)), payload);
                    let seq = model.schedule_at(at.max(now), payload);
                    outstanding.push(Outstanding { token, seq });
                }
                // Cancel a random token — half the time one that is still
                // outstanding, half the time a spent one (stale no-op).
                55..=69 => {
                    if outstanding.is_empty() {
                        continue;
                    }
                    let i = rng.gen_range(outstanding.len() as u64) as usize;
                    if rng.gen_bool(0.5) {
                        let o = outstanding.swap_remove(i);
                        q.cancel(o.token);
                        model.cancel(o.seq);
                    } else {
                        // Cancel twice: the second must be a no-op.
                        let o = &outstanding[i];
                        q.cancel(o.token);
                        model.cancel(o.seq);
                        q.cancel(o.token);
                        model.cancel(o.seq);
                        outstanding.swap_remove(i);
                    }
                }
                // Pop and compare the full (time, payload) pair.
                70..=89 => {
                    let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                    let want = model.pop();
                    assert_eq!(got, want, "round {round} op {op}: pop diverged");
                    if let Some((t, _)) = got {
                        assert_eq!(q.now().as_nanos(), t, "clock follows pop");
                        // Drop the fired event's handles so later cancels
                        // of them exercise the stale-token path knowingly.
                        outstanding
                            .retain(|o| model.heap.iter().any(|Reverse((_, s, _))| *s == o.seq));
                    }
                }
                // Peek (shared ref — must not mutate) and len exactness.
                _ => {
                    let got = q.peek_time().map(Nanos::as_nanos);
                    let want = model.peek();
                    assert_eq!(got, want, "round {round} op {op}: peek diverged");
                    assert_eq!(
                        got,
                        q.peek_time().map(Nanos::as_nanos),
                        "peek is idempotent"
                    );
                }
            }
            assert_eq!(q.len(), model.len(), "round {round} op {op}: len diverged");
            assert_eq!(q.is_empty(), model.len() == 0);
        }
        // Drain both completely: the tails must match event for event.
        loop {
            let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
            let want = model.pop();
            assert_eq!(got, want, "round {round}: drain diverged");
            if got.is_none() {
                break;
            }
        }
        assert_eq!(q.len(), 0);
    }
}

#[test]
fn far_future_overflow_ordering() {
    // Timestamps spanning every wheel level, scheduled in scrambled order,
    // must pop in sorted order — including u64::MAX.
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut times: Vec<u64> = (0..63).map(|b| 1u64 << b).collect();
    times.push(u64::MAX);
    times.push(0);
    times.push(12_345);
    let mut rng = Pcg32::new(7);
    let mut scrambled: Vec<(usize, u64)> = times.iter().copied().enumerate().collect();
    for i in (1..scrambled.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        scrambled.swap(i, j);
    }
    for &(id, t) in &scrambled {
        q.schedule_at(Nanos::from_nanos(t), id);
    }
    let mut expect: Vec<(u64, usize)> = times
        .iter()
        .copied()
        .enumerate()
        .map(|(i, t)| (t, i))
        .collect();
    expect.sort_unstable();
    for &(want_t, want_id) in &expect {
        let (at, id) = q.pop().expect("event remains");
        assert_eq!((at.as_nanos(), id), (want_t, want_id));
    }
    assert!(q.pop().is_none());
}

#[test]
fn cancel_after_fire_remains_noop_under_reuse() {
    // Fire an event, then cancel its token repeatedly while the slab cell
    // is reused by later schedules: the stale token must never hit the new
    // tenants and `len` must stay exact throughout.
    let mut q: EventQueue<u32> = EventQueue::new();
    let stale = q.schedule(Nanos::from_nanos(1), 1);
    assert_eq!(q.pop().map(|(_, e)| e), Some(1));
    for i in 0..100 {
        q.cancel(stale);
        q.schedule(Nanos::from_nanos(10 + i), i as u32);
        q.cancel(stale);
        assert_eq!(q.len() as u64, i + 1, "stale cancels must not leak");
    }
    let mut fired = 0;
    while q.pop().is_some() {
        fired += 1;
    }
    assert_eq!(fired, 100);
}

#[test]
fn mass_cancellation_keeps_len_exact() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let tokens: Vec<EventToken> = (0..1_000)
        .map(|i| q.schedule(Nanos::from_nanos(i % 97 + 1), i))
        .collect();
    assert_eq!(q.len(), 1_000);
    for (i, tok) in tokens.iter().enumerate() {
        if i % 3 != 0 {
            q.cancel(*tok);
        }
    }
    let survivors = (0..1_000).filter(|i| i % 3 == 0).count();
    assert_eq!(q.len(), survivors);
    let mut popped = 0;
    while let Some((_, payload)) = q.pop() {
        assert_eq!(payload % 3, 0, "cancelled event fired");
        popped += 1;
    }
    assert_eq!(popped, survivors);
    assert!(q.is_empty());
}

/// Pops both sides and checks they agree on the (time, payload) pair.
fn pop_both(w: &mut TimerWheel<u32>, model: &mut RefModel, ctx: &str) -> Option<(u64, u32)> {
    let got = w.pop();
    assert_eq!(got, model.pop(), "{ctx}: pop diverged");
    got
}

#[test]
fn cancel_at_every_list_position_and_across_a_cascade() {
    let mut w: TimerWheel<u32> = TimerWheel::new();
    let mut model = RefModel::default();
    let add = |w: &mut TimerWheel<u32>, model: &mut RefModel, at: u64, v: u32| {
        (w.schedule(at, v), model.schedule_at(at, v))
    };
    // Five entries in one level-2 slot (4096..8191), one of them sharing a
    // timestamp with its neighbour; cancel head, tail, middle.
    let base = 1 << 12;
    let same: Vec<_> = [10, 20, 20, 30, 40]
        .iter()
        .enumerate()
        .map(|(i, d)| add(&mut w, &mut model, base + d, i as u32))
        .collect();
    // An only-cell slot one level up, and a near event that moves the
    // cursor so the level-2 slot cascades before the later cancels.
    let lonely = add(&mut w, &mut model, 1 << 20, 90);
    add(&mut w, &mut model, base, 91);
    for &i in &[0usize, 4, 2] {
        assert!(w.cancel(same[i].0) && model.cancel(same[i].1));
        assert_eq!(w.peek(), model.peek());
        assert_eq!(w.len(), model.len());
    }
    assert!(
        w.cancel(lonely.0) && model.cancel(lonely.1),
        "only cell of its slot"
    );
    assert_eq!(pop_both(&mut w, &mut model, "cascade"), Some((base, 91)));
    // The survivors now sit at finer levels than where they were placed.
    assert!(
        w.cancel(same[1].0) && model.cancel(same[1].1),
        "across a cascade"
    );
    assert!(
        !w.cancel(same[1].0) && !model.cancel(same[1].1),
        "second cancel is stale"
    );
    assert_eq!(
        pop_both(&mut w, &mut model, "survivor"),
        Some((base + 30, 3))
    );
    assert_eq!(pop_both(&mut w, &mut model, "drained"), None);
    assert_eq!(w.slab_len(), 7, "seven entries were live at once");
}

#[test]
fn rearm_churn_matches_reference_and_slab_tracks_peak_live() {
    // K "sockets" each own one timer that is cancelled and rescheduled
    // ~200 ms ahead between pops — the per-ACK RTO pattern — over one-shot
    // background events whose pops move the clock by microseconds or,
    // now and then, far enough to cascade (and fire) the standing timers.
    const RTO: u64 = 200_000_000;
    const BACKGROUND: u32 = 1_000;
    let mut rng = Pcg32::new(0x7E_A2B1);
    let (mut rearms, mut fired) = (0u32, 0u32);
    for round in 0..60 {
        let k = 1 + rng.gen_range(64) as usize;
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut model = RefModel::default();
        let mut timers: Vec<Option<(WheelToken, u64)>> = vec![None; k];
        let mut peak_live = 0;
        for op in 0..1_500u32 {
            let ctx = format!("round {round} op {op}");
            match rng.gen_range(100) {
                0..=59 => {
                    let s = rng.gen_range(k as u64) as usize;
                    if let Some((token, seq)) = timers[s].take() {
                        assert!(w.cancel(token) && model.cancel(seq), "{ctx}: live timer");
                        assert!(!w.cancel(token), "{ctx}: cancelled token is stale");
                        rearms += 1;
                    }
                    let at = w.now_ns() + RTO + rng.gen_range(1 << 16);
                    timers[s] = Some((w.schedule(at, s as u32), model.schedule_at(at, s as u32)));
                }
                60..=74 => {
                    let delay = match rng.gen_range(8) {
                        0 => rng.gen_range(1 << 27),
                        _ => rng.gen_range(1 << 14),
                    };
                    let at = w.now_ns() + delay;
                    w.schedule(at, BACKGROUND + op);
                    model.schedule_at(at, BACKGROUND + op);
                }
                75..=94 => {
                    if let Some((_, v)) = pop_both(&mut w, &mut model, &ctx) {
                        if v < BACKGROUND {
                            // Only a socket's current arm can fire.
                            let (token, _) = timers[v as usize].take().expect("armed");
                            assert!(!w.cancel(token), "{ctx}: fired token is stale");
                            fired += 1;
                        }
                    }
                }
                95..=96 => {
                    for (token, seq) in timers.iter_mut().filter_map(Option::take) {
                        assert!(w.cancel(token) && model.cancel(seq), "{ctx}: mass cancel");
                    }
                }
                _ => assert_eq!(w.peek(), model.peek(), "{ctx}: peek diverged"),
            }
            assert_eq!(w.len(), model.len(), "{ctx}: len diverged");
            peak_live = peak_live.max(w.len());
            assert!(
                w.slab_len() <= peak_live,
                "{ctx}: slab {} > peak live {peak_live} after {rearms} re-arms",
                w.slab_len()
            );
        }
        while pop_both(&mut w, &mut model, "drain").is_some() {}
        assert_eq!(w.len(), 0);
    }
    assert!(
        rearms > 20_000 && fired > 1_000,
        "vacuous: {rearms} re-arms, {fired} fires"
    );
}
