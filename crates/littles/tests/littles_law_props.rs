//! Property-style tests for the Little's-law tracker.
//!
//! The central property: for any FIFO arrival/departure schedule over a
//! window in which the queue starts and ends empty, the Little's-law delay
//! recovered from the 4-tuple state equals the true mean residence time,
//! exactly (both are `Σ residence / n` in integer nanoseconds).
//!
//! Cases are generated with a seeded SplitMix64 sweep instead of proptest:
//! the workspace builds with no registry dependencies, and a fixed seed
//! keeps the suite bit-for-bit deterministic (the property `clippy.toml`
//! enforces across the workspace).

use std::num::Wrapping;

use littles::wire::{WireExchange, WireScale, WireSnapshot};
use littles::{Nanos, QueueState, QueueWindow, Snapshot};

/// Deterministic SplitMix64 — enough randomness for case generation
/// without pulling in `rand` (littles cannot depend on simnet).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A FIFO schedule: item `i` enters at `arrivals[i]` and leaves at
/// `departures[i]`, with both sequences sorted and `departure ≥ arrival`.
fn fifo_schedule(rng: &mut SplitMix64) -> (Vec<u64>, Vec<u64>) {
    let n = rng.range(1, 40) as usize;
    let mut arrivals: Vec<u64> = (0..n).map(|_| rng.range(0, 1_000_000)).collect();
    arrivals.sort_unstable();
    let mut departures = Vec::with_capacity(n);
    let mut prev = 0u64;
    for &a in &arrivals {
        let d = a.max(prev) + rng.range(1, 1_000_000);
        departures.push(d);
        prev = d;
    }
    (arrivals, departures)
}

#[test]
fn littles_law_matches_true_mean_residence() {
    let mut rng = SplitMix64(0xA11CE);
    for _ in 0..300 {
        let (arrivals, departures) = fifo_schedule(&mut rng);
        let mut q = QueueState::new(Nanos::ZERO);
        let start = q.snapshot(Nanos::ZERO);

        // Merge the two event streams in time order.
        let mut events: Vec<(u64, i64)> = arrivals
            .iter()
            .map(|&t| (t, 1i64))
            .chain(departures.iter().map(|&t| (t, -1i64)))
            .collect();
        events.sort_by_key(|&(t, kind)| (t, kind)); // departures (-1) before arrivals at ties
        for (t, delta) in events {
            q.track(Nanos::from_nanos(t), delta);
        }

        let end_time = *departures.last().expect("non-empty schedule") + 1;
        let end = q.snapshot(Nanos::from_nanos(end_time));
        let window = end.window_since(&start).expect("non-empty window");

        let n = arrivals.len() as u128;
        let residence_sum: u128 = arrivals
            .iter()
            .zip(&departures)
            .map(|(&a, &d)| (d - a) as u128)
            .sum();
        let true_mean_ns = residence_sum / n;

        let measured = window.rounded_delay().expect("items departed").as_nanos() as u128;
        // Integer division on both sides: allow 1 ns rounding slack.
        assert!(
            measured.abs_diff(true_mean_ns) <= 1,
            "littles {measured} vs true {true_mean_ns}"
        );
    }
}

#[test]
fn integral_is_monotonic_and_total_counts_departures() {
    let mut rng = SplitMix64(0xB0B);
    for _ in 0..200 {
        let steps = rng.range(1, 100) as usize;
        let mut q = QueueState::new(Nanos::ZERO);
        let mut t = 0u64;
        let mut last_integral = 0u128;
        let mut expected_total = 0u64;
        for _ in 0..steps {
            t += rng.range(1, 10_000);
            let want = rng.range(0, 9) as i64 - 3; // in [-3, 5]
                                                   // Clamp removals so occupancy never goes negative.
            let delta = if want < 0 {
                -(-want).min(q.size())
            } else {
                want
            };
            q.track(Nanos::from_nanos(t), delta);
            if delta < 0 {
                expected_total += delta.unsigned_abs();
            }
            assert!(q.integral() >= last_integral);
            last_integral = q.integral();
            assert_eq!(q.total(), expected_total);
            assert!(q.size() >= 0);
        }
    }
}

#[test]
fn snapshot_windows_are_additive() {
    let mut rng = SplitMix64(0xCAFE);
    for _ in 0..200 {
        // The window over [0, T] must be consistent with the two sub-windows:
        // the integrals and totals add.
        let steps = rng.range(2, 60) as usize;
        let split = (rng.range(1, 59) as usize).min(steps - 1);
        let mut q = QueueState::new(Nanos::ZERO);
        let s0 = q.snapshot(Nanos::ZERO);
        let mut t = 0u64;
        let mut mid: Option<Snapshot> = None;
        for i in 0..steps {
            t += rng.range(1, 10_000);
            let want = rng.range(0, 6) as i64 - 2; // in [-2, 3]
            let delta = if want < 0 {
                -(-want).min(q.size())
            } else {
                want
            };
            q.track(Nanos::from_nanos(t), delta);
            if i == split {
                mid = Some(q.snapshot(Nanos::from_nanos(t)));
            }
        }
        let s2 = q.snapshot(Nanos::from_nanos(t + 1));
        let mid = mid.expect("split < steps");
        assert_eq!(
            s2.integral - s0.integral,
            (mid.integral - s0.integral) + (s2.integral - mid.integral)
        );
        assert_eq!(
            s2.total - s0.total,
            (mid.total - s0.total) + (s2.total - mid.total)
        );
    }
}

#[test]
fn wire_roundtrip_any_snapshot() {
    let mut rng = SplitMix64(0xD1CE);
    for _ in 0..500 {
        let s = Snapshot {
            time: Nanos::from_nanos(rng.range(0, u64::MAX / 2)),
            total: rng.range(0, u32::MAX as u64),
            integral: (rng.next() as u128) & ((1u128 << 50) - 1),
        };
        let scale = WireScale::default();
        let w = WireSnapshot::pack(&s, scale);
        // The tagged Result path is the only decode outside `littles::wire`.
        let ex = WireExchange::pack(&s, &s, &s, scale);
        assert_eq!((ex.unacked, ex.unread, ex.ackdelay), (w, w, w));
        assert_eq!(WireExchange::try_decode_tagged(&ex.encode_tagged()), Ok(ex));
    }
}

#[test]
fn wire_exchange_roundtrip() {
    let mut rng = SplitMix64(0xF00D);
    for _ in 0..500 {
        let mk = |rng: &mut SplitMix64| WireSnapshot {
            time: Wrapping(rng.next() as u32),
            total: Wrapping(rng.next() as u32),
            integral: Wrapping(rng.next() as u32),
        };
        let ex = WireExchange {
            unacked: mk(&mut rng),
            unread: mk(&mut rng),
            ackdelay: mk(&mut rng),
            epoch: rng.next() as u8,
        };
        // The tagged Result path (the one untrusted bytes must take)
        // preserves the epoch.
        assert_eq!(WireExchange::try_decode_tagged(&ex.encode_tagged()), Ok(ex));
    }
}

#[test]
fn wire_window_delta_correct_across_wrap() {
    let mut rng = SplitMix64(0xFACADE);
    for _ in 0..500 {
        let base_t = Wrapping(rng.next() as u32);
        let dt = rng.range(1, 1_000_000) as u32;
        let base_total = Wrapping(rng.next() as u32);
        let dtotal = rng.range(0, 1_000_000) as u32;
        let prev = WireSnapshot {
            time: base_t,
            total: base_total,
            integral: Wrapping(0),
        };
        let cur = WireSnapshot {
            time: base_t + Wrapping(dt),
            total: base_total + Wrapping(dtotal),
            integral: Wrapping(0),
        };
        let w = cur
            .window_since(&prev, WireScale::UNSCALED)
            .expect("positive dt");
        assert_eq!(w.dt.as_nanos(), dt as u64);
        assert_eq!(w.d_total, dtotal as u64);
    }
}

/// GETAVGS has one window whichever snapshots it is taken from: a queue's
/// full-resolution window equals the one read off the unscaled wire,
/// field for field, while all three 32-bit wire counters wrap inside the
/// trace. And cumulative windows from one origin difference and re-merge
/// exactly: `a.merge(&b.since(&a)) == b`.
#[test]
fn full_and_wire_windows_agree_across_the_wrap() {
    let mut rng = SplitMix64(0x3A9_D1FF);
    let wrap = 1u64 << 32;
    let wire = |s: &Snapshot| WireSnapshot::pack(s, WireScale::UNSCALED);
    for _ in 0..300 {
        let (arrivals, departures) = fifo_schedule(&mut rng);
        let n = arrivals.len() as u64;
        let residence: u64 = arrivals.iter().zip(&departures).map(|(&a, &d)| d - a).sum();

        // Bring each counter to just short of a wrap, by less than the
        // trace advances it: the clock to 2^33 − r, the integral (one item
        // held) and the departures (a same-instant churn) to 2^32 − r.
        let r_time = rng.range(1, 1_000_000);
        let r_total = rng.range(1, n + 1);
        let r_integral = rng.range(1, residence + 1);
        let t1 = 2 * wrap - r_time;
        let held = wrap - r_integral;
        let mut q = QueueState::new(Nanos::from_nanos(t1 - held));
        q.track(Nanos::from_nanos(t1 - held), 1);
        q.track(Nanos::from_nanos(t1), -1);
        let churn = (wrap - 1 - r_total) as i64;
        q.track(Nanos::from_nanos(t1), churn);
        q.track(Nanos::from_nanos(t1), -churn);

        let mut events: Vec<(u64, i64)> = arrivals
            .iter()
            .map(|&t| (t, 1i64))
            .chain(departures.iter().map(|&t| (t, -1i64)))
            .collect();
        events.sort_by_key(|&(t, kind)| (t, kind));
        let mut snaps = vec![q.peek(Nanos::from_nanos(t1))];
        for (t, delta) in events {
            let at = Nanos::from_nanos(t1 + t);
            q.track(at, delta);
            snaps.push(q.peek(at));
        }
        let last_departure = *departures.last().expect("non-empty schedule");
        snaps.push(q.peek(Nanos::from_nanos(t1 + last_departure + 1_000_000)));

        let (first, last) = (snaps[0], snaps[snaps.len() - 1]);
        assert!(first.time.as_nanos() < 2 * wrap && last.time.as_nanos() > 2 * wrap);
        assert!(first.total < wrap && last.total >= wrap);
        assert!(first.integral < u128::from(wrap) && last.integral >= u128::from(wrap));

        // Tick to tick, and from the first snapshot to each later one.
        for pair in snaps.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            assert_eq!(
                cur.window_since(prev),
                wire(cur).window_since(&wire(prev), WireScale::UNSCALED)
            );
        }
        let mut cumulative: Vec<QueueWindow> = Vec::new();
        for s in &snaps[1..] {
            let full = s.window_since(&first);
            assert_eq!(
                full,
                wire(s).window_since(&wire(&first), WireScale::UNSCALED)
            );
            cumulative.extend(full);
        }

        for (i, a) in cumulative.iter().enumerate() {
            let b = cumulative[rng.range(i as u64, cumulative.len() as u64) as usize];
            let mut merged = *a;
            merged.merge(&b.since(a));
            assert_eq!(merged, b);
        }
    }
}
