//! The server hint recorder's packed series.
//!
//! A hint recorder checkpoints its running sums `(time, departures,
//! integral)` for the whole run, because a server is built without a
//! measurement window. The series is [`HintCheckpoints`]: one append-only
//! byte vector in which each checkpoint is written as LEB128 varints of
//! its rises from the one before. Readers only ever scan it in order, so
//! nothing needs random access, and a checkpoint that repeats most of its
//! predecessor costs a byte or two per field instead of eight. Every round
//! trip is exact to the bit.

use littles::Nanos;

/// Appends `v` as an LEB128 varint: seven bits per byte, low bits first,
/// the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at the front of `input` and advances past it.
fn get_varint(input: &mut &[u8]) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let byte = input[0];
        *input = &input[1..];
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends the rise of a field that only grows (a cumulative sum).
fn put_rise(out: &mut Vec<u8>, prev: u64, cur: u64) {
    debug_assert!(cur >= prev, "a cumulative field went back: {prev} → {cur}");
    put_varint(out, cur.wrapping_sub(prev));
}

fn get_rise(input: &mut &[u8], prev: u64) -> u64 {
    prev.wrapping_add(get_varint(input))
}

/// A hint recorder's checkpoint `(time, departures, integral)`: its
/// running sums at `time`, the integral in the wire's units.
type HintCheckpoint = (Nanos, u64, u64);

/// What the first checkpoint is differenced against.
const ORIGIN: HintCheckpoint = (Nanos::ZERO, 0, 0);

/// The most bytes one checkpoint packs to: three varints of a `u64`.
const MAX_BYTES: usize = 3 * 10;

/// A hint recorder's checkpoints, oldest first, packed: every field only
/// grows, so each is written as its rise from the checkpoint before, the
/// first from [`ORIGIN`]. The newest checkpoint is also kept unpacked, as
/// the base the next one is differenced against.
///
/// The bytes start with room for four unpacked checkpoints, what a
/// `Vec<HintCheckpoint>` first allocates, and then grow by a quarter at a
/// time rather than double — but never by less than that first room, so a
/// short series reallocates no more often than doubling would. The series
/// is kept for the whole run, so its slack is memory held to the end.
#[derive(Debug, Clone)]
pub(crate) struct HintCheckpoints {
    bytes: Vec<u8>,
    newest: HintCheckpoint,
}

impl Default for HintCheckpoints {
    fn default() -> Self {
        HintCheckpoints {
            bytes: Vec::new(),
            newest: ORIGIN,
        }
    }
}

impl HintCheckpoints {
    /// Appends a checkpoint.
    pub(crate) fn push(&mut self, entry: HintCheckpoint) {
        let len = self.bytes.len();
        if self.bytes.capacity() - len < MAX_BYTES {
            let grow = (len / 4).max(4 * size_of::<HintCheckpoint>());
            self.bytes.reserve_exact(grow.max(MAX_BYTES));
        }
        let prev = self.newest;
        put_rise(&mut self.bytes, prev.0.as_nanos(), entry.0.as_nanos());
        put_rise(&mut self.bytes, prev.1, entry.1);
        put_rise(&mut self.bytes, prev.2, entry.2);
        self.newest = entry;
    }

    /// The newest checkpoint, or `(0, 0, 0)` before the first.
    pub(crate) fn newest(&self) -> &HintCheckpoint {
        &self.newest
    }

    /// The checkpoints, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = HintCheckpoint> + '_ {
        let (mut input, mut prev) = (&self.bytes[..], ORIGIN);
        std::iter::from_fn(move || {
            if input.is_empty() {
                return None;
            }
            let at = get_rise(&mut input, prev.0.as_nanos());
            let departures = get_rise(&mut input, prev.1);
            let integral = get_rise(&mut input, prev.2);
            prev = (Nanos::from_nanos(at), departures, integral);
            Some(prev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a seeded sweep without a dependency.
    struct Sweep(u64);

    impl Sweep {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    /// Gaps between entries: none, one tick, and past 2^32 ns.
    const GAPS: [u64; 6] = [0, 1, 500_000, 1 << 32, (1 << 32) + 7, 1 << 40];

    /// A hint recorder's sums, each field grown by an edge-case rise —
    /// none, one, a tick, and past 2^32 — read back as they were pushed.
    #[test]
    fn packed_logs_expand_to_what_was_pushed() {
        let rises = [0, 0, 1, 7, 500_000, 1 << 32, (1 << 32) + 7];
        for seed in 0..16 {
            let mut rng = Sweep(seed);
            let mut column = HintCheckpoints::default();
            let mut pushed = Vec::new();
            let mut entry = ORIGIN;
            for _ in 0..400 {
                entry.0 += Nanos::from_nanos(rng.pick(&GAPS));
                entry.1 += rng.pick(&rises);
                entry.2 += rng.pick(&rises);
                column.push(entry);
                pushed.push(entry);
                assert_eq!(*column.newest(), entry);
            }
            assert!(entry.2 > u64::from(u32::MAX), "seed {seed}");
            assert_eq!(column.iter().collect::<Vec<_>>(), pushed, "seed {seed}");
        }
    }
}
