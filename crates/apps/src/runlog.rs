//! Run-length logs of periodically sampled values, stored packed.
//!
//! The recorders in [`crate::driver`] sample once per tick, and between
//! socket events consecutive ticks sample the same value at a constant
//! spacing. A [`Run`] stores such a stretch as `(first_at, step, count,
//! value)`, so a log grows with the number of *changes*, not with the
//! number of ticks, and range queries stay exact: a run's share of a
//! range is a count, and integer sums over it are `value × count`.
//!
//! Every series a recorder keeps — its closed runs, its cumulative-window
//! checkpoints — is a [`Column`]: one append-only byte vector in which
//! each entry is written as LEB128 varints of its differences from the
//! entry before it ([`Delta`]). Readers only ever scan a series in order,
//! so nothing needs random access, and an entry that repeats most of its
//! predecessor costs a byte or two per field instead of its full width.
//! Every round trip is exact to the bit.

use e2e_core::combine::{EndpointWindows, QueueWindow};
use littles::Nanos;

/// Appends `v` as an LEB128 varint: seven bits per byte, low bits first,
/// the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at the front of `input` and advances past it.
fn get_varint(input: &mut &[u8]) -> u128 {
    let (mut v, mut shift) = (0u128, 0);
    loop {
        let byte = input[0];
        *input = &input[1..];
        v |= u128::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Appends the wrapping difference of a field that only grows (a
/// cumulative sum).
fn put_rise(out: &mut Vec<u8>, prev: u128, cur: u128) {
    debug_assert!(cur >= prev, "a cumulative field went back: {prev} → {cur}");
    put_varint(out, cur.wrapping_sub(prev));
}

fn get_rise(input: &mut &[u8], prev: u128) -> u128 {
    prev.wrapping_add(get_varint(input))
}

/// Appends the difference of a field that moves either way, zigzag-coded
/// so that a small step down is as short as a small step up.
fn put_diff(out: &mut Vec<u8>, prev: u64, cur: u64) {
    let d = cur.wrapping_sub(prev) as i64;
    put_varint(out, u128::from(((d << 1) ^ (d >> 63)) as u64));
}

fn get_diff(input: &mut &[u8], prev: u64) -> u64 {
    let z = get_varint(input) as u64;
    prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// An entry a [`Column`] stores as its difference from the entry before.
pub(crate) trait Delta: Copy {
    /// What a column's first entry is differenced against.
    const ORIGIN: Self;

    /// Appends this entry's difference from `prev`.
    fn put(&self, prev: &Self, out: &mut Vec<u8>);

    /// Reads back the entry [`put`](Self::put) wrote after `prev`.
    fn get(prev: &Self, input: &mut &[u8]) -> Self;
}

impl Delta for () {
    const ORIGIN: Self = ();

    fn put(&self, _: &Self, _: &mut Vec<u8>) {}

    fn get(_: &Self, _: &mut &[u8]) -> Self {}
}

impl Delta for u64 {
    const ORIGIN: Self = 0;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_diff(out, *prev, *self);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        get_diff(input, *prev)
    }
}

impl Delta for Nanos {
    const ORIGIN: Self = Nanos::ZERO;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_diff(out, prev.as_nanos(), self.as_nanos());
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        Nanos::from_nanos(get_diff(input, prev.as_nanos()))
    }
}

/// A tag (0 for `None`), then the value against the previous one, or
/// against zero when there was none.
impl Delta for Option<Nanos> {
    const ORIGIN: Self = None;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_varint(out, u128::from(self.is_some()));
        if let Some(value) = self {
            value.put(&prev.unwrap_or(Nanos::ZERO), out);
        }
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        (get_varint(input) != 0).then(|| Nanos::get(&prev.unwrap_or(Nanos::ZERO), input))
    }
}

/// The bits XOR the previous value's bits: close values share their sign,
/// exponent and high mantissa bits, which cancel.
impl Delta for f64 {
    const ORIGIN: Self = 0.0;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_varint(out, u128::from(self.to_bits() ^ prev.to_bits()));
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        f64::from_bits(prev.to_bits() ^ get_varint(input) as u64)
    }
}

/// A cumulative window: every field only grows.
impl Delta for QueueWindow {
    const ORIGIN: Self = QueueWindow {
        dt: Nanos::ZERO,
        d_total: 0,
        d_integral: 0,
    };

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_rise(out, prev.dt.as_nanos().into(), self.dt.as_nanos().into());
        put_rise(out, prev.d_total.into(), self.d_total.into());
        put_rise(out, prev.d_integral, self.d_integral);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        QueueWindow {
            dt: Nanos::from_nanos(get_rise(input, prev.dt.as_nanos().into()) as u64),
            d_total: get_rise(input, prev.d_total.into()) as u64,
            d_integral: get_rise(input, prev.d_integral),
        }
    }
}

impl Delta for EndpointWindows {
    const ORIGIN: Self = EndpointWindows {
        unacked: QueueWindow::ORIGIN,
        unread: QueueWindow::ORIGIN,
        ackdelay: QueueWindow::ORIGIN,
    };

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        self.unacked.put(&prev.unacked, out);
        self.unread.put(&prev.unread, out);
        self.ackdelay.put(&prev.ackdelay, out);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        EndpointWindows {
            unacked: QueueWindow::get(&prev.unacked, input),
            unread: QueueWindow::get(&prev.unread, input),
            ackdelay: QueueWindow::get(&prev.ackdelay, input),
        }
    }
}

impl<A: Delta, B: Delta, C: Delta> Delta for (A, B, C) {
    const ORIGIN: Self = (A::ORIGIN, B::ORIGIN, C::ORIGIN);

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        self.0.put(&prev.0, out);
        self.1.put(&prev.1, out);
        self.2.put(&prev.2, out);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        (A::get(&prev.0, input), B::get(&prev.1, input), C::get(&prev.2, input))
    }
}

/// An append-only series of entries, packed: each is written as its
/// [`Delta`] from the entry before, the first from [`Delta::ORIGIN`]. The
/// newest entry is also kept unpacked, as the base the next one is
/// differenced against.
#[derive(Debug, Clone)]
pub(crate) struct Column<T> {
    bytes: Vec<u8>,
    newest: T,
    len: usize,
}

impl<T: Delta> Default for Column<T> {
    fn default() -> Self {
        Column {
            bytes: Vec::new(),
            newest: T::ORIGIN,
            len: 0,
        }
    }
}

impl<T: Delta> Column<T> {
    /// Appends an entry.
    pub(crate) fn push(&mut self, entry: T) {
        if self.bytes.capacity() == 0 {
            // What a `Vec<T>` first allocates, so that the packed column,
            // doubling from there, grows no more often than one would.
            self.bytes = Vec::with_capacity(4 * size_of::<T>());
        }
        entry.put(&self.newest, &mut self.bytes);
        self.newest = entry;
        self.len += 1;
    }

    /// The entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (mut input, mut prev) = (&self.bytes[..], T::ORIGIN);
        std::iter::from_fn(move || {
            if input.is_empty() {
                return None;
            }
            prev = T::get(&prev, &mut input);
            Some(prev)
        })
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// A recorder's cumulative-window checkpoints, `(time, local, remote)`,
/// oldest first.
pub(crate) type Checkpoints = Column<(Nanos, EndpointWindows, EndpointWindows)>;

/// `count ≥ 1` equal samples taken `step` apart, the first at `first_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run<T> {
    /// Time of the first sample.
    pub(crate) first_at: Nanos,
    /// Spacing between samples; zero while the run holds one sample.
    pub(crate) step: Nanos,
    /// Number of samples.
    pub(crate) count: u64,
    /// The value every sample has.
    pub(crate) value: T,
}

impl<T> Run<T> {
    /// A run of one sample.
    pub(crate) fn new(at: Nanos, value: T) -> Self {
        Run {
            first_at: at,
            step: Nanos::ZERO,
            count: 1,
            value,
        }
    }

    /// Time of sample `k` (`k < count`).
    pub(crate) fn at(&self, k: u64) -> Nanos {
        self.first_at + self.step * k
    }

    /// Appends a sample taken at `at` if it continues the run's spacing
    /// (the second sample sets the spacing); returns whether it did.
    pub(crate) fn try_extend(&mut self, at: Nanos) -> bool {
        if self.count == 1 {
            match at.checked_sub(self.first_at) {
                Some(step) => self.step = step,
                None => return false,
            }
        } else if at != self.at(self.count) {
            return false;
        }
        self.count += 1;
        true
    }

    /// Appends `n` samples at spacing `step` to a run that is one sample
    /// long or already has that spacing.
    pub(crate) fn extend_by(&mut self, step: Nanos, n: u64) {
        if self.count == 1 {
            self.step = step;
        }
        debug_assert_eq!(self.step, step, "a run holds one spacing");
        self.count += n;
    }

    /// How many of the run's samples fall in `[from, to)`.
    pub(crate) fn count_in(&self, from: Nanos, to: Nanos) -> u64 {
        // Samples strictly before `t`: the index of the first one at or
        // after it, capped at `count`.
        let before = |t: Nanos| match t.checked_sub(self.first_at) {
            None => 0,
            Some(d) if d.is_zero() => 0,
            Some(_) if self.step.is_zero() => self.count,
            Some(d) => d.as_nanos().div_ceil(self.step.as_nanos()).min(self.count),
        };
        before(to).saturating_sub(before(from))
    }
}

impl<T: Delta> Delta for Run<T> {
    const ORIGIN: Self = Run {
        first_at: Nanos::ZERO,
        step: Nanos::ZERO,
        count: 0,
        value: T::ORIGIN,
    };

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        self.first_at.put(&prev.first_at, out);
        self.step.put(&prev.step, out);
        self.count.put(&prev.count, out);
        self.value.put(&prev.value, out);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        Run {
            first_at: Nanos::get(&prev.first_at, input),
            step: Nanos::get(&prev.step, input),
            count: u64::get(&prev.count, input),
            value: T::get(&prev.value, input),
        }
    }
}

/// An append-only log of samples, stored as [`Run`]s: the closed ones in
/// a packed [`Column`], the newest one inline, so that extending it
/// touches no heap memory.
#[derive(Debug, Clone)]
pub(crate) struct RunLog<T> {
    closed: Column<Run<T>>,
    open: Option<Run<T>>,
}

impl<T: Delta> Default for RunLog<T> {
    fn default() -> Self {
        RunLog {
            closed: Column::default(),
            open: None,
        }
    }
}

impl<T: Delta + PartialEq> RunLog<T> {
    /// Appends one sample: extends the newest run when the value and the
    /// spacing continue it, starts a new run otherwise.
    pub(crate) fn push(&mut self, at: Nanos, value: T) {
        if let Some(run) = &mut self.open {
            if run.value == value && run.try_extend(at) {
                return;
            }
            self.closed.push(*run);
        }
        self.open = Some(Run::new(at, value));
    }

    /// Appends `n` samples of `value`, `step` apart and the first at `at`
    /// — what `n` calls of [`push`](Self::push) leave behind, in constant
    /// time. The first two are pushed, which settles the run the stretch
    /// lands in and that its spacing is `step`; the rest are a count.
    pub(crate) fn push_n(&mut self, at: Nanos, step: Nanos, value: T, n: u64) {
        for k in 0..n.min(2) {
            self.push(at + step * k, value);
        }
        if let (Some(run), Some(rest)) = (&mut self.open, n.checked_sub(2)) {
            run.extend_by(step, rest);
        }
    }

    /// The runs, oldest first.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run<T>> + '_ {
        self.closed.iter().chain(self.open)
    }

    /// Each run's value with the number of its samples in `[from, to)`,
    /// oldest run first — what an exact sum or mean over a range needs.
    pub(crate) fn counts_in(&self, from: Nanos, to: Nanos) -> impl Iterator<Item = (T, u64)> + '_ {
        self.runs().map(move |run| (run.value, run.count_in(from, to)))
    }

    /// Number of runs stored.
    pub(crate) fn len(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// Whether nothing has been logged.
    pub(crate) fn is_empty(&self) -> bool {
        self.open.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    /// Expands a log back into its samples.
    fn expand<T: Delta + PartialEq>(log: &RunLog<T>) -> Vec<(Nanos, T)> {
        log.runs()
            .flat_map(|r| (0..r.count).map(move |k| (r.at(k), r.value)))
            .collect()
    }

    #[test]
    fn equal_evenly_spaced_samples_share_a_run() {
        let mut log = RunLog::default();
        for k in 0..100 {
            log.push(us(500 * k), 7u64);
        }
        assert_eq!(log.len(), 1);
        log.push(us(500 * 100), 8); // value change
        log.push(us(500 * 101), 8);
        log.push(us(500 * 101 + 200), 8); // spacing change
        assert_eq!(log.len(), 3);
        assert_eq!(expand(&log).len(), 103);
        assert_eq!(expand(&log).last(), Some(&(us(500 * 101 + 200), 8)));
    }

    #[test]
    fn expansion_reproduces_every_push() {
        // Irregular times, repeated values, repeated instants.
        let pushes: Vec<(Nanos, u64)> = [0, 10, 20, 30, 30, 30, 45, 60, 75, 76, 77, 90]
            .iter()
            .zip([1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 1])
            .map(|(&t, v)| (us(t), v))
            .collect();
        let mut log = RunLog::default();
        for &(at, v) in &pushes {
            log.push(at, v);
        }
        assert_eq!(expand(&log), pushes);
        assert!(log.len() < pushes.len());
    }

    #[test]
    fn push_n_equals_n_pushes() {
        // Every way a stretch can meet the open run: none yet, same value
        // at the same / another spacing, another value; every short length.
        let preludes: [&[(u64, u64)]; 5] = [
            &[],
            &[(0, 7)],
            &[(0, 7), (50, 7)],
            &[(0, 7), (20, 7)],
            &[(0, 9), (50, 9)],
        ];
        for prelude in preludes {
            for n in 0..6 {
                let (mut fast, mut slow) = (RunLog::default(), RunLog::default());
                for &(at, v) in prelude {
                    fast.push(us(at), v);
                    slow.push(us(at), v);
                }
                fast.push_n(us(100), us(50), 7, n);
                for k in 0..n {
                    slow.push(us(100 + 50 * k), 7);
                }
                // What follows lands alike, too.
                fast.push(us(100 + 50 * n), 7);
                slow.push(us(100 + 50 * n), 7);
                let (fast, slow): (Vec<_>, Vec<_>) = (fast.runs().collect(), slow.runs().collect());
                assert_eq!(fast, slow, "{prelude:?} + {n}");
            }
        }
    }

    #[test]
    fn count_in_matches_a_per_sample_filter() {
        let runs = [
            Run {
                first_at: us(100),
                step: us(50),
                count: 7,
                value: (),
            },
            Run {
                first_at: us(100),
                step: Nanos::ZERO,
                count: 3,
                value: (),
            },
            Run::new(us(100), ()),
        ];
        let edges = [0, 99, 100, 101, 149, 150, 151, 399, 400, 401, 1000];
        for run in &runs {
            for &from in &edges {
                for &to in &edges {
                    let (from, to) = (us(from), us(to));
                    let naive = (0..run.count)
                        .filter(|&k| run.at(k) >= from && run.at(k) < to)
                        .count() as u64;
                    assert_eq!(run.count_in(from, to), naive, "{run:?} in [{from}, {to})");
                }
            }
        }
    }

    /// A throughput compared by its bits, as the recorders compare theirs.
    #[derive(Debug, Clone, Copy)]
    struct Bits(f64);

    impl PartialEq for Bits {
        fn eq(&self, other: &Self) -> bool {
            self.0.to_bits() == other.0.to_bits()
        }
    }

    impl Delta for Bits {
        const ORIGIN: Self = Bits(0.0);

        fn put(&self, prev: &Self, out: &mut Vec<u8>) {
            self.0.put(&prev.0, out);
        }

        fn get(prev: &Self, input: &mut &[u8]) -> Self {
            Bits(f64::get(&prev.0, input))
        }
    }

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

    /// Gaps between stretches: none, one tick, and past 2^32 ns.
    const GAPS: [u64; 6] = [0, 1, 500_000, 1 << 32, (1 << 32) + 7, 1 << 40];
    /// Throughputs whose bits are edge cases: both zeros, a NaN with a
    /// payload, a subnormal, the extremes and two that share their high
    /// bits.
    const THROUGHPUTS: [f64; 9] = [
        0.0,
        -0.0,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::NEG_INFINITY,
        80_028.787_878_787_87,
        80_028.787_878_787_88,
    ];

    /// Pushes stretches of `values` at edge-case times — one sample, or
    /// several by `push` or by `push_n` — and requires the log's expansion
    /// to be exactly what was pushed.
    fn sweep_log<T: Delta + PartialEq + std::fmt::Debug>(seed: u64, values: &[T]) {
        let mut rng = Sweep(seed);
        let mut log = RunLog::default();
        let mut pushed = Vec::new();
        let mut at = Nanos::from_nanos(rng.next() >> 1);
        for _ in 0..400 {
            at += Nanos::from_nanos(rng.pick(&GAPS));
            let step = Nanos::from_nanos(rng.pick(&[0, 1, 500_000, 1 << 33]));
            let value = rng.pick(values);
            let n = rng.pick(&[1, 1, 2, 3, 50, 1_000]);
            if rng.next() % 2 == 0 {
                log.push_n(at, step, value, n);
            } else {
                for k in 0..n {
                    log.push(at + step * k, value);
                }
            }
            pushed.extend((0..n).map(|k| (at + step * k, value)));
            at += step * (n - 1);
        }
        assert!(log.len() < pushed.len(), "seed {seed}: nothing merged");
        assert_eq!(expand(&log), pushed, "seed {seed}");
    }

    #[test]
    fn packed_logs_expand_to_what_was_pushed() {
        let latencies: Vec<Option<Nanos>> = [None, Some(0), Some(1), Some(1 << 32), Some(u64::MAX)]
            .into_iter()
            .map(|v| v.map(Nanos::from_nanos))
            .collect();
        for seed in 0..16 {
            sweep_log(seed, &THROUGHPUTS.map(Bits));
            sweep_log(seed, &[0, 1, 7, 1 << 40, u64::MAX]);
            sweep_log(seed, &latencies);
            sweep_log(seed, &[(); 1]);
        }
    }

    #[test]
    fn packed_checkpoints_round_trip_bit_for_bit() {
        // Each field of a cumulative window grows by an edge-case step:
        // zero, small, past 2^32, and — for the integral — past 2^64.
        let rises: [u128; 6] = [0, 0, 1, 1_000, (1 << 32) + 3, (1 << 64) + 5];
        for seed in 0..16 {
            let mut rng = Sweep(seed);
            let mut checkpoints = Checkpoints::default();
            let mut pushed = Vec::new();
            let mut entry = <(Nanos, EndpointWindows, EndpointWindows)>::ORIGIN;
            for _ in 0..300 {
                entry.0 += Nanos::from_nanos(rng.pick(&GAPS));
                for side in [&mut entry.1, &mut entry.2] {
                    for queue in [&mut side.unacked, &mut side.unread, &mut side.ackdelay] {
                        queue.dt += Nanos::from_nanos(rng.pick(&GAPS));
                        queue.d_total += rng.pick(&rises) as u64 % (1 << 40);
                        queue.d_integral += rng.pick(&rises);
                    }
                }
                checkpoints.push(entry);
                pushed.push(entry);
            }
            assert!(entry.1.unread.d_integral > u128::from(u64::MAX), "seed {seed}");
            assert_eq!(checkpoints.iter().collect::<Vec<_>>(), pushed, "seed {seed}");
            assert_eq!(checkpoints.len(), pushed.len());
        }
    }
}
