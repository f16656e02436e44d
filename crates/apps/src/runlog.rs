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

/// The most bytes [`put_varint`] writes for a `u64`.
const U64_BYTES: usize = 10;

/// The most bytes [`put_varint`] writes for a `u128`.
const U128_BYTES: usize = 19;

/// An entry a [`Column`] stores as its difference from the entry before.
pub(crate) trait Delta: Copy {
    /// What a column's first entry is differenced against.
    const ORIGIN: Self;

    /// The most bytes [`put`](Self::put) appends for one entry.
    const MAX_BYTES: usize;

    /// Appends this entry's difference from `prev`.
    fn put(&self, prev: &Self, out: &mut Vec<u8>);

    /// Reads back the entry [`put`](Self::put) wrote after `prev`.
    fn get(prev: &Self, input: &mut &[u8]) -> Self;
}

impl Delta for () {
    const ORIGIN: Self = ();
    const MAX_BYTES: usize = 0;

    fn put(&self, _: &Self, _: &mut Vec<u8>) {}

    fn get(_: &Self, _: &mut &[u8]) -> Self {}
}

impl Delta for u64 {
    const ORIGIN: Self = 0;
    const MAX_BYTES: usize = U64_BYTES;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        put_diff(out, *prev, *self);
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        get_diff(input, *prev)
    }
}

impl Delta for Nanos {
    const ORIGIN: Self = Nanos::ZERO;
    const MAX_BYTES: usize = U64_BYTES;

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
    const MAX_BYTES: usize = 1 + U64_BYTES;

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

/// Appends `v` as the number of its trailing zero bits (128 for zero),
/// one byte, then the varint of what is left above them: the short form
/// of a multiple of a large power of two.
fn put_shifted(out: &mut Vec<u8>, v: u128) {
    let zeros = v.trailing_zeros();
    out.push(zeros as u8);
    if v != 0 {
        put_varint(out, v >> zeros);
    }
}

/// Reads back the value [`put_shifted`] wrote.
fn get_shifted(input: &mut &[u8]) -> u128 {
    let zeros = u32::from(input[0]);
    *input = &input[1..];
    if zeros == u128::BITS {
        return 0;
    }
    get_varint(input) << zeros
}

/// How one window's integral rise is written and read back.
type IntegralCoding = (fn(&mut Vec<u8>, u128), fn(&mut &[u8]) -> u128);

/// Appends a cumulative window's difference from `prev`: every field
/// only grows. The length's rise is coded as its zigzag difference from
/// `*guess`, the rise it is expected to repeat, and becomes the next
/// window's guess; the integral's rise as `integral` writes it.
fn put_window(
    out: &mut Vec<u8>,
    prev: &QueueWindow,
    cur: &QueueWindow,
    guess: &mut u64,
    integral: IntegralCoding,
) {
    debug_assert!(
        cur.dt >= prev.dt,
        "a window went back: {} → {}",
        prev.dt,
        cur.dt
    );
    debug_assert!(cur.d_integral >= prev.d_integral, "an integral went back");
    let rise = cur.dt.as_nanos().wrapping_sub(prev.dt.as_nanos());
    put_diff(out, *guess, rise);
    *guess = rise;
    put_rise(out, prev.d_total.into(), cur.d_total.into());
    integral.0(out, cur.d_integral.wrapping_sub(prev.d_integral));
}

/// Reads back the window [`put_window`] wrote after `prev`.
fn get_window(
    input: &mut &[u8],
    prev: &QueueWindow,
    guess: &mut u64,
    integral: IntegralCoding,
) -> QueueWindow {
    *guess = get_diff(input, *guess);
    QueueWindow {
        dt: Nanos::from_nanos(prev.dt.as_nanos().wrapping_add(*guess)),
        d_total: get_rise(input, prev.d_total.into()) as u64,
        d_integral: prev.d_integral.wrapping_add(integral.1(input)),
    }
}

/// A local window's integral: a plain varint.
const LOCAL: IntegralCoding = (put_varint, get_varint);

/// A remote window's integral: the peer shares integrals in units of
/// `2^integral_shift` item-nanoseconds (`littles::wire`), so every sum
/// of remote windows is a multiple of that and its low bits are zeros.
const REMOTE: IntegralCoding = (put_shifted, get_shifted);

/// The most bytes [`put_window`] appends.
const WINDOW_BYTES: usize = 2 * U64_BYTES + 1 + U128_BYTES;

/// A checkpoint `(time, local, remote)`: the time, then the six windows,
/// local first, each queue in the order `unacked`, `unread`, `ackdelay`.
/// Each field is coded by what it carries:
///
/// * The time only grows: its rise, the time step.
/// * Six window lengths are mostly five repeats: a local window spans the
///   time since the previous checkpoint, whole, unless a tick in between
///   formed no window, and the three remote windows span the same
///   exchange interval. So each length's rise is coded against the rise
///   coded just before it — the first against the time step — and a
///   repeat costs one byte where its value would cost three or four,
///   while a length that differs still round-trips exactly.
/// * A remote integral rise is a multiple of the wire's integral unit
///   (see [`REMOTE`]).
impl Delta for (Nanos, EndpointWindows, EndpointWindows) {
    const ORIGIN: Self = (Nanos::ZERO, WINDOWS_ORIGIN, WINDOWS_ORIGIN);
    const MAX_BYTES: usize = U128_BYTES + 6 * WINDOW_BYTES;

    fn put(&self, prev: &Self, out: &mut Vec<u8>) {
        let (at, before) = (self.0.as_nanos(), prev.0.as_nanos());
        put_rise(out, before.into(), at.into());
        let mut guess = at.wrapping_sub(before);
        for (p, c, integral) in [(&prev.1, &self.1, LOCAL), (&prev.2, &self.2, REMOTE)] {
            put_window(out, &p.unacked, &c.unacked, &mut guess, integral);
            put_window(out, &p.unread, &c.unread, &mut guess, integral);
            put_window(out, &p.ackdelay, &c.ackdelay, &mut guess, integral);
        }
    }

    fn get(prev: &Self, input: &mut &[u8]) -> Self {
        let at = Nanos::from_nanos(get_rise(input, prev.0.as_nanos().into()) as u64);
        let mut guess = at.as_nanos().wrapping_sub(prev.0.as_nanos());
        let mut side = |p: &EndpointWindows, integral| EndpointWindows {
            unacked: get_window(input, &p.unacked, &mut guess, integral),
            unread: get_window(input, &p.unread, &mut guess, integral),
            ackdelay: get_window(input, &p.ackdelay, &mut guess, integral),
        };
        let local = side(&prev.1, LOCAL);
        (at, local, side(&prev.2, REMOTE))
    }
}

/// Three empty windows: what a checkpoint's sums start from.
const WINDOWS_ORIGIN: EndpointWindows = {
    let empty = QueueWindow {
        dt: Nanos::ZERO,
        d_total: 0,
        d_integral: 0,
    };
    EndpointWindows {
        unacked: empty,
        unread: empty,
        ackdelay: empty,
    }
};

/// An append-only series of entries, packed: each is written as its
/// [`Delta`] from the entry before, the first from [`Delta::ORIGIN`]. The
/// newest entry is also kept unpacked, as the base the next one is
/// differenced against.
///
/// The bytes start with room for four unpacked entries, what a `Vec<T>`
/// first allocates, and then grow by a quarter at a time rather than
/// double — but never by less than that first room, so a short series
/// reallocates no more often than doubling would. A series is kept for
/// the whole run, so its slack is memory held to the end, and most
/// entries pack to a fraction of `T`.
#[derive(Debug, Clone)]
pub(crate) struct Column<T> {
    bytes: Vec<u8>,
    newest: T,
}

impl<T: Delta> Default for Column<T> {
    fn default() -> Self {
        Column {
            bytes: Vec::new(),
            newest: T::ORIGIN,
        }
    }
}

impl<T: Delta> Column<T> {
    /// Appends an entry.
    pub(crate) fn push(&mut self, entry: T) {
        let len = self.bytes.len();
        if self.bytes.capacity() - len < T::MAX_BYTES {
            let grow = (len / 4).max(4 * size_of::<T>());
            self.bytes.reserve_exact(grow.max(T::MAX_BYTES));
        }
        entry.put(&self.newest, &mut self.bytes);
        self.newest = entry;
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
    const MAX_BYTES: usize = 3 * U64_BYTES + T::MAX_BYTES;

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

    /// The runs, oldest first.
    pub(crate) fn runs(&self) -> impl Iterator<Item = Run<T>> + '_ {
        self.closed.iter().chain(self.open)
    }

    /// Each run's value with the number of its samples in `[from, to)`,
    /// oldest run first — what an exact sum or mean over a range needs.
    pub(crate) fn counts_in(&self, from: Nanos, to: Nanos) -> impl Iterator<Item = (T, u64)> + '_ {
        self.runs()
            .map(move |run| (run.value, run.count_in(from, to)))
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
        assert_eq!(log.runs().count(), 1);
        log.push(us(500 * 100), 8); // value change
        log.push(us(500 * 101), 8);
        log.push(us(500 * 101 + 200), 8); // spacing change
        assert_eq!(log.runs().count(), 3);
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
        assert!(log.runs().count() < pushes.len());
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

    /// Pushes stretches of `values` at edge-case times, one sample or
    /// several, and requires the log's expansion to be exactly what was
    /// pushed.
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
            for k in 0..n {
                log.push(at + step * k, value);
            }
            pushed.extend((0..n).map(|k| (at + step * k, value)));
            at += step * (n - 1);
        }
        assert!(
            log.runs().count() < pushed.len(),
            "seed {seed}: nothing merged"
        );
        assert_eq!(expand(&log), pushed, "seed {seed}");
    }

    #[test]
    fn packed_logs_expand_to_what_was_pushed() {
        let latencies: Vec<Option<Nanos>> = [None, Some(0), Some(1), Some(1 << 32), Some(u64::MAX)]
            .into_iter()
            .map(|v| v.map(Nanos::from_nanos))
            .collect();
        for seed in 0..16 {
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
            assert!(
                entry.1.unread.d_integral > u128::from(u64::MAX),
                "seed {seed}"
            );
            assert_eq!(
                checkpoints.iter().collect::<Vec<_>>(),
                pushed,
                "seed {seed}"
            );
        }
    }

    type Checkpoint = (Nanos, EndpointWindows, EndpointWindows);

    /// `prev` moved on by `step`, each local window by `local_dt` and
    /// each remote one by `remote_dt`, with a few departures each.
    fn next_checkpoint(
        prev: &Checkpoint,
        step: u64,
        local_dt: [u64; 3],
        remote_dt: [u64; 3],
    ) -> Checkpoint {
        let grow = |w: &mut QueueWindow, dt: u64| {
            w.dt += Nanos::from_nanos(dt);
            w.d_total += 3;
            w.d_integral += u128::from(dt) * 2;
        };
        let mut next = *prev;
        next.0 += Nanos::from_nanos(step);
        for (w, dt) in [
            &mut next.1.unacked,
            &mut next.1.unread,
            &mut next.1.ackdelay,
        ]
        .into_iter()
        .zip(local_dt)
        {
            grow(w, dt);
        }
        for (w, dt) in [
            &mut next.2.unacked,
            &mut next.2.unread,
            &mut next.2.ackdelay,
        ]
        .into_iter()
        .zip(remote_dt)
        {
            grow(w, dt);
        }
        next
    }

    /// Packs `entries` after a common prefix and returns the bytes the
    /// last one took.
    fn last_entry_bytes(entries: &[Checkpoint]) -> usize {
        let mut column = Checkpoints::default();
        for &entry in &entries[..entries.len() - 1] {
            column.push(entry);
        }
        let before = column.bytes.len();
        column.push(entries[entries.len() - 1]);
        assert_eq!(column.iter().collect::<Vec<_>>(), entries, "round trip");
        column.bytes.len() - before
    }

    /// The six window lengths of a checkpoint are coded against the ones
    /// they usually repeat — local ones against the time step, remote
    /// ones against each other — and round-trip exactly when they do not:
    /// a local window lost where a restart reset the queues (its `dt`
    /// falls short of the step), a remote window spanning a rejected
    /// exchange (twice the interval), an epoch change that took no remote
    /// window at all (its `dt` does not move), six lengths that disagree,
    /// and lengths past 2^32 ns.
    #[test]
    fn checkpoint_lengths_round_trip_when_they_differ() {
        let start = next_checkpoint(
            &Checkpoints::default().newest,
            1_000_000,
            [900_000; 3],
            [870_000; 3],
        );
        let step = 500_000;
        let cases: [(&str, u64, [u64; 3], [u64; 3]); 6] = [
            ("repeats", step, [step; 3], [497_152; 3]),
            (
                "a local window lost at a restart",
                step,
                [step - 120_000; 3],
                [497_152; 3],
            ),
            (
                "a remote window across a reject",
                step,
                [step; 3],
                [2 * 497_152; 3],
            ),
            ("an epoch change", step, [step; 3], [0; 3]),
            (
                "local windows that disagree",
                step,
                [step, step - 1, step + 9_000],
                [497_152, 1, 1 << 40],
            ),
            (
                "every length past 2^32 ns",
                (1 << 33) + 5,
                [1 << 33; 3],
                [(1 << 34) + 1; 3],
            ),
        ];
        let sizes: Vec<usize> = cases
            .iter()
            .map(|&(_, step, local_dt, remote_dt)| {
                last_entry_bytes(&[start, next_checkpoint(&start, step, local_dt, remote_dt)])
            })
            .collect();
        // Where they repeat, the six lengths take seven bytes: one for each
        // repeat, two for the first remote length, 2 848 ns off the step.
        // Around them are three bytes of time step, a byte per departure
        // count and three per integral.
        assert_eq!(sizes[0], 3 + 7 + 6 + 6 * 3);
        assert!(sizes[4] > sizes[0], "{}: {} B", cases[4].0, sizes[4]);
    }

    /// What a recorded series costs: every checkpoint the recorders of a
    /// 64-client plane run keep (the benchmark's `star64_mix_plane` over
    /// a short window; the plane seats' sources keep none), repacked,
    /// averages under a ceiling, 34.14 B when it was set. With every field
    /// coded as a plain difference from the entry before, a checkpoint
    /// here packed to 48.46 B.
    #[test]
    fn a_recorded_64_client_series_packs_under_its_ceiling() {
        use batchpolicy::{BreakerConfig, Objective};
        use e2e_core::ValidateConfig;

        use crate::harness::Harness;
        use crate::runner::{NagleSetting, RunConfig};
        use crate::workload::WorkloadSpec;

        let plane = NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        };
        let config = RunConfig {
            num_clients: 64,
            warmup: Nanos::from_millis(30),
            measure: Nanos::from_millis(120),
            validate: Some(ValidateConfig),
            staleness_bound: Some(Nanos::from_millis(5)),
            breaker: Some(BreakerConfig::default()),
            ..RunConfig::new(WorkloadSpec::fig4b(60_000.0), plane)
        };
        let star = Harness::star(&config).run();
        let (mut entries, mut bytes) = (0, 0);
        for client in &star.world.clients {
            for rec in &client.recorders {
                let mut column = Checkpoints::default();
                for entry in rec.checkpoints() {
                    column.push(entry);
                    entries += 1;
                }
                bytes += column.bytes.len();
            }
        }
        let per_entry = bytes as f64 / entries as f64;
        println!("{entries} checkpoints, {bytes} B packed, {per_entry:.2} B each");
        assert!(entries > 13_000, "{entries} checkpoints");
        assert!(
            bytes * 100 <= entries * 3_415,
            "{per_entry:.2} B per checkpoint"
        );
    }
}
