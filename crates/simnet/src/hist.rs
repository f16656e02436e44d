//! Log-bucketed latency histograms.
//!
//! The load generator measures per-request latency the way Lancet does:
//! every request contributes one sample, and the harness reports means and
//! percentiles per offered load. A [`Histogram`] stores samples in
//! logarithmic buckets with linear sub-buckets (the HdrHistogram layout),
//! giving a bounded relative error (≤ 1/32 ≈ 3% here) at O(1) record cost
//! and a few KiB of memory regardless of sample count. A run of many
//! clients keeps one histogram per client, so a new histogram allocates
//! only the buckets where request latencies fall, 1 µs to ~2.1 s, as
//! `u32` counts: 672 buckets, 2 688 B. The table grows down to bucket 0
//! or up to its full range on the first sample outside them, and a bucket
//! that would pass `u32::MAX` panics rather than wrap.

use littles::Nanos;

/// Number of linear sub-buckets per power-of-two octave. Must be a power
/// of two; 32 bounds relative quantization error by 1/32.
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Octaves covered: values up to 2^(OCTAVES + SUB_BITS) ns ≈ 154 days.
const OCTAVES: usize = 52;
const NUM_BUCKETS: usize = (OCTAVES + 1) * SUB_BUCKETS as usize;
/// The buckets a new histogram allocates: values from 2^10 ns ≈ 1 µs to
/// below 2^31 ns ≈ 2.1 s, where request latencies fall.
const FIRST_BUCKETS: std::ops::Range<usize> = 6 * SUB_BUCKETS as usize..27 * SUB_BUCKETS as usize;

/// A latency histogram over nanosecond samples.
///
/// # Examples
///
/// ```
/// use simnet::{Histogram, Nanos};
///
/// let mut h = Histogram::new();
/// for us in [100u64, 200, 300, 400] {
///     h.record(Nanos::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!(p50 >= Nanos::from_micros(190) && p50 <= Nanos::from_micros(210));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// The counts of buckets `lo..lo + counts.len()`; the buckets outside
    /// are empty.
    counts: Vec<u32>,
    lo: usize,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    // Values below SUB_BUCKETS map to the first, exact, linear region.
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = (value >> (octave as u32 - 1)) - SUB_BUCKETS;
    let idx = octave * SUB_BUCKETS as usize + (SUB_BUCKETS + sub) as usize - SUB_BUCKETS as usize;
    idx.min(NUM_BUCKETS - 1)
}

fn bucket_midpoint(index: usize) -> u64 {
    let octave = index / SUB_BUCKETS as usize;
    let sub = (index % SUB_BUCKETS as usize) as u64;
    if octave == 0 {
        return sub;
    }
    let base = (SUB_BUCKETS + sub) << (octave as u32 - 1);
    let width = 1u64 << (octave as u32 - 1);
    base + width / 2
}

/// Adds `n` samples to `bucket`.
///
/// # Panics
///
/// Panics when the bucket would pass `u32::MAX` samples.
#[inline]
#[expect(
    clippy::panic,
    reason = "a count that wrapped would misreport every quantile"
)]
fn add(bucket: &mut u32, n: u32) {
    let Some(sum) = bucket.checked_add(n) else {
        panic!(
            "histogram bucket full: more than {} samples in one bucket",
            u32::MAX
        );
    };
    *bucket = sum;
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; FIRST_BUCKETS.len()],
            lo: FIRST_BUCKETS.start,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Grows the table to hold bucket `index`, if it is outside: down to
    /// bucket 0 or up to the last bucket, whichever side it is on.
    #[inline]
    fn cover(&mut self, index: usize) {
        if index < self.lo {
            self.counts.splice(0..0, std::iter::repeat_n(0, self.lo));
            self.lo = 0;
        }
        if index >= self.lo + self.counts.len() {
            self.counts.resize(NUM_BUCKETS - self.lo, 0);
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics when the sample's bucket already holds `u32::MAX` samples.
    pub fn record(&mut self, value: Nanos) {
        let v = value.as_nanos();
        let i = bucket_index(v);
        self.cover(i);
        add(&mut self.counts[i - self.lo], 1);
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of all samples (the sum is kept exactly).
    pub fn mean(&self) -> Option<Nanos> {
        if self.count == 0 {
            None
        } else {
            Some(Nanos::from_nanos((self.sum / self.count as u128) as u64))
        }
    }

    /// Smallest recorded sample.
    #[cfg(test)]
    fn min(&self) -> Option<Nanos> {
        (self.count > 0).then(|| Nanos::from_nanos(self.min))
    }

    /// Largest recorded sample.
    #[cfg(test)]
    fn max(&self) -> Option<Nanos> {
        (self.count > 0).then(|| Nanos::from_nanos(self.max))
    }

    /// Value at quantile `q ∈ [0, 1]`, within the bucket quantization error.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Nanos> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                // Clamp the representative value into the observed range so
                // p0/p100 equal the exact min/max.
                let mid = bucket_midpoint(self.lo + i).clamp(self.min, self.max);
                return Some(Nanos::from_nanos(mid));
            }
        }
        Some(Nanos::from_nanos(self.max))
    }

    /// Median shorthand.
    pub fn p50(&self) -> Option<Nanos> {
        self.quantile(0.50)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> Option<Nanos> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics when a bucket would pass `u32::MAX` samples.
    pub fn merge(&mut self, other: &Histogram) {
        let (lo, hi) = (other.lo, other.lo + other.counts.len());
        self.cover(lo);
        self.cover(hi - 1);
        let from = lo - self.lo;
        for (a, &b) in self.counts[from..].iter_mut().zip(&other.counts) {
            add(a, b);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(Nanos::from_nanos(v));
        }
        assert_eq!(h.min(), Some(Nanos::ZERO));
        assert_eq!(h.max(), Some(Nanos::from_nanos(SUB_BUCKETS - 1)));
        // Each small value has its own bucket.
        assert_eq!(h.quantile(0.0), Some(Nanos::ZERO));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for us in [10u64, 20, 30, 40, 50] {
            h.record(Nanos::from_micros(us));
        }
        assert_eq!(h.mean(), Some(Nanos::from_micros(30)));
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        let value = Nanos::from_micros(468); // the paper's no-Nagle latency
        for _ in 0..1000 {
            h.record(value);
        }
        let p50 = h.quantile(0.5).unwrap().as_nanos() as f64;
        let exact = value.as_nanos() as f64;
        assert!(
            (p50 - exact).abs() / exact < 1.0 / 32.0 + 1e-9,
            "p50 {p50} vs {exact}"
        );
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(Nanos::from_nanos(x % 10_000_000));
        }
        let mut prev = Nanos::ZERO;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0).unwrap();
            assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
    }

    #[test]
    fn p100_is_max_and_p0_is_min() {
        let mut h = Histogram::new();
        h.record(Nanos::from_micros(3));
        h.record(Nanos::from_micros(7000));
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.quantile(0.0), h.min());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Nanos::from_micros(10));
        b.record(Nanos::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(Nanos::from_micros(20)));
        assert_eq!(a.max(), Some(Nanos::from_micros(30)));
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = Histogram::new();
        h.record(Nanos::from_secs(1_000_000));
        h.record(Nanos::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn bucket_index_is_monotone_nondecreasing() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < 1 << 45 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index not monotone at {v}");
            prev = idx;
            v += (v / 7).max(1);
        }
    }

    #[test]
    fn bucket_midpoint_within_bucket() {
        for v in [1u64, 31, 32, 33, 100, 1_000, 65_537, 1 << 30] {
            let idx = bucket_index(v);
            let mid = bucket_midpoint(idx);
            // The midpoint must land back in the same bucket.
            assert_eq!(bucket_index(mid), idx, "value {v} mid {mid}");
        }
    }

    /// A histogram with the whole table allocated from bucket 0.
    fn full_size() -> Histogram {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            lo: 0,
            ..Histogram::new()
        }
    }

    /// Everything a histogram answers: its count, then its mean, min, max
    /// and every 0.1 % quantile.
    fn readout(h: &Histogram) -> (u64, Vec<Option<Nanos>>) {
        let quantiles = (0..=1000).map(|i| h.quantile(f64::from(i) / 1000.0));
        (
            h.count(),
            [h.mean(), h.min(), h.max()]
                .into_iter()
                .chain(quantiles)
                .collect(),
        )
    }

    /// Where [`seeded_latencies`] draws: inside the buckets allocated up
    /// front, also below them, or also below and above them.
    #[derive(Clone, Copy, PartialEq)]
    enum Reach {
        Inside,
        Below,
        Both,
    }

    /// `n` seeded samples: mostly request latencies, 1 µs to 5 ms; with
    /// `Below` some under 1 µs; with `Both` also some past the buckets
    /// allocated up front and some in the top bucket.
    fn seeded_latencies(seed: u64, n: usize, reach: Reach) -> Vec<Nanos> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = match (x >> 60, reach) {
                    (0, Reach::Below | Reach::Both) => (x >> 33) % 1_024, // under 1 µs
                    (1, Reach::Both) => x >> 1,                           // up to the top bucket
                    (2, Reach::Both) => u64::MAX - (x >> 50),             // the top bucket
                    (3, Reach::Both) => (1 << 31) + (x >> 40),            // past the first buckets
                    _ => 1_024 + (x >> 33) % 5_000_000,                   // 1 µs to 5 ms
                };
                Nanos::from_nanos(v)
            })
            .collect()
    }

    #[test]
    fn sized_table_answers_as_the_full_table() {
        for seed in 0..12 {
            let reaches = [Reach::Inside, Reach::Below, Reach::Both];
            let mut sized = Vec::new();
            let mut full = Vec::new();
            for (k, reach) in reaches.into_iter().enumerate() {
                let samples = seeded_latencies(seed + 100 * k as u64, 2_000, reach);
                let (mut h, mut r) = (Histogram::new(), full_size());
                for &v in &samples {
                    h.record(v);
                    r.record(v);
                }
                assert_eq!(readout(&h), readout(&r), "seed {seed}, {k}");
                let (lo, hi) = (h.lo, h.lo + h.counts.len());
                match reach {
                    Reach::Inside => assert_eq!((lo, hi), (FIRST_BUCKETS.start, FIRST_BUCKETS.end)),
                    Reach::Below => assert_eq!((lo, hi), (0, FIRST_BUCKETS.end)),
                    Reach::Both => {
                        assert_eq!((lo, hi), (0, NUM_BUCKETS));
                        let top = |v: &Nanos| bucket_index(v.as_nanos()) == NUM_BUCKETS - 1;
                        assert!(samples.iter().any(top));
                    }
                }
                sized.push((h, samples));
                full.push(r);
            }
            // Merges between every two extents, both ways, and into new.
            for (i, j) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
                let (mut got, mut want) = (sized[i].0.clone(), full[i].clone());
                got.merge(&sized[j].0);
                want.merge(&full[j]);
                assert_eq!(
                    readout(&got),
                    readout(&want),
                    "seed {seed}: merge {j} into {i}"
                );
                let mut fresh = Histogram::new();
                fresh.merge(&got);
                assert_eq!(
                    readout(&fresh),
                    readout(&want),
                    "seed {seed}: merge into new"
                );
            }
            // Refilled.
            let (mut h, mut r) = (sized[0].0.clone(), full[0].clone());
            for (_, samples) in &sized {
                for &v in samples {
                    h.record(v);
                    r.record(v);
                }
            }
            assert_eq!(readout(&h), readout(&r), "seed {seed}: refill");
        }
    }

    #[test]
    #[should_panic(expected = "histogram bucket full")]
    fn a_full_bucket_panics_rather_than_wrap() {
        let mut h = Histogram::new();
        let v = Nanos::from_micros(50);
        h.counts[bucket_index(v.as_nanos()) - h.lo] = u32::MAX;
        h.record(v);
    }

    #[test]
    #[should_panic(expected = "histogram bucket full")]
    fn a_merge_into_a_full_bucket_panics_rather_than_wrap() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        let v = Nanos::from_micros(50);
        a.counts[bucket_index(v.as_nanos()) - a.lo] = u32::MAX;
        b.record(v);
        a.merge(&b);
    }
}
