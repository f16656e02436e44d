//! Deterministic pseudo-random number generation.
//!
//! A self-contained PCG32 implementation (O'Neill's `pcg32_oneseq`) seeded
//! through SplitMix64. Every source of randomness in a simulation flows from
//! one [`Pcg32`] so that a `(seed, configuration)` pair fully determines the
//! run. We deliberately avoid `rand`'s thread-local entropy here; the `rand`
//! crate is still used by test-only code elsewhere in the workspace.

use littles::Nanos;

const PCG_MULT: u64 = 6364136223846793005;
const PCG_INC: u64 = 1442695040888963407;

/// The registered named streams: every [`Pcg32::stream`] in the workspace
/// draws from one of these.
///
/// Two consumers sharing a stream would correlate their draws (enabling
/// one fault class would shift another's sequence), so each variant is
/// constructed at exactly one site; no type can enforce that part (see
/// DESIGN.md §7). The type does make a misspelt stream a compile error:
///
/// ```compile_fail,E0599
/// let _ = simnet::Pcg32::stream(1, simnet::rng::Stream::FaultLos);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Per-packet random and Gilbert–Elliott loss decisions.
    FaultLoss,
    /// Per-packet reorder decisions and extra-delay draws.
    FaultReorder,
    /// Per-packet duplication decisions.
    FaultDuplicate,
    /// Per-packet jitter magnitude draws.
    FaultJitter,
    /// Per-packet payload corruption decisions.
    FaultCorrupt,
    /// Link-restart scheduling draws.
    FaultRestart,
    /// Consistent-hash ring vnode placement for the shard router.
    ShardSalt,
    /// Hot/cold key selection for the skewed shard workload (forked per
    /// client).
    ShardSkew,
    /// Hot/cold key selection for the failover grid workload (forked per
    /// client).
    FailoverSkew,
}

impl Stream {
    /// The string hashed into the seed. Changing one moves every draw of
    /// that stream, and with it the goldens.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            Stream::FaultLoss => "fault.loss",
            Stream::FaultReorder => "fault.reorder",
            Stream::FaultDuplicate => "fault.duplicate",
            Stream::FaultJitter => "fault.jitter",
            Stream::FaultCorrupt => "fault.corrupt",
            Stream::FaultRestart => "fault.restart",
            Stream::ShardSalt => "shard.salt",
            Stream::ShardSkew => "shard.skew",
            Stream::FailoverSkew => "failover.skew",
        }
    }
}

/// A PCG32 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use simnet::Pcg32;
///
/// let mut a = Pcg32::new(7);
/// let mut b = Pcg32::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 whitening so that nearby seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        let mut rng = Pcg32 {
            state: z ^ (z >> 31),
        };
        // Advance once so the first output already depends on the seed.
        let _ = rng.next_u32();
        rng
    }

    /// Derives an independent child generator; used to give each component
    /// (load generator, link loss, policy exploration) its own stream.
    pub fn fork(&mut self) -> Pcg32 {
        Pcg32::new(self.next_u64())
    }

    /// Creates the generator for one of the workspace's registered streams.
    ///
    /// The stream's `label` is folded into the seed
    /// (FNV-1a) before the usual SplitMix64 whitening, so each
    /// `(seed, stream)` pair yields a reproducible sequence unrelated to
    /// both `Pcg32::new(seed)` and every other stream. Fault injection
    /// draws each fault class from its own stream so that enabling one
    /// class never perturbs another, and disabling all of them consumes
    /// zero draws, keeping lossless runs bit-identical.
    pub fn stream(seed: u64, stream: Stream) -> Self {
        Self::labelled(seed, stream.label())
    }

    /// Creates a generator for an arbitrary string label, hashed exactly as
    /// [`stream`](Self::stream) hashes a [`Stream`]'s label.
    ///
    /// This exists for callers outside the workspace (the repository
    /// benchmark replays a workload with it). Inside the workspace every
    /// stream is a [`Stream`] variant: `clippy.toml` bans this method there,
    /// so a new stream gets a documented variant instead of a string that a
    /// typo could silently fork.
    pub fn named(seed: u64, label: &str) -> Self {
        Self::labelled(seed, label)
    }

    fn labelled(seed: u64, label: &str) -> Self {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Pcg32::new(seed ^ h)
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(PCG_INC);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift with rejection for unbiased output.
        loop {
            let x = self.next_u64();
            let m = x as u128 * bound as u128;
            let lo = m as u64;
            if lo >= bound || lo >= lo.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed duration with the given mean, for Poisson
    /// (open-loop) arrival processes à la Lancet.
    pub fn exp_duration(&mut self, mean: Nanos) -> Nanos {
        // Inverse-CDF; clamp the uniform away from 0 to avoid ln(0).
        let u = self.next_f64().max(1e-300);
        Nanos::from_secs_f64(-u.ln() * mean.as_secs_f64())
    }

    /// Fills a byte buffer with random data (for synthetic payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::new(42);
        let mut b = Pcg32::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be unrelated, {same} collisions");
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Pcg32::new(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = Pcg32::new(4);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of [0,8) should occur");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg32::new(5);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rate_roughly_correct() {
        let mut r = Pcg32::new(6);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = Pcg32::new(7);
        let mean = Nanos::from_micros(50);
        let n = 20_000u64;
        let sum: Nanos = (0..n).map(|_| r.exp_duration(mean)).sum();
        let measured = sum.as_nanos() / n;
        let expect = mean.as_nanos();
        assert!(
            measured.abs_diff(expect) < expect / 20,
            "measured {measured} expect {expect}"
        );
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Pcg32::new(8);
        let mut child = a.fork();
        let same = (0..64).filter(|_| a.next_u32() == child.next_u32()).count();
        assert!(same < 4);
    }

    const ALL: [Stream; 9] = [
        Stream::FaultLoss,
        Stream::FaultReorder,
        Stream::FaultDuplicate,
        Stream::FaultJitter,
        Stream::FaultCorrupt,
        Stream::FaultRestart,
        Stream::ShardSalt,
        Stream::ShardSkew,
        Stream::FailoverSkew,
    ];

    #[test]
    fn named_streams_are_reproducible_and_distinct() {
        let mut a = Pcg32::stream(11, Stream::FaultLoss);
        let mut a2 = Pcg32::stream(11, Stream::FaultLoss);
        let mut b = Pcg32::stream(11, Stream::FaultReorder);
        let mut plain = Pcg32::new(11);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), a2.next_u64());
        }
        let mut a = Pcg32::stream(11, Stream::FaultLoss);
        let vs_sibling = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            vs_sibling < 4,
            "{vs_sibling} collisions with sibling stream"
        );
        let mut a = Pcg32::stream(11, Stream::FaultLoss);
        let vs_plain = (0..64).filter(|_| a.next_u32() == plain.next_u32()).count();
        assert!(vs_plain < 4, "{vs_plain} collisions with unlabeled stream");
    }

    #[test]
    fn stream_labels_are_distinct_and_hash_like_named() {
        for (i, s) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|t| t.label() != s.label()), "{s:?}");
            #[expect(clippy::disallowed_methods, reason = "pins named() to stream()")]
            let named = Pcg32::named(3, s.label());
            assert_eq!(Pcg32::stream(3, *s), named, "{s:?}");
        }
    }

    #[test]
    fn fill_bytes_fills_oddly_sized_buffers() {
        let mut r = Pcg32::new(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
