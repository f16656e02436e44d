//! Workload specifications for the evaluation.
//!
//! The paper's Figure 4 workloads: a single client issuing SETs of 16 KiB
//! values to 16 B keys (4a), optionally mixed with 5% GETs whose responses
//! are the large ones (4b). Arrivals are open-loop Poisson at a target
//! rate, as generated by Lancet.

use littles::Nanos;

/// The key of index `idx`: `key:` and twelve zero-padded digits (16 B,
/// the paper's key size), built without a heap allocation. Every golden
/// was recorded with this format.
pub(crate) fn key_bytes(idx: u64) -> [u8; 16] {
    debug_assert!(
        idx < 1_000_000_000_000,
        "key index {idx} needs more than twelve digits"
    );
    let mut key = *b"key:000000000000";
    let mut rest = idx;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// A request-response workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Key size in bytes (paper: 16).
    pub key_size: usize,
    /// Value size in bytes (paper: 16 KiB).
    pub value_size: usize,
    /// Fraction of requests that are SETs (1.0 = Figure 4a; 0.95 =
    /// Figure 4b).
    pub set_ratio: f64,
    /// Offered load in requests per second.
    pub rate_rps: f64,
    /// Number of distinct keys (preloaded so GETs always hit).
    pub key_space: usize,
}

impl WorkloadSpec {
    /// Figure 4a: 100% SET, 16 B keys, 16 KiB values.
    pub fn fig4a(rate_rps: f64) -> Self {
        WorkloadSpec {
            key_size: 16,
            value_size: 16 * 1024,
            set_ratio: 1.0,
            rate_rps,
            key_space: 64,
        }
    }

    /// Figure 4b: 95% SET / 5% GET.
    pub fn fig4b(rate_rps: f64) -> Self {
        WorkloadSpec {
            set_ratio: 0.95,
            ..Self::fig4a(rate_rps)
        }
    }

    /// Figure 2: a lighter fixed-rate workload (small values) where the
    /// client-side cost dominates the batching outcome.
    pub fn fig2(rate_rps: f64, value_size: usize) -> Self {
        WorkloadSpec {
            key_size: 16,
            value_size,
            set_ratio: 1.0,
            rate_rps,
            key_space: 64,
        }
    }

    /// The sharded-proxy workload: values sized so ~3 requests fill an
    /// MSS — on a busy upstream Nagle's hold ends at the MSS boundary
    /// within a few tens of µs, while on a sparse upstream a held
    /// singleton waits the full ACK round trip. That asymmetry is what
    /// makes batching cheap exactly where it pays (the hot shard) and
    /// expensive where it doesn't (cold shards). A wider key space gives
    /// consistent hashing keys to spread across shards.
    pub fn shard(rate_rps: f64) -> Self {
        WorkloadSpec {
            key_size: 16,
            value_size: 512,
            set_ratio: 1.0,
            rate_rps,
            key_space: 256,
        }
    }

    /// Mean inter-arrival time at the offered rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive.
    pub(crate) fn mean_interarrival(&self) -> Nanos {
        assert!(self.rate_rps > 0.0, "rate must be positive");
        Nanos::from_secs_f64(1.0 / self.rate_rps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_the_formatted_index() {
        for idx in [0u64, 7, 42, 1_000, 999_999_999_999] {
            assert_eq!(key_bytes(idx), format!("key:{idx:012}").as_bytes());
        }
    }

    #[test]
    fn fig4a_matches_paper_parameters() {
        let w = WorkloadSpec::fig4a(37_500.0);
        assert_eq!(w.key_size, 16);
        assert_eq!(w.value_size, 16_384);
        assert_eq!(w.set_ratio.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn fig4b_is_95_to_5() {
        let w = WorkloadSpec::fig4b(10_000.0);
        assert!((w.set_ratio - 0.95).abs() < 1e-12);
    }

    #[test]
    fn interarrival_inverts_rate() {
        let w = WorkloadSpec::fig4a(20_000.0);
        assert_eq!(w.mean_interarrival(), Nanos::from_micros(50));
    }

    #[test]
    fn set_request_spans_many_segments() {
        let w = WorkloadSpec::fig4a(1.0);
        let bytes =
            crate::resp::encode_set(&vec![b'k'; w.key_size], &vec![0u8; w.value_size]).len();
        assert!(bytes > 16_384 && bytes < 16_500, "got {bytes}");
        // ~12 MSS-sized wire packets per request.
        assert_eq!(bytes.div_ceil(1448), 12);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = WorkloadSpec::fig4a(0.0).mean_interarrival();
    }
}
