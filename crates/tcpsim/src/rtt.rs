//! Round-trip-time estimation (RFC 6298 with Karn's rule).
//!
//! The paper's "Latency Background" (§2) explains why SRTT is *not* a
//! substitute for end-to-end latency: it misses application read delays and
//! is inflated by delayed ACKs. We implement it anyway — first because the
//! retransmission timer needs it, and second because `e2e-core` exposes an
//! RTT-based latency baseline precisely to demonstrate that inadequacy.

use littles::Nanos;

use crate::config::RtoConfig;

/// Smoothed RTT state: `SRTT`, `RTTVAR`, and the derived `RTO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RttEstimator {
    srtt: Option<Nanos>,
    rttvar: Nanos,
    rto: Nanos,
    config: RtoConfig,
}

impl RttEstimator {
    /// Creates an estimator with the RFC 6298 initial RTO.
    pub(crate) fn new(config: RtoConfig) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Nanos::ZERO,
            rto: config.initial_rto,
            config,
        }
    }

    /// Feeds one RTT measurement from a segment that was *not*
    /// retransmitted (Karn's rule: retransmitted segments give ambiguous
    /// samples and must be excluded — the caller enforces this).
    pub(crate) fn sample(&mut self, rtt: Nanos) {
        let srtt = match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.rttvar = rtt / 2;
                rtt
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT − R|; SRTT = 7/8 SRTT + 1/8 R.
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar * 3 / 4 + err / 4;
                srtt * 7 / 8 + rtt / 8
            }
        };
        self.srtt = Some(srtt);
        // RTO = SRTT + max(G, 4·RTTVAR); take clock granularity G as 1 µs.
        let var_term = (self.rttvar * 4).max(Nanos::from_micros(1));
        self.rto = (srtt + var_term).clamp(self.config.min_rto, self.config.max_rto);
    }

    /// Exponential backoff after a retransmission timeout fires.
    pub(crate) fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(self.config.max_rto);
    }

    /// Current smoothed RTT, if any sample has been taken.
    pub(crate) fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// Current RTT variance estimate.
    #[cfg(test)]
    fn rttvar(&self) -> Nanos {
        self.rttvar
    }

    /// Current retransmission timeout.
    pub(crate) fn rto(&self) -> Nanos {
        self.rto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(RtoConfig {
            min_rto: Nanos::from_micros(1), // unclamped for testing
            max_rto: Nanos::from_secs(60),
            initial_rto: Nanos::from_secs(1),
        })
    }

    #[test]
    fn initial_rto_is_configured() {
        let e = est();
        assert_eq!(e.rto(), Nanos::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_initializes_srtt() {
        let mut e = est();
        e.sample(Nanos::from_micros(100));
        assert_eq!(e.srtt(), Some(Nanos::from_micros(100)));
        assert_eq!(e.rttvar(), Nanos::from_micros(50));
        // RTO = 100 + 4·50 = 300 µs.
        assert_eq!(e.rto(), Nanos::from_micros(300));
    }

    #[test]
    fn constant_samples_converge() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(Nanos::from_micros(200));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt.as_micros().abs_diff(200) <= 1, "srtt {srtt}");
        assert!(e.rttvar() < Nanos::from_micros(2));
    }

    #[test]
    fn variance_rises_with_jitter() {
        let mut steady = est();
        let mut jittery = est();
        for i in 0..50 {
            steady.sample(Nanos::from_micros(100));
            jittery.sample(Nanos::from_micros(if i % 2 == 0 { 50 } else { 150 }));
        }
        assert!(jittery.rttvar() > steady.rttvar());
    }

    #[test]
    fn rto_clamps_to_min() {
        let mut e = RttEstimator::new(RtoConfig {
            min_rto: Nanos::from_millis(200),
            max_rto: Nanos::from_secs(60),
            initial_rto: Nanos::from_secs(1),
        });
        e.sample(Nanos::from_micros(10));
        assert_eq!(e.rto(), Nanos::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(RtoConfig {
            min_rto: Nanos::from_millis(1),
            max_rto: Nanos::from_millis(300),
            initial_rto: Nanos::from_millis(100),
        });
        e.backoff();
        assert_eq!(e.rto(), Nanos::from_millis(200));
        e.backoff();
        assert_eq!(e.rto(), Nanos::from_millis(300));
        e.backoff();
        assert_eq!(e.rto(), Nanos::from_millis(300));
    }

    #[test]
    fn consecutive_timeouts_pin_at_max_rto() {
        // A loss episode: the timer fires repeatedly with no new samples.
        // Each backoff doubles the RTO until it pins at max_rto and stays
        // there no matter how many more timeouts fire.
        let mut e = RttEstimator::new(RtoConfig {
            min_rto: Nanos::from_millis(1),
            max_rto: Nanos::from_secs(2),
            initial_rto: Nanos::from_millis(100),
        });
        e.sample(Nanos::from_micros(500)); // 0.5 + 4·0.25 = 1.5 ms
        let base = e.rto();
        assert_eq!(base, Nanos::from_micros(1_500));
        let mut prev = base;
        for i in 1..=20u32 {
            e.backoff();
            let expect = (base * 2u64.pow(i.min(11))).min(Nanos::from_secs(2));
            assert_eq!(e.rto(), expect, "after {i} timeouts");
            assert!(e.rto() >= prev, "backoff never shrinks the RTO");
            prev = e.rto();
        }
        assert_eq!(e.rto(), Nanos::from_secs(2));
    }

    #[test]
    fn srtt_survives_backoff_and_recovers_after_loss_episode() {
        let mut e = est();
        for _ in 0..20 {
            e.sample(Nanos::from_micros(100));
        }
        let (srtt_before, rttvar_before) = (e.srtt().unwrap(), e.rttvar());
        // The loss episode: timeouts back the RTO off but, per RFC 6298,
        // never touch SRTT/RTTVAR — only fresh samples do.
        for _ in 0..6 {
            e.backoff();
        }
        assert_eq!(e.srtt(), Some(srtt_before));
        assert_eq!(e.rttvar(), rttvar_before);
        assert!(e.rto() > Nanos::from_micros(100 * 64));
        // Episode ends: the first post-recovery samples collapse the RTO
        // back toward SRTT + 4·RTTVAR and srtt re-converges.
        for _ in 0..20 {
            e.sample(Nanos::from_micros(120));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            srtt.as_micros().abs_diff(120) <= 5,
            "srtt should re-converge, got {srtt}"
        );
        assert!(e.rto() < Nanos::from_millis(1), "rto {}", e.rto());
    }

    #[test]
    fn sample_count_tracks() {
        // Each sample is folded in once: an equal second sample leaves SRTT
        // and shrinks RTTVAR by a quarter, so the RTO reads how many came.
        let mut e = est();
        e.sample(Nanos::from_micros(10));
        assert_eq!(e.rto(), Nanos::from_micros(30)); // 10 + 4·5
        e.sample(Nanos::from_micros(10));
        assert_eq!(e.srtt(), Some(Nanos::from_micros(10)));
        assert_eq!(e.rto(), Nanos::from_micros(25)); // 10 + 4·3.75
    }
}
