//! Transmit-path batching gates: Nagle's algorithm and auto-corking.
//!
//! These are the two "top of the stack" batching heuristics from the
//! paper's §2. Both are *hold* decisions on a sub-MSS tail segment:
//!
//! * **Nagle** (RFC 896): hold a partial segment while any previously sent
//!   data is unacknowledged. Interacts badly with delayed ACKs (the
//!   Cheshire pathology): the holding side waits for an ACK the peer is
//!   deliberately delaying.
//! * **Auto-corking**: hold a partial segment while earlier packets still
//!   sit in the NIC transmit ring, betting that more data arrives before
//!   the completion interrupt.
//!
//! Both are pure functions here so they can be tested exhaustively and
//! reused by the policy ablations.

use littles::Nanos;

use crate::config::CorkConfig;

/// A small segment is corked only while at least this many packets sit
/// unfinished in the NIC transmit ring.
const CORK_MIN_INFLIGHT_PACKETS: u32 = 1;

/// Auto-cork safety valve: corked data is flushed after this long even if
/// the ring never drains (prevents the iSCSI-style stalls reported on the
/// kernel list).
pub(crate) const CORK_MAX_DELAY: Nanos = Nanos::from_micros(50);

/// Nagle's transmit test.
///
/// Returns `true` when a segment of `payload_len` may be sent now:
/// full-sized segments always pass; a partial segment passes only when
/// nothing is in flight (or Nagle is off).
///
/// # Examples
///
/// ```
/// use tcpsim::gates::nagle_allows;
///
/// // Partial segment, data in flight, Nagle on → hold.
/// assert!(!nagle_allows(true, 100, 1448, 5000));
/// // Same with TCP_NODELAY → send.
/// assert!(nagle_allows(false, 100, 1448, 5000));
/// ```
pub fn nagle_allows(
    nagle_on: bool,
    payload_len: usize,
    mss: usize,
    in_flight_bytes: usize,
) -> bool {
    if !nagle_on {
        return true;
    }
    if payload_len >= mss {
        return true;
    }
    in_flight_bytes == 0
}

/// Auto-corking's transmit test.
///
/// Returns `true` when the segment should be *held* (corked): corking is
/// enabled, the segment is sub-MSS, and the NIC ring still holds an
/// unfinished packet.
pub(crate) fn cork_holds(
    config: &CorkConfig,
    payload_len: usize,
    mss: usize,
    nic_in_flight_packets: u32,
) -> bool {
    config.enabled && payload_len < mss && nic_in_flight_packets >= CORK_MIN_INFLIGHT_PACKETS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nagle_off_always_sends() {
        for len in [0usize, 1, 100, 1448, 4000] {
            for in_flight in [0usize, 1, 10_000] {
                assert!(nagle_allows(false, len, 1448, in_flight));
            }
        }
    }

    #[test]
    fn nagle_full_segment_always_sends() {
        assert!(nagle_allows(true, 1448, 1448, 100_000));
        assert!(nagle_allows(true, 2000, 1448, 100_000));
    }

    #[test]
    fn nagle_partial_with_inflight_holds() {
        assert!(!nagle_allows(true, 1447, 1448, 1));
        assert!(!nagle_allows(true, 1, 1448, 1_000_000));
    }

    #[test]
    fn nagle_partial_idle_sends() {
        assert!(nagle_allows(true, 1, 1448, 0));
    }

    #[test]
    fn cork_disabled_never_holds() {
        assert!(!cork_holds(&CorkConfig { enabled: false }, 10, 1448, 100));
    }

    #[test]
    fn cork_holds_small_segment_with_ring_backlog() {
        assert!(cork_holds(&CorkConfig { enabled: true }, 10, 1448, 1));
        assert!(!cork_holds(&CorkConfig { enabled: true }, 10, 1448, 0));
    }

    #[test]
    fn cork_never_holds_full_segments() {
        assert!(!cork_holds(&CorkConfig { enabled: true }, 1448, 1448, 10));
    }
}
