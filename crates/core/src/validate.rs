//! Plausibility validation of peer-shared queue state (the untrusted-input
//! boundary).
//!
//! The §5 metadata exchange hands the estimator 36 bytes of *peer-supplied*
//! counters. Everything downstream — the latency decomposition, the
//! confidence machinery, every knob the control plane drives — trusts those
//! counters, so a flipped bit, a peer whose counters reset after a crash,
//! or a peer that simply lies would silently poison the whole loop. In the
//! spirit of Dapper's cross-validation of remote-reported TCP state against
//! locally observable signals, an [`ExchangeValidator`] checks every
//! incoming exchange against what this endpoint can verify for itself
//! before the window reaches [`E2eEstimator`](crate::E2eEstimator):
//!
//! * **epoch** — exchanges are delta-comparable only within one counter
//!   generation; an epoch change is a detected peer restart
//!   ([`Admission::EpochChange`]) and triggers resynchronization, never a
//!   wrapping delta across generations;
//! * **time** — within an epoch the wire clock must advance: the three
//!   queues' capture stamps must agree, the wrapping delta must be forward
//!   (< 2³¹ scaled units) and no longer than a configured maximum gap;
//! * **throughput** — each queue's `Δtotal/Δtime` must be bounded by what
//!   the local socket actually transmitted or acknowledged (the peer cannot
//!   have received much more than we sent, nor been acked for much more
//!   than we received);
//! * **occupancy / delay** — the occupancy integral must be consistent:
//!   average occupancy bounded, and the implied Little's-law delay within a
//!   multiple of the locally measured SRTT.
//!
//! A rejected exchange never becomes the delta baseline; the estimator
//! keeps estimating from the last accepted window, demotes confidence
//! (halved per consecutive rejection), and thereby feeds the existing
//! `policy` circuit breaker: sustained rejection reads exactly like a
//! stale/starved exchange — trip, fall back to the safe corner, restore
//! with hysteresis.

use std::num::Wrapping;

use littles::wire::{WireExchange, WireScale};
use littles::Nanos;

use crate::combine::EndpointWindows;

/// Multiplier applied to the locally observed reference rate when bounding
/// a remote queue's `Δtotal/Δtime`.
const RATE_FACTOR: f64 = 8.0;
/// Absolute rate slack (items/second) added to the reference before
/// multiplying, so idle or just-started connections aren't rejected on a
/// zero reference.
const RATE_FLOOR: f64 = 1_000_000.0;
/// Multiplier on the locally measured SRTT bounding each remote queue's
/// implied Little's-law delay.
const DELAY_SRTT_FACTOR: f64 = 64.0;
/// SRTT floor used in the delay bound (guards against a tiny or
/// not-yet-measured SRTT rejecting legitimate queueing delay).
const DELAY_SRTT_FLOOR: Nanos = Nanos::from_millis(1);
/// Maximum plausible average occupancy over one remote window, items.
const MAX_OCCUPANCY: f64 = 1e8;
/// Maximum plausible gap between two exchanges of one epoch; a larger
/// forward jump of the wire clock is treated as a garbled time field.
const MAX_GAP: Nanos = Nanos::from_secs(60);

/// Switches peer-state plausibility validation on where it is passed (an
/// estimator, a registry, a driver). The bounds an [`ExchangeValidator`]
/// checks are fixed constants of this module, so there is nothing to set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidateConfig;

/// Why an exchange was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Wire clock regressed, jumped implausibly far, or the three queues'
    /// capture stamps disagree.
    Time,
    /// A queue's departure rate exceeds what the local socket can confirm.
    Throughput,
    /// A queue's implied delay exceeds the SRTT-based bound.
    Delay,
    /// A queue's average occupancy is implausibly large.
    Occupancy,
}

/// The validator's verdict on one fresh exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Plausible: safe to fold into the estimate.
    Accept,
    /// The peer's counter generation changed (restart detected):
    /// resynchronize baselines instead of computing a cross-generation
    /// delta.
    EpochChange,
    /// Implausible: discard, keep the previous baseline, demote
    /// confidence.
    Reject(RejectReason),
}

/// Counters describing everything the validator has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidateStats {
    /// Exchanges that passed every check.
    pub accepted: u64,
    /// Exchanges rejected (sum of the per-reason counters).
    pub rejected: u64,
    /// Peer counter-generation changes detected.
    pub epoch_changes: u64,
    /// Rejections for a regressed/garbled wire clock.
    pub time: u64,
    /// Rejections for implausible throughput.
    pub throughput: u64,
    /// Rejections for implausible delay.
    pub delay: u64,
    /// Rejections for implausible occupancy.
    pub(crate) occupancy: u64,
}

impl ValidateStats {
    /// Merges another stats block into this one (for per-connection
    /// aggregation).
    pub fn merge(&mut self, other: &ValidateStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.epoch_changes += other.epoch_changes;
        self.time += other.time;
        self.throughput += other.throughput;
        self.delay += other.delay;
        self.occupancy += other.occupancy;
    }
}

/// Locally observable signals the validator cross-checks against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateCtx {
    /// The local socket's smoothed RTT, if measured.
    pub srtt: Option<Nanos>,
    /// The local tick-to-tick queue windows in the same unit as the
    /// exchange (reference rates for the throughput bound).
    pub local: Option<EndpointWindows>,
}

/// Stateful plausibility checker for one connection's exchange stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeValidator {
    stats: ValidateStats,
    /// Consecutive rejections since the last accepted exchange (drives the
    /// confidence demotion).
    consecutive: u32,
}

impl ExchangeValidator {
    /// Creates a validator (its bounds are this module's constants).
    pub fn new(_: ValidateConfig) -> Self {
        ExchangeValidator {
            stats: ValidateStats::default(),
            consecutive: 0,
        }
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> ValidateStats {
        self.stats
    }

    /// Consecutive rejections since the last accepted exchange.
    #[cfg(test)]
    pub(crate) fn consecutive_rejects(&self) -> u32 {
        self.consecutive
    }

    /// Multiplier applied to estimate confidence: halved per consecutive
    /// rejection, so two rejected exchanges in a row already push
    /// confidence under the breaker's default trip threshold.
    pub(crate) fn confidence_factor(&self) -> f64 {
        0.5f64.powi(self.consecutive.min(32) as i32)
    }

    /// Judges one fresh exchange (`cur`) against the previously accepted
    /// baseline (`prev`) and the locally observable signals in `ctx`.
    pub fn admit(
        &mut self,
        prev: &WireExchange,
        cur: &WireExchange,
        scale: WireScale,
        ctx: &ValidateCtx,
    ) -> Admission {
        if cur.epoch != prev.epoch {
            self.stats.epoch_changes += 1;
            self.consecutive = 0;
            return Admission::EpochChange;
        }
        match self.check(prev, cur, scale, ctx) {
            Ok(()) => {
                self.stats.accepted += 1;
                self.consecutive = 0;
                Admission::Accept
            }
            Err(reason) => {
                self.stats.rejected += 1;
                self.consecutive = self.consecutive.saturating_add(1);
                match reason {
                    RejectReason::Time => self.stats.time += 1,
                    RejectReason::Throughput => self.stats.throughput += 1,
                    RejectReason::Delay => self.stats.delay += 1,
                    RejectReason::Occupancy => self.stats.occupancy += 1,
                }
                Admission::Reject(reason)
            }
        }
    }

    fn check(
        &self,
        prev: &WireExchange,
        cur: &WireExchange,
        scale: WireScale,
        ctx: &ValidateCtx,
    ) -> Result<(), RejectReason> {
        // The three queues are captured at one instant; their wire stamps
        // must agree. A garbled time field breaks the agreement.
        if cur.unacked.time != cur.unread.time || cur.unacked.time != cur.ackdelay.time {
            return Err(RejectReason::Time);
        }
        // Within an epoch the wire clock only moves forward: a wrapping
        // delta in the upper half-range means the clock regressed.
        let Wrapping(dt_scaled) = cur.unacked.time - prev.unacked.time;
        if dt_scaled == 0 || dt_scaled >= 1 << 31 {
            return Err(RejectReason::Time);
        }
        let dt = Nanos::from_nanos((dt_scaled as u64) << scale.time_shift);
        if dt > MAX_GAP {
            return Err(RejectReason::Time);
        }

        // Reference rates from the local windows: what the peer reports
        // having sent must be commensurate with what we received (and vice
        // versa). `unacked` departures at the peer are acknowledgments we
        // generated for data we received; `unread`/`ackdelay` departures at
        // the peer are reads/ACKs of data we transmitted.
        let (local_tx_rate, local_rx_rate) = match ctx.local {
            Some(w) => (w.unacked.throughput(), w.unread.throughput()),
            None => (0.0, 0.0),
        };
        let bound = |reference: f64| RATE_FACTOR * (reference + RATE_FLOOR);
        let windows = EndpointWindows::between_wire(prev, cur, scale);
        let references = [
            (cur.unacked, prev.unacked, local_rx_rate),
            (cur.unread, prev.unread, local_tx_rate),
            (cur.ackdelay, prev.ackdelay, local_tx_rate),
        ];
        for (c, p, reference) in references {
            if let Some(w) = c.window_since(&p, scale) {
                if w.throughput() > bound(reference) {
                    return Err(RejectReason::Throughput);
                }
                if w.avg_occupancy() > MAX_OCCUPANCY {
                    return Err(RejectReason::Occupancy);
                }
            }
        }
        // The implied Little's-law delays must sit within a multiple of
        // the locally measured round-trip: queue residency an order of
        // magnitude beyond the path RTT budget is a garbled integral, not
        // congestion. (Checked on the combined windows so the idle/stalled
        // fallbacks match what the estimator would consume.)
        if let Some(w) = windows {
            let srtt = ctx.srtt.unwrap_or(DELAY_SRTT_FLOOR).max(DELAY_SRTT_FLOOR);
            let max_delay = Nanos::from_nanos((srtt.as_nanos() as f64 * DELAY_SRTT_FACTOR) as u64);
            for q in [w.unacked, w.unread, w.ackdelay] {
                if q.delay() > max_delay {
                    return Err(RejectReason::Delay);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littles::wire::WireSnapshot;

    fn snap(time: u32, total: u32, integral: u32) -> WireSnapshot {
        WireSnapshot {
            time: Wrapping(time),
            total: Wrapping(total),
            integral: Wrapping(integral),
        }
    }

    fn exchange(time: u32, total: u32, integral: u32, epoch: u8) -> WireExchange {
        WireExchange {
            unacked: snap(time, total, integral),
            unread: snap(time, total, integral),
            ackdelay: snap(time, total, integral),
            epoch,
        }
    }

    fn ctx_with_rates(tx: f64, rx: f64) -> ValidateCtx {
        use crate::combine::QueueWindow;
        let q = |rate: f64| QueueWindow {
            dt: Nanos::from_millis(1),
            d_total: (rate / 1_000.0) as u64,
            d_integral: 0,
        };
        ValidateCtx {
            srtt: Some(Nanos::from_micros(200)),
            local: Some(EndpointWindows {
                unacked: q(tx),
                unread: q(rx),
                ackdelay: q(tx),
            }),
        }
    }

    #[test]
    fn plausible_window_is_accepted() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let scale = WireScale::UNSCALED;
        let prev = exchange(1_000, 100, 10_000, 1);
        let cur = exchange(501_000, 150, 20_000, 1);
        let verdict = v.admit(&prev, &cur, scale, &ctx_with_rates(100_000.0, 100_000.0));
        assert_eq!(verdict, Admission::Accept);
        assert_eq!(v.stats().accepted, 1);
        assert_eq!(v.consecutive_rejects(), 0);
        assert!((v.confidence_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_change_is_resync_not_rejection() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let prev = exchange(900_000, 5_000, 900_000, 1);
        // Counters restarted from (near) zero under a new generation tag —
        // exactly what an endpoint restart produces.
        let cur = exchange(1_000, 3, 10, 2);
        let verdict = v.admit(&prev, &cur, WireScale::UNSCALED, &ValidateCtx::default());
        assert_eq!(verdict, Admission::EpochChange);
        assert_eq!(v.stats().epoch_changes, 1);
        assert_eq!(v.stats().rejected, 0);
    }

    #[test]
    fn same_counters_without_epoch_are_rejected_as_time_regression() {
        // The blind spot the epoch fixes: counters reset *without* a tag
        // change look like a clock regression and must not form a window.
        let mut v = ExchangeValidator::new(ValidateConfig);
        let prev = exchange(900_000, 5_000, 900_000, 1);
        let cur = exchange(1_000, 3, 10, 1);
        let verdict = v.admit(&prev, &cur, WireScale::UNSCALED, &ValidateCtx::default());
        assert_eq!(verdict, Admission::Reject(RejectReason::Time));
    }

    #[test]
    fn garbled_time_field_is_rejected() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let prev = exchange(1_000, 100, 10_000, 1);
        let mut cur = exchange(501_000, 150, 20_000, 1);
        cur.unread.time ^= 0x4000_0000; // one flipped bit in one stamp
        let verdict = v.admit(&prev, &cur, WireScale::UNSCALED, &ValidateCtx::default());
        assert_eq!(verdict, Admission::Reject(RejectReason::Time));
        assert_eq!(v.stats().time, 1);
    }

    #[test]
    fn implausible_throughput_is_rejected() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let prev = exchange(1_000, 100, 10_000, 1);
        // A flipped high bit in `total`: a ~2³⁰-item delta over 500 µs.
        let mut cur = exchange(501_000, 150, 20_000, 1);
        cur.unread.total ^= 0x4000_0000;
        let verdict = v.admit(&prev, &cur, WireScale::UNSCALED, &ctx_with_rates(1e5, 1e5));
        assert_eq!(verdict, Admission::Reject(RejectReason::Throughput));
        assert_eq!(v.stats().throughput, 1);
    }

    #[test]
    fn implausible_integral_is_rejected() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let scale = WireScale::default();
        let prev = exchange(1_000, 100, 10, 1);
        let mut cur = exchange(1_500, 150, 12, 1);
        // Garbled integral: with the default 2²⁰ scale this is an
        // astronomic occupancy-integral jump.
        cur.ackdelay.integral ^= 0x4000_0000;
        let verdict = v.admit(&prev, &cur, scale, &ctx_with_rates(1e5, 1e5));
        assert!(
            matches!(
                verdict,
                Admission::Reject(RejectReason::Occupancy) | Admission::Reject(RejectReason::Delay)
            ),
            "{verdict:?}"
        );
    }

    #[test]
    fn consecutive_rejections_demote_confidence_until_acceptance() {
        let mut v = ExchangeValidator::new(ValidateConfig);
        let prev = exchange(1_000, 100, 10_000, 1);
        let mut bad = exchange(501_000, 150, 20_000, 1);
        bad.unacked.time = Wrapping(0); // disagrees with the other stamps
        for expected in [0.5, 0.25, 0.125] {
            let verdict = v.admit(&prev, &bad, WireScale::UNSCALED, &ValidateCtx::default());
            assert!(matches!(verdict, Admission::Reject(_)));
            assert!((v.confidence_factor() - expected).abs() < 1e-12);
        }
        assert_eq!(v.stats().rejected, 3);
        let good = exchange(501_000, 150, 20_000, 1);
        let verdict = v.admit(&prev, &good, WireScale::UNSCALED, &ctx_with_rates(1e5, 1e5));
        assert_eq!(verdict, Admission::Accept);
        assert!((v.confidence_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wire_time_wrap_is_not_a_regression() {
        // Validation must survive the ~73-minute u32 time wrap: a window
        // crossing the wrap point is forward, not regressed.
        let mut v = ExchangeValidator::new(ValidateConfig);
        let scale = WireScale::default();
        let prev = exchange(u32::MAX - 100, 1_000, 50, 1);
        let cur = exchange(400, 1_050, 60, 1);
        let verdict = v.admit(&prev, &cur, scale, &ctx_with_rates(1e5, 1e5));
        assert_eq!(verdict, Admission::Accept);
    }
}
