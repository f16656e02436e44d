//! Compact peer-exchange encoding of queue snapshots.
//!
//! The paper (§3.2) has each party share three queue states with its peer,
//! "36 bytes ... per exchange (three 4-byte counters per queue)". This
//! module implements exactly that: a [`WireSnapshot`] packs a
//! [`Snapshot`] into three `u32` counters (scaled time,
//! total, scaled integral), and a [`WireExchange`] carries the three queues —
//! *unacked*, *unread*, and *ackdelay* — in 36 bytes.
//!
//! 32-bit counters wrap; deltas between two successive snapshots are
//! computed with wrapping subtraction and remain exact as long as no counter
//! advances by ≥ 2³² scaled units between exchanges. The counters are
//! [`Wrapping<u32>`](Wrapping), so a plain `-` between two of them *is* the
//! wrapping subtraction, and [`WireSnapshot::pack`] is the one place a wider
//! value is narrowed into one. With the default
//! [`WireScale`] (time in ~µs, integral in item-~ms) that allows windows of
//! over an hour and integral growth of ~4×10⁹ item-ms between exchanges —
//! comfortably beyond any sane exchange interval. The tradeoff is precision:
//! quantization error is bounded by one scaled unit per counter and is
//! analyzed in the tests.

use std::num::Wrapping;

use crate::queue::Snapshot;
use crate::time::Nanos;

/// Size in bytes of one encoded queue snapshot.
pub(crate) const SNAPSHOT_WIRE_BYTES: usize = 12;

/// Size in bytes of a full three-queue exchange (the paper's 36 bytes).
pub const EXCHANGE_WIRE_BYTES: usize = 3 * SNAPSHOT_WIRE_BYTES;

/// Size in bytes of an epoch-tagged exchange: one generation byte followed
/// by the paper's 36 counters.
pub(crate) const TAGGED_EXCHANGE_WIRE_BYTES: usize = 1 + EXCHANGE_WIRE_BYTES;

/// Why a wire payload failed to decode.
///
/// Decoding untrusted bytes must be total: every failure is reported
/// through this error, never a panic. The raw decodes are private to this
/// module, so other crates can only reach the bytes through
/// [`WireExchange::try_decode_tagged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The buffer is shorter than the fixed wire size of the payload.
    Truncated {
        /// Bytes the payload requires.
        need: usize,
        /// Bytes actually supplied.
        got: usize,
    },
}

impl core::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireDecodeError::Truncated { need, got } => {
                write!(f, "truncated wire payload: need {need} bytes, got {got}")
            }
        }
    }
}

/// Fixed-point scaling applied when packing 64/128-bit counters into `u32`.
///
/// Values are right-shifted by the configured number of bits; shifts are
/// powers of two so encoding stays branch-free integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireScale {
    /// Right-shift applied to nanosecond timestamps. The default of 10 makes
    /// the time unit ~1.024 µs, wrapping every ~73 minutes.
    pub time_shift: u32,
    /// Right-shift applied to item-nanosecond integrals. The default of 20
    /// makes the unit ~1.05 item-ms.
    pub integral_shift: u32,
}

impl Default for WireScale {
    fn default() -> Self {
        WireScale {
            time_shift: 10,
            integral_shift: 20,
        }
    }
}

impl WireScale {
    /// A scale with no shifting, for unit tests and very chatty exchanges
    /// over byte-sized units (wraps quickly; see module docs).
    pub const UNSCALED: WireScale = WireScale {
        time_shift: 0,
        integral_shift: 0,
    };
}

/// A queue snapshot packed into three 4-byte counters.
///
/// This is the unit the paper's metadata exchange ships: `(time, total,
/// integral)`, each 32 bits, wrapping. Every counter is a [`Wrapping<u32>`],
/// so the only arithmetic on them wraps, and a bare `u32` is refused:
///
/// ```compile_fail,E0308
/// let _ = littles::wire::WireSnapshot {
///     time: 1u32,
///     ..Default::default()
/// };
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Scaled, wrapped timestamp.
    pub time: Wrapping<u32>,
    /// Wrapped cumulative departures.
    pub total: Wrapping<u32>,
    /// Scaled, wrapped occupancy integral.
    pub integral: Wrapping<u32>,
}

impl WireSnapshot {
    /// Packs a full-resolution snapshot.
    ///
    /// Each counter keeps its low 32 bits: the wire clock wraps every
    /// 2^(32 + `time_shift`) ns, and `total` and the scaled integral wrap
    /// by the same contract. Peers only ever difference two packed values.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the wire counters are modular by contract; this is their one narrowing"
    )]
    pub fn pack(s: &Snapshot, scale: WireScale) -> Self {
        WireSnapshot {
            time: Wrapping((s.time.as_nanos() >> scale.time_shift) as u32),
            total: Wrapping(s.total as u32),
            integral: Wrapping((s.integral >> scale.integral_shift) as u32),
        }
    }

    /// Serializes to 12 big-endian bytes.
    pub(crate) fn encode(&self) -> [u8; SNAPSHOT_WIRE_BYTES] {
        let mut out = [0u8; SNAPSHOT_WIRE_BYTES];
        out[0..4].copy_from_slice(&self.time.0.to_be_bytes());
        out[4..8].copy_from_slice(&self.total.0.to_be_bytes());
        out[8..12].copy_from_slice(&self.integral.0.to_be_bytes());
        out
    }

    /// Deserializes from 12 big-endian bytes.
    pub(crate) fn decode(buf: &[u8; SNAPSHOT_WIRE_BYTES]) -> Self {
        let u32_at = |i: usize| {
            Wrapping(u32::from_be_bytes([
                buf[i],
                buf[i + 1],
                buf[i + 2],
                buf[i + 3],
            ]))
        };
        WireSnapshot {
            time: u32_at(0),
            total: u32_at(4),
            integral: u32_at(8),
        }
    }

    /// Wrap-aware window between two successive wire snapshots, un-scaled
    /// back to full resolution.
    ///
    /// Correct as long as each counter advanced by fewer than 2³² scaled
    /// units since `prev`. Returns `None` for an empty window.
    pub fn window_since(&self, prev: &WireSnapshot, scale: WireScale) -> Option<WireWindow> {
        let Wrapping(dt_scaled) = self.time - prev.time;
        if dt_scaled == 0 {
            return None;
        }
        Some(WireWindow {
            dt: Nanos::from_nanos(u64::from(dt_scaled) << scale.time_shift),
            d_total: u64::from((self.total - prev.total).0),
            d_integral: u128::from((self.integral - prev.integral).0) << scale.integral_shift,
        })
    }
}

/// Un-scaled deltas recovered from two wire snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireWindow {
    /// Window length.
    pub dt: Nanos,
    /// Departures during the window.
    pub d_total: u64,
    /// Integral growth during the window, item-nanoseconds.
    pub d_integral: u128,
}

impl WireWindow {
    /// Average occupancy `Q` over the window.
    pub fn avg_occupancy(&self) -> f64 {
        self.d_integral as f64 / self.dt.as_nanos() as f64
    }

    /// Throughput `λ` in items per second.
    pub fn throughput(&self) -> f64 {
        self.d_total as f64 / self.dt.as_secs_f64()
    }

    /// Little's-law delay `D = Δintegral / Δtotal`, `None` if nothing
    /// departed.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Δintegral / Δtotal ≤ Δintegral < 2^(32 + integral_shift) ns, inside u64 for every shift ≤ 32"
    )]
    pub fn delay(&self) -> Option<Nanos> {
        if self.d_total == 0 {
            return None;
        }
        Some(Nanos::from_nanos(
            (self.d_integral / self.d_total as u128) as u64,
        ))
    }
}

/// The three per-queue snapshots one endpoint shares with its peer.
///
/// Field order matches the latency decomposition of §3.2. The `epoch` is a
/// generation tag for the sharing endpoint's counter state: two exchanges
/// are delta-comparable only when their epochs match. A peer whose counters
/// restarted from zero (process crash, socket replaced) bumps its epoch, so
/// the reset is detected as a generation change instead of being misread as
/// a gigantic wrapping delta.
///
/// Peer bytes are untrusted, so [`try_decode_tagged`](Self::try_decode_tagged)
/// is the only decode outside this module:
///
/// ```
/// use littles::wire::WireExchange;
/// assert!(WireExchange::try_decode_tagged(&[0u8; 36]).is_err());
/// ```
///
/// ```compile_fail,E0624
/// let _ = littles::wire::WireExchange::decode(&[0u8; 36]);
/// ```
///
/// ```compile_fail,E0624
/// let _ = littles::wire::WireExchange::try_decode(&[0u8; 36]);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireExchange {
    /// Messages sent but not yet acknowledged.
    pub unacked: WireSnapshot,
    /// Messages received by the stack but not yet read by the application.
    pub unread: WireSnapshot,
    /// Messages received but whose acknowledgment is still delayed.
    pub ackdelay: WireSnapshot,
    /// Counter-state generation of the sharing endpoint (wrapping).
    pub epoch: u8,
}

impl WireExchange {
    /// Serializes to the paper's 36-byte exchange payload (counters only;
    /// the epoch tag travels in the option framing, see
    /// [`encode_tagged`](Self::encode_tagged)).
    pub fn encode(&self) -> [u8; EXCHANGE_WIRE_BYTES] {
        let mut out = [0u8; EXCHANGE_WIRE_BYTES];
        out[0..12].copy_from_slice(&self.unacked.encode());
        out[12..24].copy_from_slice(&self.unread.encode());
        out[24..36].copy_from_slice(&self.ackdelay.encode());
        out
    }

    /// Serializes to the epoch-tagged wire form: one generation byte
    /// followed by the 36 counters.
    pub fn encode_tagged(&self) -> [u8; TAGGED_EXCHANGE_WIRE_BYTES] {
        let mut out = [0u8; TAGGED_EXCHANGE_WIRE_BYTES];
        out[0] = self.epoch;
        out[1..].copy_from_slice(&self.encode());
        out
    }

    /// Deserializes a 36-byte exchange payload (epoch defaults to 0).
    pub(crate) fn decode(buf: &[u8; EXCHANGE_WIRE_BYTES]) -> Self {
        let part = |lo: usize| {
            let mut arr = [0u8; SNAPSHOT_WIRE_BYTES];
            arr.copy_from_slice(&buf[lo..lo + SNAPSHOT_WIRE_BYTES]);
            WireSnapshot::decode(&arr)
        };
        WireExchange {
            unacked: part(0),
            unread: part(12),
            ackdelay: part(24),
            epoch: 0,
        }
    }

    /// Deserializes an untrusted counters-only payload; total — never
    /// panics. Trailing bytes are ignored; the epoch defaults to 0.
    pub(crate) fn try_decode(buf: &[u8]) -> Result<Self, WireDecodeError> {
        match buf.get(..EXCHANGE_WIRE_BYTES) {
            Some(head) => {
                let mut arr = [0u8; EXCHANGE_WIRE_BYTES];
                arr.copy_from_slice(head);
                Ok(Self::decode(&arr))
            }
            None => Err(WireDecodeError::Truncated {
                need: EXCHANGE_WIRE_BYTES,
                got: buf.len(),
            }),
        }
    }

    /// Deserializes an untrusted epoch-tagged payload (epoch byte + 36
    /// counters); total — never panics.
    pub fn try_decode_tagged(buf: &[u8]) -> Result<Self, WireDecodeError> {
        match buf.split_first() {
            Some((&epoch, rest)) if rest.len() >= EXCHANGE_WIRE_BYTES => {
                let mut ex = Self::try_decode(rest)?;
                ex.epoch = epoch;
                Ok(ex)
            }
            _ => Err(WireDecodeError::Truncated {
                need: TAGGED_EXCHANGE_WIRE_BYTES,
                got: buf.len(),
            }),
        }
    }

    /// Packs three full-resolution snapshots (epoch 0; see
    /// [`with_epoch`](Self::with_epoch)).
    pub fn pack(
        unacked: &Snapshot,
        unread: &Snapshot,
        ackdelay: &Snapshot,
        scale: WireScale,
    ) -> Self {
        WireExchange {
            unacked: WireSnapshot::pack(unacked, scale),
            unread: WireSnapshot::pack(unread, scale),
            ackdelay: WireSnapshot::pack(ackdelay, scale),
            epoch: 0,
        }
    }

    /// The same exchange stamped with a counter-state generation.
    pub fn with_epoch(mut self, epoch: u8) -> Self {
        self.epoch = epoch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueState;

    fn snap(time_ns: u64, total: u64, integral: u128) -> Snapshot {
        Snapshot {
            time: Nanos::from_nanos(time_ns),
            total,
            integral,
        }
    }

    #[test]
    fn exchange_is_exactly_36_bytes() {
        let ex = WireExchange::default();
        assert_eq!(ex.encode().len(), 36);
    }

    #[test]
    fn snapshot_roundtrip() {
        let w = WireSnapshot {
            time: Wrapping(0xDEAD_BEEF),
            total: Wrapping(42),
            integral: Wrapping(0x0102_0304),
        };
        assert_eq!(WireSnapshot::decode(&w.encode()), w);
    }

    #[test]
    fn exchange_roundtrip() {
        let ex = WireExchange {
            unacked: WireSnapshot {
                time: Wrapping(1),
                total: Wrapping(2),
                integral: Wrapping(3),
            },
            unread: WireSnapshot {
                time: Wrapping(4),
                total: Wrapping(5),
                integral: Wrapping(6),
            },
            ackdelay: WireSnapshot {
                time: Wrapping(7),
                total: Wrapping(8),
                integral: Wrapping(9),
            },
            epoch: 0,
        };
        assert_eq!(WireExchange::decode(&ex.encode()), ex);
        // The tagged form carries the epoch as well.
        let tagged = ex.with_epoch(0xA7);
        assert_eq!(tagged.encode_tagged().len(), TAGGED_EXCHANGE_WIRE_BYTES);
        assert_eq!(
            WireExchange::try_decode_tagged(&tagged.encode_tagged()),
            Ok(tagged)
        );
    }

    #[test]
    fn try_decode_rejects_truncation() {
        let ex = WireExchange::default().with_epoch(3);
        let tagged = ex.encode_tagged();
        for cut in 0..TAGGED_EXCHANGE_WIRE_BYTES {
            assert_eq!(
                WireExchange::try_decode_tagged(&tagged[..cut]),
                Err(WireDecodeError::Truncated {
                    need: TAGGED_EXCHANGE_WIRE_BYTES,
                    got: cut,
                })
            );
        }
        assert_eq!(
            WireExchange::try_decode(&[0u8; 35]),
            Err(WireDecodeError::Truncated { need: 36, got: 35 })
        );
    }

    /// Seeded random-bytes sweep (the repo's proptest substitute): decoding
    /// arbitrary byte soup of arbitrary length must be total — an `Ok` for
    /// sufficient input, a `Truncated` error otherwise, and never a panic.
    #[test]
    fn decode_of_arbitrary_bytes_is_total() {
        // Minimal xorshift so littles stays dependency-free even in tests.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let len = (next() % 64) as usize;
            let mut buf = vec![0u8; len];
            for b in buf.iter_mut() {
                *b = next().to_le_bytes()[0];
            }
            assert_eq!(
                WireExchange::try_decode(&buf).is_ok(),
                len >= EXCHANGE_WIRE_BYTES
            );
            let tagged = WireExchange::try_decode_tagged(&buf);
            assert_eq!(tagged.is_ok(), len >= TAGGED_EXCHANGE_WIRE_BYTES);
            if let Ok(ex) = tagged {
                // What decoded must re-encode to the bytes consumed.
                assert_eq!(
                    ex.encode_tagged()[..],
                    buf[..TAGGED_EXCHANGE_WIRE_BYTES],
                    "tagged decode/encode roundtrip"
                );
            }
        }
    }

    #[test]
    fn unscaled_window_is_exact() {
        let a = WireSnapshot::pack(&snap(100, 5, 1_000), WireScale::UNSCALED);
        let b = WireSnapshot::pack(&snap(400, 9, 4_000), WireScale::UNSCALED);
        let w = b.window_since(&a, WireScale::UNSCALED).unwrap();
        assert_eq!(w.dt, Nanos::from_nanos(300));
        assert_eq!(w.d_total, 4);
        assert_eq!(w.d_integral, 3_000);
        assert_eq!(w.delay(), Some(Nanos::from_nanos(750)));
    }

    #[test]
    fn wrapping_delta_survives_overflow() {
        // Counters near the wrap point: the delta must still be correct.
        let prev = WireSnapshot {
            time: Wrapping(u32::MAX - 10),
            total: Wrapping(u32::MAX - 2),
            integral: Wrapping(u32::MAX - 100),
        };
        let cur = WireSnapshot {
            time: Wrapping(20),
            total: Wrapping(3),
            integral: Wrapping(50),
        };
        let w = cur.window_since(&prev, WireScale::UNSCALED).unwrap();
        assert_eq!(w.dt.as_nanos(), 31);
        assert_eq!(w.d_total, 6);
        assert_eq!(w.d_integral, 151);
    }

    #[test]
    fn default_scale_quantization_is_bounded() {
        // A realistic pair of snapshots one millisecond apart; the recovered
        // window must be within one quantum of the exact value.
        let scale = WireScale::default();
        let a = snap(5_000_000, 1_000, 7_000_000_000);
        let b = snap(6_000_000, 1_500, 9_000_000_000);
        let wa = WireSnapshot::pack(&a, scale);
        let wb = WireSnapshot::pack(&b, scale);
        let w = wb.window_since(&wa, scale).unwrap();
        let exact_dt = 1_000_000u64;
        let quantum_t = 1u64 << scale.time_shift;
        assert!(w.dt.as_nanos().abs_diff(exact_dt) <= quantum_t);
        let exact_di = 2_000_000_000u128;
        let quantum_i = 1u128 << scale.integral_shift;
        assert!(w.d_integral.abs_diff(exact_di) <= quantum_i);
        assert_eq!(w.d_total, 500);
    }

    #[test]
    fn empty_window_is_none() {
        let w = WireSnapshot {
            time: Wrapping(7),
            total: Wrapping(1),
            integral: Wrapping(2),
        };
        assert!(w.window_since(&w, WireScale::UNSCALED).is_none());
    }

    #[test]
    fn wire_delay_matches_full_resolution() {
        // Drive a queue, snapshot at both resolutions, compare delays.
        let mut q = QueueState::new(Nanos::ZERO);
        let s0 = q.snapshot(Nanos::ZERO);
        q.track(Nanos::from_micros(10), 8);
        q.track(Nanos::from_micros(500), -8);
        let s1 = q.snapshot(Nanos::from_micros(1_000));

        let full = s1.averages_since(&s0).unwrap().delay.unwrap();
        let scale = WireScale {
            time_shift: 10,
            integral_shift: 10,
        };
        let w = WireSnapshot::pack(&s1, scale)
            .window_since(&WireSnapshot::pack(&s0, scale), scale)
            .unwrap();
        let wire = w.delay().unwrap();
        let tolerance = Nanos::from_nanos((1u64 << scale.integral_shift) / 8 + 1);
        assert!(
            wire.as_nanos().abs_diff(full.as_nanos()) <= tolerance.as_nanos(),
            "wire {wire} vs full {full}"
        );
    }
    #[test]
    fn pack_time_wraps_modulo_wire_clock() {
        // The wire clock is (nanos >> time_shift) mod 2^32: with the
        // default shift of 10 it wraps every ~73 minutes. Packing is
        // modular *by design* — this pins the narrowing `pack` makes, and
        // shows the wrapped difference still recovers the elapsed time.
        let scale = WireScale::default();
        let period = 1u64 << (32 + scale.time_shift); // ~2^42 ns
        let before = snap(period - 4_096, 10, 0);
        let after = snap(period + 4_096, 20, 0);

        let wb = WireSnapshot::pack(&before, scale);
        let wa = WireSnapshot::pack(&after, scale);
        // The raw packed value wrapped past zero…
        assert!(
            wa.time < wb.time,
            "packed clock must wrap: {} vs {}",
            wa.time,
            wb.time
        );
        // …but the wrapping difference is exactly the elapsed wire ticks.
        assert_eq!(wa.time - wb.time, Wrapping((4_096 * 2) >> scale.time_shift));
    }
}
