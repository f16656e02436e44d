//! Runtime conservation gates for the three monitored queues.
//!
//! Every number the estimator produces is derived from the *unacked*,
//! *unread*, and *ackdelay* queue counters, so those counters must obey
//! conservation laws or the Little's-law averages silently drift. This
//! module is the runtime half of the repo's correctness story (the static
//! half is rustc and clippy): an independent
//! ledger per queue double-books every enter/leave event and a set of gate
//! functions checks
//!
//! * **conservation** — bytes entered minus bytes left equals the current
//!   occupancy reported by the instrumented queue, and is never negative;
//! * **monotonicity** — a queue's `total` and `integral` never decrease and
//!   snapshot time never runs backwards (the discrete-event clock is
//!   strictly non-decreasing);
//! * **continuity** — freshly transmitted stream data starts exactly where
//!   the previous transmission ended, and the receiver's `rcv_nxt` /
//!   `read_pos` cursors advance without gaps.
//! * **SACK** — every arriving SACK block lies inside (`una`, highest
//!   offset sent], and no retransmission resends a range the peer SACKed.
//!
//! Gates return `Result` so tests can prove they fire on corrupted state;
//! the socket wraps them in `debug_assert!`-style checks ([`gate`]) that
//! vanish in release builds, mirroring how `QueueState::track` treats
//! negative occupancy.

use std::fmt;

use littles::{Nanos, Snapshot};

use crate::queues::{SocketQueues, Unit};

/// A violated queue invariant: which gate fired and the numbers that
/// contradict it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// `entered − left` disagrees with the queue's reported occupancy.
    ConservationBroken {
        /// Which queue ("unacked", "unread", "ackdelay").
        queue: &'static str,
        /// Cumulative units entered.
        entered: u64,
        /// Cumulative units left.
        left: u64,
        /// Occupancy the instrumented queue reports.
        reported_size: i64,
    },
    /// More units left a queue than ever entered it.
    NegativeBalance {
        /// Which queue.
        queue: &'static str,
        /// Cumulative units entered.
        entered: u64,
        /// Cumulative units left.
        left: u64,
    },
    /// A snapshot's `total` or `integral` decreased, or its time ran
    /// backwards.
    MonotonicityBroken {
        /// Which queue.
        queue: &'static str,
        /// Which field regressed ("time", "total", "integral").
        field: &'static str,
        /// Value at the previous check.
        prev: u128,
        /// Value now (smaller — the violation).
        cur: u128,
    },
    /// Newly transmitted data does not start where the last transmission
    /// ended.
    TxDiscontinuity {
        /// Expected next stream offset.
        expected: u64,
        /// Offset actually transmitted.
        actual: u64,
    },
    /// The receive cursors regressed or crossed (`read_pos > rcv_nxt`).
    RxCursorBroken {
        /// Which cursor ("rcv_nxt", "read_pos").
        cursor: &'static str,
        /// Previous (or bounding) value.
        prev: u64,
        /// Offending value.
        cur: u64,
    },
    /// A segment the receive buffer classified as duplicate or
    /// out-of-order nevertheless moved `rcv_nxt` — the classification and
    /// the cursor contradict each other.
    RxClassificationBroken {
        /// How the arrival was classified ("duplicate", "out-of-order").
        kind: &'static str,
        /// `rcv_nxt` before the segment was ingested.
        before: u64,
        /// `rcv_nxt` after (different — the violation).
        after: u64,
    },
    /// The delayed-ACK machine believes nothing awaits acknowledgment,
    /// yet the ackdelay ledger still holds bytes — a runtime mode switch
    /// (or other actuation) cleared the pending state without flushing
    /// the ACK, so the peer would wait forever.
    AckDropped {
        /// Bytes stranded in the ackdelay ledger.
        stranded: u64,
    },
    /// A retransmission resent bytes the peer already reported holding in
    /// a SACK block.
    RetransmitSacked {
        /// Start of the retransmitted range.
        offset: u64,
        /// End of the retransmitted range.
        end: u64,
        /// The SACKed range it overlaps, `[start, end)`.
        sacked: (u64, u64),
    },
    /// An arriving SACK block does not lie inside (`una`, highest offset
    /// sent]: the peer claims data at or below the cumulative ACK, or data
    /// never sent.
    SackOutOfWindow {
        /// Block start (stream offset).
        left: u64,
        /// Block end (stream offset).
        right: u64,
        /// The sender's first unacked offset.
        una: u64,
        /// One past the highest offset sent.
        high: u64,
    },
    /// The sender holds unsent data with nothing in flight, an open
    /// window, and no transmit or cork timer armed — no future event can
    /// release it. A batching gate (e.g. a mis-actuated cork limit) is
    /// starving the connection.
    SenderStarved {
        /// Whether the persist/RTO timer was armed.
        tx_timer_armed: bool,
        /// Whether the auto-cork safety timer was armed.
        cork_timer_armed: bool,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::ConservationBroken {
                queue,
                entered,
                left,
                reported_size,
            } => write!(
                f,
                "{queue}: conservation broken: entered {entered} − left {left} ≠ reported size {reported_size}"
            ),
            InvariantViolation::NegativeBalance {
                queue,
                entered,
                left,
            } => write!(
                f,
                "{queue}: negative balance: left {left} exceeds entered {entered}"
            ),
            InvariantViolation::MonotonicityBroken {
                queue,
                field,
                prev,
                cur,
            } => write!(
                f,
                "{queue}: {field} went backwards: {prev} → {cur}"
            ),
            InvariantViolation::TxDiscontinuity { expected, actual } => write!(
                f,
                "tx stream discontinuity: expected offset {expected}, transmitted {actual}"
            ),
            InvariantViolation::RxCursorBroken { cursor, prev, cur } => write!(
                f,
                "rx cursor {cursor} broken: {prev} → {cur}"
            ),
            InvariantViolation::RxClassificationBroken { kind, before, after } => write!(
                f,
                "{kind} arrival moved rcv_nxt: {before} → {after}"
            ),
            InvariantViolation::RetransmitSacked { offset, end, sacked } => write!(
                f,
                "retransmission [{offset}, {end}) overlaps SACKed range [{}, {})",
                sacked.0, sacked.1
            ),
            InvariantViolation::SackOutOfWindow { left, right, una, high } => write!(
                f,
                "SACK block [{left}, {right}) outside (una {una}, high {high}]"
            ),
            InvariantViolation::AckDropped { stranded } => write!(
                f,
                "delack reports nothing pending but {stranded} bytes are stranded in the ackdelay ledger"
            ),
            InvariantViolation::SenderStarved {
                tx_timer_armed,
                cork_timer_armed,
            } => write!(
                f,
                "sender starved: unsent data, nothing in flight, open window, no timer (tx_timer_armed={tx_timer_armed}, cork_timer_armed={cork_timer_armed})"
            ),
        }
    }
}

/// Debug-assert wrapper: panics with the violation message in builds with
/// debug assertions (tests, dev), does nothing in release.
#[inline]
#[expect(
    clippy::panic,
    reason = "the invariant gate: failing loudly is its job"
)]
pub fn gate(result: Result<(), InvariantViolation>) {
    if cfg!(debug_assertions) {
        if let Err(v) = result {
            panic!("queue invariant violated: {v}");
        }
    }
}

/// An independent double-entry ledger for one queue, in one unit.
///
/// The socket books every enter/leave into the ledger *and* into the
/// instrumented queue through separate code paths; `QueueLedger::check`
/// then cross-validates the two. A bug that forgets one side (e.g. acking
/// bytes out of `unacked` without tracking the departure) breaks the
/// balance and fires the gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueLedger {
    entered: u64,
    left: u64,
}

impl QueueLedger {
    /// Books `n` units entering the queue.
    pub(crate) fn enter(&mut self, n: u64) {
        self.entered += n;
    }

    /// Books `n` units leaving the queue.
    pub(crate) fn leave(&mut self, n: u64) {
        self.left += n;
    }

    /// Cumulative units entered.
    pub fn entered(&self) -> u64 {
        self.entered
    }

    /// Cumulative units left.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// Net occupancy implied by the ledger (`entered − left`), or a
    /// [`InvariantViolation::NegativeBalance`] if departures outran
    /// arrivals.
    pub(crate) fn balance(&self, queue: &'static str) -> Result<u64, InvariantViolation> {
        self.entered
            .checked_sub(self.left)
            .ok_or(InvariantViolation::NegativeBalance {
                queue,
                entered: self.entered,
                left: self.left,
            })
    }

    /// Conservation gate: the ledger balance must equal the occupancy the
    /// instrumented queue reports.
    pub(crate) fn check(
        &self,
        queue: &'static str,
        reported_size: i64,
    ) -> Result<(), InvariantViolation> {
        let balance = self.balance(queue)?;
        if reported_size < 0 || balance != reported_size as u64 {
            return Err(InvariantViolation::ConservationBroken {
                queue,
                entered: self.entered,
                left: self.left,
                reported_size,
            });
        }
        Ok(())
    }
}

/// Monotonicity gate for one queue's byte-unit snapshots: time, `total`,
/// and `integral` must all be non-decreasing between checks.
pub(crate) fn check_snapshot_monotone(
    queue: &'static str,
    prev: &Snapshot,
    cur: &Snapshot,
) -> Result<(), InvariantViolation> {
    if cur.time < prev.time {
        return Err(InvariantViolation::MonotonicityBroken {
            queue,
            field: "time",
            prev: prev.time.as_nanos() as u128,
            cur: cur.time.as_nanos() as u128,
        });
    }
    if cur.total < prev.total {
        return Err(InvariantViolation::MonotonicityBroken {
            queue,
            field: "total",
            prev: prev.total as u128,
            cur: cur.total as u128,
        });
    }
    if cur.integral < prev.integral {
        return Err(InvariantViolation::MonotonicityBroken {
            queue,
            field: "integral",
            prev: prev.integral,
            cur: cur.integral,
        });
    }
    Ok(())
}

/// The full per-socket invariant state: one ledger per monitored queue
/// (byte units), the last verified snapshots for monotonicity, and the
/// stream-continuity cursors.
#[derive(Debug, Clone, Default)]
pub struct SocketInvariants {
    /// Ledger for the sent-but-unacked queue (bytes).
    pub unacked: QueueLedger,
    /// Ledger for the received-but-unread queue (bytes).
    pub unread: QueueLedger,
    /// Ledger for the delayed-ACK queue (bytes).
    pub(crate) ackdelay: QueueLedger,
    last_snapshots: Option<[Snapshot; 3]>,
    next_tx_offset: u64,
    last_rcv_nxt: u64,
    last_read_pos: u64,
    rx_out_of_order: u64,
    rx_duplicates: u64,
    sack_blocks: u64,
}

impl SocketInvariants {
    /// Fresh invariant state for a new socket.
    pub(crate) fn new() -> Self {
        SocketInvariants::default()
    }

    /// Classification gate for one data-segment arrival, fed by the
    /// receive buffer's verdict. A *duplicate* (entirely at or below
    /// `rcv_nxt`) and an *out-of-order* arrival (entirely above it) must
    /// both leave `rcv_nxt` where it was; only in-order or straddling
    /// data may advance it. Also tallies the impaired arrivals so fault
    /// runs can prove these gates actually saw reordered/duplicated
    /// traffic (non-vacuousness).
    pub(crate) fn on_rx_segment(
        &mut self,
        out_of_order: bool,
        duplicate: bool,
        rcv_nxt_before: u64,
        rcv_nxt_after: u64,
    ) -> Result<(), InvariantViolation> {
        if out_of_order {
            self.rx_out_of_order += 1;
        }
        if duplicate {
            self.rx_duplicates += 1;
        }
        if (out_of_order || duplicate) && rcv_nxt_after != rcv_nxt_before {
            return Err(InvariantViolation::RxClassificationBroken {
                kind: if duplicate {
                    "duplicate"
                } else {
                    "out-of-order"
                },
                before: rcv_nxt_before,
                after: rcv_nxt_after,
            });
        }
        Ok(())
    }

    /// Out-of-order data arrivals classified so far.
    pub fn rx_out_of_order(&self) -> u64 {
        self.rx_out_of_order
    }

    /// Duplicate data arrivals classified so far.
    pub fn rx_duplicates(&self) -> u64 {
        self.rx_duplicates
    }

    /// Continuity gate for freshly transmitted data: a non-retransmitted
    /// chunk must start exactly at the end of the previous one.
    pub(crate) fn on_transmit(
        &mut self,
        offset: u64,
        len: usize,
        retransmit: bool,
    ) -> Result<(), InvariantViolation> {
        if retransmit {
            // Retransmissions replay old offsets; they only may not run
            // past the continuity point.
            if offset + len as u64 > self.next_tx_offset {
                return Err(InvariantViolation::TxDiscontinuity {
                    expected: self.next_tx_offset,
                    actual: offset + len as u64,
                });
            }
            return Ok(());
        }
        if offset != self.next_tx_offset {
            return Err(InvariantViolation::TxDiscontinuity {
                expected: self.next_tx_offset,
                actual: offset,
            });
        }
        self.next_tx_offset = offset + len as u64;
        Ok(())
    }

    /// SACK gate for a retransmission: it must not resend a range the peer
    /// already reported holding (`sacked`, the overlapped SACKed range).
    pub(crate) fn on_retransmit(
        &mut self,
        offset: u64,
        len: usize,
        sacked: Option<(u64, u64)>,
    ) -> Result<(), InvariantViolation> {
        match sacked {
            Some(sacked) => {
                let end = offset + len as u64;
                Err(InvariantViolation::RetransmitSacked {
                    offset,
                    end,
                    sacked,
                })
            }
            None => Ok(()),
        }
    }

    /// SACK gate for one arriving block `[left, right)`: it must lie inside
    /// (`una`, `high`], with `high` one past the highest offset sent. Also
    /// tallies the blocks so fault runs can prove the gate saw some.
    pub(crate) fn on_sack_block(
        &mut self,
        left: u64,
        right: u64,
        una: u64,
        high: u64,
    ) -> Result<(), InvariantViolation> {
        self.sack_blocks += 1;
        if left <= una || right > high || left >= right {
            return Err(InvariantViolation::SackOutOfWindow {
                left,
                right,
                una,
                high,
            });
        }
        Ok(())
    }

    /// SACK blocks checked so far.
    pub fn sack_blocks(&self) -> u64 {
        self.sack_blocks
    }

    /// Runs every stateful gate against the socket's instrumented queues
    /// and receive cursors at `now`.
    ///
    /// Checks conservation for all three queues, snapshot monotonicity
    /// against the previous call, and receive-cursor sanity. Updates the
    /// remembered snapshots on success.
    pub(crate) fn verify(
        &mut self,
        queues: &SocketQueues,
        rcv_nxt: u64,
        read_pos: u64,
        now: Nanos,
    ) -> Result<(), InvariantViolation> {
        self.unacked
            .check("unacked", queues.unacked.size(Unit::Bytes))?;
        self.unread
            .check("unread", queues.unread.size(Unit::Bytes))?;
        self.ackdelay
            .check("ackdelay", queues.ackdelay.size(Unit::Bytes))?;

        let cur = [
            queues.unacked.peek(now, Unit::Bytes),
            queues.unread.peek(now, Unit::Bytes),
            queues.ackdelay.peek(now, Unit::Bytes),
        ];
        if let Some(prev) = &self.last_snapshots {
            for (name, (p, c)) in ["unacked", "unread", "ackdelay"]
                .into_iter()
                .zip(prev.iter().zip(cur.iter()))
            {
                check_snapshot_monotone(name, p, c)?;
            }
        }
        self.last_snapshots = Some(cur);

        if rcv_nxt < self.last_rcv_nxt {
            return Err(InvariantViolation::RxCursorBroken {
                cursor: "rcv_nxt",
                prev: self.last_rcv_nxt,
                cur: rcv_nxt,
            });
        }
        if read_pos < self.last_read_pos || read_pos > rcv_nxt {
            return Err(InvariantViolation::RxCursorBroken {
                cursor: "read_pos",
                prev: self.last_read_pos.max(rcv_nxt),
                cur: read_pos,
            });
        }
        self.last_rcv_nxt = rcv_nxt;
        self.last_read_pos = read_pos;
        Ok(())
    }

    /// Mis-actuation gate: cross-checks the knob actuation path against
    /// the ledgers after each event.
    ///
    /// * A delayed-ACK mode switch must never strand a pending ACK: when
    ///   the delack machine reports nothing pending, the ackdelay ledger
    ///   must be empty ([`InvariantViolation::AckDropped`]).
    /// * No batching gate may starve the sender: unsent data with
    ///   nothing in flight, an open window, and no timer armed has no
    ///   future event to release it
    ///   ([`InvariantViolation::SenderStarved`]).
    pub(crate) fn verify_actuation(
        &self,
        state: &ActuationState,
    ) -> Result<(), InvariantViolation> {
        if !state.ack_pending {
            let stranded = self.ackdelay.balance("ackdelay")?;
            if stranded != 0 {
                return Err(InvariantViolation::AckDropped { stranded });
            }
        }
        if state.established
            && state.has_unsent
            && !state.in_flight
            && state.window_open
            && !state.tx_timer_armed
            && !state.cork_timer_armed
        {
            return Err(InvariantViolation::SenderStarved {
                tx_timer_armed: state.tx_timer_armed,
                cork_timer_armed: state.cork_timer_armed,
            });
        }
        Ok(())
    }
}

/// The transmit-path and delack facts the mis-actuation gate
/// ([`SocketInvariants::verify_actuation`]) cross-checks, captured by the
/// socket after each event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActuationState {
    /// Whether the delack machine believes data awaits acknowledgment.
    pub(crate) ack_pending: bool,
    /// Whether the send buffer holds unsent bytes.
    pub(crate) has_unsent: bool,
    /// Whether any sent bytes are unacknowledged.
    pub(crate) in_flight: bool,
    /// Whether the RTO/persist timer is armed.
    pub(crate) tx_timer_armed: bool,
    /// Whether the auto-cork safety timer is armed.
    pub(crate) cork_timer_armed: bool,
    /// Whether the effective send window admits at least one MSS.
    pub(crate) window_open: bool,
    /// Whether the connection is in `Established`.
    pub(crate) established: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::SocketQueues;

    #[test]
    fn balanced_ledger_passes() {
        let mut l = QueueLedger::default();
        l.enter(100);
        l.leave(40);
        assert_eq!(l.check("unacked", 60), Ok(()));
    }

    #[test]
    fn imbalanced_ledger_fires() {
        let mut l = QueueLedger::default();
        l.enter(100);
        l.leave(40);
        assert!(matches!(
            l.check("unacked", 61),
            Err(InvariantViolation::ConservationBroken { .. })
        ));
    }

    #[test]
    fn overdrawn_ledger_fires() {
        let mut l = QueueLedger::default();
        l.enter(10);
        l.leave(11);
        assert!(matches!(
            l.check("unread", -1),
            Err(InvariantViolation::NegativeBalance { .. })
        ));
    }

    #[test]
    fn snapshot_regression_fires() {
        let a = Snapshot {
            time: Nanos::from_micros(10),
            total: 5,
            integral: 100,
        };
        let mut b = a;
        b.total = 4;
        b.time = Nanos::from_micros(11);
        assert!(matches!(
            check_snapshot_monotone("unacked", &a, &b),
            Err(InvariantViolation::MonotonicityBroken { field: "total", .. })
        ));
        let mut c = a;
        c.time = Nanos::from_micros(9);
        assert!(matches!(
            check_snapshot_monotone("unacked", &a, &c),
            Err(InvariantViolation::MonotonicityBroken { field: "time", .. })
        ));
    }

    #[test]
    fn tx_continuity_tracks_stream() {
        let mut inv = SocketInvariants::new();
        assert_eq!(inv.on_transmit(0, 100, false), Ok(()));
        assert_eq!(inv.on_transmit(100, 50, false), Ok(()));
        // Retransmitting the old range is fine.
        assert_eq!(inv.on_transmit(0, 150, true), Ok(()));
        // Skipping ahead is not.
        assert!(matches!(
            inv.on_transmit(200, 10, false),
            Err(InvariantViolation::TxDiscontinuity { .. })
        ));
    }

    #[test]
    fn sack_gates_fire_on_out_of_window_blocks_and_sacked_resends() {
        let mut inv = SocketInvariants::new();
        assert_eq!(inv.on_sack_block(200, 300, 100, 300), Ok(()));
        for (left, right) in [(100, 200), (50, 150), (200, 301), (250, 250)] {
            assert!(matches!(
                inv.on_sack_block(left, right, 100, 300),
                Err(InvariantViolation::SackOutOfWindow { .. })
            ));
        }
        assert_eq!(inv.sack_blocks(), 5);
        assert_eq!(inv.on_retransmit(100, 100, None), Ok(()));
        assert!(matches!(
            inv.on_retransmit(100, 150, Some((200, 300))),
            Err(InvariantViolation::RetransmitSacked {
                offset: 100,
                end: 250,
                ..
            })
        ));
    }

    #[test]
    fn rx_classification_counts_and_gates() {
        let mut inv = SocketInvariants::new();
        // In-order arrival advances rcv_nxt: fine, no tallies.
        assert_eq!(inv.on_rx_segment(false, false, 0, 100), Ok(()));
        // Out-of-order stash: rcv_nxt holds.
        assert_eq!(inv.on_rx_segment(true, false, 100, 100), Ok(()));
        // Duplicate: rcv_nxt holds.
        assert_eq!(inv.on_rx_segment(false, true, 100, 100), Ok(()));
        assert_eq!(inv.rx_out_of_order(), 1);
        assert_eq!(inv.rx_duplicates(), 1);
        // A "duplicate" that moved the cursor is a contradiction.
        assert!(matches!(
            inv.on_rx_segment(false, true, 100, 200),
            Err(InvariantViolation::RxClassificationBroken {
                kind: "duplicate",
                ..
            })
        ));
        assert!(matches!(
            inv.on_rx_segment(true, false, 100, 200),
            Err(InvariantViolation::RxClassificationBroken {
                kind: "out-of-order",
                ..
            })
        ));
    }

    #[test]
    fn verify_passes_on_consistent_socket_state() {
        let now = Nanos::from_micros(5);
        let mut queues = SocketQueues::new(Nanos::ZERO);
        queues.unacked.track(Nanos::ZERO, 100, 0);
        let mut inv = SocketInvariants::new();
        inv.unacked.enter(100);
        assert_eq!(inv.verify(&queues, 0, 0, now), Ok(()));
    }

    #[test]
    fn verify_catches_corrupted_queue() {
        // The ledger saw 100 bytes enter, but the instrumented queue was
        // (incorrectly) told only 90: the conservation gate fires.
        let now = Nanos::from_micros(5);
        let mut queues = SocketQueues::new(Nanos::ZERO);
        queues.unacked.track(Nanos::ZERO, 90, 0);
        let mut inv = SocketInvariants::new();
        inv.unacked.enter(100);
        assert!(matches!(
            inv.verify(&queues, 0, 0, now),
            Err(InvariantViolation::ConservationBroken { .. })
        ));
    }

    fn settled_actuation() -> ActuationState {
        ActuationState {
            ack_pending: false,
            has_unsent: false,
            in_flight: false,
            tx_timer_armed: false,
            cork_timer_armed: false,
            window_open: true,
            established: true,
        }
    }

    #[test]
    fn stranded_ackdelay_without_pending_fires() {
        let mut inv = SocketInvariants::new();
        inv.ackdelay.enter(100);
        assert!(matches!(
            inv.verify_actuation(&settled_actuation()),
            Err(InvariantViolation::AckDropped { stranded: 100 })
        ));
        // With the delack machine still reporting pending data, the same
        // ledger state is fine (an ACK is on its way).
        let pending = ActuationState {
            ack_pending: true,
            ..settled_actuation()
        };
        assert_eq!(inv.verify_actuation(&pending), Ok(()));
        inv.ackdelay.leave(100);
        assert_eq!(inv.verify_actuation(&settled_actuation()), Ok(()));
    }

    #[test]
    fn starved_sender_fires_only_without_any_release_path() {
        let inv = SocketInvariants::new();
        let starved = ActuationState {
            has_unsent: true,
            ..settled_actuation()
        };
        assert!(matches!(
            inv.verify_actuation(&starved),
            Err(InvariantViolation::SenderStarved { .. })
        ));
        // Any pending release path — in-flight data (an ACK will repoll),
        // an armed timer, or a closed window (peer will update) — clears it.
        for fixed in [
            ActuationState {
                in_flight: true,
                ..starved
            },
            ActuationState {
                tx_timer_armed: true,
                ..starved
            },
            ActuationState {
                cork_timer_armed: true,
                ..starved
            },
            ActuationState {
                window_open: false,
                ..starved
            },
            ActuationState {
                established: false,
                ..starved
            },
        ] {
            assert_eq!(inv.verify_actuation(&fixed), Ok(()));
        }
    }

    #[test]
    fn gate_panics_on_violation_in_debug() {
        let result = std::panic::catch_unwind(|| {
            gate(Err(InvariantViolation::TxDiscontinuity {
                expected: 1,
                actual: 2,
            }));
        });
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "gate must panic under debug assertions");
        } else {
            assert!(result.is_ok());
        }
    }
}
