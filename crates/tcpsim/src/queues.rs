//! The three instrumented TCP queues (paper §3.2).
//!
//! Each socket maintains Little's-law state for:
//!
//! * **unacked** — data handed to `send` that the peer has not yet
//!   cumulatively acknowledged (the kernel's `sk_wmem_queued` analogue);
//! * **unread** — data the stack has received that the application has not
//!   yet read (`sk_rmem_alloc`);
//! * **ackdelay** — data received whose acknowledgment is still pending
//!   (`rcv_nxt − rcv_wup`).
//!
//! Every queue is tracked simultaneously in three message units — bytes,
//! packets, and application messages (send-call boundaries) — so the
//! estimator can compare the semantic-gap bridging strategies of §3.3
//! without rerunning an experiment.

use littles::wire::{WireExchange, WireScale};
use littles::{Nanos, QueueState, Snapshot};

/// The message unit used to count queue occupancy (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Unit {
    /// Plain bytes — what the paper's Linux prototype used (the queue sizes
    /// already exist as socket byte counters). Accurate only when requests
    /// and responses have similar sizes.
    #[default]
    Bytes,
    /// Wire packets — the paper's second prototype unit, "similarly
    /// limited".
    Packets,
    /// Application messages approximated by `send`-call boundaries, or
    /// provided exactly through the hint API.
    Messages,
}

impl Unit {
    /// All units, for exhaustive sweeps.
    pub const ALL: [Unit; 3] = [Unit::Bytes, Unit::Packets, Unit::Messages];

    /// Stable index (Bytes = 0, Packets = 1, Messages = 2), for arrays
    /// keyed by unit.
    pub const fn index(self) -> usize {
        match self {
            Unit::Bytes => 0,
            Unit::Packets => 1,
            Unit::Messages => 2,
        }
    }
}

/// One logical queue tracked in all three units at once.
#[derive(Debug, Clone)]
pub struct InstrumentedQueue {
    bytes: QueueState,
    packets: QueueState,
    messages: QueueState,
}

impl InstrumentedQueue {
    /// Creates an empty instrumented queue anchored at `now`.
    pub fn new(now: Nanos) -> Self {
        InstrumentedQueue {
            bytes: QueueState::new(now),
            packets: QueueState::new(now),
            messages: QueueState::new(now),
        }
    }

    /// Records `n` of `unit` (bytes, packets or whole application
    /// messages) entering (`n > 0`) or leaving (`n < 0`).
    pub fn track(&mut self, now: Nanos, unit: Unit, n: i64) {
        match unit {
            Unit::Bytes => self.bytes.track(now, n),
            Unit::Packets => self.packets.track(now, n),
            Unit::Messages => self.messages.track(now, n),
        }
    }

    /// Current occupancy in the given unit.
    pub fn size(&self, unit: Unit) -> i64 {
        self.state(unit).size()
    }

    /// Snapshot (without mutation) in the given unit.
    pub fn peek(&self, now: Nanos, unit: Unit) -> Snapshot {
        self.state(unit).peek(now)
    }

    fn state(&self, unit: Unit) -> &QueueState {
        match unit {
            Unit::Bytes => &self.bytes,
            Unit::Packets => &self.packets,
            Unit::Messages => &self.messages,
        }
    }
}

/// The full per-socket queue instrumentation.
#[derive(Debug, Clone)]
pub struct SocketQueues {
    /// Sent-but-unacknowledged queue.
    pub unacked: InstrumentedQueue,
    /// Received-but-unread queue.
    pub unread: InstrumentedQueue,
    /// Received-but-unacknowledged (delayed ACK) queue.
    pub ackdelay: InstrumentedQueue,
}

impl SocketQueues {
    /// Creates empty instrumentation anchored at `now`.
    pub fn new(now: Nanos) -> Self {
        SocketQueues {
            unacked: InstrumentedQueue::new(now),
            unread: InstrumentedQueue::new(now),
            ackdelay: InstrumentedQueue::new(now),
        }
    }

    /// Full-resolution snapshots of the three queues in one unit.
    pub fn snapshots(&self, now: Nanos, unit: Unit) -> QueueSnapshots {
        QueueSnapshots {
            unit,
            at: now,
            unacked: self.unacked.peek(now, unit),
            unread: self.unread.peek(now, unit),
            ackdelay: self.ackdelay.peek(now, unit),
        }
    }

    /// The 36-byte wire exchange for one unit (what rides the TCP option).
    pub fn wire_exchange(&self, now: Nanos, unit: Unit, scale: WireScale) -> WireExchange {
        let s = self.snapshots(now, unit);
        WireExchange::pack(&s.unacked, &s.unread, &s.ackdelay, scale)
    }
}

/// The three full-resolution snapshots of one endpoint at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSnapshots {
    /// The unit the snapshots are counted in.
    pub unit: Unit,
    /// Capture time.
    pub at: Nanos,
    /// Sent-but-unacked queue snapshot.
    pub unacked: Snapshot,
    /// Received-but-unread queue snapshot.
    pub unread: Snapshot,
    /// Delayed-ACK queue snapshot.
    pub ackdelay: Snapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_independent() {
        let mut q = InstrumentedQueue::new(Nanos::ZERO);
        q.track(Nanos::ZERO, Unit::Bytes, 1000);
        q.track(Nanos::ZERO, Unit::Packets, 2);
        q.track(Nanos::ZERO, Unit::Messages, 1);
        assert_eq!(q.size(Unit::Bytes), 1000);
        assert_eq!(q.size(Unit::Packets), 2);
        assert_eq!(q.size(Unit::Messages), 1);
    }

    #[test]
    fn snapshots_capture_all_three_queues() {
        let mut qs = SocketQueues::new(Nanos::ZERO);
        qs.unacked.track(Nanos::ZERO, Unit::Bytes, 100);
        qs.unread.track(Nanos::ZERO, Unit::Bytes, 200);
        qs.ackdelay.track(Nanos::ZERO, Unit::Bytes, 300);
        let t = Nanos::from_micros(10);
        let s = qs.snapshots(t, Unit::Bytes);
        assert_eq!(s.unacked.integral, 100 * 10_000);
        assert_eq!(s.unread.integral, 200 * 10_000);
        assert_eq!(s.ackdelay.integral, 300 * 10_000);
    }

    #[test]
    fn wire_exchange_encodes_36_bytes() {
        let qs = SocketQueues::new(Nanos::ZERO);
        let ex = qs.wire_exchange(Nanos::from_micros(1), Unit::Bytes, WireScale::default());
        assert_eq!(ex.encode().len(), 36);
    }

    #[test]
    fn per_unit_delays_can_differ() {
        // One huge message and one tiny message with different residencies:
        // byte-weighted and message-weighted delays diverge (the Figure 4b
        // effect).
        let mut q = InstrumentedQueue::new(Nanos::ZERO);
        let s0b = q.peek(Nanos::ZERO, Unit::Bytes);
        let s0m = q.peek(Nanos::ZERO, Unit::Messages);

        // Tiny message: 10 bytes, resident 100 µs.
        q.track(Nanos::ZERO, Unit::Bytes, 10);
        q.track(Nanos::ZERO, Unit::Messages, 1);
        q.track(Nanos::from_micros(100), Unit::Bytes, -10);
        q.track(Nanos::from_micros(100), Unit::Messages, -1);
        // Huge message: 16 KiB, resident 10 µs.
        q.track(Nanos::from_micros(100), Unit::Bytes, 16384);
        q.track(Nanos::from_micros(100), Unit::Messages, 1);
        q.track(Nanos::from_micros(110), Unit::Bytes, -16384);
        q.track(Nanos::from_micros(110), Unit::Messages, -1);

        let end = Nanos::from_micros(200);
        let byte_delay = q
            .peek(end, Unit::Bytes)
            .averages_since(&s0b)
            .unwrap()
            .delay
            .unwrap();
        let msg_delay = q
            .peek(end, Unit::Messages)
            .averages_since(&s0m)
            .unwrap()
            .delay
            .unwrap();
        // Message-weighted: (100 + 10)/2 = 55 µs. Byte-weighted: dominated
        // by the 16 KiB message ≈ 10 µs.
        assert_eq!(msg_delay, Nanos::from_micros(55));
        assert!(byte_delay < Nanos::from_micros(11));
    }
}
