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
//! Every queue is tracked simultaneously in two message units — bytes and
//! application messages (send-call boundaries) — so the estimator can
//! compare the semantic-gap bridging strategies of §3.3 without rerunning
//! an experiment. The paper's third candidate, wire packets, keeps its
//! [`Unit::Packets`] name and index only so a caller that asks for it
//! (the benchmark adapter builds a packet recorder) reads a well-formed
//! empty queue: nothing counts packets, and a socket configured to
//! exchange them is rejected when it is opened.

use littles::wire::{EndpointSnapshots, WireExchange, WireScale};
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
    /// limited". Not counted: a queue reads empty in it.
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
    pub(crate) const fn index(self) -> usize {
        match self {
            Unit::Bytes => 0,
            Unit::Packets => 1,
            Unit::Messages => 2,
        }
    }
}

/// What a read in [`Unit::Packets`] sees: a queue nothing ever entered.
/// Its snapshot at any `now` is `(now, 0, 0)`, as a fresh one's would be.
static UNCOUNTED: QueueState = QueueState::new(Nanos::ZERO);

/// One logical queue tracked in bytes and messages at once.
#[derive(Debug, Clone)]
pub struct InstrumentedQueue {
    bytes: QueueState,
    messages: QueueState,
}

impl InstrumentedQueue {
    /// Creates an empty instrumented queue anchored at `now`.
    pub(crate) fn new(now: Nanos) -> Self {
        InstrumentedQueue {
            bytes: QueueState::new(now),
            messages: QueueState::new(now),
        }
    }

    /// Records `bytes` and `messages` (whole application messages)
    /// entering (`> 0`) or leaving (`< 0`); a zero count leaves its unit
    /// untouched.
    pub fn track(&mut self, now: Nanos, bytes: i64, messages: i64) {
        if bytes != 0 {
            self.bytes.track(now, bytes);
        }
        if messages != 0 {
            self.messages.track(now, messages);
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
            Unit::Messages => &self.messages,
            Unit::Packets => &UNCOUNTED,
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
    pub(crate) fn new(now: Nanos) -> Self {
        SocketQueues {
            unacked: InstrumentedQueue::new(now),
            unread: InstrumentedQueue::new(now),
            ackdelay: InstrumentedQueue::new(now),
        }
    }

    /// Full-resolution snapshots of the three queues in one unit.
    pub(crate) fn snapshots(&self, now: Nanos, unit: Unit) -> EndpointSnapshots {
        EndpointSnapshots {
            unacked: self.unacked.peek(now, unit),
            unread: self.unread.peek(now, unit),
            ackdelay: self.ackdelay.peek(now, unit),
        }
    }

    /// The 36-byte wire exchange for one unit (what rides the TCP option).
    pub(crate) fn wire_exchange(&self, now: Nanos, unit: Unit, scale: WireScale) -> WireExchange {
        let s = self.snapshots(now, unit);
        WireExchange::pack(&s.unacked, &s.unread, &s.ackdelay, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_independent() {
        let mut q = InstrumentedQueue::new(Nanos::ZERO);
        q.track(Nanos::ZERO, 1000, 0);
        assert_eq!((q.size(Unit::Bytes), q.size(Unit::Messages)), (1000, 0));
        q.track(Nanos::from_micros(1), 0, 2);
        assert_eq!((q.size(Unit::Bytes), q.size(Unit::Messages)), (1000, 2));
        q.track(Nanos::from_micros(3), -1000, -1);
        assert_eq!((q.size(Unit::Bytes), q.size(Unit::Messages)), (0, 1));
        let now = Nanos::from_micros(4);
        let (bytes, messages) = (q.peek(now, Unit::Bytes), q.peek(now, Unit::Messages));
        assert_eq!((bytes.total, bytes.integral), (1000, 1000 * 3_000));
        assert_eq!((messages.total, messages.integral), (1, 2 * 2_000 + 1_000));
        // Packets are not counted: a well-formed empty queue.
        let packets = q.peek(now, Unit::Packets);
        assert_eq!(
            (q.size(Unit::Packets), packets.total, packets.integral),
            (0, 0, 0)
        );
        assert_eq!(packets.time, now);
    }

    #[test]
    #[should_panic(expected = "the packet unit is not counted")]
    fn a_socket_exchanging_packets_is_rejected_when_opened() {
        let config = crate::TcpConfig {
            exchange: crate::config::ExchangeConfig::single(Unit::Packets),
            ..crate::TcpConfig::default()
        };
        let mut actions = crate::Actions::new();
        crate::TcpSocket::client(crate::FlowId(0), config, Nanos::ZERO, &mut actions);
    }

    #[test]
    fn snapshots_capture_all_three_queues() {
        let mut qs = SocketQueues::new(Nanos::ZERO);
        qs.unacked.track(Nanos::ZERO, 100, 0);
        qs.unread.track(Nanos::ZERO, 200, 0);
        qs.ackdelay.track(Nanos::ZERO, 300, 0);
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
        q.track(Nanos::ZERO, 10, 1);
        q.track(Nanos::from_micros(100), -10, -1);
        // Huge message: 16 KiB, resident 10 µs.
        q.track(Nanos::from_micros(100), 16384, 1);
        q.track(Nanos::from_micros(110), -16384, -1);

        let end = Nanos::from_micros(200);
        let byte_delay = q
            .peek(end, Unit::Bytes)
            .window_since(&s0b)
            .unwrap()
            .rounded_delay()
            .unwrap();
        let msg_delay = q
            .peek(end, Unit::Messages)
            .window_since(&s0m)
            .unwrap()
            .rounded_delay()
            .unwrap();
        // Message-weighted: (100 + 10)/2 = 55 µs. Byte-weighted: dominated
        // by the 16 KiB message ≈ 10 µs.
        assert_eq!(msg_delay, Nanos::from_micros(55));
        assert!(byte_delay < Nanos::from_micros(11));
    }
}
