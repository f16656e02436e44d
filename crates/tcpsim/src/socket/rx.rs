//! The receive side of a connection.

use littles::Nanos;

use crate::buffer::{IngestResult, RecvBuffer};
use crate::config::TcpConfig;
use crate::delack::{AckDecision, AckMode, AckSwitch, DelAck};
use crate::payload::Payload;
use crate::segment::{Options, SackBlock, SackOption, Segment};
use crate::seq::{unwrap_seq, SeqNum};

use super::{Action, Actions, RemoteStore, TimerKind};

/// Segments ACKed at once after an impaired arrival on a lossy connection
/// (Linux's quick-ACK mode, `TCP_MAX_QUICKACKS`): the sender is recovering
/// with a small window and waits on every ACK.
const QUICK_ACKS: u32 = 16;

/// The receive side; the owner reads the fields, only these methods write
/// them.
#[derive(Debug, Clone)]
pub(super) struct Rx {
    pub(super) rcv: RecvBuffer,
    /// The next sequence number expected from the peer: one past its SYN,
    /// advanced with every in-order byte. Every
    /// ACK field carries it, and arriving sequence numbers unwrap against
    /// it paired with `rcv.rcv_nxt()`.
    pub(super) rcv_seq: SeqNum,
    /// Most recent peer timestamp value, echoed back.
    pub(super) ts_recent: u32,
    pub(super) delack: DelAck,
    pub(super) remote: RemoteStore,
    /// Received-but-unacked bytes and messages for the ackdelay queue.
    pending_ack: [i64; 2],
    /// When the last data segment arrived.
    last_data_at: Nanos,
    /// Data has arrived out of order on this connection: it is lossy.
    seen_hole: bool,
    /// Segments still to ACK at once after an impaired arrival.
    quick_acks: u32,
}

impl Rx {
    pub(super) fn new(config: &TcpConfig) -> Self {
        Rx {
            rcv: RecvBuffer::new(config.rcvbuf),
            rcv_seq: SeqNum::new(0),
            ts_recent: 0,
            delack: DelAck::new(config.delack),
            remote: RemoteStore::default(),
            pending_ack: [0; 2],
            last_data_at: Nanos::ZERO,
            seen_hole: false,
            quick_acks: 0,
        }
    }

    /// The peer's SYN: its sequence space starts one past `seq`.
    pub(super) fn on_peer_syn(&mut self, seq: SeqNum) {
        self.rcv_seq = seq + 1;
    }

    /// Takes the peer's timestamp and shared state off an arriving segment,
    /// counting the shares (exchange, hint) it carried.
    pub(super) fn take_options(&mut self, options: &Options) {
        if let Some(ts) = options.timestamps {
            self.ts_recent = ts.tsval;
        }
        if let Some(&e2e) = options.e2e() {
            // The option's epoch tag covers every unit it carries; stamp it
            // onto each stored exchange so downstream consumers (estimator,
            // validator) see the generation.
            for (slot, exchange) in self.remote.exchanges.iter_mut().zip(e2e.exchanges) {
                if let Some(exchange) = exchange {
                    *slot = Some(exchange.with_epoch(e2e.epoch));
                }
            }
        }
        if let Some(hint) = options.hint {
            self.remote.hint = Some(hint.snapshot);
        }
        self.remote.received +=
            u64::from(options.e2e().is_some()) + u64::from(options.hint.is_some());
    }

    /// The SACK blocks every ACK carries while out-of-order data is held
    /// (RFC 2018): the reassembly store's merged ranges, the one holding
    /// the latest arrival first.
    pub(super) fn sack(&self) -> Option<SackOption> {
        let ranges = self.rcv.sack_ranges();
        ranges[0]?;
        let rcv_nxt = self.rcv.rcv_nxt();
        let seq = |offset: u64| self.rcv_seq.advance(offset - rcv_nxt);
        let mut sack = SackOption::default();
        for (start, end) in ranges.into_iter().flatten() {
            sack.push(SackBlock {
                left: seq(start),
                right: seq(end),
            });
        }
        Some(sack)
    }

    /// Reassembles a data segment: the buffer's verdict, `rcv_nxt` before
    /// it, and the bytes and messages that became in order (now awaiting
    /// the application and an ACK). `None` without payload, or for a
    /// sequence number too far behind to place.
    pub(super) fn reassemble(&mut self, seg: &Segment) -> Option<(IngestResult, u64, [i64; 2])> {
        let before = self.rcv.rcv_nxt();
        let offset =
            unwrap_seq(seg.seq, self.rcv_seq, before).filter(|_| !seg.payload.is_empty())?;
        let res = self.rcv.ingest(offset, &seg.payload, &seg.boundaries);
        self.rcv_seq = self.rcv_seq.advance(self.rcv.rcv_nxt() - before);
        let arrived = [res.in_order_bytes as i64, res.in_order_messages as i64];
        for (pending, n) in self.pending_ack.iter_mut().zip(arrived) {
            *pending += n;
        }
        Some((res, before, arrived))
    }

    /// The delayed-ACK verdict on a reassembled data segment: out-of-order
    /// or duplicate data, data filling a gap (RFC 5681 §4.2: the sender is
    /// recovering and waits on this ACK) and window pressure force a quick
    /// ACK.
    pub(super) fn ack_due(
        &mut self,
        now: Nanos,
        rto: Nanos,
        seg: &Segment,
        res: &IngestResult,
        mss: usize,
    ) -> AckSwitch {
        let full_sized = seg.payload.len() >= mss;
        self.seen_hole |= res.out_of_order;
        let gap = now.saturating_sub(std::mem::replace(&mut self.last_data_at, now));
        let idle = self.seen_hole && gap > rto;
        let impaired = res.out_of_order || res.duplicate || res.filled_gap || idle;
        if impaired && self.seen_hole {
            self.quick_acks = QUICK_ACKS;
        }
        let quick = self.quick_acks > 0;
        self.quick_acks = self.quick_acks.saturating_sub(1);
        let force_quick = impaired || quick || self.rcv.window() < mss;
        match self
            .delack
            .on_data(full_sized, seg.wire_packets, force_quick)
        {
            AckDecision::SendNow => AckSwitch::Flush,
            AckDecision::Arm(delay) => AckSwitch::Rearm(delay),
            AckDecision::AlreadyArmed => AckSwitch::Nothing,
        }
    }

    /// Switches the delayed-ACK mode.
    pub(super) fn switch_ack_mode(&mut self, mode: AckMode) -> AckSwitch {
        self.delack.switch_mode(mode)
    }

    /// The delack timer fired; true if an ACK is due.
    pub(super) fn on_delack_timer(&mut self) -> bool {
        self.delack.on_timer()
    }

    /// An ACK covering everything received is leaving, pure or riding data
    /// (`piggyback`, which clears a delayed ACK and its timer): returns the
    /// ackdelay bytes and messages it drains.
    pub(super) fn ack_sent(&mut self, piggyback: bool, actions: &mut Actions) -> [i64; 2] {
        if piggyback && self.delack.on_piggyback() {
            actions.push(Action::CancelTimer(TimerKind::Delack));
        }
        std::mem::take(&mut self.pending_ack)
    }

    /// Reads up to `max` bytes into `out`: the bytes and the whole
    /// messages that left the unread queue.
    pub(super) fn read(&mut self, max: usize, out: &mut impl Extend<Payload>) -> (usize, usize) {
        self.rcv.read(max, out)
    }
}
