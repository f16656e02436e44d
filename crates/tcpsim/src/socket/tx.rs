//! The send side of a connection.

use std::collections::VecDeque;

use littles::wire::{WireScale, WireSnapshot};
use littles::{Nanos, Snapshot};

use crate::buffer::{SendBuffer, SendChunk};
use crate::cc::CongestionControl;
use crate::config::{NagleMode, TcpConfig};
use crate::gates::{cork_holds, nagle_allows, CORK_MAX_DELAY};
use crate::knob::KnobSetting;
use crate::queues::{SocketQueues, Unit};
use crate::rtt::RttEstimator;
use crate::segment::{E2eOption, HintOption, Options, Segment};
use crate::seq::unwrap_seq;

use super::tcb::Tcb;
use super::{Action, SocketStats, TimerKind, TxEnv};

/// Duplicate ACKs that trigger fast retransmit (RFC 5681's three).
const DUP_ACK_THRESHOLD: u32 = 3;

/// Largest TSO super-segment handed to the NIC, in bytes.
const TSO_MAX_BYTES: usize = 65_536;

/// A transmitted, not-yet-acknowledged range (for RTT sampling, packet
/// accounting, and Karn's rule).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    offset: u64,
    len: u32,
    /// Wire packets this range was sent as.
    wire_packets: u32,
    sent_at: Nanos,
    /// True once retransmitted (excluded from RTT sampling).
    retransmitted: bool,
}

/// What an arriving ACK did on the send side, for the owner to book.
#[derive(Default)]
pub(super) struct Acked {
    /// What left the unacked queue, per [`Unit::index`].
    pub(super) freed: [i64; 3],
    /// An unambiguous range gave an RTT sample.
    pub(super) sampled: bool,
    pub(super) fin_acked: bool,
    pub(super) fast_retransmit: Option<SendChunk>,
}

/// The send side; the owner reads the fields, only these methods write
/// them. Recovery is go-back-N: fast retransmit of the first unacked MSS
/// on the third duplicate ACK, a rewind to the first unacked byte on the
/// RTO.
#[derive(Debug, Clone)]
pub(super) struct Tx {
    pub(super) snd: SendBuffer,
    pub(super) rtt: RttEstimator,
    pub(super) rto_armed: bool,
    /// A tail is held by auto-corking (and the cork timer is armed).
    pub(super) corked: bool,
    in_flight: VecDeque<InFlight>,
    cc: CongestionControl,
    peer_window: usize,
    /// The peer's cumulative ACK as a stream offset (its sequence number
    /// is `Tcb::seq` of it, which arriving ACK fields unwrap against).
    last_ack_offset: u64,
    /// Consecutive duplicate ACKs at the current `last_ack_offset`; the
    /// third triggers fast retransmit (RFC 5681).
    dup_ack_count: u32,
    /// Go-back-N recovery: data below this offset is a retransmission
    /// (Karn's rule excludes it from RTT sampling).
    recovery_point: Option<u64>,
    /// Dynamic-Nagle switch (used only in [`NagleMode::Dynamic`]).
    nagle_dynamic_on: bool,
    /// Gradual batching limit (paper §5, "Better Batching Heuristics"):
    /// when set, a transmission is held while fewer than this many bytes
    /// are queued and earlier data is still in flight. Adjusted at runtime
    /// by an AIMD policy; `None` disables the gate.
    batch_limit: Option<usize>,
    /// The cork timer fired: the next transmit pass ignores the cork.
    cork_override: bool,
    /// FIN bookkeeping.
    fin_wanted: bool,
    fin_sent: bool,
    fin_offset: Option<u64>,
    /// Last time an e2e exchange option was attached.
    last_exchange_tx: Option<Nanos>,
    /// Application hint to forward on the next transmit.
    hint: Option<Snapshot>,
}

impl Tx {
    pub(super) fn new(config: &TcpConfig) -> Self {
        Tx {
            snd: SendBuffer::new(config.sndbuf),
            rtt: RttEstimator::new(config.rto),
            rto_armed: false,
            corked: false,
            in_flight: VecDeque::new(),
            cc: CongestionControl::new(config.mss),
            peer_window: 65_535,
            last_ack_offset: 0,
            dup_ack_count: 0,
            recovery_point: None,
            nagle_dynamic_on: false,
            batch_limit: config.batch_limit.map(|b| b as usize),
            cork_override: false,
            fin_wanted: false,
            fin_sent: false,
            fin_offset: None,
            last_exchange_tx: None,
            hint: None,
        }
    }

    /// The congestion window, capped by the peer's advertised one.
    pub(super) fn window(&self) -> usize {
        self.cc.cwnd().min(self.peer_window.max(1))
    }

    pub(super) fn nagle_active(&self, mode: NagleMode) -> bool {
        mode == NagleMode::On || (mode == NagleMode::Dynamic && self.nagle_dynamic_on)
    }

    /// Moves a send-side knob (the dynamic-Nagle switch or the gradual
    /// batching limit, 0 lifting it); true if it changed.
    pub(super) fn apply(&mut self, setting: KnobSetting) -> bool {
        match setting {
            KnobSetting::Nagle(on) => std::mem::replace(&mut self.nagle_dynamic_on, on) != on,
            KnobSetting::CorkLimit(limit) => {
                let new = if limit == 0 { None } else { Some(limit as usize) };
                std::mem::replace(&mut self.batch_limit, new) != new
            }
            KnobSetting::DelAck(_) => false,
        }
    }

    pub(super) fn set_hint(&mut self, snapshot: Snapshot) {
        self.hint = Some(snapshot);
    }

    /// Attaches what this side shares with the peer: the queue-state
    /// exchange when one is due (at most one per `min_interval`), and a
    /// hint set since the last transmit.
    pub(super) fn attach_exchange(
        &mut self,
        now: Nanos,
        tcb: &Tcb,
        queues: &SocketQueues,
        stats: &mut SocketStats,
        options: &mut Options,
    ) {
        let cfg = tcb.config.exchange;
        let due = |last: Nanos| now.saturating_sub(last) >= cfg.min_interval;
        if cfg.enabled && cfg.units.iter().any(|&u| u) && self.last_exchange_tx.is_none_or(due) {
            let mut opt = E2eOption { epoch: tcb.epoch, ..E2eOption::default() };
            for ((unit, on), slot) in Unit::ALL.into_iter().zip(cfg.units).zip(&mut opt.exchanges) {
                if on {
                    let exchange = queues.wire_exchange(now, unit, WireScale::default());
                    *slot = Some(exchange.with_epoch(tcb.epoch));
                }
            }
            options.e2e = Some(opt);
            self.last_exchange_tx = Some(now);
            stats.exchanges_sent += 1;
        }
        if let Some(snap) = self.hint.take() {
            let snapshot = WireSnapshot::pack(&snap, WireScale::default());
            options.hint = Some(HintOption { snapshot });
            stats.hints_sent += 1;
        }
    }

    /// Queues one message; returns the bytes accepted.
    pub(super) fn push(&mut self, data: &[u8]) -> usize {
        let accepted = self.snd.push(data);
        if accepted > 0 {
            self.snd.mark_boundary();
        }
        accepted
    }

    pub(super) fn want_fin(&mut self) {
        self.fin_wanted = true;
    }

    /// The endpoint crashed: nothing more leaves.
    pub(super) fn reset(&mut self) {
        self.rto_armed = false;
        self.corked = false;
        self.fin_wanted = false;
        self.fin_sent = false;
    }

    pub(super) fn backoff(&mut self) {
        self.rtt.backoff();
    }

    pub(super) fn arm_rto(&mut self, actions: &mut Vec<Action>) {
        actions.push(Action::ArmTimer(TimerKind::Rto, self.rtt.rto()));
        self.rto_armed = true;
    }

    pub(super) fn disarm_rto(&mut self, actions: &mut Vec<Action>) {
        actions.push(Action::CancelTimer(TimerKind::Rto));
        self.rto_armed = false;
    }

    /// One step of the transmit path: the next chunk the window and the
    /// batching gates let out, and whether it is a go-back-N retransmission.
    /// `None` once a gate holds or nothing is left.
    pub(super) fn next_chunk(
        &mut self,
        config: &TcpConfig,
        env: TxEnv,
        stats: &mut SocketStats,
        actions: &mut Vec<Action>,
    ) -> Option<(SendChunk, bool)> {
        let unsent = self.snd.unsent();
        if unsent == 0 {
            return None;
        }
        let in_flight = self.snd.in_flight();
        let closing = self.fin_wanted && !self.fin_sent;
        // Gradual batch limit (§5): accumulate until `limit` bytes are
        // queued, unless nothing is in flight (progress guarantee — an ACK
        // is guaranteed to re-run this path otherwise).
        if self.batch_limit.is_some_and(|limit| unsent < limit) && in_flight > 0 && !closing {
            stats.batch_limit_holds += 1;
            return None;
        }
        let wnd = self.window();
        if in_flight >= wnd {
            return None;
        }
        let sendable = unsent.min(wnd - in_flight);
        let mss = config.mss;
        if sendable < mss && sendable < unsent {
            // Window-limited sub-MSS send: wait for the window to open
            // (silly-window avoidance).
            return None;
        }
        let tso_limit = if config.tso.enabled { TSO_MAX_BYTES } else { mss };
        let mut len = sendable.min(tso_limit);
        if len >= mss {
            // Send only whole MSS multiples; a sub-MSS tail is decided
            // separately by the batching gates on the next step.
            len -= len % mss;
            // TSO deferral (Linux tcp_tso_should_defer): window-limited
            // with more data queued and ACKs in flight — hold a short
            // chunk so the train can fill toward the TSO maximum.
            if config.tso.enabled
                && sendable < unsent
                && in_flight > 0
                && len < tso_limit.min(wnd / 2).max(mss)
            {
                stats.tso_defers += 1;
                return None;
            }
        } else {
            // A partial tail: Nagle, then auto-cork, may hold it.
            let will_fin = closing && len == unsent;
            if !nagle_allows(self.nagle_active(config.nagle), len, mss, in_flight, will_fin) {
                stats.nagle_holds += 1;
                return None;
            }
            if !self.cork_override
                && !will_fin
                && cork_holds(&config.cork, len, mss, env.nic_in_flight)
            {
                stats.cork_holds += 1;
                if !self.corked {
                    self.corked = true;
                    actions.push(Action::ArmTimer(TimerKind::Cork, CORK_MAX_DELAY));
                }
                return None;
            }
        }
        // A segment is either entirely a go-back-N retransmission (it ends
        // at or before the pre-rewind high-water mark) or entirely new data
        // — never a merge of the two. Split at the recovery point; the
        // remainder goes through the gates again on the next step.
        let nxt = self.snd.nxt();
        if let Some(rp) = self.recovery_point.filter(|&rp| nxt < rp) {
            len = len.min((rp - nxt) as usize);
        }
        let chunk = self.snd.take_chunk(len)?;
        self.corked = false;
        let retransmit = self.recovery_point.is_some_and(|rp| chunk.offset < rp);
        Some((chunk, retransmit))
    }

    /// Ends a transmit pass. The cork override lasts one pass; a wanted FIN
    /// goes once everything queued is out — returns its stream offset.
    pub(super) fn end_pass(&mut self) -> Option<u64> {
        self.cork_override = false;
        if !self.fin_wanted || self.fin_sent || self.snd.unsent() > 0 {
            return None;
        }
        self.fin_sent = true;
        self.fin_offset = Some(self.snd.end());
        self.fin_offset
    }

    /// Records a transmitted range.
    pub(super) fn on_sent(&mut self, now: Nanos, chunk: &SendChunk, wire_packets: u32, retx: bool) {
        let (offset, sent_at, retransmitted) = (chunk.offset, now, retx);
        let len = chunk.bytes.len() as u32; // lint:allow(cast-truncation): segment length is MSS-bounded, far under u32::MAX
        self.in_flight.push_back(InFlight { offset, len, wire_packets, sent_at, retransmitted });
    }

    /// Processes the ACK field and window of an arriving segment.
    pub(super) fn on_ack(
        &mut self,
        now: Nanos,
        seg: &Segment,
        mss: usize,
        stats: &mut SocketStats,
        actions: &mut Vec<Action>,
    ) -> Acked {
        let prev_peer_window = std::mem::replace(&mut self.peer_window, seg.window as usize);
        let last = self.last_ack_offset;
        let Some(ack_offset) = unwrap_seq(seg.ack, Tcb::seq(last), last) else {
            return Acked::default();
        };
        if ack_offset > last {
            return self.advance(now, ack_offset, actions);
        }
        // A duplicate ACK: same cumulative point, no data, no window
        // update, while we have data outstanding — the receiver is
        // signalling a hole (RFC 5681 §2).
        let duplicate = ack_offset == last
            && seg.payload.is_empty()
            && !seg.flags.syn
            && !seg.flags.fin
            && seg.window as usize == prev_peer_window
            && self.snd.in_flight() > 0;
        if !duplicate {
            return Acked::default();
        }
        self.dup_ack_count += 1;
        stats.dup_acks += 1;
        if self.dup_ack_count != DUP_ACK_THRESHOLD || self.recovery_point.is_some() {
            return Acked::default();
        }
        // Fast retransmit: resend the first unacked chunk without waiting
        // for the RTO. `on_loss` halves cwnd where an RTO would collapse
        // it to one MSS, so burst loss no longer serializes on timeouts.
        self.cc.on_loss();
        let una = self.snd.una();
        let len = self.snd.in_flight().min(mss);
        let end = una + len as u64;
        for f in self.in_flight.iter_mut().filter(|f| f.offset < end) {
            // Karn: ACKs of this range are ambiguous.
            f.retransmitted = true;
        }
        let chunk = self.snd.retransmit_chunk(una, len);
        self.recovery_point = Some(self.snd.nxt());
        stats.fast_retransmits += 1;
        Acked { fast_retransmit: Some(chunk), ..Acked::default() }
    }

    /// The cumulative ACK moved to `ack_offset`.
    fn advance(&mut self, now: Nanos, ack_offset: u64, actions: &mut Vec<Action>) -> Acked {
        self.dup_ack_count = 0;
        self.last_ack_offset = ack_offset;
        if self.recovery_point.is_some_and(|rp| ack_offset >= rp) {
            self.recovery_point = None;
        }
        let fin_acked = self.fin_offset.is_some_and(|f| ack_offset > f);
        let data_upto = if fin_acked { ack_offset - 1 } else { ack_offset };
        let freed = self.snd.on_ack(data_upto);
        let mut acked = Acked { fin_acked, ..Acked::default() };
        if freed.bytes == 0 {
            return acked;
        }
        let mut packets = 0;
        let mut rtt_sample = None;
        let covered = |f: &InFlight| f.offset + f.len as u64 <= data_upto;
        while let Some(f) = self.in_flight.front().copied().filter(covered) {
            self.in_flight.pop_front();
            packets += i64::from(f.wire_packets);
            if !f.retransmitted {
                rtt_sample = Some(now.saturating_sub(f.sent_at));
            }
        }
        acked.freed = [freed.bytes as i64, packets, freed.messages as i64];
        if let Some(rtt) = rtt_sample {
            self.rtt.sample(rtt);
            acked.sampled = true;
        }
        self.cc.on_ack(freed.bytes);
        if self.snd.in_flight() == 0 && (fin_acked || !self.fin_sent) {
            self.disarm_rto(actions);
        } else {
            self.arm_rto(actions);
        }
        acked
    }

    /// Go-back-N on the RTO: back off, collapse the window, forget what was
    /// in flight and rewind to the first unacked byte. Returns the wire
    /// packets that left the unacked queue with the forgotten ranges.
    pub(super) fn go_back_n(&mut self) -> i64 {
        self.rtt.backoff();
        self.cc.on_rto();
        let stale = self.in_flight.iter().map(|f| i64::from(f.wire_packets)).sum();
        self.in_flight.clear();
        if self.snd.in_flight() > 0 {
            // A repeated RTO mid-recovery must not shrink the recovery
            // point to the partially-replayed nxt, or the tail of the
            // original transmission would be mislabelled as fresh data
            // (breaking Karn's rule and the tx-continuity gate).
            let nxt = self.snd.nxt();
            self.recovery_point = Some(self.recovery_point.map_or(nxt, |rp| rp.max(nxt)));
            self.snd.rewind_to_una();
        }
        if self.fin_sent && self.snd.unsent() == 0 {
            // Retransmit the FIN itself.
            self.fin_sent = false;
        }
        stale
    }

    /// After a go-back-N pass the RTO stays armed while data or the FIN is
    /// outstanding. The pass may have emitted nothing (e.g. a closed peer
    /// window gated the retransmission) and so never re-armed it; keep it
    /// alive unconditionally or the connection dies silently. This doubles
    /// as the persist/zero-window-probe timer. (Re-arming after an emit
    /// just re-sets the same deadline.)
    pub(super) fn rearm_rto(&mut self, actions: &mut Vec<Action>) {
        if self.snd.unsent() == 0 && self.snd.in_flight() == 0 && !self.fin_wanted {
            self.disarm_rto(actions);
        } else {
            self.arm_rto(actions);
        }
    }

    /// Releases a held tail: the NIC ring drained or, with `timer`, the
    /// cork timer fired and the next pass ignores the cork. True if a tail
    /// was held.
    pub(super) fn uncork(&mut self, timer: bool) -> bool {
        self.cork_override |= timer;
        std::mem::replace(&mut self.corked, false)
    }
}
