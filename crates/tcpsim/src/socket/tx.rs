//! The send side of a connection.

use std::collections::VecDeque;

use littles::wire::{WireScale, WireSnapshot};
use littles::{Nanos, Snapshot};

use crate::buffer::{SendBuffer, SendChunk};
use crate::cc::CongestionControl;
use crate::config::{NagleMode, TcpConfig};
use crate::gates::{cork_holds, nagle_allows, CORK_MAX_DELAY};
use crate::invariants::{gate, SocketInvariants};
use crate::knob::KnobSetting;
use crate::payload::Payload;
use crate::queues::{SocketQueues, Unit};
use crate::rtt::RttEstimator;
use crate::segment::{E2eOption, HintOption, OptionSlot, Options, SackOption, Segment};
use crate::seq::unwrap_seq;

use super::tcb::Tcb;
use super::{Action, Actions, SocketStats, TimerKind, TxEnv};

/// RFC 6675's DupThresh: duplicate ACKs that start loss recovery (RFC
/// 5681's three), and the SACK evidence that marks a hole lost — this many
/// SACKed ranges above it, or more than this many less one MSS of SACKed
/// bytes.
const DUP_THRESH: u32 = 3;

/// Largest TSO super-segment handed to the NIC, in bytes.
const TSO_MAX_BYTES: usize = 65_536;

/// A transmitted, not-yet-acknowledged range (for RTT sampling, Karn's
/// rule and the SACK scoreboard).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    offset: u64,
    len: u32,
    sent_at: Nanos,
    /// True once retransmitted (excluded from RTT sampling).
    retransmitted: bool,
    /// The peer reported holding this range in a SACK block.
    sacked: bool,
}

impl InFlight {
    fn end(&self) -> u64 {
        self.offset + u64::from(self.len)
    }

    /// Presumed lost: un-SACKed, below the IsLost boundary, and either
    /// never resent or resent before a range the peer has since SACKed
    /// (the resend was lost too).
    fn lost(&self, loss: Loss) -> bool {
        let resend_lost = !self.retransmitted || self.sent_at < loss.newest_sacked;
        !self.sacked && self.offset < loss.below && resend_lost
    }
}

/// The scoreboard's loss evidence.
#[derive(Debug, Clone, Copy)]
struct Loss {
    /// Every un-SACKed range below this offset is lost (RFC 6675 IsLost).
    below: u64,
    /// The latest send time of a SACKed range.
    newest_sacked: Nanos,
}

/// What an arriving ACK did on the send side, for the owner to book.
#[derive(Default)]
pub(super) struct Acked {
    /// The bytes and messages that left the unacked queue.
    pub(super) freed: [i64; 2],
    /// An unambiguous range gave an RTT sample.
    pub(super) sampled: bool,
    pub(super) fast_retransmit: Option<SendChunk>,
}

/// The send side; the owner reads the fields, only these methods write
/// them. Recovery is SACK-based (RFC 6675). The scoreboard is a `sacked`
/// mark on the in-flight ranges. A hole is lost once three SACKed ranges,
/// or more than two MSS of SACKed bytes, lie above it (IsLost), and a
/// resent hole is lost again once a range sent after it is SACKed. The
/// third duplicate ACK, or a lost hole at the first unacked byte, starts
/// one recovery: the window halves, and each transmit step resends the
/// next lost hole before new data while the congestion window exceeds the
/// pipe (the bytes still in the network) by an MSS. The RTO resends
/// everything unacked from the first unacked byte, stepping over SACKed
/// ranges. SACKed data stays buffered until it is cumulatively acked,
/// because a receiver may renege. Without SACK blocks every rule reduces to
/// RFC 5681: three duplicate ACKs resend the first unacked MSS, and the RTO
/// resends from the first unacked byte.
#[derive(Debug, Clone)]
pub(super) struct Tx {
    pub(super) snd: SendBuffer,
    pub(super) rtt: RttEstimator,
    pub(super) rto_armed: bool,
    /// A tail is held by auto-corking (and the cork timer is armed).
    pub(super) corked: bool,
    /// Transmitted, unacked ranges: sorted by offset and disjoint.
    in_flight: VecDeque<InFlight>,
    /// How many of `in_flight` are SACKed. Zero means an empty scoreboard:
    /// nothing is presumed lost and the pipe is everything in flight.
    sacked: u32,
    /// The peer has sent SACK blocks: the path loses or reorders. From then
    /// on an ACK that frees only resent or SACKed ranges takes its RTT
    /// sample from the timestamp echo, and slow start counts bytes (RFC
    /// 3465), so recovery is not paced by the one stretch ACK per TSO
    /// super-segment. A path that never shows a hole keeps the per-ACK
    /// rules of RFC 5681 and Karn exactly.
    lossy: bool,
    cc: CongestionControl,
    peer_window: usize,
    /// The peer's cumulative ACK as a stream offset (its sequence number
    /// is `Tcb::seq` of it, which arriving ACK fields unwrap against).
    last_ack_offset: u64,
    /// Duplicate ACKs at the current `last_ack_offset`; the third starts
    /// recovery (RFC 5681, RFC 6675).
    dup_ack_count: u32,
    /// The recovery in progress, fast or after an RTO: the highest offset
    /// sent when it began. Data below it is a retransmission (Karn's rule
    /// excludes it from RTT sampling), and no new recovery starts before
    /// the cumulative ACK passes it.
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
            sacked: 0,
            lossy: false,
            cc: CongestionControl::new(config.mss),
            peer_window: 65_535,
            last_ack_offset: 0,
            dup_ack_count: 0,
            recovery_point: None,
            nagle_dynamic_on: false,
            batch_limit: config.batch_limit.map(|b| b as usize),
            cork_override: false,
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
    /// exchange when one is due (at most one per `min_interval`) and the
    /// option slot is free (SACK blocks defer it to the next segment), and
    /// a hint set since the last transmit.
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
        let free = options.slot.is_none();
        if free && cfg.enabled && cfg.units.iter().any(|&u| u) && self.last_exchange_tx.is_none_or(due)
        {
            let mut opt = E2eOption { epoch: tcb.epoch, ..E2eOption::default() };
            for ((unit, on), slot) in Unit::ALL.into_iter().zip(cfg.units).zip(&mut opt.exchanges) {
                if on {
                    let exchange = queues.wire_exchange(now, unit, WireScale::default());
                    *slot = Some(exchange.with_epoch(tcb.epoch));
                }
            }
            options.slot = Some(OptionSlot::E2e(opt));
            self.last_exchange_tx = Some(now);
            stats.exchanges_sent += 1;
        }
        if let Some(snap) = self.hint.take() {
            let snapshot = WireSnapshot::pack(&snap, WireScale::default());
            options.hint = Some(HintOption { snapshot });
        }
    }

    /// Queues one message; returns the bytes accepted.
    pub(super) fn push(&mut self, data: Payload) -> usize {
        let accepted = self.snd.push(data);
        if accepted > 0 {
            self.snd.mark_boundary();
        }
        accepted
    }

    /// The endpoint crashed: nothing more leaves.
    pub(super) fn reset(&mut self) {
        self.rto_armed = false;
        self.corked = false;
    }

    pub(super) fn backoff(&mut self) {
        self.rtt.backoff();
    }

    pub(super) fn arm_rto(&mut self, actions: &mut Actions) {
        actions.push(Action::ArmTimer(TimerKind::Rto, self.rtt.rto()));
        self.rto_armed = true;
    }

    pub(super) fn disarm_rto(&mut self, actions: &mut Actions) {
        actions.push(Action::CancelTimer(TimerKind::Rto));
        self.rto_armed = false;
    }

    /// One step of the transmit path: the next chunk the window and the
    /// batching gates let out, and whether it is a retransmission. During
    /// recovery a lost hole goes first, ahead of every batching gate.
    /// `None` once a gate holds or nothing is left.
    pub(super) fn next_chunk(
        &mut self,
        now: Nanos,
        config: &TcpConfig,
        env: TxEnv,
        stats: &mut SocketStats,
        actions: &mut Actions,
    ) -> Option<(SendChunk, bool)> {
        let mss = config.mss;
        let tso_limit = if config.tso.enabled { TSO_MAX_BYTES } else { mss };
        let pipe = self.pipe(mss);
        let cwnd_room = self.cc.cwnd().saturating_sub(pipe);
        if self.sacked > 0 {
            self.skip_sacked();
            let (loss, una) = (self.loss(mss), self.snd.una());
            // A range may end at `una`: acked, but not popped until the
            // next cumulative ACK.
            if let Some(hole) = self.in_flight.iter().position(|f| f.end() > una && f.lost(loss)) {
                // RFC 6675 NextSeg rule 1: resend the first lost range not
                // yet resent while the window has an MSS of room beyond
                // the pipe.
                if cwnd_room < mss {
                    return None;
                }
                let max = tso_limit.min(cwnd_room - cwnd_room % mss);
                stats.fast_retransmits += 1;
                return Some((self.resend(now, hole, max, loss), true));
            }
        }
        let unsent = self.snd.unsent();
        if unsent == 0 {
            return None;
        }
        let in_flight = self.snd.in_flight();
        // Gradual batch limit (§5): accumulate until `limit` bytes are
        // queued, unless nothing is in flight (progress guarantee — an ACK
        // is guaranteed to re-run this path otherwise).
        if self.batch_limit.is_some_and(|limit| unsent < limit) && in_flight > 0 {
            stats.batch_limit_holds += 1;
            return None;
        }
        // The congestion window bounds the pipe; the peer's window bounds
        // everything past the first unacked byte.
        let room = cwnd_room.min(self.peer_window.max(1).saturating_sub(in_flight));
        if room == 0 {
            return None;
        }
        let sendable = unsent.min(room);
        if sendable < mss && sendable < unsent {
            // Window-limited sub-MSS send: wait for the window to open
            // (silly-window avoidance).
            return None;
        }
        let mut len = sendable.min(tso_limit);
        if len >= mss {
            // Send only whole MSS multiples; a sub-MSS tail is decided
            // separately by the batching gates on the next step.
            len -= len % mss;
            // TSO deferral (Linux tcp_tso_should_defer): window-limited
            // with more data queued and ACKs in flight — hold a short
            // chunk so the train can fill toward the TSO maximum. Not in
            // recovery: the ACK it waits for may never come.
            if config.tso.enabled
                && self.recovery_point.is_none()
                && sendable < unsent
                && in_flight > 0
                && len < tso_limit.min(self.window() / 2).max(mss)
            {
                return None;
            }
        } else {
            // A partial tail: Nagle, then auto-cork, may hold it.
            if !nagle_allows(self.nagle_active(config.nagle), len, mss, in_flight) {
                stats.nagle_holds += 1;
                return None;
            }
            if !self.cork_override && cork_holds(&config.cork, len, mss, env.nic_in_flight) {
                stats.cork_holds += 1;
                if !self.corked {
                    self.corked = true;
                    actions.push(Action::ArmTimer(TimerKind::Cork, CORK_MAX_DELAY));
                }
                return None;
            }
        }
        // A segment is either entirely a retransmission (it ends at or
        // before the recovery point) or entirely new data — never a merge
        // of the two — and an RTO resend stops short of a SACKed range.
        // Split there; the remainder goes through the gates again on the
        // next step.
        let nxt = self.snd.nxt();
        if let Some(rp) = self.recovery_point.filter(|&rp| nxt < rp) {
            let sacked = self.in_flight.iter().find(|f| f.sacked && f.offset > nxt);
            let stop = sacked.map_or(rp, |f| f.offset.min(rp));
            len = len.min((stop - nxt) as usize);
        }
        let chunk = self.snd.take_chunk(len)?;
        self.corked = false;
        let retransmit = self.recovery_point.is_some_and(|rp| chunk.offset < rp);
        Some((chunk, retransmit))
    }

    /// RFC 6675's SetPipe: the bytes still in the network — every
    /// un-SACKed range not presumed lost. With an empty scoreboard nothing
    /// is lost, and that is everything in flight.
    fn pipe(&self, mss: usize) -> usize {
        if self.sacked == 0 {
            return self.snd.in_flight();
        }
        let (loss, una) = (self.loss(mss), self.snd.una());
        let counted = |f: &&InFlight| !f.sacked && !f.lost(loss);
        let unacked = |f: &InFlight| f.end().saturating_sub(f.offset.max(una)) as usize;
        self.in_flight.iter().filter(counted).map(unacked).sum()
    }

    /// The scoreboard's loss evidence. RFC 6675's IsLost: the offset below
    /// which every un-SACKed range is lost, because at least `DUP_THRESH`
    /// SACKed ranges or more than `DUP_THRESH − 1` MSS of SACKed bytes lie
    /// above it. The byte rule is what catches a dropped TSO super-segment:
    /// the next flight's first SACK already covers many MSS above the hole.
    /// And the latest send time of a SACKed range, against which a resend
    /// is lost too.
    fn loss(&self, mss: usize) -> Loss {
        let (mut ranges, mut bytes) = (0, 0);
        let mut loss = Loss { below: 0, newest_sacked: Nanos::ZERO };
        let byte_rule = u64::from(DUP_THRESH - 1) * mss as u64;
        for f in self.in_flight.iter().rev() {
            if f.sacked {
                ranges += 1;
                bytes += u64::from(f.len);
                loss.newest_sacked = loss.newest_sacked.max(f.sent_at);
            } else if loss.below == 0 && (ranges >= DUP_THRESH || bytes > byte_rule) {
                loss.below = f.end();
            }
        }
        loss
    }

    /// Re-reads up to `max` unacked bytes for retransmission: the range at
    /// `i` and the contiguous ranges after it that `loss` marks lost. Each
    /// is marked resent at `now`; one resent in part is split first, so the
    /// scoreboard marks exactly what went out.
    fn resend(&mut self, now: Nanos, i: usize, max: usize, loss: Loss) -> SendChunk {
        let una = self.snd.una();
        let mut i = i;
        if self.in_flight[i].offset < una {
            // Acked below una but not yet popped: split off the acked part.
            self.split(i, una);
            i += 1;
        }
        let start = self.in_flight[i].offset;
        let limit = start + max as u64;
        let mut end = start;
        for j in i..self.in_flight.len() {
            let f = self.in_flight[j];
            if f.offset != end || end >= limit || (j > i && !f.lost(loss)) {
                break;
            }
            if f.end() > limit {
                self.split(j, limit);
            }
            let resent = &mut self.in_flight[j];
            resent.retransmitted = true;
            resent.sent_at = now;
            end = resent.end();
        }
        self.snd.retransmit_chunk(start, (end - start) as usize)
    }

    /// Splits the range at `i` in two at offset `at`.
    fn split(&mut self, i: usize, at: u64) {
        let head = &mut self.in_flight[i];
        let mut tail = *head;
        let head_len = (at - head.offset) as u32; // inside a u32-long range
        head.len = head_len;
        tail.offset = at;
        tail.len -= head_len;
        self.in_flight.insert(i + 1, tail);
    }

    /// In the RTO resend, steps `nxt` over SACKed ranges it has reached:
    /// only un-SACKed bytes are resent.
    fn skip_sacked(&mut self) {
        let nxt = self.snd.nxt();
        if self.recovery_point.is_none_or(|rp| nxt >= rp) {
            return;
        }
        let first = self.in_flight.partition_point(|f| f.end() <= nxt);
        let mut to = nxt;
        for f in self.in_flight.range(first..) {
            if !f.sacked || f.offset > to {
                break;
            }
            to = f.end();
        }
        self.snd.skip_to(to);
    }

    /// The SACKed range a retransmission of `[offset, offset + len)` would
    /// overlap, if any (the invariant gate's input).
    pub(super) fn sacked_overlap(&self, offset: u64, len: usize) -> Option<(u64, u64)> {
        let end = offset + len as u64;
        let overlaps = |f: &&InFlight| f.sacked && f.offset < end && f.end() > offset;
        self.in_flight.iter().find(overlaps).map(|f| (f.offset, f.end()))
    }

    /// Ends a transmit pass: the cork override lasts one pass.
    pub(super) fn end_pass(&mut self) {
        self.cork_override = false;
    }

    /// Records a transmitted range: a new one for fresh data and the RTO
    /// resend; a hole retransmission finds its ranges already marked.
    pub(super) fn on_sent(&mut self, now: Nanos, chunk: &SendChunk, retx: bool) {
        let (offset, sent_at, retransmitted) = (chunk.offset, now, retx);
        let len = chunk.bytes.len() as u32; // MSS-bounded, far under u32::MAX
        let at = self.in_flight.partition_point(|f| f.offset < offset);
        if self.in_flight.get(at).is_some_and(|f| f.offset == offset) {
            return;
        }
        let range = InFlight { offset, len, sent_at, retransmitted, sacked: false };
        self.in_flight.insert(at, range);
    }

    /// Processes the ACK field, window and SACK blocks of an arriving
    /// segment. Returns what left the unacked queue, and the first
    /// retransmission when this ACK starts recovery.
    pub(super) fn on_ack(
        &mut self,
        now: Nanos,
        seg: &Segment,
        mss: usize,
        stats: &mut SocketStats,
        invariants: &mut SocketInvariants,
        actions: &mut Actions,
    ) -> Acked {
        let prev_peer_window = std::mem::replace(&mut self.peer_window, seg.window as usize);
        let last = self.last_ack_offset;
        let Some(ack_offset) = unwrap_seq(seg.ack, Tcb::seq(last), last) else {
            return Acked::default();
        };
        let sack = seg.options.sack();
        self.lossy |= sack.is_some();
        if ack_offset > last {
            // On a lossy path the timestamp echo stands in for the RTT
            // sample Karn's rule withholds.
            let echo = seg.options.timestamps.filter(|_| self.lossy).map(|ts| ts.tsecr);
            let mut acked = self.advance(now, ack_offset, echo, actions);
            if let Some(sack) = sack {
                self.mark_sacked(sack, invariants);
                acked.fast_retransmit = self.maybe_recover(now, mss, false, stats);
            }
            return acked;
        }
        if ack_offset < last {
            return Acked::default();
        }
        // A duplicate ACK: the receiver is signalling a hole. With SACK
        // blocks, it is one that SACKs new data (RFC 6675); without, the
        // same cumulative point with no data and no window update, while
        // data is outstanding (RFC 5681 §2).
        let duplicate = match sack {
            Some(sack) => self.mark_sacked(sack, invariants) && self.snd.in_flight() > 0,
            None => {
                seg.payload.is_empty()
                    && !seg.flags.syn
                    && seg.window as usize == prev_peer_window
                    && self.snd.in_flight() > 0
            }
        };
        if !duplicate {
            return Acked::default();
        }
        self.dup_ack_count += 1;
        stats.dup_acks += 1;
        let fast_retransmit = self.maybe_recover(now, mss, self.dup_ack_count == DUP_THRESH, stats);
        Acked { fast_retransmit, ..Acked::default() }
    }

    /// Marks the in-flight ranges the SACK blocks cover; true if any was
    /// newly SACKed. Every block is checked to lie inside (`una`, highest
    /// offset sent].
    fn mark_sacked(&mut self, sack: &SackOption, invariants: &mut SocketInvariants) -> bool {
        let last = self.last_ack_offset;
        let high = self.snd.nxt().max(self.recovery_point.unwrap_or(0));
        let mut newly = false;
        for block in sack.blocks() {
            let unwrap = |seq| unwrap_seq(seq, Tcb::seq(last), last).unwrap_or(0);
            let (left, right) = (unwrap(block.left), unwrap(block.right));
            let check = invariants.on_sack_block(left, right, self.snd.una(), high);
            // A block outside the window marks nothing, even where the gate
            // is compiled out.
            let in_window = check.is_ok();
            gate(check);
            if !in_window {
                continue;
            }
            for f in self.in_flight.iter_mut() {
                if !f.sacked && f.offset >= left && f.end() <= right {
                    f.sacked = true;
                    self.sacked += 1;
                    newly = true;
                }
            }
        }
        newly
    }

    /// Starts recovery (RFC 6675 §5) on the third duplicate ACK
    /// (`threshold`) or once the hole at the first unacked byte is lost,
    /// unless one is already under way: halves the window and returns the
    /// first MSS of that hole to resend now. Later holes go out through
    /// the transmit path.
    fn maybe_recover(
        &mut self,
        now: Nanos,
        mss: usize,
        threshold: bool,
        stats: &mut SocketStats,
    ) -> Option<SendChunk> {
        let una = self.snd.una();
        let head_lost = self.sacked > 0 && self.loss(mss).below > una;
        let in_flight = self.snd.in_flight();
        if self.recovery_point.is_some() || in_flight == 0 || !(threshold || head_lost) {
            return None;
        }
        self.cc.on_loss();
        self.recovery_point = Some(self.snd.nxt());
        stats.sack_recoveries += 1;
        stats.fast_retransmits += 1;
        let head = self.in_flight.partition_point(|f| f.end() <= una);
        let everything = Loss { below: u64::MAX, newest_sacked: Nanos::ZERO };
        Some(self.resend(now, head, in_flight.min(mss), everything))
    }

    /// The cumulative ACK moved to `ack_offset`. `echo` is its timestamp
    /// echo, when it may stand in for an RTT sample.
    fn advance(
        &mut self,
        now: Nanos,
        ack_offset: u64,
        echo: Option<u32>,
        actions: &mut Actions,
    ) -> Acked {
        self.dup_ack_count = 0;
        self.last_ack_offset = ack_offset;
        if self.recovery_point.is_some_and(|rp| ack_offset >= rp) {
            self.recovery_point = None;
        }
        let freed = self.snd.on_ack(ack_offset);
        let mut acked = Acked::default();
        if freed.bytes == 0 {
            return acked;
        }
        let mut rtt_sample = None;
        let covered = |f: &InFlight| f.end() <= ack_offset;
        while let Some(f) = self.in_flight.front().copied().filter(covered) {
            self.in_flight.pop_front();
            self.sacked -= u32::from(f.sacked);
            // Karn: a resent range's ACK is ambiguous, and a SACKed one
            // arrived long before this ACK.
            if !f.retransmitted && !f.sacked {
                rtt_sample = Some(now.saturating_sub(f.sent_at));
            }
        }
        if rtt_sample.is_none() {
            // Every range freed was resent or SACKed. The echo names the
            // transmission that drew this ACK (RFC 7323 RTTM, as Linux
            // samples it), so a backed-off RTO collapses on the first ACK
            // of the recovery instead of waiting for a range never resent.
            // `tsval` is the clock mod 2³²: only the wrapping difference
            // means anything.
            let rtt = echo.map(|echo| (now.as_nanos() as u32).wrapping_sub(echo));
            rtt_sample = rtt.filter(|&rtt| rtt < 1 << 31).map(|rtt| Nanos::from_nanos(rtt.into()));
        }
        acked.freed = [freed.bytes as i64, freed.messages as i64];
        if let Some(rtt) = rtt_sample {
            self.rtt.sample(rtt);
            acked.sampled = true;
        }
        self.cc.on_ack(freed.bytes, self.lossy);
        if self.snd.in_flight() == 0 {
            self.disarm_rto(actions);
        } else {
            self.arm_rto(actions);
        }
        acked
    }

    /// The RTO: back off, collapse the window, forget the un-SACKed ranges
    /// and rewind to the first unacked byte; the transmit path resends from
    /// there, stepping over what the peer SACKed.
    pub(super) fn on_rto(&mut self) {
        self.rtt.backoff();
        self.cc.on_rto();
        self.in_flight.retain(|f| f.sacked);
        if self.snd.in_flight() > 0 {
            // A repeated RTO mid-recovery must not shrink the recovery
            // point to the partially-resent nxt, or the tail of the
            // original transmission would be mislabelled as fresh data
            // (breaking Karn's rule and the tx-continuity gate).
            let nxt = self.snd.nxt();
            self.recovery_point = Some(self.recovery_point.map_or(nxt, |rp| rp.max(nxt)));
            self.snd.rewind_to_una();
        }
    }

    /// After an RTO pass the RTO stays armed while data is outstanding. The pass may have emitted nothing (e.g. a closed peer
    /// window gated the retransmission) and so never re-armed it; keep it
    /// alive unconditionally or the connection dies silently. This doubles
    /// as the persist/zero-window-probe timer. (Re-arming after an emit
    /// just re-sets the same deadline.)
    pub(super) fn rearm_rto(&mut self, actions: &mut Actions) {
        if self.snd.unsent() == 0 && self.snd.in_flight() == 0 {
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
