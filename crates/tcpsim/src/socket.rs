//! The TCP socket state machine.
//!
//! A [`TcpSocket`] is a pure state machine: its methods mutate socket state
//! and append [`Action`]s — segments to transmit, timers to (re)arm or
//! cancel, application wakeups — that the host layer executes (charging CPU
//! and driving the link). Keeping the socket side-effect-free makes every
//! TCP behaviour unit-testable without a simulator.
//!
//! The transmit path implements the batching mechanisms under study:
//! Nagle's algorithm (including the dynamically toggled mode), auto-corking
//! against the NIC ring, and TSO aggregation. The receive path implements
//! delayed ACKs and feeds the three instrumented queues (*unacked*,
//! *unread*, *ackdelay*) that the paper's end-to-end estimator consumes.

use std::collections::VecDeque;

use crate::payload::Payload;
use littles::wire::{WireExchange, WireScale, WireSnapshot};
use littles::{Nanos, Snapshot};

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::config::{NagleMode, TcpConfig};
use crate::invariants::{gate, ActuationState, SocketInvariants};
use crate::delack::{AckDecision, AckSwitch, DelAck};
use crate::gates::{cork_holds, nagle_allows};
use crate::knob::KnobSetting;
use crate::queues::{QueueSnapshots, SocketQueues, Unit};
use crate::rtt::RttEstimator;
use crate::seq::SeqNum;
use crate::segment::{E2eOption, Flags, FlowId, HintOption, Options, Segment, TimestampOption};
use crate::cc::CongestionControl;

/// Index of a socket within its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

/// Connection state (the subset of RFC 793 this stack uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open received SYN, sent SYN-ACK.
    SynReceived,
    /// Data may flow.
    Established,
    /// We sent FIN, awaiting its ACK.
    FinWait1,
    /// Our FIN is acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// We sent FIN after CloseWait, awaiting its ACK.
    LastAck,
    /// Fully closed.
    Closed,
}

/// Socket timers, armed and cancelled through [`Action`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    Delack,
    /// Auto-cork flush safety valve.
    Cork,
}

impl TimerKind {
    /// Number of timer kinds — the width of dense per-socket timer tables.
    pub const COUNT: usize = 3;
}

/// Why the application is being woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// Active open completed.
    Connected,
    /// Passive open completed (a new connection was accepted).
    Accepted,
    /// In-order data (or EOF) is available to read.
    Readable,
    /// Send-buffer space was freed.
    Writable,
    /// The endpoint process restarted: the socket was torn down with all
    /// of its counter state and the application should re-establish the
    /// connection.
    Reset,
}

/// Side effects requested by the socket, executed by the host.
// Box would shrink the variant, but actions are short-lived and on the
// hot path; the size imbalance is acceptable.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit a segment.
    Transmit(Segment),
    /// Arm (or re-arm) a timer `delay` from now.
    ArmTimer(TimerKind, Nanos),
    /// Cancel a timer if pending.
    CancelTimer(TimerKind),
    /// Wake the application.
    Wake(WakeReason),
}

/// Transmit-path environment the host supplies (state the socket cannot
/// know): the NIC ring occupancy, which auto-corking consults.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxEnv {
    /// Packets handed to the NIC that have not yet been completed.
    pub nic_in_flight: u32,
}

/// A transmitted, not-yet-acknowledged range (for RTT sampling, packet
/// accounting, and Karn's rule).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Stream offset of the first byte.
    offset: u64,
    /// Payload length.
    len: u32,
    /// Wire packets this range was sent as.
    wire_packets: u32,
    /// Transmit time.
    sent_at: Nanos,
    /// True once retransmitted (excluded from RTT sampling).
    retransmitted: bool,
}

/// A two-deep history of peer-shared values: the previous and current
/// exchange, exactly as the paper's §5 describes ("we maintain two states
/// per connection: previous and current").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShareWindow<T> {
    /// The exchange before the current one.
    pub prev: Option<T>,
    /// The most recent exchange.
    pub cur: Option<T>,
}

impl<T: Copy> ShareWindow<T> {
    /// Pushes a new value, shifting the current one into `prev`.
    pub fn push(&mut self, value: T) {
        self.prev = self.cur;
        self.cur = Some(value);
    }

    /// Both values, once two exchanges have arrived.
    pub fn pair(&self) -> Option<(T, T)> {
        Some((self.prev?, self.cur?))
    }
}

/// Everything the peer has shared with us.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteStore {
    /// Queue-state exchanges in byte units.
    pub bytes: ShareWindow<WireExchange>,
    /// Queue-state exchanges in packet units.
    pub packets: ShareWindow<WireExchange>,
    /// Queue-state exchanges in message units.
    pub messages: ShareWindow<WireExchange>,
    /// Application request-queue hints.
    pub hint: ShareWindow<WireSnapshot>,
    /// Exchanges received in total — an epoch counter: any fresh peer
    /// metadata bumps it, so staleness detectors can compare epochs.
    pub received: u64,
    /// When the most recent exchange (or hint) arrived; `None` until the
    /// peer has shared anything. Together with `received` this gives the
    /// estimator the age + epoch of the peer's 3-tuple snapshots.
    pub last_received_at: Option<Nanos>,
}

impl RemoteStore {
    /// The share window for a unit.
    pub fn unit(&self, unit: Unit) -> &ShareWindow<WireExchange> {
        match unit {
            Unit::Bytes => &self.bytes,
            Unit::Packets => &self.packets,
            Unit::Messages => &self.messages,
        }
    }

    fn unit_mut(&mut self, unit: Unit) -> &mut ShareWindow<WireExchange> {
        match unit {
            Unit::Bytes => &mut self.bytes,
            Unit::Packets => &mut self.packets,
            Unit::Messages => &mut self.messages,
        }
    }
}

/// Transmit/receive statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Data segments transmitted (TSO super-segments count once).
    pub data_segments_sent: u64,
    /// Wire packets transmitted (TSO parts counted individually).
    pub wire_packets_sent: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub bytes_sent: u64,
    /// Pure ACK segments transmitted.
    pub pure_acks_sent: u64,
    /// Segments retransmitted after an RTO.
    pub retransmissions: u64,
    /// Times the transmit path held a partial segment due to Nagle.
    pub nagle_holds: u64,
    /// Times the transmit path corked a partial segment.
    pub cork_holds: u64,
    /// Times TSO deferral held a window-limited sub-half-max chunk.
    pub tso_defers: u64,
    /// Times the AIMD batch-limit gate held queued data.
    pub batch_limit_holds: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
    /// Wire packets received.
    pub wire_packets_received: u64,
    /// End-to-end exchanges attached to outgoing segments.
    pub exchanges_sent: u64,
    /// Hint options attached to outgoing segments.
    pub hints_sent: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Fast retransmissions triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
}

/// A simulated TCP socket.
#[derive(Debug, Clone)]
pub struct TcpSocket {
    flow: FlowId,
    config: TcpConfig,
    state: TcpState,
    /// Counter-state generation stamped on outgoing exchanges. Assigned by
    /// the host at registration (a per-host creation counter), so a socket
    /// replacing a crashed one carries a different epoch and the peer's
    /// validator detects the counter reset instead of computing a gigantic
    /// wrapping delta.
    epoch: u8,
    iss: SeqNum,
    irs: SeqNum,
    snd: SendBuffer,
    rcv: RecvBuffer,
    rtt: RttEstimator,
    cc: CongestionControl,
    delack: DelAck,
    queues: SocketQueues,
    /// Runtime conservation gates (see [`crate::invariants`]); checks are
    /// debug-only but the ledgers are always booked so tests can inspect
    /// them in any profile.
    invariants: SocketInvariants,
    remote: RemoteStore,
    /// Change stamp over the state an end-to-end estimator reads from this
    /// socket: advanced whenever one of the three instrumented queues, the
    /// [`RemoteStore`] or the smoothed RTT may have changed. While two
    /// reads return the same stamp, the queues were piecewise linear in
    /// between (no `TRACK` call), so a periodic tick can extrapolate its
    /// previous snapshots instead of taking new ones.
    estimator_stamp: u64,
    stats: SocketStats,
    /// Dynamic-Nagle switch (used only in [`NagleMode::Dynamic`]).
    nagle_dynamic_on: bool,
    /// Gradual batching limit (paper §5, "Better Batching Heuristics"):
    /// when set, a transmission is held while fewer than this many bytes
    /// are queued and earlier data is still in flight. Adjusted at runtime
    /// by an AIMD policy; `None` disables the gate.
    batch_limit: Option<usize>,
    peer_window: usize,
    in_flight: VecDeque<InFlight>,
    /// Consecutive duplicate ACKs at the current `last_ack_offset`; the
    /// third triggers fast retransmit (RFC 5681).
    dup_ack_count: u32,
    rto_armed: bool,
    /// Most recent peer timestamp value, echoed back.
    ts_recent: u32,
    /// Wrap-tracking for the peer's ACK field → stream offset.
    last_ack_seq: SeqNum,
    last_ack_offset: u64,
    /// Wrap-tracking for received data sequence → stream offset.
    last_data_seq: SeqNum,
    last_data_offset: u64,
    /// Last time an e2e exchange option was attached.
    last_exchange_tx: Option<Nanos>,
    /// Latest application hint to forward (set via "ancillary data").
    hint_state: Option<Snapshot>,
    hint_dirty: bool,
    /// Received-but-unacked bookkeeping for the ackdelay queue.
    pending_ack_bytes: i64,
    pending_ack_packets: i64,
    pending_ack_messages: i64,
    /// Unread-queue packet accounting: (end offset, wire packets).
    unread_packets: VecDeque<(u64, u32)>,
    /// Cork state: when the tail was first corked.
    corked_since: Option<Nanos>,
    cork_override: bool,
    /// Go-back-N recovery: data below this offset is a retransmission
    /// (Karn's rule excludes it from RTT sampling).
    recovery_point: Option<u64>,
    /// FIN bookkeeping.
    peer_fin_received: bool,
    fin_wanted: bool,
    fin_sent: bool,
    fin_offset: Option<u64>,
}

impl TcpSocket {
    /// Initial send sequence number (fixed: the simulator does not model
    /// ISN randomization attacks).
    const ISS: u32 = 1_000;

    /// Duplicate ACKs that trigger fast retransmit (RFC 5681's three).
    const DUP_ACK_THRESHOLD: u32 = 3;

    fn new_common(flow: FlowId, config: TcpConfig, now: Nanos, state: TcpState) -> Self {
        TcpSocket {
            flow,
            config,
            state,
            epoch: 0,
            iss: SeqNum::new(Self::ISS),
            irs: SeqNum::new(0),
            snd: SendBuffer::new(config.sndbuf),
            rcv: RecvBuffer::new(config.rcvbuf),
            rtt: RttEstimator::new(config.rto),
            cc: CongestionControl::new(config.cc, config.mss),
            delack: DelAck::new(config.delack),
            queues: SocketQueues::new(now),
            invariants: SocketInvariants::new(),
            remote: RemoteStore::default(),
            estimator_stamp: 0,
            stats: SocketStats::default(),
            nagle_dynamic_on: false,
            batch_limit: config.batch_limit.map(|b| b as usize),
            peer_window: 65_535,
            in_flight: VecDeque::new(),
            dup_ack_count: 0,
            rto_armed: false,
            ts_recent: 0,
            last_ack_seq: SeqNum::new(Self::ISS + 1),
            last_ack_offset: 0,
            last_data_seq: SeqNum::new(0),
            last_data_offset: 0,
            last_exchange_tx: None,
            hint_state: None,
            hint_dirty: false,
            pending_ack_bytes: 0,
            pending_ack_packets: 0,
            pending_ack_messages: 0,
            unread_packets: VecDeque::new(),
            corked_since: None,
            cork_override: false,
            recovery_point: None,
            peer_fin_received: false,
            fin_wanted: false,
            fin_sent: false,
            fin_offset: None,
        }
    }

    /// Creates an actively opening socket and emits its SYN.
    pub fn client(flow: FlowId, config: TcpConfig, now: Nanos, actions: &mut Vec<Action>) -> Self {
        let mut sock = Self::new_common(flow, config, now, TcpState::SynSent);
        let syn = Segment::control(
            flow,
            sock.iss,
            SeqNum::new(0),
            Flags {
                syn: true,
                ..Flags::default()
            },
            sock.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
        );
        actions.push(Action::Transmit(syn));
        actions.push(Action::ArmTimer(TimerKind::Rto, sock.rtt.rto()));
        sock.rto_armed = true;
        sock
    }

    /// Creates a passively opened socket in response to a SYN and emits the
    /// SYN-ACK.
    pub fn server_on_syn(
        flow: FlowId,
        config: TcpConfig,
        now: Nanos,
        syn: &Segment,
        actions: &mut Vec<Action>,
    ) -> Self {
        debug_assert!(syn.flags.syn);
        let mut sock = Self::new_common(flow, config, now, TcpState::SynReceived);
        sock.irs = syn.seq;
        sock.last_data_seq = syn.seq + 1;
        let synack = Segment::control(
            flow,
            sock.iss,
            syn.seq + 1,
            Flags {
                syn: true,
                ack: true,
                ..Flags::default()
            },
            sock.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
        );
        actions.push(Action::Transmit(synack));
        actions.push(Action::ArmTimer(TimerKind::Rto, sock.rtt.rto()));
        sock.rto_armed = true;
        sock
    }

    /// Connection identifier.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Counter-state generation stamped on outgoing exchanges.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Assigns the counter-state generation (the host does this once at
    /// registration).
    pub(crate) fn set_epoch(&mut self, epoch: u8) {
        self.epoch = epoch;
    }

    /// Tears the socket down in place — the endpoint-restart fault. The
    /// process behind this endpoint is gone, and every bit of connection
    /// and queue-counter state went with it: the socket stops transmitting,
    /// ignores all input, and never shares counters again. The host drops
    /// the flow mapping and invalidates pending timers; the application is
    /// woken separately to re-establish a fresh connection (whose new
    /// socket gets a new epoch). Counts as a change for
    /// [`estimator_stamp`](Self::estimator_stamp): whoever waits on the
    /// stamp must not sleep through the connection's death.
    pub fn reset(&mut self) {
        self.estimator_stamp += 1;
        self.state = TcpState::Closed;
        self.rto_armed = false;
        self.corked_since = None;
        self.fin_wanted = false;
        self.fin_sent = false;
    }

    /// The socket's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.config
    }

    /// The instrumented queues.
    pub fn queues(&self) -> &SocketQueues {
        &self.queues
    }

    /// Local queue snapshots at `now` in `unit`.
    pub fn local_snapshots(&self, now: Nanos, unit: Unit) -> QueueSnapshots {
        self.queues.snapshots(now, unit)
    }

    /// Everything the peer has shared.
    pub fn remote(&self) -> &RemoteStore {
        &self.remote
    }

    /// The estimator change stamp: equal across two reads only if no
    /// instrumented queue, nothing in [`remote`](Self::remote) and not
    /// [`srtt`](Self::srtt) changed in between. It is all a tick over a
    /// static connection reads of the socket.
    #[inline]
    pub fn estimator_stamp(&self) -> u64 {
        self.estimator_stamp
    }

    /// The instrumented queues for a `TRACK` call; advances the
    /// estimator stamp. Every queue mutation in this file goes through
    /// here, so the stamp cannot miss one.
    #[inline]
    fn touch_queues(&mut self) -> &mut SocketQueues {
        self.estimator_stamp += 1;
        &mut self.queues
    }

    /// Statistics.
    pub fn stats(&self) -> &SocketStats {
        &self.stats
    }

    /// The runtime invariant ledgers and gates.
    pub fn invariants(&self) -> &SocketInvariants {
        &self.invariants
    }

    /// Mutable access to the instrumented queues — fault injection for
    /// invariant-gate tests. Production code never mutates the queues
    /// directly; the stack's own bookkeeping goes through the tracked
    /// send/receive paths so the ledgers stay in balance.
    pub fn queues_mut(&mut self) -> &mut SocketQueues {
        self.touch_queues()
    }

    /// Runs every stateful invariant gate against the current queue and
    /// cursor state, returning the first violation. The host calls this
    /// (wrapped in [`gate`]) after each event; tests may call it directly.
    pub fn check_invariants(&mut self, now: Nanos) -> Result<(), crate::invariants::InvariantViolation> {
        let rcv_nxt = self.rcv.rcv_nxt();
        let read_pos = self.rcv.read_pos();
        self.invariants.verify(&self.queues, rcv_nxt, read_pos, now)?;
        let state = ActuationState {
            ack_pending: self.delack.has_pending(),
            has_unsent: self.snd.unsent() > 0,
            in_flight: self.snd.in_flight() > 0,
            tx_timer_armed: self.rto_armed,
            cork_timer_armed: self.corked_since.is_some(),
            window_open: self.effective_window() >= self.config.mss,
            established: self.state == TcpState::Established,
        };
        self.invariants.verify_actuation(&state)
    }

    fn verify_invariants(&mut self, now: Nanos) {
        if cfg!(debug_assertions) {
            gate(self.check_invariants(now));
        }
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<Nanos> {
        self.rtt.srtt()
    }

    /// Delayed-ACK machinery (for stats).
    pub fn delack(&self) -> &DelAck {
        &self.delack
    }

    /// Whether Nagle currently applies to the transmit path.
    pub fn nagle_active(&self) -> bool {
        match self.config.nagle {
            NagleMode::On => true,
            NagleMode::Off => false,
            NagleMode::Dynamic => self.nagle_dynamic_on,
        }
    }

    /// Applies one control-plane [`KnobSetting`]; returns true if socket
    /// state changed. This is the only way to move a knob at runtime: the
    /// dynamic-Nagle switch (only meaningful in [`NagleMode::Dynamic`]),
    /// the delayed-ACK mode and the gradual batching limit have no public
    /// setter.
    ///
    /// A delayed-ACK mode switch disposes of any pending ACK
    /// deterministically — flushed immediately on a switch to quick-ack
    /// (the acknowledgment the peer waits for is never dropped), re-armed
    /// from the switch instant on a timeout change. Callers must execute
    /// the returned actions and then re-run the transmit path so a
    /// loosened gate releases held data; `HostCtx::apply` does both.
    pub fn apply(&mut self, now: Nanos, setting: KnobSetting, actions: &mut Vec<Action>) -> bool {
        match setting {
            KnobSetting::Nagle(on) => {
                let changed = self.nagle_dynamic_on != on;
                self.nagle_dynamic_on = on;
                changed
            }
            KnobSetting::DelAck(mode) => {
                let changed = self.delack.mode() != mode;
                match self.delack.switch_mode(mode) {
                    AckSwitch::Nothing => {}
                    AckSwitch::Flush => {
                        actions.push(Action::CancelTimer(TimerKind::Delack));
                        self.emit_pure_ack(now, actions);
                    }
                    AckSwitch::Rearm(timeout) => {
                        actions.push(Action::ArmTimer(TimerKind::Delack, timeout));
                    }
                }
                self.verify_invariants(now);
                changed
            }
            KnobSetting::CorkLimit(limit) => {
                let new = if limit == 0 { None } else { Some(limit as usize) };
                let changed = self.batch_limit != new;
                self.batch_limit = new;
                changed
            }
        }
    }

    /// The current gradual batching limit.
    pub fn batch_limit(&self) -> Option<usize> {
        self.batch_limit
    }

    /// Installs the application's request-queue hint (the ancillary-data
    /// path of §3.3); it will be forwarded to the peer on the next
    /// transmit.
    pub fn set_hint(&mut self, snapshot: Snapshot) {
        self.hint_state = Some(snapshot);
        self.hint_dirty = true;
    }

    /// Bytes of send-buffer space available.
    pub fn send_room(&self) -> usize {
        self.snd.room()
    }

    /// Bytes available to read.
    pub fn recv_available(&self) -> usize {
        self.rcv.available()
    }

    /// Accepts application data for transmission; each call marks one
    /// message boundary (the send-syscall approximation of §3.3). Returns
    /// the bytes accepted (less than `data.len()` if the buffer is full)
    /// and appends transmit actions.
    pub fn send(
        &mut self,
        now: Nanos,
        data: &[u8],
        env: TxEnv,
        actions: &mut Vec<Action>,
    ) -> usize {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            return 0;
        }
        let accepted = self.snd.push(data);
        if accepted > 0 {
            self.snd.mark_boundary();
            self.invariants.unacked.enter(accepted as u64);
            self.touch_queues().unacked.track_bytes(now, accepted as i64);
            self.touch_queues().unacked.track_messages(now, 1);
        }
        self.poll_transmit(now, env, actions);
        self.verify_invariants(now);
        accepted
    }

    /// Reads up to `max` bytes of in-order data; returns the bytes and the
    /// number of whole messages consumed, updating the unread queue.
    pub fn recv(&mut self, now: Nanos, max: usize, actions: &mut Vec<Action>) -> (Payload, usize) {
        let window_before = self.rcv.window();
        let (bytes, messages) = self.rcv.read(max);
        if !bytes.is_empty() {
            self.invariants.unread.leave(bytes.len() as u64);
            self.touch_queues().unread.track_bytes(now, -(bytes.len() as i64));
            if messages > 0 {
                self.touch_queues().unread.track_messages(now, -(messages as i64));
            }
            let read_pos = self.rcv.read_pos();
            let mut pkts = 0i64;
            while self
                .unread_packets
                .front()
                .is_some_and(|&(end, _)| end <= read_pos)
            {
                pkts += self.unread_packets.pop_front().expect("front exists").1 as i64;
            }
            if pkts > 0 {
                self.touch_queues().unread.track_packets(now, -pkts);
            }
            // Window-update ACK: reading reopened a window that had
            // squeezed below one MSS.
            if window_before < self.config.mss && self.rcv.window() >= 2 * self.config.mss {
                self.emit_pure_ack(now, actions);
            }
        }
        self.verify_invariants(now);
        (bytes, messages)
    }

    /// Initiates a graceful close (sends FIN once buffered data drains).
    pub fn close(&mut self, now: Nanos, env: TxEnv, actions: &mut Vec<Action>) {
        match self.state {
            TcpState::Established => {
                self.fin_wanted = true;
                self.state = TcpState::FinWait1;
            }
            TcpState::CloseWait => {
                self.fin_wanted = true;
                self.state = TcpState::LastAck;
            }
            _ => return,
        }
        self.poll_transmit(now, env, actions);
    }

    fn effective_window(&self) -> usize {
        self.cc.cwnd().min(self.peer_window.max(1))
    }

    /// Runs the transmit path: emits as many segments as the gates
    /// (window, Nagle, cork) allow.
    pub fn poll_transmit(&mut self, now: Nanos, env: TxEnv, actions: &mut Vec<Action>) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck
        ) {
            return;
        }
        loop {
            let unsent = self.snd.unsent();
            if unsent == 0 {
                break;
            }
            let in_flight = self.snd.in_flight();
            // Gradual batch limit (§5): accumulate until `limit` bytes are
            // queued, unless nothing is in flight (progress guarantee — an
            // ACK is guaranteed to re-run this path otherwise).
            if let Some(limit) = self.batch_limit {
                let closing = self.fin_wanted && !self.fin_sent;
                if unsent < limit && in_flight > 0 && !closing {
                    self.stats.batch_limit_holds += 1;
                    break;
                }
            }
            let wnd = self.effective_window();
            if in_flight >= wnd {
                break;
            }
            let budget = wnd - in_flight;
            let sendable = unsent.min(budget);
            if sendable < self.config.mss && sendable < unsent {
                // Window-limited sub-MSS send: wait for the window to open
                // (silly-window avoidance).
                break;
            }
            let tso_limit = if self.config.tso.enabled {
                self.config.tso.max_bytes
            } else {
                self.config.mss
            };
            let mut chunk_len = sendable.min(tso_limit);
            if chunk_len >= self.config.mss {
                // Send only whole MSS multiples; a sub-MSS tail is decided
                // separately by the batching gates on the next iteration.
                chunk_len -= chunk_len % self.config.mss;
                // TSO deferral (Linux tcp_tso_should_defer): window-limited
                // with more data queued and ACKs in flight — hold a short
                // chunk so the train can fill toward the TSO maximum.
                if self.config.tso.enabled
                    && self.config.tso.defer
                    && sendable < unsent
                    && in_flight > 0
                    && chunk_len < tso_limit.min(wnd / 2).max(self.config.mss)
                {
                    self.stats.tso_defers += 1;
                    break;
                }
            } else {
                // A partial tail: Nagle, then auto-cork, may hold it.
                let will_fin = self.fin_wanted && !self.fin_sent && chunk_len == unsent;
                if !nagle_allows(
                    self.nagle_active(),
                    chunk_len,
                    self.config.mss,
                    in_flight,
                    will_fin,
                ) {
                    self.stats.nagle_holds += 1;
                    break;
                }
                if !self.cork_override
                    && !will_fin
                    && cork_holds(
                        &self.config.cork,
                        chunk_len,
                        self.config.mss,
                        env.nic_in_flight,
                    )
                {
                    self.stats.cork_holds += 1;
                    if self.corked_since.is_none() {
                        self.corked_since = Some(now);
                        actions.push(Action::ArmTimer(TimerKind::Cork, self.config.cork.max_delay));
                    }
                    break;
                }
            }
            // A segment is either entirely a go-back-N retransmission (it
            // ends at or before the pre-rewind high-water mark) or entirely
            // new data — never a merge of the two. Split at the recovery
            // point; the remainder goes through the gates again next
            // iteration.
            if let Some(rp) = self.recovery_point {
                let nxt = self.snd.nxt();
                if nxt < rp {
                    chunk_len = chunk_len.min((rp - nxt) as usize);
                }
            }
            let chunk = self.snd.take_chunk(chunk_len).expect("unsent data exists");
            self.corked_since = None;
            let retx = self.recovery_point.is_some_and(|rp| chunk.offset < rp);
            self.emit_data(now, chunk.offset, chunk.bytes, chunk.boundaries, retx, actions);
        }
        self.cork_override = false;
        // Emit FIN once everything (including retransmittable data) is out.
        if self.fin_wanted && !self.fin_sent && self.snd.unsent() == 0 {
            self.fin_sent = true;
            self.fin_offset = Some(self.snd.end());
            let mut fin = Segment::control(
                self.flow,
                self.offset_to_seq(self.snd.end()),
                self.ack_field(),
                Flags {
                    fin: true,
                    ack: true,
                    ..Flags::default()
                },
                self.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
            );
            fin.options.timestamps = Some(self.make_ts(now));
            actions.push(Action::Transmit(fin));
            self.arm_rto(actions);
        }
    }

    fn offset_to_seq(&self, offset: u64) -> SeqNum {
        self.iss + 1 + (offset as u32) // lint:allow(cast-truncation): sequence arithmetic is modular; SeqNum wraps by design
    }

    /// The cumulative ACK to advertise: everything received in order, plus
    /// one for the peer's FIN once seen.
    fn ack_field(&self) -> SeqNum {
        let fin = u32::from(self.peer_fin_received);
        self.irs + 1 + (self.last_data_offset as u32) + fin // lint:allow(cast-truncation): sequence arithmetic is modular; SeqNum wraps by design
    }

    fn make_ts(&self, now: Nanos) -> TimestampOption {
        TimestampOption {
            tsval: now.as_nanos() as u32, // lint:allow(cast-truncation): tsval wraps mod 2^32 per RFC 7323 and is only echoed, never differenced
            tsecr: self.ts_recent,
        }
    }

    fn maybe_attach_exchange(&mut self, now: Nanos, options: &mut Options) {
        let cfg = self.config.exchange;
        if cfg.enabled && cfg.units.iter().any(|&u| u) {
            let due = match self.last_exchange_tx {
                None => true,
                Some(last) => now.saturating_sub(last) >= cfg.min_interval,
            };
            if due {
                let mut opt = E2eOption {
                    epoch: self.epoch,
                    ..E2eOption::default()
                };
                for unit in Unit::ALL {
                    if cfg.units[unit.index()] {
                        opt.exchanges[unit.index()] = Some(
                            self.queues
                                .wire_exchange(now, unit, WireScale::default())
                                .with_epoch(self.epoch),
                        );
                    }
                }
                options.e2e = Some(opt);
                self.last_exchange_tx = Some(now);
                self.stats.exchanges_sent += 1;
            }
        }
        if self.hint_dirty {
            if let Some(snap) = self.hint_state {
                options.hint = Some(HintOption {
                    snapshot: WireSnapshot::pack(&snap, WireScale::default()),
                });
                self.hint_dirty = false;
                self.stats.hints_sent += 1;
            }
        }
    }

    fn emit_data(
        &mut self,
        now: Nanos,
        offset: u64,
        payload: Payload,
        boundaries: Vec<u64>,
        retransmit: bool,
        actions: &mut Vec<Action>,
    ) {
        let len = payload.len();
        gate(self.invariants.on_transmit(offset, len, retransmit));
        let wire_packets = len.div_ceil(self.config.mss).max(1) as u32; // lint:allow(cast-truncation): wire_packets <= len/mss + 1, bounded by the send buffer
        let psh = boundaries.last() == Some(&(offset + len as u64));
        let mut options = Options {
            timestamps: Some(self.make_ts(now)),
            ..Options::default()
        };
        self.maybe_attach_exchange(now, &mut options);
        let ack_seq = self.ack_field();
        let seg = Segment {
            flow: self.flow,
            seq: self.offset_to_seq(offset),
            ack: ack_seq,
            flags: Flags {
                ack: true,
                psh,
                ..Flags::default()
            },
            window: self.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
            payload,
            boundaries,
            options,
            wire_packets,
        };
        // Piggybacked ACK clears any pending delayed ACK.
        if self.delack.on_piggyback() {
            actions.push(Action::CancelTimer(TimerKind::Delack));
        }
        self.flush_ackdelay(now);
        self.touch_queues().unacked.track_packets(now, wire_packets as i64);
        self.in_flight.push_back(InFlight {
            offset,
            len: len as u32, // lint:allow(cast-truncation): segment length is MSS-bounded, far under u32::MAX
            wire_packets,
            sent_at: now,
            retransmitted: retransmit,
        });
        self.stats.data_segments_sent += 1;
        self.stats.wire_packets_sent += wire_packets as u64;
        self.stats.bytes_sent += len as u64;
        if retransmit {
            self.stats.retransmissions += 1;
        }
        actions.push(Action::Transmit(seg));
        self.arm_rto(actions);
    }

    fn arm_rto(&mut self, actions: &mut Vec<Action>) {
        actions.push(Action::ArmTimer(TimerKind::Rto, self.rtt.rto()));
        self.rto_armed = true;
    }

    /// Drains the ackdelay queue bookkeeping (an ACK covering everything
    /// received is about to leave, either pure or piggybacked).
    fn flush_ackdelay(&mut self, now: Nanos) {
        let (bytes, packets, messages) = (
            self.pending_ack_bytes,
            self.pending_ack_packets,
            self.pending_ack_messages,
        );
        if bytes > 0 {
            self.invariants.ackdelay.leave(bytes as u64);
            self.touch_queues().ackdelay.track_bytes(now, -bytes);
        }
        if packets > 0 {
            self.touch_queues().ackdelay.track_packets(now, -packets);
        }
        if messages > 0 {
            self.touch_queues().ackdelay.track_messages(now, -messages);
        }
        self.pending_ack_bytes = 0;
        self.pending_ack_packets = 0;
        self.pending_ack_messages = 0;
    }

    fn emit_pure_ack(&mut self, now: Nanos, actions: &mut Vec<Action>) {
        let mut options = Options {
            timestamps: Some(self.make_ts(now)),
            ..Options::default()
        };
        self.maybe_attach_exchange(now, &mut options);
        let mut seg = Segment::control(
            self.flow,
            self.offset_to_seq(self.snd.nxt()),
            self.ack_field(),
            Flags {
                ack: true,
                ..Flags::default()
            },
            self.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
        );
        seg.options = options;
        self.flush_ackdelay(now);
        self.stats.pure_acks_sent += 1;
        actions.push(Action::Transmit(seg));
    }

    /// Unwraps a 32-bit sequence into a 64-bit stream offset given the last
    /// seen (seq, offset) pair. Deltas ≥ 2³¹ are treated as old data.
    fn unwrap_seq(seq: SeqNum, last_seq: SeqNum, last_offset: u64) -> Option<u64> {
        let delta = seq - last_seq; // wrapping distance
        if delta < 1 << 31 {
            Some(last_offset + delta as u64)
        } else {
            // Behind the last-seen point.
            let back = last_seq - seq;
            last_offset.checked_sub(back as u64)
        }
    }

    /// Processes one incoming segment. The host calls this after charging
    /// softirq receive costs.
    pub fn on_segment(&mut self, now: Nanos, seg: &Segment, env: TxEnv, actions: &mut Vec<Action>) {
        self.stats.wire_packets_received += seg.wire_packets as u64;
        if let Some(ts) = seg.options.timestamps {
            self.ts_recent = ts.tsval;
        }
        if let Some(e2e) = seg.options.e2e {
            for unit in Unit::ALL {
                if let Some(exchange) = e2e.get(unit) {
                    // The option's epoch tag covers every unit it carries;
                    // stamp it onto each stored exchange so downstream
                    // consumers (estimator, validator) see the generation.
                    self.remote
                        .unit_mut(unit)
                        .push(exchange.with_epoch(e2e.epoch));
                }
            }
            self.remote.received += 1;
            self.remote.last_received_at = Some(now);
            self.estimator_stamp += 1;
        }
        if let Some(hint) = seg.options.hint {
            self.remote.hint.push(hint.snapshot);
            self.remote.received += 1;
            self.remote.last_received_at = Some(now);
            self.estimator_stamp += 1;
        }

        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack {
                    self.irs = seg.seq;
                    self.last_data_seq = seg.seq + 1;
                    self.peer_window = seg.window as usize;
                    self.state = TcpState::Established;
                    actions.push(Action::CancelTimer(TimerKind::Rto));
                    self.rto_armed = false;
                    self.emit_pure_ack(now, actions);
                    actions.push(Action::Wake(WakeReason::Connected));
                }
                return;
            }
            TcpState::SynReceived
                if seg.flags.ack && seg.ack == self.iss + 1 => {
                    self.state = TcpState::Established;
                    actions.push(Action::CancelTimer(TimerKind::Rto));
                    self.rto_armed = false;
                    actions.push(Action::Wake(WakeReason::Accepted));
                    // Fall through: the ACK may carry data.
                }
            TcpState::Closed => return,
            _ => {}
        }

        // --- ACK processing ---------------------------------------------
        if seg.flags.ack {
            let prev_peer_window = self.peer_window;
            self.peer_window = seg.window as usize;
            if let Some(ack_offset) =
                Self::unwrap_seq(seg.ack, self.last_ack_seq, self.last_ack_offset)
            {
                if ack_offset > self.last_ack_offset {
                    self.dup_ack_count = 0;
                    self.last_ack_seq = seg.ack;
                    self.last_ack_offset = ack_offset;
                    if self.recovery_point.is_some_and(|rp| ack_offset >= rp) {
                        self.recovery_point = None;
                    }
                    let fin_acked = self.fin_offset.is_some_and(|f| ack_offset > f);
                    let data_upto = if fin_acked { ack_offset - 1 } else { ack_offset };
                    let res = self.snd.on_ack(data_upto);
                    if res.bytes > 0 {
                        self.invariants.unacked.leave(res.bytes as u64);
                        self.touch_queues().unacked.track_bytes(now, -(res.bytes as i64));
                        if res.messages > 0 {
                            self.touch_queues()
                                .unacked
                                .track_messages(now, -(res.messages as i64));
                        }
                        let mut pkts = 0i64;
                        let mut rtt_sample: Option<Nanos> = None;
                        while self
                            .in_flight
                            .front()
                            .is_some_and(|f| f.offset + f.len as u64 <= data_upto)
                        {
                            let f = self.in_flight.pop_front().expect("front exists");
                            pkts += f.wire_packets as i64;
                            if !f.retransmitted {
                                rtt_sample = Some(now.saturating_sub(f.sent_at));
                            }
                        }
                        if pkts > 0 {
                            self.touch_queues().unacked.track_packets(now, -pkts);
                        }
                        if let Some(rtt) = rtt_sample {
                            self.rtt.sample(rtt);
                            self.estimator_stamp += 1;
                        }
                        self.cc.on_ack(res.bytes);
                        if self.snd.in_flight() == 0 && (fin_acked || !self.fin_sent) {
                            actions.push(Action::CancelTimer(TimerKind::Rto));
                            self.rto_armed = false;
                        } else {
                            self.arm_rto(actions);
                        }
                        if self.snd.room() > 0 {
                            actions.push(Action::Wake(WakeReason::Writable));
                        }
                    }
                    if fin_acked {
                        match self.state {
                            TcpState::FinWait1 => {
                                self.state = TcpState::FinWait2;
                                if self.snd.in_flight() == 0 {
                                    actions.push(Action::CancelTimer(TimerKind::Rto));
                                    self.rto_armed = false;
                                }
                            }
                            TcpState::LastAck => {
                                self.state = TcpState::Closed;
                                actions.push(Action::CancelTimer(TimerKind::Rto));
                                self.rto_armed = false;
                            }
                            _ => {}
                        }
                    }
                } else if ack_offset == self.last_ack_offset
                    && seg.payload.is_empty()
                    && !seg.flags.syn
                    && !seg.flags.fin
                    && seg.window as usize == prev_peer_window
                    && self.snd.in_flight() > 0
                {
                    // A duplicate ACK: same cumulative point, no data, no
                    // window update, while we have data outstanding — the
                    // receiver is signalling a hole (RFC 5681 §2).
                    self.dup_ack_count += 1;
                    self.stats.dup_acks += 1;
                    if self.dup_ack_count == Self::DUP_ACK_THRESHOLD
                        && self.recovery_point.is_none()
                    {
                        // Fast retransmit: resend the first unacked chunk
                        // without waiting for the RTO. `on_loss` halves
                        // cwnd where an RTO would collapse it to one MSS,
                        // so burst loss no longer serializes on timeouts.
                        self.cc.on_loss();
                        let una = self.snd.una();
                        let len = self.snd.in_flight().min(self.config.mss);
                        let end = una + len as u64;
                        for f in self.in_flight.iter_mut() {
                            if f.offset < end {
                                // Karn: ACKs of this range are ambiguous.
                                f.retransmitted = true;
                            }
                        }
                        let chunk = self.snd.retransmit_chunk(una, len);
                        self.recovery_point = Some(self.snd.nxt());
                        self.stats.fast_retransmits += 1;
                        self.emit_data(
                            now,
                            chunk.offset,
                            chunk.bytes,
                            chunk.boundaries,
                            true,
                            actions,
                        );
                    }
                }
            }
        }

        // --- Data processing ---------------------------------------------
        if !seg.payload.is_empty() {
            if let Some(offset) =
                Self::unwrap_seq(seg.seq, self.last_data_seq, self.last_data_offset)
            {
                let rcv_nxt_before = self.rcv.rcv_nxt();
                let res = self.rcv.ingest(offset, &seg.payload, &seg.boundaries);
                gate(self.invariants.on_rx_segment(
                    res.out_of_order,
                    res.duplicate,
                    rcv_nxt_before,
                    self.rcv.rcv_nxt(),
                ));
                let end = offset + seg.payload.len() as u64;
                if end > self.last_data_offset {
                    // Track the furthest in-order point for ACK fields.
                    let new_nxt = self.rcv.rcv_nxt();
                    self.last_data_seq += (new_nxt - self.last_data_offset) as u32; // lint:allow(cast-truncation): in-order advance is bounded by the receive buffer; seq space is modular
                    self.last_data_offset = new_nxt;
                }
                if res.in_order_bytes > 0 {
                    self.stats.bytes_received += res.in_order_bytes as u64;
                    self.invariants.unread.enter(res.in_order_bytes as u64);
                    self.touch_queues()
                        .unread
                        .track_bytes(now, res.in_order_bytes as i64);
                    if res.in_order_messages > 0 {
                        self.touch_queues()
                            .unread
                            .track_messages(now, res.in_order_messages as i64);
                    }
                    self.touch_queues().unread.track_packets(now, seg.wire_packets as i64);
                    self.unread_packets
                        .push_back((self.rcv.rcv_nxt(), seg.wire_packets));

                    self.pending_ack_bytes += res.in_order_bytes as i64;
                    self.pending_ack_packets += seg.wire_packets as i64;
                    self.pending_ack_messages += res.in_order_messages as i64;
                    self.invariants.ackdelay.enter(res.in_order_bytes as u64);
                    self.touch_queues()
                        .ackdelay
                        .track_bytes(now, res.in_order_bytes as i64);
                    self.touch_queues()
                        .ackdelay
                        .track_packets(now, seg.wire_packets as i64);
                    if res.in_order_messages > 0 {
                        self.touch_queues()
                            .ackdelay
                            .track_messages(now, res.in_order_messages as i64);
                    }
                    actions.push(Action::Wake(WakeReason::Readable));
                }
                let full_sized = seg.payload.len() >= self.config.mss;
                let force_quick =
                    res.out_of_order || res.duplicate || self.rcv.window() < self.config.mss;
                match self.delack.on_data(full_sized, seg.wire_packets, force_quick) {
                    AckDecision::SendNow => {
                        actions.push(Action::CancelTimer(TimerKind::Delack));
                        self.emit_pure_ack(now, actions);
                    }
                    AckDecision::Arm(delay) => {
                        actions.push(Action::ArmTimer(TimerKind::Delack, delay));
                    }
                    AckDecision::AlreadyArmed => {}
                }
            }
        }

        // --- FIN processing ----------------------------------------------
        if seg.flags.fin {
            let fin_offset = Self::unwrap_seq(seg.seq, self.last_data_seq, self.last_data_offset)
                .map(|o| o + seg.payload.len() as u64);
            if fin_offset == Some(self.rcv.rcv_nxt()) && !self.peer_fin_received {
                self.last_data_seq += 1;
                self.peer_fin_received = true;
                match self.state {
                    TcpState::Established => self.state = TcpState::CloseWait,
                    TcpState::FinWait2 | TcpState::FinWait1 => {
                        self.state = TcpState::Closed;
                    }
                    _ => {}
                }
                self.emit_pure_ack(now, actions);
                actions.push(Action::Wake(WakeReason::Readable)); // EOF
            }
        }

        // New ACKs or window may unblock the transmit path.
        self.poll_transmit(now, env, actions);
        self.verify_invariants(now);
    }

    /// Handles a fired timer. The host guarantees stale (cancelled) timers
    /// never reach the socket.
    pub fn on_timer(&mut self, now: Nanos, kind: TimerKind, env: TxEnv, actions: &mut Vec<Action>) {
        match kind {
            TimerKind::Delack => {
                if self.delack.on_timer() {
                    self.emit_pure_ack(now, actions);
                }
            }
            TimerKind::Cork => {
                self.corked_since = None;
                self.cork_override = true;
                self.poll_transmit(now, env, actions);
            }
            TimerKind::Rto => {
                if !self.rto_armed {
                    return;
                }
                match self.state {
                    TcpState::SynSent | TcpState::SynReceived => {
                        // Retransmit the handshake segment.
                        self.rtt.backoff();
                        let flags = if self.state == TcpState::SynSent {
                            Flags {
                                syn: true,
                                ..Flags::default()
                            }
                        } else {
                            Flags {
                                syn: true,
                                ack: true,
                                ..Flags::default()
                            }
                        };
                        let seg = Segment::control(
                            self.flow,
                            self.iss,
                            if flags.ack { self.irs + 1 } else { SeqNum::new(0) },
                            flags,
                            self.rcv.window() as u32, // lint:allow(cast-truncation): advertised window is clamped to the receive buffer capacity, far under u32::MAX
                        );
                        actions.push(Action::Transmit(seg));
                        self.arm_rto(actions);
                    }
                    _ => {
                        // Go-back-N: rewind and retransmit from the first
                        // unacked byte.
                        self.rtt.backoff();
                        self.cc.on_rto();
                        let stale_packets: i64 =
                            self.in_flight.iter().map(|f| f.wire_packets as i64).sum();
                        if stale_packets > 0 {
                            self.touch_queues().unacked.track_packets(now, -stale_packets);
                        }
                        self.in_flight.clear();
                        if self.snd.in_flight() > 0 {
                            // A repeated RTO mid-recovery must not shrink the
                            // recovery point to the partially-replayed nxt, or
                            // the tail of the original transmission would be
                            // mislabelled as fresh data (breaking Karn's rule
                            // and the tx-continuity gate).
                            let high = self
                                .recovery_point
                                .map_or(self.snd.nxt(), |rp| rp.max(self.snd.nxt()));
                            self.recovery_point = Some(high);
                            self.snd.rewind_to_una();
                        }
                        if self.fin_sent && self.snd.unsent() == 0 {
                            // Retransmit the FIN itself.
                            self.fin_sent = false;
                        }
                        self.poll_transmit(now, env, actions);
                        if self.snd.unsent() == 0 && self.snd.in_flight() == 0 && !self.fin_wanted {
                            self.rto_armed = false;
                            actions.push(Action::CancelTimer(TimerKind::Rto));
                        } else {
                            // Data or FIN still outstanding. poll_transmit
                            // may have emitted nothing (e.g. a closed peer
                            // window gated the retransmission) and then
                            // never re-armed the timer; keep it alive
                            // unconditionally or the connection dies
                            // silently. This doubles as the
                            // persist/zero-window-probe timer. (Re-arming
                            // after an emit just re-sets the same deadline.)
                            self.arm_rto(actions);
                        }
                    }
                }
            }
        }
        self.verify_invariants(now);
    }

    /// True while data is held back by auto-corking.
    /// [`on_nic_drained`](Self::on_nic_drained) is a no-op unless this
    /// holds, which lets the NIC-completion path skip uncorked sockets
    /// without calling in.
    // hot-path: checked for every socket on every NIC completion
    #[inline]
    pub fn is_corked(&self) -> bool {
        self.corked_since.is_some()
    }

    /// Called by the host when the NIC ring drains: corked data may now be
    /// flushed.
    pub fn on_nic_drained(&mut self, now: Nanos, env: TxEnv, actions: &mut Vec<Action>) {
        if self.corked_since.is_some() {
            self.corked_since = None;
            actions.push(Action::CancelTimer(TimerKind::Cork));
            self.poll_transmit(now, env, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Regression tests for the sequence-unwrap path: stream offsets are
    // u64 but wire sequence numbers are a 32-bit circular space, so a
    // long-lived flow crosses the wrap and every (seq, offset) pair must
    // survive the round trip. These pin the `as u32` modular arithmetic
    // the cast-truncation lint allows in `offset_to_seq`/`ack_field`.

    #[test]
    fn unwrap_seq_round_trips_across_u32_wrap() {
        // A flow that has already shipped just under 4 GiB: the next
        // segments straddle the sequence wrap.
        let last_offset: u64 = (1 << 32) - 1000;
        let last_seq = SeqNum::new(u32::MAX.wrapping_sub(999));
        for delta in [0u32, 1, 999, 1000, 1001, 65_535] {
            let seq = last_seq + delta;
            assert_eq!(
                TcpSocket::unwrap_seq(seq, last_seq, last_offset),
                Some(last_offset + u64::from(delta)),
                "delta {delta} must unwrap past the wrap point"
            );
        }
    }

    #[test]
    fn unwrap_seq_treats_large_backward_deltas_as_old_data() {
        let last_offset: u64 = 5_000_000_000; // past one full wrap
        let last_seq = SeqNum::new((last_offset % (1 << 32)) as u32);
        // A little behind: still unwrappable (retransmitted old data).
        assert_eq!(
            TcpSocket::unwrap_seq(SeqNum::new(last_seq.raw().wrapping_sub(100)), last_seq, last_offset),
            Some(last_offset - 100)
        );
        // Half the space ahead reads as behind (deltas ≥ 2³¹ are "old"):
        // it unwraps backward, not forward.
        assert_eq!(
            TcpSocket::unwrap_seq(last_seq + (1 << 31), last_seq, last_offset),
            Some(last_offset - (1 << 31))
        );
        // Behind the start of the stream: unrepresentable, rejected.
        assert_eq!(
            TcpSocket::unwrap_seq(SeqNum::new(u32::MAX), SeqNum::new(10), 10),
            None
        );
    }
}
