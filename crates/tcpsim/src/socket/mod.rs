//! The TCP socket state machine.
//!
//! A [`TcpSocket`] is a pure state machine: its methods mutate socket state
//! and append [`Action`]s — segments to transmit, timers to (re)arm or
//! cancel, application wakeups — that the host layer executes (charging CPU
//! and driving the link). Keeping the socket side-effect-free makes every
//! TCP behaviour unit-testable without a simulator.
//!
//! A connection is three parts: `Tcb` — flow, RFC 793 state, epoch,
//! configuration, a plain record the owner writes; and `Tx` and `Rx`,
//! each the only writer of its state (the owner reads their fields and
//! writes through their methods). `Tx` — send buffer, in-flight
//! ranges, RTT and congestion window, SACK-based recovery, the RTO, the
//! batching gates under study (Nagle including the dynamically toggled
//! mode, auto-corking against the NIC ring, TSO aggregation, the gradual
//! batch limit) and what we share; `Rx` — reassembly, the ACK cursor,
//! the SACK blocks, delayed ACKs and what the peer shared.
//!
//! The parts decide; the owner books. The three instrumented queues
//! (*unacked*, *unread*, *ackdelay*) the paper's end-to-end estimator
//! consumes and their invariant ledgers stay on [`TcpSocket`]: one
//! `TRACK` sink serves both directions.

mod rx;
mod tcb;
mod tx;

use crate::payload::Payload;
use littles::wire::{EndpointSnapshots, WireExchange, WireSnapshot};
use littles::{Nanos, Snapshot};
use simnet::{Store, StoreKey};

use crate::buffer::SendChunk;
use crate::config::TcpConfig;
use crate::delack::{AckSwitch, DelAck};
use crate::invariants::{gate, ActuationState, InvariantViolation, SocketInvariants};
use crate::knob::KnobSetting;
use crate::queues::{InstrumentedQueue, SocketQueues, Unit};
use crate::segment::{Flags, FlowId, OptionSlot, Segment, TimestampOption};
use crate::seq::SeqNum;

use rx::Rx;
use tcb::Tcb;
use tx::Tx;

/// Selects one of a socket's three instrumented queues.
type PickQueue = fn(&mut SocketQueues) -> &mut InstrumentedQueue;

/// Index of a socket within its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

/// Connection state (the subset of RFC 793 this stack uses: connections
/// are long-lived, so none closes gracefully; one ends only when its
/// endpoint crashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open sent, awaiting SYN-ACK.
    SynSent,
    /// Passive open received SYN, sent SYN-ACK.
    SynReceived,
    /// Data may flow.
    Established,
    /// Torn down by an endpoint crash.
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
    /// In-order data is available to read.
    Readable,
    /// Send-buffer space was freed.
    Writable,
    /// The endpoint process restarted: the socket was torn down with all
    /// of its counter state and the application should re-establish the
    /// connection.
    Reset,
}

/// Side effects requested by the socket, executed by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Transmit the segment under this key in the [`Actions`] store.
    Transmit(StoreKey),
    /// Arm (or re-arm) a timer `delay` from now.
    ArmTimer(TimerKind, Nanos),
    /// Cancel a timer if pending.
    CancelTimer(TimerKind),
    /// Wake the application.
    Wake(WakeReason),
}

/// The socket's output buffer: the [`Action`]s its calls asked for, in
/// order, and the store every segment they transmit is written into.
///
/// A segment is put into the store once, by the transmit path that builds
/// it; from then on only its [`StoreKey`] moves. The simulation keeps one
/// `Actions` for all of its hosts and drains the list after every socket
/// call, so between events the list is empty and the store holds exactly
/// the segments in flight, each named by one `Deliver` or `SoftirqRx`
/// event until the receiving host takes it out.
#[derive(Debug, Default)]
pub struct Actions {
    pub(crate) list: Vec<Action>,
    pub(crate) segments: Store<Segment>,
}

impl Actions {
    /// An empty buffer with an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, action: Action) {
        self.list.push(action);
    }

    /// Writes `seg` into the store and lists its transmission.
    fn transmit(&mut self, seg: Segment) {
        let key = self.segments.put(seg);
        self.list.push(Action::Transmit(key));
    }

    /// The listed actions, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Action> {
        self.list.iter()
    }

    /// True when `action` is listed.
    pub fn contains(&self, action: &Action) -> bool {
        self.list.contains(action)
    }

    /// True when nothing is listed.
    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The segment a listed [`Action::Transmit`] names.
    ///
    /// # Panics
    ///
    /// Panics when the key's segment has left the store.
    pub fn segment(&self, key: StoreKey) -> &Segment {
        self.segments.get(key)
    }

    /// The store of segments: every one listed or in flight.
    pub(crate) fn segments(&self) -> &Store<Segment> {
        &self.segments
    }

    /// Discards every listed action; a listed transmission's segment
    /// leaves the store with it. For a caller that relays segments itself
    /// (a test driving two sockets by hand): the simulation instead moves
    /// each key into a `Deliver` event.
    pub fn clear(&mut self) {
        for action in self.list.drain(..) {
            if let Action::Transmit(key) = action {
                self.segments.take(key);
            }
        }
    }
}

/// Transmit-path environment the host supplies (state the socket cannot
/// know): the NIC ring occupancy, which auto-corking consults.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxEnv {
    /// Packets handed to the NIC that have not yet been completed.
    pub(crate) nic_in_flight: u32,
}

/// Everything the peer has shared with us: the latest value of each kind.
/// The estimators keep their own baselines, so nothing older is stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteStore {
    /// The latest queue-state exchange per unit, indexed by
    /// [`Unit::index`].
    pub(crate) exchanges: [Option<WireExchange>; 3],
    /// The latest application request-queue hint.
    pub hint: Option<WireSnapshot>,
    /// Shares (exchange or hint options) received in total: any fresh
    /// peer metadata bumps it.
    pub received: u64,
}

impl RemoteStore {
    /// The latest exchange in a unit.
    pub fn unit(&self, unit: Unit) -> Option<WireExchange> {
        self.exchanges[unit.index()]
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
    /// Segments retransmitted, by the RTO or in fast recovery.
    pub retransmissions: u64,
    /// Times the transmit path held a partial segment due to Nagle.
    pub nagle_holds: u64,
    /// Times the transmit path corked a partial segment.
    pub cork_holds: u64,
    /// Times the AIMD batch-limit gate held queued data.
    pub batch_limit_holds: u64,
    /// End-to-end exchanges attached to outgoing segments.
    pub exchanges_sent: u64,
    /// Duplicate ACKs received.
    pub dup_acks: u64,
    /// Segments retransmitted in fast recovery (the part of
    /// `retransmissions` no RTO waited for).
    pub fast_retransmits: u64,
    /// Fast-recovery episodes: started by the third duplicate ACK or by
    /// SACK evidence that the first unacked byte was lost (RFC 6675).
    pub sack_recoveries: u64,
    /// Retransmission timeouts that fired on data in flight.
    pub rto_fires: u64,
}

/// A simulated TCP socket: one connection's three parts and the `TRACK`
/// sink they share.
#[derive(Debug, Clone)]
pub struct TcpSocket {
    tcb: Tcb,
    tx: Tx,
    rx: Rx,
    queues: SocketQueues,
    /// Runtime conservation gates (see [`crate::invariants`]); checks are
    /// debug-only but the ledgers are always booked so tests can inspect
    /// them in any profile.
    invariants: SocketInvariants,
    stats: SocketStats,
}

impl TcpSocket {
    fn open(flow: FlowId, config: TcpConfig, now: Nanos, state: TcpState) -> Self {
        assert!(
            !config.exchange.units[Unit::Packets.index()],
            "the packet unit is not counted, so it cannot be exchanged: \
             enable bytes or messages in ExchangeConfig::units"
        );
        TcpSocket {
            tcb: Tcb {
                flow,
                config,
                state,
                epoch: 0,
            },
            tx: Tx::new(&config),
            rx: Rx::new(&config),
            queues: SocketQueues::new(now),
            invariants: SocketInvariants::new(),
            stats: SocketStats::default(),
        }
    }

    /// Creates an actively opening socket and emits its SYN.
    ///
    /// # Panics
    ///
    /// Panics if `config.exchange` enables the packet unit: packets are
    /// not counted, and exchanging them would only share zeros.
    pub fn client(flow: FlowId, config: TcpConfig, now: Nanos, actions: &mut Actions) -> Self {
        let mut sock = Self::open(flow, config, now, TcpState::SynSent);
        sock.send_handshake(now, actions);
        sock
    }

    /// Creates a passively opened socket in response to a SYN and emits the
    /// SYN-ACK.
    ///
    /// # Panics
    ///
    /// Panics if `config.exchange` enables the packet unit, as
    /// [`client`](Self::client) does.
    pub fn server_on_syn(
        flow: FlowId,
        config: TcpConfig,
        now: Nanos,
        syn: &Segment,
        actions: &mut Actions,
    ) -> Self {
        debug_assert!(syn.flags.syn);
        let mut sock = Self::open(flow, config, now, TcpState::SynReceived);
        sock.rx.on_peer_syn(syn.seq);
        sock.send_handshake(now, actions);
        sock
    }

    /// Connection identifier.
    pub(crate) fn flow(&self) -> FlowId {
        self.tcb.flow
    }

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.tcb.state
    }

    /// Assigns the counter-state generation (the host does this once at
    /// registration).
    pub(crate) fn set_epoch(&mut self, epoch: u8) {
        self.tcb.epoch = epoch;
    }

    /// Tears the socket down in place — the endpoint-restart fault. The
    /// process behind this endpoint is gone, and every bit of connection
    /// and queue-counter state went with it: the socket stops transmitting,
    /// ignores all input, and never shares counters again. The host drops
    /// the flow mapping and invalidates pending timers; the application is
    /// woken separately to re-establish a fresh connection (whose new
    /// socket gets a new epoch). Counts as an arrival (see
    /// [`arrivals`](Self::arrivals)): whoever waits on them must not sleep
    /// through the connection's death.
    pub(crate) fn reset(&mut self) {
        self.tcb.state = TcpState::Closed;
        self.tx.reset();
    }

    /// The instrumented queues.
    pub fn queues(&self) -> &SocketQueues {
        &self.queues
    }

    /// Local queue snapshots at `now` in `unit`.
    pub fn local_snapshots(&self, now: Nanos, unit: Unit) -> EndpointSnapshots {
        self.queues.snapshots(now, unit)
    }

    /// Everything the peer has shared.
    pub fn remote(&self) -> &RemoteStore {
        &self.rx.remote
    }

    /// What a continuation parked on this socket waits to see move (see
    /// `HostCtx::call_on_change`): the shares the peer's segments have
    /// brought ([`RemoteStore::received`]), plus one once the socket is
    /// reset, so that a park never outlives the connection.
    #[inline]
    pub fn arrivals(&self) -> u64 {
        self.rx.remote.received + u64::from(self.tcb.state == TcpState::Closed)
    }

    /// `TRACK`s `bytes` and `messages` into the queue `pick` picks; a call
    /// that moves neither leaves the queues alone.
    fn track(&mut self, now: Nanos, pick: PickQueue, bytes: i64, messages: i64) {
        if bytes != 0 || messages != 0 {
            pick(&mut self.queues).track(now, bytes, messages);
        }
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
        &mut self.queues
    }

    /// Runs every stateful invariant gate against the current queue and
    /// cursor state, returning the first violation. The host calls this
    /// (wrapped in [`gate`]) after each event; tests may call it directly.
    pub fn check_invariants(&mut self, now: Nanos) -> Result<(), InvariantViolation> {
        let (rcv, snd) = (&self.rx.rcv, &self.tx.snd);
        self.invariants
            .verify(&self.queues, rcv.rcv_nxt(), rcv.read_pos(), now)?;
        let state = ActuationState {
            ack_pending: self.rx.delack.has_pending(),
            has_unsent: snd.unsent() > 0,
            in_flight: snd.in_flight() > 0,
            tx_timer_armed: self.tx.rto_armed,
            cork_timer_armed: self.tx.corked,
            window_open: self.tx.window() >= self.tcb.config.mss,
            established: self.tcb.state == TcpState::Established,
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
        self.tx.rtt.srtt()
    }

    /// Delayed-ACK machinery (for stats).
    pub fn delack(&self) -> &DelAck {
        &self.rx.delack
    }

    /// Applies one control-plane [`KnobSetting`]; returns true if socket
    /// state changed. This is the only way to move a knob at runtime: the
    /// dynamic-Nagle switch (only meaningful in
    /// [`NagleMode::Dynamic`](crate::config::NagleMode::Dynamic)), the
    /// delayed-ACK mode and the gradual batching limit have no public
    /// setter.
    ///
    /// A delayed-ACK mode switch disposes of any pending ACK
    /// deterministically — flushed immediately on a switch to quick-ack
    /// (the acknowledgment the peer waits for is never dropped), re-armed
    /// from the switch instant on a timeout change. Callers must execute
    /// the returned actions and then re-run the transmit path so a
    /// loosened gate releases held data; `HostCtx::apply` does both.
    pub(crate) fn apply(
        &mut self,
        now: Nanos,
        setting: KnobSetting,
        actions: &mut Actions,
    ) -> bool {
        let KnobSetting::DelAck(mode) = setting else {
            return self.tx.apply(setting);
        };
        let changed = self.rx.delack.mode() != mode;
        let decision = self.rx.switch_ack_mode(mode);
        self.settle_ack(now, decision, actions);
        self.verify_invariants(now);
        changed
    }

    /// Installs the application's request-queue hint (the ancillary-data
    /// path of §3.3); it will be forwarded to the peer on the next
    /// transmit.
    pub(crate) fn set_hint(&mut self, snapshot: Snapshot) {
        self.tx.set_hint(snapshot);
    }

    /// Bytes available to read.
    pub fn recv_available(&self) -> usize {
        self.rx.rcv.available()
    }

    /// Accepts application data for transmission; each call marks one
    /// message boundary (the send-syscall approximation of §3.3). Returns
    /// the bytes accepted (less than `data.len()` if the buffer is full)
    /// and appends transmit actions. An owned buffer (`Vec<u8>` or
    /// [`Payload`]) is kept without a copy; borrowed bytes are copied once.
    pub fn send(
        &mut self,
        now: Nanos,
        data: impl Into<Payload>,
        env: TxEnv,
        actions: &mut Actions,
    ) -> usize {
        if self.tcb.state != TcpState::Established {
            return 0;
        }
        let accepted = self.tx.push(data.into());
        if accepted > 0 {
            self.invariants.unacked.enter(accepted as u64);
            self.track(now, |q| &mut q.unacked, accepted as i64, 1);
        }
        self.poll_transmit(now, env, actions);
        self.verify_invariants(now);
        accepted
    }

    /// Reads up to `max` bytes of in-order data into `out`, as views of
    /// the delivered segments (no copy); returns the bytes read and the
    /// number of whole messages consumed, updating the unread queue.
    pub fn recv(
        &mut self,
        now: Nanos,
        max: usize,
        out: &mut impl Extend<Payload>,
        actions: &mut Actions,
    ) -> (usize, usize) {
        let window_before = self.rx.rcv.window();
        let (bytes, messages) = self.rx.read(max, out);
        if bytes > 0 {
            self.invariants.unread.leave(bytes as u64);
            self.track(now, |q| &mut q.unread, -(bytes as i64), -(messages as i64));
            // Window-update ACK: reading reopened a window that had
            // squeezed below one MSS.
            let mss = self.tcb.config.mss;
            if window_before < mss && self.rx.rcv.window() >= 2 * mss {
                self.emit_pure_ack(now, actions);
            }
        }
        self.verify_invariants(now);
        (bytes, messages)
    }

    /// Runs the transmit path: emits as many segments as the gates
    /// (window, Nagle, cork) allow.
    pub(crate) fn poll_transmit(&mut self, now: Nanos, env: TxEnv, actions: &mut Actions) {
        if self.tcb.state != TcpState::Established {
            return;
        }
        while let Some((chunk, retransmit)) =
            self.tx
                .next_chunk(now, &self.tcb.config, env, &mut self.stats, actions)
        {
            self.emit_data(now, chunk, retransmit, actions);
        }
        self.tx.end_pass();
    }

    /// Builds every segment's header — the one place the ACK field and the
    /// advertised window are written. A SYN carries no options; every
    /// other segment carries timestamps and, while out-of-order data is
    /// held, SACK blocks; ACKs and data add what we share, when due (a due
    /// exchange waits while the SACK blocks hold its option slot).
    fn header(&mut self, now: Nanos, seq: SeqNum, flags: Flags) -> Segment {
        // The advertised window is clamped to the receive buffer capacity,
        // far under u32::MAX.
        let window = self.rx.rcv.window() as u32;
        let (flow, ack, tsecr) = (self.tcb.flow, self.rx.rcv_seq, self.rx.ts_recent);
        let mut seg = Segment::control(flow, seq, ack, flags, window);
        if !flags.syn {
            // tsval wraps mod 2^32 per RFC 7323 and is only echoed, never
            // differenced.
            let tsval = now.as_nanos() as u32;
            seg.options.timestamps = Some(TimestampOption { tsval, tsecr });
            seg.options.slot = self.rx.sack().map(OptionSlot::Sack);
            let (tcb, queues) = (&self.tcb, &self.queues);
            self.tx
                .attach_exchange(now, tcb, queues, &mut self.stats, &mut seg.options);
        }
        seg
    }

    /// (Re)sends the handshake segment the state owes — a SYN from
    /// `SynSent`, a SYN-ACK from `SynReceived` — and arms the RTO.
    fn send_handshake(&mut self, now: Nanos, actions: &mut Actions) {
        let ack = self.tcb.state == TcpState::SynReceived;
        let seg = self.header(now, Tcb::ISS, Flags { syn: true, ack });
        actions.transmit(seg);
        self.tx.arm_rto(actions);
    }

    fn emit_data(&mut self, now: Nanos, chunk: SendChunk, retx: bool, actions: &mut Actions) {
        let (offset, len) = (chunk.offset, chunk.bytes.len());
        gate(self.invariants.on_transmit(offset, len, retx));
        if retx {
            gate(
                self.invariants
                    .on_retransmit(offset, len, self.tx.sacked_overlap(offset, len)),
            );
        }
        // wire_packets <= len/mss + 1, bounded by the send buffer.
        let wire_packets = len.div_ceil(self.tcb.config.mss).max(1) as u32;
        self.tx.on_sent(now, &chunk, retx);
        let flags = Flags {
            ack: true,
            ..Flags::default()
        };
        let mut seg = self.header(now, Tcb::seq(offset), flags);
        seg.payload = chunk.bytes;
        seg.boundaries = chunk.boundaries;
        seg.wire_packets = wire_packets;
        self.ack_sent(now, true, actions);
        self.stats.data_segments_sent += 1;
        self.stats.wire_packets_sent += u64::from(wire_packets);
        self.stats.bytes_sent += len as u64;
        self.stats.retransmissions += u64::from(retx);
        actions.transmit(seg);
        self.tx.arm_rto(actions);
    }

    /// An ACK covering everything received is leaving, pure or riding data
    /// (`piggyback`): drains the ackdelay queue.
    fn ack_sent(&mut self, now: Nanos, piggyback: bool, actions: &mut Actions) {
        let [bytes, messages] = self.rx.ack_sent(piggyback, actions);
        if bytes > 0 {
            self.invariants.ackdelay.leave(bytes as u64);
        }
        self.track(now, |q| &mut q.ackdelay, -bytes, -messages);
    }

    /// Carries out a delayed-ACK decision: the ACK goes now (its timer
    /// cancelled), or its timer is (re)armed.
    fn settle_ack(&mut self, now: Nanos, decision: AckSwitch, actions: &mut Actions) {
        match decision {
            AckSwitch::Nothing => {}
            AckSwitch::Flush => {
                actions.push(Action::CancelTimer(TimerKind::Delack));
                self.emit_pure_ack(now, actions);
            }
            AckSwitch::Rearm(delay) => actions.push(Action::ArmTimer(TimerKind::Delack, delay)),
        }
    }

    fn emit_pure_ack(&mut self, now: Nanos, actions: &mut Actions) {
        let flags = Flags {
            ack: true,
            ..Flags::default()
        };
        let seg = self.header(now, Tcb::seq(self.tx.snd.nxt()), flags);
        self.ack_sent(now, false, actions);
        self.stats.pure_acks_sent += 1;
        actions.transmit(seg);
    }

    /// Processes one incoming segment. The host calls this after charging
    /// softirq receive costs.
    pub fn on_segment(&mut self, now: Nanos, seg: &Segment, env: TxEnv, actions: &mut Actions) {
        self.rx.take_options(&seg.options);
        match self.tcb.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack {
                    self.rx.on_peer_syn(seg.seq);
                    self.tcb.state = TcpState::Established;
                    // It acknowledges only our SYN: `on_ack` takes its window.
                    let (stats, invariants) = (&mut self.stats, &mut self.invariants);
                    self.tx
                        .on_ack(now, seg, self.tcb.config.mss, stats, invariants, actions);
                    self.tx.disarm_rto(actions);
                    self.emit_pure_ack(now, actions);
                    actions.push(Action::Wake(WakeReason::Connected));
                }
                return;
            }
            TcpState::SynReceived if seg.flags.ack && seg.ack == Tcb::ISS + 1 => {
                self.tcb.state = TcpState::Established;
                self.tx.disarm_rto(actions);
                actions.push(Action::Wake(WakeReason::Accepted));
                // Fall through: the ACK may carry data.
            }
            TcpState::Closed => return,
            _ => {}
        }
        if seg.flags.ack {
            self.on_ack(now, seg, actions);
        }
        // Data: `Rx` reassembles and decides the ACK; the unread and
        // ackdelay queues are booked here.
        if let Some((res, rcv_nxt_before, [bytes, messages])) = self.rx.reassemble(seg) {
            let (rcv_nxt, ooo, dup) = (self.rx.rcv.rcv_nxt(), res.out_of_order, res.duplicate);
            gate(
                self.invariants
                    .on_rx_segment(ooo, dup, rcv_nxt_before, rcv_nxt),
            );
            if res.in_order_bytes > 0 {
                self.invariants.unread.enter(res.in_order_bytes as u64);
                self.track(now, |q| &mut q.unread, bytes, messages);
                self.invariants.ackdelay.enter(res.in_order_bytes as u64);
                self.track(now, |q| &mut q.ackdelay, bytes, messages);
                actions.push(Action::Wake(WakeReason::Readable));
            }
            let rto = self.tx.rtt.rto();
            let decision = self.rx.ack_due(now, rto, seg, &res, self.tcb.config.mss);
            self.settle_ack(now, decision, actions);
        }
        // New ACKs or window may unblock the transmit path.
        self.poll_transmit(now, env, actions);
        self.verify_invariants(now);
    }

    /// ACK processing: `Tx` decides; the unacked queue is booked here.
    fn on_ack(&mut self, now: Nanos, seg: &Segment, actions: &mut Actions) {
        let (stats, invariants) = (&mut self.stats, &mut self.invariants);
        let acked = self
            .tx
            .on_ack(now, seg, self.tcb.config.mss, stats, invariants, actions);
        let [bytes, messages] = acked.freed;
        if bytes > 0 {
            self.invariants.unacked.leave(bytes as u64);
            self.track(now, |q| &mut q.unacked, -bytes, -messages);
            if self.tx.snd.room() > 0 {
                actions.push(Action::Wake(WakeReason::Writable));
            }
        }
        if let Some(chunk) = acked.fast_retransmit {
            self.emit_data(now, chunk, true, actions);
        }
    }

    /// Handles a fired timer. The host guarantees stale (cancelled) timers
    /// never reach the socket.
    pub fn on_timer(&mut self, now: Nanos, kind: TimerKind, env: TxEnv, actions: &mut Actions) {
        let handshake = matches!(self.tcb.state, TcpState::SynSent | TcpState::SynReceived);
        match kind {
            TimerKind::Delack => {
                if self.rx.on_delack_timer() {
                    self.emit_pure_ack(now, actions);
                }
            }
            TimerKind::Cork => {
                self.tx.uncork(true);
                self.poll_transmit(now, env, actions);
            }
            TimerKind::Rto if !self.tx.rto_armed => return,
            TimerKind::Rto if handshake => {
                self.tx.backoff();
                self.send_handshake(now, actions);
            }
            TimerKind::Rto => {
                self.stats.rto_fires += 1;
                self.tx.on_rto();
                self.poll_transmit(now, env, actions);
                self.tx.rearm_rto(actions);
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
    pub(crate) fn is_corked(&self) -> bool {
        self.tx.corked
    }

    /// Called by the host when the NIC ring drains: corked data may now be
    /// flushed.
    pub(crate) fn on_nic_drained(&mut self, now: Nanos, env: TxEnv, actions: &mut Actions) {
        if self.tx.uncork(false) {
            actions.push(Action::CancelTimer(TimerKind::Cork));
            self.poll_transmit(now, env, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::unwrap_seq;

    // Regression tests for the sequence-unwrap path: stream offsets are
    // u64 but wire sequence numbers are a 32-bit circular space, so a
    // long-lived flow crosses the wrap and every (seq, offset) pair must
    // survive the round trip. These pin the modular narrowing
    // `SeqNum::advance` makes for `Tcb::seq` and the ACK cursor.

    #[test]
    fn unwrap_seq_round_trips_across_u32_wrap() {
        // A flow that has already shipped just under 4 GiB: the next
        // segments straddle the sequence wrap.
        let last_offset: u64 = (1 << 32) - 1000;
        let last_seq = SeqNum::new(u32::MAX.wrapping_sub(999));
        for delta in [0u32, 1, 999, 1000, 1001, 65_535] {
            let seq = last_seq + delta;
            assert_eq!(
                unwrap_seq(seq, last_seq, last_offset),
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
            unwrap_seq(
                SeqNum::new(last_seq.raw().wrapping_sub(100)),
                last_seq,
                last_offset
            ),
            Some(last_offset - 100)
        );
        // Half the space ahead reads as behind (deltas ≥ 2³¹ are "old"):
        // it unwraps backward, not forward.
        assert_eq!(
            unwrap_seq(last_seq + (1 << 31), last_seq, last_offset),
            Some(last_offset - (1 << 31))
        );
        // Behind the start of the stream: unrepresentable, rejected.
        assert_eq!(unwrap_seq(SeqNum::new(u32::MAX), SeqNum::new(10), 10), None);
    }
}
