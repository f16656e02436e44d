//! A simulated host: CPU contexts, NIC transmit ring, and a socket table.
//!
//! Each host mirrors the paper's experimental machines: one pinned
//! application context and one pinned softirq context ([`CpuContext`]s),
//! plus a NIC whose transmit ring is what auto-corking watches. The host
//! owns its sockets and, like a real socket, exactly one timer per
//! (socket, [`TimerKind`]): the slot holds the [`EventToken`] of the pending
//! `Event::Timer` in the global event queue, so re-arming or cancelling
//! removes the superseded event from the queue instead of leaving it to
//! fire as a no-op. Beside the timers sits at most one *change watch* per
//! socket — an application continuation parked until the socket's
//! [`arrivals`](TcpSocket::arrivals) move, that is until the peer's next
//! share arrives or the socket is reset (see `HostCtx::call_on_change`).
//! A parked watch keeps no event queued: the change queues its call.

use simnet::{CpuContext, EventQueue, EventToken, Nanos};

use crate::config::{CostConfig, TcpConfig};
use crate::segment::{FlowId, Segment};
use crate::socket::{SocketId, TcpSocket, TimerKind};
use crate::table::FlowMap;

// `HostId` moved to the topology layer (hosts are graph nodes now);
// re-exported here so `tcpsim::host::HostId` keeps working.
pub use simnet::HostId;

/// An application continuation parked on one socket's
/// [`arrivals`](TcpSocket::arrivals): due at the first instant
/// `armed_at + k·period` after they move.
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// The socket's arrivals when the application parked.
    arrivals: u64,
    armed_at: Nanos,
    period: Nanos,
    /// The application's continuation token.
    token: u64,
}

/// What one socket keeps in the global event queue.
#[derive(Debug, Default)]
struct Pending {
    /// Queue token of each pending timer, indexed by [`TimerKind`]; `None`
    /// while that timer is not armed.
    timers: [Option<EventToken>; TimerKind::COUNT],
    /// The continuation parked on the socket, if any.
    watch: Option<Watch>,
}

/// One simulated machine.
#[derive(Debug)]
pub struct Host {
    /// The host's id.
    pub id: HostId,
    /// The pinned application thread.
    pub app_cpu: CpuContext,
    /// The pinned softirq (network receive/transmit) context.
    pub softirq_cpu: CpuContext,
    /// CPU cost parameters.
    pub(crate) costs: CostConfig,
    /// Configuration used for passively accepted sockets.
    pub(crate) accept_config: TcpConfig,
    sockets: Vec<TcpSocket>,
    /// Flow → socket, dense-indexed by the (small, sequential) flow id.
    flows: FlowMap<SocketId>,
    /// Packets handed to the NIC, not yet completed.
    nic_in_flight: u32,
    /// Each socket's pending timers and parked continuation, indexed by
    /// `SocketId`.
    pending: Vec<Pending>,
    /// Counter-state generations issued (wrapping); each registered socket
    /// gets the next value as its exchange epoch.
    epochs_issued: u8,
    /// Sockets that corked a partial segment and are waiting for the NIC
    /// to drain. Registered on the uncorked → corked transition (the cork
    /// timer arm), drained at every NIC completion; entries can be stale
    /// (the socket may have flushed meanwhile), so consumers re-check
    /// `is_corked`. Keeps NIC completion O(corked), not O(sockets).
    cork_waiters: Vec<SocketId>,
}

impl Host {
    /// Creates a host with the given CPU contexts and costs.
    pub fn new(
        id: HostId,
        app_cpu: CpuContext,
        softirq_cpu: CpuContext,
        costs: CostConfig,
        accept_config: TcpConfig,
    ) -> Self {
        Host {
            id,
            app_cpu,
            softirq_cpu,
            costs,
            accept_config,
            sockets: Vec::new(),
            flows: FlowMap::new(),
            nic_in_flight: 0,
            pending: Vec::new(),
            epochs_issued: 0,
            cork_waiters: Vec::new(),
        }
    }

    /// Registers a socket, returning its id. The socket is stamped with
    /// the host's next counter-state epoch, so a socket created to replace
    /// a crashed one shares counters under a fresh generation tag.
    pub fn add_socket(&mut self, mut sock: TcpSocket) -> SocketId {
        sock.set_epoch(self.epochs_issued);
        self.epochs_issued = self.epochs_issued.wrapping_add(1);
        let id = SocketId(self.sockets.len());
        self.flows.set(sock.flow(), id);
        self.sockets.push(sock);
        self.pending.push(Pending::default());
        id
    }

    /// Drops the flow mapping for a socket (the endpoint-restart fault):
    /// segments for that flow become stray deliveries and are dropped at
    /// the softirq layer, exactly as if the owning process disappeared.
    pub(crate) fn remove_flow(&mut self, flow: FlowId) {
        self.flows.remove(flow);
    }

    /// Looks up the socket serving `flow`.
    // hot-path: runs on every segment delivery; must not allocate per call
    pub(crate) fn socket_for_flow(&self, flow: FlowId) -> Option<SocketId> {
        self.flows.get(flow).copied()
    }

    /// Immutable access to a socket.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn socket(&self, id: SocketId) -> &TcpSocket {
        &self.sockets[id.0]
    }

    /// Mutable access to a socket.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn socket_mut(&mut self, id: SocketId) -> &mut TcpSocket {
        &mut self.sockets[id.0]
    }

    /// All socket ids on this host.
    pub fn socket_ids(&self) -> impl Iterator<Item = SocketId> {
        (0..self.sockets.len()).map(SocketId)
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Current NIC ring occupancy in packets.
    pub(crate) fn nic_in_flight(&self) -> u32 {
        self.nic_in_flight
    }

    /// Adds packets to the NIC ring (at transmit).
    pub(crate) fn nic_enqueue(&mut self, packets: u32) {
        self.nic_in_flight += packets;
    }

    /// Removes packets from the NIC ring (at completion interrupt).
    pub(crate) fn nic_complete(&mut self, packets: u32) {
        self.nic_in_flight = self.nic_in_flight.saturating_sub(packets);
    }

    /// Registers a socket as waiting for NIC drain to revisit its corked
    /// tail. Safe to call redundantly; NIC completion filters on the
    /// socket's live cork state.
    // hot-path: runs on every cork arm; must not allocate per call in steady state
    pub(crate) fn note_cork_wait(&mut self, sock: SocketId) {
        if self.cork_waiters.last() != Some(&sock) {
            self.cork_waiters.push(sock);
        }
    }

    /// Moves the pending cork waiters into `out` (clearing both first),
    /// preserving registration order. Both vectors keep their capacity.
    pub(crate) fn drain_cork_waiters_into(&mut self, out: &mut Vec<SocketId>) {
        out.clear();
        std::mem::swap(&mut self.cork_waiters, out);
    }

    #[inline]
    fn timer_slot(&mut self, sock: SocketId, kind: TimerKind) -> &mut Option<EventToken> {
        &mut self.pending[sock.0].timers[kind as usize]
    }

    /// Arms a timer: `event` fires `delay` from now, and the instance it
    /// supersedes, if any, leaves `queue` (first, so the new event reuses
    /// the cell that one vacates).
    // hot-path: runs on every timer arm; must not allocate per call
    pub fn arm_timer<E>(
        &mut self,
        sock: SocketId,
        kind: TimerKind,
        queue: &mut EventQueue<E>,
        delay: Nanos,
        event: E,
    ) {
        let slot = self.timer_slot(sock, kind);
        if let Some(superseded) = slot.take() {
            queue.cancel(superseded);
        }
        *slot = Some(queue.schedule(delay, event));
    }

    /// Removes a timer's pending instance, if any, from `queue`.
    // hot-path: runs on every timer arm/cancel; must not allocate per call
    pub(crate) fn cancel_timer<E>(
        &mut self,
        sock: SocketId,
        kind: TimerKind,
        queue: &mut EventQueue<E>,
    ) {
        if let Some(token) = self.timer_slot(sock, kind).take() {
            queue.cancel(token);
        }
    }

    /// Removes every pending timer of `sock` from `queue` (the socket was
    /// reset: nothing armed on the old connection may fire on the new one).
    pub(crate) fn cancel_timers<E>(&mut self, sock: SocketId, queue: &mut EventQueue<E>) {
        for token in self.pending[sock.0]
            .timers
            .iter_mut()
            .filter_map(Option::take)
        {
            queue.cancel(token);
        }
    }

    /// The pending instance of a timer was popped from the queue: the slot
    /// empties. Every dispatched `Event::Timer` is the one its slot names —
    /// superseded instances left the queue when they were superseded.
    // hot-path: runs on every timer fire; must not allocate per call
    pub(crate) fn timer_fired(&mut self, sock: SocketId, kind: TimerKind) {
        let pending = self.timer_slot(sock, kind).take();
        debug_assert!(pending.is_some(), "{kind:?} fired without being armed");
    }

    /// Whether a timer has a pending instance in the event queue.
    pub fn timer_pending(&self, sock: SocketId, kind: TimerKind) -> bool {
        self.pending[sock.0].timers[kind as usize].is_some()
    }

    /// Parks a continuation on `sock` at `now`:
    /// [`take_changed_watch`](Self::take_changed_watch) hands its call back
    /// once the socket's arrivals have moved from where they stand now. A
    /// watch still pending on the socket is superseded — one parked
    /// continuation per socket, and none of them holds a queued event.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id or a zero `period`.
    pub fn arm_watch(&mut self, sock: SocketId, now: Nanos, period: Nanos, token: u64) {
        assert!(!period.is_zero(), "a watch needs a positive period");
        let arrivals = self.socket(sock).arrivals();
        // `socket(sock)` has just bounds-checked the id.
        self.pending[sock.0].watch = Some(Watch {
            arrivals,
            armed_at: now,
            period,
            token,
        });
    }

    /// The change check every socket entry point ends in: when `sock`
    /// carries a watch and its arrivals have moved since the watch was
    /// armed, the watch is spent and the `(time, token)` of the call to
    /// queue comes back — the first instant of the watch's grid strictly
    /// after `now`. `None` otherwise.
    // hot-path: runs on every socket action batch; must not allocate per call
    #[inline]
    pub fn take_changed_watch(&mut self, sock: SocketId, now: Nanos) -> Option<(Nanos, u64)> {
        let slot = &mut self.pending.get_mut(sock.0)?.watch;
        if slot.as_ref()?.arrivals == self.sockets.get(sock.0)?.arrivals() {
            return None;
        }
        let watch = slot.take()?;
        let periods = (now - watch.armed_at).as_nanos() / watch.period.as_nanos();
        Some((watch.armed_at + watch.period * (periods + 1), watch.token))
    }

    /// Softirq receive cost for a segment: one per-delivery charge (the
    /// post-GRO skb) plus per-wire-packet and per-payload terms.
    pub(crate) fn rx_cost(&self, seg: &Segment) -> Nanos {
        self.costs.rx_per_delivery
            + self.costs.rx_per_packet * seg.wire_packets as u64
            + Nanos::from_nanos(self.costs.rx_per_kib.as_nanos() * seg.payload.len() as u64 / 1024)
    }

    /// Transmit cost for a segment (excluding the doorbell). Pure ACKs use
    /// the flat [`CostConfig::tx_ack`] cost.
    pub(crate) fn tx_cost(&self, seg: &Segment) -> Nanos {
        if seg.is_pure_ack() {
            return self.costs.tx_ack;
        }
        self.costs.tx_per_segment
            + Nanos::from_nanos(self.costs.tx_per_kib.as_nanos() * seg.payload.len() as u64 / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::segment::{E2eOption, OptionSlot};
    use crate::socket::{Actions, TxEnv};
    use littles::Nanos;

    fn host() -> Host {
        Host::new(
            HostId::from_index(0),
            CpuContext::new("app"),
            CpuContext::new("softirq"),
            CostConfig::default(),
            TcpConfig::default(),
        )
    }

    #[test]
    fn socket_registration_and_flow_lookup() {
        let mut h = host();
        let mut actions = Actions::new();
        let sock = TcpSocket::client(FlowId(7), TcpConfig::default(), Nanos::ZERO, &mut actions);
        let id = h.add_socket(sock);
        assert_eq!(h.socket_for_flow(FlowId(7)), Some(id));
        assert_eq!(h.socket_for_flow(FlowId(8)), None);
        assert_eq!(h.socket_count(), 1);
    }

    #[test]
    fn nic_ring_accounting() {
        let mut h = host();
        h.nic_enqueue(5);
        assert_eq!(h.nic_in_flight(), 5);
        h.nic_complete(3);
        assert_eq!(h.nic_in_flight(), 2);
        h.nic_complete(10);
        assert_eq!(h.nic_in_flight(), 0, "saturates at zero");
    }

    #[test]
    fn one_queue_token_per_socket_timer() {
        let mut h = host();
        let mut actions = Actions::new();
        let sock = TcpSocket::client(FlowId(7), TcpConfig::default(), Nanos::ZERO, &mut actions);
        let s = h.add_socket(sock);
        let mut q: EventQueue<TimerKind> = EventQueue::new();
        let rto = Nanos::from_millis(200);
        // Re-arming replaces the queued instance instead of adding one.
        for _ in 0..3 {
            h.arm_timer(s, TimerKind::Rto, &mut q, rto, TimerKind::Rto);
        }
        assert_eq!(q.len(), 1);
        assert!(h.timer_pending(s, TimerKind::Rto));
        // Independent per timer kind.
        assert!(!h.timer_pending(s, TimerKind::Delack));
        h.arm_timer(
            s,
            TimerKind::Delack,
            &mut q,
            Nanos::from_millis(40),
            TimerKind::Delack,
        );
        assert_eq!(q.len(), 2);
        // Firing empties the slot, so a later cancel cannot hit a stranger.
        assert_eq!(q.pop().map(|(_, k)| k), Some(TimerKind::Delack));
        h.timer_fired(s, TimerKind::Delack);
        h.cancel_timer(s, TimerKind::Delack, &mut q);
        assert_eq!(q.len(), 1);
        // A reset socket takes all of its timers out of the queue.
        h.arm_timer(
            s,
            TimerKind::Cork,
            &mut q,
            Nanos::from_micros(200),
            TimerKind::Cork,
        );
        h.cancel_timers(s, &mut q);
        assert!(q.is_empty());
        assert!(!h.timer_pending(s, TimerKind::Rto) && !h.timer_pending(s, TimerKind::Cork));
    }

    #[test]
    fn watch_hands_back_the_next_grid_instant_after_a_change() {
        let us = Nanos::from_micros;
        let mut h = host();
        let mut actions = Actions::new();
        let sock = TcpSocket::client(FlowId(7), TcpConfig::default(), Nanos::ZERO, &mut actions);
        let s = h.add_socket(sock);
        // The peer's share arrives, in a segment carrying nothing else.
        let touch = |h: &mut Host, now: Nanos| {
            let mut seg = Segment::control(
                FlowId(7),
                crate::seq::SeqNum::new(0),
                crate::seq::SeqNum::new(0),
                crate::segment::Flags::default(),
                0,
            );
            seg.options.slot = Some(OptionSlot::E2e(E2eOption::default()));
            let mut actions = Actions::new();
            h.socket_mut(s)
                .on_segment(now, &seg, TxEnv::default(), &mut actions);
        };

        // Parked at 1 ms on a 500 µs grid: however long nothing moves, the
        // watch has nothing to say.
        h.arm_watch(s, us(1_000), us(500), 9);
        assert_eq!(h.take_changed_watch(s, us(1_700)), None, "nothing moved");
        assert_eq!(h.take_changed_watch(s, us(90_000)), None, "nothing moved");

        // The tie: a change at exactly a grid instant is due one period on.
        touch(&mut h, us(2_000));
        assert_eq!(h.take_changed_watch(s, us(2_000)), Some((us(2_500), 9)));
        assert_eq!(
            h.take_changed_watch(s, us(2_000)),
            None,
            "a watch fires once"
        );

        // Mid-period: the next grid instant. A re-arm supersedes.
        h.arm_watch(s, us(2_500), us(500), 8);
        h.arm_watch(s, us(2_500), us(500), 9);
        touch(&mut h, us(2_720));
        assert_eq!(h.take_changed_watch(s, us(2_720)), Some((us(3_000), 9)));
        assert_eq!(h.take_changed_watch(s, us(2_720)), None, "superseded");

        // A change long after the park: the grid runs on from `armed_at`.
        h.arm_watch(s, us(3_000), us(500), 9);
        touch(&mut h, us(41_337));
        assert_eq!(h.take_changed_watch(s, us(41_337)), Some((us(41_500), 9)));
    }

    #[test]
    fn rx_cost_scales_with_packets_and_bytes() {
        let h = host();
        let mut small = Segment::control(
            FlowId(1),
            crate::seq::SeqNum::new(0),
            crate::seq::SeqNum::new(0),
            crate::segment::Flags::default(),
            0,
        );
        small.payload = Payload::from(vec![0u8; 100]);
        let mut big = small.clone();
        big.payload = Payload::from(vec![0u8; 10_000]);
        big.wire_packets = 7;
        assert!(h.rx_cost(&big) > h.rx_cost(&small));
    }
}
