//! The network simulation: application hosts on a graph topology.
//!
//! [`NetSim`] wires client [`Host`]s to a server host through a star
//! [`Topology`] and drives their [`TcpSocket`]s and applications as a
//! [`World`] over one global discrete-event queue. Applications implement
//! [`App`] and interact with the stack only through [`HostCtx`] — the
//! simulated socket API. The classic two-host pair is the `N = 1` special
//! case (client host 0, server host 1) and reproduces bit-identically.
//! The machinery underneath (`SimCore`) is topology-agnostic: the
//! two-tier proxy simulation (`tier`) reuses it unchanged, with requests
//! crossing two links instead of one.
//!
//! Fan-in contention is modelled faithfully: every connection terminating
//! at the server shares the *same* server [`Host`] and therefore the same
//! application-thread and softirq [`CpuContext`](simnet::CpuContext)s —
//! exactly the regime where per-packet costs and batching policies have a
//! listener-wide blast radius. Each client host keeps its own independent
//! seeded RNG, split from the simulation seed, so arrival streams are
//! independent across clients yet deterministic as a whole.
//!
//! ## Execution-context convention
//!
//! `on_wake` is invoked from *softirq context* (the moment the stack learns
//! data is available); applications must only set flags or schedule work
//! there. Real work — `recv`, request processing, `send` — happens in
//! `on_call`, which applications schedule onto the *application thread* via
//! [`HostCtx::wake_app_thread`] / [`HostCtx::call_at`], charging CPU as they
//! go. This mirrors how an epoll-driven server actually runs and is what
//! makes application batching (one wakeup amortized over several requests)
//! emerge naturally under load, as in the paper's Figure 1.

use crate::payload::Payload;
use littles::{Nanos, Snapshot};
use simnet::{
    CorruptTarget, DuplexLink, EventQueue, FaultConfig, FaultPlan, HostId, LinkConfig, LinkId,
    Pcg32, Store, StoreKey, Topology, World,
};

use crate::config::TcpConfig;
use crate::host::Host;
use crate::knob::KnobSetting;
use crate::segment::{E2eOption, FlowId, Segment};
use crate::socket::{Action, Actions, SocketId, TcpSocket, TcpState, TimerKind, TxEnv, WakeReason};
use crate::table::FlowMap;

/// Delay between a packet leaving the NIC and the transmit-completion
/// interrupt that frees its ring slot (what auto-corking waits for).
const NIC_COMPLETION_DELAY: Nanos = Nanos::from_micros(2);

/// The simulation's event alphabet.
///
/// A segment in flight is not carried by value: it sits in the
/// simulation's segment store and its two events carry the key, so every
/// event fits 24 bytes.
#[derive(Debug, Clone)]
pub enum Event {
    /// A segment finished traversing a link and reached `dst`'s NIC.
    Deliver {
        /// Destination host.
        dst: HostId,
        /// The segment's key in the segment store.
        seg: StoreKey,
    },
    /// Softirq finished processing a received segment; run TCP input.
    SoftirqRx {
        /// Receiving host.
        host: HostId,
        /// The segment's key in the segment store.
        seg: StoreKey,
    },
    /// A socket timer fired.
    Timer {
        /// Host the socket lives on.
        host: HostId,
        /// Socket the timer belongs to.
        sock: SocketId,
        /// Which timer.
        kind: TimerKind,
    },
    /// The stack wants the application's attention (softirq context).
    AppWake {
        /// Host whose application is woken.
        host: HostId,
        /// Socket the wake concerns.
        sock: SocketId,
        /// Why.
        reason: WakeReason,
    },
    /// An application-scheduled continuation (application context).
    AppCall {
        /// Host whose application runs.
        host: HostId,
        /// Opaque token the application chose.
        token: u64,
    },
    /// NIC transmit-completion interrupt.
    NicComplete {
        /// Host whose NIC completed.
        host: HostId,
        /// Ring slots freed.
        packets: u32,
    },
    /// A scheduled endpoint crash: one client host (drawn from the fault
    /// plan's restart stream) loses all socket state and must reconnect.
    Restart,
    /// A scheduled shard crash on the two-tier topology: the plan's shard
    /// host loses all socket state, and so does the far (proxy) end of every
    /// connection terminating there — both sides wake with `Reset`.
    ShardCrash,
}

/// Which CPU context pays for transmit work triggered by socket actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Charge {
    /// Application thread (send/recv/connect syscalls).
    App,
    /// Softirq (ACKs, retransmissions, timer-driven sends).
    Softirq,
}

/// The two ends of a connection: who opened it and who accepted it.
///
/// Registered when the initiating application calls
/// [`HostCtx::connect_to`]; every transmitted segment of the flow is
/// delivered to [`other`](Self::other) end, whichever host sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowRoute {
    /// The host that opened the connection.
    pub(crate) initiator: HostId,
    /// The host that accepted it.
    pub(crate) acceptor: HostId,
}

impl FlowRoute {
    /// The far end as seen from `host`.
    ///
    /// # Panics
    ///
    /// Panics when `host` is neither end of the flow.
    #[expect(
        clippy::panic,
        reason = "documented: asking a third host is a caller bug"
    )]
    pub(crate) fn other(&self, host: HostId) -> HostId {
        if host == self.initiator {
            self.acceptor
        } else if host == self.acceptor {
            self.initiator
        } else {
            panic!("{host:?} is not an end of this flow")
        }
    }
}

/// A simulated application.
///
/// See the module docs for the execution-context convention.
pub trait App {
    /// Called once at simulation start (application context).
    fn on_start(&mut self, ctx: &mut HostCtx<'_>);
    /// Called from softirq context when a socket event occurs.
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason);
    /// Called when an application-scheduled continuation fires.
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64);
}

/// The application's view of its host: the socket API plus CPU-time
/// accounting.
pub struct HostCtx<'a> {
    /// This host's id.
    pub(crate) host_id: HostId,
    /// The host (CPU contexts, sockets, NIC).
    pub(crate) host: &'a mut Host,
    /// This host's deterministic randomness stream.
    pub rng: &'a mut Pcg32,
    queue: &'a mut EventQueue<Event>,
    topology: &'a mut Topology,
    routes: &'a mut FlowMap<FlowRoute>,
    faults: &'a mut Option<FaultPlan>,
    next_flow: &'a mut u64,
    /// The simulation's one action buffer and segment store;
    /// `apply_actions` drains its list, so the list is empty between
    /// events and neither part reallocates in steady state.
    actions: &'a mut Actions,
    /// Where a plain [`connect`](Self::connect) goes (the server in a
    /// star, the proxy for two-tier clients).
    default_peer: HostId,
}

impl HostCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Opens a connection to this host's default peer (the server in a
    /// star); completion is signalled by a [`WakeReason::Connected`] wake.
    /// Charged to the application thread.
    pub fn connect(&mut self, config: TcpConfig) -> SocketId {
        self.connect_to(self.default_peer, config)
    }

    /// Opens a connection to an explicit adjacent host (the proxy's
    /// per-shard upstreams use this). Completion is signalled by a
    /// [`WakeReason::Connected`] wake. Charged to the application thread.
    ///
    /// # Panics
    ///
    /// Panics on a self-connection; the first transmit panics when no
    /// link joins the two hosts.
    pub fn connect_to(&mut self, peer: HostId, config: TcpConfig) -> SocketId {
        assert_ne!(peer, self.host_id, "cannot connect a host to itself");
        let now = self.now();
        let flow = FlowId(*self.next_flow);
        *self.next_flow += 1;
        // Segments of this flow are delivered to whichever end did not
        // send them.
        self.routes.set(
            flow,
            FlowRoute {
                initiator: self.host_id,
                acceptor: peer,
            },
        );
        let sock = TcpSocket::client(flow, config, now, self.actions);
        let id = self.host.add_socket(sock);
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        self.run_actions(id);
        id
    }

    /// Sends application data (one message boundary per call — the
    /// send-syscall approximation). Returns bytes accepted. Charged to the
    /// application thread. An owned buffer moves into the send buffer
    /// without a copy; a caller keeps a [`Payload`] clone to resend the
    /// rejected tail as `wire.slice(accepted, wire.len())`.
    pub fn send(&mut self, sock: SocketId, data: impl Into<Payload>) -> usize {
        let now = self.now();
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        let env = TxEnv {
            nic_in_flight: self.host.nic_in_flight(),
        };
        let accepted = self
            .host
            .socket_mut(sock)
            .send(now, data, env, self.actions);
        self.run_actions(sock);
        accepted
    }

    /// Like [`send`](Self::send), but first installs the application's
    /// request-queue hint (the ancillary-data path of §3.3).
    pub fn send_with_hint(
        &mut self,
        sock: SocketId,
        data: impl Into<Payload>,
        hint: Snapshot,
    ) -> usize {
        self.host.socket_mut(sock).set_hint(hint);
        self.send(sock, data)
    }

    /// Reads up to `max` in-order bytes into `out`, as views of what the
    /// peer sent (no copy); returns the bytes read and the number of whole
    /// messages consumed. Charged to the application thread.
    pub fn recv(
        &mut self,
        sock: SocketId,
        max: usize,
        out: &mut impl Extend<Payload>,
    ) -> (usize, usize) {
        let now = self.now();
        let syscall = self.host.costs.syscall;
        self.host.app_cpu.run(now, syscall);
        let read = self.host.socket_mut(sock).recv(now, max, out, self.actions);
        self.run_actions(sock);
        read
    }

    /// Charges `cost` of work to the application thread; returns the time
    /// the work completes (serialized behind earlier app work).
    pub fn charge_app(&mut self, cost: Nanos) -> Nanos {
        let now = self.now();
        self.host.app_cpu.run(now, cost)
    }

    /// When the application thread becomes free.
    pub fn app_free_at(&self) -> Nanos {
        self.host.app_cpu.busy_until().max(self.now())
    }

    /// Schedules `on_call(token)` at an absolute time.
    pub fn call_at(&mut self, at: Nanos, token: u64) {
        self.queue.schedule_at(
            at,
            Event::AppCall {
                host: self.host_id,
                token,
            },
        );
    }

    /// Schedules `on_call(token)` after a delay.
    pub fn call_after(&mut self, delay: Nanos, token: u64) {
        self.call_at(self.now().saturating_add(delay), token);
    }

    /// Standard wakeup path: charges the wakeup cost to the application
    /// thread and schedules `on_call(token)` at its completion. Call this
    /// from `on_wake` to transfer control to application context.
    pub fn wake_app_thread(&mut self, token: u64) {
        let cost = self.host.costs.app_wakeup;
        let done = self.charge_app(cost);
        self.call_at(done, token);
    }

    /// Parks a periodic continuation until the peer shares something:
    /// schedules `on_call(token)` at the first instant `now + k·period`
    /// strictly after the event in which `sock`'s
    /// [`arrivals`](TcpSocket::arrivals) move from where they stand now (a
    /// share arrives, or the socket is reset) — exactly one call, and
    /// until the change nothing is queued. At each grid instant in
    /// between, a periodic `call_after(period, token)` chain would have
    /// found no new share.
    ///
    /// **Tie rule.** The call is queued when the change is noticed, so
    /// among events carrying its exact nanosecond it runs after those
    /// already queued; a periodic chain's call, queued one period earlier,
    /// runs before anything queued during that period. The two orders
    /// differ only when another event on this host lands exactly on a grid
    /// instant, and then by rule: a change at exactly `now + k·period`
    /// leaves that instant unchanged-as-found and the call comes one
    /// period later.
    pub fn call_on_change(&mut self, sock: SocketId, period: Nanos, token: u64) {
        let now = self.now();
        self.host.arm_watch(sock, now, period, token);
    }

    /// Whether the run's fault plan can reset a connection: it schedules
    /// endpoint restarts or shard crashes.
    pub fn faults_reset_connections(&self) -> bool {
        self.faults.as_ref().is_some_and(|plan| {
            let config = plan.config();
            config.restart.is_some() || config.shard.crash.is_some()
        })
    }

    /// Applies one control-plane [`KnobSetting`] to a socket through the
    /// uniform actuation path: dispatches to the socket's `apply`,
    /// executes any disposal actions it emits (a delayed-ACK flush or
    /// timer re-arm, in app context), and re-runs the transmit path so a
    /// changed gate takes effect immediately. Returns true if socket
    /// state changed.
    pub fn apply(&mut self, sock: SocketId, setting: KnobSetting) -> bool {
        let now = self.now();
        let changed = self.host.socket_mut(sock).apply(now, setting, self.actions);
        if !self.actions.is_empty() {
            self.run_actions(sock);
        }
        self.repoll(sock);
        changed
    }

    /// Re-runs a socket's transmit path after an actuator changed its
    /// gating state, applying any resulting actions in app context.
    fn repoll(&mut self, sock: SocketId) {
        let now = self.now();
        let env = TxEnv {
            nic_in_flight: self.host.nic_in_flight(),
        };
        self.host
            .socket_mut(sock)
            .poll_transmit(now, env, self.actions);
        self.run_actions(sock);
    }

    /// Immutable access to a socket (for estimators and policies).
    pub fn socket(&self, sock: SocketId) -> &TcpSocket {
        self.host.socket(sock)
    }

    /// Executes what a call into `sock` left in the action buffer, charged
    /// to the application thread.
    fn run_actions(&mut self, sock: SocketId) {
        apply_actions(
            self.host,
            self.topology,
            self.routes,
            self.queue,
            self.faults,
            sock,
            self.actions,
            Charge::App,
        );
    }
}

/// Executes socket actions: transmits segments (charging CPU, ringing the
/// doorbell, driving the right directed link), manages timers, and queues
/// app wakes. The destination host comes from the flow's [`FlowRoute`]
/// (registered at `connect_to` time): whichever end did not send the
/// segment receives it.
#[expect(
    clippy::too_many_arguments,
    reason = "split borrows of SimCore: each argument is a disjoint field"
)]
fn apply_actions(
    host: &mut Host,
    topology: &mut Topology,
    routes: &FlowMap<FlowRoute>,
    queue: &mut EventQueue<Event>,
    faults: &mut Option<FaultPlan>,
    sock: SocketId,
    actions: &mut Actions,
    charge: Charge,
) {
    let now = queue.now();
    let host_id = host.id;
    // Every socket entry point ends here, so this is where a continuation
    // parked on the socket's arrivals learns that they moved.
    release_watch(host, sock, queue);
    let mut transmitted = false;
    let Actions { list, segments } = actions;
    for action in list.drain(..) {
        match action {
            Action::Transmit(key) => {
                let seg = segments.get_mut(key);
                let cost = host.tx_cost(seg);
                let cpu = match charge {
                    Charge::App => &mut host.app_cpu,
                    Charge::Softirq => &mut host.softirq_cpu,
                };
                cpu.run(now, cost);
                // Pure ACKs ride a prebuilt skb with no doorbell of their
                // own; data segments pay one doorbell per flush batch.
                transmitted |= !seg.is_pure_ack();
                host.nic_enqueue(seg.wire_packets);
                let depart = match charge {
                    Charge::App => host.app_cpu.busy_until(),
                    Charge::Softirq => host.softirq_cpu.busy_until(),
                };
                #[expect(
                    clippy::expect_used,
                    reason = "a flow is routed before its first segment"
                )]
                let dst = routes
                    .get(seg.flow)
                    .expect("transmit on an unrouted flow")
                    .other(host_id);
                let wire_len = seg.wire_len();
                let (link_id, a_to_b) = topology.hop_index(host_id, dst);
                let link = topology.directed_mut(link_id, a_to_b);
                let at = link.transmit(depart, wire_len);
                let serialized_at = link.busy_until().max(depart);
                queue.schedule_at(
                    serialized_at + NIC_COMPLETION_DELAY,
                    Event::NicComplete {
                        host: host_id,
                        packets: seg.wire_packets,
                    },
                );
                // The fault layer sits above the link: it may drop,
                // duplicate, or delay the packet after serialization.
                // Handshake segments are exempt so a duplicated SYN can't
                // mint phantom server sockets.
                let mut arrival = Some(at);
                let mut duplicate = false;
                if let Some(plan) = faults.as_mut() {
                    if !seg.flags.syn {
                        let decision = plan.on_transmit(link_id, a_to_b, depart);
                        if decision.drop {
                            topology.directed_mut(link_id, a_to_b).record_drop();
                            arrival = None;
                        } else {
                            arrival = Some(at + decision.extra_delay);
                            duplicate = decision.duplicate;
                            // Corruption garbles only the exchange option —
                            // the data payload survives, but the shared
                            // counters lie. Applied before duplication so
                            // both copies carry the same lie.
                            if let Some(opt) = seg.options.e2e_mut() {
                                if let Some(target) = plan.corrupt_exchange(link_id, a_to_b, depart)
                                {
                                    garble_e2e(opt, target);
                                }
                            }
                        }
                    }
                }
                let Some(arrival) = arrival else {
                    // Lost on the wire: the segment leaves the store here.
                    segments.take(key);
                    continue;
                };
                if duplicate {
                    let copy = segments.put(segments.get(key).clone());
                    queue.schedule_at(
                        arrival + Nanos::from_micros(1),
                        Event::Deliver { dst, seg: copy },
                    );
                }
                queue.schedule_at(arrival, Event::Deliver { dst, seg: key });
            }
            Action::ArmTimer(kind, delay) => {
                if kind == TimerKind::Cork {
                    // The cork timer arms exactly on the uncorked → corked
                    // transition, so this keeps the host's NIC-drain
                    // waiter list covering every corked socket.
                    host.note_cork_wait(sock);
                }
                let event = Event::Timer {
                    host: host_id,
                    sock,
                    kind,
                };
                host.arm_timer(sock, kind, queue, delay, event);
            }
            Action::CancelTimer(kind) => host.cancel_timer(sock, kind, queue),
            Action::Wake(reason) => {
                queue.schedule(
                    Nanos::ZERO,
                    Event::AppWake {
                        host: host_id,
                        sock,
                        reason,
                    },
                );
            }
        }
    }
    if transmitted {
        // One doorbell per action batch (xmit_more-style amortization).
        let cpu = match charge {
            Charge::App => &mut host.app_cpu,
            Charge::Softirq => &mut host.softirq_cpu,
        };
        cpu.run(now, host.costs.tx_doorbell);
    }
}

/// Queues the call of the continuation parked on `sock` (see
/// [`HostCtx::call_on_change`]) if the socket's arrivals have moved under
/// it.
// hot-path: runs on every socket action batch; must not allocate per call
#[inline]
fn release_watch(host: &mut Host, sock: SocketId, queue: &mut EventQueue<Event>) {
    if let Some((at, token)) = host.take_changed_watch(sock, queue.now()) {
        queue.schedule_at(
            at,
            Event::AppCall {
                host: host.id,
                token,
            },
        );
    }
}

/// One socket's share of a crash: its state is gone ([`TcpSocket::reset`]),
/// its flow mapping and pending timers with it, a continuation parked on
/// it is released (the reset counts as an arrival), and the application wakes
/// with `Reset`.
fn crash_socket(host: &mut Host, sock: SocketId, queue: &mut EventQueue<Event>) {
    let host_id = host.id;
    let flow = host.socket(sock).flow();
    host.socket_mut(sock).reset();
    host.remove_flow(flow);
    host.cancel_timers(sock, queue);
    release_watch(host, sock, queue);
    queue.schedule(
        Nanos::ZERO,
        Event::AppWake {
            host: host_id,
            sock,
            reason: WakeReason::Reset,
        },
    );
}

/// Applies one deterministic bit flip to an exchange option. Fields
/// `0..=8` target a counter — `field / 3` selects the queue (unacked,
/// unread, ackdelay), `field % 3` the `(time, total, integral)` component
/// — in every carried unit; field `9` flips a bit of the epoch tag (a
/// spurious-restart signal: safe degradation rather than poisoning).
fn garble_e2e(opt: &mut E2eOption, target: CorruptTarget) {
    if target.field == 9 {
        opt.epoch ^= 1 << (target.bit % 8);
        return;
    }
    let mask = 1u32 << (target.bit % 32);
    for ex in opt.exchanges.iter_mut().flatten() {
        let queue = match target.field / 3 {
            0 => &mut ex.unacked,
            1 => &mut ex.unread,
            _ => &mut ex.ackdelay,
        };
        match target.field % 3 {
            0 => queue.time ^= mask,
            1 => queue.total ^= mask,
            _ => queue.integral ^= mask,
        }
    }
}

/// What a non-application event resolved to: an application entry point
/// the owning simulation must dispatch (it knows which app runs on which
/// host — the core does not).
pub(crate) enum AppEvent {
    /// Deliver `on_wake(sock, reason)` to `host`'s application.
    Wake(HostId, SocketId, WakeReason),
    /// Deliver `on_call(token)` to `host`'s application.
    Call(HostId, u64),
}

/// The topology-agnostic simulation machinery: hosts, links, flow routes,
/// per-host RNG streams, fault state, and the handling of every event that
/// does not enter application code. [`NetSim`] (star) and the two-tier
/// proxy simulation both wrap one of these; only app dispatch differs.
pub(crate) struct SimCore {
    pub(crate) hosts: Vec<Host>,
    pub(crate) topology: Topology,
    /// Flow → endpoint pair, registered at `connect_to`.
    pub(crate) routes: FlowMap<FlowRoute>,
    /// Per-host RNG streams. Host 0 carries the legacy stream
    /// `Pcg32::new(seed)` (so N = 1 replays the two-host pair bit-for-bit);
    /// the rest are independent children forked from one splitter.
    pub(crate) rngs: Vec<Pcg32>,
    /// Fault-injection state; `None` (the lossless default) is guaranteed
    /// not to perturb the simulation in any way.
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) next_flow: u64,
    /// The one action buffer, and the store of every segment in flight
    /// (see `HostCtx::actions`).
    pub(crate) actions: Actions,
    /// Reused NIC-drain waiter buffer (see the `NicComplete` arm).
    pub(crate) cork_scratch: Vec<SocketId>,
    /// Hosts `0..restart_pool` are eligible targets for scheduled
    /// endpoint restarts (the client tier).
    pub(crate) restart_pool: usize,
    /// Shard tier location on the two-tier topology: `(first_host, count)`
    /// — shard `j` runs on host `first_host + j` and its back-leg link is
    /// `LinkId(first_host - 1 + j)`. `None` on star topologies, where
    /// shard faults are inert.
    pub(crate) shard_tier: Option<(usize, usize)>,
    /// Per-host default `connect()` peer (a host with no meaningful
    /// default — e.g. the server itself — points at itself, which
    /// `connect_to` rejects).
    pub(crate) default_peers: Vec<HostId>,
}

impl SimCore {
    /// Assembles a core over `topology`. Host `i` must carry
    /// `HostId::from_index(i)`; `default_peers[i]` is where host `i`'s
    /// plain `connect()` goes.
    ///
    /// # Panics
    ///
    /// Panics when the host list does not match the topology or a host id
    /// does not match its index.
    pub(crate) fn new(
        hosts: Vec<Host>,
        topology: Topology,
        default_peers: Vec<HostId>,
        restart_pool: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(hosts.len(), topology.num_hosts(), "one host per node");
        assert_eq!(
            hosts.len(),
            default_peers.len(),
            "one default peer per host"
        );
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(
                h.id,
                HostId::from_index(i),
                "host {i} must carry HostId({i})"
            );
        }
        // Host 0 keeps the exact legacy stream; the remaining hosts get
        // independent children split from one seeded splitter, so client
        // arrival processes never share draws.
        let mut splitter = Pcg32::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let rngs = (0..hosts.len())
            .map(|i| {
                if i == 0 {
                    Pcg32::new(seed)
                } else {
                    splitter.fork()
                }
            })
            .collect();
        SimCore {
            hosts,
            topology,
            routes: FlowMap::new(),
            rngs,
            faults: None,
            next_flow: 1,
            actions: Actions::new(),
            cork_scratch: Vec::new(),
            restart_pool,
            shard_tier: None,
            default_peers,
        }
    }

    /// Installs a fault plan (and the server-stall schedule on `stall_on`,
    /// when configured). A fully disabled config is a no-op.
    pub(crate) fn install_faults(&mut self, config: FaultConfig, seed: u64, stall_on: HostId) {
        if !config.is_enabled() {
            return;
        }
        if let Some(stall) = config.server_stall {
            self.hosts[stall_on.index()]
                .app_cpu
                .set_stall_schedule(stall);
        }
        if let Some((first, count)) = self.shard_tier {
            if let Some(b) = config.shard.brownout {
                assert!(b.shard < count, "brownout shard {} of {count}", b.shard);
                self.hosts[first + b.shard]
                    .app_cpu
                    .set_stall_schedule(b.windows);
            }
            if let Some(c) = config.shard.crash {
                assert!(c.shard < count, "crash shard {} of {count}", c.shard);
            }
        }
        let links = self.topology.num_links();
        self.faults = Some(FaultPlan::new(config, seed, links));
    }

    /// Queues the first scheduled restart, when the fault plan has one.
    pub(crate) fn schedule_first_restart(&self, queue: &mut EventQueue<Event>) {
        if let Some(rs) = self.faults.as_ref().and_then(|p| p.config().restart) {
            queue.schedule_at(rs.first_at, Event::Restart);
        }
    }

    /// Queues the first scheduled shard crash, when the fault plan has one
    /// and the topology actually carries a shard tier.
    pub(crate) fn schedule_first_shard_crash(&self, queue: &mut EventQueue<Event>) {
        if self.shard_tier.is_none() {
            return;
        }
        if let Some(c) = self.faults.as_ref().and_then(|p| p.config().shard.crash) {
            queue.schedule_at(c.schedule.first_at, Event::ShardCrash);
        }
    }

    /// An application context for `h`, split-borrowing the core.
    pub(crate) fn ctx<'a>(
        &'a mut self,
        queue: &'a mut EventQueue<Event>,
        h: HostId,
    ) -> HostCtx<'a> {
        let SimCore {
            hosts,
            topology,
            routes,
            rngs,
            faults,
            next_flow,
            actions,
            default_peers,
            ..
        } = self;
        HostCtx {
            host_id: h,
            host: &mut hosts[h.index()],
            rng: &mut rngs[h.index()],
            queue,
            topology,
            routes,
            faults,
            next_flow,
            actions,
            default_peer: default_peers[h.index()],
        }
    }

    /// Executes what softirq-context work on `h`'s socket `sock` left in
    /// the action buffer, charged to the softirq context.
    fn run_softirq_actions(&mut self, queue: &mut EventQueue<Event>, h: HostId, sock: SocketId) {
        apply_actions(
            &mut self.hosts[h.index()],
            &mut self.topology,
            &self.routes,
            queue,
            &mut self.faults,
            sock,
            &mut self.actions,
            Charge::Softirq,
        );
    }

    /// Handles one event. Stack-internal events (delivery, softirq, timers,
    /// NIC completions, restarts) are fully absorbed; events that must
    /// enter application code come back as an [`AppEvent`] for the owning
    /// simulation to dispatch.
    pub(crate) fn handle_infra(
        &mut self,
        queue: &mut EventQueue<Event>,
        event: Event,
    ) -> Option<AppEvent> {
        let now = queue.now();
        match event {
            Event::Deliver { dst, seg } => {
                let host = &mut self.hosts[dst.index()];
                let cost = host.rx_cost(self.actions.segment(seg));
                let done = host.softirq_cpu.run(now, cost);
                queue.schedule_at(done, Event::SoftirqRx { host: dst, seg });
            }
            Event::SoftirqRx { host: h, seg } => {
                // The segment leaves the store here, before the flow
                // lookup, so a stray for an unknown flow leaves it too.
                let seg = self.actions.segments.take(seg);
                let host = &mut self.hosts[h.index()];
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                let sock_id = match host.socket_for_flow(seg.flow) {
                    Some(id) => {
                        let sock = host.socket_mut(id);
                        sock.on_segment(now, &seg, env, &mut self.actions);
                        // Conservation gates run after every stack entry
                        // point (debug builds only; see tcpsim::invariants).
                        if cfg!(debug_assertions) {
                            crate::invariants::gate(sock.check_invariants(now));
                        }
                        id
                    }
                    None if seg.flags.syn && !seg.flags.ack => {
                        let config = host.accept_config;
                        let sock = TcpSocket::server_on_syn(
                            seg.flow,
                            config,
                            now,
                            &seg,
                            &mut self.actions,
                        );
                        host.add_socket(sock)
                    }
                    None => return None, // stray segment for an unknown flow
                };
                self.run_softirq_actions(queue, h, sock_id);
            }
            Event::Timer {
                host: h,
                sock,
                kind,
            } => {
                let host = &mut self.hosts[h.index()];
                host.timer_fired(sock, kind);
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                {
                    let s = host.socket_mut(sock);
                    s.on_timer(now, kind, env, &mut self.actions);
                    if cfg!(debug_assertions) {
                        crate::invariants::gate(s.check_invariants(now));
                    }
                }
                self.run_softirq_actions(queue, h, sock);
            }
            Event::NicComplete { host: h, packets } => {
                let host = &mut self.hosts[h.index()];
                host.nic_complete(packets);
                let env = TxEnv {
                    nic_in_flight: host.nic_in_flight(),
                };
                // Visit only sockets registered as cork waiters (the arm
                // site in `apply_actions` covers every uncorked → corked
                // transition) instead of scanning all N sockets per NIC
                // completion — at N = 1024 fan-in that scan dominated the
                // event loop. Entries can be stale; `is_corked` filters.
                let mut waiters = std::mem::take(&mut self.cork_scratch);
                host.drain_cork_waiters_into(&mut waiters);
                // Ascending socket order, one visit per socket — the
                // visit sequence is exactly the full scan's, minus the
                // uncorked sockets it would have skipped anyway.
                waiters.sort_unstable();
                waiters.dedup();
                for &id in &waiters {
                    let host = &mut self.hosts[h.index()];
                    if !host.socket(id).is_corked() {
                        continue;
                    }
                    host.socket_mut(id)
                        .on_nic_drained(now, env, &mut self.actions);
                    self.run_softirq_actions(queue, h, id);
                    let host = &mut self.hosts[h.index()];
                    if host.socket(id).is_corked() {
                        // Still held (e.g. the NIC is busy again): keep it
                        // on the waiter list for the next completion.
                        host.note_cork_wait(id);
                    }
                }
                self.cork_scratch = waiters;
            }
            Event::Restart => {
                let plan = self.faults.as_mut()?;
                let target = plan.pick_restart_target(self.restart_pool);
                if let Some(rs) = plan.config().restart {
                    if !rs.period.is_zero() {
                        queue.schedule(rs.period, Event::Restart);
                    }
                }
                // The crash: every live socket on the target host loses
                // its state. The flow mapping is dropped so in-flight and
                // retransmitted segments for the old connection are
                // discarded as strays (the softirq path ignores unknown
                // flows that are not SYNs); pending timers leave the event
                // queue. The application is woken
                // with `Reset` to re-establish a fresh connection, whose
                // new socket gets a new epoch.
                let host = &mut self.hosts[target];
                for i in 0..host.socket_count() {
                    if host.socket(SocketId(i)).state() != TcpState::Closed {
                        crash_socket(host, SocketId(i), queue);
                    }
                }
            }
            Event::ShardCrash => {
                let (first, _) = self.shard_tier?;
                let crash = self.faults.as_mut()?.fire_shard_crash()?;
                if !crash.schedule.period.is_zero() {
                    queue.schedule(crash.schedule.period, Event::ShardCrash);
                }
                let target = first + crash.shard;
                // A shard crash takes down *both ends* of every connection
                // terminating at the shard: the shard host loses its socket
                // state exactly like a client restart, and the far (proxy)
                // end is reset too — the peer of a crashed process observes
                // a connection reset, not a silent stall. Both applications
                // wake with `Reset`; in-flight segments for the dead flows
                // are dropped as strays by the softirq path.
                let mut ends: Vec<(usize, SocketId)> = Vec::new();
                {
                    let host = &self.hosts[target];
                    for i in 0..host.socket_count() {
                        let id = SocketId(i);
                        if host.socket(id).state() != TcpState::Closed {
                            ends.push((target, id));
                        }
                    }
                }
                let far: Vec<(usize, SocketId)> = ends
                    .iter()
                    .filter_map(|&(_, id)| {
                        let flow = self.hosts[target].socket(id).flow();
                        let route = self.routes.get(flow)?;
                        let other = route.other(HostId::from_index(target));
                        let peer = self.hosts[other.index()].socket_for_flow(flow)?;
                        Some((other.index(), peer))
                    })
                    .collect();
                ends.extend(far);
                for (h, id) in ends {
                    crash_socket(&mut self.hosts[h], id, queue);
                }
            }
            Event::AppWake {
                host: h,
                sock,
                reason,
            } => return Some(AppEvent::Wake(h, sock, reason)),
            Event::AppCall { host: h, token } => return Some(AppEvent::Call(h, token)),
        }
        None
    }
}

/// A complete star simulation: N client apps, one server app, their hosts,
/// and the topology joining them.
pub struct NetSim<C: App, S: App> {
    /// The client applications (client `i` runs on host `i`).
    pub clients: Vec<C>,
    /// The server application (runs on host `num_clients`).
    pub server: S,
    core: SimCore,
}

impl<C: App, S: App> NetSim<C, S> {
    /// Assembles the classic two-host simulation (the N = 1 star).
    pub fn new(
        client: C,
        server: S,
        client_host: Host,
        server_host: Host,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        Self::star(
            vec![client],
            server,
            vec![client_host],
            server_host,
            link_config,
            seed,
        )
    }

    /// Assembles an N-client star simulation. Client host `i` must carry
    /// `HostId(i)`; the server host must carry `HostId(num_clients)`.
    ///
    /// # Panics
    ///
    /// Panics when `clients` is empty, the lengths disagree, or a host id
    /// does not match its topology index.
    pub fn star(
        clients: Vec<C>,
        server: S,
        client_hosts: Vec<Host>,
        server_host: Host,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        assert!(
            !clients.is_empty(),
            "star simulation needs at least one client"
        );
        assert_eq!(clients.len(), client_hosts.len(), "one host per client app");
        let n = clients.len();
        let server_id = HostId::from_index(n);
        let mut hosts = client_hosts;
        hosts.push(server_host);
        // Every host's plain connect() goes to the server (the server's
        // own self-entry is rejected by connect_to, as it should be).
        let default_peers = vec![server_id; n + 1];
        let core = SimCore::new(
            hosts,
            Topology::star(n, link_config),
            default_peers,
            n,
            seed,
        );
        NetSim {
            clients,
            server,
            core,
        }
    }

    /// Like [`star`](Self::star), but with a fault-injection plan layered
    /// over the links (and, for stall schedules, over the server's
    /// application thread). A fully disabled `FaultConfig` (the default)
    /// leaves the simulation bit-identical to [`star`](Self::star).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`star`](Self::star).
    pub fn star_with_faults(
        clients: Vec<C>,
        server: S,
        client_hosts: Vec<Host>,
        server_host: Host,
        link_config: LinkConfig,
        seed: u64,
        fault_config: FaultConfig,
    ) -> Self {
        let mut sim = Self::star(
            clients,
            server,
            client_hosts,
            server_host,
            link_config,
            seed,
        );
        let server_id = sim.server_id();
        sim.core.install_faults(fault_config, seed, server_id);
        sim
    }

    /// Invokes every application's `on_start` — the server first (so it is
    /// listening before any client connects), then clients in host order.
    /// When the fault plan schedules endpoint restarts, the first crash
    /// event is queued here.
    pub fn start(&mut self, queue: &mut EventQueue<Event>) {
        self.core.schedule_first_restart(queue);
        let server_id = self.server_id();
        self.server.on_start(&mut self.core.ctx(queue, server_id));
        for (i, client) in self.clients.iter_mut().enumerate() {
            client.on_start(&mut self.core.ctx(queue, HostId::from_index(i)));
        }
    }

    /// Number of client hosts.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Id of the server host.
    fn server_id(&self) -> HostId {
        HostId::from_index(self.clients.len())
    }

    /// The first client application (convenience for the N = 1 case).
    pub fn client(&self) -> &C {
        &self.clients[0]
    }

    /// Mutable access to the first client application.
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.clients[0]
    }

    /// Access a host by index.
    pub fn host(&self, idx: usize) -> &Host {
        &self.core.hosts[idx]
    }

    /// Mutable access to a host by index.
    pub fn host_mut(&mut self, idx: usize) -> &mut Host {
        &mut self.core.hosts[idx]
    }

    /// The server host (shared by every connection).
    pub fn server_host(&self) -> &Host {
        &self.core.hosts[self.clients.len()]
    }

    /// The link serving client `i`.
    pub fn link_for(&self, client: usize) -> &DuplexLink {
        self.core.topology.link(LinkId::from_index(client))
    }

    /// The fault plan, if fault injection is active (for audit counters).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.faults.as_ref()
    }

    /// The store of segments in flight: `len()` is what the queue's
    /// `Deliver` and `SoftirqRx` events name now, `high_water()` the most
    /// it ever held.
    pub fn segment_store(&self) -> &Store<Segment> {
        self.core.actions.segments()
    }
}

impl<C: App, S: App> World for NetSim<C, S> {
    type Event = Event;

    fn handle(&mut self, queue: &mut EventQueue<Event>, event: Event) {
        let Some(app) = self.core.handle_infra(queue, event) else {
            return;
        };
        let server_id = self.server_id();
        match app {
            AppEvent::Wake(h, sock, reason) => {
                let mut ctx = self.core.ctx(queue, h);
                if h == server_id {
                    self.server.on_wake(&mut ctx, sock, reason);
                } else {
                    self.clients[h.index()].on_wake(&mut ctx, sock, reason);
                }
            }
            AppEvent::Call(h, token) => {
                let mut ctx = self.core.ctx(queue, h);
                if h == server_id {
                    self.server.on_call(&mut ctx, token);
                } else {
                    self.clients[h.index()].on_call(&mut ctx, token);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest event sets every wheel cell's size. A segment rides
    /// its two events as a store key, so a segment put back inline (a
    /// 240-byte `Segment`) fails here rather than in a benchmark.
    #[test]
    fn event_stays_within_24_bytes() {
        assert!(
            std::mem::size_of::<Event>() <= 24,
            "{}",
            std::mem::size_of::<Event>()
        );
    }

    /// Every socket call's actions pass through one buffer; a transmission
    /// carries its segment's key, not the segment.
    #[test]
    fn action_stays_within_16_bytes() {
        assert!(
            std::mem::size_of::<Action>() <= 16,
            "{}",
            std::mem::size_of::<Action>()
        );
    }
}
