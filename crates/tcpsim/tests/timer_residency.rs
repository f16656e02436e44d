//! Timer residency: a socket has one timer of each kind, and only its
//! current arm is ever in the event queue.
//!
//! Every ACK re-arms the RTO. When a re-arm *added* an `Event::Timer` and
//! left the superseded one to pop as a no-op 200 ms later, a single busy
//! connection kept ~93 000 dead events resident and a quarter of all
//! dispatched events did nothing. These tests pin the replacement: the
//! queue holds a handful of events at steady state however long the run,
//! every dispatched `Event::Timer` is the pending arm of its slot, and a
//! socket reset by `Restart` / `ShardCrash` takes its timers out of the
//! queue with it.

use littles::Nanos;
use simnet::{
    CpuContext, EventQueue, FaultConfig, HostId, LinkConfig, RestartSchedule, ShardCrash,
    ShardFaultPlan, World,
};
use tcpsim::config::{CostConfig, TcpConfig};
use tcpsim::host::Host;
use tcpsim::sim::{App, Event, HostCtx, NetSim};
use tcpsim::socket::{SocketId, TcpState, TimerKind, WakeReason};
use tcpsim::tier::TierSim;
use tcpsim::Payload;

/// Everything readable on `sock`, flattened into one buffer.
fn recv_flat(ctx: &mut HostCtx<'_>, sock: SocketId) -> Vec<u8> {
    let mut views: Vec<Payload> = Vec::new();
    ctx.recv(sock, usize::MAX, &mut views);
    views.concat()
}

const TICK: u64 = u64::MAX;
const KINDS: [TimerKind; TimerKind::COUNT] = [TimerKind::Rto, TimerKind::Delack, TimerKind::Cork];

/// Sends one small request every `period` on one connection, reads
/// whatever comes back, and reconnects when the connection is reset.
struct PacedClient {
    period: Nanos,
    sock: Option<SocketId>,
    received: u64,
    resets: u32,
}

impl PacedClient {
    fn new(period: Nanos) -> Self {
        PacedClient {
            period,
            sock: None,
            received: 0,
            resets: 0,
        }
    }
}

impl App for PacedClient {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.sock = Some(ctx.connect(TcpConfig::default()));
        ctx.call_after(self.period, TICK);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset => {
                self.resets += 1;
                self.sock = Some(ctx.connect(TcpConfig::default()));
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == TICK {
            let sock = self.sock.expect("connecting since on_start");
            if ctx.socket(sock).state() == TcpState::Established {
                ctx.send(sock, vec![b'x'; 64]);
            }
            ctx.call_after(self.period, TICK);
        } else {
            self.received += recv_flat(ctx, SocketId(token as usize)).len() as u64;
        }
    }
}

/// Reads whatever arrives and writes it straight back.
struct EchoServer;

impl App for EchoServer {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        if reason == WakeReason::Readable {
            ctx.wake_app_thread(sock.0 as u64);
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = SocketId(token as usize);
        let data = recv_flat(ctx, sock);
        if !data.is_empty() && ctx.socket(sock).state() == TcpState::Established {
            ctx.send(sock, &data);
        }
    }
}

/// A one-upstream relay: bytes from the accepted front connection go to
/// the shard, bytes from the shard go back; a reset upstream is reopened.
struct Relay {
    shard: HostId,
    front: Option<SocketId>,
    back: Option<SocketId>,
}

impl App for Relay {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.back = Some(ctx.connect_to(self.shard, TcpConfig::default()));
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => self.front = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset => self.back = Some(ctx.connect_to(self.shard, TcpConfig::default())),
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let from = SocketId(token as usize);
        let data = recv_flat(ctx, from);
        let to = if Some(from) == self.front { self.back } else { self.front };
        if let Some(to) = to.filter(|&to| ctx.socket(to).state() == TcpState::Established) {
            ctx.send(to, &data);
        }
    }
}

fn host(idx: usize) -> Host {
    Host::new(
        HostId::from_index(idx),
        CpuContext::new("app"),
        CpuContext::new("softirq"),
        CostConfig::default(),
        TcpConfig::default(),
    )
}

/// `simnet::run`, with a look at each event (and the world) before it is
/// handled.
fn drive<W: World<Event = Event>>(
    world: &mut W,
    queue: &mut EventQueue<Event>,
    until: Nanos,
    mut inspect: impl FnMut(&W, &Event),
) {
    while queue.peek_time().is_some_and(|at| at <= until) {
        let (_, event) = queue.pop().expect("peeked event exists");
        inspect(world, &event);
        world.handle(queue, event);
    }
}

/// Every dispatched timer is its slot's pending arm: firing empties the
/// slot, so a superseded arm popping would leave its successor to fire on
/// an empty one.
fn assert_pending(host: &Host, sock: SocketId, kind: TimerKind) {
    assert!(
        host.timer_pending(sock, kind),
        "{kind:?} dispatched on {:?}/{sock:?} without a pending arm",
        host.id
    );
}

/// Sockets of `host` that a crash closed, as `(host index, socket)`.
fn closed_sockets(host: &Host, idx: usize) -> impl Iterator<Item = (usize, SocketId)> + '_ {
    host.socket_ids()
        .filter(|&s| host.socket(s).state() == TcpState::Closed)
        .map(move |s| (idx, s))
}

#[test]
fn steady_state_queue_holds_only_live_events() {
    // One loss-free connection, a request every 20 µs, 400 simulated ms —
    // two full RTO periods, so any arm left behind by a re-arm would have
    // come due inside the run.
    let mut sim = NetSim::new(
        PacedClient::new(Nanos::from_micros(20)),
        EchoServer,
        host(0),
        host(1),
        LinkConfig::default(),
        7,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    let mut timer_fires = 0u64;
    let mut deepest = 0;
    for ms in [1, 50, 150, 199, 201, 250, 350, 400] {
        drive(&mut sim, &mut queue, Nanos::from_millis(ms), |_, event| {
            timer_fires += u64::from(matches!(event, Event::Timer { .. }));
        });
        deepest = deepest.max(queue.len());
        assert!(
            queue.len() <= 16,
            "{} events resident at {ms} ms: superseded timers are piling up",
            queue.len()
        );
    }
    let client = sim.host(0).socket(SocketId(0)).stats();
    let server = sim.host(1).socket(SocketId(0)).stats();
    assert!(client.data_segments_sent > 15_000, "the connection stayed busy: {client:?}");
    assert_eq!(sim.client().received, server.bytes_sent, "every echo came back");
    assert_eq!(client.retransmissions + server.retransmissions, 0, "loss-free");
    // Each echo carries the ACK and each ACK re-arms or cancels the RTO, so
    // no timer of this run ever expires: any `Event::Timer` reaching the
    // dispatcher is a superseded arm.
    assert_eq!(timer_fires, 0, "superseded timer arms were dispatched");
    assert!(deepest >= 4, "the bound above is not vacuous: peak {deepest}");
}

#[test]
fn restart_takes_the_reset_sockets_timers_out_of_the_queue() {
    // 7 µs after a send: the request is in flight and unacknowledged.
    let crash_at = Nanos::from_micros(5_007);
    let faults = FaultConfig {
        restart: Some(RestartSchedule {
            first_at: crash_at,
            period: Nanos::ZERO,
        }),
        ..FaultConfig::default()
    };
    let mut sim = NetSim::star_with_faults(
        vec![PacedClient::new(Nanos::from_micros(20))],
        EchoServer,
        vec![host(0)],
        host(1),
        LinkConfig::default(),
        7,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    drive(&mut sim, &mut queue, crash_at - Nanos::from_nanos(1), |_, _| {});
    let old = SocketId(0);
    assert!(
        sim.host(0).timer_pending(old, TimerKind::Rto),
        "the crash must find a timer to take down"
    );

    drive(&mut sim, &mut queue, crash_at, |_, _| {});
    assert_eq!(sim.host(0).socket(old).state(), TcpState::Closed);
    for kind in KINDS {
        assert!(!sim.host(0).timer_pending(old, kind), "{kind:?} survived the reset");
    }

    // Long enough for every timer armed before the crash to have come due.
    let mut fires_after = 0u32;
    drive(&mut sim, &mut queue, Nanos::from_millis(450), |sim, event| {
        if let Event::Timer { host, sock, kind } = *event {
            assert_pending(sim.host(host.index()), sock, kind);
            assert!(
                (host.index(), sock) != (0, old),
                "{kind:?} fired on the socket the restart reset"
            );
            fires_after += 1;
        }
    });
    assert_eq!(sim.client().resets, 1);
    let fresh = sim.host(0).socket(SocketId(1));
    assert_eq!(fresh.state(), TcpState::Established, "the client reconnected");
    assert!(fresh.stats().data_segments_sent > 15_000);
    assert!(fires_after > 0, "the surviving server socket's timers still run");
}

#[test]
fn shard_crash_takes_both_ends_timers_out_of_the_queue() {
    // client (host 0) → relay (host 1) → shard (host 2); the shard dies
    // with a request in flight on the back leg.
    let crash_at = Nanos::from_micros(5_020);
    let faults = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(ShardCrash {
                shard: 0,
                schedule: RestartSchedule {
                    first_at: crash_at,
                    period: Nanos::ZERO,
                },
            }),
            ..ShardFaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let relay = Relay {
        shard: HostId::from_index(2),
        front: None,
        back: None,
    };
    let mut sim = TierSim::two_tier_with_faults(
        vec![PacedClient::new(Nanos::from_micros(20))],
        relay,
        vec![EchoServer],
        vec![host(0)],
        host(1),
        vec![host(2)],
        LinkConfig::default(),
        LinkConfig::default(),
        7,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    drive(&mut sim, &mut queue, crash_at - Nanos::from_nanos(1), |_, _| {});
    let armed_before = (1..3)
        .flat_map(|h| sim.host(h).socket_ids().map(move |s| (h, s)))
        .filter(|&(h, s)| KINDS.iter().any(|&k| sim.host(h).timer_pending(s, k)))
        .count();
    assert!(armed_before >= 2, "both back-leg ends should hold a timer at the crash");

    drive(&mut sim, &mut queue, crash_at, |_, _| {});
    let reset: Vec<(usize, SocketId)> = closed_sockets(sim.host(1), 1)
        .chain(closed_sockets(sim.host(2), 2))
        .collect();
    assert_eq!(reset.len(), 2, "the shard's socket and the relay's upstream: {reset:?}");
    for &(h, s) in &reset {
        for kind in KINDS {
            assert!(!sim.host(h).timer_pending(s, kind), "{kind:?} survived on host {h}");
        }
    }

    drive(&mut sim, &mut queue, Nanos::from_millis(450), |sim, event| {
        if let Event::Timer { host, sock, kind } = *event {
            assert_pending(sim.host(host.index()), sock, kind);
            assert!(
                !reset.contains(&(host.index(), sock)),
                "{kind:?} fired on {host:?}/{sock:?}, which the shard crash reset"
            );
        }
    });
    assert!(queue.len() <= 16, "{} events resident after recovery", queue.len());
    assert!(sim.clients[0].received > 64 * 15_000, "traffic resumed through the new upstream");
}

/// A crash pinned to a shard the tier does not have is refused when the
/// plan is installed, instead of silently crashing a different shard.
#[test]
#[should_panic(expected = "crash shard 1 of 1")]
fn out_of_range_crash_shard_is_refused_at_install() {
    let faults = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(ShardCrash {
                shard: 1,
                schedule: RestartSchedule {
                    first_at: Nanos::from_millis(5),
                    period: Nanos::ZERO,
                },
            }),
            ..ShardFaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let relay = Relay {
        shard: HostId::from_index(2),
        front: None,
        back: None,
    };
    let _ = TierSim::two_tier_with_faults(
        vec![PacedClient::new(Nanos::from_micros(20))],
        relay,
        vec![EchoServer],
        vec![host(0)],
        host(1),
        vec![host(2)],
        LinkConfig::default(),
        LinkConfig::default(),
        7,
        faults,
    );
}
