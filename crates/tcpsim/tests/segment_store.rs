//! Conservation of the segment store: a segment is written into the store
//! once, by the transmit path, and leaves it exactly once — at the
//! receiving host's softirq, stray or not, or on the wire when the fault
//! layer drops it; a duplicate is a second segment under its own key. So
//! a run driven until its queue is empty leaves the store empty.
//!
//! The fault branches that discard, clone or rewrite a segment in flight
//! (loss, duplication, exchange corruption) run on a star. The crashes
//! that turn segments in flight into strays for a flow nobody knows any
//! more (a shard crash, a client restart) run on a two-tier topology.

use littles::Nanos;
use simnet::fault::GilbertElliott;
use simnet::{
    run_until_idle, CorruptConfig, CpuContext, DuplicateConfig, EventQueue, FaultConfig,
    FaultCounters, HostId, LinkConfig, RestartSchedule, ShardCrash, ShardFaultPlan,
};
use tcpsim::config::{CostConfig, RtoConfig, TcpConfig};
use tcpsim::host::Host;
use tcpsim::sim::{App, HostCtx, NetSim};
use tcpsim::socket::{SocketId, WakeReason};
use tcpsim::tier::TierSim;
use tcpsim::Payload;

const SEND: u64 = u64::MAX;
const CONNECT: u64 = u64::MAX - 1;
/// Event budget of one drive: far above what the runs need.
const BUDGET: u64 = 5_000_000;

/// Reads and drops whatever is readable on `sock`.
fn drain(ctx: &mut HostCtx<'_>, sock: SocketId) -> usize {
    let mut views: Vec<Payload> = Vec::new();
    ctx.recv(sock, usize::MAX, &mut views).0
}

/// Sends `left` messages of 1–6 000 bytes, one every 150 µs, then stops;
/// reads whatever comes back; reconnects a millisecond after a reset and
/// goes on from where it was.
struct Sender {
    config: TcpConfig,
    left: u64,
    sock: Option<SocketId>,
    started: bool,
}

impl Sender {
    fn new(config: TcpConfig, left: u64) -> Self {
        Sender { config, left, sock: None, started: false }
    }
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.connect(self.config);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => {
                self.sock = Some(sock);
                if !self.started {
                    self.started = true;
                    ctx.call_after(Nanos::from_micros(100), SEND);
                }
            }
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset => {
                self.sock = None;
                ctx.call_after(Nanos::from_millis(1), CONNECT);
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        match token {
            SEND => {
                if let Some(sock) = self.sock {
                    let len = 1 + (self.left * 2_654_435_761 % 6_000) as usize;
                    ctx.send(sock, vec![0x5a; len]);
                }
                self.left -= 1;
                if self.left > 0 {
                    ctx.call_after(Nanos::from_micros(150), SEND);
                }
            }
            CONNECT => {
                ctx.connect(self.config);
            }
            sock => {
                drain(ctx, SocketId(sock as usize));
            }
        }
    }
}

/// Echoes what it reads (`echo`) or only reads it.
struct Server {
    echo: bool,
}

impl App for Server {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        if reason == WakeReason::Readable {
            ctx.wake_app_thread(sock.0 as u64);
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = SocketId(token as usize);
        let read = drain(ctx, sock);
        if self.echo && read > 0 {
            ctx.send(sock, vec![0xa5; read]);
        }
    }
}

/// Forwards every client's bytes to its one shard and answers nothing, so
/// a client's restart leaves the proxy's end of it with nothing to
/// retransmit; a reset upstream is reopened at once.
struct Relay {
    shard: HostId,
    back: Option<SocketId>,
}

impl App for Relay {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.connect_to(self.shard, TcpConfig::default());
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => self.back = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset if Some(sock) == self.back => {
                self.back = None;
                ctx.connect_to(self.shard, TcpConfig::default());
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let from = SocketId(token as usize);
        let mut views: Vec<Payload> = Vec::new();
        ctx.recv(from, usize::MAX, &mut views);
        if let Some(back) = self.back.filter(|&b| b != from) {
            ctx.send(back, views.concat());
        }
    }
}

fn host(idx: usize, tcp: TcpConfig) -> Host {
    Host::new(
        HostId::from_index(idx),
        CpuContext::new("app"),
        CpuContext::new("softirq"),
        CostConfig::default(),
        tcp,
    )
}

fn totals(per_link: Vec<FaultCounters>) -> FaultCounters {
    per_link.into_iter().fold(FaultCounters::default(), FaultCounters::merged)
}

#[test]
fn loss_duplication_and_corruption_leave_the_store_empty() {
    let tcp = TcpConfig {
        // Retransmission timers that fire well inside the run.
        rto: RtoConfig {
            min_rto: Nanos::from_millis(4),
            max_rto: Nanos::from_millis(30),
            initial_rto: Nanos::from_millis(10),
        },
        ..TcpConfig::default()
    };
    let faults = FaultConfig {
        loss: Some(GilbertElliott::bursty(0.02, 2.0)),
        duplicate: Some(DuplicateConfig { probability: 0.05 }),
        corrupt: Some(CorruptConfig { probability: 0.2 }),
        ..FaultConfig::default()
    };
    let clients = (0..3).map(|_| Sender::new(tcp, 300)).collect();
    let mut sim = NetSim::star_with_faults(
        clients,
        Server { echo: true },
        (0..3).map(|i| host(i, tcp)).collect(),
        host(3, tcp),
        LinkConfig::default(),
        0x05E6_570E,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run_until_idle(&mut sim, &mut queue, BUDGET);

    let fired = totals(sim.fault_plan().expect("faults installed").per_link_counters());
    assert!(fired.drops >= 20, "{} drops", fired.drops);
    assert!(fired.duplicates >= 20, "{} duplicates", fired.duplicates);
    assert!(fired.corruptions >= 5, "{} corruptions", fired.corruptions);
    let store = sim.segment_store();
    assert!(store.high_water() > 3, "{} segments at most", store.high_water());
    assert_eq!(store.len(), 0, "segments left in the store of an idle run");
}

#[test]
fn a_shard_crash_and_a_client_restart_leave_the_store_empty() {
    let tcp = TcpConfig::default();
    let once = |at| RestartSchedule { first_at: Nanos::from_micros(at), period: Nanos::ZERO };
    let faults = FaultConfig {
        restart: Some(once(20_017)),
        shard: ShardFaultPlan {
            crash: Some(ShardCrash { shard: 0, schedule: once(30_029) }),
            ..ShardFaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let mut sim = TierSim::two_tier_with_faults(
        (0..2).map(|_| Sender::new(tcp, 400)).collect(),
        Relay { shard: HostId::from_index(3), back: None },
        vec![Server { echo: false }],
        vec![host(0, tcp), host(1, tcp)],
        host(2, tcp),
        vec![host(3, tcp)],
        LinkConfig::default(),
        LinkConfig::default(),
        0x05E6_570F,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run_until_idle(&mut sim, &mut queue, BUDGET);

    let plan = sim.fault_plan().expect("faults installed");
    assert_eq!((plan.restarts(), plan.shard_crashes()), (1, 1));
    let store = sim.segment_store();
    assert!(store.high_water() > 3, "{} segments at most", store.high_water());
    assert_eq!(store.len(), 0, "segments left in the store of an idle run");
}
