//! Focused tests of individual stack mechanisms through the public API:
//! dynamic Nagle toggling, TSO aggregation and deferral stats,
//! auto-corking, exchange cadence, and the RTT estimator's behaviour
//! under delayed ACKs.

use littles::Nanos;
use simnet::{run, CpuContext, EventQueue, LinkConfig};
use tcpsim::config::{CostConfig, NagleMode, TcpConfig};
use tcpsim::delack::AckMode;
use tcpsim::host::{Host, HostId};
use tcpsim::knob::KnobSetting;
use tcpsim::sim::{App, Event, HostCtx, NetSim};
use tcpsim::socket::{SocketId, WakeReason};
use tcpsim::Payload;

/// Everything readable on `sock`, flattened into one buffer.
fn recv_flat(ctx: &mut HostCtx<'_>, sock: SocketId) -> Vec<u8> {
    let mut views: Vec<Payload> = Vec::new();
    ctx.recv(sock, usize::MAX, &mut views);
    views.concat()
}

/// Sink server: accepts and reads everything, never responds.
#[derive(Default)]
struct Sink {
    sock: Option<SocketId>,
    received: u64,
}

impl App for Sink {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => self.sock = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(0),
            _ => {}
        }
    }
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        if let Some(sock) = self.sock {
            let data = recv_flat(ctx, sock);
            self.received += data.len() as u64;
        }
    }
}

/// A client scripted by a closure run on connect plus timed writes.
struct Writer {
    config: TcpConfig,
    writes: Vec<(Nanos, usize)>,
    sock: Option<SocketId>,
    /// Toggle dynamic Nagle at this time (when set).
    toggle_at: Option<(Nanos, bool)>,
}

impl App for Writer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.sock = Some(ctx.connect(self.config));
    }
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, _sock: SocketId, reason: WakeReason) {
        if reason == WakeReason::Connected {
            for (i, (at, _)) in self.writes.iter().enumerate() {
                ctx.call_at(*at, i as u64);
            }
            if let Some((at, _)) = self.toggle_at {
                ctx.call_at(at, u64::MAX);
            }
        }
    }
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = self.sock.expect("connected");
        if token == u64::MAX {
            let (_, on) = self.toggle_at.expect("toggle scheduled");
            ctx.apply(sock, KnobSetting::Nagle(on));
        } else {
            let len = self.writes[token as usize].1;
            ctx.send(sock, vec![0xAB; len]);
        }
    }
}

fn host(id: usize) -> Host {
    Host::new(
        HostId::from_index(id),
        CpuContext::new("app"),
        CpuContext::new("softirq"),
        CostConfig::default(),
        TcpConfig::default(),
    )
}

fn run_writer(
    config: TcpConfig,
    writes: Vec<(Nanos, usize)>,
    toggle_at: Option<(Nanos, bool)>,
    until: Nanos,
) -> (NetSim<Writer, Sink>, EventQueue<Event>) {
    let client = Writer {
        config,
        writes,
        sock: None,
        toggle_at,
    };
    let mut sim = NetSim::new(client, Sink::default(), host(0), host(1), LinkConfig::default(), 5);
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, until);
    (sim, queue)
}

#[test]
fn dynamic_mode_defaults_to_nodelay() {
    let config = TcpConfig {
        nagle: NagleMode::Dynamic,
        ..TcpConfig::default()
    };
    let writes = vec![
        (Nanos::from_millis(1), 100),
        (Nanos::from_millis(1), 100),
    ];
    let (sim, _) = run_writer(config, writes, None, Nanos::from_millis(50));
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert_eq!(stats.nagle_holds, 0, "dynamic starts with batching off");
    assert_eq!(stats.data_segments_sent, 2);
}

#[test]
fn dynamic_toggle_on_enables_holding() {
    let config = TcpConfig {
        nagle: NagleMode::Dynamic,
        ..TcpConfig::default()
    };
    // Toggle batching on at 5 ms, then three quick small writes: the
    // first goes out (nothing unacked), the second and third coalesce
    // behind it.
    let writes = vec![
        (Nanos::from_millis(6), 100),
        (Nanos::from_millis(6), 100),
        (Nanos::from_millis(6), 100),
    ];
    let (sim, _) = run_writer(
        config,
        writes,
        Some((Nanos::from_millis(5), true)),
        Nanos::from_millis(100),
    );
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert!(stats.nagle_holds > 0, "toggled-on socket must hold the tail");
    assert!(stats.data_segments_sent < 3, "held writes coalesce");
    assert_eq!(sim.server.received, 300);
}

#[test]
fn toggling_off_flushes_a_held_tail() {
    let config = TcpConfig {
        nagle: NagleMode::Dynamic,
        ..TcpConfig::default()
    };
    // Batch on before writes; sink never ACKs small data fast (no reverse
    // data, delack 40 ms), so the second write is held — until we toggle
    // off at 10 ms, which must flush immediately.
    let writes = vec![
        (Nanos::from_millis(6), 2_000), // > MSS: first goes out
        (Nanos::from_millis(7), 50),    // small: held behind unacked data
    ];
    let client = Writer {
        config,
        writes,
        sock: None,
        toggle_at: Some((Nanos::from_millis(5), true)),
    };
    let mut sim = NetSim::new(client, Sink::default(), host(0), host(1), LinkConfig::default(), 5);
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, Nanos::from_millis(8));
    let before = sim.host(1).socket_count();
    assert_eq!(before, 1);
    let held = sim.host(0).socket(SocketId(0)).stats().nagle_holds;
    assert!(held > 0, "tail held while batching on");

    // Toggle off: the flush happens inside set_nagle.
    sim.host_mut(0); // (no direct ctx here; emulate via another call)
    let client_writes_done = sim.client().writes.len();
    assert_eq!(client_writes_done, 2);
    // Drive a toggle through the app path.
    queue.schedule(
        Nanos::ZERO,
        Event::AppCall {
            host: HostId::from_index(0),
            token: u64::MAX,
        },
    );
    sim.client_mut().toggle_at = Some((Nanos::from_millis(8), false));
    run(&mut sim, &mut queue, Nanos::from_millis(20));
    assert_eq!(
        sim.server.received, 2_050,
        "all bytes delivered after toggling batching off"
    );
}

#[test]
fn tso_aggregates_and_defer_counts() {
    // One big write: TSO should send far fewer segments than MSS packets.
    let config = TcpConfig::default();
    let (sim, _) = run_writer(
        config,
        vec![(Nanos::from_millis(1), 60_000)],
        None,
        Nanos::from_millis(200),
    );
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert!(stats.wire_packets_sent >= 40, "60 KB ≈ 42 MSS packets");
    // The initial window (10 MSS) limits the first trains; still far
    // fewer segments than wire packets.
    assert!(
        stats.data_segments_sent * 4 <= stats.wire_packets_sent,
        "TSO should batch: {} segments for {} packets",
        stats.data_segments_sent,
        stats.wire_packets_sent
    );
    assert_eq!(sim.server.received, 60_000);
}

#[test]
fn tso_disabled_sends_mss_segments() {
    let config = TcpConfig {
        tso: tcpsim::config::TsoConfig { enabled: false },
        ..TcpConfig::default()
    };
    let (sim, _) = run_writer(
        config,
        vec![(Nanos::from_millis(1), 14_480)], // exactly 10 MSS
        None,
        Nanos::from_millis(200),
    );
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert_eq!(stats.data_segments_sent, 10);
    assert_eq!(sim.server.received, 14_480);
}

#[test]
fn autocork_holds_small_writes_while_ring_busy() {
    let mut config = TcpConfig::default();
    config.cork.enabled = true;
    // A multi-packet write keeps the NIC ring busy for a few µs; an
    // immediately following small write should cork until the
    // completion interrupt.
    let writes = vec![
        (Nanos::from_millis(1), 3_000),
        (Nanos::from_millis(1), 60),
    ];
    let (sim, _) = run_writer(config, writes, None, Nanos::from_millis(200));
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert!(stats.cork_holds > 0, "auto-cork should have held the tail");
    assert_eq!(sim.server.received, 3_060, "corked data still delivered");
}

#[test]
fn exchange_cadence_respects_min_interval() {
    let mut config = TcpConfig::default();
    config.exchange.min_interval = Nanos::from_millis(10);
    // Steady small writes for 100 ms → at most ~11 exchanges.
    let writes: Vec<(Nanos, usize)> = (1..100).map(|ms| (Nanos::from_millis(ms), 200)).collect();
    let (sim, _) = run_writer(config, writes, None, Nanos::from_millis(150));
    let sent = sim.host(0).socket(SocketId(0)).stats().exchanges_sent;
    assert!(
        (2..=13).contains(&sent),
        "min_interval must bound exchange count, got {sent}"
    );
}

/// Sink that reads everything and applies one scheduled [`AckMode`]
/// switch to its accepted socket through the knob path.
struct SwitchSink {
    sock: Option<SocketId>,
    received: u64,
    switch: Option<(Nanos, AckMode)>,
}

impl App for SwitchSink {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some((at, _)) = self.switch {
            ctx.call_at(at, u64::MAX);
        }
    }
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => self.sock = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(0),
            _ => {}
        }
    }
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let Some(sock) = self.sock else { return };
        if token == u64::MAX {
            let (_, mode) = self.switch.expect("switch scheduled");
            ctx.apply(sock, KnobSetting::DelAck(mode));
        } else {
            let data = recv_flat(ctx, sock);
            self.received += data.len() as u64;
        }
    }
}

/// Classic Nagle client whose second small write is released only once
/// the first is acknowledged — making the server's ACK timing visible in
/// `received`. The server never sends data, so no piggyback can clear
/// the pending delayed ACK: disposing of it correctly is entirely the
/// knob path's job.
fn run_delack_switch(switch: Option<(Nanos, AckMode)>, until: Nanos) -> NetSim<Writer, SwitchSink> {
    let client = Writer {
        config: TcpConfig {
            nagle: NagleMode::On,
            ..TcpConfig::default()
        },
        writes: vec![(Nanos::from_millis(1), 500), (Nanos::from_millis(2), 50)],
        sock: None,
        toggle_at: None,
    };
    let server = SwitchSink {
        sock: None,
        received: 0,
        switch,
    };
    let mut sim = NetSim::new(client, server, host(0), host(1), LinkConfig::default(), 5);
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, until);
    sim
}

/// Safety pin for the runtime delayed-ACK knob: switching to quick-ack
/// with an ACK pending must flush it immediately — never drop it — so
/// the Nagle-held peer write is released right at the switch instant
/// instead of at the 40 ms delack timeout.
#[test]
fn quickack_switch_flushes_pending_ack() {
    let until = Nanos::from_millis(15);

    // Control: delayed mode throughout. The 500 B write's ACK waits for
    // the 40 ms timer, so the held 50 B tail never arrives by 15 ms.
    let control = run_delack_switch(None, until);
    assert_eq!(control.server.received, 500, "tail held until delack fires");

    // Switching to quick at 6 ms flushes the pending ACK; the held tail
    // is released and delivered promptly.
    let sim = run_delack_switch(Some((Nanos::from_millis(6), AckMode::Quick)), until);
    assert_eq!(sim.server.received, 550, "flush released the held tail");
    let server_sock = sim.server.sock.expect("accepted");
    let delack = sim.host(1).socket(server_sock).delack();
    assert_eq!(delack.timeout_acks(), 0, "no timer fired: the switch acked");
    assert!(!delack.has_pending(), "nothing may remain unacknowledged");
}

/// Switching the delack timeout with an ACK pending re-arms the timer
/// from the switch instant with the *new* timeout — deterministic and
/// never stranding the pending ACK behind the old, longer timer.
#[test]
fn delack_timeout_switch_rearms_pending_ack() {
    let mode = AckMode::Delayed {
        timeout: Nanos::from_millis(2),
    };
    let sim = run_delack_switch(Some((Nanos::from_millis(6), mode)), Nanos::from_millis(15));
    // Re-armed at 6 ms with a 2 ms timeout: the ACK goes out at ~8 ms,
    // releasing the held tail well before the original 40 ms deadline.
    assert_eq!(sim.server.received, 550, "re-armed timer released the tail");
    let server_sock = sim.server.sock.expect("accepted");
    let delack = sim.host(1).socket(server_sock).delack();
    // Two timer ACKs: the re-armed one at ~8 ms for the 500 B write, and
    // the released tail's own ACK under the new 2 ms timeout at ~10 ms.
    // Under the original 40 ms timer neither fits inside the 15 ms run.
    assert_eq!(delack.timeout_acks(), 2, "both ACKs used the 2 ms timer");
    assert!(!delack.has_pending(), "nothing may remain unacknowledged");
}

/// Client scripted with timed writes plus timed knob applications — the
/// actuation path the control plane drives.
struct KnobWriter {
    config: TcpConfig,
    writes: Vec<(Nanos, usize)>,
    knobs: Vec<(Nanos, KnobSetting)>,
    sock: Option<SocketId>,
}

const KNOB_TOKEN_BASE: u64 = 1 << 32;

impl App for KnobWriter {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.sock = Some(ctx.connect(self.config));
    }
    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, _sock: SocketId, reason: WakeReason) {
        if reason == WakeReason::Connected {
            for (i, (at, _)) in self.writes.iter().enumerate() {
                ctx.call_at(*at, i as u64);
            }
            for (i, (at, _)) in self.knobs.iter().enumerate() {
                ctx.call_at(*at, KNOB_TOKEN_BASE + i as u64);
            }
        }
    }
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = self.sock.expect("connected");
        if token >= KNOB_TOKEN_BASE {
            let (_, setting) = self.knobs[(token - KNOB_TOKEN_BASE) as usize];
            ctx.apply(sock, setting);
        } else {
            let len = self.writes[token as usize].1;
            ctx.send(sock, vec![0xAB; len]);
        }
    }
}

/// Regression for the cork-limit actuator (the knob the AIMD controller
/// drives): applying a byte limit at runtime must visibly change on-wire
/// segment sizes — small writes accumulate into near-MSS segments
/// instead of going out one per write — without losing any bytes.
#[test]
fn cork_limit_knob_changes_on_wire_segment_sizes() {
    let writes: Vec<(Nanos, usize)> = (0..40)
        .map(|i| (Nanos::from_millis(1) + Nanos::from_micros(20 * i), 200))
        .collect();
    let run_with = |knobs: Vec<(Nanos, KnobSetting)>| {
        let client = KnobWriter {
            config: TcpConfig::default(), // TCP_NODELAY: no Nagle holds
            writes: writes.clone(),
            knobs,
            sock: None,
        };
        let mut sim = NetSim::new(client, Sink::default(), host(0), host(1), LinkConfig::default(), 5);
        let mut queue = EventQueue::new();
        sim.start(&mut queue);
        run(&mut sim, &mut queue, Nanos::from_millis(200));
        sim
    };

    let uncorked = run_with(vec![]);
    let corked = run_with(vec![(Nanos::from_micros(500), KnobSetting::CorkLimit(2_000))]);

    assert_eq!(uncorked.server.received, 8_000);
    assert_eq!(corked.server.received, 8_000, "corked bytes still delivered");

    let unc = uncorked.host(0).socket(SocketId(0)).stats();
    let cor = corked.host(0).socket(SocketId(0)).stats();
    assert_eq!(unc.batch_limit_holds, 0, "no limit, no holds");
    assert!(cor.batch_limit_holds > 0, "the limit must actually gate");
    assert!(
        cor.data_segments_sent * 3 < unc.data_segments_sent,
        "limit 2000 must coalesce: {} vs {} segments",
        cor.data_segments_sent,
        unc.data_segments_sent
    );
    let mean = |segs: u64| 8_000 / segs.max(1);
    assert!(
        mean(cor.data_segments_sent) >= 4 * mean(unc.data_segments_sent),
        "mean on-wire segment size must grow under the limit"
    );
}

#[test]
fn srtt_converges_to_link_rtt_scale() {
    let (sim, _) = run_writer(
        TcpConfig::default(),
        (1..50).map(|ms| (Nanos::from_millis(ms), 3_000)).collect(),
        None,
        Nanos::from_millis(100),
    );
    let srtt = sim
        .host(0)
        .socket(SocketId(0))
        .srtt()
        .expect("samples taken");
    // One-way propagation is 5 µs; RTT with stack costs lands in the
    // tens of µs. SRTT must be in that range, far below delack timers.
    assert!(
        srtt > Nanos::from_micros(10) && srtt < Nanos::from_millis(39),
        "srtt {srtt}"
    );
}
