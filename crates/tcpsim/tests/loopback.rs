//! End-to-end stack tests: two hosts, a real link, full TCP machinery.
//!
//! A minimal echo server and scripted client exercise the handshake, data
//! transfer, delayed ACKs, Nagle holds/releases, TSO, loss recovery, and
//! the instrumented queues — all through the public `NetSim` API.

use littles::Nanos;
use simnet::{run, CpuContext, EventQueue, FaultConfig, GilbertElliott, LinkConfig};
use tcpsim::config::{CostConfig, NagleMode, TcpConfig};
use tcpsim::host::{Host, HostId};
use tcpsim::sim::{App, Event, HostCtx, NetSim};
use tcpsim::socket::{SocketId, TcpState, WakeReason};
use tcpsim::{Payload, Unit};

/// Everything readable on `sock`, flattened into one buffer.
fn recv_flat(ctx: &mut HostCtx<'_>, sock: SocketId) -> Vec<u8> {
    let mut views: Vec<Payload> = Vec::new();
    ctx.recv(sock, usize::MAX, &mut views);
    views.concat()
}

/// An echo server: reads whatever arrives and writes it straight back.
#[derive(Default)]
struct EchoServer {
    sock: Option<SocketId>,
    echoed: u64,
}

impl App for EchoServer {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => self.sock = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = SocketId(token as usize);
        let data = recv_flat(ctx, sock);
        if !data.is_empty() {
            self.echoed += data.len() as u64;
            ctx.send(sock, &data);
        }
    }
}

/// A scripted client: sends a fixed list of (time, payload) writes and
/// collects everything echoed back.
struct ScriptClient {
    config: TcpConfig,
    script: Vec<(Nanos, Vec<u8>)>,
    sock: Option<SocketId>,
    received: Vec<u8>,
    connected_at: Option<Nanos>,
}

impl ScriptClient {
    fn new(config: TcpConfig, script: Vec<(Nanos, Vec<u8>)>) -> Self {
        ScriptClient {
            config,
            script,
            sock: None,
            received: Vec::new(),
            connected_at: None,
        }
    }
}

const SEND_TOKEN_BASE: u64 = 1_000;

impl App for ScriptClient {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        let sock = ctx.connect(self.config);
        self.sock = Some(sock);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => {
                self.connected_at = Some(ctx.now());
                for (i, (at, _)) in self.script.iter().enumerate() {
                    ctx.call_at(*at.max(&ctx.now()), SEND_TOKEN_BASE + i as u64);
                }
            }
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token >= SEND_TOKEN_BASE {
            let idx = (token - SEND_TOKEN_BASE) as usize;
            let sock = self.sock.expect("connected");
            let payload = self.script[idx].1.clone();
            let sent = ctx.send(sock, &payload);
            assert_eq!(sent, payload.len(), "send buffer overflow in test");
        } else {
            let sock = SocketId(token as usize);
            let data = recv_flat(ctx, sock);
            self.received.extend_from_slice(&data);
        }
    }
}

fn make_host(id: usize) -> Host {
    Host::new(
        HostId::from_index(id),
        CpuContext::new(if id == 0 { "client-app" } else { "server-app" }),
        CpuContext::new(if id == 0 {
            "client-sirq"
        } else {
            "server-sirq"
        }),
        CostConfig::default(),
        TcpConfig::default(),
    )
}

fn run_echo(
    config: TcpConfig,
    link: LinkConfig,
    script: Vec<(Nanos, Vec<u8>)>,
    until: Nanos,
) -> (NetSim<ScriptClient, EchoServer>, EventQueue<Event>) {
    let client = ScriptClient::new(config, script);
    let mut sim = NetSim::new(
        client,
        EchoServer::default(),
        make_host(0),
        make_host(1),
        link,
        42,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, until);
    (sim, queue)
}

#[test]
fn handshake_establishes_both_ends() {
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![],
        Nanos::from_millis(10),
    );
    let client_sock = sim.host(0).socket(SocketId(0));
    assert_eq!(client_sock.state(), TcpState::Established);
    assert_eq!(sim.host(1).socket_count(), 1);
    assert_eq!(
        sim.host(1).socket(SocketId(0)).state(),
        TcpState::Established
    );
    assert!(sim.client().connected_at.is_some());
}

#[test]
fn small_message_echoes_intact() {
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), b"hello, stack!".to_vec())],
        Nanos::from_millis(100),
    );
    assert_eq!(sim.client().received, b"hello, stack!");
    assert_eq!(sim.server.echoed, 13);
}

#[test]
fn large_message_spans_segments_and_echoes_intact() {
    // 100 KiB exceeds MSS, TSO limit, and initial cwnd; exercises windowing.
    let payload: Vec<u8> = (0..100 * 1024).map(|i| (i % 251) as u8).collect();
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), payload.clone())],
        Nanos::from_secs(2),
    );
    assert_eq!(sim.client().received.len(), payload.len());
    assert_eq!(sim.client().received, payload);
    // TSO super-segments: fewer data segments than MSS-sized packets.
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert!(stats.wire_packets_sent > stats.data_segments_sent);
}

#[test]
fn nagle_holds_back_to_back_small_writes() {
    // Two small writes in quick succession: with Nagle the second waits for
    // the first's ACK, so it cannot ride the same instant.
    let config = TcpConfig {
        nagle: NagleMode::On,
        ..TcpConfig::default()
    };
    let script = vec![
        (Nanos::from_millis(1), vec![b'a'; 100]),
        (Nanos::from_millis(1), vec![b'b'; 100]),
        (Nanos::from_millis(1), vec![b'c'; 100]),
    ];
    let (sim, _q) = run_echo(config, LinkConfig::default(), script, Nanos::from_secs(1));
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert!(stats.nagle_holds > 0, "Nagle should have held the tail");
    // Data still arrives intact, just batched.
    assert_eq!(sim.client().received.len(), 300);
    // Coalescing: fewer data segments than writes.
    assert!(
        stats.data_segments_sent < 3,
        "expected coalescing, got {} segments",
        stats.data_segments_sent
    );
}

#[test]
fn nodelay_sends_each_write_immediately() {
    let script = vec![
        (Nanos::from_millis(1), vec![b'a'; 100]),
        (Nanos::from_millis(1), vec![b'b'; 100]),
        (Nanos::from_millis(1), vec![b'c'; 100]),
    ];
    let (sim, _q) = run_echo(
        TcpConfig::default(), // Nagle off by default
        LinkConfig::default(),
        script,
        Nanos::from_secs(1),
    );
    let stats = sim.host(0).socket(SocketId(0)).stats();
    assert_eq!(stats.nagle_holds, 0);
    assert_eq!(stats.data_segments_sent, 3);
    assert_eq!(sim.client().received.len(), 300);
}

#[test]
fn delayed_ack_fires_by_timer_for_lone_small_segment() {
    // One small write, server app echoes — but the *client* receiving the
    // echo has nothing to piggyback on, so its ACK of the echo is delayed
    // and eventually fires by timer.
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), b"x".to_vec())],
        Nanos::from_secs(1),
    );
    let client_sock = sim.host(0).socket(SocketId(0));
    assert!(
        client_sock.delack().timeout_acks() > 0,
        "client should have delack-timed-out acking the echo"
    );
}

#[test]
fn server_ack_piggybacks_on_echo() {
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), b"ping".to_vec())],
        Nanos::from_secs(1),
    );
    let server_sock = sim.host(1).socket(SocketId(0));
    assert!(
        server_sock.delack().piggybacked_acks() > 0,
        "echo should have carried the ACK"
    );
}

/// A 50 KiB echo over a 10 Gbps link that drops 12% of segments.
fn run_lossy_echo() -> (NetSim<ScriptClient, EchoServer>, EventQueue<Event>, Vec<u8>) {
    let link = LinkConfig {
        propagation: Nanos::from_micros(5),
        bandwidth_bps: 10_000_000_000,
    };
    // Memoryless loss: the chain never leaves its good state, which drops
    // 12% of segments. High enough that every plausible RNG stream sees
    // several drops over the few dozen per-segment draws (TSO batches
    // wire packets into far fewer segments).
    let fault = FaultConfig {
        loss: Some(GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.12,
            loss_bad: 0.0,
        }),
        ..FaultConfig::default()
    };
    let mut config = TcpConfig::default();
    config.rto.min_rto = Nanos::from_millis(5); // keep the test fast
    let payload: Vec<u8> = (0..50 * 1024).map(|i| (i % 241) as u8).collect();
    let client = ScriptClient::new(config, vec![(Nanos::from_millis(1), payload.clone())]);
    let mut sim = NetSim::star_with_faults(
        vec![client],
        EchoServer::default(),
        vec![make_host(0)],
        make_host(1),
        link,
        42,
        fault,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, Nanos::from_secs(30));
    (sim, queue, payload)
}

#[test]
fn lossy_link_recovers_via_retransmission() {
    let (sim, _queue, payload) = run_lossy_echo();
    assert_eq!(sim.client().received, payload, "stream must survive loss");
    let drops: u64 = sim
        .fault_plan()
        .expect("the star was built with a fault plan")
        .per_link_counters()
        .iter()
        .map(|c| c.drops)
        .sum();
    assert!(drops > 0, "the fault layer should have dropped segments");
    let retx: u64 = [0, 1]
        .iter()
        .map(|&h| sim.host(h).socket(SocketId(0)).stats().retransmissions)
        .sum();
    assert!(retx > 0, "12% segment loss should retransmit");
}

#[test]
fn queues_drain_after_quiescence() {
    let (sim, q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![
            (Nanos::from_millis(1), vec![1u8; 5000]),
            (Nanos::from_millis(2), vec![2u8; 5000]),
        ],
        Nanos::from_secs(1),
    );
    let now = q.now();
    for h in [0, 1] {
        let sock = sim.host(h).socket(SocketId(0));
        let queues = sock.queues();
        for unit in Unit::ALL {
            assert_eq!(
                queues.unacked.size(unit),
                0,
                "host {h} unacked {unit:?} should drain"
            );
            assert_eq!(queues.unread.size(unit), 0, "host {h} unread {unit:?}");
            assert_eq!(queues.ackdelay.size(unit), 0, "host {h} ackdelay {unit:?}");
        }
        // And each queue saw traffic.
        let snap = sock.local_snapshots(now, Unit::Bytes);
        assert!(snap.unacked.total > 0 || h == 1, "unacked saw traffic");
        assert!(snap.unread.total > 0, "unread saw traffic");
    }
}

/// Packets are not counted: however busy a socket, and however many
/// segments it resends, its queues read empty in the packet unit, while
/// the byte unit saw the traffic.
#[test]
fn a_busy_socket_reads_empty_in_the_packet_unit() {
    let (sim, q, _) = run_lossy_echo();
    let now = q.now();
    for h in [0, 1] {
        let sock = sim.host(h).socket(SocketId(0));
        assert!(sock.stats().retransmissions > 0, "host {h} resent");
        let packets = sock.local_snapshots(now, Unit::Packets);
        let queues = [packets.unacked, packets.unread, packets.ackdelay];
        for (name, snap) in ["unacked", "unread", "ackdelay"].iter().zip(queues) {
            assert_eq!(
                (snap.total, snap.integral),
                (0, 0),
                "host {h} {name} in packets"
            );
        }
        let bytes = sock.local_snapshots(now, Unit::Bytes);
        assert!(bytes.unacked.total > 0 && bytes.unread.total > 0 && bytes.ackdelay.total > 0);
    }
}

#[test]
fn unread_delay_reflects_slow_reader() {
    // A server that sits on data for a while before reading: the unread
    // queue's Little's-law delay must reflect the read latency.
    struct SlowReader {
        sock: Option<SocketId>,
        delay: Nanos,
    }
    impl App for SlowReader {
        fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
        fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
            if reason == WakeReason::Accepted {
                self.sock = Some(sock);
            } else if reason == WakeReason::Readable {
                let at = ctx.now() + self.delay;
                ctx.call_at(at, 0);
            }
        }
        fn on_call(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            let sock = self.sock.expect("accepted");
            let _ = recv_flat(ctx, sock);
        }
    }

    let delay = Nanos::from_micros(500);
    let client = ScriptClient::new(
        TcpConfig::default(),
        vec![(Nanos::from_millis(1), vec![9u8; 1000])],
    );
    let mut sim = NetSim::new(
        client,
        SlowReader { sock: None, delay },
        make_host(0),
        make_host(1),
        LinkConfig::default(),
        7,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, Nanos::from_secs(1));

    let sock = sim.host(1).socket(SocketId(0));
    let start = littles::Snapshot::default();
    let end = sock.local_snapshots(queue.now(), Unit::Bytes).unread;
    let window = end.window_since(&start).unwrap();
    let measured = window.rounded_delay().expect("bytes were read");
    assert!(
        measured >= delay && measured < delay * 3,
        "unread delay {measured} should be ≈ app read delay {delay}"
    );
}

#[test]
fn e2e_exchange_reaches_peer() {
    let (sim, _q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![
            (Nanos::from_millis(1), vec![1u8; 2000]),
            (Nanos::from_millis(5), vec![2u8; 2000]),
            (Nanos::from_millis(9), vec![3u8; 2000]),
        ],
        Nanos::from_secs(1),
    );
    // Both sides should have received several exchanges and stored the
    // latest byte-unit one.
    let server_remote = sim.host(1).socket(SocketId(0)).remote();
    assert!(server_remote.received >= 2, "server saw exchanges");
    assert!(server_remote.unit(Unit::Bytes).is_some());
    let client_remote = sim.host(0).socket(SocketId(0)).remote();
    assert!(client_remote.received >= 2, "client saw exchanges");
}

#[test]
fn invariant_gates_clean_after_loopback_traffic() {
    // The event loop already runs every gate after each segment/timer in
    // debug builds; this asserts the final state explicitly on both ends.
    let (mut sim, q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![
            (Nanos::from_millis(1), vec![1u8; 5000]),
            (Nanos::from_millis(2), vec![2u8; 300]),
        ],
        Nanos::from_secs(1),
    );
    let now = q.now();
    for h in [0, 1] {
        let sock = sim.host_mut(h).socket_mut(SocketId(0));
        assert!(sock.check_invariants(now).is_ok(), "host {h} gates clean");
        // The ledgers saw real traffic — this is not a vacuous pass.
        assert!(
            sock.invariants().unacked.entered() > 0,
            "host {h} unacked flow"
        );
        assert!(
            sock.invariants().unread.entered() > 0,
            "host {h} unread flow"
        );
    }
}

#[test]
fn invariant_gate_fires_on_corrupted_queue_state() {
    use tcpsim::invariants::InvariantViolation;

    let (mut sim, q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), vec![7u8; 1000])],
        Nanos::from_secs(1),
    );
    let now = q.now();
    let sock = sim.host_mut(0).socket_mut(SocketId(0));
    assert!(
        sock.check_invariants(now).is_ok(),
        "clean before corruption"
    );

    // Ten phantom bytes appear in the unacked queue without ever passing
    // through `send`: the double-entry ledger no longer balances against
    // the reported occupancy and the conservation gate must fire.
    sock.queues_mut().unacked.track(now, 10, 0);
    let err = sock
        .check_invariants(now)
        .expect_err("conservation gate must fire on corrupted state");
    match err {
        InvariantViolation::ConservationBroken { queue, .. } => assert_eq!(queue, "unacked"),
        other => panic!("expected ConservationBroken, got {other}"),
    }
}

#[test]
fn invariant_gate_panics_in_debug_on_corruption() {
    // `gate` is exactly what the event loop wraps around check_invariants;
    // under debug assertions (the tier-1 test profile) it must panic.
    use tcpsim::invariants::gate;

    let (mut sim, q) = run_echo(
        TcpConfig::default(),
        LinkConfig::default(),
        vec![(Nanos::from_millis(1), vec![3u8; 200])],
        Nanos::from_secs(1),
    );
    let now = q.now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sock = sim.host_mut(0).socket_mut(SocketId(0));
        sock.queues_mut().unread.track(now, 42, 0);
        gate(sock.check_invariants(now));
    }));
    if cfg!(debug_assertions) {
        assert!(result.is_err(), "gate must panic in debug builds");
    } else {
        assert!(result.is_ok(), "gate is a no-op in release builds");
    }
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        run_echo(
            TcpConfig::default(),
            LinkConfig::default(),
            vec![
                (Nanos::from_millis(1), vec![1u8; 3000]),
                (Nanos::from_millis(3), vec![2u8; 50]),
            ],
            Nanos::from_secs(1),
        )
    };
    let (a, qa) = mk();
    let (b, qb) = mk();
    assert_eq!(qa.now(), qb.now());
    assert_eq!(
        a.host(0).socket(SocketId(0)).stats(),
        b.host(0).socket(SocketId(0)).stats()
    );
    assert_eq!(
        a.host(1).socket(SocketId(0)).stats(),
        b.host(1).socket(SocketId(0)).stats()
    );
    assert_eq!(a.client().received, b.client().received);
}
