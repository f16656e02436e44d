//! The estimator change stamp (`TcpSocket::estimator_stamp`) is what a
//! parked tick chain waits on, so it must move whenever an input of the
//! end-to-end estimator moves, and it should not move otherwise. Driven
//! through the socket API with segments relayed by hand:
//!
//! - every byte or message entering or leaving *unacked*, *unread* or
//!   *ackdelay* moves the stamp, on clean request/response traffic and
//!   through an RTO recovery;
//! - an RTO whose only effect is a retransmission leaves it where it
//!   was: a one-way sender has no ACK to owe, so the resend drains no
//!   *ackdelay*, and the resent bytes were never out of *unacked*;
//! - packets are not counted: a busy socket's queues read empty in the
//!   packet unit.

use littles::Nanos;
use tcpsim::config::{TcpConfig, TsoConfig};
use tcpsim::segment::{FlowId, Segment};
use tcpsim::socket::{Action, Actions, TcpSocket, TcpState, TimerKind, TxEnv};
use tcpsim::Unit;

const MSS: usize = 1448;
const QUEUES: [&str; 3] = ["unacked", "unread", "ackdelay"];
const UNITS: [Unit; 2] = [Unit::Bytes, Unit::Messages];

fn config() -> TcpConfig {
    TcpConfig {
        // One MSS per segment, so the relay can drop single packets.
        tso: TsoConfig { enabled: false },
        ..TcpConfig::default()
    }
}

/// Pulls the transmitted segments out of an action buffer, discarding
/// timer and wake bookkeeping.
fn segs(actions: &mut Actions) -> Vec<Segment> {
    let out = actions
        .iter()
        .filter_map(|a| match a {
            Action::Transmit(key) => Some(actions.segment(*key).clone()),
            _ => None,
        })
        .collect();
    actions.clear();
    out
}

/// Completes the three-way handshake and returns an established pair.
fn established(now: Nanos) -> (TcpSocket, TcpSocket) {
    let env = TxEnv::default();
    let mut actions = Actions::new();
    let mut client = TcpSocket::client(FlowId(1), config(), now, &mut actions);
    let syn = segs(&mut actions).remove(0);
    let mut server = TcpSocket::server_on_syn(FlowId(1), config(), now, &syn, &mut actions);
    let synack = segs(&mut actions).remove(0);
    client.on_segment(now, &synack, env, &mut actions);
    for ack in segs(&mut actions) {
        server.on_segment(now, &ack, env, &mut actions);
    }
    actions.clear();
    assert_eq!(client.state(), TcpState::Established);
    assert_eq!(server.state(), TcpState::Established);
    (client, server)
}

/// Occupancy and departures of every queue (`QUEUES`) in every counted
/// unit (`UNITS`): what a `TRACK` call moves.
fn counts(sock: &TcpSocket) -> [[(i64, u64); 2]; 3] {
    let q = sock.queues();
    [&q.unacked, &q.unread, &q.ackdelay]
        .map(|queue| UNITS.map(|unit| (queue.size(unit), queue.peek(Nanos::ZERO, unit).total)))
}

/// The socket calls of one run, each checked: a call that moves a count
/// moves the stamp. Records which counts were seen to rise and to fall,
/// so a run can show it exercised every one.
#[derive(Default)]
struct Watch {
    entered: [[bool; 2]; 3],
    left: [[bool; 2]; 3],
    calls: u32,
}

impl Watch {
    fn call<R>(&mut self, sock: &mut TcpSocket, call: impl FnOnce(&mut TcpSocket) -> R) -> R {
        let (before, stamp) = (counts(sock), sock.estimator_stamp());
        let out = call(sock);
        let after = counts(sock);
        self.calls += 1;
        for (q, name) in QUEUES.iter().enumerate() {
            for (u, unit) in UNITS.iter().enumerate() {
                let ((size0, total0), (size1, total1)) = (before[q][u], after[q][u]);
                if (size0, total0) == (size1, total1) {
                    continue;
                }
                assert_ne!(
                    sock.estimator_stamp(),
                    stamp,
                    "call {}: {name} {unit:?} moved ({size0}, {total0}) -> ({size1}, {total1}) \
                     but the stamp did not",
                    self.calls
                );
                self.entered[q][u] |= size1 + (total1 - total0) as i64 > size0;
                self.left[q][u] |= total1 > total0;
            }
        }
        out
    }
}

/// Relays segments both ways, starting with `to_server`, until neither
/// side has anything left to send; once the wire is empty the delayed-ACK
/// timers fire.
fn settle(
    client: &mut TcpSocket,
    server: &mut TcpSocket,
    to_server: Vec<Segment>,
    t: &mut Nanos,
    watch: &mut Watch,
) {
    let env = TxEnv::default();
    let mut actions = Actions::new();
    let (mut to_server, mut to_client) = (to_server, Vec::new());
    for _ in 0..256 {
        if to_server.is_empty() && to_client.is_empty() {
            *t += Nanos::from_micros(200);
            watch.call(server, |s| s.on_timer(*t, TimerKind::Delack, env, &mut actions));
            to_client = segs(&mut actions);
            watch.call(client, |s| s.on_timer(*t, TimerKind::Delack, env, &mut actions));
            to_server = segs(&mut actions);
            if to_server.is_empty() && to_client.is_empty() {
                return;
            }
        }
        *t += Nanos::from_micros(20);
        for seg in std::mem::take(&mut to_server) {
            watch.call(server, |s| s.on_segment(*t, &seg, env, &mut actions));
            to_client.extend(segs(&mut actions));
        }
        *t += Nanos::from_micros(20);
        for seg in std::mem::take(&mut to_client) {
            watch.call(client, |s| s.on_segment(*t, &seg, env, &mut actions));
            to_server.extend(segs(&mut actions));
        }
    }
    panic!("the pair did not settle");
}

/// Eight request/response rounds of mixed sizes (one MSS-sized, sub-MSS
/// tails, a two-message burst), the fifth request lost whole and
/// recovered by the RTO. Every socket call is watched.
fn busy_pair() -> (TcpSocket, TcpSocket, Nanos, Watch) {
    let env = TxEnv::default();
    let mut t = Nanos::from_millis(1);
    let (mut client, mut server) = established(t);
    let mut actions = Actions::new();
    let mut watch = Watch::default();
    let mut sink = Vec::new();
    for round in 0..8 {
        t += Nanos::from_micros(50);
        let request = [MSS, 300, 2 * MSS + 700, 40][round % 4];
        watch.call(&mut client, |s| s.send(t, vec![1; request], env, &mut actions));
        if round == 2 {
            watch.call(&mut client, |s| s.send(t, vec![2; 90], env, &mut actions));
        }
        let mut to_server = segs(&mut actions);
        if round == 4 {
            to_server.clear();
            t += Nanos::from_millis(300);
            watch.call(&mut client, |s| s.on_timer(t, TimerKind::Rto, env, &mut actions));
            to_server = segs(&mut actions);
            assert!(!to_server.is_empty(), "the RTO resends");
        }
        settle(&mut client, &mut server, to_server, &mut t, &mut watch);
        t += Nanos::from_micros(30);
        let (read, _) = watch.call(&mut server, |s| s.recv(t, usize::MAX, &mut sink, &mut actions));
        assert!(read > 0, "round {round}: the request arrived");
        watch.call(&mut server, |s| s.send(t, vec![3; 500 + 100 * round], env, &mut actions));
        let to_client = segs(&mut actions);
        // The response leaves the server first: relay it by swapping roles.
        settle(&mut server, &mut client, to_client, &mut t, &mut watch);
        t += Nanos::from_micros(30);
        watch.call(&mut client, |s| s.recv(t, usize::MAX, &mut sink, &mut actions));
        actions.clear();
    }
    assert!(client.stats().rto_fires > 0 && client.stats().retransmissions > 0);
    (client, server, t, watch)
}

#[test]
fn every_byte_or_message_change_moves_the_stamp() {
    let (client, server, _, watch) = busy_pair();
    for (q, name) in QUEUES.iter().enumerate() {
        for (u, unit) in UNITS.iter().enumerate() {
            assert!(watch.entered[q][u], "nothing entered {name} in {unit:?}");
            assert!(watch.left[q][u], "nothing left {name} in {unit:?}");
        }
    }
    for sock in [&client, &server] {
        assert_eq!(counts(sock).map(|q| q.map(|(size, _)| size)), [[0; 2]; 3], "drained");
    }
}

#[test]
fn an_rto_that_only_resends_leaves_the_stamp_where_it_was() {
    let env = TxEnv::default();
    let t0 = Nanos::from_millis(1);
    let (mut client, _server) = established(t0);
    let mut actions = Actions::new();
    let mut watch = Watch::default();
    // A one-way sender: it never receives data, so it owes no ACK.
    watch.call(&mut client, |s| s.send(t0, vec![7; 5 * MSS], env, &mut actions));
    assert_eq!(segs(&mut actions).len(), 5, "the whole flight is lost");
    let (stamp, before) = (client.estimator_stamp(), counts(&client));
    let mut t = t0;
    for fire in 1..=2 {
        t += Nanos::from_millis(400 * fire);
        watch.call(&mut client, |s| s.on_timer(t, TimerKind::Rto, env, &mut actions));
        assert!(!segs(&mut actions).is_empty(), "RTO {fire} resends");
        assert_eq!(client.stats().rto_fires, fire);
        assert_eq!(counts(&client), before, "RTO {fire} moved no byte or message");
        assert_eq!(client.estimator_stamp(), stamp, "RTO {fire} moved the stamp");
    }
    assert!(client.stats().retransmissions >= 2);
}

#[test]
fn a_busy_socket_reads_empty_in_the_packet_unit() {
    let (client, server, now, _) = busy_pair();
    for sock in [&client, &server] {
        let packets = sock.local_snapshots(now, Unit::Packets);
        for (name, snap) in QUEUES.iter().zip([packets.unacked, packets.unread, packets.ackdelay]) {
            assert_eq!((snap.total, snap.integral), (0, 0), "{name} in packets");
        }
        // The byte unit saw the traffic.
        let bytes = sock.local_snapshots(now, Unit::Bytes);
        assert!(bytes.unacked.total > 0 && bytes.unread.total > 0 && bytes.ackdelay.total > 0);
    }
}
