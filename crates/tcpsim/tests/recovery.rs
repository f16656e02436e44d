//! Loss-recovery tests driven directly through the socket API: handshake
//! retransmission on the RTO, fast retransmit on triple duplicate ACKs
//! (once per window), Karn's rule excluding retransmitted ranges from RTT
//! sampling, and SRTT recovery once the loss episode ends. Segments are
//! relayed by hand so individual packets can be dropped or replayed
//! deterministically.

use littles::Nanos;
use tcpsim::config::{TcpConfig, TsoConfig};
use tcpsim::segment::{FlowId, Segment};
use tcpsim::socket::{Action, TcpSocket, TcpState, TimerKind, TxEnv, WakeReason};

const MSS: usize = 1448;

fn config() -> TcpConfig {
    TcpConfig {
        // One MSS per segment so the relay can drop individual packets.
        tso: TsoConfig { enabled: false },
        ..TcpConfig::default()
    }
}

/// Pulls the transmitted segments out of an action list, discarding
/// timer and wake bookkeeping.
fn segs(actions: &mut Vec<Action>) -> Vec<Segment> {
    let out = actions
        .iter()
        .filter_map(|a| match a {
            Action::Transmit(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    actions.clear();
    out
}

/// Completes the three-way handshake and returns an established pair.
fn established(now: Nanos) -> (TcpSocket, TcpSocket) {
    let env = TxEnv::default();
    let mut actions = Vec::new();
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

// The simulator's fault layer never drops a SYN or SYN-ACK, so the
// handshake's retransmission path is only reachable by hand.

#[test]
fn lost_syn_is_resent_by_the_rto_with_backoff() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let initial_rto = config().rto.initial_rto;
    let mut actions = Vec::new();
    let mut client = TcpSocket::client(FlowId(1), config(), t0, &mut actions);
    assert!(actions.contains(&Action::ArmTimer(TimerKind::Rto, initial_rto)));
    let syn = segs(&mut actions).remove(0); // lost on the wire

    // The RTO re-sends the very same SYN and re-arms at twice the timeout.
    let t1 = t0 + initial_rto;
    client.on_timer(t1, TimerKind::Rto, env, &mut actions);
    assert!(actions.contains(&Action::ArmTimer(TimerKind::Rto, initial_rto * 2)));
    let resent = segs(&mut actions);
    assert_eq!(resent, vec![syn]);
    assert_eq!(client.state(), TcpState::SynSent);

    // The copy opens the connection as the original would have.
    let mut server = TcpSocket::server_on_syn(FlowId(1), config(), t1, &resent[0], &mut actions);
    let synack = segs(&mut actions).remove(0);
    client.on_segment(t1, &synack, env, &mut actions);
    assert!(actions.contains(&Action::Wake(WakeReason::Connected)));
    for ack in segs(&mut actions) {
        server.on_segment(t1, &ack, env, &mut actions);
    }
    assert_eq!(client.state(), TcpState::Established);
    assert_eq!(server.state(), TcpState::Established);
}

#[test]
fn lost_syn_ack_is_resent_and_the_handshake_completes() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let initial_rto = config().rto.initial_rto;
    let mut actions = Vec::new();
    let mut client = TcpSocket::client(FlowId(1), config(), t0, &mut actions);
    let syn = segs(&mut actions).remove(0);
    let mut server = TcpSocket::server_on_syn(FlowId(1), config(), t0, &syn, &mut actions);
    assert!(actions.contains(&Action::ArmTimer(TimerKind::Rto, initial_rto)));
    let synack = segs(&mut actions).remove(0); // lost on the wire

    // The server's RTO re-sends the same SYN-ACK, backed off.
    let t1 = t0 + initial_rto;
    server.on_timer(t1, TimerKind::Rto, env, &mut actions);
    assert!(actions.contains(&Action::ArmTimer(TimerKind::Rto, initial_rto * 2)));
    let resent = segs(&mut actions);
    assert_eq!(resent, vec![synack]);
    assert_eq!(server.state(), TcpState::SynReceived);

    // It completes the handshake: the client's ACK is accepted, the
    // server's RTO is cancelled, and data flows.
    client.on_segment(t1, &resent[0], env, &mut actions);
    assert_eq!(client.state(), TcpState::Established);
    for ack in segs(&mut actions) {
        server.on_segment(t1, &ack, env, &mut actions);
    }
    assert_eq!(server.state(), TcpState::Established);
    assert!(actions.contains(&Action::Wake(WakeReason::Accepted)));
    assert!(actions.contains(&Action::CancelTimer(TimerKind::Rto)));
    actions.clear();
    assert_eq!(client.send(t1, &[7; 100], env, &mut actions), 100);
    for seg in segs(&mut actions) {
        server.on_segment(t1, &seg, env, &mut actions);
    }
    assert_eq!(server.recv_available(), 100);
}

#[test]
fn triple_dup_acks_trigger_exactly_one_fast_retransmit() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Vec::new();

    let sent = client.send(t0, &vec![0xCD; 5 * MSS], env, &mut actions);
    assert_eq!(sent, 5 * MSS);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5, "TSO off: one MSS per segment");

    // Drop the first segment; the remaining four each arrive out of
    // order, which forces an immediate duplicate ACK from the receiver.
    let t1 = t0 + Nanos::from_micros(50);
    let mut dup_acks = Vec::new();
    for seg in &data[1..] {
        server.on_segment(t1, seg, env, &mut actions);
        dup_acks.extend(segs(&mut actions));
    }
    assert_eq!(dup_acks.len(), 4, "every out-of-order arrival ACKs at once");
    assert!(server.invariants().rx_out_of_order() >= 4);

    // Two duplicate ACKs: counted, but no retransmission yet.
    let t2 = t1 + Nanos::from_micros(50);
    client.on_segment(t2, &dup_acks[0], env, &mut actions);
    client.on_segment(t2, &dup_acks[1], env, &mut actions);
    assert!(segs(&mut actions).is_empty());
    assert_eq!(client.stats().dup_acks, 2);
    assert_eq!(client.stats().fast_retransmits, 0);

    // The third triggers exactly one retransmission of the first unacked
    // MSS, without waiting for the RTO.
    client.on_segment(t2, &dup_acks[2], env, &mut actions);
    let retx = segs(&mut actions);
    assert_eq!(client.stats().fast_retransmits, 1);
    assert_eq!(retx.len(), 1);
    assert_eq!(retx[0].seq, data[0].seq);
    assert_eq!(retx[0].payload.len(), MSS);

    // A fourth duplicate ACK in the same window must not retransmit again.
    client.on_segment(t2, &dup_acks[3], env, &mut actions);
    assert!(segs(&mut actions).is_empty());
    assert_eq!(client.stats().dup_acks, 4);
    assert_eq!(client.stats().fast_retransmits, 1, "once per window");

    // Delivering the retransmission plugs the hole: the receiver's
    // cumulative ACK jumps over the buffered out-of-order data.
    let t3 = t2 + Nanos::from_micros(50);
    server.on_segment(t3, &retx[0], env, &mut actions);
    server.on_timer(t3, TimerKind::Delack, env, &mut actions);
    let acks = segs(&mut actions);
    assert!(!acks.is_empty());
    let t4 = t3 + Nanos::from_micros(50);
    for ack in &acks {
        client.on_segment(t4, ack, env, &mut actions);
    }
    assert_eq!(server.recv_available(), 5 * MSS, "all data reassembled");
}

#[test]
fn karn_excludes_retransmitted_ranges_and_srtt_recovers() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Vec::new();

    client.send(t0, &vec![0xEE; 5 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5);

    // No data ACK yet, so no RTT sample has ever been taken.
    assert!(client.srtt().is_none());

    // Drop the first TWO segments; the three survivors yield exactly the
    // three duplicate ACKs needed for a fast retransmit of [0, MSS).
    let t1 = t0 + Nanos::from_micros(50);
    let mut dup_acks = Vec::new();
    for seg in &data[2..] {
        server.on_segment(t1, seg, env, &mut actions);
        dup_acks.extend(segs(&mut actions));
    }
    assert_eq!(dup_acks.len(), 3);
    let t2 = t1 + Nanos::from_micros(50);
    let mut retx = Vec::new();
    for ack in &dup_acks {
        client.on_segment(t2, ack, env, &mut actions);
        retx.extend(segs(&mut actions));
    }
    assert_eq!(client.stats().fast_retransmits, 1);
    assert_eq!(retx.len(), 1);
    assert_eq!(retx[0].seq, data[0].seq);

    // The retransmission fills only the first hole: the server's ACK is a
    // partial ACK covering exactly the retransmitted (ambiguous) range.
    // Karn's rule: it must NOT produce an RTT sample.
    let t3 = t2 + Nanos::from_micros(50);
    server.on_segment(t3, &retx[0], env, &mut actions);
    server.on_timer(t3, TimerKind::Delack, env, &mut actions);
    let partial = segs(&mut actions);
    assert!(!partial.is_empty());
    let t4 = t3 + Nanos::from_micros(50);
    for ack in &partial {
        client.on_segment(t4, ack, env, &mut actions);
    }
    actions.clear();
    assert!(
        client.srtt().is_none(),
        "ACK of a retransmitted range is ambiguous and must not be sampled"
    );

    // The second hole is only recoverable by timeout (no SACK): go-back-N
    // resends from the new una. Everything it covers is marked
    // retransmitted, so the final cumulative ACK is ambiguous too.
    let t5 = t4 + Nanos::from_millis(1);
    client.on_timer(t5, TimerKind::Rto, env, &mut actions);
    let goback = segs(&mut actions);
    assert!(!goback.is_empty(), "RTO must retransmit the next hole");
    assert_eq!(goback[0].seq, data[1].seq);
    let t6 = t5 + Nanos::from_micros(50);
    for seg in &goback {
        server.on_segment(t6, seg, env, &mut actions);
    }
    server.on_timer(t6, TimerKind::Delack, env, &mut actions);
    let full = segs(&mut actions);
    assert!(!full.is_empty());
    let t7 = t6 + Nanos::from_micros(50);
    for ack in &full {
        client.on_segment(t7, ack, env, &mut actions);
    }
    actions.clear();
    assert!(client.srtt().is_none(), "go-back-N ranges are ambiguous too");
    assert_eq!(server.recv_available(), 5 * MSS);

    // Episode over. The first cleanly-ACKed transmission after recovery
    // seeds SRTT with an unambiguous sample of exactly the ACK delay.
    let t8 = t7 + Nanos::from_millis(1);
    client.send(t8, &vec![0x11; MSS], env, &mut actions);
    let fresh = segs(&mut actions);
    assert_eq!(fresh.len(), 1);
    let t9 = t8 + Nanos::from_micros(30);
    server.on_segment(t9, &fresh[0], env, &mut actions);
    server.on_timer(t9, TimerKind::Delack, env, &mut actions);
    let acks = segs(&mut actions);
    assert!(!acks.is_empty());
    let t10 = t8 + Nanos::from_micros(200);
    for ack in &acks {
        client.on_segment(t10, ack, env, &mut actions);
    }
    assert_eq!(
        client.srtt(),
        Some(Nanos::from_micros(200)),
        "first post-episode sample seeds srtt with the true delay"
    );
}

#[test]
fn repeated_rto_does_not_shrink_the_recovery_point() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Vec::new();

    client.send(t0, &vec![0x42; 5 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5);

    // Every segment is lost. The first RTO rewinds to una and, with cwnd
    // collapsed, replays only the head of the window.
    let t1 = t0 + Nanos::from_millis(300);
    client.on_timer(t1, TimerKind::Rto, env, &mut actions);
    let first = segs(&mut actions);
    assert!(!first.is_empty());
    assert!(first.len() < 5, "collapsed cwnd must not replay everything");

    // That replay is lost too. A second RTO mid-recovery rewinds again;
    // the recovery point must stay at the original high-water mark, not
    // shrink to the partially-replayed nxt — otherwise the tail of the
    // original window would later be emitted as "fresh" data (tripping
    // the tx-continuity gate in debug builds) and RTT-sampled despite
    // Karn's rule.
    let t2 = t1 + Nanos::from_millis(600);
    client.on_timer(t2, TimerKind::Rto, env, &mut actions);
    let second = segs(&mut actions);
    assert!(!second.is_empty());
    assert_eq!(second[0].seq, data[0].seq, "go-back-N restarts at una");

    // Let recovery complete: relay every segment the client emits, feeding
    // ACKs back as they appear, until the server has the full stream.
    let mut t = t2;
    let mut pending: Vec<Segment> = second;
    for _round in 0..64 {
        if server.recv_available() == 5 * MSS && pending.is_empty() {
            break;
        }
        t += Nanos::from_micros(100);
        let mut acks = Vec::new();
        for seg in &pending {
            server.on_segment(t, seg, env, &mut actions);
            acks.extend(segs(&mut actions));
        }
        server.on_timer(t, TimerKind::Delack, env, &mut actions);
        acks.extend(segs(&mut actions));
        t += Nanos::from_micros(100);
        pending.clear();
        for ack in &acks {
            client.on_segment(t, ack, env, &mut actions);
            pending.extend(segs(&mut actions));
        }
    }
    assert_eq!(server.recv_available(), 5 * MSS, "stream fully recovered");
    // Karn: every byte of the original window was retransmitted during the
    // episode, so none of its ACKs may seed the RTT estimator.
    assert!(client.srtt().is_none());
}

#[test]
fn replayed_in_order_segment_is_classified_duplicate() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Vec::new();

    client.send(t0, &vec![0x7A; MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 1);

    let t1 = t0 + Nanos::from_micros(50);
    server.on_segment(t1, &data[0], env, &mut actions);
    actions.clear();
    assert_eq!(server.invariants().rx_duplicates(), 0);

    // A network-level duplicate of data the receiver already has must be
    // counted and must not move rcv_nxt (the gate inside on_rx_segment
    // panics in debug builds if it does) — and it forces a quick ACK so
    // the sender learns its state.
    let t2 = t1 + Nanos::from_micros(50);
    server.on_segment(t2, &data[0], env, &mut actions);
    let acks = segs(&mut actions);
    assert_eq!(server.invariants().rx_duplicates(), 1);
    assert!(!acks.is_empty(), "duplicate arrival forces an immediate ACK");
    assert_eq!(server.recv_available(), MSS, "payload not double-counted");
}
