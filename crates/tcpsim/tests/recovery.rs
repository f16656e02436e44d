//! Loss-recovery tests driven directly through the socket API: handshake
//! retransmission on the RTO, SACK-based recovery (RFC 2018 blocks, RFC
//! 6675 loss detection: once per episode, several holes per round trip,
//! the byte rule for a dropped TSO super-segment), an RTO that resends
//! only un-SACKed bytes, Karn's rule excluding retransmitted ranges from
//! RTT sampling, and SRTT recovery once the loss episode ends. Segments
//! are relayed by hand so individual packets can be dropped or replayed
//! deterministically.

use littles::Nanos;
use tcpsim::config::{NagleMode, TcpConfig, TsoConfig};
use tcpsim::segment::{FlowId, Segment};
use tcpsim::socket::{Action, Actions, TcpSocket, TcpState, TimerKind, TxEnv, WakeReason};
use tcpsim::Payload;

const MSS: usize = 1448;

fn config() -> TcpConfig {
    TcpConfig {
        // One MSS per segment so the relay can drop individual packets.
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
    established_with(config(), now)
}

fn established_with(config: TcpConfig, now: Nanos) -> (TcpSocket, TcpSocket) {
    let env = TxEnv::default();
    let mut actions = Actions::new();
    let mut client = TcpSocket::client(FlowId(1), config, now, &mut actions);
    let syn = segs(&mut actions).remove(0);
    let mut server = TcpSocket::server_on_syn(FlowId(1), config, now, &syn, &mut actions);
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
    let mut actions = Actions::new();
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
    let mut actions = Actions::new();
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
    assert_eq!(client.send(t1, vec![7; 100], env, &mut actions), 100);
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
    let mut actions = Actions::new();

    let sent = client.send(t0, vec![0xCD; 5 * MSS], env, &mut actions);
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

    // Each ACK carried SACK blocks for what the receiver holds.
    assert!(dup_acks.iter().all(|a| a.options.sack().is_some()));
    assert_eq!(client.stats().sack_recoveries, 1);

    // A fourth duplicate ACK in the same episode must not retransmit again.
    client.on_segment(t2, &dup_acks[3], env, &mut actions);
    assert!(segs(&mut actions).is_empty());
    assert_eq!(client.stats().dup_acks, 4);
    assert_eq!(
        client.stats().fast_retransmits,
        1,
        "once per recovery episode"
    );
    assert_eq!(client.stats().sack_recoveries, 1);

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
    let mut actions = Actions::new();

    client.send(t0, vec![0xEE; 5 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5);

    // No data ACK yet, so no RTT sample has ever been taken.
    assert!(client.srtt().is_none());

    // Drop the first TWO segments. The three survivors each draw a
    // duplicate ACK whose SACK blocks cover them: three SACKed ranges
    // above both holes mark both lost (RFC 6675 IsLost), so the third
    // ACK starts recovery and both holes go out in the same round trip.
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
    assert_eq!(client.stats().fast_retransmits, 2);
    let seqs: Vec<_> = retx.iter().map(|s| s.seq).collect();
    assert_eq!(seqs, vec![data[0].seq, data[1].seq]);

    // Both resends plug the holes; the gap-filling arrivals are ACKed at
    // once. The cumulative ACK frees only resent or SACKed ranges, so
    // Karn's rule gives no sample from send times: the timestamp echo
    // does, and it measures the resend (t2 → t4), not the original send
    // (t0 → t4).
    let t3 = t2 + Nanos::from_micros(50);
    let mut acks = Vec::new();
    for seg in &retx {
        server.on_segment(t3, seg, env, &mut actions);
        acks.extend(segs(&mut actions));
    }
    assert!(!acks.is_empty(), "a segment filling a gap is ACKed at once");
    let t4 = t3 + Nanos::from_micros(50);
    for ack in &acks {
        client.on_segment(t4, ack, env, &mut actions);
    }
    actions.clear();
    assert_eq!(server.recv_available(), 5 * MSS);
    assert_eq!(client.stats().rto_fires, 0);
    assert_eq!(
        client.srtt(),
        Some(Nanos::from_micros(100)),
        "the echo of the resend gives its RTT, never the original's"
    );

    // Episode over. The first cleanly-ACKed transmission after recovery
    // is sampled from its send time.
    let t8 = t4 + Nanos::from_millis(1);
    client.send(t8, vec![0x11; MSS], env, &mut actions);
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
    // SRTT = 7/8 · 100 µs + 1/8 · 200 µs.
    assert_eq!(client.srtt(), Some(Nanos::from_nanos(112_500)));
}

#[test]
fn repeated_rto_does_not_shrink_the_recovery_point() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Actions::new();

    client.send(t0, vec![0x42; 5 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5);

    // Every segment is lost, so nothing is SACKed. The first RTO rewinds to
    // una and, with cwnd collapsed, resends only the head of the window.
    let t1 = t0 + Nanos::from_millis(300);
    client.on_timer(t1, TimerKind::Rto, env, &mut actions);
    let first = segs(&mut actions);
    assert!(!first.is_empty());
    assert!(first.len() < 5, "collapsed cwnd must not replay everything");

    // That resend is lost too. A second RTO mid-recovery rewinds again;
    // the recovery point must stay at the original high-water mark, not
    // shrink to the partially-resent nxt — otherwise the tail of the
    // original window would later be emitted as "fresh" data (tripping
    // the tx-continuity gate in debug builds) and RTT-sampled despite
    // Karn's rule.
    let t2 = t1 + Nanos::from_millis(600);
    client.on_timer(t2, TimerKind::Rto, env, &mut actions);
    let second = segs(&mut actions);
    assert!(!second.is_empty());
    assert_eq!(second[0].seq, data[0].seq, "the RTO resend restarts at una");

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
    let mut actions = Actions::new();

    client.send(t0, vec![0x7A; MSS], env, &mut actions);
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
    assert!(
        !acks.is_empty(),
        "duplicate arrival forces an immediate ACK"
    );
    assert_eq!(server.recv_available(), MSS, "payload not double-counted");
}

/// Relays segments between the pair until neither side has anything left
/// to send, firing the delayed-ACK timer on each round; `drop` decides,
/// per data segment from the client, whether the link loses it. Returns
/// the data segments the client sent.
fn relay(
    client: &mut TcpSocket,
    server: &mut TcpSocket,
    t: &mut Nanos,
    first: Vec<Segment>,
    drop: &mut dyn FnMut(&Segment) -> bool,
) -> Vec<Segment> {
    let env = TxEnv::default();
    let mut actions = Actions::new();
    let mut sent = Vec::new();
    let mut pending = first;
    for _round in 0..64 {
        if pending.is_empty() {
            break;
        }
        *t += Nanos::from_micros(20);
        let mut acks = Vec::new();
        for seg in pending.drain(..) {
            sent.push(seg.clone());
            if !drop(&seg) {
                server.on_segment(*t, &seg, env, &mut actions);
                acks.extend(segs(&mut actions));
            }
        }
        server.on_timer(*t, TimerKind::Delack, env, &mut actions);
        acks.extend(segs(&mut actions));
        *t += Nanos::from_micros(20);
        for ack in &acks {
            client.on_segment(*t, ack, env, &mut actions);
            pending.extend(segs(&mut actions));
        }
    }
    sent
}

#[test]
fn two_holes_in_one_flight_are_repaired_within_one_rtt_without_an_rto() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Actions::new();

    client.send(t0, vec![0x5A; 8 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 8);
    // Lose segments 1 and 4 once each.
    let holes = [data[1].seq, data[4].seq];
    let mut lost = Vec::new();
    let mut drop = |seg: &Segment| {
        let hit = holes.contains(&seg.seq) && !lost.contains(&seg.seq);
        if hit {
            lost.push(seg.seq);
        }
        hit
    };
    let mut t = t0;
    let sent = relay(&mut client, &mut server, &mut t, data.clone(), &mut drop);

    assert_eq!(server.recv_available(), 8 * MSS, "every byte arrived");
    let resent: Vec<_> = sent[8..].iter().map(|s| s.seq).collect();
    assert_eq!(resent, holes, "each hole resent once, nothing else");
    let stats = client.stats();
    assert_eq!(
        (
            stats.sack_recoveries,
            stats.fast_retransmits,
            stats.rto_fires
        ),
        (1, 2, 0)
    );
    // Both resends left in the same round trip as the SACKs that showed
    // the holes: the original flight at t0 + 20 µs, the repair at +60 µs.
    assert!(t <= t0 + Nanos::from_micros(200), "recovered by {t:?}");
}

#[test]
fn dropped_tso_super_segment_is_lost_by_the_byte_rule_on_the_first_sack() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    // The benchmark's transport: TSO on, Nagle off.
    let tso = TcpConfig {
        nagle: NagleMode::Off,
        ..TcpConfig::default()
    };
    assert!(tso.tso.enabled);
    let (mut client, mut server) = established_with(tso, t0);
    let mut actions = Actions::new();
    // Warm the congestion window past 16 KiB, as a loaded connection's is.
    let mut t = t0;
    for _ in 0..40 {
        client.send(t, vec![0; 16 * 1024], env, &mut actions);
        let flight = segs(&mut actions);
        relay(&mut client, &mut server, &mut t, flight, &mut |_| false);
        server.recv(t, usize::MAX, &mut Vec::<Payload>::new(), &mut actions);
        actions.clear();
    }
    let t0 = t;

    // A 16 KiB SET leaves as one TSO super-segment, which the link drops
    // whole; the next request's super-segment arrives out of order.
    client.send(t0, vec![1; 16 * 1024], env, &mut actions);
    let first = segs(&mut actions);
    let t1 = t0 + Nanos::from_micros(1_600);
    client.send(t1, vec![2; 16 * 1024], env, &mut actions);
    let second = segs(&mut actions);
    assert!(first
        .iter()
        .chain(&second)
        .all(|s| s.wire_packets > 1 || s.len() < MSS));
    let mut acks = Vec::new();
    for seg in &second {
        server.on_segment(t1, seg, env, &mut actions);
        acks.extend(segs(&mut actions));
    }
    // One duplicate ACK, but its SACK block already covers more than two
    // MSS above the hole: the hole is lost and recovery starts at once.
    let t2 = t1 + Nanos::from_micros(20);
    client.on_segment(t2, &acks[0], env, &mut actions);
    let retx = segs(&mut actions);
    assert_eq!(client.stats().dup_acks, 1);
    assert_eq!(client.stats().sack_recoveries, 1);
    assert_eq!(retx.first().map(|s| s.seq), Some(first[0].seq));
    let resent: usize = retx.iter().map(Segment::len).sum();
    assert_eq!(
        resent,
        first.iter().map(Segment::len).sum::<usize>(),
        "the whole hole, no more"
    );
    for seg in &retx {
        server.on_segment(t2, seg, env, &mut actions);
    }
    assert_eq!(server.recv_available(), 32 * 1024);
    assert_eq!(client.stats().rto_fires, 0);
}

#[test]
fn rto_after_sacks_resends_only_unsacked_bytes() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Actions::new();

    client.send(t0, vec![0x33; 5 * MSS], env, &mut actions);
    let data = segs(&mut actions);
    assert_eq!(data.len(), 5);
    // Lose 0 and 2; 1, 3 and 4 arrive and are SACKed. Three SACKed
    // ranges mark only hole 0 lost, and its fast retransmission is lost
    // too.
    let t1 = t0 + Nanos::from_micros(20);
    let mut acks = Vec::new();
    for i in [1, 3, 4] {
        server.on_segment(t1, &data[i], env, &mut actions);
        acks.extend(segs(&mut actions));
    }
    let t2 = t1 + Nanos::from_micros(20);
    for ack in &acks {
        client.on_segment(t2, ack, env, &mut actions);
    }
    let fast = segs(&mut actions);
    assert_eq!(
        fast.iter().map(|s| s.seq).collect::<Vec<_>>(),
        vec![data[0].seq]
    );

    // The RTO resends from una, stepping over every SACKed range.
    let mut t = t2 + Nanos::from_millis(300);
    client.on_timer(t, TimerKind::Rto, env, &mut actions);
    let first = segs(&mut actions);
    let sent = relay(&mut client, &mut server, &mut t, first, &mut |_| false);
    let resent: Vec<_> = sent.iter().map(|s| s.seq).collect();
    assert_eq!(
        resent,
        vec![data[0].seq, data[2].seq],
        "only the un-SACKed bytes"
    );
    assert_eq!(server.recv_available(), 5 * MSS);
    assert_eq!(client.stats().rto_fires, 1);
}

#[test]
fn a_stream_with_no_out_of_order_arrival_carries_no_sack_option() {
    let t0 = Nanos::from_millis(1);
    let env = TxEnv::default();
    let (mut client, mut server) = established(t0);
    let mut actions = Actions::new();
    let mut t = t0;
    let mut wire = Vec::new();
    for i in 0..20u8 {
        t += Nanos::from_micros(300);
        client.send(t, vec![i; 3 * MSS + 17], env, &mut actions);
        let data = segs(&mut actions);
        wire.extend(data.iter().cloned());
        for seg in &data {
            server.on_segment(t, seg, env, &mut actions);
        }
        server.send(t, &b"+OK\r\n"[..], env, &mut actions);
        server.on_timer(t, TimerKind::Delack, env, &mut actions);
        let back = segs(&mut actions);
        wire.extend(back.iter().cloned());
        for seg in &back {
            client.on_segment(t, seg, env, &mut actions);
        }
        wire.extend(segs(&mut actions));
        server.recv(t, usize::MAX, &mut Vec::<Payload>::new(), &mut actions);
        client.recv(t, usize::MAX, &mut Vec::<Payload>::new(), &mut actions);
        wire.extend(segs(&mut actions));
    }
    assert!(wire.len() > 60);
    assert!(
        wire.iter().all(|s| s.options.sack().is_none()),
        "no SACK without a hole"
    );
    assert_eq!(
        server.invariants().rx_out_of_order() + client.invariants().rx_out_of_order(),
        0
    );
    assert_eq!(
        client.invariants().sack_blocks() + server.invariants().sack_blocks(),
        0
    );
}
