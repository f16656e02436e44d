//! Seeded sweep of SACK recovery: a loopback pair exchanges two
//! independent message streams over a link with Gilbert–Elliott bursty
//! loss, bounded reordering and duplication, each drawn per segment from
//! one seed. Properties that need no golden: every byte of each stream
//! arrives exactly once and in order, and every invariant gate stays clean
//! (the gates panic inline in debug builds; `check_invariants` is asserted
//! at the end in any build). 32 seeds run by default; the `#[ignore]`d
//! variant runs 512 and is what `ci.sh` runs in release.

use std::collections::BTreeMap;

use littles::Nanos;
use simnet::Pcg32;
use tcpsim::config::TcpConfig;
use tcpsim::segment::{FlowId, Segment};
use tcpsim::socket::{Action, Actions, TcpSocket, TimerKind, TxEnv, WakeReason};
use tcpsim::Payload;

const CLIENT: usize = 0;
const SERVER: usize = 1;

#[expect(
    clippy::large_enum_variant,
    reason = "the relay's own queue keeps its few segments by value"
)]
enum Ev {
    /// A segment reaches side `to`.
    Deliver { to: usize, seg: Segment },
    /// Side `side`'s timer of `kind`, armed as generation `gen`.
    Timer { side: usize, kind: usize, gen: u64 },
    /// Side `side` sends its next message.
    Send { side: usize },
}

struct World {
    rng: Pcg32,
    queue: BTreeMap<(u64, u64), Ev>,
    seq: u64,
    socks: [TcpSocket; 2],
    /// Live generation per (side, timer kind); a popped timer of another
    /// generation was cancelled or re-armed.
    timers: [[Option<u64>; 3]; 2],
    next_gen: u64,
    /// Gilbert–Elliott state per direction (index = sender side).
    bad: [bool; 2],
    /// Each side's outgoing stream, and what the other side read of it.
    sent: [Vec<u8>; 2],
    read: [Vec<u8>; 2],
    messages_left: [u32; 2],
}

fn kind_index(kind: TimerKind) -> usize {
    match kind {
        TimerKind::Rto => 0,
        TimerKind::Delack => 1,
        TimerKind::Cork => 2,
    }
}

const KINDS: [TimerKind; 3] = [TimerKind::Rto, TimerKind::Delack, TimerKind::Cork];

impl World {
    fn schedule(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.queue.insert((at, self.seq), ev);
    }

    /// Carries out one side's actions at `now`.
    fn apply(&mut self, now: u64, side: usize, mut actions: Actions) {
        for &action in actions.iter() {
            match action {
                Action::Transmit(key) => self.transmit(now, side, actions.segment(key).clone()),
                Action::ArmTimer(kind, delay) => {
                    self.next_gen += 1;
                    let (kind, gen) = (kind_index(kind), self.next_gen);
                    self.timers[side][kind] = Some(gen);
                    self.schedule(now + delay.as_nanos(), Ev::Timer { side, kind, gen });
                }
                Action::CancelTimer(kind) => self.timers[side][kind_index(kind)] = None,
                Action::Wake(WakeReason::Readable) => {
                    let (mut more, mut views) = (Actions::new(), Vec::<Payload>::new());
                    let at = Nanos::from_nanos(now);
                    self.socks[side].recv(at, usize::MAX, &mut views, &mut more);
                    self.read[1 - side].extend_from_slice(&views.concat());
                    self.apply(now, side, more);
                }
                Action::Wake(_) => {}
            }
        }
        actions.clear();
    }

    /// The link: bursty loss (mean burst 4 segments, half lost inside a
    /// burst), 20 % reordered by up to 200 µs, 5 % duplicated. The
    /// handshake is already done, so every segment here is fair game.
    fn transmit(&mut self, now: u64, from: usize, seg: Segment) {
        let flip = if self.bad[from] { 0.25 } else { 0.01 };
        if self.rng.gen_bool(flip) {
            self.bad[from] = !self.bad[from];
        }
        if self.bad[from] && self.rng.gen_bool(0.5) {
            return;
        }
        let extra = if self.rng.gen_bool(0.2) { self.rng.gen_range(200_000) } else { 0 };
        let at = now + 10_000 + extra;
        if self.rng.gen_bool(0.05) {
            self.schedule(at + 1_000, Ev::Deliver { to: 1 - from, seg: seg.clone() });
        }
        self.schedule(at, Ev::Deliver { to: 1 - from, seg });
    }
}

fn established(config: TcpConfig) -> [TcpSocket; 2] {
    let (env, now) = (TxEnv::default(), Nanos::ZERO);
    let mut actions = Actions::new();
    let segs = |actions: &mut Actions| -> Vec<Segment> {
        let out = actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(key) => Some(actions.segment(*key).clone()),
                _ => None,
            })
            .collect();
        actions.clear();
        out
    };
    let mut client = TcpSocket::client(FlowId(1), config, now, &mut actions);
    let syn = segs(&mut actions).remove(0);
    let mut server = TcpSocket::server_on_syn(FlowId(1), config, now, &syn, &mut actions);
    let synack = segs(&mut actions).remove(0);
    client.on_segment(now, &synack, env, &mut actions);
    for ack in segs(&mut actions) {
        server.on_segment(now, &ack, env, &mut actions);
    }
    [client, server]
}

/// One seed: 40 messages each way of 1 B – 24 KiB, sent about every
/// 300 µs, then run until both streams are read or 20 simulated seconds
/// pass. Returns the SACK blocks the gates checked.
fn sweep_one(seed: u64) -> u64 {
    let config = TcpConfig::default();
    let mut rng = Pcg32::new(seed);
    // Timer bounds as in the loss experiments, so an RTO costs 5–40 ms.
    let mut config = config;
    config.rto.min_rto = Nanos::from_millis(5);
    config.rto.max_rto = Nanos::from_millis(40);
    config.tso.enabled = rng.gen_bool(0.5);
    let mut w = World {
        rng,
        queue: BTreeMap::new(),
        seq: 0,
        socks: established(config),
        timers: [[None; 3]; 2],
        next_gen: 0,
        bad: [false; 2],
        sent: [Vec::new(), Vec::new()],
        read: [Vec::new(), Vec::new()],
        messages_left: [40, 40],
    };
    w.schedule(1_000, Ev::Send { side: CLIENT });
    w.schedule(1_500, Ev::Send { side: SERVER });
    let env = TxEnv::default();
    let mut last = 0;
    while let Some(((now, _), ev)) = w.queue.pop_first() {
        last = now;
        assert!(now < 20_000_000_000, "seed {seed:#x}: streams never completed");
        let t = Nanos::from_nanos(now);
        let mut actions = Actions::new();
        let side = match ev {
            Ev::Deliver { to, seg } => {
                w.socks[to].on_segment(t, &seg, env, &mut actions);
                to
            }
            Ev::Timer { side, kind, gen } => {
                if w.timers[side][kind] != Some(gen) {
                    continue;
                }
                w.timers[side][kind] = None;
                w.socks[side].on_timer(t, KINDS[kind], env, &mut actions);
                side
            }
            Ev::Send { side } => {
                let len = 1 + w.rng.gen_range(24 * 1024) as usize;
                let start = w.sent[side].len();
                let msg: Vec<u8> = (start..start + len).map(|i| (i % 251) as u8).collect();
                let accepted = w.socks[side].send(t, &msg, env, &mut actions);
                assert_eq!(accepted, len, "the send buffer holds the whole stream");
                w.sent[side].extend_from_slice(&msg);
                w.messages_left[side] -= 1;
                if w.messages_left[side] > 0 {
                    let gap = 100_000 + w.rng.gen_range(400_000);
                    w.schedule(now + gap, Ev::Send { side });
                }
                side
            }
        };
        w.apply(now, side, actions);
        let done = w.messages_left == [0, 0] && w.read[0].len() == w.sent[0].len()
            && w.read[1].len() == w.sent[1].len();
        if done {
            break;
        }
    }
    for side in [CLIENT, SERVER] {
        assert!(w.sent[side].len() > 40, "seed {seed:#x}: side {side} sent little");
        assert!(w.read[side] == w.sent[side], "seed {seed:#x}: stream {side} corrupted");
        if let Err(v) = w.socks[side].check_invariants(Nanos::from_nanos(last)) {
            panic!("seed {seed:#x}: side {side}: {v}");
        }
    }
    w.socks.iter().map(|s| s.invariants().sack_blocks()).sum()
}

fn sweep(seeds: u64) {
    let mut blocks = 0;
    for i in 0..seeds {
        blocks += sweep_one(0x5AC5_0000 + i);
    }
    assert!(blocks > seeds, "the sweep must exercise SACK: {blocks} blocks");
}

#[test]
fn every_byte_arrives_once_in_order_under_loss_reordering_and_duplication() {
    sweep(32);
}

#[test]
#[ignore = "512 seeds; ci.sh runs it in release"]
fn every_byte_arrives_once_in_order_512_seeds() {
    sweep(512);
}
