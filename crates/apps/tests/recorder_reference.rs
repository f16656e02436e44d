//! Differential test of the counters-only recorder.
//!
//! A plain [`EstimateRecorder`] keeps the paper's GETAVGS state for one
//! measurement window — the sums of its local and admitted remote windows
//! from the window's first checkpoint (a tick that folds in a fresh
//! exchange) to its last — and may sleep through ticks that see no new
//! share. `Reference` below is the recorder it replaced, written out
//! plainly: a fresh read of the socket on every tick, every local window
//! summed, the remote window of each admitted exchange summed at a tick
//! whose local window is valid, and a checkpoint of both sums at every
//! tick that folds one in, for the whole run. Both tick against the same
//! socket inside one simulation whose client sends in bursts separated by
//! long silences, reads late, holds ACKs across ticks, changes its tick
//! period, restarts, sees corrupted exchanges and runs across the 2^42 ns
//! wire-clock wrap. Every range the run asks about is a recorder of its
//! own, built for that window, and everything observable must come out
//! equal: the window's sums, bit for bit, its means (Little's law over
//! the difference of the reference's first and last checkpoint in range,
//! and `None` on both sides where fewer than two fall inside) and the
//! validator's counters. So each run is simulated twice: once with the
//! reference alone, to learn the ranges its schedule asks about, then
//! with a recorder for each. Recorders that tick every period stand
//! beside two that sleep, as a parked `LancetClient`'s do, until the
//! peer's next share arrives — in the runs without restarts; where the
//! faults can reset the connection they tick every period, as that
//! client's do. One recorder estimates in `Unit::Packets`, which no
//! exchange carries. `Reference` admits exchanges through the same
//! `ExchangeIntake` as the recorder, so each run's reference checkpoints
//! are also held to a digest recorded from the recorder this one
//! replaced, which stepped an `E2eEstimator` every tick.
//!
//! Hand-driven scenarios then pin the edges — the first tick, a restart,
//! an epoch change under validation, a reject judged again on every tick,
//! and the wire-clock wrap — each with a recorder for every window whose
//! edges are tick instants, so windows holding zero, one and many
//! checkpoints. A recorder asked for a range other than its window says
//! so.

use e2e_apps::driver::EstimateRecorder;
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::{Admitted, ExchangeIntake, ValidateConfig, ValidateStats};
use littles::wire::{WireExchange, WireScale};
use littles::{Nanos, Snapshot};
use simnet::fault::{CorruptConfig, FaultConfig, RestartSchedule};
use simnet::{run, CpuContext, EventQueue, LinkConfig, Pcg32};
use tcpsim::config::{CostConfig, DelAckConfig, ExchangeConfig};
use tcpsim::segment::{E2eOption, Flags, OptionSlot};
use tcpsim::seq::SeqNum;
use tcpsim::socket::Action;
use tcpsim::{
    Actions, App, FlowId, Host, HostCtx, HostId, NetSim, Payload, Segment, SocketId, TcpConfig,
    TcpSocket, TxEnv, Unit, WakeReason,
};

/// The tick-by-tick recorder `EstimateRecorder` must stay equal to.
struct Reference {
    unit: Unit,
    prev_local: Option<EndpointSnapshots>,
    intake: ExchangeIntake,
    cum_local: EndpointWindows,
    cum_remote: EndpointWindows,
    cum_series: Vec<(Nanos, EndpointWindows, EndpointWindows)>,
}

impl Reference {
    fn new(unit: Unit, validate: bool) -> Self {
        let mut intake = ExchangeIntake::new(WireScale::default());
        if validate {
            intake = intake.with_validation(ValidateConfig);
        }
        Reference {
            unit,
            prev_local: None,
            intake,
            cum_local: EndpointWindows::default(),
            cum_remote: EndpointWindows::default(),
            cum_series: Vec::new(),
        }
    }

    fn tick(&mut self, now: Nanos, socket: &TcpSocket) {
        let local = socket.local_snapshots(now, self.unit);
        let window = self
            .prev_local
            .and_then(|prev| EndpointWindows::between(&prev, &local));
        self.prev_local = Some(local);
        let remote = socket.remote().unit(self.unit);
        let admitted = self.intake.admit(remote, window, socket.srtt());
        if let Some(window) = window {
            self.cum_local.merge(&window);
            if let Admitted::Window(Some(far)) = admitted {
                self.cum_remote.merge(&far);
                self.cum_series.push((now, self.cum_local, self.cum_remote));
            }
        }
    }

    fn range_windows(&self, from: Nanos, to: Nanos) -> Option<(EndpointWindows, EndpointWindows)> {
        let mut inside = self
            .cum_series
            .iter()
            .filter(|(at, _, _)| *at >= from && *at < to);
        let first = inside.next()?;
        let last = inside.next_back()?;
        let near = last.1.since(&first.1);
        let far = last.2.since(&first.2);
        (!near.unacked.dt.is_zero()).then_some((near, far))
    }

    /// GETAVGS over the range's one long window: the larger of the two
    /// views' latencies.
    fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let (near, far) = self.range_windows(from, to)?;
        let lv = combine_delays(&near, &far).latency();
        let rv = combine_delays(&far, &near).latency();
        Some(lv.max(rv))
    }

    fn mean_throughput_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let (near, _) = self.range_windows(from, to)?;
        Some(near.unread.throughput())
    }
}

/// A reference and a plain recorder for each window asked about, all
/// configured alike.
struct Pair {
    recorders: Vec<((Nanos, Nanos), EstimateRecorder)>,
    reference: Reference,
}

impl Pair {
    fn new(unit: Unit, validate: bool, windows: &[(Nanos, Nanos)]) -> Self {
        let recorders = windows
            .iter()
            .map(|&(from, to)| {
                let mut recorder = EstimateRecorder::new(unit).with_window(from, to);
                if validate {
                    recorder = recorder.with_validation(ValidateConfig);
                }
                ((from, to), recorder)
            })
            .collect();
        Pair {
            recorders,
            reference: Reference::new(unit, validate),
        }
    }

    fn tick(&mut self, now: Nanos, socket: &TcpSocket) {
        for (_, recorder) in &mut self.recorders {
            recorder.tick_socket(now, socket);
        }
        self.reference.tick(now, socket);
    }

    /// The recorder built for the window `[from, to)`.
    fn recorder(&self, from: Nanos, to: Nanos) -> &EstimateRecorder {
        let found = self.recorders.iter().find(|(w, _)| *w == (from, to));
        match found {
            Some((_, recorder)) => recorder,
            None => panic!("no recorder for [{from}, {to})"),
        }
    }

    fn assert_queries_agree(&self, from: Nanos, to: Nanos) {
        let recorder = self.recorder(from, to);
        assert_eq!(
            recorder.windows_in(from, to),
            self.reference.range_windows(from, to),
            "sums over [{from}, {to})"
        );
        assert_eq!(
            recorder.mean_latency_in(from, to),
            self.reference.mean_latency_in(from, to),
            "mean latency over [{from}, {to})"
        );
        assert_eq!(
            recorder.mean_throughput_in(from, to).map(f64::to_bits),
            self.reference
                .mean_throughput_in(from, to)
                .map(f64::to_bits),
            "mean throughput over [{from}, {to})"
        );
        assert_eq!(
            recorder.validation_stats(),
            self.reference.intake.validation_stats()
        );
    }
}

const KIND_CONNECT: u64 = 1;
const KIND_SEND: u64 = 2;
const KIND_TICK: u64 = 3;
const KIND_READ: u64 = 4;

/// The client: a bursty sender that reads late and ticks its recorders.
struct Churn {
    config: TcpConfig,
    start_at: Nanos,
    /// Tick period before and after `period_change_at`.
    periods: (Nanos, Nanos),
    period_change_at: Nanos,
    rng: Pcg32,
    sock: Option<SocketId>,
    started: bool,
    read_pending: bool,
    /// Recorders ticked at every tick.
    pairs: Vec<Pair>,
    /// Recorders that, as a parked recorder-only client's do, skip every
    /// tick that finds the socket and its arrivals where their last tick
    /// left them, unless the faults can reset the connection.
    sleepers: Vec<Pair>,
    /// The `(socket, arrivals)` the sleepers' last tick saw.
    seen: Option<(SocketId, u64)>,
    /// Ticks the sleepers slept through.
    slept: u64,
    /// No sends from here on: the run ends in one long silence.
    quiet_from: Nanos,
    ticks: u64,
    /// The ranges asked about mid-run, in order.
    asked: Vec<(Nanos, Nanos)>,
    /// Whether the pairs hold a recorder for every range asked about, so
    /// that each is checked where it is asked.
    check: bool,
}

impl Churn {
    fn period(&self, now: Nanos) -> Nanos {
        if now < self.period_change_at {
            self.periods.0
        } else {
            self.periods.1
        }
    }

    fn us_between(&mut self, lo: u64, hi: u64) -> Nanos {
        Nanos::from_micros(lo + self.rng.gen_range(hi - lo))
    }

    fn tick(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        if let Some(sock) = self.sock {
            let socket = ctx.socket(sock);
            for pair in &mut self.pairs {
                pair.tick(now, socket);
            }
            let seen = Some((sock, socket.arrivals()));
            let asleep = seen == self.seen && !ctx.faults_reset_connections();
            for pair in &mut self.sleepers {
                if asleep {
                    pair.reference.tick(now, socket);
                } else {
                    pair.tick(now, socket);
                }
            }
            self.slept += u64::from(asleep);
            self.seen = seen;
            self.ticks += 1;
            // Query mid-run now and then: a window that ends with this tick.
            if self.ticks % 23 == 0 {
                let back = self.us_between(200, 9_000);
                let (from, to) = (now.saturating_sub(back), now + Nanos::from_nanos(1));
                self.asked.push((from, to));
                if self.check {
                    for pair in self.pairs.iter().chain(&self.sleepers) {
                        pair.assert_queries_agree(from, to);
                    }
                }
            }
        }
        ctx.call_after(self.period(now), KIND_TICK);
    }

    fn send(&mut self, ctx: &mut HostCtx<'_>) {
        if ctx.now() >= self.quiet_from {
            return;
        }
        if let Some(sock) = self.sock {
            let len = [48, 700, 1_448, 4_000, 16_000][self.rng.gen_range(5) as usize];
            ctx.send(sock, vec![0x5a; len]);
        }
        // Mostly bursts, now and then a silence many ticks long.
        let gap = if self.rng.gen_bool(0.2) {
            self.us_between(4_000, 22_000)
        } else {
            self.us_between(40, 600)
        };
        ctx.call_after(gap, KIND_SEND);
    }
}

impl App for Churn {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.call_at(self.start_at, KIND_CONNECT);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => {
                self.sock = Some(sock);
                if !self.started {
                    self.started = true;
                    ctx.call_after(Nanos::from_micros(100), KIND_SEND);
                    ctx.call_after(self.period(ctx.now()), KIND_TICK);
                }
            }
            WakeReason::Readable if !self.read_pending => {
                // Read late: the unread queue stays occupied across ticks.
                self.read_pending = true;
                let delay = self.us_between(0, 1_800);
                ctx.call_after(delay, KIND_READ);
            }
            WakeReason::Reset => {
                self.sock = None;
                self.read_pending = false;
                ctx.call_after(Nanos::from_millis(1), KIND_CONNECT);
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        match token {
            KIND_CONNECT => {
                if self.sock.is_none() {
                    ctx.connect(self.config);
                }
            }
            KIND_SEND => self.send(ctx),
            KIND_TICK => self.tick(ctx),
            KIND_READ => {
                self.read_pending = false;
                if let Some(sock) = self.sock {
                    ctx.recv(sock, usize::MAX, &mut Vec::<Payload>::new());
                }
            }
            other => panic!("unknown token {other}"),
        }
    }
}

/// The server: reads after a while, answers most reads, so some requests
/// are acknowledged by the delayed-ACK timer alone.
#[derive(Default)]
struct LazyServer {
    read_pending: Vec<bool>,
}

impl App for LazyServer {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        if self.read_pending.len() <= sock.0 {
            self.read_pending.resize(sock.0 + 1, false);
        }
        if reason == WakeReason::Readable && !self.read_pending[sock.0] {
            self.read_pending[sock.0] = true;
            let delay = Nanos::from_micros(ctx.rng.gen_range(900));
            ctx.call_after(delay, sock.0 as u64);
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = SocketId(token as usize);
        self.read_pending[sock.0] = false;
        let (read, _) = ctx.recv(sock, usize::MAX, &mut Vec::<Payload>::new());
        if read > 0 && ctx.rng.gen_bool(0.75) {
            let len = 32 + ctx.rng.gen_range(3_000) as usize;
            ctx.send(sock, vec![0xa5; len]);
        }
    }
}

/// What one seeded run covered, for the non-vacuity checks.
#[derive(Default)]
struct Coverage {
    /// Ticks the sleepers never ran.
    slept_ticks: u64,
    /// Ranges both sides answer `None`: fewer than two checkpoints in
    /// range.
    unanswered_ranges: u64,
    checkpointed_means: u64,
    stats: ValidateStats,
}

/// Where the default-scale wire clock wraps.
const WIRE_WRAP: Nanos = Nanos::from_nanos(1 << 42);

/// The final silence: 2 190 ticks at the later tick period.
const SILENCE: Nanos = Nanos::from_millis(1_600);

/// One checkpoint: `(time, local sums, remote sums)`.
type Checkpoint = (Nanos, EndpointWindows, EndpointWindows);

/// Folds `words` into an FNV-1a digest, byte by byte.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

/// Every field of one checkpoint, folded into `hash`.
fn fold_checkpoint(hash: &mut u64, (at, local, remote): &Checkpoint) {
    fnv(hash, [at.as_nanos()]);
    for windows in [local, remote] {
        for q in [windows.unacked, windows.unread, windows.ackdelay] {
            let integral = [q.d_integral as u64, (q.d_integral >> 64) as u64];
            fnv(
                hash,
                [q.dt.as_nanos(), q.d_total].into_iter().chain(integral),
            );
        }
    }
}

/// Each seeded run's `(seed, restarts, checkpoints, digest)`: the
/// checkpoints of all six recorders, counted, and digested field by field
/// together with each validator's accepted, rejected and epoch-change
/// counts. Recorded from the recorder that stepped an `E2eEstimator` on
/// every tick and summed the windows it formed, ticked every period.
const RECORDED: [(u64, bool, usize, u64); 8] = [
    (3, true, 147, 0x5ced_ff76_67e7_afdf),
    (0xD1FF, true, 140, 0x1d72_ebcd_608d_2cbb),
    (0x5EED_2026, true, 147, 0xd91f_1ff1_dcfd_4949),
    (77_777, true, 138, 0xf0be_c202_76e2_4d69),
    (3, false, 176, 0x47d1_be6a_be0d_0521),
    (0xD1FF, false, 150, 0x048e_bf8c_3427_fb26),
    (0x5EED_2026, false, 151, 0x87c9_1149_70f6_6b37),
    (77_777, false, 135, 0x3ede_c474_4453_8190),
];

/// One seeded schedule, with or without an endpoint restart, simulated
/// with a recorder for each of `windows` in every pair, and checked mid-run
/// when `windows` is not empty. Returns the client after the run and every
/// range the run asks about: the ones asked mid-run, then the ones asked
/// after it.
fn simulate(seed: u64, restarts: bool, windows: &[(Nanos, Nanos)]) -> (Churn, Vec<(Nanos, Nanos)>) {
    let start_at = WIRE_WRAP - Nanos::from_millis(45);
    let quiet_from = start_at + Nanos::from_millis(160);
    let end = quiet_from + SILENCE;
    let tcp = TcpConfig {
        exchange: ExchangeConfig {
            enabled: true,
            min_interval: Nanos::from_micros(300),
            units: [true, false, true],
        },
        // Longer than a tick: a held ACK keeps the ackdelay queue
        // occupied over several ticks.
        delack: DelAckConfig {
            timeout: Nanos::from_micros(1_700),
            ..DelAckConfig::default()
        },
        ..TcpConfig::default()
    };
    let client = Churn {
        config: tcp,
        start_at,
        periods: (Nanos::from_micros(500), Nanos::from_micros(730)),
        period_change_at: start_at + Nanos::from_millis(70),
        rng: Pcg32::new(seed),
        sock: None,
        started: false,
        read_pending: false,
        pairs: vec![
            Pair::new(Unit::Bytes, true, windows),
            Pair::new(Unit::Messages, true, windows),
            Pair::new(Unit::Messages, false, windows),
            // Nothing counts packets and no exchange carries them: these
            // recorders never fold a remote window.
            Pair::new(Unit::Packets, true, windows),
        ],
        sleepers: vec![
            Pair::new(Unit::Bytes, false, windows),
            Pair::new(Unit::Messages, false, windows),
        ],
        seen: None,
        slept: 0,
        quiet_from,
        ticks: 0,
        asked: Vec::new(),
        check: !windows.is_empty(),
    };
    let host = |i: usize| {
        Host::new(
            HostId::from_index(i),
            CpuContext::new("app"),
            CpuContext::new("softirq"),
            CostConfig::default(),
            tcp,
        )
    };
    let restart_at = start_at + Nanos::from_millis(95);
    let faults = FaultConfig {
        corrupt: Some(CorruptConfig { probability: 0.08 }),
        restart: restarts.then_some(RestartSchedule {
            first_at: restart_at,
            period: Nanos::ZERO,
        }),
        start_at: start_at + Nanos::from_millis(2),
        ..FaultConfig::default()
    };
    let mut sim = NetSim::star_with_faults(
        vec![client],
        LazyServer::default(),
        vec![host(0)],
        host(1),
        LinkConfig::default(),
        seed,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);

    let mut client = sim.clients.swap_remove(0);
    let mut asked = client.asked.clone();
    asked.extend([
        (start_at, end),
        (Nanos::ZERO, WIRE_WRAP),
        (WIRE_WRAP, end),
        (end, start_at),
        (quiet_from, end),
        (
            quiet_from + Nanos::from_millis(2),
            quiet_from + Nanos::from_millis(7),
        ),
    ]);
    for _ in 0..300 {
        let from = start_at + Nanos::from_micros(client.rng.gen_range(160_000));
        let len = [300, 1_000, 2_500, 8_000, 40_000][client.rng.gen_range(5) as usize];
        asked.push((from, from + Nanos::from_micros(len)));
    }
    (client, asked)
}

/// Runs one seeded schedule twice — the reference alone, then with a
/// recorder for every range the first run asked about — holds every
/// recorder to its reference and returns the run's checkpoint count and
/// digest (see [`RECORDED`]).
fn run_seed(seed: u64, restarts: bool, coverage: &mut Coverage) -> (usize, u64) {
    let (_, asked) = simulate(seed, restarts, &[]);
    let mut windows = asked.clone();
    windows.sort_unstable();
    windows.dedup();
    let (client, asked_again) = simulate(seed, restarts, &windows);
    let label = format!("seed {seed}, restarts: {restarts}");
    assert_eq!(asked_again, asked, "{label}: the second run asked alike");
    assert!(client.ticks > 2_200, "{label}: the tick chain ran");
    assert_eq!(client.slept == 0, restarts, "{label}: sleepers slept");
    coverage.slept_ticks += client.slept;
    let after_run = &asked[client.asked.len()..];
    let (mut count, mut digest) = (0, 0xcbf2_9ce4_8422_2325);
    for pair in client.pairs.iter().chain(&client.sleepers) {
        let checkpoints = &pair.reference.cum_series;
        count += checkpoints.len();
        for checkpoint in checkpoints {
            fold_checkpoint(&mut digest, checkpoint);
        }
        for &(from, to) in after_run {
            pair.assert_queries_agree(from, to);
            match pair.reference.range_windows(from, to) {
                Some(_) => coverage.checkpointed_means += 1,
                None => coverage.unanswered_ranges += 1,
            }
        }
        if let Some(stats) = pair.reference.intake.validation_stats() {
            let verdicts = [stats.accepted, stats.rejected, stats.epoch_changes];
            fnv(&mut digest, verdicts);
            coverage.stats.merge(&stats);
        }
    }
    (count, digest)
}

#[test]
fn recorder_equals_tick_by_tick_reference() {
    let mut coverage = Coverage::default();
    for (seed, restarts, count, digest) in RECORDED {
        let run = run_seed(seed, restarts, &mut coverage);
        assert_eq!(
            run,
            (count, digest),
            "seed {seed}, restarts: {restarts}: checkpoints and digest"
        );
    }
    // The schedule must have exercised what it is there for: the sleepers
    // slept through most of the runs without restarts, and the validators
    // saw every verdict.
    assert!(
        coverage.slept_ticks > 8_000,
        "slept {}",
        coverage.slept_ticks
    );
    assert!(
        coverage.unanswered_ranges > 0,
        "no range held fewer than two checkpoints"
    );
    assert!(
        coverage.checkpointed_means > 0,
        "checkpointed mean never taken"
    );
    assert!(coverage.stats.accepted > 0, "{:?}", coverage.stats);
    assert!(coverage.stats.rejected > 0, "{:?}", coverage.stats);
    assert!(coverage.stats.epoch_changes > 0, "{:?}", coverage.stats);
}

/// A socket driven by hand, outside a simulation: established, with bytes
/// in flight that are never acknowledged, the peer's byte-unit exchanges
/// arriving in bare segments. The recorders under test tick at instants
/// the scenario picks.
struct Hand {
    socket: TcpSocket,
    /// The socket's id: a restart opens the next one.
    id: SocketId,
    actions: Actions,
}

impl Hand {
    /// An established socket, opened at `now`, with 1 000 bytes sent
    /// that no ACK will cover: its unacked integral grows from `now` on,
    /// so a later snapshot of it is ahead of any fresh socket's. Neither
    /// side attaches exchanges of its own.
    fn loaded(now: Nanos) -> Self {
        let config = TcpConfig {
            exchange: ExchangeConfig {
                enabled: false,
                ..ExchangeConfig::default()
            },
            ..TcpConfig::default()
        };
        let env = TxEnv::default();
        let mut actions = Actions::new();
        let mut socket = TcpSocket::client(FlowId(0), config, now, &mut actions);
        let syn = sent(&mut actions).remove(0);
        TcpSocket::server_on_syn(FlowId(0), config, now, &syn, &mut actions);
        let synack = sent(&mut actions).remove(0);
        actions.clear();
        socket.on_segment(now, &synack, env, &mut actions);
        actions.clear();
        assert_eq!(socket.send(now, vec![7; 1_000], env, &mut actions), 1_000);
        actions.clear();
        Hand {
            socket,
            id: SocketId(0),
            actions,
        }
    }

    /// The endpoint restarts: the connection is replaced by a fresh one
    /// (`loaded` at `now`) under the next socket id.
    fn restart(&mut self, now: Nanos) {
        let id = SocketId(self.id.0 + 1);
        *self = Hand {
            id,
            ..Hand::loaded(now)
        };
    }

    /// The peer's exchange as of `now`: one departure every 10 µs, three
    /// items queued throughout.
    fn exchange(now: Nanos) -> WireExchange {
        let t = now.as_nanos();
        let snap = Snapshot {
            time: now,
            total: t / 10_000,
            integral: u128::from(t) * 3,
        };
        WireExchange::pack(&snap, &snap, &snap, WireScale::default())
    }

    /// Delivers a segment carrying `exchange`.
    fn deliver(&mut self, now: Nanos, exchange: WireExchange) {
        let mut seg = Segment::control(
            FlowId(0),
            SeqNum::new(0),
            SeqNum::new(0),
            Flags::default(),
            0,
        );
        seg.options.slot = Some(OptionSlot::E2e(E2eOption::single(Unit::Bytes, exchange)));
        self.actions.clear();
        self.socket
            .on_segment(now, &seg, TxEnv::default(), &mut self.actions);
    }
}

/// The segments an action buffer transmitted, taken out of it.
fn sent(actions: &mut Actions) -> Vec<Segment> {
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

fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

/// Recorders under test beside their reference, ticked at every instant a
/// scenario picks — or, `parked`, only where a parked recorder-only
/// client's tick runs: at an instant that finds a share arrived since its
/// last tick, or a socket other than its last one's. The reference ticks
/// at every instant either way. There is a recorder for every window
/// between two edges, the edges being zero, every tick instant, and every
/// instant one spacing after a tick and half of it: windows that hold
/// zero, one and many checkpoints, and each window `[0, end)`, `[0,
/// end / 2)` and `[end / 2, end)` for `end` one spacing past a checkpoint.
struct Scenario {
    pair: Pair,
    parked: bool,
    seen: Option<(SocketId, u64)>,
}

impl Scenario {
    fn new(validate: bool, parked: bool, ticks: impl IntoIterator<Item = Nanos>) -> Self {
        let mut edges = Vec::new();
        for t in [Nanos::ZERO].into_iter().chain(ticks) {
            edges.extend([t, t + SPACING, (t + SPACING) / 2]);
        }
        edges.sort_unstable();
        edges.dedup();
        let windows: Vec<_> = edges
            .iter()
            .enumerate()
            .flat_map(|(i, &from)| edges[i + 1..].iter().map(move |&to| (from, to)))
            .collect();
        Scenario {
            pair: Pair::new(Unit::Bytes, validate, &windows),
            parked,
            seen: None,
        }
    }

    fn tick(&mut self, hand: &Hand, now: Nanos) {
        let seen = (hand.id, hand.socket.arrivals());
        if self.parked && self.seen == Some(seen) {
            self.pair.reference.tick(now, &hand.socket);
            return;
        }
        self.seen = Some(seen);
        self.pair.tick(now, &hand.socket);
    }

    /// Holds every recorder to the reference: its window's sums bit for
    /// bit, its means and the validator's counters — the whole run and its
    /// halves among them. Returns the reference's checkpoint instants.
    fn assert_recorded_equal(&self, label: &str) -> Vec<Nanos> {
        let label = format!("{label}, parked: {}", self.parked);
        let checkpoints = &self.pair.reference.cum_series;
        let end = checkpoints.last().map_or(Nanos::ZERO, |c| c.0) + SPACING;
        for (from, to) in [(Nanos::ZERO, end), (Nanos::ZERO, end / 2), (end / 2, end)] {
            self.pair.assert_queries_agree(from, to);
        }
        let (mut answered, mut unanswered) = (0, 0);
        for &((from, to), ref recorder) in &self.pair.recorders {
            self.pair.assert_queries_agree(from, to);
            match recorder.windows_in(from, to) {
                Some(_) => answered += 1,
                None => unanswered += 1,
            }
        }
        assert!(answered > 0 && unanswered > 0, "{label}");
        checkpoints.iter().map(|c| c.0).collect()
    }
}

/// The scenarios' tick spacing.
const SPACING: Nanos = Nanos::from_micros(500);

/// The `k`-th tick instant.
fn at(k: u64) -> Nanos {
    SPACING * k
}

/// The exchange delivered 50 µs before tick `k`.
fn before(k: u64) -> (Nanos, WireExchange) {
    let t = at(k) - us(50);
    (t, Hand::exchange(t))
}

/// The first tick has no local window: it takes the exchange on offer as
/// the baseline and keeps no checkpoint. Each later fresh exchange is one
/// checkpoint, taken at the first tick that sees it.
#[test]
fn the_first_tick_only_takes_the_baseline() {
    for parked in [false, true] {
        let mut hand = Hand::loaded(Nanos::ZERO);
        let mut rec = Scenario::new(false, parked, (1..=8).map(at));
        for k in 1..=8 {
            if k % 3 != 0 {
                let (t, exchange) = before(k);
                hand.deliver(t, exchange);
            }
            rec.tick(&hand, at(k));
        }
        let times = rec.assert_recorded_equal("first tick");
        assert_eq!(times, [2, 4, 5, 7, 8].map(at));
    }
}

/// An endpoint restart replaces the socket: the first tick on the fresh
/// one finds a local window `between` refuses (its counters restarted
/// below the old socket's), and so folds neither that window nor the
/// remote window of the exchange it admits there — the new connection's
/// first, which becomes the baseline. The local sums run to the last tick
/// on the old socket, four ticks after its last exchange: a client whose
/// connection can be reset ticks its recorders every period, because one
/// asleep since that exchange would have no snapshot there.
#[test]
fn a_restart_refuses_the_local_window_and_that_ticks_remote_window() {
    let mut hand = Hand::loaded(Nanos::ZERO);
    let mut rec = Scenario::new(false, false, (1..=11).map(at));
    for k in 1..=7 {
        if k <= 3 {
            let (t, exchange) = before(k);
            hand.deliver(t, exchange);
        }
        rec.tick(&hand, at(k));
    }
    // The peer of the fresh connection counts from zero, in a new epoch.
    let restart = at(7) + us(200);
    hand.restart(restart);
    for k in 8..=11 {
        let t = at(k) - us(50);
        hand.deliver(t, Hand::exchange(t - restart).with_epoch(1));
        rec.tick(&hand, at(k));
    }
    let times = rec.assert_recorded_equal("restart");
    assert_eq!(times, [2, 3, 9, 10, 11].map(at));
    // From the checkpoint at tick 2 to the one at tick 9: every local
    // window between them but the refused one, 7 → 8.
    let (from, to) = (at(2), at(10));
    let (local, _) = rec
        .pair
        .recorder(from, to)
        .windows_in(from, to)
        .expect("three checkpoints");
    assert_eq!(local.unacked.dt, SPACING * 6);
}

/// Under validation, an exchange from a new epoch resynchronises: it is
/// counted, becomes the baseline, and forms no window; the next exchange
/// of the new epoch is accepted again.
#[test]
fn an_epoch_change_under_validation_resynchronises() {
    let mut hand = Hand::loaded(Nanos::ZERO);
    let mut rec = Scenario::new(true, false, (1..=7).map(at));
    let restart = at(3) + us(100);
    for k in 1..=7 {
        let (t, exchange) = before(k);
        let exchange = if k <= 3 {
            exchange
        } else {
            Hand::exchange(t - restart).with_epoch(1)
        };
        hand.deliver(t, exchange);
        rec.tick(&hand, at(k));
    }
    let times = rec.assert_recorded_equal("epoch change");
    assert_eq!(times, [2, 3, 5, 6, 7].map(at));
    let stats = rec
        .pair
        .reference
        .intake
        .validation_stats()
        .expect("validated");
    assert_eq!(
        (stats.accepted, stats.rejected, stats.epoch_changes),
        (5, 0, 1)
    );
}

/// A rejected exchange stays on offer until the next one arrives, and the
/// validator judges it again at every tick, against that tick's local
/// window: seven ticks, seven rejections. The next honest exchange forms
/// one window across the whole rejected stretch.
#[test]
fn a_rejected_exchange_is_judged_again_on_every_tick() {
    let mut hand = Hand::loaded(Nanos::ZERO);
    let mut rec = Scenario::new(true, false, (1..=11).map(at));
    for k in 1..=11 {
        let (t, mut exchange) = before(k);
        if k == 3 {
            exchange.unread.total ^= 0x4000_0000;
        }
        if k <= 3 || k == 10 {
            hand.deliver(t, exchange);
        }
        rec.tick(&hand, at(k));
    }
    let times = rec.assert_recorded_equal("reject");
    assert_eq!(times, [2, 10].map(at));
    let stats = rec
        .pair
        .reference
        .intake
        .validation_stats()
        .expect("validated");
    assert_eq!((stats.accepted, stats.rejected), (2, 7));
}

/// Checkpoints across the 2^42 ns wrap of the default-scale wire clock:
/// the remote windows are differenced modulo the wrap, validated or not,
/// ticked every instant or parked, in windows before, across and after it.
#[test]
fn checkpoints_cross_the_wire_clock_wrap() {
    let start = WIRE_WRAP - at(6);
    for (validate, parked) in [(false, false), (false, true), (true, false)] {
        let mut hand = Hand::loaded(start);
        let mut rec = Scenario::new(validate, parked, (1..=12).map(|k| start + at(k)));
        for k in 1..=12 {
            if k % 2 == 1 {
                let t = start + at(k) - us(50);
                hand.deliver(t, Hand::exchange(t));
            }
            rec.tick(&hand, start + at(k));
        }
        let times = rec.assert_recorded_equal(&format!("wrap, validated: {validate}"));
        assert_eq!(times, [3, 5, 7, 9, 11].map(|k| start + at(k)));
        if let Some(stats) = rec.pair.reference.intake.validation_stats() {
            assert_eq!(
                (stats.accepted, stats.rejected, stats.epoch_changes),
                (5, 0, 0)
            );
        }
    }
}

/// A plain recorder keeps only what its window's answer needs, so asking
/// it about any other range is a caller error, and every reader says so.
#[test]
fn a_range_other_than_the_window_is_rejected() {
    let (from, to) = (at(2), at(6));
    let mut hand = Hand::loaded(Nanos::ZERO);
    let mut rec = EstimateRecorder::new(Unit::Bytes).with_window(from, to);
    for k in 1..=7 {
        let (t, exchange) = before(k);
        hand.deliver(t, exchange);
        rec.tick_socket(at(k), &hand.socket);
    }
    assert!(
        rec.mean_latency_in(from, to).is_some(),
        "its window answers"
    );
    let others = [
        (from, to + SPACING),
        (from + SPACING, to),
        (Nanos::ZERO, at(8)),
    ];
    for (other_from, other_to) in others {
        let asks: [&dyn Fn(); 3] = [
            &|| {
                let _ = rec.windows_in(other_from, other_to);
            },
            &|| {
                let _ = rec.mean_latency_in(other_from, other_to);
            },
            &|| {
                let _ = rec.mean_throughput_in(other_from, other_to);
            },
        ];
        for ask in asks {
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(ask))
                .expect_err("another range is refused");
            let message = refused
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("answers only for its window"), "{message}");
        }
    }
}
