//! Differential test of activity-proportional estimation.
//!
//! [`EstimateRecorder`] defers the ticks that find its socket untouched
//! and replays them later from extrapolated inputs. `Reference` below is
//! the recorder it replaced: a fresh read of the socket and one
//! `E2eEstimator` update on every tick, every estimate kept. Both tick
//! against the same socket inside one simulation whose client sends in
//! bursts separated by long silences, reads late, holds ACKs across
//! ticks, changes its tick period, restarts, sees corrupted exchanges,
//! lets the staleness bound lapse, and runs across the 2^42 ns
//! wire-clock wrap. Everything observable must come out equal: the
//! checkpoints, bit for bit, the validator's counters, the range means
//! (Little's law over the difference of the first and last checkpoint in
//! range, and `None` on both sides where fewer than two fall inside), the
//! estimate a per-tick consumer reads, and the estimator's final state.
//!
//! The replay itself skips ahead where a deferred tick can only repeat
//! the one before (`E2eEstimator::skip_static`), so every run ends in a
//! silence of more than 2 000 ticks — long past the staleness bound — and
//! one scenario goes into it with a rejected exchange still on offer,
//! which every tick re-judges and no skip may cover. A third kind of
//! recorder is not even ticked while its socket stands still: like a
//! `LancetClient` parked on `HostCtx::call_on_change` after every tick it
//! sleeps through those ticks and books them afterwards (`tick_static`).
//! One recorder estimates in `Unit::Packets`, which no exchange carries.
//!
//! Three scenarios on a socket driven by hand pin the exact replay and
//! skip counts where the skip's preconditions bite: a quiet stretch whose
//! first window is not one spacing (the tick period changes right after
//! a full step), a unit that never forms a remote window, and a skip
//! across the staleness decay after a rejected exchange, whose restamped
//! confidence must carry the reject's halving.

use e2e_apps::driver::EstimateRecorder;
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::{E2eEstimator, Estimate, ValidateConfig, ValidateStats};
use littles::wire::{WireExchange, WireScale};
use littles::{Nanos, Snapshot};
use simnet::fault::{CorruptConfig, FaultConfig, RestartSchedule};
use simnet::{run, CpuContext, EventQueue, LinkConfig, Pcg32};
use tcpsim::config::{CostConfig, DelAckConfig, ExchangeConfig};
use tcpsim::segment::{E2eOption, Flags, OptionSlot};
use tcpsim::seq::SeqNum;
use tcpsim::{
    Actions, App, FlowId, Host, HostCtx, HostId, NetSim, Payload, Segment, SocketId, TcpConfig,
    TcpSocket, TxEnv, Unit, WakeReason,
};

/// The tick-by-tick recorder `EstimateRecorder` must stay equal to.
struct Reference {
    unit: Unit,
    estimator: E2eEstimator,
    series: Vec<(Nanos, Estimate)>,
    cum_series: Vec<(Nanos, EndpointWindows, EndpointWindows)>,
    cum_epoch: u64,
}

impl Reference {
    fn new(unit: Unit, bound: Option<Nanos>, validate: bool) -> Self {
        let mut estimator = E2eEstimator::new(WireScale::default(), 1.0);
        if let Some(bound) = bound {
            estimator = estimator.with_staleness_bound(bound);
        }
        if validate {
            estimator = estimator.with_validation(ValidateConfig);
        }
        Reference {
            unit,
            estimator,
            series: Vec::new(),
            cum_series: Vec::new(),
            cum_epoch: 0,
        }
    }

    fn tick(&mut self, now: Nanos, socket: &TcpSocket) {
        let snaps = socket.local_snapshots(now, self.unit);
        let local = EndpointSnapshots {
            unacked: snaps.unacked,
            unread: snaps.unread,
            ackdelay: snaps.ackdelay,
        };
        let remote = socket.remote().unit(self.unit);
        let srtt = socket.srtt();
        if let Some(estimate) = self.estimator.update_validated(now, local, remote, srtt) {
            self.series.push((now, estimate));
        }
        if self.estimator.remote_epoch() != self.cum_epoch {
            self.cum_epoch = self.estimator.remote_epoch();
            let (cl, cr) = self.estimator.cumulative_windows();
            self.cum_series.push((now, cl, cr));
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

    /// Checkpoints in `[from, to)`.
    fn checkpoints_in(&self, from: Nanos, to: Nanos) -> usize {
        self.cum_series
            .iter()
            .filter(|(at, _, _)| *at >= from && *at < to)
            .count()
    }
}

/// A deferred recorder and its reference, configured alike.
struct Pair {
    deferred: EstimateRecorder,
    reference: Reference,
}

impl Pair {
    fn new(unit: Unit, bound: Option<Nanos>, validate: bool) -> Self {
        let mut deferred = EstimateRecorder::new(unit);
        if let Some(bound) = bound {
            deferred = deferred.with_staleness_bound(bound);
        }
        if validate {
            deferred = deferred.with_validation(ValidateConfig);
        }
        Pair {
            deferred,
            reference: Reference::new(unit, bound, validate),
        }
    }

    fn tick(&mut self, now: Nanos, sock: SocketId, socket: &TcpSocket) {
        self.deferred.tick_socket(now, sock, socket);
        self.reference.tick(now, socket);
    }

    /// The `&self` queries, with whatever run is pending left pending.
    fn assert_queries_agree(&self, from: Nanos, to: Nanos) {
        assert_eq!(
            self.deferred.mean_latency_in(from, to),
            self.reference.mean_latency_in(from, to),
            "mean latency over [{from}, {to})"
        );
        assert_eq!(
            self.deferred.mean_throughput_in(from, to).map(f64::to_bits),
            self.reference
                .mean_throughput_in(from, to)
                .map(f64::to_bits),
            "mean throughput over [{from}, {to})"
        );
        assert_eq!(
            self.deferred.validation_stats(),
            self.reference.estimator.validation_stats()
        );
    }

    /// Flushes the deferred side and holds it to the reference down to
    /// the last bit of state: every checkpoint, the estimator, and the
    /// estimate a consumer reads.
    fn assert_settled_equal(&mut self, label: &str) {
        self.deferred.flush();
        assert_eq!(
            self.deferred.checkpoints().collect::<Vec<_>>(),
            self.reference.cum_series,
            "{label}: checkpoints"
        );
        assert_eq!(
            format!("{:?}", self.deferred.estimator()),
            format!("{:?}", self.reference.estimator),
            "{label}: estimator state"
        );
        assert_eq!(
            self.deferred.latest().map(|e| (e.at, e)),
            self.reference.series.last().copied(),
            "{label}: the newest estimate"
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
    pairs: Vec<Pair>,
    /// A pair whose deferred side is read through `latest()` after every
    /// tick, the way the policy drivers consume it.
    eager: Pair,
    /// A pair whose deferred side sleeps through the ticks that find the
    /// socket where its last tick left it, and books them on waking.
    sleeper: Pair,
    asleep: Option<Asleep>,
    /// No sends from here on: the run ends in one long silence.
    quiet_from: Nanos,
    ticks: u64,
}

/// The ticks the sleeper has slept through so far.
struct Asleep {
    seen: (SocketId, u64),
    first: Nanos,
    step: Nanos,
    count: u64,
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

    /// Books whatever the sleeper slept through.
    fn wake_sleeper(&mut self) {
        if let Some(a) = self.asleep.take() {
            self.sleeper.deferred.tick_static(a.first, a.step, a.count);
        }
    }

    /// The sleeper's tick: the reference runs it, the deferred side only
    /// if the socket moved or the tick spacing changed; otherwise the
    /// deferred side sleeps on, as a parked `LancetClient` does after
    /// every tick.
    fn tick_sleeper(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        let (now, socket) = (ctx.now(), ctx.socket(sock));
        self.sleeper.reference.tick(now, socket);
        let seen = (sock, socket.estimator_stamp());
        if let Some(a) = &mut self.asleep {
            if a.seen == seen && now == a.first + a.step * a.count {
                a.count += 1;
                return;
            }
        }
        self.wake_sleeper();
        self.sleeper.deferred.tick_socket(now, sock, socket);
        let step = self.period(now);
        self.asleep = Some(Asleep {
            seen,
            first: now + step,
            step,
            count: 0,
        });
    }

    fn tick(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        if let Some(sock) = self.sock {
            for pair in &mut self.pairs {
                pair.tick(now, sock, ctx.socket(sock));
            }
            self.tick_sleeper(ctx, sock);
            self.eager.tick(now, sock, ctx.socket(sock));
            let latest = self.eager.deferred.latest();
            let expect = self.eager.reference.series.last();
            assert_eq!(
                latest.map(|e| (e.at, e)),
                expect.copied(),
                "the estimate a per-tick consumer reads"
            );
            self.ticks += 1;
            // Query mid-run now and then: runs are pending more often
            // than not, so this is the scratch-copy path.
            if self.ticks % 23 == 0 {
                let back = self.us_between(200, 9_000);
                for pair in &self.pairs {
                    pair.assert_queries_agree(now.saturating_sub(back), now + Nanos::from_nanos(1));
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
        // Mostly bursts, now and then a silence many ticks (and more than
        // one staleness bound) long.
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
    deferred_ticks: u64,
    /// Ticks the sleepers never ran.
    slept_ticks: u64,
    /// Recorders that went into the final silence with a rejected
    /// exchange on offer.
    pending_rejects: u64,
    stale_samples: usize,
    /// Ranges holding fewer than two checkpoints, which both sides answer
    /// `None`.
    unanswered_ranges: u64,
    checkpointed_means: u64,
    stats: ValidateStats,
}

/// Where the default-scale wire clock wraps.
const WIRE_WRAP: Nanos = Nanos::from_nanos(1 << 42);

/// The final silence: 2 190 ticks at the later tick period.
const SILENCE: Nanos = Nanos::from_millis(1_600);

fn run_seed(seed: u64, coverage: &mut Coverage) {
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
        // occupied (and the socket otherwise static) over several ticks.
        delack: DelAckConfig {
            timeout: Nanos::from_micros(1_700),
            ..DelAckConfig::default()
        },
        ..TcpConfig::default()
    };
    let bound = Some(Nanos::from_millis(3));
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
            Pair::new(Unit::Bytes, bound, true),
            Pair::new(Unit::Messages, None, true),
            Pair::new(Unit::Messages, bound, false),
            // Nothing counts packets and no exchange carries them: this
            // recorder never forms a remote window.
            Pair::new(Unit::Packets, bound, true),
        ],
        eager: Pair::new(Unit::Bytes, bound, true),
        sleeper: Pair::new(Unit::Bytes, bound, true),
        asleep: None,
        quiet_from,
        ticks: 0,
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
    let faults = FaultConfig {
        corrupt: Some(CorruptConfig { probability: 0.08 }),
        restart: Some(RestartSchedule {
            first_at: start_at + Nanos::from_millis(95),
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

    let client = &mut sim.clients[0];
    assert!(client.ticks > 2_200, "seed {seed}: the tick chain ran");
    coverage.slept_ticks += client.asleep.as_ref().map_or(0, |a| a.count);
    client.wake_sleeper();
    let mut ranges = vec![
        (start_at, end),
        (Nanos::ZERO, WIRE_WRAP),
        (WIRE_WRAP, end),
        (end, start_at),
        (quiet_from, end),
        (
            quiet_from + Nanos::from_millis(2),
            quiet_from + Nanos::from_millis(7),
        ),
    ];
    for _ in 0..300 {
        let from = start_at + Nanos::from_micros(client.rng.gen_range(160_000));
        let len = [300, 1_000, 2_500, 8_000, 40_000][client.rng.gen_range(5) as usize];
        ranges.push((from, from + Nanos::from_micros(len)));
    }
    let silent_ticks = SILENCE.as_nanos() / client.periods.1.as_nanos() - 10;
    let lazy = client.pairs.iter_mut().chain([&mut client.sleeper]);
    for (pair, flushes_every_tick) in lazy
        .map(|pair| (pair, false))
        .chain([(&mut client.eager, true)])
    {
        // First with the last run still pending…
        for &(from, to) in &ranges {
            pair.assert_queries_agree(from, to);
            if pair.reference.range_windows(from, to).is_some() {
                coverage.checkpointed_means += 1;
            } else if pair.reference.checkpoints_in(from, to) < 2 {
                assert_eq!(
                    pair.deferred.mean_latency_in(from, to),
                    None,
                    "[{from}, {to})"
                );
                assert_eq!(
                    pair.deferred.mean_throughput_in(from, to),
                    None,
                    "[{from}, {to})"
                );
                coverage.unanswered_ranges += 1;
            }
        }
        // …then flushed, down to the last bit of state.
        pair.assert_settled_equal(&format!("seed {seed}"));
        for &(from, to) in &ranges[..40] {
            pair.assert_queries_agree(from, to);
        }

        // A reject still on offer is judged again by every tick of the
        // silence, so none of them may have been skipped; otherwise all
        // but a handful were. `eager` flushes after every tick, so each of
        // its runs is one tick long: a tick it did not replay is a skip of
        // its own.
        let rejects = pair.reference.estimator.consecutive_rejects() as u64;
        let (replayed, deferred) = (
            pair.deferred.replayed_ticks(),
            pair.deferred.deferred_ticks(),
        );
        if flushes_every_tick {
            assert_eq!(
                replayed + pair.deferred.closed_form_skips(),
                deferred,
                "seed {seed}"
            );
        }
        if rejects >= silent_ticks {
            coverage.pending_rejects += 1;
            assert!(
                replayed >= rejects,
                "seed {seed}: {replayed} replayed, {rejects} rejects"
            );
        } else {
            assert!(deferred > silent_ticks, "seed {seed}: deferred {deferred}");
            assert!(
                replayed * 10 < deferred,
                "seed {seed}: {replayed} of {deferred} replayed"
            );
        }
        coverage.deferred_ticks += pair.deferred.deferred_ticks();
        coverage.stale_samples += pair
            .reference
            .series
            .iter()
            .filter(|(_, e)| e.remote_stale)
            .count();
        if let Some(stats) = pair.reference.estimator.validation_stats() {
            coverage.stats.merge(&stats);
        }
    }
}

#[test]
fn deferred_recorder_equals_tick_by_tick_reference() {
    let mut coverage = Coverage::default();
    for seed in [3, 0xD1FF, 0x5EED_2026, 77_777] {
        run_seed(seed, &mut coverage);
    }
    // The schedule must have exercised what it is there for.
    assert!(
        coverage.deferred_ticks > 40_000,
        "deferred {}",
        coverage.deferred_ticks
    );
    // Seeds 0xD1FF and 77 777 end on a corrupted exchange.
    assert!(
        coverage.pending_rejects >= 2,
        "{} recorders held a reject through the silence",
        coverage.pending_rejects
    );
    assert!(
        coverage.slept_ticks > 8_000,
        "slept {}",
        coverage.slept_ticks
    );
    assert!(coverage.stale_samples > 0, "staleness bound never crossed");
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

/// A socket driven by hand, outside a simulation: the peer's byte-unit
/// exchanges arrive in bare segments, and nothing else moves it. The
/// recorders under test tick at instants the scenario picks.
struct Hand {
    socket: TcpSocket,
    actions: Actions,
}

impl Hand {
    fn new() -> Self {
        let mut actions = Actions::new();
        let socket = TcpSocket::client(FlowId(0), TcpConfig::default(), Nanos::ZERO, &mut actions);
        Hand { socket, actions }
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

    fn tick(&self, pair: &mut Pair, now: Nanos) {
        pair.tick(now, SocketId(0), &self.socket);
    }
}

fn us(n: u64) -> Nanos {
    Nanos::from_micros(n)
}

/// The tick period changes right after a full step: the quiet stretch's
/// first window is one old spacing, every later one a new spacing. Its
/// first two ticks are replayed (the second closes the first window of
/// the new spacing), the rest are one skip. A sleeper that books the
/// same ticks with `tick_static` ends up the same.
#[test]
fn a_stretch_whose_first_window_is_not_one_spacing() {
    let mut hand = Hand::new();
    let (mut ticked, mut sleeper) = (
        Pair::new(Unit::Bytes, None, true),
        Pair::new(Unit::Bytes, None, true),
    );
    for k in 1..=3 {
        hand.deliver(us(500 * k), Hand::exchange(us(500 * k)));
        hand.tick(&mut ticked, us(500 * k));
        hand.tick(&mut sleeper, us(500 * k));
    }
    let first = us(2_000);
    let ticks = (0..41).map(|j| first + us(730) * j);
    for at in ticks.clone() {
        hand.tick(&mut ticked, at);
        sleeper.reference.tick(at, &hand.socket);
    }
    sleeper.deferred.tick_static(first, us(500), 1);
    sleeper.deferred.tick_static(first + us(730), us(730), 40);
    for (pair, label) in [(&mut ticked, "ticked"), (&mut sleeper, "sleeper")] {
        assert!(
            pair.reference.series.len() > 41,
            "{label}: the stretch estimated"
        );
        pair.assert_settled_equal(label);
        assert_eq!(pair.deferred.deferred_ticks(), 41, "{label}");
        assert_eq!(pair.deferred.replayed_ticks(), 2, "{label}");
        assert_eq!(pair.deferred.closed_form_skips(), 1, "{label}");
        assert_eq!(pair.deferred.estimator_updates(), 3 + 2, "{label}");
    }
}

/// A unit no exchange carries (`Unit::Packets`: nothing counts packets)
/// never forms a remote window, so its estimator never estimates and
/// only its local sums move: each quiet stretch is one skip from its
/// first tick on, however it is spaced.
#[test]
fn a_unit_that_never_receives_an_exchange_skips_whole_stretches() {
    let mut hand = Hand::new();
    let mut pair = Pair::new(Unit::Packets, Some(Nanos::from_millis(3)), true);
    let mut at = Nanos::ZERO;
    for burst in 0..4 {
        // A byte exchange moves the stamp: one full step.
        at += us(500);
        hand.deliver(at, Hand::exchange(at));
        hand.tick(&mut pair, at);
        for _ in 0..(20 + 7 * burst) {
            at += us(500);
            hand.tick(&mut pair, at);
        }
    }
    assert!(
        pair.reference.series.is_empty(),
        "a packet recorder has no estimate"
    );
    pair.assert_settled_equal("packets");
    assert_eq!(pair.deferred.deferred_ticks(), 20 + 27 + 34 + 41);
    assert_eq!(pair.deferred.replayed_ticks(), 0);
    assert_eq!(pair.deferred.closed_form_skips(), 4);
    assert_eq!(pair.deferred.estimator_updates(), 4);
}

/// A skip across the staleness decay after a rejected exchange: the
/// estimate the skip leaves must carry the last skipped tick's time and
/// its confidence, decayed by age and halved by the reject the
/// validator still counts. The peer's last accepted exchange arrives
/// again after the garbled one, so it is what is on offer through the
/// silence, and the silence may be skipped.
#[test]
fn a_skip_restamps_decayed_and_demoted_confidence() {
    let mut hand = Hand::new();
    let bound = Nanos::from_millis(3);
    let mut pair = Pair::new(Unit::Bytes, Some(bound), true);
    let tick = |k: u64| us(500 * k);
    hand.deliver(tick(1), Hand::exchange(tick(1)));
    hand.tick(&mut pair, tick(1));
    let accepted = Hand::exchange(tick(2));
    hand.deliver(tick(2), accepted);
    hand.tick(&mut pair, tick(2));
    let mut garbled = Hand::exchange(tick(3));
    garbled.unread.total ^= 0x4000_0000;
    hand.deliver(tick(3), garbled);
    hand.tick(&mut pair, tick(3));
    hand.deliver(tick(4), accepted);
    hand.tick(&mut pair, tick(4));
    assert_eq!(pair.reference.estimator.consecutive_rejects(), 1);

    // Ticks 5–7: age 1.5–2.5 ms of the 3 ms bound. Tick 5 is replayed,
    // 6 and 7 are skipped, and what a consumer reads is tick 7's.
    for k in 5..=7 {
        hand.tick(&mut pair, tick(k));
    }
    pair.assert_settled_equal("inside the bound");
    let latest = pair.deferred.latest().expect("an estimate");
    assert_eq!(latest.at, tick(7));
    let decayed: f64 = (1.0 - 2_500.0 / 3_000.0) * 0.5;
    assert_eq!(latest.confidence.to_bits(), decayed.to_bits());
    assert!(!latest.remote_stale);
    assert_eq!(
        (
            pair.deferred.replayed_ticks(),
            pair.deferred.closed_form_skips()
        ),
        (1, 1)
    );

    // Ticks 8–30: 8 is the last inside the bound (a skip of one), 9 the
    // first stale one (replayed), the rest skip as the stale fixed point.
    for k in 8..=30 {
        hand.tick(&mut pair, tick(k));
    }
    pair.assert_settled_equal("past the bound");
    let latest = pair.deferred.latest().expect("an estimate");
    assert_eq!(latest.at, tick(30));
    assert!(latest.remote_stale);
    assert_eq!(
        (
            pair.deferred.replayed_ticks(),
            pair.deferred.closed_form_skips()
        ),
        (2, 3)
    );
    let stats = pair.deferred.validation_stats().expect("validated");
    assert_eq!((stats.accepted, stats.rejected), (1, 1));
}
