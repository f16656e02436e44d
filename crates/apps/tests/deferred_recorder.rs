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
//! `LancetClient` parked on `HostCtx::call_on_change` it sleeps through
//! those ticks and books them afterwards (`tick_static`).

use e2e_apps::driver::EstimateRecorder;
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::{E2eEstimator, Estimate, ValidateConfig, ValidateStats};
use littles::wire::WireScale;
use littles::Nanos;
use simnet::fault::{CorruptConfig, FaultConfig, RestartSchedule};
use simnet::{run, CpuContext, EventQueue, LinkConfig, Pcg32};
use tcpsim::config::{CostConfig, DelAckConfig, ExchangeConfig};
use tcpsim::{App, Host, HostCtx, HostId, NetSim, Payload, SocketId, TcpConfig, Unit, WakeReason};

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

    fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        let now = ctx.now();
        let snaps = ctx.socket(sock).local_snapshots(now, self.unit);
        let local = EndpointSnapshots {
            unacked: snaps.unacked,
            unread: snaps.unread,
            ackdelay: snaps.ackdelay,
        };
        let remote = ctx.socket(sock).remote().unit(self.unit);
        let srtt = ctx.socket(sock).srtt();
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

    fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        self.deferred.tick(ctx, sock);
        self.reference.tick(ctx, sock);
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
    /// if the socket moved, the tick spacing changed, or it was awake.
    fn tick_sleeper(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        let now = ctx.now();
        self.sleeper.reference.tick(ctx, sock);
        let seen = (sock, ctx.socket(sock).estimator_stamp());
        if let Some(a) = &mut self.asleep {
            if a.seen == seen && now == a.first + a.step * a.count {
                a.count += 1;
                return;
            }
        }
        self.wake_sleeper();
        if self.sleeper.deferred.tick(ctx, sock) {
            let step = self.period(now);
            self.asleep = Some(Asleep {
                seen,
                first: now + step,
                step,
                count: 0,
            });
        }
    }

    fn tick(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        if let Some(sock) = self.sock {
            for pair in &mut self.pairs {
                pair.tick(ctx, sock);
            }
            self.tick_sleeper(ctx, sock);
            self.eager.tick(ctx, sock);
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
        (quiet_from + Nanos::from_millis(2), quiet_from + Nanos::from_millis(7)),
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
                assert_eq!(pair.deferred.mean_latency_in(from, to), None, "[{from}, {to})");
                assert_eq!(pair.deferred.mean_throughput_in(from, to), None, "[{from}, {to})");
                coverage.unanswered_ranges += 1;
            }
        }
        // …then flushed, down to the last bit of state.
        pair.deferred.flush();
        assert_eq!(
            pair.deferred.checkpoints().collect::<Vec<_>>(),
            pair.reference.cum_series,
            "seed {seed}: checkpoints"
        );
        assert_eq!(
            format!("{:?}", pair.deferred.estimator()),
            format!("{:?}", pair.reference.estimator),
            "seed {seed}: final estimator state"
        );
        for &(from, to) in &ranges[..40] {
            pair.assert_queries_agree(from, to);
        }

        // A reject still on offer is judged again by every tick of the
        // silence, so none of them may have been skipped; otherwise all
        // but a handful were. (`eager` flushes after every tick: its runs
        // are one tick long and there is never anything to skip.)
        let rejects = pair.reference.estimator.consecutive_rejects() as u64;
        let replayed = pair.deferred.replayed_ticks();
        if flushes_every_tick {
            assert_eq!(replayed, pair.deferred.deferred_ticks());
        } else if rejects >= silent_ticks {
            coverage.pending_rejects += 1;
            assert!(replayed >= rejects, "seed {seed}: {replayed} replayed, {rejects} rejects");
        } else {
            let deferred = pair.deferred.deferred_ticks();
            assert!(deferred > silent_ticks, "seed {seed}: deferred {deferred}");
            assert!(replayed * 10 < deferred, "seed {seed}: {replayed} of {deferred} replayed");
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
    assert!(coverage.slept_ticks > 8_000, "slept {}", coverage.slept_ticks);
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
