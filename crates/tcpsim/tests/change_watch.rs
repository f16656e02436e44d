//! Differential test of demand-armed ticks (`HostCtx::call_on_change`).
//!
//! An application that ticks every period reads its socket's `arrivals`
//! (the peer's shares so far, plus one once the socket is reset) at each
//! tick. Its twin parks the chain on them after every tick instead and,
//! when called again, writes down the grid instants it slept through with
//! the count it parked on. Run against the
//! same seeded traffic — bursts and silences over a link that loses 1 % of
//! its packets (so retransmission timers fire on an otherwise idle
//! connection), periodic `Restart`s and `ShardCrash`es, deadlines every
//! 8 ms — the two must have seen the same `(time, socket, arrivals)` at every
//! instant. Ticks touch nothing but the event queue, and events that are
//! not ticks keep their relative order, so the traffic of the two runs is
//! identical by construction; what differs is only where a tick sits among
//! events of its own nanosecond, which the tie rule (see `call_on_change`)
//! settles differently for the two by design — the seeds here are checked
//! to be free of such ties, and `a_change_at_a_grid_instant_...` constructs
//! one on purpose.
//!
//! The event stream itself is checked too: two tick calls on one host are
//! never less than a period apart (one chain, whatever a `Reset` does to
//! the socket under the watch), and a parked twin is only ever called for
//! a reason — a new arrival or its deadline.

use littles::Nanos;
use simnet::fault::GilbertElliott;
use simnet::{
    CpuContext, EventQueue, FaultConfig, HostId, LinkConfig, Pcg32, RestartSchedule, ShardCrash,
    ShardFaultPlan, World,
};
use tcpsim::config::{CostConfig, RtoConfig, TcpConfig};
use tcpsim::host::Host;
use tcpsim::sim::{App, Event, HostCtx, NetSim};
use tcpsim::socket::{SocketId, TimerKind, WakeReason};
use tcpsim::tier::TierSim;
use tcpsim::Payload;

/// Everything readable on `sock`, flattened into one buffer.
fn recv_flat(ctx: &mut HostCtx<'_>, sock: SocketId) -> Vec<u8> {
    let mut views: Vec<Payload> = Vec::new();
    ctx.recv(sock, usize::MAX, &mut views);
    views.concat()
}

const TICK: u64 = u64::MAX;
const SEND: u64 = u64::MAX - 1;
const CONNECT: u64 = u64::MAX - 2;
const PERIOD: Nanos = Nanos::from_micros(500);
/// A parked twin's deadline is the first grid instant at or past the next
/// multiple of this.
const DEADLINE_EVERY: Nanos = Nanos::from_millis(8);

/// What a tick saw: the socket it watches and that socket's arrivals.
type Seen = Option<(SocketId, u64)>;

struct Parked {
    at: Nanos,
    seen: (SocketId, u64),
    deadline: Nanos,
}

/// The tick chain under test, periodic or parking.
struct Ticks {
    parks: bool,
    /// `(time, seen)` at every grid instant, slept-through ones included.
    log: Vec<(Nanos, Seen)>,
    parked: Option<Parked>,
    /// Tick calls actually made.
    calls: u64,
    longest_sleep: u64,
    /// Deadline calls that found nothing changed.
    idle_deadlines: u64,
    /// Calls that a change moved onto the very instant of the deadline.
    deadline_coincidences: u64,
    /// `Reset`s that found the twin still parked although its watch had
    /// already fired: the socket changed, then crashed, before the tick.
    resets_after_fire: u64,
}

impl Ticks {
    fn new(parks: bool) -> Self {
        Ticks {
            parks,
            log: Vec::new(),
            parked: None,
            calls: 0,
            longest_sleep: 0,
            idle_deadlines: 0,
            deadline_coincidences: 0,
            resets_after_fire: 0,
        }
    }

    fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: Option<SocketId>) {
        let now = ctx.now();
        self.calls += 1;
        let seen = sock.map(|s| (s, ctx.socket(s).arrivals()));
        if let Some(p) = self.parked.take() {
            let mut at = p.at + PERIOD;
            let mut slept = 0;
            while at < now {
                self.log.push((at, Some(p.seen)));
                at += PERIOD;
                slept += 1;
            }
            assert_eq!(at, now, "a resumed tick lands on the grid");
            self.longest_sleep = self.longest_sleep.max(slept);
            let changed = seen != Some(p.seen);
            assert!(
                changed || now == p.deadline,
                "called at {now} with nothing changed and the deadline at {}",
                p.deadline
            );
            if now == p.deadline {
                if changed {
                    self.deadline_coincidences += 1;
                } else {
                    self.idle_deadlines += 1;
                }
            }
        }
        self.log.push((now, seen));
        match seen {
            Some(seen) if self.parks => {
                let every = DEADLINE_EVERY.as_nanos();
                let edge = Nanos::from_nanos((now.as_nanos() / every + 1) * every);
                let periods = (edge - now).as_nanos().div_ceil(PERIOD.as_nanos());
                let deadline = now + PERIOD * periods;
                ctx.call_on_change(seen.0, PERIOD, deadline, TICK);
                self.parked = Some(Parked {
                    at: now,
                    seen,
                    deadline,
                });
            }
            _ => ctx.call_after(PERIOD, TICK),
        }
    }

    /// The watched socket was reset. Nothing to do — the reset itself
    /// releases a parked chain — but worth counting when the chain had been
    /// released already: the arrivals are further than the reset alone
    /// (+1) moves them.
    fn on_reset(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        if let Some(p) = &self.parked {
            if p.seen.0 == sock && ctx.socket(sock).arrivals() > p.seen.1 + 1 {
                self.resets_after_fire += 1;
            }
        }
    }
}

/// A client that sends bursts separated by silences (or, with no `rng`,
/// connects and says nothing), reads whatever comes back, reconnects a
/// millisecond after a reset, and ticks.
struct Chatter {
    config: TcpConfig,
    rng: Option<Pcg32>,
    sock: Option<SocketId>,
    started: bool,
    ticks: Ticks,
}

impl Chatter {
    fn new(config: TcpConfig, seed: Option<u64>, parks: bool) -> Self {
        Chatter {
            config,
            rng: seed.map(Pcg32::new),
            sock: None,
            started: false,
            ticks: Ticks::new(parks),
        }
    }
}

impl App for Chatter {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.connect(self.config);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => {
                self.sock = Some(sock);
                if !self.started {
                    self.started = true;
                    // Off the round microsecond, so that grid instants are
                    // not where everything else tends to land.
                    ctx.call_after(PERIOD + Nanos::from_nanos(137), TICK);
                    ctx.call_after(Nanos::from_micros(100), SEND);
                }
            }
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset => {
                self.ticks.on_reset(ctx, sock);
                self.sock = None;
                ctx.call_after(Nanos::from_millis(1), CONNECT);
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        match token {
            TICK => self.ticks.tick(ctx, self.sock),
            CONNECT => {
                ctx.connect(self.config);
            }
            SEND => {
                let Some(rng) = self.rng.as_mut() else {
                    return;
                };
                if let Some(sock) = self.sock {
                    let len = [48, 700, 1_448, 6_000][rng.gen_range(4) as usize];
                    ctx.send(sock, vec![0x5a; len]);
                }
                let gap = if rng.gen_bool(0.3) {
                    3_000 + rng.gen_range(22_000)
                } else {
                    40 + rng.gen_range(560)
                };
                ctx.call_after(Nanos::from_micros(gap), SEND);
            }
            sock => {
                recv_flat(ctx, SocketId(sock as usize));
            }
        }
    }
}

/// Reads after a while and answers most reads.
struct LazyEcho;

impl App for LazyEcho {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        if reason == WakeReason::Readable {
            let delay = Nanos::from_micros(ctx.rng.gen_range(400));
            ctx.call_after(delay, sock.0 as u64);
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        let sock = SocketId(token as usize);
        let data = recv_flat(ctx, sock);
        if !data.is_empty() && ctx.rng.gen_bool(0.8) {
            ctx.send(sock, &data[..data.len().min(2_000)]);
        }
    }
}

/// A one-upstream relay that ticks over its upstream socket: bytes from
/// the front connection go to the shard and back; a reset upstream is
/// reopened at once.
struct Relay {
    shard: HostId,
    front: Option<SocketId>,
    back: Option<SocketId>,
    ticks: Ticks,
}

impl App for Relay {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.connect_to(self.shard, TcpConfig::default());
        ctx.call_after(PERIOD + Nanos::from_nanos(137), TICK);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => self.front = Some(sock),
            WakeReason::Connected => self.back = Some(sock),
            WakeReason::Readable => ctx.wake_app_thread(sock.0 as u64),
            WakeReason::Reset => {
                self.ticks.on_reset(ctx, sock);
                self.back = None;
                ctx.connect_to(self.shard, TcpConfig::default());
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == TICK {
            return self.ticks.tick(ctx, self.back);
        }
        let from = SocketId(token as usize);
        let data = recv_flat(ctx, from);
        let to = if Some(from) == self.front {
            self.back
        } else {
            self.front
        };
        if let Some(to) = to {
            ctx.send(to, &data);
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

/// The host an event runs on (`None` for the two crash events).
fn host_of(event: &Event) -> Option<usize> {
    match event {
        Event::Deliver { dst, .. } => Some(dst.index()),
        Event::SoftirqRx { host, .. }
        | Event::Timer { host, .. }
        | Event::AppWake { host, .. }
        | Event::AppCall { host, .. }
        | Event::NicComplete { host, .. } => Some(host.index()),
        Event::Restart | Event::ShardCrash => None,
    }
}

/// What the event stream of one run showed.
#[derive(Default)]
struct Stream {
    rto_fires: u64,
    /// Non-tick events that landed exactly on a tick instant of their
    /// host: where the tie rule, not the mechanism, decides what a tick
    /// sees.
    ties: Vec<(Nanos, usize)>,
}

/// `simnet::run` over a world whose host `h` ticks iff `ticks_of(world,
/// h)` is `Some`, checking the tick events as they pop.
fn drive<W: World<Event = Event>>(
    world: &mut W,
    queue: &mut EventQueue<Event>,
    until: Nanos,
    ticks_of: impl Fn(&W, usize) -> Option<&Ticks>,
) -> Stream {
    let mut stream = Stream::default();
    let mut last_tick: Vec<Option<Nanos>> = Vec::new();
    while queue.peek_time().is_some_and(|at| at <= until) {
        let (now, event) = queue.pop().expect("peeked event exists");
        if matches!(
            event,
            Event::Timer {
                kind: TimerKind::Rto,
                ..
            }
        ) {
            stream.rto_fires += 1;
        }
        if let Some(h) = host_of(&event) {
            if last_tick.len() <= h {
                last_tick.resize(h + 1, None);
            }
            if matches!(event, Event::AppCall { token: TICK, .. }) {
                if let Some(prev) = last_tick[h].replace(now) {
                    assert!(
                        now - prev >= PERIOD,
                        "host {h}: tick calls at {prev} and {now} — a second chain"
                    );
                }
            } else if let Some(first) = ticks_of(world, h).and_then(|t| t.log.first()) {
                if now >= first.0 && (now - first.0).as_nanos() % PERIOD.as_nanos() == 0 {
                    stream.ties.push((now, h));
                }
            }
        }
        world.handle(queue, event);
    }
    stream
}

/// The periodic log is the reference: one entry per grid instant, each a
/// period after the last.
fn assert_same_ticks(what: &str, periodic: &Ticks, parking: &Ticks) {
    for pair in periodic.log.windows(2) {
        assert_eq!(pair[1].0 - pair[0].0, PERIOD, "{what}: the periodic chain");
    }
    // The twin's last park may still be open; it has nothing to say yet
    // about the instants past it.
    let n = parking.log.len();
    assert!(
        n > 0 && periodic.log.len() - n <= 16,
        "{what}: {n} of {}",
        periodic.log.len()
    );
    for (k, (want, got)) in periodic.log.iter().zip(&parking.log).enumerate() {
        assert_eq!(want, got, "{what}: tick {k}");
    }
    assert_eq!(periodic.calls as usize, periodic.log.len());
}

fn lossy_tcp() -> TcpConfig {
    TcpConfig {
        // Retransmission timers that fire well inside the run.
        rto: RtoConfig {
            min_rto: Nanos::from_millis(4),
            max_rto: Nanos::from_millis(30),
            initial_rto: Nanos::from_millis(10),
        },
        ..TcpConfig::default()
    }
}

fn star(seed: u64, parks: bool) -> (NetSim<Chatter, LazyEcho>, Stream) {
    let tcp = lossy_tcp();
    let faults = FaultConfig {
        loss: Some(GilbertElliott::bursty(0.01, 2.0)),
        restart: Some(RestartSchedule {
            first_at: Nanos::from_micros(30_377),
            period: Nanos::from_micros(41_219),
        }),
        ..FaultConfig::default()
    };
    let clients = vec![
        Chatter::new(tcp, Some(seed), parks),
        Chatter::new(tcp, Some(seed ^ 0xABCD), parks),
        Chatter::new(tcp, None, parks),
    ];
    let mut sim = NetSim::star_with_faults(
        clients,
        LazyEcho,
        (0..3).map(|i| host(i, tcp)).collect(),
        host(3, tcp),
        LinkConfig::default(),
        seed,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    let stream = drive(&mut sim, &mut queue, Nanos::from_millis(600), |sim, h| {
        sim.clients.get(h).map(|c| &c.ticks)
    });
    (sim, stream)
}

#[test]
fn parked_twin_sees_what_the_periodic_ticker_sees() {
    let (mut coincidences, mut resets_after_fire, mut idle_deadlines) = (0, 0, 0);
    for seed in [11, 0xC0FFEE, 2_026] {
        let (periodic, p_stream) = star(seed, false);
        let (parking, q_stream) = star(seed, true);
        assert_eq!(p_stream.ties, vec![], "seed {seed}: pick a tie-free seed");
        assert_eq!(q_stream.ties, vec![], "seed {seed}: pick a tie-free seed");
        assert_eq!(p_stream.rto_fires, q_stream.rto_fires, "same traffic");
        assert!(
            p_stream.rto_fires > 0,
            "seed {seed}: no retransmission timer fired"
        );
        let plan = periodic.fault_plan().expect("faults installed");
        assert!(
            plan.restarts() >= 10,
            "seed {seed}: {} restarts",
            plan.restarts()
        );
        let drops: u64 = plan.per_link_counters().iter().map(|c| c.drops).sum();
        assert!(drops >= 5, "seed {seed}: {drops} drops");

        for (i, (a, b)) in periodic.clients.iter().zip(&parking.clients).enumerate() {
            assert_same_ticks(&format!("seed {seed} client {i}"), &a.ticks, &b.ticks);
            assert!(a.ticks.calls > 1_100);
            assert!(
                b.ticks.longest_sleep >= 15,
                "client {i}: never slept to a deadline"
            );
            coincidences += b.ticks.deadline_coincidences;
            resets_after_fire += b.ticks.resets_after_fire;
            idle_deadlines += b.ticks.idle_deadlines;
        }
        // The talkers are called a few times per burst …
        for b in &parking.clients[..2] {
            assert!(
                b.ticks.calls * 3 < b.ticks.log.len() as u64,
                "{} calls",
                b.ticks.calls
            );
        }
        // … and the silent client for its deadlines and around its resets
        // (a handful of calls each) only: every other call would have
        // tripped the "called for a reason" assertion in `Ticks::tick`.
        let silent = &parking.clients[2].ticks;
        assert!(
            silent.calls < 75 + 3 * plan.restarts(),
            "{} calls",
            silent.calls
        );
        assert!(
            silent.idle_deadlines >= 60,
            "{} idle deadlines",
            silent.idle_deadlines
        );
    }
    assert!(
        coincidences > 0,
        "no change ever moved a call onto its deadline"
    );
    assert!(
        resets_after_fire > 0,
        "no reset ever hit a released but unticked twin"
    );
    assert!(idle_deadlines > 200);
}

fn tier(seed: u64, parks: bool) -> (TierSim<Chatter, Relay, LazyEcho>, Stream) {
    let tcp = TcpConfig::default();
    let faults = FaultConfig {
        shard: ShardFaultPlan {
            crash: Some(ShardCrash {
                shard: 0,
                schedule: RestartSchedule {
                    first_at: Nanos::from_micros(20_411),
                    period: Nanos::from_micros(23_057),
                },
            }),
            ..ShardFaultPlan::default()
        },
        ..FaultConfig::default()
    };
    let relay = Relay {
        shard: HostId::from_index(2),
        front: None,
        back: None,
        ticks: Ticks::new(parks),
    };
    let mut sim = TierSim::two_tier_with_faults(
        vec![Chatter::new(tcp, Some(seed), false)],
        relay,
        vec![LazyEcho],
        vec![host(0, tcp)],
        host(1, tcp),
        vec![host(2, tcp)],
        LinkConfig::default(),
        LinkConfig::default(),
        seed,
        faults,
    );
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    let stream = drive(&mut sim, &mut queue, Nanos::from_millis(400), |sim, h| {
        (h == 1).then_some(&sim.proxy.ticks)
    });
    (sim, stream)
}

#[test]
fn a_shard_crash_releases_the_relay_parked_on_its_upstream() {
    let mut resets_after_fire = 0;
    // Seed 1 is where a crash finds the relay released and unticked.
    for seed in [5, 0xFACE, 1] {
        let (periodic, p_stream) = tier(seed, false);
        let (parking, q_stream) = tier(seed, true);
        assert_eq!(p_stream.ties, vec![], "seed {seed}: pick a tie-free seed");
        assert_eq!(q_stream.ties, vec![], "seed {seed}: pick a tie-free seed");
        assert_same_ticks(
            &format!("seed {seed} relay"),
            &periodic.proxy.ticks,
            &parking.proxy.ticks,
        );
        // Every crash shows in the log as a new upstream socket.
        let upstreams: std::collections::BTreeSet<_> = parking
            .proxy
            .ticks
            .log
            .iter()
            .filter_map(|(_, seen)| seen.map(|(sock, _)| sock))
            .collect();
        assert!(
            upstreams.len() >= 15,
            "seed {seed}: {} upstreams",
            upstreams.len()
        );
        assert!(parking.proxy.ticks.calls * 2 < periodic.proxy.ticks.calls);
        resets_after_fire += parking.proxy.ticks.resets_after_fire;
    }
    assert!(
        resets_after_fire > 0,
        "no crash ever hit a released but unticked relay"
    );
}

/// The tie rule, constructed: the only arrival on the socket after the
/// handshake — its reset — lands exactly on a grid instant. A periodic
/// tick queued a period earlier runs before it and sees the old count; the
/// parked twin books that instant with the old count as well and is
/// called one period later.
#[test]
fn a_change_at_a_grid_instant_leaves_that_instant_unchanged_as_found() {
    /// Ticks from t = 1 ms on and sends nothing.
    struct Quiet {
        sock: Option<SocketId>,
        ticks: Ticks,
    }
    impl App for Quiet {
        fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
            self.sock = Some(ctx.connect(TcpConfig::default()));
            ctx.call_at(Nanos::from_millis(1), TICK);
        }
        fn on_wake(&mut self, _ctx: &mut HostCtx<'_>, _sock: SocketId, _reason: WakeReason) {}
        fn on_call(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
            self.ticks.tick(ctx, self.sock);
        }
    }
    /// Never reads, never answers.
    struct Mute;
    impl App for Mute {
        fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}
        fn on_wake(&mut self, _ctx: &mut HostCtx<'_>, _sock: SocketId, _reason: WakeReason) {}
        fn on_call(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}
    }

    let tcp = TcpConfig::default();
    let crash_at = Nanos::from_millis(1) + PERIOD * 6;
    let run = |parks: bool| {
        let client = Quiet {
            sock: None,
            ticks: Ticks::new(parks),
        };
        // The crash is queued before any tick: at `crash_at` it runs ahead
        // of a tick event of the same instant.
        let faults = FaultConfig {
            restart: Some(RestartSchedule {
                first_at: crash_at,
                period: Nanos::ZERO,
            }),
            ..FaultConfig::default()
        };
        let mut sim = NetSim::star_with_faults(
            vec![client],
            Mute,
            vec![host(0, tcp)],
            host(1, tcp),
            LinkConfig::default(),
            1,
            faults,
        );
        let mut queue = EventQueue::new();
        sim.start(&mut queue);
        drive(&mut sim, &mut queue, Nanos::from_millis(7), |sim, h| {
            sim.clients.get(h).map(|c| &c.ticks)
        });
        sim
    };
    let parking = run(true);
    let log = &parking.clients[0].ticks.log;
    let arrivals_at = |at: Nanos| {
        let (_, seen) = log
            .iter()
            .find(|(t, _)| *t == at)
            .expect("a tick per grid instant");
        seen.expect("connected").1
    };
    let before = arrivals_at(crash_at - PERIOD);
    assert_eq!(
        arrivals_at(crash_at),
        before,
        "the instant of the change is booked as found"
    );
    assert_eq!(
        arrivals_at(crash_at + PERIOD),
        before + 1,
        "the next instant ticks and sees the change"
    );
    // Slept from the handshake to the crash, called at `crash_at +
    // PERIOD`, then parked on the dead socket until the run ends.
    assert!(
        parking.clients[0].ticks.calls <= 3,
        "{} calls",
        parking.clients[0].ticks.calls
    );

    // The periodic chain's tick of that instant was queued *after* the
    // crash (one period before `crash_at`, the crash at t = 0), so it runs
    // second and sees the change one instant earlier than the parked twin
    // books it: the one divergence the tie rule allows, and the reason the
    // differential seeds above must be tie-free.
    let periodic = run(false);
    let seen_at = |at: Nanos| {
        periodic.clients[0]
            .ticks
            .log
            .iter()
            .find(|(t, _)| *t == at)
            .unwrap()
            .1
    };
    assert_eq!(seen_at(crash_at).unwrap().1, before + 1);
    assert_eq!(seen_at(crash_at - PERIOD).unwrap().1, before);
}
