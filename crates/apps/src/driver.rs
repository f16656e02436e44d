//! Estimation and policy plumbing shared by client and server apps.
//!
//! Every driver here is the paper's §4–5 loop — tick → estimate → decide
//! → actuate — at one seat. A [`Seat`] owns one [`ControlPlane`] and an
//! estimate source: each tick it offers the source's [`Estimate`] to the
//! plane and actuates every knob the plane controls through
//! [`HostCtx::apply`]. A [`PlaneDriver`] is the seat over one
//! connection's [`EstimateRecorder`] (the "estimated" curves of Figure
//! 4); a [`ListenerPlaneDriver`] is the seat over a [`ListenerRecorder`],
//! whose estimate is the throughput-weighted aggregate of many
//! connections; a [`ProxyDriver`] holds one listener seat per shard.
//! Dynamic Nagle toggling is the plane with only its Nagle knob attached;
//! `AimdDriver` is the §5 gradual limit on its own.
//!
//! A client that only records holds plain [`EstimateRecorder`]s, which
//! keep cumulative windows and run no estimator; only a seat steps an
//! estimator, every tick (DESIGN.md §11, "Activity-proportional
//! estimation").

use batchpolicy::{AimdBatchLimit, BreakerState, CircuitBreaker, ControlPlane, TickController};
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::compose::compose_two;
use e2e_core::{
    Admitted, E2eEstimator, Estimate, EstimatorRegistry, ExchangeIntake, ValidateConfig,
    ValidateStats,
};
use littles::wire::{WireExchange, WireScale, WireSnapshot};
use littles::Nanos;
use tcpsim::{HostCtx, KnobSetting, SocketId, TcpSocket, Unit};

use crate::runlog::HintCheckpoints;

/// What one estimator update reads from a socket: its local queue
/// snapshots at `now`, the peer's latest exchange, and the smoothed RTT
/// that anchors the validator's delay bound (ignored with validation
/// disabled).
fn estimator_inputs(
    socket: &TcpSocket,
    now: Nanos,
    unit: Unit,
) -> (EndpointSnapshots, Option<WireExchange>, Option<Nanos>) {
    (
        socket.local_snapshots(now, unit),
        socket.remote().unit(unit),
        socket.srtt(),
    )
}

/// Per-unit estimate recording (no actuation), in one of two forms.
///
/// A *plain* recorder ([`EstimateRecorder::new`]: what a client that only
/// records holds) keeps the paper's GETAVGS state for one measurement
/// window, its client's (set by [`with_window`](Self::with_window), which
/// `LancetClient::with_recorder` calls), and runs no estimator. A
/// *checkpoint* is a tick that folds in a fresh exchange; the window's
/// answer is the sum of every local and every admitted remote window
/// between its first and its last checkpoint. So the recorder keeps the
/// previous local snapshot, the last admitted exchange, the local windows
/// since the last checkpoint, and both sums from the window's first
/// checkpoint to its last so far: a fixed-size state that allocates
/// nothing. A local window is an exact difference of monotone counters,
/// so on one socket the sum over any run of ticks is the window across
/// the run: a plain recorder that skips the ticks that see no fresh
/// exchange keeps the same sums — up to a reset, which ends the socket:
/// the sums run to the last tick before it, so where a reset can come no
/// tick is skipped. One that validates does not skip either: its
/// validator judges each exchange against the local window of the tick
/// that admits it, and a rejected one again at every tick.
///
/// A *seat's source* (the [`EstimateSource::new`] of a [`PlaneDriver`],
/// and an `AimdDriver`'s) steps an [`E2eEstimator`] on every tick: its
/// newest estimate, [`latest`](Self::latest), is what the seat decides on.
/// It has no window, so it answers no range.
#[derive(Debug, Clone)]
pub struct EstimateRecorder {
    /// The message unit this recorder estimates in.
    pub unit: Unit,
    form: Form,
}

#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "plain recorders are the many and are ticked inline; the few sources box their estimator"
)]
enum Form {
    Plain(Getavgs),
    Source {
        estimator: Box<E2eEstimator>,
        /// Estimator updates so far, one per tick.
        updates: u64,
    },
}

/// A plain recorder's state: GETAVGS over one measurement window.
#[derive(Debug, Clone)]
struct Getavgs {
    /// The local snapshots at the last tick.
    prev_local: Option<EndpointSnapshots>,
    /// The last admitted exchange, and the validator if there is one.
    intake: ExchangeIntake,
    /// The measurement window `[from, to)` the recorder answers for.
    window: (Nanos, Nanos),
    /// Every local window since the last checkpoint.
    local_since: EndpointWindows,
    /// The (local, remote) sums from the window's first checkpoint to its
    /// last so far; `None` before the first.
    sums: Option<(EndpointWindows, EndpointWindows)>,
}

impl Getavgs {
    fn tick(
        &mut self,
        now: Nanos,
        local: EndpointSnapshots,
        remote: Option<WireExchange>,
        srtt: Option<Nanos>,
    ) {
        let window = self
            .prev_local
            .and_then(|prev| EndpointWindows::between(&prev, &local));
        self.prev_local = Some(local);
        let admitted = self.intake.admit(remote, window, srtt);
        // A tick whose local window is refused — the first one, or the
        // first on a restarted socket — folds neither window, although it
        // may have admitted a new baseline.
        let Some(window) = window else {
            return;
        };
        self.local_since.merge(&window);
        let Admitted::Window(Some(far)) = admitted else {
            return;
        };
        // A checkpoint. The window's first one starts the sums; each later
        // one inside it adds what came since the checkpoint before.
        let (from, to) = self.window;
        if now >= from && now < to {
            match &mut self.sums {
                None => self.sums = Some(Default::default()),
                Some((near, remote)) => {
                    near.merge(&self.local_since);
                    remote.merge(&far);
                }
            }
        }
        self.local_since = EndpointWindows::default();
    }

    /// See [`EstimateRecorder::windows_in`].
    fn windows_in(&self, from: Nanos, to: Nanos) -> Option<(EndpointWindows, EndpointWindows)> {
        assert!(
            (from, to) == self.window,
            "a plain recorder answers only for its window [{}, {}), not [{from}, {to})",
            self.window.0,
            self.window.1
        );
        // A lone checkpoint left the sums empty.
        let (near, far) = self.sums?;
        (!near.unacked.dt.is_zero()).then_some((near, far))
    }
}

impl EstimateRecorder {
    /// Creates a plain recorder for one unit. Its window is empty until
    /// [`with_window`](Self::with_window) gives it one.
    pub fn new(unit: Unit) -> Self {
        EstimateRecorder {
            unit,
            form: Form::Plain(Getavgs {
                prev_local: None,
                intake: ExchangeIntake::new(WireScale::default()),
                window: (Nanos::ZERO, Nanos::ZERO),
                local_since: EndpointWindows::default(),
                sums: None,
            }),
        }
    }

    /// Sets the measurement window `[from, to)` a plain recorder answers
    /// for: its client's, handed over by `LancetClient::with_recorder`. A
    /// source has no window, so this changes nothing in it.
    pub fn with_window(mut self, from: Nanos, to: Nanos) -> Self {
        if let Form::Plain(g) = &mut self.form {
            g.window = (from, to);
        }
        self
    }

    /// Bounds how long a source's estimator trusts a cached remote window
    /// (see [`E2eEstimator::with_staleness_bound`]). A plain recorder
    /// forms no estimate, so the bound changes nothing in it.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.form = match self.form {
            Form::Source { estimator, updates } => Form::Source {
                estimator: Box::new(estimator.with_staleness_bound(bound)),
                updates,
            },
            plain => plain,
        };
        self
    }

    /// Validates every incoming exchange against locally observable
    /// signals before it can count (see [`e2e_core::ExchangeValidator`]).
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.form = match self.form {
            Form::Plain(mut g) => {
                g.intake = g.intake.with_validation(config);
                Form::Plain(g)
            }
            Form::Source { estimator, updates } => Form::Source {
                estimator: Box::new(estimator.with_validation(config)),
                updates,
            },
        };
        self
    }

    /// Validation counters, if validation is enabled.
    pub fn validation_stats(&self) -> Option<ValidateStats> {
        match &self.form {
            Form::Plain(g) => g.intake.validation_stats(),
            Form::Source { estimator, .. } => estimator.validation_stats(),
        }
    }

    /// Whether every tick counts: a source steps its estimator on each,
    /// and a validator judges each fresh exchange against the local window
    /// of the tick that admits it, and a rejected one again at every tick.
    /// A plain recorder that does not validate changes only at a tick that
    /// sees a fresh exchange or another socket.
    pub(crate) fn ticks_every_period(&self) -> bool {
        match &self.form {
            Form::Plain(g) => g.intake.validation_stats().is_some(),
            Form::Source { .. } => true,
        }
    }

    /// Runs one tick against `sock`.
    // hot-path: every client, every tick
    pub fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        self.tick_socket(ctx.now(), ctx.socket(sock));
    }

    /// [`Self::tick`] against a socket held outside a simulation
    /// (benchmarks and tests that drive a [`TcpSocket`] by hand).
    pub fn tick_socket(&mut self, now: Nanos, socket: &TcpSocket) {
        let (local, remote, srtt) = estimator_inputs(socket, now, self.unit);
        match &mut self.form {
            Form::Plain(g) => g.tick(now, local, remote, srtt),
            Form::Source { estimator, updates } => {
                estimator.update_validated(now, local, remote, srtt);
                *updates += 1;
            }
        }
    }

    /// A source's newest estimate; a plain recorder has none.
    pub fn latest(&self) -> Option<Estimate> {
        match &self.form {
            Form::Plain(_) => None,
            Form::Source { estimator, .. } => estimator.last(),
        }
    }

    /// Estimator updates so far: one per tick of a source, none in a plain
    /// recorder.
    pub fn estimator_updates(&self) -> u64 {
        match &self.form {
            Form::Plain(_) => 0,
            Form::Source { updates, .. } => *updates,
        }
    }

    /// The window's cumulative (local, remote) window pair: the sums from
    /// its first checkpoint to its last, or `None` when fewer than two fall
    /// inside it, or in a source, which has no window.
    ///
    /// # Panics
    ///
    /// When a plain recorder is asked for a range other than its window:
    /// it keeps nothing that answers another.
    pub fn windows_in(&self, from: Nanos, to: Nanos) -> Option<(EndpointWindows, EndpointWindows)> {
        match &self.form {
            Form::Plain(g) => g.windows_in(from, to),
            Form::Source { .. } => None,
        }
    }

    /// Mean estimated latency over the window `[from, to)`, or `None` when
    /// fewer than two checkpoints fall inside it (see
    /// [`Self::windows_in`], which also panics where this does).
    ///
    /// Evaluated by applying the §3.2 decomposition to the window's one
    /// long cumulative queue window — Little's law with integrals and
    /// departures summed *before* dividing. Averaging the per-tick
    /// estimates instead is biased at low per-connection load (high
    /// fan-in): item residences straddle tick windows, the per-window
    /// delay ratios swing by milliseconds, and taking the larger of two
    /// noisy views each tick rectifies that noise into a positive bias
    /// that once made the N = 64 fan-in estimate ~32× the measured
    /// latency. Over the long window both views are computed from hundreds
    /// of departures and the larger one is a faithful guard against
    /// underestimation, as in the paper.
    pub fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let (near, far) = self.windows_in(from, to)?;
        let lv = combine_delays(&near, &far).latency();
        let rv = combine_delays(&far, &near).latency();
        Some(lv.max(rv))
    }

    /// Mean estimated throughput over the window `[from, to)`: departures
    /// over elapsed time from its cumulative window, or `None` when fewer
    /// than two checkpoints fall inside it (see [`Self::windows_in`]).
    pub fn mean_throughput_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let (near, _) = self.windows_in(from, to)?;
        Some(near.unread.throughput())
    }
}

/// Hint-based estimate recording (server side of §3.3): GETAVGS over the
/// client's one logical request queue.
///
/// Each fresh hint the connection forwards is folded into running sums of
/// departures and of the occupancy integral: the wrapping differences of
/// the wire's 32-bit counters from the hint before, so the sums stay in
/// the wire's units and nothing is lost between hints however sparse they
/// are. The sums are checkpointed when the integral has moved, at most
/// once per `period`; a range query is Little's law over the difference
/// of its first and last checkpoint.
#[derive(Debug, Default)]
pub(crate) struct HintRecorder {
    /// The last hint folded in.
    prev: Option<WireSnapshot>,
    /// Departures so far.
    departures: u64,
    /// The occupancy integral so far, in the wire's units.
    integral: u64,
    /// `(time, departures, integral)` at every checkpoint.
    checkpoints: HintCheckpoints,
}

impl HintRecorder {
    /// Folds in the connection's latest hint as of `now`: the first hint
    /// only sets the baseline, and a hint already folded in adds nothing.
    pub(crate) fn fold(&mut self, now: Nanos, hint: WireSnapshot, period: Nanos) {
        let Some(prev) = self.prev.replace(hint) else {
            return;
        };
        self.departures += u64::from((hint.total - prev.total).0);
        self.integral += u64::from((hint.integral - prev.integral).0);
        let &(at, _, integral) = self.checkpoints.newest();
        if self.integral != integral && now >= at + period {
            self.checkpoints.push((now, self.departures, self.integral));
        }
    }

    /// Departures and integral (in the wire's units) between the first and
    /// the last checkpoint in `[from, to)`; zero when fewer than two fall
    /// inside.
    pub(crate) fn sums_in(&self, from: Nanos, to: Nanos) -> (u64, u64) {
        let mut inside = self
            .checkpoints
            .iter()
            .skip_while(|c| c.0 < from)
            .take_while(|c| c.0 < to);
        let Some(first) = inside.next() else {
            return (0, 0);
        };
        let last = inside.last().unwrap_or(first);
        (last.1 - first.1, last.2 - first.2)
    }
}

/// Estimation plus AIMD actuation: drives the socket's gradual batch
/// limit (paper §5, "Better Batching Heuristics") instead of a binary
/// Nagle switch.
#[derive(Debug)]
pub(crate) struct AimdDriver {
    /// The estimate source.
    pub(crate) recorder: EstimateRecorder,
    controller: AimdBatchLimit,
    /// The limits applied so far, summed, and the ticks that applied one:
    /// read at two instants, their differences give the mean limit
    /// between them.
    pub(crate) limits: (u64, u64),
}

impl AimdDriver {
    /// Creates a driver estimating in `unit` with the given controller.
    pub(crate) fn new(unit: Unit, controller: AimdBatchLimit) -> Self {
        AimdDriver {
            recorder: EstimateSource::new(unit),
            controller,
            limits: (0, 0),
        }
    }

    /// Runs one tick: estimate, adapt the limit, actuate through the
    /// uniform knob path (`KnobSetting::CorkLimit`).
    pub(crate) fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.recorder.tick(ctx, sock);
        if let Some(estimate) = self.recorder.latest() {
            let limit = self.controller.update(&estimate);
            self.limits.0 += limit;
            self.limits.1 += 1;
            ctx.apply(sock, KnobSetting::CorkLimit(limit));
        }
    }
}

/// What a [`Seat`] estimates with.
pub trait EstimateSource {
    /// An unsmoothed source estimating in `unit`.
    fn new(unit: Unit) -> Self;

    /// Bounds how long the source's estimators trust a cached remote
    /// window (see [`E2eEstimator::with_staleness_bound`]).
    fn with_staleness_bound(self, bound: Nanos) -> Self;

    /// Validates every incoming exchange before it can influence the
    /// source's estimate (see [`E2eEstimator::with_validation`]).
    fn with_validation(self, config: ValidateConfig) -> Self;
}

impl EstimateSource for EstimateRecorder {
    /// A seat's source: an estimator stepped on every tick.
    fn new(unit: Unit) -> Self {
        EstimateRecorder {
            unit,
            form: Form::Source {
                estimator: Box::new(E2eEstimator::new(WireScale::default(), 1.0)),
                updates: 0,
            },
        }
    }

    fn with_staleness_bound(self, bound: Nanos) -> Self {
        EstimateRecorder::with_staleness_bound(self, bound)
    }

    fn with_validation(self, config: ValidateConfig) -> Self {
        EstimateRecorder::with_validation(self, config)
    }
}

/// What a [`ListenerRecorder`] logs at a deciding tick: the latency its
/// readers use, not the whole [`Estimate`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoggedLatency {
    /// When the tick ran.
    pub(crate) at: Nanos,
    /// The estimate's latency.
    pub(crate) latency: Nanos,
}

/// Listener-wide estimate recording (paper §3.2, last paragraph): one
/// [`E2eEstimator`] per connection inside an [`EstimatorRegistry`], whose
/// throughput-weighted aggregate is the estimate, logged at every
/// deciding tick. With one connection the aggregate is that connection's
/// estimate.
#[derive(Debug)]
pub struct ListenerRecorder {
    unit: Unit,
    registry: EstimatorRegistry,
    /// The latencies logged at every deciding tick.
    series: Vec<LoggedLatency>,
    /// The newest logged estimate, whole.
    latest: Option<Estimate>,
}

impl EstimateSource for ListenerRecorder {
    fn new(unit: Unit) -> Self {
        ListenerRecorder {
            unit,
            registry: EstimatorRegistry::new(WireScale::default(), 1.0),
            series: Vec::new(),
            latest: None,
        }
    }

    fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.registry = self.registry.with_staleness_bound(bound);
        self
    }

    fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.registry = self.registry.with_validation(config);
        self
    }
}

impl ListenerRecorder {
    /// Mean logged latency over `[from, to)`.
    pub(crate) fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let mut sum = 0u128;
        let mut n = 0u64;
        for logged in &self.series {
            if logged.at >= from && logged.at < to {
                sum += logged.latency.as_nanos() as u128;
                n += 1;
            }
        }
        (n > 0).then(|| Nanos::from_nanos((sum / n as u128) as u64))
    }
}

/// Feeds one connection's queue state, as of now, to its estimator in
/// `registry`.
fn feed(
    registry: &mut EstimatorRegistry,
    ctx: &HostCtx<'_>,
    unit: Unit,
    conn: u64,
    sock: SocketId,
) {
    let now = ctx.now();
    let (local, remote, srtt) = estimator_inputs(ctx.socket(sock), now, unit);
    registry.update_validated(conn, now, local, remote, srtt);
}

/// One control seat: a [`ControlPlane`], wrapped in a — possibly
/// disabled — circuit breaker, deciding on the estimate of its source
/// `S` once per tick and actuating every knob it controls through
/// [`HostCtx::apply`].
#[derive(Debug)]
pub struct Seat<S> {
    /// The estimate source.
    pub recorder: S,
    controller: TickController<CircuitBreaker<ControlPlane>>,
    /// Headline (Nagle) decisions that were "batch", and all decisions.
    on: u64,
    decisions: u64,
}

/// The seat over one connection: it decides on that connection's
/// estimate and actuates its socket.
pub type PlaneDriver = Seat<EstimateRecorder>;

/// The seat over a set of connections: it decides once on their
/// aggregate and applies every knob's setting to every connection — the
/// listener-wide default a server actually toggles. A [`ProxyDriver`]
/// holds one of these per shard, over that shard's upstream connection.
pub type ListenerPlaneDriver = Seat<ListenerRecorder>;

impl<S: EstimateSource> Seat<S> {
    /// Creates a seat estimating in `unit` and deciding with the given
    /// control plane.
    pub fn new(unit: Unit, controller: TickController<CircuitBreaker<ControlPlane>>) -> Self {
        Seat {
            recorder: S::new(unit),
            controller,
            on: 0,
            decisions: 0,
        }
    }

    /// Bounds how long the seat's estimators trust a cached remote
    /// window.
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.recorder = self.recorder.with_staleness_bound(bound);
        self
    }

    /// Validates every incoming exchange before it can influence the
    /// plane's estimate.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.recorder = self.recorder.with_validation(config);
        self
    }
}

impl<S> Seat<S> {
    /// The circuit breaker around the plane.
    pub fn breaker(&self) -> &CircuitBreaker<ControlPlane> {
        self.controller.inner()
    }

    /// The control plane itself.
    pub fn plane(&self) -> &ControlPlane {
        self.controller.inner().inner()
    }

    /// Fraction of decisions with batching on (zero before the first).
    pub fn on_fraction(&self) -> f64 {
        if self.decisions == 0 {
            return 0.0;
        }
        self.on as f64 / self.decisions as f64
    }

    /// The deciding half of a tick: offer `estimate` to the plane, count
    /// the headline decision, and apply every knob's setting to every
    /// socket in `socks` — the plane's learned settings while the breaker
    /// is closed, its safe static corner otherwise.
    fn decide(
        &mut self,
        ctx: &mut HostCtx<'_>,
        estimate: &Estimate,
        socks: impl IntoIterator<Item = SocketId>,
    ) {
        let on = self.controller.offer(ctx.now(), estimate);
        self.on += u64::from(on);
        self.decisions += 1;
        let breaker = self.controller.inner();
        let settings = if breaker.state() == BreakerState::Closed {
            breaker.inner().settings()
        } else {
            debug_assert_eq!(on, breaker.safe_on(), "degraded decision is the safe mode");
            breaker.inner().safe_settings(on)
        };
        for sock in socks {
            for &setting in &settings {
                ctx.apply(sock, setting);
            }
        }
    }
}

impl PlaneDriver {
    /// Runs one tick: estimate, decide across every knob, actuate each
    /// knob's setting on the socket.
    pub(crate) fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.recorder.tick(ctx, sock);
        if let Some(estimate) = self.recorder.latest() {
            self.decide(ctx, &estimate, [sock]);
        }
    }
}

impl ListenerPlaneDriver {
    /// Validation counters summed across every connection's estimator.
    pub fn validation_stats(&self) -> ValidateStats {
        self.recorder.registry.validation_stats()
    }

    /// Runs one tick over every live connection: update each estimator,
    /// aggregate, decide once across every knob, actuate everywhere.
    pub(crate) fn tick(
        &mut self,
        ctx: &mut HostCtx<'_>,
        socks: impl Iterator<Item = SocketId> + Clone,
    ) {
        let rec = &mut self.recorder;
        for sock in socks.clone() {
            feed(&mut rec.registry, ctx, rec.unit, sock.0 as u64, sock);
        }
        self.decide_on_aggregate(ctx, socks, None);
    }

    /// Decides on the registry's aggregate over `socks`, logging it
    /// composed with the leg in `front` of it when there is one. Nothing
    /// happens until the registry has an estimate.
    fn decide_on_aggregate(
        &mut self,
        ctx: &mut HostCtx<'_>,
        socks: impl IntoIterator<Item = SocketId>,
        front: Option<&Estimate>,
    ) {
        let Some(aggregate) = self.recorder.registry.aggregate() else {
            return;
        };
        let logged = front.map_or(aggregate, |f| compose_two(f, &aggregate));
        self.recorder.series.push(LoggedLatency {
            at: ctx.now(),
            latency: logged.latency,
        });
        self.recorder.latest = Some(logged);
        self.decide(ctx, &aggregate, socks);
    }
}

/// Proxy-side estimation and per-shard actuation (the two-tier topology's
/// policy seat).
///
/// The proxy terminates every client connection (the *front* leg) and
/// holds one upstream connection per shard (the *back* legs). This driver
/// runs one front [`EstimatorRegistry`] over all accepted client
/// connections and one [`ListenerPlaneDriver`] seat per shard over that
/// shard's upstream, and — per shard — composes the two legs into a
/// service-level [`Estimate`] ([`compose_two`]: latencies summed
/// along the path as in Figure 3, confidence the weakest leg's). The
/// composed series is what each seat logs, the *reporting* view: it is
/// what ranks shards by end-to-end delay. Each shard's [`ControlPlane`]
/// decides on the *back-leg* estimate alone — the leg its knob actually
/// controls — so the shared front leg's queueing noise (identical for
/// every shard) cannot drown the per-shard signal. The decision actuates
/// on that shard's upstream socket: a hot shard can batch while cold
/// shards stay latency-optimal, independently.
#[derive(Debug)]
pub struct ProxyDriver {
    /// The message unit the per-connection estimators use.
    pub(crate) unit: Unit,
    front: EstimatorRegistry,
    seats: Vec<ListenerPlaneDriver>,
}

impl ProxyDriver {
    /// Creates a driver estimating in `unit` with one controller per
    /// shard (each wrapped in a — possibly disabled — circuit breaker).
    pub fn new(unit: Unit, controllers: Vec<TickController<CircuitBreaker<ControlPlane>>>) -> Self {
        ProxyDriver {
            unit,
            front: EstimatorRegistry::new(WireScale::default(), 1.0),
            seats: controllers
                .into_iter()
                .map(|c| ListenerPlaneDriver::new(unit, c))
                .collect(),
        }
    }

    /// Applies peer-state validation to every estimator the driver's
    /// registries create.
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.front = self.front.with_validation(config);
        self.seats = self
            .seats
            .into_iter()
            .map(|s| s.with_validation(config))
            .collect();
        self
    }

    /// Validation counters summed across the front registry and every
    /// shard's back registry.
    pub fn validation_stats(&self) -> ValidateStats {
        let mut total = self.front.validation_stats();
        for seat in &self.seats {
            total.merge(&seat.validation_stats());
        }
        total
    }

    /// Validation counters for one shard's back-leg registry alone —
    /// after a shard crash this is where the replacement connection's
    /// epoch change (and the resync it forces) shows up.
    pub(crate) fn back_validation_stats(&self, shard: usize) -> ValidateStats {
        self.seats[shard].validation_stats()
    }

    /// Number of shards the driver controls.
    pub fn num_shards(&self) -> usize {
        self.seats.len()
    }

    /// One shard's control plane.
    pub fn plane(&self, shard: usize) -> &ControlPlane {
        self.seats[shard].plane()
    }

    /// Runs one tick: update the front registry over every client
    /// connection and each shard's back registry over its upstream
    /// connection, compose per-shard service estimates, and let each
    /// shard's plane decide and actuate on its own upstream socket.
    pub(crate) fn tick(
        &mut self,
        ctx: &mut HostCtx<'_>,
        client_socks: &[SocketId],
        upstreams: &[Option<SocketId>],
    ) {
        assert_eq!(upstreams.len(), self.seats.len(), "one upstream per shard");
        for &sock in client_socks {
            feed(&mut self.front, ctx, self.unit, sock.0 as u64, sock);
        }
        let front = self.front.aggregate();
        for (seat, up) in self.seats.iter_mut().zip(upstreams) {
            let Some(sock) = *up else { continue };
            // Connection 0 whatever the socket: a replacement upstream
            // after a shard crash continues the same estimator, which is
            // how its new epoch gets noticed.
            feed(&mut seat.recorder.registry, ctx, self.unit, 0, sock);
            // The plane decides on the back leg: the Nagle knob only
            // shapes proxy → shard traffic, and the front leg's aggregate
            // delay is common to every shard — composing it in would only
            // add shared noise to each plane's signal. What is logged is
            // the composed view; until the front leg estimates (e.g.
            // clients still idle) the back leg alone is the best
            // available service view.
            seat.decide_on_aggregate(ctx, [sock], front.as_ref());
        }
    }

    /// Fraction of one shard's decisions with batching on.
    pub fn on_fraction(&self, shard: usize) -> f64 {
        self.seats[shard].on_fraction()
    }

    /// One shard's recorded *composed* (front + back) estimate series —
    /// the service-level view that ranks shards by end-to-end latency.
    pub(crate) fn shard_series(&self, shard: usize) -> &[LoggedLatency] {
        &self.seats[shard].recorder.series
    }

    /// The newest composed (front + back) service estimate for one shard.
    pub(crate) fn latest_composed(&self, shard: usize) -> Option<&Estimate> {
        self.seats[shard].recorder.latest.as_ref()
    }

    /// Mean composed service latency for one shard over `[from, to)`.
    pub fn shard_mean_latency_in(&self, shard: usize, from: Nanos, to: Nanos) -> Option<Nanos> {
        self.seats[shard].recorder.mean_latency_in(from, to)
    }
}

#[cfg(test)]
mod tests {
    use batchpolicy::Objective;
    use e2e_core::combine::{combine_delays, EndpointWindows};
    use e2e_core::RequestTracker;
    use littles::wire::{WireExchange, WireScale, WireSnapshot};
    use littles::{Nanos, Snapshot};
    use tcpsim::segment::{E2eOption, Flags, OptionSlot};
    use tcpsim::seq::SeqNum;
    use tcpsim::{Actions, FlowId, Segment, TcpConfig, TcpSocket, TxEnv, Unit};

    use super::{EstimateRecorder, EstimateSource, HintRecorder};
    use crate::harness::Harness;
    use crate::runner::{NagleSetting, RunConfig};
    use crate::tier::{ShardSetting, TierRunConfig};
    use crate::workload::WorkloadSpec;

    /// A peer's byte-unit exchange as of `now`: one departure every 10 µs,
    /// three bytes queued throughout.
    fn exchange(now: Nanos) -> WireExchange {
        let t = now.as_nanos();
        let snap = Snapshot {
            time: now,
            total: t / 10_000,
            integral: u128::from(t) * 3,
        };
        WireExchange::pack(&snap, &snap, &snap, WireScale::default())
    }

    /// A bare segment carrying [`exchange`]`(now)`.
    fn exchange_segment(now: Nanos) -> Segment {
        let exchange = exchange(now);
        let mut seg = Segment::control(
            FlowId(0),
            SeqNum::new(0),
            SeqNum::new(0),
            Flags::default(),
            0,
        );
        seg.options.slot = Some(OptionSlot::E2e(E2eOption::single(Unit::Bytes, exchange)));
        seg
    }

    /// A window's answer is GETAVGS over the sums between its first and
    /// its last checkpoint. A window holding fewer than two has no answer,
    /// however many ticks in it estimated.
    #[test]
    fn a_range_answers_from_two_checkpoints_or_not_at_all() {
        let tick = |k: u64| Nanos::from_micros(500) * k;
        let mut actions = Actions::new();
        let mut sock =
            TcpSocket::client(FlowId(0), TcpConfig::default(), Nanos::ZERO, &mut actions);
        // Checkpoints at ticks 2 and 3: zero, one and two of them inside.
        let windows = [(tick(4), tick(9)), (tick(3), tick(9)), (tick(2), tick(9))];
        let mut recs =
            windows.map(|(from, to)| EstimateRecorder::new(Unit::Bytes).with_window(from, to));
        let mut source: EstimateRecorder = EstimateSource::new(Unit::Bytes);
        let mut local = Vec::new();
        // Ticks 1–3 each find a fresh exchange, ticks 4–8 none.
        for k in 1..=8 {
            if k <= 3 {
                actions.clear();
                let seg = exchange_segment(tick(k));
                sock.on_segment(tick(k), &seg, TxEnv::default(), &mut actions);
            }
            for rec in &mut recs {
                rec.tick_socket(tick(k), &sock);
            }
            source.tick_socket(tick(k), &sock);
            local.push(sock.local_snapshots(tick(k), Unit::Bytes));
        }
        for (rec, (from, to)) in recs[..2].iter().zip(windows) {
            assert_eq!(rec.windows_in(from, to), None, "[{from}, {to})");
            assert_eq!(rec.mean_latency_in(from, to), None);
            assert_eq!(rec.mean_throughput_in(from, to), None);
        }

        // Two: Little's law over what came between them, the local window
        // from tick 2 to tick 3 and the peer's from its second exchange to
        // its third.
        let (from, to) = windows[2];
        let near = EndpointWindows::between(&local[1], &local[2]).expect("a local window");
        let remote = exchange(tick(3))
            .unread
            .window_since(&exchange(tick(2)).unread, WireScale::default())
            .expect("a remote window");
        let far = EndpointWindows {
            unacked: remote,
            unread: remote,
            ackdelay: remote,
        };
        assert_eq!(recs[2].windows_in(from, to), Some((near, far)));
        let latency = combine_delays(&near, &far)
            .latency()
            .max(combine_delays(&far, &near).latency());
        assert!(!latency.is_zero());
        assert_eq!(recs[2].mean_latency_in(from, to), Some(latency));
        assert_eq!(
            recs[2].mean_throughput_in(from, to).map(f64::to_bits),
            Some(near.unread.throughput().to_bits())
        );
        assert_eq!(
            source.latest().map(|e| e.at),
            Some(tick(8)),
            "every tick estimated"
        );
        assert_eq!(
            source.mean_latency_in(from, to),
            None,
            "a source has no window"
        );
        assert_eq!(recs[2].latest(), None, "a plain recorder estimates nothing");
    }

    /// The server's hint fold, driven by hand through the unscaled wire.
    /// A tracker first carries both counters to just short of the 32-bit
    /// wrap; the first hint sets the baseline and folds nothing. Then a
    /// request is created every 50 µs and completed 200 µs later, each
    /// create sending a hint, which the server also reads a second time
    /// before the next arrives. The sums count every departure once,
    /// across the wrap, and Little's law over the checkpoints' difference
    /// is the 200 µs every request took, exactly.
    #[test]
    fn hint_fold_reads_fifo_latency_exactly_across_the_wire_wrap() {
        let us = Nanos::from_micros;
        let period = us(500);
        let hint =
            |t: &RequestTracker, at| WireSnapshot::pack(&t.snapshot(at), WireScale::UNSCALED);
        let mut tracker = RequestTracker::new(Nanos::ZERO);
        tracker.create(Nanos::ZERO, u32::MAX - 5);
        tracker.complete(Nanos::from_nanos(1), u32::MAX - 5);
        let mut rec = HintRecorder::default();
        let first = hint(&tracker, us(1));
        rec.fold(us(1), first, period);
        assert_eq!((rec.departures, rec.integral), (0, 0), "a baseline only");

        // (time, complete before create at a tie, request)
        let mut events: Vec<(Nanos, bool, u64)> = (0..40u64)
            .flat_map(|j| [(us(10 + 50 * j), true, j), (us(210 + 50 * j), false, j)])
            .collect();
        events.sort_unstable();
        let mut last = first;
        for (at, create, _) in events {
            if create {
                tracker.create(at, 1);
                last = hint(&tracker, at);
                rec.fold(at, last, period);
                rec.fold(at + us(1), last, period);
            } else {
                tracker.complete(at, 1);
            }
        }
        assert!(last.total.0 < first.total.0 && last.integral.0 < first.integral.0);
        // Completions at or before the last create: requests 0..=35.
        assert_eq!(rec.departures, 36, "each departure counted once");

        let at: Vec<Nanos> = rec.checkpoints.iter().map(|c| c.0).collect();
        assert_eq!(at, [us(510), us(1_010), us(1_510)]);
        let (departures, integral) = rec.sums_in(Nanos::ZERO, Nanos::from_secs(1));
        assert_eq!(departures, 20);
        assert_eq!(integral, 20 * us(200).as_nanos());
        assert_eq!(rec.sums_in(us(1_000), us(1_500)), (0, 0), "one checkpoint");
    }

    /// Every estimator the apps build smooths with α = 1, so each smoothed
    /// latency is its raw latency, bit for bit: a client's plane seat, the
    /// listener seat, and every proxy seat (a client's plain recorders run
    /// no estimator). The readers that once took `smoothed_latency` (the
    /// hot-shard rank, the hedge delay) read `latency` for the same bits.
    #[test]
    fn every_smoothed_latency_is_the_raw_latency() {
        let plane = NagleSetting::Plane {
            objective: Objective::MinLatency,
            delack: true,
            cork: true,
        };
        let star = RunConfig {
            num_clients: 4,
            warmup: Nanos::from_millis(30),
            measure: Nanos::from_millis(60),
            ..RunConfig::new(WorkloadSpec::fig4b(20_000.0), plane)
        };
        let star = Harness::star(&star).run();
        for client in &star.world.clients {
            let seat = client.plane.as_ref().expect("a client seat");
            let est = seat.recorder.latest().expect("a client seat estimated");
            assert_eq!(est.smoothed_latency, est.latency);
        }
        let listener = &star
            .world
            .server
            .plane
            .as_ref()
            .expect("a listener seat")
            .recorder;
        let est = listener.latest.expect("the listener seat estimated");
        assert_eq!(est.smoothed_latency, est.latency, "listener");

        let adaptive = ShardSetting::Adaptive {
            objective: Objective::MinLatency,
        };
        let mut tier = TierRunConfig::shard(WorkloadSpec::shard(8_000.0), adaptive);
        tier.num_clients = 2;
        tier.num_shards = 2;
        tier.warmup = Nanos::from_millis(30);
        tier.measure = Nanos::from_millis(60);
        let tier = Harness::tier(&tier).run();
        let proxy = tier.world.proxy.driver.as_ref().expect("proxy seats");
        for shard in 0..proxy.num_shards() {
            let est = proxy
                .latest_composed(shard)
                .expect("every shard's seat estimated");
            assert_eq!(est.smoothed_latency, est.latency, "shard {shard}");
        }
    }
}
