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
//! An [`EstimateRecorder`] does its work only when the socket has changed
//! since the previous tick and otherwise defers it; the deferred ticks
//! are later replayed through the unchanged estimator, except that where
//! every replayed tick provably repeats the one before — all of a quiet
//! stretch after its first tick — they are applied in closed form
//! (DESIGN.md §11, "Activity-proportional estimation").

use std::borrow::Cow;

use batchpolicy::{AimdBatchLimit, BreakerState, CircuitBreaker, ControlPlane, TickController};
use e2e_core::combine::{combine_delays, EndpointSnapshots, EndpointWindows};
use e2e_core::compose::compose_two;
use e2e_core::hints::HintEstimator;
use e2e_core::{E2eEstimator, Estimate, EstimatorRegistry, ValidateConfig, ValidateStats};
use littles::wire::{WireExchange, WireScale};
use littles::Nanos;
use tcpsim::{HostCtx, KnobSetting, SocketId, TcpSocket, Unit};

use crate::runlog::{Checkpoints, RunLog};

/// What one estimator update reads from a socket: its local queue
/// snapshots at `now`, the peer's latest exchange, and the smoothed RTT
/// that anchors the validator's delay bound (ignored with validation
/// disabled).
fn estimator_inputs(
    socket: &TcpSocket,
    now: Nanos,
    unit: Unit,
) -> (EndpointSnapshots, Option<WireExchange>, Option<Nanos>) {
    let snaps = socket.local_snapshots(now, unit);
    let local = EndpointSnapshots {
        unacked: snaps.unacked,
        unread: snaps.unread,
        ackdelay: snaps.ackdelay,
    };
    (local, socket.remote().unit(unit), socket.srtt())
}

/// Everything the estimator was fed at a recorder's last full step, plus
/// the three queue occupancies at that instant. While the socket's
/// [`estimator_stamp`](TcpSocket::estimator_stamp) stays put, no `TRACK`
/// ran, so each queue's integral grows at exactly its occupancy and the
/// inputs of any later tick follow from these without touching the
/// socket.
#[derive(Debug, Clone, Copy)]
struct Frozen {
    local: EndpointSnapshots,
    /// Occupancy of (unacked, unread, ackdelay) at `local`'s instant.
    sizes: [i64; 3],
    remote: Option<WireExchange>,
    srtt: Option<Nanos>,
}

impl Frozen {
    fn capture(socket: &TcpSocket, now: Nanos, unit: Unit) -> Self {
        let (local, remote, srtt) = estimator_inputs(socket, now, unit);
        let q = socket.queues();
        Frozen {
            local,
            sizes: [
                q.unacked.size(unit),
                q.unread.size(unit),
                q.ackdelay.size(unit),
            ],
            remote,
            srtt,
        }
    }

    /// The local snapshots a fresh read at `at` would return.
    fn local_at(&self, at: Nanos) -> EndpointSnapshots {
        EndpointSnapshots {
            unacked: self.local.unacked.advanced(self.sizes[0], at),
            unread: self.local.unread.advanced(self.sizes[1], at),
            ackdelay: self.local.ackdelay.advanced(self.sizes[2], at),
        }
    }
}

/// The part of a recorder that a tick over a static socket reads and
/// writes — kept together so that such a tick stays within a cache line
/// or two of the recorder.
#[derive(Debug, Clone, Default)]
struct Deferral {
    /// The socket last stepped against and its estimator stamp then.
    seen: Option<(SocketId, u64)>,
    /// Ticks since that step which found the stamp unchanged and have
    /// not been run through the estimator yet: one run, unless the tick
    /// period changed under them.
    pending: RunLog<()>,
    /// Ticks ever deferred.
    deferred: u64,
    /// Deferred ticks run through the estimator one by one; the rest of
    /// those flushed so far were applied in closed form.
    replayed: u64,
    /// When the estimator was last updated, stepped or skipped to.
    last_at: Nanos,
    /// The length of the local window that update closed, if the queues
    /// stood still across it: it was a deferred tick, not a full step.
    still: Option<Nanos>,
    /// Estimator updates, stepped ticks and replayed ones alike.
    updates: u64,
    /// Closed-form skips, each over one or more deferred ticks.
    skips: u64,
}

/// Per-unit estimate recording (no actuation).
///
/// What it keeps is its estimator, whose newest estimate is the
/// recorder's, and a checkpoint of the estimator's cumulative windows at
/// every tick that folded in a fresh exchange; a range query is Little's
/// law over the difference of two checkpoints (the paper's GETAVGS over
/// one long window).
///
/// Cost and memory follow the connection's *activity*, not the tick
/// count. A tick that finds the socket's
/// [`estimator_stamp`](TcpSocket::estimator_stamp) where the previous
/// tick left it only extends a pending run of deferred ticks; the next
/// tick that sees a change (or any query) first replays that run through
/// the unchanged [`E2eEstimator::update_validated`], with the inputs a
/// fresh read would have returned (see `Frozen`), so every estimate,
/// checkpoint and validator verdict is the one a tick-by-tick recorder
/// produces. Once a replayed tick has closed a window of the run's
/// spacing, every later one can only repeat it, so [`flush`](Self::flush)
/// applies the rest of the run in closed form
/// ([`E2eEstimator::skip_static`]): a quiet stretch costs one update,
/// replay cost follows the number of stretches, not their length, and
/// the checkpoints grow with the number of exchanges rather than with
/// elapsed time.
#[derive(Debug, Clone)]
pub struct EstimateRecorder {
    /// The message unit this recorder estimates in.
    pub unit: Unit,
    deferral: Deferral,
    estimator: E2eEstimator,
    /// Inputs of the last full step; `Some` whenever `deferral.seen` is.
    frozen: Option<Frozen>,
    /// Checkpoints of the estimator's cumulative (local, remote) windows,
    /// taken at ticks that folded in a fresh exchange. Range queries
    /// difference two checkpoints and evaluate the decomposition over the
    /// resulting long window, instead of averaging noisy per-tick delay
    /// ratios. Checkpointing at exchange ticks keeps both sides' sums
    /// aligned to the same exchange boundaries and self-scales the memory:
    /// at high per-connection load it is one entry per tick, at high
    /// fan-in one entry per (sparse) exchange. Packed: a checkpoint
    /// differs from the one before by a few exchanges' worth.
    cum_series: Checkpoints,
    /// `remote_epoch` at the last checkpoint.
    cum_epoch: u64,
}

impl EstimateRecorder {
    /// Creates a recorder for one unit.
    pub fn new(unit: Unit) -> Self {
        EstimateRecorder {
            unit,
            deferral: Deferral::default(),
            estimator: E2eEstimator::new(WireScale::default(), 1.0),
            frozen: None,
            cum_series: Checkpoints::default(),
            cum_epoch: 0,
        }
    }

    /// Bounds how long the estimator trusts a cached remote window (see
    /// [`E2eEstimator::with_staleness_bound`]).
    pub fn with_staleness_bound(mut self, bound: Nanos) -> Self {
        self.estimator = self.estimator.with_staleness_bound(bound);
        self
    }

    /// Validates every incoming exchange against locally observable
    /// signals before it can influence the estimate (see
    /// [`e2e_core::ExchangeValidator`]).
    pub fn with_validation(mut self, config: ValidateConfig) -> Self {
        self.estimator = self.estimator.with_validation(config);
        self
    }

    /// Validation counters, if validation is enabled.
    pub fn validation_stats(&self) -> Option<ValidateStats> {
        self.settled().estimator.validation_stats()
    }

    /// Runs one tick against `sock`: a full step if the socket moved since
    /// the last one, a deferred tick otherwise.
    // hot-path: every client, every tick
    pub fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        self.tick_socket(ctx.now(), sock, ctx.socket(sock));
    }

    /// [`Self::tick`] against a socket held outside a simulation
    /// (benchmarks and tests that drive a [`TcpSocket`] by hand).
    pub fn tick_socket(&mut self, now: Nanos, sock: SocketId, socket: &TcpSocket) {
        let stamp = socket.estimator_stamp();
        if self.deferral.seen == Some((sock, stamp)) {
            self.deferral.deferred += 1;
            self.deferral.pending.push(now, ());
            if cfg!(debug_assertions) {
                self.assert_static(now, socket);
            }
            return;
        }
        self.flush();
        let frozen = Frozen::capture(socket, now, self.unit);
        self.step(now, frozen.local, frozen.remote, frozen.srtt);
        self.frozen = Some(frozen);
        self.deferral.seen = Some((sock, stamp));
        self.deferral.still = None;
    }

    /// Books `count` ticks, `step` apart and the first at `first`, that
    /// were never run because nothing could have changed under them: the
    /// caller slept on the socket's estimator stamp (see
    /// [`HostCtx::call_on_change`]) from a tick of this recorder until
    /// after the last of them. Equal to `count` deferred
    /// [`tick`](Self::tick)s.
    pub fn tick_static(&mut self, first: Nanos, step: Nanos, count: u64) {
        self.deferral.deferred += count;
        self.deferral.pending.push_n(first, step, (), count);
    }

    /// The deferral precondition, checked rather than trusted: what a
    /// deferred tick will be replayed with must be what the socket
    /// returns right now. A mutation site that misses the stamp fails
    /// here, in every debug-assertion run of the integration suite.
    fn assert_static(&self, now: Nanos, socket: &TcpSocket) {
        #[expect(
            clippy::expect_used,
            reason = "the stretch began with a full step, which sets `frozen`"
        )]
        let frozen = self
            .frozen
            .expect("a tick is deferred only after a full step");
        let (local, remote, srtt) = estimator_inputs(socket, now, self.unit);
        assert_eq!(
            frozen.local_at(now),
            local,
            "queue moved under an unchanged stamp"
        );
        assert_eq!(
            frozen.remote, remote,
            "exchange arrived under an unchanged stamp"
        );
        assert_eq!(frozen.srtt, srtt, "SRTT moved under an unchanged stamp");
    }

    /// Accounts for every deferred tick, oldest first: through the
    /// estimator one by one, except where a stretch of them can only
    /// repeat the tick before.
    // hot-path: every tick that ends a static stretch
    pub fn flush(&mut self) {
        let pending = std::mem::take(&mut self.deferral.pending);
        if pending.is_empty() {
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "the stretch began with a full step, which sets `frozen`"
        )]
        let frozen = self
            .frozen
            .expect("a tick is deferred only after a full step");
        for run in pending.runs() {
            let mut k = 0;
            while k < run.count {
                let at = run.at(k);
                let gap = at - self.deferral.last_at;
                // The ticks from here on that continue this gap: the rest
                // of the run, unless the run's spacing starts after this
                // tick (its first tick, or a run of one).
                let n = if gap == run.step { run.count - k } else { 1 };
                // Debug builds only: `assert_skip`'s witness.
                let before = cfg!(debug_assertions).then(|| self.estimator.clone());
                // Every one of them that provably repeats the last update,
                // in closed form: all of them once that update closed a
                // window of `gap` over the frozen queues, or before any
                // remote window exists; fewer where the staleness bound
                // lapses.
                let skipped =
                    self.estimator
                        .skip_static(gap, n, frozen.remote, self.deferral.still, |t| {
                            frozen.local_at(t)
                        });
                if skipped > 0 {
                    if let Some(slow) = before {
                        self.assert_skip(slow, at, gap, skipped, &frozen);
                    }
                    self.deferral.skips += 1;
                    k += skipped;
                    self.deferral.last_at = at + gap * (skipped - 1);
                } else {
                    self.step(at, frozen.local_at(at), frozen.remote, frozen.srtt);
                    self.deferral.replayed += 1;
                    k += 1;
                }
                self.deferral.still = Some(gap);
            }
        }
    }

    /// The skip precondition, checked rather than trusted: `slow`, the
    /// estimator from before the skip, is stepped through the `skipped`
    /// ticks one at a time, the first at `first`, `gap` apart; it and the
    /// estimator that skipped must then be in the very same state.
    fn assert_skip(
        &self,
        mut slow: E2eEstimator,
        first: Nanos,
        gap: Nanos,
        skipped: u64,
        frozen: &Frozen,
    ) {
        for k in 0..skipped {
            let at = first + gap * k;
            slow.update_validated(at, frozen.local_at(at), frozen.remote, frozen.srtt);
        }
        assert_eq!(
            self.estimator, slow,
            "after a skip of {skipped} from {first}"
        );
    }

    /// One estimator update and its bookkeeping.
    fn step(
        &mut self,
        now: Nanos,
        local: EndpointSnapshots,
        remote: Option<WireExchange>,
        srtt: Option<Nanos>,
    ) {
        self.estimator.update_validated(now, local, remote, srtt);
        self.deferral.updates += 1;
        self.deferral.last_at = now;
        if self.estimator.remote_epoch() != self.cum_epoch {
            self.cum_epoch = self.estimator.remote_epoch();
            let (cl, cr) = self.estimator.cumulative_windows();
            self.cum_series.push((now, cl, cr));
        }
    }

    /// This recorder with no tick pending: itself, or a flushed copy.
    /// Queries take `&self`, and a copy is one packed column and a few
    /// fixed-size fields.
    fn settled(&self) -> Cow<'_, Self> {
        if self.deferral.pending.is_empty() {
            return Cow::Borrowed(self);
        }
        let mut copy = self.clone();
        copy.flush();
        Cow::Owned(copy)
    }

    /// The newest recorded estimate, every tick so far accounted for.
    pub fn latest(&mut self) -> Option<Estimate> {
        self.flush();
        self.estimator.last()
    }

    /// The estimator, as of the last [`flush`](Self::flush).
    pub fn estimator(&self) -> &E2eEstimator {
        &self.estimator
    }

    /// The cumulative-window checkpoints up to the last
    /// [`flush`](Self::flush): `(time, local, remote)` at every tick that
    /// folded in a fresh exchange, oldest first.
    pub fn checkpoints(
        &self,
    ) -> impl Iterator<Item = (Nanos, EndpointWindows, EndpointWindows)> + '_ {
        self.cum_series.iter()
    }

    /// Ticks that found the socket unchanged and were deferred.
    pub fn deferred_ticks(&self) -> u64 {
        self.deferral.deferred
    }

    /// Deferred ticks that [`flush`](Self::flush) ran through the
    /// estimator one by one; it applied the others in closed form.
    pub fn replayed_ticks(&self) -> u64 {
        self.deferral.replayed
    }

    /// Estimator updates so far: one per tick that found the socket
    /// moved, plus the [`replayed_ticks`](Self::replayed_ticks).
    pub fn estimator_updates(&self) -> u64 {
        self.deferral.updates
    }

    /// Closed-form skips [`flush`](Self::flush) applied so far, each over
    /// a stretch of deferred ticks.
    pub fn closed_form_skips(&self) -> u64 {
        self.deferral.skips
    }

    /// The cumulative-window difference across the checkpoints falling in
    /// `[from, to)`: one long (local, remote) window pair covering the
    /// range, or `None` when fewer than two checkpoints fall inside it.
    fn range_windows(&self, from: Nanos, to: Nanos) -> Option<(EndpointWindows, EndpointWindows)> {
        let mut inside = self
            .cum_series
            .iter()
            .filter(|(at, _, _)| *at >= from && *at < to);
        let first = inside.next()?;
        let last = inside.last()?;
        let near = last.1.since(&first.1);
        let far = last.2.since(&first.2);
        (!near.unacked.dt.is_zero()).then_some((near, far))
    }

    /// Mean estimated latency over `[from, to)`, or `None` when fewer than
    /// two exchange checkpoints fall inside it.
    ///
    /// Evaluated by differencing cumulative queue windows across the range
    /// and applying the §3.2 decomposition to the one long window —
    /// Little's law with integrals and departures summed *before*
    /// dividing. Averaging the per-tick estimates instead is biased at low
    /// per-connection load (high fan-in): item residences straddle tick
    /// windows, the per-window delay ratios swing by milliseconds, and
    /// taking the larger of two noisy views each tick rectifies that
    /// noise into a positive bias that once made the N = 64 fan-in
    /// estimate ~32× the measured latency. Over the long window both
    /// views are computed from hundreds of departures and the larger one
    /// is a faithful guard against underestimation, as in the paper.
    pub fn mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let (near, far) = self.settled().range_windows(from, to)?;
        let lv = combine_delays(&near, &far).latency();
        let rv = combine_delays(&far, &near).latency();
        Some(lv.max(rv))
    }

    /// Mean estimated throughput over `[from, to)`: departures over
    /// elapsed time from the range's cumulative window, or `None` when
    /// fewer than two exchange checkpoints fall inside it (see
    /// [`Self::mean_latency_in`]).
    pub fn mean_throughput_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let (near, _) = self.settled().range_windows(from, to)?;
        Some(near.unread.throughput())
    }
}

/// Hint-based estimate recording (server side of §3.3).
///
/// The log is run-length encoded: while no new hint arrives the
/// estimator returns its cached estimate, and a tick only extends the
/// newest run.
#[derive(Debug, Default)]
pub(crate) struct HintRecorder {
    estimator: HintEstimator,
    /// The hint-estimated latency (if defined) at every tick that had an
    /// estimate.
    log: RunLog<Option<Nanos>>,
}

impl HintRecorder {
    /// Creates a recorder.
    pub(crate) fn new() -> Self {
        HintRecorder {
            estimator: HintEstimator::new(WireScale::default()),
            log: RunLog::default(),
        }
    }

    /// Runs one tick against `sock`, consuming the latest forwarded hint.
    pub(crate) fn tick(&mut self, ctx: &HostCtx<'_>, sock: SocketId) {
        if let Some(hint) = ctx.socket(sock).remote().hint {
            if let Some(est) = self.estimator.update(hint) {
                self.log.push(ctx.now(), est.latency);
            }
        }
    }

    /// Sum and count of the defined hint-estimated latencies recorded in
    /// `[from, to)`, in nanoseconds.
    pub(crate) fn latency_sum_in(&self, from: Nanos, to: Nanos) -> (u64, u64) {
        let (mut sum, mut n) = (0u64, 0u64);
        for (latency, k) in self.log.counts_in(from, to) {
            if let Some(latency) = latency {
                sum += latency.as_nanos() * k;
                n += k;
            }
        }
        (sum, n)
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
    /// The limit applied at every deciding tick.
    limits: RunLog<u64>,
}

impl AimdDriver {
    /// Creates a driver estimating in `unit` with the given controller.
    pub(crate) fn new(unit: Unit, controller: AimdBatchLimit) -> Self {
        AimdDriver {
            recorder: EstimateRecorder::new(unit),
            controller,
            limits: RunLog::default(),
        }
    }

    /// Runs one tick: estimate, adapt the limit, actuate through the
    /// uniform knob path (`KnobSetting::CorkLimit`).
    pub(crate) fn tick(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.recorder.tick(ctx, sock);
        if let Some(estimate) = self.recorder.latest() {
            let limit = self.controller.update(&estimate);
            self.limits.push(ctx.now(), limit);
            ctx.apply(sock, KnobSetting::CorkLimit(limit));
        }
    }

    /// Mean limit over the recorded trajectory in `[from, to)`.
    pub(crate) fn mean_limit_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let (mut sum, mut n) = (0u64, 0u64);
        for (limit, k) in self.limits.counts_in(from, to) {
            sum += limit * k;
            n += k;
        }
        (n > 0).then(|| sum as f64 / n as f64)
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
    fn new(unit: Unit) -> Self {
        EstimateRecorder::new(unit)
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
    use e2e_core::combine::combine_delays;
    use littles::wire::{WireExchange, WireScale};
    use littles::{Nanos, Snapshot};
    use tcpsim::segment::{E2eOption, Flags, OptionSlot};
    use tcpsim::seq::SeqNum;
    use tcpsim::{Actions, FlowId, Segment, SocketId, TcpConfig, TcpSocket, TxEnv, Unit};

    use super::EstimateRecorder;
    use crate::harness::Harness;
    use crate::runner::{NagleSetting, RunConfig};
    use crate::tier::{ShardSetting, TierRunConfig};
    use crate::workload::WorkloadSpec;

    /// A bare segment carrying a peer's byte-unit exchange as of `now`:
    /// one departure every 10 µs, three bytes queued throughout.
    fn exchange_segment(now: Nanos) -> Segment {
        let t = now.as_nanos();
        let snap = Snapshot {
            time: now,
            total: t / 10_000,
            integral: u128::from(t) * 3,
        };
        let exchange = WireExchange::pack(&snap, &snap, &snap, WireScale::default());
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

    /// A range query is GETAVGS over the difference of the first and the
    /// last checkpoint in range. A range holding fewer than two has no
    /// answer, however many ticks in it estimated.
    #[test]
    fn a_range_answers_from_two_checkpoints_or_not_at_all() {
        let tick = |k: u64| Nanos::from_micros(500) * k;
        let mut actions = Actions::new();
        let mut sock =
            TcpSocket::client(FlowId(0), TcpConfig::default(), Nanos::ZERO, &mut actions);
        let mut rec = EstimateRecorder::new(Unit::Bytes);
        // Ticks 1–3 each find a fresh exchange, ticks 4–8 none.
        for k in 1..=8 {
            if k <= 3 {
                actions.clear();
                let seg = exchange_segment(tick(k));
                sock.on_segment(tick(k), &seg, TxEnv::default(), &mut actions);
            }
            rec.tick_socket(tick(k), SocketId(0), &sock);
        }
        let checkpoints: Vec<_> = rec.checkpoints().collect();
        assert_eq!(
            checkpoints.iter().map(|c| c.0).collect::<Vec<_>>(),
            [tick(2), tick(3)]
        );

        // One checkpoint in [tick 3, tick 9), and an estimate at each of
        // its six ticks.
        let (from, to) = (tick(3), tick(9));
        assert_eq!(rec.mean_latency_in(from, to), None);
        assert_eq!(rec.mean_throughput_in(from, to), None);

        // Two in [tick 2, tick 9): Little's law over their difference.
        let (from, to) = (tick(2), tick(9));
        let ((_, local0, remote0), (_, local1, remote1)) = (checkpoints[0], checkpoints[1]);
        let (near, far) = (local1.since(&local0), remote1.since(&remote0));
        let latency = combine_delays(&near, &far)
            .latency()
            .max(combine_delays(&far, &near).latency());
        assert!(!latency.is_zero());
        assert_eq!(rec.mean_latency_in(from, to), Some(latency));
        assert_eq!(
            rec.mean_throughput_in(from, to).map(f64::to_bits),
            Some(near.unread.throughput().to_bits())
        );
        assert_eq!(
            rec.latest().map(|e| e.at),
            Some(tick(8)),
            "every tick estimated"
        );
    }

    /// Every estimator the apps build smooths with α = 1, so each smoothed
    /// latency is its raw latency, bit for bit: a client's recorders and
    /// plane seat, the listener seat, and every proxy seat. Nothing here
    /// keeps per-tick smoothing state that a skipped tick could miss, and
    /// the readers that once took `smoothed_latency` (the hot-shard rank,
    /// the hedge delay) read `latency` for the same bits.
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
        let mut star = Harness::star(&star).run();
        for client in &mut star.world.clients {
            let seat = client.plane.as_mut().map(|p| &mut p.recorder);
            for rec in client.recorders.iter_mut().chain(seat) {
                let est = rec.latest().expect("a client recorder estimated");
                assert_eq!(est.smoothed_latency, est.latency);
            }
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
