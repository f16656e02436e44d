//! The Lancet-like open-loop load generator.
//!
//! Requests arrive by a Poisson process at the offered rate, independent
//! of completions (open loop — the latency explosion near saturation is
//! visible, unlike closed-loop generators that self-throttle). Each
//! request's latency is measured from its arrival (generation) time to the
//! moment the client application *finishes processing* its response,
//! matching the end-to-end definition of the paper's Figure 1.
//!
//! The socket side — wake latches, response parser, write backlog, reset
//! teardown — is the shared connection seat (`conn::Conn`); what is the
//! client's own is the `pending` FIFO that pairs responses with arrival
//! times. The client also runs the measurement machinery under study:
//!
//! * a [`RequestTracker`] (`create`/`complete`) — the application-level
//!   ground truth, optionally forwarded to the server as hints;
//! * per-unit [`EstimateRecorder`]s — the Little's-law estimates of §3.2
//!   over the measurement window (the "estimated" curves of Figure 4); the
//!   harness builds a byte and a message recorder, since packets are not
//!   counted;
//! * optionally a [`PlaneDriver`] steering Nagle (and, when attached,
//!   delayed ACKs and the cork limit) dynamically, or an `AimdDriver`.
//!
//! The recorders and seats run off one tick per `tick_period`; a client
//! that holds none of them runs no tick chain at all. A client whose only
//! seats are plain recorders that do not validate, in a run whose faults
//! reset no connection, changes nothing at a tick that sees no new share
//! from the peer: every tick parks the chain until the peer's next share
//! arrives ([`HostCtx::call_on_change`]) instead of re-arming it (DESIGN.md
//! §11, "Exchange-armed ticks"). The tracker is read by whoever needs it:
//! the harness snapshots it at the edges of the measurement window.

use std::collections::VecDeque;

use e2e_core::RequestTracker;
use littles::Nanos;
use simnet::{Histogram, Pcg32};
use tcpsim::{App, HostCtx, SocketId, TcpConfig, WakeReason};

use crate::conn::{token, Conn};
use crate::cost::AppCosts;
use crate::driver::{AimdDriver, EstimateRecorder, PlaneDriver};
use crate::resp::{encode_get, encode_set_with};
use crate::workload::{key_bytes, WorkloadSpec};

// Continuation tokens: one connection, so a kind needs no index.
const ARRIVAL: u64 = token(1, 0);
const PROCESS: u64 = token(2, 0);
const TICK: u64 = token(3, 0);
const FLUSH: u64 = token(4, 0);
const RECONNECT: u64 = token(5, 0);

/// Delay between a `Reset` wake and the reconnect attempt.
const RECONNECT_BACKOFF: Nanos = Nanos::from_millis(1);

/// A skewed key-selection pool: draws from a small *hot* set of key
/// indices with probability `hot_fraction`, from the *cold* remainder
/// otherwise. Used by the sharded-proxy experiments to concentrate load
/// on the shard owning the hot keys; the plain round-robin key walk stays
/// the default everywhere else.
///
/// Draws come from the pool's own RNG (forked from the `"shard.skew"`
/// named stream at the experiment level) so adding skew never perturbs
/// the client's arrival/value RNG sequence.
#[derive(Debug)]
pub struct KeyPool {
    hot: Vec<u64>,
    cold: Vec<u64>,
    hot_fraction: f64,
    rng: Pcg32,
}

impl KeyPool {
    /// Creates a pool over the given hot/cold key-index sets.
    ///
    /// # Panics
    ///
    /// Panics when either set is empty or `hot_fraction` is not in (0, 1).
    pub fn new(hot: Vec<u64>, cold: Vec<u64>, hot_fraction: f64, rng: Pcg32) -> Self {
        assert!(
            !hot.is_empty() && !cold.is_empty(),
            "both pools must be non-empty"
        );
        assert!(
            hot_fraction > 0.0 && hot_fraction < 1.0,
            "hot_fraction must be in (0, 1)"
        );
        KeyPool {
            hot,
            cold,
            hot_fraction,
            rng,
        }
    }

    fn draw(&mut self) -> u64 {
        let (pool, r) = if self.rng.next_f64() < self.hot_fraction {
            (&self.hot, self.rng.next_u64())
        } else {
            (&self.cold, self.rng.next_u64())
        };
        pool[(r % pool.len() as u64) as usize]
    }
}

/// The load-generator application.
pub struct LancetClient {
    spec: WorkloadSpec,
    costs: AppCosts,
    config: TcpConfig,
    warmup_end: Nanos,
    measure_end: Nanos,
    tick_period: Nanos,
    use_hints: bool,

    /// The connection (after `Connected`; `None` during a crash outage).
    pub sock: Option<SocketId>,
    /// Whether the arrival/tick chains have been started (exactly once, on
    /// the first `Connected` — a reconnect must not duplicate them).
    started: bool,
    /// Ticks dispatched as events.
    pub ticks_run: u64,
    /// Number of `Reset` wakes observed (crash/restart fault injections).
    pub restarts_seen: u64,
    /// Parser, wake latches and write backlog of the current connection.
    conn: Conn,
    /// In-flight requests: (arrival time, is_set), FIFO (RESP responses
    /// arrive in order).
    pending: VecDeque<(Nanos, bool)>,
    key_counter: u64,
    key_pool: Option<KeyPool>,

    /// Measured latency over the measurement window.
    pub hist: Histogram,
    /// Application-level request tracker (ground truth / hints source).
    pub(crate) tracker: RequestTracker,
    /// Little's-law estimate recorders (one per unit under study).
    pub recorders: Vec<EstimateRecorder>,
    /// Optional §5 AIMD batch-limit policy. Boxed, like `plane`: few runs
    /// fill these seats, and held inline they would make every client
    /// 4 560 B, not 800.
    pub(crate) aimd: Option<Box<AimdDriver>>,
    /// Optional control plane: dynamic Nagle, plus whichever further
    /// knobs it has attached.
    pub plane: Option<Box<PlaneDriver>>,

    /// Requests issued.
    pub sent: u64,
    /// Responses fully processed.
    pub completed: u64,
    /// Responses (for requests issued inside the window) fully processed.
    pub completed_in_window: u64,
}

impl LancetClient {
    /// Creates a load generator.
    pub fn new(
        spec: WorkloadSpec,
        costs: AppCosts,
        config: TcpConfig,
        warmup_end: Nanos,
        measure_end: Nanos,
    ) -> Self {
        assert!(warmup_end < measure_end, "warmup must precede measurement");
        LancetClient {
            spec,
            costs,
            config,
            warmup_end,
            measure_end,
            tick_period: Nanos::from_micros(500),
            use_hints: false,
            sock: None,
            started: false,
            ticks_run: 0,
            restarts_seen: 0,
            conn: Conn::default(),
            pending: VecDeque::new(),
            key_counter: 0,
            key_pool: None,
            hist: Histogram::new(),
            tracker: RequestTracker::new(Nanos::ZERO),
            recorders: Vec::new(),
            aimd: None,
            plane: None,
            sent: 0,
            completed: 0,
            completed_in_window: 0,
        }
    }

    /// Forwards the tracker's queue state to the server as hints (§3.3).
    pub fn with_hints(mut self) -> Self {
        self.use_hints = true;
        self
    }

    /// Overrides the estimator/policy tick cadence (default 500 µs).
    /// Long-horizon tests coarsen this so simulating hours of virtual
    /// time stays cheap; figure experiments keep the default.
    pub fn with_tick_period(mut self, period: Nanos) -> Self {
        assert!(!period.is_zero(), "tick period must be positive");
        self.tick_period = period;
        self
    }

    /// Replaces the round-robin key walk with skewed draws from a
    /// [`KeyPool`] (the sharded-proxy hot-shard workload).
    pub fn with_key_pool(mut self, pool: KeyPool) -> Self {
        self.key_pool = Some(pool);
        self
    }

    /// Adds a Little's-law estimate recorder for a unit, answering for
    /// this client's measurement window.
    pub fn with_recorder(mut self, recorder: EstimateRecorder) -> Self {
        self.recorders
            .push(recorder.with_window(self.warmup_end, self.measure_end));
        self
    }

    /// Attaches a §5 AIMD batch-limit policy (used with `NagleMode::Off`;
    /// the limit gate replaces Nagle).
    pub(crate) fn with_aimd(mut self, aimd: AimdDriver) -> Self {
        self.aimd = Some(Box::new(aimd));
        self
    }

    /// Attaches a control plane (requires `NagleMode::Dynamic` so the
    /// plane's Nagle decisions take effect).
    pub fn with_plane(mut self, plane: PlaneDriver) -> Self {
        self.plane = Some(Box::new(plane));
        self
    }

    /// Achieved goodput over the measurement window, responses/second.
    pub fn achieved_rps(&self) -> f64 {
        let window = self.measure_end - self.warmup_end;
        self.completed_in_window as f64 / window.as_secs_f64()
    }

    /// Whether the client holds anything a tick runs: a recorder, a
    /// plane seat or an AIMD seat.
    fn ticks(&self) -> bool {
        !self.recorders.is_empty() || self.aimd.is_some() || self.plane.is_some()
    }

    fn next_wire(&mut self, ctx: &mut HostCtx<'_>) -> (Vec<u8>, bool) {
        let is_set = self.spec.set_ratio >= 1.0 || ctx.rng.next_f64() < self.spec.set_ratio;
        let key_idx = match self.key_pool.as_mut() {
            Some(pool) => pool.draw(),
            None => self.key_counter % self.spec.key_space as u64,
        };
        self.key_counter += 1;
        let key = key_bytes(key_idx);
        debug_assert_eq!(key.len(), self.spec.key_size);
        if is_set {
            // The value is written once, into the request's own buffer.
            // Cheap deterministic fill (contents are irrelevant, but
            // non-constant data keeps accidental compression-like
            // shortcuts impossible).
            let wire = encode_set_with(&key, self.spec.value_size, |value| {
                let n = 8.min(value.len());
                ctx.rng.fill_bytes(&mut value[..n]);
            });
            (wire, true)
        } else {
            (encode_get(&key), false)
        }
    }

    fn arrival(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let Some(sock) = self.sock else {
            // Crashed: the open-loop arrival process keeps running, but
            // requests during the outage are lost (not queued) — the
            // restarted process has no memory of them.
            let gap = ctx.rng.exp_duration(self.spec.mean_interarrival());
            ctx.call_after(gap, ARRIVAL);
            return;
        };
        let (wire, is_set) = self.next_wire(ctx);
        self.tracker.create(now, 1);
        ctx.charge_app(self.costs.client_request(wire.len()));
        let hint = self.use_hints.then(|| self.tracker.snapshot(now));
        self.conn.send(ctx, sock, wire, hint);
        self.pending.push_back((now, is_set));
        self.sent += 1;
        // Self-perpetuating Poisson arrivals.
        let gap = ctx.rng.exp_duration(self.spec.mean_interarrival());
        ctx.call_after(gap, ARRIVAL);
    }

    fn process(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        if !self.conn.read(ctx, self.sock) {
            return; // crashed between the wake and this call
        }
        while let Some(resp) = self.conn.parser.next_response() {
            let done = ctx.charge_app(self.costs.client_response(resp.payload_len()));
            #[expect(
                clippy::expect_used,
                reason = "TCP delivers responses in order, one per pending request"
            )]
            let (sent_at, _is_set) = self
                .pending
                .pop_front()
                .expect("response without a pending request");
            self.completed += 1;
            self.tracker.complete(now, 1);
            if sent_at >= self.warmup_end && sent_at < self.measure_end {
                self.hist.record(done.saturating_sub(sent_at));
                self.completed_in_window += 1;
            }
        }
    }

    // hot-path: every ticking client, every tick it cannot sleep through
    fn tick(&mut self, ctx: &mut HostCtx<'_>) {
        let period = self.tick_period;
        self.ticks_run += 1;
        let Some(sock) = self.sock else {
            // Crashed: tick on through the outage.
            ctx.call_after(period, TICK);
            return;
        };
        for rec in &mut self.recorders {
            rec.tick(ctx, sock);
        }
        if let Some(aimd) = self.aimd.as_mut() {
            aimd.tick(ctx, sock);
        }
        if let Some(plane) = self.plane.as_mut() {
            plane.tick(ctx, sock);
        }
        // A control seat decides every tick, and a validator judges every
        // tick; plain recorders alone can sleep until the peer shares
        // again. Not where a reset can end the connection: a plain
        // recorder's local sums run to the last tick before the reset, and
        // a sleeping chain would not have taken that tick.
        let quiet = self.aimd.is_none()
            && self.plane.is_none()
            && !self
                .recorders
                .iter()
                .any(EstimateRecorder::ticks_every_period)
            && !ctx.faults_reset_connections();
        if quiet {
            ctx.call_on_change(sock, period, TICK);
        } else {
            ctx.call_after(period, TICK);
        }
    }
}

impl App for LancetClient {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // `sock` is assigned on `Connected` (same path as a reconnect);
        // nothing runs on this socket before that wake.
        ctx.connect(self.config);
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Connected => {
                self.sock = Some(sock);
                if !self.started {
                    self.started = true;
                    let gap = ctx.rng.exp_duration(self.spec.mean_interarrival());
                    ctx.call_after(gap, ARRIVAL);
                    if self.ticks() {
                        ctx.call_after(self.tick_period, TICK);
                    }
                }
            }
            WakeReason::Readable => self.conn.on_readable(ctx, PROCESS),
            WakeReason::Writable => self.conn.on_writable(ctx, FLUSH),
            WakeReason::Accepted => {}
            WakeReason::Reset => {
                // The process crashed: every pending request's response is
                // lost with the connection. Complete them in the tracker
                // (conservation — the restarted process will never see
                // them) without recording latencies, forget all parse and
                // backlog state, and reconnect after a short backoff. The
                // arrival and tick chains keep running through the outage.
                let now = ctx.now();
                self.restarts_seen += 1;
                let lost = self.pending.len() as u32;
                if lost > 0 {
                    self.tracker.complete(now, lost);
                }
                self.pending.clear();
                self.conn = Conn::default();
                self.sock = None;
                ctx.call_after(RECONNECT_BACKOFF, RECONNECT);
            }
        }
    }

    #[expect(
        clippy::panic,
        reason = "tokens are minted by this client; any other is a bug"
    )]
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        match tok {
            ARRIVAL => self.arrival(ctx),
            PROCESS => self.process(ctx),
            TICK => self.tick(ctx),
            FLUSH => self.conn.flush(ctx, self.sock),
            RECONNECT => {
                if self.sock.is_none() {
                    ctx.connect(self.config);
                }
            }
            other => panic!("unknown client token {other:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    /// A run of N clients holds N of these: the seats only plane and
    /// AIMD runs fill stay out of line.
    #[test]
    fn a_client_is_800_bytes() {
        let size = size_of::<super::LancetClient>();
        assert!(size <= 800, "{size}");
    }
}
