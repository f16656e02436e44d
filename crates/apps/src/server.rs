//! The Redis-like key-value server.
//!
//! Single application thread, epoll-style event loop: a readability wakeup
//! schedules one processing pass on the app CPU; the pass reads everything
//! available, executes every complete request, and writes the responses.
//! Under load, several requests are handled per wakeup — the
//! "adaptive batching" of requests that IX performs and the paper's
//! Figure 1 models (per-batch cost amortized over the batch).
//!
//! Each accepted socket gets one connection seat (`conn::Conn`: wake
//! latches, command parser, response backlog, and the hint recorder when
//! hints are recorded), held in a `Vec` indexed by socket id: ids are
//! dense on a host, so finding a seat is one index, and the plane's tick
//! visits the seats in ascending socket order by walking it.
//!
//! A processing pass also folds the connection's latest forwarded hint
//! into its recorder (paper §3.3), so hint recording needs no tick: the
//! server runs a tick only for an attached [`ListenerPlaneDriver`].
//!
//! Like Redis, the server disables Nagle by default; experiments override
//! this through [`TcpConfig::nagle`](tcpsim::TcpConfig) on the accept
//! configuration, including the `Dynamic` mode driven by the plane.

use littles::wire::WireScale;
use littles::Nanos;
use tcpsim::{App, HostCtx, SocketId, WakeReason};

use crate::conn::{token, untoken, Conn};
use crate::cost::AppCosts;
use crate::driver::{HintRecorder, ListenerPlaneDriver};
use crate::kv::KvStore;
use crate::resp::encode_response;

// Token kinds; the index is the socket.
const KIND_PROCESS: u64 = 1;
const KIND_TICK: u64 = 2;
const KIND_FLUSH: u64 = 3;

/// The cadence of the plane's tick, and the least spacing of a hint
/// recorder's checkpoints.
const TICK_PERIOD: Nanos = Nanos::from_micros(500);

/// Per-run server statistics.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Requests executed.
    pub requests: u64,
}

/// What the server keeps per connection.
struct Seat {
    conn: Conn,
    /// Hint-based estimate recording (paper §3.3), when enabled via
    /// [`with_hint_recorder`](RedisServer::with_hint_recorder).
    hints: Option<HintRecorder>,
}

/// The Redis-like server application.
pub struct RedisServer {
    costs: AppCosts,
    kv: KvStore,
    /// Per-connection state, indexed by socket id; `None` for an id this
    /// server has not seen. Only grows: a reset connection keeps its seat
    /// and its socket.
    seats: Vec<Option<Seat>>,
    /// Aggregate statistics.
    pub stats: ServerStats,
    /// Optional listener-wide control plane: one aggregate decision per
    /// tick, every knob it controls applied to every connection.
    pub plane: Option<ListenerPlaneDriver>,
    hints_enabled: bool,
}

impl RedisServer {
    /// Creates a server with the given application costs.
    pub fn new(costs: AppCosts) -> Self {
        RedisServer {
            costs,
            kv: KvStore::new(),
            seats: Vec::new(),
            stats: ServerStats::default(),
            plane: None,
            hints_enabled: false,
        }
    }

    /// Attaches a listener-wide control plane (requires the
    /// accept configuration to use [`NagleMode::Dynamic`](tcpsim::NagleMode)).
    pub fn with_plane(mut self, plane: ListenerPlaneDriver) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Enables hint-based estimation recording (one recorder per
    /// connection, created on accept).
    pub fn with_hint_recorder(mut self) -> Self {
        self.hints_enabled = true;
        self
    }

    /// The store (for inspection).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Mean hint-estimated latency pooled over every connection's
    /// recorder in `[from, to)`: Little's law over the departures and the
    /// integral each recorder summed between its first and last
    /// checkpoint in the range, or `None` when no departure was summed.
    pub fn hint_mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let (mut departures, mut integral) = (0u64, 0u64);
        for r in self.seats.iter().flatten().filter_map(|s| s.hints.as_ref()) {
            let (d, i) = r.sums_in(from, to);
            departures += d;
            integral += i;
        }
        let item_ns = u128::from(integral) << WireScale::default().integral_shift;
        (departures > 0).then(|| Nanos::from_nanos((item_ns / u128::from(departures)) as u64))
    }

    /// The seat of connection `sock`, created on first use.
    fn seat(&mut self, sock: SocketId) -> &mut Seat {
        if sock.0 >= self.seats.len() {
            self.seats.resize_with(sock.0 + 1, || None);
        }
        let hints = self.hints_enabled;
        self.seats[sock.0].get_or_insert_with(|| Seat {
            conn: Conn::default(),
            hints: hints.then(HintRecorder::default),
        })
    }

    /// The state of connection `sock`, created on first use.
    fn conn(&mut self, sock: SocketId) -> &mut Conn {
        &mut self.seat(sock).conn
    }

    fn process(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        let seat = self.seat(sock);
        seat.conn.read(ctx, Some(sock));
        if let (Some(rec), Some(hint)) = (&mut seat.hints, ctx.socket(sock).remote().hint) {
            rec.fold(ctx.now(), hint, TICK_PERIOD);
        }
        let mut batch = 0u64;
        while let Some(cmd) = self.conn(sock).parser.next_command() {
            ctx.charge_app(self.costs.server_request(cmd.payload_len()));
            let wire = encode_response(&self.kv.execute(cmd));
            self.conn(sock).send(ctx, sock, wire, None);
            batch += 1;
        }
        if batch > 0 {
            // The per-pass cost β (charged once, amortized over the batch).
            ctx.charge_app(self.costs.server_batch_base);
            self.stats.requests += batch;
        }
    }
}

impl App for RedisServer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if self.plane.is_some() {
            ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => *self.conn(sock) = Conn::default(),
            WakeReason::Readable => self
                .conn(sock)
                .on_readable(ctx, token(KIND_PROCESS, sock.0)),
            WakeReason::Writable => self.conn(sock).on_writable(ctx, token(KIND_FLUSH, sock.0)),
            _ => {}
        }
    }

    #[expect(
        clippy::panic,
        reason = "tokens are minted by this server; any other is a bug"
    )]
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        let (kind, idx) = untoken(tok);
        let sock = SocketId(idx);
        match kind {
            KIND_PROCESS => self.process(ctx, sock),
            KIND_FLUSH => self.conn(sock).flush(ctx, Some(sock)),
            KIND_TICK => {
                if let Some(plane) = self.plane.as_mut() {
                    // One listener-wide decision over the aggregate, not
                    // one per connection; ascending socket order keeps it
                    // deterministic however many connections fan in.
                    let socks = self.seats.iter().enumerate().filter(|(_, s)| s.is_some());
                    plane.tick(ctx, socks.map(|(i, _)| SocketId(i)));
                    ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
                }
            }
            other => panic!("unknown server token kind {other}"),
        }
    }
}
