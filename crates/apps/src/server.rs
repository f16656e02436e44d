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
//! dense on a host, so finding a seat is one index, and the tick visits
//! the seats in ascending socket order by walking it.
//!
//! Like Redis, the server disables Nagle by default; experiments override
//! this through [`TcpConfig::nagle`](tcpsim::TcpConfig) on the accept
//! configuration, including the `Dynamic` mode driven by an attached
//! [`ListenerPlaneDriver`].

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

/// The cadence of the tick that drives the plane and the hint recorders.
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
    /// recorder in `[from, to)`.
    pub fn hint_mean_latency_in(&self, from: Nanos, to: Nanos) -> Option<Nanos> {
        let (mut sum, mut n) = (0u64, 0u64);
        for r in self.seats.iter().flatten().filter_map(|s| s.hints.as_ref()) {
            let (s, k) = r.latency_sum_in(from, to);
            sum += s;
            n += k;
        }
        (n > 0).then(|| Nanos::from_nanos(sum / n))
    }

    /// The state of connection `sock`, created on first use.
    fn conn(&mut self, sock: SocketId) -> &mut Conn {
        if sock.0 >= self.seats.len() {
            self.seats.resize_with(sock.0 + 1, || None);
        }
        let hints = self.hints_enabled;
        let seat = self.seats[sock.0].get_or_insert_with(|| Seat {
            conn: Conn::default(),
            hints: hints.then(HintRecorder::new),
        });
        &mut seat.conn
    }

    fn process(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.conn(sock).read(ctx, Some(sock));
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
        if self.plane.is_some() || self.hints_enabled {
            ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        match reason {
            WakeReason::Accepted => *self.conn(sock) = Conn::default(),
            WakeReason::Readable => self.conn(sock).on_readable(ctx, token(KIND_PROCESS, sock.0)),
            WakeReason::Writable => self.conn(sock).on_writable(ctx, token(KIND_FLUSH, sock.0)),
            _ => {}
        }
    }

    #[expect(clippy::panic, reason = "tokens are minted by this server; any other is a bug")]
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        let (kind, idx) = untoken(tok);
        let sock = SocketId(idx);
        match kind {
            KIND_PROCESS => self.process(ctx, sock),
            KIND_FLUSH => self.conn(sock).flush(ctx, Some(sock)),
            KIND_TICK => {
                // Ascending socket order keeps the tick path
                // deterministic however many connections fan in.
                for (i, seat) in self.seats.iter_mut().enumerate() {
                    if let Some(rec) = seat.as_mut().and_then(|s| s.hints.as_mut()) {
                        rec.tick(ctx, SocketId(i));
                    }
                }
                if let Some(plane) = self.plane.as_mut() {
                    // One listener-wide decision over the aggregate, not
                    // one per connection.
                    let socks = self.seats.iter().enumerate().filter(|(_, s)| s.is_some());
                    plane.tick(ctx, socks.map(|(i, _)| SocketId(i)));
                }
                ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
            }
            other => panic!("unknown server token kind {other}"),
        }
    }
}
