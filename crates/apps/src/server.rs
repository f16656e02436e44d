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
//! latches, command parser, response backlog); the server's own state is
//! the store and `socks`, the ascending order its tick visits them in.
//!
//! Like Redis, the server disables Nagle by default; experiments override
//! this through [`TcpConfig::nagle`](tcpsim::TcpConfig) on the accept
//! configuration, including the `Dynamic` mode driven by an attached
//! [`ListenerPlaneDriver`].

use std::collections::BTreeMap;

use littles::Nanos;
use simnet::Histogram;
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

/// Per-run server statistics.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Requests executed.
    pub requests: u64,
    /// Processing passes (app wakeup batches).
    pub(crate) batches: u64,
    /// Largest number of requests handled in one pass.
    pub(crate) max_batch: u64,
}

/// The Redis-like server application.
pub struct RedisServer {
    costs: AppCosts,
    kv: KvStore,
    /// Connection state, keyed by socket id.
    conns: BTreeMap<usize, Conn>,
    /// The keys of `conns` in ascending order — the order the tick path
    /// visits connections, whatever order they were accepted in. Kept
    /// alongside the map so a tick does not rebuild it; like the map it
    /// only grows (a reset connection keeps its entry and its socket).
    socks: Vec<SocketId>,
    /// Request-batch size distribution (requests per processing pass).
    pub(crate) batch_hist: Histogram,
    /// Aggregate statistics.
    pub stats: ServerStats,
    /// Optional listener-wide control plane: one aggregate decision per
    /// tick, every knob it controls applied to every connection.
    pub plane: Option<ListenerPlaneDriver>,
    /// Per-connection hint-based estimate recording (paper §3.3), when
    /// enabled via [`with_hint_recorder`](RedisServer::with_hint_recorder):
    /// one recorder per entry of `socks`, at the same index.
    hint_recorders: Vec<HintRecorder>,
    hints_enabled: bool,
    tick_period: Nanos,
}

impl RedisServer {
    /// Creates a server with the given application costs.
    pub fn new(costs: AppCosts) -> Self {
        RedisServer {
            costs,
            kv: KvStore::new(),
            conns: BTreeMap::new(),
            socks: Vec::new(),
            batch_hist: Histogram::new(),
            stats: ServerStats::default(),
            plane: None,
            hint_recorders: Vec::new(),
            hints_enabled: false,
            tick_period: Nanos::from_micros(500),
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
        for r in &self.hint_recorders {
            let (s, k) = r.latency_sum_in(from, to);
            sum += s;
            n += k;
        }
        (n > 0).then(|| Nanos::from_nanos(sum / n))
    }

    /// The state of connection `sock`, created (and entered into the
    /// tick order) on first use.
    fn conn(&mut self, sock: SocketId) -> &mut Conn {
        self.conns.entry(sock.0).or_insert_with(|| {
            let at = self.socks.binary_search(&sock).unwrap_or_else(|at| at);
            self.socks.insert(at, sock);
            if self.hints_enabled {
                self.hint_recorders.insert(at, HintRecorder::new());
            }
            Conn::default()
        })
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
            self.stats.batches += 1;
            self.stats.max_batch = self.stats.max_batch.max(batch);
            self.batch_hist.record(Nanos::from_nanos(batch));
        }
    }
}

impl App for RedisServer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if self.plane.is_some() || self.hints_enabled {
            ctx.call_after(self.tick_period, token(KIND_TICK, 0));
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
                for (rec, &s) in self.hint_recorders.iter_mut().zip(&self.socks) {
                    rec.tick(ctx, s);
                }
                if let Some(plane) = self.plane.as_mut() {
                    // One listener-wide decision over the aggregate, not
                    // one per connection.
                    plane.tick(ctx, &self.socks);
                }
                ctx.call_after(self.tick_period, token(KIND_TICK, 0));
            }
            other => panic!("unknown server token kind {other}"),
        }
    }
}
