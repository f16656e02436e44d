//! The Redis-like key-value server.
//!
//! Single application thread, epoll-style event loop: a readability wakeup
//! schedules one processing pass on the app CPU; the pass reads everything
//! available, executes every complete request, and writes the responses.
//! Under load, several requests are handled per wakeup — the
//! "adaptive batching" of requests that IX performs and the paper's
//! Figure 1 models (per-batch cost amortized over the batch).
//!
//! Like Redis, the server disables Nagle by default; experiments override
//! this through [`TcpConfig::nagle`](tcpsim::TcpConfig) on the accept
//! configuration, including the `Dynamic` mode driven by an attached
//! [`ListenerPlaneDriver`].

use std::collections::BTreeMap;

use littles::Nanos;
use simnet::Histogram;
use tcpsim::{App, HostCtx, SocketId, WakeReason};

use crate::cost::AppCosts;
use crate::driver::{HintRecorder, ListenerPlaneDriver};
use crate::kv::KvStore;
use crate::resp::{encode_response, Command, CommandParser};

const TOKEN_KIND_SHIFT: u32 = 32;
const KIND_PROCESS: u64 = 1;
const KIND_TICK: u64 = 2;
const KIND_FLUSH: u64 = 3;

fn token(kind: u64, sock: usize) -> u64 {
    (kind << TOKEN_KIND_SHIFT) | sock as u64
}

struct Conn {
    parser: CommandParser,
    call_pending: bool,
    /// Responses (or response tails) awaiting send-buffer space.
    out_backlog: std::collections::VecDeque<Vec<u8>>,
    flush_pending: bool,
}

impl Conn {
    fn new() -> Self {
        Conn {
            parser: CommandParser::new(),
            call_pending: false,
            out_backlog: std::collections::VecDeque::new(),
            flush_pending: false,
        }
    }
}

/// Per-run server statistics.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// Requests executed.
    pub requests: u64,
    /// Processing passes (app wakeup batches).
    pub batches: u64,
    /// Largest number of requests handled in one pass.
    pub max_batch: u64,
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
    pub batch_hist: Histogram,
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
            Conn::new()
        })
    }

    /// Writes a response, stashing whatever the send buffer rejects so
    /// the byte stream stays intact under backpressure (flushed on
    /// `Writable`).
    fn send_or_backlog(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, wire: Vec<u8>) {
        let conn = self.conn(sock);
        if conn.out_backlog.is_empty() {
            let sent = ctx.send(sock, &wire);
            if sent < wire.len() {
                let conn = self.conns.get_mut(&sock.0).expect("conn");
                conn.out_backlog.push_back(wire[sent..].to_vec());
            }
        } else {
            conn.out_backlog.push_back(wire);
        }
    }

    /// Drains the write backlog as far as the send buffer allows.
    fn flush(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        let conn = self.conn(sock);
        conn.flush_pending = false;
        while let Some(front) = self
            .conns
            .get_mut(&sock.0)
            .expect("conn")
            .out_backlog
            .front_mut()
        {
            let sent = ctx.send(sock, front);
            let done = sent == front.len();
            let conn = self.conns.get_mut(&sock.0).expect("conn");
            let front = conn.out_backlog.front_mut().expect("non-empty");
            if !done {
                front.drain(..sent);
                break;
            }
            conn.out_backlog.pop_front();
        }
    }

    fn process(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        let conn = self.conn(sock);
        conn.call_pending = false;
        let (data, _msgs) = ctx.recv(sock, usize::MAX);
        let conn = self.conns.get_mut(&sock.0).expect("just inserted");
        conn.parser.feed(&data);

        let mut batch = 0u64;
        while let Some(cmd) = self.conns.get_mut(&sock.0).expect("conn").parser.next_command() {
            let payload = match &cmd {
                Command::Set { key, value, .. } => key.len() + value.len(),
                Command::Get { key, .. } => key.len(),
            };
            ctx.charge_app(self.costs.server_request(payload));
            let resp = self.kv.execute(cmd);
            let wire = encode_response(&resp);
            self.send_or_backlog(ctx, sock, wire);
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
            WakeReason::Accepted => {
                *self.conn(sock) = Conn::new();
            }
            WakeReason::Readable => {
                let conn = self.conn(sock);
                if !conn.call_pending {
                    conn.call_pending = true;
                    ctx.wake_app_thread(token(KIND_PROCESS, sock.0));
                }
            }
            WakeReason::Writable => {
                let conn = self.conn(sock);
                if !conn.out_backlog.is_empty() && !conn.flush_pending {
                    conn.flush_pending = true;
                    let at = ctx.app_free_at();
                    ctx.call_at(at, token(KIND_FLUSH, sock.0));
                }
            }
            _ => {}
        }
    }

    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        let kind = tok >> TOKEN_KIND_SHIFT;
        let sock = SocketId((tok & 0xFFFF_FFFF) as usize);
        match kind {
            KIND_PROCESS => self.process(ctx, sock),
            KIND_FLUSH => self.flush(ctx, sock),
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
