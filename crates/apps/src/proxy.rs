//! The sharding proxy: the middle tier of the two-tier topology.
//!
//! A [`ProxyApp`] terminates every client TCP connection, parses RESP
//! commands, routes each by key over a consistent-hash [`ShardRouter`] to
//! one of K upstream shard connections (opened through the same simulated
//! stack with [`HostCtx::connect_to`]), and relays responses back to the
//! requesting client in FIFO order per shard — exactly the structure of a
//! Redis Cluster proxy or a memcached router like mcrouter.
//!
//! Both kinds of connection sit on the shared seat (`conn::Conn`): one
//! per client socket, and one inside each upstream beside what only an
//! upstream has — the `waiting` FIFO that pairs responses with requests
//! and the reconnect ladder.
//!
//! Because both legs are real [`tcpsim`] connections, every batching
//! mechanism under study runs twice per request, and the proxy is the
//! natural seat for the paper's estimation machinery: it sees the
//! client→proxy leg as an acceptor and the proxy→shard leg as an
//! initiator, composes the two per shard (see [`e2e_core::compose`]), and
//! can batch each upstream independently via a per-shard control plane
//! ([`ProxyDriver`]).
//!
//! With a [`Resilience`] configuration attached, the proxy also survives
//! shard failure: every request is tagged with an id and tracked in a
//! pending table, attempts carry per-request deadlines, expired attempts
//! are retried under a token budget with backoff ([`RetryPolicy`]), late
//! attempts are hedged to the key's failover replica when the composed
//! estimate's P99 view says they should have finished, and a per-upstream
//! [`UpstreamBreaker`] — fed jointly by timeouts, resets, and composed
//! estimate confidence — redirects new traffic away from a dead shard.
//! Upstream connections that reset are torn down cleanly (in-flight
//! requests failed or retried, never mis-paired) and re-dialed with
//! backoff. Without a `Resilience` config the proxy is the naive build:
//! a reset upstream is simply forgotten and its requests are lost.

use std::collections::{BTreeMap, VecDeque};

use batchpolicy::{AttemptKind, BreakerConfig, RetryConfig, RetryPolicy, UpstreamBreaker};
use littles::Nanos;
use simnet::{Histogram, Pcg32, Stream};
use tcpsim::{App, HostCtx, HostId, SocketId, TcpConfig, WakeReason};

use crate::conn::{token, untoken, Conn};
use crate::cost::AppCosts;
use crate::driver::ProxyDriver;
use crate::resp::{encode_response, Command, Response};

// Token kinds; the index is a client socket unless a kind says otherwise.
const KIND_PROCESS: u64 = 1;
const KIND_TICK: u64 = 2;
const KIND_FLUSH: u64 = 3;
/// Process / flush an upstream; the index is the shard.
const KIND_UP_PROCESS: u64 = 4;
const KIND_UP_FLUSH: u64 = 5;
/// Fire a scheduled retry; the index is the request id.
const KIND_RETRY: u64 = 6;
/// Re-dial a reset upstream; the index is the shard.
const KIND_RECONNECT: u64 = 7;
/// Deadline/hedge scan (resilient proxies only; idx unused).
const KIND_SCAN: u64 = 8;

/// The cadence of the estimation tick (the per-shard planes).
const TICK_PERIOD: Nanos = Nanos::from_micros(500);
/// Deadline/hedge scan cadence. Much finer than the estimation tick: a
/// hedge fired one tick late is a hedge that loses to the deadline.
const SCAN_PERIOD: Nanos = Nanos::from_micros(100);

/// Virtual nodes per shard on the hash ring. Enough to spread each
/// shard's arcs well; small enough that ring construction stays trivial.
const VNODES: usize = 64;

/// FNV-1a over the key bytes, finished with a murmur-style avalanche.
/// Raw FNV-1a barely diffuses trailing-byte differences, and workload
/// keys differ only in their last digits — without the finalizer a small
/// key space lands in one arc of the ring and starves whole shards.
fn key_hash(key: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Consistent-hash key → shard routing.
///
/// Each shard owns `VNODES` points on a 64-bit ring, placed by the
/// `"shard.salt"` named RNG stream (so ring layout depends only on the
/// seed, never on call order elsewhere); a key maps to the owner of the
/// first point at or clockwise of its hash. Adding or removing one shard
/// moves only the arcs adjacent to its points — the property that makes
/// the scheme *consistent*.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// `(point, shard)` sorted by point.
    ring: Vec<(u64, usize)>,
    num_shards: usize,
}

impl ShardRouter {
    /// Builds a ring for `num_shards` shards from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is zero.
    pub fn new(num_shards: usize, seed: u64) -> Self {
        assert!(num_shards > 0, "router needs at least one shard");
        let mut rng = Pcg32::stream(seed, Stream::ShardSalt);
        let mut ring: Vec<(u64, usize)> = (0..num_shards)
            .flat_map(|shard| (0..VNODES).map(move |v| (shard, v)))
            .map(|(shard, _)| (rng.next_u64(), shard))
            .collect();
        ring.sort_unstable();
        ring.dedup_by_key(|(p, _)| *p);
        ShardRouter { ring, num_shards }
    }

    /// Number of shards on the ring.
    pub(crate) fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Routes a key to its shard.
    pub fn route(&self, key: &[u8]) -> usize {
        let h = key_hash(key);
        self.ring[self.owner_idx(h)].1
    }

    /// Routes a key to its replica set of two: the primary plus the
    /// failover — the owner of the next clockwise ring point held by a
    /// *different* shard. Walking vnodes (rather than `(primary+1) % k`)
    /// keeps the failover assignment consistent: removing an unrelated
    /// shard's vnodes never changes which shard backs up a key. With one
    /// shard the failover degenerates to the primary.
    pub(crate) fn route_with_failover(&self, key: &[u8]) -> (usize, usize) {
        let h = key_hash(key);
        let idx = self.owner_idx(h);
        let primary = self.ring[idx].1;
        for step in 1..self.ring.len() {
            let s = self.ring[(idx + step) % self.ring.len()].1;
            if s != primary {
                return (primary, s);
            }
        }
        (primary, primary)
    }

    fn owner_idx(&self, h: u64) -> usize {
        match self.ring.binary_search_by_key(&h, |(p, _)| *p) {
            Ok(i) => i,
            // Clockwise successor; past the last point wraps to the first.
            Err(i) => i % self.ring.len(),
        }
    }
}

/// One upstream (proxy → shard) connection's state.
struct Upstream {
    sock: SocketId,
    connected: bool,
    /// The connection seat; its backlog also holds everything issued
    /// before the handshake completes.
    conn: Conn,
    /// Requests awaiting responses from this shard with the time each
    /// command was forwarded, in request order (RESP responses come back
    /// FIFO per connection).
    waiting: VecDeque<(u64, Nanos)>,
    /// A reconnect call is already scheduled (resilient mode only).
    reconnect_pending: bool,
    /// Consecutive re-dials since the last successful connect; indexes
    /// the reconnect backoff ladder.
    reconnect_attempts: u32,
}

impl Upstream {
    /// The socket, while the connection is up.
    fn live(&self) -> Option<SocketId> {
        self.connected.then_some(self.sock)
    }
}

/// The proxy's failure-handling configuration — one per arm of the
/// failover experiment. Attached via
/// [`with_resilience`](ProxyApp::with_resilience); without it the proxy
/// is the naive no-defense build.
#[derive(Debug, Clone, Copy)]
pub struct Resilience {
    /// Deadline/backoff/budget tuning shared by retries and hedges.
    pub(crate) retry: RetryConfig,
    /// Grant retries for expired or reset attempts (off = attempts that
    /// die are failed back to the client after one deadline).
    pub(crate) retries_enabled: bool,
    /// Hedge late attempts to the failover replica.
    pub(crate) hedging_enabled: bool,
    /// Per-upstream routing breaker tuning; `None` disables breakers.
    pub(crate) breaker: Option<BreakerConfig>,
}

impl Resilience {
    /// Deadlines only: expired attempts fail fast, nothing is re-sent.
    pub fn timeout_only(retry: RetryConfig) -> Self {
        Resilience {
            retry,
            retries_enabled: false,
            hedging_enabled: false,
            breaker: None,
        }
    }

    /// Deadlines plus budgeted retries.
    pub fn with_retries(retry: RetryConfig) -> Self {
        Resilience {
            retries_enabled: true,
            ..Self::timeout_only(retry)
        }
    }

    /// The full stack: deadlines, retries, hedging, and breakers.
    pub fn full(retry: RetryConfig, breaker: BreakerConfig) -> Self {
        Resilience {
            retry,
            retries_enabled: true,
            hedging_enabled: true,
            breaker: Some(breaker),
        }
    }
}

/// A resilient proxy's live defense state, built from its [`Resilience`].
struct Defense {
    /// The deadline/retry/hedge arithmetic.
    policy: RetryPolicy,
    /// Grant retries for attempts that die.
    retries: bool,
    /// Hedge late attempts to the failover replica.
    hedging: bool,
    /// Per-shard routing breakers (empty unless configured).
    breakers: Vec<UpstreamBreaker>,
}

/// One in-flight copy of a request.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    shard: usize,
    sent: Nanos,
    deadline: Nanos,
}

/// A request admitted from a client and not yet answered (or failed).
struct PendingReq {
    client: SocketId,
    cmd: Command,
    /// The key's primary shard on the ring.
    home: usize,
    /// The key's failover replica (== `home` when there is only one
    /// shard).
    failover: usize,
    /// Total attempts issued so far (the initial send counts).
    attempts: u32,
    hedged: bool,
    /// A retry is scheduled on the app-call queue; suppresses further
    /// expiry handling until it fires.
    retry_scheduled: bool,
    /// Live (unanswered, unexpired) copies, at most one per shard.
    live: Vec<Attempt>,
}

/// Per-run proxy statistics.
#[derive(Debug, Default, Clone)]
pub struct ProxyStats {
    /// Commands routed upstream.
    pub forwarded: u64,
    /// Responses relayed back to clients.
    pub responses: u64,
    /// Per-shard command counts (who got the traffic).
    pub per_shard: Vec<u64>,
    /// Per-shard measured back-leg round trips (command forwarded →
    /// response parsed) — the ground truth the back-leg estimates chase.
    pub(crate) back_rtt: Vec<Histogram>,
    /// Attempts that outlived their deadline.
    pub timeouts: u64,
    /// Requests failed back to the client (deadline exhausted, no retry
    /// granted).
    pub failed: u64,
    /// Attempts redirected away from a request's home shard (breaker
    /// open at admit, or a retry probing the failover replica).
    pub failovers: u64,
    /// Upstream connection resets observed.
    pub upstream_resets: u64,
    /// Responses that arrived for a request no longer pending (hedge or
    /// retry losers); their writes are deduplicated at the shard.
    pub orphan_responses: u64,
}

/// The sharding proxy application.
pub struct ProxyApp {
    costs: AppCosts,
    upstream_config: TcpConfig,
    shard_hosts: Vec<HostId>,
    router: ShardRouter,
    /// Client-facing connections by socket, entered on first use.
    conns: BTreeMap<usize, Conn>,
    /// Upstream state, indexed by shard.
    ups: Vec<Upstream>,
    /// Upstream socket → shard (the wake path's reverse map). Stale
    /// entries from before a reconnect stay in the map and are filtered
    /// by comparing against the upstream's current socket.
    up_by_sock: BTreeMap<usize, usize>,
    /// Optional per-shard estimation + control planes.
    pub driver: Option<ProxyDriver>,
    /// Aggregate statistics.
    pub stats: ProxyStats,
    /// Failure handling; `None` = naive no-defense build.
    defense: Option<Defense>,
    /// Pending requests by id. BTreeMap: the deadline scan iterates, and
    /// simulation state must iterate deterministically.
    reqs: BTreeMap<u64, PendingReq>,
    next_req_id: u64,
    /// Abandoned attempts `(id, shard, deadline)` of already-answered
    /// requests (hedge losers). They stay on the books so the breaker
    /// still learns: an orphan response before the deadline is a success,
    /// expiry a failure — without this, hedges mask every slow-shard
    /// timeout and the breaker never trips on a browning shard.
    zombies: Vec<(u64, usize, Nanos)>,
    /// `at` of the newest composed estimate already fed to each shard's
    /// breaker, so a frozen (dead-upstream) estimate is fed only once and
    /// cannot keep relaxing the trip streak while timeouts accumulate.
    conf_fed_at: Vec<Nanos>,
}

impl ProxyApp {
    /// Creates a proxy routing over `router` to the given shard hosts,
    /// opening each upstream with `upstream_config`.
    ///
    /// # Panics
    ///
    /// Panics when the router's shard count does not match the host list.
    pub fn new(
        costs: AppCosts,
        upstream_config: TcpConfig,
        shard_hosts: Vec<HostId>,
        router: ShardRouter,
    ) -> Self {
        assert_eq!(
            router.num_shards(),
            shard_hosts.len(),
            "one shard host per ring shard"
        );
        let shards = shard_hosts.len();
        ProxyApp {
            costs,
            upstream_config,
            shard_hosts,
            router,
            conns: BTreeMap::new(),
            ups: Vec::new(),
            up_by_sock: BTreeMap::new(),
            driver: None,
            stats: ProxyStats {
                per_shard: vec![0; shards],
                back_rtt: vec![Histogram::new(); shards],
                ..ProxyStats::default()
            },
            defense: None,
            reqs: BTreeMap::new(),
            next_req_id: 1,
            zombies: Vec::new(),
            conf_fed_at: vec![Nanos::ZERO; shards],
        }
    }

    /// Attaches a failure-handling stack (deadlines, and per the config:
    /// retries, hedging, breakers). Requests gain idempotency ids on the
    /// wire; upstream resets are recovered by re-dialing with backoff.
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        let shards = self.shard_hosts.len();
        self.defense = Some(Defense {
            policy: RetryPolicy::new(resilience.retry),
            retries: resilience.retries_enabled,
            hedging: resilience.hedging_enabled,
            breakers: resilience
                .breaker
                .map_or_else(Vec::new, |b| vec![UpstreamBreaker::new(b); shards]),
        });
        self
    }

    /// The retry/hedge policy, when resilience is attached (for audit
    /// counters: retries, hedges, budget denials).
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.defense.as_ref().map(|d| &d.policy)
    }

    /// Total breaker trips across shards.
    pub fn breaker_trips(&self) -> u64 {
        self.defense
            .iter()
            .flat_map(|d| &d.breakers)
            .map(|b| b.trips())
            .sum()
    }

    /// One shard's routing breaker, when breakers are configured.
    fn breaker(&mut self, shard: usize) -> Option<&mut UpstreamBreaker> {
        self.defense.as_mut()?.breakers.get_mut(shard)
    }

    /// The deadline of an attempt sent at `now` (never scanned without a
    /// defense).
    fn deadline(&self, now: Nanos) -> Nanos {
        self.defense
            .as_ref()
            .map_or(Nanos::ZERO, |d| d.policy.attempt_deadline(now))
    }

    /// Attaches the per-shard estimation/control driver.
    ///
    /// # Panics
    ///
    /// Panics when the driver's shard count does not match the proxy's.
    pub fn with_driver(mut self, driver: ProxyDriver) -> Self {
        assert_eq!(
            driver.num_shards(),
            self.shard_hosts.len(),
            "one driver plane per shard"
        );
        self.driver = Some(driver);
        self
    }

    /// Depth of a shard upstream's FIFO pairing queue: attempts written
    /// to the *current* connection still awaiting their response. A
    /// reconnect must leave nothing from the old connection here —
    /// stale entries would pair with the new connection's responses.
    pub fn upstream_waiting(&self, shard: usize) -> usize {
        self.ups.get(shard).map_or(0, |u| u.waiting.len())
    }

    /// Requests admitted but not yet answered or failed back.
    pub fn pending_requests(&self) -> usize {
        self.reqs.len()
    }

    /// The client-facing connection on `sock`.
    fn front(&mut self, sock: SocketId) -> &mut Conn {
        self.conns.entry(sock.0).or_default()
    }

    /// One processing pass over a client connection: read, route every
    /// complete command to its shard, remember who to answer.
    fn process_client(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId) {
        self.front(sock).read(ctx, Some(sock));
        while let Some(cmd) = self.front(sock).parser.next_command() {
            self.admit(ctx, sock, cmd);
        }
    }

    /// Admits one client command: route (diverting an open-breaker home
    /// shard to the failover), register in the pending table, dispatch.
    fn admit(&mut self, ctx: &mut HostCtx<'_>, client: SocketId, cmd: Command) {
        let (Command::Set { key, .. } | Command::Get { key, .. }) = &cmd;
        let (home, failover) = self.router.route_with_failover(key);
        ctx.charge_app(self.costs.proxy_forward(cmd.payload_len()));
        let now = ctx.now();
        let mut target = home;
        if !self.shard_allowed(home, now) && failover != home && self.shard_allowed(failover, now) {
            target = failover;
            self.stats.failovers += 1;
        }
        if let Some(d) = self.defense.as_mut() {
            d.policy.on_request();
        }
        let deadline = self.deadline(now);
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.reqs.insert(
            id,
            PendingReq {
                client,
                cmd,
                home,
                failover,
                attempts: 1,
                hedged: false,
                retry_scheduled: false,
                live: vec![Attempt {
                    shard: target,
                    sent: now,
                    deadline,
                }],
            },
        );
        self.dispatch(ctx, id, target);
        self.stats.forwarded += 1;
        self.stats.per_shard[target] += 1;
    }

    /// Encodes and sends one attempt of a pending request to `shard`,
    /// holding it while the upstream is unconnected. Resilient mode tags
    /// the wire with the request id so the shard's store can deduplicate
    /// retried/hedged writes; naive mode keeps the untagged wire
    /// byte-identical to the pre-resilience proxy.
    fn dispatch(&mut self, ctx: &mut HostCtx<'_>, id: u64, shard: usize) {
        #[expect(
            clippy::expect_used,
            reason = "only requests held in `reqs` are dispatched"
        )]
        let req = self.reqs.get(&id).expect("dispatching a pending request");
        let wire = req.cmd.to_wire(self.defense.as_ref().map(|_| id));
        let up = &mut self.ups[shard];
        up.waiting.push_back((id, ctx.now()));
        match up.live() {
            Some(sock) => up.conn.send(ctx, sock, wire, None),
            None => up.conn.hold(wire),
        }
    }

    /// True when the shard's breaker (if any) admits new attempts.
    fn shard_allowed(&mut self, shard: usize, now: Nanos) -> bool {
        self.breaker(shard).is_none_or(|b| b.allow(now))
    }

    /// One processing pass over a shard upstream: read, relay every
    /// complete response to the client that asked, FIFO.
    #[expect(
        clippy::panic,
        reason = "without retries, an unpaired response breaks FIFO pairing"
    )]
    fn process_upstream(&mut self, ctx: &mut HostCtx<'_>, shard: usize) {
        let up = &mut self.ups[shard];
        if !up.conn.read(ctx, up.live()) {
            return;
        }
        while let Some(resp) = self.ups[shard].conn.parser.next_response() {
            ctx.charge_app(self.costs.proxy_forward(resp.payload_len()));
            let Some((id, sent_at)) = self.ups[shard].waiting.pop_front() else {
                if self.defense.is_none() {
                    panic!("response without a waiting client");
                }
                self.stats.orphan_responses += 1;
                continue;
            };
            let now = ctx.now();
            match self.reqs.remove(&id) {
                Some(req) => {
                    self.stats.back_rtt[shard].record(now - sent_at);
                    if let Some(b) = self.breaker(shard) {
                        b.record_success(now);
                    }
                    // Any other live attempt (a hedge loser) stays on the
                    // books for breaker accounting until its deadline.
                    for a in req.live.iter().filter(|a| a.shard != shard) {
                        self.zombies.push((id, a.shard, a.deadline));
                    }
                    let wire = encode_response(&resp);
                    self.front(req.client).send(ctx, req.client, wire, None);
                    self.stats.responses += 1;
                }
                None => {
                    // A hedge/retry loser, or a request already failed:
                    // the client was answered elsewhere. The shard is
                    // alive though — credit its breaker and retire the
                    // matching zombie before it expires into a failure.
                    self.stats.orphan_responses += 1;
                    self.zombies
                        .retain(|&(zid, zshard, _)| !(zid == id && zshard == shard));
                    if let Some(b) = self.breaker(shard) {
                        b.record_success(now);
                    }
                }
            }
        }
    }

    fn tick(&mut self, ctx: &mut HostCtx<'_>) {
        if let Some(mut driver) = self.driver.take() {
            // Sorted client order (BTreeMap) keeps the tick deterministic.
            let client_socks: Vec<SocketId> = self.conns.keys().map(|&s| SocketId(s)).collect();
            let upstreams: Vec<Option<SocketId>> = self.ups.iter().map(Upstream::live).collect();
            driver.tick(ctx, &client_socks, &upstreams);
            // Joint breaker feed: each *fresh* composed estimate reports
            // its confidence to the shard's breaker. Unchanging estimates
            // (dead upstream → no updates) are fed once, not every tick,
            // so stale confidence cannot out-vote accumulating timeouts.
            let now = ctx.now();
            let breakers = self.defense.iter_mut().flat_map(|d| &mut d.breakers);
            for (shard, breaker) in breakers.enumerate() {
                if let Some(est) = driver.latest_composed(shard) {
                    if est.at > self.conf_fed_at[shard] {
                        self.conf_fed_at[shard] = est.at;
                        breaker.note_confidence(now, est.confidence);
                    }
                }
            }
            self.driver = Some(driver);
        }
        ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
    }

    /// Runs on its own fine-grained cadence (resilient proxies only):
    /// expires attempts past their deadline and hedges single attempts
    /// the composed estimate's P99 view calls late.
    fn scan_deadlines(&mut self, ctx: &mut HostCtx<'_>) {
        let now = ctx.now();
        let Some(defense) = &self.defense else {
            return;
        };
        let mut expired: Vec<(u64, usize)> = Vec::new();
        let mut hedges: Vec<(u64, usize)> = Vec::new();
        for (&id, req) in &self.reqs {
            for a in &req.live {
                if now >= a.deadline {
                    expired.push((id, a.shard));
                }
            }
            if defense.hedging && !req.hedged && req.failover != req.home && req.live.len() == 1 {
                let a = req.live[0];
                if now < a.deadline {
                    // "Late" is judged against the *failover target's*
                    // composed estimate — a healthy baseline for how long
                    // this request should have taken. The stuck shard's
                    // own estimate inflates under the very fault the
                    // hedge defends against, which would push the hedge
                    // window shut exactly when it is needed.
                    let est_mean = self
                        .driver
                        .as_ref()
                        .and_then(|d| d.latest_composed(req.failover))
                        .map(|e| e.latency);
                    if now >= a.sent + defense.policy.hedge_delay(est_mean) {
                        hedges.push((id, req.failover));
                    }
                }
            }
        }
        for (id, shard) in expired {
            self.attempt_failed(ctx, id, shard, true);
        }
        for (id, target) in hedges {
            self.try_hedge(ctx, id, target);
        }
        // Abandoned hedge losers past their deadline: the shard never
        // answered a request it owed — the breaker hears about it even
        // though the client was long since served.
        let zombies = std::mem::take(&mut self.zombies);
        for (id, shard, deadline) in zombies {
            if now >= deadline {
                self.stats.timeouts += 1;
                if let Some(b) = self.breaker(shard) {
                    b.record_failure(now);
                }
            } else {
                self.zombies.push((id, shard, deadline));
            }
        }
    }

    /// Handles the death of one attempt (deadline expiry or connection
    /// reset): drops the live copy, feeds the breaker, and — when no
    /// copies remain — retries under budget or fails the request.
    fn attempt_failed(&mut self, ctx: &mut HostCtx<'_>, id: u64, shard: usize, timed_out: bool) {
        let now = ctx.now();
        let Some(req) = self.reqs.get_mut(&id) else {
            return;
        };
        let before = req.live.len();
        req.live.retain(|a| a.shard != shard);
        if req.live.len() == before {
            return; // already removed (e.g. reset drained it first)
        }
        if timed_out {
            self.stats.timeouts += 1;
            // Resets feed the breaker once per event at the teardown
            // site, not once per drained attempt.
            if let Some(b) = self.breaker(shard) {
                b.record_failure(now);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "a timed-out attempt belongs to a request still in `reqs`"
        )]
        let req = self.reqs.get_mut(&id).expect("still pending");
        if !req.live.is_empty() || req.retry_scheduled {
            return;
        }
        let retry = self.defense.as_mut().filter(|d| d.retries).and_then(|d| {
            d.policy
                .request_attempt(AttemptKind::Retry, req.attempts, id)
        });
        match retry {
            Some(delay) => {
                req.retry_scheduled = true;
                ctx.call_after(delay, token(KIND_RETRY, id as usize));
            }
            None => self.fail_request(ctx, id),
        }
    }

    /// Fails a pending request back to its client as `Nil` (keeping the
    /// client's pipelined FIFO pairing intact — a silent drop would skew
    /// every later response on that connection).
    fn fail_request(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        let Some(req) = self.reqs.remove(&id) else {
            return;
        };
        self.stats.failed += 1;
        let wire = encode_response(&Response::Nil);
        self.front(req.client).send(ctx, req.client, wire, None);
    }

    /// A scheduled retry fires: issue the next attempt, alternating
    /// between the failover replica and home (breaker permitting).
    fn do_retry(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        let now = ctx.now();
        let Some(req) = self.reqs.get_mut(&id) else {
            return; // answered while the backoff ran
        };
        req.retry_scheduled = false;
        req.attempts += 1;
        let (home, failover, attempts) = (req.home, req.failover, req.attempts);
        // The first retry assumes a transient blip and goes back home
        // (the owner keeps data locality; a delivered-but-stalled original
        // is deduplicated there by the idempotency window). Later retries
        // assume the shard is sick and probe the failover replica — unless
        // the breaker says that side is dead and the other is not.
        let (prefer, alt) = if attempts <= 2 {
            (home, failover)
        } else {
            (failover, home)
        };
        let target = if self.shard_allowed(prefer, now) || !self.shard_allowed(alt, now) {
            prefer
        } else {
            alt
        };
        let deadline = self.deadline(now);
        #[expect(
            clippy::expect_used,
            reason = "a retry fires only for a request still in `reqs`"
        )]
        let req = self.reqs.get_mut(&id).expect("still pending");
        req.live.push(Attempt {
            shard: target,
            sent: now,
            deadline,
        });
        ctx.charge_app(self.costs.proxy_forward(req.cmd.payload_len()));
        if target != home {
            self.stats.failovers += 1;
        }
        self.stats.per_shard[target] += 1;
        self.dispatch(ctx, id, target);
    }

    /// Hedges a late request: duplicate the outstanding attempt to the
    /// failover replica, budget permitting; first response wins.
    fn try_hedge(&mut self, ctx: &mut HostCtx<'_>, id: u64, target: usize) {
        let now = ctx.now();
        if !self.shard_allowed(target, now) {
            return;
        }
        let Some(req) = self.reqs.get_mut(&id) else {
            return;
        };
        if req.hedged || req.live.len() != 1 || req.live[0].shard == target {
            return;
        }
        let granted = self.defense.as_mut().and_then(|d| {
            d.policy
                .request_attempt(AttemptKind::Hedge, req.attempts, id)
        });
        if granted.is_none() {
            return;
        }
        let deadline = self.deadline(now);
        #[expect(
            clippy::expect_used,
            reason = "the hedge fires only for a request still in `reqs`"
        )]
        let req = self.reqs.get_mut(&id).expect("still pending");
        req.hedged = true;
        req.attempts += 1;
        req.live.push(Attempt {
            shard: target,
            sent: now,
            deadline,
        });
        ctx.charge_app(self.costs.proxy_forward(req.cmd.payload_len()));
        self.stats.failovers += 1;
        self.stats.per_shard[target] += 1;
        self.dispatch(ctx, id, target);
    }

    /// An upstream connection reset. Tear the leg down cleanly: a fresh
    /// [`Conn`] (the write backlog is never replayed on a new socket —
    /// bytes already handed to the old socket are indistinguishable from
    /// delivered), and every in-flight request on this shard failed or
    /// retried — never left to mis-pair with the next connection's
    /// responses. Resilient mode re-dials with backoff; the naive build
    /// just marks the leg down and forgets.
    fn on_upstream_reset(&mut self, ctx: &mut HostCtx<'_>, shard: usize) {
        self.stats.upstream_resets += 1;
        let now = ctx.now();
        let up = &mut self.ups[shard];
        up.connected = false;
        let Some(defense) = self.defense.as_mut() else {
            return;
        };
        up.conn = Conn::default();
        let drained: Vec<u64> = up.waiting.drain(..).map(|(id, _)| id).collect();
        // The reset counts as one breaker failure; zombies on this shard
        // can never be answered now, so drop them rather than letting
        // their expiry inflate that into a streak.
        self.zombies.retain(|&(_, s, _)| s != shard);
        if let Some(b) = defense.breakers.get_mut(shard) {
            b.record_failure(now);
        }
        // One re-dial at a time, on the backoff ladder; it is queued after
        // the retries of the drained attempts.
        let redial = (!up.reconnect_pending).then(|| {
            up.reconnect_pending = true;
            up.reconnect_attempts += 1;
            defense
                .policy
                .reconnect_backoff(up.reconnect_attempts, shard as u64)
        });
        for id in drained {
            self.attempt_failed(ctx, id, shard, false);
        }
        if let Some(delay) = redial {
            ctx.call_after(delay, token(KIND_RECONNECT, shard));
        }
    }

    /// Re-dials a reset upstream on a fresh socket; commands held since
    /// the reset go out on `Connected`. The old socket's `up_by_sock`
    /// entry stays behind; wakes for it are filtered against the
    /// upstream's current socket.
    fn reconnect_upstream(&mut self, ctx: &mut HostCtx<'_>, shard: usize) {
        self.ups[shard].reconnect_pending = false;
        if self.ups[shard].connected {
            return;
        }
        let sock = ctx.connect_to(self.shard_hosts[shard], self.upstream_config);
        self.up_by_sock.insert(sock.0, shard);
        self.ups[shard].sock = sock;
    }
}

impl App for ProxyApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        // One upstream per shard, opened through the simulated stack; the
        // socket id is known immediately, writes buffer until `Connected`.
        for (shard, &host) in self.shard_hosts.iter().enumerate() {
            let sock = ctx.connect_to(host, self.upstream_config);
            self.up_by_sock.insert(sock.0, shard);
            self.ups.push(Upstream {
                sock,
                connected: false,
                conn: Conn::default(),
                waiting: VecDeque::new(),
                reconnect_pending: false,
                reconnect_attempts: 0,
            });
        }
        ctx.call_after(TICK_PERIOD, token(KIND_TICK, 0));
        if self.defense.is_some() {
            ctx.call_after(SCAN_PERIOD, token(KIND_SCAN, 0));
        }
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_>, sock: SocketId, reason: WakeReason) {
        // Upstream sockets are the ones the proxy opened; everything else
        // is a client-facing accept. Wakes for a socket an upstream has
        // reconnected away from are stale — drop them.
        let upstream = self.up_by_sock.get(&sock.0).copied();
        if let Some(shard) = upstream {
            if self.ups[shard].sock != sock {
                return;
            }
        }
        match reason {
            WakeReason::Connected => {
                if let Some(shard) = upstream {
                    let up = &mut self.ups[shard];
                    up.connected = true;
                    up.reconnect_attempts = 0;
                    up.conn.on_writable(ctx, token(KIND_UP_FLUSH, shard));
                }
            }
            WakeReason::Reset => {
                if let Some(shard) = upstream {
                    self.on_upstream_reset(ctx, shard);
                }
            }
            WakeReason::Accepted => *self.front(sock) = Conn::default(),
            WakeReason::Readable => match upstream {
                Some(shard) => self.ups[shard]
                    .conn
                    .on_readable(ctx, token(KIND_UP_PROCESS, shard)),
                None => self
                    .front(sock)
                    .on_readable(ctx, token(KIND_PROCESS, sock.0)),
            },
            WakeReason::Writable => match upstream {
                Some(shard) => self.ups[shard]
                    .conn
                    .on_writable(ctx, token(KIND_UP_FLUSH, shard)),
                None => self.front(sock).on_writable(ctx, token(KIND_FLUSH, sock.0)),
            },
        }
    }

    #[expect(
        clippy::panic,
        reason = "tokens are minted by this proxy; any other is a bug"
    )]
    fn on_call(&mut self, ctx: &mut HostCtx<'_>, tok: u64) {
        let (kind, idx) = untoken(tok);
        match kind {
            KIND_PROCESS => self.process_client(ctx, SocketId(idx)),
            KIND_FLUSH => self.front(SocketId(idx)).flush(ctx, Some(SocketId(idx))),
            KIND_UP_PROCESS => self.process_upstream(ctx, idx),
            KIND_UP_FLUSH => {
                let up = &mut self.ups[idx];
                up.conn.flush(ctx, up.live());
            }
            KIND_TICK => self.tick(ctx),
            KIND_SCAN => {
                self.scan_deadlines(ctx);
                ctx.call_after(SCAN_PERIOD, token(KIND_SCAN, 0));
            }
            KIND_RETRY => self.do_retry(ctx, idx as u64),
            KIND_RECONNECT => self.reconnect_upstream(ctx, idx),
            other => panic!("unknown proxy token kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_deterministic_and_total() {
        let r1 = ShardRouter::new(4, 42);
        let r2 = ShardRouter::new(4, 42);
        for i in 0..1000 {
            let key = format!("key:{i:012}");
            let s = r1.route(key.as_bytes());
            assert_eq!(s, r2.route(key.as_bytes()));
            assert!(s < 4);
        }
    }

    #[test]
    fn router_spreads_keys_across_shards() {
        let r = ShardRouter::new(4, 7);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let key = format!("key:{i:012}");
            counts[r.route(key.as_bytes())] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c > 400,
                "shard {shard} starved: {counts:?} — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn different_seeds_lay_out_different_rings() {
        let a = ShardRouter::new(4, 1);
        let b = ShardRouter::new(4, 2);
        let moved = (0..1000)
            .filter(|i| {
                let key = format!("key:{i:012}");
                a.route(key.as_bytes()) != b.route(key.as_bytes())
            })
            .count();
        assert!(moved > 250, "only {moved} keys moved between seeds");
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        // Consistency: keys on surviving shards of a 4-ring must map to
        // the same shard on the 3-ring built from the same seed whenever
        // their owning arc did not belong to the removed shard. With
        // independent ring points per shard count this is statistical:
        // far fewer keys move than a modulo scheme's ~75%.
        let four = ShardRouter::new(4, 9);
        let three = ShardRouter::new(3, 9);
        let moved = (0..2000)
            .filter(|i| {
                let key = format!("key:{i:012}");
                let s4 = four.route(key.as_bytes());
                s4 < 3 && three.route(key.as_bytes()) != s4
            })
            .count();
        assert!(moved < 700, "{moved}/2000 surviving keys moved");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_router_rejected() {
        let _ = ShardRouter::new(0, 1);
    }

    #[test]
    fn failover_replica_is_a_distinct_shard() {
        let r = ShardRouter::new(4, 42);
        for i in 0..1000 {
            let key = format!("key:{i:012}");
            let (home, failover) = r.route_with_failover(key.as_bytes());
            assert_eq!(home, r.route(key.as_bytes()));
            assert_ne!(home, failover, "replica set must span two shards");
            assert!(failover < 4);
        }
        // Degenerate single-shard ring: failover folds onto the primary.
        let one = ShardRouter::new(1, 42);
        assert_eq!(one.route_with_failover(b"k"), (0, 0));
    }

    #[test]
    fn failover_spreads_across_shards() {
        // The failover of a hot shard's keys must not all pile onto one
        // neighbor (that is the point of vnode-successor assignment over
        // `(home + 1) % k`).
        let r = ShardRouter::new(4, 7);
        let mut counts = [[0usize; 4]; 4];
        for i in 0..4000 {
            let key = format!("key:{i:012}");
            let (h, f) = r.route_with_failover(key.as_bytes());
            counts[h][f] += 1;
        }
        for home in 0..4 {
            let spread = (0..4).filter(|&f| f != home && counts[home][f] > 0).count();
            assert!(
                spread >= 2,
                "shard {home}'s failovers collapse onto too few shards: {counts:?}"
            );
        }
    }

    #[test]
    fn ring_successor_is_stable_under_vnode_removal() {
        // Removing one shard from the ring must not reshuffle replica
        // sets whose arcs it never owned: keys whose home *and* failover
        // both survive keep exactly that (home, failover) pair on the
        // smaller ring built from the same seed.
        let four = ShardRouter::new(4, 9);
        let three = ShardRouter::new(3, 9);
        let (mut eligible, mut moved) = (0usize, 0usize);
        for i in 0..2000 {
            let key = format!("key:{i:012}");
            let (h4, f4) = four.route_with_failover(key.as_bytes());
            if h4 < 3 && f4 < 3 {
                eligible += 1;
                if three.route_with_failover(key.as_bytes()) != (h4, f4) {
                    moved += 1;
                }
            }
        }
        assert!(
            eligible > 800,
            "test vacuous: only {eligible} eligible keys"
        );
        // Consistency bound: only pairs adjacent to the removed shard's
        // vnodes may change — far fewer than a modulo scheme's ~100%.
        assert!(
            moved * 2 < eligible,
            "{moved}/{eligible} surviving replica sets moved"
        );
    }
}
