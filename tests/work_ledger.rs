//! The work ledger: what the simulator does per completed request, end to
//! end, counted exactly.
//!
//! The per-event path (timer wheel, socket rx/tx, CPU and link model,
//! RESP framing, estimator, proxy routing) is commented `// hot-path:`
//! where a function must not allocate per call. This test holds the
//! whole path to that and to the work it schedules. It installs a
//! counting global allocator, runs four topologies until every
//! connection is established — a 64-connection star (`NetSim`), a 4-shard
//! two-tier run (`TierSim`), Figure 4a's 80 kRPS over 1024 connections
//! with the estimator and hints attached on every one, and the
//! benchmark's `star64_loss` (Figure 4a at 40 kRPS over 64 connections
//! under bursty loss, the one cell where segments are dropped and
//! resent), the last two assembled by `Harness::star` — and over a
//! further stretch of simulated time counts, per request the clients
//! completed in it:
//!
//! - heap allocations, and the bytes they requested (`layout.size()`,
//!   `new_size` on a `realloc`), so a copy of a 16 KiB value shows as what
//!   it is even when it reuses a count another path gave up;
//! - retained bytes: the live heap at the stretch's end minus the live
//!   heap at its start (frees and `realloc`s book what they give back), so
//!   a series that grows with the run shows as what it keeps, whatever
//!   its growth policy allocated and freed on the way. It is signed: fewer
//!   requests in flight at the end than at the start give buffers back.
//!   In `star64_loss` loss holds requests back: 90 are in flight at
//!   `WARM` and 173 at `END`, and their buffers are kept. `fanin1024`
//!   counts over a later stretch of its own (`FANIN_WARM..FANIN_END`,
//!   8 in flight at its start and 22 at its end): at `WARM` its clients
//!   still have a start-up backlog of 184 requests in flight, whose
//!   buffers, given back, would outweigh what the recorders' checkpoints
//!   grow by;
//! - events dispatched, by arm of `Event`. The stretch runs the loop
//!   `simnet::run` runs, tallying each popped event before handing it to
//!   `World::handle`, so the count is of what runs, however the code that
//!   schedules it is spelled. No cell restarts an endpoint or crashes a
//!   shard, so `Restart` and `ShardCrash` must stay 0;
//! - client ticks (`LancetClient::ticks_run`): the one event class whose
//!   count could follow elapsed time rather than traffic. A client whose
//!   socket stands still sleeps through its ticks, and `fanin1024` is
//!   where a client that stopped parking shows;
//! - estimator updates over every client's recorders and plane seat
//!   (`EstimateRecorder::estimator_updates`): a client that only records
//!   keeps counters and runs no estimator, so `fanin1024` and
//!   `star64_loss` must read exactly 0.
//!
//! Before the stretches, it weighs the `fanin1024` assembly: the live heap
//! `Harness::star` leaves at time zero, per connection, under a ceiling
//! of its own, and within 5 % of the same figure at 128 connections, so
//! state that grows with the square of the connection count (as the
//! client hosts' flow tables once did) fails it.
//!
//! Each ceiling is the figure the simulator had when it was recorded; it
//! may only go down. Raising one is a re-record that has to be
//! explained, like a golden. Both profiles are held to the same figures.
//! Each cell runs twice
//! from fresh simulators and must count identically: the simulation is
//! deterministic, so a count that moves between runs is a measurement
//! error, not noise.
//!
//! Host time is not gated here. `--nocapture` prints each cell's columns
//! per request, the host milliseconds of its counted stretch, the
//! requests in flight (sent and not completed) at its start and end, and
//! the most the segment store and the wheel's slab ever held (segments in
//! flight, events queued), for information (`--release` for a meaningful
//! host time):
//!
//! ```sh
//! cargo test --release --test work_ledger -- --nocapture
//! ```
//!
//! `ci.sh` runs the test in both profiles.
//!
//! The file holds exactly one test so no sibling test thread can allocate
//! concurrently and pollute the counter.

// Implementing `GlobalAlloc` is inherently unsafe; the override is scoped
// to this integration test, not the library.
#![expect(unsafe_code, reason = "a counting GlobalAlloc is unsafe to implement")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use e2e_batching::e2e_apps::experiments::ChaosClass;
use e2e_batching::e2e_apps::harness::{star_hosts, tier_hosts, Star};
use e2e_batching::e2e_apps::runner::Overrides;
use e2e_batching::e2e_apps::{
    CostProfile, Harness, LancetClient, NagleSetting, ProxyApp, RedisServer, RunConfig,
    ShardRouter, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, EventQueue, FaultConfig, LinkConfig, Store, World};
use e2e_batching::tcpsim::{Event, NetSim, Segment, TcpConfig, TierSim};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicI64 = AtomicI64::new(0);

fn book(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_add(size as i64, Ordering::Relaxed);
}

fn free(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
        free(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Simulated time before counting starts: every connection is established
/// and the cell is in steady state.
const WARM: Nanos = Nanos::from_millis(60);
/// End of the counted stretch.
const END: Nanos = Nanos::from_millis(160);

/// `fanin1024`'s counted stretch. At `WARM` its 1 024 clients still have
/// a start-up backlog of 184 requests in flight (8 by `END`), which the
/// stretch would drain: it starts 100 ms later instead, when what is in
/// flight at its start and at its end is what steady state holds.
const FANIN_WARM: Nanos = Nanos::from_millis(160);
const FANIN_END: Nanos = Nanos::from_millis(260);

/// The arms of `Event`, in declaration order: the ledger's event columns.
const ARMS: [&str; 8] = [
    "Deliver",
    "SoftirqRx",
    "Timer",
    "AppWake",
    "AppCall",
    "NicComplete",
    "Restart",
    "ShardCrash",
];

/// `event`'s index in [`ARMS`]. Exhaustive, so a new arm must be given a
/// column before this compiles.
fn arm(event: &Event) -> usize {
    match event {
        Event::Deliver { .. } => 0,
        Event::SoftirqRx { .. } => 1,
        Event::Timer { .. } => 2,
        Event::AppWake { .. } => 3,
        Event::AppCall { .. } => 4,
        Event::NicComplete { .. } => 5,
        Event::Restart => 6,
        Event::ShardCrash => 7,
    }
}

/// What the heap did over the counted stretch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Heap {
    allocs: u64,
    bytes: u64,
    /// Live heap at the stretch's end minus at its start. Negative when
    /// the stretch gave back more than it kept: requests in flight at its
    /// start and done by its end free their buffers.
    retained: i64,
}

/// What ran over the counted stretch, and how many requests the clients
/// completed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    heap: Heap,
    /// Events dispatched, indexed like [`ARMS`].
    events: [u64; 8],
    /// Client ticks dispatched, all clients.
    ticks: u64,
    /// `E2eEstimator` updates, each a full `update_validated`, over every
    /// client's recorders and plane seat.
    updates: u64,
    completed: u64,
}

impl Ledger {
    /// Every gated column, named.
    fn columns(&self) -> impl Iterator<Item = (&'static str, i128)> {
        [
            ("allocations", self.heap.allocs),
            ("allocated bytes", self.heap.bytes),
        ]
        .into_iter()
        .chain(ARMS.into_iter().zip(self.events))
        .chain([
            ("client ticks", self.ticks),
            ("estimator updates", self.updates),
        ])
        .map(|(column, used)| (column, i128::from(used)))
        .chain([("retained bytes", i128::from(self.heap.retained))])
    }
}

// Ceilings as the ledger that set them: each column's ratio to
// `completed` is a ceiling, kept exact so that one extra allocation,
// event, tick or estimator update per thousand requests, or one extra
// byte per request, already fails. `events` reads Deliver, SoftirqRx,
// Timer, AppWake, AppCall, NicComplete, Restart, ShardCrash.

const STAR64_CEILING: Ledger = Ledger {
    heap: Heap {
        allocs: 25_768,     // 4.00 per request
        bytes: 106_497_062, // 16 549 per request: the 16 430-byte request, ~120 B more
        retained: 83_406,   // 13.0 per request
    },
    events: [25_748, 25_742, 0, 38_235, 26_648, 25_746, 0, 0], // 22.09 per request
    ticks: 3_228,                                              // 0.50 per request
    updates: 0,
    completed: 6_435,
};
const TIER4_CEILING: Ledger = Ledger {
    heap: Heap {
        allocs: 10_497,   // 9.13 per request
        bytes: 1_577_340, // 1 372 per request
        retained: 56_072, // 48.8 per request
    },
    events: [4_603, 4_601, 0, 8_793, 6_257, 4_603, 0, 0], // 25.09 per request
    ticks: 304,                                           // 0.26 per request
    updates: 0,
    completed: 1_150,
};
const FANIN1024_CEILING: Ledger = Ledger {
    heap: Heap {
        allocs: 33_363,      // 4.16 per request
        bytes: 134_688_413,  // 16 775 per request
        retained: 1_092_771, // 136.1 per request: the recorders' packed checkpoints
    },
    events: [32_498, 32_486, 365, 48_135, 37_780, 32_500, 0, 0], // 22.89 per request
    ticks: 8_721, // 1.09 per request, 0.047 of events
    updates: 0,   // a client that only records runs no estimator
    completed: 8_029,
};
const STAR64_LOSS_CEILING: Ledger = Ledger {
    heap: Heap {
        allocs: 17_277,    // 4.33 per request
        bytes: 74_851_598, // 18 746 per request
        // 406.8 per request: 90 requests in flight at `WARM`, 173 at `END`,
        // their buffers still held.
        retained: 1_624_316,
    },
    events: [16_857, 16_857, 133, 23_178, 17_913, 17_034, 0, 0], // 23.03 per request
    ticks: 2_983,                                                // 0.75 per request
    updates: 0,
    completed: 3_993,
};

/// Ceiling on `fanin1024`'s live heap right after `Harness::star` has
/// assembled and started it, at time zero: every client with its socket,
/// flow table, histogram and recorders, the hosts and links, and the
/// server, which has accepted nothing yet. Divided by the 1 024
/// connections it is the bytes-per-connection column; the test also
/// holds it within 5 % of the same figure at 128 connections, so a
/// connection costs the same whatever the connection count.
///
/// 9 806 B per connection; 10 126 while a client's recorders each held
/// an estimator, 26 382 before flow tables, histograms and client seats
/// were sized to what a connection uses.
const ASSEMBLY_CEILING: i64 = 10_041_024;

/// A 64-client star at 64 kRPS in total: Figure 4a requests, no
/// estimator.
fn star64() -> NetSim<LancetClient, RedisServer> {
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig::default();
    let clients = (0..64)
        .map(|_| LancetClient::new(WorkloadSpec::fig4a(1_000.0), profile.app, tcp, WARM, END))
        .collect();
    let (client_hosts, server_host) = star_hosts(64, &profile, tcp);
    let server = RedisServer::new(profile.app);
    NetSim::star(
        clients,
        server,
        client_hosts,
        server_host,
        LinkConfig::default(),
        0x0A11_0C64,
    )
}

/// Figure 4a's 80 kRPS over `n` connections, a `NagleSetting::Off` star:
/// byte and message counters exchanged every 500 µs, every client
/// estimating in both units and sending hints, the server recording them.
/// `Harness::star` is the assembly `run_point` runs, so this is what
/// `run_point` builds by construction. The ledger's cell is `n = 1024`.
fn fanin(n: usize) -> Harness<Star, RunConfig> {
    Harness::star(&RunConfig {
        warmup: FANIN_WARM,
        measure: FANIN_END - FANIN_WARM,
        seed: 0x0A11_1024,
        num_clients: n,
        ..RunConfig::new(WorkloadSpec::fig4a(80_000.0), NagleSetting::Off)
    })
}

/// The live heap of an assembled and started `fanin(n)` at time zero.
fn assembly_live(n: usize) -> i64 {
    let before = LIVE.load(Ordering::SeqCst);
    let harness = fanin(n);
    let live = LIVE.load(Ordering::SeqCst) - before;
    drop(harness);
    live
}

/// The benchmark's `star64_loss`: Figure 4a at 40 kRPS over 64
/// connections, a `NagleSetting::Off` star with recorders and hints,
/// under bursty loss (`ChaosClass::Loss` at 0.25, a stationary 1 %) with
/// the RTO clamped to 5–40 ms so recovery stays inside the stretch.
fn star64_loss() -> Harness<Star, RunConfig> {
    Harness::star(&RunConfig {
        warmup: WARM,
        measure: END - WARM,
        seed: 0x0A11_1055,
        num_clients: 64,
        fault: ChaosClass::Loss.fault_at(0.25),
        overrides: Overrides {
            min_rto: Some(Nanos::from_millis(5)),
            max_rto: Some(Nanos::from_millis(40)),
            ..Overrides::default()
        },
        ..RunConfig::new(WorkloadSpec::fig4a(40_000.0), NagleSetting::Off)
    })
}

/// The two-tier topology of `tests/shard.rs`: 4 clients, a proxy, 4 shards.
fn tier4() -> TierSim<LancetClient, ProxyApp, RedisServer> {
    let (n, k) = (4, 4);
    let profile = CostProfile::shard_tier();
    let tcp = TcpConfig::default();
    let mut spec = WorkloadSpec::shard(12_000.0);
    spec.rate_rps /= n as f64;
    let clients = (0..n)
        .map(|_| LancetClient::new(spec, profile.app, tcp, WARM, END))
        .collect();
    let (client_hosts, proxy_host, shard_hosts) = tier_hosts(n, k, &profile, tcp);
    let shard_ids = shard_hosts.iter().map(|h| h.id).collect();
    let proxy = ProxyApp::new(
        profile.app,
        tcp,
        shard_ids,
        ShardRouter::new(k, 0x0A11_0C04),
    );
    let shards = (0..k).map(|_| RedisServer::new(profile.app)).collect();
    TierSim::two_tier_with_faults(
        clients,
        proxy,
        shards,
        client_hosts,
        proxy_host,
        shard_hosts,
        LinkConfig::default(),
        LinkConfig::default(),
        0x0A11_0C04,
        FaultConfig::default(),
    )
}

/// What one counted stretch read: the gated ledger; and, printed beside
/// it, the host milliseconds it took, the requests in flight (sent and
/// not completed, all clients) at its start and end, and the high-water
/// marks of the segment store and of the wheel's slab at `END`.
type Reading = (Ledger, f64, [u64; 2], [usize; 2]);

/// What every client has done so far: requests completed, ticks run,
/// requests sent, and its recorders' estimator updates.
fn tally(clients: &[LancetClient]) -> (u64, u64, u64, u64) {
    clients
        .iter()
        .fold((0, 0, 0, 0), |(done, ticks, sent, updates), c| {
            let seat = c.plane.as_ref().map(|p| &p.recorder);
            let updates = updates
                + c.recorders
                    .iter()
                    .chain(seat)
                    .map(|rec| rec.estimator_updates())
                    .sum::<u64>();
            (
                done + c.completed,
                ticks + c.ticks_run,
                sent + c.sent,
                updates,
            )
        })
}

/// Counts over `[warm, end]` on a started `sim`.
fn count<W: World<Event = Event>>(
    sim: &mut W,
    queue: &mut EventQueue<Event>,
    [warm, end]: [Nanos; 2],
    clients: impl Fn(&W) -> &[LancetClient],
    segments: impl Fn(&W) -> &Store<Segment>,
) -> Reading {
    let heap = || {
        (
            ALLOCS.load(Ordering::SeqCst),
            BYTES.load(Ordering::SeqCst),
            LIVE.load(Ordering::SeqCst),
        )
    };
    run(sim, queue, warm);
    let (done, ticks, sent, est) = tally(clients(sim));
    let (allocs, bytes, live) = heap();
    let mut events = [0; 8];
    #[expect(
        clippy::disallowed_methods,
        reason = "the host time of the counted stretch is printed, never asserted"
    )]
    let began = Instant::now();
    // `simnet::run`'s loop, tallying each event by arm.
    while let Some(at) = queue.peek_time() {
        if at > end {
            break;
        }
        let (_, event) = queue.pop().expect("peeked event exists");
        events[arm(&event)] += 1;
        sim.handle(queue, event);
    }
    let host_ms = began.elapsed().as_secs_f64() * 1e3;
    let (allocs_end, bytes_end, live_end) = heap();
    let (done_end, ticks_end, sent_end, est_end) = tally(clients(sim));
    let ledger = Ledger {
        heap: Heap {
            allocs: allocs_end - allocs,
            bytes: bytes_end - bytes,
            retained: live_end - live,
        },
        events,
        ticks: ticks_end - ticks,
        updates: est_end - est,
        completed: done_end - done,
    };
    let peaks = [segments(sim).high_water(), queue.slab_len()];
    (ledger, host_ms, [sent - done, sent_end - done_end], peaks)
}

fn star64_count() -> Reading {
    let mut sim = star64();
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    count(
        &mut sim,
        &mut queue,
        [WARM, END],
        |s| &s.clients,
        NetSim::segment_store,
    )
}

fn tier4_count() -> Reading {
    let mut sim = tier4();
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    count(
        &mut sim,
        &mut queue,
        [WARM, END],
        |s| &s.clients,
        TierSim::segment_store,
    )
}

/// The harness's own world and queue, stepped here instead of by its
/// stages.
fn fanin1024_count() -> Reading {
    let mut harness = fanin(1024);
    let stretch = [FANIN_WARM, FANIN_END];
    count(
        &mut harness.world,
        &mut harness.queue,
        stretch,
        |s| &s.clients,
        NetSim::segment_store,
    )
}

fn star64_loss_count() -> Reading {
    let mut harness = star64_loss();
    count(
        &mut harness.world,
        &mut harness.queue,
        [WARM, END],
        |s| &s.clients,
        NetSim::segment_store,
    )
}

#[test]
fn steady_state_work_per_request_stays_under_ceiling() {
    let live = assembly_live(1024);
    let per_connection = live as f64 / 1024.0;
    let at_128 = assembly_live(128) as f64 / 128.0;
    println!(
        "fanin1024 assembly: {live} B live at time zero, {per_connection:.0} B per connection \
         ({at_128:.0} B at 128 connections)"
    );
    assert!(
        live <= ASSEMBLY_CEILING,
        "fanin1024: {live} B live after assembly ({per_connection:.0} per connection), \
         ceiling {ASSEMBLY_CEILING} ({:.0})",
        ASSEMBLY_CEILING as f64 / 1024.0,
    );
    assert!(
        (per_connection - at_128).abs() <= 0.05 * at_128,
        "a connection costs {per_connection:.0} B at 1024 connections and {at_128:.0} B at 128: \
         per-connection state grows with the connection count"
    );
    for (name, measure, ceiling) in [
        ("star64", star64_count as fn() -> Reading, STAR64_CEILING),
        ("tier4", tier4_count, TIER4_CEILING),
        ("fanin1024", fanin1024_count, FANIN1024_CEILING),
        ("star64_loss", star64_loss_count, STAR64_LOSS_CEILING),
    ] {
        let (got, host_ms, [at_warm, at_end], [segments, slab]) = measure();
        let (again, again_ms, ..) = measure();
        let per_request = |used: i128| used as f64 / got.completed as f64;
        let events: u64 = got.events.iter().sum();
        println!(
            "{name}: {} requests completed, {at_warm} in flight at the start, {at_end} at the end; \
             host {host_ms:.0} ms, {again_ms:.0} ms; \
             {:.3} events and {:.4} client ticks per request (tick share {:.3})",
            got.completed,
            per_request(events.into()),
            per_request(got.ticks.into()),
            got.ticks as f64 / events as f64,
        );
        println!("  high water: {segments} segments in the store, {slab} wheel slab cells");
        for (column, used) in got.columns() {
            println!(
                "  {column:>15} {used:>12} {:>12.4} per request",
                per_request(used)
            );
        }
        assert_eq!(again, got, "{name}: the ledger is not replayable");
        assert!(
            got.completed > 1_000,
            "{name}: only {} requests completed",
            got.completed
        );
        for ((column, used), (_, max)) in got.columns().zip(ceiling.columns()) {
            assert!(
                used * i128::from(ceiling.completed) <= max * i128::from(got.completed),
                "{name}: {used} {column} over {} completed requests in steady state \
                 ({:.4} each), ceiling {max} / {} ({:.4})",
                got.completed,
                per_request(used),
                ceiling.completed,
                max as f64 / ceiling.completed as f64,
            );
        }
    }
}
