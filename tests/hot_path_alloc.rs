//! Steady-state heap allocations and allocated bytes per completed
//! request, end to end.
//!
//! The per-event path (timer wheel, socket rx/tx, CPU and link model,
//! RESP framing, estimator, proxy routing) is commented `// hot-path:`
//! where a function must not allocate per call. This test holds the
//! whole path to that: it installs a counting global allocator, warms a
//! 64-connection star (`NetSim`) and a 4-shard two-tier run (`TierSim`)
//! past their buffers' high-water marks, and counts every allocation
//! over a further stretch of simulated time, per request the clients
//! completed in it. What it measures is what runs, so an allocation
//! planted anywhere on the per-segment path raises the figure, however
//! the call reaching it is spelled. Beside the count it sums the bytes
//! requested (`layout.size()`, and `new_size` on a `realloc`), so a copy
//! of a 16 KiB value shows as what it is even when it reuses a count
//! another path gave up.
//!
//! Each ceiling is the figure the simulator had when the test was
//! written; it may only go down. Both measurements run twice from fresh
//! simulators and must count identically: the simulation is
//! deterministic, so a count that moves between runs is a measurement
//! error, not noise.
//!
//! The file holds exactly one test so no sibling test thread can allocate
//! concurrently and pollute the counter.

// Implementing `GlobalAlloc` is inherently unsafe; the override is scoped
// to this integration test, not the library.
#![expect(unsafe_code, reason = "a counting GlobalAlloc is unsafe to implement")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use e2e_batching::e2e_apps::{
    CostProfile, LancetClient, ProxyApp, RedisServer, ShardRouter, WorkloadSpec,
};
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, CpuContext, EventQueue, FaultConfig, LinkConfig, World};
use e2e_batching::tcpsim::{Host, HostId, NetSim, TcpConfig, TierSim};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn book(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
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
/// and its buffers have reached their working size.
const WARM: Nanos = Nanos::from_millis(60);
/// End of the counted stretch.
const END: Nanos = Nanos::from_millis(160);

/// What the allocator saw over `WARM..END`, and how many requests the
/// clients completed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    allocs: u64,
    bytes: u64,
    completed: u64,
}

/// Ceilings as the ledger that set them: each column's ratio to
/// `completed` is a ceiling, kept exact so that one extra allocation per
/// thousand requests, or one extra byte per request, already fails.
const STAR64_CEILING: Ledger = Ledger {
    allocs: 25_768, // 4.00 per request
    bytes: 106_497_638, // 16 549 per request: the 16 430-byte request, ~120 B more
    completed: 6_435,
};
const TIER4_CEILING: Ledger = Ledger {
    allocs: 10_497, // 9.13 per request
    bytes: 1_577_468, // 1 372 per request
    completed: 1_150,
};

fn client_host(i: usize, profile: &CostProfile, tcp: TcpConfig) -> Host {
    Host::new(
        HostId::from_index(i),
        CpuContext::new("client-app"),
        CpuContext::new("client-softirq"),
        profile.client_stack,
        tcp,
    )
}

/// The 64-client star of `tests/fanin.rs`, at 64 kRPS in total.
fn star64() -> NetSim<LancetClient, RedisServer> {
    let n = 64;
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig::default();
    let clients = (0..n)
        .map(|_| LancetClient::new(WorkloadSpec::fig4a(1_000.0), profile.app, tcp, WARM, END))
        .collect();
    let client_hosts = (0..n).map(|i| client_host(i, &profile, tcp)).collect();
    let server_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("server-app"),
        CpuContext::new("server-softirq"),
        profile.server_stack,
        tcp,
    );
    let server = RedisServer::new(profile.app);
    NetSim::star(clients, server, client_hosts, server_host, LinkConfig::default(), 0x0A11_0C64)
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
    let shard_ids = (0..k).map(|j| HostId::from_index(n + 1 + j)).collect();
    let proxy = ProxyApp::new(profile.app, tcp, shard_ids, ShardRouter::new(k, 0x0A11_0C04));
    let shards = (0..k).map(|_| RedisServer::new(profile.app)).collect();
    let client_hosts = (0..n).map(|i| client_host(i, &profile, tcp)).collect();
    let proxy_host = Host::new(
        HostId::from_index(n),
        CpuContext::new("proxy-app"),
        CpuContext::new("proxy-softirq"),
        profile.client_stack,
        tcp,
    );
    let shard_hosts = (0..k)
        .map(|j| {
            Host::new(
                HostId::from_index(n + 1 + j),
                CpuContext::new("shard-app"),
                CpuContext::new("shard-softirq"),
                profile.server_stack,
                tcp,
            )
        })
        .collect();
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

/// Runs `sim` to `WARM`, then counts allocations, allocated bytes and
/// completed requests over `WARM..END`.
fn count<W: World>(
    mut sim: W,
    start: impl FnOnce(&mut W, &mut EventQueue<W::Event>),
    completed: impl Fn(&W) -> u64,
) -> Ledger {
    let mut queue = EventQueue::new();
    start(&mut sim, &mut queue);
    run(&mut sim, &mut queue, WARM);
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let done = completed(&sim);
    run(&mut sim, &mut queue, END);
    Ledger {
        allocs: ALLOCS.load(Ordering::SeqCst) - allocs,
        bytes: BYTES.load(Ordering::SeqCst) - bytes,
        completed: completed(&sim) - done,
    }
}

fn star64_count() -> Ledger {
    count(star64(), |s, q| s.start(q), |s| s.clients.iter().map(|c| c.completed).sum())
}

fn tier4_count() -> Ledger {
    count(tier4(), |s, q| s.start(q), |s| s.clients.iter().map(|c| c.completed).sum())
}

#[test]
fn steady_state_allocations_per_request_stay_under_ceiling() {
    for (name, measure, ceiling) in [
        ("star64", star64_count as fn() -> Ledger, STAR64_CEILING),
        ("tier4", tier4_count, TIER4_CEILING),
    ] {
        let got = measure();
        assert_eq!(measure(), got, "{name}: allocation count is not replayable");
        assert!(got.completed > 1_000, "{name}: only {} requests completed", got.completed);
        for (column, used, max) in [
            ("allocations", got.allocs, ceiling.allocs),
            ("allocated bytes", got.bytes, ceiling.bytes),
        ] {
            assert!(
                u128::from(used) * u128::from(ceiling.completed)
                    <= u128::from(max) * u128::from(got.completed),
                "{name}: {used} {column} over {} completed requests in steady state \
                 ({:.4} each), ceiling {max} / {} ({:.4})",
                got.completed,
                used as f64 / got.completed as f64,
                ceiling.completed,
                max as f64 / ceiling.completed as f64,
            );
        }
    }
}
