//! Micro-benchmarks for the measurement primitives.
//!
//! The paper's premise is that the counters are "easily maintained" —
//! cheap enough to update on every socket-buffer change. This suite
//! quantifies what the repo benchmark's probes (`benchmark/benches/
//! probes.rs`: TRACK, the wire encode/decode, a full estimator update,
//! RESP parsing) do not: snapshotting, GETAVGS, packing one wire
//! snapshot, a plain recorder's tick over a static socket and over one
//! with a fresh exchange (cache-cold, as at N = 1024), one socket-timer
//! re-arm, the change-watch check at the head of every socket action
//! batch, and an EWMA update.
//!
//! Uses a small hand-rolled harness (median of timed batches) instead of
//! criterion: the workspace builds with no registry dependencies.
//!
//! ```sh
//! cargo bench -p bench --bench micro
//! ```

use std::hint::black_box;
use std::time::Instant;

use e2e_apps::driver::EstimateRecorder;
use littles::wire::{WireExchange, WireScale, WireSnapshot};
use littles::{Ewma, Nanos, QueueState, Snapshot};
use simnet::{CpuContext, EventQueue};
use tcpsim::segment::{E2eOption, Flags, OptionSlot};
use tcpsim::seq::SeqNum;
use tcpsim::{
    Actions, CostConfig, Event, FlowId, Host, HostId, Segment, SocketId, TcpConfig, TcpSocket,
    TimerKind, TxEnv, Unit,
};

/// Times `f` over batches of `iters` calls and prints the median ns/iter.
#[expect(
    clippy::disallowed_methods,
    reason = "a micro-benchmark times host work"
)]
fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) {
    // Warmup.
    for _ in 0..iters / 4 {
        f();
    }
    const BATCHES: usize = 9;
    let mut per_iter = [0f64; BATCHES];
    for slot in per_iter.iter_mut() {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *slot = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{name:<28} {:>10.1} ns/iter (median of {BATCHES} batches x {iters})",
        per_iter[BATCHES / 2]
    );
}

fn bench_snapshot_and_averages() {
    let mut q = QueueState::new(Nanos::ZERO);
    q.track(Nanos::from_micros(1), 10);
    bench("peek_snapshot", 1_000_000, || {
        black_box(q.peek(Nanos::from_micros(2)));
    });
    let prev = Snapshot {
        time: Nanos::from_micros(100),
        total: 1_000,
        integral: 5_000_000,
    };
    let cur = Snapshot {
        time: Nanos::from_micros(1_100),
        total: 2_000,
        integral: 9_000_000,
    };
    bench("getavgs", 1_000_000, || {
        black_box(cur.averages_since(&prev));
    });
}

fn bench_wire_pack() {
    let snap = Snapshot {
        time: Nanos::from_micros(12_345),
        total: 777,
        integral: 123_456_789,
    };
    bench("wire_pack_snapshot", 1_000_000, || {
        black_box(WireSnapshot::pack(&snap, WireScale::default()));
    });
}

/// A bare segment carrying the peer's byte-unit exchange as of `now`.
fn exchange_segment(now: Nanos) -> Segment {
    let t = now.as_nanos();
    let snap = Snapshot {
        time: now,
        total: t / 10_000,
        integral: (t as u128) * 3,
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

/// One plain `EstimateRecorder::tick` per connection, swept round-robin
/// over 1024 connections so that — as in the N = 1024 fan-in — each tick
/// finds its recorder and its socket out of cache. This is the row to hold
/// against the benchmark's `apps.app_call.client.ns_per_event`: `static`
/// leaves the sockets untouched between sweeps, as a client with a seat
/// ticks its recorders between exchanges; `fresh` moves a queue and
/// delivers a fresh exchange on every socket before each sweep (untimed),
/// so every tick after the first folds it into a checkpoint — the tick a
/// parked recorder-only client wakes for.
#[expect(
    clippy::disallowed_methods,
    reason = "times each sweep's ticks alone, not the untimed setup"
)]
fn bench_recorder_tick() {
    const CONNS: usize = 1024;
    const SWEEPS: u64 = 200;
    const BATCHES: usize = 9;
    let period = Nanos::from_micros(500);

    for fresh in [false, true] {
        let mut actions = Actions::new();
        let mut socks: Vec<TcpSocket> = (0..CONNS)
            .map(|i| {
                TcpSocket::client(
                    FlowId(i as u64),
                    TcpConfig::default(),
                    Nanos::ZERO,
                    &mut actions,
                )
            })
            .collect();
        let mut recorders: Vec<EstimateRecorder> = (0..CONNS)
            .map(|_| EstimateRecorder::new(Unit::Bytes))
            .collect();
        let mut now = Nanos::ZERO;
        let mut per_tick = [0f64; BATCHES];
        for slot in per_tick.iter_mut() {
            let mut timed = 0u128;
            for _ in 0..SWEEPS {
                now += period;
                if fresh {
                    let seg = exchange_segment(now);
                    for sock in socks.iter_mut() {
                        let q = &mut sock.queues_mut().unacked;
                        q.track(now, 1_448, 0);
                        q.track(now, -1_448, 0);
                        actions.clear();
                        sock.on_segment(now, &seg, TxEnv::default(), &mut actions);
                    }
                }
                let start = Instant::now();
                for (rec, sock) in recorders.iter_mut().zip(&socks) {
                    rec.tick_socket(now, sock);
                }
                timed += start.elapsed().as_nanos();
            }
            *slot = timed as f64 / (SWEEPS * CONNS as u64) as f64;
        }
        per_tick.sort_by(|a, b| a.total_cmp(b));
        let name = if fresh {
            "recorder_tick_fresh"
        } else {
            "recorder_tick_quiet"
        };
        println!(
            "{name:<28} {:>10.1} ns/iter (median of {BATCHES} batches x {SWEEPS} sweeps of {CONNS})",
            per_tick[BATCHES / 2]
        );
        // The first tick takes the baseline; with fresh exchanges every
        // later one is a checkpoint, without any none is.
        let ticks = BATCHES as u64 * SWEEPS;
        for rec in &recorders {
            let expected = if fresh { ticks - 1 } else { 0 };
            assert_eq!(rec.checkpoints().count() as u64, expected);
        }
    }
}

/// The check at the head of `apply_actions` — has a continuation parked on
/// this socket been overtaken by an arrival? — round-robin
/// over 1 024 sockets, none of which has changed: with no watch armed (a
/// server, a busy client) and with one on every socket (a fan-in of
/// sleeping clients).
fn bench_change_watch() {
    const SOCKS: usize = 1024;
    for armed in [false, true] {
        let id = HostId::from_index(0);
        let mut host = Host::new(
            id,
            CpuContext::new("app"),
            CpuContext::new("softirq"),
            CostConfig::default(),
            TcpConfig::default(),
        );
        let mut actions = Actions::new();
        let mut queue: EventQueue<Event> = EventQueue::new();
        for i in 0..SOCKS {
            let flow = FlowId(i as u64);
            let sock = host.add_socket(TcpSocket::client(
                flow,
                TcpConfig::default(),
                Nanos::ZERO,
                &mut actions,
            ));
            if armed {
                let event = Event::AppCall { host: id, token: 3 };
                host.arm_watch(
                    sock,
                    &mut queue,
                    Nanos::from_micros(500),
                    Nanos::from_secs(1),
                    3,
                    event,
                );
            }
        }
        let mut next = 0;
        let name = if armed {
            "change_watch_check_armed"
        } else {
            "change_watch_check_idle"
        };
        bench(name, 1_000_000, || {
            black_box(host.take_changed_watch(SocketId(next), &mut queue));
            next = (next + 1) % SOCKS;
        });
        assert_eq!(
            queue.len(),
            if armed { SOCKS } else { 0 },
            "nothing changed, nothing fired"
        );
    }
}

/// One RTO re-arm as `apply_actions` performs it on every ACK: cancel the
/// socket's pending `Event::Timer` (unlinking its cell from the wheel) and
/// schedule the next one 200 ms ahead, round-robin over 1 024 sockets that
/// each hold a live timer. This is the per-ACK cost that used to be paid at
/// pop time (a dead event cascading down the wheel and dispatching as a
/// no-op); hold it against the benchmark's `tcpsim.softirq_rx.ns_per_event`.
fn bench_timer_rearm() {
    const TIMERS: usize = 1024;
    let id = HostId::from_index(0);
    let mut host = Host::new(
        id,
        CpuContext::new("app"),
        CpuContext::new("softirq"),
        CostConfig::default(),
        TcpConfig::default(),
    );
    let mut actions = Actions::new();
    for i in 0..TIMERS {
        let flow = FlowId(i as u64);
        host.add_socket(TcpSocket::client(
            flow,
            TcpConfig::default(),
            Nanos::ZERO,
            &mut actions,
        ));
    }
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut next = 0;
    let mut rearm = || {
        let sock = SocketId(next);
        next = (next + 1) % TIMERS;
        let event = Event::Timer {
            host: id,
            sock,
            kind: TimerKind::Rto,
        };
        host.arm_timer(
            sock,
            TimerKind::Rto,
            &mut queue,
            Nanos::from_millis(200),
            event,
        );
    };
    (0..TIMERS).for_each(|_| rearm());
    bench("timer_rearm", 1_000_000, rearm);
    assert_eq!(queue.len(), TIMERS, "a re-arm replaces, it does not add");
}

fn bench_ewma() {
    let mut e = Ewma::new(0.3);
    let mut x = 1.0;
    bench("ewma_update", 1_000_000, || {
        x += 0.1;
        black_box(e.update(x));
    });
}

fn main() {
    bench_snapshot_and_averages();
    bench_wire_pack();
    bench_recorder_tick();
    bench_timer_rearm();
    bench_change_watch();
    bench_ewma();
}
