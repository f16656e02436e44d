//! Layer probes: isolated public calls, host ns per call.
//!
//! `crates/bench/benches/micro.rs` covers the counters, the wire codec,
//! one estimator update and RESP parsing. These add what the traced
//! arms spend their time in beyond that — leg composition, exchange
//! validation, the retry policy, ring routing, the 1024-connection
//! aggregate, the timer wheel at two occupancies — so an arm's
//! `ns_per_event` can be set against the calls it is made of. Each
//! figure is the median of [`BATCHES`] timed batches.

use std::hint::black_box;
use std::time::Instant;

use batchpolicy::{
    AimdBatchLimit, AttemptKind, BatchToggler, BreakerConfig, CircuitBreaker, ControlPlane,
    DelAckToggler, EpsilonGreedy, Objective, RetryConfig, RetryPolicy, StaticToggler,
    TickController,
};
use e2e_apps::kv::KvStore;
use e2e_apps::resp::{encode_set, Command, CommandParser};
use e2e_apps::ShardRouter;
use e2e_core::combine::EndpointSnapshots;
use e2e_core::{
    compose_two, DelaySet, E2eEstimator, Estimate, EstimatorRegistry, ExchangeValidator,
    ValidateConfig, ValidateCtx,
};
use littles::wire::{WireExchange, WireScale};
use littles::{Nanos, QueueState, Snapshot};
use simnet::wheel::TimerWheel;
use simnet::Histogram;
use tcpsim::Payload;

const BATCHES: usize = 9;

/// Median ns per call of `f` over [`BATCHES`] batches of `iters` calls,
/// after one untimed batch.
fn probe<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call = [0f64; BATCHES];
    for slot in &mut per_call {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *slot = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[BATCHES / 2]
}

/// A queue snapshot `step` ticks of 1 ms into a steady 50-items-per-tick
/// flow with ~3 ms of delay.
fn queue_snapshot(step: u64) -> Snapshot {
    let t = step * 1_000_000;
    Snapshot {
        time: Nanos::from_nanos(t),
        total: step * 50,
        integral: t as u128 * 150,
    }
}

fn endpoint(step: u64) -> EndpointSnapshots {
    let s = queue_snapshot(step);
    EndpointSnapshots {
        unacked: s,
        unread: s,
        ackdelay: s,
    }
}

fn wire_exchange(step: u64) -> WireExchange {
    let s = queue_snapshot(step);
    WireExchange::pack(&s, &s, &s, WireScale::UNSCALED)
}

fn estimate(step: u64) -> Estimate {
    let lat = Nanos::from_micros(100 + step % 50);
    Estimate {
        at: Nanos::from_millis(step),
        latency: lat,
        smoothed_latency: lat,
        throughput: 50_000.0,
        local_view: lat,
        remote_view: lat,
        confidence: 1.0,
        remote_stale: false,
        components: DelaySet {
            unacked_near: Nanos::from_micros(20),
            ackdelay_far: Nanos::from_micros(10),
            unread_near: Nanos::from_micros(30),
            unread_far: Nanos::from_micros(40),
        },
    }
}

/// A registry holding `conns` connections with an estimate each.
fn registry(conns: u64) -> EstimatorRegistry {
    let mut reg = EstimatorRegistry::new(WireScale::UNSCALED, 1.0);
    for step in 1..=3 {
        for conn in 0..conns {
            reg.update(
                conn,
                Nanos::from_millis(step),
                endpoint(step),
                Some(wire_exchange(step)),
            );
        }
    }
    reg
}

/// One pop + one schedule with `resident` timers in the wheel, 1 µs
/// apart: the event loop's steady state at that occupancy.
fn wheel_cycle(resident: u64, iters: u64) -> f64 {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    for i in 0..resident {
        wheel.schedule((i + 1) * 1_000, i);
    }
    probe(iters, || {
        let (at, id) = wheel.pop().expect("the wheel stays full");
        wheel.schedule(at + resident * 1_000, black_box(id));
    })
}

/// Runs every probe; names match the per-layer table.
pub fn run_probes() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let mut q = QueueState::new(Nanos::ZERO);
    let mut t = 0u64;
    out.push((
        "littles.track_ns",
        probe(200_000, || {
            t += 100;
            q.track(Nanos::from_nanos(t), 1);
            q.track(Nanos::from_nanos(t + 50), -1);
        }) / 2.0,
    ));
    let ex = wire_exchange(7);
    out.push((
        "littles.wire_encode_ns",
        probe(200_000, || {
            black_box(black_box(&ex).encode_tagged());
        }),
    ));
    let bytes = ex.encode_tagged();
    out.push((
        "littles.wire_decode_ns",
        probe(200_000, || {
            black_box(WireExchange::try_decode_tagged(black_box(&bytes)).ok());
        }),
    ));

    out.push(("simnet.wheel.cycle_ns.pop64", wheel_cycle(64, 100_000)));
    out.push(("simnet.wheel.cycle_ns.pop64k", wheel_cycle(65_536, 100_000)));
    let mut hist = Histogram::new();
    let mut v = 1u64;
    out.push((
        "simnet.hist.record_ns",
        probe(200_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(Nanos::from_nanos(v >> 40));
        }),
    ));

    let mut est = E2eEstimator::new(WireScale::UNSCALED, 0.3);
    let mut step = 0u64;
    out.push((
        "core.estimator_update_ns",
        probe(50_000, || {
            step += 1;
            black_box(est.update(
                Nanos::from_millis(step),
                endpoint(step),
                Some(wire_exchange(step)),
            ));
        }),
    ));
    let (front, back) = (registry(8).aggregate(), registry(1).aggregate());
    let (front, back) = (
        front.expect("front estimates"),
        back.expect("back estimates"),
    );
    out.push((
        "core.compose_two_ns",
        probe(200_000, || {
            black_box(compose_two(black_box(&front), black_box(&back)));
        }),
    ));
    let mut validator = ExchangeValidator::new(ValidateConfig::default());
    let ctx = ValidateCtx {
        srtt: Some(Nanos::from_micros(60)),
        local: None,
    };
    let mut step = 1u64;
    out.push((
        "core.validate_ns",
        probe(100_000, || {
            step += 1;
            black_box(validator.admit(
                &wire_exchange(step - 1),
                &wire_exchange(step),
                WireScale::UNSCALED,
                &ctx,
            ));
        }),
    ));
    let wide = registry(1024);
    out.push((
        "core.aggregate1024_ns",
        probe(500, || {
            black_box(black_box(&wide).aggregate());
        }),
    ));

    let greedy = |seed| EpsilonGreedy::new(Objective::MinLatency, 0.05, 4, 0.4, seed);
    let mut plane = ControlPlane::new(greedy(1), 8)
        .with_delack(DelAckToggler::new(greedy(2), Nanos::from_millis(40)))
        .with_cork(AimdBatchLimit::new(
            Objective::MinLatency,
            0,
            0,
            65_536,
            1_448,
        ));
    let mut step = 0u64;
    out.push((
        "policy.plane_decide_ns",
        probe(100_000, || {
            step += 1;
            black_box(plane.decide(&estimate(step)));
        }),
    ));
    let mut retry = RetryPolicy::new(RetryConfig::default());
    let mut id = 0u64;
    out.push((
        "policy.retry_scan_ns",
        probe(200_000, || {
            id += 1;
            retry.on_request();
            let now = Nanos::from_micros(id);
            black_box(retry.attempt_deadline(now));
            black_box(retry.hedge_delay(Some(Nanos::from_micros(200))));
            black_box(retry.request_attempt(AttemptKind::Retry, 1, id));
        }),
    ));
    let breaker = CircuitBreaker::new(StaticToggler::always_off(), BreakerConfig::default());
    let mut ticked = TickController::new(breaker, Nanos::from_millis(1));
    let mut step = 0u64;
    out.push((
        "policy.breaker_offer_ns",
        probe(200_000, || {
            step += 1;
            black_box(ticked.offer(Nanos::from_millis(step), &estimate(step)));
        }),
    ));

    let wire = encode_set(&[b'k'; 16], &vec![7u8; 16 * 1024]);
    out.push((
        "apps.resp_parse_set16k_ns",
        probe(5_000, || {
            let mut p = CommandParser::new();
            p.feed(&wire);
            black_box(p.next_command());
        }),
    ));
    let router = ShardRouter::new(4, 0xBE7C);
    let keys: Vec<String> = (0..256).map(|i| format!("key:{i:012}")).collect();
    let mut i = 0usize;
    out.push((
        "apps.ring_route_ns",
        probe(200_000, || {
            i = (i + 1) % keys.len();
            black_box(router.route(keys[i].as_bytes()));
        }),
    ));
    let mut kv = KvStore::new();
    let payloads: Vec<Payload> = keys.iter().map(|k| Payload::from(k.as_bytes())).collect();
    let value = Payload::from(vec![7u8; 512]);
    let mut i = 0usize;
    out.push((
        "apps.kv_set_ns",
        probe(100_000, || {
            i = (i + 1) % payloads.len();
            black_box(kv.execute(Command::Set {
                key: payloads[i].clone(),
                value: value.clone(),
                id: None,
            }));
        }),
    ));

    out
}
