//! Long-horizon soak: the 32-bit wire clock wraps and nobody notices.
//!
//! Under the default `WireScale` (`time_shift = 10`) the u32 time field
//! of a wire snapshot wraps at `2^42 ns ≈ 4398 s ≈ 73.3 min` of
//! simulated time. The exchange path, the estimator's wrapping-delta
//! arithmetic, and the peer-state validator must all ride through that
//! wrap without a glitch: no spurious rejections, no epoch confusion,
//! and estimates that keep flowing on the far side.

use e2e_batching::e2e_apps::driver::EstimateRecorder;
use e2e_batching::e2e_apps::harness::star_hosts;
use e2e_batching::e2e_apps::{CostProfile, LancetClient, RedisServer, WorkloadSpec};
use e2e_batching::e2e_core::ValidateConfig;
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::{run, EventQueue, LinkConfig};
use e2e_batching::tcpsim::config::ExchangeConfig;
use e2e_batching::tcpsim::{NetSim, TcpConfig, Unit};

/// Where the default-scale wire clock wraps: `(u32::MAX + 1) << 10` ns.
const WIRE_WRAP: Nanos = Nanos::from_nanos(1u64 << 42);

/// One client at `rate` requests/s against one server until `end`, the
/// client carrying a validating byte-unit recorder ticked every `tick`.
fn soak(rate: f64, tick: Nanos, warmup: Nanos, end: Nanos) -> NetSim<LancetClient, RedisServer> {
    let profile = CostProfile::calibrated();
    let tcp = TcpConfig {
        exchange: ExchangeConfig {
            enabled: true,
            min_interval: Nanos::from_micros(500),
            units: [true, false, true],
        },
        ..TcpConfig::default()
    };

    let client = LancetClient::new(WorkloadSpec::fig4a(rate), profile.app, tcp, warmup, end)
        .with_tick_period(tick)
        .with_recorder(EstimateRecorder::new(Unit::Bytes).with_validation(ValidateConfig));
    let server = RedisServer::new(profile.app);
    let (hosts, server_host) = star_hosts(1, &profile, tcp);
    let link = LinkConfig::default();
    let mut sim = NetSim::star(vec![client], server, hosts, server_host, link, 0x73_317);
    let mut queue = EventQueue::new();
    sim.start(&mut queue);
    run(&mut sim, &mut queue, end);
    sim
}

/// Runs a single low-rate connection from before the wire-clock wrap to
/// comfortably past it, with validation on, and checks the metadata
/// plane never hiccuped.
#[test]
fn estimator_and_validator_survive_u32_wire_clock_wrap() {
    // ~73.5 minutes of virtual time. A low request rate and a coarse
    // estimator tick keep the event count (and the test's wall clock)
    // manageable; the wire clock advances with virtual time regardless.
    let warmup = Nanos::from_secs(1);
    let end = WIRE_WRAP + Nanos::from_secs(10);
    let rate = 200.0;
    let sim = soak(rate, Nanos::from_millis(5), warmup, end);

    let lg = &sim.clients[0];
    let expected = rate * (end - warmup).as_secs_f64();
    assert!(
        (lg.completed as f64) > 0.9 * expected,
        "only {} of ~{expected:.0} requests completed",
        lg.completed
    );

    // The metadata plane must have stayed healthy across the wrap. A
    // garbled wrap would surface as *time* rejections (the wrapping
    // delta landing in the regressed half-range), *delay* rejections
    // (integral deltas torn across the wrap), or a phantom epoch change
    // — all of which must be exactly zero. The throughput check is
    // allowed a tiny tail: at 200 rps a 500 µs exchange window
    // occasionally catches a whole 16 KiB write against a near-idle
    // local reference rate, an instantaneous-burst artifact of the
    // plausibility heuristic that is uniform over the run and unrelated
    // to the clock wrap.
    let recorder = &lg.recorders[0];
    let stats = recorder
        .validation_stats()
        .expect("validator was configured");
    assert!(
        stats.accepted > 100_000,
        "soak should accept a large stream of exchanges, got {}",
        stats.accepted
    );
    assert_eq!(
        stats.time, 0,
        "wire-clock wrap must not look like a regressed clock: {stats:?}"
    );
    assert_eq!(
        stats.delay, 0,
        "wire-clock wrap must not tear the queue integrals: {stats:?}"
    );
    assert_eq!(
        stats.epoch_changes, 0,
        "wire-clock wrap must not look like a peer restart: {stats:?}"
    );
    assert_eq!(
        stats.rejected, stats.throughput,
        "only instantaneous-burst throughput rejections are expected: {stats:?}"
    );
    assert!(
        (stats.rejected as f64) < 0.002 * (stats.accepted as f64),
        "throughput false-positive tail should be marginal: {stats:?}"
    );

    // Estimates keep flowing on the far side of the wrap, and stay sane.
    let after_wrap = recorder
        .mean_latency_in(WIRE_WRAP, end)
        .expect("estimates past the wire-clock wrap");
    assert!(
        after_wrap > Nanos::from_micros(10) && after_wrap < Nanos::from_millis(10),
        "implausible post-wrap estimate {after_wrap}"
    );
    // And the sides agree: the wrap did not skew the estimate relative
    // to the pre-wrap regime at the same offered load.
    let before_wrap = recorder
        .mean_latency_in(Nanos::from_secs(1), Nanos::from_secs(60))
        .expect("estimates before the wrap");
    let ratio = after_wrap.as_nanos() as f64 / before_wrap.as_nanos() as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "estimate shifted across the wrap: before {before_wrap}, after {after_wrap}"
    );
}

/// A long-lived, mostly idle connection must not pay for the ticks it
/// sits through: the recorder's checkpoints grow with the exchanges the
/// peer sends, not with elapsed time.
#[test]
fn recorder_checkpoints_grow_with_exchanges_not_ticks() {
    let tick = Nanos::from_micros(500);
    let end = Nanos::from_secs(4);
    let sim = soak(25.0, tick, Nanos::from_millis(100), end);

    let lg = &sim.clients[0];
    let recorder = &lg.recorders[0];
    let ticks = end.as_nanos() / tick.as_nanos();
    let sock = lg.sock.expect("client connected");
    let exchanges = sim.host(0).socket(sock).remote().received;
    assert!(
        lg.completed > 50 && exchanges > 50,
        "the connection carried traffic"
    );
    assert!(
        recorder
            .mean_latency_in(Nanos::from_millis(100), end)
            .is_some(),
        "estimates were recorded"
    );

    let checkpoints = recorder.checkpoints().count() as u64;
    assert!(
        checkpoints <= 4 * exchanges,
        "{checkpoints} checkpoints for {exchanges} exchanges"
    );
    assert!(
        checkpoints * 10 < ticks,
        "{checkpoints} checkpoints over {ticks} ticks: they still grow per tick"
    );
}
