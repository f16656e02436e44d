//! The qualitative shapes of the paper's evaluation figures.
//!
//! These tests pin the *shape* claims — who wins where, that the cutoff
//! exists, that the SLO range extends, that byte-unit estimates break on
//! mixed sizes — on small, fast sweeps. EXPERIMENTS.md records the full
//! high-resolution runs.

use e2e_batching::e2e_apps::experiments::PAPER_SLO;
use e2e_batching::e2e_apps::{run_point, run_sweep, NagleSetting, RunConfig, WorkloadSpec};
use e2e_batching::littles::Nanos;

fn base(rate: f64) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(100),
        measure: Nanos::from_millis(400),
        ..RunConfig::new(WorkloadSpec::fig4a(rate), NagleSetting::Off)
    }
}

#[test]
fn fig4a_nagle_hurts_at_low_load_and_penalty_shrinks() {
    // Left side of Figure 4a: batching is counterproductive at low load,
    // and the penalty decreases as load grows (held tails fill sooner).
    let mut penalties = Vec::new();
    for rate in [5_000.0, 20_000.0, 60_000.0] {
        let off = run_point(&RunConfig {
            nagle: NagleSetting::Off,
            ..base(rate)
        });
        let on = run_point(&RunConfig {
            nagle: NagleSetting::On,
            ..base(rate)
        });
        let off_us = off.measured_mean.unwrap().as_micros_f64();
        let on_us = on.measured_mean.unwrap().as_micros_f64();
        assert!(
            on_us > off_us,
            "at {rate} RPS Nagle must still hurt: on {on_us} vs off {off_us}"
        );
        penalties.push(on_us - off_us);
    }
    assert!(
        penalties[0] > penalties[1] && penalties[1] > penalties[2],
        "Nagle's penalty must shrink with load: {penalties:?}"
    );
}

#[test]
fn fig4a_cutoff_exists_and_estimates_find_it() {
    let rates = [20_000.0, 60_000.0, 80_000.0, 85_000.0];
    let sweep = run_sweep(&rates, WorkloadSpec::fig4a, &base(rates[0]), false);
    let measured = sweep.cutoff_rate().expect("a measured cutoff exists");
    let estimated = sweep.estimated_cutoff_rate().expect("an estimated cutoff");
    assert!(
        measured >= 60_000.0,
        "cutoff should sit past mid-load, got {measured}"
    );
    // Figure 4a's second key claim: the estimated cutoff coincides with
    // the measured one (within one grid step here).
    let m_idx = rates.iter().position(|r| r.to_bits() == measured.to_bits()).unwrap();
    let e_idx = rates.iter().position(|r| r.to_bits() == estimated.to_bits()).unwrap();
    assert!(
        m_idx.abs_diff(e_idx) <= 1,
        "cutoffs should coincide: measured {measured}, estimated {estimated}"
    );
}

#[test]
fn fig4a_nagle_extends_the_slo_range() {
    let rates = [70_000.0, 85_000.0, 95_000.0, 105_000.0, 115_000.0];
    let sweep = run_sweep(&rates, WorkloadSpec::fig4a, &base(rates[0]), false);
    let off = sweep
        .sustainable_rate(PAPER_SLO, |r| &r.off)
        .expect("off sustains something");
    let on = sweep
        .sustainable_rate(PAPER_SLO, |r| &r.on)
        .expect("on sustains something");
    assert!(
        on >= off * 1.2,
        "Nagle must extend the 500 µs range: off {off}, on {on}"
    );
}

#[test]
fn fig4a_latency_improvement_near_the_knee() {
    // Paper: at the highest rate both configurations sustain, batching
    // cuts latency several-fold (2.80x on their testbed).
    let rate = 85_000.0;
    let off = run_point(&RunConfig {
        nagle: NagleSetting::Off,
        ..base(rate)
    });
    let on = run_point(&RunConfig {
        nagle: NagleSetting::On,
        ..base(rate)
    });
    let ratio = off.measured_mean.unwrap().as_micros_f64()
        / on.measured_mean.unwrap().as_micros_f64();
    assert!(
        ratio > 1.5,
        "expected a multi-x latency win near the knee, got {ratio:.2}x"
    );
}

#[test]
fn fig4b_byte_estimate_diverges_but_hint_stays_accurate() {
    // Figure 4b: with 5% GETs (large responses), byte-weighted estimates
    // mislead while hints remain faithful. The mechanism this simulator
    // captures shows under batching: corking holds the 95% tiny SET
    // responses (driving per-request latency up) while the large GET
    // responses overflow the cork and flush immediately — and since GET
    // bytes are ~99% of response bytes, the byte-weighted estimate tracks
    // the fast large transfers and *underestimates*, the dangerous
    // direction for a batching policy. (With batching off the links are
    // symmetric and GET ≈ SET latency, so byte units happen to be
    // harmless there.)
    let rate = 70_000.0;
    let mixed = run_point(&RunConfig {
        workload: WorkloadSpec::fig4b(rate),
        nagle: NagleSetting::On,
        ..base(rate)
    });
    let measured = mixed.measured_mean.unwrap().as_micros_f64();
    let bytes = mixed.estimated_bytes.unwrap().as_micros_f64();
    let hint = mixed.estimated_hint.unwrap().as_micros_f64();
    assert!(
        (measured - bytes) / measured > 0.3,
        "byte estimate should badly underestimate on the mixed workload: \
         bytes {bytes:.0} vs measured {measured:.0}"
    );
    assert!(
        (hint - measured).abs() / measured < 0.15,
        "hints must stay accurate: hint {hint:.0} vs measured {measured:.0}"
    );

    // The divergence is a *unit* problem, not generic estimator error:
    // the uniform-size workload at the same rate and setting stays much
    // closer.
    let uniform = run_point(&RunConfig {
        nagle: NagleSetting::On,
        ..base(rate)
    });
    let u_meas = uniform.measured_mean.unwrap().as_micros_f64();
    let u_bytes = uniform.estimated_bytes.unwrap().as_micros_f64();
    let u_err = (u_meas - u_bytes).abs() / u_meas;
    assert!(
        (measured - bytes) / measured > u_err * 1.5,
        "mixing sizes must worsen the byte estimate: mixed {:.2} vs uniform {u_err:.2}",
        (measured - bytes) / measured
    );
}

#[test]
fn fig2_client_cpu_up_server_cpu_flat() {
    use e2e_batching::e2e_apps::experiments::figure2;
    let data = figure2(
        20_000.0,
        Nanos::from_millis(100),
        Nanos::from_millis(400),
        7,
    );
    let cpu_ratio = data.client_cpu_ratio();
    assert!(
        cpu_ratio > 1.8,
        "(a) VM client must burn much more CPU, got {cpu_ratio:.2}x"
    );
    let server_ratio = data.server_cpu_ratio();
    assert!(
        (server_ratio - 1.0).abs() < 0.1,
        "(b) server CPU must be unchanged, got {server_ratio:.2}x"
    );
    // (c) the Nagle penalty grows with the client's processing cost (the
    // direction of Figure 1's c-dependence; see EXPERIMENTS.md for the
    // sign-flip discussion).
    let delta = |platform: &str| {
        let get = |on: bool| {
            data.cells
                .iter()
                .find(|c| c.platform == platform && c.nagle_on == on)
                .unwrap()
                .result
                .measured_mean
                .unwrap()
                .as_micros_f64()
        };
        get(true) - get(false)
    };
    assert!(
        delta("vm") > delta("bare"),
        "Nagle's penalty must grow with client cost: bare {:.1} vs vm {:.1}",
        delta("bare"),
        delta("vm")
    );
}
