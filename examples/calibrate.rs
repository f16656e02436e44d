//! Calibration probe: prints the Figure 4a sweep as a table.

use e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};
use littles::Nanos;

fn main() {
    let rates: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("rate"))
        .collect();
    let rates = if rates.is_empty() {
        vec![
            5e3, 10e3, 20e3, 40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3,
        ]
    } else {
        rates
    };
    println!(
        "{:>8} | {:>9} {:>9} {:>9} {:>7} | {:>9} {:>9} {:>9} {:>7} | srv-app-off srv-app-on cli-app-off",
        "rate", "off-meas", "off-est", "off-hint", "off-ach", "on-meas", "on-est", "on-hint", "on-ach"
    );
    for &rate in &rates {
        let mk = |nagle| RunConfig {
            warmup: Nanos::from_millis(100),
            measure: Nanos::from_millis(400),
            ..RunConfig::new(WorkloadSpec::fig4a(rate), nagle)
        };
        let off = run_point(&mk(NagleSetting::Off));
        let on = run_point(&mk(NagleSetting::On));
        let us = |o: Option<Nanos>| o.map(|n| n.as_micros_f64()).unwrap_or(-1.0);
        println!(
            "{:>8.0} | {:>9.1} {:>9.1} {:>9.1} {:>7.0} | {:>9.1} {:>9.1} {:>9.1} {:>7.0} | {:.2} {:.2} {:.2}",
            rate,
            us(off.measured_mean), us(off.estimated_bytes), us(off.estimated_hint), off.achieved_rps,
            us(on.measured_mean), us(on.estimated_bytes), us(on.estimated_hint), on.achieved_rps,
            off.server_cpu.app, on.server_cpu.app, off.client_cpu.app,
        );
    }
}
