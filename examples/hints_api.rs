//! The cooperative-application hint API (paper §3.3), end to end.
//!
//! A cooperative client wraps its request loop with `create(1)` /
//! `complete(1)` on a [`RequestTracker`] and passes the tracker's queue
//! state to `send` as ancillary data. The stack forwards it to the server
//! inside a TCP option; the server folds each fresh hint into running sums
//! of departures and of the queue's integral, and Little's law over their
//! difference across the window is the *client-defined* end-to-end
//! latency, without monitoring any TCP queue.
//!
//! The example prints the client's own ground truth next to what the
//! server recovered from hints alone, and panics if the two differ by more
//! than 1 % at any rate.
//!
//! ```sh
//! cargo run --release --example hints_api
//! ```

use e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};

/// The most the server's hint estimate may differ from the client's truth.
const MAX_ERROR_PCT: f64 = 1.0;

fn main() {
    println!("Cooperative estimation via create()/complete() hints\n");
    println!(
        "{:>8} | {:>16} {:>16} {:>10}",
        "rate", "client truth", "server via hints", "error"
    );
    println!("{}", "-".repeat(58));
    for rate in [10_000.0, 30_000.0, 60_000.0, 80_000.0] {
        let cfg = RunConfig::new(WorkloadSpec::fig4a(rate), NagleSetting::Off);
        let r = run_point(&cfg);
        let truth = r.tracker_mean.expect("tracker ran");
        let hinted = r.estimated_hint.expect("hints exchanged");
        let err =
            (hinted.as_micros_f64() - truth.as_micros_f64()).abs() / truth.as_micros_f64() * 100.0;
        println!(
            "{:>8.0} | {:>16} {:>16} {:>9.1}%",
            rate,
            truth.to_string(),
            hinted.to_string(),
            err
        );
        assert!(
            err <= MAX_ERROR_PCT,
            "hint estimate off by more than {MAX_ERROR_PCT} % at {rate} RPS: {err:.2} %"
        );
    }
    println!(
        "\nThe server never inspected its own queues for these numbers — the\n\
         36-byte hint exchange carries the client's single logical request\n\
         queue, and Little's law does the rest (one division)."
    );
}
