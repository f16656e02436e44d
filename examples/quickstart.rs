//! Quickstart: estimate end-to-end latency of a simulated Redis workload.
//!
//! Runs one experiment point — a Lancet-style client issuing 16 KiB SETs
//! at 40 kRPS against a Redis-like server over the simulated TCP stack —
//! and prints measured latency next to the estimators the sockets feed:
//! byte- and message-unit Little's-law estimates plus the
//! application-hint estimate.
//!
//! ```sh
//! cargo run --release --example quickstart [rate_rps]
//! ```

use e2e_apps::{run_point, NagleSetting, RunConfig, WorkloadSpec};
use littles::Nanos;

fn fmt(n: Option<Nanos>) -> String {
    n.map(|v| v.to_string()).unwrap_or_else(|| "n/a".into())
}

fn main() {
    let rate: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rate in requests/second"))
        .unwrap_or(40_000.0);

    println!("workload: 16 B keys, 16 KiB SET values, {rate:.0} req/s (open loop)");
    println!("stack: simulated TCP, Nagle toggled per run; 100 Gbps link\n");

    for (label, nagle) in [
        ("TCP_NODELAY (Redis default)", NagleSetting::Off),
        ("Nagle enabled", NagleSetting::On),
    ] {
        let cfg = RunConfig::new(WorkloadSpec::fig4a(rate), nagle);
        let r = run_point(&cfg);
        println!("== {label}");
        println!("   measured mean latency  {}", fmt(r.measured_mean));
        println!("   measured p99           {}", fmt(r.measured_p99));
        println!("   estimate (bytes)       {}", fmt(r.estimated_bytes));
        println!("   estimate (messages)    {}", fmt(r.estimated_messages));
        println!("   estimate (hints §3.3)  {}", fmt(r.estimated_hint));
        println!("   achieved               {:.0} resp/s", r.achieved_rps);
        println!(
            "   server cpu             app {:.0}% / softirq {:.0}%",
            r.server_cpu.app * 100.0,
            r.server_cpu.softirq * 100.0
        );
        println!(
            "   wire packets           {} to server, {} to client\n",
            r.packets_to_server, r.packets_to_client
        );
    }
    println!("Estimates come from 36-byte TCP-option metadata exchanges (paper §3.2);");
    println!("compare them to the measured column — then try other rates.");
}
