//! Fan-in: the same aggregate load spread over N ∈ {1, 4, …, 1024}
//! client connections into one shared server.
//!
//! Shows the two headline effects of the multi-connection topology:
//! the Nagle cutoff moves right (to higher aggregate rates) as N grows
//! — per-connection batching starves at 1/N of the load while the
//! no-Nagle baseline only collapses on the shared server CPU — and the
//! throughput-weighted aggregate estimate keeps identifying the cutoff.
//!
//! ```sh
//! cargo run --release --example fanin            # full N sweep
//! cargo run --release --example fanin -- --smoke # quick N=4 CI check
//! ```

use e2e_apps::experiments::fanin;
use e2e_apps::report::us;
use littles::Nanos;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ns, rates, warmup, measure) = if smoke {
        (
            vec![4usize],
            vec![40_000.0, 80_000.0],
            Nanos::from_millis(50),
            Nanos::from_millis(150),
        )
    } else {
        (
            vec![1usize, 4, 16, 64, 256, 1024],
            vec![
                20_000.0, 40_000.0, 60_000.0, 75_000.0, 88_000.0, 105_000.0,
            ],
            Nanos::from_millis(200),
            Nanos::from_millis(600),
        )
    };

    let data = fanin(&ns, &rates, warmup, measure, 0xFA41);

    for row in &data.rows {
        println!("=== fan-in N = {} ===", row.num_clients);
        println!(
            "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
            "rate", "off-meas", "off-est", "on-meas", "on-est", "achieved"
        );
        for p in &row.sweep.rows {
            println!(
                "{:>8.0} | {:>9} {:>9} | {:>9} {:>9} | {:>8.0}",
                p.rate_rps,
                us(p.off.measured_mean),
                us(p.off.estimated_bytes),
                us(p.on.measured_mean),
                us(p.on.estimated_bytes),
                p.off.achieved_rps,
            );
        }
        println!(
            "cutoff: measured {:?} vs byte-estimated {:?}\n",
            row.cutoff_measured, row.cutoff_estimated
        );
    }

    if smoke {
        // CI gate: the fan-in path must exercise every connection.
        for row in &data.rows {
            for p in &row.sweep.rows {
                for point in [&p.off, &p.on] {
                    assert_eq!(point.num_clients, row.num_clients);
                    assert_eq!(point.per_client.len(), row.num_clients);
                    for (i, c) in point.per_client.iter().enumerate() {
                        assert!(
                            c.samples > 0,
                            "client {i} measured no samples at {} RPS",
                            p.rate_rps
                        );
                    }
                }
            }
        }
        println!("fanin smoke: OK (N=4, all connections carried traffic)");
    } else {
        println!("cutoff shift with N: ");
        for row in &data.rows {
            println!("  N={:>3}: {:?}", row.num_clients, row.cutoff_measured);
        }
    }
}
