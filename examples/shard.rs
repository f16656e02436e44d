//! Shard: the two-tier datacenter topology under skewed load.
//!
//! For each aggregate rate, runs three two-tier (N clients → proxy → K
//! shards) cells: every upstream pinned `TCP_NODELAY`, every upstream
//! pinned Nagle-on, and the per-shard adaptive planes fed composed
//! client→proxy + proxy→shard estimates. The workload concentrates most
//! of the traffic on one hot shard, so no single global pin is right for
//! every upstream — the cell reports whether the composed estimates rank
//! the hot shard first and whether the per-shard planes beat both pins.
//!
//! ```sh
//! cargo run --release --example shard            # full grid + shard.json
//! cargo run --release --example shard -- --smoke # quick CI gate
//! ```

use e2e_apps::experiments::{
    shard, ShardCell, ShardData, SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK, SHARD_HOT_RANK_MIN,
};
use e2e_apps::ShardPointResult;
use e2e_apps::report::us;
use littles::Nanos;

fn pct(f: Option<f64>) -> String {
    f.map(|v| format!("{:.0}%", v * 100.0))
        .unwrap_or_else(|| "n/a".into())
}

fn print_cells(data: &ShardData) {
    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>6} | {:>8} {:>8} | {:>16}",
        "rate", "off-p99", "on-p99", "adap-p99", "ratio", "hot-rank", "pxy-cpu", "on-frac/shard"
    );
    println!("{}", "-".repeat(92));
    for c in &data.cells {
        let fracs: Vec<String> = c
            .adaptive
            .shard_on_fraction
            .iter()
            .enumerate()
            .map(|(s, f)| {
                let tag = if s == c.adaptive.hot_shard { "*" } else { "" };
                format!("{tag}{:.2}", f)
            })
            .collect();
        println!(
            "{:>8.0} | {:>9} {:>9} {:>9} | {:>6} | {:>8} {:>8.2} | {:>16}",
            c.rate_rps,
            us(c.off.measured_p99),
            us(c.on.measured_p99),
            us(c.adaptive.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            pct(c.off.hot_rank_fraction),
            c.off.proxy_cpu.app,
            fracs.join(" "),
        );
    }
}

fn check_cell(c: &ShardCell) {
    for (label, r) in [("off", &c.off), ("on", &c.on), ("adaptive", &c.adaptive)] {
        assert!(
            r.samples > 0,
            "rate {}: {label} arm recorded no samples",
            c.rate_rps
        );
        assert!(
            r.per_shard_requests.iter().all(|&n| n > 0),
            "rate {}: {label} arm left a shard idle: {:?}",
            c.rate_rps,
            r.per_shard_requests
        );
        // Skew reached the wire: the hot shard carried the most requests.
        let busiest = r
            .per_shard_requests
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| n)
            .map(|(s, _)| s)
            .unwrap();
        assert_eq!(
            busiest, r.hot_shard,
            "rate {}: {label} arm routed most traffic to shard {busiest}, expected hot {}",
            c.rate_rps, r.hot_shard
        );
    }
    // The composed per-shard estimates exist for every shard.
    assert!(
        c.adaptive.shard_estimates.iter().all(|e| e.is_some()),
        "rate {}: missing per-shard estimates",
        c.rate_rps
    );
    // Adaptive never degrades past the bound, at any rate.
    assert!(
        c.within_bound(SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK),
        "rate {}: adaptive {:?} exceeded {SHARD_BOUND_FACTOR}x best corner {:?} + {:?}",
        c.rate_rps,
        c.adaptive.measured_p99,
        c.best_corner_p99(),
        SHARD_BOUND_SLACK
    );
}

/// The headline claims, checked on the saturated top-rate cell: the
/// composed estimates on the unadapted run single out the hot shard, and
/// the per-shard planes strictly beat whichever global pin an operator
/// would have chosen.
fn check_headline(c: &ShardCell) {
    let rank = c.off.hot_rank_fraction.expect("off arm ranked no windows");
    assert!(
        rank >= SHARD_HOT_RANK_MIN,
        "rate {}: estimate ranked hot shard first in only {:.0}% of windows",
        c.rate_rps,
        rank * 100.0
    );
    let ratio = c.regression().expect("missing P99s");
    assert!(
        ratio < 1.0,
        "rate {}: adaptive P99 {:?} did not beat best corner {:?}",
        c.rate_rps,
        c.adaptive.measured_p99,
        c.best_corner_p99()
    );
    // The win is per-shard, not a lucky global flip: the hot upstream's
    // plane settled on batching while at least one cold plane did not.
    let hot_frac = c.adaptive.shard_on_fraction[c.adaptive.hot_shard];
    let min_cold = c
        .adaptive
        .shard_on_fraction
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != c.adaptive.hot_shard)
        .map(|(_, f)| *f)
        .fold(f64::INFINITY, f64::min);
    assert!(
        hot_frac > 0.8 && min_cold < 0.6,
        "rate {}: planes did not diverge (hot on-fraction {hot_frac:.2}, coldest {min_cold:.2})",
        c.rate_rps
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rates, warmup, measure) = if smoke {
        (
            vec![60_000.0],
            Nanos::from_millis(50),
            Nanos::from_millis(150),
        )
    } else {
        (
            vec![30_000.0, 60_000.0, 90_000.0],
            Nanos::from_millis(200),
            Nanos::from_millis(600),
        )
    };

    let data = shard(&rates, 8, 4, 0.7, warmup, measure, 0x5AAD);
    print_cells(&data);

    for c in &data.cells {
        check_cell(c);
    }
    if smoke {
        println!("shard smoke: OK (N=8, K=4, skewed cell served on both legs)");
    } else {
        check_headline(data.cells.last().expect("empty grid"));
        std::fs::write("shard.json", to_json(&data)).expect("write shard.json");
        println!("full grid written to shard.json");
    }
}

fn point_json(r: &ShardPointResult) -> String {
    let est: Vec<String> = r
        .shard_estimates
        .iter()
        .map(|e| {
            e.map(|n| format!("{:.1}", n.as_micros_f64()))
                .unwrap_or_else(|| "null".into())
        })
        .collect();
    format!(
        concat!(
            "{{\"p99_us\": {}, \"mean_us\": {}, \"achieved_rps\": {:.0}, ",
            "\"hot_shard\": {}, \"per_shard_requests\": {:?}, ",
            "\"shard_estimates_us\": [{}], \"hot_rank_fraction\": {}, ",
            "\"shard_on_fraction\": {:?}, \"proxy_cpu_app\": {:.3}}}"
        ),
        us(r.measured_p99).replace("n/a", "null"),
        us(r.measured_mean).replace("n/a", "null"),
        r.achieved_rps,
        r.hot_shard,
        r.per_shard_requests,
        est.join(", "),
        r.hot_rank_fraction
            .map(|f| format!("{f:.3}"))
            .unwrap_or_else(|| "null".into()),
        r.shard_on_fraction,
        r.proxy_cpu.app,
    )
}

fn to_json(data: &ShardData) -> String {
    let rows: Vec<String> = data
        .cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"rate_rps\": {:.0}, \"off\": {}, \"on\": {}, \"adaptive\": {}, \"regression\": {}}}",
                c.rate_rps,
                point_json(&c.off),
                point_json(&c.on),
                point_json(&c.adaptive),
                c.regression()
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"experiment\": \"shard\",\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows.len(),
        rows.join(",\n")
    )
}
