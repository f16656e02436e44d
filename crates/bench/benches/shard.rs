//! The sharded-proxy experiment: the two-tier datacenter (N clients →
//! proxy → K shards) under skewed load, comparing both global static
//! upstream pins against the per-shard adaptive planes driven by
//! composed client→proxy + proxy→shard estimates.
//!
//! Prints the per-rate table and writes `BENCH_shard.json`. Asserts the
//! grid's two headline claims on the saturated top-rate cell: the
//! service-level estimate ranks the hot shard's delay highest in at
//! least `SHARD_HOT_RANK_MIN` of windows (on the unadapted run — the
//! adaptive planes consume that signal by fixing the hot upstream), and
//! the per-shard planes strictly beat the best global static corner on
//! P99.
//!
//! ```sh
//! cargo bench -p bench --bench shard
//! ```

use bench::params::{MEASURE, SEED, WARMUP};
use e2e_apps::experiments::{
    shard, SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK, SHARD_HOT_RANK_MIN,
};
use e2e_apps::ShardPointResult;
use e2e_apps::report::json_us;

// Aggregate offered load: comfortably unsaturated, moderate, and hot
// enough that the skewed shard's per-delivery receive work saturates its
// core under TCP_NODELAY.
const RATES: [f64; 3] = [30_000.0, 60_000.0, 90_000.0];
const NUM_CLIENTS: usize = 8;
const NUM_SHARDS: usize = 4;
// Fraction of the key space's traffic concentrated on the hot shard.
const HOT_FRACTION: f64 = 0.7;

fn json_frac(f: Option<f64>) -> String {
    f.map(|v| format!("{v:.3}")).unwrap_or_else(|| "null".into())
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
            "{{\"p99_us\": {}, \"hot_shard\": {}, ",
            "\"per_shard_requests\": {:?}, \"shard_estimates_us\": [{}], ",
            "\"hot_rank_fraction\": {}, \"shard_on_fraction\": {:?}}}"
        ),
        json_us(r.measured_p99),
        r.hot_shard,
        r.per_shard_requests,
        est.join(", "),
        json_frac(r.hot_rank_fraction),
        r.shard_on_fraction,
    )
}

fn main() {
    println!("=== Shard: two-tier skewed grid, corners vs per-shard planes ===\n");
    let data = shard(
        &RATES,
        NUM_CLIENTS,
        NUM_SHARDS,
        HOT_FRACTION,
        WARMUP,
        MEASURE,
        SEED,
    );

    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>6} {:>8} | {:>16}",
        "rate", "off-p99", "on-p99", "adap-p99", "ratio", "hot-rank", "on-frac/shard"
    );
    let mut rows = Vec::new();
    for c in &data.cells {
        let fracs: Vec<String> = c
            .adaptive
            .shard_on_fraction
            .iter()
            .enumerate()
            .map(|(s, f)| {
                let tag = if s == c.adaptive.hot_shard { "*" } else { "" };
                format!("{tag}{f:.2}")
            })
            .collect();
        println!(
            "{:>8.0} | {:>9} {:>9} {:>9} | {:>6} {:>8} | {:>16}",
            c.rate_rps,
            json_us(c.off.measured_p99),
            json_us(c.on.measured_p99),
            json_us(c.adaptive.measured_p99),
            c.regression()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            json_frac(c.off.hot_rank_fraction),
            fracs.join(" "),
        );
        rows.push(format!(
            concat!(
                "    {{\"rate_rps\": {:.0}, \"off\": {}, \"on\": {}, ",
                "\"adaptive\": {}, \"regression\": {}}}"
            ),
            c.rate_rps,
            point_json(&c.off),
            point_json(&c.on),
            point_json(&c.adaptive),
            c.regression()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "null".into()),
        ));
    }

    let doc = format!(
        "{{\n  \"version\": 1,\n  \"bench\": \"shard\",\n  \
         \"hot_rank_min\": {SHARD_HOT_RANK_MIN},\n  \
         \"bound_factor\": {SHARD_BOUND_FACTOR},\n  \
         \"bound_slack_us\": {:.1},\n  \"count\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        SHARD_BOUND_SLACK.as_micros_f64(),
        rows.len(),
        rows.join(",\n")
    );
    std::fs::write("BENCH_shard.json", &doc).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json ({} cells)", data.cells.len());

    // Every cell stays within the degradation bound.
    for c in &data.cells {
        assert!(
            c.within_bound(SHARD_BOUND_FACTOR, SHARD_BOUND_SLACK),
            "rate {}: adaptive {:?} exceeded {SHARD_BOUND_FACTOR}x best corner {:?} + {:?}",
            c.rate_rps,
            c.adaptive.measured_p99,
            c.best_corner_p99(),
            SHARD_BOUND_SLACK
        );
    }

    // Headline claims on the saturated cell.
    let hot = data.cells.last().expect("empty grid");
    let rank = hot.off.hot_rank_fraction.expect("off arm ranked no windows");
    assert!(
        rank >= SHARD_HOT_RANK_MIN,
        "estimate ranked the hot shard first in only {:.0}% of windows",
        rank * 100.0
    );
    let ratio = hot.regression().expect("missing P99s");
    assert!(
        ratio < 1.0,
        "adaptive P99 {:?} did not beat the best corner {:?}",
        hot.adaptive.measured_p99,
        hot.best_corner_p99()
    );
    println!(
        "hot cell: rank {:.0}%, adaptive/best-corner {ratio:.2} — OK",
        rank * 100.0
    );
}
