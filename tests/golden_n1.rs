//! Golden-trace equivalence across topology refactors.
//!
//! Each topology generalization (two-host pair → N-client star, then
//! star → general directed graph) must leave the already-working paths
//! *bit-identical*: same seed, same event order, same RNG stream, same
//! results. The first test pins a digest of short N=1 runs covering the
//! figure-1/2/4a/4b machinery against a golden file generated on the
//! pre-refactor code; a star expressed as the general graph must
//! reproduce it bitwise. The second pins an N=16 fan-in digest so the
//! multi-spoke routing path (per-link queues, shared server host) is
//! covered too, not just the degenerate single-link case. The third pins
//! the two-tier path (clients → proxy → shards): two batching cells and
//! four defense-ladder cells, each written with the readout its grid
//! reads.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test --test golden_n1
//! ```

use e2e_batching::batchpolicy::Objective;
use e2e_batching::e2e_apps::experiments::figure2;
use e2e_batching::e2e_apps::failover::{FailoverArm, FailoverScenario};
use e2e_batching::e2e_apps::runner::{run_point, NagleSetting, PointResult, RunConfig};
use e2e_batching::e2e_apps::tier::{run_tier_point, ShardSetting, TierPointResult, TierRunConfig};
use e2e_batching::e2e_apps::workload::WorkloadSpec;
use e2e_batching::littles::Nanos;
use e2e_batching::simnet::RestartSchedule;

const GOLDEN_PATH: &str = "tests/golden/n1_digest.txt";
const FANIN_GOLDEN_PATH: &str = "tests/golden/fanin16_digest.txt";
const TIER_GOLDEN_PATH: &str = "tests/golden/tier_digest.txt";

fn fmt_ns(v: Option<Nanos>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.as_nanos().to_string())
}

fn fmt_f64(v: f64) -> String {
    // Bit-exact float representation: the whole point is bit-identity.
    format!("{:016x}", v.to_bits())
}

fn digest_point(label: &str, r: &PointResult) -> String {
    format!(
        "{label} samples={} achieved={} mean={} p50={} p99={} est_b={} est_m={} \
         est_h={} tracker={} srtt={} ccpu={}/{} scpu={}/{} pkts={}+{} holds={} exch={}",
        r.samples,
        fmt_f64(r.achieved_rps),
        fmt_ns(r.measured_mean),
        fmt_ns(r.measured_p50),
        fmt_ns(r.measured_p99),
        fmt_ns(r.estimated_bytes),
        fmt_ns(r.estimated_messages),
        fmt_ns(r.estimated_hint),
        fmt_ns(r.tracker_mean),
        fmt_ns(r.srtt),
        fmt_f64(r.client_cpu.app),
        fmt_f64(r.client_cpu.softirq),
        fmt_f64(r.server_cpu.app),
        fmt_f64(r.server_cpu.softirq),
        r.packets_to_server,
        r.packets_to_client,
        r.nagle_holds,
        r.exchanges_received,
    )
}

/// Short windows keep the test fast while still exercising warmup
/// snapshots, estimator ticks, exchanges, and the drain phase.
fn quick(workload: WorkloadSpec, nagle: NagleSetting) -> RunConfig {
    RunConfig {
        warmup: Nanos::from_millis(20),
        measure: Nanos::from_millis(60),
        ..RunConfig::new(workload, nagle)
    }
}

fn compute_digest() -> String {
    let mut lines = Vec::new();

    // Figure 4a machinery: SET-only 16 KiB values, below and near the knee.
    for (tag, rate) in [("fig4a@20k", 20_000.0), ("fig4a@60k", 60_000.0)] {
        for (mode_tag, mode) in [("off", NagleSetting::Off), ("on", NagleSetting::On)] {
            let r = run_point(&quick(WorkloadSpec::fig4a(rate), mode));
            lines.push(digest_point(&format!("{tag}/{mode_tag}"), &r));
        }
    }

    // Figure 4b machinery: mixed SET:GET, byte-unit estimate degrades.
    let r = run_point(&quick(WorkloadSpec::fig4b(40_000.0), NagleSetting::Off));
    lines.push(digest_point("fig4b@40k/off", &r));

    // Figure 2 machinery: bare-metal vs VM client cells at a fixed rate.
    let f2 = figure2(
        20_000.0,
        Nanos::from_millis(20),
        Nanos::from_millis(60),
        0xE2E,
    );
    for cell in &f2.cells {
        lines.push(digest_point(
            &format!(
                "fig2/{}/{}",
                cell.platform,
                if cell.nagle_on { "on" } else { "off" }
            ),
            &cell.result,
        ));
    }

    lines.join("\n") + "\n"
}

fn check_or_bless(digest: &str, golden_path: &str, what: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden_path);
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, digest).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run `BLESS_GOLDEN=1 cargo test --test golden_n1`");
    assert_eq!(digest, golden, "{what} diverged from the golden trace");
}

#[test]
fn n1_runs_match_pre_refactor_golden() {
    check_or_bless(&compute_digest(), GOLDEN_PATH, "N=1 runs");
}

/// The server's hint estimate on one connection is Little's law over the
/// client's own request queue, read by difference between two of its
/// forwarded snapshots: on every N = 1 golden line `est_h` is within 1 %
/// of `tracker`, client 0's tracker between the window's edges. The
/// golden file is the one `n1_runs_match_pre_refactor_golden` holds the
/// runs to.
#[test]
fn n1_hint_estimate_is_within_1_percent_of_the_tracker() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(path).expect("golden file");
    let field = |line: &str, name: &str| -> f64 {
        let value = line
            .split(' ')
            .find_map(|token| token.strip_prefix(name)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {name} in {line}"));
        value.parse().unwrap_or_else(|_| panic!("{name}={value}"))
    };
    let mut lines = 0;
    for line in golden.lines() {
        let (hint, tracker) = (field(line, "est_h"), field(line, "tracker"));
        let err = (hint - tracker).abs() / tracker;
        assert!(err <= 0.01, "{:.2} % off: {line}", err * 100.0);
        lines += 1;
    }
    assert_eq!(lines, 9);
}

/// N=16 fan-in digest: sixteen spokes share the server host, so this
/// covers per-spoke link queues, softirq contention, and the aggregate
/// estimate's weighting — the paths a graph-routing regression would
/// perturb first while leaving N=1 untouched.
#[test]
fn fanin_n16_runs_match_golden() {
    let mut lines = Vec::new();
    for (mode_tag, mode) in [("off", NagleSetting::Off), ("on", NagleSetting::On)] {
        let r = run_point(&RunConfig {
            num_clients: 16,
            ..quick(WorkloadSpec::fig2(48_000.0, 512), mode)
        });
        lines.push(digest_point(&format!("fanin16@48k/{mode_tag}"), &r));
    }
    let digest = lines.join("\n") + "\n";
    check_or_bless(&digest, FANIN_GOLDEN_PATH, "N=16 fan-in runs");
}

fn fmt_list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(",")
}

/// The fields both grids read.
fn tier_common(r: &TierPointResult) -> String {
    format!(
        "offered={} achieved={} samples={} mean={} p50={} p99={} hot={} per_shard={} events={}",
        fmt_f64(r.offered_rps),
        fmt_f64(r.achieved_rps),
        r.samples,
        fmt_ns(r.measured_mean),
        fmt_ns(r.measured_p50),
        fmt_ns(r.measured_p99),
        r.hot_shard,
        fmt_list(&r.per_shard_requests, u64::to_string),
        r.events,
    )
}

/// The batching readout the shard grid reads.
fn digest_batching(label: &str, r: &TierPointResult) -> String {
    format!(
        "{label} {} est={} rtt_p99={} hot_rank={} on={} pxy_cpu={}/{}",
        tier_common(r),
        fmt_list(&r.shard_estimates, |e| fmt_ns(*e)),
        fmt_list(&r.shard_rtt_p99, |e| fmt_ns(*e)),
        r.hot_rank_fraction.map_or_else(|| "-".to_string(), fmt_f64),
        fmt_list(&r.shard_on_fraction, |f| fmt_f64(*f)),
        fmt_f64(r.proxy_cpu.app),
        fmt_f64(r.proxy_cpu.softirq),
    )
}

/// The defense-ladder readout the failover grid reads.
fn digest_ladder(label: &str, r: &TierPointResult) -> String {
    format!(
        "{label} {} crashes={} restarts={} epochs={} resets={} timeouts={} failed={} \
         retries={} hedges={} denied={} trips={} failovers={} orphans={} dedup={}",
        tier_common(r),
        r.shard_crashes,
        r.endpoint_restarts,
        r.back_epoch_changes,
        r.upstream_resets,
        r.timeouts,
        r.failed,
        r.retries,
        r.hedges,
        r.budget_denied,
        r.breaker_trips,
        r.failovers,
        r.orphan_responses,
        r.dedup_hits,
    )
}

/// Two-tier digest on a small window (2 clients, 3 shards, 50 ms warm-up,
/// 250 ms measured): both upstream batching modes of the shard grid, and
/// the failover grid's oracle, naive crash, defended crash under client
/// restarts, and defended brownout.
#[test]
fn tier_runs_match_golden() {
    let workload = WorkloadSpec::shard(8_000.0);
    let (warmup, measure) = (Nanos::from_millis(50), Nanos::from_millis(250));
    let mut lines = Vec::new();
    for (tag, setting) in [
        ("shard/on", ShardSetting::Corner { nagle: true }),
        (
            "shard/adaptive",
            ShardSetting::Adaptive {
                objective: Objective::MinLatency,
            },
        ),
    ] {
        let cfg = TierRunConfig {
            num_clients: 2,
            num_shards: 3,
            warmup,
            measure,
            ..TierRunConfig::shard(workload, setting)
        };
        lines.push(digest_batching(tag, &run_tier_point(&cfg)));
    }
    let restarts = RestartSchedule {
        first_at: warmup + Nanos::from_millis(40),
        period: Nanos::from_millis(80),
    };
    let (crash, brownout) = (FailoverScenario::CrashHot, FailoverScenario::BrownoutCold);
    for (tag, arm, scenario, client_restart) in [
        ("failover/oracle", FailoverArm::Full, None, None),
        (
            "failover/crash/naive",
            FailoverArm::NoDefense,
            Some(crash),
            None,
        ),
        (
            "failover/crash/full+restarts",
            FailoverArm::Full,
            Some(crash),
            Some(restarts),
        ),
        (
            "failover/brownout/full",
            FailoverArm::Full,
            Some(brownout),
            None,
        ),
    ] {
        let cfg = TierRunConfig {
            num_clients: 2,
            num_shards: 3,
            warmup,
            measure,
            client_restart,
            ..TierRunConfig::new(workload, arm, scenario)
        };
        lines.push(digest_ladder(tag, &run_tier_point(&cfg)));
    }
    let digest = lines.join("\n") + "\n";
    check_or_bless(&digest, TIER_GOLDEN_PATH, "two-tier runs");
}
