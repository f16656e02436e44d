//! `experiments::Bound`: the one degradation bound behind the chaos,
//! knobs, adversary, shard and failover grids. The reference formulas
//! below are the six per-cell copies it replaced, spelled out.

use e2e_apps::experiments::{Bound, CHAOS_BOUND, FAILOVER_BOUND, KNOBS_BOUND, SHARD_BOUND};
use littles::Nanos;

/// `p99 / oracle.max(1)` as each cell type used to compute it.
fn old_ratio(p99: Nanos, oracle: Nanos) -> f64 {
    p99.as_nanos() as f64 / oracle.as_nanos().max(1) as f64
}

/// `p99 ≤ factor × oracle + slack` as each cell type used to compute it.
fn old_within(p99: Nanos, oracle: Nanos, factor: f64, slack: Nanos) -> bool {
    let bound = Nanos::from_nanos((oracle.as_nanos() as f64 * factor) as u64) + slack;
    p99 <= bound
}

const VALUES_NS: [u64; 9] =
    [0, 1, 59_900, 60_900, 165_900, 811_000, 1_097_700, 339_738_600, 578_211_000];

#[test]
fn ratio_and_holds_match_the_old_per_cell_formulas() {
    for bound in [CHAOS_BOUND, KNOBS_BOUND, SHARD_BOUND, FAILOVER_BOUND] {
        for p99 in VALUES_NS.map(Nanos::from_nanos) {
            for oracle in VALUES_NS.map(Nanos::from_nanos) {
                let ratio = Bound::ratio(Some(p99), Some(oracle)).expect("both sides measured");
                assert_eq!(ratio.to_bits(), old_ratio(p99, oracle).to_bits(), "{p99} / {oracle}");
                assert_eq!(
                    bound.holds(Some(p99), Some(oracle)),
                    old_within(p99, oracle, bound.factor, bound.slack),
                    "{p99} vs {oracle} under {bound:?}"
                );
            }
        }
    }
}

#[test]
fn a_missing_side_is_a_failed_run_not_a_pass() {
    let some = Some(Nanos::from_micros(100));
    for bound in [CHAOS_BOUND, Bound { factor: 1e9, slack: Nanos::from_secs(3600) }] {
        assert!(!bound.holds(None, some));
        assert!(!bound.holds(some, None));
        assert!(!bound.holds(None, None));
    }
    assert_eq!(Bound::ratio(None, some), None);
    assert_eq!(Bound::ratio(some, None), None);
    assert_eq!(Bound::ratio(None, None), None);
}

#[test]
fn slack_absorbs_a_tiny_oracle() {
    // BENCH_chaos.json, reorder/1.0/N=4: 1097.7 µs against a 299.0 µs
    // oracle is 3.67x — past the factor alone, inside factor + slack.
    let (p99, oracle) = (Some(Nanos::from_nanos(1_097_700)), Some(Nanos::from_micros(299)));
    assert!(CHAOS_BOUND.holds(p99, oracle));
    assert!(!Bound { slack: Nanos::ZERO, ..CHAOS_BOUND }.holds(p99, oracle));
    // The edge is inclusive.
    let edge = Nanos::from_micros(3 * 299 + 300);
    assert!(CHAOS_BOUND.holds(Some(edge), oracle));
    assert!(!CHAOS_BOUND.holds(Some(edge + Nanos::from_nanos(1)), oracle));
}

#[test]
fn a_zero_oracle_does_not_divide_by_zero() {
    let zero = Some(Nanos::ZERO);
    assert_eq!(Bound::ratio(zero, zero), Some(0.0));
    assert_eq!(Bound::ratio(Some(Nanos::from_nanos(250)), zero), Some(250.0));
    // Only the slack is left of the bound.
    assert!(KNOBS_BOUND.holds(Some(KNOBS_BOUND.slack), zero));
    assert!(!KNOBS_BOUND.holds(Some(KNOBS_BOUND.slack + Nanos::from_nanos(1)), zero));
}

#[test]
fn worst_is_the_largest_measured_ratio() {
    assert_eq!(Bound::worst([Some(1.2), None, Some(3.671), Some(0.94)].into_iter()), Some(3.671));
    assert_eq!(Bound::worst([None, None].into_iter()), None);
    assert_eq!(Bound::worst(std::iter::empty()), None);
}
