//! The reproduction's six grids: fan-in, chaos, knobs, adversary, shard
//! and failover. Each entry enumerates its cells, runs each cell's arms
//! (`e2e_apps::experiments::*_arms`) as one `run_grid` job, and scores
//! them against the cell's oracle. Each full grid is what its checked-in
//! `BENCH_<name>.json` was produced from and must regenerate it byte for
//! byte; each smoke grid is a few cells the gates were tuned on.

use bench::params::{SEED, SMOKE_WARMUP, WARMUP};
use bench::{Doc, Json};
use e2e_apps::experiments::{
    self, knob_corner_label, AdversaryClass, Bound, ChaosClass, CHAOS_BOUND, FAILOVER_BOUND,
    KNOBS_BOUND, SHARD_BOUND,
};
use e2e_apps::grid::{default_threads, run_grid};
use e2e_apps::report::us;
use e2e_apps::{
    run_point, run_tier_point, FailoverArm, FailoverScenario, PointResult, TierPointResult,
    WorkloadSpec,
};
use littles::Nanos;
use simnet::FaultCounters;

use super::{json_rate, json_ratio, ratio, sweep, windows, Gates};

/// The `bound_factor` / `bound_slack_us` header fields of a bounded grid.
fn bound_header(bound: Bound) -> Vec<(&'static str, Json)> {
    vec![
        ("bound_factor", Json::float(bound.factor)),
        ("bound_slack_us", Json::fixed(bound.slack.as_micros_f64(), 1)),
    ]
}

/// The lower of two optional P99s (either one if the other is missing):
/// the oracle of a cell scored against its better static arm.
fn lower_p99(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    [a, b].into_iter().flatten().min()
}

/// Every `(a, b, c)` coordinate, `a` outermost: a grid's cells in sweep
/// order.
fn cube<A: Copy, B: Copy, C: Copy>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut cells = Vec::new();
    for &x in a {
        for &y in b {
            cells.extend(c.iter().map(|&z| (x, y, z)));
        }
    }
    cells
}

/// Breaker trips of an adaptive arm, both endpoints.
fn breaker_trips(p: &PointResult) -> u64 {
    p.client_breaker_trips.unwrap_or(0) + p.server_breaker_trips.unwrap_or(0)
}

/// Link fault counters of a run, summed over links.
fn link_faults(p: &PointResult) -> FaultCounters {
    p.link_faults.iter().fold(FaultCounters::default(), |acc, x| acc.merged(*x))
}

/// Fan-in: how the Nagle cutoff moves right as one aggregate load spreads
/// over more connections — per-connection batching starves at 1/N of the
/// load while the no-Nagle baseline only collapses on the shared server
/// CPU — and whether the throughput-weighted aggregate estimate keeps
/// identifying it.
pub fn fanin(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    let (ns, rates, seed): (&[usize], &[f64], u64) = if smoke {
        (&[4], &[40_000.0, 80_000.0], 0xFA41)
    } else {
        (&[1, 4, 16, 64, 256, 1024], &[40_000.0, 60_000.0, 75_000.0, 88_000.0, 105_000.0], SEED)
    };
    let (mut rows, mut cutoffs) = (Vec::new(), Vec::new());
    for &n in ns {
        let data = sweep(rates, WorkloadSpec::fig4a, n, windows(smoke), seed, false);
        println!("--- fan-in N = {n} ---");
        println!(
            "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
            "rate", "off-meas", "off-est", "on-meas", "on-est", "achieved"
        );
        for p in &data.rows {
            let (off_meas, off_est) = (p.off.measured_mean, p.off.estimated_bytes);
            let (on_meas, on_est) = (p.on.measured_mean, p.on.estimated_bytes);
            println!(
                "{:>8.0} | {:>9} {:>9} | {:>9} {:>9} | {:>8.0}",
                p.rate_rps, us(off_meas), us(off_est), us(on_meas), us(on_est), p.off.achieved_rps,
            );
            rows.push(Json::obj([
                ("num_clients", n.into()),
                ("rate_rps", Json::fixed(p.rate_rps, 0)),
                ("off_meas_us", Json::us(off_meas)),
                ("off_est_us", Json::us(off_est)),
                ("on_meas_us", Json::us(on_meas)),
                ("on_est_us", Json::us(on_est)),
            ]));
            // The fan-in path must exercise every connection.
            for (arm, point) in [("off", &p.off), ("on", &p.on)] {
                let tag = format!("N={n}/{:.0} rps [{arm}]", p.rate_rps);
                let ran = point.per_client.len();
                gate!(gates, point.num_clients == n && ran == n, "{tag}: ran {ran} clients");
                let idle = point.per_client.iter().filter(|c| c.samples == 0).count();
                gate!(gates, idle == 0, "{tag}: {idle} of {n} connections measured no samples");
            }
        }
        let (measured, estimated) = (data.cutoff_rate(), data.estimated_cutoff_rate());
        println!("cutoff: measured {measured:?} vs byte-estimated {estimated:?}\n");
        cutoffs.push(Json::obj([
            ("num_clients", n.into()),
            ("cutoff_measured_rps", json_rate(measured)),
            ("cutoff_estimated_rps", json_rate(estimated)),
        ]));
    }
    let sections = vec![("rows", Json::Arr(rows)), ("cutoffs", Json::Arr(cutoffs))];
    Some(Doc { version: 1, header: vec![], sections })
}

/// Chaos: fault injection across the star topology. For each fault class
/// at each intensity and fan-in width, the two static Nagle baselines and
/// the adaptive policy (ε-greedy toggling behind a circuit breaker,
/// estimator confidence driven by snapshot staleness). The claim is
/// graceful degradation: adaptive P99 within [`CHAOS_BOUND`] of the
/// static oracle — the better static mode — in every cell.
pub fn chaos(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    // Fan-in starts at 4 in the full grid: at N = 1 the loss cells
    // measure nothing in any arm (EXPERIMENTS.md, the chaos grid's N = 1
    // note: one connection carries the whole 24 kRPS, and an RTO stall
    // there outlasts the window). 24 kRPS is moderate load: high enough
    // that batching matters, low enough that a lossy connection still
    // drains its backlog.
    let (cells, rate, seed) = if smoke {
        (cube(&[4], &[ChaosClass::Loss, ChaosClass::Blackout], &[1.0]), 40_000.0, 0xC405)
    } else {
        (cube(&[4, 8], &ChaosClass::ALL, &[0.5, 1.0]), 24_000.0, SEED)
    };
    let results = run_grid(cells.len(), default_threads(), |i| {
        let (n, class, intensity) = cells[i];
        let arms = experiments::chaos_arms(class, intensity, n, rate, windows(smoke), seed);
        arms.map(|cfg| run_point(&cfg))
    });
    println!(
        "{:>3} {:>12} {:>5} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {:>5} {:>6}",
        "N", "class", "int", "off-p99", "on-p99", "adap-p99", "oracle", "ratio", "trips", "faults"
    );
    println!("{}", "-".repeat(100));
    let (mut rows, mut regressions) = (Vec::new(), Vec::new());
    for (&(n, class, intensity), [off, on, adaptive]) in cells.iter().zip(&results) {
        let tag = format!("{}/{intensity:.2}/N={n}", class.name());
        let (off_p99, on_p99, adaptive_p99) =
            (off.measured_p99, on.measured_p99, adaptive.measured_p99);
        let oracle = lower_p99(off_p99, on_p99);
        let regression = Bound::ratio(adaptive_p99, oracle);
        regressions.push(regression);
        let (faults, trips) = (link_faults(adaptive), breaker_trips(adaptive));
        println!(
            "{n:>3} {:>12} {intensity:>5.2} | {:>9} {:>9} {:>9} | {:>9} {:>6} | {trips:>5} {:>6}",
            class.name(), us(off_p99), us(on_p99), us(adaptive_p99), us(oracle), ratio(regression),
            faults.total(),
        );
        let faults_json = Json::obj([
            ("drops", faults.drops.into()),
            ("duplicates", faults.duplicates.into()),
            ("reorders", faults.reorders.into()),
            ("blackout_drops", faults.blackout_drops.into()),
            ("blackout_us", Json::fixed(adaptive.fault_blackout_time.as_micros_f64(), 1)),
        ]);
        rows.push(Json::obj([
            ("class", class.name().into()),
            ("intensity", Json::float(intensity)),
            ("num_clients", n.into()),
            ("off_p99_us", Json::us(off_p99)),
            ("on_p99_us", Json::us(on_p99)),
            ("adaptive_p99_us", Json::us(adaptive_p99)),
            ("oracle_p99_us", Json::us(oracle)),
            ("regression", json_ratio(regression)),
            ("breaker_trips", trips.into()),
            ("faults", faults_json),
        ]));

        for (arm, p) in [("off", off), ("on", on), ("adaptive", adaptive)] {
            gate!(gates, p.samples > 0, "{tag} [{arm}]: no samples survived the faults");
        }
        // The fault layer must actually have fired for this cell — a chaos
        // run where nothing went wrong gates nothing. Stalls and jitter
        // leave no link counter behind.
        let uncounted = matches!(class, ChaosClass::ServerStall | ChaosClass::Jitter);
        let dark = !adaptive.fault_blackout_time.is_zero();
        gate!(gates, faults.total() > 0 || uncounted || dark, "{tag}: fault class never fired");
        // Loss must have dropped packets; a blackout must have darkened
        // the links for a measurable time and dropped what was in flight.
        let baseline = link_faults(off);
        if class == ChaosClass::Loss {
            gate!(gates, baseline.drops > 0, "{tag}: loss cell dropped nothing");
        }
        if class == ChaosClass::Blackout {
            gate!(gates, !off.fault_blackout_time.is_zero(), "{tag}: links never went dark");
            gate!(gates, baseline.blackout_drops > 0, "{tag}: blackout windows dropped nothing");
        }
        // The adaptive stack must actually have been live.
        let a = adaptive;
        gate!(gates, a.client_on_fraction.is_some(), "{tag}: adaptive arm ran without a toggler");
        gate!(
            gates,
            a.client_breaker_trips.is_some() && a.server_breaker_trips.is_some(),
            "{tag}: adaptive arm ran without its breakers"
        );
        // The bound is the experiment's claim.
        gate!(
            gates,
            CHAOS_BOUND.holds(adaptive_p99, oracle),
            "{tag}: adaptive p99 {} µs exceeds {CHAOS_BOUND} of oracle {} µs",
            us(adaptive_p99), us(oracle)
        );
    }
    let worst = Bound::worst(regressions.into_iter());
    println!("\nworst adaptive-vs-oracle P99 ratio: {}", ratio(worst));
    let sections = vec![("cells", Json::Arr(rows))];
    Some(Doc { version: 1, header: bound_header(CHAOS_BOUND), sections })
}

/// Knobs: the multi-knob control plane against the static knob cube. For
/// each client per-response cost `c` and fan-in width `N`, all eight
/// static corners of (Nagle × delayed-ACK × cork-limit), the Nagle-only
/// adaptive plane (the paper's single-knob policy), and the joint plane
/// driving all three knobs from one routed estimate, gated against the
/// best static corner — the omniscient operator's pick for that cell.
pub fn knobs(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    // 24 kRPS is moderate aggregate load: enough backlog that every knob
    // has a real effect, low enough that the single-connection high-c
    // cell stays un-saturated. Client per-response cost c: the calibrated
    // default, the Figure 2 bare-metal cost, and a heavier stand-in for
    // an expensive client.
    let (us300, us4, us12) = (Nanos::from_nanos(300), Nanos::from_micros(4), Nanos::from_micros(12));
    let (costs, ns) = if smoke { (vec![us4], vec![8]) } else { (vec![us300, us4, us12], vec![1, 4, 8]) };
    let cells: Vec<(Nanos, usize)> =
        costs.iter().flat_map(|&cost| ns.iter().map(move |&n| (cost, n))).collect();
    let results = run_grid(cells.len(), default_threads(), |i| {
        let (cost, n) = cells[i];
        let arms = experiments::knobs_arms(cost, n, 24_000.0, windows(smoke), SEED);
        arms.map(|cfg| run_point(&cfg))
    });
    println!(
        "{:>6} {:>3} | {:>9} {:>18} | {:>9} {:>9} {:>6} | {:>5} {:>5} {:>5} {:>5}",
        "c-us", "N", "best-p99", "best-corner", "1knob-p99", "joint-p99", "ratio", "nag", "dack",
        "cork", "expl"
    );
    println!("{}", "-".repeat(104));
    let (mut rows, mut regressions) = (Vec::new(), Vec::new());
    // The joint plane strictly beats the Nagle-only one: the multi-knob
    // payoff.
    let joint_wins = |joint: &PointResult, single: &PointResult| {
        matches!((joint.measured_p99, single.measured_p99), (Some(j), Some(s)) if j < s)
    };
    for (&(cost, n), [corners @ .., single, joint]) in cells.iter().zip(&results) {
        let tag = format!("c={cost}/N={n}");
        let best = (0..corners.len())
            .filter(|&k| corners[k].measured_p99.is_some())
            .min_by_key(|&k| corners[k].measured_p99);
        let best_p99 = best.and_then(|k| corners[k].measured_p99);
        let best_label = best.map_or_else(|| "n/a".into(), knob_corner_label);
        let regression = Bound::ratio(joint.measured_p99, best_p99);
        regressions.push(regression);
        let [nagle, delack, cork, explored] = [
            joint.plane_nagle_switches,
            joint.plane_delack_switches,
            joint.plane_cork_switches,
            joint.plane_explorations,
        ]
        .map(|count| count.unwrap_or(0));
        println!(
            "{:>6.1} {n:>3} | {:>9} {best_label:>18} | {:>9} {:>9} {:>6} | {nagle:>5} \
             {delack:>5} {cork:>5} {explored:>5}",
            cost.as_micros_f64(), us(best_p99), us(single.measured_p99), us(joint.measured_p99),
            ratio(regression),
        );
        let corners_json = (0..corners.len())
            .map(|k| (knob_corner_label(k), Json::us(corners[k].measured_p99)));
        let plane_json = Json::obj([
            ("nagle_switches", nagle.into()),
            ("delack_switches", delack.into()),
            ("cork_switches", cork.into()),
            ("explorations", explored.into()),
            ("cork_limit", Json::opt(joint.plane_cork_limit, Json::from)),
        ]);
        rows.push(Json::obj([
            ("client_cost_us", Json::fixed(cost.as_micros_f64(), 1)),
            ("num_clients", n.into()),
            ("corners", Json::obj(corners_json)),
            ("best_corner", best_label.into()),
            ("best_corner_p99_us", Json::us(best_p99)),
            ("nagle_only_p99_us", Json::us(single.measured_p99)),
            ("joint_p99_us", Json::us(joint.measured_p99)),
            ("regression", json_ratio(regression)),
            ("joint_beats_nagle_only", joint_wins(joint, single).into()),
            ("plane", plane_json),
        ]));

        for (k, corner) in corners.iter().enumerate() {
            gate!(gates, corner.samples > 0, "{tag} corner {}: no samples", knob_corner_label(k));
        }
        gate!(
            gates,
            KNOBS_BOUND.holds(joint.measured_p99, best_p99),
            "{tag}: joint p99 {} µs exceeds {KNOBS_BOUND} of best corner {} µs",
            us(joint.measured_p99), us(best_p99)
        );
        // The plane must actually have been live on every knob.
        gate!(gates, joint.plane_nagle_switches.is_some(), "{tag}: no joint plane attached");
        gate!(gates, explored > 0, "{tag}: the joint plane never explored");
    }
    let worst = Bound::worst(regressions.into_iter());
    println!("\nworst joint-vs-best-corner P99 ratio: {}", ratio(worst));
    if !smoke {
        // The headline claim: on the hardest cell (highest c and N — where
        // the Nagle/delayed-ACK interaction bites), the joint plane must
        // strictly beat the Nagle-only plane.
        let high = (0..cells.len()).max_by_key(|&i| cells[i]).expect("non-empty grid");
        let ((cost, n), [.., single, joint]) = (cells[high], &results[high]);
        gate!(
            gates,
            joint_wins(joint, single),
            "high cell c={cost}/N={n}: joint {} µs does not beat nagle-only {} µs",
            us(joint.measured_p99), us(single.measured_p99)
        );
    }
    let sections = vec![("cells", Json::Arr(rows))];
    Some(Doc { version: 1, header: bound_header(KNOBS_BOUND), sections })
}

/// Extra slack for the adversary smoke grid only. The 150 ms smoke window
/// holds just a handful of restart/recovery cycles, so the guarded P99
/// lands inside the recovery transient instead of averaging over it the
/// way the 600 ms full grid does; the wider slack absorbs that sampling
/// noise without loosening the full-grid bound.
const SMOKE_EXTRA_SLACK: Nanos = Nanos::from_micros(300);

/// Adversary: adversarial metadata faults (exchange corruption, endpoint
/// restart) against the hardened estimator stack. The two static
/// baselines plus two otherwise identical adaptive arms — guarded
/// (validation on) and exposed (validation off). The guarded arm must
/// stay within the chaos degradation bound of the static oracle in every
/// cell, while at least one exposed arm must break it — proving
/// peer-state validation is load-bearing, not a rubber stamp.
pub fn adversary(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    // 95 kRPS is past the no-Nagle knee (~88 kRPS): the static arms
    // genuinely disagree here (off collapses, on holds), so a poisoned
    // policy pinned on the wrong arm shows up as a large, unambiguous P99
    // regression. Fan-in stays small in the full grid: the adversarial
    // faults target the metadata plane, not delivery, so even a single
    // connection exercises them fully; N=2 adds the multi-connection
    // listener registry to the attack surface.
    let (cells, seed, bound) = if smoke {
        let slack = CHAOS_BOUND.slack + SMOKE_EXTRA_SLACK;
        (cube(&[1], &AdversaryClass::ALL, &[1.0]), 0xC405, Bound { slack, ..CHAOS_BOUND })
    } else {
        (cube(&[1, 2], &AdversaryClass::ALL, &[0.5, 1.0]), SEED, CHAOS_BOUND)
    };
    let results = run_grid(cells.len(), default_threads(), |i| {
        let (n, class, intensity) = cells[i];
        let arms = experiments::adversary_arms(class, intensity, n, 95_000.0, windows(smoke), seed);
        arms.map(|cfg| run_point(&cfg))
    });
    println!(
        "{:>3} {:>8} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>7} | {:>7} {:>6} {:>5}",
        "N", "class", "int", "off-p99", "on-p99", "guard-p99", "expo-p99", "oracle", "g-rat",
        "e-rat", "rejects", "epochs", "trips"
    );
    println!("{}", "-".repeat(117));
    let (mut rows, mut regressions) = (Vec::new(), Vec::new());
    let mut exposed_breaches = 0usize;
    for (&(n, class, intensity), [off, on, g, exposed]) in cells.iter().zip(&results) {
        let tag = format!("{}/{intensity:.2}/N={n}", class.name());
        let v = g.validation.unwrap_or_default();
        let (corruptions, trips) = (link_faults(g).corruptions, breaker_trips(g));
        let oracle = lower_p99(off.measured_p99, on.measured_p99);
        let (guarded_p99, exposed_p99) = (g.measured_p99, exposed.measured_p99);
        let regression = Bound::ratio(guarded_p99, oracle);
        let exposed_regression = Bound::ratio(exposed_p99, oracle);
        regressions.push(regression);
        println!(
            "{n:>3} {:>8} {intensity:>5.2} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>6} {:>7} | \
             {:>7} {:>6} {trips:>5}",
            class.name(), us(off.measured_p99), us(on.measured_p99), us(guarded_p99),
            us(exposed_p99), us(oracle), ratio(regression), ratio(exposed_regression), v.rejected,
            v.epoch_changes,
        );
        let validation = Json::obj([
            ("accepted", v.accepted.into()),
            ("rejected", v.rejected.into()),
            ("epoch_changes", v.epoch_changes.into()),
        ]);
        rows.push(Json::obj([
            ("class", class.name().into()),
            ("intensity", Json::float(intensity)),
            ("num_clients", n.into()),
            ("off_p99_us", Json::us(off.measured_p99)),
            ("on_p99_us", Json::us(on.measured_p99)),
            ("guarded_p99_us", Json::us(guarded_p99)),
            ("exposed_p99_us", Json::us(exposed_p99)),
            ("oracle_p99_us", Json::us(oracle)),
            ("regression", json_ratio(regression)),
            ("exposed_regression", json_ratio(exposed_regression)),
            ("breaker_trips", trips.into()),
            ("corruptions", corruptions.into()),
            ("restarts", g.fault_restarts.into()),
            ("validation", validation),
        ]));

        for (arm, p) in [("off", off), ("on", on), ("guarded", g), ("exposed", exposed)] {
            gate!(gates, p.samples > 0, "{tag} [{arm}]: no samples survived the faults");
        }
        // The fault layer must actually have hit the metadata path — an
        // adversary run where nothing was garbled or restarted gates
        // nothing.
        match class {
            AdversaryClass::Corrupt => {
                gate!(gates, corruptions > 0, "{tag}: no exchange was ever corrupted");
                gate!(
                    gates,
                    v.rejected > 0,
                    "{tag}: corruption fired {corruptions} times but the validator rejected nothing"
                );
            }
            AdversaryClass::Restart => {
                gate!(gates, g.fault_restarts > 0, "{tag}: no restart was ever injected");
                gate!(gates, g.client_restarts > 0, "{tag}: clients never observed a restart");
                gate!(gates, v.epoch_changes > 0, "{tag}: restarts fired, no epoch change seen");
                // Recovery, not just survival: the guarded arm must keep
                // serving a solid majority of the offered load across
                // every die/reconnect/resync cycle.
                gate!(
                    gates,
                    g.achieved_rps > 0.5 * g.offered_rps,
                    "{tag}: guarded arm served only {:.0}/{:.0} rps across restarts",
                    g.achieved_rps, g.offered_rps
                );
            }
        }
        gate!(
            gates,
            bound.holds(guarded_p99, oracle),
            "{tag}: guarded p99 {} µs exceeds {bound} of oracle {} µs",
            us(guarded_p99), us(oracle)
        );
        if !bound.holds(exposed_p99, oracle) {
            exposed_breaches += 1;
        }
    }
    let worst = Bound::worst(regressions.into_iter());
    println!("\nworst guarded-vs-oracle P99 ratio: {}", ratio(worst));
    println!("exposed arms breaking the bound: {exposed_breaches}/{}", cells.len());
    // The ablation is the experiment's point: the same stack without
    // validation must demonstrably fail somewhere on the grid.
    gate!(
        gates,
        exposed_breaches > 0,
        "every exposed arm stayed within the bound — validation is not load-bearing on this grid"
    );
    let sections = vec![("exposed_breaches", exposed_breaches.into()), ("cells", Json::Arr(rows))];
    Some(Doc { version: 1, header: bound_header(CHAOS_BOUND), sections })
}

/// Minimum fraction of measurement windows in which the service-level
/// estimates must rank the hot shard's composed delay highest, checked
/// on the *unadapted* (`TCP_NODELAY`-pinned) run at the saturated top
/// rate. The diagnostic claim lives on that arm deliberately: the
/// adaptive planes consume the very signal being measured — once the
/// hot upstream flips to batching, its delay drops back into the pack.
const SHARD_HOT_RANK_MIN: f64 = 0.9;

fn shard_point_json(r: &TierPointResult) -> Json {
    Json::obj([
        ("p99_us", Json::us(r.measured_p99)),
        ("hot_shard", r.hot_shard.into()),
        ("per_shard_requests", Json::arr(r.per_shard_requests.iter().map(|&n| n.into()))),
        ("shard_estimates_us", Json::arr(r.shard_estimates.iter().map(|&e| Json::us(e)))),
        ("hot_rank_fraction", json_ratio(r.hot_rank_fraction)),
        ("shard_on_fraction", Json::arr(r.shard_on_fraction.iter().map(|&f| Json::debug(f)))),
    ])
}

/// Shard: the two-tier datacenter (8 clients → proxy → 4 shards) with
/// 70 % of the traffic on one hot shard, so no single global pin is right
/// for every upstream: every upstream pinned `TCP_NODELAY`, every
/// upstream pinned Nagle-on, and the per-shard adaptive planes fed
/// composed client→proxy + proxy→shard estimates. Rates run from
/// comfortably unsaturated to hot enough that the skewed shard's
/// per-delivery receive work saturates its core under `TCP_NODELAY`.
pub fn shard(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    let (rates, seed): (&[f64], u64) =
        if smoke { (&[60_000.0], 0x5AAD) } else { (&[30_000.0, 60_000.0, 90_000.0], SEED) };
    let cells = run_grid(rates.len(), default_threads(), |i| {
        let arms = experiments::shard_arms(rates[i], 8, 4, 0.7, windows(smoke), seed);
        arms.map(|cfg| run_tier_point(&cfg))
    });
    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>6} | {:>8} {:>8} | {:>16}",
        "rate", "off-p99", "on-p99", "adap-p99", "ratio", "hot-rank", "pxy-cpu", "on-frac/shard"
    );
    println!("{}", "-".repeat(92));
    let mut rows = Vec::new();
    for (&rate, [off, on, adaptive]) in rates.iter().zip(&cells) {
        let best = lower_p99(off.measured_p99, on.measured_p99);
        let regression = Bound::ratio(adaptive.measured_p99, best);
        let hot = adaptive.hot_shard;
        let on_fractions: Vec<String> = (adaptive.shard_on_fraction.iter().enumerate())
            .map(|(s, f)| format!("{}{f:.2}", if s == hot { "*" } else { "" }))
            .collect();
        let rank = off.hot_rank_fraction;
        let rank = rank.map_or_else(|| "n/a".into(), |f| format!("{:.0}%", f * 100.0));
        println!(
            "{rate:>8.0} | {:>9} {:>9} {:>9} | {:>6} | {rank:>8} {:>8.2} | {:>16}",
            us(off.measured_p99), us(on.measured_p99), us(adaptive.measured_p99),
            ratio(regression), off.proxy_cpu.app, on_fractions.join(" "),
        );
        rows.push(Json::obj([
            ("rate_rps", Json::fixed(rate, 0)),
            ("off", shard_point_json(off)),
            ("on", shard_point_json(on)),
            ("adaptive", shard_point_json(adaptive)),
            ("regression", json_ratio(regression)),
        ]));

        for (arm, r) in [("off", off), ("on", on), ("adaptive", adaptive)] {
            let served = &r.per_shard_requests;
            gate!(gates, r.samples > 0, "rate {rate}: {arm} arm recorded no samples");
            gate!(
                gates,
                served.iter().all(|&n| n > 0),
                "rate {rate}: {arm} arm left a shard idle: {served:?}"
            );
            // Skew reached the wire: the hot shard carried the most requests.
            let busiest = (0..served.len()).max_by_key(|&s| served[s]);
            gate!(
                gates,
                busiest == Some(r.hot_shard),
                "rate {rate}: {arm} arm routed most traffic to shard {busiest:?}, hot is {}",
                r.hot_shard
            );
        }
        // The composed per-shard estimates exist for every shard.
        let composed = adaptive.shard_estimates.iter().all(|e| e.is_some());
        gate!(gates, composed, "rate {rate}: missing per-shard estimates");
        // Adaptive never degrades past the bound, at any rate.
        gate!(
            gates,
            SHARD_BOUND.holds(adaptive.measured_p99, best),
            "rate {rate}: adaptive p99 {} µs exceeds {SHARD_BOUND} of best corner {} µs",
            us(adaptive.measured_p99), us(best)
        );
    }
    if !smoke {
        // The headline claims, on the saturated top-rate cell (absent from
        // the smoke grid): the composed estimates on the unadapted run
        // single out the hot shard — the adaptive planes consume that
        // signal by fixing the hot upstream — and the per-shard planes
        // strictly beat whichever global pin an operator would have chosen.
        let [off, on, adaptive] = cells.last().expect("empty grid");
        let rank = off.hot_rank_fraction;
        gate!(
            gates,
            rank.is_some_and(|r| r >= SHARD_HOT_RANK_MIN),
            "hot cell: estimate ranked the hot shard first in only {rank:?} of windows"
        );
        let best = lower_p99(off.measured_p99, on.measured_p99);
        gate!(
            gates,
            Bound::ratio(adaptive.measured_p99, best).is_some_and(|r| r < 1.0),
            "hot cell: adaptive p99 {} µs did not beat the best corner {} µs",
            us(adaptive.measured_p99), us(best)
        );
        // The win is per-shard, not a lucky global flip: the hot upstream's
        // plane settled on batching while at least one cold plane did not.
        let (fraction, hot) = (&adaptive.shard_on_fraction, adaptive.hot_shard);
        let cold = (0..fraction.len()).filter(|&s| s != hot).map(|s| fraction[s]);
        let coldest = cold.fold(f64::INFINITY, f64::min);
        gate!(
            gates,
            fraction[hot] > 0.8 && coldest < 0.6,
            "hot cell: planes did not diverge (hot on-fraction {:.2}, coldest {coldest:.2})",
            fraction[hot]
        );
    }
    let mut header = vec![("hot_rank_min", Json::float(SHARD_HOT_RANK_MIN))];
    header.extend(bound_header(SHARD_BOUND));
    Some(Doc { version: 1, header, sections: vec![("cells", Json::Arr(rows))] })
}

/// The naive proxy must exceed this P99 multiple of the oracle in at
/// least one cell — the collapse the defense ladder exists to prevent.
const FAILOVER_NAIVE_FACTOR: f64 = 10.0;
/// Goodput floor for the full stack, as a fraction of the oracle's.
const FAILOVER_GOODPUT_MIN: f64 = 0.9;

fn failover_point_json(r: &TierPointResult) -> Json {
    Json::obj([
        ("p99_us", Json::us(r.measured_p99)),
        ("mean_us", Json::us(r.measured_mean)),
        ("achieved_rps", Json::fixed(r.achieved_rps, 0)),
        ("timeouts", r.timeouts.into()),
        ("retries", r.retries.into()),
        ("hedges", r.hedges.into()),
        ("breaker_trips", r.breaker_trips.into()),
        ("failovers", r.failovers.into()),
        ("failed", r.failed.into()),
        ("upstream_resets", r.upstream_resets.into()),
        ("orphans", r.orphan_responses.into()),
        ("dedup_hits", r.dedup_hits.into()),
        ("shard_crashes", r.shard_crashes.into()),
        ("back_epoch_changes", r.back_epoch_changes.into()),
    ])
}

/// Failover: shard failure against the proxy's defense ladder in the
/// two-tier datacenter (4 clients → proxy → 4 shards, 70 % hot). For each
/// fault scenario (hot-shard crash mid-run, cold-shard CPU brownout), the
/// never-failed oracle plus four arms — naive, deadlines only, budgeted
/// retries, and the full retry + hedge + breaker stack with
/// ring-successor failover routing. The claim: the full stack holds P99
/// within [`FAILOVER_BOUND`] (and goodput within
/// [`FAILOVER_GOODPUT_MIN`]) of the oracle in *every* cell while the
/// naive proxy collapses.
pub fn failover(smoke: bool, gates: &mut Gates) -> Option<Doc> {
    // The grid pins its own measurement window and seed rather than the
    // shared params: the crash lands a quarter into the window and the
    // brownout duty cycle was tuned against this exact horizon, and the
    // seed fixes which shard owns the hot key pool. 30 kRPS is hot enough
    // that a crashed hot shard's traffic meaningfully loads its failover
    // replica, comfortably below tier saturation so the oracle's tail
    // stays tight.
    let (rate, window) = if smoke {
        (20_000.0, (SMOKE_WARMUP, Nanos::from_millis(250)))
    } else {
        (30_000.0, (WARMUP, Nanos::from_millis(800)))
    };
    let scenarios = FailoverScenario::ALL;
    let cells = run_grid(scenarios.len(), default_threads(), |i| {
        let arms = experiments::failover_arms(scenarios[i], rate, 4, 4, 0.7, window, 0xFA11);
        arms.map(|cfg| run_tier_point(&cfg))
    });
    let mut rows = Vec::new();
    let (mut naive_collapsed, mut retries, mut hedges, mut trips, mut dedups) = (false, 0, 0, 0, 0);
    for (scenario, [oracle, arms @ ..]) in scenarios.iter().zip(&cells) {
        let scenario = scenario.label();
        println!(
            "scenario {scenario:<13} oracle: p99 {:>8}µs goodput {:>7.0} rps",
            us(oracle.measured_p99), oracle.achieved_rps,
        );
        println!(
            "  {:>12} | {:>9} {:>7} | {:>7} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
            "arm", "p99-us", "ratio", "rps", "t/o", "retry", "hedge", "trips", "fails", "dedup"
        );
        let mut row = vec![("scenario", scenario.into()), ("oracle", failover_point_json(oracle))];
        for (arm, r) in FailoverArm::ALL.iter().zip(arms) {
            let p99_ratio = Bound::ratio(r.measured_p99, oracle.measured_p99);
            let arm_ratio = p99_ratio.map_or_else(|| "n/a".into(), |x| format!("{x:.1}x"));
            println!(
                "  {:>12} | {:>9} {arm_ratio:>7} | {:>7.0} {:>6} {:>6} {:>5} {:>6} {:>6} {:>5}",
                arm.label(), us(r.measured_p99), r.achieved_rps, r.timeouts, r.retries, r.hedges,
                r.breaker_trips, r.failed, r.dedup_hits,
            );
            row.push((arm.label(), failover_point_json(r)));
            gate!(gates, r.samples > 0, "{scenario}: {} arm recorded no samples", arm.label());
        }
        rows.push(Json::obj(row));

        gate!(
            gates,
            oracle.samples > 0 && oracle.failed == 0 && oracle.upstream_resets == 0,
            "{scenario}: oracle run was not clean"
        );
        // The fault actually bit: the defended arms observed it.
        let [naive, _, retry, full] = arms;
        gate!(
            gates,
            full.upstream_resets + full.timeouts + full.hedges > 0,
            "{scenario}: fault plan never engaged the full stack"
        );
        // The full stack holds the acceptance bound in *every* cell.
        gate!(
            gates,
            FAILOVER_BOUND.holds(full.measured_p99, oracle.measured_p99)
                && full.achieved_rps >= FAILOVER_GOODPUT_MIN * oracle.achieved_rps,
            "{scenario}: full stack p99 {} µs / goodput {:.0} outside {FAILOVER_BOUND} of oracle \
             p99 {} µs / goodput {:.0}",
            us(full.measured_p99), full.achieved_rps, us(oracle.measured_p99), oracle.achieved_rps
        );
        // A naive proxy that stopped producing samples collapsed totally.
        let naive_ratio = Bound::ratio(naive.measured_p99, oracle.measured_p99);
        naive_collapsed |= naive_ratio.is_none_or(|r| r > FAILOVER_NAIVE_FACTOR);
        retries += full.retries + retry.retries;
        hedges += full.hedges;
        trips += full.breaker_trips;
        dedups += full.dedup_hits + retry.dedup_hits;
    }
    if !smoke {
        // Headline, over the whole grid at its tuned horizon: the ladder
        // is non-vacuous. The naive proxy collapsed somewhere, and every
        // defense earned its counters.
        gate!(
            gates,
            naive_collapsed,
            "no cell pushed the naive proxy past {FAILOVER_NAIVE_FACTOR}x oracle p99"
        );
        println!("fired: retries {retries}, hedges {hedges}, trips {trips}, dedups {dedups}");
        gate!(gates, retries > 0, "no retry ever granted across the grid");
        gate!(gates, hedges > 0, "no hedge ever granted across the grid");
        gate!(gates, trips > 0, "no breaker ever tripped across the grid");
        gate!(gates, dedups > 0, "idempotency window never deduplicated a write");
    }
    let mut header = bound_header(FAILOVER_BOUND);
    header.push(("naive_factor", Json::float(FAILOVER_NAIVE_FACTOR)));
    header.push(("goodput_min", Json::float(FAILOVER_GOODPUT_MIN)));
    Some(Doc { version: 1, header, sections: vec![("cells", Json::Arr(rows))] })
}
