//! The metric tables: every name the benchmark prints, with unit and
//! direction. `BENCHMARK.json` is `--describe`'s output, so the file and
//! the runner cannot disagree.

use crate::trace::Tracer;
use crate::workloads;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Host metrics (`setup_s`, `host_s_per_sim_s`, `peak_rss_mb`) are wall
/// clock and memory of this machine; `sim_*`, `ok_share` and
/// `est_agreement_pct` are simulated and bit-exact at a fixed seed, so
/// their bounds only have to cover the spread between seeds.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_s_per_sim_s",
        unit: "s/sim_s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p50_us",
        unit: "sim_us",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p99_us",
        unit: "sim_us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_goodput_rps",
        unit: "1/sim_s",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "est_agreement_pct",
        unit: "%",
        better: "higher",
        bound: 0.20,
    },
];

const COUNTS: [&str; 40] = [
    "simnet.link.packets",
    "simnet.link.drops",
    "simnet.cpu.client_app_util",
    "simnet.cpu.proxy_app_util",
    "simnet.cpu.server_app_util",
    "simnet.cpu.server_softirq_util",
    "tcpsim.retransmissions",
    "tcpsim.fast_retransmits",
    "tcpsim.dup_acks",
    "tcpsim.nagle_holds",
    "tcpsim.cork_holds",
    "tcpsim.pure_acks",
    "tcpsim.packets_per_request",
    "apps.client.sent",
    "apps.client.completed",
    "apps.client.samples",
    "apps.failed_share",
    "apps.proxy.forwarded",
    "apps.proxy.failed",
    "apps.proxy.failovers",
    "apps.proxy.timeouts",
    "apps.proxy.orphan_responses",
    "apps.kv.dedup_hits",
    "core.exchanges_received",
    "core.est_bytes_us",
    "core.est_packets_us",
    "core.est_messages_us",
    "core.est_hint_us",
    "core.est_err_pct",
    "core.validate.accepted",
    "core.validate.rejected",
    "policy.nagle_switches",
    "policy.delack_switches",
    "policy.cork_switches",
    "policy.explorations",
    "policy.on_fraction",
    "policy.breaker_trips",
    "policy.retry.retries",
    "policy.retry.hedges",
    "policy.retry.budget_denied",
];

const PROBES: [&str; 16] = [
    "littles.track_ns",
    "littles.wire_encode_ns",
    "littles.wire_decode_ns",
    "simnet.wheel.cycle_ns.pop64",
    "simnet.wheel.cycle_ns.pop64k",
    "simnet.hist.record_ns",
    "core.estimator_update_ns",
    "core.compose_two_ns",
    "core.validate_ns",
    "core.aggregate1024_ns",
    "policy.plane_decide_ns",
    "policy.retry_scan_ns",
    "policy.breaker_offer_ns",
    "apps.resp_parse_set16k_ns",
    "apps.ring_route_ns",
    "apps.kv_set_ns",
];

/// Metrics for which more is better; every other per-layer metric is a
/// cost, a fault count or an error.
const HIGHER: [&str; 6] = [
    "apps.client.sent",
    "apps.client.completed",
    "apps.client.samples",
    "apps.proxy.forwarded",
    "core.exchanges_received",
    "core.validate.accepted",
];

/// Every per-layer metric name, in print order: the tracer's, the
/// counts, the probes, the overhead.
pub fn per_layer() -> Vec<String> {
    let mut names: Vec<String> = Tracer::new()
        .metrics(1.0)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    names.extend(COUNTS.iter().chain(&PROBES).map(|s| s.to_string()));
    names.push("trace.overhead_pct".into());
    names
}

pub fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if name.starts_with("simnet.wheel.cycle_ns") || last.ends_with("_ns") || last == "ns_per_event"
    {
        "ns"
    } else if last.ends_with("_us") {
        "us"
    } else if last.ends_with("_pct") {
        "%"
    } else if last.ends_with("_share") || last.ends_with("_util") || last == "on_fraction" {
        "share"
    } else {
        "count"
    }
}

pub fn better_of(name: &str) -> &'static str {
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`.
pub fn describe(run_seconds: u64) -> String {
    let join = |rows: Vec<String>| rows.join(",\n    ");
    let workloads = join(
        workloads::ALL
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    let layers = join(
        per_layer()
            .iter()
            .map(|n| {
                format!(
                    "{{\"name\": \"{n}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    unit_of(n),
                    better_of(n)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {layers}\n  ]\n}}\n"
    )
}
