//! Load sweeps: the Figure 4 harness.
//!
//! For each offered rate, [`run_sweep`] runs the workload under Nagle off
//! (the Redis default), Nagle on, and — optionally — the dynamic policy,
//! and collects per-point results. From a sweep one can read the paper's
//! headline quantities: the SLO-sustainable range per configuration, the
//! cutoff rate where batching starts winning, and the latency improvement
//! at a given rate.

use batchpolicy::Objective;
use littles::Nanos;

use crate::grid::{default_threads, run_grid};
use crate::runner::{run_point, NagleSetting, PointResult, RunConfig};
use crate::workload::WorkloadSpec;

/// One sweep row: the same rate under each configuration.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered rate (requests/second).
    pub rate_rps: f64,
    /// Nagle off (TCP_NODELAY, the Redis default).
    pub off: PointResult,
    /// Nagle on.
    pub on: PointResult,
    /// Dynamic toggling, when requested.
    pub dynamic: Option<PointResult>,
}

/// A full sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept rows, ascending by rate.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// The highest offered rate whose *measured mean latency* meets `slo`
    /// under the given accessor (e.g. off/on), i.e. the paper's
    /// "sustainable range of tolerable latencies".
    pub fn sustainable_rate(
        &self,
        slo: Nanos,
        pick: impl Fn(&SweepRow) -> &PointResult,
    ) -> Option<f64> {
        self.rows
            .iter()
            .filter(|row| {
                pick(row)
                    .measured_mean
                    .is_some_and(|m| m <= slo)
            })
            .map(|row| row.rate_rps)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// The lowest rate at which Nagle-on measures no worse than Nagle-off
    /// (the "cutoff" vertical line of Figure 4).
    pub fn cutoff_rate(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|row| match (row.on.measured_mean, row.off.measured_mean) {
                (Some(on), Some(off)) => on <= off,
                _ => false,
            })
            .map(|row| row.rate_rps)
    }

    /// Like [`cutoff_rate`](Self::cutoff_rate) but judged by the
    /// *byte-unit estimates* — Figure 4 checks whether the estimated
    /// cutoff coincides with the measured one (4a: yes; 4b: no).
    pub fn estimated_cutoff_rate(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(
                |row| match (row.on.estimated_bytes, row.off.estimated_bytes) {
                    (Some(on), Some(off)) => on <= off,
                    _ => false,
                },
            )
            .map(|row| row.rate_rps)
    }
}

/// Runs a sweep over `rates` for the workload produced by `spec_at`.
///
/// Rows run in parallel across worker threads (each row's two-or-three
/// simulation cells stay serial within it); results are merged back in
/// rate order, so the output is bitwise identical to a serial sweep.
pub fn run_sweep(
    rates: &[f64],
    spec_at: impl Fn(f64) -> WorkloadSpec + Sync,
    base: &RunConfig,
    include_dynamic: bool,
) -> SweepResult {
    let rows = run_grid(rates.len(), default_threads(), |i| {
        let rate = rates[i];
        let mk = |nagle: NagleSetting| RunConfig {
            workload: spec_at(rate),
            nagle,
            ..*base
        };
        SweepRow {
            rate_rps: rate,
            off: run_point(&mk(NagleSetting::Off)),
            on: run_point(&mk(NagleSetting::On)),
            // The paper's "prefer latency" policy.
            dynamic: include_dynamic
                .then(|| run_point(&mk(NagleSetting::dynamic(Objective::MinLatency)))),
        }
    });
    SweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CpuUtil;

    fn pr(rate: f64, mean_us: u64, est_us: u64) -> PointResult {
        PointResult {
            offered_rps: rate,
            achieved_rps: rate,
            measured_mean: Some(Nanos::from_micros(mean_us)),
            measured_p50: None,
            measured_p99: None,
            samples: 100,
            estimated_bytes: Some(Nanos::from_micros(est_us)),
            estimated_messages: None,
            estimated_hint: None,
            tracker_mean: None,
            srtt: None,
            client_cpu: CpuUtil {
                app: 0.0,
                softirq: 0.0,
            },
            server_cpu: CpuUtil {
                app: 0.0,
                softirq: 0.0,
            },
            packets_to_server: 0,
            packets_to_client: 0,
            nagle_holds: 0,
            client_on_fraction: None,
            server_on_fraction: None,
            aimd_mean_limit: None,
            exchanges_received: 0,
            num_clients: 1,
            per_client: Vec::new(),
            server_aggregate_latency: None,
            link_faults: Vec::new(),
            fault_blackout_time: Nanos::ZERO,
            client_breaker_trips: None,
            server_breaker_trips: None,
            plane_nagle_switches: None,
            plane_delack_switches: None,
            plane_cork_switches: None,
            plane_explorations: None,
            plane_cork_limit: None,
            validation: None,
            client_restarts: 0,
            fault_restarts: 0,
            events: 0,
        }
    }

    fn synthetic() -> SweepResult {
        // off: 100, 200, 600, 2000 µs; on: 250, 240, 300, 400 µs.
        let rows = [
            (10_000.0, 100, 250),
            (20_000.0, 200, 240),
            (30_000.0, 600, 300),
            (40_000.0, 2_000, 400),
        ]
        .iter()
        .map(|&(rate, off_us, on_us)| SweepRow {
            rate_rps: rate,
            off: pr(rate, off_us, off_us),
            on: pr(rate, on_us, on_us),
            dynamic: None,
        })
        .collect();
        SweepResult { rows }
    }

    #[test]
    fn sustainable_rate_respects_slo() {
        let s = synthetic();
        let slo = Nanos::from_micros(500);
        assert_eq!(s.sustainable_rate(slo, |r| &r.off), Some(20_000.0));
        assert_eq!(s.sustainable_rate(slo, |r| &r.on), Some(40_000.0));
    }

    #[test]
    fn cutoff_is_first_rate_where_on_wins() {
        // At 30 kRPS on (300 µs) first beats off (600 µs).
        let s = synthetic();
        assert_eq!(s.cutoff_rate(), Some(30_000.0));
        assert_eq!(s.estimated_cutoff_rate(), Some(30_000.0));
    }

    #[test]
    fn no_cutoff_when_off_always_wins() {
        let mut s = synthetic();
        for row in &mut s.rows {
            row.on.measured_mean = Some(Nanos::from_secs(1));
        }
        assert_eq!(s.cutoff_rate(), None);
    }
}
