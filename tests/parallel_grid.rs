//! Parallel grid acceptance: scheduling must never leak into results.
//!
//! The grid runner executes simulation cells on worker threads but
//! merges results by input index, so a parallel grid must be *bitwise*
//! identical to the serial one — same structs, same floats, same order.
//! This is the property that lets every experiment fan out across cores
//! without giving up replayable determinism.

use e2e_batching::e2e_apps::experiments::ChaosClass;
use e2e_batching::e2e_apps::grid::run_grid;
use e2e_batching::e2e_apps::{run_point, NagleSetting, PointResult, RunConfig, WorkloadSpec};
use e2e_batching::littles::Nanos;

/// A small but real chaos-style grid: fan-in width x fault intensity,
/// each cell a full faulted simulation.
fn grid_configs() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for &n in &[2usize, 4, 8] {
        for &intensity in &[0.25, 1.0] {
            configs.push(RunConfig {
                warmup: Nanos::from_millis(20),
                measure: Nanos::from_millis(60),
                num_clients: n,
                seed: 0x9A1D,
                fault: ChaosClass::Loss.fault_at(intensity),
                ..RunConfig::new(WorkloadSpec::fig4a(12_000.0), NagleSetting::Off)
            });
        }
    }
    configs
}

/// Every field of every cell — including the floats, compared by bit
/// pattern via `Debug`'s roundtrip formatting — must match between a
/// four-thread run and the serial loop, in the same order.
#[test]
fn parallel_grid_is_bitwise_identical_to_serial() {
    let configs = grid_configs();
    let parallel: Vec<PointResult> = run_grid(configs.len(), 4, |i| run_point(&configs[i]));
    let serial: Vec<PointResult> = configs.iter().map(run_point).collect();

    assert_eq!(parallel.len(), serial.len());
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_eq!(
            p.achieved_rps.to_bits(),
            s.achieved_rps.to_bits(),
            "cell {i}: achieved_rps diverged"
        );
        assert_eq!(p.samples, s.samples, "cell {i}: samples diverged");
        assert_eq!(p.measured_p99, s.measured_p99, "cell {i}: p99 diverged");
        assert_eq!(
            p.packets_to_server, s.packets_to_server,
            "cell {i}: packet count diverged"
        );
        assert_eq!(p.events, s.events, "cell {i}: event count diverged");
        // And the whole struct, via Debug's exact float roundtripping.
        assert_eq!(
            format!("{p:?}"),
            format!("{s:?}"),
            "cell {i}: some field diverged"
        );
    }
}

/// Thread count is not allowed to matter either: 2, 4, and many-threads
/// runs all agree with each other.
#[test]
fn thread_count_does_not_change_results() {
    let configs = grid_configs();
    let render = |threads: usize| -> String {
        run_grid(configs.len(), threads, |i| run_point(&configs[i]))
            .iter()
            .map(|r| format!("{r:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let two = render(2);
    assert_eq!(two, render(4));
    assert_eq!(two, render(13));
}
