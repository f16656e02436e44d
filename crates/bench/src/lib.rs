//! Benchmark and figure-regeneration harnesses.
//!
//! Every bench target regenerates one of the paper's figures (or an
//! ablation from §5) and prints the series the figure plots; `micro` is a
//! Criterion suite for the measurement primitives themselves (the paper's
//! "easily maintained counters" claim, quantified). The grid benches
//! format latencies with `e2e_apps::report`.
//!
//! | target           | regenerates                                   |
//! |------------------|-----------------------------------------------|
//! | `fig1`           | Figure 1 (analytical batching model)          |
//! | `fig2`           | Figure 2 (bare-metal vs VM client)            |
//! | `fig4a`          | Figure 4a (SET-only sweep, estimates, cutoff) |
//! | `fig4b`          | Figure 4b (95:5 mix, byte-estimate breakdown) |
//! | `dynamic_toggle` | §5 dynamic on/off toggling vs static          |
//! | `ablations`      | §5 knobs: granularity, smoothing, exchange    |
//! |                  | interval, AIMD limits, mechanism on/off       |
//! | `fanin`          | Fan-in: N ∈ {1,4,16,64} connections, cutoff   |
//! |                  | shift + aggregate estimate (BENCH_fanin.json) |
//! | `chaos`          | Fault classes × intensity × fan-in: adaptive  |
//! |                  | vs static-oracle P99 bound (BENCH_chaos.json) |
//! | `knobs`          | Client cost × fan-in: joint multi-knob plane  |
//! |                  | vs static corners + Nagle-only plane          |
//! |                  | (BENCH_knobs.json)                            |
//! | `adversary`      | Metadata corruption / endpoint restarts:      |
//! |                  | guarded vs exposed adaptive arms              |
//! |                  | (BENCH_adversary.json)                        |
//! | `shard`          | Two-tier proxy, skewed keys: per-shard planes |
//! |                  | vs global static pins (BENCH_shard.json)      |
//! | `failover`       | Shard crash / brownout × proxy defense ladder |
//! |                  | vs never-failed oracle (BENCH_failover.json)  |
//! | `simperf`        | Simulator wall time per simulated second by   |
//! |                  | fan-in width (BENCH_simperf.json; `--smoke`   |
//! |                  | ceilings)                                     |
//! | `micro`          | Criterion: TRACK/GETAVGS/wire/estimator costs |

/// Shared quick-run parameters so every figure bench uses the same
/// measurement discipline.
pub mod params {
    use littles::Nanos;

    /// Warmup excluded from measurement.
    pub const WARMUP: Nanos = Nanos::from_millis(200);
    /// Measurement window.
    pub const MEASURE: Nanos = Nanos::from_millis(600);
    /// Seed for figure regeneration (fixed: the runs are deterministic).
    pub const SEED: u64 = 0xBE7C;
}
