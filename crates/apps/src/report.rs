//! Number formatting shared by the experiment binaries (the examples'
//! tables, the benches' `BENCH_*.json` emitters).

use littles::Nanos;

fn micros_or(n: Option<Nanos>, missing: &str) -> String {
    n.map_or_else(|| missing.into(), |v| format!("{:.1}", v.as_micros_f64()))
}

/// A table cell: `n` in microseconds to one decimal, `n/a` when absent.
pub fn us(n: Option<Nanos>) -> String {
    micros_or(n, "n/a")
}

/// A JSON value: `n` in microseconds to one decimal, `null` when absent.
pub fn json_us(n: Option<Nanos>) -> String {
    micros_or(n, "null")
}
