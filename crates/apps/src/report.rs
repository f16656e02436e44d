//! Number formatting shared by the experiment tables (JSON output goes
//! through the bench crate's one emitter).

use littles::Nanos;

/// A table cell: `n` in microseconds to one decimal, `n/a` when absent.
pub fn us(n: Option<Nanos>) -> String {
    n.map_or_else(|| "n/a".into(), |v| format!("{:.1}", v.as_micros_f64()))
}
