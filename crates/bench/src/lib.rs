//! Benchmark and figure-regeneration harnesses.
//!
//! Every experiment — the paper's figures, the §5 sketches, and the
//! reproduction's grids — is declared once in the `experiments` bench
//! target's registry (`benches/experiments/`): its full and smoke grids,
//! its table, its JSON rows and its gates. This library holds what the
//! targets share: the measurement windows ([`params`]) and the one JSON
//! emitter ([`Json`], [`Doc`]) behind every `BENCH_*.json`.
//!
//! ```sh
//! cargo bench -p bench --bench experiments -- --smoke        # every entry: small grids, gates
//! cargo bench -p bench --bench experiments -- --smoke chaos  # one entry
//! cargo bench -p bench --bench experiments -- fanin fig4a    # full grids, write BENCH_*.json
//! ```
//!
//! | `experiments` entry | regenerates                                   |
//! |---------------------|-----------------------------------------------|
//! | `fig1`              | Figure 1 (analytical batching model)          |
//! | `fig2`              | Figure 2 (bare-metal vs VM client)            |
//! | `fig4a`             | Figure 4a (SET-only sweep, estimates, cutoff; |
//! |                     | BENCH_fig4a.json)                             |
//! | `fig4b`             | Figure 4b (95:5 mix, byte-estimate breakdown; |
//! |                     | BENCH_fig4b.json)                             |
//! | `dynamic_toggle`    | §5 dynamic on/off toggling vs static          |
//! |                     | (BENCH_dynamic_toggle.json)                   |
//! | `aimd_limit`        | §5 AIMD gradual batch limit vs static         |
//! |                     | (BENCH_aimd_limit.json)                       |
//! | `ablations`         | §5 knobs: granularity, smoothing, exchange    |
//! |                     | interval, mechanism on/off, AIMD controller   |
//! | `fanin`             | Fan-in: N ∈ {1,…,1024} connections, cutoff    |
//! |                     | shift + aggregate estimate (BENCH_fanin.json) |
//! | `chaos`             | Fault classes × intensity × fan-in: adaptive  |
//! |                     | vs static-oracle P99 bound (BENCH_chaos.json) |
//! | `knobs`             | Client cost × fan-in: joint multi-knob plane  |
//! |                     | vs static corners + Nagle-only plane          |
//! |                     | (BENCH_knobs.json)                            |
//! | `adversary`         | Metadata corruption / endpoint restarts:      |
//! |                     | guarded vs exposed adaptive arms              |
//! |                     | (BENCH_adversary.json)                        |
//! | `shard`             | Two-tier proxy, skewed keys: per-shard planes |
//! |                     | vs global static pins (BENCH_shard.json)      |
//! | `failover`          | Shard crash / brownout × proxy defense ladder |
//! |                     | vs never-failed oracle (BENCH_failover.json)  |
//!
//! One target stands alone: `micro`, a hand-rolled median-of-batches
//! suite for the measurement primitives — the paper's "easily maintained
//! counters" claim, quantified: TRACK/GETAVGS/wire/estimator/timer costs
//! in ns/op.

use std::fmt::Write as _;
use std::path::PathBuf;

use littles::Nanos;

/// Shared run parameters so every experiment uses the same measurement
/// discipline.
pub mod params {
    use littles::Nanos;

    /// Warmup excluded from measurement.
    pub const WARMUP: Nanos = Nanos::from_millis(200);
    /// Measurement window.
    pub const MEASURE: Nanos = Nanos::from_millis(600);
    /// Seed for figure regeneration (fixed: the runs are deterministic).
    pub const SEED: u64 = 0xBE7C;
    /// Warmup of the `--smoke` grids.
    pub const SMOKE_WARMUP: Nanos = Nanos::from_millis(50);
    /// Measurement window of the `--smoke` grids.
    pub const SMOKE_MEASURE: Nanos = Nanos::from_millis(150);
}

/// An ordered JSON value (the workspace has no registry dependencies, so
/// there is no serde). Object fields keep insertion order and numbers
/// carry their formatted text, which is what lets the checked-in
/// `BENCH_*.json` files regenerate byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, already formatted (see [`Json::float`], [`Json::debug`],
    /// [`Json::fixed`] and the integer `From` impls).
    Num(String),
    /// A string; escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// NaN and infinities have no JSON spelling: they become `null`.
    fn finite(v: f64, text: String) -> Json {
        if v.is_finite() { Json::Num(text) } else { Json::Null }
    }

    /// A float in `Display` form: shortest round-trip text, no trailing
    /// `.0` (`3.0` → `3`).
    pub fn float(v: f64) -> Json {
        Json::finite(v, format!("{v}"))
    }

    /// A float in `Debug` form: shortest round-trip text, always with a
    /// fractional part (`1.0` → `1.0`).
    pub fn debug(v: f64) -> Json {
        Json::finite(v, format!("{v:?}"))
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::finite(v, format!("{v:.decimals$}"))
    }

    /// `Some(v)` through `f`, `None` as `null`.
    pub fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        v.map_or(Json::Null, f)
    }

    /// A duration in microseconds to one decimal, `null` when absent.
    pub fn us(n: Option<Nanos>) -> Json {
        Json::opt(n, |v| Json::fixed(v.as_micros_f64(), 1))
    }

    /// An array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line text: `, ` between items, `: ` after keys.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    push_escaped(out, key);
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

/// One `BENCH_<name>.json` document. Rendered as `version`, `bench`, the
/// header fields, `count`, then the sections — one top-level field per
/// line, and an array section one row per line, so a regenerated file
/// diffs row by row. `count` is the length of the first array section
/// (the experiment's rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Schema version of this document.
    pub version: u32,
    /// Scalar fields ahead of `count` (bounds, thresholds).
    pub header: Vec<(&'static str, Json)>,
    /// Fields after `count`: the row array, plus any further summaries.
    pub sections: Vec<(&'static str, Json)>,
}

impl Doc {
    /// Number of rows: the length of the first array section.
    pub fn count(&self) -> usize {
        self.sections
            .iter()
            .find_map(|(_, v)| match v {
                Json::Arr(rows) => Some(rows.len()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The document text for the bench called `name`.
    pub fn render(&self, name: &str) -> String {
        let mut lines = vec![
            format!("  \"version\": {}", self.version),
            format!("  \"bench\": {}", Json::from(name).render()),
        ];
        let field = |(key, value): &(&str, Json)| match value {
            Json::Arr(rows) => {
                let rows: Vec<String> =
                    rows.iter().map(|r| format!("    {}", r.render())).collect();
                format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
            }
            scalar => format!("  \"{key}\": {}", scalar.render()),
        };
        lines.extend(self.header.iter().map(field));
        lines.push(format!("  \"count\": {}", self.count()));
        lines.extend(self.sections.iter().map(field));
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Writes `BENCH_<name>.json` next to this crate's manifest — where
    /// the checked-in goldens live — wherever the process was started.
    pub fn write(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{name}.json"));
        std::fs::write(&path, self.render(name))?;
        Ok(path)
    }
}
