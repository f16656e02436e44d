//! Rule names, `lint:allow` markers, and the one per-file rule
//! (`cast-truncation`).

use std::cell::Cell;

use crate::diag::Diagnostic;
use crate::mask::{self, line_col, Masked};
use crate::model::{in_test_region, test_regions};

/// Rule identifiers, as accepted by `lint:allow(...)`, each with the
/// one-line summary the usage text prints.
pub const RULES: [(&str, &str); 4] = [
    (
        "rng-streams",
        "every Pcg32::named stream declared once; no ad-hoc Pcg32::new in fault code",
    ),
    (
        "cast-truncation",
        "no unjustified narrowing casts / raw wire-counter `-`",
    ),
    (
        "panic-reachability",
        "reachable panic sites ratcheted down via baseline",
    ),
    (
        "hot-path-alloc",
        "allocations in hot-path code ratcheted down via baseline",
    ),
];

/// Whether `rule` names an entry of [`RULES`].
fn is_rule(rule: &str) -> bool {
    RULES.iter().any(|(name, _)| *name == rule)
}

/// Rules that run in the cross-file workspace pass (`lint_root`), not in
/// [`lint_source`]. Their `lint:allow` markers are only checked for
/// staleness after that pass has had a chance to consume them.
pub const WORKSPACE_RULES: [&str; 3] = ["rng-streams", "panic-reachability", "hot-path-alloc"];

/// `u32` wire-counter fields of `WireSnapshot` whose deltas must use
/// `wrapping_sub`: the time field wraps every `2^42 ns ≈ 73 min` of
/// simulated time at the default scale, and the counters wrap under
/// long-horizon load, so a raw `-` yields a garbage delta (or a debug
/// overflow panic) on the far side of the wrap.
const WIRE_COUNTER_FIELDS: [&str; 3] = ["time", "total", "integral"];

/// How a file relates to the rule scopes, derived from its path.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// File belongs to a simulation crate (littles, simnet, tcpsim,
    /// e2e-core, batchpolicy) → its event-loop fns are the ratchets'
    /// dispatch roots.
    pub simulation_crate: bool,
    /// File is test-like by location (`tests/`, `benches/`, `examples/`)
    /// → no rule counts its sites.
    pub testlike: bool,
    /// File is fault-injection source (simulation-crate `src` file whose
    /// name mentions faults) → `rng-streams` additionally bans ad-hoc
    /// `Pcg32::new`: every fault class must draw from its own named
    /// stream or enabling one class would shift another's draws.
    pub fault_code: bool,
    /// File handles wire counters or clock values (littles' `wire.rs`,
    /// `e2e-core` src, `tcpsim` src) → `cast-truncation` applies: lossy
    /// `as u32`/`as u16`/`as u8` casts and raw `-` on wire-counter
    /// fields must be proven bounded (or modular by design) and carry a
    /// justified `lint:allow`.
    pub cast_scope: bool,
}

/// A parsed `lint:allow` marker. `used` is flipped by [`allowed`] when
/// the marker suppresses a diagnostic, so markers that suppress nothing
/// can be reported as `stale-allow`.
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: String,
    pub(crate) used: Cell<bool>,
}

/// Parses `lint:allow(rule): justification` markers out of the comment
/// list; malformed markers become `bad-suppression` diagnostics.
pub(crate) fn parse_allows(file: &str, masked: &Masked, diags: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in &masked.comments {
        // Markers live in plain `//` comments only; doc comments merely
        // *describing* the syntax are not suppressions.
        if text.starts_with("///") || text.starts_with("//!") || text.starts_with("/**") {
            continue;
        }
        let Some(pos) = text.find("lint:allow") else {
            continue;
        };
        let rest = &text[pos + "lint:allow".len()..];
        let parsed = rest.strip_prefix('(').and_then(|r| {
            let close = r.find(')')?;
            let rule = r[..close].trim().to_string();
            let after = r[close + 1..].trim_start();
            let justification = after.strip_prefix(':')?.trim();
            Some((rule, justification.to_string()))
        });
        match parsed {
            Some((rule, justification)) if is_rule(&rule) && !justification.is_empty() => {
                allows.push(Allow {
                    line: *line,
                    rule,
                    used: Cell::new(false),
                });
            }
            Some((rule, justification)) => {
                let why = if !is_rule(&rule) {
                    format!("unknown rule `{rule}`")
                } else if justification.is_empty() {
                    "missing justification".to_string()
                } else {
                    unreachable!("well-formed markers are accepted above")
                };
                let names = RULES.map(|(name, _)| name);
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    col: 1,
                    rule: "bad-suppression",
                    message: format!(
                        "{why}; use `lint:allow(<rule>): <justification>` with a rule from {names:?}"
                    ),
                });
            }
            None => diags.push(Diagnostic {
                file: file.to_string(),
                line: *line,
                col: 1,
                rule: "bad-suppression",
                message: "malformed marker; use `lint:allow(<rule>): <justification>`"
                    .to_string(),
            }),
        }
    }
    allows
}

/// Whether a marker suppresses `rule` at `line` (same or next line).
/// Matching markers are recorded as used for `stale-allow`.
pub(crate) fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    let mut hit = false;
    for a in allows {
        if a.rule == rule && (a.line == line || a.line + 1 == line) {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Emits `stale-allow` diagnostics for markers that suppressed nothing.
/// Workspace-rule markers are skipped unless `workspace_rules_ran`: in a
/// single-file lint the cross-file pass never runs, so those markers
/// cannot be judged stale.
pub(crate) fn stale_allows(
    file: &str,
    allows: &[Allow],
    workspace_rules_ran: bool,
    diags: &mut Vec<Diagnostic>,
) {
    for a in allows {
        if a.used.get() {
            continue;
        }
        if !workspace_rules_ran && WORKSPACE_RULES.contains(&a.rule.as_str()) {
            continue;
        }
        diags.push(Diagnostic {
            file: file.to_string(),
            line: a.line,
            col: 1,
            rule: "stale-allow",
            message: format!(
                "`lint:allow({})` no longer suppresses anything; the code it \
                 justified is gone — remove the marker",
                a.rule
            ),
        });
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whole-token occurrences of `needle` in `haystack`.
fn token_matches(haystack: &str, needle: &str) -> Vec<usize> {
    let bytes = haystack.as_bytes();
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(pos) = haystack[search..].find(needle) {
        let start = search + pos;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        search = start + 1;
    }
    out
}

/// The token immediately right of `offset` (skipping spaces and a sign).
fn token_right(bytes: &[u8], mut offset: usize) -> String {
    while offset < bytes.len() && bytes[offset] == b' ' {
        offset += 1;
    }
    if offset < bytes.len() && bytes[offset] == b'-' {
        offset += 1;
    }
    let start = offset;
    while offset < bytes.len() && (is_ident_byte(bytes[offset]) || bytes[offset] == b'.') {
        offset += 1;
    }
    String::from_utf8_lossy(&bytes[start..offset]).into_owned()
}

/// Runs the per-file rule (`cast-truncation`) over one file's source,
/// standalone: the workspace rules (`rng-streams`, `panic-reachability`,
/// `hot-path-alloc`) need the whole tree and only run under
/// [`crate::lint_root`].
pub fn lint_source(file: &str, source: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    let masked = mask::mask(source);
    let mut diags = Vec::new();
    let allows = parse_allows(file, &masked, &mut diags);
    lint_file(file, &masked, &allows, ctx, &mut diags);
    stale_allows(file, &allows, false, &mut diags);
    diags.sort();
    diags
}

/// Runs the per-file rule over one file, using pre-parsed suppression
/// markers (so the caller can later judge their staleness).
///
/// `cast-truncation`: lossy narrowing casts and raw arithmetic on wire
/// counters / clock values (tests exempt — they construct bounded inputs
/// on purpose). Wire fields are u32 by design and *wrap*; a site is
/// either provably bounded, modular by design (justify with an allow
/// marker), or a long-horizon bug of the 2^42 ns wire-clock kind.
pub(crate) fn lint_file(
    file: &str,
    masked: &Masked,
    allows: &[Allow],
    ctx: &FileContext,
    diags: &mut Vec<Diagnostic>,
) {
    if !ctx.cast_scope || ctx.testlike {
        return;
    }
    let regions = test_regions(&masked.text);
    let text = &masked.text;
    let bytes = text.as_bytes();

    let mut push = |offset: usize, message: String| {
        if in_test_region(&regions, offset) {
            return;
        }
        let (line, col) = line_col(text, offset);
        if !allowed(allows, "cast-truncation", line) {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                col,
                rule: "cast-truncation",
                message,
            });
        }
    };

    for offset in token_matches(text, "as") {
        let target = token_right(bytes, offset + 2);
        if matches!(target.as_str(), "u32" | "u16" | "u8") {
            push(
                offset,
                format!(
                    "`as {target}` silently truncates on overflow; prove the \
                     value bounded (or modular by design) and justify with a \
                     lint:allow, or convert with `try_into`"
                ),
            );
        }
    }

    // Raw `-` on a u32 wire-counter field: deltas must ride through the
    // wrap via `wrapping_sub`. Only files that actually handle wire
    // snapshots are in scope — same-named fields elsewhere (e.g.
    // full-resolution u64 counters) subtract safely.
    if token_matches(text, "WireSnapshot").is_empty()
        && token_matches(text, "WireExchange").is_empty()
    {
        return;
    }
    for field in WIRE_COUNTER_FIELDS {
        let needle = format!(".{field}");
        let mut search = 0usize;
        while let Some(pos) = text[search..].find(&needle) {
            let start = search + pos;
            search = start + 1;
            let end = start + needle.len();
            // Must be a field access (`x.time`), not a longer name
            // (`.timestamp`) or a method (`.time(`).
            if start == 0
                || !(is_ident_byte(bytes[start - 1])
                    || bytes[start - 1] == b')'
                    || bytes[start - 1] == b']')
            {
                continue;
            }
            if end < bytes.len() && is_ident_byte(bytes[end]) {
                continue;
            }
            let mut j = end;
            while j < bytes.len() && bytes[j] == b' ' {
                j += 1;
            }
            // Binary `-` only: `-=` compounds and `->` arrows are not
            // wrap-sensitive deltas.
            if j >= bytes.len() || bytes[j] != b'-' {
                continue;
            }
            if matches!(bytes.get(j + 1), Some(b'=') | Some(b'>')) {
                continue;
            }
            push(
                start,
                format!(
                    "raw `-` on wire counter `{needle}`; the u32 wire \
                     fields wrap (time every 2^42 ns at default scale) — \
                     compute deltas with `wrapping_sub`"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cast_ctx() -> FileContext {
        FileContext {
            cast_scope: true,
            ..FileContext::default()
        }
    }

    #[test]
    fn suppression_with_justification_accepted() {
        let src = "// lint:allow(cast-truncation): sequence space is modular by design\n\
                   fn f(t: u64) -> u32 { t as u32 }\n";
        assert!(lint_source("x.rs", src, &cast_ctx()).is_empty());
    }

    #[test]
    fn suppression_without_justification_rejected() {
        let src = "// lint:allow(cast-truncation)\nfn f(t: u64) -> u32 { t as u32 }\n";
        let d = lint_source("x.rs", src, &cast_ctx());
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"bad-suppression"), "{rules:?}");
        assert!(rules.contains(&"cast-truncation"), "unjustified marker must not suppress");
    }

    #[test]
    fn cast_truncation_flags_narrowing_casts() {
        let src = "fn f(t: u64) -> (u32, u16, u8) { (t as u32, t as u16, t as u8) }\n";
        let d = lint_source("x.rs", src, &cast_ctx());
        let got: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(got, vec!["cast-truncation"; 3]);
        // Out of scope (or widening), the same casts are fine.
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
        let widen = "fn f(t: u16) -> u64 { t as u64 }\n";
        assert!(lint_source("x.rs", widen, &cast_ctx()).is_empty());
    }

    #[test]
    fn cast_truncation_exempt_in_tests_and_suppressible() {
        let in_mod = "#[cfg(test)]\nmod tests { fn f(t: u64) -> u32 { t as u32 } }\n";
        assert!(lint_source("x.rs", in_mod, &cast_ctx()).is_empty());
        let suppressed = "// lint:allow(cast-truncation): sequence space is modular by design\n\
                          fn f(t: u64) -> u32 { t as u32 }\n";
        assert!(lint_source("x.rs", suppressed, &cast_ctx()).is_empty());
    }

    #[test]
    fn cast_truncation_flags_raw_wire_counter_subtraction() {
        let src = "fn d(cur: &WireSnapshot, prev: &WireSnapshot) -> (u32, u32) {\n\
                   (cur.time - prev.time, cur.total.wrapping_sub(prev.total))\n}\n";
        let d = lint_source("x.rs", src, &cast_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("cast-truncation", 2));
        assert!(d[0].message.contains("wrapping_sub"), "{}", d[0].message);
    }

    #[test]
    fn wire_counter_subtraction_needs_wire_types_in_file() {
        // Full-resolution u64 counters subtract safely; the sub-rule only
        // wakes up in files that mention the wire snapshot types.
        let src = "fn d(cur: &Snapshot, prev: &Snapshot) -> u64 { cur.time - prev.time }\n";
        assert!(lint_source("x.rs", src, &cast_ctx()).is_empty());
    }

    #[test]
    fn wire_counter_compound_ops_and_longer_fields_exempt() {
        let src = "fn f(s: &mut Stats, w: &WireSnapshot) {\n\
                   s.time -= 1;\n    s.timestamp - 1;\n    let _ = w.time;\n}\n";
        assert!(lint_source("x.rs", src, &cast_ctx()).is_empty());
    }

    #[test]
    fn stale_allow_flags_unused_markers() {
        let src = "// lint:allow(cast-truncation): leftover from a removed narrowing cast\n\
                   fn f() -> u64 { 42 }\n";
        let d = lint_source("x.rs", src, &cast_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("stale-allow", 1));
    }

    #[test]
    fn used_markers_are_not_stale() {
        let src = "fn f(t: u64) -> u16 {\n\
                   t as u16 // lint:allow(cast-truncation): caller bounds t below 2^16\n}\n";
        assert!(lint_source("x.rs", src, &cast_ctx()).is_empty());
    }

    #[test]
    fn workspace_rule_markers_not_judged_in_single_file_lint() {
        // `lint_source` cannot run the cross-file pass, so a workspace-rule
        // marker is left for `lint_root` to judge.
        let src = "// lint:allow(rng-streams): shared stream justified\n\
                   fn f() -> u64 { 42 }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }
}
