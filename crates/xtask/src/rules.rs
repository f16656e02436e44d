//! The lint rules and the per-file driver.

use std::cell::Cell;

use crate::diag::Diagnostic;
use crate::mask::{self, line_col, Masked};
use crate::model::{in_test_region, test_regions};

/// Rule identifiers, as accepted by `lint:allow(...)`.
pub const RULES: [&str; 11] = [
    "determinism",
    "float-eq",
    "panic-hygiene",
    "pub-docs",
    "untrusted-wire",
    "rng-streams",
    "cast-truncation",
    "panic-reachability",
    "hot-path-alloc",
    "typed-ids",
    "retry-policy",
];

/// Rules that run in the cross-file workspace pass (`lint_root`), not in
/// [`lint_source`]. Their `lint:allow` markers are only checked for
/// staleness after that pass has had a chance to consume them.
pub const WORKSPACE_RULES: [&str; 3] = ["rng-streams", "panic-reachability", "hot-path-alloc"];

/// Calls into wall clocks, sleeps, or OS entropy that break simulation
/// determinism. Matched as whole tokens against masked source.
const DETERMINISM_BANNED: [(&str, &str); 7] = [
    ("SystemTime::now", "wall-clock read"),
    ("Instant::now", "wall-clock read"),
    ("thread::sleep", "real-time sleep"),
    ("thread_rng", "OS-seeded RNG"),
    ("OsRng", "OS entropy source"),
    ("from_entropy", "OS entropy seeding"),
    ("getrandom", "OS entropy syscall"),
];

/// Hash-based collections whose iteration order is seeded from OS entropy
/// (`RandomState`): iterating one anywhere in the simulation makes event
/// order depend on the process, so simulation crates must use the ordered
/// B-tree variants. Lookup-only uses that provably never iterate may carry
/// a justified `lint:allow(determinism)`.
const DETERMINISM_BANNED_COLLECTIONS: [(&str, &str); 2] = [
    ("HashMap", "BTreeMap"),
    ("HashSet", "BTreeSet"),
];

/// Topology id newtypes whose raw tuple construction is confined to
/// `simnet::topology`. After the star → graph generalization a host and
/// a link index live in different spaces (client `i`, proxy `n`, shard
/// `n+1+j` vs per-edge link numbering), so a literal `HostId(expr)` in
/// routing code is exactly the off-by-one class the newtypes exist to
/// catch. `from_index` is the sanctioned constructor: it keeps every
/// index→id conversion greppable and inside the topology module's
/// numbering contract.
const TYPED_ID_NEWTYPES: [&str; 2] = ["HostId", "LinkId"];

/// Wire-metadata decode entry points that assume trusted bytes. The
/// exchange payload arrives from the peer and may be garbled, truncated,
/// or produced by a peer that restarted mid-stream, so everything outside
/// `littles::wire` must go through the `try_decode_tagged` Result path
/// (which also carries the peer's counter epoch) and handle the error.
/// The infallible array decodes and the untagged/snapshot-level decodes
/// are implementation details of the wire module itself.
const UNTRUSTED_WIRE_BANNED: [(&str, &str); 4] = [
    ("WireExchange::decode", "infallible exchange decode"),
    ("WireSnapshot::decode", "infallible snapshot decode"),
    (
        "WireExchange::try_decode",
        "untagged exchange decode (drops the peer epoch)",
    ),
    (
        "WireSnapshot::try_decode",
        "snapshot-level decode (skips exchange framing and epoch)",
    ),
];

/// `u32` wire-counter fields of `WireSnapshot` whose deltas must use
/// `wrapping_sub`: the time field wraps every `2^42 ns ≈ 73 min` of
/// simulated time at the default scale, and the counters wrap under
/// long-horizon load, so a raw `-` yields a garbage delta (or a debug
/// overflow panic) on the far side of the wrap.
const WIRE_COUNTER_FIELDS: [&str; 3] = ["time", "total", "integral"];

/// Retry-ladder knobs whose *reads* are confined to the policy crate's
/// retry/breaker modules. Reading one elsewhere means some caller is
/// re-deriving backoff, jitter, or budget arithmetic by hand instead of
/// asking `RetryPolicy` (`attempt_deadline` / `request_attempt` /
/// `hedge_delay` / `reconnect_backoff`) — which forks the ladder and
/// silently diverges from the audited, deterministic one. Struct-literal
/// initialization (`initial_backoff: ..`) builds a config and is fine.
const RETRY_CONFIG_FIELDS: [&str; 5] = [
    "initial_backoff",
    "max_backoff",
    "min_hedge_delay",
    "budget_per_mille",
    "budget_burst",
];

/// How a file relates to the rule scopes, derived from its path.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// File belongs to a simulation crate (littles, simnet, tcpsim,
    /// e2e-core, batchpolicy) → `determinism` applies.
    pub simulation_crate: bool,
    /// File is library code of littles or e2e-core → `panic-hygiene`
    /// and `pub-docs` apply.
    pub strict_library: bool,
    /// File is test-like by location (`tests/`, `benches/`, `examples/`)
    /// → `float-eq` and `panic-hygiene` do not apply.
    pub testlike: bool,
    /// File is fault-injection source (simulation-crate `src` file whose
    /// name mentions faults) → `determinism` additionally bans ad-hoc
    /// `Pcg32::new`: every fault class must draw from its own named
    /// stream or enabling one class would shift another's draws.
    pub fault_code: bool,
    /// File is the wire codec itself (littles' `wire.rs`) →
    /// `untrusted-wire` does not apply: the raw decode entry points are
    /// its implementation details.
    pub wire_module: bool,
    /// File handles wire counters or clock values (littles' `wire.rs`,
    /// `e2e-core` src, `tcpsim` src) → `cast-truncation` applies: lossy
    /// `as u32`/`as u16`/`as u8` casts and raw `-` on wire-counter
    /// fields must be proven bounded (or modular by design) and carry a
    /// justified `lint:allow`.
    pub cast_scope: bool,
    /// File is the topology module itself (simnet's `topology.rs`) →
    /// `typed-ids` does not apply: the raw `HostId(..)`/`LinkId(..)`
    /// tuple constructors are its implementation details. Everywhere
    /// else index arithmetic must go through `from_index` so a grep for
    /// it finds every place a raw index becomes an id.
    pub topology_module: bool,
    /// File owns a sanctioned backoff ladder (batchpolicy's `retry.rs`
    /// and `breaker.rs`) → `retry-policy` does not apply: the raw
    /// deadline/backoff/jitter arithmetic is their implementation
    /// detail. Everywhere else must ask `RetryPolicy` for deadlines,
    /// retry delays, and hedge windows.
    pub retry_module: bool,
}

/// A parsed `lint:allow` marker. `used` is flipped by [`allowed`] when
/// the marker suppresses a diagnostic, so markers that suppress nothing
/// can be reported as `stale-allow`.
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: String,
    pub(crate) used: Cell<bool>,
}

/// Offset of the bracket matching the opener at `start`, if any.
fn match_bracket(bytes: &[u8], start: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = start;
    while j < bytes.len() {
        if bytes[j] == open {
            depth += 1;
        } else if bytes[j] == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
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
            Some((rule, justification))
                if RULES.contains(&rule.as_str()) && !justification.is_empty() =>
            {
                allows.push(Allow {
                    line: *line,
                    rule,
                    used: Cell::new(false),
                });
            }
            Some((rule, justification)) => {
                let why = if !RULES.contains(&rule.as_str()) {
                    format!("unknown rule `{rule}`")
                } else if justification.is_empty() {
                    "missing justification".to_string()
                } else {
                    unreachable!("well-formed markers are accepted above")
                };
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: *line,
                    col: 1,
                    rule: "bad-suppression",
                    message: format!(
                        "{why}; use `lint:allow(<rule>): <justification>` with a rule from {RULES:?}"
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

/// The token immediately left of `offset` (skipping spaces), as a string
/// of identifier/number characters.
fn token_left(bytes: &[u8], mut offset: usize) -> String {
    while offset > 0 && bytes[offset - 1] == b' ' {
        offset -= 1;
    }
    let end = offset;
    while offset > 0 && (is_ident_byte(bytes[offset - 1]) || bytes[offset - 1] == b'.') {
        offset -= 1;
    }
    String::from_utf8_lossy(&bytes[offset..end]).into_owned()
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

/// Token-level "is this a float operand" test: a literal with a decimal
/// point or exponent (`1.0`, `2.`, `1e-3`, `1.5f64`) or an explicit
/// float-typed cast/constant (`f32`/`f64` path segments).
fn is_float_token(tok: &str) -> bool {
    if tok == "f32" || tok == "f64" {
        return true; // `x as f64 == y`, `f64::NAN == x`
    }
    if !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    if tok.starts_with("0x") || tok.starts_with("0b") || tok.starts_with("0o") {
        return false; // hex/binary/octal integers can contain `e`/`E`
    }
    tok.contains('.')
        || tok.contains('e')
        || tok.contains('E')
        || tok.ends_with("f64")
        || tok.ends_with("f32")
}

/// Runs every per-file rule over one file's source, standalone: the
/// workspace rules (`rng-streams`, `panic-reachability`,
/// `hot-path-alloc`) need the whole tree and only run under
/// [`crate::lint_root`].
pub fn lint_source(file: &str, source: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    let masked = mask::mask(source);
    let mut diags = Vec::new();
    let allows = parse_allows(file, &masked, &mut diags);
    lint_file(file, source, &masked, &allows, ctx, &mut diags);
    stale_allows(file, &allows, false, &mut diags);
    diags.sort();
    diags
}

/// Runs every per-file rule over one file, using pre-parsed suppression
/// markers (so the caller can later judge their staleness).
pub(crate) fn lint_file(
    file: &str,
    source: &str,
    masked: &Masked,
    allows: &[Allow],
    ctx: &FileContext,
    diags: &mut Vec<Diagnostic>,
) {
    let regions = test_regions(&masked.text);
    let text = &masked.text;
    let bytes = text.as_bytes();

    let push = |diags: &mut Vec<Diagnostic>, rule: &'static str, offset: usize, message: String| {
        let (line, col) = line_col(text, offset);
        if !allowed(&allows, rule, line) {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                col,
                rule,
                message,
            });
        }
    };

    // determinism: banned calls anywhere in a simulation crate (tests
    // included — a nondeterministic test is still a flaky test).
    if ctx.simulation_crate {
        for (needle, what) in DETERMINISM_BANNED {
            for offset in token_matches(text, needle) {
                push(
                    diags,
                    "determinism",
                    offset,
                    format!(
                        "`{needle}` ({what}) in a simulation crate; use the \
                         event-loop clock / seeded Pcg32 instead"
                    ),
                );
            }
        }
        for (needle, replacement) in DETERMINISM_BANNED_COLLECTIONS {
            for offset in token_matches(text, needle) {
                push(
                    diags,
                    "determinism",
                    offset,
                    format!(
                        "`{needle}` in a simulation crate: its iteration order is \
                         seeded from OS entropy; use `{replacement}`, or justify a \
                         lookup-only use with a lint:allow"
                    ),
                );
            }
        }
    }

    // determinism: fault-injection code must not construct RNGs ad hoc.
    // A bare `Pcg32::new` shares (or collides with) another consumer's
    // stream, so enabling one fault class would shift the draws of every
    // other; `Pcg32::named` gives each class an independent stream.
    if ctx.fault_code {
        for offset in token_matches(text, "Pcg32::new") {
            push(
                diags,
                "determinism",
                offset,
                "ad-hoc `Pcg32::new` in fault-injection code; use \
                 `Pcg32::named(seed, \"fault.<class>\")` so each fault \
                 class draws from its own independent stream"
                    .to_string(),
            );
        }
    }

    // retry-policy: raw deadline/backoff arithmetic outside the policy
    // crate's retry/breaker modules (tests exempt — driving a ladder
    // with hand-picked knobs is legitimate there). A field *read* of a
    // ladder knob, or a copy of the jitter hash, means some caller is
    // re-deriving backoff math by hand instead of asking `RetryPolicy`.
    if !ctx.testlike && !ctx.retry_module {
        for field in RETRY_CONFIG_FIELDS {
            for offset in token_matches(text, field) {
                if in_test_region(&regions, offset) {
                    continue;
                }
                // Struct-literal initialization (`initial_backoff: ..`)
                // builds a config and is fine; only reads leak the math.
                if offset == 0 || bytes[offset - 1] != b'.' {
                    continue;
                }
                push(
                    diags,
                    "retry-policy",
                    offset,
                    format!(
                        "`.{field}` read outside `policy::retry`; derive deadlines \
                         and backoff through `RetryPolicy` (`attempt_deadline` / \
                         `request_attempt` / `hedge_delay` / `reconnect_backoff`) \
                         so the ladder, jitter, and budget stay in one audited place"
                    ),
                );
            }
        }
        for offset in token_matches(text, "splitmix64") {
            if in_test_region(&regions, offset) {
                continue;
            }
            push(
                diags,
                "retry-policy",
                offset,
                "`splitmix64` (the backoff jitter hash) outside `policy::retry`; \
                 ask `RetryPolicy` for jittered delays instead of re-deriving them"
                    .to_string(),
            );
        }
    }

    // typed-ids: raw tuple construction of the topology id newtypes
    // outside `simnet::topology` (tests exempt — hand-built fixture
    // topologies are legitimate). A bare `HostId(i)` bakes the module's
    // numbering convention into the call site; `from_index` keeps the
    // conversion explicit and greppable.
    if !ctx.testlike && !ctx.topology_module {
        for needle in TYPED_ID_NEWTYPES {
            for offset in token_matches(text, needle) {
                if in_test_region(&regions, offset) {
                    continue;
                }
                if bytes.get(offset + needle.len()) != Some(&b'(') {
                    continue;
                }
                push(
                    diags,
                    "typed-ids",
                    offset,
                    format!(
                        "raw `{needle}(..)` construction outside `simnet::topology`; \
                         use `{needle}::from_index` (or carry an id handed out by \
                         the topology) so index arithmetic stays inside the \
                         numbering contract"
                    ),
                );
            }
        }
    }

    // untrusted-wire: raw decode of peer metadata outside the wire
    // module (tests exempt — roundtrip/fuzz tests of the codec itself
    // are legitimate). Peer bytes are untrusted input: consumers must
    // take the fallible tagged path and handle the error.
    if !ctx.testlike && !ctx.wire_module {
        for (needle, what) in UNTRUSTED_WIRE_BANNED {
            for offset in token_matches(text, needle) {
                if in_test_region(&regions, offset) {
                    continue;
                }
                push(
                    diags,
                    "untrusted-wire",
                    offset,
                    format!(
                        "`{needle}` ({what}) outside `littles::wire`; peer bytes \
                         are untrusted — decode with \
                         `WireExchange::try_decode_tagged` and handle the `Err`"
                    ),
                );
            }
        }
    }

    // float-eq: `==` / `!=` with a float operand, outside tests.
    if !ctx.testlike {
        for op in ["==", "!="] {
            let mut search = 0usize;
            while let Some(pos) = text[search..].find(op) {
                let offset = search + pos;
                search = offset + op.len();
                // Not part of `<=`, `>=`, `=>`, `===`-like runs.
                if offset > 0 && matches!(bytes[offset - 1], b'<' | b'>' | b'=' | b'!') {
                    continue;
                }
                if offset + op.len() < bytes.len() && bytes[offset + op.len()] == b'=' {
                    continue;
                }
                if in_test_region(&regions, offset) {
                    continue;
                }
                let left = token_left(bytes, offset);
                let right = token_right(bytes, offset + op.len());
                if is_float_token(&left) || is_float_token(&right) {
                    push(
                        diags,
                        "float-eq",
                        offset,
                        format!(
                            "`{op}` on a floating-point value; compare with an \
                             epsilon or restructure to integers"
                        ),
                    );
                }
            }
        }
    }

    // float-eq, derived case: `derive(PartialEq)` on a type with float
    // fields is the same bit-exact comparison, just written by the
    // compiler.
    if !ctx.testlike {
        check_derived_float_eq(file, text, &regions, &allows, diags);
    }

    // panic-hygiene: unwrap/expect in strict library code, outside tests.
    if ctx.strict_library && !ctx.testlike {
        for needle in [".unwrap()", ".expect("] {
            let mut search = 0usize;
            while let Some(pos) = text[search..].find(needle) {
                let offset = search + pos;
                search = offset + needle.len();
                if in_test_region(&regions, offset) {
                    continue;
                }
                push(
                    diags,
                    "panic-hygiene",
                    offset,
                    format!(
                        "`{}` in library code; return an error or document an \
                         invariant with a lint:allow",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
    }

    // pub-docs: doc comment required above pub items.
    if ctx.strict_library && !ctx.testlike {
        check_pub_docs(file, source, text, &regions, &allows, diags);
    }

    // cast-truncation: lossy narrowing casts and raw arithmetic on wire
    // counters / clock values (tests exempt — they construct bounded
    // inputs on purpose). Wire fields are u32 by design and *wrap*; a
    // site is either provably bounded, modular by design (justify with an
    // allow marker), or a long-horizon bug of the 2^42 ns wire-clock kind.
    if ctx.cast_scope && !ctx.testlike {
        for offset in token_matches(text, "as") {
            if in_test_region(&regions, offset) {
                continue;
            }
            let target = token_right(bytes, offset + 2);
            if matches!(target.as_str(), "u32" | "u16" | "u8") {
                push(
                    diags,
                    "cast-truncation",
                    offset,
                    format!(
                        "`as {target}` silently truncates on overflow; prove the \
                         value bounded (or modular by design) and justify with a \
                         lint:allow, or convert with `try_into`"
                    ),
                );
            }
        }
        // Raw `-` on a u32 wire-counter field: deltas must ride through
        // the wrap via `wrapping_sub`. Only files that actually handle
        // wire snapshots are in scope — same-named fields elsewhere
        // (e.g. full-resolution u64 counters) subtract safely.
        if !token_matches(text, "WireSnapshot").is_empty()
            || !token_matches(text, "WireExchange").is_empty()
        {
            for field in WIRE_COUNTER_FIELDS {
                let needle = format!(".{field}");
                let mut search = 0usize;
                while let Some(pos) = text[search..].find(&needle) {
                    let start = search + pos;
                    search = start + 1;
                    let end = start + needle.len();
                    // Must be a field access (`x.time`), not a longer
                    // name (`.timestamp`) or a method (`.time(`).
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
                    // Binary `-` only: `-=` compounds and `->` arrows are
                    // not wrap-sensitive deltas.
                    if j >= bytes.len() || bytes[j] != b'-' {
                        continue;
                    }
                    if matches!(bytes.get(j + 1), Some(b'=') | Some(b'>')) {
                        continue;
                    }
                    if in_test_region(&regions, start) {
                        continue;
                    }
                    push(
                        diags,
                        "cast-truncation",
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
    }
}

/// Flags `#[derive(.. PartialEq ..)]` on types whose body mentions `f32`
/// or `f64`: the derived impl compares floats bit-exactly, which is
/// exactly what the expression-level `float-eq` rule bans. Suppress with
/// a justified `lint:allow(float-eq)` on or above the derive line.
fn check_derived_float_eq(
    file: &str,
    text: &str,
    regions: &[(usize, usize)],
    allows: &[Allow],
    diags: &mut Vec<Diagnostic>,
) {
    let bytes = text.as_bytes();
    let mut search = 0usize;
    while let Some(pos) = text[search..].find("#[") {
        let attr_start = search + pos;
        let Some(attr_end) = match_bracket(bytes, attr_start, b'[', b']') else {
            break;
        };
        search = attr_end + 1;
        let attr = &text[attr_start..=attr_end];
        if !attr.contains("derive") || token_matches(attr, "PartialEq").is_empty() {
            continue;
        }
        if in_test_region(regions, attr_start) {
            continue;
        }
        // Skip any further attributes, then span the item body: braces
        // for structs/enums, parentheses for tuple structs. A `;` first
        // means a field-less item — nothing to compare.
        let mut k = attr_end + 1;
        let mut body = None;
        while k < bytes.len() {
            match bytes[k] {
                b'#' if k + 1 < bytes.len() && bytes[k + 1] == b'[' => {
                    let Some(e) = match_bracket(bytes, k + 1, b'[', b']') else {
                        break;
                    };
                    k = e + 1;
                }
                b'{' => {
                    body = match_bracket(bytes, k, b'{', b'}').map(|e| (k, e));
                    break;
                }
                b'(' => {
                    body = match_bracket(bytes, k, b'(', b')').map(|e| (k, e));
                    break;
                }
                b';' => break,
                _ => k += 1,
            }
        }
        let Some((body_start, body_end)) = body else {
            continue;
        };
        let body_text = &text[body_start..=body_end];
        if token_matches(body_text, "f64").is_empty() && token_matches(body_text, "f32").is_empty()
        {
            continue;
        }
        let (line, col) = line_col(text, attr_start);
        if !allowed(allows, "float-eq", line) {
            diags.push(Diagnostic {
                file: file.to_string(),
                line,
                col,
                rule: "float-eq",
                message: "`derive(PartialEq)` on a type with floating-point fields \
                          compares them bit-exactly; derive on integer fields only, \
                          or justify with a lint:allow"
                    .to_string(),
            });
        }
    }
}

/// Items that `pub-docs` recognises after the `pub` keyword.
const PUB_ITEMS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
];

fn check_pub_docs(
    file: &str,
    source: &str,
    masked_text: &str,
    regions: &[(usize, usize)],
    allows: &[Allow],
    diags: &mut Vec<Diagnostic>,
) {
    let source_lines: Vec<&str> = source.lines().collect();
    let mut offset = 0usize;
    for (idx, line) in masked_text.lines().enumerate() {
        let line_start = offset;
        offset += line.len() + 1;
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        // `pub(crate)` / `pub(super)` items are not public API.
        let first = rest.split_whitespace().next().unwrap_or("");
        let second = rest.split_whitespace().nth(1).unwrap_or("");
        let item = if first == "unsafe" || first == "async" {
            second
        } else {
            first
        };
        if !PUB_ITEMS.contains(&item) {
            continue;
        }
        // `pub mod x;` declarations are documented by the module file's
        // own `//!` inner docs (which rustc's missing_docs enforces).
        if item == "mod" && trimmed.trim_end().ends_with(';') {
            continue;
        }
        if in_test_region(regions, line_start) {
            continue;
        }
        // Walk upward over attributes (including multi-line ones, whose
        // trailing line ends with `)]`) to the expected doc position.
        let mut prev = idx;
        while prev > 0 {
            let p = source_lines[prev - 1].trim();
            if p.starts_with("#[") || p.starts_with("#![") {
                prev -= 1;
            } else if p.ends_with(")]") && !p.starts_with("//") {
                // Closing line of a multi-line attribute: skip up to and
                // including the line that opened it.
                let mut j = prev - 1;
                while j > 0 && !source_lines[j].trim_start().starts_with("#[") {
                    j -= 1;
                }
                prev = j;
            } else {
                break;
            }
        }
        let documented = prev > 0 && {
            let p = source_lines[prev - 1].trim_start();
            p.starts_with("///") || p.starts_with("/**") || p.ends_with("*/")
        };
        if !documented {
            let line_no = idx as u32 + 1;
            let col = (line.len() - trimmed.len()) as u32 + 1;
            if !allowed(allows, "pub-docs", line_no) {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: line_no,
                    col,
                    rule: "pub-docs",
                    message: format!("missing doc comment on `pub {item}`"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_ctx() -> FileContext {
        FileContext {
            simulation_crate: true,
            ..FileContext::default()
        }
    }

    fn cast_ctx() -> FileContext {
        FileContext {
            simulation_crate: true,
            cast_scope: true,
            ..FileContext::default()
        }
    }

    #[test]
    fn determinism_catches_instant_now() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let d = lint_source("x.rs", src, &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "determinism");
        assert_eq!((d[0].line, d[0].col), (1, 29));
    }

    #[test]
    fn determinism_catches_hash_collections() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let s = std::collections::HashSet::<u8>::new(); }\n";
        let d = lint_source("x.rs", src, &sim_ctx());
        let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
        assert_eq!(got, vec![("determinism", 1, 23), ("determinism", 2, 36)]);
    }

    #[test]
    fn hash_collections_fine_outside_simulation_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn justified_lookup_only_hash_map_suppressed() {
        let src = "// lint:allow(determinism): lookup-only map, never iterated\n\
                   fn f() { let m = std::collections::HashMap::<u8, u8>::new(); drop(m); }\n";
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }

    #[test]
    fn determinism_ignores_strings_and_comments() {
        let src = "// Instant::now is banned\nfn f() { log(\"Instant::now\"); }\n";
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }

    #[test]
    fn suppression_with_justification_accepted() {
        let src = "// lint:allow(determinism): calibration shim measures host time\n\
                   fn f() { let t = Instant::now(); }\n";
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }

    #[test]
    fn suppression_without_justification_rejected() {
        let src = "// lint:allow(determinism)\nfn f() { let t = Instant::now(); }\n";
        let d = lint_source("x.rs", src, &sim_ctx());
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"bad-suppression"), "{rules:?}");
        assert!(rules.contains(&"determinism"), "unjustified marker must not suppress");
    }

    #[test]
    fn float_eq_outside_tests_only() {
        let ctx = FileContext::default();
        let src = "fn f(x: f64) -> bool { x == 1.0 }\n\
                   #[cfg(test)]\nmod tests { fn g(x: f64) -> bool { x == 1.0 } }\n";
        let d = lint_source("x.rs", src, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-eq");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn float_eq_ignores_integer_comparison() {
        let src = "fn f(x: u64) -> bool { x == 10 && x != 3 }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn derived_float_partial_eq_flagged() {
        let src = "#[derive(Debug, Clone, PartialEq)]\npub struct P { pub x: f64 }\n";
        let d = lint_source("x.rs", src, &FileContext::default());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("float-eq", 1));
    }

    #[test]
    fn derived_partial_eq_on_integers_fine() {
        let src = "#[derive(PartialEq, Eq)]\nstruct C { n: u64 }\n\
                   #[derive(PartialEq)]\nstruct T(u32, i8);\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn derived_float_partial_eq_tuple_struct_and_suppression() {
        let src = "#[derive(PartialEq)]\nstruct W(f32);\n";
        assert_eq!(lint_source("x.rs", src, &FileContext::default()).len(), 1);
        let suppressed = "// lint:allow(float-eq): wrapper comparison is epsilon-aware\n\
                          #[derive(PartialEq)]\nstruct W(f32);\n";
        assert!(lint_source("x.rs", suppressed, &FileContext::default()).is_empty());
    }

    #[test]
    fn derived_float_partial_eq_exempt_in_tests() {
        let ctx = FileContext {
            testlike: true,
            ..FileContext::default()
        };
        let src = "#[derive(PartialEq)]\nstruct W(f64);\n";
        assert!(lint_source("x.rs", src, &ctx).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n    #[derive(PartialEq)]\n    struct W(f64);\n}\n";
        assert!(lint_source("x.rs", in_mod, &FileContext::default()).is_empty());
    }

    #[test]
    fn fault_code_bans_adhoc_rng_construction() {
        let fault_ctx = FileContext {
            fault_code: true,
            ..sim_ctx()
        };
        let src = "fn f(seed: u64) {\n    let _a = Pcg32::named(seed, \"fault.loss\");\n\
                   \n    let _b = Pcg32::new(seed, 1);\n}\n";
        let d = lint_source("x.rs", src, &fault_ctx);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("determinism", 4));
        // Outside fault code the constructor stays legal (it is how the
        // named streams themselves are built).
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }

    #[test]
    fn typed_ids_bans_raw_construction() {
        let src = "fn f(n: usize) { route(HostId(n + 1), LinkId(0)); }\n";
        let d = lint_source("x.rs", src, &FileContext::default());
        let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(got, vec![("typed-ids", 1), ("typed-ids", 1)]);
        assert!(d[0].message.contains("HostId::from_index"), "{}", d[0].message);
    }

    #[test]
    fn typed_ids_allows_from_index_and_bare_mentions() {
        let src = "use simnet::topology::{HostId, LinkId};\n\
                   fn f(n: usize) -> HostId { let _l: LinkId = links[0]; HostId::from_index(n) }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn typed_ids_exempt_in_topology_module_and_tests() {
        let src = "fn f() { let h = HostId(3); }\n";
        let topo_ctx = FileContext {
            topology_module: true,
            ..sim_ctx()
        };
        assert!(lint_source("x.rs", src, &topo_ctx).is_empty());
        let test_ctx = FileContext {
            testlike: true,
            ..FileContext::default()
        };
        assert!(lint_source("x.rs", src, &test_ctx).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests { fn f() { let h = HostId(3); } }\n";
        assert!(lint_source("x.rs", in_mod, &FileContext::default()).is_empty());
    }

    #[test]
    fn typed_ids_suppressible_with_justification() {
        let src = "// lint:allow(typed-ids): FFI shim mirrors the C header's layout\n\
                   fn f() { let h = HostId(3); }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn untrusted_wire_bans_raw_decodes() {
        let src = "fn f(b: &[u8; 36], s: &[u8; 12], t: &[u8]) {\n\
                   let _a = WireExchange::decode(b);\n\
                   let _b = WireSnapshot::decode(s);\n\
                   let _c = WireExchange::try_decode(t);\n\
                   let _d = WireSnapshot::try_decode(t);\n\
                   }\n";
        let d = lint_source("x.rs", src, &FileContext::default());
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![
                "untrusted-wire",
                "untrusted-wire",
                "untrusted-wire",
                "untrusted-wire"
            ]
        );
    }

    #[test]
    fn untrusted_wire_allows_the_tagged_result_path() {
        // `try_decode_tagged` must not be caught by the `try_decode`
        // needle: `_` is an identifier byte, so the token match fails.
        let src = "fn f(t: &[u8]) { let _ = WireExchange::try_decode_tagged(t); }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn untrusted_wire_exempt_in_wire_module_and_tests() {
        let src = "fn f(b: &[u8; 36]) { let _ = WireExchange::decode(b); }\n";
        let wire_ctx = FileContext {
            wire_module: true,
            ..FileContext::default()
        };
        assert!(lint_source("x.rs", src, &wire_ctx).is_empty());
        let test_ctx = FileContext {
            testlike: true,
            ..FileContext::default()
        };
        assert!(lint_source("x.rs", src, &test_ctx).is_empty());
        let in_mod =
            "#[cfg(test)]\nmod tests { fn f() { let _ = WireExchange::decode(&BUF); } }\n";
        assert!(lint_source("x.rs", in_mod, &FileContext::default()).is_empty());
    }

    #[test]
    fn untrusted_wire_suppressible_with_justification() {
        let src = "// lint:allow(untrusted-wire): fuzz harness feeds the codec directly\n\
                   fn f(b: &[u8; 36]) { let _ = WireExchange::decode(b); }\n";
        assert!(lint_source("x.rs", src, &FileContext::default()).is_empty());
    }

    #[test]
    fn panic_hygiene_in_strict_library() {
        let ctx = FileContext {
            strict_library: true,
            ..FileContext::default()
        };
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[test]\nfn t() { Some(1).unwrap(); }\n";
        let d = lint_source("x.rs", src, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "panic-hygiene");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn pub_docs_requires_doc_comment() {
        let ctx = FileContext {
            strict_library: true,
            ..FileContext::default()
        };
        let src = "/// Documented.\npub fn a() {}\n\npub fn b() {}\n";
        let d = lint_source("x.rs", src, &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "pub-docs");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn pub_docs_sees_through_attributes() {
        let ctx = FileContext {
            strict_library: true,
            ..FileContext::default()
        };
        let src = "/// Documented.\n#[derive(Debug)]\npub struct A;\n";
        assert!(lint_source("x.rs", src, &ctx).is_empty());
    }

    #[test]
    fn pub_crate_is_exempt() {
        let ctx = FileContext {
            strict_library: true,
            ..FileContext::default()
        };
        let src = "pub(crate) fn helper() {}\n";
        assert!(lint_source("x.rs", src, &ctx).is_empty());
    }

    #[test]
    fn cast_truncation_flags_narrowing_casts() {
        let src = "fn f(t: u64) -> (u32, u16, u8) { (t as u32, t as u16, t as u8) }\n";
        let d = lint_source("x.rs", src, &cast_ctx());
        let got: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(got, vec!["cast-truncation"; 3]);
        // Out of scope (or widening), the same casts are fine.
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
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
        let src = "// lint:allow(determinism): leftover from a removed Instant::now\n\
                   fn f() -> u64 { 42 }\n";
        let d = lint_source("x.rs", src, &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].rule, d[0].line), ("stale-allow", 1));
    }

    #[test]
    fn used_markers_are_not_stale() {
        let src = "// lint:allow(determinism): calibration shim measures host time\n\
                   fn f() { let t = Instant::now(); }\n";
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }

    #[test]
    fn workspace_rule_markers_not_judged_in_single_file_lint() {
        // `lint_source` cannot run the cross-file pass, so a workspace-rule
        // marker is left for `lint_root` to judge.
        let src = "// lint:allow(rng-streams): shared stream justified\n\
                   fn f() -> u64 { 42 }\n";
        assert!(lint_source("x.rs", src, &sim_ctx()).is_empty());
    }
}
