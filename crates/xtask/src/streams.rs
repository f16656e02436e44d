//! The `rng-streams` workspace rule: every `Pcg32::named("…")` stream
//! in non-test code must be declared exactly once in the checked-in
//! manifest `crates/xtask/rng_streams.toml`, and constructed at exactly
//! one call site. Two consumers sharing a stream correlate their draws —
//! enabling one fault class would shift another's sequence — which
//! silently breaks every bitwise-replay guarantee, so both duplication
//! and undeclared names are diagnostics. Declared-but-unused entries are
//! flagged too, keeping the manifest an accurate inventory. In
//! fault-injection source the rule also bans an ad-hoc `Pcg32::new`: it
//! shares (or collides with) another consumer's stream, so enabling one
//! fault class would shift the draws of every other.
//!
//! The manifest is a hand-parsed TOML subset (zero registry deps):
//!
//! ```toml
//! [streams]
//! "fault.loss" = "per-packet loss decisions"
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::Diagnostic;
use crate::mask::line_col;
use crate::model::CallKind;
use crate::rules;
use crate::FileAnalysis;

/// Manifest location, relative to the linted root.
pub(crate) const MANIFEST_REL: &str = "crates/xtask/rng_streams.toml";

struct Entry {
    name: String,
    line: u32,
    used: Cell<bool>,
}

fn manifest_diag(line: u32, message: String) -> Diagnostic {
    Diagnostic {
        file: MANIFEST_REL.to_string(),
        line,
        col: 1,
        rule: "rng-streams",
        message,
    }
}

/// Parses the `[streams]` manifest; malformed lines and duplicate keys
/// become diagnostics against the manifest file itself.
fn parse_manifest(text: &str, diags: &mut Vec<Diagnostic>) -> Vec<Entry> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut in_streams = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            in_streams = line == "[streams]";
            if !in_streams {
                diags.push(manifest_diag(
                    line_no,
                    format!("unknown section `{line}`; only `[streams]` is recognised"),
                ));
            }
            continue;
        }
        if !in_streams {
            diags.push(manifest_diag(
                line_no,
                "entry outside the `[streams]` section".to_string(),
            ));
            continue;
        }
        // `"name" = "description"`.
        let parsed = (|| {
            let rest = line.strip_prefix('"')?;
            let close = rest.find('"')?;
            let name = &rest[..close];
            let rest = rest[close + 1..].trim_start().strip_prefix('=')?;
            let rest = rest.trim_start().strip_prefix('"')?;
            let close = rest.rfind('"')?;
            if !rest[close + 1..].trim().is_empty() {
                return None;
            }
            Some((name.to_string(), rest[..close].to_string()))
        })();
        match parsed {
            Some((name, desc)) if !name.is_empty() && !desc.is_empty() => {
                if entries.iter().any(|e| e.name == name) {
                    diags.push(manifest_diag(
                        line_no,
                        format!("stream \"{name}\" declared more than once"),
                    ));
                } else {
                    entries.push(Entry {
                        name,
                        line: line_no,
                        used: Cell::new(false),
                    });
                }
            }
            _ => diags.push(manifest_diag(
                line_no,
                "malformed entry; use `\"<stream>\" = \"<description>\"`".to_string(),
            )),
        }
    }
    entries
}

/// Runs the rule over the analysed tree. A missing manifest is only an
/// error when there are call sites that would need declarations (so
/// trees without any named streams lint clean without one).
pub(crate) fn check(root: &Path, files: &[FileAnalysis], diags: &mut Vec<Diagnostic>) {
    let manifest_text = std::fs::read_to_string(root.join(MANIFEST_REL)).ok();
    let entries = match &manifest_text {
        Some(text) => parse_manifest(text, diags),
        None => Vec::new(),
    };

    // Every `Pcg32::named` call site in non-test code, by stream name;
    // fault code's `Pcg32::new` sites are reported on the way.
    struct Site<'a> {
        fa: &'a FileAnalysis,
        offset: usize,
    }
    let mut by_name: BTreeMap<String, Vec<Site<'_>>> = BTreeMap::new();
    for fa in files {
        if fa.ctx.testlike {
            continue;
        }
        for f in &fa.model.fns {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if call.kind != CallKind::Path || call.qual.as_deref() != Some("Pcg32") {
                    continue;
                }
                let (line, col) = line_col(&fa.masked.text, call.offset);
                if call.name == "new" && fa.ctx.fault_code {
                    if !rules::allowed(&fa.allows, "rng-streams", line) {
                        diags.push(Diagnostic {
                            file: fa.label.clone(),
                            line,
                            col,
                            rule: "rng-streams",
                            message: "ad-hoc `Pcg32::new` in fault-injection code; use \
                                      `Pcg32::named(seed, \"fault.<class>\")` so each fault \
                                      class draws from its own independent stream"
                                .to_string(),
                        });
                    }
                    continue;
                }
                if call.name != "named" {
                    continue;
                }
                match &call.first_str_arg {
                    Some((name, _)) => by_name
                        .entry(name.clone())
                        .or_default()
                        .push(Site { fa, offset: call.offset }),
                    None => {
                        if !rules::allowed(&fa.allows, "rng-streams", line) {
                            diags.push(Diagnostic {
                                file: fa.label.clone(),
                                line,
                                col,
                                rule: "rng-streams",
                                message: "`Pcg32::named` with a non-literal stream name; \
                                          streams must be named by a string literal declared \
                                          in the manifest so the registry stays auditable"
                                    .to_string(),
                            });
                        }
                    }
                }
            }
        }
    }

    for (name, sites) in &by_name {
        let entry = entries.iter().find(|e| e.name == *name);
        if let Some(e) = entry {
            e.used.set(true);
        }
        for site in sites {
            let (line, col) = line_col(&site.fa.masked.text, site.offset);
            if rules::allowed(&site.fa.allows, "rng-streams", line) {
                continue;
            }
            let message = if entry.is_none() {
                format!(
                    "undeclared RNG stream \"{name}\"; declare it once in \
                     {MANIFEST_REL} (every named stream is part of the \
                     replay contract)"
                )
            } else if sites.len() > 1 {
                format!(
                    "RNG stream \"{name}\" constructed at {} sites; consumers \
                     sharing a stream correlate their draws — give each \
                     consumer its own declared name",
                    sites.len()
                )
            } else {
                continue;
            };
            diags.push(Diagnostic {
                file: site.fa.label.clone(),
                line,
                col,
                rule: "rng-streams",
                message,
            });
        }
    }

    for e in &entries {
        if !e.used.get() {
            diags.push(manifest_diag(
                e.line,
                format!(
                    "declared stream \"{}\" has no `Pcg32::named` call site; \
                     remove the entry so the manifest stays an accurate inventory",
                    e.name
                ),
            ));
        }
    }
}
