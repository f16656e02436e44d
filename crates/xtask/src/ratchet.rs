//! Ratcheted call-graph rules: `panic-reachability` and
//! `hot-path-alloc`.
//!
//! Both walk the approximate workspace call graph (see [`crate::graph`])
//! from the simulation event-loop roots and count dangerous sites in the
//! reachable functions. The counts are pinned per file in checked-in
//! baseline files under `crates/xtask/lint_baselines/`; a count above
//! its baseline is a diagnostic at the first offending site, and a count
//! *below* baseline is a diagnostic against the stale baseline entry —
//! so the numbers are forced to ratchet monotonically downward.
//! `--update-ratchet` regenerates the files from the current tree — but
//! only if no rule's total over all files rises above its checked-in
//! total (moving sites between files, as a file split does, is fine);
//! otherwise it reports the rule with both totals and writes nothing.
//!
//! Baseline format: `<count> <file>` per line, `#` comments allowed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::graph::Graph;
use crate::mask::line_col;
use crate::model::CallKind;
use crate::rules;
use crate::FileAnalysis;

/// Baseline directory, relative to the linted root.
pub(crate) const BASELINE_DIR: &str = "crates/xtask/lint_baselines";

/// Fn names that anchor the per-event dispatch: `World::handle` impls
/// and the event-loop drivers.
const DISPATCH_ROOTS: [&str; 3] = ["handle", "run", "run_until_idle"];

/// One counted site: (file index, byte offset, what it is).
type Site = (usize, usize, &'static str);

/// Runs both ratchet rules; with `update`, rewrites the baselines
/// instead of diffing against them — all of them, or none if a total
/// would rise.
pub(crate) fn check(
    root: &Path,
    files: &[FileAnalysis],
    update: bool,
    diags: &mut Vec<Diagnostic>,
) -> std::io::Result<()> {
    let models: Vec<_> = files.iter().map(|fa| &fa.model).collect();
    let graph = Graph::build(&models);
    let before = diags.len();
    let mut writes: Vec<(PathBuf, String)> = Vec::new();

    let dispatch = graph.select(|n| {
        let fa = &files[n.file];
        fa.ctx.simulation_crate && !fa.ctx.testlike && DISPATCH_ROOTS.contains(&n.f.name.as_str())
    });

    // panic-reachability: panicking sites reachable from the event loop.
    // `assert!` family macros are deliberately NOT counted — they are the
    // repo's sanctioned invariant gates; the rule targets the *implicit*
    // panics that turn a malformed input into a simulator abort.
    let mut panic_sites: Vec<Site> = Vec::new();
    for &id in &graph.reachable(&dispatch) {
        let node = &graph.nodes[id];
        let fa = &files[node.file];
        if !fa.ctx.simulation_crate || fa.ctx.testlike {
            continue;
        }
        for call in &node.f.calls {
            let hit = match call.kind {
                CallKind::Method => matches!(call.name.as_str(), "unwrap" | "expect"),
                CallKind::Macro => matches!(
                    call.name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ),
                _ => false,
            };
            if hit {
                panic_sites.push((node.file, call.offset, "panicking call"));
            }
        }
        for &off in &node.f.index_sites {
            panic_sites.push((node.file, off, "indexing (panics out of bounds)"));
        }
    }
    ratchet(
        root,
        files,
        "panic-reachability",
        "panic_reachability.txt",
        "# Reachable panic sites (unwrap/expect/panic-family/indexing) per\n\
         # file, counted over the call graph from the event-loop roots.\n\
         # The count may only go down; regenerate with\n\
         # `cargo run -p xtask -- lint --update-ratchet`.\n",
        panic_sites,
        update.then_some(&mut writes),
        diags,
    );

    // hot-path-alloc: allocations in functions marked `// hot-path` or
    // reachable from the per-event dispatch. Sites outside simulation
    // crates only count when explicitly marked hot — the closure from
    // `handle` reaches application callbacks that are not on the
    // per-event budget.
    let hot_roots = graph.select(|n| {
        let fa = &files[n.file];
        let marked = n.f.hot_marked && !fa.ctx.testlike;
        let dispatch_root = fa.ctx.simulation_crate
            && !fa.ctx.testlike
            && DISPATCH_ROOTS.contains(&n.f.name.as_str());
        marked || dispatch_root
    });
    let mut alloc_sites: Vec<Site> = Vec::new();
    for &id in &graph.reachable(&hot_roots) {
        let node = &graph.nodes[id];
        let fa = &files[node.file];
        if fa.ctx.testlike || (!fa.ctx.simulation_crate && !node.f.hot_marked) {
            continue;
        }
        for call in &node.f.calls {
            let hit = match call.kind {
                CallKind::Method => matches!(call.name.as_str(), "clone" | "to_vec" | "insert"),
                CallKind::Path => matches!(call.callee().as_str(), "Vec::new" | "Box::new"),
                CallKind::Macro => call.name == "vec",
                CallKind::Plain => false,
            };
            if hit {
                alloc_sites.push((node.file, call.offset, "allocation"));
            }
        }
    }
    ratchet(
        root,
        files,
        "hot-path-alloc",
        "hot_path_alloc.txt",
        "# Allocation sites (clone/to_vec/insert/Vec::new/Box::new/vec!)\n\
         # per file in hot-path functions (marked `// hot-path` or\n\
         # reachable from per-event dispatch). The count may only go\n\
         # down; regenerate with\n\
         # `cargo run -p xtask -- lint --update-ratchet`.\n",
        alloc_sites,
        update.then_some(&mut writes),
        diags,
    );
    if diags.len() > before {
        // A rising total (or a malformed baseline) blocks every write.
        return Ok(());
    }
    for (path, text) in writes {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, text)?;
    }
    Ok(())
}

/// Diffs one rule's per-file site counts against its baseline file or,
/// given `writes`, queues the regenerated file there unless the rule's
/// total would rise above the checked-in one.
#[expect(
    clippy::too_many_arguments,
    reason = "one call per rule, each argument named at the call site"
)]
fn ratchet(
    root: &Path,
    files: &[FileAnalysis],
    rule: &'static str,
    baseline_file: &str,
    header: &str,
    sites: Vec<Site>,
    writes: Option<&mut Vec<(PathBuf, String)>>,
    diags: &mut Vec<Diagnostic>,
) {
    // Per-file surviving sites (suppressed ones drop out of the count —
    // a justified allow marker is the per-site escape hatch).
    let mut per_file: BTreeMap<&str, Vec<(usize, &'static str)>> = BTreeMap::new();
    for (file_idx, offset, what) in sites {
        let fa = &files[file_idx];
        let (line, _) = line_col(&fa.masked.text, offset);
        if rules::allowed(&fa.allows, rule, line) {
            continue;
        }
        per_file.entry(&fa.label).or_default().push((offset, what));
    }
    for sites in per_file.values_mut() {
        sites.sort();
    }

    // Parse the baseline; a missing file is an empty baseline (every
    // site then reads as over-baseline, and ci.sh asserts the file is
    // checked in).
    let rel = format!("{BASELINE_DIR}/{baseline_file}");
    let path = root.join(&rel);
    let checked_in = std::fs::read_to_string(&path).ok();
    let mut baseline: BTreeMap<String, (u32, usize)> = BTreeMap::new();
    if let Some(text) = &checked_in {
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line
                .split_once(' ')
                .and_then(|(n, f)| n.parse::<usize>().ok().map(|n| (n, f.trim())))
            {
                Some((count, file)) if !file.is_empty() => {
                    baseline.insert(file.to_string(), (line_no, count));
                }
                _ => diags.push(Diagnostic {
                    file: rel.clone(),
                    line: line_no,
                    col: 1,
                    rule,
                    message: "malformed baseline entry; use `<count> <file>`".to_string(),
                }),
            }
        }
    }

    if let Some(writes) = writes {
        // Sites may move between files (a file split does that), but the
        // rule's total may not grow by regenerating. With no file checked
        // in there is no total to hold, and the first write seeds it.
        let old: usize = baseline.values().map(|&(_, c)| c).sum();
        let new: usize = per_file.values().map(Vec::len).sum();
        if checked_in.is_some() && new > old {
            diags.push(Diagnostic {
                file: rel,
                line: 1,
                col: 1,
                rule,
                message: format!(
                    "--update-ratchet would raise the {rule} total from {old} \
                     to {new}; the ratchet only moves down — remove the new \
                     sites (or justify each with lint:allow); nothing was written"
                ),
            });
            return;
        }
        let mut out = String::from(header);
        for (label, sites) in &per_file {
            out.push_str(&format!("{} {}\n", sites.len(), label));
        }
        writes.push((path, out));
        return;
    }

    for (label, sites) in &per_file {
        let budget = baseline.get(*label).map(|&(_, c)| c).unwrap_or(0);
        if sites.len() > budget {
            let fa = files.iter().find(|fa| fa.label == *label).expect("label from files");
            let (offset, what) = sites[0];
            let (line, col) = line_col(&fa.masked.text, offset);
            diags.push(Diagnostic {
                file: label.to_string(),
                line,
                col,
                rule,
                message: format!(
                    "{} {what} site(s) in hot/reachable code but the baseline \
                     allows {budget} (first site here); remove {} or, if \
                     genuinely justified, annotate sites with lint:allow and \
                     regenerate with --update-ratchet",
                    sites.len(),
                    sites.len() - budget
                ),
            });
        }
    }
    for (label, &(bline, budget)) in &baseline {
        let actual = per_file.get(label.as_str()).map_or(0, Vec::len);
        if actual < budget {
            diags.push(Diagnostic {
                file: rel.clone(),
                line: bline,
                col: 1,
                rule,
                message: format!(
                    "baseline allows {budget} site(s) in {label} but only \
                     {actual} remain; the ratchet only moves down — tighten \
                     with --update-ratchet"
                ),
            });
        }
    }
}
