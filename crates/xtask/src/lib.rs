//! Repo-specific static analysis (`cargo run -p xtask -- lint`).
//!
//! A zero-dependency static-analysis engine (no `syn`, no registry
//! crates): source is masked ([`mask`] blanks comments/literals while
//! recording their spans), lexed into a token stream ([`lex`]), lifted
//! into a per-file semantic model of fns/impls/calls ([`model`]), and
//! joined into an approximate workspace call graph ([`graph`]). The
//! rules enforce the properties this repository's simulation depends on:
//!
//! * **determinism** — the simulation crates (`littles`, `simnet`,
//!   `tcpsim`, `e2e-core`, `batchpolicy`) must not read wall clocks, OS
//!   entropy, or sleep: all time comes from the discrete-event clock and
//!   all randomness from the seeded [`Pcg32`](../simnet/rng) stream. The
//!   same rule bans `HashMap`/`HashSet` there — their iteration order is
//!   seeded from OS entropy, so iterated state must use the B-tree
//!   variants (justify lookup-only uses with a `lint:allow`).
//! * **float-eq** — `==`/`!=` on floating-point values outside tests.
//! * **panic-hygiene** — `.unwrap()`/`.expect(` in the library code of
//!   `littles` and `e2e-core` (the crates meant to be embeddable).
//! * **rng-streams** — every `Pcg32::named` stream name must be a string
//!   literal, declared exactly once in `crates/xtask/rng_streams.toml`,
//!   and constructed at exactly one call site (see `streams.rs`).
//! * **cast-truncation** — lossy `as u32`/`as u16`/`as u8` casts and raw
//!   `-` on wire-counter fields in the wire/clock handling code.
//! * **panic-reachability** — panicking sites reachable from the
//!   event-loop roots, ratcheted downward via a baseline file.
//! * **hot-path-alloc** — allocations in `// hot-path` functions or
//!   code reachable from per-event dispatch, same ratchet mechanism.
//!
//! Violations can be suppressed with a justified marker on the same or
//! the preceding line:
//!
//! ```text
//! // lint:allow(determinism): bench harness measures real time on purpose
//! ```
//!
//! A marker with no justification (or an unknown rule) is itself a
//! violation (`bad-suppression`), and a justified marker whose line no
//! longer triggers its rule is one too (`stale-allow`).

pub mod diag;
pub mod graph;
pub mod lex;
pub mod mask;
pub mod model;
pub mod rules;
pub mod walk;

mod ratchet;
mod streams;

use std::path::{Path, PathBuf};

pub use diag::Diagnostic;
pub use rules::FileContext;

/// Everything the passes need to know about one analysed file.
pub(crate) struct FileAnalysis {
    /// Path relative to the linted root, as shown in diagnostics.
    pub(crate) label: String,
    /// Masked source with comment and literal tables.
    pub(crate) masked: mask::Masked,
    /// Semantic model (fns, impls, calls, index sites, markers).
    pub(crate) model: model::FileModel,
    /// Path-derived rule scopes.
    pub(crate) ctx: FileContext,
    /// Parsed suppression markers, shared across all passes so usage
    /// tracking (for `stale-allow`) spans the whole run.
    pub(crate) allows: Vec<rules::Allow>,
}

/// Knobs for [`lint_root_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Regenerate the ratchet baseline files from the current tree
    /// instead of diffing against them.
    pub update_ratchet: bool,
}

/// Lints every Rust file under `root`, returning all diagnostics sorted
/// by file, line, column.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    lint_root_with(root, LintOptions::default())
}

/// [`lint_root`] with options. Runs three passes: per-file rules, the
/// cross-file workspace rules (RNG-stream registry and the two ratchet
/// walks over the call graph), and finally the `stale-allow` sweep over
/// markers no pass consumed.
pub fn lint_root_with(root: &Path, opts: LintOptions) -> std::io::Result<Vec<Diagnostic>> {
    let files = walk::collect_rust_files(root)?;
    let mut diags = Vec::new();

    let mut analyses = Vec::with_capacity(files.len());
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let ctx = walk::classify(root, file);
        let label = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .into_owned();
        let masked = mask::mask(&source);
        let allows = rules::parse_allows(&label, &masked, &mut diags);
        let toks = lex::lex(&masked);
        let model = model::build(&source, &masked, &toks);
        analyses.push(FileAnalysis {
            label,
            masked,
            model,
            ctx,
            allows,
        });
    }

    for fa in &analyses {
        rules::lint_file(&fa.label, &fa.masked, &fa.allows, &fa.ctx, &mut diags);
    }

    streams::check(root, &analyses, &mut diags);
    ratchet::check(root, &analyses, opts.update_ratchet, &mut diags)?;

    for fa in &analyses {
        rules::stale_allows(&fa.label, &fa.allows, true, &mut diags);
    }

    diags.sort();
    Ok(diags)
}

/// Workspace-relative paths of the non-source inputs the workspace rules
/// read (manifest + ratchet baselines); ci.sh asserts they exist.
pub fn config_files() -> Vec<PathBuf> {
    vec![
        PathBuf::from(streams::MANIFEST_REL),
        PathBuf::from(ratchet::BASELINE_DIR).join("panic_reachability.txt"),
        PathBuf::from(ratchet::BASELINE_DIR).join("hot_path_alloc.txt"),
    ]
}
