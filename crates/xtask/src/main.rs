//! `cargo run -p xtask -- lint [--json] [--update-ratchet] [ROOT]`
//!
//! Exit status: 0 when clean, 1 when violations were found, 2 on usage
//! or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint [--json] [--update-ratchet] [ROOT]");
    eprintln!();
    eprintln!("Lints the workspace (or ROOT) with the repo-specific rules:");
    for (name, summary) in xtask::rules::RULES {
        eprintln!("  {name:<18} {summary}");
    }
    eprintln!();
    eprintln!("Suppress with `// lint:allow(<rule>): <justification>` on the same");
    eprintln!("or preceding line. `--update-ratchet` regenerates the baseline");
    eprintln!("files under crates/xtask/lint_baselines/ from the current tree,");
    eprintln!("and refuses (exit 1, nothing written) if a rule's total would rise.");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        return usage();
    }
    let mut json = false;
    let mut opts = xtask::LintOptions::default();
    let mut root: Option<PathBuf> = None;
    for arg in &args[1..] {
        match arg.as_str() {
            "--json" => json = true,
            "--update-ratchet" => opts.update_ratchet = true,
            s if s.starts_with('-') => return usage(),
            s => root = Some(PathBuf::from(s)),
        }
    }
    // Default root: the workspace the binary was built from.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let diags = match xtask::lint_root_with(&root, opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", xtask::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            // The rule table plus the two meta-diagnostics
            // (bad-suppression, stale-allow).
            eprintln!("xtask lint: clean ({} rules)", xtask::rules::RULES.len() + 2);
        } else {
            eprintln!("xtask lint: {} violation(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
