//! Workspace file discovery and rule-scope classification.

use std::path::{Path, PathBuf};

use crate::rules::FileContext;

/// Crate directories (under `crates/`) that hold the simulation's event
/// loops: the ratchets walk the call graph from their dispatch roots.
pub const SIMULATION_CRATES: [&str; 5] = ["littles", "simnet", "tcpsim", "core", "policy"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Recursively collects every `.rs` file under `root`, skipping build
/// output, VCS metadata, and lint fixtures.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Derives the rule scopes for `file` from its path relative to `root`.
pub fn classify(root: &Path, file: &Path) -> FileContext {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();

    let crate_dir: Option<&str> = if parts.first().map(String::as_str) == Some("crates") {
        parts.get(1).map(String::as_str)
    } else {
        None // workspace-root src/, examples/, tests/
    };

    let testlike = parts
        .iter()
        .any(|p| p == "tests" || p == "benches" || p == "examples");
    let in_src = parts.iter().any(|p| p == "src");
    let file_name = parts.last().map(String::as_str).unwrap_or("");

    let simulation_crate = crate_dir.is_some_and(|c| SIMULATION_CRATES.contains(&c));
    FileContext {
        simulation_crate,
        testlike,
        fault_code: simulation_crate && in_src && file_name.contains("fault"),
        cast_scope: (crate_dir == Some("littles") && in_src && file_name == "wire.rs")
            || (matches!(crate_dir, Some("core") | Some("tcpsim")) && in_src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_simulation_src() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/tcpsim/src/sim.rs"));
        assert!(ctx.simulation_crate);
        assert!(!ctx.testlike);
        assert!(!ctx.fault_code);
        let fault = classify(Path::new("/r"), Path::new("/r/crates/simnet/src/fault.rs"));
        assert!(fault.fault_code);
    }

    #[test]
    fn classify_cast_scope() {
        for p in [
            "/r/crates/littles/src/wire.rs",
            "/r/crates/core/src/estimator.rs",
            "/r/crates/tcpsim/src/socket.rs",
        ] {
            assert!(classify(Path::new("/r"), Path::new(p)).cast_scope, "{p}");
        }
        for p in [
            "/r/crates/littles/src/queue.rs",
            "/r/crates/tcpsim/tests/mechanisms.rs",
            "/r/crates/simnet/src/engine.rs",
            "/r/crates/apps/src/driver.rs",
        ] {
            assert!(!classify(Path::new("/r"), Path::new(p)).cast_scope, "{p}");
        }
    }

    #[test]
    fn classify_testlike_in_sim_crate() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/core/tests/props.rs"));
        assert!(ctx.simulation_crate);
        assert!(ctx.testlike, "no rule counts sites in tests");
        assert!(!ctx.cast_scope);
    }

    #[test]
    fn classify_bench_and_apps_not_simulation() {
        for p in [
            "/r/crates/bench/benches/micro.rs",
            "/r/crates/apps/src/runner.rs",
            "/r/examples/quickstart.rs",
        ] {
            let ctx = classify(Path::new("/r"), Path::new(p));
            assert!(!ctx.simulation_crate, "{p}");
            assert!(!ctx.fault_code, "{p}");
        }
        // The experiment registry lives under `benches/`, so it is
        // test-like: its gates' `expect`s count against no ratchet.
        let registry = "/r/crates/bench/benches/experiments/registry/grids.rs";
        assert!(classify(Path::new("/r"), Path::new(registry)).testlike);
    }
}
