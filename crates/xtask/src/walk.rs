//! Workspace file discovery and rule-scope classification.

use std::path::{Path, PathBuf};

use crate::rules::FileContext;

/// Crate directories (under `crates/`) whose code must be deterministic:
/// everything that runs inside the simulation.
pub const SIMULATION_CRATES: [&str; 5] = ["littles", "simnet", "tcpsim", "core", "policy"];

/// Crate directories held to the stricter library bar (`panic-hygiene`,
/// `pub-docs`): the embeddable measurement/estimation libraries.
pub const STRICT_CRATES: [&str; 2] = ["littles", "core"];

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
        strict_library: crate_dir.is_some_and(|c| STRICT_CRATES.contains(&c)) && in_src,
        testlike,
        fault_code: simulation_crate && in_src && file_name.contains("fault"),
        wire_module: crate_dir == Some("littles") && in_src && file_name == "wire.rs",
        cast_scope: (crate_dir == Some("littles") && in_src && file_name == "wire.rs")
            || (matches!(crate_dir, Some("core") | Some("tcpsim")) && in_src),
        topology_module: crate_dir == Some("simnet") && in_src && file_name == "topology.rs",
        retry_module: crate_dir == Some("policy")
            && in_src
            && matches!(file_name, "retry.rs" | "breaker.rs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_simulation_src() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/tcpsim/src/sim.rs"));
        assert!(ctx.simulation_crate);
        assert!(!ctx.strict_library);
        assert!(!ctx.testlike);
    }

    #[test]
    fn classify_wire_module() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/littles/src/wire.rs"));
        assert!(ctx.wire_module);
        assert!(ctx.strict_library, "the codec is still held to the library bar");
        for p in [
            "/r/crates/littles/src/queue.rs",
            "/r/crates/littles/tests/wire.rs",
            "/r/crates/core/src/wire.rs",
            "/r/crates/apps/src/driver.rs",
        ] {
            assert!(!classify(Path::new("/r"), Path::new(p)).wire_module, "{p}");
        }
    }

    #[test]
    fn classify_topology_module() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/simnet/src/topology.rs"));
        assert!(ctx.topology_module);
        assert!(ctx.simulation_crate, "the topology module is still simulation code");
        for p in [
            "/r/crates/simnet/src/engine.rs",
            "/r/crates/simnet/tests/topology.rs",
            "/r/crates/tcpsim/src/topology.rs",
            "/r/crates/apps/src/shard.rs",
        ] {
            assert!(!classify(Path::new("/r"), Path::new(p)).topology_module, "{p}");
        }
    }

    #[test]
    fn classify_retry_module() {
        for p in [
            "/r/crates/policy/src/retry.rs",
            "/r/crates/policy/src/breaker.rs",
        ] {
            assert!(classify(Path::new("/r"), Path::new(p)).retry_module, "{p}");
        }
        for p in [
            "/r/crates/policy/src/aimd.rs",
            "/r/crates/policy/tests/retry.rs",
            "/r/crates/apps/src/proxy.rs",
            "/r/crates/apps/src/failover.rs",
        ] {
            assert!(!classify(Path::new("/r"), Path::new(p)).retry_module, "{p}");
        }
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
    fn classify_strict_library() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/littles/src/queue.rs"));
        assert!(ctx.simulation_crate);
        assert!(ctx.strict_library);
    }

    #[test]
    fn classify_testlike_in_sim_crate() {
        let ctx = classify(Path::new("/r"), Path::new("/r/crates/core/tests/props.rs"));
        assert!(ctx.simulation_crate, "tests of sim crates stay deterministic");
        assert!(!ctx.strict_library, "panic-hygiene does not cover tests");
        assert!(ctx.testlike);
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
            assert!(!ctx.strict_library, "{p}");
        }
        // The experiment registry lives under `benches/` so that it stays
        // test-like (float comparisons and `expect` allowed in gates).
        let registry = "/r/crates/bench/benches/experiments/registry/grids.rs";
        assert!(classify(Path::new("/r"), Path::new(registry)).testlike);
    }
}
