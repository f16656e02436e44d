//! End-to-end tests of the linter over the fixture tree.
//!
//! `fixtures/tree/` is laid out as a miniature workspace (`crates/<name>/
//! src|tests/...`) so these tests exercise the full path: file discovery,
//! path-based rule scoping, scanning, suppression handling, and both
//! output formats via the real binary. The fixture directory is excluded
//! from normal `xtask lint` runs by the walker.

use std::path::PathBuf;
use std::process::Command;

use xtask::{lint_root, Diagnostic};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
}

fn fixture_diags() -> Vec<Diagnostic> {
    lint_root(&fixtures_root()).expect("fixture tree lints")
}

fn for_file<'a>(diags: &'a [Diagnostic], suffix: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.file.ends_with(suffix)).collect()
}

#[test]
fn fault_code_requires_named_rng_streams() {
    let diags = fixture_diags();
    let d = for_file(&diags, "simnet/src/fault_gen.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    // `Pcg32::named` on line 5 is the sanctioned form; the ad-hoc
    // constructor on line 6 is an rng-streams diagnostic; the justified
    // one on line 8 is suppressed by the marker above it.
    assert_eq!(got, vec![("rng-streams", 6, 25)]);
    assert!(d[0].message.contains("ad-hoc `Pcg32::new`"), "{}", d[0].message);
}

#[test]
fn rng_stream_registry_rules() {
    let diags = fixture_diags();

    // fault_streams.rs: duplicate construction of "fault.split" (second
    // site in fault_streams_b.rs), an undeclared name, and a dynamic
    // name; the justified dynamic site on line 11 is suppressed.
    let d = for_file(&diags, "simnet/src/fault_streams.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(
        got,
        vec![
            ("rng-streams", 6, 25), // "fault.split" — 2 sites
            ("rng-streams", 7, 27), // "fault.mystery" — undeclared
            ("rng-streams", 9, 27), // non-literal stream name
        ]
    );
    assert!(d[0].message.contains("constructed at 2 sites"), "{}", d[0].message);
    assert!(d[1].message.contains("undeclared"), "{}", d[1].message);
    assert!(d[2].message.contains("non-literal"), "{}", d[2].message);

    // The duplicate is reported at BOTH sites.
    let d = for_file(&diags, "simnet/src/fault_streams_b.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(got, vec![("rng-streams", 5, 25)]);

    // The declared-but-unconstructed entry is flagged in the manifest
    // itself; "fault.loss" (used by fault_gen.rs) is not.
    let d = for_file(&diags, "xtask/rng_streams.toml");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(got, vec![("rng-streams", 6, 1)]);
    assert!(d[0].message.contains("fault.unused"), "{}", d[0].message);
}

#[test]
fn cast_truncation_fixture_positions() {
    let diags = fixture_diags();
    let d = for_file(&diags, "tcpsim/src/casts.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    // The justified `as u8` on line 13, the widening `as u64` on line 17,
    // the `wrapping_sub` on line 25, and the cast inside `mod tests` are
    // all clean; the two narrowing casts and the raw `-` on a wire
    // counter are flagged.
    assert_eq!(
        got,
        vec![
            ("cast-truncation", 5, 11), // total as u32
            ("cast-truncation", 9, 7),  // x as u16
            ("cast-truncation", 21, 8), // cur.time - prev.time
        ]
    );
    assert!(d[2].message.contains("wrapping_sub"), "{}", d[2].message);
}

#[test]
fn ratchet_rules_count_reachable_sites_against_baselines() {
    let diags = fixture_diags();

    // dispatch.rs: `handle` reaches `step`, whose 2 panic sites exceed
    // the baseline grant of 1, and whose 3 allocation sites exceed the
    // grant of 2. `offline` is NOT reachable from the dispatch root: its
    // indexing/unwrap/to_vec sites are excluded (the counts would
    // otherwise be 5 and 4).
    let d = for_file(&diags, "simnet/src/dispatch.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(
        got,
        vec![
            ("panic-reachability", 16, 31), // first site: self.items[0]
            ("hot-path-alloc", 18, 31),     // first site: .clone()
        ]
    );
    assert!(d[0].message.contains("2 "), "{}", d[0].message);
    assert!(d[0].message.contains("allows 1"), "{}", d[0].message);
    assert!(d[1].message.contains("3 allocation"), "{}", d[1].message);

    // quiet.rs has no sites left, but its baseline still grants one: the
    // ratchet reports the stale grant against the baseline file.
    assert!(for_file(&diags, "simnet/src/quiet.rs").is_empty());
    let d = for_file(&diags, "lint_baselines/panic_reachability.txt");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(got, vec![("panic-reachability", 4, 1)]);
    assert!(d[0].message.contains("only 0 remain"), "{}", d[0].message);
}

#[test]
fn update_ratchet_refuses_to_raise_a_rule_total() {
    // A scratch tree holding only the dispatch fixture (2 reachable panic
    // sites, 3 allocation sites) and baselines granting totals of 2 and 2.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("update_ratchet_tree");
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/simnet/src");
    let baselines = root.join("crates/xtask/lint_baselines");
    std::fs::create_dir_all(&src).expect("mkdir src");
    std::fs::create_dir_all(&baselines).expect("mkdir baselines");
    std::fs::copy(
        fixtures_root().join("crates/simnet/src/dispatch.rs"),
        src.join("dispatch.rs"),
    )
    .expect("copy fixture");
    let panic = "1 crates/simnet/src/dispatch.rs\n1 crates/simnet/src/quiet.rs\n";
    let alloc = "2 crates/simnet/src/dispatch.rs\n";
    std::fs::write(baselines.join("panic_reachability.txt"), panic).expect("write");
    std::fs::write(baselines.join("hot_path_alloc.txt"), alloc).expect("write");
    let update = || {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--update-ratchet"])
            .arg(&root)
            .output()
            .expect("run xtask")
    };

    // hot-path-alloc would rise 2 → 3: refused, and neither file written
    // (panic-reachability only moves a site between files, 2 → 2).
    let out = update();
    assert_eq!(out.status.code(), Some(1), "a rising total must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot-path-alloc total from 2 to 3"), "{stdout}");
    assert!(!stdout.contains("panic-reachability"), "{stdout}");
    let read = |name: &str| std::fs::read_to_string(baselines.join(name)).expect("read");
    assert_eq!(read("panic_reachability.txt"), panic);
    assert_eq!(read("hot_path_alloc.txt"), alloc);

    // With the allocation total at 3 the same regeneration goes through.
    std::fs::write(baselines.join("hot_path_alloc.txt"), "3 crates/simnet/src/dispatch.rs\n")
        .expect("write");
    assert_eq!(update().status.code(), Some(0));
    assert!(read("panic_reachability.txt").ends_with("\n2 crates/simnet/src/dispatch.rs\n"));
    assert!(read("hot_path_alloc.txt").ends_with("\n3 crates/simnet/src/dispatch.rs\n"));
}

#[test]
fn stale_allow_reported_when_nothing_left_to_suppress() {
    let diags = fixture_diags();
    let d = for_file(&diags, "tcpsim/src/stale.rs");
    let got: Vec<(&str, u32, u32)> = d.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(got, vec![("stale-allow", 5, 1)]);
    assert!(
        d[0].message.contains("lint:allow(cast-truncation)"),
        "{}",
        d[0].message
    );
}

#[test]
fn suppressions_require_justification() {
    let diags = fixture_diags();
    let d = for_file(&diags, "tcpsim/src/suppressed.rs");
    let got: Vec<(&str, u32)> = d.iter().map(|d| (d.rule, d.line)).collect();
    // Lines 5 and 10 are suppressed by justified markers; the bare marker
    // on line 14 is itself flagged and does NOT suppress line 15.
    assert_eq!(got, vec![("bad-suppression", 14), ("cast-truncation", 15)]);
}

#[test]
fn binary_exits_nonzero_on_fixtures_and_zero_on_clean_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint"])
        .arg(fixtures_root())
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1), "fixtures must fail the lint");

    // A tree with no Rust files is trivially clean.
    let empty = fixtures_root().join("crates/empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint"])
        .arg(&empty)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0), "empty tree must pass");
}

#[test]
fn json_output_schema_is_stable() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--json"])
        .arg(fixtures_root())
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("utf-8 json");

    // Top-level document shape.
    assert!(json.starts_with("{\n  \"version\": 1,\n"), "{json}");
    let expected = fixture_diags().len();
    assert!(
        json.contains(&format!("\"count\": {expected},")),
        "count field matches diagnostics: {json}"
    );

    // Every diagnostic row carries exactly the five stable keys, in order.
    let rows: Vec<&str> = json
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"file\""))
        .collect();
    assert_eq!(rows.len(), expected);
    for row in rows {
        for key in ["\"file\": ", "\"line\": ", "\"col\": ", "\"rule\": ", "\"message\": "] {
            assert!(row.contains(key), "row missing {key}: {row}");
        }
        let order_ok = row.find("\"file\"").unwrap() < row.find("\"line\"").unwrap()
            && row.find("\"line\"").unwrap() < row.find("\"col\"").unwrap()
            && row.find("\"col\"").unwrap() < row.find("\"rule\"").unwrap()
            && row.find("\"rule\"").unwrap() < row.find("\"message\"").unwrap();
        assert!(order_ok, "key order changed: {row}");
    }
}

#[test]
fn repository_tree_is_clean() {
    // The acceptance bar for the whole PR: the real tree lints clean.
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("workspace root");
    let diags = lint_root(&repo_root).expect("repo lints");
    assert!(
        diags.is_empty(),
        "repository must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
