//! Whole-suite modes: every workload in both modes, and the self-check.
//!
//! Each run is a child process of this same executable, one at a time, so
//! a run here is measured exactly as the single-run mode measures it.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::metrics::{EndToEnd, END_TO_END};
use crate::workloads;
use crate::Args;

/// Recorded `sim_digest`s: lines of `workload seed seconds digest samples`.
const BASELINE: &str = "benchmark/baseline.txt";

/// (name, value, unit).
type Metric = (String, f64, String);

struct RunResult {
    correct: bool,
    /// In print order.
    metrics: Vec<Metric>,
    /// The `key=value` pairs of the run's `info` lines.
    info: BTreeMap<String, String>,
}

impl RunResult {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }

    fn info(&self, key: &str) -> &str {
        self.info.get(key).map_or("", String::as_str)
    }
}

/// Parses the result line `print_result` writes.
fn parse_result(line: &str) -> Option<(bool, Vec<Metric>)> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let body = line.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((
            name.to_string(),
            value.parse().ok()?,
            unit.trim_end_matches(['"', '}']).to_string(),
        ));
    }
    Some((correct, metrics))
}

fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{}: {}",
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let mut info = BTreeMap::new();
    for line in stdout.lines() {
        if let Some(pairs) = line.strip_prefix("info ") {
            info.extend(
                pairs
                    .split(' ')
                    .filter_map(|p| p.split_once('='))
                    .map(|(k, v)| (k.into(), v.into())),
            );
        } else if line.starts_with("WRONG") {
            println!("  {line}");
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    let (correct, metrics) = parse_result(last).ok_or(format!("no result line, got {last:?}"))?;
    Ok(RunResult {
        correct,
        metrics,
        info,
    })
}

fn baseline_digest(workload: &str, seed: u64, seconds: u64) -> Option<String> {
    let text = std::fs::read_to_string(BASELINE).ok()?;
    let key = [workload, &seed.to_string(), &seconds.to_string()];
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() >= 4 && f[..3] == key)
        .map(|f| f[3].to_string())
}

/// Every workload, untraced then traced; prints every metric by name
/// with its unit. A child that dies or reports `correct: false` fails
/// its workload and the suite.
pub fn run_all(args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for w in &workloads::ALL {
        println!("== {}: {}", w.name, w.why);
        for trace in [false, true] {
            let r = match child(w.name, args.seed, args.seconds, trace) {
                Ok(r) => r,
                Err(e) => {
                    println!(
                        "  FAILED ({}): {e}",
                        if trace { "traced" } else { "untraced" }
                    );
                    failed.push(w.name);
                    continue;
                }
            };
            if !r.correct {
                failed.push(w.name);
            }
            for (name, value, unit) in &r.metrics {
                println!("  {:<18} {name:<34} {value:>16.6} {unit}", w.name);
            }
            if !trace {
                let digest = r.info("sim_digest");
                let against = match baseline_digest(w.name, args.seed, args.seconds) {
                    Some(b) if b == digest => "matches the recorded baseline",
                    Some(_) => "DIFFERS from the recorded baseline: simulated behaviour changed",
                    None => "no baseline recorded for this seed and --seconds",
                };
                println!(
                    "  {:<18} sim_digest {digest} ({against}); {} samples, {} beyond P99, window {:.3} host s",
                    w.name,
                    r.info("samples"),
                    r.info("beyond_p99"),
                    r.info("measure_host_s").parse::<f64>().unwrap_or(f64::NAN),
                );
                println!(
                    "  baseline line: {} {} {} {digest} {}",
                    w.name,
                    args.seed,
                    args.seconds,
                    r.info("samples")
                );
            }
        }
    }
    if failed.is_empty() {
        println!("== all {} workloads correct", workloads::ALL.len());
        ExitCode::SUCCESS
    } else {
        println!("== FAILED: {failed:?}");
        ExitCode::FAILURE
    }
}

/// How much worse `new` is than `old`, as a share of `old`.
fn worse_by(m: &EndToEnd, old: f64, new: f64) -> f64 {
    if m.better == "lower" {
        (new - old) / old
    } else {
        (old - new) / old
    }
}

/// Evidence that the benchmark measures:
/// (i) two back-to-back runs of each workload agree within every bound,
///     and exactly on every simulated figure;
/// (ii) another seed changes every `sim_digest` yet keeps each simulated
///     metric within its bound;
/// (iii) doubling `star1_set`'s window doubles its wall time and leaves
///     `host_s_per_sim_s` within its bound.
pub fn selfcheck(args: &Args) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let host = ["setup_s", "host_s_per_sim_s", "peak_rss_mb"];
    let mut run = |workload: &str, seed: u64, seconds: u64| {
        let r = child(workload, seed, seconds, false);
        match &r {
            Ok(r) if r.correct => {}
            Ok(_) => problems.push(format!("{workload} seed {seed}: incorrect")),
            Err(e) => problems.push(format!("{workload} seed {seed}: {e}")),
        }
        r.ok()
    };
    let mut findings = Vec::new();
    for w in &workloads::ALL {
        let (Some(a), Some(b), Some(c)) = (
            run(w.name, args.seed, args.seconds),
            run(w.name, args.seed, args.seconds),
            run(w.name, args.seed + 1, args.seconds),
        ) else {
            continue;
        };
        for m in &END_TO_END {
            let (va, vb, vc) = (a.metric(m.name), b.metric(m.name), c.metric(m.name));
            let repeat = worse_by(m, va, vb).abs();
            println!(
                "{:<18} {:<18} {va:>14.4} {vb:>14.4} repeat {:>6.2}%  other seed {vc:>14.4}",
                w.name,
                m.name,
                100.0 * repeat
            );
            if host.contains(&m.name) {
                if repeat > m.bound {
                    findings.push(format!(
                        "(i) {} {}: {va} vs {vb} exceeds {}",
                        w.name, m.name, m.bound
                    ));
                }
            } else {
                if va.to_bits() != vb.to_bits() {
                    findings.push(format!(
                        "(i) {} {}: {va} vs {vb} at one seed",
                        w.name, m.name
                    ));
                }
                let across = worse_by(m, va, vc).abs();
                if across > m.bound {
                    findings.push(format!(
                        "(ii) {} {}: {va} vs {vc} across seeds exceeds {}",
                        w.name, m.name, m.bound
                    ));
                }
            }
        }
        if a.info("sim_digest") != b.info("sim_digest") {
            findings.push(format!("(i) {}: sim_digest differs at one seed", w.name));
        }
        if a.info("sim_digest") == c.info("sim_digest") {
            findings.push(format!(
                "(ii) {}: sim_digest did not change with the seed",
                w.name
            ));
        }
    }
    let star1 = workloads::ALL[0].name;
    if let (Some(one), Some(two)) = (
        run(star1, args.seed, args.seconds),
        run(star1, args.seed, 2 * args.seconds),
    ) {
        let wall = |r: &RunResult| r.info("measure_host_s").parse::<f64>().unwrap_or(f64::NAN);
        let ratio = wall(&two) / wall(&one);
        let m = &END_TO_END[1];
        let drift = worse_by(m, one.metric(m.name), two.metric(m.name)).abs();
        println!(
            "{star1}: doubled window takes {ratio:.3}x the wall time, {} moves {:.2}%",
            m.name,
            100.0 * drift
        );
        if !(1.8..=2.2).contains(&ratio) {
            findings.push(format!("(iii) doubled window took {ratio}x the wall time"));
        }
        if drift > m.bound {
            findings.push(format!("(iii) {} moved {drift} with the window", m.name));
        }
    }
    problems.extend(findings);
    if problems.is_empty() {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("selfcheck: {p}");
        }
        ExitCode::FAILURE
    }
}
