//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed S --seconds T --trace 0|1   one run, one JSON line
//! run.sh [--seed S] [--seconds T]                        every workload, both modes
//! run.sh --selfcheck                                     evidence that it measures
//! run.sh --describe                                      print BENCHMARK.json
//! ```
//!
//! One run is one process: its peak RSS belongs to one workload, and a
//! panic in it fails that workload and no other.

mod adapter;
mod metrics;
mod probes;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use adapter::{equivalence_check, Harness, Summary};
use littles::Nanos;
use trace::Tracer;
use workloads::Workload;

/// `run_seconds` of BENCHMARK.json, and the suite's default `--seconds`.
pub const RUN_SECONDS: u64 = 6;
/// Set-up is repeated this often in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;
/// The measure window is timed in this many equal slices of simulated
/// time; `host_s_per_sim_s` is the median slice's rate, so a burst of
/// interference from outside the process does not move it.
const SLICES: u64 = 16;
/// After the window in-flight requests get 100 simulated ms to finish,
/// and up to 3 s while any is outstanding (a lossy connection's backlog
/// takes that long); what is still in flight then has failed.
const DRAIN_STEP: Nanos = Nanos::from_millis(100);
const DRAIN_STEPS: u64 = 30;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub selfcheck: bool,
    pub describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--selfcheck" => args.selfcheck = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up: build, start, simulate the warm-up. Returns the harness and
/// the host seconds it took.
fn set_up(w: &Workload, args: &Args) -> (Harness, f64) {
    let start = Instant::now();
    let mut h = Harness::assemble(w.run_config(args.seed, args.seconds));
    h.warm_up();
    (h, start.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
}

/// Checks on the adapter and on what the run produced; an empty list
/// means correct.
fn verify_run(w: &Workload, args: &Args, h: &mut Harness, s: &Summary) -> Vec<String> {
    let mut wrong = Vec::new();
    if let Err(e) = equivalence_check(w.run_config(args.seed, args.seconds)) {
        wrong.push(format!("adapter equivalence: {e}"));
    }
    if let Err(e) = h.audit() {
        wrong.push(format!("invariant gate: {e}"));
    }
    if s.samples != s.completed {
        wrong.push(format!(
            "{} latency samples for {} completed requests",
            s.samples, s.completed
        ));
    }
    if s.attempted == 0 || s.failed > s.attempted {
        wrong.push(format!("failed {} of {} attempted", s.failed, s.attempted));
    }
    if s.p50.is_none() || s.p99.is_none() || s.estimate.is_none() {
        wrong.push("no latency samples or no estimate in the window".into());
    }
    wrong
}

fn print_result(
    wrong: &[String],
    s: &Summary,
    metrics: &[(String, f64)],
    unit: impl Fn(&str) -> &'static str,
) {
    for w in wrong {
        println!("WRONG: {w}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            assert!(value.is_finite(), "{name} is {value}");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        wrong.is_empty(),
        s.attempted.max(1),
        s.failed,
        body.join(", ")
    );
}

fn info_line(w: &Workload, args: &Args, s: &Summary, window_s: f64) {
    println!(
        "info workload={} seed={} seconds={} sim_digest={} samples={} beyond_p99={} events={} sim_window_s={} measure_host_s={window_s}",
        w.name,
        args.seed,
        args.seconds,
        s.digest(),
        s.samples,
        s.samples / 100,
        s.events,
        s.window.as_secs_f64(),
    );
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(w: &Workload, args: &Args) {
    let mut setups: Vec<f64> = (1..SETUPS).map(|_| set_up(w, args).1).collect();
    let (mut h, setup_s) = set_up(w, args);
    setups.push(setup_s);
    let slices: Vec<f64> = (1..=SLICES)
        .map(|i| h.measure_slice(i, SLICES, None))
        .collect();
    h.drain_window(DRAIN_STEP, DRAIN_STEPS);
    let window_s: f64 = slices.iter().sum();
    let s = h.summary();
    let wrong = verify_run(w, args, &mut h, &s);
    info_line(w, args, &s, window_s);
    let values = [
        median(setups),
        median(slices) * SLICES as f64 / s.window.as_secs_f64(),
        peak_rss_mb(),
        s.p50_us,
        s.p99_us,
        s.goodput_rps(),
        1.0 - s.failed_share(),
        s.est_agreement_pct(),
    ];
    let metrics: Vec<(String, f64)> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v))
        .collect();
    print_result(&wrong, &s, &metrics, |name| {
        metrics::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    });
}

/// `--trace 1`: the per-layer metrics. An untraced reference of the same
/// run is simulated alongside, slice by slice in turn, so that the two
/// see the same machine: it is what the traced run's overhead, event
/// count and digest are held against.
fn run_traced(w: &Workload, args: &Args) {
    let (mut reference, _) = set_up(w, args);
    let (mut h, _) = set_up(w, args);
    let mut tracer = Tracer::new();
    let (mut traced_s, mut ratios) = (0.0, Vec::new());
    for i in 1..=SLICES {
        let untraced = reference.measure_slice(i, SLICES, None);
        let traced = h.measure_slice(i, SLICES, Some(&mut tracer));
        traced_s += traced;
        ratios.push(traced / untraced);
    }
    reference.drain_window(DRAIN_STEP, DRAIN_STEPS);
    h.drain_window(DRAIN_STEP, DRAIN_STEPS);
    let (s, reference) = (h.summary(), reference.summary());
    let mut wrong = verify_run(w, args, &mut h, &s);
    if s != reference {
        wrong.push(format!(
            "the traced run simulated something else: {s:?} != {reference:?}"
        ));
    }
    let covered = tracer.covered_share(traced_s);
    if !(0.95..=1.0).contains(&covered) {
        wrong.push(format!("spans cover {covered} of the traced window"));
    }
    info_line(w, args, &s, traced_s);
    println!(
        "info traced_events={} spans_cover={covered}",
        tracer.events()
    );

    let out_dir = std::path::Path::new("benchmark/out");
    let trace_file = out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_file, tracer.spans_json(w.name)))
    {
        wrong.push(format!("writing {}: {e}", trace_file.display()));
    }

    let mut values = tracer.metrics(traced_s);
    values.extend(
        h.count_metrics()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v)),
    );
    values.extend(
        probes::run_probes()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v)),
    );
    values.push(("trace.overhead_pct".into(), 100.0 * (median(ratios) - 1.0)));
    let names = metrics::per_layer();
    assert!(
        names.iter().eq(values.iter().map(|(n, _)| n)),
        "the per-layer table and the run disagree on names"
    );
    print_result(&wrong, &s, &values, metrics::unit_of);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::describe(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return suite::selfcheck(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        return suite::run_all(&args);
    };
    let Some(w) = workloads::by_name(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    if args.trace {
        run_traced(w, &args);
    } else {
        run_untraced(w, &args);
    }
    ExitCode::SUCCESS
}
