//! `ledger`: GraphPi's perf ledger runner.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! ledger [--seed <n>] [--seconds <s>]                               all four, untraced then traced
//! ledger --check-repeat [--runs <k>] [--seed <n>] [--seconds <s>]   two sets of k untraced runs vs the bounds
//! ledger --smoke                                                    tiny sizes, all of the above paths
//! ```
//!
//! See `perfledger/README.md` for the workloads, the metrics and how they
//! interact.

mod affinity;
mod batch_match;
mod harness;
mod inputs;
mod json;
mod mixed_rw;
mod plan_churn;
mod probes;
mod reference;
mod report;
mod serve_warm;
mod stats;
mod trace;

use harness::{Outcome, RunCtx};
use inputs::Sizing;
use json::Value;
use report::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    runs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        runs: 1,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err(format!("--runs {} is out of range", args.runs));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(workload) = &args.workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// `<target>/ledger`: the only directory the runner writes to. The binary
/// lives at `<target>/<profile>/ledger`, so this stays inside the build
/// directory wherever `CARGO_TARGET_DIR` points.
fn ledger_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the runner knows its own path");
    let profile_dir = exe
        .parent()
        .expect("the binary sits in a profile directory");
    profile_dir.parent().unwrap_or(profile_dir).join("ledger")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process and prints its context line and its
/// result line. Returns whether every check held.
fn run_workload(workload: &str, args: &Args, spec: &Spec) -> bool {
    let scratch = ledger_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    // `T` from the full CPU count first, then everything onto one CPU
    // (see `affinity`): no thread exists yet, so all of them inherit it.
    let nproc = nproc();
    let (cpus, pinned_cpu) = affinity::pin_to_last_cpu();
    let ctx = RunCtx {
        seed: args.seed.unwrap_or(1),
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 1.0 } else { spec.run_seconds }),
        trace: args.trace,
        sizing: if args.smoke {
            Sizing::smoke()
        } else {
            Sizing::full()
        },
        nproc,
        threads: nproc.min(4),
        cpus,
        pinned_cpu,
        scratch: scratch.clone(),
    };
    let outcome: Outcome = match workload {
        "batch_match" => batch_match::run(&ctx),
        "serve_warm" => serve_warm::run(&ctx),
        "plan_churn" => plan_churn::run(&ctx),
        "mixed_rw" => mixed_rw::run(&ctx),
        other => unreachable!("{other} was validated by parse_args"),
    };
    std::fs::remove_dir_all(&scratch).ok();
    for message in &outcome.checks.messages {
        eprintln!("FAILED: {message}");
    }

    let metrics: Vec<(String, f64, String)> = if ctx.trace {
        let traced = outcome
            .traced
            .as_ref()
            .expect("a traced run has a traced phase");
        let path = ledger_dir().join(format!("trace-{workload}.jsonl"));
        match trace::write_jsonl(&path, &traced.spans) {
            Ok(()) => eprintln!("{} spans written to {}", traced.spans.len(), path.display()),
            Err(error) => eprintln!("warning: could not write {}: {error}", path.display()),
        }
        report::per_layer(&outcome)
            .into_iter()
            .map(|(name, (value, unit))| (name.to_string(), value, unit.to_string()))
            .collect()
    } else {
        report::end_to_end(&outcome)
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
            .collect()
    };
    for (name, value, unit) in &metrics {
        eprintln!("{workload:<12} {name:<40} {value:>16.4} {unit}");
    }
    println!(
        "{}",
        report::context_json(workload, &ctx, args.smoke, &outcome).to_json()
    );
    println!("{}", report::result_json(&outcome, &metrics).to_json());
    outcome.checks.failed == 0
}

/// A child run's two stdout lines, parsed.
struct ChildRun {
    context: Value,
    result: Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }
}

/// Runs one workload in a fresh child process: kernel dispatch is
/// process-global, and `setup_s` / `rss_mb` must belong to that
/// workload alone.
fn spawn_workload(workload: &str, args: &Args, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // The child applies the same defaults to what is left out.
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or(format!("{workload} printed no result"))?;
    let context = lines
        .next()
        .ok_or(format!("{workload} printed no context line"))?;
    let run = ChildRun {
        context: json::parse(context).map_err(|e| format!("{workload} context: {e}"))?,
        result: json::parse(result).map_err(|e| format!("{workload} result: {e}"))?,
    };
    if !output.status.success() || !run.correct() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) failed its checks"
        ));
    }
    Ok(run)
}

/// All four workloads, untraced then traced; one JSON document on stdout.
fn run_all(args: &Args) -> Result<(), String> {
    let seed = args.seed.unwrap_or(1);
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let untraced = spawn_workload(workload, args, seed, false)?;
        let traced = spawn_workload(workload, args, seed, true)?;
        workloads.push((
            workload.to_string(),
            json::object([
                ("context", untraced.context),
                ("end_to_end", untraced.result),
                ("traced_context", traced.context),
                ("per_layer", traced.result),
            ]),
        ));
    }
    println!(
        "{}",
        json::object([
            ("seed", Value::Number(seed as f64)),
            ("workloads", Value::Object(workloads))
        ])
        .to_json()
    );
    Ok(())
}

/// The driver's acceptance procedure: two sets of `--runs` untraced runs
/// per workload (seeds `seed`, `seed + 1`, …, the same in both sets). For
/// each (metric, workload) it prints both sets' medians and, from two runs
/// up, their spreads (interquartile range over median, as Python's
/// `statistics.quantiles(n=4)` gives them). Fails when a second median is
/// worse than the first by more than the metric's bound, or a spread other
/// than `setup_s`'s exceeds it.
fn check_repeat(args: &Args, spec: &Spec) -> Result<(), String> {
    let seed = args.seed.unwrap_or(1);
    let mut sets: Vec<Vec<Vec<ChildRun>>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in WORKLOADS {
            let runs: Result<Vec<ChildRun>, String> = (0..args.runs)
                .map(|i| spawn_workload(workload, args, seed + i, false))
                .collect();
            set.push(runs?);
        }
        sets.push(set);
    }
    let mut rows = Vec::new();
    let mut exceeded = Vec::new();
    eprintln!(
        "{:<12} {:<18} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}",
        "workload", "metric", "median 1", "spread", "median 2", "spread", "worse by", "bound"
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for metric in &spec.end_to_end {
            let values = |set: &[Vec<ChildRun>]| -> Result<Vec<f64>, String> {
                set[i]
                    .iter()
                    .map(|run| {
                        run.metric(&metric.name)
                            .ok_or(format!("{workload} lacks {}", metric.name))
                    })
                    .collect()
            };
            let (first, second) = (values(&sets[0])?, values(&sets[1])?);
            let (median_1, median_2) = (stats::median(&first), stats::median(&second));
            let worse_by = if metric.higher_is_better {
                (median_1 - median_2) / median_1
            } else {
                (median_2 - median_1) / median_1
            };
            let spread = |values: &[f64]| (values.len() >= 2).then(|| stats::iqr_share(values));
            let (spread_1, spread_2) = (spread(&first), spread(&second));
            let over = worse_by > metric.bound
                || (metric.name != "setup_s"
                    && [spread_1, spread_2]
                        .iter()
                        .flatten()
                        .any(|&s| s > metric.bound));
            let percent = |share: Option<f64>| {
                share.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0))
            };
            eprintln!(
                "{workload:<12} {:<18} {median_1:>14.4} {:>8} {median_2:>14.4} {:>8} {:>9} {:>6}{}",
                metric.name,
                percent(spread_1),
                percent(spread_2),
                percent(Some(worse_by)),
                percent(Some(metric.bound)),
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                exceeded.push(format!("{}@{workload}", metric.name));
            }
            let number = |share: Option<f64>| share.map_or(Value::Null, Value::Number);
            rows.push(json::object([
                ("workload", Value::String(workload.to_string())),
                ("metric", Value::String(metric.name.clone())),
                ("first", Value::Number(median_1)),
                ("first_spread", number(spread_1)),
                ("second", Value::Number(median_2)),
                ("second_spread", number(spread_2)),
                ("worse_by", Value::Number(worse_by)),
                ("bound", Value::Number(metric.bound)),
            ]));
        }
    }
    println!(
        "{}",
        json::object([
            ("seed", Value::Number(seed as f64)),
            ("runs_per_set", Value::Number(args.runs as f64)),
            ("repeat", Value::Array(rows)),
        ])
        .to_json()
    );
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!("beyond the bound: {}", exceeded.join(", ")))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ledger: {message}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let outcome = match &args.workload {
        Some(workload) => {
            if run_workload(workload, &args, &spec) {
                Ok(())
            } else {
                Err(format!("{workload} failed its checks"))
            }
        }
        None if args.check_repeat => check_repeat(&args, &spec),
        None => run_all(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}
