//! perfbench — the repository benchmark.  See README.md beside this crate
//! for the workloads, the metric catalog and how to run it.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead.  The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod host;
mod matrix;
mod metrics;
mod replay;
mod service;
mod stepper;

use std::path::PathBuf;
use std::process::Command;

use lad_common::json::JsonValue;

use host::HostClock;
use metrics::{MetricSet, Tally};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "replay-256c",
    "matrix-64c",
    "service-cold-64c",
    "service-cached-64c",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--scale tiny`: every workload at a size that runs in about a
    /// second, for the self-test.
    pub tiny: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: MetricSet,
}

/// Scratch space of one run, under the build directory so the benchmark
/// only writes inside its checkout.
fn work_dir(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()))
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    let dir = work_dir(&args.workload);
    std::fs::create_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    // The matrix keeps both vCPUs simulating, so the reference kernel runs
    // on both there.  Cold service jobs also use two workers, but spend
    // them encoding and syncing checkpoints: their run-to-run spread was 6%
    // with a one-thread kernel and 15% with a two-thread one.
    let mut clock = HostClock::new(if args.workload == "matrix-64c" { 2 } else { 1 });
    let outcome = match args.workload.as_str() {
        "replay-256c" => replay::run(args, &dir, &mut clock),
        "matrix-64c" => matrix::run(args, &mut clock),
        "service-cold-64c" => service::run(args, &dir, service::Mode::Cold, &mut clock),
        _ => service::run(args, &dir, service::Mode::Cached, &mut clock),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = outcome?;
    if args.trace {
        clock.sample();
        outcome.metrics.set("host.ref_ms", clock.median_ms());
    }
    Ok(outcome)
}

fn print_result(outcome: &Outcome) {
    let Outcome { tally, metrics } = outcome;
    metrics.print();
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "output check: {} ({} of {} operations failed)",
        if correct { "ok" } else { "FAILED" },
        tally.failed,
        tally.attempted
    );
    let line = JsonValue::object([
        ("correct", JsonValue::from(correct)),
        ("attempted", JsonValue::from(tally.attempted)),
        ("failed", JsonValue::from(tally.failed)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{line}");
}

/// `--workload all`: runs every workload in its own process (so each
/// reports its own peak memory) and prints one table of all metrics.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let mut columns = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let mut command = Command::new(&exe);
        command.args(["--workload", workload]);
        command.args(["--seed", &args.seed.to_string()]);
        command.args(["--seconds", &args.seconds.to_string()]);
        command.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.tiny {
            command.args(["--scale", "tiny"]);
        }
        let output = command.output().map_err(|err| err.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|line| JsonValue::parse(line).ok())
            .filter(|_| output.status.success())
            .ok_or_else(|| format!("{workload} produced no result"))?;
        columns.push((workload, result));
    }
    let mut all_correct = true;
    println!();
    print!("{:<36} {:>8}", "metric", "unit");
    for (workload, _) in &columns {
        print!(" {workload:>20}");
    }
    println!();
    let names: Vec<(String, JsonValue)> = columns[0]
        .1
        .get("metrics")
        .and_then(JsonValue::as_object)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    for (name, first) in &names {
        let unit = first.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        print!("{name:<36} {unit:>8}");
        for (_, result) in &columns {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            print!(" {value:>20.6}");
        }
        println!();
    }
    print!("{:<36} {:>8}", "output check", "");
    for (_, result) in &columns {
        let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        all_correct &= correct;
        print!(" {:>20}", if correct { "ok" } else { "FAILED" });
    }
    println!();
    Ok(all_correct)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        match run_all(&args) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(err) => {
                eprintln!("perfbench: {err}");
                std::process::exit(1);
            }
        }
    }
    match run_workload(&args) {
        Ok(outcome) => print_result(&outcome),
        Err(err) => {
            eprintln!("perfbench: {}: {err}", args.workload);
            std::process::exit(1);
        }
    }
}
