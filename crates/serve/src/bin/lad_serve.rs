//! `lad-serve` — the experiment service daemon.
//!
//! ```text
//! lad-serve --data-dir <DIR> [--addr HOST:PORT] [--workers N]
//!           [--queue-limit N] [--checkpoint-interval N]
//!           [--read-timeout-ms N] [--fault-plan PLAN]
//! ```
//!
//! Binds the address (port `0` picks an ephemeral port), prints
//! `lad-serve listening on <ADDR>` once ready, and serves until a client
//! sends the `shutdown` verb; in-flight cells checkpoint on the way down
//! so a restart over the same `--data-dir` resumes them.
//!
//! `--checkpoint-interval` (default 10 000) sets the accesses between a
//! cell's boundaries, where it publishes progress, honours cancel and may
//! spill a checkpoint.  Periodic spills are capped at 5% of a cell's time
//! (see [`lad_serve::server`]'s spill budget), so a short cell on a warmed
//! server never spills.
//!
//! `--fault-plan` (or the `LAD_FAULT_PLAN` environment variable) arms the
//! deterministic fault injector for robustness testing — see
//! [`lad_common::fault::FaultPlan`] for the plan grammar
//! (`site:occurrence:kind[;...]` or `random:<seed>`).

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use lad_common::cli::{no_leftovers, parse_number, take_flag};
use lad_common::fault::{FaultInjector, FaultPlan};
use lad_serve::server::{self, ServerConfig};

const USAGE: &str = "\
lad-serve: multi-tenant experiment service daemon

USAGE:
  lad-serve --data-dir <DIR> [--addr HOST:PORT] [--workers N]
            [--queue-limit N] [--checkpoint-interval N]
            [--read-timeout-ms N] [--fault-plan PLAN]

Durable state (result cache, checkpoints, uploaded traces) lives under
--data-dir; restarting over the same directory keeps cached results and
resumes checkpointed cells.  Stop the daemon with `lad-client shutdown`.

--checkpoint-interval N (default 10000) is the number of accesses between
a cell's boundaries, where it reports progress, honours cancel and may
spill a checkpoint.  A boundary spills only once the cell has run 19
times as long as the server's last spill took since its own last spill,
so spills take at most 5% of a cell's time; a fresh server spills at its
first boundary, and a cancelled or draining cell always spills where it
stops.  A killed server loses at most one interval plus 19 times the last
spill's duration of each running cell's work.

--fault-plan (or env LAD_FAULT_PLAN) arms the deterministic fault
injector for robustness testing.  PLAN is `site:occurrence:kind[;...]`
(e.g. `conn-write:3:drop;cache-spill:1:enospc`) or `random:<seed>`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lad-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let data_dir =
        take_flag(&mut args, "--data-dir")?.ok_or(format!("--data-dir is required\n\n{USAGE}"))?;
    let mut config = ServerConfig::new(data_dir);
    if let Some(addr) = take_flag(&mut args, "--addr")? {
        config.addr = addr;
    }
    if let Some(value) = take_flag(&mut args, "--workers")? {
        config.workers = parse_number(&value, "--workers")?;
    }
    if let Some(value) = take_flag(&mut args, "--queue-limit")? {
        config.queue_limit = parse_number(&value, "--queue-limit")?;
    }
    if let Some(value) = take_flag(&mut args, "--checkpoint-interval")? {
        config.checkpoint_interval = parse_number(&value, "--checkpoint-interval")?;
    }
    if let Some(value) = take_flag(&mut args, "--read-timeout-ms")? {
        config.read_timeout = Duration::from_millis(parse_number(&value, "--read-timeout-ms")?);
    }
    let fault_plan = match take_flag(&mut args, "--fault-plan")? {
        Some(value) => Some(value),
        None => std::env::var("LAD_FAULT_PLAN")
            .ok()
            .filter(|v| !v.is_empty()),
    };
    if let Some(text) = fault_plan {
        let plan = FaultPlan::parse(&text).map_err(|err| format!("--fault-plan: {err}"))?;
        eprintln!("lad-serve: fault injector ARMED: {plan}");
        config.fault = FaultInjector::armed(plan);
    }
    no_leftovers(&args, USAGE)?;
    server::run(config, |addr| {
        println!("lad-serve listening on {addr}");
        let _ = std::io::stdout().flush();
    })
    .map_err(|err| err.to_string())
}
