//! `lad-client` — CLI for the `lad-serve` experiment service.
//!
//! ```text
//! lad-client --addr HOST:PORT upload <FILE.ladt>
//! lad-client --addr HOST:PORT submit
//!            (--trace <FILE.ladt> | --stored <DIGEST> |
//!             --builtin <BENCH> --cores N --accesses N [--seed N])
//!            --scheme <S> [--scheme <S> ...] [--system paper|small-test]
//!            [--wait] [--json <PATH>]
//! lad-client --addr HOST:PORT status <JOB>
//! lad-client --addr HOST:PORT result <JOB> [--json <PATH>]
//! lad-client --addr HOST:PORT wait <JOB> [--json <PATH>]
//! lad-client --addr HOST:PORT cancel <JOB>
//! lad-client --addr HOST:PORT health
//! lad-client --addr HOST:PORT metrics [--prometheus] [--json <PATH>]
//! lad-client --addr HOST:PORT watch [--interval MS] [--count N]
//! lad-client --addr HOST:PORT shutdown
//! ```
//!
//! Every command prints the server's response frame pretty-printed;
//! `--json <PATH>` additionally writes it to a file.  Exit status is
//! non-zero on any server error frame.  `--retries N` bounds the client's
//! reconnect-and-resend policy (exponential backoff with deterministic
//! jitter; every verb is idempotent, so resending is safe — see
//! [`lad_serve::client`]).
//!
//! `metrics` fetches one observability snapshot, the service's only
//! numeric report (`--prometheus` prints the text exposition alone, for
//! scraping); `watch` polls `metrics` and redraws a one-screen live view
//! (jobs in flight, queue depth, cache hit rate, p50/p99 verb latency,
//! injected-fault counts).  `health` answers only `status` and
//! `cache_mode`.

use std::process::ExitCode;
use std::time::Duration;

use lad_common::cli::{no_leftovers, parse_number, print_stdout, take_flag, take_switch};
use lad_common::json::JsonValue;
use lad_serve::client::{Client, RetryPolicy};
use lad_serve::protocol::{JobSpec, SystemPreset, TraceSpec};

const USAGE: &str = "\
lad-client: CLI for the lad-serve experiment service

USAGE:
  lad-client --addr HOST:PORT upload <FILE.ladt>
  lad-client --addr HOST:PORT submit
             (--trace <FILE.ladt> | --stored <DIGEST> |
              --builtin <BENCH> --cores N --accesses N [--seed N])
             --scheme <S> [--scheme <S> ...] [--system paper|small-test]
             [--wait] [--json <PATH>]
  lad-client --addr HOST:PORT status <JOB>
  lad-client --addr HOST:PORT result <JOB> [--json <PATH>]
  lad-client --addr HOST:PORT wait <JOB> [--json <PATH>]
  lad-client --addr HOST:PORT cancel <JOB>
  lad-client --addr HOST:PORT health
  lad-client --addr HOST:PORT metrics [--prometheus] [--json <PATH>]
  lad-client --addr HOST:PORT watch [--interval MS] [--count N]
  lad-client --addr HOST:PORT shutdown

All commands accept `--retries N` (default 4): on a dropped connection
the client reconnects and resends with exponential backoff; every verb
is idempotent so a resend never double-executes work.

`metrics` fetches one observability snapshot, every counter and gauge the
service reports; `--prometheus` prints only the text exposition (for
scraping).  `watch` redraws a live one-screen view from one `metrics`
snapshot every `--interval` ms (default 1000) until interrupted, or
exactly `--count` times.

Schemes are the registry labels: S-NUCA, R-NUCA, VR, ASR-<level>, RT-<k>.
`upload` sends a local trace to the server's store and prints its digest
for use with `submit --stored`.";

/// How often `wait` (and `submit --wait`) polls the job status.
const POLL: Duration = Duration::from_millis(100);

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--help" || a == "-h") {
        print_stdout(&format!("{USAGE}\n"))
    } else {
        run(&mut args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lad-client: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a response frame and optionally writes it to `--json <PATH>`.
fn emit(response: &JsonValue, json_path: Option<&str>) -> Result<(), String> {
    print_stdout(&format!("{}\n", response.pretty()))?;
    if let Some(path) = json_path {
        lad_common::fs::atomic_write(std::path::Path::new(path), response.pretty().as_bytes())
            .map_err(|err| format!("cannot write {path}: {err}"))?;
    }
    Ok(())
}

fn run(args: &mut Vec<String>) -> Result<(), String> {
    let addr = take_flag(args, "--addr")?.ok_or(format!("--addr is required\n\n{USAGE}"))?;
    let mut policy = RetryPolicy::standard();
    if let Some(value) = take_flag(args, "--retries")? {
        policy.attempts = parse_number(&value, "--retries")?;
    }
    if args.is_empty() {
        return Err(format!("missing command\n\n{USAGE}"));
    }
    let command = args.remove(0);
    let mut client = Client::connect_with(&addr, policy)
        .map_err(|err| format!("cannot connect to {addr}: {err}"))?;
    match command.as_str() {
        "upload" => cmd_upload(&mut client, args),
        "submit" => cmd_submit(&mut client, args),
        "status" => cmd_job_verb(args, |job| client.status(job)),
        "result" => cmd_job_verb_json(args, |job| client.result(job)),
        "wait" => cmd_job_verb_json(args, |job| client.wait(job, POLL)),
        "cancel" => cmd_job_verb(args, |job| client.cancel(job)),
        "health" => {
            no_leftovers(args, USAGE)?;
            emit(&client.health().map_err(|err| err.to_string())?, None)
        }
        "metrics" => cmd_metrics(&mut client, args),
        "watch" => cmd_watch(&addr, &mut client, args),
        "shutdown" => {
            no_leftovers(args, USAGE)?;
            emit(&client.shutdown().map_err(|err| err.to_string())?, None)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn cmd_upload(client: &mut Client, args: &mut Vec<String>) -> Result<(), String> {
    if args.len() != 1 {
        return Err(format!("upload takes exactly one <FILE.ladt>\n\n{USAGE}"));
    }
    let path = args.remove(0);
    let bytes = std::fs::read(&path).map_err(|err| format!("cannot read {path}: {err}"))?;
    emit(&client.upload(&bytes).map_err(|err| err.to_string())?, None)
}

fn cmd_submit(client: &mut Client, args: &mut Vec<String>) -> Result<(), String> {
    let trace = trace_spec(args)?;
    let mut schemes = Vec::new();
    while let Some(scheme) = take_flag(args, "--scheme")? {
        schemes.push(scheme);
    }
    if schemes.is_empty() {
        return Err(format!("submit needs at least one --scheme\n\n{USAGE}"));
    }
    let system = match take_flag(args, "--system")? {
        Some(label) => SystemPreset::parse(&label).map_err(|err| err.to_string())?,
        None => SystemPreset::Paper,
    };
    let wait = take_switch(args, "--wait");
    let json_path = take_flag(args, "--json")?;
    no_leftovers(args, USAGE)?;

    let spec = JobSpec {
        trace,
        schemes,
        system,
    };
    let receipt = client.submit(&spec).map_err(|err| err.to_string())?;
    let job = receipt
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or("submit response is missing the job id")?
        .to_string();
    if wait {
        emit(
            &client.wait(&job, POLL).map_err(|err| err.to_string())?,
            json_path.as_deref(),
        )
    } else {
        emit(&receipt, json_path.as_deref())
    }
}

fn trace_spec(args: &mut Vec<String>) -> Result<TraceSpec, String> {
    let file = take_flag(args, "--trace")?;
    let stored = take_flag(args, "--stored")?;
    let builtin = take_flag(args, "--builtin")?;
    match (file, stored, builtin) {
        (Some(path), None, None) => Ok(TraceSpec::File { path: path.into() }),
        (None, Some(digest), None) => Ok(TraceSpec::Stored { digest }),
        (None, None, Some(benchmark)) => {
            let cores = take_flag(args, "--cores")?
                .ok_or("--builtin requires --cores")
                .and_then(|v| parse_number(&v, "--cores").map_err(|_| "--cores must be a number"))
                .map_err(str::to_string)?;
            let accesses = take_flag(args, "--accesses")?
                .ok_or("--builtin requires --accesses".to_string())
                .and_then(|v| parse_number(&v, "--accesses"))?;
            let seed = match take_flag(args, "--seed")? {
                Some(v) => parse_number(&v, "--seed")?,
                None => 0,
            };
            Ok(TraceSpec::Builtin {
                benchmark,
                cores,
                accesses_per_core: accesses,
                seed,
            })
        }
        _ => Err(format!(
            "submit needs exactly one of --trace, --stored or --builtin\n\n{USAGE}"
        )),
    }
}

fn cmd_job_verb(
    args: &mut Vec<String>,
    call: impl FnOnce(&str) -> Result<JsonValue, lad_serve::client::ClientError>,
) -> Result<(), String> {
    if args.len() != 1 {
        return Err(format!("this command takes exactly one <JOB>\n\n{USAGE}"));
    }
    let job = args.remove(0);
    emit(&call(&job).map_err(|err| err.to_string())?, None)
}

/// Reads a `u64` at a nested object path, defaulting to 0.
fn field_u64(value: &JsonValue, path: &[&str]) -> u64 {
    let mut cursor = value;
    for key in path {
        match cursor.get(key) {
            Some(next) => cursor = next,
            None => return 0,
        }
    }
    cursor.as_u64().unwrap_or(0)
}

/// Reads a string at a nested object path, defaulting to `"?"`.
fn field_str<'a>(value: &'a JsonValue, path: &[&str]) -> &'a str {
    let mut cursor = value;
    for key in path {
        match cursor.get(key) {
            Some(next) => cursor = next,
            None => return "?",
        }
    }
    cursor.as_str().unwrap_or("?")
}

fn cmd_metrics(client: &mut Client, args: &mut Vec<String>) -> Result<(), String> {
    let prometheus = take_switch(args, "--prometheus");
    let json_path = take_flag(args, "--json")?;
    no_leftovers(args, USAGE)?;
    let response = client.metrics().map_err(|err| err.to_string())?;
    if prometheus {
        let text = response
            .get("prometheus")
            .and_then(JsonValue::as_str)
            .ok_or("metrics response is missing the prometheus exposition")?;
        print_stdout(text)?;
        if let Some(path) = json_path {
            lad_common::fs::atomic_write(std::path::Path::new(&path), response.pretty().as_bytes())
                .map_err(|err| format!("cannot write {path}: {err}"))?;
        }
        Ok(())
    } else {
        emit(&response, json_path.as_deref())
    }
}

/// `watch`: polls `metrics` and redraws a one-screen live view every
/// `--interval` ms (default 1000), forever or exactly `--count` times.
fn cmd_watch(addr: &str, client: &mut Client, args: &mut Vec<String>) -> Result<(), String> {
    let interval = match take_flag(args, "--interval")? {
        Some(value) => Duration::from_millis(parse_number(&value, "--interval")?),
        None => Duration::from_millis(1000),
    };
    let count: u64 = match take_flag(args, "--count")? {
        Some(value) => parse_number(&value, "--count")?,
        None => 0,
    };
    no_leftovers(args, USAGE)?;
    let mut drawn = 0u64;
    loop {
        let metrics = client.metrics().map_err(|err| err.to_string())?;
        let mut screen = String::new();
        if drawn > 0 {
            // Home + clear-to-end: redraw in place without scrollback spam.
            screen.push_str("\x1b[H\x1b[J");
        }
        screen.push_str(&watch_screen(addr, &metrics, interval));
        print_stdout(&screen)?;
        drawn += 1;
        if count != 0 && drawn >= count {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn watch_screen(addr: &str, metrics: &JsonValue, interval: Duration) -> String {
    let empty = Vec::new();
    let entries = metrics
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let metric = |name: &str| -> u64 {
        entries
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
            .map(|e| field_u64(e, &["value"]))
            .sum()
    };
    let hits = metric("lad_serve_cache_hits_total");
    let misses = metric("lad_serve_cache_misses_total");
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        format!("{:.1}%", 100.0 * hits as f64 / lookups as f64)
    } else {
        "n/a".to_string()
    };
    let mode = match metric("lad_serve_cache_mode") {
        0 => "durable",
        1 => "memory",
        _ => "degraded",
    };
    let mut screen = format!(
        "lad-serve @ {addr} — protocol v{}, {} workers{}\n\
         jobs   : {} in flight, {} submitted\n\
         queue  : {} / {} queued, {} workers busy\n\
         cells  : {} executed, {} resumed, {} failed, {} checkpoints\n\
         cache  : {} entries, hit rate {hit_rate} ({hits} hits / {misses} misses), mode {mode}\n\
         conns  : {} accepted, {} frames in / {} out, {} errors, {} reaped\n",
        metric("lad_serve_protocol_version"),
        metric("lad_serve_workers"),
        if metric("lad_serve_draining") == 1 {
            "  [DRAINING]"
        } else {
            ""
        },
        metric("lad_serve_jobs_active"),
        metric("lad_serve_jobs_submitted_total"),
        metric("lad_serve_queue_depth"),
        metric("lad_serve_queue_limit"),
        metric("lad_serve_workers_busy"),
        metric("lad_serve_cells_executed_total"),
        metric("lad_serve_cells_resumed_total"),
        metric("lad_serve_cells_failed_total"),
        metric("lad_serve_checkpoints_written_total"),
        metric("lad_serve_cache_entries"),
        metric("lad_serve_connections_total"),
        metric("lad_serve_frames_in_total"),
        metric("lad_serve_frames_out_total"),
        metric("lad_serve_errors_total"),
        metric("lad_serve_reaped_total"),
    );
    let verbs: Vec<&JsonValue> = entries
        .iter()
        .filter(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("lad_serve_verb_latency_us")
                && e.get("count").and_then(JsonValue::as_u64).unwrap_or(0) > 0
        })
        .collect();
    if !verbs.is_empty() {
        screen.push_str("verb latency (p50 / p99 us):\n");
        for entry in verbs {
            screen.push_str(&format!(
                "  {:<10} {:>6} / {:<6} x{}\n",
                field_str(entry, &["labels", "verb"]),
                field_u64(entry, &["p50"]),
                field_u64(entry, &["p99"]),
                field_u64(entry, &["count"]),
            ));
        }
    }
    let faults: Vec<&JsonValue> = entries
        .iter()
        .filter(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("lad_serve_faults_injected_total")
        })
        .collect();
    if !faults.is_empty() {
        screen.push_str("faults injected (site/kind):\n");
        for entry in faults {
            screen.push_str(&format!(
                "  {}/{}  {}\n",
                field_str(entry, &["labels", "site"]),
                field_str(entry, &["labels", "kind"]),
                field_u64(entry, &["value"]),
            ));
        }
    }
    screen.push_str(&format!(
        "(refreshes every {} ms; Ctrl-C to stop)\n",
        interval.as_millis()
    ));
    screen
}

fn cmd_job_verb_json(
    args: &mut Vec<String>,
    call: impl FnOnce(&str) -> Result<JsonValue, lad_serve::client::ClientError>,
) -> Result<(), String> {
    let json_path = take_flag(args, "--json")?;
    if args.len() != 1 {
        return Err(format!("this command takes exactly one <JOB>\n\n{USAGE}"));
    }
    let job = args.remove(0);
    emit(
        &call(&job).map_err(|err| err.to_string())?,
        json_path.as_deref(),
    )
}
