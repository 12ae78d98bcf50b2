//! Crash-consistency torture suite for the experiment service.
//!
//! Every test here runs a real server with the deterministic fault
//! injector armed ([`lad_common::fault`]) and asserts the robustness
//! invariants the service promises:
//!
//! - **No wrong results, ever.** Whatever faults fire, every report a
//!   client finally obtains is byte-identical to a fault-free direct
//!   replay of the same workload.
//! - **No panics, no hangs.** The server survives dropped connections,
//!   stalled peers, torn writes, ENOSPC, and worker-cell panics, and
//!   keeps answering well-formed frames.
//! - **Crash-consistent durability.** A server killed at *any* byte of a
//!   durable write leaves a file the next boot quarantines (never loads),
//!   re-executing the work instead of serving a corrupt artifact.
//! - **Bounded recovery.** Clients reach a successful answer within their
//!   retry budget once each injected fault has fired.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locality_replication::common::config::SystemConfig;
use locality_replication::common::fault::{FaultInjector, FaultPlan};
use locality_replication::common::json::JsonValue;
use locality_replication::energy::model::EnergyModel;
use locality_replication::replication::policy::SchemeRegistry;
use locality_replication::replication::scheme::SchemeId;
use locality_replication::serve::client::{Client, ClientError, RetryPolicy};
use locality_replication::serve::durable;
use locality_replication::serve::protocol::{
    fingerprint, fingerprint_hex, JobSpec, SystemPreset, TraceSpec,
};
use locality_replication::serve::server::{Server, ServerConfig};
use locality_replication::sim::engine::{RunOutcome, Simulator};
use locality_replication::trace::benchmarks::Benchmark;
use locality_replication::trace::generator::TraceGenerator;
use locality_replication::traceio::source::GeneratorSource;

/// A fresh temporary data directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lad-torture-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn config(dir: &TempDir) -> ServerConfig {
    let mut config = ServerConfig::new(dir.path().join("data"));
    config.workers = 2;
    config.read_timeout = Duration::from_millis(200);
    config
}

/// A retry policy generous enough to outlast any single injected fault
/// but still bounded (the suite must fail by timeout, not hang).
fn torture_policy() -> RetryPolicy {
    let mut policy = RetryPolicy::standard();
    policy.attempts = 6;
    policy.base = Duration::from_millis(5);
    policy.cap = Duration::from_millis(50);
    policy
}

fn connect(server: &Server) -> Client {
    Client::connect_with(server.addr().to_string(), torture_policy()).unwrap()
}

fn job_id(receipt: &JsonValue) -> String {
    receipt
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("submit response carries the job id")
        .to_string()
}

/// `object` with the value of its field `key` replaced by `value`.
fn with_field(object: &JsonValue, key: &str, value: JsonValue) -> JsonValue {
    JsonValue::object(object.as_object().unwrap().iter().map(|(name, old)| {
        let new = if name == key { &value } else { old };
        (name.clone(), new.clone())
    }))
}

/// The value of the unlabelled sample `name` in a `metrics` frame.
fn metric(frame: &JsonValue, name: &str) -> u64 {
    frame
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(JsonValue::as_array)
        .and_then(|samples| {
            samples
                .iter()
                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
        })
        .and_then(|s| s.get("value"))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("metrics frame is missing {name}"))
}

/// The report a `result` frame carries for one (benchmark, scheme) cell.
fn cell_report(result: &JsonValue, benchmark: &str, scheme: &str) -> String {
    result
        .get("results")
        .and_then(JsonValue::as_array)
        .expect("result frame carries a results array")
        .iter()
        .find(|cell| {
            cell.get("benchmark").and_then(JsonValue::as_str) == Some(benchmark)
                && cell.get("scheme").and_then(JsonValue::as_str) == Some(scheme)
        })
        .and_then(|cell| cell.get("report"))
        .unwrap_or_else(|| panic!("no result cell for ({benchmark}, {scheme})"))
        .pretty()
}

/// The fault-free ground truth: a direct in-process replay of the same
/// builtin workload, canonically rendered for byte comparison.
fn direct_report(
    benchmark: Benchmark,
    cores: usize,
    accesses: usize,
    seed: u64,
    scheme: SchemeId,
) -> String {
    let registry = SchemeRegistry::builtin();
    let entry = registry.get(scheme).unwrap();
    let mut sim = Simulator::with_policy_and_energy_model(
        SystemConfig::small_test().with_num_cores(cores),
        entry.config.clone(),
        Arc::clone(&entry.policy),
        EnergyModel::paper_default(),
    );
    let mut source = GeneratorSource::new(
        TraceGenerator::new(benchmark.profile()),
        cores,
        accesses,
        seed,
    );
    match sim.run_source_observed(&mut source, None).unwrap() {
        RunOutcome::Completed(report) => report.to_json().pretty(),
        RunOutcome::Cancelled(_) => panic!("uninterrupted run cannot be cancelled"),
    }
}

/// The torture workload: one builtin benchmark under two schemes.
fn torture_spec() -> JobSpec {
    JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 150,
            seed: 3,
        },
        schemes: vec!["RT-3".into(), "S-NUCA".into()],
        system: SystemPreset::SmallTest,
    }
}

fn torture_baseline() -> [(String, String); 2] {
    [
        (
            "RT-3".to_string(),
            direct_report(Benchmark::Barnes, 16, 150, 3, SchemeId::Rt(3)),
        ),
        (
            "S-NUCA".to_string(),
            direct_report(Benchmark::Barnes, 16, 150, 3, SchemeId::StaticNuca),
        ),
    ]
}

/// Submits `spec` and waits out its result, with no fault tolerance:
/// for paths where nothing should go wrong.
fn run_job(client: &mut Client, spec: &JobSpec) -> JsonValue {
    let job = job_id(&client.submit(spec).unwrap());
    client.wait(&job, Duration::from_millis(5)).unwrap()
}

/// Submits `spec` and waits for its result, resubmitting on injected
/// failures (a failed cell is never cached, so a resubmission
/// re-executes).  Panics if no attempt within the budget succeeds.
fn submit_until_success(client: &mut Client, spec: &JobSpec) -> JsonValue {
    let mut last = String::new();
    for _ in 0..12 {
        let receipt = match client.submit(spec) {
            Ok(receipt) => receipt,
            Err(err) => {
                last = err.to_string();
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        match client.wait(&job_id(&receipt), Duration::from_millis(5)) {
            Ok(result) => return result,
            Err(ClientError::Server {
                code,
                kind,
                message,
            }) => {
                // The only acceptable server-side failure under injection
                // is a failed cell (worker panic, dropped mid-execution);
                // anything else would be a protocol regression.
                assert_eq!(
                    (code, kind.as_str()),
                    (500, "job_failed"),
                    "unexpected server error under fault injection: {message}"
                );
                last = message;
            }
            Err(err) => last = err.to_string(),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no successful result within the retry budget; last error: {last}");
}

/// Asserts the result frame's reports are byte-identical to the
/// fault-free direct replay.
fn assert_matches_baseline(result: &JsonValue, baseline: &[(String, String)]) {
    for (scheme, expected) in baseline {
        assert_eq!(
            &cell_report(result, "BARNES", scheme),
            expected,
            "report for ({scheme}) differs from fault-free direct replay"
        );
    }
}

/// Tentpole invariant: replaying the same workload under N seeded random
/// fault plans always converges to byte-identical reports, with the
/// server answering `health` and `metrics` afterwards — no panic, no hang,
/// no wrong result.
#[test]
fn seeded_random_fault_plans_never_corrupt_results() {
    let baseline = torture_baseline();
    for seed in 1..=8u64 {
        let plan = FaultPlan::random(seed);
        let dir = TempDir::new(&format!("plan-{seed}"));
        let mut cfg = config(&dir);
        cfg.checkpoint_interval = 100;
        cfg.fault = FaultInjector::armed(plan.clone());
        let server = Server::spawn(cfg).unwrap();
        let mut client = connect(&server);

        let result = submit_until_success(&mut client, &torture_spec());
        assert_matches_baseline(&result, &baseline);

        // The server is still coherent: health and metrics answer, and the
        // cache mode is one of the defined states (degraded is fine — an
        // injected ENOSPC may have fired).
        let health = client.health().unwrap_or_else(|err| {
            panic!("health unanswerable after plan {plan} (seed {seed}): {err}")
        });
        let status = health.get("status").and_then(JsonValue::as_str).unwrap();
        assert!(
            status == "ok" || status == "degraded",
            "undefined health status {status:?} under plan {plan}"
        );
        let metrics = client.metrics().unwrap();
        assert!(metric(&metrics, "lad_serve_cells_executed_total") >= 1);
        // Dropping the handle drains the server; join() would be forever
        // if a fault wedged the drain, so bound it ourselves.
        let _ = client.shutdown();
        drop(server);
    }
}

/// Crash-consistency sweep: a server killed at *every* sampled byte of a
/// checkpoint write (torn prefix) — plus single-byte corruptions — leaves
/// a file the next boot quarantines, re-executes the cell from scratch,
/// and still produces the byte-identical report.  An intact-checkpoint
/// control iteration proves the same harness *does* resume when the file
/// verifies.
#[test]
fn torn_checkpoint_at_every_kill_point_recovers_byte_identically() {
    let dir = TempDir::new("torn-sweep");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.checkpoint_interval = 250;
    let spec = JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 800,
            seed: 7,
        },
        schemes: vec!["RT-3".into()],
        system: SystemPreset::SmallTest,
    };
    let expected = direct_report(Benchmark::Barnes, 16, 800, 7, SchemeId::Rt(3));

    // Server A: run until a checkpoint hits disk mid-job, then kill it.
    let server_a = Server::spawn(cfg.clone()).unwrap();
    let mut client = connect(&server_a);
    let job = job_id(&client.submit(&spec).unwrap());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&job).unwrap();
        let cell = &status.get("cells").and_then(JsonValue::as_array).unwrap()[0];
        let checkpointed = cell
            .get("checkpointed_accesses")
            .and_then(JsonValue::as_u64)
            .unwrap();
        if checkpointed >= 250 {
            assert_eq!(
                status.get("state").and_then(JsonValue::as_str),
                Some("running"),
                "workload must still be mid-flight when the server dies"
            );
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint within deadline");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(client);
    drop(server_a);

    let checkpoint_dir = cfg.data_dir.join("checkpoints");
    let spills: Vec<PathBuf> = std::fs::read_dir(&checkpoint_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    assert_eq!(spills.len(), 1, "exactly one checkpoint spilled");
    let checkpoint_path = spills[0].clone();
    let good = std::fs::read(&checkpoint_path).unwrap();
    let quarantine_path = {
        let mut name = checkpoint_path.as_os_str().to_os_string();
        name.push(".quarantine");
        PathBuf::from(name)
    };

    // Every mutation a mid-write crash (or bit rot) can leave: torn
    // prefixes at sampled offsets spanning the whole file, and
    // single-byte flips.  `None` is the intact control.
    let mut mutations: Vec<Option<Vec<u8>>> = Vec::new();
    let stride = (good.len() / 5).max(1);
    for cut in (0..good.len()).step_by(stride).chain([1, good.len() - 1]) {
        mutations.push(Some(good[..cut].to_vec()));
    }
    for flip in [0, good.len() / 3, good.len() - 2] {
        let mut bad = good.clone();
        bad[flip] ^= 0x40;
        mutations.push(Some(bad));
    }
    // The intact spill relabelled as a format-1 checkpoint and re-sealed:
    // what a spill written before the current body format looks like after
    // an upgrade.  Its digest verifies, so it is not quarantined; its body
    // format is unknown, so it is ignored and the cell reruns from access 0.
    let stale_format = {
        let envelope = JsonValue::parse(std::str::from_utf8(&good).unwrap()).unwrap();
        let body = envelope.get("body").unwrap();
        let checkpoint = with_field(
            body.get("checkpoint").unwrap(),
            "format",
            JsonValue::from(1u64),
        );
        durable::seal(&with_field(body, "checkpoint", checkpoint)).into_bytes()
    };
    mutations.push(Some(stale_format.clone()));
    mutations.push(None);

    // Whether `bytes` still parses and digest-verifies as a sealed
    // envelope.  Mirrors the load-time check: a mutation that only loses
    // trailing whitespace (e.g. a cut at len-1 dropping the final
    // newline) is still digest-valid, and *should* resume.
    let verifies = |bytes: &[u8]| -> bool {
        let Ok(text) = std::str::from_utf8(bytes) else {
            return false;
        };
        let Ok(envelope) = JsonValue::parse(text) else {
            return false;
        };
        match (
            envelope.get("digest").and_then(JsonValue::as_str),
            envelope.get("body"),
        ) {
            (Some(digest), Some(body)) => fingerprint_hex(fingerprint(&body.pretty())) == digest,
            _ => false,
        }
    };

    let mut quarantined_count = 0u64;
    for (index, mutation) in mutations.iter().enumerate() {
        // Reset durable state so every iteration exercises the
        // checkpoint path: no cache entry, no stale quarantine.
        std::fs::remove_dir_all(cfg.data_dir.join("cache")).ok();
        std::fs::remove_file(&quarantine_path).ok();
        let bytes = mutation.as_deref().unwrap_or(&good);
        let valid = verifies(bytes);
        let stale = bytes == stale_format.as_slice();
        assert!(
            !stale || valid,
            "the re-sealed stale-format spill must verify"
        );
        std::fs::write(&checkpoint_path, bytes).unwrap();

        let server = Server::spawn(cfg.clone()).unwrap();
        let mut client = connect(&server);
        let result = run_job(&mut client, &spec);
        assert_eq!(
            cell_report(&result, "BARNES", "RT-3"),
            expected,
            "mutation {index} produced a wrong report"
        );
        let metrics = client.metrics().unwrap();
        assert_eq!(metric(&metrics, "lad_serve_cells_executed_total"), 1);
        if stale {
            assert_eq!(
                metric(&metrics, "lad_serve_cells_resumed_total"),
                0,
                "mutation {index}: a checkpoint in an old body format must not resume"
            );
            assert_eq!(
                metric(&metrics, "lad_serve_checkpoints_quarantined_total"),
                0,
                "mutation {index}: a digest-valid checkpoint is never quarantined"
            );
        } else if valid {
            assert_eq!(
                metric(&metrics, "lad_serve_cells_resumed_total"),
                1,
                "mutation {index}: a digest-valid checkpoint must resume"
            );
            assert_eq!(
                metric(&metrics, "lad_serve_checkpoints_quarantined_total"),
                0
            );
        } else {
            quarantined_count += 1;
            assert_eq!(
                metric(&metrics, "lad_serve_cells_resumed_total"),
                0,
                "mutation {index}: a corrupt checkpoint must never resume"
            );
            assert_eq!(
                metric(&metrics, "lad_serve_checkpoints_quarantined_total"),
                1,
                "mutation {index}: the corrupt checkpoint must be quarantined"
            );
            assert!(
                quarantine_path.is_file(),
                "mutation {index}: corrupt bytes preserved for post-mortem"
            );
        }
        client.shutdown().unwrap();
        server.join();
    }
    // Vacuity guard: the sweep is only meaningful if most mutations took
    // the quarantine path (a few — e.g. a cut that only loses trailing
    // whitespace — legitimately stay digest-valid and resume instead).
    assert!(
        quarantined_count >= mutations.len() as u64 / 2,
        "the sweep must mostly exercise the quarantine path \
         ({quarantined_count} of {} mutations)",
        mutations.len()
    );
}

/// One flipped byte in a spilled result-cache entry: the restarted server
/// quarantines the entry at boot, reports a cache miss, re-executes the
/// cell, and serves the byte-identical report.
#[test]
fn flipped_byte_in_spilled_cache_entry_is_quarantined_and_reexecuted() {
    let dir = TempDir::new("cache-flip");
    let cfg = config(&dir);
    let baseline = torture_baseline();

    let server = Server::spawn(cfg.clone()).unwrap();
    let mut client = connect(&server);
    let result = run_job(&mut client, &torture_spec());
    assert_matches_baseline(&result, &baseline);
    client.shutdown().unwrap();
    server.join();

    // Corrupt one spilled entry (one byte, deep in the body).
    let cache_dir = cfg.data_dir.join("cache");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 2, "both cells spilled");
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let at = bytes.len() * 2 / 3;
    bytes[at] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    // Restart: the corrupt entry is quarantined at load, the other
    // survives, and a resubmission re-executes exactly the corrupted cell.
    let server = Server::spawn(cfg).unwrap();
    let mut client = connect(&server);
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "lad_serve_cache_quarantined_total"), 1);
    assert_eq!(metric(&metrics, "lad_serve_cache_entries"), 1);
    let mut quarantine = victim.as_os_str().to_os_string();
    quarantine.push(".quarantine");
    assert!(PathBuf::from(quarantine).is_file());

    let receipt = client.submit(&torture_spec()).unwrap();
    assert_eq!(
        receipt.get("cached").and_then(JsonValue::as_u64),
        Some(1),
        "exactly the corrupted cell must miss"
    );
    let result = client
        .wait(&job_id(&receipt), Duration::from_millis(5))
        .unwrap();
    assert_matches_baseline(&result, &baseline);
    assert_eq!(
        metric(&client.metrics().unwrap(), "lad_serve_cells_executed_total"),
        1
    );
    client.shutdown().unwrap();
    server.join();
}

/// Injected connection drops (server kills the socket mid-conversation):
/// the client's bounded retry policy reconnects and resends — safe
/// because every verb is idempotent — and reaches the correct result.
#[test]
fn dropped_connections_retry_to_success() {
    let dir = TempDir::new("conn-drop");
    let mut cfg = config(&dir);
    cfg.fault = FaultInjector::armed(
        FaultPlan::parse("conn-write:1:drop;conn-read:3:drop;conn-read:6:halfclose").unwrap(),
    );
    let server = Server::spawn(cfg).unwrap();
    let mut client = connect(&server);

    let result = submit_until_success(&mut client, &torture_spec());
    assert_matches_baseline(&result, &torture_baseline());
    assert!(
        client.retries() >= 1,
        "the drop plan must actually exercise the retry path"
    );
    let _ = client.shutdown();
    drop(server);
}

/// An injected worker-cell panic is contained: the job fails with the
/// typed 500 `job_failed` error, the server keeps serving, and a
/// resubmission (the panic fault now exhausted) succeeds byte-identically.
#[test]
fn injected_cell_panic_fails_typed_then_resubmission_succeeds() {
    let dir = TempDir::new("cell-panic");
    let mut cfg = config(&dir);
    cfg.fault = FaultInjector::armed(FaultPlan::parse("cell:1:panic").unwrap());
    let server = Server::spawn(cfg).unwrap();
    let mut client = connect(&server);

    let spec = torture_spec();
    let job = job_id(&client.submit(&spec).unwrap());
    match client.wait(&job, Duration::from_millis(5)) {
        Err(ClientError::Server {
            code,
            kind,
            message,
        }) => {
            assert_eq!((code, kind.as_str()), (500, "job_failed"));
            assert!(
                message.contains("injected fault"),
                "failure message must carry the panic payload, got {message:?}"
            );
        }
        other => panic!("expected job_failed from the panicking cell, got {other:?}"),
    }
    assert!(metric(&client.metrics().unwrap(), "lad_serve_cells_failed_total") >= 1);

    // The worker pool survived the panic; the fault is exhausted, so a
    // fresh submission executes cleanly.
    let result = submit_until_success(&mut client, &spec);
    assert_matches_baseline(&result, &torture_baseline());
    client.shutdown().unwrap();
    server.join();
}

/// ENOSPC on a cache spill flips the cache into memory-only degraded
/// mode: results stay correct and cacheable in memory, nothing more is
/// written to disk, `health` reports the degradation and `metrics` the
/// spill error behind it.
#[test]
fn enospc_spill_degrades_to_memory_only_and_health_reports_it() {
    let dir = TempDir::new("enospc");
    let mut cfg = config(&dir);
    cfg.fault = FaultInjector::armed(FaultPlan::parse("cache-spill:1:enospc").unwrap());
    let server = Server::spawn(cfg.clone()).unwrap();
    let mut client = connect(&server);
    let baseline = torture_baseline();

    let result = run_job(&mut client, &torture_spec());
    assert_matches_baseline(&result, &baseline);

    let health = client.health().unwrap();
    assert_eq!(
        health.get("status").and_then(JsonValue::as_str),
        Some("degraded")
    );
    assert_eq!(
        health.get("cache_mode").and_then(JsonValue::as_str),
        Some("degraded")
    );
    // `health` carries exactly these keys; the counts behind the
    // degradation are `metrics` samples.
    let keys: Vec<&str> = health
        .as_object()
        .unwrap()
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["ok", "status", "cache_mode"]);
    assert!(
        metric(
            &client.metrics().unwrap(),
            "lad_serve_cache_spill_errors_total"
        ) >= 1
    );

    // Degraded ≠ broken: the memory cache still answers resubmissions,
    // and no entry files were written after the disk "filled up".
    let receipt = client.submit(&torture_spec()).unwrap();
    assert_eq!(receipt.get("cached").and_then(JsonValue::as_u64), Some(2));
    let spilled = std::fs::read_dir(cfg.data_dir.join("cache"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .and_then(|x| x.to_str())
                == Some("json")
        })
        .count();
    assert_eq!(spilled, 0, "degraded cache must not keep writing to disk");
    client.shutdown().unwrap();
    server.join();
}

/// Slow-loris and oversized peers are reaped: a connection that stalls
/// mid-frame or streams an over-cap frame is dropped (and counted), and
/// the server keeps serving everyone else.
#[test]
fn slow_loris_and_oversized_frames_are_reaped() {
    let dir = TempDir::new("loris");
    let mut cfg = config(&dir);
    cfg.read_timeout = Duration::from_millis(50);
    cfg.frame_deadline = Duration::from_millis(250);
    cfg.max_upload_bytes = 1024;
    let server = Server::spawn(cfg).unwrap();

    // A peer that sends half a frame and then goes quiet.
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(b"{\"verb\": \"sta").unwrap();
    loris.flush().unwrap();

    // A peer that streams an endless frame (no newline) past the cap
    // (2 * max_upload_bytes + 4096).
    let mut firehose = TcpStream::connect(server.addr()).unwrap();
    let blob = vec![b'x'; 10_000];
    let _ = firehose.write_all(&blob);
    let _ = firehose.flush();

    let mut client = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if metric(&client.metrics().unwrap(), "lad_serve_reaped_total") >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled and oversized peers were never reaped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(loris);
    drop(firehose);

    // Everyone else is unaffected.
    let result = run_job(&mut client, &torture_spec());
    assert_matches_baseline(&result, &torture_baseline());
    client.shutdown().unwrap();
    server.join();
}
