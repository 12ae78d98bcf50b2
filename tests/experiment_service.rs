//! Integration tests of the `lad-serve` experiment service: wire-level
//! robustness, in-flight deduplication of concurrent identical
//! submissions, result-cache behaviour across resubmission and restart,
//! queue backpressure, and the checkpoint/resume path when a server dies
//! mid-job.
//!
//! Every test runs a real server on an ephemeral loopback port over its
//! own temporary data directory.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locality_replication::common::config::SystemConfig;
use locality_replication::common::json::JsonValue;
use locality_replication::replication::policy::SchemeRegistry;
use locality_replication::replication::scheme::SchemeId;
use locality_replication::serve::client::{Client, ClientError};
use locality_replication::serve::protocol::{JobSpec, SystemPreset, TraceSpec, PROTOCOL_VERSION};
use locality_replication::serve::server::{Server, ServerConfig};
use locality_replication::sim::checkpoint::EngineCheckpoint;
use locality_replication::sim::engine::{RunOutcome, Simulator};
use locality_replication::sim::experiment::ExperimentRunner;
use locality_replication::trace::benchmarks::Benchmark;
use locality_replication::trace::generator::TraceGenerator;
use locality_replication::trace::suite::BenchmarkSuite;
use locality_replication::traceio::source::GeneratorSource;
use locality_replication::traceio::suite::record_suite;

/// A fresh temporary data directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lad-serve-it-{tag}-{}-{:?}",
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

/// Test-friendly defaults: fast connection teardown, two workers.
fn config(dir: &TempDir) -> ServerConfig {
    let mut config = ServerConfig::new(dir.path().join("data"));
    config.workers = 2;
    config.read_timeout = Duration::from_millis(400);
    config
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr().to_string()).unwrap()
}

fn job_id(receipt: &JsonValue) -> String {
    receipt
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("submit response carries the job id")
        .to_string()
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

/// The report a `result` frame carries for one (benchmark, scheme) cell,
/// rendered canonically for byte comparison.
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

#[test]
fn service_matches_direct_replay_and_caches_resubmissions() {
    let dir = TempDir::new("matrix");
    let suite = BenchmarkSuite::custom(vec![Benchmark::Barnes, Benchmark::Dedup], 120, 9);
    let recorded = record_suite(&suite, 16, &dir.path().join("traces")).unwrap();
    let files: Vec<PathBuf> = recorded.iter().map(|t| t.path.clone()).collect();
    let schemes = [SchemeId::StaticNuca, SchemeId::Rt(3)];
    let runner = ExperimentRunner::new(SystemConfig::small_test(), suite);
    let mut direct = BTreeMap::new();
    for trace in &recorded {
        for scheme in schemes {
            let report = runner.replay_file(&trace.path, scheme).unwrap();
            direct.insert((trace.benchmark.clone(), scheme), report);
        }
    }

    let server = Server::spawn(config(&dir)).unwrap();
    let mut client = connect(&server);
    // Upload one trace and address it by digest; submit the other by path.
    let barnes_bytes = std::fs::read(&files[0]).unwrap();
    let uploaded = client.upload(&barnes_bytes).unwrap();
    let digest = uploaded
        .get("digest")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    let expected = locality_replication::traceio::digest::digest_file(&files[0]).unwrap();
    assert_eq!(
        digest,
        expected.to_hex(),
        "upload digest is the content digest"
    );

    let scheme_labels = vec!["S-NUCA".to_string(), "RT-3".to_string()];
    let jobs = [
        JobSpec {
            trace: TraceSpec::Stored {
                digest: digest.clone(),
            },
            schemes: scheme_labels.clone(),
            system: SystemPreset::SmallTest,
        },
        JobSpec {
            trace: TraceSpec::File {
                path: files[1].clone(),
            },
            schemes: scheme_labels.clone(),
            system: SystemPreset::SmallTest,
        },
    ];
    for (spec, benchmark) in jobs.iter().zip(["BARNES", "DEDUP"]) {
        let job = job_id(&client.submit(spec).unwrap());
        let result = client.wait(&job, Duration::from_millis(10)).unwrap();
        for scheme in &schemes {
            let direct_report = &direct[&(benchmark.to_string(), *scheme)];
            assert_eq!(
                cell_report(&result, benchmark, &scheme.label()),
                direct_report.to_json().pretty(),
                "service report for ({benchmark}, {}) differs from direct replay",
                scheme.label()
            );
        }
    }
    let executed_once = metric(&client.metrics().unwrap(), "lad_serve_cells_executed_total");
    assert_eq!(executed_once, 4, "four cells simulated");

    // Resubmitting both jobs is answered from the cache: every cell comes
    // back `cached`, nothing re-simulates, and the hit counters move.
    for (spec, benchmark) in jobs.iter().zip(["BARNES", "DEDUP"]) {
        let receipt = client.submit(spec).unwrap();
        assert_eq!(
            receipt.get("cached").and_then(JsonValue::as_u64),
            Some(2),
            "resubmission of {benchmark} must be fully cached"
        );
        let result = client
            .wait(&job_id(&receipt), Duration::from_millis(5))
            .unwrap();
        for scheme in &schemes {
            assert_eq!(
                cell_report(&result, benchmark, &scheme.label()),
                direct[&(benchmark.to_string(), *scheme)].to_json().pretty()
            );
        }
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(
        metric(&metrics, "lad_serve_cells_executed_total"),
        executed_once,
        "cached resubmission must not re-simulate"
    );
    assert!(metric(&metrics, "lad_serve_cache_hits_total") >= 4);
    assert_eq!(metric(&metrics, "lad_serve_cache_entries"), 4);

    // The spill directory survives a restart: a brand-new server over the
    // same data dir answers from cache without executing anything.
    client.shutdown().unwrap();
    server.join();
    let server = Server::spawn(config(&dir)).unwrap();
    let mut client = connect(&server);
    let receipt = client.submit(&jobs[0]).unwrap();
    assert_eq!(receipt.get("cached").and_then(JsonValue::as_u64), Some(2));
    let metrics = client.metrics().unwrap();
    assert_eq!(metric(&metrics, "lad_serve_cells_executed_total"), 0);
    assert_eq!(metric(&metrics, "lad_serve_cache_entries"), 4);

    // An unknown stored digest is a typed 404.
    let missing = client.submit(&JobSpec {
        trace: TraceSpec::Stored {
            digest: "00000000000000aa".into(),
        },
        schemes: vec!["RT-3".into()],
        system: SystemPreset::SmallTest,
    });
    match missing {
        Err(ClientError::Server { code, kind, .. }) => {
            assert_eq!((code, kind.as_str()), (404, "unknown_trace"));
        }
        other => panic!("expected unknown_trace, got {other:?}"),
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn concurrent_identical_submissions_execute_once() {
    let dir = TempDir::new("dedup");
    let server = Server::spawn(config(&dir)).unwrap();
    let spec = JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 150,
            seed: 3,
        },
        schemes: vec!["RT-3".into()],
        system: SystemPreset::SmallTest,
    };
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let server = &server;
                let spec = &spec;
                scope.spawn(move || {
                    let mut client = connect(server);
                    let job = job_id(&client.submit(spec).unwrap());
                    let result = client.wait(&job, Duration::from_millis(5)).unwrap();
                    cell_report(&result, "BARNES", "RT-3")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "all four submissions must see the same report"
    );
    let mut client = connect(&server);
    let metrics = client.metrics().unwrap();
    assert_eq!(
        metric(&metrics, "lad_serve_cells_executed_total"),
        1,
        "four identical parallel submissions must simulate exactly once"
    );
    assert_eq!(metric(&metrics, "lad_serve_jobs_submitted_total"), 4);
    client.shutdown().unwrap();
    server.join();
}

/// Sends one raw line and returns the parsed response frame.
fn raw_round_trip(stream: &TcpStream, line: &str) -> JsonValue {
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    JsonValue::parse(response.trim()).expect("every response line is well-formed JSON")
}

fn error_of(frame: &JsonValue) -> (u64, String) {
    assert_eq!(frame.get("ok").and_then(JsonValue::as_bool), Some(false));
    let error = frame
        .get("error")
        .expect("error frames carry an error object");
    (
        error.get("code").and_then(JsonValue::as_u64).unwrap(),
        error
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string(),
    )
}

#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_server() {
    let dir = TempDir::new("robust");
    let server = Server::spawn(config(&dir)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();

    let cases: [(&str, u64, &str); 11] = [
        ("this is not json", 400, "malformed_frame"),
        ("{\"no\": \"verb\"}", 400, "malformed_frame"),
        ("{\"verb\": \"zap\"}", 400, "unknown_verb"),
        // Protocol v2 folded the v1 `stats` verb into `metrics`.
        ("{\"verb\": \"stats\"}", 400, "unknown_verb"),
        ("{\"verb\": \"status\"}", 400, "bad_request"),
        (
            "{\"verb\": \"status\", \"job\": \"job-99\"}",
            404,
            "unknown_job",
        ),
        ("{\"verb\": \"submit\"}", 400, "bad_request"),
        (
            "{\"verb\": \"submit\", \"job\": {\"trace\": {\"kind\": \"builtin\", \
             \"benchmark\": \"NOPE\", \"cores\": 4, \"accesses_per_core\": 10}, \
             \"schemes\": [\"RT-3\"]}}",
            404,
            "unknown_benchmark",
        ),
        (
            "{\"verb\": \"submit\", \"job\": {\"trace\": {\"kind\": \"stored\", \
             \"digest\": \"zz\"}, \"schemes\": [\"RT-3\"]}}",
            400,
            "bad_request",
        ),
        (
            "{\"verb\": \"submit\", \"job\": {\"trace\": {\"kind\": \"builtin\", \
             \"benchmark\": \"BARNES\", \"cores\": 4, \"accesses_per_core\": 10}, \
             \"schemes\": [\"NOT-A-SCHEME\"]}}",
            500,
            "replay",
        ),
        (
            "{\"verb\": \"upload\", \"bytes\": \"abc\"}",
            400,
            "bad_request",
        ),
    ];
    for (line, code, kind) in cases {
        let (got_code, got_kind) = error_of(&raw_round_trip(&stream, line));
        assert_eq!(
            (got_code, got_kind.as_str()),
            (code, kind),
            "wrong error for frame {line:?}"
        );
    }

    // A truncated frame (no newline, connection dropped mid-object) must
    // not wedge or kill the server either.
    {
        let mut truncated = TcpStream::connect(server.addr()).unwrap();
        truncated.write_all(b"{\"verb\": \"sta").unwrap();
        truncated.flush().unwrap();
        drop(truncated);
    }

    // The same connection still serves well-formed frames afterwards.
    let metrics = raw_round_trip(&stream, "{\"verb\": \"metrics\"}");
    assert_eq!(metrics.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert!(metric(&metrics, "lad_serve_errors_total") >= cases.len() as u64);

    let mut client = connect(&server);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn full_queue_rejects_submissions_with_backpressure() {
    let dir = TempDir::new("backpressure");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.queue_limit = 1;
    let server = Server::spawn(cfg).unwrap();
    let mut client = connect(&server);
    let job = |schemes: &[&str]| JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 2000,
            seed: 5,
        },
        schemes: schemes.iter().map(|s| s.to_string()).collect(),
        system: SystemPreset::SmallTest,
    };

    // Occupy the single worker, then wait until its cell left the queue.
    let blocker = job_id(&client.submit(&job(&["RT-3"])).unwrap());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let status = client.status(&blocker).unwrap();
        let cell_state = status.get("cells").and_then(JsonValue::as_array).unwrap()[0]
            .get("state")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        if cell_state != "queued" {
            break;
        }
        assert!(Instant::now() < deadline, "worker never claimed the cell");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Two new cells cannot fit a one-slot queue: typed 429, nothing queued.
    match client.submit(&job(&["S-NUCA", "R-NUCA"])) {
        Err(ClientError::Server { code, kind, .. }) => {
            assert_eq!((code, kind.as_str()), (429, "queue_full"));
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    // One cell fits, and completes once the worker frees up.
    let accepted = job_id(&client.submit(&job(&["VR"])).unwrap());
    let result = client.wait(&accepted, Duration::from_millis(10)).unwrap();
    assert_eq!(
        result
            .get("results")
            .and_then(JsonValue::as_array)
            .unwrap()
            .len(),
        1
    );
    client.wait(&blocker, Duration::from_millis(10)).unwrap();
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn killed_server_resumes_from_checkpoint_not_access_zero() {
    let dir = TempDir::new("resume");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.checkpoint_interval = 250;
    let spec = JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 2500,
            seed: 7,
        },
        schemes: vec!["RT-3".into()],
        system: SystemPreset::SmallTest,
    };

    // Server A: run until the first checkpoint hits disk, then kill it
    // (dropping the handle drains like a SIGTERM: the running cell stops
    // at its next boundary and spills a final checkpoint).
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
                "the workload must still be mid-flight when the server dies"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(client);
    drop(server_a);

    // The spilled checkpoint is on disk and covers real progress.
    let checkpoint_dir = cfg.data_dir.join("checkpoints");
    let spills: Vec<PathBuf> = std::fs::read_dir(&checkpoint_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    assert_eq!(spills.len(), 1, "exactly one cell checkpoint is spilled");
    // Checkpoints are digest-sealed envelopes: { digest, body: { key, checkpoint } }.
    let spill = JsonValue::parse(&std::fs::read_to_string(&spills[0]).unwrap()).unwrap();
    let body = spill.get("body").expect("checkpoint spill is sealed");
    let checkpoint = EngineCheckpoint::from_json(body.get("checkpoint").unwrap())
        .unwrap()
        .decode()
        .unwrap();
    assert!(
        checkpoint.total_accesses >= 250,
        "checkpoint must cover at least one interval, covers {}",
        checkpoint.total_accesses
    );
    assert_eq!(checkpoint.benchmark, "BARNES");

    // Server B over the same data dir: resubmitting the job resumes from
    // the checkpoint (the resumed-cells counter proves it) and produces a
    // report byte-identical to an uninterrupted run.
    let server_b = Server::spawn(cfg.clone()).unwrap();
    let mut client = connect(&server_b);
    let job = job_id(&client.submit(&spec).unwrap());
    let result = client.wait(&job, Duration::from_millis(10)).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(
        metric(&metrics, "lad_serve_cells_resumed_total"),
        1,
        "the restarted server must resume the checkpoint, not start over"
    );
    assert_eq!(metric(&metrics, "lad_serve_cells_executed_total"), 1);

    let registry = SchemeRegistry::builtin();
    let entry = registry.get(SchemeId::Rt(3)).unwrap();
    let mut fresh = Simulator::with_policy_and_energy_model(
        SystemConfig::small_test().with_num_cores(16),
        entry.config.clone(),
        Arc::clone(&entry.policy),
        locality_replication::energy::model::EnergyModel::paper_default(),
    );
    let mut source = GeneratorSource::new(
        TraceGenerator::new(Benchmark::Barnes.profile()),
        16,
        2500,
        7,
    );
    let RunOutcome::Completed(fresh_report) = fresh.run_source_observed(&mut source, None).unwrap()
    else {
        panic!("uninterrupted run cannot be cancelled");
    };
    assert_eq!(
        cell_report(&result, "BARNES", "RT-3"),
        fresh_report.to_json().pretty(),
        "resumed report differs from an uninterrupted run"
    );

    // Completion removed the checkpoint spill.
    let leftovers = std::fs::read_dir(&checkpoint_dir)
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
    assert_eq!(
        leftovers, 0,
        "a completed cell must clean up its checkpoint"
    );
    client.shutdown().unwrap();
    server_b.join();
}

/// The `metrics` verb end-to-end: after one real job the scrape carries a
/// parseable Prometheus exposition and a native JSON document whose
/// counters reflect the work done, per-verb latency histograms included.
#[test]
fn metrics_verb_exposes_prometheus_and_json() {
    let dir = TempDir::new("metrics");
    let server = Server::spawn(config(&dir)).unwrap();
    let mut client = connect(&server);
    let spec = JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: "BARNES".into(),
            cores: 16,
            accesses_per_core: 120,
            seed: 11,
        },
        schemes: vec!["S-NUCA".into(), "RT-3".into()],
        system: SystemPreset::SmallTest,
    };
    let job = job_id(&client.submit(&spec).unwrap());
    client.wait(&job, Duration::from_millis(5)).unwrap();

    let frame = client.metrics().unwrap();
    assert_eq!(frame.get("ok").and_then(JsonValue::as_bool), Some(true));

    // The Prometheus body obeys the text-exposition grammar line by line:
    // comments are HELP/TYPE for the sample that follows, samples are
    // `name[{labels}] value` with a finite numeric value.
    let body = frame
        .get("prometheus")
        .and_then(JsonValue::as_str)
        .expect("metrics frame carries a prometheus body");
    let mut sample_lines = 0usize;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unknown comment line: {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line:?}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label block in line: {line:?}"
                );
            }
        }
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "non-numeric sample value in line: {line:?}"
        );
        sample_lines += 1;
    }
    assert!(sample_lines > 20, "suspiciously small exposition: {body}");
    assert!(
        body.contains("# TYPE lad_serve_cells_executed_total counter"),
        "missing typed cells counter in exposition"
    );

    // The native JSON view round-trips through the strict parser and its
    // counters reflect the two executed cells and the frames exchanged.
    let json = frame
        .get("metrics")
        .expect("metrics frame carries a native JSON view");
    let reparsed = JsonValue::parse(&json.pretty()).unwrap();
    assert_eq!(&reparsed, json, "metrics JSON unstable under round-trip");
    let entries = json
        .get("metrics")
        .and_then(JsonValue::as_array)
        .expect("native view has a metrics array");
    assert_eq!(metric(&frame, "lad_serve_cells_executed_total"), 2);
    assert!(metric(&frame, "lad_serve_jobs_submitted_total") >= 1);
    assert!(metric(&frame, "lad_serve_frames_in_total") >= 3);
    let submit_latency = entries
        .iter()
        .find(|m| {
            m.get("name").and_then(JsonValue::as_str) == Some("lad_serve_verb_latency_us")
                && m.get("labels")
                    .and_then(|l| l.get("verb"))
                    .and_then(JsonValue::as_str)
                    == Some("submit")
        })
        .expect("per-verb latency histogram for submit");
    assert!(
        submit_latency
            .get("count")
            .and_then(JsonValue::as_u64)
            .is_some_and(|count| count >= 1),
        "submit latency histogram never recorded"
    );
    // Scrape-time gauges: the cache holds both spilled cells, the mode
    // gauge reports durable (0) over a healthy data directory, and the
    // configuration gauges carry the test config and protocol version.
    assert_eq!(metric(&frame, "lad_serve_cache_entries"), 2);
    assert_eq!(metric(&frame, "lad_serve_cache_mode"), 0);
    assert_eq!(metric(&frame, "lad_serve_workers"), 2);
    assert_eq!(metric(&frame, "lad_serve_queue_limit"), 256);
    assert_eq!(
        metric(&frame, "lad_serve_protocol_version"),
        u64::from(PROTOCOL_VERSION)
    );
    assert_eq!(metric(&frame, "lad_serve_draining"), 0);

    client.shutdown().unwrap();
    server.join();
}
