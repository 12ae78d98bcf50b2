//! The experiment service itself: a TCP listener speaking the
//! [`protocol`](crate::protocol) frames, a persistent work-stealing worker
//! pool executing (workload × scheme) cells, and the durable state — the
//! [`ResultCache`] plus a checkpoint spill directory that lets cancelled or
//! killed cells resume instead of recomputing.
//!
//! # Layout of the data directory
//!
//! ```text
//! <data_dir>/cache/        one JSON file per completed cell (result cache)
//! <data_dir>/checkpoints/  one JSON file per in-flight cell's last
//!                          EngineCheckpoint (removed on completion)
//! <data_dir>/traces/       uploaded LADT traces, named by content digest
//! ```
//!
//! # Concurrency
//!
//! One accept thread spawns a handler thread per connection (all inside a
//! `std::thread::scope`, so a draining server joins everything).  Worker
//! threads pull cells from a bounded queue guarded by a mutex + condvar —
//! the same "workers take the next queued cell" shape as
//! [`ExperimentRunner::run_matrix`](lad_sim::experiment::ExperimentRunner::run_matrix),
//! whose workers also persist from one call to the next.  Identical cells
//! submitted concurrently are deduplicated *in flight*: later submissions
//! subscribe to the running cell rather than enqueueing a copy, so N
//! parallel submissions of the same job simulate once.
//!
//! Every cell runs under a [`RunObserver`] that reaches a boundary every
//! `checkpoint_interval` accesses.  There it publishes progress (accesses
//! done, accesses/sec) and honours its cancel flag; the `cancel` and
//! `shutdown` verbs flip the flag, and the cell stops at its next boundary
//! with an [`EngineCheckpoint`] spill, so interrupted work resumes from that
//! boundary when the same cell is submitted again — even in a new server
//! process over the same data directory.
//!
//! # Spill budget
//!
//! A boundary is only the earliest point of a periodic spill.  A cell
//! spills there when it has run, since its last spill (or since it started
//! or resumed), at least 19 times as long as the server's most recent spill
//! took, so spills take at most 1/(1 + 19) = 5% of a cell's wall time.  The
//! estimate is 0 at boot, so a fresh server spills at its first boundary;
//! on a warmed server a cell that runs for less than 19 spills' time never
//! spills.  A cancelled or draining cell still spills at the boundary where
//! it stops.  Resume is exact from any boundary, so the cadence changes no
//! report.
//!
//! The price is the work a crash loses: a killed server loses at most one
//! interval plus 19 times the last spill's duration of each running cell.
//! A 64-core × 1 000-access BARNES cell spills in about 3.6 ms on a 2-vCPU
//! VM, so at most about 70 ms of it is lost.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lad_common::config::SystemConfig;
use lad_common::fault::{FaultInjector, FaultSite, FaultyRead, FaultyWrite};
use lad_common::json::JsonValue;
use lad_energy::model::EnergyModel;
use lad_obs::{Counter, Gauge, LatencyHistogram, MetricSample, MetricsRegistry, SampleValue};
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_sim::checkpoint::{EngineCheckpoint, ResumeError};
use lad_sim::engine::{RunControl, RunObserver, RunOutcome, RunProgress, Simulator};
use lad_sim::experiment::ReplayError;
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::TraceGenerator;
use lad_traceio::source::{FileSource, GeneratorSource, TraceSource};

use crate::cache::{CacheKey, ResultCache};
use crate::durable::{self, LoadOutcome};
use crate::protocol::{
    fingerprint, fingerprint_hex, JobSpec, ServeError, TraceSpec, PROTOCOL_VERSION,
};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Durable state root (result cache, checkpoints, uploaded traces).
    pub data_dir: PathBuf,
    /// Worker threads executing cells.  The default follows the
    /// workspace-wide selection rule ([`lad_common::workers::worker_count`]).
    pub workers: usize,
    /// Maximum queued (not yet running) cells; submissions that would
    /// exceed it are rejected with a `429`-style
    /// [`ServeError::QueueFull`] instead of growing without bound.
    pub queue_limit: usize,
    /// Accesses between a cell's boundaries.  At a boundary the cell
    /// publishes progress and honours cancel, and it may spill a
    /// checkpoint: boundaries are the earliest spill points, and the
    /// [spill budget](crate::server#spill-budget) picks which of them
    /// spill.
    pub checkpoint_interval: u64,
    /// Per-connection read timeout; a connection idle longer is dropped.
    pub read_timeout: Duration,
    /// Per-connection write timeout; a peer that stops draining its
    /// socket for longer is dropped instead of pinning the handler.
    pub write_timeout: Duration,
    /// Wall-clock budget for receiving one complete frame.  A slow-loris
    /// peer dribbling bytes (each arriving inside the read timeout, so the
    /// idle-drop never fires) is reaped once its frame exceeds this.
    pub frame_deadline: Duration,
    /// Maximum accepted `upload` body size in (decoded) bytes.
    pub max_upload_bytes: usize,
    /// Fault-injection plan (disarmed by default — zero cost).  Armed via
    /// `lad-serve --fault-plan` / `LAD_FAULT_PLAN` or directly by the
    /// torture harness; consulted at every I/O seam of the service.
    pub fault: FaultInjector,
}

impl ServerConfig {
    /// Defaults for a data directory: ephemeral loopback port, workspace
    /// worker-count rule, 256-cell queue, a boundary (and earliest spill
    /// point) every 10k accesses, 10 s read/write timeouts, 30 s frame
    /// deadline, 64 MB upload cap, no fault plan.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.into(),
            workers: lad_common::workers::worker_count(None),
            queue_limit: 256,
            checkpoint_interval: 10_000,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            frame_deadline: Duration::from_secs(30),
            max_upload_bytes: 64 << 20,
            fault: FaultInjector::disarmed(),
        }
    }
}

/// Shared progress of one in-flight cell, published by its observer and
/// read by the `status` verb.
#[derive(Debug, Default)]
struct CellProgress {
    /// Accesses stepped so far (including any resumed prefix).
    done: AtomicU64,
    /// Wall-clock nanoseconds since the cell started executing.
    nanos: AtomicU64,
    /// Accesses covered by the last durable checkpoint spill.
    checkpointed: AtomicU64,
}

/// Everything a worker needs to execute one cell.
#[derive(Debug, Clone)]
struct CellSpec {
    trace: TraceSpec,
    scheme: SchemeId,
    system: SystemConfig,
}

/// A queued-or-running cell, subscribed to by one or more job cells.
#[derive(Debug)]
struct PendingCell {
    spec: CellSpec,
    running: bool,
    cancel: Arc<AtomicBool>,
    progress: Arc<CellProgress>,
    subscribers: Vec<(String, usize)>,
    /// When the cell entered the queue — claimed-minus-enqueued is the
    /// queue-wait latency sample.
    enqueued: Instant,
}

#[derive(Debug, Clone)]
enum CellState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed(String),
}

impl CellState {
    fn label(&self) -> &'static str {
        match self {
            CellState::Queued => "queued",
            CellState::Running => "running",
            CellState::Done => "done",
            CellState::Cancelled => "cancelled",
            CellState::Failed(_) => "failed",
        }
    }
}

#[derive(Debug)]
struct JobCell {
    benchmark: String,
    scheme: SchemeId,
    key: CacheKey,
    state: CellState,
    progress: Arc<CellProgress>,
    report: Option<SimulationReport>,
}

#[derive(Debug)]
struct Job {
    cells: Vec<JobCell>,
}

#[derive(Debug, Default)]
struct State {
    next_job: u64,
    jobs: BTreeMap<String, Job>,
    queue: VecDeque<CacheKey>,
    pending: BTreeMap<CacheKey, PendingCell>,
}

/// The verbs the service answers, in dispatch order — the pre-resolved
/// per-verb latency histograms cover exactly this set.
const VERBS: [&str; 8] = [
    "upload", "submit", "status", "result", "cancel", "health", "metrics", "shutdown",
];

/// Service-wide instruments: the counters, gauges and latency histograms
/// the `metrics` verb exports, all pre-resolved on this server's own
/// [`MetricsRegistry`].
///
/// The registry is per-instance (not [`lad_obs::global`]) so two servers
/// in one process — the restart tests — never share counters; the
/// `metrics` verb snapshots this registry *and* the process-wide one the
/// engine and worker pools record into.
#[derive(Debug)]
struct ServiceMetrics {
    registry: MetricsRegistry,
    jobs_submitted: Counter,
    cells_executed: Counter,
    cells_resumed: Counter,
    cells_failed: Counter,
    checkpoints_written: Counter,
    checkpoints_quarantined: Counter,
    connections: Counter,
    frames_in: Counter,
    frames_out: Counter,
    errors: Counter,
    /// Connections dropped by the slow-peer reaper (frame deadline or
    /// frame byte cap exceeded, or a stall mid-frame).
    reaped: Counter,
    /// Workers currently executing a cell (not parked on the condvar).
    workers_busy: Gauge,
    /// Scrape-time gauges, refreshed by the `metrics` verb.
    queue_depth: Gauge,
    jobs_active: Gauge,
    cache_entries: Gauge,
    /// 0 = durable, 1 = memory-only (no directory), 2 = degraded.
    cache_mode: Gauge,
    workers: Gauge,
    queue_limit: Gauge,
    protocol_version: Gauge,
    /// 1 once the server is draining (shutdown verb or dropped handle).
    draining: Gauge,
    /// Time a cell sat queued before a worker claimed it.
    cell_queue_wait_us: LatencyHistogram,
    /// Wall clock of one cell execution (resume prefix excluded).
    cell_exec_us: LatencyHistogram,
    /// Duration of one checkpoint spill: capture, encode and durable write
    /// for a periodic spill, encode and write for a cancelled cell's.
    checkpoint_spill_us: LatencyHistogram,
    /// Request-handling latency, one histogram per verb in [`VERBS`].
    verb_latency: Vec<(&'static str, LatencyHistogram)>,
}

impl ServiceMetrics {
    fn new() -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        let counter = |name, help| registry.counter(name, help);
        let gauge = |name, help| registry.gauge(name, help);
        let verb_latency = VERBS
            .iter()
            .map(|verb| {
                (
                    *verb,
                    registry.histogram_with(
                        "lad_serve_verb_latency_us",
                        &[("verb", verb)],
                        "request-handling latency by verb",
                    ),
                )
            })
            .collect();
        ServiceMetrics {
            jobs_submitted: counter("lad_serve_jobs_submitted_total", "jobs accepted by submit"),
            cells_executed: counter(
                "lad_serve_cells_executed_total",
                "cells executed to completion",
            ),
            cells_resumed: counter(
                "lad_serve_cells_resumed_total",
                "cells resumed from a spilled checkpoint",
            ),
            cells_failed: counter(
                "lad_serve_cells_failed_total",
                "cells that failed (trace error or worker panic)",
            ),
            checkpoints_written: counter(
                "lad_serve_checkpoints_written_total",
                "durable checkpoint spills",
            ),
            checkpoints_quarantined: counter(
                "lad_serve_checkpoints_quarantined_total",
                "corrupt checkpoint files quarantined",
            ),
            connections: counter("lad_serve_connections_total", "connections accepted"),
            frames_in: counter("lad_serve_frames_in_total", "request frames received"),
            frames_out: counter("lad_serve_frames_out_total", "response frames written"),
            errors: counter("lad_serve_errors_total", "requests answered with an error"),
            reaped: counter(
                "lad_serve_reaped_total",
                "connections dropped by the slow-peer reaper",
            ),
            workers_busy: gauge(
                "lad_serve_workers_busy",
                "workers currently executing a cell",
            ),
            queue_depth: gauge("lad_serve_queue_depth", "cells queued, not yet running"),
            jobs_active: gauge("lad_serve_jobs_active", "jobs with queued or running cells"),
            cache_entries: gauge("lad_serve_cache_entries", "results held by the cache"),
            cache_mode: gauge(
                "lad_serve_cache_mode",
                "result-cache mode: 0 durable, 1 memory-only, 2 degraded",
            ),
            workers: gauge("lad_serve_workers", "configured worker threads"),
            queue_limit: gauge("lad_serve_queue_limit", "maximum queued cells"),
            protocol_version: gauge("lad_serve_protocol_version", "wire protocol version"),
            draining: gauge(
                "lad_serve_draining",
                "1 while the server drains for shutdown, else 0",
            ),
            cell_queue_wait_us: registry.histogram(
                "lad_serve_cell_queue_wait_us",
                "microseconds a cell waited in the queue before a worker claimed it",
            ),
            cell_exec_us: registry.histogram(
                "lad_serve_cell_exec_us",
                "cell execution wall clock in microseconds",
            ),
            checkpoint_spill_us: registry.histogram(
                "lad_serve_checkpoint_spill_us",
                "checkpoint spill (capture, encode, durable write) duration in microseconds",
            ),
            verb_latency,
            registry,
        }
    }

    fn verb_latency(&self, verb: &str) -> Option<&LatencyHistogram> {
        self.verb_latency
            .iter()
            .find(|(known, _)| *known == verb)
            .map(|(_, histogram)| histogram)
    }
}

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    registry: SchemeRegistry,
    cache: ResultCache,
    state: Mutex<State>,
    work: Condvar,
    shutting_down: AtomicBool,
    metrics: ServiceMetrics,
    /// Nanoseconds the most recent spill attempt took, periodic or on
    /// cancel, failed or not; 0 until the first.  The spill budget's
    /// estimate of what the next spill costs; it publishes no other data,
    /// so it is read and written `Relaxed`.
    last_spill_ns: AtomicU64,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn checkpoint_path(&self, key: &CacheKey) -> PathBuf {
        self.config
            .data_dir
            .join("checkpoints")
            .join(format!("{}.json", key.file_stem()))
    }

    fn trace_path(&self, digest: &str) -> PathBuf {
        self.config
            .data_dir
            .join("traces")
            .join(format!("{digest}.ladt"))
    }
}

/// A running service instance.
///
/// Dropping the handle drains the server exactly like the `shutdown` verb
/// (running cells are cancelled *with* a final checkpoint spill, so their
/// work is resumable), making an abrupt test teardown equivalent to a
/// SIGTERM.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, loads the durable state under
    /// `config.data_dir`, and starts the accept loop plus worker pool on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the data directory cannot
    /// be prepared.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::create_dir_all(config.data_dir.join("checkpoints"))?;
        std::fs::create_dir_all(config.data_dir.join("traces"))?;
        let metrics = ServiceMetrics::new();
        let cache = ResultCache::open(
            Some(config.data_dir.join("cache")),
            config.fault.clone(),
            &metrics.registry,
        )?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config: ServerConfig { workers, ..config },
            addr,
            registry: SchemeRegistry::builtin(),
            cache,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            metrics,
            last_spill_ns: AtomicU64::new(0),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lad-serve".to_string())
                .spawn(move || serve(&shared, listener))?
        };
        Ok(Server {
            shared,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (with the actual port when `addr` asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has drained (a client sent `shutdown`, or
    /// the handle initiated one).
    pub fn join(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.thread.is_some() {
            initiate_shutdown(&self.shared);
            self.finish();
        }
    }
}

/// Runs a server in the foreground until a client sends `shutdown` —
/// the daemon entry point.  Calls `ready` with the bound address once
/// listening (the binary prints it for operators and CI).
///
/// # Errors
///
/// As for [`Server::spawn`].
pub fn run(config: ServerConfig, ready: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
    let server = Server::spawn(config)?;
    ready(server.addr());
    server.join();
    Ok(())
}

fn serve(shared: &Shared, listener: TcpListener) {
    std::thread::scope(|scope| {
        for _ in 0..shared.config.workers {
            scope.spawn(|| worker_loop(shared));
        }
        for conn in listener.incoming() {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            shared.metrics.connections.inc();
            scope.spawn(move || handle_connection(shared, stream));
        }
        // The accept loop can only break once the flag is set; make sure
        // every worker parked on the condvar re-checks it.
        shared.work.notify_all();
    });
}

/// The `shutdown` verb's body, shared with [`Server`]'s drop: flag the
/// drain, cancel queued cells, ask running cells to stop at their next
/// checkpoint boundary, and unblock the accept loop.
fn initiate_shutdown(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    {
        let mut state = shared.lock();
        let State {
            jobs,
            queue,
            pending,
            ..
        } = &mut *state;
        while let Some(key) = queue.pop_front() {
            if let Some(cell) = pending.remove(&key) {
                set_cells(jobs, &cell.subscribers, &CellState::Cancelled);
            }
        }
        for cell in pending.values() {
            cell.cancel.store(true, Ordering::SeqCst);
        }
    }
    shared.work.notify_all();
    // Unblock the accept loop with a throwaway connection so it observes
    // the flag even if no client ever connects again.
    let _ = TcpStream::connect(shared.addr);
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// A verb's successful response plus whether the connection should close
/// after it (only `shutdown` closes).
struct Reply {
    body: JsonValue,
    close: bool,
}

fn reply(body: JsonValue) -> Result<Reply, ServeError> {
    Ok(Reply { body, close: false })
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let injector = &shared.config.fault;
    let mut reader = BufReader::new(FaultyRead::new(
        read_half,
        FaultSite::ConnRead,
        injector.clone(),
    ));
    let mut writer = BufWriter::new(FaultyWrite::new(
        stream,
        FaultSite::ConnWrite,
        injector.clone(),
    ));
    // Upload frames carry hex bodies (2 bytes per payload byte) plus JSON
    // framing; anything bigger than this is no legitimate frame.
    let max_frame = shared
        .config
        .max_upload_bytes
        .saturating_mul(2)
        .saturating_add(4096);
    loop {
        let Some(line) = read_frame(shared, &mut reader, max_frame) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let (frame, close) = match handle_frame(shared, &line) {
            Ok(reply) => (reply.body, reply.close),
            Err(err) => {
                shared.metrics.errors.inc();
                (err.to_response(), false)
            }
        };
        if writeln!(writer, "{frame}").is_err() || writer.flush().is_err() {
            return;
        }
        shared.metrics.frames_out.inc();
        if close {
            return;
        }
    }
}

/// Reads one newline-terminated frame with a per-frame wall-clock deadline
/// and byte cap (the slow-peer reaper).  `None` means the connection is
/// done: clean EOF, an idle timeout with no frame in flight (the
/// pre-hardening behaviour), an I/O error, or a reaped slow peer.
fn read_frame(shared: &Shared, reader: &mut impl BufRead, max_bytes: usize) -> Option<String> {
    let started = Instant::now();
    let mut line = Vec::new();
    let reap = || {
        shared.metrics.reaped.inc();
        None
    };
    loop {
        if started.elapsed() > shared.config.frame_deadline {
            return reap();
        }
        let buf = match reader.fill_buf() {
            Ok([]) => return None,
            Ok(buf) => buf,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read-timeout window passed with nothing arriving.
                // Mid-frame that is a stalled peer (reaped); with no frame
                // in flight it is the ordinary idle drop.
                return if line.is_empty() { None } else { reap() };
            }
            // Resets and the rest: drop the connection, the client
            // reconnects if it still cares.
            Err(_) => return None,
        };
        match buf.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                line.extend_from_slice(&buf[..newline]);
                reader.consume(newline + 1);
                if line.len() > max_bytes {
                    return reap();
                }
                // Invalid UTF-8 cannot be a JSON frame; drop the
                // connection as the pre-hardening read_line did.
                return String::from_utf8(line).ok();
            }
            None => {
                let taken = buf.len();
                line.extend_from_slice(buf);
                reader.consume(taken);
                if line.len() > max_bytes {
                    return reap();
                }
            }
        }
    }
}

fn handle_frame(shared: &Shared, line: &str) -> Result<Reply, ServeError> {
    shared.metrics.frames_in.inc();
    let frame =
        JsonValue::parse(line.trim()).map_err(|err| ServeError::MalformedFrame(err.to_string()))?;
    let verb = frame
        .get("verb")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            ServeError::MalformedFrame(
                "frame must be a JSON object with a \"verb\" string".to_string(),
            )
        })?;
    let started = Instant::now();
    let result = match verb {
        "upload" => verb_upload(shared, &frame),
        "submit" => verb_submit(shared, &frame),
        "status" => verb_status(shared, &frame),
        "result" => verb_result(shared, &frame),
        "cancel" => verb_cancel(shared, &frame),
        "health" => verb_health(shared),
        "metrics" => verb_metrics(shared),
        "shutdown" => verb_shutdown(shared),
        other => Err(ServeError::UnknownVerb(other.to_string())),
    };
    if let Some(latency) = shared.metrics.verb_latency(verb) {
        latency.record_duration(started.elapsed());
    }
    result
}

fn job_field(frame: &JsonValue) -> Result<&str, ServeError> {
    frame
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::BadRequest("frame needs a \"job\" id string".to_string()))
}

// ---------------------------------------------------------------------------
// Verbs
// ---------------------------------------------------------------------------

fn verb_upload(shared: &Shared, frame: &JsonValue) -> Result<Reply, ServeError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let body = frame
        .get("bytes")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::BadRequest("upload needs a \"bytes\" hex string".to_string()))?;
    if body.len() > shared.config.max_upload_bytes.saturating_mul(2) {
        return Err(ServeError::BadRequest(format!(
            "upload exceeds the {}-byte limit",
            shared.config.max_upload_bytes
        )));
    }
    let bytes = lad_common::hex::decode(body)
        .map_err(|err| ServeError::BadRequest(format!("upload body: {err}")))?;
    // Decode fully before storing: the digest pass validates every frame,
    // so a stored trace is always replayable.
    let digest = lad_traceio::digest::digest_reader(std::io::Cursor::new(&bytes))
        .map_err(|err| ServeError::Replay(ReplayError::Trace(err)))?;
    let header = lad_traceio::reader::TraceReader::new(std::io::Cursor::new(&bytes))
        .map_err(|err| ServeError::Replay(ReplayError::Trace(err)))?
        .header()
        .clone();
    let path = shared.trace_path(&digest.to_hex());
    lad_common::fs::atomic_write_faulty(
        &path,
        &bytes,
        &shared.config.fault,
        FaultSite::TraceStore,
    )?;
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("digest", JsonValue::from(digest.to_hex())),
        ("bytes", JsonValue::from(bytes.len() as u64)),
        ("benchmark", JsonValue::from(header.benchmark.as_str())),
        ("cores", JsonValue::from(header.num_cores as u64)),
    ]))
}

/// A trace spec resolved against the server's stores: its cache digest,
/// canonical benchmark name and core count.
struct ResolvedTrace {
    digest: String,
    benchmark: String,
    cores: usize,
}

fn resolve_trace(shared: &Shared, spec: &TraceSpec) -> Result<ResolvedTrace, ServeError> {
    let from_file = |path: &Path| -> Result<ResolvedTrace, ServeError> {
        let digest = lad_traceio::digest::digest_file(path)
            .map_err(|err| ServeError::Replay(ReplayError::Trace(err)))?;
        let source =
            FileSource::open(path).map_err(|err| ServeError::Replay(ReplayError::Trace(err)))?;
        Ok(ResolvedTrace {
            digest: digest.to_hex(),
            benchmark: source.name().to_string(),
            cores: source.num_cores(),
        })
    };
    match spec {
        TraceSpec::File { path } => from_file(path),
        TraceSpec::Stored { digest } => {
            let well_formed = digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit());
            if !well_formed {
                return Err(ServeError::BadRequest(format!(
                    "stored trace digest must be 16 hex digits, got {digest:?}"
                )));
            }
            let path = shared.trace_path(digest);
            if !path.is_file() {
                return Err(ServeError::UnknownTrace(digest.clone()));
            }
            from_file(&path)
        }
        TraceSpec::Builtin {
            benchmark,
            cores,
            accesses_per_core,
            seed,
        } => {
            let known = Benchmark::ALL
                .iter()
                .find(|b| b.label() == benchmark)
                .ok_or_else(|| ServeError::UnknownBenchmark(benchmark.clone()))?;
            // Generation is deterministic from the spec, so a spec
            // fingerprint is content-equivalent as a cache key without
            // materializing the trace at submit time.
            let spec_text = format!(
                "builtin:{}:{cores}:{accesses_per_core}:{seed}",
                known.label()
            );
            Ok(ResolvedTrace {
                digest: fingerprint_hex(fingerprint(&spec_text)),
                benchmark: known.label().to_string(),
                cores: *cores,
            })
        }
    }
}

fn verb_submit(shared: &Shared, frame: &JsonValue) -> Result<Reply, ServeError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let spec = JobSpec::from_json(
        frame
            .get("job")
            .ok_or_else(|| ServeError::BadRequest("submit needs a \"job\" object".to_string()))?,
    )?;
    let mut schemes = Vec::with_capacity(spec.schemes.len());
    for label in &spec.schemes {
        let id = SchemeId::parse(label);
        shared
            .registry
            .get(id)
            .map_err(|err| ServeError::Replay(ReplayError::UnknownScheme(err)))?;
        schemes.push(id);
    }
    let resolved = resolve_trace(shared, &spec.trace)?;
    let system = spec.system.config().with_num_cores(resolved.cores);
    // The energy model is pinned to `EnergyModel::paper_default()`, so the
    // system configuration is the only free knob to fingerprint.
    let config_fp = fingerprint_hex(fingerprint(&format!("{system:?}")));

    enum Planned {
        Cached(Box<SimulationReport>),
        Attach,
        Enqueue,
    }
    let mut state = shared.lock();
    let mut plan: Vec<(CacheKey, Planned)> = Vec::with_capacity(schemes.len());
    let mut new_cells = 0usize;
    for id in &schemes {
        let key = CacheKey {
            trace: resolved.digest.clone(),
            config: config_fp.clone(),
            scheme: id.label(),
        };
        let planned = if let Some(report) = shared.cache.lookup(&key) {
            Planned::Cached(Box::new(report))
        } else if state.pending.contains_key(&key) {
            Planned::Attach
        } else {
            new_cells += 1;
            Planned::Enqueue
        };
        plan.push((key, planned));
    }
    if state.queue.len() + new_cells > shared.config.queue_limit {
        return Err(ServeError::QueueFull {
            limit: shared.config.queue_limit,
        });
    }

    let job_id = format!("job-{}", state.next_job);
    state.next_job += 1;
    let mut cells = Vec::with_capacity(plan.len());
    let mut cached = 0usize;
    let mut attached = 0usize;
    for (index, ((key, planned), id)) in plan.into_iter().zip(&schemes).enumerate() {
        let cell = match planned {
            Planned::Cached(report) => {
                cached += 1;
                JobCell {
                    benchmark: resolved.benchmark.clone(),
                    scheme: *id,
                    key,
                    state: CellState::Done,
                    progress: Arc::new(CellProgress::default()),
                    report: Some(*report),
                }
            }
            Planned::Attach => {
                attached += 1;
                let pending = match state.pending.get_mut(&key) {
                    Some(pending) => pending,
                    None => unreachable!("planned under the same lock"),
                };
                pending.subscribers.push((job_id.clone(), index));
                JobCell {
                    benchmark: resolved.benchmark.clone(),
                    scheme: *id,
                    key,
                    state: if pending.running {
                        CellState::Running
                    } else {
                        CellState::Queued
                    },
                    progress: Arc::clone(&pending.progress),
                    report: None,
                }
            }
            Planned::Enqueue => {
                let progress = Arc::new(CellProgress::default());
                state.pending.insert(
                    key.clone(),
                    PendingCell {
                        spec: CellSpec {
                            trace: spec.trace.clone(),
                            scheme: *id,
                            system: system.clone(),
                        },
                        running: false,
                        cancel: Arc::new(AtomicBool::new(false)),
                        progress: Arc::clone(&progress),
                        subscribers: vec![(job_id.clone(), index)],
                        enqueued: Instant::now(),
                    },
                );
                state.queue.push_back(key.clone());
                JobCell {
                    benchmark: resolved.benchmark.clone(),
                    scheme: *id,
                    key,
                    state: CellState::Queued,
                    progress,
                    report: None,
                }
            }
        };
        cells.push(cell);
    }
    let total = cells.len();
    state.jobs.insert(job_id.clone(), Job { cells });
    drop(state);
    shared.work.notify_all();
    shared.metrics.jobs_submitted.inc();
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("job", JsonValue::from(job_id)),
        ("cells", JsonValue::from(total as u64)),
        ("cached", JsonValue::from(cached as u64)),
        ("attached", JsonValue::from(attached as u64)),
    ]))
}

fn verb_status(shared: &Shared, frame: &JsonValue) -> Result<Reply, ServeError> {
    let job_id = job_field(frame)?;
    let state = shared.lock();
    let job = state
        .jobs
        .get(job_id)
        .ok_or_else(|| ServeError::UnknownJob(job_id.to_string()))?;
    let mut cells = Vec::with_capacity(job.cells.len());
    for cell in &job.cells {
        let done = cell.progress.done.load(Ordering::Relaxed);
        let nanos = cell.progress.nanos.load(Ordering::Relaxed);
        let rate = if nanos > 0 {
            done as f64 * 1e9 / nanos as f64
        } else {
            0.0
        };
        let mut fields = vec![
            ("benchmark", JsonValue::from(cell.benchmark.as_str())),
            ("scheme", JsonValue::from(cell.scheme.label())),
            ("state", JsonValue::from(cell.state.label())),
            ("accesses_done", JsonValue::from(done)),
            ("accesses_per_sec", JsonValue::from(rate)),
            (
                "checkpointed_accesses",
                JsonValue::from(cell.progress.checkpointed.load(Ordering::Relaxed)),
            ),
        ];
        if let CellState::Failed(message) = &cell.state {
            fields.push(("error", JsonValue::from(message.as_str())));
        }
        cells.push(JsonValue::object(fields));
    }
    let overall = job_state(job);
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("job", JsonValue::from(job_id)),
        ("state", JsonValue::from(overall)),
        ("cells", JsonValue::Array(cells)),
    ]))
}

fn job_state(job: &Job) -> &'static str {
    let mut saw_failed = false;
    let mut saw_cancelled = false;
    for cell in &job.cells {
        match cell.state {
            CellState::Queued | CellState::Running => return "running",
            CellState::Failed(_) => saw_failed = true,
            CellState::Cancelled => saw_cancelled = true,
            CellState::Done => {}
        }
    }
    if saw_failed {
        "failed"
    } else if saw_cancelled {
        "cancelled"
    } else {
        "done"
    }
}

fn verb_result(shared: &Shared, frame: &JsonValue) -> Result<Reply, ServeError> {
    let job_id = job_field(frame)?;
    let state = shared.lock();
    let job = state
        .jobs
        .get(job_id)
        .ok_or_else(|| ServeError::UnknownJob(job_id.to_string()))?;
    let remaining = job
        .cells
        .iter()
        .filter(|c| matches!(c.state, CellState::Queued | CellState::Running))
        .count();
    if remaining > 0 {
        return Err(ServeError::NotFinished {
            job: job_id.to_string(),
            remaining,
        });
    }
    if let Some(message) = job.cells.iter().find_map(|c| match &c.state {
        CellState::Failed(message) => Some(message.clone()),
        _ => None,
    }) {
        return Err(ServeError::JobFailed {
            job: job_id.to_string(),
            message,
        });
    }
    if job
        .cells
        .iter()
        .any(|c| matches!(c.state, CellState::Cancelled))
    {
        return Err(ServeError::JobCancelled {
            job: job_id.to_string(),
        });
    }
    let mut results = Vec::with_capacity(job.cells.len());
    for cell in &job.cells {
        let report = cell
            .report
            .as_ref()
            .ok_or_else(|| ServeError::Io(std::io::Error::other("done cell lost its report")))?;
        results.push(JsonValue::object([
            ("benchmark", JsonValue::from(cell.benchmark.as_str())),
            ("scheme", JsonValue::from(cell.scheme.label())),
            ("report", report.to_json()),
        ]));
    }
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("job", JsonValue::from(job_id)),
        ("results", JsonValue::Array(results)),
    ]))
}

fn verb_cancel(shared: &Shared, frame: &JsonValue) -> Result<Reply, ServeError> {
    let job_id = job_field(frame)?.to_string();
    let mut state = shared.lock();
    if !state.jobs.contains_key(&job_id) {
        return Err(ServeError::UnknownJob(job_id));
    }
    let State {
        jobs,
        queue,
        pending,
        ..
    } = &mut *state;
    let job = match jobs.get_mut(&job_id) {
        Some(job) => job,
        None => unreachable!("checked above under the same lock"),
    };
    let mut cancelled = 0usize;
    let mut finished = 0usize;
    for (index, cell) in job.cells.iter_mut().enumerate() {
        match cell.state {
            CellState::Queued | CellState::Running => {
                if let Some(pending_cell) = pending.get_mut(&cell.key) {
                    pending_cell
                        .subscribers
                        .retain(|(job, i)| !(*job == job_id && *i == index));
                    if pending_cell.subscribers.is_empty() {
                        if pending_cell.running {
                            // The worker stops at its next checkpoint
                            // boundary and spills a resumable checkpoint.
                            pending_cell.cancel.store(true, Ordering::SeqCst);
                        } else {
                            queue.retain(|key| key != &cell.key);
                            pending.remove(&cell.key);
                        }
                    }
                }
                cell.state = CellState::Cancelled;
                cancelled += 1;
            }
            _ => finished += 1,
        }
    }
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("job", JsonValue::from(job_id)),
        ("cancelled", JsonValue::from(cancelled as u64)),
        ("finished", JsonValue::from(finished as u64)),
    ]))
}

/// The `health` verb: a cheap liveness + degradation probe.  `"status"`
/// is `"ok"` while every subsystem operates durably and `"degraded"` once
/// persistent disk errors have flipped the result cache to memory-only
/// operation (the server keeps answering either way).  The counts behind
/// a degradation are `metrics` samples.
fn verb_health(shared: &Shared) -> Result<Reply, ServeError> {
    let status = if shared.cache.is_degraded() {
        "degraded"
    } else {
        "ok"
    };
    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        ("status", JsonValue::from(status)),
        ("cache_mode", JsonValue::from(shared.cache.mode())),
    ]))
}

/// The `metrics` verb: one point-in-time snapshot of every instrument,
/// exported both ways at once — `"prometheus"` carries the text
/// exposition, `"metrics"` the native JSON samples.
///
/// The snapshot merges three sources: this server's own registry (verb
/// latencies, cell/connection/cache counters), the process-wide
/// [`lad_obs::global`] registry the simulation engine and worker pools
/// record into, and per-(site, kind) counts synthesized from the fault
/// injector's fired-fault log.  Scrape-time gauges (queue depth, active
/// jobs, cache entries and mode, configured workers and queue limit,
/// protocol version, draining) are refreshed before the snapshot.
fn verb_metrics(shared: &Shared) -> Result<Reply, ServeError> {
    let (queue_depth, active_jobs) = {
        let state = shared.lock();
        let active = state
            .jobs
            .values()
            .filter(|job| {
                job.cells
                    .iter()
                    .any(|c| matches!(c.state, CellState::Queued | CellState::Running))
            })
            .count();
        (state.queue.len(), active)
    };
    let metrics = &shared.metrics;
    let level = |value: usize| i64::try_from(value).unwrap_or(i64::MAX);
    metrics.queue_depth.set(level(queue_depth));
    metrics.jobs_active.set(level(active_jobs));
    metrics.cache_entries.set(level(shared.cache.len()));
    metrics.cache_mode.set(match shared.cache.mode() {
        "durable" => 0,
        "memory" => 1,
        _ => 2,
    });
    metrics.workers.set(level(shared.config.workers));
    metrics.queue_limit.set(level(shared.config.queue_limit));
    metrics.protocol_version.set(i64::from(PROTOCOL_VERSION));
    metrics
        .draining
        .set(i64::from(shared.shutting_down.load(Ordering::SeqCst)));

    let mut samples = metrics.registry.snapshot();
    samples.extend(lad_obs::global().snapshot());
    let mut fired_counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    for fault in shared.config.fault.fired() {
        *fired_counts
            .entry((fault.site.label().to_string(), fault.kind.label()))
            .or_insert(0) += 1;
    }
    for ((site, kind), count) in fired_counts {
        samples.push(MetricSample {
            name: "lad_serve_faults_injected_total".to_string(),
            help: "faults fired by the injector, by site and kind".to_string(),
            labels: vec![("kind".to_string(), kind), ("site".to_string(), site)],
            value: SampleValue::Counter(count),
        });
    }
    // The exposition groups HELP/TYPE headers by name, so the merged
    // snapshot must arrive name-sorted like a single registry's would.
    samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));

    reply(JsonValue::object([
        ("ok", JsonValue::from(true)),
        (
            "prometheus",
            JsonValue::from(lad_obs::prometheus_text(&samples)),
        ),
        ("metrics", lad_obs::metrics_json(&samples)),
    ]))
}

fn verb_shutdown(shared: &Shared) -> Result<Reply, ServeError> {
    initiate_shutdown(shared);
    Ok(Reply {
        body: JsonValue::object([
            ("ok", JsonValue::from(true)),
            ("draining", JsonValue::from(true)),
        ]),
        close: true,
    })
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

struct WorkItem {
    key: CacheKey,
    spec: CellSpec,
    cancel: Arc<AtomicBool>,
    progress: Arc<CellProgress>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut state = shared.lock();
            loop {
                if let Some(key) = state.queue.pop_front() {
                    let claimed = match state.pending.get_mut(&key) {
                        Some(pending) => {
                            pending.running = true;
                            Some((
                                pending.spec.clone(),
                                Arc::clone(&pending.cancel),
                                Arc::clone(&pending.progress),
                                pending.subscribers.clone(),
                                pending.enqueued,
                            ))
                        }
                        // Cancelled out from under the queue entry.
                        None => None,
                    };
                    let Some((spec, cancel, progress, subscribers, enqueued)) = claimed else {
                        continue;
                    };
                    set_cells(&mut state.jobs, &subscribers, &CellState::Running);
                    shared
                        .metrics
                        .cell_queue_wait_us
                        .record_duration(enqueued.elapsed());
                    break Some(WorkItem {
                        key,
                        spec,
                        cancel,
                        progress,
                    });
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(item) = item else { return };
        execute_cell(shared, item);
    }
}

/// What one executed cell produced (errors are carried as strings so a
/// panicking worker and a trace error land in the same `Failed` path).
enum CellOutcome {
    Completed(Box<SimulationReport>),
    Cancelled,
}

fn execute_cell(shared: &Shared, item: WorkItem) {
    shared.metrics.workers_busy.inc();
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cell(shared, &item)));
    shared
        .metrics
        .cell_exec_us
        .record_duration(started.elapsed());
    shared.metrics.workers_busy.dec();
    let result: Result<CellOutcome, String> = match result {
        Ok(result) => result,
        // `as_ref` matters: `&panic` would unsize the `Box` itself into
        // `dyn Any` and every downcast of the payload would miss.
        Err(panic) => Err(format!("cell panicked: {}", panic_text(panic.as_ref()))),
    };
    let mut state = shared.lock();
    let subscribers = match state.pending.remove(&item.key) {
        Some(pending) => pending.subscribers,
        None => Vec::new(),
    };
    match result {
        Ok(CellOutcome::Completed(report)) => {
            shared.metrics.cells_executed.inc();
            complete_cells(&mut state.jobs, &subscribers, &report);
        }
        Ok(CellOutcome::Cancelled) => {
            set_cells(&mut state.jobs, &subscribers, &CellState::Cancelled);
        }
        Err(message) => {
            shared.metrics.cells_failed.inc();
            set_cells(&mut state.jobs, &subscribers, &CellState::Failed(message));
        }
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = panic.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = panic.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn set_cells(jobs: &mut BTreeMap<String, Job>, subscribers: &[(String, usize)], to: &CellState) {
    for (job_id, index) in subscribers {
        if let Some(cell) = jobs
            .get_mut(job_id)
            .and_then(|job| job.cells.get_mut(*index))
        {
            cell.state = to.clone();
        }
    }
}

fn complete_cells(
    jobs: &mut BTreeMap<String, Job>,
    subscribers: &[(String, usize)],
    report: &SimulationReport,
) {
    for (job_id, index) in subscribers {
        if let Some(cell) = jobs
            .get_mut(job_id)
            .and_then(|job| job.cells.get_mut(*index))
        {
            cell.state = CellState::Done;
            cell.report = Some(report.clone());
        }
    }
}

fn open_source(shared: &Shared, spec: &TraceSpec) -> Result<Box<dyn TraceSource>, String> {
    // File-backed sources read through the injector, a no-op when disarmed.
    let open_file = |path: PathBuf| -> Result<Box<dyn TraceSource>, String> {
        FileSource::open_faulty(&path, shared.config.fault.clone())
            .map(|s| Box::new(s) as Box<dyn TraceSource>)
            .map_err(|err| err.to_string())
    };
    match spec {
        TraceSpec::File { path } => open_file(path.clone()),
        TraceSpec::Stored { digest } => open_file(shared.trace_path(digest)),
        TraceSpec::Builtin {
            benchmark,
            cores,
            accesses_per_core,
            seed,
        } => {
            let known = Benchmark::ALL
                .iter()
                .find(|b| b.label() == benchmark)
                .ok_or_else(|| format!("unknown builtin benchmark {benchmark:?}"))?;
            Ok(Box::new(GeneratorSource::new(
                TraceGenerator::new(known.profile()),
                *cores,
                *accesses_per_core,
                *seed,
            )))
        }
    }
}

/// How many times as long as the server's most recent spill a cell must
/// run, since its own last spill, before a boundary spills again.  A spill
/// then follows at least 19 times its own cost of simulation, so spills
/// take at most 1/(1 + 19) = 5% of a cell's wall time.
const RUN_PER_SPILL: u32 = 19;

/// Whether a cell that has run for `since_last_spill` since its last spill
/// (or since it started or resumed) spills at this boundary, when the
/// server's most recent spill took `last_spill`.  A zero estimate (no
/// spill yet) spills at once.
fn spill_due(since_last_spill: Duration, last_spill: Duration) -> bool {
    since_last_spill >= last_spill.saturating_mul(RUN_PER_SPILL)
}

/// The per-cell [`RunObserver`]: publishes progress, honours the cancel
/// flag, and spills a resumable checkpoint at the boundaries the spill
/// budget allows.
struct CellObserver<'a> {
    interval: u64,
    key: &'a CacheKey,
    cancel: &'a AtomicBool,
    progress: &'a CellProgress,
    started: Instant,
    /// When the cell's last periodic spill ended, or when it started.
    spilled: Instant,
    checkpoint_path: &'a Path,
    shared: &'a Shared,
}

impl RunObserver for CellObserver<'_> {
    fn interval(&self) -> u64 {
        self.interval
    }

    fn observe(&mut self, run: RunProgress<'_>) -> RunControl {
        let total = run.total_accesses();
        self.progress.done.store(total, Ordering::Relaxed);
        self.progress.nanos.store(
            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if self.cancel.load(Ordering::SeqCst) {
            // The engine returns `Cancelled` with a checkpoint built at
            // this exact boundary; the worker spills it.
            return RunControl::Cancel;
        }
        let last_spill = Duration::from_nanos(self.shared.last_spill_ns.load(Ordering::Relaxed));
        if !spill_due(self.spilled.elapsed(), last_spill) {
            return RunControl::Continue;
        }
        // The spill clock covers capture, encode and the durable write.
        let started = Instant::now();
        let checkpoint = run.checkpoint();
        if write_checkpoint(
            self.shared,
            self.checkpoint_path,
            self.key,
            &checkpoint,
            started,
        )
        .is_ok()
        {
            self.progress.checkpointed.store(total, Ordering::Relaxed);
        }
        self.spilled = Instant::now();
        RunControl::Continue
    }
}

fn run_cell(shared: &Shared, item: &WorkItem) -> Result<CellOutcome, String> {
    // A seeded plan can panic a worker cell here to prove the
    // catch_unwind isolation holds (the panic fails this cell and nothing
    // else).
    shared.config.fault.maybe_panic(FaultSite::Cell);
    let entry = shared
        .registry
        .get(item.spec.scheme)
        .map_err(|err| err.to_string())?;
    let mut source = open_source(shared, &item.spec.trace)?;
    let mut sim = Simulator::with_policy_and_energy_model(
        item.spec.system.clone(),
        entry.config.clone(),
        Arc::clone(&entry.policy),
        EnergyModel::paper_default(),
    );
    let checkpoint_path = shared.checkpoint_path(&item.key);
    let restored = load_checkpoint(shared, &checkpoint_path, &item.key);
    let started = Instant::now();
    let mut observer = CellObserver {
        interval: shared.config.checkpoint_interval.max(1),
        key: &item.key,
        cancel: &item.cancel,
        progress: &item.progress,
        started,
        spilled: started,
        checkpoint_path: &checkpoint_path,
        shared,
    };
    let resumed = restored
        .as_ref()
        .map(|checkpoint| sim.resume_source(source.as_mut(), checkpoint, Some(&mut observer)));
    let outcome = match resumed {
        Some(Ok(outcome)) => {
            shared.metrics.cells_resumed.inc();
            Ok(outcome)
        }
        Some(Err(ResumeError::Trace(err))) => Err(err),
        // A stale spill that does not fit this cell (or no spill at all)
        // runs from access 0.
        Some(Err(ResumeError::Rejected(_))) | None => {
            sim.run_source_observed(source.as_mut(), Some(&mut observer))
        }
    }
    .map_err(|err| err.to_string())?;
    match outcome {
        RunOutcome::Completed(report) => {
            let _ = std::fs::remove_file(&checkpoint_path);
            // The in-memory cache entry lands regardless; a failed spill
            // only costs restart durability.
            let _ = shared.cache.insert(item.key.clone(), (*report).clone());
            Ok(CellOutcome::Completed(report))
        }
        RunOutcome::Cancelled(checkpoint) => {
            let written = write_checkpoint(
                shared,
                &checkpoint_path,
                &item.key,
                &checkpoint,
                Instant::now(),
            );
            if written.is_ok() {
                // The observer recorded the total it cancelled at, which is
                // the boundary the engine captured this checkpoint at.
                let total = item.progress.done.load(Ordering::Relaxed);
                item.progress.checkpointed.store(total, Ordering::Relaxed);
            }
            Ok(CellOutcome::Cancelled)
        }
    }
}

/// Durably spills a checkpoint as a digest-sealed envelope (temp file +
/// `fsync` + rename), consulting the fault injector at
/// [`FaultSite::CheckpointSpill`].  The time since `started` becomes the
/// spill budget's estimate whether or not the write succeeds; successful
/// spills are also counted and timed on the spill histogram.  The periodic
/// spill starts that clock before it captures the checkpoint.
fn write_checkpoint(
    shared: &Shared,
    path: &Path,
    key: &CacheKey,
    checkpoint: &EngineCheckpoint,
    started: Instant,
) -> std::io::Result<()> {
    let body = JsonValue::object([("key", key.to_json()), ("checkpoint", checkpoint.to_json())]);
    let written =
        durable::write_sealed(path, body, &shared.config.fault, FaultSite::CheckpointSpill);
    let took = started.elapsed();
    shared.last_spill_ns.store(
        u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
    written?;
    shared.metrics.checkpoint_spill_us.record_duration(took);
    shared.metrics.checkpoints_written.inc();
    Ok(())
}

/// Loads a spilled checkpoint for `key`.  A corrupt or torn file is
/// quarantined to `<file>.quarantine` (counted in
/// `checkpoints_quarantined`); a digest-valid one for another key or in an
/// unknown body format is ignored, and one that does not fit the cell
/// (including a file for a different spec that landed on the same stem) is
/// rejected by `resume_source`.  Either way the cell simply runs from
/// access 0 — never a panic, never a resume from bad state.
fn load_checkpoint(shared: &Shared, path: &Path, key: &CacheKey) -> Option<EngineCheckpoint> {
    let note_quarantine = || {
        shared.metrics.checkpoints_quarantined.inc();
    };
    let body = match durable::load_sealed(path) {
        LoadOutcome::Loaded(body) => body,
        LoadOutcome::Missing => return None,
        LoadOutcome::Quarantined(_) => {
            note_quarantine();
            return None;
        }
    };
    let Some(stored) = body.get("key") else {
        durable::quarantine_file(path);
        note_quarantine();
        return None;
    };
    let matches = |field: &str, expected: &str| {
        stored.get(field).and_then(JsonValue::as_str) == Some(expected)
    };
    if !(matches("trace", &key.trace)
        && matches("config", &key.config)
        && matches("scheme", &key.scheme))
    {
        return None;
    }
    EngineCheckpoint::from_json(body.get("checkpoint")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_estimate_spills_at_once() {
        assert!(spill_due(Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn a_spill_waits_for_nineteen_times_the_last_one() {
        let last = Duration::from_micros(500);
        assert!(!spill_due(Duration::from_millis(9), last));
        assert!(spill_due(Duration::from_micros(9_500), last));
    }
}
