//! Experiment orchestration: run benchmark × scheme matrices, normalize
//! against a baseline and aggregate, the way the paper's figures do.
//!
//! The paper evaluates seven configurations per benchmark
//! (S-NUCA, R-NUCA, VR, ASR, RT-1, RT-3, RT-8), normalizes energy and
//! completion time to S-NUCA (Figures 6 and 7), and reports the ASR result
//! at the per-benchmark replication level with the lowest energy-delay
//! product.  [`SchemeComparison`] reproduces exactly that procedure;
//! [`ExperimentRunner`] parallelizes the independent simulations across
//! worker threads it keeps from one matrix to the next.
//!
//! Everything is keyed by typed [`SchemeId`]s resolved through a
//! [`SchemeRegistry`], so custom out-of-crate [`ReplicationPolicy`]s sweep
//! through the same matrix machinery as the paper's built-ins, and a lookup
//! of a scheme that was never run is a typed [`UnknownScheme`] error instead
//! of a silent `NaN`.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

use lad_common::config::SystemConfig;
use lad_common::json::JsonValue;
use lad_common::stats::{mean, normalized};
use lad_energy::model::EnergyModel;
use lad_replication::config::ReplicationConfig;
use lad_replication::policy::{RegisteredScheme, ReplicationPolicy, SchemeRegistry};
use lad_replication::scheme::{SchemeId, UnknownScheme};
use lad_trace::benchmarks::Benchmark;
use lad_trace::suite::BenchmarkSuite;
use lad_traceio::error::TraceError;
use lad_traceio::source::{FileSource, TraceSource};

use crate::engine::Simulator;
use crate::metrics::SimulationReport;

/// Pre-resolved instrument handles of [`ExperimentRunner::run_matrix`]'s
/// work-stealing pool, labelled `pool="run_matrix"` (the series perfbench's
/// `pool.busy_frac` reads).  Queue wait is measured from pool start to the
/// moment a worker pulls the cell (cells sit in the shared queue from the
/// start, so that *is* their wait); execution time is the cell's own wall
/// clock.
#[derive(Clone)]
struct PoolMetrics {
    queue_wait: lad_obs::LatencyHistogram,
    exec: lad_obs::LatencyHistogram,
    jobs: lad_obs::Counter,
    busy: lad_obs::Gauge,
}

impl PoolMetrics {
    fn resolve() -> Self {
        let registry = lad_obs::global();
        let labels = [("pool", "run_matrix")];
        PoolMetrics {
            queue_wait: registry.histogram_with(
                "lad_pool_queue_wait_us",
                &labels,
                "time a matrix cell waited in the work-stealing queue",
            ),
            exec: registry.histogram_with(
                "lad_pool_cell_exec_us",
                &labels,
                "wall-clock execution time of one matrix cell",
            ),
            jobs: registry.counter_with(
                "lad_pool_jobs_total",
                &labels,
                "matrix cells pulled from the work-stealing queue",
            ),
            busy: registry.gauge_with(
                "lad_pool_workers_busy",
                &labels,
                "workers currently executing a cell",
            ),
        }
    }
}

/// One queued matrix cell: simulates it and sends its report back.
type Job = Box<dyn FnOnce() + Send>;

/// The worker threads of [`ExperimentRunner::run_matrix`], idle between
/// calls until the runner and its clones drop their queue.  A kept worker
/// keeps its glibc malloc arena and reuses the pages freed there.  Threads
/// spawned per call take whichever arena is free, or open a fresh one while
/// other threads hold the free ones, and their simulators then sit on new
/// pages beside the old arenas' retained ones: on a 2-vCPU VM the same
/// repeated 64-core matrix peaked at 42 MiB in one process, 56 in the next.
#[derive(Debug)]
struct WorkerPool {
    queue: mpsc::Sender<Job>,
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: Mutex<usize>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        let (queue, jobs) = mpsc::channel();
        WorkerPool {
            queue,
            jobs: Arc::new(Mutex::new(jobs)),
            workers: Mutex::new(0),
        }
    }
}

impl WorkerPool {
    /// Starts workers until `count` are running.
    fn grow_to(&self, count: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for _ in *workers..count {
            let jobs = Arc::clone(&self.jobs);
            // Each idle worker takes the next queued cell, releasing the
            // queue before it runs; it ends when the queue closes.
            std::thread::spawn(move || loop {
                let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok(job) = next else { return };
                job();
            });
        }
        *workers = count.max(*workers);
    }
}

/// Why a file-backed replay failed: the scheme was never registered or the
/// trace could not be streamed.
#[derive(Debug)]
pub enum ReplayError {
    /// The requested scheme is not in the runner's registry.
    UnknownScheme(UnknownScheme),
    /// The trace file could not be opened or decoded.
    Trace(TraceError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownScheme(err) => write!(f, "{err}"),
            ReplayError::Trace(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::UnknownScheme(err) => Some(err),
            ReplayError::Trace(err) => Some(err),
        }
    }
}

impl From<UnknownScheme> for ReplayError {
    fn from(err: UnknownScheme) -> Self {
        ReplayError::UnknownScheme(err)
    }
}

impl From<TraceError> for ReplayError {
    fn from(err: TraceError) -> Self {
        ReplayError::Trace(err)
    }
}

/// Runs simulations for a benchmark suite, optionally in parallel.
///
/// The runner resolves schemes through its [`SchemeRegistry`] (the built-in
/// registry by default), so custom policies registered with
/// [`ExperimentRunner::register_scheme`] are swept exactly like the paper's
/// schemes.  Clones share the runner's worker threads.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    system: SystemConfig,
    suite: BenchmarkSuite,
    threads: usize,
    registry: SchemeRegistry,
    pool: Arc<WorkerPool>,
}

impl ExperimentRunner {
    /// Creates a runner for one system configuration and benchmark suite,
    /// with the built-in scheme registry.
    ///
    /// Worker-thread count follows the workspace-wide selection rule
    /// ([`lad_common::workers::worker_count`]): the `LAD_THREADS`
    /// environment variable if set, the machine's parallelism otherwise;
    /// [`ExperimentRunner::with_threads`] overrides both.
    pub fn new(system: SystemConfig, suite: BenchmarkSuite) -> Self {
        ExperimentRunner {
            system,
            suite,
            threads: lad_common::workers::worker_count(None),
            registry: SchemeRegistry::builtin(),
            pool: Arc::default(),
        }
    }

    /// Limits the number of worker threads (builder style).  The runner
    /// gets workers of its own, not shared with the runner it came from.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.pool = Arc::default();
        self
    }

    /// Registers a (typically out-of-crate) policy so the runner can sweep
    /// it by its [`SchemeId`].  `config` supplies the engine knobs the
    /// policy runs with; any previous entry under the same id is replaced.
    pub fn register_scheme(
        &mut self,
        policy: Arc<dyn ReplicationPolicy>,
        config: ReplicationConfig,
    ) {
        self.registry.register(policy, config);
    }

    /// The benchmark suite being run.
    pub fn suite(&self) -> &BenchmarkSuite {
        &self.suite
    }

    /// Number of worker threads a matrix of `job_count` cells needs: the
    /// configured thread count clamped so no worker is spawned just to find
    /// the job queue already empty, and at least one worker even for an
    /// empty matrix.  Workers an earlier, larger matrix started are kept.
    fn worker_threads(&self, job_count: usize) -> usize {
        self.threads.min(job_count).max(1)
    }

    /// Runs one benchmark under one ad-hoc configuration (bypassing the
    /// registry), using the built-in policy of `config.scheme`.
    ///
    /// # Panics
    ///
    /// As [`Simulator::new`]: when `config.scheme` has no built-in policy.
    pub fn run_one(&self, benchmark: Benchmark, config: &ReplicationConfig) -> SimulationReport {
        let trace = self.suite.trace_for(benchmark, self.system.num_cores);
        let mut sim = Simulator::new(self.system.clone(), config.clone());
        sim.run(&trace)
    }

    /// Runs one benchmark under one registered scheme.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when `scheme` is not in the registry.
    pub fn run_scheme(
        &self,
        benchmark: Benchmark,
        scheme: SchemeId,
    ) -> Result<SimulationReport, UnknownScheme> {
        let entry = self.registry.get(scheme)?;
        Ok(self.run_registered(benchmark, entry))
    }

    fn run_registered(&self, benchmark: Benchmark, scheme: &RegisteredScheme) -> SimulationReport {
        let trace = self.suite.trace_for(benchmark, self.system.num_cores);
        let mut sim = Simulator::with_policy_and_energy_model(
            self.system.clone(),
            scheme.config.clone(),
            Arc::clone(&scheme.policy),
            EnergyModel::paper_default(),
        );
        sim.run(&trace)
    }

    /// Replays any [`TraceSource`] (a recorded `.ladt` file, an external
    /// imported trace, ...) under one registered scheme.  The suite's
    /// generation parameters are bypassed entirely: the trace *is* the
    /// workload.
    ///
    /// # Errors
    ///
    /// [`ReplayError::UnknownScheme`] when `scheme` is not registered, or
    /// [`ReplayError::Trace`] when the source fails to stream.
    pub fn replay_source(
        &self,
        source: &mut dyn TraceSource,
        scheme: SchemeId,
    ) -> Result<SimulationReport, ReplayError> {
        let entry = self.registry.get(scheme)?;
        let mut sim = Simulator::with_policy_and_energy_model(
            self.system.clone(),
            entry.config.clone(),
            Arc::clone(&entry.policy),
            EnergyModel::paper_default(),
        );
        Ok(sim.run_source(source)?)
    }

    /// Replays one recorded `.ladt` trace file under one registered scheme.
    ///
    /// # Errors
    ///
    /// Like [`ExperimentRunner::replay_source`], plus file-open failures.
    pub fn replay_file(
        &self,
        path: impl AsRef<Path>,
        scheme: SchemeId,
    ) -> Result<SimulationReport, ReplayError> {
        // Resolve the scheme before touching the file so an unregistered
        // scheme fails fast with the right error even for a missing path.
        self.registry.get(scheme)?;
        let mut source = FileSource::open(path)?;
        self.replay_source(&mut source, scheme)
    }

    /// Runs every benchmark of the suite under every requested scheme, in
    /// parallel across the runner's worker threads, and returns (or resumes
    /// the first panic a cell raised) once every cell has run.  Results are
    /// keyed by `(benchmark, scheme id)`.
    ///
    /// # Errors
    ///
    /// Fails fast with [`UnknownScheme`] (before simulating anything) if any
    /// requested scheme is not registered.
    pub fn run_matrix(
        &self,
        schemes: &[SchemeId],
    ) -> Result<BTreeMap<(Benchmark, SchemeId), SimulationReport>, UnknownScheme> {
        let resolved: Vec<(SchemeId, &RegisteredScheme)> = schemes
            .iter()
            .map(|&id| Ok((id, self.registry.get(id)?)))
            .collect::<Result<_, UnknownScheme>>()?;
        let jobs: Vec<(Benchmark, SchemeId, &RegisteredScheme)> = self
            .suite
            .benchmarks()
            .iter()
            .flat_map(|b| resolved.iter().map(move |(id, entry)| (*b, *id, *entry)))
            .collect();

        // Work stealing: every idle worker takes the next queued cell
        // instead of owning a pre-cut chunk, so an expensive
        // (benchmark, scheme) cell never strands the rest of a chunk
        // behind it.  Each cell is keyed by `(benchmark, scheme)` and every
        // simulation is deterministic, so the BTreeMap is byte-identical
        // however the jobs land on workers.
        self.pool.grow_to(self.worker_threads(jobs.len()));
        let runner = Arc::new(self.clone());
        let obs = PoolMetrics::resolve();
        let pool_started = Instant::now();
        let (done, finished) = mpsc::channel();
        for (benchmark, id, entry) in jobs {
            let (runner, obs, done) = (Arc::clone(&runner), obs.clone(), done.clone());
            let entry = entry.clone();
            let cell = move || {
                obs.queue_wait.record_duration(pool_started.elapsed());
                obs.jobs.inc();
                obs.busy.inc();
                let cell_started = Instant::now();
                let report = panic::catch_unwind(AssertUnwindSafe(|| {
                    runner.run_registered(benchmark, &entry)
                }));
                obs.exec.record_duration(cell_started.elapsed());
                obs.busy.dec();
                // The receiver below waits for every cell.
                let _ = done.send(((benchmark, id), report));
            };
            // The pool's workers hold the receiver while the pool lives.
            let _ = self.pool.queue.send(Box::new(cell));
        }
        drop(done);
        // Complete once the last cell has dropped its sender.
        let finished: Vec<_> = finished.iter().collect();
        let mut results = BTreeMap::new();
        for (key, report) in finished {
            let report = report.unwrap_or_else(|payload| panic::resume_unwind(payload));
            results.insert(key, report);
        }
        Ok(results)
    }

    /// The scheme ids of the paper's standard sweep, [`SchemeId::BUILTIN`]:
    /// the three baselines, RT-1, RT-3, RT-8, then ASR at each of its five
    /// replication levels.
    pub fn paper_sweep() -> Vec<SchemeId> {
        SchemeId::BUILTIN.to_vec()
    }

    /// Runs the paper's standard seven-configuration comparison
    /// (S-NUCA, R-NUCA, VR, ASR at its best level, RT-1, RT-3, RT-8) for the
    /// whole suite.
    ///
    /// # Panics
    ///
    /// Never in practice: the runner's registry starts from
    /// [`SchemeRegistry::builtin`] and
    /// [`ExperimentRunner::register_scheme`] only adds or replaces entries,
    /// so every scheme of the sweep resolves.
    pub fn run_paper_comparison(&self) -> SchemeComparison {
        let results = match self.run_matrix(&Self::paper_sweep()) {
            Ok(results) => results,
            Err(error) => panic!("the built-in paper sweep is always registered: {error}"),
        };
        SchemeComparison::from_results(self.suite.benchmarks().to_vec(), results)
    }
}

/// The normalized cross-scheme comparison of Figures 6–8.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    benchmarks: Vec<Benchmark>,
    /// Reports keyed by `(benchmark, scheme id)`, with the ASR level sweep
    /// already collapsed to its best level per benchmark under
    /// [`SchemeId::Asr`].
    reports: BTreeMap<(Benchmark, SchemeId), SimulationReport>,
}

impl SchemeComparison {
    /// The scheme columns of the paper's figures, in plotting order.
    pub const SCHEME_ORDER: [SchemeId; 7] = [
        SchemeId::StaticNuca,
        SchemeId::ReactiveNuca,
        SchemeId::VictimReplication,
        SchemeId::Asr,
        SchemeId::Rt(1),
        SchemeId::Rt(3),
        SchemeId::Rt(8),
    ];

    /// Builds the comparison from a raw result matrix, selecting ASR's best
    /// replication level per benchmark by energy-delay product (the paper's
    /// methodology, Section 3.3): every [`SchemeId::AsrAt`] entry competes
    /// for the collapsed [`SchemeId::Asr`] column.
    pub fn from_results(
        benchmarks: Vec<Benchmark>,
        results: BTreeMap<(Benchmark, SchemeId), SimulationReport>,
    ) -> Self {
        let mut reports: BTreeMap<(Benchmark, SchemeId), SimulationReport> = BTreeMap::new();
        for ((benchmark, id), report) in results {
            if let SchemeId::AsrAt(_) = id {
                let key = (benchmark, SchemeId::Asr);
                let better = match reports.get(&key) {
                    None => true,
                    Some(existing) => {
                        report.energy_delay_product() < existing.energy_delay_product()
                    }
                };
                if better {
                    reports.insert(key, report);
                }
            } else {
                reports.insert((benchmark, id), report);
            }
        }
        SchemeComparison {
            benchmarks,
            reports,
        }
    }

    /// The benchmarks included.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// The scheme columns present for at least one benchmark, in
    /// [`SchemeId`] order.
    pub fn schemes(&self) -> Vec<SchemeId> {
        let mut ids: Vec<SchemeId> = self.reports.keys().map(|(_, id)| *id).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The report for one benchmark under one scheme.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when that cell of the matrix was never run.
    pub fn report(
        &self,
        benchmark: Benchmark,
        scheme: SchemeId,
    ) -> Result<&SimulationReport, UnknownScheme> {
        self.reports
            .get(&(benchmark, scheme))
            .ok_or_else(|| UnknownScheme::new(scheme, benchmark.label()))
    }

    /// Energy of `scheme` normalized to the `baseline` scheme for one
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when either report is missing — a missing
    /// baseline is an experiment bug, not a 1.0.
    pub fn normalized_energy(
        &self,
        benchmark: Benchmark,
        scheme: SchemeId,
        baseline: SchemeId,
    ) -> Result<f64, UnknownScheme> {
        let s = self.report(benchmark, scheme)?;
        let b = self.report(benchmark, baseline)?;
        Ok(normalized(s.energy.total(), b.energy.total()))
    }

    /// Completion time of `scheme` normalized to `baseline` for one
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when either report is missing.
    pub fn normalized_completion_time(
        &self,
        benchmark: Benchmark,
        scheme: SchemeId,
        baseline: SchemeId,
    ) -> Result<f64, UnknownScheme> {
        let s = self.report(benchmark, scheme)?;
        let b = self.report(benchmark, baseline)?;
        Ok(normalized(
            s.completion_time.value() as f64,
            b.completion_time.value() as f64,
        ))
    }

    fn normalized_over_benchmarks(
        &self,
        scheme: SchemeId,
        baseline: SchemeId,
        metric: impl Fn(&Self, Benchmark, SchemeId, SchemeId) -> Result<f64, UnknownScheme>,
    ) -> Result<Vec<f64>, UnknownScheme> {
        self.benchmarks
            .iter()
            .map(|b| metric(self, *b, scheme, baseline))
            .collect()
    }

    /// Arithmetic mean (over benchmarks) of the normalized energy of a
    /// scheme — the "Average" bar of Figure 6.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when any benchmark is missing either
    /// report.
    pub fn average_normalized_energy(
        &self,
        scheme: SchemeId,
        baseline: SchemeId,
    ) -> Result<f64, UnknownScheme> {
        let values = self.normalized_over_benchmarks(scheme, baseline, Self::normalized_energy)?;
        Ok(mean(&values).unwrap_or(1.0))
    }

    /// Arithmetic mean (over benchmarks) of the normalized completion time —
    /// the "Average" bar of Figure 7.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when any benchmark is missing either
    /// report.
    pub fn average_normalized_completion_time(
        &self,
        scheme: SchemeId,
        baseline: SchemeId,
    ) -> Result<f64, UnknownScheme> {
        let values =
            self.normalized_over_benchmarks(scheme, baseline, Self::normalized_completion_time)?;
        Ok(mean(&values).unwrap_or(1.0))
    }

    /// The headline result of the paper: the percentage reduction in energy
    /// and completion time of `scheme` relative to `baseline`, averaged
    /// over benchmarks.  Returns `(energy_reduction_pct, time_reduction_pct)`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when any benchmark is missing either
    /// report.
    pub fn reduction_vs(
        &self,
        scheme: SchemeId,
        baseline: SchemeId,
    ) -> Result<(f64, f64), UnknownScheme> {
        let energy = self.average_normalized_energy(scheme, baseline)?;
        let time = self.average_normalized_completion_time(scheme, baseline)?;
        Ok(((1.0 - energy) * 100.0, (1.0 - time) * 100.0))
    }

    /// The whole comparison as a JSON object (benchmarks plus one entry per
    /// matrix cell).  Round-trips through [`SchemeComparison::from_json`].
    pub fn to_json(&self) -> JsonValue {
        let benchmarks: Vec<JsonValue> = self
            .benchmarks
            .iter()
            .map(|b| JsonValue::from(b.label()))
            .collect();
        let entries: Vec<JsonValue> = self
            .reports
            .iter()
            .map(|((benchmark, scheme), report)| {
                JsonValue::object([
                    ("benchmark", JsonValue::from(benchmark.label())),
                    ("scheme", JsonValue::from(scheme.label())),
                    ("report", report.to_json()),
                ])
            })
            .collect();
        JsonValue::object([
            ("benchmarks", JsonValue::Array(benchmarks)),
            ("entries", JsonValue::Array(entries)),
        ])
    }

    /// Rebuilds a comparison from [`SchemeComparison::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry or unknown
    /// benchmark label.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let benchmark_for = |label: &str| {
            Benchmark::ALL
                .iter()
                .copied()
                .find(|b| b.label() == label)
                .ok_or_else(|| format!("unknown benchmark {label:?}"))
        };
        let benchmarks = value
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .ok_or("comparison is missing the benchmark list")?
            .iter()
            .map(|b| {
                b.as_str()
                    .ok_or_else(|| "benchmark labels must be strings".to_string())
                    .and_then(benchmark_for)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut reports = BTreeMap::new();
        for entry in value
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("comparison is missing the entry list")?
        {
            let benchmark = benchmark_for(
                entry
                    .get("benchmark")
                    .and_then(JsonValue::as_str)
                    .ok_or("comparison entry is missing its benchmark")?,
            )?;
            let scheme = SchemeId::parse(
                entry
                    .get("scheme")
                    .and_then(JsonValue::as_str)
                    .ok_or("comparison entry is missing its scheme")?,
            );
            let report = SimulationReport::from_json(
                entry
                    .get("report")
                    .ok_or("comparison entry is missing its report")?,
            )?;
            reports.insert((benchmark, scheme), report);
        }
        Ok(SchemeComparison {
            benchmarks,
            reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LatencyBreakdown, MissBreakdown, RunLengthProfile};
    use lad_common::types::Cycle;
    use lad_energy::accounting::{Component, EnergyAccounting};

    fn fake_report(benchmark: &str, scheme: SchemeId, energy: f64, time: u64) -> SimulationReport {
        let mut acc = EnergyAccounting::new();
        acc.record(Component::L2Cache, energy);
        SimulationReport {
            benchmark: benchmark.to_string(),
            scheme: scheme.label(),
            scheme_id: scheme,
            completion_time: Cycle::new(time),
            latency: LatencyBreakdown::default(),
            misses: MissBreakdown::default(),
            energy: acc,
            run_lengths: RunLengthProfile::new(),
            total_accesses: 1,
            replicas_created: 0,
            back_invalidations: 0,
            classifier: crate::metrics::ClassifierStats::default(),
        }
    }

    #[test]
    fn comparison_normalizes_and_averages() {
        let mut results = BTreeMap::new();
        let benchmarks = vec![Benchmark::Barnes, Benchmark::Dedup];
        for b in &benchmarks {
            results.insert(
                (*b, SchemeId::StaticNuca),
                fake_report(b.label(), SchemeId::StaticNuca, 100.0, 1000),
            );
            results.insert(
                (*b, SchemeId::Rt(3)),
                fake_report(b.label(), SchemeId::Rt(3), 80.0, 900),
            );
        }
        let cmp = SchemeComparison::from_results(benchmarks, results);
        let rt3 = SchemeId::Rt(3);
        let snuca = SchemeId::StaticNuca;
        assert!(
            (cmp.normalized_energy(Benchmark::Barnes, rt3, snuca)
                .unwrap()
                - 0.8)
                .abs()
                < 1e-12
        );
        assert!((cmp.average_normalized_energy(rt3, snuca).unwrap() - 0.8).abs() < 1e-12);
        assert!((cmp.average_normalized_completion_time(rt3, snuca).unwrap() - 0.9).abs() < 1e-12);
        let (e_red, t_red) = cmp.reduction_vs(rt3, snuca).unwrap();
        assert!((e_red - 20.0).abs() < 1e-9);
        assert!((t_red - 10.0).abs() < 1e-9);
        assert_eq!(cmp.schemes(), vec![snuca, rt3]);
    }

    #[test]
    fn missing_scheme_lookups_are_typed_errors_not_nan() {
        // Regression: the old string-keyed API silently produced 1.0 / NaN
        // when a scheme or the baseline was missing from the matrix.
        let mut results = BTreeMap::new();
        results.insert(
            (Benchmark::Barnes, SchemeId::StaticNuca),
            fake_report("BARNES", SchemeId::StaticNuca, 100.0, 1000),
        );
        let cmp = SchemeComparison::from_results(vec![Benchmark::Barnes], results);

        // Missing scheme.
        let err = cmp
            .normalized_energy(
                Benchmark::Barnes,
                SchemeId::VictimReplication,
                SchemeId::StaticNuca,
            )
            .unwrap_err();
        assert_eq!(err.scheme, SchemeId::VictimReplication);
        assert_eq!(err.context, "BARNES");

        // Missing baseline.
        let err = cmp
            .normalized_completion_time(Benchmark::Barnes, SchemeId::StaticNuca, SchemeId::Rt(3))
            .unwrap_err();
        assert_eq!(err.scheme, SchemeId::Rt(3));

        // Aggregates propagate the error.
        assert!(cmp
            .average_normalized_energy(SchemeId::Rt(3), SchemeId::StaticNuca)
            .is_err());
        assert!(cmp
            .reduction_vs(SchemeId::Rt(3), SchemeId::StaticNuca)
            .is_err());
        assert!(cmp.report(Benchmark::Barnes, SchemeId::Asr).is_err());
        // The error is displayable for operators.
        let err = cmp.report(Benchmark::Barnes, SchemeId::Asr).unwrap_err();
        assert_eq!(err.to_string(), "unknown scheme ASR (BARNES)");
    }

    #[test]
    fn asr_collapses_to_best_energy_delay_product() {
        let mut results = BTreeMap::new();
        let benchmarks = vec![Benchmark::Barnes];
        results.insert(
            (Benchmark::Barnes, SchemeId::AsrAt(0)),
            fake_report("BARNES", SchemeId::AsrAt(0), 100.0, 1000),
        );
        results.insert(
            (Benchmark::Barnes, SchemeId::AsrAt(50)),
            fake_report("BARNES", SchemeId::AsrAt(50), 50.0, 900),
        );
        results.insert(
            (Benchmark::Barnes, SchemeId::AsrAt(100)),
            fake_report("BARNES", SchemeId::AsrAt(100), 120.0, 800),
        );
        let cmp = SchemeComparison::from_results(benchmarks, results);
        let chosen = cmp
            .report(Benchmark::Barnes, SchemeId::Asr)
            .expect("ASR entry exists");
        assert_eq!(chosen.scheme, "ASR-0.50");
        assert_eq!(chosen.scheme_id, SchemeId::AsrAt(50));
        assert_eq!(SchemeComparison::SCHEME_ORDER.len(), 7);
    }

    #[test]
    fn runner_executes_matrix_in_parallel() {
        let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup, Benchmark::Barnes], 150, 1);
        let runner = ExperimentRunner::new(SystemConfig::small_test(), suite).with_threads(2);
        let schemes = [SchemeId::StaticNuca, SchemeId::Rt(3)];
        let results = runner.run_matrix(&schemes).unwrap();
        assert_eq!(results.len(), 4);
        for ((_, id), report) in &results {
            assert!(report.total_accesses > 0, "{id} must simulate accesses");
            assert_eq!(report.scheme_id, *id);
        }
        // A single run agrees with the matrix entry (determinism), whether
        // it goes through the registry or an ad-hoc config.
        let single = runner
            .run_scheme(Benchmark::Dedup, SchemeId::StaticNuca)
            .unwrap();
        let from_matrix = &results[&(Benchmark::Dedup, SchemeId::StaticNuca)];
        assert_eq!(single.completion_time, from_matrix.completion_time);
        let adhoc = runner.run_one(Benchmark::Dedup, &ReplicationConfig::static_nuca());
        assert_eq!(adhoc.completion_time, from_matrix.completion_time);
    }

    #[test]
    fn worker_threads_are_clamped_by_job_count() {
        let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup], 50, 1);
        let runner = ExperimentRunner::new(SystemConfig::small_test(), suite);

        // More threads than jobs: spawn one worker per job, never more.
        assert_eq!(runner.clone().with_threads(64).worker_threads(3), 3);
        // Fewer threads than jobs: the configured count wins.
        assert_eq!(runner.clone().with_threads(2).worker_threads(22), 2);
        // Degenerate inputs still spawn exactly one worker.
        assert_eq!(runner.clone().with_threads(8).worker_threads(0), 1);
        assert_eq!(runner.clone().with_threads(0).worker_threads(5), 1);

        // And an over-threaded runner still produces a correct matrix.
        let results = runner
            .with_threads(64)
            .run_matrix(&[SchemeId::StaticNuca, SchemeId::Rt(3)])
            .unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn parallel_matrix_is_byte_identical_to_sequential() {
        // The work-stealing matrix must be a pure scheduling change: for
        // every scheme column of the paper's figures (ASR via its level
        // sweep), threads=1, an uneven thread count and more-threads-than-
        // jobs must all produce byte-identical reports.
        let suite = BenchmarkSuite::custom(vec![Benchmark::Barnes, Benchmark::Dedup], 120, 3);
        let runner = ExperimentRunner::new(SystemConfig::small_test(), suite);
        let sweep = ExperimentRunner::paper_sweep();

        let sequential = runner.clone().with_threads(1).run_matrix(&sweep).unwrap();
        for threads in [3, 64] {
            let parallel = runner
                .clone()
                .with_threads(threads)
                .run_matrix(&sweep)
                .unwrap();
            assert_eq!(
                format!("{sequential:?}"),
                format!("{parallel:?}"),
                "threads={threads} must not change any report"
            );
        }

        // Every SCHEME_ORDER column is present after the ASR collapse, and
        // the collapsed comparisons agree too.
        let cmp = SchemeComparison::from_results(
            runner.suite().benchmarks().to_vec(),
            sequential.clone(),
        );
        for scheme in SchemeComparison::SCHEME_ORDER {
            for benchmark in [Benchmark::Barnes, Benchmark::Dedup] {
                assert!(
                    cmp.report(benchmark, scheme).is_ok(),
                    "{scheme} missing from the sequential sweep"
                );
            }
        }
    }

    #[test]
    fn file_backed_replay_matches_the_in_memory_matrix() {
        let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup, Benchmark::Barnes], 120, 5);
        let runner =
            ExperimentRunner::new(SystemConfig::small_test(), suite.clone()).with_threads(2);
        let schemes = [SchemeId::StaticNuca, SchemeId::Rt(3)];
        let in_memory = runner.run_matrix(&schemes).unwrap();

        let dir = std::env::temp_dir().join(format!("ladt-replay-test-{}", std::process::id()));
        let recorded =
            lad_traceio::suite::record_suite(&suite, SystemConfig::small_test().num_cores, &dir)
                .unwrap();
        // Every recorded file under every scheme replays to exactly its
        // in-memory matrix cell.
        assert_eq!(recorded.len(), suite.benchmarks().len());
        for trace in &recorded {
            for scheme in schemes {
                let from_file = runner.replay_file(&trace.path, scheme).unwrap();
                let (_, report) = in_memory
                    .iter()
                    .find(|((benchmark, id), _)| {
                        benchmark.label() == trace.benchmark && *id == scheme
                    })
                    .expect("every recorded benchmark has an in-memory cell");
                assert_eq!(format!("{report:?}"), format!("{from_file:?}"));
            }
        }

        // Unknown schemes fail fast even for nonexistent paths.
        assert!(matches!(
            runner.replay_file("/nonexistent.ladt", SchemeId::Custom("NOPE")),
            Err(ReplayError::UnknownScheme(_))
        ));
        assert!(matches!(
            runner.replay_file(dir.join("missing.ladt"), SchemeId::StaticNuca),
            Err(ReplayError::Trace(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_matrix_fails_fast_on_unregistered_schemes() {
        let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup], 100, 1);
        let runner = ExperimentRunner::new(SystemConfig::small_test(), suite);
        let err = runner
            .run_matrix(&[SchemeId::StaticNuca, SchemeId::Custom("NOPE")])
            .unwrap_err();
        assert_eq!(err.scheme, SchemeId::Custom("NOPE"));
        assert!(runner
            .run_scheme(Benchmark::Dedup, SchemeId::Custom("NOPE"))
            .is_err());
    }

    #[test]
    fn paper_sweep_contains_every_figure_column() {
        // The order is the order `run_matrix` queues cells in; the list's
        // labels are pinned in `lad_replication`'s scheme tests.
        assert_eq!(ExperimentRunner::paper_sweep(), SchemeId::BUILTIN);
        let registry = SchemeRegistry::builtin();
        for id in ExperimentRunner::paper_sweep() {
            assert!(
                registry.get(id).is_ok(),
                "{id} missing from the built-in registry"
            );
        }
    }

    #[test]
    fn comparison_json_roundtrips() {
        let mut results = BTreeMap::new();
        let benchmarks = vec![Benchmark::Barnes, Benchmark::Dedup];
        for b in &benchmarks {
            for (id, energy, time) in [
                (SchemeId::StaticNuca, 100.0, 1000),
                (SchemeId::AsrAt(25), 90.0, 950),
                (SchemeId::AsrAt(75), 85.0, 940),
                (SchemeId::Rt(3), 80.0, 900),
            ] {
                results.insert((*b, id), fake_report(b.label(), id, energy, time));
            }
        }
        let cmp = SchemeComparison::from_results(benchmarks, results);
        let json = cmp.to_json();
        let text = json.pretty();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, json);
        let decoded = SchemeComparison::from_json(&reparsed).unwrap();
        assert_eq!(decoded.benchmarks(), cmp.benchmarks());
        assert_eq!(decoded.to_json(), json);
        assert!(
            (decoded
                .normalized_energy(Benchmark::Barnes, SchemeId::Rt(3), SchemeId::StaticNuca)
                .unwrap()
                - 0.8)
                .abs()
                < 1e-12
        );
        // The collapsed ASR column survived the round trip.
        assert_eq!(
            decoded
                .report(Benchmark::Dedup, SchemeId::Asr)
                .unwrap()
                .scheme_id,
            SchemeId::AsrAt(75)
        );
    }
}
