//! `service-cold-64c` and `service-cached-64c`: an in-process `lad-serve`
//! server (`Server::spawn`, the daemon's own entry point) at its default
//! `ServerConfig` with two workers, driven over loopback TCP by one
//! closed-loop `lad_serve::Client` on one connection.
//!
//! A job is builtin BARNES at 64 cores × 1 000 accesses per core under
//! S-NUCA and RT-3, so its two cells run on the two workers.  (At 2 500
//! accesses per core a cold job takes 2.4–3.4 s on a 2-vCPU Xeon VM, too
//! few jobs per run for a steady median.)
//!
//! * Cold: every job has a fresh seed, so the server simulates both cells,
//!   spilling a checkpoint every 10 000 accesses — the write-heavy path.
//! * Cached: the same job is resubmitted and answered from the result cache
//!   — the read-only path (cache lookup, frames, JSON).  The job set-up
//!   runs fills the cache.  The server never forgets a job, so every
//!   [`ROUND`] resubmissions it is restarted over the same data directory,
//!   which keeps memory bounded and also exercises the durable cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lad_common::config::SystemConfig;
use lad_common::fault::{FaultInjector, FaultSite};
use lad_common::json::JsonValue;
use lad_energy::model::EnergyModel;
use lad_obs::MetricsRegistry;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_serve::{
    durable, CacheKey, Client, JobSpec, ResultCache, Server, ServerConfig, SystemPreset, TraceSpec,
};
use lad_sim::{
    EngineCheckpoint, RunControl, RunObserver, RunOutcome, RunProgress, SimulationReport, Simulator,
};
use lad_trace::{Benchmark, TraceGenerator};
use lad_traceio::{GeneratorSource, MemorySource};

use crate::host::HostClock;
use crate::metrics::{
    end_to_end, mean, median, percentile, ratio, set_model, set_sim_layers, set_tracing,
    timed_setup, Budget, Jobs, MetricSet, Tally,
};
use crate::stepper::{self, LayerTimes};
use crate::{Args, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Cached,
}

const SETUP_REPS: usize = 3;
const WORKERS: usize = 2;
/// Status polling period: under 1% of a cold job, so polling adds little
/// quantisation to its latency.
const POLL: Duration = Duration::from_millis(5);
const SCHEMES: [SchemeId; 2] = [SchemeId::StaticNuca, SchemeId::Rt(3)];
/// Resubmissions one server answers before the cached workload restarts it.
const ROUND: usize = 1_000;
/// Timed `ResultCache::lookup` calls per cell in the traced cache probe.
const LOOKUPS: usize = 200;

#[derive(Debug, Clone, Copy)]
struct Scale {
    cores: usize,
    per_core: usize,
}

/// A server and its one client connection.  The client is declared first
/// so it is dropped first: the server's drain joins the connection's
/// handler thread, which ends only once the client hangs up.
struct Service {
    client: Client,
    _server: Server,
}

fn start(dir: &Path) -> Result<Service, String> {
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::new(dir)
    };
    let server = Server::spawn(config).map_err(|err| format!("spawn: {err}"))?;
    let mut client =
        Client::connect(server.addr().to_string()).map_err(|err| format!("connect: {err}"))?;
    client.health().map_err(|err| format!("health: {err}"))?;
    Ok(Service {
        client,
        _server: server,
    })
}

fn job_spec(scale: Scale, seed: u64) -> JobSpec {
    JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: Benchmark::Barnes.label().to_string(),
            cores: scale.cores,
            accesses_per_core: scale.per_core,
            seed,
        },
        schemes: SCHEMES.iter().map(|scheme| scheme.label()).collect(),
        system: SystemPreset::Paper,
    }
}

/// One closed-loop job as the client saw it.
struct Job {
    secs: f64,
    submit_s: f64,
    status_s: f64,
    result_s: f64,
    polls: u64,
    submit: JsonValue,
    result: JsonValue,
}

/// Submits, polls `status` until the job leaves `running`, and fetches
/// `result` (parsed by the client).
fn closed_loop(client: &mut Client, spec: &JobSpec) -> Result<Job, String> {
    let started = Instant::now();
    let submit = client
        .submit(spec)
        .map_err(|err| format!("submit: {err}"))?;
    let submit_s = started.elapsed().as_secs_f64();
    let job = submit
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or("submit reply has no job id")?
        .to_string();
    let (mut polls, mut status_s) = (0, 0.0);
    loop {
        let polled = Instant::now();
        let status = client
            .status(&job)
            .map_err(|err| format!("status: {err}"))?;
        status_s += polled.elapsed().as_secs_f64();
        polls += 1;
        if status.get("state").and_then(JsonValue::as_str) != Some("running") {
            break;
        }
        std::thread::sleep(POLL);
    }
    let fetched = Instant::now();
    let result = client
        .result(&job)
        .map_err(|err| format!("result: {err}"))?;
    let result_s = fetched.elapsed().as_secs_f64();
    Ok(Job {
        secs: started.elapsed().as_secs_f64(),
        submit_s,
        status_s,
        result_s,
        polls,
        submit,
        result,
    })
}

/// The constructor of one cell's simulator, built as the server builds it.
fn sim_for(system: &SystemConfig, scheme: SchemeId) -> Result<impl Fn() -> Simulator + '_, String> {
    let entry = SchemeRegistry::builtin()
        .get(scheme)
        .map_err(|err| err.to_string())?
        .clone();
    Ok(move || {
        Simulator::with_policy_and_energy_model(
            system.clone(),
            entry.config.clone(),
            Arc::clone(&entry.policy),
            EnergyModel::paper_default(),
        )
    })
}

fn barnes_source(scale: Scale, seed: u64) -> GeneratorSource {
    GeneratorSource::new(
        TraceGenerator::new(Benchmark::Barnes.profile()),
        scale.cores,
        scale.per_core,
        seed,
    )
}

/// The reports a job must return: a direct run of each of its cells, one
/// thread per scheme.  Traced, the trace is generated once and each cell
/// replays it through the traced loop.
fn direct_reports(
    scale: Scale,
    seed: u64,
    times: Option<&mut LayerTimes>,
) -> Result<Vec<SimulationReport>, String> {
    let system = SystemConfig::paper_default().with_num_cores(scale.cores);
    let system = &system;
    match times {
        None => std::thread::scope(|scope| {
            let handles: Vec<_> = SCHEMES
                .iter()
                .map(|&scheme| {
                    scope.spawn(move || {
                        sim_for(system, scheme)?()
                            .run_source(&mut barnes_source(scale, seed))
                            .map_err(|err| err.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        }),
        Some(times) => {
            let started = Instant::now();
            let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(
                scale.cores,
                scale.per_core,
                seed,
            );
            times.generate_ns += started.elapsed().as_nanos() as u64;
            times.generated += trace.total_accesses() as u64;
            let trace = &trace;
            std::thread::scope(|scope| {
                let handles: Vec<_> = SCHEMES
                    .iter()
                    .map(|&scheme| {
                        scope.spawn(move || {
                            let new_sim = sim_for(system, scheme)?;
                            let mut times = LayerTimes::default();
                            let (report, _) = stepper::replay(
                                &new_sim,
                                &mut MemorySource::new(trace),
                                &mut times,
                            )
                            .map_err(|err| err.to_string())?;
                            Ok::<_, String>((report, times))
                        })
                    })
                    .collect();
                let mut reports = Vec::new();
                for handle in handles {
                    let (report, cell_times) = handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
                    times.merge(&cell_times);
                    reports.push(report);
                }
                Ok(reports)
            })
        }
    }
}

/// Checks one job's answer — `cached` cells as expected and every report
/// byte-identical to the direct run — and returns the simulated accesses it
/// delivered.
fn check_job(tally: &mut Tally, job: &Job, expected: &[String], cached: usize) -> u64 {
    let results = job
        .result
        .get("results")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    let reports: Vec<String> = results
        .iter()
        .filter_map(|cell| cell.get("report").map(JsonValue::to_string))
        .collect();
    let cached_cells = job.submit.get("cached").and_then(JsonValue::as_u64);
    tally.record(cached_cells == Some(cached as u64), || {
        format!("job reported {cached_cells:?} cached cells, expected {cached}")
    });
    tally.record(reports == expected, || {
        "a service result differs from the direct run of its spec".to_string()
    });
    results
        .iter()
        .filter_map(|cell| cell.get("report")?.get("total_accesses")?.as_u64())
        .sum()
}

fn to_strings(reports: &[SimulationReport]) -> Vec<String> {
    reports
        .iter()
        .map(|report| report.to_json().to_string())
        .collect()
}

/// The server's metric samples, scraped through the public `metrics` verb.
fn scrape(client: &mut Client) -> Result<Vec<JsonValue>, String> {
    let reply = client.metrics().map_err(|err| format!("metrics: {err}"))?;
    reply
        .get("metrics")
        .and_then(|metrics| metrics.get("metrics"))
        .and_then(JsonValue::as_array)
        .map(<[_]>::to_vec)
        .ok_or_else(|| "metrics reply has no samples".to_string())
}

/// Field `key` of the scraped sample `name` (summed over label sets).
fn sample(samples: &[JsonValue], name: &str, key: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
        .filter_map(|s| s.get(key).and_then(JsonValue::as_f64))
        .sum()
}

/// Server-side microseconds of the cells executed so far: queue wait plus
/// execution, and the number of cells.
fn cell_time_us(samples: &[JsonValue]) -> (f64, f64) {
    (
        sample(samples, "lad_serve_cell_queue_wait_us", "sum")
            + sample(samples, "lad_serve_cell_exec_us", "sum"),
        sample(samples, "lad_serve_cell_exec_us", "count"),
    )
}

/// Client-side timings of the traced run.
#[derive(Debug, Default)]
struct ClientTimes {
    submit_s: Vec<f64>,
    status_s: Vec<f64>,
    result_s: Vec<f64>,
    polls: Vec<f64>,
    frame_bytes: Vec<f64>,
    parse_s: Vec<f64>,
}

pub fn run(args: &Args, dir: &Path, mode: Mode, clock: &mut HostClock) -> Result<Outcome, String> {
    let scale = if args.tiny {
        Scale {
            cores: 16,
            per_core: 300,
        }
    } else {
        Scale {
            cores: 64,
            per_core: 1_000,
        }
    };
    let first_spec = job_spec(scale, args.seed);

    // Set-up: server spawn, first connection and one job.  The job lets
    // lazy start-up (threads, allocator, page cache) finish before timing
    // and, for the cached workload, fills the cache the timed
    // resubmissions read.
    let mut servers = 0;
    let (setup_s, (mut service, data_dir, warm)) = timed_setup(SETUP_REPS, clock, || {
        servers += 1;
        let data_dir = dir.join(format!("server-{servers}"));
        let mut service = start(&data_dir)?;
        let warm = closed_loop(&mut service.client, &first_spec)?;
        Ok((service, data_dir, warm))
    })?;

    let mut tally = Tally::default();
    let clock_ns = stepper::clock_overhead_ns();
    let mut times = LayerTimes::default();
    let mut client_times = ClientTimes::default();
    // The direct reports of the last job checked, and that job's seed.
    let mut model_reports = direct_reports(scale, args.seed, args.trace.then_some(&mut times))?;
    let mut model_seed = args.seed;
    let cached_expected = to_strings(&model_reports);
    check_job(&mut tally, &warm, &cached_expected, 0);
    // Server metrics after cold work only (the set-up job), for the
    // cached workload whose later server restarts reset them.
    let mut cold_scrape = if args.trace {
        scrape(&mut service.client)?
    } else {
        Vec::new()
    };

    let budget = Budget::start(args.seconds);
    let mut jobs = Jobs::default();
    let (mut plain, mut traced, mut attributed, mut all) = (vec![], vec![], vec![], vec![]);
    let mut answered_by_server = 0;
    let mut index = 0u64;
    while budget.fits(&all) || (args.trace && traced.is_empty()) {
        let trace_this = args.trace && plain.len() > traced.len();
        let seed = args.seed.wrapping_mul(1 << 20).wrapping_add(index);
        index += 1;
        let spec = match mode {
            Mode::Cold => job_spec(scale, seed),
            Mode::Cached => {
                if answered_by_server == ROUND {
                    drop(service);
                    service = start(&data_dir)?;
                    answered_by_server = 0;
                }
                answered_by_server += 1;
                first_spec.clone()
            }
        };
        let cells_before = if trace_this && mode == Mode::Cold {
            cell_time_us(&scrape(&mut service.client)?)
        } else {
            (0.0, 0.0)
        };
        let segment = clock.segment();
        let job = match closed_loop(&mut service.client, &spec) {
            Ok(job) => job,
            Err(err) => {
                tally.record(false, || err);
                break;
            }
        };
        let accesses = match mode {
            Mode::Cold => {
                let reports = direct_reports(scale, seed, trace_this.then_some(&mut times))?;
                let accesses = check_job(&mut tally, &job, &to_strings(&reports), 0);
                model_reports = reports;
                model_seed = seed;
                accesses
            }
            Mode::Cached => check_job(&mut tally, &job, &cached_expected, SCHEMES.len()),
        };
        all.push(job.secs);
        if !args.trace {
            jobs.push(job.secs, accesses, segment);
            continue;
        }
        client_times.submit_s.push(job.submit_s);
        client_times
            .status_s
            .push(ratio(job.status_s, job.polls as f64));
        client_times.result_s.push(job.result_s);
        client_times.polls.push(job.polls as f64);
        if !trace_this {
            plain.push(job.secs);
            continue;
        }
        let frame = job.result.to_string();
        let parsed = Instant::now();
        let reparsed = JsonValue::parse(&frame);
        client_times.parse_s.push(parsed.elapsed().as_secs_f64());
        client_times.frame_bytes.push(frame.len() as f64 + 1.0);
        tally.record(reparsed.as_ref() == Ok(&job.result), || {
            "the result frame does not round-trip".to_string()
        });
        let named = job.submit_s
            + job.result_s
            + match mode {
                Mode::Cold => {
                    let (after_us, after_cells) = cell_time_us(&scrape(&mut service.client)?);
                    ratio(after_us - cells_before.0, after_cells - cells_before.1) / 1e6
                }
                Mode::Cached => job.status_s,
            };
        attributed.push(named / job.secs);
        traced.push(job.secs);
    }

    if !args.trace {
        let metrics = end_to_end(setup_s, &jobs, &tally, clock);
        return Ok(Outcome { tally, metrics });
    }

    let mut metrics = MetricSet::per_layer();
    let samples = scrape(&mut service.client)?;
    if mode == Mode::Cold {
        cold_scrape = samples.clone();
    }
    let hits = sample(&samples, "lad_serve_cache_hits_total", "value");
    let misses = sample(&samples, "lad_serve_cache_misses_total", "value");
    metrics.set("cache.hit_frac", ratio(hits, hits + misses));
    for (metric, name) in [
        ("serve.queue_wait_ms_p50", "lad_serve_cell_queue_wait_us"),
        ("serve.cell_exec_ms_p50", "lad_serve_cell_exec_us"),
        (
            "serve.checkpoint_spill_ms_p50",
            "lad_serve_checkpoint_spill_us",
        ),
    ] {
        metrics.set(metric, sample(&cold_scrape, name, "p50") / 1e3);
    }
    metrics.set(
        "serve.checkpoint_spill_share",
        ratio(
            sample(&cold_scrape, "lad_serve_checkpoint_spill_us", "sum"),
            sample(&cold_scrape, "lad_serve_cell_exec_us", "sum"),
        ),
    );
    metrics.set("client.submit_ms", median(&client_times.submit_s) * 1e3);
    metrics.set("client.status_ms", median(&client_times.status_s) * 1e3);
    metrics.set("client.result_ms", median(&client_times.result_s) * 1e3);
    metrics.set("client.polls_per_job", mean(&client_times.polls));
    metrics.set("client.job_ms_p90", percentile(&all, 90.0) * 1e3);
    metrics.set("frame.result_bytes", median(&client_times.frame_bytes));
    metrics.set("json.parse_us", median(&client_times.parse_s) * 1e6);

    let expected_rt3 = model_reports
        .get(1)
        .map(|report| report.to_json().to_string())
        .unwrap_or_default();
    checkpoint_probe(
        &mut metrics,
        &mut tally,
        scale,
        model_seed,
        &expected_rt3,
        dir,
    )?;
    cache_probe(&mut metrics, &mut tally, dir, &model_reports)?;
    set_sim_layers(&mut metrics, &times, clock_ns);
    set_model(&mut metrics, &model_reports.iter().collect::<Vec<_>>());
    set_tracing(&mut metrics, &plain, &traced, &attributed);
    Ok(Outcome { tally, metrics })
}

/// A `RunObserver` doing what the server's cell observer does at every
/// interval — capture, encode, durably write a checkpoint — with each step
/// timed, and keeping one checkpoint from mid-run for the resume probe.
struct SpillProbe {
    interval: u64,
    path: PathBuf,
    key: JsonValue,
    middle_at: u64,
    capture_s: Vec<f64>,
    encode_s: Vec<f64>,
    write_s: Vec<f64>,
    bytes: Vec<f64>,
    middle: Option<EngineCheckpoint>,
    error: Option<String>,
}

impl RunObserver for SpillProbe {
    fn interval(&self) -> u64 {
        self.interval
    }

    fn observe(&mut self, progress: RunProgress<'_>) -> RunControl {
        let started = Instant::now();
        let checkpoint = progress.checkpoint();
        self.capture_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let body = JsonValue::object([
            ("key", self.key.clone()),
            ("checkpoint", checkpoint.to_json()),
        ]);
        self.encode_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let written = durable::write_sealed(
            &self.path,
            body,
            &FaultInjector::disarmed(),
            FaultSite::CheckpointSpill,
        )
        .and_then(|()| std::fs::metadata(&self.path));
        match written {
            Ok(meta) => {
                self.write_s.push(started.elapsed().as_secs_f64());
                self.bytes.push(meta.len() as f64);
            }
            Err(err) => self.error = Some(format!("checkpoint write: {err}")),
        }
        if self.middle.is_none() && progress.total_accesses() >= self.middle_at {
            self.middle = Some(checkpoint);
        }
        RunControl::Continue
    }
}

/// Replays one RT-3 cell of a cold job outside the server with the server's
/// checkpoint cadence, timing capture, encode and write of every spill,
/// then decodes the mid-run checkpoint and resumes from it.  Both the
/// spilled run and the resumed run must match the direct run.
fn checkpoint_probe(
    metrics: &mut MetricSet,
    tally: &mut Tally,
    scale: Scale,
    seed: u64,
    expected: &str,
    dir: &Path,
) -> Result<(), String> {
    let system = SystemConfig::paper_default().with_num_cores(scale.cores);
    let scheme = SchemeId::Rt(3);
    let mut probe = SpillProbe {
        interval: ServerConfig::new(dir).checkpoint_interval,
        path: dir.join("probe-checkpoint.json"),
        key: CacheKey {
            trace: format!("{seed:016x}"),
            config: format!("{:016x}", 0),
            scheme: scheme.label(),
        }
        .to_json(),
        middle_at: (scale.cores * scale.per_core / 2) as u64,
        capture_s: vec![],
        encode_s: vec![],
        write_s: vec![],
        bytes: vec![],
        middle: None,
        error: None,
    };
    let same = |outcome: RunOutcome| match outcome {
        RunOutcome::Completed(report) => report.to_json().to_string() == expected,
        RunOutcome::Cancelled(_) => false,
    };
    let new_sim = sim_for(&system, scheme)?;
    let outcome = new_sim()
        .run_source_observed(&mut barnes_source(scale, seed), Some(&mut probe))
        .map_err(|err| err.to_string())?;
    tally.record(same(outcome), || {
        "the checkpointing run differs from the direct run".to_string()
    });
    if let Some(error) = probe.error.take() {
        tally.record(false, || error);
    }
    let ms = |values: &[f64]| mean(values) * 1e3;
    metrics.set("checkpoint.capture_ms", ms(&probe.capture_s));
    metrics.set("checkpoint.encode_ms", ms(&probe.encode_s));
    metrics.set("checkpoint.write_ms", ms(&probe.write_s));
    metrics.set("checkpoint.bytes", mean(&probe.bytes));
    metrics.set("checkpoint.spills_per_cell", probe.capture_s.len() as f64);
    if let Some(middle) = probe.middle.take() {
        let json = middle.to_json();
        let started = Instant::now();
        let decoded = EngineCheckpoint::from_json(&json)?;
        metrics.set(
            "checkpoint.decode_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let started = Instant::now();
        let resumed = new_sim()
            .resume_source(&mut barnes_source(scale, seed), &decoded, None)
            .map_err(|err| err.to_string())?;
        metrics.set("checkpoint.resume_s", started.elapsed().as_secs_f64());
        tally.record(same(resumed), || {
            "the run resumed from a checkpoint differs from the direct run".to_string()
        });
    }
    Ok(())
}

/// Times `ResultCache::insert` (with its durable spill) and
/// `ResultCache::lookup` on the job's reports, outside the server.
fn cache_probe(
    metrics: &mut MetricSet,
    tally: &mut Tally,
    dir: &Path,
    reports: &[SimulationReport],
) -> Result<(), String> {
    let cache = ResultCache::open(
        Some(dir.join("probe-cache")),
        FaultInjector::disarmed(),
        &MetricsRegistry::new(),
    )
    .map_err(|err| format!("cache: {err}"))?;
    let keys: Vec<CacheKey> = reports
        .iter()
        .enumerate()
        .map(|(index, report)| CacheKey {
            trace: format!("{index:016x}"),
            config: format!("{:016x}", 0),
            scheme: report.scheme.clone(),
        })
        .collect();
    let mut insert_s = Vec::new();
    for (key, report) in keys.iter().zip(reports) {
        let started = Instant::now();
        cache
            .insert(key.clone(), report.clone())
            .map_err(|err| format!("cache insert: {err}"))?;
        insert_s.push(started.elapsed().as_secs_f64());
    }
    let mut lookup_s = Vec::new();
    let mut all_hit = true;
    for _ in 0..LOOKUPS {
        for (key, report) in keys.iter().zip(reports) {
            let started = Instant::now();
            let hit = cache.lookup(key);
            lookup_s.push(started.elapsed().as_secs_f64());
            all_hit &= hit.is_some_and(|hit| hit.to_json() == report.to_json());
        }
    }
    tally.record(all_hit, || {
        "a cache lookup missed or returned another report".to_string()
    });
    metrics.set("cache.insert_ms", mean(&insert_s) * 1e3);
    metrics.set("cache.lookup_us", median(&lookup_s) * 1e6);
    Ok(())
}
