//! `matrix-64c`: `ExperimentRunner::run_paper_comparison` — the 21-benchmark
//! suite × the 11-scheme `paper_sweep` (231 cells) at 64 cores × 500
//! accesses per core on two workers.  (At 1 000 a pass takes 11–18 s on a
//! 2-vCPU Xeon VM: one pass per run, with a run-to-run spread above 25%.)
//!
//! This is the figure-regeneration path users run: it regenerates a trace
//! for every cell, builds 231 simulators and reports, and exercises the
//! work-stealing pool.  It mixes write-heavy, capacity-exceeding profiles
//! (DRAM and LLC eviction) with read-mostly ones, and it is the only
//! workload that yields the paper-fidelity gaps.  No LADT decoding happens
//! here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lad_common::config::SystemConfig;
use lad_energy::model::EnergyModel;
use lad_obs::SampleValue;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_sim::{ExperimentRunner, SchemeComparison, SimulationReport, Simulator};
use lad_trace::{Benchmark, BenchmarkSuite};
use lad_traceio::MemorySource;

use crate::host::HostClock;
use crate::metrics::{
    end_to_end, ratio, set_model, set_sim_layers, set_tracing, timed_setup, warn_degenerate,
    Budget, Jobs, MetricSet, Tally,
};
use crate::stepper::{self, LayerTimes};
use crate::{Args, Outcome};

const SETUP_REPS: usize = 3;
const WORKERS: usize = 2;

/// RT-3's suite-average energy and completion-time reductions (%) the paper
/// reports against each baseline.
const PAPER_REDUCTIONS: [(SchemeId, f64, f64); 4] = [
    (SchemeId::VictimReplication, 16.0, 4.0),
    (SchemeId::Asr, 14.0, 9.0),
    (SchemeId::ReactiveNuca, 13.0, 6.0),
    (SchemeId::StaticNuca, 21.0, 13.0),
];

type Cells = BTreeMap<(Benchmark, SchemeId), SimulationReport>;

pub fn run(args: &Args, clock: &mut HostClock) -> Result<Outcome, String> {
    let (system, suite) = if args.tiny {
        (
            SystemConfig::paper_default().with_num_cores(4),
            BenchmarkSuite::custom(vec![Benchmark::Barnes, Benchmark::Radix], 100, args.seed),
        )
    } else {
        (
            SystemConfig::paper_default(),
            BenchmarkSuite::full()
                .with_accesses_per_core(500)
                .with_seed(args.seed),
        )
    };
    let sweep = ExperimentRunner::paper_sweep();

    // Set-up builds the runner and simulates one warm-up cell, so the timed
    // passes do not pay first-touch costs.
    let (setup_s, runner) = timed_setup(SETUP_REPS, clock, || {
        let runner = ExperimentRunner::new(system.clone(), suite.clone()).with_threads(WORKERS);
        runner
            .run_scheme(suite.benchmarks()[0], SchemeId::StaticNuca)
            .map_err(|err| err.to_string())?;
        Ok(runner)
    })?;

    let mut tally = Tally::default();
    let mut reference: Option<String> = None;
    let mut check_pass = |tally: &mut Tally, comparison: &SchemeComparison| -> u64 {
        let mut accesses = 0;
        for &benchmark in comparison.benchmarks() {
            let trace_len = comparison
                .report(benchmark, SchemeId::StaticNuca)
                .map_or(0, |report| report.total_accesses);
            accesses += trace_len * sweep.len() as u64;
            for scheme in SchemeComparison::SCHEME_ORDER {
                let ok = comparison
                    .report(benchmark, scheme)
                    .is_ok_and(|report| trace_len > 0 && report.total_accesses == trace_len);
                tally.record(ok, || {
                    format!(
                        "{} under {scheme} is missing or incomplete",
                        benchmark.label()
                    )
                });
            }
        }
        let json = comparison.to_json().to_string();
        match &reference {
            None => reference = Some(json),
            Some(first) => tally.record(*first == json, || {
                "a repeated comparison differs from the first".to_string()
            }),
        }
        accesses
    };

    let budget = Budget::start(args.seconds);
    if !args.trace {
        let mut jobs = Jobs::default();
        let mut last = None;
        while budget.fits(&jobs.secs) {
            let segment = clock.segment();
            let started = Instant::now();
            let comparison = runner.run_paper_comparison();
            let secs = started.elapsed().as_secs_f64();
            let accesses = check_pass(&mut tally, &comparison);
            jobs.push(secs, accesses, segment);
            last = Some(comparison);
        }
        if let Some(comparison) = &last {
            report_fidelity(comparison)?;
        }
        let metrics = end_to_end(setup_s, &jobs, &tally, clock);
        return Ok(Outcome { tally, metrics });
    }

    // Traced: alternate the runner's own matrix with an outside-in copy of
    // it that times every layer of every cell.
    let clock_ns = stepper::clock_overhead_ns();
    let mut times = LayerTimes::default();
    let (mut plain, mut traced, mut attributed, mut busy, mut all) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    while budget.fits(&all) || traced.is_empty() {
        if plain.len() <= traced.len() {
            let exec_before = pool_exec_us();
            let started = Instant::now();
            let cells = runner.run_matrix(&sweep).map_err(|err| err.to_string())?;
            let secs = started.elapsed().as_secs_f64();
            busy.push(ratio(
                pool_exec_us() - exec_before,
                WORKERS as f64 * secs * 1e6,
            ));
            let comparison =
                SchemeComparison::from_results(suite.benchmarks().to_vec(), cells.clone());
            check_pass(&mut tally, &comparison);
            plain.push(secs);
            all.push(secs);
            last = Some(cells);
            continue;
        }
        let before = times.attributed_ns(clock_ns);
        let started = Instant::now();
        let cells = traced_matrix(&system, &suite, &sweep, &mut times)?;
        let secs = started.elapsed().as_secs_f64();
        attributed.push((times.attributed_ns(clock_ns) - before) / (WORKERS as f64 * secs * 1e9));
        if let Some(untraced) = &last {
            for (key, report) in &cells {
                let same = untraced.get(key).is_some_and(|other| {
                    other.to_json().to_string() == report.to_json().to_string()
                });
                tally.record(same, || {
                    format!(
                        "traced {} under {} differs from the untraced run",
                        key.0.label(),
                        key.1
                    )
                });
            }
        }
        traced.push(secs);
        all.push(secs);
    }

    let mut metrics = MetricSet::per_layer();
    set_sim_layers(&mut metrics, &times, clock_ns);
    if let Some(cells) = &last {
        set_model(&mut metrics, &cells.values().collect::<Vec<_>>());
        let comparison = SchemeComparison::from_results(suite.benchmarks().to_vec(), cells.clone());
        let (energy_gap, time_gap) = report_fidelity(&comparison)?;
        metrics.set("model.paper_energy_gap_pp", energy_gap);
        metrics.set("model.paper_time_gap_pp", time_gap);
    }
    metrics.set("pool.busy_frac", crate::metrics::median(&busy));
    set_tracing(&mut metrics, &plain, &traced, &attributed);
    Ok(Outcome { tally, metrics })
}

/// Prints the reproduction-vs-paper gaps and the degenerate-regime
/// warnings of one comparison, and returns the mean absolute gaps
/// `(energy, time)` in percentage points.
fn report_fidelity(comparison: &SchemeComparison) -> Result<(f64, f64), String> {
    let (mut energy_gap, mut time_gap) = (0.0, 0.0);
    for (baseline, paper_energy, paper_time) in PAPER_REDUCTIONS {
        let (energy, time) = comparison
            .reduction_vs(SchemeId::Rt(3), baseline)
            .map_err(|err| err.to_string())?;
        println!(
            "RT-3 vs {baseline}: energy reduction {energy:.1}% (paper {paper_energy}%), \
             time reduction {time:.1}% (paper {paper_time}%)"
        );
        energy_gap += (energy - paper_energy).abs() / PAPER_REDUCTIONS.len() as f64;
        time_gap += (time - paper_time).abs() / PAPER_REDUCTIONS.len() as f64;
    }
    println!("paper gap: energy {energy_gap:.2} pp, time {time_gap:.2} pp");
    let mut cells = Vec::new();
    for &benchmark in comparison.benchmarks() {
        for scheme in SchemeComparison::SCHEME_ORDER {
            if let Ok(report) = comparison.report(benchmark, scheme) {
                cells.push((benchmark.label(), report));
            }
        }
    }
    warn_degenerate(&cells);
    Ok((energy_gap, time_gap))
}

/// Total microseconds the `run_matrix` pool has spent executing cells, read
/// from the process-wide metrics registry.
fn pool_exec_us() -> f64 {
    lad_obs::global()
        .snapshot()
        .iter()
        .filter(|sample| {
            sample.name == "lad_pool_cell_exec_us"
                && sample
                    .labels
                    .iter()
                    .any(|(key, value)| key == "pool" && value == "run_matrix")
        })
        .map(|sample| match &sample.value {
            SampleValue::Histogram(histogram) => histogram
                .iter()
                .map(|(value, count)| value as f64 * count as f64)
                .sum(),
            _ => 0.0,
        })
        .sum()
}

/// `run_matrix` rebuilt from public calls: the same cells on the same
/// number of work-stealing workers, each generating its trace with
/// `BenchmarkSuite::trace_for` and replaying it through the traced loop.
fn traced_matrix(
    system: &SystemConfig,
    suite: &BenchmarkSuite,
    sweep: &[SchemeId],
    times: &mut LayerTimes,
) -> Result<Cells, String> {
    let registry = SchemeRegistry::builtin();
    let jobs: Vec<(Benchmark, SchemeId)> = suite
        .benchmarks()
        .iter()
        .flat_map(|&benchmark| sweep.iter().map(move |&scheme| (benchmark, scheme)))
        .collect();
    let next = AtomicUsize::new(0);
    let worker = || -> Result<(Cells, LayerTimes), String> {
        let mut times = LayerTimes::default();
        let mut cells = Cells::new();
        while let Some(&(benchmark, scheme)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let entry = registry.get(scheme).map_err(|err| err.to_string())?;
            let started = Instant::now();
            let trace = suite.trace_for(benchmark, system.num_cores);
            times.generate_ns += started.elapsed().as_nanos() as u64;
            times.generated += trace.total_accesses() as u64;
            let build = || {
                Simulator::with_policy_and_energy_model(
                    system.clone(),
                    entry.config.clone(),
                    Arc::clone(&entry.policy),
                    EnergyModel::paper_default(),
                )
            };
            let (report, _) = stepper::replay(build, &mut MemorySource::new(&trace), &mut times)
                .map_err(|err| err.to_string())?;
            cells.insert((benchmark, scheme), report);
        }
        Ok((cells, times))
    };
    let mut results = Cells::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..WORKERS).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            let (cells, worker_times) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            times.merge(&worker_times);
            results.extend(cells);
        }
        Ok(())
    })?;
    Ok(results)
}
