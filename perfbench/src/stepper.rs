//! The traced replay loop: an outside-in copy of `Simulator::run_source`.
//!
//! It drives the engine only through its public stepping API (`begin`,
//! `profile_access`, `step`, `report`) and the public `CoreScheduler`, in the
//! same order as the engine's own loop: a whole-trace profiling pass, a
//! rewind, then always stepping the core whose clock is furthest behind,
//! ties to the lowest index, with same-core batches while `runs_next`
//! holds.  Every report it produces is compared byte for byte with the
//! untraced `run_source` report of the same input, which is what proves the
//! copy replays the engine's exact schedule.
//!
//! Timing every call would add two clock reads to operations that cost tens
//! of nanoseconds, so one call in [`SAMPLE_EVERY`] is timed per stage and
//! every call is counted; totals are the sampled mean times the count.

use std::time::Instant;

use lad_common::types::CoreId;
use lad_sim::{CoreScheduler, ServedBy, SimulationReport, Simulator};
use lad_traceio::{TraceError, TraceSource};

/// One call in this many is timed; the rest are only counted.
const SAMPLE_EVERY: u64 = 8;

/// Host time of one layer call site: every call counted, one in
/// [`SAMPLE_EVERY`] timed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stage {
    pub calls: u64,
    samples: u64,
    sampled_ns: u64,
}

impl Stage {
    fn timed<T>(&mut self, call: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if self.calls % SAMPLE_EVERY != 1 {
            return call();
        }
        let started = Instant::now();
        let out = call();
        self.record(started);
        out
    }

    fn record(&mut self, started: Instant) {
        self.samples += 1;
        self.sampled_ns += started.elapsed().as_nanos() as u64;
    }

    /// Mean host time of one call, less the cost of the clock read that
    /// every timed interval contains.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.samples as f64 - clock_ns).max(0.0)
    }

    /// Estimated host time of all calls.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.mean_ns(clock_ns) * self.calls as f64
    }

    fn merge(&mut self, other: &Stage) {
        self.calls += other.calls;
        self.samples += other.samples;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Where a step was served, in the order of the `sim.step.*` metrics.
pub const BUCKETS: [&str; 4] = ["l1", "replica", "home", "offchip"];

fn bucket(served: ServedBy) -> usize {
    match served {
        ServedBy::L1 => 0,
        ServedBy::LlcReplica => 1,
        ServedBy::LlcHome => 2,
        ServedBy::OffChip => 3,
    }
}

/// Host time per layer accumulated over traced runs.  Whole calls that run
/// once per job (generation, build, report, JSON) are timed exactly.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub generate_ns: u64,
    pub generated: u64,
    pub build_ns: u64,
    pub builds: u64,
    /// `TraceSource::next_access` / `next_for_core`.
    pub fetch: Stage,
    pub profile: Stage,
    pub schedule: Stage,
    pub step: [Stage; 4],
    pub batches: u64,
    pub report_ns: u64,
    pub reports: u64,
    pub json_ns: u64,
    pub json_bytes: u64,
}

impl LayerTimes {
    pub fn merge(&mut self, other: &LayerTimes) {
        self.generate_ns += other.generate_ns;
        self.generated += other.generated;
        self.build_ns += other.build_ns;
        self.builds += other.builds;
        self.fetch.merge(&other.fetch);
        self.profile.merge(&other.profile);
        self.schedule.merge(&other.schedule);
        for (mine, theirs) in self.step.iter_mut().zip(&other.step) {
            mine.merge(theirs);
        }
        self.batches += other.batches;
        self.report_ns += other.report_ns;
        self.reports += other.reports;
        self.json_ns += other.json_ns;
        self.json_bytes += other.json_bytes;
    }

    /// Host time the named timers account for, in nanoseconds.
    pub fn attributed_ns(&self, clock_ns: f64) -> f64 {
        let stages: f64 = [self.fetch, self.profile, self.schedule]
            .iter()
            .chain(&self.step)
            .map(|stage| stage.total_ns(clock_ns))
            .sum();
        stages + (self.generate_ns + self.build_ns + self.report_ns + self.json_ns) as f64
    }
}

/// Runs `source` to completion on the simulator `build` returns and
/// returns its report with the report's compact JSON — the string compared
/// with the untraced run.
pub fn replay(
    build: impl FnOnce() -> Simulator,
    source: &mut dyn TraceSource,
    times: &mut LayerTimes,
) -> Result<(SimulationReport, String), TraceError> {
    let name = source.name().to_string();
    let num_cores = source.num_cores();

    let started = Instant::now();
    let mut sim = build();
    sim.begin(&name, num_cores);
    times.build_ns += started.elapsed().as_nanos() as u64;
    times.builds += 1;

    source.rewind()?;
    while let Some(access) = times.fetch.timed(|| source.next_access())? {
        times.profile.timed(|| sim.profile_access(&access));
    }
    source.rewind()?;

    let mut pending = Vec::with_capacity(num_cores);
    let mut scheduler = CoreScheduler::with_capacity(num_cores);
    for core in 0..num_cores {
        let access = times
            .fetch
            .timed(|| source.next_for_core(CoreId::new(core)))?;
        if access.is_some() {
            scheduler.push(core, sim.core_clock(CoreId::new(core)));
        }
        pending.push(access);
    }
    let mut steps: u64 = 0;
    let mut current = scheduler.pop();
    while let Some(core) = current {
        let Some(access) = pending[core].take() else {
            unreachable!("scheduled cores always have a pending access");
        };
        let started = steps.is_multiple_of(SAMPLE_EVERY).then(Instant::now);
        let outcome = sim.step(&access);
        let stage = &mut times.step[bucket(outcome.served_by)];
        stage.calls += 1;
        if let Some(started) = started {
            stage.record(started);
        }
        steps += 1;
        pending[core] = times
            .fetch
            .timed(|| source.next_for_core(CoreId::new(core)))?;
        let (next, batch_ended) = times.schedule.timed(|| {
            if pending[core].is_none() {
                (scheduler.pop(), true)
            } else if scheduler.runs_next(core, outcome.finish) {
                (Some(core), false)
            } else {
                scheduler.push(core, outcome.finish);
                (scheduler.pop(), true)
            }
        });
        times.batches += u64::from(batch_ended);
        current = next;
    }

    let started = Instant::now();
    let report = sim.report();
    times.report_ns += started.elapsed().as_nanos() as u64;
    times.reports += 1;
    let started = Instant::now();
    let json = report.to_json().to_string();
    times.json_ns += started.elapsed().as_nanos() as u64;
    times.json_bytes += json.len() as u64;
    Ok((report, json))
}

/// The cost of one `Instant::now()` read: the median of back-to-back reads.
pub fn clock_overhead_ns() -> f64 {
    let mut reads: Vec<u64> = (0..2001)
        .map(|_| Instant::now().elapsed().as_nanos() as u64)
        .collect();
    reads.sort_unstable();
    reads[reads.len() / 2] as f64
}
