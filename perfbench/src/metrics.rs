//! The metric catalog, the result line, and what every workload shares:
//! medians, the run budget, output checks, set-up timing, the per-layer
//! metrics read from reports and traced replays, and the degenerate-regime
//! warnings.

use std::collections::BTreeMap;
use std::time::Instant;

use lad_common::json::JsonValue;
use lad_energy::accounting::Component;
use lad_sim::SimulationReport;

use crate::host::HostClock;
use crate::stepper::{LayerTimes, BUCKETS};

/// End-to-end metrics, measured with tracing off, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Figure 7 completion-time components, in `LatencyBreakdown::values` order.
const CYCLE_NAMES: [&str; 7] = [
    "compute",
    "l1_to_replica",
    "l1_to_home",
    "home_waiting",
    "home_to_sharers",
    "home_to_offchip",
    "synchronization",
];

/// Figure 6 energy components, in `Component::ALL` order.
const ENERGY_NAMES: [&str; 7] = ["l1i", "l1d", "llc", "directory", "router", "link", "dram"];

/// Per-layer metrics of the traced run, as `(name, unit)`.  A layer a
/// workload never reaches reports 0.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| {
        names
            .iter()
            .map(|(name, unit)| (name.to_string(), *unit))
            .collect::<Vec<_>>()
    };
    let mut catalog = fixed(&[
        ("trace.generate_ns_per_access", "ns"),
        ("traceio.encode_ns_per_access", "ns"),
        ("traceio.bytes_per_access", "B"),
        ("traceio.decode_ns_per_access", "ns"),
        ("sim.build_ms", "ms"),
        ("sim.profile_ns_per_access", "ns"),
        ("sim.schedule_ns_per_access", "ns"),
        ("sim.steps_per_batch", "count"),
    ]);
    for bucket in BUCKETS {
        catalog.push((format!("sim.step.{bucket}_ns"), "ns"));
    }
    for bucket in BUCKETS {
        catalog.push((format!("sim.step.{bucket}_share"), "ratio"));
    }
    catalog.extend(fixed(&[
        ("sim.report_us", "us"),
        ("report.json_us", "us"),
        ("report.bytes", "B"),
        ("model.l1_hit_frac", "ratio"),
        ("model.replica_hit_frac", "ratio"),
        ("model.home_hit_frac", "ratio"),
        ("model.offchip_frac", "ratio"),
        ("model.replicas_created_per_kacc", "1/kacc"),
        ("model.back_invalidations_per_kacc", "1/kacc"),
        ("model.classifier_mode_flips", "count"),
    ]));
    for name in CYCLE_NAMES {
        catalog.push((format!("model.cycles.{name}_share"), "ratio"));
    }
    for name in ENERGY_NAMES {
        catalog.push((format!("model.energy.{name}_share"), "ratio"));
    }
    catalog.extend(fixed(&[
        ("model.paper_energy_gap_pp", "pp"),
        ("model.paper_time_gap_pp", "pp"),
        ("checkpoint.capture_ms", "ms"),
        ("checkpoint.encode_ms", "ms"),
        ("checkpoint.bytes", "B"),
        ("checkpoint.write_ms", "ms"),
        ("checkpoint.decode_ms", "ms"),
        ("checkpoint.resume_s", "s"),
        ("checkpoint.spills_per_cell", "count"),
        ("client.submit_ms", "ms"),
        ("client.status_ms", "ms"),
        ("client.result_ms", "ms"),
        ("client.polls_per_job", "count"),
        ("client.job_ms_p90", "ms"),
        ("cache.hit_frac", "ratio"),
        ("cache.lookup_us", "us"),
        ("cache.insert_ms", "ms"),
        ("frame.result_bytes", "B"),
        ("json.parse_us", "us"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.cell_exec_ms_p50", "ms"),
        ("serve.checkpoint_spill_ms_p50", "ms"),
        ("serve.checkpoint_spill_share", "ratio"),
        ("pool.busy_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.attributed_frac", "ratio"),
        ("host.ref_ms", "ms"),
    ]));
    catalog
}

/// Named metric values with units, in catalog order.
#[derive(Debug)]
pub struct MetricSet {
    entries: Vec<(String, &'static str, f64)>,
}

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet::zeroed(
            END_TO_END
                .iter()
                .map(|(name, unit)| (name.to_string(), *unit))
                .collect(),
        )
    }

    pub fn per_layer() -> MetricSet {
        MetricSet::zeroed(per_layer_catalog())
    }

    fn zeroed(catalog: Vec<(String, &'static str)>) -> MetricSet {
        MetricSet {
            entries: catalog
                .into_iter()
                .map(|(name, unit)| (name, unit, 0.0))
                .collect(),
        }
    }

    /// Sets a catalog metric; a non-finite value (an empty denominator)
    /// reads as 0.
    ///
    /// # Panics
    ///
    /// On a name outside the catalog — a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let Some(entry) = self.entries.iter_mut().find(|(known, _, _)| known == name) else {
            panic!("metric {name:?} is not in the catalog");
        };
        entry.2 = if value.is_finite() { value } else { 0.0 };
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(self.entries.iter().map(|(name, unit, value)| {
            (
                name.clone(),
                JsonValue::object([
                    ("value", JsonValue::from(*value)),
                    ("unit", JsonValue::from(*unit)),
                ]),
            )
        }))
    }

    pub fn print(&self) {
        for (name, unit, value) in &self.entries {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }
}

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile (`p` in 0..=100); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The measurement window of one run.
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    pub fn start(seconds: f64) -> Budget {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    /// Whether one more job of the typical duration of `done` ends inside
    /// the window.  The first job always runs.
    pub fn fits(&self, done: &[f64]) -> bool {
        done.is_empty() || self.started.elapsed().as_secs_f64() + median(done) <= self.seconds
    }
}

/// Operations attempted and failed, where a failure is an error or an
/// output that differs from its reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("output check failed: {}", what());
            }
        }
    }
}

/// Runs `setup` `reps` times, each between two reference runs of `clock`,
/// and returns the median host-adjusted duration in seconds with the last
/// result; earlier results are dropped outside the timing.
pub fn timed_setup<T>(
    reps: usize,
    clock: &mut HostClock,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut timed = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let segment = clock.sample();
        let started = Instant::now();
        let value = setup()?;
        timed.push((started.elapsed().as_secs_f64(), segment));
        last = Some(value);
    }
    clock.sample();
    let Some(value) = last else {
        unreachable!("at least one set-up ran");
    };
    let durations: Vec<f64> = timed
        .iter()
        .map(|&(secs, segment)| clock.adjust(secs, segment))
        .collect();
    Ok((median(&durations), value))
}

/// Wall-clock seconds of each timed job, the simulated accesses it
/// delivered and its [`HostClock`] segment.
#[derive(Debug, Default)]
pub struct Jobs {
    pub secs: Vec<f64>,
    accesses: Vec<u64>,
    segments: Vec<usize>,
}

impl Jobs {
    pub fn push(&mut self, secs: f64, accesses: u64, segment: usize) {
        self.secs.push(secs);
        self.accesses.push(accesses);
        self.segments.push(segment);
    }
}

/// The end-to-end metrics of an untraced run.  Timings are host-adjusted
/// (see [`HostClock`]); the wall-clock medians are printed beside them.
pub fn end_to_end(setup_s: f64, jobs: &Jobs, tally: &Tally, clock: &mut HostClock) -> MetricSet {
    clock.sample();
    let adjusted: Vec<f64> = jobs
        .secs
        .iter()
        .zip(&jobs.segments)
        .map(|(&secs, &segment)| clock.adjust(secs, segment))
        .collect();
    let rates: Vec<f64> = jobs
        .accesses
        .iter()
        .zip(&adjusted)
        .map(|(&accesses, &secs)| ratio(accesses as f64, secs))
        .collect();
    println!(
        "wall clock: job median {:.3} ms over {} jobs; reference kernel median {:.1} ms",
        median(&jobs.secs) * 1e3,
        jobs.secs.len(),
        clock.median_ms()
    );
    let mut set = MetricSet::end_to_end();
    set.set("setup_s", setup_s);
    set.set("accesses_per_s", median(&rates));
    set.set("job_ms_p50", median(&adjusted) * 1e3);
    set.set("peak_rss_mb", peak_rss_mb() - clock.table_mib());
    set.set(
        "ok_frac",
        ratio(
            (tally.attempted - tally.failed) as f64,
            tally.attempted as f64,
        ),
    );
    set
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The engine-layer metrics of traced replays.  `clock_ns` is the cost of
/// one clock read, subtracted from every sampled interval.
pub fn set_sim_layers(set: &mut MetricSet, times: &LayerTimes, clock_ns: f64) {
    if times.generated > 0 {
        set.set(
            "trace.generate_ns_per_access",
            ratio(times.generate_ns as f64, times.generated as f64),
        );
    }
    set.set(
        "traceio.decode_ns_per_access",
        times.fetch.mean_ns(clock_ns),
    );
    set.set(
        "sim.build_ms",
        ratio(times.build_ns as f64, times.builds as f64) / 1e6,
    );
    set.set("sim.profile_ns_per_access", times.profile.mean_ns(clock_ns));
    set.set(
        "sim.schedule_ns_per_access",
        times.schedule.mean_ns(clock_ns),
    );
    let steps: u64 = times.step.iter().map(|stage| stage.calls).sum();
    set.set(
        "sim.steps_per_batch",
        ratio(steps as f64, times.batches as f64),
    );
    let step_total: f64 = times.step.iter().map(|s| s.total_ns(clock_ns)).sum();
    for (bucket, stage) in BUCKETS.iter().zip(&times.step) {
        set.set(&format!("sim.step.{bucket}_ns"), stage.mean_ns(clock_ns));
        set.set(
            &format!("sim.step.{bucket}_share"),
            ratio(stage.total_ns(clock_ns), step_total),
        );
    }
    let reports = times.reports as f64;
    set.set(
        "sim.report_us",
        ratio(times.report_ns as f64, reports) / 1e3,
    );
    set.set("report.json_us", ratio(times.json_ns as f64, reports) / 1e3);
    set.set("report.bytes", ratio(times.json_bytes as f64, reports));
}

/// The modelled-component metrics, summed over `reports`.  These are
/// simulated quantities: a change that only speeds the simulator up must
/// leave every one of them identical.
pub fn set_model(set: &mut MetricSet, reports: &[&SimulationReport]) {
    let mut served = [0u64; 4];
    let mut cycles = [0u64; 7];
    let mut energy = [0.0f64; 7];
    let (mut accesses, mut replicas, mut back_invalidations, mut flips) = (0u64, 0u64, 0u64, 0u64);
    for report in reports {
        let misses = &report.misses;
        for (slot, value) in served.iter_mut().zip([
            misses.l1_hits,
            misses.llc_replica_hits,
            misses.llc_home_hits,
            misses.offchip_misses,
        ]) {
            *slot += value;
        }
        for (slot, value) in cycles.iter_mut().zip(report.latency.values()) {
            *slot += value;
        }
        for (slot, component) in energy.iter_mut().zip(Component::ALL) {
            *slot += report.energy.component(component);
        }
        accesses += report.total_accesses;
        replicas += report.replicas_created;
        back_invalidations += report.back_invalidations;
        flips += report.classifier.mode_flips;
    }
    let served_total = served.iter().sum::<u64>() as f64;
    for (name, value) in ["l1_hit", "replica_hit", "home_hit", "offchip"]
        .iter()
        .zip(served)
    {
        set.set(
            &format!("model.{name}_frac"),
            ratio(value as f64, served_total),
        );
    }
    let per_kacc = |count: u64| ratio(count as f64 * 1e3, accesses as f64);
    set.set("model.replicas_created_per_kacc", per_kacc(replicas));
    set.set(
        "model.back_invalidations_per_kacc",
        per_kacc(back_invalidations),
    );
    set.set("model.classifier_mode_flips", flips as f64);
    let cycle_total = cycles.iter().sum::<u64>() as f64;
    for (name, value) in CYCLE_NAMES.iter().zip(cycles) {
        set.set(
            &format!("model.cycles.{name}_share"),
            ratio(value as f64, cycle_total),
        );
    }
    let energy_total: f64 = energy.iter().sum();
    for (name, value) in ENERGY_NAMES.iter().zip(energy) {
        set.set(
            &format!("model.energy.{name}_share"),
            ratio(value, energy_total),
        );
    }
}

/// The tracing metrics: overhead from the medians of untraced and traced
/// job times, and the median share of traced wall time the named timers
/// cover.
pub fn set_tracing(set: &mut MetricSet, plain: &[f64], traced: &[f64], attributed: &[f64]) {
    let overhead = ratio(median(traced), median(plain)) - 1.0;
    let share = median(attributed);
    set.set("trace.overhead_frac", overhead);
    set.set("trace.attributed_frac", share);
    println!(
        "traced run: named per-layer timers cover {:.1}% of traced wall time \
         ({:.1}% unattributed); tracing overhead {:+.1}% ({} untraced / {} traced jobs)",
        share * 100.0,
        (1.0 - share) * 100.0,
        overhead * 100.0,
        plain.len(),
        traced.len()
    );
}

/// A report's JSON without its scheme labels: equal strings mean two
/// schemes simulated exactly the same thing.
fn model_fingerprint(report: &SimulationReport) -> String {
    match report.to_json() {
        JsonValue::Object(mut fields) => {
            fields.retain(|(key, _)| key != "scheme" && key != "scheme_id");
            JsonValue::Object(fields).to_string()
        }
        other => other.to_string(),
    }
}

/// Prints degenerate-regime warnings read from the reports — warnings
/// only, never failures.  `cells` pairs each report with its benchmark.
pub fn warn_degenerate(cells: &[(&str, &SimulationReport)]) {
    let mut by_scheme: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut offchip, mut l1_misses) = (0u64, 0u64);
    let mut by_benchmark: BTreeMap<&str, Vec<(&str, String)>> = BTreeMap::new();
    for (benchmark, report) in cells {
        let misses = &report.misses;
        let served = by_scheme.entry(report.scheme.as_str()).or_default();
        served.0 += misses.llc_replica_hits;
        served.1 += misses.l1_hits + misses.l1_misses();
        offchip += misses.offchip_misses;
        l1_misses += misses.l1_misses();
        by_benchmark
            .entry(benchmark)
            .or_default()
            .push((report.scheme.as_str(), model_fingerprint(report)));
    }
    for (scheme, (replica_hits, accesses)) in &by_scheme {
        let fraction = ratio(*replica_hits as f64, *accesses as f64);
        if scheme.starts_with("RT-") && fraction < 0.01 {
            println!(
                "warning: {scheme} model.replica_hit_frac = {fraction:.4} < 0.01: \
                 replicas serve almost no accesses"
            );
        }
    }
    let offchip_share = ratio(offchip as f64, l1_misses as f64);
    if offchip_share >= 0.7 {
        println!(
            "warning: {:.3} of L1 misses go off-chip (>= 0.7): cold-start dominated",
            offchip_share
        );
    }
    let mut identical: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for runs in by_benchmark.values() {
        for (i, (first, first_print)) in runs.iter().enumerate() {
            for (second, second_print) in &runs[i + 1..] {
                if first_print == second_print {
                    *identical.entry((first, second)).or_default() += 1;
                }
            }
        }
    }
    for ((first, second), count) in identical {
        println!(
            "warning: {first} and {second} produced identical reports on {count}/{} benchmarks",
            by_benchmark.len()
        );
    }
}
