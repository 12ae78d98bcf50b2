//! Metric collection: completion-time breakdown (Figure 7), L1-miss-type
//! breakdown (Figure 8), run-length characterization (Figure 1) and the
//! combined per-run report.

use std::collections::BTreeMap;
use std::fmt;

use lad_common::collections::FastMap;
use lad_common::json::JsonValue;
use lad_common::stats::Histogram;
use lad_common::types::{CacheLine, CoreId, Cycle, DataClass};
use lad_energy::accounting::{Component, EnergyAccounting};
use lad_replication::scheme::SchemeId;

/// The completion-time components of Figure 7, accumulated over all cores
/// (in cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Compute cycles (plus L1 hit time).
    pub compute: u64,
    /// L1 miss to the LLC replica location and back.
    pub l1_to_llc_replica: u64,
    /// L1 miss to the LLC home location and back (including the LLC access).
    pub l1_to_llc_home: u64,
    /// Queueing at the LLC home while conflicting requests are serialized.
    pub llc_home_waiting: u64,
    /// Round trips from the home to sharers (invalidations, downgrades,
    /// synchronous write-backs).
    pub llc_home_to_sharers: u64,
    /// Off-chip DRAM access time (including controller queueing).
    pub llc_home_to_offchip: u64,
    /// Time waiting at the final barrier (load imbalance).
    pub synchronization: u64,
}

impl LatencyBreakdown {
    /// Labels in the order the paper's Figure 7 legend uses.
    pub const LABELS: [&'static str; 7] = [
        "Compute",
        "L1-To-LLC-Replica",
        "L1-To-LLC-Home",
        "LLC-Home-Waiting",
        "LLC-Home-To-Sharers",
        "LLC-Home-To-OffChip",
        "Synchronization",
    ];

    /// The component values in the same order as [`LatencyBreakdown::LABELS`].
    pub fn values(&self) -> [u64; 7] {
        [
            self.compute,
            self.l1_to_llc_replica,
            self.l1_to_llc_home,
            self.llc_home_waiting,
            self.llc_home_to_sharers,
            self.llc_home_to_offchip,
            self.synchronization,
        ]
    }

    /// Rebuilds a breakdown from [`LatencyBreakdown::values`].
    pub fn from_values(values: [u64; 7]) -> Self {
        let [compute, l1_to_llc_replica, l1_to_llc_home, llc_home_waiting, llc_home_to_sharers, llc_home_to_offchip, synchronization] =
            values;
        LatencyBreakdown {
            compute,
            l1_to_llc_replica,
            l1_to_llc_home,
            llc_home_waiting,
            llc_home_to_sharers,
            llc_home_to_offchip,
            synchronization,
        }
    }

    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.values().iter().sum()
    }

    /// The breakdown as a JSON object keyed by the Figure 7 labels.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            Self::LABELS
                .iter()
                .zip(self.values())
                .map(|(label, value)| (label.to_string(), JsonValue::from(value)))
                .collect(),
        )
    }

    /// Rebuilds a breakdown from [`LatencyBreakdown::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let mut values = [0u64; 7];
        for (label, slot) in Self::LABELS.iter().zip(values.iter_mut()) {
            *slot = value
                .get(label)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("latency breakdown is missing {label:?}"))?;
        }
        Ok(Self::from_values(values))
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.compute += other.compute;
        self.l1_to_llc_replica += other.l1_to_llc_replica;
        self.l1_to_llc_home += other.l1_to_llc_home;
        self.llc_home_waiting += other.llc_home_waiting;
        self.llc_home_to_sharers += other.llc_home_to_sharers;
        self.llc_home_to_offchip += other.llc_home_to_offchip;
        self.synchronization += other.synchronization;
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "completion-time breakdown (cycles, all cores):")?;
        for (label, value) in Self::LABELS.iter().zip(self.values()) {
            writeln!(f, "  {label:<22} {value:>14}")?;
        }
        write!(f, "  {:<22} {:>14}", "TOTAL", self.total())
    }
}

/// How L1 cache misses were served (Figure 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// L1 accesses that hit in the L1 (not plotted by Figure 8 but useful).
    pub l1_hits: u64,
    /// L1 misses that hit at the LLC replica location.
    pub llc_replica_hits: u64,
    /// L1 misses that hit at the LLC home location.
    pub llc_home_hits: u64,
    /// L1 misses that went to DRAM.
    pub offchip_misses: u64,
}

impl MissBreakdown {
    /// Total L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.llc_replica_hits + self.llc_home_hits + self.offchip_misses
    }

    /// Fraction of L1 misses served by a local replica.
    pub fn replica_hit_fraction(&self) -> f64 {
        let misses = self.l1_misses();
        if misses == 0 {
            0.0
        } else {
            self.llc_replica_hits as f64 / misses as f64
        }
    }

    /// Fraction of L1 misses that left the chip.
    pub fn offchip_fraction(&self) -> f64 {
        let misses = self.l1_misses();
        if misses == 0 {
            0.0
        } else {
            self.offchip_misses as f64 / misses as f64
        }
    }

    /// The breakdown as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("l1_hits", JsonValue::from(self.l1_hits)),
            ("llc_replica_hits", JsonValue::from(self.llc_replica_hits)),
            ("llc_home_hits", JsonValue::from(self.llc_home_hits)),
            ("offchip_misses", JsonValue::from(self.offchip_misses)),
        ])
    }

    /// Rebuilds a breakdown from [`MissBreakdown::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("miss breakdown is missing {name:?}"))
        };
        Ok(MissBreakdown {
            l1_hits: field("l1_hits")?,
            llc_replica_hits: field("llc_replica_hits")?,
            llc_home_hits: field("llc_home_hits")?,
            offchip_misses: field("offchip_misses")?,
        })
    }
}

impl fmt::Display for MissBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1 misses: {} replica hits, {} home hits, {} off-chip ({} L1 hits)",
            self.llc_replica_hits, self.llc_home_hits, self.offchip_misses, self.l1_hits
        )
    }
}

/// Run-length characterization (Figure 1): for each data class, the
/// distribution of the number of LLC accesses a core makes to a line before
/// a conflicting access by another core or an eviction.
#[derive(Debug, Clone, Default)]
pub struct RunLengthProfile {
    // The histograms are ordered so the Debug rendering and any iteration
    // over the profile are byte-stable across runs.  The open-run tracker is
    // point-lookup-only (one entry per live line, touched on every LLC
    // access): it uses a fixed-seed fast map, and everything derived from it
    // goes through the histograms, whose bucket sums are order-independent.
    histograms: BTreeMap<DataClass, Histogram>,
    open_runs: FastMap<CacheLine, (CoreId, u64, DataClass)>,
}

impl RunLengthProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one LLC access by `core` to `line` of data class `class`.
    /// `conflicting` marks accesses that end other cores' runs (writes).
    pub fn record_access(
        &mut self,
        line: CacheLine,
        core: CoreId,
        class: DataClass,
        conflicting: bool,
    ) {
        match self.open_runs.get_mut(&line) {
            Some((owner, count, open_class)) if *owner == core && !conflicting => {
                *count += 1;
                *open_class = class;
            }
            Some((owner, count, open_class)) if *owner == core => {
                // A write by the same core extends its own run.
                *count += 1;
                *open_class = class;
            }
            Some(entry) => {
                // Conflicting or different core: close the previous run.
                let (_, count, open_class) = *entry;
                self.histograms.entry(open_class).or_default().record(count);
                *entry = (core, 1, class);
            }
            None => {
                self.open_runs.insert(line, (core, 1, class));
            }
        }
    }

    /// Records that `line` was evicted from the LLC, ending any open run.
    pub fn record_eviction(&mut self, line: CacheLine) {
        if let Some((_, count, class)) = self.open_runs.remove(&line) {
            self.histograms.entry(class).or_default().record(count);
        }
    }

    /// Closes all open runs (call at the end of the simulation).
    pub fn finalize(&mut self) {
        let open = std::mem::take(&mut self.open_runs);
        for (_, (_, count, class)) in open {
            self.histograms.entry(class).or_default().record(count);
        }
    }

    /// A finalized copy of this profile, leaving `self` untouched: the
    /// per-class histograms are cloned and every open run is folded in as if
    /// [`RunLengthProfile::finalize`] had been called.
    ///
    /// This is the checkpoint primitive used by `Simulator::report` — it
    /// never clones the open-run tracker (one entry per live cache line, by
    /// far the largest part of the profile mid-stream).  Folding order does
    /// not matter: histogram bucket counts are commutative sums.
    pub fn finalized_snapshot(&self) -> RunLengthProfile {
        let mut histograms = self.histograms.clone();
        for (_, count, class) in self.open_runs.values() {
            histograms.entry(*class).or_default().record(*count);
        }
        RunLengthProfile {
            histograms,
            open_runs: FastMap::default(),
        }
    }

    /// The open (not yet closed) runs as `(line, core, length, class)`
    /// tuples sorted by line — the checkpoint companion to
    /// [`RunLengthProfile::to_json`], which covers only the closed-run
    /// histograms.
    pub fn open_runs(&self) -> Vec<(CacheLine, CoreId, u64, DataClass)> {
        let mut runs: Vec<_> = self
            .open_runs
            .iter()
            .map(|(line, (core, count, class))| (*line, *core, *count, *class))
            .collect();
        runs.sort_unstable_by_key(|(line, ..)| *line);
        runs
    }

    /// The closed-run histograms by class — the checkpoint companion of
    /// [`RunLengthProfile::open_runs`].
    pub(crate) fn histograms(&self) -> &BTreeMap<DataClass, Histogram> {
        &self.histograms
    }

    /// Reinstates one class's closed-run histogram from a checkpoint.
    pub(crate) fn restore_histogram(&mut self, class: DataClass, histogram: Histogram) {
        self.histograms.insert(class, histogram);
    }

    /// Reinstates one open run from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length run or if the line already has an open run
    /// (a checkpoint holds at most one open run per line).
    pub fn restore_open_run(
        &mut self,
        line: CacheLine,
        core: CoreId,
        count: u64,
        class: DataClass,
    ) {
        assert!(count > 0, "an open run has at least one access");
        let previous = self.open_runs.insert(line, (core, count, class));
        assert!(previous.is_none(), "line {line:?} already has an open run");
    }

    /// Total recorded runs for a class.
    pub fn runs(&self, class: DataClass) -> u64 {
        self.histograms.get(&class).map_or(0, Histogram::count)
    }

    /// Accesses (weighted by run length) falling into the paper's three
    /// run-length buckets `[1-2]`, `[3-9]`, `[>= 10]` for a class.
    pub fn bucketed_accesses(&self, class: DataClass) -> [u64; 3] {
        match self.histograms.get(&class) {
            None => [0, 0, 0],
            Some(h) => {
                let mut buckets = [0u64; 3];
                for (value, count) in h.iter() {
                    let weighted = value * count;
                    if value <= 2 {
                        buckets[0] += weighted;
                    } else if value <= 9 {
                        buckets[1] += weighted;
                    } else {
                        buckets[2] += weighted;
                    }
                }
                buckets
            }
        }
    }

    /// Fraction of all LLC accesses in each `(class, bucket)` cell, matching
    /// one stacked bar of Figure 1.  Buckets are `[1-2]`, `[3-9]`, `[>=10]`.
    pub fn distribution(&self) -> Vec<(DataClass, [f64; 3])> {
        let totals: u64 = DataClass::ALL
            .iter()
            .map(|c| self.bucketed_accesses(*c).iter().sum::<u64>())
            .sum();
        DataClass::ALL
            .iter()
            .map(|c| {
                let buckets = self.bucketed_accesses(*c);
                let fractions = if totals == 0 {
                    [0.0; 3]
                } else {
                    [
                        buckets[0] as f64 / totals as f64,
                        buckets[1] as f64 / totals as f64,
                        buckets[2] as f64 / totals as f64,
                    ]
                };
                (*c, fractions)
            })
            .collect()
    }

    /// Mean run length for a class, if any runs were recorded.
    pub fn mean_run_length(&self, class: DataClass) -> Option<f64> {
        self.histograms.get(&class).and_then(Histogram::mean)
    }

    /// The per-class run-length histograms as a JSON object
    /// (`{class label: [[run length, count], ...]}`).  Open runs are not
    /// serialized — call [`RunLengthProfile::finalize`] first (reports
    /// produced by the simulator already are).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.histograms
                .iter()
                .map(|(class, histogram)| {
                    let samples: Vec<JsonValue> = histogram
                        .iter()
                        .map(|(value, count)| {
                            JsonValue::Array(vec![JsonValue::from(value), JsonValue::from(count)])
                        })
                        .collect();
                    (class.label().to_string(), JsonValue::Array(samples))
                })
                .collect(),
        )
    }

    /// Rebuilds a finalized profile from [`RunLengthProfile::to_json`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown class or malformed sample.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let pairs = value
            .as_object()
            .ok_or("run-length profile must be an object")?;
        let mut profile = RunLengthProfile::new();
        for (label, samples) in pairs {
            let class = DataClass::ALL
                .iter()
                .copied()
                .find(|c| c.label() == label)
                .ok_or_else(|| format!("unknown data class {label:?}"))?;
            let samples = samples
                .as_array()
                .ok_or_else(|| format!("run lengths of {label:?} must be an array"))?;
            let histogram = profile.histograms.entry(class).or_default();
            for sample in samples {
                let pair = sample.as_array().filter(|p| p.len() == 2);
                let (value, count) = match pair {
                    Some([v, c]) => (v.as_u64(), c.as_u64()),
                    _ => (None, None),
                };
                match (value, count) {
                    (Some(value), Some(count)) => histogram.record_weighted(value, count),
                    _ => return Err(format!("malformed run-length sample for {label:?}")),
                }
            }
        }
        Ok(profile)
    }
}

/// Diagnostic variance counters aggregated over every locality classifier
/// the run instantiated — both the classifiers still live in home entries
/// at stream end and the ones retired by LLC evictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifierStats {
    /// Total replica/non-replica mode transitions recorded by any tracked
    /// core (promotion on reaching RT, or settling to the other mode on
    /// eviction feedback).  High values mean the classifier keeps changing
    /// its mind about the same sharers.
    pub mode_flips: u64,
    /// High-water mark of tracked cores in any single classifier — for
    /// `Limited_k` organizations this saturates at `k`, so the gap to `k`
    /// shows whether the limited tracker was ever actually full.
    pub peak_tracked: u64,
}

impl ClassifierStats {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("mode_flips", JsonValue::from(self.mode_flips)),
            ("peak_tracked", JsonValue::from(self.peak_tracked)),
        ])
    }

    /// Rebuilds the counters from [`ClassifierStats::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("classifier stats are missing numeric field {name:?}"))
        };
        Ok(ClassifierStats {
            mode_flips: field("mode_flips")?,
            peak_tracked: field("peak_tracked")?,
        })
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Label of the scheme configuration (e.g. `RT-3`, `S-NUCA`,
    /// `RT-3/C-16`).
    pub scheme: String,
    /// Typed identity of the scheme, used as the experiment-matrix key.
    pub scheme_id: SchemeId,
    /// Parallel completion time (the slowest core).
    pub completion_time: Cycle,
    /// Completion-time components summed over cores.
    pub latency: LatencyBreakdown,
    /// How L1 misses were served.
    pub misses: MissBreakdown,
    /// Dynamic energy by component.
    pub energy: EnergyAccounting,
    /// Run-length characterization of the workload as observed at the LLC.
    pub run_lengths: RunLengthProfile,
    /// Total memory accesses simulated.
    pub total_accesses: u64,
    /// Total LLC replicas created.
    pub replicas_created: u64,
    /// Total back-invalidations caused by LLC evictions.
    pub back_invalidations: u64,
    /// Classifier variance: mode-flip count and tracked-core high-water
    /// mark, aggregated over live and evicted classifiers.
    pub classifier: ClassifierStats,
}

impl SimulationReport {
    /// Energy-delay product (total energy × completion time), the metric ASR
    /// levels are selected by.
    pub fn energy_delay_product(&self) -> f64 {
        self.energy.total() * self.completion_time.value() as f64
    }

    /// The full report as a JSON object — the machine-readable form emitted
    /// by the figure binaries' `--json` flag.  Numeric values round-trip
    /// exactly through [`SimulationReport::from_json`].
    pub fn to_json(&self) -> JsonValue {
        let energy = JsonValue::Object(
            self.energy
                .iter()
                .map(|(component, pj)| (component.label().to_string(), JsonValue::from(pj)))
                .collect(),
        );
        JsonValue::object([
            ("benchmark", JsonValue::from(self.benchmark.as_str())),
            ("scheme", JsonValue::from(self.scheme.as_str())),
            ("scheme_id", JsonValue::from(self.scheme_id.label())),
            (
                "completion_time",
                JsonValue::from(self.completion_time.value()),
            ),
            ("total_accesses", JsonValue::from(self.total_accesses)),
            ("replicas_created", JsonValue::from(self.replicas_created)),
            (
                "back_invalidations",
                JsonValue::from(self.back_invalidations),
            ),
            ("classifier", self.classifier.to_json()),
            ("latency", self.latency.to_json()),
            ("misses", self.misses.to_json()),
            ("energy", energy),
            ("run_lengths", self.run_lengths.to_json()),
        ])
    }

    /// Rebuilds a report from [`SimulationReport::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let str_field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report is missing string field {name:?}"))
        };
        let u64_field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("report is missing numeric field {name:?}"))
        };
        let energy_obj = value
            .get("energy")
            .and_then(JsonValue::as_object)
            .ok_or("report is missing the energy breakdown")?;
        let mut energy = EnergyAccounting::new();
        for (label, pj) in energy_obj {
            let component = Component::ALL
                .iter()
                .copied()
                .find(|c| c.label() == label)
                .ok_or_else(|| format!("unknown energy component {label:?}"))?;
            let pj = pj
                .as_f64()
                .ok_or_else(|| format!("energy of {label:?} must be a number"))?;
            if pj < 0.0 {
                return Err(format!("energy of {label:?} must be non-negative"));
            }
            energy.record(component, pj);
        }
        Ok(SimulationReport {
            benchmark: str_field("benchmark")?,
            scheme: str_field("scheme")?,
            scheme_id: SchemeId::parse(&str_field("scheme_id")?),
            completion_time: Cycle::new(u64_field("completion_time")?),
            latency: LatencyBreakdown::from_json(
                value
                    .get("latency")
                    .ok_or("report is missing the latency breakdown")?,
            )?,
            misses: MissBreakdown::from_json(
                value
                    .get("misses")
                    .ok_or("report is missing the miss breakdown")?,
            )?,
            energy,
            run_lengths: RunLengthProfile::from_json(
                value
                    .get("run_lengths")
                    .ok_or("report is missing the run-length profile")?,
            )?,
            total_accesses: u64_field("total_accesses")?,
            replicas_created: u64_field("replicas_created")?,
            back_invalidations: u64_field("back_invalidations")?,
            classifier: ClassifierStats::from_json(
                value
                    .get("classifier")
                    .ok_or("report is missing the classifier variance counters")?,
            )?,
        })
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} under {} ===", self.benchmark, self.scheme)?;
        writeln!(f, "completion time: {}", self.completion_time)?;
        writeln!(f, "{}", self.latency)?;
        writeln!(f, "{}", self.misses)?;
        writeln!(f, "replicas created: {}", self.replicas_created)?;
        write!(f, "{}", self.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_energy::accounting::Component;

    #[test]
    fn latency_breakdown_totals_and_merge() {
        let mut a = LatencyBreakdown {
            compute: 10,
            l1_to_llc_home: 5,
            ..Default::default()
        };
        let b = LatencyBreakdown {
            llc_home_waiting: 3,
            synchronization: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.values().len(), LatencyBreakdown::LABELS.len());
        let text = a.to_string();
        for label in LatencyBreakdown::LABELS {
            assert!(text.contains(label));
        }
    }

    #[test]
    fn miss_breakdown_fractions() {
        let m = MissBreakdown {
            l1_hits: 100,
            llc_replica_hits: 30,
            llc_home_hits: 50,
            offchip_misses: 20,
        };
        assert_eq!(m.l1_misses(), 100);
        assert!((m.replica_hit_fraction() - 0.3).abs() < 1e-12);
        assert!((m.offchip_fraction() - 0.2).abs() < 1e-12);
        let empty = MissBreakdown::default();
        assert_eq!(empty.replica_hit_fraction(), 0.0);
        assert_eq!(empty.offchip_fraction(), 0.0);
        assert!(m.to_string().contains("30 replica hits"));
    }

    #[test]
    fn run_length_same_core_extends_run() {
        let mut p = RunLengthProfile::new();
        let line = CacheLine::from_index(1);
        for _ in 0..5 {
            p.record_access(line, CoreId::new(0), DataClass::SharedReadWrite, false);
        }
        p.finalize();
        assert_eq!(p.runs(DataClass::SharedReadWrite), 1);
        assert_eq!(p.mean_run_length(DataClass::SharedReadWrite), Some(5.0));
        assert_eq!(p.bucketed_accesses(DataClass::SharedReadWrite), [0, 5, 0]);
    }

    #[test]
    fn run_length_conflicting_access_closes_run() {
        let mut p = RunLengthProfile::new();
        let line = CacheLine::from_index(1);
        p.record_access(line, CoreId::new(0), DataClass::SharedReadWrite, false);
        p.record_access(line, CoreId::new(0), DataClass::SharedReadWrite, false);
        // Core 1 writes: closes core 0's run of length 2.
        p.record_access(line, CoreId::new(1), DataClass::SharedReadWrite, true);
        p.finalize();
        assert_eq!(p.runs(DataClass::SharedReadWrite), 2);
        assert_eq!(p.bucketed_accesses(DataClass::SharedReadWrite), [3, 0, 0]);
    }

    #[test]
    fn run_length_eviction_closes_run() {
        let mut p = RunLengthProfile::new();
        let line = CacheLine::from_index(2);
        for _ in 0..12 {
            p.record_access(line, CoreId::new(3), DataClass::Instruction, false);
        }
        p.record_eviction(line);
        assert_eq!(p.runs(DataClass::Instruction), 1);
        assert_eq!(p.bucketed_accesses(DataClass::Instruction), [0, 0, 12]);
        // Evicting an untracked line is a no-op.
        p.record_eviction(CacheLine::from_index(99));
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let mut p = RunLengthProfile::new();
        p.record_access(
            CacheLine::from_index(1),
            CoreId::new(0),
            DataClass::Private,
            false,
        );
        for _ in 0..9 {
            p.record_access(
                CacheLine::from_index(2),
                CoreId::new(1),
                DataClass::Instruction,
                false,
            );
        }
        p.finalize();
        let total: f64 = p.distribution().iter().flat_map(|(_, b)| b.iter()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Empty profile: all zero.
        let empty = RunLengthProfile::new();
        let total: f64 = empty
            .distribution()
            .iter()
            .flat_map(|(_, b)| b.iter())
            .sum();
        assert_eq!(total, 0.0);
    }

    #[test]
    fn report_derived_metrics() {
        let mut energy = EnergyAccounting::new();
        energy.record(Component::Dram, 1000.0);
        let report = SimulationReport {
            benchmark: "TEST".to_string(),
            scheme: "RT-3".to_string(),
            scheme_id: SchemeId::Rt(3),
            completion_time: Cycle::new(500),
            latency: LatencyBreakdown {
                compute: 100,
                l1_to_llc_home: 300,
                synchronization: 50,
                ..Default::default()
            },
            misses: MissBreakdown::default(),
            energy,
            run_lengths: RunLengthProfile::new(),
            total_accesses: 100,
            replicas_created: 5,
            back_invalidations: 0,
            classifier: ClassifierStats::default(),
        };
        assert!((report.energy_delay_product() - 1000.0 * 500.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("TEST"));
        assert!(text.contains("RT-3"));
    }

    #[test]
    fn report_json_roundtrips_exactly() {
        let mut energy = EnergyAccounting::new();
        energy.record(Component::Dram, 1234.5678901234);
        energy.record(Component::L2Cache, 0.1 + 0.2);
        let mut run_lengths = RunLengthProfile::new();
        for _ in 0..5 {
            run_lengths.record_access(
                CacheLine::from_index(1),
                CoreId::new(0),
                DataClass::SharedReadWrite,
                false,
            );
        }
        run_lengths.record_access(
            CacheLine::from_index(2),
            CoreId::new(1),
            DataClass::Private,
            true,
        );
        run_lengths.finalize();
        let report = SimulationReport {
            benchmark: "BARNES".to_string(),
            scheme: "ASR-0.50".to_string(),
            scheme_id: SchemeId::AsrAt(50),
            completion_time: Cycle::new(987_654_321),
            latency: LatencyBreakdown {
                compute: 1,
                l1_to_llc_replica: 2,
                l1_to_llc_home: 3,
                llc_home_waiting: 4,
                llc_home_to_sharers: 5,
                llc_home_to_offchip: 6,
                synchronization: 7,
            },
            misses: MissBreakdown {
                l1_hits: 10,
                llc_replica_hits: 11,
                llc_home_hits: 12,
                offchip_misses: 13,
            },
            energy,
            run_lengths,
            total_accesses: 46,
            replicas_created: 3,
            back_invalidations: 1,
            classifier: ClassifierStats {
                mode_flips: 17,
                peak_tracked: 9,
            },
        };

        // Through the document model and through the textual serializer.
        let json = report.to_json();
        let text = json.pretty();
        let reparsed = lad_common::json::JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, json);
        let decoded = SimulationReport::from_json(&reparsed).unwrap();
        // The Debug rendering covers every field, including histogram
        // contents and exact float totals.
        assert_eq!(format!("{decoded:?}"), format!("{report:?}"));
    }

    #[test]
    fn report_from_json_rejects_malformed_documents() {
        let report = SimulationReport {
            benchmark: "T".to_string(),
            scheme: "S-NUCA".to_string(),
            scheme_id: SchemeId::StaticNuca,
            completion_time: Cycle::new(1),
            latency: LatencyBreakdown::default(),
            misses: MissBreakdown::default(),
            energy: EnergyAccounting::new(),
            run_lengths: RunLengthProfile::new(),
            total_accesses: 0,
            replicas_created: 0,
            back_invalidations: 0,
            classifier: ClassifierStats::default(),
        };
        let json = report.to_json();
        // Removing any top-level field must produce an error, not a panic.
        if let JsonValue::Object(pairs) = &json {
            for i in 0..pairs.len() {
                let mut broken = pairs.clone();
                broken.remove(i);
                assert!(
                    SimulationReport::from_json(&JsonValue::Object(broken)).is_err(),
                    "dropping field {} must fail",
                    pairs[i].0
                );
            }
        } else {
            panic!("report JSON must be an object");
        }
        assert!(SimulationReport::from_json(&JsonValue::Null).is_err());
    }
}
