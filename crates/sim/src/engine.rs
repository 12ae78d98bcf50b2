//! The protocol engine: drives every memory access through the L1 caches,
//! the replica and home LLC slices, the directory, the classifier, the NoC
//! and DRAM, accumulating the paper's latency, miss and energy breakdowns.
//!
//! Every replication *decision* is delegated to the simulator's
//! [`ReplicationPolicy`], so the same timing skeleton runs the paper's five
//! schemes and any out-of-crate policy registered through a
//! [`SchemeRegistry`](lad_replication::policy::SchemeRegistry).

use std::collections::BTreeSet;
use std::sync::Arc;

use lad_cache::replacement::PlainLru;
use lad_check::{check_view, require, violated, HomeSummary, Invariant, ProtocolView, Violation};
use lad_coherence::ackwise::InvalidationTargets;
use lad_coherence::mesi::MesiState;
use lad_common::collections::FastMap;
use lad_common::config::SystemConfig;
use lad_common::rng::DeterministicRng;
use lad_common::types::{CacheLine, CoreId, Cycle, DataClass, MemoryAccess};
use lad_dram::controller::DramSystem;
use lad_energy::accounting::{Component, EnergyAccounting};
use lad_energy::model::EnergyModel;
use lad_noc::message::MessageKind;
use lad_noc::Network;
use lad_obs::{Counter, MetricsRegistry};
use lad_replication::config::ReplicationConfig;
use lad_replication::entry::{HomeEntry, LlcEntry, ReplicaEntry};
use lad_replication::placement::HomeMap;
use lad_replication::policy::{builtin_policy, EvictDecision, FillDecision, ReplicationPolicy};
use lad_trace::generator::WorkloadTrace;
use lad_traceio::error::TraceError;
use lad_traceio::source::{MemorySource, TraceSource};

use crate::checkpoint::{EngineCheckpoint, ResumeError};
use crate::metrics::{
    ClassifierStats, LatencyBreakdown, MissBreakdown, RunLengthProfile, SimulationReport,
};
use crate::schedule::CoreScheduler;
use crate::tile::Tile;

/// Seed of the simulator's internal randomness (ASR's probabilistic
/// replication), reapplied at every [`Simulator::begin`]; simulation is
/// otherwise deterministic.
const RNG_SEED: u64 = 0x5eed;

/// Where one memory access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// The access hit in the core's private L1 cache.
    L1,
    /// The L1 miss hit an LLC replica at the local (or cluster) slice.
    LlcReplica,
    /// The L1 miss was served at the line's home LLC slice.
    LlcHome,
    /// The line had to be fetched from off-chip DRAM.
    OffChip,
}

/// The result of driving one access through [`Simulator::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The issuing core.
    pub core: CoreId,
    /// Where the access was served.
    pub served_by: ServedBy,
    /// The issuing core's local clock after the access completed.
    pub finish: Cycle,
}

/// Periodic callback driven by [`Simulator::run_source_observed`] at
/// scheduling-loop boundaries — the hook for progress reporting, periodic
/// checkpoint spills and cooperative cancellation.
pub trait RunObserver {
    /// Number of stepped accesses between [`RunObserver::observe`] calls
    /// (values below 1 are treated as 1; sampled once at loop entry).
    fn interval(&self) -> u64;

    /// Called every [`RunObserver::interval`] accesses with a [`RunProgress`]
    /// view of the live run.  Return [`RunControl::Cancel`] to stop the run
    /// at this boundary with a resumable checkpoint.
    fn observe(&mut self, progress: RunProgress<'_>) -> RunControl;
}

/// The observer's verdict after each [`RunObserver::observe`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep running.
    Continue,
    /// Stop at this scheduling boundary and return a resumable checkpoint.
    Cancel,
}

/// Read-only view of a live run, handed to [`RunObserver::observe`].
#[derive(Debug)]
pub struct RunProgress<'a> {
    sim: &'a Simulator,
    consumed: &'a [u64],
}

impl RunProgress<'_> {
    /// The running simulator (for [`Simulator::report`]-style snapshots).
    pub fn simulator(&self) -> &Simulator {
        self.sim
    }

    /// Accesses each core has stepped so far.
    pub fn consumed(&self) -> &[u64] {
        self.consumed
    }

    /// Total accesses stepped so far (including any resumed prefix).
    pub fn total_accesses(&self) -> u64 {
        self.sim.total_accesses
    }

    /// Builds a resumable checkpoint of the run at this boundary.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        self.sim.capture_checkpoint(self.consumed)
    }
}

/// How an observed run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The stream drained; the finished report.  Boxed like the
    /// checkpoint so the enum stays pointer-sized on the happy path too.
    Completed(Box<SimulationReport>),
    /// The observer cancelled; resume from the carried checkpoint.
    Cancelled(Box<EngineCheckpoint>),
}

/// A [`RunObserver`] that cancels after a fixed number of stepped accesses —
/// the building block for "checkpoint every N accesses" tests and for
/// bounded execution slices.
#[derive(Debug, Clone, Copy)]
pub struct StopAfter {
    limit: u64,
}

impl StopAfter {
    /// Cancels the run once `limit` accesses have been stepped (counted from
    /// loop entry, i.e. from the resume point on resumed runs).
    pub fn new(limit: u64) -> Self {
        StopAfter {
            limit: limit.max(1),
        }
    }
}

impl RunObserver for StopAfter {
    fn interval(&self) -> u64 {
        self.limit
    }

    fn observe(&mut self, _progress: RunProgress<'_>) -> RunControl {
        RunControl::Cancel
    }
}

/// Result of probing one sharer during an invalidation round.
#[derive(Debug, Clone, Copy)]
struct SharerProbe {
    target: CoreId,
    replica_reuse: Option<u32>,
    had_copy: bool,
    dirty: bool,
}

/// Returns the home entry for `line` at `home`, which must exist.  A free
/// function over the tiles, so callers can hold it beside other fields.
fn home_entry(tiles: &mut [Tile], home: CoreId, line: CacheLine) -> &mut HomeEntry {
    tiles[home.index()]
        .llc
        .probe_mut(line)
        .and_then(LlcEntry::as_home_mut)
        .unwrap_or_else(|| {
            violated(
                Invariant::HomeResidentDuringRequest,
                &format!("line {line:?} has no home entry at {home:?} mid-request"),
            )
        })
}

/// The full-system simulator.
///
/// A simulator is built for one system configuration and one LLC management
/// scheme; [`Simulator::run`] executes a workload trace to completion and
/// produces a [`SimulationReport`].  Internal state is reset at the start of
/// every run, so the same simulator can execute several traces.  The tiles
/// are built once, with the simulator, and cleared in place by every
/// [`Simulator::begin`]: a run pays for the cache state it touches, not for
/// the capacity of its caches.
///
/// # Stepping
///
/// `run` is a thin loop over the resumable stepping API, which is public so
/// traces can be streamed, interleaved with other work, and checkpointed:
///
/// 1. [`Simulator::begin`] resets state for a stream spanning `num_cores`
///    cores,
/// 2. [`Simulator::profile_access`] feeds the profiling pass (page
///    classification for R-NUCA placement; ground-truth data classes),
/// 3. [`Simulator::step`] executes one access and returns where it was
///    served ([`AccessOutcome`]),
/// 4. [`Simulator::report`] snapshots a full [`SimulationReport`] at any
///    point — it does not consume state, so it can checkpoint a simulation
///    mid-stream and be called again after more steps.
#[derive(Debug)]
pub struct Simulator {
    // The `pub(crate)` fields are the run state the checkpoint module
    // captures and restores.
    system: SystemConfig,
    pub(crate) replication: ReplicationConfig,
    policy: Arc<dyn ReplicationPolicy>,
    energy_model: EnergyModel,
    pub(crate) benchmark: String,
    pub(crate) active_cores: usize,

    pub(crate) tiles: Vec<Tile>,
    pub(crate) network: Network,
    pub(crate) dram: DramSystem,
    home_map: HomeMap,
    // Point-lookup-only state whose iteration order never feeds a report;
    // the fixed-seed fast maps keep the per-access lookups cheap.
    line_class: FastMap<CacheLine, DataClass>,
    pub(crate) line_busy_until: FastMap<CacheLine, Cycle>,
    pub(crate) rng: DeterministicRng,

    pub(crate) energy: EnergyAccounting,
    pub(crate) latency: LatencyBreakdown,
    pub(crate) misses: MissBreakdown,
    pub(crate) run_lengths: RunLengthProfile,
    pub(crate) replicas_created: u64,
    pub(crate) back_invalidations: u64,
    pub(crate) total_accesses: u64,
    // Classifier variance folded in from home entries retired by LLC
    // eviction; report() combines these with a walk of the live entries.
    pub(crate) retired_classifier_flips: u64,
    pub(crate) retired_classifier_peak: u64,

    obs: EngineMetrics,
}

/// Pre-resolved engine instrument handles (see [`lad_obs`]).  Resolved
/// from the process-wide registry by default;
/// [`Simulator::set_metrics_registry`] re-resolves them against another
/// registry, such as a disarmed [`MetricsRegistry::noop`].
#[derive(Debug, Clone)]
struct EngineMetrics {
    accesses: Counter,
    runs_completed: Counter,
    checkpoints_captured: Counter,
}

impl EngineMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            accesses: registry.counter(
                "lad_engine_accesses_total",
                "memory accesses simulated across all runs",
            ),
            runs_completed: registry.counter(
                "lad_engine_runs_completed_total",
                "simulation streams run to completion",
            ),
            checkpoints_captured: registry.counter(
                "lad_engine_checkpoints_total",
                "resumable checkpoints captured on cancellation",
            ),
        }
    }
}

impl Simulator {
    /// Builds a simulator for one system configuration and scheme, using the
    /// default energy model and the built-in policy of `replication.scheme`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration fails validation, or if
    /// `replication.scheme` has no built-in policy: the collapsed
    /// `SchemeId::Asr` column (runs use `SchemeId::AsrAt`) or a
    /// `SchemeId::Custom` id (build those with
    /// [`Simulator::with_policy_and_energy_model`]).
    pub fn new(system: SystemConfig, replication: ReplicationConfig) -> Self {
        let Some(policy) = builtin_policy(replication.scheme) else {
            panic!(
                "scheme {} has no built-in policy; pass its policy to \
                 Simulator::with_policy_and_energy_model",
                replication.scheme
            );
        };
        Self::with_policy_and_energy_model(
            system,
            replication,
            policy,
            EnergyModel::paper_default(),
        )
    }

    /// Builds a simulator around a custom [`ReplicationPolicy`] (registered
    /// or not) and an explicit energy model.  The policy names the scheme:
    /// `replication.scheme` is set to its id, as
    /// [`SchemeRegistry::register`](lad_replication::policy::SchemeRegistry::register)
    /// does, so the replication threshold, the report label and every
    /// replication decision follow the policy.  `replication` supplies the
    /// other engine knobs (classifier organization, cluster size, LLC
    /// replacement).
    ///
    /// # Panics
    ///
    /// Panics if any configuration fails validation.
    pub fn with_policy_and_energy_model(
        system: SystemConfig,
        replication: ReplicationConfig,
        policy: Arc<dyn ReplicationPolicy>,
        energy_model: EnergyModel,
    ) -> Self {
        let replication = ReplicationConfig {
            scheme: policy.id(),
            ..replication
        };
        if let Err(error) = system.validate() {
            panic!("system configuration must be valid: {error}");
        }
        if let Err(error) = replication.validate() {
            panic!("replication configuration must be valid: {error}");
        }
        if let Err(error) = energy_model.validate() {
            panic!("energy model must be valid: {error}");
        }
        // The only place tiles are made: `reset` clears them in place.
        let tiles = (0..system.num_cores)
            .map(|_| Tile::new(&system, &replication))
            .collect();
        let (network, dram, home_map) = Self::build_uncore(&system, policy.as_ref());
        let active_cores = system.num_cores;
        Simulator {
            tiles,
            network,
            dram,
            home_map,
            line_class: FastMap::default(),
            line_busy_until: FastMap::default(),
            rng: DeterministicRng::seed_from(RNG_SEED),
            energy: EnergyAccounting::new(),
            latency: LatencyBreakdown::default(),
            misses: MissBreakdown::default(),
            run_lengths: RunLengthProfile::new(),
            replicas_created: 0,
            back_invalidations: 0,
            total_accesses: 0,
            retired_classifier_flips: 0,
            retired_classifier_peak: 0,
            obs: EngineMetrics::resolve(lad_obs::global()),
            system,
            replication,
            policy,
            energy_model,
            benchmark: String::new(),
            active_cores,
        }
    }

    /// Re-resolves the engine's instrument handles against `registry`
    /// instead of the process-wide [`lad_obs::global`] default.  Recording
    /// never affects simulation results; a [`MetricsRegistry::noop`]
    /// registry disarms the handles, so its instruments export zero.
    pub fn set_metrics_registry(&mut self, registry: &MetricsRegistry) {
        self.obs = EngineMetrics::resolve(registry);
    }

    /// The system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The local clock of one core — external drivers use this to interleave
    /// streams the way [`Simulator::run`] does (always advance the core that
    /// is furthest behind).
    pub fn core_clock(&self, core: CoreId) -> Cycle {
        self.tiles[core.index()].clock
    }

    /// The tiles, in core order: each core's clock, L1 caches and LLC
    /// slice, read-only.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// The network, DRAM and home map of a new run.  They are small, so
    /// [`Simulator::reset`] builds them afresh.
    fn build_uncore(
        system: &SystemConfig,
        policy: &dyn ReplicationPolicy,
    ) -> (Network, DramSystem, HomeMap) {
        let network = Network::new(&system.network, system.cache_line_bytes);
        let controller_cores = (0..system.dram.num_controllers)
            .map(|i| system.dram_controller_core(i))
            .collect();
        let dram = DramSystem::new(&system.dram, system.cache_line_bytes, controller_cores);
        let home_map = HomeMap::new(
            policy.placement(),
            system.num_cores,
            system.cache_line_bytes,
            system.page_bytes,
        );
        (network, dram, home_map)
    }

    /// Returns every piece of run state to what [`Simulator::build`] made.
    /// The tiles hold most of the simulator's memory, so they are cleared in
    /// place (costing what the last run touched) rather than rebuilt.
    fn reset(&mut self) {
        for tile in &mut self.tiles {
            tile.clear();
        }
        (self.network, self.dram, self.home_map) =
            Self::build_uncore(&self.system, self.policy.as_ref());
        self.line_class.clear();
        self.line_busy_until.clear();
        self.rng = DeterministicRng::seed_from(RNG_SEED);
        self.energy = EnergyAccounting::new();
        self.latency = LatencyBreakdown::default();
        self.misses = MissBreakdown::default();
        self.run_lengths = RunLengthProfile::new();
        self.replicas_created = 0;
        self.back_invalidations = 0;
        self.total_accesses = 0;
        self.retired_classifier_flips = 0;
        self.retired_classifier_peak = 0;
    }

    // ----- the stepping API ------------------------------------------------

    /// Resets all simulation state and starts a new access stream named
    /// `benchmark` that spans cores `0..num_cores`.
    ///
    /// # Panics
    ///
    /// Panics if the stream spans more cores than the simulated system has.
    pub fn begin(&mut self, benchmark: &str, num_cores: usize) {
        require(
            Invariant::TraceCoreBound,
            num_cores <= self.system.num_cores,
            || {
                format!(
                    "trace has {} cores but the system only has {}",
                    num_cores, self.system.num_cores
                )
            },
        );
        self.reset();
        self.benchmark = benchmark.to_string();
        self.active_cores = num_cores;
    }

    /// Feeds one access to the profiling pass: page classification for
    /// R-NUCA placement and the ground-truth data class of every line (used
    /// by ASR and the Figure 1 characterization).  Call for every access of
    /// the stream between [`Simulator::begin`] and the first
    /// [`Simulator::step`]; streaming drivers that cannot afford a full
    /// profiling pass may skip it at the cost of degraded R-NUCA placement
    /// and ASR classification.
    pub fn profile_access(&mut self, access: &MemoryAccess) {
        let line = access.address.line(self.system.cache_line_bytes);
        self.home_map
            .record_page_access(line, access.core, access.op.is_instruction());
        self.line_class.entry(line).or_insert(access.class);
    }

    /// Executes one memory access and returns where it was served.
    ///
    /// Accesses of different cores may be submitted in any order; for
    /// results comparable to [`Simulator::run`], advance the core whose
    /// [`Simulator::core_clock`] is smallest first.
    pub fn step(&mut self, access: &MemoryAccess) -> AccessOutcome {
        let served_by = self.process_access(access);
        self.total_accesses += 1;
        AccessOutcome {
            core: access.core,
            served_by,
            finish: self.tiles[access.core.index()].clock,
        }
    }

    /// Snapshots the simulation results accumulated so far into a
    /// [`SimulationReport`].
    ///
    /// The snapshot includes the final-barrier synchronization time as if
    /// the stream ended now, but does not consume or alter any state:
    /// stepping can continue afterwards, which makes this the checkpoint
    /// primitive for long streams.
    pub fn report(&self) -> SimulationReport {
        // Final barrier: completion is the slowest core; the rest synchronize.
        let completion = (0..self.active_cores)
            .map(|c| self.tiles[c].clock)
            .fold(Cycle::ZERO, Cycle::max);
        let mut latency = self.latency;
        for c in 0..self.active_cores {
            latency.synchronization += completion.since(self.tiles[c].clock).value();
        }
        // Fold open runs into cloned per-class histograms without copying
        // the open-run tracker (one entry per live line — the bulk of the
        // profile mid-stream).  At stream end `run_source` has already
        // finalized in place, so this clones a handful of histograms only.
        let run_lengths = self.run_lengths.finalized_snapshot();

        // Network and DRAM energy from their cumulative event counts.
        let mut energy = self.energy.clone();
        let stats = self.network.stats();
        energy.record(
            Component::NetworkRouter,
            stats.router_traversals() as f64 * self.energy_model.router_flit_pj,
        );
        energy.record(
            Component::NetworkLink,
            stats.flit_hops() as f64 * self.energy_model.link_flit_hop_pj,
        );
        energy.record(
            Component::Dram,
            self.dram.total_accesses() as f64 * self.energy_model.dram_access_pj,
        );

        SimulationReport {
            benchmark: self.benchmark.clone(),
            scheme: self.replication.label(),
            scheme_id: self.policy.id(),
            completion_time: completion,
            latency,
            misses: self.misses,
            energy,
            run_lengths,
            total_accesses: self.total_accesses,
            replicas_created: self.replicas_created,
            back_invalidations: self.back_invalidations,
            classifier: self.classifier_stats(),
        }
    }

    /// Classifier variance over the run so far: the counters folded in
    /// from evicted home entries combined with a walk of the live ones.
    fn classifier_stats(&self) -> ClassifierStats {
        let mut stats = ClassifierStats {
            mode_flips: self.retired_classifier_flips,
            peak_tracked: self.retired_classifier_peak,
        };
        for tile in &self.tiles {
            for (_, entry) in tile.llc.iter() {
                if let LlcEntry::Home(home) = entry {
                    stats.mode_flips += home.classifier.mode_flips();
                    stats.peak_tracked = stats
                        .peak_tracked
                        .max(home.classifier.peak_tracked() as u64);
                }
            }
        }
        stats
    }

    /// Runs a workload trace to completion: a profiling pass, then a loop
    /// over [`Simulator::step`] that always advances the core furthest
    /// behind, then a [`Simulator::report`] snapshot.
    ///
    /// This is [`Simulator::run_source`] over an in-memory
    /// [`MemorySource`]; recorded traces replayed through `run_source`
    /// therefore produce byte-identical reports to this method.
    ///
    /// # Panics
    ///
    /// Panics if the trace was generated for more cores than the simulated
    /// system has.
    pub fn run(&mut self, trace: &WorkloadTrace) -> SimulationReport {
        require(
            Invariant::TraceCoreBound,
            trace.num_cores() <= self.system.num_cores,
            || {
                format!(
                    "trace has {} cores but the system only has {}",
                    trace.num_cores(),
                    self.system.num_cores
                )
            },
        );
        let mut source = MemorySource::new(trace);
        self.run_source(&mut source)
            .unwrap_or_else(|error| unreachable!("in-memory traces cannot fail to stream: {error}"))
    }

    /// Runs any [`TraceSource`] to completion — the streaming counterpart
    /// of [`Simulator::run`], consuming file-backed traces in O(chunk)
    /// memory instead of O(trace).
    ///
    /// The schedule produces reports byte-identical to `run`: a whole-trace
    /// profiling pass (page classification and ground-truth data classes —
    /// whose final state is the same in any complete order, so each source
    /// serves its cheapest order via [`TraceSource::next_access`]), a
    /// rewind, then a stepping loop that always advances the core whose
    /// local clock is furthest behind (ties to the lowest core index).
    ///
    /// # Errors
    ///
    /// [`TraceError::CoreCountExceeded`] when the source spans more cores
    /// than the simulated system has (before any state is touched), and
    /// any [`TraceError`] from the source (decode failures, I/O) — the
    /// simulator's accumulated state is then that of the prefix executed so
    /// far.
    pub fn run_source(
        &mut self,
        source: &mut dyn TraceSource,
    ) -> Result<SimulationReport, TraceError> {
        match self.run_source_observed(source, None)? {
            RunOutcome::Completed(report) => Ok(*report),
            RunOutcome::Cancelled(_) => unreachable!("without an observer nothing can cancel"),
        }
    }

    /// [`Simulator::run_source`] with a [`RunObserver`] called at scheduling
    /// boundaries every [`RunObserver::interval`] accesses — the hook for
    /// progress reporting, periodic checkpoint spills, and cancellation.
    ///
    /// Returning [`RunControl::Cancel`] stops the run at the current loop
    /// boundary and yields [`RunOutcome::Cancelled`] carrying an
    /// [`EngineCheckpoint`] from which [`Simulator::resume_source`] continues
    /// with results byte-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::run_source`].
    pub fn run_source_observed(
        &mut self,
        source: &mut dyn TraceSource,
        observer: Option<&mut dyn RunObserver>,
    ) -> Result<RunOutcome, TraceError> {
        let name = source.name().to_string();
        let num_cores = source.num_cores();
        if num_cores > self.system.num_cores {
            return Err(TraceError::CoreCountExceeded {
                trace_cores: num_cores,
                limit: self.system.num_cores,
            });
        }
        self.begin(&name, num_cores);
        self.profile_source(source)?;
        source.rewind()?;
        self.execute_source(source, num_cores, vec![0; num_cores], observer)
    }

    /// Continues a run from an [`EngineCheckpoint`] captured on the same
    /// benchmark, scheme and configuration, producing results byte-identical
    /// to the uninterrupted run.
    ///
    /// [`Simulator::begin`] resets the simulator for the source, and the
    /// checkpoint body is decoded straight into it, each value checked
    /// before it is stored.  The home map and per-line data classes are then
    /// rebuilt by re-running the profiling pass (their final state is
    /// order-independent and they never change after profiling), the
    /// restored state is checked against the `lad-check` invariant catalog,
    /// each core's stream is fast-forwarded by the checkpoint's cursor, and
    /// the scheduling loop continues — rebuilding the scheduler heap from
    /// the restored clocks reproduces the continuation schedule exactly,
    /// because the next core is always the minimum `(clock, core)` key over
    /// the pending set.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Rejected`], with the simulator reset, if the body does
    /// not decode or does not fit the source (benchmark name, core count) or
    /// this simulator (scheme label, replication threshold, classifier
    /// organization, tile, link and controller counts, cache geometry) —
    /// all found before the profiling pass — or if the restored state
    /// violates the protocol invariant catalog or the stream is shorter than
    /// the checkpoint's cursor; [`ResumeError::Trace`] for anything
    /// [`Simulator::run_source`] can fail with.
    pub fn resume_source(
        &mut self,
        source: &mut dyn TraceSource,
        checkpoint: &EngineCheckpoint,
        observer: Option<&mut dyn RunObserver>,
    ) -> Result<RunOutcome, ResumeError> {
        let name = source.name().to_string();
        let num_cores = source.num_cores();
        if num_cores > self.system.num_cores {
            return Err(ResumeError::Trace(TraceError::CoreCountExceeded {
                trace_cores: num_cores,
                limit: self.system.num_cores,
            }));
        }
        self.begin(&name, num_cores);
        let consumed = match checkpoint.restore(self) {
            Ok(consumed) => consumed,
            Err(why) => return Err(self.reject(why)),
        };
        self.profile_source(source)?;
        source.rewind()?;
        if let Some(violation) = self.check_protocol_invariants().first() {
            let why = format!(
                "restored state violates [{}]: {}",
                violation.invariant, violation.details
            );
            return Err(self.reject(why));
        }
        // Fast-forward every core's stream past the accesses it has already
        // stepped; the remaining per-core suffixes are exactly the pending
        // windows the interrupted loop still had to execute.
        for (core, &cursor) in consumed.iter().enumerate() {
            for _ in 0..cursor {
                if source.next_for_core(CoreId::new(core))?.is_none() {
                    return Err(self.reject(format!(
                        "stream for core {core} is shorter than the checkpoint cursor {cursor}"
                    )));
                }
            }
        }
        Ok(self.execute_source(source, num_cores, consumed, observer)?)
    }

    /// Resets the state a rejected checkpoint left behind and returns the
    /// rejection.
    fn reject(&mut self, why: String) -> ResumeError {
        self.reset();
        ResumeError::Rejected(why)
    }

    /// The profiling pass shared by [`Simulator::run_source_observed`] and
    /// [`Simulator::resume_source`].  Page classification and the per-line
    /// class map converge to the same final state in any complete order
    /// (instruction marking is sticky, the private→shared upgrade is
    /// commutative, and a line's class is consistent within a trace), so the
    /// source streams in its own order — file order for LADT readers, which
    /// keeps replay memory O(chunk).
    fn profile_source(&mut self, source: &mut dyn TraceSource) -> Result<(), TraceError> {
        source.rewind()?;
        while let Some(access) = source.next_access()? {
            self.profile_access(&access);
        }
        Ok(())
    }

    /// Execution pass: interleave cores by local time, always advancing the
    /// core that is furthest behind (ties to the lowest index).  A min-heap
    /// of (clock, core) replaces the per-access linear scan: stepping
    /// mutates only the issuing core's clock, so every other heap key stays
    /// valid (see `crate::schedule`).  While the stepped core's new key is
    /// still <= the heap minimum it keeps running without any heap traffic
    /// — batched dispatch.
    ///
    /// `consumed` carries the per-core cursor of accesses already stepped
    /// (all zeros for a fresh run); the source must already be positioned on
    /// each core's first unstepped access.
    ///
    /// The accesses stepped are added to `lad_engine_accesses_total` once,
    /// however the pass ends: completed, cancelled or failed, so the
    /// per-step cost of observation is nothing.
    fn execute_source(
        &mut self,
        source: &mut dyn TraceSource,
        num_cores: usize,
        consumed: Vec<u64>,
        observer: Option<&mut dyn RunObserver>,
    ) -> Result<RunOutcome, TraceError> {
        let before = self.total_accesses;
        let outcome = self.dispatch_source(source, num_cores, consumed, observer);
        self.obs.accesses.add(self.total_accesses - before);
        outcome
    }

    /// The scheduling loop of [`Simulator::execute_source`].
    fn dispatch_source(
        &mut self,
        source: &mut dyn TraceSource,
        num_cores: usize,
        mut consumed: Vec<u64>,
        mut observer: Option<&mut dyn RunObserver>,
    ) -> Result<RunOutcome, TraceError> {
        let mut pending: Vec<Option<MemoryAccess>> = Vec::with_capacity(num_cores);
        let mut scheduler = CoreScheduler::with_capacity(num_cores);
        for core in 0..num_cores {
            let access = source.next_for_core(CoreId::new(core))?;
            if access.is_some() {
                scheduler.push(core, self.tiles[core].clock);
            }
            pending.push(access);
        }
        let interval = observer.as_ref().map_or(u64::MAX, |o| o.interval().max(1));
        let mut since_observe: u64 = 0;
        #[cfg(debug_assertions)]
        let mut steps_since_check: u32 = 0;
        let mut current = scheduler.pop();
        while let Some(core) = current {
            let Some(access) = pending[core].take() else {
                unreachable!("scheduled cores always have a pending access");
            };
            self.step(&access);
            consumed[core] += 1;
            pending[core] = source.next_for_core(CoreId::new(core))?;

            // Debug builds sweep the live state against the shared invariant
            // catalog every `RUNTIME_CHECK_INTERVAL` steps (and once more
            // after the stream drains, below).
            #[cfg(debug_assertions)]
            {
                steps_since_check += 1;
                if steps_since_check >= RUNTIME_CHECK_INTERVAL {
                    steps_since_check = 0;
                    self.enforce_protocol_invariants();
                }
            }

            if let Some(observer) = observer.as_deref_mut() {
                since_observe += 1;
                if since_observe >= interval {
                    since_observe = 0;
                    let progress = RunProgress {
                        sim: self,
                        consumed: &consumed,
                    };
                    if matches!(observer.observe(progress), RunControl::Cancel) {
                        self.obs.checkpoints_captured.inc();
                        return Ok(RunOutcome::Cancelled(Box::new(
                            self.capture_checkpoint(&consumed),
                        )));
                    }
                }
            }

            current = if pending[core].is_none() {
                scheduler.pop()
            } else if scheduler.runs_next(core, self.tiles[core].clock) {
                Some(core)
            } else {
                scheduler.push(core, self.tiles[core].clock);
                scheduler.pop()
            };
        }
        #[cfg(debug_assertions)]
        self.enforce_protocol_invariants();

        // The stream has ended: close the open runs in place so the report
        // below (and any further `report` calls) need not fold them again.
        self.run_lengths.finalize();
        self.obs.runs_completed.inc();

        Ok(RunOutcome::Completed(Box::new(self.report())))
    }

    /// Encodes every piece of mutable state straight into an
    /// [`EngineCheckpoint`] body, reading the caches in place.
    ///
    /// `consumed` is the per-core count of accesses already stepped — the
    /// stream cursor [`Simulator::resume_source`] fast-forwards by.  The
    /// checkpoint must be taken at a scheduling-loop boundary (after a
    /// [`Simulator::step`] and its pending-window refill), which is where
    /// [`Simulator::run_source_observed`] calls its observer.
    ///
    /// # Panics
    ///
    /// Panics if `consumed` does not cover exactly the active cores.
    pub fn capture_checkpoint(&self, consumed: &[u64]) -> EngineCheckpoint {
        assert_eq!(
            consumed.len(),
            self.active_cores,
            "one cursor per active core required"
        );
        EngineCheckpoint::capture(self, consumed)
    }

    /// Checks the live engine state against the shared `lad-check` invariant
    /// catalog ([`check_view`] over [`Simulator::protocol_view`]) and
    /// returns every violation found.  An empty vector means the catalog
    /// holds.
    pub fn check_protocol_invariants(&self) -> Vec<Violation> {
        check_view(&EngineView { sim: self })
    }

    /// The engine's read-only [`ProtocolView`], checked by the same
    /// [`check_view`] function that verifies the abstract model in
    /// `lad-check`'s exhaustive exploration.
    pub fn protocol_view(&self) -> impl ProtocolView + '_ {
        EngineView { sim: self }
    }

    /// Panics through the catalog if any protocol invariant is violated in
    /// the live state (the `debug_assertions` runtime hook).
    #[cfg(debug_assertions)]
    fn enforce_protocol_invariants(&self) {
        let violations = self.check_protocol_invariants();
        if let Some(first) = violations.first() {
            violated(first.invariant, &first.details);
        }
    }

    // ----- per-access processing ------------------------------------------

    fn process_access(&mut self, access: &MemoryAccess) -> ServedBy {
        let core = access.core;
        let line = access.address.line(self.system.cache_line_bytes);
        let is_instruction = access.op.is_instruction();
        let is_write = access.op.is_write();

        // Compute phase before the access, plus the 1-cycle L1 access.
        let l1_latency = if is_instruction {
            self.system.l1i.access_latency()
        } else {
            self.system.l1d.access_latency()
        };
        let clock = self.tiles[core.index()].clock;
        let mut now = clock + access.compute_cycles as u64 + l1_latency as u64;
        self.latency.compute += access.compute_cycles as u64 + l1_latency as u64;
        self.record_l1_energy(is_instruction, is_write);

        // L1 lookup.  A write to a Shared copy needs an upgrade, which takes
        // the miss path below.
        let mut served_by_l1 = false;
        {
            let tile = &mut self.tiles[core.index()];
            if let Some(state) = tile.l1_for(is_instruction).get_mut(line) {
                if !is_write {
                    served_by_l1 = true;
                } else if state.can_write_locally() {
                    *state = MesiState::Modified;
                    served_by_l1 = true;
                }
            }
        }
        if served_by_l1 {
            self.misses.l1_hits += 1;
            self.tiles[core.index()].clock = now;
            return ServedBy::L1;
        }

        // ----- L1 miss ------------------------------------------------------
        let class = *self.line_class.get(&line).unwrap_or(&access.class);
        let home = self.home_map.home_for(line, core);
        let replica_slice = self.replica_slice_for(core, line);

        // Step 1: look for a replica at the replica location (if any).
        if let Some(replica_core) = replica_slice {
            if replica_core != home {
                if let Some(done) =
                    self.try_replica_access(core, replica_core, line, is_write, class, now)
                {
                    now = done;
                    self.tiles[core.index()].clock = now;
                    return ServedBy::LlcReplica;
                }
            }
        }

        // Step 2: go to the home location.
        let (finish, grant_state, served_offchip) =
            self.access_home(core, home, replica_slice, line, is_write, class, now);
        now = finish;
        if served_offchip {
            self.misses.offchip_misses += 1;
        } else {
            self.misses.llc_home_hits += 1;
        }

        // Step 3: fill the L1.
        let l1_state = if is_write {
            MesiState::Modified
        } else {
            grant_state
        };
        self.fill_l1(core, is_instruction, line, l1_state, now);
        self.tiles[core.index()].clock = now;
        if served_offchip {
            ServedBy::OffChip
        } else {
            ServedBy::LlcHome
        }
    }

    /// The LLC slice that may hold a replica for `core` (its own slice, or
    /// the designated slice of its cluster), or `None` for schemes that never
    /// replicate.
    fn replica_slice_for(&self, core: CoreId, line: CacheLine) -> Option<CoreId> {
        if !self.policy.replicates() {
            return None;
        }
        let cluster = self.replication.cluster_size.max(1);
        if cluster == 1 {
            Some(core)
        } else {
            Some(
                self.network
                    .mesh()
                    .cluster_slice_for_line(core, cluster, line.index()),
            )
        }
    }

    /// Attempts to serve the access from an LLC replica.  Returns the
    /// completion time on a replica hit, or `None` on a replica miss.
    #[allow(clippy::too_many_arguments)]
    fn try_replica_access(
        &mut self,
        core: CoreId,
        replica_core: CoreId,
        line: CacheLine,
        is_write: bool,
        class: DataClass,
        now: Cycle,
    ) -> Option<Cycle> {
        // Travel to the replica slice if it is not the local one.
        let mut t = now;
        if replica_core != core {
            t = self
                .network
                .send(core, replica_core, MessageKind::Control, t);
        }
        self.energy
            .record(Component::L2Cache, self.energy_model.llc_tag_pj);

        let slice = &mut self.tiles[replica_core.index()].llc;
        let entry = slice.access(line);
        let hit = match entry {
            Some(LlcEntry::Replica(replica)) if replica.state.is_valid() => {
                if is_write && !replica.state.can_write_locally() {
                    // Shared replica cannot serve a write: the home will
                    // invalidate it as part of the exclusive request.
                    false
                } else {
                    if is_write {
                        replica.state = MesiState::Modified;
                        replica.dirty = true;
                    }
                    replica.record_hit();
                    true
                }
            }
            _ => false,
        };
        if !hit {
            // Victim Replication moves hit lines to the L1 (exclusive L1/LLC
            // relationship); a miss here simply falls through to the home.
            return None;
        }

        // Account the LLC data access and, for VR, the invalidate-on-hit.
        self.energy
            .record(Component::L2Cache, self.energy_model.llc_data_read_pj);
        let slice_latency = self.tiles[replica_core.index()].llc.access_latency() as u64;
        let replica_state = self.tiles[replica_core.index()]
            .llc
            .probe(line)
            .and_then(LlcEntry::as_replica)
            .map(|r| r.state)
            .unwrap_or(MesiState::Shared);

        if self.policy.invalidate_replica_on_hit() {
            // VR: the replica is moved into the L1; the LLC copy is
            // invalidated (and must be written back again on the next L1
            // eviction) — the write-energy overhead the paper describes.
            self.tiles[replica_core.index()].llc.invalidate(line);
            self.energy
                .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
        }

        let mut finish = t + slice_latency;
        if replica_core != core {
            finish = self
                .network
                .send(replica_core, core, MessageKind::Data, finish);
        }
        self.latency.l1_to_llc_replica += finish.since(now).value();
        self.misses.llc_replica_hits += 1;
        self.run_lengths.record_access(line, core, class, is_write);

        // Install in the L1.
        let l1_state = if is_write {
            MesiState::Modified
        } else if replica_state.can_write_locally() {
            MesiState::Exclusive
        } else {
            MesiState::Shared
        };
        let is_instruction = class == DataClass::Instruction;
        self.fill_l1(core, is_instruction, line, l1_state, finish);
        Some(finish)
    }

    /// Processes the request at the home LLC slice: serialization, LLC/DRAM
    /// access, directory actions and the replication decision.
    ///
    /// Returns `(completion_time_at_requester, granted_state, served_offchip)`.
    #[allow(clippy::too_many_arguments)]
    fn access_home(
        &mut self,
        core: CoreId,
        home: CoreId,
        replica_slice: Option<CoreId>,
        line: CacheLine,
        is_write: bool,
        class: DataClass,
        now: Cycle,
    ) -> (Cycle, MesiState, bool) {
        // If the requester holds a Shared LLC replica and wants to write, the
        // replica is invalidated as part of obtaining exclusivity; collect
        // its reuse counter for the classifier.
        let mut own_replica_reuse: Option<u32> = None;
        if is_write {
            if let Some(rc) = replica_slice {
                if rc != home {
                    if let Some(LlcEntry::Replica(rep)) = self.tiles[rc.index()].llc.probe(line) {
                        own_replica_reuse = Some(rep.reuse.value());
                    }
                    if own_replica_reuse.is_some() {
                        self.tiles[rc.index()].llc.invalidate(line);
                    }
                }
            }
        }

        // Request to the home.
        let mut request_and_reply = 0u64;
        let mut t = now;
        if home != core {
            let arrival = self.network.send(core, home, MessageKind::Control, t);
            request_and_reply += arrival.since(t).value();
            t = arrival;
        }

        // Serialization at the home (memory-consistency ordering).
        let busy = self
            .line_busy_until
            .get(&line)
            .copied()
            .unwrap_or(Cycle::ZERO);
        let start = t.max(busy);
        self.latency.llc_home_waiting += start.since(t).value();
        let mut t_home = start;

        // Home LLC lookup (tag + directory).
        self.energy
            .record(Component::L2Cache, self.energy_model.llc_tag_pj);
        self.energy
            .record(Component::Directory, self.energy_model.directory_access_pj);
        if self.policy.uses_classifier() {
            self.energy
                .record(Component::Directory, self.energy_model.classifier_access_pj);
        }
        let llc_latency = self.tiles[home.index()].llc.access_latency() as u64;

        let home_has_line = {
            let slice = &mut self.tiles[home.index()].llc;
            match slice.access(line).map(|entry| entry.is_home()) {
                Some(true) => true,
                Some(false) => {
                    // A stale replica at what is now the home slice (possible
                    // only across placement-policy quirks); treat as a miss
                    // and drop it.
                    slice.invalidate(line);
                    false
                }
                None => false,
            }
        };
        t_home += llc_latency;
        request_and_reply += llc_latency;

        let mut served_offchip = false;
        if home_has_line {
            self.energy
                .record(Component::L2Cache, self.energy_model.llc_data_read_pj);
        } else {
            // Fetch from DRAM: home -> memory controller -> home.
            served_offchip = true;
            let ctrl_core = self.dram.controller_core_for(line.index());
            let mut t_mem = t_home;
            if ctrl_core != home {
                t_mem = self
                    .network
                    .send(home, ctrl_core, MessageKind::Control, t_mem);
            }
            let access = self.dram.access(line.index(), t_mem);
            t_mem = access.completion;
            if ctrl_core != home {
                t_mem = self.network.send(ctrl_core, home, MessageKind::Data, t_mem);
            }
            self.latency.llc_home_to_offchip += t_mem.since(t_home).value();
            t_home = t_mem;

            // Install the home entry, evicting a victim if needed.
            self.energy
                .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
            let new_entry = LlcEntry::Home(HomeEntry::new(
                self.system.ackwise_pointers,
                self.replication.classifier,
                self.replication.replication_threshold(),
            ));
            let evicted = self.tiles[home.index()].llc.fill(line, new_entry);
            if let Some((victim_line, victim_entry)) = evicted {
                self.handle_llc_victim(home, victim_line, victim_entry, t_home);
            }
        }

        // Directory actions.
        let grant_state;
        let mut other_sharers_present = false;
        if is_write {
            let outcome = {
                let entry = home_entry(&mut self.tiles, home, line);
                entry.directory.handle_write(core)
            };
            other_sharers_present =
                outcome.invalidations.expected_acks() > 0 || outcome.prior_owner.is_some();
            let targets: Vec<CoreId> = match &outcome.invalidations {
                InvalidationTargets::Exact(cores) => cores.clone(),
                InvalidationTargets::Broadcast { .. } => (0..self.system.num_cores)
                    .map(CoreId::new)
                    .filter(|c| *c != core)
                    .collect(),
            };
            let (probes, sharer_latency) = self.invalidate_sharers(home, &targets, line, t_home);
            self.latency.llc_home_to_sharers += sharer_latency.value();
            t_home += sharer_latency.value();

            let entry = home_entry(&mut self.tiles, home, line);
            for probe in &probes {
                if let Some(reuse) = probe.replica_reuse {
                    entry.classifier.on_replica_invalidated(probe.target, reuse);
                } else if probe.had_copy {
                    entry.classifier.on_sharer_invalidated(probe.target);
                }
                if probe.dirty {
                    entry.dirty = true;
                }
                if probe.had_copy || probe.replica_reuse.is_some() {
                    entry.directory.handle_eviction(probe.target);
                }
            }
            // Re-establish the writer as the owner (handle_eviction above may
            // have cleared sharers that handle_write had already granted).
            entry.directory.handle_write(core);
            grant_state = MesiState::Modified;
        } else {
            let outcome = {
                let entry = home_entry(&mut self.tiles, home, line);
                entry.directory.handle_read(core)
            };
            if let Some(owner) = outcome.downgrade_owner {
                if owner != core {
                    let (probe, sharer_latency) = self.downgrade_owner(home, owner, line, t_home);
                    self.latency.llc_home_to_sharers += sharer_latency.value();
                    t_home += sharer_latency.value();
                    let entry = home_entry(&mut self.tiles, home, line);
                    if probe.dirty {
                        entry.dirty = true;
                    }
                }
            }
            grant_state = outcome.grant.as_state();
        }

        // Replication decision: the policy classifies the requester (and
        // trains any classifier state in the home entry); the engine only
        // materializes a replica when a distinct replica slice exists.
        let wants_replica = {
            let entry = home_entry(&mut self.tiles, home, line);
            self.policy.replicate_on_fill(FillDecision {
                core,
                is_write,
                other_sharers_present,
                own_replica_reuse,
                classifier: &mut entry.classifier,
            })
        };
        let mut create_replica = false;
        let mut replica_state = grant_state;
        if wants_replica {
            if let Some(rc) = replica_slice {
                if rc != home {
                    create_replica = true;
                    replica_state = if is_write {
                        MesiState::Modified
                    } else {
                        MesiState::Shared
                    };
                }
            }
        }

        // Track the run at the home for the Figure 1 characterization.
        self.run_lengths.record_access(line, core, class, is_write);

        // The home is busy with this line until processing finished.
        self.line_busy_until.insert(line, t_home);

        // Reply to the requester.
        let mut finish = t_home;
        if home != core {
            let arrival = self.network.send(home, core, MessageKind::Data, finish);
            request_and_reply += arrival.since(finish).value();
            finish = arrival;
        }
        self.latency.l1_to_llc_home += request_and_reply;

        // Install the replica (locality-aware scheme, misses only).
        if create_replica {
            if let Some(rc) = replica_slice {
                if rc != core {
                    // Cluster-level replication: the data is also forwarded to
                    // the cluster's replica slice.
                    self.network.send(home, rc, MessageKind::Data, t_home);
                }
                self.install_replica(rc, line, replica_state, finish);
            }
        }

        (finish, grant_state, served_offchip)
    }

    /// Sends invalidations to `targets`, probing their L1 caches and LLC
    /// replicas.  Returns the probe results and the latency of the round
    /// (invalidations are sent in parallel; the home waits for the slowest
    /// acknowledgement).
    ///
    /// Every target is probed before any message is modelled: probes touch
    /// only tile state and messages only link state, so the split changes
    /// no result, and a broadcast round's cache lookups run back to back.
    fn invalidate_sharers(
        &mut self,
        home: CoreId,
        targets: &[CoreId],
        line: CacheLine,
        now: Cycle,
    ) -> (Vec<SharerProbe>, Cycle) {
        let mut probes = Vec::with_capacity(targets.len());
        for &target in targets {
            // Probe both L1 caches and the LLC slice of the target.
            self.energy
                .record(Component::L1D, self.energy_model.l1d_read_pj);
            self.energy
                .record(Component::L1I, self.energy_model.l1i_access_pj);
            self.energy
                .record(Component::L2Cache, self.energy_model.llc_tag_pj);

            let (l1d, l1i, replica) = self.tiles[target.index()].drop_copies(line);
            probes.push(SharerProbe {
                target,
                replica_reuse: replica.map(|rep| rep.reuse.value()),
                had_copy: l1d.is_some() || l1i.is_some() || replica.is_some(),
                dirty: l1d == Some(MesiState::Modified) || replica.is_some_and(|rep| rep.dirty),
            });
        }

        let mut max_latency = Cycle::ZERO;
        for probe in &probes {
            if probe.target == home {
                continue;
            }
            let arrival = self
                .network
                .send(home, probe.target, MessageKind::Control, now);
            let ack_kind = if probe.dirty {
                MessageKind::Data
            } else {
                MessageKind::Control
            };
            let back = self.network.send(probe.target, home, ack_kind, arrival);
            max_latency = max_latency.max(back.since(now));
        }
        (probes, max_latency)
    }

    /// Downgrades a remote exclusive owner to Shared, retrieving dirty data.
    fn downgrade_owner(
        &mut self,
        home: CoreId,
        owner: CoreId,
        line: CacheLine,
        now: Cycle,
    ) -> (SharerProbe, Cycle) {
        let mut arrival = now;
        if owner != home {
            arrival = self.network.send(home, owner, MessageKind::Control, now);
        }
        self.energy
            .record(Component::L1D, self.energy_model.l1d_read_pj);
        self.energy
            .record(Component::L2Cache, self.energy_model.llc_tag_pj);

        let tile = &mut self.tiles[owner.index()];
        let mut dirty = false;
        if let Some(state) = tile.l1d.peek_mut(line) {
            dirty |= state.is_dirty();
            *state = state.after_downgrade();
        }
        // The exclusive grant may live in the L1-I (a line whose first
        // access was an instruction fetch): downgrade it there as well, or
        // the owner keeps a writable copy alongside the new sharer.
        if let Some(state) = tile.l1i.peek_mut(line) {
            dirty |= state.is_dirty();
            *state = state.after_downgrade();
        }
        if let Some(LlcEntry::Replica(rep)) = tile.llc.probe_mut(line) {
            dirty |= rep.dirty;
            rep.state = rep.state.after_downgrade();
            rep.dirty = false;
        }
        let back = if owner != home {
            self.network.send(owner, home, MessageKind::Data, arrival)
        } else {
            arrival
        };
        (
            SharerProbe {
                target: owner,
                replica_reuse: None,
                had_copy: true,
                dirty,
            },
            back.since(now),
        )
    }

    /// Installs a replica in `slice_core`'s LLC slice.
    fn install_replica(
        &mut self,
        slice_core: CoreId,
        line: CacheLine,
        state: MesiState,
        now: Cycle,
    ) {
        self.energy
            .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
        let entry = LlcEntry::Replica(ReplicaEntry::new(
            state,
            self.replication.replication_threshold(),
        ));
        let evicted = self.tiles[slice_core.index()].llc.fill(line, entry);
        self.replicas_created += 1;
        if let Some((victim_line, victim_entry)) = evicted {
            self.handle_llc_victim(slice_core, victim_line, victim_entry, now);
        }
    }

    /// Fills the requesting L1 and handles the evicted victim.
    fn fill_l1(
        &mut self,
        core: CoreId,
        instruction: bool,
        line: CacheLine,
        state: MesiState,
        now: Cycle,
    ) {
        self.record_l1_energy(instruction, true);
        let victim = self.tiles[core.index()]
            .l1_for(instruction)
            .insert(line, state, &PlainLru);
        if let Some((victim_line, victim_state)) = victim {
            self.handle_l1_victim(core, victim_line, victim_state, now);
        }
    }

    /// Handles the eviction of an L1 line: merge into a local replica, turn
    /// it into a new replica (VR / ASR), or notify the line's home.
    fn handle_l1_victim(&mut self, core: CoreId, line: CacheLine, state: MesiState, now: Cycle) {
        if !state.is_valid() {
            return;
        }
        let dirty = state.is_dirty();
        let home = self.home_map.home_for(line, core);

        // Merge into an existing entry in the local (or cluster) LLC slice.
        if let Some(rc) = self.replica_slice_for(core, line) {
            let slice = &mut self.tiles[rc.index()].llc;
            match slice.probe_mut(line) {
                Some(LlcEntry::Replica(rep)) => {
                    rep.dirty |= dirty;
                    rep.l1_copy = false;
                    if dirty {
                        rep.state = MesiState::Modified;
                    }
                    self.energy
                        .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
                    return;
                }
                Some(LlcEntry::Home(entry)) if rc == home => {
                    // The local slice is the line's home: the write-back (if
                    // any) merges there and the directory drops this sharer.
                    if dirty {
                        entry.dirty = true;
                        self.energy
                            .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
                    }
                    entry.directory.handle_eviction(core);
                    if self.policy.uses_classifier() {
                        entry.classifier.on_sharer_evicted(core);
                    }
                    self.energy
                        .record(Component::Directory, self.energy_model.directory_access_pj);
                    return;
                }
                _ => {}
            }
        }

        // Eviction-driven replication (Victim Replication, ASR, customs):
        // ask the policy whether the victim becomes a replica.
        if self.policy.replicates_on_eviction() {
            let replica_core = core;
            // victim_for is None when the set still has room (or the line is
            // somehow already resident).  The candidate is borrowed straight
            // out of the slice — no clone on this hot path.
            let candidate = self.tiles[replica_core.index()].llc.victim_for(line);
            let set_has_free_way = candidate.is_none();
            let class = *self.line_class.get(&line).unwrap_or(&DataClass::Private);
            let install = self.policy.replicate_on_l1_evict(EvictDecision {
                class,
                set_has_free_way,
                victim: candidate.map(|(_, entry)| entry),
                rng: &mut self.rng,
            });
            if install && home != replica_core {
                self.energy
                    .record(Component::L2Cache, self.energy_model.llc_data_write_pj);
                let mut rep = ReplicaEntry::new(state, self.replication.replication_threshold());
                rep.l1_copy = false;
                rep.dirty = dirty;
                let evicted = self.tiles[replica_core.index()]
                    .llc
                    .fill(line, LlcEntry::Replica(rep));
                self.replicas_created += 1;
                if let Some((victim_line, victim_entry)) = evicted {
                    self.handle_llc_victim(replica_core, victim_line, victim_entry, now);
                }
                return;
            }
        }

        // Otherwise notify the home that this core no longer holds the line.
        self.notify_home_of_eviction(core, home, line, dirty, None, now);
    }

    /// Handles the eviction of an LLC entry (replica or home line) from
    /// `slice_core`'s slice.
    fn handle_llc_victim(
        &mut self,
        slice_core: CoreId,
        line: CacheLine,
        entry: LlcEntry,
        now: Cycle,
    ) {
        match entry {
            LlcEntry::Replica(rep) => {
                // Back-invalidate the local L1 copies (the LLC slice is
                // inclusive of the local L1 for replicas).
                let (l1d, l1i, _) = self.tiles[slice_core.index()].drop_copies(line);
                if l1d.is_some() || l1i.is_some() {
                    self.back_invalidations += 1;
                }
                let dirty = rep.dirty || l1d == Some(MesiState::Modified);
                let home = self.home_map.home_for(line, slice_core);
                self.notify_home_of_eviction(
                    slice_core,
                    home,
                    line,
                    dirty,
                    Some(rep.reuse.value()),
                    now,
                );
            }
            LlcEntry::Home(home_entry) => {
                // The entry's classifier dies with it: fold its variance
                // counters into the retired accumulators so report() still
                // sees the whole run.
                self.retired_classifier_flips += home_entry.classifier.mode_flips();
                self.retired_classifier_peak = self
                    .retired_classifier_peak
                    .max(home_entry.classifier.peak_tracked() as u64);
                // Inclusive LLC: every sharer's copy must be invalidated.
                let targets = home_entry
                    .directory
                    .back_invalidation_targets(self.system.num_cores);
                for target in targets {
                    let (l1d, l1i, replica) = self.tiles[target.index()].drop_copies(line);
                    if l1d.is_some() || l1i.is_some() || replica.is_some() {
                        self.back_invalidations += 1;
                        if target != slice_core {
                            self.network
                                .send(slice_core, target, MessageKind::Control, now);
                            self.network
                                .send(target, slice_core, MessageKind::Control, now);
                        }
                    }
                }
                if home_entry.dirty {
                    // Write the line back to DRAM.
                    let ctrl_core = self.dram.controller_core_for(line.index());
                    if ctrl_core != slice_core {
                        self.network
                            .send(slice_core, ctrl_core, MessageKind::Data, now);
                    }
                    self.dram.access(line.index(), now);
                }
                self.run_lengths.record_eviction(line);
                self.line_busy_until.remove(&line);
            }
        }
    }

    /// Notifies the home that `core`'s hierarchy no longer holds `line`
    /// (an eviction acknowledgement, optionally carrying dirty data and the
    /// replica-reuse counter).  Eviction messages are off the critical path:
    /// they cost network traffic and energy but do not delay the evicting
    /// core.
    fn notify_home_of_eviction(
        &mut self,
        core: CoreId,
        home: CoreId,
        line: CacheLine,
        dirty: bool,
        replica_reuse: Option<u32>,
        now: Cycle,
    ) {
        if home != core {
            let kind = if dirty {
                MessageKind::Data
            } else {
                MessageKind::Control
            };
            self.network.send(core, home, kind, now);
        }
        self.energy
            .record(Component::Directory, self.energy_model.directory_access_pj);
        if let Some(LlcEntry::Home(entry)) = self.tiles[home.index()].llc.probe_mut(line) {
            entry.directory.handle_eviction(core);
            if dirty {
                entry.dirty = true;
            }
            if self.policy.uses_classifier() {
                match replica_reuse {
                    Some(reuse) => entry.classifier.on_replica_evicted(core, reuse),
                    None => entry.classifier.on_sharer_evicted(core),
                }
            }
        }
    }

    fn record_l1_energy(&mut self, instruction: bool, write: bool) {
        if instruction {
            self.energy
                .record(Component::L1I, self.energy_model.l1i_access_pj);
        } else if write {
            self.energy
                .record(Component::L1D, self.energy_model.l1d_write_pj);
        } else {
            self.energy
                .record(Component::L1D, self.energy_model.l1d_read_pj);
        }
    }
}

/// How many [`Simulator::step`]s `run_source` executes between runtime
/// sweeps of the invariant catalog in debug builds.  Each sweep walks every
/// resident line across every tile, so the interval trades checking density
/// against replay speed; 4096 checks each engine-suite trace several times
/// mid-run (a final sweep after the stream drains covers the end state
/// regardless) while keeping the suite's debug runtime close to unchecked.
#[cfg(debug_assertions)]
const RUNTIME_CHECK_INTERVAL: u32 = 4096;

/// The live engine as a [`ProtocolView`]: the runtime face of the shared
/// invariant catalog (`lad-check` explores the abstract model through the
/// identical trait and checks).
struct EngineView<'a> {
    sim: &'a Simulator,
}

impl ProtocolView for EngineView<'_> {
    fn num_cores(&self) -> usize {
        self.sim.system.num_cores
    }

    fn lines(&self) -> Vec<CacheLine> {
        let mut lines = BTreeSet::new();
        for tile in &self.sim.tiles {
            lines.extend(tile.l1i.iter().map(|(line, _)| line));
            lines.extend(tile.l1d.iter().map(|(line, _)| line));
            lines.extend(tile.llc.iter().map(|(line, _)| line));
        }
        lines.into_iter().collect()
    }

    fn l1_states(&self, core: CoreId, line: CacheLine) -> Vec<MesiState> {
        let tile = &self.sim.tiles[core.index()];
        tile.l1i
            .peek(line)
            .into_iter()
            .chain(tile.l1d.peek(line))
            .copied()
            .collect()
    }

    fn replica(&self, core: CoreId, line: CacheLine) -> Option<ReplicaEntry> {
        self.sim.tiles[core.index()]
            .llc
            .probe(line)
            .and_then(LlcEntry::as_replica)
            .cloned()
    }

    fn home_slice(&self, line: CacheLine, core: CoreId) -> CoreId {
        self.sim.home_map.home_for(line, core)
    }

    fn home_at(&self, line: CacheLine, slice: CoreId) -> Option<HomeSummary> {
        self.sim.tiles[slice.index()]
            .llc
            .probe(line)
            .and_then(LlcEntry::as_home)
            .map(HomeSummary::from_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_replication::scheme::SchemeId;
    use lad_trace::benchmarks::Benchmark;
    use lad_trace::generator::TraceGenerator;

    fn small_trace(benchmark: Benchmark, accesses: usize, seed: u64) -> WorkloadTrace {
        TraceGenerator::new(benchmark.profile()).generate(16, accesses, seed)
    }

    /// The run configuration of a comparison column (ASR at level 0.5).
    fn config_for(scheme: SchemeId) -> ReplicationConfig {
        match scheme {
            SchemeId::Asr => ReplicationConfig::asr(0.5),
            other => ReplicationConfig::of(other),
        }
    }

    fn run(config: ReplicationConfig, benchmark: Benchmark, accesses: usize) -> SimulationReport {
        let mut sim = Simulator::new(SystemConfig::small_test(), config);
        sim.run(&small_trace(benchmark, accesses, 42))
    }

    #[test]
    fn simulation_completes_and_accounts_every_access() {
        let report = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Barnes,
            1600,
        );
        assert_eq!(
            report.total_accesses,
            report.misses.l1_hits + report.misses.l1_misses()
        );
        assert!(report.completion_time.value() > 0);
        assert!(report.energy.total() > 0.0);
        assert!(report.latency.total() > 0);
    }

    #[test]
    fn report_carries_classifier_variance_counters() {
        let report = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Barnes,
            1600,
        );
        // The run creates replicas, and every replica grant is preceded by
        // a non-replica → replica promotion of some tracked core.
        assert!(report.replicas_created > 0);
        assert!(
            report.classifier.mode_flips > 0,
            "promotions must be counted as mode flips"
        );
        assert!(
            report.classifier.peak_tracked > 0,
            "tracked-core occupancy must leave a high-water mark"
        );
        // S-NUCA never instantiates per-line locality tracking state that
        // changes mode: its variance counters stay flat.
        let snuca = run(ReplicationConfig::static_nuca(), Benchmark::Barnes, 1600);
        assert_eq!(snuca.classifier.mode_flips, 0);
    }

    #[test]
    fn run_source_over_a_recorded_stream_matches_run() {
        use lad_traceio::source::ReaderSource;
        use lad_traceio::writer::encode_workload;

        let trace = small_trace(Benchmark::Barnes, 300, 42);
        let bytes = encode_workload(&trace, 42).unwrap();

        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        let in_memory = sim.run(&trace);
        let mut source = ReaderSource::new(std::io::Cursor::new(bytes)).unwrap();
        let replayed = sim.run_source(&mut source).unwrap();
        assert_eq!(format!("{in_memory:?}"), format!("{replayed:?}"));
    }

    #[test]
    fn cancel_checkpoint_resume_matches_straight_run() {
        // The tentpole equivalence: step → checkpoint → spill → resume on a
        // FRESH simulator must produce a report byte-identical to the
        // straight run, for every SCHEME_ORDER column (ASR consumes the RNG,
        // VR and RT-k create replicas).
        use crate::experiment::SchemeComparison;

        // PATRICIA's widely read lines overflow ACKwise_4 into broadcast mode.
        let trace = small_trace(Benchmark::Patricia, 600, 42);
        let (mut replicas, mut broadcast_lists, mut limited_3) = (0, 0, 0);
        for scheme in SchemeComparison::SCHEME_ORDER {
            let config = config_for(scheme);
            let mut straight = Simulator::new(SystemConfig::small_test(), config.clone());
            let expected = straight.run(&trace);

            let mut first = Simulator::new(SystemConfig::small_test(), config.clone());
            let mut source = MemorySource::new(&trace);
            let mut stop = StopAfter::new(6000);
            let checkpoint = match first.run_source_observed(&mut source, Some(&mut stop)) {
                Ok(RunOutcome::Cancelled(checkpoint)) => checkpoint,
                other => panic!("{scheme}: expected cancellation, got {other:?}"),
            };
            // Spill as the service does, then resume elsewhere.
            let spilled = checkpoint.to_json().pretty();
            let reloaded =
                EngineCheckpoint::from_json(&lad_common::json::JsonValue::parse(&spilled).unwrap())
                    .unwrap();
            // The cancelled simulator holds what the checkpoint carries.
            assert_eq!(first.total_accesses, 6000);
            for (.., entry) in first.tiles.iter().flat_map(|tile| tile.llc.slots()) {
                match entry {
                    LlcEntry::Replica(_) => replicas += 1,
                    LlcEntry::Home(home) => {
                        broadcast_lists += usize::from(home.directory.sharers().is_global());
                        limited_3 += usize::from(
                            home.classifier.capacity() == Some(3)
                                && home.classifier.tracked_count() == 3,
                        );
                    }
                }
            }
            let mut resumed = Simulator::new(SystemConfig::small_test(), config);
            let mut source = MemorySource::new(&trace);
            let report = match resumed.resume_source(&mut source, &reloaded, None) {
                Ok(RunOutcome::Completed(report)) => *report,
                other => panic!("{scheme}: expected completion, got {other:?}"),
            };
            assert_eq!(format!("{report:?}"), format!("{expected:?}"), "{scheme}");
        }
        // Every LLC entry kind the codec writes went through the spill.
        assert!(replicas > 0, "no replica entry was checkpointed");
        assert!(
            broadcast_lists > 0,
            "no global sharer list was checkpointed"
        );
        assert!(
            limited_3 > 0,
            "no full Limited_3 classifier was checkpointed"
        );
    }

    #[test]
    fn repeated_cancel_resume_chains_match_straight_run() {
        // Crash/restart robustness: stopping every 150 accesses and resuming
        // from the spilled checkpoint each time still lands on the straight
        // run's exact report.
        let trace = small_trace(Benchmark::OceanContiguous, 40, 9);
        let config = ReplicationConfig::locality_aware(3);
        let mut straight = Simulator::new(SystemConfig::small_test(), config.clone());
        let expected = straight.run(&trace);

        let mut source = MemorySource::new(&trace);
        let mut sim = Simulator::new(SystemConfig::small_test(), config.clone());
        let mut stop = StopAfter::new(150);
        let mut outcome = sim
            .run_source_observed(&mut source, Some(&mut stop))
            .unwrap();
        let mut hops = 0;
        let report = loop {
            match outcome {
                RunOutcome::Completed(report) => break *report,
                RunOutcome::Cancelled(checkpoint) => {
                    hops += 1;
                    assert!(hops < 20, "resume chain must terminate");
                    let mut fresh = Simulator::new(SystemConfig::small_test(), config.clone());
                    let mut source = MemorySource::new(&trace);
                    let mut stop = StopAfter::new(150);
                    outcome = fresh
                        .resume_source(&mut source, &checkpoint, Some(&mut stop))
                        .unwrap();
                }
            }
        };
        assert!(hops >= 2, "the trace must span several checkpoints");
        assert_eq!(format!("{report:?}"), format!("{expected:?}"));
    }

    #[test]
    fn observer_progress_reports_live_state() {
        struct Spy {
            calls: u64,
            last_total: u64,
        }
        impl RunObserver for Spy {
            fn interval(&self) -> u64 {
                100
            }
            fn observe(&mut self, progress: RunProgress<'_>) -> RunControl {
                self.calls += 1;
                let total = progress.total_accesses();
                assert!(total > self.last_total, "progress must be monotonic");
                assert_eq!(progress.consumed().iter().sum::<u64>(), total);
                // A mid-stream report is available without consuming state.
                assert_eq!(progress.simulator().report().total_accesses, total);
                self.last_total = total;
                RunControl::Continue
            }
        }
        let trace = small_trace(Benchmark::Barnes, 450, 3);
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        let mut spy = Spy {
            calls: 0,
            last_total: 0,
        };
        let mut source = MemorySource::new(&trace);
        let outcome = sim
            .run_source_observed(&mut source, Some(&mut spy))
            .unwrap();
        let RunOutcome::Completed(report) = outcome else {
            panic!("a Continue-only observer cannot cancel");
        };
        assert_eq!(spy.calls, report.total_accesses / 100);
        assert!(spy.calls > 0, "the stream must span several intervals");
    }

    #[test]
    fn resume_rejects_checkpoints_that_do_not_fit_the_run() {
        // A 16-core RT-3 Limited_3 checkpoint against simulators and sources
        // that differ in one thing each.  The last two fail in the middle of
        // the restore: on an LLC slot after tile 0's L1s were restored, and
        // on the link count after every tile was.  Each rejection must leave
        // the simulator as `run_source` finds a fresh one.
        use lad_replication::classifier::ClassifierKind;

        let trace = small_trace(Benchmark::Barnes, 300, 42);
        let rt3 = ReplicationConfig::locality_aware(3);
        let mut sim = Simulator::new(SystemConfig::small_test(), rt3.clone());
        let mut stop = StopAfter::new(1000);
        let checkpoint =
            match sim.run_source_observed(&mut MemorySource::new(&trace), Some(&mut stop)) {
                Ok(RunOutcome::Cancelled(checkpoint)) => checkpoint,
                other => panic!("expected cancellation, got {other:?}"),
            };

        let mut half_llc = SystemConfig::small_test();
        half_llc.llc_slice.capacity_bytes /= 2;
        let mut wide_mesh = SystemConfig::small_test();
        (wide_mesh.network.mesh_width, wide_mesh.network.mesh_height) = (5, 4);
        let renamed = WorkloadTrace::new(
            "OTHER",
            (0..trace.num_cores())
                .map(|core| trace.core_stream(CoreId::new(core)).to_vec())
                .collect(),
        );
        let complete = ReplicationConfig {
            classifier: ClassifierKind::Complete,
            ..rt3.clone()
        };
        let cases = [
            (
                "scheme",
                SystemConfig::small_test(),
                ReplicationConfig::static_nuca(),
                &trace,
            ),
            (
                "classifier capacity",
                SystemConfig::small_test(),
                complete,
                &trace,
            ),
            (
                "benchmark",
                SystemConfig::small_test(),
                rt3.clone(),
                &renamed,
            ),
            ("tile 0: LLC: slot", half_llc, rt3.clone(), &trace),
            ("links 64, this run has 80", wide_mesh, rt3, &trace),
        ];
        for (mismatch, system, config, trace) in cases {
            let mut sim = Simulator::new(system.clone(), config.clone());
            match sim.resume_source(&mut MemorySource::new(trace), &checkpoint, None) {
                Err(ResumeError::Rejected(why)) => assert!(why.contains(mismatch), "{why}"),
                other => panic!("{mismatch}: expected a rejection, got {other:?}"),
            }
            let expected = Simulator::new(system, config).run(trace);
            let rerun = sim.run_source(&mut MemorySource::new(trace)).unwrap();
            assert_eq!(
                rerun.to_json().to_string(),
                expected.to_json().to_string(),
                "{mismatch}"
            );
        }
    }

    #[test]
    fn the_policy_names_the_scheme_whatever_the_config_says() {
        // An RT-3 policy handed an RT-8 config runs as RT-3, exactly like
        // the registry's RT-3 entry: one scheme per simulator.
        let trace = small_trace(Benchmark::Barnes, 600, 11);
        let run = |config: ReplicationConfig, policy: Arc<dyn ReplicationPolicy>| {
            let mut sim = Simulator::with_policy_and_energy_model(
                SystemConfig::small_test(),
                config,
                policy,
                EnergyModel::paper_default(),
            );
            sim.run(&trace)
        };
        let registry = lad_replication::policy::SchemeRegistry::builtin();
        let rt3 = registry.get(SchemeId::Rt(3)).unwrap();
        let registered = run(rt3.config.clone(), Arc::clone(&rt3.policy));
        let paired = run(
            ReplicationConfig::locality_aware(8),
            builtin_policy(SchemeId::Rt(3)).unwrap(),
        );
        assert!(registered.replicas_created > 0);
        assert_eq!(
            paired.to_json().to_string(),
            registered.to_json().to_string()
        );
    }

    #[test]
    fn run_source_propagates_decode_errors() {
        use lad_traceio::source::ReaderSource;
        use lad_traceio::writer::encode_workload;

        let trace = small_trace(Benchmark::Dedup, 100, 1);
        let mut bytes = encode_workload(&trace, 1).unwrap();
        bytes.truncate(bytes.len() / 2);
        let mut sim = Simulator::new(SystemConfig::small_test(), ReplicationConfig::static_nuca());
        match ReaderSource::new(std::io::Cursor::new(bytes)) {
            Ok(mut source) => assert!(sim.run_source(&mut source).is_err()),
            Err(_) => panic!("truncating half the stream should leave the header intact"),
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(ReplicationConfig::locality_aware(3), Benchmark::Barnes, 200);
        let b = run(ReplicationConfig::locality_aware(3), Benchmark::Barnes, 200);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.misses.llc_replica_hits, b.misses.llc_replica_hits);
        assert!((a.energy.total() - b.energy.total()).abs() < 1e-6);
    }

    #[test]
    fn rerunning_the_same_simulator_resets_state() {
        // `begin` clears the tiles in place instead of rebuilding them, so a
        // stale LLC slot or LRU clock left by an earlier run would change
        // what follows.  Dirty each simulator with a run that evicts from the
        // LLC, then compare the whole report, and the whole checkpoint at a
        // mid-run cancel, with a fresh simulator's.
        use crate::experiment::SchemeComparison;

        let dirty = small_trace(Benchmark::Radix, 600, 7);
        let trace = small_trace(Benchmark::Barnes, 200, 42);
        let cancel_at = 1500;
        let checkpoint_json = |sim: &mut Simulator| {
            let mut source = MemorySource::new(&trace);
            let mut stop = StopAfter::new(cancel_at);
            match sim.run_source_observed(&mut source, Some(&mut stop)) {
                Ok(RunOutcome::Cancelled(checkpoint)) => checkpoint.to_json().to_string(),
                other => panic!("expected cancellation, got {other:?}"),
            }
        };
        for scheme in SchemeComparison::SCHEME_ORDER {
            let config = config_for(scheme);
            let mut fresh = Simulator::new(SystemConfig::small_test(), config.clone());
            let expected_checkpoint = checkpoint_json(&mut fresh);
            let mut fresh = Simulator::new(SystemConfig::small_test(), config.clone());
            let expected_report = fresh.run(&trace).to_json().to_string();

            let mut reused = Simulator::new(SystemConfig::small_test(), config);
            reused.run(&dirty);
            // Every line the dirty trace touched was filled at a home slice,
            // and home entries leave the LLC only by eviction.
            let line_bytes = reused.system.cache_line_bytes;
            let evicted_home = dirty.iter().any(|access| {
                let line = access.address.line(line_bytes);
                !reused
                    .tiles
                    .iter()
                    .any(|tile| matches!(tile.llc.probe(line), Some(LlcEntry::Home(_))))
            });
            assert!(evicted_home, "{scheme}: the dirtying run must evict");
            assert_eq!(
                checkpoint_json(&mut reused),
                expected_checkpoint,
                "{scheme}"
            );
            reused.run(&dirty);
            assert_eq!(
                reused.run(&trace).to_json().to_string(),
                expected_report,
                "{scheme}"
            );
        }
    }

    #[test]
    fn snuca_never_creates_replicas() {
        let report = run(ReplicationConfig::static_nuca(), Benchmark::Barnes, 1600);
        assert_eq!(report.replicas_created, 0);
        assert_eq!(report.misses.llc_replica_hits, 0);
    }

    #[test]
    fn locality_aware_creates_replicas_for_high_reuse_benchmarks() {
        let report = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Barnes,
            1600,
        );
        assert!(
            report.replicas_created > 0,
            "BARNES has high reuse and must replicate"
        );
        assert!(report.misses.llc_replica_hits > 0);
    }

    #[test]
    fn locality_aware_replicates_less_for_low_reuse_benchmarks() {
        let high = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Barnes,
            1600,
        );
        let low = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Fluidanimate,
            1600,
        );
        let high_rate = high.misses.replica_hit_fraction();
        let low_rate = low.misses.replica_hit_fraction();
        assert!(
            high_rate > low_rate,
            "replica hit fraction: BARNES {high_rate:.3} vs FLUIDANIMATE {low_rate:.3}"
        );
    }

    #[test]
    fn rt1_replicates_more_aggressively_than_rt8() {
        let rt1 = run(
            ReplicationConfig::locality_aware(1),
            Benchmark::Barnes,
            1600,
        );
        let rt8 = run(
            ReplicationConfig::locality_aware(8),
            Benchmark::Barnes,
            1600,
        );
        assert!(rt1.replicas_created >= rt8.replicas_created);
    }

    #[test]
    fn victim_replication_creates_replicas_on_evictions() {
        let report = run(
            ReplicationConfig::victim_replication(),
            Benchmark::Barnes,
            1600,
        );
        assert!(report.replicas_created > 0);
    }

    #[test]
    fn asr_level_zero_matches_no_replication() {
        let report = run(ReplicationConfig::asr(0.0), Benchmark::Streamcluster, 1200);
        assert_eq!(report.replicas_created, 0);
        let report = run(ReplicationConfig::asr(1.0), Benchmark::Streamcluster, 1200);
        assert!(
            report.replicas_created > 0,
            "ASR at level 1 must replicate shared read-only data"
        );
    }

    #[test]
    fn offchip_misses_dominate_for_llc_exceeding_working_sets() {
        let big = run(
            ReplicationConfig::static_nuca(),
            Benchmark::Fluidanimate,
            1600,
        );
        let small = run(
            ReplicationConfig::static_nuca(),
            Benchmark::WaterNsquared,
            1600,
        );
        assert!(
            big.misses.offchip_fraction() > small.misses.offchip_fraction(),
            "FLUIDANIMATE {:.3} vs WATER-NSQ {:.3}",
            big.misses.offchip_fraction(),
            small.misses.offchip_fraction()
        );
    }

    #[test]
    fn run_length_profile_reflects_benchmark_reuse() {
        let barnes = run(ReplicationConfig::static_nuca(), Benchmark::Barnes, 1600);
        let fluid = run(
            ReplicationConfig::static_nuca(),
            Benchmark::Fluidanimate,
            1600,
        );
        let barnes_mean = barnes
            .run_lengths
            .mean_run_length(DataClass::SharedReadWrite)
            .unwrap_or(0.0);
        let fluid_mean = fluid
            .run_lengths
            .mean_run_length(DataClass::SharedReadWrite)
            .unwrap_or(0.0);
        assert!(
            barnes_mean > fluid_mean,
            "BARNES mean run {barnes_mean:.2} vs FLUIDANIMATE {fluid_mean:.2}"
        );
    }

    #[test]
    fn latency_breakdown_components_are_populated() {
        let report = run(
            ReplicationConfig::locality_aware(3),
            Benchmark::Barnes,
            1600,
        );
        assert!(report.latency.compute > 0);
        assert!(report.latency.l1_to_llc_home > 0);
        assert!(report.latency.l1_to_llc_replica > 0);
        // Writes to shared data trigger invalidations.
        assert!(report.latency.llc_home_to_sharers > 0);
    }

    #[test]
    fn dram_energy_appears_only_with_offchip_misses() {
        let report = run(
            ReplicationConfig::static_nuca(),
            Benchmark::Fluidanimate,
            1200,
        );
        assert!(report.energy.component(Component::Dram) > 0.0);
        assert!(report.misses.offchip_misses > 0);
    }

    #[test]
    #[should_panic(expected = "trace has")]
    fn trace_with_too_many_cores_is_rejected() {
        let mut sim = Simulator::new(SystemConfig::small_test(), ReplicationConfig::static_nuca());
        let trace = TraceGenerator::new(Benchmark::Dedup.profile()).generate(64, 10, 1);
        sim.run(&trace);
    }

    #[test]
    fn metrics_registry_observes_without_changing_results() {
        let exported_accesses = |registry: &MetricsRegistry| {
            let sample = registry
                .snapshot()
                .into_iter()
                .find(|sample| sample.name == "lad_engine_accesses_total");
            match sample.map(|sample| sample.value) {
                Some(lad_obs::SampleValue::Counter(n)) => Some(n),
                _ => None,
            }
        };
        let trace = small_trace(Benchmark::Barnes, 400, 42);
        let report_json = |registry: &MetricsRegistry| {
            let mut sim = Simulator::new(
                SystemConfig::small_test(),
                ReplicationConfig::locality_aware(3),
            );
            sim.set_metrics_registry(registry);
            sim.run(&trace);
            sim.report().to_json().to_string()
        };
        let armed = MetricsRegistry::new();
        let noop = MetricsRegistry::noop();
        assert_eq!(report_json(&armed), report_json(&noop));
        assert_eq!(
            exported_accesses(&armed),
            Some(trace.total_accesses() as u64)
        );
        assert_eq!(exported_accesses(&noop), Some(0));

        // A cancelled run counts the accesses it stepped, and its resume
        // to completion counts the rest.
        let registry = MetricsRegistry::new();
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        sim.set_metrics_registry(&registry);
        let mut stop = StopAfter::new(1000);
        let checkpoint = match sim
            .run_source_observed(&mut MemorySource::new(&trace), Some(&mut stop))
            .unwrap()
        {
            RunOutcome::Cancelled(checkpoint) => checkpoint,
            RunOutcome::Completed(_) => panic!("the trace is longer than 1000 accesses"),
        };
        assert_eq!(exported_accesses(&registry), Some(1000));
        let resumed = sim
            .resume_source(&mut MemorySource::new(&trace), &checkpoint, None)
            .unwrap();
        assert!(matches!(resumed, RunOutcome::Completed(_)));
        assert_eq!(
            exported_accesses(&registry),
            Some(trace.total_accesses() as u64)
        );
    }
}
