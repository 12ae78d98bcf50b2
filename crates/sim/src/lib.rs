//! Full-system simulator: 64 tiles (core + L1 caches + LLC slice +
//! directory), a 2-D mesh NoC, DRAM controllers and the LLC management
//! scheme under evaluation.
//!
//! The simulator is transaction-level (in the spirit of the Graphite
//! simulator the paper uses): every memory access issued by a core is driven
//! through the complete protocol path —
//!
//! 1. private L1 lookup,
//! 2. local (or cluster) LLC slice lookup for a replica,
//! 3. the LLC home slice: serialization with conflicting requests, directory
//!    actions (downgrades, invalidations), classifier decisions,
//! 4. off-chip DRAM on an LLC miss,
//! 5. L1 / replica fills and the resulting evictions and notifications —
//!
//! and every step contributes to the completion-time breakdown of Figure 7,
//! the L1-miss-type breakdown of Figure 8 and the per-component energy
//! breakdown of Figure 6.
//!
//! # Example
//!
//! ```
//! use lad_common::config::SystemConfig;
//! use lad_replication::config::ReplicationConfig;
//! use lad_sim::engine::Simulator;
//! use lad_trace::{Benchmark, TraceGenerator};
//!
//! let system = SystemConfig::small_test();
//! let trace = TraceGenerator::new(Benchmark::Barnes.profile())
//!     .generate(system.num_cores, 200, 1);
//! let mut sim = Simulator::new(system, ReplicationConfig::locality_aware(3));
//! let report = sim.run(&trace);
//! assert!(report.completion_time.value() > 0);
//! assert!(report.energy.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod schedule;
pub mod tile;

pub use checkpoint::{EngineCheckpoint, ResumeError};
pub use engine::{
    AccessOutcome, RunControl, RunObserver, RunOutcome, RunProgress, ServedBy, Simulator, StopAfter,
};
pub use experiment::{ExperimentRunner, SchemeComparison};
pub use metrics::{
    ClassifierStats, LatencyBreakdown, MissBreakdown, RunLengthProfile, SimulationReport,
};
pub use schedule::CoreScheduler;
