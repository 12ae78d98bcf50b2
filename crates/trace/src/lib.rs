//! Synthetic multi-threaded memory-access traces.
//!
//! The paper evaluates 21 benchmarks from SPLASH-2, PARSEC, Parallel
//! MiBench and the UHPC graph suite (Table 2).  Those applications and their
//! inputs are not available here, so this crate substitutes *profile-driven
//! synthetic traces*: each benchmark is described by a
//! [`generator::BenchmarkProfile`] giving
//!
//! * the mix of LLC accesses by data class (instructions, private data,
//!   shared read-only, shared read-write), matching the characterization of
//!   Figure 1;
//! * the reuse *run-length* distribution per class (how many times a core
//!   re-touches a line before a conflicting access or eviction), which is
//!   the quantity the locality classifier keys on;
//! * working-set sizes (whether the benchmark fits in the LLC), sharing
//!   degree, write fraction, migratory behaviour and page-level false
//!   sharing.
//!
//! The generators are fully deterministic from a seed, so every experiment
//! is reproducible.
//!
//! # Example
//!
//! ```
//! use lad_trace::benchmarks::Benchmark;
//! use lad_trace::generator::TraceGenerator;
//!
//! let profile = Benchmark::Barnes.profile();
//! let trace = TraceGenerator::new(profile).generate(4, 200, 42);
//! assert_eq!(trace.num_cores(), 4);
//! assert!(trace.total_accesses() >= 4 * 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod benchmarks;
pub mod error;
pub mod generator;
pub mod pattern;
pub mod suite;

pub use benchmarks::Benchmark;
pub use error::ProfileError;
pub use generator::{BenchmarkProfile, TraceGenerator, WorkloadTrace};
pub use suite::BenchmarkSuite;
