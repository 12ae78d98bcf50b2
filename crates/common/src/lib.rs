//! Core types and utilities shared by every crate of the locality-aware LLC
//! replication reproduction.
//!
//! This crate deliberately has no knowledge of caches, coherence or the
//! replication protocol itself.  It provides:
//!
//! * [`types`] — strongly-typed identifiers (cores, cache lines, addresses),
//!   memory operations and data-class labels used throughout the system.
//! * [`config`] — the architectural configuration mirroring Table 1 of the
//!   paper (64 cores, 256 KB LLC slices, ACKwise₄, 2-cycle mesh hops, ...).
//! * [`stats`] — histograms and summary statistics used by the metric
//!   collection of the simulator and the experiment harness.
//! * [`rng`] — a small deterministic random-number facade so that every
//!   simulation and workload generator is reproducible from a seed.
//! * [`collections`] — fixed-seed fast hash maps ([`collections::FastMap`])
//!   for simulator hot paths where `SipHash` is too slow.
//! * [`json`] — a dependency-free JSON document model (serializer + strict
//!   parser) used for the machine-readable experiment reports.
//! * [`hex`] — the table-driven hex codec that carries binary payloads
//!   (trace uploads, engine-checkpoint blobs) inside JSON documents.
//! * [`workers`] — the one worker-count resolution chain (explicit override,
//!   then `LAD_THREADS`, then the machine's parallelism) shared by every
//!   parallel entry point.
//! * [`fault`] — deterministic, seeded fault injection ([`fault::FaultPlan`],
//!   [`fault::FaultInjector`], [`fault::FaultyRead`]/[`fault::FaultyWrite`])
//!   used by the robustness torture suites; disarmed it costs one branch.
//! * [`fs`] — crash-consistent durable writes ([`fs::atomic_write`]: temp
//!   file + `fsync` + atomic rename + directory `fsync`).
//! * [`cli`] — the argument-vector helpers of the command-line tools.
//!
//! # Example
//!
//! ```
//! use lad_common::config::SystemConfig;
//! use lad_common::types::{Address, CoreId};
//!
//! let config = SystemConfig::paper_default();
//! assert_eq!(config.num_cores, 64);
//!
//! let addr = Address::new(0xdead_beef);
//! let line = addr.line(config.cache_line_bytes);
//! assert_eq!(line.byte_address(config.cache_line_bytes) % config.cache_line_bytes as u64, 0);
//! let home = CoreId::new(5);
//! assert_eq!(home.index(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod collections;
pub mod config;
pub mod fault;
pub mod fs;
pub mod hex;
pub mod json;
pub mod rng;
pub mod stats;
pub mod types;
pub mod workers;

pub use config::SystemConfig;
pub use json::JsonValue;
pub use types::{Address, CacheLine, CoreId, Cycle, DataClass, MemOp};
