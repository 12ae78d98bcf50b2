//! Trace capture & replay: the LADT binary trace format and the streaming
//! [`TraceSource`] abstraction.
//!
//! The in-memory [`WorkloadTrace`](lad_trace::generator::WorkloadTrace)
//! bounds workloads by RAM and limits them to the built-in synthetic
//! generator.  This crate adds a portable on-disk form — **LADT** (magic +
//! version + header, per-core chunked frames, varint + zigzag delta-encoded
//! addresses and compute gaps; see [`format`](mod@format) for the
//! byte-level spec) — with streaming [`TraceWriter`]/[`TraceReader`] over any
//! `std::io::Write`/`Read`, so traces replay byte-for-byte reproducibly
//! across machines in O(chunk) memory instead of O(trace).
//!
//! Simulations consume any trace through the [`TraceSource`] trait
//! (`Simulator::run_source` in `lad-sim`): [`MemorySource`] wraps in-memory
//! traces, [`GeneratorSource`] wraps the synthetic generator and
//! [`FileSource`] streams `.ladt` files.  [`text`] converts the common
//! one-access-per-line interchange format, and [`suite`] records whole
//! benchmark suites to directories of `.ladt` files.  [`digest`] computes
//! chunking-independent FNV-1a 64 content digests over decoded accesses —
//! the content-addressed key of the experiment service's result cache.
//!
//! # Example
//!
//! ```
//! use lad_traceio::{encode_workload, ReaderSource, TraceSource};
//! use lad_trace::benchmarks::Benchmark;
//! use lad_trace::generator::TraceGenerator;
//! use lad_common::types::CoreId;
//!
//! let trace = TraceGenerator::new(Benchmark::Barnes.profile()).generate(2, 50, 7);
//! let bytes = encode_workload(&trace, 7).unwrap();
//! let mut source = ReaderSource::new(std::io::Cursor::new(bytes)).unwrap();
//! assert_eq!(source.name(), "BARNES");
//! let first = source.next_for_core(CoreId::new(0)).unwrap().unwrap();
//! assert_eq!(first, trace.core_stream(CoreId::new(0))[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod digest;
pub mod error;
pub mod format;
pub mod reader;
pub mod source;
pub mod suite;
pub mod text;
pub mod varint;
pub mod writer;

pub use digest::{digest_file, digest_source, digest_workload, DigestBuilder, TraceDigest};
pub use error::TraceError;
pub use format::{TraceHeader, DEFAULT_CHUNK_SIZE, FORMAT_VERSION, MAGIC, MAX_FRAME_ACCESSES};
pub use reader::{decode_all, TraceReader};
pub use source::{FileSource, GeneratorSource, MemorySource, ReaderSource, TraceSource};
pub use suite::{record_benchmark, record_suite, RecordedTrace};
pub use writer::{encode_workload, TraceWriter};
