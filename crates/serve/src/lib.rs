//! Multi-tenant experiment service for the locality-aware replication
//! simulator: a TCP daemon (`lad-serve`) that schedules (workload × scheme)
//! simulation cells across a persistent worker pool, caches results by
//! content, and checkpoints long cells so cancelled or killed work resumes
//! instead of recomputing — plus the matching client library and CLI
//! (`lad-client`).
//!
//! The wire protocol is newline-delimited JSON over plain TCP (see
//! [`protocol`] for the frame grammar and error codes, and the README's
//! "Experiment service" section for the per-verb specification), built
//! entirely on `std::net` and the workspace's own
//! [`lad_common::json`] codec — no external dependencies.
//!
//! # Quick start
//!
//! ```
//! use std::time::Duration;
//! use lad_serve::client::Client;
//! use lad_serve::protocol::{JobSpec, SystemPreset, TraceSpec};
//! use lad_serve::server::{Server, ServerConfig};
//!
//! let dir = std::env::temp_dir().join(format!("lad-serve-doc-{}", std::process::id()));
//! let mut config = ServerConfig::new(&dir);
//! config.workers = 2;
//! let server = Server::spawn(config).unwrap();
//!
//! let mut client = Client::connect(server.addr().to_string()).unwrap();
//! let receipt = client
//!     .submit(&JobSpec {
//!         trace: TraceSpec::Builtin {
//!             benchmark: "BARNES".into(),
//!             cores: 16,
//!             accesses_per_core: 100,
//!             seed: 7,
//!         },
//!         schemes: vec!["RT-3".into()],
//!         system: SystemPreset::SmallTest,
//!     })
//!     .unwrap();
//! let job = receipt.get("job").and_then(|j| j.as_str()).unwrap().to_string();
//! let result = client.wait(&job, Duration::from_millis(20)).unwrap();
//! assert_eq!(result.get("results").and_then(|r| r.as_array()).unwrap().len(), 1);
//!
//! client.shutdown().unwrap();
//! server.join();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod client;
pub mod durable;
pub mod protocol;
pub mod server;

pub use cache::{CacheKey, ResultCache};
pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{JobSpec, ServeError, SystemPreset, TraceSpec, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
