//! `lad-check` — exhaustive protocol-invariant checking for the
//! locality-aware replication protocol.
//!
//! The crate is organized around one **invariant catalog** ([`catalog`])
//! enforced through three layers:
//!
//! 1. **Static exploration** ([`model`], [`explore`](mod@explore)) — the protocol's
//!    transition function (MESI L1 states × home directory state × replica
//!    state × ACKwise sharer lists × classifier counters, driven by the
//!    real [`ReplicationPolicy`](lad_replication::policy::ReplicationPolicy)
//!    objects) is expressed as a declarative step relation, and every
//!    reachable state of a small configuration is checked by breadth-first
//!    search.  Violations come with a shortest counterexample trace.
//! 2. **Runtime checking** ([`view`]) — the same [`view::check_view`]
//!    function runs over the live `lad-sim` engine's state under
//!    `debug_assertions`, so trace replays enforce the identical catalog.
//! 3. **Mutation harness** ([`mutation`]) — seeded protocol bugs the
//!    checker must flag, proving the catalog has teeth.
//!
//! The `lad-check` binary fronts the crate (`check --all`,
//! `check --scheme <id>`, `check --mutants`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod explore;
pub mod model;
pub mod mutation;
pub mod view;

pub use catalog::{require, violated, Invariant, Violation};
pub use explore::{explore, Exploration, ExploreOptions, FoundViolation};
pub use model::{Event, Model, ModelConfig, ModelState, Mutant};
pub use mutation::{run_mutant, MutantOutcome, SeededMutant, SEEDED_MUTANTS};
pub use view::{check_view, HomeSummary, ProtocolView};
