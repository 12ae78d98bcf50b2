//! Dynamic energy model and per-component accounting.
//!
//! The paper evaluates energy with McPAT/CACTI (caches, directory, DRAM) and
//! DSENT (routers, links) at the 11 nm node.  Those tools are not available
//! here, so this crate substitutes a table of per-event dynamic energies
//! ([`model::EnergyModel`]) whose *relative* magnitudes preserve the
//! orderings the paper's analysis depends on:
//!
//! * a DRAM access costs two orders of magnitude more than an on-chip cache
//!   access, so off-chip misses dominate when they occur;
//! * an LLC data-array access costs several times an L1 access, and a write
//!   costs ~1.2× a read (the factor the paper quotes when explaining Victim
//!   Replication's L2 energy overhead);
//! * directory lookups are cheaper than data arrays but grow with the
//!   classifier width (the locality-aware protocol's lookup/update covers
//!   both the sharer list and the locality metadata, Section 2.4.2);
//! * network energy is proportional to flit × router traversals and
//!   flit × link traversals.
//!
//! Energy is reported per component ([`accounting::Component`]) so the
//! stacked-bar breakdown of Figure 6 can be regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod accounting;
pub mod model;

pub use accounting::{Component, EnergyAccounting};
pub use model::EnergyModel;
