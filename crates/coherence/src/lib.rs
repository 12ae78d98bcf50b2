//! Cache coherence substrate: MESI states, the ACKwise limited directory and
//! the home-directory state machine.
//!
//! The paper's baseline system (Section 2.1) keeps the private L1 caches
//! coherent with an invalidation-based MESI protocol whose directory is
//! integrated with the LLC tags (an *in-cache* directory) and uses the
//! ACKwise₄ limited-pointer organization: each directory entry has four
//! hardware sharer pointers; when a line acquires more sharers than
//! pointers, the entry falls back to tracking only the sharer *count* and
//! invalidations are broadcast to all cores (acknowledgements are still
//! counted exactly, which is what makes ACKwise correct).
//!
//! The locality-aware replication protocol of the paper is layered *on top*
//! of this substrate (crate `lad-replication`): the directory keeps exactly
//! one pointer per core for that core's whole local cache hierarchy (L1
//! caches + local LLC replica), so coherence complexity stays that of a flat
//! protocol.
//!
//! The crate has three modules:
//!
//! * [`mesi`] — the per-cache-copy MESI state and its transitions.
//! * [`ackwise`] — the limited-pointer sharer list.
//! * [`directory`] — the home-directory entry and its request/response state
//!   machine ([`directory::DirectoryEntry::handle_read`],
//!   [`directory::DirectoryEntry::handle_write`], eviction and write-back
//!   handling), expressed as *actions* (invalidate these sharers, downgrade
//!   this owner, fetch from memory) that the simulator's protocol engine
//!   executes and times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod ackwise;
pub mod directory;
pub mod mesi;

pub use ackwise::{AckwiseSharers, InvalidationTargets};
pub use directory::{DirectoryEntry, ReadGrant, ReadOutcome, WriteOutcome};
pub use mesi::MesiState;
