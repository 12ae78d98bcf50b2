//! Locality-aware LLC data replication — the paper's primary contribution —
//! together with the baseline LLC management schemes it is evaluated against.
//!
//! The crate provides the *policy* layer of the protocol described in
//! Section 2 of the paper; the timing engine that drives it lives in
//! `lad-sim`.  The pieces are:
//!
//! * [`counter`] — small saturating reuse counters (the 2-bit Replica-Reuse
//!   and Home-Reuse counters of Figure 4).
//! * [`classifier`] — the run-time locality classifier: the Complete
//!   classifier that tracks every core and the cost-efficient Limited_k
//!   classifier (Section 2.2.5) that tracks `k` cores and classifies the
//!   rest by majority vote.
//! * [`placement`] — LLC home placement: Static-NUCA address interleaving
//!   and Reactive-NUCA's page-grain private/shared placement with
//!   cluster-level instruction replication, which the locality-aware
//!   protocol reuses for data placement (Section 2.1).
//! * [`scheme`] / [`config`] — the five evaluated schemes
//!   (S-NUCA, R-NUCA, VR, ASR, locality-aware) and their knobs
//!   (replication threshold RT, classifier kind, cluster size,
//!   ASR replication level, LLC replacement policy).
//! * [`entry`] — the metadata stored in each LLC slice entry: the home
//!   directory entry extended with the classifier (Figure 4 / Figure 5) and
//!   the replica entry with its reuse counter.
//! * [`policies`] — the per-scheme replication decision helpers
//!   (Victim Replication's victim-cache insertion rule, ASR's probabilistic
//!   shared-read-only replication).
//! * [`policy`] — the pluggable [`ReplicationPolicy`] trait the timing
//!   engine drives its replication decisions through, the built-in policies
//!   implementing the five schemes, and the [`SchemeRegistry`] that lets
//!   out-of-crate schemes join experiment sweeps under a typed
//!   [`SchemeId`].
//! * [`overhead`] — the storage-overhead model of Section 2.4, reproducing
//!   the 13.5 KB / 96 KB per-slice classifier costs.
//!
//! # Example: the classifier in isolation
//!
//! ```
//! use lad_replication::classifier::{ClassifierKind, LocalityClassifier, ReplicationMode};
//! use lad_common::types::CoreId;
//!
//! // Limited_3 classifier with the paper's optimal RT = 3.
//! let mut classifier = LocalityClassifier::new(ClassifierKind::Limited(3), 3);
//! let core = CoreId::new(7);
//!
//! // The first two home hits train the classifier; the third promotes the
//! // core to replica mode.
//! assert_eq!(classifier.on_home_read(core), ReplicationMode::NonReplica);
//! assert_eq!(classifier.on_home_read(core), ReplicationMode::NonReplica);
//! assert_eq!(classifier.on_home_read(core), ReplicationMode::Replica);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod config;
pub mod counter;
pub mod entry;
pub mod overhead;
pub mod placement;
pub mod policies;
pub mod policy;
pub mod scheme;

pub use classifier::{ClassifierKind, LocalityClassifier, ReplicationMode, TrackedCore};
pub use config::ReplicationConfig;
pub use counter::SaturatingCounter;
pub use entry::{HomeEntry, LlcEntry, ReplicaEntry};
pub use placement::HomeMap;
pub use policy::{
    builtin_policy, EvictDecision, FillDecision, RegisteredScheme, ReplicationPolicy,
    SchemeRegistry,
};
pub use scheme::{SchemeId, SchemeKind, UnknownScheme};
