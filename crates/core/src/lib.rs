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
//! * [`scheme`] / [`config`] — [`SchemeId`], the one name of each
//!   evaluated scheme (S-NUCA, R-NUCA, VR, ASR at a replication level,
//!   the locality-aware protocol at a replication threshold RT) and the
//!   list of the paper's built-in sweep, and the knobs a scheme runs with
//!   (classifier kind, cluster size, LLC replacement policy).
//! * [`entry`] — the metadata stored in each LLC slice entry: the home
//!   directory entry extended with the classifier (Figure 4 / Figure 5) and
//!   the replica entry with its reuse counter.
//! * [`policy`] — the pluggable [`ReplicationPolicy`] trait the timing
//!   engine drives its replication decisions through, the built-in policies
//!   implementing the five schemes (each holding its own placement and
//!   decision rule: Victim Replication's victim-cache insertion, ASR's
//!   probabilistic shared-read-only replication, the locality-aware
//!   classifier), and the [`SchemeRegistry`] that lets
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
pub use scheme::{SchemeId, UnknownScheme};

/// Unit tests of the two rules the eviction-time built-in policies hold,
/// each reached through its `replicate_on_l1_evict`: Victim Replication's
/// victim-cache insertion and ASR's class-and-level draw.
#[cfg(test)]
mod policies {
    mod tests {
        use lad_coherence::mesi::MesiState;
        use lad_common::rng::DeterministicRng;
        use lad_common::types::{CoreId, DataClass};

        use crate::classifier::ClassifierKind;
        use crate::entry::{HomeEntry, LlcEntry, ReplicaEntry};
        use crate::policy::{AsrScheme, EvictDecision, ReplicationPolicy, VictimReplicationScheme};
        use crate::scheme::SchemeId;

        /// VR's decision for the L1 victim of a private line.
        fn vr_inserts(set_has_free_way: bool, victim: Option<&LlcEntry>) -> bool {
            VictimReplicationScheme.replicate_on_l1_evict(EvictDecision {
                class: DataClass::Private,
                set_has_free_way,
                victim,
                rng: &mut DeterministicRng::seed_from(1),
            })
        }

        /// ASR's decision, at `hundredths`, for an L1 victim of `class`.
        fn asr_replicates(hundredths: u8, class: DataClass, rng: &mut DeterministicRng) -> bool {
            AsrScheme::new(hundredths).replicate_on_l1_evict(EvictDecision {
                class,
                set_has_free_way: true,
                victim: None,
                rng,
            })
        }

        #[test]
        fn vr_inserts_into_free_way() {
            assert!(vr_inserts(true, None));
        }

        #[test]
        fn vr_displaces_replicas_and_sharerless_home_lines() {
            let replica = LlcEntry::Replica(ReplicaEntry::new(MesiState::Shared, 3));
            assert!(vr_inserts(false, Some(&replica)));

            let idle_home = LlcEntry::Home(HomeEntry::new(4, ClassifierKind::Limited(3), 3));
            assert!(vr_inserts(false, Some(&idle_home)));

            let mut busy = HomeEntry::new(4, ClassifierKind::Limited(3), 3);
            busy.directory.handle_read(CoreId::new(2));
            let busy_home = LlcEntry::Home(busy);
            assert!(!vr_inserts(false, Some(&busy_home)));

            assert!(!vr_inserts(false, None));
        }

        #[test]
        fn asr_levels_cover_paper_sweep() {
            let levels: Vec<u8> = SchemeId::BUILTIN
                .iter()
                .filter_map(|id| match id {
                    SchemeId::AsrAt(hundredths) => Some(*hundredths),
                    _ => None,
                })
                .collect();
            assert_eq!(levels, [0, 25, 50, 75, 100]);
            assert_eq!(SchemeId::asr_at_level(2.0), SchemeId::AsrAt(100));
            assert_eq!(SchemeId::asr_at_level(-0.5), SchemeId::AsrAt(0));
        }

        #[test]
        fn asr_only_replicates_read_only_classes() {
            let mut rng = DeterministicRng::seed_from(1);
            assert!(asr_replicates(100, DataClass::SharedReadOnly, &mut rng));
            assert!(asr_replicates(100, DataClass::Instruction, &mut rng));
            assert!(!asr_replicates(100, DataClass::SharedReadWrite, &mut rng));
            assert!(!asr_replicates(100, DataClass::Private, &mut rng));
        }

        #[test]
        fn asr_level_zero_never_replicates_and_probability_scales() {
            let mut rng = DeterministicRng::seed_from(7);
            assert!((0..100).all(|_| !asr_replicates(0, DataClass::SharedReadOnly, &mut rng)));

            let hits = (0..10_000)
                .filter(|_| asr_replicates(50, DataClass::SharedReadOnly, &mut rng))
                .count();
            assert!((4300..5700).contains(&hits), "got {hits}");
        }
    }
}
