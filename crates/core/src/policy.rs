//! The pluggable replication-policy interface and the scheme registry.
//!
//! The timing engine (`lad-sim`) drives every memory access through a fixed
//! protocol skeleton — L1 lookup, replica-slice lookup, home-slice directory
//! actions, DRAM — and delegates every *replication decision* to a
//! [`ReplicationPolicy`] object:
//!
//! * [`ReplicationPolicy::replicate_on_fill`] — after the home slice served
//!   an L1 miss: install a replica at the requester's slice?  (This is where
//!   the paper's locality classifier lives.)
//! * [`ReplicationPolicy::replicate_on_l1_evict`] — when the L1 evicts a
//!   line: turn the victim into a local LLC replica?  (Victim Replication
//!   and ASR replicate here.)
//! * the capability flags ([`replicates`](ReplicationPolicy::replicates),
//!   [`invalidate_replica_on_hit`](ReplicationPolicy::invalidate_replica_on_hit),
//!   [`uses_classifier`](ReplicationPolicy::uses_classifier), ...) — which
//!   protocol paths and energy events the scheme enables.
//!
//! The five schemes of the paper's evaluation are built-in policies, one
//! struct per family, each holding its own placement and decision rule;
//! [`builtin_policy`] builds one from its [`SchemeId`], and
//! [`SchemeRegistry::builtin`] registers every id of [`SchemeId::BUILTIN`].
//! Out-of-crate schemes implement the trait and register under a
//! [`SchemeId::Custom`] id, after which the experiment runner can sweep them
//! exactly like the built-ins — without any change to the timing engine.
//!
//! # Example: a toy always-replicate policy
//!
//! ```
//! use std::sync::Arc;
//! use lad_replication::config::ReplicationConfig;
//! use lad_replication::placement::PlacementPolicy;
//! use lad_replication::policy::{
//!     EvictDecision, FillDecision, ReplicationPolicy, SchemeRegistry,
//! };
//! use lad_replication::scheme::SchemeId;
//!
//! #[derive(Debug)]
//! struct AlwaysReplicate;
//!
//! impl ReplicationPolicy for AlwaysReplicate {
//!     fn id(&self) -> SchemeId {
//!         SchemeId::Custom("ALWAYS")
//!     }
//!     fn placement(&self) -> PlacementPolicy {
//!         PlacementPolicy::AddressInterleaved
//!     }
//!     fn replicates(&self) -> bool {
//!         true
//!     }
//!     fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
//!         true
//!     }
//!     fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
//!         false
//!     }
//! }
//!
//! let mut registry = SchemeRegistry::builtin();
//! registry.register(Arc::new(AlwaysReplicate), ReplicationConfig::static_nuca());
//! assert!(registry.get(SchemeId::Custom("ALWAYS")).is_ok());
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use lad_cache::replacement::SharerCount;
use lad_common::rng::DeterministicRng;
use lad_common::types::{CoreId, DataClass};

use crate::classifier::{LocalityClassifier, ReplicationMode};
use crate::config::ReplicationConfig;
use crate::entry::LlcEntry;
use crate::placement::PlacementPolicy;
use crate::scheme::{SchemeId, UnknownScheme};

/// Everything a policy may consult when the home slice decides whether to
/// install a replica at the requester's slice after serving an L1 miss.
#[derive(Debug)]
pub struct FillDecision<'a> {
    /// The requesting core.
    pub core: CoreId,
    /// `true` for write requests.
    pub is_write: bool,
    /// `true` if the directory found other sharers/owners on a write
    /// (distinguishes migratory data from actively shared data).
    pub other_sharers_present: bool,
    /// The reuse counter of the requester's own LLC replica if this write
    /// invalidated one on its way to the home, `None` otherwise.
    pub own_replica_reuse: Option<u32>,
    /// The locality classifier stored in the line's home directory entry.
    /// Policies that classify (the locality-aware protocol) both read and
    /// train it here; stateless policies ignore it.
    pub classifier: &'a mut LocalityClassifier,
}

/// Everything a policy may consult when an L1 eviction could be turned into
/// a local LLC replica.
#[derive(Debug)]
pub struct EvictDecision<'a> {
    /// Ground-truth data class of the evicted line (ASR replicates only
    /// instructions and shared read-only data).
    pub class: DataClass,
    /// `true` if the target LLC set has an invalid way (insertion is free).
    pub set_has_free_way: bool,
    /// The entry the LLC replacement policy would displace, when the set is
    /// full.
    pub victim: Option<&'a LlcEntry>,
    /// The simulation's deterministic randomness (ASR's probabilistic
    /// replication draws from it).
    pub rng: &'a mut DeterministicRng,
}

/// A pluggable LLC replication scheme.
///
/// Implementations must be stateless between accesses: all per-line state
/// lives in the home entry's classifier (handed to
/// [`replicate_on_fill`](Self::replicate_on_fill)) and all randomness in the
/// engine's RNG (handed to
/// [`replicate_on_l1_evict`](Self::replicate_on_l1_evict)), so one policy
/// object can be shared (`Arc`) by every worker thread of an experiment
/// sweep and simulations stay deterministic.
pub trait ReplicationPolicy: fmt::Debug + Send + Sync {
    /// The typed identity of this scheme (used as the report/matrix key and
    /// the report label).
    fn id(&self) -> SchemeId;

    /// The home-placement policy the scheme runs on.
    fn placement(&self) -> PlacementPolicy;

    /// `true` if the scheme ever installs replicas in the requester's local
    /// (or cluster) LLC slice.  When `false`, the engine skips the
    /// replica-slice lookup entirely (S-NUCA, R-NUCA).
    fn replicates(&self) -> bool;

    /// `true` if L1 evictions are replication opportunities
    /// ([`replicate_on_l1_evict`](Self::replicate_on_l1_evict) will be
    /// consulted).  Defaults to `false`.
    fn replicates_on_eviction(&self) -> bool {
        false
    }

    /// `true` if the scheme consults the home entry's locality classifier
    /// (charges classifier access energy and reports eviction reuse back to
    /// it).  Defaults to `false`.
    fn uses_classifier(&self) -> bool {
        false
    }

    /// `true` if a replica hit moves the line into the L1 and invalidates
    /// the LLC copy (Victim Replication's exclusive L1/LLC relationship).
    /// Defaults to `false`.
    fn invalidate_replica_on_hit(&self) -> bool {
        false
    }

    /// Decides whether the home installs a replica at the requester's slice
    /// after serving an L1 miss.  Called for every request processed at the
    /// home, even when the requester's replica slice *is* the home — train
    /// classifiers here unconditionally; the engine only materializes the
    /// replica when a distinct replica slice exists.
    fn replicate_on_fill(&self, decision: FillDecision<'_>) -> bool;

    /// Decides whether an L1 victim is installed as a replica in the local
    /// LLC slice.  Only consulted when
    /// [`replicates_on_eviction`](Self::replicates_on_eviction) is `true`.
    fn replicate_on_l1_evict(&self, decision: EvictDecision<'_>) -> bool;
}

// ----- built-in policies ---------------------------------------------------

/// Static-NUCA: address-interleaved placement, no replication.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticNucaScheme;

impl ReplicationPolicy for StaticNucaScheme {
    fn id(&self) -> SchemeId {
        SchemeId::StaticNuca
    }
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::AddressInterleaved
    }
    fn replicates(&self) -> bool {
        false
    }
    fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
        false
    }
    fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
        false
    }
}

/// Reactive-NUCA: page-grain placement with instructions replicated per
/// 4-core cluster; no LLC data replication.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactiveNucaScheme;

impl ReplicationPolicy for ReactiveNucaScheme {
    fn id(&self) -> SchemeId {
        SchemeId::ReactiveNuca
    }
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::Rnuca {
            instruction_cluster: 4,
        }
    }
    fn replicates(&self) -> bool {
        false
    }
    fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
        false
    }
    fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
        false
    }
}

/// Victim Replication (Zhang & Asanović), modelled on Static-NUCA
/// placement: the local LLC slice acts as a victim cache for L1 evictions,
/// and replica hits move the line back into the L1.  It never consults
/// reuse, which is the LLC pollution the paper criticises.
#[derive(Debug, Clone, Copy, Default)]
pub struct VictimReplicationScheme;

impl ReplicationPolicy for VictimReplicationScheme {
    fn id(&self) -> SchemeId {
        SchemeId::VictimReplication
    }
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::AddressInterleaved
    }
    fn replicates(&self) -> bool {
        true
    }
    fn replicates_on_eviction(&self) -> bool {
        true
    }
    fn invalidate_replica_on_hit(&self) -> bool {
        true
    }
    fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
        false
    }
    /// Inserts the victim only into a "cheap" slot: an invalid way, or in
    /// place of a replica or of a home line no L1 shares.  "Global" (hot,
    /// shared) home lines are never displaced.
    fn replicate_on_l1_evict(&self, decision: EvictDecision<'_>) -> bool {
        decision.set_has_free_way
            || decision
                .victim
                .is_some_and(|entry| entry.is_replica() || entry.l1_sharer_count() == 0)
    }
}

/// Adaptive Selective Replication (Beckmann et al.) at one fixed
/// replication level, modelled on Static-NUCA placement.  The paper does
/// not model ASR's monitoring circuits: it sweeps the level over
/// {0, 0.25, 0.5, 0.75, 1} and reports the best energy-delay product per
/// benchmark, which is what the experiment harness does too.
#[derive(Debug, Clone, Copy)]
pub struct AsrScheme {
    hundredths: u8,
}

impl AsrScheme {
    /// Creates the scheme at a replication level in hundredths (`50` is
    /// level 0.50), the unit [`SchemeId::AsrAt`] carries.
    pub fn new(hundredths: u8) -> Self {
        AsrScheme { hundredths }
    }
}

impl ReplicationPolicy for AsrScheme {
    fn id(&self) -> SchemeId {
        SchemeId::AsrAt(self.hundredths)
    }
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::AddressInterleaved
    }
    fn replicates(&self) -> bool {
        true
    }
    fn replicates_on_eviction(&self) -> bool {
        true
    }
    fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
        false
    }
    /// Replicates only instructions and shared read-only data, each with
    /// probability equal to the replication level.  ASR recognises shared
    /// read-only lines by a per-line sticky Shared bit; the reproduction
    /// uses the workload's ground-truth class instead.
    fn replicate_on_l1_evict(&self, decision: EvictDecision<'_>) -> bool {
        matches!(
            decision.class,
            DataClass::Instruction | DataClass::SharedReadOnly
        ) && decision.rng.chance(f64::from(self.hundredths) / 100.0)
    }
}

/// The paper's locality-aware protocol at one replication threshold.  It
/// reuses R-NUCA's data placement but replicates instructions through its
/// own classifier.
#[derive(Debug, Clone, Copy)]
pub struct LocalityAwareScheme {
    rt: u32,
}

impl LocalityAwareScheme {
    /// Creates the scheme at replication threshold `rt`.
    pub fn new(rt: u32) -> Self {
        LocalityAwareScheme { rt }
    }
}

impl ReplicationPolicy for LocalityAwareScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Rt(self.rt)
    }
    fn placement(&self) -> PlacementPolicy {
        PlacementPolicy::RnucaDataOnly
    }
    fn replicates(&self) -> bool {
        true
    }
    fn uses_classifier(&self) -> bool {
        true
    }
    fn replicate_on_fill(&self, decision: FillDecision<'_>) -> bool {
        if let Some(reuse) = decision.own_replica_reuse {
            decision
                .classifier
                .on_replica_invalidated(decision.core, reuse);
        }
        let mode = if decision.is_write {
            decision
                .classifier
                .on_home_write(decision.core, decision.other_sharers_present)
        } else {
            decision.classifier.on_home_read(decision.core)
        };
        mode == ReplicationMode::Replica
    }
    fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
        false
    }
}

/// The built-in policy of `scheme`, or `None` for the collapsed
/// [`SchemeId::Asr`] comparison column (runs use [`SchemeId::AsrAt`]) and
/// for [`SchemeId::Custom`] ids.
pub fn builtin_policy(scheme: SchemeId) -> Option<Arc<dyn ReplicationPolicy>> {
    let policy: Arc<dyn ReplicationPolicy> = match scheme {
        SchemeId::StaticNuca => Arc::new(StaticNucaScheme),
        SchemeId::ReactiveNuca => Arc::new(ReactiveNucaScheme),
        SchemeId::VictimReplication => Arc::new(VictimReplicationScheme),
        SchemeId::AsrAt(hundredths) => Arc::new(AsrScheme::new(hundredths)),
        SchemeId::Rt(rt) => Arc::new(LocalityAwareScheme::new(rt)),
        SchemeId::Asr | SchemeId::Custom(_) => return None,
    };
    Some(policy)
}

// ----- registry ------------------------------------------------------------

/// One runnable scheme: the decision policy plus the configuration knobs
/// (classifier organization, cluster size, LLC replacement) the engine
/// builds its structures from.  A registered config's `scheme` is its
/// policy's id, so the engine's replication threshold follows that id.
#[derive(Debug, Clone)]
pub struct RegisteredScheme {
    /// The replication-decision policy.
    pub policy: Arc<dyn ReplicationPolicy>,
    /// The engine knobs the scheme runs with.
    pub config: ReplicationConfig,
}

/// A registry of runnable schemes keyed by [`SchemeId`].
///
/// The experiment runner resolves the schemes of a sweep here, so
/// out-of-crate policies participate in benchmark × scheme matrices exactly
/// like the paper's built-ins.
#[derive(Debug, Clone, Default)]
pub struct SchemeRegistry {
    entries: BTreeMap<SchemeId, RegisteredScheme>,
}

impl SchemeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding every scheme of [`SchemeId::BUILTIN`] with its
    /// built-in policy and the paper's knobs: `S-NUCA`, `R-NUCA`, `VR`,
    /// `RT-1`, `RT-3`, `RT-8` and the five ASR levels (`ASR-0.00` …
    /// `ASR-1.00`).
    pub fn builtin() -> Self {
        let mut registry = SchemeRegistry::new();
        for policy in SchemeId::BUILTIN.into_iter().filter_map(builtin_policy) {
            registry.register(policy, ReplicationConfig::default());
        }
        registry
    }

    /// Registers `policy` under its [`ReplicationPolicy::id`], replacing and
    /// returning any previous entry with the same id.  The stored config
    /// keeps `config`'s knobs with its `scheme` set to that id, so an entry
    /// names one scheme: a custom id runs its classifiers and replica reuse
    /// counters at the default RT of 3.
    ///
    /// The id is the whole key: two variants of one scheme family (say
    /// RT-3 at cluster sizes 1 and 16, both `SchemeId::Rt(3)`) would
    /// replace each other — give each variant its own
    /// [`SchemeId::Custom`] name to sweep them side by side.
    pub fn register(
        &mut self,
        policy: Arc<dyn ReplicationPolicy>,
        config: ReplicationConfig,
    ) -> Option<RegisteredScheme> {
        let id = policy.id();
        let config = ReplicationConfig {
            scheme: id,
            ..config
        };
        self.entries.insert(id, RegisteredScheme { policy, config })
    }

    /// Looks up a scheme.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownScheme`] when `id` was never registered.
    pub fn get(&self, id: SchemeId) -> Result<&RegisteredScheme, UnknownScheme> {
        self.entries
            .get(&id)
            .ok_or_else(|| UnknownScheme::new(id, "registry"))
    }

    /// The registered ids, in [`SchemeId`] order.
    pub fn ids(&self) -> impl Iterator<Item = SchemeId> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierKind;
    use crate::entry::{HomeEntry, ReplicaEntry};
    use lad_coherence::mesi::MesiState;

    fn fill_decision(classifier: &mut LocalityClassifier) -> FillDecision<'_> {
        FillDecision {
            core: CoreId::new(2),
            is_write: false,
            other_sharers_present: false,
            own_replica_reuse: None,
            classifier,
        }
    }

    #[test]
    fn builtin_ids_and_capabilities_match_the_schemes() {
        // Placement and the two replication flags of every built-in id are
        // checked in `scheme`'s tests.
        assert_eq!(StaticNucaScheme.id(), SchemeId::StaticNuca);
        assert_eq!(ReactiveNucaScheme.id(), SchemeId::ReactiveNuca);

        let vr = VictimReplicationScheme;
        assert_eq!(vr.id(), SchemeId::VictimReplication);
        assert!(vr.invalidate_replica_on_hit() && !vr.uses_classifier());

        let asr = AsrScheme::new(75);
        assert_eq!(asr.id(), SchemeId::AsrAt(75));
        assert!(!asr.invalidate_replica_on_hit() && !asr.uses_classifier());

        let rt = LocalityAwareScheme::new(3);
        assert_eq!(rt.id(), SchemeId::Rt(3));
        assert!(rt.uses_classifier() && !rt.invalidate_replica_on_hit());
    }

    #[test]
    fn builtin_policy_follows_the_config() {
        for config in [
            ReplicationConfig::static_nuca(),
            ReplicationConfig::reactive_nuca(),
            ReplicationConfig::victim_replication(),
            ReplicationConfig::asr(0.25),
            ReplicationConfig::locality_aware(8),
        ] {
            let policy = builtin_policy(config.scheme)
                .unwrap_or_else(|| panic!("{} has a built-in policy", config.scheme));
            assert_eq!(policy.id(), config.scheme);
        }
        // The collapsed ASR column and custom ids have none.
        assert!(builtin_policy(SchemeId::Asr).is_none());
        assert!(builtin_policy(SchemeId::Custom("ALWAYS")).is_none());
    }

    #[test]
    fn locality_aware_fill_decision_promotes_after_rt_accesses() {
        let scheme = LocalityAwareScheme::new(3);
        let mut classifier = LocalityClassifier::new(ClassifierKind::Limited(3), 3);
        assert!(!scheme.replicate_on_fill(fill_decision(&mut classifier)));
        assert!(!scheme.replicate_on_fill(fill_decision(&mut classifier)));
        assert!(scheme.replicate_on_fill(fill_decision(&mut classifier)));
    }

    #[test]
    fn vr_evict_decision_matches_victim_cache_rule() {
        let vr = VictimReplicationScheme;
        let mut rng = DeterministicRng::seed_from(1);
        let replica = LlcEntry::Replica(ReplicaEntry::new(MesiState::Shared, 3));
        assert!(vr.replicate_on_l1_evict(EvictDecision {
            class: DataClass::Private,
            set_has_free_way: false,
            victim: Some(&replica),
            rng: &mut rng,
        }));
        let mut busy = HomeEntry::new(4, ClassifierKind::Limited(3), 3);
        busy.directory.handle_read(CoreId::new(1));
        let busy = LlcEntry::Home(busy);
        assert!(!vr.replicate_on_l1_evict(EvictDecision {
            class: DataClass::Private,
            set_has_free_way: false,
            victim: Some(&busy),
            rng: &mut rng,
        }));
    }

    #[test]
    fn asr_evict_decision_respects_class_and_level() {
        let mut rng = DeterministicRng::seed_from(7);
        let always = AsrScheme::new(100);
        assert!(always.replicate_on_l1_evict(EvictDecision {
            class: DataClass::SharedReadOnly,
            set_has_free_way: true,
            victim: None,
            rng: &mut rng,
        }));
        assert!(!always.replicate_on_l1_evict(EvictDecision {
            class: DataClass::SharedReadWrite,
            set_has_free_way: true,
            victim: None,
            rng: &mut rng,
        }));
        let never = AsrScheme::new(0);
        assert!(!never.replicate_on_l1_evict(EvictDecision {
            class: DataClass::SharedReadOnly,
            set_has_free_way: true,
            victim: None,
            rng: &mut rng,
        }));
    }

    #[test]
    fn registry_builtin_covers_the_paper_sweep() {
        let registry = SchemeRegistry::builtin();
        let mut sorted = SchemeId::BUILTIN;
        sorted.sort();
        assert_eq!(registry.ids().collect::<Vec<_>>(), sorted);
        for id in SchemeId::BUILTIN {
            let entry = registry.get(id).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(entry.policy.id(), id);
            assert_eq!(entry.config, ReplicationConfig::of(id));
        }
        // The collapsed ASR column and unregistered customs are errors.
        assert_eq!(
            registry.get(SchemeId::Asr).unwrap_err(),
            UnknownScheme::new(SchemeId::Asr, "registry")
        );
        assert!(registry.get(SchemeId::Custom("NOPE")).is_err());
    }

    #[test]
    fn registry_register_replaces_and_returns_previous() {
        #[derive(Debug)]
        struct Always;
        impl ReplicationPolicy for Always {
            fn id(&self) -> SchemeId {
                SchemeId::Custom("ALWAYS")
            }
            fn placement(&self) -> PlacementPolicy {
                PlacementPolicy::AddressInterleaved
            }
            fn replicates(&self) -> bool {
                true
            }
            fn replicate_on_fill(&self, _: FillDecision<'_>) -> bool {
                true
            }
            fn replicate_on_l1_evict(&self, _: EvictDecision<'_>) -> bool {
                false
            }
        }

        let mut registry = SchemeRegistry::new();
        assert!(registry
            .register(Arc::new(Always), ReplicationConfig::static_nuca())
            .is_none());
        // The stored config names the policy's scheme, so RT follows that
        // id rather than the config it was registered with.
        let previous = registry.register(
            Arc::new(Always),
            ReplicationConfig::locality_aware(8).with_cluster_size(4),
        );
        assert_eq!(
            previous.map(|entry| entry.config.scheme),
            Some(SchemeId::Custom("ALWAYS"))
        );
        let entry = registry
            .get(SchemeId::Custom("ALWAYS"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(entry.config.scheme, SchemeId::Custom("ALWAYS"));
        assert_eq!(entry.config.replication_threshold(), 3);
        assert_eq!(entry.config.cluster_size, 4);
        assert_eq!(
            registry.ids().collect::<Vec<_>>(),
            vec![SchemeId::Custom("ALWAYS")]
        );
    }
}
