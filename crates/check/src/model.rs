//! The declarative protocol model: an exact, timing-free mirror of the
//! `lad-sim` engine's state transitions.
//!
//! The model keeps, per core and per line, the unified L1 state, the local
//! LLC replica entry and the home entry (directory + classifier), and
//! applies [`Event`]s with the same state updates the engine performs —
//! reusing the *real* `DirectoryEntry`, `LocalityClassifier` and
//! [`ReplicationPolicy`] implementations so there is exactly one copy of
//! the protocol logic to drift from.
//!
//! Capacity is modeled nondeterministically: instead of simulating finite
//! sets and replacement, the explorer may evict any resident L1 line,
//! replica or home entry at any time ([`Event::EvictL1`],
//! [`Event::EvictReplica`], [`Event::EvictHome`]).  Likewise the
//! probabilistic / pressure-dependent eviction-replication decision of VR
//! and ASR is the nondeterministic `replicate` flag.  The reachable set is
//! therefore a superset of any concrete execution's states, which makes a
//! clean exploration a strong guarantee.
//!
//! [`Mutant`]s are deliberate, test-only protocol bugs the mutation harness
//! ([`crate::mutation`]) uses to prove the checker can actually detect
//! violations.

use std::fmt;
use std::sync::Arc;

use lad_coherence::ackwise::InvalidationTargets;
use lad_coherence::mesi::MesiState;
use lad_common::types::{CacheLine, CoreId};
use lad_replication::classifier::ClassifierKind;
use lad_replication::entry::{HomeEntry, ReplicaEntry};
use lad_replication::policy::{FillDecision, RegisteredScheme, ReplicationPolicy};

use crate::view::{HomeSummary, ProtocolView};

/// A seeded protocol bug for the mutation harness.
///
/// Each mutant disables one step of the protocol the way a real
/// implementation bug would; the checker must flag every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The home "sends" an invalidation to the first sharer but the sharer
    /// never processes it: its copy survives a conflicting write.
    DropInvalidation,
    /// On a read that downgrades a remote owner, the owner's L1 is
    /// downgraded but its LLC replica is left in M/E.
    SkipReplicaDowngrade,
    /// When the ACKwise pointer array is full, a new reader is granted a
    /// Shared copy without being registered (instead of switching the entry
    /// to global mode).
    SharerListOverflow,
    /// Eviction acknowledgements are dropped: the home keeps counting
    /// cores that no longer hold the line.
    DropEvictionNotice,
    /// Evicting a home entry back-invalidates the sharers' L1 copies but
    /// forgets their LLC replicas.
    LeakReplicaOnHomeEviction,
}

impl Mutant {
    /// Every seeded mutant.
    pub const ALL: [Mutant; 5] = [
        Mutant::DropInvalidation,
        Mutant::SkipReplicaDowngrade,
        Mutant::SharerListOverflow,
        Mutant::DropEvictionNotice,
        Mutant::LeakReplicaOnHomeEviction,
    ];

    /// Stable kebab-case name (CLI `--mutants` output).
    pub fn name(self) -> &'static str {
        match self {
            Mutant::DropInvalidation => "drop-invalidation",
            Mutant::SkipReplicaDowngrade => "skip-replica-downgrade",
            Mutant::SharerListOverflow => "sharer-list-overflow",
            Mutant::DropEvictionNotice => "drop-eviction-notice",
            Mutant::LeakReplicaOnHomeEviction => "leak-replica-on-home-eviction",
        }
    }
}

impl fmt::Display for Mutant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One transition of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `core` issues a load for `line`.
    Read {
        /// The requesting core.
        core: CoreId,
        /// The accessed line.
        line: CacheLine,
    },
    /// `core` issues a store to `line`.
    Write {
        /// The requesting core.
        core: CoreId,
        /// The accessed line.
        line: CacheLine,
    },
    /// Capacity evicts `core`'s L1 copy of `line`; `replicate` is the
    /// nondeterministic eviction-replication decision (VR/ASR).
    EvictL1 {
        /// The evicting core.
        core: CoreId,
        /// The evicted line.
        line: CacheLine,
        /// Whether an eviction-replicating policy turns the victim into a
        /// local replica.
        replicate: bool,
    },
    /// Capacity evicts `core`'s LLC replica of `line`.
    EvictReplica {
        /// The core whose slice loses the replica.
        core: CoreId,
        /// The evicted line.
        line: CacheLine,
    },
    /// Capacity evicts `line`'s home entry (inclusive back-invalidation).
    EvictHome {
        /// The evicted line.
        line: CacheLine,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Read { core, line } => write!(f, "core {core} reads line {}", line.index()),
            Event::Write { core, line } => write!(f, "core {core} writes line {}", line.index()),
            Event::EvictL1 {
                core,
                line,
                replicate,
            } => write!(
                f,
                "core {core} evicts line {} from its L1{}",
                line.index(),
                if *replicate { " (replicating)" } else { "" }
            ),
            Event::EvictReplica { core, line } => {
                write!(
                    f,
                    "core {core}'s slice evicts its replica of line {}",
                    line.index()
                )
            }
            Event::EvictHome { line } => {
                write!(f, "the home slice evicts line {}", line.index())
            }
        }
    }
}

/// Size knobs for a model instance.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Number of cores (keep small: 2–4).
    pub cores: usize,
    /// Number of distinct cache lines (keep small: 1–2).
    pub lines: usize,
    /// ACKwise hardware pointers per directory entry (small values force
    /// global mode within reach of the exploration).
    pub ackwise_pointers: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            cores: 3,
            lines: 1,
            ackwise_pointers: 2,
        }
    }
}

/// Protocol state of a small system: `l1[core][line]`,
/// `replica[core][line]` and `home[line]` (conceptually resident at the
/// line's home slice).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    l1: Vec<Vec<MesiState>>,
    replica: Vec<Vec<Option<ReplicaEntry>>>,
    home: Vec<Option<HomeEntry>>,
}

struct Probe {
    target: CoreId,
    replica_reuse: Option<u32>,
    had_copy: bool,
    dirty: bool,
}

/// The step relation: a scheme's policy plus the system knobs, optionally
/// sabotaged by a [`Mutant`].
pub struct Model {
    policy: Arc<dyn ReplicationPolicy>,
    cores: usize,
    lines: usize,
    ackwise_pointers: usize,
    classifier: ClassifierKind,
    rt: u32,
    mutant: Option<Mutant>,
}

impl Model {
    /// Builds the model of `scheme` at the given size, optionally with a
    /// seeded bug.
    pub fn new(scheme: &RegisteredScheme, config: ModelConfig, mutant: Option<Mutant>) -> Self {
        Model {
            policy: Arc::clone(&scheme.policy),
            cores: config.cores,
            lines: config.lines,
            ackwise_pointers: config.ackwise_pointers,
            classifier: scheme.config.classifier,
            rt: scheme.config.replication_threshold(),
            mutant,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores
    }

    /// The all-invalid initial state.
    pub fn initial(&self) -> ModelState {
        ModelState {
            l1: vec![vec![MesiState::Invalid; self.lines]; self.cores],
            replica: vec![vec![None; self.lines]; self.cores],
            home: vec![None; self.lines],
        }
    }

    /// The home slice of `line` (address-interleaved, like the engine's
    /// default placement at cache-line granularity).
    pub fn home_slice(&self, line: CacheLine) -> CoreId {
        CoreId::new(line.index() as usize % self.cores)
    }

    /// The slice that may hold `core`'s replica (its own, for replicating
    /// schemes at cluster size 1), or `None` for schemes that never
    /// replicate.
    fn replica_slice(&self, core: CoreId) -> Option<CoreId> {
        if self.policy.replicates() {
            Some(core)
        } else {
            None
        }
    }

    /// Every event enabled in `state` that can change it.
    pub fn enabled_events(&self, state: &ModelState) -> Vec<Event> {
        let mut events = Vec::new();
        for l in 0..self.lines {
            let line = CacheLine::from_index(l as u64);
            for c in 0..self.cores {
                let core = CoreId::new(c);
                let l1 = state.l1[c][l];
                if !l1.is_valid() {
                    events.push(Event::Read { core, line });
                }
                if l1 != MesiState::Modified {
                    events.push(Event::Write { core, line });
                }
                if l1.is_valid() {
                    events.push(Event::EvictL1 {
                        core,
                        line,
                        replicate: false,
                    });
                    if self.policy.replicates_on_eviction()
                        && self.home_slice(line) != core
                        && state.replica[c][l].is_none()
                    {
                        events.push(Event::EvictL1 {
                            core,
                            line,
                            replicate: true,
                        });
                    }
                }
                if state.replica[c][l].is_some() {
                    events.push(Event::EvictReplica { core, line });
                }
            }
            if state.home[l].is_some() {
                events.push(Event::EvictHome { line });
            }
        }
        events
    }

    /// Applies `event` to `state`, mirroring the engine's state updates.
    pub fn apply(&self, state: &mut ModelState, event: Event) {
        match event {
            Event::Read { core, line } => self.apply_access(state, core, line, false),
            Event::Write { core, line } => self.apply_access(state, core, line, true),
            Event::EvictL1 {
                core,
                line,
                replicate,
            } => self.apply_evict_l1(state, core, line, replicate),
            Event::EvictReplica { core, line } => self.apply_evict_replica(state, core, line),
            Event::EvictHome { line } => self.apply_evict_home(state, line),
        }
    }

    /// A [`ProtocolView`] over `state` for [`crate::view::check_view`].
    pub fn view<'a>(&'a self, state: &'a ModelState) -> ModelView<'a> {
        ModelView { model: self, state }
    }

    /// A canonical byte encoding of `state` for the explorer's visited set.
    ///
    /// Classifier entries are encoded in tracking order and with their
    /// `active` flags because the Limited_k replacement is order- and
    /// activity-dependent; ACKwise pointers are likewise kept in list order
    /// (`swap_remove` makes the order reachable state).  Two fields are
    /// deliberately *omitted* because no transition or catalog check reads
    /// them — the home entry's DRAM-staleness bit and the replica's
    /// `l1_copy` bit — which soundly merges behaviorally identical states.
    pub fn encode(&self, state: &ModelState) -> Vec<u8> {
        fn mesi_code(state: MesiState) -> u8 {
            match state {
                MesiState::Modified => 0,
                MesiState::Exclusive => 1,
                MesiState::Shared => 2,
                MesiState::Invalid => 3,
            }
        }
        let mut bytes = Vec::with_capacity(self.cores * self.lines * 6 + self.lines * 24);
        for c in 0..self.cores {
            for l in 0..self.lines {
                bytes.push(mesi_code(state.l1[c][l]));
                match &state.replica[c][l] {
                    None => bytes.push(0xFF),
                    Some(rep) => {
                        bytes.push(mesi_code(rep.state));
                        bytes.push(rep.reuse.value() as u8);
                        bytes.push(u8::from(rep.dirty));
                    }
                }
            }
        }
        for l in 0..self.lines {
            match &state.home[l] {
                None => bytes.push(0xFF),
                Some(entry) => {
                    bytes.push(1);
                    let d = &entry.directory;
                    bytes.push(if d.is_uncached() {
                        0
                    } else if d.has_exclusive_owner() {
                        1
                    } else {
                        2
                    });
                    bytes.push(d.owner().map(|o| o.index() as u8).unwrap_or(0xFE));
                    let sharers = d.sharers();
                    bytes.push(sharers.count() as u8);
                    bytes.push(u8::from(sharers.is_global()));
                    bytes.push(sharers.tracked().len() as u8);
                    bytes.extend(sharers.tracked().iter().map(|c| c.index() as u8));
                    bytes.push(entry.classifier.tracked_count() as u8);
                    for t in entry.classifier.snapshot() {
                        bytes.push(t.core.index() as u8);
                        bytes.push(u8::from(t.mode.allows_replica()));
                        bytes.push(t.home_reuse as u8);
                        bytes.push(u8::from(t.active));
                    }
                }
            }
        }
        bytes
    }

    // ----- the step relation (mirrors `lad-sim`'s engine) ------------------

    fn apply_access(&self, state: &mut ModelState, core: CoreId, line: CacheLine, is_write: bool) {
        let c = core.index();
        let l = line.index() as usize;

        // L1 lookup.
        let l1 = state.l1[c][l];
        if l1.is_valid() {
            if !is_write {
                return; // read hit
            }
            if l1.can_write_locally() {
                state.l1[c][l] = MesiState::Modified;
                return;
            }
            // Shared copy: upgrade needed, fall through to the miss path.
        }

        let home = self.home_slice(line);
        let rc = self.replica_slice(core);

        // Step 1: the replica location.
        if let Some(rc_id) = rc {
            if rc_id != home {
                let served = if let Some(rep) = state.replica[rc_id.index()][l].as_mut() {
                    if rep.state.is_valid() && (!is_write || rep.state.can_write_locally()) {
                        if is_write {
                            rep.state = MesiState::Modified;
                            rep.dirty = true;
                        }
                        rep.record_hit();
                        Some(rep.state)
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(replica_state) = served {
                    if self.policy.invalidate_replica_on_hit() {
                        state.replica[rc_id.index()][l] = None;
                    }
                    state.l1[c][l] = if is_write {
                        MesiState::Modified
                    } else if replica_state.can_write_locally() {
                        MesiState::Exclusive
                    } else {
                        MesiState::Shared
                    };
                    return;
                }
            }
        }

        // Step 2: the home location.  A write invalidates the requester's
        // own (Shared) replica on the way, collecting its reuse counter.
        let mut own_replica_reuse = None;
        if is_write {
            if let Some(rc_id) = rc {
                if rc_id != home {
                    if let Some(rep) = state.replica[rc_id.index()][l].take() {
                        own_replica_reuse = Some(rep.reuse.value());
                    }
                }
            }
        }

        if state.home[l].is_none() {
            state.home[l] = Some(HomeEntry::new(
                self.ackwise_pointers,
                self.classifier,
                self.rt,
            ));
        }

        let mut other_sharers_present = false;
        let grant_state;
        if is_write {
            let outcome = state.home[l]
                .as_mut()
                .map(|entry| entry.directory.handle_write(core))
                .unwrap_or_else(|| unreachable!("home entry installed above"));
            other_sharers_present =
                outcome.invalidations.expected_acks() > 0 || outcome.prior_owner.is_some();
            let mut targets: Vec<CoreId> = match &outcome.invalidations {
                InvalidationTargets::Exact(cores) => cores.clone(),
                InvalidationTargets::Broadcast { .. } => (0..self.cores)
                    .map(CoreId::new)
                    .filter(|t| *t != core)
                    .collect(),
            };
            if self.mutant == Some(Mutant::DropInvalidation) && !targets.is_empty() {
                targets.remove(0);
            }
            let mut probes = Vec::with_capacity(targets.len());
            for target in targets {
                let ti = target.index();
                let l1_state = state.l1[ti][l];
                state.l1[ti][l] = MesiState::Invalid;
                let mut dirty = l1_state == MesiState::Modified;
                let mut had_copy = l1_state.is_valid();
                let mut replica_reuse = None;
                if let Some(rep) = state.replica[ti][l].take() {
                    replica_reuse = Some(rep.reuse.value());
                    dirty |= rep.dirty;
                    had_copy = true;
                }
                probes.push(Probe {
                    target,
                    replica_reuse,
                    had_copy,
                    dirty,
                });
            }
            if let Some(entry) = state.home[l].as_mut() {
                for probe in &probes {
                    if let Some(reuse) = probe.replica_reuse {
                        entry.classifier.on_replica_invalidated(probe.target, reuse);
                    } else if probe.had_copy {
                        entry.classifier.on_sharer_invalidated(probe.target);
                    }
                    if probe.dirty {
                        entry.dirty = true;
                    }
                    if probe.had_copy || probe.replica_reuse.is_some() {
                        entry.directory.handle_eviction(probe.target);
                    }
                }
                // Re-establish the writer as owner, as the engine does.
                entry.directory.handle_write(core);
            }
            grant_state = MesiState::Modified;
        } else {
            let sabotage = self.mutant == Some(Mutant::SharerListOverflow)
                && state.home[l].as_ref().is_some_and(|entry| {
                    !entry.directory.is_sharer(core)
                        && entry.directory.sharer_count() >= self.ackwise_pointers
                        && !entry.directory.has_exclusive_owner()
                });
            if sabotage {
                // Grant a copy without registering the reader.
                grant_state = MesiState::Shared;
            } else {
                let outcome = state.home[l]
                    .as_mut()
                    .map(|entry| entry.directory.handle_read(core))
                    .unwrap_or_else(|| unreachable!("home entry installed above"));
                if let Some(owner) = outcome.downgrade_owner {
                    if owner != core {
                        let oi = owner.index();
                        let mut dirty = false;
                        let owner_l1 = state.l1[oi][l];
                        if owner_l1.is_valid() {
                            dirty |= owner_l1.is_dirty();
                            state.l1[oi][l] = owner_l1.after_downgrade();
                        }
                        if self.mutant != Some(Mutant::SkipReplicaDowngrade) {
                            if let Some(rep) = state.replica[oi][l].as_mut() {
                                dirty |= rep.dirty;
                                rep.state = rep.state.after_downgrade();
                                rep.dirty = false;
                            }
                        }
                        if dirty {
                            if let Some(entry) = state.home[l].as_mut() {
                                entry.dirty = true;
                            }
                        }
                    }
                }
                grant_state = outcome.grant.as_state();
            }
        }

        // The replication decision (trains the classifier).
        let wants_replica = if let Some(entry) = state.home[l].as_mut() {
            self.policy.replicate_on_fill(FillDecision {
                core,
                is_write,
                other_sharers_present,
                own_replica_reuse,
                classifier: &mut entry.classifier,
            })
        } else {
            false
        };
        if wants_replica {
            if let Some(rc_id) = rc {
                if rc_id != home {
                    let replica_state = if is_write {
                        MesiState::Modified
                    } else {
                        MesiState::Shared
                    };
                    state.replica[rc_id.index()][l] =
                        Some(ReplicaEntry::new(replica_state, self.rt));
                }
            }
        }

        // Step 3: fill the L1.
        state.l1[c][l] = if is_write {
            MesiState::Modified
        } else {
            grant_state
        };
    }

    fn apply_evict_l1(
        &self,
        state: &mut ModelState,
        core: CoreId,
        line: CacheLine,
        replicate: bool,
    ) {
        let c = core.index();
        let l = line.index() as usize;
        let l1_state = state.l1[c][l];
        state.l1[c][l] = MesiState::Invalid;
        if !l1_state.is_valid() {
            return;
        }
        let dirty = l1_state.is_dirty();
        let home = self.home_slice(line);

        // Merge into an existing entry in the local slice.
        if let Some(rc_id) = self.replica_slice(core) {
            let ri = rc_id.index();
            if let Some(rep) = state.replica[ri][l].as_mut() {
                rep.dirty |= dirty;
                rep.l1_copy = false;
                if dirty {
                    rep.state = MesiState::Modified;
                }
                return;
            }
            if rc_id == home {
                if let Some(entry) = state.home[l].as_mut() {
                    if dirty {
                        entry.dirty = true;
                    }
                    entry.directory.handle_eviction(core);
                    if self.policy.uses_classifier() {
                        entry.classifier.on_sharer_evicted(core);
                    }
                    return;
                }
            }
        }

        // Eviction-driven replication (VR / ASR): the nondeterministic
        // `replicate` flag stands in for the policy's probabilistic or
        // pressure-dependent decision.
        if self.policy.replicates_on_eviction() && replicate && home != core {
            let mut rep = ReplicaEntry::new(l1_state, self.rt);
            rep.l1_copy = false;
            rep.dirty = dirty;
            state.replica[c][l] = Some(rep);
            return;
        }

        if self.mutant == Some(Mutant::DropEvictionNotice) {
            return;
        }
        self.notify_home(state, core, line, dirty, None);
    }

    fn apply_evict_replica(&self, state: &mut ModelState, core: CoreId, line: CacheLine) {
        let c = core.index();
        let l = line.index() as usize;
        let Some(rep) = state.replica[c][l].take() else {
            return;
        };
        // Back-invalidate the local L1 copy (the slice is inclusive of the
        // local L1 for replicas).
        let l1_state = state.l1[c][l];
        state.l1[c][l] = MesiState::Invalid;
        let dirty = rep.dirty || l1_state == MesiState::Modified;
        if self.mutant == Some(Mutant::DropEvictionNotice) {
            return;
        }
        self.notify_home(state, core, line, dirty, Some(rep.reuse.value()));
    }

    fn apply_evict_home(&self, state: &mut ModelState, line: CacheLine) {
        let l = line.index() as usize;
        let Some(entry) = state.home[l].take() else {
            return;
        };
        for target in entry.directory.back_invalidation_targets(self.cores) {
            let ti = target.index();
            state.l1[ti][l] = MesiState::Invalid;
            if self.mutant != Some(Mutant::LeakReplicaOnHomeEviction) {
                state.replica[ti][l] = None;
            }
        }
    }

    fn notify_home(
        &self,
        state: &mut ModelState,
        core: CoreId,
        line: CacheLine,
        dirty: bool,
        replica_reuse: Option<u32>,
    ) {
        let l = line.index() as usize;
        if let Some(entry) = state.home[l].as_mut() {
            entry.directory.handle_eviction(core);
            if dirty {
                entry.dirty = true;
            }
            if self.policy.uses_classifier() {
                match replica_reuse {
                    Some(reuse) => entry.classifier.on_replica_evicted(core, reuse),
                    None => entry.classifier.on_sharer_evicted(core),
                }
            }
        }
    }
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Model")
            .field("scheme", &self.policy.id())
            .field("cores", &self.cores)
            .field("lines", &self.lines)
            .field("ackwise_pointers", &self.ackwise_pointers)
            .field("mutant", &self.mutant)
            .finish()
    }
}

/// A [`ProtocolView`] over one model state.
pub struct ModelView<'a> {
    model: &'a Model,
    state: &'a ModelState,
}

impl ProtocolView for ModelView<'_> {
    fn num_cores(&self) -> usize {
        self.model.cores
    }

    fn lines(&self) -> Vec<CacheLine> {
        (0..self.model.lines)
            .map(|l| CacheLine::from_index(l as u64))
            .collect()
    }

    fn l1_states(&self, core: CoreId, line: CacheLine) -> Vec<MesiState> {
        vec![self.state.l1[core.index()][line.index() as usize]]
    }

    fn replica(&self, core: CoreId, line: CacheLine) -> Option<ReplicaEntry> {
        self.state.replica[core.index()][line.index() as usize]
    }

    fn home_slice(&self, line: CacheLine, _core: CoreId) -> CoreId {
        self.model.home_slice(line)
    }

    fn home_at(&self, line: CacheLine, slice: CoreId) -> Option<HomeSummary> {
        if slice != self.model.home_slice(line) {
            return None;
        }
        self.state.home[line.index() as usize]
            .as_ref()
            .map(HomeSummary::from_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::check_view;
    use lad_replication::policy::SchemeRegistry;
    use lad_replication::scheme::SchemeId;

    fn model_for(id: SchemeId, mutant: Option<Mutant>) -> Model {
        let registry = SchemeRegistry::builtin();
        let scheme = registry.get(id).expect("builtin scheme");
        Model::new(scheme, ModelConfig::default(), mutant)
    }

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    fn line0() -> CacheLine {
        CacheLine::from_index(0)
    }

    #[test]
    fn read_write_sequence_stays_invariant_clean() {
        let model = model_for(SchemeId::Rt(1), None);
        let mut state = model.initial();
        let events = [
            Event::Read {
                core: core(1),
                line: line0(),
            },
            Event::Read {
                core: core(2),
                line: line0(),
            },
            Event::Write {
                core: core(1),
                line: line0(),
            },
            Event::EvictL1 {
                core: core(1),
                line: line0(),
                replicate: false,
            },
            Event::Read {
                core: core(2),
                line: line0(),
            },
        ];
        for event in events {
            model.apply(&mut state, event);
            let violations = check_view(&model.view(&state));
            assert!(violations.is_empty(), "after {event}: {violations:?}");
        }
    }

    #[test]
    fn rt1_write_installs_an_exclusive_replica() {
        // RT=1 promotes on the first home access; a write by a non-home
        // core installs a Modified replica the next write hits locally.
        let model = model_for(SchemeId::Rt(1), None);
        let mut state = model.initial();
        model.apply(
            &mut state,
            Event::Write {
                core: core(1),
                line: line0(),
            },
        );
        let rep = model.view(&state).replica(core(1), line0());
        assert_eq!(rep.map(|r| r.state), Some(MesiState::Modified));
        assert!(check_view(&model.view(&state)).is_empty());
    }

    #[test]
    fn snuca_never_creates_replicas() {
        let model = model_for(SchemeId::StaticNuca, None);
        let mut state = model.initial();
        for c in 0..3 {
            model.apply(
                &mut state,
                Event::Read {
                    core: core(c),
                    line: line0(),
                },
            );
        }
        for c in 0..3 {
            assert!(model.view(&state).replica(core(c), line0()).is_none());
        }
        assert!(check_view(&model.view(&state)).is_empty());
    }

    #[test]
    fn encoding_distinguishes_states_and_is_stable() {
        let model = model_for(SchemeId::Rt(3), None);
        let mut a = model.initial();
        let b = model.initial();
        assert_eq!(model.encode(&a), model.encode(&b));
        model.apply(
            &mut a,
            Event::Read {
                core: core(1),
                line: line0(),
            },
        );
        assert_ne!(model.encode(&a), model.encode(&b));
    }

    #[test]
    fn dropped_invalidation_breaks_swmr() {
        let model = model_for(SchemeId::StaticNuca, Some(Mutant::DropInvalidation));
        let mut state = model.initial();
        model.apply(
            &mut state,
            Event::Read {
                core: core(1),
                line: line0(),
            },
        );
        model.apply(
            &mut state,
            Event::Read {
                core: core(2),
                line: line0(),
            },
        );
        model.apply(
            &mut state,
            Event::Write {
                core: core(0),
                line: line0(),
            },
        );
        let violations = check_view(&model.view(&state));
        assert!(!violations.is_empty(), "stale copy must be detected");
    }
}
