//! A uniform, read-only view of protocol state, and the catalog checks
//! that run over it.
//!
//! Both enforcement layers — the abstract model ([`crate::model`]) and the
//! live timing engine (`lad-sim`, under `debug_assertions`) — implement
//! [`ProtocolView`] and are checked by the *same* [`check_view`] function,
//! so exploration and trace replay enforce identical invariants.
//!
//! A view is organized around coherence *domains*: the slice where a core's
//! requests for a line are served ([`ProtocolView::home_slice`]).  For
//! address-interleaved and data placement this is one domain per line; for
//! R-NUCA's cluster-replicated instruction lines each cluster is its own
//! domain with its own home entry, and the invariants hold per domain.

use std::collections::BTreeMap;

use lad_coherence::mesi::MesiState;
use lad_common::types::{CacheLine, CoreId};
use lad_replication::classifier::TrackedCore;
use lad_replication::entry::{HomeEntry, ReplicaEntry};

use crate::catalog::{Invariant, Violation};

/// An owned summary of one home entry (directory + classifier), decoupled
/// from the borrow of the cache that holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeSummary {
    /// `true` if no core holds a copy.
    pub uncached: bool,
    /// `true` if exactly one core owns the line in M/E.
    pub exclusive: bool,
    /// The exclusive owner, if any.
    pub owner: Option<CoreId>,
    /// The directory's exact sharer count.
    pub sharer_count: usize,
    /// The tracked ACKwise pointers.
    pub tracked: Vec<CoreId>,
    /// `true` if the sharer list overflowed into global (broadcast) mode.
    pub global: bool,
    /// The hardware pointer budget.
    pub max_pointers: usize,
    /// The classifier's per-core state, in tracking order.
    pub classifier: Vec<TrackedCore>,
    /// The classifier capacity (`None` = Complete).
    pub classifier_capacity: Option<usize>,
    /// The replication threshold the classifier saturates at.
    pub rt: u32,
    /// The entry-local invariant check performed by `lad-coherence` itself,
    /// surfaced so a drift between this summary and the real entry cannot
    /// hide a violation.
    pub local_error: Option<(&'static str, String)>,
}

impl HomeSummary {
    /// Summarizes a live [`HomeEntry`].
    pub fn from_entry(entry: &HomeEntry) -> Self {
        let directory = &entry.directory;
        let sharers = directory.sharers();
        HomeSummary {
            uncached: directory.is_uncached(),
            exclusive: directory.has_exclusive_owner(),
            owner: directory.owner(),
            sharer_count: directory.sharer_count(),
            tracked: sharers.tracked().to_vec(),
            global: sharers.is_global(),
            max_pointers: sharers.max_pointers(),
            classifier: entry.classifier.snapshot().collect(),
            classifier_capacity: entry.classifier.capacity(),
            rt: entry.classifier.replication_threshold(),
            local_error: directory.local_invariant_error(),
        }
    }
}

/// Read-only access to the protocol state of a system (abstract or live).
pub trait ProtocolView {
    /// Number of cores.
    fn num_cores(&self) -> usize;

    /// Every line with any residency anywhere (L1s, replicas, home
    /// entries).
    fn lines(&self) -> Vec<CacheLine>;

    /// The MESI states of `core`'s private L1 copies of `line` (one per L1
    /// cache that holds it; the abstract model has a single unified L1).
    fn l1_states(&self, core: CoreId, line: CacheLine) -> Vec<MesiState>;

    /// The LLC replica `core`'s slice holds for `line`, if any.
    fn replica(&self, core: CoreId, line: CacheLine) -> Option<ReplicaEntry>;

    /// The slice where `core`'s requests for `line` are served.
    fn home_slice(&self, line: CacheLine, core: CoreId) -> CoreId;

    /// The home entry resident at `slice` for `line`, if any.
    fn home_at(&self, line: CacheLine, slice: CoreId) -> Option<HomeSummary>;
}

/// What one core's hierarchy holds of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Holding {
    valid: bool,
    writable: bool,
    dirty: bool,
}

fn holding(view: &dyn ProtocolView, core: CoreId, line: CacheLine) -> Holding {
    let mut h = Holding {
        valid: false,
        writable: false,
        dirty: false,
    };
    for state in view.l1_states(core, line) {
        h.valid |= state.is_valid();
        h.writable |= state.can_write_locally();
        h.dirty |= state.is_dirty();
    }
    if let Some(rep) = view.replica(core, line) {
        if rep.state.is_valid() {
            h.valid = true;
            h.writable |= rep.state.can_write_locally();
            h.dirty |= rep.state.is_dirty() || rep.dirty;
        }
    }
    h
}

/// Runs every catalog invariant over the view and collects the violations.
///
/// An empty result means the state satisfies the whole catalog.
pub fn check_view(view: &dyn ProtocolView) -> Vec<Violation> {
    let mut violations = Vec::new();
    for line in view.lines() {
        check_line(view, line, &mut violations);
    }
    violations
}

fn check_line(view: &dyn ProtocolView, line: CacheLine, out: &mut Vec<Violation>) {
    // Group the cores into coherence domains by the slice that serves them.
    let mut domains: BTreeMap<CoreId, Vec<CoreId>> = BTreeMap::new();
    for c in 0..view.num_cores() {
        let core = CoreId::new(c);
        domains
            .entry(view.home_slice(line, core))
            .or_default()
            .push(core);
    }

    for (slice, cores) in &domains {
        let summary = view.home_at(line, *slice);
        check_domain(view, line, *slice, cores, summary.as_ref(), out);
    }
}

fn check_domain(
    view: &dyn ProtocolView,
    line: CacheLine,
    slice: CoreId,
    cores: &[CoreId],
    summary: Option<&HomeSummary>,
    out: &mut Vec<Violation>,
) {
    let idx = line.index();
    let holdings: Vec<(CoreId, Holding)> =
        cores.iter().map(|&c| (c, holding(view, c, line))).collect();
    let holders: Vec<CoreId> = holdings
        .iter()
        .filter(|(_, h)| h.valid)
        .map(|(c, _)| *c)
        .collect();
    let writers: Vec<CoreId> = holdings
        .iter()
        .filter(|(_, h)| h.writable || h.dirty)
        .map(|(c, _)| *c)
        .collect();

    // --- swmr: at most one writer, and a writer excludes all other holders.
    if writers.len() > 1 {
        out.push(Violation::new(
            Invariant::SingleWriterMultipleReader,
            format!("line {idx}: multiple writable/dirty holders {writers:?}"),
        ));
    } else if let Some(&writer) = writers.first() {
        if holders.iter().any(|&h| h != writer) {
            out.push(Violation::new(
                Invariant::SingleWriterMultipleReader,
                format!(
                    "line {idx}: core {writer:?} holds a writable/dirty copy while \
                     {holders:?} also hold valid copies"
                ),
            ));
        }
        match summary {
            Some(s) if s.exclusive && s.owner == Some(writer) => {}
            _ => out.push(Violation::new(
                Invariant::SingleWriterMultipleReader,
                format!(
                    "line {idx}: core {writer:?} holds a writable/dirty copy but the \
                     home at {slice:?} does not record it as exclusive owner"
                ),
            )),
        }
    }

    let Some(s) = summary else {
        // --- directory-inclusion: copies cannot outlive their home entry
        // (the LLC is inclusive).
        if !holders.is_empty() {
            out.push(Violation::new(
                Invariant::DirectoryInclusion,
                format!("line {idx}: holders {holders:?} but no home entry at {slice:?}"),
            ));
        }
        for (c, _) in holdings.iter().filter(|(_, h)| h.valid) {
            if view.replica(*c, line).is_some() {
                out.push(Violation::new(
                    Invariant::ReplicaConsistentWithHome,
                    format!("line {idx}: core {c:?} holds a replica but no home entry exists"),
                ));
            }
        }
        return;
    };

    // --- the entry-local check `lad-coherence` performs on its own state.
    if let Some((name, details)) = &s.local_error {
        let invariant = Invariant::from_name(name).unwrap_or(Invariant::HomeStateConsistent);
        out.push(Violation::new(
            invariant,
            format!("line {idx} at {slice:?}: {details}"),
        ));
    }

    // --- ackwise-pointer-capacity, re-derived from the summary fields so a
    // hand-built (or drifted) summary is checked too.
    if s.tracked.len() > s.max_pointers {
        out.push(Violation::new(
            Invariant::AckwisePointerCapacity,
            format!(
                "line {idx} at {slice:?}: {} pointers tracked, budget {}",
                s.tracked.len(),
                s.max_pointers
            ),
        ));
    }
    if !s.global && s.sharer_count != s.tracked.len() {
        out.push(Violation::new(
            Invariant::AckwisePointerCapacity,
            format!(
                "line {idx} at {slice:?}: exact mode count {} != tracked {}",
                s.sharer_count,
                s.tracked.len()
            ),
        ));
    }
    if s.global && s.sharer_count <= s.tracked.len() {
        out.push(Violation::new(
            Invariant::AckwisePointerCapacity,
            format!(
                "line {idx} at {slice:?}: global mode count {} fits tracked {}",
                s.sharer_count,
                s.tracked.len()
            ),
        ));
    }

    // --- home-state-consistent, from the summary fields.
    let shape_error = if s.uncached {
        (s.sharer_count != 0 || s.owner.is_some())
            .then(|| format!("Uncached with count {} owner {:?}", s.sharer_count, s.owner))
    } else if s.exclusive {
        match s.owner {
            None => Some("Exclusive with no owner".to_string()),
            Some(owner) => (s.sharer_count != 1 || !s.tracked.contains(&owner))
                .then(|| format!("Exclusive owner {owner:?} with count {}", s.sharer_count)),
        }
    } else {
        (s.sharer_count == 0 || s.owner.is_some())
            .then(|| format!("Shared with count {} owner {:?}", s.sharer_count, s.owner))
    };
    if let Some(details) = shape_error {
        out.push(Violation::new(
            Invariant::HomeStateConsistent,
            format!("line {idx} at {slice:?}: {details}"),
        ));
    }

    // --- directory-inclusion: the exact count equals the holder count, and
    // outside global mode the tracked set IS the holder set.
    if s.sharer_count != holders.len() {
        out.push(Violation::new(
            Invariant::DirectoryInclusion,
            format!(
                "line {idx} at {slice:?}: directory counts {} sharers but {} cores hold \
                 copies ({holders:?})",
                s.sharer_count,
                holders.len()
            ),
        ));
    }
    if !s.global {
        for t in &s.tracked {
            if !holders.contains(t) {
                out.push(Violation::new(
                    Invariant::DirectoryInclusion,
                    format!("line {idx} at {slice:?}: tracked core {t:?} holds no copy"),
                ));
            }
        }
        for h in &holders {
            if !s.tracked.contains(h) {
                out.push(Violation::new(
                    Invariant::DirectoryInclusion,
                    format!("line {idx} at {slice:?}: holder {h:?} is not tracked"),
                ));
            }
        }
    } else {
        // Global mode: pointers are best-effort, but a tracked core that
        // holds nothing would send no eviction acknowledgement and the
        // count would never converge.
        for t in &s.tracked {
            if !holders.contains(t) {
                out.push(Violation::new(
                    Invariant::DirectoryInclusion,
                    format!("line {idx} at {slice:?}: global-mode pointer {t:?} holds no copy"),
                ));
            }
        }
    }
    if let Some(owner) = s.owner {
        if !holders.contains(&owner) {
            out.push(Violation::new(
                Invariant::DirectoryInclusion,
                format!("line {idx} at {slice:?}: exclusive owner {owner:?} holds no copy"),
            ));
        }
    }

    // --- replica-consistent-with-home.
    for &core in cores {
        let Some(rep) = view.replica(core, line) else {
            continue;
        };
        if !rep.state.is_valid() {
            continue;
        }
        if (rep.state.can_write_locally() || rep.dirty) && !(s.exclusive && s.owner == Some(core)) {
            out.push(Violation::new(
                Invariant::ReplicaConsistentWithHome,
                format!(
                    "line {idx}: core {core:?} holds a {}{} replica but the home at \
                     {slice:?} is not Exclusive with it as owner",
                    rep.state,
                    if rep.dirty { " (dirty)" } else { "" }
                ),
            ));
        }
        if !s.global && !s.tracked.contains(&core) {
            out.push(Violation::new(
                Invariant::ReplicaConsistentWithHome,
                format!(
                    "line {idx}: core {core:?} holds a replica untracked by the home at \
                     {slice:?}"
                ),
            ));
        }
        // --- classifier-counter-bound: replica reuse saturates at RT.
        if rep.reuse.value() > s.rt {
            out.push(Violation::new(
                Invariant::ClassifierCounterBound,
                format!(
                    "line {idx}: core {core:?} replica reuse {} exceeds RT {}",
                    rep.reuse.value(),
                    s.rt
                ),
            ));
        }
    }

    // --- classifier-counter-bound.
    if let Some(k) = s.classifier_capacity {
        if s.classifier.len() > k {
            out.push(Violation::new(
                Invariant::ClassifierCounterBound,
                format!(
                    "line {idx} at {slice:?}: classifier tracks {} cores, capacity {k}",
                    s.classifier.len()
                ),
            ));
        }
    }
    for entry in &s.classifier {
        if entry.home_reuse > s.rt {
            out.push(Violation::new(
                Invariant::ClassifierCounterBound,
                format!(
                    "line {idx} at {slice:?}: core {:?} home reuse {} exceeds RT {}",
                    entry.core, entry.home_reuse, s.rt
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_replication::classifier::ClassifierKind;

    /// A hand-built single-line view for exercising the checks.
    struct FakeView {
        cores: usize,
        l1: Vec<MesiState>,
        replica: Vec<Option<ReplicaEntry>>,
        home: Option<HomeSummary>,
        home_slice: CoreId,
    }

    impl FakeView {
        fn new(cores: usize) -> Self {
            FakeView {
                cores,
                l1: vec![MesiState::Invalid; cores],
                replica: vec![None; cores],
                home: None,
                home_slice: CoreId::new(0),
            }
        }

        fn consistent_summary() -> HomeSummary {
            HomeSummary {
                uncached: true,
                exclusive: false,
                owner: None,
                sharer_count: 0,
                tracked: Vec::new(),
                global: false,
                max_pointers: 2,
                classifier: Vec::new(),
                classifier_capacity: Some(3),
                rt: 3,
                local_error: None,
            }
        }
    }

    impl ProtocolView for FakeView {
        fn num_cores(&self) -> usize {
            self.cores
        }
        fn lines(&self) -> Vec<CacheLine> {
            vec![CacheLine::from_index(0)]
        }
        fn l1_states(&self, core: CoreId, _line: CacheLine) -> Vec<MesiState> {
            vec![self.l1[core.index()]]
        }
        fn replica(&self, core: CoreId, _line: CacheLine) -> Option<ReplicaEntry> {
            self.replica[core.index()]
        }
        fn home_slice(&self, _line: CacheLine, _core: CoreId) -> CoreId {
            self.home_slice
        }
        fn home_at(&self, _line: CacheLine, slice: CoreId) -> Option<HomeSummary> {
            if slice == self.home_slice {
                self.home.clone()
            } else {
                None
            }
        }
    }

    fn kinds(violations: &[Violation]) -> Vec<Invariant> {
        violations.iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn empty_system_is_clean() {
        let view = FakeView::new(4);
        assert!(check_view(&view).is_empty());
    }

    #[test]
    fn consistent_shared_state_is_clean() {
        let mut view = FakeView::new(2);
        view.l1[0] = MesiState::Shared;
        view.l1[1] = MesiState::Shared;
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.sharer_count = 2;
        s.tracked = vec![CoreId::new(0), CoreId::new(1)];
        view.home = Some(s);
        assert!(check_view(&view).is_empty());
    }

    #[test]
    fn two_writers_violate_swmr() {
        let mut view = FakeView::new(2);
        view.l1[0] = MesiState::Modified;
        view.l1[1] = MesiState::Exclusive;
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.exclusive = true;
        s.owner = Some(CoreId::new(0));
        s.sharer_count = 2;
        s.tracked = vec![CoreId::new(0), CoreId::new(1)];
        view.home = Some(s);
        assert!(kinds(&check_view(&view)).contains(&Invariant::SingleWriterMultipleReader));
    }

    #[test]
    fn writer_plus_reader_violate_swmr() {
        let mut view = FakeView::new(2);
        view.l1[0] = MesiState::Modified;
        view.l1[1] = MesiState::Shared;
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.exclusive = true;
        s.owner = Some(CoreId::new(0));
        s.sharer_count = 2;
        s.tracked = vec![CoreId::new(0), CoreId::new(1)];
        view.home = Some(s);
        assert!(kinds(&check_view(&view)).contains(&Invariant::SingleWriterMultipleReader));
    }

    #[test]
    fn same_core_l1_exclusive_with_shared_replica_is_legal() {
        // The engine legitimately creates a Shared replica alongside an
        // Exclusive L1 grant for the same core (read fills), and a local
        // write then upgrades the L1 to M while the replica stays S.
        let mut view = FakeView::new(2);
        view.home_slice = CoreId::new(1);
        view.l1[0] = MesiState::Modified;
        view.replica[0] = Some(ReplicaEntry::new(MesiState::Shared, 3));
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.exclusive = true;
        s.owner = Some(CoreId::new(0));
        s.sharer_count = 1;
        s.tracked = vec![CoreId::new(0)];
        view.home = Some(s);
        let violations = check_view(&view);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn holder_without_home_entry_violates_inclusion() {
        let mut view = FakeView::new(2);
        view.l1[1] = MesiState::Shared;
        assert!(kinds(&check_view(&view)).contains(&Invariant::DirectoryInclusion));
    }

    #[test]
    fn untracked_holder_and_phantom_sharer_violate_inclusion() {
        let mut view = FakeView::new(2);
        view.l1[0] = MesiState::Shared;
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.sharer_count = 1;
        s.tracked = vec![CoreId::new(1)]; // tracks the wrong core
        view.home = Some(s);
        let violations = check_view(&view);
        // Tracked-but-not-holding and holding-but-not-tracked both fire.
        assert!(
            violations
                .iter()
                .filter(|v| v.invariant == Invariant::DirectoryInclusion)
                .count()
                >= 2,
            "{violations:?}"
        );
    }

    #[test]
    fn replica_without_home_entry_is_flagged() {
        let mut view = FakeView::new(2);
        view.home_slice = CoreId::new(1);
        view.replica[0] = Some(ReplicaEntry::new(MesiState::Shared, 3));
        assert!(kinds(&check_view(&view)).contains(&Invariant::ReplicaConsistentWithHome));
    }

    #[test]
    fn modified_replica_needs_exclusive_home() {
        let mut view = FakeView::new(2);
        view.home_slice = CoreId::new(1);
        view.replica[0] = Some(ReplicaEntry::new(MesiState::Modified, 3));
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.sharer_count = 1;
        s.tracked = vec![CoreId::new(0)];
        view.home = Some(s);
        assert!(kinds(&check_view(&view)).contains(&Invariant::ReplicaConsistentWithHome));
    }

    #[test]
    fn ackwise_capacity_checks_fire_on_bad_summaries() {
        let mut view = FakeView::new(3);
        view.l1[0] = MesiState::Shared;
        view.l1[1] = MesiState::Shared;
        view.l1[2] = MesiState::Shared;
        let mut s = FakeView::consistent_summary();
        s.uncached = false;
        s.max_pointers = 2;
        s.sharer_count = 3;
        s.tracked = vec![CoreId::new(0), CoreId::new(1), CoreId::new(2)];
        s.global = false;
        view.home = Some(s);
        assert!(kinds(&check_view(&view)).contains(&Invariant::AckwisePointerCapacity));
    }

    #[test]
    fn home_state_shape_checks_fire() {
        let mut view = FakeView::new(2);
        let mut s = FakeView::consistent_summary();
        s.uncached = true;
        s.owner = Some(CoreId::new(0)); // Uncached with an owner
        view.home = Some(s);
        let violations = check_view(&view);
        assert!(kinds(&violations).contains(&Invariant::HomeStateConsistent));
        // The owner also holds no copy.
        assert!(kinds(&violations).contains(&Invariant::DirectoryInclusion));
    }

    #[test]
    fn classifier_bounds_fire() {
        let mut view = FakeView::new(2);
        let mut s = FakeView::consistent_summary();
        s.classifier_capacity = Some(1);
        s.rt = 3;
        s.classifier = vec![
            TrackedCore {
                core: CoreId::new(0),
                mode: lad_replication::classifier::ReplicationMode::NonReplica,
                home_reuse: 9,
                active: true,
            },
            TrackedCore {
                core: CoreId::new(1),
                mode: lad_replication::classifier::ReplicationMode::NonReplica,
                home_reuse: 0,
                active: false,
            },
        ];
        view.home = Some(s);
        let violations = check_view(&view);
        assert_eq!(
            kinds(&violations)
                .iter()
                .filter(|i| **i == Invariant::ClassifierCounterBound)
                .count(),
            2,
            "capacity overflow and counter overflow both fire: {violations:?}"
        );
    }

    #[test]
    fn local_error_from_the_real_entry_is_surfaced() {
        let entry = HomeEntry::new(2, ClassifierKind::Limited(3), 3);
        let summary = HomeSummary::from_entry(&entry);
        assert_eq!(summary.local_error, None);
        assert!(summary.uncached);
        assert_eq!(summary.max_pointers, 2);
        assert_eq!(summary.rt, 3);
    }
}
