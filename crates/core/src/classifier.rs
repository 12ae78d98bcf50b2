//! The in-hardware run-time locality classifier (Sections 2.2.1–2.2.5).
//!
//! One classifier instance is attached to every home-directory entry.  It
//! tracks, per core, a *replication mode* bit and a *home reuse* saturating
//! counter, and makes the replication decision for read and write requests:
//!
//! * a core starts as a **non-replica sharer**; its home-reuse counter is
//!   incremented on every access it makes at the home location;
//! * once the counter reaches the replication threshold **RT** the core is
//!   *promoted* to **replica sharer** and subsequent misses install a replica
//!   in its local LLC slice;
//! * when a replica is evicted or invalidated the replica-reuse counter it
//!   accumulated is reported back to the home, and the core is *demoted* if
//!   the observed reuse fell below RT (eviction: replica reuse alone;
//!   invalidation: replica + home reuse, the total reuse between conflicting
//!   writes);
//! * on a write, the home-reuse counters of all non-replica sharers other
//!   than the writer are reset (they did not show enough reuse to be
//!   promoted), while the writer's counter is incremented if it was the only
//!   sharer (migratory data) or set to one otherwise.
//!
//! Two storage organizations are provided (Figure 4 / Figure 5): the
//! **Complete** classifier tracks every core, and the **Limited_k**
//! classifier tracks at most `k` cores, replaces *inactive* entries first and
//! classifies untracked cores by a majority vote of the tracked modes.

use std::fmt;

use lad_common::types::CoreId;

use crate::counter::SaturatingCounter;

/// Whether a core is currently allowed to keep an LLC replica of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationMode {
    /// The core's LLC slice may hold a replica of the line.
    Replica,
    /// The core must access the line at its home LLC slice.
    NonReplica,
}

impl ReplicationMode {
    /// `true` for [`ReplicationMode::Replica`].
    pub fn allows_replica(self) -> bool {
        matches!(self, ReplicationMode::Replica)
    }
}

impl fmt::Display for ReplicationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationMode::Replica => f.write_str("replica"),
            ReplicationMode::NonReplica => f.write_str("non-replica"),
        }
    }
}

/// Which classifier organization to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Track locality information for every core in the system (Figure 4).
    Complete,
    /// Track locality information for at most `k` cores and classify the
    /// rest by majority vote (Figure 5).  The paper picks `k = 3`.
    Limited(usize),
}

impl ClassifierKind {
    /// The paper's default: the Limited₃ classifier.
    pub fn paper_default() -> Self {
        ClassifierKind::Limited(3)
    }

    /// Number of tracked cores, or `None` for the complete classifier.
    pub fn capacity(self) -> Option<usize> {
        match self {
            ClassifierKind::Complete => None,
            ClassifierKind::Limited(k) => Some(k),
        }
    }
}

/// Locality state tracked for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CoreEntry {
    core: CoreId,
    mode: ReplicationMode,
    home_reuse: SaturatingCounter,
    /// An *inactive* entry belongs to a core that is currently not using the
    /// line (its replica was evicted/invalidated, or it was a non-replica
    /// sharer invalidated by another core's write); inactive entries are the
    /// preferred replacement candidates in the limited classifier.
    active: bool,
}

impl CoreEntry {
    fn new(core: CoreId, mode: ReplicationMode, rt: u32) -> Self {
        CoreEntry {
            core,
            mode,
            home_reuse: SaturatingCounter::new(rt),
            active: true,
        }
    }
}

/// One tracked core's classifier state, as exposed by
/// [`LocalityClassifier::snapshot`] for checkers and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedCore {
    /// The tracked core.
    pub core: CoreId,
    /// Its current replication mode.
    pub mode: ReplicationMode,
    /// Its home-reuse counter value.
    pub home_reuse: u32,
    /// `true` while the core is actively using the line; inactive entries
    /// are the Limited_k replacement candidates.
    pub active: bool,
}

/// The per-cache-line locality classifier.
#[derive(Debug, Clone)]
pub struct LocalityClassifier {
    entries: Vec<CoreEntry>,
    /// `None` for the Complete classifier (track everyone), `Some(k)` for
    /// Limited_k.
    capacity: Option<usize>,
    rt: u32,
    /// Cumulative number of replica/non-replica mode transitions of tracked
    /// cores (promotions and demotions; classification *churn*).  Diagnostic
    /// only: excluded from equality, reset by [`LocalityClassifier::from_snapshot`].
    mode_flips: u64,
    /// High-water mark of [`LocalityClassifier::tracked_count`] — how much
    /// classifier-table capacity this line actually used.  Diagnostic only,
    /// like `mode_flips`.
    peak_tracked: usize,
}

/// Equality covers the *behavioral* state (tracked entries in order,
/// capacity, threshold) and deliberately ignores the diagnostic
/// [`LocalityClassifier::mode_flips`] / [`LocalityClassifier::peak_tracked`]
/// counters: a classifier rebuilt from a snapshot behaves identically even
/// though its history counters restart at zero.
impl PartialEq for LocalityClassifier {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.capacity == other.capacity && self.rt == other.rt
    }
}

impl Eq for LocalityClassifier {}

impl LocalityClassifier {
    /// Creates a classifier with all cores initially in non-replica mode.
    ///
    /// # Panics
    ///
    /// Panics if `rt` is zero or a limited classifier is requested with zero
    /// tracked cores.
    pub fn new(kind: ClassifierKind, rt: u32) -> Self {
        assert!(rt > 0, "replication threshold must be positive");
        if let ClassifierKind::Limited(k) = kind {
            assert!(k > 0, "limited classifier needs at least one tracked core");
        }
        LocalityClassifier {
            entries: Vec::new(),
            capacity: kind.capacity(),
            rt,
            mode_flips: 0,
            peak_tracked: 0,
        }
    }

    /// Cumulative replica/non-replica mode transitions of tracked cores
    /// (promotions + demotions) over this classifier's lifetime.
    pub fn mode_flips(&self) -> u64 {
        self.mode_flips
    }

    /// High-water mark of the number of simultaneously tracked cores.
    pub fn peak_tracked(&self) -> usize {
        self.peak_tracked
    }

    /// The replication threshold this classifier was built with.
    pub fn replication_threshold(&self) -> u32 {
        self.rt
    }

    /// Number of cores currently tracked.
    pub fn tracked_count(&self) -> usize {
        self.entries.len()
    }

    /// Cores currently tracked (in no particular order).
    pub fn tracked_cores(&self) -> Vec<CoreId> {
        self.entries.iter().map(|e| e.core).collect()
    }

    /// The classifier's tracked-core capacity: `None` for the Complete
    /// organization, `Some(k)` for Limited_k.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The full per-core state, in tracking order.
    ///
    /// The order is significant: the Limited_k organization replaces the
    /// *first* inactive entry, so two classifiers with the same entries in
    /// a different order can behave differently.  Checkers that encode
    /// classifier state (the `lad-check` model exploration) must therefore
    /// preserve this order.  It yields [`LocalityClassifier::tracked_count`]
    /// items and allocates nothing, so a checkpoint encodes it in place.
    pub fn snapshot(&self) -> impl Iterator<Item = TrackedCore> + '_ {
        self.entries.iter().map(|e| TrackedCore {
            core: e.core,
            mode: e.mode,
            home_reuse: e.home_reuse.value(),
            active: e.active,
        })
    }

    /// Rebuilds a classifier from a checkpointed [`LocalityClassifier::snapshot`],
    /// preserving the tracking order (which decides Limited_k replacement).
    ///
    /// # Panics
    ///
    /// Panics on the same bad parameters as [`LocalityClassifier::new`], on
    /// duplicate tracked cores, or on more entries than a limited
    /// classifier's capacity.
    pub fn from_snapshot(kind: ClassifierKind, rt: u32, entries: &[TrackedCore]) -> Self {
        let mut classifier = LocalityClassifier::new(kind, rt);
        if let Some(k) = classifier.capacity {
            assert!(
                entries.len() <= k,
                "{} tracked cores exceed the Limited_{k} capacity",
                entries.len()
            );
        }
        for tracked in entries {
            assert!(
                classifier.find(tracked.core).is_none(),
                "duplicate tracked core {:?}",
                tracked.core
            );
            classifier.entries.push(CoreEntry {
                core: tracked.core,
                mode: tracked.mode,
                home_reuse: SaturatingCounter::with_value(rt, tracked.home_reuse),
                active: tracked.active,
            });
        }
        classifier.peak_tracked = classifier.entries.len();
        classifier
    }

    /// The current replication mode of `core` (majority vote if untracked by
    /// a limited classifier; the initial non-replica mode if untracked by the
    /// complete classifier).
    pub fn mode(&self, core: CoreId) -> ReplicationMode {
        match self.find(core) {
            Some(idx) => self.entries[idx].mode,
            None => {
                if self.capacity.is_some() && !self.entries.is_empty() {
                    self.majority_mode()
                } else {
                    ReplicationMode::NonReplica
                }
            }
        }
    }

    /// The home-reuse counter of `core`, if tracked.
    pub fn home_reuse(&self, core: CoreId) -> Option<u32> {
        self.find(core)
            .map(|idx| self.entries[idx].home_reuse.value())
    }

    fn find(&self, core: CoreId) -> Option<usize> {
        self.entries.iter().position(|e| e.core == core)
    }

    fn majority_mode(&self) -> ReplicationMode {
        let replica_votes = self
            .entries
            .iter()
            .filter(|e| e.mode == ReplicationMode::Replica)
            .count();
        // Ties favour the conservative non-replica mode (the protocol's
        // initial state).
        if replica_votes * 2 > self.entries.len() {
            ReplicationMode::Replica
        } else {
            ReplicationMode::NonReplica
        }
    }

    /// Finds the tracking entry for `core`, allocating one if possible.
    ///
    /// Returns `Some(index)` if the core is (now) tracked, or `None` if the
    /// limited classifier has no free or replaceable entry, in which case the
    /// caller must fall back to the majority vote.
    fn track(&mut self, core: CoreId) -> Option<usize> {
        if let Some(idx) = self.find(core) {
            self.entries[idx].active = true;
            return Some(idx);
        }
        match self.capacity {
            None => {
                // Complete classifier: allocate lazily, initial mode.
                self.entries
                    .push(CoreEntry::new(core, ReplicationMode::NonReplica, self.rt));
                self.peak_tracked = self.peak_tracked.max(self.entries.len());
                Some(self.entries.len() - 1)
            }
            Some(k) => {
                if self.entries.len() < k {
                    // Free entry: start in the initial (non-replica) mode.
                    self.entries
                        .push(CoreEntry::new(core, ReplicationMode::NonReplica, self.rt));
                    self.peak_tracked = self.peak_tracked.max(self.entries.len());
                    return Some(self.entries.len() - 1);
                }
                // Replace an inactive sharer if one exists; its replacement
                // starts in the most probable mode (majority vote).
                if let Some(idx) = self.entries.iter().position(|e| !e.active) {
                    let mode = self.majority_mode();
                    self.entries[idx] = CoreEntry::new(core, mode, self.rt);
                    return Some(idx);
                }
                None
            }
        }
    }

    /// Handles a read (or instruction fetch) by `core` arriving at the home
    /// location, and returns the mode that governs whether a replica is
    /// installed for it.
    ///
    /// Non-replica sharers have their home-reuse counter incremented and are
    /// promoted once it reaches RT (Section 2.2.1).
    pub fn on_home_read(&mut self, core: CoreId) -> ReplicationMode {
        match self.track(core) {
            Some(idx) => {
                let entry = &mut self.entries[idx];
                entry.active = true;
                match entry.mode {
                    ReplicationMode::Replica => ReplicationMode::Replica,
                    ReplicationMode::NonReplica => {
                        let reuse = entry.home_reuse.increment();
                        if reuse >= self.rt {
                            entry.mode = ReplicationMode::Replica;
                            self.mode_flips += 1;
                            ReplicationMode::Replica
                        } else {
                            ReplicationMode::NonReplica
                        }
                    }
                }
            }
            None => self.mode(core),
        }
    }

    /// Handles a write by `writer` arriving at the home location, after the
    /// directory has invalidated the other copies (Section 2.2.2).
    ///
    /// `other_sharers_present` says whether any other core (replica or
    /// non-replica) shared the line at the time of the write.  Returns the
    /// writer's resulting mode, which decides whether an exclusive-state
    /// replica is installed for it (the migratory-data case).
    pub fn on_home_write(
        &mut self,
        writer: CoreId,
        other_sharers_present: bool,
    ) -> ReplicationMode {
        // Non-replica sharers other than the writer have not shown enough
        // reuse to be promoted: reset their counters and mark them inactive
        // (a non-replica core becomes inactive on a write by another core).
        for entry in &mut self.entries {
            if entry.core != writer && entry.mode == ReplicationMode::NonReplica {
                entry.home_reuse.reset();
                entry.active = false;
            }
        }

        match self.track(writer) {
            Some(idx) => {
                let rt = self.rt;
                let entry = &mut self.entries[idx];
                entry.active = true;
                match entry.mode {
                    ReplicationMode::Replica => ReplicationMode::Replica,
                    ReplicationMode::NonReplica => {
                        if other_sharers_present {
                            // Conflicting access pattern: restart the count at
                            // one (this access).
                            entry.home_reuse.set(1);
                        } else {
                            entry.home_reuse.increment();
                        }
                        if entry.home_reuse.value() >= rt {
                            entry.mode = ReplicationMode::Replica;
                            self.mode_flips += 1;
                            ReplicationMode::Replica
                        } else {
                            ReplicationMode::NonReplica
                        }
                    }
                }
            }
            None => self.mode(writer),
        }
    }

    /// Handles the acknowledgement of an **invalidation** of `core`'s LLC
    /// replica, carrying the replica-reuse counter it had accumulated
    /// (Section 2.2.3).
    ///
    /// The total reuse between conflicting writes is replica + home reuse;
    /// the core keeps replica status only if that total reached RT.
    pub fn on_replica_invalidated(&mut self, core: CoreId, replica_reuse: u32) {
        self.settle_replica(core, replica_reuse, true);
    }

    /// Handles the acknowledgement of an **eviction** of `core`'s LLC
    /// replica, carrying its replica-reuse counter (Section 2.2.3).
    ///
    /// Only the replica reuse matters here: it captures the reuse the line
    /// received at the replica location before local capacity pressure
    /// evicted it.
    pub fn on_replica_evicted(&mut self, core: CoreId, replica_reuse: u32) {
        self.settle_replica(core, replica_reuse, false);
    }

    fn settle_replica(&mut self, core: CoreId, replica_reuse: u32, include_home_reuse: bool) {
        let rt = self.rt;
        if let Some(idx) = self.find(core) {
            let entry = &mut self.entries[idx];
            let total = if include_home_reuse {
                replica_reuse.saturating_add(entry.home_reuse.value())
            } else {
                replica_reuse
            };
            let settled = if total >= rt {
                ReplicationMode::Replica
            } else {
                ReplicationMode::NonReplica
            };
            if entry.mode != settled {
                self.mode_flips += 1;
            }
            entry.mode = settled;
            // The home-reuse counter starts a fresh round of classification.
            entry.home_reuse.reset();
            // A replica core becomes inactive on an LLC invalidation or
            // eviction.
            entry.active = false;
        }
        // Untracked cores carry no per-core state to settle.
    }

    /// Handles the invalidation of a non-replica sharer's L1 copy (it holds
    /// no LLC replica, so there is no reuse to report); the core becomes
    /// inactive.
    pub fn on_sharer_invalidated(&mut self, core: CoreId) {
        if let Some(idx) = self.find(core) {
            self.entries[idx].active = false;
        }
    }

    /// Marks `core` inactive because its last L1 copy was evicted and it
    /// holds no replica (the core is no longer using the line).
    pub fn on_sharer_evicted(&mut self, core: CoreId) {
        self.on_sharer_invalidated(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    fn limited(k: usize, rt: u32) -> LocalityClassifier {
        LocalityClassifier::new(ClassifierKind::Limited(k), rt)
    }

    fn complete(rt: u32) -> LocalityClassifier {
        LocalityClassifier::new(ClassifierKind::Complete, rt)
    }

    #[test]
    fn paper_default_is_limited3() {
        assert_eq!(ClassifierKind::paper_default(), ClassifierKind::Limited(3));
        assert_eq!(ClassifierKind::Limited(3).capacity(), Some(3));
        assert_eq!(ClassifierKind::Complete.capacity(), None);
    }

    #[test]
    fn initial_mode_is_non_replica() {
        let c = complete(3);
        assert_eq!(c.mode(core(0)), ReplicationMode::NonReplica);
        assert!(!c.mode(core(0)).allows_replica());
        assert_eq!(c.tracked_count(), 0);
        assert_eq!(c.home_reuse(core(0)), None);
    }

    #[test]
    fn promotion_after_rt_home_accesses() {
        let mut c = complete(3);
        assert_eq!(c.on_home_read(core(1)), ReplicationMode::NonReplica);
        assert_eq!(c.home_reuse(core(1)), Some(1));
        assert_eq!(c.on_home_read(core(1)), ReplicationMode::NonReplica);
        assert_eq!(c.on_home_read(core(1)), ReplicationMode::Replica);
        assert_eq!(c.mode(core(1)), ReplicationMode::Replica);
        // Further reads stay in replica mode.
        assert_eq!(c.on_home_read(core(1)), ReplicationMode::Replica);
    }

    #[test]
    fn rt_one_promotes_immediately() {
        let mut c = complete(1);
        assert_eq!(c.on_home_read(core(0)), ReplicationMode::Replica);
    }

    #[test]
    fn rt_eight_requires_eight_accesses() {
        let mut c = complete(8);
        for _ in 0..7 {
            assert_eq!(c.on_home_read(core(2)), ReplicationMode::NonReplica);
        }
        assert_eq!(c.on_home_read(core(2)), ReplicationMode::Replica);
    }

    #[test]
    fn eviction_with_good_reuse_keeps_replica_status() {
        let mut c = complete(3);
        for _ in 0..3 {
            c.on_home_read(core(1));
        }
        c.on_replica_evicted(core(1), 5);
        assert_eq!(c.mode(core(1)), ReplicationMode::Replica);
        assert_eq!(
            c.home_reuse(core(1)),
            Some(0),
            "home reuse resets for the next round"
        );
    }

    #[test]
    fn eviction_with_poor_reuse_demotes() {
        let mut c = complete(3);
        for _ in 0..3 {
            c.on_home_read(core(1));
        }
        c.on_replica_evicted(core(1), 2);
        assert_eq!(c.mode(core(1)), ReplicationMode::NonReplica);
    }

    #[test]
    fn invalidation_adds_home_and_replica_reuse() {
        let mut c = complete(3);
        for _ in 0..3 {
            c.on_home_read(core(1));
        }
        // New round: one home hit (counter = 1), then the replica (reuse 2)
        // is invalidated: total 3 >= RT keeps replica status.
        c.on_replica_evicted(core(1), 3); // stays replica, counter reset
        assert_eq!(c.mode(core(1)), ReplicationMode::Replica);
        // Simulate home reuse of 1 for a non-replica round:
        c.on_replica_invalidated(core(1), 2);
        // home reuse was 0 -> total 2 < 3: demoted.
        assert_eq!(c.mode(core(1)), ReplicationMode::NonReplica);
        c.on_home_read(core(1)); // home reuse 1
        c.on_replica_invalidated(core(1), 2); // total 3 >= RT: promoted again
        assert_eq!(c.mode(core(1)), ReplicationMode::Replica);
    }

    #[test]
    fn write_resets_other_non_replica_sharers() {
        let mut c = complete(3);
        c.on_home_read(core(1));
        c.on_home_read(core(1));
        c.on_home_read(core(2));
        assert_eq!(c.home_reuse(core(1)), Some(2));
        // Core 3 writes; both 1 and 2 are non-replica sharers and get reset.
        c.on_home_write(core(3), true);
        assert_eq!(c.home_reuse(core(1)), Some(0));
        assert_eq!(c.home_reuse(core(2)), Some(0));
    }

    #[test]
    fn migratory_writer_promotes_when_sole_sharer() {
        // Migratory data: one core repeatedly reads and writes with no other
        // concurrent sharers; its home reuse accumulates and promotes it.
        let mut c = complete(3);
        assert_eq!(c.on_home_write(core(4), false), ReplicationMode::NonReplica);
        assert_eq!(c.on_home_write(core(4), false), ReplicationMode::NonReplica);
        assert_eq!(c.on_home_write(core(4), false), ReplicationMode::Replica);
    }

    #[test]
    fn conflicting_writer_counter_restarts_at_one() {
        let mut c = complete(3);
        c.on_home_read(core(5));
        c.on_home_read(core(5));
        assert_eq!(c.home_reuse(core(5)), Some(2));
        // Another sharer exists at the time of the write: counter set to 1,
        // not incremented to 3, so no promotion.
        assert_eq!(c.on_home_write(core(5), true), ReplicationMode::NonReplica);
        assert_eq!(c.home_reuse(core(5)), Some(1));
    }

    #[test]
    fn replica_mode_writer_stays_replica() {
        let mut c = complete(1);
        assert_eq!(c.on_home_read(core(0)), ReplicationMode::Replica);
        assert_eq!(c.on_home_write(core(0), true), ReplicationMode::Replica);
    }

    #[test]
    fn limited_tracks_at_most_k_cores() {
        let mut c = limited(3, 3);
        for i in 0..5 {
            c.on_home_read(core(i));
        }
        assert_eq!(c.tracked_count(), 3);
        let tracked = c.tracked_cores();
        assert!(tracked.contains(&core(0)));
        assert!(tracked.contains(&core(1)));
        assert!(tracked.contains(&core(2)));
    }

    #[test]
    fn limited_untracked_core_uses_majority_vote() {
        let mut c = limited(3, 1); // RT=1: every read promotes
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        c.on_home_read(core(2));
        // All three tracked cores are replicas; untracked core 9 follows the
        // majority.
        assert_eq!(c.mode(core(9)), ReplicationMode::Replica);
        assert_eq!(c.on_home_read(core(9)), ReplicationMode::Replica);
        // With a non-replica majority the untracked core is conservative.
        let mut c = limited(3, 3);
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        c.on_home_read(core(2));
        assert_eq!(c.mode(core(9)), ReplicationMode::NonReplica);
        assert_eq!(c.on_home_read(core(9)), ReplicationMode::NonReplica);
    }

    #[test]
    fn majority_vote_ties_are_conservative() {
        let mut c = limited(2, 1);
        c.on_home_read(core(0)); // replica (RT=1)
                                 // Manually leave core 1 in non-replica mode by only giving core 0
                                 // accesses; allocate core 1 with a write that does not promote.
        let mut c2 = limited(2, 3);
        c2.on_home_read(core(0));
        c2.on_home_read(core(0));
        c2.on_home_read(core(0)); // promoted
        c2.on_home_read(core(1)); // non-replica
                                  // 1 replica vs 1 non-replica: tie -> non-replica for untracked cores.
        assert_eq!(c2.mode(core(7)), ReplicationMode::NonReplica);
        drop(c);
    }

    #[test]
    fn limited_replaces_inactive_entries_first() {
        let mut c = limited(2, 3);
        // Track cores 0 and 1.
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        assert_eq!(c.tracked_count(), 2);
        // Core 2 cannot be tracked yet (no inactive entry): majority vote.
        c.on_home_read(core(2));
        assert!(!c.tracked_cores().contains(&core(2)));
        // Core 1's replica round ends (eviction): it becomes inactive and its
        // entry can be reallocated to core 2.
        c.on_replica_evicted(core(1), 0);
        c.on_home_read(core(2));
        assert!(c.tracked_cores().contains(&core(2)));
        assert!(!c.tracked_cores().contains(&core(1)));
        assert_eq!(c.tracked_count(), 2);
    }

    #[test]
    fn limited_replacement_inherits_majority_mode() {
        let mut c = limited(3, 1); // RT=1 promotes on first access
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        c.on_home_read(core(2));
        // Demote + deactivate core 2 so its entry is replaceable, leaving a
        // replica majority (cores 0, 1).
        c.on_replica_evicted(core(2), 0);
        assert_eq!(c.mode(core(2)), ReplicationMode::NonReplica);
        // Core 5 takes the inactive entry and starts in the majority mode
        // (replica), so its very first read is served with a replica.
        assert_eq!(c.on_home_read(core(5)), ReplicationMode::Replica);
        assert!(c.tracked_cores().contains(&core(5)));
    }

    #[test]
    fn write_marks_other_sharers_inactive_for_replacement() {
        let mut c = limited(2, 3);
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        // Core 1 writes: core 0 (non-replica) becomes inactive.
        c.on_home_write(core(1), true);
        // Core 2 can now displace core 0's entry.
        c.on_home_read(core(2));
        assert!(c.tracked_cores().contains(&core(2)));
        assert!(!c.tracked_cores().contains(&core(0)));
    }

    #[test]
    fn untracked_settlement_is_a_no_op() {
        let mut c = limited(1, 3);
        c.on_home_read(core(0));
        // Core 9 is untracked; settling it must not disturb tracked state.
        c.on_replica_evicted(core(9), 5);
        c.on_replica_invalidated(core(9), 5);
        c.on_sharer_invalidated(core(9));
        c.on_sharer_evicted(core(9));
        assert_eq!(c.tracked_count(), 1);
        assert_eq!(c.home_reuse(core(0)), Some(1));
    }

    #[test]
    fn sharer_eviction_marks_inactive() {
        let mut c = limited(1, 3);
        c.on_home_read(core(0));
        c.on_sharer_evicted(core(0));
        // Entry is inactive, so a new core can take it over immediately.
        c.on_home_read(core(1));
        assert_eq!(c.tracked_cores(), vec![core(1)]);
    }

    #[test]
    fn complete_classifier_never_replaces() {
        let mut c = complete(3);
        for i in 0..100 {
            c.on_home_read(core(i));
        }
        assert_eq!(c.tracked_count(), 100);
    }

    #[test]
    #[should_panic(expected = "replication threshold")]
    fn zero_rt_rejected() {
        LocalityClassifier::new(ClassifierKind::Complete, 0);
    }

    #[test]
    #[should_panic(expected = "at least one tracked core")]
    fn zero_capacity_rejected() {
        LocalityClassifier::new(ClassifierKind::Limited(0), 3);
    }

    #[test]
    fn snapshot_roundtrip_preserves_tracking_order() {
        let mut c = limited(2, 3);
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        c.on_home_write(core(1), true); // core 0 reset + inactive

        let rebuilt = LocalityClassifier::from_snapshot(
            ClassifierKind::Limited(2),
            c.replication_threshold(),
            &c.snapshot().collect::<Vec<_>>(),
        );
        assert_eq!(rebuilt, c);
        // Replacement picks the same (first inactive) entry afterwards: the
        // order survived, so future behavior is identical.
        let mut c2 = rebuilt;
        c.on_home_read(core(2));
        c2.on_home_read(core(2));
        assert_eq!(c2, c);
        assert_eq!(c.tracked_cores(), vec![core(2), core(1)]);
    }

    #[test]
    #[should_panic(expected = "exceed the Limited_1 capacity")]
    fn snapshot_restore_rejects_overfull_entries() {
        let mut c = limited(2, 3);
        c.on_home_read(core(0));
        c.on_home_read(core(1));
        LocalityClassifier::from_snapshot(
            ClassifierKind::Limited(1),
            3,
            &c.snapshot().collect::<Vec<_>>(),
        );
    }

    #[test]
    fn variance_counters_track_flips_and_peak_occupancy() {
        let mut c = limited(2, 3);
        assert_eq!(c.mode_flips(), 0);
        assert_eq!(c.peak_tracked(), 0);
        for _ in 0..3 {
            c.on_home_read(core(0)); // promotion at the third read
        }
        assert_eq!(c.mode_flips(), 1);
        assert_eq!(c.peak_tracked(), 1);
        c.on_home_read(core(1));
        assert_eq!(c.peak_tracked(), 2);
        // Demotion on a poor-reuse eviction is a second flip...
        c.on_replica_evicted(core(0), 0);
        assert_eq!(c.mode_flips(), 2);
        // ...but settling into the same mode is not.
        c.on_replica_evicted(core(0), 5);
        c.on_replica_evicted(core(0), 5);
        assert_eq!(c.mode_flips(), 3, "demote->promote, then promote->promote");
        // Peak is a high-water mark: replacement does not lower it.
        assert_eq!(c.peak_tracked(), 2);
        // The counters are diagnostic: equality and snapshots ignore them.
        let rebuilt = LocalityClassifier::from_snapshot(
            ClassifierKind::Limited(2),
            c.replication_threshold(),
            &c.snapshot().collect::<Vec<_>>(),
        );
        assert_eq!(rebuilt, c);
        assert_eq!(rebuilt.mode_flips(), 0);
        assert_eq!(rebuilt.peak_tracked(), rebuilt.tracked_count());
    }

    #[test]
    fn migratory_write_promotion_counts_one_flip() {
        let mut c = complete(3);
        c.on_home_write(core(4), false);
        c.on_home_write(core(4), false);
        assert_eq!(c.mode_flips(), 0);
        c.on_home_write(core(4), false);
        assert_eq!(c.mode_flips(), 1);
        // Staying in replica mode adds nothing.
        c.on_home_write(core(4), true);
        assert_eq!(c.mode_flips(), 1);
    }

    #[test]
    fn display_modes() {
        assert_eq!(ReplicationMode::Replica.to_string(), "replica");
        assert_eq!(ReplicationMode::NonReplica.to_string(), "non-replica");
    }
}
