//! The home-directory entry and its request state machine.
//!
//! One [`DirectoryEntry`] lives in the LLC tag array of a line's home slice
//! (the *in-cache directory* organization of Section 2.1).  It tracks which
//! cores' local cache hierarchies (private L1 caches plus, under the
//! locality-aware protocol, the local LLC replica) hold a copy, using the
//! ACKwise limited-pointer list, and serializes all requests for the line.
//!
//! The entry's handlers do not move data or send messages themselves; they
//! return *outcomes* describing what the protocol engine must do (fetch from
//! memory, downgrade the owner, invalidate these sharers) and update the
//! sharer-tracking state.  This keeps them synchronous and exhaustively
//! testable while the timing lives in `lad-sim`.

use lad_common::types::CoreId;

use crate::ackwise::{AckwiseSharers, InvalidationTargets};
use crate::mesi::MesiState;

/// What a reader is granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadGrant {
    /// The line is granted in Shared state.
    Shared,
    /// The requester is the only sharer, so the line is granted in Exclusive
    /// state (the MESI "E" optimization — a later write needs no upgrade
    /// request).
    Exclusive,
}

impl ReadGrant {
    /// The MESI state installed in the requester's cache.
    pub fn as_state(self) -> MesiState {
        match self {
            ReadGrant::Shared => MesiState::Shared,
            ReadGrant::Exclusive => MesiState::Exclusive,
        }
    }
}

/// Outcome of a read request at the home directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The line is not cached anywhere on chip and must be fetched from
    /// off-chip memory.
    pub needs_memory_fetch: bool,
    /// A remote owner holds the line in M/E and must be downgraded to Shared
    /// (with a synchronous write-back if dirty) before the data is returned.
    pub downgrade_owner: Option<CoreId>,
    /// The state granted to the requester.
    pub grant: ReadGrant,
}

/// Outcome of a write (read-exclusive / upgrade) request at the home
/// directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The line must be fetched from off-chip memory first.
    pub needs_memory_fetch: bool,
    /// Copies that must be invalidated (and acknowledged) before the write
    /// is granted.  Never includes the requester.
    pub invalidations: InvalidationTargets,
    /// A remote owner that may hold dirty data which must be transferred to
    /// the requester (or written back) as part of its invalidation.
    pub prior_owner: Option<CoreId>,
}

/// Global state of a line at its home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum HomeState {
    /// No on-chip cache holds the line (it may still be resident in the home
    /// LLC slice's data array).
    #[default]
    Uncached,
    /// One or more cores hold read-only copies.
    Shared,
    /// Exactly one core owns the line in M or E.
    Exclusive,
}

/// A home-directory entry: sharer tracking plus the request state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryEntry {
    state: HomeState,
    sharers: AckwiseSharers,
    owner: Option<CoreId>,
}

impl DirectoryEntry {
    /// Creates an entry with no sharers, using `ackwise_pointers` hardware
    /// pointers.
    ///
    /// # Panics
    ///
    /// Panics if `ackwise_pointers` is zero.
    pub fn new(ackwise_pointers: usize) -> Self {
        DirectoryEntry {
            state: HomeState::Uncached,
            sharers: AckwiseSharers::new(ackwise_pointers),
            owner: None,
        }
    }

    /// Rebuilds an entry from its checkpointed parts.  The home state is not
    /// a free variable — it is derived from the parts (an owner means
    /// Exclusive, sharers without an owner mean Shared, otherwise Uncached),
    /// so a checkpoint only stores the sharer list and the owner.
    ///
    /// # Panics
    ///
    /// Panics if the parts are inconsistent (see
    /// [`DirectoryEntry::local_invariant_error`]), e.g. an owner that is not
    /// the sole tracked sharer.
    pub fn from_parts(sharers: AckwiseSharers, owner: Option<CoreId>) -> Self {
        let state = if owner.is_some() {
            HomeState::Exclusive
        } else if sharers.count() > 0 {
            HomeState::Shared
        } else {
            HomeState::Uncached
        };
        let entry = DirectoryEntry {
            state,
            sharers,
            owner,
        };
        if let Some((name, details)) = entry.local_invariant_error() {
            panic!("checkpointed directory entry violates [{name}]: {details}");
        }
        entry
    }

    /// Number of cores whose local hierarchy holds a copy.
    pub fn sharer_count(&self) -> usize {
        self.sharers.count()
    }

    /// `true` if no core holds a copy.
    pub fn is_uncached(&self) -> bool {
        matches!(self.state, HomeState::Uncached)
    }

    /// `true` if exactly one core owns the line in M/E.
    pub fn has_exclusive_owner(&self) -> bool {
        matches!(self.state, HomeState::Exclusive)
    }

    /// The exclusive owner, if any.
    pub fn owner(&self) -> Option<CoreId> {
        self.owner
    }

    /// The underlying ACKwise sharer list (read-only).
    pub fn sharers(&self) -> &AckwiseSharers {
        &self.sharers
    }

    /// `true` if `core` is known to hold a copy.
    pub fn is_sharer(&self, core: CoreId) -> bool {
        self.sharers.is_tracked_sharer(core) || self.owner == Some(core)
    }

    /// Checks the entry-local invariants shared with the `lad-check`
    /// catalog: `ackwise-pointer-capacity` (delegated to
    /// [`AckwiseSharers::local_invariant_error`]) and
    /// `home-state-consistent` (Uncached ⇒ no sharers and no owner;
    /// Shared ⇒ sharers but no owner; Exclusive ⇒ exactly one tracked
    /// sharer, the owner).
    ///
    /// Returns the catalog name and a description of the first violated
    /// invariant, or `None` when the entry is consistent.  Cross-entry
    /// invariants (inclusion, SWMR) need visibility over the caches and
    /// live in `lad-check` itself.
    pub fn local_invariant_error(&self) -> Option<(&'static str, String)> {
        if let Some(err) = self.sharers.local_invariant_error() {
            return Some(err);
        }
        let err = match self.state {
            HomeState::Uncached => {
                if self.sharers.count() != 0 {
                    Some(format!("Uncached with {} sharers", self.sharers.count()))
                } else if self.owner.is_some() {
                    Some(format!("Uncached with owner {:?}", self.owner))
                } else {
                    None
                }
            }
            HomeState::Shared => {
                if self.sharers.count() == 0 {
                    Some("Shared with no sharers".to_string())
                } else if self.owner.is_some() {
                    Some(format!("Shared with owner {:?}", self.owner))
                } else {
                    None
                }
            }
            HomeState::Exclusive => match self.owner {
                None => Some("Exclusive with no owner".to_string()),
                Some(owner) => {
                    if self.sharers.count() != 1 {
                        Some(format!("Exclusive with {} sharers", self.sharers.count()))
                    } else if !self.sharers.is_tracked_sharer(owner) {
                        Some(format!("Exclusive owner {owner:?} is not tracked"))
                    } else {
                        None
                    }
                }
            },
        };
        err.map(|details| ("home-state-consistent", details))
    }

    #[cfg(debug_assertions)]
    fn debug_check_local_invariants(&self) {
        if let Some((name, details)) = self.local_invariant_error() {
            panic!("protocol invariant violated [{name}]: {details}");
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_local_invariants(&self) {}

    /// Handles a read (load or instruction fetch) request from `requester`.
    ///
    /// Updates the sharer list and returns the actions the engine must
    /// perform.  The serialization of conflicting requests is the caller's
    /// responsibility (the home processes one request at a time).
    pub fn handle_read(&mut self, requester: CoreId) -> ReadOutcome {
        let outcome = self.handle_read_inner(requester);
        self.debug_check_local_invariants();
        outcome
    }

    fn handle_read_inner(&mut self, requester: CoreId) -> ReadOutcome {
        match self.state {
            HomeState::Uncached => {
                self.state = HomeState::Exclusive;
                self.owner = Some(requester);
                self.sharers.add(requester);
                ReadOutcome {
                    needs_memory_fetch: true,
                    downgrade_owner: None,
                    grant: ReadGrant::Exclusive,
                }
            }
            HomeState::Exclusive => {
                let Some(owner) = self.owner else {
                    panic!(
                        "protocol invariant violated [home-state-consistent]: \
                         Exclusive entry has no owner"
                    );
                };
                if owner == requester {
                    // The requester's hierarchy already owns the line (e.g. an
                    // L1 miss that hits the local LLC replica path); re-grant.
                    ReadOutcome {
                        needs_memory_fetch: false,
                        downgrade_owner: None,
                        grant: ReadGrant::Exclusive,
                    }
                } else {
                    self.state = HomeState::Shared;
                    self.owner = None;
                    self.sharers.add(requester);
                    ReadOutcome {
                        needs_memory_fetch: false,
                        downgrade_owner: Some(owner),
                        grant: ReadGrant::Shared,
                    }
                }
            }
            HomeState::Shared => {
                self.sharers.add(requester);
                ReadOutcome {
                    needs_memory_fetch: false,
                    downgrade_owner: None,
                    grant: ReadGrant::Shared,
                }
            }
        }
    }

    /// Handles a write (read-exclusive or upgrade) request from `requester`.
    ///
    /// All other copies are invalidated (the single-writer multiple-reader
    /// invariant) and the requester becomes the exclusive owner.
    pub fn handle_write(&mut self, requester: CoreId) -> WriteOutcome {
        let outcome = self.handle_write_inner(requester);
        self.debug_check_local_invariants();
        outcome
    }

    fn handle_write_inner(&mut self, requester: CoreId) -> WriteOutcome {
        match self.state {
            HomeState::Uncached => {
                self.state = HomeState::Exclusive;
                self.owner = Some(requester);
                self.sharers.add(requester);
                WriteOutcome {
                    needs_memory_fetch: true,
                    invalidations: InvalidationTargets::Exact(Vec::new()),
                    prior_owner: None,
                }
            }
            HomeState::Exclusive => {
                let Some(owner) = self.owner else {
                    panic!(
                        "protocol invariant violated [home-state-consistent]: \
                         Exclusive entry has no owner"
                    );
                };
                if owner == requester {
                    WriteOutcome {
                        needs_memory_fetch: false,
                        invalidations: InvalidationTargets::Exact(Vec::new()),
                        prior_owner: None,
                    }
                } else {
                    self.sharers.clear();
                    self.sharers.add(requester);
                    self.owner = Some(requester);
                    WriteOutcome {
                        needs_memory_fetch: false,
                        invalidations: InvalidationTargets::Exact(vec![owner]),
                        prior_owner: Some(owner),
                    }
                }
            }
            HomeState::Shared => {
                let invalidations = self.sharers.invalidation_targets(requester);
                self.sharers.clear();
                self.sharers.add(requester);
                self.state = HomeState::Exclusive;
                self.owner = Some(requester);
                WriteOutcome {
                    needs_memory_fetch: false,
                    invalidations,
                    prior_owner: None,
                }
            }
        }
    }

    /// Records that `core`'s local hierarchy no longer holds any copy of the
    /// line (its last copy was evicted or invalidated and acknowledged).
    pub fn handle_eviction(&mut self, core: CoreId) {
        self.sharers.remove(core);
        if self.owner == Some(core) {
            self.owner = None;
        }
        if self.sharers.is_empty() {
            self.state = HomeState::Uncached;
            self.owner = None;
        } else if self.owner.is_none() {
            self.state = HomeState::Shared;
        }
        self.debug_check_local_invariants();
    }

    /// All cores that must be probed when the home line is evicted from the
    /// inclusive LLC (every tracked sharer; in global mode, everyone).
    pub fn back_invalidation_targets(&self, num_cores: usize) -> Vec<CoreId> {
        if self.sharers.is_global() {
            (0..num_cores).map(CoreId::new).collect()
        } else {
            let mut cores: Vec<CoreId> = self.sharers.tracked().to_vec();
            if let Some(owner) = self.owner {
                if !cores.contains(&owner) {
                    cores.push(owner);
                }
            }
            cores
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    fn entry() -> DirectoryEntry {
        DirectoryEntry::new(4)
    }

    #[test]
    fn first_read_fetches_from_memory_and_grants_exclusive() {
        let mut e = entry();
        assert!(e.is_uncached());
        let out = e.handle_read(core(1));
        assert!(out.needs_memory_fetch);
        assert_eq!(out.downgrade_owner, None);
        assert_eq!(out.grant, ReadGrant::Exclusive);
        assert_eq!(out.grant.as_state(), MesiState::Exclusive);
        assert!(e.has_exclusive_owner());
        assert_eq!(e.owner(), Some(core(1)));
        assert_eq!(e.sharer_count(), 1);
        assert!(e.is_sharer(core(1)));
    }

    #[test]
    fn second_reader_downgrades_owner() {
        let mut e = entry();
        e.handle_read(core(1));
        let out = e.handle_read(core(2));
        assert!(!out.needs_memory_fetch);
        assert_eq!(out.downgrade_owner, Some(core(1)));
        assert_eq!(out.grant, ReadGrant::Shared);
        assert!(!e.has_exclusive_owner());
        assert_eq!(e.sharer_count(), 2);
        // Third reader: plain shared grant, no downgrade.
        let out = e.handle_read(core(3));
        assert_eq!(out.downgrade_owner, None);
        assert_eq!(out.grant, ReadGrant::Shared);
        assert_eq!(e.sharer_count(), 3);
    }

    #[test]
    fn reread_by_owner_is_silent() {
        let mut e = entry();
        e.handle_read(core(5));
        let out = e.handle_read(core(5));
        assert!(!out.needs_memory_fetch);
        assert_eq!(out.downgrade_owner, None);
        assert_eq!(out.grant, ReadGrant::Exclusive);
        assert_eq!(e.sharer_count(), 1);
    }

    #[test]
    fn write_to_uncached_line_fetches_memory() {
        let mut e = entry();
        let out = e.handle_write(core(0));
        assert!(out.needs_memory_fetch);
        assert_eq!(out.invalidations.expected_acks(), 0);
        assert_eq!(out.prior_owner, None);
        assert!(e.has_exclusive_owner());
        assert_eq!(e.owner(), Some(core(0)));
    }

    #[test]
    fn write_invalidates_all_readers() {
        let mut e = entry();
        e.handle_read(core(1));
        e.handle_read(core(2));
        e.handle_read(core(3));
        let out = e.handle_write(core(2));
        match &out.invalidations {
            InvalidationTargets::Exact(cores) => {
                assert_eq!(cores.len(), 2);
                assert!(cores.contains(&core(1)));
                assert!(cores.contains(&core(3)));
                assert!(!cores.contains(&core(2)));
            }
            other => panic!("expected exact invalidations, got {other:?}"),
        }
        assert!(!out.needs_memory_fetch);
        assert_eq!(e.owner(), Some(core(2)));
        assert_eq!(e.sharer_count(), 1);
    }

    #[test]
    fn write_steals_line_from_remote_owner() {
        let mut e = entry();
        e.handle_write(core(1));
        let out = e.handle_write(core(2));
        assert_eq!(out.prior_owner, Some(core(1)));
        assert_eq!(out.invalidations.expected_acks(), 1);
        assert_eq!(e.owner(), Some(core(2)));
        assert_eq!(e.sharer_count(), 1);
        // Re-write by the same owner is silent.
        let out = e.handle_write(core(2));
        assert_eq!(out.prior_owner, None);
        assert_eq!(out.invalidations.expected_acks(), 0);
    }

    #[test]
    fn migratory_pattern_read_write_by_alternating_cores() {
        // LU-NC-style migratory sharing: each core reads then writes.
        let mut e = entry();
        for step in 0..6 {
            let c = core(step % 2);
            e.handle_read(c);
            let w = e.handle_write(c);
            // The previous owner (the other core) is invalidated on the read
            // (downgrade) or on the write.
            assert!(w.invalidations.expected_acks() <= 1);
            assert_eq!(e.owner(), Some(c));
            assert_eq!(e.sharer_count(), 1, "step {step}");
        }
    }

    #[test]
    fn eviction_bookkeeping() {
        let mut e = entry();
        e.handle_read(core(1));
        e.handle_read(core(2));
        e.handle_eviction(core(1));
        assert_eq!(e.sharer_count(), 1);
        assert!(!e.is_uncached());
        e.handle_eviction(core(2));
        assert!(e.is_uncached());
        assert_eq!(e.owner(), None);
        // Evicting a non-sharer is a no-op.
        e.handle_eviction(core(9));
        assert!(e.is_uncached());
    }

    #[test]
    fn owner_eviction_clears_ownership() {
        let mut e = entry();
        e.handle_write(core(3));
        e.handle_eviction(core(3));
        assert!(e.is_uncached());
        assert_eq!(e.owner(), None);
        // Next read must fetch from memory again.
        let out = e.handle_read(core(4));
        assert!(out.needs_memory_fetch);
    }

    #[test]
    fn many_readers_go_global_and_writes_broadcast() {
        let mut e = entry();
        for i in 0..10 {
            e.handle_read(core(i));
        }
        assert_eq!(e.sharer_count(), 10);
        assert!(e.sharers().is_global());
        let out = e.handle_write(core(0));
        match out.invalidations {
            InvalidationTargets::Broadcast { expected_acks } => {
                assert_eq!(expected_acks, 9);
            }
            other => panic!("expected broadcast, got {other:?}"),
        }
        assert_eq!(e.sharer_count(), 1);
        assert!(!e.sharers().is_global());
    }

    #[test]
    fn from_parts_rederives_every_home_state() {
        // Exclusive: one owner.
        let mut e = entry();
        e.handle_write(core(3));
        let rebuilt = DirectoryEntry::from_parts(e.sharers().clone(), e.owner());
        assert_eq!(rebuilt, e);
        // Shared: readers, no owner.
        let mut e = entry();
        e.handle_read(core(1));
        e.handle_read(core(2));
        let rebuilt = DirectoryEntry::from_parts(e.sharers().clone(), e.owner());
        assert_eq!(rebuilt, e);
        // Uncached.
        let e = entry();
        let rebuilt = DirectoryEntry::from_parts(e.sharers().clone(), e.owner());
        assert_eq!(rebuilt, e);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn from_parts_rejects_untracked_owner() {
        let mut sharers = AckwiseSharers::new(4);
        sharers.add(core(1));
        DirectoryEntry::from_parts(sharers, Some(core(2)));
    }

    #[test]
    fn back_invalidation_targets_cover_all_sharers() {
        let mut e = entry();
        e.handle_read(core(1));
        e.handle_read(core(2));
        let targets = e.back_invalidation_targets(16);
        assert_eq!(targets.len(), 2);
        // Global mode: conservatively probe everyone.
        let mut e = entry();
        for i in 0..8 {
            e.handle_read(core(i));
        }
        assert!(e.sharers().is_global());
        assert_eq!(e.back_invalidation_targets(16).len(), 16);
    }
}
