//! Metadata stored in each LLC slice entry.
//!
//! An LLC slice holds two kinds of lines (Figure 2):
//!
//! * **Home lines** — the line's directory entry lives here: MESI/ACKwise
//!   sharer tracking plus the locality classifier (Figure 4 / Figure 5).
//! * **Replica lines** — a copy installed for the local core by one of the
//!   replication schemes, carrying the replica-reuse counter and its own
//!   MESI state (replicas may be created in M/E for migratory data,
//!   Section 2.3.1).
//!
//! Both expose the number of local L1 copies so the slice's sharer-aware
//! replacement policy (Section 2.2.4) can prioritize lines with live L1
//! copies without extra messages.

use lad_cache::replacement::SharerCount;
use lad_coherence::directory::DirectoryEntry;
use lad_coherence::mesi::MesiState;

use crate::classifier::{ClassifierKind, LocalityClassifier};
use crate::counter::SaturatingCounter;

/// A home line: directory entry + locality classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeEntry {
    /// Sharer tracking and the home request state machine.
    pub directory: DirectoryEntry,
    /// The per-line locality classifier.
    pub classifier: LocalityClassifier,
    /// `true` if the LLC copy is newer than DRAM (a dirty write-back was
    /// merged into it).
    pub dirty: bool,
}

impl HomeEntry {
    /// Creates a home entry with no sharers and an untrained classifier.
    pub fn new(ackwise_pointers: usize, classifier: ClassifierKind, rt: u32) -> Self {
        HomeEntry {
            directory: DirectoryEntry::new(ackwise_pointers),
            classifier: LocalityClassifier::new(classifier, rt),
            dirty: false,
        }
    }
}

impl SharerCount for HomeEntry {
    fn l1_sharer_count(&self) -> usize {
        self.directory.sharer_count()
    }

    fn is_replica(&self) -> bool {
        false
    }
}

/// A replica line installed in the local LLC slice for the local core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// MESI state of the replica (replicas can be S, E or M).
    pub state: MesiState,
    /// The replica-reuse saturating counter (initialized to 1 on creation,
    /// incremented on every replica hit, Section 2.2.1).
    pub reuse: SaturatingCounter,
    /// `true` while the local L1 also holds a copy of the line.
    pub l1_copy: bool,
    /// `true` if the replica holds dirty data that must be merged back on
    /// eviction/invalidation.
    pub dirty: bool,
}

impl ReplicaEntry {
    /// Creates a freshly installed replica.
    ///
    /// The reuse counter starts at 1 (the access that created the replica
    /// counts as its first use) and the L1 also receives a copy.
    pub fn new(state: MesiState, rt: u32) -> Self {
        ReplicaEntry {
            state,
            reuse: SaturatingCounter::with_value(rt, 1),
            l1_copy: true,
            dirty: state == MesiState::Modified,
        }
    }

    /// Records a hit on the replica and returns the new reuse value.
    pub fn record_hit(&mut self) -> u32 {
        self.l1_copy = true;
        self.reuse.increment()
    }
}

impl SharerCount for ReplicaEntry {
    fn l1_sharer_count(&self) -> usize {
        usize::from(self.l1_copy)
    }

    fn is_replica(&self) -> bool {
        true
    }
}

/// An LLC slice entry: either the home copy of a line or a local replica.
#[derive(Debug, Clone, PartialEq)]
pub enum LlcEntry {
    /// The line's home: directory + classifier (+ data).
    Home(HomeEntry),
    /// A locally installed replica (+ data).
    Replica(ReplicaEntry),
}

impl LlcEntry {
    /// `true` for home entries; [`SharerCount::is_replica`] is its
    /// complement.
    pub fn is_home(&self) -> bool {
        matches!(self, LlcEntry::Home(_))
    }

    /// The home entry, if this is one.
    pub fn as_home(&self) -> Option<&HomeEntry> {
        match self {
            LlcEntry::Home(home) => Some(home),
            LlcEntry::Replica(_) => None,
        }
    }

    /// The home entry mutably, if this is one.
    pub fn as_home_mut(&mut self) -> Option<&mut HomeEntry> {
        match self {
            LlcEntry::Home(home) => Some(home),
            LlcEntry::Replica(_) => None,
        }
    }

    /// The replica entry, if this is one.
    pub fn as_replica(&self) -> Option<&ReplicaEntry> {
        match self {
            LlcEntry::Home(_) => None,
            LlcEntry::Replica(replica) => Some(replica),
        }
    }
}

impl SharerCount for LlcEntry {
    fn l1_sharer_count(&self) -> usize {
        match self {
            LlcEntry::Home(home) => home.l1_sharer_count(),
            LlcEntry::Replica(replica) => replica.l1_sharer_count(),
        }
    }

    fn is_replica(&self) -> bool {
        matches!(self, LlcEntry::Replica(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::types::CoreId;

    #[test]
    fn home_entry_reports_directory_sharers() {
        let mut home = HomeEntry::new(4, ClassifierKind::Limited(3), 3);
        assert_eq!(home.l1_sharer_count(), 0);
        home.directory.handle_read(CoreId::new(1));
        home.directory.handle_read(CoreId::new(2));
        assert_eq!(home.l1_sharer_count(), 2);
        assert!(!home.dirty);
    }

    #[test]
    fn replica_entry_reuse_and_sharers() {
        let mut replica = ReplicaEntry::new(MesiState::Shared, 3);
        assert_eq!(replica.reuse.value(), 1, "creation counts as the first use");
        assert_eq!(replica.l1_sharer_count(), 1);
        assert!(!replica.dirty);
        assert_eq!(replica.record_hit(), 2);
        assert_eq!(replica.record_hit(), 3);
        assert_eq!(replica.record_hit(), 3, "saturates at RT");
        replica.l1_copy = false;
        assert_eq!(replica.l1_sharer_count(), 0);
    }

    #[test]
    fn modified_replicas_start_dirty() {
        let replica = ReplicaEntry::new(MesiState::Modified, 3);
        assert!(replica.dirty);
        let replica = ReplicaEntry::new(MesiState::Exclusive, 3);
        assert!(!replica.dirty);
    }

    #[test]
    fn llc_entry_accessors() {
        let mut entry = LlcEntry::Home(HomeEntry::new(4, ClassifierKind::Complete, 3));
        assert!(entry.is_home());
        assert!(!entry.is_replica());
        assert!(entry.as_home().is_some());
        assert!(entry.as_home_mut().is_some());
        assert!(entry.as_replica().is_none());
        assert_eq!(entry.l1_sharer_count(), 0);

        let entry = LlcEntry::Replica(ReplicaEntry::new(MesiState::Shared, 3));
        assert!(entry.is_replica());
        assert!(entry.as_replica().is_some());
        assert!(entry.as_home().is_none());
        assert_eq!(entry.l1_sharer_count(), 1);
    }
}
