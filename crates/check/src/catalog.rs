//! The shared invariant catalog.
//!
//! Every protocol invariant the checker knows about is a named member of
//! [`Invariant`].  The same catalog backs all three enforcement layers:
//!
//! * the exhaustive model exploration ([`crate::explore()`]) checks every
//!   reachable state of the step relation against the catalog and emits a
//!   minimal counterexample trace on violation;
//! * the runtime hooks in the timing engine (`lad-sim`) check the live
//!   simulator state against the same catalog every N steps of
//!   `run_source` (under `debug_assertions`);
//! * promoted engine assertions ([`require`] / [`violated`]) fail with the
//!   invariant's catalog name and a context string instead of an anonymous
//!   `assert!` message.

use std::fmt;

/// A named protocol (or API) invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// At most one core's cache hierarchy holds a writable (M/E) or dirty
    /// copy of a line, and while one does, no other core in the same
    /// coherence domain holds any valid copy.
    SingleWriterMultipleReader,
    /// The directory's exact sharer count equals the number of core
    /// hierarchies holding a valid copy, and outside global mode the
    /// tracked pointer set is exactly the holder set (the LLC is inclusive:
    /// no copy exists without its home entry tracking it, and no tracked
    /// core lacks a copy).
    DirectoryInclusion,
    /// A valid LLC replica implies a resident home entry that tracks the
    /// replica's core, and an M/E (or dirty) replica implies the home is in
    /// Exclusive state with that core as owner.
    ReplicaConsistentWithHome,
    /// The ACKwise sharer list never tracks more pointers than the hardware
    /// provides, keeps `count == tracked` outside global mode and
    /// `count > tracked` in global mode.
    AckwisePointerCapacity,
    /// The home state machine's shape: Uncached has no sharers and no
    /// owner; Shared has sharers and no owner; Exclusive has exactly one
    /// tracked sharer, the owner.
    HomeStateConsistent,
    /// Classifier and replica reuse counters saturate at the replication
    /// threshold, and the Limited_k classifier never tracks more than `k`
    /// cores.
    ClassifierCounterBound,
    /// An access stream may not span more cores than the simulated system
    /// has (the `Simulator::begin` / `Simulator::run` precondition).
    TraceCoreBound,
    /// The home entry for a line must stay resident in the home slice's LLC
    /// for the whole time the home is processing a request for that line.
    HomeResidentDuringRequest,
}

impl Invariant {
    /// Every invariant in the catalog.
    pub const ALL: [Invariant; 8] = [
        Invariant::SingleWriterMultipleReader,
        Invariant::DirectoryInclusion,
        Invariant::ReplicaConsistentWithHome,
        Invariant::AckwisePointerCapacity,
        Invariant::HomeStateConsistent,
        Invariant::ClassifierCounterBound,
        Invariant::TraceCoreBound,
        Invariant::HomeResidentDuringRequest,
    ];

    /// The invariant's stable kebab-case name (used in reports, CLI output
    /// and the coherence crate's entry-local checks).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::SingleWriterMultipleReader => "swmr",
            Invariant::DirectoryInclusion => "directory-inclusion",
            Invariant::ReplicaConsistentWithHome => "replica-consistent-with-home",
            Invariant::AckwisePointerCapacity => "ackwise-pointer-capacity",
            Invariant::HomeStateConsistent => "home-state-consistent",
            Invariant::ClassifierCounterBound => "classifier-counter-bound",
            Invariant::TraceCoreBound => "trace-core-bound",
            Invariant::HomeResidentDuringRequest => "home-resident-during-request",
        }
    }

    /// Resolves a catalog name back to the invariant.
    pub fn from_name(name: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|inv| inv.name() == name)
    }

    /// A one-line description for `lad-check` listings.
    pub fn description(self) -> &'static str {
        match self {
            Invariant::SingleWriterMultipleReader => {
                "a writable copy excludes every other valid copy in its domain"
            }
            Invariant::DirectoryInclusion => {
                "directory sharer tracking exactly mirrors the set of copy holders"
            }
            Invariant::ReplicaConsistentWithHome => {
                "every valid replica is backed by a home entry that tracks it"
            }
            Invariant::AckwisePointerCapacity => {
                "the ACKwise pointer list respects its hardware capacity and exact count"
            }
            Invariant::HomeStateConsistent => {
                "Uncached/Shared/Exclusive agree with the sharer list and owner"
            }
            Invariant::ClassifierCounterBound => {
                "reuse counters saturate at RT and Limited_k tracks at most k cores"
            }
            Invariant::TraceCoreBound => "an access stream fits the simulated core count",
            Invariant::HomeResidentDuringRequest => {
                "the home entry stays resident while its request is processed"
            }
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant was violated.
    pub invariant: Invariant,
    /// Human-readable context: the line, the cores and the states involved.
    pub details: String,
}

impl Violation {
    /// Creates a violation record.
    pub fn new(invariant: Invariant, details: impl Into<String>) -> Self {
        Violation {
            invariant,
            details: details.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.details)
    }
}

/// Panics with a catalog-formatted message: the promoted-assertion helper
/// for invariants whose violation leaves no way to continue.
#[track_caller]
pub fn violated(invariant: Invariant, details: &str) -> ! {
    panic!("protocol invariant violated [{invariant}]: {details}")
}

/// Checks a promoted assertion: panics through [`violated`] with the
/// invariant's catalog name when `condition` is false.  The context closure
/// is only evaluated on failure.
#[track_caller]
pub fn require(invariant: Invariant, condition: bool, details: impl FnOnce() -> String) {
    if !condition {
        violated(invariant, &details());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::from_name(inv.name()), Some(inv));
            assert!(!inv.description().is_empty());
            assert_eq!(inv.to_string(), inv.name());
        }
        assert_eq!(Invariant::from_name("nonsense"), None);
    }

    #[test]
    fn violation_display_carries_the_catalog_name() {
        let v = Violation::new(Invariant::DirectoryInclusion, "core 3 untracked");
        assert_eq!(v.to_string(), "[directory-inclusion] core 3 untracked");
    }

    #[test]
    fn require_passes_when_condition_holds() {
        require(Invariant::TraceCoreBound, true, || unreachable!());
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated [trace-core-bound]: 9 > 4")]
    fn require_panics_with_catalog_context() {
        require(Invariant::TraceCoreBound, false, || "9 > 4".to_string());
    }
}
