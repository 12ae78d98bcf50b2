//! The ACKwise limited-pointer sharer list.
//!
//! ACKwise_p (Kurian et al., PACT 2010) tracks up to `p` sharers exactly.
//! When a line acquires more sharers than pointers the entry switches to a
//! *global* mode that only maintains the sharer count; invalidations are then
//! broadcast, but because the count is exact the home still knows how many
//! acknowledgements to expect — this is what keeps the protocol correct
//! without a full bit-vector.

use std::fmt;

use lad_common::types::CoreId;

/// Who must be sent invalidations for a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidationTargets {
    /// Send individual invalidations to exactly these cores.
    Exact(Vec<CoreId>),
    /// Broadcast to every core (global mode); `expected_acks` gives the
    /// number of acknowledgements the home must collect.
    Broadcast {
        /// Number of cores that actually hold a copy and will acknowledge.
        expected_acks: usize,
    },
}

impl InvalidationTargets {
    /// Number of cores that will acknowledge the invalidation.
    pub fn expected_acks(&self) -> usize {
        match self {
            InvalidationTargets::Exact(cores) => cores.len(),
            InvalidationTargets::Broadcast { expected_acks } => *expected_acks,
        }
    }
}

/// Hardware pointer budgets up to this size are stored inline in the
/// directory entry, so creating or dropping an entry costs no heap traffic
/// (one entry is created per LLC fill — a very hot path).  Larger budgets
/// fall back to a heap vector.
const INLINE_POINTERS: usize = 8;

/// Backing store for the pointer list: a fixed inline array for the common
/// small budgets (ACKwise_p with p ≤ 8), a heap vector beyond that.
#[derive(Clone)]
enum Pointers {
    Inline {
        slots: [CoreId; INLINE_POINTERS],
        len: u8,
    },
    Heap(Vec<CoreId>),
}

impl Pointers {
    fn new(max_pointers: usize) -> Self {
        if max_pointers <= INLINE_POINTERS {
            Pointers::Inline {
                slots: [CoreId::new(0); INLINE_POINTERS],
                len: 0,
            }
        } else {
            Pointers::Heap(Vec::with_capacity(max_pointers))
        }
    }

    fn as_slice(&self) -> &[CoreId] {
        match self {
            Pointers::Inline { slots, len } => &slots[..*len as usize],
            Pointers::Heap(v) => v,
        }
    }

    /// Appends `core`; the caller guarantees the budget has room.
    fn push(&mut self, core: CoreId) {
        match self {
            Pointers::Inline { slots, len } => {
                slots[*len as usize] = core;
                *len += 1;
            }
            Pointers::Heap(v) => v.push(core),
        }
    }

    fn swap_remove(&mut self, pos: usize) {
        match self {
            Pointers::Inline { slots, len } => {
                *len -= 1;
                slots[pos] = slots[*len as usize];
            }
            Pointers::Heap(v) => {
                v.swap_remove(pos);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Pointers::Inline { len, .. } => *len = 0,
            Pointers::Heap(v) => v.clear(),
        }
    }
}

impl fmt::Debug for Pointers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for Pointers {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Pointers {}

/// A limited-pointer sharer list with `p` hardware pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckwiseSharers {
    pointers: Pointers,
    max_pointers: usize,
    /// In global mode the pointer list is no longer exhaustive; only the
    /// count below is meaningful.
    global: bool,
    /// Exact number of sharers (maintained in both modes).
    count: usize,
}

impl AckwiseSharers {
    /// Creates an empty sharer list with `max_pointers` hardware pointers.
    ///
    /// # Panics
    ///
    /// Panics if `max_pointers` is zero.
    pub fn new(max_pointers: usize) -> Self {
        assert!(max_pointers > 0, "ACKwise needs at least one pointer");
        AckwiseSharers {
            pointers: Pointers::new(max_pointers),
            max_pointers,
            global: false,
            count: 0,
        }
    }

    /// Number of hardware pointers.
    pub fn max_pointers(&self) -> usize {
        self.max_pointers
    }

    /// Exact number of sharers.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` if no core holds a copy.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` if the entry has overflowed into global (broadcast) mode.
    pub fn is_global(&self) -> bool {
        self.global
    }

    /// `true` if `core` is *known* to be a sharer.  In global mode this can
    /// return `false` for an actual sharer whose pointer was dropped; the
    /// protocol treats "unknown" conservatively.
    pub fn is_tracked_sharer(&self, core: CoreId) -> bool {
        self.pointers.as_slice().contains(&core)
    }

    /// Adds `core` as a sharer (idempotent).
    pub fn add(&mut self, core: CoreId) {
        if self.pointers.as_slice().contains(&core) {
            return;
        }
        if self.global {
            // Count it; pointers are best-effort in global mode.
            self.count += 1;
            if self.pointers.as_slice().len() < self.max_pointers {
                self.pointers.push(core);
            }
            return;
        }
        if self.pointers.as_slice().len() < self.max_pointers {
            self.pointers.push(core);
            self.count += 1;
        } else {
            // Overflow: switch to global mode.
            self.global = true;
            self.count += 1;
        }
    }

    /// Removes `core` from the sharer list (e.g. on an eviction
    /// notification).  Unknown cores in global mode still decrement the
    /// count, because the home only learns about them through their
    /// acknowledgements.
    pub fn remove(&mut self, core: CoreId) {
        if let Some(pos) = self.pointers.as_slice().iter().position(|c| *c == core) {
            self.pointers.swap_remove(pos);
            self.count = self.count.saturating_sub(1);
        } else if self.global && self.count > 0 {
            self.count -= 1;
        }
        if self.count <= self.pointers.as_slice().len() {
            // All remaining sharers are tracked again; leave global mode.
            self.global = false;
        }
        if self.count == 0 {
            self.global = false;
            self.pointers.clear();
        }
    }

    /// Clears the list (all copies invalidated and acknowledged).
    pub fn clear(&mut self) {
        self.pointers.clear();
        self.global = false;
        self.count = 0;
    }

    /// The tracked sharers (exhaustive unless [`AckwiseSharers::is_global`]).
    pub fn tracked(&self) -> &[CoreId] {
        self.pointers.as_slice()
    }

    /// Rebuilds a list from checkpointed parts: the tracked pointers
    /// verbatim (order is immaterial, but global-mode pointers are
    /// best-effort and must round-trip exactly), the mode flag and the exact
    /// sharer count.
    ///
    /// # Panics
    ///
    /// Panics if the parts violate the list's invariants (more pointers
    /// than the budget, count inconsistent with the mode) — see
    /// [`AckwiseSharers::local_invariant_error`].
    pub fn from_parts(max_pointers: usize, tracked: &[CoreId], global: bool, count: usize) -> Self {
        assert!(max_pointers > 0, "ACKwise needs at least one pointer");
        let mut pointers = Pointers::new(max_pointers);
        for &core in tracked {
            assert!(
                !pointers.as_slice().contains(&core),
                "duplicate tracked sharer {core:?}"
            );
            assert!(
                pointers.as_slice().len() < max_pointers,
                "{} tracked sharers exceed the {max_pointers}-pointer budget",
                tracked.len()
            );
            pointers.push(core);
        }
        let sharers = AckwiseSharers {
            pointers,
            max_pointers,
            global,
            count,
        };
        if let Some((name, details)) = sharers.local_invariant_error() {
            panic!("checkpointed sharer list violates [{name}]: {details}");
        }
        sharers
    }

    /// Checks the list's local invariants (the `ackwise-pointer-capacity`
    /// member of the `lad-check` catalog): the pointer list never exceeds
    /// the hardware pointer budget, `count == tracked` outside global mode
    /// and `count > tracked` in global mode (a global entry by definition
    /// has untracked sharers).
    ///
    /// Returns the catalog name and a description of the first violated
    /// invariant, or `None` when the state is consistent.
    pub fn local_invariant_error(&self) -> Option<(&'static str, String)> {
        if self.pointers.as_slice().len() > self.max_pointers {
            return Some((
                "ackwise-pointer-capacity",
                format!(
                    "{} pointers tracked but only {} exist",
                    self.pointers.as_slice().len(),
                    self.max_pointers
                ),
            ));
        }
        if !self.global && self.count != self.pointers.as_slice().len() {
            return Some((
                "ackwise-pointer-capacity",
                format!(
                    "exact mode but count {} != {} tracked pointers",
                    self.count,
                    self.pointers.as_slice().len()
                ),
            ));
        }
        if self.global && self.count <= self.pointers.as_slice().len() {
            return Some((
                "ackwise-pointer-capacity",
                format!(
                    "global mode but count {} fits the {} tracked pointers",
                    self.count,
                    self.pointers.as_slice().len()
                ),
            ));
        }
        None
    }

    /// Computes who must be invalidated to give `requester` exclusive
    /// ownership.  The requester itself is never included.
    pub fn invalidation_targets(&self, requester: CoreId) -> InvalidationTargets {
        if self.global {
            let holds_copy =
                self.is_tracked_sharer(requester) || self.count > self.pointers.as_slice().len();
            let expected = if holds_copy && self.is_tracked_sharer(requester) {
                self.count - 1
            } else if self.count > 0 && !self.is_tracked_sharer(requester) {
                // Requester may or may not be among the untracked sharers; the
                // home waits for count acks minus one if the requester turns
                // out to hold a copy.  Conservatively expect all non-requester
                // sharers: the requester's own copy is upgraded, not
                // invalidated, and it does not acknowledge.
                self.count
            } else {
                self.count
            };
            InvalidationTargets::Broadcast {
                expected_acks: expected,
            }
        } else {
            InvalidationTargets::Exact(
                self.pointers
                    .as_slice()
                    .iter()
                    .copied()
                    .filter(|c| *c != requester)
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    #[should_panic(expected = "at least one pointer")]
    fn zero_pointers_rejected() {
        AckwiseSharers::new(0);
    }

    #[test]
    fn add_and_remove_within_pointer_budget() {
        let mut s = AckwiseSharers::new(4);
        assert!(s.is_empty());
        for i in 0..4 {
            s.add(core(i));
        }
        assert_eq!(s.count(), 4);
        assert!(!s.is_global());
        assert!(s.is_tracked_sharer(core(2)));
        // Idempotent add.
        s.add(core(2));
        assert_eq!(s.count(), 4);
        s.remove(core(2));
        assert_eq!(s.count(), 3);
        assert!(!s.is_tracked_sharer(core(2)));
        s.remove(core(2));
        assert_eq!(s.count(), 3, "removing a non-sharer changes nothing");
    }

    #[test]
    fn overflow_enters_global_mode_with_exact_count() {
        let mut s = AckwiseSharers::new(4);
        for i in 0..6 {
            s.add(core(i));
        }
        assert!(s.is_global());
        assert_eq!(s.count(), 6);
        assert_eq!(s.max_pointers(), 4);
        assert_eq!(s.tracked().len(), 4);
    }

    #[test]
    fn global_mode_invalidation_is_broadcast() {
        let mut s = AckwiseSharers::new(2);
        for i in 0..5 {
            s.add(core(i));
        }
        let targets = s.invalidation_targets(core(0));
        match targets {
            InvalidationTargets::Broadcast { expected_acks } => {
                // Core 0 is tracked, so it is excluded from the acks.
                assert_eq!(expected_acks, 4);
            }
            other => panic!("expected broadcast, got {other:?}"),
        }
    }

    #[test]
    fn exact_mode_invalidation_excludes_requester() {
        let mut s = AckwiseSharers::new(4);
        s.add(core(1));
        s.add(core(2));
        s.add(core(3));
        let targets = s.invalidation_targets(core(2));
        match &targets {
            InvalidationTargets::Exact(cores) => {
                assert_eq!(cores.len(), 2);
                assert!(!cores.contains(&core(2)));
            }
            other => panic!("expected exact, got {other:?}"),
        }
        assert_eq!(targets.expected_acks(), 2);
    }

    #[test]
    fn global_mode_clears_when_sharers_drop() {
        let mut s = AckwiseSharers::new(2);
        for i in 0..4 {
            s.add(core(i));
        }
        assert!(s.is_global());
        // Remove untracked + tracked sharers until count fits in pointers.
        s.remove(core(3));
        s.remove(core(2));
        assert!(!s.is_global(), "count {} fits in pointers again", s.count());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.is_global());
    }

    #[test]
    fn from_parts_roundtrips_both_modes() {
        // Exact mode.
        let mut s = AckwiseSharers::new(4);
        for i in 0..3 {
            s.add(core(i));
        }
        let rebuilt =
            AckwiseSharers::from_parts(s.max_pointers(), s.tracked(), s.is_global(), s.count());
        assert_eq!(rebuilt, s);
        // Global mode keeps best-effort pointers verbatim.
        let mut s = AckwiseSharers::new(2);
        for i in 0..5 {
            s.add(core(i));
        }
        assert!(s.is_global());
        let rebuilt =
            AckwiseSharers::from_parts(s.max_pointers(), s.tracked(), s.is_global(), s.count());
        assert_eq!(rebuilt, s);
        // The rebuilt list behaves identically afterwards.
        s.remove(core(1));
        let mut r = rebuilt;
        r.remove(core(1));
        assert_eq!(r, s);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn from_parts_rejects_inconsistent_state() {
        // Exact mode whose count disagrees with the tracked list.
        AckwiseSharers::from_parts(4, &[core(0)], false, 3);
    }

    #[test]
    fn count_never_goes_negative() {
        let mut s = AckwiseSharers::new(2);
        s.add(core(0));
        s.remove(core(0));
        s.remove(core(1));
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
    }
}
