//! One slice of the physically distributed, logically shared last-level
//! cache.
//!
//! Each tile owns a 256 KB, 8-way slice (Table 1).  A slice stores *home*
//! lines (lines whose directory entry lives here) and, under the
//! replication schemes, *replica* lines for the local core.  Both kinds of
//! entries carry metadata supplied by the protocol layer as the generic type
//! `V`; this module only manages geometry, recency and victim selection.
//!
//! Victim selection uses the paper's sharer-aware modified-LRU policy by
//! default ([`SharerAwareLru`]) but can be switched to plain LRU to
//! reproduce the Section 4.2 comparison.
//!
//! # Memory
//!
//! An entry (directory, classifier and coherence metadata) is large, and a
//! short run touches a small fraction of a slice's 4096 ways.  So the slice
//! keeps its entries boxed: a vacant way costs its tag and stamp plus an
//! 8-byte null, and only resident entries own an allocation.  Building a
//! slice allocates those 24 bytes per way once; [`LlcSlice::clear`] writes
//! only the resident ways and frees their entries.  The box never leaves this
//! module: every method, the checkpoint ones included, takes and returns
//! `V`/`&V`.
//!
//! # Replica count
//!
//! The slice counts its resident replicas ([`SharerCount::is_replica`]), so
//! an invalidation round can skip the tag scan of a slice that holds none.
//! An entry enters or leaves a slice only through [`LlcSlice::fill`] (the
//! new entry, the evicted victim and an entry replaced in place),
//! [`LlcSlice::invalidate`], [`LlcSlice::clear`] and
//! [`LlcSlice::restore_slot`], and each keeps the count; an entry reached
//! through [`LlcSlice::access`] or [`LlcSlice::probe_mut`] may change, but
//! not from home to replica or back.

use lad_common::config::CacheConfig;
use lad_common::types::CacheLine;

use crate::replacement::{PlainLru, SharerAwareLru, SharerCount};
use crate::set_assoc::SetAssocCache;

/// Which victim-selection policy an LLC slice uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlcReplacementPolicy {
    /// The paper's modified LRU: fewest L1 sharers first, then LRU
    /// (Section 2.2.4).  This is the default.
    #[default]
    SharerAwareLru,
    /// Plain LRU, used as the comparison point in Section 4.2.
    PlainLru,
}

/// One LLC slice holding entries of type `V`.
///
/// `V` must expose its L1 sharer count (via [`SharerCount`]) so the
/// sharer-aware replacement policy can consult the in-cache directory.
#[derive(Debug, Clone)]
pub struct LlcSlice<V> {
    array: SetAssocCache<Box<V>>,
    policy: LlcReplacementPolicy,
    access_latency: u32,
    /// Resident entries whose [`SharerCount::is_replica`] is `true`.
    replicas: usize,
}

impl<V: SharerCount> LlcSlice<V> {
    /// Builds a slice from its configuration, line size and replacement
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not form whole power-of-two sets.
    pub fn new(config: &CacheConfig, line_bytes: usize, policy: LlcReplacementPolicy) -> Self {
        LlcSlice {
            array: SetAssocCache::new(config.num_sets(line_bytes), config.associativity),
            policy,
            access_latency: config.access_latency(),
            replicas: 0,
        }
    }

    /// Latency of a full tag + data access, in cycles.
    pub fn access_latency(&self) -> u32 {
        self.access_latency
    }

    /// The active replacement policy.
    pub fn replacement_policy(&self) -> LlcReplacementPolicy {
        self.policy
    }

    /// Looks up `line`, promoting it to most recently used; returns its
    /// entry on a hit.
    pub fn access(&mut self, line: CacheLine) -> Option<&mut V> {
        self.array.get_mut(line).map(|entry| &mut **entry)
    }

    /// Probes for `line` without an LRU update (asynchronous coherence
    /// requests).
    pub fn probe(&self, line: CacheLine) -> Option<&V> {
        self.array.peek(line).map(|entry| &**entry)
    }

    /// Probes mutably without an LRU update.
    pub fn probe_mut(&mut self, line: CacheLine) -> Option<&mut V> {
        self.array.peek_mut(line).map(|entry| &mut **entry)
    }

    /// Inserts `line`, evicting a victim according to the active policy.
    /// Returns the evicted `(line, entry)` pair, if any.
    pub fn fill(&mut self, line: CacheLine, entry: V) -> Option<(CacheLine, V)> {
        // A fill over a resident `line` drops its old entry unseen, so read
        // its kind first; without replicas it cannot be one.
        let replaced =
            self.replicas > 0 && self.array.peek(line).is_some_and(|old| old.is_replica());
        let added = entry.is_replica();
        let entry = Box::new(entry);
        let evicted = match self.policy {
            LlcReplacementPolicy::SharerAwareLru => self.array.insert(line, entry, &SharerAwareLru),
            LlcReplacementPolicy::PlainLru => self.array.insert(line, entry, &PlainLru),
        };
        let evicted_replica = evicted.as_ref().is_some_and(|(_, old)| old.is_replica());
        self.replicas = self.replicas + usize::from(added)
            - usize::from(replaced)
            - usize::from(evicted_replica);
        evicted.map(|(line, entry)| (line, *entry))
    }

    /// Predicts the victim a [`LlcSlice::fill`] of `line` would evict without
    /// performing the fill.  `None` if the set has space or already holds
    /// `line`.
    pub fn victim_for(&self, line: CacheLine) -> Option<(CacheLine, &V)> {
        let victim = match self.policy {
            LlcReplacementPolicy::SharerAwareLru => self.array.victim_for(line, &SharerAwareLru),
            LlcReplacementPolicy::PlainLru => self.array.victim_for(line, &PlainLru),
        };
        victim.map(|(line, entry)| (line, &**entry))
    }

    /// Removes `line` (invalidation or replacement elsewhere), returning its
    /// entry if it was resident.
    pub fn invalidate(&mut self, line: CacheLine) -> Option<V> {
        let entry = self.array.remove(line)?;
        self.replicas -= usize::from(entry.is_replica());
        Some(*entry)
    }

    /// Empties the slice, leaving it indistinguishable from a newly built
    /// one.  Only resident ways are written.
    pub fn clear(&mut self) {
        self.array.clear();
        self.replicas = 0;
    }

    /// Number of resident replica entries.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Returns `true` if the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.array.capacity()
    }

    /// Iterates over resident `(line, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CacheLine, &V)> {
        self.array.iter().map(|(line, entry)| (line, &**entry))
    }

    /// The occupied slots as `(slot, tag, lru_stamp, entry)`, in slot
    /// order — with [`LlcSlice::clock`], everything a checkpoint records of
    /// the slice, as [`SetAssocCache::slots`] is of an array.  The iterator
    /// yields exactly [`LlcSlice::len`] items.
    pub fn slots(&self) -> impl Iterator<Item = (usize, u64, u64, &V)> {
        self.array
            .slots()
            .map(|(slot, tag, stamp, entry)| (slot, tag, stamp, &**entry))
    }

    /// The slice's global LRU clock.
    pub fn clock(&self) -> u64 {
        self.array.clock()
    }

    /// Re-occupies one slot of a checkpointed slice with the same geometry,
    /// as [`SetAssocCache::restore_slot`] does for an array.
    ///
    /// # Errors
    ///
    /// Those of [`SetAssocCache::restore_slot`]; the slice is unchanged.
    pub fn restore_slot(
        &mut self,
        slot: usize,
        tag: u64,
        stamp: u64,
        entry: V,
    ) -> Result<(), String> {
        let replica = entry.is_replica();
        self.array.restore_slot(slot, tag, stamp, Box::new(entry))?;
        self.replicas += usize::from(replica);
        Ok(())
    }

    /// Restores the global LRU clock after the last slot.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is older than a resident stamp.
    pub fn set_clock(&mut self, clock: u64) {
        self.array.set_clock(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Entry {
        sharers: usize,
        tag: u32,
        replica: bool,
    }

    impl SharerCount for Entry {
        fn l1_sharer_count(&self) -> usize {
            self.sharers
        }

        fn is_replica(&self) -> bool {
            self.replica
        }
    }

    fn config() -> CacheConfig {
        // 16 lines, 4-way => 4 sets.
        CacheConfig {
            capacity_bytes: 16 * 64,
            associativity: 4,
            tag_latency: 2,
            data_latency: 4,
        }
    }

    fn line(i: u64) -> CacheLine {
        CacheLine::from_index(i)
    }

    fn entry(sharers: usize, tag: u32) -> Entry {
        Entry {
            sharers,
            tag,
            replica: false,
        }
    }

    fn replica(sharers: usize, tag: u32) -> Entry {
        Entry {
            replica: true,
            ..entry(sharers, tag)
        }
    }

    fn new_slice(policy: LlcReplacementPolicy) -> LlcSlice<Entry> {
        LlcSlice::new(&config(), 64, policy)
    }

    #[test]
    fn latencies_match_config() {
        let slice = new_slice(LlcReplacementPolicy::default());
        assert_eq!(slice.access_latency(), 6);
        assert_eq!(slice.capacity(), 16);
        assert_eq!(
            slice.replacement_policy(),
            LlcReplacementPolicy::SharerAwareLru
        );
    }

    #[test]
    fn access_and_probe_accounting() {
        let mut slice = new_slice(LlcReplacementPolicy::default());
        assert!(slice.access(line(0)).is_none());
        slice.fill(line(0), entry(0, 1));
        assert!(slice.access(line(0)).is_some());
        assert!(slice.probe(line(0)).is_some());
        slice.probe_mut(line(0)).unwrap().tag = 9;
        assert_eq!(slice.probe(line(0)).unwrap().tag, 9);
    }

    #[test]
    fn sharer_aware_default_prefers_keeping_shared_lines() {
        let mut slice = new_slice(LlcReplacementPolicy::default());
        // All map to set 0: lines 0, 4, 8, 12, 16 with 4 sets.
        slice.fill(line(0), entry(2, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), entry(3, 8));
        slice.fill(line(12), entry(1, 12));
        // Touch the sharer-free line to make it MRU; it must still be evicted.
        slice.access(line(4));
        let (victim, _) = slice.fill(line(16), entry(0, 16)).expect("eviction");
        assert_eq!(victim, line(4));
    }

    #[test]
    fn plain_lru_policy_evicts_by_recency_only() {
        let mut slice = new_slice(LlcReplacementPolicy::PlainLru);
        slice.fill(line(0), entry(2, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), entry(3, 8));
        slice.fill(line(12), entry(1, 12));
        slice.access(line(0)); // line 4 becomes LRU
        let (victim, _) = slice.fill(line(16), entry(0, 16)).expect("eviction");
        assert_eq!(victim, line(4));
        // but if we touch 4 and not 0, plain LRU evicts 0 even though it has sharers
        let mut slice = new_slice(LlcReplacementPolicy::PlainLru);
        slice.fill(line(0), entry(2, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), entry(3, 8));
        slice.fill(line(12), entry(1, 12));
        slice.access(line(4));
        slice.access(line(8));
        slice.access(line(12));
        let (victim, _) = slice.fill(line(16), entry(0, 16)).expect("eviction");
        assert_eq!(victim, line(0));
    }

    #[test]
    fn victim_prediction_matches_fill() {
        let mut slice = new_slice(LlcReplacementPolicy::default());
        for i in [0u64, 4, 8, 12] {
            slice.fill(line(i), entry((i % 3) as usize, i as u32));
        }
        let predicted = slice.victim_for(line(16)).map(|(l, _)| l).unwrap();
        let actual = slice.fill(line(16), entry(0, 16)).unwrap().0;
        assert_eq!(predicted, actual);
        assert!(slice.victim_for(line(16)).is_none(), "line now resident");
    }

    #[test]
    fn invalidate_and_occupancy() {
        let mut slice = new_slice(LlcReplacementPolicy::default());
        slice.fill(line(1), entry(0, 1));
        slice.fill(line(2), entry(0, 2));
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.invalidate(line(1)), Some(entry(0, 1)));
        assert_eq!(slice.invalidate(line(1)), None);
        assert_eq!(slice.len(), 1);
        assert!(!slice.is_empty());
        assert_eq!(slice.iter().count(), 1);
    }

    #[test]
    fn replica_count_follows_every_way_in_and_out() {
        let mut slice = new_slice(LlcReplacementPolicy::PlainLru);
        // Set 0 holds lines 0, 4, 8 and 12.
        slice.fill(line(0), replica(0, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), replica(0, 8));
        slice.fill(line(12), entry(0, 12));
        assert_eq!(slice.replicas(), 2);
        // The LRU victim, line 0, is a replica.
        assert_eq!(
            slice.fill(line(16), entry(0, 16)).map(|(l, _)| l),
            Some(line(0))
        );
        assert_eq!(slice.replicas(), 1);
        // In place: a replica over a home entry, then a home over a replica.
        slice.fill(line(4), replica(0, 4));
        assert_eq!(slice.replicas(), 2);
        slice.fill(line(8), entry(0, 8));
        assert_eq!(slice.replicas(), 1);
        assert_eq!(slice.invalidate(line(4)), Some(replica(0, 4)));
        assert_eq!(slice.replicas(), 0);
        slice.fill(line(1), replica(0, 1));
        let (clock, slots) = state(&slice);
        slice.clear();
        assert_eq!(slice.replicas(), 0);
        for (slot, tag, stamp, entry) in slots {
            slice.restore_slot(slot, tag, stamp, entry).unwrap();
        }
        slice.set_clock(clock);
        assert_eq!(slice.replicas(), 1);
    }

    /// What a checkpoint records of a slice: its LRU clock and occupied
    /// slots, copied out.
    fn state(slice: &LlcSlice<Entry>) -> (u64, Vec<(usize, u64, u64, Entry)>) {
        let slots = slice
            .slots()
            .map(|(slot, tag, stamp, entry)| (slot, tag, stamp, entry.clone()))
            .collect();
        (slice.clock(), slots)
    }

    #[test]
    fn llc_state_roundtrip_preserves_sharer_aware_choice() {
        let mut original = new_slice(LlcReplacementPolicy::SharerAwareLru);
        // Set 0 holds lines 0, 4, 8 and 12.
        for (i, sharers) in [(0, 2), (4, 0), (8, 3), (12, 1)] {
            original.fill(line(i), entry(sharers, i as u32));
        }
        original.access(line(4)); // MRU but sharer-free

        let (clock, slots) = state(&original);
        assert_eq!(slots.len(), original.len());
        let mut restored = new_slice(LlcReplacementPolicy::SharerAwareLru);
        // Line 5 belongs in set 1, so slot 1 is refused and nothing lands.
        assert!(restored.restore_slot(1, 5, 1, entry(0, 5)).is_err());
        assert!(restored.is_empty());
        for (slot, tag, stamp, entry) in slots {
            restored.restore_slot(slot, tag, stamp, entry).unwrap();
        }
        restored.set_clock(clock);

        let expect = original.fill(line(16), entry(1, 16));
        let got = restored.fill(line(16), entry(1, 16));
        assert_eq!(expect, got);
        assert_eq!(got.map(|(victim, _)| victim), Some(line(4)));
        assert_eq!(state(&restored), state(&original));
    }
}
