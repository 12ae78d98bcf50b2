//! One slice of the physically distributed, logically shared last-level
//! cache.
//!
//! Each tile owns a 256 KB, 8-way slice (Table 1).  A slice stores *home*
//! lines (lines whose directory entry lives here) and, under the
//! replication schemes, *replica* lines for the local core.  Both kinds of
//! entries carry metadata supplied by the protocol layer as the generic type
//! `V`; this module only manages geometry, recency, victim selection and
//! hit/miss accounting.
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
//! module and the snapshot code: every method takes and returns `V`/`&V`.

use lad_common::config::CacheConfig;
use lad_common::stats::Counter;
use lad_common::types::CacheLine;

use crate::replacement::{Boxed, EvictionPriority, PlainLru, SharerAwareLru, SharerCount};
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
    tag_latency: u32,
    data_latency: u32,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<V: SharerCount> LlcSlice<V> {
    /// Builds a slice from its configuration and line size, using the
    /// paper's sharer-aware replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not form whole power-of-two sets.
    pub fn new(config: &CacheConfig, line_bytes: usize) -> Self {
        Self::with_policy(config, line_bytes, LlcReplacementPolicy::SharerAwareLru)
    }

    /// Builds a slice with an explicit replacement policy.
    pub fn with_policy(
        config: &CacheConfig,
        line_bytes: usize,
        policy: LlcReplacementPolicy,
    ) -> Self {
        LlcSlice {
            array: SetAssocCache::new(config.num_sets(line_bytes), config.associativity),
            policy,
            tag_latency: config.tag_latency,
            data_latency: config.data_latency,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Latency of a tag-array lookup (e.g. a directory probe), in cycles.
    pub fn tag_latency(&self) -> u32 {
        self.tag_latency
    }

    /// Latency of a full tag + data access, in cycles.
    pub fn access_latency(&self) -> u32 {
        self.tag_latency + self.data_latency
    }

    /// The active replacement policy.
    pub fn replacement_policy(&self) -> LlcReplacementPolicy {
        self.policy
    }

    /// Looks up `line`, recording a hit or miss; returns its entry on a hit.
    pub fn access(&mut self, line: CacheLine) -> Option<&mut V> {
        // Single tag scan: get_mut both finds the way and promotes it.
        match self.array.get_mut(line) {
            Some(entry) => {
                self.hits.increment();
                Some(&mut **entry)
            }
            None => {
                self.misses.increment();
                None
            }
        }
    }

    /// Probes for `line` without statistics or LRU update (asynchronous
    /// coherence requests).
    pub fn probe(&self, line: CacheLine) -> Option<&V> {
        self.array.peek(line).map(|entry| &**entry)
    }

    /// Probes mutably without statistics or LRU update.
    pub fn probe_mut(&mut self, line: CacheLine) -> Option<&mut V> {
        self.array.peek_mut(line).map(|entry| &mut **entry)
    }

    /// Returns `true` if `line` is resident in this slice.
    pub fn contains(&self, line: CacheLine) -> bool {
        self.array.contains(line)
    }

    /// Inserts `line`, evicting a victim according to the active policy.
    /// Returns the evicted `(line, entry)` pair, if any.
    pub fn fill(&mut self, line: CacheLine, entry: V) -> Option<(CacheLine, V)> {
        match self.policy {
            LlcReplacementPolicy::SharerAwareLru => self.fill_with(line, entry, &SharerAwareLru),
            LlcReplacementPolicy::PlainLru => self.fill_with(line, entry, &PlainLru),
        }
    }

    /// Predicts the victim a [`LlcSlice::fill`] of `line` would evict without
    /// performing the fill.  `None` if the set has space or already holds
    /// `line`.
    pub fn victim_for(&self, line: CacheLine) -> Option<(CacheLine, &V)> {
        let victim = match self.policy {
            LlcReplacementPolicy::SharerAwareLru => {
                self.array.victim_for(line, &Boxed(&SharerAwareLru))
            }
            LlcReplacementPolicy::PlainLru => self.array.victim_for(line, &Boxed(&PlainLru)),
        };
        victim.map(|(line, entry)| (line, &**entry))
    }

    /// Removes `line` (invalidation or replacement elsewhere), returning its
    /// entry if it was resident.
    pub fn invalidate(&mut self, line: CacheLine) -> Option<V> {
        self.array.remove(line).map(|entry| *entry)
    }

    /// Empties the slice and zeroes its hit, miss and eviction counters,
    /// leaving it indistinguishable from a newly built one.  Only resident
    /// ways are written.
    pub fn clear(&mut self) {
        self.array.clear();
        self.set_counters(Counter::new(), Counter::new(), Counter::new());
    }

    /// Number of lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Number of lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Number of fills that evicted a victim.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
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

    /// Occupancy as a fraction of capacity in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.array.len() as f64 / self.array.capacity() as f64
    }

    /// Iterates over resident `(line, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CacheLine, &V)> {
        self.array.iter().map(|(line, entry)| (line, &**entry))
    }

    /// Iterates mutably over resident `(line, entry)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (CacheLine, &mut V)> {
        self.array
            .iter_mut()
            .map(|(line, entry)| (line, &mut **entry))
    }

    /// Inserts with an arbitrary policy (used by unit tests and the
    /// replacement-policy ablation study).
    pub fn fill_with<P>(&mut self, line: CacheLine, entry: V, policy: &P) -> Option<(CacheLine, V)>
    where
        P: EvictionPriority<V> + ?Sized,
    {
        let evicted = self.array.insert(line, Box::new(entry), &Boxed(policy));
        if evicted.is_some() {
            self.evictions.increment();
        }
        evicted.map(|(line, entry)| (line, *entry))
    }

    pub(crate) fn array(&self) -> &SetAssocCache<Box<V>> {
        &self.array
    }

    pub(crate) fn array_mut(&mut self) -> &mut SetAssocCache<Box<V>> {
        &mut self.array
    }

    pub(crate) fn set_counters(&mut self, hits: Counter, misses: Counter, evictions: Counter) {
        self.hits = hits;
        self.misses = misses;
        self.evictions = evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Entry {
        sharers: usize,
        tag: u32,
    }

    impl SharerCount for Entry {
        fn l1_sharer_count(&self) -> usize {
            self.sharers
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
        Entry { sharers, tag }
    }

    #[test]
    fn latencies_match_config() {
        let slice: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        assert_eq!(slice.tag_latency(), 2);
        assert_eq!(slice.access_latency(), 6);
        assert_eq!(slice.capacity(), 16);
        assert_eq!(
            slice.replacement_policy(),
            LlcReplacementPolicy::SharerAwareLru
        );
    }

    #[test]
    fn access_and_probe_accounting() {
        let mut slice = LlcSlice::new(&config(), 64);
        assert!(slice.access(line(0)).is_none());
        slice.fill(line(0), entry(0, 1));
        assert!(slice.access(line(0)).is_some());
        assert!(slice.probe(line(0)).is_some());
        assert_eq!(slice.hits(), 1);
        assert_eq!(slice.misses(), 1);
        slice.probe_mut(line(0)).unwrap().tag = 9;
        assert_eq!(slice.probe(line(0)).unwrap().tag, 9);
    }

    #[test]
    fn sharer_aware_default_prefers_keeping_shared_lines() {
        let mut slice = LlcSlice::new(&config(), 64);
        // All map to set 0: lines 0, 4, 8, 12, 16 with 4 sets.
        slice.fill(line(0), entry(2, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), entry(3, 8));
        slice.fill(line(12), entry(1, 12));
        // Touch the sharer-free line to make it MRU; it must still be evicted.
        slice.access(line(4));
        let (victim, _) = slice.fill(line(16), entry(0, 16)).expect("eviction");
        assert_eq!(victim, line(4));
        assert_eq!(slice.evictions(), 1);
    }

    #[test]
    fn plain_lru_policy_evicts_by_recency_only() {
        let mut slice = LlcSlice::with_policy(&config(), 64, LlcReplacementPolicy::PlainLru);
        slice.fill(line(0), entry(2, 0));
        slice.fill(line(4), entry(0, 4));
        slice.fill(line(8), entry(3, 8));
        slice.fill(line(12), entry(1, 12));
        slice.access(line(0)); // line 4 becomes LRU
        let (victim, _) = slice.fill(line(16), entry(0, 16)).expect("eviction");
        assert_eq!(victim, line(4));
        // but if we touch 4 and not 0, plain LRU evicts 0 even though it has sharers
        let mut slice = LlcSlice::with_policy(&config(), 64, LlcReplacementPolicy::PlainLru);
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
        let mut slice = LlcSlice::new(&config(), 64);
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
        let mut slice = LlcSlice::new(&config(), 64);
        slice.fill(line(1), entry(0, 1));
        slice.fill(line(2), entry(0, 2));
        assert_eq!(slice.len(), 2);
        assert!((slice.occupancy() - 2.0 / 16.0).abs() < 1e-12);
        assert_eq!(slice.invalidate(line(1)), Some(entry(0, 1)));
        assert_eq!(slice.invalidate(line(1)), None);
        assert_eq!(slice.len(), 1);
        assert!(!slice.is_empty());
        assert_eq!(slice.iter().count(), 1);
        for (_, e) in slice.iter_mut() {
            e.sharers += 1;
        }
        assert_eq!(slice.probe(line(2)).unwrap().sharers, 1);
    }
}
