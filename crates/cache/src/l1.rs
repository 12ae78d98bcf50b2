//! Private L1 cache model (instruction or data).
//!
//! The L1 caches of the paper's target are small (16 KB I / 32 KB D, 4-way,
//! 1-cycle) write-back caches kept coherent by the directory in the LLC.  The
//! model is a [`SetAssocCache`] with geometry taken from a
//! [`CacheConfig`], plus hit/miss accounting.

use lad_common::config::CacheConfig;
use lad_common::stats::Counter;
use lad_common::types::CacheLine;

use crate::replacement::PlainLru;
use crate::set_assoc::SetAssocCache;

/// A private L1 cache holding per-line state of type `V` (the coherence
/// state is supplied by the protocol layer).
#[derive(Debug, Clone)]
pub struct L1Cache<V> {
    array: SetAssocCache<V>,
    access_latency: u32,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<V> L1Cache<V> {
    /// Builds an L1 cache from its configuration and the line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not form whole power-of-two sets.
    pub fn new(config: &CacheConfig, line_bytes: usize) -> Self {
        L1Cache {
            array: SetAssocCache::new(config.num_sets(line_bytes), config.associativity),
            access_latency: config.access_latency(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Access latency in cycles (tag + data).
    pub fn access_latency(&self) -> u32 {
        self.access_latency
    }

    /// Looks up `line`, recording a hit or a miss, and returns a mutable
    /// reference to its state on a hit.
    pub fn access(&mut self, line: CacheLine) -> Option<&mut V> {
        // Split the borrow: probe first, then touch.
        if self.array.contains(line) {
            self.hits.increment();
            self.array.get_mut(line)
        } else {
            self.misses.increment();
            None
        }
    }

    /// Probes for `line` without recording statistics or touching LRU state
    /// (used by asynchronous coherence requests: invalidations, downgrades).
    pub fn probe(&self, line: CacheLine) -> Option<&V> {
        self.array.peek(line)
    }

    /// Probes mutably without statistics / LRU update.
    pub fn probe_mut(&mut self, line: CacheLine) -> Option<&mut V> {
        self.array.peek_mut(line)
    }

    /// Returns `true` if `line` is resident.
    pub fn contains(&self, line: CacheLine) -> bool {
        self.array.contains(line)
    }

    /// Inserts `line`, evicting an LRU victim if necessary; the victim (with
    /// its state) is returned so the protocol can write it back / notify the
    /// directory.
    pub fn fill(&mut self, line: CacheLine, state: V) -> Option<(CacheLine, V)> {
        let evicted = self.array.insert(line, state, &PlainLru);
        if evicted.is_some() {
            self.evictions.increment();
        }
        evicted
    }

    /// Invalidates `line`, returning its state if it was resident.
    pub fn invalidate(&mut self, line: CacheLine) -> Option<V> {
        self.array.remove(line)
    }

    /// Empties the cache and zeroes its hit, miss and eviction counters,
    /// leaving it indistinguishable from a newly built one.  Only resident
    /// lines are written.
    pub fn clear(&mut self) {
        self.array.clear();
        self.set_counters(Counter::new(), Counter::new(), Counter::new());
    }

    /// Number of recorded hits.
    pub fn hits(&self) -> u64 {
        self.hits.value()
    }

    /// Number of recorded misses.
    pub fn misses(&self) -> u64 {
        self.misses.value()
    }

    /// Number of capacity/conflict evictions performed by fills.
    pub fn evictions(&self) -> u64 {
        self.evictions.value()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Returns `true` if the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.array.capacity()
    }

    /// Iterates over resident `(line, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CacheLine, &V)> {
        self.array.iter()
    }

    pub(crate) fn array(&self) -> &SetAssocCache<V> {
        &self.array
    }

    pub(crate) fn array_mut(&mut self) -> &mut SetAssocCache<V> {
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

    fn config() -> CacheConfig {
        // 8 lines, 2-way => 4 sets.
        CacheConfig {
            capacity_bytes: 8 * 64,
            associativity: 2,
            tag_latency: 0,
            data_latency: 1,
        }
    }

    fn line(i: u64) -> CacheLine {
        CacheLine::from_index(i)
    }

    #[test]
    fn geometry_from_config() {
        let l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        assert_eq!(l1.capacity(), 8);
        assert_eq!(l1.access_latency(), 1);
        assert!(l1.is_empty());
    }

    #[test]
    fn access_records_hits_and_misses() {
        let mut l1 = L1Cache::new(&config(), 64);
        assert!(l1.access(line(1)).is_none());
        l1.fill(line(1), 7u8);
        assert_eq!(l1.access(line(1)), Some(&mut 7));
        assert_eq!(l1.hits(), 1);
        assert_eq!(l1.misses(), 1);
    }

    #[test]
    fn probe_does_not_count() {
        let mut l1 = L1Cache::new(&config(), 64);
        l1.fill(line(1), 1u8);
        assert!(l1.probe(line(1)).is_some());
        assert!(l1.probe(line(2)).is_none());
        assert_eq!(l1.hits(), 0);
        assert_eq!(l1.misses(), 0);
        *l1.probe_mut(line(1)).unwrap() = 9;
        assert_eq!(l1.probe(line(1)), Some(&9));
    }

    #[test]
    fn fill_evicts_lru_and_counts() {
        let mut l1 = L1Cache::new(&config(), 64);
        // Lines 0, 4, 8 all map to set 0 (4 sets, 2 ways).
        assert!(l1.fill(line(0), 0u8).is_none());
        assert!(l1.fill(line(4), 4u8).is_none());
        let victim = l1.fill(line(8), 8u8).expect("eviction");
        assert_eq!(victim, (line(0), 0u8));
        assert_eq!(l1.evictions(), 1);
        assert!(l1.contains(line(4)));
        assert!(l1.contains(line(8)));
    }

    #[test]
    fn invalidate_removes_state() {
        let mut l1 = L1Cache::new(&config(), 64);
        l1.fill(line(3), 3u8);
        assert_eq!(l1.invalidate(line(3)), Some(3));
        assert_eq!(l1.invalidate(line(3)), None);
        assert!(!l1.contains(line(3)));
    }

    #[test]
    fn iter_covers_all_lines() {
        let mut l1 = L1Cache::new(&config(), 64);
        for i in 0..4 {
            l1.fill(line(i), i as u8);
        }
        assert_eq!(l1.iter().count(), 4);
        assert_eq!(l1.len(), 4);
    }
}
