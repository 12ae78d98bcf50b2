//! Private L1 cache model (instruction or data).
//!
//! The L1 caches of the paper's target are small (16 KB I / 32 KB D, 4-way,
//! 1-cycle) write-back caches kept coherent by the directory in the LLC.  The
//! model is a [`SetAssocCache`] with geometry taken from a
//! [`CacheConfig`].

use lad_common::config::CacheConfig;
use lad_common::types::CacheLine;

use crate::replacement::PlainLru;
use crate::set_assoc::SetAssocCache;

/// A private L1 cache holding per-line state of type `V` (the coherence
/// state is supplied by the protocol layer).
#[derive(Debug, Clone)]
pub struct L1Cache<V> {
    array: SetAssocCache<V>,
    access_latency: u32,
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
        }
    }

    /// Access latency in cycles (tag + data).
    pub fn access_latency(&self) -> u32 {
        self.access_latency
    }

    /// Looks up `line`, promoting it to most recently used, and returns a
    /// mutable reference to its state on a hit.
    pub fn access(&mut self, line: CacheLine) -> Option<&mut V> {
        self.array.get_mut(line)
    }

    /// Probes for `line` without touching LRU state (used by asynchronous
    /// coherence requests: invalidations, downgrades).
    pub fn probe(&self, line: CacheLine) -> Option<&V> {
        self.array.peek(line)
    }

    /// Probes mutably without an LRU update.
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
        self.array.insert(line, state, &PlainLru)
    }

    /// Invalidates `line`, returning its state if it was resident.
    pub fn invalidate(&mut self, line: CacheLine) -> Option<V> {
        self.array.remove(line)
    }

    /// Empties the cache, leaving it indistinguishable from a newly built
    /// one.  Only resident lines are written.
    pub fn clear(&mut self) {
        self.array.clear();
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
    fn access_promotes_to_mru() {
        let mut l1 = L1Cache::new(&config(), 64);
        assert!(l1.access(line(0)).is_none());
        // Lines 0, 4, 8 all map to set 0 (4 sets, 2 ways).
        l1.fill(line(0), 0u8);
        l1.fill(line(4), 4u8);
        assert_eq!(l1.access(line(0)), Some(&mut 0));
        // The hit made line 0 MRU, so the next fill evicts line 4.
        assert_eq!(l1.fill(line(8), 8), Some((line(4), 4)));
    }

    #[test]
    fn probe_does_not_promote() {
        let mut l1 = L1Cache::new(&config(), 64);
        l1.fill(line(0), 0u8);
        l1.fill(line(4), 4u8);
        assert_eq!(l1.probe(line(0)), Some(&0));
        assert!(l1.probe(line(2)).is_none());
        *l1.probe_mut(line(0)).unwrap() = 9;
        assert_eq!(l1.probe(line(0)), Some(&9));
        // Neither probe touched recency: line 0 is still the LRU victim.
        assert_eq!(l1.fill(line(8), 8), Some((line(0), 9)));
    }

    #[test]
    fn fill_evicts_lru() {
        let mut l1 = L1Cache::new(&config(), 64);
        // Lines 0, 4, 8 all map to set 0 (4 sets, 2 ways).
        assert!(l1.fill(line(0), 0u8).is_none());
        assert!(l1.fill(line(4), 4u8).is_none());
        let victim = l1.fill(line(8), 8u8).expect("eviction");
        assert_eq!(victim, (line(0), 0u8));
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
