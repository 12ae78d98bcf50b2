//! Checkpoint support for the cache models.
//!
//! A checkpoint reads a cache through the borrowing [`L1Cache::slots`] /
//! [`LlcSlice::slots`] and their `clock`, so capturing one copies no entry.
//! A decoded checkpoint hands each cache back as a [`CacheState`] — the
//! occupied slots with their tags, LRU stamps and entries, and the global
//! LRU clock, as ordinary vectors and integers — which `restore_state`
//! consumes.  This crate stays serialization-free: the byte encoding lives
//! with the simulator's checkpoint module.
//!
//! Both directions carry plain `V` entries, whatever form the array stores
//! them in (the LLC slice boxes its entries), so the checkpoint codec never
//! sees how a cache lays out its memory.

use crate::l1::L1Cache;
use crate::llc_slice::LlcSlice;
use crate::replacement::SharerCount;
use crate::set_assoc::SetAssocCache;

/// Complete state of an [`L1Cache`] or [`LlcSlice`] holding entries of
/// type `V`, as a decoded checkpoint carries it.
///
/// Restoring a state into a cache built from the same configuration
/// reproduces every future lookup, LRU promotion and victim choice of the
/// checkpointed cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState<V> {
    /// Occupied slots as `(slot, tag, lru_stamp, entry)`, in slot order.
    pub slots: Vec<(usize, u64, u64, V)>,
    /// The array's global LRU clock.
    pub clock: u64,
}

/// Checks `state` against `array`'s geometry: every slot in range and in
/// the set its tag maps to.
fn check_fits<S, V>(array: &SetAssocCache<S>, state: &CacheState<V>) -> Result<(), String> {
    match state
        .slots
        .iter()
        .find(|(slot, tag, ..)| !array.slot_fits(*slot, *tag))
    {
        Some((slot, tag, ..)) => Err(format!(
            "slot {slot} of tag {tag:#x} does not fit {} sets of {} ways",
            array.num_sets(),
            array.associativity()
        )),
        None => Ok(()),
    }
}

/// Restores `state` into an array storing its entries as `S` (`V` itself
/// or `Box<V>`).
fn replay<S: From<V>, V>(array: &mut SetAssocCache<S>, state: CacheState<V>) {
    array.clear();
    for (slot, tag, stamp, value) in state.slots {
        array.restore_slot(slot, tag, stamp, S::from(value));
    }
    array.set_clock(state.clock);
}

impl<V> L1Cache<V> {
    /// The occupied slots as `(slot, tag, lru_stamp, entry)`, in slot
    /// order — with [`L1Cache::clock`], everything a checkpoint records of
    /// the cache.  The iterator yields exactly [`L1Cache::len`] items.
    pub fn slots(&self) -> impl Iterator<Item = (usize, u64, u64, &V)> {
        self.array().slots()
    }

    /// The array's global LRU clock.
    pub fn clock(&self) -> u64 {
        self.array().clock()
    }

    /// Checks that a state fits this cache's geometry — the condition
    /// under which [`L1Cache::restore_state`] cannot panic on slot indices.
    ///
    /// # Errors
    ///
    /// Describes the first slot outside the cache or outside its tag's set.
    pub fn check_state(&self, state: &CacheState<V>) -> Result<(), String> {
        check_fits(self.array(), state)
    }

    /// Restores the state of a cache with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if a slot index falls outside this cache's geometry or the
    /// state is internally inconsistent (duplicate slots, stale clock).
    pub fn restore_state(&mut self, state: CacheState<V>) {
        replay(self.array_mut(), state);
    }
}

impl<V: SharerCount> LlcSlice<V> {
    /// The occupied slots as `(slot, tag, lru_stamp, entry)`, in slot
    /// order — with [`LlcSlice::clock`], everything a checkpoint records of
    /// the slice.  The iterator yields exactly [`LlcSlice::len`] items.
    pub fn slots(&self) -> impl Iterator<Item = (usize, u64, u64, &V)> {
        self.array()
            .slots()
            .map(|(slot, tag, stamp, entry)| (slot, tag, stamp, &**entry))
    }

    /// The slice's global LRU clock.
    pub fn clock(&self) -> u64 {
        self.array().clock()
    }

    /// Checks that a state fits this slice's geometry — the condition
    /// under which [`LlcSlice::restore_state`] cannot panic on slot indices.
    ///
    /// # Errors
    ///
    /// Describes the first slot outside the slice or outside its tag's set.
    pub fn check_state(&self, state: &CacheState<V>) -> Result<(), String> {
        check_fits(self.array(), state)
    }

    /// Restores the state of a slice with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if a slot index falls outside this slice's geometry or the
    /// state is internally inconsistent (duplicate slots, stale clock).
    pub fn restore_state(&mut self, state: CacheState<V>) {
        replay(self.array_mut(), state);
    }
}

#[cfg(test)]
mod tests {
    use lad_common::config::CacheConfig;
    use lad_common::types::CacheLine;

    use super::*;

    fn line(i: u64) -> CacheLine {
        CacheLine::from_index(i)
    }

    fn config() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 8 * 64,
            associativity: 2,
            tag_latency: 1,
            data_latency: 1,
        }
    }

    /// What a checkpoint records of a cache: its LRU clock and occupied
    /// slots, copied out.
    fn state_of<'a, V: Clone + 'a>(
        clock: u64,
        slots: impl Iterator<Item = (usize, u64, u64, &'a V)>,
    ) -> CacheState<V> {
        CacheState {
            slots: slots
                .map(|(slot, tag, stamp, value)| (slot, tag, stamp, value.clone()))
                .collect(),
            clock,
        }
    }

    fn l1_state(l1: &L1Cache<u8>) -> CacheState<u8> {
        state_of(l1.clock(), l1.slots())
    }

    fn llc_state(slice: &LlcSlice<Entry>) -> CacheState<Entry> {
        state_of(slice.clock(), slice.slots())
    }

    #[test]
    fn l1_state_roundtrip_preserves_behavior() {
        let mut l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        for i in 0..6 {
            l1.fill(line(i), i as u8);
        }
        l1.access(line(0));
        l1.access(line(99));

        let state = l1_state(&l1);
        assert_eq!(state.slots.len(), l1.len());
        let mut restored: L1Cache<u8> = L1Cache::new(&config(), 64);
        restored.restore_state(state);

        assert_eq!(restored.len(), l1.len());
        // Same future: the fill that overflows set 0 picks the same victim.
        assert_eq!(restored.fill(line(8), 8), l1.fill(line(8), 8));
        assert_eq!(l1_state(&restored), l1_state(&l1));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        sharers: usize,
    }

    impl SharerCount for Entry {
        fn l1_sharer_count(&self) -> usize {
            self.sharers
        }
    }

    #[test]
    fn llc_state_roundtrip_preserves_sharer_aware_choice() {
        let mut slice: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        // 4 sets: lines 0, 4, 8 collide in set 0 (2 ways).
        slice.fill(line(0), Entry { sharers: 2 });
        slice.fill(line(4), Entry { sharers: 0 });
        slice.access(line(4)); // MRU but sharer-free

        let state = llc_state(&slice);
        assert_eq!(state.slots.len(), slice.len());
        let mut restored: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        restored.restore_state(state);

        let expect = slice.fill(line(8), Entry { sharers: 1 });
        let got = restored.fill(line(8), Entry { sharers: 1 });
        assert_eq!(expect, got);
        assert_eq!(got.map(|(victim, _)| victim), Some(line(4)));
        assert_eq!(llc_state(&restored), llc_state(&slice));
    }

    #[test]
    fn clear_returns_caches_to_their_built_state() {
        let mut l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        let mut slice: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        let mut evictions = (0, 0);
        for i in 0..9 {
            evictions.0 += usize::from(l1.fill(line(i), i as u8).is_some());
            evictions.1 += usize::from(slice.fill(line(i), Entry { sharers: 0 }).is_some());
        }
        l1.access(line(8));
        l1.access(line(99));
        slice.access(line(8));
        slice.access(line(99));
        assert!(evictions.0 > 0 && evictions.1 > 0, "{evictions:?}");

        l1.clear();
        slice.clear();
        // Entries, stamps and clock match a new cache.
        assert_eq!(l1_state(&l1), l1_state(&L1Cache::new(&config(), 64)));
        assert_eq!(llc_state(&slice), llc_state(&LlcSlice::new(&config(), 64)));
    }
}
