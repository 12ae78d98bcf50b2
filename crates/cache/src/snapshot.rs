//! Plain-data snapshots of the cache models for checkpoint/resume.
//!
//! A [`CacheState`] captures one cache array — occupied slots with their
//! tags, LRU stamps and entries, and the global LRU clock — as ordinary
//! vectors and integers, with no opinion on how it is serialized.  The JSON
//! encoding lives with the simulator's checkpoint module so that this crate
//! stays serialization-free.
//!
//! A state always carries plain `V` entries, whatever form the array
//! stores them in (the LLC slice boxes its entries), so the checkpoint
//! codec never sees how a cache lays out its memory.

use std::borrow::Borrow;

use crate::l1::L1Cache;
use crate::llc_slice::LlcSlice;
use crate::replacement::SharerCount;
use crate::set_assoc::SetAssocCache;

/// Complete state of an [`L1Cache`] or [`LlcSlice`] holding entries of
/// type `V`.
///
/// Restoring a state into a cache built from the same configuration
/// reproduces every future lookup, LRU promotion and victim choice of the
/// snapshotted cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState<V> {
    /// Occupied slots as `(slot, tag, lru_stamp, entry)`, in slot order.
    pub slots: Vec<(usize, u64, u64, V)>,
    /// The array's global LRU clock.
    pub clock: u64,
}

/// Snapshots an array storing its entries as `S` (`V` itself or
/// `Box<V>`).
fn capture<S: Borrow<V>, V: Clone>(array: &SetAssocCache<S>) -> CacheState<V> {
    CacheState {
        slots: array
            .slots()
            .map(|(slot, tag, stamp, value)| (slot, tag, stamp, value.borrow().clone()))
            .collect(),
        clock: array.clock(),
    }
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
fn replay<S, V>(array: &mut SetAssocCache<S>, state: &CacheState<V>)
where
    S: From<V>,
    V: Clone,
{
    array.clear();
    for (slot, tag, stamp, value) in &state.slots {
        array.restore_slot(*slot, *tag, *stamp, S::from(value.clone()));
    }
    array.set_clock(state.clock);
}

impl<V: Clone> L1Cache<V> {
    /// Snapshots the cache for checkpointing.
    pub fn state(&self) -> CacheState<V> {
        capture(self.array())
    }

    /// Checks that a snapshot fits this cache's geometry — the condition
    /// under which [`L1Cache::restore_state`] cannot panic on slot indices.
    ///
    /// # Errors
    ///
    /// Describes the first slot outside the cache or outside its tag's set.
    pub fn check_state(&self, state: &CacheState<V>) -> Result<(), String> {
        check_fits(self.array(), state)
    }

    /// Restores a snapshot taken from a cache with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if a slot index falls outside this cache's geometry or the
    /// snapshot is internally inconsistent (duplicate slots, stale clock).
    pub fn restore_state(&mut self, state: &CacheState<V>) {
        replay(self.array_mut(), state);
    }
}

impl<V: SharerCount + Clone> LlcSlice<V> {
    /// Snapshots the slice for checkpointing.
    pub fn state(&self) -> CacheState<V> {
        capture(self.array())
    }

    /// Checks that a snapshot fits this slice's geometry — the condition
    /// under which [`LlcSlice::restore_state`] cannot panic on slot indices.
    ///
    /// # Errors
    ///
    /// Describes the first slot outside the slice or outside its tag's set.
    pub fn check_state(&self, state: &CacheState<V>) -> Result<(), String> {
        check_fits(self.array(), state)
    }

    /// Restores a snapshot taken from a slice with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if a slot index falls outside this slice's geometry or the
    /// snapshot is internally inconsistent (duplicate slots, stale clock).
    pub fn restore_state(&mut self, state: &CacheState<V>) {
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

    #[test]
    fn l1_state_roundtrip_preserves_behavior() {
        let mut l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        for i in 0..6 {
            l1.fill(line(i), i as u8);
        }
        l1.access(line(0));
        l1.access(line(99));

        let state = l1.state();
        let mut restored: L1Cache<u8> = L1Cache::new(&config(), 64);
        restored.restore_state(&state);

        assert_eq!(restored.len(), l1.len());
        // Same future: the fill that overflows set 0 picks the same victim.
        assert_eq!(restored.fill(line(8), 8), l1.fill(line(8), 8));
        assert_eq!(restored.state(), l1.state());
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

        let state = slice.state();
        let mut restored: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        restored.restore_state(&state);

        let expect = slice.fill(line(8), Entry { sharers: 1 });
        let got = restored.fill(line(8), Entry { sharers: 1 });
        assert_eq!(expect, got);
        assert_eq!(got.map(|(victim, _)| victim), Some(line(4)));
        assert_eq!(restored.state(), slice.state());
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
        assert_eq!(l1.state(), L1Cache::new(&config(), 64).state());
        assert_eq!(slice.state(), LlcSlice::new(&config(), 64).state());
    }
}
