//! Plain-data snapshots of the cache models for checkpoint/resume.
//!
//! A [`CacheState`] captures one cache array — occupied slots with their
//! tags, LRU stamps and entries, the global LRU clock, and the hit / miss /
//! eviction counters — as ordinary vectors and integers, with no opinion on
//! how it is serialized.  The JSON encoding lives with the simulator's
//! checkpoint module so that this crate stays serialization-free.

use lad_common::stats::Counter;

use crate::l1::L1Cache;
use crate::llc_slice::LlcSlice;
use crate::replacement::SharerCount;
use crate::set_assoc::SetAssocCache;

/// Complete state of an [`L1Cache`] or [`LlcSlice`] holding entries of
/// type `V`.
///
/// Restoring a state into a cache built from the same configuration
/// reproduces every future lookup, LRU promotion, victim choice and
/// statistics value of the snapshotted cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheState<V> {
    /// Occupied slots as `(slot, tag, lru_stamp, entry)`, in slot order.
    pub slots: Vec<(usize, u64, u64, V)>,
    /// The array's global LRU clock.
    pub clock: u64,
    /// Lookup hits recorded so far.
    pub hits: u64,
    /// Lookup misses recorded so far.
    pub misses: u64,
    /// Evictions performed by fills so far.
    pub evictions: u64,
}

fn capture<V: Clone>(
    array: &SetAssocCache<V>,
    hits: u64,
    misses: u64,
    evictions: u64,
) -> CacheState<V> {
    CacheState {
        slots: array
            .slots()
            .map(|(slot, tag, stamp, value)| (slot, tag, stamp, value.clone()))
            .collect(),
        clock: array.clock(),
        hits,
        misses,
        evictions,
    }
}

/// Checks `state` against `array`'s geometry: every slot in range and in
/// the set its tag maps to.
fn check_fits<V>(array: &SetAssocCache<V>, state: &CacheState<V>) -> Result<(), String> {
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

fn replay<V>(array: &mut SetAssocCache<V>, state: &CacheState<V>) -> (Counter, Counter, Counter)
where
    V: Clone,
{
    array.clear();
    for (slot, tag, stamp, value) in &state.slots {
        array.restore_slot(*slot, *tag, *stamp, value.clone());
    }
    array.set_clock(state.clock);
    (
        Counter::from_value(state.hits),
        Counter::from_value(state.misses),
        Counter::from_value(state.evictions),
    )
}

impl<V: Clone> L1Cache<V> {
    /// Snapshots the cache for checkpointing.
    pub fn state(&self) -> CacheState<V> {
        capture(self.array(), self.hits(), self.misses(), self.evictions())
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
        let counters = replay(self.array_mut(), state);
        self.set_counters(counters.0, counters.1, counters.2);
    }
}

impl<V: SharerCount + Clone> LlcSlice<V> {
    /// Snapshots the slice for checkpointing.
    pub fn state(&self) -> CacheState<V> {
        capture(self.array(), self.hits(), self.misses(), self.evictions())
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
        let counters = replay(self.array_mut(), state);
        self.set_counters(counters.0, counters.1, counters.2);
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
    fn l1_state_roundtrip_preserves_behavior_and_counters() {
        let mut l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        for i in 0..6 {
            l1.fill(line(i), i as u8);
        }
        l1.access(line(0));
        l1.access(line(99));

        let state = l1.state();
        let mut restored: L1Cache<u8> = L1Cache::new(&config(), 64);
        restored.restore_state(&state);

        assert_eq!(restored.hits(), l1.hits());
        assert_eq!(restored.misses(), l1.misses());
        assert_eq!(restored.evictions(), l1.evictions());
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
}
