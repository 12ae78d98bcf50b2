//! Checkpoint support for the cache models.
//!
//! A checkpoint reads a cache through the borrowing [`L1Cache::slots`] /
//! [`LlcSlice::slots`] and their `clock`, so capturing one copies no entry,
//! and writes one back through `restore_slot` for each occupied slot and
//! then `set_clock`, so restoring one builds no intermediate copy either.
//! This crate stays serialization-free: the byte encoding lives with the
//! simulator's checkpoint module.
//!
//! Both directions carry plain `V` entries, whatever form the array stores
//! them in (the LLC slice boxes its entries), so the checkpoint codec never
//! sees how a cache lays out its memory.

use lad_common::types::CacheLine;

use crate::l1::L1Cache;
use crate::llc_slice::LlcSlice;
use crate::replacement::SharerCount;
use crate::set_assoc::SetAssocCache;

/// Re-occupies `slot` of `array` once the pair fits: the slot exists, lies
/// in the set `tag` maps to, and that line is not resident yet.
fn restore_into<S>(
    array: &mut SetAssocCache<S>,
    slot: usize,
    tag: u64,
    stamp: u64,
    value: S,
) -> Result<(), String> {
    if !array.slot_fits(slot, tag) {
        return Err(format!(
            "slot {slot} of tag {tag:#x} does not fit {} sets of {} ways",
            array.num_sets(),
            array.associativity()
        ));
    }
    if array.contains(CacheLine::from_index(tag)) {
        return Err(format!("tag {tag:#x} is resident twice"));
    }
    array.restore_slot(slot, tag, stamp, value);
    Ok(())
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

    /// Re-occupies one slot of a checkpointed cache with the same
    /// geometry.  Restoring every slot of [`L1Cache::slots`] into a cleared
    /// cache, then [`L1Cache::set_clock`], reproduces every future lookup,
    /// LRU promotion and victim choice of the checkpointed cache.
    ///
    /// # Errors
    ///
    /// A slot outside the cache or outside its tag's set, or a tag already
    /// resident; the cache is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or `stamp` is `0`.
    pub fn restore_slot(
        &mut self,
        slot: usize,
        tag: u64,
        stamp: u64,
        value: V,
    ) -> Result<(), String> {
        restore_into(self.array_mut(), slot, tag, stamp, value)
    }

    /// Restores the global LRU clock after the last slot.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is older than a resident stamp.
    pub fn set_clock(&mut self, clock: u64) {
        self.array_mut().set_clock(clock);
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

    /// Re-occupies one slot of a checkpointed slice with the same
    /// geometry, as [`L1Cache::restore_slot`] does.
    ///
    /// # Errors
    ///
    /// A slot outside the slice or outside its tag's set, or a tag already
    /// resident; the slice is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied or `stamp` is `0`.
    pub fn restore_slot(
        &mut self,
        slot: usize,
        tag: u64,
        stamp: u64,
        value: V,
    ) -> Result<(), String> {
        restore_into(self.array_mut(), slot, tag, stamp, Box::new(value))
    }

    /// Restores the global LRU clock after the last slot.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is older than a resident stamp.
    pub fn set_clock(&mut self, clock: u64) {
        self.array_mut().set_clock(clock);
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
    type State<V> = (u64, Vec<(usize, u64, u64, V)>);

    fn state_of<'a, V: Clone + 'a>(
        clock: u64,
        slots: impl Iterator<Item = (usize, u64, u64, &'a V)>,
    ) -> State<V> {
        let slots = slots
            .map(|(slot, tag, stamp, value)| (slot, tag, stamp, value.clone()))
            .collect();
        (clock, slots)
    }

    fn l1_state(l1: &L1Cache<u8>) -> State<u8> {
        state_of(l1.clock(), l1.slots())
    }

    fn llc_state(slice: &LlcSlice<Entry>) -> State<Entry> {
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

        let (clock, slots) = l1_state(&l1);
        assert_eq!(slots.len(), l1.len());
        let mut restored: L1Cache<u8> = L1Cache::new(&config(), 64);
        for (slot, tag, stamp, state) in slots {
            restored.restore_slot(slot, tag, stamp, state).unwrap();
        }
        restored.set_clock(clock);

        assert_eq!(restored.len(), l1.len());
        // Same future: the fill that overflows set 0 picks the same victim.
        assert_eq!(restored.fill(line(8), 8), l1.fill(line(8), 8));
        assert_eq!(l1_state(&restored), l1_state(&l1));
    }

    #[test]
    fn restore_slot_rejects_slots_outside_the_geometry_and_twice_resident_tags() {
        // 4 sets of 2 ways: line 5 belongs in set 1, slots 2 and 3.
        let mut l1: L1Cache<u8> = L1Cache::new(&config(), 64);
        let err = l1.restore_slot(8, 5, 1, 0).unwrap_err();
        assert!(err.contains("does not fit 4 sets of 2 ways"), "{err}");
        assert!(
            l1.restore_slot(0, 5, 1, 0).is_err(),
            "set 0 is not line 5's"
        );
        l1.restore_slot(2, 5, 1, 0).unwrap();
        let err = l1.restore_slot(3, 5, 2, 0).unwrap_err();
        assert!(err.contains("resident twice"), "{err}");
        assert_eq!(l1.len(), 1);

        let mut slice: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        assert!(slice.restore_slot(1, 5, 1, Entry { sharers: 0 }).is_err());
        assert!(slice.is_empty());
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

        let (clock, slots) = llc_state(&slice);
        assert_eq!(slots.len(), slice.len());
        let mut restored: LlcSlice<Entry> = LlcSlice::new(&config(), 64);
        for (slot, tag, stamp, entry) in slots {
            restored.restore_slot(slot, tag, stamp, entry).unwrap();
        }
        restored.set_clock(clock);

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
