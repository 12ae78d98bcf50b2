//! A generic set-associative cache array with pluggable victim selection.

use lad_common::types::CacheLine;

use crate::replacement::EvictionPriority;

/// A set-associative cache array mapping [`CacheLine`]s to entries of type
/// `V`.
///
/// The array tracks LRU recency per set and delegates victim selection to an
/// [`EvictionPriority`] so that the LLC can implement the paper's
/// sharer-aware replacement policy (Section 2.2.4) without the array knowing
/// anything about directories.
///
/// Set indexing uses the low-order bits of the line index, exactly as a
/// hardware cache indexed by physical address would.
///
/// # Layout
///
/// Ways are stored struct-of-arrays style in three flat vectors (`tags`,
/// `stamps`, `values`), each `num_sets * associativity` long, with set `s`
/// occupying slots `s * associativity ..`.  Tag scans — the hot operation on
/// every simulated cache access — therefore touch a handful of contiguous
/// `u64`s instead of striding over full entries, and a slice never pays a
/// per-set heap indirection.  A slot is vacant iff its stamp is `0` (live
/// stamps come from a global tick that starts at `1`); vacant tags are reset
/// to `u64::MAX` so they cannot match a lookup early.
///
/// Memory: a slot costs its tag and stamp (16 bytes) plus an `Option<V>`,
/// whether or not it is occupied.  Building an array allocates every slot
/// once; [`SetAssocCache::clear`] writes only the occupied ones.  Callers whose
/// entries are large store them as `Box<V>`, so a vacant slot's value is an
/// 8-byte null and only resident entries own an allocation (the LLC slice
/// does this; the L1s keep their 1-byte coherence states inline).
///
/// Within-set slot order is immaterial to behavior: resident lines are
/// unique within a set, and LRU stamps are globally unique, so lookups and
/// victim selection (`min_by_key` over `(priority, stamp)`) are independent
/// of scan order.
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    /// Line index per slot; `u64::MAX` when vacant (occupancy is decided by
    /// `stamps`, the sentinel only prevents accidental tag matches).
    tags: Vec<u64>,
    /// Monotonically increasing timestamp of the last touch; larger = more
    /// recently used.  `0` marks a vacant slot.
    stamps: Vec<u64>,
    values: Vec<Option<V>>,
    associativity: usize,
    /// `num_sets - 1`; valid because the set count is a power of two, so
    /// indexing is a mask instead of a 64-bit modulo.
    set_mask: u64,
    /// Global LRU clock (shared across sets; only relative order within a set
    /// matters).  Starts at `0`, so the first stamp handed out is `1`.
    clock: u64,
    /// Number of resident lines.
    len: usize,
}

const VACANT_TAG: u64 = u64::MAX;

impl<V> SetAssocCache<V> {
    /// Creates an empty cache with `num_sets` sets of `associativity` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `associativity` is zero, or if `num_sets` is
    /// not a power of two (hardware caches index with address bits).
    pub fn new(num_sets: usize, associativity: usize) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(associativity > 0, "need at least one way");
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let slots = num_sets * associativity;
        SetAssocCache {
            tags: vec![VACANT_TAG; slots],
            stamps: vec![0; slots],
            values: (0..slots).map(|_| None).collect(),
            associativity,
            set_mask: num_sets as u64 - 1,
            clock: 0,
            len: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Ways per set.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Number of currently resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First slot of the set that `line` maps to.
    fn set_base(&self, line: CacheLine) -> usize {
        (line.index() & self.set_mask) as usize * self.associativity
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Slot holding `line`, or `None` on a miss.
    fn slot_of(&self, line: CacheLine) -> Option<usize> {
        let base = self.set_base(line);
        let tag = line.index();
        (base..base + self.associativity)
            .find(|&slot| self.tags[slot] == tag && self.stamps[slot] != 0)
    }

    /// Returns a reference to the entry for `line` and promotes it to
    /// most-recently-used, or `None` on a miss.
    pub fn get(&mut self, line: CacheLine) -> Option<&V> {
        let slot = self.slot_of(line)?;
        self.stamps[slot] = self.tick();
        self.values[slot].as_ref()
    }

    /// Returns a mutable reference to the entry for `line` and promotes it to
    /// most-recently-used, or `None` on a miss.
    pub fn get_mut(&mut self, line: CacheLine) -> Option<&mut V> {
        let slot = self.slot_of(line)?;
        self.stamps[slot] = self.tick();
        self.values[slot].as_mut()
    }

    /// Returns a reference to the entry for `line` *without* updating the LRU
    /// state (a probe, e.g. an asynchronous coherence lookup).
    pub fn peek(&self, line: CacheLine) -> Option<&V> {
        self.values[self.slot_of(line)?].as_ref()
    }

    /// Returns a mutable reference to the entry for `line` without updating
    /// the LRU state.
    pub fn peek_mut(&mut self, line: CacheLine) -> Option<&mut V> {
        let slot = self.slot_of(line)?;
        self.values[slot].as_mut()
    }

    /// Returns `true` if `line` is resident.
    pub fn contains(&self, line: CacheLine) -> bool {
        self.slot_of(line).is_some()
    }

    /// Inserts `value` for `line`, evicting a victim from the target set if
    /// it is full.
    ///
    /// Returns the evicted `(line, value)` pair, if any.  If `line` was
    /// already resident its entry is replaced in place (no eviction) and the
    /// old value is **not** returned — use [`SetAssocCache::get_mut`] to
    /// update entries that may already exist.
    ///
    /// The victim is the way with the lowest
    /// [`EvictionPriority::priority`], ties broken by least-recent use —
    /// i.e. plain LRU when the priority is constant.
    pub fn insert<P>(&mut self, line: CacheLine, value: V, policy: &P) -> Option<(CacheLine, V)>
    where
        P: EvictionPriority<V> + ?Sized,
    {
        let stamp = self.tick();
        let base = self.set_base(line);
        let assoc = self.associativity;
        let tag = line.index();

        let mut vacant = None;
        for slot in base..base + assoc {
            if self.stamps[slot] == 0 {
                vacant = Some(slot);
            } else if self.tags[slot] == tag {
                self.values[slot] = Some(value);
                self.stamps[slot] = stamp;
                return None;
            }
        }

        if let Some(slot) = vacant {
            self.tags[slot] = tag;
            self.stamps[slot] = stamp;
            self.values[slot] = Some(value);
            self.len += 1;
            return None;
        }

        // Victim: lowest (priority, lru_stamp).  Stamps are globally unique,
        // so the choice does not depend on slot order.
        let victim_slot = match (base..base + assoc).min_by_key(|&slot| {
            let priority = match &self.values[slot] {
                Some(v) => policy.priority(v),
                None => unreachable!("occupied slot has a value"),
            };
            (priority, self.stamps[slot])
        }) {
            Some(slot) => slot,
            None => unreachable!("set is full, so non-empty"),
        };
        let victim_line = CacheLine::from_index(self.tags[victim_slot]);
        let victim_value = match self.values[victim_slot].take() {
            Some(v) => v,
            None => unreachable!("occupied slot has a value"),
        };
        self.tags[victim_slot] = tag;
        self.stamps[victim_slot] = stamp;
        self.values[victim_slot] = Some(value);
        Some((victim_line, victim_value))
    }

    /// Selects (without removing) the victim that [`SetAssocCache::insert`]
    /// would evict to make room for `line`, or `None` if the set still has a
    /// free way or already holds `line`.
    pub fn victim_for<P>(&self, line: CacheLine, policy: &P) -> Option<(CacheLine, &V)>
    where
        P: EvictionPriority<V> + ?Sized,
    {
        let base = self.set_base(line);
        let assoc = self.associativity;
        let tag = line.index();
        for slot in base..base + assoc {
            if self.stamps[slot] == 0 || self.tags[slot] == tag {
                return None;
            }
        }
        (base..base + assoc)
            .min_by_key(|&slot| {
                let priority = match &self.values[slot] {
                    Some(v) => policy.priority(v),
                    None => unreachable!("occupied slot has a value"),
                };
                (priority, self.stamps[slot])
            })
            .and_then(|slot| {
                self.values[slot]
                    .as_ref()
                    .map(|v| (CacheLine::from_index(self.tags[slot]), v))
            })
    }

    /// Removes `line` and returns its entry, or `None` if it was not
    /// resident.
    pub fn remove(&mut self, line: CacheLine) -> Option<V> {
        let slot = self.slot_of(line)?;
        self.len -= 1;
        self.tags[slot] = VACANT_TAG;
        self.stamps[slot] = 0;
        self.values[slot].take()
    }

    /// Removes every entry and rewinds the LRU clock to `0`, leaving the
    /// array indistinguishable from one [`SetAssocCache::new`] built with the
    /// same geometry: the same stamps, victims and [`SetAssocCache::slots`]
    /// follow from the same operations.  Only occupied slots are written, so
    /// clearing costs the occupancy, not the capacity.
    pub fn clear(&mut self) {
        let mut resident = self.len;
        let mut slot = 0;
        while resident > 0 {
            if self.stamps[slot] != 0 {
                self.tags[slot] = VACANT_TAG;
                self.stamps[slot] = 0;
                self.values[slot] = None;
                resident -= 1;
            }
            slot += 1;
        }
        self.len = 0;
        self.clock = 0;
    }

    /// Iterates over all resident `(line, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (CacheLine, &V)> {
        self.tags
            .iter()
            .zip(&self.stamps)
            .zip(&self.values)
            .filter(|((_, stamp), _)| **stamp != 0)
            .filter_map(|((tag, _), value)| {
                value.as_ref().map(|v| (CacheLine::from_index(*tag), v))
            })
    }

    /// Occupancy of the set that `line` maps to, as `(resident, ways)`.
    pub fn set_occupancy(&self, line: CacheLine) -> (usize, usize) {
        let base = self.set_base(line);
        let resident = (base..base + self.associativity)
            .filter(|&slot| self.stamps[slot] != 0)
            .count();
        (resident, self.associativity)
    }

    /// Iterates over occupied slots as `(slot, tag, lru_stamp, value)` in
    /// slot order, for checkpointing.  Together with [`SetAssocCache::clock`]
    /// this captures the array exactly: replaying the tuples through
    /// [`SetAssocCache::restore_slot`] and [`SetAssocCache::set_clock`]
    /// reproduces every future lookup, promotion and victim choice.
    pub fn slots(&self) -> impl Iterator<Item = (usize, u64, u64, &V)> {
        self.stamps
            .iter()
            .enumerate()
            .filter(|(_, stamp)| **stamp != 0)
            .filter_map(|(slot, stamp)| {
                self.values[slot]
                    .as_ref()
                    .map(|v| (slot, self.tags[slot], *stamp, v))
            })
    }

    /// The global LRU clock (for checkpointing).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Re-occupies `slot` with a checkpointed `(tag, stamp, value)` tuple.
    /// Restoring every tuple of [`SetAssocCache::slots`] into a cleared
    /// array of the same geometry, then [`SetAssocCache::set_clock`],
    /// reproduces every future lookup, LRU promotion and victim choice of
    /// the checkpointed array.
    ///
    /// # Errors
    ///
    /// A slot out of range or outside the set `tag` maps to, a tag already
    /// resident, an occupied slot, or a zero `stamp` (the vacancy marker: a
    /// checkpoint only records live slots).  The array is unchanged.
    pub fn restore_slot(
        &mut self,
        slot: usize,
        tag: u64,
        stamp: u64,
        value: V,
    ) -> Result<(), String> {
        let line = CacheLine::from_index(tag);
        if slot >= self.stamps.len() || self.set_base(line) != slot - slot % self.associativity {
            return Err(format!(
                "slot {slot} of tag {tag:#x} does not fit {} sets of {} ways",
                self.num_sets(),
                self.associativity
            ));
        }
        if self.contains(line) {
            return Err(format!("tag {tag:#x} is resident twice"));
        }
        if self.stamps[slot] != 0 {
            return Err(format!("slot {slot} is already occupied"));
        }
        if stamp == 0 {
            return Err("stamp 0 marks a vacant slot".to_string());
        }
        self.tags[slot] = tag;
        self.stamps[slot] = stamp;
        self.values[slot] = Some(value);
        self.len += 1;
        Ok(())
    }

    /// Restores the global LRU clock.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is older than a resident stamp: the next tick must
    /// out-rank every live line, exactly as in the checkpointed array.
    pub fn set_clock(&mut self, clock: u64) {
        let newest = self.stamps.iter().copied().max().unwrap_or(0);
        assert!(
            clock >= newest,
            "clock {clock} is older than resident stamp {newest}"
        );
        self.clock = clock;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{PlainLru, SharerAwareLru};

    fn line(i: u64) -> CacheLine {
        CacheLine::from_index(i)
    }

    #[test]
    fn geometry_accessors() {
        let c: SetAssocCache<()> = SetAssocCache::new(8, 4);
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.associativity(), 4);
        assert_eq!(c.capacity(), 32);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _: SetAssocCache<()> = SetAssocCache::new(6, 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        let _: SetAssocCache<()> = SetAssocCache::new(4, 0);
    }

    #[test]
    fn insert_and_get() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(c.insert(line(1), "a", &PlainLru).is_none());
        assert!(c.insert(line(5), "b", &PlainLru).is_none());
        assert_eq!(c.get(line(1)), Some(&"a"));
        assert_eq!(c.get(line(5)), Some(&"b"));
        assert_eq!(c.get(line(9)), None);
        assert_eq!(c.len(), 2);
        assert!(c.contains(line(1)));
        assert!(!c.contains(line(9)));
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = SetAssocCache::new(4, 1);
        c.insert(line(0), 1, &PlainLru);
        let evicted = c.insert(line(0), 2, &PlainLru);
        assert!(evicted.is_none());
        assert_eq!(c.get(line(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // One set (all lines map to set 0 with 1 set), 2 ways.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1), 'a', &PlainLru);
        c.insert(line(2), 'b', &PlainLru);
        // Touch line 1 so line 2 becomes LRU.
        assert_eq!(c.get(line(1)), Some(&'a'));
        let evicted = c.insert(line(3), 'c', &PlainLru).expect("eviction");
        assert_eq!(evicted, (line(2), 'b'));
        assert!(c.contains(line(1)));
        assert!(c.contains(line(3)));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1), 'a', &PlainLru);
        c.insert(line(2), 'b', &PlainLru);
        // Peek at line 1 -- it must still be the LRU victim.
        assert_eq!(c.peek(line(1)), Some(&'a'));
        let evicted = c.insert(line(3), 'c', &PlainLru).expect("eviction");
        assert_eq!(evicted.0, line(1));
    }

    #[test]
    fn get_mut_and_peek_mut() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(line(0), 10, &PlainLru);
        *c.get_mut(line(0)).unwrap() += 5;
        *c.peek_mut(line(0)).unwrap() += 1;
        assert_eq!(c.peek(line(0)), Some(&16));
        assert!(c.get_mut(line(7)).is_none());
        assert!(c.peek_mut(line(7)).is_none());
    }

    #[test]
    fn remove_and_clear() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(line(0), 'x', &PlainLru);
        c.insert(line(1), 'y', &PlainLru);
        assert_eq!(c.remove(line(0)), Some('x'));
        assert_eq!(c.remove(line(0)), None);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(line(1)));
    }

    #[test]
    fn clear_leaves_an_array_indistinguishable_from_a_new_one() {
        let mut used = SetAssocCache::new(2, 2);
        for i in 0..9 {
            used.insert(line(i), i, &PlainLru);
        }
        used.get(line(7));
        used.remove(line(8));
        used.clear();
        assert_eq!(used.len(), 0);
        assert_eq!(used.clock(), 0);
        assert_eq!(used.slots().count(), 0);

        // Refilling hands out the same stamps and victims as a new array.
        let mut fresh = SetAssocCache::new(2, 2);
        for i in [3, 5, 7, 9, 11, 3, 13, 15] {
            assert_eq!(
                used.insert(line(i), i, &PlainLru),
                fresh.insert(line(i), i, &PlainLru)
            );
        }
        let slots = |c: &SetAssocCache<u64>| -> Vec<(usize, u64, u64, u64)> {
            c.slots()
                .map(|(s, tag, stamp, v)| (s, tag, stamp, *v))
                .collect()
        };
        assert_eq!(slots(&used), slots(&fresh));
        assert_eq!(used.clock(), fresh.clock());
    }

    #[test]
    fn set_mapping_uses_low_bits() {
        let mut c = SetAssocCache::new(4, 1);
        // Lines 0 and 4 collide (set 0); lines 1..3 go to their own sets.
        c.insert(line(0), 0, &PlainLru);
        c.insert(line(1), 1, &PlainLru);
        c.insert(line(2), 2, &PlainLru);
        c.insert(line(3), 3, &PlainLru);
        assert_eq!(c.len(), 4);
        let evicted = c.insert(line(4), 4, &PlainLru).expect("conflict eviction");
        assert_eq!(evicted.0, line(0));
        assert_eq!(c.set_occupancy(line(4)), (1, 1));
    }

    #[test]
    fn victim_for_matches_insert() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1), 'a', &PlainLru);
        assert!(
            c.victim_for(line(9), &PlainLru).is_none(),
            "set not yet full"
        );
        c.insert(line(2), 'b', &PlainLru);
        assert!(
            c.victim_for(line(1), &PlainLru).is_none(),
            "already resident"
        );
        let predicted = c.victim_for(line(3), &PlainLru).map(|(l, _)| l).unwrap();
        let actual = c.insert(line(3), 'c', &PlainLru).unwrap().0;
        assert_eq!(predicted, actual);
    }

    #[test]
    fn sharer_aware_priority_overrides_recency() {
        // Entry value = number of L1 sharers.
        #[derive(Debug, Clone)]
        struct Entry {
            sharers: usize,
        }
        struct BySharers;
        impl EvictionPriority<Entry> for BySharers {
            fn priority(&self, e: &Entry) -> u64 {
                e.sharers as u64
            }
        }
        let mut c = SetAssocCache::new(1, 3);
        c.insert(line(1), Entry { sharers: 2 }, &BySharers);
        c.insert(line(2), Entry { sharers: 0 }, &BySharers);
        c.insert(line(3), Entry { sharers: 1 }, &BySharers);
        // Touch line 2 so it is the MRU, but it still has 0 sharers and must
        // be the victim under the sharer-aware policy.
        c.get(line(2));
        let evicted = c.insert(line(4), Entry { sharers: 0 }, &BySharers).unwrap();
        assert_eq!(evicted.0, line(2));
    }

    #[test]
    fn sharer_aware_lru_wrapper() {
        // SharerAwareLru works with any entry type exposing a sharer count
        // through the SharerCount trait.
        use crate::replacement::SharerCount;
        #[derive(Debug)]
        struct E(usize);
        impl SharerCount for E {
            fn l1_sharer_count(&self) -> usize {
                self.0
            }
        }
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1), E(3), &SharerAwareLru);
        c.insert(line(2), E(0), &SharerAwareLru);
        c.get(line(2)); // MRU but sharer-free
        let evicted = c.insert(line(3), E(1), &SharerAwareLru).unwrap();
        assert_eq!(evicted.0, line(2));
        // Plain LRU on the same history would have evicted line 1 instead.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1), E(3), &PlainLru);
        c.insert(line(2), E(0), &PlainLru);
        c.get(line(2));
        let evicted = c.insert(line(3), E(1), &PlainLru).unwrap();
        assert_eq!(evicted.0, line(1));
    }

    #[test]
    fn iter_visits_every_resident_entry() {
        let mut c = SetAssocCache::new(4, 2);
        for i in 0..6 {
            c.insert(line(i), i, &PlainLru);
        }
        let mut resident: Vec<_> = c.iter().map(|(l, v)| (l.index(), *v)).collect();
        resident.sort_unstable();
        assert_eq!(resident, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn slot_snapshot_restores_exact_lru_behavior() {
        let mut c = SetAssocCache::new(2, 2);
        for i in 0..5 {
            c.insert(line(i), i, &PlainLru);
        }
        c.get(line(1));

        let mut restored: SetAssocCache<u64> = SetAssocCache::new(2, 2);
        let slots: Vec<_> = c
            .slots()
            .map(|(slot, tag, stamp, v)| (slot, tag, stamp, *v))
            .collect();
        for (slot, tag, stamp, v) in slots {
            restored.restore_slot(slot, tag, stamp, v).unwrap();
        }
        restored.set_clock(c.clock());

        assert_eq!(restored.len(), c.len());
        assert_eq!(restored.clock(), c.clock());
        // The restored array makes the same victim choice and hands out the
        // same next stamp.
        let expect = c.insert(line(9), 9, &PlainLru);
        let got = restored.insert(line(9), 9, &PlainLru);
        assert_eq!(expect, got);
        assert_eq!(restored.clock(), c.clock());
    }

    #[test]
    fn restore_slot_rejects_slots_outside_the_geometry_and_twice_resident_tags() {
        // 4 sets of 2 ways: lines 5 and 9 belong in set 1, slots 2 and 3.
        let mut c: SetAssocCache<u8> = SetAssocCache::new(4, 2);
        let err = c.restore_slot(8, 5, 1, 0).unwrap_err();
        assert!(err.contains("does not fit 4 sets of 2 ways"), "{err}");
        assert!(c.restore_slot(0, 5, 1, 0).is_err(), "set 0 is not line 5's");
        c.restore_slot(2, 5, 1, 0).unwrap();
        let err = c.restore_slot(3, 5, 2, 0).unwrap_err();
        assert!(err.contains("resident twice"), "{err}");
        let err = c.restore_slot(2, 9, 2, 0).unwrap_err();
        assert!(err.contains("already occupied"), "{err}");
        let err = c.restore_slot(3, 9, 0, 0).unwrap_err();
        assert!(err.contains("stamp 0"), "{err}");
        // Every rejection left the array as the one good restore made it.
        assert_eq!(c.slots().collect::<Vec<_>>(), [(2, 5, 1, &0)]);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn restore_slot_rejects_double_occupancy() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        c.restore_slot(0, 4, 1, 7).unwrap();
        c.restore_slot(0, 6, 2, 8).unwrap();
    }

    #[test]
    #[should_panic(expected = "older than resident stamp")]
    fn set_clock_rejects_stale_clocks() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        c.restore_slot(0, 4, 5, 7).unwrap();
        c.set_clock(3);
    }

    #[test]
    fn set_contents_ordered_by_recency() {
        let mut c = SetAssocCache::new(1, 3);
        c.insert(line(1), (), &PlainLru);
        c.insert(line(2), (), &PlainLru);
        c.insert(line(3), (), &PlainLru);
        c.get(line(1));
        // Recency is now 2 < 3 < 1, so three fresh inserts evict in that order.
        for (fresh, victim) in [(4, 2), (5, 3), (6, 1)] {
            let evicted = c.insert(line(fresh), (), &PlainLru).unwrap();
            assert_eq!(evicted.0, line(victim));
        }
    }
}
