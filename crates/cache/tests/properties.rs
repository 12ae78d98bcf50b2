//! Property-based tests for the set-associative cache array.
//!
//! These check the structural invariants a hardware cache must uphold under
//! arbitrary interleavings of fills, lookups and invalidations:
//!
//! * occupancy never exceeds capacity and no set ever exceeds its
//!   associativity;
//! * a line is resident after a fill until it is evicted or invalidated;
//! * the array behaves like a bounded map (agreement with a reference model);
//! * a checkpoint restores exactly: an array or LLC slice rebuilt from its
//!   `slots()` and `clock()` evicts, hits and ends like the original;
//! * an LLC slice's replica count equals a recount of its entries after
//!   every operation, a restore and a clear.

use std::collections::BTreeMap;

use lad_cache::llc_slice::{LlcReplacementPolicy, LlcSlice};
use lad_cache::replacement::{PlainLru, SharerCount};
use lad_cache::set_assoc::SetAssocCache;
use lad_common::config::CacheConfig;
use lad_common::types::CacheLine;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Op {
    Fill(u64, u32),
    Access(u64),
    Invalidate(u64),
}

impl Op {
    /// The same operation on a line folded into `0..lines`.
    fn within(&self, lines: u64) -> Op {
        match *self {
            Op::Fill(l, v) => Op::Fill(l % lines, v),
            Op::Access(l) => Op::Access(l % lines),
            Op::Invalidate(l) => Op::Invalidate(l % lines),
        }
    }
}

fn op_strategy(max_line: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_line, any::<u32>()).prop_map(|(l, v)| Op::Fill(l, v)),
        (0..max_line).prop_map(Op::Access),
        (0..max_line).prop_map(Op::Invalidate),
    ]
}

/// What a checkpoint records of a cache: its LRU clock and its occupied
/// slots as `(slot, tag, stamp, value)`.
type State = (u64, Vec<(usize, u64, u64, u32)>);

/// The two cache types, driven by the same operations and restored through
/// the same checkpoint surface.
trait Cache {
    /// Applies `op`; returns the line and value it evicted, hit or removed.
    fn apply(&mut self, op: &Op) -> Option<(u64, u32)>;
    fn state(&self) -> State;
    /// Writes `state` back through `restore_slot` for each slot, then
    /// `set_clock`.
    fn restore(&mut self, state: State) -> Result<(), String>;
    fn clear(&mut self);
    /// The replica count the cache keeps and a recount of its entries, for
    /// a cache that keeps one.
    fn replica_counts(&self) -> Option<(usize, usize)>;
}

impl Cache for SetAssocCache<u32> {
    fn apply(&mut self, op: &Op) -> Option<(u64, u32)> {
        match *op {
            Op::Fill(l, v) => self
                .insert(line(l), v, &PlainLru)
                .map(|(l, v)| (l.index(), v)),
            Op::Access(l) => self.get(line(l)).map(|v| (l, *v)),
            Op::Invalidate(l) => self.remove(line(l)).map(|v| (l, v)),
        }
    }

    fn state(&self) -> State {
        let slots = self
            .slots()
            .map(|(slot, tag, stamp, v)| (slot, tag, stamp, *v));
        (self.clock(), slots.collect())
    }

    fn restore(&mut self, (clock, slots): State) -> Result<(), String> {
        for (slot, tag, stamp, v) in slots {
            self.restore_slot(slot, tag, stamp, v)?;
        }
        self.set_clock(clock);
        Ok(())
    }

    fn clear(&mut self) {
        SetAssocCache::clear(self);
    }

    fn replica_counts(&self) -> Option<(usize, usize)> {
        None
    }
}

/// An LLC entry whose sharer count (0–3) and kind come from its value, so
/// the sharer-aware policy meets both ties and distinct priorities, and
/// fills, evictions and in-place replacements meet both kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry(u32);

impl SharerCount for Entry {
    fn l1_sharer_count(&self) -> usize {
        self.0 as usize % 4
    }

    fn is_replica(&self) -> bool {
        self.0 & 4 != 0
    }
}

impl Cache for LlcSlice<Entry> {
    fn apply(&mut self, op: &Op) -> Option<(u64, u32)> {
        match *op {
            Op::Fill(l, v) => self.fill(line(l), Entry(v)).map(|(l, e)| (l.index(), e.0)),
            Op::Access(l) => self.access(line(l)).map(|e| (l, e.0)),
            Op::Invalidate(l) => self.invalidate(line(l)).map(|e| (l, e.0)),
        }
    }

    fn state(&self) -> State {
        let slots = self
            .slots()
            .map(|(slot, tag, stamp, e)| (slot, tag, stamp, e.0));
        (self.clock(), slots.collect())
    }

    fn restore(&mut self, (clock, slots): State) -> Result<(), String> {
        for (slot, tag, stamp, v) in slots {
            self.restore_slot(slot, tag, stamp, Entry(v))?;
        }
        self.set_clock(clock);
        Ok(())
    }

    fn clear(&mut self) {
        LlcSlice::clear(self);
    }

    fn replica_counts(&self) -> Option<(usize, usize)> {
        let recount = self.iter().filter(|(_, e)| e.is_replica()).count();
        Some((self.replicas(), recount))
    }
}

fn line(l: u64) -> CacheLine {
    CacheLine::from_index(l)
}

/// Fails if `cache` keeps a replica count that differs from a recount.
fn counts_agree(cache: &impl Cache) -> Result<(), TestCaseError> {
    if let Some((kept, recount)) = cache.replica_counts() {
        prop_assert_eq!(kept, recount);
    }
    Ok(())
}

/// Runs `head` on `original`, restores its state into `fresh` (a new cache
/// of the same geometry), then runs `tail` on both: every operation must
/// see the same result, and the two must end in the same state.  Then
/// clears `fresh` and runs `tail` on it again.  A kept replica count must
/// agree with a recount after every step.
fn restores_exactly(
    mut original: impl Cache,
    mut fresh: impl Cache,
    head: &[Op],
    tail: &[Op],
) -> Result<(), TestCaseError> {
    for op in head {
        original.apply(op);
        counts_agree(&original)?;
    }
    fresh
        .restore(original.state())
        .map_err(TestCaseError::fail)?;
    counts_agree(&fresh)?;
    prop_assert_eq!(fresh.state(), original.state());
    for op in tail {
        prop_assert_eq!(fresh.apply(op), original.apply(op), "after {:?}", op);
        counts_agree(&original)?;
        counts_agree(&fresh)?;
    }
    prop_assert_eq!(fresh.state(), original.state());
    fresh.clear();
    counts_agree(&fresh)?;
    for op in tail {
        fresh.apply(op);
        counts_agree(&fresh)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn restored_caches_replay_the_original_future(
        head in prop::collection::vec(op_strategy(64), 0..300),
        tail in prop::collection::vec(op_strategy(64), 1..200),
        sets_pow in 0usize..4,
        assoc in 1usize..6,
        lines in 1u64..64,
    ) {
        // Few lines make hits and invalidations of the newest line common
        // (so the clock runs ahead of every stamp); many make evictions
        // common.
        let head: Vec<Op> = head.iter().map(|op| op.within(lines)).collect();
        let tail: Vec<Op> = tail.iter().map(|op| op.within(lines)).collect();
        let num_sets = 1usize << sets_pow;
        let array = || SetAssocCache::<u32>::new(num_sets, assoc);
        restores_exactly(array(), array(), &head, &tail)?;
        let config = CacheConfig {
            capacity_bytes: num_sets * assoc * 64,
            associativity: assoc,
            tag_latency: 1,
            data_latency: 1,
        };
        for policy in [LlcReplacementPolicy::SharerAwareLru, LlcReplacementPolicy::PlainLru] {
            let slice = || LlcSlice::<Entry>::new(&config, 64, policy);
            restores_exactly(slice(), slice(), &head, &tail)?;
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity(
        ops in prop::collection::vec(op_strategy(256), 1..400),
        sets_pow in 0usize..4,
        assoc in 1usize..6,
    ) {
        let num_sets = 1usize << sets_pow;
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(num_sets, assoc);
        for op in ops {
            match op {
                Op::Fill(l, v) => { cache.insert(CacheLine::from_index(l), v, &PlainLru); }
                Op::Access(l) => { cache.get(CacheLine::from_index(l)); }
                Op::Invalidate(l) => { cache.remove(CacheLine::from_index(l)); }
            }
            prop_assert!(cache.len() <= cache.capacity());
            // Per-set occupancy bound.
            for line in 0..num_sets as u64 {
                let (occ, ways) = cache.set_occupancy(CacheLine::from_index(line));
                prop_assert!(occ <= ways);
            }
        }
    }

    #[test]
    fn resident_until_evicted_or_invalidated(
        ops in prop::collection::vec(op_strategy(64), 1..300),
    ) {
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        // Reference set of lines we believe are resident.
        let mut resident: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Fill(l, v) => {
                    let evicted = cache.insert(CacheLine::from_index(l), v, &PlainLru);
                    resident.insert(l, v);
                    if let Some((el, _)) = evicted {
                        prop_assert_ne!(el.index(), l, "a fill may not evict itself");
                        resident.remove(&el.index());
                    }
                }
                Op::Access(l) => {
                    let expected = resident.get(&l);
                    let got = cache.get(CacheLine::from_index(l));
                    prop_assert_eq!(got, expected);
                }
                Op::Invalidate(l) => {
                    let expected = resident.remove(&l);
                    let got = cache.remove(CacheLine::from_index(l));
                    prop_assert_eq!(got, expected);
                }
            }
            // Everything we think is resident really is, with the right value.
            for (l, v) in &resident {
                prop_assert_eq!(cache.peek(CacheLine::from_index(*l)), Some(v));
            }
            prop_assert_eq!(cache.len(), resident.len());
        }
    }

    #[test]
    fn eviction_only_happens_when_set_full(
        lines in prop::collection::vec(0u64..128, 1..200),
    ) {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(8, 4);
        for l in lines {
            let line = CacheLine::from_index(l);
            let (occ_before, ways) = cache.set_occupancy(line);
            let was_resident = cache.contains(line);
            let evicted = cache.insert(line, l, &PlainLru);
            if evicted.is_some() {
                prop_assert!(!was_resident);
                prop_assert_eq!(occ_before, ways);
            }
        }
    }
}
