//! Property-based tests for the set-associative cache array.
//!
//! These check the structural invariants a hardware cache must uphold under
//! arbitrary interleavings of fills, lookups and invalidations:
//!
//! * occupancy never exceeds capacity and no set ever exceeds its
//!   associativity;
//! * a line is resident after a fill until it is evicted or invalidated;
//! * the array behaves like a bounded map (agreement with a reference model).

use std::collections::BTreeMap;

use lad_cache::replacement::PlainLru;
use lad_cache::set_assoc::SetAssocCache;
use lad_common::types::CacheLine;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Fill(u64, u32),
    Access(u64),
    Invalidate(u64),
}

fn op_strategy(max_line: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..max_line, any::<u32>()).prop_map(|(l, v)| Op::Fill(l, v)),
        (0..max_line).prop_map(Op::Access),
        (0..max_line).prop_map(Op::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
