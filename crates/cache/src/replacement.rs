//! Victim-selection policies for the set-associative arrays.
//!
//! The array evicts the way with the lowest `(priority, recency)` pair, so a
//! policy only has to assign a priority to each resident entry:
//!
//! * [`PlainLru`] gives every entry the same priority, which degenerates to
//!   classic least-recently-used.
//! * [`SharerAwareLru`] implements the paper's modified LLC replacement
//!   policy (Section 2.2.4): "first select cache lines with the least number
//!   of L1 cache copies and then choose the least recently used among them".
//!   The number of L1 copies is read straight from the in-cache directory
//!   entry through the [`SharerCount`] trait, so no extra hint messages are
//!   needed (unlike the Temporal-Locality-Hint schemes the paper cites).

/// Assigns an eviction priority to resident entries; entries with the
/// *lowest* priority are evicted first, ties broken by LRU order.
pub trait EvictionPriority<V: ?Sized> {
    /// Priority of `entry`; lower values are evicted first.
    fn priority(&self, entry: &V) -> u64;
}

/// Classic least-recently-used replacement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainLru;

impl<V: ?Sized> EvictionPriority<V> for PlainLru {
    fn priority(&self, _entry: &V) -> u64 {
        0
    }
}

/// Exposes the number of L1 caches currently holding a copy of an LLC line.
///
/// Implemented by the LLC directory entry types so that
/// [`SharerAwareLru`] can prioritize retaining lines with live L1 copies.
pub trait SharerCount {
    /// Number of L1 caches that hold a copy of this line (replica L1s and the
    /// local L1 both count).
    fn l1_sharer_count(&self) -> usize;
}

/// The paper's modified LLC replacement policy (Section 2.2.4): evict lines
/// with the fewest L1 sharers first, then least-recently-used among them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharerAwareLru;

impl<V: SharerCount + ?Sized> EvictionPriority<V> for SharerAwareLru {
    fn priority(&self, entry: &V) -> u64 {
        entry.l1_sharer_count() as u64
    }
}

/// A boxed entry has its entry's sharer count, so an array of boxed
/// entries (the LLC slice's) evicts exactly as an unboxed one would.
impl<V: SharerCount + ?Sized> SharerCount for Box<V> {
    fn l1_sharer_count(&self) -> usize {
        (**self).l1_sharer_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Entry {
        sharers: usize,
    }

    impl SharerCount for Entry {
        fn l1_sharer_count(&self) -> usize {
            self.sharers
        }
    }

    #[test]
    fn plain_lru_is_constant() {
        let p = PlainLru;
        assert_eq!(
            EvictionPriority::<Entry>::priority(&p, &Entry { sharers: 0 }),
            0
        );
        assert_eq!(
            EvictionPriority::<Entry>::priority(&p, &Entry { sharers: 9 }),
            0
        );
    }

    #[test]
    fn sharer_aware_tracks_sharer_count() {
        let p = SharerAwareLru;
        assert_eq!(p.priority(&Entry { sharers: 0 }), 0);
        assert_eq!(p.priority(&Entry { sharers: 3 }), 3);
        assert!(p.priority(&Entry { sharers: 1 }) < p.priority(&Entry { sharers: 2 }));
    }
}
