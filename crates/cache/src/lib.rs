//! The set-associative cache array, its replacement policies and the LLC
//! slice used by the locality-aware replication reproduction.
//!
//! Two types model the tile's two cache levels:
//!
//! * [`SetAssocCache`] is the one cache array.  The private L1-I and L1-D
//!   are bare `SetAssocCache`s filled under [`PlainLru`].
//! * [`LlcSlice`] wraps an array for the LLC: it boxes its large entries
//!   and switches between the two replacement policies (Section 4.2).
//!
//! Both are *structural*: they manage tags, placement, LRU ordering and
//! victim selection, while the coherence state and directory/classifier
//! metadata stored in each entry are supplied by the higher-level crates
//! (`lad-coherence`, `lad-replication`) as the generic entry type `V`.
//!
//! Both have one checkpoint surface: `slots` and `clock` read the occupied
//! slots and the LRU clock in place, and `restore_slot` for each slot, then
//! `set_clock`, write them back into a cleared cache of the same geometry.
//! `restore_slot` checks each slot against the geometry and returns an
//! error instead of panicking, because checkpoints come from outside the
//! process.  The byte encoding lives with the simulator's checkpoint
//! module.
//!
//! The two victim-selection policies of the paper are provided:
//!
//! * [`replacement::PlainLru`] — classic least-recently-used.
//! * [`replacement::SharerAwareLru`] — the paper's modified policy
//!   (Section 2.2.4): evict the line with the *fewest L1 sharers* first and
//!   only break ties by recency, which keeps lines with live L1 copies
//!   resident and avoids back-invalidations.
//!
//! # Example
//!
//! ```
//! use lad_cache::set_assoc::SetAssocCache;
//! use lad_cache::replacement::PlainLru;
//! use lad_common::types::CacheLine;
//!
//! let mut cache: SetAssocCache<u32> = SetAssocCache::new(4, 2);
//! let evicted = cache.insert(CacheLine::from_index(0), 10, &PlainLru);
//! assert!(evicted.is_none());
//! assert_eq!(cache.get(CacheLine::from_index(0)), Some(&10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod llc_slice;
pub mod replacement;
pub mod set_assoc;

pub use llc_slice::{LlcReplacementPolicy, LlcSlice};
pub use replacement::{EvictionPriority, PlainLru, SharerAwareLru, SharerCount};
pub use set_assoc::SetAssocCache;
