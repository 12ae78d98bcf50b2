//! Set-associative cache arrays, replacement policies and the L1 / LLC-slice
//! models used by the locality-aware replication reproduction.
//!
//! The arrays are *structural*: they manage tags, placement, LRU ordering and
//! victim selection, while the coherence state and directory/classifier
//! metadata stored in each entry are supplied by the higher-level crates
//! (`lad-coherence`, `lad-replication`) as the generic entry type `V`.
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

pub mod l1;
pub mod llc_slice;
pub mod replacement;
pub mod set_assoc;
pub mod snapshot;

pub use l1::L1Cache;
pub use llc_slice::{LlcReplacementPolicy, LlcSlice};
pub use replacement::{EvictionPriority, PlainLru, SharerAwareLru, SharerCount};
pub use set_assoc::SetAssocCache;
