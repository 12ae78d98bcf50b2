//! One tile of the multicore: compute core clock, private L1 caches and the
//! local LLC slice with its integrated directory.

use lad_cache::llc_slice::LlcSlice;
use lad_cache::set_assoc::SetAssocCache;
use lad_coherence::mesi::MesiState;
use lad_common::config::{CacheConfig, SystemConfig};
use lad_common::types::{CacheLine, Cycle};
use lad_replication::config::ReplicationConfig;
use lad_replication::entry::{LlcEntry, ReplicaEntry};

/// Per-tile architectural state.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Private L1 instruction cache (entries carry the MESI state of the
    /// copy), filled under plain LRU.
    pub l1i: SetAssocCache<MesiState>,
    /// Private L1 data cache, filled under plain LRU.
    pub l1d: SetAssocCache<MesiState>,
    /// The local LLC slice: home lines (directory + classifier) and local
    /// replicas.
    pub llc: LlcSlice<LlcEntry>,
    /// The core's local clock.
    pub clock: Cycle,
}

impl Tile {
    /// Builds one tile from the system and replication configurations.
    pub fn new(system: &SystemConfig, replication: &ReplicationConfig) -> Self {
        let line_bytes = system.cache_line_bytes;
        let l1 = |config: &CacheConfig| {
            SetAssocCache::new(config.num_sets(line_bytes), config.associativity)
        };
        Tile {
            l1i: l1(&system.l1i),
            l1d: l1(&system.l1d),
            llc: LlcSlice::new(&system.llc_slice, line_bytes, replication.llc_replacement),
            clock: Cycle::ZERO,
        }
    }

    /// Empties every cache and rewinds the clock, leaving the tile
    /// indistinguishable from a newly built one.  Only resident lines are
    /// written, so this costs what the last run touched.
    pub fn clear(&mut self) {
        self.l1i.clear();
        self.l1d.clear();
        self.llc.clear();
        self.clock = Cycle::ZERO;
    }

    /// The L1 cache used by an access (instruction fetches use the L1-I).
    pub fn l1_for(&mut self, instruction: bool) -> &mut SetAssocCache<MesiState> {
        if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        }
    }

    /// Drops this core's copies of `line`: its L1-D and L1-I states and an
    /// LLC replica, which are returned in that order.  A home entry for the
    /// line in this slice is the line's directory, not a copy, and stays.
    /// The LLC slice is probed only while it holds a replica.
    pub fn drop_copies(
        &mut self,
        line: CacheLine,
    ) -> (Option<MesiState>, Option<MesiState>, Option<ReplicaEntry>) {
        let l1d = self.l1d.remove(line);
        let l1i = self.l1i.remove(line);
        if self.llc.replicas() == 0 {
            return (l1d, l1i, None);
        }
        let replica = self.llc.probe(line).and_then(LlcEntry::as_replica).copied();
        if replica.is_some() {
            self.llc.invalidate(line);
        }
        (l1d, l1i, replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_geometry_follows_config() {
        let system = SystemConfig::paper_default();
        let tile = Tile::new(&system, &ReplicationConfig::paper_default());
        assert_eq!(tile.l1i.capacity(), 16 * 1024 / 64);
        assert_eq!(tile.l1d.capacity(), 32 * 1024 / 64);
        assert_eq!(tile.llc.capacity(), 256 * 1024 / 64);
        assert_eq!(tile.clock, Cycle::ZERO);
    }

    #[test]
    fn l1_selection_by_access_kind() {
        let system = SystemConfig::small_test();
        let mut tile = Tile::new(&system, &ReplicationConfig::paper_default());
        let icap = tile.l1_for(true).capacity();
        let dcap = tile.l1_for(false).capacity();
        assert_eq!(icap, system.l1i.capacity_bytes / 64);
        assert_eq!(dcap, system.l1d.capacity_bytes / 64);
    }

    #[test]
    fn llc_replacement_policy_is_configurable() {
        use lad_cache::llc_slice::LlcReplacementPolicy;
        let system = SystemConfig::small_test();
        let plain =
            ReplicationConfig::paper_default().with_llc_replacement(LlcReplacementPolicy::PlainLru);
        let tile = Tile::new(&system, &plain);
        assert_eq!(
            tile.llc.replacement_policy(),
            LlcReplacementPolicy::PlainLru
        );
    }

    #[test]
    fn drop_copies_takes_l1_states_and_a_replica_but_leaves_a_home_entry() {
        use lad_cache::replacement::PlainLru;
        use lad_replication::classifier::ClassifierKind;
        use lad_replication::entry::HomeEntry;

        let system = SystemConfig::small_test();
        let mut tile = Tile::new(&system, &ReplicationConfig::paper_default());
        let (replica_line, home_line) = (CacheLine::from_index(1), CacheLine::from_index(2));
        let replica = ReplicaEntry::new(MesiState::Shared, 3);
        tile.l1d
            .insert(replica_line, MesiState::Modified, &PlainLru);
        tile.llc.fill(replica_line, LlcEntry::Replica(replica));
        tile.l1i.insert(home_line, MesiState::Shared, &PlainLru);
        let home = HomeEntry::new(4, ClassifierKind::Complete, 3);
        tile.llc.fill(home_line, LlcEntry::Home(home));

        assert_eq!(
            tile.drop_copies(replica_line),
            (Some(MesiState::Modified), None, Some(replica))
        );
        assert_eq!(
            tile.drop_copies(home_line),
            (None, Some(MesiState::Shared), None)
        );
        assert!(tile.l1d.is_empty() && tile.l1i.is_empty());
        assert!(matches!(tile.llc.probe(home_line), Some(LlcEntry::Home(_))));
        assert_eq!(tile.llc.len(), 1);
    }
}
