//! One tile of the multicore: compute core clock, private L1 caches and the
//! local LLC slice with its integrated directory.

use lad_cache::l1::L1Cache;
use lad_cache::llc_slice::LlcSlice;
use lad_coherence::mesi::MesiState;
use lad_common::config::SystemConfig;
use lad_common::types::Cycle;
use lad_replication::config::ReplicationConfig;
use lad_replication::entry::LlcEntry;

/// Per-tile architectural state.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Private L1 instruction cache (entries carry the MESI state of the
    /// copy).
    pub l1i: L1Cache<MesiState>,
    /// Private L1 data cache.
    pub l1d: L1Cache<MesiState>,
    /// The local LLC slice: home lines (directory + classifier) and local
    /// replicas.
    pub llc: LlcSlice<LlcEntry>,
    /// The core's local clock.
    pub clock: Cycle,
}

impl Tile {
    /// Builds one tile from the system and replication configurations.
    pub fn new(system: &SystemConfig, replication: &ReplicationConfig) -> Self {
        Tile {
            l1i: L1Cache::new(&system.l1i, system.cache_line_bytes),
            l1d: L1Cache::new(&system.l1d, system.cache_line_bytes),
            llc: LlcSlice::with_policy(
                &system.llc_slice,
                system.cache_line_bytes,
                replication.llc_replacement,
            ),
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
    pub fn l1_for(&mut self, instruction: bool) -> &mut L1Cache<MesiState> {
        if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        }
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
}
