//! Architectural configuration of the simulated multicore.
//!
//! [`SystemConfig::paper_default`] reproduces Table 1 of the paper:
//! 64 in-order cores at 1 GHz, 16 KB L1-I / 32 KB L1-D (4-way, 1 cycle),
//! a 256 KB 8-way inclusive LLC slice per core (2-cycle tag, 4-cycle data),
//! MESI with the ACKwise₄ limited directory, 8 DRAM controllers (5 GBps each,
//! 75 ns), and an electrical 2-D mesh with XY routing, 2-cycle hops and
//! 64-bit flits.

use std::fmt;

use crate::types::CoreId;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency for the tag array, in cycles.
    pub tag_latency: u32,
    /// Access latency for the data array, in cycles (total access latency is
    /// `tag_latency + data_latency` for a serial lookup).
    pub data_latency: u32,
}

impl CacheConfig {
    /// Number of sets for a given cache-line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (capacity must be a
    /// multiple of `associativity * line_bytes`).
    pub fn num_sets(&self, line_bytes: usize) -> usize {
        let lines = self.capacity_bytes / line_bytes;
        assert_eq!(
            lines % self.associativity,
            0,
            "cache capacity must be a whole number of sets"
        );
        lines / self.associativity
    }

    /// Total number of cache lines this cache can hold.
    pub fn num_lines(&self, line_bytes: usize) -> usize {
        self.capacity_bytes / line_bytes
    }

    /// Total (tag + data) access latency in cycles.
    pub fn access_latency(&self) -> u32 {
        self.tag_latency + self.data_latency
    }
}

/// Configuration of the on-chip interconnection network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Mesh width (number of columns). The mesh is `width x height`.
    pub mesh_width: usize,
    /// Mesh height (number of rows).
    pub mesh_height: usize,
    /// Fixed latency per hop (router + link), in cycles.
    pub hop_latency: u32,
    /// Flit width in bits.
    pub flit_width_bits: usize,
    /// Number of flits in a message header (source, destination, address,
    /// message type).
    pub header_flits: usize,
}

impl NetworkConfig {
    /// Number of flits needed to carry a full cache line plus header.
    pub fn data_message_flits(&self, line_bytes: usize) -> usize {
        self.header_flits + (line_bytes * 8).div_ceil(self.flit_width_bits)
    }

    /// Number of flits in a control message (header only).
    pub fn control_message_flits(&self) -> usize {
        self.header_flits
    }
}

/// Configuration of the off-chip memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of on-chip memory controllers.
    pub num_controllers: usize,
    /// Peak bandwidth per controller in bytes per cycle (5 GBps at 1 GHz is
    /// 5 bytes/cycle).
    pub bandwidth_bytes_per_cycle: f64,
    /// Fixed DRAM access latency in cycles (75 ns at 1 GHz = 75 cycles).
    pub access_latency: u32,
}

/// Full architectural configuration of the simulated system.
///
/// The default (via [`SystemConfig::paper_default`] or [`Default`])
/// reproduces Table 1.  Use the `with_*` builder methods to derive scaled
/// configurations (e.g. a 16-core system for fast tests).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (= number of LLC slices = number of tiles).
    pub num_cores: usize,
    /// Cache line size in bytes.
    pub cache_line_bytes: usize,
    /// Page size in bytes (used by Reactive-NUCA's page-grain classification).
    pub page_bytes: usize,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// One LLC (L2) slice; the full LLC is `num_cores` such slices.
    pub llc_slice: CacheConfig,
    /// Number of ACKwise hardware sharer pointers per directory entry.
    pub ackwise_pointers: usize,
    /// On-chip network.
    pub network: NetworkConfig,
    /// Off-chip memory.
    pub dram: DramConfig,
}

impl SystemConfig {
    /// The configuration used throughout the paper's evaluation (Table 1).
    pub fn paper_default() -> Self {
        SystemConfig {
            num_cores: 64,
            cache_line_bytes: 64,
            page_bytes: 4096,
            l1i: CacheConfig {
                capacity_bytes: 16 * 1024,
                associativity: 4,
                tag_latency: 0,
                data_latency: 1,
            },
            l1d: CacheConfig {
                capacity_bytes: 32 * 1024,
                associativity: 4,
                tag_latency: 0,
                data_latency: 1,
            },
            llc_slice: CacheConfig {
                capacity_bytes: 256 * 1024,
                associativity: 8,
                tag_latency: 2,
                data_latency: 4,
            },
            ackwise_pointers: 4,
            network: NetworkConfig {
                mesh_width: 8,
                mesh_height: 8,
                hop_latency: 2,
                flit_width_bits: 64,
                header_flits: 1,
            },
            dram: DramConfig {
                num_controllers: 8,
                bandwidth_bytes_per_cycle: 5.0,
                access_latency: 75,
            },
        }
    }

    /// A scaled-down configuration for fast unit and integration tests:
    /// 16 cores (4×4 mesh), 4 KB L1s, 128 KB LLC slices, 4 DRAM controllers.
    ///
    /// The *relative* structure (inclusive LLC larger than L1, multi-hop
    /// mesh, limited directory) is preserved so protocol behaviour is
    /// representative.
    pub fn small_test() -> Self {
        SystemConfig {
            num_cores: 16,
            cache_line_bytes: 64,
            page_bytes: 4096,
            l1i: CacheConfig {
                capacity_bytes: 4 * 1024,
                associativity: 2,
                tag_latency: 0,
                data_latency: 1,
            },
            l1d: CacheConfig {
                capacity_bytes: 4 * 1024,
                associativity: 4,
                tag_latency: 0,
                data_latency: 1,
            },
            llc_slice: CacheConfig {
                capacity_bytes: 128 * 1024,
                associativity: 8,
                tag_latency: 2,
                data_latency: 4,
            },
            ackwise_pointers: 4,
            network: NetworkConfig {
                mesh_width: 4,
                mesh_height: 4,
                hop_latency: 2,
                flit_width_bits: 64,
                header_flits: 1,
            },
            dram: DramConfig {
                num_controllers: 4,
                bandwidth_bytes_per_cycle: 5.0,
                access_latency: 75,
            },
        }
    }

    /// Returns a copy with a different core count, adjusting the mesh to the
    /// squarest possible rectangle and keeping per-core cache sizes.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn with_num_cores(mut self, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        self.num_cores = num_cores;
        let (w, h) = squarest_mesh(num_cores);
        self.network.mesh_width = w;
        self.network.mesh_height = h;
        self.dram.num_controllers = self.dram.num_controllers.min(num_cores).max(1);
        self
    }

    /// Validates internal consistency (mesh covers all cores, cache
    /// geometries divide evenly, at least one DRAM controller).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::new("number of cores must be non-zero"));
        }
        if self.network.mesh_width * self.network.mesh_height < self.num_cores {
            return Err(ConfigError::new(
                "mesh dimensions are too small for the number of cores",
            ));
        }
        if !self.cache_line_bytes.is_power_of_two() {
            return Err(ConfigError::new("cache line size must be a power of two"));
        }
        if self.page_bytes < self.cache_line_bytes || !self.page_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "page size must be a power of two and at least one cache line",
            ));
        }
        for (name, cache) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("llc", &self.llc_slice),
        ] {
            let lines = cache.capacity_bytes / self.cache_line_bytes;
            if lines == 0 || !lines.is_multiple_of(cache.associativity) {
                return Err(ConfigError::new(format!(
                    "{name} geometry invalid: {} bytes / {}-way does not form whole sets",
                    cache.capacity_bytes, cache.associativity
                )));
            }
        }
        if self.dram.num_controllers == 0 {
            return Err(ConfigError::new("need at least one DRAM controller"));
        }
        if self.ackwise_pointers == 0 {
            return Err(ConfigError::new("ACKwise needs at least one pointer"));
        }
        Ok(())
    }

    /// The LLC home slice of a cache line under plain address interleaving
    /// (Static-NUCA): line index modulo the number of cores.
    pub fn address_interleaved_home(&self, line_index: u64) -> CoreId {
        CoreId::new((line_index % self.num_cores as u64) as usize)
    }

    /// The DRAM controller responsible for a cache line (address
    /// interleaved across controllers).
    pub fn dram_controller_for(&self, line_index: u64) -> usize {
        (line_index % self.dram.num_controllers as u64) as usize
    }

    /// Core of the tile hosting DRAM controller `ctrl`.
    ///
    /// Controllers are spread evenly across the mesh; this gives the core
    /// index whose router the controller is attached to.
    pub fn dram_controller_core(&self, ctrl: usize) -> CoreId {
        let step = (self.num_cores / self.dram.num_controllers).max(1);
        CoreId::new((ctrl * step) % self.num_cores)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Finds mesh dimensions `(width, height)` with `width * height >= n` and the
/// smallest perimeter (i.e. as square as possible).
fn squarest_mesh(n: usize) -> (usize, usize) {
    let mut best = (n, 1);
    let mut best_cost = n + 1;
    let mut w = 1usize;
    while w * w <= n || w <= n {
        if w > n {
            break;
        }
        let h = n.div_ceil(w);
        let cost = w + h;
        if cost < best_cost {
            best_cost = cost;
            best = (w.max(h), w.min(h));
        }
        w += 1;
    }
    best
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }

    /// Human-readable description of the constraint violation.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_cores, 64);
        assert_eq!(c.cache_line_bytes, 64);
        assert_eq!(c.l1i.capacity_bytes, 16 * 1024);
        assert_eq!(c.l1i.associativity, 4);
        assert_eq!(c.l1d.capacity_bytes, 32 * 1024);
        assert_eq!(c.l1d.associativity, 4);
        assert_eq!(c.llc_slice.capacity_bytes, 256 * 1024);
        assert_eq!(c.llc_slice.associativity, 8);
        assert_eq!(c.llc_slice.tag_latency, 2);
        assert_eq!(c.llc_slice.data_latency, 4);
        assert_eq!(c.ackwise_pointers, 4);
        assert_eq!(c.network.mesh_width * c.network.mesh_height, 64);
        assert_eq!(c.network.hop_latency, 2);
        assert_eq!(c.network.flit_width_bits, 64);
        assert_eq!(c.dram.num_controllers, 8);
        assert_eq!(c.dram.access_latency, 75);
        c.validate().expect("paper default must validate");
    }

    #[test]
    fn small_test_config_validates() {
        SystemConfig::small_test().validate().unwrap();
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper_default());
    }

    #[test]
    fn cache_geometry() {
        let c = SystemConfig::paper_default();
        // 256 KB / 64 B = 4096 lines; 8-way -> 512 sets.
        assert_eq!(c.llc_slice.num_sets(c.cache_line_bytes), 512);
        assert_eq!(c.llc_slice.num_lines(c.cache_line_bytes), 4096);
        // 32 KB / 64 B = 512 lines; 4-way -> 128 sets.
        assert_eq!(c.l1d.num_sets(c.cache_line_bytes), 128);
        assert_eq!(c.llc_slice.access_latency(), 6);
    }

    #[test]
    fn data_message_is_nine_flits() {
        // Table 1: header = 1 flit, cache line = 8 flits of 64 bits.
        let c = SystemConfig::paper_default();
        assert_eq!(c.network.data_message_flits(c.cache_line_bytes), 9);
        assert_eq!(c.network.control_message_flits(), 1);
    }

    #[test]
    fn with_num_cores_adjusts_mesh() {
        let c = SystemConfig::paper_default().with_num_cores(16);
        assert_eq!(c.num_cores, 16);
        assert!(c.network.mesh_width * c.network.mesh_height >= 16);
        c.validate().unwrap();
        let c = SystemConfig::paper_default().with_num_cores(36);
        assert_eq!(c.network.mesh_width * c.network.mesh_height, 36);
    }

    #[test]
    fn squarest_mesh_examples() {
        assert_eq!(squarest_mesh(64), (8, 8));
        assert_eq!(squarest_mesh(16), (4, 4));
        assert_eq!(squarest_mesh(1), (1, 1));
        let (w, h) = squarest_mesh(12);
        assert!(w * h >= 12);
        assert_eq!((w, h), (4, 3));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = SystemConfig::paper_default();
        c.num_cores = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.cache_line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.network.mesh_width = 2;
        c.network.mesh_height = 2;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.dram.num_controllers = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.page_bytes = 32;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.l1d.capacity_bytes = 100;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("l1d"));
    }

    #[test]
    fn home_and_dram_mapping_are_stable() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.address_interleaved_home(0).index(), 0);
        assert_eq!(c.address_interleaved_home(65).index(), 1);
        assert_eq!(c.dram_controller_for(9), 1);
        assert!(c.dram_controller_core(7).index() < c.num_cores);
        // All controllers map to distinct cores in the default config.
        let cores: std::collections::HashSet<_> = (0..c.dram.num_controllers)
            .map(|i| c.dram_controller_core(i))
            .collect();
        assert_eq!(cores.len(), c.dram.num_controllers);
    }
}
