//! Memory controllers with finite bandwidth and FIFO queueing.

use lad_common::config::DramConfig;
use lad_common::stats::Counter;
use lad_common::types::{CoreId, Cycle};

/// The timing outcome of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycles spent waiting for the controller to become free.
    pub queue_delay: Cycle,
    /// Cycles spent performing the access itself (fixed latency + data
    /// transfer time).
    pub service_latency: Cycle,
    /// Cycle at which the access completes.
    pub completion: Cycle,
}

/// One memory controller: a single-server FIFO with fixed access latency and
/// a bandwidth-derived occupancy per request.
#[derive(Debug, Clone)]
pub struct DramController {
    access_latency: u32,
    /// Controller occupancy per cache-line request, in cycles
    /// (line size / bandwidth), i.e. the inverse of its sustainable request
    /// rate.
    service_occupancy: u64,
    free_at: Cycle,
    accesses: Counter,
    busy_cycles: u64,
}

impl DramController {
    /// Creates a controller from the DRAM configuration and cache line size.
    ///
    /// # Panics
    ///
    /// Panics if the configured bandwidth is not positive.
    pub fn new(config: &DramConfig, line_bytes: usize) -> Self {
        assert!(
            config.bandwidth_bytes_per_cycle > 0.0,
            "bandwidth must be positive"
        );
        let occupancy = (line_bytes as f64 / config.bandwidth_bytes_per_cycle).ceil() as u64;
        DramController {
            access_latency: config.access_latency,
            service_occupancy: occupancy.max(1),
            free_at: Cycle::ZERO,
            accesses: Counter::new(),
            busy_cycles: 0,
        }
    }

    /// Performs one cache-line access issued at cycle `now`.
    pub fn access(&mut self, now: Cycle) -> DramAccess {
        let start = now.max(self.free_at);
        let queue_delay = start.since(now);
        // The controller is occupied for the transfer time of the line; the
        // fixed access latency overlaps subsequent requests (banked DRAM).
        self.free_at = start + self.service_occupancy;
        self.busy_cycles += self.service_occupancy;
        self.accesses.increment();
        let service_latency = Cycle::new(self.access_latency as u64 + self.service_occupancy);
        DramAccess {
            queue_delay,
            service_latency,
            completion: start + service_latency,
        }
    }

    /// Number of accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses.value()
    }

    /// Total cycles of controller occupancy (for utilization diagnostics).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Cycle at which the controller next becomes free.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Clears queue state and statistics.
    pub fn reset(&mut self) {
        self.free_at = Cycle::ZERO;
        self.accesses = Counter::new();
        self.busy_cycles = 0;
    }

    /// Snapshots the controller's mutable state for checkpointing.
    pub fn state(&self) -> DramControllerState {
        DramControllerState {
            free_at: self.free_at,
            accesses: self.accesses.value(),
            busy_cycles: self.busy_cycles,
        }
    }

    /// Restores a snapshot (the timing parameters come from the
    /// configuration the controller was built with).
    pub fn restore_state(&mut self, state: &DramControllerState) {
        self.free_at = state.free_at;
        self.accesses = Counter::from_value(state.accesses);
        self.busy_cycles = state.busy_cycles;
    }
}

/// Plain-data state of one [`DramController`] for checkpoint/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramControllerState {
    /// Cycle at which the controller next becomes free.
    pub free_at: Cycle,
    /// Accesses served so far.
    pub accesses: u64,
    /// Total cycles of controller occupancy so far.
    pub busy_cycles: u64,
}

/// The full off-chip memory system: one controller per configured channel,
/// with cache lines address-interleaved across controllers.
#[derive(Debug, Clone)]
pub struct DramSystem {
    controllers: Vec<DramController>,
    /// Core whose tile hosts each controller (for network routing to the
    /// controller).
    controller_cores: Vec<CoreId>,
}

impl DramSystem {
    /// Builds the memory system.
    ///
    /// `controller_cores` gives the tile of each controller, as produced by
    /// [`lad_common::config::SystemConfig::dram_controller_core`].
    ///
    /// # Panics
    ///
    /// Panics if `controller_cores.len()` does not equal the configured
    /// number of controllers, or if there are no controllers.
    pub fn new(config: &DramConfig, line_bytes: usize, controller_cores: Vec<CoreId>) -> Self {
        assert!(config.num_controllers > 0, "need at least one controller");
        assert_eq!(
            controller_cores.len(),
            config.num_controllers,
            "one host core per controller required"
        );
        DramSystem {
            controllers: (0..config.num_controllers)
                .map(|_| DramController::new(config, line_bytes))
                .collect(),
            controller_cores,
        }
    }

    /// Number of controllers.
    pub fn num_controllers(&self) -> usize {
        self.controllers.len()
    }

    /// The controller index responsible for a line (address interleaving).
    pub fn controller_for(&self, line_index: u64) -> usize {
        (line_index % self.controllers.len() as u64) as usize
    }

    /// The core hosting the controller responsible for `line_index`.
    pub fn controller_core_for(&self, line_index: u64) -> CoreId {
        self.controller_cores[self.controller_for(line_index)]
    }

    /// Performs a cache-line access for `line_index` issued at `now`.
    pub fn access(&mut self, line_index: u64, now: Cycle) -> DramAccess {
        let idx = self.controller_for(line_index);
        self.controllers[idx].access(now)
    }

    /// Total accesses across all controllers (drives DRAM energy).
    pub fn total_accesses(&self) -> u64 {
        self.controllers.iter().map(|c| c.accesses()).sum()
    }

    /// Clears all queue state and statistics.
    pub fn reset(&mut self) {
        for c in &mut self.controllers {
            c.reset();
        }
    }

    /// Snapshots every controller's mutable state, in controller order.
    pub fn state(&self) -> Vec<DramControllerState> {
        self.controllers.iter().map(DramController::state).collect()
    }

    /// Restores a snapshot taken from a system with the same controller
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on a controller-count mismatch.
    pub fn restore_state(&mut self, state: &[DramControllerState]) {
        assert_eq!(
            state.len(),
            self.controllers.len(),
            "controller count mismatch: the snapshot is from a different memory system"
        );
        for (controller, snapshot) in self.controllers.iter_mut().zip(state) {
            controller.restore_state(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::config::SystemConfig;

    fn dram_config() -> DramConfig {
        SystemConfig::paper_default().dram
    }

    #[test]
    fn single_access_latency() {
        let mut ctrl = DramController::new(&dram_config(), 64);
        let access = ctrl.access(Cycle::new(100));
        assert_eq!(access.queue_delay, Cycle::ZERO);
        // 75-cycle fixed latency + 64 bytes at 5 B/cycle = 13 cycles.
        assert_eq!(access.service_latency, Cycle::new(88));
        assert_eq!(access.completion, Cycle::new(188));
        assert_eq!(ctrl.accesses(), 1);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut ctrl = DramController::new(&dram_config(), 64);
        let a = ctrl.access(Cycle::ZERO);
        let b = ctrl.access(Cycle::ZERO);
        assert_eq!(a.queue_delay, Cycle::ZERO);
        assert_eq!(b.queue_delay, Cycle::new(13));
        assert!(b.completion > a.completion);
        assert_eq!(ctrl.busy_cycles(), 26);
        assert_eq!(ctrl.free_at(), Cycle::new(26));
    }

    #[test]
    fn idle_gap_clears_queue() {
        let mut ctrl = DramController::new(&dram_config(), 64);
        ctrl.access(Cycle::ZERO);
        let later = ctrl.access(Cycle::new(1000));
        assert_eq!(later.queue_delay, Cycle::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut ctrl = DramController::new(&dram_config(), 64);
        ctrl.access(Cycle::ZERO);
        ctrl.reset();
        assert_eq!(ctrl.accesses(), 0);
        assert_eq!(ctrl.free_at(), Cycle::ZERO);
        assert_eq!(ctrl.busy_cycles(), 0);
    }

    fn system() -> DramSystem {
        let config = SystemConfig::paper_default();
        let cores = (0..config.dram.num_controllers)
            .map(|i| config.dram_controller_core(i))
            .collect();
        DramSystem::new(&config.dram, config.cache_line_bytes, cores)
    }

    #[test]
    fn system_interleaves_lines_across_controllers() {
        let sys = system();
        assert_eq!(sys.num_controllers(), 8);
        assert_eq!(sys.controller_for(0), 0);
        assert_eq!(sys.controller_for(9), 1);
        assert_eq!(sys.controller_for(8), 0);
        let distinct: std::collections::HashSet<_> =
            (0..8u64).map(|l| sys.controller_core_for(l)).collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn system_counts_accesses_per_controller() {
        let mut sys = system();
        for line in 0..16u64 {
            sys.access(line, Cycle::ZERO);
        }
        assert_eq!(sys.total_accesses(), 16);
        let served: Vec<u64> = sys.state().iter().map(|c| c.accesses).collect();
        assert_eq!(served, vec![2; 8]);
        // Two accesses interleaved to the same controller queue behind each
        // other, different controllers do not interfere.
        let mut sys = system();
        let a = sys.access(0, Cycle::ZERO);
        let b = sys.access(8, Cycle::ZERO);
        let c = sys.access(1, Cycle::ZERO);
        assert_eq!(a.queue_delay, Cycle::ZERO);
        assert!(b.queue_delay > Cycle::ZERO);
        assert_eq!(c.queue_delay, Cycle::ZERO);
        sys.reset();
        assert_eq!(sys.total_accesses(), 0);
    }

    #[test]
    fn state_roundtrip_preserves_queueing() {
        let mut sys = system();
        sys.access(0, Cycle::ZERO);
        sys.access(8, Cycle::ZERO);
        sys.access(1, Cycle::ZERO);

        let state = sys.state();
        let mut restored = system();
        restored.restore_state(&state);
        assert_eq!(restored.state(), state);
        assert_eq!(restored.total_accesses(), sys.total_accesses());

        // A follow-up access to the busy controller queues identically.
        let expect = sys.access(0, Cycle::new(5));
        let got = restored.access(0, Cycle::new(5));
        assert_eq!(got, expect);
        assert!(got.queue_delay > Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "different memory system")]
    fn restore_rejects_wrong_controller_count() {
        let mut sys = system();
        sys.restore_state(&[DramControllerState {
            free_at: Cycle::ZERO,
            accesses: 0,
            busy_cycles: 0,
        }]);
    }

    #[test]
    #[should_panic(expected = "one host core per controller")]
    fn system_requires_matching_core_list() {
        let config = SystemConfig::paper_default();
        DramSystem::new(&config.dram, 64, vec![CoreId::new(0)]);
    }
}
