//! Aggregate network statistics and the checkpointable network state.

use lad_common::types::Cycle;

/// The two dynamic energy events of the NoC, which the simulator's report
/// prices as router and link energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    pub(crate) flit_hops: u64,
    pub(crate) router_traversals: u64,
}

impl NetworkStats {
    /// Records one delivered message.
    pub(crate) fn record(&mut self, hops: usize, flits: usize) {
        self.flit_hops += (hops * flits) as u64;
        // Every message traverses (hops + 1) routers, including the local
        // injection router; flits are buffered/switched at each.
        self.router_traversals += ((hops + 1) * flits) as u64;
    }

    /// Total flit × link-hop traversals (drives link energy).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Total flit × router traversals (drives router energy).
    pub fn router_traversals(&self) -> u64 {
        self.router_traversals
    }
}

/// Plain-data state of a [`crate::Network`] for checkpoint/resume: link
/// occupancy plus the energy event counts.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// Cycle until which each link is busy serializing earlier messages,
    /// in link-index order.
    pub links: Vec<Cycle>,
    /// Flit × link-hop traversals.
    pub flit_hops: u64,
    /// Flit × router traversals.
    pub router_traversals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_link_and_router_flits() {
        let mut stats = NetworkStats::default();
        stats.record(2, 9);
        stats.record(3, 1);
        assert_eq!(stats.flit_hops(), 2 * 9 + 3);
        assert_eq!(stats.router_traversals(), 3 * 9 + 4);
    }
}
