//! Link occupancy tracking and aggregate network statistics.

use lad_common::stats::Histogram;
use lad_common::types::Cycle;

use crate::message::MessageKind;

/// Occupancy state of one unidirectional link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkState {
    /// Cycle until which the link is busy serializing earlier messages.
    pub busy_until: Cycle,
    /// Total flits that have crossed this link.
    pub flits: u64,
}

/// Aggregate traffic statistics, used for diagnostics and by the energy
/// model (router traversals and link-flit traversals are the two dynamic
/// energy events of the NoC).
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    messages: u64,
    control_messages: u64,
    data_messages: u64,
    flit_hops: u64,
    router_traversals: u64,
    latency: Histogram,
}

impl NetworkStats {
    /// Records one delivered message.
    pub(crate) fn record(&mut self, kind: MessageKind, hops: usize, flits: usize, latency: Cycle) {
        self.messages += 1;
        match kind {
            MessageKind::Control => self.control_messages += 1,
            MessageKind::Data => self.data_messages += 1,
        }
        self.flit_hops += (hops * flits) as u64;
        // Every message traverses (hops + 1) routers, including the local
        // injection router; flits are buffered/switched at each.
        self.router_traversals += ((hops + 1) * flits) as u64;
        self.latency.record(latency.value());
    }

    /// Total messages delivered.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Control (single-flit) messages delivered.
    pub fn control_messages(&self) -> u64 {
        self.control_messages
    }

    /// Data (cache-line) messages delivered.
    pub fn data_messages(&self) -> u64 {
        self.data_messages
    }

    /// Total flit × link-hop traversals (drives link energy).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    /// Total flit × router traversals (drives router energy).
    pub fn router_traversals(&self) -> u64 {
        self.router_traversals
    }

    /// Largest delivered latency.
    pub fn max_latency(&self) -> Cycle {
        Cycle::new(self.latency.max())
    }

    /// The delivered-latency histogram as sorted `(latency, count)` pairs
    /// (for checkpointing).
    pub fn latency_distribution(&self) -> Vec<(u64, u64)> {
        self.latency.iter().collect()
    }

    pub(crate) fn from_parts(
        messages: u64,
        control_messages: u64,
        data_messages: u64,
        flit_hops: u64,
        router_traversals: u64,
        latency: &[(u64, u64)],
    ) -> Self {
        let mut histogram = Histogram::new();
        for &(value, count) in latency {
            histogram.record_weighted(value, count);
        }
        NetworkStats {
            messages,
            control_messages,
            data_messages,
            flit_hops,
            router_traversals,
            latency: histogram,
        }
    }
}

/// Plain-data state of a [`crate::Network`] for checkpoint/resume: link
/// occupancy plus the aggregate statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// Per-link occupancy, in link-index order.
    pub links: Vec<LinkState>,
    /// Total messages delivered.
    pub messages: u64,
    /// Control messages delivered.
    pub control_messages: u64,
    /// Data messages delivered.
    pub data_messages: u64,
    /// Flit × link-hop traversals.
    pub flit_hops: u64,
    /// Flit × router traversals.
    pub router_traversals: u64,
    /// Delivered-latency histogram as sorted `(latency, count)` pairs.
    pub latency: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_kind() {
        let mut stats = NetworkStats::default();
        stats.record(MessageKind::Data, 2, 9, Cycle::new(12));
        stats.record(MessageKind::Control, 3, 1, Cycle::new(6));
        assert_eq!(stats.messages(), 2);
        assert_eq!(stats.data_messages(), 1);
        assert_eq!(stats.control_messages(), 1);
        assert_eq!(stats.flit_hops(), 2 * 9 + 3);
        assert_eq!(stats.router_traversals(), 3 * 9 + 4);
        assert_eq!(stats.max_latency(), Cycle::new(12));
        assert_eq!(stats.latency_distribution(), vec![(6, 1), (12, 1)]);
    }

    #[test]
    fn default_link_state_is_idle() {
        let link = LinkState::default();
        assert_eq!(link.busy_until, Cycle::ZERO);
        assert_eq!(link.flits, 0);
    }
}
