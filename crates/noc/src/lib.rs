//! Electrical 2-D mesh network-on-chip model.
//!
//! The paper's target (Table 1) uses an electrical 2-D mesh with XY routing,
//! a 2-cycle per-hop latency (1 router + 1 link), 64-bit flits, 1-flit
//! headers and 8-flit cache-line payloads.  In addition to the fixed per-hop
//! latency, *link contention* delays are modelled: each unidirectional link
//! serializes the flits of the messages crossing it, so a message arriving at
//! a busy link waits for the link to drain.
//!
//! The model is transaction-level: [`Network::send`] computes the delivery
//! latency of one message injected at a given cycle, updates the per-link
//! occupancy used for contention, and records the event counts
//! (router traversals and link-flit traversals) that drive the energy model.
//!
//! # Example
//!
//! ```
//! use lad_common::config::SystemConfig;
//! use lad_common::types::{CoreId, Cycle};
//! use lad_noc::{MessageKind, Network};
//!
//! let config = SystemConfig::paper_default();
//! let mut net = Network::new(&config.network, config.cache_line_bytes);
//! let delivery = net.send(CoreId::new(0), CoreId::new(63), MessageKind::Data, Cycle::ZERO);
//! // 0 -> 63 on an 8x8 mesh is 7 + 7 = 14 hops at 2 cycles each, plus
//! // serialization of the 9-flit message.
//! assert_eq!(delivery.hops, 14);
//! assert!(delivery.latency.value() >= 28);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod message;
pub mod topology;

pub use contention::{LinkState, NetworkState, NetworkStats};
pub use message::{Delivery, MessageKind};
pub use topology::Mesh;

use lad_common::config::NetworkConfig;
use lad_common::types::{CoreId, Cycle};

/// The on-chip network: topology, timing and contention state.  Every
/// message queues behind earlier traffic on the links it crosses.
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    hop_latency: u32,
    control_flits: usize,
    data_flits: usize,
    links: Vec<LinkState>,
    stats: NetworkStats,
}

impl Network {
    /// Builds a network from the architectural configuration and cache line
    /// size (which determines the data-message payload).
    ///
    /// # Panics
    ///
    /// Panics if the mesh dimensions are zero.
    pub fn new(config: &NetworkConfig, line_bytes: usize) -> Self {
        let mesh = Mesh::new(config.mesh_width, config.mesh_height);
        let num_links = mesh.num_links();
        Network {
            mesh,
            hop_latency: config.hop_latency,
            control_flits: config.control_message_flits(),
            data_flits: config.data_message_flits(line_bytes),
            links: vec![LinkState::default(); num_links],
            stats: NetworkStats::default(),
        }
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Flits in a message of the given kind.
    pub fn message_flits(&self, kind: MessageKind) -> usize {
        match kind {
            MessageKind::Control => self.control_flits,
            MessageKind::Data => self.data_flits,
        }
    }

    /// Minimum (contention-free) one-way latency between two cores for a
    /// message of `kind`: per-hop latency plus flit serialization.
    pub fn base_latency(&self, src: CoreId, dst: CoreId, kind: MessageKind) -> Cycle {
        let hops = self.mesh.hops(src, dst) as u64;
        let serialization = self.message_flits(kind).saturating_sub(1) as u64;
        Cycle::new(hops * self.hop_latency as u64 + serialization)
    }

    /// Sends a message from `src` to `dst`, injected at cycle `now`.
    ///
    /// Returns the [`Delivery`] describing when it arrives, how many hops it
    /// took and how many flits it carried.  Local messages (`src == dst`)
    /// take zero network time.
    pub fn send(&mut self, src: CoreId, dst: CoreId, kind: MessageKind, now: Cycle) -> Delivery {
        let flits = self.message_flits(kind);
        let route = self.mesh.route_iter(src, dst);
        let hops = route.len();

        let mut arrival = now;
        if hops > 0 {
            // Serialization: the tail flit leaves (flits - 1) cycles after the
            // head flit.
            let mut head_time = now;
            for link in route {
                let link_state = &mut self.links[link];
                let start = head_time.max(link_state.busy_until);
                let finish = start + self.hop_latency as u64 + (flits - 1) as u64;
                link_state.busy_until = finish;
                link_state.flits += flits as u64;
                head_time = start + self.hop_latency as u64;
                arrival = finish;
            }
        }

        let latency = arrival.since(now);
        self.stats.record(kind, hops, flits, latency);
        Delivery {
            arrival,
            latency,
            hops,
            flits,
        }
    }

    /// Convenience: latency of a request/response round trip
    /// (`src -> dst` of `request` kind, then `dst -> src` of `response`
    /// kind), returning the final arrival cycle back at `src`.
    pub fn round_trip(
        &mut self,
        src: CoreId,
        dst: CoreId,
        request: MessageKind,
        response: MessageKind,
        now: Cycle,
    ) -> Delivery {
        let there = self.send(src, dst, request, now);
        let back = self.send(dst, src, response, there.arrival);
        Delivery {
            arrival: back.arrival,
            latency: back.arrival.since(now),
            hops: there.hops + back.hops,
            flits: there.flits + back.flits,
        }
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Snapshots the link occupancy and statistics for checkpointing.
    pub fn state(&self) -> NetworkState {
        NetworkState {
            links: self.links.clone(),
            messages: self.stats.messages(),
            control_messages: self.stats.control_messages(),
            data_messages: self.stats.data_messages(),
            flit_hops: self.stats.flit_hops(),
            router_traversals: self.stats.router_traversals(),
            latency: self.stats.latency_distribution(),
        }
    }

    /// Restores a snapshot taken from a network of the same topology.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's link count does not match this mesh.
    pub fn restore_state(&mut self, state: &NetworkState) {
        assert_eq!(
            state.links.len(),
            self.links.len(),
            "link count mismatch: the snapshot is from a different mesh"
        );
        self.links.clone_from(&state.links);
        self.stats = NetworkStats::from_parts(
            state.messages,
            state.control_messages,
            state.data_messages,
            state.flit_hops,
            state.router_traversals,
            &state.latency,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::config::SystemConfig;

    fn network() -> Network {
        let config = SystemConfig::paper_default();
        Network::new(&config.network, config.cache_line_bytes)
    }

    #[test]
    fn message_sizes_match_table1() {
        let net = network();
        assert_eq!(net.message_flits(MessageKind::Control), 1);
        assert_eq!(net.message_flits(MessageKind::Data), 9);
    }

    #[test]
    fn base_latency_is_hops_times_hop_latency_plus_serialization() {
        let net = network();
        // Core 0 is at (0,0), core 9 is at (1,1) on an 8-wide mesh: 2 hops.
        let lat = net.base_latency(CoreId::new(0), CoreId::new(9), MessageKind::Control);
        assert_eq!(lat.value(), 4);
        let lat = net.base_latency(CoreId::new(0), CoreId::new(9), MessageKind::Data);
        assert_eq!(lat.value(), 4 + 8);
        // Local delivery is free.
        let lat = net.base_latency(CoreId::new(5), CoreId::new(5), MessageKind::Data);
        assert_eq!(lat.value(), 8); // serialization only, no hops
    }

    #[test]
    fn send_local_message_is_instant() {
        let mut net = network();
        let d = net.send(
            CoreId::new(3),
            CoreId::new(3),
            MessageKind::Data,
            Cycle::new(100),
        );
        assert_eq!(d.latency, Cycle::ZERO);
        assert_eq!(d.arrival, Cycle::new(100));
        assert_eq!(d.hops, 0);
    }

    #[test]
    fn send_matches_base_latency_without_contention() {
        let mut net = network();
        let src = CoreId::new(0);
        let dst = CoreId::new(63);
        let base = net.base_latency(src, dst, MessageKind::Data);
        let d = net.send(src, dst, MessageKind::Data, Cycle::ZERO);
        assert_eq!(d.latency, base);
        assert_eq!(d.hops, 14);
        assert_eq!(d.flits, 9);
    }

    #[test]
    fn contention_delays_second_message_on_same_link() {
        let mut net = network();
        let src = CoreId::new(0);
        let dst = CoreId::new(1);
        let first = net.send(src, dst, MessageKind::Data, Cycle::ZERO);
        let second = net.send(src, dst, MessageKind::Data, Cycle::ZERO);
        // The first message finds the link idle and takes exactly the base
        // latency; the second queues behind it.
        assert_eq!(first.latency, net.base_latency(src, dst, MessageKind::Data));
        assert!(
            second.latency > first.latency,
            "second message must queue behind the first"
        );
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut net = network();
        let a = net.send(
            CoreId::new(0),
            CoreId::new(1),
            MessageKind::Data,
            Cycle::ZERO,
        );
        let b = net.send(
            CoreId::new(16),
            CoreId::new(17),
            MessageKind::Data,
            Cycle::ZERO,
        );
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn round_trip_adds_both_directions() {
        let mut net = network();
        let d = net.round_trip(
            CoreId::new(0),
            CoreId::new(7),
            MessageKind::Control,
            MessageKind::Data,
            Cycle::new(10),
        );
        assert_eq!(d.hops, 14);
        assert_eq!(d.flits, 10);
        assert!(d.arrival.value() > 10);
        // Round trip latency >= sum of base latencies.
        let net2 = network();
        let there = net2.base_latency(CoreId::new(0), CoreId::new(7), MessageKind::Control);
        let back = net2.base_latency(CoreId::new(7), CoreId::new(0), MessageKind::Data);
        assert!(d.latency.value() >= (there + back).value());
    }

    #[test]
    fn state_roundtrip_preserves_contention_and_stats() {
        let mut net = network();
        net.send(
            CoreId::new(0),
            CoreId::new(5),
            MessageKind::Data,
            Cycle::ZERO,
        );
        net.send(
            CoreId::new(0),
            CoreId::new(5),
            MessageKind::Control,
            Cycle::new(1),
        );

        let state = net.state();
        let mut restored = network();
        restored.restore_state(&state);
        assert_eq!(restored.state(), state);

        // The restored network queues a new message behind the same link
        // occupancy and keeps accumulating the same statistics.
        let expect = net.send(
            CoreId::new(0),
            CoreId::new(5),
            MessageKind::Data,
            Cycle::new(2),
        );
        let got = restored.send(
            CoreId::new(0),
            CoreId::new(5),
            MessageKind::Data,
            Cycle::new(2),
        );
        assert_eq!(got, expect);
        assert_eq!(restored.state(), net.state());
    }

    #[test]
    #[should_panic(expected = "different mesh")]
    fn restore_rejects_wrong_topology() {
        let net = network();
        let state = net.state();
        let small = SystemConfig::small_test();
        let mut other = Network::new(&small.network, small.cache_line_bytes);
        other.restore_state(&state);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut net = network();
        net.send(
            CoreId::new(0),
            CoreId::new(2),
            MessageKind::Data,
            Cycle::ZERO,
        );
        net.send(
            CoreId::new(0),
            CoreId::new(2),
            MessageKind::Control,
            Cycle::ZERO,
        );
        let stats = net.stats();
        assert_eq!(stats.messages(), 2);
        assert_eq!(stats.data_messages(), 1);
        assert_eq!(stats.control_messages(), 1);
        assert_eq!(stats.flit_hops(), 9 * 2 + 2);
        assert_eq!(stats.router_traversals(), (2 + 1) * 9 + (2 + 1));
        assert!(stats.max_latency().value() > 0);
        // Restoring an idle network's snapshot clears the statistics.
        net.restore_state(&network().state());
        assert_eq!(net.stats().messages(), 0);
        assert_eq!(net.stats().flit_hops(), 0);
    }
}
