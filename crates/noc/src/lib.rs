//! Electrical 2-D mesh network-on-chip model.
//!
//! The paper's target (Table 1) uses an electrical 2-D mesh with XY routing,
//! a 2-cycle per-hop latency (1 router + 1 link), 64-bit flits, 1-flit
//! headers and 8-flit cache-line payloads.  In addition to the fixed per-hop
//! latency, *link contention* delays are modelled: each unidirectional link
//! serializes the flits of the messages crossing it, so a message arriving at
//! a busy link waits for the link to drain.
//!
//! The model is transaction-level: [`Network::send`] computes the arrival
//! cycle of one message injected at a given cycle, advances the busy
//! horizon of every link it crosses (the only per-link state), and records
//! the two event counts (router traversals and link-flit traversals) that
//! drive the energy model.
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
//! let (src, dst) = (CoreId::new(0), CoreId::new(63));
//! let arrival = net.send(src, dst, MessageKind::Data, Cycle::ZERO);
//! // 0 -> 63 on an 8x8 mesh is 7 + 7 = 14 hops at 2 cycles each, plus
//! // serialization of the 9-flit message.
//! assert_eq!(net.mesh().hops(src, dst), 14);
//! assert_eq!(net.message_flits(MessageKind::Data), 9);
//! assert_eq!(arrival, Cycle::new(14 * 2 + 8));
//! assert_eq!(arrival, net.base_latency(src, dst, MessageKind::Data));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod contention;
pub mod message;
pub mod topology;

pub use contention::{NetworkState, NetworkStats};
pub use message::MessageKind;
pub use topology::Mesh;

use lad_common::config::NetworkConfig;
use lad_common::types::{CoreId, Cycle};

use topology::{EAST, NORTH, SOUTH, WEST};

/// The on-chip network: topology, timing and contention state.  Every
/// message queues behind earlier traffic on the links it crosses.
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    /// `(x, y)` of every router, so routing a message divides nothing.
    positions: Vec<(usize, usize)>,
    hop_latency: u32,
    control_flits: usize,
    data_flits: usize,
    /// Cycle until which each link is busy serializing earlier messages.
    links: Vec<Cycle>,
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
        let positions = (0..mesh.height())
            .flat_map(|y| (0..mesh.width()).map(move |x| (x, y)))
            .collect();
        Network {
            mesh,
            positions,
            hop_latency: config.hop_latency,
            control_flits: config.control_message_flits(),
            data_flits: config.data_message_flits(line_bytes),
            links: vec![Cycle::ZERO; num_links],
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

    /// Sends a message from `src` to `dst`, injected at cycle `now`, and
    /// returns the cycle at which its tail flit arrives.  Local messages
    /// (`src == dst`) take zero network time.
    ///
    /// The message crosses the links of [`Mesh::route`] in order: X links
    /// first, one router apart, then Y links, one row apart.
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the mesh.
    pub fn send(&mut self, src: CoreId, dst: CoreId, kind: MessageKind, now: Cycle) -> Cycle {
        let flits = self.message_flits(kind);
        let (sx, sy) = self.positions[src.index()];
        let (dx, dy) = self.positions[dst.index()];
        let (x_hops, y_hops) = (sx.abs_diff(dx), sy.abs_diff(dy));
        self.stats.record(x_hops + y_hops, flits);
        if x_hops + y_hops == 0 {
            return now;
        }

        let width = self.mesh.width();
        let hop = u64::from(self.hop_latency);
        // Serialization: the tail flit leaves (flits - 1) cycles after the
        // head flit.
        let tail = (flits - 1) as u64;
        // X links leave the routers of the source's row, one router (4 link
        // ids) apart; Y links leave those of the destination's column, one
        // row apart.
        let x_base = (sy * width + sx) * 4;
        let (x_first, x_stride) = if dx > sx {
            (x_base + EAST, 4)
        } else {
            (x_base + WEST, -4)
        };
        let y_base = (sy * width + dx) * 4;
        let row = 4 * width as isize;
        let (y_first, y_stride) = if dy > sy {
            (y_base + NORTH, row)
        } else {
            (y_base + SOUTH, -row)
        };
        let head = cross(&mut self.links, x_first, x_stride, x_hops, now, hop, tail);
        let head = cross(&mut self.links, y_first, y_stride, y_hops, head, hop, tail);
        head + tail
    }

    /// The energy event counts accumulated so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Snapshots the link occupancy and event counts for checkpointing.
    pub fn state(&self) -> NetworkState {
        NetworkState {
            links: self.links.clone(),
            flit_hops: self.stats.flit_hops,
            router_traversals: self.stats.router_traversals,
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
        self.stats = NetworkStats {
            flit_hops: state.flit_hops,
            router_traversals: state.router_traversals,
        };
    }
}

/// Moves a message's head flit over `count` links, `stride` link ids apart
/// from `first`, and returns the cycle it leaves the last one.  The head
/// waits for each link to drain, then holds it for one hop plus the tail's
/// serialization.
fn cross(
    links: &mut [Cycle],
    first: usize,
    stride: isize,
    count: usize,
    mut head: Cycle,
    hop: u64,
    tail: u64,
) -> Cycle {
    let mut link = first;
    for _ in 0..count {
        let start = head.max(links[link]);
        links[link] = start + hop + tail;
        head = start + hop;
        link = link.wrapping_add_signed(stride);
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::config::SystemConfig;
    use lad_common::rng::DeterministicRng;

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
        let arrival = net.send(
            CoreId::new(3),
            CoreId::new(3),
            MessageKind::Data,
            Cycle::new(100),
        );
        assert_eq!(arrival, Cycle::new(100));
        assert_eq!(net.mesh().hops(CoreId::new(3), CoreId::new(3)), 0);
        // No link crossed; the 9 flits pass the local router only.
        assert_eq!(net.stats().flit_hops(), 0);
        assert_eq!(net.stats().router_traversals(), 9);
    }

    #[test]
    fn send_matches_base_latency_without_contention() {
        let mut net = network();
        let src = CoreId::new(0);
        let dst = CoreId::new(63);
        let base = net.base_latency(src, dst, MessageKind::Data);
        let arrival = net.send(src, dst, MessageKind::Data, Cycle::ZERO);
        assert_eq!(arrival.since(Cycle::ZERO), base);
        assert_eq!(net.mesh().hops(src, dst), 14);
        assert_eq!(net.message_flits(MessageKind::Data), 9);
        assert_eq!(net.stats().flit_hops(), 14 * 9);
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
        assert_eq!(first, net.base_latency(src, dst, MessageKind::Data));
        assert!(second > first, "second message must queue behind the first");
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
        assert_eq!(a, b);
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
        assert_eq!(stats.flit_hops(), 9 * 2 + 2);
        assert_eq!(stats.router_traversals(), (2 + 1) * 9 + (2 + 1));
        // Restoring an idle network's snapshot clears the statistics.
        net.restore_state(&network().state());
        assert_eq!(net.stats().flit_hops(), 0);
        assert_eq!(net.stats().router_traversals(), 0);
    }

    /// The per-link update `send` must reproduce, over the reference route:
    /// the head flit waits for each link to drain and holds it for one hop
    /// plus the tail's serialization; the message arrives when its tail
    /// leaves the last link.
    fn reference_send(
        mesh: &Mesh,
        links: &mut [Cycle],
        hop_latency: u32,
        flits: usize,
        (src, dst, now): (CoreId, CoreId, Cycle),
    ) -> Cycle {
        let mut head_time = now;
        let mut arrival = now;
        for link in mesh.route(src, dst) {
            let start = head_time.max(links[link]);
            let finish = start + hop_latency as u64 + (flits - 1) as u64;
            links[link] = finish;
            head_time = start + hop_latency as u64;
            arrival = finish;
        }
        arrival
    }

    #[test]
    fn send_matches_a_walk_over_the_reference_route() {
        // Square and non-square meshes; 128 cores leave two routers idle.
        for (cores, shape) in [(16, (4, 4)), (12, (4, 3)), (128, (13, 10)), (256, (16, 16))] {
            let config = SystemConfig::paper_default().with_num_cores(cores);
            let mut net = Network::new(&config.network, config.cache_line_bytes);
            let mesh = net.mesh().clone();
            assert_eq!((mesh.width(), mesh.height()), shape);
            let hop_latency = config.network.hop_latency;
            let mut links = vec![Cycle::ZERO; mesh.num_links()];
            let mut check = |net: &mut Network, message: (CoreId, CoreId, Cycle), kind| {
                let flits = net.message_flits(kind);
                let expected = reference_send(&mesh, &mut links, hop_latency, flits, message);
                let (src, dst, now) = message;
                assert_eq!(
                    net.send(src, dst, kind, now),
                    expected,
                    "{cores} cores: {src:?} -> {dst:?} at {now:?}"
                );
            };

            // Every ordered pair, four messages per cycle, so later
            // messages queue behind earlier ones.
            let mut sent = 0u64;
            for src in 0..cores {
                for dst in 0..cores {
                    let kind = if (src + dst) % 2 == 0 {
                        MessageKind::Control
                    } else {
                        MessageKind::Data
                    };
                    let now = Cycle::new(sent / 4);
                    check(&mut net, (CoreId::new(src), CoreId::new(dst), now), kind);
                    sent += 1;
                }
            }

            // A seeded random sequence of both kinds.
            let mut rng = DeterministicRng::seed_from(cores as u64);
            let mut now = Cycle::new(sent / 4);
            for _ in 0..20_000 {
                let src = CoreId::new(rng.index(cores));
                let dst = CoreId::new(rng.index(cores));
                let kind = if rng.chance(0.5) {
                    MessageKind::Data
                } else {
                    MessageKind::Control
                };
                now += rng.below(8);
                check(&mut net, (src, dst, now), kind);
            }
            assert_eq!(net.state().links, links, "{cores} cores: link horizons");
        }
    }
}
