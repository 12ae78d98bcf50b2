//! Network message kinds and delivery results.

use lad_common::types::Cycle;

/// The two sizes of message the coherence protocol exchanges.
///
/// Table 1: a header (source, destination, address, message type) fits in a
/// single 64-bit flit; a cache line adds 8 more flits.  The locality-aware
/// protocol piggybacks the 2-bit replica-reuse counter in the header's spare
/// bits (Section 2.4.3), so no message grows by carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Header-only message: requests, invalidations, acknowledgements,
    /// downgrades.
    Control,
    /// Header + cache-line payload: data replies, write-backs.
    Data,
}

/// The outcome of injecting one message into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Cycle at which the tail flit arrives at the destination.
    pub arrival: Cycle,
    /// Total latency experienced by the message (arrival − injection).
    pub latency: Cycle,
    /// Number of router-to-router hops traversed.
    pub hops: usize,
    /// Number of flits in the message.
    pub flits: usize,
}
