//! Network message kinds.

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
