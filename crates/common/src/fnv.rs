//! FNV-1a 64, the workspace's one content hash: trace digests
//! (`lad_traceio::digest`, which re-exports it), the service's request and
//! sealed-artifact fingerprints, and the per-test seeds of the `proptest`
//! stand-in.

/// The FNV-1a 64 offset basis: the hash of the empty string, and the
/// `hash` to start [`fnv1a`] from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a 64 hash over `bytes`, starting from `hash`
/// ([`FNV_OFFSET_BASIS`] for a fresh hash).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}
