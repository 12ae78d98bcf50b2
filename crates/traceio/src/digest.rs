//! Content digests of traces: a streaming FNV-1a 64 over *decoded* accesses.
//!
//! The digest identifies what a trace **means**, not how it is stored: it
//! covers the core count, the benchmark label and every decoded access in
//! per-core program order, but neither the container's chunking nor the
//! header's provenance seed.  Re-encoding a trace with a different chunk
//! size (or re-recording it under a different seed annotation) therefore
//! preserves the digest, which is exactly the property a content-addressed
//! result cache needs: two files that replay identically share a key.
//!
//! Cross-core interleaving is canonicalized by hashing each core's stream
//! into its own FNV lane and folding the lanes together in core order, so
//! any complete traversal order (file order, core-major order, ...) yields
//! the same digest.

use std::io::{Read, Seek};
use std::path::Path;

use lad_common::types::{MemOp, MemoryAccess};
use lad_trace::generator::WorkloadTrace;

use crate::error::TraceError;
use crate::source::{ReaderSource, TraceSource};

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

/// A 64-bit content digest of a trace.
///
/// Displayed (and conventionally stored) as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceDigest(u64);

impl TraceDigest {
    /// The raw 64-bit digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The canonical 16-hex-digit rendering (same as [`std::fmt::Display`]).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Streaming digest accumulator.
///
/// Feed every access of a trace (in any complete order that preserves each
/// core's program order — the [`TraceSource`] contract) and call
/// [`DigestBuilder::finish`].
#[derive(Debug, Clone)]
pub struct DigestBuilder {
    header: u64,
    lanes: Vec<u64>,
    counts: Vec<u64>,
}

impl DigestBuilder {
    /// Starts a digest over a trace of `num_cores` cores labelled
    /// `benchmark`.
    pub fn new(num_cores: usize, benchmark: &str) -> Self {
        let mut header = fnv1a(FNV_OFFSET_BASIS, &(num_cores as u64).to_le_bytes());
        header = fnv1a(header, &(benchmark.len() as u64).to_le_bytes());
        header = fnv1a(header, benchmark.as_bytes());
        DigestBuilder {
            header,
            lanes: vec![FNV_OFFSET_BASIS; num_cores],
            counts: vec![0; num_cores],
        }
    }

    /// Absorbs one decoded access into its core's lane.
    ///
    /// # Panics
    ///
    /// Panics if the access names a core outside the range the builder was
    /// created for (sources validate cores before handing accesses out).
    pub fn record(&mut self, access: &MemoryAccess) {
        let core = access.core.index();
        assert!(
            core < self.lanes.len(),
            "access names core {core} of a {}-core digest",
            self.lanes.len()
        );
        let op = match access.op {
            MemOp::Read => 0u8,
            MemOp::Write => 1,
            MemOp::InstructionFetch => 2,
        };
        let mut lane = fnv1a(self.lanes[core], &access.address.value().to_le_bytes());
        lane = fnv1a(lane, &[op, access.class as u8]);
        lane = fnv1a(lane, &access.compute_cycles.to_le_bytes());
        self.lanes[core] = lane;
        self.counts[core] += 1;
    }

    /// Total accesses absorbed so far.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds the per-core lanes (in core order) into the final digest.
    pub fn finish(&self) -> TraceDigest {
        let mut hash = self.header;
        for (lane, count) in self.lanes.iter().zip(&self.counts) {
            hash = fnv1a(hash, &count.to_le_bytes());
            hash = fnv1a(hash, &lane.to_le_bytes());
        }
        TraceDigest(hash)
    }
}

/// Digests an in-memory workload trace.
pub fn digest_workload(trace: &WorkloadTrace) -> TraceDigest {
    let mut builder = DigestBuilder::new(trace.num_cores(), trace.name());
    for core in 0..trace.num_cores() {
        for access in trace.core_stream(lad_common::types::CoreId::new(core)) {
            builder.record(access);
        }
    }
    builder.finish()
}

/// Digests a whole [`TraceSource`] and rewinds it, so the source can go
/// straight into a replay afterwards.
///
/// # Errors
///
/// Decode/I/O errors from the source (including rewind failures).
pub fn digest_source(source: &mut dyn TraceSource) -> Result<TraceDigest, TraceError> {
    let name = source.name().to_string();
    let mut builder = DigestBuilder::new(source.num_cores(), &name);
    while let Some(access) = source.next_access()? {
        builder.record(&access);
    }
    source.rewind()?;
    Ok(builder.finish())
}

/// Digests a LADT stream.
///
/// # Errors
///
/// Header/frame decode errors and I/O errors.
pub fn digest_reader<R: Read + Seek>(input: R) -> Result<TraceDigest, TraceError> {
    let mut source = ReaderSource::new(input)?;
    digest_source(&mut source)
}

/// Digests a `.ladt` file.
///
/// # Errors
///
/// File-open errors plus everything [`digest_reader`] can report.
pub fn digest_file(path: impl AsRef<Path>) -> Result<TraceDigest, TraceError> {
    let mut source = crate::source::FileSource::open(path)?;
    digest_source(&mut source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceHeader;
    use crate::writer::{encode_workload, TraceWriter};
    use lad_trace::benchmarks::Benchmark;
    use lad_trace::generator::TraceGenerator;

    fn trace() -> WorkloadTrace {
        TraceGenerator::new(Benchmark::Barnes.profile()).generate(4, 80, 13)
    }

    fn encode_with_chunk(trace: &WorkloadTrace, seed: u64, chunk: usize) -> Vec<u8> {
        let header = TraceHeader::new(trace.num_cores(), trace.name(), seed);
        let mut writer = TraceWriter::with_chunk_size(Vec::new(), header, chunk).unwrap();
        writer.write_workload(trace).unwrap();
        writer.finish().unwrap()
    }

    #[test]
    fn reencoding_preserves_the_digest() {
        let trace = trace();
        let reference = digest_workload(&trace);
        // Different chunk sizes interleave frames differently, and the seed
        // annotation is provenance only: none of it may move the digest.
        for (chunk, seed) in [(3usize, 13u64), (7, 13), (4096, 99), (1, 0)] {
            let bytes = encode_with_chunk(&trace, seed, chunk);
            let digest = digest_reader(std::io::Cursor::new(bytes)).unwrap();
            assert_eq!(digest, reference, "chunk={chunk} seed={seed}");
        }
    }

    #[test]
    fn digest_is_sensitive_to_content_cores_and_name() {
        let base = trace();
        let reference = digest_workload(&base);
        // One more access per core.
        let longer = TraceGenerator::new(Benchmark::Barnes.profile()).generate(4, 81, 13);
        assert_ne!(digest_workload(&longer), reference);
        // Same generator parameters, different benchmark (profile + label).
        let renamed = TraceGenerator::new(Benchmark::Dedup.profile()).generate(4, 80, 13);
        assert_ne!(digest_workload(&renamed), reference);
        // Different core count.
        let wider = TraceGenerator::new(Benchmark::Barnes.profile()).generate(8, 80, 13);
        assert_ne!(digest_workload(&wider), reference);
    }

    #[test]
    fn digest_source_rewinds_for_replay() {
        let trace = trace();
        let bytes = encode_workload(&trace, 13).unwrap();
        let mut source = ReaderSource::new(std::io::Cursor::new(bytes)).unwrap();
        let digest = digest_source(&mut source).unwrap();
        assert_eq!(digest, digest_workload(&trace));
        // The source starts over cleanly: digesting again agrees.
        assert_eq!(digest_source(&mut source).unwrap(), digest);
    }

    #[test]
    fn hex_roundtrip_and_display() {
        let digest = digest_workload(&trace());
        let hex = digest.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(hex, digest.to_string());
        assert_eq!(u64::from_str_radix(&hex, 16), Ok(digest.value()));
    }

    #[test]
    fn truncated_streams_error_instead_of_digesting() {
        let mut bytes = encode_workload(&trace(), 13).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(digest_reader(std::io::Cursor::new(bytes)).is_err());
    }
}
