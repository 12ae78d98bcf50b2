//! [`TraceSource`]: the streaming abstraction simulations consume traces
//! through.
//!
//! `Simulator::run` interleaves cores by their local clocks (always advance
//! the core that is furthest behind), so a source must be able to hand out
//! *per-core* streams — [`TraceSource::next_for_core`] — rather than one
//! flat sequence.  Three implementations cover the repo's scenario classes:
//!
//! * [`MemorySource`] — borrows an in-memory [`WorkloadTrace`];
//!   `Simulator::run` itself is a thin wrapper over it.
//! * [`GeneratorSource`] — materializes a synthetic trace from a
//!   [`TraceGenerator`] on first use.
//! * [`ReaderSource`] — streams a LADT file in O(chunk-per-core) memory;
//!   [`FileSource`] is its `BufReader<File>` alias with a path-based
//!   constructor.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use lad_common::fault::{FaultInjector, FaultSite, FaultyRead};
use lad_common::types::{CoreId, MemoryAccess};
use lad_trace::generator::{TraceGenerator, WorkloadTrace};

use crate::error::TraceError;
use crate::reader::TraceReader;

/// A rewindable, per-core stream of memory accesses.
///
/// The contract simulations rely on:
///
/// * streams span cores `0..num_cores`;
/// * [`TraceSource::rewind`] restarts **every** core's stream from the
///   beginning (sources may be replayed many times, e.g. a profiling pass
///   followed by an execution pass, or one file under seven schemes);
/// * [`TraceSource::next_for_core`] yields one core's accesses in program
///   order, independently of how other cores' streams are consumed;
/// * [`TraceSource::next_access`] yields the whole trace in *some* complete
///   order that preserves each core's program order — order-insensitive
///   whole-trace passes (profiling, stats) should prefer it, because
///   sources can serve it in their cheapest order (file order for
///   [`ReaderSource`], which keeps memory O(chunk) instead of parking
///   other cores' accesses in queues).
pub trait TraceSource {
    /// Benchmark name, used to label the resulting report.
    fn name(&self) -> &str;

    /// Number of cores the trace spans.
    fn num_cores(&self) -> usize;

    /// Restarts every core's stream from the beginning.
    ///
    /// # Errors
    ///
    /// Source-specific (e.g. seek/reopen failures for file-backed sources).
    fn rewind(&mut self) -> Result<(), TraceError>;

    /// The next access of `core`'s stream, or `None` when it is exhausted.
    ///
    /// # Errors
    ///
    /// Source-specific decode or I/O failures.
    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError>;

    /// The next access of the trace in the source's cheapest complete
    /// order (each core's stream still arrives in program order), or
    /// `None` when every stream is exhausted.  Do not interleave with
    /// [`TraceSource::next_for_core`] in the same pass: the combined order
    /// is unspecified (no access is ever lost or duplicated, though).
    ///
    /// The default drains cores in index order — correct for any source;
    /// streaming sources override it with their native order.
    ///
    /// # Errors
    ///
    /// Source-specific decode or I/O failures.
    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        for core in 0..self.num_cores() {
            if let Some(access) = self.next_for_core(CoreId::new(core))? {
                return Ok(Some(access));
            }
        }
        Ok(None)
    }
}

/// [`TraceSource`] over a borrowed in-memory [`WorkloadTrace`].
#[derive(Debug)]
pub struct MemorySource<'a> {
    trace: &'a WorkloadTrace,
    cursors: Vec<usize>,
}

impl<'a> MemorySource<'a> {
    /// Wraps a trace; the first pass needs no explicit `rewind`.
    pub fn new(trace: &'a WorkloadTrace) -> Self {
        MemorySource {
            cursors: vec![0; trace.num_cores()],
            trace,
        }
    }
}

impl<'a> From<&'a WorkloadTrace> for MemorySource<'a> {
    fn from(trace: &'a WorkloadTrace) -> Self {
        MemorySource::new(trace)
    }
}

impl TraceSource for MemorySource<'_> {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn num_cores(&self) -> usize {
        self.trace.num_cores()
    }

    fn rewind(&mut self) -> Result<(), TraceError> {
        self.cursors.iter_mut().for_each(|c| *c = 0);
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        let stream = self.trace.core_stream(core);
        let cursor = &mut self.cursors[core.index()];
        let access = stream.get(*cursor).copied();
        if access.is_some() {
            *cursor += 1;
        }
        Ok(access)
    }
}

/// [`TraceSource`] that materializes a synthetic trace from a
/// [`TraceGenerator`] on first use (generation is deterministic from the
/// seed, so rewinding replays the identical trace without regenerating).
#[derive(Debug)]
pub struct GeneratorSource {
    generator: TraceGenerator,
    num_cores: usize,
    accesses_per_core: usize,
    seed: u64,
    trace: Option<WorkloadTrace>,
    cursors: Vec<usize>,
}

impl GeneratorSource {
    /// Creates a source that will generate `accesses_per_core` accesses for
    /// each of `num_cores` cores from `seed`.
    pub fn new(
        generator: TraceGenerator,
        num_cores: usize,
        accesses_per_core: usize,
        seed: u64,
    ) -> Self {
        GeneratorSource {
            generator,
            num_cores,
            accesses_per_core,
            seed,
            trace: None,
            cursors: vec![0; num_cores],
        }
    }

    fn trace(&mut self) -> &WorkloadTrace {
        if self.trace.is_none() {
            self.trace = Some(self.generator.generate(
                self.num_cores,
                self.accesses_per_core,
                self.seed,
            ));
        }
        match self.trace.as_ref() {
            Some(trace) => trace,
            None => unreachable!("just generated"),
        }
    }
}

impl TraceSource for GeneratorSource {
    fn name(&self) -> &str {
        self.generator.profile().name
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    fn rewind(&mut self) -> Result<(), TraceError> {
        self.cursors.iter_mut().for_each(|c| *c = 0);
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        self.trace();
        let Some(trace) = self.trace.as_ref() else {
            unreachable!("materialized above");
        };
        let stream = trace.core_stream(core);
        let cursor = &mut self.cursors[core.index()];
        let access = stream.get(*cursor).copied();
        if access.is_some() {
            *cursor += 1;
        }
        Ok(access)
    }
}

/// Streaming [`TraceSource`] over a LADT stream.
///
/// Frames are decoded in file order; accesses of cores other than the one
/// being asked for wait in per-core queues.  With chunk-interleaved files
/// (what [`TraceWriter::write_workload`](crate::writer::TraceWriter) emits)
/// the queues stay bounded by one chunk per core, so replay runs in
/// O(`num_cores` × chunk) memory however large the file is.
#[derive(Debug)]
pub struct ReaderSource<R: Read + Seek> {
    name: String,
    num_cores: usize,
    reader: Option<TraceReader<R>>,
    queues: Vec<VecDeque<MemoryAccess>>,
    exhausted: bool,
}

impl<R: Read + Seek> ReaderSource<R> {
    /// Opens a source over a seekable stream (the header is read
    /// immediately).
    ///
    /// # Errors
    ///
    /// Header decode errors.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let reader = TraceReader::new(input)?;
        let header = reader.header();
        Ok(ReaderSource {
            name: header.benchmark.clone(),
            num_cores: header.num_cores,
            queues: vec![VecDeque::new(); header.num_cores],
            reader: Some(reader),
            exhausted: false,
        })
    }

    /// Accesses currently parked in per-core queues (exposed so tests can
    /// assert the skew bound of interleaved files).
    pub fn queued_accesses(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

impl<R: Read + Seek> TraceSource for ReaderSource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// A failed rewind (seek or header re-read error) leaves the source
    /// *poisoned*: the stream position is unknown, so every subsequent call
    /// returns [`TraceError::SourcePoisoned`] instead of decoding garbage.
    fn rewind(&mut self) -> Result<(), TraceError> {
        let Some(reader) = self.reader.take() else {
            return Err(TraceError::SourcePoisoned);
        };
        // Drop parked pre-rewind accesses up front so a failed seek cannot
        // leave them to be served against a half-restarted stream.
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.exhausted = false;
        let mut input = reader.into_inner();
        input.seek(SeekFrom::Start(0))?;
        self.reader = Some(TraceReader::new(input)?);
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        loop {
            if let Some(access) = self.queues[core.index()].pop_front() {
                return Ok(Some(access));
            }
            if self.exhausted {
                return Ok(None);
            }
            let Some(reader) = self.reader.as_mut() else {
                return Err(TraceError::SourcePoisoned);
            };
            match reader.next_access()? {
                Some(access) => self.queues[access.core.index()].push_back(access),
                None => self.exhausted = true,
            }
        }
    }

    /// File order: straight off the underlying reader, so a whole-trace
    /// pass never parks accesses in per-core queues and memory stays
    /// O(chunk) regardless of trace size.
    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        // Serve anything a next_for_core call already parked first, so
        // mixed usage still yields every access exactly once.
        if let Some(queue) = self.queues.iter_mut().find(|q| !q.is_empty()) {
            return Ok(queue.pop_front());
        }
        if self.exhausted {
            return Ok(None);
        }
        let Some(reader) = self.reader.as_mut() else {
            return Err(TraceError::SourcePoisoned);
        };
        match reader.next_access()? {
            Some(access) => Ok(Some(access)),
            None => {
                self.exhausted = true;
                Ok(None)
            }
        }
    }
}

/// A [`ReaderSource`] over a buffered file.
pub type FileSource = ReaderSource<BufReader<File>>;

impl FileSource {
    /// Opens a `.ladt` file for streaming replay.
    ///
    /// # Errors
    ///
    /// File-open and header decode errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        ReaderSource::new(BufReader::new(File::open(path)?))
    }
}

/// A [`FileSource`] with a fault-injection seam at
/// [`FaultSite::TraceRead`]: every read of the underlying file consults the
/// injector, so seeded plans can surface short reads, `EINTR`, dropped
/// streams and spurious EOF mid-replay.  With a disarmed injector this is
/// a [`FileSource`] plus one branch per read.
pub type FaultyFileSource = ReaderSource<FaultyRead<BufReader<File>>>;

impl FaultyFileSource {
    /// Opens a `.ladt` file for streaming replay with `injector` armed on
    /// the read path.
    ///
    /// # Errors
    ///
    /// File-open and header decode errors (injected faults can surface as
    /// either).
    pub fn open_faulty(
        path: impl AsRef<Path>,
        injector: FaultInjector,
    ) -> Result<Self, TraceError> {
        ReaderSource::new(FaultyRead::new(
            BufReader::new(File::open(path)?),
            FaultSite::TraceRead,
            injector,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::encode_workload;
    use lad_trace::benchmarks::Benchmark;

    fn trace() -> WorkloadTrace {
        TraceGenerator::new(Benchmark::Dedup.profile()).generate(4, 60, 11)
    }

    fn drain(source: &mut impl TraceSource, core: usize) -> Vec<MemoryAccess> {
        let mut out = Vec::new();
        while let Some(access) = source.next_for_core(CoreId::new(core)).unwrap() {
            out.push(access);
        }
        out
    }

    #[test]
    fn memory_source_replays_streams_and_rewinds() {
        let trace = trace();
        let mut source = MemorySource::from(&trace);
        assert_eq!(source.name(), trace.name());
        assert_eq!(source.num_cores(), 4);
        let first = drain(&mut source, 2);
        assert_eq!(first.as_slice(), trace.core_stream(CoreId::new(2)));
        assert!(source.next_for_core(CoreId::new(2)).unwrap().is_none());
        source.rewind().unwrap();
        assert_eq!(drain(&mut source, 2), first);
    }

    #[test]
    fn generator_source_matches_direct_generation() {
        let generator = TraceGenerator::new(Benchmark::Dedup.profile());
        let direct = generator.generate(4, 60, 11);
        let mut source = GeneratorSource::new(generator, 4, 60, 11);
        assert_eq!(source.name(), "DEDUP");
        for core in 0..4 {
            assert_eq!(
                drain(&mut source, core).as_slice(),
                direct.core_stream(CoreId::new(core))
            );
        }
        source.rewind().unwrap();
        assert_eq!(
            drain(&mut source, 0).as_slice(),
            direct.core_stream(CoreId::new(0))
        );
    }

    #[test]
    fn failed_rewind_poisons_the_source_instead_of_panicking() {
        use std::io::{Read, Seek, SeekFrom};

        /// Seekable stream whose seeks fail after the first `allowed`.
        struct FlakySeek {
            inner: std::io::Cursor<Vec<u8>>,
            seeks_left: usize,
        }
        impl Read for FlakySeek {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.inner.read(buf)
            }
        }
        impl Seek for FlakySeek {
            fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
                if self.seeks_left == 0 {
                    return Err(std::io::Error::other("seek lost"));
                }
                self.seeks_left -= 1;
                self.inner.seek(pos)
            }
        }

        let trace = trace();
        let bytes = encode_workload(&trace, 11).unwrap();
        let mut source = ReaderSource::new(FlakySeek {
            inner: std::io::Cursor::new(bytes),
            seeks_left: 0,
        })
        .unwrap();
        assert!(source.next_for_core(CoreId::new(0)).unwrap().is_some());
        // The failed seek surfaces as the I/O error it is...
        assert!(matches!(source.rewind(), Err(TraceError::Io(_))));
        // ...and every later call reports the poisoned state, never panics.
        assert!(matches!(
            source.next_for_core(CoreId::new(0)),
            Err(TraceError::SourcePoisoned)
        ));
        assert!(matches!(
            source.next_access(),
            Err(TraceError::SourcePoisoned)
        ));
        assert!(matches!(source.rewind(), Err(TraceError::SourcePoisoned)));
    }

    #[test]
    fn faulty_file_source_absorbs_benign_faults_byte_identically() {
        use lad_common::fault::FaultPlan;

        let trace = trace();
        let bytes = encode_workload(&trace, 11).unwrap();
        let dir = std::env::temp_dir().join(format!("ladt-faulty-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dedup.ladt");
        std::fs::write(&path, &bytes).unwrap();

        // Short reads and EINTR are legal `Read` behaviour; the decode
        // layer must absorb them without changing a single access.
        let plan = FaultPlan::parse(
            "trace-read:1:interrupt;trace-read:2:short;trace-read:3:short;trace-read:5:interrupt",
        )
        .unwrap();
        let mut faulty = FaultyFileSource::open_faulty(&path, FaultInjector::armed(plan)).unwrap();
        let mut clean = FileSource::open(&path).unwrap();
        for core in 0..4 {
            assert_eq!(drain(&mut faulty, core), drain(&mut clean, core));
        }

        // A dropped stream surfaces as a typed I/O error, never a panic —
        // whether it fires during the header decode at open or mid-stream.
        let plan = FaultPlan::parse("trace-read:20:drop").unwrap();
        let mut saw_error = false;
        match FaultyFileSource::open_faulty(&path, FaultInjector::armed(plan)) {
            Err(TraceError::Io(_)) => saw_error = true,
            Err(other) => panic!("unexpected error class at open: {other:?}"),
            Ok(mut dropped) => {
                'cores: for core in 0..4 {
                    loop {
                        match dropped.next_for_core(CoreId::new(core)) {
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(TraceError::Io(_)) => {
                                saw_error = true;
                                break 'cores;
                            }
                            Err(other) => panic!("unexpected error class: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(saw_error, "the injected drop must surface");

        // Disarmed, the faulty alias behaves exactly like FileSource.
        let mut disarmed = FaultyFileSource::open_faulty(&path, FaultInjector::disarmed()).unwrap();
        let mut clean = FileSource::open(&path).unwrap();
        for core in 0..4 {
            assert_eq!(drain(&mut disarmed, core), drain(&mut clean, core));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_source_streams_a_roundtripped_file_per_core() {
        let trace = trace();
        let bytes = encode_workload(&trace, 11).unwrap();
        let mut source = ReaderSource::new(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(source.name(), trace.name());
        // Drain cores in reverse order to force queueing.
        for core in (0..4).rev() {
            assert_eq!(
                drain(&mut source, core).as_slice(),
                trace.core_stream(CoreId::new(core))
            );
        }
        // Rewind and do it again in forward order.
        source.rewind().unwrap();
        for core in 0..4 {
            assert_eq!(
                drain(&mut source, core).as_slice(),
                trace.core_stream(CoreId::new(core))
            );
        }
        assert_eq!(source.queued_accesses(), 0);
    }
}
