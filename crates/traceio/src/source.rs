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
    /// A whole-trace pass calls this once per access, so it must not cost
    /// more as cores drain: in-memory sources drain cores in index order
    /// from the lowest core not yet drained, streaming sources serve their
    /// native order.
    ///
    /// # Errors
    ///
    /// Source-specific decode or I/O failures.
    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError>;
}

/// Per-core read positions over an in-memory [`WorkloadTrace`], the cursor
/// state [`MemorySource`] and [`GeneratorSource`] share.
#[derive(Debug)]
struct Cursors {
    positions: Vec<usize>,
    /// Every core below this one is drained, so a whole-trace pass resumes
    /// here instead of rescanning them.
    first_live: usize,
}

impl Cursors {
    fn new(num_cores: usize) -> Self {
        Cursors {
            positions: vec![0; num_cores],
            first_live: 0,
        }
    }

    fn rewind(&mut self) {
        self.positions.iter_mut().for_each(|p| *p = 0);
        self.first_live = 0;
    }

    fn next_for_core(&mut self, trace: &WorkloadTrace, core: CoreId) -> Option<MemoryAccess> {
        let position = &mut self.positions[core.index()];
        let access = trace.core_stream(core).get(*position).copied();
        if access.is_some() {
            *position += 1;
        }
        access
    }

    /// Core-major order: the next access of the lowest core not yet drained.
    fn next_access(&mut self, trace: &WorkloadTrace) -> Option<MemoryAccess> {
        while self.first_live < self.positions.len() {
            let access = self.next_for_core(trace, CoreId::new(self.first_live));
            if access.is_some() {
                return access;
            }
            self.first_live += 1;
        }
        None
    }
}

/// [`TraceSource`] over a borrowed in-memory [`WorkloadTrace`].
#[derive(Debug)]
pub struct MemorySource<'a> {
    trace: &'a WorkloadTrace,
    cursors: Cursors,
}

impl<'a> MemorySource<'a> {
    /// Wraps a trace; the first pass needs no explicit `rewind`.
    pub fn new(trace: &'a WorkloadTrace) -> Self {
        MemorySource {
            cursors: Cursors::new(trace.num_cores()),
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
        self.cursors.rewind();
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        Ok(self.cursors.next_for_core(self.trace, core))
    }

    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        Ok(self.cursors.next_access(self.trace))
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
    cursors: Cursors,
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
            cursors: Cursors::new(num_cores),
        }
    }

    /// The trace, generated on first use, and the cursors over it.
    fn materialized(&mut self) -> (&WorkloadTrace, &mut Cursors) {
        let trace = self.trace.get_or_insert_with(|| {
            self.generator
                .generate(self.num_cores, self.accesses_per_core, self.seed)
        });
        (trace, &mut self.cursors)
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
        self.cursors.rewind();
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        let (trace, cursors) = self.materialized();
        Ok(cursors.next_for_core(trace, core))
    }

    fn next_access(&mut self) -> Result<Option<MemoryAccess>, TraceError> {
        let (trace, cursors) = self.materialized();
        Ok(cursors.next_access(trace))
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
    /// Accesses parked in `queues`, so a whole-trace pass scans them only
    /// when one is waiting.
    parked: usize,
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
            parked: 0,
            reader: Some(reader),
            exhausted: false,
        })
    }

    /// Accesses currently parked in per-core queues (exposed so tests can
    /// assert the skew bound of interleaved files).
    pub fn queued_accesses(&self) -> usize {
        self.parked
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
        self.parked = 0;
        self.exhausted = false;
        let mut input = reader.into_inner();
        input.seek(SeekFrom::Start(0))?;
        self.reader = Some(TraceReader::new(input)?);
        Ok(())
    }

    fn next_for_core(&mut self, core: CoreId) -> Result<Option<MemoryAccess>, TraceError> {
        loop {
            if let Some(access) = self.queues[core.index()].pop_front() {
                self.parked -= 1;
                return Ok(Some(access));
            }
            if self.exhausted {
                return Ok(None);
            }
            let Some(reader) = self.reader.as_mut() else {
                return Err(TraceError::SourcePoisoned);
            };
            match reader.next_access()? {
                Some(access) => {
                    self.queues[access.core.index()].push_back(access);
                    self.parked += 1;
                }
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
        if self.parked > 0 {
            if let Some(queue) = self.queues.iter_mut().find(|q| !q.is_empty()) {
                self.parked -= 1;
                return Ok(queue.pop_front());
            }
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

    /// The same trace through each of the three sources.
    fn every_source<'a>(trace: &'a WorkloadTrace, bytes: &[u8]) -> Vec<Box<dyn TraceSource + 'a>> {
        vec![
            Box::new(MemorySource::from(trace)),
            Box::new(GeneratorSource::new(
                TraceGenerator::new(Benchmark::Dedup.profile()),
                4,
                60,
                11,
            )),
            Box::new(ReaderSource::new(std::io::Cursor::new(bytes.to_vec())).unwrap()),
        ]
    }

    /// Drains `source` through `next_access`, grouping accesses by core.
    fn drain_by_core(source: &mut dyn TraceSource) -> Vec<Vec<MemoryAccess>> {
        let mut streams = vec![Vec::new(); source.num_cores()];
        while let Some(access) = source.next_access().unwrap() {
            streams[access.core.index()].push(access);
        }
        assert!(source.next_access().unwrap().is_none());
        streams
    }

    #[test]
    fn next_access_serves_the_rest_of_the_trace_after_next_for_core_calls() {
        let trace = trace();
        let bytes = encode_workload(&trace, 11).unwrap();
        for core in 0..4 {
            let stream = trace.core_stream(CoreId::new(core));
            for k in [1, 7, stream.len() / 2, stream.len()] {
                for mut source in every_source(&trace, &bytes) {
                    for expected in &stream[..k] {
                        let access = source.next_for_core(CoreId::new(core)).unwrap();
                        assert_eq!(access.as_ref(), Some(expected));
                    }
                    let rest = drain_by_core(source.as_mut());
                    for (c, served) in rest.iter().enumerate() {
                        let skip = if c == core { k } else { 0 };
                        assert_eq!(
                            served.as_slice(),
                            &trace.core_stream(CoreId::new(c))[skip..],
                            "{}: core {c} after {k} next_for_core calls on core {core}",
                            source.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rewind_restarts_a_pure_next_access_pass() {
        let trace = trace();
        let bytes = encode_workload(&trace, 11).unwrap();
        let whole: Vec<&[MemoryAccess]> =
            (0..4).map(|c| trace.core_stream(CoreId::new(c))).collect();
        for mut source in every_source(&trace, &bytes) {
            // Leave the source mid-trace, with both kinds of call.
            source.next_for_core(CoreId::new(3)).unwrap();
            source.next_access().unwrap();
            source.rewind().unwrap();
            assert_eq!(drain_by_core(source.as_mut()), whole);
            source.rewind().unwrap();
            assert_eq!(drain_by_core(source.as_mut()), whole);
        }
        // In-memory sources yield core-major order.
        let core_major: Vec<MemoryAccess> = whole.concat();
        let mut memory = MemorySource::from(&trace);
        let served: Vec<MemoryAccess> =
            std::iter::from_fn(|| memory.next_access().unwrap()).collect();
        assert_eq!(served, core_major);
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
