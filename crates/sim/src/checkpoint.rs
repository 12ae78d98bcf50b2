//! Mid-stream engine checkpoints: a plain-data snapshot of every piece of
//! mutable simulator state plus the per-core stream cursor, with an exact
//! binary encoding carried inside a JSON wrapper.
//!
//! Two things are deliberately **not** serialized:
//!
//! * the R-NUCA home map and the per-line data classes — both are rebuilt by
//!   re-running the profiling pass on resume (`profile_access` is their only
//!   writer and converges to the same state in any complete order), and
//! * the per-core pending accesses — [`EngineCheckpoint::consumed`] counts
//!   the accesses each core has *stepped*, so resume fast-forwards each
//!   core's stream by that many accesses and re-fetches the pending window
//!   from the (deterministic) source.
//!
//! # Encoding
//!
//! [`EngineCheckpoint::to_json`] produces `{"format": 2, "bytes": "<hex>"}`:
//! the body is one binary blob, hex-encoded ([`lad_common::hex`]) so the
//! digest-sealed JSON envelope the service spills it in is unchanged.  The
//! body is built from the LADT codecs of [`lad_traceio::varint`]: every
//! integer is a LEB128 varint, and sorted sequences store zigzag deltas.
//! Sections, in order:
//!
//! 1. **header** — benchmark and scheme (length-prefixed UTF-8), active
//!    cores, RT, classifier capacity (`0` = Complete, `k + 1` = Limited_k);
//! 2. **tiles** — count, then per tile its clock and three caches (L1-I,
//!    L1-D, LLC slice), each as its LRU clock and the occupied slots
//!    `(slot, tag, stamp, entry)` with slot and tag delta-coded against the
//!    previous slot.  An L1 entry is one MESI byte; an LLC entry starts
//!    with one flag byte (home/replica, dirty, ACKwise global mode, owner
//!    present / L1 copy, replica MESI state) followed by the owner, pointer
//!    budget, tracked sharers, global sharer count and classifier entries
//!    `(core, mode|active byte, reuse)` of a home, or the reuse counter of a
//!    replica;
//! 3. **network** — each link's `busy_until`, then the flit-hop and
//!    router-traversal counts;
//! 4. **DRAM** — per-controller `(free_at, accesses)`;
//! 5. **RNG** — the four xoshiro256++ words as raw little-endian `u64`s;
//! 6. **energy** — the seven component totals as raw little-endian `f64`
//!    bits, so they round-trip exactly;
//! 7. **latency / misses** — the Figure 7 and Figure 8 counters;
//! 8. **run lengths** — closed-run histograms per class, then the open runs
//!    `(line, core, length, class)` with lines delta-coded in ascending
//!    order;
//! 9. **busy lines** — `(line, cycle)` with lines delta-coded, ascending;
//! 10. **totals** — replicas created, back-invalidations, accesses, the
//!     classifier variance totals, then one cursor per active core.
//!
//! The body must be consumed exactly; trailing bytes are an error.
//!
//! **Versioning.** A document whose `format` is not [`FORMAT`] — including
//! every all-JSON checkpoint written before the binary body existed, and
//! every format-1 body — is rejected by [`EngineCheckpoint::from_json`]; the
//! service then ignores the spill and reruns the cell from access 0, exactly
//! as for a stale one.
//!
//! # Validation
//!
//! Checkpoints come from outside the process, so nothing in them may reach
//! a panicking restore constructor.  [`EngineCheckpoint::from_json`] checks
//! everything that needs no simulator geometry (sharer-list budgets and
//! modes, owners tracked, unique classifier cores, counters ≤ RT, strictly
//! ascending slots, nonzero stamps ≤ the LRU clock, positive open-run
//! lengths, a non-zero RNG state, finite energies) and
//! [`Simulator::resume_source`] checks the rest against the simulator
//! before restoring anything: benchmark, cores, scheme, RT, classifier,
//! tile/link/controller counts, and every slot inside its cache and in its
//! tag's set.  Once restored, the state must also pass the `lad-check`
//! invariant catalog ([`Simulator::check_protocol_invariants`]): a body
//! whose values are each plausible but together incoherent (a line cached
//! by a core its directory does not track) is rejected before it runs.

use std::fmt;

use lad_cache::CacheState;
use lad_coherence::ackwise::AckwiseSharers;
use lad_coherence::directory::DirectoryEntry;
use lad_coherence::mesi::MesiState;
use lad_common::json::JsonValue;
use lad_common::stats::Histogram;
use lad_common::types::{CacheLine, CoreId, Cycle, DataClass};
use lad_dram::DramControllerState;
use lad_energy::accounting::{Component, EnergyAccounting};
use lad_noc::NetworkState;
use lad_replication::classifier::{
    ClassifierKind, LocalityClassifier, ReplicationMode, TrackedCore,
};
use lad_replication::counter::SaturatingCounter;
use lad_replication::entry::{HomeEntry, LlcEntry, ReplicaEntry};
use lad_traceio::varint;
use lad_traceio::TraceError;

use crate::metrics::{ClassifierStats, LatencyBreakdown, MissBreakdown, RunLengthProfile};

#[cfg(doc)]
use crate::Simulator;

/// The body encoding [`EngineCheckpoint::to_json`] writes and
/// [`EngineCheckpoint::from_json`] accepts.
pub const FORMAT: u64 = 2;

/// Snapshot of one tile: core clock plus the three cache arrays.
#[derive(Debug, Clone)]
pub struct TileCheckpoint {
    /// The core's local clock.
    pub clock: Cycle,
    /// The L1 instruction cache.
    pub l1i: CacheState<MesiState>,
    /// The L1 data cache.
    pub l1d: CacheState<MesiState>,
    /// The LLC slice (home lines and replicas).
    pub llc: CacheState<LlcEntry>,
}

/// A resumable mid-stream snapshot of a [`Simulator`].
///
/// Captured by [`Simulator::capture_checkpoint`] at a scheduling-loop
/// boundary; [`Simulator::resume_source`] continues the run from it with
/// results byte-identical to never having stopped.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Benchmark (stream) name — resume validates it against the source.
    pub benchmark: String,
    /// Cores the stream spans.
    pub num_cores: usize,
    /// Scheme label — resume validates it against the simulator.
    pub scheme: String,
    /// The replication threshold RT the classifier state was captured under.
    pub replication_threshold: u32,
    /// Classifier capacity: `None` = Complete, `Some(k)` = Limited_k.
    pub classifier_capacity: Option<usize>,
    /// Per-tile state, in core order (all tiles, not just active cores).
    pub tiles: Vec<TileCheckpoint>,
    /// Network link occupancy and energy event counts.
    pub network: NetworkState,
    /// Per-controller DRAM state.
    pub dram: Vec<DramControllerState>,
    /// The deterministic RNG's word state.
    pub rng: [u64; 4],
    /// Dynamic energy accumulated so far (cache/directory events only; the
    /// network and DRAM components are re-derived from their event counts).
    pub energy: EnergyAccounting,
    /// Completion-time components accumulated so far.
    pub latency: LatencyBreakdown,
    /// L1 miss breakdown accumulated so far.
    pub misses: MissBreakdown,
    /// Run-length profile, including still-open runs.
    pub run_lengths: RunLengthProfile,
    /// Per-line home-serialization horizon, sorted by line.
    pub line_busy_until: Vec<(CacheLine, Cycle)>,
    /// Total LLC replicas created.
    pub replicas_created: u64,
    /// Total back-invalidations from LLC evictions.
    pub back_invalidations: u64,
    /// Total accesses stepped.
    pub total_accesses: u64,
    /// Capture-time classifier variance totals (retired + live).  The
    /// per-entry diagnostic counters are *not* serialized — restored
    /// classifiers restart at the `from_snapshot` baseline and these
    /// totals seed the simulator's retired accumulators instead.
    pub classifier: ClassifierStats,
    /// Accesses each core has stepped — the stream cursor used to
    /// fast-forward the source on resume.
    pub consumed: Vec<u64>,
}

/// Why [`Simulator::resume_source`] could not continue a run.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint cannot continue this run: it does not fit the source
    /// or simulator (another benchmark, core count, scheme, classifier or
    /// geometry, or a cursor past the end of the stream), or the restored
    /// state violates a protocol invariant.  Nothing useful was restored;
    /// the caller should run from access 0 instead.
    Rejected(String),
    /// The trace source failed.
    Trace(TraceError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Rejected(why) => write!(f, "checkpoint rejected: {why}"),
            ResumeError::Trace(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Rejected(_) => None,
            ResumeError::Trace(err) => Some(err),
        }
    }
}

impl From<TraceError> for ResumeError {
    fn from(err: TraceError) -> Self {
        ResumeError::Trace(err)
    }
}

// ----- flag bytes ---------------------------------------------------------

/// LLC entry flag byte: bit 0 set for a replica, clear for a home.
const REPLICA: u8 = 1;
/// Both entry kinds: the LLC copy is dirty.
const DIRTY: u8 = 1 << 1;
/// Home: the ACKwise list is in global (broadcast) mode.
const GLOBAL: u8 = 1 << 2;
/// Home: an exclusive owner follows.  Replica: the local L1 holds a copy.
const OWNER_OR_L1_COPY: u8 = 1 << 3;
/// Replica: the MESI state in bits 4–5.
const STATE_SHIFT: u8 = 4;
/// Classifier entry byte: replica mode (bit 0) and active (bit 1).
const MODE_REPLICA: u8 = 1;
const ACTIVE: u8 = 1 << 1;

/// MESI states by their one-byte code.
const MESI: [MesiState; 4] = [
    MesiState::Modified,
    MesiState::Exclusive,
    MesiState::Shared,
    MesiState::Invalid,
];

fn mesi_byte(state: MesiState) -> u8 {
    match state {
        MesiState::Modified => 0,
        MesiState::Exclusive => 1,
        MesiState::Shared => 2,
        MesiState::Invalid => 3,
    }
}

/// Data classes are coded by their index in [`DataClass::ALL`].
fn class_byte(class: DataClass) -> u8 {
    match class {
        DataClass::Private => 0,
        DataClass::Instruction => 1,
        DataClass::SharedReadOnly => 2,
        DataClass::SharedReadWrite => 3,
    }
}

/// `flag` if `set`, else no bits.
fn bit(set: bool, flag: u8) -> u8 {
    if set {
        flag
    } else {
        0
    }
}

// ----- encoding -----------------------------------------------------------

fn put(out: &mut Vec<u8>, value: u64) {
    varint::encode_u64(out, value);
}

fn put_all(out: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    for value in values {
        put(out, value);
    }
}

/// Appends `value` as a zigzag delta from `*previous`, then advances it.
fn put_delta(out: &mut Vec<u8>, previous: &mut u64, value: u64) {
    put(out, varint::zigzag(varint::delta(*previous, value)));
    *previous = value;
}

fn put_str(out: &mut Vec<u8>, text: &str) {
    put(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn put_histogram(out: &mut Vec<u8>, samples: &[(u64, u64)]) {
    put(out, samples.len() as u64);
    let mut value_at = 0;
    for (value, count) in samples {
        put_delta(out, &mut value_at, *value);
        put(out, *count);
    }
}

fn put_cache<V>(out: &mut Vec<u8>, state: &CacheState<V>, entry: impl Fn(&mut Vec<u8>, &V)) {
    put(out, state.clock);
    put(out, state.slots.len() as u64);
    let (mut slot_at, mut tag_at) = (0, 0);
    for (slot, tag, stamp, value) in &state.slots {
        put_delta(out, &mut slot_at, *slot as u64);
        put_delta(out, &mut tag_at, *tag);
        put(out, *stamp);
        entry(out, value);
    }
}

fn put_llc_entry(out: &mut Vec<u8>, entry: &LlcEntry) {
    match entry {
        LlcEntry::Home(home) => {
            let sharers = home.directory.sharers();
            let owner = home.directory.owner();
            out.push(
                bit(home.dirty, DIRTY)
                    | bit(sharers.is_global(), GLOBAL)
                    | bit(owner.is_some(), OWNER_OR_L1_COPY),
            );
            put_all(out, owner.map(|core| core.index() as u64));
            put(out, sharers.max_pointers() as u64);
            put(out, sharers.tracked().len() as u64);
            put_all(
                out,
                sharers.tracked().iter().map(|core| core.index() as u64),
            );
            if sharers.is_global() {
                put(out, sharers.count() as u64);
            }
            let classifier = home.classifier.snapshot();
            put(out, classifier.len() as u64);
            for tracked in classifier {
                put(out, tracked.core.index() as u64);
                out.push(
                    bit(tracked.mode.allows_replica(), MODE_REPLICA) | bit(tracked.active, ACTIVE),
                );
                put(out, u64::from(tracked.home_reuse));
            }
        }
        LlcEntry::Replica(replica) => {
            out.push(
                REPLICA
                    | mesi_byte(replica.state) << STATE_SHIFT
                    | bit(replica.dirty, DIRTY)
                    | bit(replica.l1_copy, OWNER_OR_L1_COPY),
            );
            put(out, u64::from(replica.reuse.value()));
        }
    }
}

impl EngineCheckpoint {
    /// The binary body described in the module docs.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.benchmark);
        put(&mut out, self.num_cores as u64);
        put_str(&mut out, &self.scheme);
        put(&mut out, u64::from(self.replication_threshold));
        put(
            &mut out,
            self.classifier_capacity.map_or(0, |k| k as u64 + 1),
        );

        put(&mut out, self.tiles.len() as u64);
        for tile in &self.tiles {
            put(&mut out, tile.clock.value());
            for l1 in [&tile.l1i, &tile.l1d] {
                put_cache(&mut out, l1, |out, state| out.push(mesi_byte(*state)));
            }
            put_cache(&mut out, &tile.llc, put_llc_entry);
        }

        let network = &self.network;
        put(&mut out, network.links.len() as u64);
        put_all(&mut out, network.links.iter().map(|busy| busy.value()));
        put_all(&mut out, [network.flit_hops, network.router_traversals]);
        put(&mut out, self.dram.len() as u64);
        for controller in &self.dram {
            put_all(&mut out, [controller.free_at.value(), controller.accesses]);
        }

        for word in self.rng {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for (_, pj) in self.energy.iter() {
            out.extend_from_slice(&pj.to_bits().to_le_bytes());
        }
        put_all(&mut out, self.latency.values());
        let misses = &self.misses;
        put_all(
            &mut out,
            [
                misses.l1_hits,
                misses.llc_replica_hits,
                misses.llc_home_hits,
                misses.offchip_misses,
            ],
        );

        let histograms = self.run_lengths.histograms();
        put(&mut out, histograms.len() as u64);
        for (class, histogram) in histograms {
            out.push(class_byte(*class));
            put_histogram(&mut out, &histogram.iter().collect::<Vec<_>>());
        }
        let open_runs = self.run_lengths.open_runs();
        put(&mut out, open_runs.len() as u64);
        let mut line_at = 0;
        for (line, core, count, class) in open_runs {
            put_delta(&mut out, &mut line_at, line.index());
            put_all(&mut out, [core.index() as u64, count]);
            out.push(class_byte(class));
        }
        put(&mut out, self.line_busy_until.len() as u64);
        let mut line_at = 0;
        for (line, cycle) in &self.line_busy_until {
            put_delta(&mut out, &mut line_at, line.index());
            put(&mut out, cycle.value());
        }

        put_all(
            &mut out,
            [
                self.replicas_created,
                self.back_invalidations,
                self.total_accesses,
                self.classifier.mode_flips,
                self.classifier.peak_tracked,
            ],
        );
        put_all(&mut out, self.consumed.iter().copied());
        out
    }

    /// The checkpoint as `{"format": 2, "bytes": "<hex>"}` — the binary
    /// body of the module docs, hex-encoded.  Round-trips exactly through
    /// [`EngineCheckpoint::from_json`].
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format", JsonValue::from(FORMAT)),
            (
                "bytes",
                JsonValue::from(lad_common::hex::encode(&self.encode())),
            ),
        ])
    }

    /// Rebuilds a checkpoint from [`EngineCheckpoint::to_json`] output,
    /// validating everything that needs no simulator geometry (see the
    /// module docs); the rest is checked by [`Simulator::resume_source`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: a missing or unknown
    /// `format`, bad hex, a truncated or overlong body, or state that
    /// violates a protocol invariant.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.get("format").and_then(JsonValue::as_u64) {
            Some(FORMAT) => {}
            Some(other) => return Err(format!("unknown checkpoint format {other}")),
            None => return Err("checkpoint has no numeric \"format\"".to_string()),
        }
        let text = value
            .get("bytes")
            .and_then(JsonValue::as_str)
            .ok_or("checkpoint has no \"bytes\" hex string")?;
        let bytes =
            lad_common::hex::decode(text).map_err(|err| format!("checkpoint bytes: {err}"))?;
        let mut body = Body {
            bytes: &bytes,
            pos: 0,
            tiles: 0,
        };
        let checkpoint = body.checkpoint()?;
        match bytes.len() - body.pos {
            0 => Ok(checkpoint),
            extra => Err(format!("checkpoint body has {extra} trailing bytes")),
        }
    }
}

// ----- decoding -----------------------------------------------------------

/// A cursor over a checkpoint body.  Every accessor names what it reads so
/// errors say where the body went wrong.
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Tile count once known: every core index must fall below it.
    tiles: usize,
}

impl Body<'_> {
    fn u64(&mut self, what: &'static str) -> Result<u64, String> {
        varint::decode_u64(self.bytes, &mut self.pos, what).map_err(|err| match err {
            TraceError::Truncated { .. } => format!("checkpoint body ends inside {what}"),
            _ => format!("checkpoint body has a malformed varint in {what}"),
        })
    }

    fn int<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, String> {
        let value = self.u64(what)?;
        T::try_from(value).map_err(|_| format!("{what} {value} is out of range"))
    }

    /// An element count: every element takes at least one byte, so a count
    /// beyond the remaining bytes is corrupt (and never allocated).
    fn count(&mut self, what: &'static str) -> Result<usize, String> {
        let count = self.u64(what)?;
        let remaining = self.bytes.len() - self.pos;
        if count > remaining as u64 {
            return Err(format!(
                "{what} {count} exceeds the {remaining} bytes left in the checkpoint body"
            ));
        }
        Ok(count as usize)
    }

    /// A counted list of items.
    fn list<T>(
        &mut self,
        what: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let len = self.count(what)?;
        (0..len).map(|_| item(self)).collect()
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&[u8], String> {
        let raw = self
            .bytes
            .get(self.pos..self.pos + len)
            .ok_or_else(|| format!("checkpoint body ends inside {what}"))?;
        self.pos += len;
        Ok(raw)
    }

    fn byte(&mut self, what: &'static str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// A raw little-endian `u64`.
    fn word(&mut self, what: &'static str) -> Result<u64, String> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(word))
    }

    /// The next value of a delta-coded sequence; `*at` holds the previous
    /// value (`0` before the first).
    fn delta(&mut self, at: &mut u64, what: &'static str) -> Result<u64, String> {
        *at = varint::apply_delta(*at, varint::unzigzag(self.u64(what)?));
        Ok(*at)
    }

    /// The next value of a strictly ascending delta-coded sequence; `*last`
    /// holds the previous value (`None` before the first).
    fn ascending(&mut self, last: &mut Option<u64>, what: &'static str) -> Result<u64, String> {
        let mut at = last.unwrap_or(0);
        let value = self.delta(&mut at, what)?;
        if last.is_some_and(|last| value <= last) {
            return Err(format!("{what} values are not strictly ascending"));
        }
        *last = Some(value);
        Ok(value)
    }

    fn str(&mut self, what: &'static str) -> Result<String, String> {
        let len = self.count(what)?;
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|_| format!("{what} is not UTF-8"))
    }

    fn core(&mut self, what: &'static str) -> Result<CoreId, String> {
        let index = self.u64(what)?;
        if index >= self.tiles as u64 || index > u64::from(u16::MAX) {
            return Err(format!(
                "{what} {index} is not one of the {} tiles",
                self.tiles
            ));
        }
        Ok(CoreId::new(index as usize))
    }

    fn mesi(&mut self, what: &'static str) -> Result<MesiState, String> {
        let byte = self.byte(what)?;
        MESI.get(usize::from(byte))
            .copied()
            .ok_or_else(|| format!("{what} {byte} is not a MESI state"))
    }

    fn class(&mut self, what: &'static str) -> Result<DataClass, String> {
        let byte = self.byte(what)?;
        DataClass::ALL
            .get(usize::from(byte))
            .copied()
            .ok_or_else(|| format!("{what} {byte} is not a data class"))
    }

    /// Histogram samples: strictly ascending values, positive counts whose
    /// total fits a `u64`.
    fn histogram(&mut self, what: &'static str) -> Result<Vec<(u64, u64)>, String> {
        let (mut last, mut total) = (None, 0u64);
        self.list(what, |body| {
            let value = body.ascending(&mut last, what)?;
            let count = body.u64(what)?;
            total = total
                .checked_add(count)
                .filter(|_| count > 0)
                .ok_or_else(|| format!("{what} has a zero or overflowing count"))?;
            Ok((value, count))
        })
    }

    fn cache<V>(
        &mut self,
        what: &'static str,
        mut entry: impl FnMut(&mut Self) -> Result<V, String>,
    ) -> Result<CacheState<V>, String> {
        let clock = self.u64(what)?;
        let (mut slot_at, mut tag_at) = (None, 0);
        let slots = self.list(what, |body| {
            let slot = body.ascending(&mut slot_at, what)?;
            let slot = usize::try_from(slot).map_err(|_| format!("{what} slot is out of range"))?;
            let tag = body.delta(&mut tag_at, what)?;
            let stamp = body.u64(what)?;
            if stamp == 0 || stamp > clock {
                return Err(format!(
                    "{what} slot {slot} has stamp {stamp} outside 1..={clock}"
                ));
            }
            Ok((slot, tag, stamp, entry(body)?))
        })?;
        Ok(CacheState { slots, clock })
    }

    fn llc_entry(&mut self, rt: u32, kind: ClassifierKind) -> Result<LlcEntry, String> {
        let flags = self.byte("LLC entry flags")?;
        let dirty = flags & DIRTY != 0;
        if flags & REPLICA != 0 {
            let state = MESI
                .get(usize::from(flags >> STATE_SHIFT))
                .copied()
                .filter(|_| flags & GLOBAL == 0)
                .ok_or_else(|| format!("replica flags {flags:#x} are not a replica's"))?;
            let reuse = self.int("replica reuse")?;
            if reuse > rt {
                return Err(format!("replica reuse {reuse} exceeds RT {rt}"));
            }
            return Ok(LlcEntry::Replica(ReplicaEntry {
                state,
                reuse: SaturatingCounter::with_value(rt, reuse),
                l1_copy: flags & OWNER_OR_L1_COPY != 0,
                dirty,
            }));
        }
        if flags >> STATE_SHIFT != 0 {
            return Err(format!("home flags {flags:#x} set replica bits"));
        }
        let owner = match flags & OWNER_OR_L1_COPY {
            0 => None,
            _ => Some(self.core("home owner")?),
        };
        let max_pointers: usize = self.int("ACKwise pointer budget")?;
        let tracked = self.list("tracked sharers", |body| body.core("tracked sharer"))?;
        if max_pointers == 0 || tracked.len() > max_pointers || has_duplicates(&tracked) {
            return Err(format!(
                "tracked sharers {tracked:?} do not fit a {max_pointers}-pointer budget"
            ));
        }
        let global = flags & GLOBAL != 0;
        let count = if global {
            self.int("global sharer count")?
        } else {
            tracked.len()
        };
        if global && count <= tracked.len() {
            return Err(format!(
                "global sharer count {count} fits the {} tracked pointers",
                tracked.len()
            ));
        }
        if owner.is_some_and(|owner| global || tracked != [owner]) {
            return Err(format!("owner {owner:?} is not the sole tracked sharer"));
        }
        let entries = self.list("classifier entries", |body| {
            let core = body.core("classifier core")?;
            let flags = body.byte("classifier flags")?;
            let home_reuse = body.int("classifier reuse")?;
            if flags > (MODE_REPLICA | ACTIVE) || home_reuse > rt {
                return Err(format!(
                    "classifier entry of {core:?} has flags {flags:#x} and reuse {home_reuse} (RT {rt})"
                ));
            }
            Ok(TrackedCore {
                core,
                mode: if flags & MODE_REPLICA != 0 {
                    ReplicationMode::Replica
                } else {
                    ReplicationMode::NonReplica
                },
                home_reuse,
                active: flags & ACTIVE != 0,
            })
        })?;
        let cores: Vec<CoreId> = entries.iter().map(|entry| entry.core).collect();
        if kind.capacity().is_some_and(|k| entries.len() > k) || has_duplicates(&cores) {
            return Err(format!("classifier cores {cores:?} do not fit {kind:?}"));
        }
        let sharers = AckwiseSharers::from_parts(max_pointers, &tracked, global, count);
        Ok(LlcEntry::Home(HomeEntry {
            directory: DirectoryEntry::from_parts(sharers, owner),
            classifier: LocalityClassifier::from_snapshot(kind, rt, &entries),
            dirty,
        }))
    }

    fn checkpoint(&mut self) -> Result<EngineCheckpoint, String> {
        let benchmark = self.str("benchmark name")?;
        let num_cores: usize = self.int("active cores")?;
        let scheme = self.str("scheme label")?;
        let rt: u32 = self.int("replication threshold")?;
        let classifier_capacity = match self.int::<usize>("classifier capacity")? {
            0 => None,
            k => Some(k - 1),
        };
        if rt == 0 || classifier_capacity == Some(0) {
            return Err(format!(
                "RT {rt} and classifier capacity {classifier_capacity:?} must be positive"
            ));
        }
        let kind = classifier_capacity.map_or(ClassifierKind::Complete, ClassifierKind::Limited);

        self.tiles = self.count("tile count")?;
        if num_cores > self.tiles {
            return Err(format!(
                "{num_cores} active cores exceed the {} tiles",
                self.tiles
            ));
        }
        let tiles = (0..self.tiles)
            .map(|_| {
                Ok(TileCheckpoint {
                    clock: Cycle::new(self.u64("tile clock")?),
                    l1i: self.cache("L1-I", |body| body.mesi("L1-I state"))?,
                    l1d: self.cache("L1-D", |body| body.mesi("L1-D state"))?,
                    llc: self.cache("LLC", |body| body.llc_entry(rt, kind))?,
                })
            })
            .collect::<Result<_, String>>()?;

        let network = NetworkState {
            links: self.list("links", |body| Ok(Cycle::new(body.u64("link horizon")?)))?,
            flit_hops: self.u64("network flit hops")?,
            router_traversals: self.u64("network router traversals")?,
        };
        let dram = self.list("DRAM controllers", |body| {
            Ok(DramControllerState {
                free_at: Cycle::new(body.u64("DRAM horizon")?),
                accesses: body.u64("DRAM accesses")?,
            })
        })?;

        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = self.word("RNG state")?;
        }
        if rng == [0; 4] {
            return Err("the all-zero RNG state is not a valid xoshiro256++ state".to_string());
        }
        let mut energy = EnergyAccounting::new();
        for component in Component::ALL {
            let pj = f64::from_bits(self.word("energy")?);
            if !(pj.is_finite() && pj >= 0.0) {
                return Err(format!("energy of {component} is {pj}"));
            }
            energy.record(component, pj);
        }
        let mut latency = [0u64; 7];
        for value in &mut latency {
            *value = self.u64("latency breakdown")?;
        }
        let misses = MissBreakdown {
            l1_hits: self.u64("miss breakdown")?,
            llc_replica_hits: self.u64("miss breakdown")?,
            llc_home_hits: self.u64("miss breakdown")?,
            offchip_misses: self.u64("miss breakdown")?,
        };

        let mut run_lengths = RunLengthProfile::new();
        let mut last_class = None;
        for (class, samples) in self.list("run-length classes", |body| {
            let class = body.class("run-length class")?;
            if last_class.is_some_and(|last| class <= last) {
                return Err("run-length classes are not strictly ascending".to_string());
            }
            last_class = Some(class);
            Ok((class, body.histogram("run lengths")?))
        })? {
            let mut histogram = Histogram::new();
            for (value, count) in samples {
                histogram.record_weighted(value, count);
            }
            run_lengths.restore_histogram(class, histogram);
        }
        let mut last_line = None;
        for (line, core, count, class) in self.list("open runs", |body| {
            Ok((
                body.ascending(&mut last_line, "open-run line")?,
                body.core("open-run core")?,
                body.u64("open-run length")?,
                body.class("open-run class")?,
            ))
        })? {
            if count == 0 {
                return Err(format!("open run on line {line:#x} is empty"));
            }
            run_lengths.restore_open_run(CacheLine::from_index(line), core, count, class);
        }
        let mut last_line = None;
        let line_busy_until = self.list("busy lines", |body| {
            Ok((
                CacheLine::from_index(body.ascending(&mut last_line, "busy line")?),
                Cycle::new(body.u64("busy horizon")?),
            ))
        })?;

        Ok(EngineCheckpoint {
            benchmark,
            num_cores,
            scheme,
            replication_threshold: rt,
            classifier_capacity,
            tiles,
            network,
            dram,
            rng,
            energy,
            latency: LatencyBreakdown::from_values(latency),
            misses,
            run_lengths,
            line_busy_until,
            replicas_created: self.u64("replicas created")?,
            back_invalidations: self.u64("back-invalidations")?,
            total_accesses: self.u64("total accesses")?,
            classifier: ClassifierStats {
                mode_flips: self.u64("classifier mode flips")?,
                peak_tracked: self.u64("classifier peak")?,
            },
            consumed: (0..num_cores)
                .map(|_| self.u64("stream cursor"))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn has_duplicates(cores: &[CoreId]) -> bool {
    cores
        .iter()
        .enumerate()
        .any(|(i, core)| cores[..i].contains(core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunOutcome, StopAfter};
    use crate::Simulator;
    use lad_common::config::SystemConfig;
    use lad_replication::config::ReplicationConfig;
    use lad_trace::benchmarks::Benchmark;
    use lad_trace::generator::{TraceGenerator, WorkloadTrace};
    use lad_traceio::source::MemorySource;

    fn trace(accesses_per_core: usize) -> WorkloadTrace {
        TraceGenerator::new(Benchmark::Barnes.profile()).generate(16, accesses_per_core, 7)
    }

    /// The checkpoint `sim` takes after `stop_after` accesses of `trace`.
    fn checkpoint_after(
        sim: &mut Simulator,
        trace: &WorkloadTrace,
        stop_after: u64,
    ) -> EngineCheckpoint {
        let mut source = MemorySource::new(trace);
        let mut stop = StopAfter::new(stop_after);
        match sim.run_source_observed(&mut source, Some(&mut stop)) {
            Ok(RunOutcome::Cancelled(checkpoint)) => *checkpoint,
            other => panic!("expected a cancelled run, got {other:?}"),
        }
    }

    fn captured_checkpoint() -> EngineCheckpoint {
        let config = ReplicationConfig::locality_aware(3);
        let mut sim = Simulator::new(SystemConfig::small_test(), config);
        checkpoint_after(&mut sim, &trace(400), 200)
    }

    /// The binary body of a checkpoint document.
    fn body(json: &JsonValue) -> Vec<u8> {
        let hex = json.get("bytes").and_then(JsonValue::as_str).unwrap();
        lad_common::hex::decode(hex).unwrap()
    }

    /// The checkpoint document carrying `bytes` as its body.
    fn document(bytes: &[u8]) -> JsonValue {
        JsonValue::object([
            ("format", JsonValue::from(FORMAT)),
            ("bytes", JsonValue::from(lad_common::hex::encode(bytes))),
        ])
    }

    #[test]
    fn checkpoint_json_roundtrips_exactly() {
        let checkpoint = captured_checkpoint();
        let json = checkpoint.to_json();
        let text = json.pretty();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, json);
        let decoded = EngineCheckpoint::from_json(&reparsed).unwrap();
        // Re-encoding the decoded checkpoint must reproduce the document
        // byte-for-byte: the body is canonical (sorted open runs and busy
        // lines, raw RNG words and energy bits), so equality here covers
        // every field — cache slots, RNG words, energy totals, cursors.
        assert_eq!(decoded.to_json().pretty(), text);
        assert_eq!(decoded.consumed, checkpoint.consumed);
        assert_eq!(decoded.total_accesses, checkpoint.total_accesses);
    }

    #[test]
    fn from_json_rejects_truncated_blobs_bad_hex_and_unknown_formats() {
        let json = captured_checkpoint().to_json();
        let hex = json.get("bytes").and_then(JsonValue::as_str).unwrap();
        let bytes = body(&json);
        assert!(EngineCheckpoint::from_json(&document(&bytes)).is_ok());

        // Truncated blobs, cut anywhere, and a trailing byte.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                EngineCheckpoint::from_json(&document(&bytes[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        let err = EngineCheckpoint::from_json(&document(&longer)).unwrap_err();
        assert!(err.contains("trailing"), "{err}");

        // Bad hex: a non-digit, and an odd digit count.
        let with_bytes = |text: String| {
            JsonValue::object([
                ("format", JsonValue::from(FORMAT)),
                ("bytes", JsonValue::from(text)),
            ])
        };
        let garbled = format!("zz{}", &hex[2..]);
        let err = EngineCheckpoint::from_json(&with_bytes(garbled)).unwrap_err();
        assert!(err.contains("non-hex"), "{err}");
        let odd = hex[..hex.len() - 1].to_string();
        let err = EngineCheckpoint::from_json(&with_bytes(odd)).unwrap_err();
        assert!(err.contains("even number"), "{err}");

        // Unknown or missing formats — including the all-JSON checkpoints
        // written before the binary body, and format 1 — are rejected, never
        // guessed at.
        for format in [
            JsonValue::from(0u64),
            JsonValue::from(1u64),
            JsonValue::from(3u64),
            JsonValue::from("2"),
        ] {
            let doc =
                JsonValue::object([("format", format.clone()), ("bytes", JsonValue::from(hex))]);
            assert!(EngineCheckpoint::from_json(&doc).is_err(), "{format}");
        }
        let legacy = JsonValue::object([
            ("benchmark", JsonValue::from("BARNES")),
            ("num_cores", JsonValue::from(16u64)),
        ]);
        assert!(EngineCheckpoint::from_json(&legacy).is_err());
        let no_bytes = JsonValue::object([("format", JsonValue::from(FORMAT))]);
        assert!(EngineCheckpoint::from_json(&no_bytes).is_err());
        assert!(EngineCheckpoint::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn every_prefix_and_byte_flip_resumes_or_errors_never_panics() {
        // Checkpoints come from outside the process: whatever a torn or
        // bit-rotted body decodes to must end in `Ok` or a typed `Err` from
        // `from_json` or `resume_source`, never in a panic.  Small LLC
        // slices keep the body (and every resume) short.
        let mut system = SystemConfig::small_test();
        system.llc_slice.capacity_bytes = 8 * 1024;
        let mut sim = Simulator::new(system, ReplicationConfig::locality_aware(3));
        let trace = trace(12);
        let bytes = body(&checkpoint_after(&mut sim, &trace, 120).to_json());
        // Whether the body resumed; `Err` if decoding or resuming panicked.
        let mut resume = |bytes: &[u8]| -> std::thread::Result<bool> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let Ok(checkpoint) = EngineCheckpoint::from_json(&document(bytes)) else {
                    return false;
                };
                let mut source = MemorySource::new(&trace);
                sim.resume_source(&mut source, &checkpoint, None).is_ok()
            }))
        };
        assert!(matches!(resume(&bytes), Ok(true)));
        for cut in 0..bytes.len() {
            assert!(
                matches!(resume(&bytes[..cut]), Ok(false)),
                "prefix of {cut} bytes"
            );
        }
        let mut resumed = 0;
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 1 << (offset % 8);
            let Ok(ok) = resume(&flipped) else {
                panic!("flipping bit {} of byte {offset} panicked", offset % 8);
            };
            resumed += usize::from(ok);
        }
        // Both paths ran: flips in counters and clocks resume, flips in
        // structure are rejected.
        assert!(0 < resumed && resumed < bytes.len(), "{resumed} resumed");
    }

    #[test]
    fn hex_encoding_preserves_full_range_words() {
        // RNG words and line indices use the full u64 range, beyond the
        // 2^53 a JSON number holds exactly; the hex-carried body keeps them.
        let mut checkpoint = captured_checkpoint();
        let words = [u64::MAX, 1 << 53, 0xdead_beef_cafe_f00d, 1];
        checkpoint.rng = words;
        checkpoint
            .line_busy_until
            .push((CacheLine::from_index(u64::MAX), Cycle::new(u64::MAX)));
        let decoded = EngineCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(decoded.rng, words);
        assert_eq!(decoded.line_busy_until, checkpoint.line_busy_until);
        assert_eq!(decoded.to_json().pretty(), checkpoint.to_json().pretty());
    }
}
