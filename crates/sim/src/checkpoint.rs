//! Mid-stream engine checkpoints.  A checkpoint *is* its body: one binary
//! blob holding every piece of mutable simulator state plus the per-core
//! stream cursor, carried inside a JSON wrapper.
//!
//! There is one encoder and one decoder, and each is the mirror of the
//! other.  `EngineCheckpoint::capture` (behind
//! [`Simulator::capture_checkpoint`]) encodes the live engine straight into
//! the body — it reads each cache's occupied slots in place and copies no
//! tile state — and `EngineCheckpoint::restore` (behind
//! [`Simulator::resume_source`]) decodes the body straight back into the
//! simulator, one value at a time, checking each before it stores it.
//!
//! Two things are deliberately **not** serialized:
//!
//! * the R-NUCA home map and the per-line data classes — both are rebuilt by
//!   re-running the profiling pass on resume (`profile_access` is their only
//!   writer and converges to the same state in any complete order), and
//! * the per-core pending accesses — the stream cursor at the end of the
//!   body counts the accesses each core has *stepped*, so resume
//!   fast-forwards each core's stream by that many accesses and re-fetches
//!   the pending window from the (deterministic) source.
//!
//! # Encoding
//!
//! [`EngineCheckpoint::to_json`] produces `{"format": 2, "bytes": "<hex>"}`:
//! the body, hex-encoded ([`lad_common::hex`]) so the digest-sealed JSON
//! envelope the service spills it in is unchanged.  The body is built from
//! the LADT codecs of [`lad_traceio::varint`]: every integer is a LEB128
//! varint, and sorted sequences store zigzag deltas.  Sections, in order:
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
//! The body must be consumed exactly; trailing bytes are an error.  The
//! per-entry classifier diagnostics are not in it: a restored classifier
//! restarts at the `from_snapshot` baseline, and the capture-time totals of
//! section 10 seed the simulator's retired accumulators instead.
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
//! a panicking restore constructor.  `restore` checks every value before
//! it stores it: the header against the source and the simulator
//! (benchmark, active cores, scheme, RT, classifier), the tile, link and
//! controller counts against the simulator's, every cache slot against its
//! cache's geometry (`restore_slot`: inside the cache, in its tag's set,
//! its line not yet resident), and everything the encoding itself implies
//! (sharer-list budgets and modes, owners tracked, unique classifier cores,
//! counters ≤ RT, strictly ascending slots, nonzero stamps ≤ the LRU
//! clock, positive open-run lengths, a non-zero RNG state, finite
//! energies).  The first bad value stops the restore, and
//! [`Simulator::resume_source`] resets the half-restored simulator before
//! it reports the rejection.  Once restored, the state must also pass the
//! `lad-check` invariant catalog ([`Simulator::check_protocol_invariants`]):
//! a body whose values are each plausible but together incoherent (a line
//! cached by a core its directory does not track) is rejected before it
//! runs.

use std::fmt;

use lad_coherence::ackwise::AckwiseSharers;
use lad_coherence::directory::DirectoryEntry;
use lad_coherence::mesi::MesiState;
use lad_common::json::JsonValue;
use lad_common::rng::DeterministicRng;
use lad_common::stats::Histogram;
use lad_common::types::{CacheLine, CoreId, Cycle, DataClass};
use lad_dram::DramControllerState;
use lad_energy::accounting::Component;
use lad_noc::NetworkState;
use lad_replication::classifier::{
    ClassifierKind, LocalityClassifier, ReplicationMode, TrackedCore,
};
use lad_replication::counter::SaturatingCounter;
use lad_replication::entry::{HomeEntry, LlcEntry, ReplicaEntry};
use lad_traceio::varint;
use lad_traceio::TraceError;

use crate::engine::Simulator;
use crate::metrics::{LatencyBreakdown, MissBreakdown};
use crate::tile::Tile;

/// The body encoding [`EngineCheckpoint::to_json`] writes and
/// [`EngineCheckpoint::from_json`] accepts.
pub const FORMAT: u64 = 2;

/// A resumable mid-stream snapshot of a [`Simulator`]: the binary body of
/// the module docs, and nothing else.
///
/// Captured by [`Simulator::capture_checkpoint`] at a scheduling-loop
/// boundary; [`Simulator::resume_source`] continues the run from it with
/// results byte-identical to never having stopped.
#[derive(Clone, PartialEq, Eq)]
pub struct EngineCheckpoint {
    body: Vec<u8>,
}

impl fmt::Debug for EngineCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EngineCheckpoint({} body bytes)", self.body.len())
    }
}

/// Why [`Simulator::resume_source`] could not continue a run.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint cannot continue this run: it does not fit the source
    /// or simulator (another benchmark, core count, scheme, classifier or
    /// geometry, or a cursor past the end of the stream), or the restored
    /// state violates a protocol invariant.  The simulator has been reset;
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

/// Appends one cache: its LRU clock, then its `len` occupied slots.
fn put_cache<'v, V: 'v>(
    out: &mut Vec<u8>,
    clock: u64,
    len: usize,
    slots: impl Iterator<Item = (usize, u64, u64, &'v V)>,
    mut entry: impl FnMut(&mut Vec<u8>, &V),
) {
    put(out, clock);
    put(out, len as u64);
    let (mut slot_at, mut tag_at, mut written) = (0, 0, 0);
    for (slot, tag, stamp, value) in slots {
        put_delta(out, &mut slot_at, slot as u64);
        put_delta(out, &mut tag_at, tag);
        put(out, stamp);
        entry(out, value);
        written += 1;
    }
    debug_assert_eq!(
        written, len,
        "a cache yielded a slot count other than its len"
    );
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
            put(out, home.classifier.tracked_count() as u64);
            for tracked in home.classifier.snapshot() {
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
    /// Encodes the live engine into the body of the module docs — the only
    /// encoder.  Each cache is read in place through its borrowing
    /// `slots`, and the classifier totals of section 10 are summed in the
    /// same walk of the LLC slices.  `consumed` is the per-core stream
    /// cursor.
    pub(crate) fn capture(sim: &Simulator, consumed: &[u64]) -> Self {
        let mut out = Vec::new();
        put_str(&mut out, &sim.benchmark);
        put(&mut out, sim.active_cores as u64);
        put_str(&mut out, &sim.replication.label());
        put(&mut out, u64::from(sim.replication.replication_threshold()));
        put(
            &mut out,
            sim.replication
                .classifier
                .capacity()
                .map_or(0, |k| k as u64 + 1),
        );

        let (mut mode_flips, mut peak_tracked) =
            (sim.retired_classifier_flips, sim.retired_classifier_peak);
        put(&mut out, sim.tiles.len() as u64);
        for tile in &sim.tiles {
            put(&mut out, tile.clock.value());
            for l1 in [&tile.l1i, &tile.l1d] {
                put_cache(&mut out, l1.clock(), l1.len(), l1.slots(), |out, state| {
                    out.push(mesi_byte(*state));
                });
            }
            let llc = &tile.llc;
            put_cache(
                &mut out,
                llc.clock(),
                llc.len(),
                llc.slots(),
                |out, entry| {
                    if let LlcEntry::Home(home) = entry {
                        mode_flips += home.classifier.mode_flips();
                        peak_tracked = peak_tracked.max(home.classifier.peak_tracked() as u64);
                    }
                    put_llc_entry(out, entry);
                },
            );
        }

        let network = sim.network.state();
        put(&mut out, network.links.len() as u64);
        put_all(&mut out, network.links.iter().map(|busy| busy.value()));
        put_all(&mut out, [network.flit_hops, network.router_traversals]);
        let dram = sim.dram.state();
        put(&mut out, dram.len() as u64);
        for controller in &dram {
            put_all(&mut out, [controller.free_at.value(), controller.accesses]);
        }

        for word in sim.rng.state() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for (_, pj) in sim.energy.iter() {
            out.extend_from_slice(&pj.to_bits().to_le_bytes());
        }
        put_all(&mut out, sim.latency.values());
        let misses = &sim.misses;
        put_all(
            &mut out,
            [
                misses.l1_hits,
                misses.llc_replica_hits,
                misses.llc_home_hits,
                misses.offchip_misses,
            ],
        );

        let histograms = sim.run_lengths.histograms();
        put(&mut out, histograms.len() as u64);
        for (class, histogram) in histograms {
            out.push(class_byte(*class));
            put_histogram(&mut out, &histogram.iter().collect::<Vec<_>>());
        }
        let open_runs = sim.run_lengths.open_runs();
        put(&mut out, open_runs.len() as u64);
        let mut line_at = 0;
        for (line, core, count, class) in open_runs {
            put_delta(&mut out, &mut line_at, line.index());
            put_all(&mut out, [core.index() as u64, count]);
            out.push(class_byte(class));
        }
        let mut busy: Vec<(CacheLine, Cycle)> = sim
            .line_busy_until
            .iter()
            .map(|(line, cycle)| (*line, *cycle))
            .collect();
        busy.sort_unstable_by_key(|(line, _)| *line);
        put(&mut out, busy.len() as u64);
        let mut line_at = 0;
        for (line, cycle) in busy {
            put_delta(&mut out, &mut line_at, line.index());
            put(&mut out, cycle.value());
        }

        put_all(
            &mut out,
            [
                sim.replicas_created,
                sim.back_invalidations,
                sim.total_accesses,
                mode_flips,
                peak_tracked,
            ],
        );
        put_all(&mut out, consumed.iter().copied());
        EngineCheckpoint { body: out }
    }

    /// Decodes the body straight into `sim`, which [`Simulator::begin`]
    /// has just reset for the source being resumed, and returns the
    /// stream cursor — the only decoder, the mirror of `capture`.  Every
    /// value is checked before it is stored (see the module docs); the
    /// home map and per-line classes are left to the profiling pass.
    ///
    /// # Errors
    ///
    /// A description of the first value that does not fit: a header or
    /// count that differs from the simulator's, a slot outside its cache,
    /// a truncated or overlong body, or state that violates a protocol
    /// invariant.  `sim` is then partly restored and must be reset.
    pub(crate) fn restore(&self, sim: &mut Simulator) -> Result<Vec<u64>, String> {
        let mut body = Body {
            bytes: &self.body,
            pos: 0,
            tiles: sim.tiles.len(),
        };
        let consumed = body.restore(sim)?;
        match self.body.len() - body.pos {
            0 => Ok(consumed),
            extra => Err(format!("checkpoint body has {extra} trailing bytes")),
        }
    }

    /// The checkpoint as `{"format": 2, "bytes": "<hex>"}` — the body,
    /// hex-encoded.  Round-trips exactly through
    /// [`EngineCheckpoint::from_json`].
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("format", JsonValue::from(FORMAT)),
            (
                "bytes",
                JsonValue::from(lad_common::hex::encode(&self.body)),
            ),
        ])
    }

    /// Reads a checkpoint from [`EngineCheckpoint::to_json`] output.  It
    /// checks the `format` and the hex only: the body is decoded, and so
    /// validated, once, by the restore that [`Simulator::resume_source`]
    /// runs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: a missing or unknown
    /// `format`, or missing or bad hex.
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
        let body =
            lad_common::hex::decode(text).map_err(|err| format!("checkpoint bytes: {err}"))?;
        Ok(EngineCheckpoint { body })
    }
}

// ----- decoding -----------------------------------------------------------

/// A cursor over a checkpoint body.  Every accessor names what it reads so
/// errors say where the body went wrong.
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The simulator's tile count: every core index must fall below it.
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

    /// A histogram: strictly ascending values, positive counts whose total
    /// fits a `u64`.
    fn histogram(&mut self, what: &'static str) -> Result<Histogram, String> {
        let (mut last, mut total) = (None, 0u64);
        let mut histogram = Histogram::new();
        for _ in 0..self.count(what)? {
            let value = self.ascending(&mut last, what)?;
            let count = self.u64(what)?;
            total = total
                .checked_add(count)
                .filter(|_| count > 0)
                .ok_or_else(|| format!("{what} has a zero or overflowing count"))?;
            histogram.record_weighted(value, count);
        }
        Ok(histogram)
    }

    /// One cache: its LRU clock, then each occupied slot, checked and
    /// handed to `restore` (the cache's `restore_slot`).  Returns the clock
    /// for the caller to set after the last slot.
    fn cache<V>(
        &mut self,
        what: &'static str,
        mut entry: impl FnMut(&mut Self) -> Result<V, String>,
        mut restore: impl FnMut(usize, u64, u64, V) -> Result<(), String>,
    ) -> Result<u64, String> {
        let clock = self.u64(what)?;
        let (mut slot_at, mut tag_at) = (None, 0);
        for _ in 0..self.count(what)? {
            let slot = self.ascending(&mut slot_at, what)?;
            let slot = usize::try_from(slot).map_err(|_| format!("{what} slot is out of range"))?;
            let tag = self.delta(&mut tag_at, what)?;
            let stamp = self.u64(what)?;
            if stamp == 0 || stamp > clock {
                return Err(format!(
                    "{what} slot {slot} has stamp {stamp} outside 1..={clock}"
                ));
            }
            let value = entry(self)?;
            restore(slot, tag, stamp, value).map_err(|why| format!("{what}: {why}"))?;
        }
        Ok(clock)
    }

    /// One tile: its clock and its three caches.
    fn tile(&mut self, tile: &mut Tile, rt: u32, kind: ClassifierKind) -> Result<(), String> {
        tile.clock = Cycle::new(self.u64("tile clock")?);
        for (what, l1) in [("L1-I", &mut tile.l1i), ("L1-D", &mut tile.l1d)] {
            let clock = self.cache(
                what,
                |body| body.mesi(what),
                |slot, tag, stamp, state| l1.restore_slot(slot, tag, stamp, state),
            )?;
            l1.set_clock(clock);
        }
        let llc = &mut tile.llc;
        let clock = self.cache(
            "LLC",
            |body| body.llc_entry(rt, kind),
            |slot, tag, stamp, entry| llc.restore_slot(slot, tag, stamp, entry),
        )?;
        llc.set_clock(clock);
        Ok(())
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

    /// Decodes the whole body into `sim`, section by section, and returns
    /// the stream cursor.
    fn restore(&mut self, sim: &mut Simulator) -> Result<Vec<u64>, String> {
        same(
            "benchmark",
            self.str("benchmark name")?.as_str(),
            sim.benchmark.as_str(),
        )?;
        same("active cores", self.int("active cores")?, sim.active_cores)?;
        let label = sim.replication.label();
        same("scheme", self.str("scheme label")?.as_str(), label.as_str())?;
        let rt = sim.replication.replication_threshold();
        same("RT", self.int("replication threshold")?, rt)?;
        let kind = sim.replication.classifier;
        let capacity = match self.int::<usize>("classifier capacity")? {
            0 => None,
            k => Some(k - 1),
        };
        same("classifier capacity", capacity, kind.capacity())?;

        same("tiles", self.count("tile count")?, sim.tiles.len())?;
        for (core, tile) in sim.tiles.iter_mut().enumerate() {
            self.tile(tile, rt, kind)
                .map_err(|why| format!("tile {core}: {why}"))?;
        }

        let links = self.list("links", |body| Ok(Cycle::new(body.u64("link horizon")?)))?;
        same("links", links.len(), sim.network.mesh().num_links())?;
        sim.network.restore_state(&NetworkState {
            links,
            flit_hops: self.u64("network flit hops")?,
            router_traversals: self.u64("network router traversals")?,
        });
        let dram = self.list("DRAM controllers", |body| {
            Ok(DramControllerState {
                free_at: Cycle::new(body.u64("DRAM horizon")?),
                accesses: body.u64("DRAM accesses")?,
            })
        })?;
        same("DRAM controllers", dram.len(), sim.dram.num_controllers())?;
        sim.dram.restore_state(&dram);

        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = self.word("RNG state")?;
        }
        if rng == [0; 4] {
            return Err("the all-zero RNG state is not a valid xoshiro256++ state".to_string());
        }
        sim.rng = DeterministicRng::from_state(rng);
        for component in Component::ALL {
            let pj = f64::from_bits(self.word("energy")?);
            if !(pj.is_finite() && pj >= 0.0) {
                return Err(format!("energy of {component} is {pj}"));
            }
            sim.energy.record(component, pj);
        }
        let mut latency = [0u64; 7];
        for value in &mut latency {
            *value = self.u64("latency breakdown")?;
        }
        sim.latency = LatencyBreakdown::from_values(latency);
        sim.misses = MissBreakdown {
            l1_hits: self.u64("miss breakdown")?,
            llc_replica_hits: self.u64("miss breakdown")?,
            llc_home_hits: self.u64("miss breakdown")?,
            offchip_misses: self.u64("miss breakdown")?,
        };

        let mut last_class = None;
        for _ in 0..self.count("run-length classes")? {
            let class = self.class("run-length class")?;
            if last_class.is_some_and(|last| class <= last) {
                return Err("run-length classes are not strictly ascending".to_string());
            }
            last_class = Some(class);
            let histogram = self.histogram("run lengths")?;
            sim.run_lengths.restore_histogram(class, histogram);
        }
        let mut last_line = None;
        for _ in 0..self.count("open runs")? {
            let line = self.ascending(&mut last_line, "open-run line")?;
            let core = self.core("open-run core")?;
            let count = self.u64("open-run length")?;
            let class = self.class("open-run class")?;
            if count == 0 {
                return Err(format!("open run on line {line:#x} is empty"));
            }
            sim.run_lengths
                .restore_open_run(CacheLine::from_index(line), core, count, class);
        }
        let mut last_line = None;
        for _ in 0..self.count("busy lines")? {
            let line = self.ascending(&mut last_line, "busy line")?;
            let busy = Cycle::new(self.u64("busy horizon")?);
            sim.line_busy_until
                .insert(CacheLine::from_index(line), busy);
        }

        sim.replicas_created = self.u64("replicas created")?;
        sim.back_invalidations = self.u64("back-invalidations")?;
        sim.total_accesses = self.u64("total accesses")?;
        // The restored live classifiers restart their diagnostic counters
        // at the from_snapshot baseline, so the capture-time totals seed
        // the retired accumulators: report() then reproduces the straight
        // run's numbers exactly (the post-capture deltas are identical).
        sim.retired_classifier_flips = self.u64("classifier mode flips")?;
        sim.retired_classifier_peak = self.u64("classifier peak")?;
        (0..sim.active_cores)
            .map(|_| self.u64("stream cursor"))
            .collect()
    }
}

/// `Ok` if the checkpoint's `theirs` is this run's `ours`.
fn same<T: PartialEq + fmt::Debug>(what: &str, theirs: T, ours: T) -> Result<(), String> {
    if theirs == ours {
        Ok(())
    } else {
        Err(format!(
            "checkpoint was captured with {what} {theirs:?}, this run has {ours:?}"
        ))
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
    use lad_common::types::{Address, MemoryAccess};
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
        // A checkpoint is its body, so the reloaded one is the same bytes.
        let reloaded = EngineCheckpoint::from_json(&reparsed).unwrap();
        assert_eq!(reloaded, checkpoint);
        assert_eq!(reloaded.to_json().pretty(), text);
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        sim.begin("BARNES", 16);
        let consumed = reloaded.restore(&mut sim).unwrap();
        assert_eq!(sim.total_accesses, 200);
        assert_eq!(consumed.iter().sum::<u64>(), 200);
    }

    #[test]
    fn a_restored_body_is_captured_again_byte_for_byte() {
        // Capture after restore reproduces the body a straight run would
        // carry: a run resumed from a cut and stopped again holds the same
        // bytes as an uninterrupted run stopped at the same access.  That
        // covers every section, including the classifier totals that the
        // restored classifiers' reset diagnostics must not disturb.
        let trace = trace(300);
        for config in [
            ReplicationConfig::locality_aware(3),
            ReplicationConfig::asr(0.5),
            ReplicationConfig::victim_replication(),
        ] {
            let new_sim = || Simulator::new(SystemConfig::small_test(), config.clone());
            let straight = checkpoint_after(&mut new_sim(), &trace, 3_000);
            let first = checkpoint_after(&mut new_sim(), &trace, 1_200);
            let mut source = MemorySource::new(&trace);
            let mut stop = StopAfter::new(1_800);
            let resumed = match new_sim().resume_source(&mut source, &first, Some(&mut stop)) {
                Ok(RunOutcome::Cancelled(checkpoint)) => *checkpoint,
                other => panic!("expected a cancelled resume, got {other:?}"),
            };
            assert!(resumed == straight, "{}", config.label());
        }
    }

    #[test]
    fn from_json_rejects_truncated_blobs_bad_hex_and_unknown_formats() {
        let json = captured_checkpoint().to_json();
        let hex = json.get("bytes").and_then(JsonValue::as_str).unwrap();
        let bytes = body(&json);
        let trace = trace(400);
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        let mut resume = |bytes: &[u8]| -> Result<(), String> {
            let checkpoint = EngineCheckpoint::from_json(&document(bytes))?;
            let mut source = MemorySource::new(&trace);
            let mut stop = StopAfter::new(1);
            match sim.resume_source(&mut source, &checkpoint, Some(&mut stop)) {
                Ok(_) => Ok(()),
                Err(err) => Err(err.to_string()),
            }
        };
        assert_eq!(resume(&bytes), Ok(()));

        // Truncated blobs, cut anywhere, and a trailing byte: `from_json`
        // reads only the format and the hex, and the one decode, the
        // restore inside `resume_source`, rejects the body.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(resume(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        let err = resume(&longer).unwrap_err();
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
        // Setting bit 62 of every address puts every line index at 2^56 or
        // above.
        const HIGH: u64 = 1 << 62;
        let low = trace(40);
        let lifted = WorkloadTrace::new(
            low.name(),
            (0..low.num_cores())
                .map(|core| {
                    low.core_stream(CoreId::new(core))
                        .iter()
                        .map(|access| MemoryAccess {
                            address: Address::new(access.address.value() | HIGH),
                            ..*access
                        })
                        .collect()
                })
                .collect(),
        );
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        let checkpoint = checkpoint_after(&mut sim, &lifted, 300);
        let text = checkpoint.to_json().pretty();
        let reloaded = EngineCheckpoint::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(reloaded, checkpoint);
        let mut sim = Simulator::new(
            SystemConfig::small_test(),
            ReplicationConfig::locality_aware(3),
        );
        sim.begin(lifted.name(), lifted.num_cores());
        reloaded.restore(&mut sim).unwrap();
        assert!(sim.rng.state().iter().any(|&word| word > 1 << 53));
        assert!(!sim.line_busy_until.is_empty());
        let lifted_line = |line: CacheLine| line.index() >> 56 == 1;
        assert!(sim.line_busy_until.keys().all(|&line| lifted_line(line)));
        assert!(sim
            .run_lengths
            .open_runs()
            .iter()
            .all(|&(line, ..)| lifted_line(line)));
    }
}
