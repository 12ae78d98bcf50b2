//! Deterministic fault injection for the I/O and network layers.
//!
//! A [`FaultPlan`] schedules faults **by site and occurrence count**: the
//! plan entry `cache-spill:3:torn@64` fires the third time any code path
//! consults the injector at the [`FaultSite::CacheSpill`] site, and then
//! never again.  Because scheduling depends only on (site, per-site
//! operation counter), a plan replays identically however threads
//! interleave on *other* sites — the same philosophy as the seeded
//! protocol mutants in `lad-check`: adversarial, but reproducible.
//!
//! The delivery mechanism is the [`FaultInjector`] handle threaded through
//! the seams that can fail in production:
//!
//! * [`FaultyRead`] / [`FaultyWrite`] wrap any `Read`/`Write` (trace files,
//!   TCP connections) and surface short transfers, `Interrupted`,
//!   `WouldBlock`, dropped and half-closed connections, and stalled
//!   (slow-loris) peers;
//! * durable-write paths ([`crate::fs::atomic_write_faulty`]) consult the
//!   injector once per write and can observe `ENOSPC` or a **torn write** —
//!   a crash that leaves only the first *N* bytes of the payload on disk;
//! * worker cells call [`FaultInjector::maybe_panic`] so a seeded plan can
//!   prove panic isolation.
//!
//! A disarmed injector (the default everywhere) is one `Option` check per
//! operation — release builds with no plan pay nothing.  Plans are armed
//! explicitly (server config, `lad-serve --fault-plan`, the
//! `LAD_FAULT_PLAN` environment variable) and **never** implicitly.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::rng::DeterministicRng;

/// A code location class where faults can be injected.
///
/// Sites are deliberately coarse — "the cache spill path", not "line 412" —
/// so plans stay valid as the code moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Reads of a `.ladt` trace stream feeding a simulation.
    TraceRead,
    /// Writes recording a `.ladt` trace stream.
    TraceWrite,
    /// Durable spill of one result-cache entry.
    CacheSpill,
    /// Durable spill of one engine checkpoint.
    CheckpointSpill,
    /// Durable store of one uploaded trace.
    TraceStore,
    /// Reads on a server-side client connection.
    ConnRead,
    /// Writes on a server-side client connection.
    ConnWrite,
    /// Start of one worker-cell execution (panic injection).
    Cell,
}

impl FaultSite {
    /// Every site, in wire-name order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::TraceRead,
        FaultSite::TraceWrite,
        FaultSite::CacheSpill,
        FaultSite::CheckpointSpill,
        FaultSite::TraceStore,
        FaultSite::ConnRead,
        FaultSite::ConnWrite,
        FaultSite::Cell,
    ];

    /// The stable wire name used in plan specs.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::TraceRead => "trace-read",
            FaultSite::TraceWrite => "trace-write",
            FaultSite::CacheSpill => "cache-spill",
            FaultSite::CheckpointSpill => "checkpoint-spill",
            FaultSite::TraceStore => "trace-store",
            FaultSite::ConnRead => "conn-read",
            FaultSite::ConnWrite => "conn-write",
            FaultSite::Cell => "cell",
        }
    }

    /// Parses a wire name back into a site.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] naming the unknown site.
    pub fn parse(label: &str) -> Result<FaultSite, FaultPlanError> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.label() == label)
            .ok_or_else(|| FaultPlanError(format!("unknown fault site {label:?}")))
    }

    fn index(self) -> usize {
        match self {
            FaultSite::TraceRead => 0,
            FaultSite::TraceWrite => 1,
            FaultSite::CacheSpill => 2,
            FaultSite::CheckpointSpill => 3,
            FaultSite::TraceStore => 4,
            FaultSite::ConnRead => 5,
            FaultSite::ConnWrite => 6,
            FaultSite::Cell => 7,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A read or write transfers fewer bytes than asked (legal per the
    /// `Read`/`Write` contracts; exercises retry loops).
    Short,
    /// The operation fails with [`std::io::ErrorKind::Interrupted`]
    /// (`EINTR`); well-behaved callers retry transparently.
    Interrupt,
    /// The operation fails with [`std::io::ErrorKind::WouldBlock`] — what a
    /// socket read timeout surfaces as.
    WouldBlock,
    /// A durable write fails with [`std::io::ErrorKind::StorageFull`]
    /// (`ENOSPC`).
    Enospc,
    /// A durable write crashes mid-write: only the first `at` bytes of the
    /// payload land on disk (at the *final* path — the torn result a
    /// non-atomic writer or a dying disk leaves behind).
    Torn {
        /// How many payload bytes survive the crash.
        at: usize,
    },
    /// The connection fails with [`std::io::ErrorKind::ConnectionReset`].
    Drop,
    /// The peer half-closed: reads see EOF, writes see `BrokenPipe`.
    HalfClose,
    /// A slow-loris peer: the operation stalls for `millis` before
    /// proceeding normally.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The code path panics (worker-cell isolation testing).
    Panic,
}

impl FaultKind {
    /// The stable wire name used in plan specs (`torn@N` / `stall@MS`
    /// carry their argument after an `@`).
    pub fn label(self) -> String {
        match self {
            FaultKind::Short => "short".to_string(),
            FaultKind::Interrupt => "interrupt".to_string(),
            FaultKind::WouldBlock => "wouldblock".to_string(),
            FaultKind::Enospc => "enospc".to_string(),
            FaultKind::Torn { at } => format!("torn@{at}"),
            FaultKind::Drop => "drop".to_string(),
            FaultKind::HalfClose => "halfclose".to_string(),
            FaultKind::Stall { millis } => format!("stall@{millis}"),
            FaultKind::Panic => "panic".to_string(),
        }
    }

    /// Parses a wire name (with optional `@` argument) back into a kind.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] for unknown kinds or malformed arguments.
    pub fn parse(text: &str) -> Result<FaultKind, FaultPlanError> {
        let (name, arg) = match text.split_once('@') {
            Some((name, arg)) => (name, Some(arg)),
            None => (text, None),
        };
        let number = || -> Result<u64, FaultPlanError> {
            arg.ok_or_else(|| {
                FaultPlanError(format!("fault kind {name:?} needs an @<n> argument"))
            })?
            .parse()
            .map_err(|_| FaultPlanError(format!("bad argument in fault kind {text:?}")))
        };
        let bare = |kind: FaultKind| -> Result<FaultKind, FaultPlanError> {
            match arg {
                None => Ok(kind),
                Some(_) => Err(FaultPlanError(format!(
                    "fault kind {name:?} takes no argument"
                ))),
            }
        };
        match name {
            "short" => bare(FaultKind::Short),
            "interrupt" => bare(FaultKind::Interrupt),
            "wouldblock" => bare(FaultKind::WouldBlock),
            "enospc" => bare(FaultKind::Enospc),
            "torn" => Ok(FaultKind::Torn {
                at: number()? as usize,
            }),
            "drop" => bare(FaultKind::Drop),
            "halfclose" => bare(FaultKind::HalfClose),
            "stall" => Ok(FaultKind::Stall { millis: number()? }),
            "panic" => bare(FaultKind::Panic),
            other => Err(FaultPlanError(format!("unknown fault kind {other:?}"))),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One scheduled fault: fire `kind` the `occurrence`-th time (1-based) the
/// injector is consulted at `site`, then never again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub site: FaultSite,
    /// The 1-based operation count at that site on which it fires.
    pub occurrence: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.occurrence, self.kind)
    }
}

/// A parse error in a fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic schedule of faults.
///
/// The textual form is `;`-separated `site:occurrence:kind` entries
/// (`"conn-write:1:drop;cache-spill:2:torn@64"`), or `random:<seed>` for a
/// seeded pseudo-random plan ([`FaultPlan::random`]).  [`fmt::Display`]
/// round-trips the explicit form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan from explicit specs.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { specs }
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Parses the textual form (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] naming the offending entry.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let text = text.trim();
        if let Some(seed) = text.strip_prefix("random:") {
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| FaultPlanError(format!("bad random-plan seed {seed:?}")))?;
            return Ok(FaultPlan::random(seed));
        }
        let mut specs = Vec::new();
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.splitn(3, ':');
            let (site, occurrence, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(site), Some(occurrence), Some(kind)) => (site, occurrence, kind),
                _ => {
                    return Err(FaultPlanError(format!(
                        "entry {entry:?} is not site:occurrence:kind"
                    )))
                }
            };
            let occurrence: u64 = occurrence
                .trim()
                .parse()
                .map_err(|_| FaultPlanError(format!("bad occurrence count in entry {entry:?}")))?;
            if occurrence == 0 {
                return Err(FaultPlanError(format!(
                    "occurrence counts are 1-based; entry {entry:?} has 0"
                )));
            }
            specs.push(FaultSpec {
                site: FaultSite::parse(site.trim())?,
                occurrence,
                kind: FaultKind::parse(kind.trim())?,
            });
        }
        if specs.is_empty() {
            return Err(FaultPlanError("plan schedules no faults".to_string()));
        }
        Ok(FaultPlan { specs })
    }

    /// A seeded pseudo-random plan: 3–6 faults spread across sites, with
    /// kinds appropriate to each site (connections get drops and stalls,
    /// durable writes get torn writes and `ENOSPC`, ...).  Identical seeds
    /// produce identical plans forever — the torture suite's contract.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = DeterministicRng::seed_from(seed ^ 0xfa17_a57e_0bad_5eed);
        let count = 3 + rng.index(4);
        let mut specs = Vec::with_capacity(count);
        for _ in 0..count {
            let site = FaultSite::ALL[rng.index(FaultSite::ALL.len())];
            let kind = match site {
                FaultSite::TraceRead => *pick(
                    &mut rng,
                    &[
                        FaultKind::Short,
                        FaultKind::Interrupt,
                        FaultKind::Drop,
                        FaultKind::HalfClose,
                    ],
                ),
                FaultSite::TraceWrite => *pick(&mut rng, &[FaultKind::Short, FaultKind::Interrupt]),
                FaultSite::CacheSpill | FaultSite::CheckpointSpill | FaultSite::TraceStore => {
                    match rng.index(3) {
                        0 => FaultKind::Enospc,
                        1 => FaultKind::Torn { at: rng.index(200) },
                        _ => FaultKind::Drop,
                    }
                }
                FaultSite::ConnRead => *pick(
                    &mut rng,
                    &[
                        FaultKind::Drop,
                        FaultKind::HalfClose,
                        FaultKind::Short,
                        FaultKind::Interrupt,
                        FaultKind::Stall { millis: 0 },
                    ],
                ),
                FaultSite::ConnWrite => *pick(
                    &mut rng,
                    &[
                        FaultKind::Drop,
                        FaultKind::Short,
                        FaultKind::Interrupt,
                        FaultKind::Stall { millis: 0 },
                    ],
                ),
                FaultSite::Cell => FaultKind::Panic,
            };
            let kind = match kind {
                // Stalls drew a placeholder duration; keep them short enough
                // for CI but long enough to exercise deadline code.
                FaultKind::Stall { .. } => FaultKind::Stall {
                    millis: 5 + rng.below(45),
                },
                other => other,
            };
            specs.push(FaultSpec {
                site,
                occurrence: 1 + rng.below(12),
                kind,
            });
        }
        FaultPlan { specs }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

/// One fault that fired: where, on which operation count, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired.
    pub site: FaultSite,
    /// The per-site operation count it fired on.
    pub occurrence: u64,
    /// The injected kind.
    pub kind: FaultKind,
}

#[derive(Debug)]
struct InjectorState {
    specs: Vec<FaultSpec>,
    /// Per-site operation counters (indexed by `FaultSite::index`).
    counters: [AtomicU64; 8],
    fired: Mutex<Vec<FiredFault>>,
}

/// The handle code paths consult to learn whether a fault is scheduled for
/// the operation they are about to perform.
///
/// Cloning shares the underlying counters, so one injector threaded through
/// a whole server (and across server restarts in a test harness) keeps a
/// single consistent occurrence count per site — each scheduled fault fires
/// exactly once per process-family.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    state: Option<Arc<InjectorState>>,
}

impl FaultInjector {
    /// The no-op injector: every check is a single `Option` branch.
    pub const fn disarmed() -> FaultInjector {
        FaultInjector { state: None }
    }

    /// An injector executing `plan`.
    pub fn armed(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            state: Some(Arc::new(InjectorState {
                specs: plan.specs,
                counters: Default::default(),
                fired: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Counts one operation at `site` and returns the fault scheduled for
    /// exactly this occurrence, if any.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> Option<FaultKind> {
        let state = self.state.as_ref()?;
        let occurrence = state.counters[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let spec = state
            .specs
            .iter()
            .find(|spec| spec.site == site && spec.occurrence == occurrence)?;
        state
            .fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(FiredFault {
                site,
                occurrence,
                kind: spec.kind,
            });
        Some(spec.kind)
    }

    /// Counts one operation at `site` and panics if a
    /// [`FaultKind::Panic`] is scheduled for it (other kinds at a panic
    /// checkpoint are ignored).
    #[inline]
    pub fn maybe_panic(&self, site: FaultSite) {
        if self.state.is_none() {
            return;
        }
        if let Some(FaultKind::Panic) = self.fire(site) {
            panic!("injected fault: panic at {site}");
        }
    }

    /// Every fault fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        match &self.state {
            Some(state) => state
                .fired
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        }
    }

    /// Whether every scheduled fault has fired (a torture harness can stop
    /// restarting once the plan is exhausted).
    pub fn exhausted(&self) -> bool {
        match &self.state {
            Some(state) => {
                state
                    .fired
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()
                    >= state.specs.len()
            }
            None => true,
        }
    }
}

fn pick<'a, T>(rng: &mut DeterministicRng, options: &'a [T]) -> &'a T {
    &options[rng.index(options.len())]
}

fn injected(kind: FaultKind, site: FaultSite) -> std::io::Error {
    use std::io::{Error, ErrorKind};
    let message = format!("injected fault: {kind} at {site}");
    match kind {
        FaultKind::Interrupt => Error::new(ErrorKind::Interrupted, message),
        FaultKind::WouldBlock => Error::new(ErrorKind::WouldBlock, message),
        FaultKind::Enospc => Error::new(ErrorKind::StorageFull, message),
        FaultKind::Drop => Error::new(ErrorKind::ConnectionReset, message),
        FaultKind::HalfClose => Error::new(ErrorKind::BrokenPipe, message),
        _ => Error::other(message),
    }
}

/// A `Read` wrapper that injects the faults scheduled for `site`.
///
/// Disarmed, every call is one branch on an `Option` before delegating.
#[derive(Debug)]
pub struct FaultyRead<R> {
    inner: R,
    site: FaultSite,
    injector: FaultInjector,
}

impl<R> FaultyRead<R> {
    /// Wraps `inner`, consulting `injector` at `site` on every read.
    pub fn new(inner: R, site: FaultSite, injector: FaultInjector) -> FaultyRead<R> {
        FaultyRead {
            inner,
            site,
            injector,
        }
    }

    /// The wrapped reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(kind) = self.injector.fire(self.site) else {
            return self.inner.read(buf);
        };
        match kind {
            FaultKind::Short => {
                let n = (buf.len() / 2).max(1).min(buf.len());
                self.inner.read(&mut buf[..n])
            }
            FaultKind::HalfClose => Ok(0),
            FaultKind::Stall { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                self.inner.read(buf)
            }
            other => Err(injected(other, self.site)),
        }
    }
}

impl<R: Seek> Seek for FaultyRead<R> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// A `Write` wrapper that injects the faults scheduled for `site`.
///
/// Disarmed, every call is one branch on an `Option` before delegating.
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    site: FaultSite,
    injector: FaultInjector,
}

impl<W> FaultyWrite<W> {
    /// Wraps `inner`, consulting `injector` at `site` on every write.
    pub fn new(inner: W, site: FaultSite, injector: FaultInjector) -> FaultyWrite<W> {
        FaultyWrite {
            inner,
            site,
            injector,
        }
    }

    /// The wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(kind) = self.injector.fire(self.site) else {
            return self.inner.write(buf);
        };
        match kind {
            FaultKind::Short => {
                let n = (buf.len() / 2).max(1).min(buf.len());
                self.inner.write(&buf[..n])
            }
            FaultKind::Torn { at } => {
                // Flush whatever prefix "hit the disk", then crash the op.
                let n = at.min(buf.len());
                if n > 0 {
                    let _ = self.inner.write(&buf[..n]);
                    let _ = self.inner.flush();
                }
                Err(injected(kind, self.site))
            }
            FaultKind::Stall { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                self.inner.write(buf)
            }
            other => Err(injected(other, self.site)),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn plan_round_trips_through_text() {
        let text = "conn-write:1:drop;cache-spill:2:torn@64;conn-read:3:stall@25;cell:1:panic";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.specs().len(), 4);
        assert_eq!(plan.to_string(), text);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn plan_parse_rejects_garbage() {
        for bad in [
            "",
            "conn-write",
            "conn-write:0:drop",
            "conn-write:x:drop",
            "mars:1:drop",
            "conn-write:1:melt",
            "conn-write:1:torn",
            "conn-write:1:drop@3",
            "random:x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::random(7);
        let b = FaultPlan::random(7);
        let c = FaultPlan::random(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((3..=6).contains(&a.specs().len()));
        assert_eq!(FaultPlan::parse("random:7").unwrap(), a);
        // The textual form of a random plan round-trips like any other.
        assert_eq!(FaultPlan::parse(&a.to_string()).unwrap(), a);
    }

    #[test]
    fn faults_fire_on_the_scheduled_occurrence_exactly_once() {
        let plan = FaultPlan::parse("conn-read:3:drop").unwrap();
        let injector = FaultInjector::armed(plan);
        assert_eq!(injector.fire(FaultSite::ConnRead), None);
        // Other sites do not advance this site's counter.
        assert_eq!(injector.fire(FaultSite::ConnWrite), None);
        assert_eq!(injector.fire(FaultSite::ConnRead), None);
        assert_eq!(injector.fire(FaultSite::ConnRead), Some(FaultKind::Drop));
        assert_eq!(injector.fire(FaultSite::ConnRead), None);
        let fired = injector.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].site, FaultSite::ConnRead);
        assert!(injector.exhausted());
    }

    #[test]
    fn clones_share_counters() {
        let injector = FaultInjector::armed(FaultPlan::parse("cell:2:panic").unwrap());
        let clone = injector.clone();
        assert_eq!(clone.fire(FaultSite::Cell), None);
        assert_eq!(injector.fire(FaultSite::Cell), Some(FaultKind::Panic));
        assert!(clone.exhausted());
    }

    #[test]
    fn disarmed_injector_is_inert() {
        let injector = FaultInjector::disarmed();
        for site in FaultSite::ALL {
            assert_eq!(injector.fire(site), None);
            injector.maybe_panic(site);
        }
        assert!(injector.exhausted());
        assert!(injector.fired().is_empty());
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at cell")]
    fn maybe_panic_panics_on_schedule() {
        let injector = FaultInjector::armed(FaultPlan::parse("cell:1:panic").unwrap());
        injector.maybe_panic(FaultSite::Cell);
    }

    #[test]
    fn faulty_read_injects_and_then_recovers() {
        let plan =
            FaultPlan::parse("trace-read:1:interrupt;trace-read:2:short;trace-read:4:halfclose")
                .unwrap();
        let injector = FaultInjector::armed(plan);
        let data: Vec<u8> = (0..64).collect();
        let mut reader = FaultyRead::new(
            std::io::Cursor::new(data.clone()),
            FaultSite::TraceRead,
            injector,
        );
        let mut buf = [0u8; 64];
        // 1st: EINTR.
        let err = reader.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        // 2nd: short read (at most half the buffer).
        let n = reader.read(&mut buf).unwrap();
        assert!(n > 0 && n <= 32, "short read returned {n}");
        // 3rd: clean.
        let m = reader.read(&mut buf[n..]).unwrap();
        assert!(m > 0);
        // 4th: spurious EOF.
        assert_eq!(reader.read(&mut buf).unwrap(), 0);
        assert_eq!(&buf[..n + m], &data[..n + m]);
    }

    #[test]
    fn faulty_write_torn_leaves_exactly_the_prefix() {
        let injector = FaultInjector::armed(FaultPlan::parse("cache-spill:1:torn@5").unwrap());
        let mut sink = Vec::new();
        let mut writer = FaultyWrite::new(&mut sink, FaultSite::CacheSpill, injector);
        let err = writer.write(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn"));
        assert_eq!(sink, b"01234");
    }

    #[test]
    fn read_write_interrupts_are_absorbed_by_std_retry_loops() {
        // `write_all` and `read_to_end` retry `Interrupted`, so a plan made
        // only of EINTRs must be invisible at the payload level.
        let plan = FaultPlan::parse("trace-write:1:interrupt;trace-write:3:short").unwrap();
        let injector = FaultInjector::armed(plan.clone());
        let mut sink = Vec::new();
        let mut writer = FaultyWrite::new(&mut sink, FaultSite::TraceWrite, injector);
        writer.write_all(b"payload bytes").unwrap();
        assert_eq!(sink, b"payload bytes");

        let injector = FaultInjector::armed(
            FaultPlan::parse("trace-read:1:interrupt;trace-read:2:short").unwrap(),
        );
        let mut reader = FaultyRead::new(
            std::io::Cursor::new(b"payload bytes".to_vec()),
            FaultSite::TraceRead,
            injector,
        );
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"payload bytes");
    }
}
