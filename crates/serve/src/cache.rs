//! Content-addressed result cache: completed [`SimulationReport`]s keyed
//! by `(trace digest, config fingerprint, scheme label)`, held in memory
//! and spilled to a JSON directory so repeat submissions stay free across
//! server restarts.
//!
//! The key is *content*-addressed on the workload side — the trace half is
//! the streaming FNV-1a content digest of the decoded frames
//! ([`lad_traceio::digest`]), so re-encoded or re-uploaded copies of the
//! same trace share cache entries — and *configuration*-addressed on the
//! system side (an FNV-1a fingerprint of the full
//! [`SystemConfig`](lad_common::config::SystemConfig) debug rendering, so
//! any knob change invalidates cleanly).  Scheme identity is the label,
//! which pins the replication configuration through the scheme registry.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lad_common::fault::{FaultInjector, FaultSite};
use lad_common::json::JsonValue;
use lad_obs::{Counter, MetricsRegistry};
use lad_sim::metrics::SimulationReport;

use crate::durable::{self, LoadOutcome};

/// Consecutive spill failures after which the cache degrades to
/// memory-only operation (an `ENOSPC` degrades immediately: retrying a
/// full disk only burns cycles).
const DEGRADE_AFTER: u64 = 3;

/// The cache key of one (workload, system, scheme) cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// 16-hex-digit content digest of the trace (or builtin-spec
    /// fingerprint for generator workloads).
    pub trace: String,
    /// 16-hex-digit fingerprint of the system configuration.
    pub config: String,
    /// Scheme label (e.g. `"RT-3"`).
    pub scheme: String,
}

impl CacheKey {
    /// The spill-file stem of this key: `<trace>-<config>-<scheme>` with
    /// the scheme label sanitized to filesystem-safe characters.
    pub fn file_stem(&self) -> String {
        let scheme: String = self
            .scheme
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{}-{}-{}", self.trace, self.config, scheme)
    }

    /// The JSON form stored in spill files and status frames.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("trace", JsonValue::from(self.trace.as_str())),
            ("config", JsonValue::from(self.config.as_str())),
            ("scheme", JsonValue::from(self.scheme.as_str())),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<CacheKey, String> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cache key is missing {name:?}"))
        };
        Ok(CacheKey {
            trace: field("trace")?,
            config: field("config")?,
            scheme: field("scheme")?,
        })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.trace, self.config, self.scheme)
    }
}

/// In-memory result cache with a digest-sealed JSON spill directory,
/// hit/miss counters (exported by the `metrics` verb), and a degraded
/// memory-only mode it falls back to on persistent disk errors so the
/// service keeps answering instead of dying.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    entries: Mutex<BTreeMap<CacheKey, SimulationReport>>,
    hits: Counter,
    misses: Counter,
    spill_errors: Counter,
    consecutive_failures: AtomicU64,
    degraded: AtomicBool,
    injector: FaultInjector,
}

impl ResultCache {
    /// Opens a cache over `dir` (created if missing), loading every
    /// spill entry already there that passes digest verification; `None`
    /// keeps the cache memory-only.  Spill writes consult `injector` at
    /// [`FaultSite::CacheSpill`].
    ///
    /// Corrupt or torn spill files are quarantined to
    /// `<entry>.json.quarantine` and counted, not fatal: a half-written
    /// entry from a crashed server must not brick the restart, and must
    /// never be served as a result.
    ///
    /// The cache's hit/miss/quarantine/spill-error counters live on
    /// `registry` (the owning server's per-instance registry) so the
    /// `metrics` verb exports them alongside the rest of the service.
    ///
    /// # Errors
    ///
    /// Fails only when the directory cannot be created or listed.
    pub fn open(
        dir: Option<PathBuf>,
        injector: FaultInjector,
        registry: &MetricsRegistry,
    ) -> std::io::Result<ResultCache> {
        let mut entries = BTreeMap::new();
        let mut quarantined = 0u64;
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                match load_entry(&path) {
                    Ok(Some((key, report))) => {
                        entries.insert(key, report);
                    }
                    Ok(None) => {}
                    Err(()) => quarantined += 1,
                }
            }
        }
        registry
            .counter(
                "lad_serve_cache_quarantined_total",
                "spill files quarantined as corrupt, torn, or schema-foreign",
            )
            .add(quarantined);
        Ok(ResultCache {
            dir,
            entries: Mutex::new(entries),
            hits: registry.counter("lad_serve_cache_hits_total", "result-cache lookup hits"),
            misses: registry.counter("lad_serve_cache_misses_total", "result-cache lookup misses"),
            spill_errors: registry.counter(
                "lad_serve_cache_spill_errors_total",
                "failed spill writes to the cache directory",
            ),
            consecutive_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            injector,
        })
    }

    /// Looks a key up, counting a hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<SimulationReport> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        match entries.get(key) {
            Some(report) => {
                self.hits.inc();
                Some(report.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts a completed report and spills it to the cache directory as
    /// a digest-sealed envelope (atomically: temp file + `fsync` +
    /// rename).
    ///
    /// Spill failures degrade, never poison: after [`DEGRADE_AFTER`]
    /// consecutive failures (or one `ENOSPC`) the cache flips to
    /// memory-only mode and stops touching the disk — surfaced through
    /// [`ResultCache::mode`] and the `health` and `metrics` verbs.
    ///
    /// # Errors
    ///
    /// Fails when the spill write fails; the in-memory entry is kept
    /// either way, so the running server still serves it.
    pub fn insert(&self, key: CacheKey, report: SimulationReport) -> std::io::Result<()> {
        let body = JsonValue::object([("key", key.to_json()), ("report", report.to_json())]);
        let stem = key.file_stem();
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, report);
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        if self.degraded.load(Ordering::SeqCst) {
            return Ok(());
        }
        let path = dir.join(format!("{stem}.json"));
        match durable::write_sealed(&path, body, &self.injector, FaultSite::CacheSpill) {
            Ok(()) => {
                self.consecutive_failures.store(0, Ordering::SeqCst);
                Ok(())
            }
            Err(err) => {
                self.spill_errors.inc();
                let run = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if err.kind() == std::io::ErrorKind::StorageFull || run >= DEGRADE_AFTER {
                    self.degraded.store(true, Ordering::SeqCst);
                }
                Err(err)
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether persistent disk errors have flipped the cache to
    /// memory-only operation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The cache's current operating mode: `"durable"` (spilling to
    /// disk), `"degraded"` (has a directory but stopped spilling after
    /// persistent errors), or `"memory"` (opened without a directory).
    pub fn mode(&self) -> &'static str {
        if self.dir.is_none() {
            "memory"
        } else if self.is_degraded() {
            "degraded"
        } else {
            "durable"
        }
    }
}

/// `Ok(Some(..))` for a verified entry, `Ok(None)` for a missing file,
/// `Err(())` for a corrupt one (already quarantined).
#[allow(clippy::result_unit_err)]
fn load_entry(path: &Path) -> Result<Option<(CacheKey, SimulationReport)>, ()> {
    let body = match durable::load_sealed(path) {
        LoadOutcome::Loaded(body) => body,
        LoadOutcome::Missing => return Ok(None),
        LoadOutcome::Quarantined(_) => return Err(()),
    };
    let parse = || -> Option<(CacheKey, SimulationReport)> {
        let key = CacheKey::from_json(body.get("key")?).ok()?;
        let report = SimulationReport::from_json(body.get("report")?).ok()?;
        Some((key, report))
    };
    match parse() {
        Some(entry) => Ok(Some(entry)),
        None => {
            // Digest-valid but schema-foreign: quarantine it too.
            durable::quarantine_file(path);
            Err(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_common::config::SystemConfig;
    use lad_replication::config::ReplicationConfig;
    use lad_sim::engine::Simulator;
    use lad_trace::benchmarks::Benchmark;
    use lad_trace::generator::TraceGenerator;

    fn small_report() -> SimulationReport {
        let system = SystemConfig::small_test();
        let trace =
            TraceGenerator::new(Benchmark::Barnes.profile()).generate(system.num_cores, 60, 3);
        let mut sim = Simulator::new(system, ReplicationConfig::locality_aware(3));
        sim.run(&trace)
    }

    /// The value of the cache counter `name` on `registry`: registration
    /// is idempotent, so this resolves the cache's own counter.
    fn count(registry: &MetricsRegistry, name: &str) -> u64 {
        registry.counter(name, "").value()
    }

    fn key(scheme: &str) -> CacheKey {
        CacheKey {
            trace: "00112233aabbccdd".into(),
            config: "ffeeddccbbaa0011".into(),
            scheme: scheme.into(),
        }
    }

    #[test]
    fn cache_spills_and_reloads_across_instances() {
        let dir = std::env::temp_dir().join(format!("lad-serve-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = small_report();

        let registry = MetricsRegistry::new();
        let cache =
            ResultCache::open(Some(dir.clone()), FaultInjector::disarmed(), &registry).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.mode(), "durable");
        assert!(cache.lookup(&key("RT-3")).is_none());
        assert_eq!(count(&registry, "lad_serve_cache_misses_total"), 1);
        cache.insert(key("RT-3"), report.clone()).unwrap();
        let hit = cache.lookup(&key("RT-3")).unwrap();
        assert_eq!(hit.to_json().pretty(), report.to_json().pretty());
        assert_eq!(count(&registry, "lad_serve_cache_hits_total"), 1);

        // A second instance over the same directory sees the entry;
        // corrupt extra files are quarantined, not fatal, and never
        // served.
        std::fs::write(dir.join("garbage.json"), "{not json").unwrap();
        std::fs::write(dir.join("not-a-report.json"), "{\"key\": 3}").unwrap();
        let registry = MetricsRegistry::new();
        let reloaded =
            ResultCache::open(Some(dir.clone()), FaultInjector::disarmed(), &registry).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(count(&registry, "lad_serve_cache_quarantined_total"), 2);
        assert!(dir.join("garbage.json.quarantine").is_file());
        assert!(!dir.join("garbage.json").exists());
        let hit = reloaded.lookup(&key("RT-3")).unwrap();
        assert_eq!(hit.to_json().pretty(), report.to_json().pretty());
        // Different scheme, same trace/config: distinct entry.
        assert!(reloaded.lookup(&key("S-NUCA")).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_flipped_byte_in_a_spilled_entry_is_quarantined_not_served() {
        let dir = std::env::temp_dir().join(format!("lad-serve-cache-flip-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = small_report();
        let cache = ResultCache::open(
            Some(dir.clone()),
            FaultInjector::disarmed(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        cache.insert(key("RT-3"), report).unwrap();
        drop(cache);

        let path = dir.join(format!("{}.json", key("RT-3").file_stem()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let registry = MetricsRegistry::new();
        let reloaded =
            ResultCache::open(Some(dir.clone()), FaultInjector::disarmed(), &registry).unwrap();
        assert!(
            reloaded.lookup(&key("RT-3")).is_none(),
            "corrupt entry served"
        );
        assert_eq!(count(&registry, "lad_serve_cache_quarantined_total"), 1);
        assert!(durable::quarantine_path(&path).is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_spill_errors_degrade_to_memory_only() {
        use lad_common::fault::FaultPlan;

        let dir =
            std::env::temp_dir().join(format!("lad-serve-cache-degrade-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = small_report();
        // One ENOSPC is enough to degrade.
        let plan = FaultPlan::parse("cache-spill:1:enospc").unwrap();
        let registry = MetricsRegistry::new();
        let cache =
            ResultCache::open(Some(dir.clone()), FaultInjector::armed(plan), &registry).unwrap();
        let err = cache.insert(key("RT-3"), report.clone()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(cache.is_degraded());
        assert_eq!(cache.mode(), "degraded");
        assert_eq!(count(&registry, "lad_serve_cache_spill_errors_total"), 1);
        // The in-memory entry still serves, and later inserts succeed
        // memory-only without touching the disk.
        assert!(cache.lookup(&key("RT-3")).is_some());
        cache.insert(key("RT-8"), report).unwrap();
        assert!(cache.lookup(&key("RT-8")).is_some());
        assert!(!dir
            .join(format!("{}.json", key("RT-8").file_stem()))
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_stems_separate_schemes_and_stay_fs_safe() {
        assert_eq!(
            key("ASR-0.50").file_stem(),
            "00112233aabbccdd-ffeeddccbbaa0011-ASR_0_50"
        );
        assert_ne!(key("RT-3").file_stem(), key("RT-8").file_stem());
        assert!(!key("a/b\\c").file_stem().contains(['/', '\\']));
    }
}
