//! The metrics registry and its typed instruments.
//!
//! A [`MetricsRegistry`] maps metric names (plus optional label sets) to
//! shared instrument cells.  Callers resolve a handle **once** — at
//! construction or first use — and then record through it, with no string
//! hashing or map lookup per event: a counter or gauge record is a single
//! `Relaxed` atomic operation on the pre-resolved cell, and a histogram
//! record one lock of the cell's [`Histogram`].  A registry built with
//! [`MetricsRegistry::noop`] hands out disarmed handles whose record
//! methods are a branch on an immediate `bool` and nothing else, so the
//! cost of *not* observing is measurable (and benched) too.
//!
//! Registration is idempotent: asking for the same `(name, labels)` pair
//! again returns a handle on the same cell, so independent subsystems can
//! share an instrument without coordinating.  Asking for an existing name
//! with a *different* instrument kind is a programming error and panics —
//! silently splitting a metric across kinds would corrupt the exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use lad_common::stats::Histogram;

/// One `(key, value)` metric label.  Labels are sorted by key inside the
/// registry, so registration order does not matter.
pub type Label = (String, String);

/// A point-in-time snapshot of one instrument, used by the exposition
/// layer.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (e.g. `lad_serve_frames_total`).
    pub name: String,
    /// Help text registered with the instrument.
    pub help: String,
    /// Label set, sorted by key (empty for unlabelled instruments).
    pub labels: Vec<Label>,
    /// The instrument's value at snapshot time.
    pub value: SampleValue,
}

/// The value half of a [`MetricSample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Gauge reading (may be negative).
    Gauge(i64),
    /// Full histogram contents — exact, not pre-bucketed quantiles.
    Histogram(Histogram),
}

/// A monotonically increasing counter handle.
///
/// Cloning is cheap and clones share the same cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    armed: bool,
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.armed {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current reading.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (queue depth, worker
/// occupancy, a mode flag).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    armed: bool,
}

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        if self.armed {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.armed {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current reading.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An exact latency histogram handle.  Samples are recorded in integer
/// units chosen by the caller (the workspace convention is microseconds,
/// suffix `_us`); snapshots export the full distribution so percentiles
/// are computed over every recorded sample, not interpolated buckets.
///
/// Every handle on one instrument shares one mutex-guarded
/// [`Histogram`], so each record takes one lock: cheap at the per-verb,
/// per-cell and per-spill rates recorded here.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    cell: Arc<Mutex<Histogram>>,
    armed: bool,
}

impl LatencyHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.armed {
            self.cell
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(value);
        }
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A copy of the current contents.
    pub fn snapshot(&self) -> Histogram {
        self.cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[derive(Debug)]
enum InstrumentCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Mutex<Histogram>>),
}

impl InstrumentCell {
    fn kind(&self) -> &'static str {
        match self {
            InstrumentCell::Counter(_) => "counter",
            InstrumentCell::Gauge(_) => "gauge",
            InstrumentCell::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Instrument {
    help: String,
    cell: InstrumentCell,
}

/// Registry key: metric name plus its sorted label set.
type InstrumentKey = (String, Vec<Label>);

/// A process- or component-scoped collection of named instruments.
///
/// The registry is cheap to clone (clones share the instrument table) and
/// safe to use from any number of threads.  See the module docs for the
/// armed/no-op split and the idempotent-registration contract.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    armed: bool,
    instruments: Mutex<BTreeMap<InstrumentKey, Instrument>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an armed registry: handles record for real.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                armed: true,
                instruments: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Creates a disarmed registry: every handle it hands out is a no-op
    /// whose record methods test one `bool` and return.  Its instruments
    /// still register, so a snapshot or exposition lists each at zero.
    pub fn noop() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                armed: false,
                instruments: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_armed(&self) -> bool {
        self.inner.armed
    }

    fn resolve<F, M, T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: F,
        open: M,
    ) -> T
    where
        F: FnOnce() -> InstrumentCell,
        M: FnOnce(&InstrumentCell) -> Option<T>,
    {
        let mut sorted: Vec<Label> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let key = (name.to_string(), sorted);
        let mut table = self
            .inner
            .instruments
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = table.entry(key).or_insert_with(|| Instrument {
            help: help.to_string(),
            cell: make(),
        });
        match open(&entry.cell) {
            Some(handle) => handle,
            // A name registered under two instrument kinds is a bug in the
            // instrumenting code, never remote input; failing loudly beats
            // corrupting the exposition.
            None => panic!(
                "metric {name:?} already registered as a {}",
                entry.cell.kind()
            ),
        }
    }

    /// Resolves (registering on first use) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Resolves (registering on first use) a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let armed = self.inner.armed;
        self.resolve(
            name,
            labels,
            help,
            || InstrumentCell::Counter(Arc::new(AtomicU64::new(0))),
            |cell| match cell {
                InstrumentCell::Counter(c) => Some(Counter {
                    cell: Arc::clone(c),
                    armed,
                }),
                _ => None,
            },
        )
    }

    /// Resolves (registering on first use) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Resolves (registering on first use) a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let armed = self.inner.armed;
        self.resolve(
            name,
            labels,
            help,
            || InstrumentCell::Gauge(Arc::new(AtomicI64::new(0))),
            |cell| match cell {
                InstrumentCell::Gauge(c) => Some(Gauge {
                    cell: Arc::clone(c),
                    armed,
                }),
                _ => None,
            },
        )
    }

    /// Resolves (registering on first use) an unlabelled latency histogram.
    pub fn histogram(&self, name: &str, help: &str) -> LatencyHistogram {
        self.histogram_with(name, &[], help)
    }

    /// Resolves (registering on first use) a latency histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> LatencyHistogram {
        let armed = self.inner.armed;
        self.resolve(
            name,
            labels,
            help,
            || InstrumentCell::Histogram(Arc::new(Mutex::new(Histogram::new()))),
            |cell| match cell {
                InstrumentCell::Histogram(c) => Some(LatencyHistogram {
                    cell: Arc::clone(c),
                    armed,
                }),
                _ => None,
            },
        )
    }

    /// Snapshots every registered instrument, in `(name, labels)` order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let table = self
            .inner
            .instruments
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        table
            .iter()
            .map(|((name, labels), instrument)| MetricSample {
                name: name.clone(),
                help: instrument.help.clone(),
                labels: labels.clone(),
                value: match &instrument.cell {
                    InstrumentCell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    InstrumentCell::Gauge(c) => SampleValue::Gauge(c.load(Ordering::Relaxed)),
                    InstrumentCell::Histogram(c) => SampleValue::Histogram(
                        c.lock().unwrap_or_else(PoisonError::into_inner).clone(),
                    ),
                },
            })
            .collect()
    }
}

/// The process-wide registry used by library-level instrumentation (the
/// simulation engine, the experiment runner's worker pools).  Armed; code
/// that wants a disarmed variant threads its own
/// [`MetricsRegistry::noop`] instead.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("events_total", "events");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Re-resolving yields the same cell.
        assert_eq!(registry.counter("events_total", "events").value(), 5);

        let g = registry.gauge("depth", "queue depth");
        g.set(7);
        g.add(-3);
        g.inc();
        g.dec();
        assert_eq!(g.value(), 4);
    }

    #[test]
    fn labelled_instruments_are_distinct_and_order_insensitive() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_with("req", &[("verb", "stats"), ("code", "200")], "x");
        let b = registry.counter_with("req", &[("code", "200"), ("verb", "stats")], "x");
        let other = registry.counter_with("req", &[("verb", "submit"), ("code", "200")], "x");
        a.inc();
        b.inc();
        other.add(10);
        assert_eq!(a.value(), 2);
        assert_eq!(other.value(), 10);
        assert_eq!(registry.snapshot().len(), 2);
    }

    #[test]
    fn histogram_records_dense_and_sparse_exactly() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("latency_us", "latency");
        for v in [0, 1, 1, 500, 1023, 1024, 90_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 7);
        assert_eq!(snap.max(), 90_000);
        assert_eq!(snap.count_in(1, 1), 2);
        assert_eq!(snap.percentile(100.0), Some(90_000));
        h.record_duration(std::time::Duration::from_micros(250));
        assert_eq!(h.snapshot().count_in(250, 250), 1);
    }

    #[test]
    fn noop_registry_hands_out_dead_handles() {
        let registry = MetricsRegistry::noop();
        assert!(!registry.is_armed());
        let c = registry.counter("x", "x");
        let g = registry.gauge("y", "y");
        let h = registry.histogram("z", "z");
        c.add(100);
        g.set(9);
        h.record(5);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.snapshot().count(), 0);
        // The instruments still exist for exposition (reporting zeros),
        // so a scrape of a disarmed component has a stable shape.
        assert_eq!(registry.snapshot().len(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("dual", "x");
        registry.gauge("dual", "x");
    }

    #[test]
    fn concurrent_counts_are_exact_under_contention() {
        // Satellite requirement: 8 threads hammering one handle must sum
        // exactly — `Relaxed` ordering never drops increments.
        let registry = MetricsRegistry::new();
        let counter = registry.counter("contended_total", "x");
        let histogram = registry.histogram("contended_us", "x");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let counter = counter.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.inc();
                        // Mix dense and (rare) sparse values.
                        histogram.record(if i % 1000 == 0 { 5000 } else { i % 64 });
                    }
                });
            }
        });
        assert_eq!(counter.value(), THREADS as u64 * PER_THREAD);
        let snap = histogram.snapshot();
        assert_eq!(snap.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(
            snap.count_in(5000, 5000),
            THREADS as u64 * (PER_THREAD / 1000)
        );
    }

    #[test]
    fn global_registry_is_one_instance() {
        let a = global().counter("obs_selftest_total", "x");
        a.inc();
        assert!(global().counter("obs_selftest_total", "x").value() >= 1);
        assert!(global().is_armed());
    }
}
