//! Counters, histograms and summary statistics.
//!
//! The experiment harness reports the same aggregates the paper does:
//! per-component sums (energy breakdowns), normalized ratios, arithmetic
//! means (Figures 6–8 plot the *average*, as the captions note) and
//! geometric means (Figures 9 and 10).

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use lad_common::stats::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.increment();
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Rebuilds a counter from a checkpointed [`Counter::value`].
    pub fn from_value(value: u64) -> Self {
        Counter(value)
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    pub fn increment(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram over `u64` sample values with exact buckets.
///
/// Used for run-length distributions (Figure 1) and queueing-delay
/// diagnostics.
///
/// Values below [`Histogram::DENSE_LIMIT`] are counted in a flat array
/// (recording is one bounds check and an increment — this sits on the
/// network-latency hot path, one sample per message); the rare large
/// values spill into a sparse tree map.  The split is invisible to the
/// API: iteration, equality and `Debug` output are defined over the
/// logical `(value, count)` contents.
#[derive(Clone, Default)]
pub struct Histogram {
    dense: Vec<u64>,
    sparse: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Values strictly below this are stored in the dense array.
    pub const DENSE_LIMIT: u64 = 1024;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_weighted(value, 1);
    }

    /// Records `weight` occurrences of `value`.
    pub fn record_weighted(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        if value < Self::DENSE_LIMIT {
            let idx = value as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] += weight;
        } else {
            *self.sparse.entry(value).or_insert(0) += weight;
        }
        self.count += weight;
        self.sum += value as u128 * weight as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Total number of samples whose value lies in `[low, high]` (inclusive).
    pub fn count_in(&self, low: u64, high: u64) -> u64 {
        if low > high {
            return 0;
        }
        let mut total = 0;
        if low < Self::DENSE_LIMIT && !self.dense.is_empty() {
            let hi = high.min(self.dense.len() as u64 - 1);
            if low <= hi {
                total += self.dense[low as usize..=hi as usize].iter().sum::<u64>();
            }
        }
        if high >= Self::DENSE_LIMIT {
            let lo = low.max(Self::DENSE_LIMIT);
            total += self.sparse.range(lo..=high).map(|(_, c)| *c).sum::<u64>();
        }
        total
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(v, c)| (v as u64, *c))
            .chain(self.sparse.iter().map(|(v, c)| (*v, *c)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (value, count) in other.iter() {
            self.record_weighted(value, count);
        }
    }

    /// Exact percentile of the recorded samples, or `None` if empty.
    ///
    /// `p` is clamped to `[0, 100]`.  The result is the smallest recorded
    /// value `v` such that at least `ceil(p/100 * count)` samples are
    /// `<= v` (the nearest-rank definition), so `percentile(0.0)` is the
    /// minimum, `percentile(100.0)` the maximum, and every returned value
    /// is one that was actually recorded — no interpolation.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0;
        for (value, count) in self.iter() {
            seen += count;
            if seen >= rank {
                return Some(value);
            }
        }
        Some(self.max)
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.max == other.max
            && self.iter().eq(other.iter())
    }
}

impl Eq for Histogram {}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Buckets<'a>(&'a Histogram);
        impl fmt::Debug for Buckets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Histogram")
            .field("buckets", &Buckets(self))
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish()
    }
}

/// Arithmetic mean of a slice (`None` if empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Geometric mean of a slice (`None` if empty or any value is non-positive).
///
/// The paper uses the geometric mean for the normalized results of
/// Figures 9 and 10.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Ratio `value / baseline`, returning 1.0 when the baseline is zero (both
/// are zero in practice in that case — e.g. a benchmark with no off-chip
/// accesses under either scheme).
pub fn normalized(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        1.0
    } else {
        value / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.value(), 0);
        c.increment();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.to_string(), "10");
        assert_eq!(Counter::from_value(c.value()), c);
    }

    #[test]
    fn histogram_counts_and_ranges() {
        let mut h = Histogram::new();
        for v in [1, 1, 2, 3, 9, 10, 12] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 12);
        // Paper's Figure 1 buckets: [1-2], [3-9], [>=10].
        assert_eq!(h.count_in(1, 2), 3);
        assert_eq!(h.count_in(3, 9), 2);
        assert_eq!(h.count_in(10, u64::MAX), 2);
        assert!((h.mean().unwrap() - 38.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_weighted_and_merge() {
        let mut a = Histogram::new();
        a.record_weighted(5, 3);
        a.record_weighted(7, 0);
        let mut b = Histogram::new();
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.count_in(5, 5), 4);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn histogram_empty_mean_is_none() {
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn histogram_dense_sparse_boundary() {
        let mut h = Histogram::new();
        let lim = Histogram::DENSE_LIMIT;
        for v in [0, 1, lim - 1, lim, lim + 5, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1 << 40);
        assert_eq!(h.count_in(0, lim - 1), 3);
        assert_eq!(h.count_in(lim, lim + 5), 2);
        assert_eq!(h.count_in(lim, u64::MAX), 3);
        assert_eq!(h.count_in(0, u64::MAX), 6);
        assert_eq!(h.count_in(5, 4), 0);
        // Iteration crosses the dense/sparse boundary in value order.
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (0, 1),
                (1, 1),
                (lim - 1, 1),
                (lim, 1),
                (lim + 5, 1),
                (1 << 40, 1)
            ]
        );
    }

    #[test]
    fn histogram_percentiles_are_exact_nearest_rank() {
        assert_eq!(Histogram::new().percentile(50.0), None);
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
        // Out-of-range values clamp instead of panicking.
        assert_eq!(h.percentile(-5.0), Some(1));
        assert_eq!(h.percentile(500.0), Some(100));
        // Every answer is a recorded value, even across the sparse split.
        let mut skewed = Histogram::new();
        skewed.record_weighted(2, 99);
        skewed.record(1 << 30);
        assert_eq!(skewed.percentile(50.0), Some(2));
        assert_eq!(skewed.percentile(100.0), Some(1 << 30));
    }

    #[test]
    fn histogram_equality_is_logical() {
        // Same logical contents recorded in different orders compare equal,
        // and the Debug form (used by determinism tests) matches too.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3, 2000, 3, 7] {
            a.record(v);
        }
        for v in [7, 3, 3, 2000] {
            b.record(v);
        }
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.record(9);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_and_geomean() {
        assert_eq!(mean(&[]), None);
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, 0.0]), None);
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        assert!((normalized(3.0, 4.0) - 0.75).abs() < 1e-12);
        assert_eq!(normalized(0.0, 0.0), 1.0);
    }
}
