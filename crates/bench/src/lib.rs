//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin/`.  The binaries print machine-readable CSV rows plus a short
//! human summary, so the series the paper plots can be regenerated
//! directly:
//!
//! ```text
//! cargo run --release -p lad-bench --bin fig6_energy
//! cargo run --release -p lad-bench --bin fig9_limited_classifier
//! ```
//!
//! All binaries honour two environment variables plus two flags:
//!
//! * `LAD_ACCESSES` — accesses per core (default 4000),
//! * `LAD_CORES` — number of simulated cores (default 64, the paper target),
//! * `--quick` — smoke-test scale (8 cores, 150 accesses per core) used by
//!   CI to exercise every figure binary; explicit environment variables
//!   still take precedence,
//! * `--json <path>` — additionally write the binary's results as a JSON
//!   document (see [`emit_json`]) that round-trips through
//!   `lad_common::json::JsonValue::parse`; CI validates every binary's
//!   output this way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use lad_common::config::SystemConfig;
use lad_common::json::JsonValue;
use lad_replication::scheme::{SchemeId, UnknownScheme};
use lad_sim::experiment::{ExperimentRunner, SchemeComparison};
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;
use lad_trace::suite::BenchmarkSuite;

/// Whether the binary was invoked with `--quick` (smoke-test scale).
pub fn quick_mode() -> bool {
    std::env::args().any(|arg| arg == "--quick")
}

/// The path given with `--json <path>`, if any.
pub fn json_output_path() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let Some(path) = args.next() else {
                eprintln!("--json requires a path argument");
                std::process::exit(2);
            };
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Fails fast on an unusable `--json` target: a missing path argument or an
/// unwritable location should abort before the simulations run, not after.
/// Creates (truncates) the target file; [`emit_json`] overwrites it with the
/// real document at the end of the run.  Called by [`harness_system`] /
/// [`harness_runner`], so every figure binary validates the flag at startup.
pub fn validate_json_target() {
    if let Some(path) = json_output_path() {
        lad_common::fs::atomic_write(&path, b"{}\n")
            .unwrap_or_else(|err| panic!("cannot write JSON report to {}: {err}", path.display()));
    }
}

/// Writes `value` (pretty-printed) to the `--json <path>` target when the
/// flag is present; a no-op otherwise.  The note goes to stderr so stdout
/// stays pure CSV.
///
/// # Panics
///
/// Panics when the file cannot be written — a silently dropped report is
/// worse than a failed run.
pub fn emit_json(value: &JsonValue) {
    if let Some(path) = json_output_path() {
        lad_common::fs::atomic_write(&path, value.pretty().as_bytes())
            .unwrap_or_else(|err| panic!("cannot write JSON report to {}: {err}", path.display()));
        eprintln!("wrote JSON report to {}", path.display());
    }
}

/// Accesses per core used by the harness (override with `LAD_ACCESSES`).
pub fn accesses_per_core() -> usize {
    let fallback = if quick_mode() { 150 } else { 4000 };
    std::env::var("LAD_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

/// Number of cores simulated by the harness (override with `LAD_CORES`).
pub fn num_cores() -> usize {
    let fallback = if quick_mode() { 8 } else { 64 };
    std::env::var("LAD_CORES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

/// The system configuration used by the harness: the paper's Table 1 target,
/// scaled to [`num_cores`] cores.
pub fn harness_system() -> SystemConfig {
    validate_json_target();
    let cores = num_cores();
    if cores == 64 {
        SystemConfig::paper_default()
    } else {
        SystemConfig::paper_default().with_num_cores(cores)
    }
}

/// An experiment runner over `suite`, configured from the environment.
pub fn harness_runner(suite: BenchmarkSuite) -> ExperimentRunner {
    let suite = suite.with_accesses_per_core(accesses_per_core());
    ExperimentRunner::new(harness_system(), suite)
}

/// One `(benchmark, scheme)` cell of a [`SchemeComparison`], paired with the
/// benchmark's baseline report — the shape Figures 6–8 iterate over.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonRow<'a> {
    /// The benchmark of this row.
    pub benchmark: Benchmark,
    /// The scheme column of this row.
    pub scheme: SchemeId,
    /// The report of `(benchmark, scheme)`.
    pub report: &'a SimulationReport,
    /// The report of `(benchmark, baseline)` the row normalizes against.
    pub baseline: &'a SimulationReport,
}

/// Flattens a comparison into the row order the paper's figures plot: for
/// every benchmark, every present scheme of
/// [`SchemeComparison::SCHEME_ORDER`], each paired with the benchmark's
/// `baseline` report.  Schemes absent from the comparison are skipped;
/// a missing *baseline* is an error.
///
/// # Errors
///
/// Returns [`UnknownScheme`] when any benchmark lacks the baseline report.
pub fn comparison_rows(
    comparison: &SchemeComparison,
    baseline: SchemeId,
) -> Result<Vec<ComparisonRow<'_>>, UnknownScheme> {
    let mut rows = Vec::new();
    for &benchmark in comparison.benchmarks() {
        let baseline_report = comparison.report(benchmark, baseline)?;
        for scheme in SchemeComparison::SCHEME_ORDER {
            if let Ok(report) = comparison.report(benchmark, scheme) {
                rows.push(ComparisonRow {
                    benchmark,
                    scheme,
                    report,
                    baseline: baseline_report,
                });
            }
        }
    }
    Ok(rows)
}

/// Wraps a figure's JSON payload with its name, so every `--json` document
/// is self-describing: `{"figure": <name>, ...payload fields}`.
pub fn figure_json(name: &str, payload: JsonValue) -> JsonValue {
    let mut pairs = vec![("figure".to_string(), JsonValue::from(name))];
    match payload {
        JsonValue::Object(fields) => pairs.extend(fields),
        other => pairs.push(("data".to_string(), other)),
    }
    JsonValue::Object(pairs)
}

/// Prints one CSV row (comma-joined).
pub fn csv_row<I: IntoIterator<Item = String>>(fields: I) {
    println!("{}", fields.into_iter().collect::<Vec<_>>().join(","));
}

/// Formats a float with three decimals for CSV output.
pub fn f3(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_target() {
        // Environment overrides are not set in the test environment.
        if std::env::var("LAD_CORES").is_err() {
            assert_eq!(num_cores(), 64);
            assert_eq!(harness_system().num_cores, 64);
        }
        if std::env::var("LAD_ACCESSES").is_err() {
            assert_eq!(accesses_per_core(), 4000);
        }
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn runner_uses_requested_trace_length() {
        let runner = harness_runner(BenchmarkSuite::quick());
        assert_eq!(runner.suite().accesses_per_core(), accesses_per_core());
    }

    #[test]
    fn comparison_rows_pair_each_scheme_with_the_baseline() {
        let suite = BenchmarkSuite::custom(vec![Benchmark::Dedup], 120, 3);
        let runner = ExperimentRunner::new(SystemConfig::small_test(), suite).with_threads(2);
        let comparison = runner.run_paper_comparison();
        let rows = comparison_rows(&comparison, SchemeId::StaticNuca).unwrap();
        assert_eq!(rows.len(), SchemeComparison::SCHEME_ORDER.len());
        for row in &rows {
            assert_eq!(row.benchmark, Benchmark::Dedup);
            assert_eq!(row.baseline.scheme_id, SchemeId::StaticNuca);
        }
        // A baseline that was never run is a typed error.
        let err = comparison_rows(&comparison, SchemeId::Custom("NOPE")).unwrap_err();
        assert_eq!(err.scheme, SchemeId::Custom("NOPE"));
    }

    #[test]
    fn figure_json_is_self_describing() {
        let wrapped = figure_json(
            "fig6_energy",
            JsonValue::object([("rows", JsonValue::Array(vec![]))]),
        );
        assert_eq!(
            wrapped.get("figure").and_then(JsonValue::as_str),
            Some("fig6_energy")
        );
        assert!(wrapped.get("rows").is_some());
        let scalar = figure_json("x", JsonValue::from(1.0));
        assert!(scalar.get("data").is_some());
    }
}
