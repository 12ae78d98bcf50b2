//! Machine-readable report regression: every figure/table binary run with
//! `--quick --json <path>` must emit a JSON document that
//!
//! 1. parses with the workspace's own strict parser,
//! 2. is byte-stable under re-serialization (serialize → parse → serialize
//!    reproduces the same document),
//! 3. carries the self-describing `figure` field, and
//! 4. for binaries that embed a full [`SchemeComparison`], decodes back into
//!    one whose re-encoding matches the original entry for entry.
//!
//! CI runs this suite as a dedicated step so a report-format regression
//! fails the build even when the human-readable CSV output still looks fine.

use std::path::PathBuf;
use std::process::Command;

use lad_common::json::JsonValue;
use lad_sim::experiment::SchemeComparison;

fn run_with_json(name: &str, exe: &str) -> JsonValue {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "lad_json_roundtrip_{}_{}.json",
        name,
        std::process::id()
    ));
    let output = Command::new(exe)
        .arg("--quick")
        .arg("--json")
        .arg(&path)
        .output()
        .unwrap_or_else(|err| panic!("failed to spawn {name}: {err}"));
    assert!(
        output.status.success(),
        "{name} --quick --json exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("{name} wrote no JSON file at {}: {err}", path.display()));
    let _ = std::fs::remove_file(&path);

    // (1) The emitted document parses with our own strict parser.
    let value = JsonValue::parse(&text)
        .unwrap_or_else(|err| panic!("{name} emitted unparseable JSON: {err}\n{text}"));

    // (2) Serialization is stable: pretty(parse(pretty(v))) == pretty(v).
    let reparsed = JsonValue::parse(&value.pretty()).expect("re-serialized JSON must parse");
    assert_eq!(
        reparsed, value,
        "{name}: JSON is not stable under re-serialization"
    );

    // (3) Self-describing.
    assert_eq!(
        value.get("figure").and_then(JsonValue::as_str),
        Some(name),
        "{name}: missing or wrong `figure` field"
    );
    value
}

macro_rules! json_roundtrip_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {$(
        #[test]
        fn $test_name() {
            run_with_json($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
        }
    )+};
}

json_roundtrip_tests! {
    fig1_runlength_json => "fig1_runlength",
    fig8_miss_breakdown_json => "fig8_miss_breakdown",
    fig9_limited_classifier_json => "fig9_limited_classifier",
    fig10_cluster_size_json => "fig10_cluster_size",
    sec24_storage_json => "sec24_storage",
    sec42_replacement_json => "sec42_replacement",
    table1_config_json => "table1_config",
    table2_benchmarks_json => "table2_benchmarks",
}

/// The comparison-bearing binaries additionally round-trip through the typed
/// deserializer: `SchemeComparison::from_json(to_json(c)) == c`.
fn assert_comparison_roundtrips(name: &str, exe: &str) {
    let value = run_with_json(name, exe);
    let embedded = value
        .get("comparison")
        .unwrap_or_else(|| panic!("{name}: missing embedded comparison"));
    let comparison = SchemeComparison::from_json(embedded)
        .unwrap_or_else(|err| panic!("{name}: comparison does not decode: {err}"));
    assert!(!comparison.benchmarks().is_empty());
    assert_eq!(
        &comparison.to_json(),
        embedded,
        "{name}: comparison changes across a decode/encode round trip"
    );
}

#[test]
fn fig6_energy_comparison_roundtrips() {
    assert_comparison_roundtrips("fig6_energy", env!("CARGO_BIN_EXE_fig6_energy"));
}

#[test]
fn fig7_completion_comparison_roundtrips() {
    assert_comparison_roundtrips("fig7_completion", env!("CARGO_BIN_EXE_fig7_completion"));
}

#[test]
fn headline_summary_comparison_roundtrips() {
    assert_comparison_roundtrips("headline_summary", env!("CARGO_BIN_EXE_headline_summary"));
}

/// The committed top-level `BENCH_7.json` (the historical throughput
/// report of README's "Historical ledger") must always parse with the
/// workspace's own strict parser and keep its measured cells well-formed —
/// CI runs this on every push, so a hand-edit that corrupts the artifact
/// fails the build.
#[test]
fn committed_bench_7_report_parses() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_7.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "committed BENCH_7.json missing at {}: {err}",
            path.display()
        )
    });
    let value = JsonValue::parse(&text)
        .unwrap_or_else(|err| panic!("committed BENCH_7.json does not parse: {err}"));
    assert_eq!(
        value.get("figure").and_then(JsonValue::as_str),
        Some("bench_report")
    );
    let cells = value
        .get("cells")
        .and_then(JsonValue::as_array)
        .expect("committed BENCH_7.json has no cells");
    // The committed report covers the full sweep: 3 core counts x 7 schemes.
    assert_eq!(
        cells.len(),
        21,
        "committed report must cover the full sweep"
    );
    for cell in cells {
        assert!(
            cell.get("accesses_per_sec")
                .and_then(JsonValue::as_f64)
                .is_some_and(|rate| rate > 0.0),
            "cell without positive throughput: {cell:?}"
        );
    }
    assert!(!value
        .get("speedups")
        .and_then(JsonValue::as_array)
        .expect("committed BENCH_7.json has no speedups")
        .is_empty());
}
