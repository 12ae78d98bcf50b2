//! Runs every workload of `BENCHMARK.json`, untraced and traced, at tiny
//! scale, and checks that each result line and `BENCHMARK.json` itself
//! parse through `lad_common::json` and agree: the right metric names with
//! the right units, every output check passed.

use std::process::Command;

use lad_common::json::JsonValue;

fn benchmark_spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &JsonValue, section: &str) -> Vec<(String, String)> {
    let field = |metric: &JsonValue, key: &str| {
        metric
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{section} entry without {key}"))
            .to_string()
    };
    spec.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|metric| (field(metric, "name"), field(metric, "unit")))
        .collect()
}

#[test]
fn every_workload_reports_its_catalog_at_tiny_scale() {
    let spec = benchmark_spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "tiny"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .env_remove("CARGO_TARGET_DIR")
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = JsonValue::parse(last).expect("the result line parses");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("a metrics object");
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, metric)| {
                    assert!(metric.get("value").and_then(JsonValue::as_f64).is_some());
                    let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                reported,
                names_and_units(&spec, section),
                "{workload} {section}"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_have_bounds_within_the_limit() {
    let spec = benchmark_spec();
    let metrics = spec
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert!(metrics
        .iter()
        .any(|m| m.get("name").and_then(JsonValue::as_str) == Some("setup_s")));
    for metric in metrics {
        let bound = metric.get("bound").and_then(JsonValue::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{metric}");
    }
}
