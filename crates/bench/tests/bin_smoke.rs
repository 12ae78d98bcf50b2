//! Smoke test: every figure/table binary must run to completion at
//! `--quick` scale and produce output.
//!
//! This keeps the figure-reproduction code exercised by `cargo test` instead
//! of only being shipped: a binary that panics, hangs or prints nothing is a
//! regression even if the library tests pass.

use std::process::Command;

fn run_quick(name: &str, exe: &str) {
    let output = Command::new(exe)
        .arg("--quick")
        .output()
        .unwrap_or_else(|err| panic!("failed to spawn {name}: {err}"));
    assert!(
        output.status.success(),
        "{name} --quick exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().count() >= 2,
        "{name} --quick printed almost nothing:\n{stdout}"
    );
}

macro_rules! bin_smoke_tests {
    ($($test_name:ident => $bin:literal),+ $(,)?) => {$(
        #[test]
        fn $test_name() {
            run_quick($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
        }
    )+};
}

bin_smoke_tests! {
    fig1_runlength_quick => "fig1_runlength",
    fig6_energy_quick => "fig6_energy",
    fig7_completion_quick => "fig7_completion",
    fig8_miss_breakdown_quick => "fig8_miss_breakdown",
    fig9_limited_classifier_quick => "fig9_limited_classifier",
    fig10_cluster_size_quick => "fig10_cluster_size",
    headline_summary_quick => "headline_summary",
    sec24_storage_quick => "sec24_storage",
    sec42_replacement_quick => "sec42_replacement",
    table1_config_quick => "table1_config",
    table2_benchmarks_quick => "table2_benchmarks",
}
