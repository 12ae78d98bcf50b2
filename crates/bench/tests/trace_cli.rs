//! End-to-end smoke test for the `lad-trace` CLI: record a quick suite,
//! inspect and replay a file, and round-trip through the text form — the
//! same flow the CI workflow exercises in a temp dir.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use lad_common::json::JsonValue;
use lad_sim::metrics::SimulationReport;

fn lad_trace(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_lad-trace"))
        .args(args)
        .output()
        .expect("failed to spawn lad-trace");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn run_ok(args: &[&str]) -> String {
    let (ok, stdout, stderr) = lad_trace(args);
    assert!(ok, "lad-trace {args:?} failed:\n{stderr}");
    stdout
}

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "lad-trace-cli-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn assert_file_nonempty(path: &Path) {
    let len = std::fs::metadata(path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()))
        .len();
    assert!(len > 0, "{} is empty", path.display());
}

#[test]
fn record_replay_inspect_convert_pipeline() {
    let dir = TempDir::new();
    let out = dir.0.to_str().unwrap().to_string();

    // Record the quick suite at smoke scale.
    let stdout = run_ok(&[
        "record",
        "--out",
        &out,
        "--suite",
        "quick",
        "--cores",
        "4",
        "--accesses",
        "80",
        "--seed",
        "7",
    ]);
    assert!(
        stdout.contains("BARNES"),
        "record output should list benchmarks:\n{stdout}"
    );
    let barnes = dir.path("barnes.ladt");
    assert_file_nonempty(&barnes);

    // Inspect reports the header and per-core stats.
    let stdout = run_ok(&["inspect", barnes.to_str().unwrap()]);
    assert!(stdout.contains("benchmark   BARNES"), "{stdout}");
    assert!(stdout.contains("cores       4"), "{stdout}");
    assert!(stdout.contains("core  accesses"), "{stdout}");

    // Replay under RT-3 and emit a JSON report that parses and decodes.
    let json_path = dir.path("barnes.json");
    let stdout = run_ok(&[
        "replay",
        barnes.to_str().unwrap(),
        "--scheme",
        "RT-3",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(stdout.contains("scheme           RT-3"), "{stdout}");
    let text = std::fs::read_to_string(&json_path).unwrap();
    let value = JsonValue::parse(&text).expect("replay --json must emit parseable JSON");
    let report = SimulationReport::from_json(&value).expect("JSON must decode to a report");
    assert_eq!(report.benchmark, "BARNES");
    assert!(report.total_accesses > 0);

    // Convert to text and back; the re-imported file replays too.
    let text_path = dir.path("barnes.txt");
    run_ok(&[
        "convert",
        "--to",
        "text",
        barnes.to_str().unwrap(),
        text_path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&text_path).unwrap();
    assert!(
        text.lines()
            .any(|l| l.starts_with(|c: char| c.is_ascii_digit())),
        "{text}"
    );
    let reimported = dir.path("barnes2.ladt");
    run_ok(&[
        "convert",
        "--to",
        "ladt",
        text_path.to_str().unwrap(),
        reimported.to_str().unwrap(),
        "--name",
        "BARNES",
    ]);
    let stdout = run_ok(&["replay", reimported.to_str().unwrap(), "--scheme", "S-NUCA"]);
    assert!(stdout.contains("benchmark        BARNES"), "{stdout}");
}

#[test]
fn cli_errors_are_reported_not_panicked() {
    let dir = TempDir::new();

    // No arguments: usage on stderr, exit code 2.
    let (ok, _, stderr) = lad_trace(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"), "{stderr}");

    // Unknown command.
    let (ok, _, stderr) = lad_trace(&["transmogrify"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    // Missing file.
    let missing = dir.path("missing.ladt");
    let (ok, _, stderr) = lad_trace(&["inspect", missing.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("lad-trace:"), "{stderr}");

    // A non-LADT file is a typed decode error, not a panic.
    let bogus = dir.path("bogus.ladt");
    std::fs::write(&bogus, b"definitely not a trace").unwrap();
    let (ok, _, stderr) = lad_trace(&["replay", bogus.to_str().unwrap(), "--scheme", "RT-3"]);
    assert!(!ok);
    assert!(stderr.contains("not a LADT trace"), "{stderr}");

    // Unknown replay scheme surfaces the registry error.
    let (ok, _, stderr) = lad_trace(&["replay", bogus.to_str().unwrap(), "--scheme", "BOGUS"]);
    assert!(!ok, "{stderr}");
}

#[test]
fn inspect_exits_quietly_when_its_reader_closes_early() {
    // `lad-trace inspect wide.ladt | head -3`: the per-core table of a
    // 4 096-core trace is larger than a pipe buffers, so inspect is still
    // writing when its reader stops after three lines.
    let dir = TempDir::new();
    let text = dir.path("wide.txt");
    let ladt = dir.path("wide.ladt");
    let lines: String = (0..4096)
        .map(|core| format!("{core} 0x{:x} 0\n", 64 * core))
        .collect();
    std::fs::write(&text, lines).unwrap();
    run_ok(&[
        "convert",
        "--to",
        "ladt",
        text.to_str().unwrap(),
        ladt.to_str().unwrap(),
    ]);

    let mut child = Command::new(env!("CARGO_BIN_EXE_lad-trace"))
        .args(["inspect", ladt.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn lad-trace");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "inspect ended before three lines");
    }
    drop(reader);
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "inspect exited with {:?} on a closed pipe:\n{stderr}",
        output.status.code()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
