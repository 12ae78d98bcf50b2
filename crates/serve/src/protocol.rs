//! Wire protocol of the experiment service: newline-delimited JSON frames
//! over TCP, a typed [`ServeError`] tree with stable HTTP-style codes, and
//! the job/trace specifications clients submit.
//!
//! # Frame grammar
//!
//! Every request is exactly one line of JSON (an object carrying a `"verb"`
//! string plus verb-specific fields), every response exactly one line:
//!
//! ```text
//! request  := json-object "\n"          (must contain "verb": string)
//! response := ok-response | error-response
//! ok-response    := {"ok": true, ...verb-specific fields...} "\n"
//! error-response := {"ok": false,
//!                    "error": {"code": u16, "kind": string,
//!                              "message": string}} "\n"
//! ```
//!
//! The verbs are `upload`, `submit`, `status`, `result`, `cancel`,
//! `health`, `metrics` and `shutdown` (see the README's protocol
//! specification for the per-verb fields).  `metrics` is the one verb
//! that reports numbers; `health` answers only `status` and `cache_mode`.  Error `code`s follow the familiar HTTP meanings
//! (`400` malformed input, `404` unknown resource, `409` not finished,
//! `410` cancelled, `429` queue full, `500` execution failure, `503`
//! shutting down); `kind` is a stable machine-readable discriminator.

use std::fmt;
use std::path::PathBuf;

use lad_common::json::JsonValue;
use lad_sim::experiment::ReplayError;

/// Version tag of the wire protocol, exported by the `metrics` verb as
/// the `lad_serve_protocol_version` gauge.  Version 2 folded version 1's
/// counter verb into `metrics` (a version-1 client that still sends it
/// gets `400 unknown_verb`) and slimmed `health` to `status` and
/// `cache_mode`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Everything that can go wrong serving a request, with a stable
/// HTTP-style [`ServeError::code`] and machine-readable
/// [`ServeError::kind`] for the wire.
#[derive(Debug)]
pub enum ServeError {
    /// The frame was not a JSON object with a `"verb"` string (or a field
    /// had the wrong JSON type).  Code 400.
    MalformedFrame(String),
    /// The verb is not part of the protocol.  Code 400.
    UnknownVerb(String),
    /// The frame parsed but a verb-specific field is missing or invalid.
    /// Code 400.
    BadRequest(String),
    /// No job with that id (it may have been submitted to another server
    /// instance).  Code 404.
    UnknownJob(String),
    /// No uploaded trace with that digest in the server's trace store.
    /// Code 404.
    UnknownTrace(String),
    /// The builtin benchmark label is not in [`lad_trace`]'s suite.
    /// Code 404.
    UnknownBenchmark(String),
    /// The cell queue is at capacity; resubmit later.  Code 429.
    QueueFull {
        /// The configured queue capacity that was hit.
        limit: usize,
    },
    /// `result` was asked for a job that still has queued or running
    /// cells.  Code 409.
    NotFinished {
        /// The job being polled.
        job: String,
        /// How many of its cells are still queued or running.
        remaining: usize,
    },
    /// `result` was asked for a job with cancelled cells.  Code 410.
    JobCancelled {
        /// The cancelled job.
        job: String,
    },
    /// A cell of the job failed to execute (trace decode error, worker
    /// panic, ...).  Code 500.
    JobFailed {
        /// The failed job.
        job: String,
        /// The first cell's failure message.
        message: String,
    },
    /// The server is draining and accepts no new work.  Code 503.
    ShuttingDown,
    /// A replay-layer failure surfaced verbatim (unknown scheme, trace
    /// decode error, ...).  Code 500.
    Replay(ReplayError),
    /// A server-side I/O failure (spill directory, socket, ...).
    /// Code 500.
    Io(std::io::Error),
}

impl ServeError {
    /// The HTTP-style status code of this error.
    pub fn code(&self) -> u16 {
        match self {
            ServeError::MalformedFrame(_)
            | ServeError::UnknownVerb(_)
            | ServeError::BadRequest(_) => 400,
            ServeError::UnknownJob(_)
            | ServeError::UnknownTrace(_)
            | ServeError::UnknownBenchmark(_) => 404,
            ServeError::NotFinished { .. } => 409,
            ServeError::JobCancelled { .. } => 410,
            ServeError::QueueFull { .. } => 429,
            ServeError::JobFailed { .. } | ServeError::Replay(_) | ServeError::Io(_) => 500,
            ServeError::ShuttingDown => 503,
        }
    }

    /// The stable machine-readable discriminator of this error.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::MalformedFrame(_) => "malformed_frame",
            ServeError::UnknownVerb(_) => "unknown_verb",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::UnknownJob(_) => "unknown_job",
            ServeError::UnknownTrace(_) => "unknown_trace",
            ServeError::UnknownBenchmark(_) => "unknown_benchmark",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::NotFinished { .. } => "not_finished",
            ServeError::JobCancelled { .. } => "job_cancelled",
            ServeError::JobFailed { .. } => "job_failed",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Replay(_) => "replay",
            ServeError::Io(_) => "io",
        }
    }

    /// The one-line error frame for this error.
    pub fn to_response(&self) -> JsonValue {
        JsonValue::object([
            ("ok", JsonValue::from(false)),
            (
                "error",
                JsonValue::object([
                    ("code", JsonValue::from(u64::from(self.code()))),
                    ("kind", JsonValue::from(self.kind())),
                    ("message", JsonValue::from(self.to_string())),
                ]),
            ),
        ])
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MalformedFrame(detail) => write!(f, "malformed frame: {detail}"),
            ServeError::UnknownVerb(verb) => write!(f, "unknown verb {verb:?}"),
            ServeError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            ServeError::UnknownJob(job) => write!(f, "unknown job {job:?}"),
            ServeError::UnknownTrace(digest) => {
                write!(f, "no uploaded trace with digest {digest}")
            }
            ServeError::UnknownBenchmark(label) => {
                write!(f, "unknown builtin benchmark {label:?}")
            }
            ServeError::QueueFull { limit } => {
                write!(f, "cell queue is full ({limit} cells); resubmit later")
            }
            ServeError::NotFinished { job, remaining } => write!(
                f,
                "job {job} still has {remaining} cell(s) queued or running"
            ),
            ServeError::JobCancelled { job } => write!(f, "job {job} was cancelled"),
            ServeError::JobFailed { job, message } => {
                write!(f, "job {job} failed: {message}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Replay(err) => write!(f, "{err}"),
            ServeError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Replay(err) => Some(err),
            ServeError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ReplayError> for ServeError {
    fn from(err: ReplayError) -> Self {
        ServeError::Replay(err)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

/// The workload a job runs: a server-local trace file, a previously
/// uploaded trace addressed by content digest, or a builtin synthetic
/// generator profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSpec {
    /// A `.ladt` file on the server's filesystem.
    File {
        /// Path of the trace file (as the server sees it).
        path: PathBuf,
    },
    /// A trace previously sent with the `upload` verb, addressed by its
    /// 16-hex-digit content digest.
    Stored {
        /// The content digest naming the stored trace.
        digest: String,
    },
    /// A deterministic synthetic workload from the builtin generator.
    Builtin {
        /// Benchmark label (e.g. `"BARNES"`).
        benchmark: String,
        /// Number of cores the trace spans.
        cores: usize,
        /// Accesses generated per core (approximately; the generator
        /// rounds per its profile).
        accesses_per_core: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TraceSpec {
    /// The JSON form carried inside `submit` frames.
    pub fn to_json(&self) -> JsonValue {
        match self {
            TraceSpec::File { path } => JsonValue::object([
                ("kind", JsonValue::from("file")),
                ("path", JsonValue::from(path.display().to_string())),
            ]),
            TraceSpec::Stored { digest } => JsonValue::object([
                ("kind", JsonValue::from("stored")),
                ("digest", JsonValue::from(digest.as_str())),
            ]),
            TraceSpec::Builtin {
                benchmark,
                cores,
                accesses_per_core,
                seed,
            } => JsonValue::object([
                ("kind", JsonValue::from("builtin")),
                ("benchmark", JsonValue::from(benchmark.as_str())),
                ("cores", JsonValue::from(*cores as u64)),
                (
                    "accesses_per_core",
                    JsonValue::from(*accesses_per_core as u64),
                ),
                ("seed", JsonValue::from(*seed)),
            ]),
        }
    }

    /// Parses the JSON form back into a spec.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the missing or ill-typed field.
    pub fn from_json(value: &JsonValue) -> Result<TraceSpec, ServeError> {
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("trace spec needs a \"kind\" string"))?;
        match kind {
            "file" => {
                let path = value
                    .get("path")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("file trace spec needs a \"path\" string"))?;
                Ok(TraceSpec::File {
                    path: PathBuf::from(path),
                })
            }
            "stored" => {
                let digest = value
                    .get("digest")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("stored trace spec needs a \"digest\" string"))?;
                Ok(TraceSpec::Stored {
                    digest: digest.to_string(),
                })
            }
            "builtin" => {
                let benchmark = value
                    .get("benchmark")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("builtin trace spec needs a \"benchmark\" string"))?;
                let cores = value
                    .get("cores")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("builtin trace spec needs a \"cores\" count"))?;
                let accesses = value
                    .get("accesses_per_core")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| bad("builtin trace spec needs \"accesses_per_core\""))?;
                let seed = value.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
                if cores == 0 || accesses == 0 {
                    return Err(bad("builtin trace spec needs non-zero cores and accesses"));
                }
                Ok(TraceSpec::Builtin {
                    benchmark: benchmark.to_string(),
                    cores: cores as usize,
                    accesses_per_core: accesses as usize,
                    seed,
                })
            }
            other => Err(bad(&format!(
                "trace spec kind must be \"file\", \"stored\" or \"builtin\", got {other:?}"
            ))),
        }
    }
}

/// The base [`lad_common::config::SystemConfig`] a job's cells run under
/// (its core count is always adjusted to the trace's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemPreset {
    /// [`SystemConfig::paper_default`](lad_common::config::SystemConfig::paper_default).
    Paper,
    /// [`SystemConfig::small_test`](lad_common::config::SystemConfig::small_test).
    SmallTest,
}

impl SystemPreset {
    /// The wire name of the preset.
    pub fn label(self) -> &'static str {
        match self {
            SystemPreset::Paper => "paper",
            SystemPreset::SmallTest => "small-test",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for unknown presets.
    pub fn parse(label: &str) -> Result<SystemPreset, ServeError> {
        match label {
            "paper" => Ok(SystemPreset::Paper),
            "small-test" => Ok(SystemPreset::SmallTest),
            other => Err(bad(&format!(
                "system preset must be \"paper\" or \"small-test\", got {other:?}"
            ))),
        }
    }

    /// The base configuration of this preset (before the core-count
    /// adjustment to the trace).
    pub fn config(self) -> lad_common::config::SystemConfig {
        match self {
            SystemPreset::Paper => lad_common::config::SystemConfig::paper_default(),
            SystemPreset::SmallTest => lad_common::config::SystemConfig::small_test(),
        }
    }
}

/// A client's `submit` payload: one workload × a list of schemes, run
/// under a system preset.  The server decomposes it into one cell per
/// scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The workload every cell replays.
    pub trace: TraceSpec,
    /// The scheme labels of the matrix row (each becomes one cell).
    pub schemes: Vec<String>,
    /// The base system configuration preset.
    pub system: SystemPreset,
}

impl JobSpec {
    /// The JSON form carried inside `submit` frames (under `"job"`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("trace", self.trace.to_json()),
            (
                "schemes",
                JsonValue::Array(
                    self.schemes
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect(),
                ),
            ),
            ("system", JsonValue::from(self.system.label())),
        ])
    }

    /// Parses the JSON form back into a spec.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the missing or ill-typed field,
    /// including duplicate scheme labels (each cell must be unique).
    pub fn from_json(value: &JsonValue) -> Result<JobSpec, ServeError> {
        let trace = TraceSpec::from_json(
            value
                .get("trace")
                .ok_or_else(|| bad("job needs a \"trace\" spec"))?,
        )?;
        let schemes_json = value
            .get("schemes")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("job needs a \"schemes\" array"))?;
        if schemes_json.is_empty() {
            return Err(bad("job needs at least one scheme"));
        }
        let mut schemes = Vec::with_capacity(schemes_json.len());
        for scheme in schemes_json {
            let label = scheme
                .as_str()
                .ok_or_else(|| bad("scheme labels must be strings"))?;
            if schemes.iter().any(|s: &String| s == label) {
                return Err(bad(&format!("scheme {label:?} listed twice")));
            }
            schemes.push(label.to_string());
        }
        let system = match value.get("system").and_then(JsonValue::as_str) {
            Some(label) => SystemPreset::parse(label)?,
            None => SystemPreset::Paper,
        };
        Ok(JobSpec {
            trace,
            schemes,
            system,
        })
    }
}

fn bad(message: &str) -> ServeError {
    ServeError::BadRequest(message.to_string())
}

/// FNV-1a 64 over a byte string — the configuration fingerprint half of
/// the result-cache key (the trace half is the
/// [`lad_traceio::TraceDigest`] content digest).
pub fn fingerprint(text: &str) -> u64 {
    const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET_BASIS;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The canonical 16-hex-digit rendering of a fingerprint word.
pub fn fingerprint_hex(value: u64) -> String {
    format!("{value:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_traceio::error::TraceError;

    /// Compile-time exhaustiveness guard for
    /// [`error_codes_and_kinds_are_stable`]: adding a [`ServeError`]
    /// variant fails this wildcard-free match until the variant is listed
    /// here — and the paired assertion on the golden table's length fails
    /// until the new variant's `(code, kind)` row is added there too.
    fn exhaustiveness_guard(err: &ServeError) -> usize {
        match err {
            ServeError::MalformedFrame(_) => 0,
            ServeError::UnknownVerb(_) => 1,
            ServeError::BadRequest(_) => 2,
            ServeError::UnknownJob(_) => 3,
            ServeError::UnknownTrace(_) => 4,
            ServeError::UnknownBenchmark(_) => 5,
            ServeError::QueueFull { .. } => 6,
            ServeError::NotFinished { .. } => 7,
            ServeError::JobCancelled { .. } => 8,
            ServeError::JobFailed { .. } => 9,
            ServeError::ShuttingDown => 10,
            ServeError::Replay(_) => 11,
            ServeError::Io(_) => 12,
        }
    }

    #[test]
    fn error_codes_and_kinds_are_stable() {
        const VARIANTS: usize = 13;
        let cases: Vec<(ServeError, u16, &str)> = vec![
            (
                ServeError::MalformedFrame("x".into()),
                400,
                "malformed_frame",
            ),
            (ServeError::UnknownVerb("zap".into()), 400, "unknown_verb"),
            (ServeError::BadRequest("x".into()), 400, "bad_request"),
            (ServeError::UnknownJob("job-9".into()), 404, "unknown_job"),
            (ServeError::UnknownTrace("ff".into()), 404, "unknown_trace"),
            (
                ServeError::UnknownBenchmark("NOPE".into()),
                404,
                "unknown_benchmark",
            ),
            (ServeError::QueueFull { limit: 4 }, 429, "queue_full"),
            (
                ServeError::NotFinished {
                    job: "job-1".into(),
                    remaining: 2,
                },
                409,
                "not_finished",
            ),
            (
                ServeError::JobCancelled {
                    job: "job-1".into(),
                },
                410,
                "job_cancelled",
            ),
            (
                ServeError::JobFailed {
                    job: "job-1".into(),
                    message: "boom".into(),
                },
                500,
                "job_failed",
            ),
            (ServeError::ShuttingDown, 503, "shutting_down"),
            (
                ServeError::Replay(ReplayError::Trace(TraceError::CoreCountExceeded {
                    trace_cores: 512,
                    limit: 256,
                })),
                500,
                "replay",
            ),
            (ServeError::Io(std::io::Error::other("x")), 500, "io"),
        ];
        // Golden table covers every variant exactly once: the guard's
        // wildcard-free match makes a new variant a compile error, and
        // these assertions make it a test failure until a row is added.
        assert_eq!(cases.len(), VARIANTS);
        let mut seen = [false; VARIANTS];
        for (err, _, _) in &cases {
            let index = exhaustiveness_guard(err);
            assert!(!seen[index], "variant listed twice: {err}");
            seen[index] = true;
        }
        assert!(seen.iter().all(|covered| *covered));
        for (err, code, kind) in cases {
            assert_eq!(err.code(), code, "{err}");
            assert_eq!(err.kind(), kind, "{err}");
            let frame = err.to_response();
            assert_eq!(frame.get("ok").and_then(JsonValue::as_bool), Some(false));
            let error = frame.get("error").unwrap();
            assert_eq!(
                error.get("code").and_then(JsonValue::as_u64),
                Some(u64::from(code))
            );
            assert_eq!(error.get("kind").and_then(JsonValue::as_str), Some(kind));
            assert!(error.get("message").and_then(JsonValue::as_str).is_some());
            // The frame survives the strict parser (it is what goes on the
            // wire).
            let line = frame.to_string();
            assert_eq!(JsonValue::parse(&line).unwrap(), frame);
        }
    }

    #[test]
    fn job_spec_roundtrips_through_json() {
        let specs = vec![
            JobSpec {
                trace: TraceSpec::File {
                    path: PathBuf::from("/tmp/barnes.ladt"),
                },
                schemes: vec!["S-NUCA".into(), "RT-3".into()],
                system: SystemPreset::SmallTest,
            },
            JobSpec {
                trace: TraceSpec::Stored {
                    digest: "00ff00ff00ff00ff".into(),
                },
                schemes: vec!["ASR-0.50".into()],
                system: SystemPreset::Paper,
            },
            JobSpec {
                trace: TraceSpec::Builtin {
                    benchmark: "BARNES".into(),
                    cores: 16,
                    accesses_per_core: 400,
                    seed: 7,
                },
                schemes: vec!["RT-3".into()],
                system: SystemPreset::SmallTest,
            },
        ];
        for spec in specs {
            let json = spec.to_json();
            let line = json.to_string();
            let reparsed = JsonValue::parse(&line).unwrap();
            assert_eq!(JobSpec::from_json(&reparsed).unwrap(), spec);
        }
    }

    #[test]
    fn job_spec_rejects_malformed_fields() {
        let reject = |text: &str, needle: &str| {
            let err = JobSpec::from_json(&JsonValue::parse(text).unwrap()).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{text}");
            assert!(err.to_string().contains(needle), "{err} !~ {needle}");
        };
        reject("{}", "trace");
        reject(r#"{"trace": {"kind": "warp"}}"#, "kind");
        reject(r#"{"trace": {"kind": "file"}}"#, "path");
        reject(r#"{"trace": {"kind": "stored"}}"#, "digest");
        reject(
            r#"{"trace": {"kind": "builtin", "benchmark": "BARNES", "cores": 0,
                "accesses_per_core": 10}}"#,
            "non-zero",
        );
        reject(r#"{"trace": {"kind": "file", "path": "x"}}"#, "schemes");
        reject(
            r#"{"trace": {"kind": "file", "path": "x"}, "schemes": []}"#,
            "at least one scheme",
        );
        reject(
            r#"{"trace": {"kind": "file", "path": "x"},
                "schemes": ["RT-3", "RT-3"]}"#,
            "twice",
        );
        reject(
            r#"{"trace": {"kind": "file", "path": "x"}, "schemes": ["RT-3"],
                "system": "huge"}"#,
            "preset",
        );
    }

    #[test]
    fn fingerprint_is_stable_and_separates_configs() {
        // The cache spill directory depends on fingerprint stability across
        // server restarts, so pin a known vector (FNV-1a 64 of "a").
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint("cores=16"), fingerprint("cores=64"));
        assert_eq!(fingerprint_hex(0xaf), "00000000000000af");
    }
}
