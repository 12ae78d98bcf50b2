//! Client side of the experiment service: a persistent connection speaking
//! the newline-delimited JSON protocol, with typed errors, one method per
//! verb, and bounded retries with exponential backoff + deterministic
//! jitter on connection failures.  Used by the `lad-client` binary and the
//! integration tests.
//!
//! # Why retrying is safe (idempotency)
//!
//! A retried call may reach a server that already executed the lost
//! original, so every verb must tolerate being applied twice:
//!
//! * `submit` — cells are deduplicated through the content-addressed
//!   result cache and the in-flight subscriber list, so a resubmission
//!   either answers from cache or attaches to the already-running cell;
//!   it never simulates twice.  (It does mint a fresh job id, which is
//!   fine: job ids name views of cells, not work.)
//! * `upload` — traces are stored under their content digest; storing the
//!   same bytes twice writes the same file.
//! * `cancel` — cancelling an already-cancelled job is a no-op.
//! * `shutdown` — asking a draining server to drain again is a no-op (and
//!   a vanished server means the shutdown took effect).
//! * `status` / `result` / `stats` / `health` / `metrics` — read-only.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

use lad_common::json::JsonValue;
use lad_common::rng::DeterministicRng;

use crate::protocol::JobSpec;

/// Bounded-retry policy for connection-level failures: attempt `attempts`
/// times total, sleeping `base * 2^(attempt-1)` (capped at `cap`) scaled
/// by a deterministic jitter factor in `[0.5, 1.0)` between attempts.
///
/// The jitter is seeded, not sampled from wall-clock entropy, so a given
/// `(seed, attempt)` always sleeps the same duration — retry schedules are
/// replayable, which the fault-injection torture suite depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound any single backoff is clamped to.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default client policy: 4 attempts, 25 ms base, 1 s cap.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }

    /// A single-attempt policy (fail fast, never sleep).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// The backoff slept after failed attempt number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.cap);
        // Deterministic jitter in [0.5, 1.0): full-jitter halves the
        // thundering-herd sync without making schedules unreproducible.
        let jitter = 0.5
            + 0.5
                * DeterministicRng::seed_from(self.seed)
                    .derive(u64::from(attempt))
                    .unit();
        capped.mul_f64(jitter)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Everything that can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// The connection could not be established or the call's I/O failed
    /// (after the retry policy's attempts were exhausted).
    Io(std::io::Error),
    /// The server's response line was not a well-formed protocol frame.
    Protocol(String),
    /// The server replied with an error frame.
    Server {
        /// HTTP-style status code (`400`, `404`, `409`, `410`, `429`,
        /// `500`, `503`).
        code: u16,
        /// Stable machine-readable discriminator (e.g. `"queue_full"`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "i/o error: {err}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Server {
                code,
                kind,
                message,
            } => write!(f, "server error {code} ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(response)
    }
}

/// A client of one experiment service, holding a persistent connection
/// that is re-established under the client's [`RetryPolicy`] when the
/// server drops it (read timeout, injected fault, restart).  Retried
/// calls are safe because every verb is idempotent — see the module docs.
pub struct Client {
    addr: String,
    conn: Option<Connection>,
    policy: RetryPolicy,
    retries: u64,
}

impl Client {
    /// Connects to a server at `addr` (`host:port`) with the standard
    /// retry policy ([`RetryPolicy::standard`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when no attempt could establish the connection.
    pub fn connect(addr: impl Into<String>) -> Result<Client, ClientError> {
        Client::connect_with(addr, RetryPolicy::standard())
    }

    /// Connects with an explicit retry policy (the initial connection
    /// itself is retried under it).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when no attempt could establish the connection.
    pub fn connect_with(
        addr: impl Into<String>,
        policy: RetryPolicy,
    ) -> Result<Client, ClientError> {
        let mut client = Client {
            addr: addr.into(),
            conn: None,
            policy,
            retries: 0,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Connection-level retries performed so far (re-opens and re-sends,
    /// not counting each call's first attempt) — observable so tests can
    /// assert a fault actually exercised the retry path.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// (Re-)establishes the connection under the retry policy.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        let mut last = None;
        for attempt in 1..=self.policy.attempts.max(1) {
            match Connection::open(&self.addr) {
                Ok(conn) => {
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(err) => {
                    last = Some(err);
                    if attempt < self.policy.attempts.max(1) {
                        self.retries += 1;
                        std::thread::sleep(self.policy.backoff(attempt));
                    }
                }
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::other("connect failed with no attempts")
        })))
    }

    /// Sends one frame and returns the parsed successful response body.
    ///
    /// On connection-level failure (stale connection, dropped socket,
    /// vanished server) the call re-opens the connection and re-sends the
    /// frame, backing off per the retry policy, until an attempt succeeds
    /// or the policy is exhausted.  Re-sending is safe because every verb
    /// is idempotent (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for error frames, [`ClientError::Protocol`]
    /// for responses that do not parse, [`ClientError::Io`] when every
    /// attempt's I/O failed.
    pub fn call(&mut self, frame: &JsonValue) -> Result<JsonValue, ClientError> {
        let line = frame.to_string();
        let attempts = self.policy.attempts.max(1);
        let mut response = None;
        let mut last_io = None;
        for attempt in 1..=attempts {
            if self.conn.is_none()
                && Connection::open(&self.addr)
                    .map(|c| self.conn = Some(c))
                    .is_err()
            {
                last_io = Some(std::io::Error::other(format!(
                    "could not reconnect to {}",
                    self.addr
                )));
            } else if let Some(conn) = self.conn.as_mut() {
                match conn.round_trip(&line) {
                    Ok(text) => {
                        response = Some(text);
                        break;
                    }
                    Err(err) => {
                        // The connection is in an unknown state; drop it
                        // so the next attempt starts clean.
                        self.conn = None;
                        last_io = Some(err);
                    }
                }
            }
            if attempt < attempts {
                self.retries += 1;
                std::thread::sleep(self.policy.backoff(attempt));
            }
        }
        let Some(response) = response else {
            return Err(ClientError::Io(last_io.unwrap_or_else(|| {
                std::io::Error::other("call failed with no attempts")
            })));
        };
        let parsed = JsonValue::parse(response.trim())
            .map_err(|err| ClientError::Protocol(format!("unparseable response: {err}")))?;
        match parsed.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(parsed),
            Some(false) => {
                let error = parsed.get("error");
                let field = |name: &str| {
                    error
                        .and_then(|e| e.get(name))
                        .and_then(JsonValue::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(ClientError::Server {
                    code: error
                        .and_then(|e| e.get("code"))
                        .and_then(JsonValue::as_u64)
                        .and_then(|c| u16::try_from(c).ok())
                        .unwrap_or(500),
                    kind: field("kind"),
                    message: field("message"),
                })
            }
            None => Err(ClientError::Protocol(
                "response frame is missing \"ok\"".to_string(),
            )),
        }
    }

    fn verb(
        &mut self,
        verb: &str,
        fields: Vec<(&str, JsonValue)>,
    ) -> Result<JsonValue, ClientError> {
        let mut frame = vec![("verb", JsonValue::from(verb))];
        frame.extend(fields);
        self.call(&JsonValue::object(frame))
    }

    /// Uploads a LADT trace; the response carries its content `digest`
    /// (usable in [`TraceSpec::Stored`](crate::protocol::TraceSpec)),
    /// `benchmark` and `cores`.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn upload(&mut self, bytes: &[u8]) -> Result<JsonValue, ClientError> {
        self.verb(
            "upload",
            vec![("bytes", JsonValue::from(lad_common::hex::encode(bytes)))],
        )
    }

    /// Submits a job; the response carries the `job` id plus `cells`,
    /// `cached` and `attached` counts.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JsonValue, ClientError> {
        self.verb("submit", vec![("job", spec.to_json())])
    }

    /// Fetches per-cell progress of a job.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn status(&mut self, job: &str) -> Result<JsonValue, ClientError> {
        self.verb("status", vec![("job", JsonValue::from(job))])
    }

    /// Fetches the results of a finished job.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`]; notably [`ClientError::Server`] with kind
    /// `not_finished` while cells are still queued or running.
    pub fn result(&mut self, job: &str) -> Result<JsonValue, ClientError> {
        self.verb("result", vec![("job", JsonValue::from(job))])
    }

    /// Polls `status` until the job leaves the `running` state, then
    /// returns `result`'s response.
    ///
    /// # Errors
    ///
    /// As for [`Client::result`] — a job that finished `cancelled` or
    /// `failed` surfaces as the corresponding server error.
    pub fn wait(&mut self, job: &str, poll: Duration) -> Result<JsonValue, ClientError> {
        loop {
            let status = self.status(job)?;
            match status.get("state").and_then(JsonValue::as_str) {
                Some("running") => std::thread::sleep(poll),
                _ => return self.result(job),
            }
        }
    }

    /// Cancels a job's queued and running cells.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn cancel(&mut self, job: &str) -> Result<JsonValue, ClientError> {
        self.verb("cancel", vec![("job", JsonValue::from(job))])
    }

    /// Fetches service-wide counters (queue depth, cache hits, ...).
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn stats(&mut self) -> Result<JsonValue, ClientError> {
        self.verb("stats", vec![])
    }

    /// Fetches the service's health summary: overall status (`"ok"` or
    /// `"degraded"`), the cache's durability mode, and quarantine /
    /// spill-error counters.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn health(&mut self) -> Result<JsonValue, ClientError> {
        self.verb("health", vec![])
    }

    /// Fetches one metrics snapshot: the response carries the Prometheus
    /// text exposition under `"prometheus"` and the native JSON samples
    /// under `"metrics"`.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        self.verb("metrics", vec![])
    }

    /// Asks the server to drain and exit.  The server closes the
    /// connection after acknowledging, so this client needs a reconnect
    /// (which will fail once the server is gone) for further calls.
    ///
    /// # Errors
    ///
    /// As for [`Client::call`].
    pub fn shutdown(&mut self) -> Result<JsonValue, ClientError> {
        let response = self.verb("shutdown", vec![]);
        self.conn = None;
        response
    }
}
