//! `lad-obs`: the workspace's observability subsystem.
//!
//! Two pieces, both dependency-free:
//!
//! * **Metrics** ([`registry`]) — a [`MetricsRegistry`] of typed
//!   instruments ([`Counter`], [`Gauge`], [`LatencyHistogram`]) resolved
//!   once into handles that record without a lookup: one `Relaxed` atomic
//!   operation for a counter or gauge, one lock for a histogram.
//!   [`MetricsRegistry::noop`] hands out disarmed handles for measuring the
//!   instrumentation overhead itself.
//! * **Exposition** ([`export`]) — [`prometheus_text`] renders a
//!   snapshot in the Prometheus text format (histograms as summaries
//!   with *exact* quantiles); [`metrics_json`] renders the same data
//!   through [`lad_common::json`].
//!
//! # Naming convention
//!
//! `lad_<component>_<what>[_<unit>][_total]`, lowercase with
//! underscores: `lad_serve_frames_in_total`, `lad_engine_accesses_total`,
//! `lad_serve_verb_latency_us` (labelled `verb="..."`).  Counters end in
//! `_total`; histograms carry their unit suffix (`_us` for
//! microseconds); gauges are bare nouns (`lad_serve_queue_depth`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod export;
pub mod registry;

pub use export::{metrics_json, prometheus_text, EXPORT_QUANTILES};
pub use registry::{
    global, Counter, Gauge, Label, LatencyHistogram, MetricSample, MetricsRegistry, SampleValue,
};
