//! # mbts-trace — structured observability for the task service
//!
//! A zero-cost-when-disabled event layer: every schedulable decision in
//! the site scheduler and the market economy can emit a typed
//! [`TraceEvent`] into a pluggable sink. The [`Tracer`] handle defaults
//! to [`Tracer::Off`], in which case emission sites reduce to a single
//! branch — replays are bit-identical with tracing on or off because the
//! emitters only *read* scheduler state, never mutate it.
//!
//! Sinks:
//! - [`RingSink`] — bounded tail capture for tests and soaks;
//! - [`BufferSink`] — full capture, serialized to JSONL for golden
//!   fixtures and the experiments CLI `--trace out.jsonl`;
//! - [`JsonlSink`] — streaming JSONL file writer that flushes on drop
//!   and surfaces write errors instead of losing tail events;
//! - [`MetricsRegistry`] — per-policy histograms (delay, yield,
//!   preemption count), per-site utilization and fault-recovery latency,
//!   rendered by the `metrics` experiments subcommand.
//!
//! Every sink's state (the "tracer cursor") is checkpointable via
//! [`Tracer::snapshot`] / [`TracerSnapshot`], so the durable-recovery
//! layer can resume a traced run without losing or duplicating events.
//!
//! Two observability layers sit on top of the raw stream:
//! - [`analyze`] — post-hoc trace analytics (yield attribution,
//!   preemption-chain trees, admission regret, utilization timelines),
//!   the engine behind `mbts analyze`;
//! - [`profile`] — saved captures of the `mbts_sim::metrics` registry
//!   (`--profile FILE`), rendered as text or Prometheus exposition.
//!
//! The registry itself — latency series, request counters, gauges, and
//! the one exposition writer — lives in `mbts_sim::metrics`;
//! [`telemetry`] is its live-scope switch under the serve path's name.
//!
//! Provenance: wrapping any tracer with [`Tracer::with_provenance`] makes
//! decision points additionally emit [`TraceKind::DecisionRecord`] events
//! carrying the ranked candidate set with per-candidate PV /
//! opportunity-cost / slack decomposition. The wrapper only changes what
//! is *recorded*: a provenance trace with its decision records filtered
//! out is byte-identical to the default trace.

pub mod analyze;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use analyze::{AnalyzeOptions, StrandingChain, TraceReport, WorkflowLedger};
pub use event::{
    from_jsonl, to_jsonl, DecisionCandidate, DecisionKind, TraceEvent, TraceKind,
    MAX_DECISION_CANDIDATES,
};
pub use mbts_sim::metrics::live as telemetry;
pub use metrics::{MetricsRegistry, PolicyMetrics};
pub use profile::{ProfileReport, ServeSummary, PROFILE_MARKER};
pub use sink::{BufferSink, JsonlSink, RingSink, TraceSink, Tracer, TracerSnapshot};
