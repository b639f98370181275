//! Observability: phase-level span tracing, distributed request tracing,
//! streaming latency histograms, adaptive-decision event timelines,
//! flight recording, SLO evaluation, and metrics exposition.
//!
//! The module splits along the concerns of the observability layer:
//!
//! * [`hist`] — [`LatencyHistogram`], the fixed-footprint log-bucketed
//!   recorder behind every distribution here;
//! * [`span`] — [`Phase`] taxonomy and the [`TraceSink`] handle threaded
//!   through `ServiceClient`/`ServiceServer`/ring endpoints;
//! * [`trace`] — the wire-propagated [`TraceContext`] envelope header and
//!   the [`SpanLog`] of causally linked [`SpanRecord`]s;
//! * [`assembly`] — [`TraceAssembler`], stitching span records into
//!   per-request trace trees with JSONL and Chrome `trace_event` export;
//! * [`flight`] — [`FlightRecorder`], the always-on per-connection ring
//!   of recent protocol events, auto-dumped on anomalies;
//! * [`slo`] — [`SloSpec`]/[`SloReport`], declared latency/throughput/
//!   error-budget objectives evaluated with burn rates;
//! * [`events`] — [`AdaptiveEventLog`], the structured Algorithm 1
//!   decision timeline;
//! * [`registry`] — [`MetricsRegistry`], snapshotting everything to
//!   Prometheus text and JSONL.
//!
//! See `DESIGN.md §11` for the span taxonomy and bucketing scheme, and
//! `DESIGN.md §16` for the distributed-tracing layer.

pub mod assembly;
pub mod events;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use assembly::{Assembly, TraceAssembler, TraceTree};
pub use events::{AdaptiveEvent, AdaptiveEventLog, AdaptiveEventRecord, RouteChoice};
pub use flight::{Anomaly, FlightDump, FlightEntry, FlightEvent, FlightRecorder, FLIGHT_RING};
pub use hist::LatencyHistogram;
pub use registry::{Metric, MetricValue, MetricsRegistry};
pub use slo::{SloObjective, SloReport, SloSpec};
pub use span::{Phase, PhaseSummary, SpanStart, TraceSink, N_PHASES};
pub use trace::{
    SpanKind, SpanLog, SpanRecord, TraceContext, SERVER_NODE_BASE, TRACE_CTX_WIRE_BYTES,
    TRACE_FLAG_BATCHED, TRACE_FLAG_FETCH, TRACE_FLAG_RETRANSMIT,
};
