//! Observability: phase-level span tracing, distributed request tracing,
//! streaming latency histograms, the per-connection event stream and its
//! Algorithm 1 timeline, SLO evaluation, and metrics exposition.
//!
//! There are two streams. Durations are [`Phase`]s in a [`TraceSink`];
//! instants are [`FlightEvent`]s in each connection's [`FlightRecorder`],
//! and [`AdaptiveEventLog`] is that recorder's retained Algorithm 1 view.
//! The module splits along the concerns of the observability layer:
//!
//! * [`hist`] — [`LatencyHistogram`], the fixed-footprint log-bucketed
//!   recorder behind every distribution here;
//! * [`span`] — the [`Phase`] taxonomy and [`TraceSink`], the one
//!   recorder of durations threaded through `ServiceClient`/
//!   `ServiceServer`/ring endpoints: phase histograms plus, when retained,
//!   causally linked [`SpanRecord`]s joined by each request's
//!   `(ring rkey, seq)`;
//! * [`assembly`] — [`TraceAssembler`], stitching span records into
//!   per-request trace trees with JSONL and Chrome `trace_event` export;
//! * [`flight`] — [`FlightRecorder`], the always-on per-connection ring
//!   of protocol events and Algorithm 1 steps, auto-dumped on anomalies;
//!   the one emitter of instants;
//! * [`slo`] — [`SloSpec`]/[`SloReport`], declared latency/throughput/
//!   error-budget objectives evaluated with burn rates;
//! * [`events`] — [`AdaptiveEvent`] and [`AdaptiveEventLog`], the
//!   retained Algorithm 1 decision timeline a recorder feeds;
//! * [`registry`] — [`MetricsRegistry`], snapshotting everything to
//!   Prometheus text and JSONL.
//!
//! See `DESIGN.md §11` for the span taxonomy and bucketing scheme, and
//! `DESIGN.md §16` for the distributed-tracing layer and the flight
//! recorder.

pub mod assembly;
pub mod events;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod span;

pub use assembly::{Assembly, TraceAssembler, TraceTree};
pub use events::{AdaptiveEvent, AdaptiveEventLog, AdaptiveEventRecord, RouteChoice};
pub use flight::{Anomaly, FlightDump, FlightEntry, FlightEvent, FlightRecorder, FLIGHT_RING};
pub use hist::LatencyHistogram;
pub use registry::{Metric, MetricValue, MetricsRegistry};
pub use slo::{SloObjective, SloReport, SloSpec};
pub use span::{
    OpenSpan, Phase, SpanCtx, SpanRecord, SpanStart, TraceSink, N_PHASES, SERVER_NODE_BASE,
};
