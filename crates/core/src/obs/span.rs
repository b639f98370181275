//! Span tracing for the service core: the [`Phase`] taxonomy and the one
//! recorder, [`TraceSink`], that every client, server, and ring endpoint
//! brackets its instrumented regions with.
//!
//! Each region is bracketed once — [`TraceSink::begin`] then
//! [`TraceSink::end`] (or [`TraceSink::end_under`]) — and the close feeds
//! both views of it:
//!
//! * the per-phase latency histogram (the breakdown the harness and the
//!   per-layer benchmark read), and
//! * when span retention is on ([`TraceSink::with_spans`]), one
//!   [`SpanRecord`] per parent, stamped with its tree position so
//!   [`super::TraceAssembler`] can rebuild per-request trees.
//!
//! Spans measure *virtual* time without advancing it, and nothing about
//! them travels on the wire, so tracing a run cannot change its outcome.
//!
//! **Linking server spans.** Every request already carries its name on
//! the wire: the request ring it was written into and its sequence number
//! on that connection (RFP's mailbox finds a response by the same pair).
//! While spans are retained, a sender records `(ring rkey, seq) → open
//! span` in the shared recorder as it sends ([`TraceSink::link`]), and the
//! server resolves the parent of its dispatch and execution spans from
//! that table at dispatch ([`TraceSink::linked`]).
//!
//! A default sink is inactive: it records and allocates nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use catfish_simnet::SimDuration;
use catfish_simnet::{try_now, SimTime};

use super::hist::LatencyHistogram;

/// A traced phase of a Catfish request — the span taxonomy.
///
/// The first six phases tile the fast-messaging round trip end to end;
/// the offload phases attribute the client-direct RDMA path; the last
/// three are the request-tree structure (roots, per-shard legs, merges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client-side ring reservation, payload copy, and doorbell write —
    /// up to the moment the request frame is delivered remotely.
    RingEnqueue,
    /// Client waiting on its completion queue for the response doorbell.
    CqWait,
    /// Request sitting in the server's ring between NIC delivery
    /// (`Completion.at`) and the worker picking it up.
    ServerQueue,
    /// Server-side frame decode plus the dispatch CPU charge (once per
    /// ring frame, shared by the requests a batch frame carries).
    Dispatch,
    /// Index execution (tree/map traversal) plus its modeled CPU cost,
    /// including a primary's synchronous forward to its backups (once per
    /// ring frame).
    IndexExec,
    /// Response post charge and ring transit back to the client.
    RespTransit,
    /// Client metadata chunk refresh over one-sided reads.
    MetaRead,
    /// One full offloaded traversal, including any retries and the
    /// server fallback after repeated inconsistencies.
    OffloadRead,
    /// Extra time an offloaded traversal spent beyond its first attempt
    /// (version-retry and restart cost).
    OffloadRetry,
    /// Client time spent backing off between retransmission attempts of
    /// a timed-out fast-messaging request.
    RetryBackoff,
    /// Client time spent pulling a deposited response out of the server's
    /// mailbox with one-sided reads (header polls, payload read, CRC
    /// validation, and ack), from request send to decoded response.
    MailboxFetch,
    /// One whole client-visible operation (the root of a request tree).
    Request,
    /// One per-shard leg of a scatter-gather operation, or one
    /// primary→backup forwarding leg of a replicated mutation.
    Rpc,
    /// Client-side merge of per-shard partial results.
    Merge,
}

/// Number of phases (sizes the per-sink histogram array).
pub const N_PHASES: usize = 14;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::RingEnqueue,
        Phase::CqWait,
        Phase::ServerQueue,
        Phase::Dispatch,
        Phase::IndexExec,
        Phase::RespTransit,
        Phase::MetaRead,
        Phase::OffloadRead,
        Phase::OffloadRetry,
        Phase::RetryBackoff,
        Phase::MailboxFetch,
        Phase::Request,
        Phase::Rpc,
        Phase::Merge,
    ];

    /// Stable snake_case name used in metric names, reports, and the
    /// span JSONL `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RingEnqueue => "ring_enqueue",
            Phase::CqWait => "cq_wait",
            Phase::ServerQueue => "server_queue",
            Phase::Dispatch => "dispatch",
            Phase::IndexExec => "index_exec",
            Phase::RespTransit => "resp_transit",
            Phase::MetaRead => "meta_read",
            Phase::OffloadRead => "offload_read",
            Phase::OffloadRetry => "offload_retry",
            Phase::RetryBackoff => "retry_backoff",
            Phase::MailboxFetch => "mailbox_fetch",
            Phase::Request => "request",
            Phase::Rpc => "rpc",
            Phase::Merge => "merge",
        }
    }

    /// Parses a stable name back into a phase (the `trace_tool` reader).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Node-id offset that marks a span as server-side: replica `r` of shard
/// `s` emits spans with `node = SERVER_NODE_BASE + s * replicas + r`.
pub const SERVER_NODE_BASE: u32 = 1 << 16;

/// One completed span, stamped with its tree position and virtual times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace the span belongs to (the root span's id).
    pub trace_id: u64,
    /// This span's id (unique within a run).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_span: u64,
    /// What the span measured.
    pub kind: Phase,
    /// Emitting node: client id for client-side spans,
    /// [`SERVER_NODE_BASE`]-offset for server-side spans.
    pub node: u32,
    /// Span start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// Span end, nanoseconds of virtual time.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Serializes the record as one JSON object (a JSONL line, sans
    /// newline). Hand-rolled — every field is numeric or a fixed literal.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"span_id\":{},\"parent\":{},\"kind\":\"{}\",\
             \"node\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.trace_id,
            self.span_id,
            self.parent_span,
            self.kind.name(),
            self.node,
            self.start_ns,
            self.end_ns
        )
    }
}

/// Where an open span sits in a request tree: children attach under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// Trace the span belongs to (the root span's id).
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
}

/// An opaque span start token returned by [`TraceSink::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the token back to TraceSink::end to record the span"]
pub struct SpanStart {
    at: SimTime,
}

/// An open operation span ([`Phase::Request`] root or [`Phase::Rpc`]
/// leg), from [`TraceSink::open`]. Its id is allocated up front so child
/// spans can attach before it closes.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the span back to TraceSink::close to record it"]
pub struct OpenSpan {
    start: SpanStart,
    ctx: SpanCtx,
    parent: Option<SpanCtx>,
}

impl OpenSpan {
    /// The tree position children of this span attach under.
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }
}

/// Retained span records plus the request-ring link table.
#[derive(Default)]
struct SpanStore {
    records: Vec<SpanRecord>,
    next_id: u64,
    /// `(request ring rkey, seq)` → the sender's open span.
    links: HashMap<(u32, u32), SpanCtx>,
}

impl SpanStore {
    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// The shared recorder of phase histograms and (optionally) span records.
///
/// Cloning a sink shares its storage (an `Rc`), so the client, its ring
/// sender, and the server-side receiver all funnel into one set of
/// per-phase distributions and one span timeline. [`TraceSink::for_node`]
/// stamps the emitting node onto span records.
#[derive(Clone, Default)]
pub struct TraceSink {
    phases: Option<Rc<RefCell<[LatencyHistogram; N_PHASES]>>>,
    spans: Option<Rc<RefCell<SpanStore>>>,
    node: u32,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("phases", &self.phases.is_some())
            .field("spans", &self.spans.is_some())
            .field("node", &self.node)
            .finish()
    }
}

impl TraceSink {
    /// A sink recording phase histograms only.
    pub fn new() -> Self {
        TraceSink {
            phases: Some(Rc::default()),
            ..TraceSink::default()
        }
    }

    /// A sink recording phase histograms and retaining every span as a
    /// [`SpanRecord`] (node id 0; see [`TraceSink::for_node`]).
    pub fn with_spans() -> Self {
        TraceSink {
            spans: Some(Rc::default()),
            ..TraceSink::new()
        }
    }

    /// True when this sink records anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.phases.is_some() || self.spans.is_some()
    }

    /// A handle onto the same storage that stamps `node` on every span.
    pub fn for_node(&self, node: u32) -> TraceSink {
        TraceSink {
            node,
            ..self.clone()
        }
    }

    /// A handle onto the same span storage that records no phase
    /// histograms (for forwarding pumps, whose ring time already sits
    /// inside the primary's [`Phase::IndexExec`]).
    pub fn spans_only(&self) -> TraceSink {
        TraceSink {
            phases: None,
            ..self.clone()
        }
    }

    /// Captures the current virtual instant as a span start.
    #[inline]
    pub fn begin(&self) -> SpanStart {
        SpanStart { at: now() }
    }

    /// Closes a span started by [`TraceSink::begin`], attributing the
    /// elapsed virtual time to `phase`.
    #[inline]
    pub fn end(&self, phase: Phase, start: SpanStart) {
        self.end_under(phase, start, None);
    }

    /// Like [`TraceSink::end`], also retaining the span as a child of each
    /// of `parents` (one record per parent) when spans are retained.
    pub fn end_under(
        &self,
        phase: Phase,
        start: SpanStart,
        parents: impl IntoIterator<Item = SpanCtx>,
    ) {
        let end = now();
        self.record(phase, end.saturating_duration_since(start.at));
        if let Some(store) = &self.spans {
            let mut store = store.borrow_mut();
            for parent in parents {
                let span_id = store.next_id();
                store.records.push(SpanRecord {
                    trace_id: parent.trace_id,
                    span_id,
                    parent_span: parent.span_id,
                    kind: phase,
                    node: self.node,
                    start_ns: start.at.as_nanos(),
                    end_ns: end.as_nanos(),
                });
            }
        }
    }

    /// Records an externally measured duration against `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, span: SimDuration) {
        if let Some(phases) = &self.phases {
            phases.borrow_mut()[phase.index()].record(span);
        }
    }

    /// Opens an operation span: a [`Phase::Request`] root, or with a
    /// `parent` a [`Phase::Rpc`] leg under it.
    pub fn open(&self, parent: Option<SpanCtx>) -> OpenSpan {
        let ctx = match &self.spans {
            Some(store) => {
                let span_id = store.borrow_mut().next_id();
                SpanCtx {
                    trace_id: parent.map_or(span_id, |p| p.trace_id),
                    span_id,
                }
            }
            None => SpanCtx::default(),
        };
        OpenSpan {
            start: self.begin(),
            ctx,
            parent,
        }
    }

    /// Closes a span opened by [`TraceSink::open`].
    pub fn close(&self, span: OpenSpan) {
        let (phase, parent) = match span.parent {
            Some(p) => (Phase::Rpc, p.span_id),
            None => (Phase::Request, 0),
        };
        let end = now();
        self.record(phase, end.saturating_duration_since(span.start.at));
        if let Some(store) = &self.spans {
            store.borrow_mut().records.push(SpanRecord {
                trace_id: span.ctx.trace_id,
                span_id: span.ctx.span_id,
                parent_span: parent,
                kind: phase,
                node: self.node,
                start_ns: span.start.at.as_nanos(),
                end_ns: end.as_nanos(),
            });
        }
    }

    /// Notes that request `seq` written into the ring `rkey` belongs to
    /// `span` (no-op unless spans are retained).
    pub fn link(&self, rkey: u32, seq: u32, span: SpanCtx) {
        if let Some(store) = &self.spans {
            store.borrow_mut().links.insert((rkey, seq), span);
        }
    }

    /// The span that sent request `seq` into the ring `rkey`, if linked.
    pub fn linked(&self, rkey: u32, seq: u32) -> Option<SpanCtx> {
        let store = self.spans.as_ref()?;
        let span = store.borrow().links.get(&(rkey, seq)).copied();
        span
    }

    /// Snapshot of one phase's histogram; `None` when the phase recorded
    /// nothing.
    pub fn phase_histogram(&self, phase: Phase) -> Option<LatencyHistogram> {
        let h = &self.phases.as_ref()?.borrow()[phase.index()];
        if h.is_empty() {
            None
        } else {
            Some(h.clone())
        }
    }

    /// Every retained span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .as_ref()
            .map(|s| s.borrow().records.clone())
            .unwrap_or_default()
    }

    /// The retained spans as JSONL (one span per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.spans() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

fn now() -> SimTime {
    try_now().unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_PHASES);
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn spans_accumulate_virtual_time() {
        use catfish_simnet::{sleep, Sim};
        let sim = Sim::new();
        sim.run_until(async {
            let sink = TraceSink::new();
            let start = sink.begin();
            sleep(SimDuration::from_micros(7)).await;
            sink.end(Phase::Dispatch, start);
            let h = sink.phase_histogram(Phase::Dispatch).unwrap();
            assert_eq!(h.len(), 1);
            assert_eq!(h.max(), SimDuration::from_micros(7));
            assert!(sink.phase_histogram(Phase::CqWait).is_none());
        });
    }

    #[test]
    fn clones_share_histograms() {
        let sink = TraceSink::new();
        let other = sink.clone();
        other.record(Phase::IndexExec, SimDuration::from_micros(3));
        assert_eq!(sink.phase_histogram(Phase::IndexExec).unwrap().len(), 1);
    }

    #[test]
    fn default_sink_is_inactive_and_silent() {
        let sink = TraceSink::default();
        assert!(!sink.is_active());
        let op = sink.open(None);
        assert_eq!(op.ctx(), SpanCtx::default());
        sink.link(1, 1, op.ctx());
        assert_eq!(sink.linked(1, 1), None);
        sink.end_under(Phase::Dispatch, sink.begin(), Some(op.ctx()));
        sink.close(op);
        assert!(sink.phase_histogram(Phase::Dispatch).is_none());
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn phase_only_sink_retains_no_spans() {
        let sink = TraceSink::new();
        let op = sink.open(None);
        sink.link(1, 1, op.ctx());
        assert_eq!(sink.linked(1, 1), None);
        sink.close(op);
        assert_eq!(sink.phase_histogram(Phase::Request).unwrap().len(), 1);
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn retained_spans_link_across_nodes() {
        let sink = TraceSink::with_spans();
        let client = sink.for_node(3);
        let server = sink.for_node(SERVER_NODE_BASE + 1);
        let root = client.open(None);
        client.link(7, 42, root.ctx());
        let parent = server.linked(7, 42).expect("linked by (rkey, seq)");
        assert_eq!(server.linked(7, 43), None);
        server.end_under(Phase::IndexExec, server.begin(), Some(parent));
        let leg = client.open(Some(root.ctx()));
        client.close(leg);
        client.close(root);
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        let exec = spans[0];
        assert_eq!(
            (exec.kind, exec.node),
            (Phase::IndexExec, SERVER_NODE_BASE + 1)
        );
        assert_eq!(
            (exec.trace_id, exec.parent_span),
            (root.ctx().trace_id, root.ctx().span_id)
        );
        assert_eq!(
            (spans[1].kind, spans[1].parent_span),
            (Phase::Rpc, root.ctx().span_id)
        );
        assert_eq!(
            (spans[2].kind, spans[2].parent_span, spans[2].node),
            (Phase::Request, 0, 3)
        );
        assert_eq!(spans[2].span_id, spans[2].trace_id);
        // Spans-only handles share the timeline but record no phases.
        let pump = sink.spans_only();
        pump.close(pump.open(Some(root.ctx())));
        assert_eq!(sink.spans().len(), 4);
        assert_eq!(sink.phase_histogram(Phase::Rpc).unwrap().len(), 1);
        let jsonl = sink.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"request\""));
        assert!(jsonl.contains("\"kind\":\"index_exec\""));
    }
}
