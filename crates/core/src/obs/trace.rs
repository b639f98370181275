//! Distributed trace propagation: the wire-carried [`TraceContext`] and
//! the per-run [`SpanLog`] of causally linked spans.
//!
//! PR 4's [`super::TraceSink`] attributes virtual time to *phases* of one
//! process; it cannot say which shard executions belong to which client
//! request once a scatter-gather query fans out. This module adds the
//! missing causal layer:
//!
//! * [`TraceContext`] is a compact 17-byte envelope header (trace id,
//!   parent span id, hop flags) that both wire codecs carry inside a
//!   `Traced` message variant. It rides the request across every
//!   transport — ring write-back, mailbox fetch, and the write-back
//!   fallback of an offloaded read — and survives doorbell batching and
//!   PR 5 retransmissions unchanged, because the client wraps the request
//!   **once** before encoding and resends the same bytes.
//! * [`SpanLog`] is the shared recorder the client, server, and cluster
//!   layers stamp [`SpanRecord`]s into: client issue (root), per-shard
//!   RPC legs, server dispatch/index-exec (linked through the wire
//!   context), and the scatter-gather merge. [`super::assembly`] stitches
//!   the records back into per-request trees.
//!
//! A default `SpanLog` is inactive, so untraced runs never allocate an
//! envelope.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use catfish_simnet::{try_now, SimTime};

/// Encoded size of a [`TraceContext`] on the wire: 8 (trace id) + 8
/// (parent span id) + 1 (flags).
pub const TRACE_CTX_WIRE_BYTES: usize = 17;

/// Hop flag: the request was coalesced into a doorbell batch frame.
pub const TRACE_FLAG_BATCHED: u8 = 1 << 0;
/// Hop flag: the request asked for the mailbox-fetch response path.
pub const TRACE_FLAG_FETCH: u8 = 1 << 1;
/// Hop flag: this encoding is a rebuilt retransmission (batch partial
/// retransmit re-encodes; single-frame retransmits resend the original
/// bytes and keep their original flags).
pub const TRACE_FLAG_RETRANSMIT: u8 = 1 << 2;

/// The wire-propagated tracing context: which request tree a hop belongs
/// to and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Trace identifier — equal to the root span's id, unique per
    /// traced request within a run.
    pub trace_id: u64,
    /// Span id of the sender-side span that caused this hop; server-side
    /// spans attach here as children.
    pub parent_span: u64,
    /// Hop flags (`TRACE_FLAG_*`).
    pub flags: u8,
}

impl TraceContext {
    /// Appends the 17-byte wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.parent_span.to_le_bytes());
        out.push(self.flags);
    }

    /// Decodes a context from the first [`TRACE_CTX_WIRE_BYTES`] of
    /// `buf`; `None` when the buffer is too short.
    pub fn decode(buf: &[u8]) -> Option<TraceContext> {
        if buf.len() < TRACE_CTX_WIRE_BYTES {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_le_bytes(buf[0..8].try_into().expect("sized")),
            parent_span: u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
            flags: buf[16],
        })
    }

    /// A copy of this context with `flag` set.
    pub fn with_flag(mut self, flag: u8) -> TraceContext {
        self.flags |= flag;
        self
    }
}

/// What a span measured — the taxonomy of the request tree.
///
/// A single-shard request is `Request → {Dispatch, IndexExec}`; a
/// scatter-gather request is `Request → Rpc (per shard) → {Dispatch,
/// IndexExec}` plus a `Merge` leaf; a fully offloaded read is
/// `Request → Offload` with no server spans at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The whole client-visible operation (root span).
    Request,
    /// One per-shard leg of a scatter-gather operation.
    Rpc,
    /// Server-side frame dispatch charge (CQ poll, wakeup, decode).
    Dispatch,
    /// Server-side index execution of one request.
    IndexExec,
    /// Client-side merge of per-shard partial results.
    Merge,
    /// Client-side one-sided traversal (no server involvement).
    Offload,
}

impl SpanKind {
    /// Stable snake_case name used in JSONL output and the Chrome export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Rpc => "rpc",
            SpanKind::Dispatch => "dispatch",
            SpanKind::IndexExec => "index_exec",
            SpanKind::Merge => "merge",
            SpanKind::Offload => "offload",
        }
    }

    /// Parses a stable name back into a kind (the `trace_tool` reader).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "request" => SpanKind::Request,
            "rpc" => SpanKind::Rpc,
            "dispatch" => SpanKind::Dispatch,
            "index_exec" => SpanKind::IndexExec,
            "merge" => SpanKind::Merge,
            "offload" => SpanKind::Offload,
            _ => return None,
        })
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

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
    pub kind: SpanKind,
    /// Emitting node: client id for client-side spans, `SERVER_NODE_BASE
    /// + shard` for server-side spans.
    pub node: u32,
    /// Span start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// Span end, nanoseconds of virtual time.
    pub end_ns: u64,
}

/// Node-id offset that marks a span as server-side: shard `s` emits spans
/// with `node = SERVER_NODE_BASE + s`.
pub const SERVER_NODE_BASE: u32 = 1 << 16;

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

#[derive(Debug, Default)]
struct SpanLogInner {
    spans: Vec<SpanRecord>,
    next_id: u64,
}

/// A shared, append-only log of completed spans for one run.
///
/// Cloning shares the buffer; [`SpanLog::for_node`] stamps a node id so
/// every client and shard writes into one common timeline with its own
/// identity. An inactive (default) log records nothing and hands out no
/// span ids, so the client-side wrapping code emits no wire envelopes —
/// tracing is opt-in per run.
#[derive(Clone, Default)]
pub struct SpanLog {
    inner: Option<Rc<RefCell<SpanLogInner>>>,
    node: u32,
}

impl fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanLog")
            .field("active", &self.active())
            .finish()
    }
}

impl SpanLog {
    /// Creates an **active** log (node id 0) with an empty buffer.
    pub fn new() -> Self {
        SpanLog {
            inner: Some(Rc::default()),
            node: 0,
        }
    }

    /// True when this log records spans (created via [`SpanLog::new`]).
    #[inline]
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the same buffer that stamps `node` on every span it
    /// records.
    pub fn for_node(&self, node: u32) -> SpanLog {
        SpanLog {
            inner: self.inner.clone(),
            node,
        }
    }

    /// Allocates a fresh span id (0 when inactive — callers treat 0 as
    /// "no span").
    pub fn next_span_id(&self) -> u64 {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            inner.next_id += 1;
            return inner.next_id;
        }
        0
    }

    /// The current virtual instant in nanoseconds (0 outside a sim).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        try_now().unwrap_or(SimTime::ZERO).as_nanos()
    }

    /// Records one completed span with explicit times. No-op when
    /// inactive.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().spans.push(SpanRecord {
                trace_id,
                span_id,
                parent_span,
                kind,
                node: self.node,
                start_ns,
                end_ns,
            });
        }
    }

    /// Allocates a span id and records the span in one step, returning
    /// the new id (0 when inactive).
    pub fn emit(
        &self,
        trace_id: u64,
        parent_span: u64,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.active() {
            return 0;
        }
        let id = self.next_span_id();
        self.record(trace_id, id, parent_span, kind, start_ns, end_ns);
        id
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        if let Some(inner) = &self.inner {
            return inner.borrow().spans.len();
        }
        0
    }

    /// True if no spans were recorded (always true when inactive).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every recorded span, in completion order.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        if let Some(inner) = &self.inner {
            return inner.borrow().spans.clone();
        }
        Vec::new()
    }

    /// The span log as JSONL (one span per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips_through_bytes() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0012_3456,
            parent_span: 41,
            flags: TRACE_FLAG_BATCHED | TRACE_FLAG_FETCH,
        };
        let mut buf = Vec::new();
        ctx.encode_into(&mut buf);
        assert_eq!(buf.len(), TRACE_CTX_WIRE_BYTES);
        assert_eq!(TraceContext::decode(&buf), Some(ctx));
        for cut in 0..TRACE_CTX_WIRE_BYTES {
            assert_eq!(TraceContext::decode(&buf[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::Request,
            SpanKind::Rpc,
            SpanKind::Dispatch,
            SpanKind::IndexExec,
            SpanKind::Merge,
            SpanKind::Offload,
        ] {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn default_log_is_inactive_and_silent() {
        let log = SpanLog::default();
        assert!(!log.active());
        assert_eq!(log.next_span_id(), 0);
        log.record(1, 2, 0, SpanKind::Request, 0, 5);
        assert!(log.is_empty());
    }

    #[test]
    fn active_log_records_and_stamps_nodes() {
        let log = SpanLog::new();
        assert!(log.active());
        let c3 = log.for_node(3);
        let srv = log.for_node(SERVER_NODE_BASE + 1);
        let root = c3.next_span_id();
        c3.record(root, root, 0, SpanKind::Request, 0, 100);
        let child = srv.emit(root, root, SpanKind::IndexExec, 10, 60);
        assert_ne!(child, 0);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].node, 3);
        assert_eq!(spans[1].node, SERVER_NODE_BASE + 1);
        assert_eq!(spans[1].parent_span, root);
        assert_eq!(spans[1].trace_id, root);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"request\""));
        assert!(jsonl.contains("\"kind\":\"index_exec\""));
    }
}
