//! Cross-shard trace assembly: stitching [`SpanRecord`]s back into
//! per-request trees.
//!
//! [`TraceSink::spans`](super::TraceSink::spans) is a flat
//! completion-ordered timeline written by every client and shard in a run; [`TraceAssembler`] groups
//! it by trace id and rebuilds each request's causal tree — client issue
//! at the root, per-shard RPC legs beneath it, server dispatch/index-exec
//! spans linked by each request's `(ring rkey, seq)`, and the merge leaf.
//! The central structural invariant is **connectedness**: every span's
//! parent is present in the same trace and there is exactly one root, so
//! a window query scattered over four shards under a chaos fault plan
//! still reconstructs into one tree per request (retransmitted requests
//! may legitimately execute twice server-side — that is more children,
//! never an orphan). [`Assembly::to_chrome_json`] exports the trees in
//! Chrome `trace_event` format (`chrome://tracing`, Perfetto), with one
//! "process" lane per node.

use std::collections::{BTreeMap, HashSet};

use super::span::SpanRecord;

/// One reassembled request tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id (equal to the root span's id).
    pub trace_id: u64,
    /// The trace's spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Indices (into `spans`) of roots — spans with `parent_span == 0`. A
    /// well-formed trace has exactly one.
    pub roots: Vec<usize>,
    /// Indices of orphans — non-root spans whose parent id does not
    /// appear in this trace.
    pub orphans: Vec<usize>,
}

impl TraceTree {
    /// True when the tree is fully connected: exactly one root, no
    /// orphans, and the root's id matches the trace id.
    pub fn connected(&self) -> bool {
        self.orphans.is_empty()
            && self.roots.len() == 1
            && self.spans[self.roots[0]].span_id == self.trace_id
    }

    /// Wall-span of the whole tree in virtual nanoseconds (latest end −
    /// earliest start).
    pub fn duration_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Number of distinct nodes (client + shards) that contributed spans.
    pub fn node_count(&self) -> usize {
        self.spans
            .iter()
            .map(|s| s.node)
            .collect::<HashSet<u32>>()
            .len()
    }
}

/// Groups span records into [`TraceTree`]s.
#[derive(Debug, Default)]
pub struct TraceAssembler;

impl TraceAssembler {
    /// Assembles a flat span list into per-trace trees, ordered by trace
    /// id. Spans with `trace_id == 0` (emitted by an inactive log, which
    /// should not happen) are grouped under trace 0 and will fail
    /// connectedness — surfacing the bug rather than hiding it.
    pub fn assemble(spans: &[SpanRecord]) -> Assembly {
        let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        for s in spans {
            by_trace.entry(s.trace_id).or_default().push(*s);
        }
        let traces = by_trace
            .into_iter()
            .map(|(trace_id, spans)| {
                let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
                let mut roots = Vec::new();
                let mut orphans = Vec::new();
                for (i, s) in spans.iter().enumerate() {
                    if s.parent_span == 0 {
                        roots.push(i);
                    } else if !ids.contains(&s.parent_span) {
                        orphans.push(i);
                    }
                }
                TraceTree {
                    trace_id,
                    spans,
                    roots,
                    orphans,
                }
            })
            .collect();
        Assembly { traces }
    }
}

/// The assembled run: one tree per trace id.
#[derive(Debug, Clone, Default)]
pub struct Assembly {
    /// Trees, ordered by trace id.
    pub traces: Vec<TraceTree>,
}

impl Assembly {
    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no traces were assembled.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// True when every trace is a connected tree.
    pub fn all_connected(&self) -> bool {
        self.traces.iter().all(TraceTree::connected)
    }

    /// Trace ids of the disconnected trees (empty on a healthy run).
    pub fn disconnected(&self) -> Vec<u64> {
        self.traces
            .iter()
            .filter(|t| !t.connected())
            .map(|t| t.trace_id)
            .collect()
    }

    /// Total spans across every trace.
    pub fn span_count(&self) -> usize {
        self.traces.iter().map(|t| t.spans.len()).sum()
    }

    /// Exports every span as a Chrome `trace_event` JSON document (an
    /// object with a `traceEvents` array of "X" complete events), loadable
    /// in `chrome://tracing` or Perfetto. Nodes become process ids — the
    /// client and each shard get their own lane — and trace ids become
    /// thread ids, so one request's spans line up in a row.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for tree in &self.traces {
            for s in &tree.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = s.start_ns as f64 / 1000.0;
                let dur = s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"catfish\",\"ph\":\"X\",\
                     \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{},\"tid\":{},\
                     \"args\":{{\"trace_id\":{},\"span_id\":{},\"parent\":{}}}}}",
                    s.kind.name(),
                    s.node,
                    s.trace_id,
                    s.trace_id,
                    s.span_id,
                    s.parent_span
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::{Phase, SERVER_NODE_BASE};

    fn span(
        trace_id: u64,
        span_id: u64,
        parent: u64,
        kind: Phase,
        node: u32,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_span: parent,
            kind,
            node,
            start_ns: start,
            end_ns: end,
        }
    }

    /// A 2-shard scatter-gather trace plus a single-shard one.
    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            // Trace 1: root on client 0, RPCs to shards 0/1, server spans,
            // merge. Completion order is leaf-first, as in a real run.
            span(1, 4, 2, Phase::IndexExec, SERVER_NODE_BASE, 20, 40),
            span(1, 5, 3, Phase::IndexExec, SERVER_NODE_BASE + 1, 25, 50),
            span(1, 2, 1, Phase::Rpc, 0, 10, 45),
            span(1, 3, 1, Phase::Rpc, 0, 10, 55),
            span(1, 6, 1, Phase::Merge, 0, 55, 60),
            span(1, 1, 0, Phase::Request, 0, 0, 60),
            // Trace 7: single-shard request.
            span(7, 8, 7, Phase::IndexExec, SERVER_NODE_BASE, 105, 110),
            span(7, 7, 0, Phase::Request, 1, 100, 115),
        ]
    }

    #[test]
    fn assembles_connected_trees() {
        let asm = TraceAssembler::assemble(&sample_spans());
        assert_eq!(asm.len(), 2);
        assert!(asm.all_connected(), "{:?}", asm.disconnected());
        assert_eq!(asm.span_count(), 8);
        let t1 = &asm.traces[0];
        assert_eq!(t1.trace_id, 1);
        assert_eq!(t1.duration_ns(), 60);
        assert_eq!(t1.node_count(), 3); // client 0 + two shards
    }

    #[test]
    fn orphans_and_multiple_roots_break_connectedness() {
        // Parent 99 never recorded → orphan.
        let orphaned = vec![
            span(1, 1, 0, Phase::Request, 0, 0, 10),
            span(1, 2, 99, Phase::IndexExec, SERVER_NODE_BASE, 2, 5),
        ];
        let asm = TraceAssembler::assemble(&orphaned);
        assert!(!asm.all_connected());
        assert_eq!(asm.disconnected(), vec![1]);
        assert_eq!(asm.traces[0].orphans.len(), 1);

        // Two roots in one trace id.
        let two_roots = vec![
            span(3, 3, 0, Phase::Request, 0, 0, 10),
            span(3, 4, 0, Phase::Request, 1, 0, 10),
        ];
        assert!(!TraceAssembler::assemble(&two_roots).all_connected());

        // Root id disagreeing with the trace id.
        let bad_root = vec![span(5, 6, 0, Phase::Request, 0, 0, 10)];
        assert!(!TraceAssembler::assemble(&bad_root).all_connected());
    }

    #[test]
    fn duplicate_server_execution_is_not_an_orphan() {
        // A retransmitted request executes twice server-side: two
        // IndexExec children under the same parent is still connected.
        let spans = vec![
            span(1, 1, 0, Phase::Request, 0, 0, 100),
            span(1, 2, 1, Phase::IndexExec, SERVER_NODE_BASE, 10, 20),
            span(1, 3, 1, Phase::IndexExec, SERVER_NODE_BASE, 60, 70),
        ];
        assert!(TraceAssembler::assemble(&spans).all_connected());
    }

    #[test]
    fn chrome_export_shape() {
        let asm = TraceAssembler::assemble(&sample_spans());
        let json = asm.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"merge\""));
        assert!(json.contains(&format!("\"pid\":{}", SERVER_NODE_BASE + 1)));
        // 8 spans → 8 events.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 8);
    }

    #[test]
    fn empty_assembly() {
        let asm = TraceAssembler::assemble(&[]);
        assert!(asm.is_empty());
        assert!(asm.all_connected());
        assert_eq!(asm.to_chrome_json(), "{\"traceEvents\":[]}");
    }
}
