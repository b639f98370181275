//! Properties of span tracing: whole-run span records assemble into one
//! connected tree per request, in single-shard, sharded, and replicated
//! topologies, clean and under chaos. Server spans join their request by
//! the `(ring rkey, seq)` the request already carries, so in fault-free
//! runs every server-bound leg must show its dispatch and execution, and
//! every replication forward its backup-side execution. And because
//! nothing about tracing touches the wire, a traced run is
//! indistinguishable from an untraced one.

use catfish_core::config::{AccessMode, ClientConfig, Scheme};
use catfish_core::harness::{run_experiment, ExperimentSpec};
use catfish_rdma::{profile, FaultConfig};
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

/// A harness spec for the span-tree integration tests below.
fn traced_spec(clients: usize, shards: usize, fault: Option<FaultConfig>) -> ExperimentSpec {
    ExperimentSpec {
        profile: profile::infiniband_100g(),
        scheme: Scheme::Catfish,
        clients,
        client_nodes: 2,
        shards,
        dataset: uniform_rects(4_000, 1e-4, 7),
        trace: TraceSpec::search_only(ScaleDist::small(), 40),
        seed: 7,
        collect_spans: true,
        fault,
        ..ExperimentSpec::default()
    }
}

/// A chaos plan touching every fault class the protocol recovers from.
fn chaos() -> FaultConfig {
    FaultConfig {
        drop_write: 0.02,
        drop_completion: 0.01,
        corrupt: 0.01,
        duplicate: 0.01,
        delay: 0.02,
        suppress_heartbeat: 0.05,
        ..FaultConfig::off()
    }
}

/// Tracing changes nothing: on every transport, sharded and replicated,
/// the traced run's result row, latency histogram, and counters equal the
/// untraced run's exactly.
#[test]
fn tracing_changes_nothing() {
    let mut cells = Vec::new();
    for (mode, transport) in [
        (AccessMode::FastMessaging, "fast"),
        (AccessMode::Fetching, "fetch"),
        (AccessMode::Offloading, "offload"),
    ] {
        for shards in [1, 4] {
            let mut spec = traced_spec(8, shards, None);
            spec.trace = TraceSpec::search_only(ScaleDist::large(), 30);
            spec.client_config = Some(ClientConfig {
                mode,
                ..ClientConfig::default()
            });
            cells.push((spec, transport));
        }
    }
    let mut replicated = traced_spec(8, 4, None);
    replicated.replicas = 3;
    replicated.trace = TraceSpec::hybrid(ScaleDist::small(), 30);
    cells.push((replicated, "fast"));
    for (traced, transport) in cells {
        let off = run_experiment(&ExperimentSpec {
            collect_spans: false,
            ..traced.clone()
        });
        let on = run_experiment(&traced);
        let cell = format!(
            "{:?} x {} shards x {} replicas",
            traced.client_config.map(|c| c.mode),
            traced.shards,
            traced.replicas
        );
        assert!(!on.spans.is_empty(), "{cell}: traced run recorded no spans");
        assert_eq!(on.stats.dominant_transport(), transport, "{cell}");
        assert_eq!(on.row(), off.row(), "{cell}: result rows differ");
        assert_eq!(on.hist, off.hist, "{cell}: latency histograms differ");
        assert_eq!(on.stats, off.stats, "{cell}: counters differ");
    }
}

mod span_trees {
    use super::*;
    use catfish_core::obs::{Phase, SpanRecord, TraceAssembler, SERVER_NODE_BASE};

    /// Asserts the run's spans assemble into exactly one connected tree
    /// per completed request, each rooted in a client-side `Request` span.
    /// Fault-free runs (`spec.fault` off) must also have joined every
    /// server span (see [`assert_no_missed_links`]).
    fn assert_connected(spec: &ExperimentSpec) {
        let r = run_experiment(spec);
        assert!(!r.spans.is_empty(), "traced run recorded no spans");
        let asm = TraceAssembler::assemble(&r.spans);
        assert!(
            asm.all_connected(),
            "disconnected traces: {:?}",
            asm.disconnected()
        );
        assert_eq!(
            asm.len(),
            r.completed_requests,
            "one trace per completed request"
        );
        for t in &asm.traces {
            let root = &t.spans[t.roots[0]];
            assert_eq!(root.kind, Phase::Request);
            assert!(
                root.node < SERVER_NODE_BASE,
                "roots are client-side (node {})",
                root.node
            );
        }
        // Fast-messaging requests must carry server-side spans linked by
        // `(ring rkey, seq)` (offloaded ones legitimately have none), and
        // the workload never offloads everything.
        let server_spans = r
            .spans
            .iter()
            .filter(|s| s.node >= SERVER_NODE_BASE)
            .count();
        assert!(server_spans > 0, "no server-side spans were stitched in");
        if spec.fault.is_some_and(|f| !f.is_active()) {
            assert_no_missed_links(&r.spans);
        }
    }

    /// A missed `(rkey, seq)` join drops a server span silently; without
    /// faults none may be missed. Every leg that talked to a server — a
    /// `Request`/`Rpc` span with no `OffloadRead` child (fully offloaded)
    /// and no `Merge` child (a scatter root, whose legs are the `Rpc`
    /// children) — has a `Dispatch` and an `IndexExec` child. A forwarding
    /// leg (an `Rpc` sent from a server node) is such a leg too, so each
    /// one has its backup-side children.
    fn assert_no_missed_links(spans: &[SpanRecord]) {
        let has_child = |parent: &SpanRecord, kind: Phase| {
            spans.iter().any(|s| {
                s.trace_id == parent.trace_id && s.parent_span == parent.span_id && s.kind == kind
            })
        };
        for leg in spans
            .iter()
            .filter(|s| matches!(s.kind, Phase::Request | Phase::Rpc))
            .filter(|s| !has_child(s, Phase::OffloadRead) && !has_child(s, Phase::Merge))
        {
            for kind in [Phase::Dispatch, Phase::IndexExec] {
                assert!(has_child(leg, kind), "leg {leg:?} has no {kind} child");
            }
        }
    }

    #[test]
    fn single_shard_traces_are_connected() {
        assert_connected(&traced_spec(8, 1, Some(FaultConfig::off())));
    }

    #[test]
    fn single_shard_traces_survive_chaos() {
        assert_connected(&traced_spec(8, 1, Some(chaos())));
    }

    #[test]
    fn four_shard_scatter_gather_traces_are_connected() {
        // Wide window queries (1e-2 of the space) span the x-partition,
        // so requests genuinely scatter over multiple shards.
        let mut spec = traced_spec(8, 4, Some(FaultConfig::off()));
        spec.trace = TraceSpec::search_only(ScaleDist::large(), 40);
        assert_connected(&spec);
        // Scatter-gather structure: some request fanned out over RPC legs
        // to multiple shards and merged.
        let r = run_experiment(&spec);
        let asm = TraceAssembler::assemble(&r.spans);
        let scattered = asm
            .traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.kind == Phase::Rpc))
            .count();
        assert!(scattered > 0, "no request scattered across shards");
        let merged = asm
            .traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.kind == Phase::Merge))
            .count();
        assert_eq!(scattered, merged, "every scatter has a merge leaf");
    }

    /// The ISSUE's acceptance scenario: a 4-shard scatter-gather window
    /// query workload under a chaos fault plan still reconstructs one
    /// connected trace tree per request.
    #[test]
    fn four_shard_traces_survive_chaos() {
        assert_connected(&traced_spec(8, 4, Some(chaos())));
    }

    /// Both server-bound transports join their server spans: ring
    /// write-back, and mailbox fetch (whose wire `seq` carries
    /// `FETCH_FLAG`).
    #[test]
    fn write_back_and_fetch_legs_join_their_server_spans() {
        for mode in [AccessMode::FastMessaging, AccessMode::Fetching] {
            let mut spec = traced_spec(8, 2, Some(FaultConfig::off()));
            spec.client_config = Some(ClientConfig {
                mode,
                ..ClientConfig::default()
            });
            assert_connected(&spec);
        }
    }

    /// Replicated writes: every insert's primary forwards it to two
    /// backups, and each forwarding leg joins the request's tree with
    /// the backup's dispatch and execution beneath it.
    #[test]
    fn replicated_forwarding_legs_are_connected() {
        let mut spec = traced_spec(8, 2, Some(FaultConfig::off()));
        spec.replicas = 3;
        spec.trace = TraceSpec::hybrid(ScaleDist::small(), 40);
        assert_connected(&spec);
        let r = run_experiment(&spec);
        let forwards = r
            .spans
            .iter()
            .filter(|s| s.kind == Phase::Rpc && s.node >= SERVER_NODE_BASE)
            .count();
        assert!(forwards > 0, "no forwarding legs were traced");
    }
}
