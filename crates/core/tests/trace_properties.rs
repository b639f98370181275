//! Properties of distributed request tracing: the [`TraceContext`]
//! envelope round-trips byte-identically through both wire codecs,
//! survives doorbell-batch coalescing and partial retransmission, and
//! whole-run span logs assemble into one
//! connected tree per request, in single-shard and sharded topologies,
//! clean and under chaos.

use catfish_core::config::Scheme;
use catfish_core::harness::{run_experiment, ExperimentSpec};
use catfish_core::kv::{KvMessage, KvWire};
use catfish_core::msg::{Message, RtreeWire};
use catfish_core::obs::{TraceContext, TRACE_FLAG_BATCHED, TRACE_FLAG_RETRANSMIT};
use catfish_core::WireCodec;
use catfish_rdma::{profile, FaultConfig};
use catfish_rtree::Rect;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};
use proptest::prelude::*;

fn arb_ctx() -> impl Strategy<Value = TraceContext> {
    (1u64..u64::MAX, 1u64..u64::MAX, 0u8..8u8).prop_map(|(trace_id, parent_span, flags)| {
        TraceContext {
            trace_id,
            parent_span,
            flags,
        }
    })
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.1, 0.0f64..0.1)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Any single R-tree request (the only messages envelopes may wrap).
fn arb_rtree_req() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), arb_rect()).prop_map(|(seq, rect)| Message::SearchReq { seq, rect }),
        (any::<u32>(), arb_rect(), any::<u64>()).prop_map(|(seq, rect, data)| Message::InsertReq {
            seq,
            rect,
            data
        }),
        (any::<u32>(), arb_rect(), any::<u64>()).prop_map(|(seq, rect, data)| Message::DeleteReq {
            seq,
            rect,
            data
        }),
        (any::<u32>(), 0.0f64..1.0, 0.0f64..1.0, 1u32..64)
            .prop_map(|(seq, x, y, k)| Message::NearestReq { seq, x, y, k }),
    ]
}

/// Any single KV request.
fn arb_kv_req() -> impl Strategy<Value = KvMessage> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(seq, key)| KvMessage::GetReq { seq, key }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(seq, key, value)| KvMessage::PutReq { seq, key, value }),
        (any::<u32>(), any::<u64>()).prop_map(|(seq, key)| KvMessage::RemoveReq { seq, key }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(seq, lo, hi)| KvMessage::RangeReq {
            seq,
            lo: lo.min(hi),
            hi: lo.max(hi),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An R-tree trace envelope round-trips through encode/decode with the
    /// context intact, and re-encoding the decoded message is
    /// byte-identical — the property that makes single-frame retransmits
    /// (which resend the original bytes) indistinguishable from fresh
    /// sends to the server-side dedup layer.
    #[test]
    fn rtree_envelope_roundtrips_byte_identically(
        ctx in arb_ctx(),
        inner in arb_rtree_req(),
    ) {
        let msg = RtreeWire::traced(ctx, inner.clone());
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).expect("traced frame decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(decoded.encode(), bytes);
        let (got_ctx, got_inner) = RtreeWire::take_trace(decoded);
        prop_assert_eq!(got_ctx, Some(ctx));
        prop_assert_eq!(got_inner, inner);
    }

    /// The same round-trip for the KV codec.
    #[test]
    fn kv_envelope_roundtrips_byte_identically(
        ctx in arb_ctx(),
        inner in arb_kv_req(),
    ) {
        let msg = KvWire::traced(ctx, inner.clone());
        let bytes = msg.encode();
        let decoded = KvMessage::decode(&bytes).expect("traced frame decodes");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(decoded.encode(), bytes);
        let (got_ctx, got_inner) = KvWire::take_trace(decoded);
        prop_assert_eq!(got_ctx, Some(ctx));
        prop_assert_eq!(got_inner, inner);
    }

    /// Trace envelopes survive doorbell-batch coalescing: a batch of
    /// traced requests decodes back to every envelope with its context
    /// intact, and a partial retransmission of the unacked tail (rebuilt
    /// as a smaller batch with the retransmit flag) preserves each
    /// context's identity fields.
    #[test]
    fn envelopes_survive_batch_coalescing_and_partial_retransmit(
        reqs in prop::collection::vec((arb_ctx(), arb_rtree_req()), 1..16),
        split in any::<prop::sample::Index>(),
    ) {
        let traced: Vec<Message> = reqs
            .iter()
            .map(|(ctx, inner)| {
                RtreeWire::traced(ctx.with_flag(TRACE_FLAG_BATCHED), inner.clone())
            })
            .collect();
        let batch = Message::Batch(traced.clone());
        let decoded = Message::decode(&batch.encode()).expect("batch decodes");
        let Message::Batch(got) = decoded else {
            return Err(TestCaseError::fail("batch did not decode to a batch"));
        };
        prop_assert_eq!(&got, &traced);
        for (m, (ctx, inner)) in got.iter().zip(&reqs) {
            let (got_ctx, got_inner) = RtreeWire::take_trace(m.clone());
            prop_assert_eq!(got_ctx, Some(ctx.with_flag(TRACE_FLAG_BATCHED)));
            prop_assert_eq!(&got_inner, inner);
        }

        // Partial retransmit: the unacked tail is re-wrapped with the
        // retransmit flag and coalesced into a fresh, smaller batch.
        let start = split.index(reqs.len());
        let tail: Vec<Message> = reqs[start..]
            .iter()
            .map(|(ctx, inner)| {
                RtreeWire::traced(
                    ctx.with_flag(TRACE_FLAG_BATCHED).with_flag(TRACE_FLAG_RETRANSMIT),
                    inner.clone(),
                )
            })
            .collect();
        let redecoded =
            Message::decode(&Message::Batch(tail).encode()).expect("retransmit batch decodes");
        let Message::Batch(got_tail) = redecoded else {
            return Err(TestCaseError::fail("retransmit did not decode to a batch"));
        };
        prop_assert_eq!(got_tail.len(), reqs.len() - start);
        for (m, (ctx, inner)) in got_tail.into_iter().zip(&reqs[start..]) {
            let (got_ctx, got_inner) = RtreeWire::take_trace(m);
            let got_ctx = got_ctx.expect("context survives retransmit");
            prop_assert_eq!(got_ctx.trace_id, ctx.trace_id);
            prop_assert_eq!(got_ctx.parent_span, ctx.parent_span);
            prop_assert!(got_ctx.flags & TRACE_FLAG_RETRANSMIT != 0);
            prop_assert_eq!(&got_inner, inner);
        }
    }
}

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

mod span_trees {
    use super::*;
    use catfish_core::obs::{SpanKind, TraceAssembler, SERVER_NODE_BASE};

    /// Asserts the run's spans assemble into exactly one connected tree
    /// per completed request, each rooted in a client-side `Request` span.
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
            assert_eq!(root.kind, SpanKind::Request);
            assert!(
                root.node < SERVER_NODE_BASE,
                "roots are client-side (node {})",
                root.node
            );
        }
        // Fast-messaging requests must carry server-side spans linked
        // through the wire context (offloaded ones legitimately have
        // none), and the workload never offloads everything.
        let server_spans = r
            .spans
            .iter()
            .filter(|s| s.node >= SERVER_NODE_BASE)
            .count();
        assert!(server_spans > 0, "no server-side spans were stitched in");
    }

    #[test]
    fn single_shard_traces_are_connected() {
        assert_connected(&traced_spec(8, 1, None));
    }

    #[test]
    fn single_shard_traces_survive_chaos() {
        assert_connected(&traced_spec(8, 1, Some(chaos())));
    }

    #[test]
    fn four_shard_scatter_gather_traces_are_connected() {
        // Wide window queries (1e-2 of the space) span the x-partition,
        // so requests genuinely scatter over multiple shards.
        let mut spec = traced_spec(8, 4, None);
        spec.trace = TraceSpec::search_only(ScaleDist::large(), 40);
        assert_connected(&spec);
        // Scatter-gather structure: some request fanned out over RPC legs
        // to multiple shards and merged.
        let r = run_experiment(&spec);
        let asm = TraceAssembler::assemble(&r.spans);
        let scattered = asm
            .traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.kind == SpanKind::Rpc))
            .count();
        assert!(scattered > 0, "no request scattered across shards");
        let merged = asm
            .traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.kind == SpanKind::Merge))
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
}
