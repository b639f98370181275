//! Property-based tests of the wire protocol: [`Frame`] round-trips for
//! *both* service message sets (R-tree and KV) through one generic
//! property, and ring-buffer stream integrity under arbitrary payload
//! sequences.

use std::fmt::Debug;

use catfish_core::conn::{establish, RkeyAllocator};
use catfish_core::kv::{KvMessage, KvWire};
use catfish_core::msg::{Message, RtreeWire};
use catfish_core::service::{Frame, HeartbeatInfo, ReplEnvelope, WireCodec};
use catfish_rdma::{Endpoint, RdmaProfile};
use catfish_rtree::Rect;
use catfish_simnet::{LinkSpec, Network, Sim, SimDuration};
use proptest::prelude::*;

/// The single round-trip law every frame must satisfy: decode(encode(f))
/// reproduces f exactly, whichever backend's message set f carries.
fn assert_codec_round_trips<W: WireCodec>(frame: Frame<W::Message>)
where
    W::Message: PartialEq + Debug + Clone,
{
    let bytes = frame.encode::<W>();
    let back = Frame::decode::<W>(&bytes).expect("well-formed frame decodes");
    assert_eq!(back, frame);
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_results() -> impl Strategy<Value = Vec<(Rect, u64)>> {
    prop::collection::vec((arb_rect(), any::<u64>()), 0..50)
}

fn arb_heartbeat_info() -> impl Strategy<Value = HeartbeatInfo> {
    (
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(util_permille, wb_fixed_ns, wb_per_kb_ns, fetch_fixed_ns, fetch_per_kb_ns)| {
                HeartbeatInfo {
                    util_permille,
                    wb_fixed_ns,
                    wb_per_kb_ns,
                    fetch_fixed_ns,
                    fetch_per_kb_ns,
                }
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
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
        (any::<u32>(), arb_results())
            .prop_map(|(seq, results)| Message::ResponseCont { seq, results }),
        (any::<u32>(), arb_results(), any::<u32>()).prop_map(|(seq, results, status)| {
            Message::ResponseEnd {
                seq,
                results,
                status,
            }
        }),
    ]
}

fn arb_env() -> impl Strategy<Value = ReplEnvelope> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u8>(),
    )
        .prop_map(|(link_seq, origin, op_id, epoch, flags)| ReplEnvelope {
            link_seq,
            origin,
            op_id,
            epoch,
            flags,
        })
}

/// Every frame kind around arbitrary bare messages of one codec.
fn arb_frame<M: Clone + Debug + 'static, S: Strategy<Value = M> + 'static>(
    msg: fn() -> S,
) -> impl Strategy<Value = Frame<M>> {
    prop_oneof![
        msg().prop_map(Frame::Msg),
        arb_heartbeat_info().prop_map(Frame::Heartbeat),
        prop::collection::vec(msg(), 1..8).prop_map(Frame::Batch),
        (arb_env(), msg()).prop_map(|(env, inner)| Frame::Replicated { env, inner }),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..50)
}

fn arb_kv_message() -> impl Strategy<Value = KvMessage> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(seq, key)| KvMessage::GetReq { seq, key }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(seq, key, value)| KvMessage::PutReq { seq, key, value }),
        (any::<u32>(), any::<u64>()).prop_map(|(seq, key)| KvMessage::RemoveReq { seq, key }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(seq, lo, hi)| KvMessage::RangeReq {
            seq,
            lo,
            hi
        }),
        (any::<u32>(), arb_entries())
            .prop_map(|(seq, entries)| KvMessage::RespCont { seq, entries }),
        (any::<u32>(), arb_entries(), any::<u32>()).prop_map(|(seq, entries, status)| {
            KvMessage::RespEnd {
                seq,
                entries,
                status,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every R-tree message's encoded_len is exact, and every R-tree
    /// frame round-trips.
    #[test]
    fn rtree_codec_round_trips(msg in arb_message(), frame in arb_frame(arb_message)) {
        prop_assert_eq!(msg.encode().len(), msg.encoded_len());
        assert_codec_round_trips::<RtreeWire>(frame);
    }

    /// Every KV frame round-trips.
    #[test]
    fn kv_codec_round_trips(frame in arb_frame(arb_kv_message)) {
        assert_codec_round_trips::<KvWire>(frame);
    }

    /// Decoding a frame never panics on arbitrary bytes — for either codec.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = Frame::decode::<RtreeWire>(&bytes);
        let _ = Frame::decode::<KvWire>(&bytes);
    }

    /// An arbitrary sequence of payloads pushed through a (small) ring
    /// arrives complete, in order, and uncorrupted — regardless of sizes,
    /// wraps, or backpressure stalls.
    #[test]
    fn ring_stream_integrity(
        payload_sizes in prop::collection::vec(1usize..300, 1..60),
        ring_kb in 1usize..4,
    ) {
        let sim = Sim::new();
        let sizes = payload_sizes.clone();
        sim.run_until(async move {
            let net = Network::new();
            let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
            let a = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
            let b = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
            let rkeys = RkeyAllocator::new();
            let (ca, sb) = establish(&a, &b, ring_kb * 1024, &rkeys);
            let sender_sizes = sizes.clone();
            let sender = catfish_simnet::spawn(async move {
                for (i, len) in sender_sizes.into_iter().enumerate() {
                    let mut payload = vec![(i % 251) as u8; len];
                    payload[0] = (i % 256) as u8;
                    ca.tx.send(&payload, i as u32).await.unwrap();
                }
            });
            for (i, len) in sizes.into_iter().enumerate() {
                let msg = sb.rx.wait_message().await;
                assert_eq!(msg.len(), len, "message {i} length");
                assert_eq!(msg[0], (i % 256) as u8, "message {i} order marker");
                assert!(
                    msg[1..].iter().all(|&b| b == (i % 251) as u8),
                    "message {i} body corrupt"
                );
            }
            sender.await;
        });
    }

    /// A doorbell batch posted at an arbitrary ring offset — priming the
    /// tail with a message of arbitrary size first, so batches straddle
    /// the `WRAP_MARKER` boundary at every capacity/offset combination —
    /// arrives complete, in order, and uncorrupted, even when the batch
    /// must be split across multiple capacity-bounded posts.
    #[test]
    fn batched_sends_straddle_wrap_marker(
        prime in 1usize..700,
        payload_sizes in prop::collection::vec(1usize..200, 2..12),
        ring_kb in 1usize..3,
    ) {
        let sim = Sim::new();
        let sizes = payload_sizes.clone();
        sim.run_until(async move {
            let net = Network::new();
            let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
            let a = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
            let b = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
            let rkeys = RkeyAllocator::new();
            let (ca, sb) = establish(&a, &b, ring_kb * 1024, &rkeys);
            // Prime: advance the ring tail to an arbitrary offset.
            ca.tx.send(&vec![0xAA; prime], 0).await.unwrap();
            assert_eq!(sb.rx.wait_message().await.len(), prime);
            let payloads: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let mut p = vec![(i % 251) as u8; len];
                    p[0] = (i % 256) as u8;
                    p
                })
                .collect();
            let expect = payloads.clone();
            let sender = catfish_simnet::spawn(async move {
                assert!(ca.tx.send_batch(&payloads, 7).await.unwrap() >= 1);
            });
            for (i, want) in expect.iter().enumerate() {
                let got = sb.rx.wait_message().await;
                assert_eq!(&got, want, "batched message {i}");
            }
            sender.await;
            assert!(sb.rx.try_pop().is_none(), "no trailing bytes after batch");
        });
    }
}
