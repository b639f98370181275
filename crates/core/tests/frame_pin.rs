//! Pins the ring's wire bytes: one frame of every kind the R-tree service
//! sends, hashed with FNV-1a, and the length of every KV frame kind. A
//! codec refactor must leave this file passing unedited: the simulated
//! network charges for every byte, so a frame that changes length moves
//! every virtual-time figure that carries it.

use catfish_core::kv::{KvMessage, KvWire};
use catfish_core::msg::{Message, RtreeWire};
use catfish_core::service::{Frame, HeartbeatInfo, ReplEnvelope};
use catfish_rtree::Rect;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn info() -> HeartbeatInfo {
    HeartbeatInfo {
        util_permille: 420,
        wb_fixed_ns: 300,
        wb_per_kb_ns: 40,
        fetch_fixed_ns: 100,
        fetch_per_kb_ns: 90,
    }
}

fn env() -> ReplEnvelope {
    ReplEnvelope {
        link_seq: 9,
        origin: 0xABCD,
        op_id: 99,
        epoch: 3,
        flags: ReplEnvelope::FORWARDED,
    }
}

fn rtree_frames() -> Vec<(&'static str, Vec<u8>)> {
    let rect = Rect::new(0.125, 0.25, 0.375, 0.5);
    let hit = (Rect::new(0.5, 0.5, 0.75, 0.625), 41);
    let search = |seq| Message::SearchReq { seq, rect };
    let insert = |seq| Message::InsertReq {
        seq,
        rect,
        data: 0xDEAD_BEEF,
    };
    let nearest = |seq| Message::NearestReq {
        seq,
        x: 0.5,
        y: 0.25,
        k: 8,
    };
    let msg = |m: Message| Frame::Msg(m).encode::<RtreeWire>();
    vec![
        ("search", msg(search(1))),
        ("insert", msg(insert(2))),
        (
            "delete",
            msg(Message::DeleteReq {
                seq: 3,
                rect,
                data: 7,
            }),
        ),
        ("nearest", msg(nearest(4))),
        (
            "cont",
            msg(Message::ResponseCont {
                seq: 5,
                results: vec![hit, (rect, 42)],
            }),
        ),
        (
            "end",
            msg(Message::ResponseEnd {
                seq: 6,
                results: vec![hit],
                status: 1,
            }),
        ),
        (
            "heartbeat",
            Frame::<Message>::Heartbeat(info()).encode::<RtreeWire>(),
        ),
        (
            "batch",
            Frame::Batch(vec![search(7), nearest(8)]).encode::<RtreeWire>(),
        ),
        (
            "replicated",
            Frame::Replicated {
                env: env(),
                inner: insert(10),
            }
            .encode::<RtreeWire>(),
        ),
    ]
}

fn kv_frames() -> Vec<(&'static str, Vec<u8>)> {
    let get = |seq| KvMessage::GetReq { seq, key: 11 };
    let msg = |m: KvMessage| Frame::Msg(m).encode::<KvWire>();
    vec![
        ("get", msg(get(1))),
        (
            "put",
            msg(KvMessage::PutReq {
                seq: 2,
                key: 12,
                value: 13,
            }),
        ),
        ("remove", msg(KvMessage::RemoveReq { seq: 3, key: 14 })),
        (
            "range",
            msg(KvMessage::RangeReq {
                seq: 4,
                lo: 15,
                hi: 16,
            }),
        ),
        (
            "cont",
            msg(KvMessage::RespCont {
                seq: 5,
                entries: vec![(1, 2), (3, 4)],
            }),
        ),
        (
            "end",
            msg(KvMessage::RespEnd {
                seq: 6,
                entries: vec![(5, 6)],
                status: 1,
            }),
        ),
        (
            "heartbeat",
            Frame::<KvMessage>::Heartbeat(info()).encode::<KvWire>(),
        ),
        (
            "batch",
            Frame::Batch(vec![get(7), get(8)]).encode::<KvWire>(),
        ),
        (
            "replicated",
            Frame::Replicated {
                env: env(),
                inner: KvMessage::PutReq {
                    seq: 10,
                    key: 17,
                    value: 18,
                },
            }
            .encode::<KvWire>(),
        ),
    ]
}

#[test]
fn rtree_frame_bytes_are_pinned() {
    let got: Vec<(&str, usize, u64)> = rtree_frames()
        .into_iter()
        .map(|(kind, bytes)| (kind, bytes.len(), fnv1a(&bytes)))
        .collect();
    let want: Vec<(&str, usize, u64)> = vec![
        ("search", 37, 0xe9ab_f059_527a_c345),
        ("insert", 45, 0xaef8_d42f_e1f0_0b81),
        ("delete", 45, 0x9ea0_b192_5598_d3be),
        ("nearest", 25, 0x01ae_54a8_0a5e_c81a),
        ("cont", 89, 0x97b6_356b_6255_7ca3),
        ("end", 53, 0x22d3_3c87_b34e_d6cb),
        ("heartbeat", 19, 0xc02b_f8ca_d57c_7c0f),
        ("batch", 75, 0x8a67_d376_2c88_e766),
        ("replicated", 75, 0x9c43_13cd_7038_76a7),
    ];
    assert_eq!(got, want);
}

#[test]
fn kv_frame_lengths_are_pinned() {
    let got: Vec<(&str, usize)> = kv_frames()
        .into_iter()
        .map(|(kind, bytes)| (kind, bytes.len()))
        .collect();
    let want: Vec<(&str, usize)> = vec![
        ("get", 13),
        ("put", 21),
        ("remove", 13),
        ("range", 21),
        ("cont", 41),
        ("end", 29),
        ("heartbeat", 19),
        ("batch", 39),
        ("replicated", 51),
    ];
    assert_eq!(got, want);
}
