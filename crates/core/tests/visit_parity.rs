//! Visit parity: the offloading client's lane path over validated chunk
//! bytes must match decoding the chunk into a `Node` and expanding it.
//!
//! For any chunk — well-formed or corrupted — the client's fused pass
//! (`RtreeBackend::validate`, which unpacks the chunk into the lane image
//! while checking it) must accept exactly the chunks `decode_node`
//! accepts, with the same level, and the same error otherwise. For an accepted chunk, `RtreeBackend::visit` over the image
//! the fused pass left must produce the same accept/reject decision,
//! items and children, in the same order, as `RtreeBackend::expand` on
//! the decoded node. Offloaded kNN's lane visit (`nearest_entries`) must
//! rank the same entries, in entry order, as the decoded node's.

use catfish_core::client::nearest_entries;
use catfish_core::{ClientBackend, RtreeBackend};
use catfish_rtree::codec::{
    read_packed, write_packed, ChunkLayout, LaneNode, LINE_BYTES, MAX_BITMASK_ENTRIES,
};
use catfish_rtree::{min_dist_sq, Entry, EntryRef, Node, NodeId, Rect};
use proptest::prelude::*;

const DATA_TAG: u64 = 1 << 63;

/// One way to damage an encoded chunk.
#[derive(Debug, Clone)]
enum Corruption {
    /// XOR one byte anywhere in the chunk (version stamps included).
    FlipByte { at: usize, mask: u8 },
    /// Overwrite one coordinate of one entry (NaN, infinity, or a value
    /// that can put min above max).
    Coord {
        entry: usize,
        lane: usize,
        value: f64,
    },
    /// Flip the data tag of one child word.
    FlipTag { entry: usize },
    /// Store a child id above `u32::MAX` (tag bit clear).
    OversizedId { entry: usize, raw: u64 },
    /// Rewrite one header word: 0 = magic, 1 = level, 2 = count.
    Header { word: usize, value: u32 },
    /// Give one cache line a different version stamp.
    LineVersion { line: usize, version: u64 },
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    let coord = prop_oneof![
        (0.0f64..1.0).prop_map(|_| f64::NAN),
        (0.0f64..1.0).prop_map(|_| f64::INFINITY),
        (0.0f64..1.0).prop_map(|_| f64::NEG_INFINITY),
        -20.0f64..20.0,
    ];
    prop_oneof![
        (any::<usize>(), 1u8..255).prop_map(|(at, mask)| Corruption::FlipByte { at, mask }),
        (any::<usize>(), 0usize..4, coord).prop_map(|(entry, lane, value)| Corruption::Coord {
            entry,
            lane,
            value
        }),
        any::<usize>().prop_map(|entry| Corruption::FlipTag { entry }),
        (any::<usize>(), (u64::from(u32::MAX) + 1)..DATA_TAG)
            .prop_map(|(entry, raw)| Corruption::OversizedId { entry, raw }),
        (0usize..3, prop_oneof![0u32..70, any::<u32>()])
            .prop_map(|(word, value)| Corruption::Header { word, value }),
        (any::<usize>(), any::<u64>())
            .prop_map(|(line, version)| Corruption::LineVersion { line, version }),
    ]
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-10.0f64..10.0, -10.0f64..10.0, 0.0f64..6.0, 0.0f64..6.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Logical offset of element `i` of lane `f` (see the codec's SoA layout).
fn lane_off(fanout: usize, f: usize, i: usize) -> usize {
    16 + (f * fanout + i) * 8
}

fn corrupt(chunk: &mut [u8], layout: &ChunkLayout, count: usize, c: &Corruption) {
    let m = layout.max_entries();
    // Damage a live entry when there is one, else any slot.
    let slot = |e: usize| e % count.max(1).min(m);
    match *c {
        Corruption::FlipByte { at, mask } => chunk[at % chunk.len()] ^= mask,
        Corruption::Coord { entry, lane, value } => {
            write_packed(chunk, lane_off(m, lane, slot(entry)), &value.to_le_bytes());
        }
        Corruption::FlipTag { entry } => {
            let off = lane_off(m, 4, slot(entry));
            let raw = u64::from_le_bytes(read_packed::<8>(chunk, off));
            write_packed(chunk, off, &(raw ^ DATA_TAG).to_le_bytes());
        }
        Corruption::OversizedId { entry, raw } => {
            write_packed(chunk, lane_off(m, 4, slot(entry)), &raw.to_le_bytes());
        }
        Corruption::Header { word, value } => {
            let value = if word == 0 {
                value ^ 0x5254_4E44
            } else {
                value
            };
            write_packed(chunk, 4 * word, &value.to_le_bytes());
        }
        Corruption::LineVersion { line, version } => {
            let at = (line % layout.lines()) * LINE_BYTES;
            chunk[at..at + 8].copy_from_slice(&version.to_le_bytes());
        }
    }
}

/// Runs both paths over `chunk` and asserts they agree.
fn assert_parity(layout: &ChunkLayout, chunk: &[u8], query: &Rect, lanes: &mut LaneNode) {
    let decoded = layout.decode_node(chunk);
    let fused = RtreeBackend::validate(layout, chunk, lanes);
    assert_eq!(
        fused,
        decoded.as_ref().map(|(node, _)| node.level).map_err(|e| *e),
        "the fused pass and decode_node disagree"
    );
    let Ok((node, _)) = decoded else {
        return;
    };
    let (mut want_items, mut want_children) = (Vec::new(), Vec::new());
    let want = RtreeBackend::expand(query, &node, &mut want_items, &mut want_children);
    let (mut got_items, mut got_children) = (Vec::new(), Vec::new());
    let got = RtreeBackend::visit(query, lanes, &mut got_items, &mut got_children);
    assert_eq!(got, want);
    assert_eq!(got_items, want_items);
    assert_eq!(got_children, want_children);
}

/// Runs kNN's lane visit over `chunk` and, when the fused pass accepts
/// it, asserts it yields the decoded node's `(min_dist_sq bits, child)`
/// sequence.
fn assert_nearest_parity(
    layout: &ChunkLayout,
    chunk: &[u8],
    (x, y): (f64, f64),
    lanes: &mut LaneNode,
) {
    if RtreeBackend::validate(layout, chunk, lanes).is_err() {
        return;
    }
    let (node, _) = layout
        .decode_node(chunk)
        .expect("the fused pass accepted it");
    let want: Vec<(u64, EntryRef)> = node
        .entries
        .iter()
        .map(|e| (min_dist_sq(&e.mbr, x, y).to_bits(), e.child))
        .collect();
    let got: Vec<(u64, EntryRef)> = nearest_entries(lanes, x, y)
        .map(|e| {
            let (d, _, child) = e.expect("an accepted chunk's children are checked");
            (d.to_bits(), child)
        })
        .collect();
    assert_eq!(got, want);
}

/// A node of up to `fanout` entries at `level`, encoded clean and with
/// `corruption` applied.
fn clean_and_damaged(
    fanout: usize,
    (level, count_seed, version): (u32, u64, u64),
    entries: &[(Rect, u64)],
    corruption: &Corruption,
) -> (ChunkLayout, Vec<u8>, Vec<u8>) {
    let layout = ChunkLayout::for_max_entries(fanout);
    let count = (count_seed as usize % (fanout + 1)).min(entries.len());
    let mut node = Node::new(level);
    for &(mbr, raw) in &entries[..count] {
        node.entries.push(if level == 0 {
            Entry::data(mbr, raw & !DATA_TAG)
        } else {
            Entry::node(mbr, NodeId(raw as u32))
        });
    }
    let clean = layout.encode_node(&node, version);
    let mut damaged = clean.clone();
    corrupt(&mut damaged, &layout, count, corruption);
    (layout, clean, damaged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn lane_visit_matches_decode_and_expand(
        fanout in 1usize..(MAX_BITMASK_ENTRIES + 1),
        shape in (0u32..4, any::<u64>(), any::<u64>()),
        entries in prop::collection::vec((arb_rect(), any::<u64>()), 0..(MAX_BITMASK_ENTRIES + 1)),
        query in arb_rect(),
        corruption in arb_corruption(),
    ) {
        let (layout, clean, damaged) = clean_and_damaged(fanout, shape, &entries, &corruption);
        // One pooled scratch serves both visits, as it does in the client.
        let mut lanes = LaneNode::new();
        assert_parity(&layout, &clean, &query, &mut lanes);
        assert_parity(&layout, &damaged, &query, &mut lanes);
    }

    #[test]
    fn nearest_lane_visit_matches_decode(
        fanout in 1usize..(MAX_BITMASK_ENTRIES + 1),
        shape in (0u32..4, any::<u64>(), any::<u64>()),
        entries in prop::collection::vec((arb_rect(), any::<u64>()), 0..(MAX_BITMASK_ENTRIES + 1)),
        query in arb_rect(),
        corruption in arb_corruption(),
    ) {
        let (layout, clean, damaged) = clean_and_damaged(fanout, shape, &entries, &corruption);
        // The query window's two corners are the query points.
        let mut lanes = LaneNode::new();
        for point in [(query.min_x(), query.min_y()), (query.max_x(), query.max_y())] {
            assert_nearest_parity(&layout, &clean, point, &mut lanes);
            assert_nearest_parity(&layout, &damaged, point, &mut lanes);
        }
    }
}
