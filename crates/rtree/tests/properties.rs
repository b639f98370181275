//! Property-based tests for the R*-tree, the STR bulk loader, and the
//! versioned chunk codec.

use catfish_rtree::chunk::ChunkStore;
use catfish_rtree::codec::{ChunkLayout, CodecError, RemoteLayout, LINE_BYTES};
use catfish_rtree::{
    bulk_load, Entry, MemStore, Node, NodeStore, RTree, RTreeConfig, Rect, TreeMeta,
};
use proptest::prelude::*;

/// A generated item: rectangle corners in [0, 100).
fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..5.0, 0.0f64..5.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_items(max: usize) -> impl Strategy<Value = Vec<(Rect, u64)>> {
    prop::collection::vec(arb_rect(), 1..max).prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i as u64))
            .collect()
    })
}

fn small_config() -> RTreeConfig {
    RTreeConfig {
        max_entries: 5,
        min_entries: 2,
        reinsert_count: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of inserts, the tree satisfies every structural
    /// invariant and a full-space search returns every item exactly once.
    #[test]
    fn inserts_preserve_invariants(items in arb_items(120)) {
        let mut tree = RTree::new(MemStore::new(), small_config());
        for (r, d) in &items {
            tree.insert(*r, *d);
        }
        tree.check_invariants().unwrap();
        let mut all = tree.search(&Rect::new(-1.0, -1.0, 200.0, 200.0));
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..items.len() as u64).collect();
        expect.sort_unstable();
        prop_assert_eq!(all, expect);
    }

    /// Search agrees with a linear scan for arbitrary queries.
    #[test]
    fn search_equals_linear_scan(items in arb_items(100), q in arb_rect()) {
        let mut tree = RTree::new(MemStore::new(), small_config());
        for (r, d) in &items {
            tree.insert(*r, *d);
        }
        let mut got = tree.search(&q);
        got.sort_unstable();
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(r, _)| r.intersects(&q))
            .map(|(_, d)| *d)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Deleting a random subset leaves exactly the complement, with
    /// invariants intact after every removal.
    #[test]
    fn delete_subset_leaves_complement(
        items in arb_items(80),
        seed in any::<u64>(),
    ) {
        let mut tree = RTree::new(MemStore::new(), small_config());
        for (r, d) in &items {
            tree.insert(*r, *d);
        }
        let mut rng = seed;
        let mut removed = Vec::new();
        for (r, d) in &items {
            // xorshift for a deterministic coin flip
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng.is_multiple_of(2) {
                prop_assert!(tree.delete(r, *d));
                tree.check_invariants().unwrap();
                removed.push(*d);
            }
        }
        let mut rest = tree.search(&Rect::new(-1.0, -1.0, 200.0, 200.0));
        rest.sort_unstable();
        let mut expect: Vec<u64> = items
            .iter()
            .map(|(_, d)| *d)
            .filter(|d| !removed.contains(d))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(rest, expect);
    }

    /// Bulk loading produces a valid tree whose query results match
    /// incremental insertion.
    #[test]
    fn bulk_load_matches_incremental(items in arb_items(150), q in arb_rect()) {
        let bulk = bulk_load(MemStore::new(), RTreeConfig::default(), items.clone());
        bulk.check_invariants().unwrap();
        let mut incr = RTree::new(MemStore::new(), RTreeConfig::default());
        for (r, d) in &items {
            incr.insert(*r, *d);
        }
        let mut a = bulk.search(&q);
        let mut b = incr.search(&q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The chunk store's struct-of-arrays bitmask search and the
    /// in-memory store's scalar entry scan are the same function: same
    /// hit set **and same emission order** for any insert sequence and
    /// query. Searches are also probed mid-build, so the identity holds
    /// across splits and forced reinsertions (every `structure_version`
    /// bump an offloading client would have to retry through).
    #[test]
    fn soa_search_matches_aos_search(items in arb_items(120), q in arb_rect()) {
        let cfg = small_config();
        let layout = ChunkLayout::for_max_entries(cfg.max_entries);
        let mut aos = RTree::new(MemStore::new(), cfg);
        let mut soa = RTree::new(
            ChunkStore::new(vec![0u8; layout.arena_bytes(2048)], layout),
            cfg,
        );
        let mut version_probes = 0u32;
        for (i, (r, d)) in items.iter().enumerate() {
            aos.insert(*r, *d);
            soa.insert(*r, *d);
            // The arena also bumps before every upper node write.
            prop_assert!(
                soa.store().meta().structure_version >= aos.store().meta().structure_version
            );
            // Probe right after reorganizations and periodically between.
            if soa.store().meta().structure_version as usize > version_probes as usize
                || i.is_multiple_of(17)
            {
                version_probes = soa.store().meta().structure_version as u32;
                prop_assert_eq!(soa.search(&q), aos.search(&q));
            }
        }
        // Ids AND geometry, in identical order.
        let (mut a, mut s) = (Vec::new(), Vec::new());
        aos.search_items_into(&q, &mut a);
        soa.search_items_into(&q, &mut s);
        prop_assert_eq!(s, a);
        let everything = Rect::new(-1.0, -1.0, 200.0, 200.0);
        prop_assert_eq!(soa.search(&everything), aos.search(&everything));
    }

    /// Node chunks round-trip through the versioned cache-line codec.
    #[test]
    fn codec_node_round_trip(
        rects in prop::collection::vec(arb_rect(), 0..16),
        version in any::<u64>(),
        level in 0u32..3,
    ) {
        let layout = ChunkLayout::for_max_entries(16);
        let entries: Vec<Entry> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if level == 0 {
                    Entry::data(*r, i as u64)
                } else {
                    Entry::node(*r, catfish_rtree::NodeId(i as u32 + 1))
                }
            })
            .collect();
        let node = Node { level, entries };
        let chunk = layout.encode_node(&node, version);
        let (back, v) = layout.decode_node(&chunk).unwrap();
        prop_assert_eq!(back, node);
        prop_assert_eq!(v, version);
    }

    /// Any single corrupted line version is detected as a torn read.
    #[test]
    fn codec_detects_any_torn_line(
        line in 0usize..12,
        delta in 1u64..1000,
    ) {
        let layout = ChunkLayout::for_max_entries(16);
        let node = Node {
            level: 0,
            entries: vec![Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 9)],
        };
        let version = 500u64;
        let mut chunk = layout.encode_node(&node, version);
        let at = line * LINE_BYTES;
        chunk[at..at + 8].copy_from_slice(&(version + delta).to_le_bytes());
        if line == 0 {
            // Corrupting line 0 changes the reference version; some other
            // line conflicts instead.
            let torn = matches!(
                layout.decode_node(&chunk),
                Err(CodecError::TornRead { .. })
            );
            prop_assert!(torn);
        } else {
            prop_assert_eq!(
                layout.decode_node(&chunk),
                Err(CodecError::TornRead {
                    first: version,
                    conflicting: version + delta
                })
            );
        }
    }

    /// Metadata round-trips for arbitrary contents.
    #[test]
    fn codec_meta_round_trip(
        root in prop::option::of(0u32..10_000),
        len in any::<u64>(),
        version in any::<u64>(),
    ) {
        let layout = ChunkLayout::for_max_entries(16);
        let meta = TreeMeta {
            root: root.map(catfish_rtree::NodeId),
            height: if root.is_some() { 3 } else { 0 },
            len,
            structure_version: len % 97,
        };
        let mut chunk = Vec::new();
        layout.encode_meta_into(&meta, version, &mut chunk);
        prop_assert_eq!(layout.decode_meta(&chunk).unwrap(), (meta, version));
    }
}
