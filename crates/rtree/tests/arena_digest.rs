//! Golden digests of a chunk arena after a server-shaped write history.
//!
//! Bulk-loads 50k uniform rectangles at fanout 88 (the server's layout)
//! into a `ChunkStore<Vec<u8>>` and applies 5k skewed inserts with a
//! delete after every tenth. Two digests are pinned:
//!
//! - the decoded nodes (every node's id, level and entries in order, in
//!   depth-first order from the root), the tree metadata and the allocator
//!   state. Any change to choose-subtree, reinsertion, splitting or
//!   condensing moves it, and a change to the chunk encoding alone does
//!   not;
//! - the arena bytes with the same metadata and allocator state, which
//!   the chunk encoding moves too.
//!
//! Host-side optimisations of the write path must leave both unchanged.

use catfish_rtree::chunk::ChunkStore;
use catfish_rtree::codec::ChunkLayout;
use catfish_rtree::{bulk_load, EntryRef, NodeStore, RTree, RTreeConfig};
use catfish_workload::{skewed_insert_rect, uniform_rects, ScaleDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The tree after the pinned write history.
fn history() -> RTree<ChunkStore<Vec<u8>>> {
    const BULK: usize = 50_000;
    const INSERTS: u64 = 5_000;
    const DELETE_EVERY: u64 = 10;

    let config = RTreeConfig::with_max_entries(88);
    let layout = ChunkLayout::for_max_entries(config.max_entries);
    let dataset = uniform_rects(BULK, 1e-4, 42);
    let mut tree = bulk_load(
        ChunkStore::new(vec![0u8; layout.arena_bytes(2048)], layout),
        config,
        dataset.clone(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut deleted = 0;
    for i in 0..INSERTS {
        let rect = skewed_insert_rect(&mut rng, &ScaleDist::power_law());
        tree.insert(rect, (1 << 40) + i);
        if i % DELETE_EVERY == DELETE_EVERY - 1 {
            // 97 is coprime with 50k, so every victim is distinct.
            let (r, d) = dataset[(i / DELETE_EVERY * 97) as usize % BULK];
            assert!(tree.delete(&r, d), "bulk item {d} present");
            deleted += 1;
        }
    }
    assert_eq!(deleted, 500);
    tree.check_invariants().expect("tree stays valid");
    assert_eq!(tree.len(), BULK as u64 + INSERTS - deleted);
    tree
}

/// Hashes the tree metadata and the allocator state, and checks the
/// tree's shape.
fn hash_meta(h: &mut Fnv, store: &ChunkStore<Vec<u8>>) {
    let meta = store.meta();
    let (next, free) = store.allocator_state();
    h.word(meta.root.map_or(u64::MAX, |id| u64::from(id.0)));
    h.word(u64::from(meta.height));
    h.word(meta.len);
    h.word(meta.structure_version);
    h.word(u64::from(next));
    for f in free {
        h.word(u64::from(f));
    }
    assert_eq!(
        (meta.height, meta.structure_version, next),
        (3, 547, 749),
        "tree shape"
    );
}

#[test]
fn arena_bytes_match_golden_digest() {
    let tree = history();
    let store = tree.store();
    let mut h = Fnv::new();
    h.bytes(store.mem());
    hash_meta(&mut h, store);
    assert_eq!(h.0, 0x1831_DDF1_4B59_6D21, "arena digest");
}

#[test]
fn decoded_nodes_match_golden_digest() {
    let tree = history();
    let store = tree.store();
    let mut h = Fnv::new();
    let mut stack: Vec<_> = store.meta().root.into_iter().collect();
    while let Some(id) = stack.pop() {
        let node = store.read(id);
        h.word(u64::from(id.0));
        h.word(u64::from(node.level));
        h.word(node.entries.len() as u64);
        for e in &node.entries {
            for c in [e.mbr.min_x(), e.mbr.min_y(), e.mbr.max_x(), e.mbr.max_y()] {
                h.word(c.to_bits());
            }
            match e.child {
                EntryRef::Node(child) => {
                    h.word(u64::from(child.0));
                    stack.push(child);
                }
                EntryRef::Data(d) => h.word(d | 1 << 63),
            }
        }
    }
    hash_meta(&mut h, store);
    assert_eq!(h.0, 0x359E_A479_84FC_703B, "decoded-node digest");
}
