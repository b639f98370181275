//! Golden digest of the KV service's chunk arena after a write history.
//!
//! Runs a seeded history of inserts (many of them overwrites) and removes
//! through a `BpTree` over a `Vec<u8>` arena at the default `BpConfig`,
//! enough removes to merge nodes and free chunks that later inserts reuse,
//! and pins a hash of the arena bytes, the tree metadata and the
//! allocator state. Any change to splitting, merging, the allocator or the
//! chunk encoding moves the digest, so refactors of the KV store must
//! leave it unchanged. The B+ twin of `crates/rtree/tests/arena_digest.rs`.

use std::collections::BTreeMap;

use catfish_bplus::{BpChunkStore, BpConfig, BpLayout, BpStore, BpTree};
use catfish_rtree::codec::RemoteLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn arena_bytes_match_golden_digest() {
    const KEYS: u64 = 12_000;
    const ROUNDS: usize = 3;
    const INSERTS: usize = 10_000;
    const REMOVES: usize = 8_000;

    let config = BpConfig::default();
    let layout = BpLayout::for_max_keys(config.max_keys);
    let arena = vec![0u8; RemoteLayout::arena_bytes(&layout, 2048)];
    let mut tree = BpTree::new(BpChunkStore::new(arena, layout), config);
    let mut model = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(11);
    let (mut overwrites, mut removed) = (0, 0);
    for round in 0..ROUNDS {
        for i in 0..INSERTS {
            let key = rng.gen_range(0..KEYS);
            let value = (round * INSERTS + i) as u64;
            let old = tree.insert(key, value);
            assert_eq!(old, model.insert(key, value), "insert {key}");
            overwrites += usize::from(old.is_some());
        }
        // Chunks freed by the previous round's removes come back first.
        let (_, free) = tree.store().allocator_state();
        assert!(
            round == 0 || free.is_empty(),
            "round {round} reuses every freed chunk"
        );
        for _ in 0..REMOVES {
            let key = rng.gen_range(0..KEYS);
            let old = tree.remove(key);
            assert_eq!(old, model.remove(&key), "remove {key}");
            removed += usize::from(old.is_some());
        }
        let (_, free) = tree.store().allocator_state();
        assert!(!free.is_empty(), "round {round} frees chunks");
    }
    tree.check_invariants().expect("tree stays valid");
    assert_eq!(tree.len(), model.len() as u64);
    assert_eq!(
        tree.range(0, u64::MAX),
        model.into_iter().collect::<Vec<_>>()
    );

    let store = tree.store();
    let meta = BpStore::meta(store);
    let (next, free) = store.allocator_state();
    let mut h = Fnv::new();
    h.bytes(store.mem());
    h.word(meta.root.map_or(u64::MAX, |id| u64::from(id.index())));
    h.word(u64::from(meta.height));
    h.word(meta.len);
    h.word(meta.structure_version);
    h.word(u64::from(next));
    for &f in &free {
        h.word(u64::from(f));
    }
    assert_eq!(
        (overwrites, removed, meta.height, next, free.len()),
        (14_032, 11_536, 2, 101, 44),
        "history shape"
    );
    assert_eq!(h.0, 0xC6B5_D26F_FB7E_BB5E, "arena digest");
}
