//! One property test of the versioned chunk arena, run under both chunk
//! formats: the R-tree's `ChunkLayout` and the B+-tree's `BpLayout`. It
//! lives in this crate because this crate sees both.
//!
//! Random alloc / free / write / `set_meta` sequences run against a model
//! of the arena. Afterwards the store, and a copy rebuilt by `from_parts`
//! from the used chunk prefix and `allocator_state()`, must both hold every
//! live node, the metadata and the allocator state, and must go on
//! identically. Freeing a free, unallocated or metadata chunk must panic.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use catfish_bplus::{BpLayout, BpNode, BpRefs};
use catfish_rtree::chunk::{ChunkArena, ChunkStore};
use catfish_rtree::codec::{ChunkLayout, RemoteLayout};
use catfish_rtree::{Entry, Node, NodeId, Rect, TreeMeta};
use proptest::prelude::*;

/// Chunks in each arena: metadata plus 23 nodes, so long sequences fill it.
const CHUNKS: u32 = 24;

/// One arena operation. An index picks among the live chunks, modulo
/// their count; a seed draws the node or metadata written.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    Free(usize),
    Write(usize, u64),
    SetMeta(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Twice, so the arena tends to grow.
        any::<u8>().prop_map(|_| Op::Alloc),
        any::<u8>().prop_map(|_| Op::Alloc),
        any::<usize>().prop_map(Op::Free),
        (any::<usize>(), any::<u64>()).prop_map(|(i, seed)| Op::Write(i, seed)),
        any::<u64>().prop_map(Op::SetMeta),
    ]
}

/// Word `i` drawn from `seed` (SplitMix64).
fn draw(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A leaf or internal R-tree node of up to 8 entries.
fn rtree_node(seed: u64) -> Node {
    let mut node = Node::new((seed % 3) as u32);
    for i in 0..draw(seed, 0) % 9 {
        let x = (draw(seed, 2 * i + 1) % 1000) as f64;
        let y = (draw(seed, 2 * i + 2) % 1000) as f64;
        let rect = Rect::new(x, y, x + 1.5, y + 0.5);
        let child = draw(seed, 100 + i);
        node.entries.push(if node.level == 0 {
            Entry::data(rect, child >> 1)
        } else {
            Entry::node(rect, NodeId(child as u32))
        });
    }
    node
}

/// A leaf (with or without a next link) or an internal B+ node of up to 8
/// strictly increasing keys.
fn bp_node(seed: u64) -> BpNode {
    let mut key = 0;
    let keys: Vec<u64> = (0..draw(seed, 0) % 9)
        .map(|i| {
            key += 1 + draw(seed, i + 1) % 100;
            key
        })
        .collect();
    if seed.is_multiple_of(2) {
        BpNode {
            level: 0,
            refs: BpRefs::Values(keys.iter().map(|&k| draw(seed, k)).collect()),
            keys,
            next: seed
                .is_multiple_of(4)
                .then(|| NodeId(draw(seed, 50) as u32 >> 1)),
        }
    } else {
        // An internal node has at least one key.
        let keys = if keys.is_empty() { vec![7] } else { keys };
        BpNode {
            level: 1 + (seed % 3) as u32,
            refs: BpRefs::Children(
                (0..=keys.len() as u64)
                    .map(|i| NodeId(draw(seed, 60 + i) as u32))
                    .collect(),
            ),
            keys,
            next: None,
        }
    }
}

/// Runs `ops` on an arena of format `layout` and checks it against the
/// model, and a `from_parts` copy of it too.
fn check_arena<C: RemoteLayout>(
    layout: C,
    ops: &[Op],
    node: impl Fn(u64) -> C::Node,
) -> Result<(), TestCaseError>
where
    C::Node: PartialEq,
{
    let mut store = ChunkStore::new(vec![0u8; layout.arena_bytes(CHUNKS)], layout);
    // The model: each allocated chunk's last written node (a reused chunk
    // keeps its old node until written), the live chunks, the allocator
    // and the metadata.
    let mut contents: HashMap<u32, C::Node> = HashMap::new();
    let mut live: Vec<u32> = Vec::new();
    let (mut next, mut free) = (1u32, Vec::new());
    let mut meta = TreeMeta::default();
    for op in ops {
        match *op {
            Op::Alloc if next < CHUNKS || !free.is_empty() => {
                let expect = free.pop().unwrap_or_else(|| {
                    contents.insert(next, C::Node::default());
                    next += 1;
                    next - 1
                });
                prop_assert_eq!(store.alloc(), NodeId(expect));
                live.push(expect);
            }
            Op::Free(i) if !live.is_empty() => {
                let id = live.swap_remove(i % live.len());
                store.free(NodeId(id));
                free.push(id);
            }
            Op::Write(i, seed) if !live.is_empty() => {
                let id = live[i % live.len()];
                store.write(NodeId(id), &node(seed));
                contents.insert(id, node(seed));
            }
            Op::SetMeta(seed) => {
                let root = live.first().map(|&id| NodeId(id));
                meta = TreeMeta {
                    root,
                    height: root.map_or(0, |_| 1 + (seed % 4) as u32),
                    len: seed,
                    structure_version: seed >> 3,
                };
                store.set_meta(meta);
            }
            _ => {}
        }
    }

    let (copy_next, copy_free) = store.allocator_state();
    let used = layout.arena_bytes(copy_next);
    let mut bytes = vec![0u8; store.mem().len()];
    bytes[..used].copy_from_slice(&store.mem()[..used]);
    let mut copy = ChunkStore::from_parts(bytes, layout, copy_next, copy_free)
        .expect("a live store's parts reopen");
    for s in [&store, &copy] {
        for &id in &live {
            prop_assert_eq!(s.read(NodeId(id)), contents[&id].clone(), "chunk {}", id);
        }
        prop_assert_eq!(s.meta(), meta);
        prop_assert_eq!(s.allocator_state(), (next, free.clone()));
        prop_assert_eq!(s.node_count(), live.len());
    }

    // Versions were recovered from the line stamps, so the two go on
    // writing identical bytes.
    if let Some(&id) = live.first() {
        store.write(NodeId(id), &node(!0));
        copy.write(NodeId(id), &node(!0));
    }
    store.set_meta(meta);
    copy.set_meta(meta);
    prop_assert!(store.mem() == copy.mem(), "the copy diverged");

    let state = store.allocator_state();
    for id in free.iter().copied().chain([0, next]) {
        let freed = catch_unwind(AssertUnwindSafe(|| store.free(NodeId(id))));
        prop_assert!(freed.is_err(), "freeing chunk {} must panic", id);
    }
    prop_assert_eq!(store.allocator_state(), state);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rtree_arena_matches_the_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        check_arena(ChunkLayout::for_max_entries(8), &ops, rtree_node)?;
    }

    #[test]
    fn bplus_arena_matches_the_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        check_arena(BpLayout::for_max_keys(8), &ops, bp_node)?;
    }
}
