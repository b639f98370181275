//! The R-tree arena's per-level line bounds. The metadata line carries,
//! per level, the most lines any node at that level has used, and an
//! offloading client reads each node chunk only that far. So every live
//! node must fit its level's bound as chunk 0 holds it: after any mix of
//! inserts and deletes (splits, forced reinsertion and condensing
//! included), in a backup that starts as a byte copy of the arena, in a
//! copy rebuilt from its parts, and in a member healed by repair.

use catfish_core::config::{ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::{CatfishCluster, RtreeBackend};
use catfish_rdma::profile::infiniband_100g;
use catfish_rtree::chunk::{ChunkMemory, ChunkStore};
use catfish_rtree::codec::{lines_for, LevelLines, LINE_BYTES};
use catfish_rtree::{EntryRef, NodeStore, RTreeConfig, Rect};
use catfish_simnet::{Network, Sim};
use catfish_workload::uniform_rects;
use proptest::prelude::*;

/// Preloaded items: at fanout 16, a three-level tree.
const N: usize = 600;

/// One mutation: an insert at a drawn point (into a small hot square
/// when `hot`, so leaves there split and reinsert), or the delete of the
/// live item a draw picks (so nodes underflow and condense).
#[derive(Debug, Clone)]
enum Op {
    Insert { x: f64, y: f64, hot: bool },
    Delete(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..1.0, 0.0f64..1.0, any::<bool>()).prop_map(|(x, y, hot)| Op::Insert { x, y, hot }),
        any::<usize>().prop_map(Op::Delete),
    ]
}

/// Applies `ops` to `ix`, keeping `live` (its items) in step.
fn apply(ix: &mut RtreeBackend, live: &mut Vec<(Rect, u64)>, ops: &[Op], first_id: u64) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert { x, y, hot } => {
                let (x, y) = if hot {
                    (0.4 + x * 0.01, 0.4 + y * 0.01)
                } else {
                    (x, y)
                };
                let rect = Rect::new(x, y, x + 0.002, y + 0.002);
                let id = first_id + i as u64;
                ix.insert(rect, id);
                live.push((rect, id));
            }
            Op::Delete(pick) if !live.is_empty() => {
                let (rect, id) = live.swap_remove(pick % live.len());
                assert!(ix.delete(&rect, id), "item {id} present");
            }
            Op::Delete(_) => {}
        }
    }
}

/// Checks that chunk 0 of `store` holds the store's bounds and that every
/// node reachable from the root fits its level's bound there.
fn check_bounds<M: ChunkMemory>(store: &ChunkStore<M>) -> Result<LevelLines, TestCaseError> {
    let mut line = [0u8; LINE_BYTES];
    store.mem().read_into(0, &mut line);
    let bounds = LevelLines::from_meta_line(&line);
    prop_assert_eq!(bounds, store.level_lines());
    let mut stack: Vec<_> = store.meta().root.into_iter().collect();
    while let Some(id) = stack.pop() {
        let node = NodeStore::read(store, id);
        let used = lines_for(node.entries.len());
        let bound = bounds.get(node.level);
        prop_assert!(
            bound.is_some_and(|b| used <= b),
            "node {} at level {} uses {} lines, bound {:?}",
            id,
            node.level,
            used,
            bound
        );
        stack.extend(node.entries.iter().filter_map(|e| match e.child {
            EntryRef::Node(child) => Some(child),
            EntryRef::Data(_) => None,
        }));
    }
    Ok(bounds)
}

/// A copy of `store` rebuilt by `from_parts` from its used bytes and
/// allocator state.
fn from_parts_copy<M: ChunkMemory>(store: &ChunkStore<M>) -> ChunkStore<Vec<u8>> {
    let (next, free) = store.allocator_state();
    let mut bytes = vec![0u8; store.mem().len()];
    let used = store.layout().arena_bytes(next);
    store.mem().read_into(0, &mut bytes[..used]);
    ChunkStore::from_parts(bytes, store.layout(), next, free).expect("a live store reopens")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_node_fits_its_level_bound(
        primary_ops in prop::collection::vec(arb_op(), 1..300),
        backup_ops in prop::collection::vec(arb_op(), 1..150),
    ) {
        Sim::new().run_until(async move {
            let items = uniform_rects(N, 0.002, 3);
            let cluster = CatfishCluster::build_replicated(
                &Network::new(),
                &infiniband_100g(),
                ServerConfig {
                    cores: 1,
                    mode: ServerMode::EventDriven,
                    ..ServerConfig::default()
                },
                RTreeConfig::with_max_entries(16),
                items.clone(),
                1,
                2,
                &RkeyAllocator::new(),
            );
            let primary = cluster.replica(0, 0);
            let mut live = items.clone();
            primary.with_index_mut(|ix| apply(ix, &mut live, &primary_ops, 1 << 40));
            let bounds = primary.with_index(|ix| check_bounds(ix.store()))?;

            // A backup's arena starts as a byte copy; a copy rebuilt from
            // the parts recovers the same bounds.
            let backup = primary.build_backup();
            prop_assert_eq!(backup.with_index(|ix| check_bounds(ix.store()))?, bounds);
            let rebuilt = primary.with_index(|ix| from_parts_copy(ix.store()));
            prop_assert_eq!(check_bounds(&rebuilt)?, bounds);

            // A diverged member healed by repair.
            prop_assert!(cluster.ctl(0).suspect(1, 0));
            let mut diverged = items.clone();
            cluster
                .replica(0, 1)
                .with_index_mut(|ix| apply(ix, &mut diverged, &backup_ops, 1 << 41));
            let report = cluster.heal(0, 1);
            prop_assert!(report.converged, "{:?}", report);
            cluster.replica(0, 1).with_index(|ix| check_bounds(ix.store()))?;
            Ok(())
        })?;
    }
}
