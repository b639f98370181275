//! Adapter exposing an RDMA [`MemoryRegion`] as [`ChunkMemory`], so the
//! server's R\*-tree lives directly inside the registered arena that
//! offloading clients read with one-sided verbs.

use std::cell::Cell;

use catfish_rdma::MemoryRegion;
use catfish_rtree::chunk::{ChunkMemory, ChunkStore};
use catfish_rtree::codec::RemoteLayout;
use catfish_simnet::SimDuration;

/// [`ChunkMemory`] backed by a registered memory region.
///
/// Writes use the region's torn-visibility path: local (server) readers are
/// always consistent, while remote snapshots taken inside
/// [`MrMemory::set_torn_window`]'s window observe a cache-line mixture of
/// old and new bytes — the race that the chunk codec's version validation
/// detects. Disable the window (zero) during bulk loading, before any
/// client is connected.
#[derive(Debug, Clone)]
pub struct MrMemory {
    mr: MemoryRegion,
    torn_window: Cell<SimDuration>,
}

impl MrMemory {
    /// Wraps `mr` with torn-write visibility of `torn_window` per update.
    pub fn new(mr: MemoryRegion, torn_window: SimDuration) -> Self {
        MrMemory {
            mr,
            torn_window: Cell::new(torn_window),
        }
    }

    /// The underlying region.
    pub fn region(&self) -> &MemoryRegion {
        &self.mr
    }

    /// Changes the torn-visibility window for subsequent writes.
    pub fn set_torn_window(&self, window: SimDuration) {
        self.torn_window.set(window);
    }
}

/// A copy of `store` in `mem`, a fresh zeroed arena of the same size: the
/// used chunk prefix in one untorn write, plus the allocator state, so the
/// copy equals the original byte for byte. Both backends'
/// [`IndexBackend::replicate`](crate::service::IndexBackend::replicate):
/// how a backup's arena starts from its primary's.
///
/// # Panics
///
/// Panics if `mem` is shorter than the used prefix.
pub(crate) fn replicate_store<C: RemoteLayout>(
    store: &ChunkStore<MrMemory, C>,
    mem: MrMemory,
) -> ChunkStore<MrMemory, C> {
    let (next, free) = store.allocator_state();
    let layout = store.layout();
    store
        .mem()
        .mr
        .with_slice(0, layout.arena_bytes(next), |bytes| {
            mem.mr.write_local(0, bytes)
        });
    ChunkStore::from_parts(mem, layout, next, free)
        .expect("a live store's allocator state fits an arena of its size")
}

impl ChunkMemory for MrMemory {
    fn len(&self) -> usize {
        self.mr.len()
    }

    fn read_into(&self, offset: usize, buf: &mut [u8]) {
        self.mr.read_local(offset, buf);
    }

    fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.mr.with_slice(offset, len, f)
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.mr
            .write_local_torn(offset, data, self.torn_window.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_rtree::chunk::ChunkStore;
    use catfish_rtree::codec::{ChunkLayout, CodecError};
    use catfish_rtree::{NodeStore, RTree, RTreeConfig, Rect};
    use catfish_simnet::Sim;

    #[test]
    fn tree_lives_in_the_region() {
        let sim = Sim::new();
        sim.run_until(async {
            let layout = ChunkLayout::for_max_entries(16);
            let mr = MemoryRegion::new(layout.arena_bytes(512), 1);
            let mem = MrMemory::new(mr.clone(), SimDuration::ZERO);
            let mut tree = RTree::new(ChunkStore::new(mem, layout), RTreeConfig::default());
            for i in 0..50u64 {
                let x = i as f64 / 50.0;
                tree.insert(Rect::new(x, x, x + 0.01, x + 0.01), i);
            }
            tree.check_invariants().unwrap();

            // A remote snapshot of the meta chunk decodes to the live meta.
            let snap = mr.snapshot_remote(0, layout.chunk_bytes(), catfish_simnet::now());
            let (meta, _) = layout.decode_meta(&snap).unwrap();
            assert_eq!(meta.len, 50);
            assert_eq!(meta.root, tree.store().meta().root);
        });
    }

    #[test]
    fn remote_snapshot_during_update_is_torn() {
        let sim = Sim::new();
        sim.run_until(async {
            let layout = ChunkLayout::for_max_entries(16);
            let mr = MemoryRegion::new(layout.arena_bytes(64), 1);
            let mem = MrMemory::new(mr.clone(), SimDuration::from_micros(2));
            let mut store = ChunkStore::new(mem, layout);
            let id = store.alloc();
            let mut node = catfish_rtree::Node::new(0);
            for i in 0..10u64 {
                node.entries
                    .push(catfish_rtree::Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), i));
            }
            store.write(id, &node);
            catfish_simnet::sleep(SimDuration::from_micros(10)).await;
            // Overwrite, then sample inside the window.
            store.write(id, &node);
            let mid = catfish_simnet::now() + SimDuration::from_micros(1);
            let snap = mr.snapshot_remote(layout.node_offset(id), layout.chunk_bytes(), mid);
            assert!(matches!(
                layout.decode_node(&snap),
                Err(CodecError::TornRead { .. })
            ));
            // After the window the snapshot is clean again.
            let after = catfish_simnet::now() + SimDuration::from_micros(3);
            let snap = mr.snapshot_remote(layout.node_offset(id), layout.chunk_bytes(), after);
            assert!(layout.decode_node(&snap).is_ok());
        });
    }
}
