//! Node storage for the B+-tree: a plain arena, and the versioned chunk
//! arena shared with the R-tree (RDMA-registrable, readable by offloading
//! clients).

use catfish_rtree::chunk::{ChunkArena, ChunkMemory, ChunkStore};
use catfish_rtree::{NodeId, TreeMeta};

use crate::node::{BpLayout, BpNode};

/// Storage backend for B+-tree nodes (mirrors the R-tree's `NodeStore`).
pub trait BpStore {
    /// Reads the node at `id` into an owned value. Mutating paths use
    /// this; read-only traversals should prefer [`BpStore::visit`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is unallocated.
    fn read(&self, id: NodeId) -> BpNode;

    /// Runs `f` over a borrowed view of the node at `id` — the hot-loop
    /// read path. Implementations hand out a reference to their own
    /// storage (or decode scratch), so a visit performs no per-node heap
    /// allocation. Visits may nest: `f` may call `visit` on the same
    /// store again, and implementations must support that re-entrancy.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unallocated.
    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&BpNode) -> R) -> R
    where
        Self: Sized,
    {
        f(&self.read(id))
    }
    /// Replaces the node at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unallocated.
    fn write(&mut self, id: NodeId, node: &BpNode);
    /// Allocates a slot.
    fn alloc(&mut self) -> NodeId;
    /// Frees a slot.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    fn free(&mut self, id: NodeId);
    /// Tree metadata.
    fn meta(&self) -> TreeMeta;
    /// Persists tree metadata.
    fn set_meta(&mut self, meta: TreeMeta);
}

/// Plain in-memory arena.
#[derive(Debug, Default)]
pub struct BpMemStore {
    slots: Vec<Option<BpNode>>,
    free: Vec<u32>,
    meta: TreeMeta,
}

impl BpMemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BpStore for BpMemStore {
    fn read(&self, id: NodeId) -> BpNode {
        self.visit(id, BpNode::clone)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&BpNode) -> R) -> R {
        let node = self
            .slots
            .get(id.index() as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated b+ node {id}"));
        f(node)
    }

    fn write(&mut self, id: NodeId, node: &BpNode) {
        let slot = self
            .slots
            .get_mut(id.index() as usize)
            .unwrap_or_else(|| panic!("write to unallocated b+ node {id}"));
        assert!(slot.is_some(), "write to freed b+ node {id}");
        *slot = Some(node.clone());
    }

    fn alloc(&mut self) -> NodeId {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(BpNode::leaf());
            NodeId(i)
        } else {
            self.slots.push(Some(BpNode::leaf()));
            NodeId((self.slots.len() - 1) as u32)
        }
    }

    fn free(&mut self, id: NodeId) {
        let slot = self
            .slots
            .get_mut(id.index() as usize)
            .unwrap_or_else(|| panic!("free of unallocated b+ node {id}"));
        assert!(slot.is_some(), "double free of b+ node {id}");
        *slot = None;
        self.free.push(id.index());
    }

    fn meta(&self) -> TreeMeta {
        self.meta
    }

    fn set_meta(&mut self, meta: TreeMeta) {
        self.meta = meta;
    }
}

/// B+-tree nodes in the shared versioned chunk arena (chunk 0 holds the
/// metadata), under the same cache-line validation scheme as the R-tree.
pub type BpChunkStore<M> = ChunkStore<M, BpLayout>;

/// Each method is [`ChunkArena`]'s of the same name.
impl<M: ChunkMemory> BpStore for BpChunkStore<M> {
    fn read(&self, id: NodeId) -> BpNode {
        ChunkArena::read(self, id)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&BpNode) -> R) -> R {
        ChunkArena::visit(self, id, f)
    }

    fn write(&mut self, id: NodeId, node: &BpNode) {
        ChunkArena::write(self, id, node)
    }

    fn alloc(&mut self) -> NodeId {
        ChunkArena::alloc(self)
    }

    fn free(&mut self, id: NodeId) {
        ChunkArena::free(self, id)
    }

    fn meta(&self) -> TreeMeta {
        ChunkArena::meta(self)
    }

    fn set_meta(&mut self, meta: TreeMeta) {
        ChunkArena::set_meta(self, meta)
    }
}

#[cfg(test)]
mod tests {
    // Not a glob: `ChunkArena` would make `BpStore`'s methods ambiguous.
    use super::{BpChunkStore, BpMemStore, BpStore};
    use crate::node::{BpLayout, BpNode};
    use catfish_rtree::codec::{CodecError, RemoteLayout};

    #[test]
    fn mem_store_round_trip() {
        let mut s = BpMemStore::new();
        let id = s.alloc();
        let mut n = BpNode::leaf();
        n.keys.push(7);
        n.values_mut().push(70);
        s.write(id, &n);
        assert_eq!(s.read(id), n);
    }

    // Round trips, reuse of freed chunks, the metadata chunk and
    // `from_parts` are checked for both chunk formats by
    // `tests/arena_properties.rs`; the scratch pool by the R-tree's
    // `chunk` tests.

    #[test]
    fn chunk_visits_nest() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let a = BpStore::alloc(&mut s);
        let b = BpStore::alloc(&mut s);
        let mut na = BpNode::leaf();
        na.keys.push(1);
        na.values_mut().push(10);
        let mut nb = BpNode::leaf();
        nb.keys.push(2);
        nb.values_mut().push(20);
        s.write(a, &na);
        s.write(b, &nb);
        // Nested visits must not corrupt each other's scratch.
        let sum = s.visit(a, |outer| {
            outer.values()[0] + s.visit(b, |inner| inner.values()[0])
        });
        assert_eq!(sum, 30);
        s.visit(a, |n| assert_eq!(n, &na));
    }

    #[test]
    fn torn_read_surfaces_through_try_visit() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let id = BpStore::alloc(&mut s);
        let mut n = BpNode::leaf();
        n.keys.push(3);
        n.values_mut().push(30);
        s.write(id, &n);
        let (next, free) = s.allocator_state();
        let mut mem = s.into_mem();
        // Corrupt the second line's version stamp, as a racing writer would.
        let at = layout.node_offset(id) + 64;
        mem[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let s = BpChunkStore::from_parts(mem, layout, next, free).unwrap();
        assert!(matches!(
            s.try_visit(id, |_| ()),
            Err(CodecError::TornRead { .. })
        ));
    }
}
