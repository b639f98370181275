//! Node storage abstraction.
//!
//! The tree algorithms in [`crate::tree`] are written against the
//! [`NodeStore`] trait so the same code can run on a plain in-memory arena
//! ([`MemStore`]) or on the RDMA-registered chunk layout
//! ([`ChunkStore`](crate::chunk::ChunkStore)), where every node write
//! becomes a versioned chunk update that remote clients may read with
//! one-sided RDMA.

use crate::geom::Rect;
use crate::node::{EntryRef, Node, NodeId};

/// The lowest level of the tree's upper nodes. A chunk arena bumps
/// [`TreeMeta::structure_version`] before every write of a node at this
/// level or above, so an offloading client may keep the upper nodes it
/// read for as long as the version it read them under stands.
pub const UPPER_LEVEL: u32 = 2;

/// Tree-level metadata, persisted alongside the nodes so that offloading
/// clients can bootstrap a traversal (it lives in chunk 0 of the chunk
/// layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeMeta {
    /// The root node, or `None` for an empty tree.
    pub root: Option<NodeId>,
    /// Number of levels (`0` for an empty tree; a lone leaf root is `1`).
    pub height: u32,
    /// Number of data items in the tree.
    pub len: u64,
    /// Bumped whenever entries move **between** nodes (splits, forced
    /// reinsertion, underflow dissolution, root collapse), and, in a chunk
    /// arena, before every write of a node at [`UPPER_LEVEL`] or above.
    /// Per-chunk version stamps catch torn reads of a single node, but a
    /// traversal spanning several one-sided reads can still observe a
    /// parent from before such a reorganization and a child from after it
    /// — silently missing the relocated entries. Offloading clients start
    /// every traversal from the counter their last check read and check
    /// it again behind the traversal's last read, restarting on a
    /// mismatch.
    pub structure_version: u64,
}

/// Storage backend for R-tree nodes.
///
/// Read-only traversals use [`NodeStore::visit`], which lends the caller a
/// `&Node` for the duration of a closure: [`MemStore`] borrows straight out
/// of its arena and [`ChunkStore`](crate::chunk::ChunkStore) decodes into
/// reusable scratch, so neither allocates per visit. Mutating paths use
/// [`NodeStore::read`] to obtain an owned copy, mutate it, and write it back
/// — which keeps the trait implementable over serialized storage (the chunk
/// layout re-encodes on every write, bumping version stamps).
pub trait NodeStore {
    /// Reads the node stored at `id`, returning an owned copy.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or has been freed.
    fn read(&self, id: NodeId) -> Node;

    /// Lends the node stored at `id` to `f` without giving up ownership.
    ///
    /// This is the hot-loop access path: implementations should hand `f` a
    /// borrow of existing (or scratch) state rather than an allocation.
    /// Visits may nest (e.g. recursive invariant checks); implementations
    /// must support re-entrancy from within `f`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or has been freed.
    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R
    where
        Self: Sized,
    {
        f(&self.read(id))
    }

    /// Visits the node at `id` for a window search: every entry whose MBR
    /// intersects `query` is either emitted (leaf data, as `emit(mbr,
    /// payload)`) or has its child pushed onto `stack` (internal entries) —
    /// both in ascending entry order, so traversal order is identical
    /// across implementations.
    ///
    /// The default delegates to [`NodeStore::visit`] and tests each entry
    /// with the scalar [`Rect::intersects`]; stores with a lane-friendly
    /// on-disk representation (the chunk store's struct-of-arrays chunks)
    /// override this with a branchless bitmask scan.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or has been freed.
    fn search_node(
        &self,
        id: NodeId,
        query: &Rect,
        stack: &mut Vec<NodeId>,
        emit: &mut dyn FnMut(Rect, u64),
    ) where
        Self: Sized,
    {
        self.visit(id, |node| {
            for e in &node.entries {
                if !e.mbr.intersects(query) {
                    continue;
                }
                match e.child {
                    EntryRef::Data(d) => emit(e.mbr, d),
                    EntryRef::Node(c) => stack.push(c),
                }
            }
        });
    }

    /// Writes (replaces) the node stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or has been freed.
    fn write(&mut self, id: NodeId, node: &Node);

    /// Allocates a slot for a new node.
    fn alloc(&mut self) -> NodeId;

    /// Returns `id`'s slot to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or has already been freed.
    fn free(&mut self, id: NodeId);

    /// Reads the tree metadata.
    fn meta(&self) -> TreeMeta;

    /// Writes the tree metadata.
    fn set_meta(&mut self, meta: TreeMeta);

    /// Number of live (allocated, not freed) nodes.
    fn node_count(&self) -> usize;
}

/// A plain in-memory node arena with a free list.
///
/// # Examples
///
/// ```
/// use catfish_rtree::{MemStore, Node, NodeStore};
///
/// let mut store = MemStore::default();
/// let id = store.alloc();
/// store.write(id, &Node::new(0));
/// assert!(store.read(id).is_leaf());
/// ```
#[derive(Debug, Default)]
pub struct MemStore {
    slots: Vec<Option<Node>>,
    free: Vec<u32>,
    meta: TreeMeta,
    live: usize,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NodeStore for MemStore {
    fn read(&self, id: NodeId) -> Node {
        self.visit(id, Node::clone)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R {
        let node = self
            .slots
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated node {id}"));
        f(node)
    }

    fn write(&mut self, id: NodeId, node: &Node) {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("write to unallocated node {id}"));
        assert!(slot.is_some(), "write to freed node {id}");
        *slot = Some(node.clone());
    }

    fn alloc(&mut self) -> NodeId {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = Some(Node::new(0));
            NodeId(i)
        } else {
            self.slots.push(Some(Node::new(0)));
            NodeId((self.slots.len() - 1) as u32)
        }
    }

    fn free(&mut self, id: NodeId) {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("free of unallocated node {id}"));
        assert!(slot.is_some(), "double free of node {id}");
        *slot = None;
        self.free.push(id.0);
        self.live -= 1;
    }

    fn meta(&self) -> TreeMeta {
        self.meta
    }

    fn set_meta(&mut self, meta: TreeMeta) {
        self.meta = meta;
    }

    fn node_count(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::node::Entry;

    #[test]
    fn alloc_write_read_round_trip() {
        let mut s = MemStore::new();
        let id = s.alloc();
        let mut n = Node::new(2);
        n.entries
            .push(Entry::node(Rect::new(0.0, 0.0, 1.0, 1.0), NodeId(9)));
        s.write(id, &n);
        assert_eq!(s.read(id), n);
        assert_eq!(s.node_count(), 1);
    }

    #[test]
    fn free_slots_are_reused() {
        let mut s = MemStore::new();
        let a = s.alloc();
        let _b = s.alloc();
        s.free(a);
        let c = s.alloc();
        assert_eq!(a, c);
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = MemStore::new();
        let a = s.alloc();
        s.free(a);
        s.free(a);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn read_unallocated_panics() {
        let s = MemStore::new();
        let _ = s.read(NodeId(3));
    }

    #[test]
    fn visit_borrows_and_nests() {
        let mut s = MemStore::new();
        let id = s.alloc();
        let mut n = Node::new(0);
        n.entries
            .push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 3));
        s.write(id, &n);
        assert_eq!(s.visit(id, |node| node.entries.len()), 1);
        // Visits may nest: both closures observe the same node.
        assert!(s.visit(id, |a| s.visit(id, |b| a == b)));
    }

    #[test]
    fn meta_round_trips() {
        let mut s = MemStore::new();
        let m = TreeMeta {
            root: Some(NodeId(4)),
            height: 2,
            len: 17,
            structure_version: 1,
        };
        s.set_meta(m);
        assert_eq!(s.meta(), m);
    }
}
