//! [`ChunkStore`]: a [`NodeStore`] over a flat byte arena of versioned
//! chunks.
//!
//! The arena is abstracted as [`ChunkMemory`] so the same store logic can
//! run over a plain `Vec<u8>` (local use, tests) or an RDMA-registered
//! memory region (the server in `catfish-core`), where remote clients read
//! the very same bytes with one-sided RDMA Reads.

use std::cell::RefCell;

use crate::codec::{ChunkLayout, CodecError, LaneNode, LevelLines, RemoteLayout, LINE_BYTES};
use crate::geom::Rect;
use crate::node::{Node, NodeId};
use crate::store::{NodeStore, TreeMeta, UPPER_LEVEL};

/// Byte-addressable backing memory for a chunk arena.
pub trait ChunkMemory {
    /// Total capacity in bytes.
    fn len(&self) -> usize;

    /// True if the arena has zero capacity.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn read_into(&self, offset: usize, buf: &mut [u8]);

    /// Lends `f` the `len` bytes at `offset` — the read path of the
    /// store's visits, which decode straight from the lent bytes. The
    /// default copies them into a fresh buffer with
    /// [`ChunkMemory::read_into`]; memory that can lend a borrow in place
    /// overrides it.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut buf = vec![0u8; len];
        self.read_into(offset, &mut buf);
        f(&buf)
    }

    /// Writes `data` starting at `offset`.
    ///
    /// Implementations backed by shared (RDMA-visible) memory may model a
    /// non-atomic write that remote readers can observe as torn; the local
    /// view must always reflect the completed write.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn write_at(&mut self, offset: usize, data: &[u8]);
}

impl ChunkMemory for Vec<u8> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn read_into(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self[offset..offset + buf.len()]);
    }

    fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self[offset..offset + len])
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self[offset..offset + data.len()].copy_from_slice(data);
    }
}

/// The versioned chunk arena: every node serialized by the chunk format
/// `C` into a fixed-size versioned chunk of `mem`. Chunk 0 holds the tree
/// metadata and the arena's [`LevelLines`]; node chunks start at 1.
///
/// Both indexes live in it: with the default [`ChunkLayout`] it is the
/// R-tree's [`NodeStore`], and with the B+-tree's layout it is the KV
/// service's store (`catfish-bplus`). The allocator, the per-chunk version
/// stamps, the metadata chunk and the borrowed read path are shared.
///
/// # Examples
///
/// ```
/// use catfish_rtree::chunk::ChunkStore;
/// use catfish_rtree::codec::ChunkLayout;
/// use catfish_rtree::{Node, NodeStore};
///
/// let layout = ChunkLayout::for_max_entries(16);
/// let mem = vec![0u8; layout.arena_bytes(64)];
/// let mut store = ChunkStore::new(mem, layout);
/// let id = store.alloc();
/// store.write(id, &Node::new(0));
/// assert!(store.read(id).is_leaf());
/// ```
#[derive(Debug)]
pub struct ChunkStore<M, C: RemoteLayout = ChunkLayout> {
    mem: M,
    layout: C,
    versions: Vec<u64>,
    free: Vec<u32>,
    /// `is_free[i]` is true while chunk `i` sits on `free`, so a double
    /// free is caught without scanning the list.
    is_free: Vec<bool>,
    next: u32,
    live: usize,
    meta: TreeMeta,
    /// Per level, the most lines a node written there has used (formats
    /// whose nodes fill a prefix of their chunk; all zero otherwise).
    /// Written with every metadata write, and a node write that raises a
    /// bound writes the metadata first, so chunk 0 always holds them.
    level_lines: LevelLines,
    /// Pool of reusable decoded nodes for the borrowed read path. One
    /// entry per concurrent visit depth: flat hot loops reuse a single
    /// warm entry, recursive visits (invariant checks, leaf searches) pop
    /// deeper ones. Allocates only the first time each depth is reached.
    scratch: RefCell<Vec<C::Node>>,
    /// Pool of [`LaneNode`] word images for the R-tree's vectorized search
    /// path (empty under other formats). Search visits never nest, but the
    /// pool mirrors [`ChunkStore::scratch`] for re-entrancy safety.
    lane_scratch: RefCell<Vec<LaneNode>>,
    /// Reusable encode buffer for node and metadata writes.
    write_buf: Vec<u8>,
}

impl<M: ChunkMemory, C: RemoteLayout> ChunkStore<M, C> {
    /// Creates a store over `mem`, writing an empty metadata chunk.
    ///
    /// # Panics
    ///
    /// Panics if `mem` cannot hold at least the metadata chunk plus one
    /// node chunk.
    pub fn new(mem: M, layout: C) -> Self {
        let capacity = mem.len() / layout.chunk_bytes();
        assert!(
            capacity >= 2,
            "arena too small: {} bytes holds {} chunks, need at least 2",
            mem.len(),
            capacity
        );
        // Chunks are whole cache lines, so a line-aligned arena base keeps
        // every node slot line-aligned (the registered-memory backing
        // asserts its base alignment; see `catfish_rdma::MemoryRegion`).
        debug_assert_eq!(layout.chunk_bytes() % LINE_BYTES, 0);
        let mut store = ChunkStore {
            mem,
            layout,
            versions: vec![0; capacity],
            free: Vec::new(),
            is_free: vec![false; capacity],
            next: 1,
            live: 0,
            meta: TreeMeta::default(),
            level_lines: LevelLines::default(),
            scratch: RefCell::new(Vec::new()),
            lane_scratch: RefCell::new(Vec::new()),
            write_buf: Vec::new(),
        };
        store.persist_meta();
        store
    }

    /// The chunk layout in use.
    pub fn layout(&self) -> C {
        self.layout
    }

    /// Shared access to the backing memory.
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Consumes the store, returning the backing memory.
    pub fn into_mem(self) -> M {
        self.mem
    }

    /// The allocator state `(next_unused_chunk, free_list)` — what a
    /// snapshot must persist besides the arena bytes.
    pub fn allocator_state(&self) -> (u32, Vec<u32>) {
        (self.next, self.free.clone())
    }

    /// The per-level line bounds, as chunk 0 holds them.
    pub fn level_lines(&self) -> LevelLines {
        self.level_lines
    }

    /// Reconstructs a store from persisted parts: the arena bytes, the
    /// layout, and the allocator state. Per-chunk version counters are
    /// recovered from the chunks' own line stamps, and the tree metadata
    /// and level line bounds from chunk 0.
    ///
    /// # Errors
    ///
    /// Returns a description if the metadata chunk does not decode or the
    /// allocator state is inconsistent with the arena size.
    pub fn from_parts(mem: M, layout: C, next: u32, free: Vec<u32>) -> Result<Self, &'static str> {
        let capacity = mem.len() / layout.chunk_bytes();
        if capacity < 2 || next as usize > capacity || next == 0 {
            return Err("allocator state inconsistent with arena size");
        }
        if free.iter().any(|&f| f == 0 || f >= next) {
            return Err("free list references out-of-range chunks");
        }
        let mut is_free = vec![false; capacity];
        for &f in &free {
            if std::mem::replace(&mut is_free[f as usize], true) {
                return Err("free list repeats a chunk");
            }
        }
        let mut versions = vec![0u64; capacity];
        let mut line0 = [0u8; 8];
        for (i, v) in versions.iter_mut().enumerate().take(next as usize) {
            mem.read_into(layout.node_offset(NodeId(i as u32)), &mut line0);
            *v = u64::from_le_bytes(line0);
        }
        let mut buf = vec![0u8; layout.chunk_bytes()];
        mem.read_into(0, &mut buf);
        let (meta, _) = layout
            .decode_meta(&buf)
            .map_err(|_| "metadata chunk does not decode")?;
        let level_lines = LevelLines::from_meta_line(&buf);
        let live = (next as usize - 1) - free.len();
        Ok(ChunkStore {
            mem,
            layout,
            versions,
            free,
            is_free,
            next,
            live,
            meta,
            level_lines,
            scratch: RefCell::new(Vec::new()),
            lane_scratch: RefCell::new(Vec::new()),
            write_buf: Vec::new(),
        })
    }

    /// Borrowed read path: decodes the chunk at `id` straight from the
    /// arena bytes ([`ChunkMemory::with_bytes`]) into a pooled node, and
    /// lends the result to `f`.
    ///
    /// Once the pool is warm this performs zero heap allocations per visit
    /// (over memory that lends its bytes) while still running the full
    /// FaRM-style line-version check ([`CodecError::TornRead`] on
    /// disagreement). Visits may nest: an inner visit simply pops (or
    /// allocates) the next scratch entry. The arena is borrowed only for
    /// the decode, never while `f` runs.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError`] from decoding; `f` is not called on error.
    pub fn try_visit<R>(&self, id: NodeId, f: impl FnOnce(&C::Node) -> R) -> Result<R, CodecError> {
        let mut node = self.scratch.borrow_mut().pop().unwrap_or_default();
        let decoded =
            self.with_node_bytes(id, |bytes| self.layout.decode_node_into(bytes, &mut node));
        let result = decoded.map(|_| f(&node));
        self.scratch.borrow_mut().push(node);
        result
    }

    /// Lends `f` the lines node `id` uses: its chunk cut at
    /// [`RemoteLayout::lines_used`] of the chunk's first line, so a decode
    /// de-stitches and version-checks only the node's own lines.
    fn with_node_bytes<R>(&self, id: NodeId, f: impl FnOnce(&[u8]) -> R) -> R {
        let (at, len) = (self.layout.node_offset(id), self.layout.chunk_bytes());
        self.mem.with_bytes(at, len, |chunk| {
            let lines = self.layout.lines_used(chunk).min(len / LINE_BYTES);
            f(&chunk[..lines * LINE_BYTES])
        })
    }

    fn persist_meta(&mut self) {
        self.versions[0] += 1;
        let mut chunk = std::mem::take(&mut self.write_buf);
        self.layout
            .encode_meta_into(&self.meta, self.versions[0], &mut chunk);
        self.level_lines.write_meta_line(&mut chunk);
        self.mem.write_at(0, &chunk);
        self.write_buf = chunk;
    }
}

/// The node operations of a [`ChunkStore`], under any chunk format.
///
/// Each index's store trait forwards to it: the R-tree's [`NodeStore`]
/// below, and the B+-tree's `BpStore` in `catfish-bplus`. It is a trait
/// rather than inherent methods so that on a concrete store it does not
/// shadow those traits' methods of the same names.
pub trait ChunkArena {
    /// The decoded node type.
    type Node;

    /// Reads the node at `id` into an owned value.
    ///
    /// # Panics
    ///
    /// Panics if the chunk does not decode. Local reads never tear (torn
    /// snapshots are a remote-visibility effect), so that is a store bug.
    fn read(&self, id: NodeId) -> Self::Node;

    /// Lends the node at `id` to `f` ([`ChunkStore::try_visit`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`ChunkArena::read`].
    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&Self::Node) -> R) -> R;

    /// Replaces the node at `id`, bumping its chunk version. The metadata
    /// is rewritten first when the node is at [`UPPER_LEVEL`] or above
    /// (its structure version bumped, so a client's cache of upper nodes
    /// drops the old copy) or uses more lines than its level's bound (the
    /// bound raised, so no reader that reads the metadata after the node
    /// finds it longer than the bound).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the arena or is the metadata chunk.
    fn write(&mut self, id: NodeId, node: &Self::Node);

    /// Allocates a chunk: the last freed one, else a fresh chunk
    /// initialized to an empty leaf so that reads of it decode.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted.
    fn alloc(&mut self) -> NodeId;

    /// Returns `id`'s chunk to the free list, checking in O(1) that it
    /// is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated or is already free.
    fn free(&mut self, id: NodeId);

    /// The tree metadata.
    fn meta(&self) -> TreeMeta;

    /// Persists tree metadata to chunk 0, bumping its version, with the
    /// level line bounds as they stand. The structure version never goes
    /// below the store's own: a node write may have bumped it since the
    /// caller read the metadata.
    fn set_meta(&mut self, meta: TreeMeta);

    /// Number of live (allocated, not freed) node chunks.
    fn node_count(&self) -> usize;
}

impl<M: ChunkMemory, C: RemoteLayout> ChunkArena for ChunkStore<M, C> {
    type Node = C::Node;

    fn read(&self, id: NodeId) -> Self::Node {
        self.visit(id, C::Node::clone)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&Self::Node) -> R) -> R {
        self.try_visit(id, f)
            .unwrap_or_else(|e| panic!("chunk store read of {id} failed: {e}"))
    }

    fn write(&mut self, id: NodeId, node: &Self::Node) {
        let idx = id.0 as usize;
        assert!(
            idx >= 1 && idx < self.versions.len(),
            "write to out-of-range chunk {id}"
        );
        self.versions[idx] += 1;
        let level = self.layout.level(node);
        let raised = self
            .layout
            .extent(node)
            .is_some_and(|lines| self.level_lines.note(level, lines));
        let upper = level >= UPPER_LEVEL;
        if upper {
            self.meta.structure_version += 1;
        }
        if raised || upper {
            self.persist_meta();
        }
        let mut chunk = std::mem::take(&mut self.write_buf);
        self.layout
            .encode_node_into(node, self.versions[idx], &mut chunk);
        self.mem.write_at(self.layout.node_offset(id), &chunk);
        self.write_buf = chunk;
    }

    fn alloc(&mut self) -> NodeId {
        if let Some(i) = self.free.pop() {
            self.is_free[i as usize] = false;
            self.live += 1;
            return NodeId(i);
        }
        assert!(
            (self.next as usize) < self.versions.len(),
            "chunk arena exhausted: {} chunks",
            self.versions.len()
        );
        let id = NodeId(self.next);
        self.next += 1;
        self.live += 1;
        self.write(id, &C::Node::default());
        id
    }

    fn free(&mut self, id: NodeId) {
        assert!(
            id.0 >= 1 && id.0 < self.next && !self.is_free[id.0 as usize],
            "invalid free of chunk {id}"
        );
        self.is_free[id.0 as usize] = true;
        self.free.push(id.0);
        self.live -= 1;
    }

    fn meta(&self) -> TreeMeta {
        self.meta
    }

    fn set_meta(&mut self, meta: TreeMeta) {
        // A caller's copy taken before a node write bumped the structure
        // version keeps the bump: the version never goes back.
        let structure_version = meta.structure_version.max(self.meta.structure_version);
        self.meta = TreeMeta {
            structure_version,
            ..meta
        };
        self.persist_meta();
    }

    fn node_count(&self) -> usize {
        self.live
    }
}

impl<M: ChunkMemory> ChunkStore<M, ChunkLayout> {
    /// Vectorized window-test visit: de-stitches the chunk at `id`
    /// straight from the arena bytes into a pooled [`LaneNode`] and runs
    /// [`LaneNode::visit_window`] — emitting leaf data and pushing internal
    /// children in ascending entry order, exactly like the scalar default.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError`] from decoding.
    pub fn try_search_node(
        &self,
        id: NodeId,
        query: &Rect,
        stack: &mut Vec<NodeId>,
        emit: &mut dyn FnMut(Rect, u64),
    ) -> Result<(), CodecError> {
        let mut lanes = self.lane_scratch.borrow_mut().pop().unwrap_or_default();
        let result = self
            .with_node_bytes(id, |bytes| self.layout.decode_lanes_into(bytes, &mut lanes))
            .and_then(|_| lanes.visit_window(query, emit, |c| stack.push(c)));
        self.lane_scratch.borrow_mut().push(lanes);
        result
    }
}

/// The R-tree's store: each method is [`ChunkArena`]'s of the same name,
/// except that the window-search visit runs on the SoA lanes.
impl<M: ChunkMemory> NodeStore for ChunkStore<M> {
    fn read(&self, id: NodeId) -> Node {
        ChunkArena::read(self, id)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&Node) -> R) -> R {
        ChunkArena::visit(self, id, f)
    }

    fn search_node(
        &self,
        id: NodeId,
        query: &Rect,
        stack: &mut Vec<NodeId>,
        emit: &mut dyn FnMut(Rect, u64),
    ) {
        // Local reads never tear, so a decode failure is a store bug, as
        // in `visit`.
        self.try_search_node(id, query, stack, emit)
            .unwrap_or_else(|e| panic!("chunk store read of {id} failed: {e}"))
    }

    fn write(&mut self, id: NodeId, node: &Node) {
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

    fn node_count(&self) -> usize {
        ChunkArena::node_count(self)
    }
}

#[cfg(test)]
mod tests {
    // Not a glob: the tests call `NodeStore`'s methods, which `ChunkArena`
    // would make ambiguous.
    use super::{ChunkLayout, ChunkMemory, ChunkStore, CodecError, RemoteLayout, LINE_BYTES};
    use crate::geom::Rect;
    use crate::node::{Entry, Node, NodeId};
    use crate::store::{NodeStore, TreeMeta};

    fn store_with(chunks: u32) -> ChunkStore<Vec<u8>> {
        let layout = ChunkLayout::for_max_entries(8);
        ChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout)
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = store_with(8);
        let id = s.alloc();
        let mut n = Node::new(0);
        n.entries
            .push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 5));
        s.write(id, &n);
        assert_eq!(s.read(id), n);
    }

    #[test]
    fn versions_bump_on_every_write() {
        let mut s = store_with(8);
        let id = s.alloc();
        let n = Node::new(0);
        s.write(id, &n);
        let v1 = s.versions[id.0 as usize];
        s.write(id, &n);
        assert_eq!(s.versions[id.0 as usize], v1 + 1);
    }

    #[test]
    fn meta_persisted_to_chunk_zero() {
        let mut s = store_with(8);
        let meta = TreeMeta {
            root: Some(NodeId(1)),
            height: 1,
            len: 3,
            structure_version: 5,
        };
        s.set_meta(meta);
        let mut buf = vec![0u8; s.layout().chunk_bytes()];
        s.mem().read_into(0, &mut buf);
        let (decoded, _) = s.layout().decode_meta(&buf).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn alloc_skips_meta_chunk() {
        let mut s = store_with(8);
        assert_eq!(s.alloc(), NodeId(1));
        assert_eq!(s.alloc(), NodeId(2));
    }

    #[test]
    fn freed_chunks_are_reused() {
        let mut s = store_with(8);
        let a = s.alloc();
        let _b = s.alloc();
        s.free(a);
        assert_eq!(s.alloc(), a);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn arena_exhaustion_panics() {
        let mut s = store_with(2); // meta + 1 node
        let _ = s.alloc();
        let _ = s.alloc();
    }

    #[test]
    fn exhaustion_leaves_node_count_unchanged() {
        let mut s = store_with(3); // meta + 2 nodes
        let _ = s.alloc();
        let _ = s.alloc();
        assert_eq!(s.node_count(), 2);
        let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.alloc()));
        assert!(full.is_err(), "a full arena must refuse to allocate");
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid free")]
    fn double_free_panics() {
        let mut s = store_with(4);
        let a = s.alloc();
        s.free(a);
        s.free(a);
    }

    #[test]
    fn freed_chunk_can_be_freed_again_after_reuse() {
        let mut s = store_with(4);
        let a = s.alloc();
        s.free(a);
        assert_eq!(s.alloc(), a);
        s.free(a);
        assert_eq!(s.allocator_state(), (2, vec![a.0]));
    }

    #[test]
    fn from_parts_rejects_repeated_free_chunks() {
        let mut s = store_with(8);
        let a = s.alloc();
        let _b = s.alloc();
        s.free(a);
        let layout = s.layout();
        let (next, _) = s.allocator_state();
        let mem = s.into_mem();
        let err = ChunkStore::from_parts(mem, layout, next, vec![a.0, a.0]).unwrap_err();
        assert_eq!(err, "free list repeats a chunk");
    }

    #[test]
    fn try_visit_borrows_and_nests() {
        let mut s = store_with(8);
        let a = s.alloc();
        let b = s.alloc();
        let mut n = Node::new(0);
        n.entries
            .push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 5));
        s.write(a, &n);
        s.write(b, &n);
        assert_eq!(s.visit(a, |node| node.entries.len()), 1);
        // Nested visits use distinct scratch entries, so both borrows are
        // live at once and observe independent decodes.
        assert!(s.visit(a, |na| s.visit(b, |nb| na == nb)));
        // The pool should have grown to exactly the max nesting depth.
        assert_eq!(s.scratch.borrow().len(), 2);
    }

    #[test]
    fn torn_read_surfaces_through_try_visit() {
        let mut s = store_with(8);
        let id = s.alloc();
        let mut n = Node::new(0);
        // Two entries take two lines, so the second is the node's own.
        for d in [9, 10] {
            n.entries
                .push(Entry::data(Rect::new(0.1, 0.1, 0.2, 0.2), d));
        }
        s.write(id, &n);
        let layout = s.layout();
        let (next, free) = s.allocator_state();
        let mut mem = s.into_mem();
        // Corrupt the second line's version stamp: a torn write snapshot.
        let off = layout.node_offset(id) + LINE_BYTES;
        mem[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let s = ChunkStore::from_parts(mem, layout, next, free).unwrap();
        assert!(matches!(
            s.try_visit(id, |n| n.clone()),
            Err(CodecError::TornRead { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_arena_rejected() {
        let layout = ChunkLayout::for_max_entries(8);
        let _ = ChunkStore::new(vec![0u8; layout.chunk_bytes()], layout);
    }
}
