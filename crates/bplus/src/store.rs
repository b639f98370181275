//! Node storage for the B+-tree: a plain arena and the versioned chunk
//! arena (RDMA-registrable, readable by offloading clients).

use std::cell::RefCell;

use catfish_rtree::chunk::ChunkMemory;
use catfish_rtree::codec::{
    pack_lines, unpack_lines, CodecError, RemoteLayout, LINE_PAYLOAD_BYTES,
};
use catfish_rtree::{NodeId, TreeMeta};

use crate::node::{BpLayout, BpNode};

const META_MAGIC: u64 = 0x4250_4C55_5330_4D45; // "BPLUS0ME"

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

/// B+-tree nodes serialized into versioned chunks of `mem` (chunk 0 holds
/// the metadata), using the same cache-line validation scheme as the
/// R-tree arena.
#[derive(Debug)]
pub struct BpChunkStore<M> {
    mem: M,
    layout: BpLayout,
    versions: Vec<u64>,
    free: Vec<u32>,
    next: u32,
    meta: TreeMeta,
    /// Pool of decode scratch, one entry per active visit nesting depth.
    scratch: RefCell<Vec<BpScratch>>,
    /// Reused encode buffer for [`BpStore::write`].
    write_buf: Vec<u8>,
}

/// Reusable decode scratch: a chunk read buffer plus a decoded node whose
/// vectors retain their capacity between visits.
#[derive(Debug)]
struct BpScratch {
    chunk: Vec<u8>,
    node: BpNode,
}

impl<M: ChunkMemory> BpChunkStore<M> {
    /// Creates a store over `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `mem` holds fewer than two chunks.
    pub fn new(mem: M, layout: BpLayout) -> Self {
        let capacity = mem.len() / layout.chunk_bytes();
        assert!(capacity >= 2, "arena too small for b+ chunk store");
        let mut s = BpChunkStore {
            mem,
            layout,
            versions: vec![0; capacity],
            free: Vec::new(),
            next: 1,
            meta: TreeMeta::default(),
            scratch: RefCell::new(Vec::new()),
            write_buf: Vec::new(),
        };
        s.persist_meta();
        s
    }

    /// Runs `f` over a borrowed view of the node at `id`, decoded into
    /// pooled scratch — no heap allocation once the pool is warm.
    ///
    /// # Errors
    ///
    /// [`CodecError::TornRead`] when a concurrent writer raced the read;
    /// [`CodecError::Malformed`] on corrupt bytes.
    pub fn try_visit<R>(&self, id: NodeId, f: impl FnOnce(&BpNode) -> R) -> Result<R, CodecError> {
        let mut scratch = self
            .scratch
            .borrow_mut()
            .pop()
            .unwrap_or_else(|| BpScratch {
                chunk: vec![0u8; self.layout.chunk_bytes()],
                node: BpNode::leaf(),
            });
        self.mem
            .read_into(self.layout.node_offset(id), &mut scratch.chunk);
        let result = self
            .layout
            .decode_node_into(&scratch.chunk, &mut scratch.node)
            .map(|_| f(&scratch.node));
        self.scratch.borrow_mut().push(scratch);
        result
    }

    /// The layout in use.
    pub fn layout(&self) -> BpLayout {
        self.layout
    }

    /// Shared access to the backing memory.
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// The allocator state `(next_unused_chunk, free_list)` — what a copy
    /// of the store must carry besides the arena bytes.
    pub fn allocator_state(&self) -> (u32, Vec<u32>) {
        (self.next, self.free.clone())
    }

    /// Reconstructs a store from its parts: the arena bytes, the layout,
    /// and the allocator state. Per-chunk version counters are recovered
    /// from the chunks' own line stamps, and the tree metadata from
    /// chunk 0.
    ///
    /// # Errors
    ///
    /// Returns a description if the metadata chunk does not decode or the
    /// allocator state is inconsistent with the arena size.
    pub fn from_parts(
        mem: M,
        layout: BpLayout,
        next: u32,
        free: Vec<u32>,
    ) -> Result<Self, &'static str> {
        let capacity = mem.len() / layout.chunk_bytes();
        if capacity < 2 || next as usize > capacity || next == 0 {
            return Err("allocator state inconsistent with arena size");
        }
        if free.iter().any(|&f| f == 0 || f >= next) {
            return Err("free list references out-of-range chunks");
        }
        let mut seen = vec![false; next as usize];
        for &f in &free {
            if std::mem::replace(&mut seen[f as usize], true) {
                return Err("free list repeats a chunk");
            }
        }
        let mut versions = vec![0u64; capacity];
        let mut line0 = [0u8; 8];
        for (i, v) in versions.iter_mut().enumerate().take(next as usize) {
            mem.read_into(i * layout.chunk_bytes(), &mut line0);
            *v = u64::from_le_bytes(line0);
        }
        let mut buf = vec![0u8; layout.chunk_bytes()];
        mem.read_into(0, &mut buf);
        let (meta, _) = decode_meta(&layout, &buf).map_err(|_| "metadata chunk does not decode")?;
        Ok(BpChunkStore {
            mem,
            layout,
            versions,
            free,
            next,
            meta,
            scratch: RefCell::new(Vec::new()),
            write_buf: Vec::new(),
        })
    }

    fn persist_meta(&mut self) {
        self.versions[0] += 1;
        let chunk = encode_meta(&self.layout, &self.meta, self.versions[0]);
        self.mem.write_at(0, &chunk);
    }
}

/// Serializes B+-tree metadata into a chunk-0 record.
pub fn encode_meta(layout: &BpLayout, meta: &TreeMeta, version: u64) -> Vec<u8> {
    let lines = layout.chunk_bytes() / 64;
    let mut logical = vec![0u8; lines * LINE_PAYLOAD_BYTES];
    logical[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
    let root_raw = meta.root.map_or(0, |id| id.index() + 1);
    logical[8..12].copy_from_slice(&root_raw.to_le_bytes());
    logical[12..16].copy_from_slice(&meta.height.to_le_bytes());
    logical[16..24].copy_from_slice(&meta.len.to_le_bytes());
    logical[24..32].copy_from_slice(&meta.structure_version.to_le_bytes());
    pack_lines(&logical, version, lines)
}

/// Deserializes B+-tree metadata.
///
/// # Errors
///
/// [`CodecError::TornRead`] on racing writes; [`CodecError::Malformed`]
/// otherwise.
pub fn decode_meta(layout: &BpLayout, chunk: &[u8]) -> Result<(TreeMeta, u64), CodecError> {
    let lines = layout.chunk_bytes() / 64;
    let (logical, version) = unpack_lines(chunk, lines)?;
    let magic = u64::from_le_bytes(logical[0..8].try_into().expect("sized"));
    if magic != META_MAGIC {
        return Err(CodecError::Malformed("bad b+ meta magic"));
    }
    let root_raw = u32::from_le_bytes(logical[8..12].try_into().expect("sized"));
    let height = u32::from_le_bytes(logical[12..16].try_into().expect("sized"));
    let len = u64::from_le_bytes(logical[16..24].try_into().expect("sized"));
    let structure_version = u64::from_le_bytes(logical[24..32].try_into().expect("sized"));
    let root = if root_raw == 0 {
        None
    } else {
        Some(NodeId(root_raw - 1))
    };
    if root.is_none() != (height == 0) {
        return Err(CodecError::Malformed("b+ root/height mismatch"));
    }
    Ok((
        TreeMeta {
            root,
            height,
            len,
            structure_version,
        },
        version,
    ))
}

impl RemoteLayout for BpLayout {
    type Node = BpNode;

    fn chunk_bytes(&self) -> usize {
        BpLayout::chunk_bytes(self)
    }

    fn node_offset(&self, id: NodeId) -> usize {
        BpLayout::node_offset(self, id)
    }

    fn arena_bytes(&self, chunks: u32) -> usize {
        BpLayout::arena_bytes(self, chunks)
    }

    fn decode_meta(&self, chunk: &[u8]) -> Result<(TreeMeta, u64), CodecError> {
        decode_meta(self, chunk)
    }
}

impl<M: ChunkMemory> BpStore for BpChunkStore<M> {
    fn read(&self, id: NodeId) -> BpNode {
        self.visit(id, BpNode::clone)
    }

    fn visit<R>(&self, id: NodeId, f: impl FnOnce(&BpNode) -> R) -> R {
        self.try_visit(id, f)
            .unwrap_or_else(|e| panic!("b+ chunk read of {id} failed: {e}"))
    }

    fn write(&mut self, id: NodeId, node: &BpNode) {
        let idx = id.index() as usize;
        assert!(
            idx >= 1 && idx < self.versions.len(),
            "b+ chunk out of range"
        );
        self.versions[idx] += 1;
        let mut chunk = std::mem::take(&mut self.write_buf);
        self.layout
            .encode_node_into(node, self.versions[idx], &mut chunk);
        self.mem.write_at(self.layout.node_offset(id), &chunk);
        self.write_buf = chunk;
    }

    fn alloc(&mut self) -> NodeId {
        if let Some(i) = self.free.pop() {
            return NodeId(i);
        }
        assert!(
            (self.next as usize) < self.versions.len(),
            "b+ chunk arena exhausted"
        );
        let id = NodeId(self.next);
        self.next += 1;
        self.write(id, &BpNode::leaf());
        id
    }

    fn free(&mut self, id: NodeId) {
        assert!(
            id.index() >= 1 && id.index() < self.next && !self.free.contains(&id.index()),
            "invalid b+ chunk free"
        );
        self.free.push(id.index());
    }

    fn meta(&self) -> TreeMeta {
        self.meta
    }

    fn set_meta(&mut self, meta: TreeMeta) {
        self.meta = meta;
        self.persist_meta();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn chunk_store_round_trip() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(16)], layout);
        let id = s.alloc();
        let mut n = BpNode::leaf();
        n.keys.extend([1, 2, 3]);
        n.values_mut().extend([10, 20, 30]);
        s.write(id, &n);
        assert_eq!(s.read(id), n);
    }

    #[test]
    fn meta_round_trip_via_chunk_zero() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(16)], layout);
        let meta = TreeMeta {
            root: Some(NodeId(3)),
            height: 2,
            len: 12,
            structure_version: 7,
        };
        s.set_meta(meta);
        let mut buf = vec![0u8; layout.chunk_bytes()];
        s.mem().read_into(0, &mut buf);
        assert_eq!(decode_meta(&layout, &buf).unwrap().0, meta);
    }

    #[test]
    fn visit_borrows_and_nests() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let a = s.alloc();
        let b = s.alloc();
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
        assert_eq!(s.scratch.borrow().len(), 2);
        // The pool is reused, not regrown, by later visits.
        s.visit(a, |n| assert_eq!(n, &na));
        assert_eq!(s.scratch.borrow().len(), 2);
    }

    #[test]
    fn torn_read_surfaces_through_try_visit() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let id = s.alloc();
        let mut n = BpNode::leaf();
        n.keys.push(3);
        n.values_mut().push(30);
        s.write(id, &n);
        // Corrupt the second line's version stamp, as a racing writer would.
        let at = layout.node_offset(id) + 64;
        s.mem[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            s.try_visit(id, |_| ()),
            Err(CodecError::TornRead { .. })
        ));
    }

    #[test]
    fn from_parts_reopens_the_same_store() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let a = s.alloc();
        let b = s.alloc();
        let mut n = BpNode::leaf();
        n.keys.push(4);
        n.values_mut().push(40);
        s.write(b, &n);
        s.free(a);
        s.set_meta(TreeMeta {
            root: Some(b),
            height: 1,
            len: 1,
            structure_version: 2,
        });
        let (next, free) = s.allocator_state();
        let mut r = BpChunkStore::from_parts(s.mem.clone(), layout, next, free).unwrap();
        assert_eq!(r.meta(), s.meta());
        assert_eq!(r.versions, s.versions);
        assert_eq!(r.read(b), n);
        // Both stores continue identically: the freed chunk comes back
        // first, and the next write stamps the same version.
        assert_eq!((r.alloc(), s.alloc()), (a, a));
        r.write(b, &n);
        s.write(b, &n);
        assert_eq!(r.mem, s.mem);
        assert_eq!(
            BpChunkStore::from_parts(s.mem.clone(), layout, next, vec![a.index(); 2]).unwrap_err(),
            "free list repeats a chunk"
        );
    }

    #[test]
    fn freed_chunks_reused() {
        let layout = BpLayout::for_max_keys(8);
        let mut s = BpChunkStore::new(vec![0u8; layout.arena_bytes(8)], layout);
        let a = s.alloc();
        s.free(a);
        assert_eq!(s.alloc(), a);
    }
}
