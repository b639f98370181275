//! The R\*-tree proper: search, insert (with forced reinsertion), delete.
//!
//! All algorithms run against a [`NodeStore`], so the same code serves the
//! plain in-memory tree and the server-side tree living in RDMA-registered
//! chunk memory.

use std::collections::HashSet;
use std::ops::ControlFlow;

use crate::geom::Rect;
use crate::node::{Entry, EntryRef, Node, NodeId, RTreeConfig};
use crate::split::rstar_split;
use crate::store::{NodeStore, TreeMeta};

/// Cost counters from a single search, used by the server's CPU model (the
/// simulated traversal cost is proportional to nodes visited and results
/// produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes read during the traversal.
    pub nodes_visited: usize,
    /// Matching data entries found.
    pub results: usize,
}

/// An R\*-tree over a pluggable node store.
///
/// # Examples
///
/// ```
/// use catfish_rtree::{MemStore, RTree, Rect};
///
/// let mut tree: RTree<MemStore> = RTree::new(MemStore::new(), Default::default());
/// for i in 0..100u64 {
///     let x = (i % 10) as f64 / 10.0;
///     let y = (i / 10) as f64 / 10.0;
///     tree.insert(Rect::new(x, y, x + 0.05, y + 0.05), i);
/// }
/// let hits = tree.search(&Rect::new(0.0, 0.0, 0.25, 0.25));
/// assert!(!hits.is_empty());
/// assert_eq!(tree.len(), 100);
/// ```
#[derive(Debug)]
pub struct RTree<S> {
    store: S,
    config: RTreeConfig,
}

impl<S: NodeStore> RTree<S> {
    /// Creates an empty tree over `store`, resetting any existing metadata.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`RTreeConfig::validate`]).
    pub fn new(mut store: S, config: RTreeConfig) -> Self {
        config.validate();
        store.set_meta(TreeMeta::default());
        RTree { store, config }
    }

    /// Opens a tree over a store that already contains one (e.g. a chunk
    /// arena populated earlier), trusting its metadata.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent.
    pub fn open(store: S, config: RTreeConfig) -> Self {
        config.validate();
        RTree { store, config }
    }

    /// The tree's fanout configuration.
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Shared access to the node store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Consumes the tree, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Number of data items.
    pub fn len(&self) -> u64 {
        self.store.meta().len
    }

    /// True if the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels (0 when empty, 1 for a lone leaf root).
    pub fn height(&self) -> u32 {
        self.store.meta().height
    }

    // -----------------------------------------------------------------
    // Search
    // -----------------------------------------------------------------

    /// Returns the payloads of all items whose rectangle intersects `query`.
    pub fn search(&self, query: &Rect) -> Vec<u64> {
        let mut out = Vec::new();
        self.search_into(query, &mut out);
        out
    }

    /// Appends matching payloads to `out`; returns traversal statistics.
    ///
    /// Node visits go through [`NodeStore::search_node`], so a store with a
    /// lane-friendly layout (the chunk store) runs its branchless bitmask
    /// scan here without the tree code changing.
    pub fn search_into(&self, query: &Rect, out: &mut Vec<u64>) -> SearchStats {
        self.search_with(query, |_, d| out.push(d))
    }

    /// Like [`RTree::search_into`], but collects full `(rectangle,
    /// payload)` pairs — what a server returns to clients, since response
    /// size (40 bytes per result) drives network cost.
    pub fn search_items_into(&self, query: &Rect, out: &mut Vec<(Rect, u64)>) -> SearchStats {
        self.search_with(query, |r, d| out.push((r, d)))
    }

    /// The one window traversal: every item intersecting `query` goes to
    /// `emit`, nodes popped from a stack their visits push children onto.
    fn search_with(&self, query: &Rect, mut emit: impl FnMut(Rect, u64)) -> SearchStats {
        let mut stats = SearchStats::default();
        let Some(root) = self.store.meta().root else {
            return stats;
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            stats.nodes_visited += 1;
            self.store.search_node(id, query, &mut stack, &mut |r, d| {
                emit(r, d);
                stats.results += 1;
            });
        }
        stats
    }

    /// A streaming iterator over all `(rectangle, payload)` items, in
    /// traversal order. Nodes are read lazily from the store.
    ///
    /// # Examples
    ///
    /// ```
    /// use catfish_rtree::{MemStore, RTree, Rect};
    ///
    /// let mut tree: RTree<MemStore> = RTree::new(MemStore::new(), Default::default());
    /// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 7);
    /// let total: u64 = tree.iter().map(|(_, d)| d).sum();
    /// assert_eq!(total, 7);
    /// ```
    pub fn iter(&self) -> Iter<'_, S> {
        let stack = self.store.meta().root.map(|r| vec![r]).unwrap_or_default();
        Iter {
            tree: self,
            stack,
            pending: Vec::new(),
        }
    }

    /// All `(rectangle, payload)` items in the tree, in traversal order.
    pub fn items(&self) -> Vec<(Rect, u64)> {
        let mut out = Vec::new();
        let Some(root) = self.store.meta().root else {
            return out;
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            self.store.visit(id, |node| {
                for e in &node.entries {
                    match e.child {
                        EntryRef::Data(d) => out.push((e.mbr, d)),
                        EntryRef::Node(c) => stack.push(c),
                    }
                }
            });
        }
        out
    }

    // -----------------------------------------------------------------
    // Insert
    // -----------------------------------------------------------------

    /// Inserts an item, using R\* choose-subtree, forced reinsertion, and
    /// the R\* split.
    pub fn insert(&mut self, rect: Rect, data: u64) {
        let mut meta = self.store.meta();
        if meta.root.is_none() {
            let id = self.store.alloc();
            let mut node = Node::new(0);
            node.entries.push(Entry::data(rect, data));
            self.store.write(id, &node);
            meta.root = Some(id);
            meta.height = 1;
            meta.len += 1;
            self.store.set_meta(meta);
            return;
        }
        self.insert_entry(Entry::data(rect, data), 0, &mut 0);
        let mut meta = self.store.meta();
        meta.len += 1;
        self.store.set_meta(meta);
    }

    /// Inserts `entry` into some node at `level` (0 = leaf level).
    ///
    /// `reinserted` has bit `l` set once level `l` has had its forced
    /// reinsertion during the current top-level insert (node levels are at
    /// most 64; the codec rejects anything higher).
    fn insert_entry(&mut self, entry: Entry, level: u32, reinserted: &mut u128) {
        let (target, node, path) = self.choose_path(&entry.mbr, level);
        self.add_to_node(target, node, path, entry, reinserted);
    }

    /// Descends from the root to a node at `target_level`, returning its id,
    /// a copy of it, and the path as `(parent, child_index)` pairs.
    fn choose_path(&self, mbr: &Rect, target_level: u32) -> (NodeId, Node, Vec<(NodeId, usize)>) {
        let meta = self.store.meta();
        let mut id = meta.root.expect("choose_path requires a non-empty tree");
        let mut path = Vec::with_capacity(meta.height as usize);
        loop {
            let next = self.store.visit(id, |node| {
                debug_assert!(node.level >= target_level, "descended past target level");
                if node.level == target_level {
                    return ControlFlow::Break(node.clone());
                }
                let idx = self.choose_subtree_index(node, mbr);
                ControlFlow::Continue((
                    idx,
                    node.entries[idx].child.node().expect("internal entry"),
                ))
            });
            match next {
                ControlFlow::Break(node) => return (id, node, path),
                ControlFlow::Continue((idx, child)) => {
                    path.push((id, idx));
                    id = child;
                }
            }
        }
    }

    /// R\* ChooseSubtree: minimum overlap enlargement when children are
    /// leaves, minimum area enlargement otherwise; ties by area, then by
    /// lowest index.
    fn choose_subtree_index(&self, node: &Node, mbr: &Rect) -> usize {
        debug_assert!(!node.is_leaf());
        let entries = &node.entries;
        if node.level == 1 {
            // Children are leaves: minimize overlap enlargement.
            choose_leaf_parent(entries, mbr)
        } else {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in entries.iter().enumerate() {
                let key = (e.mbr.enlargement(mbr), e.mbr.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// Adds `entry` to `node`, the current content of the node at `id`,
    /// handling overflow with forced reinsertion (once per level per
    /// top-level insert) or an R\* split that may propagate to the root.
    fn add_to_node(
        &mut self,
        id: NodeId,
        mut node: Node,
        mut path: Vec<(NodeId, usize)>,
        entry: Entry,
        reinserted: &mut u128,
    ) {
        node.entries.push(entry);
        if node.entries.len() <= self.config.max_entries {
            self.store.write(id, &node);
            self.adjust_upward(&path, node.mbr().expect("node holds the new entry"));
            return;
        }

        let root_level = self.store.meta().height - 1;
        let level_bit = 1u128 << node.level;
        if node.level < root_level && *reinserted & level_bit == 0 {
            *reinserted |= level_bit;
            self.force_reinsert(id, path, node, reinserted);
            return;
        }

        // R* split.
        self.bump_structure_version();
        let level = node.level;
        let (group1, group2) = rstar_split(&self.config, std::mem::take(&mut node.entries));
        node.entries = group1;
        self.store.write(id, &node);
        let sibling_id = self.store.alloc();
        let sibling = Node {
            level,
            entries: group2,
        };
        self.store.write(sibling_id, &sibling);
        let mbr_a = node.mbr().expect("split group is non-empty");
        let mbr_b = sibling.mbr().expect("split group is non-empty");

        match path.pop() {
            None => {
                // Split of the root: grow the tree.
                let new_root_id = self.store.alloc();
                let new_root = Node {
                    level: level + 1,
                    entries: vec![Entry::node(mbr_a, id), Entry::node(mbr_b, sibling_id)],
                };
                self.store.write(new_root_id, &new_root);
                let mut meta = self.store.meta();
                meta.root = Some(new_root_id);
                meta.height += 1;
                self.store.set_meta(meta);
            }
            Some((parent_id, idx)) => {
                let mut parent = self.store.read(parent_id);
                parent.entries[idx].mbr = mbr_a;
                self.store.write(parent_id, &parent);
                let entry = Entry::node(mbr_b, sibling_id);
                self.add_to_node(parent_id, parent, path, entry, reinserted);
            }
        }
    }

    /// R\* forced reinsertion: evict the `p` entries farthest from the
    /// node's center and re-insert them (closest first), tightening the
    /// node before resorting to a split.
    fn force_reinsert(
        &mut self,
        id: NodeId,
        path: Vec<(NodeId, usize)>,
        mut node: Node,
        reinserted: &mut u128,
    ) {
        self.bump_structure_version();
        let node_mbr = node.mbr().expect("overflowing node is non-empty");
        let mut keyed: Vec<(f64, Entry)> = node
            .entries
            .drain(..)
            .map(|e| (e.mbr.center_distance_sq(&node_mbr), e))
            .collect();
        // Farthest first.
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
        let evicted: Vec<Entry> = keyed
            .drain(..self.config.reinsert_count)
            .map(|(_, e)| e)
            .collect();
        node.entries = keyed.into_iter().map(|(_, e)| e).collect();
        let level = node.level;
        self.store.write(id, &node);
        self.adjust_upward(&path, node.mbr().expect("reinsertion keeps entries"));
        // "Close reinsert": nearest of the evicted entries first.
        for e in evicted.into_iter().rev() {
            self.insert_entry(e, level, reinserted);
        }
    }

    /// Recomputes parent MBRs along `path` from the deepest node upward,
    /// given that node's MBR `child_mbr`, stopping early once nothing
    /// changes.
    fn adjust_upward(&mut self, path: &[(NodeId, usize)], mut child_mbr: Rect) {
        for &(pid, idx) in path.iter().rev() {
            let stale = self.store.visit(pid, |parent| {
                (parent.entries[idx].mbr != child_mbr).then(|| parent.clone())
            });
            let Some(mut parent) = stale else {
                return;
            };
            parent.entries[idx].mbr = child_mbr;
            self.store.write(pid, &parent);
            child_mbr = parent.mbr().expect("tree nodes are non-empty");
        }
    }

    // -----------------------------------------------------------------
    // Delete
    // -----------------------------------------------------------------

    /// Removes the item with exactly this rectangle and payload.
    ///
    /// Returns false if no such item exists. Underflowing nodes are
    /// dissolved and their entries re-inserted (Guttman's CondenseTree).
    pub fn delete(&mut self, rect: &Rect, data: u64) -> bool {
        let Some(root) = self.store.meta().root else {
            return false;
        };
        let mut path = Vec::new();
        let Some(leaf) = self.find_leaf(root, rect, data, &mut path) else {
            return false;
        };
        let mut node = self.store.read(leaf);
        let pos = node
            .entries
            .iter()
            .position(|e| e.child == EntryRef::Data(data) && e.mbr == *rect)
            .expect("find_leaf verified presence");
        node.entries.remove(pos);
        self.store.write(leaf, &node);
        self.condense(leaf, path);
        let mut meta = self.store.meta();
        meta.len -= 1;
        self.store.set_meta(meta);
        true
    }

    fn find_leaf(
        &self,
        id: NodeId,
        rect: &Rect,
        data: u64,
        path: &mut Vec<(NodeId, usize)>,
    ) -> Option<NodeId> {
        self.store.visit(id, |node| {
            if node.is_leaf() {
                let found = node
                    .entries
                    .iter()
                    .any(|e| e.child == EntryRef::Data(data) && e.mbr == *rect);
                return found.then_some(id);
            }
            for (i, e) in node.entries.iter().enumerate() {
                if !e.mbr.contains(rect) {
                    continue;
                }
                let child = e.child.node().expect("internal entry");
                path.push((id, i));
                if let Some(found) = self.find_leaf(child, rect, data, path) {
                    return Some(found);
                }
                path.pop();
            }
            None
        })
    }

    fn condense(&mut self, leaf: NodeId, mut path: Vec<(NodeId, usize)>) {
        let mut orphans: Vec<Node> = Vec::new();
        let mut current = leaf;
        while let Some((pid, idx)) = path.pop() {
            let node = self.store.read(current);
            let mut parent = self.store.read(pid);
            if node.entries.len() < self.config.min_entries {
                parent.entries.remove(idx);
                self.store.write(pid, &parent);
                self.store.free(current);
                orphans.push(node);
            } else {
                parent.entries[idx].mbr = node.mbr().expect("non-underflowing node");
                self.store.write(pid, &parent);
            }
            current = pid;
        }
        if !orphans.is_empty() {
            self.bump_structure_version();
        }
        for orphan in orphans {
            let level = orphan.level;
            for e in orphan.entries {
                self.insert_entry(e, level, &mut 0);
            }
        }
        self.shrink_root();
    }

    /// Records a structural reorganization — entries moving between nodes
    /// — in the persisted metadata. Offloading clients validate this
    /// counter after every traversal (see [`TreeMeta`]).
    fn bump_structure_version(&mut self) {
        let mut meta = self.store.meta();
        meta.structure_version += 1;
        self.store.set_meta(meta);
    }

    /// Collapses trivial roots: an internal root with one child is replaced
    /// by that child; an empty leaf root empties the tree.
    fn shrink_root(&mut self) {
        enum Shrink {
            Done,
            FreeEmptyLeaf,
            Collapse(NodeId),
        }
        let mut meta = self.store.meta();
        let mut changed = false;
        while let Some(root) = meta.root {
            let action = self.store.visit(root, |node| {
                if node.is_leaf() {
                    if node.entries.is_empty() {
                        Shrink::FreeEmptyLeaf
                    } else {
                        Shrink::Done
                    }
                } else if node.entries.len() == 1 {
                    Shrink::Collapse(node.entries[0].child.node().expect("internal entry"))
                } else {
                    Shrink::Done
                }
            });
            match action {
                Shrink::Done => break,
                Shrink::FreeEmptyLeaf => {
                    self.store.free(root);
                    meta.root = None;
                    meta.height = 0;
                    changed = true;
                    break;
                }
                Shrink::Collapse(child) => {
                    self.store.free(root);
                    meta.root = Some(child);
                    meta.height -= 1;
                    changed = true;
                }
            }
        }
        if changed {
            meta.structure_version += 1;
            self.store.set_meta(meta);
        }
    }

    // -----------------------------------------------------------------
    // Validation
    // -----------------------------------------------------------------

    /// Checks every structural invariant of the tree, for tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: level
    /// monotonicity, fanout bounds, exact parent MBRs, leaf tagging, node
    /// uniqueness, or metadata consistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        let meta = self.store.meta();
        let Some(root) = meta.root else {
            if meta.height != 0 || meta.len != 0 {
                return Err("empty tree with nonzero height or len".into());
            }
            return Ok(());
        };
        let root_level = self.store.visit(root, |n| n.level);
        if meta.height != root_level + 1 {
            return Err(format!(
                "height {} disagrees with root level {root_level}",
                meta.height
            ));
        }
        let mut seen = HashSet::new();
        let mut items = 0u64;
        self.check_node(root, root_level, true, &mut seen, &mut items)?;
        if items != meta.len {
            return Err(format!("meta.len {} but counted {} items", meta.len, items));
        }
        Ok(())
    }

    fn check_node(
        &self,
        id: NodeId,
        expected_level: u32,
        is_root: bool,
        seen: &mut HashSet<NodeId>,
        items: &mut u64,
    ) -> Result<Rect, String> {
        if !seen.insert(id) {
            return Err(format!("node {id} reachable twice"));
        }
        self.store.visit(id, |node| {
            if node.level != expected_level {
                return Err(format!(
                    "node {id} at level {} but expected {expected_level}",
                    node.level
                ));
            }
            let count = node.entries.len();
            let min_allowed = if is_root {
                if node.is_leaf() {
                    1
                } else {
                    2
                }
            } else {
                self.config.min_entries
            };
            if count < min_allowed || count > self.config.max_entries {
                return Err(format!(
                    "node {id} has {count} entries (allowed {min_allowed}..={})",
                    self.config.max_entries
                ));
            }
            for e in &node.entries {
                match e.child {
                    EntryRef::Data(_) => {
                        if !node.is_leaf() {
                            return Err(format!("internal node {id} holds a data entry"));
                        }
                        *items += 1;
                    }
                    EntryRef::Node(child) => {
                        if node.is_leaf() {
                            return Err(format!("leaf {id} holds a node entry"));
                        }
                        let child_mbr =
                            self.check_node(child, expected_level - 1, false, seen, items)?;
                        if child_mbr != e.mbr {
                            return Err(format!(
                                "node {id} entry MBR {:?} differs from child {child} MBR {child_mbr:?}",
                                e.mbr
                            ));
                        }
                    }
                }
            }
            node.mbr().ok_or_else(|| format!("node {id} is empty"))
        })
    }
}

/// The R\* key of `entries[i]` as the parent of a new leaf entry `mbr`:
/// `(overlap enlargement, area enlargement, area)`.
fn overlap_key(entries: &[Entry], i: usize, mbr: &Rect) -> (f64, f64, f64) {
    let e = &entries[i];
    let enlarged = e.mbr.union(mbr);
    let mut overlap_before = 0.0;
    let mut overlap_after = 0.0;
    for (j, o) in entries.iter().enumerate() {
        if i == j {
            continue;
        }
        overlap_before += e.mbr.intersection_area(&o.mbr);
        overlap_after += enlarged.intersection_area(&o.mbr);
    }
    (
        overlap_after - overlap_before,
        e.mbr.enlargement(mbr),
        e.mbr.area(),
    )
}

/// R\* ChooseSubtree when the children are leaves: the index with the
/// least [`overlap_key`], the first one on ties.
///
/// Each key costs O(M) intersection areas, so computing all of them is
/// O(M²). The overlap enlargement is never negative: the enlarged
/// rectangle contains the entry, and rounded min/max, subtraction,
/// multiplication and summation are all monotone, so every after-term and
/// every partial after-sum is at least its before-counterpart. Hence
/// `((0, enlargement, area), i)` is a lower bound on `(key, i)`.
/// Candidates are visited in that bound's order, and the scan stops at
/// the first bound above the best `(key, index)` so far: the pick is
/// exactly the exhaustive scan's. The order argument needs finite keys;
/// with any non-finite bound or key every key is computed in index order.
fn choose_leaf_parent(entries: &[Entry], mbr: &Rect) -> usize {
    let exhaustive = || {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for i in 0..entries.len() {
            let key = overlap_key(entries, i, mbr);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    };
    let bounds: Vec<(f64, f64, f64)> = entries
        .iter()
        .map(|e| (0.0, e.mbr.enlargement(mbr), e.mbr.area()))
        .collect();
    if !bounds.iter().all(|b| b.1.is_finite() && b.2.is_finite()) {
        return exhaustive();
    }
    // `(key or bound, index)` pairs, compared lexicographically.
    type Ranked = ((f64, f64, f64), usize);
    let mut best: Option<Ranked> = None;
    let mut prev: Option<Ranked> = None;
    loop {
        // The next candidate in (bound, index) order.
        let mut next: Option<Ranked> = None;
        for (i, &b) in bounds.iter().enumerate() {
            let cand = (b, i);
            if prev.is_none_or(|p| cand > p) && next.is_none_or(|n| cand < n) {
                next = Some(cand);
            }
        }
        let Some(cand) = next else { break };
        if best.is_some_and(|b| cand > b) {
            break;
        }
        let i = cand.1;
        let key = overlap_key(entries, i, mbr);
        if !key.0.is_finite() {
            return exhaustive();
        }
        if best.is_none_or(|b| (key, i) < b) {
            best = Some((key, i));
        }
        prev = Some(cand);
    }
    best.map_or(0, |(_, i)| i)
}

/// Streaming iterator returned by [`RTree::iter`].
pub struct Iter<'a, S> {
    tree: &'a RTree<S>,
    stack: Vec<NodeId>,
    pending: Vec<(Rect, u64)>,
}

impl<S> std::fmt::Debug for Iter<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iter")
            .field("stack_depth", &self.stack.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<S: NodeStore> Iterator for Iter<'_, S> {
    type Item = (Rect, u64);

    fn next(&mut self) -> Option<(Rect, u64)> {
        let Iter {
            tree,
            stack,
            pending,
        } = self;
        loop {
            if let Some(item) = pending.pop() {
                return Some(item);
            }
            let id = stack.pop()?;
            tree.store.visit(id, |node| {
                for e in &node.entries {
                    match e.child {
                        EntryRef::Data(d) => pending.push((e.mbr, d)),
                        EntryRef::Node(c) => stack.push(c),
                    }
                }
            });
        }
    }
}

impl<'a, S: NodeStore> IntoIterator for &'a RTree<S> {
    type Item = (Rect, u64);
    type IntoIter = Iter<'a, S>;
    fn into_iter(self) -> Iter<'a, S> {
        self.iter()
    }
}

impl<S: NodeStore> Extend<(Rect, u64)> for RTree<S> {
    fn extend<I: IntoIterator<Item = (Rect, u64)>>(&mut self, iter: I) {
        for (rect, data) in iter {
            self.insert(rect, data);
        }
    }
}

impl FromIterator<(Rect, u64)> for RTree<crate::store::MemStore> {
    fn from_iter<I: IntoIterator<Item = (Rect, u64)>>(iter: I) -> Self {
        let mut tree = RTree::new(crate::store::MemStore::new(), RTreeConfig::default());
        tree.extend(iter);
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use proptest::prelude::*;

    /// The exhaustive level-1 ChooseSubtree scan the pruned
    /// [`choose_leaf_parent`] replaced, kept verbatim as its oracle.
    fn choose_leaf_parent_exhaustive(entries: &[Entry], mbr: &Rect) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.mbr.union(mbr);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for (j, o) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_before += e.mbr.intersection_area(&o.mbr);
                overlap_after += enlarged.intersection_area(&o.mbr);
            }
            let key = (
                overlap_after - overlap_before,
                e.mbr.enlargement(mbr),
                e.mbr.area(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    fn leaf_parent(rects: &[Rect]) -> Vec<Entry> {
        (0u32..)
            .zip(rects)
            .map(|(i, &r)| Entry::node(r, NodeId(i + 1)))
            .collect()
    }

    /// Rectangles on a coarse integer grid, so duplicates, zero-area
    /// rectangles and exact key ties are common.
    fn grid_rect() -> impl Strategy<Value = Rect> {
        (0u32..8, 0u32..8, 0u32..3, 0u32..3).prop_map(|(x, y, w, h)| {
            let (x, y) = (f64::from(x), f64::from(y));
            Rect::new(x, y, x + f64::from(w), y + f64::from(h))
        })
    }

    fn float_rect() -> impl Strategy<Value = Rect> {
        (0.0f64..10.0, 0.0f64..10.0, 0.0f64..3.0, 0.0f64..3.0)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    }

    /// Children that all contain the centre point `(5, 5)`, with grid
    /// extents, so a small insert lands inside several of them at once.
    fn around_centre() -> impl Strategy<Value = Rect> {
        (0u32..4, 0u32..4, 0u32..4, 0u32..4).prop_map(|(a, b, c, d)| {
            Rect::new(
                5.0 - f64::from(a),
                5.0 - f64::from(b),
                5.0 + f64::from(c),
                5.0 + f64::from(d),
            )
        })
    }

    fn any_rect() -> impl Strategy<Value = Rect> {
        prop_oneof![grid_rect(), float_rect(), around_centre()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The pruned scan picks the exhaustive scan's index on random
        /// leaf-parent nodes up to the largest chunk fanout.
        #[test]
        fn pruned_choose_subtree_matches_exhaustive(
            rects in prop::collection::vec(any_rect(), 2..129),
            insert in any_rect(),
        ) {
            let entries = leaf_parent(&rects);
            prop_assert_eq!(
                choose_leaf_parent(&entries, &insert),
                choose_leaf_parent_exhaustive(&entries, &insert)
            );
        }

        /// Same, with every child drawn from the small grid: most keys
        /// tie with another child's.
        #[test]
        fn pruned_choose_subtree_matches_exhaustive_on_ties(
            rects in prop::collection::vec(grid_rect(), 2..90),
            insert in grid_rect(),
        ) {
            let entries = leaf_parent(&rects);
            prop_assert_eq!(
                choose_leaf_parent(&entries, &insert),
                choose_leaf_parent_exhaustive(&entries, &insert)
            );
        }
    }

    #[test]
    fn pruned_choose_subtree_edge_cases() {
        let r = Rect::new;
        let cases: Vec<(Vec<Rect>, Rect)> = vec![
            // Duplicate children: every key ties, the first index wins.
            (vec![r(0.0, 0.0, 1.0, 1.0); 5], Rect::point(0.5, 0.5)),
            // Zero-area children and a zero-area insert.
            (
                vec![
                    Rect::point(1.0, 1.0),
                    r(0.0, 2.0, 4.0, 2.0),
                    Rect::point(1.0, 1.0),
                    r(3.0, 0.0, 3.0, 5.0),
                ],
                Rect::point(1.0, 1.0),
            ),
            // An insert contained in several children of different area.
            (
                vec![
                    r(0.0, 0.0, 10.0, 10.0),
                    r(4.0, 4.0, 6.0, 6.0),
                    r(20.0, 20.0, 21.0, 21.0),
                    r(3.0, 3.0, 7.0, 7.0),
                    r(4.0, 4.0, 6.0, 6.0),
                ],
                r(4.5, 4.5, 5.0, 5.0),
            ),
            // Exact ties on overlap and enlargement, broken by area.
            (
                vec![
                    r(0.0, 0.0, 2.0, 1.0),
                    r(10.0, 0.0, 11.0, 1.0),
                    r(0.0, 10.0, 1.0, 11.0),
                ],
                r(5.0, 5.0, 5.0, 5.0),
            ),
            // Areas that overflow to infinity: the non-finite fallback.
            (
                vec![
                    r(-1e300, -1e300, 1e300, 1e300),
                    r(0.0, 0.0, 1.0, 1.0),
                    r(-1e300, 0.0, 1e300, 1e300),
                ],
                r(0.5, 0.5, 2.0, 2.0),
            ),
        ];
        for (rects, insert) in cases {
            let entries = leaf_parent(&rects);
            assert_eq!(
                choose_leaf_parent(&entries, &insert),
                choose_leaf_parent_exhaustive(&entries, &insert),
                "children {rects:?}, insert {insert:?}"
            );
        }
    }

    #[test]
    fn pruned_choose_subtree_picks_the_expected_child() {
        let r = Rect::new;
        // Contained in children 0, 1, 3 and 4 with zero overlap growth;
        // 1 and 4 tie on the smallest area, and the lower index wins.
        let entries = leaf_parent(&[
            r(0.0, 0.0, 10.0, 10.0),
            r(4.0, 4.0, 6.0, 6.0),
            r(20.0, 20.0, 21.0, 21.0),
            r(3.0, 3.0, 7.0, 7.0),
            r(4.0, 4.0, 6.0, 6.0),
        ]);
        assert_eq!(choose_leaf_parent(&entries, &r(4.5, 4.5, 5.0, 5.0)), 1);
    }

    fn small_config() -> RTreeConfig {
        RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            reinsert_count: 1,
        }
    }

    fn grid_tree(n: u64, config: RTreeConfig) -> RTree<MemStore> {
        let mut tree = RTree::new(MemStore::new(), config);
        let side = (n as f64).sqrt().ceil() as u64;
        for i in 0..n {
            let x = (i % side) as f64;
            let y = (i / side) as f64;
            tree.insert(Rect::new(x, y, x + 0.5, y + 0.5), i);
        }
        tree
    }

    #[test]
    fn empty_tree_searches_empty() {
        let tree: RTree<MemStore> = RTree::new(MemStore::new(), small_config());
        assert!(tree.search(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn single_insert_found() {
        let mut tree = RTree::new(MemStore::new(), small_config());
        tree.insert(Rect::new(0.4, 0.4, 0.6, 0.6), 7);
        assert_eq!(tree.search(&Rect::new(0.0, 0.0, 1.0, 1.0)), vec![7]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn inserts_grow_tree_and_stay_findable() {
        let tree = grid_tree(200, small_config());
        tree.check_invariants().unwrap();
        assert!(tree.height() >= 3);
        // Every item findable by point query at its own location.
        for (rect, id) in tree.items() {
            let hits = tree.search(&rect);
            assert!(hits.contains(&id), "item {id} lost");
        }
    }

    #[test]
    fn search_matches_linear_scan() {
        let tree = grid_tree(150, small_config());
        let query = Rect::new(2.2, 3.1, 6.7, 8.4);
        let mut expected: Vec<u64> = tree
            .items()
            .into_iter()
            .filter(|(r, _)| r.intersects(&query))
            .map(|(_, d)| d)
            .collect();
        let mut got = tree.search(&query);
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn search_stats_count_visits_and_results() {
        let tree = grid_tree(100, small_config());
        let mut out = Vec::new();
        let stats = tree.search_into(&Rect::new(0.0, 0.0, 20.0, 20.0), &mut out);
        assert_eq!(stats.results, 100);
        assert_eq!(out.len(), 100);
        // Full-coverage query must visit every node in the tree.
        assert_eq!(stats.nodes_visited, tree.store().node_count());
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let tree = grid_tree(100, small_config());
        assert!(tree
            .search(&Rect::new(100.0, 100.0, 101.0, 101.0))
            .is_empty());
    }

    #[test]
    fn delete_removes_and_preserves_invariants() {
        let mut tree = grid_tree(120, small_config());
        let items = tree.items();
        for (i, (rect, id)) in items.iter().enumerate().take(60) {
            assert!(tree.delete(rect, *id), "delete #{i} failed");
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("after delete #{i}: {e}"));
        }
        assert_eq!(tree.len(), 60);
        // Remaining items still findable.
        for (rect, id) in tree.items() {
            assert!(tree.search(&rect).contains(&id));
        }
    }

    #[test]
    fn delete_to_empty() {
        let mut tree = grid_tree(50, small_config());
        for (rect, id) in tree.items() {
            assert!(tree.delete(&rect, id));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.store().node_count(), 0, "all nodes freed");
        tree.check_invariants().unwrap();
    }

    #[test]
    fn delete_missing_returns_false() {
        let mut tree = grid_tree(10, small_config());
        assert!(!tree.delete(&Rect::new(50.0, 50.0, 51.0, 51.0), 999));
        assert!(!tree.delete(&Rect::new(0.0, 0.0, 0.5, 0.5), 999)); // right rect, wrong id
        assert_eq!(tree.len(), 10);
    }

    #[test]
    fn duplicate_rectangles_coexist() {
        let mut tree = RTree::new(MemStore::new(), small_config());
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        for i in 0..20 {
            tree.insert(r, i);
        }
        let mut hits = tree.search(&r);
        hits.sort_unstable();
        assert_eq!(hits, (0..20).collect::<Vec<u64>>());
        assert!(tree.delete(&r, 13));
        assert!(!tree.search(&r).contains(&13));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reinsert_then_split_keeps_items() {
        // Enough items at one spot to trigger both reinsertion and splits.
        let mut tree = RTree::new(MemStore::new(), RTreeConfig::default());
        for i in 0..500u64 {
            let x = (i as f64 * 0.618034) % 1.0;
            let y = (i as f64 * 0.414214) % 1.0;
            tree.insert(
                Rect::centered(x.clamp(0.01, 0.99), y.clamp(0.01, 0.99), 0.01, 0.01),
                i,
            );
        }
        tree.check_invariants().unwrap();
        let all = tree.search(&Rect::new(-1.0, -1.0, 2.0, 2.0));
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn open_preserves_existing_tree() {
        let tree = grid_tree(30, small_config());
        let store = tree.into_store();
        let reopened = RTree::open(store, small_config());
        assert_eq!(reopened.len(), 30);
        reopened.check_invariants().unwrap();
    }

    #[test]
    fn items_returns_everything() {
        let tree = grid_tree(64, small_config());
        let mut ids: Vec<u64> = tree.items().into_iter().map(|(_, d)| d).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn iter_streams_every_item() {
        let tree = grid_tree(150, small_config());
        let mut from_iter: Vec<u64> = tree.iter().map(|(_, d)| d).collect();
        let mut from_items: Vec<u64> = tree.items().into_iter().map(|(_, d)| d).collect();
        from_iter.sort_unstable();
        from_items.sort_unstable();
        assert_eq!(from_iter, from_items);
        assert_eq!(from_iter.len(), 150);
        // IntoIterator for &RTree works in a for loop.
        let mut count = 0;
        for (_, _) in &tree {
            count += 1;
        }
        assert_eq!(count, 150);
    }

    #[test]
    fn extend_and_from_iterator() {
        let items: Vec<(Rect, u64)> = (0..50u64)
            .map(|i| {
                let x = i as f64;
                (Rect::new(x, 0.0, x + 0.5, 0.5), i)
            })
            .collect();
        let tree: RTree<MemStore> = items.iter().copied().collect();
        assert_eq!(tree.len(), 50);
        tree.check_invariants().unwrap();
        let mut tree = tree;
        tree.extend((50..60u64).map(|i| (Rect::point(i as f64, 1.0), i)));
        assert_eq!(tree.len(), 60);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn chunk_store_backed_tree_behaves_identically() {
        use crate::chunk::ChunkStore;
        use crate::codec::ChunkLayout;
        let config = RTreeConfig::default();
        let layout = ChunkLayout::for_max_entries(config.max_entries);
        let mem = vec![0u8; layout.arena_bytes(4096)];
        let mut chunk_tree = RTree::new(ChunkStore::new(mem, layout), config);
        let mut mem_tree = RTree::new(MemStore::new(), config);
        for i in 0..300u64 {
            let x = (i as f64 * 0.7548777) % 10.0;
            let y = (i as f64 * 0.5698403) % 10.0;
            let r = Rect::new(x, y, x + 0.2, y + 0.2);
            chunk_tree.insert(r, i);
            mem_tree.insert(r, i);
        }
        chunk_tree.check_invariants().unwrap();
        let q = Rect::new(1.0, 1.0, 6.0, 6.0);
        let mut a = chunk_tree.search(&q);
        let mut b = mem_tree.search(&q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
