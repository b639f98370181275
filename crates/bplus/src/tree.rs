//! The B+-tree: lookup, range scan, insert with splits, delete with
//! borrow/merge rebalancing.

use catfish_rtree::{NodeId, TreeMeta};

use crate::node::{BpConfig, BpNode, BpRefs};
use crate::store::BpStore;

/// A B+-tree mapping `u64` keys to `u64` values, over a pluggable store.
///
/// # Examples
///
/// ```
/// use catfish_bplus::{BpConfig, BpMemStore, BpTree};
///
/// let mut tree = BpTree::new(BpMemStore::new(), BpConfig::with_max_keys(4));
/// for k in 0..100u64 {
///     tree.insert(k, k * 10);
/// }
/// assert_eq!(tree.get(42), Some(420));
/// assert_eq!(tree.range(10, 13), vec![(10, 100), (11, 110), (12, 120), (13, 130)]);
/// ```
#[derive(Debug)]
pub struct BpTree<S> {
    store: S,
    config: BpConfig,
}

impl<S: BpStore> BpTree<S> {
    /// Creates an empty tree over `store`.
    pub fn new(mut store: S, config: BpConfig) -> Self {
        store.set_meta(TreeMeta::default());
        BpTree { store, config }
    }

    /// Opens a store that already holds a tree.
    pub fn open(store: S, config: BpConfig) -> Self {
        BpTree { store, config }
    }

    /// The fanout configuration.
    pub fn config(&self) -> BpConfig {
        self.config
    }

    /// Shared access to the store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Number of key-value pairs.
    pub fn len(&self) -> u64 {
        self.store.meta().len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of levels.
    pub fn height(&self) -> u32 {
        self.store.meta().height
    }

    /// Index of the child covering `key` in an internal node.
    fn child_index(node: &BpNode, key: u64) -> usize {
        node.keys.partition_point(|k| *k <= key)
    }

    /// Looks up `key` (borrowed read path — no per-node allocation).
    pub fn get(&self, key: u64) -> Option<u64> {
        let mut id = self.store.meta().root?;
        loop {
            let step = self.store.visit(id, |node| {
                if node.is_leaf() {
                    Err(match node.keys.binary_search(&key) {
                        Ok(i) => Some(node.values()[i]),
                        Err(_) => None,
                    })
                } else {
                    Ok(node.children()[Self::child_index(node, key)])
                }
            });
            match step {
                Err(hit) => return hit,
                Ok(child) => id = child,
            }
        }
    }

    /// All pairs with `lo <= key <= hi`, in key order (walks the leaf
    /// chain over the borrowed read path).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let Some(root) = self.store.meta().root else {
            return out;
        };
        // Descend to the leaf that would contain `lo`.
        let mut id = root;
        while let Some(child) = self.store.visit(id, |node| {
            if node.is_leaf() {
                None
            } else {
                Some(node.children()[Self::child_index(node, lo)])
            }
        }) {
            id = child;
        }
        let mut cursor = Some(id);
        while let Some(id) = cursor {
            cursor = self.store.visit(id, |node| {
                for (i, &k) in node.keys.iter().enumerate() {
                    if k > hi {
                        // Keys past `hi` end the scan: later leaves only
                        // hold larger keys.
                        return None;
                    }
                    if k >= lo {
                        out.push((k, node.values()[i]));
                    }
                }
                node.next
            });
        }
        out
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let mut meta = self.store.meta();
        let Some(root) = meta.root else {
            let id = self.store.alloc();
            let mut leaf = BpNode::leaf();
            leaf.keys.push(key);
            leaf.values_mut().push(value);
            self.store.write(id, &leaf);
            meta.root = Some(id);
            meta.height = 1;
            meta.len = 1;
            self.store.set_meta(meta);
            return None;
        };
        // Descend, recording the path (borrowed reads — only the leaf
        // needs an owned copy for mutation).
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut id = root;
        while let Some((idx, child)) = self.store.visit(id, |node| {
            if node.is_leaf() {
                None
            } else {
                let idx = Self::child_index(node, key);
                Some((idx, node.children()[idx]))
            }
        }) {
            path.push((id, idx));
            id = child;
        }
        let mut leaf = self.store.read(id);
        match leaf.keys.binary_search(&key) {
            Ok(i) => {
                let old = leaf.values()[i];
                leaf.values_mut()[i] = value;
                self.store.write(id, &leaf);
                return Some(old);
            }
            Err(i) => {
                leaf.keys.insert(i, key);
                leaf.values_mut().insert(i, value);
            }
        }
        if leaf.keys.len() <= self.config.max_keys {
            self.store.write(id, &leaf);
        } else {
            // Split the leaf.
            self.bump_structure_version();
            let mid = leaf.keys.len() / 2;
            let right_keys = leaf.keys.split_off(mid);
            let right_vals = leaf.values_mut().split_off(mid);
            let sep = right_keys[0];
            let right_id = self.store.alloc();
            let right = BpNode {
                level: 0,
                keys: right_keys,
                refs: BpRefs::Values(right_vals),
                next: leaf.next,
            };
            leaf.next = Some(right_id);
            self.store.write(right_id, &right);
            self.store.write(id, &leaf);
            self.insert_into_parent(path, id, sep, right_id);
        }
        let mut meta = self.store.meta();
        meta.len += 1;
        self.store.set_meta(meta);
        None
    }

    /// Inserts the separator/right pair produced by a split into the
    /// parent, splitting upward as needed.
    fn insert_into_parent(
        &mut self,
        mut path: Vec<(NodeId, usize)>,
        left: NodeId,
        sep: u64,
        right: NodeId,
    ) {
        let Some((pid, idx)) = path.pop() else {
            // Split reached the root: grow the tree.
            let old_root_level = self.store.visit(left, |n| n.level);
            let new_root_id = self.store.alloc();
            let new_root = BpNode {
                level: old_root_level + 1,
                keys: vec![sep],
                refs: BpRefs::Children(vec![left, right]),
                next: None,
            };
            self.store.write(new_root_id, &new_root);
            let mut meta = self.store.meta();
            meta.root = Some(new_root_id);
            meta.height += 1;
            self.store.set_meta(meta);
            return;
        };
        let mut parent = self.store.read(pid);
        parent.keys.insert(idx, sep);
        parent.children_mut().insert(idx + 1, right);
        if parent.keys.len() <= self.config.max_keys {
            self.store.write(pid, &parent);
            return;
        }
        // Split the internal node; the middle key moves up.
        let mid = parent.keys.len() / 2;
        let sep_up = parent.keys[mid];
        let right_keys: Vec<u64> = parent.keys.split_off(mid + 1);
        parent.keys.pop(); // drop sep_up from the left node
        let right_children: Vec<NodeId> = parent.children_mut().split_off(mid + 1);
        let right_id = self.store.alloc();
        let right_node = BpNode {
            level: parent.level,
            keys: right_keys,
            refs: BpRefs::Children(right_children),
            next: None,
        };
        self.store.write(right_id, &right_node);
        self.store.write(pid, &parent);
        self.insert_into_parent(path, pid, sep_up, right_id);
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let root = self.store.meta().root?;
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut id = root;
        while let Some((idx, child)) = self.store.visit(id, |node| {
            if node.is_leaf() {
                None
            } else {
                let idx = Self::child_index(node, key);
                Some((idx, node.children()[idx]))
            }
        }) {
            path.push((id, idx));
            id = child;
        }
        let mut leaf = self.store.read(id);
        let pos = leaf.keys.binary_search(&key).ok()?;
        let old = leaf.values()[pos];
        leaf.keys.remove(pos);
        leaf.values_mut().remove(pos);
        self.store.write(id, &leaf);
        self.rebalance(id, path);
        let mut meta = self.store.meta();
        meta.len -= 1;
        self.store.set_meta(meta);
        Some(old)
    }

    /// Restores fanout invariants from `id` upward after a removal.
    fn rebalance(&mut self, mut id: NodeId, mut path: Vec<(NodeId, usize)>) {
        let min = self.config.min_keys();
        loop {
            let node = self.store.read(id);
            let Some((pid, idx)) = path.pop() else {
                // `id` is the root.
                let mut meta = self.store.meta();
                if node.is_leaf() {
                    if node.keys.is_empty() {
                        self.store.free(id);
                        meta.root = None;
                        meta.height = 0;
                        meta.structure_version += 1;
                        self.store.set_meta(meta);
                    }
                } else if node.keys.is_empty() {
                    // Internal root with a single child: collapse.
                    let child = node.children()[0];
                    self.store.free(id);
                    meta.root = Some(child);
                    meta.height -= 1;
                    meta.structure_version += 1;
                    self.store.set_meta(meta);
                }
                return;
            };
            if node.keys.len() >= min {
                return;
            }
            // A borrow or merge follows: keys move between nodes.
            self.bump_structure_version();
            let mut parent = self.store.read(pid);
            // Try borrowing from the left sibling.
            if idx > 0 {
                let left_id = parent.children()[idx - 1];
                let mut left = self.store.read(left_id);
                if left.keys.len() > min {
                    let mut node = node;
                    if node.is_leaf() {
                        let k = left.keys.pop().expect("left non-empty");
                        let v = left.values_mut().pop().expect("parallel");
                        node.keys.insert(0, k);
                        node.values_mut().insert(0, v);
                        parent.keys[idx - 1] = node.keys[0];
                    } else {
                        let sep = parent.keys[idx - 1];
                        let k = left.keys.pop().expect("left non-empty");
                        let c = left.children_mut().pop().expect("parallel");
                        node.keys.insert(0, sep);
                        node.children_mut().insert(0, c);
                        parent.keys[idx - 1] = k;
                    }
                    self.store.write(left_id, &left);
                    self.store.write(id, &node);
                    self.store.write(pid, &parent);
                    return;
                }
            }
            // Try borrowing from the right sibling.
            if idx + 1 < parent.children().len() {
                let right_id = parent.children()[idx + 1];
                let mut right = self.store.read(right_id);
                if right.keys.len() > min {
                    let mut node = node;
                    if node.is_leaf() {
                        let k = right.keys.remove(0);
                        let v = right.values_mut().remove(0);
                        node.keys.push(k);
                        node.values_mut().push(v);
                        parent.keys[idx] = right.keys[0];
                    } else {
                        let sep = parent.keys[idx];
                        let k = right.keys.remove(0);
                        let c = right.children_mut().remove(0);
                        node.keys.push(sep);
                        node.children_mut().push(c);
                        parent.keys[idx] = k;
                    }
                    self.store.write(right_id, &right);
                    self.store.write(id, &node);
                    self.store.write(pid, &parent);
                    return;
                }
            }
            // Merge with a sibling (left preferred). After merging, the
            // parent lost a key and may itself underflow.
            let (li, ri) = if idx > 0 {
                (idx - 1, idx)
            } else {
                (idx, idx + 1)
            };
            let left_id = parent.children()[li];
            let right_id = parent.children()[ri];
            let mut left = self.store.read(left_id);
            let right = self.store.read(right_id);
            if left.is_leaf() {
                left.keys.extend(right.keys.iter().copied());
                left.values_mut().extend(right.values().iter().copied());
                left.next = right.next;
            } else {
                left.keys.push(parent.keys[li]);
                left.keys.extend(right.keys.iter().copied());
                left.children_mut().extend(right.children().iter().copied());
            }
            parent.keys.remove(li);
            parent.children_mut().remove(ri);
            self.store.write(left_id, &left);
            self.store.write(pid, &parent);
            self.store.free(right_id);
            id = pid;
        }
    }

    /// Records a structural reorganization — keys moving between nodes —
    /// in the persisted metadata. Offloading clients validate this
    /// counter after multi-chunk traversals (see [`TreeMeta`]).
    fn bump_structure_version(&mut self) {
        let mut meta = self.store.meta();
        meta.structure_version += 1;
        self.store.set_meta(meta);
    }

    /// Checks every structural invariant (tests).
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let meta = self.store.meta();
        let Some(root) = meta.root else {
            return if meta.height == 0 && meta.len == 0 {
                Ok(())
            } else {
                Err("empty tree with nonzero meta".into())
            };
        };
        let root_level = self.store.visit(root, |n| n.level);
        if meta.height != root_level + 1 {
            return Err("height/root level mismatch".into());
        }
        let mut leaves = Vec::new();
        let mut count = 0u64;
        self.check_node(root, root_level, true, None, None, &mut leaves, &mut count)?;
        if count != meta.len {
            return Err(format!("meta.len {} but counted {count}", meta.len));
        }
        // Leaf chain must enumerate the leaves in order.
        let mut chain = Vec::new();
        let mut cursor = Some(*leaves.first().expect("non-empty tree has leaves"));
        while let Some(id) = cursor {
            chain.push(id);
            cursor = self.store.visit(id, |n| n.next);
        }
        if chain != leaves {
            return Err(format!(
                "leaf chain {chain:?} != in-order leaves {leaves:?}"
            ));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        id: NodeId,
        expected_level: u32,
        is_root: bool,
        lo: Option<u64>,
        hi: Option<u64>,
        leaves: &mut Vec<NodeId>,
        count: &mut u64,
    ) -> Result<(), String> {
        // The recursion below nests visits; chunk-backed stores keep one
        // scratch entry alive per level.
        self.store.visit(id, |node| {
            if node.level != expected_level {
                return Err(format!("node {id} at wrong level"));
            }
            if !node.keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {id} keys unsorted"));
            }
            let min = if is_root { 1 } else { self.config.min_keys() };
            if node.keys.len() < min || node.keys.len() > self.config.max_keys {
                return Err(format!(
                    "node {id} has {} keys (allowed {min}..={})",
                    node.keys.len(),
                    self.config.max_keys
                ));
            }
            for &k in &node.keys {
                if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k >= h) {
                    return Err(format!("node {id} key {k} outside ({lo:?}, {hi:?})"));
                }
            }
            match &node.refs {
                BpRefs::Values(vals) => {
                    if vals.len() != node.keys.len() {
                        return Err(format!("leaf {id} slots mismatch"));
                    }
                    leaves.push(id);
                    *count += node.keys.len() as u64;
                }
                BpRefs::Children(kids) => {
                    if kids.len() != node.keys.len() + 1 {
                        return Err(format!("internal {id} fanout mismatch"));
                    }
                    for (i, &child) in kids.iter().enumerate() {
                        let child_lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                        let child_hi = if i == node.keys.len() {
                            hi
                        } else {
                            Some(node.keys[i])
                        };
                        self.check_node(
                            child,
                            expected_level - 1,
                            false,
                            child_lo,
                            child_hi,
                            leaves,
                            count,
                        )?;
                    }
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BpMemStore;

    fn tree_with(n: u64, order: usize) -> BpTree<BpMemStore> {
        let mut t = BpTree::new(BpMemStore::new(), BpConfig::with_max_keys(order));
        // Insert in a scrambled but deterministic order.
        for i in 0..n {
            let k = (i * 2_654_435_761) % (n * 4);
            t.insert(k, k * 2);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: BpTree<BpMemStore> = BpTree::new(BpMemStore::new(), BpConfig::default());
        assert_eq!(t.get(5), None);
        assert!(t.range(0, 100).is_empty());
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn inserts_are_retrievable() {
        let t = tree_with(2_000, 8);
        t.check_invariants().unwrap();
        for i in 0..2_000u64 {
            let k = (i * 2_654_435_761) % 8_000;
            assert_eq!(t.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.get(8_001), None);
        assert!(t.height() >= 3);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut t = tree_with(100, 4);
        let k = (5u64 * 2_654_435_761) % 400;
        assert_eq!(t.insert(k, 999), Some(k * 2));
        assert_eq!(t.get(k), Some(999));
        let before = t.len();
        t.check_invariants().unwrap();
        assert_eq!(t.len(), before);
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let mut t = BpTree::new(BpMemStore::new(), BpConfig::with_max_keys(4));
        for k in (0..500u64).rev() {
            t.insert(k * 3, k);
        }
        let got = t.range(30, 90);
        let expect: Vec<(u64, u64)> = (10..=30).map(|k| (k * 3, k)).collect();
        assert_eq!(got, expect);
        // Open-ended coverage.
        assert_eq!(t.range(0, u64::MAX).len(), 500);
    }

    #[test]
    fn removals_rebalance() {
        let mut t = tree_with(1_000, 6);
        let keys: Vec<u64> = (0..1_000u64).map(|i| (i * 2_654_435_761) % 4_000).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.remove(k), Some(k * 2), "remove #{i}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after remove #{i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = tree_with(50, 4);
        assert_eq!(t.remove(999_999), None);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn mixed_workload_stays_valid() {
        let mut t = BpTree::new(BpMemStore::new(), BpConfig::with_max_keys(5));
        let mut present = std::collections::BTreeMap::new();
        let mut x: u64 = 12345;
        for step in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 500;
            if x.is_multiple_of(3) {
                let expect = present.remove(&k);
                assert_eq!(t.remove(k), expect, "step {step}");
            } else {
                let expect = present.insert(k, x);
                assert_eq!(t.insert(k, x), expect, "step {step}");
            }
        }
        t.check_invariants().unwrap();
        for (k, v) in present {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn chunk_store_backed_tree() {
        use crate::node::BpLayout;
        use crate::store::BpChunkStore;
        use catfish_rtree::codec::RemoteLayout;
        let layout = BpLayout::for_max_keys(8);
        let store = BpChunkStore::new(vec![0u8; layout.arena_bytes(4096)], layout);
        let mut t = BpTree::new(store, BpConfig::with_max_keys(8));
        for k in 0..3_000u64 {
            t.insert(k * 7 % 10_000, k);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.get(7), Some(1));
        let r = t.range(0, 50);
        assert!(!r.is_empty());
        assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
