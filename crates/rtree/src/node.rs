//! R-tree node and entry representations, and the fanout configuration.

use crate::geom::Rect;

/// Identifies a node within a [`NodeStore`](crate::store::NodeStore).
///
/// Also the chunk index in the RDMA-readable chunk layout: the node's byte
/// offset is `id * chunk_bytes` (chunk 0 is the tree metadata, so node ids start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What an entry points at: a child node (internal levels) or an opaque
/// data payload (leaf level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryRef {
    /// Child node of an internal entry.
    Node(NodeId),
    /// Payload of a leaf entry (e.g. an object id).
    Data(u64),
}

impl EntryRef {
    /// The child node id, if this is an internal entry.
    pub fn node(self) -> Option<NodeId> {
        match self {
            EntryRef::Node(id) => Some(id),
            EntryRef::Data(_) => None,
        }
    }

    /// The data payload, if this is a leaf entry.
    pub fn data(self) -> Option<u64> {
        match self {
            EntryRef::Data(d) => Some(d),
            EntryRef::Node(_) => None,
        }
    }
}

/// One slot of a node: a bounding rectangle plus what it bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Minimum bounding rectangle of the referent.
    pub mbr: Rect,
    /// Child node or data payload.
    pub child: EntryRef,
}

impl Entry {
    /// A leaf entry bounding a data object.
    pub fn data(mbr: Rect, payload: u64) -> Self {
        Entry {
            mbr,
            child: EntryRef::Data(payload),
        }
    }

    /// An internal entry bounding a child node.
    pub fn node(mbr: Rect, id: NodeId) -> Self {
        Entry {
            mbr,
            child: EntryRef::Node(id),
        }
    }
}

/// An R-tree node. `level == 0` means leaf; the root has the highest level.
/// The default is an empty leaf, as `Node::new(0)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Node {
    /// Height of this node above the leaves (leaf = 0).
    pub level: u32,
    /// The node's entries, at most `M` of them.
    pub entries: Vec<Entry>,
}

impl Node {
    /// An empty node at `level`.
    pub fn new(level: u32) -> Self {
        Node {
            level,
            entries: Vec::new(),
        }
    }

    /// True for leaf nodes (level 0).
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The minimum bounding rectangle of all entries.
    ///
    /// Returns `None` for an empty node.
    pub fn mbr(&self) -> Option<Rect> {
        Rect::union_all(self.entries.iter().map(|e| &e.mbr))
    }
}

/// Fanout and split-policy configuration for an R\*-tree.
///
/// The defaults follow the R\*-tree paper: `min_entries = 40% · M` and a
/// forced-reinsertion count of `30% · M`, with `M = 16` chosen so a node
/// fits one RDMA chunk (see [`crate::codec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`).
    pub min_entries: usize,
    /// Number of entries re-inserted on first overflow at a level (`p`).
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// A configuration derived from a maximum fanout, using the R\*-tree
    /// paper's recommended ratios (`m = 40% M`, `p = 30% M`).
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4`.
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max fanout must be at least 4");
        let min_entries = (max_entries * 2 / 5).max(2);
        let reinsert_count = (max_entries * 3 / 10).max(1);
        RTreeConfig {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `min_entries > max_entries / 2`, `min_entries < 2`, or the
    /// reinsertion count leaves fewer than `min_entries` entries behind.
    pub fn validate(&self) {
        assert!(self.min_entries >= 2, "min_entries must be at least 2");
        assert!(
            self.min_entries <= self.max_entries / 2,
            "min_entries must not exceed max_entries / 2"
        );
        assert!(
            self.reinsert_count >= 1 && self.reinsert_count <= self.max_entries - self.min_entries,
            "reinsert_count must be in [1, M - m]"
        );
    }
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig::with_max_entries(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = RTreeConfig::default();
        c.validate();
        assert_eq!(c.max_entries, 16);
        assert_eq!(c.min_entries, 6);
        assert_eq!(c.reinsert_count, 4);
    }

    #[test]
    fn with_max_entries_scales_ratios() {
        let c = RTreeConfig::with_max_entries(50);
        c.validate();
        assert_eq!(c.min_entries, 20);
        assert_eq!(c.reinsert_count, 15);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        let _ = RTreeConfig::with_max_entries(3);
    }

    #[test]
    fn node_mbr_folds_entries() {
        let mut n = Node::new(0);
        assert_eq!(n.mbr(), None);
        n.entries
            .push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 1));
        n.entries
            .push(Entry::data(Rect::new(2.0, 2.0, 3.0, 3.0), 2));
        assert_eq!(n.mbr(), Some(Rect::new(0.0, 0.0, 3.0, 3.0)));
    }

    #[test]
    fn entry_ref_accessors() {
        assert_eq!(EntryRef::Data(7).data(), Some(7));
        assert_eq!(EntryRef::Data(7).node(), None);
        assert_eq!(EntryRef::Node(NodeId(3)).node(), Some(NodeId(3)));
        assert_eq!(EntryRef::Node(NodeId(3)).data(), None);
    }

    #[test]
    fn leaf_detection() {
        assert!(Node::new(0).is_leaf());
        assert!(!Node::new(1).is_leaf());
    }
}
