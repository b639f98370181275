//! B+-tree node types and the versioned chunk codec.
//!
//! The wire format reuses the exact FaRM-style cache-line scheme of the
//! R-tree ([`catfish_rtree::codec`]): fixed-size chunks of 64-byte lines,
//! each stamped with the node version, validated on every read.

use catfish_rtree::codec::{
    chunk_version, read_packed, write_packed, CodecError, RemoteLayout, LINE_BYTES,
    LINE_PAYLOAD_BYTES, LINE_VERSION_BYTES,
};
use catfish_rtree::NodeId;

const NODE_MAGIC: u32 = 0x4250_4E44; // "BPND"
const HEADER_BYTES: usize = 16;

/// What a node's slots reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BpRefs {
    /// Leaf values, parallel to `keys` (`len == keys.len()`).
    Values(Vec<u64>),
    /// Children of an internal node (`len == keys.len() + 1`); child `i`
    /// covers keys in `[keys[i-1], keys[i])`.
    Children(Vec<NodeId>),
}

/// A B+-tree node. `level == 0` is a leaf; leaves form a singly linked
/// list via `next` for range scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpNode {
    /// Height above the leaves.
    pub level: u32,
    /// Sorted separator keys (internal) or entry keys (leaf).
    pub keys: Vec<u64>,
    /// Values or children.
    pub refs: BpRefs,
    /// The next leaf in key order (leaves only).
    pub next: Option<NodeId>,
}

impl Default for BpNode {
    /// An empty leaf, as [`BpNode::leaf`].
    fn default() -> Self {
        BpNode::leaf()
    }
}

impl BpNode {
    /// An empty leaf.
    pub fn leaf() -> Self {
        BpNode {
            level: 0,
            keys: Vec::new(),
            refs: BpRefs::Values(Vec::new()),
            next: None,
        }
    }

    /// An empty internal node at `level`.
    pub fn internal(level: u32) -> Self {
        BpNode {
            level,
            keys: Vec::new(),
            refs: BpRefs::Children(Vec::new()),
            next: None,
        }
    }

    /// True for leaves.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Leaf values.
    ///
    /// # Panics
    ///
    /// Panics on internal nodes.
    pub fn values(&self) -> &Vec<u64> {
        match &self.refs {
            BpRefs::Values(v) => v,
            BpRefs::Children(_) => panic!("values() on an internal node"),
        }
    }

    /// Leaf values, mutably.
    ///
    /// # Panics
    ///
    /// Panics on internal nodes.
    pub fn values_mut(&mut self) -> &mut Vec<u64> {
        match &mut self.refs {
            BpRefs::Values(v) => v,
            BpRefs::Children(_) => panic!("values_mut() on an internal node"),
        }
    }

    /// Internal children.
    ///
    /// # Panics
    ///
    /// Panics on leaves.
    pub fn children(&self) -> &Vec<NodeId> {
        match &self.refs {
            BpRefs::Children(c) => c,
            BpRefs::Values(_) => panic!("children() on a leaf"),
        }
    }

    /// Internal children, mutably.
    ///
    /// # Panics
    ///
    /// Panics on leaves.
    pub fn children_mut(&mut self) -> &mut Vec<NodeId> {
        match &mut self.refs {
            BpRefs::Children(c) => c,
            BpRefs::Values(_) => panic!("children_mut() on a leaf"),
        }
    }
}

/// Fanout configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpConfig {
    /// Maximum keys per node.
    pub max_keys: usize,
}

impl BpConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_keys < 3`.
    pub fn with_max_keys(max_keys: usize) -> Self {
        assert!(max_keys >= 3, "B+-tree order must be at least 3");
        BpConfig { max_keys }
    }

    /// Minimum keys per non-root node.
    pub fn min_keys(&self) -> usize {
        self.max_keys / 2
    }
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig::with_max_keys(128)
    }
}

/// Chunk geometry for B+-tree nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpLayout {
    max_keys: usize,
    lines: usize,
}

impl BpLayout {
    /// Layout for nodes with at most `max_keys` keys.
    pub fn for_max_keys(max_keys: usize) -> Self {
        // header + keys + refs (internal nodes carry max_keys+1 children).
        let logical = HEADER_BYTES + 8 * max_keys + 8 * (max_keys + 1);
        BpLayout {
            max_keys,
            lines: logical.div_ceil(LINE_PAYLOAD_BYTES),
        }
    }

    /// Maximum keys representable.
    pub fn max_keys(&self) -> usize {
        self.max_keys
    }

    /// Serializes a node with the given version stamp.
    ///
    /// # Panics
    ///
    /// Panics if the node exceeds the layout's fanout or is internally
    /// inconsistent.
    pub fn encode_node(&self, node: &BpNode, version: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_node_into(node, version, &mut out);
        out
    }

    /// Deserializes a node chunk with version validation.
    ///
    /// # Errors
    ///
    /// [`CodecError::TornRead`] on racing writes;
    /// [`CodecError::Malformed`] on anything implausible.
    pub fn decode_node(&self, chunk: &[u8]) -> Result<(BpNode, u64), CodecError> {
        let mut node = BpNode::leaf();
        let version = self.decode_node_into(chunk, &mut node)?;
        Ok((node, version))
    }
}

impl RemoteLayout for BpLayout {
    type Node = BpNode;

    const META_MAGIC: u64 = 0x4250_4C55_5330_4D45; // "BPLUS0ME"

    fn chunk_bytes(&self) -> usize {
        self.lines * LINE_BYTES
    }

    /// Serializes a node directly into `out`, reusing its capacity. The
    /// version stamps and every field are written at their packed
    /// positions, so no intermediate logical buffer is allocated.
    ///
    /// # Panics
    ///
    /// Panics if the node exceeds the layout's fanout or is internally
    /// inconsistent.
    fn encode_node_into(&self, node: &BpNode, version: u64, out: &mut Vec<u8>) {
        assert!(node.keys.len() <= self.max_keys, "node overflows layout");
        out.clear();
        out.resize(self.lines * LINE_BYTES, 0);
        for line in 0..self.lines {
            out[line * LINE_BYTES..line * LINE_BYTES + LINE_VERSION_BYTES]
                .copy_from_slice(&version.to_le_bytes());
        }
        write_packed(out, 0, &NODE_MAGIC.to_le_bytes());
        write_packed(out, 4, &node.level.to_le_bytes());
        write_packed(out, 8, &(node.keys.len() as u32).to_le_bytes());
        let next_raw = node.next.map_or(0, |n| n.index() + 1);
        write_packed(out, 12, &next_raw.to_le_bytes());
        for (i, k) in node.keys.iter().enumerate() {
            write_packed(out, HEADER_BYTES + 8 * i, &k.to_le_bytes());
        }
        let refs_at = HEADER_BYTES + 8 * self.max_keys;
        match &node.refs {
            BpRefs::Values(vals) => {
                assert_eq!(vals.len(), node.keys.len(), "leaf slots mismatch");
                for (i, v) in vals.iter().enumerate() {
                    write_packed(out, refs_at + 8 * i, &v.to_le_bytes());
                }
            }
            BpRefs::Children(kids) => {
                assert_eq!(kids.len(), node.keys.len() + 1, "internal slots mismatch");
                for (i, c) in kids.iter().enumerate() {
                    write_packed(out, refs_at + 8 * i, &u64::from(c.index()).to_le_bytes());
                }
            }
        }
    }

    /// Deserializes a node chunk into `node`, reusing its key and slot
    /// vectors, and returns the version. Fields are read straight out of
    /// the packed chunk, so a decode into warm scratch performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::TornRead`] on racing writes;
    /// [`CodecError::Malformed`] on anything implausible. On error `node`
    /// is left in an unspecified but valid state.
    fn decode_node_into(&self, chunk: &[u8], node: &mut BpNode) -> Result<u64, CodecError> {
        let version = chunk_version(chunk, self.lines)?;
        let magic = u32::from_le_bytes(read_packed::<4>(chunk, 0));
        if magic != NODE_MAGIC {
            return Err(CodecError::Malformed("bad b+ node magic"));
        }
        let level = u32::from_le_bytes(read_packed::<4>(chunk, 4));
        let count = u32::from_le_bytes(read_packed::<4>(chunk, 8)) as usize;
        let next_raw = u32::from_le_bytes(read_packed::<4>(chunk, 12));
        if count > self.max_keys || level > 64 {
            return Err(CodecError::Malformed("implausible b+ node header"));
        }
        node.level = level;
        node.keys.clear();
        for i in 0..count {
            node.keys.push(u64::from_le_bytes(read_packed::<8>(
                chunk,
                HEADER_BYTES + 8 * i,
            )));
        }
        if !node.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Malformed("b+ keys not strictly sorted"));
        }
        let refs_at = HEADER_BYTES + 8 * self.max_keys;
        if level == 0 {
            // Reuse the existing vector when the variant already matches.
            let vals = match &mut node.refs {
                BpRefs::Values(v) => {
                    v.clear();
                    v
                }
                refs @ BpRefs::Children(_) => {
                    *refs = BpRefs::Values(Vec::with_capacity(count));
                    match refs {
                        BpRefs::Values(v) => v,
                        BpRefs::Children(_) => unreachable!(),
                    }
                }
            };
            for i in 0..count {
                vals.push(u64::from_le_bytes(read_packed::<8>(chunk, refs_at + 8 * i)));
            }
        } else {
            if count == 0 {
                return Err(CodecError::Malformed("internal b+ node without keys"));
            }
            let kids = match &mut node.refs {
                BpRefs::Children(c) => {
                    c.clear();
                    c
                }
                refs @ BpRefs::Values(_) => {
                    *refs = BpRefs::Children(Vec::with_capacity(count + 1));
                    match refs {
                        BpRefs::Children(c) => c,
                        BpRefs::Values(_) => unreachable!(),
                    }
                }
            };
            for i in 0..=count {
                let raw = u64::from_le_bytes(read_packed::<8>(chunk, refs_at + 8 * i));
                if raw > u64::from(u32::MAX) {
                    return Err(CodecError::Malformed("b+ child id out of range"));
                }
                kids.push(NodeId(raw as u32));
            }
        }
        node.next = if next_raw == 0 {
            None
        } else {
            Some(NodeId(next_raw - 1))
        };
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode {
            level: 0,
            keys: vec![1, 5, 9],
            refs: BpRefs::Values(vec![10, 50, 90]),
            next: Some(NodeId(4)),
        };
        let chunk = layout.encode_node(&node, 3);
        assert_eq!(chunk.len(), layout.chunk_bytes());
        assert_eq!(layout.decode_node(&chunk).unwrap(), (node, 3));
    }

    #[test]
    fn internal_round_trip() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode {
            level: 2,
            keys: vec![100, 200],
            refs: BpRefs::Children(vec![NodeId(1), NodeId(2), NodeId(3)]),
            next: None,
        };
        let chunk = layout.encode_node(&node, 7);
        assert_eq!(layout.decode_node(&chunk).unwrap(), (node, 7));
    }

    #[test]
    fn torn_read_detected() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode::leaf();
        let mut chunk = layout.encode_node(&node, 5);
        let last = chunk.len() - 64;
        chunk[last..last + 8].copy_from_slice(&6u64.to_le_bytes());
        assert!(matches!(
            layout.decode_node(&chunk),
            Err(CodecError::TornRead { .. })
        ));
    }

    #[test]
    fn unsorted_keys_rejected() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode {
            level: 0,
            keys: vec![5, 5],
            refs: BpRefs::Values(vec![1, 2]),
            next: None,
        };
        let chunk = layout.encode_node(&node, 1);
        assert_eq!(
            layout.decode_node(&chunk),
            Err(CodecError::Malformed("b+ keys not strictly sorted"))
        );
    }

    #[test]
    fn decode_into_reuses_node_across_variants() {
        let layout = BpLayout::for_max_keys(8);
        let leaf = BpNode {
            level: 0,
            keys: vec![1, 5, 9],
            refs: BpRefs::Values(vec![10, 50, 90]),
            next: Some(NodeId(4)),
        };
        let internal = BpNode {
            level: 1,
            keys: vec![100],
            refs: BpRefs::Children(vec![NodeId(1), NodeId(2)]),
            next: None,
        };
        let mut scratch = BpNode::leaf();
        for round in 0..3 {
            for n in [&leaf, &internal] {
                let chunk = layout.encode_node(n, round);
                assert_eq!(layout.decode_node_into(&chunk, &mut scratch), Ok(round));
                assert_eq!(&scratch, n);
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_with_dirty_buffer() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode {
            level: 0,
            keys: vec![2, 4],
            refs: BpRefs::Values(vec![20, 40]),
            next: None,
        };
        let mut buf = vec![0xFFu8; layout.chunk_bytes() * 2];
        layout.encode_node_into(&node, 9, &mut buf);
        assert_eq!(buf, layout.encode_node(&node, 9));
    }

    #[test]
    fn default_config_fills_one_chunk_nicely() {
        let c = BpConfig::default();
        let l = BpLayout::for_max_keys(c.max_keys);
        assert_eq!(c.min_keys(), 64);
        // 16 + 8*128 + 8*129 = 2072 -> 37 lines -> 2368 bytes.
        assert_eq!(l.chunk_bytes(), 2368);
    }

    #[test]
    #[should_panic(expected = "slots mismatch")]
    fn inconsistent_leaf_rejected_on_encode() {
        let layout = BpLayout::for_max_keys(8);
        let node = BpNode {
            level: 0,
            keys: vec![1, 2],
            refs: BpRefs::Values(vec![1]),
            next: None,
        };
        let _ = layout.encode_node(&node, 1);
    }
}
