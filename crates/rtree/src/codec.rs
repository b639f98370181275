//! Versioned cache-line chunk codec — the RDMA-readable node layout.
//!
//! Following FaRM (and §III-B of the Catfish paper), every R-tree node is
//! serialized into a fixed-size **chunk** made of 64-byte cache lines. Each
//! line carries an 8-byte version stamp followed by 56 payload bytes. A
//! writer bumps the node's version on every update and stamps every line
//! with it; a reader (local, or remote via one-sided RDMA Read) accepts a
//! chunk only if *all* line versions agree. Because both RDMA Reads and CPU
//! stores are cache-line atomic, a mixed-version chunk is exactly the
//! signature of a read that raced a concurrent write — the reader retries.
//!
//! Chunk 0 of the arena holds the [`TreeMeta`] (root id, height, item
//! count) under the same scheme, so an offloading client can bootstrap its
//! traversal with a single read. The rest of that line's payload holds the
//! arena's [`LevelLines`]: per level, the most lines any node at that
//! level has used.
//!
//! ## Struct-of-arrays entry layout
//!
//! Within a node chunk the logical payload is laid out as five parallel
//! lanes rather than an array of entry structs: after the 16-byte header
//! come the node's `n` x-minima, then its `n` y-minima, x-maxima,
//! y-maxima, and finally the `n` tagged child words, where `n` is the
//! node's own entry count. Logical offset of element `i` of lane `f` is
//! `16 + f·8·n + i·8`. A window test over a whole node is then four
//! contiguous `f64` lane scans the compiler can vectorize;
//! [`LaneNode::window_hits`] produces the hit set as a bitmask without
//! branches.
//!
//! Because the lanes are sized by the count, a node's bytes are the first
//! [`lines_for`]`(n)` lines of its chunk, and the rest is zero. A writer
//! still stamps every line of the chunk, so a reader may read any prefix
//! of whole lines that covers the node: an offloading client reads only
//! as many lines as its level's [`LevelLines`] bound, and reads the whole
//! chunk again only when the header's count needs more lines than it read.
//!
//! A reader de-stitches a chunk once: every line's 56 payload bytes are
//! exactly seven little-endian words, so the logical payload unpacks into
//! a word image in which word `2 + f·n + i` is element `i` of lane `f`.
//! Validation, the window test, and child resolution all read that image.

use std::fmt;

use crate::geom::Rect;
use crate::node::{Entry, EntryRef, Node, NodeId};
use crate::store::TreeMeta;

/// Bytes per cache line.
pub const LINE_BYTES: usize = 64;
/// Bytes of version stamp at the start of each line.
pub const LINE_VERSION_BYTES: usize = 8;
/// Payload bytes per line.
pub const LINE_PAYLOAD_BYTES: usize = LINE_BYTES - LINE_VERSION_BYTES;

const NODE_HEADER_BYTES: usize = 16;
const ENTRY_BYTES: usize = 40;
/// Lane indices of the struct-of-arrays entry layout.
const LANE_XMIN: usize = 0;
const LANE_YMIN: usize = 1;
const LANE_XMAX: usize = 2;
const LANE_YMAX: usize = 3;
const LANE_CHILD: usize = 4;
/// Upper bound on fanout so a node's hit set fits a `u128` bitmask.
pub const MAX_BITMASK_ENTRIES: usize = 128;
/// Logical bytes of the metadata record at the start of chunk 0.
const META_RECORD_BYTES: usize = 32;
/// Levels whose line bound the metadata line carries: the payload bytes
/// line 0 has left after the record, one byte per level.
pub const LEVEL_LINE_BOUNDS: usize = LINE_PAYLOAD_BYTES - META_RECORD_BYTES;
/// Logical payload bytes of the largest chunk: whole lines holding the
/// header and five lanes at [`MAX_BITMASK_ENTRIES`].
const MAX_LOGICAL_BYTES: usize = (NODE_HEADER_BYTES + ENTRY_BYTES * MAX_BITMASK_ENTRIES)
    .div_ceil(LINE_PAYLOAD_BYTES)
    * LINE_PAYLOAD_BYTES;
/// Payload words per line, and of the largest chunk's word image.
const LINE_PAYLOAD_WORDS: usize = LINE_PAYLOAD_BYTES / 8;
const MAX_LOGICAL_WORDS: usize = MAX_LOGICAL_BYTES / 8;
/// Words of the node header in the word image (magic and level, count).
const NODE_HEADER_WORDS: usize = NODE_HEADER_BYTES / 8;
const NODE_MAGIC: u32 = 0x5254_4E44; // "RTND"
const DATA_TAG: u64 = 1 << 63;

/// Lines a node of `count` entries occupies at the start of its chunk:
/// the 16-byte header and five lanes of `count` words,
/// `ceil((16 + 40·count) / 56)`.
///
/// # Examples
///
/// ```
/// use catfish_rtree::codec::lines_for;
///
/// assert_eq!(lines_for(0), 1);
/// assert_eq!(lines_for(3), 3);
/// assert_eq!(lines_for(70), 51);
/// assert_eq!(lines_for(88), 64);
/// ```
pub const fn lines_for(count: usize) -> usize {
    (NODE_HEADER_BYTES + ENTRY_BYTES * count).div_ceil(LINE_PAYLOAD_BYTES)
}

/// Logical byte offset of element `i` of lane `f` in the SoA layout of a
/// node of `count` entries.
#[inline]
fn lane_off(count: usize, f: usize, i: usize) -> usize {
    NODE_HEADER_BYTES + (f * count + i) * 8
}

/// Per level, the most lines any node at that level has used in an arena:
/// how much of a node chunk an offloading reader needs. Level `l`'s bound
/// is byte `l` of the metadata line's spare payload (logical bytes 32..56
/// of chunk 0); zero means no bound, and a reader reads the whole chunk.
/// So a format that keeps these bytes zero is always read whole, and so is
/// any level at or beyond [`LEVEL_LINE_BOUNDS`].
///
/// A store only ever raises a bound, and writes the metadata line when it
/// does, before the node that raised it. A reader holding an older copy of
/// the line can still find a node longer than the lines it read. It sees
/// that from the node's own header, and reads the chunk again whole.
///
/// # Examples
///
/// ```
/// use catfish_rtree::codec::LevelLines;
///
/// let mut bounds = LevelLines::default();
/// assert_eq!(bounds.get(0), None);
/// assert!(bounds.note(0, 51));
/// assert!(!bounds.note(0, 3)); // bounds never shrink
/// assert_eq!(bounds.get(0), Some(51));
/// assert_eq!(bounds.get(1), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelLines([u8; LEVEL_LINE_BOUNDS]);

impl LevelLines {
    /// The line bound of `level`, or `None` when the level has none.
    pub fn get(&self, level: u32) -> Option<usize> {
        let lines = *self.0.get(level as usize)?;
        (lines > 0).then_some(usize::from(lines))
    }

    /// Raises `level`'s bound to `lines` if it is lower, and says whether
    /// it did. A level beyond [`LEVEL_LINE_BOUNDS`] keeps no bound.
    pub fn note(&mut self, level: u32, lines: usize) -> bool {
        let Some(bound) = self.0.get_mut(level as usize) else {
            return false;
        };
        let lines = u8::try_from(lines).expect("a chunk has at most 255 lines");
        let raised = lines > *bound;
        *bound = (*bound).max(lines);
        raised
    }

    /// Reads the bounds out of a metadata line: the first [`LINE_BYTES`]
    /// of chunk 0, or the whole chunk.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is shorter than a line.
    pub fn from_meta_line(meta: &[u8]) -> Self {
        LevelLines(read_packed(&meta[..LINE_BYTES], META_RECORD_BYTES))
    }

    /// Writes the bounds into a metadata chunk (or its first line).
    ///
    /// # Panics
    ///
    /// Panics if `meta` is shorter than a line.
    pub fn write_meta_line(&self, meta: &mut [u8]) {
        write_packed(&mut meta[..LINE_BYTES], META_RECORD_BYTES, &self.0);
    }
}

/// Errors produced while decoding a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Line version stamps disagree: the read raced a concurrent write and
    /// must be retried.
    TornRead {
        /// Version of the first line.
        first: u64,
        /// The first conflicting version encountered.
        conflicting: u64,
    },
    /// The chunk bytes do not describe a valid node or metadata record.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TornRead { first, conflicting } => write!(
                f,
                "torn read: line versions disagree ({first} vs {conflicting})"
            ),
            CodecError::Malformed(what) => write!(f, "malformed chunk: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Geometry of the chunk arena for a given maximum node fanout.
///
/// # Examples
///
/// ```
/// use catfish_rtree::codec::ChunkLayout;
///
/// let layout = ChunkLayout::for_max_entries(16);
/// assert_eq!(layout.chunk_bytes() % 64, 0);
/// assert!(layout.chunk_bytes() >= 16 + 40 * 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLayout {
    max_entries: usize,
    lines: usize,
}

impl ChunkLayout {
    /// Computes the layout for nodes with at most `max_entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero or exceeds
    /// [`MAX_BITMASK_ENTRIES`] (the hit bitmask is a `u128`).
    pub fn for_max_entries(max_entries: usize) -> Self {
        assert!(max_entries > 0, "layout needs a positive fanout");
        assert!(
            max_entries <= MAX_BITMASK_ENTRIES,
            "fanout {max_entries} exceeds the {MAX_BITMASK_ENTRIES}-entry hit-bitmask limit"
        );
        ChunkLayout {
            max_entries,
            lines: lines_for(max_entries),
        }
    }

    /// Maximum entries representable per node.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Cache lines per chunk.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// [`RemoteLayout::chunk_bytes`], callable without the trait in scope.
    pub fn chunk_bytes(&self) -> usize {
        RemoteLayout::chunk_bytes(self)
    }

    /// [`RemoteLayout::node_offset`], callable without the trait in scope.
    pub fn node_offset(&self, id: NodeId) -> usize {
        RemoteLayout::node_offset(self, id)
    }

    /// [`RemoteLayout::arena_bytes`], callable without the trait in scope.
    pub fn arena_bytes(&self, chunks: u32) -> usize {
        RemoteLayout::arena_bytes(self, chunks)
    }

    /// Serializes `node` into a fresh chunk stamped with `version`.
    ///
    /// # Panics
    ///
    /// Panics if the node has more than `max_entries` entries or a data
    /// payload uses the reserved tag bit.
    pub fn encode_node(&self, node: &Node, version: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_node_into(node, version, &mut out);
        out
    }

    /// Deserializes a node chunk, validating version consistency. The
    /// chunk may be any prefix of whole lines that holds the node
    /// ([`lines_for`] its count); every line given must carry the same
    /// stamp.
    ///
    /// # Errors
    ///
    /// [`CodecError::TornRead`] if line versions disagree;
    /// [`CodecError::Malformed`] if the payload is not a valid node, or
    /// the prefix is shorter than the node.
    pub fn decode_node(&self, chunk: &[u8]) -> Result<(Node, u64), CodecError> {
        let mut node = Node::new(0);
        let version = self.decode_node_into(chunk, &mut node)?;
        Ok((node, version))
    }

    /// Accepts exactly the chunks [`ChunkLayout::decode_node`] accepts —
    /// line versions, magic, count, level, every entry rectangle finite
    /// and ordered, every child tag consistent with the level, child ids
    /// within `u32` — and returns the node level, without building
    /// entries: the chunk is de-stitched once into `lane`'s word image,
    /// checked there,
    /// and left for [`LaneNode::window_hits`], [`LaneNode::rect_at`] and
    /// [`LaneNode::child`] to read. This is the offloading client's one
    /// pass per fetched chunk.
    ///
    /// On error `lane` is left in an unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// Same conditions, and the same error, as [`ChunkLayout::decode_node`].
    pub fn validate_lanes_into(
        &self,
        chunk: &[u8],
        lane: &mut LaneNode,
    ) -> Result<u32, CodecError> {
        self.decode_lanes_into(chunk, lane)?;
        self.checked_level(chunk, &lane.words, lane.level, lane.count)
    }

    /// The per-entry half of validation over an unpacked word image:
    /// `Ok(level)` when every entry rectangle is finite and ordered and
    /// every child word fits the level, else the error
    /// [`ChunkLayout::decode_node`] reports for `chunk`.
    fn checked_level(
        &self,
        chunk: &[u8],
        image: &[u64],
        level: u32,
        count: usize,
    ) -> Result<u32, CodecError> {
        let lanes = |f: usize| {
            let at = NODE_HEADER_WORDS + f * count;
            image[at..at + count].iter().copied()
        };
        let mut ok = true;
        for ((((min_x, min_y), max_x), max_y), raw) in lanes(LANE_XMIN)
            .map(f64::from_bits)
            .zip(lanes(LANE_YMIN).map(f64::from_bits))
            .zip(lanes(LANE_XMAX).map(f64::from_bits))
            .zip(lanes(LANE_YMAX).map(f64::from_bits))
            .zip(lanes(LANE_CHILD))
        {
            // An internal child id within `u32` also has the tag clear.
            let child_ok = if level == 0 {
                raw & DATA_TAG != 0
            } else {
                raw <= u64::from(u32::MAX)
            };
            ok &= min_x.is_finite()
                & min_y.is_finite()
                & max_x.is_finite()
                & max_y.is_finite()
                & (min_x <= max_x)
                & (min_y <= max_y)
                & child_ok;
        }
        if ok {
            Ok(level)
        } else {
            self.decode_node(chunk).map(|(node, _)| node.level)
        }
    }

    /// De-stitches a node chunk into `lane`'s word image and checks the
    /// line versions and the header, returning the chunk version. Entries
    /// are not checked: this is the server's search path over its own
    /// arena, where [`LaneNode::child`] still checks each hit's tag.
    /// [`ChunkLayout::validate_lanes_into`] adds the entry checks.
    ///
    /// On error `lane` is left in an unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChunkLayout::decode_node`], except that entry
    /// rectangles and child words are not checked.
    pub fn decode_lanes_into(&self, chunk: &[u8], lane: &mut LaneNode) -> Result<u64, CodecError> {
        lane.words
            .resize(chunk.len() / LINE_BYTES * LINE_PAYLOAD_WORDS, 0);
        let (version, level, count) = self.unpack_node(chunk, &mut lane.words)?;
        lane.level = level;
        lane.count = count;
        Ok(version)
    }

    /// Checks the line versions of a node chunk, or of a prefix of whole
    /// lines of one, de-stitches its logical payload into the word image
    /// `image` (seven words per line), and checks the header, returning
    /// `(version, level, count)`. Element `i` of lane `f` is then
    /// `image[2 + f * count + i]`.
    ///
    /// Errors come in the order [`chunk_version`] and the header checks
    /// give them: length, then the first disagreeing stamp, then magic,
    /// count, level, and a prefix too short for the count.
    fn unpack_node(
        &self,
        chunk: &[u8],
        image: &mut [u64],
    ) -> Result<(u64, u32, usize), CodecError> {
        let lines = chunk.len() / LINE_BYTES;
        if !chunk.len().is_multiple_of(LINE_BYTES) || lines == 0 || lines > self.lines {
            return Err(CodecError::Malformed("chunk length mismatch"));
        }
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("sized"));
        let version = word(&chunk[..LINE_VERSION_BYTES]);
        let mut torn = false;
        for (line, payload) in chunk
            .chunks_exact(LINE_BYTES)
            .zip(image[..lines * LINE_PAYLOAD_WORDS].chunks_exact_mut(LINE_PAYLOAD_WORDS))
        {
            torn |= word(&line[..LINE_VERSION_BYTES]) != version;
            for (w, b) in payload
                .iter_mut()
                .zip(line[LINE_VERSION_BYTES..].chunks_exact(8))
            {
                *w = word(b);
            }
        }
        if torn {
            return Err(chunk_version(chunk, lines).expect_err("a line stamp disagrees"));
        }
        // Header words: magic | level << 32, then count in the low half.
        if image[0] as u32 != NODE_MAGIC {
            return Err(CodecError::Malformed("bad node magic"));
        }
        let level = (image[0] >> 32) as u32;
        let count = image[1] as u32 as usize;
        if count > self.max_entries {
            return Err(CodecError::Malformed("entry count exceeds layout fanout"));
        }
        if level > 64 {
            return Err(CodecError::Malformed("implausible node level"));
        }
        if lines_for(count) > lines {
            return Err(CodecError::Malformed("chunk shorter than its node"));
        }
        Ok((version, level, count))
    }
}

/// Reusable word-image scratch for the vectorized search path.
///
/// Holds one node chunk de-stitched into little-endian words: two header
/// words, then the five SoA lanes (`xmin.. | ymin.. | xmax.. | ymax.. |
/// child..`) at a stride of the node's entry count, so a window test over
/// the whole node is a branchless scan of four contiguous lanes. Filled
/// by [`ChunkLayout::decode_lanes_into`] or
/// [`ChunkLayout::validate_lanes_into`]; intended to be pooled and reused
/// across node visits so steady-state search performs no allocations.
///
/// # Examples
///
/// ```
/// use catfish_rtree::codec::{ChunkLayout, LaneNode};
/// use catfish_rtree::{Entry, EntryRef, Node, Rect};
///
/// let layout = ChunkLayout::for_max_entries(16);
/// let mut node = Node::new(0);
/// node.entries.push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), 7));
/// node.entries.push(Entry::data(Rect::new(5.0, 5.0, 6.0, 6.0), 8));
/// let chunk = layout.encode_node(&node, 1);
///
/// let mut lanes = LaneNode::new();
/// assert_eq!(layout.validate_lanes_into(&chunk, &mut lanes), Ok(0));
/// assert_eq!(lanes.window_hits(&Rect::new(0.5, 0.5, 2.0, 2.0)), 0b01);
/// assert_eq!(lanes.child(0), Ok(EntryRef::Data(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LaneNode {
    level: u32,
    /// Live entries, and the words between the starts of consecutive
    /// lanes.
    count: usize,
    /// The chunk's logical payload, de-stitched from the versioned lines.
    words: Vec<u64>,
}

impl LaneNode {
    /// An empty scratch; filled by [`ChunkLayout::decode_lanes_into`].
    pub fn new() -> Self {
        LaneNode::default()
    }

    /// Height of the decoded node above the leaves (0 = leaf).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of live entries in the decoded node.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The `count` live words of lane `f`.
    #[inline]
    fn lane(&self, f: usize) -> &[u64] {
        let at = NODE_HEADER_WORDS + f * self.count;
        &self.words[at..at + self.count]
    }

    /// Bitmask of entries whose MBR intersects `query` (bit `i` set means
    /// entry `i` hits), computed branchlessly over the lanes.
    ///
    /// Closed-interval semantics identical to [`Rect::intersects`]; an
    /// entry with any NaN coordinate never matches, mirroring the scalar
    /// comparisons.
    #[inline]
    pub fn window_hits(&self, query: &Rect) -> u128 {
        let n = self.count;
        let (xmin, ymin) = (self.lane(LANE_XMIN), self.lane(LANE_YMIN));
        let (xmax, ymax) = (self.lane(LANE_XMAX), self.lane(LANE_YMAX));
        let (qxl, qyl, qxh, qyh) = (query.min_x(), query.min_y(), query.max_x(), query.max_y());
        let f = f64::from_bits;
        // One 0/1 byte per entry (a loop the compiler vectorizes), then
        // eight bytes at a time gathered into eight mask bits: the multiply
        // moves byte j's low bit to bit 56 + j, and no two terms overlap.
        let mut bytes = [0u8; MAX_BITMASK_ENTRIES];
        for (i, b) in bytes[..n].iter_mut().enumerate() {
            *b = u8::from(
                (f(xmin[i]) <= qxh)
                    & (qxl <= f(xmax[i]))
                    & (f(ymin[i]) <= qyh)
                    & (qyl <= f(ymax[i])),
            );
        }
        let mut mask = 0u128;
        for (k, group) in bytes[..n.div_ceil(8) * 8].chunks_exact(8).enumerate() {
            let group = u64::from_le_bytes(group.try_into().expect("sized"));
            mask |= u128::from(group.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        mask
    }

    /// The MBR of entry `i`, reassembled from the lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`, or if the decoded coordinates do not form a
    /// valid rectangle (cannot happen for chunks produced by
    /// [`ChunkLayout::encode_node`]).
    // Always inlined: the window and kNN lane visits both call it per
    // entry, and an out-of-line call per hit cost an offloading client
    // about 2% of its host time.
    #[inline(always)]
    pub fn rect_at(&self, i: usize) -> Rect {
        assert!(i < self.count, "entry index out of range");
        let at = |f: usize| f64::from_bits(self.lane(f)[i]);
        Rect::new(at(LANE_XMIN), at(LANE_YMIN), at(LANE_XMAX), at(LANE_YMAX))
    }

    /// The child of entry `i`, its tag checked against the node level.
    /// The lane search resolves only the entries the hit bitmask selected
    /// this way, without materializing the node.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] if the tag bit disagrees with the level
    /// or a child id exceeds `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    #[inline]
    pub fn child(&self, i: usize) -> Result<EntryRef, CodecError> {
        child_from_raw(self.lane(LANE_CHILD)[i], self.level)
    }

    /// The window search's node visit: resolves only the entries
    /// [`LaneNode::window_hits`] selects, in ascending entry order — leaf
    /// data with its rectangle to `data`, child ids to `node`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] from [`LaneNode::child`].
    #[inline]
    pub fn visit_window(
        &self,
        query: &Rect,
        mut data: impl FnMut(Rect, u64),
        mut node: impl FnMut(NodeId),
    ) -> Result<(), CodecError> {
        let mut mask = self.window_hits(query);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            match self.child(i)? {
                EntryRef::Data(d) => data(self.rect_at(i), d),
                EntryRef::Node(c) => node(c),
            }
        }
        Ok(())
    }
}

/// A chunk format: how one index's nodes and its metadata record sit in
/// an arena of versioned cache-line chunks.
///
/// Every index served over the Catfish dataplane stores its nodes in a
/// fixed-stride arena of such chunks, with chunk 0 holding a [`TreeMeta`]
/// bootstrap record. A format supplies its node type, chunk size and node
/// codec and the magic word of its metadata record; the trait supplies the
/// arena geometry and the one metadata codec. The R-tree's [`ChunkLayout`]
/// and the B+-tree's layout in `catfish-bplus` implement it, which is what
/// lets [`ChunkStore`](crate::chunk::ChunkStore) be the one arena for
/// both indexes and the generic service core in `catfish-core` run one
/// offload engine over either.
pub trait RemoteLayout: Copy + fmt::Debug + 'static {
    /// Decoded node type. Its default is the empty leaf a freshly
    /// allocated chunk holds.
    type Node: Clone + Default + fmt::Debug + 'static;

    /// First word of this format's metadata record, telling the indexes'
    /// arenas apart.
    const META_MAGIC: u64;

    /// Bytes per chunk — the most a one-sided node read moves. A
    /// multiple of [`LINE_BYTES`].
    fn chunk_bytes(&self) -> usize;

    /// Serializes `node` into `out` (cleared and resized), stamping every
    /// line with `version`. Reusing `out` across calls makes the write
    /// path allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the node does not fit the format.
    fn encode_node_into(&self, node: &Self::Node, version: u64, out: &mut Vec<u8>);

    /// Deserializes a node chunk into `node`, reusing its buffers, and
    /// returns the chunk version. On error `node` is left in an
    /// unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// [`CodecError::TornRead`] if line versions disagree;
    /// [`CodecError::Malformed`] if the payload is not a valid node.
    fn decode_node_into(&self, chunk: &[u8], node: &mut Self::Node) -> Result<u64, CodecError>;

    /// The level of `node` (0 for a leaf).
    fn level(&self, node: &Self::Node) -> u32;

    /// For a format whose nodes fill only a prefix of their chunk, the
    /// lines `node`'s encoding needs, which the arena folds into its
    /// [`LevelLines`]. `None` (the default) for a format that is always
    /// read whole.
    fn extent(&self, _node: &Self::Node) -> Option<usize> {
        None
    }

    /// The lines a reader needs of the node chunk whose first line is
    /// `line`: a prefix shorter than that misses part of the node. The
    /// default is the whole chunk.
    fn lines_used(&self, _line: &[u8]) -> usize {
        self.chunk_bytes() / LINE_BYTES
    }

    /// Byte offset of the chunk storing `id` within the arena (node chunks
    /// start at index 1; chunk 0 is the metadata).
    fn node_offset(&self, id: NodeId) -> usize {
        id.0 as usize * self.chunk_bytes()
    }

    /// Total arena bytes needed for `chunks` chunks (including chunk 0).
    fn arena_bytes(&self, chunks: u32) -> usize {
        self.chunk_bytes() * chunks as usize
    }

    /// Serializes tree metadata into a chunk-0 record in `out` (cleared
    /// and resized): [`RemoteLayout::META_MAGIC`], the root id plus one (0
    /// for none), height, item count and structure version, at logical
    /// bytes 0..32, every line stamped with `version`. Bytes 32..56, the
    /// rest of line 0, are left zero for the arena's [`LevelLines`].
    fn encode_meta_into(&self, meta: &TreeMeta, version: u64, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.chunk_bytes(), 0);
        for line in out.chunks_exact_mut(LINE_BYTES) {
            line[..LINE_VERSION_BYTES].copy_from_slice(&version.to_le_bytes());
        }
        let root_raw = meta.root.map_or(0, |id| id.0 + 1);
        write_packed(out, 0, &Self::META_MAGIC.to_le_bytes());
        write_packed(out, 8, &root_raw.to_le_bytes());
        write_packed(out, 12, &meta.height.to_le_bytes());
        write_packed(out, 16, &meta.len.to_le_bytes());
        write_packed(out, 24, &meta.structure_version.to_le_bytes());
    }

    /// Deserializes tree metadata from line 0 of `bytes`: the first
    /// [`LINE_BYTES`] of chunk 0, or the whole chunk. The record's 32
    /// bytes sit inside line 0's payload, and one cache line is atomic to
    /// a CPU store and to an RDMA Read, so the record cannot tear and a
    /// one-line read is all a remote reader needs.
    ///
    /// # Errors
    ///
    /// [`CodecError::Malformed`] if `bytes` is shorter than a line or
    /// line 0 is not this format's metadata record.
    fn decode_meta(&self, bytes: &[u8]) -> Result<(TreeMeta, u64), CodecError> {
        // Fields are read straight out of the packed line: no allocation.
        let line = bytes
            .get(..LINE_BYTES)
            .ok_or(CodecError::Malformed("meta line truncated"))?;
        let version = u64::from_le_bytes(line[..LINE_VERSION_BYTES].try_into().expect("sized"));
        let u32_at = |at: usize| u32::from_le_bytes(read_packed(line, at));
        let u64_at = |at: usize| u64::from_le_bytes(read_packed(line, at));
        if u64_at(0) != Self::META_MAGIC {
            return Err(CodecError::Malformed("bad meta magic"));
        }
        let root_raw = u32_at(8);
        let height = u32_at(12);
        let root = root_raw.checked_sub(1).map(NodeId);
        if root.is_none() != (height == 0) {
            return Err(CodecError::Malformed("root/height mismatch"));
        }
        let meta = TreeMeta {
            root,
            height,
            len: u64_at(16),
            structure_version: u64_at(24),
        };
        Ok((meta, version))
    }
}

impl RemoteLayout for ChunkLayout {
    type Node = Node;

    const META_MAGIC: u64 = 0x4341_5446_4953_4830; // "CATFISH0"

    fn chunk_bytes(&self) -> usize {
        self.lines * LINE_BYTES
    }

    fn level(&self, node: &Node) -> u32 {
        node.level
    }

    fn extent(&self, node: &Node) -> Option<usize> {
        Some(lines_for(node.entries.len()))
    }

    /// [`lines_for`] the count in the node header, capped at the layout's
    /// fanout.
    fn lines_used(&self, line: &[u8]) -> usize {
        let count = u32::from_le_bytes(read_packed(line, 8)) as usize;
        lines_for(count.min(self.max_entries))
    }

    /// Serializes `node` directly into `out` (cleared and resized). The
    /// header and the five lanes are laid out in a stack image of the
    /// logical payload, which is then stamped and packed line by line.
    /// Reusing `out` across calls makes the write path allocation-free in
    /// steady state.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ChunkLayout::encode_node`].
    fn encode_node_into(&self, node: &Node, version: u64, out: &mut Vec<u8>) {
        assert!(
            node.entries.len() <= self.max_entries,
            "node has {} entries but the layout allows {}",
            node.entries.len(),
            self.max_entries
        );
        let mut image = [0u8; MAX_LOGICAL_BYTES];
        let logical = &mut image[..self.lines * LINE_PAYLOAD_BYTES];
        logical[0..4].copy_from_slice(&NODE_MAGIC.to_le_bytes());
        logical[4..8].copy_from_slice(&node.level.to_le_bytes());
        logical[8..12].copy_from_slice(&(node.entries.len() as u32).to_le_bytes());
        // Logical bytes 12..16 reserved (left zero). Entries go into the
        // five SoA lanes (see the module docs).
        for (i, e) in node.entries.iter().enumerate() {
            let raw = match e.child {
                EntryRef::Node(id) => {
                    let v = u64::from(id.0);
                    assert!(v & DATA_TAG == 0, "node id uses reserved tag bit");
                    v
                }
                EntryRef::Data(d) => {
                    assert!(d & DATA_TAG == 0, "data payload uses reserved tag bit");
                    d | DATA_TAG
                }
            };
            let words = [
                e.mbr.min_x().to_bits(),
                e.mbr.min_y().to_bits(),
                e.mbr.max_x().to_bits(),
                e.mbr.max_y().to_bits(),
                raw,
            ];
            for (f, w) in words.into_iter().enumerate() {
                let at = lane_off(node.entries.len(), f, i);
                logical[at..at + 8].copy_from_slice(&w.to_le_bytes());
            }
        }
        pack_lines_into(logical, version, self.lines, out);
    }

    /// Deserializes a node chunk into `node`, reusing its entry buffer, and
    /// returns the chunk version. The payload is de-stitched from the
    /// packed lines into a stack image, one whole line segment at a time,
    /// so with a warm `node` the whole decode performs zero heap
    /// allocations.
    ///
    /// On error `node` is left in an unspecified (but valid) state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChunkLayout::decode_node`]. Entries are
    /// checked in order, the rectangle before the child word, and the
    /// first failure is reported.
    fn decode_node_into(&self, chunk: &[u8], node: &mut Node) -> Result<u64, CodecError> {
        let mut image = [0u64; MAX_LOGICAL_WORDS];
        let (version, level, count) = self.unpack_node(chunk, &mut image)?;
        let word = |f: usize, i: usize| image[NODE_HEADER_WORDS + f * count + i];
        node.level = level;
        node.entries.clear();
        for i in 0..count {
            let min_x = f64::from_bits(word(LANE_XMIN, i));
            let min_y = f64::from_bits(word(LANE_YMIN, i));
            let max_x = f64::from_bits(word(LANE_XMAX, i));
            let max_y = f64::from_bits(word(LANE_YMAX, i));
            if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite())
                || min_x > max_x
                || min_y > max_y
            {
                return Err(CodecError::Malformed("invalid entry rectangle"));
            }
            let mbr = Rect::from_checked(min_x, min_y, max_x, max_y);
            let child = child_from_raw(word(LANE_CHILD, i), level)?;
            node.entries.push(Entry { mbr, child });
        }
        Ok(version)
    }
}

/// Decodes a tagged child word, validating the tag against the node
/// `level`.
#[inline]
fn child_from_raw(raw: u64, level: u32) -> Result<EntryRef, CodecError> {
    if level == 0 {
        if raw & DATA_TAG == 0 {
            return Err(CodecError::Malformed("leaf entry without data tag"));
        }
        Ok(EntryRef::Data(raw & !DATA_TAG))
    } else {
        if raw & DATA_TAG != 0 {
            return Err(CodecError::Malformed("internal entry with data tag"));
        }
        if raw > u64::from(u32::MAX) {
            return Err(CodecError::Malformed("child id out of range"));
        }
        Ok(EntryRef::Node(NodeId(raw as u32)))
    }
}

/// Validates that every line stamp of a packed chunk agrees and returns the
/// common version. Zero-copy readers call it once, then parse fields
/// straight out of the packed payload bytes.
///
/// # Errors
///
/// [`CodecError::TornRead`] on version disagreement;
/// [`CodecError::Malformed`] if the chunk is not `lines * 64` bytes.
pub fn chunk_version(chunk: &[u8], lines: usize) -> Result<u64, CodecError> {
    if chunk.len() != lines * LINE_BYTES {
        return Err(CodecError::Malformed("chunk length mismatch"));
    }
    let version = u64::from_le_bytes(chunk[0..LINE_VERSION_BYTES].try_into().expect("sized"));
    for line in 1..lines {
        let src = line * LINE_BYTES;
        let v = u64::from_le_bytes(
            chunk[src..src + LINE_VERSION_BYTES]
                .try_into()
                .expect("sized"),
        );
        if v != version {
            return Err(CodecError::TornRead {
                first: version,
                conflicting: v,
            });
        }
    }
    Ok(version)
}

/// Position of logical payload byte `logical` inside a packed chunk.
#[inline]
fn payload_pos(logical: usize) -> usize {
    (logical / LINE_PAYLOAD_BYTES) * LINE_BYTES
        + LINE_VERSION_BYTES
        + (logical % LINE_PAYLOAD_BYTES)
}

/// Reads `N` logical payload bytes at `logical` straight out of a packed
/// chunk, stitching across the line boundary when the field spans one.
/// Fields are at most 8 bytes, so they cross at most one boundary.
///
/// Public so other chunk formats built on the same line scheme (the
/// B+-tree in `catfish-bplus`) can share the zero-copy field access.
#[inline]
pub fn read_packed<const N: usize>(chunk: &[u8], logical: usize) -> [u8; N] {
    let mut out = [0u8; N];
    let head = (LINE_PAYLOAD_BYTES - logical % LINE_PAYLOAD_BYTES).min(N);
    let pos = payload_pos(logical);
    out[..head].copy_from_slice(&chunk[pos..pos + head]);
    if head < N {
        let pos2 = payload_pos(logical + head);
        out[head..].copy_from_slice(&chunk[pos2..pos2 + N - head]);
    }
    out
}

/// Writes logical payload bytes at `logical` into a packed chunk,
/// stitching across the line boundary when the field spans one.
///
/// Counterpart of [`read_packed`]; see there for why it is public.
#[inline]
pub fn write_packed(chunk: &mut [u8], logical: usize, data: &[u8]) {
    let head = (LINE_PAYLOAD_BYTES - logical % LINE_PAYLOAD_BYTES).min(data.len());
    let pos = payload_pos(logical);
    chunk[pos..pos + head].copy_from_slice(&data[..head]);
    if head < data.len() {
        let pos2 = payload_pos(logical + head);
        chunk[pos2..pos2 + data.len() - head].copy_from_slice(&data[head..]);
    }
}

/// Splits a logical byte buffer into `lines` versioned cache lines (8-byte
/// stamp + 56 payload bytes each) in `out` (cleared first), reusing its
/// allocation.
///
/// # Panics
///
/// Panics if `logical` is not exactly `lines * 56` bytes.
fn pack_lines_into(logical: &[u8], version: u64, lines: usize, out: &mut Vec<u8>) {
    assert_eq!(
        logical.len(),
        lines * LINE_PAYLOAD_BYTES,
        "logical buffer must fill the lines exactly"
    );
    out.clear();
    out.reserve(lines * LINE_BYTES);
    for payload in logical.chunks_exact(LINE_PAYLOAD_BYTES) {
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A chunk of `lines` lines stamped `version` around `logical`.
    fn pack_lines(logical: &[u8], version: u64, lines: usize) -> Vec<u8> {
        let mut out = Vec::new();
        pack_lines_into(logical, version, lines, &mut out);
        out
    }

    fn encode_meta(l: &ChunkLayout, meta: &TreeMeta, version: u64) -> Vec<u8> {
        let mut out = Vec::new();
        l.encode_meta_into(meta, version, &mut out);
        out
    }

    /// The field-by-field encoder the lane-bulk one replaced, kept as its
    /// oracle: one stitched `write_packed` per header field and per lane
    /// word.
    fn encode_fieldwise(l: &ChunkLayout, node: &Node, version: u64) -> Vec<u8> {
        let mut out = vec![0u8; l.lines * LINE_BYTES];
        for line in 0..l.lines {
            let dst = line * LINE_BYTES;
            out[dst..dst + LINE_VERSION_BYTES].copy_from_slice(&version.to_le_bytes());
        }
        write_packed(&mut out, 0, &NODE_MAGIC.to_le_bytes());
        write_packed(&mut out, 4, &node.level.to_le_bytes());
        write_packed(&mut out, 8, &(node.entries.len() as u32).to_le_bytes());
        for (i, e) in node.entries.iter().enumerate() {
            let lanes = [e.mbr.min_x(), e.mbr.min_y(), e.mbr.max_x(), e.mbr.max_y()];
            for (f, v) in lanes.into_iter().enumerate() {
                write_packed(
                    &mut out,
                    lane_off(node.entries.len(), f, i),
                    &v.to_le_bytes(),
                );
            }
            let raw = match e.child {
                EntryRef::Node(id) => u64::from(id.0),
                EntryRef::Data(d) => d | DATA_TAG,
            };
            write_packed(
                &mut out,
                lane_off(node.entries.len(), LANE_CHILD, i),
                &raw.to_le_bytes(),
            );
        }
        out
    }

    /// The field-by-field decoder the lane-bulk one replaced, kept as its
    /// oracle: one stitched `read_packed` per header field and lane word.
    fn decode_fieldwise(l: &ChunkLayout, chunk: &[u8]) -> Result<(Node, u64), CodecError> {
        let version = chunk_version(chunk, l.lines)?;
        let magic = u32::from_le_bytes(read_packed::<4>(chunk, 0));
        if magic != NODE_MAGIC {
            return Err(CodecError::Malformed("bad node magic"));
        }
        let level = u32::from_le_bytes(read_packed::<4>(chunk, 4));
        let count = u32::from_le_bytes(read_packed::<4>(chunk, 8)) as usize;
        if count > l.max_entries {
            return Err(CodecError::Malformed("entry count exceeds layout fanout"));
        }
        if level > 64 {
            return Err(CodecError::Malformed("implausible node level"));
        }
        let mut node = Node::new(level);
        for i in 0..count {
            let f =
                |lane: usize| f64::from_le_bytes(read_packed::<8>(chunk, lane_off(count, lane, i)));
            let (min_x, min_y, max_x, max_y) =
                (f(LANE_XMIN), f(LANE_YMIN), f(LANE_XMAX), f(LANE_YMAX));
            if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite())
                || min_x > max_x
                || min_y > max_y
            {
                return Err(CodecError::Malformed("invalid entry rectangle"));
            }
            let mbr = Rect::new(min_x, min_y, max_x, max_y);
            let raw = u64::from_le_bytes(read_packed::<8>(chunk, lane_off(count, LANE_CHILD, i)));
            let child = if level == 0 {
                if raw & DATA_TAG == 0 {
                    return Err(CodecError::Malformed("leaf entry without data tag"));
                }
                EntryRef::Data(raw & !DATA_TAG)
            } else {
                if raw & DATA_TAG != 0 {
                    return Err(CodecError::Malformed("internal entry with data tag"));
                }
                if raw > u64::from(u32::MAX) {
                    return Err(CodecError::Malformed("child id out of range"));
                }
                EntryRef::Node(NodeId(raw as u32))
            };
            node.entries.push(Entry { mbr, child });
        }
        Ok((node, version))
    }

    const FANOUTS: [usize; 3] = [4, 88, 128];

    /// A node for fanout `FANOUTS[fanout]`: level, entries (truncated to
    /// the fanout) and a version. Coordinates include negatives and zero
    /// extents; child words use the full id and payload ranges.
    fn arb_node() -> impl Strategy<Value = (ChunkLayout, Node, u64)> {
        let entry = (
            -1e6f64..1e6,
            -1e6f64..1e6,
            prop_oneof![0.0f64..1.0, 0.0f64..1e-300, 0.0f64..1e3],
            0.0f64..10.0,
            any::<u64>(),
        );
        (
            0usize..FANOUTS.len(),
            0u32..5,
            prop::collection::vec(entry, 0..129),
            any::<u64>(),
        )
            .prop_map(|(fanout, level, entries, version)| {
                let layout = ChunkLayout::for_max_entries(FANOUTS[fanout]);
                let mut node = Node::new(level);
                for (x, y, w, h, raw) in entries.into_iter().take(layout.max_entries()) {
                    let mbr = Rect::new(x, y, x + w, y + h);
                    node.entries.push(if level == 0 {
                        Entry::data(mbr, raw & !DATA_TAG)
                    } else {
                        Entry::node(mbr, NodeId(raw as u32))
                    });
                }
                (layout, node, version)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane-bulk encoder writes the field-wise encoder's bytes,
        /// into a fresh buffer and into a dirty reused one.
        #[test]
        fn encode_matches_fieldwise(case in arb_node()) {
            let (l, node, version) = case;
            let expected = encode_fieldwise(&l, &node, version);
            prop_assert_eq!(l.encode_node(&node, version), expected.clone());
            let mut dirty = vec![0xEE; 2 * l.chunk_bytes()];
            l.encode_node_into(&node, version, &mut dirty);
            prop_assert_eq!(dirty, expected);
        }

        /// Under any single-byte corruption — of a version stamp, the
        /// header, a coordinate lane, a child word, or anywhere — and
        /// under a coordinate and child corruption of one entry, the
        /// lane-bulk decoder returns exactly the field-wise decoder's
        /// `Result`.
        #[test]
        fn decode_matches_fieldwise_under_corruption(
            case in arb_node(),
            region in 0usize..6,
            pick in any::<u64>(),
            flip in 1u32..256,
        ) {
            let (l, node, version) = case;
            let mut chunk = l.encode_node(&node, version);
            let n = node.entries.len();
            let count = n.max(1);
            let pick = pick as usize;
            let pos = match region {
                // A line's version stamp.
                0 => (pick % l.lines) * LINE_BYTES + pick / l.lines % LINE_VERSION_BYTES,
                // The 16-byte header.
                1 => payload_pos(pick % NODE_HEADER_BYTES),
                // A coordinate-lane byte of a live entry.
                2 => payload_pos(lane_off(n, pick % 4, pick / 4 % count) + pick / 512 % 8),
                // A child-word byte of a live entry.
                3 => payload_pos(lane_off(n, LANE_CHILD, pick % count) + pick / 256 % 8),
                // The top byte of one coordinate and of the child word of
                // the same entry, so check order within an entry shows.
                4 => {
                    let i = pick / 4 % count;
                    let child = payload_pos(lane_off(n, LANE_CHILD, i) + 7);
                    chunk[child] ^= (flip >> 1) as u8 | 0x80;
                    payload_pos(lane_off(n, pick % 4, i) + 7)
                }
                _ => pick % chunk.len(),
            };
            chunk[pos] ^= flip as u8;
            let expected = decode_fieldwise(&l, &chunk);
            prop_assert_eq!(l.decode_node(&chunk), expected);
        }
    }

    fn sample_leaf() -> Node {
        let mut n = Node::new(0);
        n.entries
            .push(Entry::data(Rect::new(0.1, 0.2, 0.3, 0.4), 42));
        n.entries
            .push(Entry::data(Rect::new(0.5, 0.5, 0.9, 0.9), 7));
        n
    }

    fn sample_internal() -> Node {
        let mut n = Node::new(2);
        n.entries
            .push(Entry::node(Rect::new(0.0, 0.0, 0.5, 0.5), NodeId(3)));
        n.entries
            .push(Entry::node(Rect::new(0.5, 0.5, 1.0, 1.0), NodeId(9)));
        n
    }

    #[test]
    fn layout_dimensions() {
        let l = ChunkLayout::for_max_entries(16);
        // 16 + 40*16 = 656 logical bytes -> ceil(656/56) = 12 lines -> 768B.
        assert_eq!(l.lines(), 12);
        assert_eq!(l.chunk_bytes(), 768);
        assert_eq!(l.node_offset(NodeId(2)), 1536);
    }

    #[test]
    fn node_round_trip_leaf() {
        let l = ChunkLayout::for_max_entries(16);
        let n = sample_leaf();
        let chunk = l.encode_node(&n, 5);
        let (back, v) = l.decode_node(&chunk).unwrap();
        assert_eq!(back, n);
        assert_eq!(v, 5);
    }

    #[test]
    fn node_round_trip_internal() {
        let l = ChunkLayout::for_max_entries(16);
        let n = sample_internal();
        let chunk = l.encode_node(&n, 99);
        let (back, v) = l.decode_node(&chunk).unwrap();
        assert_eq!(back, n);
        assert_eq!(v, 99);
    }

    #[test]
    fn empty_node_round_trips() {
        let l = ChunkLayout::for_max_entries(8);
        let n = Node::new(0);
        let (back, _) = l.decode_node(&l.encode_node(&n, 1)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn full_node_round_trips() {
        let l = ChunkLayout::for_max_entries(8);
        let mut n = Node::new(0);
        for i in 0..8 {
            let x = i as f64;
            n.entries
                .push(Entry::data(Rect::new(x, x, x + 1.0, x + 1.0), i));
        }
        let (back, _) = l.decode_node(&l.encode_node(&n, 1)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn torn_read_detected() {
        let l = ChunkLayout::for_max_entries(16);
        let mut chunk = l.encode_node(&sample_leaf(), 5);
        // Corrupt the version stamp of the last line.
        let last = (l.lines() - 1) * LINE_BYTES;
        chunk[last..last + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(
            l.decode_node(&chunk),
            Err(CodecError::TornRead {
                first: 5,
                conflicting: 4
            })
        );
    }

    #[test]
    fn wrong_length_rejected() {
        let l = ChunkLayout::for_max_entries(16);
        let chunk = l.encode_node(&sample_leaf(), 5);
        for len in [0, LINE_BYTES - 1, LINE_BYTES + 1, chunk.len() + LINE_BYTES] {
            let mut bytes = chunk.clone();
            bytes.resize(len, 0);
            assert_eq!(
                l.decode_node(&bytes),
                Err(CodecError::Malformed("chunk length mismatch")),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn a_prefix_that_holds_the_node_decodes() {
        let l = ChunkLayout::for_max_entries(88);
        let mut n = Node::new(1);
        for i in 0..70u32 {
            let x = f64::from(i);
            n.entries
                .push(Entry::node(Rect::new(x, x, x + 1.0, x + 2.0), NodeId(i)));
        }
        let chunk = l.encode_node(&n, 4);
        let used = lines_for(70);
        assert_eq!(used, 51);
        assert_eq!(l.lines_used(&chunk[..LINE_BYTES]), used);
        // Every line past the node is zero but stamped.
        for line in chunk[used * LINE_BYTES..].chunks_exact(LINE_BYTES) {
            assert_eq!(line[..LINE_VERSION_BYTES], 4u64.to_le_bytes());
            assert!(line[LINE_VERSION_BYTES..].iter().all(|&b| b == 0));
        }
        let mut lanes = LaneNode::new();
        for lines in used..=l.lines() {
            let prefix = &chunk[..lines * LINE_BYTES];
            assert_eq!(l.decode_node(prefix), Ok((n.clone(), 4)));
            assert_eq!(l.validate_lanes_into(prefix, &mut lanes), Ok(1));
            assert_eq!(lanes.count(), 70);
        }
        assert_eq!(
            l.decode_node(&chunk[..(used - 1) * LINE_BYTES]),
            Err(CodecError::Malformed("chunk shorter than its node"))
        );
        assert_eq!(
            l.validate_lanes_into(&chunk[..LINE_BYTES], &mut lanes),
            Err(CodecError::Malformed("chunk shorter than its node"))
        );
    }

    #[test]
    fn level_lines_ride_in_the_meta_line() {
        let l = ChunkLayout::for_max_entries(88);
        let meta = TreeMeta {
            root: Some(NodeId(7)),
            height: 3,
            len: 1_000_000,
            structure_version: 9,
        };
        let mut chunk = encode_meta(&l, &meta, 2);
        assert_eq!(LevelLines::from_meta_line(&chunk), LevelLines::default());
        let mut bounds = LevelLines::default();
        assert!(bounds.note(0, 51));
        assert!(bounds.note(1, 51));
        assert!(bounds.note(2, 3));
        assert!(!bounds.note(LEVEL_LINE_BOUNDS as u32, 64));
        bounds.write_meta_line(&mut chunk);
        assert_eq!(LevelLines::from_meta_line(&chunk[..LINE_BYTES]), bounds);
        assert_eq!(bounds.get(2), Some(3));
        assert_eq!(bounds.get(3), None);
        assert_eq!(bounds.get(LEVEL_LINE_BOUNDS as u32), None);
        // The record beside them is untouched.
        assert_eq!(l.decode_meta(&chunk).unwrap(), (meta, 2));
    }

    #[test]
    fn garbage_magic_rejected() {
        let l = ChunkLayout::for_max_entries(16);
        let chunk = pack_lines(&vec![0xAB; l.lines() * LINE_PAYLOAD_BYTES], 1, l.lines());
        assert!(matches!(
            l.decode_node(&chunk),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn meta_round_trip() {
        let l = ChunkLayout::for_max_entries(16);
        let meta = TreeMeta {
            root: Some(NodeId(12)),
            height: 3,
            len: 2_000_000,
            structure_version: 41,
        };
        let chunk = encode_meta(&l, &meta, 77);
        assert_eq!(l.decode_meta(&chunk).unwrap(), (meta, 77));
        // The record is line 0: its first line alone decodes the same,
        // and less than a line does not decode.
        assert_eq!(l.decode_meta(&chunk[..LINE_BYTES]).unwrap(), (meta, 77));
        assert!(matches!(
            l.decode_meta(&chunk[..LINE_BYTES - 1]),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn empty_meta_round_trip() {
        let l = ChunkLayout::for_max_entries(16);
        let meta = TreeMeta::default();
        assert_eq!(
            l.decode_meta(&encode_meta(&l, &meta, 0)).unwrap(),
            (meta, 0)
        );
    }

    #[test]
    fn meta_root_zero_is_distinct_from_none() {
        let l = ChunkLayout::for_max_entries(16);
        let meta = TreeMeta {
            root: Some(NodeId(0)),
            height: 1,
            len: 1,
            structure_version: 0,
        };
        let (back, _) = l.decode_meta(&encode_meta(&l, &meta, 1)).unwrap();
        assert_eq!(back.root, Some(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn oversized_node_rejected_on_encode() {
        let l = ChunkLayout::for_max_entries(2);
        let mut n = Node::new(0);
        for i in 0..3 {
            n.entries
                .push(Entry::data(Rect::new(0.0, 0.0, 1.0, 1.0), i));
        }
        let _ = l.encode_node(&n, 1);
    }

    #[test]
    fn decode_into_reuses_scratch_across_shapes() {
        let l = ChunkLayout::for_max_entries(16);
        let mut scratch = Node::new(0);
        for n in [sample_leaf(), sample_internal(), Node::new(0), {
            let mut full = Node::new(0);
            for i in 0..16 {
                let x = i as f64;
                full.entries
                    .push(Entry::data(Rect::new(x, x, x + 1.0, x + 1.0), i));
            }
            full
        }] {
            let chunk = l.encode_node(&n, 7);
            let v = l.decode_node_into(&chunk, &mut scratch).unwrap();
            assert_eq!(scratch, n);
            assert_eq!(v, 7);
        }
    }

    #[test]
    fn encode_into_matches_encode_when_buffer_reused() {
        let l = ChunkLayout::for_max_entries(16);
        let mut buf = Vec::new();
        // A dirty, oversized buffer must still produce identical bytes.
        buf.resize(2 * l.chunk_bytes(), 0xEE);
        for n in [sample_internal(), sample_leaf(), Node::new(0)] {
            l.encode_node_into(&n, 11, &mut buf);
            assert_eq!(buf, l.encode_node(&n, 11));
        }
    }

    #[test]
    fn chunk_version_validates_without_unpacking() {
        let l = ChunkLayout::for_max_entries(16);
        let mut chunk = l.encode_node(&sample_leaf(), 9);
        assert_eq!(chunk_version(&chunk, l.lines()), Ok(9));
        chunk[LINE_BYTES..LINE_BYTES + 8].copy_from_slice(&8u64.to_le_bytes());
        assert_eq!(
            chunk_version(&chunk, l.lines()),
            Err(CodecError::TornRead {
                first: 9,
                conflicting: 8
            })
        );
        assert_eq!(
            chunk_version(&chunk[..LINE_BYTES], l.lines()),
            Err(CodecError::Malformed("chunk length mismatch"))
        );
    }

    #[test]
    #[should_panic(expected = "hit-bitmask limit")]
    fn fanout_beyond_bitmask_rejected() {
        let _ = ChunkLayout::for_max_entries(MAX_BITMASK_ENTRIES + 1);
    }

    #[test]
    fn lane_decode_matches_node_decode() {
        for m in [4, 16, 88, 128] {
            let l = ChunkLayout::for_max_entries(m);
            let mut n = Node::new(0);
            for i in 0..m as u64 {
                let x = i as f64;
                n.entries
                    .push(Entry::data(Rect::new(x, x, x + 1.5, x + 0.5), i));
            }
            let chunk = l.encode_node(&n, 21);
            let mut lanes = LaneNode::new();
            assert_eq!(l.decode_lanes_into(&chunk, &mut lanes), Ok(21));
            assert_eq!(lanes.level(), 0);
            assert_eq!(lanes.count(), m);
            for (i, e) in n.entries.iter().enumerate() {
                assert_eq!(lanes.rect_at(i), e.mbr);
                assert_eq!(lanes.child(i), Ok(e.child));
            }
        }
    }

    #[test]
    fn lane_decode_surfaces_torn_and_malformed() {
        let l = ChunkLayout::for_max_entries(16);
        let mut lanes = LaneNode::new();
        let mut chunk = l.encode_node(&sample_leaf(), 5);
        let last = (l.lines() - 1) * LINE_BYTES;
        chunk[last..last + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(
            l.decode_lanes_into(&chunk, &mut lanes),
            Err(CodecError::TornRead {
                first: 5,
                conflicting: 4
            })
        );
        let garbage = pack_lines(&vec![0xAB; l.lines() * LINE_PAYLOAD_BYTES], 1, l.lines());
        assert!(matches!(
            l.decode_lanes_into(&garbage, &mut lanes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn window_hits_matches_scalar_intersects() {
        let l = ChunkLayout::for_max_entries(32);
        let mut n = Node::new(1);
        for i in 0..32u32 {
            let x = f64::from(i % 8) * 1.25;
            let y = f64::from(i / 8) * 2.0;
            n.entries.push(Entry::node(
                Rect::new(x, y, x + 1.0, y + 1.0),
                NodeId(i + 1),
            ));
        }
        let chunk = l.encode_node(&n, 3);
        let mut lanes = LaneNode::new();
        l.decode_lanes_into(&chunk, &mut lanes).unwrap();
        for q in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(2.0, 2.0, 2.5, 2.5),
            Rect::new(100.0, 100.0, 101.0, 101.0),
            Rect::point(1.0, 1.0), // boundary touch stays a hit
        ] {
            let mask = lanes.window_hits(&q);
            for (i, e) in n.entries.iter().enumerate() {
                assert_eq!(
                    mask >> i & 1 == 1,
                    e.mbr.intersects(&q),
                    "entry {i} query {q:?}"
                );
            }
        }
    }

    #[test]
    fn level_mismatch_tags_rejected() {
        let l = ChunkLayout::for_max_entries(4);
        // Encode an internal node, then flip its level to 0: the node-ref
        // entries lack the data tag and must be rejected.
        let mut chunk = l.encode_node(&sample_internal(), 3);
        write_packed(&mut chunk, 4, &0u32.to_le_bytes());
        assert_eq!(
            l.decode_node(&chunk),
            Err(CodecError::Malformed("leaf entry without data tag"))
        );
    }
}
