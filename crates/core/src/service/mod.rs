//! The index-agnostic service core — one engine for every backend.
//!
//! The paper's §VI claims Catfish's three pillars (fast messaging, RDMA
//! offloading, Algorithm 1 adaptivity) are independent of the index being
//! served. This module is that claim as code: [`ServiceServer`] and
//! [`ServiceClient`] own the single implementation of the ring-buffer
//! worker loops (polling and event-driven), the CPU-heartbeat publisher,
//! the adaptive back-off routing, the multi-issue offloaded traversal with
//! FaRM-style version retry, and the unified [`crate::stats::ServiceStats`] — while two
//! small traits describe everything that differs per index:
//!
//! * [`WireCodec`] — the message set: how requests, CONT/END response
//!   segments, and heartbeats are framed on the ring.
//! * [`IndexBackend`] — the index: how to bulk-load it into an [`MrMemory`]
//!   chunk arena, execute one request server-side, and describe the chunk
//!   layout + root metadata that offloading clients traverse. The
//!   client-side half, [`ClientBackend`], adds how a traversal expands one
//!   decoded node.
//!
//! The R-tree service ([`crate::server`]/[`crate::client`]) and the
//! KV/B+-tree service ([`crate::kv`]) are both instantiations of these
//! generics; adding a third backend (hash index, sharded tree) is a
//! two-trait implementation, not a fork of the dataplane.

use catfish_rtree::codec::{CodecError, RemoteLayout};
use catfish_rtree::NodeId;
use catfish_simnet::SimDuration;

use crate::config::CostModel;
use crate::msg::MsgError;
use crate::store::MrMemory;

pub(crate) mod client;
pub mod cluster;
mod server;

pub use client::ServiceClient;
pub use cluster::{
    ClusterClient, ClusterServer, RepairReport, ReplicaCtl, ShardMap, ShardPartition,
};
pub use server::{ServiceServer, MAILBOX_LEASE_TTL};

/// Request message type of a backend's wire codec.
pub type WireMessage<B> = <<B as IndexBackend>::Wire as WireCodec>::Message;
/// Response item type of a backend's wire codec.
pub type WireItem<B> = <<B as IndexBackend>::Wire as WireCodec>::Item;
/// Decoded remote-node type of a backend's chunk layout.
pub type LayoutNode<B> = <<B as IndexBackend>::Layout as RemoteLayout>::Node;

/// END status returned by [`ServiceClient`] when a request was *not*
/// acknowledged: the retry budget ran out (or the ring closed) without an
/// END frame. The operation may or may not have executed — distinct from
/// any server-produced status, so replicated writers can tell "unknown
/// outcome, reissue under the same op identity" from "rejected".
pub const STATUS_UNACKED: u32 = u32::MAX;

/// END status produced by a replica that *fenced* a mutation: the request
/// carried a stale epoch, or landed on a server that is not the current
/// primary. The mutation was not applied; the writer must refresh its
/// view of the replica set and reissue.
pub const REPL_FENCED: u32 = u32::MAX - 1;

/// The replication envelope riding on every replicated mutation.
///
/// Two identities live here. `link_seq` is the *connection* sequence
/// number (the same number the bare request carries on an unreplicated
/// ring) — it scopes retransmission dedup to one link. `(origin, op_id)`
/// is the *replica-set-wide* identity of the mutation: stable across
/// failover reissues to a different server, so a new primary can answer a
/// reissued mutation from its applied-operation table instead of applying
/// it twice. `epoch` fences stale primaries after a promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplEnvelope {
    /// Connection-scoped sequence number (bound at send time).
    pub link_seq: u32,
    /// Writer identity (unique per cluster client).
    pub origin: u64,
    /// Per-writer mutation counter: `(origin, op_id)` names the mutation
    /// across every connection and every replica.
    pub op_id: u64,
    /// Promotion epoch the writer believes is current.
    pub epoch: u64,
    /// Flag bits ([`ReplEnvelope::FORWARDED`]).
    pub flags: u8,
}

impl ReplEnvelope {
    /// Flag: this mutation is a primary→backup forwarding leg (already
    /// accepted by the primary), not a client submission.
    pub const FORWARDED: u8 = 1;

    /// Whether this is a primary→backup forwarding leg.
    pub fn forwarded(&self) -> bool {
        self.flags & Self::FORWARDED != 0
    }
}

/// High bit of the request sequence number: set by a client that wants
/// the response *deposited in its mailbox* (remote result fetching)
/// rather than written back into its response ring. Riding on the
/// sequence number keeps the request wire formats unchanged and lets the
/// retransmission/dedup machinery treat fetch and write-back requests
/// identically — the server merely inspects this bit when responding.
pub const FETCH_FLAG: u32 = 1 << 31;

/// Per-mode serving-cost terms piggybacked on the CPU heartbeat.
///
/// Algorithm 1's heartbeat carried only `u_serv`; the three-way policy
/// additionally needs to compare what the *server* pays per response in
/// each mode, so the heartbeat advertises both cost lines (fixed
/// nanoseconds + nanoseconds per KiB of response payload). Clients derive
/// the write-back-vs-fetch crossover size from these instead of
/// hard-coding the server's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeartbeatInfo {
    /// Server CPU utilization × 1000 (Algorithm 1's `u_serv`).
    pub util_permille: u16,
    /// Fixed write-back cost per response (doorbell post), nanoseconds.
    pub wb_fixed_ns: u32,
    /// Write-back cost per KiB of response payload, nanoseconds.
    pub wb_per_kb_ns: u32,
    /// Fixed mailbox-deposit cost per response, nanoseconds.
    pub fetch_fixed_ns: u32,
    /// Deposit cost per KiB of response payload, nanoseconds.
    pub fetch_per_kb_ns: u32,
}

impl HeartbeatInfo {
    /// A heartbeat carrying only the utilization figure (cost terms
    /// zero — the binary policy ignores them).
    pub fn util_only(util_permille: u16) -> Self {
        HeartbeatInfo {
            util_permille,
            ..HeartbeatInfo::default()
        }
    }
}

/// A message set carried inside the ring buffers.
///
/// Every Catfish service speaks the same conversation shape — requests in,
/// CONT/END-segmented responses out, utilization heartbeats piggybacked —
/// but with per-service payloads. This trait captures the shape so the
/// generic server and client can frame responses and recognize heartbeats
/// without knowing the payload types.
pub trait WireCodec: Sized + 'static {
    /// The full message enum (requests, responses, heartbeat).
    type Message: Clone + std::fmt::Debug + 'static;
    /// One response item (an R-tree `(Rect, u64)` hit, a KV pair, ...).
    type Item: Clone + std::fmt::Debug + 'static;

    /// Encoded wire bytes per response item — the factor that converts a
    /// result count into a payload size for the three-way policy's
    /// crossover arithmetic (40 for the R-tree's rect + id, 16 for a KV
    /// pair).
    const ITEM_WIRE_BYTES: usize;

    /// Serializes a message to ring bytes.
    fn encode(msg: &Self::Message) -> Vec<u8>;

    /// Deserializes ring bytes.
    ///
    /// # Errors
    ///
    /// [`MsgError`] on truncation, unknown tags, or invalid fields.
    fn decode(bytes: &[u8]) -> Result<Self::Message, MsgError>;

    /// Builds the CPU-utilization heartbeat message (with the per-mode
    /// serving-cost terms of the three-way policy).
    fn heartbeat(info: HeartbeatInfo) -> Self::Message;

    /// Builds a non-final response segment ("CONT").
    fn cont(seq: u32, items: Vec<Self::Item>) -> Self::Message;

    /// Builds the final response segment ("END").
    fn end(seq: u32, items: Vec<Self::Item>, status: u32) -> Self::Message;

    /// Packs several messages into one doorbell-batched frame (paper-side
    /// analogue of RDMAbox's request merging). Nesting batches is a
    /// protocol error: `msgs` must not itself contain a batch.
    fn batch(msgs: Vec<Self::Message>) -> Self::Message;

    /// Classifies a received message for the generic receive loops.
    fn classify(msg: Self::Message) -> Incoming<Self>;

    /// Identifies a request: its sequence number and stats kind. `None`
    /// for non-requests (responses, heartbeats, batch envelopes). The
    /// server's per-connection duplicate-detection window keys on the
    /// sequence number to keep retransmitted writes idempotent. For a
    /// replication-enveloped request this reports the envelope's
    /// `link_seq` (the connection-scoped identity) with the inner kind.
    fn request_meta(msg: &Self::Message) -> Option<(u32, OpKind)>;

    /// Wraps a mutation in a replication envelope (stable op identity,
    /// epoch fence). Envelopes wrap bare requests only — never a batch, a
    /// response, or another replication envelope. Every codec carries the
    /// envelope: exactly-once across a replica set rests on it.
    fn replicated(env: ReplEnvelope, inner: Self::Message) -> Self::Message;

    /// Splits a replication envelope off a message: `(Some(env), inner)`
    /// for a wrapped mutation, `(None, msg)` unchanged otherwise. The
    /// server strips this before dedup lookup and execution.
    fn take_origin(msg: Self::Message) -> (Option<ReplEnvelope>, Self::Message);
}

/// A received message, classified for the generic receive loops.
#[derive(Debug, Clone)]
pub enum Incoming<W: WireCodec> {
    /// Server heartbeat: CPU utilization (Algorithm 1's `u_serv`) plus
    /// the per-mode serving-cost terms of the three-way policy.
    Heartbeat(HeartbeatInfo),
    /// Non-final response segment.
    Cont {
        /// Echo of the request sequence number.
        seq: u32,
        /// Items in this segment.
        items: Vec<W::Item>,
    },
    /// Final response segment.
    End {
        /// Echo of the request sequence number.
        seq: u32,
        /// Items in this segment.
        items: Vec<W::Item>,
        /// Operation status (1 = success / found).
        status: u32,
    },
    /// A request (only meaningful on the server side).
    Request(W::Message),
    /// A doorbell batch: several coalesced messages that arrived as one
    /// ring frame (one CQ event, one wakeup).
    Batch(Vec<W::Message>),
}

/// How a server-side operation is counted in [`crate::stats::ServiceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A read (search, get, range, kNN).
    Read,
    /// A write (insert, put).
    Write,
    /// A removal (delete, remove).
    Remove,
}

/// The outcome of executing one request against a backend.
#[derive(Debug, Clone)]
pub struct Execution<W: WireCodec> {
    /// Sequence number to echo in the response.
    pub seq: u32,
    /// Stats bucket for this operation.
    pub kind: OpKind,
    /// CPU time to charge for the operation.
    pub cost: SimDuration,
    /// Response items (segmented into CONT/END frames by the server).
    pub items: Vec<W::Item>,
    /// Response status carried on the END frame.
    pub status: u32,
    /// Index nodes visited (server-side `nodes_visited` counter).
    pub nodes_visited: u64,
}

impl<W: WireCodec> Execution<W> {
    /// A request answered with `status` without running the backend (a
    /// dedup hit, an epoch fence, an applied-table hit): no cost, no items.
    pub(crate) fn answered(seq: u32, kind: OpKind, status: u32) -> Self {
        Execution {
            seq,
            kind,
            cost: SimDuration::ZERO,
            items: Vec::new(),
            status,
            nodes_visited: 0,
        }
    }
}

/// An index that can be served over the Catfish dataplane.
///
/// Implementations live in the index crates' service ports (the R-tree's in
/// [`crate::server`], the B+-tree's in [`crate::kv`]) and are deliberately
/// small: bulk-load into a registered chunk arena, execute one decoded
/// request, and expose the layout/metadata that offloading clients need.
pub trait IndexBackend: Sized + 'static {
    /// The message set this service speaks.
    type Wire: WireCodec;
    /// Index tuning parameters (fanout, max keys, ...).
    type Config: Clone + std::fmt::Debug + 'static;
    /// One bulk-load item (`(Rect, u64)` for the R-tree, `(u64, u64)` for
    /// the KV service).
    type LoadItem: Clone + 'static;
    /// The chunk layout offloading clients traverse.
    type Layout: RemoteLayout;

    /// Chunk geometry for the given index configuration (a shared constant
    /// of the deployment).
    fn layout(cfg: &Self::Config) -> Self::Layout;

    /// Conservative arena size estimate (in chunks, including chunk 0) for
    /// hosting `items` entries with headroom for growth.
    fn estimate_chunks(cfg: &Self::Config, items: usize) -> u32;

    /// Bulk-loads `items` into the registered arena `mem`.
    fn load(
        mem: MrMemory,
        layout: Self::Layout,
        cfg: Self::Config,
        items: Vec<Self::LoadItem>,
    ) -> Self;

    /// A copy of this index in `mem`, a fresh zeroed arena of the same
    /// size: the used chunk prefix and the allocator state are copied, so
    /// the copy equals, byte for byte, an index built by [`IndexBackend::load`]
    /// from the same items and updated by the same operations. This is how
    /// a backup replica starts (DESIGN.md §9).
    fn replicate(&self, mem: MrMemory) -> Self;

    /// Sets the torn-write visibility window on the backing arena (enabled
    /// after load, once clients may be racing writers).
    fn set_torn_window(&self, window: SimDuration);

    /// Current root metadata (diagnostics and tests).
    fn meta(&self) -> catfish_rtree::TreeMeta;

    /// Executes one decoded request, returning what to charge, count, and
    /// respond. `None` for messages a server ignores (responses and
    /// heartbeats never arrive at the server).
    fn execute(
        &mut self,
        msg: <Self::Wire as WireCodec>::Message,
        cost: &CostModel,
    ) -> Option<Execution<Self::Wire>>;
}

/// Anti-entropy support: cumulated hashes over key ranges, the backend
/// half of hash-range reconciliation (reconcile-rs's `HRTree` idea).
///
/// Every entry is assigned a *repair key* (a hash of its identity, so
/// entries spread uniformly over the `u64` keyspace regardless of how
/// clustered the application's ids are) and a *fingerprint* (a hash of
/// its full content). [`RangeDigest::digest_range`] folds the
/// fingerprints of every entry whose repair key falls in `[lo, hi]` with
/// XOR — an order-independent, composable digest: the digest of a range
/// equals the XOR of the digests of any partition of it. Two replicas
/// compare digests top-down, bisecting only mismatched halves, and locate
/// a divergence of `d` entries in `O(log n)` round trips instead of
/// shipping the whole index.
pub trait RangeDigest {
    /// `(xor_of_fingerprints, entry_count)` over repair keys in
    /// `[lo, hi]` (inclusive).
    fn digest_range(&self, lo: u64, hi: u64) -> (u64, u64);

    /// The entries whose repair keys fall in `[lo, hi]`, as
    /// `(repair_key, entry)` pairs — the transfer unit of reconciliation.
    fn items_in_range(&self, lo: u64, hi: u64) -> Vec<(u64, Self::Entry)>
    where
        Self: Sized;

    /// One transferable entry (enough to insert it on the lagging side).
    /// Equality is content equality — reconciliation compares entries
    /// under the same repair key to decide whether to re-transfer.
    type Entry: Clone + PartialEq + std::fmt::Debug;

    /// Applies one transferred entry (upsert by identity).
    fn apply_entry(&mut self, entry: &Self::Entry);

    /// Removes the entry with this repair key, if present (the lagging
    /// side holds an entry the authority does not).
    fn remove_by_repair_key(&mut self, key: u64);

    /// Wire bytes one transferred entry occupies (byte accounting for the
    /// repair-vs-full-resync comparison).
    fn entry_wire_bytes() -> usize
    where
        Self: Sized;
}

/// The client-side half of a backend: how offloaded traversals interpret
/// nodes fetched with one-sided reads.
pub trait ClientBackend: IndexBackend {
    /// A read request as the client sees it (query rectangle, key, key
    /// range, ...).
    type Read: Clone + std::fmt::Debug + 'static;

    /// Per-client scratch that [`ClientBackend::validate`] fills and
    /// [`ClientBackend::visit`] reads, reused across chunks (the R-tree's
    /// lane image, the B+-tree's decoded node).
    type VisitScratch: Default + 'static;

    /// Builds the fast-messaging request for `read`.
    fn read_request(seq: u32, read: &Self::Read) -> WireMessage<Self>;

    /// Checks one node chunk whose line stamps already agree, accepting
    /// exactly the chunks the layout's own `decode_node`
    /// ([`catfish_rtree::codec::ChunkLayout::decode_node`],
    /// [`catfish_bplus::BpLayout::decode_node`]) accepts and returning the
    /// node level, or the error `decode_node` reports. An accepted chunk
    /// is left in `scratch` for [`ClientBackend::visit`], so the engine
    /// reads each chunk's bytes once.
    ///
    /// # Errors
    ///
    /// Same conditions, and the same error, as the layout's
    /// `decode_node`.
    fn validate(
        layout: &Self::Layout,
        chunk: &[u8],
        scratch: &mut Self::VisitScratch,
    ) -> Result<u32, CodecError>;

    /// Visits the node the last successful [`ClientBackend::validate`]
    /// left in `scratch`: pushes matching items to `items` and children
    /// still to visit to `children`, in the order
    /// [`ClientBackend::expand`] would on the decoded node. The offload
    /// engine calls this for every chunk, wire-fetched or cache-served.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClientBackend::expand`].
    fn visit(
        read: &Self::Read,
        scratch: &Self::VisitScratch,
        items: &mut Vec<WireItem<Self>>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent>;

    /// Expands one fetched node: pushes matching items to `items` and
    /// children still to visit (with their expected level) to `children`.
    ///
    /// # Errors
    ///
    /// [`Inconsistent`] when the node contradicts the traversal's
    /// expectations (stale pointer, leaf/internal mismatch) — the generic
    /// engine restarts the traversal from fresh metadata.
    fn expand(
        read: &Self::Read,
        node: &LayoutNode<Self>,
        items: &mut Vec<WireItem<Self>>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent>;
}

/// An offloaded traversal observed a state that cannot belong to any
/// consistent snapshot of the index (stale root, level mismatch,
/// undecodable chunk). The traversal restarts from fresh metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inconsistent;

/// Everything an offloading client needs to traverse an index remotely.
#[derive(Debug, Clone, Copy)]
pub struct RemoteHandle<L: RemoteLayout> {
    /// rkey of the registered chunk arena.
    pub rkey: u32,
    /// Chunk geometry (shared constant of the deployment).
    pub layout: L,
}

/// Splits `items` into CONT frames terminated by an END frame carrying
/// `status`. Responses that fit one segment are a single END.
pub(crate) fn response_frames<W: WireCodec>(
    seq: u32,
    items: Vec<W::Item>,
    status: u32,
    seg: usize,
) -> Vec<W::Message> {
    let seg = seg.max(1);
    if items.len() <= seg {
        return vec![W::end(seq, items, status)];
    }
    let mut out = Vec::with_capacity(items.len() / seg + 1);
    let mut it = items.into_iter().peekable();
    loop {
        let mut chunk = Vec::with_capacity(seg);
        while chunk.len() < seg {
            match it.next() {
                Some(r) => chunk.push(r),
                None => break,
            }
        }
        if it.peek().is_some() {
            out.push(W::cont(seq, chunk));
        } else {
            out.push(W::end(seq, chunk, status));
            return out;
        }
    }
}
