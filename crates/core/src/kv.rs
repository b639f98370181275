//! A Catfish-style **key-value service** over a B+-tree — the paper's §VI
//! generality claim realized at the service layer.
//!
//! Everything structural is shared with the R-tree service through the
//! generic engine in [`crate::service`]: the same ring workers (polling and
//! event-driven), the same one-sided verbs, the same versioned chunk
//! validation (now over [`catfish_bplus`] chunks), the same CPU heartbeats,
//! the *same* Algorithm 1 implementation deciding per-request between fast
//! messaging and offloaded traversal, and the same multi-issue traversal
//! engine. This module contributes only the KV wire payloads ([`KvWire`]),
//! the B+-tree's [`IndexBackend`]/[`ClientBackend`] port, and the typed
//! `get`/`put`/`remove`/`range` surface — which is precisely the paper's
//! point.

use catfish_bplus::{BpChunkStore, BpConfig, BpLayout, BpNode, BpRefs, BpStore, BpTree};
use catfish_rtree::codec::{CodecError, RemoteLayout};
use catfish_rtree::{NodeId, TreeMeta};
use catfish_simnet::SimDuration;

use crate::config::CostModel;
use crate::msg::{le_u32, le_u64, MsgError};
use crate::obs::SpanCtx;
use crate::service::cluster::mix64;
use crate::service::{
    ClientBackend, ClusterClient, ClusterServer, Execution, Incoming, Inconsistent, IndexBackend,
    OpKind, RemoteHandle, Repairable, ServiceClient, ServiceServer, ShardMap, ShardPartition,
    WireCodec,
};
use crate::store::{replicate_store, MrMemory};

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

const TAG_GET: u8 = 32;
const TAG_PUT: u8 = 33;
const TAG_REMOVE: u8 = 34;
const TAG_RANGE: u8 = 35;
const TAG_RESP_CONT: u8 = 36;
const TAG_RESP_END: u8 = 37;

/// Writes a response segment's pair count, then each `(key, value)`.
fn put_pairs(out: &mut Vec<u8>, entries: &[(u64, u64)]) {
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A key-value service message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvMessage {
    /// Look up one key.
    GetReq {
        /// Client-local sequence number.
        seq: u32,
        /// Key.
        key: u64,
    },
    /// Insert or replace one pair.
    PutReq {
        /// Client-local sequence number.
        seq: u32,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Remove one key.
    RemoveReq {
        /// Client-local sequence number.
        seq: u32,
        /// Key.
        key: u64,
    },
    /// All pairs with `lo <= key <= hi`.
    RangeReq {
        /// Client-local sequence number.
        seq: u32,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// Non-final slice of range results.
    RespCont {
        /// Echo of the request sequence number.
        seq: u32,
        /// Pairs in this segment.
        entries: Vec<(u64, u64)>,
    },
    /// Final response segment.
    RespEnd {
        /// Echo of the request sequence number.
        seq: u32,
        /// Pairs in this segment (get: 0 or 1; put/remove: previous pair
        /// if any).
        entries: Vec<(u64, u64)>,
        /// 1 if the operation found/affected a key.
        status: u32,
    },
}

impl KvMessage {
    /// Serializes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvMessage::GetReq { seq, key } => {
                out.push(TAG_GET);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            KvMessage::PutReq { seq, key, value } => {
                out.push(TAG_PUT);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            KvMessage::RemoveReq { seq, key } => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            KvMessage::RangeReq { seq, lo, hi } => {
                out.push(TAG_RANGE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            KvMessage::RespCont { seq, entries } => {
                out.push(TAG_RESP_CONT);
                out.extend_from_slice(&seq.to_le_bytes());
                put_pairs(&mut out, entries);
            }
            KvMessage::RespEnd {
                seq,
                entries,
                status,
            } => {
                out.push(TAG_RESP_END);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
                put_pairs(&mut out, entries);
            }
        }
        out
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError`] on truncation or unknown tags.
    pub fn decode(buf: &[u8]) -> Result<KvMessage, MsgError> {
        let (&tag, rest) = buf.split_first().ok_or(MsgError::Truncated)?;
        let u32_at = |o: usize| le_u32(rest, o);
        let u64_at = |o: usize| le_u64(rest, o);
        // A response segment's `u32` count at `rest[at..]`, then that many
        // 16-byte pairs. The count is checked against the buffer before
        // allocating: a forged count must not trigger a huge allocation.
        let pairs = |at: usize| {
            let n = u32_at(at)? as usize;
            if rest.len() < (at + 4).saturating_add(n.saturating_mul(16)) {
                return Err(MsgError::Truncated);
            }
            let mut entries = Vec::with_capacity(n);
            for i in 0..n {
                let at = at + 4 + 16 * i;
                entries.push((u64_at(at)?, u64_at(at + 8)?));
            }
            Ok(entries)
        };
        match tag {
            TAG_GET => Ok(KvMessage::GetReq {
                seq: u32_at(0)?,
                key: u64_at(4)?,
            }),
            TAG_PUT => Ok(KvMessage::PutReq {
                seq: u32_at(0)?,
                key: u64_at(4)?,
                value: u64_at(12)?,
            }),
            TAG_REMOVE => Ok(KvMessage::RemoveReq {
                seq: u32_at(0)?,
                key: u64_at(4)?,
            }),
            TAG_RANGE => Ok(KvMessage::RangeReq {
                seq: u32_at(0)?,
                lo: u64_at(4)?,
                hi: u64_at(12)?,
            }),
            TAG_RESP_CONT => Ok(KvMessage::RespCont {
                seq: u32_at(0)?,
                entries: pairs(4)?,
            }),
            TAG_RESP_END => Ok(KvMessage::RespEnd {
                seq: u32_at(0)?,
                status: u32_at(4)?,
                entries: pairs(8)?,
            }),
            other => Err(MsgError::UnknownTag(other)),
        }
    }
}

/// The KV service's [`WireCodec`]: [`KvMessage`] on the wire, result items
/// are `(key, value)` pairs.
#[derive(Debug, Clone, Copy)]
pub struct KvWire;

impl WireCodec for KvWire {
    type Message = KvMessage;
    type Item = (u64, u64);

    const ITEM_WIRE_BYTES: usize = 16;

    fn encode(msg: &KvMessage) -> Vec<u8> {
        msg.encode()
    }

    fn decode(bytes: &[u8]) -> Result<KvMessage, MsgError> {
        KvMessage::decode(bytes)
    }

    fn cont(seq: u32, items: Vec<(u64, u64)>) -> KvMessage {
        KvMessage::RespCont {
            seq,
            entries: items,
        }
    }

    fn end(seq: u32, items: Vec<(u64, u64)>, status: u32) -> KvMessage {
        KvMessage::RespEnd {
            seq,
            entries: items,
            status,
        }
    }

    fn classify(msg: KvMessage) -> Incoming<Self> {
        match msg {
            KvMessage::RespCont { seq, entries } => Incoming::Cont {
                seq,
                items: entries,
            },
            KvMessage::RespEnd {
                seq,
                entries,
                status,
            } => Incoming::End {
                seq,
                items: entries,
                status,
            },
            other => Incoming::Request(other),
        }
    }

    fn request_meta(msg: &KvMessage) -> Option<(u32, OpKind)> {
        match msg {
            KvMessage::GetReq { seq, .. } => Some((*seq, OpKind::Read)),
            KvMessage::RangeReq { seq, .. } => Some((*seq, OpKind::Read)),
            KvMessage::PutReq { seq, .. } => Some((*seq, OpKind::Write)),
            KvMessage::RemoveReq { seq, .. } => Some((*seq, OpKind::Remove)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------

/// The KV service backend: a B+-tree over a registered chunk arena.
pub type KvBackend = BpTree<BpChunkStore<MrMemory>>;

/// The key-value server.
pub type KvServer = ServiceServer<KvBackend>;

/// A key-value client with the same three access modes as the R-tree
/// client; point lookups and range scans may be offloaded, writes always
/// use the ring.
pub type KvClient = ServiceClient<KvBackend>;

/// Bootstrap info for offloading KV clients.
pub type KvTreeHandle = RemoteHandle<BpLayout>;

/// A sharded KV cluster (hash-partitioned).
pub type KvCluster = ClusterServer<KvBackend>;

/// A scatter-gather client over a sharded KV cluster.
pub type KvClusterClient = ClusterClient<KvBackend>;

impl ShardPartition for KvBackend {
    /// Hash partition: each pair lands on the shard its key hashes to on
    /// the ring, so the load sets match what [`ShardMap::key_shard`]
    /// routes later operations to.
    fn partition(items: Vec<(u64, u64)>, shards: usize) -> (Vec<Vec<(u64, u64)>>, ShardMap) {
        let map = ShardMap::hash_ring(shards);
        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); shards];
        for (k, v) in items {
            parts[map.key_shard(k)].push((k, v));
        }
        (parts, map)
    }
}

// Same sharing rule as the R-tree cluster client: each leg borrows its
// own shard's cell, single-threaded cooperative sim, so the held-across-
// await borrow only excludes re-entrant use of one shard client.
#[allow(clippy::await_holding_refcell_ref)]
impl ClusterClient<KvBackend> {
    /// Looks up `key` on its ring shard.
    pub async fn get(&mut self, key: u64) -> Option<u64> {
        let s = self.map.key_shard(key);
        self.read_conn(s).borrow_mut().get(key).await
    }

    /// Inserts or replaces a pair on its ring shard; returns the previous
    /// value if any.
    pub async fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        let s = self.map.key_shard(key);
        self.replicated_write(s, OpKind::Write, |seq| KvMessage::PutReq {
            seq,
            key,
            value,
        })
        .await
        .1
        .first()
        .map(|&(_, v)| v)
    }

    /// Removes a key from its ring shard; returns its value if present.
    pub async fn remove(&mut self, key: u64) -> Option<u64> {
        let s = self.map.key_shard(key);
        self.replicated_write(s, OpKind::Remove, |seq| KvMessage::RemoveReq { seq, key })
            .await
            .1
            .first()
            .map(|&(_, v)| v)
    }

    /// All pairs with `lo <= key <= hi`: hash partitioning spreads a key
    /// range over every shard, so ranges always scatter cluster-wide and
    /// merge-sort the partials by key.
    pub async fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let targets: Vec<usize> = (0..self.shards()).collect();
        let root = self.trace.borrow().open(None);
        let leg = Some(root.ctx());
        let parts = self
            .scatter(&targets, move |shard| {
                Box::pin(async move { shard.borrow_mut().range_under(lo, hi, leg).await })
            })
            .await;
        let merge = self.trace.borrow().begin();
        let mut all: Vec<(u64, u64)> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        self.end_scatter(root, merge);
        all
    }
}

impl IndexBackend for KvBackend {
    type Wire = KvWire;
    type Config = BpConfig;
    type LoadItem = (u64, u64);
    type Layout = BpLayout;

    fn layout(cfg: &BpConfig) -> BpLayout {
        BpLayout::for_max_keys(cfg.max_keys)
    }

    fn estimate_chunks(cfg: &BpConfig, items: usize) -> u32 {
        ((items / cfg.min_keys().max(1) + 1024) * 2) as u32
    }

    fn load(mem: MrMemory, layout: BpLayout, cfg: BpConfig, items: Vec<(u64, u64)>) -> Self {
        let mut tree = BpTree::new(BpChunkStore::new(mem, layout), cfg);
        for (k, v) in items {
            tree.insert(k, v);
        }
        tree
    }

    fn replicate(&self, mem: MrMemory) -> Self {
        BpTree::open(replicate_store(self.store(), mem), self.config())
    }

    fn set_torn_window(&self, window: SimDuration) {
        self.store().mem().set_torn_window(window);
    }

    fn meta(&self) -> TreeMeta {
        self.store().meta()
    }

    fn execute(&mut self, msg: KvMessage, cost: &CostModel) -> Option<Execution<KvWire>> {
        let height = u64::from(self.height());
        match msg {
            KvMessage::GetReq { seq, key } => {
                let got = self.get(key);
                let (entries, status) = match got {
                    Some(v) => (vec![(key, v)], 1),
                    None => (Vec::new(), 0),
                };
                Some(Execution {
                    seq,
                    kind: OpKind::Read,
                    cost: cost.node_visit * height.max(1),
                    items: entries,
                    status,
                    nodes_visited: height.max(1),
                })
            }
            KvMessage::PutReq { seq, key, value } => {
                let old = self.insert(key, value);
                let (entries, status) = match old {
                    Some(v) => (vec![(key, v)], 1),
                    None => (Vec::new(), 0),
                };
                Some(Execution {
                    seq,
                    kind: OpKind::Write,
                    cost: cost.write_op + cost.node_visit * (height + 1),
                    items: entries,
                    status,
                    nodes_visited: 0,
                })
            }
            KvMessage::RemoveReq { seq, key } => {
                let old = self.remove(key);
                let (entries, status) = match old {
                    Some(v) => (vec![(key, v)], 1),
                    None => (Vec::new(), 0),
                };
                Some(Execution {
                    seq,
                    kind: OpKind::Remove,
                    cost: cost.write_op + cost.node_visit * (height + 1),
                    items: entries,
                    status,
                    nodes_visited: 0,
                })
            }
            KvMessage::RangeReq { seq, lo, hi } => {
                let entries = self.range(lo, hi);
                let len = entries.len() as u64;
                Some(Execution {
                    seq,
                    kind: OpKind::Read,
                    cost: cost.node_visit * height.max(1) + cost.per_result * len,
                    items: entries,
                    status: 1,
                    nodes_visited: height.max(1),
                })
            }
            // Responses never arrive at the server.
            KvMessage::RespCont { .. } | KvMessage::RespEnd { .. } => None,
        }
    }
}

/// Content fingerprint of one KV pair for hash-range reconciliation:
/// depends on both key and value, so a replica holding a stale value for a
/// key still shows up as a digest mismatch.
fn kv_fingerprint(key: u64, value: u64) -> u64 {
    mix64(mix64(key) ^ mix64(value ^ 0x9e37_79b9_7f4a_7c15))
}

impl Repairable for KvBackend {
    type Entry = (u64, u64);

    fn repair_entries(&self) -> Vec<(u64, u64, (u64, u64))> {
        self.range(0, u64::MAX)
            .into_iter()
            .map(|(k, v)| (mix64(k), kv_fingerprint(k, v), (k, v)))
            .collect()
    }

    fn insert_entry(&mut self, &(key, value): &(u64, u64)) {
        self.insert(key, value);
    }

    fn remove_entry(&mut self, &(key, _): &(u64, u64)) {
        self.remove(key);
    }
}

/// A KV read request as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvRead {
    /// Look up one key.
    Get(u64),
    /// All pairs with `lo <= key <= hi`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl ClientBackend for KvBackend {
    type Read = KvRead;
    type VisitScratch = BpNode;

    fn read_request(seq: u32, read: &KvRead) -> KvMessage {
        match *read {
            KvRead::Get(key) => KvMessage::GetReq { seq, key },
            KvRead::Range { lo, hi } => KvMessage::RangeReq { seq, lo, hi },
        }
    }

    /// Decodes the chunk into the reused scratch node: the B+ check and
    /// decode are one pass already.
    fn validate(layout: &BpLayout, chunk: &[u8], node: &mut BpNode) -> Result<u32, CodecError> {
        layout.decode_node_into(chunk, node)?;
        Ok(node.level)
    }

    fn visit(
        read: &KvRead,
        node: &BpNode,
        items: &mut Vec<(u64, u64)>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent> {
        Self::expand(read, node, items, children)
    }

    fn leaf_visits_extend(read: &KvRead) -> bool {
        matches!(read, KvRead::Range { .. })
    }

    /// Expands one fetched B+ node. Descents push the single child
    /// covering the search key; leaf visits push matching pairs, and range
    /// scans continue through the leaf `next` chain (at most one child per
    /// node, so both traversal engines preserve key order).
    fn expand(
        read: &KvRead,
        node: &BpNode,
        items: &mut Vec<(u64, u64)>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent> {
        match (&node.refs, *read) {
            (BpRefs::Children(kids), KvRead::Get(key)) => {
                let next_level = node.level.checked_sub(1).ok_or(Inconsistent)?;
                let idx = node.keys.partition_point(|k| *k <= key);
                let child = *kids.get(idx).ok_or(Inconsistent)?;
                children.push((child, next_level));
            }
            (BpRefs::Values(vals), KvRead::Get(key)) => {
                if node.level != 0 || vals.len() != node.keys.len() {
                    return Err(Inconsistent);
                }
                if let Ok(i) = node.keys.binary_search(&key) {
                    items.push((key, vals[i]));
                }
            }
            (BpRefs::Children(kids), KvRead::Range { lo, .. }) => {
                let next_level = node.level.checked_sub(1).ok_or(Inconsistent)?;
                let idx = node.keys.partition_point(|k| *k <= lo);
                let child = *kids.get(idx).ok_or(Inconsistent)?;
                children.push((child, next_level));
            }
            (BpRefs::Values(vals), KvRead::Range { lo, hi }) => {
                if node.level != 0 || vals.len() != node.keys.len() {
                    return Err(Inconsistent);
                }
                let mut done = false;
                for (i, &k) in node.keys.iter().enumerate() {
                    if k > hi {
                        done = true;
                        break;
                    }
                    if k >= lo {
                        items.push((k, vals[i]));
                    }
                }
                if !done {
                    if let Some(next) = node.next {
                        children.push((next, 0));
                    }
                }
            }
        }
        Ok(())
    }
}

impl ServiceClient<KvBackend> {
    /// Looks up `key`, routing per the configured
    /// [`crate::config::AccessMode`].
    pub async fn get(&mut self, key: u64) -> Option<u64> {
        self.read(&KvRead::Get(key)).await.first().map(|&(_, v)| v)
    }

    /// Inserts or replaces a pair through the server; returns the previous
    /// value if any.
    pub async fn put(&mut self, key: u64, value: u64) -> Option<u64> {
        let put = |seq| KvMessage::PutReq { seq, key, value };
        let (_, items) = self.write_request(OpKind::Write, None, put).await;
        items.first().map(|&(_, v)| v)
    }

    /// Removes a key through the server; returns its value if present.
    pub async fn remove(&mut self, key: u64) -> Option<u64> {
        let remove = |seq| KvMessage::RemoveReq { seq, key };
        let (_, items) = self.write_request(OpKind::Remove, None, remove).await;
        items.first().map(|&(_, v)| v)
    }

    /// All pairs with `lo <= key <= hi`, served by the server.
    pub async fn range(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.range_under(lo, hi, None).await
    }

    /// [`KvClient::range`] as an `Rpc` leg under `parent` (a
    /// scatter-gather root) when given.
    pub(crate) async fn range_under(
        &mut self,
        lo: u64,
        hi: u64,
        parent: Option<SpanCtx>,
    ) -> Vec<(u64, u64)> {
        self.stats.fast_reads += 1;
        let range = KvRead::Range { lo, hi };
        self.rpc(parent, None, |seq| KvBackend::read_request(seq, &range))
            .await
            .1
    }

    /// All pairs with `lo <= key <= hi`, gathered entirely with one-sided
    /// reads: descend to the leaf containing `lo`, then walk the leaf
    /// chain. Falls back to the server after repeated inconsistencies.
    pub async fn range_offloaded(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.stats.offloaded_reads += 1;
        self.offload_read(&KvRead::Range { lo, hi }).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessMode, ClientConfig, ServerConfig, ServerMode};
    use crate::conn::RkeyAllocator;
    use catfish_rdma::profile::infiniband_100g;
    use catfish_rdma::{Endpoint, RdmaProfile};
    use catfish_simnet::{spawn, Network, Sim};
    use std::cell::Cell;
    use std::rc::Rc;

    fn build(items: Vec<(u64, u64)>) -> (Network, KvServer) {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server = KvServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 4,
                mode: ServerMode::EventDriven,
                ..ServerConfig::default()
            },
            BpConfig::with_max_keys(32),
            items,
            &rkeys,
        );
        (net, server)
    }

    fn attach(net: &Network, server: &KvServer, mode: AccessMode, seed: u64) -> KvClient {
        let profile = infiniband_100g();
        let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&ep);
        KvClient::new(
            ch,
            server.remote_handle(),
            ClientConfig {
                mode,
                ..ClientConfig::default()
            },
            seed,
        )
    }

    /// An offloading client that walks multi-issue or one read at a time.
    fn attach_offloading(
        net: &Network,
        server: &KvServer,
        multi_issue: bool,
        seed: u64,
    ) -> KvClient {
        let ep = Endpoint::new(
            net,
            net.add_node(infiniband_100g().link),
            RdmaProfile::default(),
        );
        let ch = server.accept(&ep);
        let cfg = ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue,
            ..ClientConfig::default()
        };
        KvClient::new(ch, server.remote_handle(), cfg, seed)
    }

    fn items(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 7 % (n * 4), i)).collect()
    }

    /// Drives one raw connection: `storm` distinct puts after an initial
    /// seq-1 put, then a byte-identical retransmission of seq 1. Returns
    /// `(writes executed, dup_drops)` so callers can see whether the
    /// dedup window still remembered the original.
    async fn storm_then_retransmit(window: usize, storm: u32) -> (u64, u64) {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server = KvServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 2,
                mode: ServerMode::EventDriven,
                dedup_window: window,
                ..ServerConfig::default()
            },
            BpConfig::with_max_keys(32),
            items(100),
            &rkeys,
        );
        let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&ep);
        let send = |seq: u32, key: u64| {
            KvWire::encode(&KvMessage::PutReq {
                seq,
                key,
                value: u64::from(seq),
            })
        };
        async fn await_end(ch: &mut crate::conn::ClientChannel, want: u32) {
            loop {
                let bytes = ch.rx.wait_message().await;
                if let Ok(KvMessage::RespEnd { seq, .. }) = KvWire::decode(&bytes) {
                    if seq == want {
                        return;
                    }
                }
            }
        }
        let mut ch = ch;
        ch.tx.send(&send(1, 500_000), 1).await.unwrap();
        await_end(&mut ch, 1).await;
        for s in 2..2 + storm {
            ch.tx
                .send(&send(s, 500_000 + u64::from(s)), s)
                .await
                .unwrap();
            await_end(&mut ch, s).await;
        }
        // The retry: same seq, same bytes, long after the original.
        ch.tx.send(&send(1, 500_000), 1).await.unwrap();
        await_end(&mut ch, 1).await;
        let st = server.stats();
        (st.writes, st.dup_drops)
    }

    /// Regression for the once hard-coded dedup window: a write storm
    /// longer than a too-small window evicts the original entry, so a
    /// trailing retransmission re-executes (exactly-once broken); the
    /// default window rides out the same storm and answers from cache.
    #[test]
    fn dedup_window_size_bounds_storm_survival() {
        let sim = Sim::new();
        sim.run_until(async {
            let storm = 200u32;
            let (writes, dups) = storm_then_retransmit(64, storm).await;
            assert_eq!(
                (writes, dups),
                (u64::from(storm) + 2, 0),
                "64-entry window must evict under a 200-write storm"
            );
            let (writes, dups) = storm_then_retransmit(1024, storm).await;
            assert_eq!(
                (writes, dups),
                (u64::from(storm) + 1, 1),
                "default window must answer the retry from cache"
            );
        });
    }

    #[test]
    fn fast_path_get_put_remove_range() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build(items(1_000));
            let mut c = attach(&net, &server, AccessMode::FastMessaging, 1);
            assert_eq!(c.get(7).await, Some(1));
            assert_eq!(c.get(4_000_001).await, None);
            assert_eq!(c.put(7, 999).await, Some(1));
            assert_eq!(c.get(7).await, Some(999));
            assert_eq!(c.remove(7).await, Some(999));
            assert_eq!(c.get(7).await, None);
            let r = c.range(0, 100).await;
            let expect = server.with_index(|t| t.range(0, 100));
            assert_eq!(r, expect);
            assert!(!r.is_empty());
        });
    }

    #[test]
    fn offloaded_gets_match_fast_gets() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build(items(5_000));
            let mut off = attach(&net, &server, AccessMode::Offloading, 2);
            let mut fast = attach(&net, &server, AccessMode::FastMessaging, 3);
            for probe in 0..300u64 {
                let key = probe * 61 % 20_000;
                assert_eq!(off.get(key).await, fast.get(key).await, "key {key}");
            }
            assert_eq!(off.stats().offloaded_reads, 300);
            assert_eq!(fast.stats().fast_reads, 300);
        });
    }

    #[test]
    fn offloaded_gets_survive_concurrent_puts() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build(items(3_000));
            let mut writer = attach(&net, &server, AccessMode::FastMessaging, 4);
            let w = spawn(async move {
                for i in 0..2_000u64 {
                    writer.put(1_000_000 + i, i).await;
                }
            });
            let mut reader = attach(&net, &server, AccessMode::Offloading, 5);
            for probe in 0..200u64 {
                let key = probe * 7 % 12_000;
                // Pre-loaded keys must always resolve to their value.
                let expect = if key % 7 == 0 && key / 7 < 3_000 {
                    Some(key / 7)
                } else {
                    None
                };
                // Keys in the writer's range may or may not be visible yet;
                // skip them in the assertion.
                if key < 1_000_000 {
                    assert_eq!(reader.get(key).await, expect, "key {key}");
                }
            }
            w.await;
        });
    }

    #[test]
    fn adaptive_mode_works_end_to_end() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build(items(2_000));
            server.start_heartbeats();
            let mut c = attach(
                &net,
                &server,
                AccessMode::Adaptive(crate::config::AdaptiveParams::default()),
                6,
            );
            for probe in 0..100u64 {
                let key = probe * 7 % 8_000;
                let expect = server.with_index(|t| t.get(key));
                assert_eq!(c.get(key).await, expect, "key {key}");
            }
            let s = c.stats();
            assert_eq!(s.fast_reads + s.offloaded_reads, 100);
        });
    }

    #[test]
    fn offloaded_range_matches_server_range() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build((0..4_000u64).map(|i| (i * 3, i)).collect());
            let mut c = attach(&net, &server, AccessMode::Offloading, 11);
            for (lo, hi) in [
                (0u64, 100),
                (500, 2_000),
                (11_900, 12_100),
                (20_000, 30_000),
            ] {
                let off = c.range_offloaded(lo, hi).await;
                let srv = server.with_index(|t| t.range(lo, hi));
                assert_eq!(off, srv, "range [{lo}, {hi}]");
            }
            // Server CPU untouched by offloaded ranges except connection setup.
            assert!(c.stats().offloaded_reads >= 4);
            assert_eq!(server.stats().reads, 0);
        });
    }

    #[test]
    fn offloaded_range_survives_concurrent_puts() {
        let sim = Sim::new();
        sim.run_until(async {
            let (net, server) = build((0..3_000u64).map(|i| (i * 4, i)).collect());
            let mut writer = attach(&net, &server, AccessMode::FastMessaging, 12);
            let w = spawn(async move {
                for i in 0..1_500u64 {
                    writer.put(i * 4 + 1, i).await; // interleave between existing keys
                }
            });
            let mut reader = attach(&net, &server, AccessMode::Offloading, 13);
            for probe in 0..50u64 {
                let lo = probe * 97 % 10_000;
                let out = reader.range_offloaded(lo, lo + 400).await;
                // Monotone, and all pre-loaded keys in range are present.
                assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "probe {probe}");
                for k in (0..12_000u64).step_by(4) {
                    if k >= lo && k <= lo + 400 {
                        assert!(
                            out.iter().any(|&(ok, _)| ok == k),
                            "probe {probe} lost pre-loaded key {k}"
                        );
                    }
                }
            }
            w.await;
        });
    }

    /// Removes that borrow or merge move keys between leaves while
    /// offloaded range scans follow the leaf chain, on both walks. A leaf
    /// visit can queue the next leaf, so no leaf is known to be a scan's
    /// last read: a structure check posted behind an earlier leaf would
    /// miss a rebalance between it and a later leaf read. Every scan must
    /// be strictly increasing and keep every key the writer never touches.
    #[test]
    fn offloaded_range_survives_concurrent_rebalancing() {
        for multi_issue in [true, false] {
            let sim = Sim::new();
            sim.run_until(async move {
                // Multiples of 4 stay; the writer removes and re-puts the rest.
                const KEYS: u64 = 6_000;
                let (net, server) = build((0..KEYS).map(|k| (k, k)).collect());
                let mut writer = attach(&net, &server, AccessMode::FastMessaging, 12);
                let at = Rc::new(Cell::new(0u64));
                let done = Rc::new(Cell::new(false));
                let (w_at, w_done) = (Rc::clone(&at), Rc::clone(&done));
                let w = spawn(async move {
                    for round in 0..2u64 {
                        for k in (0..KEYS).filter(|k| k % 4 != 0) {
                            w_at.set(k);
                            if round % 2 == 0 {
                                writer.remove(k).await;
                            } else {
                                writer.put(k, k).await;
                            }
                        }
                    }
                    w_done.set(true);
                });
                let mut reader = attach_offloading(&net, &server, multi_issue, 13);
                let mut scans = 0u32;
                while !done.get() {
                    // A window around the writer, so scans race its rebalances.
                    let lo = at.get().saturating_sub(300);
                    let hi = lo + 600;
                    let out = reader.range_offloaded(lo, hi).await;
                    assert!(
                        out.windows(2).all(|p| p[0].0 < p[1].0),
                        "multi_issue {multi_issue}: scan [{lo}, {hi}] not strictly increasing"
                    );
                    for k in (lo.next_multiple_of(4)..=hi.min(KEYS - 1)).step_by(4) {
                        assert!(
                            out.iter().any(|&(ok, _)| ok == k),
                            "multi_issue {multi_issue}: scan [{lo}, {hi}] lost key {k}"
                        );
                    }
                    scans += 1;
                }
                w.await;
                let s = reader.stats();
                assert!(scans >= 100, "only {scans} scans raced the writer");
                assert!(s.offload_restarts > 0, "no scan saw a rebalance");
            });
        }
    }

    /// An unloaded offloaded range scan over many leaves reads the
    /// metadata line once, for its structure check after the last leaf,
    /// on both walks.
    #[test]
    fn offloaded_range_checks_structure_once() {
        for multi_issue in [true, false] {
            let sim = Sim::new();
            sim.run_until(async move {
                let (net, server) = build((0..4_000u64).map(|k| (k, k)).collect());
                let mut c = attach_offloading(&net, &server, multi_issue, 11);
                // Caches the metadata the next scan starts from.
                c.range_offloaded(0, 10).await;
                let before = c.stats();
                let out = c.range_offloaded(100, 900).await;
                assert_eq!(out.len(), 801);
                let s = c.stats();
                let chunks = s.chunks_fetched - before.chunks_fetched;
                assert!(chunks >= 25, "{chunks} chunks");
                assert_eq!(
                    s.meta_refreshes - before.meta_refreshes,
                    1,
                    "multi_issue {multi_issue}"
                );
            });
        }
    }

    #[test]
    fn range_spans_many_segments() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let server = KvServer::build(
                &net,
                &profile,
                ServerConfig {
                    cores: 4,
                    mode: ServerMode::EventDriven,
                    response_segment_results: 50,
                    ..ServerConfig::default()
                },
                BpConfig::with_max_keys(32),
                (0..2_000u64).map(|i| (i, i * 2)).collect(),
                &rkeys,
            );
            let mut c = attach(&net, &server, AccessMode::FastMessaging, 7);
            let r = c.range(0, 1_999).await;
            assert_eq!(r.len(), 2_000);
            assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
        });
    }
}
