//! The Catfish R-tree client: the R\*-tree's [`ClientBackend`] port onto
//! the generic [`ServiceClient`] engine, plus the R-tree-specific kNN
//! operations.
//!
//! Path routing (Algorithm 1), the ring request/response sequencing, and
//! the offloaded traversal engine (sequential and multi-issue, §IV-C) all
//! live in [`crate::service`]; this module contributes only how a search
//! rectangle expands one fetched node, and kNN's best-first frontier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use catfish_rtree::codec::{ChunkLayout, CodecError, LaneNode};
use catfish_rtree::{min_dist_sq, EntryRef, Node, NodeId, Rect};

use crate::msg::Message;
use crate::obs::SpanCtx;
use crate::server::RtreeBackend;
use crate::service::client::Frontier;
use crate::service::{ClientBackend, ClusterClient, Inconsistent, OpKind, ServiceClient};

/// The Catfish R-tree client.
pub type CatfishClient = ServiceClient<RtreeBackend>;

/// A scatter-gather client over a sharded R-tree cluster.
pub type CatfishClusterClient = ClusterClient<RtreeBackend>;

impl ClientBackend for RtreeBackend {
    type Read = Rect;
    type VisitScratch = LaneNode;

    fn read_request(seq: u32, read: &Rect) -> Message {
        Message::SearchReq { seq, rect: *read }
    }

    /// De-stitches the chunk once into the lane image and checks every
    /// entry there ([`ChunkLayout::validate_lanes_into`]).
    fn validate(
        layout: &ChunkLayout,
        chunk: &[u8],
        lanes: &mut LaneNode,
    ) -> Result<u32, CodecError> {
        layout.validate_lanes_into(chunk, lanes)
    }

    /// The server's lane visit on the client ([`LaneNode::visit_window`]
    /// over the validated lane image): the items and children, in
    /// ascending entry order, that [`RtreeBackend::expand`] produces for
    /// the decoded node. The visit checks each hit's tag against the
    /// level, so data only comes out of leaves and child ids only out of
    /// internal nodes.
    fn visit(
        read: &Rect,
        lanes: &LaneNode,
        items: &mut Vec<(Rect, u64)>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent> {
        let level = lanes.level();
        lanes
            .visit_window(
                read,
                |r, d| items.push((r, d)),
                |c| children.push((c, level - 1)),
            )
            .map_err(|_| Inconsistent)
    }

    /// Intersects a node against the query, pushing full `(mbr, payload)`
    /// hits to `items` and intersecting children (with their expected
    /// level) to `children`.
    fn expand(
        read: &Rect,
        node: &Node,
        items: &mut Vec<(Rect, u64)>,
        children: &mut Vec<(NodeId, u32)>,
    ) -> Result<(), Inconsistent> {
        for e in &node.entries {
            if !e.mbr.intersects(read) {
                continue;
            }
            match e.child {
                catfish_rtree::EntryRef::Data(d) => {
                    if node.level != 0 {
                        return Err(Inconsistent);
                    }
                    items.push((e.mbr, d));
                }
                catfish_rtree::EntryRef::Node(c) => {
                    if node.level == 0 {
                        return Err(Inconsistent);
                    }
                    children.push((c, node.level - 1));
                }
            }
        }
        Ok(())
    }
}

impl ServiceClient<RtreeBackend> {
    /// Searches for all items intersecting `rect`, choosing the execution
    /// path per the configured [`crate::config::AccessMode`]. Returns the
    /// payload ids.
    pub async fn search(&mut self, rect: &Rect) -> Vec<u64> {
        let items = self.read(rect).await;
        items.into_iter().map(|(_, d)| d).collect()
    }

    /// Inserts an item; write requests always travel through the ring and
    /// are executed by server threads (paper §III-B).
    pub async fn insert(&mut self, rect: Rect, data: u64) -> bool {
        let insert = |seq| Message::InsertReq { seq, rect, data };
        self.write_request(OpKind::Write, None, insert).await.0 == 1
    }

    /// Deletes the exact item `(rect, data)` through the server.
    pub async fn delete(&mut self, rect: Rect, data: u64) -> bool {
        let delete = |seq| Message::DeleteReq { seq, rect, data };
        self.write_request(OpKind::Remove, None, delete).await.0 == 1
    }

    /// Finds the `k` items nearest to `(x, y)`, in increasing distance
    /// order, served by the server through fast messaging.
    pub async fn nearest(&mut self, x: f64, y: f64, k: u32) -> Vec<(Rect, u64)> {
        self.nearest_under(x, y, k, None).await
    }

    /// [`CatfishClient::nearest`] as an `Rpc` leg under `parent` (a
    /// scatter-gather root) when given.
    pub(crate) async fn nearest_under(
        &mut self,
        x: f64,
        y: f64,
        k: u32,
        parent: Option<SpanCtx>,
    ) -> Vec<(Rect, u64)> {
        self.rpc(parent, None, |seq| Message::NearestReq { seq, x, y, k })
            .await
            .1
    }

    /// Offloaded kNN: best-first search executed entirely with one-sided
    /// reads. Unlike range searches, kNN's priority queue serializes the
    /// fetches (each expansion depends on the globally nearest frontier
    /// node), so every expansion costs a round trip — it trades latency for
    /// zero server CPU. Falls back to the server after repeated
    /// inconsistencies; its request links to this op's span, so the
    /// server spans land in the same tree.
    pub async fn nearest_offloaded(&mut self, x: f64, y: f64, k: u32) -> Vec<(Rect, u64)> {
        let start = |root, level| Nearest::new(x, y, k, root, level);
        let fallback = async |this: &mut Self| this.nearest(x, y, k).await;
        self.offload(false, start, fallback).await
    }
}

/// Offloaded kNN's visit of the node [`ClientBackend::validate`] left in
/// `lanes`: every entry, in entry order, with its squared minimum distance
/// to `(x, y)` and its child, the tag checked against the level.
pub fn nearest_entries(
    lanes: &LaneNode,
    x: f64,
    y: f64,
) -> impl Iterator<Item = Result<(f64, Rect, EntryRef), Inconsistent>> + '_ {
    (0..lanes.count()).map(move |i| {
        let rect = lanes.rect_at(i);
        let child = lanes.child(i).map_err(|_| Inconsistent)?;
        Ok((min_dist_sq(&rect, x, y), rect, child))
    })
}

/// Offloaded kNN's frontier: a min-heap of nodes and items keyed by squared
/// minimum distance to the query point, ties broken by push order. Items
/// popped before the next node are the answer, nearest first.
struct Nearest {
    x: f64,
    y: f64,
    k: usize,
    /// `(distance bits, push order, candidate)`: distances are finite and
    /// non-negative, so their IEEE bit patterns order as the values do.
    heap: BinaryHeap<Reverse<(u64, u64, Candidate)>>,
    pushed: u64,
    /// Every item pushed, indexed by [`Candidate::Item`].
    items: Vec<(Rect, u64)>,
    out: Vec<(Rect, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Candidate {
    Node(NodeId, u32),
    Item(usize),
}

impl Nearest {
    fn new(x: f64, y: f64, k: u32, root: NodeId, level: u32) -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0, 0, Candidate::Node(root, level))));
        Nearest {
            x,
            y,
            k: k as usize,
            heap,
            pushed: 0,
            items: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl Frontier<RtreeBackend> for Nearest {
    fn visit(&mut self, lanes: &LaneNode) -> Result<(), Inconsistent> {
        for entry in nearest_entries(lanes, self.x, self.y) {
            let (dist, rect, child) = entry?;
            let candidate = match child {
                EntryRef::Data(data) => {
                    self.items.push((rect, data));
                    Candidate::Item(self.items.len() - 1)
                }
                EntryRef::Node(id) => Candidate::Node(id, lanes.level() - 1),
            };
            self.pushed += 1;
            self.heap
                .push(Reverse((dist.to_bits(), self.pushed, candidate)));
        }
        Ok(())
    }

    fn pop(&mut self) -> Option<(NodeId, u32)> {
        while self.out.len() < self.k {
            match self.heap.pop()?.0 .2 {
                Candidate::Item(i) => self.out.push(self.items[i]),
                Candidate::Node(id, level) => return Some((id, level)),
            }
        }
        None
    }

    fn into_items(self) -> Vec<(Rect, u64)> {
        self.out
    }
}

// Scatter legs each borrow a *different* shard's client cell, and the
// simulator is single-threaded cooperative, so a borrow held across an
// await can only conflict with re-entrant use of the same shard client —
// the same (accepted) sharing rule as everywhere else in the sim.
#[allow(clippy::await_holding_refcell_ref)]
impl ClusterClient<RtreeBackend> {
    /// Searches for all items intersecting `rect` across the cluster:
    /// routed to one shard when only one boundary MBR intersects (the
    /// common case for point-ish queries), otherwise scattered in parallel
    /// over the intersecting shards and concatenated — shards own disjoint
    /// item sets, so the union needs no dedup.
    pub async fn search(&self, rect: &Rect) -> Vec<u64> {
        let targets = self.map.read_targets(rect);
        match targets.len() {
            0 => Vec::new(),
            1 => self.read_conn(targets[0]).borrow_mut().search(rect).await,
            _ => {
                let rect = *rect;
                let root = self.trace.borrow().open(None);
                let leg = Some(root.ctx());
                let parts = self
                    .scatter(&targets, move |shard| {
                        Box::pin(async move { shard.borrow_mut().read_under(&rect, leg).await })
                    })
                    .await;
                let merge = self.trace.borrow().begin();
                let out = parts.into_iter().flatten().map(|(_, d)| d).collect();
                self.end_scatter(root, merge);
                out
            }
        }
    }

    /// Inserts an item on its home shard, widening that shard's boundary
    /// MBR first so a scatter issued after this call can already see it.
    pub async fn insert(&mut self, rect: Rect, data: u64) -> bool {
        let home = self.map.home_shard(&rect);
        self.map.grow(home, &rect);
        self.replicated_write(home, OpKind::Write, |seq| Message::InsertReq {
            seq,
            rect,
            data,
        })
        .await
        .0 == 1
    }

    /// Deletes the exact item `(rect, data)` from its home shard. The
    /// shard's bound is left as-is (bounds only grow — a stale-wide bound
    /// merely costs an extra scatter target, never correctness).
    pub async fn delete(&mut self, rect: Rect, data: u64) -> bool {
        let home = self.map.home_shard(&rect);
        self.replicated_write(home, OpKind::Remove, |seq| Message::DeleteReq {
            seq,
            rect,
            data,
        })
        .await
        .0 == 1
    }

    /// Cluster kNN: every occupied shard answers its local k nearest in
    /// parallel, and the partials merge by true distance. Local top-k is
    /// sufficient — any global winner is also among its own shard's k
    /// nearest — so the merge is exact without a second round.
    pub async fn nearest(&self, x: f64, y: f64, k: u32) -> Vec<(Rect, u64)> {
        let targets = self.map.occupied();
        if targets.is_empty() {
            return Vec::new();
        }
        let root = self.trace.borrow().open(None);
        let leg = Some(root.ctx());
        let parts = self
            .scatter(&targets, move |shard| {
                Box::pin(async move { shard.borrow_mut().nearest_under(x, y, k, leg).await })
            })
            .await;
        let merge = self.trace.borrow().begin();
        let mut all: Vec<(Rect, u64)> = parts.into_iter().flatten().collect();
        all.sort_by_key(|(r, d)| (min_dist_sq(r, x, y).to_bits(), *d));
        all.truncate(k as usize);
        self.end_scatter(root, merge);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
    use crate::conn::RkeyAllocator;
    use crate::obs::{Phase, TraceSink};
    use crate::server::CatfishServer;
    use catfish_rdma::profile::infiniband_100g;
    use catfish_rdma::{Endpoint, RdmaProfile};
    use catfish_rtree::RTreeConfig;
    use catfish_simnet::{now, sleep, Network, Sim, SimDuration};

    fn grid_items(n: u64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64 / 100.0;
                let y = (i / 100) as f64 / 100.0;
                (Rect::new(x, y, x + 0.005, y + 0.005), i)
            })
            .collect()
    }

    fn build(mode: AccessMode, multi_issue: bool) -> (CatfishServer, CatfishClient) {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server = CatfishServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 4,
                mode: ServerMode::EventDriven,
                ..ServerConfig::default()
            },
            RTreeConfig::default(),
            grid_items(2000),
            &rkeys,
        );
        let client_ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&client_ep);
        let client = CatfishClient::new(
            ch,
            server.remote_handle(),
            ClientConfig {
                mode,
                multi_issue,
                ..ClientConfig::default()
            },
            7,
        );
        (server, client)
    }

    fn expected(server: &CatfishServer, q: &Rect) -> Vec<u64> {
        let mut v = server.with_index(|t| t.search(q));
        v.sort_unstable();
        v
    }

    #[test]
    fn fast_messaging_search_is_correct() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::FastMessaging, false);
            let q = Rect::new(0.1, 0.1, 0.2, 0.2);
            let mut got = client.search(&q).await;
            got.sort_unstable();
            assert_eq!(got, expected(&server, &q));
            assert!(!got.is_empty());
            assert_eq!(client.stats().fast_reads, 1);
            assert_eq!(client.stats().offloaded_reads, 0);
        });
    }

    #[test]
    fn offloaded_search_sequential_is_correct() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::Offloading, false);
            let q = Rect::new(0.3, 0.3, 0.42, 0.42);
            let mut got = client.search(&q).await;
            got.sort_unstable();
            assert_eq!(got, expected(&server, &q));
            assert!(client.stats().chunks_fetched > 0);
            assert_eq!(client.stats().offloaded_reads, 1);
            // Server CPU untouched by offloaded reads.
            assert_eq!(server.stats().reads, 0);
        });
    }

    /// Counts the retained `OffloadRead` and `OffloadRetry` spans.
    fn offload_spans(sink: &TraceSink) -> (usize, usize) {
        let spans = sink.spans();
        let count = |phase| spans.iter().filter(|s| s.kind == phase).count();
        (count(Phase::OffloadRead), count(Phase::OffloadRetry))
    }

    #[test]
    fn corrupt_meta_chunk_restarts_then_falls_back_to_fast_messaging() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::Offloading, true);
            let sink = TraceSink::with_spans();
            client.set_trace(sink.clone());
            // All-zero lines agree on their stamps, so every read of chunk
            // 0 is untorn but fails the meta magic check.
            let (region, chunk_bytes) = server.with_index(|t| {
                let store = t.store();
                (store.mem().region().clone(), store.layout().chunk_bytes())
            });
            region.write_local(0, &vec![0u8; chunk_bytes]);
            let q = Rect::new(0.3, 0.05, 0.42, 0.12);
            let mut got = client.search(&q).await;
            got.sort_unstable();
            assert!(!got.is_empty());
            assert_eq!(got, expected(&server, &q));
            let stats = client.stats();
            assert_eq!(stats.offloaded_reads, 1);
            assert_eq!(stats.offload_restarts, 8);
            assert_eq!(stats.chunks_fetched, 0);
            assert_eq!(server.stats().reads, 1, "the fallback ran on the server");
            assert_eq!(offload_spans(&sink), (1, 1));
            // kNN takes the same restart-then-fall-back path.
            let want = client.nearest(0.31, 0.11, 5).await;
            assert_eq!(want.len(), 5);
            assert_eq!(client.nearest_offloaded(0.31, 0.11, 5).await, want);
            assert_eq!(client.stats().offload_restarts, 16);
            assert_eq!(offload_spans(&sink), (2, 2));
        });
    }

    #[test]
    fn offloaded_search_multi_issue_is_correct_and_faster() {
        let sim = Sim::new();
        let (seq_time, mi_time) = sim.run_until(async {
            let (server, mut seq_client) = build(AccessMode::Offloading, false);
            // Wide query (the grid_items dataset spans y in [0, 0.2]):
            // many intersecting children per level.
            let q = Rect::new(0.2, 0.02, 0.5, 0.15);
            let t0 = now();
            let mut a = seq_client.search(&q).await;
            let seq_time = now() - t0;

            let client_ep = Endpoint::new(
                server.endpoint().network(),
                server.endpoint().network().add_node(infiniband_100g().link),
                RdmaProfile::default(),
            );
            let ch = server.accept(&client_ep);
            let mut mi_client = CatfishClient::new(
                ch,
                server.remote_handle(),
                ClientConfig {
                    mode: AccessMode::Offloading,
                    multi_issue: true,
                    ..ClientConfig::default()
                },
                8,
            );
            let t1 = now();
            let mut b = mi_client.search(&q).await;
            let mi_time = now() - t1;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert_eq!(a, expected(&server, &q));
            (seq_time, mi_time)
        });
        assert!(
            mi_time < seq_time,
            "multi-issue {mi_time} should beat sequential {seq_time}"
        );
    }

    #[test]
    fn insert_then_search_round_trip() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::FastMessaging, false);
            let rect = Rect::new(0.77, 0.77, 0.772, 0.772);
            assert!(client.insert(rect, 555_000).await);
            let got = client.search(&rect).await;
            assert!(got.contains(&555_000));
            assert!(client.delete(rect, 555_000).await);
            assert!(!client.search(&rect).await.contains(&555_000));
            server.with_index(|t| t.check_invariants()).unwrap();
        });
    }

    #[test]
    fn offloaded_search_sees_items_inserted_via_ring() {
        let sim = Sim::new();
        sim.run_until(async {
            let (_server, mut client) = build(AccessMode::Offloading, true);
            // Inserts go through the ring even in offloading mode.
            let rect = Rect::new(0.88, 0.88, 0.882, 0.882);
            assert!(client.insert(rect, 777_000).await);
            let got = client.search(&rect).await;
            assert!(got.contains(&777_000));
            assert!(client.stats().writes_sent == 1);
        });
    }

    #[test]
    fn adaptive_stays_fast_when_server_idle() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::Adaptive(AdaptiveParams::default()), true);
            server.start_heartbeats();
            for _ in 0..20 {
                let q = Rect::new(0.4, 0.4, 0.45, 0.45);
                client.search(&q).await;
                sleep(SimDuration::from_millis(1)).await;
            }
            // An idle server never crosses T: everything stays fast.
            assert_eq!(client.stats().offloaded_reads, 0);
            assert_eq!(client.stats().fast_reads, 20);
        });
    }

    #[test]
    fn adaptive_offloads_when_server_reports_busy() {
        let sim = Sim::new();
        sim.run_until(async {
            let (_server, mut client) =
                build(AccessMode::Adaptive(AdaptiveParams::default()), true);
            // Inject a synthetic "busy" heartbeat and let Inv elapse
            // (including the client's randomized consumption phase).
            sleep(SimDuration::from_millis(25)).await;
            client.adaptive.note_heartbeat(0.99);
            for _ in 0..16 {
                client.search(&Rect::new(0.4, 0.4, 0.41, 0.41)).await;
            }
            assert!(
                client.stats().offloaded_reads > 0,
                "busy heartbeat must trigger at least some offloading"
            );
        });
    }

    #[test]
    fn backoff_band_grows_with_persistent_busyness() {
        let sim = Sim::new();
        sim.run_until(async {
            let (_server, mut client) =
                build(AccessMode::Adaptive(AdaptiveParams::default()), true);
            // Get past the client's randomized consumption phase, then
            // simulate repeated busy observations spaced by > Inv.
            sleep(SimDuration::from_millis(15)).await;
            let mut bands = Vec::new();
            for _ in 0..4 {
                sleep(SimDuration::from_millis(11)).await;
                client.adaptive.note_heartbeat(1.0);
                client.adaptive.decide();
                bands.push(client.adaptive.band());
            }
            // r_busy increments each time the fresh heartbeat says busy
            // while r_off is inside the current band.
            assert_eq!(bands[0].0, 1);
            assert!(
                bands.last().unwrap().0 >= 2,
                "band should escalate: {bands:?}"
            );
        });
    }

    #[test]
    fn heartbeats_are_consumed_from_ring() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, mut client) = build(AccessMode::Adaptive(AdaptiveParams::default()), true);
            server.start_heartbeats();
            sleep(SimDuration::from_millis(25)).await;
            client.drain_pending();
            // A recorded heartbeat becomes consumable by the next decide.
            sleep(SimDuration::from_millis(25)).await;
            client.adaptive.note_heartbeat(1.0);
            assert!(client.adaptive.decide() || client.adaptive.band().0 > 0);
        });
    }
}
