//! The Catfish R-tree server: the R\*-tree's [`IndexBackend`] port onto the
//! generic [`ServiceServer`] engine.
//!
//! Everything transport-shaped — ring workers (polling and event-driven),
//! heartbeat publication, response segmentation, the TCP baseline — lives in
//! [`crate::service`]; this module only maps decoded [`Message`]s onto tree
//! operations and their CPU cost model.

use catfish_rtree::chunk::ChunkStore;
use catfish_rtree::codec::ChunkLayout;
use catfish_rtree::{bulk_load, partition_by_x, NodeStore, RTree, RTreeConfig, Rect, TreeMeta};
use catfish_simnet::SimDuration;

use crate::config::CostModel;
use crate::msg::{Message, RtreeWire};
use crate::service::cluster::mix64;
use crate::service::{
    ClusterServer, Execution, IndexBackend, OpKind, RangeDigest, RemoteHandle, ServiceServer,
    ShardMap, ShardPartition,
};
use crate::store::{replicate_store, MrMemory};

/// The R-tree service backend: an R\*-tree over a registered chunk arena.
pub type RtreeBackend = RTree<ChunkStore<MrMemory>>;

/// The Catfish R-tree server.
pub type CatfishServer = ServiceServer<RtreeBackend>;

/// A sharded R-tree cluster (space-partitioned).
pub type CatfishCluster = ClusterServer<RtreeBackend>;

/// Everything an offloading client needs to traverse the tree remotely.
pub type TreeHandle = RemoteHandle<ChunkLayout>;

impl ShardPartition for RtreeBackend {
    /// Space partition: contiguous x-slabs of the bulk-load set
    /// ([`partition_by_x`]), whose cuts become the cluster's routing table
    /// and whose per-slab MBRs seed the scatter-pruning bounds.
    fn partition(items: Vec<(Rect, u64)>, shards: usize) -> (Vec<Vec<(Rect, u64)>>, ShardMap) {
        let part = partition_by_x(items, shards);
        (part.slabs, ShardMap::region(part.cuts, part.bounds))
    }
}

/// Content fingerprint of one R-tree item: rectangle bits folded into the
/// id hash, so a repaired entry only digests equal when geometry *and*
/// identity match.
fn rtree_fingerprint(rect: &Rect, data: u64) -> u64 {
    let mut h = mix64(data);
    for coord in [rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y()] {
        h = mix64(h ^ coord.to_bits());
    }
    h
}

impl RangeDigest for RtreeBackend {
    type Entry = (Rect, u64);

    /// Repair keys are `mix64(id)`, not the raw id: bulk-load ids are
    /// dense integers, and bisection needs them spread uniformly over the
    /// `u64` keyspace for balanced halves.
    fn digest_range(&self, lo: u64, hi: u64) -> (u64, u64) {
        let mut xor = 0u64;
        let mut count = 0u64;
        for (rect, data) in self.items() {
            if (lo..=hi).contains(&mix64(data)) {
                xor ^= rtree_fingerprint(&rect, data);
                count += 1;
            }
        }
        (xor, count)
    }

    fn items_in_range(&self, lo: u64, hi: u64) -> Vec<(u64, Self::Entry)> {
        self.items()
            .into_iter()
            .filter(|(_, data)| (lo..=hi).contains(&mix64(*data)))
            .map(|(rect, data)| (mix64(data), (rect, data)))
            .collect()
    }

    fn apply_entry(&mut self, entry: &Self::Entry) {
        // Upsert by id: a stale copy under the same id (diverged geometry)
        // must not survive next to the authoritative one.
        self.remove_by_repair_key(mix64(entry.1));
        self.insert(entry.0, entry.1);
    }

    fn remove_by_repair_key(&mut self, key: u64) {
        let stale: Vec<(Rect, u64)> = self
            .items()
            .into_iter()
            .filter(|(_, data)| mix64(*data) == key)
            .collect();
        for (rect, data) in stale {
            self.delete(&rect, data);
        }
    }

    fn entry_wire_bytes() -> usize {
        <RtreeWire as crate::service::WireCodec>::ITEM_WIRE_BYTES
    }
}

impl IndexBackend for RtreeBackend {
    type Wire = RtreeWire;
    type Config = RTreeConfig;
    type LoadItem = (Rect, u64);
    type Layout = ChunkLayout;

    fn layout(cfg: &RTreeConfig) -> ChunkLayout {
        ChunkLayout::for_max_entries(cfg.max_entries)
    }

    /// Conservative chunk-count estimate: worst-case minimum fill at every
    /// level plus slack for growth.
    fn estimate_chunks(cfg: &RTreeConfig, items: usize) -> u32 {
        let m = cfg.min_entries.max(2);
        let mut total = 2usize; // meta + root
        let mut level = items.max(1);
        while level > 1 {
            level = level.div_ceil(m);
            total += level;
        }
        ((total * 3 / 2) + 1024) as u32
    }

    fn load(mem: MrMemory, layout: ChunkLayout, cfg: RTreeConfig, items: Vec<(Rect, u64)>) -> Self {
        bulk_load(ChunkStore::new(mem, layout), cfg, items)
    }

    fn replicate(&self, mem: MrMemory) -> Self {
        RTree::open(replicate_store(self.store(), mem), self.config())
    }

    fn set_torn_window(&self, window: SimDuration) {
        self.store().mem().set_torn_window(window);
    }

    fn meta(&self) -> TreeMeta {
        self.store().meta()
    }

    fn execute(&mut self, msg: Message, cost: &CostModel) -> Option<Execution<RtreeWire>> {
        match msg {
            Message::SearchReq { seq, rect } => {
                let mut results = Vec::new();
                let tstats = self.search_items_into(&rect, &mut results);
                Some(Execution {
                    seq,
                    kind: OpKind::Read,
                    cost: cost.node_visit * tstats.nodes_visited as u64
                        + cost.per_result * tstats.results as u64,
                    items: results,
                    status: 1,
                    nodes_visited: tstats.nodes_visited as u64,
                })
            }
            Message::InsertReq { seq, rect, data } => {
                let height = self.height() as u64;
                self.insert(rect, data);
                Some(Execution {
                    seq,
                    kind: OpKind::Write,
                    cost: cost.write_op + cost.node_visit * (2 * height + 1),
                    items: Vec::new(),
                    status: 1,
                    nodes_visited: 0,
                })
            }
            Message::DeleteReq { seq, rect, data } => {
                let height = self.height() as u64;
                let ok = self.delete(&rect, data);
                Some(Execution {
                    seq,
                    kind: OpKind::Remove,
                    cost: cost.write_op + cost.node_visit * (2 * height + 1),
                    items: Vec::new(),
                    status: u32::from(ok),
                    nodes_visited: 0,
                })
            }
            Message::NearestReq { seq, x, y, k } => {
                let neighbors = self.nearest(x, y, k as usize);
                // Best-first kNN visits roughly height + k nodes.
                let height = u64::from(self.height());
                let len = neighbors.len() as u64;
                Some(Execution {
                    seq,
                    kind: OpKind::Read,
                    cost: cost.node_visit * (height + u64::from(k)) + cost.per_result * len,
                    items: neighbors.into_iter().map(|n| (n.rect, n.data)).collect(),
                    status: 1,
                    nodes_visited: 0,
                })
            }
            // Responses/heartbeats never arrive at the server; batches are
            // unrolled and replication envelopes stripped by the generic
            // server before execute.
            Message::ResponseCont { .. }
            | Message::ResponseEnd { .. }
            | Message::Heartbeat { .. }
            | Message::Batch(_)
            | Message::Replicated { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::conn::{ClientChannel, RkeyAllocator};
    use crate::service::response_frames;
    use catfish_rdma::profile::infiniband_100g;
    use catfish_rdma::tcp::TcpEndpoint;
    use catfish_rdma::{Endpoint, RdmaProfile};
    use catfish_simnet::{sleep, Network, Sim};

    fn grid_items(n: u64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64 / 100.0;
                let y = (i / 100) as f64 / 100.0;
                (Rect::new(x, y, x + 0.005, y + 0.005), i)
            })
            .collect()
    }

    fn build_pair() -> (CatfishServer, ClientChannel) {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server = CatfishServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 4,
                ..ServerConfig::default()
            },
            RTreeConfig::default(),
            grid_items(1000),
            &rkeys,
        );
        let client_ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&client_ep);
        (server, ch)
    }

    async fn fast_search(ch: &ClientChannel, seq: u32, rect: Rect) -> Vec<u64> {
        ch.tx
            .send(&Message::SearchReq { seq, rect }.encode(), 0)
            .await
            .unwrap();
        let mut out = Vec::new();
        loop {
            let bytes = ch.rx.wait_message().await;
            match Message::decode(&bytes).unwrap() {
                Message::ResponseCont { seq: s, results } if s == seq => {
                    out.extend(results.iter().map(|(_, d)| *d));
                }
                Message::ResponseEnd {
                    seq: s, results, ..
                } if s == seq => {
                    out.extend(results.iter().map(|(_, d)| *d));
                    return out;
                }
                Message::Heartbeat { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn search_over_ring_returns_correct_results() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            let query = Rect::new(0.0, 0.0, 0.055, 0.055);
            let mut got = fast_search(&ch, 1, query).await;
            got.sort_unstable();
            let mut expect: Vec<u64> = server.with_index(|t| t.search(&query));
            expect.sort_unstable();
            assert_eq!(got, expect);
            assert!(!got.is_empty());
            assert_eq!(server.stats().reads, 1);
        });
    }

    #[test]
    fn insert_over_ring_lands_in_tree() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            let rect = Rect::new(0.5, 0.5, 0.501, 0.501);
            ch.tx
                .send(
                    &Message::InsertReq {
                        seq: 2,
                        rect,
                        data: 999_999,
                    }
                    .encode(),
                    0,
                )
                .await
                .unwrap();
            let bytes = ch.rx.wait_message().await;
            assert!(matches!(
                Message::decode(&bytes).unwrap(),
                Message::ResponseEnd {
                    seq: 2,
                    status: 1,
                    ..
                }
            ));
            assert!(server.with_index(|t| t.search(&rect)).contains(&999_999));
            server.with_index(|t| t.check_invariants()).unwrap();
            assert_eq!(server.stats().writes, 1);
        });
    }

    #[test]
    fn delete_over_ring_removes_item() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            let (rect, id) = (Rect::new(0.0, 0.0, 0.005, 0.005), 0u64);
            ch.tx
                .send(
                    &Message::DeleteReq {
                        seq: 3,
                        rect,
                        data: id,
                    }
                    .encode(),
                    0,
                )
                .await
                .unwrap();
            let bytes = ch.rx.wait_message().await;
            assert!(matches!(
                Message::decode(&bytes).unwrap(),
                Message::ResponseEnd {
                    seq: 3,
                    status: 1,
                    ..
                }
            ));
            assert!(!server.with_index(|t| t.search(&rect)).contains(&id));
            assert_eq!(server.stats().removes, 1);
        });
    }

    #[test]
    fn large_response_is_segmented() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let server = CatfishServer::build(
                &net,
                &profile,
                ServerConfig {
                    cores: 4,
                    response_segment_results: 100,
                    ..ServerConfig::default()
                },
                RTreeConfig::default(),
                grid_items(2000),
                &rkeys,
            );
            let client_ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
            let ch = server.accept(&client_ep);
            // Query covering everything: 2000 results in 100-item segments.
            let got = fast_search(&ch, 9, Rect::new(0.0, 0.0, 1.0, 1.0)).await;
            assert_eq!(got.len(), 2000);
        });
    }

    #[test]
    fn heartbeats_reach_the_client() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            server.start_heartbeats();
            // Wait past one heartbeat interval.
            sleep(SimDuration::from_millis(11)).await;
            let bytes = ch.rx.wait_message().await;
            assert!(matches!(
                Message::decode(&bytes).unwrap(),
                Message::Heartbeat { .. }
            ));
        });
    }

    #[test]
    fn server_cpu_is_charged_for_searches() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            let before = server.cpu().busy_time();
            fast_search(&ch, 1, Rect::new(0.0, 0.0, 0.1, 0.1)).await;
            assert!(server.cpu().busy_time() > before);
        });
    }

    #[test]
    fn response_frames_split_correctly() {
        let items: Vec<(Rect, u64)> = (0..25).map(|i| (Rect::point(i as f64, 0.0), i)).collect();
        let segs = response_frames::<RtreeWire>(5, items, 1, 10);
        assert_eq!(segs.len(), 3);
        assert!(matches!(&segs[0], Message::ResponseCont { results, .. } if results.len() == 10));
        assert!(matches!(&segs[1], Message::ResponseCont { results, .. } if results.len() == 10));
        assert!(matches!(&segs[2], Message::ResponseEnd { results, .. } if results.len() == 5));
    }

    #[test]
    fn empty_response_is_single_end() {
        let segs = response_frames::<RtreeWire>(1, Vec::new(), 1, 10);
        assert_eq!(segs.len(), 1);
        assert!(matches!(&segs[0], Message::ResponseEnd { results, .. } if results.is_empty()));
    }

    #[test]
    fn exact_boundary_is_single_end() {
        let items: Vec<(Rect, u64)> = (0..10).map(|i| (Rect::point(i as f64, 0.0), i)).collect();
        let segs = response_frames::<RtreeWire>(1, items, 1, 10);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn batched_requests_execute_and_responses_coalesce() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            let q1 = Rect::new(0.0, 0.0, 0.03, 0.03);
            let q2 = Rect::new(0.2, 0.2, 0.23, 0.23);
            let ins = Rect::new(0.7, 0.7, 0.701, 0.701);
            let batch = Message::Batch(vec![
                Message::SearchReq { seq: 1, rect: q1 },
                Message::SearchReq { seq: 2, rect: q2 },
                Message::InsertReq {
                    seq: 3,
                    rect: ins,
                    data: 777,
                },
            ]);
            ch.tx.send(&batch.encode(), 0).await.unwrap();
            let mut ends = 0;
            while ends < 3 {
                let bytes = ch.rx.wait_message().await;
                if let Message::ResponseEnd { seq, status, .. } = Message::decode(&bytes).unwrap() {
                    assert!((1..=3).contains(&seq));
                    assert_eq!(status, 1);
                    ends += 1;
                }
            }
            let s = server.stats();
            assert_eq!(s.reads, 2);
            assert_eq!(s.writes, 1);
            // All three responses leave in one doorbell group.
            assert_eq!(s.batches_sent, 1);
            assert_eq!(s.batched_msgs, 3);
            assert!(server.with_index(|t| t.search(&ins)).contains(&777));
        });
    }

    #[test]
    fn malformed_requests_are_counted_and_dropped() {
        let sim = Sim::new();
        sim.run_until(async {
            let (server, ch) = build_pair();
            // Unknown tag 0xFF: dropped, counted, connection stays usable.
            ch.tx.send(&[0xFF, 1, 2, 3], 0).await.unwrap();
            let got = fast_search(&ch, 1, Rect::new(0.0, 0.0, 0.05, 0.05)).await;
            assert!(!got.is_empty());
            assert_eq!(server.stats().decode_errors, 1);
            assert!(server.stats().to_string().contains("decode errors 1"));
        });
    }

    #[test]
    fn departed_clients_are_pruned_from_heartbeats() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let server = CatfishServer::build(
                &net,
                &profile,
                ServerConfig {
                    cores: 4,
                    ..ServerConfig::default()
                },
                RTreeConfig::default(),
                grid_items(200),
                &rkeys,
            );
            let ep1 = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
            let ep2 = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
            let ch1 = server.accept(&ep1);
            let ch2 = server.accept(&ep2);
            server.start_heartbeats();
            assert_eq!(server.heartbeat_target_count(), 2);
            ch2.close();
            // The tick after the departure notices the closed sender and
            // prunes it.
            sleep(SimDuration::from_millis(25)).await;
            assert_eq!(server.heartbeat_target_count(), 1);
            // The surviving connection still receives heartbeats.
            let bytes = ch1.rx.wait_message().await;
            assert!(matches!(
                Message::decode(&bytes).unwrap(),
                Message::Heartbeat { .. }
            ));
            // The departed ring receives none after the close.
            assert_eq!(ch2.rx.try_pop(), None);
        });
    }

    #[test]
    fn tcp_baseline_serves_searches() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let profile = catfish_rdma::profile::ethernet_1g();
            let rkeys = RkeyAllocator::new();
            let server = CatfishServer::build(
                &net,
                &profile,
                ServerConfig {
                    cores: 4,
                    ..ServerConfig::default()
                },
                RTreeConfig::default(),
                grid_items(500),
                &rkeys,
            );
            let client_tcp = TcpEndpoint::new(&net, net.add_node(profile.link), profile.tcp, None);
            let (client_conn, server_conn) = client_tcp.connect(&server.tcp_endpoint());
            server.accept_tcp(server_conn);
            let query = Rect::new(0.0, 0.0, 0.06, 0.06);
            client_conn
                .send(
                    Message::SearchReq {
                        seq: 4,
                        rect: query,
                    }
                    .encode(),
                )
                .await;
            let mut got = Vec::new();
            loop {
                let bytes = client_conn.recv().await.unwrap();
                match Message::decode(&bytes).unwrap() {
                    Message::ResponseCont { results, .. } => {
                        got.extend(results.iter().map(|(_, d)| *d))
                    }
                    Message::ResponseEnd { results, .. } => {
                        got.extend(results.iter().map(|(_, d)| *d));
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            let mut expect = server.with_index(|t| t.search(&query));
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        });
    }
}
