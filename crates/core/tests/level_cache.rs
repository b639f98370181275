//! The client's cache of upper nodes and of the metadata. A client keeps
//! every node at `UPPER_LEVEL` or above that it read off the wire and
//! validated, under the one structure version its walks started from, and
//! starts every walk from the metadata its last structure check read.
//! Writers bump that version before they rewrite an upper node or move
//! entries between nodes, and every walk confirms the version behind its
//! last read, so neither cache hides a write: no timer bounds their
//! staleness, and none is needed.
//!
//! These tests rewrite upper nodes under warm caches, by an acknowledged
//! insert that only widens the root and by a tree that grows a level;
//! they split a root leaf and fill an empty tree under warm metadata. The
//! very next walk must see every item, on both window walks, offloaded
//! kNN, and the KV service's gets and range scans.

use catfish_bplus::{BpConfig, BpStore};
use catfish_core::config::{AccessMode, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::kv::{KvClient, KvServer};
use catfish_core::server::CatfishServer;
use catfish_core::CatfishClient;
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::Endpoint;
use catfish_rtree::{NodeStore, RTreeConfig, Rect, UPPER_LEVEL};
use catfish_simnet::{Network, Sim};

fn grid(n: u64) -> Vec<(Rect, u64)> {
    (0..n)
        .map(|i| {
            let x = (i % 128) as f64 / 128.0;
            let y = (i / 128) as f64 / 128.0;
            (Rect::new(x, y, x + 0.004, y + 0.004), i)
        })
        .collect()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        cores: 4,
        mode: ServerMode::EventDriven,
        ..ServerConfig::default()
    }
}

/// An offloading client, whose walks after the first start from
/// metadata read before the write.
fn reader_config(multi_issue: bool) -> ClientConfig {
    ClientConfig {
        mode: AccessMode::Offloading,
        multi_issue,
        ..ClientConfig::default()
    }
}

fn rtree_server(net: &Network, fanout: usize, items: u64) -> CatfishServer {
    CatfishServer::build(
        net,
        &infiniband_100g(),
        server_config(),
        RTreeConfig::with_max_entries(fanout),
        grid(items),
        &RkeyAllocator::new(),
    )
}

fn rtree_client(
    net: &Network,
    server: &CatfishServer,
    cfg: ClientConfig,
    seed: u64,
) -> CatfishClient {
    let profile = infiniband_100g();
    let ch = server.accept(&Endpoint::new(
        net,
        net.add_node(profile.link),
        profile.rdma,
    ));
    CatfishClient::new(ch, server.remote_handle(), cfg, seed)
}

/// The root's entry count, and its MBR.
fn root_shape(server: &CatfishServer) -> (usize, Rect) {
    server.with_index(|t| {
        let root = t.store().meta().root.expect("a loaded tree");
        let node = t.store().read(root);
        (node.entries.len(), node.mbr().expect("a non-empty root"))
    })
}

/// Where the new item lands: outside every preloaded rectangle, so only
/// the widened root entry leads to it.
const FAR: (f64, f64) = (1.6, 1.6);
const FAR_ID: u64 = 9_000_000;

/// An acknowledged insert that widens the root's entries without
/// splitting anything reaches warm window walks, both sequential and
/// multi-issue, and warm offloaded kNN.
#[test]
fn widened_root_reaches_warm_walks() {
    Sim::new().run_until(async move {
        let net = Network::new();
        let server = rtree_server(&net, 88, 10_000);
        assert_eq!(server.meta().height, 3, "the root is the one upper node");
        let mut seq = rtree_client(&net, &server, reader_config(false), 1);
        let mut multi = rtree_client(&net, &server, reader_config(true), 2);
        let mut knn = rtree_client(&net, &server, reader_config(false), 3);

        // Warm every cache with the root.
        let warm = Rect::new(0.2, 0.2, 0.3, 0.3);
        for client in [&mut seq, &mut multi] {
            assert!(!client.search(&warm).await.is_empty());
            assert!(!client.search(&warm).await.is_empty());
            assert!(client.stats().cache_hits > 0, "the root was cached");
        }
        assert_eq!(knn.nearest_offloaded(0.5, 0.5, 3).await.len(), 3);
        assert_eq!(knn.nearest_offloaded(0.5, 0.5, 3).await.len(), 3);
        assert!(knn.stats().cache_hits > 0, "the root was cached");

        let (entries, mbr) = root_shape(&server);
        let (x, y) = FAR;
        let far = Rect::new(x, y, x + 0.001, y + 0.001);
        let mut writer = rtree_client(&net, &server, ClientConfig::default(), 4);
        assert!(writer.insert(far, FAR_ID).await, "the insert is acked");
        let (entries_after, mbr_after) = root_shape(&server);
        assert_eq!(server.meta().height, 3);
        assert_eq!(entries_after, entries, "no split reached the root");
        assert_ne!(mbr_after, mbr, "the root's entries widened");

        let q = Rect::new(x - 0.05, y - 0.05, x + 0.05, y + 0.05);
        for (name, client) in [("sequential", &mut seq), ("multi-issue", &mut multi)] {
            assert_eq!(client.search(&q).await, vec![FAR_ID], "{name}");
        }
        let nearest = knn.nearest_offloaded(x, y, 1).await;
        assert_eq!(nearest, vec![(far, FAR_ID)], "kNN");
    });
}

/// A tree that grows a level under warm caches of its upper levels: the
/// very next searches, with no pause, see every preloaded item.
#[test]
fn grown_tree_is_seen_without_waiting() {
    const ITEMS: u64 = 4_000;
    for multi_issue in [false, true] {
        Sim::new().run_until(async move {
            let net = Network::new();
            // Fanout 12 keeps four levels small: the root and level 2 are
            // upper nodes.
            let server = rtree_server(&net, 12, ITEMS);
            let height = server.meta().height;
            assert!(height > UPPER_LEVEL + 1, "levels 2 and up are cached");
            let mut reader = rtree_client(&net, &server, reader_config(multi_issue), 5);
            let base = grid(ITEMS);
            let windows: Vec<Rect> = (0..24u64)
                .map(|i| {
                    let x = (i as f64 * 0.037) % 0.9;
                    let y = (i as f64 * 0.011) % 0.12;
                    Rect::new(x, y, x + 0.06, y + 0.03)
                })
                .collect();
            for q in &windows {
                reader.search(q).await;
            }
            let warm_hits = reader.stats().cache_hits;
            assert!(warm_hits > 0, "the upper levels were cached");

            // Grow the tree by a level at one instant, then let a writer's
            // acknowledged insert close the history.
            let grown = |i: u64| {
                let x = (i as f64 * 0.000_317) % 0.95;
                let y = (i as f64 * 0.000_071) % 0.14;
                (Rect::new(x, y, x + 0.001, y + 0.001), 5_000_000 + i)
            };
            let inserted = server.with_index_mut(|t| {
                let mut i = 0u64;
                while t.height() == height {
                    let (r, d) = grown(i);
                    t.insert(r, d);
                    i += 1;
                }
                i
            });
            let mut writer = rtree_client(&net, &server, ClientConfig::default(), 6);
            let (r, d) = grown(inserted);
            assert!(writer.insert(r, d).await, "the insert is acked");
            for (i, q) in windows.iter().enumerate() {
                let mut got = reader.search(q).await;
                let mut want = server.with_index(|t| t.search(q));
                got.sort_unstable();
                want.sort_unstable();
                for (r, d) in base.iter().filter(|(r, _)| r.intersects(q)) {
                    assert!(want.contains(d), "the server holds {d} ({r:?})");
                }
                assert_eq!(got, want, "multi-issue {multi_issue}: query {i}");
            }
        });
    }
}

/// The items a writer adds to a one-leaf R-tree, enough to split its root.
const SPLIT_IDS: std::ops::Range<u64> = 7_000_000..7_000_004;

/// A root leaf split by acknowledged inserts under warm metadata. A warm
/// walk of a one-leaf tree reads one chunk and no cached node, starting
/// from the metadata its last check read, which names the old root: its
/// own check finds the new structure version and it restarts once, then
/// sees every item. Both window walks, and offloaded kNN.
#[test]
fn split_root_leaf_reaches_warm_walks() {
    Sim::new().run_until(async move {
        let net = Network::new();
        let server = rtree_server(&net, 8, 6);
        assert_eq!(server.meta().height, 1, "the root is a leaf");
        let mut seq = rtree_client(&net, &server, reader_config(false), 1);
        let mut multi = rtree_client(&net, &server, reader_config(true), 2);
        let mut knn = rtree_client(&net, &server, reader_config(false), 3);
        let everywhere = Rect::new(-1.0, -1.0, 2.0, 2.0);
        for client in [&mut seq, &mut multi] {
            assert_eq!(client.search(&everywhere).await.len(), 6);
        }
        assert_eq!(knn.nearest_offloaded(0.0, 0.0, 10).await.len(), 6);

        let mut writer = rtree_client(&net, &server, ClientConfig::default(), 4);
        for (i, d) in SPLIT_IDS.enumerate() {
            let x = 0.5 + i as f64 * 0.1;
            let r = Rect::new(x, 0.5, x + 0.004, 0.504);
            assert!(writer.insert(r, d).await, "the insert is acked");
        }
        assert_eq!(server.meta().height, 2, "the root split");

        let want: Vec<u64> = (0..6).chain(SPLIT_IDS).collect();
        for (name, client) in [("sequential", &mut seq), ("multi-issue", &mut multi)] {
            let restarts = client.stats().offload_restarts;
            let mut got = client.search(&everywhere).await;
            got.sort_unstable();
            assert_eq!(got, want, "{name}");
            assert_eq!(client.stats().offload_restarts - restarts, 1, "{name}");
        }
        let restarts = knn.stats().offload_restarts;
        let mut got: Vec<u64> = knn
            .nearest_offloaded(0.0, 0.0, 10)
            .await
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "kNN");
        assert_eq!(knn.stats().offload_restarts - restarts, 1, "kNN");
    });
}

/// An empty tree's first acknowledged insert reaches warm walks. It sets
/// the root without a new structure version, so a walk must not start
/// from metadata that names no root. Both window walks, and offloaded kNN.
#[test]
fn first_insert_reaches_warm_walks() {
    Sim::new().run_until(async move {
        let net = Network::new();
        let server = rtree_server(&net, 8, 0);
        assert_eq!(server.meta().root, None, "the tree is empty");
        let mut seq = rtree_client(&net, &server, reader_config(false), 1);
        let mut multi = rtree_client(&net, &server, reader_config(true), 2);
        let mut knn = rtree_client(&net, &server, reader_config(false), 3);
        let everywhere = Rect::new(-1.0, -1.0, 2.0, 2.0);
        for client in [&mut seq, &mut multi] {
            assert!(client.search(&everywhere).await.is_empty());
        }
        assert!(knn.nearest_offloaded(0.5, 0.5, 1).await.is_empty());

        let (r, id) = (Rect::new(0.5, 0.5, 0.504, 0.504), 8_000_000);
        let mut writer = rtree_client(&net, &server, ClientConfig::default(), 4);
        assert!(writer.insert(r, id).await, "the insert is acked");
        for (name, client) in [("sequential", &mut seq), ("multi-issue", &mut multi)] {
            assert_eq!(client.search(&everywhere).await, vec![id], "{name}");
        }
        assert_eq!(knn.nearest_offloaded(0.5, 0.5, 1).await, vec![(r, id)]);
    });
}

/// Preloaded KV pairs: every eighth key, so puts fit between them. At
/// eight keys a node the tree has three levels.
const KV_ITEMS: u64 = 120;

fn kv_server(net: &Network, pairs: Vec<(u64, u64)>) -> KvServer {
    KvServer::build(
        net,
        &infiniband_100g(),
        server_config(),
        BpConfig::with_max_keys(8),
        pairs,
        &RkeyAllocator::new(),
    )
}

fn kv_client(net: &Network, server: &KvServer, cfg: ClientConfig, seed: u64) -> KvClient {
    let profile = infiniband_100g();
    let ch = server.accept(&Endpoint::new(
        net,
        net.add_node(profile.link),
        profile.rdma,
    ));
    KvClient::new(ch, server.remote_handle(), cfg, seed)
}

/// The root's separator keys.
fn kv_root_keys(server: &KvServer) -> Vec<u64> {
    server.with_index(|t| {
        let root = t.store().meta().root.expect("a loaded tree");
        t.store().read(root).keys
    })
}

/// Acknowledged puts that split a level-1 node, and so rewrite the root,
/// reach warm offloaded gets and range scans, both walks.
#[test]
fn rewritten_kv_root_reaches_warm_walks() {
    for multi_issue in [false, true] {
        Sim::new().run_until(async move {
            let net = Network::new();
            let server = kv_server(&net, (0..KV_ITEMS).map(|k| (k * 8, k)).collect());
            assert_eq!(server.meta().height, 3, "the root is the one upper node");
            let mut reader = kv_client(&net, &server, reader_config(multi_issue), 6);
            for k in [80, 480, 800] {
                assert_eq!(reader.get(k).await, Some(k / 8));
            }
            assert_eq!(reader.range_offloaded(80, 400).await.len(), 41);
            assert!(reader.stats().cache_hits > 0, "the root was cached");

            // Every gap key from 401 up, until a level-1 node splits and
            // the root gains a separator.
            let root = kv_root_keys(&server);
            let mut writer = kv_client(&net, &server, ClientConfig::default(), 7);
            let mut last = 400;
            while kv_root_keys(&server) == root {
                last += if last % 8 == 7 { 2 } else { 1 };
                assert_eq!(writer.put(last, last).await, None, "the put is acked");
            }
            assert_eq!(server.meta().height, 3, "the root did not split");

            let what = format!("multi-issue {multi_issue}");
            assert_eq!(reader.get(last).await, Some(last), "{what}: get");
            let scan = reader.range_offloaded(400, last).await;
            let want: Vec<(u64, u64)> = (400..=last)
                .map(|k| if k % 8 == 0 { (k, k / 8) } else { (k, k) })
                .collect();
            assert_eq!(scan, want, "{what}: range");
        });
    }
}

/// A KV root leaf split by acknowledged puts under warm metadata: the
/// first warm get restarts once, and every get sees its put. Both walks.
#[test]
fn split_kv_root_leaf_reaches_warm_gets() {
    for multi_issue in [false, true] {
        Sim::new().run_until(async move {
            let net = Network::new();
            let server = kv_server(&net, (0..4).map(|k| (k, k)).collect());
            assert_eq!(server.meta().height, 1, "the root is a leaf");
            let mut reader = kv_client(&net, &server, reader_config(multi_issue), 6);
            for k in 0..4 {
                assert_eq!(reader.get(k).await, Some(k));
            }

            let mut writer = kv_client(&net, &server, ClientConfig::default(), 7);
            for k in 100..110 {
                assert_eq!(writer.put(k, k).await, None, "the put is acked");
            }
            assert_eq!(server.meta().height, 2, "the root split");

            let restarts = reader.stats().offload_restarts;
            for k in 100..110 {
                assert_eq!(reader.get(k).await, Some(k), "multi-issue {multi_issue}");
            }
            let restarts = reader.stats().offload_restarts - restarts;
            assert_eq!(restarts, 1, "multi-issue {multi_issue}");
        });
    }
}
