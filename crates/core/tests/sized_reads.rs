//! Count-sized offload reads. An R-tree node fills only the first
//! `lines_for(count)` lines of its chunk, and the arena's metadata line
//! carries, per level, the most lines any node there has used. An
//! offloading client reads each node chunk up to its level's bound
//! instead of the whole 4 KiB, and reads it again whole when the node
//! turns out longer than the bound it held (a `short_reads` re-read).
//!
//! These tests pin the size of every read of an unloaded walk over a
//! bulk-loaded tree, and that a node grown past the client's bound costs
//! exactly one whole re-read and loses nothing, on both window walks and
//! on offloaded kNN.

use std::cell::Cell;
use std::rc::Rc;

use catfish_core::config::{AccessMode, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::CatfishServer;
use catfish_core::CatfishClient;
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::Endpoint;
use catfish_rtree::codec::{lines_for, LINE_BYTES};
use catfish_rtree::{EntryRef, NodeId, NodeStore, RTreeConfig, Rect, UPPER_LEVEL};
use catfish_simnet::{now, sleep, spawn, JoinHandle, Network, Sim, SimDuration};

/// Preloaded items: a 128-column grid, three levels at fanout 88. Its
/// root holds four entries, as the root of a bulk-loaded million-item
/// tree does.
const ITEMS: u64 = 12_000;

fn dataset() -> Vec<(Rect, u64)> {
    (0..ITEMS)
        .map(|i| {
            let x = (i % 128) as f64 / 128.0;
            let y = (i / 128) as f64 / 128.0;
            (Rect::new(x, y, x + 0.004, y + 0.004), i)
        })
        .collect()
}

/// The searched window: a few hundred items over several leaves under
/// more than one internal node.
fn window() -> Rect {
    Rect::new(0.30, 0.30, 0.42, 0.42)
}

/// Where the grown leaf takes its new items: inside `window()`, off the
/// grid's symmetry so kNN distances do not tie.
const POINT: (f64, f64) = (0.3537, 0.3621);

/// One event-driven server without heartbeats, so the only traffic while
/// a search runs is its own one-sided reads, and one offloading client.
struct Bed {
    net: Network,
    server: CatfishServer,
    client: CatfishClient,
}

fn bed(multi_issue: bool) -> Bed {
    let net = Network::new();
    let profile = infiniband_100g();
    let server = CatfishServer::build(
        &net,
        &profile,
        ServerConfig {
            cores: 4,
            mode: ServerMode::EventDriven,
            ..ServerConfig::default()
        },
        RTreeConfig::with_max_entries(88),
        dataset(),
        &RkeyAllocator::new(),
    );
    let client_node = net.add_node(profile.link);
    let ch = server.accept(&Endpoint::new(&net, client_node, profile.rdma));
    let client = CatfishClient::new(
        ch,
        server.remote_handle(),
        ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue,
            ..ClientConfig::default()
        },
        1,
    );
    Bed {
        net,
        server,
        client,
    }
}

/// Every node a search of `window()` reaches, as `(level, entries)`, and
/// the server's line bound of each level.
fn walk_nodes(bed: &Bed) -> (Vec<(u32, usize)>, Vec<usize>) {
    bed.server.with_index(|tree| {
        let store = tree.store();
        let bounds = store.level_lines();
        let height = store.meta().height;
        let mut stack: Vec<NodeId> = store.meta().root.into_iter().collect();
        let mut nodes = Vec::new();
        while let Some(id) = stack.pop() {
            let node = store.read(id);
            nodes.push((node.level, node.entries.len()));
            for e in node.entries.iter().filter(|e| e.mbr.intersects(&window())) {
                if let EntryRef::Node(child) = e.child {
                    stack.push(child);
                }
            }
        }
        let bounds = (0..height)
            .map(|level| bounds.get(level).expect("every level has a bound"))
            .collect();
        (nodes, bounds)
    })
}

/// The server's sent-byte count, sampled every 5 ns until `stop` is set:
/// each increase is one read response posted.
fn responses(bed: &Bed, stop: Rc<Cell<bool>>) -> JoinHandle<Vec<u64>> {
    let (net, server) = (bed.net.clone(), bed.server.endpoint().node());
    spawn(async move {
        let mut sizes = Vec::new();
        let mut last = net.traffic(server).bytes_sent;
        while !stop.get() {
            sleep(SimDuration::from_nanos(5)).await;
            let sent = net.traffic(server).bytes_sent;
            if sent > last {
                sizes.push(sent - last);
            }
            last = sent;
        }
        sizes
    })
}

/// Searches `window()` and checks that every preloaded match came back.
async fn search_all(client: &mut CatfishClient, what: &str) -> Vec<u64> {
    let mut got = client.search(&window()).await;
    got.sort_unstable();
    let q = window();
    for (r, d) in dataset() {
        if r.intersects(&q) {
            assert!(
                got.binary_search(&d).is_ok(),
                "{what}: lost preloaded item {d}"
            );
        }
    }
    got
}

/// A sequential walk over the bulk-loaded tree reads the root at the
/// lines of its four entries, and once the root is cached every other
/// node at its level's bound, never a whole chunk; a multi-issue walk puts
/// the same bytes on the wire. At fanout 88 a whole chunk is 64 lines, where bulk-loaded nodes
/// of at most 70 entries use 51.
#[test]
fn every_node_read_is_its_level_bound() {
    for multi_issue in [false, true] {
        Sim::new().run_until(async move {
            let mut bed = bed(multi_issue);
            let layout = bed.server.remote_handle().layout;
            let (nodes, bounds) = walk_nodes(&bed);
            let height = bounds.len();
            assert_eq!(height, 3, "the tree has three levels");
            assert_eq!(nodes[0], (2, 4), "the root holds four entries");
            assert_eq!(bounds[2], lines_for(4), "the root level's bound");
            assert_eq!(bounds[0], lines_for(70), "bulk-loaded leaves");
            assert!(bounds
                .iter()
                .all(|&b| b * LINE_BYTES < layout.chunk_bytes()));

            // The cold walk reads the metadata line, then the root at the
            // lines of its four entries, and caches the root.
            let stop = Rc::new(Cell::new(false));
            let sampled = responses(&bed, stop.clone());
            search_all(&mut bed.client, "warm-up").await;
            stop.set(true);
            let cold = sampled.await;
            let root_read = (lines_for(4) * LINE_BYTES) as u64;
            assert_eq!(cold[..2], [LINE_BYTES as u64, root_read], "the root read");
            sleep(SimDuration::from_millis(1)).await;
            let before = bed.client.stats();
            let stop = Rc::new(Cell::new(false));
            let sampled = responses(&bed, stop.clone());
            search_all(&mut bed.client, "measured").await;
            stop.set(true);
            let sizes = sampled.await;
            let after = bed.client.stats();

            // The lower chunk reads, then the 64-byte structure check.
            let (check, reads) = sizes.split_last().expect("the walk read");
            assert_eq!(*check, LINE_BYTES as u64, "the structure check");
            let mut expected: Vec<u64> = nodes
                .iter()
                .filter(|&&(level, _)| level < UPPER_LEVEL)
                .map(|&(level, _)| (bounds[level as usize] * LINE_BYTES) as u64)
                .collect();
            assert_eq!(
                after.chunks_fetched - before.chunks_fetched,
                nodes.len() as u64 - 1
            );
            assert_eq!(after.cache_hits - before.cache_hits, 1, "the cached root");
            assert_eq!(after.short_reads, 0);
            if multi_issue {
                // Sibling reads may post within one sample.
                let total: u64 = reads.iter().sum();
                assert_eq!(total, expected.iter().sum::<u64>());
            } else {
                let mut reads = reads.to_vec();
                reads.sort_unstable();
                expected.sort_unstable();
                assert_eq!(reads, expected, "one read per node, each at its bound");
            }
        });
    }
}

/// Grows the leaf that takes items at [`POINT`] past the leaf level's
/// bound by inserting twelve items there, without splitting it, and
/// returns the new items' ids.
fn grow_a_leaf(bed: &Bed) -> Vec<u64> {
    let (meta, old) = bed.server.with_index(|t| {
        let store = t.store();
        (store.meta(), store.level_lines().get(0).unwrap())
    });
    let rect = Rect::point(POINT.0, POINT.1);
    let ids: Vec<u64> = (0..12).map(|i| 1_000_000 + i).collect();
    bed.server.with_index_mut(|t| {
        for &id in &ids {
            t.insert(rect, id);
        }
    });
    bed.server.with_index(|t| {
        let store = t.store();
        assert_eq!(
            store.meta().structure_version,
            meta.structure_version,
            "no split"
        );
        assert!(
            store.level_lines().get(0).unwrap() > old,
            "a leaf outgrew the bound"
        );
    });
    ids
}

/// A leaf grown past the bound the client holds costs exactly one whole
/// re-read, on both window walks, and the walk returns every preloaded
/// match and the new items. The next walk reads the grown bound from the
/// metadata its structure check brought back and re-reads nothing.
#[test]
fn a_leaf_past_the_cached_bound_costs_one_reread() {
    for multi_issue in [false, true] {
        Sim::new().run_until(async move {
            let mut bed = bed(multi_issue);
            search_all(&mut bed.client, "warm-up").await;
            let ids = grow_a_leaf(&bed);
            let before = bed.client.stats();
            let got = search_all(&mut bed.client, "stale bound").await;
            let after = bed.client.stats();
            assert_eq!(after.short_reads - before.short_reads, 1, "one re-read");
            assert_eq!(after.offload_restarts, before.offload_restarts);
            for id in &ids {
                assert!(got.binary_search(id).is_ok(), "new item {id} found");
            }
            search_all(&mut bed.client, "fresh bound").await;
            assert_eq!(bed.client.stats().short_reads, after.short_reads);
        });
    }
}

/// Offloaded kNN around the grown leaf re-reads it whole once and returns
/// what the server's own kNN returns.
#[test]
fn knn_past_the_cached_bound_costs_one_reread() {
    Sim::new().run_until(async {
        let mut bed = bed(false);
        let (x, y) = POINT;
        bed.client.nearest_offloaded(x, y, 4).await;
        let ids = grow_a_leaf(&bed);
        let before = bed.client.stats();
        let t0 = now();
        let offloaded = bed.client.nearest_offloaded(x, y, 20).await;
        assert!(now() > t0);
        let after = bed.client.stats();
        assert_eq!(after.short_reads - before.short_reads, 1, "one re-read");
        assert_eq!(after.offload_restarts, before.offload_restarts);
        // Items at the same distance may come back in either order.
        let key = |r: &[(Rect, u64)]| {
            let mut k: Vec<(u64, u64)> = r
                .iter()
                .map(|(rect, d)| (catfish_rtree::min_dist_sq(rect, x, y).to_bits(), *d))
                .collect();
            k.sort_unstable();
            k
        };
        let served = bed.client.nearest(x, y, 20).await;
        assert_eq!(key(&offloaded), key(&served));
        for id in &ids {
            assert!(offloaded.iter().any(|&(_, d)| d == *id), "new item {id}");
        }
    });
}
