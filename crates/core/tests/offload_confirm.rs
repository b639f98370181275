//! The offloaded walk's structure check. Every walk confirms, from the
//! metadata's structure version, that no split or reinsertion moved
//! entries since the metadata it started from. The check is one 64-byte
//! read of the metadata line, posted on the walk's queue pair right
//! behind its last chunk read, so it costs no round trip of its own. A
//! queue pair executes its reads in order, so the check samples chunk 0
//! no earlier than any chunk it vouches for; a chunk re-read posted after
//! it voids it, and the walk confirms again at its end.
//!
//! These tests pin where the check goes on the wire, also for a walk of a
//! single chunk, and that it stays sound when splits race the walk and
//! when a leaf is re-read behind it.

use std::cell::Cell;
use std::rc::Rc;

use catfish_core::config::{AccessMode, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::obs::{Phase, TraceSink};
use catfish_core::server::CatfishServer;
use catfish_core::CatfishClient;
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::{Endpoint, QueuePair};
use catfish_rtree::codec::LINE_BYTES;
use catfish_rtree::{EntryRef, NodeId, NodeStore, RTreeConfig, Rect, UPPER_LEVEL};
use catfish_simnet::{
    now, sleep, sleep_until, spawn, JoinHandle, Network, NodeId as NetNode, Sim, SimDuration,
    SimTime,
};

/// Preloaded items: a 128-column grid, deep enough for three levels at
/// fanout 88.
const ITEMS: u64 = 12_000;

fn dataset() -> Vec<(Rect, u64)> {
    grid(ITEMS)
}

/// The first `n` items of a 128-column grid.
fn grid(n: u64) -> Vec<(Rect, u64)> {
    (0..n)
        .map(|i| {
            let x = (i % 128) as f64 / 128.0;
            let y = (i / 128) as f64 / 128.0;
            (Rect::new(x, y, x + 0.004, y + 0.004), i)
        })
        .collect()
}

/// The searched window: a few hundred preloaded items over several
/// leaves under more than one internal node.
fn window() -> Rect {
    Rect::new(0.30, 0.30, 0.42, 0.42)
}

/// The preloaded items `window()` must return, racing writes or not.
fn preloaded_matches() -> Vec<u64> {
    let q = window();
    dataset()
        .into_iter()
        .filter(|(r, _)| r.intersects(&q))
        .map(|(_, d)| d)
        .collect()
}

/// One event-driven server without heartbeats, so the only traffic while
/// a search runs is the search's own one-sided reads, and one offloading
/// client walking multi-issue or one read at a time.
struct Bed {
    net: Network,
    server: CatfishServer,
    client: CatfishClient,
    client_node: NetNode,
    /// A second connection from another machine, for raw reads.
    raw: QueuePair,
}

fn bed(multi_issue: bool) -> Bed {
    bed_of(multi_issue, dataset())
}

fn bed_of(multi_issue: bool, items: Vec<(Rect, u64)>) -> Bed {
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
        items,
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
    let raw_node = net.add_node(profile.link);
    let raw = server
        .accept(&Endpoint::new(&net, raw_node, profile.rdma))
        .qp;
    Bed {
        net,
        server,
        client,
        client_node,
        raw,
    }
}

/// Bytes the client and the server have put on the wire so far.
fn sent(bed: &Bed) -> (u64, u64) {
    (
        bed.net.traffic(bed.client_node).bytes_sent,
        bed.net.traffic(bed.server.endpoint().node()).bytes_sent,
    )
}

/// Sampling step of [`timeline`].
const STEP: SimDuration = SimDuration::from_nanos(5);

/// Samples [`sent`] every [`STEP`] until `stop` is set. A byte count
/// moves when a transfer is posted, so the samples date each post to
/// within a step.
fn timeline(bed: &Bed, stop: Rc<Cell<bool>>) -> JoinHandle<Vec<(SimTime, u64, u64)>> {
    let (net, client, server) = (
        bed.net.clone(),
        bed.client_node,
        bed.server.endpoint().node(),
    );
    spawn(async move {
        let mut out = Vec::new();
        while !stop.get() {
            let s = (
                now(),
                net.traffic(client).bytes_sent,
                net.traffic(server).bytes_sent,
            );
            out.push(s);
            sleep(STEP).await;
        }
        out
    })
}

/// The first sampled instant at which `pick` of a sample reached `at_least`.
fn first_at(
    samples: &[(SimTime, u64, u64)],
    at_least: u64,
    pick: fn(&(SimTime, u64, u64)) -> u64,
) -> SimTime {
    samples
        .iter()
        .find(|s| pick(s) >= at_least)
        .expect("the count was reached while sampling")
        .0
}

/// Searches `window()` and checks the results hold every preloaded match.
async fn search_all(client: &mut CatfishClient, what: &str) {
    let mut got = client.search(&window()).await;
    got.sort_unstable();
    for d in preloaded_matches() {
        assert!(
            got.binary_search(&d).is_ok(),
            "{what}: lost preloaded item {d}"
        );
    }
}

/// The chunks an offloaded search of `window()` reads once a warm-up walk
/// cached the upper nodes, and the bytes the server sends for them: every
/// node below [`UPPER_LEVEL`] the window reaches, each read at its level's
/// line bound.
fn walk_reads(bed: &Bed) -> (u64, u64) {
    bed.server.with_index(|tree| {
        let store = tree.store();
        let bounds = store.level_lines();
        let mut stack: Vec<NodeId> = store.meta().root.into_iter().collect();
        let (mut chunks, mut bytes) = (0, 0);
        while let Some(id) = stack.pop() {
            let node = store.read(id);
            if node.level < UPPER_LEVEL {
                let lines = bounds.get(node.level).expect("every level has a bound");
                chunks += 1;
                bytes += (lines * LINE_BYTES) as u64;
            }
            for e in node.entries.iter().filter(|e| e.mbr.intersects(&window())) {
                if let EntryRef::Node(child) = e.child {
                    stack.push(child);
                }
            }
        }
        (chunks, bytes)
    })
}

/// The idle round trip of one read of `len` bytes.
async fn round_trip(bed: &Bed, len: usize) -> SimDuration {
    let handle = bed.server.remote_handle();
    let t = now();
    bed.raw.read(handle.rkey, 0, len).await.unwrap();
    now() - t
}

/// An unloaded multi-issue window search over a three-level tree, its root
/// cached, issues one read per lower chunk and one 64-byte metadata read,
/// and posts that last
/// read before the last chunk read completes: its request leaves before
/// the last chunk's request even reaches the server. So the check's wait
/// at the end of the walk is below one round trip, where a check read
/// after the walk waits a whole 4 KiB round trip.
#[test]
fn multi_issue_check_rides_behind_the_last_chunk_read() {
    Sim::new().run_until(async {
        let mut bed = bed(true);
        assert!(bed.server.meta().height >= 3, "the tree has three levels");
        let layout = bed.server.remote_handle().layout;
        let request_bytes = u64::from(infiniband_100g().rdma.read_request_bytes);
        let rtt_line = round_trip(&bed, LINE_BYTES).await;
        let rtt_chunk = round_trip(&bed, layout.chunk_bytes()).await;

        // Warm the metadata cache, then let the fabric go idle.
        search_all(&mut bed.client, "warm-up").await;
        sleep(SimDuration::from_millis(1)).await;

        let trace = TraceSink::new();
        bed.client.set_trace(trace.clone());
        let before = bed.client.stats();
        let (c0, s0) = sent(&bed);
        let stop = Rc::new(Cell::new(false));
        let samples = timeline(&bed, stop.clone());
        search_all(&mut bed.client, "measured").await;
        stop.set(true);
        let samples = samples.await;
        let after = bed.client.stats();
        let (c1, s1) = sent(&bed);

        let chunks = after.chunks_fetched - before.chunks_fetched;
        let (walk_chunks, chunk_bytes) = walk_reads(&bed);
        assert!(
            chunks >= 3,
            "the walk reads both lower levels: {chunks} chunks"
        );
        assert_eq!(chunks, walk_chunks);
        assert_eq!(after.cache_hits - before.cache_hits, 1, "the cached root");
        assert_eq!(after.meta_refreshes - before.meta_refreshes, 1);
        assert_eq!(
            c1 - c0,
            (chunks + 1) * request_bytes,
            "one read per chunk and one for the check"
        );
        assert_eq!(
            s1 - s0,
            chunk_bytes + LINE_BYTES as u64,
            "the check reads one 64-byte line"
        );
        // Requests are posted in order on one queue pair; the server's
        // bytes move when a request reaches it.
        let check_posted = first_at(&samples, c1, |s| s.1);
        let last_chunk_served = first_at(&samples, s0 + chunk_bytes, |s| s.2);
        assert!(
            check_posted < last_chunk_served,
            "check posted at {check_posted:?}, last chunk served at {last_chunk_served:?}"
        );
        let wait = trace
            .phase_histogram(Phase::MetaRead)
            .expect("the check's wait is a MetaRead span");
        assert_eq!(wait.len(), 1);
        assert!(
            wait.max() < rtt_line && rtt_line < rtt_chunk,
            "check wait {:?}, line round trip {rtt_line:?}, chunk round trip {rtt_chunk:?}",
            wait.max()
        );
    });
}

/// A walk of a one-leaf tree reads one chunk and no cached node, and still
/// posts its structure check behind that read: per search, one read of the
/// leaf at its level's line bound and one 64-byte metadata read, whose
/// request leaves before the leaf is served. Both walks.
#[test]
fn single_chunk_walk_posts_its_check() {
    for multi_issue in [true, false] {
        Sim::new().run_until(async move {
            let mut bed = bed_of(multi_issue, grid(40));
            assert_eq!(bed.server.meta().height, 1, "the root is a leaf");
            let leaf_bytes = bed.server.with_index(|t| {
                let lines = t.store().level_lines().get(0);
                (lines.expect("the leaf level has a bound") * LINE_BYTES) as u64
            });
            let request_bytes = u64::from(infiniband_100g().rdma.read_request_bytes);
            let everywhere = Rect::new(0.0, 0.0, 1.0, 1.0);
            assert_eq!(bed.client.search(&everywhere).await.len(), 40);
            sleep(SimDuration::from_millis(1)).await;

            for search in 0..3 {
                let what = format!("multi-issue {multi_issue}, search {search}");
                let before = bed.client.stats();
                let (c0, s0) = sent(&bed);
                let stop = Rc::new(Cell::new(false));
                let samples = timeline(&bed, stop.clone());
                assert_eq!(bed.client.search(&everywhere).await.len(), 40, "{what}");
                stop.set(true);
                let samples = samples.await;
                let after = bed.client.stats();
                let (c1, s1) = sent(&bed);
                assert_eq!(after.chunks_fetched - before.chunks_fetched, 1, "{what}");
                assert_eq!(after.cache_hits, before.cache_hits, "{what}");
                assert_eq!(after.meta_refreshes - before.meta_refreshes, 1, "{what}");
                assert_eq!(after.offload_restarts, before.offload_restarts, "{what}");
                assert_eq!(c1 - c0, 2 * request_bytes, "{what}: the leaf and the check");
                assert_eq!(s1 - s0, leaf_bytes + LINE_BYTES as u64, "{what}");
                let check_posted = first_at(&samples, c1, |s| s.1);
                let leaf_served = first_at(&samples, s0 + leaf_bytes, |s| s.2);
                assert!(
                    check_posted < leaf_served,
                    "{what}: check posted at {check_posted:?}, leaf served at {leaf_served:?}"
                );
            }
        });
    }
}

/// How long an idle search of `window()` takes on a fresh bed with warm
/// metadata.
fn walk_duration(multi_issue: bool) -> SimDuration {
    Sim::new().run_until(async move {
        let mut bed = bed(multi_issue);
        search_all(&mut bed.client, "warm-up").await;
        sleep(SimDuration::from_millis(1)).await;
        let t0 = now();
        search_all(&mut bed.client, "idle").await;
        now() - t0
    })
}

/// Inserts that split leaves inside `window()`, landing at instants spread
/// across one walk, never cost a preloaded match: the walk either read a
/// consistent tree or its check saw the structure version move and
/// restarted. Both walks.
#[test]
fn splits_racing_the_walk_lose_nothing() {
    for multi_issue in [true, false] {
        splits_racing(multi_issue);
    }
}

fn splits_racing(multi_issue: bool) {
    let walk = walk_duration(multi_issue);
    let mut restarts = 0;
    for step in 0..=8u64 {
        let at = walk * step / 8;
        restarts += Sim::new().run_until(async move {
            let mut bed = bed(multi_issue);
            search_all(&mut bed.client, "warm-up").await;
            sleep(SimDuration::from_millis(1)).await;
            let server = bed.server.clone();
            let before = bed.client.stats().offload_restarts;
            let start = now();
            let writer = spawn(async move {
                sleep_until(start + at).await;
                server.with_index_mut(|t| {
                    // More than a leaf holds, all inside the window.
                    for j in 0..120u64 {
                        let x = 0.33 + (j % 12) as f64 * 0.005;
                        let y = 0.33 + (j / 12) as f64 * 0.005;
                        t.insert(Rect::new(x, y, x + 0.001, y + 0.001), ITEMS + j);
                    }
                });
            });
            let what = format!("multi-issue {multi_issue}, inserts at {at:?}");
            search_all(&mut bed.client, &what).await;
            writer.await;
            bed.server.with_index(|t| t.check_invariants()).unwrap();
            bed.client.stats().offload_restarts - before
        });
    }
    assert!(
        restarts > 0,
        "multi-issue {multi_issue}: some split raced a walk and was caught"
    );
}

/// Stamps every node chunk with its version plus one, keeping its payload,
/// as a torn write whose remote readers see old and new lines mixed for
/// `window`.
fn tear_every_node(server: &CatfishServer, window: SimDuration) {
    server.with_index(|t| {
        let store = t.store();
        let layout = store.layout();
        let region = store.mem().region();
        let mut chunk = vec![0u8; layout.chunk_bytes()];
        for id in 1..store.allocator_state().0 {
            let offset = layout.node_offset(NodeId(id));
            region.read_local(offset, &mut chunk);
            for line in chunk.chunks_exact_mut(LINE_BYTES) {
                let v = u64::from_le_bytes(line[..8].try_into().unwrap());
                line[..8].copy_from_slice(&(v + 1).to_le_bytes());
            }
            region.write_local_torn(offset, &chunk, window);
        }
    });
}

/// A leaf read the check was posted behind, torn and re-read after the
/// check went out, voids that check: the walk confirms a second time, and
/// still returns every preloaded match without restarting. Both walks.
#[test]
fn a_reread_behind_the_check_confirms_again() {
    for multi_issue in [true, false] {
        reread_behind_the_check(multi_issue);
    }
}

fn reread_behind_the_check(multi_issue: bool) {
    Sim::new().run_until(async move {
        let mut bed = bed(multi_issue);
        search_all(&mut bed.client, "warm-up").await;
        sleep(SimDuration::from_millis(1)).await;

        // An idle run dates the check's post relative to the search start.
        let before = bed.client.stats();
        let stop = Rc::new(Cell::new(false));
        let samples = timeline(&bed, stop.clone());
        let t0 = now();
        search_all(&mut bed.client, "idle").await;
        stop.set(true);
        let samples = samples.await;
        let idle = bed.client.stats();
        let (c1, _) = sent(&bed);
        assert_eq!(idle.meta_refreshes - before.meta_refreshes, 1);
        assert_eq!(idle.torn_retries, before.torn_retries);
        let posted = first_at(&samples, c1, |s| s.1) - t0;
        sleep(SimDuration::from_millis(1)).await;

        // The same search again, with every node torn from just after the
        // check's post until before any re-read samples.
        let server = bed.server.clone();
        let t1 = now();
        let tear = spawn(async move {
            sleep_until(t1 + posted + SimDuration::from_nanos(1)).await;
            tear_every_node(&server, SimDuration::from_nanos(1_500));
        });
        search_all(&mut bed.client, "torn").await;
        tear.await;
        let torn = bed.client.stats();
        assert!(
            torn.torn_retries > idle.torn_retries,
            "multi-issue {multi_issue}: a leaf was re-read"
        );
        assert_eq!(
            torn.meta_refreshes - idle.meta_refreshes,
            2,
            "multi-issue {multi_issue}: the re-read voided the check and the walk confirmed again"
        );
        assert_eq!(torn.offload_restarts, idle.offload_restarts);
    });
}
