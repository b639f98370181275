//! Failure injection: the protocol under hostile conditions — lost
//! heartbeats, exhausted retry budgets, starved rings, churning trees.

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::CatfishServer;
use catfish_core::CatfishClient;
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::{Endpoint, RdmaProfile};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{spawn, Network, Sim, SimDuration};

fn dataset(n: u64) -> Vec<(Rect, u64)> {
    (0..n)
        .map(|i| {
            let x = (i % 128) as f64 / 128.0;
            let y = (i / 128) as f64 / 128.0;
            (Rect::new(x, y, x + 0.004, y + 0.004), i)
        })
        .collect()
}

fn build(cores: usize, items: u64) -> (Network, CatfishServer) {
    let net = Network::new();
    let profile = infiniband_100g();
    let rkeys = RkeyAllocator::new();
    let server = CatfishServer::build(
        &net,
        &profile,
        ServerConfig {
            cores,
            mode: ServerMode::EventDriven,
            ..ServerConfig::default()
        },
        RTreeConfig::with_max_entries(88),
        dataset(items),
        &rkeys,
    );
    (net, server)
}

fn attach(net: &Network, server: &CatfishServer, cfg: ClientConfig, seed: u64) -> CatfishClient {
    let profile = infiniband_100g();
    let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    let ch = server.accept(&ep);
    CatfishClient::new(ch, server.remote_handle(), cfg, seed)
}

/// An adaptive client that never receives a heartbeat (server publisher
/// not started) must keep operating correctly in fast-messaging mode.
#[test]
fn heartbeat_loss_degrades_gracefully() {
    let sim = Sim::new();
    sim.run_until(async {
        let (net, server) = build(4, 4_000);
        // Deliberately NOT calling server.start_heartbeats().
        let mut client = attach(
            &net,
            &server,
            ClientConfig {
                mode: AccessMode::Adaptive(AdaptiveParams::default()),
                ..ClientConfig::default()
            },
            1,
        );
        for i in 0..50u64 {
            let x = (i as f64 * 0.017) % 0.9;
            let q = Rect::new(x, x, x + 0.05, x + 0.05);
            let mut got = client.search(&q).await;
            let mut expect = server.with_index(|t| t.search(&q));
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
        assert_eq!(client.stats().offloaded_reads, 0);
        assert_eq!(client.stats().fast_reads, 50);
    });
}

/// With a zero retry budget and a churning tree, offloaded traversals hit
/// torn reads, restart, and eventually fall back to fast messaging — and
/// every answer stays correct for the pre-loaded items.
#[test]
fn zero_retry_budget_falls_back_to_fast_messaging() {
    let sim = Sim::new();
    sim.run_until(async {
        let (net, server) = build(8, 8_000);
        let base = dataset(8_000);
        // Writer churns the tree continuously.
        let mut writer = attach(&net, &server, ClientConfig::default(), 2);
        let writer_task = spawn(async move {
            // Concentrate churn in one small region so the reader's
            // traversals hit the very leaves being rewritten.
            for i in 0..3_000u64 {
                let x = 0.4 + (i as f64 * 0.000017) % 0.05;
                writer
                    .insert(Rect::new(x, x, x + 0.003, x + 0.003), 5_000_000 + i)
                    .await;
            }
        });
        let mut reader = attach(
            &net,
            &server,
            ClientConfig {
                mode: AccessMode::Offloading,
                multi_issue: true,
                max_read_retries: 0,
                ..ClientConfig::default()
            },
            3,
        );
        let mut restarts_seen = 0;
        for i in 0..300u64 {
            let x = 0.38 + (i as f64 * 0.0001) % 0.04;
            let q = Rect::new(x, x, x + 0.08, x + 0.08);
            let got = reader.search(&q).await;
            for (r, d) in base.iter().filter(|(r, _)| r.intersects(&q)) {
                assert!(got.contains(d), "query {i} lost {d} ({r:?})");
            }
            restarts_seen = reader.stats().offload_restarts;
        }
        writer_task.await;
        assert!(
            restarts_seen > 0,
            "churn with zero retries must cause restarts"
        );
    });
}

/// A tiny ring with multi-segment responses exercises wrap-around and
/// backpressure continuously without corrupting the stream.
#[test]
fn starved_ring_stays_correct() {
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
                mode: ServerMode::EventDriven,
                ring_capacity: 2048,          // tiny: constant wrap pressure
                response_segment_results: 10, // many segments per response
                ..ServerConfig::default()
            },
            RTreeConfig::with_max_entries(88),
            dataset(4_000),
            &rkeys,
        );
        let mut client = attach(&net, &server, ClientConfig::default(), 4);
        for i in 0..30u64 {
            let x = (i as f64 * 0.03) % 0.6;
            // Broad queries: hundreds of results, dozens of segments.
            let q = Rect::new(x, x, x + 0.3, x + 0.3);
            let mut got = client.search(&q).await;
            let mut expect = server.with_index(|t| t.search(&q));
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got.len(), expect.len(), "query {i}");
            assert_eq!(got, expect, "query {i}");
        }
    });
}

/// The polling server stays correct (if slower) when connections far
/// exceed cores.
#[test]
fn polling_oversubscription_is_correct() {
    let sim = Sim::new();
    sim.run_until(async {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server = CatfishServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 2,
                mode: ServerMode::Polling,
                quantum: SimDuration::from_micros(200),
                ..ServerConfig::default()
            },
            RTreeConfig::with_max_entries(88),
            dataset(2_000),
            &rkeys,
        );
        let mut handles = Vec::new();
        for c in 0..12u64 {
            let mut client = attach(&net, &server, ClientConfig::default(), 10 + c);
            let expected = server.clone();
            handles.push(spawn(async move {
                for i in 0..20u64 {
                    let x = ((c * 31 + i) as f64 * 0.013) % 0.8;
                    let q = Rect::new(x, x, x + 0.05, x + 0.05);
                    let mut got = client.search(&q).await;
                    let mut expect = expected.with_index(|t| t.search(&q));
                    got.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(got, expect, "client {c} query {i}");
                }
            }));
        }
        for h in handles {
            h.await;
        }
        // All 12 pollers burned CPU: utilization is pinned while 2 cores
        // serve 12 polling workers.
        assert!(server.cpu().busy_time() > SimDuration::from_millis(1));
    });
}

/// Deletes interleaved with offloaded reads: freed-and-reused chunks are
/// either decoded consistently or rejected and retried — results never
/// contain items that were deleted before the run started.
#[test]
fn offloading_correct_under_deletes() {
    let sim = Sim::new();
    sim.run_until(async {
        let (net, server) = build(8, 6_000);
        let base = dataset(6_000);
        let (delete_half, keep_half) = base.split_at(3_000);
        let mut deleter = attach(&net, &server, ClientConfig::default(), 5);
        let del: Vec<_> = delete_half.to_vec();
        let deleter_task = spawn(async move {
            for (r, d) in del {
                assert!(deleter.delete(r, d).await);
            }
        });
        let mut reader = attach(
            &net,
            &server,
            ClientConfig {
                mode: AccessMode::Offloading,
                multi_issue: true,
                ..ClientConfig::default()
            },
            6,
        );
        for i in 0..150u64 {
            let x = (i as f64 * 0.0053) % 0.85;
            let q = Rect::new(x, x, x + 0.05, x + 0.05);
            let got = reader.search(&q).await;
            // Items in the kept half must always be visible.
            for (r, d) in keep_half.iter().filter(|(r, _)| r.intersects(&q)) {
                assert!(got.contains(d), "query {i} lost kept item {d} ({r:?})");
            }
        }
        deleter_task.await;
        server.with_index(|t| t.check_invariants()).unwrap();
    });
}

/// The client's cache of upper nodes returns the server's results while
/// taking the root off the wire: every walk reads exactly the nodes the
/// server's own search visits, one of them from the cache after the first.
#[test]
fn level_cache_correct_and_effective() {
    for multi_issue in [true, false] {
        let sim = Sim::new();
        sim.run_until(async move {
            let (net, server) = build(8, 10_000);
            assert_eq!(server.meta().height, 3, "the root is the one upper node");
            let mut client = attach(
                &net,
                &server,
                ClientConfig {
                    mode: AccessMode::Offloading,
                    multi_issue,
                    ..ClientConfig::default()
                },
                7,
            );
            let mut visited = 0;
            for i in 0..60u64 {
                let x = (i as f64 * 0.013) % 0.85;
                let q = Rect::new(x, x, x + 0.05, x + 0.05);
                let mut got = client.search(&q).await;
                let mut expect = Vec::new();
                visited += server.with_index(|t| t.search_into(&q, &mut expect).nodes_visited);
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "query {i}");
            }
            let s = client.stats();
            assert_eq!(s.offload_restarts, 0);
            assert_eq!(s.cache_hits, 59, "multi_issue {multi_issue}");
            assert_eq!(s.chunks_fetched + s.cache_hits, visited as u64);
        });
    }
}

/// kNN requests through the protocol return the exact same neighbors the
/// server's tree computes locally.
#[test]
fn protocol_knn_matches_local() {
    let sim = Sim::new();
    sim.run_until(async {
        let (net, server) = build(4, 5_000);
        let mut client = attach(&net, &server, ClientConfig::default(), 20);
        for probe in 0..25u64 {
            let x = (probe as f64 * 0.037) % 1.0;
            let y = (probe as f64 * 0.053) % 1.0;
            let got = client.nearest(x, y, 8).await;
            let expect = server.with_index(|t| t.nearest(x, y, 8));
            assert_eq!(got.len(), 8, "probe {probe}");
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.1, e.data, "probe {probe}");
            }
        }
    });
}

/// Offloaded kNN (best-first over one-sided reads) matches the server's
/// local computation and touches no server CPU; every probe after the
/// first is served the root from the client's cache of upper nodes.
#[test]
fn offloaded_knn_matches_local() {
    let sim = Sim::new();
    sim.run_until(async move {
        let (net, server) = build(4, 5_000);
        assert_eq!(server.meta().height, 3, "the root is the one upper node");
        let mut client = attach(
            &net,
            &server,
            ClientConfig {
                mode: AccessMode::Offloading,
                ..ClientConfig::default()
            },
            21,
        );
        let busy_before = server.cpu().busy_time();
        for probe in 0..15u64 {
            let x = (probe as f64 * 0.041) % 1.0;
            let y = (probe as f64 * 0.029) % 1.0;
            let got = client.nearest_offloaded(x, y, 6).await;
            let expect = server.with_index(|t| t.nearest(x, y, 6));
            assert_eq!(got.len(), 6, "probe {probe}");
            // Ties at equal distance may order differently between the
            // local and remote heaps; compare the distance sequences.
            for (g, e) in got.iter().zip(&expect) {
                let gd = catfish_rtree::min_dist_sq(&g.0, x, y);
                assert!(
                    (gd - e.dist_sq).abs() < 1e-12,
                    "probe {probe}: distance {gd} vs {}",
                    e.dist_sq
                );
            }
        }
        // Like the server, k = 0 finds nothing.
        assert!(client.nearest_offloaded(0.5, 0.5, 0).await.is_empty());
        let stats = client.stats();
        assert_eq!(stats.offloaded_reads, 0, "kNN is not a routed read");
        assert_eq!(stats.offload_restarts, 0);
        assert_eq!(stats.cache_hits, 14, "repeated probes hit the cached root");
        assert_eq!(
            server.cpu().busy_time(),
            busy_before,
            "offloaded kNN must not consume server CPU"
        );
    });
}
