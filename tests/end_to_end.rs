//! Cross-crate integration tests: the full Catfish stack (workload →
//! client → verbs → server → R*-tree) checked against a local oracle.

use catfish::core::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig};
use catfish::core::conn::RkeyAllocator;
use catfish::core::harness::{run_experiment, ExperimentSpec};
use catfish::core::server::CatfishServer;
use catfish::core::CatfishClient;
use catfish::rdma::profile::infiniband_100g;
use catfish::rdma::{Endpoint, RdmaProfile};
use catfish::rtree::{MemStore, RTree, RTreeConfig, Rect};
use catfish::simnet::{Network, Sim};
use catfish::workload::{uniform_rects, ScaleDist, TraceSpec};

fn oracle(dataset: &[(Rect, u64)], q: &Rect) -> Vec<u64> {
    let mut v: Vec<u64> = dataset
        .iter()
        .filter(|(r, _)| r.intersects(q))
        .map(|(_, d)| *d)
        .collect();
    v.sort_unstable();
    v
}

/// Every access path returns exactly the linear-scan answer.
#[test]
fn all_paths_agree_with_oracle() {
    let dataset = uniform_rects(20_000, 1e-3, 5);
    let queries: Vec<Rect> = (0..40)
        .map(|i| {
            let x = (i as f64 * 0.023) % 0.9;
            let y = (i as f64 * 0.037) % 0.9;
            Rect::new(x, y, x + 0.05, y + 0.05)
        })
        .collect();
    for mode in [
        AccessMode::FastMessaging,
        AccessMode::Offloading,
        AccessMode::Adaptive(AdaptiveParams::default()),
    ] {
        let dataset = dataset.clone();
        let queries = queries.clone();
        let sim = Sim::new();
        sim.run_until(async move {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let server = CatfishServer::build(
                &net,
                &profile,
                ServerConfig {
                    cores: 8,
                    ..ServerConfig::default()
                },
                RTreeConfig::with_max_entries(88),
                dataset.clone(),
                &rkeys,
            );
            server.start_heartbeats();
            let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
            let ch = server.accept(&ep);
            let mut client = CatfishClient::new(
                ch,
                server.remote_handle(),
                ClientConfig {
                    mode,
                    ..ClientConfig::default()
                },
                99,
            );
            for q in &queries {
                let mut got = client.search(q).await;
                got.sort_unstable();
                assert_eq!(got, oracle(&dataset, q), "mode {mode:?} query {q:?}");
            }
        });
    }
}

/// Mixed reads and writes through the protocol stay consistent with a
/// locally maintained reference tree.
#[test]
fn protocol_writes_match_reference_tree() {
    let sim = Sim::new();
    sim.run_until(async move {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let dataset = uniform_rects(5_000, 1e-3, 6);
        let server = CatfishServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 8,
                ..ServerConfig::default()
            },
            RTreeConfig::with_max_entries(88),
            dataset.clone(),
            &rkeys,
        );
        let mut reference: RTree<MemStore> = RTree::new(MemStore::new(), RTreeConfig::default());
        for (r, d) in &dataset {
            reference.insert(*r, *d);
        }
        let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&ep);
        let mut client = CatfishClient::new(
            ch,
            server.remote_handle(),
            ClientConfig {
                mode: AccessMode::FastMessaging,
                ..ClientConfig::default()
            },
            1,
        );
        // Interleave inserts, deletes, and searches.
        for i in 0..300u64 {
            let x = (i as f64 * 0.00317) % 0.95;
            let rect = Rect::new(x, x, x + 0.01, x + 0.01);
            match i % 3 {
                0 => {
                    let id = 1_000_000 + i;
                    assert!(client.insert(rect, id).await);
                    reference.insert(rect, id);
                }
                1 => {
                    let victim = &dataset[(i as usize * 7) % dataset.len()];
                    let expect = reference.delete(&victim.0, victim.1);
                    let got = client.delete(victim.0, victim.1).await;
                    assert_eq!(got, expect, "delete #{i}");
                }
                _ => {
                    let q = Rect::new(x, x, x + 0.08, x + 0.08);
                    let mut got = client.search(&q).await;
                    let mut expect = reference.search(&q);
                    got.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(got, expect, "search #{i}");
                }
            }
        }
        server.with_index(|t| t.check_invariants()).unwrap();
    });
}

/// Offloading traversals racing server-side inserts never return wrong
/// data: torn reads are retried, and the final answers match the tree
/// state (allowing for items inserted concurrently, which may or may not
/// be visible).
#[test]
fn offloading_is_safe_under_concurrent_inserts() {
    let sim = Sim::new();
    let retries = sim.run_until(async move {
        let net = Network::new();
        let profile = infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let dataset = uniform_rects(10_000, 1e-3, 8);
        let server = CatfishServer::build(
            &net,
            &profile,
            ServerConfig {
                cores: 8,
                ..ServerConfig::default()
            },
            RTreeConfig::with_max_entries(88),
            dataset.clone(),
            &rkeys,
        );
        retries_run(server, &net, &profile, dataset).await
    });
    assert!(
        retries > 0,
        "the race must actually occur (got {retries} retries)"
    );
}

async fn retries_run(
    server: CatfishServer,
    net: &Network,
    profile: &catfish::rdma::NetProfile,
    dataset: Vec<(Rect, u64)>,
) -> u64 {
    // Writer client.
    let writer_ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    let writer_ch = server.accept(&writer_ep);
    let tree_handle = server.remote_handle();
    let writer = catfish::simnet::spawn(async move {
        let mut w = CatfishClient::new(writer_ch, tree_handle, ClientConfig::default(), 2);
        for i in 0..2_000u64 {
            let x = (i as f64 * 0.000431) % 0.9;
            w.insert(Rect::new(x, x, x + 0.002, x + 0.002), 2_000_000 + i)
                .await;
        }
    });
    // Reader offloads aggressively over the same region.
    let reader_ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    let reader_ch = server.accept(&reader_ep);
    let mut reader = CatfishClient::new(
        reader_ch,
        server.remote_handle(),
        ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue: true,
            ..ClientConfig::default()
        },
        3,
    );
    for i in 0..400 {
        let x = (i as f64 * 0.00233) % 0.9;
        let q = Rect::new(x, x, x + 0.05, x + 0.05);
        let got = reader.search(&q).await;
        // Every pre-loaded item in range must be found (inserted-later items
        // are allowed to be missing or present).
        let must_have: Vec<u64> = dataset
            .iter()
            .filter(|(r, d)| r.intersects(&q) && *d < 2_000_000)
            .map(|(_, d)| *d)
            .collect();
        for id in must_have {
            assert!(got.contains(&id), "query #{i} lost pre-loaded item {id}");
        }
    }
    writer.await;
    reader.stats().torn_retries + reader.stats().offload_restarts
}

/// The harness is deterministic end to end.
#[test]
fn harness_determinism_across_schemes() {
    for scheme in [Scheme::FastMessaging, Scheme::Catfish] {
        let spec = ExperimentSpec {
            scheme,
            clients: 6,
            client_nodes: 3,
            dataset: uniform_rects(4_000, 1e-3, 10),
            trace: TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.02 }, 30),
            server: ServerConfig {
                cores: 4,
                ..ServerConfig::default()
            },
            ..ExperimentSpec::default()
        };
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.makespan, b.makespan, "{scheme:?}");
        assert_eq!(a.latency, b.latency, "{scheme:?}");
    }
}
