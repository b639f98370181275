//! The paper's §VI generality claim, end to end: **one** generic service
//! engine ([`ServiceServer`]`<B>` / [`ServiceClient`]`<B>`) drives the
//! same adaptive hybrid workload through two different index backends —
//! the R-tree spatial service and the B+-tree KV service — with the
//! fast/offload routing counters consistent with the configured
//! [`AccessMode`] in both cases.
//!
//! `drive_reads` below is a single generic function body; that it compiles
//! and passes against both backends is the point of the test.

use catfish_bplus::BpConfig;
use catfish_core::client::CatfishClient;
use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::kv::{KvClient, KvRead, KvServer};
use catfish_core::server::CatfishServer;
use catfish_core::service::{ClientBackend, ServiceClient};
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::{Endpoint, RdmaProfile};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{sleep, Network, Sim, SimDuration};
use catfish_workload::uniform_rects;
use proptest::prelude::*;

/// Issues every read through the generic read path and returns the total
/// item count. The same function body serves both backends.
async fn drive_reads<B: ClientBackend>(client: &mut ServiceClient<B>, reads: &[B::Read]) -> usize {
    let mut total = 0;
    for r in reads {
        total += client.read(r).await.len();
    }
    total
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        cores: 4,
        mode: ServerMode::EventDriven,
        ..ServerConfig::default()
    }
}

fn client_cfg(mode: AccessMode) -> ClientConfig {
    ClientConfig {
        mode,
        ..ClientConfig::default()
    }
}

fn rtree_pair(net: &Network, mode: AccessMode, seed: u64) -> (CatfishServer, CatfishClient) {
    let profile = infiniband_100g();
    let rkeys = RkeyAllocator::new();
    let server = CatfishServer::build(
        net,
        &profile,
        server_cfg(),
        RTreeConfig::default(),
        uniform_rects(2_000, 1e-4, 5),
        &rkeys,
    );
    let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    let ch = server.accept(&ep);
    let client = CatfishClient::new(ch, server.remote_handle(), client_cfg(mode), seed);
    (server, client)
}

fn kv_pair(net: &Network, mode: AccessMode, seed: u64) -> (KvServer, KvClient) {
    let profile = infiniband_100g();
    let rkeys = RkeyAllocator::new();
    let server = KvServer::build(
        net,
        &profile,
        server_cfg(),
        BpConfig::with_max_keys(32),
        (0..2_000u64).map(|i| (i * 3, i)).collect(),
        &rkeys,
    );
    let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    let ch = server.accept(&ep);
    let client = KvClient::new(ch, server.remote_handle(), client_cfg(mode), seed);
    (server, client)
}

fn query_rects(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.137) % 0.9;
            let y = (i as f64 * 0.251) % 0.9;
            Rect::new(x, y, x + 0.05, y + 0.05)
        })
        .collect()
}

/// Fast messaging routes every read through the server; offloading routes
/// none; fetching routes every read through the server but pulls every
/// response out of the mailbox; adaptive picks per-request but accounts
/// for all of them — and the identical invariants hold for both backends.
#[test]
fn mode_counters_are_consistent_for_both_backends() {
    for mode in [
        AccessMode::FastMessaging,
        AccessMode::Offloading,
        AccessMode::Fetching,
        AccessMode::Adaptive(AdaptiveParams::default()),
    ] {
        let sim = Sim::new();
        sim.run_until(async move {
            let net = Network::new();

            let (r_server, mut r_client) = rtree_pair(&net, mode, 21);
            let rects = query_rects(40);
            drive_reads(&mut r_client, &rects).await;

            let (k_server, mut k_client) = kv_pair(&net, mode, 22);
            let gets: Vec<KvRead> = (0..40u64).map(|i| KvRead::Get(i * 151 % 6_000)).collect();
            drive_reads(&mut k_client, &gets).await;

            for (label, client_stats, server_stats) in [
                ("rtree", r_client.stats(), r_server.stats()),
                ("kv", k_client.stats(), k_server.stats()),
            ] {
                match mode {
                    AccessMode::FastMessaging => {
                        assert_eq!(client_stats.fast_reads, 40, "{label}");
                        assert_eq!(client_stats.offloaded_reads, 0, "{label}");
                        assert_eq!(server_stats.reads, 40, "{label}");
                    }
                    AccessMode::Offloading => {
                        assert_eq!(client_stats.offloaded_reads, 40, "{label}");
                        assert_eq!(client_stats.fast_reads, 0, "{label}");
                        assert_eq!(server_stats.reads, 0, "{label}");
                        assert!(client_stats.chunks_fetched > 0, "{label}");
                    }
                    AccessMode::Fetching => {
                        assert_eq!(client_stats.fetched_reads, 40, "{label}");
                        assert_eq!(client_stats.fast_reads, 0, "{label}");
                        assert_eq!(client_stats.offloaded_reads, 0, "{label}");
                        // The server executed every read and deposited
                        // every response — none overflowed into ring
                        // write-back at these result sizes.
                        assert_eq!(server_stats.reads, 40, "{label}");
                        assert_eq!(server_stats.fetched_responses, 40, "{label}");
                        assert_eq!(server_stats.fetch_fallbacks, 0, "{label}");
                    }
                    AccessMode::Adaptive(_) => {
                        assert_eq!(
                            client_stats.fast_reads
                                + client_stats.fetched_reads
                                + client_stats.offloaded_reads,
                            40,
                            "{label}"
                        );
                        assert_eq!(
                            server_stats.reads + client_stats.offloaded_reads,
                            40,
                            "{label}"
                        );
                    }
                }
            }
        });
    }
}

/// Doorbell batching produces exactly the sequential path's results for
/// both backends, under both server modes, with batching on (`max_batch`
/// 8) and off (`max_batch` 1) — and the batching counters observe it:
/// coalesced flushes appear in `batches_sent`/`msgs_per_batch` when
/// enabled and stay at zero when disabled.
#[test]
fn batched_reads_match_sequential_for_both_backends_and_modes() {
    for server_mode in [ServerMode::EventDriven, ServerMode::Polling] {
        for max_batch in [1usize, 8] {
            let sim = Sim::new();
            sim.run_until(async move {
                let net = Network::new();
                let profile = infiniband_100g();
                let scfg = ServerConfig {
                    cores: 4,
                    mode: server_mode,
                    max_batch,
                    ..ServerConfig::default()
                };
                let ccfg = ClientConfig {
                    mode: AccessMode::FastMessaging,
                    max_batch,
                    ..ClientConfig::default()
                };

                // --- R-tree backend ---
                let rkeys = RkeyAllocator::new();
                let server = CatfishServer::build(
                    &net,
                    &profile,
                    scfg,
                    RTreeConfig::default(),
                    uniform_rects(2_000, 1e-4, 5),
                    &rkeys,
                );
                let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
                let ch = server.accept(&ep);
                let mut client = CatfishClient::new(ch, server.remote_handle(), ccfg, 41);
                let rects = query_rects(24);
                let batched = client.read_batch(&rects).await;
                assert_eq!(batched.len(), rects.len());
                for (q, got) in rects.iter().zip(&batched) {
                    let mut got: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
                    let mut expect = server.with_index(|t| t.search(q));
                    got.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(got, expect, "{server_mode:?} max_batch {max_batch} {q:?}");
                }
                let s = client.stats();
                assert_eq!(s.fast_reads, 24);
                assert_eq!(server.stats().reads, 24);
                if max_batch > 1 {
                    assert!(
                        s.batches_sent > 0,
                        "{server_mode:?}: batching should engage"
                    );
                    assert!(s.msgs_per_batch() > 1.0);
                } else {
                    assert_eq!(s.batches_sent, 0, "{server_mode:?}: batch 1 is sequential");
                }

                // --- KV backend, same shape ---
                let rkeys = RkeyAllocator::new();
                let server = KvServer::build(
                    &net,
                    &profile,
                    scfg,
                    BpConfig::with_max_keys(32),
                    (0..2_000u64).map(|i| (i * 3, i)).collect(),
                    &rkeys,
                );
                let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
                let ch = server.accept(&ep);
                let mut client = KvClient::new(ch, server.remote_handle(), ccfg, 42);
                let gets: Vec<KvRead> = (0..24u64).map(|i| KvRead::Get(i * 151 % 6_000)).collect();
                let batched = client.read_batch(&gets).await;
                for (read, got) in gets.iter().zip(&batched) {
                    let expect: Vec<(u64, u64)> = server.with_index(|t| match *read {
                        KvRead::Get(k) => t.get(k).map(|v| (k, v)).into_iter().collect(),
                        KvRead::Range { lo, hi } => t.range(lo, hi),
                    });
                    assert_eq!(
                        got, &expect,
                        "{server_mode:?} max_batch {max_batch} {read:?}"
                    );
                }
                let s = client.stats();
                assert_eq!(s.fast_reads, 24);
                if max_batch > 1 {
                    assert!(
                        s.batches_sent > 0,
                        "{server_mode:?}: kv batching should engage"
                    );
                } else {
                    assert_eq!(s.batches_sent, 0);
                }
            });
        }
    }
}

/// Replays one op sequence under one access mode and returns every read
/// result, encoded exactly as the items came off the wire (key/data pairs
/// serialized to little-endian bytes), so the cross-mode comparison is
/// byte-level rather than merely set-level.
async fn replay_rtree(net: &Network, mode: AccessMode, ops: &[(bool, u8)]) -> Vec<Vec<u8>> {
    let (_server, mut client) = rtree_pair(net, mode, 77);
    let mut out = Vec::new();
    for &(write, k) in ops {
        let d = 2_000_000 + u64::from(k);
        let x = (d as f64 * 0.0171) % 0.9;
        let r = Rect::new(x, x, x + 0.02, x + 0.02);
        if write {
            client.insert(r, d).await;
        } else {
            let mut bytes = Vec::new();
            for (rect, data) in client.read(&r).await {
                bytes.extend_from_slice(&rect.min_x().to_le_bytes());
                bytes.extend_from_slice(&rect.min_y().to_le_bytes());
                bytes.extend_from_slice(&rect.max_x().to_le_bytes());
                bytes.extend_from_slice(&rect.max_y().to_le_bytes());
                bytes.extend_from_slice(&data.to_le_bytes());
            }
            out.push(bytes);
        }
    }
    out
}

/// KV twin of [`replay_rtree`]: puts and gets/ranges from the same
/// `(write, key)` script.
async fn replay_kv(net: &Network, mode: AccessMode, ops: &[(bool, u8)]) -> Vec<Vec<u8>> {
    let (_server, mut client) = kv_pair(net, mode, 78);
    let mut out = Vec::new();
    for &(write, k) in ops {
        let key = u64::from(k) * 151 % 6_000;
        if write {
            client.put(key, key ^ 0xABCD).await;
        } else {
            let read = if k % 3 == 0 {
                KvRead::Range {
                    lo: key,
                    hi: key + 300,
                }
            } else {
                KvRead::Get(key)
            };
            let mut bytes = Vec::new();
            for (rk, rv) in client.read(&read).await {
                bytes.extend_from_slice(&rk.to_le_bytes());
                bytes.extend_from_slice(&rv.to_le_bytes());
            }
            out.push(bytes);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mailbox fetching is invisible to the application: under an
    /// arbitrary interleaving of writes and reads, every read returns
    /// results **byte-identical** to the ring write-back path — on both
    /// backends. (The ops replay in separate simulations, one per mode,
    /// so the comparison covers ordering, not just membership.)
    #[test]
    fn fetched_results_are_byte_identical_to_write_back(
        ops in prop::collection::vec((any::<bool>(), 0u8..120), 1..36),
    ) {
        for backend in ["rtree", "kv"] {
            let mut runs = Vec::new();
            for mode in [AccessMode::FastMessaging, AccessMode::Fetching] {
                let ops = ops.clone();
                let sim = Sim::new();
                runs.push(sim.run_until(async move {
                    let net = Network::new();
                    match backend {
                        "rtree" => replay_rtree(&net, mode, &ops).await,
                        _ => replay_kv(&net, mode, &ops).await,
                    }
                }));
            }
            prop_assert_eq!(&runs[0], &runs[1], "{} fetch diverged from write-back", backend);
        }
    }
}

/// The same adaptive hybrid workload — interleaved writes and reads —
/// produces results matching the server's ground truth on both backends,
/// and every write is accounted for in the unified stats.
#[test]
fn adaptive_hybrid_workload_is_correct_on_both_backends() {
    let sim = Sim::new();
    sim.run_until(async {
        let net = Network::new();
        let mode = AccessMode::Adaptive(AdaptiveParams::default());

        // --- R-tree backend ---
        let (server, mut client) = rtree_pair(&net, mode, 31);
        server.start_heartbeats();
        let mut writes = 0u64;
        for round in 0..5u64 {
            for i in 0..8u64 {
                let d = 1_000_000 + round * 8 + i;
                let x = (d as f64 * 0.0137) % 0.9;
                let r = Rect::new(x, x, x + 0.01, x + 0.01);
                assert!(client.insert(r, d).await);
                writes += 1;
            }
            // Let any cached offload metadata expire before reading.
            sleep(SimDuration::from_millis(20)).await;
            for q in query_rects(8) {
                let mut got: Vec<u64> = client.read(&q).await.iter().map(|&(_, d)| d).collect();
                let mut expect = server.with_index(|t| t.search(&q));
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "round {round} rect {q:?}");
            }
        }
        let s = client.stats();
        assert_eq!(s.writes_sent, writes);
        assert_eq!(s.fast_reads + s.offloaded_reads, 40);
        assert_eq!(server.stats().writes, writes);

        // --- KV backend, same shape ---
        let (server, mut client) = kv_pair(&net, mode, 32);
        server.start_heartbeats();
        let mut writes = 0u64;
        for round in 0..5u64 {
            for i in 0..8u64 {
                let k = 1_000_000 + (round * 8 + i) * 17;
                client.put(k, k / 2).await;
                writes += 1;
            }
            sleep(SimDuration::from_millis(20)).await;
            for probe in 0..8u64 {
                let read = if probe % 2 == 0 {
                    KvRead::Get(probe * 307 % 6_000)
                } else {
                    KvRead::Range {
                        lo: probe * 500,
                        hi: probe * 500 + 200,
                    }
                };
                let got = client.read(&read).await;
                let expect = server.with_index(|t| match read {
                    KvRead::Get(k) => t.get(k).map(|v| (k, v)).into_iter().collect(),
                    KvRead::Range { lo, hi } => t.range(lo, hi),
                });
                assert_eq!(got, expect, "round {round} read {read:?}");
            }
        }
        let s = client.stats();
        assert_eq!(s.writes_sent, writes);
        assert_eq!(s.fast_reads + s.offloaded_reads, 40);
        assert_eq!(server.stats().writes, writes);
    });
}
