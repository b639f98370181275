//! Golden-row equivalence: small `run_experiment` cells whose table row
//! and every [`ServiceStats`] counter are pinned byte for byte.
//!
//! The simulation is deterministic, so a host-side refactor (executor,
//! codec, client traversal engine) must reproduce these strings exactly.
//! A diff here means the change moved virtual-time behaviour; update the
//! pinned text only for a change that is meant to do so, and say why.
//!
//! The `run_experiment` cells run with the client node cache off, except
//! the one cell that pins the cache itself. The fault cells pin where a
//! fault plan attaches (every NIC, or one shard's server NIC); the rest
//! run fault-free. Two cells drive client loops of their own: kNN (fast
//! and offloaded) on the R-tree, and gets and puts on the KV service.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use catfish_bplus::BpConfig;
use catfish_core::config::{
    AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig, ServerMode,
};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult, Testbed};
use catfish_core::kv::KvBackend;
use catfish_core::service::cluster::shard_seed;
use catfish_core::stats::ServiceStats;
use catfish_rdma::FaultConfig;
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{now, sleep, spawn, Sim, SimDuration};
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

/// The row plus one `name=value` line per counter, for the totals and for
/// every shard.
fn counters(s: &ServiceStats) -> String {
    s.counters()
        .iter()
        .map(|(name, _, v)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render(r: &RunResult) -> String {
    let mut out = format!("{}\ntotal: {}\n", r.row(), counters(&r.stats));
    for (i, s) in r.per_shard_stats.iter().enumerate() {
        out.push_str(&format!("shard {i}: {}\n", counters(s)));
    }
    out
}

fn base(scheme: Scheme) -> ExperimentSpec {
    ExperimentSpec {
        scheme,
        clients: 8,
        client_nodes: 4,
        dataset: uniform_rects(20_000, 1e-3, 7),
        trace: TraceSpec::search_only(ScaleDist::Fixed { bound: 0.05 }, 30),
        server: ServerConfig {
            cores: 2,
            ..ServerConfig::default()
        },
        tree_config: RTreeConfig::with_max_entries(88),
        seed: 11,
        // An explicit, inactive fault config: the pinned rows hold even
        // when `CATFISH_FAULTS` injects ambient faults into other tests.
        fault: Some(FaultConfig::default()),
        ..ExperimentSpec::default()
    }
}

fn assert_pinned(name: &str, got: &str, expected: &str) {
    assert_eq!(
        got, expected,
        "golden cell `{name}` moved; actual output:\n{got}"
    );
}

fn check(name: &str, spec: &ExperimentSpec, expected: &str) {
    if let Some(cfg) = &spec.client_config {
        assert_eq!(cfg.cache_levels, 0, "golden cells run with the cache off");
    }
    assert_pinned(name, &render(&run_experiment(spec)), expected);
}

/// [`check`] for the one cell that runs with the client node cache on.
fn check_cached(name: &str, spec: &ExperimentSpec, expected: &str) {
    let cache_levels = spec.client_config.map_or(0, |cfg| cfg.cache_levels);
    assert_eq!(cache_levels, 2, "the cache cell caches the top two levels");
    assert_pinned(name, &render(&run_experiment(spec)), expected);
}

#[test]
fn offload_multi_issue_row_is_pinned() {
    let spec = ExperimentSpec {
        client_config: Some(ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue: true,
            ..ClientConfig::default()
        }),
        ..base(Scheme::RdmaOffloading)
    };
    check("offload multi-issue", &spec, OFFLOAD_MULTI_ISSUE);
}

#[test]
fn offload_sequential_row_is_pinned() {
    check(
        "offload sequential",
        &base(Scheme::RdmaOffloading),
        OFFLOAD_SEQUENTIAL,
    );
}

#[test]
fn adaptive_three_way_row_is_pinned() {
    let spec = base(Scheme::Catfish);
    let spec = ExperimentSpec {
        clients: 16,
        // Windows wide enough (hundreds of items) to cross the fetch
        // crossover while the 2-core server is busy.
        trace: TraceSpec::search_only(ScaleDist::Fixed { bound: 0.3 }, 30),
        client_config: Some(ClientConfig {
            mode: AccessMode::Adaptive(AdaptiveParams {
                heartbeat_interval: spec.server.heartbeat_interval,
                ..AdaptiveParams::three_way()
            }),
            multi_issue: true,
            ..ClientConfig::default()
        }),
        ..spec
    };
    check("adaptive three-way", &spec, ADAPTIVE_THREE_WAY);
}

#[test]
fn replicated_hybrid_row_is_pinned() {
    let spec = ExperimentSpec {
        clients: 32,
        shards: 4,
        replicas: 3,
        trace: TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.05 }, 100),
        server: ServerConfig {
            cores: 1,
            ..ServerConfig::default()
        },
        ..base(Scheme::Catfish)
    };
    check("4x3 hybrid", &spec, REPLICATED_HYBRID);
}

#[test]
fn fast_messaging_polling_row_is_pinned() {
    // The FaRM-style baseline on its default `Polling` server: eight
    // connections share two cores, each worker holding its core for a
    // whole quantum.
    check(
        "fast messaging, polling",
        &base(Scheme::FastMessaging),
        FAST_MESSAGING_POLLING,
    );
}

#[test]
fn offload_node_cache_row_is_pinned() {
    // The client level cache at two levels, as in `ablation_structure`:
    // cached nodes skip their RDMA Read, so `cache_hits` and the chunk
    // count pin the cache's fill and lookup rule.
    let spec = ExperimentSpec {
        client_config: Some(ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue: true,
            cache_levels: 2,
            ..ClientConfig::default()
        }),
        ..base(Scheme::RdmaOffloading)
    };
    check_cached("offload, node cache on", &spec, OFFLOAD_NODE_CACHE);
}

// The one client task owns its shard connection, so the borrow held
// across the await excludes nothing.
#[allow(clippy::await_holding_refcell_ref)]
#[test]
fn knn_fast_and_offloaded_is_pinned() {
    // One client on a one-shard R-tree testbed asks the same kNN queries
    // through the server and through offloaded best-first search. Each
    // line pins the result ids and the virtual time the query took; the
    // offloaded walk sleeps the per-node visit cost once per chunk.
    let spec = base(Scheme::RdmaOffloading);
    let got = Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let client = bed.connect(0, spec.seed);
        let conn = client.shard_client(0);
        let mut out = String::new();
        for (i, k) in [1u32, 8, 40].into_iter().enumerate() {
            let (x, y) = (0.13 + 0.31 * i as f64, 0.71 - 0.27 * i as f64);
            let t0 = now();
            let fast = conn.borrow_mut().nearest(x, y, k).await;
            let t1 = now();
            let offloaded = conn.borrow_mut().nearest_offloaded(x, y, k).await;
            let t2 = now();
            let ids = |r: &[(Rect, u64)]| r.iter().map(|&(_, d)| d).collect::<Vec<_>>();
            writeln!(
                out,
                "k={k} fast {}ns {:?}\nk={k} offloaded {}ns {:?}",
                (t1 - t0).as_nanos(),
                ids(&fast),
                (t2 - t1).as_nanos(),
                ids(&offloaded),
            )
            .unwrap();
        }
        writeln!(out, "client: {}", counters(&client.stats())).unwrap();
        out
    });
    assert_pinned("kNN, fast and offloaded", &got, KNN);
}

/// Keys the KV cell loads, each `k -> 2k`.
const KV_KEYS: u64 = 5_000;
/// Clients in the KV cell, spread over four machines.
const KV_CLIENTS: usize = 16;

#[test]
fn kv_gets_and_puts_are_pinned() {
    // Sixteen adaptive KV clients on four machines against one one-core
    // event-driven server with heartbeats: three gets per put, keys from
    // each client's own stream. Each client line pins its finish time and
    // what its operations returned; the totals pin every client and
    // server counter.
    let spec = ExperimentSpec {
        scheme: Scheme::Catfish,
        clients: KV_CLIENTS,
        client_nodes: 4,
        server: ServerConfig {
            cores: 1,
            ..ServerConfig::default()
        },
        server_mode: Some(ServerMode::EventDriven),
        client_config: Some(ClientConfig {
            mode: AccessMode::Adaptive(AdaptiveParams::default()),
            ..ClientConfig::default()
        }),
        fault: Some(FaultConfig::default()),
        ..ExperimentSpec::default()
    };
    let got = Sim::new().run_until(async move {
        let bed = Testbed::<KvBackend>::build(
            &spec,
            BpConfig::default(),
            (0..KV_KEYS).map(|k| (k, k * 2)).collect(),
        );
        let lines = Rc::new(RefCell::new(vec![String::new(); KV_CLIENTS]));
        let totals = Rc::new(RefCell::new(ServiceStats::default()));
        let started = now();
        let mut handles = Vec::new();
        for c in 0..KV_CLIENTS {
            // The shard connection's back-off seed is exactly `seed`.
            let seed = 11 ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut client = bed.connect(c, shard_seed(seed, 0));
            let (lines, totals) = (Rc::clone(&lines), Rc::clone(&totals));
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let (mut got, mut sum, mut replaced) = (0u64, 0u64, 0u64);
                for i in 0..60u64 {
                    let key = (i * 7_919 + c as u64 * 104_729) % KV_KEYS;
                    if i % 4 == 3 {
                        if let Some(old) = client.put(key, key * 2 + 1).await {
                            replaced += 1;
                            sum += old;
                        }
                    } else if let Some(v) = client.get(key).await {
                        got += 1;
                        sum += v;
                    }
                }
                lines.borrow_mut()[c] = format!(
                    "client {c}: done {}ns got {got} replaced {replaced} sum {sum}",
                    (now() - started).as_nanos()
                );
                totals.borrow_mut().merge(&client.stats());
            }));
        }
        for h in handles {
            h.await;
        }
        let mut out = lines.borrow().join("\n");
        writeln!(out, "\nclients: {}", counters(&totals.borrow())).unwrap();
        writeln!(out, "server: {}", counters(&bed.cluster().stats())).unwrap();
        out
    });
    assert_pinned("KV gets and puts", &got, KV_GETS_PUTS);
}

#[test]
fn tcp_row_is_pinned() {
    check("tcp", &base(Scheme::TcpIp), TCP);
}

/// 5% RDMA write loss with a short per-attempt timeout, over a hybrid
/// trace so retried writes exercise the dedup window.
fn lossy(spec: ExperimentSpec) -> ExperimentSpec {
    ExperimentSpec {
        trace: TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.05 }, 30),
        fault: Some(FaultConfig {
            drop_write: 0.05,
            ..FaultConfig::off()
        }),
        request_timeout: Some(SimDuration::from_micros(300)),
        ..spec
    }
}

#[test]
fn whole_cluster_fault_row_is_pinned() {
    // One shard: the plan attaches to the server NIC and every client NIC.
    check(
        "1 shard, whole-cluster faults",
        &lossy(base(Scheme::Catfish)),
        WHOLE_CLUSTER_FAULT,
    );
}

#[test]
fn single_shard_fault_row_is_pinned() {
    // Four shards, faults on shard 0's server NIC only.
    let spec = ExperimentSpec {
        shards: 4,
        fault_shard: Some(0),
        ..lossy(base(Scheme::Catfish))
    };
    check("4 shards, shard 0 faulted", &spec, SINGLE_SHARD_FAULT);
}

const OFFLOAD_MULTI_ISSUE: &str = concat!(
    "RDMA offloading           8 clients   1 shards      353.99 Kops  mean   18.743us  p99   24.196us  cpu 100.0%  bw   61.42 Gbps  modes f/F/o      0/     0/   240 (offload)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=1013 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=1013 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const OFFLOAD_SEQUENTIAL: &str = concat!(
    "RDMA offloading           8 clients   1 shards      317.61 Kops  mean   21.142us  p99   33.744us  cpu 100.0%  bw   55.11 Gbps  modes f/F/o      0/     0/   240 (offload)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=1013 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=1013 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const ADAPTIVE_THREE_WAY: &str = concat!(
    "Catfish                  16 clients   1 shards       12.75 Kops  mean    1.087ms  p99    3.670ms  cpu  99.0%  bw    4.47 Gbps  modes f/F/o     81/   169/   230 (offload)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=81 offloaded_reads=230 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=258 offload_restarts=0 chunks_fetched=3730 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=169 fetched_responses=95 fetch_fallbacks=74 mailbox_reclaims=68 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=81 offloaded_reads=230 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=258 offload_restarts=0 chunks_fetched=3730 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=169 fetched_responses=95 fetch_fallbacks=74 mailbox_reclaims=68 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const REPLICATED_HYBRID: &str = concat!(
    "Catfish                  32 clients   4 shards       49.48 Kops  mean  609.449us  p99    2.097ms  cpu  87.7%  bw    1.30 Gbps  modes f/F/o   2889/     0/   383 (fast)  merged      0  torn    0.0/kop  restarts   0.0/kop  off/shard [0.08 0.15 0.16 0.07]\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=2889 offloaded_reads=383 writes_sent=332 removes_sent=0 torn_retries=0 meta_refreshes=499 offload_restarts=0 chunks_fetched=1638 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=332 repl_fenced=0 repl_dups=0 repl_lag_ns=36023463\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=720 offloaded_reads=60 writes_sent=71 removes_sent=0 torn_retries=0 meta_refreshes=79 offload_restarts=0 chunks_fetched=262 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=71 repl_fenced=0 repl_dups=0 repl_lag_ns=7713160\n",
    "shard 1: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=779 offloaded_reads=142 writes_sent=94 removes_sent=0 torn_retries=0 meta_refreshes=187 offload_restarts=0 chunks_fetched=606 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=94 repl_fenced=0 repl_dups=0 repl_lag_ns=10166156\n",
    "shard 2: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=686 offloaded_reads=132 writes_sent=98 removes_sent=0 torn_retries=0 meta_refreshes=164 offload_restarts=0 chunks_fetched=554 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=98 repl_fenced=0 repl_dups=0 repl_lag_ns=10653470\n",
    "shard 3: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=704 offloaded_reads=49 writes_sent=69 removes_sent=0 torn_retries=0 meta_refreshes=69 offload_restarts=0 chunks_fetched=216 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=69 repl_fenced=0 repl_dups=0 repl_lag_ns=7490677\n",
);

const FAST_MESSAGING_POLLING: &str = concat!(
    "Fast messaging            8 clients   1 shards       21.35 Kops  mean  232.060us  p99    3.146ms  cpu 100.0%  bw    0.11 Gbps  modes f/F/o    240/     0/     0 (fast)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=240 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=240 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const TCP: &str = concat!(
    "TCP/IP-100G InfiniBand    8 clients   1 shards       29.68 Kops  mean  263.366us  p99  393.215us  cpu  99.3%  bw    0.14 Gbps  modes f/F/o      0/     0/     0 (-)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const WHOLE_CLUSTER_FAULT: &str = concat!(
    "Catfish                   8 clients   1 shards       18.25 Kops  mean  386.134us  p99  917.503us  cpu  93.1%  bw    0.12 Gbps  modes f/F/o    213/     0/     0 (fast)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=213 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=149 retransmits=149 dup_drops=21 checksum_failures=0 resyncs=30 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=164 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=213 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=149 retransmits=149 dup_drops=21 checksum_failures=0 resyncs=30 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=164 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const SINGLE_SHARD_FAULT: &str = concat!(
    "Catfish                   8 clients   4 shards       69.52 Kops  mean  106.176us  p99  262.143us  cpu  66.0%  bw    0.32 Gbps  modes f/F/o    228/     0/     0 (fast)  merged      0  torn    0.0/kop  restarts   0.0/kop  off/shard [0.00 0.00 0.00 0.00]\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=228 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=2 retransmits=2 dup_drops=0 checksum_failures=0 resyncs=1 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=3 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=62 offloaded_reads=0 writes_sent=6 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=1 retransmits=1 dup_drops=0 checksum_failures=0 resyncs=1 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=2 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 1: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=60 offloaded_reads=0 writes_sent=8 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=1 retransmits=1 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=1 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 2: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=58 offloaded_reads=0 writes_sent=8 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 3: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=48 offloaded_reads=0 writes_sent=5 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const OFFLOAD_NODE_CACHE: &str = concat!(
    "RDMA offloading           8 clients   1 shards      466.27 Kops  mean   12.986us  p99   20.479us  cpu 100.0%  bw   45.10 Gbps  modes f/F/o      0/     0/   240 (offload)  merged      0  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=180 offload_restarts=0 chunks_fetched=523 cache_hits=490 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=180 offload_restarts=0 chunks_fetched=523 cache_hits=490 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const KNN: &str = concat!(
    "k=1 fast 62093ns [19604]\n",
    "k=1 offloaded 17935ns [19604]\n",
    "k=8 fast 147849ns [12116, 17458, 3973, 10173, 7875, 7575, 10113, 1746]\n",
    "k=8 offloaded 15548ns [12116, 17458, 3973, 10173, 7875, 7575, 10113, 1746]\n",
    "k=40 fast 539876ns [8653, 10461, 17642, 7087, 11469, 4377, 7541, 14861, 12465, 4614, 3182, 14162, 18051, 18040, 5513, 7428, 9322, 16373, 8113, 3724, 19591, 11714, 16810, 9073, 10823, 18527, 8617, 15006, 10443, 13919, 2260, 3504, 7693, 9260, 16646, 8677, 4373, 10220, 13147, 14503]\n",
    "k=40 offloaded 28709ns [8653, 10461, 17642, 7087, 11469, 4377, 7541, 14861, 12465, 4614, 3182, 14162, 18051, 18040, 5513, 7428, 9322, 16373, 8113, 3724, 19591, 11714, 16810, 9073, 10823, 18527, 8617, 15006, 10443, 13919, 2260, 3504, 7693, 9260, 16646, 8677, 4373, 10220, 13147, 14503]\n",
    "client: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=4 offload_restarts=0 chunks_fetched=12 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const KV_GETS_PUTS: &str = concat!(
    "client 0: done 30266951ns got 45 replaced 15 sum 283260\n",
    "client 1: done 31650911ns got 45 replaced 15 sum 300740\n",
    "client 2: done 29663971ns got 45 replaced 15 sum 308220\n",
    "client 3: done 30391091ns got 45 replaced 15 sum 285700\n",
    "client 4: done 29165271ns got 45 replaced 15 sum 303180\n",
    "client 5: done 30967861ns got 45 replaced 15 sum 300663\n",
    "client 6: done 30633371ns got 45 replaced 15 sum 288143\n",
    "client 7: done 27881311ns got 45 replaced 15 sum 305623\n",
    "client 8: done 31687121ns got 45 replaced 15 sum 303103\n",
    "client 9: done 31813261ns got 45 replaced 15 sum 290583\n",
    "client 10: done 31911471ns got 45 replaced 15 sum 308063\n",
    "client 11: done 31975423ns got 45 replaced 15 sum 305543\n",
    "client 12: done 31498841ns got 45 replaced 15 sum 293023\n",
    "client 13: done 31178281ns got 45 replaced 15 sum 310503\n",
    "client 14: done 30254881ns got 45 replaced 15 sum 297983\n",
    "client 15: done 31190351ns got 45 replaced 15 sum 295463\n",
    "clients: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=500 offloaded_reads=220 writes_sent=240 removes_sent=0 torn_retries=0 meta_refreshes=242 offload_restarts=0 chunks_fetched=440 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "server: reads=500 writes=240 removes=0 results_returned=500 nodes_visited=1000 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 merged_writes=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
