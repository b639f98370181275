//! Golden-row equivalence: small `run_experiment` cells whose table row
//! and every [`ServiceStats`] counter are pinned byte for byte.
//!
//! The simulation is deterministic, so a host-side refactor (executor,
//! codec, client traversal engine) must reproduce these strings exactly.
//! A diff here means the change moved virtual-time behaviour; update the
//! pinned text only for a change that is meant to do so, and say why.
//!
//! Every cell runs with the client node cache off. The fault cells pin
//! where a fault plan attaches (every NIC, or one shard's server NIC);
//! the rest run fault-free.

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult};
use catfish_core::stats::ServiceStats;
use catfish_rdma::FaultConfig;
use catfish_rtree::RTreeConfig;
use catfish_simnet::SimDuration;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

/// The row plus one `name=value` line per counter, for the totals and for
/// every shard.
fn render(r: &RunResult) -> String {
    let counters = |s: &ServiceStats| {
        s.counters()
            .iter()
            .map(|(name, _, v)| format!("{name}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
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

fn check(name: &str, spec: &ExperimentSpec, expected: &str) {
    if let Some(cfg) = &spec.client_config {
        assert_eq!(cfg.cache_levels, 0, "golden cells run with the cache off");
    }
    let got = render(&run_experiment(spec));
    assert_eq!(
        got, expected,
        "golden cell `{name}` moved; actual output:\n{got}"
    );
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
