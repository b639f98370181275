//! Golden-row equivalence: small `run_experiment` cells whose table row
//! and every [`ServiceStats`] counter are pinned byte for byte.
//!
//! The simulation is deterministic, so a host-side refactor (executor,
//! codec, client traversal engine) must reproduce these strings exactly.
//! A diff here means the change moved virtual-time behaviour; update the
//! pinned text only for a change that is meant to do so, and say why.
//!
//! Every offloading cell serves the root from the client's cache of upper
//! nodes; one cell pins that cache under inserts. The fault cells pin where a
//! fault plan attaches (every NIC, or one shard's server NIC) and how
//! mailbox fetching and primary-to-backup forwarding retransmit under
//! loss, and how corrupted ring frames fail their CRC and drop; the rest
//! run fault-free. Three cells drive client loops of their
//! own: kNN (fast and offloaded) on the R-tree, `read_batch` windows
//! under loss, and gets and puts on the KV service.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use catfish_bplus::BpConfig;
use catfish_core::config::{
    AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig, ServerMode,
};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult, Testbed};
use catfish_core::kv::KvBackend;
use catfish_core::obs::{FlightDump, SpanRecord};
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
    // The client cache of upper nodes under inserts, as in
    // `ablation_structure`'s hybrid row: cached nodes skip their RDMA
    // Read, and an insert that rewrites the root bumps the structure
    // version and empties every client's cache, so `cache_hits` and the
    // chunk count pin the cache's fill, lookup and clearing rule.
    let spec = ExperimentSpec {
        client_config: Some(ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue: true,
            ..ClientConfig::default()
        }),
        trace: TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.05 }, 30),
        ..base(Scheme::RdmaOffloading)
    };
    check(
        "offload, node cache under inserts",
        &spec,
        OFFLOAD_NODE_CACHE,
    );
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
fn corrupting_fault_row_is_pinned() {
    // The whole-cluster lossy cell plus 2% frame corruption, with
    // heartbeats every 200 µs so they share each response ring with the
    // responses: corrupted frames of both kinds fail their CRC and drop.
    let spec = ExperimentSpec {
        fault: Some(FaultConfig {
            drop_write: 0.05,
            corrupt: 0.02,
            ..FaultConfig::off()
        }),
        server: ServerConfig {
            cores: 2,
            heartbeat_interval: SimDuration::from_micros(200),
            ..ServerConfig::default()
        },
        ..lossy(base(Scheme::Catfish))
    };
    let r = run_experiment(&spec);
    assert!(
        r.stats.checksum_failures > 0,
        "the cell must drop frames for a bad CRC"
    );
    assert_pinned("1 shard, corrupting faults", &render(&r), CORRUPTING_FAULT);
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

#[test]
fn fetching_lossy_row_is_pinned() {
    // Static mailbox fetching under 5% write loss: lost requests and lost
    // deposits time out and resend. About one window in seven holds more
    // items than the 16 KiB slot, so its deposit overflows and comes back
    // as write-back frames (the server's `fetch_fallbacks`).
    let spec = ExperimentSpec {
        client_config: Some(ClientConfig {
            mode: AccessMode::Fetching,
            ..ClientConfig::default()
        }),
        ..lossy(base(Scheme::Catfish))
    };
    let spec = ExperimentSpec {
        trace: TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.2 }, 30),
        ..spec
    };
    check("fetching, lossy", &spec, FETCHING_LOSSY);
}

#[test]
fn replicated_hybrid_fault_row_is_pinned() {
    // The 4x3 hybrid cell with faults on shard 0's primary NIC: its
    // forwards to the backups lose writes, time out and resend.
    //
    // Known defect, not a baseline: the pinned row stalls. A forwarding
    // pump waits out its 1 s default request timeout, the clients reissue
    // 7 writes to a promoted backup (`repl_dups=7`, 107 writes sent for
    // 100) and the cell reads 1.29 Kops where a 300 us pump timeout reads
    // about 21 Kops. ROADMAP item 1 ("Acked means on every live
    // replica") fixes the reissue rule and must re-pin this row; a
    // re-pin for any other reason must keep `repl_dups=7` or explain it.
    let spec = ExperimentSpec {
        clients: 32,
        shards: 4,
        replicas: 3,
        fault_shard: Some(0),
        server: ServerConfig {
            cores: 1,
            ..ServerConfig::default()
        },
        ..lossy(base(Scheme::Catfish))
    };
    check(
        "4x3 hybrid, shard 0 faulted",
        &spec,
        REPLICATED_HYBRID_FAULT,
    );
}

/// Clients in the batch cell.
const BATCH_CLIENTS: usize = 8;
/// `read_batch` windows each batch-cell client issues.
const BATCH_WINDOWS: usize = 4;
/// Reads per window (and the cell's `max_batch`).
const BATCH_READS: usize = 8;

/// The batch cell: eight fast-messaging clients each issue four
/// `read_batch` windows of eight small searches under 5% write loss with
/// a 300 µs timeout, so flushes lose part of their responses and resend
/// the rest. Returns the pinned text (per window: finish time and the ids
/// of each read; then every client and server counter), every flight
/// dump and every span record.
// Each client task owns its shard connection, so the borrow held across
// `read_batch` excludes nothing.
#[allow(clippy::await_holding_refcell_ref)]
fn batch_cell() -> (String, Vec<FlightDump>, Vec<SpanRecord>) {
    let spec = ExperimentSpec {
        client_config: Some(ClientConfig {
            mode: AccessMode::FastMessaging,
            max_batch: BATCH_READS,
            ..ClientConfig::default()
        }),
        collect_spans: true,
        ..lossy(base(Scheme::FastMessaging))
    };
    Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let lines = Rc::new(RefCell::new(vec![String::new(); BATCH_CLIENTS]));
        let dumps = Rc::new(RefCell::new(vec![Vec::new(); BATCH_CLIENTS]));
        let totals = Rc::new(RefCell::new(ServiceStats::default()));
        let started = now();
        let mut handles = Vec::new();
        for c in 0..BATCH_CLIENTS {
            let client = bed.connect(c, spec.seed ^ c as u64);
            let (lines, dumps, totals) = (Rc::clone(&lines), Rc::clone(&dumps), Rc::clone(&totals));
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let conn = client.shard_client(0);
                let mut text = String::new();
                for w in 0..BATCH_WINDOWS {
                    let reads: Vec<Rect> = (0..BATCH_READS)
                        .map(|i| {
                            let n = ((c * BATCH_WINDOWS + w) * BATCH_READS + i) as f64;
                            let x = (n * 0.618_033_988_75).fract() * 0.99;
                            let y = (n * 0.414_213_562_37).fract() * 0.99;
                            Rect::new(x, y, x + 0.01, y + 0.01)
                        })
                        .collect();
                    let results = conn.borrow_mut().read_batch(&reads).await;
                    let ids: Vec<Vec<u64>> = results
                        .iter()
                        .map(|r| r.iter().map(|&(_, d)| d).collect())
                        .collect();
                    writeln!(
                        text,
                        "client {c} window {w}: {}ns {ids:?}",
                        (now() - started).as_nanos()
                    )
                    .unwrap();
                }
                lines.borrow_mut()[c] = text;
                dumps.borrow_mut()[c] = client.flight_dumps();
                totals.borrow_mut().merge(&client.stats());
            }));
        }
        for h in handles {
            h.await;
        }
        let mut out = lines.borrow().concat();
        writeln!(out, "clients: {}", counters(&totals.borrow())).unwrap();
        writeln!(out, "server: {}", counters(&bed.cluster().stats())).unwrap();
        let dumps = dumps.borrow().concat();
        let spans = bed.trace().expect("spans collected").spans();
        (out, dumps, spans)
    })
}

#[test]
fn read_batch_lossy_windows_are_pinned() {
    assert_pinned("read_batch, lossy", &batch_cell().0, READ_BATCH_LOSSY);
}

#[test]
fn read_batch_under_faults_is_reproducible() {
    // One seed, two runs in one process: the flight dumps (which name the
    // timed-out sequence number) and the span records (in close order)
    // must agree, not just the counters.
    let (text_a, dumps_a, spans_a) = batch_cell();
    let (text_b, dumps_b, spans_b) = batch_cell();
    assert_eq!(text_a, text_b);
    assert!(!dumps_a.is_empty(), "the cell must time out");
    assert_eq!(dumps_a, dumps_b, "flight dumps differ between runs");
    assert_eq!(spans_a, spans_b, "span records differ between runs");
}

const OFFLOAD_MULTI_ISSUE: &str = concat!(
    "RDMA offloading           8 clients   1 shards      469.02 Kops  mean   13.051us  p99   20.479us  cpu 100.0%  bw   38.42 Gbps  modes f/F/o      0/     0/   240 (offload)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=781 cache_hits=232 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=781 cache_hits=232 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const OFFLOAD_SEQUENTIAL: &str = concat!(
    "RDMA offloading           8 clients   1 shards      393.73 Kops  mean   16.203us  p99   30.188us  cpu 100.0%  bw   32.26 Gbps  modes f/F/o      0/     0/   240 (offload)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=781 cache_hits=232 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=240 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=248 offload_restarts=0 chunks_fetched=781 cache_hits=232 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const ADAPTIVE_THREE_WAY: &str = concat!(
    "Catfish                  16 clients   1 shards       12.77 Kops  mean    1.083ms  p99    3.670ms  cpu  98.4%  bw    3.40 Gbps  modes f/F/o     81/   169/   230 (offload)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=81 offloaded_reads=230 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=246 offload_restarts=0 chunks_fetched=3533 cache_hits=214 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=169 fetched_responses=96 fetch_fallbacks=73 mailbox_reclaims=70 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=81 offloaded_reads=230 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=246 offload_restarts=0 chunks_fetched=3533 cache_hits=214 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=169 fetched_responses=96 fetch_fallbacks=73 mailbox_reclaims=70 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);

const REPLICATED_HYBRID: &str = concat!(
    "Catfish                  32 clients   4 shards       48.95 Kops  mean  615.827us  p99    2.097ms  cpu  86.5%  bw    0.73 Gbps  modes f/F/o   2883/     0/   394 (fast)  torn    0.0/kop  restarts  18.4/kop  off/shard [0.08 0.15 0.17 0.07]\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=2883 offloaded_reads=394 writes_sent=332 removes_sent=0 torn_retries=0 short_reads=5 meta_refreshes=613 offload_restarts=59 chunks_fetched=1633 cache_hits=298 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=332 repl_fenced=0 repl_dups=0 repl_lag_ns=36034280\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=715 offloaded_reads=66 writes_sent=71 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=110 offload_restarts=12 chunks_fetched=300 cache_hits=46 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=71 repl_fenced=0 repl_dups=0 repl_lag_ns=7691314\n",
    "shard 1: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=785 offloaded_reads=139 writes_sent=94 removes_sent=0 torn_retries=0 short_reads=3 meta_refreshes=219 offload_restarts=25 chunks_fetched=593 cache_hits=112 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=94 repl_fenced=0 repl_dups=0 repl_lag_ns=10201232\n",
    "shard 2: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=681 offloaded_reads=138 writes_sent=98 removes_sent=0 torn_retries=0 short_reads=2 meta_refreshes=195 offload_restarts=13 chunks_fetched=507 cache_hits=109 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=98 repl_fenced=0 repl_dups=0 repl_lag_ns=10660286\n",
    "shard 3: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=702 offloaded_reads=51 writes_sent=69 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=89 offload_restarts=9 chunks_fetched=233 cache_hits=31 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=69 repl_fenced=0 repl_dups=0 repl_lag_ns=7481448\n",
);

const FAST_MESSAGING_POLLING: &str = concat!(
    "Fast messaging            8 clients   1 shards       21.35 Kops  mean  232.060us  p99    3.146ms  cpu 100.0%  bw    0.11 Gbps  modes f/F/o    240/     0/     0 (fast)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=240 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=240 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const TCP: &str = concat!(
    "TCP/IP-100G InfiniBand    8 clients   1 shards       29.68 Kops  mean  263.366us  p99  393.215us  cpu  99.3%  bw    0.14 Gbps  modes f/F/o      0/     0/     0 (-)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const WHOLE_CLUSTER_FAULT: &str = concat!(
    "Catfish                   8 clients   1 shards       18.25 Kops  mean  386.134us  p99  917.503us  cpu  93.1%  bw    0.12 Gbps  modes f/F/o    213/     0/     0 (fast)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=213 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=149 retransmits=149 dup_drops=21 checksum_failures=0 resyncs=30 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=164 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=213 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=149 retransmits=149 dup_drops=21 checksum_failures=0 resyncs=30 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=164 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const CORRUPTING_FAULT: &str = concat!(
    "Catfish                   8 clients   1 shards       90.63 Kops  mean   70.913us  p99  655.359us  cpu  93.5%  bw    5.94 Gbps  modes f/F/o     25/     0/   188 (offload)  torn    4.2/kop  restarts  25.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=25 offloaded_reads=188 writes_sent=27 removes_sent=0 torn_retries=1 short_reads=0 meta_refreshes=209 offload_restarts=6 chunks_fetched=622 cache_hits=180 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=14 retransmits=14 dup_drops=5 checksum_failures=3 resyncs=8 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=21 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=25 offloaded_reads=188 writes_sent=27 removes_sent=0 torn_retries=1 short_reads=0 meta_refreshes=209 offload_restarts=6 chunks_fetched=622 cache_hits=180 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=14 retransmits=14 dup_drops=5 checksum_failures=3 resyncs=8 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=21 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const SINGLE_SHARD_FAULT: &str = concat!(
    "Catfish                   8 clients   4 shards       69.52 Kops  mean  106.176us  p99  262.143us  cpu  66.0%  bw    0.32 Gbps  modes f/F/o    228/     0/     0 (fast)  torn    0.0/kop  restarts   0.0/kop  off/shard [0.00 0.00 0.00 0.00]\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=228 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=2 retransmits=2 dup_drops=0 checksum_failures=0 resyncs=1 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=3 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=62 offloaded_reads=0 writes_sent=6 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=1 retransmits=1 dup_drops=0 checksum_failures=0 resyncs=1 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=2 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 1: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=60 offloaded_reads=0 writes_sent=8 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=1 retransmits=1 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=1 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 2: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=58 offloaded_reads=0 writes_sent=8 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 3: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=48 offloaded_reads=0 writes_sent=5 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const OFFLOAD_NODE_CACHE: &str = concat!(
    "RDMA offloading           8 clients   1 shards       64.19 Kops  mean   70.024us  p99    2.097ms  cpu 100.0%  bw    4.64 Gbps  modes f/F/o      0/     0/   213 (offload)  torn    0.0/kop  restarts   8.3/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=213 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=225 offload_restarts=2 chunks_fetched=690 cache_hits=205 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=213 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=225 offload_restarts=2 chunks_fetched=690 cache_hits=205 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const KNN: &str = concat!(
    "k=1 fast 62093ns [19604]\n",
    "k=1 offloaded 16823ns [19604]\n",
    "k=8 fast 147849ns [12116, 17458, 3973, 10173, 7875, 7575, 10113, 1746]\n",
    "k=8 offloaded 12674ns [12116, 17458, 3973, 10173, 7875, 7575, 10113, 1746]\n",
    "k=40 fast 539876ns [8653, 10461, 17642, 7087, 11469, 4377, 7541, 14861, 12465, 4614, 3182, 14162, 18051, 18040, 5513, 7428, 9322, 16373, 8113, 3724, 19591, 11714, 16810, 9073, 10823, 18527, 8617, 15006, 10443, 13919, 2260, 3504, 7693, 9260, 16646, 8677, 4373, 10220, 13147, 14503]\n",
    "k=40 offloaded 25634ns [8653, 10461, 17642, 7087, 11469, 4377, 7541, 14861, 12465, 4614, 3182, 14162, 18051, 18040, 5513, 7428, 9322, 16373, 8113, 3724, 19591, 11714, 16810, 9073, 10823, 18527, 8617, 15006, 10443, 13919, 2260, 3504, 7693, 9260, 16646, 8677, 4373, 10220, 13147, 14503]\n",
    "client: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=4 offload_restarts=0 chunks_fetched=10 cache_hits=2 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const KV_GETS_PUTS: &str = concat!(
    "client 0: done 30258811ns got 45 replaced 15 sum 283260\n",
    "client 1: done 31687121ns got 45 replaced 15 sum 300740\n",
    "client 2: done 29617971ns got 45 replaced 15 sum 308220\n",
    "client 3: done 30391091ns got 45 replaced 15 sum 285700\n",
    "client 4: done 29161201ns got 45 replaced 15 sum 303180\n",
    "client 5: done 30983861ns got 45 replaced 15 sum 300663\n",
    "client 6: done 30637441ns got 45 replaced 15 sum 288143\n",
    "client 7: done 27881311ns got 45 replaced 15 sum 305623\n",
    "client 8: done 31691191ns got 45 replaced 15 sum 303103\n",
    "client 9: done 31813261ns got 45 replaced 15 sum 290583\n",
    "client 10: done 31911471ns got 45 replaced 15 sum 308063\n",
    "client 11: done 31975423ns got 45 replaced 15 sum 305543\n",
    "client 12: done 31506841ns got 45 replaced 15 sum 293023\n",
    "client 13: done 31190351ns got 45 replaced 15 sum 310503\n",
    "client 14: done 30266951ns got 45 replaced 15 sum 297983\n",
    "client 15: done 31202421ns got 45 replaced 15 sum 295463\n",
    "clients: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=500 offloaded_reads=220 writes_sent=240 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=236 offload_restarts=0 chunks_fetched=440 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "server: reads=500 writes=240 removes=0 results_returned=500 nodes_visited=1000 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const FETCHING_LOSSY: &str = concat!(
    "Catfish                   8 clients   1 shards        0.11 Kops  mean   19.537ms  p99  707.455ms  cpu   4.0%  bw    0.02 Gbps  modes f/F/o      0/   213/     0 (fetch)  torn    0.0/kop  restarts   0.0/kop\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=745 retransmits=739 dup_drops=65 checksum_failures=0 resyncs=57 stale_heartbeat_windows=0 fetched_reads=213 fetched_responses=653 fetch_fallbacks=192 mailbox_reclaims=201 flight_dumps=760 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=0 offloaded_reads=0 writes_sent=27 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=745 retransmits=739 dup_drops=65 checksum_failures=0 resyncs=57 stale_heartbeat_windows=0 fetched_reads=213 fetched_responses=653 fetch_fallbacks=192 mailbox_reclaims=201 flight_dumps=760 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
const REPLICATED_HYBRID_FAULT: &str = concat!(
    "Catfish                  32 clients   4 shards       21.66 Kops  mean    1.164ms  p99   16.777ms  cpu  63.9%  bw    0.65 Gbps  modes f/F/o    686/     0/   278 (fast)  torn    0.0/kop  restarts  32.3/kop  off/shard [0.15 0.55 0.38 0.00]\n",
    "total: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=686 offloaded_reads=278 writes_sent=100 removes_sent=0 torn_retries=0 short_reads=1 meta_refreshes=408 offload_restarts=31 chunks_fetched=1058 cache_hits=211 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=1067 retransmits=1067 dup_drops=195 checksum_failures=0 resyncs=14 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=1081 repl_forwards=100 repl_fenced=0 repl_dups=0 repl_lag_ns=10800904\n",
    "shard 0: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=194 offloaded_reads=35 writes_sent=23 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=56 offload_restarts=5 chunks_fetched=155 cache_hits=24 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=187 retransmits=187 dup_drops=30 checksum_failures=0 resyncs=14 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=201 repl_forwards=23 repl_fenced=0 repl_dups=0 repl_lag_ns=2486534\n",
    "shard 1: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=119 offloaded_reads=148 writes_sent=32 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=216 offload_restarts=18 chunks_fetched=529 cache_hits=116 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=620 retransmits=620 dup_drops=135 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=620 repl_forwards=32 repl_fenced=0 repl_dups=0 repl_lag_ns=3460850\n",
    "shard 2: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=152 offloaded_reads=95 writes_sent=25 removes_sent=0 torn_retries=0 short_reads=1 meta_refreshes=136 offload_restarts=8 chunks_fetched=374 cache_hits=71 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=243 retransmits=243 dup_drops=26 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=243 repl_forwards=25 repl_fenced=0 repl_dups=0 repl_lag_ns=2696400\n",
    "shard 3: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=221 offloaded_reads=0 writes_sent=20 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=0 batched_msgs=0 decode_errors=0 timeouts=17 retransmits=17 dup_drops=4 checksum_failures=0 resyncs=0 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=17 repl_forwards=20 repl_fenced=0 repl_dups=0 repl_lag_ns=2157120\n",
);
const READ_BATCH_LOSSY: &str = concat!(
    "client 0 window 0: 452448ns [[8451], [16607, 19342, 16582, 5175, 12291], [18388, 4822], [19816, 17731], [3376, 1288, 584], [9109, 16795], [19745, 9604, 9899], [8654, 18439, 10556, 19460, 4527]]\n",
    "client 0 window 1: 1225199ns [[7455, 18332, 8378], [], [1253, 2206, 5373, 14898, 3925, 13382], [4511, 8788, 11831, 185, 9743, 10815], [14083, 638, 9371, 12706], [16033, 17992], [1855], [3962, 18179, 15682, 8347]]\n",
    "client 0 window 2: 13438793ns [[13251, 19540], [3576], [18656, 4188, 1852], [19379, 14642, 19677, 14041, 17816], [16736, 4003], [9249, 1887], [], [3745]]\n",
    "client 0 window 3: 13903743ns [[7497, 16557, 5991], [11786, 15197], [3292, 3963, 7987, 13018], [19356], [897, 10809], [14004, 10344, 5396, 519, 18843], [16168, 19225, 8749, 7531], [15639, 864, 16575, 9699, 2227, 5563, 11395, 1441, 12245]]\n",
    "client 1 window 0: 362466ns [[12292, 9291, 8027, 8742], [], [19050, 10033, 10774], [17213, 16786], [14234, 7211, 18115], [4338, 13503, 5145, 1056], [], [1784, 11598, 3370, 13486, 11122, 11675]]\n",
    "client 1 window 1: 719392ns [[8775, 15242, 14444, 14172], [4273, 8842, 18457], [5666, 5218], [1571, 4830, 2768], [6685, 15944, 14400, 5346], [667, 8705], [11691], [10403]]\n",
    "client 1 window 2: 1050562ns [[10958], [7189], [18680, 16987, 3164, 8960], [], [15822], [], [16850, 136, 6865], [12650, 13812, 16734]]\n",
    "client 1 window 3: 9525164ns [[14308, 8743], [18473, 4329, 17075], [9181], [], [11252, 14929, 6090], [6392, 16067, 14131], [8803, 8241], [5156]]\n",
    "client 2 window 0: 1470497ns [[9025, 10378], [3560], [15577, 19657], [], [], [13279, 12168, 18877, 13215], [13235, 19516], [12051]]\n",
    "client 2 window 1: 1923447ns [[14814, 6016, 5272], [8989, 10581, 127, 13673], [2234, 19981, 7661], [17977, 14882], [18868, 9348], [10789, 2604], [4549, 9762, 16234, 2280, 19377], [12859, 134]]\n",
    "client 2 window 2: 14304070ns [[4609, 8127], [9096, 15073, 7301], [15957, 18764, 10218], [10934, 13900], [5340, 12775], [6280, 5381, 6196], [1827, 12495], [7019, 327, 16346]]\n",
    "client 2 window 3: 19048311ns [[19904, 17433, 2341], [], [1729], [10256, 12410, 6791, 2302], [1356, 5752], [19770, 16568, 3001, 9153, 19184], [13737, 18341], [481]]\n",
    "client 3 window 0: 2168059ns [[9520, 17144], [14384, 18714, 15148], [14017, 3643, 8629], [19422], [18176], [11564, 7780], [4832, 1743, 17263, 7300], [15494, 14409]]\n",
    "client 3 window 1: 19232328ns [[14442, 4166, 12303, 8025, 10049, 2386], [7198, 4417], [10208], [], [13650], [18549, 9266], [18754, 10163], [2766, 6861, 4206, 4736, 16121]]\n",
    "client 3 window 2: 22524169ns [[8103, 12954, 14811], [4848, 18088], [9089, 1519, 12980, 19, 6214, 11938], [13870, 12586, 3262], [17930, 12534, 11974], [5710, 18206], [792], [11182, 18236, 16784, 3483]]\n",
    "client 3 window 3: 22988366ns [[], [14956], [7619], [11491], [16457, 4994], [9363, 6694, 3747, 18100, 12809], [14757, 4178], [4055, 6941, 16112, 12854]]\n",
    "client 4 window 0: 3103692ns [[14630, 14328], [1587], [], [8148], [673], [9671], [13755], [1584, 19490, 6478, 18251, 17879]]\n",
    "client 4 window 1: 7761100ns [[15803, 19241], [8364, 17569], [], [13037, 6326, 9160, 17534], [12830, 18503, 7015], [10705, 8879, 7258], [16807], [14654]]\n",
    "client 4 window 2: 15867204ns [[6809, 517, 1414, 19891], [5817, 4497, 1884, 18849, 17339], [15895, 16042], [13154, 18589, 7699, 15830], [13491], [5613], [908, 16467], []]\n",
    "client 4 window 3: 23586585ns [[5651, 2157], [12421, 8042, 9948, 10002], [6825], [7061, 5011, 19171], [5253, 2573, 870], [4446, 12389, 10776, 1578], [13768, 12117, 3645], [2029]]\n",
    "client 5 window 0: 3183742ns [[6827, 6205], [2797, 7903], [10444, 407, 15346, 7926, 19628], [14371, 10857], [9331, 5539], [10702, 1030, 3424, 2895, 2245], [10322, 14240, 17745], [13510, 2231, 3174]]\n",
    "client 5 window 1: 3660692ns [[6208, 5349, 2433], [8680, 4868], [8362, 4463], [15438, 14443], [3499], [], [7215], [11213, 3234, 8454]]\n",
    "client 5 window 2: 11267885ns [[13661, 14528], [15353, 13590], [15539], [10955], [181], [3372, 14733, 18229, 9976, 4092, 7898], [17750, 8245], [16867, 11947]]\n",
    "client 5 window 3: 11744835ns [[17703, 10009, 19328], [], [11392, 3702, 10472, 9216], [2443, 9104, 18735], [10269, 7719, 5158, 6598, 19676], [5832, 17266], [12550], [4299, 15278, 13241]]\n",
    "client 6 window 0: 12280571ns [[], [8935, 16186, 18940, 12105, 15475], [7337, 4047, 2897, 19818, 6101, 9655], [5479, 18464], [15074, 17187, 4464, 18650], [16613], [18896, 15044], [5889]]\n",
    "client 6 window 1: 12745772ns [[18841, 11946, 16844, 6035], [13448, 4685, 404, 5285], [13230, 8758, 11313, 4517], [7111, 10916], [3277, 9359], [11037, 17693], [14976, 14096], [9987, 14293, 11773, 1536]]\n",
    "client 6 window 2: 20422865ns [[18956, 14621], [17705, 10213], [6822, 12248, 7130, 2153, 1739], [15732], [7782], [18137, 9840, 16854], [], []]\n",
    "client 6 window 3: 25129902ns [[15860, 3539, 14845], [2033, 14275, 8948, 8461, 6130], [10727], [9061, 11568, 8115, 3422], [720, 6207, 16652, 7612, 16141], [17863, 19154], [19757], [6546, 220, 6810]]\n",
    "client 7 window 0: 12401477ns [[9667, 8147, 17687], [13546, 7893, 3940, 3705, 5668], [19325], [18863], [], [10861], [16997, 10347, 5386], [14043, 2360, 18078, 7547, 6098]]\n",
    "client 7 window 1: 12853674ns [[], [], [10310], [18238, 11347, 17524], [12046, 3319, 3680], [12819], [14484], [18973, 19845, 9524, 13399]]\n",
    "client 7 window 2: 20671838ns [[2013, 16343], [6535, 7854, 10593], [19307], [], [10106], [17994], [], [12320, 8882, 18086, 2255, 5113]]\n",
    "client 7 window 3: 21125039ns [[18720, 8445, 6144, 4551], [13082, 19493, 16908, 7658], [18298, 4146, 15693], [5299], [7480], [16862, 15636], [19778, 11879], [2536]]\n",
    "clients: reads=0 writes=0 removes=0 results_returned=0 nodes_visited=0 fast_reads=256 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=34 batched_msgs=193 decode_errors=0 timeouts=171 retransmits=329 dup_drops=0 checksum_failures=0 resyncs=8 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=179 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
    "server: reads=557 writes=0 removes=0 results_returned=1380 nodes_visited=1998 fast_reads=0 offloaded_reads=0 writes_sent=0 removes_sent=0 torn_retries=0 short_reads=0 meta_refreshes=0 offload_restarts=0 chunks_fetched=0 cache_hits=0 batches_sent=82 batched_msgs=506 decode_errors=0 timeouts=0 retransmits=0 dup_drops=0 checksum_failures=0 resyncs=8 stale_heartbeat_windows=0 fetched_reads=0 fetched_responses=0 fetch_fallbacks=0 mailbox_reclaims=0 flight_dumps=0 repl_forwards=0 repl_fenced=0 repl_dups=0 repl_lag_ns=0\n",
);
