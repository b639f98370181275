//! The three benchmark workloads and the inputs each derives from a seed.
//!
//! All three run 1M uniform rectangles (edge ≤ 1e-4) in fanout-88 chunks
//! on the sharded-cluster code path — the single-server workloads are
//! 1-shard clusters — with closed-loop clients: each simulated client
//! sends its next request only after the previous reply arrived. Clients
//! keep sending until a virtual deadline, so load stays constant through
//! the measurement window; the window opens after a warm-up that covers
//! connection start-up and Algorithm 1's first heartbeats.

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::SimDuration;
use catfish_workload::{uniform_rects, Request, ScaleDist, TraceSpec};

/// Rectangles preloaded into the cluster.
pub const DATASET_SIZE: usize = 1_000_000;
/// Upper bound on a preloaded rectangle's edge.
pub const DATASET_EDGE: f64 = 1e-4;
/// How many times a client's expected request count its trace holds, so
/// no client runs out before the deadline.
const TRACE_MARGIN: f64 = 2.0;

/// One workload: topology, client policy and request mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Simulated closed-loop client tasks.
    pub clients: usize,
    /// Client machines the tasks share NICs on.
    pub client_nodes: usize,
    pub shards: usize,
    pub replicas: usize,
    /// Request mix; each run sets the trace length from its window.
    pub mix: TraceSpec,
    /// Virtual time before the measurement window opens.
    pub warmup: SimDuration,
    /// Virtual window measured per second of `--seconds`: sized so the
    /// request phase takes about `--seconds` of host time on a 2-core
    /// x86-64 host.
    pub window_per_second: SimDuration,
    /// Rough virtual throughput, only to size the traces.
    pub nominal_kops: f64,
    pub server: ServerConfig,
    pub client: ClientConfig,
}

/// Every workload name, in the order `--workload` accepts them.
pub const NAMES: [&str; 3] = ["paper_search", "wide_window", "hybrid_replicated"];

/// The tree configuration of the paper figures: fanout 88 packs a node
/// into exactly one 4 KiB chunk.
pub fn tree_config() -> RTreeConfig {
    RTreeConfig::with_max_entries(88)
}

/// Full Catfish client: Algorithm 1 fed by the server's heartbeats, with
/// multi-issue offloading.
fn catfish_client(params: AdaptiveParams, server: &ServerConfig) -> ClientConfig {
    ClientConfig {
        mode: AccessMode::Adaptive(AdaptiveParams {
            heartbeat_interval: server.heartbeat_interval,
            ..params
        }),
        multi_issue: true,
        ..ClientConfig::default()
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let default_server = ServerConfig::default();
        Some(match name {
            // Fig. 10's CPU-bound cell: tiny windows keep the server's ring,
            // dispatch and index execution busy and put Algorithm 1 on its
            // decision boundary.
            "paper_search" => Workload {
                name: "paper_search",
                clients: 128,
                client_nodes: 8,
                shards: 1,
                replicas: 1,
                mix: TraceSpec::search_only(ScaleDist::small(), 0),
                warmup: SimDuration::from_millis(50),
                window_per_second: SimDuration::from_millis(90),
                nominal_kops: 650.0,
                server: default_server,
                client: catfish_client(AdaptiveParams::default(), &default_server),
            },
            // ~230 items per result on a 4-core server: the client offload
            // engine (chunk reads, decode, expand) and mailbox fetching do
            // most of the work.
            "wide_window" => {
                let server = ServerConfig {
                    cores: 4,
                    ..default_server
                };
                Workload {
                    name: "wide_window",
                    clients: 64,
                    client_nodes: 8,
                    shards: 1,
                    replicas: 1,
                    mix: TraceSpec::search_only(ScaleDist::Fixed { bound: 0.03 }, 0),
                    warmup: SimDuration::from_millis(50),
                    window_per_second: SimDuration::from_millis(70),
                    nominal_kops: 160.0,
                    server,
                    client: catfish_client(AdaptiveParams::three_way(), &server),
                }
            }
            // 90/10 search/insert over 4 shards x 3 replicas: scatter-gather,
            // the write path and primary->backup forwarding beside reads.
            // 4-core members keep the primaries busy enough that searches
            // queue; on idle servers every search would take one of a few
            // fixed virtual latencies, the same on every seed. Algorithm 1
            // then offloads a minority of reads, which race the inserts.
            "hybrid_replicated" => {
                let server = ServerConfig {
                    cores: 4,
                    ..default_server
                };
                Workload {
                    name: "hybrid_replicated",
                    clients: 64,
                    client_nodes: 8,
                    shards: 4,
                    replicas: 3,
                    mix: TraceSpec::hybrid(ScaleDist::small(), 0),
                    warmup: SimDuration::from_millis(50),
                    window_per_second: SimDuration::from_millis(80),
                    nominal_kops: 300.0,
                    server,
                    client: catfish_client(AdaptiveParams::default(), &server),
                }
            }
            _ => return None,
        })
    }

    /// The virtual measurement window of a `seconds`-long run.
    pub fn window(&self, seconds: u64) -> SimDuration {
        self.window_per_second * seconds
    }

    /// Requests per client trace for a run measuring `window`.
    fn trace_len(&self, window: SimDuration) -> usize {
        let expected = self.nominal_kops * 1e3 * (self.warmup + window).as_secs_f64();
        (expected * TRACE_MARGIN / self.clients as f64).ceil() as usize
    }

    /// Per-client back-off seed (the figure harness's formula).
    pub fn client_seed(seed: u64, client: usize) -> u64 {
        seed ^ (client as u64).wrapping_mul(0x5851_F42D_4C95_7F2D)
    }
}

/// Everything a run feeds the cluster, generated from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    pub dataset: Vec<(Rect, u64)>,
    /// One closed-loop request trace per client.
    pub traces: Vec<Vec<Request>>,
}

impl Inputs {
    /// The inputs of a run measuring `window`. Traces of a shorter window
    /// are prefixes of a longer one's.
    pub fn generate(w: &Workload, seed: u64, window: SimDuration) -> Inputs {
        let spec = TraceSpec {
            requests_per_client: w.trace_len(window),
            ..w.mix
        };
        Inputs {
            dataset: uniform_rects(DATASET_SIZE, DATASET_EDGE, seed),
            traces: (0..w.clients)
                .map(|c| spec.client_trace(c as u64, seed))
                .collect(),
        }
    }
}
