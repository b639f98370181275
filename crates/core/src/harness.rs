//! Whole-cluster experiment harness.
//!
//! Every run builds one topology: a [`ClusterServer`] of
//! [`ExperimentSpec::shards`] shards (each optionally a replica set) plus
//! up to hundreds of client threads spread over a handful of client
//! machines sharing NICs. The paper's single Catfish server is the
//! one-shard cluster, the default. The harness runs a workload trace
//! through a chosen [`Scheme`] and reports throughput, latency, server CPU
//! utilization, and server NIC bandwidth. The figure-regeneration binaries
//! in `catfish-bench` are thin loops over [`run_experiment`] or a
//! [`Testbed`].
//!
//! The build phase is [`Testbed`]: network, cluster, fault wiring,
//! heartbeats, trace sink and client NICs, plus [`Testbed::connect`] for
//! configured clients. It is generic over the index backend (the R-tree
//! by default). [`run_experiment`] is an R-tree `Testbed` plus a trace
//! driver; bench cells with client loops of their own (the chaos and
//! SIMD gates, and the KV service and batching benches on
//! `Testbed<KvBackend>`) build the same `Testbed`, so every measured cell
//! of either backend runs on one topology code path.

use std::cell::RefCell;
use std::rc::Rc;

use catfish_rdma::tcp::{TcpConn, TcpEndpoint, TcpProfile};
use catfish_rdma::{Endpoint, FaultConfig, FaultPlan, NetProfile};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{now, sleep, spawn, CpuPool, Network, Sim, SimDuration};
use catfish_workload::{Request, ScaleDist, TraceSpec};

use crate::client::CatfishClusterClient;
use crate::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig, ServerMode};
use crate::conn::RkeyAllocator;
use crate::msg::Message;
use crate::obs::{
    AdaptiveEventLog, AdaptiveEventRecord, FlightDump, LatencyHistogram, MetricsRegistry, Phase,
    SpanRecord, TraceSink,
};
use crate::server::{CatfishServer, RtreeBackend};
use crate::service::{ClientBackend, ClusterClient, ClusterServer, ShardPartition};
use crate::stats::{LatencySummary, ServiceStats};

/// Everything needed to run one experiment cell.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Fabric characteristics.
    pub profile: NetProfile,
    /// Access scheme under test.
    pub scheme: Scheme,
    /// Total client threads.
    pub clients: usize,
    /// Client machines the threads are spread over (the paper uses 8).
    pub client_nodes: usize,
    /// Rectangles pre-loaded into the server's tree by
    /// [`run_experiment`] ([`Testbed::build`] takes its load items as an
    /// argument instead).
    pub dataset: Vec<(Rect, u64)>,
    /// Per-client request trace specification.
    pub trace: TraceSpec,
    /// Server configuration (mode is overridden per scheme).
    pub server: ServerConfig,
    /// Tree fanout configuration [`run_experiment`] builds with.
    pub tree_config: RTreeConfig,
    /// Base RNG seed (traces and back-off randomization derive from it).
    pub seed: u64,
    /// Overrides the scheme's default server mode (e.g. event-driven fast
    /// messaging for the Fig. 7 comparison).
    pub server_mode: Option<ServerMode>,
    /// Overrides the scheme's default client configuration (e.g. toggling
    /// multi-issue for the Fig. 8 comparison).
    pub client_config: Option<ClientConfig>,
    /// Explicit per-client request traces (clients cycle through the list);
    /// overrides `trace` when set. Used by the rea02 experiment, whose
    /// queries come from the dataset's query generator.
    pub explicit_traces: Option<std::rc::Rc<Vec<Vec<Request>>>>,
    /// Model client machines with this many cores and make fast-messaging
    /// clients busy-poll for responses (FaRM-style, both sides polling).
    /// `None` (default) = clients block on completion events with
    /// unconstrained CPUs. Used by the Fig. 7 polling runs, where client
    /// machines host more threads than cores.
    pub client_polling_cores: Option<usize>,
    /// The one retention switch for a run's traces. Durations are
    /// [`Phase`]s: one shared span-retaining [`TraceSink`] on every server
    /// and client populates [`RunResult::phase_hists`] with the per-phase
    /// latency breakdown and [`RunResult::spans`] with the causally linked
    /// records (request roots, per-shard RPC legs, server dispatch and
    /// index-exec spans, offloads, merges) that
    /// [`crate::obs::TraceAssembler`] stitches into per-request trees.
    /// Instants are [`crate::obs::FlightEvent`]s in each connection's
    /// always-on recorder; this switch also retains their Algorithm 1
    /// steps as [`RunResult::adaptive_events`] through one
    /// [`AdaptiveEventLog`]. Neither advances virtual time nor adds to
    /// the wire, so enabling this cannot change a run's outcome.
    pub collect_spans: bool,
    /// Fault-injection configuration. When set, one [`FaultPlan`] seeded
    /// from [`ExperimentSpec::seed`] is attached to every server endpoint
    /// and every client NIC (or only where [`ExperimentSpec::fault_shard`]
    /// says), so the whole cluster draws faults from a single
    /// deterministic stream. `None` (the default) honors the
    /// `CATFISH_FAULTS` environment variable ([`FaultPlan::from_env`]),
    /// letting CI run existing workloads under low-rate chaos without
    /// touching their specs.
    pub fault: Option<FaultConfig>,
    /// Overrides every client's per-attempt request timeout (the `--timeout`
    /// bench knob) without replacing the scheme's client configuration.
    pub request_timeout: Option<SimDuration>,
    /// Overrides every client's retransmission budget (`--max-retries`).
    pub max_retries: Option<u32>,
    /// Server shards of the [`ClusterServer`]. `1` (the default) models
    /// the paper's single server; `> 1` partitions the dataset into x-slabs
    /// served to scatter-gather clients. Each shard is a full machine with
    /// `server`'s configuration and its own heartbeat stream / Algorithm 1
    /// instance. The TCP baseline runs only at one shard and one replica.
    pub shards: usize,
    /// Attach the fault plan to **one** shard's server endpoint only
    /// (client NICs stay clean — they carry every shard's traffic, so
    /// faulting them cannot target a shard). `None` faults the whole
    /// cluster as usual. With replication the targeted shard's
    /// **primary** draws the faults — the interesting victim.
    pub fault_shard: Option<usize>,
    /// Members per replica set (the `--replicas` bench knob). `1` (the
    /// default) leaves shards unreplicated; `k > 1` builds every
    /// shard as a k-way replica set with primary-forwarded mutations,
    /// epoch-fenced failover, and hash-range repair.
    pub replicas: usize,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            profile: catfish_rdma::profile::infiniband_100g(),
            scheme: Scheme::Catfish,
            clients: 8,
            client_nodes: 8,
            dataset: Vec::new(),
            trace: TraceSpec::search_only(ScaleDist::small(), 100),
            server: ServerConfig::default(),
            tree_config: RTreeConfig::default(),
            seed: 42,
            server_mode: None,
            client_config: None,
            explicit_traces: None,
            client_polling_cores: None,
            collect_spans: false,
            fault: None,
            request_timeout: None,
            max_retries: None,
            shards: 1,
            fault_shard: None,
            replicas: 1,
        }
    }
}

/// Aggregate outcome of one experiment cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme label (figure legend entry).
    pub label: String,
    /// Client thread count.
    pub clients: usize,
    /// Server shards the run used (1 models the paper's single server).
    pub shards: usize,
    /// Requests completed across all clients.
    pub completed_requests: usize,
    /// Virtual time from first request to last completion.
    pub makespan: SimDuration,
    /// Completed requests per virtual second, in kilo-ops.
    pub throughput_kops: f64,
    /// Latency over all requests.
    pub latency: LatencySummary,
    /// Latency over search requests only.
    pub search_latency: LatencySummary,
    /// Latency over insert/delete requests only.
    pub insert_latency: LatencySummary,
    /// Mean server CPU utilization over the run, in `[0, 1]`.
    pub server_cpu: f64,
    /// Mean server NIC throughput over the run, in Gbps (both directions).
    pub server_bw_gbps: f64,
    /// Service counters merged over all clients (fast vs offloaded
    /// reads, torn retries, restarts, cache hits, ...), with every
    /// shard's server-side `fold` counters folded in (duplicate
    /// suppression, ring integrity, decode errors, mailbox deposits,
    /// replication; see [`ServiceStats::fold_server`]).
    pub stats: ServiceStats,
    /// Per-shard counters (client-side per-shard-connection counters
    /// merged over all clients, plus each shard's server-side integrity
    /// counters), in shard order: one entry per shard.
    /// Algorithm 1 runs per shard, so offload fractions must be read here
    /// — the aggregate `stats` hides a hot shard offloading behind cold
    /// shards staying fast.
    pub per_shard_stats: Vec<ServiceStats>,
    /// Periodic samples of server resource usage over the run (10 ms
    /// grid), for plotting the adaptive algorithm's dynamics.
    pub timeline: Vec<TimelinePoint>,
    /// Full end-to-end latency distribution over all requests (the
    /// summaries above are views of this histogram).
    pub hist: LatencyHistogram,
    /// Per-phase latency breakdown, in [`Phase::ALL`] order, for phases
    /// that recorded spans. Populated when
    /// [`ExperimentSpec::collect_spans`] is set; empty otherwise.
    pub phase_hists: Vec<(Phase, LatencyHistogram)>,
    /// Timeline of adaptive (Algorithm 1) decision events, the retained
    /// view of every connection recorder's `Adaptive` entries. Populated
    /// when [`ExperimentSpec::collect_spans`] is set; empty otherwise.
    pub adaptive_events: Vec<AdaptiveEventRecord>,
    /// Distributed-trace span records across every node in the run.
    /// Populated when [`ExperimentSpec::collect_spans`] is set; empty
    /// otherwise.
    pub spans: Vec<SpanRecord>,
    /// Flight-recorder anomaly dumps from every client connection, in
    /// completion order. Always collected — the recorder itself is
    /// always on — and empty on anomaly-free runs.
    pub flight_dumps: Vec<FlightDump>,
}

/// One sample of the server's resource state during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Milliseconds since the run started.
    pub t_ms: f64,
    /// Server CPU utilization over the preceding window, `[0, 1]`.
    pub cpu: f64,
    /// Server NIC throughput over the preceding window, Gbps.
    pub bw_gbps: f64,
}

impl RunResult {
    /// One formatted table row: scheme, clients, shards, throughput, mean
    /// latency, the per-transport response counts (fast write-back /
    /// mailbox-fetched / offloaded, with the dominant mode labeled), plus
    /// per-kop torn-retry and offload-restart rates. Cluster runs append
    /// the per-shard offload fractions — aggregating them would hide a
    /// hot shard offloading behind cold shards staying fast.
    pub fn row(&self) -> String {
        let per_kop = |count: u64| {
            if self.completed_requests == 0 {
                0.0
            } else {
                count as f64 * 1e3 / self.completed_requests as f64
            }
        };
        let mut row = format!(
            "{:<22} {:>4} clients  {:>2} shards  {:>10.2} Kops  mean {:>10}  p99 {:>10}  cpu {:>5.1}%  bw {:>7.2} Gbps  modes f/F/o {:>6}/{:>6}/{:>6} ({})  torn {:>6.1}/kop  restarts {:>5.1}/kop",
            self.label,
            self.clients,
            self.shards,
            self.throughput_kops,
            self.latency.mean.to_string(),
            self.latency.p99.to_string(),
            self.server_cpu * 100.0,
            self.server_bw_gbps,
            self.stats.fast_reads,
            self.stats.fetched_reads,
            self.stats.offloaded_reads,
            self.stats.dominant_transport(),
            per_kop(self.stats.torn_retries),
            per_kop(self.stats.offload_restarts),
        );
        if self.per_shard_stats.len() > 1 {
            row.push_str("  off/shard [");
            for (i, s) in self.per_shard_stats.iter().enumerate() {
                if i > 0 {
                    row.push(' ');
                }
                row.push_str(&format!("{:.2}", s.offload_fraction()));
            }
            row.push(']');
        }
        row
    }

    /// Snapshots the run into a [`MetricsRegistry`] — counters from
    /// [`ServiceStats`], resource gauges, the end-to-end latency
    /// histogram, and one histogram per traced phase — ready for
    /// Prometheus-text or JSONL exposition (`--metrics-out` in the bench
    /// binaries).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "catfish_requests_total",
            "Requests completed across all clients.",
            self.completed_requests as u64,
        );
        for (name, help, value) in self.stats.counters() {
            reg.counter(&format!("catfish_{name}_total"), help, value);
        }
        reg.gauge(
            "catfish_throughput_kops",
            "Completed requests per virtual second, kilo-ops.",
            self.throughput_kops,
        )
        .gauge(
            "catfish_server_cpu_utilization",
            "Mean server CPU utilization over the run.",
            self.server_cpu,
        )
        .gauge(
            "catfish_server_bandwidth_gbps",
            "Mean server NIC throughput over the run, Gbps.",
            self.server_bw_gbps,
        )
        .gauge(
            "catfish_shards",
            "Server shards in the run's topology.",
            self.shards as f64,
        )
        .histogram(
            "catfish_request_latency_seconds",
            "End-to-end request latency.",
            &self.hist,
        );
        for (shard, s) in self.per_shard_stats.iter().enumerate() {
            reg.gauge(
                &format!("catfish_shard_offload_fraction_{shard}"),
                &format!("Fraction of shard {shard}'s reads that offloaded."),
                s.offload_fraction(),
            );
        }
        for (phase, hist) in &self.phase_hists {
            reg.histogram(
                &format!("catfish_phase_{}_seconds", phase.name()),
                &format!("Virtual time attributed to the {} phase.", phase.name()),
                hist,
            );
        }
        reg
    }
}

/// Runs one experiment cell to completion inside a fresh simulation.
pub fn run_experiment(spec: &ExperimentSpec) -> RunResult {
    let sim = Sim::new();
    let spec = spec.clone();
    sim.run_until(async move { run_cluster(spec).await })
}

fn client_config_for(scheme: Scheme, server: &ServerConfig) -> ClientConfig {
    match scheme {
        Scheme::FastMessaging | Scheme::TcpIp => ClientConfig {
            mode: AccessMode::FastMessaging,
            multi_issue: false,
            ..ClientConfig::default()
        },
        Scheme::RdmaOffloading => ClientConfig {
            mode: AccessMode::Offloading,
            multi_issue: false,
            ..ClientConfig::default()
        },
        Scheme::Catfish => ClientConfig {
            mode: AccessMode::Adaptive(AdaptiveParams {
                heartbeat_interval: server.heartbeat_interval,
                ..AdaptiveParams::default()
            }),
            multi_issue: true,
            ..ClientConfig::default()
        },
    }
}

#[derive(Debug, Default)]
struct ClientOutcome {
    search: LatencyHistogram,
    write: LatencyHistogram,
    /// Per-shard-connection counters (empty for the TCP baseline).
    per_shard: Vec<ServiceStats>,
    /// This client's flight-recorder anomaly dumps (all connections).
    flight_dumps: Vec<FlightDump>,
}

/// One experiment cell's topology, built and waiting for clients: the
/// network, the [`ClusterServer`] of backend `B` (one shard models the
/// paper's single server) with its fault plan, heartbeats and trace sink,
/// and the client machines' NICs. [`run_experiment`] drives a workload
/// trace through an R-tree testbed; benchmarks with their own client
/// loops (the chaos gates, the SIMD ablation, the KV benches) build the
/// same topology and connect their clients with [`Testbed::connect`].
///
/// Fault targeting lives here and nowhere else: with
/// [`ExperimentSpec::fault_shard`] unset the plan attaches to every
/// replica's server NIC and every client NIC; set, it attaches to that
/// shard's primary only and every other NIC runs clean.
#[derive(Debug)]
pub struct Testbed<B: ClientBackend + ShardPartition = RtreeBackend> {
    net: Network,
    cluster: ClusterServer<B>,
    fault_plan: Option<FaultPlan>,
    trace_sink: Option<TraceSink>,
    event_log: Option<AdaptiveEventLog>,
    /// Client machines; client `i` sits on NIC `i % nics.len()`.
    nics: Vec<Endpoint>,
    poll_pools: Vec<Option<CpuPool>>,
    client_cfg: ClientConfig,
    request_timeout: Option<SimDuration>,
    max_retries: Option<u32>,
}

impl<B: ClientBackend + ShardPartition> Testbed<B> {
    /// Builds `spec`'s topology over a cluster of `B` bulk-loaded with
    /// `items` under `index_cfg`. Reads the topology fields of `spec`
    /// (profile, scheme, server, shards, replicas, client machines,
    /// faults, tracing and client overrides), never its R-tree
    /// `dataset` or `tree_config`. Call inside a running [`Sim`]: servers
    /// spawn their heartbeat publishers here (for [`Scheme::Catfish`]
    /// only) and their connection workers as clients connect.
    ///
    /// # Panics
    ///
    /// Panics on a TCP baseline with more than one shard or replica.
    pub fn build(spec: &ExperimentSpec, index_cfg: B::Config, items: Vec<B::LoadItem>) -> Self {
        assert!(
            spec.scheme != Scheme::TcpIp || (spec.shards == 1 && spec.replicas == 1),
            "the TCP baseline is single-server only; use shards = 1 and replicas = 1"
        );
        let net = Network::new();
        let rkeys = RkeyAllocator::new();
        let mut server_cfg = spec.server;
        server_cfg.mode = spec.server_mode.unwrap_or(match spec.scheme {
            // The FaRM-style baselines poll; Catfish is event-driven (§IV-B).
            Scheme::FastMessaging | Scheme::RdmaOffloading => ServerMode::Polling,
            Scheme::Catfish | Scheme::TcpIp => ServerMode::EventDriven,
        });
        let cluster = ClusterServer::build_replicated(
            &net,
            &spec.profile,
            server_cfg,
            index_cfg,
            items,
            spec.shards,
            spec.replicas,
            &rkeys,
        );
        // One shared fault plan for the whole cluster: every endpoint draws
        // from the same seeded decision stream, so runs replay byte-identically.
        let fault_plan = match spec.fault {
            Some(cfg) if cfg.is_active() => Some(FaultPlan::new(cfg, spec.seed)),
            Some(_) => None,
            None => FaultPlan::from_env(),
        };
        if let Some(plan) = &fault_plan {
            match spec.fault_shard {
                // Single-shard chaos: only the targeted shard's primary
                // draws faults; everything else runs clean.
                Some(s) => cluster
                    .shard(s)
                    .endpoint()
                    .set_fault_plan(Some(plan.clone())),
                None => {
                    for i in 0..cluster.shards() {
                        for r in 0..cluster.replicas() {
                            cluster
                                .replica(i, r)
                                .endpoint()
                                .set_fault_plan(Some(plan.clone()));
                        }
                    }
                }
            }
        }
        if spec.scheme == Scheme::Catfish {
            cluster.start_heartbeats();
        }
        // One sink shared by every server and client: the per-phase breakdown
        // aggregates the whole cluster, and every node stamps spans into one
        // id space, so cross-node parent links resolve at assembly time.
        let trace_sink = spec.collect_spans.then(TraceSink::with_spans);
        if let Some(sink) = &trace_sink {
            cluster.set_trace(sink);
        }
        let event_log = spec.collect_spans.then(AdaptiveEventLog::new);

        // Client machines share NICs.
        let node_count = spec.client_nodes.max(1).min(spec.clients.max(1));
        let nics: Vec<Endpoint> = (0..node_count)
            .map(|_| {
                let ep = Endpoint::new(&net, net.add_node(spec.profile.link), spec.profile.rdma);
                // Client NICs carry every shard's traffic, so they only draw
                // faults in whole-cluster chaos — a single-shard target must
                // leave them clean.
                if spec.fault_shard.is_none() {
                    if let Some(plan) = &fault_plan {
                        ep.set_fault_plan(Some(plan.clone()));
                    }
                }
                ep
            })
            .collect();
        let poll_pools = (0..node_count)
            .map(|_| {
                spec.client_polling_cores
                    .map(|cores| CpuPool::new(cores, server_cfg.quantum))
            })
            .collect();
        Testbed {
            net,
            cluster,
            fault_plan,
            trace_sink,
            event_log,
            nics,
            poll_pools,
            client_cfg: spec
                .client_config
                .unwrap_or_else(|| client_config_for(spec.scheme, &server_cfg)),
            request_timeout: spec.request_timeout,
            max_retries: spec.max_retries,
        }
    }

    /// The cluster under test.
    pub fn cluster(&self) -> &ClusterServer<B> {
        &self.cluster
    }

    /// The fault plan the run draws from, if any (its counters report what
    /// was injected).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The shared span sink, when [`ExperimentSpec::collect_spans`] is set.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace_sink.as_ref()
    }

    /// Connects client `client_id` (on NIC `client_id % client_nodes`)
    /// with the scheme's client configuration, or
    /// [`ExperimentSpec::client_config`] when set. Per-shard connection
    /// seeds derive from `seed`, which each caller chooses.
    pub fn connect(&self, client_id: usize, seed: u64) -> ClusterClient<B> {
        self.connect_with(client_id, self.client_cfg, seed)
    }

    /// Like [`Testbed::connect`] with an explicit client configuration.
    /// The spec's timeout and retry overrides, polling pool, trace sink,
    /// adaptive event log and flight-recorder ids apply as for every other
    /// client.
    pub fn connect_with(
        &self,
        client_id: usize,
        mut cfg: ClientConfig,
        seed: u64,
    ) -> ClusterClient<B> {
        if let Some(t) = self.request_timeout {
            cfg.request_timeout = t;
        }
        if let Some(r) = self.max_retries {
            cfg.max_retries = r;
        }
        let nic = client_id % self.nics.len();
        let client = ClusterClient::connect_from(&self.cluster, &self.nics[nic], cfg, seed);
        if let Some(pool) = &self.poll_pools[nic] {
            client.set_response_polling(pool);
        }
        if let Some(sink) = &self.trace_sink {
            client.set_trace(&sink.for_node(client_id as u32));
        }
        if let Some(log) = &self.event_log {
            client.set_adaptive_event_log(&log.for_client(client_id as u32));
        }
        client.set_flight_ids(client_id as u32);
        client
    }
}

impl Testbed {
    /// The TCP baseline's analogue of [`Testbed::connect`]: one socket
    /// from client `client_id`'s machine, over its `tcp` stack, to the
    /// single server.
    fn connect_tcp(&self, client_id: usize, tcp: TcpProfile) -> TcpConn {
        let node = self.nics[client_id % self.nics.len()].node();
        let server = self.cluster.shard(0);
        let (conn, server_side) =
            TcpEndpoint::new(&self.net, node, tcp, None).connect(&server.tcp_endpoint());
        server.accept_tcp(server_side);
        conn
    }
}

/// Builds the [`Testbed`], connects one scatter-gather client per client
/// thread — or one TCP connection for the TCP baseline — and folds every
/// counter once. Per-shard resource accounting: server CPU is the mean
/// across shards (each shard is a full machine) and NIC bandwidth the sum.
async fn run_cluster(spec: ExperimentSpec) -> RunResult {
    let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
    let net = &bed.net;
    // Primaries at build time (replica 0 of each set) — the machines the
    // timeline watches.
    let shard_servers: Vec<CatfishServer> = (0..bed.cluster.shards())
        .map(|i| bed.cluster.shard(i).clone())
        .collect();

    let started = now();
    let outcomes: Rc<RefCell<Vec<ClientOutcome>>> = Rc::new(RefCell::new(Vec::new()));
    let mut handles = Vec::with_capacity(spec.clients);
    for client_id in 0..spec.clients {
        let trace = match &spec.explicit_traces {
            Some(traces) => traces[client_id % traces.len()].clone(),
            None => spec.trace.client_trace(client_id as u64, spec.seed),
        };
        let outcomes = Rc::clone(&outcomes);
        // Spread connection setup over a few milliseconds, as independent
        // client machines would; this also de-phases the steady state.
        let stagger = SimDuration::from_nanos(17_039 * client_id as u64);
        if spec.scheme == Scheme::TcpIp {
            let conn = bed.connect_tcp(client_id, spec.profile.tcp);
            handles.push(spawn(async move {
                sleep(stagger).await;
                let outcome = tcp_client_task(conn, trace).await;
                outcomes.borrow_mut().push(outcome);
            }));
            continue;
        }
        let mut client = bed.connect(
            client_id,
            spec.seed ^ (client_id as u64).wrapping_mul(0x5851_F42D_4C95_7F2D),
        );
        handles.push(spawn(async move {
            sleep(stagger).await;
            let outcome = client_task(&mut client, trace).await;
            outcomes.borrow_mut().push(outcome);
        }));
    }

    let cpu_starts: Vec<_> = shard_servers.iter().map(|s| s.cpu().sample()).collect();
    let bw_starts: Vec<_> = shard_servers
        .iter()
        .map(|s| net.traffic(s.endpoint().node()))
        .collect();
    // Background sampler for the run timeline (10 ms grid).
    let timeline: Rc<RefCell<Vec<TimelinePoint>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let timeline = Rc::clone(&timeline);
        let servers = shard_servers.clone();
        let net = net.clone();
        spawn(async move {
            let mut prev_cpu: Vec<_> = servers.iter().map(|s| s.cpu().sample()).collect();
            let mut prev_bw: Vec<_> = servers
                .iter()
                .map(|s| net.traffic(s.endpoint().node()))
                .collect();
            loop {
                sleep(SimDuration::from_millis(10)).await;
                let mut cpu_sum = 0.0;
                let mut bw_sum = 0.0;
                for (i, s) in servers.iter().enumerate() {
                    let cpu = s.cpu().sample();
                    let bw = net.traffic(s.endpoint().node());
                    cpu_sum += s.cpu().utilization_between(&prev_cpu[i], &cpu);
                    bw_sum += bw.throughput_bps_since(&prev_bw[i]) / 1e9;
                    prev_cpu[i] = cpu;
                    prev_bw[i] = bw;
                }
                timeline.borrow_mut().push(TimelinePoint {
                    t_ms: now().duration_since(started).as_secs_f64() * 1e3,
                    cpu: cpu_sum / servers.len() as f64,
                    bw_gbps: bw_sum,
                });
            }
        });
    }
    for h in handles {
        h.await;
    }
    let mut cpu_mean = 0.0;
    let mut bw_total = 0.0;
    for (i, s) in shard_servers.iter().enumerate() {
        cpu_mean += s
            .cpu()
            .utilization_between(&cpu_starts[i], &s.cpu().sample());
        bw_total += net
            .traffic(s.endpoint().node())
            .throughput_bps_since(&bw_starts[i])
            / 1e9;
    }
    cpu_mean /= shard_servers.len() as f64;

    let makespan = now() - started;
    let outcomes = Rc::try_unwrap(outcomes)
        .expect("all client tasks joined")
        .into_inner();
    let (stats, per_shard_stats) = fold_counters(&outcomes, &bed.cluster.stats_per_shard());
    let mut all = LatencyHistogram::new();
    let mut search = LatencyHistogram::new();
    let mut write = LatencyHistogram::new();
    let mut flight_dumps = Vec::new();
    for o in outcomes {
        all.merge(&o.search);
        all.merge(&o.write);
        search.merge(&o.search);
        write.merge(&o.write);
        flight_dumps.extend(o.flight_dumps);
    }
    let completed = all.len();
    let throughput_kops = if makespan.is_zero() {
        0.0
    } else {
        completed as f64 / makespan.as_secs_f64() / 1e3
    };
    RunResult {
        label: spec.scheme.label(&spec.profile),
        clients: spec.clients,
        shards: spec.shards,
        per_shard_stats,
        completed_requests: completed,
        makespan,
        throughput_kops,
        latency: all.summary(),
        search_latency: search.summary(),
        insert_latency: write.summary(),
        server_cpu: cpu_mean,
        server_bw_gbps: bw_total,
        stats,
        timeline: timeline.take(),
        hist: all,
        phase_hists: bed
            .trace_sink
            .as_ref()
            .map(|sink| {
                Phase::ALL
                    .iter()
                    .filter_map(|&p| sink.phase_histogram(p).map(|h| (p, h)))
                    .collect()
            })
            .unwrap_or_default(),
        adaptive_events: bed.event_log.map(|log| log.snapshot()).unwrap_or_default(),
        spans: bed.trace_sink.map(|sink| sink.spans()).unwrap_or_default(),
        flight_dumps,
    }
}

/// Sums every client's per-shard counters into one row per shard, folds
/// each shard's server-side counters into its row (so a single-shard
/// fault audit can attribute them), and returns `(aggregate, rows)`.
/// `servers` holds one entry per shard, replica counters already summed.
fn fold_counters(
    outcomes: &[ClientOutcome],
    servers: &[ServiceStats],
) -> (ServiceStats, Vec<ServiceStats>) {
    let mut per_shard = vec![ServiceStats::default(); servers.len()];
    for o in outcomes {
        for (row, s) in per_shard.iter_mut().zip(&o.per_shard) {
            row.merge(s);
        }
    }
    let mut stats = ServiceStats::default();
    for (row, ss) in per_shard.iter_mut().zip(servers) {
        row.fold_server(ss);
        stats.merge(row);
    }
    (stats, per_shard)
}

async fn client_task(client: &mut CatfishClusterClient, trace: Vec<Request>) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    for req in trace {
        let t0 = now();
        match req {
            Request::Search(rect) => {
                client.search(&rect).await;
                outcome.search.record(now() - t0);
            }
            Request::Insert(rect, data) => {
                client.insert(rect, data).await;
                outcome.write.record(now() - t0);
            }
            Request::Delete(rect, data) => {
                client.delete(rect, data).await;
                outcome.write.record(now() - t0);
            }
        }
    }
    outcome.per_shard = client.stats_per_shard();
    outcome.flight_dumps = client.flight_dumps();
    outcome
}

async fn tcp_client_task(conn: TcpConn, trace: Vec<Request>) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut seq = 0u32;
    for req in trace {
        let t0 = now();
        seq += 1;
        let msg = match req {
            Request::Search(rect) => Message::SearchReq { seq, rect },
            Request::Insert(rect, data) => Message::InsertReq { seq, rect, data },
            Request::Delete(rect, data) => Message::DeleteReq { seq, rect, data },
        };
        conn.send(msg.encode()).await;
        loop {
            let bytes = conn.recv().await.expect("server stays up");
            match Message::decode(&bytes) {
                Ok(Message::ResponseEnd { seq: s, .. }) if s == seq => break,
                Ok(Message::ResponseCont { .. }) => {}
                _ => {}
            }
        }
        match req {
            Request::Search(_) => outcome.search.record(now() - t0),
            Request::Insert(..) | Request::Delete(..) => outcome.write.record(now() - t0),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CatfishCluster;
    use catfish_workload::uniform_rects;

    fn small_spec(scheme: Scheme) -> ExperimentSpec {
        ExperimentSpec {
            scheme,
            clients: 4,
            client_nodes: 2,
            dataset: uniform_rects(3_000, 1e-3, 9),
            trace: TraceSpec::search_only(ScaleDist::Fixed { bound: 0.02 }, 25),
            server: ServerConfig {
                cores: 4,
                ..ServerConfig::default()
            },
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn catfish_run_completes_all_requests() {
        let r = run_experiment(&small_spec(Scheme::Catfish));
        assert_eq!(r.completed_requests, 100);
        assert!(r.throughput_kops > 0.0);
        assert!(r.latency.mean > SimDuration::ZERO);
    }

    #[test]
    fn all_schemes_complete() {
        for scheme in [
            Scheme::TcpIp,
            Scheme::FastMessaging,
            Scheme::RdmaOffloading,
            Scheme::Catfish,
        ] {
            let r = run_experiment(&small_spec(scheme));
            assert_eq!(r.completed_requests, 100, "{}", r.label);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_experiment(&small_spec(Scheme::Catfish));
        let b = run_experiment(&small_spec(Scheme::Catfish));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.completed_requests, b.completed_requests);
    }

    #[test]
    fn offloading_uses_no_server_search_cpu() {
        let spec = small_spec(Scheme::RdmaOffloading);
        let r = run_experiment(&spec);
        assert_eq!(r.stats.fast_reads, 0);
        assert_eq!(r.stats.offloaded_reads, 100);
    }

    #[test]
    fn hybrid_workload_records_write_latency() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.trace = TraceSpec::hybrid(ScaleDist::Fixed { bound: 0.02 }, 40);
        let r = run_experiment(&spec);
        assert_eq!(r.completed_requests, 160);
        assert!(r.insert_latency.count > 0, "some inserts must occur");
        assert!(r.search_latency.count > 0);
    }

    #[test]
    fn timeline_is_sampled_on_long_runs() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.trace = TraceSpec::search_only(ScaleDist::Fixed { bound: 0.02 }, 400);
        let r = run_experiment(&spec);
        // A run spanning > 10 ms gets timeline points with sane values.
        assert!(!r.timeline.is_empty());
        assert!(r.timeline.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
        assert!(r.timeline.iter().all(|p| (0.0..=1.0).contains(&p.cpu)));
        assert!(r.timeline.iter().all(|p| p.bw_gbps >= 0.0));
    }

    #[test]
    fn churn_workload_completes_with_valid_tree() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.trace = TraceSpec::churn(ScaleDist::Fixed { bound: 0.02 }, 60, 0.2, 0.1);
        let r = run_experiment(&spec);
        assert_eq!(r.completed_requests, 240);
        assert!(r.insert_latency.count > 0);
    }

    #[test]
    fn cluster_run_completes_all_requests() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.shards = 4;
        let r = run_experiment(&spec);
        assert_eq!(r.completed_requests, 100);
        assert_eq!(r.shards, 4);
        assert_eq!(r.per_shard_stats.len(), 4);
        // Every shard saw traffic: fanout hit each of them at least once.
        let served: u64 = r
            .per_shard_stats
            .iter()
            .map(|s| s.fast_reads + s.offloaded_reads)
            .sum();
        assert!(served >= 100, "shard reads {served} < requests");
        assert!(r.row().contains("4 shards"));
        assert!(r.row().contains("off/shard ["));
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.shards = 2;
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn cluster_churn_completes_with_writes_routed() {
        let mut spec = small_spec(Scheme::Catfish);
        spec.shards = 3;
        spec.trace = TraceSpec::churn(ScaleDist::Fixed { bound: 0.02 }, 40, 0.2, 0.1);
        let r = run_experiment(&spec);
        assert_eq!(r.completed_requests, 160);
        assert!(r.insert_latency.count > 0);
        // Writes landed on home shards only; totals add up.
        let writes: u64 = r.per_shard_stats.iter().map(|s| s.writes_sent).sum();
        assert_eq!(writes, r.stats.writes_sent);
    }

    #[test]
    #[should_panic(expected = "single-server only")]
    fn tcp_cluster_is_rejected() {
        let mut spec = small_spec(Scheme::TcpIp);
        spec.shards = 2;
        run_experiment(&spec);
    }

    #[test]
    fn server_decode_errors_reach_metrics() {
        // A malformed frame on a shard's request ring is dropped and
        // counted server-side; the harness fold carries it into the run's
        // counters and from there into the exported metrics.
        let servers = Sim::new().run_until(async {
            let net = Network::new();
            let profile = catfish_rdma::profile::infiniband_100g();
            let cluster = CatfishCluster::build(
                &net,
                &profile,
                ServerConfig::default(),
                RTreeConfig::default(),
                uniform_rects(200, 1e-3, 3),
                1,
                &RkeyAllocator::new(),
            );
            let ep = Endpoint::new(&net, net.add_node(profile.link), profile.rdma);
            let ch = cluster.shard(0).accept(&ep);
            ch.tx.send(&[0xFF, 1, 2, 3], 0).await.unwrap();
            sleep(SimDuration::from_millis(1)).await;
            cluster.stats_per_shard()
        });
        let (stats, per_shard) = fold_counters(&[], &servers);
        assert_eq!(per_shard[0].decode_errors, 1);
        let mut r = run_experiment(&small_spec(Scheme::Catfish));
        assert_eq!(r.stats.decode_errors, 0);
        r.stats = stats;
        assert!(r
            .metrics()
            .to_prometheus()
            .contains("catfish_decode_errors_total 1"));
    }

    #[test]
    fn every_counter_reaches_metrics() {
        // Listing every field (no `..Default::default()`) makes a counter
        // added without this test fail to compile.
        let stats = ServiceStats {
            reads: 1001,
            writes: 1002,
            removes: 1003,
            results_returned: 1004,
            nodes_visited: 1005,
            fast_reads: 1006,
            offloaded_reads: 1007,
            writes_sent: 1008,
            removes_sent: 1009,
            torn_retries: 1010,
            meta_refreshes: 1011,
            offload_restarts: 1012,
            chunks_fetched: 1013,
            cache_hits: 1014,
            batches_sent: 1015,
            batched_msgs: 1016,
            decode_errors: 1017,
            timeouts: 1018,
            retransmits: 1019,
            dup_drops: 1020,
            checksum_failures: 1021,
            resyncs: 1022,
            stale_heartbeat_windows: 1023,
            fetched_reads: 1024,
            fetched_responses: 1025,
            fetch_fallbacks: 1026,
            mailbox_reclaims: 1027,
            flight_dumps: 1028,
            repl_forwards: 1029,
            repl_fenced: 1030,
            repl_dups: 1031,
            repl_lag_ns: 1032,
        };
        let mut r = run_experiment(&small_spec(Scheme::Catfish));
        r.stats = stats;
        let text = r.metrics().to_prometheus();
        let counters = stats.counters();
        assert_eq!(counters.len(), 32);
        for (name, _, value) in counters {
            let line = format!("catfish_{name}_total {value}");
            assert!(text.contains(&line), "missing `{line}`");
        }
    }

    #[test]
    fn tcp_utilization_point_is_sane() {
        let mut spec = small_spec(Scheme::TcpIp);
        spec.profile = catfish_rdma::profile::ethernet_1g();
        let r = run_experiment(&spec);
        assert!(r.server_cpu > 0.0 && r.server_cpu <= 1.0);
        assert!(r.server_bw_gbps > 0.0 && r.server_bw_gbps <= 1.0);
    }
}
