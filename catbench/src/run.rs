//! One repetition of a workload: generate its inputs, build the cluster,
//! connect the clients (the timed set-up), then drive every closed-loop
//! client through its trace until the workload's virtual deadline (the
//! timed request phase).

use std::rc::Rc;
use std::time::Instant;

use catfish_core::obs::{AdaptiveEventLog, AdaptiveEventRecord, TraceSink};
use catfish_core::{CatfishCluster, CatfishClusterClient, CatfishServer, ServiceStats};
use catfish_rdma::Endpoint;
use catfish_rtree::Rect;
use catfish_simnet::{now, sleep, sleep_until, spawn, Network, Sim, SimDuration, SimTime};
use catfish_workload::Request;

use crate::check::fingerprint;
use crate::workload::{tree_config, Inputs, Workload};

/// What one operation observed: when it started, its exact virtual
/// latency, and a fingerprint of its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Virtual start, ns after the request phase began.
    pub start_ns: u64,
    pub latency_ns: u64,
    /// Result ids returned (searches).
    pub count: u32,
    /// XOR of the mixed result ids (searches).
    pub xor: u64,
    /// The server acknowledged the write (always true for searches).
    pub ok: bool,
}

/// Phase histograms and Algorithm 1 events of a traced repetition.
#[derive(Debug)]
pub struct TraceData {
    pub sink: TraceSink,
    pub events: Vec<AdaptiveEventRecord>,
}

/// The outcome of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds for input generation, cluster build and bulk load, and
    /// connection set-up.
    pub setup_s: f64,
    /// Host seconds of the request phase.
    pub request_s: f64,
    /// Per client, one record per request it ran, in trace order.
    pub ops: Vec<Vec<OpRecord>>,
    /// The measurement window, ns after the request phase began: warm-up
    /// end and deadline.
    pub window_ns: (u64, u64),
    /// Mean CPU utilization of the shard primaries over the window.
    pub server_cpu: f64,
    /// Payload bytes through every server NIC over the window.
    pub server_bytes: u64,
    /// Client counters summed over every client and connection.
    pub client_stats: ServiceStats,
    /// Server counters summed over every replica.
    pub server_stats: ServiceStats,
    /// Acknowledged inserts some member of their home replica set lacks.
    pub missing_inserts: u64,
    pub trace: Option<TraceData>,
}

impl Rep {
    /// Operations run, warm-up included.
    pub fn completed(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    pub fn host_us_per_op(&self) -> f64 {
        self.request_s * 1e6 / self.completed() as f64
    }

    /// Operations that completed inside the window.
    pub fn window_ops(&self) -> usize {
        let (from, to) = self.window_ns;
        let done = |o: &&OpRecord| (from..=to).contains(&(o.start_ns + o.latency_ns));
        self.ops.iter().flatten().filter(done).count()
    }

    /// Operations that completed inside the window, per virtual second,
    /// in kops.
    pub fn vkops(&self) -> f64 {
        let (from, to) = self.window_ns;
        self.window_ops() as f64 / ((to - from) as f64 * 1e-9) / 1e3
    }

    /// Whether an operation started inside the window (after warm-up).
    pub fn measured(&self, op: &OpRecord) -> bool {
        op.start_ns >= self.window_ns.0
    }

    /// True when both repetitions observed the same virtual-time run:
    /// every start, latency and result.
    pub fn same_virtual_run(&self, other: &Rep) -> bool {
        self.ops == other.ops
    }
}

/// A built cluster with its clients connected, ready for the request
/// phase.
struct Testbed {
    net: Network,
    cluster: CatfishCluster,
    /// Every replica of every shard.
    members: Vec<CatfishServer>,
    clients: Vec<CatfishClusterClient>,
    sink: TraceSink,
    event_log: AdaptiveEventLog,
}

impl Testbed {
    /// Builds and bulk-loads the cluster and connects every client. With
    /// `traced`, every server and client records into one [`TraceSink`]
    /// and every client into one [`AdaptiveEventLog`]; neither touches
    /// the wire, so the virtual run is unchanged. (A `SpanLog` would: it
    /// wraps every request in a 17-byte trace envelope.)
    fn build(w: &Workload, seed: u64, traced: bool, dataset: Vec<(Rect, u64)>) -> Testbed {
        let profile = catfish_rdma::profile::infiniband_100g();
        let net = Network::new();
        let rkeys = catfish_core::RkeyAllocator::new();
        let cluster = if w.replicas > 1 {
            CatfishCluster::build_replicated(
                &net,
                &profile,
                w.server,
                tree_config(),
                dataset,
                w.shards,
                w.replicas,
                &rkeys,
            )
        } else {
            CatfishCluster::build(
                &net,
                &profile,
                w.server,
                tree_config(),
                dataset,
                w.shards,
                &rkeys,
            )
        };
        let members: Vec<CatfishServer> = (0..cluster.shards())
            .flat_map(|s| (0..cluster.replicas()).map(move |r| (s, r)))
            .map(|(s, r)| cluster.replica(s, r).clone())
            .collect();
        cluster.start_heartbeats();

        let (sink, event_log) = (TraceSink::new(), AdaptiveEventLog::new());
        if traced {
            // Servers wire their sink into connections at accept time, so
            // it must be in place before any client connects.
            for m in &members {
                m.set_trace(sink.clone());
            }
        }
        let eps: Vec<Endpoint> = (0..w.client_nodes)
            .map(|_| Endpoint::new(&net, net.add_node(profile.link), profile.rdma))
            .collect();
        let clients = (0..w.clients)
            .map(|c| {
                let client = CatfishClusterClient::connect_from(
                    &cluster,
                    &eps[c % eps.len()],
                    w.client,
                    Workload::client_seed(seed, c),
                );
                if traced {
                    client.set_trace(&sink);
                    client.set_adaptive_event_log(&event_log.for_client(c as u32));
                }
                client
            })
            .collect();
        Testbed {
            net,
            cluster,
            members,
            clients,
            sink,
            event_log,
        }
    }
}

/// Host seconds of one set-up alone: input generation, cluster build and
/// bulk load, and connection set-up.
pub fn setup_s(w: &Workload, seed: u64, window: SimDuration) -> f64 {
    let start = Instant::now();
    let inputs = Inputs::generate(w, seed, window);
    let w = *w;
    Sim::new().run_until(async move {
        let _bed = Testbed::build(&w, seed, false, inputs.dataset);
        start.elapsed().as_secs_f64()
    })
}

/// Runs one repetition measuring `window`, traced or not.
pub fn run_rep(w: &Workload, seed: u64, window: SimDuration, traced: bool) -> Rep {
    let start = Instant::now();
    let Inputs { dataset, traces } = Inputs::generate(w, seed, window);
    let w = *w;
    Sim::new().run_until(async move {
        let bed = Testbed::build(&w, seed, traced, dataset);
        let setup_s = start.elapsed().as_secs_f64();
        requests(&w, window, traced, bed, traces, setup_s).await
    })
}

async fn requests(
    w: &Workload,
    window: SimDuration,
    traced: bool,
    bed: Testbed,
    traces: Vec<Vec<Request>>,
    setup_s: f64,
) -> Rep {
    let Testbed {
        net,
        cluster,
        members,
        clients,
        sink,
        event_log,
    } = bed;
    let started = now();
    let (warm, deadline) = (started + w.warmup, started + w.warmup + window);
    let window_ns = (w.warmup.as_nanos(), (w.warmup + window).as_nanos());
    // Server CPU and NIC bytes over exactly the measurement window.
    let sampler = {
        let primaries: Vec<_> = (0..cluster.shards())
            .map(|s| cluster.shard(s).clone())
            .collect();
        let members = members.clone();
        let net = net.clone();
        spawn(async move {
            let bytes = |net: &Network| -> u64 {
                members
                    .iter()
                    .map(|m| net.traffic(m.endpoint().node()).total())
                    .sum()
            };
            sleep_until(warm).await;
            let cpu0: Vec<_> = primaries.iter().map(|s| s.cpu().sample()).collect();
            let bytes0 = bytes(&net);
            sleep_until(deadline).await;
            let cpu = primaries
                .iter()
                .zip(&cpu0)
                .map(|(s, c0)| s.cpu().utilization_between(c0, &s.cpu().sample()))
                .sum::<f64>()
                / primaries.len() as f64;
            (cpu, bytes(&net) - bytes0)
        })
    };
    let traces = Rc::new(traces);
    let wall = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            let traces = Rc::clone(&traces);
            // De-phase connection start-up as independent machines would
            // (the figure harness's stagger).
            let stagger = SimDuration::from_nanos(17_039 * c as u64);
            spawn(async move {
                sleep(stagger).await;
                let ops = client_loop(&mut client, &traces[c], started, deadline).await;
                (ops, client.stats())
            })
        })
        .collect();
    let mut client_stats = ServiceStats::default();
    let mut ops = Vec::with_capacity(handles.len());
    for h in handles {
        let (o, st) = h.await;
        client_stats.merge(&st);
        ops.push(o);
    }
    let request_s = wall.elapsed().as_secs_f64();
    let (server_cpu, server_bytes) = sampler.await;

    // Every acknowledged insert must be on every member of its home set.
    let mut missing_inserts = 0;
    for (trace, recs) in traces.iter().zip(&ops) {
        for (req, rec) in trace.iter().zip(recs) {
            if let (Request::Insert(rect, id), true) = (req, rec.ok) {
                let home = cluster.shard_map().home_shard(rect);
                for r in 0..cluster.replicas() {
                    let found = cluster
                        .replica(home, r)
                        .with_index(|t| t.search(rect).contains(id));
                    missing_inserts += u64::from(!found);
                }
            }
        }
    }

    Rep {
        setup_s,
        request_s,
        ops,
        window_ns,
        server_cpu,
        server_bytes,
        client_stats,
        server_stats: cluster.stats(),
        missing_inserts,
        trace: traced.then(|| TraceData {
            sink,
            events: event_log.snapshot(),
        }),
    }
}

/// One closed-loop client: each request is sent only after the previous
/// reply arrived, until `deadline`.
async fn client_loop(
    client: &mut CatfishClusterClient,
    trace: &[Request],
    started: SimTime,
    deadline: SimTime,
) -> Vec<OpRecord> {
    let mut out = Vec::with_capacity(trace.len());
    for req in trace {
        let t0 = now();
        if t0 >= deadline {
            return out;
        }
        let (count, xor, ok) = match *req {
            Request::Search(rect) => {
                let (count, xor) = fingerprint(&client.search(&rect).await);
                (count, xor, true)
            }
            Request::Insert(rect, id) => (0, 0, client.insert(rect, id).await),
            Request::Delete(rect, id) => (0, 0, client.delete(rect, id).await),
        };
        out.push(OpRecord {
            start_ns: (t0 - started).as_nanos(),
            latency_ns: (now() - t0).as_nanos(),
            count,
            xor,
            ok,
        });
    }
    panic!("a client ran out of requests before the deadline; lengthen the workload's traces");
}
