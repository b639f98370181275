//! Beyond the paper: throughput scaling of the space-partitioned cluster.
//!
//! Sweeps shard count × **clients per shard** (weak scaling: the client
//! fleet grows with the cluster, keeping per-machine demand constant)
//! under two load shapes:
//!
//! * **uniform** — query positions uniform over the unit square, so every
//!   shard carries `1/N` of the load and aggregate throughput should
//!   scale with shards (each shard is a full machine: own cores, own
//!   NIC);
//! * **hotspot** — a [`SpatialHotspot`] concentrates most query positions
//!   on the left slab, so one shard saturates while its siblings idle.
//!   Because Algorithm 1 runs *per shard*, the hot shard's clients
//!   escalate into RDMA offloading while the cold shards keep the
//!   lower-latency fast-messaging path — the per-shard adaptivity this
//!   topology exists to demonstrate.
//!
//! The binary asserts its own headline claims: ≥ 2.5× aggregate Kops at
//! 4 shards vs 1 at the highest client count under uniform load, and
//! hot-offloads-while-cold-stays-fast under the hotspot (checked from the
//! per-shard offload fractions and the shard-stamped adaptive event log).
//! A 1-shard cell is the one-shard cluster every figure binary runs, so
//! the sweep's baseline *is* the single-server figure configuration.
//!
//! Emits `BENCH_shards.json` (see EXPERIMENTS.md).

use catfish_bench::{banner, command_json, paper_tree_config, timed, BenchArgs};
use catfish_core::config::Scheme;
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult};
use catfish_core::{AdaptiveEvent, RouteChoice};
use catfish_rdma::profile;
use catfish_rtree::Rect;
use catfish_workload::{uniform_rects, ScaleDist, SpatialHotspot, TraceSpec};

/// The hot slab: the leftmost fifth of the space, which the x-partition
/// assigns to shard 0 at every swept shard count.
fn hotspot() -> SpatialHotspot {
    SpatialHotspot::new(Rect::new(0.0, 0.0, 0.2, 1.0), 0.85)
}

struct CellOut {
    hotspot: bool,
    result: RunResult,
    /// Per-shard counts of offloaded route decisions, from the adaptive
    /// event log (hotspot cells only).
    offload_routes: Vec<u64>,
}

fn run_cell(
    args: &BenchArgs,
    size: usize,
    requests: usize,
    clients_per_shard: usize,
    shards: usize,
    hot: bool,
) -> CellOut {
    let clients = clients_per_shard * shards;
    // The paper's CPU-bound scale (Fig. 10): tiny queries keep the server
    // worker pool the bottleneck — the regime where shards (machines) pay.
    let trace = TraceSpec::search_only(ScaleDist::small(), requests);
    let trace = if hot {
        trace.with_hotspot(hotspot())
    } else {
        trace
    };
    let spec = ExperimentSpec {
        profile: profile::infiniband_100g(),
        scheme: Scheme::Catfish,
        clients,
        client_nodes: (clients / 8).max(1),
        shards,
        dataset: uniform_rects(size, 1e-4, args.seed),
        trace,
        tree_config: paper_tree_config(),
        seed: args.seed,
        collect_spans: hot,
        ..ExperimentSpec::default()
    };
    let result = run_experiment(&spec);
    let mut offload_routes = vec![0u64; shards];
    for e in &result.adaptive_events {
        if let AdaptiveEvent::Route {
            route: RouteChoice::Offload,
        } = e.event
        {
            offload_routes[e.shard as usize] += 1;
        }
    }
    CellOut {
        hotspot: hot,
        result,
        offload_routes,
    }
}

/// One line per shard with its transport split (fast write-back /
/// mailbox-fetched / offloaded responses) — the per-shard view the
/// aggregated `row()` hides (a hot shard offloading is invisible in
/// cluster-wide mode totals).
fn per_shard_modes(r: &RunResult) -> String {
    let mut out = String::from("  modes/shard [");
    for (i, s) in r.per_shard_stats.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!(
            "{}:{}/{}/{}({})",
            i,
            s.fast_reads,
            s.fetched_reads,
            s.offloaded_reads,
            s.dominant_transport(),
        ));
    }
    out.push(']');
    out
}

fn json_cell(c: &CellOut) -> String {
    let r = &c.result;
    let fracs: Vec<String> = r
        .per_shard_stats
        .iter()
        .map(|s| format!("{:.4}", s.offload_fraction()))
        .collect();
    let per_shard = |f: &dyn Fn(&catfish_core::ServiceStats) -> u64| -> String {
        r.per_shard_stats
            .iter()
            .map(|s| f(s).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        concat!(
            "{{\"load\":\"{}\",\"clients_total\":{},\"shards\":{},\"kops\":{:.3},",
            "\"mean_us\":{:.3},\"p99_us\":{:.3},\"cpu\":{:.4},\"bw_gbps\":{:.3},",
            "\"offload_fraction_per_shard\":[{}],\"offload_routes_per_shard\":{:?},",
            "\"fast_reads_per_shard\":[{}],\"fetched_reads_per_shard\":[{}],",
            "\"offloaded_reads_per_shard\":[{}]}}"
        ),
        if c.hotspot { "hotspot" } else { "uniform" },
        r.clients,
        r.shards,
        r.throughput_kops,
        r.latency.mean.as_nanos() as f64 / 1e3,
        r.latency.p99.as_nanos() as f64 / 1e3,
        r.server_cpu,
        r.server_bw_gbps,
        fracs.join(","),
        c.offload_routes,
        per_shard(&|s| s.fast_reads),
        per_shard(&|s| s.fetched_reads),
        per_shard(&|s| s.offloaded_reads),
    )
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Shard scaling",
        "aggregate cluster throughput, uniform vs hotspot load",
    );
    // The sweep is 16 cells; a moderate tree keeps it minutes, not hours.
    let size = if args.paper {
        args.size
    } else {
        args.size.min(100_000)
    };
    let requests = if args.paper {
        args.requests
    } else {
        args.requests.min(200)
    };
    let shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let client_counts = args.clients.clone().unwrap_or_else(|| vec![16, 64]);
    println!(
        "dataset {size} rects, {requests} req/client, shards {shard_counts:?} x clients/shard {client_counts:?} (weak scaling), hot slab x<0.2 @ 85%"
    );

    let mut cells: Vec<CellOut> = Vec::new();
    for hot in [false, true] {
        let load = if hot { "hotspot" } else { "uniform" };
        println!("\n--- {load} load ---");
        for &cps in &client_counts {
            for &shards in &shard_counts {
                let label = format!("{load} c{cps}/shard s{shards}");
                let cell = timed(&label, || run_cell(&args, size, requests, cps, shards, hot));
                println!("{}", cell.result.row());
                if cell.result.shards > 1 {
                    println!("{}", per_shard_modes(&cell.result));
                }
                cells.push(cell);
            }
        }
    }

    let kops = |hot: bool, cps: usize, shards: usize| {
        cells
            .iter()
            .find(|c| {
                c.hotspot == hot && c.result.clients == cps * shards && c.result.shards == shards
            })
            .map(|c| c.result.throughput_kops)
    };

    // Gate 1: under uniform load at the highest per-shard client count,
    // 4 shards must deliver at least 2.5x the single server's aggregate
    // Kops — the weak-scaling headline.
    let top_clients = client_counts.iter().copied().max().unwrap();
    if let (Some(base), Some(four)) = (kops(false, top_clients, 1), kops(false, top_clients, 4)) {
        let speedup = four / base;
        println!("\nuniform speedup at 4 shards ({top_clients} clients/shard): {speedup:.2}x");
        assert!(
            speedup >= 2.5,
            "4-shard cluster only {speedup:.2}x over single server (need >= 2.5x)"
        );
    }

    // Gate 2: under the hotspot, the hot shard offloads while at least
    // one cold shard stays on the fast-messaging path — visible both in
    // the per-shard offload fractions and in the shard-stamped event log.
    if let Some(cell) = cells
        .iter()
        .filter(|c| {
            c.hotspot && c.result.clients == top_clients * c.result.shards && c.result.shards > 1
        })
        .max_by_key(|c| c.result.shards)
    {
        let fracs: Vec<f64> = cell
            .result
            .per_shard_stats
            .iter()
            .map(|s| s.offload_fraction())
            .collect();
        let hot_frac = fracs.iter().cloned().fold(0.0, f64::max);
        let cold_frac = fracs.iter().cloned().fold(1.0, f64::min);
        println!(
            "hotspot {} shards: offload fractions {:?}, offloaded routes {:?}",
            cell.result.shards,
            fracs.iter().map(|f| format!("{f:.2}")).collect::<Vec<_>>(),
            cell.offload_routes
        );
        assert!(
            hot_frac > 0.2,
            "hot shard should escalate into offloading (max fraction {hot_frac:.3})"
        );
        assert!(
            cold_frac < 0.05,
            "some cold shard should stay fast-messaging (min fraction {cold_frac:.3})"
        );
        let hot_shard = fracs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let cold_shard = fracs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            cell.offload_routes[hot_shard] > cell.offload_routes[cold_shard],
            "event log disagrees with stats: hot shard {hot_shard} logged {} offloaded routes, cold shard {cold_shard} logged {}",
            cell.offload_routes[hot_shard],
            cell.offload_routes[cold_shard]
        );
    }

    let body = format!(
        "{{\"command\":{},\"harness\":\"shard_scaling\",\"dataset\":{size},\"requests_per_client\":{requests},\"seed\":{},\"hot_region\":[0.0,0.0,0.2,1.0],\"hot_fraction\":0.85,\"cells\":[\n{}\n]}}\n",
        command_json(),
        args.seed,
        cells.iter().map(json_cell).collect::<Vec<_>>().join(",\n"),
    );
    let out = args
        .metrics_out
        .clone()
        .map(|b| format!("{b}.json"))
        .unwrap_or_else(|| "BENCH_shards.json".to_string());
    std::fs::write(&out, body).expect("write shard scaling results");
    println!("wrote {out}");
}
