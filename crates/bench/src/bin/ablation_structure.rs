//! Ablation: structural design choices — node chunk size (fanout), the
//! client's cache of upper nodes, and ring buffer capacity. Chunk size
//! trades per-read payload against traversal depth for offloading
//! clients; the cache takes the upper levels off the wire; ring capacity
//! bounds fast-messaging pipelining.

use catfish_bench::{banner, timed, BenchArgs};
use catfish_core::config::{AccessMode, ClientConfig, Scheme, ServerConfig};
use catfish_core::harness::{run_experiment, ExperimentSpec};
use catfish_rdma::profile;
use catfish_rtree::codec::{ChunkLayout, MAX_BITMASK_ENTRIES};
use catfish_rtree::RTreeConfig;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Ablation",
        "chunk size (fanout), upper-node cache, ring capacity — 64 clients, CPU-bound scale",
    );
    let dataset = uniform_rects(args.size, 1e-4, args.seed);

    println!("\n-- node fanout / chunk size (offloading path, 64 clients) --");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "fanout", "chunk", "height", "offload Kops", "offload mean"
    );
    // The widest node the SoA hit bitmask covers (128 entries).
    for m in [16usize, 32, 88, MAX_BITMASK_ENTRIES] {
        let layout = ChunkLayout::for_max_entries(m);
        let mut spec = ExperimentSpec {
            profile: profile::infiniband_100g(),
            scheme: Scheme::RdmaOffloading,
            client_config: Some(ClientConfig {
                mode: AccessMode::Offloading,
                multi_issue: true,
                ..ClientConfig::default()
            }),
            clients: 64,
            client_nodes: 8,
            dataset: dataset.clone(),
            trace: TraceSpec::search_only(ScaleDist::small(), args.requests),
            tree_config: RTreeConfig::with_max_entries(m),
            seed: args.seed,
            ..ExperimentSpec::default()
        };
        args.apply_faults(&mut spec);
        let r = timed(&format!("fanout {m}"), || run_experiment(&spec));
        // Height from a local rebuild (cheap relative to the run).
        let height = catfish_rtree::bulk_load(
            catfish_rtree::MemStore::new(),
            RTreeConfig::with_max_entries(m),
            dataset.clone(),
        )
        .height();
        println!(
            "{:>8} {:>11}B {:>12} {:>14.1} {:>14}",
            m,
            layout.chunk_bytes(),
            height,
            r.throughput_kops,
            r.latency.mean.to_string()
        );
    }

    // The cache keeps every node at `UPPER_LEVEL` or above until a write
    // bumps the structure version; inserts that rewrite an upper node
    // empty it, so the hybrid row shows what writes cost it.
    println!("\n-- client cache of upper nodes (offloading, 64 clients) --");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>14}",
        "trace", "offload Kops", "offload mean", "hit rate", "chunks/search"
    );
    let traces = [
        (
            "search",
            TraceSpec::search_only(ScaleDist::small(), args.requests),
        ),
        (
            "hybrid",
            TraceSpec::hybrid(ScaleDist::small(), args.requests),
        ),
    ];
    for (name, trace) in traces {
        let mut spec = ExperimentSpec {
            profile: profile::infiniband_100g(),
            scheme: Scheme::RdmaOffloading,
            client_config: Some(ClientConfig {
                mode: AccessMode::Offloading,
                multi_issue: true,
                ..ClientConfig::default()
            }),
            clients: 64,
            client_nodes: 8,
            dataset: dataset.clone(),
            trace,
            tree_config: RTreeConfig::with_max_entries(88),
            seed: args.seed,
            ..ExperimentSpec::default()
        };
        args.apply_faults(&mut spec);
        let r = timed(&format!("cache, {name}"), || run_experiment(&spec));
        let s = &r.stats;
        let nodes = s.cache_hits + s.chunks_fetched;
        println!(
            "{:>8} {:>14.1} {:>14} {:>9.1}% {:>14.2}",
            name,
            r.throughput_kops,
            r.latency.mean.to_string(),
            100.0 * s.cache_hits as f64 / nodes.max(1) as f64,
            s.chunks_fetched as f64 / s.offloaded_reads.max(1) as f64,
        );
    }

    println!("\n-- ring buffer capacity (fast messaging, 64 clients) --");
    println!("{:>12} {:>14} {:>14}", "ring", "FM Kops", "FM mean");
    for kb in [16usize, 64, 256, 1024] {
        let mut spec = ExperimentSpec {
            profile: profile::infiniband_100g(),
            scheme: Scheme::FastMessaging,
            server_mode: Some(catfish_core::config::ServerMode::EventDriven),
            clients: 64,
            client_nodes: 8,
            dataset: dataset.clone(),
            trace: TraceSpec::search_only(ScaleDist::large(), args.requests),
            tree_config: RTreeConfig::with_max_entries(88),
            server: ServerConfig {
                ring_capacity: kb * 1024,
                ..ServerConfig::default()
            },
            seed: args.seed,
            ..ExperimentSpec::default()
        };
        args.apply_faults(&mut spec);
        let r = timed(&format!("ring {kb}KB"), || run_experiment(&spec));
        println!(
            "{:>10}KB {:>14.1} {:>14}",
            kb,
            r.throughput_kops,
            r.latency.mean.to_string()
        );
    }
}
