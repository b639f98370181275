//! Ablation: structural design choices — node chunk size (fanout), ring
//! buffer capacity, and the multi-issue window's interaction with chunk
//! size. Chunk size trades per-read payload against traversal depth for
//! offloading clients; ring capacity bounds fast-messaging pipelining.

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
        "chunk size (fanout), ring capacity — 64 clients, CPU-bound scale",
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

    println!("\n-- client-side level cache (offloading, 64 clients) --");
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "levels", "offload Kops", "offload mean", "cache hits"
    );
    for cache_levels in [0u32, 1, 2, 3] {
        let mut spec = ExperimentSpec {
            profile: profile::infiniband_100g(),
            scheme: Scheme::RdmaOffloading,
            client_config: Some(ClientConfig {
                mode: AccessMode::Offloading,
                multi_issue: true,
                cache_levels,
                ..ClientConfig::default()
            }),
            clients: 64,
            client_nodes: 8,
            dataset: dataset.clone(),
            trace: TraceSpec::search_only(ScaleDist::small(), args.requests),
            tree_config: RTreeConfig::with_max_entries(88),
            seed: args.seed,
            ..ExperimentSpec::default()
        };
        args.apply_faults(&mut spec);
        let r = timed(&format!("cache {cache_levels}"), || run_experiment(&spec));
        println!(
            "{:>8} {:>14.1} {:>14} {:>12}",
            cache_levels,
            r.throughput_kops,
            r.latency.mean.to_string(),
            r.stats.cache_hits,
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
