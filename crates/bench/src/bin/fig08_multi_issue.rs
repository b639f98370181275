//! Figure 8(b) — RDMA offloading with and without multi-issue.
//!
//! A single client offloads searches at four request scales; multi-issue
//! overlaps the round trips of sibling fetches, cutting latency most where
//! traversals touch many nodes (large scopes).
//!
//! Self-asserting: exits nonzero unless the multi-issue mean is below the
//! sequential mean at every scale, and the reduction at the largest scale
//! (1e-2) exceeds the reduction at the smallest (1e-5).

use catfish_bench::{banner, paper_tree_config, timed, BenchArgs};
use catfish_core::config::{AccessMode, ClientConfig, Scheme};
use catfish_core::harness::{run_experiment, ExperimentSpec};
use catfish_rdma::profile;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Fig. 8",
        "offloading latency: sequential vs multi-issue (1 client)",
    );
    let dataset = uniform_rects(args.size, 1e-4, args.seed);
    println!(
        "{:>10} {:>18} {:>18} {:>10}",
        "scale", "sequential", "multi-issue", "reduction"
    );
    let scales = [1e-5, 1e-4, 1e-3, 1e-2];
    let mut reductions = Vec::new();
    let mut pass = true;
    for bound in scales {
        let mut means = Vec::new();
        for multi_issue in [false, true] {
            let mut spec = ExperimentSpec {
                profile: profile::infiniband_100g(),
                scheme: Scheme::RdmaOffloading,
                client_config: Some(ClientConfig {
                    mode: AccessMode::Offloading,
                    multi_issue,
                    ..ClientConfig::default()
                }),
                clients: 1,
                client_nodes: 1,
                dataset: dataset.clone(),
                trace: TraceSpec::search_only(ScaleDist::Fixed { bound }, args.requests),
                tree_config: paper_tree_config(),
                seed: args.seed,
                ..ExperimentSpec::default()
            };
            args.apply_faults(&mut spec);
            let r = timed(&format!("scale {bound} multi={multi_issue}"), || {
                run_experiment(&spec)
            });
            means.push(r.latency.mean);
        }
        let reduction = 100.0 * (means[0].as_nanos() as f64 - means[1].as_nanos() as f64)
            / means[0].as_nanos() as f64;
        println!(
            "{:>10} {:>18} {:>18} {:>9.2}%",
            bound,
            means[0].to_string(),
            means[1].to_string(),
            reduction
        );
        if means[1] >= means[0] {
            eprintln!(
                "GATE FAILED: at scale {bound} multi-issue {} is not below sequential {}",
                means[1], means[0]
            );
            pass = false;
        }
        reductions.push(reduction);
    }
    let (small, large) = (reductions[0], reductions[scales.len() - 1]);
    println!(
        "reduction grows with scale: {small:.2}% at 1e-5 -> {large:.2}% at 1e-2 (gate: grows)"
    );
    if large <= small {
        eprintln!(
            "GATE FAILED: reduction at 1e-2 ({large:.2}%) does not exceed 1e-5 ({small:.2}%)"
        );
        pass = false;
    }
    if !pass {
        std::process::exit(1);
    }
}
