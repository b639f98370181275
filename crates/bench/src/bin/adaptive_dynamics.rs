//! Beyond the paper: the adaptive algorithm's *dynamics* — server CPU
//! utilization and NIC bandwidth over time, sampled on a 10 ms grid while
//! a Catfish run converges. Prints an ASCII time series showing the
//! back-off bands escalating until both resources are productive, and the
//! oscillation the paper's §V-B discussion attributes to the heuristic.

use catfish_bench::{banner, paper_tree_config, write_metrics, BenchArgs};
use catfish_core::config::Scheme;
use catfish_core::harness::{run_experiment, ExperimentSpec};
use catfish_core::AdaptiveEvent;
use catfish_rdma::profile;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Adaptive dynamics",
        "server CPU% and bandwidth over time while Algorithm 1 converges",
    );
    let shards = args.shards.as_ref().map_or(1, |v| v[0]);
    let mut spec = ExperimentSpec {
        profile: profile::infiniband_100g(),
        scheme: Scheme::Catfish,
        clients: 128,
        client_nodes: 8,
        shards,
        dataset: uniform_rects(args.size, 1e-4, args.seed),
        trace: TraceSpec::search_only(ScaleDist::small(), args.requests.max(1_500)),
        tree_config: paper_tree_config(),
        seed: args.seed,
        collect_spans: true,
        ..ExperimentSpec::default()
    };
    args.apply_faults(&mut spec);
    let r = run_experiment(&spec);
    println!(
        "run: {} over {} ({} fast / {} offloaded)\n",
        r.row(),
        r.makespan,
        r.stats.fast_reads,
        r.stats.offloaded_reads
    );
    println!(
        "{:>8} {:>7} {:>9}  cpu [#] vs bandwidth [=] (each col = 2.5%/2.5Gbps)",
        "t (ms)", "cpu %", "bw Gbps"
    );
    for p in r.timeline.iter().step_by(2) {
        let cpu_bar = "#".repeat((p.cpu * 40.0).round() as usize);
        let bw_bar = "=".repeat((p.bw_gbps / 2.5).round() as usize);
        println!(
            "{:>8.0} {:>6.1}% {:>9.2}  {cpu_bar}",
            p.t_ms,
            p.cpu * 100.0,
            p.bw_gbps
        );
        println!("{:>27}{bw_bar}", "");
    }
    let escalations = r
        .adaptive_events
        .iter()
        .filter(|e| matches!(e.event, AdaptiveEvent::BandEscalated { .. }))
        .count();
    let resets = r
        .adaptive_events
        .iter()
        .filter(|e| matches!(e.event, AdaptiveEvent::BusyReset))
        .count();
    println!(
        "\nadaptive events: {} total ({} band escalations, {} busy resets)",
        r.adaptive_events.len(),
        escalations,
        resets
    );
    if shards > 1 {
        let mut per_shard = vec![0usize; shards];
        for e in &r.adaptive_events {
            per_shard[e.shard as usize] += 1;
        }
        println!("per-shard event counts: {per_shard:?}");
    }
    if let Some(base) = &args.metrics_out {
        let path = format!("{base}.events.jsonl");
        let mut jsonl = String::new();
        for e in &r.adaptive_events {
            jsonl.push_str(&e.to_json());
            jsonl.push('\n');
        }
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("[metrics] wrote {path}"),
            Err(e) => eprintln!("[metrics] write failed for {path}: {e}"),
        }
        write_metrics(&args, &r.metrics());
    }
    println!("\nThe CPU line pins near the T=95% threshold while bandwidth climbs as");
    println!("clients escalate their offloading bands — the balance the paper's");
    println!("heuristic targets, including its characteristic oscillation.");
}
