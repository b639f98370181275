//! Figure 7 — polling-based vs event-based fast messaging under CPU
//! oversubscription (clients ≫ cores), on the InfiniBand profile.
//!
//! Polling workers burn a full scheduling quantum per turn whether or not
//! work arrived, so once connections outnumber cores, request latency
//! grows superlinearly; event-driven workers block on the completion
//! channel and scale linearly.
//!
//! Self-asserting: exits nonzero unless, at both scales,
//!
//! * at every client count event-driven throughput is at least polling's
//!   and its p99 at most polling's, and
//! * over the client counts above the server's cores, polling throughput
//!   at the largest count is at most [`POLL_COLLAPSE`] of that at the
//!   smallest, while event-driven keeps at least [`EVENT_HOLD`] of it.
//!   With fewer than two such counts this half is reported as not
//!   checked.

use catfish_bench::{banner, paper_tree_config, timed, BenchArgs};
use catfish_core::config::{Scheme, ServerMode};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult};
use catfish_rdma::profile;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

/// Polling's kops at the most oversubscribed count, as a share of its
/// kops at the least, must not exceed this: it collapses.
const POLL_COLLAPSE: f64 = 0.5;
/// Event-driven's kops at the most oversubscribed count, as a share of
/// its kops at the least, must reach this: it does not collapse.
const EVENT_HOLD: f64 = 0.9;

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Fig. 7",
        "polling vs event-based fast messaging: latency (a) and throughput (b)",
    );
    let dataset = uniform_rects(args.size, 1e-4, args.seed);
    let clients = args
        .clients
        .clone()
        .unwrap_or_else(|| vec![80, 160, 240, 320]);
    let cores = ExperimentSpec::default().server.cores;
    let mut pass = true;
    for (label, scale) in [
        ("scale 0.00001", ScaleDist::small()),
        ("scale 0.01", ScaleDist::large()),
    ] {
        println!("\n--- {label} ---");
        println!(
            "{:>8} {:>13} {:>13} {:>13} {:>13} {:>11} {:>11}",
            "clients",
            "poll mean",
            "event mean",
            "poll p99",
            "event p99",
            "poll Kops",
            "event Kops"
        );
        // (clients, polling, event-driven) per client count.
        let mut rows: Vec<(usize, RunResult, RunResult)> = Vec::new();
        for &n in &clients {
            let mut results = Vec::new();
            for mode in [ServerMode::Polling, ServerMode::EventDriven] {
                let mut spec = ExperimentSpec {
                    profile: profile::infiniband_100g(),
                    scheme: Scheme::FastMessaging,
                    server_mode: Some(mode),
                    // FaRM-style polling polls on BOTH sides: the client
                    // machines (28 cores each) also burn cores detecting
                    // responses. Event-driven clients block instead.
                    client_polling_cores: (mode == ServerMode::Polling).then_some(28),
                    clients: n,
                    client_nodes: 8,
                    dataset: dataset.clone(),
                    trace: TraceSpec::search_only(scale, args.requests),
                    tree_config: paper_tree_config(),
                    seed: args.seed,
                    ..ExperimentSpec::default()
                };
                args.apply_faults(&mut spec);
                results.push(timed(&format!("{label} {mode:?} n={n}"), || {
                    run_experiment(&spec)
                }));
            }
            println!(
                "{:>8} {:>13} {:>13} {:>13} {:>13} {:>11.1} {:>11.1}",
                n,
                results[0].latency.mean.to_string(),
                results[1].latency.mean.to_string(),
                results[0].latency.p99.to_string(),
                results[1].latency.p99.to_string(),
                results[0].throughput_kops,
                results[1].throughput_kops
            );
            let event = results.pop().expect("two modes ran");
            let poll = results.pop().expect("two modes ran");
            rows.push((n, poll, event));
        }
        pass &= check_scale(label, cores, &rows);
    }
    if !pass {
        std::process::exit(1);
    }
}

/// Checks one scale's rows against Fig. 7's claim, printing the verdict.
fn check_scale(label: &str, cores: usize, rows: &[(usize, RunResult, RunResult)]) -> bool {
    let mut pass = true;
    for (n, poll, event) in rows {
        if event.throughput_kops < poll.throughput_kops || event.latency.p99 > poll.latency.p99 {
            eprintln!(
                "GATE FAILED: {label}, {n} clients: event-driven {:.1} Kops / p99 {} \
                 does not match or beat polling {:.1} Kops / p99 {}",
                event.throughput_kops, event.latency.p99, poll.throughput_kops, poll.latency.p99
            );
            pass = false;
        }
    }
    let over: Vec<_> = rows.iter().filter(|(n, _, _)| *n > cores).collect();
    if over.len() < 2 {
        println!(
            "collapse not checked: fewer than two client counts above the server's {cores} cores"
        );
        return pass;
    }
    let lo = over.iter().min_by_key(|(n, _, _)| *n).expect("two counts");
    let hi = over.iter().max_by_key(|(n, _, _)| *n).expect("two counts");
    let poll_ratio = hi.1.throughput_kops / lo.1.throughput_kops;
    let event_ratio = hi.2.throughput_kops / lo.2.throughput_kops;
    println!(
        "{} -> {} clients: polling {:.2}x (gate <= {POLL_COLLAPSE}x), \
         event-driven {:.2}x (gate >= {EVENT_HOLD}x)",
        lo.0, hi.0, poll_ratio, event_ratio
    );
    if poll_ratio > POLL_COLLAPSE {
        eprintln!(
            "GATE FAILED: {label}: polling keeps {poll_ratio:.2}x of its throughput from {} to {} clients",
            lo.0, hi.0
        );
        pass = false;
    }
    if event_ratio < EVENT_HOLD {
        eprintln!(
            "GATE FAILED: {label}: event-driven keeps only {event_ratio:.2}x of its throughput from {} to {} clients",
            lo.0, hi.0
        );
        pass = false;
    }
    pass
}
