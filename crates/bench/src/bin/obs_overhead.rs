//! Observability overhead check: runs the same experiment with span
//! tracing (`collect_spans`) off and then on, asserting the simulated
//! result rows are identical (spans record virtual time without advancing
//! it, and nothing about them rides the wire — server spans link by the
//! `(ring rkey, seq)` every request already carries — so tracing must
//! never perturb what is being measured) and reporting the wall-clock
//! cost of recording.
//!
//! A transport matrix repeats the off/on comparison across every response
//! transport — fast-messaging write-back under both event-driven and
//! polling servers (the polling row serves on a core its worker already
//! holds), mailbox fetching, and offloaded reads — also requiring every
//! traced run's spans to assemble into connected trees.
//!
//! Also prints the per-phase latency breakdown from a single-client run
//! and checks that the request-path phases (ring enqueue, server queue,
//! dispatch, index execution, response transit) sum to within 5% of the
//! end-to-end p50 — the phases partition the request path rather than
//! merely sampling it.

use catfish_bench::{banner, paper_tree_config, write_metrics, BenchArgs};
use catfish_core::config::{AccessMode, ClientConfig, Scheme, ServerMode};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult};
use catfish_core::{Phase, TraceAssembler};
use catfish_rdma::profile;
use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};
use std::time::Instant;

/// Max tolerated gap between the phase-sum and the end-to-end p50.
const SUM_DELTA_PCT: f64 = 5.0;

fn spec(args: &BenchArgs, scheme: Scheme, clients: usize, spans: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        profile: profile::infiniband_100g(),
        scheme,
        clients,
        client_nodes: 8.min(clients),
        dataset: uniform_rects(args.size, 1e-4, args.seed),
        trace: TraceSpec::search_only(ScaleDist::small(), args.requests),
        tree_config: paper_tree_config(),
        seed: args.seed,
        collect_spans: spans,
        ..ExperimentSpec::default()
    };
    args.apply_faults(&mut spec);
    spec
}

/// The transport matrix: every way a response can travel, each compared
/// trace-off vs trace-on.
fn matrix_cells(args: &BenchArgs, clients: usize) -> Vec<(&'static str, ExperimentSpec)> {
    let mut cells = Vec::new();
    for (label, mode, server_mode) in [
        (
            "write-back/event",
            AccessMode::FastMessaging,
            ServerMode::EventDriven,
        ),
        (
            "write-back/polling",
            AccessMode::FastMessaging,
            ServerMode::Polling,
        ),
        ("fetch/event", AccessMode::Fetching, ServerMode::EventDriven),
        (
            "offload/event",
            AccessMode::Offloading,
            ServerMode::EventDriven,
        ),
    ] {
        let mut s = spec(args, Scheme::Catfish, clients, false);
        s.client_config = Some(ClientConfig {
            mode,
            multi_issue: matches!(mode, AccessMode::Offloading),
            ..ClientConfig::default()
        });
        s.server_mode = Some(server_mode);
        cells.push((label, s));
    }
    cells
}

fn timed_run(s: &ExperimentSpec) -> (RunResult, f64) {
    let start = Instant::now();
    let r = run_experiment(s);
    (r, start.elapsed().as_secs_f64())
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Observability overhead",
        "span recording cost and per-phase breakdown consistency",
    );

    // --- overhead: identical spec, spans off vs on -----------------------
    let clients = 32;
    let (base, wall_base) = timed_run(&spec(&args, Scheme::Catfish, clients, false));
    let (traced, wall_traced) = timed_run(&spec(&args, Scheme::Catfish, clients, true));
    println!("untraced: {}   [wall {:.2}s]", base.row(), wall_base);
    println!("traced:   {}   [wall {:.2}s]", traced.row(), wall_traced);
    println!(
        "wall-clock delta {:+.1}%",
        (wall_traced / wall_base - 1.0) * 100.0
    );
    if traced.row() != base.row() {
        eprintln!("FAIL: tracing changed the simulated result row");
        std::process::exit(1);
    }

    // --- transport matrix: span tracing off vs on, rows must match -------
    println!("\ntransport matrix (span tracing off vs on, rows must be identical):");
    for (label, base_spec) in matrix_cells(&args, clients) {
        let mut traced_spec = base_spec.clone();
        traced_spec.collect_spans = true;
        let (off, wall_off) = timed_run(&base_spec);
        let (on, wall_on) = timed_run(&traced_spec);
        let asm = TraceAssembler::assemble(&on.spans);
        println!(
            "  {label:<26} {:>9.2} Kops  rows {}  wall {:+.0}%  ({} spans, {} traces, {})",
            on.throughput_kops,
            if on.row() == off.row() {
                "identical"
            } else {
                "DIFFER"
            },
            (wall_on / wall_off.max(1e-9) - 1.0) * 100.0,
            on.spans.len(),
            asm.len(),
            if asm.all_connected() {
                "connected"
            } else {
                "DISCONNECTED"
            },
        );
        if on.row() != off.row() {
            eprintln!("FAIL: {label}: tracing changed the simulated result row");
            std::process::exit(1);
        }
        if on.spans.is_empty() {
            eprintln!("FAIL: {label}: no spans recorded with tracing on");
            std::process::exit(1);
        }
        if !asm.all_connected() {
            eprintln!("FAIL: {label}: assembled traces are not all connected");
            std::process::exit(1);
        }
    }

    // --- breakdown: one client, fast messaging only ----------------------
    // With a single closed-loop client there is no queueing overlap, so
    // the request-path phases partition the end-to-end latency.
    let (solo, _) = timed_run(&spec(&args, Scheme::FastMessaging, 1, true));
    if solo.phase_hists.is_empty() {
        eprintln!("FAIL: no phase spans recorded with collect_spans on");
        std::process::exit(1);
    }
    println!("\nper-phase breakdown (1 client, fast messaging):");
    for (phase, hist) in &solo.phase_hists {
        println!("  {:>13}: {}", phase.name(), hist.summary());
    }
    let path_phases = [
        Phase::RingEnqueue,
        Phase::ServerQueue,
        Phase::Dispatch,
        Phase::IndexExec,
        Phase::RespTransit,
    ];
    let sum_ns: u64 = solo
        .phase_hists
        .iter()
        .filter(|(p, _)| path_phases.contains(p))
        .map(|(_, h)| h.summary().p50.as_nanos())
        .sum();
    let e2e_ns = solo.hist.summary().p50.as_nanos();
    let gap = (sum_ns as f64 / e2e_ns as f64 - 1.0) * 100.0;
    println!(
        "phase-sum p50 {:.2}us vs end-to-end p50 {:.2}us: gap {gap:+.2}% (limit ±{SUM_DELTA_PCT}%)",
        sum_ns as f64 / 1e3,
        e2e_ns as f64 / 1e3
    );
    if gap.abs() > SUM_DELTA_PCT {
        eprintln!("FAIL: phase breakdown does not account for the end-to-end p50");
        std::process::exit(1);
    }

    write_metrics(&args, &traced.metrics());
    println!("\nOK");
}
