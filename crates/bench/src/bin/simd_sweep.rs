//! SIMD / fast-path ablation gate (`BENCH_simd.json`).
//!
//! Two before/after measurements, each with a hard gate:
//!
//! 1. **Node-visit microbench** (wall clock): one full fanout-88 node
//!    visit through the legacy array-of-structs path (owned
//!    `decode_node`, scalar per-entry `Rect::intersects`) versus the
//!    struct-of-arrays path (`decode_lanes_into` into pooled scratch,
//!    branchless `window_hits` bitmask) — the code the chunk store now
//!    runs on every server-side search. Gate: **> 2x** speedup.
//! 2. **End-to-end throughput at 64 clients** (simulated): the R-tree
//!    service with polling workers versus adaptive spin → yield → block
//!    workers; both post one doorbell per response batch. Gate: the
//!    optimized configuration must gain throughput.
//!
//! A failed gate prints the offending numbers and exits nonzero, so CI
//! can hold the line. Results go to stdout and `BENCH_simd.json`.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use catfish_bench::{banner, paper_tree_config, timed, BenchArgs};
use catfish_core::config::{AccessMode, ClientConfig, Scheme, ServerMode};
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::LatencyHistogram;
use catfish_rdma::FaultConfig;
use catfish_rtree::codec::{ChunkLayout, LaneNode};
use catfish_rtree::{Entry, Node, Rect};
use catfish_simnet::{now, sleep, spawn, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum node-visit speedup (SoA bitmask over AoS scalar) to pass.
const NODE_VISIT_GATE: f64 = 2.0;
/// Searches issued per `read_batch` window.
const WINDOW: usize = 8;
/// End-to-end concurrency for the before/after comparison.
const E2E_CLIENTS: usize = 64;

struct VisitBench {
    aos_ns: f64,
    soa_ns: f64,
    speedup: f64,
}

struct E2eCell {
    label: &'static str,
    mode: ServerMode,
    kops: f64,
    mean_ns: u64,
    p99_ns: u64,
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "SIMD sweep",
        "SoA node layout, adaptive spin: before/after gates",
    );

    // --- Gate 1: node-visit microbench -----------------------------------
    let visit = node_visit_bench();
    println!(
        "node visit (fanout 88): AoS scalar {:.0} ns, SoA bitmask {:.0} ns  => {:.2}x (gate > {:.1}x)",
        visit.aos_ns, visit.soa_ns, visit.speedup, NODE_VISIT_GATE
    );
    let visit_pass = visit.speedup > NODE_VISIT_GATE;

    // --- Gate 2: end-to-end at 64 clients --------------------------------
    let rects = (args.size / 20).max(20_000);
    let requests = (args.requests / 5).max(100);
    println!(
        "\ne2e: {rects} rects, {E2E_CLIENTS} clients x {requests} searches, windows of {WINDOW}"
    );
    let baseline = timed("e2e baseline", || {
        run_e2e("baseline", ServerMode::Polling, rects, requests, args.seed)
    });
    let optimized = timed("e2e optimized", || {
        run_e2e(
            "optimized",
            ServerMode::AdaptiveSpin,
            rects,
            requests,
            args.seed,
        )
    });
    let gain_pct = (optimized.kops / baseline.kops - 1.0) * 100.0;
    for c in [&baseline, &optimized] {
        println!(
            "  {:<10} {:?} {:>10.1} Kops  mean {:>9.2}us  p99 {:>9.2}us",
            c.label,
            c.mode,
            c.kops,
            c.mean_ns as f64 / 1e3,
            c.p99_ns as f64 / 1e3,
        );
    }
    println!("  throughput gain at {E2E_CLIENTS} clients: {gain_pct:+.1}% (gate > 0)");
    let e2e_pass = optimized.kops > baseline.kops;

    let pass = visit_pass && e2e_pass;
    let json = render_json(
        &visit, visit_pass, &baseline, &optimized, gain_pct, e2e_pass,
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("\nwrote BENCH_simd.json (pass: {pass})");
    if !visit_pass {
        eprintln!(
            "GATE FAILED: node-visit speedup {:.2}x <= {NODE_VISIT_GATE:.1}x",
            visit.speedup
        );
    }
    if !e2e_pass {
        eprintln!(
            "GATE FAILED: optimized e2e {:.1} Kops <= baseline {:.1} Kops",
            optimized.kops, baseline.kops
        );
    }
    if !pass {
        std::process::exit(1);
    }
}

/// A full fanout-88 leaf whose entries scatter over the unit square.
fn full_leaf(max_entries: usize) -> Node {
    let mut n = Node::new(0);
    for i in 0..max_entries as u64 {
        let x = (i as f64 * 0.0137) % 0.9;
        n.entries
            .push(Entry::data(Rect::new(x, x, x + 0.01, x + 0.01), i));
    }
    n
}

/// Wall-clock before/after of one node visit: decode + window test over
/// every entry, the inner loop of every server-side search.
fn node_visit_bench() -> VisitBench {
    const ITERS: u32 = 200_000;
    let layout = ChunkLayout::for_max_entries(88);
    let chunk = layout.encode_node(&full_leaf(88), 7);
    let query = Rect::new(0.1, 0.1, 0.2, 0.2);

    let aos = |chunk: &[u8]| {
        let (node, _) = layout.decode_node(chunk).expect("valid chunk");
        node.entries
            .iter()
            .filter(|e| e.mbr.intersects(&query))
            .count()
    };
    let mut lanes = LaneNode::new();
    let mut soa = |chunk: &[u8]| {
        layout
            .decode_lanes_into(chunk, &mut lanes)
            .expect("valid chunk");
        lanes.window_hits(&query).count_ones() as usize
    };

    // Warm up both paths (allocator, caches, lane scratch growth).
    for _ in 0..1_000 {
        black_box(aos(black_box(&chunk)));
        black_box(soa(black_box(&chunk)));
    }
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(aos(black_box(&chunk)));
    }
    let aos_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
    let t = Instant::now();
    for _ in 0..ITERS {
        black_box(soa(black_box(&chunk)));
    }
    let soa_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
    VisitBench {
        aos_ns,
        soa_ns,
        speedup: aos_ns / soa_ns,
    }
}

/// One end-to-end measurement: 64 closed-loop fast-messaging clients on
/// eight client machines, searching a paper-config R-tree on one server
/// in the given mode.
// Each client task owns its shard connection, so the borrow held across
// `read_batch` is never contended.
#[allow(clippy::await_holding_refcell_ref)]
fn run_e2e(
    label: &'static str,
    mode: ServerMode,
    rects: usize,
    requests: usize,
    seed: u64,
) -> E2eCell {
    let spec = ExperimentSpec {
        scheme: Scheme::FastMessaging,
        clients: E2E_CLIENTS,
        client_nodes: 8,
        dataset: catfish_workload::uniform_rects(rects, 1e-4, seed),
        server_mode: Some(mode),
        tree_config: paper_tree_config(),
        seed,
        client_config: Some(ClientConfig {
            mode: AccessMode::FastMessaging,
            ..ClientConfig::default()
        }),
        fault: Some(FaultConfig::off()),
        ..ExperimentSpec::default()
    };
    Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let hist = Rc::new(RefCell::new(LatencyHistogram::new()));
        let started = now();
        let mut handles = Vec::new();
        for c in 0..E2E_CLIENTS {
            // One shard: the batch goes straight to its connection.
            let conn = bed
                .connect(c, seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .shard_client(0);
            let hist = Rc::clone(&hist);
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
                let mut rec = LatencyHistogram::new();
                let mut issued = 0usize;
                while issued < requests {
                    let window = WINDOW.min(requests - issued);
                    let queries: Vec<Rect> = (0..window)
                        .map(|_| {
                            let x = rng.gen::<f64>() * 0.98;
                            let y = rng.gen::<f64>() * 0.98;
                            Rect::new(x, y, x + 0.01, y + 0.01)
                        })
                        .collect();
                    let t0 = now();
                    let results = conn.borrow_mut().read_batch(&queries).await;
                    debug_assert_eq!(results.len(), queries.len());
                    let per_op = (now() - t0) / window as u64;
                    for _ in 0..window {
                        rec.record(per_op);
                    }
                    issued += window;
                }
                hist.borrow_mut().merge(&rec);
            }));
        }
        for h in handles {
            h.await;
        }
        let makespan = now() - started;
        let summary = hist.borrow().summary();
        E2eCell {
            label,
            mode,
            kops: summary.count as f64 / makespan.as_secs_f64() / 1e3,
            mean_ns: summary.mean.as_nanos(),
            p99_ns: summary.p99.as_nanos(),
        }
    })
}

fn render_json(
    visit: &VisitBench,
    visit_pass: bool,
    baseline: &E2eCell,
    optimized: &E2eCell,
    gain_pct: f64,
    e2e_pass: bool,
) -> String {
    let cell = |c: &E2eCell| {
        format!(
            "{{\"label\": \"{}\", \"server_mode\": \"{:?}\", \"kops\": {:.2}, \
             \"mean_ns\": {}, \"p99_ns\": {}}}",
            c.label, c.mode, c.kops, c.mean_ns, c.p99_ns
        )
    };
    format!(
        "{{\n  \"bench\": \"simd_sweep\",\n  \"node_visit\": {{\"fanout\": 88, \
         \"aos_ns\": {:.1}, \"soa_ns\": {:.1}, \"speedup\": {:.3}, \
         \"gate_min_speedup\": {NODE_VISIT_GATE}, \"pass\": {}}},\n  \
         \"e2e\": {{\"clients\": {E2E_CLIENTS}, \"baseline\": {}, \"optimized\": {}, \
         \"kops_gain_pct\": {:.2}, \"pass\": {}}},\n  \"pass\": {}\n}}\n",
        visit.aos_ns,
        visit.soa_ns,
        visit.speedup,
        visit_pass,
        cell(baseline),
        cell(optimized),
        gain_pct,
        e2e_pass,
        visit_pass && e2e_pass,
    )
}
