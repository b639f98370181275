//! SIMD / fast-path ablation gate (`BENCH_simd.json`).
//!
//! A wall-clock before/after of one full fanout-88 node visit through the
//! legacy array-of-structs path (owned `decode_node`, scalar per-entry
//! `Rect::intersects`) versus the struct-of-arrays path
//! (`decode_lanes_into` into pooled scratch, branchless `window_hits`
//! bitmask) — the code the chunk store now runs on every server-side
//! search. Gate: **> 2x** speedup.
//!
//! A failed gate prints the offending numbers and exits nonzero, so CI
//! can hold the line. Results go to stdout and `BENCH_simd.json`.

use std::hint::black_box;
use std::time::Instant;

use catfish_bench::{banner, command_json};
use catfish_rtree::codec::{ChunkLayout, LaneNode};
use catfish_rtree::{Entry, Node, Rect};

/// Minimum node-visit speedup (SoA bitmask over AoS scalar) to pass.
const NODE_VISIT_GATE: f64 = 2.0;

struct VisitBench {
    aos_ns: f64,
    soa_ns: f64,
    speedup: f64,
}

fn main() {
    banner("SIMD sweep", "SoA node layout: before/after gate");
    let visit = node_visit_bench();
    println!(
        "node visit (fanout 88): AoS scalar {:.0} ns, SoA bitmask {:.0} ns  => {:.2}x (gate > {:.1}x)",
        visit.aos_ns, visit.soa_ns, visit.speedup, NODE_VISIT_GATE
    );
    let pass = visit.speedup > NODE_VISIT_GATE;
    std::fs::write("BENCH_simd.json", render_json(&visit, pass)).expect("write BENCH_simd.json");
    println!("\nwrote BENCH_simd.json (pass: {pass})");
    if !pass {
        eprintln!(
            "GATE FAILED: node-visit speedup {:.2}x <= {NODE_VISIT_GATE:.1}x",
            visit.speedup
        );
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

fn render_json(visit: &VisitBench, pass: bool) -> String {
    format!(
        "{{\n  \"command\": {},\n  \"bench\": \"simd_sweep\",\n  \"node_visit\": {{\"fanout\": 88, \
         \"aos_ns\": {:.1}, \"soa_ns\": {:.1}, \"speedup\": {:.3}, \
         \"gate_min_speedup\": {NODE_VISIT_GATE}, \"pass\": {pass}}},\n  \"pass\": {pass}\n}}\n",
        command_json(),
        visit.aos_ns,
        visit.soa_ns,
        visit.speedup,
    )
}
