//! Criterion micro-benchmark of one node visit during a window search:
//! the legacy array-of-structs path (owned decode, scalar per-entry
//! intersection tests) against the struct-of-arrays path (lane decode
//! into pooled scratch, branchless hit bitmask). The SoA path is the one
//! [`catfish_rtree::chunk::ChunkStore`] runs on every server-side search;
//! the >2x gate on this comparison lives in the `simd_sweep` binary.
//!
//! `node_visit_client` is what an offloading client does per chunk read:
//! the torn-read check of the retry loop (`chunk_version`), then one fused
//! validate-and-unpack into the lane image (`validate_lanes_into`), then
//! the visit over that image, collecting the hits as `(mbr, payload)`
//! items.

use catfish_core::{ClientBackend, RtreeBackend};
use catfish_rtree::codec::{chunk_version, ChunkLayout, LaneNode};
use catfish_rtree::{Entry, Node, Rect};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn full_leaf(max_entries: usize) -> Node {
    let mut n = Node::new(0);
    for i in 0..max_entries as u64 {
        let x = (i as f64 * 0.0137) % 0.9;
        n.entries
            .push(Entry::data(Rect::new(x, x, x + 0.01, x + 0.01), i));
    }
    n
}

fn bench_node_visit(c: &mut Criterion) {
    // A selective window: a few entries hit, most miss — the common shape
    // of one visited node during a paper-scale search.
    let query = Rect::new(0.1, 0.1, 0.2, 0.2);
    let mut group = c.benchmark_group("node_visit_aos_scalar");
    for m in [16usize, 88] {
        let layout = ChunkLayout::for_max_entries(m);
        let chunk = layout.encode_node(&full_leaf(m), 7);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                let (node, _) = layout.decode_node(&chunk).expect("valid chunk");
                node.entries
                    .iter()
                    .filter(|e| e.mbr.intersects(&query))
                    .count()
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("node_visit_soa_bitmask");
    for m in [16usize, 88] {
        let layout = ChunkLayout::for_max_entries(m);
        let chunk = layout.encode_node(&full_leaf(m), 7);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            let mut lanes = LaneNode::new();
            b.iter(|| {
                layout
                    .decode_lanes_into(&chunk, &mut lanes)
                    .expect("valid chunk");
                lanes.window_hits(&query).count_ones()
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("node_visit_client");
    for m in [16usize, 88] {
        let layout = ChunkLayout::for_max_entries(m);
        let chunk = layout.encode_node(&full_leaf(m), 7);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            let mut lanes = LaneNode::new();
            let (mut items, mut children) = (Vec::new(), Vec::new());
            b.iter(|| {
                items.clear();
                chunk_version(&chunk, layout.lines()).expect("untorn chunk");
                RtreeBackend::validate(&layout, &chunk, &mut lanes).expect("valid chunk");
                RtreeBackend::visit(&query, &lanes, &mut items, &mut children).expect("leaf visit");
                items.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_node_visit);
criterion_main!(benches);
