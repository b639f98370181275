//! Criterion micro-benchmarks of the R*-tree itself: insert, search at the
//! paper's request scales, delete, and STR bulk loading (down to a whole
//! replicated cluster's set-up).

use catfish_core::config::ServerConfig;
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::{CatfishCluster, RtreeBackend};
use catfish_core::service::IndexBackend;
use catfish_rdma::profile::infiniband_100g;
use catfish_rtree::chunk::{ChunkMemory, ChunkStore};
use catfish_rtree::codec::ChunkLayout;
use catfish_rtree::{bulk_load, EntryRef, MemStore, NodeStore, RTree, RTreeConfig, Rect};
use catfish_simnet::{Network, Sim};
use catfish_workload::{search_rect, skewed_insert_rect, uniform_rects, ScaleDist};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_tree(n: usize) -> RTree<MemStore> {
    bulk_load(
        MemStore::new(),
        RTreeConfig::default(),
        uniform_rects(n, 1e-4, 1),
    )
}

fn build_chunk_tree(n: usize) -> RTree<ChunkStore<Vec<u8>>> {
    let config = RTreeConfig::default();
    let layout = ChunkLayout::for_max_entries(config.max_entries);
    // STR packing needs roughly n / max_entries leaf chunks plus the
    // internal levels; n / 4 leaves ample headroom for later inserts.
    let chunks = (n / 4 + 1024) as u32;
    bulk_load(
        ChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout),
        config,
        uniform_rects(n, 1e-4, 1),
    )
}

/// The chunk-store read path as it was before the borrowed `visit` API:
/// every node visited allocates a fresh chunk buffer and decodes into a
/// fresh [`catfish_rtree::Node`]. Kept here as the baseline the
/// `rtree_chunk_search/borrowed_*` benches are measured against.
fn owned_decode_search(store: &ChunkStore<Vec<u8>>, query: &Rect, out: &mut Vec<u64>) {
    let Some(root) = store.meta().root else {
        return;
    };
    let layout = store.layout();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let mut chunk = vec![0u8; layout.chunk_bytes()];
        store.mem().read_into(layout.node_offset(id), &mut chunk);
        let (node, _version) = layout
            .decode_node(&chunk)
            .expect("local decode cannot tear");
        for e in &node.entries {
            if e.mbr.intersects(query) {
                match e.child {
                    EntryRef::Node(child) => stack.push(child),
                    EntryRef::Data(d) => out.push(d),
                }
            }
        }
    }
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_insert");
    for n in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            // The tree grows across iterations; cost is amortized over the
            // whole run, which is what a sustained-ingest workload sees.
            let mut tree = build_tree(n);
            let mut rng = StdRng::seed_from_u64(2);
            let inputs: Vec<(Rect, u64)> = (0..1_000_000u64)
                .map(|i| {
                    let x = rng.gen::<f64>() * 0.999;
                    let y = rng.gen::<f64>() * 0.999;
                    (Rect::new(x, y, x + 1e-4, y + 1e-4), u64::MAX / 2 + i)
                })
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (r, d) = inputs[i % inputs.len()];
                tree.insert(r, d);
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_search");
    let tree = build_tree(200_000);
    for (label, edge) in [("scale_1e-5", 1e-5), ("scale_1e-2", 1e-2)] {
        group.bench_function(label, |b| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut out = Vec::new();
            b.iter(|| {
                let x = rng.gen::<f64>() * (1.0 - edge);
                let y = rng.gen::<f64>() * (1.0 - edge);
                out.clear();
                tree.search_into(&Rect::new(x, y, x + edge, y + edge), &mut out)
            });
        });
    }
    group.finish();
}

fn bench_delete(c: &mut Criterion) {
    c.bench_function("rtree_delete_insert_cycle", |b| {
        let mut tree = build_tree(50_000);
        let items = tree.items();
        let mut i = 0usize;
        b.iter(|| {
            let (r, d) = items[i % items.len()];
            assert!(tree.delete(&r, d));
            tree.insert(r, d);
            i += 1;
        });
    });
}

fn bench_chunk_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_chunk_search");
    let tree = build_chunk_tree(200_000);

    // Sanity: the borrowed path and the owned-decode baseline agree before
    // we time either of them.
    {
        let q = Rect::new(0.4, 0.4, 0.41, 0.41);
        let mut borrowed = Vec::new();
        let mut owned = Vec::new();
        tree.search_into(&q, &mut borrowed);
        owned_decode_search(tree.store(), &q, &mut owned);
        borrowed.sort_unstable();
        owned.sort_unstable();
        assert_eq!(borrowed, owned);
    }

    for (label, edge) in [("borrowed_1e-5", 1e-5), ("borrowed_1e-2", 1e-2)] {
        group.bench_function(label, |b| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut out = Vec::new();
            b.iter(|| {
                let x = rng.gen::<f64>() * (1.0 - edge);
                let y = rng.gen::<f64>() * (1.0 - edge);
                out.clear();
                tree.search_into(&Rect::new(x, y, x + edge, y + edge), &mut out)
            });
        });
    }
    for (label, edge) in [("owned_1e-5", 1e-5), ("owned_1e-2", 1e-2)] {
        group.bench_function(label, |b| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut out = Vec::new();
            b.iter(|| {
                let x = rng.gen::<f64>() * (1.0 - edge);
                let y = rng.gen::<f64>() * (1.0 - edge);
                out.clear();
                owned_decode_search(tree.store(), &Rect::new(x, y, x + edge, y + edge), &mut out);
                out.len()
            });
        });
    }
    group.finish();
}

fn bench_chunk_insert(c: &mut Criterion) {
    // The server's write path: a fanout-88 tree in a chunk arena, 250k
    // items bulk-loaded, then sustained inserts. The tree grows across
    // iterations; the arena is sized for any run the harness can make,
    // and the zero-filled allocation is only paged in as chunks are used.
    const BULK: usize = 250_000;
    let config = RTreeConfig::with_max_entries(88);
    let layout = ChunkLayout::for_max_entries(config.max_entries);
    let mut group = c.benchmark_group("rtree_chunk_insert");
    for label in ["uniform", "skewed"] {
        group.bench_function(label, |b| {
            let mut tree = bulk_load(
                ChunkStore::new(vec![0u8; layout.arena_bytes(65_536)], layout),
                config,
                uniform_rects(BULK, 1e-4, 1),
            );
            let mut rng = StdRng::seed_from_u64(5);
            let inputs: Vec<(Rect, u64)> = (0..262_144u64)
                .map(|i| {
                    let rect = if label == "uniform" {
                        search_rect(&mut rng, &ScaleDist::small())
                    } else {
                        skewed_insert_rect(&mut rng, &ScaleDist::small())
                    };
                    // Distinct from the bulk-loaded payloads, and clear of
                    // the codec's reserved node/data tag bit.
                    (rect, (1 << 40) + i)
                })
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (r, d) = inputs[i % inputs.len()];
                tree.insert(r, d);
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_bulk_load");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let items = uniform_rects(n, 1e-4, 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &items, |b, items| {
            b.iter_batched(
                || items.clone(),
                |items| bulk_load(MemStore::new(), RTreeConfig::default(), items),
                BatchSize::LargeInput,
            );
        });
    }
    // The server's shape: fanout 88 into a chunk arena sized as a server
    // sizes it (`IndexBackend::estimate_chunks`), at one hybrid shard's
    // slab and at the whole dataset.
    let config = RTreeConfig::with_max_entries(88);
    let layout = ChunkLayout::for_max_entries(config.max_entries);
    for n in [250_000usize, 1_000_000] {
        let items = uniform_rects(n, 1e-4, 4);
        let chunks = <RtreeBackend as IndexBackend>::estimate_chunks(&config, n);
        group.bench_with_input(BenchmarkId::new("chunk88", n), &items, |b, items| {
            b.iter_batched(
                || items.clone(),
                |items| {
                    let store = ChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout);
                    bulk_load(store, config, items)
                },
                BatchSize::LargeInput,
            );
        });
    }
    // Whole-cluster set-up as `hybrid_replicated` does it: partition, build
    // and load 4 shards of 3 replicas, string the forwarding pumps.
    let items = uniform_rects(1_000_000, 1e-4, 4);
    group.bench_with_input(
        BenchmarkId::new("cluster_4x3", items.len()),
        &items,
        |b, items| {
            b.iter_batched(
                || items.clone(),
                |items| {
                    Sim::new().run_until(async move {
                        let cluster = CatfishCluster::build_replicated(
                            &Network::new(),
                            &infiniband_100g(),
                            ServerConfig::default(),
                            config,
                            items,
                            4,
                            3,
                            &RkeyAllocator::new(),
                        );
                        cluster.shards()
                    })
                },
                BatchSize::LargeInput,
            );
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_search,
    bench_chunk_search,
    bench_chunk_insert,
    bench_delete,
    bench_bulk_load
);
criterion_main!(benches);
