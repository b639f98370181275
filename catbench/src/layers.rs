//! Per-layer metrics: virtual-time breakdowns derived from a traced
//! repetition, and host-time costs from replaying the workload's own
//! inputs through each layer's public functions in isolation.

use std::hint::black_box;
use std::time::Instant;

use catfish_core::msg::Message;
use catfish_core::obs::{AdaptiveEvent, Phase, RouteChoice};
use catfish_core::{ClientBackend, IndexBackend, RtreeBackend};
use catfish_rtree::chunk::ChunkStore;
use catfish_rtree::codec::ChunkLayout;
use catfish_rtree::{bulk_load, NodeId, NodeStore, RTree, Rect};
use catfish_workload::Request;

use crate::run::Rep;
use crate::workload::{tree_config, Inputs, Workload};

/// One named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Searches a repetition ran (warm-up included).
fn searches_ran(rep: &Rep, inputs: &Inputs) -> f64 {
    let ran = inputs
        .traces
        .iter()
        .zip(&rep.ops)
        .flat_map(|(t, r)| &t[..r.len()]);
    ran.filter(|r| r.is_search()).count() as f64
}

/// Virtual-time and counter metrics of a phase-traced repetition. Phase
/// sums, counters and Algorithm 1 events cover the whole run, warm-up
/// included, and are divided by the operations it ran; the `simnet`
/// figures are sampled over the measurement window.
pub fn traced_metrics(rep: &Rep, inputs: &Inputs) -> Vec<Metric> {
    let trace = rep.trace.as_ref().expect("a traced repetition");
    let ops = rep.completed() as f64;
    let searches = searches_ran(rep, inputs);
    let writes = ops - searches;
    let (c, s) = (&rep.client_stats, &rep.server_stats);
    let phase_ns = |p: Phase| {
        trace
            .sink
            .phase_histogram(p)
            .map_or(0.0, |h| h.sum_nanos() as f64)
    };
    // Per-op mean of a phase, in µs: phase sums over completed ops, so the
    // client-side phases tile the end-to-end mean.
    let per_op_us = |p: Phase| phase_ns(p) / ops / 1e3;
    let mut routes = [0u64; 3];
    let mut escalations = 0u64;
    for e in &trace.events {
        match e.event {
            AdaptiveEvent::Route { route } => {
                routes[match route {
                    RouteChoice::Fast => 0,
                    RouteChoice::Fetch => 1,
                    RouteChoice::Offload => 2,
                }] += 1
            }
            AdaptiveEvent::BandEscalated { .. } => escalations += 1,
            _ => {}
        }
    }
    let routed = routes.iter().sum::<u64>() as f64;
    let e2e_ns: f64 = rep.ops.iter().flatten().map(|o| o.latency_ns as f64).sum();
    let client_tiling = [
        Phase::RingEnqueue,
        Phase::CqWait,
        Phase::OffloadRead,
        Phase::MailboxFetch,
    ];
    let fetch_fallbacks = (s.fetch_fallbacks + c.fetch_fallbacks) as f64;
    vec![
        ("simnet.server_cpu_util", rep.server_cpu, "ratio"),
        (
            "simnet.server_net_bytes_per_op",
            rep.server_bytes as f64 / rep.window_ops() as f64,
            "B/op",
        ),
        ("ring.enqueue_us", per_op_us(Phase::RingEnqueue), "us"),
        ("ring.cq_wait_us", per_op_us(Phase::CqWait), "us"),
        ("ring.resp_transit_us", per_op_us(Phase::RespTransit), "us"),
        ("server.queue_us", per_op_us(Phase::ServerQueue), "us"),
        ("server.dispatch_us", per_op_us(Phase::Dispatch), "us"),
        ("server.index_exec_us", per_op_us(Phase::IndexExec), "us"),
        (
            "server.nodes_per_read",
            ratio(s.nodes_visited as f64, s.reads as f64),
            "nodes",
        ),
        (
            "server.results_per_read",
            ratio(s.results_returned as f64, s.reads as f64),
            "items",
        ),
        (
            "adaptive.fast_share",
            ratio(routes[0] as f64, routed),
            "ratio",
        ),
        (
            "adaptive.fetch_share",
            ratio(routes[1] as f64, routed),
            "ratio",
        ),
        (
            "adaptive.offload_share",
            ratio(routes[2] as f64, routed),
            "ratio",
        ),
        (
            "adaptive.band_escalations",
            escalations as f64 * 1e3 / ops,
            "1/kop",
        ),
        ("client.meta_read_us", per_op_us(Phase::MetaRead), "us"),
        (
            "client.offload_read_us",
            per_op_us(Phase::OffloadRead),
            "us",
        ),
        (
            "client.offload_retry_us",
            per_op_us(Phase::OffloadRetry),
            "us",
        ),
        (
            "client.mailbox_fetch_us",
            per_op_us(Phase::MailboxFetch),
            "us",
        ),
        (
            "client.torn_retries_per_kop",
            c.torn_retries as f64 * 1e3 / ops,
            "1/kop",
        ),
        (
            "client.offload_restarts_per_kop",
            c.offload_restarts as f64 * 1e3 / ops,
            "1/kop",
        ),
        (
            "rdma.chunks_per_offload",
            ratio(c.chunks_fetched as f64, c.offloaded_reads as f64),
            "chunks",
        ),
        (
            "rdma.fetch_fallback_ratio",
            ratio(
                fetch_fallbacks,
                c.fetched_reads as f64 + c.fetch_fallbacks as f64,
            ),
            "ratio",
        ),
        (
            "cluster.rpcs_per_search",
            ratio(
                (c.fast_reads + c.fetched_reads + c.offloaded_reads) as f64,
                searches,
            ),
            "rpcs",
        ),
        (
            "cluster.repl_forwards_per_write",
            ratio(s.repl_forwards as f64, writes),
            "count",
        ),
        (
            "cluster.repl_lag_us",
            ratio(s.repl_lag_ns as f64, s.repl_forwards as f64) / 1e3,
            "us",
        ),
        (
            "obs.phase_coverage",
            client_tiling.iter().map(|&p| phase_ns(p)).sum::<f64>() / e2e_ns,
            "ratio",
        ),
    ]
}

/// Operations the host-time replay feeds each layer (the first ones of
/// the workload's traces, client by client).
const REPLAY_OPS: usize = 10_000;
/// Items the replay inserts: the workload's first inserts, or re-inserted
/// dataset items when it has none.
const REPLAY_INSERTS: usize = 10_000;
/// Timed passes over the replay inputs; the median pass is reported.
const REPLAY_PASSES: usize = 3;

/// Median over [`REPLAY_PASSES`] of the host ns per call of `f`, which
/// makes `calls` calls per pass.
fn median_ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut passes: Vec<f64> = (0..REPLAY_PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[REPLAY_PASSES / 2]
}

/// Host-time costs of the R-tree and message-codec layers, measured by
/// feeding the workload's own inputs to each layer's public functions.
pub fn replay_metrics(w: &Workload, inputs: &Inputs) -> Vec<Metric> {
    let cfg = tree_config();
    let layout = ChunkLayout::for_max_entries(cfg.max_entries);
    let chunks = <RtreeBackend as IndexBackend>::estimate_chunks(&cfg, inputs.dataset.len());
    let mut tree: RTree<ChunkStore<Vec<u8>>> = bulk_load(
        ChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout),
        cfg,
        inputs.dataset.clone(),
    );
    let reqs: Vec<Request> = inputs
        .traces
        .iter()
        .flatten()
        .take(REPLAY_OPS)
        .copied()
        .collect();
    let windows: Vec<Rect> = reqs
        .iter()
        .filter_map(|r| match r {
            Request::Search(w) => Some(*w),
            _ => None,
        })
        .collect();

    // The server's index execution: search with item collection.
    let mut items = Vec::new();
    let mut nodes = 0usize;
    for q in &windows {
        items.clear();
        nodes += tree.search_items_into(q, &mut items).nodes_visited;
    }
    let search_ns = median_ns_per_call(windows.len(), || {
        for q in &windows {
            items.clear();
            black_box(tree.search_items_into(black_box(q), &mut items));
        }
    });

    // The offloading client's per-chunk work over the chunks each window's
    // traversal visits.
    let visits = chunk_visits(&tree, layout, &windows);
    let mem = tree.store().mem();
    let bytes = layout.chunk_bytes();
    let (mut hits, mut children) = (Vec::new(), Vec::new());
    let expand_ns = median_ns_per_call(visits.len(), || {
        for &(q, off) in &visits {
            let (node, _) = layout
                .decode_node(black_box(&mem[off..off + bytes]))
                .expect("local chunk decodes");
            hits.clear();
            children.clear();
            RtreeBackend::expand(&windows[q], &node, &mut hits, &mut children)
                .expect("consistent local tree");
            black_box((&hits, &children));
        }
    });

    // Request and response frames exactly as the server segments them.
    let mut frames = Vec::new();
    let mut response_bytes = 0usize;
    for (seq, req) in (1u32..).zip(&reqs) {
        let (request, results) = match *req {
            Request::Search(rect) => {
                items.clear();
                tree.search_items_into(&rect, &mut items);
                (Message::SearchReq { seq, rect }, std::mem::take(&mut items))
            }
            Request::Insert(rect, data) => (Message::InsertReq { seq, rect, data }, Vec::new()),
            Request::Delete(rect, data) => (Message::DeleteReq { seq, rect, data }, Vec::new()),
        };
        frames.push(request);
        let responses = response_frames(seq, results, w.server.response_segment_results);
        response_bytes += responses.iter().map(Message::encoded_len).sum::<usize>();
        frames.extend(responses);
    }
    let encode_ns = median_ns_per_call(frames.len(), || {
        for m in &frames {
            black_box(m.encode());
        }
    });
    let encoded: Vec<Vec<u8>> = frames.iter().map(Message::encode).collect();
    let decode_ns = median_ns_per_call(encoded.len(), || {
        for b in &encoded {
            black_box(Message::decode(black_box(b)).expect("own encoding decodes"));
        }
    });

    // Inserts mutate the tree, so they run once, after everything else.
    let mut inserts: Vec<(Rect, u64)> = inputs
        .traces
        .iter()
        .flatten()
        .filter_map(|r| match *r {
            Request::Insert(rect, id) => Some((rect, id)),
            _ => None,
        })
        .take(REPLAY_INSERTS)
        .collect();
    if inserts.is_empty() {
        inserts = inputs.dataset[..REPLAY_INSERTS]
            .iter()
            .map(|&(rect, id)| (rect, id | 1 << 40))
            .collect();
    }
    let t = Instant::now();
    for &(rect, id) in &inserts {
        tree.insert(black_box(rect), id);
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / inserts.len() as f64;

    vec![
        ("rtree.search_host_ns", search_ns, "ns"),
        (
            "rtree.nodes_per_search",
            nodes as f64 / windows.len() as f64,
            "nodes",
        ),
        ("rtree.insert_host_ns", insert_ns, "ns"),
        ("rtree.expand_host_ns_per_chunk", expand_ns, "ns"),
        ("msg.encode_host_ns", encode_ns, "ns"),
        ("msg.decode_host_ns", decode_ns, "ns"),
        (
            "msg.bytes_per_response",
            response_bytes as f64 / reqs.len() as f64,
            "B",
        ),
    ]
}

/// `(window index, chunk byte offset)` of every chunk an offloaded
/// traversal of each window reads, in traversal order.
fn chunk_visits(
    tree: &RTree<ChunkStore<Vec<u8>>>,
    layout: ChunkLayout,
    windows: &[Rect],
) -> Vec<(usize, usize)> {
    let meta = tree.store().meta();
    let root = meta.root.expect("preloaded tree has a root");
    let mem = tree.store().mem();
    let bytes = layout.chunk_bytes();
    let mut visits = Vec::new();
    let mut hits: Vec<(Rect, u64)> = Vec::new();
    let mut stack: Vec<(NodeId, u32)> = Vec::new();
    for (q, window) in windows.iter().enumerate() {
        hits.clear();
        stack.push((root, meta.height - 1));
        while let Some((id, _)) = stack.pop() {
            let off = layout.node_offset(id);
            visits.push((q, off));
            let (node, _) = layout
                .decode_node(&mem[off..off + bytes])
                .expect("local chunk decodes");
            RtreeBackend::expand(window, &node, &mut hits, &mut stack)
                .expect("consistent local tree");
        }
    }
    visits
}

/// Splits `results` into CONT segments of `seg` items and a final END,
/// as the server's response path does.
fn response_frames(seq: u32, results: Vec<(Rect, u64)>, seg: usize) -> Vec<Message> {
    let mut chunks: Vec<Vec<(Rect, u64)>> = results.chunks(seg.max(1)).map(<[_]>::to_vec).collect();
    let last = chunks.pop().unwrap_or_default();
    let mut out: Vec<Message> = chunks
        .into_iter()
        .map(|results| Message::ResponseCont { seq, results })
        .collect();
    out.push(Message::ResponseEnd {
        seq,
        results: last,
        status: 1,
    });
    out
}
