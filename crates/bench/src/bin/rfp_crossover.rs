//! RFP-style crossover: write-back vs. mailbox fetching vs. three-way
//! adaptive, swept over the query window scale (and hence the response
//! size in items).
//!
//! Remote result fetching trades the server's NIC-initiated response
//! Write (fixed post cost plus a per-KiB segmentation cost) for a cheap
//! local deposit plus client-issued one-sided Reads. Small responses
//! favor write-back — the deposit's fixed cost and the client's poll
//! RTTs dominate; large window results favor fetching — the server sheds
//! the per-KiB post cost and the response bytes move on the clients'
//! initiative. Somewhere in between the two curves cross; this harness
//! measures that crossover and checks the three-way adaptive policy
//! (Algorithm 1 generalized over fast / fetch / offload) tracks the best
//! static choice in **every** cell.
//!
//! Emits `BENCH_rfp.json`: per-cell throughput for the three modes, the
//! measured mean result size, per-mode phase histograms (when the `trace`
//! feature is compiled in), and the interpolated crossover point in
//! items. Self-asserting:
//!
//! * the smallest cell: write-back strictly beats static fetching;
//! * the largest cell: static fetching beats write-back by >= 15% Kops;
//! * every cell: three-way adaptive within 10% of the best static mode.

use catfish_bench::{banner, command_json, paper_tree_config, timed, BenchArgs};
use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig};
use catfish_core::harness::{run_experiment, ExperimentSpec, RunResult};
use catfish_rtree::{bulk_load, MemStore, Rect};
use catfish_workload::{uniform_rects, Request, ScaleDist, TraceSpec};

/// Window scales swept, chosen so the expected result size spans from a
/// handful of items to several thousand (the cost-model crossover sits
/// near `(deposit - post) / ((post_per_kb - deposit_per_kb) * item_kb)`
/// ≈ 73 items with the default [`catfish_core::config::CostModel`]).
/// The top scale matters: tree traversal (`node_visit`) dominates per-op
/// CPU until windows are large enough that interior leaves are fully
/// covered (items per node visited approaches the leaf fanout), which is
/// where shedding the per-KiB post cost shows up as throughput.
const SCALES: [f64; 6] = [0.004, 0.012, 0.03, 0.06, 0.12, 0.4];

/// One mode's outcome in one window-scale cell.
struct ModeOut {
    name: &'static str,
    result: RunResult,
}

struct CellOut {
    scale: f64,
    /// Mean result size over the actual client-0 trace, measured against
    /// a locally bulk-loaded copy of the dataset.
    items_mean: f64,
    modes: Vec<ModeOut>,
}

fn mode_config(name: &str, server: &ServerConfig) -> ClientConfig {
    match name {
        "write_back" => ClientConfig {
            mode: AccessMode::FastMessaging,
            ..ClientConfig::default()
        },
        "fetch" => ClientConfig {
            mode: AccessMode::Fetching,
            ..ClientConfig::default()
        },
        "adaptive" => ClientConfig {
            mode: AccessMode::Adaptive(AdaptiveParams {
                heartbeat_interval: server.heartbeat_interval,
                ..AdaptiveParams::three_way()
            }),
            multi_issue: true,
            ..ClientConfig::default()
        },
        other => panic!("unknown mode {other}"),
    }
}

fn run_cell(
    args: &BenchArgs,
    dataset: &[(Rect, u64)],
    clients: usize,
    requests: usize,
    scale: f64,
) -> CellOut {
    let server = ServerConfig {
        cores: 4,
        // Slots sized for the largest *tail* window, not the mean:
        // `ScaleDist::Fixed` draws edges uniform in (0, bound], so the
        // top scale's biggest windows return ~16k items (~640 KiB
        // encoded). Static fetching must never overflow into ring
        // write-back here, or the fallback ops — exactly the largest
        // responses — pay write-back prices and flatten the crossover.
        // Fewer, bigger slots: single-issue clients reuse a slot only
        // after slots further acks, far beyond a heartbeat reclaim tick.
        mailbox_slots: 4,
        mailbox_slot_bytes: 768 * 1024,
        ..ServerConfig::default()
    };
    let trace = TraceSpec::search_only(ScaleDist::Fixed { bound: scale }, requests);

    // Measured (not modeled) result size: replay client 0's actual trace
    // against a local bulk-load of the same dataset.
    let tree = bulk_load(MemStore::new(), paper_tree_config(), dataset.to_vec());
    let probe = trace.client_trace(0, args.seed);
    let mut hits = 0usize;
    let mut searches = 0usize;
    for req in &probe {
        if let Request::Search(rect) = req {
            hits += tree.search(rect).len();
            searches += 1;
        }
    }
    let items_mean = hits as f64 / searches.max(1) as f64;

    let modes = ["write_back", "fetch", "adaptive"]
        .into_iter()
        .map(|name| {
            let spec = ExperimentSpec {
                scheme: Scheme::Catfish,
                clients,
                client_nodes: 8,
                dataset: dataset.to_vec(),
                trace,
                server,
                tree_config: paper_tree_config(),
                seed: args.seed,
                client_config: Some(mode_config(name, &server)),
                collect_spans: true,
                ..ExperimentSpec::default()
            };
            let result = timed(&format!("scale {scale} {name}"), || run_experiment(&spec));
            ModeOut { name, result }
        })
        .collect();
    CellOut {
        scale,
        items_mean,
        modes,
    }
}

fn json_mode(m: &ModeOut) -> String {
    let r = &m.result;
    let s = &r.latency;
    let us = |d: catfish_simnet::SimDuration| d.as_nanos() as f64 / 1e3;
    let phases = r
        .phase_hists
        .iter()
        .map(|(p, h)| {
            let ps = h.summary();
            format!(
                "{{\"phase\":\"{}\",\"count\":{},\"p50_us\":{:.3},\"p99_us\":{:.3}}}",
                p.name(),
                h.len(),
                us(ps.p50),
                us(ps.p99)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "\"{}\":{{\"kops\":{:.3},\"mean_us\":{:.3},\"p99_us\":{:.3},",
            "\"fast_reads\":{},\"fetched_reads\":{},\"offloaded_reads\":{},",
            "\"fetched_responses\":{},\"fetch_fallbacks\":{},\"dominant\":\"{}\",",
            "\"server_cpu\":{:.4},\"phases\":[{}]}}"
        ),
        m.name,
        r.throughput_kops,
        us(s.mean),
        us(s.p99),
        r.stats.fast_reads,
        r.stats.fetched_reads,
        r.stats.offloaded_reads,
        r.stats.fetched_responses,
        r.stats.fetch_fallbacks,
        r.stats.dominant_transport(),
        r.server_cpu,
        phases,
    )
}

fn kops(cell: &CellOut, name: &str) -> f64 {
    cell.modes
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.result.throughput_kops)
        .unwrap()
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "RFP crossover",
        "write-back vs. mailbox fetching vs. three-way adaptive, by window scale",
    );
    let clients = args.clients.as_ref().map_or(64, |v| v[0]);
    let size = if args.paper {
        args.size
    } else {
        args.size.min(100_000)
    };
    let requests = if args.paper {
        args.requests
    } else {
        args.requests.min(40)
    };
    // Small dataset rectangles (edges in (0, 1e-3]) keep the result size
    // driven by the query window, not the data.
    let dataset = uniform_rects(size, 1e-3, args.seed);
    println!("dataset {size} rects, {clients} clients x {requests} searches, scales {SCALES:?}");

    let cells: Vec<CellOut> = SCALES
        .iter()
        .map(|&scale| run_cell(&args, &dataset, clients, requests, scale))
        .collect();

    println!();
    for c in &cells {
        let wb = kops(c, "write_back");
        let fe = kops(c, "fetch");
        let ad = kops(c, "adaptive");
        let cpu = |name: &str| {
            c.modes
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.result.server_cpu * 100.0)
                .unwrap()
        };
        println!(
            "scale {:>6.3} (~{:>6.1} items)  write-back {:>8.2} Kops (cpu {:>5.1}%)  fetch {:>8.2} Kops (cpu {:>5.1}%)  adaptive {:>8.2} Kops  ({})",
            c.scale,
            c.items_mean,
            wb,
            cpu("write_back"),
            fe,
            cpu("fetch"),
            ad,
            if fe > wb { "fetch wins" } else { "write-back wins" },
        );
    }

    // The interpolated crossover: the result size at which the fetch and
    // write-back curves cross, linear in (items, fetch - write_back).
    let mut crossover_items = None;
    for w in cells.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let ga = kops(a, "fetch") - kops(a, "write_back");
        let gb = kops(b, "fetch") - kops(b, "write_back");
        if ga < 0.0 && gb >= 0.0 {
            let t = ga / (ga - gb);
            crossover_items = Some(a.items_mean + t * (b.items_mean - a.items_mean));
            break;
        }
    }

    // The JSON artifact is written *before* the self-checks so a failing
    // gate still leaves the full per-cell data on disk for post-mortem.
    let crossover_json = crossover_items.map_or("null".to_string(), |c| format!("{c:.1}"));
    let body = format!(
        "{{\"command\":{},\"harness\":\"rfp_crossover\",\"clients\":{clients},\"requests\":{requests},\"dataset\":{size},\"seed\":{},\"crossover_items\":{crossover_json},\"cells\":[\n{}\n]}}\n",
        command_json(),
        args.seed,
        cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"scale\":{},\"items_mean\":{:.2},{}}}",
                    c.scale,
                    c.items_mean,
                    c.modes.iter().map(json_mode).collect::<Vec<_>>().join(","),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let out = args
        .metrics_out
        .clone()
        .map(|b| format!("{b}.json"))
        .unwrap_or_else(|| "BENCH_rfp.json".to_string());
    std::fs::write(&out, body).expect("write rfp crossover results");

    // --- Self-checks (the acceptance contract) ---
    let first = &cells[0];
    assert!(
        kops(first, "write_back") > kops(first, "fetch"),
        "small results must favor write-back: {:.2} vs {:.2} Kops",
        kops(first, "write_back"),
        kops(first, "fetch"),
    );
    let last = cells.last().unwrap();
    assert!(
        kops(last, "fetch") >= 1.15 * kops(last, "write_back"),
        "large window results must favor fetching by >= 15%: {:.2} vs {:.2} Kops",
        kops(last, "fetch"),
        kops(last, "write_back"),
    );
    for c in &cells {
        let best = kops(c, "write_back").max(kops(c, "fetch"));
        assert!(
            kops(c, "adaptive") >= 0.9 * best,
            "scale {}: three-way adaptive {:.2} Kops trails best static {:.2} by > 10%",
            c.scale,
            kops(c, "adaptive"),
            best,
        );
    }
    let crossover_items =
        crossover_items.expect("the fetch and write-back curves must cross inside the sweep");
    println!("\nmeasured crossover: ~{crossover_items:.0} items per response");
    println!("crossover reproduced: wrote {out}");
}
