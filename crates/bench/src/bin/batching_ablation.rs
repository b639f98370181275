//! Doorbell-batching ablation: batch size × client count × server mode.
//!
//! Clients issue closed-loop windows of point lookups through
//! [`read_batch`](catfish_core::service::ServiceClient::read_batch),
//! which coalesces requests that queue
//! behind an in-flight flush into one `Batch` frame (one ring write, one
//! CQ event, one worker wakeup). `max_batch = 1` is exactly the
//! pre-batching sequential path, so the sweep isolates what the doorbell
//! amortization buys at each concurrency level, for both polling and
//! event-driven servers.
//!
//! The KV backend keeps the index work (a short B+-tree walk) small
//! relative to per-message overhead — the regime the optimisation
//! targets; the batching layer itself is backend-generic. Results go to
//! stdout and, machine-readable, to `BENCH_batching.json`.

use std::cell::RefCell;
use std::rc::Rc;

use catfish_bench::{banner, command_json, timed, BenchArgs};
use catfish_bplus::BpConfig;
use catfish_core::config::{AccessMode, ClientConfig, Scheme, ServerMode};
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::kv::{KvBackend, KvRead};
use catfish_core::service::cluster::shard_seed;
use catfish_core::{LatencyHistogram, ServiceStats};
use catfish_simnet::{now, sleep, spawn, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reads issued per `read_batch` window. Windows model an application
/// that has a burst of independent lookups in hand (a multi-get); the
/// adaptive flush rule decides how many frames they become.
const WINDOW: usize = 16;

#[derive(Debug)]
struct Cell {
    mode: ServerMode,
    clients: usize,
    max_batch: usize,
    kops: f64,
    mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    batches_sent: u64,
    msgs_per_batch: f64,
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Batching ablation",
        "adaptive doorbell batching: batch size × clients × server mode",
    );
    let keys = (args.size / 10).max(10_000);
    println!(
        "{} keys, {} gets/client, windows of {WINDOW}\n",
        keys, args.requests
    );
    let clients_sweep = args.clients.clone().unwrap_or_else(|| vec![1, 4, 16, 64]);
    let batch_sweep = [1usize, 4, 8, 16];

    let mut cells = Vec::new();
    for mode in [ServerMode::EventDriven, ServerMode::Polling] {
        println!("--- {mode:?} server ---");
        println!(
            "{:>8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>9} {:>10}",
            "clients", "max_batch", "Kops", "mean", "p50", "p99", "batches", "msgs/batch"
        );
        for &clients in &clients_sweep {
            let mut base_kops = 0.0;
            for &max_batch in &batch_sweep {
                let cell = timed(&format!("{mode:?} n={clients} b={max_batch}"), || {
                    run_cell(
                        keys as u64,
                        clients,
                        args.requests,
                        mode,
                        max_batch,
                        args.seed,
                    )
                });
                let gain = if max_batch == 1 {
                    base_kops = cell.kops;
                    String::new()
                } else {
                    format!("  ({:+.1}% vs b=1)", (cell.kops / base_kops - 1.0) * 100.0)
                };
                println!(
                    "{:>8} {:>10} {:>10.1} {:>12} {:>12} {:>12} {:>9} {:>10.2}{}",
                    clients,
                    max_batch,
                    cell.kops,
                    fmt_ns(cell.mean_ns),
                    fmt_ns(cell.p50_ns),
                    fmt_ns(cell.p99_ns),
                    cell.batches_sent,
                    cell.msgs_per_batch,
                    gain,
                );
                cells.push(cell);
            }
        }
        println!();
    }

    let json = render_json(&cells);
    std::fs::write("BENCH_batching.json", &json).expect("write BENCH_batching.json");
    println!("wrote BENCH_batching.json ({} cells)", cells.len());
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.2}us", ns as f64 / 1e3)
}

/// One (mode, clients, max_batch) measurement on a one-shard KV
/// testbed: a 28-core server in `mode` and `clients` fast-messaging
/// clients on up to eight machines. Every get is checked against the
/// loaded value.
// Each client task owns its shard connection, so the borrow held across
// `read_batch` excludes nothing.
#[allow(clippy::await_holding_refcell_ref)]
fn run_cell(
    keys: u64,
    clients: usize,
    requests: usize,
    mode: ServerMode,
    max_batch: usize,
    seed: u64,
) -> Cell {
    let spec = ExperimentSpec {
        scheme: Scheme::FastMessaging,
        clients,
        client_nodes: 8,
        server_mode: Some(mode),
        client_config: Some(ClientConfig {
            mode: AccessMode::FastMessaging,
            max_batch,
            ..ClientConfig::default()
        }),
        seed,
        ..ExperimentSpec::default()
    };
    Sim::new().run_until(async move {
        let bed = Testbed::<KvBackend>::build(
            &spec,
            BpConfig::default(),
            (0..keys).map(|k| (k, k * 2)).collect(),
        );
        let stats = Rc::new(RefCell::new((
            LatencyHistogram::new(),
            ServiceStats::default(),
        )));
        let started = now();
        let mut handles = Vec::new();
        for c in 0..clients {
            // The shard connection's back-off seed is exactly this formula.
            let client_seed = seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let conn = bed.connect(c, shard_seed(client_seed, 0)).shard_client(0);
            let stats = Rc::clone(&stats);
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
                let mut rec = LatencyHistogram::new();
                let mut issued = 0usize;
                while issued < requests {
                    let window = WINDOW.min(requests - issued);
                    let reads: Vec<KvRead> = (0..window)
                        .map(|_| KvRead::Get(rng.gen::<u64>() % keys))
                        .collect();
                    let t0 = now();
                    let results = conn.borrow_mut().read_batch(&reads).await;
                    // Per-op latency: the window's makespan amortized over
                    // its ops, recorded once per op so percentiles weight
                    // windows by how much work they carried.
                    let per_op = (now() - t0) / window as u64;
                    for (read, items) in reads.iter().zip(&results) {
                        let KvRead::Get(key) = *read else {
                            unreachable!()
                        };
                        let got = items.first().map(|&(_, v)| v);
                        assert_eq!(got, Some(key * 2), "client {c}: wrong value for key {key}");
                        rec.record(per_op);
                    }
                    issued += window;
                }
                let mut s = stats.borrow_mut();
                s.0.merge(&rec);
                s.1.merge(&conn.borrow().stats());
            }));
        }
        for h in handles {
            h.await;
        }
        let makespan = now() - started;
        let s = stats.borrow();
        let summary = s.0.summary();
        Cell {
            mode,
            clients,
            max_batch,
            kops: summary.count as f64 / makespan.as_secs_f64() / 1e3,
            mean_ns: summary.mean.as_nanos(),
            p50_ns: summary.p50.as_nanos(),
            p99_ns: summary.p99.as_nanos(),
            batches_sent: s.1.batches_sent,
            msgs_per_batch: s.1.msgs_per_batch(),
        }
    })
}

fn render_json(cells: &[Cell]) -> String {
    let mut out = format!(
        "{{\n  \"command\": {},\n  \"bench\": \"batching_ablation\",\n  \"cells\": [\n",
        command_json()
    );
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"server_mode\": \"{:?}\", \"clients\": {}, \"max_batch\": {}, \
             \"kops\": {:.2}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"batches_sent\": {}, \"msgs_per_batch\": {:.3}}}{}\n",
            c.mode,
            c.clients,
            c.max_batch,
            c.kops,
            c.mean_ns,
            c.p50_ns,
            c.p99_ns,
            c.batches_sent,
            c.msgs_per_batch,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
