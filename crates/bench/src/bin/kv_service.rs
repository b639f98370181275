//! Beyond the paper (§VI): the key-value service on the same Catfish
//! machinery. Compares fast messaging, offloaded gets, and the adaptive
//! policy for point lookups across client counts. (Key popularity is
//! irrelevant in this cost model — every B+-tree lookup walks the same
//! height — so keys are drawn uniformly.)

use std::cell::RefCell;
use std::rc::Rc;

use catfish_bench::{banner, timed, BenchArgs};
use catfish_bplus::BpConfig;
use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerMode};
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::kv::KvBackend;
use catfish_core::service::cluster::shard_seed;
use catfish_core::LatencyHistogram;
use catfish_simnet::{now, sleep, spawn, Sim, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = BenchArgs::parse();
    banner(
        "KV service (§VI)",
        "B+-tree gets over the Catfish framework: fast / offload / adaptive",
    );
    let keys = (args.size / 2).max(10_000);
    println!(
        "{} keys, {} gets/client, 28-core server\n",
        keys, args.requests
    );
    let clients_sweep = args.clients.clone().unwrap_or_else(|| vec![32, 128, 256]);
    let mut slo_ok = true;
    for clients in clients_sweep {
        println!("--- {clients} clients ---");
        for (label, mode) in [
            ("fast messaging", AccessMode::FastMessaging),
            ("offloading", AccessMode::Offloading),
            (
                "adaptive (Catfish)",
                AccessMode::Adaptive(AdaptiveParams::default()),
            ),
        ] {
            let r = timed(&format!("n={clients} {label}"), || {
                run_cell(keys as u64, clients, args.requests, mode, args.seed)
            });
            let summary = r.hist.summary();
            println!(
                "{:<20} {:>9.1} Kops  mean {:>10}  p99 {:>10}  [fast {} / offload {}]",
                label, r.kops, summary.mean, summary.p99, r.fast, r.offloaded
            );
            // The declared objectives gate every cell: a regression in any
            // transport mode trips CI, not just the adaptive headline.
            slo_ok &= args.check_slo_parts(&r.hist, r.kops, 0, summary.count as u64);
        }
        println!();
    }
    if !slo_ok {
        eprintln!("SLO violated — see burn rates above");
        std::process::exit(1);
    }
}

/// One cell's outcome.
struct Cell {
    kops: f64,
    hist: LatencyHistogram,
    fast: u64,
    offloaded: u64,
}

/// One cell on a one-shard KV testbed: a 28-core event-driven server
/// (heartbeats on for the adaptive cell only) and `clients` closed-loop
/// clients on eight machines. Every get is checked against the loaded
/// value.
fn run_cell(keys: u64, clients: usize, requests: usize, mode: AccessMode, seed: u64) -> Cell {
    let spec = ExperimentSpec {
        scheme: match mode {
            AccessMode::Adaptive(_) => Scheme::Catfish,
            AccessMode::Offloading => Scheme::RdmaOffloading,
            _ => Scheme::FastMessaging,
        },
        clients,
        client_nodes: 8,
        server_mode: Some(ServerMode::EventDriven),
        client_config: Some(ClientConfig {
            mode,
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
            0u64, // fast
            0u64, // offload
        )));
        let started = now();
        let mut handles = Vec::new();
        for c in 0..clients {
            // The shard connection's back-off seed is exactly this formula.
            let client_seed = seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut client = bed.connect(c, shard_seed(client_seed, 0));
            let stats = Rc::clone(&stats);
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
                let mut rec = LatencyHistogram::new();
                for _ in 0..requests {
                    let key = rng.gen::<u64>() % keys;
                    let t0 = now();
                    let got = client.get(key).await;
                    assert_eq!(got, Some(key * 2), "client {c}: wrong value for key {key}");
                    rec.record(now() - t0);
                }
                let mut s = stats.borrow_mut();
                s.0.merge(&rec);
                s.1 += client.stats().fast_reads;
                s.2 += client.stats().offloaded_reads;
            }));
        }
        for h in handles {
            h.await;
        }
        let makespan = now() - started;
        let s = stats.borrow();
        let kops = s.0.len() as f64 / makespan.as_secs_f64() / 1e3;
        Cell {
            kops,
            hist: s.0.clone(),
            fast: s.1,
            offloaded: s.2,
        }
    })
}
