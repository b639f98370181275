//! Recovery properties under seeded fault injection: whatever mix of
//! dropped writes, duplicated completions, delays, corrupted frames, and
//! worker stalls a [`FaultPlan`] throws at the service, every acknowledged
//! mutation lands in the tree exactly once and the recovery counters
//! balance. A scripted crash-restart window checks the two halves of the
//! durability story separately: writes acknowledged before the crash are
//! never lost, and writes issued into the window are retransmitted until
//! the restarted worker serves them.

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::CatfishServer;
use catfish_core::{Anomaly, CatfishClient};
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::{Endpoint, FaultConfig, FaultPlan, RdmaProfile};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{now, sleep, Network, Sim, SimDuration};
use proptest::prelude::*;

/// Ids far above the pre-loaded dataset, so occurrence counts are exact.
const ID_BASE: u64 = 1_000_000;

fn dataset(n: u64) -> Vec<(Rect, u64)> {
    (0..n)
        .map(|i| {
            let x = (i % 128) as f64 / 128.0;
            let y = (i / 128) as f64 / 128.0;
            (Rect::new(x, y, x + 0.004, y + 0.004), i)
        })
        .collect()
}

/// One grid cell per op: unique, disjoint from each other.
fn op_rect(op: u64) -> Rect {
    let x = (op % 311) as f64 / 311.0 * 0.9;
    let y = (op / 311) as f64 / 311.0 * 0.9;
    Rect::new(x, y, x + 0.0005, y + 0.0005)
}

fn build(cores: usize, items: u64) -> (Network, CatfishServer) {
    let net = Network::new();
    let profile = infiniband_100g();
    let rkeys = RkeyAllocator::new();
    let server = CatfishServer::build(
        &net,
        &profile,
        ServerConfig {
            cores,
            mode: ServerMode::EventDriven,
            heartbeat_interval: SimDuration::from_millis(1),
            ..ServerConfig::default()
        },
        RTreeConfig::with_max_entries(88),
        dataset(items),
        &rkeys,
    );
    (net, server)
}

fn retry_config() -> ClientConfig {
    ClientConfig {
        mode: AccessMode::Adaptive(AdaptiveParams {
            heartbeat_interval: SimDuration::from_millis(1),
            ..AdaptiveParams::default()
        }),
        request_timeout: SimDuration::from_micros(400),
        max_retries: 64,
        ..ClientConfig::default()
    }
}

fn attach_faulty(
    net: &Network,
    server: &CatfishServer,
    plan: &FaultPlan,
    cfg: ClientConfig,
    seed: u64,
) -> CatfishClient {
    let profile = infiniband_100g();
    let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
    ep.set_fault_plan(Some(plan.clone()));
    let ch = server.accept(&ep);
    CatfishClient::new(ch, server.remote_handle(), cfg, seed)
}

/// Inserts `ops` uniquely-tagged rectangles through `client`, asserting
/// every acknowledgement, then returns per-id occurrence counts from a
/// server-side audit: (lost, duplicated).
async fn run_inserts(client: &mut CatfishClient, base: u64, ops: u64) {
    for i in 0..ops {
        let id = ID_BASE + base + i;
        assert!(
            client.insert(op_rect(base + i), id).await,
            "insert of id {id} gave up despite a generous retry budget"
        );
    }
}

fn audit(server: &CatfishServer, total_ops: u64) -> (usize, usize) {
    let mut lost = 0;
    let mut duplicated = 0;
    for op in 0..total_ops {
        let id = ID_BASE + op;
        let hits =
            server.with_index(|t| t.search(&op_rect(op)).iter().filter(|d| **d == id).count());
        match hits {
            0 => lost += 1,
            1 => {}
            _ => duplicated += 1,
        }
    }
    (lost, duplicated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Exactly-once under an arbitrary fault mix: no acknowledged insert
    /// is lost, none is applied twice, and the recovery counters balance —
    /// retransmissions only ever follow timeouts, and every duplicate the
    /// server absorbed is explained by a client retransmission or an
    /// injected duplicate completion.
    #[test]
    fn arbitrary_fault_mix_is_exactly_once(
        drop_write in 0.0f64..0.15,
        duplicate in 0.0f64..0.10,
        delay in 0.0f64..0.20,
        corrupt in 0.0f64..0.05,
        stall in 0.0f64..0.02,
        suppress_heartbeat in 0.0f64..0.50,
        seed in 0u64..1_000_000,
    ) {
        let cfg = FaultConfig {
            drop_write,
            duplicate,
            delay,
            corrupt,
            stall,
            suppress_heartbeat,
            ..FaultConfig::off()
        };
        let sim = Sim::new();
        let (stats, injected, lost, duplicated) = sim.run_until(async move {
            let (net, server) = build(2, 2_000);
            let plan = FaultPlan::new(cfg, seed);
            server.endpoint().set_fault_plan(Some(plan.clone()));
            server.start_heartbeats();
            let mut client = attach_faulty(&net, &server, &plan, retry_config(), seed);
            let ops = 48u64;
            run_inserts(&mut client, 0, ops).await;
            let (lost, duplicated) = audit(&server, ops);
            let mut stats = client.stats();
            let ss = server.stats();
            stats.dup_drops += ss.dup_drops;
            stats.checksum_failures += ss.checksum_failures;
            stats.resyncs += ss.resyncs;
            (stats, plan.counters(), lost, duplicated)
        });
        prop_assert_eq!(lost, 0, "acknowledged inserts vanished");
        prop_assert_eq!(duplicated, 0, "an insert was applied twice");
        prop_assert!(
            stats.retransmits <= stats.timeouts,
            "retransmits ({}) must not exceed timeouts ({}) on the single-op path",
            stats.retransmits,
            stats.timeouts
        );
        prop_assert!(
            stats.dup_drops <= stats.retransmits + injected.completions_duplicated,
            "dup_drops ({}) exceed retransmits ({}) + injected duplicates ({})",
            stats.dup_drops,
            stats.retransmits,
            injected.completions_duplicated
        );
        // A flipped payload byte never survives the CRC, but a frame
        // corrupted in flight as the run ends may go unread.
        prop_assert!(
            stats.checksum_failures <= injected.frames_corrupted,
            "more CRC failures ({}) than frames corrupted ({})",
            stats.checksum_failures,
            injected.frames_corrupted
        );
    }
}

/// A scripted crash-restart window: the worker discards every frame inside
/// `[t0 + 1ms, t0 + 3ms)` as if the process died and restarted with its
/// dedup state intact. Writes acknowledged before the window stay in the
/// tree; writes issued into it are retransmitted until the revived worker
/// answers. Nothing is lost, nothing applied twice.
#[test]
fn crash_window_loses_nothing_acked() {
    let sim = Sim::new();
    let (stats, injected, lost, duplicated) = sim.run_until(async move {
        let (net, server) = build(2, 2_000);
        let cfg = FaultConfig {
            crash_window: Some((
                now() + SimDuration::from_millis(1),
                SimDuration::from_millis(2),
            )),
            ..FaultConfig::off()
        };
        let plan = FaultPlan::new(cfg, 7);
        server.endpoint().set_fault_plan(Some(plan.clone()));
        server.start_heartbeats();
        let mut client = attach_faulty(&net, &server, &plan, retry_config(), 7);
        // ~110us per fault-free insert: the first handful complete before
        // the window opens, the middle of the run lands inside it, and the
        // tail completes after the worker comes back.
        let ops = 60u64;
        run_inserts(&mut client, 0, ops).await;
        let (lost, duplicated) = audit(&server, ops);
        let mut stats = client.stats();
        stats.dup_drops += server.stats().dup_drops;
        (stats, plan.counters(), lost, duplicated)
    });
    assert!(
        injected.crash_discards > 0,
        "the workload never hit the crash window — timing drifted"
    );
    assert_eq!(lost, 0, "an acknowledged insert vanished across the crash");
    assert_eq!(duplicated, 0, "a retransmitted insert was applied twice");
    assert!(
        stats.retransmits > 0,
        "requests issued into the crash window must have been retransmitted"
    );
    assert!(stats.retransmits <= stats.timeouts);
}

/// Faults confined to one client's endpoint never leak: a clean client
/// sharing the server with a heavily faulted one sees zero timeouts and
/// identical search results.
#[test]
fn faults_are_isolated_to_the_faulty_connection() {
    let sim = Sim::new();
    sim.run_until(async move {
        let (net, server) = build(2, 2_000);
        server.start_heartbeats();
        let plan = FaultPlan::new(
            FaultConfig {
                drop_write: 0.2,
                corrupt: 0.05,
                ..FaultConfig::off()
            },
            11,
        );
        // The faulty plan rides only the faulty client's endpoint — the
        // server endpoint stays clean, as do other connections.
        let mut faulty = attach_faulty(&net, &server, &plan, retry_config(), 11);
        let profile = infiniband_100g();
        let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&ep);
        let mut clean = CatfishClient::new(ch, server.remote_handle(), retry_config(), 12);
        run_inserts(&mut faulty, 0, 32).await;
        for i in 0..32u64 {
            let q = op_rect(i);
            let got = clean.search(&q).await;
            assert!(got.contains(&(ID_BASE + i)));
        }
        let (lost, duplicated) = audit(&server, 32);
        assert_eq!((lost, duplicated), (0, 0));
        assert_eq!(clean.stats().timeouts, 0, "clean connection saw faults");
        assert_eq!(clean.stats().retransmits, 0);
        assert!(
            faulty.stats().timeouts > 0 || plan.counters().total() == 0,
            "the faulty connection should have observed its faults"
        );
    });
}

/// Probes `client`'s failsafe once per millisecond (one heartbeat
/// interval, so resumed heartbeats count as consecutive fresh intervals)
/// for `ms` milliseconds; returns whether it holds at the end.
async fn probe_for(client: &mut CatfishClient, ms: u64) -> bool {
    for _ in 0..ms {
        sleep(SimDuration::from_millis(1)).await;
        client.is_stale();
    }
    client.is_stale()
}

/// A stale heartbeat window engaged by the failure detector's probe
/// (`is_stale`), with no read in between, still dumps exactly once: the
/// failsafe fires the anomaly where it engages, not a later read. The
/// server's heartbeats are suppressed twice, each time after the client
/// has heard it, so two windows open and two dumps must match them.
#[test]
fn stale_windows_engaged_by_probes_dump_once_each() {
    let sim = Sim::new();
    sim.run_until(async move {
        let (net, server) = build(2, 2_000);
        server.start_heartbeats();
        let profile = infiniband_100g();
        let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
        let ch = server.accept(&ep);
        let mut client = CatfishClient::new(ch, server.remote_handle(), retry_config(), 21);
        let silence = FaultPlan::new(
            FaultConfig {
                suppress_heartbeat: 1.0,
                ..FaultConfig::off()
            },
            21,
        );
        assert!(
            !probe_for(&mut client, 5).await,
            "fresh heartbeats: no failsafe"
        );
        for _ in 0..2 {
            // Silence the server for well over 5 intervals, then let it
            // resume.
            server.endpoint().set_fault_plan(Some(silence.clone()));
            assert!(
                probe_for(&mut client, 12).await,
                "12 ms of silence engages the failsafe"
            );
            server.endpoint().set_fault_plan(None);
            assert!(
                !probe_for(&mut client, 5).await,
                "resumed heartbeats release it"
            );
        }

        let windows = client.stats().stale_heartbeat_windows;
        let dumps: Vec<_> = client
            .flight()
            .dumps()
            .into_iter()
            .filter_map(|d| match d.anomaly {
                Anomaly::StaleHeartbeat { silent_ns } => Some(silent_ns),
                _ => None,
            })
            .collect();
        assert_eq!(windows, 2, "two silences, two windows");
        assert_eq!(dumps.len() as u64, windows, "one dump per stale window");
        for silent_ns in dumps {
            assert!(silent_ns > 5_000_000, "dumped silence {silent_ns} ns");
        }
    });
}
