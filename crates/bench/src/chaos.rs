//! The exactly-once chaos workload shared by `fault_sweep` and
//! `repair_sweep`.
//!
//! [`CLIENTS`] clients insert rectangles tagged with globally unique ids
//! and every eighth op read back an earlier one. After they join,
//! [`audit_exactly_once`] counts each id over the cluster's current
//! primaries: a lost acknowledged insert shows 0 hits, and a retry applied
//! twice shows 2. Every cell builds its topology through
//! [`Testbed`], so fault targeting follows the harness rule.

use std::cell::RefCell;
use std::rc::Rc;

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::obs::{FlightDump, LatencyHistogram};
use catfish_core::server::CatfishCluster;
use catfish_core::service::MAILBOX_LEASE_TTL;
use catfish_core::ServiceStats;
use catfish_rdma::FaultConfig;
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{now, sleep, spawn, SimDuration};

/// Virtual-time budget per cell: a wedged run (a request loop that stops
/// making progress but keeps arming timers) trips this instead of hanging.
pub const WATCHDOG: SimDuration = SimDuration::from_secs(300);

/// Inserting clients per cell.
pub const CLIENTS: usize = 4;

/// Ids far above the pre-loaded dataset so occurrence counting is exact.
pub const ID_BASE: u64 = 10_000_000;

/// Fast heartbeats so the staleness failsafe (k intervals of silence) can
/// trip inside a short chaos cell.
pub const HEARTBEAT: SimDuration = SimDuration::from_millis(1);

/// The rectangle of op `op`: a dense grid disjoint from itself (every op
/// gets its own cell) but freely overlapping the pre-loaded dataset —
/// occurrence counting keys on the unique id, not the rectangle.
pub fn unique_rect(op: u64) -> Rect {
    let x = (op % 997) as f64 / 997.0 * 0.9;
    let y = (op / 997) as f64 / 997.0 * 0.9;
    Rect::new(x, y, x + 0.0004, y + 0.0004)
}

/// `n` small pre-loaded rectangles on a 256-wide grid, ids `0..n`.
pub fn dataset(n: usize) -> Vec<(Rect, u64)> {
    (0..n as u64)
        .map(|i| {
            let x = (i % 256) as f64 / 256.0;
            let y = (i / 256) as f64 / 256.0 % 1.0;
            (Rect::new(x, y, x + 0.003, y + 0.003), i)
        })
        .collect()
}

/// Algorithm 1 on the chaos cells' fast heartbeat stream.
pub fn adaptive() -> AccessMode {
    AccessMode::Adaptive(AdaptiveParams {
        heartbeat_interval: HEARTBEAT,
        ..AdaptiveParams::default()
    })
}

/// A chaos cell: one [`CLIENTS`]-client machine each, 4-core event-driven
/// servers with [`HEARTBEAT`] heartbeats over a fanout-88 tree of
/// `dataset(size)`, `fault` drawn from `seed`, and clients in `mode`. The
/// per-attempt timeout and retry budget apply to every client the cell
/// connects. Callers set the shard, replica and fault-target layout.
pub fn spec(
    size: usize,
    seed: u64,
    fault: FaultConfig,
    mode: AccessMode,
    request_timeout: SimDuration,
    max_retries: u32,
) -> ExperimentSpec {
    ExperimentSpec {
        clients: CLIENTS,
        client_nodes: CLIENTS,
        dataset: dataset(size),
        server: ServerConfig {
            cores: 4,
            heartbeat_interval: HEARTBEAT,
            ..ServerConfig::default()
        },
        server_mode: Some(ServerMode::EventDriven),
        tree_config: RTreeConfig::with_max_entries(88),
        seed,
        client_config: Some(ClientConfig {
            mode,
            ..ClientConfig::default()
        }),
        fault: Some(fault),
        request_timeout: Some(request_timeout),
        max_retries: Some(max_retries),
        ..ExperimentSpec::default()
    }
}

/// Spawns the virtual-time watchdog: recovery must converge, not crawl.
pub fn arm_watchdog(cell: &'static str) {
    spawn(async move {
        sleep(WATCHDOG).await;
        panic!("{cell} wedged: no convergence within {WATCHDOG}");
    });
}

/// What the inserting clients saw.
#[derive(Debug, Default)]
pub struct Workload {
    /// Virtual time from the first connection to the last client's end.
    pub makespan: SimDuration,
    /// Insert latencies.
    pub hist: LatencyHistogram,
    /// Client-side counters, merged over every client.
    pub stats: ServiceStats,
    /// Ids whose insert was not acknowledged.
    pub unacked: Vec<u64>,
    /// Every flight-recorder dump any client connection fired.
    pub flight: Vec<FlightDump>,
}

/// Runs [`CLIENTS`] clients, each inserting `ops` unique ids. Every eighth
/// op reads back an earlier acknowledged insert, trying up to
/// `read_back_tries` times 2 ms apart, and panics if it never shows up.
pub async fn insert_read_back(
    bed: &Testbed,
    seed: u64,
    ops: usize,
    read_back_tries: u32,
) -> Workload {
    let started = now();
    let out: Rc<RefCell<Workload>> = Rc::default();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mut client = bed.connect(c, seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let out = Rc::clone(&out);
        handles.push(spawn(async move {
            sleep(SimDuration::from_nanos(13_007 * c as u64)).await;
            let first = (c * ops) as u64;
            for i in 0..ops as u64 {
                let id = ID_BASE + first + i;
                let t0 = now();
                if !client.insert(unique_rect(first + i), id).await {
                    out.borrow_mut().unacked.push(id);
                }
                out.borrow_mut().hist.record(now() - t0);
                if i % 8 == 7 {
                    let back = ID_BASE + first + i / 2;
                    let q = unique_rect(first + i / 2);
                    let mut found = false;
                    for _ in 0..read_back_tries {
                        if client.search(&q).await.contains(&back) {
                            found = true;
                            break;
                        }
                        sleep(SimDuration::from_millis(2)).await;
                    }
                    assert!(found, "read-back lost acked id {back} (client {c}, op {i})");
                }
            }
            let mut out = out.borrow_mut();
            out.stats.merge(&client.stats());
            out.flight.extend(client.flight_dumps());
        }));
    }
    for h in handles {
        h.await;
    }
    let mut w = Rc::try_unwrap(out)
        .expect("all client tasks joined")
        .into_inner();
    w.makespan = now() - started;
    w
}

/// Exactly-once audit over ops `0..ops`: counts each id over the current
/// primaries of every shard, so a retry applied to a sibling shard shows
/// as a duplicate too, and checks every replica's tree invariants.
/// Returns `(lost, duplicated)`; an unacknowledged id counts as lost even
/// if it landed.
pub fn audit_exactly_once(
    cluster: &CatfishCluster,
    ops: usize,
    mut unacked: Vec<u64>,
) -> (usize, usize) {
    let mut duplicated = 0;
    for op in 0..ops as u64 {
        let id = ID_BASE + op;
        let q = unique_rect(op);
        let hits: usize = (0..cluster.shards())
            .map(|s| {
                cluster
                    .shard(s)
                    .with_index(|t| t.search(&q).iter().filter(|d| **d == id).count())
            })
            .sum();
        match hits {
            0 => unacked.push(id),
            1 => {}
            _ => duplicated += 1,
        }
    }
    unacked.sort_unstable();
    unacked.dedup();
    for s in 0..cluster.shards() {
        for r in 0..cluster.replicas() {
            cluster
                .replica(s, r)
                .with_index(|t| t.check_invariants())
                .unwrap();
        }
    }
    (unacked.len(), duplicated)
}

/// Mailbox leak audit: gives every outstanding lease time to be acked or
/// to age past the TTL, lets heartbeat ticks run the reclaimer, then
/// returns the slots still leased across every replica — a crash-restarted
/// or timed-out fetch must never strand one.
pub async fn leaked_slots(cluster: &CatfishCluster) -> usize {
    sleep(MAILBOX_LEASE_TTL + HEARTBEAT * 4).await;
    (0..cluster.shards())
        .flat_map(|s| (0..cluster.replicas()).map(move |r| (s, r)))
        .map(|(s, r)| cluster.replica(s, r).mailbox_outstanding())
        .sum()
}
