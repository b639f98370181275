//! Replication chaos + anti-entropy repair harness: the robustness gate
//! for per-shard k-way replication.
//!
//! Two families of cells:
//!
//! 1. **Chaos gates** — a k=3 replica set under 10% RDMA write loss on
//!    the primary's NIC, optionally with a scripted partition that kills
//!    the primary mid-batch. Clients keep inserting globally unique ids
//!    through [`catfish_core::client::CatfishClusterClient`]; an
//!    unacknowledged write suspects the primary, the shared control block
//!    promotes the next live backup (epoch bump fences the old primary),
//!    and the client reissues the *same op id* to the new primary — the applied table turns a
//!    double-landed op into an idempotent ack. After the workload joins,
//!    the harness counts each id's occurrences on the **current**
//!    primaries: `lost` and `duplicated` must both be zero. The crashed
//!    ex-primary is then healed by hash-range reconciliation and revived;
//!    every replica's root digest must agree afterwards, including over
//!    writes issued *after* the revival.
//!
//! 2. **Repair scaling** — a backup is deliberately diverged from its
//!    primary by `d` entries, then repaired. The bisection walk must
//!    converge in `O(log n)` batched rounds and, at divergence ≤ 1% of
//!    `n`, move at least 5x fewer wire bytes than a naive full resync.
//!
//! Every gate is self-asserted; the measured numbers land in
//! `BENCH_repair.json`. A virtual-time watchdog panics if a cell wedges
//! instead of recovering.

use catfish_bench::chaos::{self, unique_rect, CLIENTS};
use catfish_bench::{banner, command_json, timed, BenchArgs};
use catfish_core::config::{AccessMode, ClientConfig, ServerConfig};
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::service::{RepairReport, Repairable};
use catfish_core::ServiceStats;
use catfish_rdma::FaultConfig;
use catfish_rtree::RTreeConfig;
use catfish_simnet::{Sim, SimDuration, SimTime};

/// Ids for the post-heal write probe (disjoint from the chaos workload).
const POST_HEAL_BASE: u64 = 20_000_000;

/// When the scripted partition drops the primary off the fabric —
/// far enough in for every client to have traffic in flight.
const CRASH_AT: SimDuration = SimDuration::from_micros(400);

struct ChaosCell {
    label: &'static str,
    fault: FaultConfig,
    /// Arm the scripted partition that kills shard 0's primary mid-batch.
    kill_primary: bool,
}

#[derive(Debug)]
struct ChaosResult {
    label: String,
    shards: usize,
    replicas: usize,
    ops: usize,
    makespan: SimDuration,
    stats: ServiceStats,
    lost: usize,
    duplicated: usize,
    epoch: u64,
    old_primary: usize,
    new_primary: usize,
    killed: bool,
    /// The heal of the crashed ex-primary (zeroed when nothing crashed).
    heal: RepairReport,
    /// All replicas' root digests agree after heal + fresh writes.
    post_heal_consistent: bool,
    /// The cell's distributed trace (JSONL), when `--trace-out` is set —
    /// forwarding legs included, for the `trace_tool --check` gate.
    spans_jsonl: Option<String>,
}

fn run_chaos_cell(
    cell: &ChaosCell,
    args: &BenchArgs,
    size: usize,
    ops: usize,
    shards: usize,
    replicas: usize,
) -> ChaosResult {
    assert!(replicas >= 2, "chaos cells need a backup to promote");
    let kill = cell.kill_primary;
    let timeout = SimDuration::from_micros(args.timeout_us.unwrap_or(500));
    // A tighter budget than fault_sweep's: retry exhaustion is the
    // failure detector here, and 16 straight losses at 10% is already
    // a once-per-1e16 event.
    let max_retries = args.max_retries.unwrap_or(16);
    // Chaos rides shard 0's build-time primary only: write loss for the
    // whole run, plus (when armed) a partition window that takes the whole
    // NIC off the fabric mid-batch and never gives it back — a crash, as
    // the fabric sees one. The post-heal probe gets a machine of its own.
    let fault = FaultConfig {
        partition_window: kill.then_some((SimTime::ZERO + CRASH_AT, SimDuration::from_secs(600))),
        ..cell.fault
    };
    let spec = ExperimentSpec {
        clients: CLIENTS + 1,
        client_nodes: CLIENTS + 1,
        shards,
        replicas,
        fault_shard: Some(0),
        collect_spans: args.trace_out.is_some(),
        ..chaos::spec(
            size,
            args.seed,
            fault,
            chaos::adaptive(),
            timeout,
            max_retries,
        )
    };
    let (label, killed) = (cell.label.to_string(), kill);
    Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let cluster = bed.cluster();
        let old_primary = cluster.ctl(0).primary();
        chaos::arm_watchdog("repair_sweep chaos cell");
        // Right after the crash a read may still route to the dead primary
        // (its staleness hasn't tripped yet), so read-backs retry: the
        // failsafe fails the read over to a live backup within a few
        // heartbeat intervals.
        let w = chaos::insert_read_back(&bed, spec.seed, ops, 32).await;
        let mut stats = w.stats;
        stats.fold_server(&cluster.stats());
        // Exactly-once on the *current* primaries: every acked id appears
        // exactly once across the shards' live views, no matter how many
        // sends were lost or reissued across the promotion.
        let (lost, duplicated) = chaos::audit_exactly_once(cluster, CLIENTS * ops, w.unacked);
        let ctl = cluster.ctl(0);
        let (epoch, new_primary) = (ctl.epoch(), ctl.primary());
        if kill {
            assert!(
                epoch >= 1 && new_primary != old_primary && !ctl.is_alive(old_primary),
                "partitioned primary was never deposed (epoch {epoch}, primary {new_primary})"
            );
        }

        // Heal the crashed member: lift the partition (the operator
        // rebooted the NIC), reconcile by hash-range bisection, and
        // revive. Every surviving replica already agrees (synchronous
        // forwarding); the revived one must agree after repair — and
        // keep agreeing for writes issued after revival.
        let heal = if kill {
            cluster
                .replica(0, old_primary)
                .endpoint()
                .set_fault_plan(None);
            let report = cluster.heal(0, old_primary);
            assert!(report.converged, "heal failed to converge: {report:?}");
            report
        } else {
            RepairReport::default()
        };
        let mut probe = bed.connect_with(
            CLIENTS,
            ClientConfig {
                mode: AccessMode::FastMessaging,
                ..ClientConfig::default()
            },
            spec.seed ^ 0xD1E5_ED00,
        );
        for j in 0..16u64 {
            let r = unique_rect(900_000 + j);
            assert!(
                probe.insert(r, POST_HEAL_BASE + j).await,
                "post-heal insert refused"
            );
        }
        stats.merge(&probe.stats());
        let mut consistent = true;
        for s in 0..cluster.shards() {
            let want = cluster.member_digest(s, cluster.ctl(s).primary());
            for r in 0..cluster.replicas() {
                if cluster.ctl(s).is_alive(r) {
                    consistent &= cluster.member_digest(s, r) == want;
                }
            }
        }
        ChaosResult {
            label,
            shards,
            replicas,
            ops: CLIENTS * ops,
            makespan: w.makespan,
            stats,
            lost,
            duplicated,
            epoch,
            old_primary,
            new_primary,
            killed,
            heal,
            post_heal_consistent: consistent,
            spans_jsonl: bed.trace().map(|s| s.to_jsonl()),
        }
    })
}

#[derive(Debug)]
struct RepairCell {
    label: String,
    n: usize,
    divergence: usize,
    report: RepairReport,
}

/// Builds a 2-member replica set over `n` entries, deletes `d` entries
/// spread across the backup's repair-key space, and reconciles.
fn run_repair_cell(label: &str, n: usize, d: usize) -> RepairCell {
    let spec = ExperimentSpec {
        clients: 0,
        dataset: chaos::dataset(n),
        server: ServerConfig {
            cores: 2,
            ..ServerConfig::default()
        },
        tree_config: RTreeConfig::with_max_entries(88),
        fault: Some(FaultConfig::off()),
        replicas: 2,
        ..ExperimentSpec::default()
    };
    let report = Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        let cluster = bed.cluster();
        // Diverge the backup: drop `d` entries spread evenly across the
        // key space — the scattered case, where a contiguous-range
        // shortcut would not help the walk. The entry list is dropped
        // before repair takes its own snapshots.
        {
            let backup = cluster.replica(0, 1);
            let mut entries = backup.with_index(|ix| ix.repair_entries());
            entries.sort_unstable_by_key(|&(key, _, _)| key);
            let stride = (entries.len() / d.max(1)).max(1);
            let victims: Vec<_> = entries.iter().step_by(stride).take(d).collect();
            assert_eq!(victims.len(), d, "dataset too small for divergence {d}");
            backup.with_index_mut(|ix| {
                for (_, _, entry) in victims {
                    ix.remove_entry(entry);
                }
            });
        }
        cluster.repair_replica(0, 1)
    });
    RepairCell {
        label: label.to_string(),
        n,
        divergence: d,
        report,
    }
}

fn json_chaos(r: &ChaosResult) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"shards\":{},\"replicas\":{},\"ops\":{},",
            "\"makespan_ms\":{:.3},\"kill_primary\":{},\"timeouts\":{},\"retransmits\":{},",
            "\"repl_forwards\":{},\"repl_dups\":{},\"repl_fenced\":{},\"repl_lag_ns\":{},",
            "\"epoch\":{},\"old_primary\":{},\"new_primary\":{},",
            "\"lost\":{},\"duplicated\":{},\"exactly_once\":{},",
            "\"heal_rounds\":{},\"heal_transferred\":{},\"heal_removed\":{},",
            "\"heal_bytes_moved\":{},\"heal_full_resync_bytes\":{},\"heal_converged\":{},",
            "\"post_heal_consistent\":{}}}"
        ),
        r.label,
        r.shards,
        r.replicas,
        r.ops,
        r.makespan.as_nanos() as f64 / 1e6,
        r.killed,
        r.stats.timeouts,
        r.stats.retransmits,
        r.stats.repl_forwards,
        r.stats.repl_dups,
        r.stats.repl_fenced,
        r.stats.repl_lag_ns,
        r.epoch,
        r.old_primary,
        r.new_primary,
        r.lost,
        r.duplicated,
        r.lost == 0 && r.duplicated == 0,
        r.heal.rounds,
        r.heal.transferred,
        r.heal.removed,
        r.heal.bytes_moved,
        r.heal.full_resync_bytes,
        r.heal.converged,
        r.post_heal_consistent,
    )
}

fn json_repair(c: &RepairCell) -> String {
    let r = &c.report;
    let ratio = if r.bytes_moved > 0 {
        r.full_resync_bytes as f64 / r.bytes_moved as f64
    } else {
        f64::INFINITY
    };
    format!(
        concat!(
            "{{\"label\":\"{}\",\"n\":{},\"divergence\":{},\"rounds\":{},",
            "\"ranges_compared\":{},\"transferred\":{},\"removed\":{},",
            "\"bytes_moved\":{},\"full_resync_bytes\":{},\"resync_savings\":{:.2},",
            "\"converged\":{}}}"
        ),
        c.label,
        c.n,
        c.divergence,
        r.rounds,
        r.ranges_compared,
        r.transferred,
        r.removed,
        r.bytes_moved,
        r.full_resync_bytes,
        ratio,
        r.converged,
    )
}

fn log2_ceil(n: usize) -> u64 {
    (usize::BITS - n.next_power_of_two().leading_zeros()) as u64
}

fn main() {
    let args = BenchArgs::parse();
    let shards = args.one_shard_count();
    let replicas = args.replicas.max(3);
    banner(
        "Repair sweep",
        "exactly-once across primary failover; O(log n) anti-entropy repair",
    );
    let size = if args.paper {
        args.size
    } else {
        args.size.min(20_000)
    };
    let ops = if args.paper {
        args.requests
    } else {
        args.requests.min(150)
    };
    println!(
        "dataset {size} rects, {shards} shard(s) x {replicas} replicas, {CLIENTS} clients x {ops} inserts, timeout {} us, retries {} (chaos on shard 0's primary)",
        args.timeout_us.unwrap_or(500),
        args.max_retries.unwrap_or(16),
    );

    let mut cells = vec![
        ChaosCell {
            label: "loss_10pct",
            fault: FaultConfig {
                drop_write: 0.10,
                ..FaultConfig::off()
            },
            kill_primary: false,
        },
        ChaosCell {
            label: "primary_crash",
            fault: FaultConfig {
                drop_write: 0.10,
                ..FaultConfig::off()
            },
            kill_primary: true,
        },
    ];
    // Explicit knobs replace the built-in pair with one custom cell;
    // --kill-primary arms the scripted mid-batch partition.
    if args.loss > 0.0 || args.stall > 0.0 || args.hb_drop > 0.0 {
        cells = vec![ChaosCell {
            label: "custom",
            fault: FaultConfig {
                drop_write: args.loss,
                stall: args.stall,
                suppress_heartbeat: args.hb_drop,
                ..FaultConfig::off()
            },
            kill_primary: args.kill_primary,
        }];
    }

    let mut chaos = Vec::new();
    for cell in &cells {
        let r = timed(cell.label, || {
            run_chaos_cell(cell, &args, size, ops, shards, replicas)
        });
        println!(
            "{:<14} timeouts {:>5}  retransmits {:>5}  forwards {:>6}  dups {:>4}  fenced {:>4}  epoch {}  primary {}->{}  lost {} dup {}  heal rounds {} moved {}B  consistent {}",
            r.label,
            r.stats.timeouts,
            r.stats.retransmits,
            r.stats.repl_forwards,
            r.stats.repl_dups,
            r.stats.repl_fenced,
            r.epoch,
            r.old_primary,
            r.new_primary,
            r.lost,
            r.duplicated,
            r.heal.rounds,
            r.heal.bytes_moved,
            r.post_heal_consistent,
        );
        assert_eq!(r.lost, 0, "{}: {} acked ops lost", r.label, r.lost);
        assert_eq!(
            r.duplicated, 0,
            "{}: {} acked ops applied twice",
            r.label, r.duplicated
        );
        assert!(
            r.post_heal_consistent,
            "{}: replicas diverged after heal",
            r.label
        );
        if r.killed {
            assert!(
                r.heal.converged,
                "{}: crashed primary failed to reconverge",
                r.label
            );
        }
        chaos.push(r);
    }
    // Export the last traced chaos cell for `trace_tool --check`: the
    // forwarding legs must be connected child spans of their requests.
    if let Some(base) = &args.trace_out {
        if let Some(jsonl) = chaos.iter().rev().find_map(|r| r.spans_jsonl.as_ref()) {
            let path = format!("{base}.spans.jsonl");
            std::fs::write(&path, jsonl).expect("write span export");
            println!("wrote {path}");
        }
    }

    // Repair scaling: rounds grow with log2(n), not with n; at ≤1%
    // divergence the walk beats a full resync by ≥5x in wire bytes.
    let repair_grid: Vec<(String, usize, usize)> = {
        let mut g = vec![
            ("scale_n4096".to_string(), 4096, 16),
            ("scale_n16384".to_string(), 16384, 16),
            ("scale_n65536".to_string(), 65536, 16),
        ];
        for permille in [1usize, 5, 10] {
            let n = 65_536;
            g.push((
                format!("diverge_{permille}permille"),
                n,
                (n * permille / 1000).max(1),
            ));
        }
        g
    };
    let mut repairs = Vec::new();
    for (label, n, d) in &repair_grid {
        let c = timed(label, || run_repair_cell(label, *n, *d));
        let r = &c.report;
        let bound = 2 * log2_ceil(*n) + 2;
        println!(
            "{:<22} n {:>6}  d {:>4}  rounds {:>2} (≤{})  ranges {:>5}  transferred {:>4}  moved {:>8}B vs resync {:>9}B ({:.1}x)",
            c.label,
            c.n,
            c.divergence,
            r.rounds,
            bound,
            r.ranges_compared,
            r.transferred,
            r.bytes_moved,
            r.full_resync_bytes,
            r.full_resync_bytes as f64 / r.bytes_moved.max(1) as f64,
        );
        assert!(r.converged, "{}: repair did not converge", c.label);
        assert_eq!(
            r.transferred as usize, c.divergence,
            "{}: wrong entry count re-shipped",
            c.label
        );
        // The authority only ever holds more entries here: a tombstone
        // would be a walk bug.
        assert_eq!(r.removed, 0, "{}: removed entries", c.label);
        assert!(
            r.rounds <= bound,
            "{}: {} rounds breaks the O(log n) bound {}",
            c.label,
            r.rounds,
            bound
        );
        assert!(
            r.bytes_moved * 5 <= r.full_resync_bytes,
            "{}: repair moved {} bytes, full resync {} — less than 5x savings",
            c.label,
            r.bytes_moved,
            r.full_resync_bytes
        );
        repairs.push(c);
    }

    let body = format!(
        "{{\"command\":{},\"harness\":\"repair_sweep\",\"clients\":{CLIENTS},\"shards\":{shards},\"replicas\":{replicas},\"ops_per_client\":{ops},\"dataset\":{size},\"seed\":{},\"chaos\":[\n{}\n],\"repair\":[\n{}\n]}}\n",
        command_json(),
        args.seed,
        chaos.iter().map(json_chaos).collect::<Vec<_>>().join(",\n"),
        repairs.iter().map(json_repair).collect::<Vec<_>>().join(",\n"),
    );
    let out = args
        .metrics_out
        .clone()
        .map(|b| format!("{b}.json"))
        .unwrap_or_else(|| "BENCH_repair.json".to_string());
    std::fs::write(&out, body).expect("write repair sweep results");
    println!("all gates green: wrote {out}");
}
