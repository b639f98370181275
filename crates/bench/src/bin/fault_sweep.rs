//! Chaos harness: sweeps injected fault rates (RDMA write loss, worker
//! stalls, heartbeat suppression, payload corruption) over an insert-heavy
//! workload and checks the exactly-once contract — every acknowledged
//! insert is in the tree exactly once, no matter how many frames were
//! dropped, duplicated, corrupted, or discarded by a crashing worker.
//!
//! Each client inserts rectangles tagged with globally unique ids, so a
//! duplicated (non-idempotent) retry would be visible as the same id
//! appearing twice in a server-side search. After the workload joins, the
//! harness searches the server's tree for every inserted id and counts
//! occurrences: `lost` (0 hits) and `duplicated` (>1 hits) must both be
//! zero in every cell.
//!
//! Emits `BENCH_faults.json` with the fault-rate → p99 / retransmission
//! curve (see EXPERIMENTS.md). A virtual-time watchdog panics if a cell
//! wedges instead of recovering.

use catfish_bench::chaos::{self, CLIENTS};
use catfish_bench::{banner, command_json, timed, BenchArgs};
use catfish_core::config::AccessMode;
use catfish_core::harness::{ExperimentSpec, Testbed};
use catfish_core::obs::{Anomaly, FlightDump, LatencyHistogram};
use catfish_core::ServiceStats;
use catfish_rdma::{FaultConfig, FaultCounters};
use catfish_simnet::{Sim, SimDuration};

struct Cell {
    label: &'static str,
    fault: FaultConfig,
    /// Serve every read through mailbox fetching ([`AccessMode::Fetching`])
    /// so the one-sided pull path rides the same chaos as the ring.
    fetch: bool,
}

#[derive(Debug)]
struct CellResult {
    label: String,
    fault: FaultConfig,
    ops: usize,
    makespan: SimDuration,
    hist: LatencyHistogram,
    stats: ServiceStats,
    injected: FaultCounters,
    lost: usize,
    duplicated: usize,
    /// Mailbox slot leases still outstanding after the post-run grace
    /// period (every lease must be reclaimed — acked or TTL-swept).
    leaked_slots: usize,
    /// Every flight-recorder dump fired by any client connection.
    flight: Vec<FlightDump>,
    /// CRC failures observed on the *client* side only (the folded
    /// [`ServiceStats`] also count server-side failures, but only
    /// client-side ones fire a client flight dump).
    client_crc: u64,
}

/// One chaos cell on a `shards`-way cluster. One shard faults every NIC,
/// clients' included; with more shards the plan attaches to **shard 0's
/// server NIC only** and the other shards and every client NIC run clean.
/// Inserts spread across the space partition, so ops homed on shard 0
/// ride the chaos while the rest of the cluster stays healthy; the
/// exactly-once audit counts each id across *all* shards, so a retry
/// mis-applied to a sibling shard would show up as a duplicate.
fn run_cell(cell: &Cell, args: &BenchArgs, size: usize, ops: usize, shards: usize) -> CellResult {
    let spec = ExperimentSpec {
        shards,
        fault_shard: (shards > 1).then_some(0),
        ..chaos::spec(
            size,
            args.seed,
            cell.fault,
            if cell.fetch {
                AccessMode::Fetching
            } else {
                chaos::adaptive()
            },
            SimDuration::from_micros(args.timeout_us.unwrap_or(500)),
            args.max_retries.unwrap_or(64),
        )
    };
    let (label, fault) = (cell.label.to_string(), cell.fault);
    Sim::new().run_until(async move {
        let bed: Testbed = Testbed::build(&spec, spec.tree_config, spec.dataset.clone());
        chaos::arm_watchdog("fault_sweep cell");
        let w = chaos::insert_read_back(&bed, spec.seed, ops, 1).await;
        let leaked_slots = chaos::leaked_slots(bed.cluster()).await;
        let mut stats = w.stats;
        let client_crc = stats.checksum_failures;
        stats.fold_server(&bed.cluster().stats());
        let (lost, duplicated) = chaos::audit_exactly_once(bed.cluster(), CLIENTS * ops, w.unacked);
        CellResult {
            label,
            fault,
            ops: CLIENTS * ops,
            makespan: w.makespan,
            hist: w.hist,
            stats,
            injected: bed.fault_plan().map(|p| p.counters()).unwrap_or_default(),
            lost,
            duplicated,
            leaked_slots,
            flight: w.flight,
            client_crc,
        }
    })
}

/// Flight-recorder smoke: every client-side timeout, CRC failure and
/// stale-heartbeat window must have produced an annotated dump, and once
/// a connection has warmed up
/// (its event ring reached 32 entries — the ring never shrinks, so
/// per-connection history depth is monotone) every later dump must carry
/// that ≥32-event history. Returns (timeout_dumps, crc_dumps) for the
/// row and the JSON record.
fn check_flight(r: &CellResult) -> (u64, u64) {
    let timeout_dumps = r
        .flight
        .iter()
        .filter(|d| matches!(d.anomaly, Anomaly::Timeout { .. }))
        .count() as u64;
    let crc_dumps = r
        .flight
        .iter()
        .filter(|d| d.anomaly == Anomaly::ChecksumFailure)
        .count() as u64;
    let stale_dumps = r
        .flight
        .iter()
        .filter(|d| matches!(d.anomaly, Anomaly::StaleHeartbeat { .. }))
        .count() as u64;
    // stats.flight_dumps counts every fired dump (including any dropped
    // past the retention cap); the per-anomaly equalities only hold when
    // nothing was dropped — always the case at sweep scale.
    if r.stats.flight_dumps == r.flight.len() as u64 {
        assert_eq!(
            timeout_dumps, r.stats.timeouts,
            "{}: {} timeouts but {} timeout flight dumps",
            r.label, r.stats.timeouts, timeout_dumps
        );
        assert_eq!(
            crc_dumps, r.client_crc,
            "{}: {} client CRC failures but {} checksum flight dumps",
            r.label, r.client_crc, crc_dumps
        );
        assert_eq!(
            stale_dumps, r.stats.stale_heartbeat_windows,
            "{}: {} stale-heartbeat windows but {} stale flight dumps",
            r.label, r.stats.stale_heartbeat_windows, stale_dumps
        );
    }
    let mut warm: std::collections::HashMap<(u32, u32), bool> = std::collections::HashMap::new();
    for d in &r.flight {
        let w = warm.entry((d.client, d.shard)).or_insert(false);
        if *w {
            assert!(
                d.history.len() >= 32,
                "{}: dump on warm connection ({}, {}) carries only {} events of history",
                r.label,
                d.client,
                d.shard,
                d.history.len()
            );
        }
        *w |= d.history.len() >= 32;
    }
    // A chaos cell with sustained traffic must produce at least one
    // deep-history dump — otherwise the ring is being cleared somewhere.
    if r.stats.timeouts > 16 {
        assert!(
            warm.values().any(|&w| w),
            "{}: {} timeouts yet no flight dump reached 32 events of history",
            r.label,
            r.stats.timeouts
        );
    }
    (timeout_dumps, crc_dumps)
}

fn json_cell(r: &CellResult) -> String {
    let s = r.hist.summary();
    let us = |d: SimDuration| d.as_nanos() as f64 / 1e3;
    format!(
        concat!(
            "{{\"label\":\"{}\",\"loss\":{},\"hb_drop\":{},\"stall\":{},\"corrupt\":{},",
            "\"dupe\":{},\"delay\":{},\"ops\":{},\"makespan_ms\":{:.3},",
            "\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},",
            "\"timeouts\":{},\"retransmits\":{},\"dup_drops\":{},",
            "\"checksum_failures\":{},\"resyncs\":{},\"stale_heartbeat_windows\":{},",
            "\"injected\":{{\"writes_dropped\":{},\"completions_duplicated\":{},",
            "\"writes_delayed\":{},\"frames_corrupted\":{},\"heartbeats_suppressed\":{},",
            "\"stalls\":{}}},\"fetched_reads\":{},\"fetch_fallbacks\":{},",
            "\"leaked_slots\":{},\"lost\":{},\"duplicated\":{},\"exactly_once\":{},",
            "\"flight_dumps\":{},\"timeout_dumps\":{},\"checksum_dumps\":{}}}"
        ),
        r.label,
        r.fault.drop_write,
        r.fault.suppress_heartbeat,
        r.fault.stall,
        r.fault.corrupt,
        r.fault.duplicate,
        r.fault.delay,
        r.ops,
        r.makespan.as_nanos() as f64 / 1e6,
        us(s.mean),
        us(s.p50),
        us(s.p99),
        r.stats.timeouts,
        r.stats.retransmits,
        r.stats.dup_drops,
        r.stats.checksum_failures,
        r.stats.resyncs,
        r.stats.stale_heartbeat_windows,
        r.injected.writes_dropped,
        r.injected.completions_duplicated,
        r.injected.writes_delayed,
        r.injected.frames_corrupted,
        r.injected.heartbeats_suppressed,
        r.injected.stalls,
        r.stats.fetched_reads,
        r.stats.fetch_fallbacks,
        r.leaked_slots,
        r.lost,
        r.duplicated,
        r.lost == 0 && r.duplicated == 0 && r.leaked_slots == 0,
        r.stats.flight_dumps,
        r.flight
            .iter()
            .filter(|d| matches!(d.anomaly, Anomaly::Timeout { .. }))
            .count(),
        r.flight
            .iter()
            .filter(|d| d.anomaly == Anomaly::ChecksumFailure)
            .count(),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let shards = args.one_shard_count();
    banner(
        "Fault sweep",
        "exactly-once under injected loss, stalls, and heartbeat suppression",
    );
    // Chaos cells are dominated by timeout recovery, not index scale;
    // a moderate tree keeps the sweep fast without weakening the check.
    let size = if args.paper {
        args.size
    } else {
        args.size.min(50_000)
    };
    let ops = if args.paper {
        args.requests
    } else {
        args.requests.min(150)
    };
    println!(
        "dataset {size} rects, {shards} shard(s), {CLIENTS} clients x {ops} inserts, timeout {} us, retries {}{}",
        args.timeout_us.unwrap_or(500),
        args.max_retries.unwrap_or(64),
        if shards > 1 {
            " (faults on shard 0 only)"
        } else {
            ""
        },
    );

    let mut cells = vec![
        Cell {
            label: "baseline",
            fault: FaultConfig::off(),
            fetch: false,
        },
        Cell {
            label: "loss_1pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.01,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss_5pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.05,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss_10pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.10,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss5_hb90",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "chaos_mix",
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                stall: 0.01,
                corrupt: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                ..FaultConfig::off()
            },
            fetch: false,
        },
        // The same chaos mix with every read pulled through the mailbox:
        // exactly-once and the slot-leak audit must hold on the fetch
        // transport too.
        Cell {
            label: "chaos_fetch",
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                stall: 0.01,
                corrupt: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                ..FaultConfig::off()
            },
            fetch: true,
        },
        // Clean-fabric fetch cell: isolates the mailbox protocol itself.
        Cell {
            label: "fetch_clean",
            fault: FaultConfig::off(),
            fetch: true,
        },
    ];
    // Explicit knobs replace the built-in sweep with one custom cell.
    if args.loss > 0.0 || args.stall > 0.0 || args.hb_drop > 0.0 {
        cells = vec![Cell {
            label: "custom",
            fault: FaultConfig {
                drop_write: args.loss,
                stall: args.stall,
                suppress_heartbeat: args.hb_drop,
                ..FaultConfig::off()
            },
            fetch: false,
        }];
    }

    let mut results = Vec::new();
    for cell in &cells {
        let r = timed(cell.label, || run_cell(cell, &args, size, ops, shards));
        let s = r.hist.summary();
        let (timeout_dumps, crc_dumps) = check_flight(&r);
        println!(
            "{:<12} p50 {:>10} p99 {:>10}  timeouts {:>5}  retransmits {:>5}  dup_drops {:>4}  crc {:>4}  resyncs {:>4}  stale_hb {:>3}  fetched {:>5}  dumps {:>5} (t{} c{})  lost {} dup {} leaked {}",
            r.label,
            s.p50.to_string(),
            s.p99.to_string(),
            r.stats.timeouts,
            r.stats.retransmits,
            r.stats.dup_drops,
            r.stats.checksum_failures,
            r.stats.resyncs,
            r.stats.stale_heartbeat_windows,
            r.stats.fetched_reads,
            r.stats.flight_dumps,
            timeout_dumps,
            crc_dumps,
            r.lost,
            r.duplicated,
            r.leaked_slots,
        );
        assert!(
            r.stats.retransmits <= r.stats.timeouts,
            "{}: every retransmission follows a timeout ({} > {})",
            r.label,
            r.stats.retransmits,
            r.stats.timeouts
        );
        assert_eq!(r.lost, 0, "{}: {} operations lost", r.label, r.lost);
        assert_eq!(
            r.duplicated, 0,
            "{}: {} operations applied twice",
            r.label, r.duplicated
        );
        assert_eq!(
            r.leaked_slots, 0,
            "{}: {} mailbox slots leaked",
            r.label, r.leaked_slots
        );
        results.push(r);
    }

    let body = format!(
        "{{\"command\":{},\"harness\":\"fault_sweep\",\"clients\":{CLIENTS},\"shards\":{shards},\"ops_per_client\":{ops},\"dataset\":{size},\"seed\":{},\"cells\":[\n{}\n]}}\n",
        command_json(),
        args.seed,
        results
            .iter()
            .map(json_cell)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let out = args
        .metrics_out
        .clone()
        .map(|b| format!("{b}.json"))
        .unwrap_or_else(|| "BENCH_faults.json".to_string());
    std::fs::write(&out, body).expect("write fault sweep results");
    println!("all cells exactly-once: wrote {out}");
}
