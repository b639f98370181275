//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary accepts the same flags (all optional):
//!
//! * `--size N` — rectangles in the pre-built tree (default 200 000;
//!   the paper uses 2 000 000 — pass `--paper` for full scale);
//! * `--requests N` — search requests per client (default 200; paper
//!   uses 10 000);
//! * `--clients a,b,c` — client counts to sweep (figure-specific default);
//! * `--paper` — full paper-scale parameters (slow: minutes per figure);
//! * `--seed N` — RNG seed (default 42);
//! * `--metrics-out BASE` — write `BASE.prom` (Prometheus text format)
//!   and `BASE.jsonl` metric snapshots of the run (binaries that record
//!   adaptive events also write `BASE.events.jsonl`).
//!
//! Absolute numbers are simulation outputs, not testbed measurements; the
//! reproduction target is the *shape* of each figure (see EXPERIMENTS.md).

use catfish_rtree::RTreeConfig;
use std::time::Instant;

/// Common benchmark knobs parsed from the command line.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Tree size (rectangles).
    pub size: usize,
    /// Requests per client.
    pub requests: usize,
    /// Client counts to sweep (None = figure default).
    pub clients: Option<Vec<usize>>,
    /// RNG seed.
    pub seed: u64,
    /// Full paper-scale run.
    pub paper: bool,
    /// Base path for metric snapshots (`--metrics-out`): the binary
    /// writes `<base>.prom` and `<base>.jsonl` when set.
    pub metrics_out: Option<String>,
    /// Fault injection: RDMA write-loss probability (`--loss`, default 0).
    pub loss: f64,
    /// Fault injection: per-frame worker-stall probability (`--stall`).
    pub stall: f64,
    /// Fault injection: per-tick heartbeat suppression probability
    /// (`--hb-drop`).
    pub hb_drop: f64,
    /// Client per-attempt request timeout override in microseconds
    /// (`--timeout`).
    pub timeout_us: Option<u64>,
    /// Client retransmission budget override (`--max-retries`).
    pub max_retries: Option<u32>,
    /// Shard counts to sweep (`--shards a,b,c`; None = binary default,
    /// usually 1 = the paper's single server as a one-shard cluster).
    pub shards: Option<Vec<usize>>,
    /// Base path for distributed-trace exports (`--trace-out`): the binary
    /// enables span collection and writes `<base>.spans.jsonl` (one span
    /// record per line) and `<base>.trace.json` (Chrome `trace_event`
    /// format, loadable in `chrome://tracing` / Perfetto).
    pub trace_out: Option<String>,
    /// Declared service-level objectives (`--slo`, e.g.
    /// `p99=500us,kops=50,budget=0.01`). Binaries that support the gate
    /// evaluate the run against the spec and exit nonzero on violation.
    pub slo: Option<catfish_core::obs::SloSpec>,
    /// Members per replica set (`--replicas k`; 1 = unreplicated). Every
    /// shard becomes a k-way replica set with primary-forwarded mutations
    /// and epoch-fenced failover.
    pub replicas: usize,
    /// Crash the primary of shard 0 partway through the run
    /// (`--kill-primary`): supported binaries partition it mid-batch,
    /// let the set promote, then audit exactly-once delivery.
    pub kill_primary: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            size: 1_000_000,
            requests: 1_000,
            clients: None,
            seed: 42,
            paper: false,
            metrics_out: None,
            loss: 0.0,
            stall: 0.0,
            hb_drop: 0.0,
            timeout_us: None,
            max_retries: None,
            shards: None,
            trace_out: None,
            slo: None,
            replicas: 1,
            kill_primary: false,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args`, panicking with usage on malformed input.
    pub fn parse() -> Self {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--size" => out.size = next_num(&mut args, "--size") as usize,
                "--requests" => out.requests = next_num(&mut args, "--requests") as usize,
                "--seed" => out.seed = next_num(&mut args, "--seed"),
                "--clients" => {
                    let v = args.next().expect("--clients needs a,b,c");
                    out.clients = Some(
                        v.split(',')
                            .map(|s| s.parse().expect("client counts are integers"))
                            .collect(),
                    );
                }
                "--paper" => {
                    out.paper = true;
                    out.size = 2_000_000;
                    out.requests = 10_000;
                }
                "--metrics-out" => {
                    out.metrics_out = Some(args.next().expect("--metrics-out needs a base path"));
                }
                "--trace-out" => {
                    out.trace_out = Some(args.next().expect("--trace-out needs a base path"));
                }
                "--slo" => {
                    let v = args
                        .next()
                        .expect("--slo needs a spec like p99=500us,kops=50");
                    out.slo = Some(
                        catfish_core::obs::SloSpec::parse(&v)
                            .unwrap_or_else(|e| panic!("--slo: {e}")),
                    );
                }
                "--loss" => out.loss = next_prob(&mut args, "--loss"),
                "--stall" => out.stall = next_prob(&mut args, "--stall"),
                "--hb-drop" => out.hb_drop = next_prob(&mut args, "--hb-drop"),
                "--timeout" => out.timeout_us = Some(next_num(&mut args, "--timeout")),
                "--max-retries" => {
                    out.max_retries = Some(next_num(&mut args, "--max-retries") as u32);
                }
                "--shards" => {
                    let v = args.next().expect("--shards needs a,b,c");
                    let counts: Vec<usize> = v
                        .split(',')
                        .map(|s| s.parse().expect("shard counts are integers"))
                        .collect();
                    assert!(
                        counts.iter().all(|&s| s > 0),
                        "--shards counts must be positive"
                    );
                    out.shards = Some(counts);
                }
                "--replicas" => {
                    out.replicas = next_num(&mut args, "--replicas") as usize;
                    assert!(out.replicas > 0, "--replicas must be positive");
                }
                "--kill-primary" => out.kill_primary = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --size N --requests N --clients a,b,c --shards a,b,c --replicas K --kill-primary \
                         --seed N --paper --metrics-out BASE \
                         --trace-out BASE --slo SPEC --loss P --stall P --hb-drop P --timeout USEC --max-retries N  \
                         (defaults: 1M rects, 1000 req/client, 1 shard, 1 replica, faults off)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        out
    }
}

fn next_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag} needs an integer"))
}

fn next_prob(args: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    let p: f64 = args
        .next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag} needs a probability"));
    assert!((0.0..=1.0).contains(&p), "{flag} must be in [0, 1]");
    p
}

impl BenchArgs {
    /// Enables span collection on `spec` when `--trace-out` was given.
    /// Call alongside [`BenchArgs::apply_faults`]; with the flag unset
    /// this is a no-op.
    pub fn apply_tracing(&self, spec: &mut catfish_core::harness::ExperimentSpec) {
        if self.trace_out.is_some() {
            spec.collect_spans = true;
        }
    }

    /// Writes the run's distributed trace to `<base>.spans.jsonl` and
    /// `<base>.trace.json` when `--trace-out` was given, printing the
    /// paths and the assembly's connectivity (export failures never fail
    /// a benchmark). No-op without the flag.
    pub fn write_trace(&self, result: &catfish_core::harness::RunResult) {
        let Some(base) = &self.trace_out else {
            return;
        };
        let asm = catfish_core::obs::TraceAssembler::assemble(&result.spans);
        let mut jsonl = String::new();
        for s in &result.spans {
            jsonl.push_str(&s.to_json());
            jsonl.push('\n');
        }
        let spans_path = format!("{base}.spans.jsonl");
        let chrome_path = format!("{base}.trace.json");
        match std::fs::write(&spans_path, jsonl)
            .and_then(|()| std::fs::write(&chrome_path, asm.to_chrome_json()))
        {
            Ok(()) => println!(
                "[trace] wrote {spans_path} and {chrome_path} ({} spans, {} traces, {})",
                result.spans.len(),
                asm.len(),
                if asm.all_connected() {
                    "all connected".to_string()
                } else {
                    format!("{} DISCONNECTED", asm.disconnected().len())
                }
            ),
            Err(e) => eprintln!("[trace] write failed for base {base}: {e}"),
        }
    }

    /// Evaluates the run against `--slo` (when given), printing the
    /// per-objective burn rates. Returns `false` on violation — callers
    /// exit nonzero so CI can gate on declared objectives. Requests that
    /// expired at least one attempt (timeouts) count against the error
    /// budget.
    pub fn check_slo(&self, result: &catfish_core::harness::RunResult) -> bool {
        self.check_slo_parts(
            &result.hist,
            result.throughput_kops,
            result.stats.timeouts,
            result.completed_requests as u64,
        )
    }

    /// Like [`BenchArgs::check_slo`] for binaries that measure outside the
    /// harness: evaluate a raw latency histogram, throughput, and error
    /// count against `--slo`.
    pub fn check_slo_parts(
        &self,
        hist: &catfish_core::LatencyHistogram,
        kops: f64,
        errors: u64,
        requests: u64,
    ) -> bool {
        let Some(spec) = &self.slo else {
            return true;
        };
        let report = spec.evaluate(hist, kops, errors, requests);
        for line in report.to_string().lines() {
            println!("[slo] {line}");
        }
        report.ok()
    }

    /// Applies the fault-injection and retry knobs to `spec`. With all
    /// knobs at their defaults this is a no-op, so every figure binary can
    /// call it unconditionally and stay byte-identical to a knob-free run.
    pub fn apply_faults(&self, spec: &mut catfish_core::harness::ExperimentSpec) {
        if self.loss > 0.0 || self.stall > 0.0 || self.hb_drop > 0.0 {
            spec.fault = Some(catfish_rdma::FaultConfig {
                drop_write: self.loss,
                stall: self.stall,
                suppress_heartbeat: self.hb_drop,
                ..catfish_rdma::FaultConfig::off()
            });
        }
        if let Some(us) = self.timeout_us {
            spec.request_timeout = Some(catfish_simnet::SimDuration::from_micros(us));
        }
        if let Some(r) = self.max_retries {
            spec.max_retries = Some(r);
        }
    }
}

/// Prints a figure banner.
pub fn banner(figure: &str, what: &str) {
    println!("==================================================================");
    println!("{figure} — {what}");
    println!("==================================================================");
}

/// Writes a [`catfish_core::MetricsRegistry`] snapshot to
/// `<base>.prom`/`<base>.jsonl` when `--metrics-out` was given, printing
/// the paths (or the error — metrics failures never fail a benchmark).
pub fn write_metrics(args: &BenchArgs, reg: &catfish_core::MetricsRegistry) {
    let Some(base) = &args.metrics_out else {
        return;
    };
    match reg.write_files(base) {
        Ok((prom, jsonl)) => println!("[metrics] wrote {prom} and {jsonl}"),
        Err(e) => eprintln!("[metrics] write failed for base {base}: {e}"),
    }
}

/// Runs `f`, printing wall-clock time spent simulating.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("[wall] {label}: {:.1}s", start.elapsed().as_secs_f64());
    out
}

/// The tree configuration used by the figure benchmarks: fanout 88 packs
/// a node into exactly one 4 KiB chunk (64 cache lines), matching the
/// page-sized nodes a production deployment would register. The paper does
/// not state its fanout; this choice, with the default cost model, puts
/// per-search fetch volume and server CPU cost in the regime the paper's
/// measurements imply (see DESIGN.md §5).
pub fn paper_tree_config() -> RTreeConfig {
    RTreeConfig::with_max_entries(88)
}
