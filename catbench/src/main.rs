//! The Catfish benchmark: one workload of the simulated cluster per
//! process, closed-loop clients, every result checked.
//!
//! ```text
//! catbench --workload <paper_search|wide_window|hybrid_replicated>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates every input; `--seconds` sets the virtual
//! measurement window, sized so the request phase takes about that long.
//! The simulation is deterministic: one seed and length always give the
//! same virtual-time run. `--trace 0` sets up the workload several times
//! (the median is `setup_s`), runs it once with tracing off, and reports
//! the end-to-end metrics. `--trace 1` runs it untraced, then traced —
//! checking that tracing left the virtual run unchanged — then replays
//! the workload's inputs through the R-tree and codec layers, and reports
//! the per-layer metrics. A human-readable
//! report goes to stderr; the last stdout line is one JSON object.

mod check;
mod layers;
mod quantile;
mod run;
mod workload;

use std::process::ExitCode;

use catfish_workload::Request;

use check::Reference;
use layers::Metric;
use quantile::{nearest_rank, Quantile, MIN_BEYOND};
use run::{run_rep, Rep};
use workload::{tree_config, Inputs, Workload, NAMES};

/// Set-ups `--trace 0` times; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value}; expected one of {NAMES:?}"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err("--seconds needs a positive integer".into()),
            },
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported quantile, or an error when too few samples lie beyond it.
fn quantile(sorted: &[u64], p: f64, what: &str) -> Result<Quantile, String> {
    match nearest_rank(sorted, p) {
        Some(q) if q.beyond >= MIN_BEYOND => Ok(q),
        _ => Err(format!(
            "{what}: {} samples leave fewer than {MIN_BEYOND} beyond p{}; raise --seconds",
            sorted.len(),
            p * 100.0
        )),
    }
}

/// The virtual-time end-to-end figures of a run, over the operations that
/// started inside its measurement window.
struct Virtual {
    vkops: f64,
    /// Search p50 and p99.9.
    search: [Quantile; 2],
    /// Write p50 and p99, on workloads that write.
    write: Option<[Quantile; 2]>,
}

impl Virtual {
    fn of(rep: &Rep, inputs: &Inputs) -> Result<Virtual, String> {
        let (mut search, mut write) = (Vec::new(), Vec::new());
        for (trace, recs) in inputs.traces.iter().zip(&rep.ops) {
            for (req, rec) in trace.iter().zip(recs).filter(|(_, r)| rep.measured(r)) {
                match req {
                    Request::Search(_) => search.push(rec.latency_ns),
                    _ => write.push(rec.latency_ns),
                }
            }
        }
        search.sort_unstable();
        write.sort_unstable();
        Ok(Virtual {
            vkops: rep.vkops(),
            search: [
                quantile(&search, 0.5, "search latency")?,
                quantile(&search, 0.999, "search latency")?,
            ],
            write: if write.is_empty() {
                None
            } else {
                Some([
                    quantile(&write, 0.5, "write latency")?,
                    quantile(&write, 0.99, "write latency")?,
                ])
            },
        })
    }

    fn report(&self) {
        eprintln!("  vkops           {:>12.3} kops (virtual)", self.vkops);
        let search = [
            ("search_p50_us", self.search[0]),
            ("search_p999_us", self.search[1]),
        ];
        let write = self
            .write
            .iter()
            .flat_map(|w| [("write_p50_us", w[0]), ("write_p99_us", w[1])]);
        for (name, q) in search.into_iter().chain(write) {
            eprintln!(
                "  {name:<15} {:>12.3} us  (n = {}, {} beyond)",
                q.value_ns as f64 / 1e3,
                q.samples,
                q.beyond
            );
        }
    }

    /// Write p50 (`i = 0`) or p99 (`i = 1`) in µs; 0 without writes.
    fn write_us(&self, i: usize) -> f64 {
        self.write.map_or(0.0, |w| w[i].value_ns as f64 / 1e3)
    }
}

fn print_result(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Metrics plus the operations attempted and failed to reach them.
type Outcome = (Vec<Metric>, usize, u64);

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let window = w.window(args.seconds);
    eprintln!(
        "catbench {}: seed {}, {} clients, {} shard(s) x {} replica(s), {:?} virtual window, trace {}",
        w.name,
        args.seed,
        w.clients,
        w.shards,
        w.replicas,
        window.as_secs_f64(),
        u8::from(args.traced)
    );
    let (metrics, attempted, failed) = if args.traced {
        traced_run(args)?
    } else {
        untraced_run(args)?
    };
    eprintln!(
        "  op_error_ratio  {:>12.6} ({failed} of {attempted} ops failed or were wrong)",
        failed as f64 / attempted as f64
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    let correct = failed == 0;
    print_result(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// The run's inputs and their reference answers. Each repetition
/// regenerates its own inputs (that is set-up work); this copy feeds the
/// checker and the layer replay, and is made after the measured runs so
/// it stays out of `peak_rss_mb`.
fn inputs_and_reference(args: &Args) -> (Inputs, Reference) {
    let window = args.workload.window(args.seconds);
    let inputs = Inputs::generate(&args.workload, args.seed, window);
    let reference = Reference::new(tree_config(), inputs.dataset.clone());
    (inputs, reference)
}

fn untraced_run(args: &Args) -> Result<Outcome, String> {
    let (w, seed, window) = (
        &args.workload,
        args.seed,
        args.workload.window(args.seconds),
    );
    let mut setups: Vec<f64> = (1..SETUPS).map(|_| run::setup_s(w, seed, window)).collect();
    let rep = run_rep(w, seed, window, false);
    setups.push(rep.setup_s);
    let peak_rss = peak_rss_mb();
    let (inputs, reference) = inputs_and_reference(args);
    let inputs = &inputs;
    eprintln!(
        "  set-ups {setups:.3?} s; request phase {:.3} s for {} ops",
        rep.request_s,
        rep.completed()
    );
    let v = Virtual::of(&rep, inputs)?;
    v.report();
    let failed = reference.failures(&inputs.traces, &rep.ops) + rep.missing_inserts;
    let metrics = vec![
        ("vkops", v.vkops, "kops"),
        ("search_p50_us", v.search[0].value_ns as f64 / 1e3, "us"),
        ("search_p999_us", v.search[1].value_ns as f64 / 1e3, "us"),
        ("host_us_per_op", rep.host_us_per_op(), "us"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok((metrics, rep.completed(), failed))
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let (w, seed, window) = (
        &args.workload,
        args.seed,
        args.workload.window(args.seconds),
    );
    let base = run_rep(w, seed, window, false);
    let traced = run_rep(w, seed, window, true);
    // Phase spans never advance virtual time: tracing must not change the
    // run.
    if !traced.same_virtual_run(&base) {
        return Err("phase tracing changed the virtual-time run".into());
    }
    let (inputs, reference) = inputs_and_reference(args);
    let inputs = &inputs;
    let v = Virtual::of(&base, inputs)?;
    v.report();
    let failed = reference.failures(&inputs.traces, &base.ops) + base.missing_inserts;
    let attempted = base.completed() + traced.completed();

    let mut metrics = layers::traced_metrics(&traced, inputs);
    metrics.push((
        "obs.trace_overhead_pct",
        (traced.host_us_per_op() / base.host_us_per_op() - 1.0) * 100.0,
        "%",
    ));
    metrics.push(("write_p50_us", v.write_us(0), "us"));
    metrics.push(("write_p99_us", v.write_us(1), "us"));
    metrics.extend(layers::replay_metrics(w, inputs));
    Ok((metrics, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("catbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("catbench: some operations failed or returned wrong results");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("catbench: {e}");
            ExitCode::FAILURE
        }
    }
}
