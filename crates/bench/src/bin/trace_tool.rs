//! Offline trace inspector: reads a `.spans.jsonl` export (written by any
//! binary run with `--trace-out`, or by tests via
//! [`TraceSink::to_jsonl`](catfish_core::TraceSink::to_jsonl)), reassembles the
//! per-request trees, and reports their structure — span/trace counts,
//! connectivity, per-kind span totals, end-to-end duration percentiles,
//! and the slowest traces with their node fan-out. The parser is
//! hand-rolled key scanning over the fixed JSONL schema (no JSON
//! dependency), the mirror image of [`SpanRecord::to_json`].
//!
//! Usage:
//!
//! ```text
//! trace_tool FILE.spans.jsonl [--chrome OUT.json] [--check]
//! ```
//!
//! `--chrome` re-exports the assembly in Chrome `trace_event` format
//! (`chrome://tracing`, Perfetto). `--check` exits nonzero when any trace
//! fails connectedness — the CI smoke mode.

use catfish_core::obs::{
    LatencyHistogram, Phase, SpanRecord, TraceAssembler, N_PHASES, SERVER_NODE_BASE,
};
use catfish_simnet::SimDuration;

/// Extracts the integer value of `"key":N` from one JSONL line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string value of `"key":"s"` from one JSONL line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    rest.split('"').next()
}

/// Parses one `SpanRecord::to_json` line; `None` on any malformed field.
fn parse_span(line: &str) -> Option<SpanRecord> {
    Some(SpanRecord {
        trace_id: num_field(line, "trace_id")?,
        span_id: num_field(line, "span_id")?,
        parent_span: num_field(line, "parent")?,
        kind: Phase::from_name(str_field(line, "kind")?)?,
        node: num_field(line, "node")? as u32,
        start_ns: num_field(line, "start_ns")?,
        end_ns: num_field(line, "end_ns")?,
    })
}

fn main() {
    let mut file = None;
    let mut chrome_out = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chrome" => chrome_out = Some(args.next().expect("--chrome needs a path")),
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("usage: trace_tool FILE.spans.jsonl [--chrome OUT.json] [--check]");
                std::process::exit(0);
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => panic!("unexpected argument {other}; try --help"),
        }
    }
    let file = file.expect("usage: trace_tool FILE.spans.jsonl [--chrome OUT.json] [--check]");
    let text = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("trace_tool: cannot read {file}: {e}"));

    let mut spans = Vec::new();
    let mut malformed = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse_span(line) {
            Some(s) => spans.push(s),
            None => malformed += 1,
        }
    }
    if malformed > 0 {
        eprintln!("warning: {malformed} malformed line(s) skipped");
    }

    let asm = TraceAssembler::assemble(&spans);
    println!("{file}: {} spans in {} traces", asm.span_count(), asm.len());

    // Per-kind span totals.
    let mut counts = [0usize; N_PHASES];
    for s in &spans {
        counts[Phase::ALL.iter().position(|k| *k == s.kind).unwrap()] += 1;
    }
    print!("kinds:");
    for (k, n) in Phase::ALL.iter().zip(counts) {
        if n > 0 {
            print!(" {k}={n}");
        }
    }
    println!();

    // End-to-end duration distribution over the assembled trees.
    let mut hist = LatencyHistogram::new();
    for t in &asm.traces {
        hist.record(SimDuration::from_nanos(t.duration_ns()));
    }
    if !hist.is_empty() {
        println!("trace duration: {}", hist.summary());
    }

    // The slowest traces, with their structure.
    let mut by_dur: Vec<_> = asm.traces.iter().collect();
    by_dur.sort_by_key(|t| std::cmp::Reverse(t.duration_ns()));
    for t in by_dur.iter().take(5) {
        println!(
            "  slow trace {:>6}: {:>9.2}us  {} spans over {} nodes{}",
            t.trace_id,
            t.duration_ns() as f64 / 1e3,
            t.spans.len(),
            t.node_count(),
            if t.connected() { "" } else { "  DISCONNECTED" },
        );
    }

    let disconnected = asm.disconnected();
    if disconnected.is_empty() {
        println!("connectivity: all {} traces connected", asm.len());
    } else {
        println!(
            "connectivity: {} of {} traces DISCONNECTED (ids {:?}{})",
            disconnected.len(),
            asm.len(),
            &disconnected[..disconnected.len().min(10)],
            if disconnected.len() > 10 { ", ..." } else { "" },
        );
    }

    // Replication forwarding legs: an `Rpc` span emitted from a *server*
    // node is a primary→backup forward, and must be stitched in as a
    // child of the originating request's tree — a forward with no parent
    // (or a parent missing from its trace) would hide replication time
    // from the end-to-end critical path.
    let present: std::collections::HashSet<(u64, u64)> =
        spans.iter().map(|s| (s.trace_id, s.span_id)).collect();
    let mut forward_legs = 0usize;
    let mut orphan_forwards = 0usize;
    for s in &spans {
        if s.kind == Phase::Rpc && s.node >= SERVER_NODE_BASE {
            forward_legs += 1;
            if s.parent_span == 0 || !present.contains(&(s.trace_id, s.parent_span)) {
                orphan_forwards += 1;
            }
        }
    }
    if forward_legs > 0 {
        println!("replication: {forward_legs} forwarding leg(s), {orphan_forwards} orphaned",);
    }

    if let Some(out) = chrome_out {
        std::fs::write(&out, asm.to_chrome_json())
            .unwrap_or_else(|e| panic!("trace_tool: cannot write {out}: {e}"));
        println!("wrote {out} (Chrome trace_event; load in chrome://tracing or Perfetto)");
    }

    if check && !disconnected.is_empty() {
        eprintln!("FAIL: --check requires every trace to be connected");
        std::process::exit(1);
    }
    if check && orphan_forwards > 0 {
        eprintln!(
            "FAIL: --check requires every replication forwarding leg to be a connected child span ({orphan_forwards} orphaned)"
        );
        std::process::exit(1);
    }
}
