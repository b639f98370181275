//! Properties of the observability layer: the log-bucketed
//! [`LatencyHistogram`] against exact sorted-sample statistics, histogram
//! merging, the structured adaptive-event timeline against Algorithm 1,
//! and the phase breakdown accounting for the end-to-end latency.

use catfish_core::config::AdaptiveParams;
use catfish_core::{AdaptiveEvent, AdaptiveEventLog, AdaptiveState, LatencyHistogram, RouteChoice};
use catfish_simnet::{sleep, Sim, SimDuration};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record_nanos(s);
    }
    h
}

/// Exact quantile of a sorted sample set, with the same nearest-rank rule
/// the histogram uses.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any reported percentile is within one bucket width of the exact
    /// sorted-Vec percentile — the resolution bound the log-linear
    /// bucketing promises (±12.5% of the value, exact below 8 ns).
    #[test]
    fn quantiles_within_one_bucket_of_exact(
        samples in prop::collection::vec(0u64..200_000_000, 1..500),
        q in 0.0f64..1.0,
    ) {
        let h = hist_of(&samples);
        let mut sorted = samples;
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let got = h.quantile(q).as_nanos();
        let width = LatencyHistogram::bucket_width_at(exact);
        prop_assert!(
            got.abs_diff(exact) <= width,
            "quantile({q}) = {got}, exact = {exact}, bucket width = {width}"
        );
    }

    /// Merging histograms recorded separately is indistinguishable from
    /// one histogram over the concatenated samples.
    #[test]
    fn merge_equals_concatenation(
        a in prop::collection::vec(0u64..1_000_000_000, 0..300),
        b in prop::collection::vec(0u64..1_000_000_000, 0..300),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        let concat = hist_of(&both);
        prop_assert_eq!(merged.len(), concat.len());
        prop_assert_eq!(merged.sum_nanos(), concat.sum_nanos());
        prop_assert_eq!(merged.min(), concat.min());
        prop_assert_eq!(merged.max(), concat.max());
        let mb: Vec<_> = merged.nonzero_buckets().collect();
        let cb: Vec<_> = concat.nonzero_buckets().collect();
        prop_assert_eq!(mb, cb);
    }
}

/// A scripted heartbeat sequence produces the event timeline Algorithm 1
/// prescribes: consecutive busy heartbeats escalate `r_busy` by one each
/// with `r_off` drawn from the doubling band
/// `[(r_busy - 1) * N, r_busy * N)`, a calm heartbeat emits one
/// `BusyReset`, timestamps never go backwards, and every decision emits a
/// `Route` event.
#[test]
fn scripted_heartbeats_match_algorithm_one_bands() {
    let params = AdaptiveParams::default();
    let n = u64::from(params.n_backoff);
    let sim = Sim::new();
    let events = sim.run_until(async move {
        let log = AdaptiveEventLog::new();
        let mut s = AdaptiveState::new(AdaptiveParams::default(), 7);
        s.set_event_log(log.for_client(3));
        // Get past the randomized consumption phase, then feed four busy
        // heartbeats and one calm one, each a full interval apart.
        sleep(SimDuration::from_millis(15)).await;
        for _ in 0..4 {
            sleep(SimDuration::from_millis(11)).await;
            s.note_heartbeat(1.0);
            s.decide();
        }
        sleep(SimDuration::from_millis(11)).await;
        s.note_heartbeat(0.2);
        s.decide();
        log.snapshot()
    });

    assert!(!events.is_empty());
    let mut last_t = None;
    let mut routes = 0;
    let mut consumed = 0;
    let mut expected_busy = 0u32;
    let mut resets = 0;
    for rec in &events {
        assert_eq!(rec.client, 3);
        if let Some(prev) = last_t {
            assert!(rec.t >= prev, "timestamps regress: {rec}");
        }
        last_t = Some(rec.t);
        match rec.event {
            AdaptiveEvent::HeartbeatConsumed { util } => {
                consumed += 1;
                assert!((0.0..=1.0).contains(&util));
            }
            AdaptiveEvent::BandEscalated { r_busy, r_off } => {
                expected_busy += 1;
                assert_eq!(r_busy, expected_busy, "r_busy increments by one");
                let lo = u64::from(r_busy - 1) * n;
                let hi = u64::from(r_busy) * n;
                assert!(
                    (lo..hi).contains(&u64::from(r_off)),
                    "r_off {r_off} outside band [{lo}, {hi}) at r_busy {r_busy}"
                );
            }
            AdaptiveEvent::BusyReset => resets += 1,
            AdaptiveEvent::Route { .. } => routes += 1,
            AdaptiveEvent::StaleHeartbeat { .. } => {
                panic!("heartbeats flow throughout this scenario")
            }
            AdaptiveEvent::FetchTransition { .. } => {
                panic!("fetching is disabled under default params")
            }
        }
    }
    // Five decisions, five heartbeats consumed; the band never exceeds
    // r_busy * N rounds, so four busy heartbeats escalate every time
    // (draining at one round per decision cannot outpace the threshold).
    assert_eq!(routes, 5, "one Route per decide()");
    assert_eq!(consumed, 5, "one fresh heartbeat consumed per interval");
    assert_eq!(expected_busy, 4, "each busy heartbeat escalates once");
    assert_eq!(resets, 1, "the calm heartbeat resets the busy counter");

    // The JSONL rendering carries every event with its kind tag.
    for rec in &events {
        let line = rec.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains(&format!("\"event\":\"{}\"", rec.event.kind())));
    }
}

/// A scripted three-way timeline: with fetching enabled, a moderately
/// busy server plus a large-result EWMA routes **Fetch** (entering the
/// regime emits one `FetchTransition`), busy heartbeats still escalate
/// the Algorithm 1 band whose drain routes **Offload** (the band
/// outranks the fetch regime), the drained band falls back to Fetch,
/// and a calm heartbeat below the utilization floor exits the regime
/// (one closing `FetchTransition`) and routes **Fast**.
#[test]
fn scripted_three_way_timeline_orders_offload_over_fetch_over_fast() {
    let params = AdaptiveParams::three_way();
    let sim = Sim::new();
    let (routes, events) = sim.run_until(async move {
        let log = AdaptiveEventLog::new();
        let mut s = AdaptiveState::new(params, 7);
        s.set_event_log(log.for_client(1));
        s.set_item_bytes(40);
        let mut routes = Vec::new();
        // Past the randomized consumption phase; grow the response EWMA
        // well above the fetch threshold before any heartbeat arrives.
        sleep(SimDuration::from_millis(15)).await;
        for _ in 0..6 {
            s.note_response_items(1024);
        }
        // Moderately busy: above the fetch floor, below the busy
        // threshold — the fetch regime engages without band escalation.
        sleep(SimDuration::from_millis(11)).await;
        s.note_heartbeat(0.7);
        routes.push(s.decide_route());
        // Two saturated heartbeats: the second guarantees r_busy = 2 and
        // an r_off draw of at least N, so the band drains as Offload.
        for _ in 0..2 {
            sleep(SimDuration::from_millis(11)).await;
            s.note_heartbeat(1.0);
            routes.push(s.decide_route());
        }
        // Drain the band dry (no fresh heartbeats): Offload until r_off
        // hits zero, then the still-active fetch regime takes over.
        for _ in 0..24 {
            routes.push(s.decide_route());
        }
        // Calm heartbeat below the utilization floor: regime exits.
        sleep(SimDuration::from_millis(11)).await;
        s.note_heartbeat(0.2);
        routes.push(s.decide_route());
        (routes, log.snapshot())
    });

    assert_eq!(
        routes[0],
        RouteChoice::Fetch,
        "busy-but-not-saturated server with large results fetches"
    );
    assert_eq!(
        routes[2],
        RouteChoice::Offload,
        "the second saturated heartbeat forces a non-empty band"
    );
    let offloads = routes
        .iter()
        .filter(|r| **r == RouteChoice::Offload)
        .count();
    assert!(
        offloads >= 8,
        "r_busy = 2 draws r_off >= 8, all drained as Offload (got {offloads})"
    );
    assert_eq!(
        *routes.iter().rev().nth(1).unwrap(),
        RouteChoice::Fetch,
        "the drained band falls back to the fetch regime"
    );
    assert_eq!(
        *routes.last().unwrap(),
        RouteChoice::Fast,
        "a calm server routes fast messaging again"
    );
    assert!(
        !routes.contains(&RouteChoice::Fast)
            || routes.iter().position(|r| *r == RouteChoice::Fast) == Some(routes.len() - 1),
        "fast messaging only after the calm heartbeat"
    );

    // The regime was entered exactly once and exited exactly once, in
    // that order, with the entering edge carrying an EWMA above the
    // threshold it crossed.
    let transitions: Vec<_> = events
        .iter()
        .filter_map(|rec| match rec.event {
            AdaptiveEvent::FetchTransition {
                entering,
                ewma_items,
                threshold_items,
            } => Some((entering, ewma_items, threshold_items)),
            _ => None,
        })
        .collect();
    assert_eq!(transitions.len(), 2, "one entering edge, one exit edge");
    assert!(transitions[0].0 && !transitions[1].0);
    assert!(transitions[0].1 >= transitions[0].2);
    for rec in &events {
        let line = rec.to_json();
        assert!(line.contains(&format!("\"event\":\"{}\"", rec.event.kind())));
    }
}

/// The request-path phases partition the
/// end-to-end latency: for a single closed-loop fast-messaging client
/// (no queueing overlap), ring enqueue + server queue + dispatch + index
/// execution + response transit lands within 5% of the end-to-end p50.
#[test]
fn phase_breakdown_accounts_for_end_to_end_p50() {
    use catfish_core::config::Scheme;
    use catfish_core::harness::{run_experiment, ExperimentSpec};
    use catfish_core::Phase;
    use catfish_workload::{uniform_rects, ScaleDist, TraceSpec};

    let spec = ExperimentSpec {
        scheme: Scheme::FastMessaging,
        clients: 1,
        client_nodes: 1,
        dataset: uniform_rects(3_000, 1e-3, 9),
        trace: TraceSpec::search_only(ScaleDist::Fixed { bound: 0.02 }, 200),
        collect_spans: true,
        ..ExperimentSpec::default()
    };
    let r = run_experiment(&spec);
    assert!(!r.phase_hists.is_empty(), "spans were recorded");
    let path = [
        Phase::RingEnqueue,
        Phase::ServerQueue,
        Phase::Dispatch,
        Phase::IndexExec,
        Phase::RespTransit,
    ];
    let sum_ns: u64 = r
        .phase_hists
        .iter()
        .filter(|(p, _)| path.contains(p))
        .map(|(_, h)| h.summary().p50.as_nanos())
        .sum();
    let e2e_ns = r.hist.summary().p50.as_nanos();
    assert!(e2e_ns > 0);
    let gap = (sum_ns as f64 / e2e_ns as f64 - 1.0).abs();
    assert!(
        gap < 0.05,
        "phase p50 sum {sum_ns} ns vs end-to-end p50 {e2e_ns} ns (gap {:.1}%)",
        gap * 100.0
    );
}
