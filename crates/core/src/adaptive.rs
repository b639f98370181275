//! The adaptive back-off coordination (paper Algorithm 1), factored out of
//! the R-tree client so any Catfish-style service (e.g. the key-value
//! service in [`crate::kv`]) can reuse it unchanged — the algorithm is
//! index-agnostic: it only consumes server CPU heartbeats and emits
//! per-request routing decisions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use catfish_simnet::{now, SimDuration, SimTime};

use crate::config::AdaptiveParams;
use crate::obs::{
    AdaptiveEvent, AdaptiveEventLog, Anomaly, FlightEvent, FlightRecorder, RouteChoice,
};
use crate::service::HeartbeatInfo;

/// EWMA weight given to the previous response-size estimate when a new
/// response arrives (`new = α·old + (1-α)·sample`).
const EWMA_KEEP: f64 = 0.75;

/// `k` of the heartbeat-staleness failsafe: a client that has *seen* a
/// heartbeat but then hears nothing for `k · Inv` stops trusting the last
/// utilization figure and treats the server as busy (failing over to
/// offloading) until heartbeats resume. Clients that have never received
/// a heartbeat are unaffected (they keep the fast path).
const STALE_AFTER_INTERVALS: u64 = 5;
const _: () = assert!(STALE_AFTER_INTERVALS >= 2, "failsafe must outlast jitter");

/// Minimum server utilization before fetching engages. Below this the
/// server has posting headroom and write-back's single round trip gives
/// strictly better latency, so fetching would only add RTTs.
const FETCH_UTIL_FLOOR: f64 = 0.5;

/// Fallback result-count crossover used until a heartbeat carrying
/// per-mode serving-cost terms arrives (then the crossover is derived
/// from the advertised costs instead).
const FETCH_ITEMS_THRESHOLD: f64 = 64.0;

/// Per-client state of Algorithm 1.
#[derive(Debug)]
pub struct AdaptiveState {
    params: AdaptiveParams,
    /// Consecutive rounds the server was observed busy (`r_busy`).
    r_busy: u32,
    /// Remaining rounds to offload (`r_off`).
    r_off: u64,
    /// Instant of the last consumed heartbeat (`t_0`).
    t0: SimTime,
    /// Latest unconsumed heartbeat utilization (`u_serv`), if any.
    u_serv: Option<f64>,
    /// Instant the most recent heartbeat was *received* (not consumed) —
    /// drives the staleness failsafe. `None` until the first heartbeat:
    /// a client that has never heard the server keeps the fast path.
    last_seen: Option<SimTime>,
    /// Whether the staleness failsafe is currently engaged.
    stale: bool,
    /// Fresh→stale transitions observed (edge-triggered counter).
    stale_windows: u64,
    /// Consecutive fresh heartbeats received while the failsafe is
    /// engaged — the hysteresis counter that gates unfreezing
    /// ([`AdaptiveParams::stale_recovery_intervals`]).
    fresh_streak: u32,
    rng: StdRng,
    /// The connection's recorder: every decision step enters it as a
    /// [`FlightEvent::Adaptive`] entry.
    flight: FlightRecorder,
    /// Most recent utilization figure (kept even after `u_serv` is
    /// consumed) — gates the fetch regime: fetching only pays off while
    /// the server NIC-initiation budget is actually contended.
    last_util: f64,
    /// Per-mode serving-cost terms from the most recent heartbeat, if the
    /// server sent any (zeroed terms mean "not advertised").
    costs: Option<HeartbeatInfo>,
    /// EWMA of response item counts — the expected result size the
    /// crossover test compares against the threshold.
    ewma_items: f64,
    /// Wire bytes per result item ([`crate::service::WireCodec::ITEM_WIRE_BYTES`]),
    /// converting the per-KB cost terms into a per-item crossover.
    item_bytes: usize,
    /// Whether the previous decision found itself in the fetch regime —
    /// edge-detects [`AdaptiveEvent::FetchTransition`].
    in_fetch_regime: bool,
}

impl AdaptiveState {
    /// Creates the state with a seeded RNG. The heartbeat-consumption
    /// phase is randomized across one interval so independent clients do
    /// not escalate and reset in lockstep. Decision steps go to a recorder
    /// of its own; see [`AdaptiveState::with_recorder`].
    pub fn new(params: AdaptiveParams, seed: u64) -> Self {
        Self::with_recorder(params, seed, FlightRecorder::new())
    }

    /// [`AdaptiveState::new`] recording into `flight`, the recorder of the
    /// connection this state decides for.
    pub fn with_recorder(params: AdaptiveParams, seed: u64, flight: FlightRecorder) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let inv = params.heartbeat_interval.as_nanos().max(1);
        let t0 = catfish_simnet::try_now().unwrap_or(SimTime::ZERO)
            + SimDuration::from_nanos(rng.gen::<u64>() % inv);
        AdaptiveState {
            params,
            r_busy: 0,
            r_off: 0,
            t0,
            u_serv: None,
            last_seen: None,
            stale: false,
            stale_windows: 0,
            fresh_streak: 0,
            rng,
            flight,
            last_util: 0.0,
            costs: None,
            ewma_items: 0.0,
            item_bytes: 40,
            in_fetch_regime: false,
        }
    }

    /// Retains every decision step ([`AdaptiveEvent`]) in `log` through
    /// the recorder — use a [`AdaptiveEventLog::for_client`] handle so the
    /// timeline records which client decided. Retention is opt-in and off
    /// by default.
    pub fn set_event_log(&mut self, log: AdaptiveEventLog) {
        self.flight.set_event_log(log);
    }

    fn emit(&self, event: AdaptiveEvent) {
        self.flight.note(FlightEvent::Adaptive(event));
    }

    /// Records a heartbeat's utilization (in `[0, 1]`).
    pub fn note_heartbeat(&mut self, utilization: f64) {
        self.u_serv = Some(utilization);
        self.last_util = utilization;
        let t = catfish_simnet::try_now().unwrap_or(SimTime::ZERO);
        if self.stale {
            // Hysteresis bookkeeping: a burst of frames arriving together
            // (retransmissions, doorbell coalescing) is one publication,
            // not several fresh intervals, so the recovery streak advances
            // at most once per half heartbeat interval.
            let spaced = self.last_seen.is_none_or(|prev| {
                t.saturating_duration_since(prev).as_nanos() * 2
                    >= self.params.heartbeat_interval.as_nanos()
            });
            if spaced {
                self.fresh_streak += 1;
            }
        }
        self.last_seen = Some(t);
    }

    /// Records a full heartbeat, including the per-mode serving-cost terms
    /// the three-way policy derives its write-back/fetch crossover from.
    pub fn note_heartbeat_info(&mut self, info: HeartbeatInfo) {
        self.note_heartbeat(f64::from(info.util_permille) / 1000.0);
        self.costs = Some(info);
    }

    /// Folds one response's item count into the expected-size EWMA.
    pub fn note_response_items(&mut self, items: usize) {
        self.ewma_items = EWMA_KEEP * self.ewma_items + (1.0 - EWMA_KEEP) * items as f64;
    }

    /// Sets the wire size of one result item (backend-specific), used to
    /// convert the heartbeat's per-KB cost terms into a per-item
    /// crossover. Defaults to the R-tree's 40 bytes.
    pub fn set_item_bytes(&mut self, bytes: usize) {
        self.item_bytes = bytes.max(1);
    }

    /// Current EWMA of response item counts — diagnostics and tests.
    pub fn ewma_items(&self) -> f64 {
        self.ewma_items
    }

    /// The crossover threshold, in result items per response, above which
    /// fetching beats write-back for the *server*: solve
    /// `wb_fixed + wb_per_kb·S = fetch_fixed + fetch_per_kb·S` for the
    /// response size `S` and divide by the item size. Falls back to
    /// `FETCH_ITEMS_THRESHOLD` until the server has
    /// advertised usable cost terms (fetching must have a higher fixed
    /// cost and a lower per-byte cost, otherwise no crossover exists).
    pub fn threshold_items(&self) -> f64 {
        if let Some(c) = &self.costs {
            let fixed_gap = f64::from(c.fetch_fixed_ns) - f64::from(c.wb_fixed_ns);
            let per_kb_gap = f64::from(c.wb_per_kb_ns) - f64::from(c.fetch_per_kb_ns);
            if fixed_gap > 0.0 && per_kb_gap > 0.0 {
                let per_item = per_kb_gap * self.item_bytes as f64 / 1024.0;
                return fixed_gap / per_item;
            }
        }
        FETCH_ITEMS_THRESHOLD
    }

    /// Current back-off band (`r_busy`, `r_off`) — diagnostics and tests.
    pub fn band(&self) -> (u32, u64) {
        (self.r_busy, self.r_off)
    }

    /// Fresh→stale heartbeat transitions seen so far (the
    /// `stale_heartbeat_windows` stat).
    pub fn stale_windows(&self) -> u64 {
        self.stale_windows
    }

    /// Whether the staleness failsafe is currently engaged.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Time-aware staleness probe: advances the failsafe state machine to
    /// the current instant (engaging or recovering exactly as a routing
    /// decision would) and returns whether the failsafe holds. The
    /// replicated cluster client polls this as its failure detector —
    /// the flag alone only moves when Algorithm 1 runs.
    pub fn probe_stale(&mut self) -> bool {
        let t = catfish_simnet::try_now().unwrap_or(SimTime::ZERO);
        self.staleness_failsafe(t)
    }

    /// The staleness failsafe: a client that has *seen* a heartbeat but
    /// then heard nothing for `STALE_AFTER_INTERVALS · Inv` stops trusting
    /// the last utilization figure and fails over to offloading until the
    /// stream resumes — the graceful-degradation dual of Algorithm 1.
    /// Returns `true` while the failsafe holds the offloaded route.
    fn staleness_failsafe(&mut self, t: SimTime) -> bool {
        let Some(seen) = self.last_seen else {
            // Never heard the server: keep the fast path (matching the
            // paper's "it ignores that no heartbeat has arrived").
            return false;
        };
        let silent = t.saturating_duration_since(seen);
        let stale_after = SimDuration::from_nanos(
            self.params
                .heartbeat_interval
                .as_nanos()
                .saturating_mul(STALE_AFTER_INTERVALS),
        );
        if silent > stale_after {
            if !self.stale {
                // One dump per window, whichever call engaged it.
                self.stale = true;
                self.stale_windows += 1;
                let silent_ns = silent.as_nanos();
                self.emit(AdaptiveEvent::StaleHeartbeat { silent_ns });
                self.flight.anomaly(Anomaly::StaleHeartbeat { silent_ns });
            }
            // Any relapse into silence voids partial recovery progress:
            // the unfreeze streak must be *consecutive* fresh intervals.
            self.fresh_streak = 0;
            true
        } else if self.stale {
            // Hysteresis: a single surviving heartbeat under loss must not
            // snap every frozen client back onto the struggling server at
            // once. Unfreeze only after `stale_recovery_intervals`
            // consecutive fresh heartbeats.
            if self.fresh_streak >= self.params.stale_recovery_intervals {
                self.stale = false;
                self.fresh_streak = 0;
                false
            } else {
                true
            }
        } else {
            false
        }
    }

    /// One step of Algorithm 1 in its original binary form: `true` means
    /// offload the next request. Thin wrapper over
    /// [`AdaptiveState::decide_route`] — with `fetch_enabled` off (the
    /// default) the two are behaviorally identical.
    pub fn decide(&mut self) -> bool {
        self.decide_route() == RouteChoice::Offload
    }

    /// One step of the **three-way** policy: Algorithm 1's band machinery
    /// decides fast-vs-offload exactly as before; when the band does *not*
    /// demand offloading, a second test splits the server-served path into
    /// write-back vs mailbox fetching.
    ///
    /// Ordering rationale: staleness and the offload band win over
    /// fetching because a deposited response still costs server CPU —
    /// offloading is the only route that relieves the server entirely.
    /// Fetching is chosen only when the server is contended
    /// (`last_util ≥ FETCH_UTIL_FLOOR`) *and* responses are expected to be
    /// large enough (`ewma_items ≥ threshold_items()`) that moving NIC
    /// write-initiation to the client is a net server-side win.
    ///
    /// Per §IV-A's "It ignores that no heartbeat has arrived", the
    /// busy/not-busy branch only runs when a fresh sample was consumed;
    /// between heartbeats the current band keeps draining.
    pub fn decide_route(&mut self) -> RouteChoice {
        let t = now();
        if self.staleness_failsafe(t) {
            // Band bookkeeping is frozen while stale: the last utilization
            // figure is untrustworthy, so neither escalate nor drain.
            self.emit(AdaptiveEvent::Route {
                route: RouteChoice::Offload,
            });
            return RouteChoice::Offload;
        }
        let mut fresh = None;
        if t.saturating_duration_since(self.t0) > self.params.heartbeat_interval {
            if let Some(v) = self.u_serv.take() {
                fresh = Some(pred_util(v));
                self.t0 = t;
            }
        }
        if let Some(u) = fresh {
            self.emit(AdaptiveEvent::HeartbeatConsumed { util: u });
            let n = u64::from(self.params.n_backoff);
            if u > self.params.busy_threshold && self.r_off <= u64::from(self.r_busy) * n {
                self.r_busy += 1;
                self.r_off = u64::from(self.rng.gen::<u32>() % self.params.n_backoff)
                    + (u64::from(self.r_busy) - 1) * n;
                self.emit(AdaptiveEvent::BandEscalated {
                    r_busy: self.r_busy,
                    r_off: self.r_off as u32,
                });
            } else if u <= self.params.busy_threshold {
                if self.r_busy > 0 {
                    self.emit(AdaptiveEvent::BusyReset);
                }
                self.r_busy = 0;
            }
        }
        let route = if self.r_off > 0 {
            self.r_off -= 1;
            RouteChoice::Offload
        } else if self.fetch_regime() {
            RouteChoice::Fetch
        } else {
            RouteChoice::Fast
        };
        self.emit(AdaptiveEvent::Route { route });
        route
    }

    /// Whether the current (utilization, expected-size) point sits in the
    /// fetch regime; edge-detects and emits
    /// [`AdaptiveEvent::FetchTransition`].
    fn fetch_regime(&mut self) -> bool {
        let threshold = self.threshold_items();
        let want = self.params.fetch_enabled
            && self.last_util >= FETCH_UTIL_FLOOR
            && self.ewma_items >= threshold;
        if want != self.in_fetch_regime {
            self.in_fetch_regime = want;
            self.emit(AdaptiveEvent::FetchTransition {
                entering: want,
                ewma_items: self.ewma_items,
                threshold_items: threshold,
            });
        }
        want
    }
}

/// `predUtil(·)` from Algorithm 1: currently the most recent utilization
/// sample, as in the paper ("we use the most recent CPU utilization as the
/// predicting value").
fn pred_util(latest: f64) -> f64 {
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_simnet::{sleep, Sim};

    fn params() -> AdaptiveParams {
        AdaptiveParams::default()
    }

    #[test]
    fn idle_server_never_offloads() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 1);
            for _ in 0..10 {
                sleep(SimDuration::from_millis(11)).await;
                s.note_heartbeat(0.3);
                assert!(!s.decide());
            }
            assert_eq!(s.band(), (0, 0));
        });
    }

    #[test]
    fn busy_server_escalates_band() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 2);
            sleep(SimDuration::from_millis(15)).await;
            let mut busies = Vec::new();
            for _ in 0..5 {
                sleep(SimDuration::from_millis(11)).await;
                s.note_heartbeat(1.0);
                s.decide();
                busies.push(s.band().0);
            }
            assert_eq!(busies[0], 1);
            assert!(busies[4] > busies[0], "band must escalate: {busies:?}");
        });
    }

    #[test]
    fn band_drains_between_heartbeats() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 3);
            sleep(SimDuration::from_millis(15)).await;
            // Force a busy observation with a deterministic outcome.
            loop {
                sleep(SimDuration::from_millis(11)).await;
                s.note_heartbeat(1.0);
                if s.decide() {
                    break;
                }
            }
            let (_, r_off) = s.band();
            // Drain the rest of the band without fresh heartbeats.
            for _ in 0..r_off {
                assert!(s.decide());
            }
            assert!(!s.decide(), "band exhausted, back to fast messaging");
        });
    }

    #[test]
    fn calm_heartbeat_resets_busy_counter_not_band() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 4);
            sleep(SimDuration::from_millis(15)).await;
            // Escalate twice.
            for _ in 0..2 {
                sleep(SimDuration::from_millis(11)).await;
                s.note_heartbeat(1.0);
                s.decide();
            }
            let (busy_before, _) = s.band();
            assert!(busy_before >= 1);
            sleep(SimDuration::from_millis(11)).await;
            s.note_heartbeat(0.1);
            s.decide();
            assert_eq!(s.band().0, 0, "busy counter reset by calm heartbeat");
        });
    }

    #[test]
    fn silence_after_heartbeats_fails_over_to_offload() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 6);
            sleep(SimDuration::from_millis(15)).await;
            s.note_heartbeat(0.1);
            sleep(SimDuration::from_millis(11)).await;
            assert!(!s.decide(), "calm server: fast path");
            // Silence beyond k·Inv (5 × 10 ms default) trips the failsafe.
            sleep(SimDuration::from_millis(60)).await;
            assert!(s.decide(), "stale heartbeats: offload");
            assert!(s.is_stale());
            assert_eq!(s.stale_windows(), 1);
            // Edge-triggered: the window counts once while it lasts.
            assert!(s.decide());
            assert_eq!(s.stale_windows(), 1);
            // The stream resumes: one heartbeat is not yet trust — the
            // default hysteresis wants 2 consecutive fresh intervals.
            s.note_heartbeat(0.1);
            assert!(s.decide(), "one heartbeat: still frozen");
            assert!(s.is_stale());
            sleep(SimDuration::from_millis(10)).await;
            s.note_heartbeat(0.1);
            assert!(!s.decide(), "second consecutive heartbeat: unfrozen");
            assert!(!s.is_stale());
            assert_eq!(s.stale_windows(), 1);
        });
    }

    #[test]
    fn stale_window_dumps_once_whichever_call_engages_it() {
        let sim = Sim::new();
        sim.run_until(async {
            let flight = FlightRecorder::new();
            let mut s = AdaptiveState::with_recorder(params(), 6, flight.clone());
            sleep(SimDuration::from_millis(15)).await;
            s.note_heartbeat(0.1);
            sleep(SimDuration::from_millis(60)).await;
            // The failure detector's probe engages the window; the next
            // decision routes inside it and dumps nothing more.
            assert!(s.probe_stale());
            assert!(s.decide());
            let dumps = flight.dumps();
            assert_eq!(dumps.len(), 1);
            assert_eq!(
                dumps[0].anomaly,
                Anomaly::StaleHeartbeat {
                    silent_ns: 60_000_000
                }
            );
            let last = dumps[0].history.last().map(|e| e.event);
            assert_eq!(
                last,
                Some(FlightEvent::Adaptive(AdaptiveEvent::StaleHeartbeat {
                    silent_ns: 60_000_000
                }))
            );
        });
    }

    #[test]
    fn stale_recovery_needs_consecutive_fresh_intervals() {
        let sim = Sim::new();
        sim.run_until(async {
            // Scripted timeline for the hysteresis, k = 3:
            //   t=15ms   heartbeat        (fresh)
            //   t=80ms   silence > 5·Inv  → frozen
            //   t=80ms   heartbeat #1     → still frozen (streak 1)
            //   t=140ms  silence again    → streak voided
            //   t=140ms  heartbeat #1     → still frozen (streak 1)
            //   t=150ms  heartbeat #2     → still frozen (streak 2)
            //   t=150ms  heartbeat burst  → must NOT advance the streak
            //   t=160ms  heartbeat #3     → unfrozen
            let mut s = AdaptiveState::new(
                AdaptiveParams {
                    stale_recovery_intervals: 3,
                    ..AdaptiveParams::default()
                },
                8,
            );
            sleep(SimDuration::from_millis(15)).await;
            s.note_heartbeat(0.1);
            sleep(SimDuration::from_millis(65)).await;
            assert!(s.decide(), "silence froze the band");
            s.note_heartbeat(0.1);
            assert!(s.decide(), "streak 1 of 3: frozen");
            // The stream dies again mid-recovery: progress is voided.
            sleep(SimDuration::from_millis(60)).await;
            assert!(s.decide());
            assert_eq!(s.stale_windows(), 1, "one continuous stale window");
            s.note_heartbeat(0.1);
            assert!(s.decide(), "streak restarted at 1: frozen");
            sleep(SimDuration::from_millis(10)).await;
            s.note_heartbeat(0.1);
            assert!(s.decide(), "streak 2 of 3: frozen");
            // A burst within the same interval is one publication.
            s.note_heartbeat(0.1);
            s.note_heartbeat(0.1);
            assert!(s.decide(), "burst does not fake an interval");
            sleep(SimDuration::from_millis(10)).await;
            s.note_heartbeat(0.1);
            assert!(!s.decide(), "streak 3 of 3: unfrozen");
            assert!(!s.is_stale());
        });
    }

    #[test]
    fn never_heard_server_keeps_fast_path() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 7);
            sleep(SimDuration::from_millis(200)).await;
            assert!(!s.decide(), "no heartbeat ever: no failsafe");
            assert_eq!(s.stale_windows(), 0);
        });
    }

    #[test]
    fn fetch_regime_requires_busy_server_and_large_responses() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(AdaptiveParams::three_way(), 11);
            // Large responses but an idle server: fast messaging.
            for _ in 0..40 {
                s.note_response_items(500);
            }
            s.note_heartbeat(0.1);
            sleep(SimDuration::from_millis(11)).await;
            assert_eq!(s.decide_route(), RouteChoice::Fast);
            // A contended-but-not-busy server with large responses: fetch.
            // (util 0.7 sits above FETCH_UTIL_FLOOR yet below the 0.95
            // busy threshold, so the offload band never engages.)
            s.note_heartbeat(0.7);
            sleep(SimDuration::from_millis(11)).await;
            assert_eq!(s.decide_route(), RouteChoice::Fetch);
            // Small responses drag the EWMA back down: fast again.
            for _ in 0..40 {
                s.note_response_items(1);
            }
            assert_eq!(s.decide_route(), RouteChoice::Fast);
        });
    }

    #[test]
    fn offload_band_beats_fetch_regime() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(AdaptiveParams::three_way(), 12);
            for _ in 0..40 {
                s.note_response_items(500);
            }
            sleep(SimDuration::from_millis(15)).await;
            // Busy heartbeats escalate the band; while r_off drains, every
            // decision must offload even though the fetch regime holds.
            loop {
                sleep(SimDuration::from_millis(11)).await;
                s.note_heartbeat(1.0);
                if s.decide_route() == RouteChoice::Offload {
                    break;
                }
            }
            let (_, r_off) = s.band();
            for _ in 0..r_off {
                assert_eq!(s.decide_route(), RouteChoice::Offload);
            }
            // Band exhausted: the server is still contended (last_util 1.0)
            // and responses are large, so the next route is Fetch.
            assert_eq!(s.decide_route(), RouteChoice::Fetch);
        });
    }

    #[test]
    fn heartbeat_cost_terms_move_the_crossover() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(AdaptiveParams::three_way(), 13);
            // No cost terms yet: static fallback threshold.
            assert_eq!(s.threshold_items(), FETCH_ITEMS_THRESHOLD);
            // wb: 4000 + 2500/KB, fetch: 10000 + 400/KB, 40-byte items →
            // S* = 6000/2100 KiB ≈ 2.857 KiB ≈ 73.1 items.
            s.note_heartbeat_info(HeartbeatInfo {
                util_permille: 900,
                wb_fixed_ns: 4_000,
                wb_per_kb_ns: 2_500,
                fetch_fixed_ns: 10_000,
                fetch_per_kb_ns: 400,
            });
            let t = s.threshold_items();
            assert!((70.0..80.0).contains(&t), "derived crossover: {t}");
            // Degenerate terms (no crossover): fall back.
            s.note_heartbeat_info(HeartbeatInfo {
                util_permille: 900,
                ..HeartbeatInfo::default()
            });
            assert_eq!(s.threshold_items(), FETCH_ITEMS_THRESHOLD);
        });
    }

    #[test]
    fn fetch_disabled_params_never_route_fetch() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 14);
            for _ in 0..40 {
                s.note_response_items(10_000);
            }
            s.note_heartbeat(0.9);
            sleep(SimDuration::from_millis(11)).await;
            assert_eq!(s.decide_route(), RouteChoice::Fast);
            assert!(!s.decide());
        });
    }

    #[test]
    fn stale_heartbeat_not_consumed_twice() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut s = AdaptiveState::new(params(), 5);
            sleep(SimDuration::from_millis(15)).await;
            s.note_heartbeat(1.0);
            sleep(SimDuration::from_millis(11)).await;
            s.decide();
            let band = s.band();
            // Immediately deciding again (within Inv) must not re-consume.
            s.note_heartbeat(1.0);
            s.decide();
            assert_eq!(s.band().0, band.0, "no double consumption inside Inv");
        });
    }
}
