//! The per-connection flight recorder: the one emitter of a
//! connection's discrete events, kept in a fixed-size ring and
//! auto-dumped on anomalies.
//!
//! A tail-latency excursion under a fault plan used to leave no record of
//! *what the connection was doing* when it happened — counters say a
//! timeout occurred, not what preceded it. Every [`crate::service::ServiceClient`]
//! therefore keeps a [`FlightRecorder`]: an **always-on** bounded ring of
//! the last [`FLIGHT_RING`] events — sends, responses, retransmits and
//! heartbeats from the protocol, and every Algorithm 1 step
//! ([`FlightEvent::Adaptive`]) from the connection's
//! [`crate::adaptive::AdaptiveState`]. Recording is O(1) per event with
//! no allocation in steady state and touches no virtual time, so it
//! cannot perturb a run. When an anomaly fires — a timeout, a ring CRC
//! failure, a receiver resync, a stale-heartbeat failover, or a mailbox
//! fetch fallback — the recorder snapshots the ring into an annotated
//! [`FlightDump`], preserving the ≥32 events of history that explain it.
//!
//! An attached [`AdaptiveEventLog`] retains every `Adaptive` entry the
//! ring sees, so the Algorithm 1 timeline is a view of this one stream.
//! Unlike phase spans, the recorder is always on: it is precisely the
//! thing one wants running in production builds.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::{self, Write};
use std::rc::Rc;

use catfish_simnet::{try_now, SimTime};

use super::events::{AdaptiveEvent, AdaptiveEventLog};

/// Capacity of the per-connection event ring. Dump consumers rely on at
/// least 32 events of pre-anomaly history once a connection has warmed
/// up, so the ring holds double that.
pub const FLIGHT_RING: usize = 64;

/// Dumps retained per recorder; older dumps are dropped first so a
/// pathological connection cannot grow without bound.
const MAX_DUMPS: usize = 256;

/// One event in a connection's recent history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEvent {
    /// A request frame was posted to the ring.
    Send {
        /// Request sequence number (fetch flag masked off).
        seq: u32,
        /// Encoded frame payload bytes.
        bytes: u32,
    },
    /// A final (END) response arrived for a request.
    Recv {
        /// Request sequence number.
        seq: u32,
        /// Response items carried.
        items: u32,
    },
    /// A timed-out request was retransmitted.
    Retransmit {
        /// Request sequence number.
        seq: u32,
    },
    /// A server heartbeat was consumed.
    HeartbeatRx {
        /// Advertised server CPU utilization × 1000.
        util_permille: u16,
    },
    /// One Algorithm 1 step: a heartbeat consumed, a band escalated or
    /// reset, the staleness failsafe engaged, a fetch-regime transition,
    /// or the route an adaptive read took.
    Adaptive(AdaptiveEvent),
}

impl FlightEvent {
    /// Stable snake_case name used in JSONL output (an `Adaptive` entry
    /// carries its [`AdaptiveEvent::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::Send { .. } => "send",
            FlightEvent::Recv { .. } => "recv",
            FlightEvent::Retransmit { .. } => "retransmit",
            FlightEvent::HeartbeatRx { .. } => "heartbeat_rx",
            FlightEvent::Adaptive(e) => e.kind(),
        }
    }

    /// Appends the event's fields as `,"name":value` JSON pairs.
    fn write_fields(&self, out: &mut String) {
        let _ = match *self {
            FlightEvent::Send { seq, bytes } => write!(out, ",\"seq\":{seq},\"bytes\":{bytes}"),
            FlightEvent::Recv { seq, items } => write!(out, ",\"seq\":{seq},\"items\":{items}"),
            FlightEvent::Retransmit { seq } => write!(out, ",\"seq\":{seq}"),
            FlightEvent::HeartbeatRx { util_permille } => {
                write!(out, ",\"util_permille\":{util_permille}")
            }
            FlightEvent::Adaptive(e) => {
                e.write_fields(out);
                Ok(())
            }
        };
    }
}

/// An anomaly that triggers a flight dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// A request exhausted its per-attempt deadline.
    Timeout {
        /// Request sequence number.
        seq: u32,
    },
    /// A ring frame failed CRC validation on receive.
    ChecksumFailure,
    /// The receiver resynchronized past a hole in the ring.
    Resync,
    /// The heartbeat stream went stale and the staleness failsafe
    /// engaged (fired once per window, by the failsafe itself).
    StaleHeartbeat {
        /// Silence at the failover, nanoseconds of virtual time.
        silent_ns: u64,
    },
    /// A fetch-mode read fell back to the write-back path.
    FetchFallback {
        /// Request sequence number.
        seq: u32,
    },
}

impl Anomaly {
    /// Stable snake_case name used in JSONL output and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::Timeout { .. } => "timeout",
            Anomaly::ChecksumFailure => "checksum_failure",
            Anomaly::Resync => "resync",
            Anomaly::StaleHeartbeat { .. } => "stale_heartbeat",
            Anomaly::FetchFallback { .. } => "fetch_fallback",
        }
    }
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())
    }
}

/// A [`FlightEvent`] stamped with its virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Virtual instant the event was recorded.
    pub t: SimTime,
    /// The event itself.
    pub event: FlightEvent,
}

/// One anomaly's annotated history: the anomaly, its connection identity,
/// and a snapshot of the event ring (oldest first) at the moment it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Virtual instant the anomaly fired.
    pub t: SimTime,
    /// Client the connection belongs to.
    pub client: u32,
    /// Shard the connection targets (0 in one-shard runs).
    pub shard: u32,
    /// What fired.
    pub anomaly: Anomaly,
    /// The preceding events, oldest first (up to [`FLIGHT_RING`]).
    pub history: Vec<FlightEntry>,
}

impl FlightDump {
    /// Serializes the dump as one JSON object (a JSONL line, sans
    /// newline). Hand-rolled — every field is numeric or a fixed literal.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"t_ns\":{},\"client\":{},\"shard\":{},\"anomaly\":\"{}\"",
            self.t.as_nanos(),
            self.client,
            self.shard,
            self.anomaly.kind()
        );
        let _ = match self.anomaly {
            Anomaly::Timeout { seq } | Anomaly::FetchFallback { seq } => {
                write!(out, ",\"seq\":{seq}")
            }
            Anomaly::StaleHeartbeat { silent_ns } => write!(out, ",\"silent_ns\":{silent_ns}"),
            Anomaly::ChecksumFailure | Anomaly::Resync => Ok(()),
        };
        out.push_str(",\"history\":[");
        for (i, e) in self.history.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"event\":\"{}\"",
                e.t.as_nanos(),
                e.event.kind()
            );
            e.event.write_fields(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<FlightEntry>,
    dumps: Vec<FlightDump>,
    dropped_dumps: u64,
    client: u32,
    shard: u32,
    /// Retained view of the `Adaptive` entries, when a run asked for it.
    timeline: Option<AdaptiveEventLog>,
}

/// The always-on per-connection flight recorder (cloneable shared
/// handle). Created by every `ServiceClient`; the ring receiver and the
/// connection's `AdaptiveState` share the same recorder through clones.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Rc<RefCell<RecorderInner>>,
}

impl FlightRecorder {
    /// A fresh recorder (client 0, shard 0, empty ring).
    pub fn new() -> Self {
        FlightRecorder {
            inner: Rc::new(RefCell::new(RecorderInner {
                ring: VecDeque::with_capacity(FLIGHT_RING),
                ..RecorderInner::default()
            })),
        }
    }

    /// Stamps the connection identity onto future dumps.
    pub fn set_ids(&self, client: u32, shard: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.client = client;
        inner.shard = shard;
    }

    /// Retains every future `Adaptive` entry in `log` as well — use a
    /// [`AdaptiveEventLog::for_client`] handle, whose ids stamp the
    /// records.
    pub(crate) fn set_event_log(&self, log: AdaptiveEventLog) {
        self.inner.borrow_mut().timeline = Some(log);
    }

    /// Records one event (O(1), no virtual time touched); an `Adaptive`
    /// event also enters the attached timeline.
    #[inline]
    pub fn note(&self, event: FlightEvent) {
        let t = try_now().unwrap_or(SimTime::ZERO);
        let mut inner = self.inner.borrow_mut();
        if inner.ring.len() == FLIGHT_RING {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightEntry { t, event });
        if let (FlightEvent::Adaptive(e), Some(log)) = (event, &inner.timeline) {
            log.push(t, e);
        }
    }

    /// Fires an anomaly: snapshots the current ring into an annotated
    /// dump. The ring itself is preserved (a burst of anomalies each gets
    /// the history that preceded *it*).
    pub fn anomaly(&self, anomaly: Anomaly) {
        let mut inner = self.inner.borrow_mut();
        let history: Vec<FlightEntry> = inner.ring.iter().copied().collect();
        let dump = FlightDump {
            t: try_now().unwrap_or(SimTime::ZERO),
            client: inner.client,
            shard: inner.shard,
            anomaly,
            history,
        };
        if inner.dumps.len() == MAX_DUMPS {
            inner.dumps.remove(0);
            inner.dropped_dumps += 1;
        }
        inner.dumps.push(dump);
    }

    /// Number of dumps fired so far (including any dropped beyond the
    /// retention cap).
    pub fn dump_count(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.dumps.len() as u64 + inner.dropped_dumps
    }

    /// Number of events currently held in the ring.
    pub fn ring_len(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// Snapshot of the retained dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.inner.borrow().dumps.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RouteChoice;

    #[test]
    fn ring_is_bounded_and_dump_preserves_history() {
        let rec = FlightRecorder::new();
        rec.set_ids(7, 2);
        for i in 0..(FLIGHT_RING as u32 + 10) {
            rec.note(FlightEvent::Send { seq: i, bytes: 40 });
        }
        assert_eq!(rec.ring_len(), FLIGHT_RING);
        rec.anomaly(Anomaly::Timeout { seq: 99 });
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!((d.client, d.shard), (7, 2));
        assert_eq!(d.history.len(), FLIGHT_RING);
        // Oldest retained entry is the 11th send (0..10 were evicted).
        assert_eq!(d.history[0].event, FlightEvent::Send { seq: 10, bytes: 40 });
        assert_eq!(
            d.history.last().unwrap().event,
            FlightEvent::Send {
                seq: FLIGHT_RING as u32 + 9,
                bytes: 40
            }
        );
    }

    #[test]
    fn burst_of_anomalies_each_snapshot_their_own_history() {
        let rec = FlightRecorder::new();
        rec.note(FlightEvent::Adaptive(AdaptiveEvent::Route {
            route: RouteChoice::Fast,
        }));
        rec.anomaly(Anomaly::ChecksumFailure);
        rec.note(FlightEvent::Retransmit { seq: 1 });
        rec.anomaly(Anomaly::Resync);
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].history.len(), 1);
        assert_eq!(dumps[1].history.len(), 2);
        assert_eq!(rec.dump_count(), 2);
    }

    #[test]
    fn dump_retention_is_capped_but_counted() {
        let rec = FlightRecorder::new();
        for _ in 0..(MAX_DUMPS + 5) {
            rec.anomaly(Anomaly::ChecksumFailure);
        }
        assert_eq!(rec.dumps().len(), MAX_DUMPS);
        assert_eq!(rec.dump_count(), (MAX_DUMPS + 5) as u64);
    }

    #[test]
    fn dump_json_is_one_object() {
        let rec = FlightRecorder::new();
        rec.set_ids(1, 0);
        rec.note(FlightEvent::Send { seq: 4, bytes: 37 });
        rec.note(FlightEvent::HeartbeatRx { util_permille: 512 });
        rec.anomaly(Anomaly::StaleHeartbeat {
            silent_ns: 50_000_000,
        });
        let json = rec.dumps()[0].to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"anomaly\":\"stale_heartbeat\""));
        assert!(json.contains("\"silent_ns\":50000000"));
        assert!(json.contains("\"event\":\"send\""));
        assert!(json.contains("\"util_permille\":512"));
    }

    #[test]
    fn adaptive_entries_feed_the_attached_timeline() {
        use catfish_simnet::{sleep, Sim, SimDuration};
        let sim = Sim::new();
        sim.run_until(async {
            let rec = FlightRecorder::new();
            let log = AdaptiveEventLog::new();
            rec.set_event_log(log.for_client(4).for_shard(2));
            rec.note(FlightEvent::Adaptive(AdaptiveEvent::BusyReset));
            rec.note(FlightEvent::Send { seq: 1, bytes: 37 });
            sleep(SimDuration::from_micros(9)).await;
            rec.note(FlightEvent::Adaptive(AdaptiveEvent::Route {
                route: RouteChoice::Offload,
            }));
            // Protocol events stay in the ring only.
            assert_eq!(rec.ring_len(), 3);
            let events = log.snapshot();
            assert_eq!(events.len(), 2);
            assert_eq!((events[1].client, events[1].shard), (4, 2));
            assert_eq!(
                events[1].t.saturating_duration_since(events[0].t),
                SimDuration::from_micros(9)
            );
            // A dump renders an adaptive entry with the timeline's fields.
            rec.anomaly(Anomaly::Resync);
            let json = rec.dumps()[0].to_json();
            assert!(json.contains("\"event\":\"busy_reset\"}"));
            assert!(json.ends_with("\"event\":\"route\",\"route\":\"offload\"}]}"));
        });
    }
}
