//! Structured adaptive-decision events and their retained timeline.
//!
//! Algorithm 1's behaviour — heartbeat utilization consumption, busy-band
//! escalation, back-off draining, the staleness failsafe and the final
//! route — is recorded as [`AdaptiveEvent`]s. The one emitter is the
//! connection's [`crate::obs::FlightRecorder`]: each step enters its ring
//! as a [`crate::obs::FlightEvent::Adaptive`] entry. An attached
//! [`AdaptiveEventLog`] is the recorder's retained view of those steps,
//! one [`AdaptiveEventRecord`] per step, turning a run into a replayable
//! timeline that `adaptive_dynamics --metrics-out` writes as JSONL.
//!
//! Retention is opt-in per run and off the request hot path (a few
//! events per adaptive decision).

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::rc::Rc;

use catfish_simnet::SimTime;

/// The transport a decision routed one operation down — the three-way
/// generalization of the paper's binary fast-vs-offload choice. `Fast`
/// spends server CPU and server NIC initiation, `Fetch` spends server CPU
/// but moves NIC initiation to the client (RFP-style mailbox deposit +
/// one-sided read), and `Offload` bypasses the server entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteChoice {
    /// Fast messaging: server executes and write-backs over the ring.
    Fast,
    /// Mailbox fetching: server executes and deposits; client pulls.
    Fetch,
    /// Client-side offload: one-sided traversal, no server involvement.
    Offload,
}

impl RouteChoice {
    /// Stable snake_case name used in JSONL output and bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            RouteChoice::Fast => "fast",
            RouteChoice::Fetch => "fetch",
            RouteChoice::Offload => "offload",
        }
    }
}

impl fmt::Display for RouteChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured adaptive-algorithm event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptiveEvent {
    /// A fresh heartbeat's utilization sample was consumed by a decision.
    HeartbeatConsumed {
        /// Server CPU utilization carried by the heartbeat, in `[0, 1]`.
        util: f64,
    },
    /// Utilization crossed the busy threshold: the busy streak grew and a
    /// new back-off band was drawn (Algorithm 1's doubling step).
    BandEscalated {
        /// Consecutive busy heartbeats (`r_busy` after the escalation).
        r_busy: u32,
        /// Offloaded operations still to perform before re-probing.
        r_off: u32,
    },
    /// Utilization fell below the threshold: the busy streak reset.
    BusyReset,
    /// The heartbeat stream went stale: no heartbeat for `k · Inv` after
    /// at least one had been seen. The client stops trusting the last
    /// utilization figure and fails over to offloading until heartbeats
    /// resume.
    StaleHeartbeat {
        /// How long the stream had been silent when the failsafe fired,
        /// in nanoseconds of virtual time.
        silent_ns: u64,
    },
    /// The route chosen for this operation.
    Route {
        /// Which of the three transports the operation was sent down.
        route: RouteChoice,
    },
    /// The decision state crossed into or out of the fetch regime: the
    /// expected response size moved across the write-back/fetch crossover
    /// derived from the heartbeat's per-mode cost terms.
    FetchTransition {
        /// True when entering the fetch regime, false when leaving it.
        entering: bool,
        /// The EWMA of response item counts at the transition.
        ewma_items: f64,
        /// The crossover threshold (in items) in force at the transition.
        threshold_items: f64,
    },
}

impl AdaptiveEvent {
    /// Stable snake_case event kind used in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            AdaptiveEvent::HeartbeatConsumed { .. } => "heartbeat_consumed",
            AdaptiveEvent::BandEscalated { .. } => "band_escalated",
            AdaptiveEvent::BusyReset => "busy_reset",
            AdaptiveEvent::StaleHeartbeat { .. } => "stale_heartbeat",
            AdaptiveEvent::Route { .. } => "route",
            AdaptiveEvent::FetchTransition { .. } => "fetch_transition",
        }
    }

    /// Appends the event's fields as `,"name":value` JSON pairs: the one
    /// field writer behind both [`AdaptiveEventRecord::to_json`] and the
    /// `Adaptive` entries of a flight dump.
    pub(crate) fn write_fields(&self, out: &mut String) {
        let _ = match *self {
            AdaptiveEvent::HeartbeatConsumed { util } => write!(out, ",\"util\":{util:.4}"),
            AdaptiveEvent::BandEscalated { r_busy, r_off } => {
                write!(out, ",\"r_busy\":{r_busy},\"r_off\":{r_off}")
            }
            AdaptiveEvent::BusyReset => Ok(()),
            AdaptiveEvent::StaleHeartbeat { silent_ns } => {
                write!(out, ",\"silent_ns\":{silent_ns}")
            }
            AdaptiveEvent::Route { route } => write!(out, ",\"route\":\"{route}\""),
            AdaptiveEvent::FetchTransition {
                entering,
                ewma_items,
                threshold_items,
            } => write!(
                out,
                ",\"entering\":{entering},\"ewma_items\":{ewma_items:.2},\
                 \"threshold_items\":{threshold_items:.2}"
            ),
        };
    }
}

/// An [`AdaptiveEvent`] stamped with its virtual time, client id, and
/// shard id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEventRecord {
    /// Virtual instant the event was emitted.
    pub t: SimTime,
    /// Client the deciding `AdaptiveState` belongs to.
    pub client: u32,
    /// Shard the decision targeted (0 in one-shard runs). Algorithm 1
    /// runs independently per shard, so plotting tools must group by this
    /// field rather than aggregating a cluster into one timeline.
    pub shard: u32,
    /// The event itself.
    pub event: AdaptiveEvent,
}

impl AdaptiveEventRecord {
    /// Serializes the record as one JSON object (a JSONL line, sans
    /// newline). Hand-rolled: every field is numeric or a fixed literal,
    /// so no escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"t_ns\":{},\"client\":{},\"shard\":{},\"event\":\"{}\"",
            self.t.as_nanos(),
            self.client,
            self.shard,
            self.event.kind()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

impl fmt::Display for AdaptiveEventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// A shared, append-only Algorithm 1 timeline for one run: the retained
/// view of the `Adaptive` entries of every connection recorder it is
/// attached to (`AdaptiveState::set_event_log` attaches it).
///
/// Cloning shares the buffer; [`AdaptiveEventLog::for_client`] stamps a
/// client id so each client's recorder gets its own handle into the
/// common timeline.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveEventLog {
    events: Rc<RefCell<Vec<AdaptiveEventRecord>>>,
    client: u32,
    shard: u32,
}

impl AdaptiveEventLog {
    /// Creates an empty log (client id 0, shard id 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle onto the same buffer that stamps `client` on every
    /// event it records (keeping this handle's shard id).
    pub fn for_client(&self, client: u32) -> Self {
        AdaptiveEventLog {
            events: Rc::clone(&self.events),
            client,
            shard: self.shard,
        }
    }

    /// A handle onto the same buffer that stamps `shard` on every event
    /// it records (keeping this handle's client id). A cluster client
    /// holds one recorder per shard connection, each wired to
    /// `log.for_client(c).for_shard(s)`.
    pub fn for_shard(&self, shard: u32) -> Self {
        AdaptiveEventLog {
            events: Rc::clone(&self.events),
            client: self.client,
            shard,
        }
    }

    /// Appends an event recorded at `t`, stamped with this handle's
    /// client and shard ids.
    pub(crate) fn push(&self, t: SimTime, event: AdaptiveEvent) {
        self.events.borrow_mut().push(AdaptiveEventRecord {
            t,
            client: self.client,
            shard: self.shard,
            event,
        });
    }

    /// Snapshot of the full timeline in emission order.
    pub fn snapshot(&self) -> Vec<AdaptiveEventRecord> {
        self.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_timeline() {
        let log = AdaptiveEventLog::new();
        let c3 = log.for_client(3);
        let c7 = log.for_client(7);
        c3.push(
            SimTime::ZERO,
            AdaptiveEvent::Route {
                route: RouteChoice::Fast,
            },
        );
        c7.push(SimTime::ZERO, AdaptiveEvent::BusyReset);
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].client, 3);
        assert_eq!(events[1].client, 7);
    }

    #[test]
    fn shard_handles_stamp_both_ids() {
        let log = AdaptiveEventLog::new();
        let c2s1 = log.for_client(2).for_shard(1);
        let c2s3 = log.for_client(2).for_shard(3);
        c2s1.push(
            SimTime::ZERO,
            AdaptiveEvent::Route {
                route: RouteChoice::Offload,
            },
        );
        c2s3.push(
            SimTime::ZERO,
            AdaptiveEvent::Route {
                route: RouteChoice::Fast,
            },
        );
        let events = log.snapshot();
        assert_eq!((events[0].client, events[0].shard), (2, 1));
        assert_eq!((events[1].client, events[1].shard), (2, 3));
        assert!(events[0].to_json().contains("\"shard\":1"));
        assert!(events[1].to_json().contains("\"shard\":3"));
    }

    #[test]
    fn records_render_as_one_object_each() {
        let log = AdaptiveEventLog::new();
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::HeartbeatConsumed { util: 0.97 },
        );
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::BandEscalated {
                r_busy: 2,
                r_off: 11,
            },
        );
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::Route {
                route: RouteChoice::Offload,
            },
        );
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::StaleHeartbeat {
                silent_ns: 50_000_000,
            },
        );
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::FetchTransition {
                entering: true,
                ewma_items: 120.5,
                threshold_items: 73.0,
            },
        );
        let lines: Vec<String> = log.snapshot().iter().map(|r| r.to_json()).collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains("\"event\":\"stale_heartbeat\""));
        assert!(lines[3].contains("\"silent_ns\":50000000"));
        assert!(lines[0].contains("\"event\":\"heartbeat_consumed\""));
        assert!(lines[0].contains("\"util\":0.9700"));
        assert!(lines[1].contains("\"r_busy\":2"));
        assert!(lines[1].contains("\"r_off\":11"));
        assert!(lines[2].ends_with("\"route\":\"offload\"}"));
        assert!(lines[4].contains("\"event\":\"fetch_transition\""));
        assert!(lines[4].contains("\"entering\":true"));
        assert!(lines[4].contains("\"ewma_items\":120.50"));
        assert!(lines[4].contains("\"threshold_items\":73.00"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn route_names_are_stable() {
        assert_eq!(RouteChoice::Fast.name(), "fast");
        assert_eq!(RouteChoice::Fetch.name(), "fetch");
        assert_eq!(RouteChoice::Offload.name(), "offload");
        let log = AdaptiveEventLog::new();
        log.push(
            SimTime::ZERO,
            AdaptiveEvent::Route {
                route: RouteChoice::Fetch,
            },
        );
        assert!(log.snapshot()[0].to_json().contains("\"route\":\"fetch\""));
    }
}
