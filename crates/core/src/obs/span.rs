//! Phase-level span timing for the service core.
//!
//! A [`TraceSink`] is a cheap, cloneable handle that the client, server,
//! and ring endpoints share. Each instrumented region brackets itself with
//! [`TraceSink::begin`] / [`TraceSink::end`], attributing the elapsed
//! *virtual* time to one [`Phase`]; spans therefore never perturb the
//! simulation — tracing a run cannot change its outcome.
//!
//! Tracing is opt-in at run time: components hold an unshared default
//! sink until a run attaches a common one (the harness does so when
//! [`crate::harness::ExperimentSpec::collect_phase_spans`] is set).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use catfish_simnet::SimDuration;
use catfish_simnet::{try_now, SimTime};

use super::hist::LatencyHistogram;
use crate::stats::LatencySummary;

/// A traced phase of a Catfish request — the span taxonomy.
///
/// The first six phases tile the fast-messaging round trip end to end;
/// the offload phases attribute the client-direct RDMA path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client-side ring reservation, payload copy, and doorbell write —
    /// up to the moment the request frame is delivered remotely.
    RingEnqueue,
    /// Client waiting on its completion queue for the response doorbell.
    CqWait,
    /// Request sitting in the server's ring between NIC delivery
    /// (`Completion.at`) and the worker picking it up.
    ServerQueue,
    /// Server-side frame decode plus the dispatch CPU charge.
    Dispatch,
    /// Index execution (tree/map traversal) plus its modeled CPU cost.
    IndexExec,
    /// Response post charge and ring transit back to the client.
    RespTransit,
    /// Client metadata chunk refresh over one-sided reads.
    MetaRead,
    /// One full offloaded traversal, including any retries.
    OffloadRead,
    /// Extra time an offloaded traversal spent beyond its first attempt
    /// (version-retry and restart cost).
    OffloadRetry,
    /// Client time spent backing off between retransmission attempts of
    /// a timed-out fast-messaging request.
    RetryBackoff,
    /// Client time spent pulling a deposited response out of the server's
    /// mailbox with one-sided reads (header polls, payload read, CRC
    /// validation, and ack), from request send to decoded response.
    MailboxFetch,
}

/// Number of phases (sizes the per-sink histogram array).
pub const N_PHASES: usize = 11;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::RingEnqueue,
        Phase::CqWait,
        Phase::ServerQueue,
        Phase::Dispatch,
        Phase::IndexExec,
        Phase::RespTransit,
        Phase::MetaRead,
        Phase::OffloadRead,
        Phase::OffloadRetry,
        Phase::RetryBackoff,
        Phase::MailboxFetch,
    ];

    /// Stable snake_case name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::RingEnqueue => "ring_enqueue",
            Phase::CqWait => "cq_wait",
            Phase::ServerQueue => "server_queue",
            Phase::Dispatch => "dispatch",
            Phase::IndexExec => "index_exec",
            Phase::RespTransit => "resp_transit",
            Phase::MetaRead => "meta_read",
            Phase::OffloadRead => "offload_read",
            Phase::OffloadRetry => "offload_retry",
            Phase::RetryBackoff => "retry_backoff",
            Phase::MailboxFetch => "mailbox_fetch",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::RingEnqueue => 0,
            Phase::CqWait => 1,
            Phase::ServerQueue => 2,
            Phase::Dispatch => 3,
            Phase::IndexExec => 4,
            Phase::RespTransit => 5,
            Phase::MetaRead => 6,
            Phase::OffloadRead => 7,
            Phase::OffloadRetry => 8,
            Phase::RetryBackoff => 9,
            Phase::MailboxFetch => 10,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An opaque span start token returned by [`TraceSink::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the token back to TraceSink::end to record the span"]
pub struct SpanStart {
    at: SimTime,
}

/// Shared recorder of per-phase latency histograms.
///
/// Cloning a sink shares the underlying histograms (an `Rc`), so the client, its ring sender, and the server-side receiver
/// all funnel into one set of per-phase distributions.
#[derive(Clone, Default)]
pub struct TraceSink {
    phases: Rc<RefCell<[LatencyHistogram; N_PHASES]>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

impl TraceSink {
    /// Creates a sink with empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures the current virtual instant as a span start.
    #[inline]
    pub fn begin(&self) -> SpanStart {
        SpanStart {
            at: try_now().unwrap_or(SimTime::ZERO),
        }
    }

    /// Closes a span started by [`TraceSink::begin`], attributing the
    /// elapsed virtual time to `phase`.
    #[inline]
    pub fn end(&self, phase: Phase, start: SpanStart) {
        let now = try_now().unwrap_or(SimTime::ZERO);
        self.phases.borrow_mut()[phase.index()].record(now.saturating_duration_since(start.at));
    }

    /// Records an externally measured duration against `phase`.
    #[inline]
    pub fn record(&self, phase: Phase, span: SimDuration) {
        self.phases.borrow_mut()[phase.index()].record(span);
    }

    /// Snapshot of one phase's histogram; `None` when the phase recorded
    /// nothing.
    pub fn phase_histogram(&self, phase: Phase) -> Option<LatencyHistogram> {
        let h = &self.phases.borrow()[phase.index()];
        if h.is_empty() {
            None
        } else {
            Some(h.clone())
        }
    }

    /// Summaries of every phase that recorded at least one span, in
    /// [`Phase::ALL`] order.
    pub fn summaries(&self) -> Vec<PhaseSummary> {
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                self.phase_histogram(p).map(|h| PhaseSummary {
                    phase: p,
                    summary: h.summary(),
                })
            })
            .collect()
    }

    /// Adds every phase histogram of `other` into this sink.
    pub fn merge(&self, other: &TraceSink) {
        if Rc::ptr_eq(&self.phases, &other.phases) {
            return;
        }
        let theirs = other.phases.borrow();
        let mut ours = self.phases.borrow_mut();
        for (a, b) in ours.iter_mut().zip(theirs.iter()) {
            a.merge(b);
        }
    }
}

/// One phase's latency distribution, snapshotted for reporting.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Which phase the summary describes.
    pub phase: Phase,
    /// The distribution summary for that phase.
    pub summary: LatencySummary,
}

impl fmt::Display for PhaseSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>13}: {}", self.phase.name(), self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_PHASES);
    }

    #[test]
    fn spans_accumulate_virtual_time() {
        use catfish_simnet::{sleep, Sim};
        let sim = Sim::new();
        sim.run_until(async {
            let sink = TraceSink::new();
            let start = sink.begin();
            sleep(SimDuration::from_micros(7)).await;
            sink.end(Phase::Dispatch, start);
            let h = sink.phase_histogram(Phase::Dispatch).unwrap();
            assert_eq!(h.len(), 1);
            assert_eq!(h.max(), SimDuration::from_micros(7));
            assert!(sink.phase_histogram(Phase::CqWait).is_none());
        });
    }

    #[test]
    fn clones_share_histograms() {
        let sink = TraceSink::new();
        let other = sink.clone();
        other.record(Phase::IndexExec, SimDuration::from_micros(3));
        assert_eq!(sink.phase_histogram(Phase::IndexExec).unwrap().len(), 1);
    }

    #[test]
    fn merge_is_self_safe_and_additive() {
        let a = TraceSink::new();
        a.record(Phase::CqWait, SimDuration::from_micros(1));
        let same = a.clone();
        a.merge(&same); // shared storage: must not double-count
        assert_eq!(a.phase_histogram(Phase::CqWait).unwrap().len(), 1);

        let b = TraceSink::new();
        b.record(Phase::CqWait, SimDuration::from_micros(2));
        a.merge(&b);
        assert_eq!(a.phase_histogram(Phase::CqWait).unwrap().len(), 2);
    }
}
