//! Measurement: latency summary statistics and the unified service
//! counters shared by every backend.

use std::fmt;

use catfish_simnet::SimDuration;

/// Declares [`ServiceStats`] from one table of counters. Each entry is
/// `name: "help", fold;` where `fold` says whether
/// [`ServiceStats::fold_server`] adds the server's value into a client
/// snapshot. The table generates the struct (the help text is each field's
/// doc), [`ServiceStats::merge`], [`ServiceStats::fold_server`],
/// [`ServiceStats::counters`], which the metrics export walks, and
/// `Display`, which prints every counter as `name=value` in table order
/// followed by the derived figures.
macro_rules! service_counters {
    ($($name:ident: $help:literal, $fold:literal;)*) => {
        /// Unified operation counters for a Catfish service endpoint.
        ///
        /// One struct covers both sides of a connection: servers populate
        /// the request-execution counters (`reads`, `writes`, ...), clients
        /// populate the path-routing and offload counters (`fast_reads`,
        /// `torn_retries`, ...). Keeping a single index-agnostic struct
        /// means the harness and figure binaries aggregate every backend
        /// the same way.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServiceStats {
            $(#[doc = $help] pub $name: u64,)*
        }

        impl ServiceStats {
            /// Adds every counter of `other` into `self` (harness
            /// aggregation).
            pub fn merge(&mut self, other: &ServiceStats) {
                $(self.$name += other.$name;)*
            }

            /// Folds a server's counters into this client-side snapshot, so
            /// one struct tells the whole story of a run: duplicate
            /// suppression, request-ring integrity and decode errors,
            /// mailbox deposits, and replication. The other server
            /// counters stay out: fields like `batches_sent` exist on both
            /// sides, and the client-side reading is what the figures
            /// plot.
            pub fn fold_server(&mut self, server: &ServiceStats) {
                $(if $fold {
                    self.$name += server.$name;
                })*
            }

            /// Every counter as `(field name, help text, value)`, in
            /// declaration order.
            pub fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$((stringify!($name), $help, self.$name),)*]
            }
        }

        impl fmt::Display for ServiceStats {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(write!(f, concat!(stringify!($name), "={} "), self.$name)?;)*
                write!(
                    f,
                    "({:.1}% offloaded, dominant {}, {:.1} msgs/batch, mean repl lag {})",
                    self.offload_fraction() * 100.0,
                    self.dominant_transport(),
                    self.msgs_per_batch(),
                    self.mean_repl_lag(),
                )
            }
        }
    };
}

service_counters! {
    reads: "Read requests (searches, gets, ranges, kNN) executed server-side.", false;
    writes: "Write requests (inserts, puts) executed server-side.", false;
    removes: "Remove requests (deletes) executed server-side.", false;
    results_returned: "Result items returned by server-side reads.", false;
    nodes_visited: "Index nodes visited by server-side operations.", false;
    fast_reads: "Client reads served through fast messaging.", false;
    offloaded_reads: "Client reads served through RDMA-offloaded traversal.", false;
    writes_sent: "Write requests sent by clients (always fast messaging).", false;
    removes_sent: "Remove requests sent by clients.", false;
    torn_retries: "Chunk reads retried after version-validation failure (torn reads).", false;
    short_reads: "Chunk reads repeated whole because the node held more lines than its \
        level's bound let the client read.", false;
    meta_refreshes: "Metadata line reads issued by clients.", false;
    offload_restarts: "Offloaded traversals restarted after observing an inconsistency.", false;
    chunks_fetched: "Chunks fetched over the wire by offloaded traversals.", false;
    cache_hits: "Chunk reads served by the client's cache of upper nodes.", false;
    batches_sent: "Doorbell batches carrying two or more coalesced messages: request \
        batches on a client, response batches on a server.", false;
    batched_msgs: "Messages carried inside doorbell batches.", false;
    decode_errors: "Malformed ring frames dropped by the server's decode step.", true;
    timeouts: "Client request attempts that hit their deadline without a response.", false;
    retransmits: "Requests retransmitted after a timeout (at most one per timeout).", false;
    dup_drops: "Retried write-class requests answered from the server's dedup window \
        instead of re-executing.", true;
    checksum_failures: "Ring frames dropped because their payload checksum failed.", true;
    resyncs: "Lost-write holes skipped by ring resync scans.", true;
    stale_heartbeat_windows: "Fresh-to-stale heartbeat transitions that engaged the \
        adaptive failsafe.", false;
    fetched_reads: "Client reads served through the mailbox-fetch path.", false;
    fetched_responses: "Responses the server deposited into mailbox slots instead of \
        ring-writing them.", true;
    fetch_fallbacks: "Fetch-flagged responses that fell back to ring write-back (slot \
        overflow or no mailbox).", true;
    mailbox_reclaims: "Mailbox slot leases reclaimed by the server (acked or \
        lease-expired).", true;
    flight_dumps: "Flight-recorder dumps fired by connection anomalies.", false;
    repl_forwards: "Mutations a primary forwarded to its backups (one per acknowledged \
        mutation, regardless of fan-out).", true;
    repl_fenced: "Mutations fenced by a replica: stale epoch, or a client submission \
        on a non-primary.", true;
    repl_dups: "Failover reissues answered from the replica-set applied-operation \
        table.", true;
    repl_lag_ns: "Nanoseconds primaries spent awaiting backup acknowledgement \
        (replication lag).", true;
}

impl ServiceStats {
    /// Mean primary→backup replication lag per forwarded mutation.
    pub fn mean_repl_lag(&self) -> SimDuration {
        self.repl_lag_ns
            .checked_div(self.repl_forwards)
            .map_or(SimDuration::ZERO, SimDuration::from_nanos)
    }

    /// Fraction of client reads that went through the offloaded path,
    /// in `[0, 1]` (0 when no reads were issued).
    pub fn offload_fraction(&self) -> f64 {
        let total = self.fast_reads + self.offloaded_reads;
        if total == 0 {
            0.0
        } else {
            self.offloaded_reads as f64 / total as f64
        }
    }

    /// Mean messages per doorbell batch (0 when no batches were sent).
    pub fn msgs_per_batch(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.batched_msgs as f64 / self.batches_sent as f64
        }
    }

    /// The transport mode that served the plurality of client reads —
    /// `"fast"`, `"fetch"`, `"offload"`, or `"-"` when no reads ran.
    /// Bench rows print this so tables show which path traffic took.
    pub fn dominant_transport(&self) -> &'static str {
        let (f, m, o) = (self.fast_reads, self.fetched_reads, self.offloaded_reads);
        if f == 0 && m == 0 && o == 0 {
            "-"
        } else if f >= m && f >= o {
            "fast"
        } else if m >= o {
            "fetch"
        } else {
            "offload"
        }
    }
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {} p50 {} p90 {} p95 {} p99 {} p999 {} max {} (n={})",
            self.mean, self.p50, self.p90, self.p95, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_stats_merge_adds_every_counter() {
        let mut a = ServiceStats {
            reads: 1,
            fast_reads: 3,
            offloaded_reads: 1,
            torn_retries: 2,
            ..ServiceStats::default()
        };
        let b = ServiceStats {
            reads: 2,
            offloaded_reads: 2,
            cache_hits: 5,
            timeouts: 4,
            retransmits: 3,
            dup_drops: 2,
            checksum_failures: 1,
            resyncs: 1,
            stale_heartbeat_windows: 1,
            fetched_reads: 2,
            fetched_responses: 2,
            fetch_fallbacks: 1,
            mailbox_reclaims: 2,
            repl_forwards: 4,
            repl_fenced: 2,
            repl_dups: 1,
            repl_lag_ns: 8_000,
            ..ServiceStats::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.fetched_reads, 2);
        assert_eq!(a.fetched_responses, 2);
        assert_eq!(a.fetch_fallbacks, 1);
        assert_eq!(a.mailbox_reclaims, 2);
        assert_eq!(a.timeouts, 4);
        assert_eq!(a.retransmits, 3);
        assert_eq!(a.dup_drops, 2);
        assert_eq!(a.checksum_failures, 1);
        assert_eq!(a.resyncs, 1);
        assert_eq!(a.stale_heartbeat_windows, 1);
        assert_eq!(a.fast_reads, 3);
        assert_eq!(a.offloaded_reads, 3);
        assert_eq!(a.torn_retries, 2);
        assert_eq!(a.cache_hits, 5);
        assert!((a.offload_fraction() - 0.5).abs() < 1e-12);
        assert!(a.to_string().contains("50.0% offloaded"));
        assert_eq!(a.repl_forwards, 4);
        assert_eq!(a.repl_fenced, 2);
        assert_eq!(a.repl_dups, 1);
        assert_eq!(a.mean_repl_lag(), SimDuration::from_nanos(2_000));
        assert!(a
            .to_string()
            .contains("repl_forwards=4 repl_fenced=2 repl_dups=1 "));
    }

    #[test]
    fn fold_server_keeps_client_side_readings() {
        let mut client = ServiceStats {
            fast_reads: 4,
            checksum_failures: 1,
            ..ServiceStats::default()
        };
        let server = ServiceStats {
            reads: 9,
            batches_sent: 3,
            decode_errors: 2,
            checksum_failures: 5,
            repl_forwards: 7,
            ..ServiceStats::default()
        };
        client.fold_server(&server);
        assert_eq!(client.decode_errors, 2);
        assert_eq!(client.checksum_failures, 6);
        assert_eq!(client.repl_forwards, 7);
        // Execution and doorbell counters keep their client-side reading.
        assert_eq!(client.reads, 0);
        assert_eq!(client.batches_sent, 0);
        assert_eq!(client.fast_reads, 4);
    }

    #[test]
    fn empty_service_stats_display_is_sane() {
        let s = ServiceStats::default();
        assert_eq!(s.offload_fraction(), 0.0);
        assert!(s.to_string().contains("fast_reads=0 "));
        assert_eq!(s.dominant_transport(), "-");
    }

    #[test]
    fn dominant_transport_picks_the_plurality_path() {
        let mut s = ServiceStats {
            fast_reads: 5,
            fetched_reads: 2,
            offloaded_reads: 1,
            ..ServiceStats::default()
        };
        assert_eq!(s.dominant_transport(), "fast");
        s.fetched_reads = 9;
        assert_eq!(s.dominant_transport(), "fetch");
        s.offloaded_reads = 20;
        assert_eq!(s.dominant_transport(), "offload");
        assert!(s.to_string().contains("dominant offload"));
    }
}
