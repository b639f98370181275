//! Configuration: server cost model, adaptive parameters, ring sizing.

use catfish_rdma::NetProfile;
use catfish_simnet::SimDuration;

/// How the server detects incoming ring-buffer messages (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// A worker thread per connection busy-polls its ring, occupying a core
    /// for its whole scheduling quantum even when idle. Collapses when
    /// connections outnumber cores (Fig. 7).
    Polling,
    /// Workers block on the completion channel (RDMA Write-with-IMM) and
    /// yield the CPU until a message arrives.
    EventDriven,
}

/// CPU cost model for server-side request processing.
///
/// These constants translate logical work (nodes visited, results
/// marshalled) into simulated core time. Defaults are calibrated so a
/// 28-core server saturates at roughly the paper's observed throughput for
/// the 2-million-rectangle tree (see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost to pick up and dispatch one **ring frame** (CQ poll,
    /// wakeup, decode). Charged once per arriving frame, so a doorbell
    /// batch of N requests amortizes it N ways.
    pub dispatch: SimDuration,
    /// Cost per R-tree node visited during a traversal.
    pub node_visit: SimDuration,
    /// Cost per result rectangle marshalled into a response.
    pub per_result: SimDuration,
    /// Fixed extra cost of an insert/delete (lock acquisition, MBR
    /// adjustment bookkeeping) on top of per-node costs.
    pub write_op: SimDuration,
    /// Fixed cost to post one response doorbell (WQE build + MMIO ring).
    /// Charged once per `send`/`send_batch` group, so batched responses
    /// amortize it too.
    pub post: SimDuration,
    /// Write-back cost per KiB of response payload (DMA staging, WQE
    /// scatter-gather setup, wire serialization the initiating NIC's
    /// driver pays). The size-dependent half of server-initiated
    /// responses — the term remote result fetching eliminates.
    pub post_per_kb: SimDuration,
    /// Fixed cost to deposit one response into a mailbox slot (header
    /// invalidate + stamp; the RFP-style fetch path's analogue of
    /// [`CostModel::post`]).
    pub deposit: SimDuration,
    /// Deposit cost per KiB of response payload (a local memcpy, far
    /// cheaper per byte than NIC write initiation). The write-back vs
    /// fetch crossover falls where
    /// `post + post_per_kb·s = deposit + deposit_per_kb·s`.
    pub deposit_per_kb: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dispatch: SimDuration::from_micros(8),
            node_visit: SimDuration::from_micros(12),
            per_result: SimDuration::from_nanos(150),
            write_op: SimDuration::from_micros(10),
            post: SimDuration::from_micros(4),
            post_per_kb: SimDuration::from_nanos(2_500),
            deposit: SimDuration::from_micros(10),
            deposit_per_kb: SimDuration::from_nanos(400),
        }
    }
}

/// Parameters of the adaptive back-off coordination (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// `N`: the base back-off window; a newly-busy client offloads
    /// `rand() % N + (r_busy - 1) * N` rounds. The paper uses 8.
    pub n_backoff: u32,
    /// `T`: the CPU-utilization busy threshold. The paper uses 0.95.
    pub busy_threshold: f64,
    /// `Inv`: how often the server publishes heartbeats and how long a
    /// client considers one fresh. The paper uses 10 ms.
    pub heartbeat_interval: SimDuration,
    /// Enable the third (remote-result-fetching) route in the policy.
    /// Off by default so the binary Algorithm 1 behavior — and every
    /// experiment built on it — is unchanged unless a client opts in.
    pub fetch_enabled: bool,
    /// Hysteresis for the staleness failsafe: once a client has frozen on
    /// the offload band because heartbeats went silent, it unfreezes only
    /// after this many *consecutive* fresh heartbeats. 1 restores the old
    /// behavior (unfreeze on the first heartbeat after silence), which
    /// flapped under a lossy heartbeat stream: a single surviving
    /// heartbeat snapped every client back to the fast path, re-stormed
    /// the struggling server, and went stale again an interval later.
    pub stale_recovery_intervals: u32,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            n_backoff: 8,
            busy_threshold: 0.95,
            heartbeat_interval: SimDuration::from_millis(10),
            fetch_enabled: false,
            stale_recovery_intervals: 2,
        }
    }
}

impl AdaptiveParams {
    /// The default parameters with the three-way (fetch-enabled) policy
    /// switched on.
    pub fn three_way() -> Self {
        AdaptiveParams {
            fetch_enabled: true,
            ..AdaptiveParams::default()
        }
    }
}

/// Server-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Worker cores (the paper's server has 2 × 14).
    pub cores: usize,
    /// OS scheduling quantum for the core model.
    pub quantum: SimDuration,
    /// Message-detection mode.
    pub mode: ServerMode,
    /// Cost model for request processing.
    pub cost: CostModel,
    /// Heartbeat publication interval (`Inv`).
    pub heartbeat_interval: SimDuration,
    /// Per-connection ring buffer capacity in bytes (the paper uses
    /// 256 KB per pair).
    pub ring_capacity: usize,
    /// Maximum results per response segment before CONT-chaining.
    pub response_segment_results: usize,
    /// Maximum requests an event-driven worker drains per wakeup and
    /// maximum response frames coalesced into one doorbell. 1 disables
    /// batching (every frame pays its own dispatch and post).
    pub max_batch: usize,
    /// Slots in each client's result mailbox (0 disables mailboxes — no
    /// per-client region is registered and fetch-mode clients fall back
    /// to write-back). Storm-style frugality: the per-client server
    /// memory is `mailbox_slots × mailbox_slot_bytes`, kept small because
    /// a sequential client needs only one live slot plus reuse headroom.
    pub mailbox_slots: u32,
    /// Bytes per mailbox slot, including its 16-byte header. Responses
    /// whose encoding exceeds the slot fall back to the write-back path.
    pub mailbox_slot_bytes: usize,
    /// Per-connection retransmission-dedup window: how many recent
    /// non-read sequence numbers (with their cached completion status) a
    /// worker remembers. A retransmission storm longer than this window
    /// can re-execute an already-applied mutation, so deployments with
    /// aggressive timeouts and large retry budgets should size it past
    /// `max_retries × in-flight requests`.
    pub dedup_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cores: 28,
            quantum: SimDuration::from_millis(1),
            mode: ServerMode::EventDriven,
            cost: CostModel::default(),
            heartbeat_interval: SimDuration::from_millis(10),
            ring_capacity: 256 * 1024,
            response_segment_results: 1000,
            max_batch: 16,
            mailbox_slots: 16,
            mailbox_slot_bytes: 16 * 1024,
            dedup_window: 1024,
        }
    }
}

/// Client-side access strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessMode {
    /// All reads through the server via ring-buffer messages.
    FastMessaging,
    /// All reads traverse the tree with one-sided RDMA Reads.
    Offloading,
    /// All reads execute on the server but the client *fetches* the
    /// result from its mailbox with one-sided RDMA Reads (RFP-style)
    /// instead of having the server write it back. Falls back to
    /// write-back when the connection has no mailbox or a response
    /// outgrows its slot.
    Fetching,
    /// Algorithm 1: switch per-request based on server heartbeats.
    Adaptive(AdaptiveParams),
}

/// Client-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Access strategy for search requests (writes always use the ring).
    pub mode: AccessMode,
    /// Issue concurrent RDMA Reads for all intersecting children
    /// (paper §IV-C) instead of fetching nodes one at a time.
    pub multi_issue: bool,
    /// Give up after this many version-validation retries of one chunk.
    pub max_read_retries: u32,
    /// Maximum requests coalesced into one doorbell-batched ring frame by
    /// the group-read path. 1 disables client-side batching (every
    /// request is its own doorbell, today's behavior).
    pub max_batch: usize,
    /// Deadline for one fast-messaging request attempt: if no response
    /// arrives within this window the request is retransmitted (the
    /// server deduplicates by sequence number). Generous relative to
    /// µs-scale service times so the happy path never trips it.
    pub request_timeout: SimDuration,
    /// Retransmission attempts after the first send before giving up.
    pub max_retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            mode: AccessMode::Adaptive(AdaptiveParams::default()),
            multi_issue: true,
            max_read_retries: 64,
            max_batch: 16,
            request_timeout: SimDuration::from_secs(1),
            max_retries: 16,
        }
    }
}

/// A complete experiment scheme, as labelled in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Socket baseline over the profile's TCP stack.
    TcpIp,
    /// FaRM-style fast messaging only (ring buffers, server traversal).
    FastMessaging,
    /// FaRM-style offloading only (client traversal, sequential reads).
    RdmaOffloading,
    /// Full Catfish: event-driven server, multi-issue offloading,
    /// adaptive switching.
    Catfish,
}

impl Scheme {
    /// Figure label.
    pub fn label(&self, profile: &NetProfile) -> String {
        match self {
            Scheme::TcpIp => format!("TCP/IP-{}", profile.name),
            Scheme::FastMessaging => "Fast messaging".to_string(),
            Scheme::RdmaOffloading => "RDMA offloading".to_string(),
            Scheme::Catfish => "Catfish".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let a = AdaptiveParams::default();
        assert_eq!(a.n_backoff, 8);
        assert_eq!(a.busy_threshold, 0.95);
        assert_eq!(a.heartbeat_interval, SimDuration::from_millis(10));
        assert!(
            a.stale_recovery_intervals >= 1,
            "unfreezing needs at least one fresh heartbeat"
        );
        let c = ClientConfig::default();
        assert!(c.request_timeout >= SimDuration::from_millis(100));
        assert!(c.max_retries >= 1);
        let s = ServerConfig::default();
        assert_eq!(s.cores, 28);
        assert_eq!(s.ring_capacity, 256 * 1024);
        // The RFP crossover must exist: fetching trades a higher fixed
        // deposit cost for a much cheaper per-byte slope, so each mode
        // wins on its own side of the crossover.
        assert!(s.cost.deposit > s.cost.post);
        assert!(s.cost.post_per_kb > s.cost.deposit_per_kb);
        assert!(s.mailbox_slots > 0);
        assert!(s.mailbox_slot_bytes > 16);
        assert!(crate::service::MAILBOX_LEASE_TTL >= a.heartbeat_interval);
        assert!(s.dedup_window >= 64, "dedup must cover a retry burst");
        assert!(!a.fetch_enabled, "three-way policy is opt-in");
    }

    #[test]
    fn scheme_labels() {
        let ib = catfish_rdma::profile::infiniband_100g();
        assert_eq!(Scheme::Catfish.label(&ib), "Catfish");
        assert_eq!(Scheme::TcpIp.label(&ib), "TCP/IP-100G InfiniBand");
    }
}
