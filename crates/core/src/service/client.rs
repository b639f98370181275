//! The generic Catfish client: fast messaging, RDMA-offloaded traversal
//! with multi-issue, and the adaptive back-off coordination (Algorithm 1),
//! shared by every [`ClientBackend`].

use std::collections::HashMap;

use catfish_rdma::mailbox::SLOT_HEADER_BYTES;
use catfish_rdma::{crc32, MailboxHandle, QueuePair, SlotHeader};
use catfish_rtree::codec::{chunk_version, CodecError, LevelLines, RemoteLayout, LINE_BYTES};
use catfish_rtree::{NodeId, TreeMeta, UPPER_LEVEL};
use catfish_simnet::{now, sleep, spawn, CpuPool, JoinHandle, SimDuration, SimTime};

use crate::adaptive::AdaptiveState;
use crate::config::{AccessMode, ClientConfig};
use crate::conn::ClientChannel;
use crate::obs::{
    Anomaly, FlightEvent, FlightRecorder, OpenSpan, Phase, RouteChoice, SpanCtx, TraceSink,
};
use crate::stats::ServiceStats;

use super::{
    ClientBackend, Frame, HeartbeatInfo, Incoming, Inconsistent, OpKind, RemoteHandle,
    ReplEnvelope, WireCodec, WireItem, WireMessage, FETCH_FLAG, STATUS_UNACKED,
};

/// Client-side per-chunk processing cost of an offloaded traversal
/// (latency only).
pub(crate) const CLIENT_NODE_VISIT: SimDuration = SimDuration::from_micros(2);
/// Latency guard for client-side coalescing: a flush is capped so its
/// estimated service time (per-op estimate × batch size) stays within
/// this window.
const BATCH_WINDOW: SimDuration = SimDuration::from_millis(1);
/// Initial backoff between retransmission attempts; doubles per retry up
/// to [`RETRY_BACKOFF_MAX`].
const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(100);
/// Ceiling for the retransmission backoff.
const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_millis(100);
/// Delay before the first mailbox header poll of a fetch and between
/// unsuccessful polls; doubles up to [`FETCH_POLL_MAX`]. Small relative
/// to service time so a ready result is picked up within one poll.
const FETCH_POLL_INITIAL: SimDuration = SimDuration::from_micros(4);
/// Ceiling for the fetch poll backoff.
const FETCH_POLL_MAX: SimDuration = SimDuration::from_micros(256);

/// The client's cache of upper nodes: every node at [`UPPER_LEVEL`] or
/// above that a walk read off the wire and validated, all read under the
/// one structure version the cache holds. Writers bump that version before
/// they rewrite an upper node, so the cache is bounded by the tree's upper
/// levels and needs no timer.
#[derive(Debug, Default)]
struct NodeCache {
    version: u64,
    chunks: HashMap<NodeId, Vec<u8>>,
}

impl NodeCache {
    fn clear(&mut self) {
        self.chunks.clear();
    }

    /// Starts a walk whose metadata names `version`: a cache filled under
    /// any other version is dropped first.
    fn begin(&mut self, version: u64) {
        if self.version != version {
            self.chunks.clear();
            self.version = version;
        }
    }
}

/// One request of an exchange: its message, the sequence number its
/// response frames carry, the root span its END closes (a read of a
/// `read_batch` window is a trace of its own), and what came back.
struct Request<B: ClientBackend> {
    seq: u32,
    msg: WireMessage<B>,
    /// The replication envelope a replicated mutation travels under. Such
    /// a request is exchanged alone: a batch carries bare reads.
    env: Option<ReplEnvelope>,
    root: Option<OpenSpan>,
    /// Items of the current attempt's CONT/END frames.
    items: Vec<WireItem<B>>,
    /// The END frame's status, once it arrived.
    status: Option<u32>,
}

impl<B: ClientBackend> Request<B> {
    fn new(seq: u32, msg: WireMessage<B>, root: Option<OpenSpan>) -> Self {
        Request {
            seq,
            msg,
            env: None,
            root,
            items: Vec::new(),
            status: None,
        }
    }

    /// Still waiting for its END frame.
    fn pending(&self) -> bool {
        self.status.is_none()
    }
}

/// A Catfish client bound to one connection, generic over the index being
/// served. Owns the single implementation of request/response sequencing,
/// heartbeat consumption, Algorithm 1 routing, and the offloaded traversal
/// engine; the backend contributes only [`ClientBackend::read_request`],
/// [`ClientBackend::validate`] and [`ClientBackend::visit`].
pub struct ServiceClient<B: ClientBackend> {
    pub(crate) ch: ClientChannel,
    pub(crate) cfg: ClientConfig,
    pub(crate) handle: RemoteHandle<B::Layout>,
    pub(crate) seq: u32,
    pub(crate) adaptive: AdaptiveState,
    /// The metadata the last structure check read, where every offloaded
    /// walk starts; `None` before the first walk and after a restart.
    meta_cache: Option<TreeMeta>,
    /// The per-level line bounds of the last metadata line read: how many
    /// lines of a node chunk each wire read asks for.
    level_lines: LevelLines,
    node_cache: NodeCache,
    /// The node image [`ClientBackend::validate`] leaves for
    /// [`ClientBackend::visit`], reused by every chunk of this client.
    visit_scratch: B::VisitScratch,
    /// The nodes a multi-issue walk dispatches at once, reused by every
    /// walk of this client.
    dispatch: Vec<(NodeId, u32)>,
    /// When set, responses are detected by busy-polling a core of this
    /// (client-machine) pool, FaRM-style, instead of blocking on the
    /// completion channel — the client-side half of the oversubscription
    /// collapse in paper Fig. 7.
    pub(crate) poll_pool: Option<CpuPool>,
    pub(crate) stats: ServiceStats,
    /// Span recorder (inactive unless the run opted in).
    pub(crate) trace: TraceSink,
    /// The operation span currently open (one at a time per client; an
    /// offload→fast fallback nests into the same tree).
    cur_op: Option<OpenSpan>,
    /// Always-on recorder of recent protocol and Algorithm 1 events,
    /// dumped on anomalies; shared with `ch.rx` and `adaptive`.
    pub(crate) flight: FlightRecorder,
}

impl<B: ClientBackend> std::fmt::Debug for ServiceClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("seq", &self.seq)
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

impl<B: ClientBackend> ServiceClient<B> {
    /// Creates a client over an established channel. `seed` drives the
    /// back-off randomization.
    pub fn new(
        ch: ClientChannel,
        handle: RemoteHandle<B::Layout>,
        cfg: ClientConfig,
        seed: u64,
    ) -> Self {
        let params = match cfg.mode {
            AccessMode::Adaptive(p) => p,
            _ => Default::default(),
        };
        let flight = FlightRecorder::new();
        ch.rx.set_flight(flight.clone());
        let mut adaptive = AdaptiveState::with_recorder(params, seed, flight.clone());
        adaptive.set_item_bytes(B::Wire::ITEM_WIRE_BYTES);
        ServiceClient {
            ch,
            cfg,
            handle,
            seq: 0,
            adaptive,
            meta_cache: None,
            level_lines: LevelLines::default(),
            node_cache: NodeCache::default(),
            visit_scratch: B::VisitScratch::default(),
            dispatch: Vec::new(),
            poll_pool: None,
            stats: ServiceStats::default(),
            trace: TraceSink::default(),
            cur_op: None,
            flight,
        }
    }

    /// Routes this client's spans into `sink`: the request ring sender
    /// reports [`Phase::RingEnqueue`], and the client itself reports its
    /// operation spans, [`Phase::CqWait`], [`Phase::MetaRead`], the
    /// offload phases, [`Phase::RetryBackoff`], and
    /// [`Phase::MailboxFetch`].
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.ch.tx.set_trace(sink.clone(), Phase::RingEnqueue);
        self.trace = sink;
    }

    /// Retains this client's Algorithm 1 decision steps in `log`, the
    /// timeline view of its recorder's `Adaptive` entries (see
    /// [`crate::obs::AdaptiveEventLog`]).
    pub fn set_adaptive_event_log(&mut self, log: crate::obs::AdaptiveEventLog) {
        self.adaptive.set_event_log(log);
    }

    /// This client's flight recorder (always on).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Stamps the connection identity onto flight dumps.
    pub fn set_flight_ids(&self, client: u32, shard: u32) {
        self.flight.set_ids(client, shard);
    }

    /// Opens the operation span: a fresh root, or under `parent` an
    /// `Rpc` leg. Returns `true` when a span was opened (`false` nests a
    /// fallback path, e.g. offload → fast, into the already-open tree
    /// instead of forking a new one).
    pub(crate) fn op_begin(&mut self, parent: Option<SpanCtx>) -> bool {
        if !self.trace.is_active() || self.cur_op.is_some() {
            return false;
        }
        self.cur_op = Some(self.trace.open(parent));
        true
    }

    /// Closes the operation span opened by the matching
    /// [`ServiceClient::op_begin`].
    pub(crate) fn op_end(&mut self, opened: bool) {
        if let Some(op) = self.cur_op.take_if(|_| opened) {
            self.trace.close(op);
        }
    }

    /// The open operation span, the parent of this client's child spans.
    pub(crate) fn op_ctx(&self) -> Option<SpanCtx> {
        self.cur_op.map(|op| op.ctx())
    }

    /// Links request `seq` on this connection to the open operation span,
    /// so the server's spans for it attach there.
    fn link_op(&self, seq: u32) {
        if let Some(ctx) = self.op_ctx() {
            self.trace.link(self.ch.tx.ring_rkey(), seq, ctx);
        }
    }

    /// Whether this connection's heartbeat-staleness failsafe is engaged
    /// — the promotion trigger the replicated cluster client watches.
    /// Time-aware: drains pending heartbeats first, then advances the
    /// failsafe to the current instant, so a silent primary is detected
    /// even between routing decisions. A window it engages dumps here.
    pub fn is_stale(&mut self) -> bool {
        self.drain_pending();
        self.adaptive.probe_stale()
    }

    /// Counters so far, folding in the response-ring integrity counters
    /// and the adaptive staleness-failsafe windows.
    pub fn stats(&self) -> ServiceStats {
        let mut st = self.stats;
        st.checksum_failures += self.ch.rx.checksum_failures();
        st.resyncs += self.ch.rx.resyncs();
        st.stale_heartbeat_windows += self.adaptive.stale_windows();
        st.flight_dumps += self.flight.dump_count();
        st
    }

    /// Receives the next ring message, either event-driven (block on the
    /// completion channel, off-CPU) or by holding a core and polling.
    /// Gives up at `deadline` (the per-attempt request timeout).
    async fn recv_ring_message(&mut self, deadline: SimTime) -> Option<Vec<u8>> {
        match self.poll_pool.clone() {
            None => self.ch.rx.wait_message_until(deadline).await,
            Some(pool) => loop {
                if now() >= deadline {
                    return None;
                }
                let quantum = pool.quantum();
                let core = pool.acquire().await;
                let turn_end = (now() + quantum).min(deadline);
                let got = self.ch.rx.wait_message_until(turn_end).await;
                drop(core);
                if got.is_some() {
                    return got;
                }
                // Turn expired without a message: requeue behind the other
                // polling threads on this machine.
                catfish_simnet::yield_now().await;
            },
        }
    }

    /// Consumes everything already sitting in the response ring —
    /// primarily heartbeats accumulated while the client was offloading.
    pub(crate) fn drain_pending(&mut self) {
        while let Some(bytes) = self.ch.rx.try_pop() {
            self.absorb(&bytes, &mut []);
        }
    }

    fn note_heartbeat(&mut self, info: HeartbeatInfo) {
        self.flight.note(FlightEvent::HeartbeatRx {
            util_permille: info.util_permille,
        });
        self.adaptive.note_heartbeat_info(info);
    }

    /// Executes `read`, choosing the execution path per the configured
    /// [`AccessMode`].
    pub async fn read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        self.read_under(read, None).await
    }

    /// [`ServiceClient::read`] as an `Rpc` leg under `parent` (a
    /// scatter-gather root) when given.
    pub(crate) async fn read_under(
        &mut self,
        read: &B::Read,
        parent: Option<SpanCtx>,
    ) -> Vec<WireItem<B>> {
        self.drain_pending();
        let route = match self.cfg.mode {
            AccessMode::FastMessaging => RouteChoice::Fast,
            AccessMode::Offloading => RouteChoice::Offload,
            AccessMode::Fetching => RouteChoice::Fetch,
            AccessMode::Adaptive(_) => self.adaptive.decide_route(),
        };
        let opened = self.op_begin(parent);
        let items = match route {
            RouteChoice::Offload => {
                self.stats.offloaded_reads += 1;
                self.offload_read(read).await
            }
            RouteChoice::Fetch => {
                self.stats.fetched_reads += 1;
                self.fetch_read(read).await
            }
            RouteChoice::Fast => {
                self.stats.fast_reads += 1;
                self.fast_read(read).await
            }
        };
        // Every observed response feeds the expected-size EWMA the
        // three-way policy compares against the fetch crossover.
        self.adaptive.note_response_items(items.len());
        self.op_end(opened);
        items
    }

    // ------------------------------------------------------------------
    // The request exchange (fast messaging, batching, retransmission)
    // ------------------------------------------------------------------

    /// Sends `reqs` as one frame and collects CONT/END frames until each
    /// has its END: the one ring round trip behind single, batched,
    /// forwarded and (through [`ServiceClient::absorb`] and
    /// [`ServiceClient::retransmit`]) fetched requests. Each attempt waits
    /// up to the request timeout; then the still-pending requests are
    /// re-sent under their original sequence numbers (the server's dedup
    /// window keeps retried writes idempotent), with capped exponential
    /// backoff between attempts. A request given up on (retry budget
    /// spent, or the ring is closed) is left without a status and
    /// reported as [`STATUS_UNACKED`]: it *may* have executed — only an
    /// END frame proves acknowledgement.
    async fn exchange(&mut self, reqs: &mut [Request<B>]) {
        let Some(bytes) = self.send_pending(reqs).await else {
            return;
        };
        self.flight.note(FlightEvent::Send {
            seq: reqs[0].seq,
            bytes,
        });
        // CqWait: request delivered until the last END frame is in hand —
        // everything the client spends blocked on the response path.
        let wait_span = self.trace.begin();
        let mut retries = 0;
        loop {
            let deadline = now() + self.cfg.request_timeout;
            while reqs.iter().any(Request::pending) {
                let Some(bytes) = self.recv_ring_message(deadline).await else {
                    break;
                };
                self.absorb(&bytes, reqs);
            }
            if !reqs.iter().any(Request::pending) || !self.retransmit(reqs, &mut retries).await {
                break;
            }
        }
        // Abandoned requests still close their root span: a server that
        // executed the request after the client gave up emits child spans
        // under this root, so the tree stays connected.
        for root in reqs.iter_mut().filter_map(|r| r.root.take()) {
            self.trace.close(root);
        }
        self.trace.end(Phase::CqWait, wait_span);
    }

    /// Sends the still-pending requests of `reqs` as one frame — the lone
    /// message (inside its envelope if it has one), or a `Batch` of two or
    /// more — under the first one's own sequence number. Returns the
    /// frame's length, or `None` when the ring is closed.
    async fn send_pending(&mut self, reqs: &[Request<B>]) -> Option<u32> {
        let mut pending = reqs.iter().filter(|r| r.pending());
        let first = pending.next().expect("a request is pending");
        let frame = match (pending.next(), first.env) {
            (None, None) => Frame::Msg(&first.msg),
            (None, Some(env)) => Frame::Replicated {
                env,
                inner: &first.msg,
            },
            (Some(_), _) => Frame::Batch(
                reqs.iter()
                    .filter(|r| r.pending())
                    .map(|r| &r.msg)
                    .collect(),
            ),
        };
        let encoded = frame.encode::<B::Wire>();
        // The frame's immediate is the request's connection-scoped
        // sequence number: the envelope's link sequence, or the
        // message's own, which carries the fetch flag on a fetched read.
        let imm = match first.env {
            Some(env) => env.link_seq,
            None => B::Wire::request_meta(&first.msg).map_or(first.seq, |(seq, _)| seq),
        };
        self.ch.tx.send(&encoded, imm).await.ok()?;
        Some(encoded.len() as u32)
    }

    /// Routes one response-ring frame: a heartbeat feeds Algorithm 1,
    /// and a CONT or END frame goes to the pending request of its
    /// sequence number. An END closes that request's root span. Stale,
    /// unexpected and undecodable frames are dropped.
    fn absorb(&mut self, bytes: &[u8], reqs: &mut [Request<B>]) {
        let msg = match Frame::decode::<B::Wire>(bytes) {
            Ok(Frame::Msg(msg)) => msg,
            Ok(Frame::Heartbeat(info)) => return self.note_heartbeat(info),
            _ => return,
        };
        let (seq, items, status) = match B::Wire::classify(msg) {
            Incoming::Cont { seq, items } => (seq, items, None),
            Incoming::End { seq, items, status } => (seq, items, Some(status)),
            Incoming::Request(_) => return,
        };
        let Some(r) = reqs.iter_mut().find(|r| r.seq == seq && r.pending()) else {
            return;
        };
        r.items.extend(items);
        if status.is_some() {
            r.status = status;
            self.flight.note(FlightEvent::Recv {
                seq,
                items: r.items.len() as u32,
            });
            if let Some(root) = r.root.take() {
                self.trace.close(root);
            }
        }
    }

    /// Handles one attempt timeout: counts it against the lowest pending
    /// sequence number, nudges a possibly wedged response stream past any
    /// lost-write hole, backs off (attributed to [`Phase::RetryBackoff`];
    /// [`RETRY_BACKOFF`] doubled per earlier retry, up to
    /// [`RETRY_BACKOFF_MAX`]) and re-sends the still-pending requests.
    /// Their partial CONT items are dropped: a retransmitted request
    /// re-sends its full response. Returns `false` when giving up: the
    /// retry budget is spent or the ring is closed.
    async fn retransmit(&mut self, reqs: &mut [Request<B>], retries: &mut u32) -> bool {
        let seq = reqs
            .iter()
            .find(|r| r.pending())
            .expect("a request is pending")
            .seq;
        self.stats.timeouts += 1;
        self.flight.anomaly(Anomaly::Timeout { seq });
        if *retries >= self.cfg.max_retries {
            return false;
        }
        self.ch.rx.resync();
        let doubling = 1u64.checked_shl(*retries).unwrap_or(u64::MAX);
        let backoff = RETRY_BACKOFF.as_nanos().saturating_mul(doubling);
        let span = self.trace.begin();
        sleep(SimDuration::from_nanos(
            backoff.min(RETRY_BACKOFF_MAX.as_nanos()),
        ))
        .await;
        self.trace.end(Phase::RetryBackoff, span);
        *retries += 1;
        for r in reqs.iter_mut().filter(|r| r.pending()) {
            r.items.clear();
            self.stats.retransmits += 1;
            self.flight.note(FlightEvent::Retransmit { seq: r.seq });
        }
        self.send_pending(reqs).await.is_some()
    }

    /// Exchanges one request built for the next sequence number — inside
    /// `env` when given, with `link_seq` bound to that sequence number, so
    /// every retransmission re-sends identical bytes — linked to the open
    /// operation span. Returns `(status, items)` from the END frame.
    async fn fast_request(
        &mut self,
        env: Option<ReplEnvelope>,
        build: impl FnOnce(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        self.seq += 1;
        let seq = self.seq;
        let msg = build(seq);
        self.link_op(seq);
        let mut req = Request::new(seq, msg, None);
        req.env = env.map(|env| ReplEnvelope {
            link_seq: seq,
            ..env
        });
        self.exchange(std::slice::from_mut(&mut req)).await;
        (req.status.unwrap_or(STATUS_UNACKED), req.items)
    }

    /// One traced round trip: drains pending heartbeats, opens the
    /// operation span (a root, or an `Rpc` leg under `parent`), exchanges
    /// the request `build` makes (inside `env` when given) and closes the
    /// span. Returns `(status, items)` from the END frame.
    pub(crate) async fn rpc(
        &mut self,
        parent: Option<SpanCtx>,
        env: Option<ReplEnvelope>,
        build: impl FnOnce(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        self.drain_pending();
        let opened = self.op_begin(parent);
        let result = self.fast_request(env, build).await;
        self.op_end(opened);
        result
    }

    /// A read served by the server through fast messaging.
    pub(crate) async fn fast_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        self.fast_request(None, |seq| B::read_request(seq, read))
            .await
            .1
    }

    /// Executes a window of reads through fast messaging, coalescing the
    /// ones that queue while the ring is busy into doorbell batches — the
    /// client half of adaptive batching, mirroring Algorithm 1's "adapt
    /// only under pressure" rule. The first request goes out alone, so an
    /// idle ring keeps today's single-op latency; while its flush is in
    /// flight the rest of the window queues, and each subsequent flush
    /// packs up to [`crate::config::ClientConfig::max_batch`] queued
    /// requests into one `Batch` frame (one ring write, one CQ event, one
    /// server wakeup). A 1 ms latency window additionally caps a flush so
    /// its estimated service time (previous flush's per-op time × batch
    /// size) stays within it.
    ///
    /// Results are returned per read, in request order. With `max_batch`
    /// = 1 every request is its own frame — exactly the sequential path.
    pub async fn read_batch(&mut self, reads: &[B::Read]) -> Vec<Vec<WireItem<B>>> {
        self.drain_pending();
        let max_batch = self.cfg.max_batch.max(1);
        let mut out: Vec<Vec<WireItem<B>>> = Vec::with_capacity(reads.len());
        // Per-op service-time estimate from the previous flush, feeding
        // the BATCH_WINDOW latency guard.
        let mut est_per_op: Option<SimDuration> = None;
        while out.len() < reads.len() {
            let next = out.len();
            let mut chunk = if next == 0 {
                1 // ring idle: no queue yet, nothing to coalesce
            } else {
                (reads.len() - next).min(max_batch)
            };
            if let Some(est) = est_per_op.filter(|est| !est.is_zero()) {
                let cap = (BATCH_WINDOW.as_nanos() / est.as_nanos()).max(1);
                chunk = chunk.min(cap as usize);
            }
            let started = now();
            // Per-read root spans: each read in the window is its own
            // trace, linked by its own sequence number, so coalescing and
            // retransmission preserve identity.
            let mut reqs: Vec<Request<B>> = reads[next..next + chunk]
                .iter()
                .map(|read| {
                    self.seq += 1;
                    let seq = self.seq;
                    let root = self.trace.is_active().then(|| {
                        let root = self.trace.open(None);
                        self.trace.link(self.ch.tx.ring_rkey(), seq, root.ctx());
                        root
                    });
                    Request::new(seq, B::read_request(seq, read), root)
                })
                .collect();
            self.stats.fast_reads += chunk as u64;
            if chunk > 1 {
                self.stats.batches_sent += 1;
                self.stats.batched_msgs += chunk as u64;
            }
            self.exchange(&mut reqs).await;
            est_per_op = Some(now().saturating_duration_since(started) / chunk as u64);
            out.extend(reqs.into_iter().map(|r| r.items));
        }
        out
    }

    /// A write-class request (insert, put, delete, ...), inside `env` on
    /// a replicated shard; writes always travel through the ring and are
    /// executed by server threads (paper §III-B). Returns `(status,
    /// items)` from the END frame.
    pub(crate) async fn write_request(
        &mut self,
        kind: OpKind,
        env: Option<ReplEnvelope>,
        build: impl FnOnce(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        match kind {
            OpKind::Write => self.stats.writes_sent += 1,
            OpKind::Remove => self.stats.removes_sent += 1,
            OpKind::Read => {}
        }
        self.rpc(None, env, build).await
    }

    // ------------------------------------------------------------------
    // Mailbox fetching (RFP-style remote result fetching)
    // ------------------------------------------------------------------

    /// A read whose response the client **pulls** out of the server's
    /// mailbox with one-sided RDMA Reads instead of having the server
    /// ring-write it: the request goes out flagged with [`FETCH_FLAG`],
    /// the server deposits the encoded END frame into this client's slot,
    /// and the fetch loop polls the slot header (sequence-stamped, CRC'd,
    /// so it sees either the full deposit or retries) with exponential
    /// poll backoff. It never blocks on the ring; it drains it through
    /// the exchange's absorb step, and times out and resends through its
    /// retransmit step. Only reads travel this path, so a retransmitted
    /// request simply re-executes and re-deposits (overwriting the same
    /// slot) — exactly-once by idempotence.
    ///
    /// Responses that overflowed the slot (or raced a missing mailbox)
    /// arrive as ordinary write-back frames, which the drain collects.
    pub(crate) async fn fetch_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        let Some(mb) = self.ch.mailbox else {
            // The server allocated no mailbox: serve over the ring.
            self.stats.fetch_fallbacks += 1;
            self.stats.fetched_reads -= 1;
            self.stats.fast_reads += 1;
            self.flight
                .anomaly(Anomaly::FetchFallback { seq: self.seq + 1 });
            return self.fast_read(read).await;
        };
        self.seq += 1;
        let seq = self.seq;
        self.link_op(seq);
        let mut req = Request::new(seq, B::read_request(seq | FETCH_FLAG, read), None);
        let reqs = std::slice::from_mut(&mut req);
        let Some(bytes) = self.send_pending(reqs).await else {
            return Vec::new();
        };
        self.flight.note(FlightEvent::Send { seq, bytes });
        let span = self.trace.begin();
        let mut retries = 0;
        loop {
            let deadline = now() + self.cfg.request_timeout;
            let mut poll = FETCH_POLL_INITIAL;
            let answered = loop {
                // Drain the response ring opportunistically: heartbeats
                // keep Algorithm 1 fed, and an overflowed response comes
                // back this way under the masked sequence number.
                while let Some(bytes) = self.ch.rx.try_pop() {
                    self.absorb(&bytes, reqs);
                    if !reqs[0].pending() {
                        break;
                    }
                }
                if !reqs[0].pending() {
                    break true;
                }
                if let Some(items) = self.probe_mailbox(mb, seq).await {
                    self.flight.note(FlightEvent::Recv {
                        seq,
                        items: items.len() as u32,
                    });
                    reqs[0].items = items;
                    break true;
                }
                let remaining = deadline.saturating_duration_since(now());
                if remaining.is_zero() {
                    break false;
                }
                sleep(poll.min(remaining)).await;
                poll = (poll * 2).min(FETCH_POLL_MAX);
            };
            // Timed out (lost request or lost deposit): resend under the
            // same flagged sequence number.
            if answered || !self.retransmit(reqs, &mut retries).await {
                break;
            }
        }
        self.trace.end(Phase::MailboxFetch, span);
        req.items
    }

    /// One one-sided look at this client's mailbox slot for `seq`: reads
    /// the header, then (when it names `seq` and fits the slot) the body,
    /// and accepts a CRC-clean END frame for `seq`, acknowledging it so
    /// the server can reclaim the slot lease. `None` while the deposit is
    /// missing, stale or torn.
    async fn probe_mailbox(&mut self, mb: MailboxHandle, seq: u32) -> Option<Vec<WireItem<B>>> {
        // The header is written last, atomically: the probe sees either
        // the full deposit or stale bytes.
        let hdr_bytes = self
            .ch
            .qp
            .read(mb.rkey, mb.layout.slot_offset(seq), SLOT_HEADER_BYTES)
            .await
            .expect("mailbox registered");
        let hdr = SlotHeader::parse(&hdr_bytes);
        if hdr.seq != seq || hdr.len as usize > mb.layout.payload_capacity() {
            return None;
        }
        let body = self
            .ch
            .qp
            .read(mb.rkey, mb.layout.payload_offset(seq), hdr.len as usize)
            .await
            .expect("mailbox registered");
        if crc32(&body) != hdr.crc {
            // Torn deposit: the payload raced the fetch.
            self.stats.torn_retries += 1;
            return None;
        }
        let msg = B::Wire::decode(&body).ok()?;
        let Incoming::End { seq: s, items, .. } = B::Wire::classify(msg) else {
            return None;
        };
        if s != seq {
            return None;
        }
        self.ch
            .qp
            .write(mb.ack_rkey, 0, &u64::from(seq).to_le_bytes())
            .await
            .expect("ack cell registered");
        Some(items)
    }

    // ------------------------------------------------------------------
    // RDMA offloading
    // ------------------------------------------------------------------

    /// A read traversing the index with one-sided RDMA Reads: the
    /// window-search walk, falling back to the server's consistent view.
    pub(crate) async fn offload_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        let start = |root, level| Window {
            read,
            items: Vec::new(),
            stack: vec![(root, level)],
        };
        let fallback = async |this: &mut Self| this.fast_read(read).await;
        self.offload(self.cfg.multi_issue, start, fallback).await
    }

    /// The restart wrapper around every offloaded read, inside the open
    /// operation span or a root span of its own. Each attempt walks a
    /// fresh frontier `start` builds at the root; after eight inconsistent
    /// attempts the index is churning faster than we can traverse it, so
    /// `fallback` asks the server. Reads a node's children at once
    /// (multi-issue, §IV-C) when `multi_issue` is set, else one at a time.
    pub(crate) async fn offload<F: Frontier<B>>(
        &mut self,
        multi_issue: bool,
        start: impl Fn(NodeId, u32) -> F,
        fallback: impl AsyncFnOnce(&mut Self) -> Vec<WireItem<B>>,
    ) -> Vec<WireItem<B>> {
        self.drain_pending();
        let opened = self.op_begin(None);
        // OffloadRead spans the whole traversal including restarts (a
        // child of the open op); OffloadRetry spans only from the first
        // failure onward, so (OffloadRead − OffloadRetry) is the cost of a
        // clean attempt.
        let total_span = self.trace.begin();
        let mut retry_span = total_span;
        let mut attempts = 0u32;
        let items = loop {
            match self.offload_attempt(&start, multi_issue).await {
                Ok(items) => break items,
                Err(Inconsistent) => {
                    // Forget every cached view of the index; the next
                    // attempt starts from fresh metadata.
                    self.stats.offload_restarts += 1;
                    self.meta_cache = None;
                    self.node_cache.clear();
                    attempts += 1;
                    if attempts == 1 {
                        retry_span = self.trace.begin();
                    }
                    if attempts >= 8 {
                        break fallback(self).await;
                    }
                }
            }
        };
        if attempts > 0 {
            self.trace
                .end_under(Phase::OffloadRetry, retry_span, self.op_ctx());
        }
        self.trace
            .end_under(Phase::OffloadRead, total_span, self.op_ctx());
        self.op_end(opened);
        items
    }

    /// One traversal attempt; [`Inconsistent`] means a stale root, level
    /// mismatch, undecodable chunk, or a structural reorganization raced
    /// the traversal.
    async fn offload_attempt<F: Frontier<B>>(
        &mut self,
        start: impl Fn(NodeId, u32) -> F,
        multi_issue: bool,
    ) -> Result<Vec<WireItem<B>>, Inconsistent> {
        let meta = self.read_meta().await?;
        let Some(root) = meta.root else {
            return Ok(Vec::new());
        };
        self.node_cache.begin(meta.structure_version);
        let mut frontier = start(root, meta.height - 1);
        let posted = if multi_issue {
            self.walk_multi_issue(&mut frontier).await?
        } else {
            self.walk(&mut frontier).await?
        };
        // Every walk confirms that the structure version it started from
        // still stands. Each chunk validates on its own, but a structural
        // reorganization (split, merge, forced reinsertion, a new root)
        // may have moved entries between the chunks while they were read,
        // or before: the metadata and cached nodes the walk started from
        // may predate it. An unchanged version vouches for the root, the
        // cached nodes and every chunk read before the check; a changed
        // one restarts the walk. An attempt that ended inconsistent above
        // dropped its check unread.
        if self.confirm(posted).await?.structure_version != meta.structure_version {
            return Err(Inconsistent);
        }
        Ok(frontier.into_items())
    }

    /// The cached chunk of node `id`, expected at `level`, if it is an
    /// upper node the cache holds.
    fn cache_lookup(&mut self, id: NodeId, level: u32) -> Option<Vec<u8>> {
        if level < UPPER_LEVEL {
            return None;
        }
        let chunk = self.node_cache.chunks.get(&id)?.clone();
        self.stats.cache_hits += 1;
        Some(chunk)
    }

    /// Walks `frontier` with one read in flight (the paper's sequential
    /// baseline, and kNN): every node access is a full round trip, awaited
    /// inline, so no other task's ready work can overtake it to the NIC.
    /// A popped leaf that leaves the frontier [drained](Frontier::drained)
    /// is the last read, and the structure check is posted behind it;
    /// any other wire read voids a check posted before it. Returns the
    /// posted check, unless a later read voided it.
    async fn walk<F: Frontier<B>>(&mut self, frontier: &mut F) -> Result<Check, Inconsistent> {
        let mut posted = None;
        while let Some((id, level)) = frontier.pop() {
            let (chunk, wire) = match self.cache_lookup(id, level) {
                Some(chunk) => (chunk, None),
                None => {
                    // The check's task first runs once this task yields,
                    // which is after the read below has posted its request.
                    let last = level == 0 && frontier.drained();
                    posted = last.then(|| self.post_confirm());
                    let read = read_chunk(
                        &self.ch.qp,
                        &self.handle,
                        id,
                        self.read_lines(level),
                        self.cfg.max_read_retries,
                    );
                    let (chunk, fetched) = read.await?;
                    if fetched.reread() {
                        // The re-read went out behind the check.
                        posted = None;
                    }
                    (chunk, Some(fetched))
                }
            };
            self.deliver(frontier, id, level, &chunk, wire).await?;
        }
        Ok(posted)
    }

    /// Walks `frontier` multi-issue (§IV-C): every node it holds is
    /// dispatched at once, in the order it was queued (ascending entry
    /// order), each wire read in a task of its own, so sibling round trips
    /// overlap. Cache hits travel the wire reads' channel; chunks are
    /// delivered in completion order. Once the frontier is drained and
    /// only leaves are in flight, no read is left to dispatch, and the
    /// structure check is posted behind the last one. The check vouches
    /// only for reads posted before it: a wire read dispatched after it
    /// voids it, and it is posted again behind that read; a torn or short
    /// chunk delivered after it may have been re-read behind it, so it
    /// voids the check, and the walk confirms again at its end.
    async fn walk_multi_issue<F: Frontier<B>>(
        &mut self,
        frontier: &mut F,
    ) -> Result<Check, Inconsistent> {
        let (tx, mut rx) = catfish_simnet::sync::channel();
        let mut inflight = 0usize;
        // Reads in flight of internal nodes, whose visits dispatch more.
        let mut internal = 0usize;
        let mut check = None;
        // A check was posted behind every wire read dispatched so far.
        let mut posted = false;
        let mut queued = std::mem::take(&mut self.dispatch);
        let mut failed = false;
        loop {
            if !failed {
                // The frontier pops LIFO: last queued first.
                queued.extend(std::iter::from_fn(|| frontier.pop()));
                for (id, level) in queued.drain(..).rev() {
                    inflight += 1;
                    internal += usize::from(level > 0);
                    match self.cache_lookup(id, level) {
                        Some(chunk) => tx.send((id, level, Ok((chunk, None)))),
                        None => {
                            check = None;
                            posted = false;
                            let (qp, handle, tx) = (self.ch.qp.clone(), self.handle, tx.clone());
                            let lines = self.read_lines(level);
                            let retries = self.cfg.max_read_retries;
                            spawn(async move {
                                let got = read_chunk(&qp, &handle, id, lines, retries).await;
                                let got = got.map(|(chunk, fetched)| (chunk, Some(fetched)));
                                tx.send((id, level, got));
                            });
                        }
                    }
                }
                // Spawned after every read task above, so its request is
                // posted after theirs.
                if !posted && internal == 0 && inflight > 0 && frontier.drained() {
                    posted = true;
                    check = Some(self.post_confirm());
                }
            }
            if inflight == 0 {
                break;
            }
            let (id, level, got) = rx.recv().await.expect("sender held locally");
            inflight -= 1;
            internal -= usize::from(level > 0);
            // After a failure the remaining reads only drain.
            if !failed {
                failed = match got {
                    Ok((chunk, wire)) => {
                        if wire.is_some_and(|fetched| fetched.reread()) {
                            check = None;
                        }
                        self.deliver(frontier, id, level, &chunk, wire)
                            .await
                            .is_err()
                    }
                    Err(Inconsistent) => true,
                };
            }
        }
        self.dispatch = queued;
        if failed {
            Err(Inconsistent)
        } else {
            Ok(check)
        }
    }

    /// The lines of a node chunk at `level` a wire read asks for: the
    /// level's bound in the last metadata line read, else the whole chunk.
    fn read_lines(&self, level: u32) -> usize {
        let whole = self.handle.layout.chunk_bytes() / LINE_BYTES;
        self.level_lines
            .get(level)
            .map_or(whole, |lines| lines.min(whole))
    }

    /// The delivery step of every walk: one untorn chunk of node `id`,
    /// expected at `level`, read off the wire as `wire` tells or (`None`)
    /// served from the cache. Validates it, counts a wire read, checks the
    /// level, caches an upper node read off the wire, pays the client's
    /// visit cost and hands the node to `frontier`.
    async fn deliver<F: Frontier<B>>(
        &mut self,
        frontier: &mut F,
        id: NodeId,
        level: u32,
        chunk: &[u8],
        wire: Option<Fetched>,
    ) -> Result<(), Inconsistent> {
        // The one pass over the chunk's bytes. A chunk it rejects is
        // neither counted nor cached.
        let node_level = B::validate(&self.handle.layout, chunk, &mut self.visit_scratch)
            .map_err(|_| Inconsistent)?;
        if let Some(fetched) = wire {
            self.stats.torn_retries += u64::from(fetched.torn);
            self.stats.short_reads += u64::from(fetched.short);
            self.stats.chunks_fetched += 1;
        }
        if node_level != level {
            return Err(Inconsistent);
        }
        if wire.is_some() && level >= UPPER_LEVEL {
            self.node_cache.chunks.insert(id, chunk.to_vec());
        }
        sleep(CLIENT_NODE_VISIT).await;
        frontier.visit(&self.visit_scratch)
    }

    /// The metadata a walk starts from: the last check's, else line 0 of
    /// chunk 0 read now, as on the first walk and after a restart. The
    /// record fits that one line, which cannot tear. An empty tree's
    /// metadata is never reused: its walk reads nothing to post a check
    /// behind, and the first insert sets a root under the same structure
    /// version.
    ///
    /// # Errors
    ///
    /// [`Inconsistent`] when line 0 does not decode as metadata: the
    /// traversal restarts like any other inconsistent view, and falls
    /// back to the server after repeated attempts.
    async fn read_meta(&mut self) -> Result<TreeMeta, Inconsistent> {
        match self.meta_cache {
            Some(m) if m.root.is_some() => Ok(m),
            _ => self.confirm(None).await,
        }
    }

    /// Posts a walk's structure check: a read of the metadata line in a
    /// task of its own, whose request goes out once the posting task
    /// yields. A QP executes its reads in order, so the check samples
    /// chunk 0 no earlier than any chunk read posted before it.
    fn post_confirm(&mut self) -> JoinHandle<Vec<u8>> {
        self.stats.meta_refreshes += 1;
        let (qp, handle) = (self.ch.qp.clone(), self.handle);
        spawn(async move { read_meta_line(&qp, &handle).await })
    }

    /// The metadata as the structure check `posted` behind the walk's last
    /// read sampled it, or, when none is still valid, as a line read now.
    /// [`Phase::MetaRead`] covers only the wait left once the walk is done.
    /// The fresh metadata is cached, and the level line bounds beside it
    /// size the next walks' reads.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::read_meta`].
    async fn confirm(&mut self, posted: Check) -> Result<TreeMeta, Inconsistent> {
        let span = self.trace.begin();
        let line = match posted {
            Some(posted) => posted.await,
            None => {
                self.stats.meta_refreshes += 1;
                read_meta_line(&self.ch.qp, &self.handle).await
            }
        };
        self.trace.end(Phase::MetaRead, span);
        let (m, _) = self
            .handle
            .layout
            .decode_meta(&line)
            .map_err(|_| Inconsistent)?;
        self.meta_cache = Some(m);
        self.level_lines = LevelLines::from_meta_line(&line);
        Ok(m)
    }
}

/// What a walk leaves for its structure check: the metadata line read it
/// posted behind its last read, unless a later read voided it.
type Check = Option<JoinHandle<Vec<u8>>>;

/// The nodes an offloaded walk has still to read, and what it makes of
/// each node it reads: a window search's LIFO stack of children
/// ([`Window`]), offloaded kNN's distance heap.
pub(crate) trait Frontier<B: ClientBackend> {
    /// Visits the node [`ClientBackend::validate`] left in `scratch`,
    /// queueing its children.
    fn visit(&mut self, scratch: &B::VisitScratch) -> Result<(), Inconsistent>;

    /// The next node to read with its expected level; `None` ends the
    /// walk.
    fn pop(&mut self) -> Option<(NodeId, u32)>;

    /// Whether nothing is left to read but what the walk has popped, and
    /// visiting a leaf queues nothing: once only leaves are in flight, the
    /// last of them is the walk's last read. A frontier that cannot know
    /// that in advance (kNN's heap, a range scan's leaf chain) answers
    /// `false`, and its walk confirms after the last read.
    fn drained(&self) -> bool {
        false
    }

    /// What the walk found.
    fn into_items(self) -> Vec<WireItem<B>>;
}

/// A window search (or KV lookup): [`ClientBackend::visit`]'s items and
/// a LIFO stack of the children still to read.
struct Window<'r, B: ClientBackend> {
    read: &'r B::Read,
    items: Vec<WireItem<B>>,
    stack: Vec<(NodeId, u32)>,
}

impl<B: ClientBackend> Frontier<B> for Window<'_, B> {
    fn visit(&mut self, scratch: &B::VisitScratch) -> Result<(), Inconsistent> {
        B::visit(self.read, scratch, &mut self.items, &mut self.stack)
    }

    fn pop(&mut self) -> Option<(NodeId, u32)> {
        self.stack.pop()
    }

    fn drained(&self) -> bool {
        self.stack.is_empty() && !B::leaf_visits_extend(self.read)
    }

    fn into_items(self) -> Vec<WireItem<B>> {
        self.items
    }
}

/// The metadata record: line 0 of chunk 0, one line that cannot tear.
async fn read_meta_line<L: RemoteLayout>(qp: &QueuePair, handle: &RemoteHandle<L>) -> Vec<u8> {
    qp.read(handle.rkey, 0, LINE_BYTES)
        .await
        .expect("index arena registered")
}

/// How a node chunk came off the wire: the torn reads retried, and
/// whether the first untorn read was too short for the node.
#[derive(Debug, Clone, Copy, Default)]
struct Fetched {
    torn: u32,
    short: bool,
}

impl Fetched {
    /// Whether the chunk was read more than once.
    fn reread(&self) -> bool {
        self.torn > 0 || self.short
    }
}

/// The one remote node read: the first `lines` lines of node `id`'s chunk
/// in the index arena, read again while their stamps disagree (a torn
/// read), at most `max_retries` times. When the node's header asks for
/// more lines than were read (the level's bound grew after the client
/// last read the metadata), the whole chunk is read once more, under the
/// same torn-read rule. Returns the untorn bytes and how they were
/// fetched. What the chunk holds is checked by
/// [`ClientBackend::validate`].
async fn read_chunk<L: RemoteLayout>(
    qp: &QueuePair,
    handle: &RemoteHandle<L>,
    id: NodeId,
    mut lines: usize,
    max_retries: u32,
) -> Result<(Vec<u8>, Fetched), Inconsistent> {
    // Every remote layout is whole versioned cache lines.
    let whole = handle.layout.chunk_bytes() / LINE_BYTES;
    let offset = handle.layout.node_offset(id);
    let mut fetched = Fetched::default();
    loop {
        let bytes = qp
            .read(handle.rkey, offset, lines * LINE_BYTES)
            .await
            .expect("index arena registered");
        match chunk_version(&bytes, lines) {
            Ok(_) if lines < whole && handle.layout.lines_used(&bytes) > lines => {
                fetched.short = true;
                lines = whole;
            }
            Ok(_) => return Ok((bytes, fetched)),
            Err(CodecError::TornRead { .. }) if fetched.torn < max_retries => fetched.torn += 1,
            Err(_) => return Err(Inconsistent),
        }
    }
}
