//! The generic Catfish server: one worker/heartbeat/dispatch engine for
//! every [`IndexBackend`].
//!
//! The server owns the index inside an RDMA-registered chunk arena (so
//! offloading clients can traverse it with one-sided reads), accepts ring
//! connections, and runs one worker per connection in either polling or
//! event-driven mode. It also publishes CPU-utilization heartbeats every
//! `Inv` (paper §IV-A) and serves the TCP baseline.
//!
//! ## Polling-mode modelling note
//!
//! Real polling workers spin on the ring buffer's length word. Simulating
//! each poll iteration (~100 ns) would drown the event queue, so the
//! polling worker instead *holds a core for its full scheduling quantum*
//! and uses the completion queue purely as an arrival oracle inside the
//! turn: messages are still handled at their arrival instants, the core is
//! busy for the entire turn whether or not work arrived, and when
//! connections outnumber cores a worker must wait for its next quantum —
//! precisely the oversubscription collapse of Fig. 7 — at event-queue cost
//! proportional to messages, not poll iterations.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use catfish_rdma::tcp::{TcpConn, TcpEndpoint};
use catfish_rdma::{DepositOutcome, Endpoint, Mailbox, MailboxLayout, MemoryRegion, NetProfile};
use catfish_rtree::codec::RemoteLayout;
use catfish_rtree::TreeMeta;
use catfish_simnet::sync::{oneshot, OneshotSender, Sender};
use catfish_simnet::{now, sleep, spawn, CpuPool, Network, SimDuration};

use crate::config::{ServerConfig, ServerMode};
use crate::conn::{establish_with_mailbox, ClientChannel, RkeyAllocator, ServerChannel};
use crate::obs::{Phase, SpanCtx, TraceSink};
use crate::ring::{RingReceiver, RingSender};
use crate::stats::ServiceStats;
use crate::store::MrMemory;

use super::cluster::ReplicaCtl;
use super::{
    response_frames, Execution, Frame, HeartbeatInfo, Incoming, IndexBackend, OpKind, RemoteHandle,
    ReplEnvelope, WireCodec, WireMessage, FETCH_FLAG, REPL_FENCED,
};

/// Duration over which a multi-cache-line node update is remotely visible
/// as torn (drives version-validation retries in offloading clients).
const TORN_WRITE_WINDOW: SimDuration = SimDuration::from_micros(2);

/// How long a deposited-but-unacknowledged mailbox slot stays leased
/// before the heartbeat-tick sweep reclaims it — the server-side dual of
/// the client's heartbeat-staleness failover (a client that restarted
/// mid-fetch will never ack).
pub const MAILBOX_LEASE_TTL: SimDuration = SimDuration::from_millis(50);

/// Scales a per-KiB cost term to `bytes` of payload.
fn per_kb_cost(per_kb: SimDuration, bytes: usize) -> SimDuration {
    SimDuration::from_nanos((per_kb.as_nanos().saturating_mul(bytes as u64)) / 1024)
}

/// Per-connection duplicate-detection window: remembers the sequence
/// numbers (and END statuses) of recently executed write-class requests so
/// a retransmitted insert/put/delete is answered from the cache instead of
/// being applied twice — the server half of the exactly-once contract.
/// Reads are simply re-executed. Bounded FIFO: the client's retry budget
/// bounds how far behind a duplicate can trail, so a window much larger
/// than `max_retries · max_batch` never evicts a live entry.
struct DedupWindow {
    seen: HashMap<u32, u32>,
    order: VecDeque<u32>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow {
            seen: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The cached END status for `seq`, if this write was already applied.
    fn hit(&self, seq: u32) -> Option<u32> {
        self.seen.get(&seq).copied()
    }

    fn record(&mut self, seq: u32, status: u32) {
        if self.seen.insert(seq, status).is_none() {
            self.order.push_back(seq);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }
}

/// One forwarding job a primary queues to a backup's pump: the bare
/// mutation, its envelope, the trace parent of the originating request,
/// and the oneshot the primary's END awaits.
pub(crate) struct ForwardJob<B: IndexBackend> {
    pub(crate) msg: WireMessage<B>,
    pub(crate) env: ReplEnvelope,
    pub(crate) parent: Option<SpanCtx>,
    pub(crate) done: OneshotSender<u32>,
}

/// Replication role of one server — a member of a k-way replica set, or
/// (the default) a standalone server with every field inert.
struct ReplState<B: IndexBackend> {
    /// The replica set's shared control block (primary index, epoch,
    /// liveness). `None` keeps the whole replication path disabled.
    ctl: Option<ReplicaCtl>,
    /// This server's replica index within its set.
    id: usize,
    /// Replica-set-wide applied-operation table: `(origin, op_id)` → END
    /// status. Answers a failover *reissue* (same op identity, different
    /// connection) from cache — the cross-connection half of exactly-once,
    /// on top of the per-connection dedup window. Grows with the run; a
    /// production system would truncate below the writers' acked
    /// watermark.
    applied: HashMap<(u64, u64), u32>,
    /// Forwarding pumps to the set's other members, indexed by replica
    /// id (`None` at this server's own). Every member holds its own, so
    /// whichever holds the primary role after a promotion already has
    /// them.
    backups: Vec<Option<Sender<ForwardJob<B>>>>,
}

impl<B: IndexBackend> Default for ReplState<B> {
    fn default() -> Self {
        ReplState {
            ctl: None,
            id: 0,
            applied: HashMap::new(),
            backups: Vec::new(),
        }
    }
}

struct ServerInner<B: IndexBackend> {
    endpoint: Endpoint,
    cpu: CpuPool,
    cfg: ServerConfig,
    profile: NetProfile,
    backend: RefCell<B>,
    rkey: u32,
    layout: B::Layout,
    rkeys: RkeyAllocator,
    heartbeat_targets: RefCell<Vec<RingSender>>,
    /// Per-connection mailboxes (fetch-mode response path), registered so
    /// the heartbeat tick can reclaim acked and stale slot leases.
    mailboxes: RefCell<Vec<Rc<RefCell<Mailbox>>>>,
    /// Request-ring receivers of accepted connections, kept so
    /// [`ServiceServer::stats`] can fold their integrity counters in.
    rings: RefCell<Vec<RingReceiver>>,
    stats: RefCell<ServiceStats>,
    tcp: RefCell<Option<TcpEndpoint>>,
    trace: RefCell<TraceSink>,
    /// Replication role (inert outside replica sets).
    repl: RefCell<ReplState<B>>,
}

/// A Catfish server over any [`IndexBackend`]. Cloneable handle; spawned
/// workers share state.
pub struct ServiceServer<B: IndexBackend> {
    inner: Rc<ServerInner<B>>,
}

impl<B: IndexBackend> Clone for ServiceServer<B> {
    fn clone(&self) -> Self {
        ServiceServer {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<B: IndexBackend> std::fmt::Debug for ServiceServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("node", &self.inner.endpoint.node())
            .field("meta", &self.inner.backend.borrow().meta())
            .finish()
    }
}

impl<B: IndexBackend> ServiceServer<B> {
    /// Builds a server on a fresh fabric node: allocates and registers the
    /// index arena, bulk-loads `items`, and prepares worker infrastructure.
    ///
    /// # Panics
    ///
    /// Panics if the arena estimate cannot hold the dataset.
    pub fn build(
        net: &Network,
        profile: &NetProfile,
        cfg: ServerConfig,
        index_cfg: B::Config,
        items: Vec<B::LoadItem>,
        rkeys: &RkeyAllocator,
    ) -> ServiceServer<B> {
        let layout = B::layout(&index_cfg);
        let arena_bytes = layout.arena_bytes(B::estimate_chunks(&index_cfg, items.len()));
        Self::build_with(net, profile, cfg, layout, arena_bytes, rkeys, |mem| {
            B::load(mem, layout, index_cfg, items)
        })
    }

    /// Builds a backup of this server on a fresh fabric node of the same
    /// configuration, on the same fabric and rkey allocator. Its arena is
    /// the same size and starts as a byte copy of this server's
    /// ([`IndexBackend::replicate`]) instead of a second bulk load.
    pub fn build_backup(&self) -> ServiceServer<B> {
        let inner = &self.inner;
        let arena_bytes = inner
            .endpoint
            .memory_region(inner.rkey)
            .expect("the index arena is registered at build")
            .len();
        Self::build_with(
            inner.endpoint.network(),
            &inner.profile,
            inner.cfg,
            inner.layout,
            arena_bytes,
            &inner.rkeys,
            |mem| inner.backend.borrow().replicate(mem),
        )
    }

    /// The one server set-up: a node, its NIC and cores, and a registered
    /// arena of `arena_bytes` that `index` fills with torn visibility off
    /// (no clients yet), enabled after.
    fn build_with(
        net: &Network,
        profile: &NetProfile,
        cfg: ServerConfig,
        layout: B::Layout,
        arena_bytes: usize,
        rkeys: &RkeyAllocator,
        index: impl FnOnce(MrMemory) -> B,
    ) -> ServiceServer<B> {
        let node = net.add_node(profile.link);
        let endpoint = Endpoint::new(net, node, profile.rdma);
        let cpu = CpuPool::new(cfg.cores, cfg.quantum);
        let rkey = rkeys.alloc();
        let mr = MemoryRegion::new(arena_bytes, rkey);
        endpoint.register(mr.clone());
        let backend = index(MrMemory::new(mr, SimDuration::ZERO));
        backend.set_torn_window(TORN_WRITE_WINDOW);
        ServiceServer {
            inner: Rc::new(ServerInner {
                endpoint,
                cpu,
                cfg,
                profile: *profile,
                backend: RefCell::new(backend),
                rkey,
                layout,
                rkeys: rkeys.clone(),
                heartbeat_targets: RefCell::new(Vec::new()),
                mailboxes: RefCell::new(Vec::new()),
                rings: RefCell::new(Vec::new()),
                stats: RefCell::new(ServiceStats::default()),
                tcp: RefCell::new(None),
                trace: RefCell::new(TraceSink::default()),
                repl: RefCell::new(ReplState::default()),
            }),
        }
    }

    /// Routes the server's spans into `sink`: [`Phase::ServerQueue`]
    /// (NIC delivery to worker pickup, reported by the ring receivers),
    /// [`Phase::Dispatch`], [`Phase::IndexExec`], and
    /// [`Phase::RespTransit`]. With span retention on, dispatch and
    /// execution spans attach under the request's sender, found by the
    /// request's `(ring rkey, seq)` (use [`TraceSink::for_node`] with a
    /// `SERVER_NODE_BASE`-offset id so spans carry the server identity).
    /// Call **before** [`ServiceServer::accept`] — already-accepted
    /// connections keep their receivers untraced.
    pub fn set_trace(&self, sink: TraceSink) {
        *self.inner.trace.borrow_mut() = sink;
    }

    /// The server's RDMA endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner.endpoint
    }

    /// The shared worker-core pool (for utilization sampling).
    pub fn cpu(&self) -> &CpuPool {
        &self.inner.cpu
    }

    /// Traversal bootstrap info for offloading clients.
    pub fn remote_handle(&self) -> RemoteHandle<B::Layout> {
        RemoteHandle {
            rkey: self.inner.rkey,
            layout: self.inner.layout,
        }
    }

    /// Current index metadata (diagnostics and tests).
    pub fn meta(&self) -> TreeMeta {
        self.inner.backend.borrow().meta()
    }

    /// Runs `f` with shared access to the server's index (repair snapshots
    /// and tests).
    pub fn with_index<R>(&self, f: impl FnOnce(&B) -> R) -> R {
        f(&self.inner.backend.borrow())
    }

    /// Runs `f` with exclusive access to the server's index: hash-range
    /// repair removes a lagging member's differing copies and inserts the
    /// authority's entries through this, and tests diverge members with it.
    pub fn with_index_mut<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        f(&mut self.inner.backend.borrow_mut())
    }

    /// Enrolls this server in a replica set: `ctl` is the set's shared
    /// control block, `id` this server's index within it, and `backups`
    /// the forwarding pumps to the other members, indexed by replica id
    /// (`None` at `id`). From here on, mutations are epoch-fenced and
    /// non-primaries reject client submissions (forwarded legs
    /// excepted); while primary, this server forwards each accepted
    /// mutation down every live member's pump.
    pub(crate) fn set_replica_role(
        &self,
        ctl: ReplicaCtl,
        id: usize,
        backups: Vec<Option<Sender<ForwardJob<B>>>>,
    ) {
        let mut repl = self.inner.repl.borrow_mut();
        repl.ctl = Some(ctl);
        repl.id = id;
        repl.backups = backups;
    }

    /// Aggregate counters, folding in the request-ring integrity counters
    /// of every accepted connection.
    pub fn stats(&self) -> ServiceStats {
        let mut st = *self.inner.stats.borrow();
        for rx in self.inner.rings.borrow().iter() {
            st.checksum_failures += rx.checksum_failures();
            st.resyncs += rx.resyncs();
        }
        st
    }

    /// Connections the heartbeat publisher currently fans out to (departed
    /// clients are pruned on the tick after they close).
    pub fn heartbeat_target_count(&self) -> usize {
        self.inner.heartbeat_targets.borrow().len()
    }

    /// Outstanding (leased, unreclaimed) mailbox slots across every
    /// connection — the leak audit: after clients quiesce and a lease TTL
    /// plus a heartbeat tick elapse, this must be zero.
    pub fn mailbox_outstanding(&self) -> usize {
        self.inner
            .mailboxes
            .borrow()
            .iter()
            .map(|mb| mb.borrow().outstanding_leases())
            .sum()
    }

    /// Accepts a ring connection from `client_ep` and spawns its worker.
    /// When [`ServerConfig::mailbox_slots`] is non-zero a per-client
    /// mailbox region is also allocated, enabling the fetch response path.
    pub fn accept(&self, client_ep: &Endpoint) -> ClientChannel {
        let layout = (self.inner.cfg.mailbox_slots > 0).then(|| {
            MailboxLayout::new(
                self.inner.cfg.mailbox_slots,
                self.inner.cfg.mailbox_slot_bytes,
            )
        });
        let (cc, sc) = establish_with_mailbox(
            client_ep,
            &self.inner.endpoint,
            self.inner.cfg.ring_capacity,
            &self.inner.rkeys,
            layout,
        );
        if let Some(mb) = &sc.mailbox {
            self.inner.mailboxes.borrow_mut().push(Rc::clone(mb));
        }
        self.inner
            .heartbeat_targets
            .borrow_mut()
            .push(sc.tx.clone());
        self.inner.rings.borrow_mut().push(sc.rx.clone());
        sc.rx
            .set_trace(self.inner.trace.borrow().clone(), Phase::ServerQueue);
        let this = self.clone();
        spawn(async move {
            match this.inner.cfg.mode {
                ServerMode::EventDriven => this.worker_event(sc).await,
                ServerMode::Polling => this.worker_polling(sc).await,
            }
        });
        cc
    }

    /// Starts the heartbeat publisher (call once; idempotent behaviour is
    /// the caller's responsibility).
    pub fn start_heartbeats(&self) {
        let this = self.clone();
        spawn(async move {
            let mut last = this.inner.cpu.sample();
            loop {
                sleep(this.inner.cfg.heartbeat_interval).await;
                let cur = this.inner.cpu.sample();
                let util = this.inner.cpu.utilization_between(&last, &cur);
                last = cur;
                // Heartbeat ticks double as the mailbox janitor: reclaim
                // slots the client has acked, and sweep leases older than
                // the TTL — the server-side dual of the client staleness
                // failsafe, covering clients that crashed mid-fetch.
                {
                    let t = now();
                    let mut reclaimed = 0u64;
                    for mb in this.inner.mailboxes.borrow().iter() {
                        let mut mb = mb.borrow_mut();
                        reclaimed += mb.reclaim_acked();
                        reclaimed += mb.sweep_stale(t, MAILBOX_LEASE_TTL);
                    }
                    if reclaimed > 0 {
                        this.inner.stats.borrow_mut().mailbox_reclaims += reclaimed;
                    }
                }
                // Encode once and share the bytes: a per-connection clone
                // + spawn would allocate a Vec and a task for every client
                // on every 10 ms tick. The heartbeat advertises the
                // per-mode serving-cost terms so clients can derive the
                // write-back/fetch crossover (three-way policy).
                let cost = &this.inner.cfg.cost;
                let info = HeartbeatInfo {
                    util_permille: (util * 1000.0).round().min(1000.0) as u16,
                    wb_fixed_ns: cost.post.as_nanos().min(u64::from(u32::MAX)) as u32,
                    wb_per_kb_ns: cost.post_per_kb.as_nanos().min(u64::from(u32::MAX)) as u32,
                    fetch_fixed_ns: cost.deposit.as_nanos().min(u64::from(u32::MAX)) as u32,
                    fetch_per_kb_ns: cost.deposit_per_kb.as_nanos().min(u64::from(u32::MAX)) as u32,
                };
                let msg: Rc<[u8]> = Frame::<WireMessage<B>>::Heartbeat(info)
                    .encode::<B::Wire>()
                    .into();
                let targets: Vec<RingSender> = this.inner.heartbeat_targets.borrow().clone();
                let plan = this.inner.endpoint.fault_plan();
                let mut any_closed = false;
                for tx in targets {
                    // Fault injection: a suppressed heartbeat is simply not
                    // delivered this tick — the client-side staleness
                    // failsafe must cover for it. A scripted partition
                    // silences every target (checked first so the
                    // probabilistic draw below stays undisturbed when no
                    // partition is configured).
                    if let Some(plan) = &plan {
                        if plan.partitioned(now()) || plan.suppress_heartbeat() {
                            continue;
                        }
                    }
                    if tx.send(&msg, 0).await.is_err() {
                        any_closed = true;
                    }
                }
                if any_closed {
                    this.inner
                        .heartbeat_targets
                        .borrow_mut()
                        .retain(|t| !t.is_closed());
                }
            }
        });
    }

    /// Decodes one ring frame **in place**: the payload slice is borrowed
    /// straight out of the registered ring region (no intermediate `Vec`
    /// copy) and parsed into an owned frame before the frame slot is
    /// recycled. A malformed request is dropped (a real server would close
    /// the connection) and counted so operators can see it happening.
    fn decode_frame(&self, bytes: &[u8]) -> Option<Frame<WireMessage<B>>> {
        match Frame::decode::<B::Wire>(bytes) {
            Ok(m) => Some(m),
            Err(_) => {
                self.inner.stats.borrow_mut().decode_errors += 1;
                None
            }
        }
    }

    /// Drains up to `max_batch - 1` further frames that have **already**
    /// arrived behind `first` — the server half of adaptive batching: a
    /// batch exists only when a queue exists, so an idle connection keeps
    /// today's one-frame path. Each drained frame is decoded in place from
    /// the ring (see [`ServiceServer::decode_frame`]); malformed frames are
    /// counted and skipped without consuming batch slots.
    fn drain_arrived(
        &self,
        first: Frame<WireMessage<B>>,
        ch: &ServerChannel,
    ) -> Vec<Frame<WireMessage<B>>> {
        let max_batch = self.inner.cfg.max_batch.max(1);
        let mut msgs = vec![first];
        while msgs.len() < max_batch {
            match ch.rx.try_pop_map(|payload| self.decode_frame(payload)) {
                Some(Some(m)) => msgs.push(m),
                Some(None) => continue,
                None => break,
            }
        }
        msgs
    }

    /// Worker-side fault injection, applied once per received frame:
    /// an injected stall parks the worker (GC pause, scheduler hiccup),
    /// and a crash window discards the frame entirely — the worker
    /// "restarts" with its connection state (including the dedup window)
    /// intact, so retransmitted requests are still answered idempotently.
    /// Returns `true` when the frame was consumed by a crash.
    async fn inject_worker_faults(&self) -> bool {
        let Some(plan) = self.inner.endpoint.fault_plan() else {
            return false;
        };
        // A partitioned server never saw the frame at all: discard before
        // any probabilistic draw so scripted partitions replay identically.
        if plan.partitioned(now()) {
            return true;
        }
        if let Some(d) = plan.worker_stall() {
            sleep(d).await;
        }
        plan.crash_discard(now())
    }

    async fn worker_event(&self, ch: ServerChannel) {
        let dedup = RefCell::new(DedupWindow::new(self.inner.cfg.dedup_window));
        loop {
            let Some(first) = ch
                .rx
                .wait_message_map(|payload| self.decode_frame(payload))
                .await
            else {
                continue;
            };
            self.serve_batch(first, &ch, &dedup, false).await;
        }
    }

    /// The polling worker behind [`ServerMode::Polling`]. Each turn it
    /// holds a core for one scheduling quantum and serves every batch
    /// that arrives before the turn ends, busy or not; then it releases
    /// the core and re-contends, so oversubscribed pollers rotate through
    /// the run queue and wait a quantum per turn — Fig. 7's collapse once
    /// connections outnumber cores.
    async fn worker_polling(&self, ch: ServerChannel) {
        let quantum = self.inner.cpu.quantum();
        let dedup = RefCell::new(DedupWindow::new(self.inner.cfg.dedup_window));
        loop {
            let core = self.inner.cpu.acquire().await;
            let turn_end = now() + quantum;
            while let Some(decoded) = ch
                .rx
                .wait_message_until_map(turn_end, |payload| self.decode_frame(payload))
                .await
            {
                let Some(first) = decoded else { continue };
                self.serve_batch(first, &ch, &dedup, true).await;
                if now() >= turn_end {
                    break;
                }
            }
            drop(core);
            // Re-contend: with more workers than cores this lands at the
            // back of the run queue (round-robin).
            catfish_simnet::yield_now().await;
        }
    }

    /// Drains, executes, and answers one batch starting at `first`: on a
    /// core the caller already holds (the polling worker), or
    /// queueing each charge through the pool (the event-driven worker).
    async fn serve_batch(
        &self,
        first: Frame<WireMessage<B>>,
        ch: &ServerChannel,
        dedup: &RefCell<DedupWindow>,
        holding_core: bool,
    ) {
        let frames = self.drain_arrived(first, ch);
        let mut execs = Vec::new();
        for frame in frames {
            if self.inject_worker_faults().await {
                continue;
            }
            execs.extend(
                self.process(frame, holding_core, Some((ch.rx.ring_rkey(), dedup)))
                    .await,
            );
        }
        self.respond(execs, ch, holding_core).await;
    }

    /// Charges `cost` of CPU: queued through the pool in event mode, or
    /// consumed on the already-held core in polling mode.
    async fn charge(&self, cost: SimDuration, holding_core: bool) {
        if holding_core {
            sleep(cost).await;
        } else {
            self.inner.cpu.run(cost).await;
        }
    }

    /// Executes, charges, and counts one already-decoded ring frame — a
    /// single request, a doorbell batch of them, or a mutation under a
    /// replication envelope. The frame's bytes were parsed in place by
    /// [`ServiceServer::decode_frame`] while still borrowed from the
    /// registered ring region; here only the fixed `dispatch` cost (CQ
    /// poll, wakeup, decode) is charged — **once per frame**, so a batch
    /// of N requests amortizes it N ways. Shared by
    /// the ring workers (`ring`: the connection's request-ring rkey and
    /// dedup window) and the TCP baseline; only the response transport
    /// differs between them.
    async fn process(
        &self,
        frame: Frame<WireMessage<B>>,
        holding_core: bool,
        ring: Option<(u32, &RefCell<DedupWindow>)>,
    ) -> Vec<Execution<B::Wire>> {
        let trace = self.inner.trace.borrow().clone();
        let dedup = ring.map(|(_, dedup)| dedup);
        // A request's name on this connection is its sequence number, or
        // its envelope's link sequence (the inner one names it on the
        // originating client's connection). Its sender span is found by
        // that name and the ring it arrived on.
        let meta = |env: Option<&ReplEnvelope>, m: &WireMessage<B>| {
            let (seq, kind) = B::Wire::request_meta(m)?;
            Some((env.map_or(seq, |e| e.link_seq), kind))
        };
        let sender = |meta: Option<(u32, OpKind)>| {
            let (rkey, _) = ring?;
            let (seq, _) = meta?;
            trace.linked(rkey, seq & !FETCH_FLAG)
        };
        let dispatch_span = trace.begin();
        self.charge(self.inner.cfg.cost.dispatch, holding_core)
            .await;
        // The frame's requests, each with its envelope if it has one
        // (responses and heartbeats never arrive at the server).
        let reqs: Vec<(Option<ReplEnvelope>, WireMessage<B>)> = match frame {
            Frame::Msg(m) => match B::Wire::classify(m) {
                Incoming::Request(m) => vec![(None, m)],
                Incoming::Cont { .. } | Incoming::End { .. } => Vec::new(),
            },
            Frame::Batch(msgs) => msgs.into_iter().map(|m| (None, m)).collect(),
            Frame::Replicated { env, inner } => vec![(Some(env), inner)],
            Frame::Heartbeat(_) => Vec::new(),
        };
        // Every request in a batch frame shares the frame's single
        // dispatch charge and execution run, so each gets both spans.
        let senders: Vec<SpanCtx> = reqs
            .iter()
            .filter_map(|(env, m)| sender(meta(env.as_ref(), m)))
            .collect();
        trace.end_under(Phase::Dispatch, dispatch_span, senders.iter().copied());
        if reqs.is_empty() {
            return Vec::new();
        }
        let exec_span = trace.begin();
        let mut execs = Vec::with_capacity(reqs.len());
        for (env, m) in reqs {
            // Duplicate detection: a retransmitted write-class request is
            // answered from the cached END status instead of being applied
            // twice — retried inserts/deletes stay idempotent.
            let meta = meta(env.as_ref(), &m);
            let parent = sender(meta);
            if let (Some(dedup), Some((seq, kind))) = (dedup, meta) {
                if kind != OpKind::Read {
                    if let Some(status) = dedup.borrow().hit(seq) {
                        self.inner.stats.borrow_mut().dup_drops += 1;
                        execs.push(Execution::answered(seq, kind, status));
                        continue;
                    }
                }
            }
            // Replica-set gate (inert outside replication): fence stale
            // epochs and client mutations landing on a non-primary, then
            // answer failover reissues from the applied-operation table.
            let mut forward_copy = None;
            if let Some((seq, kind)) = meta {
                let repl_mutation = kind != OpKind::Read && self.inner.repl.borrow().ctl.is_some();
                if repl_mutation {
                    let fence = {
                        let repl = self.inner.repl.borrow();
                        let ctl = repl.ctl.as_ref().expect("gated above");
                        let stale_epoch = env.as_ref().is_some_and(|e| e.epoch < ctl.epoch());
                        let forwarded = env.as_ref().is_some_and(|e| e.forwarded());
                        stale_epoch || (!ctl.is_primary(repl.id) && !forwarded)
                    };
                    if fence {
                        // Deliberately NOT recorded in the dedup window: a
                        // reissue after the writer refreshes its epoch must
                        // be re-judged, not answered from cache.
                        self.inner.stats.borrow_mut().repl_fenced += 1;
                        execs.push(Execution::answered(seq, kind, REPL_FENCED));
                        continue;
                    }
                    if let Some(env) = &env {
                        let hit = self
                            .inner
                            .repl
                            .borrow()
                            .applied
                            .get(&(env.origin, env.op_id))
                            .copied();
                        if let Some(status) = hit {
                            self.inner.stats.borrow_mut().repl_dups += 1;
                            if let Some(dedup) = dedup {
                                dedup.borrow_mut().record(seq, status);
                            }
                            execs.push(Execution::answered(seq, kind, status));
                            continue;
                        }
                        // A fresh enveloped client mutation on the primary
                        // fans out to the backups after local execution.
                        if !env.forwarded() {
                            forward_copy = Some(m.clone());
                        }
                    }
                }
            }
            // The backend borrow is released before any await point.
            let Some(mut exec) = self
                .inner
                .backend
                .borrow_mut()
                .execute(m, &self.inner.cfg.cost)
            else {
                continue;
            };
            if let Some(env) = &env {
                // Respond on THIS connection's sequence, not the origin
                // client's (a forwarded leg echoes the pump's link seq).
                exec.seq = env.link_seq;
            }
            if let (Some(dedup), Some((seq, kind))) = (dedup, meta) {
                if kind != OpKind::Read {
                    dedup.borrow_mut().record(seq, exec.status);
                    if let Some(env) = &env {
                        self.inner
                            .repl
                            .borrow_mut()
                            .applied
                            .insert((env.origin, env.op_id), exec.status);
                    }
                }
            }
            self.charge(exec.cost, holding_core).await;
            {
                let mut st = self.inner.stats.borrow_mut();
                match exec.kind {
                    OpKind::Read => {
                        st.reads += 1;
                        st.results_returned += exec.items.len() as u64;
                        st.nodes_visited += exec.nodes_visited;
                    }
                    OpKind::Write => st.writes += 1,
                    OpKind::Remove => st.removes += 1,
                }
            }
            if let Some(inner_msg) = forward_copy {
                let env = env.as_ref().expect("forward implies envelope");
                self.forward(inner_msg, env, parent).await;
            }
            execs.push(exec);
        }
        trace.end_under(Phase::IndexExec, exec_span, senders);
        execs
    }

    /// Primary-side fan-out: queues the accepted mutation `msg` to every
    /// live backup's pump under a forwarded copy of `env` stamped with the
    /// current epoch, and waits for every ack before the caller releases
    /// its END — synchronous k-way replication. The jobs are queued before
    /// the first await, so no `RefCell` borrow is held across it.
    async fn forward(&self, msg: WireMessage<B>, env: &ReplEnvelope, parent: Option<SpanCtx>) {
        let t0 = now();
        let acks: Vec<_> = {
            let repl = self.inner.repl.borrow();
            let ctl = repl.ctl.as_ref().expect("forward implies replication");
            let env = ReplEnvelope {
                link_seq: 0, // bound per backup link at send time
                origin: env.origin,
                op_id: env.op_id,
                epoch: ctl.epoch(),
                flags: ReplEnvelope::FORWARDED,
            };
            repl.backups
                .iter()
                .enumerate()
                .filter_map(|(peer, tx)| {
                    let tx = tx.as_ref().filter(|_| ctl.is_alive(peer))?;
                    let (done, wait) = oneshot();
                    tx.send(ForwardJob {
                        msg: msg.clone(),
                        env,
                        parent,
                        done,
                    });
                    Some(wait)
                })
                .collect()
        };
        for wait in acks {
            let _ = wait.await;
        }
        let mut st = self.inner.stats.borrow_mut();
        st.repl_forwards += 1;
        st.repl_lag_ns += (now() - t0).as_nanos();
    }

    /// Sends every response frame of `execs`, coalescing up to `max_batch`
    /// frames per doorbell: one `post` charge and one CQ event per group
    /// instead of one per frame.
    ///
    /// An execution whose sequence number carries [`FETCH_FLAG`] asked for
    /// the **fetch** response path: instead of ring-writing the response,
    /// the server deposits the encoded END frame into the client's mailbox
    /// slot (cheap local memcpy, no NIC write initiation) and the client
    /// pulls it with one-sided reads. Responses that overflow the slot fall
    /// back to write-back on the ring, which the fetch loop also drains.
    async fn respond(
        &self,
        execs: Vec<Execution<B::Wire>>,
        ch: &ServerChannel,
        holding_core: bool,
    ) {
        if execs.is_empty() {
            return;
        }
        // RespTransit: post charge through last ring write of the group —
        // ends inside the spawned sender so transit time is included.
        let trace = self.inner.trace.borrow().clone();
        let transit_span = trace.begin();
        let seg = self.inner.cfg.response_segment_results;
        let cost = &self.inner.cfg.cost;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut deposit_cost = SimDuration::ZERO;
        for exec in execs {
            let fetch = exec.seq & FETCH_FLAG != 0;
            let seq = exec.seq & !FETCH_FLAG;
            if fetch {
                if let Some(mb) = &ch.mailbox {
                    let payload =
                        B::Wire::encode(&B::Wire::end(seq, exec.items.clone(), exec.status));
                    let outcome =
                        mb.borrow_mut()
                            .try_deposit(seq, &payload, TORN_WRITE_WINDOW, now());
                    match outcome {
                        DepositOutcome::Stored => {
                            deposit_cost +=
                                cost.deposit + per_kb_cost(cost.deposit_per_kb, payload.len());
                            self.inner.stats.borrow_mut().fetched_responses += 1;
                            continue;
                        }
                        DepositOutcome::TooLarge => {
                            self.inner.stats.borrow_mut().fetch_fallbacks += 1;
                        }
                    }
                } else {
                    self.inner.stats.borrow_mut().fetch_fallbacks += 1;
                }
            }
            for m in response_frames::<B::Wire>(seq, exec.items, exec.status, seg) {
                frames.push(B::Wire::encode(&m));
            }
        }
        if !deposit_cost.is_zero() {
            self.charge(deposit_cost, holding_core).await;
        }
        if frames.is_empty() {
            trace.end(Phase::RespTransit, transit_span);
            return;
        }
        let wb_bytes: usize = frames.iter().map(Vec::len).sum();
        let max_batch = self.inner.cfg.max_batch.max(1);
        let groups = frames.len().div_ceil(max_batch);
        self.charge(
            cost.post * groups as u64 + per_kb_cost(cost.post_per_kb, wb_bytes),
            holding_core,
        )
        .await;
        {
            let mut st = self.inner.stats.borrow_mut();
            for group in frames.chunks(max_batch) {
                if group.len() >= 2 {
                    st.batches_sent += 1;
                    st.batched_msgs += group.len() as u64;
                }
            }
        }
        let tx = ch.tx.clone();
        spawn(async move {
            for group in frames.chunks(max_batch) {
                // A closed or persistently full response ring means the
                // client is gone (or wedged): drop the rest of the group
                // rather than block the worker forever.
                if tx.send_batch(group, 0).await.is_err() {
                    break;
                }
            }
            trace.end(Phase::RespTransit, transit_span);
        });
    }

    // ------------------------------------------------------------------
    // TCP baseline
    // ------------------------------------------------------------------

    /// The server's TCP stack (kernel work charged to the worker cores).
    pub fn tcp_endpoint(&self) -> TcpEndpoint {
        let mut slot = self.inner.tcp.borrow_mut();
        if slot.is_none() {
            *slot = Some(TcpEndpoint::new(
                self.inner.endpoint.network(),
                self.inner.endpoint.node(),
                self.inner.profile.tcp,
                Some(self.inner.cpu.clone()),
            ));
        }
        slot.clone().expect("just initialized")
    }

    /// Spawns a worker serving `conn` (a thread blocked in `recv`, the
    /// classic threaded TCP server).
    pub fn accept_tcp(&self, conn: TcpConn) {
        let this = self.clone();
        spawn(async move {
            let conn = Rc::new(conn);
            loop {
                let Some(bytes) = conn.recv().await else {
                    break;
                };
                this.handle_tcp(bytes, &conn).await;
            }
        });
    }

    async fn handle_tcp(&self, bytes: Vec<u8>, conn: &Rc<TcpConn>) {
        // TCP is the lossless baseline: no retransmission layer above it,
        // so no dedup window either.
        let Some(frame) = self.decode_frame(&bytes) else {
            return;
        };
        let execs = self.process(frame, false, None).await;
        if execs.is_empty() {
            return;
        }
        let seg = self.inner.cfg.response_segment_results;
        let conn = Rc::clone(conn);
        spawn(async move {
            for exec in execs {
                for m in response_frames::<B::Wire>(exec.seq, exec.items, exec.status, seg) {
                    conn.send(B::Wire::encode(&m)).await;
                }
            }
        });
    }
}
