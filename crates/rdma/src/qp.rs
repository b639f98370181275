//! Queue pairs, one-sided verbs, and completion queues.
//!
//! An [`Endpoint`] represents one host's RDMA stack: its NIC attachment to
//! the simulated fabric plus its table of registered [`MemoryRegion`]s.
//! [`Endpoint::connect`] creates a reliable-connection (RC) pair of
//! [`QueuePair`]s. Verbs follow the paper's usage:
//!
//! * [`QueuePair::read`] — one-sided RDMA Read: a small request crosses the
//!   wire, the remote NIC samples the region (**no remote CPU**), and the
//!   payload returns. Costs a full round trip.
//! * [`QueuePair::write`] — one-sided RDMA Write: payload crosses the wire
//!   once; completion at delivery. Lower latency than a read.
//! * [`QueuePair::write_with_imm`] — RDMA Write with Immediate Data: same
//!   as a write, plus a [`Completion`] carrying the immediate value lands
//!   in the remote side's completion queue, waking any thread blocked on
//!   [`CompletionQueue::wait`] — the event-based server mechanism of
//!   paper §IV-B.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use catfish_simnet::sync::Notify;
use catfish_simnet::{sleep_until, Network, NodeId, SimDuration, SimTime};

use crate::fault::FaultPlan;
use crate::mr::MemoryRegion;

/// Fixed-cost parameters of the simulated RDMA stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdmaProfile {
    /// Per-verb NIC processing overhead added to each operation.
    pub op_overhead: SimDuration,
    /// Wire size of a read request (header-only message).
    pub read_request_bytes: u32,
}

impl Default for RdmaProfile {
    fn default() -> Self {
        RdmaProfile {
            op_overhead: SimDuration::from_nanos(250),
            read_request_bytes: 32,
        }
    }
}

/// Errors from one-sided verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// No memory region with this rkey is registered at the peer.
    UnknownRkey(u32),
    /// The access range falls outside the target region.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Region capacity.
        capacity: usize,
    },
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::UnknownRkey(k) => write!(f, "no memory region registered with rkey {k}"),
            RdmaError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "remote access [{offset}, {offset}+{len}) exceeds region of {capacity} bytes"
            ),
        }
    }
}

impl std::error::Error for RdmaError {}

#[derive(Debug)]
struct EndpointInner {
    node: NodeId,
    net: Network,
    profile: RdmaProfile,
    mrs: RefCell<HashMap<u32, MemoryRegion>>,
    faults: RefCell<Option<FaultPlan>>,
}

/// One host's RDMA stack: NIC attachment plus registered memory.
///
/// # Examples
///
/// ```
/// use catfish_rdma::{Endpoint, MemoryRegion, RdmaProfile};
/// use catfish_simnet::{LinkSpec, Network, Sim, SimDuration};
///
/// let sim = Sim::new();
/// sim.run_until(async {
///     let net = Network::new();
///     let spec = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
///     let a = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
///     let b = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
///     let mr = MemoryRegion::new(4096, 42);
///     b.register(mr.clone());
///     let (qa, _qb) = a.connect(&b);
///     mr.write_local(0, b"spatial");
///     let data = qa.read(42, 0, 7).await.unwrap();
///     assert_eq!(&data, b"spatial");
/// });
/// ```
#[derive(Clone, Debug)]
pub struct Endpoint {
    inner: Rc<EndpointInner>,
}

impl Endpoint {
    /// Creates an endpoint for `node` on `net`.
    pub fn new(net: &Network, node: NodeId, profile: RdmaProfile) -> Self {
        Endpoint {
            inner: Rc::new(EndpointInner {
                node,
                net: net.clone(),
                profile,
                mrs: RefCell::new(HashMap::new()),
                faults: RefCell::new(None),
            }),
        }
    }

    /// Attaches a fault-injection plan to every operation issued from
    /// this endpoint (and every ring built over its queue pairs).
    /// `None` detaches.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.faults.borrow_mut() = plan;
    }

    /// The endpoint's fault plan, if one is attached.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.faults.borrow().clone()
    }

    /// The fabric node this endpoint is attached to.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The fabric this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.inner.net
    }

    /// Registers `mr`, making it remotely accessible under its rkey.
    ///
    /// # Panics
    ///
    /// Panics if another region is already registered under the same rkey.
    pub fn register(&self, mr: MemoryRegion) {
        let prev = self.inner.mrs.borrow_mut().insert(mr.rkey(), mr);
        assert!(prev.is_none(), "rkey already registered");
    }

    /// Looks up a registered region by rkey.
    pub fn memory_region(&self, rkey: u32) -> Option<MemoryRegion> {
        self.inner.mrs.borrow().get(&rkey).cloned()
    }

    /// Establishes a reliable connection, returning the local and remote
    /// queue pairs.
    pub fn connect(&self, remote: &Endpoint) -> (QueuePair, QueuePair) {
        let cq_local = CompletionQueue::new();
        let cq_remote = CompletionQueue::new();
        let local_qp = QueuePair {
            local: Rc::clone(&self.inner),
            remote: Rc::clone(&remote.inner),
            recv_cq: cq_local.clone(),
            peer_cq: cq_remote.clone(),
        };
        let remote_qp = QueuePair {
            local: Rc::clone(&remote.inner),
            remote: Rc::clone(&self.inner),
            recv_cq: cq_remote,
            peer_cq: cq_local,
        };
        (local_qp, remote_qp)
    }
}

/// A work completion delivered to the remote side by
/// [`QueuePair::write_with_imm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The immediate value carried by the write.
    pub imm: u32,
    /// Payload length of the write that generated this completion.
    pub byte_len: u32,
    /// Delivery instant.
    pub at: SimTime,
}

#[derive(Debug, Default)]
struct CqInner {
    queue: std::collections::VecDeque<Completion>,
}

/// A completion queue with both polling and event-channel access.
#[derive(Clone, Debug, Default)]
pub struct CompletionQueue {
    inner: Rc<RefCell<CqInner>>,
    notify: Notify,
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Polls for a completion without blocking (the polling-server path).
    pub fn try_poll(&self) -> Option<Completion> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Waits, off-CPU, until a completion is available (the event-driven
    /// server path: the thread blocks on the completion channel and the
    /// NIC wakes it).
    pub async fn wait(&self) -> Completion {
        loop {
            if let Some(c) = self.try_poll() {
                return c;
            }
            self.notify.notified().await;
        }
    }

    /// Number of completions pending.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, c: Completion) {
        self.inner.borrow_mut().queue.push_back(c);
        self.notify.notify_one();
    }
}

/// One side of a reliable connection.
#[derive(Clone)]
pub struct QueuePair {
    local: Rc<EndpointInner>,
    remote: Rc<EndpointInner>,
    recv_cq: CompletionQueue,
    peer_cq: CompletionQueue,
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("local", &self.local.node)
            .field("remote", &self.remote.node)
            .finish()
    }
}

impl QueuePair {
    /// This side's completion queue (receives peer write-with-imm events).
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.recv_cq
    }

    /// The fault plan attached to the local endpoint, if any. Ring
    /// senders consult it to corrupt frame payloads in flight.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.local.faults.borrow().clone()
    }

    fn remote_mr(&self, rkey: u32, offset: usize, len: usize) -> Result<MemoryRegion, RdmaError> {
        let mr = self
            .remote
            .mrs
            .borrow()
            .get(&rkey)
            .cloned()
            .ok_or(RdmaError::UnknownRkey(rkey))?;
        if offset + len > mr.len() {
            return Err(RdmaError::OutOfBounds {
                offset,
                len,
                capacity: mr.len(),
            });
        }
        Ok(mr)
    }

    /// One-sided RDMA Read of `len` bytes at `offset` in the remote region
    /// `rkey`. The remote CPU is not involved; the remote memory is sampled
    /// when the request reaches the remote NIC, so a read racing a
    /// concurrent multi-line write can observe a torn snapshot (detected by
    /// the caller's version validation).
    ///
    /// # Errors
    ///
    /// [`RdmaError::UnknownRkey`] or [`RdmaError::OutOfBounds`]; both are
    /// validated before any wire traffic.
    pub async fn read(&self, rkey: u32, offset: usize, len: usize) -> Result<Vec<u8>, RdmaError> {
        let mr = self.remote_mr(rkey, offset, len)?;
        let profile = self.local.profile;
        let net = &self.local.net;
        // Request crosses the wire.
        let t_req = net.schedule_transfer(
            self.local.node,
            self.remote.node,
            u64::from(profile.read_request_bytes),
        );
        sleep_until(t_req).await;
        // Remote NIC samples its memory at request arrival.
        let data = mr.snapshot_remote(offset, len, t_req);
        // Response payload returns.
        let t_resp = net.schedule_transfer(self.remote.node, self.local.node, len as u64);
        sleep_until(t_resp + profile.op_overhead).await;
        Ok(data)
    }

    /// One-sided RDMA Write of `data` at `offset` in the remote region
    /// `rkey`. Completes at delivery; the remote CPU is not involved.
    ///
    /// # Errors
    ///
    /// Same as [`QueuePair::read`].
    pub async fn write(&self, rkey: u32, offset: usize, data: &[u8]) -> Result<(), RdmaError> {
        self.write_inner(rkey, offset, data, None).await
    }

    /// RDMA Write with Immediate Data: like [`QueuePair::write`], but also
    /// posts a [`Completion`] carrying `imm` to the remote completion
    /// queue at delivery time, waking event-driven receivers.
    ///
    /// # Errors
    ///
    /// Same as [`QueuePair::read`].
    pub async fn write_with_imm(
        &self,
        rkey: u32,
        offset: usize,
        data: &[u8],
        imm: u32,
    ) -> Result<(), RdmaError> {
        self.write_inner(rkey, offset, data, Some(imm)).await
    }

    async fn write_inner(
        &self,
        rkey: u32,
        offset: usize,
        data: &[u8],
        imm: Option<u32>,
    ) -> Result<(), RdmaError> {
        let mr = self.remote_mr(rkey, offset, data.len())?;
        let profile = self.local.profile;
        let t_sched =
            self.local
                .net
                .schedule_transfer(self.local.node, self.remote.node, data.len() as u64);
        // Faults apply only to message-bearing writes (those posted with
        // an immediate). Plain writes carry ring bookkeeping — wrap
        // markers and processed-head write-backs — that the RC transport
        // retransmits below the verbs API; no recovery protocol ever
        // observes their loss, so dropping them would wedge the ring in
        // a way real hardware cannot.
        let faults = if imm.is_some() {
            self.local.faults.borrow().clone()
        } else {
            None
        };
        let mut deliver_data = true;
        let mut deliver_completion = true;
        let mut duplicate_completion = false;
        let mut extra_delay = SimDuration::ZERO;
        if let Some(plan) = &faults {
            // The partition check short-circuits ahead of the
            // probabilistic draw, so scripted partition runs replay
            // identically whether or not loss is also configured.
            if plan.partitioned(t_sched) || plan.drop_write() {
                deliver_data = false;
                deliver_completion = false;
            } else {
                deliver_completion = !plan.drop_completion();
                duplicate_completion = deliver_completion && plan.duplicate_completion();
                if let Some(extra) = plan.write_delay() {
                    extra_delay = extra;
                }
            }
        }
        let t_del = t_sched + extra_delay;
        sleep_until(t_del).await;
        if deliver_data {
            mr.write_local(offset, data);
        }
        if let (Some(imm), true) = (imm, deliver_completion) {
            let completion = Completion {
                imm,
                byte_len: data.len() as u32,
                at: t_del,
            };
            self.peer_cq.push(completion);
            if duplicate_completion {
                self.peer_cq.push(completion);
            }
        }
        sleep_until(t_del + profile.op_overhead).await;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_simnet::{now, spawn, LinkSpec, Sim};

    fn setup(net: &Network) -> (Endpoint, Endpoint) {
        let spec = LinkSpec {
            bandwidth_bps: 100e9,
            latency: SimDuration::from_micros(1),
            per_message_overhead_bytes: 0,
        };
        let profile = RdmaProfile {
            op_overhead: SimDuration::ZERO,
            read_request_bytes: 0,
        };
        (
            Endpoint::new(net, net.add_node(spec), profile),
            Endpoint::new(net, net.add_node(spec), profile),
        )
    }

    #[test]
    fn read_round_trips_data() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let mr = MemoryRegion::new(128, 5);
            mr.write_local(64, &[1, 2, 3, 4]);
            b.register(mr);
            let (qa, _qb) = a.connect(&b);
            let data = qa.read(5, 64, 4).await.unwrap();
            assert_eq!(data, vec![1, 2, 3, 4]);
            // A read costs a full round trip: 2 x 1us latency (+ tx ~ 0).
            assert!(now().as_nanos() >= 2_000);
        });
    }

    #[test]
    fn write_is_one_way() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let mr = MemoryRegion::new(128, 5);
            b.register(mr.clone());
            let (qa, _qb) = a.connect(&b);
            qa.write(5, 0, &[9, 9]).await.unwrap();
            let mut buf = [0u8; 2];
            mr.read_local(0, &mut buf);
            assert_eq!(buf, [9, 9]);
            // One-way: ~1us, strictly less than a read's 2us.
            assert!(now().as_nanos() < 2_000, "write took {}", now());
        });
    }

    #[test]
    fn write_with_imm_wakes_event_waiter() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let mr = MemoryRegion::new(128, 5);
            b.register(mr);
            let (qa, qb) = a.connect(&b);
            let waiter = spawn(async move {
                let c = qb.recv_cq().wait().await;
                (c.imm, c.byte_len, now())
            });
            qa.write_with_imm(5, 0, &[1, 2, 3], 77).await.unwrap();
            let (imm, len, woke_at) = waiter.await;
            assert_eq!(imm, 77);
            assert_eq!(len, 3);
            assert_eq!(woke_at.as_nanos(), 1_000); // woken at delivery
        });
    }

    #[test]
    fn plain_write_does_not_signal() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let mr = MemoryRegion::new(128, 5);
            b.register(mr);
            let (qa, qb) = a.connect(&b);
            qa.write(5, 0, &[1]).await.unwrap();
            assert!(qb.recv_cq().try_poll().is_none());
        });
    }

    #[test]
    fn unknown_rkey_is_an_error() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let (qa, _qb) = a.connect(&b);
            assert_eq!(qa.read(9, 0, 4).await, Err(RdmaError::UnknownRkey(9)));
        });
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            b.register(MemoryRegion::new(16, 5));
            let (qa, _qb) = a.connect(&b);
            let err = qa.read(5, 8, 16).await.unwrap_err();
            assert_eq!(
                err,
                RdmaError::OutOfBounds {
                    offset: 8,
                    len: 16,
                    capacity: 16
                }
            );
        });
    }

    #[test]
    fn concurrent_reads_pipeline_on_the_wire() {
        // Multi-issue: two concurrent reads complete far sooner than two
        // sequential reads (their round trips overlap).
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            b.register(MemoryRegion::new(4096, 5));
            let (qa, _qb) = a.connect(&b);

            let t0 = now();
            let qa1 = qa.clone();
            let h1 = spawn(async move { qa1.read(5, 0, 1024).await.unwrap() });
            let qa2 = qa.clone();
            let h2 = spawn(async move { qa2.read(5, 1024, 1024).await.unwrap() });
            h1.await;
            h2.await;
            let concurrent = now() - t0;

            let t1 = now();
            qa.read(5, 0, 1024).await.unwrap();
            qa.read(5, 1024, 1024).await.unwrap();
            let sequential = now() - t1;

            assert!(
                concurrent.as_nanos() * 3 < sequential.as_nanos() * 2,
                "concurrent {concurrent} vs sequential {sequential}"
            );
        });
    }

    #[test]
    fn torn_remote_read_observed_during_write_window() {
        let sim = Sim::new();
        sim.run_until(async {
            let net = Network::new();
            let (a, b) = setup(&net);
            let mr = MemoryRegion::new(256, 5);
            mr.write_local(0, &[1u8; 256]);
            b.register(mr.clone());
            let (qa, _qb) = a.connect(&b);
            // Writer: start a torn write shortly before the read samples.
            spawn(async move {
                catfish_simnet::sleep(SimDuration::from_nanos(900)).await;
                mr.write_local_torn(0, &[2u8; 256], SimDuration::from_micros(1));
            });
            // Read request arrives at t=1us, inside the write window.
            let data = qa.read(5, 0, 256).await.unwrap();
            let new_bytes = data.iter().filter(|&&b| b == 2).count();
            let old_bytes = data.iter().filter(|&&b| b == 1).count();
            assert_eq!(new_bytes + old_bytes, 256);
            assert!(old_bytes > 0, "read inside window must see stale lines");
        });
    }
}
