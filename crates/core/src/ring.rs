//! The RDMA-Write ring buffer (paper Fig. 5).
//!
//! Each direction of a connection has a ring: a byte region registered at
//! the **receiver**, into which the sender places size-prefixed messages
//! with one-sided RDMA Writes. Two pointers govern the ring:
//!
//! * the **free pointer** (tail) — sender-local, where the next message
//!   goes;
//! * the **processed pointer** (head) — receiver-local; the receiver
//!   periodically RDMA-writes it back into a small cell registered at the
//!   *sender*, so the sender knows how much space has been reclaimed.
//!
//! Framing: `[len: u32][crc32: u32][payload][pad to 4]`. A zero length
//! word means "no message yet" (consumed regions are zeroed); `u32::MAX`
//! is the wrap marker telling the receiver to jump to offset 0. Messages
//! are delivered atomically by the simulated NIC, so a nonzero length
//! word implies a complete message — mirroring the real protocol where
//! the length word is written last / checked for stability. The CRC-32
//! (IEEE polynomial) covers the payload bytes: a frame whose stored
//! checksum disagrees with its contents is dropped and counted instead of
//! being decoded into garbage, so upper layers see a lost message (which
//! they already retry) rather than a corrupted one.
//!
//! Every send uses RDMA Write **with Immediate Data**, so a completion
//! lands in the receiver's CQ; polling receivers simply never block on it
//! (they re-check memory), while event-driven receivers wait on the CQ.
//!
//! ## Doorbell batching
//!
//! [`RingSender::send_batch`] appends several frames under **one** lock
//! acquisition and posts them with a **single** RDMA Write-with-Immediate:
//! one doorbell ring, one CQ entry, one receiver wakeup for the whole
//! group. The receiver needs no changes — frames stay individually
//! length-prefixed, and [`RingReceiver::try_pop`] consumes them one at a
//! time out of the contiguous region. Batches larger than the ring are
//! split into capacity-bounded posts.
//!
//! ## Loss recovery (resync)
//!
//! Under fault injection a Write-with-Immediate can be dropped in flight,
//! leaving a zeroed **hole** at the receiver's head while later frames
//! land beyond it — without recovery the stream wedges, because a zero
//! length word reads as "no message yet" forever. The receiver therefore
//! keeps a byte-level account of delivered-but-unpopped data: each
//! dequeued completion credits its `byte_len`, each popped frame debits
//! its framed size. When a wakeup finds the account positive but the head
//! frame absent, [`RingReceiver::resync`] scans forward for the next
//! CRC-valid frame (or wrap marker) and skips the hole, surfacing the
//! loss as counters instead of a hang. Fault-free, the account never goes
//! positive without a poppable frame, so the scan never runs and the
//! happy path is untouched.

use std::cell::{Cell, RefCell};
use std::pin::pin;
use std::rc::Rc;

use catfish_rdma::{crc32, CompletionQueue, MemoryRegion, QueuePair};
use catfish_simnet::sync::Semaphore;
use catfish_simnet::{select2, sleep, Either, SimDuration, SimTime};

use crate::obs::{Anomaly, FlightRecorder, Phase, TraceSink};

/// Length word marking a wrap to offset 0.
const WRAP_MARKER: u32 = u32::MAX;
/// Initial sender backoff while the ring is full.
const FULL_RETRY: SimDuration = SimDuration::from_micros(2);
/// Ceiling for the full-ring backoff (doubles from [`FULL_RETRY`]).
const FULL_RETRY_CAP: SimDuration = SimDuration::from_micros(512);
/// Cumulative full-ring wait after which a send gives up with
/// [`SendError::Timeout`] instead of spinning forever.
const SEND_GIVE_UP: SimDuration = SimDuration::from_millis(50);

fn padded(len: usize) -> u64 {
    ((len + 3) & !3) as u64
}

/// Framed size of a payload: `[len][crc32]` header plus padded payload.
fn framed(len: usize) -> u64 {
    8 + padded(len)
}

/// Why a ring send did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The receiving peer departed ([`RingLiveness::close`]); the message
    /// was dropped without touching the wire.
    Closed,
    /// The ring stayed full past the give-up deadline (the receiver is
    /// wedged or has silently died without closing the connection).
    Timeout,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed => write!(f, "ring peer departed"),
            SendError::Timeout => write!(f, "ring stayed full past the send deadline"),
        }
    }
}

impl std::error::Error for SendError {}

struct SenderShared {
    qp: QueuePair,
    ring_rkey: u32,
    capacity: u64,
    tail: Cell<u64>,
    /// Local cell the receiver RDMA-writes its head counter into.
    processed_cell: MemoryRegion,
    lock: Semaphore,
    /// Set when the receiving peer departs; senders drop messages instead
    /// of writing into a ring nobody will ever drain.
    closed: Rc<Cell<bool>>,
    /// Span sink + phase each send is attributed to (None: untraced).
    trace: RefCell<Option<(TraceSink, Phase)>>,
}

/// A handle that marks a ring direction's receiver as departed. Cloned
/// from [`RingSender::liveness`] and handed to whoever tears the
/// connection down (in a real deployment, the QP error event).
#[derive(Clone)]
pub struct RingLiveness {
    closed: Rc<Cell<bool>>,
}

impl std::fmt::Debug for RingLiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingLiveness")
            .field("closed", &self.closed.get())
            .finish()
    }
}

impl RingLiveness {
    /// Marks the peer as departed. All future sends through the matching
    /// [`RingSender`] return [`SendError::Closed`] without touching the
    /// wire.
    pub fn close(&self) {
        self.closed.set(true);
    }

    /// Whether the peer has departed.
    pub fn is_closed(&self) -> bool {
        self.closed.get()
    }
}

/// The sending half of one ring direction. Cloneable; clones share the
/// tail pointer and serialize their appends.
#[derive(Clone)]
pub struct RingSender {
    shared: Rc<SenderShared>,
}

impl std::fmt::Debug for RingSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSender")
            .field("tail", &self.shared.tail.get())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl RingSender {
    /// Creates a sender writing into the remote ring `ring_rkey` of
    /// `capacity` bytes through `qp`. `processed_cell` is the local 8-byte
    /// region the receiver writes its head counter into.
    ///
    /// # Panics
    ///
    /// Panics if capacity is not a positive multiple of 4 or the cell is
    /// smaller than 8 bytes.
    pub fn new(
        qp: QueuePair,
        ring_rkey: u32,
        capacity: usize,
        processed_cell: MemoryRegion,
    ) -> Self {
        assert!(
            capacity >= 16 && capacity.is_multiple_of(4),
            "ring capacity must be a positive multiple of 4"
        );
        assert!(processed_cell.len() >= 8, "processed cell needs 8 bytes");
        RingSender {
            shared: Rc::new(SenderShared {
                qp,
                ring_rkey,
                capacity: capacity as u64,
                tail: Cell::new(0),
                processed_cell,
                lock: Semaphore::new(1),
                closed: Rc::new(Cell::new(false)),
                trace: RefCell::new(None),
            }),
        }
    }

    /// The rkey of the remote ring this sender writes into — with a
    /// request's sequence number, the request's name on the connection.
    pub fn ring_rkey(&self) -> u32 {
        self.shared.ring_rkey
    }

    /// Attributes each send's elapsed virtual time — lock wait, ring
    /// reservation (including full-ring backpressure), and the doorbell
    /// write through to remote delivery — to `phase` in `sink`.
    pub fn set_trace(&self, sink: TraceSink, phase: Phase) {
        *self.shared.trace.borrow_mut() = Some((sink, phase));
    }

    fn span_begin(&self) -> Option<(TraceSink, Phase, crate::obs::SpanStart)> {
        self.shared
            .trace
            .borrow()
            .as_ref()
            .map(|(s, p)| (s.clone(), *p, s.begin()))
    }

    /// A handle for marking this direction's receiver as departed.
    pub fn liveness(&self) -> RingLiveness {
        RingLiveness {
            closed: Rc::clone(&self.shared.closed),
        }
    }

    /// Whether the receiving peer has departed ([`RingLiveness::close`]).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.get()
    }

    fn processed(&self) -> u64 {
        let mut b = [0u8; 8];
        self.shared.processed_cell.read_local(0, &mut b);
        u64::from_le_bytes(b)
    }

    /// Builds the framed wire image of `payload`: length word, payload
    /// CRC, payload bytes, zero padding to a 4-byte boundary. If a fault
    /// plan is attached to the local endpoint, a payload byte may be
    /// flipped *after* the checksum is computed — modeling in-flight
    /// corruption that the receiver's CRC check must catch.
    fn frame(&self, payload: &[u8]) -> Vec<u8> {
        let total = framed(payload.len()) as usize;
        let mut frame = Vec::with_capacity(total);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.resize(total, 0);
        if !payload.is_empty() {
            if let Some(plan) = self.shared.qp.fault_plan() {
                if let Some((at, mask)) = plan.corrupt_frame(payload.len()) {
                    frame[8 + at] ^= mask;
                }
            }
        }
        frame
    }

    /// Appends `payload` to the remote ring, waiting (with capped
    /// exponential backoff) while the ring is full. The immediate value
    /// `imm` is delivered with the completion.
    ///
    /// Concurrent senders are serialized FIFO under the append lock, and
    /// each posts its own Write-with-Immediate; message boundaries are
    /// always preserved. To share one doorbell among several frames, use
    /// [`RingSender::send_batch`]. Returns [`SendError::Closed`] (dropping
    /// the message) if the peer has departed, and [`SendError::Timeout`]
    /// if the ring stays full past the give-up deadline.
    ///
    /// # Panics
    ///
    /// Panics if the framed message cannot ever fit the ring.
    pub async fn send(&self, payload: &[u8], imm: u32) -> Result<(), SendError> {
        let s = &*self.shared;
        let total = framed(payload.len());
        assert!(
            total + 8 <= s.capacity,
            "message of {} bytes cannot fit a {}-byte ring",
            payload.len(),
            s.capacity
        );
        if s.closed.get() {
            return Err(SendError::Closed);
        }
        let span = self.span_begin();
        let res = {
            let _guard = s.lock.acquire().await;
            let frame = self.frame(payload);
            self.post(&frame, imm).await
        };
        if let Some((sink, phase, start)) = span {
            sink.end(phase, start);
        }
        res
    }

    /// Appends every payload in `payloads` to the remote ring and rings
    /// the doorbell **once** per capacity-bounded group: the frames are
    /// written contiguously by a single RDMA Write-with-Immediate, so the
    /// receiver sees one completion (one wakeup) for the whole batch.
    ///
    /// Returns the number of doorbells posted (0 for an empty batch,
    /// 1 for a batch that fits the ring in one group, more only when the
    /// combined frames exceed the ring and the batch is split), or the
    /// first [`SendError`] hit — groups posted before the error stay
    /// delivered.
    ///
    /// # Panics
    ///
    /// Panics if any single framed message cannot ever fit the ring.
    pub async fn send_batch(&self, payloads: &[Vec<u8>], imm: u32) -> Result<usize, SendError> {
        let s = &*self.shared;
        // Cap multi-frame groups at half the ring: a wrapped reservation
        // consumes `to_end + total` bytes of budget, which is only
        // guaranteed satisfiable (once the receiver fully drains) for
        // totals up to capacity / 2. A lone frame may exceed the cap —
        // it forms its own group, matching `send`'s size contract.
        let group_cap = s.capacity / 2;
        if s.closed.get() {
            return Err(SendError::Closed);
        }
        let span = self.span_begin();
        let _guard = s.lock.acquire().await;
        let mut doorbells = 0usize;
        let mut group: Vec<u8> = Vec::new();
        let mut res = Ok(());
        for payload in payloads {
            let total = framed(payload.len());
            assert!(
                total + 8 <= s.capacity,
                "message of {} bytes cannot fit a {}-byte ring",
                payload.len(),
                s.capacity
            );
            if !group.is_empty() && group.len() as u64 + total > group_cap {
                if let Err(e) = self.post(&group, imm).await {
                    res = Err(e);
                    break;
                }
                doorbells += 1;
                group.clear();
            }
            group.extend_from_slice(&self.frame(payload));
        }
        if res.is_ok() && !group.is_empty() {
            match self.post(&group, imm).await {
                Ok(()) => doorbells += 1,
                Err(e) => res = Err(e),
            }
        }
        if let Some((sink, phase, start)) = span {
            sink.end(phase, start);
        }
        res.map(|()| doorbells)
    }

    /// Reserves `frame.len()` contiguous bytes (wrapping if needed) and
    /// posts them with one Write-with-Immediate. Caller holds the lock;
    /// `frame` is already length-prefixed and padded.
    ///
    /// While the ring is full the reservation retries with exponential
    /// backoff (starting at [`FULL_RETRY`], capped at [`FULL_RETRY_CAP`]);
    /// once the cumulative wait exceeds [`SEND_GIVE_UP`] the send fails
    /// with [`SendError::Timeout`] instead of spinning forever. A peer
    /// departure observed mid-wait fails with [`SendError::Closed`].
    async fn post(&self, frame: &[u8], imm: u32) -> Result<(), SendError> {
        let s = &*self.shared;
        let total = frame.len() as u64;
        let mut backoff = FULL_RETRY;
        let mut waited = SimDuration::ZERO;
        // Reserve space (wait for the receiver to reclaim if needed).
        let (write_at, skip) = loop {
            if s.closed.get() {
                return Err(SendError::Closed);
            }
            let tail = s.tail.get();
            let pos = tail % s.capacity;
            let to_end = s.capacity - pos;
            let (needed, write_at, skip) = if total <= to_end {
                (total, pos, 0)
            } else {
                (to_end + total, 0, to_end)
            };
            let free = s.capacity - (tail - self.processed());
            if free >= needed {
                s.tail.set(tail + skip + total);
                break (write_at, if skip > 0 { Some(pos) } else { None });
            }
            if waited >= SEND_GIVE_UP {
                return Err(SendError::Timeout);
            }
            sleep(backoff).await;
            waited += backoff;
            let doubled = backoff.as_nanos().saturating_mul(2);
            backoff = SimDuration::from_nanos(doubled.min(FULL_RETRY_CAP.as_nanos()));
        };
        if let Some(marker_pos) = skip {
            s.qp.write(s.ring_rkey, marker_pos as usize, &WRAP_MARKER.to_le_bytes())
                .await
                .expect("ring region registered");
        }
        s.qp.write_with_imm(s.ring_rkey, write_at as usize, frame, imm)
            .await
            .expect("ring region registered");
        Ok(())
    }
}

struct ReceiverShared {
    /// The ring storage, local to this side.
    ring: MemoryRegion,
    capacity: u64,
    head: Cell<u64>,
    consumed_since_writeback: Cell<u64>,
    /// Written back into the sender's processed cell.
    qp: QueuePair,
    cell_rkey: u32,
    cq: CompletionQueue,
    /// Byte-level delivery account: completions credit their `byte_len`,
    /// popped frames debit their framed size. Positive with no poppable
    /// frame ⇒ a delivered frame is stranded beyond a hole (lost write)
    /// and a [`RingReceiver::resync`] scan is warranted. Signed because
    /// a dropped *completion* makes frames poppable without a credit.
    pending_delivered: Cell<i64>,
    /// Frames whose stored CRC disagreed with their payload (dropped).
    checksum_failures: Cell<u64>,
    /// Holes skipped by [`RingReceiver::resync`].
    resyncs: Cell<u64>,
    /// Flight recorder receiving integrity anomalies (CRC failures,
    /// resyncs) — always compiled, `None` until a client attaches one.
    flight: RefCell<Option<FlightRecorder>>,
    /// Span sink + phase queue-time is attributed to (None: untraced).
    trace: RefCell<Option<(TraceSink, Phase)>>,
    /// Delivery instant of the completion the receiver last woke on,
    /// consumed by the next successful `try_pop` to measure queue time.
    pending_at: Cell<Option<SimTime>>,
}

/// The receiving half of one ring direction.
#[derive(Clone)]
pub struct RingReceiver {
    shared: Rc<ReceiverShared>,
}

impl std::fmt::Debug for RingReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingReceiver")
            .field("head", &self.shared.head.get())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl RingReceiver {
    /// Creates a receiver draining the local `ring` region, writing its
    /// head counter back through `qp` into the sender's `cell_rkey`
    /// region, and (in event mode) waiting on `cq`.
    pub fn new(ring: MemoryRegion, qp: QueuePair, cell_rkey: u32, cq: CompletionQueue) -> Self {
        let capacity = ring.len() as u64;
        RingReceiver {
            shared: Rc::new(ReceiverShared {
                ring,
                capacity,
                head: Cell::new(0),
                consumed_since_writeback: Cell::new(0),
                qp,
                cell_rkey,
                cq,
                pending_delivered: Cell::new(0),
                checksum_failures: Cell::new(0),
                resyncs: Cell::new(0),
                flight: RefCell::new(None),
                trace: RefCell::new(None),
                pending_at: Cell::new(None),
            }),
        }
    }

    /// The rkey of the local ring this receiver drains (the sender's
    /// [`RingSender::ring_rkey`]).
    pub fn ring_rkey(&self) -> u32 {
        self.shared.ring.rkey()
    }

    /// Attributes each delivered doorbell's queue time — NIC delivery
    /// instant (`Completion.at`) to the pop that retrieves it — to
    /// `phase` in `sink`. One span per doorbell, so a batched group of
    /// frames counts once.
    pub fn set_trace(&self, sink: TraceSink, phase: Phase) {
        *self.shared.trace.borrow_mut() = Some((sink, phase));
    }

    /// Attaches a flight recorder: CRC failures and hole resyncs fire
    /// [`Anomaly`] dumps into it, annotating the connection's recent
    /// protocol history at the moment the integrity event hit.
    pub fn set_flight(&self, recorder: FlightRecorder) {
        *self.shared.flight.borrow_mut() = Some(recorder);
    }

    fn flight_anomaly(&self, anomaly: Anomaly) {
        if let Some(rec) = self.shared.flight.borrow().as_ref() {
            rec.anomaly(anomaly);
        }
    }

    /// Frames dropped because their stored CRC disagreed with the payload.
    pub fn checksum_failures(&self) -> u64 {
        self.shared.checksum_failures.get()
    }

    /// Holes (lost writes) skipped by [`RingReceiver::resync`].
    pub fn resyncs(&self) -> u64 {
        self.shared.resyncs.get()
    }

    fn credit_pending(&self, byte_len: u32) {
        let s = &*self.shared;
        s.pending_delivered
            .set(s.pending_delivered.get() + byte_len as i64);
    }

    fn debit_pending(&self, bytes: u64) {
        let s = &*self.shared;
        let v = s.pending_delivered.get() - bytes as i64;
        // A dropped completion lets frames become poppable without a
        // credit, skewing the account negative; once the CQ is drained
        // the balance is provably zero, so repair it. Fault-free, every
        // poppable frame's completion is dequeued first and this clamp
        // never fires.
        s.pending_delivered
            .set(if v < 0 && s.cq.is_empty() { 0 } else { v });
    }

    /// Records queue time for a successful pop: prefers the delivery
    /// instant stashed by the event wait, else drains one completion from
    /// the CQ (the pure-polling path). When several doorbells are queued
    /// the completion popped may belong to an earlier doorbell than the
    /// frame — queue-time attribution is approximate under backlog.
    fn note_arrival(&self) {
        let s = &*self.shared;
        let trace = s.trace.borrow();
        let Some((sink, phase)) = trace.as_ref() else {
            return;
        };
        let delivered = s.pending_at.take().or_else(|| {
            s.cq.try_poll().map(|c| {
                self.credit_pending(c.byte_len);
                c.at
            })
        });
        if let Some(at) = delivered {
            let now = catfish_simnet::try_now().unwrap_or(at);
            sink.record(*phase, now.saturating_duration_since(at));
        }
    }

    /// Takes the next complete message if one is present (the polling
    /// path: a memory check, no blocking). A frame failing its CRC check
    /// is dropped (counted in [`RingReceiver::checksum_failures`]) and
    /// the scan continues with the next frame.
    pub fn try_pop(&self) -> Option<Vec<u8>> {
        self.try_pop_map(|payload| payload.to_vec())
    }

    /// Zero-copy variant of [`RingReceiver::try_pop`]: instead of copying
    /// the payload out, lends `f` the payload bytes **in place** in the
    /// registered ring region (after the CRC check passes), then zeroes
    /// and consumes the frame. `f` runs synchronously while the region is
    /// borrowed, so it must not touch this ring — decode the frame to an
    /// owned message and return it.
    ///
    /// Returns `None` when no frame is resident; CRC-failing frames are
    /// dropped and counted exactly as in `try_pop`.
    pub fn try_pop_map<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let s = &*self.shared;
        // Find a CRC-valid frame at the head (skipping wrap markers and
        // corrupt frames), then call `f` exactly once outside the loop.
        let (head, pos, len, total) = loop {
            let head = s.head.get();
            let pos = (head % s.capacity) as usize;
            let mut len_b = [0u8; 4];
            s.ring.read_local(pos, &mut len_b);
            let len = u32::from_le_bytes(len_b);
            if len == 0 {
                return None;
            }
            if len == WRAP_MARKER {
                // Zero the marker and jump to offset 0.
                s.ring.write_local(pos, &[0u8; 4]);
                let to_end = s.capacity - pos as u64;
                self.consume(head, to_end);
                continue;
            }
            let total = framed(len as usize);
            let mut crc_b = [0u8; 4];
            s.ring.read_local(pos + 4, &mut crc_b);
            let stored_crc = u32::from_le_bytes(crc_b);
            let ok = s.ring.with_slice(pos + 8, len as usize, |payload| {
                crc32(payload) == stored_crc
            });
            if !ok {
                // Zero the consumed frame so stale bytes never parse as a
                // message after wrap-around.
                s.ring.zero_local(pos, total as usize);
                self.consume(head, total);
                self.debit_pending(total);
                s.checksum_failures.set(s.checksum_failures.get() + 1);
                self.flight_anomaly(Anomaly::ChecksumFailure);
                continue;
            }
            break (head, pos, len, total);
        };
        let result = s.ring.with_slice(pos + 8, len as usize, f);
        s.ring.zero_local(pos, total as usize);
        self.consume(head, total);
        self.debit_pending(total);
        self.note_arrival();
        Some(result)
    }

    fn consume(&self, head: u64, bytes: u64) {
        let s = &*self.shared;
        s.head.set(head + bytes);
        let consumed = s.consumed_since_writeback.get() + bytes;
        if consumed >= s.capacity / 8 {
            self.write_back();
        } else {
            s.consumed_since_writeback.set(consumed);
        }
    }

    /// Posts the current head into the sender's processed cell and resets
    /// the lazy-write-back counter.
    fn write_back(&self) {
        let s = &*self.shared;
        s.consumed_since_writeback.set(0);
        let qp = s.qp.clone();
        let rkey = s.cell_rkey;
        let new_head = s.head.get();
        catfish_simnet::spawn(async move {
            qp.write(rkey, 0, &new_head.to_le_bytes())
                .await
                .expect("processed cell registered");
        });
    }

    /// Flushes any deferred head write-back. Called before the receiver
    /// blocks: while busy the head is published lazily (every capacity/8
    /// consumed bytes) to save RDMA writes, but an idle receiver holding
    /// back up to capacity/8 unacknowledged bytes would starve a sender
    /// waiting on a large (wrapping) reservation forever.
    fn flush_writeback(&self) {
        if self.shared.consumed_since_writeback.get() > 0 {
            self.write_back();
        }
    }

    /// Whether a CRC-valid frame starts at `off` in the ring snapshot.
    fn frame_valid_at(buf: &[u8], off: usize) -> bool {
        if off + 8 > buf.len() {
            return false;
        }
        let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
        if len == 0 || len == WRAP_MARKER {
            return false;
        }
        let total = framed(len as usize) as usize;
        if off + total > buf.len() {
            return false;
        }
        let stored = u32::from_le_bytes([buf[off + 4], buf[off + 5], buf[off + 6], buf[off + 7]]);
        crc32(&buf[off + 8..off + 8 + len as usize]) == stored
    }

    /// Skips past a hole left by a lost RDMA Write: scans forward from
    /// the head for the next CRC-valid frame (or the wrap marker — wrap
    /// markers ride plain Writes the RC transport retries below the verbs
    /// API, so they always land) and advances the head to it, reclaiming
    /// the lost region for the sender. Returns `true` if the head moved
    /// (a subsequent [`RingReceiver::try_pop`] will find the frame).
    ///
    /// Only scans while the delivery account says a delivered frame is
    /// stranded (`pending_delivered > 0`); a fruitless scan zeroes the
    /// account, bounding repeat scans when duplicate completions inflate
    /// it. A random payload passing the CRC check and masquerading as a
    /// frame boundary has probability ~2⁻³², which this sim accepts —
    /// the real protocol would carry a stronger end-to-end checksum.
    pub fn resync(&self) -> bool {
        let s = &*self.shared;
        if s.pending_delivered.get() <= 0 {
            return false;
        }
        let cap = s.capacity as usize;
        let mut buf = vec![0u8; cap];
        s.ring.read_local(0, &mut buf);
        let head = s.head.get();
        let pos = (head % s.capacity) as usize;
        let mut off = pos + 4;
        while off + 4 <= cap {
            let word = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            if word == WRAP_MARKER {
                // The hole ends at the wrap: accept if offset 0 holds the
                // next frame (or is still empty — another hole, which the
                // next resync handles from there).
                let first = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
                if Self::frame_valid_at(&buf, 0) || first == 0 {
                    return self.skip_hole(head, (off - pos) as u64);
                }
            } else if word != 0 && Self::frame_valid_at(&buf, off) {
                return self.skip_hole(head, (off - pos) as u64);
            }
            off += 4;
        }
        // No recoverable frame beyond the head: nothing was stranded
        // after all (duplicate completions inflate the account).
        s.pending_delivered.set(0);
        false
    }

    /// Advances the head past `bytes` of lost (zeroed) ring without
    /// debiting the delivery account — the lost frame's completion was
    /// dropped with it, so it never credited the account.
    fn skip_hole(&self, head: u64, bytes: u64) -> bool {
        let s = &*self.shared;
        s.resyncs.set(s.resyncs.get() + 1);
        self.flight_anomaly(Anomaly::Resync);
        self.consume(head, bytes);
        true
    }

    /// Waits (event-driven, off-CPU) for the next message.
    pub async fn wait_message(&self) -> Vec<u8> {
        self.wait_message_map(|payload| payload.to_vec()).await
    }

    /// Zero-copy variant of [`RingReceiver::wait_message`]: the first
    /// resident frame is lent to `f` in place (see
    /// [`RingReceiver::try_pop_map`]) and `f`'s result returned.
    pub async fn wait_message_map<R>(&self, mut f: impl FnMut(&[u8]) -> R) -> R {
        let mut woke = false;
        loop {
            if let Some(r) = self.try_pop_map(&mut f) {
                return r;
            }
            // Woken by a completion yet nothing poppable: if the account
            // says a frame is stranded beyond a hole, skip the hole.
            // Every path below reassigns `woke` before the next check.
            if woke && self.resync() {
                continue;
            }
            self.flush_writeback();
            let completion = self.shared.cq.wait().await;
            self.credit_pending(completion.byte_len);
            woke = true;
            self.shared.pending_at.set(Some(completion.at));
        }
    }

    /// Waits for the next message, giving up at `deadline` (used by the
    /// polling server to bound a scheduling turn).
    pub async fn wait_message_until(&self, deadline: SimTime) -> Option<Vec<u8>> {
        self.wait_message_until_map(deadline, |payload| payload.to_vec())
            .await
    }

    /// Zero-copy variant of [`RingReceiver::wait_message_until`].
    pub async fn wait_message_until_map<R>(
        &self,
        deadline: SimTime,
        mut f: impl FnMut(&[u8]) -> R,
    ) -> Option<R> {
        let mut woke = false;
        loop {
            if let Some(r) = self.try_pop_map(&mut f) {
                return Some(r);
            }
            // Every path below reassigns `woke` or returns.
            if woke && self.resync() {
                continue;
            }
            if catfish_simnet::now() >= deadline {
                return None;
            }
            self.flush_writeback();
            let wait = pin!(self.shared.cq.wait());
            let timer = pin!(catfish_simnet::sleep_until(deadline));
            match select2(wait, timer).await {
                Either::Left(completion) => {
                    self.credit_pending(completion.byte_len);
                    woke = true;
                    self.shared.pending_at.set(Some(completion.at));
                    continue;
                }
                Either::Right(()) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_rdma::{Endpoint, FaultConfig, FaultPlan, RdmaProfile};
    use catfish_simnet::{now, spawn, LinkSpec, Network, Sim};

    struct Rig {
        tx: RingSender,
        rx: RingReceiver,
        sender_ep: Endpoint,
    }

    fn build_ring(capacity: usize) -> Rig {
        let net = Network::new();
        let spec = LinkSpec {
            bandwidth_bps: 100e9,
            latency: SimDuration::from_micros(1),
            per_message_overhead_bytes: 0,
        };
        let sender_ep = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
        let recv_ep = Endpoint::new(&net, net.add_node(spec), RdmaProfile::default());
        let ring = MemoryRegion::new(capacity, 1);
        recv_ep.register(ring.clone());
        let cell = MemoryRegion::new(8, 2);
        sender_ep.register(cell.clone());
        let (send_qp, recv_qp) = sender_ep.connect(&recv_ep);
        let cq = recv_qp.recv_cq().clone();
        Rig {
            tx: RingSender::new(send_qp, 1, capacity, cell),
            rx: RingReceiver::new(ring, recv_qp, 2, cq),
            sender_ep,
        }
    }

    #[test]
    fn single_message_round_trip() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            rig.tx.send(b"hello ring", 0).await.unwrap();
            assert_eq!(rig.rx.try_pop(), Some(b"hello ring".to_vec()));
            assert_eq!(rig.rx.try_pop(), None);
        });
    }

    #[test]
    fn try_pop_map_lends_payload_in_place() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            rig.tx.send(b"zero copy", 0).await.unwrap();
            rig.tx.send(b"second", 0).await.unwrap();
            // The closure observes the payload bytes and returns a decode.
            let len = rig.rx.try_pop_map(|p| {
                assert_eq!(p, b"zero copy");
                p.len()
            });
            assert_eq!(len, Some(9));
            // Frame consumption matches try_pop: the next frame follows.
            assert_eq!(rig.rx.try_pop(), Some(b"second".to_vec()));
            assert_eq!(rig.rx.try_pop_map(|p| p.len()), None);
        });
    }

    #[test]
    fn wait_message_map_decodes_in_place() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            let rx = rig.rx.clone();
            let h = spawn(async move { rx.wait_message_map(|p| p[0] as u64 + 1).await });
            catfish_simnet::sleep(SimDuration::from_micros(5)).await;
            rig.tx.send(&[41u8, 0, 0], 0).await.unwrap();
            assert_eq!(h.await, 42);
        });
    }

    #[test]
    fn messages_preserve_order_and_boundaries() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            for i in 0..20u8 {
                rig.tx
                    .send(&vec![i; (i as usize % 7) + 1], 0)
                    .await
                    .unwrap();
            }
            for i in 0..20u8 {
                let m = rig.rx.try_pop().expect("message present");
                assert_eq!(m, vec![i; (i as usize % 7) + 1]);
            }
        });
    }

    #[test]
    fn event_wait_wakes_on_arrival() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            let rx = rig.rx.clone();
            let h = spawn(async move {
                let m = rx.wait_message().await;
                (m, now())
            });
            catfish_simnet::sleep(SimDuration::from_micros(50)).await;
            rig.tx.send(b"wake", 7).await.unwrap();
            let (m, at) = h.await;
            assert_eq!(m, b"wake".to_vec());
            // Arrived at 50us (send time) + ~1us wire latency.
            assert!(at >= SimTime::from_nanos(51_000) && at < SimTime::from_nanos(53_000));
        });
    }

    #[test]
    fn wait_until_times_out() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            let deadline = now() + SimDuration::from_micros(10);
            let got = rig.rx.wait_message_until(deadline).await;
            assert_eq!(got, None);
            assert_eq!(now(), deadline);
        });
    }

    #[test]
    fn wrap_around_preserves_stream() {
        let sim = Sim::new();
        sim.run_until(async {
            // Ring of 128 bytes; 24-byte payloads (32 framed): wraps often.
            let rig = build_ring(128);
            let rx = rig.rx.clone();
            let consumer = spawn(async move {
                let mut got = Vec::new();
                for _ in 0..50 {
                    let m = rx.wait_message().await;
                    got.push(m[0]);
                }
                got
            });
            for i in 0..50u8 {
                rig.tx.send(&[i; 24], 0).await.unwrap();
            }
            let got = consumer.await;
            assert_eq!(got, (0..50).collect::<Vec<u8>>());
        });
    }

    #[test]
    fn backpressure_blocks_until_reclaimed() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(64);
            // 20-byte payloads frame to 28 bytes; two fit, third must wait.
            rig.tx.send(&[1u8; 20], 0).await.unwrap();
            rig.tx.send(&[2u8; 20], 0).await.unwrap();
            let tx = rig.tx.clone();
            let t0 = now();
            let blocked = spawn(async move {
                tx.send(&[3u8; 20], 0).await.unwrap();
                now()
            });
            // Give the blocked sender time to be truly stuck.
            catfish_simnet::sleep(SimDuration::from_micros(100)).await;
            // Drain everything: frees space and writes the head back.
            assert!(rig.rx.try_pop().is_some());
            assert!(rig.rx.try_pop().is_some());
            let sent_at = blocked.await;
            assert!(sent_at - t0 >= SimDuration::from_micros(100));
            // Third message eventually arrives.
            let m = rig.rx.wait_message().await;
            assert_eq!(m, vec![3u8; 20]);
        });
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(8192);
            let mut handles = Vec::new();
            for sender in 0..4u8 {
                let tx = rig.tx.clone();
                handles.push(spawn(async move {
                    for i in 0..25u8 {
                        let mut payload = vec![sender; 16];
                        payload[1] = i;
                        tx.send(&payload, 0).await.unwrap();
                    }
                }));
            }
            let rx = rig.rx.clone();
            let consumer = spawn(async move {
                let mut per_sender = [0u8; 4];
                for _ in 0..100 {
                    let m = rx.wait_message().await;
                    assert_eq!(m.len(), 16);
                    let s = m[0] as usize;
                    // Per-sender messages arrive in order.
                    assert_eq!(m[1], per_sender[s]);
                    per_sender[s] += 1;
                    // Frame integrity: all remaining bytes match sender id.
                    assert!(m[2..].iter().all(|&b| b == m[0]));
                }
                per_sender
            });
            for h in handles {
                h.await;
            }
            assert_eq!(consumer.await, [25, 25, 25, 25]);
        });
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_message_rejected() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(64);
            let _ = rig.tx.send(&[0u8; 100], 0).await;
        });
    }

    #[test]
    fn send_batch_posts_one_doorbell_for_all_frames() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize]).collect();
            let doorbells = rig.tx.send_batch(&payloads, 3).await.unwrap();
            assert_eq!(doorbells, 1, "batch fits the ring in one post");
            for want in &payloads {
                assert_eq!(rig.rx.try_pop().as_ref(), Some(want));
            }
            assert_eq!(rig.rx.try_pop(), None);
        });
    }

    #[test]
    fn send_batch_single_wakeup_delivers_whole_group() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            let rx = rig.rx.clone();
            let consumer = spawn(async move {
                // One blocking wait (one completion), then the rest of the
                // group is already resident.
                let first = rx.wait_message().await;
                let mut rest = Vec::new();
                while let Some(m) = rx.try_pop() {
                    rest.push(m);
                }
                (first, rest)
            });
            catfish_simnet::sleep(SimDuration::from_micros(10)).await;
            rig.tx
                .send_batch(&[b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()], 0)
                .await
                .unwrap();
            let (first, rest) = consumer.await;
            assert_eq!(first, b"a".to_vec());
            assert_eq!(rest, vec![b"bb".to_vec(), b"ccc".to_vec()]);
        });
    }

    #[test]
    fn send_batch_larger_than_ring_splits_and_delivers() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(128);
            let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 24]).collect();
            let rx = rig.rx.clone();
            let consumer = spawn(async move {
                let mut got = Vec::new();
                for _ in 0..10 {
                    got.push(rx.wait_message().await[0]);
                }
                got
            });
            let doorbells = rig.tx.send_batch(&payloads, 0).await.unwrap();
            assert!(
                doorbells > 1,
                "320 framed bytes cannot fit one 128-byte post"
            );
            assert_eq!(consumer.await, (0..10).collect::<Vec<u8>>());
        });
    }

    #[test]
    fn closed_sender_drops_messages() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            assert!(!rig.tx.is_closed());
            assert!(rig.tx.send(b"before", 0).await.is_ok());
            rig.tx.liveness().close();
            assert!(rig.tx.is_closed());
            assert_eq!(rig.tx.send(b"after", 0).await, Err(SendError::Closed));
            assert_eq!(
                rig.tx.send_batch(&[b"x".to_vec()], 0).await,
                Err(SendError::Closed)
            );
            assert_eq!(rig.rx.try_pop(), Some(b"before".to_vec()));
            assert_eq!(rig.rx.try_pop(), None);
        });
    }

    #[test]
    fn corrupt_frame_is_dropped_and_stream_continues() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            // Corrupt every frame while the plan is attached.
            let cfg = FaultConfig {
                corrupt: 1.0,
                ..FaultConfig::off()
            };
            rig.sender_ep.set_fault_plan(Some(FaultPlan::new(cfg, 7)));
            for i in 0..3u8 {
                rig.tx.send(&[i; 16], 0).await.unwrap();
            }
            // Clean sends after the plan is removed.
            rig.sender_ep.set_fault_plan(None);
            rig.tx.send(b"clean", 9).await.unwrap();
            // The corrupt frames are silently dropped; the clean one pops.
            assert_eq!(rig.rx.try_pop(), Some(b"clean".to_vec()));
            assert_eq!(rig.rx.try_pop(), None);
            assert_eq!(rig.rx.checksum_failures(), 3);
            assert_eq!(rig.rx.resyncs(), 0);
        });
    }

    #[test]
    fn dropped_write_resyncs_to_next_frame() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(4096);
            // First frame (and its completion) vanish in flight.
            let cfg = FaultConfig {
                drop_write: 1.0,
                ..FaultConfig::off()
            };
            rig.sender_ep.set_fault_plan(Some(FaultPlan::new(cfg, 11)));
            rig.tx.send(&[0xAB; 32], 1).await.unwrap();
            rig.sender_ep.set_fault_plan(None);
            // Second frame lands beyond the hole; its completion wakes
            // the receiver, which must skip the hole to reach it.
            rig.tx.send(b"survivor", 2).await.unwrap();
            let m = rig.rx.wait_message().await;
            assert_eq!(m, b"survivor".to_vec());
            assert_eq!(rig.rx.resyncs(), 1);
            assert_eq!(rig.rx.checksum_failures(), 0);
        });
    }

    #[test]
    fn full_ring_send_gives_up_with_timeout() {
        let sim = Sim::new();
        sim.run_until(async {
            let rig = build_ring(64);
            rig.tx.send(&[1u8; 20], 0).await.unwrap();
            rig.tx.send(&[2u8; 20], 0).await.unwrap();
            // Nobody drains: the third send must give up, not spin forever.
            let t0 = now();
            let res = rig.tx.send(&[3u8; 20], 0).await;
            assert_eq!(res, Err(SendError::Timeout));
            assert!(now() - t0 >= SEND_GIVE_UP);
        });
    }
}
