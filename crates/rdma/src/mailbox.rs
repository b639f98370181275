//! Per-client result **mailboxes** for RFP-style remote result fetching.
//!
//! In the write-back response path the server pushes every response into
//! the client's ring with an RDMA Write-with-Immediate — the server NIC
//! initiates one wire transfer per response, and the server CPU pays the
//! posting cost. RFP inverts this for large responses: the server merely
//! *deposits* the encoded response into a per-client mailbox slot inside
//! its own registered memory, and the client pulls it with one-sided RDMA
//! Reads. The server-side cost becomes a local memcpy; the wire transfer
//! is client-initiated.
//!
//! ## Slot protocol
//!
//! A mailbox is `slots` fixed-size slots. Each slot starts with a
//! 16-byte header `[seq u32][len u32][crc32 u32][pad u32]`; the payload
//! follows. A deposit for sequence number `s` targets slot `s % slots`:
//!
//! 1. the header is atomically zeroed (a concurrent fetch sees `seq = 0`
//!    and keeps polling);
//! 2. the payload is written with torn-write visibility (a racing
//!    one-sided read may observe a cache-line mixture of old and new
//!    bytes — exactly what real hardware does);
//! 3. the header is atomically written last with the payload's CRC-32.
//!
//! A fetch therefore reads the header, then the payload, and accepts the
//! result only when the header's sequence number matches its request and
//! the payload CRC matches the header — otherwise the deposit is either
//! stale or mid-write and the client retries. The client acknowledges
//! consumption by RDMA-writing the sequence number into a small **ack
//! cell**, which the server reads locally to reclaim the slot's lease.
//!
//! ## Leases and crash-restart reclamation
//!
//! Every deposit leases its slot until the ack cell covers it. A client
//! that crashes mid-fetch never acks, so leases also expire after a
//! staleness TTL ([`Mailbox::sweep_stale`]) — the server ties this sweep
//! to its heartbeat cadence, mirroring the client-side heartbeat-staleness
//! failover. [`Mailbox::outstanding_leases`] lets harnesses assert that
//! no slot stays leased forever (zero leaked slots).

use std::collections::BTreeMap;

use catfish_simnet::{SimDuration, SimTime};

use crate::crc::crc32;
use crate::mr::MemoryRegion;

/// Bytes of the per-slot header: `[seq u32][len u32][crc32 u32][pad u32]`.
pub const SLOT_HEADER_BYTES: usize = 16;

/// Bytes of the client-written acknowledgement cell (one little-endian
/// `u64` holding the latest consumed sequence number; `0` = none yet).
pub const ACK_CELL_BYTES: usize = 8;

/// Geometry of a mailbox region: how sequence numbers map to byte ranges.
///
/// Shared by value between the server (which deposits) and the client
/// (which computes read offsets), so both sides agree on slot addressing
/// without any further handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxLayout {
    /// Number of slots.
    pub slots: u32,
    /// Bytes per slot, header included.
    pub slot_bytes: usize,
}

impl MailboxLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `slot_bytes` does not leave room for
    /// a payload after the header.
    pub fn new(slots: u32, slot_bytes: usize) -> Self {
        assert!(slots > 0, "a mailbox needs at least one slot");
        assert!(
            slot_bytes > SLOT_HEADER_BYTES,
            "slot_bytes {slot_bytes} leaves no payload room after the {SLOT_HEADER_BYTES}-byte header"
        );
        MailboxLayout { slots, slot_bytes }
    }

    /// Total bytes of the mailbox region.
    pub fn region_bytes(&self) -> usize {
        self.slots as usize * self.slot_bytes
    }

    /// Largest payload a single slot can hold.
    pub fn payload_capacity(&self) -> usize {
        self.slot_bytes - SLOT_HEADER_BYTES
    }

    /// The slot index sequence number `seq` deposits into.
    pub fn slot_index(&self, seq: u32) -> u32 {
        seq % self.slots
    }

    /// Byte offset of `seq`'s slot header within the region.
    pub fn slot_offset(&self, seq: u32) -> usize {
        self.slot_index(seq) as usize * self.slot_bytes
    }

    /// Byte offset of `seq`'s payload within the region.
    pub fn payload_offset(&self, seq: u32) -> usize {
        self.slot_offset(seq) + SLOT_HEADER_BYTES
    }
}

/// A parsed slot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHeader {
    /// Sequence number of the deposited response (`0` = slot empty or
    /// mid-deposit).
    pub seq: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

impl SlotHeader {
    /// Parses the leading [`SLOT_HEADER_BYTES`] of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than a header.
    pub fn parse(buf: &[u8]) -> SlotHeader {
        let word = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("sized"));
        SlotHeader {
            seq: word(0),
            len: word(4),
            crc: word(8),
        }
    }

    fn encode(self) -> [u8; SLOT_HEADER_BYTES] {
        let mut out = [0u8; SLOT_HEADER_BYTES];
        out[0..4].copy_from_slice(&self.seq.to_le_bytes());
        out[4..8].copy_from_slice(&self.len.to_le_bytes());
        out[8..12].copy_from_slice(&self.crc.to_le_bytes());
        out
    }
}

/// Result of a deposit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositOutcome {
    /// The response now sits in its slot, lease taken.
    Stored,
    /// The encoded response exceeds the slot's payload capacity; the
    /// caller must fall back to the write-back path.
    TooLarge,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    seq: u32,
    since: SimTime,
}

/// The client-side view of a mailbox: remote keys plus the shared layout.
///
/// Everything a fetch loop needs to compute one-sided read offsets and to
/// acknowledge consumption; obtained from the server during connection
/// establishment.
#[derive(Debug, Clone, Copy)]
pub struct MailboxHandle {
    /// Remote key of the mailbox region at the server.
    pub rkey: u32,
    /// Remote key of the ack cell at the server.
    pub ack_rkey: u32,
    /// Slot geometry.
    pub layout: MailboxLayout,
}

/// The server side of one client's mailbox: the registered region, the
/// ack cell the client writes into, and the lease table.
#[derive(Debug)]
pub struct Mailbox {
    mr: MemoryRegion,
    ack: MemoryRegion,
    layout: MailboxLayout,
    /// Slot index → active lease.
    leases: BTreeMap<u32, Lease>,
    acked_reclaims: u64,
    stale_reclaims: u64,
    evictions: u64,
}

impl Mailbox {
    /// Wraps a registered region and ack cell as a mailbox.
    ///
    /// # Panics
    ///
    /// Panics if `mr` is smaller than the layout demands or `ack` cannot
    /// hold the ack word.
    pub fn new(mr: MemoryRegion, ack: MemoryRegion, layout: MailboxLayout) -> Self {
        assert!(
            mr.len() >= layout.region_bytes(),
            "mailbox region of {} bytes below layout's {}",
            mr.len(),
            layout.region_bytes()
        );
        assert!(ack.len() >= ACK_CELL_BYTES, "ack cell too small");
        Mailbox {
            mr,
            ack,
            layout,
            leases: BTreeMap::new(),
            acked_reclaims: 0,
            stale_reclaims: 0,
            evictions: 0,
        }
    }

    /// The client-side handle for this mailbox.
    pub fn handle(&self) -> MailboxHandle {
        MailboxHandle {
            rkey: self.mr.rkey(),
            ack_rkey: self.ack.rkey(),
            layout: self.layout,
        }
    }

    /// The slot geometry.
    pub fn layout(&self) -> MailboxLayout {
        self.layout
    }

    /// Deposits the encoded response for `seq`, taking the slot lease.
    ///
    /// The header is invalidated first, the payload lands with torn-write
    /// visibility over `torn_window`, and the header (with the payload
    /// CRC) is written atomically last — so a racing fetch sees either
    /// the complete deposit or something its CRC/sequence check rejects.
    ///
    /// Redepositing the same `seq` (a retransmitted read re-executed by
    /// the server) simply overwrites the slot and refreshes the lease.
    pub fn try_deposit(
        &mut self,
        seq: u32,
        payload: &[u8],
        torn_window: SimDuration,
        now: SimTime,
    ) -> DepositOutcome {
        if payload.len() > self.layout.payload_capacity() {
            return DepositOutcome::TooLarge;
        }
        let slot = self.layout.slot_index(seq);
        let off = self.layout.slot_offset(seq);
        self.mr.write_local(off, &[0u8; SLOT_HEADER_BYTES]);
        self.mr
            .write_local_torn(off + SLOT_HEADER_BYTES, payload, torn_window);
        let header = SlotHeader {
            seq,
            len: payload.len() as u32,
            crc: crc32(payload),
        };
        self.mr.write_local(off, &header.encode());
        if let Some(prev) = self.leases.insert(slot, Lease { seq, since: now }) {
            if prev.seq != seq {
                self.evictions += 1;
            }
        }
        DepositOutcome::Stored
    }

    /// The latest sequence number the client has acknowledged consuming
    /// (`0` = none yet). Read locally from the ack cell the client
    /// RDMA-writes.
    pub fn acked_seq(&self) -> u32 {
        let mut buf = [0u8; ACK_CELL_BYTES];
        self.ack.read_local(0, &mut buf);
        u64::from_le_bytes(buf) as u32
    }

    /// Releases every lease covered by the client's ack (acks are
    /// monotone — the client's sequence counter only grows). Returns how
    /// many leases were reclaimed.
    pub fn reclaim_acked(&mut self) -> u64 {
        let acked = self.acked_seq();
        if acked == 0 {
            return 0;
        }
        let before = self.leases.len();
        self.leases.retain(|_, l| l.seq > acked);
        let freed = (before - self.leases.len()) as u64;
        self.acked_reclaims += freed;
        freed
    }

    /// Releases leases older than `ttl` — deposits a crashed or departed
    /// client will never ack. Returns how many leases were reclaimed.
    pub fn sweep_stale(&mut self, now: SimTime, ttl: SimDuration) -> u64 {
        let before = self.leases.len();
        self.leases
            .retain(|_, l| now.saturating_duration_since(l.since) < ttl);
        let freed = (before - self.leases.len()) as u64;
        self.stale_reclaims += freed;
        freed
    }

    /// Number of slots currently leased (deposited but neither acked nor
    /// swept).
    pub fn outstanding_leases(&self) -> usize {
        self.leases.len()
    }

    /// Total leases reclaimed through client acks.
    pub fn acked_reclaims(&self) -> u64 {
        self.acked_reclaims
    }

    /// Total leases reclaimed by the staleness sweep.
    pub fn stale_reclaims(&self) -> u64 {
        self.stale_reclaims
    }

    /// Times a deposit overwrote a slot still leased to a *different*
    /// sequence number (only possible after a client restart).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_simnet::{now, sleep, Sim};

    fn mailbox(slots: u32, slot_bytes: usize) -> Mailbox {
        let layout = MailboxLayout::new(slots, slot_bytes);
        Mailbox::new(
            MemoryRegion::new(layout.region_bytes(), 10),
            MemoryRegion::new(ACK_CELL_BYTES, 11),
            layout,
        )
    }

    #[test]
    fn layout_addresses_do_not_overlap() {
        let l = MailboxLayout::new(4, 64);
        assert_eq!(l.region_bytes(), 256);
        assert_eq!(l.payload_capacity(), 48);
        for seq in 1..=8u32 {
            let off = l.slot_offset(seq);
            assert_eq!(off % 64, 0);
            assert_eq!(l.payload_offset(seq), off + SLOT_HEADER_BYTES);
            assert_eq!(l.slot_offset(seq + 4), off, "slots wrap modulo count");
        }
    }

    #[test]
    fn deposit_then_remote_style_read_round_trips() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(4, 128);
            let payload = b"catfish fetches results".to_vec();
            assert_eq!(
                mb.try_deposit(7, &payload, SimDuration::ZERO, now()),
                DepositOutcome::Stored
            );
            let off = mb.layout().slot_offset(7);
            let hdr_bytes = mb.mr.snapshot_remote(off, SLOT_HEADER_BYTES, now());
            let hdr = SlotHeader::parse(&hdr_bytes);
            assert_eq!(hdr.seq, 7);
            assert_eq!(hdr.len as usize, payload.len());
            let body = mb
                .mr
                .snapshot_remote(off + SLOT_HEADER_BYTES, hdr.len as usize, now());
            assert_eq!(body, payload);
            assert_eq!(crc32(&body), hdr.crc);
            assert_eq!(mb.outstanding_leases(), 1);
        });
    }

    #[test]
    fn oversized_payload_is_rejected_without_touching_memory() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(2, 64);
            let big = vec![9u8; 64];
            assert_eq!(
                mb.try_deposit(1, &big, SimDuration::ZERO, now()),
                DepositOutcome::TooLarge
            );
            assert_eq!(mb.outstanding_leases(), 0);
            let hdr = SlotHeader::parse(&mb.mr.snapshot_remote(
                mb.layout().slot_offset(1),
                SLOT_HEADER_BYTES,
                now(),
            ));
            assert_eq!(hdr.seq, 0, "slot stays empty");
        });
    }

    #[test]
    fn torn_deposit_fails_crc_inside_window_then_heals() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(1, 64 + SLOT_HEADER_BYTES + 192);
            let old = vec![1u8; 192];
            mb.try_deposit(1, &old, SimDuration::ZERO, now());
            mb.reclaim_acked();
            let new = vec![2u8; 192];
            let window = SimDuration::from_micros(4);
            mb.try_deposit(1, &new, window, now());
            // A snapshot halfway through the window sees a mixture whose
            // CRC disagrees with the (already current) header.
            let off = mb.layout().slot_offset(1);
            let mid = now() + SimDuration::from_micros(2);
            let hdr = SlotHeader::parse(&mb.mr.snapshot_remote(off, SLOT_HEADER_BYTES, mid));
            assert_eq!(hdr.seq, 1);
            let body = mb
                .mr
                .snapshot_remote(off + SLOT_HEADER_BYTES, hdr.len as usize, mid);
            assert_ne!(crc32(&body), hdr.crc, "torn read must fail CRC");
            // After the window the same read succeeds.
            sleep(window).await;
            let body = mb
                .mr
                .snapshot_remote(off + SLOT_HEADER_BYTES, hdr.len as usize, now());
            assert_eq!(body, new);
            assert_eq!(crc32(&body), hdr.crc);
        });
    }

    #[test]
    fn acks_reclaim_monotonically() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(8, 64);
            for seq in 1..=3u32 {
                mb.try_deposit(seq, b"x", SimDuration::ZERO, now());
            }
            assert_eq!(mb.outstanding_leases(), 3);
            assert_eq!(mb.reclaim_acked(), 0, "no ack yet");
            // The client acks seq 2: leases 1 and 2 free, 3 stays.
            mb.ack.write_local(0, &2u64.to_le_bytes());
            assert_eq!(mb.reclaim_acked(), 2);
            assert_eq!(mb.outstanding_leases(), 1);
            assert_eq!(mb.acked_reclaims(), 2);
        });
    }

    #[test]
    fn stale_sweep_frees_abandoned_leases() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(8, 64);
            mb.try_deposit(1, b"abandoned", SimDuration::ZERO, now());
            sleep(SimDuration::from_millis(20)).await;
            mb.try_deposit(2, b"fresh", SimDuration::ZERO, now());
            let ttl = SimDuration::from_millis(10);
            assert_eq!(mb.sweep_stale(now(), ttl), 1, "only the old lease");
            assert_eq!(mb.outstanding_leases(), 1);
            sleep(SimDuration::from_millis(20)).await;
            assert_eq!(mb.sweep_stale(now(), ttl), 1);
            assert_eq!(mb.outstanding_leases(), 0);
            assert_eq!(mb.stale_reclaims(), 2);
        });
    }

    #[test]
    fn redeposit_same_seq_is_not_an_eviction() {
        let sim = Sim::new();
        sim.run_until(async {
            let mut mb = mailbox(2, 64);
            mb.try_deposit(5, b"first try", SimDuration::ZERO, now());
            mb.try_deposit(5, b"retransmit", SimDuration::ZERO, now());
            assert_eq!(mb.evictions(), 0);
            // A colliding *different* seq (crash-restarted client) evicts.
            mb.try_deposit(7, b"new client", SimDuration::ZERO, now());
            assert_eq!(mb.evictions(), 1);
            assert_eq!(mb.outstanding_leases(), 1);
        });
    }
}
