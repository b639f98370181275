//! Registered memory regions.
//!
//! A [`MemoryRegion`] models memory pinned and registered with an RDMA NIC:
//! local code reads and writes it directly, while remote peers access it
//! with one-sided verbs through a [`QueuePair`](crate::QueuePair).
//!
//! ## Torn-write modelling
//!
//! On real hardware a CPU store sequence updating a multi-cache-line object
//! is not atomic with respect to a concurrent RDMA Read: the NIC may DMA a
//! mixture of old and new lines. Catfish (like FaRM) detects this with
//! per-line version stamps. We reproduce the effect honestly:
//! [`MemoryRegion::write_local_torn`] applies the new bytes immediately for
//! *local* readers (program order) but records the old bytes and a
//! completion instant; a remote snapshot taken inside the window observes
//! the first portion of the write as new and the remainder as old, at
//! cache-line granularity — which is exactly the mixed-version state the
//! codec's validation rejects.
//!
//! ## Host backing
//!
//! Each region is one private anonymous mapping of its full registered
//! size. Pages read as zero and become resident only when first written,
//! and dropping the last clone of a region unmaps it, so a dropped set-up
//! gives its pages back to the OS instead of leaving them with the heap.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_void};
use std::ptr::NonNull;
use std::rc::Rc;

use catfish_simnet::{SimDuration, SimTime};

/// Cache-line granularity of torn-write visibility.
const TORN_LINE: usize = 64;

#[derive(Debug)]
struct TornWrite {
    offset: usize,
    old: Vec<u8>,
    started: SimTime,
    completes: SimTime,
}

/// A zeroed byte buffer held in its own private anonymous mapping.
///
/// Fresh anonymous pages read as zero and stay unbacked until first
/// written, so a region costs the host only the pages a run touches, and
/// dropping it returns them straight to the OS (`munmap`). A heap buffer
/// could not promise either: once glibc raises its dynamic mmap threshold
/// (on the first free of a large mapped chunk), regions are carved from the
/// heap, `calloc` memsets every reused chunk, and freed pages stay with the
/// allocator. The base is page-aligned, so chunk slots (whole multiples of
/// 64 bytes) never straddle an extra cache line — matching how a real
/// registration pins page-aligned memory for the NIC.
struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
}

// Linux values of the mmap constants.
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

impl AlignedBuf {
    fn zeroed(len: usize) -> Self {
        // SAFETY: a fresh private anonymous mapping at a kernel-chosen
        // address aliases no existing memory; the arguments need no other
        // precondition.
        let addr = unsafe {
            mmap(
                std::ptr::null_mut(),
                Self::map_len(len),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // mmap reports failure as MAP_FAILED, (void *) -1.
        assert!(
            addr as usize != usize::MAX,
            "mmap of a {len}-byte region failed: {}",
            std::io::Error::last_os_error()
        );
        let ptr = NonNull::new(addr.cast::<u8>()).expect("mmap returned a null mapping");
        assert!(
            (ptr.as_ptr() as usize).is_multiple_of(TORN_LINE),
            "registered region base must be cache-line-aligned"
        );
        AlignedBuf { ptr, len }
    }

    /// Bytes mapped for a `len`-byte region: a zero-length region still
    /// holds one page, so its base is a valid mapping to unmap.
    fn map_len(len: usize) -> usize {
        len.max(1)
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` heads a live read/write mapping of at least `len`
        // bytes, owned by `self` until `drop`; the shared borrow of `self`
        // excludes every mutable slice of it.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_slice`; the exclusive borrow of `self` makes
        // this the only slice of the mapping.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `map_len(len)` are exactly what `zeroed`
        // mapped, and no slice of the mapping outlives `self`. A failed
        // unmap only leaks the pages, and `drop` must not panic, so the
        // result is ignored.
        unsafe {
            munmap(self.ptr.as_ptr().cast(), Self::map_len(self.len));
        }
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish()
    }
}

#[derive(Debug)]
struct MrInner {
    bytes: AlignedBuf,
    rkey: u32,
    torn: VecDeque<TornWrite>,
}

/// A registered memory region; cloning shares the same memory.
///
/// # Examples
///
/// ```
/// use catfish_rdma::MemoryRegion;
///
/// let mr = MemoryRegion::new(1024, 7);
/// mr.write_local(8, b"hello");
/// let mut buf = [0u8; 5];
/// mr.read_local(8, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Clone, Debug)]
pub struct MemoryRegion {
    inner: Rc<RefCell<MrInner>>,
}

impl MemoryRegion {
    /// Registers a zeroed region of `len` bytes with remote key `rkey`.
    ///
    /// The region keeps its full modelled size, but host memory is touched
    /// only where it is written: pages never written stay unbacked, and
    /// dropping the last clone returns every page to the OS.
    pub fn new(len: usize, rkey: u32) -> Self {
        MemoryRegion {
            inner: Rc::new(RefCell::new(MrInner {
                bytes: AlignedBuf::zeroed(len),
                rkey,
                torn: VecDeque::new(),
            })),
        }
    }

    /// The remote key peers use to address this region.
    pub fn rkey(&self) -> u32 {
        self.inner.borrow().rkey
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.inner.borrow().bytes.len
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes at `offset` (local, always consistent).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn read_local(&self, offset: usize, buf: &mut [u8]) {
        let inner = self.inner.borrow();
        buf.copy_from_slice(&inner.bytes.as_slice()[offset..offset + buf.len()]);
    }

    /// Lends `f` a direct borrow of `len` bytes at `offset` — the zero-copy
    /// read path. The region is borrowed for the duration of `f`, so `f`
    /// must not call back into mutating methods of the same region.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region, or if the region is
    /// concurrently borrowed mutably.
    pub fn with_slice<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let inner = self.inner.borrow();
        f(&inner.bytes.as_slice()[offset..offset + len])
    }

    /// Zeroes `len` bytes at `offset` without staging a source buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn zero_local(&self, offset: usize, len: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.bytes.as_mut_slice()[offset..offset + len].fill(0);
    }

    /// Writes `data` at `offset` atomically (visible consistently to both
    /// local readers and remote snapshots from this instant).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        inner.bytes.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Writes `data` at `offset` with a torn-visibility `window`: local
    /// readers see the new bytes immediately, but remote snapshots taken
    /// before `now + window` observe a cache-line-granular mixture of new
    /// (leading lines) and old (trailing lines) bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region, or when called outside a
    /// running simulation.
    pub fn write_local_torn(&self, offset: usize, data: &[u8], window: SimDuration) {
        let now = catfish_simnet::now();
        let mut inner = self.inner.borrow_mut();
        // GC expired windows.
        while inner.torn.front().is_some_and(|t| t.completes <= now) {
            inner.torn.pop_front();
        }
        if !window.is_zero() {
            let old = inner.bytes.as_slice()[offset..offset + data.len()].to_vec();
            inner.torn.push_back(TornWrite {
                offset,
                old,
                started: now,
                completes: now + window,
            });
        }
        inner.bytes.as_mut_slice()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// The bytes a one-sided remote read sampling this region at instant
    /// `at` observes: consistent, except inside pending torn windows where
    /// trailing cache lines still show pre-write contents.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn snapshot_remote(&self, offset: usize, len: usize, at: SimTime) -> Vec<u8> {
        // GC windows that have expired by the current simulation clock (a
        // snapshot "at" a future instant may still need windows that are
        // pending now, so GC keys off `now`, not `at`).
        let now = catfish_simnet::now();
        let mut inner = self.inner.borrow_mut();
        while inner
            .torn
            .front()
            .is_some_and(|t| t.completes <= now.min(at))
        {
            inner.torn.pop_front();
        }
        let inner = &*inner;
        let mut out = inner.bytes.as_slice()[offset..offset + len].to_vec();
        for t in &inner.torn {
            if at >= t.completes || at < t.started {
                continue;
            }
            // Fraction of the write already visible at `at`, rounded down
            // to whole cache lines.
            let dur = t.completes.duration_since(t.started).as_nanos();
            let done = at.duration_since(t.started).as_nanos();
            let lines_total = t.old.len().div_ceil(TORN_LINE);
            let lines_done = ((done as u128 * lines_total as u128) / dur.max(1) as u128) as usize;
            let new_bytes = (lines_done * TORN_LINE).min(t.old.len());
            // Bytes [new_bytes..] of the write region still show old data.
            let stale_begin = t.offset + new_bytes;
            let stale_end = t.offset + t.old.len();
            let overlap_begin = stale_begin.max(offset);
            let overlap_end = stale_end.min(offset + len);
            if overlap_begin < overlap_end {
                out[overlap_begin - offset..overlap_end - offset]
                    .copy_from_slice(&t.old[overlap_begin - t.offset..overlap_end - t.offset]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catfish_simnet::{sleep, Sim};

    #[test]
    fn local_write_read_round_trip() {
        let mr = MemoryRegion::new(256, 1);
        mr.write_local(10, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        mr.read_local(10, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn clones_share_memory() {
        let mr = MemoryRegion::new(64, 1);
        let mr2 = mr.clone();
        mr.write_local(0, &[9]);
        let mut b = [0u8];
        mr2.read_local(0, &mut b);
        assert_eq!(b, [9]);
    }

    #[test]
    fn torn_write_locally_consistent() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(256, 1);
            mr.write_local_torn(0, &[7u8; 256], SimDuration::from_micros(1));
            let mut buf = [0u8; 256];
            mr.read_local(0, &mut buf);
            assert_eq!(buf, [7u8; 256]);
        });
    }

    #[test]
    fn snapshot_inside_window_sees_mixture() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(256, 1);
            mr.write_local(0, &[1u8; 256]);
            mr.write_local_torn(0, &[2u8; 256], SimDuration::from_micros(4));
            // Halfway through the window: lines 0..2 new, 2..4 old.
            let t = catfish_simnet::now() + SimDuration::from_micros(2);
            let snap = mr.snapshot_remote(0, 256, t);
            assert_eq!(&snap[..128], &[2u8; 128][..]);
            assert_eq!(&snap[128..], &[1u8; 128][..]);
        });
    }

    #[test]
    fn snapshot_after_window_is_clean() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(128, 1);
            mr.write_local_torn(0, &[5u8; 128], SimDuration::from_micros(1));
            let t = catfish_simnet::now() + SimDuration::from_micros(1);
            assert_eq!(mr.snapshot_remote(0, 128, t), vec![5u8; 128]);
        });
    }

    #[test]
    fn snapshot_before_window_sees_old() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(128, 1);
            sleep(SimDuration::from_micros(10)).await;
            mr.write_local_torn(0, &[5u8; 128], SimDuration::from_micros(2));
            // A snapshot "from the past" (read arrived before the write).
            let t = catfish_simnet::now() + SimDuration::from_nanos(1);
            let snap = mr.snapshot_remote(0, 128, t);
            // Line 0 may already be visible at 1ns into a 2us window? No:
            // 1ns/2us of 2 lines rounds down to 0 lines.
            assert_eq!(snap, vec![0u8; 128]);
        });
    }

    #[test]
    fn snapshot_partial_range_overlap() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(512, 1);
            mr.write_local(128, &[1u8; 128]);
            mr.write_local_torn(128, &[2u8; 128], SimDuration::from_micros(2));
            // Read a range that straddles the torn region's stale half.
            let t = catfish_simnet::now() + SimDuration::from_micros(1);
            let snap = mr.snapshot_remote(0, 512, t);
            assert_eq!(&snap[..128], &[0u8; 128][..]); // untouched
            assert_eq!(&snap[128..192], &[2u8; 64][..]); // first line new
            assert_eq!(&snap[192..256], &[1u8; 64][..]); // second line old
            assert_eq!(&snap[256..], &[0u8; 256][..]);
        });
    }

    #[test]
    fn expired_windows_are_garbage_collected() {
        let sim = Sim::new();
        sim.run_until(async {
            let mr = MemoryRegion::new(64, 1);
            for _ in 0..100 {
                mr.write_local_torn(0, &[1u8; 64], SimDuration::from_nanos(10));
                sleep(SimDuration::from_nanos(20)).await;
            }
            assert!(mr.inner.borrow().torn.len() <= 1);
        });
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mr = MemoryRegion::new(8, 1);
        let mut buf = [0u8; 16];
        mr.read_local(0, &mut buf);
    }

    #[test]
    fn fresh_regions_are_zeroed_and_line_aligned() {
        for len in (0usize..=300).chain([3 << 20, (5 << 20) + 17]) {
            let mr = MemoryRegion::new(len, 1);
            assert_eq!(mr.len(), len);
            let base = mr.with_slice(0, len, |b| b.as_ptr() as usize);
            assert!(
                base.is_multiple_of(TORN_LINE),
                "len {len}: base {base:#x} not line-aligned"
            );
            assert!(
                mr.with_slice(0, len, |b| b.iter().all(|&x| x == 0)),
                "len {len}: fresh region not zeroed"
            );
        }
    }

    #[test]
    fn with_slice_lends_without_copy() {
        let mr = MemoryRegion::new(128, 1);
        mr.write_local(32, b"abc");
        assert_eq!(mr.with_slice(32, 3, |s| s.to_vec()), b"abc");
        // Nested shared borrows are fine.
        mr.with_slice(0, 64, |a| {
            mr.with_slice(32, 3, |b| assert_eq!(&a[32..35], b));
        });
    }
}
