//! The deterministic single-threaded executor and virtual clock.
//!
//! A [`Sim`] owns a slab of tasks, a ready queue and a timer table. A
//! spawned task is one `Rc` cell holding its id, its future, its output
//! slot and its join waker; its waker is a `RawWaker` over that cell's
//! non-atomic count, and waking pushes the task's id onto the ready queue,
//! a plain `RefCell<VecDeque>`. Nothing on the wake path takes a lock or
//! does an atomic read-modify-write, which is sound because a waker
//! refuses to run anywhere but on its simulation's thread. The timer table
//! keeps timers due within 65.5 µs of now in a wheel of 64 ns
//! buckets and later ones under an indexed binary min-heap; both order by
//! deadline, then registration. A [`Sleep`] holds its timer's key, so
//! dropping an unfired sleep takes its timer out at once, and the table
//! holds live timers only. Execution alternates between two steps:
//!
//! 1. poll every ready task to quiescence (FIFO order), then
//! 2. advance the virtual clock to the earliest pending timer and fire
//!    every timer due at that instant, in registration order.
//!
//! Nothing ever blocks on the host OS and no host time is read, so a given
//! program produces the identical event interleaving on every run — which is
//! what makes the benchmark figures reproducible.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::time::{SimDuration, SimTime};

/// A task's slab slot and the slot's generation when the task was
/// spawned. A finished task's slot is reused with the next generation, so
/// a waker that outlives its task names a stale generation and wakes
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskId {
    slot: u32,
    generation: u32,
}

/// The ids of woken tasks, in wake order. Only the simulation's own thread
/// touches it (each waker checks), so it needs no lock.
type ReadyQueue = RefCell<VecDeque<TaskId>>;

thread_local! {
    static THREAD_MARK: u8 = const { 0 };
}

/// An address unique to the calling thread among the threads alive now:
/// its own copy of a thread-local byte. A thread started after the
/// simulation's thread exits may reuse the address; it is then the only
/// live thread that passes the check, so counts are still never touched
/// by two threads at once.
#[inline]
fn thread_mark() -> usize {
    THREAD_MARK.with(|m| m as *const u8 as usize)
}

/// What a task's waker reads: where to queue the task and which thread
/// may touch its counts.
struct Header {
    id: TaskId,
    ready: Rc<ReadyQueue>,
    /// [`thread_mark`] of the thread running the task's simulation.
    thread: usize,
}

/// A spawned task: the one allocation a spawn makes. The slab holds one
/// count on it while the task is unfinished, its [`JoinHandle`] one, and
/// each clone of its waker one.
struct TaskCell<F: Future> {
    header: Header,
    join: RefCell<JoinState<F::Output>>,
    /// `Some` until the future completes or its simulation is dropped. It
    /// is pinned: never moved out, only dropped in place.
    future: RefCell<Option<F>>,
}

/// A task as the slab sees it, with its future's type erased.
trait Runnable {
    /// Polls the future once, unless it already completed.
    ///
    /// # Safety
    ///
    /// `data` is `Rc::as_ptr` of an `Rc` holding this very cell.
    unsafe fn poll(&self, data: *const ()) -> Poll<()>;

    /// Drops the future in place and the join waker, breaking every cycle
    /// through a waker the task handed out (a task parked on its own
    /// `Notify`, channel or timer holds a count on its own cell).
    fn tear_down(&self);
}

/// A task as its [`JoinHandle`] sees it, with only its output type known.
trait Joinable<T> {
    fn join(&self) -> &RefCell<JoinState<T>>;
}

impl<F: Future + 'static> TaskCell<F> {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        Self::clone_waker,
        Self::wake,
        Self::wake_by_ref,
        Self::drop_waker,
    );

    /// The header of the cell a waker's data pointer names.
    ///
    /// # Safety
    ///
    /// `data` is a live waker's data pointer: `Rc::as_ptr` of a cell of
    /// this type on which the waker holds a count (or, for the waker lent
    /// to a poll, on which the poll's caller does).
    unsafe fn header<'a>(data: *const ()) -> &'a Header {
        // SAFETY: per the contract the cell is alive for as long as the
        // waker is. The header is never written after spawn, so reading
        // it even from a foreign thread races with nothing.
        unsafe { &(*data.cast::<Self>()).header }
    }

    /// Whether the calling thread runs the cell's simulation, the only
    /// thread allowed to touch its non-atomic count or its ready queue.
    fn owned_here(header: &Header) -> bool {
        header.thread == thread_mark()
    }

    fn assert_owned_here(header: &Header) {
        assert!(
            Self::owned_here(header),
            "a simulation task's waker was used off the thread running its simulation"
        );
    }

    /// The vtable's `clone`: one more count on the cell.
    ///
    /// # Safety
    ///
    /// `data` satisfies [`Self::header`]'s contract. So do the vtable's
    /// other functions', the only data pointers this vtable is paired with.
    unsafe fn clone_waker(data: *const ()) -> RawWaker {
        // SAFETY: per this function's contract.
        let header = unsafe { Self::header(data) };
        Self::assert_owned_here(header);
        // SAFETY: `data` is `Rc::as_ptr` of a live `Rc<Self>` (the same
        // pointer `Rc::into_raw` gives), and only this thread touches the
        // count, as just checked.
        unsafe { Rc::increment_strong_count(data.cast::<Self>()) };
        RawWaker::new(data, &Self::VTABLE)
    }

    /// # Safety
    ///
    /// As for [`Self::clone_waker`]; the waker's count is consumed.
    unsafe fn wake(data: *const ()) {
        // SAFETY: as in `clone_waker`. `wake_by_ref` returns only on the
        // simulation's thread, which then gives back this waker's count.
        unsafe {
            Self::wake_by_ref(data);
            Rc::decrement_strong_count(data.cast::<Self>());
        }
    }

    /// # Safety
    ///
    /// As for [`Self::clone_waker`].
    unsafe fn wake_by_ref(data: *const ()) {
        // SAFETY: as in `clone_waker`.
        let header = unsafe { Self::header(data) };
        Self::assert_owned_here(header);
        header.ready.borrow_mut().push_back(header.id);
    }

    /// Gives back the waker's count. Off the simulation's thread the count
    /// is leaked instead: a leak is safe, a racing decrement is not.
    ///
    /// # Safety
    ///
    /// As for [`Self::clone_waker`]; the waker's count is consumed.
    unsafe fn drop_waker(data: *const ()) {
        // SAFETY: as in `clone_waker`.
        let header = unsafe { Self::header(data) };
        if Self::owned_here(header) {
            // SAFETY: this waker owns one count on the live cell, and only
            // this thread touches the count.
            unsafe { Rc::decrement_strong_count(data.cast::<Self>()) };
        }
    }
}

impl<F: Future + 'static> Runnable for TaskCell<F> {
    unsafe fn poll(&self, data: *const ()) -> Poll<()> {
        // SAFETY: `data` names this cell and the caller's `Rc` keeps it
        // alive across the poll. The waker is only lent (`ManuallyDrop`):
        // it holds no count of its own, and wakers cloned from it take one.
        let waker =
            ManuallyDrop::new(unsafe { Waker::from_raw(RawWaker::new(data, &Self::VTABLE)) });
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.borrow_mut();
        let Some(fut) = slot.as_mut() else {
            return Poll::Ready(());
        };
        // SAFETY: the future sits in the cell's `Rc` allocation, which never
        // moves, and it is never moved out of its slot: it is only dropped
        // in place (below, or in `tear_down`).
        let Poll::Ready(out) = unsafe { Pin::new_unchecked(fut) }.poll(&mut cx) else {
            return Poll::Pending;
        };
        *slot = None;
        drop(slot);
        let mut join = self.join.borrow_mut();
        if join.detached {
            drop(join);
            drop(out);
        } else {
            join.result = Some(out);
            if let Some(w) = join.waker.take() {
                w.wake();
            }
        }
        Poll::Ready(())
    }

    fn tear_down(&self) {
        *self.future.borrow_mut() = None;
        let waker = self.join.borrow_mut().waker.take();
        drop(waker);
    }
}

impl<F: Future + 'static> Joinable<F::Output> for TaskCell<F> {
    fn join(&self) -> &RefCell<JoinState<F::Output>> {
        &self.join
    }
}

struct Slot {
    generation: u32,
    /// `None` while the slot is free or its task is being polled.
    task: Option<Rc<dyn Runnable>>,
}

/// The live tasks, indexed by slot: spawn reuses the most recently freed
/// slot, and a lookup is an index plus a generation compare.
#[derive(Default)]
struct TaskSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

/// Teardown drops the futures still parked newest slot first, the reverse
/// of the order they were allocated in, so back-to-back simulations in
/// one process (catbench's repeated set-ups) reuse the freed memory
/// compactly. Forward order measured a higher peak RSS there
/// (EXPERIMENTS.md, "one pass per offloaded chunk"). Each future is
/// dropped in place even when a waker elsewhere keeps its cell alive.
impl Drop for TaskSlab {
    fn drop(&mut self) {
        while let Some(slot) = self.slots.pop() {
            if let Some(task) = slot.task {
                task.tear_down();
            }
        }
    }
}

impl TaskSlab {
    /// Claims a slot for a task about to be spawned; the task is parked
    /// in it with [`TaskSlab::park`].
    fn claim(&mut self) -> TaskId {
        self.live += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                task: None,
            });
            (self.slots.len() - 1) as u32
        });
        TaskId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Parks a claimed task (at spawn, or after a pending poll).
    fn park(&mut self, id: TaskId, task: Rc<dyn Runnable>) {
        let slot = &mut self.slots[id.slot as usize];
        debug_assert_eq!(slot.generation, id.generation, "parking into a reused slot");
        slot.task = Some(task);
    }

    /// Takes `id`'s task out for polling; `None` if the task finished
    /// (the generation moved on) or is already out.
    fn take(&mut self, id: TaskId) -> Option<Rc<dyn Runnable>> {
        let slot = &mut self.slots[id.slot as usize];
        if slot.generation != id.generation {
            return None;
        }
        slot.task.take()
    }

    /// Frees a finished task's slot and retires its generation.
    fn release(&mut self, id: TaskId) {
        let slot = &mut self.slots[id.slot as usize];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
    }

    fn len(&self) -> usize {
        self.live
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// An armed timer's slot and the slot's generation when it was armed.
/// Firing or cancelling frees the slot and retires its generation, so a
/// key kept past either names a stale generation and cancels nothing.
#[derive(Debug, Clone, Copy)]
struct TimerKey {
    slot: u32,
    generation: u32,
}

/// log2 of a wheel bucket's width in nanoseconds.
const TICK_SHIFT: u32 = 6;
/// Buckets in the timer wheel.
const WHEEL_BUCKETS: usize = 1024;
/// No slot: the end of a wheel bucket's list.
const NIL: u32 = u32::MAX;
/// [`TimerSlot::pos`] of a timer in the wheel rather than the heap.
const IN_WHEEL: u32 = u32::MAX;

/// The wheel tick (64 ns bucket index, unwrapped) of `t`.
fn tick(t: SimTime) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

struct TimerSlot {
    deadline: SimTime,
    /// Registration order; breaks ties between equal deadlines.
    seq: u64,
    /// `Some` while armed.
    waker: Option<Waker>,
    /// This slot's index in [`TimerTable::heap`], or [`IN_WHEEL`].
    pos: u32,
    /// Neighbours in the timer's wheel bucket ([`NIL`] at either end).
    prev: u32,
    next: u32,
    generation: u32,
}

/// The pending timers, in two tiers over one slab of slots, both ordered
/// by `(deadline, seq)`:
///
/// - the *wheel* holds timers whose deadline tick is less than
///   [`WHEEL_BUCKETS`] ticks past now's. Each bucket is a list linked
///   through the slots and kept sorted, so arming appends after the last
///   timer due no later and cancelling unlinks in O(1); a bitmap of the
///   non-empty buckets finds the earliest. Since the clock only advances
///   to the earliest deadline, every wheel timer stays within one turn of
///   now and each bucket holds a single tick.
/// - the *heap* is a binary min-heap of the other timers' slot ids. Each
///   slot knows its heap position, so a cancelled timer leaves the heap at
///   once in O(log n).
///
/// A heap timer stays there as the clock nears its deadline; the next
/// timer is whichever tier's head orders first. Only live timers are held.
/// This is a calendar queue (Brown, CACM 1988) over a fallback heap.
struct TimerTable {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    heap: Vec<u32>,
    bucket_head: Box<[u32]>,
    bucket_tail: Box<[u32]>,
    /// Bit `b` set when bucket `b` is non-empty.
    occupied: [u64; WHEEL_BUCKETS / 64],
    in_wheel: usize,
    next_seq: u64,
}

impl Default for TimerTable {
    fn default() -> Self {
        TimerTable {
            slots: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            bucket_head: vec![NIL; WHEEL_BUCKETS].into_boxed_slice(),
            bucket_tail: vec![NIL; WHEEL_BUCKETS].into_boxed_slice(),
            occupied: [0; WHEEL_BUCKETS / 64],
            in_wheel: 0,
            next_seq: 0,
        }
    }
}

impl TimerTable {
    /// Arms a timer for `deadline`, which is after `now`.
    fn arm(&mut self, deadline: SimTime, waker: Waker, now: SimTime) -> TimerKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let t = &mut self.slots[slot as usize];
                t.deadline = deadline;
                t.seq = seq;
                t.waker = Some(waker);
                slot
            }
            None => {
                self.slots.push(TimerSlot {
                    deadline,
                    seq,
                    waker: Some(waker),
                    pos: 0,
                    prev: NIL,
                    next: NIL,
                    generation: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        if tick(deadline) < tick(now) + WHEEL_BUCKETS as u64 {
            self.link(slot);
        } else {
            let pos = self.heap.len();
            self.slots[slot as usize].pos = pos as u32;
            self.heap.push(slot);
            self.sift_up(pos);
        }
        TimerKey {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// `key`'s slot, if its timer is still armed.
    fn armed(&mut self, key: TimerKey) -> Option<&mut TimerSlot> {
        let t = &mut self.slots[key.slot as usize];
        (t.generation == key.generation).then_some(t)
    }

    /// Points an armed timer at `waker`; false if it already fired or was
    /// cancelled.
    fn set_waker(&mut self, key: TimerKey, waker: &Waker) -> bool {
        match self.armed(key) {
            Some(t) => {
                store_waker(&mut t.waker, waker);
                true
            }
            None => false,
        }
    }

    /// Disarms `key`'s timer; a no-op if it already fired or was cancelled.
    fn cancel(&mut self, key: TimerKey) {
        if self.armed(key).is_some() {
            self.remove(key.slot);
        }
    }

    /// The deadline of the timer that fires next: the earlier of the
    /// wheel's and the heap's heads.
    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        let deadline = |s: u32| self.slots[s as usize].deadline;
        let wheel = self.wheel_first(now).map(deadline);
        let heap = self.heap.first().map(|&s| deadline(s));
        match (wheel, heap) {
            (Some(w), Some(h)) => Some(w.min(h)),
            (w, h) => w.or(h),
        }
    }

    /// Disarms the next timer if it is due at `at`, the current time, and
    /// returns its waker. A wheel timer due now heads now's bucket, so
    /// this reads one head per tier and scans nothing.
    fn pop_due(&mut self, at: SimTime) -> Option<Waker> {
        let due = |s: &u32| *s != NIL && self.slots[*s as usize].deadline == at;
        let wheel = Some(self.bucket_head[tick(at) as usize % WHEEL_BUCKETS]).filter(due);
        let heap = self.heap.first().copied().filter(due);
        let slot = match (wheel, heap) {
            (Some(w), Some(h)) => {
                if self.key(w) < self.key(h) {
                    w
                } else {
                    h
                }
            }
            (w, h) => w.or(h)?,
        };
        Some(self.remove(slot))
    }

    /// Takes an armed timer out of its tier, frees its slot and retires
    /// the slot's generation.
    fn remove(&mut self, slot: u32) -> Waker {
        let pos = self.slots[slot as usize].pos;
        if pos == IN_WHEEL {
            self.unlink(slot);
        } else {
            let pos = pos as usize;
            self.heap.swap_remove(pos);
            if pos < self.heap.len() {
                self.slots[self.heap[pos] as usize].pos = pos as u32;
                if !self.sift_up(pos) {
                    self.sift_down(pos);
                }
            }
        }
        let t = &mut self.slots[slot as usize];
        t.generation = t.generation.wrapping_add(1);
        self.free.push(slot);
        t.waker.take().expect("an armed timer holds a waker")
    }

    fn len(&self) -> usize {
        self.heap.len() + self.in_wheel
    }

    fn key(&self, slot: u32) -> (SimTime, u64) {
        let t = &self.slots[slot as usize];
        (t.deadline, t.seq)
    }

    fn bucket(&self, slot: u32) -> usize {
        tick(self.slots[slot as usize].deadline) as usize % WHEEL_BUCKETS
    }

    /// Puts `slot` into its wheel bucket after every timer due no later:
    /// it was registered last, so that is its `(deadline, seq)` place.
    fn link(&mut self, slot: u32) {
        let b = self.bucket(slot);
        let deadline = self.slots[slot as usize].deadline;
        let mut prev = self.bucket_tail[b];
        while prev != NIL && self.slots[prev as usize].deadline > deadline {
            prev = self.slots[prev as usize].prev;
        }
        let next = match prev {
            NIL => self.bucket_head[b],
            p => self.slots[p as usize].next,
        };
        let t = &mut self.slots[slot as usize];
        t.pos = IN_WHEEL;
        t.prev = prev;
        t.next = next;
        match prev {
            NIL => self.bucket_head[b] = slot,
            p => self.slots[p as usize].next = slot,
        }
        match next {
            NIL => self.bucket_tail[b] = slot,
            n => self.slots[n as usize].prev = slot,
        }
        self.occupied[b / 64] |= 1 << (b % 64);
        self.in_wheel += 1;
    }

    fn unlink(&mut self, slot: u32) {
        let b = self.bucket(slot);
        let TimerSlot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.bucket_head[b] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.bucket_tail[b] = prev,
            n => self.slots[n as usize].prev = prev,
        }
        if self.bucket_head[b] == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.in_wheel -= 1;
    }

    /// The head of the first non-empty bucket at or after now's, wrapping
    /// once round the wheel.
    fn wheel_first(&self, now: SimTime) -> Option<u32> {
        if self.in_wheel == 0 {
            return None;
        }
        let words = self.occupied.len();
        let start = tick(now) as usize % WHEEL_BUCKETS;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        // The start word is visited twice: its bits at or after `start`
        // first, then (a full turn later) the ones before it.
        for _ in 0..=words {
            if bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                return Some(self.bucket_head[b]);
            }
            word = (word + 1) % words;
            bits = self.occupied[word];
        }
        unreachable!("a non-empty wheel has an occupied bucket")
    }

    fn heap_key(&self, pos: usize) -> (SimTime, u64) {
        self.key(self.heap[pos])
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a as u32;
        self.slots[self.heap[b] as usize].pos = b as u32;
    }

    /// Moves the heap entry at `pos` up to its place; true if it moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let start = pos;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap_key(pos) >= self.heap_key(parent) {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
        pos != start
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap_key(right) < self.heap_key(left) {
                right
            } else {
                left
            };
            if self.heap_key(pos) <= self.heap_key(child) {
                return;
            }
            self.swap(pos, child);
            pos = child;
        }
    }
}

/// Stores `waker` in `stored`, keeping the stored waker when it already
/// wakes the same task: a re-poll then costs no clone.
pub(crate) fn store_waker(stored: &mut Option<Waker>, waker: &Waker) {
    match stored {
        Some(w) if w.will_wake(waker) => {}
        _ => *stored = Some(waker.clone()),
    }
}

pub(crate) struct Inner {
    now: Cell<SimTime>,
    tasks: RefCell<TaskSlab>,
    ready: Rc<ReadyQueue>,
    timers: RefCell<TimerTable>,
}

thread_local! {
    static CURRENT: RefCell<Vec<Rc<Inner>>> = const { RefCell::new(Vec::new()) };
}

fn with_current<R>(f: impl FnOnce(&Rc<Inner>) -> R) -> R {
    CURRENT.with(|c| {
        let stack = c.borrow();
        let inner = stack
            .last()
            .expect("no simulation is running on this thread; call this from inside Sim::run_until or hold a Sim handle");
        f(inner)
    })
}

struct EnterGuard;

impl EnterGuard {
    fn new(inner: Rc<Inner>) -> Self {
        CURRENT.with(|c| c.borrow_mut().push(inner));
        EnterGuard
    }
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// A deterministic discrete-event simulation runtime.
///
/// `Sim` is a cheap reference-counted handle; clones refer to the same
/// simulation. Build one, spawn root tasks, then drive it with
/// [`Sim::run_until`] or [`Sim::run`].
///
/// Its `Debug` output shows the clock, the live tasks and the live timers:
/// `timers` counts armed sleeps only ([`Sim::pending_timers`]), since a
/// dropped sleep leaves the timer table at once.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{Sim, SimDuration};
///
/// let sim = Sim::new();
/// let out = sim.run_until(async {
///     catfish_simnet::sleep(SimDuration::from_micros(5)).await;
///     catfish_simnet::now()
/// });
/// assert_eq!(out.as_nanos(), 5_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.inner.now.get())
            .field("tasks", &self.inner.tasks.borrow().len())
            .field("timers", &self.pending_timers())
            .finish()
    }
}

impl Sim {
    /// Creates a fresh simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(SimTime::ZERO),
                tasks: RefCell::new(TaskSlab::default()),
                ready: Rc::default(),
                timers: RefCell::new(TimerTable::default()),
            }),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Live timers: armed sleeps that have neither fired nor been dropped.
    /// A dropped sleep leaves at once, so this is at most the sleeps that
    /// parked tasks are waiting on. `Debug` prints it as `timers`.
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.borrow().len()
    }

    /// Spawned tasks that have not finished. `Debug` prints it as `tasks`.
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().len()
    }

    /// Spawns a task onto the simulation and returns a handle to its result.
    ///
    /// The task does not run until the simulation is driven.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let id = self.inner.tasks.borrow_mut().claim();
        let task = Rc::new(TaskCell {
            header: Header {
                id,
                ready: Rc::clone(&self.inner.ready),
                thread: thread_mark(),
            },
            join: RefCell::new(JoinState {
                result: None,
                waker: None,
                detached: false,
            }),
            future: RefCell::new(Some(fut)),
        });
        self.inner.tasks.borrow_mut().park(id, task.clone());
        self.inner.ready.borrow_mut().push_back(id);
        JoinHandle { task }
    }

    /// Runs the simulation until `fut` completes and returns its output.
    ///
    /// Other tasks keep running as long as they are ready or have timers
    /// scheduled before the completion point; once `fut` resolves, execution
    /// stops at the current virtual instant (remaining tasks are simply no
    /// longer polled).
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks: `fut` is not complete but no task
    /// is ready and no timer is pending.
    pub fn run_until<T, F>(&self, fut: F) -> T
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let handle = self.spawn(fut);
        let _guard = EnterGuard::new(Rc::clone(&self.inner));
        loop {
            self.drain_ready();
            if let Some(out) = handle.take_result() {
                return out;
            }
            if !self.fire_next_timer(None) {
                panic!(
                    "simulation deadlock at t={}: root future pending, nothing ready, no timers",
                    self.now()
                );
            }
        }
    }

    /// Runs until no task is ready and no timer is pending (quiescence).
    pub fn run(&self) {
        let _guard = EnterGuard::new(Rc::clone(&self.inner));
        loop {
            self.drain_ready();
            if !self.fire_next_timer(None) {
                return;
            }
        }
    }

    /// Runs for at most `dur` of virtual time, then stops (leaving later
    /// timers pending). Returns at quiescence if that happens sooner.
    pub fn run_for(&self, dur: SimDuration) {
        let deadline = self.now() + dur;
        let _guard = EnterGuard::new(Rc::clone(&self.inner));
        loop {
            self.drain_ready();
            if !self.fire_next_timer(Some(deadline)) {
                // Either quiescent or the next timer is past the deadline.
                if self.now() < deadline {
                    self.inner.now.set(deadline);
                }
                return;
            }
        }
    }

    fn drain_ready(&self) {
        loop {
            let next = self.inner.ready.borrow_mut().pop_front();
            let Some(id) = next else { return };
            // Take the task out while polling so the task body may freely
            // spawn siblings (which mutates the slab).
            let Some(task) = self.inner.tasks.borrow_mut().take(id) else {
                continue; // completed task woken redundantly
            };
            // SAFETY: the pointer is `Rc::as_ptr` of `task` itself.
            match unsafe { task.poll(Rc::as_ptr(&task).cast()) } {
                Poll::Ready(()) => {
                    self.inner.tasks.borrow_mut().release(id);
                    // `task` drops here, outside the slab borrow: if it
                    // is the last count, the wakers it holds drop too.
                }
                Poll::Pending => {
                    self.inner.tasks.borrow_mut().park(id, task);
                }
            }
        }
    }

    /// Advances the clock to the next timer (bounded by `limit`) and
    /// wakes every timer scheduled at that instant, in registration order.
    /// Returns false if there was no eligible timer.
    fn fire_next_timer(&self, limit: Option<SimTime>) -> bool {
        let Some(deadline) = self.inner.timers.borrow().next_deadline(self.now()) else {
            return false;
        };
        if limit.is_some_and(|limit| deadline > limit) {
            return false;
        }
        debug_assert!(deadline >= self.now(), "timer scheduled in the past");
        self.inner.now.set(deadline);
        loop {
            // Taken out first, so the waker runs outside the table borrow.
            let waker = self.inner.timers.borrow_mut().pop_due(deadline);
            match waker {
                Some(waker) => waker.wake(),
                None => return true,
            }
        }
    }
}

impl Inner {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    /// Set when the handle is dropped: the output is then dropped as soon
    /// as the task returns it.
    detached: bool,
}

/// Handle to a spawned task's result. Awaiting it yields the task output.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    task: Rc<dyn Joinable<T>>,
}

impl<T> JoinHandle<T> {
    /// Takes the task's output, if it has finished and not been taken.
    fn take_result(&self) -> Option<T> {
        self.task.join().borrow_mut().result.take()
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("completed", &self.task.join().borrow().result.is_some())
            .finish()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.task.join().borrow_mut();
        match s.result.take() {
            Some(out) => Poll::Ready(out),
            None => {
                store_waker(&mut s.waker, cx.waker());
                Poll::Pending
            }
        }
    }
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        let mut s = self.task.join().borrow_mut();
        s.detached = true;
        let out = s.result.take();
        drop(s);
        drop(out);
    }
}

/// The current virtual time of the simulation running on this thread.
///
/// # Panics
///
/// Panics when called outside a running simulation.
pub fn now() -> SimTime {
    with_current(|i| i.now())
}

/// Like [`now`], but returns `None` outside a running simulation (useful
/// in `Drop` implementations that may run during teardown).
pub fn try_now() -> Option<SimTime> {
    CURRENT.with(|c| c.borrow().last().map(|i| i.now()))
}

/// Spawns a task onto the simulation running on this thread.
///
/// # Panics
///
/// Panics when called outside a running simulation.
pub fn spawn<T, F>(fut: F) -> JoinHandle<T>
where
    T: 'static,
    F: Future<Output = T> + 'static,
{
    with_current(|i| {
        Sim {
            inner: Rc::clone(i),
        }
        .spawn(fut)
    })
}

/// Sleeps for `dur` of virtual time.
///
/// # Panics
///
/// The returned future panics if polled outside a running simulation.
pub fn sleep(dur: SimDuration) -> Sleep {
    Sleep {
        dur: Some(dur),
        deadline: SimTime::ZERO,
        timer: None,
    }
}

/// Sleeps until the virtual instant `deadline` (no-op if already past).
pub fn sleep_until(deadline: SimTime) -> Sleep {
    Sleep {
        dur: None,
        deadline,
        timer: None,
    }
}

/// Future returned by [`sleep`] and [`sleep_until`].
///
/// Dropping an unfired `Sleep` cancels its timer: it leaves the
/// simulation's timer table at once and does not hold the clock hostage.
#[derive(Debug)]
pub struct Sleep {
    dur: Option<SimDuration>,
    deadline: SimTime,
    /// The simulation the timer is armed in, and its key there.
    timer: Option<(Weak<Inner>, TimerKey)>,
}

impl Sleep {
    fn disarm(&mut self) {
        if let Some((sim, key)) = self.timer.take() {
            // A simulation already gone took its timers with it.
            if let Some(inner) = sim.upgrade() {
                inner.timers.borrow_mut().cancel(key);
            }
        }
    }
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        with_current(|inner| {
            if let Some(dur) = this.dur.take() {
                this.deadline = inner.now() + dur;
            }
            if inner.now() >= this.deadline {
                this.disarm();
                return Poll::Ready(());
            }
            if let Some((sim, key)) = &this.timer {
                if Weak::as_ptr(sim) == Rc::as_ptr(inner)
                    && inner.timers.borrow_mut().set_waker(*key, cx.waker())
                {
                    return Poll::Pending;
                }
                // Armed in another simulation: it moves to this one.
                this.disarm();
            }
            let key = inner
                .timers
                .borrow_mut()
                .arm(this.deadline, cx.waker().clone(), inner.now());
            this.timer = Some((Rc::downgrade(inner), key));
            Poll::Pending
        })
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// Yields once, letting every other ready task run before this one resumes.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::task::Wake;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new();
        let t = sim.run_until(async {
            sleep(SimDuration::from_secs(3600)).await;
            now()
        });
        assert_eq!(t.as_nanos(), 3600 * 1_000_000_000);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let order = sim.run_until(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..3u32 {
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    sleep(SimDuration::from_nanos(10 * (3 - i) as u64)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let v = sim.run_until(async {
            let h = spawn(async {
                sleep(SimDuration::from_nanos(1)).await;
                42
            });
            h.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let sim = Sim::new();
        let order = sim.run_until(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4u32 {
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    sleep(SimDuration::from_nanos(100)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_for_stops_at_deadline() {
        let sim = Sim::new();
        sim.spawn(async {
            loop {
                sleep(SimDuration::from_millis(10)).await;
            }
        });
        sim.run_for(SimDuration::from_millis(35));
        assert_eq!(sim.now().as_nanos(), 35_000_000);
    }

    #[test]
    fn run_reaches_quiescence() {
        let sim = Sim::new();
        sim.spawn(async {
            sleep(SimDuration::from_micros(7)).await;
        });
        sim.run();
        assert_eq!(sim.now().as_nanos(), 7_000);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        sim.run_until(std::future::pending::<()>());
    }

    #[test]
    fn yield_now_lets_others_run() {
        let sim = Sim::new();
        let log = sim.run_until(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let l1 = Rc::clone(&log);
            let h = spawn(async move {
                l1.borrow_mut().push("other");
            });
            log.borrow_mut().push("before");
            yield_now().await;
            h.await;
            log.borrow_mut().push("after");
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(log, vec!["before", "other", "after"]);
    }

    #[test]
    fn a_task_keeps_one_waker_across_polls() {
        let sim = Sim::new();
        let seen = sim.run_until(async {
            let seen: Rc<RefCell<Vec<Waker>>> = Rc::default();
            let log = Rc::clone(&seen);
            let h = spawn(async move {
                for _ in 0..3 {
                    std::future::poll_fn(|cx| {
                        log.borrow_mut().push(cx.waker().clone());
                        Poll::Ready(())
                    })
                    .await;
                    sleep(SimDuration::from_nanos(1)).await;
                }
            });
            h.await;
            Rc::try_unwrap(seen).unwrap().into_inner()
        });
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|w| w.will_wake(&seen[0])));
        // Waking the finished task is a no-op, not a poll of a dead task.
        seen[0].wake_by_ref();
        sim.run();
        assert!(sim.inner.tasks.borrow().is_empty());
    }

    #[test]
    fn stale_waker_does_not_poll_the_task_reusing_its_slot() {
        let sim = Sim::new();
        let stale: Rc<RefCell<Option<Waker>>> = Rc::default();
        let keep = Rc::clone(&stale);
        sim.spawn(std::future::poll_fn(move |cx| {
            *keep.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        // A pending task that nothing wakes: it is polled once at spawn.
        let polls = Rc::new(Cell::new(0u32));
        let count = Rc::clone(&polls);
        sim.spawn(std::future::poll_fn(move |_| {
            count.set(count.get() + 1);
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(polls.get(), 1);
        assert_eq!(sim.inner.tasks.borrow().slots.len(), 1, "slot not reused");
        stale.borrow_mut().take().expect("waker captured").wake();
        sim.run();
        assert_eq!(polls.get(), 1, "a stale waker polled the slot's new task");
        assert_eq!(sim.inner.tasks.borrow().len(), 1);
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let sim = Sim::new();
        sim.run_until(async {
            sleep(SimDuration::from_micros(10)).await;
            sleep_until(SimTime::from_nanos(5)).await; // already past
            assert_eq!(now().as_nanos(), 10_000);
        });
    }

    #[test]
    fn nested_sims_are_independent() {
        let outer = Sim::new();
        let outer_view = outer.clone();
        let t = outer.run_until(async move {
            sleep(SimDuration::from_micros(1)).await;
            // One timer parked in the outer table while the inner runs.
            spawn(sleep(SimDuration::from_secs(3600)));
            yield_now().await;
            let inner = Sim::new();
            let inner_view = inner.clone();
            let inner_t = inner.run_until(async move {
                sleep(SimDuration::from_micros(9)).await;
                spawn(sleep(SimDuration::from_micros(5)));
                yield_now().await;
                assert_eq!(inner_view.pending_timers(), 1);
                now()
            });
            assert_eq!(outer_view.pending_timers(), 1);
            inner.run();
            assert_eq!(inner.pending_timers(), 0);
            assert_eq!(inner.now().as_nanos(), 14_000);
            assert_eq!(outer_view.pending_timers(), 1);
            (now(), inner_t)
        });
        assert_eq!(t.0.as_nanos(), 1_000);
        assert_eq!(t.1.as_nanos(), 9_000);
    }

    #[test]
    fn a_sleep_outliving_its_sim_drops_cleanly() {
        let sim = Sim::new();
        let parked = sim.spawn(std::future::pending::<u32>());
        let finished = sim.spawn(async { 7u32 });
        let armed: Rc<RefCell<Option<Sleep>>> = Rc::default();
        let keep = Rc::clone(&armed);
        sim.run_until(async move {
            let mut s = sleep(SimDuration::from_secs(1));
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut s).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            *keep.borrow_mut() = Some(s);
        });
        assert_eq!(sim.pending_timers(), 1);
        assert_eq!(sim.live_tasks(), 1);
        drop(sim);
        drop(armed);
        // Both join handles outlive the simulation too: the unfinished
        // task never resolves, the finished one still yields its output.
        let mut cx = Context::from_waker(Waker::noop());
        let (mut parked, mut finished) = (parked, finished);
        assert!(Pin::new(&mut parked).poll(&mut cx).is_pending());
        assert_eq!(Pin::new(&mut finished).poll(&mut cx), Poll::Ready(7));
        drop(parked);
    }

    /// Counts the drops of the futures it is moved into.
    struct DropCounter(Rc<Cell<usize>>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn dropping_a_sim_drops_every_parked_future() {
        use crate::sync::{channel, Notify};
        let dropped = Rc::new(Cell::new(0));
        let counter = || DropCounter(Rc::clone(&dropped));
        let sim = Sim::new();
        // Each parked future holds a count on its own task cell through
        // its waker: in its own Notify's waiter, in its own channel, in a
        // sibling's join state, or in the timer table.
        let g = counter();
        sim.spawn(async move {
            let _g = g;
            let notify = Notify::new();
            notify.notified().await;
        });
        let g = counter();
        sim.spawn(async move {
            let _g = g;
            let (_tx, mut rx) = channel::<u32>();
            rx.recv().await;
        });
        let (g, sibling_g) = (counter(), counter());
        sim.spawn(async move {
            let _g = g;
            let sibling = spawn(async move {
                let _g = sibling_g;
                let notify = Notify::new();
                notify.notified().await;
            });
            sibling.await;
        });
        let g = counter();
        sim.spawn(async move {
            let _g = g;
            sleep(SimDuration::from_secs(3600)).await;
        });
        sim.run_for(SimDuration::from_micros(1));
        assert_eq!(sim.live_tasks(), 5);
        assert_eq!(dropped.get(), 0);
        drop(sim);
        assert_eq!(dropped.get(), 5, "a parked future outlived its simulation");
    }

    #[test]
    fn a_task_waker_refuses_other_threads() {
        use crate::sync::Notify;
        let sim = Sim::new();
        let notify = Notify::new();
        let n = notify.clone();
        let captured: Rc<RefCell<Option<Waker>>> = Rc::default();
        let keep = Rc::clone(&captured);
        let task = sim.spawn(async move {
            std::future::poll_fn(|cx| {
                *keep.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            })
            .await;
            n.notified().await;
            42
        });
        sim.run();
        let waker = captured.borrow_mut().take().expect("waker captured");
        let count = || {
            let tasks = sim.inner.tasks.borrow();
            Rc::strong_count(tasks.slots[0].task.as_ref().expect("parked"))
        };
        let before = count();
        let off_thread = |f: fn(Waker)| {
            let w = waker.clone();
            std::thread::spawn(move || f(w)).join()
        };
        assert!(off_thread(|w| w.wake_by_ref()).is_err());
        assert!(off_thread(Waker::wake).is_err());
        assert!(off_thread(|w| drop(w.clone())).is_err());
        assert!(off_thread(drop).is_ok());
        // Each clone sent away was leaked there, never given back.
        assert_eq!(count(), before + 4, "a foreign thread touched the count");
        assert!(sim.inner.ready.borrow().is_empty());
        for _ in 0..4 {
            // SAFETY: reclaims, on the simulation's thread, one of the
            // counts the foreign threads leaked: the rebuilt waker owns it.
            drop(unsafe { Waker::from_raw(RawWaker::new(waker.data(), waker.vtable())) });
        }
        assert_eq!(count(), before);
        notify.notify_one();
        assert_eq!(sim.run_until(task), 42);
        assert_eq!(sim.live_tasks(), 0);
    }

    /// Records its id and the clock each time a timer wakes it.
    struct Recorder {
        id: usize,
        log: Arc<Mutex<Vec<(usize, SimTime)>>>,
    }

    impl Wake for Recorder {
        fn wake(self: Arc<Self>) {
            self.log.lock().unwrap().push((self.id, now()));
        }
    }

    /// Polls `s` once inside `sim` with `waker`.
    fn poll_in(sim: &Sim, s: Sleep, waker: &Waker) -> (Sleep, Poll<()>) {
        let waker = waker.clone();
        sim.run_until(async move {
            let mut s = s;
            let polled = Pin::new(&mut s).poll(&mut Context::from_waker(&waker));
            (s, polled)
        })
    }

    /// The first deadline past the wheel at `now`: the earliest one that
    /// goes into the heap.
    fn horizon(now: SimTime) -> SimTime {
        SimTime::from_nanos((tick(now) + WHEEL_BUCKETS as u64) << TICK_SHIFT)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random arm, re-poll, cancel and advance steps against a model
        /// ordered by (deadline, registration order). Deadlines span both
        /// tiers: a few nanoseconds ahead (so many timers share one), equal
        /// to a live timer's, at the wheel's horizon and one nanosecond
        /// either side of it, anywhere in the wheel's span, and up to 2 s
        /// ahead. Advances step a few nanoseconds, about one wheel span, or
        /// up to 2 s, so heap timers come due while wheel timers wait.
        #[test]
        fn timer_table_matches_an_ordered_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..1_000, 1u64..2_000_000_000),
                1..300,
            )
        ) {
            use std::collections::BTreeMap;
            const NEAR: u64 = 10;
            let span = (WHEEL_BUCKETS as u64) << TICK_SHIFT;
            let ns = SimDuration::from_nanos;
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let recorder = |id| Waker::from(Arc::new(Recorder { id, log: Arc::clone(&log) }));
            // Per timer id: the Sleep (None once dropped) and its waker.
            let mut sleeps: Vec<(Option<Sleep>, Waker)> = Vec::new();
            let mut model: BTreeMap<(SimTime, usize), usize> = BTreeMap::new();
            let mut armed_key: Vec<Option<(SimTime, usize)>> = Vec::new();
            let mut expected = Vec::new();
            for (kind, arg, far) in ops {
                let live: Vec<usize> =
                    (0..sleeps.len()).filter(|&i| sleeps[i].0.is_some()).collect();
                match kind {
                    0 => {
                        let id = sleeps.len();
                        let now = sim.now();
                        let deadline = match arg % 8 {
                            1 if !model.is_empty() => {
                                model.keys().nth(far as usize % model.len()).unwrap().0
                            }
                            2 => horizon(now) - ns(1),
                            3 => horizon(now),
                            4 => horizon(now) + ns(1),
                            5 => now + ns(span),
                            6 => now + ns(far % span),
                            7 => now + ns(far),
                            _ => now + ns(NEAR * (1 + arg / 8 % 4)),
                        };
                        let waker = recorder(id);
                        let (s, polled) = poll_in(&sim, sleep_until(deadline), &waker);
                        proptest::prop_assert!(polled.is_pending());
                        model.insert((deadline, id), id);
                        armed_key.push(Some((deadline, id)));
                        sleeps.push((Some(s), waker));
                    }
                    1 if !live.is_empty() => {
                        // Re-poll with the same waker or a fresh one that
                        // wakes the same id: the timer keeps its place.
                        let id = live[arg as usize % live.len()];
                        if arg % 2 == 1 {
                            sleeps[id].1 = recorder(id);
                        }
                        let s = sleeps[id].0.take().unwrap();
                        let (s, polled) = poll_in(&sim, s, &sleeps[id].1);
                        sleeps[id].0 = Some(s);
                        let fired = armed_key[id].is_none();
                        proptest::prop_assert_eq!(polled.is_ready(), fired);
                    }
                    2 if !live.is_empty() => {
                        // Dropping a fired Sleep cancels nothing, even when
                        // its slot now holds another timer.
                        let id = live[arg as usize % live.len()];
                        drop(sleeps[id].0.take());
                        if let Some(k) = armed_key[id].take() {
                            model.remove(&k);
                        }
                    }
                    _ => {
                        let step = match arg % 3 {
                            0 => arg % (3 * NEAR),
                            1 => span - 64 + arg % 128,
                            _ => far,
                        };
                        let limit = sim.now() + ns(step);
                        while let Some((&k, &id)) = model.iter().next() {
                            if k.0 > limit {
                                break;
                            }
                            model.remove(&k);
                            armed_key[id] = None;
                            expected.push((id, k.0));
                        }
                        sim.run_for(limit - sim.now());
                        proptest::prop_assert_eq!(sim.now(), limit);
                    }
                }
                proptest::prop_assert_eq!(&*log.lock().unwrap(), &expected);
                proptest::prop_assert_eq!(sim.pending_timers(), model.len());
            }
        }
    }
}
