//! The deterministic single-threaded executor and virtual clock.
//!
//! A [`Sim`] owns a slab of tasks (plain `Future`s, each with the one
//! waker built for it at spawn), a ready queue, and a timer table: a slab
//! of timer slots under an indexed binary min-heap ordered by deadline,
//! then registration order. A [`Sleep`] holds its slot's key, so dropping
//! an unfired sleep takes its timer out of the heap at once, and the table
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
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use crate::time::{SimDuration, SimTime};

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A task's slab slot and the slot's generation when the task was
/// spawned. A finished task's slot is reused with the next generation, so
/// a waker that outlives its task names a stale generation and wakes
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskId {
    slot: u32,
    generation: u32,
}

/// A spawned task and the waker built for it once, at spawn: every poll
/// of the task hands out this same waker.
struct Task {
    fut: LocalFuture,
    waker: Waker,
}

struct Slot {
    generation: u32,
    /// `None` while the slot is free or its task is being polled.
    task: Option<Task>,
}

/// The live tasks, indexed by slot: spawn reuses the most recently freed
/// slot, and a lookup is an index plus a generation compare.
#[derive(Default)]
struct TaskSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

/// Teardown drops the tasks still parked newest slot first, the reverse
/// of the order they were allocated in, so back-to-back simulations in
/// one process (catbench's repeated set-ups) reuse the freed memory
/// compactly. Forward order measured a higher peak RSS there
/// (EXPERIMENTS.md, "one pass per offloaded chunk").
impl Drop for TaskSlab {
    fn drop(&mut self) {
        while let Some(slot) = self.slots.pop() {
            drop(slot);
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
    fn park(&mut self, id: TaskId, task: Task) {
        let slot = &mut self.slots[id.slot as usize];
        debug_assert_eq!(slot.generation, id.generation, "parking into a reused slot");
        slot.task = Some(task);
    }

    /// Takes `id`'s task out for polling; `None` if the task finished
    /// (the generation moved on) or is already out.
    fn take(&mut self, id: TaskId) -> Option<Task> {
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

/// The shared ready queue. Wakers must be `Send + Sync`, so this lives
/// behind an `Arc<Mutex<_>>` even though the executor itself is
/// single-threaded.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready
            .queue
            .lock()
            .expect("ready queue poisoned")
            .push_back(self.id);
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

struct TimerSlot {
    deadline: SimTime,
    /// Registration order; breaks ties between equal deadlines.
    seq: u64,
    /// `Some` while armed.
    waker: Option<Waker>,
    /// This slot's index in [`TimerTable::heap`] while armed.
    pos: u32,
    generation: u32,
}

/// The pending timers: a slab of slots and a binary min-heap of the armed
/// slot ids ordered by `(deadline, seq)`. Each slot knows its heap
/// position, so a cancelled timer leaves the heap at once in O(log n)
/// instead of staying until its deadline; only live timers are ever held.
#[derive(Default)]
struct TimerTable {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    heap: Vec<u32>,
    next_seq: u64,
}

impl TimerTable {
    fn arm(&mut self, deadline: SimTime, waker: Waker) -> TimerKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                let t = &mut self.slots[slot as usize];
                t.deadline = deadline;
                t.seq = seq;
                t.waker = Some(waker);
                t.pos = pos;
                slot
            }
            None => {
                self.slots.push(TimerSlot {
                    deadline,
                    seq,
                    waker: Some(waker),
                    pos,
                    generation: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(slot);
        self.sift_up(pos as usize);
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
        if let Some(t) = self.armed(key) {
            let pos = t.pos as usize;
            self.remove(pos);
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.heap.first().map(|&s| self.slots[s as usize].deadline)
    }

    /// Disarms the earliest timer if it is due at `at` and returns its
    /// waker.
    fn pop_due(&mut self, at: SimTime) -> Option<Waker> {
        if self.next_deadline() != Some(at) {
            return None;
        }
        Some(self.remove(0))
    }

    /// Takes the heap entry at `pos` out, frees its slot and retires the
    /// slot's generation.
    fn remove(&mut self, pos: usize) -> Waker {
        let slot = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.slots[self.heap[pos] as usize].pos = pos as u32;
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
        let t = &mut self.slots[slot as usize];
        t.generation = t.generation.wrapping_add(1);
        self.free.push(slot);
        t.waker.take().expect("an armed timer holds a waker")
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn key(&self, pos: usize) -> (SimTime, u64) {
        let t = &self.slots[self.heap[pos] as usize];
        (t.deadline, t.seq)
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a as u32;
        self.slots[self.heap[b] as usize].pos = b as u32;
    }

    /// Moves the entry at `pos` up to its place; true if it moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let start = pos;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(pos) >= self.key(parent) {
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
            let child = if right < self.heap.len() && self.key(right) < self.key(left) {
                right
            } else {
                left
            };
            if self.key(pos) <= self.key(child) {
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
    ready: Arc<ReadyQueue>,
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
                ready: Arc::new(ReadyQueue::default()),
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
        let state = Rc::new(RefCell::new(JoinState::<T> {
            result: None,
            waker: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut s = state2.borrow_mut();
            s.result = Some(out);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        };
        let id = self.inner.tasks.borrow_mut().claim();
        let task = Task {
            fut: Box::pin(wrapped),
            waker: Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.inner.ready),
            })),
        };
        self.inner.tasks.borrow_mut().park(id, task);
        self.inner
            .ready
            .queue
            .lock()
            .expect("ready queue poisoned")
            .push_back(id);
        JoinHandle { state }
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
            if let Some(out) = handle.state.borrow_mut().result.take() {
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
            let next = self
                .inner
                .ready
                .queue
                .lock()
                .expect("ready queue poisoned")
                .pop_front();
            let Some(id) = next else { return };
            // Take the task out while polling so the task body may freely
            // spawn siblings (which mutates the slab).
            let Some(mut task) = self.inner.tasks.borrow_mut().take(id) else {
                continue; // completed task woken redundantly
            };
            let mut cx = Context::from_waker(&task.waker);
            match task.fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    self.inner.tasks.borrow_mut().release(id);
                    // `task` drops here, outside the slab borrow: its
                    // destructors may spawn or wake.
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
        let Some(deadline) = self.inner.timers.borrow().next_deadline() else {
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
}

/// Handle to a spawned task's result. Awaiting it yields the task output.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("completed", &self.state.borrow().result.is_some())
            .finish()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.result.take() {
            Some(out) => Poll::Ready(out),
            None => {
                store_waker(&mut s.waker, cx.waker());
                Poll::Pending
            }
        }
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
                .arm(this.deadline, cx.waker().clone());
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
        drop(sim);
        drop(armed);
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random arm, re-poll, cancel and advance steps against a model
        /// ordered by (deadline, registration order). Deadlines are drawn
        /// from a few ticks ahead, so many timers share one.
        #[test]
        fn timer_table_matches_an_ordered_model(
            ops in proptest::collection::vec((0u8..4, 0u64..1_000), 1..300)
        ) {
            use std::collections::BTreeMap;
            const TICK: u64 = 10;
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            let recorder = |id| Waker::from(Arc::new(Recorder { id, log: Arc::clone(&log) }));
            // Per timer id: the Sleep (None once dropped) and its waker.
            let mut sleeps: Vec<(Option<Sleep>, Waker)> = Vec::new();
            let mut model: BTreeMap<(SimTime, usize), usize> = BTreeMap::new();
            let mut armed_key: Vec<Option<(SimTime, usize)>> = Vec::new();
            let mut expected = Vec::new();
            for (kind, arg) in ops {
                let live: Vec<usize> =
                    (0..sleeps.len()).filter(|&i| sleeps[i].0.is_some()).collect();
                match kind {
                    0 => {
                        let id = sleeps.len();
                        let deadline = sim.now() + SimDuration::from_nanos(TICK * (1 + arg % 4));
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
                        let limit = sim.now() + SimDuration::from_nanos(arg % (3 * TICK));
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
