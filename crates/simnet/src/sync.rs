//! Task synchronization primitives for simulation code.
//!
//! All primitives here are single-threaded (`Rc`-based) because the
//! simulation executor never crosses threads; they synchronize *tasks*, not
//! OS threads. Each is fair (FIFO) so that simulations remain deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::executor::store_waker;

// ---------------------------------------------------------------------------
// oneshot
// ---------------------------------------------------------------------------

/// Creates a oneshot channel: a single value handed from one task to another.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{sync, Sim};
///
/// let sim = Sim::new();
/// let got = sim.run_until(async {
///     let (tx, rx) = sync::oneshot::<u32>();
///     catfish_simnet::spawn(async move { tx.send(7); });
///     rx.await.unwrap()
/// });
/// assert_eq!(got, 7);
/// ```
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shared = Rc::new(RefCell::new(OneshotState {
        value: None,
        waker: None,
        closed: false,
    }));
    (
        OneshotSender {
            shared: Rc::clone(&shared),
        },
        OneshotReceiver { shared },
    )
}

struct OneshotState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    closed: bool,
}

/// Sending half of a [`oneshot`] channel.
pub struct OneshotSender<T> {
    shared: Rc<RefCell<OneshotState<T>>>,
}

/// Receiving half of a [`oneshot`] channel. Awaiting it yields
/// `Ok(value)` or [`RecvError`] if the sender was dropped without sending.
pub struct OneshotReceiver<T> {
    shared: Rc<RefCell<OneshotState<T>>>,
}

impl<T> fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotSender").finish_non_exhaustive()
    }
}
impl<T> fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotReceiver").finish_non_exhaustive()
    }
}

impl<T> OneshotSender<T> {
    /// Delivers `value` to the receiver, waking it if it is waiting.
    pub fn send(self, value: T) {
        let mut s = self.shared.borrow_mut();
        s.value = Some(value);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.closed = true;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

/// Error returned when a channel's sending side is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel sender dropped without sending")
    }
}
impl std::error::Error for RecvError {}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, RecvError>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.shared.borrow_mut();
        if let Some(v) = s.value.take() {
            return Poll::Ready(Ok(v));
        }
        if s.closed {
            return Poll::Ready(Err(RecvError));
        }
        store_waker(&mut s.waker, cx.waker());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// mpsc (unbounded)
// ---------------------------------------------------------------------------

/// Creates an unbounded multi-producer single-consumer channel.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{sync, Sim};
///
/// let sim = Sim::new();
/// let sum = sim.run_until(async {
///     let (tx, mut rx) = sync::channel::<u32>();
///     for i in 1..=3 {
///         let tx = tx.clone();
///         catfish_simnet::spawn(async move { tx.send(i); });
///     }
///     drop(tx);
///     let mut sum = 0;
///     while let Some(v) = rx.recv().await {
///         sum += v;
///     }
///     sum
/// });
/// assert_eq!(sum, 6);
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(ChannelState {
        queue: VecDeque::new(),
        waker: None,
        senders: 1,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    waker: Option<Waker>,
    senders: usize,
}

/// Sending half of an unbounded [`channel`]. Cloneable.
pub struct Sender<T> {
    shared: Rc<RefCell<ChannelState<T>>>,
}

/// Receiving half of an unbounded [`channel`].
pub struct Receiver<T> {
    shared: Rc<RefCell<ChannelState<T>>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("queued", &self.shared.borrow().queue.len())
            .finish()
    }
}
impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("queued", &self.shared.borrow().queue.len())
            .finish()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.borrow_mut().senders += 1;
        Sender {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking the receiver if it is waiting.
    pub fn send(&self, value: T) {
        let mut s = self.shared.borrow_mut();
        s.queue.push_back(value);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, waiting if none is queued. Yields `None`
    /// once every sender is dropped and the queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Takes a queued message without waiting.
    pub fn try_recv(&mut self) -> Option<T> {
        self.shared.borrow_mut().queue.pop_front()
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
#[derive(Debug)]
pub struct Recv<'a, T> {
    receiver: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.receiver.shared.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        store_waker(&mut s.waker, cx.waker());
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

/// An edge-triggered wakeup primitive, like a condition variable for tasks.
///
/// A call to [`Notify::notify_one`] wakes exactly one waiter (or stores one
/// permit if none is waiting).
#[derive(Clone, Default)]
pub struct Notify {
    shared: Rc<RefCell<NotifyState>>,
}

#[derive(Default)]
struct NotifyState {
    permits: usize,
    waiters: VecDeque<Weak<RefCell<NotifyWaiter>>>,
}

struct NotifyWaiter {
    notified: bool,
    waker: Option<Waker>,
}

impl fmt::Debug for Notify {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("Notify")
            .field("permits", &s.permits)
            .field("waiters", &s.waiters.len())
            .finish()
    }
}

impl Notify {
    /// Creates a new `Notify` with no stored permits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes the oldest waiter, or stores a permit for the next call to
    /// [`Notify::notified`].
    pub fn notify_one(&self) {
        let mut s = self.shared.borrow_mut();
        while let Some(weak) = s.waiters.pop_front() {
            if let Some(w) = weak.upgrade() {
                let mut w = w.borrow_mut();
                w.notified = true;
                if let Some(wk) = w.waker.take() {
                    wk.wake();
                }
                return;
            }
        }
        s.permits += 1;
    }

    /// Waits until notified (consumes a stored permit immediately if one
    /// exists).
    pub fn notified(&self) -> Notified {
        Notified {
            shared: Rc::clone(&self.shared),
            waiter: None,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    shared: Rc<RefCell<NotifyState>>,
    waiter: Option<Rc<RefCell<NotifyWaiter>>>,
}

impl fmt::Debug for Notified {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Notified").finish_non_exhaustive()
    }
}

impl Future for Notified {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.waiter.is_none() {
            let mut s = self.shared.borrow_mut();
            if s.permits > 0 {
                s.permits -= 1;
                return Poll::Ready(());
            }
            let waiter = Rc::new(RefCell::new(NotifyWaiter {
                notified: false,
                waker: Some(cx.waker().clone()),
            }));
            s.waiters.push_back(Rc::downgrade(&waiter));
            drop(s);
            self.waiter = Some(waiter);
            return Poll::Pending;
        }
        let waiter = self.waiter.as_ref().expect("waiter set above");
        let mut w = waiter.borrow_mut();
        if w.notified {
            Poll::Ready(())
        } else {
            store_waker(&mut w.waker, cx.waker());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

/// A fair (FIFO) counting semaphore for tasks.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{sync::Semaphore, Sim, SimDuration};
///
/// let sim = Sim::new();
/// sim.run_until(async {
///     let sem = Semaphore::new(1);
///     let _permit = sem.acquire().await;
///     assert_eq!(sem.available(), 0);
/// });
/// ```
#[derive(Clone)]
pub struct Semaphore {
    shared: Rc<RefCell<SemState>>,
}

struct SemState {
    available: usize,
    waiters: VecDeque<Rc<RefCell<SemWaiter>>>,
}

struct SemWaiter {
    granted: bool,
    cancelled: bool,
    waker: Option<Waker>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("Semaphore")
            .field("available", &s.available)
            .field("waiters", &s.waiters.len())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            shared: Rc::new(RefCell::new(SemState {
                available: permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Acquires one permit, waiting in FIFO order if none is available.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            shared: Rc::clone(&self.shared),
            waiter: None,
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.shared.borrow().available
    }
}

impl SemState {
    fn release_one(&mut self) {
        // Hand the permit to the oldest live waiter, else return it.
        while let Some(w) = self.waiters.pop_front() {
            let mut inner = w.borrow_mut();
            if inner.cancelled {
                continue;
            }
            inner.granted = true;
            if let Some(wk) = inner.waker.take() {
                wk.wake();
            }
            return;
        }
        self.available += 1;
    }
}

/// A held semaphore permit; released on drop.
pub struct SemPermit {
    shared: Rc<RefCell<SemState>>,
}

impl fmt::Debug for SemPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SemPermit").finish_non_exhaustive()
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        self.shared.borrow_mut().release_one();
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    shared: Rc<RefCell<SemState>>,
    waiter: Option<Rc<RefCell<SemWaiter>>>,
}

impl fmt::Debug for Acquire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Acquire").finish_non_exhaustive()
    }
}

impl Future for Acquire {
    type Output = SemPermit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<SemPermit> {
        if self.waiter.is_none() {
            let mut s = self.shared.borrow_mut();
            if s.available > 0 && s.waiters.is_empty() {
                s.available -= 1;
                drop(s);
                return Poll::Ready(SemPermit {
                    shared: Rc::clone(&self.shared),
                });
            }
            let waiter = Rc::new(RefCell::new(SemWaiter {
                granted: false,
                cancelled: false,
                waker: Some(cx.waker().clone()),
            }));
            s.waiters.push_back(Rc::clone(&waiter));
            drop(s);
            self.waiter = Some(waiter);
            return Poll::Pending;
        }
        let granted = {
            let waiter = self.waiter.as_ref().expect("waiter set above");
            let mut w = waiter.borrow_mut();
            if w.granted {
                true
            } else {
                store_waker(&mut w.waker, cx.waker());
                false
            }
        };
        if granted {
            self.waiter = None;
            Poll::Ready(SemPermit {
                shared: Rc::clone(&self.shared),
            })
        } else {
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(waiter) = self.waiter.take() {
            let mut w = waiter.borrow_mut();
            if w.granted {
                // Granted but never consumed: pass the permit on.
                drop(w);
                self.shared.borrow_mut().release_one();
            } else {
                w.cancelled = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Sim};
    use crate::time::SimDuration;

    #[test]
    fn oneshot_delivers_value() {
        let sim = Sim::new();
        let v = sim.run_until(async {
            let (tx, rx) = oneshot::<&str>();
            spawn(async move {
                sleep(SimDuration::from_nanos(5)).await;
                tx.send("hi");
            });
            rx.await
        });
        assert_eq!(v, Ok("hi"));
    }

    #[test]
    fn oneshot_reports_dropped_sender() {
        let sim = Sim::new();
        let v = sim.run_until(async {
            let (tx, rx) = oneshot::<u8>();
            drop(tx);
            rx.await
        });
        assert_eq!(v, Err(RecvError));
    }

    #[test]
    fn channel_preserves_order() {
        let sim = Sim::new();
        let got = sim.run_until(async {
            let (tx, mut rx) = channel::<u32>();
            for i in 0..10 {
                tx.send(i);
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn channel_recv_waits_for_send() {
        let sim = Sim::new();
        let (v, t) = sim.run_until(async {
            let (tx, mut rx) = channel::<u32>();
            spawn(async move {
                sleep(SimDuration::from_micros(3)).await;
                tx.send(99);
            });
            let v = rx.recv().await;
            (v, crate::executor::now())
        });
        assert_eq!(v, Some(99));
        assert_eq!(t.as_nanos(), 3_000);
    }

    #[test]
    fn channel_try_recv_does_not_block() {
        let sim = Sim::new();
        sim.run_until(async {
            let (tx, mut rx) = channel::<u32>();
            assert_eq!(rx.try_recv(), None);
            tx.send(1);
            assert_eq!(rx.try_recv(), Some(1));
        });
    }

    #[test]
    fn notify_stores_one_permit() {
        let sim = Sim::new();
        sim.run_until(async {
            let n = Notify::new();
            n.notify_one();
            n.notify_one(); // permits do not exceed waiters+1 semantics: stored twice
            n.notified().await;
            n.notified().await;
        });
    }

    #[test]
    fn notify_wakes_fifo() {
        let sim = Sim::new();
        let order = sim.run_until(async {
            let n = Notify::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..3u32 {
                let n = n.clone();
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    n.notified().await;
                    log.borrow_mut().push(i);
                }));
            }
            sleep(SimDuration::from_nanos(1)).await;
            n.notify_one();
            n.notify_one();
            n.notify_one();
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let max_inside = sim.run_until(async {
            let sem = Semaphore::new(2);
            let inside = Rc::new(RefCell::new((0usize, 0usize))); // (current, max)
            let mut handles = Vec::new();
            for _ in 0..6 {
                let sem = sem.clone();
                let inside = Rc::clone(&inside);
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    {
                        let mut i = inside.borrow_mut();
                        i.0 += 1;
                        i.1 = i.1.max(i.0);
                    }
                    sleep(SimDuration::from_micros(1)).await;
                    inside.borrow_mut().0 -= 1;
                }));
            }
            for h in handles {
                h.await;
            }
            let v = inside.borrow().1;
            v
        });
        assert_eq!(max_inside, 2);
    }

    #[test]
    fn semaphore_is_fifo() {
        let sim = Sim::new();
        let order = sim.run_until(async {
            let sem = Semaphore::new(1);
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..4u32 {
                let sem = sem.clone();
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    log.borrow_mut().push(i);
                    sleep(SimDuration::from_nanos(10)).await;
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
    fn permit_released_on_drop() {
        let sim = Sim::new();
        sim.run_until(async {
            let sem = Semaphore::new(1);
            {
                let _p = sem.acquire().await;
                assert_eq!(sem.available(), 0);
            }
            assert_eq!(sem.available(), 1);
        });
    }
}
