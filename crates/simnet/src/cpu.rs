//! A server CPU model: a fixed number of cores scheduled round-robin.
//!
//! Simulation "threads" (tasks) compete for cores through a fair FIFO queue.
//! [`CpuPool::run`] models preemptive execution: work is consumed in slices
//! of at most one scheduling quantum; if other threads are queued when a
//! slice ends, the thread goes to the back of the queue — exactly the OS
//! time-slicing behaviour that makes busy-polling servers collapse when
//! connections outnumber cores (paper Fig. 7).
//!
//! Busy time is accounted whenever a core is *held*, so a polling thread
//! that occupies a core while finding nothing to do still counts as busy —
//! matching how `top` would report it on the real server.

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::sleep;
use crate::sync::{SemPermit, Semaphore};
use crate::time::{SimDuration, SimTime};

#[derive(Default)]
struct Accounting {
    /// Completed core-hold time.
    busy: SimDuration,
    /// Start instants of currently-held cores.
    held_since: Vec<(u64, SimTime)>,
    next_hold_id: u64,
}

/// A pool of CPU cores with fair FIFO scheduling and a round-robin quantum.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{CpuPool, Sim, SimDuration};
///
/// let sim = Sim::new();
/// sim.run_until(async {
///     let cpu = CpuPool::new(2, SimDuration::from_millis(1));
///     cpu.run(SimDuration::from_micros(50)).await; // consumes 50us of a core
///     assert_eq!(cpu.busy_time(), SimDuration::from_micros(50));
/// });
/// ```
#[derive(Clone)]
pub struct CpuPool {
    sem: Semaphore,
    cores: usize,
    quantum: SimDuration,
    acct: Rc<RefCell<Accounting>>,
}

impl std::fmt::Debug for CpuPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuPool")
            .field("cores", &self.cores)
            .field("quantum", &self.quantum)
            .field("busy", &self.acct.borrow().busy)
            .finish()
    }
}

impl CpuPool {
    /// Creates a pool of `cores` cores with the given scheduling `quantum`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `quantum` is zero.
    pub fn new(cores: usize, quantum: SimDuration) -> Self {
        assert!(cores > 0, "a CPU pool needs at least one core");
        assert!(!quantum.is_zero(), "scheduling quantum must be positive");
        CpuPool {
            sem: Semaphore::new(cores),
            cores,
            quantum,
            acct: Rc::new(RefCell::new(Accounting::default())),
        }
    }

    /// Number of cores in the pool.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The round-robin scheduling quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Acquires a core, waiting FIFO behind other runnable threads.
    ///
    /// The returned guard accounts the hold as busy time; drop it to yield
    /// the core. Use this for threads that manage their own time slices
    /// (e.g. busy-polling loops); use [`CpuPool::run`] for plain compute.
    pub async fn acquire(&self) -> CoreGuard {
        let permit = self.sem.acquire().await;
        let start = crate::executor::now();
        let id = {
            let mut acct = self.acct.borrow_mut();
            let id = acct.next_hold_id;
            acct.next_hold_id += 1;
            acct.held_since.push((id, start));
            id
        };
        CoreGuard {
            permit: Some(permit),
            acct: Rc::clone(&self.acct),
            id,
        }
    }

    /// Executes `work` of compute, subject to preemption.
    ///
    /// The work is consumed in slices of at most one quantum; after each
    /// slice the thread is requeued behind any waiting threads. Completes
    /// when all the work has been executed.
    pub async fn run(&self, work: SimDuration) {
        let mut remaining = work;
        if remaining.is_zero() {
            return;
        }
        loop {
            let guard = self.acquire().await;
            let slice = remaining.min(self.quantum);
            sleep(slice).await;
            remaining -= slice;
            drop(guard);
            if remaining.is_zero() {
                return;
            }
            // Loop re-acquires: with waiters present this lands at the back
            // of the FIFO (round-robin); otherwise it resumes immediately.
        }
    }

    /// Cumulative core-busy time, including cores held right now.
    pub fn busy_time(&self) -> SimDuration {
        let now = crate::executor::now();
        let acct = self.acct.borrow();
        let mut total = acct.busy;
        for &(_, since) in &acct.held_since {
            total += now.saturating_duration_since(since);
        }
        total
    }

    /// Takes a utilization sample to diff against a later one.
    pub fn sample(&self) -> CpuSample {
        CpuSample {
            busy: self.busy_time(),
            at: crate::executor::now(),
        }
    }

    /// Average utilization in `[0, 1]` between two samples.
    ///
    /// Returns 0 for an empty window.
    pub fn utilization_between(&self, earlier: &CpuSample, later: &CpuSample) -> f64 {
        let window = later.at.saturating_duration_since(earlier.at);
        if window.is_zero() {
            return 0.0;
        }
        let busy = later.busy.saturating_sub(earlier.busy);
        (busy.as_nanos() as f64 / (window.as_nanos() as f64 * self.cores as f64)).min(1.0)
    }
}

/// A point-in-time utilization sample from [`CpuPool::sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSample {
    /// Cumulative busy time at the sample instant.
    pub busy: SimDuration,
    /// The sample instant.
    pub at: SimTime,
}

/// An exclusively held CPU core; accounts busy time until dropped.
pub struct CoreGuard {
    permit: Option<SemPermit>,
    acct: Rc<RefCell<Accounting>>,
    id: u64,
}

impl std::fmt::Debug for CoreGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreGuard").field("id", &self.id).finish()
    }
}

impl Drop for CoreGuard {
    fn drop(&mut self) {
        // During simulation teardown (tasks dropped outside the run loop)
        // there is no clock; skip accounting, nobody will read it.
        let Some(now) = crate::executor::try_now() else {
            self.permit.take();
            return;
        };
        let mut acct = self.acct.borrow_mut();
        if let Some(pos) = acct.held_since.iter().position(|&(id, _)| id == self.id) {
            let (_, since) = acct.held_since.swap_remove(pos);
            acct.busy += now.saturating_duration_since(since);
        }
        drop(acct);
        self.permit.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, spawn, Sim};

    #[test]
    fn run_consumes_virtual_time() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_millis(1));
            let t0 = now();
            cpu.run(SimDuration::from_micros(123)).await;
            assert_eq!(now() - t0, SimDuration::from_micros(123));
        });
    }

    #[test]
    fn zero_work_completes_instantly() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_millis(1));
            let t0 = now();
            cpu.run(SimDuration::ZERO).await;
            assert_eq!(now(), t0);
            assert_eq!(cpu.busy_time(), SimDuration::ZERO);
        });
    }

    #[test]
    fn parallel_work_uses_all_cores() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(4, SimDuration::from_millis(1));
            let t0 = now();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cpu = cpu.clone();
                    spawn(async move { cpu.run(SimDuration::from_micros(100)).await })
                })
                .collect();
            for h in handles {
                h.await;
            }
            // 4 jobs on 4 cores: finish in one job's time.
            assert_eq!(now() - t0, SimDuration::from_micros(100));
            assert_eq!(cpu.busy_time(), SimDuration::from_micros(400));
        });
    }

    #[test]
    fn oversubscription_serializes() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_millis(10));
            let t0 = now();
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let cpu = cpu.clone();
                    spawn(async move { cpu.run(SimDuration::from_micros(100)).await })
                })
                .collect();
            for h in handles {
                h.await;
            }
            assert_eq!(now() - t0, SimDuration::from_micros(300));
        });
    }

    #[test]
    fn quantum_preemption_round_robins() {
        // Two long jobs on one core with a short quantum: both finish at
        // nearly the same time (interleaved), not one after the other.
        let sim = Sim::new();
        let (end_a, end_b) = sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_micros(10));
            let ca = cpu.clone();
            let a = spawn(async move {
                ca.run(SimDuration::from_micros(100)).await;
                now()
            });
            let cb = cpu.clone();
            let b = spawn(async move {
                cb.run(SimDuration::from_micros(100)).await;
                now()
            });
            (a.await, b.await)
        });
        let gap = end_b.as_nanos().abs_diff(end_a.as_nanos());
        // With round-robin they end within one quantum of each other.
        assert!(gap <= 10_000, "jobs should interleave, gap was {gap}ns");
        assert_eq!(end_a.max(end_b).as_nanos(), 200_000);
    }

    #[test]
    fn utilization_sampling() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(2, SimDuration::from_millis(1));
            let s0 = cpu.sample();
            let c2 = cpu.clone();
            let h = spawn(async move { c2.run(SimDuration::from_micros(100)).await });
            crate::executor::sleep(SimDuration::from_micros(100)).await;
            h.await;
            let s1 = cpu.sample();
            // One of two cores busy for the whole window: 50%.
            let u = cpu.utilization_between(&s0, &s1);
            assert!((u - 0.5).abs() < 1e-9, "expected 0.5, got {u}");
        });
    }

    #[test]
    fn acquire_counts_idle_polling_as_busy() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_millis(1));
            {
                let _core = cpu.acquire().await;
                crate::executor::sleep(SimDuration::from_micros(500)).await;
            }
            assert_eq!(cpu.busy_time(), SimDuration::from_micros(500));
        });
    }

    #[test]
    fn busy_time_includes_inflight_holds() {
        let sim = Sim::new();
        sim.run_until(async {
            let cpu = CpuPool::new(1, SimDuration::from_millis(1));
            let _core = cpu.acquire().await;
            crate::executor::sleep(SimDuration::from_micros(30)).await;
            assert_eq!(cpu.busy_time(), SimDuration::from_micros(30));
        });
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CpuPool::new(0, SimDuration::from_millis(1));
    }
}
