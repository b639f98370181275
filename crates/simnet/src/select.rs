//! A minimal biased two-way select for simulation tasks.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The outcome of [`select2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Races two futures, resolving with whichever completes first (biased
/// toward the first on simultaneous readiness). The loser is dropped.
///
/// Futures must be `Unpin`; pin them on the stack with [`std::pin::pin!`]
/// (or box them with `Box::pin`) if needed.
///
/// # Examples
///
/// ```
/// use catfish_simnet::{select2, sleep, Either, Sim, SimDuration};
///
/// let sim = Sim::new();
/// let won = sim.run_until(async {
///     let fast = std::pin::pin!(sleep(SimDuration::from_micros(1)));
///     let slow = std::pin::pin!(sleep(SimDuration::from_micros(9)));
///     matches!(select2(fast, slow).await, Either::Left(()))
/// });
/// assert!(won);
/// ```
pub fn select2<A, B>(a: A, b: B) -> Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    Select2 {
        a: Some(a),
        b: Some(b),
    }
}

/// Future returned by [`select2`].
#[derive(Debug)]
pub struct Select2<A, B> {
    a: Option<A>,
    b: Option<B>,
}

impl<A, B> Future for Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = Either<A::Output, B::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(out) = Pin::new(a).poll(cx) {
                return Poll::Ready(Either::Left(out));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(out) = Pin::new(b).poll(cx) {
                return Poll::Ready(Either::Right(out));
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, Sim};
    use crate::time::SimDuration;

    #[test]
    fn left_bias_on_tie() {
        let sim = Sim::new();
        let out = sim.run_until(async {
            let a = Box::pin(sleep(SimDuration::from_micros(5)));
            let b = Box::pin(sleep(SimDuration::from_micros(5)));
            select2(a, b).await
        });
        assert!(matches!(out, Either::Left(())));
    }

    #[test]
    fn right_wins_when_faster() {
        let sim = Sim::new();
        let out = sim.run_until(async {
            let a = Box::pin(sleep(SimDuration::from_micros(50)));
            let b = Box::pin(sleep(SimDuration::from_micros(5)));
            let r = select2(a, b).await;
            (r, now())
        });
        assert!(matches!(out.0, Either::Right(())));
        assert_eq!(out.1.as_nanos(), 5_000);
    }

    #[test]
    fn loser_is_cancelled() {
        // After select2 resolves, the losing sleep must leave the timer
        // table at once and not keep the simulation alive past its own
        // deadline, however many races lose.
        let sim = Sim::new();
        sim.run_until(async {
            for _ in 0..10_000 {
                let a = std::pin::pin!(sleep(SimDuration::from_nanos(1)));
                let b = std::pin::pin!(sleep(SimDuration::from_secs(3600)));
                assert!(matches!(select2(a, b).await, Either::Left(())));
            }
        });
        assert_eq!(sim.pending_timers(), 0);
        sim.run(); // drains remaining work
        assert_eq!(sim.now().as_nanos(), 10_000);
    }
}
