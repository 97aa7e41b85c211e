//! The one-shot result cell behind a [`Ticket`].
//!
//! A ticket is one `Arc<Mutex<..>>` cell shared with the worker's reply.
//! Resolving it is two steps: *fill* stores the result and takes the
//! caller's thread if the caller is blocked in [`Ticket::wait`]; *wake*
//! unparks that thread. A worker that resolves several tickets fills them
//! all before it wakes anyone ([`Wakes`]).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

use cqap_common::{CqapError, Result};

/// The error a ticket resolves to when its [`Reply`] was dropped unsent
/// (a torn-down runtime, a job that panicked), or when its value was
/// already taken.
fn disconnected() -> CqapError {
    CqapError::Other("serve runtime dropped the request".into())
}

/// A ticket's one-shot result cell, shared by the [`Reply`] that resolves
/// it and the [`Ticket`] that reads it.
struct Slot<A> {
    /// The result, from the moment the reply resolves the ticket until
    /// the ticket takes it.
    value: Option<Result<A>>,
    /// Set once the reply resolved the ticket (sent, or dropped unsent):
    /// an empty `value` then means "already taken", not "still running".
    resolved: bool,
    /// The thread blocked in [`Ticket::wait`], if one registered; the
    /// reply unparks it.
    waiter: Option<Thread>,
}

type Cell<A> = Arc<Mutex<Slot<A>>>;

/// Every update leaves the slot valid, so a poisoned cell is still read;
/// this also keeps `Reply`'s drop from panicking.
fn lock<A>(cell: &Cell<A>) -> MutexGuard<'_, Slot<A>> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A one-shot result cell: the [`Reply`] a worker resolves and the
/// [`Ticket`] its caller waits on.
pub(crate) fn oneshot<A>() -> (Reply<A>, Ticket<A>) {
    let cell = Arc::new(Mutex::new(Slot {
        value: None,
        resolved: false,
        waiter: None,
    }));
    (
        Reply {
            cell: Some(Arc::clone(&cell)),
        },
        Ticket { cell },
    )
}

/// The resolving half of a ticket's one-shot result cell. Resolving is
/// two steps: [`fill`](Reply::fill) stores the result and hands back the
/// thread parked on the ticket, if any; waking unparks it. Sending does
/// both at once; dropping it unsent resolves the ticket with the
/// disconnect error instead, so a ticket never hangs.
pub(crate) struct Reply<A> {
    /// `None` once filled, so the drop that follows a fill does nothing.
    cell: Option<Cell<A>>,
}

impl<A> Reply<A> {
    /// Resolves the ticket without waking its waiter: the caller owns the
    /// returned thread and must unpark it (through [`Wakes`]).
    #[must_use]
    pub(crate) fn fill(mut self, result: Result<A>) -> Option<Thread> {
        self.cell.take().and_then(|cell| fill(&cell, result))
    }

    /// Fill and wake, for a ticket resolved on its own.
    pub(crate) fn send(self, result: Result<A>) {
        if let Some(waiter) = self.fill(result) {
            waiter.unpark();
        }
    }
}

impl<A> Drop for Reply<A> {
    fn drop(&mut self) {
        if let Some(waiter) = self.cell.take().and_then(|cell| fill(&cell, Err(disconnected()))) {
            waiter.unpark();
        }
    }
}

/// Stores `result` in the cell, marks it resolved and takes the waiter
/// that registered, to be unparked outside the lock; a ticket nobody
/// blocks on costs no wake-up.
fn fill<A>(cell: &Cell<A>, result: Result<A>) -> Option<Thread> {
    let mut slot = lock(cell);
    slot.value = Some(result);
    slot.resolved = true;
    slot.waiter.take()
}

/// The waiters of one job's filled tickets, unparked together once every
/// ticket is filled. Dropping it is the wake, so an unwind between a fill
/// and the wake still unparks every filled ticket's waiter. The first
/// waiter is kept inline: a job with one recipient allocates nothing.
#[derive(Default)]
pub(crate) struct Wakes {
    first: Option<Thread>,
    rest: Vec<Thread>,
}

impl Wakes {
    pub(crate) fn add(&mut self, waiter: Option<Thread>) {
        match self.first {
            None => self.first = waiter,
            Some(_) => self.rest.extend(waiter),
        }
    }
}

impl Drop for Wakes {
    fn drop(&mut self) {
        for waiter in self.first.take().into_iter().chain(self.rest.drain(..)) {
            waiter.unpark();
        }
    }
}

/// A one-shot handle to the answer of a single submitted request.
pub struct Ticket<A> {
    cell: Cell<A>,
}

impl<A> Ticket<A> {
    /// Blocks until the answer is ready.
    ///
    /// # Errors
    /// Returns the answering error, or an internal error if the runtime was
    /// torn down before the request ran.
    pub fn wait(self) -> Result<A> {
        let mut slot = lock(&self.cell);
        if !slot.resolved {
            slot.waiter = Some(thread::current());
        }
        // Parking may wake spuriously (or on a stale unpark): re-check.
        while !slot.resolved {
            drop(slot);
            thread::park();
            slot = lock(&self.cell);
        }
        slot.value.take().unwrap_or_else(|| Err(disconnected()))
    }

    /// Non-blocking poll; `None` while the answer is still being computed.
    /// A torn-down runtime (or a request that panicked mid-answer) yields
    /// `Some(Err(..))`, never a stuck `None`; so does every poll after the
    /// one that returned the answer.
    pub fn try_wait(&self) -> Option<Result<A>> {
        let mut slot = lock(&self.cell);
        slot.resolved
            .then(|| slot.value.take().unwrap_or_else(|| Err(disconnected())))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Tickets cross threads (the router waits on shard tickets, callers
    /// hand tickets to pollers).
    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<Ticket<Arc<cqap_relation::Relation>>>();
    };

    /// Spins until a thread blocked in `wait` has registered on the
    /// reply's cell (it parks right after, outside the lock).
    pub(crate) fn until_parked<A>(reply: &Reply<A>) {
        let cell = reply.cell.as_ref().expect("unsent reply");
        let patience = Instant::now() + Duration::from_secs(10);
        while lock(cell).waiter.is_none() {
            assert!(Instant::now() < patience, "the waiter never registered");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_reply_dropped_unsent_resolves_its_ticket_with_an_error() {
        let (reply, ticket) = oneshot::<u64>();
        assert!(ticket.try_wait().is_none(), "unresolved");
        drop(reply);
        let polled = ticket.try_wait().expect("resolved by the drop");
        assert_eq!(polled.unwrap_err().to_string(), disconnected().to_string());
        assert!(ticket.wait().is_err());

        // A waiter already blocked in `wait` is woken by the drop.
        let (reply, ticket) = oneshot::<u64>();
        let (outcome, woke) = mpsc::channel();
        std::thread::spawn(move || outcome.send(ticket.wait()));
        until_parked(&reply);
        drop(reply);
        let error = woke
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked waiter woke")
            .expect_err("dropped unsent");
        assert_eq!(error.to_string(), disconnected().to_string());
    }

    #[test]
    fn a_poll_after_the_answer_is_an_error_never_a_stuck_none() {
        let (reply, ticket) = oneshot::<u64>();
        reply.send(Ok(7));
        assert_eq!(ticket.try_wait().unwrap().unwrap(), 7);
        for _ in 0..3 {
            assert!(
                ticket.try_wait().is_some_and(|again| again.is_err()),
                "the taken value reads as an error, not as pending"
            );
        }
        assert!(ticket.wait().is_err());
    }

    #[test]
    fn a_parked_waiter_wakes_on_every_send() {
        const ROUNDS: u64 = 10_000;
        let (tickets, parked) = mpsc::channel::<Ticket<u64>>();
        let (answers, woke) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            for ticket in parked {
                answers.send(ticket.wait().unwrap()).expect("test alive");
            }
        });
        for round in 0..ROUNDS {
            let (reply, ticket) = oneshot();
            tickets.send(ticket).expect("waiter alive");
            until_parked(&reply);
            reply.send(Ok(round));
            let answer = woke
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("round {round}: the parked waiter never woke"));
            assert_eq!(answer, round);
        }
        drop(tickets);
        waiter.join().unwrap();
    }

    /// The wake guard unparks on unwind: a panic between a fill and the
    /// wake cannot leave the filled ticket's caller parked.
    #[test]
    fn a_wake_guard_unparks_during_unwind() {
        let (reply, ticket) = oneshot::<u64>();
        let (outcome, woke) = mpsc::channel();
        let waiter = std::thread::spawn(move || outcome.send(ticket.wait()).expect("test alive"));
        until_parked(&reply);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut wakes = Wakes::default();
            wakes.add(reply.fill(Ok(7)));
            panic!("between the fill and the wake");
        }));
        assert!(unwound.is_err());
        let answer = woke
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked waiter woke during the unwind");
        assert_eq!(answer.unwrap(), 7);
        waiter.join().unwrap();
    }
}
