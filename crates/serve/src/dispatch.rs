//! The admission front end: bounded ingress, per-request tickets, and
//! completion notifications.
//!
//! Clients interact with the service exclusively through a cloneable
//! [`Dispatcher`] handle. A request is only its ticket id, so the
//! **bounded** ingress queue is an id range: submitting reserves the next
//! id at the tail with one compare-and-swap, and each round the service
//! admits every queued id by moving the head up to the tail — one range
//! take per round, whatever the number of tickets. Submission never
//! blocks: when the queue is full the service is saturated and
//! [`Dispatcher::submit`] reports backpressure instead of queueing
//! unboundedly ([`SubmitError::Saturated`]). Each accepted
//! submission is identified by a [`Ticket`]; when the ball it became is
//! served by a bin, the service emits a [`Completion`] carrying the
//! measured waiting time in rounds.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::obs;

/// Identifies one submitted request. Ids are unique per service and
/// assigned consecutively in submission order; a refused submission uses
/// up no id, and the service admits tickets in id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket {
    id: u64,
}

impl Ticket {
    pub(crate) fn from_id(id: u64) -> Self {
        Ticket { id }
    }

    /// The ticket's unique id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ticket#{}", self.id)
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded ingress queue is full — the service is saturated.
    /// Back off and retry, or treat the request as shed (open-loop
    /// overload semantics).
    Saturated,
    /// The service has shut down; no further submissions will ever be
    /// accepted.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated => write!(f, "ingress queue full (backpressure)"),
            SubmitError::Closed => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Notification that a submitted request was served.
///
/// `waiting_rounds` is the paper's waiting time: the number of rounds
/// between the request's admission into the allocation pool and its
/// deletion from a bin's FIFO buffer (0 = served in its admission round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The ticket returned at submission time.
    pub ticket: Ticket,
    /// Global index of the bin that served the request.
    pub bin: u64,
    /// Round in which the request was admitted into the pool.
    pub admitted_round: u64,
    /// Round in which a bin served the request.
    pub served_round: u64,
    /// `served_round − admitted_round`.
    pub waiting_rounds: u64,
}

/// The bounded ingress queue shared by a service and its dispatchers: the
/// queued ticket ids are exactly `head..tail`.
///
/// Submitters move `tail`; only the owning service moves `head`, once per
/// round. The ids publish no other data: `head`'s release store pairs with
/// the submitters' acquire loads, and `tail`'s swaps with the admission's
/// acquire load, so each side sees the other's counter no older than its
/// last synchronisation.
#[derive(Debug)]
pub(crate) struct Ingress {
    /// The next ticket id to hand out (the checkpoint watermark).
    tail: AtomicU64,
    /// The first id not yet admitted.
    head: AtomicU64,
    capacity: u64,
    closed: AtomicBool,
}

impl Ingress {
    /// An empty queue of `capacity` ids whose first ticket id is
    /// `first_id` — on resume, the checkpoint's watermark, so new tickets
    /// never collide with ids handed out before the crash.
    pub(crate) fn new(capacity: usize, first_id: u64) -> Self {
        Ingress {
            tail: AtomicU64::new(first_id),
            head: AtomicU64::new(first_id),
            capacity: capacity as u64,
            closed: AtomicBool::new(false),
        }
    }

    /// Queued ids: an exact snapshot, never above the capacity.
    pub(crate) fn depth(&self) -> u64 {
        loop {
            let head = self.head.load(Ordering::Acquire);
            let tail = self.tail.load(Ordering::Acquire);
            // `head` only grows: unchanged across the `tail` load, it was
            // `head` at that instant, so `tail − head` was the depth then.
            if self.head.load(Ordering::Acquire) == head {
                return tail - head;
            }
        }
    }

    /// The next ticket id that would be assigned (checkpoint watermark).
    pub(crate) fn next_id(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Reserves the tail id if the queue has room.
    fn try_reserve(&self) -> Result<u64, SubmitError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SubmitError::Closed);
        }
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            // `head` is read after `tail` and only grows, so this
            // under-counts the depth if anything: a stale `tail` fails the
            // swap below, and a successful swap leaves at most `capacity`
            // ids queued. A stale `tail` below `head` reads as empty.
            let head = self.head.load(Ordering::Acquire);
            if tail.saturating_sub(head) >= self.capacity {
                return Err(SubmitError::Saturated);
            }
            match self.tail.compare_exchange_weak(
                tail,
                tail + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(tail),
                Err(seen) => tail = seen,
            }
        }
    }

    /// Admits every queued id, oldest first. Only the owning service
    /// calls this, so `head` has a single writer.
    pub(crate) fn take(&self) -> Range<u64> {
        let head = self.head.load(Ordering::Relaxed);
        let end = self.tail.load(Ordering::Acquire);
        if end > head {
            self.head.store(end, Ordering::Release);
        }
        head..end
    }

    /// Refuses every later submission with [`SubmitError::Closed`].
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

/// Cloneable client handle for submitting requests to a
/// [`CappedService`](crate::service::CappedService).
///
/// All clones share the same bounded ingress queue and ticket counter, so
/// any number of client threads can submit concurrently.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    ingress: Arc<Ingress>,
}

impl Dispatcher {
    pub(crate) fn new(ingress: Arc<Ingress>) -> Self {
        Dispatcher { ingress }
    }

    /// Requests currently enqueued awaiting admission: exact at one
    /// instant, and never above the ingress capacity
    /// ([`ServiceConfig::with_ingress_capacity`](crate::service::ServiceConfig::with_ingress_capacity)).
    pub fn depth(&self) -> usize {
        self.ingress.depth() as usize
    }

    /// Submits one request without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] if the ingress queue is full (the
    /// request is shed — resubmit to retry), [`SubmitError::Closed`] if
    /// the service is gone.
    pub fn submit(&self) -> Result<Ticket, SubmitError> {
        let result = self.ingress.try_reserve().map(Ticket::from_id);
        if let Some(p) = obs::probes() {
            p.submits.inc();
            match result {
                Err(SubmitError::Saturated) => p.submits_saturated.inc(),
                Err(SubmitError::Closed) => p.submits_closed.inc(),
                Ok(_) => {}
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_admits_the_oldest_ids_up_to_the_cap() {
        let ingress = Arc::new(Ingress::new(4, 100));
        let d = Dispatcher::new(Arc::clone(&ingress));
        for _ in 0..4 {
            d.submit().unwrap();
        }
        assert_eq!(d.submit(), Err(SubmitError::Saturated));
        assert_eq!(d.depth(), 4);
        assert_eq!(ingress.take(), 100..104);
        assert_eq!(d.depth(), 0);
        d.submit().unwrap();
        assert_eq!(ingress.take(), 104..105);
        assert_eq!(ingress.take(), 105..105);
        assert_eq!(ingress.next_id(), 105);
    }

    #[test]
    fn errors_display() {
        assert!(SubmitError::Saturated.to_string().contains("backpressure"));
        assert!(SubmitError::Closed.to_string().contains("shut down"));
        assert_eq!(Ticket::from_id(3).to_string(), "ticket#3");
    }
}
