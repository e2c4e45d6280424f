//! The two halves of one submitted unit: the [`JobHandle`] the caller
//! redeems and the [`Ticket`] the queued work carries.
//!
//! Every submission — a factorization or a whole `factor_many` batch — is
//! admitted by [`Ticket::admit`] and checked at dequeue by
//! [`Ticket::dequeue_reject`], so admission control, lazy cancellation and
//! deadline expiry each live in exactly one place. The completion [`Slot`]
//! and the [`JobHandle`] over it are generic only so a batch can deliver
//! its per-panel results through them; every handle a caller receives
//! delivers one [`QrReport`].

use super::stats::Recorder;
use super::ServiceError;
use crate::driver::QrReport;
use dense::fault::FaultHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Completion slot shared between a worker and a handle: empty until the
/// worker delivers the outcome.
pub(super) struct Slot<T> {
    outcome: Mutex<Option<Result<T, ServiceError>>>,
    done: Condvar,
}

impl<T> Slot<T> {
    /// Delivers the outcome and wakes the waiter.
    pub(super) fn complete(&self, outcome: Result<T, ServiceError>) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.done.notify_all();
    }
}

/// Handle to one submitted factorization, delivering its [`QrReport`]
/// once: [`JobHandle::wait`] consumes it, and a handle is not `Clone`. The
/// type parameter serves the service's internal batch slot only.
#[must_use = "a submitted job's outcome is only observable through its handle"]
pub struct JobHandle<T = QrReport> {
    slot: Arc<Slot<T>>,
    cancel: Arc<AtomicBool>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JobHandle<T> {
    /// Blocks until the job completes, returning its outcome or error.
    pub fn wait(self) -> Result<T, ServiceError> {
        let mut g = self.slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = g.take() {
                return outcome;
            }
            g = self.slot.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Requests cancellation. Lazy, like deadlines: if the job is still
    /// queued when a worker pops it, the handle resolves to
    /// [`ServiceError::Cancelled`] without executing; a job already
    /// running (or already finished) is unaffected and delivers its real
    /// outcome. Idempotent, callable from any thread holding the handle.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the job has already completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.slot.outcome.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

/// What every queued unit carries from admission to dequeue: when it was
/// admitted, the deadline budget it must start within, the cancellation
/// flag it shares with its [`JobHandle`], and the fault schedule its
/// submitter was armed with, which the worker runs it under.
pub(super) struct Ticket {
    pub(super) enqueued: Instant,
    deadline: Option<Duration>,
    cancel: Arc<AtomicBool>,
    pub(super) faults: FaultHandle,
}

impl Ticket {
    /// Admission control, the single entry for every submission: a
    /// deadline the pool's observed p99 queue wait already exceeds is shed
    /// with [`ServiceError::Overloaded`] — it would almost certainly expire
    /// at dequeue anyway, and shedding keeps the queue slot for work
    /// that can still meet its deadline. Everything else is stamped with
    /// the time and the calling thread's fault schedule, and admitted.
    pub(super) fn admit(stats: &Recorder, deadline: Option<Duration>) -> Result<Ticket, ServiceError> {
        if let Some(budget) = deadline {
            let queue_p99 = stats.queue_wait.summary().p99;
            if queue_p99 > budget {
                stats.shed_one();
                return Err(ServiceError::Overloaded { queue_p99, budget });
            }
        }
        Ok(Ticket {
            enqueued: Instant::now(),
            deadline,
            cancel: Arc::new(AtomicBool::new(false)),
            faults: FaultHandle::current(),
        })
    }

    /// The caller's half of this ticket, with the slot the worker will
    /// complete.
    pub(super) fn handle<T>(&self) -> (Arc<Slot<T>>, JobHandle<T>) {
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let handle = JobHandle {
            slot: Arc::clone(&slot),
            cancel: Arc::clone(&self.cancel),
        };
        (slot, handle)
    }

    /// The single dequeue-time check, run by the worker that picked the
    /// unit up at `picked`: records the queue wait, then returns the typed
    /// error to deliver instead of executing — cancellation first, then an
    /// expired deadline — or `None` when the unit should run.
    pub(super) fn dequeue_reject(&self, stats: &Recorder, picked: Instant) -> Option<ServiceError> {
        let waited = picked.duration_since(self.enqueued);
        stats.queue_wait.record(waited);
        if self.cancel.load(Ordering::Relaxed) {
            stats.cancelled_one();
            return Some(ServiceError::Cancelled);
        }
        match self.deadline {
            Some(budget) if waited >= budget => {
                stats.expired_one();
                Some(ServiceError::DeadlineExceeded { waited, budget })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending() -> (Arc<Slot<u32>>, JobHandle<u32>) {
        Ticket::admit(&Recorder::new(), None).unwrap().handle()
    }

    #[test]
    fn a_completed_slot_finishes_its_handle_and_wait_delivers_the_outcome() {
        let (slot, handle) = pending();
        assert!(!handle.is_finished());
        slot.complete(Ok(7));
        assert!(handle.is_finished());
        assert_eq!(handle.wait(), Ok(7));
    }

    #[test]
    fn dequeue_reject_prefers_cancellation_and_counts_each_rejection_once() {
        let stats = Recorder::new();
        let ticket = Ticket::admit(&stats, Some(Duration::from_secs(1))).unwrap();
        let (_slot, handle) = ticket.handle::<u32>();
        assert!(ticket.dequeue_reject(&stats, ticket.enqueued).is_none());
        let late = ticket.enqueued + Duration::from_secs(2);
        assert!(matches!(
            ticket.dequeue_reject(&stats, late),
            Some(ServiceError::DeadlineExceeded { waited, budget })
                if waited == Duration::from_secs(2) && budget == Duration::from_secs(1)
        ));
        handle.cancel();
        assert_eq!(ticket.dequeue_reject(&stats, late), Some(ServiceError::Cancelled));
        let snap = stats.snapshot();
        assert_eq!((snap.expired, snap.cancelled, snap.queue_wait.count), (1, 1, 3));
    }
}
