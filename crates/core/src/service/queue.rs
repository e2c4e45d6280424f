//! The one bounded FIFO under the `QrService` worker pool.
//!
//! Every queued unit — a factorization or a `factor_many` batch — travels
//! through the same `Mutex<VecDeque>` (`std` primitives only: the
//! workspace builds offline, no `crossbeam`). Backpressure lives here:
//! [`Fifo::push`] blocks at capacity. Items pop in push order. A
//! `factor_many` batch spreads itself over the pool through
//! [`Fifo::reoffer`].
//!
//! The schedule is invisible to the arithmetic: every queued unit is
//! independent (factorizations, batch panels writing disjoint result
//! slots), so no worker ever waits on another.
//!
//! The queue also tracks its *consumers*: each worker deregisters on exit
//! (normal shutdown or a panic escaping the job guard), and once none
//! remain every pending and future push fails with
//! [`PushError::Closed`] instead of blocking forever on a full queue —
//! the typed `ServiceError::ShuttingDown` path for a service handle that
//! outlives its pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC FIFO: producers block at capacity, consumers sleep while it
/// is empty.
pub(crate) struct Fifo<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Live consumers (workers). Starts at the pool width; each worker
    /// deregisters on exit. At zero, pushes fail instead of blocking.
    consumers: AtomicUsize,
}

/// Why a push was refused: the queue was closed — or its last consumer
/// exited, so the item could never be drained. The item is handed back.
pub(crate) enum PushError<T> {
    Closed(T),
}

/// RAII consumer registration; dropping it (normal exit or unwind) counts
/// the worker out and, when it was the last, wakes every blocked producer
/// so they fail fast instead of waiting on a drained-by-nobody queue.
pub(crate) struct ConsumerGuard<'a, T> {
    queue: &'a Fifo<T>,
}

impl<T> Drop for ConsumerGuard<'_, T> {
    fn drop(&mut self) {
        if self.queue.consumers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last consumer out: nobody will ever pop again. Wake blocked
            // producers (they observe `live_consumers() == 0` and fail)
            // and any sibling consumers mid-teardown.
            let _g = self.queue.lock();
            self.queue.not_full.notify_all();
            self.queue.not_empty.notify_all();
        }
    }
}

impl<T> Fifo<T> {
    /// Creates a queue for `workers` consumers that admits at most
    /// `capacity` items (`capacity ≥ 1`).
    pub fn new(capacity: usize, workers: usize) -> Fifo<T> {
        Fifo {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            consumers: AtomicUsize::new(workers.max(1)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The fixed admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of workers that have not yet exited.
    pub fn live_consumers(&self) -> usize {
        self.consumers.load(Ordering::SeqCst)
    }

    /// Registers the calling worker as a consumer for its lifetime. The
    /// pool width was pre-counted at construction, so this only arms the
    /// on-exit decrement.
    pub fn consumer(&self) -> ConsumerGuard<'_, T> {
        ConsumerGuard { queue: self }
    }

    /// Enqueues `item`, blocking while the queue is full. Fails when the
    /// queue has been closed or its last consumer has exited.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        loop {
            if g.closed || self.live_consumers() == 0 {
                return Err(PushError::Closed(item));
            }
            if g.items.len() < self.capacity {
                break;
            }
            g = self.not_full.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Puts a popped item back, behind everything already queued, for the
    /// next idle worker to pop as well. For a running job offering the rest
    /// of itself to its siblings — a `factor_many` batch — which was
    /// already admitted, so neither the capacity bound nor a close refuses
    /// it and it never waits. While it sits in the queue it occupies the
    /// slot its submission was admitted into.
    pub fn reoffer(&self, item: T) {
        self.lock().items.push_back(item);
        self.not_empty.notify_one();
    }

    /// Dequeues the oldest item, blocking while the queue is empty; returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending items remain poppable (close is a drain,
    /// not a cancel), new pushes fail, and all blocked producers/consumers
    /// wake.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fifo_within_capacity() {
        let q = Fifo::new(4, 2);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.pop(), Some(0));
        assert!(q.push(9).is_ok());
        for expect in [1, 2, 3, 9] {
            assert_eq!(q.pop(), Some(expect));
        }
    }

    #[test]
    fn reoffer_is_accepted_when_full_or_closed_and_goes_behind_the_queue() {
        let q = Fifo::new(2, 2);
        q.push('a').ok().unwrap();
        q.push('b').ok().unwrap();
        q.reoffer('r'); // full: accepted anyway, without waiting
        q.close();
        q.reoffer('s'); // closed: accepted anyway
        assert!(matches!(q.push('x'), Err(PushError::Closed('x'))));
        for expect in ['a', 'b', 'r', 's'] {
            assert_eq!(q.pop(), Some(expect));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_drains_then_ends_and_the_end_is_sticky() {
        let q = Fifo::new(8, 2);
        q.push(1).ok().unwrap();
        q.push(2).ok().unwrap();
        q.close();
        assert!(matches!(q.push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "end-of-stream is sticky");
    }

    #[test]
    fn blocking_push_applies_backpressure() {
        let q = Fifo::new(1, 1);
        q.push(0usize).ok().unwrap();
        let (pushed_tx, pushed_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Blocks until the pop below makes room.
                q.push(1).ok().unwrap();
                pushed_tx.send(()).unwrap();
            });
            assert!(
                pushed_rx.recv_timeout(std::time::Duration::from_millis(50)).is_err(),
                "a push onto a full queue must wait"
            );
            assert_eq!(q.pop(), Some(0));
            pushed_rx.recv().unwrap();
        });
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn last_consumer_exit_fails_pending_and_future_pushes() {
        let q = Fifo::new(1, 1);
        q.push(0usize).ok().unwrap(); // queue now full
        std::thread::scope(|s| {
            s.spawn(|| {
                // Blocked on the full queue until the consumer dies...
                assert!(matches!(q.push(1), Err(PushError::Closed(1))));
            });
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                let _guard = q.consumer();
                // ...which happens here, without ever popping.
            });
        });
        assert_eq!(q.live_consumers(), 0);
        assert!(matches!(q.push(2), Err(PushError::Closed(2))));
    }

    #[test]
    fn sleeping_worker_wakes_for_a_reoffer() {
        let q = Fifo::new(4, 2);
        std::thread::scope(|s| {
            let woken = s.spawn(|| q.pop());
            // Give the worker time to find the queue empty and sleep: the
            // re-offer below then finds it asleep and must wake it.
            std::thread::sleep(std::time::Duration::from_millis(50));
            q.reoffer(7);
            assert_eq!(woken.join().unwrap(), Some(7));
        });
    }
}
