//! Minimal block-parallel helper for the blocked backend, plus the
//! process-wide thread budget shared with pool-level schedulers.
//!
//! The workspace builds offline (no `rayon`), so parallelism is implemented
//! with `std::thread::scope`: a shared atomic counter hands out block
//! indices to a small pool of scoped workers. Work assignment is dynamic
//! (nondeterministic), but every block writes a disjoint region and each
//! block's arithmetic is self-contained, so results are bitwise independent
//! of the schedule.
//!
//! # The two layers of parallelism
//!
//! Two independent schedulers compete for the same cores:
//!
//! 1. **Block-level** — [`par_blocks`] inside one kernel call (one gemm
//!    splitting its row blocks across threads).
//! 2. **Pool-level** — a batch engine (e.g. `cacqr`'s `QrService`) running
//!    many whole factorizations concurrently, one per worker thread.
//!
//! If each kernel claimed the whole [`max_threads`] budget while a pool ran
//! `W` factorizations at once, the process would oversubscribe to
//! `W × max_threads` runnable threads. Pool schedulers therefore *register*
//! their workers with [`PoolReservation::register`]; while any reservation
//! is live, [`kernel_threads`] hands each kernel call its fair share
//! `max_threads / pool_workers` (at least 1) instead of the full budget.
//!
//! The share is *idle-aware*: a pool worker with nothing to do (parked on
//! its queue) can mark itself idle via [`pool_worker_idle`], and the fair
//! share divides by the workers actually running. A pool of 8 where 7
//! sleep hands the one straggler the whole budget — without this, the tail
//! job of every batch would limp along at 1/8th speed on an otherwise idle
//! machine. Pools that never mark idleness get the old static split.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker threads currently reserved by pool-level schedulers.
static POOL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Reserved pool workers currently parked (no work), per
/// [`pool_worker_idle`]. Always ≤ `POOL_WORKERS` while guards are scoped
/// inside reservations, which [`kernel_threads`] defends anyway.
static IDLE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Maximum worker threads for block-parallel kernels: the `CACQR_THREADS`
/// environment variable if set (`0` clamps to 1; a non-numeric value panics
/// naming it), else `std::thread::available_parallelism()`.
///
/// Resolved **once** per process via `OnceLock` — kernels on the hot path
/// never touch the environment — so the budget cannot change mid-run.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        threads_from_var(std::env::var("CACQR_THREADS").ok().as_deref()).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// The thread budget a `CACQR_THREADS` value selects; unset is the machine's
/// available parallelism.
fn threads_from_var(value: Option<&str>) -> Result<usize, String> {
    match value {
        None => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => Ok(n.max(1)),
            Err(e) => Err(format!("CACQR_THREADS={v:?}: {e} (expected a thread count)")),
        },
    }
}

/// Clamps a requested pool-level worker count to the process thread budget:
/// `thread_budget(0) == 1`, `thread_budget(usize::MAX) == max_threads()`.
///
/// Pool schedulers size their pools with this so that pool width alone never
/// exceeds the budget; the per-kernel share is then governed by the pool's
/// [`PoolReservation`].
pub fn thread_budget(requested: usize) -> usize {
    requested.clamp(1, max_threads())
}

/// Effective thread count for one block-parallel kernel call: the full
/// [`max_threads`] budget when no pool scheduler is active, otherwise the
/// fair share `max_threads / active_pool_workers`, never below 1 — where
/// workers marked idle via [`pool_worker_idle`] don't count against the
/// split (their share flows to the workers still running).
pub fn kernel_threads() -> usize {
    let pool = POOL_WORKERS.load(Ordering::Relaxed);
    let total = max_threads();
    if pool <= 1 {
        return total;
    }
    // Clamp idle at pool − 1: at least one worker (the caller) is running,
    // and a transiently stale idle count must never divide by zero.
    let idle = IDLE_WORKERS.load(Ordering::Relaxed).min(pool - 1);
    let active = pool - idle;
    if active <= 1 {
        total
    } else {
        (total / active).max(1)
    }
}

/// RAII marker that the calling pool worker is parked with no work: while
/// held, [`kernel_threads`] excludes this worker from the fair-share split,
/// so busy siblings inherit its cores. Dropping the guard (on wakeup)
/// reclaims the share. Only meaningful inside a live [`PoolReservation`].
#[derive(Debug)]
pub struct PoolIdleGuard(());

/// Marks the calling pool worker idle for the guard's lifetime.
pub fn pool_worker_idle() -> PoolIdleGuard {
    IDLE_WORKERS.fetch_add(1, Ordering::Relaxed);
    PoolIdleGuard(())
}

impl Drop for PoolIdleGuard {
    fn drop(&mut self) {
        IDLE_WORKERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII registration of a pool-level scheduler's workers against the shared
/// thread budget.
///
/// While alive, every kernel call in the process sees a reduced
/// [`kernel_threads`] so that `pool workers × kernel threads ≤ max_threads`
/// (up to rounding, and never starving a kernel below one thread). Dropping
/// the reservation restores the previous budget. Reservations stack: two
/// pools of 2 workers each count as 4.
#[derive(Debug)]
pub struct PoolReservation {
    workers: usize,
}

impl PoolReservation {
    /// Registers `workers` pool-level worker threads. Pass the *actual* pool
    /// width (typically already clamped via [`thread_budget`]).
    pub fn register(workers: usize) -> PoolReservation {
        POOL_WORKERS.fetch_add(workers, Ordering::Relaxed);
        PoolReservation { workers }
    }

    /// Number of workers this reservation holds.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for PoolReservation {
    fn drop(&mut self) {
        POOL_WORKERS.fetch_sub(self.workers, Ordering::Relaxed);
    }
}

/// Runs `f(0..nblocks)` across up to `threads` scoped workers.
///
/// `f` must be safe to call concurrently for distinct block indices (each
/// index must touch disjoint output). Falls back to a plain loop when one
/// worker suffices.
pub fn par_blocks<F: Fn(usize) + Sync>(nblocks: usize, threads: usize, f: F) {
    let workers = threads.min(nblocks);
    if workers <= 1 {
        for i in 0..nblocks {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= nblocks {
            break;
        }
        f(i);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work(); // the calling thread is worker 0
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_block_exactly_once() {
        let n = 97;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_blocks(n, 4, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn single_thread_path() {
        let hits: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
        par_blocks(5, 1, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn threads_variable_fails_closed() {
        assert!(threads_from_var(None).unwrap() >= 1);
        assert_eq!(threads_from_var(Some("4")), Ok(4));
        assert_eq!(threads_from_var(Some(" 4 ")), Ok(4));
        assert_eq!(threads_from_var(Some("0")), Ok(1));
        let err = threads_from_var(Some("four")).unwrap_err();
        assert!(err.contains("CACQR_THREADS") && err.contains("\"four\""), "{err}");
    }

    #[test]
    fn budget_clamps_to_process_maximum() {
        assert_eq!(thread_budget(0), 1);
        assert_eq!(thread_budget(1), 1);
        assert_eq!(thread_budget(usize::MAX), max_threads());
        assert!(thread_budget(2) <= max_threads());
    }

    /// Serializes tests that mutate the global reservation/idle counters.
    static RESERVATION_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn reservations_split_the_kernel_share_and_restore_on_drop() {
        let _serial = RESERVATION_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let before = kernel_threads();
        {
            let r = PoolReservation::register(max_threads().max(1) * 8);
            assert_eq!(r.workers(), max_threads().max(1) * 8);
            assert_eq!(kernel_threads(), 1, "oversubscribed pool must pin kernels to 1 thread");
        }
        assert_eq!(kernel_threads(), before, "dropping the reservation restores the budget");
    }

    #[test]
    fn idle_workers_return_their_share_and_reclaim_on_wake() {
        let _serial = RESERVATION_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let pool = max_threads().max(1) * 8;
        let _r = PoolReservation::register(pool);
        assert_eq!(kernel_threads(), 1, "fully busy oversubscribed pool splits to 1");
        {
            // All but one worker parked: the lone runner gets everything.
            let guards: Vec<_> = (0..pool - 1).map(|_| pool_worker_idle()).collect();
            assert_eq!(kernel_threads(), max_threads());
            drop(guards);
        }
        assert_eq!(kernel_threads(), 1, "woken workers reclaim their share");
        // Half idle: the share doubles (subject to the ≥1 floor).
        let _half: Vec<_> = (0..pool / 2).map(|_| pool_worker_idle()).collect();
        assert_eq!(kernel_threads(), (max_threads() / (pool - pool / 2)).max(1));
    }
}
