//! Grow-only scratch arenas: reuse algorithm temporaries and kernel pack
//! buffers instead of re-allocating them on every hot-path call.
//!
//! CholeskyQR2's factor path is called repeatedly on same-shape inputs — a
//! reusable [`QrPlan`](../../cacqr/driver/struct.QrPlan.html) factors many
//! matrices, a `QrService` worker factors thousands — and before this layer
//! every call re-allocated the same Gram matrices, broadcast buffers,
//! quadrant copies, and gemm pack panels. A [`Workspace`] is a free-list
//! arena for `Vec<f64>` storage: [`take_vec`](Workspace::take_vec) hands out
//! a buffer (recycling a parked one when any is large enough, growing it in
//! place otherwise), [`recycle_vec`](Workspace::recycle_vec) parks it again.
//! Capacities only grow, so after a warm-up call every `take` is served
//! without touching the heap — the *zero steady-state allocation* contract
//! the `alloc_steady_state` integration test pins down.
//!
//! Who holds one (the rule is stated once, in the [crate docs](crate)):
//! kernels above the `Backend` trait take views and a caller `Workspace`,
//! and so do the distributed drivers (`mm3d`, `cfr3d`, the CQR passes), so
//! the caller controls reuse across passes and across calls. `QrPlan` hands
//! each rank its arena out of a [`WorkspacePool`] — a shared, thread-safe set
//! of arenas — for the duration of its SPMD body, so `factor(&self)` stays
//! `&self` and repeated factors reuse warm buffers even though the simulator
//! spawns fresh rank threads per run. The thread-local arena
//! ([`with_thread_local`], per OS thread) serves the blocked kernel's pack
//! buffers, `cond_estimate`'s two vectors and the sequential `cqr`
//! helpers, nothing else.
//!
//! # Discipline
//!
//! Only *temporaries* come from a workspace: every `take` must be matched
//! by a `recycle` before the value escapes to a caller that does not know
//! about the arena. Outputs that escape (the factors in a `QrReport`) are
//! plain allocations — recycling foreign buffers would grow the pool
//! without bound. The accounting ([`Workspace::heap_allocations`],
//! [`WorkspacePool::heap_allocations`]) counts only *fresh heap
//! allocations performed by the arena*, which is exactly the quantity that
//! must stop growing once a workload reaches steady state.

use crate::matrix::{MatRef, Matrix};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A grow-only free-list arena for `f64` buffers. See the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parked buffers, sorted by capacity (ascending) for best-fit reuse.
    free: Vec<Vec<f64>>,
    /// Fresh heap allocations (new buffers + in-place growths) ever made.
    heap_allocations: usize,
    /// Total `take_*` calls served.
    takes: usize,
    /// Total buffers parked back.
    recycles: usize,
}

impl Workspace {
    /// An empty arena. Allocates nothing until the first `take`.
    pub const fn new() -> Workspace {
        Workspace {
            free: Vec::new(),
            heap_allocations: 0,
            takes: 0,
            recycles: 0,
        }
    }

    /// Hands out a buffer of exactly `len` elements with **unspecified
    /// contents** (stale data from a previous use is possible — callers
    /// must fully overwrite). Reuses the best-fitting parked buffer;
    /// allocates or grows only when nothing parked is large enough.
    pub fn take_vec(&mut self, len: usize) -> Vec<f64> {
        self.takes += 1;
        // Best fit: the smallest parked capacity that can hold `len`.
        let fit = self.free.partition_point(|b| b.capacity() < len);
        let mut buf = if fit < self.free.len() {
            self.free.remove(fit)
        } else if let Some(mut largest) = self.free.pop() {
            // Grow the largest parked buffer rather than stranding it:
            // capacities converge on the workload's high-water marks.
            self.heap_allocations += 1;
            largest.clear();
            largest.reserve_exact(len);
            largest
        } else {
            self.heap_allocations += 1;
            Vec::with_capacity(len)
        };
        // Within capacity: neither branch allocates. `truncate` leaves the
        // surviving prefix untouched (stale), `resize` zero-writes only the
        // extension — both keep every element initialized.
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Hands out an all-zero buffer of `len` elements.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_vec(len);
        buf.fill(0.0);
        buf
    }

    /// Hands out a zeroed `rows × cols` matrix backed by arena storage.
    /// Recycle it with [`recycle`](Workspace::recycle) when done.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_zeroed(rows * cols))
    }

    /// Hands out a `rows × cols` matrix with **unspecified contents** —
    /// the right call when every element is about to be overwritten anyway
    /// (a `gemm`/`syrk` `_into` destination with `β = 0`, a broadcast
    /// target, a copy destination); skips [`take_matrix`]'s zero pass.
    ///
    /// [`take_matrix`]: Workspace::take_matrix
    pub fn take_matrix_stale(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.take_vec(rows * cols))
    }

    /// Hands out an arena-backed copy of a view.
    pub fn take_copy(&mut self, src: MatRef<'_>) -> Matrix {
        let mut m = Matrix::from_vec(src.rows(), src.cols(), self.take_vec(src.rows() * src.cols()));
        m.as_mut().copy_from(src);
        m
    }

    /// Parks a buffer for reuse. Only hand back buffers obtained from *a*
    /// workspace (any arena in the same [`WorkspacePool`] is fine) — parking
    /// foreign buffers grows the inventory without bound.
    pub fn recycle_vec(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        self.recycles += 1;
        let at = self.free.partition_point(|b| b.capacity() < buf.capacity());
        self.free.insert(at, buf);
    }

    /// Parks a matrix's backing storage for reuse.
    pub fn recycle(&mut self, m: Matrix) {
        self.recycle_vec(m.into_vec());
    }

    /// Fresh heap allocations this arena has ever performed. Flat across
    /// calls ⇔ the workload reached steady state.
    pub fn heap_allocations(&self) -> usize {
        self.heap_allocations
    }

    /// Total `take_*` calls served (for utilization diagnostics).
    pub fn takes(&self) -> usize {
        self.takes
    }

    /// Total buffers parked back.
    pub fn recycles(&self) -> usize {
        self.recycles
    }

    /// Number of parked buffers.
    pub fn parked(&self) -> usize {
        self.free.len()
    }

    /// Total capacity (in `f64` elements) parked in this arena.
    pub fn parked_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    /// Drops every parked buffer, returning the arena to its empty state
    /// (the "reset" of the grow-only contract: capacities are surrendered,
    /// accounting is kept).
    pub fn reset(&mut self) {
        self.free.clear();
    }
}

/// A shared, thread-safe pool of [`Workspace`] arenas.
///
/// [`checkout_at(i)`](WorkspacePool::checkout_at) hands out the arena at
/// slot `i` (creating an empty one on first use); the returned
/// [`PooledWorkspace`] guard parks it back on drop. Concurrent users — the
/// simulated ranks of one `factor`, or several `QrService` workers sharing
/// a cached plan — each hold distinct arenas, so no lock is held while
/// computing.
///
/// **Why indexed slots matter:** a distributed factorization's per-rank
/// storage demand is a deterministic function of the rank's role, and the
/// rank outputs (the `Q`/`R` pieces) leave the rank thread and are recycled
/// later by the assembly thread. Pinning rank `i` to slot `i` — and
/// recycling each piece back *into its producer's slot* — keeps every
/// arena's inventory exactly balanced call over call, which is what makes
/// the second and every later `factor` through one pool perform **zero
/// arena allocations**. (Anonymous [`checkout`](WorkspacePool::checkout)
/// exists for callers without a natural index; under concurrent indexed
/// contention the loser of a slot race falls back to the anonymous list.)
#[derive(Debug, Default)]
pub struct WorkspacePool {
    /// Slot-pinned arenas (`None` while checked out or never created).
    indexed: Mutex<Vec<Option<Workspace>>>,
    /// Anonymous arenas plus overflow from slot races.
    anon: Mutex<Vec<Workspace>>,
    /// Arenas ever created (pool growth indicator).
    created: AtomicUsize,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> WorkspacePool {
        WorkspacePool::default()
    }

    fn make_arena(&self) -> Workspace {
        self.created.fetch_add(1, Ordering::Relaxed);
        Workspace::new()
    }

    /// Checks out the arena pinned to slot `index` (see the type docs).
    /// Falls back to an anonymous arena, then to a fresh one, when the slot
    /// is already out.
    pub fn checkout_at(&self, index: usize) -> PooledWorkspace<'_> {
        PooledWorkspace {
            ws: Some(self.take_at(index)),
            pool: self,
            index: Some(index),
        }
    }

    /// Takes the arena pinned to slot `index` *by value* (falling back to an
    /// anonymous arena, then a fresh one). Unlike
    /// [`checkout_at`](WorkspacePool::checkout_at) the caller owns the arena
    /// outright — no pool lifetime — which is what lets a spawned rank
    /// thread carry its communication arena across an SPMD region. Pair
    /// with [`put_at`](WorkspacePool::put_at) to return it.
    pub fn take_at(&self, index: usize) -> Workspace {
        crate::fault::maybe_delay(crate::fault::ARENA);
        let from_slot = {
            let mut indexed = self.indexed.lock().unwrap_or_else(|e| e.into_inner());
            if indexed.len() <= index {
                indexed.resize_with(index + 1, || None);
            }
            indexed[index].take()
        };
        from_slot
            .or_else(|| self.anon.lock().unwrap_or_else(|e| e.into_inner()).pop())
            .unwrap_or_else(|| self.make_arena())
    }

    /// Parks an arena obtained with [`take_at`](WorkspacePool::take_at) back
    /// into slot `index` (overflow from a slot race joins the anonymous
    /// list, same as guard drop).
    pub fn put_at(&self, index: usize, ws: Workspace) {
        self.park(ws, Some(index));
    }

    /// Checks out an anonymous arena (no slot affinity).
    pub fn checkout(&self) -> PooledWorkspace<'_> {
        crate::fault::maybe_delay(crate::fault::ARENA);
        let ws = self
            .anon
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| self.make_arena());
        PooledWorkspace {
            ws: Some(ws),
            pool: self,
            index: None,
        }
    }

    fn park(&self, ws: Workspace, index: Option<usize>) {
        if let Some(i) = index {
            let mut indexed = self.indexed.lock().unwrap_or_else(|e| e.into_inner());
            if indexed.len() <= i {
                indexed.resize_with(i + 1, || None);
            }
            if indexed[i].is_none() {
                indexed[i] = Some(ws);
                return;
            }
        }
        self.anon.lock().unwrap_or_else(|e| e.into_inner()).push(ws);
    }

    /// Fresh heap allocations across every *parked* arena. Call while the
    /// pool is quiescent (no outstanding checkouts) for exact totals.
    pub fn heap_allocations(&self) -> usize {
        let indexed = self.indexed.lock().unwrap_or_else(|e| e.into_inner());
        let anon = self.anon.lock().unwrap_or_else(|e| e.into_inner());
        indexed.iter().flatten().map(Workspace::heap_allocations).sum::<usize>()
            + anon.iter().map(Workspace::heap_allocations).sum::<usize>()
    }

    /// Number of arenas ever created.
    pub fn arenas(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Number of arenas currently parked.
    pub fn parked(&self) -> usize {
        let indexed = self.indexed.lock().unwrap_or_else(|e| e.into_inner());
        let anon = self.anon.lock().unwrap_or_else(|e| e.into_inner());
        indexed.iter().flatten().count() + anon.len()
    }

    /// Total parked buffer capacity (in `f64` elements) across all parked
    /// arenas — the pool's steady-state memory footprint.
    pub fn parked_capacity(&self) -> usize {
        let indexed = self.indexed.lock().unwrap_or_else(|e| e.into_inner());
        let anon = self.anon.lock().unwrap_or_else(|e| e.into_inner());
        indexed.iter().flatten().map(Workspace::parked_capacity).sum::<usize>()
            + anon.iter().map(Workspace::parked_capacity).sum::<usize>()
    }
}

/// RAII checkout of one arena from a [`WorkspacePool`]; derefs to
/// [`Workspace`] and parks it back on drop (into its slot when pinned).
pub struct PooledWorkspace<'a> {
    ws: Option<Workspace>,
    pool: &'a WorkspacePool,
    index: Option<usize>,
}

impl std::ops::Deref for PooledWorkspace<'_> {
    type Target = Workspace;

    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.park(ws, self.index);
        }
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Runs `f` with this OS thread's private arena.
///
/// The borrow lasts only for `f`; **never** call back into
/// `with_thread_local` from inside `f` (the nested borrow panics). The
/// kernel-internal users keep their borrows to single `take`/`recycle`
/// calls for exactly that reason.
pub fn with_thread_local<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// Takes a buffer of `len` elements (unspecified contents) from the
/// thread-local arena. Pair with [`recycle_local_vec`].
pub fn take_local_vec(len: usize) -> Vec<f64> {
    with_thread_local(|ws| ws.take_vec(len))
}

/// Parks a buffer back into the thread-local arena.
pub fn recycle_local_vec(buf: Vec<f64>) {
    with_thread_local(|ws| ws.recycle_vec(buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reaches_steady_state() {
        let mut ws = Workspace::new();
        for round in 0..5 {
            let a = ws.take_vec(1000);
            let b = ws.take_vec(500);
            let c = ws.take_matrix(10, 30);
            assert_eq!(a.len(), 1000);
            assert_eq!(b.len(), 500);
            assert!(c.data().iter().all(|&v| v == 0.0));
            ws.recycle_vec(a);
            ws.recycle_vec(b);
            ws.recycle(c);
            if round == 0 {
                assert_eq!(ws.heap_allocations(), 3, "cold round allocates each buffer once");
            }
        }
        assert_eq!(ws.heap_allocations(), 3, "steady state performs zero fresh allocations");
        assert_eq!(ws.takes(), 15);
        assert_eq!(ws.recycles(), 15);
        assert_eq!(ws.parked(), 3);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take_vec(64);
        a.iter_mut().for_each(|v| *v = 7.5);
        ws.recycle_vec(a);
        let b = ws.take_zeroed(32);
        assert!(b.iter().all(|&v| v == 0.0), "recycled storage must be re-zeroed");
        assert_eq!(ws.heap_allocations(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take_vec(10);
        let large = ws.take_vec(1000);
        ws.recycle_vec(small);
        ws.recycle_vec(large);
        let take = ws.take_vec(8);
        assert!(take.capacity() < 1000, "small request must not burn the large buffer");
        ws.recycle_vec(take);
        assert_eq!(ws.heap_allocations(), 2);
    }

    #[test]
    fn growth_reuses_largest_parked_buffer() {
        let mut ws = Workspace::new();
        let a = ws.take_vec(100);
        ws.recycle_vec(a);
        let b = ws.take_vec(200); // grows the parked 100-buffer in place
        assert_eq!(b.len(), 200);
        ws.recycle_vec(b);
        assert_eq!(ws.heap_allocations(), 2, "one fresh alloc + one growth");
        assert_eq!(ws.parked(), 1, "growth must not strand extra buffers");
        let c = ws.take_vec(150);
        ws.recycle_vec(c);
        assert_eq!(ws.heap_allocations(), 2, "smaller takes reuse the grown buffer");
    }

    #[test]
    fn take_copy_round_trips() {
        let mut ws = Workspace::new();
        let src = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let copy = ws.take_copy(src.as_ref());
        assert_eq!(copy, src);
        ws.recycle(copy);
    }

    #[test]
    fn pool_checkout_parks_on_drop() {
        let pool = WorkspacePool::new();
        {
            let mut a = pool.checkout();
            let mut b = pool.checkout();
            let v = a.take_vec(10);
            a.recycle_vec(v);
            let v = b.take_vec(20);
            b.recycle_vec(v);
        }
        assert_eq!(pool.arenas(), 2);
        assert_eq!(pool.parked(), 2);
        assert_eq!(pool.heap_allocations(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.parked(), 1, "checkout pops a parked arena");
        }
        assert_eq!(pool.arenas(), 2, "warm pool creates no new arenas");
        assert!(pool.parked_capacity() >= 30);
    }

    #[test]
    fn indexed_checkout_pins_slots_and_balances_inventory() {
        let pool = WorkspacePool::new();
        // Simulate two "factor calls": ranks take from their slots, their
        // outputs escape and are recycled back into the producer's slot.
        for call in 0..3 {
            let mut outputs = Vec::new();
            for rank in 0..4usize {
                let mut ws = pool.checkout_at(rank);
                let scratch = ws.take_vec(100 + rank);
                ws.recycle_vec(scratch);
                outputs.push((rank, ws.take_vec(50 + rank)));
            }
            for (rank, out) in outputs {
                pool.checkout_at(rank).recycle_vec(out);
            }
            if call == 0 {
                assert_eq!(pool.arenas(), 4);
                // One allocation per arena: the escaping output reuses the
                // recycled scratch buffer (best fit).
                assert_eq!(pool.heap_allocations(), 4);
            }
        }
        assert_eq!(pool.arenas(), 4, "slots are reused across calls");
        assert_eq!(pool.heap_allocations(), 4, "steady state allocates nothing");
    }

    #[test]
    fn indexed_slot_race_falls_back_without_losing_arenas() {
        let pool = WorkspacePool::new();
        let a = pool.checkout_at(0);
        let b = pool.checkout_at(0); // slot already out: fresh arena
        assert_eq!(pool.arenas(), 2);
        drop(a); // returns to slot 0
        drop(b); // slot occupied: parks anonymously
        assert_eq!(pool.parked(), 2);
        {
            let _c = pool.checkout_at(0);
            let _d = pool.checkout_at(0); // falls back to the anonymous arena
            assert_eq!(pool.arenas(), 2, "no new arena despite the race");
        }
    }

    #[test]
    fn reset_surrenders_capacity_but_keeps_accounting() {
        let mut ws = Workspace::new();
        let v = ws.take_vec(64);
        ws.recycle_vec(v);
        ws.reset();
        assert_eq!(ws.parked(), 0);
        assert_eq!(ws.parked_capacity(), 0);
        assert_eq!(ws.heap_allocations(), 1);
    }

    #[test]
    fn thread_local_arena_is_per_thread_and_warm() {
        let before = with_thread_local(|ws| ws.heap_allocations());
        for _ in 0..3 {
            let v = take_local_vec(256);
            recycle_local_vec(v);
        }
        let after = with_thread_local(|ws| ws.heap_allocations());
        assert!(after <= before + 1, "at most one cold allocation for the new size");
        std::thread::spawn(|| {
            let v = take_local_vec(8);
            recycle_local_vec(v);
        })
        .join()
        .unwrap();
    }
}
