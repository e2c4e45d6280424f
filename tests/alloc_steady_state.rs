//! Steady-state allocation accounting for repeated `plan.factor()` calls.
//!
//! The workspace layer's contract (PR 5) has two measurable halves:
//!
//! 1. **Arena-exact:** once a plan's [`WorkspacePool`] is warm, later
//!    factors perform *zero* fresh allocations inside the arena — every
//!    Gram matrix, broadcast buffer, recursion temporary, and output piece
//!    is served from recycled storage. `WorkspacePool::heap_allocations`
//!    counts exactly those arena heap acquisitions, so the assertion is
//!    equality, not a tolerance.
//! 2. **Process-level flatness:** a counting global allocator wraps the
//!    system allocator and demonstrates that the *total* allocation traffic
//!    of a steady-state factor stops growing call over call. It is not
//!    literally zero — the simulator spawns one OS thread per rank and
//!    builds each region's shared windows and barrier registry, which is
//!    per-call-constant infrastructure outside the workspace contract — but
//!    it must be flat (no leak-shaped growth) and the arena share of it
//!    must be exactly zero.
//!
//! This file is its own test binary because a `#[global_allocator]` is
//! per-binary state — and because that state is process-wide, every test
//! here holds [`serial`] for its whole body: a sibling test (or the rank
//! threads it spawns) allocating inside another test's measured window
//! would be charged to that window. Work that never leaves the calling
//! thread — a kernel call — is measured with [`thread_allocations`]
//! instead, which no other thread can touch.

use cacqr::{Algorithm, QrPlan};
use dense::random::{gaussian_matrix, well_conditioned};
use dense::Matrix;
use pargrid::GridShape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A counting wrapper over the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// When nonzero, every allocation of exactly this many bytes bumps
/// [`TRACKED_HITS`] — a size-class probe for "was this specific buffer
/// (e.g. a job operand) ever cloned?".
static TRACKED_SIZE: AtomicUsize = AtomicUsize::new(0);
static TRACKED_HITS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's share of [`ALLOCATIONS`].
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation process-wide and against the calling thread. A
/// thread being torn down has no counter left, so `try_with` skips it.
fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        let tracked = TRACKED_SIZE.load(Ordering::Relaxed);
        if tracked != 0 && layout.size() == tracked {
            TRACKED_HITS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
fn thread_allocations() -> usize {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Serializes the tests of this binary on the process-wide counters. One
/// failed test must not fail the rest, so a poisoned lock is still a lock.
fn serial() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Factor repeatedly, returning per-call global allocation counts after the
/// pool has converged.
fn steady_state_counts(plan: &QrPlan, a: &dense::Matrix, calls: usize) -> Vec<usize> {
    // Warm until the arena inventory settles (bounded best-fit convergence;
    // `warm_up` returns its round cap if it never does, and `check_plan`
    // asserts the flatness itself).
    plan.warm_up(a).expect("well-conditioned input");
    (0..calls)
        .map(|_| {
            let before = allocations();
            let report = plan.factor(a).expect("well-conditioned input");
            assert!(report.orthogonality_error < 1e-12, "reuse must not corrupt results");
            allocations() - before
        })
        .collect()
}

fn check_plan(name: &str, plan: QrPlan, a: &dense::Matrix) {
    let counts = steady_state_counts(&plan, a, 4);

    // Half 1 — arena-exact: zero fresh arena allocations across all the
    // measured steady-state calls.
    let arena_before = plan.workspace().heap_allocations();
    for _ in 0..3 {
        plan.factor(a).unwrap();
    }
    assert_eq!(
        plan.workspace().heap_allocations(),
        arena_before,
        "{name}: steady-state factors must perform zero workspace allocations"
    );

    // Half 2 — process-level flatness: successive steady-state calls
    // allocate the same amount (the residual is per-call simulator
    // infrastructure: thread spawns, shared windows and group barriers,
    // identical every call). Every call is compared against the *cheapest* call, so a
    // monotone per-call leak accumulates against the bound instead of
    // hiding inside a first-call slack; the small allowance absorbs
    // allocator-internal jitter from thread scheduling only.
    let min = *counts.iter().min().unwrap();
    for (i, &c) in counts.iter().enumerate() {
        assert!(
            c <= min + min / 100 + 16,
            "{name}: call {i} allocated {c} (cheapest steady call: {min}) — steady state must be flat"
        );
    }
}

/// The shared-memory runtime's in-run collective hot path: once the run's
/// tables and the pooled communication arenas are warm, a window of
/// collective rounds performs **zero** heap allocations process-wide — the
/// zero-copy contract, measured with the counting global allocator.
#[test]
fn shm_collectives_hot_path_is_allocation_free() {
    let _serial = serial();
    use simgrid::{run_spmd_pooled, Rank, RuntimeKind, SimConfig};

    fn rounds(rank: &mut Rank, world: &simgrid::Comm, n: usize) {
        for _ in 0..n {
            let mut buf = [rank.id() as f64; 24];
            world.allreduce(rank, &mut buf);
            world.bcast(rank, 0, &mut buf);
            let gathered = world.allgather(rank, &buf);
            rank.recycle_comm(gathered);
            let partner = world.my_index() ^ 1;
            let swapped = world.sendrecv(rank, partner, &buf);
            rank.recycle_comm(swapped);
        }
    }

    let pool = dense::WorkspacePool::new();
    let cfg = SimConfig::default().on_runtime(RuntimeKind::SharedMem);
    // Warm runs grow the communication arenas and the per-run tables.
    for _ in 0..2 {
        run_spmd_pooled(4, cfg, &pool, |rank| {
            let world = rank.world();
            rounds(rank, &world, 4);
        });
    }
    let report = run_spmd_pooled(4, cfg, &pool, |rank| {
        // Warm this run's own state (barrier registry, phase table), then
        // bracket a measured window with the collectives themselves: after
        // the opening rounds every rank is inside the window, so the global
        // counter's delta is attributable to collective internals alone.
        let world = rank.world();
        rounds(rank, &world, 4);
        let before = allocations();
        rounds(rank, &world, 8);
        allocations() - before
    });
    for (id, delta) in report.results.iter().enumerate() {
        assert_eq!(
            *delta, 0,
            "rank {id}: warm shared-memory collectives must not allocate (saw {delta})"
        );
    }
}

/// Factoring on the shared-memory runtime honors the same steady-state
/// arena contract as the simulated backend, on both CholeskyQR2 schedules —
/// and the contract covers the report diagnostics: their Gram partials and
/// row panels come from the rank arenas of the same pool, so the one
/// counter that must stay flat counts them too.
#[test]
fn shm_factor_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let a = well_conditioned(256, 32, 19);
    for (name, algorithm, grid) in [
        ("shm 1d-cqr2", Algorithm::Cqr2_1d, GridShape::one_d(4).unwrap()),
        ("shm ca-cqr2", Algorithm::CaCqr2, GridShape::new(2, 4).unwrap()),
    ] {
        let plan = QrPlan::new(256, 32)
            .algorithm(algorithm)
            .grid(grid)
            .runtime(simgrid::RuntimeKind::SharedMem)
            .build()
            .unwrap();
        // The per-call residual `check_plan` holds flat is run setup here:
        // thread spawn, shared windows, barrier registry.
        check_plan(name, plan.clone(), &a);
        assert_eq!(
            plan.workspace().arenas(),
            2 * plan.processors(),
            "{name}: two arenas per rank and nothing else — the diagnostics run on the ranks' own \
             arenas (slab i on rank i's, a single slab on rank 0's), not on an anonymous extra one"
        );
    }
}

#[test]
fn cqr2_1d_factor_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let a = well_conditioned(256, 32, 11);
    let plan = QrPlan::new(256, 32)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    check_plan("1d-cqr2", plan, &a);
}

/// Two ranks of 600 rows each — two whole 256-row panels and a ragged one
/// per rank — so both panel walks and the diagnostics they add in the
/// algorithm's own region (Gram partial, scratch panel) run warm.
#[test]
fn two_rank_1d_factor_with_in_region_diagnostics_is_allocation_free() {
    let _serial = serial();
    let a = well_conditioned(1200, 32, 17);
    let plan = QrPlan::new(1200, 32)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(2).unwrap())
        .build()
        .unwrap();
    check_plan("1d-cqr2 p=2", plan, &a);
}

#[test]
fn ca_cqr2_factor_is_allocation_free_at_steady_state() {
    let _serial = serial();
    let a = well_conditioned(256, 32, 13);
    let plan = QrPlan::new(256, 32)
        .algorithm(Algorithm::CaCqr2)
        .grid(GridShape::new(2, 4).unwrap())
        .build()
        .unwrap();
    check_plan("ca-cqr2", plan, &a);
}

/// The Cholesky-family kernels hold the contract themselves, not only the
/// arenas around them: after one warming call on the same workspace `potrf`,
/// `trtri_lower` and `cholinv` perform **zero** heap allocations on the
/// calling thread — which is all of theirs, since a kernel runs on its
/// caller's thread — at n = 48 (one recursion level, unblocked `potrf`) and n = 256 (three
/// levels, four `potrf` blocks). On `Naive` what is left is the oracle's own
/// and is counted exactly: `dense::gemm::gemm` packs a transposed operand
/// into a fresh matrix, once per `Trans::Yes` product — `potrf`'s trailing
/// update per block, CholInv's `A21·Y11ᵀ` and `L21·L21ᵀ` per split.
/// The triangular tier under them holds it too: the four `Blocked` TRSMs on
/// ragged (67 × 130) and block-aligned (64 × 128) operands and
/// `trmm_upper_upper` draw their lane and pack scratch from the warm
/// thread-local arena.
#[test]
fn warm_cholesky_kernels_are_allocation_free() {
    let _serial = serial();
    use dense::cholesky::{cholinv, potrf, trtri_lower};
    use dense::{BackendKind, Matrix, Workspace};

    fn splits(n: usize) -> usize {
        if n <= 32 {
            0
        } else {
            1 + splits(n / 2) + splits(n - n / 2)
        }
    }
    for kind in BackendKind::ALL {
        let backend = kind.get();
        for n in [48usize, 256] {
            let a = backend.syrk(well_conditioned(2 * n, n, 43).as_ref());
            let mut ws = Workspace::new();
            let (mut p, mut inv) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            let (mut l, mut y) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            let mut round = || {
                p.copy_from(a.as_ref());
                let start = thread_allocations();
                potrf(p.as_mut(), backend).unwrap();
                let after_potrf = thread_allocations();
                trtri_lower(p.as_ref(), inv.as_mut(), backend, &mut ws);
                let after_trtri = thread_allocations();
                cholinv(a.as_ref(), l.as_mut(), y.as_mut(), backend, &mut ws).unwrap();
                [
                    after_potrf - start,
                    after_trtri - after_potrf,
                    thread_allocations() - after_trtri,
                ]
            };
            round();
            let warm = round();
            let oracle_packs = match kind {
                BackendKind::Blocked => [0, 0, 0],
                BackendKind::Naive => [n.div_ceil(32) - 1, 0, 2 * splits(n)],
            };
            assert_eq!(
                warm, oracle_packs,
                "{kind} n={n}: warm [potrf, trtri_lower, cholinv] heap allocations"
            );
        }
    }
    let blocked = BackendKind::Blocked.get();
    for (m, n) in [(67usize, 130usize), (64, 128)] {
        let mut u = blocked.syrk(well_conditioned(2 * n, n, 47).as_ref());
        potrf(u.as_mut(), blocked).unwrap();
        let l = u.clone();
        let u = u.transposed();
        let b = well_conditioned(m, n, 53);
        let (mut x, mut xt, mut r) = (b.clone(), b.transposed(), Matrix::zeros(n, n));
        let mut round = || {
            x.copy_from(b.as_ref());
            let start = thread_allocations();
            blocked.trsm_right_upper(u.as_ref(), x.as_mut());
            blocked.trsm_right_lower_trans(l.as_ref(), x.as_mut());
            blocked.trsm_left_lower(l.as_ref(), xt.as_mut());
            blocked.trsm_left_upper(u.as_ref(), xt.as_mut());
            dense::trmm_upper_upper(u.as_ref(), u.as_ref(), r.as_mut());
            thread_allocations() - start
        };
        round();
        assert_eq!(round(), 0, "{m}x{n}: warm blocked TRSMs and trmm heap allocations");
    }
}

/// The streaming engine's zero-steady-state-allocation guarantee: once the
/// plan's arena pool is warm and the history capacity is reserved, a
/// `StreamingQr::append_rows_with` call performs **zero** process-wide heap
/// allocations — not "arena-flat", literally zero global allocator traffic.
/// Measured at two factor orders so both the unblocked (`n ≤ 64`) and
/// blocked Cholesky regimes (which draws its panel copy from the arena)
/// are covered.
#[test]
fn warm_stream_appends_are_allocation_free() {
    let _serial = serial();
    for &(n, name) in &[(32usize, "unblocked"), (96, "blocked")] {
        let (m0, k) = (256usize, 8usize);
        let a0 = well_conditioned(m0, n, 29);
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .build()
            .unwrap();
        // A stream that keeps only `R`: zero-width right-hand sides.
        let bare = Matrix::zeros(m0, 0);
        let mut s = plan.stream_with_rhs(&a0, &bare).unwrap();
        let bare = bare.view(0, 0, k, 0);
        // Reserve history for every row this test will append, so the
        // retained-row buffer never regrows mid-measurement.
        s.reserve_rows(16 * k);
        // Warm the checkout arena (Gram scratch + Cholesky panel copy).
        for _ in 0..6 {
            s.append_rows_with(gaussian_matrix(k, n, 31).as_ref(), bare).unwrap();
        }
        let b = gaussian_matrix(k, n, 37);
        let arena_before = plan.workspace().heap_allocations();
        let before = allocations();
        for _ in 0..4 {
            let status = s.append_rows_with(b.as_ref(), bare).unwrap();
            assert!(
                !status.refreshed,
                "{name}: drift must stay far below the threshold here"
            );
        }
        assert_eq!(
            allocations() - before,
            0,
            "{name}: warm append_rows_with must perform zero process-wide heap allocations"
        );
        assert_eq!(
            plan.workspace().heap_allocations(),
            arena_before,
            "{name}: warm appends must stay arena-exact too"
        );
    }
}

/// Downdates hold the same contract: a warm sliding window — append the
/// newest block, downdate the oldest — performs zero process-wide heap
/// allocations and stays arena-exact. `n = 96` puts the block downdate's
/// second Cholesky on the blocked path (panel copy from the arena).
#[test]
fn warm_stream_downdates_are_allocation_free() {
    let _serial = serial();
    for &(n, name) in &[(32usize, "unblocked"), (96, "blocked")] {
        let (m0, k, steps) = (256usize, 8usize, 10usize);
        let a0 = well_conditioned(m0, n, 83);
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .build()
            .unwrap();
        let bare = Matrix::zeros(m0, 0);
        let mut s = plan.stream_with_rhs(&a0, &bare).unwrap();
        let bare = bare.view(0, 0, k, 0);
        s.reserve_rows(steps * k);
        let blocks: Vec<_> = (0..steps).map(|i| gaussian_matrix(k, n, 89 + i as u64)).collect();
        let slide = |s: &mut cacqr::StreamingQr, step: usize| {
            s.append_rows_with(blocks[step].as_ref(), bare).unwrap();
            let status = s.downdate_rows_with(a0.view(step * k, 0, k, n), bare).unwrap();
            assert!(
                !status.refreshed,
                "{name}: drift must stay far below the threshold here"
            );
            assert_eq!(status.rows, m0);
        };
        // Warm the checkout arena along both kernels.
        for step in 0..6 {
            slide(&mut s, step);
        }
        let arena_before = plan.workspace().heap_allocations();
        let before = allocations();
        for step in 6..steps {
            slide(&mut s, step);
        }
        assert_eq!(
            allocations() - before,
            0,
            "{name}: warm append + downdate pairs must perform zero process-wide heap allocations"
        );
        assert_eq!(
            plan.workspace().heap_allocations(),
            arena_before,
            "{name}: warm downdates must stay arena-exact too"
        );
    }
}

/// A refresh at a row count other than the plan's runs the plan's ladder on
/// one rank, drawing from the same pool (rank 0's arena and the slot after
/// it). It must not disturb the plan's own steady state: after an off-shape
/// refresh, a warm plan-shape `factor` through the same plan still draws
/// zero arena allocations.
#[test]
fn off_shape_refresh_keeps_warm_factors_arena_exact() {
    let _serial = serial();
    let (m0, n, k) = (256usize, 32usize, 16usize);
    let a = well_conditioned(m0, n, 47);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    plan.warm_up(&a).unwrap();
    let bare = Matrix::zeros(m0, 0);
    let mut s = plan
        .stream_with_rhs(&a, &bare)
        .unwrap()
        .with_drift_threshold(f64::INFINITY);
    s.append_rows_with(gaussian_matrix(k, n, 53).as_ref(), bare.view(0, 0, k, 0))
        .unwrap();
    s.refresh().unwrap();
    assert_eq!(s.rows(), m0 + k, "the refresh ran off the plan's shape");
    let arena_before = plan.workspace().heap_allocations();
    for _ in 0..3 {
        plan.factor(&a).unwrap();
    }
    assert_eq!(
        plan.workspace().heap_allocations(),
        arena_before,
        "warm plan-shape factors after an off-shape refresh must perform zero workspace allocations"
    );
}

/// A snapshot at the plan's row count is the plan's two-rank run with `Q`
/// kept and the report diagnostics added in its region (two whole 256-row
/// panels and a ragged one per rank): once warm, it draws zero arena
/// allocations, like the `factor` it equals.
#[test]
fn warm_plan_shape_snapshot_is_arena_exact() {
    let _serial = serial();
    let (m0, n) = (1200usize, 32usize);
    let a = well_conditioned(m0, n, 59);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(2).unwrap())
        .build()
        .unwrap();
    plan.warm_up(&a).unwrap();
    let mut s = plan.stream_with_rhs(&a, &gaussian_matrix(m0, 1, 60)).unwrap();
    s.snapshot().unwrap();
    let arena_before = plan.workspace().heap_allocations();
    for _ in 0..3 {
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.rows, m0, "the snapshot runs at the plan's shape");
        assert!(snap.orthogonality_error.unwrap() < 1e-12);
    }
    assert_eq!(
        plan.workspace().heap_allocations(),
        arena_before,
        "warm plan-shape snapshots must perform zero workspace allocations"
    );
}

/// The least-squares surface honors the same contract: once warm, an
/// `append_rows_with` (factor + `d = Aᵀb` delta) followed by a
/// `solve_into` (corrected semi-normal solve with one history-streamed
/// refinement step) performs **zero** process-wide heap allocations — the
/// solve's only scratch is an `n × nrhs` projection and one `nrhs`-wide
/// residual row, both drawn from the plan's pooled arenas.
#[test]
fn warm_stream_solves_are_allocation_free() {
    let _serial = serial();
    let (m0, n, k, nrhs) = (256usize, 32usize, 8usize, 2usize);
    let a0 = well_conditioned(m0, n, 43);
    let b0 = gaussian_matrix(m0, nrhs, 44);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    let mut s = plan.stream_with_rhs(&a0, &b0).unwrap();
    s.reserve_rows(16 * k);
    let mut x = dense::Matrix::zeros(n, nrhs);
    // Warm the arenas along both paths: the append's Gram scratch and the
    // solve's projection/residual scratch.
    for i in 0..6 {
        s.append_rows_with(
            gaussian_matrix(k, n, 45 + i).as_ref(),
            gaussian_matrix(k, nrhs, 55 + i).as_ref(),
        )
        .unwrap();
        s.solve_into(&mut x).unwrap();
    }
    let ab = gaussian_matrix(k, n, 71);
    let bb = gaussian_matrix(k, nrhs, 72);
    let arena_before = plan.workspace().heap_allocations();
    let before = allocations();
    for _ in 0..4 {
        let status = s.append_rows_with(ab.as_ref(), bb.as_ref()).unwrap();
        assert!(!status.refreshed, "drift must stay far below the threshold here");
        s.solve_into(&mut x).unwrap();
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm append_rows_with + solve_into must perform zero process-wide heap allocations"
    );
    assert_eq!(
        plan.workspace().heap_allocations(),
        arena_before,
        "warm least-squares traffic must stay arena-exact too"
    );
}

/// Zero-copy submission: `QrService::submit_ref` never clones the operand.
///
/// Measured differentially with the size-class probe: both the owned and
/// the shared path allocate the *same* per-job traffic on the worker side
/// (the `Q` output is operand-sized on both), so the only asymmetry is the
/// caller-side clone the owned path pays per submission — the difference
/// in operand-sized allocations between the two runs must be exactly the
/// job count, and attributable entirely to the owned path's clones. The
/// shape is deliberately unusual (`264 × 8`) so nothing else allocates
/// buffers in this size class — in particular it is taller than one
/// diagnostics panel (`dense::norms::PANEL_ROWS`), whose scratch would
/// otherwise be exactly operand-sized whenever a worker meets a cold arena.
#[test]
fn submit_ref_performs_no_operand_clone() {
    let _serial = serial();
    use cacqr::service::{JobSpec, QrService};

    let (m, n) = (264usize, 8usize);
    let spec = JobSpec::new(m, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap());
    let service = QrService::builder().workers(2).build();
    let a = std::sync::Arc::new(well_conditioned(m, n, 91));
    // Warm everything first — plan build, arena growth, worker spin-up —
    // so the measured windows contain only steady per-job traffic.
    for _ in 0..4 {
        service.submit_ref(&spec, &a).unwrap().wait().unwrap();
    }
    const JOBS: usize = 16;
    let operand_bytes = m * n * std::mem::size_of::<f64>();
    TRACKED_SIZE.store(operand_bytes, Ordering::SeqCst);

    // Owned path: each submission clones the caller's matrix into the job.
    TRACKED_HITS.store(0, Ordering::SeqCst);
    let handles: Vec<_> = (0..JOBS)
        .map(|_| service.submit(&spec, (*a).clone()).unwrap())
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let owned_hits = TRACKED_HITS.load(Ordering::SeqCst);

    // Shared path: the job borrows the Arc — pointer clone only.
    TRACKED_HITS.store(0, Ordering::SeqCst);
    let handles: Vec<_> = (0..JOBS).map(|_| service.submit_ref(&spec, &a).unwrap()).collect();
    for h in handles {
        h.wait().unwrap();
    }
    let shared_hits = TRACKED_HITS.load(Ordering::SeqCst);

    TRACKED_SIZE.store(0, Ordering::SeqCst);
    assert_eq!(
        owned_hits - shared_hits,
        JOBS,
        "submit_ref must clone zero operands: owned path paid {owned_hits} \
         operand-sized allocations over {JOBS} jobs, shared path {shared_hits}"
    );
}

/// The arena layer pays for itself: the warm pool's parked capacity is the
/// plan's whole scratch footprint, visible and bounded.
#[test]
fn workspace_footprint_is_observable_and_bounded() {
    let _serial = serial();
    let (m, n) = (256usize, 32usize);
    let a = well_conditioned(m, n, 17);
    let plan = QrPlan::new(m, n).grid(GridShape::new(2, 4).unwrap()).build().unwrap();
    for _ in 0..3 {
        plan.factor(&a).unwrap();
    }
    let pool = plan.workspace();
    assert_eq!(
        pool.arenas(),
        2 * plan.processors(),
        "one algorithm arena plus one communication arena per simulated rank; the report diagnostics \
         borrow the ranks' arenas instead of holding one of their own"
    );
    let capacity_bytes = pool.parked_capacity() * std::mem::size_of::<f64>();
    // Generous sanity bound: the whole scratch footprint stays within a
    // small multiple of the input size times the rank count.
    let input_bytes = m * n * std::mem::size_of::<f64>();
    assert!(
        capacity_bytes < 64 * input_bytes,
        "scratch footprint {capacity_bytes}B should be bounded (input: {input_bytes}B)"
    );
}
