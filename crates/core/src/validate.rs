//! Whole-pipeline drivers (the **expert layer**): run a distributed
//! factorization on the simulator from a global input matrix, assert the
//! replication invariants, and return the global `Q`/`R` with the cost
//! report.
//!
//! Most callers should use the [`crate::driver`] facade instead: build a
//! [`crate::driver::QrPlan`] once and call
//! [`factor`](crate::driver::QrPlan::factor) per matrix. The functions here
//! are the layer underneath — they skip the facade's validation (invalid
//! grid/shape combinations `assert!` rather than returning typed errors)
//! and expose exactly one algorithm each, which is what the cost-model
//! cross-validation binaries need when they measure a single schedule under
//! a unit machine.
//!
//! # The matrix does not move
//!
//! The caller's thread does no `O(mn)` work but allocating the output,
//! which the allocator may clear on that thread. Ranks *read in place*: a
//! 1D rank's rows of the row-major input are one contiguous block of it,
//! and a CA rank's row-cyclic block a strided view ([`MatRef::step_rows`]),
//! so nothing is scattered; only a column-cyclic block (`c > 1`) is packed
//! into the rank's arena, inside the region, by row runs. Ranks *write in
//! place*: the driver allocates the `m × n` (and `n × n`) output once. A 1D
//! rank writes its contiguous block of `Q` through a disjoint row block of
//! the output ([`MatMut::split_rows`]) — the 1D bodies' last `gemm`
//! produces `Q` directly there (1D-CQR2's, and the CA family's at
//! `c = 1, n₀ ≥ n`, which runs them) — and each CA rank writes its residue
//! class through a [`CyclicWindows`] handle, the `z = 0` owners depositing
//! their pieces before leaving the region. Nothing is reassembled
//! afterwards; replicas (other depth layers, other subcubes) are compared
//! against what was deposited.
//!
//! # Workspace pooling
//!
//! Each driver takes a [`WorkspacePool`]: every simulated rank checks an
//! arena out for its SPMD body and recycles what it took before it leaves
//! (replica pieces are recycled into their producer's slot after the
//! comparison). Run the same driver repeatedly against one pool — which is
//! exactly what [`QrPlan::factor`](crate::driver::QrPlan::factor) does with
//! the pool the plan owns — and the steady state performs **zero arena
//! allocations**: every Gram matrix, broadcast buffer, quadrant copy, and
//! local piece is served from storage warmed up by the first call. The
//! escaping `Q` and `R` are plain allocations.

use crate::cacqr2::{ca_cqr2, CaCqr2Output};
use crate::cacqr3::ca_cqr3;
use crate::config::CfrParams;
use crate::cqr1d::{cqr2_1d, cqr3_1d, FlopCharges};
use dense::cholesky::CholeskyError;
use dense::norms::combine_diagnostics;
use dense::{BackendKind, MatMut, MatRef, Matrix, WorkspacePool};
use pargrid::{CyclicWindows, DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd_pooled, SimConfig};
use std::sync::{Mutex, PoisonError};

/// The two Gram-based algorithms the drivers below run: CQR2 (Algorithms
/// 7 and 9) and shifted CQR3, each with a CA body and a 1D body.
#[derive(Clone, Copy)]
pub(crate) enum Family {
    Cqr2,
    Cqr3,
}

/// A completed distributed QR run with global factors and cost accounting —
/// the same struct every global driver returns, the baseline's included.
pub type QrRun = baseline::PgeqrfRun;

/// A run and, when they were asked for and added in its region, its report
/// diagnostics `(‖QᵀQ − I‖_F, ‖A − QR‖_F / ‖A‖_F)`.
pub(crate) type Diagnosed = (QrRun, Option<(f64, f64)>);

/// Runs CA-CQR2 on the simulator for a global input `a` (a `&Matrix` or any
/// view), asserting the replication invariants (identical pieces across
/// depth layers and across subcubes). Scratch cycles through `pool`; pass a
/// fresh [`WorkspacePool::new()`] for one-off runs or a long-lived pool to
/// make repeated runs allocation-free.
///
/// The `cfg` chooses both the machine model *and* the execution backend
/// ([`SimConfig::on_runtime`]): the same per-rank bodies run over the same
/// shared windows, on unpinned or on pinned threads.
///
/// # Examples
///
/// ```
/// use cacqr::{validate::run_cacqr2_global, CfrParams};
/// use dense::WorkspacePool;
/// use pargrid::GridShape;
/// use simgrid::SimConfig;
///
/// let a = dense::random::well_conditioned(64, 8, 1);
/// let shape = GridShape::new(2, 4).unwrap(); // c=2, d=4: P = 16 ranks
/// let pool = WorkspacePool::new();
/// let run = run_cacqr2_global(&a, shape, CfrParams::default_for(8, 2), SimConfig::default(), &pool).unwrap();
/// assert!(dense::norms::orthogonality_error(run.q.as_ref()) < 1e-12);
/// assert!(dense::norms::residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
/// ```
pub fn run_cacqr2_global<'a>(
    a: impl Into<MatRef<'a>>,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    run_ca_family(a.into(), shape, params, cfg, pool, Family::Cqr2, false).map(|(run, _)| run)
}

/// Runs shifted CA-CQR3 (unconditionally stable for numerically full-rank
/// input) on the simulator. Same distribution, invariants, and pooling as
/// [`run_cacqr2_global`].
pub fn run_cacqr3_global<'a>(
    a: impl Into<MatRef<'a>>,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    run_ca_family(a.into(), shape, params, cfg, pool, Family::Cqr3, false).map(|(run, _)| run)
}

/// Shared driver for the CA family (Algorithms 8–9 and the shifted-CQR3
/// extension) over the `c × d × c` grid: every rank runs `family`'s CA body
/// on its cyclic block, the `z = 0` layer (first subcube for `R`) deposits
/// its pieces into the output, and every other replica is checked against
/// the deposit.
///
/// `c = 1` with `n₀ ≥ n` is Algorithm 6 (§III): every cube collective has
/// one member, CFR3D is one CholInv and `A·R⁻¹` one local gemm. Those
/// configs run the 1D body on the `d` ranks instead, charged the CA family's
/// flops ([`FlopCharges::CaFamily`]) — the arithmetic of the CA body on
/// contiguous row blocks, with the CA family's ledgers and clocks, without
/// the copies and transposes; `diagnose` reaches that 1D body
/// ([`run_row_blocks`]). A smaller `n₀` recurses in CFR3D, which rounds
/// differently, so it keeps the CA path, which adds no diagnostics.
pub(crate) fn run_ca_family(
    a: MatRef<'_>,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
    family: Family,
    diagnose: bool,
) -> Result<Diagnosed, CholeskyError> {
    let (m, n) = (a.rows(), a.cols());
    let (c, d) = (shape.c, shape.d);
    assert_eq!(m % d, 0, "the CA family requires d | m (m={m}, d={d})");
    assert_eq!(n % c, 0, "the CA family requires c | n (n={n}, c={c})");
    if c == 1 && params.base_size >= n {
        let charges = FlopCharges::CaFamily;
        return run_row_blocks(a, d, cfg, pool, family, charges, params.backend, diagnose);
    }
    // Zeroed by the allocator, and not always lazily: glibc maps the first
    // large `Q`s fresh (the ranks' writes are the first touch), but freeing
    // one raises its mmap threshold, and later ones come from the heap,
    // which `calloc` clears on the caller's thread (0.5–1.2 ms for 8 MiB on
    // a two-vCPU AVX-512 box).
    let (mut q, mut r) = (vec![0.0; m * n], vec![0.0; n * n]);
    let report = {
        let q_windows = CyclicWindows::split(&mut q, m, n, d, c);
        let r_windows = CyclicWindows::split(&mut r, n, n, c, c);
        run_spmd_pooled(shape.p(), cfg, pool, |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, z) = comms.coords;
            let id = rank.id();
            let mut ws = pool.checkout_at(id);
            let packed = (c > 1).then(|| DistMatrix::local_from_global(a, d, c, y, x, &mut ws));
            let a_local = packed.as_ref().map_or_else(|| a.step_rows(y, d), Matrix::as_ref);
            let result = match family {
                Family::Cqr2 => ca_cqr2(rank, &comms, a_local, n, &params, &mut ws),
                Family::Cqr3 => ca_cqr3(rank, &comms, a_local, m, n, &params, &mut ws),
            };
            if let Some(block) = packed {
                ws.recycle(block);
            }
            let CaCqr2Output { q_local, r_local } = result?;
            // Owners deposit and recycle on the spot; replicas leave the
            // region to be checked against the deposit.
            let q_replica = if z == 0 {
                q_windows.take(y, x).deposit(q_local.as_ref());
                ws.recycle(q_local);
                None
            } else {
                Some(q_local)
            };
            let r_replica = if z == 0 && y < c {
                r_windows.take(y, x).deposit(r_local.as_ref());
                ws.recycle(r_local);
                None
            } else {
                Some(r_local)
            };
            Ok((x, y, q_replica, r_replica))
        })
    };
    let (q, r) = (Matrix::from_vec(m, n, q), Matrix::from_vec(n, n, r));
    // A failed Cholesky fails the same collective on every rank, so an
    // error here leaves no piece outstanding. Each replica is recycled into
    // its *producer's* pool slot — that keeps each rank arena's inventory
    // balanced call to call.
    for (id, result) in report.results.into_iter().enumerate() {
        let (x, y, q_replica, r_replica) = result?;
        let mut ws = pool.checkout_at(id);
        if let Some(piece) = q_replica {
            assert!(
                DistMatrix::holds_piece(q.as_ref(), d, c, y, x, piece.as_ref()),
                "Q pieces must be replicated across depth"
            );
            ws.recycle(piece);
        }
        if let Some(piece) = r_replica {
            assert!(
                DistMatrix::holds_piece(r.as_ref(), c, c, y % c, x, piece.as_ref()),
                "R pieces must be replicated across depth and subcubes"
            );
            ws.recycle(piece);
        }
    }
    let run = QrRun {
        q,
        r,
        elapsed: report.elapsed,
        wall_seconds: report.wall_seconds,
        ledgers: report.ledgers,
    };
    Ok((run, None))
}

/// Runs 1D-CQR2 (Algorithm 7) on the simulator: rank `i` reads the
/// contiguous rows `[i·m/p, (i+1)·m/p)` of `a` (a `&Matrix` or any view) in
/// place and its second pass writes the same rows of `Q` in place. Local
/// kernels go through `backend`; scratch cycles through `pool` (see
/// [`run_cacqr2_global`]).
pub fn run_cqr2_1d_global<'a>(
    a: impl Into<MatRef<'a>>,
    p: usize,
    backend: BackendKind,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    run_row_blocks(a.into(), p, cfg, pool, Family::Cqr2, FlopCharges::OneD, backend, false).map(|(run, _)| run)
}

/// Shared driver for the 1D bodies: rank `i` runs `family`'s on the
/// contiguous rows `[i·m/p, (i+1)·m/p)` of `a`, writing the same rows of `Q`
/// through its own row block of the output; `R` must come out replicated.
/// With `diagnose`, a CQR2 run adds the report diagnostics in the region
/// ([`cqr2_1d`]), summed here in rank order; the slowest rank's seconds on
/// them come off the region's wall time, which so times the algorithm
/// alone. Shifted CQR3 adds none.
#[allow(clippy::too_many_arguments)] // a run's arguments and the diagnostics switch
pub(crate) fn run_row_blocks(
    a: MatRef<'_>,
    p: usize,
    cfg: SimConfig,
    pool: &WorkspacePool,
    family: Family,
    charges: FlopCharges,
    backend: BackendKind,
    diagnose: bool,
) -> Result<Diagnosed, CholeskyError> {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(m % p, 0, "the 1D drivers require p | m (m={m}, p={p})");
    let lr = m / p;
    // Zeroed by the allocator, past the first large `Q`s on the caller's
    // thread (see `run_ca_family`).
    let mut q = Matrix::zeros(m, n);
    let report = {
        let blocks = row_blocks(q.as_mut(), p);
        run_spmd_pooled(p, cfg, pool, |rank| {
            let world = rank.world();
            let id = rank.id();
            let q_local = blocks[id]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each rank takes its own row block once");
            let a_local = a.sub(id * lr, 0, lr, n);
            let mut ws = pool.checkout_at(id);
            match family {
                Family::Cqr2 => cqr2_1d(rank, &world, a_local, q_local, diagnose, charges, backend, &mut ws),
                Family::Cqr3 => cqr3_1d(rank, &world, a_local, q_local, charges, backend, &mut ws).map(|r| (r, None)),
            }
        })
    };
    let (mut r0, mut slabs, mut diagnostics_s) = (None::<Matrix>, Vec::new(), 0.0f64);
    for result in report.results {
        let (r, diagnosed) = result?;
        match &r0 {
            None => r0 = Some(r),
            Some(first) => assert_eq!(r, *first, "R must be replicated"),
        }
        if let Some((slab, seconds)) = diagnosed {
            slabs.push(slab);
            diagnostics_s = diagnostics_s.max(seconds);
        }
    }
    let diagnostics = (!slabs.is_empty()).then(|| combine_diagnostics(&slabs));
    // Each Gram partial goes back to the arena of the rank that took it.
    for (id, slab) in slabs.into_iter().enumerate() {
        pool.checkout_at(id).recycle(slab.gram);
    }
    let run = QrRun {
        q,
        r: r0.expect("at least one rank ran"),
        elapsed: report.elapsed,
        wall_seconds: report.wall_seconds - diagnostics_s,
        ledgers: report.ledgers,
    };
    Ok((run, diagnostics))
}

/// `q` split into `p` equal row blocks, each takeable once by its rank.
fn row_blocks(mut q: MatMut<'_>, p: usize) -> Vec<Mutex<Option<MatMut<'_>>>> {
    let lr = q.rows() / p;
    let mut blocks = Vec::with_capacity(p);
    for _ in 1..p {
        let (block, rest) = q.split_rows(lr);
        blocks.push(Mutex::new(Some(block)));
        q = rest;
    }
    blocks.push(Mutex::new(Some(q)));
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, residual_error};
    use dense::random::{matrix_with_condition, well_conditioned};
    use simgrid::Machine;

    #[test]
    fn driver_runs_and_reports_costs() {
        let a = well_conditioned(32, 8, 17);
        let shape = GridShape::new(2, 4).unwrap();
        let params = CfrParams::validated(8, 2, 4, 0).unwrap();
        let run = run_cacqr2_global(
            &a,
            shape,
            params,
            SimConfig::with_machine(Machine::stampede2(64)),
            &WorkspacePool::new(),
        )
        .unwrap();
        assert!(orthogonality_error(run.q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
        assert!(run.elapsed > 0.0, "a real machine model must yield positive time");
        assert_eq!(run.ledgers.len(), 16);
        assert!(run.ledgers.iter().all(|l| l.flops > 0.0));
    }

    #[test]
    fn one_d_driver_matches_ca_driver_with_c1() {
        let a = well_conditioned(24, 8, 19);
        let pool = WorkspacePool::new();
        let run1 = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
        let shape = GridShape::one_d(4).unwrap();
        let run2 = run_cacqr2_global(&a, shape, CfrParams::default_for(8, 1), SimConfig::default(), &pool).unwrap();
        assert_eq!(
            run1.q, run2.q,
            "bitwise agreement between Algorithm 7 and Algorithm 9 with c=1"
        );
        assert_eq!(run1.r, run2.r);
    }

    #[test]
    fn in_region_diagnostics_leave_the_factors_alone() {
        // Pass 2 spends each `Q₁` panel as the residual's scratch once its
        // `Q` panel is written: asking for the diagnostics moves no bit.
        let a = matrix_with_condition(512, 8, 1e4, 7);
        let pool = WorkspacePool::new();
        let run = |diagnose| {
            let (kind, charges) = (BackendKind::default_kind(), FlopCharges::OneD);
            run_row_blocks(
                a.as_ref(),
                2,
                SimConfig::default(),
                &pool,
                Family::Cqr2,
                charges,
                kind,
                diagnose,
            )
            .unwrap()
        };
        let ((plain, none), (diagnosed, some)) = (run(false), run(true));
        assert!(none.is_none());
        let (ortho, resid) = some.expect("asked for, added in the region");
        assert!(ortho < 1e-12 && resid < 1e-12);
        assert_eq!((diagnosed.q, diagnosed.r), (plain.q, plain.r));
    }

    #[test]
    fn cacqr3_driver_survives_ill_conditioning() {
        let a = matrix_with_condition(64, 8, 1e12, 91);
        let shape = GridShape::new(2, 4).unwrap();
        let run = run_cacqr3_global(
            &a,
            shape,
            CfrParams::default_for(8, 2),
            SimConfig::default(),
            &WorkspacePool::new(),
        )
        .unwrap();
        assert!(orthogonality_error(run.q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-10);
    }

    #[test]
    fn failed_runs_stay_arena_balanced() {
        // Cholesky failure is how ill-conditioning reports — the shifted-
        // CQR3 retry loop hits it on every hard input — so the error paths
        // must recycle their outstanding takes too: repeated *failing*
        // factors may not grow the pool once warm. Cases: CA-CQR2 on the
        // 2 × 4 grid, and the 1D body of CA-CQR3 at c = 1 exhausting its
        // shifted retries (σ = 0 on a zero matrix) or failing its second
        // pass (a zero column survives the shift, then breaks CQR2 on Q₁).
        let ill = matrix_with_condition(64, 8, 1e12, 41);
        let mut zero_column = matrix_with_condition(64, 8, 1e2, 41);
        (0..64).for_each(|i| zero_column.set(i, 4, 0.0));
        let zero = Matrix::zeros(64, 8);
        let one_d = (GridShape::one_d(4).unwrap(), CfrParams::default_for(8, 1));
        let cases = [
            (
                "ca-cqr2 κ=1e12",
                false,
                &ill,
                (GridShape::new(2, 4).unwrap(), CfrParams::validated(8, 2, 4, 0).unwrap()),
            ),
            ("cqr3_1d retries", true, &zero, one_d),
            ("cqr3_1d second pass", true, &zero_column, one_d),
        ];
        for (name, cqr3, a, (shape, params)) in cases {
            let pool = WorkspacePool::new();
            let run = || {
                if cqr3 {
                    run_cacqr3_global(a, shape, params, SimConfig::default(), &pool)
                } else {
                    run_cacqr2_global(a, shape, params, SimConfig::default(), &pool)
                }
            };
            let mut baseline = 0;
            for round in 0..10 {
                assert!(run().is_err(), "{name} must fail");
                let now = pool.heap_allocations();
                if round > 0 && now == baseline {
                    break;
                }
                assert!(round < 9, "{name}: failing-run inventory must converge");
                baseline = now;
            }
            for _ in 0..3 {
                let _ = run();
            }
            assert_eq!(
                pool.heap_allocations(),
                baseline,
                "{name}: failed factorizations must not leak arena inventory"
            );
        }
    }

    #[test]
    fn repeated_runs_through_one_pool_stop_allocating() {
        let a = well_conditioned(32, 8, 23);
        let shape = GridShape::new(2, 4).unwrap();
        let params = CfrParams::validated(8, 2, 4, 0).unwrap();
        let pool = WorkspacePool::new();
        // Warm until the arena inventory settles: best-fit reuse can convert
        // a bounded number of buffers to larger size classes before every
        // take is served warm.
        let warm = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
        let mut baseline = pool.heap_allocations();
        for round in 0..10 {
            let _ = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
            let _ = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
            let now = pool.heap_allocations();
            if round > 0 && now == baseline {
                break;
            }
            assert!(round < 9, "arena inventory must converge");
            baseline = now;
        }
        let arenas = pool.arenas();
        for _ in 0..3 {
            let run = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
            assert_eq!(run.q, warm.q, "pooling must not change results");
            let _ = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
        }
        assert_eq!(
            pool.heap_allocations(),
            baseline,
            "steady-state factorizations must perform zero arena allocations"
        );
        assert_eq!(pool.arenas(), arenas, "no new arenas in steady state");
    }
}
